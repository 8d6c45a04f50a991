//! Abstract syntax of the JSON Schema Logic (Definition 2 of the paper).
//!
//! ```text
//! φ, ψ ::= ⊤ | ¬φ | φ∧ψ | φ∨ψ | τ (∈ NodeTests)
//!        | ◇_e φ | ◇_{i:j} φ | □_e φ | □_{i:j} φ
//! ```
//!
//! plus, for *recursive* JSL (§5.3), formula variables `γ` that reference
//! definitions. The deterministic restriction (only `◇_w`/`□_w` and
//! `◇_i`/`□_i`) is recognised by [`Jsl::is_deterministic`].

use std::fmt;

use jsondata::Json;
use relex::Regex;

/// The atomic node tests of §5.2.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeTest {
    /// `Arr` — the node is an array.
    Arr,
    /// `Obj` — the node is an object.
    Obj,
    /// `Str` — the node is a string.
    Str,
    /// `Int` — the node is a number.
    Int,
    /// `Unique` — an array whose elements are pairwise distinct JSON values.
    Unique,
    /// `Pattern(e)` — a string value in `L(e)`.
    Pattern(Regex),
    /// `Min(i)` — a number `≥ i`. (The paper's prose says "greater than";
    /// we follow the JSON Schema semantics `≥` that Theorem 1 needs, so
    /// `minimum` translates to `Min` exactly.)
    Min(u64),
    /// `Max(i)` — a number `≤ i` (same remark as [`NodeTest::Min`]).
    Max(u64),
    /// `MultOf(i)` — a number divisible by `i`.
    MultOf(u64),
    /// `MinCh(i)` — the node has at least `i` children.
    MinCh(u64),
    /// `MaxCh(i)` — the node has at most `i` children.
    MaxCh(u64),
    /// `∼(A)` — the subtree equals the document `A`.
    EqDoc(Json),
}

/// A JSL formula.
#[derive(Debug, Clone, PartialEq)]
pub enum Jsl {
    /// `⊤`.
    True,
    /// `¬φ`.
    Not(Box<Jsl>),
    /// `φ ∧ ψ ∧ …`.
    And(Vec<Jsl>),
    /// `φ ∨ ψ ∨ …`.
    Or(Vec<Jsl>),
    /// An atomic node test.
    Test(NodeTest),
    /// `◇_e φ` — some object child under a key in `L(e)` satisfies `φ`.
    DiamondKey(Regex, Box<Jsl>),
    /// `◇_{i:j} φ` — some array child at a position in `[i, j]` satisfies
    /// `φ` (`None` = `+∞`).
    DiamondRange(u64, Option<u64>, Box<Jsl>),
    /// `□_e φ` — every object child under a key in `L(e)` satisfies `φ`.
    BoxKey(Regex, Box<Jsl>),
    /// `□_{i:j} φ` — every array child at a position in `[i, j]` satisfies
    /// `φ`.
    BoxRange(u64, Option<u64>, Box<Jsl>),
    /// A formula variable `γ` (meaningful only inside
    /// [`crate::recursive::RecursiveJsl`]).
    Var(String),
}

impl Jsl {
    /// `⊥` as `¬⊤`.
    pub fn falsity() -> Jsl {
        Jsl::Not(Box::new(Jsl::True))
    }

    /// `¬φ`, collapsing double negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(phi: Jsl) -> Jsl {
        match phi {
            Jsl::Not(inner) => *inner,
            other => Jsl::Not(Box::new(other)),
        }
    }

    /// Flattened conjunction.
    pub fn and(parts: Vec<Jsl>) -> Jsl {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Jsl::And(inner) => flat.extend(inner),
                Jsl::True => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Jsl::True,
            1 => flat.into_iter().next().expect("one element"),
            _ => Jsl::And(flat),
        }
    }

    /// Flattened disjunction.
    pub fn or(parts: Vec<Jsl>) -> Jsl {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Jsl::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Jsl::falsity(),
            1 => flat.into_iter().next().expect("one element"),
            _ => Jsl::Or(flat),
        }
    }

    /// `◇_w φ` for a literal key (deterministic form).
    pub fn diamond_key(w: &str, phi: Jsl) -> Jsl {
        Jsl::DiamondKey(Regex::literal(w), Box::new(phi))
    }

    /// `□_w φ` for a literal key.
    pub fn box_key(w: &str, phi: Jsl) -> Jsl {
        Jsl::BoxKey(Regex::literal(w), Box::new(phi))
    }

    /// `◇_{i} φ` (deterministic array form).
    pub fn diamond_index(i: u64, phi: Jsl) -> Jsl {
        Jsl::DiamondRange(i, Some(i), Box::new(phi))
    }

    /// `◇_{Σ*} φ` — some object child satisfies φ.
    pub fn diamond_any_key(phi: Jsl) -> Jsl {
        Jsl::DiamondKey(Regex::sigma_star(), Box::new(phi))
    }

    /// `□_{Σ*} φ` — all object children satisfy φ.
    pub fn box_any_key(phi: Jsl) -> Jsl {
        Jsl::BoxKey(Regex::sigma_star(), Box::new(phi))
    }

    /// Formula size (counting embedded regexes and documents).
    pub fn size(&self) -> usize {
        match self {
            Jsl::True | Jsl::Var(_) => 1,
            Jsl::Not(p) => 1 + p.size(),
            Jsl::And(ps) | Jsl::Or(ps) => 1 + ps.iter().map(Jsl::size).sum::<usize>(),
            Jsl::Test(t) => match t {
                NodeTest::Pattern(e) => 1 + e.size(),
                NodeTest::EqDoc(d) => 1 + d.node_count(),
                _ => 1,
            },
            Jsl::DiamondKey(e, p) | Jsl::BoxKey(e, p) => 1 + e.size() + p.size(),
            Jsl::DiamondRange(_, _, p) | Jsl::BoxRange(_, _, p) => 1 + p.size(),
        }
    }

    /// Modal depth (bounds model height for non-recursive satisfiability).
    pub fn modal_depth(&self) -> usize {
        match self {
            Jsl::True | Jsl::Test(_) | Jsl::Var(_) => 0,
            Jsl::Not(p) => p.modal_depth(),
            Jsl::And(ps) | Jsl::Or(ps) => ps.iter().map(Jsl::modal_depth).max().unwrap_or(0),
            Jsl::DiamondKey(_, p)
            | Jsl::BoxKey(_, p)
            | Jsl::DiamondRange(_, _, p)
            | Jsl::BoxRange(_, _, p) => 1 + p.modal_depth(),
        }
    }

    /// Whether the formula uses only the deterministic modalities `◇_w`,
    /// `□_w`, `◇_i`, `□_i` (§5.2's deterministic JSL).
    pub fn is_deterministic(&self) -> bool {
        match self {
            Jsl::True | Jsl::Test(_) | Jsl::Var(_) => true,
            Jsl::Not(p) => p.is_deterministic(),
            Jsl::And(ps) | Jsl::Or(ps) => ps.iter().all(Jsl::is_deterministic),
            Jsl::DiamondKey(e, p) | Jsl::BoxKey(e, p) => {
                e.as_single_word().is_some() && p.is_deterministic()
            }
            Jsl::DiamondRange(i, Some(j), p) | Jsl::BoxRange(i, Some(j), p) => {
                i == j && p.is_deterministic()
            }
            Jsl::DiamondRange(_, _, _) | Jsl::BoxRange(_, _, _) => false,
        }
    }

    /// Whether `Unique` appears anywhere (the Prop 6/7/10 complexity split).
    pub fn uses_unique(&self) -> bool {
        match self {
            Jsl::Test(NodeTest::Unique) => true,
            Jsl::True | Jsl::Test(_) | Jsl::Var(_) => false,
            Jsl::Not(p) => p.uses_unique(),
            Jsl::And(ps) | Jsl::Or(ps) => ps.iter().any(Jsl::uses_unique),
            Jsl::DiamondKey(_, p)
            | Jsl::BoxKey(_, p)
            | Jsl::DiamondRange(_, _, p)
            | Jsl::BoxRange(_, _, p) => p.uses_unique(),
        }
    }

    /// Free formula variables.
    pub fn vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Jsl::Var(v) => out.push(v),
            Jsl::True | Jsl::Test(_) => {}
            Jsl::Not(p) => p.collect_vars(out),
            Jsl::And(ps) | Jsl::Or(ps) => ps.iter().for_each(|p| p.collect_vars(out)),
            Jsl::DiamondKey(_, p)
            | Jsl::BoxKey(_, p)
            | Jsl::DiamondRange(_, _, p)
            | Jsl::BoxRange(_, _, p) => p.collect_vars(out),
        }
    }
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Arr => write!(f, "Arr"),
            NodeTest::Obj => write!(f, "Obj"),
            NodeTest::Str => write!(f, "Str"),
            NodeTest::Int => write!(f, "Int"),
            NodeTest::Unique => write!(f, "Unique"),
            NodeTest::Pattern(e) => write!(f, "Pattern({e})"),
            NodeTest::Min(i) => write!(f, "Min({i})"),
            NodeTest::Max(i) => write!(f, "Max({i})"),
            NodeTest::MultOf(i) => write!(f, "MultOf({i})"),
            NodeTest::MinCh(i) => write!(f, "MinCh({i})"),
            NodeTest::MaxCh(i) => write!(f, "MaxCh({i})"),
            NodeTest::EqDoc(d) => write!(f, "~({d})"),
        }
    }
}

impl fmt::Display for Jsl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn range(i: u64, j: &Option<u64>) -> String {
            match j {
                Some(j) => format!("{i}:{j}"),
                None => format!("{i}:inf"),
            }
        }
        match self {
            Jsl::True => write!(f, "T"),
            Jsl::Not(p) => write!(f, "!({p})"),
            Jsl::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Jsl::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Jsl::Test(t) => write!(f, "{t}"),
            Jsl::DiamondKey(e, p) => write!(f, "<{e}>({p})"),
            Jsl::DiamondRange(i, j, p) => write!(f, "<{}>({p})", range(*i, j)),
            Jsl::BoxKey(e, p) => write!(f, "[{e}]({p})"),
            Jsl::BoxRange(i, j, p) => write!(f, "[{}]({p})", range(*i, j)),
            Jsl::Var(v) => write!(f, "${v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_normalise() {
        assert_eq!(Jsl::and(vec![]), Jsl::True);
        assert_eq!(
            Jsl::and(vec![Jsl::True, Jsl::Test(NodeTest::Obj)]),
            Jsl::Test(NodeTest::Obj)
        );
        assert_eq!(Jsl::or(vec![]), Jsl::falsity());
        assert_eq!(Jsl::not(Jsl::not(Jsl::True)), Jsl::True);
    }

    #[test]
    fn deterministic_detection() {
        let det = Jsl::diamond_key("name", Jsl::box_key("x", Jsl::diamond_index(3, Jsl::True)));
        assert!(det.is_deterministic());
        let nondet = Jsl::diamond_any_key(Jsl::True);
        assert!(!nondet.is_deterministic());
        let range = Jsl::DiamondRange(0, None, Box::new(Jsl::True));
        assert!(!range.is_deterministic());
    }

    #[test]
    fn modal_depth_and_size() {
        let phi = Jsl::box_any_key(Jsl::and(vec![
            Jsl::diamond_any_key(Jsl::True),
            Jsl::Test(NodeTest::MinCh(1)),
        ]));
        assert_eq!(phi.modal_depth(), 2);
        assert!(phi.size() > 4);
    }

    #[test]
    fn unique_detection_and_vars() {
        let phi = Jsl::and(vec![
            Jsl::Test(NodeTest::Unique),
            Jsl::box_any_key(Jsl::Var("g".into())),
        ]);
        assert!(phi.uses_unique());
        assert_eq!(phi.vars(), vec!["g"]);
    }
}
