//! Abstract syntax of JSON Navigation Logic (Definition 1 of the paper,
//! plus the §4.3 extensions).
//!
//! Binary formulas `α, β` navigate (they denote pairs of nodes); unary
//! formulas `φ, ψ` test (they denote sets of nodes):
//!
//! ```text
//! α, β ::= ⟨φ⟩ | X_w | X_i | X_e | X_{i:j} | α ∘ β | ε | (α)*
//! φ, ψ ::= ⊤ | ¬φ | φ∧ψ | φ∨ψ | [α] | EQ(α, A) | EQ(α, β)
//! ```
//!
//! `X_w`/`X_i` are the deterministic core; `X_e` (regex keys) and `X_{i:j}`
//! (index ranges) add non-determinism; `(α)*` adds recursion. The paper's
//! negative indices (`X_{-1}` = last element) are supported in `X_i`.

use std::fmt;

use jsondata::Json;
use relex::Regex;

/// A binary (path) formula.
#[derive(Debug, Clone, PartialEq)]
pub enum Binary {
    /// `⟨φ⟩` — stay put, require `φ` here.
    Test(Box<Unary>),
    /// `X_w` — follow the object edge labelled exactly `w`.
    Key(String),
    /// `X_i` — follow the array edge at position `i`; negative counts from
    /// the end (`-1` = last).
    Index(i64),
    /// `X_e` — follow any object edge whose label is in `L(e)`.
    KeyRegex(Regex),
    /// `X_{i:j}` — follow any array edge at a position in `[i, j]`;
    /// `None` is the paper's `+∞`.
    Range(u64, Option<u64>),
    /// `α ∘ β ∘ …` — composition (kept n-ary for convenience).
    Compose(Vec<Binary>),
    /// `ε` — the identity relation.
    Epsilon,
    /// `(α)*` — reflexive-transitive closure (the recursive extension).
    Star(Box<Binary>),
}

/// A unary (node-set) formula.
#[derive(Debug, Clone, PartialEq)]
pub enum Unary {
    /// `⊤` — true at every node.
    True,
    /// `¬φ`.
    Not(Box<Unary>),
    /// `φ ∧ ψ ∧ …` (n-ary).
    And(Vec<Unary>),
    /// `φ ∨ ψ ∨ …` (n-ary).
    Or(Vec<Unary>),
    /// `[α]` — some `α`-path starts here.
    Exists(Box<Binary>),
    /// `EQ(α, A)` — some `α`-path reaches a node whose subtree equals the
    /// document `A`.
    EqDoc(Box<Binary>, Json),
    /// `EQ(α, β)` — some `α`-path and some `β`-path reach nodes with equal
    /// subtrees.
    EqPair(Box<Binary>, Box<Binary>),
}

/// Which JNL fragment a formula falls into; drives evaluator dispatch and
/// the complexity claims being measured (Propositions 1 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fragment {
    /// Uses `X_e` or `X_{i:j}` (non-determinism).
    pub nondeterministic: bool,
    /// Uses `(α)*` (recursion).
    pub recursive: bool,
    /// Uses the binary equality `EQ(α, β)`.
    pub eq_pair: bool,
    /// Uses negation.
    pub negation: bool,
}

impl Fragment {
    /// The deterministic core of Definition 1 (Proposition 1 applies).
    pub fn is_deterministic(&self) -> bool {
        !self.nondeterministic && !self.recursive
    }
}

impl Unary {
    /// `⊤` constructor.
    pub fn truth() -> Unary {
        Unary::True
    }

    /// `¬φ`, collapsing double negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(phi: Unary) -> Unary {
        match phi {
            Unary::Not(inner) => *inner,
            other => Unary::Not(Box::new(other)),
        }
    }

    /// `φ ∧ ψ` flattening nested conjunctions.
    pub fn and(parts: Vec<Unary>) -> Unary {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Unary::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Unary::True,
            1 => flat.into_iter().next().expect("one element"),
            _ => Unary::And(flat),
        }
    }

    /// `φ ∨ ψ` flattening nested disjunctions.
    pub fn or(parts: Vec<Unary>) -> Unary {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Unary::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Unary::Not(Box::new(Unary::True)),
            1 => flat.into_iter().next().expect("one element"),
            _ => Unary::Or(flat),
        }
    }

    /// `[α]`.
    pub fn exists(alpha: Binary) -> Unary {
        Unary::Exists(Box::new(alpha))
    }

    /// `EQ(α, A)`.
    pub fn eq_doc(alpha: Binary, doc: Json) -> Unary {
        Unary::EqDoc(Box::new(alpha), doc)
    }

    /// `EQ(α, β)`.
    pub fn eq_pair(alpha: Binary, beta: Binary) -> Unary {
        Unary::EqPair(Box::new(alpha), Box::new(beta))
    }

    /// Formula size `|φ|` (nodes of the syntax tree, counting embedded
    /// regexes and documents).
    pub fn size(&self) -> usize {
        match self {
            Unary::True => 1,
            Unary::Not(p) => 1 + p.size(),
            Unary::And(ps) | Unary::Or(ps) => 1 + ps.iter().map(Unary::size).sum::<usize>(),
            Unary::Exists(a) => 1 + a.size(),
            Unary::EqDoc(a, d) => 1 + a.size() + d.node_count(),
            Unary::EqPair(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Fragment analysis.
    pub fn fragment(&self) -> Fragment {
        let mut f = Fragment {
            nondeterministic: false,
            recursive: false,
            eq_pair: false,
            negation: false,
        };
        self.scan(&mut f);
        f
    }

    fn scan(&self, f: &mut Fragment) {
        match self {
            Unary::True => {}
            Unary::Not(p) => {
                f.negation = true;
                p.scan(f);
            }
            Unary::And(ps) | Unary::Or(ps) => {
                for p in ps {
                    p.scan(f);
                }
            }
            Unary::Exists(a) => a.scan(f),
            Unary::EqDoc(a, _) => a.scan(f),
            Unary::EqPair(a, b) => {
                f.eq_pair = true;
                a.scan(f);
                b.scan(f);
            }
        }
    }
}

impl Binary {
    /// `X_w`.
    pub fn key(w: impl Into<String>) -> Binary {
        Binary::Key(w.into())
    }

    /// `X_i`.
    pub fn index(i: i64) -> Binary {
        Binary::Index(i)
    }

    /// `X_e`.
    pub fn key_regex(e: Regex) -> Binary {
        Binary::KeyRegex(e)
    }

    /// `X_{Σ*}` — any object edge (a common axis in the paper's examples).
    pub fn any_key() -> Binary {
        Binary::KeyRegex(Regex::sigma_star())
    }

    /// `X_{i:j}`.
    pub fn range(i: u64, j: Option<u64>) -> Binary {
        Binary::Range(i, j)
    }

    /// `X_{0:∞}` — any array edge.
    pub fn any_index() -> Binary {
        Binary::Range(0, None)
    }

    /// `α ∘ β`, flattening nested compositions.
    pub fn compose(parts: Vec<Binary>) -> Binary {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Binary::Compose(inner) => flat.extend(inner),
                Binary::Epsilon => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Binary::Epsilon,
            1 => flat.into_iter().next().expect("one element"),
            _ => Binary::Compose(flat),
        }
    }

    /// `⟨φ⟩`.
    pub fn test(phi: Unary) -> Binary {
        Binary::Test(Box::new(phi))
    }

    /// `(α)*`.
    pub fn star(alpha: Binary) -> Binary {
        Binary::Star(Box::new(alpha))
    }

    /// `α ∘ α ∘ … ∘ α` (k times); `k = 0` is `ε`.
    pub fn power(alpha: Binary, k: usize) -> Binary {
        Binary::compose(std::iter::repeat_n(alpha, k).collect())
    }

    /// Formula size.
    pub fn size(&self) -> usize {
        match self {
            Binary::Epsilon | Binary::Key(_) | Binary::Index(_) | Binary::Range(_, _) => 1,
            Binary::KeyRegex(e) => 1 + e.size(),
            Binary::Test(p) => 1 + p.size(),
            Binary::Compose(ps) => 1 + ps.iter().map(Binary::size).sum::<usize>(),
            Binary::Star(a) => 1 + a.size(),
        }
    }

    fn scan(&self, f: &mut Fragment) {
        match self {
            Binary::Epsilon | Binary::Key(_) | Binary::Index(_) => {}
            Binary::KeyRegex(e) => {
                // A singleton-language regex is still deterministic in
                // effect, but we classify syntactically like the paper.
                let _ = e;
                f.nondeterministic = true;
            }
            Binary::Range(_, _) => f.nondeterministic = true,
            Binary::Test(p) => p.scan(f),
            Binary::Compose(ps) => {
                for p in ps {
                    p.scan(f);
                }
            }
            Binary::Star(a) => {
                f.recursive = true;
                a.scan(f);
            }
        }
    }
}

impl fmt::Display for Binary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Binary::Test(p) => write!(f, "<{p}>"),
            Binary::Key(w) => write!(f, "@{}", jsondata::serialize::quote(w)),
            Binary::Index(i) => write!(f, "@{i}"),
            Binary::KeyRegex(e) => write!(f, "@/{}/", regex_src(e)),
            Binary::Range(i, Some(j)) => write!(f, "@[{i}:{j}]"),
            Binary::Range(i, None) => write!(f, "@[{i}:*]"),
            Binary::Compose(ps) => {
                for (k, p) in ps.iter().enumerate() {
                    if k > 0 {
                        write!(f, " ; ")?;
                    }
                    if matches!(p, Binary::Star(_)) {
                        write!(f, "{p}")?;
                    } else if matches!(p, Binary::Compose(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Binary::Epsilon => write!(f, "eps"),
            Binary::Star(a) => write!(f, "({a})*"),
        }
    }
}

/// Escapes `/` in the regex source so `@/…/` stays parseable.
fn regex_src(e: &Regex) -> String {
    e.to_string().replace('/', "\\/")
}

impl fmt::Display for Unary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unary::True => write!(f, "true"),
            Unary::Not(p) => {
                if matches!(**p, Unary::And(_) | Unary::Or(_)) {
                    write!(f, "!({p})")
                } else {
                    write!(f, "!{p}")
                }
            }
            Unary::And(ps) => {
                for (k, p) in ps.iter().enumerate() {
                    if k > 0 {
                        write!(f, " & ")?;
                    }
                    if matches!(p, Unary::Or(_) | Unary::And(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Unary::Or(ps) => {
                for (k, p) in ps.iter().enumerate() {
                    if k > 0 {
                        write!(f, " | ")?;
                    }
                    if matches!(p, Unary::Or(_) | Unary::And(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Unary::Exists(a) => write!(f, "[{a}]"),
            Unary::EqDoc(a, d) => write!(f, "eqdoc({a}, {d})"),
            Unary::EqPair(a, b) => write!(f, "eqpair({a}, {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_normalise() {
        assert_eq!(Unary::and(vec![]), Unary::True);
        assert_eq!(Unary::and(vec![Unary::True]), Unary::True);
        let nested = Unary::and(vec![
            Unary::and(vec![Unary::True, Unary::True]),
            Unary::True,
        ]);
        assert_eq!(
            nested,
            Unary::And(vec![Unary::True, Unary::True, Unary::True])
        );
        assert_eq!(Unary::not(Unary::not(Unary::True)), Unary::True);
        assert_eq!(
            Binary::compose(vec![Binary::Epsilon, Binary::Epsilon]),
            Binary::Epsilon
        );
        assert_eq!(
            Binary::compose(vec![Binary::key("a"), Binary::Epsilon, Binary::key("b")]),
            Binary::Compose(vec![Binary::key("a"), Binary::key("b")])
        );
    }

    #[test]
    fn fragment_analysis() {
        let det = Unary::exists(Binary::compose(vec![Binary::key("a"), Binary::index(0)]));
        let f = det.fragment();
        assert!(f.is_deterministic());
        assert!(!f.eq_pair && !f.negation);

        let nondet = Unary::exists(Binary::any_key());
        assert!(nondet.fragment().nondeterministic);

        let rec = Unary::exists(Binary::star(Binary::any_key()));
        assert!(rec.fragment().recursive);

        let eq = Unary::eq_pair(Binary::key("a"), Binary::key("b"));
        assert!(eq.fragment().eq_pair);

        let neg = Unary::not(Unary::exists(Binary::key("a")));
        assert!(neg.fragment().negation);
    }

    #[test]
    fn size_counts_embedded_documents() {
        let phi = Unary::eq_doc(Binary::key("a"), jsondata::parse(r#"{"x":[1,2]}"#).unwrap());
        // 1 (EqDoc) + 1 (Key) + 4 (doc nodes: obj, arr, 1, 2)
        assert_eq!(phi.size(), 6);
    }

    #[test]
    fn display_shapes() {
        let phi = Unary::and(vec![
            Unary::exists(Binary::compose(vec![
                Binary::key("name"),
                Binary::test(Unary::True),
            ])),
            Unary::not(Unary::exists(Binary::star(Binary::any_key()))),
        ]);
        let s = phi.to_string();
        assert!(s.contains("@\"name\""));
        assert!(s.contains(")*"));
        assert!(s.contains('!'));
    }

    #[test]
    fn power_builds_compositions() {
        assert_eq!(Binary::power(Binary::key("a"), 0), Binary::Epsilon);
        assert_eq!(Binary::power(Binary::key("a"), 1), Binary::key("a"));
        assert_eq!(
            Binary::power(Binary::key("a"), 3),
            Binary::Compose(vec![Binary::key("a"), Binary::key("a"), Binary::key("a")])
        );
    }
}
