//! The Theorem 2 translations between (non-deterministic) JNL without
//! `EQ(α, β)` and (non-deterministic) JSL with `∼(A)` as the only node test.
//!
//! Four translations are provided:
//!
//! * [`jsl_to_jnl`] — polynomial, as the theorem states.
//! * [`jnl_to_jsl_paper`] — a transliteration of the appendix's top-symbol
//!   substitution construction. **Reproduction finding**: contrary to the
//!   paper's remark, the construction as written stays polynomial on the
//!   `⟨[X_{a1}]∨[X_{a2}]⟩ ∘ …` family it cites — every top symbol occurs
//!   exactly once at its substitution site, so nothing duplicates (see
//!   `harness e6`, which prints the sizes).
//! * [`jnl_to_jsl_paths`] — the naive *path-expansion* translation the
//!   paper's "keeps track of all the possible paths" remark describes:
//!   disjunctions inside tests are distributed across compositions. This
//!   one is genuinely exponential on the family.
//! * [`jnl_to_jsl_cps`] — a continuation-passing variant, linear on the
//!   family.
//!
//! All are differentially tested for semantic agreement.

use jnl::ast::{Binary, Unary};

use crate::ast::{Jsl, NodeTest};

/// Why a formula cannot be translated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// `EQ(α, β)` is outside Theorem 2's fragment.
    EqPair,
    /// `(α)*` needs recursive JSL (see [`crate::sat`] for the compilation
    /// used by the satisfiability bridge).
    Recursion,
    /// Negative indices (`X_{-1}`) have no JSL counterpart.
    NegativeIndex,
    /// A JSL node test other than `∼(A)` has no JNL counterpart.
    UnsupportedNodeTest(String),
    /// A free formula variable.
    FreeVariable(String),
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::EqPair => write!(f, "EQ(α, β) is outside the Theorem 2 fragment"),
            TranslateError::Recursion => write!(f, "(α)* requires recursive JSL"),
            TranslateError::NegativeIndex => {
                write!(f, "negative array indices have no JSL counterpart")
            }
            TranslateError::UnsupportedNodeTest(t) => {
                write!(
                    f,
                    "node test {t} has no JNL counterpart (Theorem 2 allows only ∼(A))"
                )
            }
            TranslateError::FreeVariable(v) => write!(f, "free formula variable ${v}"),
        }
    }
}

impl std::error::Error for TranslateError {}

// ---------------------------------------------------------------------
// JSL → JNL (polynomial)
// ---------------------------------------------------------------------

/// Translates a JSL formula using only the `∼(A)` node test into a unary
/// JNL formula with the same satisfying node sets (Theorem 2, first item).
pub fn jsl_to_jnl(phi: &Jsl) -> Result<Unary, TranslateError> {
    Ok(match phi {
        Jsl::True => Unary::True,
        Jsl::Not(p) => Unary::not(jsl_to_jnl(p)?),
        Jsl::And(ps) => Unary::and(ps.iter().map(jsl_to_jnl).collect::<Result<_, _>>()?),
        Jsl::Or(ps) => Unary::or(ps.iter().map(jsl_to_jnl).collect::<Result<_, _>>()?),
        Jsl::Test(NodeTest::EqDoc(doc)) => Unary::eq_doc(Binary::Epsilon, doc.clone()),
        Jsl::Test(other) => return Err(TranslateError::UnsupportedNodeTest(other.to_string())),
        Jsl::Var(v) => return Err(TranslateError::FreeVariable(v.clone())),
        // ◇_e φ  ⇒  [X_e ∘ ⟨φ'⟩]
        Jsl::DiamondKey(e, p) => Unary::exists(Binary::compose(vec![
            Binary::KeyRegex(e.clone()),
            Binary::test(jsl_to_jnl(p)?),
        ])),
        Jsl::DiamondRange(i, j, p) => Unary::exists(Binary::compose(vec![
            Binary::Range(*i, *j),
            Binary::test(jsl_to_jnl(p)?),
        ])),
        // □_e φ  ⇒  ¬◇_e ¬φ
        Jsl::BoxKey(e, p) => Unary::not(Unary::exists(Binary::compose(vec![
            Binary::KeyRegex(e.clone()),
            Binary::test(Unary::not(jsl_to_jnl(p)?)),
        ]))),
        Jsl::BoxRange(i, j, p) => Unary::not(Unary::exists(Binary::compose(vec![
            Binary::Range(*i, *j),
            Binary::test(Unary::not(jsl_to_jnl(p)?)),
        ]))),
    })
}

// ---------------------------------------------------------------------
// JNL → JSL, continuation-passing (polynomial)
// ---------------------------------------------------------------------

/// Translates an `EQ(α,β)`-free, star-free unary JNL formula into JSL with
/// only `∼(A)` tests. Continuation-passing: `tr(α, k)` is "some `α`-path
/// ends in a node satisfying `k`".
pub fn jnl_to_jsl_cps(phi: &Unary) -> Result<Jsl, TranslateError> {
    Ok(match phi {
        Unary::True => Jsl::True,
        Unary::Not(p) => Jsl::not(jnl_to_jsl_cps(p)?),
        Unary::And(ps) => Jsl::and(ps.iter().map(jnl_to_jsl_cps).collect::<Result<_, _>>()?),
        Unary::Or(ps) => Jsl::or(ps.iter().map(jnl_to_jsl_cps).collect::<Result<_, _>>()?),
        Unary::Exists(alpha) => tr_binary(alpha, Jsl::True)?,
        Unary::EqDoc(alpha, doc) => tr_binary(alpha, Jsl::Test(NodeTest::EqDoc(doc.clone())))?,
        Unary::EqPair(_, _) => return Err(TranslateError::EqPair),
    })
}

fn tr_binary(alpha: &Binary, k: Jsl) -> Result<Jsl, TranslateError> {
    Ok(match alpha {
        Binary::Epsilon => k,
        Binary::Test(phi) => Jsl::and(vec![jnl_to_jsl_cps(phi)?, k]),
        Binary::Key(w) => Jsl::diamond_key(w, k),
        Binary::Index(i) => {
            if *i < 0 {
                return Err(TranslateError::NegativeIndex);
            }
            Jsl::diamond_index(*i as u64, k)
        }
        Binary::KeyRegex(e) => Jsl::DiamondKey(e.clone(), Box::new(k)),
        Binary::Range(i, j) => Jsl::DiamondRange(*i, *j, Box::new(k)),
        Binary::Compose(parts) => {
            let mut acc = k;
            for p in parts.iter().rev() {
                acc = tr_binary(p, acc)?;
            }
            acc
        }
        Binary::Star(_) => return Err(TranslateError::Recursion),
    })
}

// ---------------------------------------------------------------------
// JNL → JSL, the paper's construction (exponential)
// ---------------------------------------------------------------------

/// The paper's Theorem 2 construction, transliterated: each (sub)formula is
/// translated with a designated *top symbol* `⊤_φ`, and composition
/// substitutes the right-hand translation for every occurrence of the
/// left-hand top symbol. Multiple occurrences (from disjunctions of path
/// tests) duplicate the substituted formula — the source of the exponential
/// blowup measured in E6.
pub fn jnl_to_jsl_paper(phi: &Unary) -> Result<Jsl, TranslateError> {
    let mut fresh = 0usize;
    let (mut out, top) = tr_u(phi, &mut fresh)?;
    // ϕ^S = ϕ^SI[{⊤*, ⊤_ϕ} → ⊤]
    substitute(&mut out, &top, &Jsl::True);
    substitute(&mut out, STAR_TOP, &Jsl::True);
    Ok(out)
}

const STAR_TOP: &str = "⊤*";

fn fresh_top(fresh: &mut usize) -> String {
    *fresh += 1;
    format!("⊤{}", *fresh)
}

/// Translates a unary formula; returns `(ϕ^SI, ⊤_ϕ)`.
fn tr_u(phi: &Unary, fresh: &mut usize) -> Result<(Jsl, String), TranslateError> {
    let top = fresh_top(fresh);
    let out = match phi {
        Unary::True => Jsl::Var(top.clone()),
        Unary::Not(p) => {
            let (mut inner, t) = tr_u(p, fresh)?;
            substitute(&mut inner, &t, &Jsl::Var(top.clone()));
            Jsl::not(inner)
        }
        Unary::And(ps) => {
            let mut parts = Vec::new();
            for p in ps {
                let (mut inner, t) = tr_u(p, fresh)?;
                substitute(&mut inner, &t, &Jsl::Var(top.clone()));
                parts.push(inner);
            }
            Jsl::and(parts)
        }
        Unary::Or(ps) => {
            let mut parts = Vec::new();
            for p in ps {
                let (mut inner, t) = tr_u(p, fresh)?;
                substitute(&mut inner, &t, &Jsl::Var(top.clone()));
                parts.push(inner);
            }
            Jsl::or(parts)
        }
        Unary::Exists(alpha) => {
            let (mut inner, t) = tr_b(alpha, fresh)?;
            substitute(&mut inner, &t, &Jsl::Var(top.clone()));
            inner
        }
        Unary::EqDoc(alpha, doc) => {
            // ϕ^SI = α^SI[⊤_α → ∼(A)]; the top of an EqDoc plays no further
            // role but we keep the uniform interface.
            let (mut inner, t) = tr_b(alpha, fresh)?;
            substitute(&mut inner, &t, &Jsl::Test(NodeTest::EqDoc(doc.clone())));
            inner
        }
        Unary::EqPair(_, _) => return Err(TranslateError::EqPair),
    };
    Ok((out, top))
}

/// Translates a binary formula; returns `(α^SI, ⊤_α)`.
fn tr_b(alpha: &Binary, fresh: &mut usize) -> Result<(Jsl, String), TranslateError> {
    let top = fresh_top(fresh);
    let out = match alpha {
        Binary::Epsilon => Jsl::Var(top.clone()),
        Binary::Key(w) => Jsl::diamond_key(w, Jsl::Var(top.clone())),
        Binary::Index(i) => {
            if *i < 0 {
                return Err(TranslateError::NegativeIndex);
            }
            Jsl::diamond_index(*i as u64, Jsl::Var(top.clone()))
        }
        Binary::KeyRegex(e) => Jsl::DiamondKey(e.clone(), Box::new(Jsl::Var(top.clone()))),
        Binary::Range(i, j) => Jsl::DiamondRange(*i, *j, Box::new(Jsl::Var(top.clone()))),
        Binary::Test(phi) => {
            // α = ⟨φ⟩: α^SI = ⊤_α ∧ φ^SI[⊤_φ → ⊤*]
            let (mut inner, t) = tr_u(phi, fresh)?;
            substitute(&mut inner, &t, &Jsl::Var(STAR_TOP.to_owned()));
            Jsl::and(vec![Jsl::Var(top.clone()), inner])
        }
        Binary::Compose(parts) => {
            // α = α₁ ∘ α₂: α^SI = (α₁^SI[⊤_{α₁} → α₂^SI])[⊤_{α₂} → ⊤_α].
            let mut acc = Jsl::Var(top.clone());
            for p in parts.iter().rev() {
                let (mut head, t) = tr_b(p, fresh)?;
                substitute(&mut head, &t, &acc);
                acc = head;
            }
            acc
        }
        Binary::Star(_) => return Err(TranslateError::Recursion),
    };
    Ok((out, top))
}

/// Substitutes `Var(name) → replacement` (textual, duplicating).
fn substitute(phi: &mut Jsl, name: &str, replacement: &Jsl) {
    match phi {
        Jsl::Var(v) if v == name => *phi = replacement.clone(),
        Jsl::Var(_) | Jsl::True | Jsl::Test(_) => {}
        Jsl::Not(p) => substitute(p, name, replacement),
        Jsl::And(ps) | Jsl::Or(ps) => {
            for p in ps {
                substitute(p, name, replacement);
            }
        }
        Jsl::DiamondKey(_, p)
        | Jsl::BoxKey(_, p)
        | Jsl::DiamondRange(_, _, p)
        | Jsl::BoxRange(_, _, p) => substitute(p, name, replacement),
    }
}

// ---------------------------------------------------------------------
// JNL → JSL, naive path expansion (exponential)
// ---------------------------------------------------------------------

/// The naive translation that distributes disjunctions inside tests across
/// compositions, materialising one JSL branch per root-to-target *path* of
/// the JNL formula — exponential on the E6 family.
pub fn jnl_to_jsl_paths(phi: &Unary) -> Result<Jsl, TranslateError> {
    Ok(match phi {
        Unary::True => Jsl::True,
        Unary::Not(p) => Jsl::not(jnl_to_jsl_paths(p)?),
        Unary::And(ps) => Jsl::and(ps.iter().map(jnl_to_jsl_paths).collect::<Result<_, _>>()?),
        Unary::Or(ps) => Jsl::or(ps.iter().map(jnl_to_jsl_paths).collect::<Result<_, _>>()?),
        Unary::Exists(alpha) => Jsl::or(expand(alpha, Jsl::True)?),
        Unary::EqDoc(alpha, doc) => {
            Jsl::or(expand(alpha, Jsl::Test(NodeTest::EqDoc(doc.clone())))?)
        }
        Unary::EqPair(_, _) => return Err(TranslateError::EqPair),
    })
}

/// All translations of `α`-paths ending in `k`, with test-disjunctions
/// split into separate paths (the cross product over a composition is what
/// explodes).
fn expand(alpha: &Binary, k: Jsl) -> Result<Vec<Jsl>, TranslateError> {
    Ok(match alpha {
        Binary::Epsilon => vec![k],
        Binary::Key(w) => vec![Jsl::diamond_key(w, k)],
        Binary::Index(i) => {
            if *i < 0 {
                return Err(TranslateError::NegativeIndex);
            }
            vec![Jsl::diamond_index(*i as u64, k)]
        }
        Binary::KeyRegex(e) => vec![Jsl::DiamondKey(e.clone(), Box::new(k))],
        Binary::Range(i, j) => vec![Jsl::DiamondRange(*i, *j, Box::new(k))],
        Binary::Test(phi) => split_test(phi)?
            .into_iter()
            .map(|branch| Jsl::and(vec![branch, k.clone()]))
            .collect(),
        Binary::Compose(parts) => {
            let mut tails = vec![k];
            for p in parts.iter().rev() {
                let mut next = Vec::new();
                for t in tails {
                    next.extend(expand(p, t)?);
                }
                tails = next;
            }
            tails
        }
        Binary::Star(_) => return Err(TranslateError::Recursion),
    })
}

/// Splits the disjunctive structure of a test into separate branches.
fn split_test(phi: &Unary) -> Result<Vec<Jsl>, TranslateError> {
    Ok(match phi {
        Unary::Or(ps) => {
            let mut out = Vec::new();
            for p in ps {
                out.extend(split_test(p)?);
            }
            out
        }
        Unary::And(ps) => {
            // Cross product of the conjuncts' branches.
            let mut acc: Vec<Vec<Jsl>> = vec![Vec::new()];
            for p in ps {
                let branches = split_test(p)?;
                let mut next = Vec::new();
                for prefix in &acc {
                    for b in &branches {
                        let mut row = prefix.clone();
                        row.push(b.clone());
                        next.push(row);
                    }
                }
                acc = next;
            }
            acc.into_iter().map(Jsl::and).collect()
        }
        other => vec![jnl_to_jsl_paths(other)?],
    })
}

// ---------------------------------------------------------------------
// The E6 blowup family
// ---------------------------------------------------------------------

/// The paper's blowup family:
/// `⟨[X_{a1}] ∨ [X_{a2}]⟩ ∘ ⟨[X_{b1}] ∨ [X_{b2}]⟩ ∘ … ∘ X_z` (k test blocks).
/// The substitution translation tracks all `2^k` paths.
pub fn blowup_family(k: usize) -> Unary {
    let mut parts: Vec<Binary> = Vec::new();
    for i in 0..k {
        parts.push(Binary::test(Unary::or(vec![
            Unary::exists(Binary::key(format!("a{i}"))),
            Unary::exists(Binary::key(format!("b{i}"))),
        ])));
    }
    parts.push(Binary::key("z"));
    Unary::exists(Binary::compose(parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsondata::{parse, JsonTree};
    use relex::Regex;

    fn docs() -> Vec<JsonTree> {
        [
            r#"{"name": {"first": "John"}, "aba": [1, 2], "z": 0}"#,
            r#"{"a0": 1, "b0": 2, "z": 3}"#,
            r#"{"a0": 1, "z": {"z": 1}}"#,
            r#"[{"z": 1}, [0, 1], "s"]"#,
            r#"{}"#,
        ]
        .iter()
        .map(|s| JsonTree::build(&parse(s).unwrap()))
        .collect()
    }

    fn assert_equivalent_jnl_jsl(phi_n: &Unary, phi_s: &Jsl) {
        for t in docs() {
            let via_jnl = jnl::eval::evaluate(&t, phi_n);
            let via_jsl = crate::eval::evaluate(&t, phi_s);
            assert_eq!(via_jnl, via_jsl, "formulas {phi_n} vs {phi_s}");
        }
    }

    #[test]
    fn jsl_to_jnl_preserves_semantics() {
        let phis = vec![
            Jsl::DiamondKey(Regex::parse("a(b|c)a").unwrap(), Box::new(Jsl::True)),
            Jsl::BoxKey(
                Regex::sigma_star(),
                Box::new(Jsl::Test(NodeTest::EqDoc(parse("1").unwrap()))),
            ),
            Jsl::and(vec![
                Jsl::DiamondRange(0, None, Box::new(Jsl::True)),
                Jsl::not(Jsl::diamond_key("missing", Jsl::True)),
            ]),
            Jsl::or(vec![
                Jsl::Test(NodeTest::EqDoc(parse(r#"{"z":1}"#).unwrap())),
                Jsl::DiamondRange(1, Some(1), Box::new(Jsl::True)),
            ]),
        ];
        for phi_s in phis {
            let phi_n = jsl_to_jnl(&phi_s).unwrap();
            assert_equivalent_jnl_jsl(&phi_n, &phi_s);
        }
    }

    #[test]
    fn jnl_to_jsl_both_constructions_preserve_semantics() {
        let phis = vec![
            jnl::parse_unary(r#"[@"name" ; @"first"]"#).unwrap(),
            jnl::parse_unary(r#"eqdoc(@"aba" ; @1, 2)"#).unwrap(),
            jnl::parse_unary(r#"![@/a.a/ ; @[0:*]]"#).unwrap(),
            jnl::parse_unary(r#"[<[@"a0"] | [@"b0"]> ; @"z"]"#).unwrap(),
            jnl::parse_unary(r#"eqdoc(@"z" ; <true> ; @"z", 1)"#).unwrap(),
        ];
        for phi_n in phis {
            let cps = jnl_to_jsl_cps(&phi_n).unwrap();
            assert_equivalent_jnl_jsl(&phi_n, &cps);
            let paper = jnl_to_jsl_paper(&phi_n).unwrap();
            assert_equivalent_jnl_jsl(&phi_n, &paper);
        }
    }

    #[test]
    fn round_trip_jsl_jnl_jsl() {
        let phi_s = Jsl::DiamondKey(
            Regex::parse("x+").unwrap(),
            Box::new(Jsl::Test(NodeTest::EqDoc(parse("1").unwrap()))),
        );
        let phi_n = jsl_to_jnl(&phi_s).unwrap();
        let back = jnl_to_jsl_cps(&phi_n).unwrap();
        assert_equivalent_jnl_jsl(&phi_n, &back);
    }

    #[test]
    fn blowup_family_growth_rates() {
        // Sizes on the ⟨[X_{a_i}]∨[X_{b_i}]⟩ chain family (E6).
        let mut paper_sizes = Vec::new();
        let mut paths_sizes = Vec::new();
        let mut cps_sizes = Vec::new();
        for k in 1..=8 {
            let phi = blowup_family(k);
            paper_sizes.push(jnl_to_jsl_paper(&phi).unwrap().size());
            paths_sizes.push(jnl_to_jsl_paths(&phi).unwrap().size());
            cps_sizes.push(jnl_to_jsl_cps(&phi).unwrap().size());
        }
        // The path-expansion translation is genuinely exponential (×2 per
        // chain element).
        let paths_ratio = paths_sizes[7] as f64 / paths_sizes[3] as f64;
        assert!(paths_ratio > 8.0, "paths sizes {paths_sizes:?}");
        // Reproduction finding: the appendix construction transliterated is
        // *linear* on this family (every top symbol occurs exactly once).
        let paper_ratio = paper_sizes[7] as f64 / paper_sizes[3] as f64;
        assert!(paper_ratio < 4.0, "paper sizes {paper_sizes:?}");
        // The CPS variant is linear too.
        let cps_ratio = cps_sizes[7] as f64 / cps_sizes[3] as f64;
        assert!(cps_ratio < 4.0, "cps sizes {cps_sizes:?}");
        // And all three stay semantically equal.
        let phi = blowup_family(4);
        assert_equivalent_jnl_jsl(&phi, &jnl_to_jsl_paper(&phi).unwrap());
        assert_equivalent_jnl_jsl(&phi, &jnl_to_jsl_paths(&phi).unwrap());
        assert_equivalent_jnl_jsl(&phi, &jnl_to_jsl_cps(&phi).unwrap());
    }

    #[test]
    fn paths_translation_agrees_semantically() {
        let phis = vec![
            jnl::parse_unary(r#"[<[@"a0"] | [@"b0"]> ; @"z"]"#).unwrap(),
            jnl::parse_unary(r#"eqdoc(<[@"a0"] & [@"b0"]> ; @"z", 3)"#).unwrap(),
            jnl::parse_unary(r#"![@"name" ; <[@"first"]> ]"#).unwrap(),
        ];
        for phi_n in phis {
            let paths = jnl_to_jsl_paths(&phi_n).unwrap();
            assert_equivalent_jnl_jsl(&phi_n, &paths);
        }
    }

    #[test]
    fn unsupported_constructs_error() {
        use jnl::ast::{Binary as B, Unary as U};
        assert_eq!(
            jnl_to_jsl_cps(&U::eq_pair(B::Epsilon, B::Epsilon)),
            Err(TranslateError::EqPair)
        );
        assert_eq!(
            jnl_to_jsl_cps(&U::exists(B::star(B::any_key()))),
            Err(TranslateError::Recursion)
        );
        assert_eq!(
            jnl_to_jsl_cps(&U::exists(B::index(-1))),
            Err(TranslateError::NegativeIndex)
        );
        assert_eq!(
            jsl_to_jnl(&Jsl::Test(NodeTest::Unique)),
            Err(TranslateError::UnsupportedNodeTest("Unique".into()))
        );
    }
}
