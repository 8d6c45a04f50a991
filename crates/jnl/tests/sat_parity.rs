//! The deterministic sat solver ([`jnl::sat::det`]) checked against the
//! bounded-model oracle ([`jnl::gen::small_model`]) on the shared seeded
//! formula sweeps ([`jnl::gen`]) that also drive `harness s8`.
//!
//! The two share no search code: the tableau builds a pattern tree and
//! closes branches, the oracle enumerates every small document over the
//! formula's positions and evaluates it. Three contracts are pinned:
//!
//! 1. **Closed-loop witness validity** — every `Sat` witness satisfies
//!    its formula through the production evaluator
//!    (`jnl::eval::check_root`), rather than trusting the solver's
//!    internal re-verification.
//! 2. **No small model for `Unsat`** — every `Unsat` verdict whose
//!    candidate space fits [`SMALL_MODEL_CAP`] leaves the enumeration
//!    empty. This is a bounded check, not a proof: it catches a wrong
//!    `Unsat` whenever a small model exists.
//! 3. **Containment** — `Contained` is an `Unsat` of `φ ∧ ¬ψ`, so it too
//!    must have no small model, and every `NotContained` counterexample
//!    must satisfy `φ` and not `ψ`.
//!
//! Floors on how many verdicts were actually enumerated keep the checks
//! from passing vacuously.

use jnl::ast::Unary;
use jnl::check_root;
use jnl::gen::{small_model, SMALL_MODEL_CAP};
use jnl::sat::det::sat_deterministic;
use jnl::sat::SatResult;
use jnl::{contained_in, Containment};
use jsondata::JsonTree;

/// Verdict counts of one sweep, plus how many verdicts the oracle could
/// enumerate.
#[derive(Default, Debug)]
struct Tally {
    sat: usize,
    unsat: usize,
    unknown: usize,
    /// `Unsat` verdicts within the cap (all confirmed: no small model).
    unsat_enumerated: usize,
    /// Of those, the formulas with `EQ(α, β)`.
    unsat_eqpair_enumerated: usize,
    /// `Sat` verdicts within the cap.
    sat_enumerated: usize,
    /// Of those, the ones where the oracle found a model of its own.
    sat_found: usize,
}

fn satisfies(phi: &Unary, doc: &jsondata::Json) -> bool {
    check_root(&JsonTree::build(doc), phi)
}

/// Runs `det` on `phi` and checks its verdict against the oracle.
fn check(phi: &Unary, tally: &mut Tally) {
    match sat_deterministic(phi) {
        SatResult::Sat(w) => {
            assert!(
                satisfies(phi, &w),
                "witness fails its own formula\n  formula: {phi}\n  witness: {w}"
            );
            tally.sat += 1;
            if let Ok(found) = small_model(phi, SMALL_MODEL_CAP) {
                tally.sat_enumerated += 1;
                tally.sat_found += usize::from(found.is_some());
            }
        }
        SatResult::Unsat => {
            tally.unsat += 1;
            match small_model(phi, SMALL_MODEL_CAP) {
                Ok(Some(m)) => {
                    panic!("det says Unsat but a model exists\n  formula: {phi}\n  model: {m}")
                }
                Ok(None) => {
                    tally.unsat_enumerated += 1;
                    tally.unsat_eqpair_enumerated += usize::from(phi.fragment().eq_pair);
                }
                Err(_) => {}
            }
        }
        SatResult::Unknown(_) => tally.unknown += 1,
    }
}

fn sweep(seed: u64, count: usize, depth: usize) -> Tally {
    let mut tally = Tally::default();
    for phi in jnl::gen::formulas(seed, count, depth) {
        check(&phi, &mut tally);
    }
    // The oracle's space is not vacuous: it finds a model for nearly every
    // satisfiable formula it can enumerate.
    assert!(
        tally.sat_found * 10 >= tally.sat_enumerated * 9,
        "oracle found models for only {} of {} enumerable Sat verdicts",
        tally.sat_found,
        tally.sat_enumerated
    );
    tally
}

#[test]
fn engines_agree_on_shallow_sweeps() {
    let t = sweep(101, 250, 2);
    assert!(t.sat > 20, "shallow sweep too easy: {t:?}");
    assert!(t.unsat > 20, "shallow sweep too easy: {t:?}");
    assert!(
        t.unsat_eqpair_enumerated >= 25,
        "too few eqpair Unsat enumerated: {t:?}"
    );
}

#[test]
fn engines_agree_on_deep_sweeps() {
    let t = sweep(202, 150, 4);
    assert!(t.sat > 10, "deep sweep degenerate: {t:?}");
    assert!(t.unsat > 10, "deep sweep degenerate: {t:?}");
    assert!(
        t.unsat_eqpair_enumerated >= 10,
        "too few eqpair Unsat enumerated: {t:?}"
    );
}

#[test]
fn engines_agree_on_handpicked_edges() {
    // Constructs the random sweeps hit rarely: exact-document equality
    // interacting with key constraints, forbidden keys, index/key
    // mixtures, and tests inside paths.
    let cases = [
        r#"eqdoc(@"a", {"z": 1}) & [@"a" ; @"z"]"#,
        r#"eqdoc(@"a", {"z": 1}) & [@"a" ; @"w"]"#,
        r#"eqdoc(@"a", {}) & [@"a" ; @"z"]"#,
        r#"eqdoc(@"a", [1, 2]) & [@"a" ; @1]"#,
        r#"eqdoc(@"a", [1]) & [@"a" ; @1]"#,
        r#"[@"k" ; <eqdoc(@"a", 1) & eqdoc(@"b", 2)>]"#,
        r#"eqpair(@"a", @"b") & eqdoc(@"a", {"k": 3})"#,
        r#"!([@"a"]) & eqdoc(@"a", 1)"#,
        r#"!([@"a"]) & !([@"b"]) & ([@"a"] | [@"b"])"#,
    ];
    let mut tally = Tally::default();
    for src in cases {
        let phi = jnl::parse_unary(src).expect("edge case parses");
        check(&phi, &mut tally);
    }
    assert_eq!(tally.unknown, 0, "{tally:?}");
    assert_eq!(
        tally.sat_found + tally.unsat_enumerated,
        cases.len(),
        "every edge case is enumerable and the oracle agrees: {tally:?}"
    );
}

#[test]
fn containment_verdicts_agree_with_small_models() {
    // Consecutive pairs of the shallow sweep, as (φ, ψ) and (φ ∧ ψ, ψ);
    // the second shape is contained by construction.
    let phis = jnl::gen::formulas(101, 250, 2);
    let (mut contained_sat_left, mut enumerated, mut not_contained) = (0usize, 0usize, 0usize);
    for pair in phis.windows(2) {
        let (phi, psi) = (&pair[0], &pair[1]);
        for left in [phi.clone(), Unary::and(vec![phi.clone(), psi.clone()])] {
            match contained_in(left.clone(), psi.clone()) {
                Containment::Contained => {
                    contained_sat_left += usize::from(sat_deterministic(&left).is_sat());
                    let query = Unary::and(vec![left.clone(), Unary::not(psi.clone())]);
                    match small_model(&query, SMALL_MODEL_CAP) {
                        Ok(Some(m)) => panic!(
                            "Contained, but a counterexample exists\n  left: {left}\n  right: {psi}\n  model: {m}"
                        ),
                        Ok(None) => enumerated += 1,
                        Err(_) => {}
                    }
                }
                Containment::NotContained(w) => {
                    not_contained += 1;
                    assert!(
                        satisfies(&left, &w) && !satisfies(psi, &w),
                        "counterexample does not separate\n  left: {left}\n  right: {psi}\n  witness: {w}"
                    );
                }
                Containment::Unknown(r) => {
                    panic!("containment undecided ({r})\n  left: {left}\n  right: {psi}")
                }
            }
        }
    }
    assert!(
        contained_sat_left >= 100,
        "too few non-trivial Contained: {contained_sat_left}"
    );
    assert!(
        enumerated >= 120,
        "too few Contained verdicts enumerated: {enumerated}"
    );
    assert!(
        not_contained >= 120,
        "too few NotContained: {not_contained}"
    );
}
