//! Containment and equivalence for deterministic JNL, by reduction to
//! satisfiability: `φ ⊑ ψ` iff `φ ∧ ¬ψ` is unsatisfiable. The paper poses
//! containment as one of the static-analysis tasks its satisfiability
//! results are for (§4.2); with Proposition 2 this puts deterministic
//! containment in coNP.

use crate::ast::Unary;
use crate::sat::det::sat_deterministic;
use crate::sat::SatResult;

/// The outcome of a containment check.
#[derive(Debug, Clone, PartialEq)]
pub enum Containment {
    /// Every document satisfying the left formula satisfies the right one.
    Contained,
    /// A counterexample document: satisfies the left, not the right.
    NotContained(jsondata::Json),
    /// Undecided (solver budget / unsupported construct).
    Unknown(String),
}

/// Checks `φ ⊑ ψ` (at the root) for deterministic JNL formulas.
///
/// Takes the formulas **by value**: the witness query `φ ∧ ¬ψ` is
/// assembled by moving both ASTs, so a caller that has (or can cheaply
/// produce) owned formulas pays no deep copy — the analyzer's containment
/// sweeps pass freshly compiled filters straight in. Borrowing callers
/// clone at the call site, which is exactly the cost the old `&`-based
/// signature hid internally.
pub fn contained_in(phi: Unary, psi: Unary) -> Containment {
    let witness_query = Unary::and(vec![phi, Unary::not(psi)]);
    match sat_deterministic(&witness_query) {
        SatResult::Unsat => Containment::Contained,
        SatResult::Sat(w) => Containment::NotContained(w),
        SatResult::Unknown(r) => Containment::Unknown(r),
    }
}

/// Checks semantic equivalence (mutual containment). Borrows: both
/// directions need both formulas, so the copies are intrinsic here.
pub fn equivalent(phi: &Unary, psi: &Unary) -> Containment {
    match contained_in(phi.clone(), psi.clone()) {
        Containment::Contained => contained_in(psi.clone(), phi.clone()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Binary as B;
    use crate::ast::Unary as U;
    use jsondata::JsonTree;

    #[test]
    fn syntactic_strengthening_is_contained() {
        // [X_a ∘ X_b] ⊑ [X_a]
        let strong = U::exists(B::compose(vec![B::key("a"), B::key("b")]));
        let weak = U::exists(B::key("a"));
        assert_eq!(
            contained_in(strong.clone(), weak.clone()),
            Containment::Contained
        );
        // ... but not conversely; the counterexample must separate them.
        match contained_in(weak.clone(), strong.clone()) {
            Containment::NotContained(w) => {
                let t = JsonTree::build(&w);
                assert!(crate::eval::check_root(&t, &weak));
                assert!(!crate::eval::check_root(&t, &strong));
            }
            other => panic!("expected NotContained, got {other:?}"),
        }
    }

    #[test]
    fn equality_refines_existence() {
        // EQ(X_k, 5) ⊑ [X_k]
        let eq = U::eq_doc(B::key("k"), jsondata::Json::Num(5));
        let ex = U::exists(B::key("k"));
        assert_eq!(contained_in(eq, ex), Containment::Contained);
    }

    #[test]
    fn equivalence_of_normal_forms() {
        // ¬(¬φ) ≡ φ and ∧-flattening are semantic no-ops.
        let phi = U::and(vec![
            U::exists(B::key("a")),
            U::or(vec![U::exists(B::key("b")), U::True]),
        ]);
        let simplified = U::exists(B::key("a")); // the Or is a tautology
        assert_eq!(equivalent(&phi, &simplified), Containment::Contained);
    }

    #[test]
    fn disjoint_formulas_are_incomparable() {
        let a = U::eq_doc(B::key("k"), jsondata::Json::Num(1));
        let b = U::eq_doc(B::key("k"), jsondata::Json::Num(2));
        assert!(matches!(
            contained_in(a.clone(), b.clone()),
            Containment::NotContained(_)
        ));
        assert!(matches!(contained_in(b, a), Containment::NotContained(_)));
    }
}
