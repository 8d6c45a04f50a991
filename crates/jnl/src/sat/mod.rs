//! Satisfiability for JNL.
//!
//! * [`det`] — the deterministic fragment (Proposition 2, NP-complete):
//!   a backtracking tableau over an abstract *pattern tree*, with
//!   union-find merging for `EQ(α, β)` constraints and a final
//!   generate-and-verify pass (every `Sat` answer carries a witness
//!   document that has been re-checked against the formula by walking
//!   the witness value).
//!
//!   `sat_parity` and `harness s8` check its verdicts against
//!   [`crate::gen::small_model`], an exhaustive search of small documents
//!   that shares no search code with the tableau.
//!
//! * [`containment`] — containment/equivalence checking by reduction to
//!   satisfiability (`φ ⊑ ψ` iff `φ ∧ ¬ψ` unsatisfiable), the coNP static
//!   task Prop 2 enables.
//!
//! Satisfiability for the non-deterministic and recursive fragments
//! (Proposition 5) lives in the `jsl` crate: the paper's own route is the
//! Theorem 2 translation into JSL followed by the JSL decision procedures,
//! and the crate dependency order follows the proofs.

pub mod containment;
pub mod det;

use jsondata::Json;

/// The outcome of a satisfiability check.
#[derive(Debug, Clone, PartialEq)]
pub enum SatResult {
    /// Satisfiable, with a verified witness document.
    Sat(Json),
    /// No model exists.
    Unsat,
    /// The solver gave up (budget exhausted or unsupported construct);
    /// the string explains why.
    Unknown(String),
}

impl SatResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Whether the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }

    /// The witness, if satisfiable.
    pub fn witness(&self) -> Option<&Json> {
        match self {
            SatResult::Sat(w) => Some(w),
            _ => None,
        }
    }
}
