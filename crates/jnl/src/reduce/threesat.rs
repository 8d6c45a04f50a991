//! The Proposition 2 lower-bound reduction: 3SAT → satisfiability of
//! deterministic JNL, using only positive, equality-free formulas.
//!
//! For each propositional variable `p` the formula
//! `θ_p = [X_p⟨[X_0]⟩] ∨ [X_p⟨[X_w]⟩]` allows the value under key `p` to be
//! an array (meaning *true*) or an object with the fresh key `w`
//! (meaning *false*) — JSON's key determinism makes the two exclusive.
//! Each clause `C = (ℓ_a ∨ ℓ_b ∨ ℓ_c)` becomes
//! `γ_C = [X_a⟨S_a⟩] ∨ [X_b⟨S_b⟩] ∨ [X_c⟨S_c⟩]` with `S_x = [X_0]` for a
//! positive literal and `S_x = [X_w]` for a negative one.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use jsondata::Json;

use crate::ast::{Binary, Unary};

/// The fresh key marking "false" (cannot collide with variable keys, which
/// are generated as `p0`, `p1`, …).
pub const FALSE_MARKER_KEY: &str = "w";

/// A 3CNF formula over variables `0..n_vars`; each literal is `(var,
/// positive)`.
#[derive(Debug, Clone)]
pub struct ThreeSat {
    /// Number of variables.
    pub n_vars: usize,
    /// Clauses of up to three literals.
    pub clauses: Vec<Vec<(usize, bool)>>,
}

impl ThreeSat {
    /// A uniformly random instance with `n_clauses` clauses of exactly
    /// three literals.
    pub fn random(n_vars: usize, n_clauses: usize, seed: u64) -> ThreeSat {
        let mut rng = StdRng::seed_from_u64(seed);
        let clauses = (0..n_clauses)
            .map(|_| {
                (0..3)
                    .map(|_| (rng.gen_range(0..n_vars), rng.gen_bool(0.5)))
                    .collect()
            })
            .collect();
        ThreeSat { n_vars, clauses }
    }

    /// Brute-force satisfiability (reference oracle; exponential).
    pub fn brute_force(&self) -> Option<Vec<bool>> {
        assert!(self.n_vars <= 24, "brute force limited to 24 variables");
        for bits in 0u64..(1 << self.n_vars) {
            let assignment: Vec<bool> = (0..self.n_vars).map(|v| bits >> v & 1 == 1).collect();
            if self.eval(&assignment) {
                return Some(assignment);
            }
        }
        None
    }

    /// Evaluates an assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses
            .iter()
            .all(|c| c.iter().any(|&(v, pos)| assignment[v] == pos))
    }

    /// The key used for variable `v`.
    pub fn var_key(v: usize) -> String {
        format!("p{v}")
    }

    /// The Proposition 2 encoding into deterministic JNL.
    pub fn to_jnl(&self) -> Unary {
        let truth = |positive: bool| -> Unary {
            // ⟨[X_0]⟩ for true (array), ⟨[X_w]⟩ for false (object).
            if positive {
                Unary::exists(Binary::index(0))
            } else {
                Unary::exists(Binary::key(FALSE_MARKER_KEY))
            }
        };
        let lit = |v: usize, positive: bool| -> Unary {
            Unary::exists(Binary::compose(vec![
                Binary::key(Self::var_key(v)),
                Binary::test(truth(positive)),
            ]))
        };
        let mut parts = Vec::new();
        for v in 0..self.n_vars {
            parts.push(Unary::or(vec![lit(v, true), lit(v, false)]));
        }
        for c in &self.clauses {
            parts.push(Unary::or(c.iter().map(|&(v, p)| lit(v, p)).collect()));
        }
        Unary::and(parts)
    }

    /// Reads the assignment off a witness document produced by the solver.
    pub fn decode_witness(&self, witness: &Json) -> Vec<bool> {
        (0..self.n_vars)
            .map(|v| {
                witness
                    .get(&Self::var_key(v))
                    .map(Json::is_array)
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Builds the canonical witness document for an assignment.
    pub fn witness_for(&self, assignment: &[bool]) -> Json {
        Json::object(
            (0..self.n_vars)
                .map(|v| {
                    let val = if assignment[v] {
                        Json::Array(vec![Json::Num(1)])
                    } else {
                        Json::object(vec![(FALSE_MARKER_KEY.into(), Json::Num(1))])
                            .expect("single key")
                    };
                    (Self::var_key(v).into(), val)
                })
                .collect(),
        )
        .expect("variable keys are distinct")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::det::sat_deterministic;
    use crate::sat::SatResult;
    use jsondata::JsonTree;

    #[test]
    fn encoding_is_positive_and_equality_free() {
        let inst = ThreeSat::random(4, 8, 1);
        let phi = inst.to_jnl();
        let f = phi.fragment();
        assert!(f.is_deterministic());
        assert!(!f.negation && !f.eq_pair);
    }

    #[test]
    fn assignment_witness_satisfies_encoding() {
        let inst = ThreeSat {
            n_vars: 3,
            clauses: vec![
                vec![(0, true), (1, false), (2, true)],
                vec![(0, false), (1, true), (2, true)],
            ],
        };
        let assignment = vec![true, true, false];
        assert!(inst.eval(&assignment));
        let w = inst.witness_for(&assignment);
        let t = JsonTree::build(&w);
        assert!(crate::eval::evaluate(&t, &inst.to_jnl())[0]);
        assert_eq!(inst.decode_witness(&w), assignment);
    }

    #[test]
    fn solver_agrees_with_brute_force() {
        for seed in 0..12 {
            // Dense enough that both SAT and UNSAT instances occur.
            let inst = ThreeSat::random(5, 24, seed);
            let expected = inst.brute_force().is_some();
            match sat_deterministic(&inst.to_jnl()) {
                SatResult::Sat(w) => {
                    assert!(expected, "seed {seed}: solver said SAT, brute force UNSAT");
                    let assignment = inst.decode_witness(&w);
                    assert!(
                        inst.eval(&assignment),
                        "seed {seed}: decoded assignment invalid"
                    );
                }
                SatResult::Unsat => {
                    assert!(!expected, "seed {seed}: solver said UNSAT, brute force SAT")
                }
                SatResult::Unknown(r) => panic!("seed {seed}: solver gave up: {r}"),
            }
        }
    }

    #[test]
    fn unsatisfiable_core() {
        // (p) ∧ (¬p) as two unit-ish clauses via duplicated literals.
        let inst = ThreeSat {
            n_vars: 1,
            clauses: vec![
                vec![(0, true), (0, true), (0, true)],
                vec![(0, false), (0, false), (0, false)],
            ],
        };
        assert!(inst.brute_force().is_none());
        assert_eq!(sat_deterministic(&inst.to_jnl()), SatResult::Unsat);
    }
}
