//! The Proposition 7 lower bound: QBF (3CNF) → JSL satisfiability.
//!
//! Following the appendix construction, a quantified boolean formula
//! `Q₁x₁ … Qₙxₙ φ` becomes `φ_tree ∧ φ_clauses`, whose models are trees of
//! height `2n` alternating `X`-edges with `T`/`F`-edges: existential
//! variables choose one branch, universal variables carry both. A clause is
//! checked by forbidding (`¬`) every root-to-leaf path that falsifies it.

use jsondata::Json;

use crate::ast::Jsl;
use crate::recursive::RecursiveJsl;
use crate::sat::{sat_recursive, JslSatResult, SatConfig};

/// A quantifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quant {
    /// ∃
    Exists,
    /// ∀
    Forall,
}

/// A quantified 3CNF formula: prefix over variables `0..n`, then clauses of
/// signed literals `(var, positive)`.
#[derive(Debug, Clone)]
pub struct Qbf {
    /// Quantifier prefix (index = variable).
    pub prefix: Vec<Quant>,
    /// 3CNF matrix.
    pub clauses: Vec<Vec<(usize, bool)>>,
}

impl Qbf {
    /// Brute-force truth (reference oracle; exponential).
    pub fn brute_force(&self) -> bool {
        fn go(q: &Qbf, i: usize, assignment: &mut Vec<bool>) -> bool {
            if i == q.prefix.len() {
                return q
                    .clauses
                    .iter()
                    .all(|c| c.iter().any(|&(v, pos)| assignment[v] == pos));
            }
            match q.prefix[i] {
                Quant::Exists => [true, false].into_iter().any(|b| {
                    assignment[i] = b;
                    go(q, i + 1, assignment)
                }),
                Quant::Forall => [true, false].into_iter().all(|b| {
                    assignment[i] = b;
                    go(q, i + 1, assignment)
                }),
            }
        }
        let mut a = vec![false; self.prefix.len()];
        go(self, 0, &mut a)
    }

    /// The appendix's JSL encoding: satisfiable iff the QBF is true.
    pub fn to_jsl(&self) -> Jsl {
        let n = self.prefix.len();
        let mut parts: Vec<Jsl> = Vec::new();

        // φ_tree: level 2k is an object with a single X child; level 2k+1
        // branches on T/F according to the quantifier.
        for (k, q) in self.prefix.iter().enumerate() {
            // After 2k edges: the node has exactly the X child.
            let at_level = |phi: Jsl, depth: usize| {
                let mut acc = phi;
                for _ in 0..depth {
                    acc = Jsl::box_any_key(acc);
                }
                acc
            };
            let chooser = match q {
                Quant::Exists => Jsl::or(vec![
                    Jsl::and(vec![
                        Jsl::diamond_key("T", Jsl::True),
                        Jsl::not(Jsl::diamond_key("F", Jsl::True)),
                    ]),
                    Jsl::and(vec![
                        Jsl::not(Jsl::diamond_key("T", Jsl::True)),
                        Jsl::diamond_key("F", Jsl::True),
                    ]),
                ]),
                Quant::Forall => Jsl::and(vec![
                    Jsl::diamond_key("T", Jsl::True),
                    Jsl::diamond_key("F", Jsl::True),
                ]),
            };
            parts.push(at_level(
                Jsl::and(vec![Jsl::diamond_key("X", chooser)]),
                2 * k,
            ));
            // Below T/F (if not the last level) an X child follows.
            if k + 1 < n {
                parts.push(at_level(
                    Jsl::box_key(
                        "X",
                        Jsl::and(vec![
                            Jsl::box_key("T", Jsl::diamond_key("X", Jsl::True)),
                            Jsl::box_key("F", Jsl::diamond_key("X", Jsl::True)),
                        ]),
                    ),
                    2 * k,
                ));
            }
        }

        // φ_clauses: for each clause C, no path realises the falsifying
        // assignment of C. A path falsifies C when, for each literal, it
        // takes the branch opposite to the literal's sign.
        for clause in &self.clauses {
            let mut lits: Vec<(usize, bool)> = clause.clone();
            lits.sort_by_key(|&(v, _)| v);
            lits.dedup();
            // A clause containing both polarities of a variable is a
            // tautology: no path can falsify it, so it adds no constraint.
            let tautological = lits
                .windows(2)
                .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1);
            if tautological {
                continue;
            }
            // Build the ◇-chain describing a falsifying path, innermost
            // literal outwards.
            let mut formula = Jsl::True;
            let max_v = lits.last().map(|&(v, _)| v).unwrap_or(0);
            for v in (0..=max_v).rev() {
                // At variable v's level: X edge, then T or F edge.
                let branch = lits.iter().find(|&&(lv, _)| lv == v).map(|&(_, pos)| {
                    // Falsifying branch: opposite of the literal sign.
                    if pos {
                        "F"
                    } else {
                        "T"
                    }
                });
                formula = match branch {
                    Some(b) => Jsl::diamond_key("X", Jsl::diamond_key(b, formula)),
                    None => Jsl::diamond_key("X", Jsl::diamond_any_key(formula)),
                };
            }
            parts.push(Jsl::not(formula));
        }

        Jsl::and(parts)
    }

    /// Decides the QBF through JSL satisfiability.
    pub fn solve_via_jsl(&self) -> Option<bool> {
        let phi = self.to_jsl();
        match sat_recursive(
            &RecursiveJsl::plain(phi),
            SatConfig {
                branch_budget: 2_000_000,
                ..Default::default()
            },
        ) {
            JslSatResult::Sat(_) => Some(true),
            JslSatResult::Unsat => Some(false),
            JslSatResult::Unknown(_) => None,
        }
    }

    /// Builds the canonical model tree for a true QBF (used in tests).
    pub fn model_tree(&self) -> Json {
        fn go(q: &Qbf, i: usize, assignment: &mut Vec<bool>) -> Option<Json> {
            if i == q.prefix.len() {
                let ok = q
                    .clauses
                    .iter()
                    .all(|c| c.iter().any(|&(v, pos)| assignment[v] == pos));
                return ok.then(Json::empty_object);
            }
            let branch = |q: &Qbf, i: usize, assignment: &mut Vec<bool>, b: bool| {
                assignment[i] = b;
                go(q, i + 1, assignment)
            };
            let pairs = match q.prefix[i] {
                Quant::Exists => {
                    let (b, sub) = if let Some(s) = branch(q, i, assignment, true) {
                        (true, s)
                    } else {
                        (false, branch(q, i, assignment, false)?)
                    };
                    vec![(if b { "T" } else { "F" }.into(), sub)]
                }
                Quant::Forall => {
                    let t = branch(q, i, assignment, true)?;
                    let f = branch(q, i, assignment, false)?;
                    vec![("T".into(), t), ("F".into(), f)]
                }
            };
            Some(
                Json::object(vec![("X".into(), Json::object(pairs).expect("distinct"))])
                    .expect("single key"),
            )
        }
        let mut a = vec![false; self.prefix.len()];
        go(self, 0, &mut a).expect("call only on true QBFs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsondata::JsonTree;

    #[test]
    fn example_from_paper_shape() {
        // ∃x₁∀x₂∀x₃ (x₁ ∧ x₂ ∧ x₃) — false; (x₁) alone — true.
        let q = Qbf {
            prefix: vec![Quant::Exists],
            clauses: vec![vec![(0, true)]],
        };
        assert!(q.brute_force());
        let model = q.model_tree();
        let t = JsonTree::build(&model);
        assert!(
            crate::eval::check_root(&t, &q.to_jsl()),
            "canonical model satisfies encoding"
        );
    }

    #[test]
    fn canonical_models_satisfy_encoding() {
        let cases = vec![
            Qbf {
                prefix: vec![Quant::Exists, Quant::Forall],
                clauses: vec![vec![(0, true), (1, true)], vec![(0, true), (1, false)]],
            },
            Qbf {
                prefix: vec![Quant::Forall, Quant::Exists],
                clauses: vec![vec![(0, true), (1, true)], vec![(0, false), (1, false)]],
            },
        ];
        for q in cases {
            assert!(q.brute_force());
            let t = JsonTree::build(&q.model_tree());
            assert!(crate::eval::check_root(&t, &q.to_jsl()), "{q:?}");
        }
    }

    #[test]
    fn falsifying_paths_are_rejected() {
        // ∀x₁ (x₁): false — every candidate tree must violate the encoding.
        let q = Qbf {
            prefix: vec![Quant::Forall],
            clauses: vec![vec![(0, true)]],
        };
        assert!(!q.brute_force());
        let full = Json::object(vec![(
            "X".into(),
            Json::object(vec![
                ("T".into(), Json::empty_object()),
                ("F".into(), Json::empty_object()),
            ])
            .unwrap(),
        )])
        .unwrap();
        let t = JsonTree::build(&full);
        assert!(!crate::eval::check_root(&t, &q.to_jsl()));
    }

    #[test]
    fn solver_decides_small_qbfs() {
        let cases = vec![
            (
                Qbf {
                    prefix: vec![Quant::Exists],
                    clauses: vec![vec![(0, true)]],
                },
                true,
            ),
            (
                Qbf {
                    prefix: vec![Quant::Forall],
                    clauses: vec![vec![(0, true)]],
                },
                false,
            ),
            (
                Qbf {
                    prefix: vec![Quant::Exists, Quant::Forall],
                    clauses: vec![vec![(0, true), (1, true)], vec![(0, true), (1, false)]],
                },
                true,
            ),
            (
                Qbf {
                    prefix: vec![Quant::Forall, Quant::Exists],
                    clauses: vec![vec![(0, true), (1, true)], vec![(0, false), (1, false)]],
                },
                true,
            ),
            (
                Qbf {
                    prefix: vec![Quant::Forall, Quant::Forall],
                    clauses: vec![vec![(0, true), (1, true)]],
                },
                false,
            ),
        ];
        for (q, expected) in cases {
            assert_eq!(q.brute_force(), expected, "oracle {q:?}");
            match q.solve_via_jsl() {
                Some(got) => assert_eq!(got, expected, "solver vs oracle on {q:?}"),
                None => panic!("solver gave up on {q:?}"),
            }
        }
    }
}
