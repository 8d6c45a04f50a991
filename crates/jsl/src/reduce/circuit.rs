//! The Proposition 9 lower bound: boolean circuit evaluation → recursive
//! JSL evaluation.
//!
//! The input assignment becomes a flat object `{"IN0": "T", "IN1": "F", …}`;
//! each gate becomes a definition `γ_j = φ_j`, with input gates reading the
//! document through `◇_{INi} Pattern(T)`; the base expression is the output
//! gate's symbol. The circuit is true under the assignment iff the document
//! satisfies the recursive JSL expression.

use jsondata::Json;

use crate::ast::{Jsl, NodeTest};
use crate::recursive::RecursiveJsl;

/// A boolean circuit gate.
#[derive(Debug, Clone)]
pub enum Gate {
    /// Reads input `i`.
    Input(usize),
    /// Conjunction of earlier gates.
    And(Vec<usize>),
    /// Disjunction of earlier gates.
    Or(Vec<usize>),
    /// Negation of an earlier gate.
    Not(usize),
}

/// A boolean circuit; gate indices reference earlier gates only; the last
/// gate is the output.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Number of inputs.
    pub n_inputs: usize,
    /// Topologically ordered gates.
    pub gates: Vec<Gate>,
}

impl Circuit {
    /// Direct evaluation (reference oracle).
    pub fn eval(&self, inputs: &[bool]) -> bool {
        let mut vals: Vec<bool> = Vec::with_capacity(self.gates.len());
        for g in &self.gates {
            let v = match g {
                Gate::Input(i) => inputs[*i],
                Gate::And(gs) => gs.iter().all(|&g| vals[g]),
                Gate::Or(gs) => gs.iter().any(|&g| vals[g]),
                Gate::Not(g) => !vals[*g],
            };
            vals.push(v);
        }
        *vals.last().expect("nonempty circuit")
    }

    /// Encodes an assignment as the input document.
    pub fn input_doc(&self, inputs: &[bool]) -> Json {
        Json::object(
            inputs
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    (
                        format!("IN{i}").into(),
                        Json::str(if b { "T" } else { "F" }),
                    )
                })
                .collect(),
        )
        .expect("input keys distinct")
    }

    /// The Proposition 9 recursive JSL encoding.
    pub fn to_recursive_jsl(&self) -> RecursiveJsl {
        let input_formula = |i: usize| {
            Jsl::diamond_key(
                &format!("IN{i}"),
                Jsl::Test(NodeTest::Pattern(relex::Regex::literal("T"))),
            )
        };
        let defs: Vec<(String, Jsl)> = self
            .gates
            .iter()
            .enumerate()
            .map(|(j, g)| {
                let phi = match g {
                    Gate::Input(i) => input_formula(*i),
                    Gate::And(gs) => {
                        Jsl::and(gs.iter().map(|g| Jsl::Var(format!("g{g}"))).collect())
                    }
                    Gate::Or(gs) => Jsl::or(gs.iter().map(|g| Jsl::Var(format!("g{g}"))).collect()),
                    Gate::Not(g) => Jsl::not(Jsl::Var(format!("g{g}"))),
                };
                (format!("g{j}"), phi)
            })
            .collect();
        RecursiveJsl {
            defs,
            base: Jsl::Var(format!("g{}", self.gates.len() - 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsondata::JsonTree;

    fn majority3() -> Circuit {
        // maj(a,b,c) = (a∧b) ∨ (a∧c) ∨ (b∧c)
        Circuit {
            n_inputs: 3,
            gates: vec![
                Gate::Input(0),
                Gate::Input(1),
                Gate::Input(2),
                Gate::And(vec![0, 1]),
                Gate::And(vec![0, 2]),
                Gate::And(vec![1, 2]),
                Gate::Or(vec![3, 4, 5]),
            ],
        }
    }

    #[test]
    fn encoding_is_well_formed() {
        let delta = majority3().to_recursive_jsl();
        assert_eq!(delta.well_formed(), Ok(()));
        // Exposed same-level references exist (gates reference gates), so
        // the precedence graph is non-trivial but acyclic.
        assert!(!delta.precedence_edges().is_empty());
    }

    #[test]
    fn agrees_with_direct_evaluation_on_all_inputs() {
        let c = majority3();
        let delta = c.to_recursive_jsl();
        for bits in 0u8..8 {
            let inputs: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let doc = c.input_doc(&inputs);
            let t = JsonTree::build(&doc);
            assert_eq!(delta.check_root(&t), c.eval(&inputs), "inputs {inputs:?}");
        }
    }

    #[test]
    fn negation_gates() {
        // ¬(a ∧ ¬b)
        let c = Circuit {
            n_inputs: 2,
            gates: vec![
                Gate::Input(0),
                Gate::Input(1),
                Gate::Not(1),
                Gate::And(vec![0, 2]),
                Gate::Not(3),
            ],
        };
        let delta = c.to_recursive_jsl();
        for bits in 0u8..4 {
            let inputs: Vec<bool> = (0..2).map(|i| bits >> i & 1 == 1).collect();
            let t = JsonTree::build(&c.input_doc(&inputs));
            assert_eq!(delta.check_root(&t), c.eval(&inputs), "inputs {inputs:?}");
        }
    }

    /// A deep chain circuit for scaling experiments: alternating NOT gates.
    pub fn chain(depth: usize) -> Circuit {
        let mut gates = vec![Gate::Input(0)];
        for i in 0..depth {
            gates.push(Gate::Not(i));
        }
        Circuit { n_inputs: 1, gates }
    }

    #[test]
    fn deep_chains_evaluate_in_polynomial_time() {
        let c = chain(500);
        let delta = c.to_recursive_jsl();
        let t = JsonTree::build(&c.input_doc(&[true]));
        assert_eq!(delta.check_root(&t), c.eval(&[true]));
    }
}
