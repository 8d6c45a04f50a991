//! The Proposition 4 reduction: two-counter (Minsky) machine emptiness →
//! satisfiability of recursive, non-deterministic JNL with `EQ(α, β)`,
//! using no negation.
//!
//! A run is encoded as a linked list of configuration objects:
//!
//! ```json
//! { "state": "q0",
//!   "c1": "0",                       // counter 0 ≡ the string "0"
//!   "c2": {"a": {"a": "0"}},         // counter 2 ≡ an a-chain of length 2
//!   "next": { … next configuration … } }
//! ```
//!
//! The formula `Φ_M = init ∧ [ (⟨trans⟩ ∘ X_next)* ∘ ⟨final⟩ ]` uses
//! `EQ(α, β)` to force whole counter subtrees to be copied (±1 level of
//! `a`-nesting) between consecutive configurations — the mechanism that
//! makes satisfiability undecidable. Undecidability itself cannot be
//! executed; what this module reproduces is the *reduction*: for halting
//! machines the generated witness satisfies `Φ_M`, and truncated or
//! corrupted runs do not.

use jsondata::Json;

use crate::ast::{Binary, Unary};

/// A two-counter machine instruction (counters are indexed 0 and 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// Increment the counter, go to the state.
    Inc(usize, usize),
    /// Decrement the counter (blocking on zero), go to the state.
    Dec(usize, usize),
    /// If the counter is zero go to the first state, else to the second.
    IfZero(usize, usize, usize),
    /// Halt (accepting).
    Halt,
}

/// A two-counter machine; state `0` is initial.
#[derive(Debug, Clone)]
pub struct MinskyMachine {
    /// Instruction for each state.
    pub program: Vec<Instr>,
}

/// One configuration of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Current state.
    pub state: usize,
    /// Counter values.
    pub counters: [u64; 2],
}

impl MinskyMachine {
    /// Runs the machine up to `max_steps`; returns the configuration trace
    /// ending in a `Halt` state, or `None` if it does not halt in time.
    pub fn run(&self, max_steps: usize) -> Option<Vec<Config>> {
        let mut trace = vec![Config {
            state: 0,
            counters: [0, 0],
        }];
        for _ in 0..max_steps {
            let cur = trace.last().expect("trace nonempty").clone();
            match self.program.get(cur.state)? {
                Instr::Halt => return Some(trace),
                Instr::Inc(c, q) => {
                    let mut counters = cur.counters;
                    counters[*c] += 1;
                    trace.push(Config {
                        state: *q,
                        counters,
                    });
                }
                Instr::Dec(c, q) => {
                    if cur.counters[*c] == 0 {
                        return None; // blocked
                    }
                    let mut counters = cur.counters;
                    counters[*c] -= 1;
                    trace.push(Config {
                        state: *q,
                        counters,
                    });
                }
                Instr::IfZero(c, then_q, else_q) => {
                    let q = if cur.counters[*c] == 0 {
                        *then_q
                    } else {
                        *else_q
                    };
                    trace.push(Config {
                        state: q,
                        counters: cur.counters,
                    });
                }
            }
        }
        matches!(self.program.get(trace.last()?.state), Some(Instr::Halt)).then_some(trace)
    }

    /// State name used in the encoding.
    fn state_name(q: usize) -> String {
        format!("q{q}")
    }

    fn counter_key(c: usize) -> &'static str {
        if c == 0 {
            "c1"
        } else {
            "c2"
        }
    }

    /// Encodes a counter value as an `a`-chain ending in the string `"0"`.
    pub fn encode_counter(v: u64) -> Json {
        let mut j = Json::str("0");
        for _ in 0..v {
            j = Json::object(vec![("a".into(), j)]).expect("single key");
        }
        j
    }

    /// Encodes a halting trace as the linked-list witness document.
    pub fn encode_trace(trace: &[Config]) -> Json {
        let mut next: Option<Json> = None;
        for cfg in trace.iter().rev() {
            let mut pairs = vec![
                ("state".into(), Json::str(Self::state_name(cfg.state))),
                ("c1".into(), Self::encode_counter(cfg.counters[0])),
                ("c2".into(), Self::encode_counter(cfg.counters[1])),
            ];
            if let Some(n) = next.take() {
                pairs.push(("next".into(), n));
            }
            next = Some(Json::object(pairs).expect("distinct keys"));
        }
        next.expect("trace nonempty")
    }

    /// The Proposition 4 formula `Φ_M`: satisfiable iff the machine has a
    /// halting run (over well-formed run encodings).
    pub fn to_jnl(&self) -> Unary {
        let eq_str = |alpha: Binary, s: &str| Unary::eq_doc(alpha, Json::str(s));
        let state_is = |q: usize| eq_str(Binary::key("state"), &Self::state_name(q));
        let next_state_is = |q: usize| {
            eq_str(
                Binary::compose(vec![Binary::key("next"), Binary::key("state")]),
                &Self::state_name(q),
            )
        };
        // Counter copied unchanged into the next configuration.
        let copy = |c: usize| {
            Unary::eq_pair(
                Binary::key(Self::counter_key(c)),
                Binary::compose(vec![Binary::key("next"), Binary::key(Self::counter_key(c))]),
            )
        };

        let mut transitions: Vec<Unary> = Vec::new();
        for (q, instr) in self.program.iter().enumerate() {
            let phi_q = match instr {
                Instr::Halt => continue,
                Instr::Inc(c, q2) => Unary::and(vec![
                    state_is(q),
                    // next.c = {a: current.c}: current.c == next.c.a
                    Unary::eq_pair(
                        Binary::key(Self::counter_key(*c)),
                        Binary::compose(vec![
                            Binary::key("next"),
                            Binary::key(Self::counter_key(*c)),
                            Binary::key("a"),
                        ]),
                    ),
                    copy(1 - c),
                    next_state_is(*q2),
                ]),
                Instr::Dec(c, q2) => Unary::and(vec![
                    state_is(q),
                    // current.c.a == next.c (implies current.c > 0).
                    Unary::eq_pair(
                        Binary::compose(vec![Binary::key(Self::counter_key(*c)), Binary::key("a")]),
                        Binary::compose(vec![
                            Binary::key("next"),
                            Binary::key(Self::counter_key(*c)),
                        ]),
                    ),
                    copy(1 - c),
                    next_state_is(*q2),
                ]),
                Instr::IfZero(c, then_q, else_q) => Unary::and(vec![
                    state_is(q),
                    Unary::or(vec![
                        Unary::and(vec![
                            eq_str(Binary::key(Self::counter_key(*c)), "0"),
                            next_state_is(*then_q),
                        ]),
                        Unary::and(vec![
                            Unary::exists(Binary::compose(vec![
                                Binary::key(Self::counter_key(*c)),
                                Binary::key("a"),
                            ])),
                            next_state_is(*else_q),
                        ]),
                    ]),
                    copy(0),
                    copy(1),
                ]),
            };
            transitions.push(phi_q);
        }
        let trans = Unary::or(transitions);

        let init = Unary::and(vec![
            eq_str(Binary::key("c1"), "0"),
            eq_str(Binary::key("c2"), "0"),
            state_is(0),
        ]);
        let final_test = Unary::or(
            self.program
                .iter()
                .enumerate()
                .filter(|(_, i)| matches!(i, Instr::Halt))
                .map(|(q, _)| state_is(q))
                .collect(),
        );
        // init ∧ [ (⟨trans⟩ ∘ X_next)* ∘ ⟨final⟩ ]
        Unary::and(vec![
            init,
            Unary::exists(Binary::compose(vec![
                Binary::star(Binary::compose(vec![
                    Binary::test(trans),
                    Binary::key("next"),
                ])),
                Binary::test(final_test),
            ])),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsondata::JsonTree;

    /// inc c1 twice, dec twice, then halt if zero.
    fn inc_dec_machine() -> MinskyMachine {
        MinskyMachine {
            program: vec![
                Instr::Inc(0, 1),
                Instr::Inc(0, 2),
                Instr::Dec(0, 3),
                Instr::Dec(0, 4),
                Instr::IfZero(0, 5, 2),
                Instr::Halt,
            ],
        }
    }

    #[test]
    fn machine_runs() {
        let m = inc_dec_machine();
        let trace = m.run(100).expect("halts");
        assert_eq!(trace.last().unwrap().state, 5);
        assert_eq!(trace.last().unwrap().counters, [0, 0]);
        assert_eq!(trace.len(), 6);
    }

    #[test]
    fn halting_run_witness_satisfies_formula() {
        let m = inc_dec_machine();
        let trace = m.run(100).unwrap();
        let witness = MinskyMachine::encode_trace(&trace);
        let phi = m.to_jnl();
        let frag = phi.fragment();
        assert!(frag.recursive && frag.eq_pair && !frag.negation);
        let t = JsonTree::build(&witness);
        assert!(
            crate::eval::cubic::eval(&t, &phi)[t.root().index()],
            "run witness must satisfy Φ_M"
        );
    }

    #[test]
    fn truncated_run_fails() {
        let m = inc_dec_machine();
        let mut trace = m.run(100).unwrap();
        trace.pop(); // drop the halting configuration
        let witness = MinskyMachine::encode_trace(&trace);
        let t = JsonTree::build(&witness);
        assert!(!crate::eval::cubic::eval(&t, &m.to_jnl())[t.root().index()]);
    }

    #[test]
    fn corrupted_counter_fails() {
        let m = inc_dec_machine();
        let trace = m.run(100).unwrap();
        // Corrupt: claim counter 1 jumps by two.
        let mut bad = trace.clone();
        bad[1].counters[0] = 2;
        let witness = MinskyMachine::encode_trace(&bad);
        let t = JsonTree::build(&witness);
        assert!(!crate::eval::cubic::eval(&t, &m.to_jnl())[t.root().index()]);
    }

    #[test]
    fn non_halting_machine_never_accepts_prefixes() {
        // Loop forever: inc then jump back.
        let m = MinskyMachine {
            program: vec![Instr::Inc(0, 1), Instr::IfZero(1, 0, 0)],
        };
        assert!(m.run(200).is_none());
        // Hand-built prefix traces cannot satisfy the formula (no Halt).
        let phi = m.to_jnl();
        let fake = MinskyMachine::encode_trace(&[
            Config {
                state: 0,
                counters: [0, 0],
            },
            Config {
                state: 1,
                counters: [1, 0],
            },
        ]);
        let t = JsonTree::build(&fake);
        assert!(!crate::eval::cubic::eval(&t, &phi)[t.root().index()]);
    }

    #[test]
    fn counter_encoding_shape() {
        assert_eq!(MinskyMachine::encode_counter(0), Json::str("0"));
        let two = MinskyMachine::encode_counter(2);
        assert_eq!(two.get("a").unwrap().get("a"), Some(&Json::str("0")));
    }
}
