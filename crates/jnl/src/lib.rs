//! # jnl — JSON Navigation Logic
//!
//! The paper's first core contribution (§4): a navigational logic over JSON
//! trees capturing what practical systems (MongoDB's `find`, JSONPath,
//! Python-style access) actually do, with precisely understood complexity.
//!
//! * [`ast`] — the logic itself: deterministic core (`X_w`, `X_i`,
//!   composition, tests, subtree equalities) plus the non-deterministic
//!   (`X_e`, `X_{i:j}`) and recursive (`(α)*`) extensions of §4.3.
//! * [`parser`] — a concrete syntax (`[@"name" ; @"first"]`, `eqdoc(…)`).
//! * [`eval`] — four engines matching the paper's complexity landscape:
//!   reference oracle, `O(|J|·|φ|)` deterministic (Prop 1), `O(|J|·|φ|)`
//!   PDL-style for the equality-free extensions, and the cubic full-logic
//!   engine (Prop 3). [`eval::evaluate`] dispatches automatically.
//!
//!   All engines share [`eval::EvalContext`], whose edge tests ride the
//!   tree's interned key symbols (`jsondata::Sym`): key steps resolve to a
//!   symbol once at compile time and walk with `u32` binary searches, and
//!   every regex edge label compiles **once per (query, tree)** through
//!   `relex::SymMatcher::compile` to a DFA evaluated over the whole symbol
//!   table up front (`relex::SymBitset`), so each edge test in the inner
//!   loops is a single bit load. The paper's `O(1)` edge-test assumption is
//!   therefore met by construction; only a regex whose determinisation
//!   exceeds `relex::bitset::MAX_EDGE_DFA_STATES` falls back to one NFA
//!   run per tested symbol.
//! * [`sat`] — satisfiability for the deterministic fragment (NP,
//!   Prop 2) with verified witnesses. (The non-deterministic and recursive
//!   decision procedures live in the `jsl` crate, via the Theorem 2
//!   translation, mirroring the paper's own proof route.)
//! * [`reduce`] — executable versions of the hardness reductions:
//!   3SAT (Prop 2) and two-counter machines (Prop 4).
//!
//! ```
//! use jsondata::{parse, JsonTree};
//! use jnl::{parse_unary, eval::check_root};
//!
//! let doc = parse(r#"{"name": {"first": "Sue"}, "age": 28}"#).unwrap();
//! let tree = JsonTree::build(&doc);
//!
//! // "the person is named Sue and has an age field"
//! let phi = parse_unary(r#"eqdoc(@"name" ; @"first", "Sue") & [@"age"]"#).unwrap();
//! assert!(check_root(&tree, &phi));
//! ```

pub mod ast;
pub mod bitset;
pub mod eval;
pub mod gen;
pub mod parser;
pub mod reduce;
pub mod sat;

pub use ast::{Binary, Fragment, Unary};
pub use eval::{check_root, evaluate, EvalError};
pub use parser::{parse_binary, parse_unary, JnlParseError};
pub use sat::containment::{contained_in, equivalent, Containment};
pub use sat::{det::sat_deterministic, SatResult};
