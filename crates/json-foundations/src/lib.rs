//! # json-foundations
//!
//! A production-quality Rust implementation of Bourhis, Reutter, Suárez &
//! Vrgoč, *"JSON: data model, query languages and schema specification"*
//! (PODS 2017): the formal JSON tree data model, the JSON Navigation Logic
//! (JNL), the JSON Schema Logic (JSL) with recursion, JSON Schema (draft-4
//! fragment) with translations to and from JSL, J-automata, and the two
//! practical query dialects the paper surveys (MongoDB-style `find` filters
//! and JSONPath).
//!
//! This facade crate re-exports the individual workspace crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`data`] | `jsondata` | JSON values, parser, the §3 tree model, canonical subtree labels |
//! | [`regex`] | `relex` | self-contained regular-expression engine over Σ |
//! | [`nav`] | `jnl` | JSON Navigation Logic (§4) with evaluation + satisfiability |
//! | [`schema_logic`] | `jsl` | JSON Schema Logic (§5), recursive JSL, JSL↔JNL |
//! | [`schema`] | `jschema` | JSON Schema: parse, validate, Schema↔JSL, `$ref`, inference |
//! | [`automata`] | `jautomata` | J-automata: runs, complement, emptiness |
//! | [`mongo`] | `mongofind` | MongoDB-style `find` filters & projection over JNL |
//! | [`agg`] | `jagg` | tree-native aggregation pipelines (`$match`/`$unwind`/`$group`/…) over collections |
//! | [`stat`] | `jstat` | static analysis: sat/containment-backed pipeline lints + the pruning rewrite |
//! | [`serve`] | `jserve` | concurrent multi-tenant serving: snapshot isolation, admission control, governed verbs |
//! | [`path`] | `jsonpath` | JSONPath dialect over recursive JNL |
//! | [`par`] | `jpar` | scoped worker pool driving the parallel query paths |
//! | [`guard`] | `jguard` | per-query governance: deadlines, budgets, cancellation, panic containment |
//! | [`trace`] | `jtrace` | observability: per-query metrics sink, counter snapshots, flight-recorder span log |
//!
//! The `examples/` directory is a tour (`cargo run --example quickstart`).
//! The experiment harness (`cargo run -p bench --release --bin harness`)
//! maps the paper's propositions to measurements: `e1`–`e12` and `t1`
//! reproduce its complexity claims and Table 1, and the `s*` modes gate
//! the engines built on them; `docs/` covers indexes, static analysis,
//! robustness, observability and serving.

pub use jsondata as data;
pub use relex as regex;

pub use jnl as nav;
pub use jsl as schema_logic;

pub use jautomata as automata;
pub use jschema as schema;

pub use jagg as agg;
pub use jguard as guard;
pub use jpar as par;
pub use jserve as serve;
pub use jsonpath as path;
pub use jstat as stat;
pub use jtrace as trace;
pub use mongofind as mongo;

/// Commonly used items, importable as `use json_foundations::prelude::*`.
pub mod prelude {
    pub use jsondata::{parse, parse_to_tree, CanonTable, Json, JsonTree, NodeId, NodeKind};
}
