//! # jagg — a tree-native aggregation pipeline engine for collections
//!
//! The source paper (Bourhis–Reutter–Suárez–Vrgoč, PODS 2017) frames JSON
//! querying as navigation plus filtering; real document stores are driven
//! by multi-stage **aggregation pipelines**. This crate reproduces the
//! MongoDB aggregation fragment formalised by Botoeva, Corman & Townsend,
//! *"Towards a Standard for JSON Document Databases"* (see `PAPERS.md`),
//! executed natively over [`mongofind::Collection`]'s persistent tree
//! column: rows are `(segment, node)` cursors plus `$unwind` overlay
//! bindings, and documents materialise to [`jsondata::Json`] only at
//! pipeline output or at a `$group`/`$project` boundary that must
//! synthesize values (see [`exec`]).
//!
//! ## Stage ↔ formal operator mapping
//!
//! The report models a pipeline as a composition of operators on
//! *sequences of trees* (its §3 "abstract aggregation framework"); each
//! surface stage lowers to one typed [`Stage`] implementing exactly one
//! operator:
//!
//! | Surface stage | Report operator | Semantics here |
//! |---|---|---|
//! | `{"$match": φ}` | selection `Match_φ` | keep the trees satisfying the filter condition `φ` — the condition language is [`mongofind::Filter`], i.e. the source paper's deterministic JNL fragment; a leading `$match` runs through the collection's routed find path (index probe when answerable, document scan otherwise) |
//! | `{"$unwind": "$p"}` | unnest `Unwind_p` | one output tree per element of the array at path `p`, with `p` rebound to the element; missing paths and empty arrays produce nothing, non-arrays pass through as their own single element |
//! | `{"$project": π}` | projection `Project_π` | synthesize a new tree per input from kept paths, field references and literals |
//! | `{"$group": {_id: g, a_i: α_i}}` | grouping `Group_{g;α}` | partition by the value of `g` (missing keys form their own group whose output omits `_id` — the §2 fragment has no `null`), fold each part through the accumulators `α` |
//! | `{"$sort": ω}` | sorting `Sort_ω` | stable reorder under [`jsondata::Json::total_cmp`] per key, missing keys first; directions are `1`/`0` (the fragment's ℕ has no `-1`) |
//! | `{"$skip": n}` / `{"$limit": n}` | subsequence `Skip_n` / `Limit_n` | positional truncation |
//! | `{"$count": "c"}` | cardinality | one `{c: n}` document (none on empty input) |
//!
//! The accumulators are `$sum`, `$avg` (floor average over ℕ), `$min`,
//! `$max`, `$count`, `$push`, `$first`, `$last` — observation rules on
//! [`Accumulator`].
//!
//! Group output order is defined (missing key first, then
//! [`jsondata::Json::total_cmp`] on `_id`), so whole-pipeline results are
//! deterministic and the value-based oracle in [`mod@reference`] must and does
//! agree output-for-output — differentially tested in
//! `tests/differential.rs` and CI-gated by `harness s5`
//! (`BENCH_aggregate.json`).
//!
//! Execution fans out on the collection's [`jpar::Pool`]: per-row stages
//! run in chunked parallel over the row vector, `$group` accumulates
//! per-chunk tables merged in chunk order at a barrier, and adjacent
//! `$sort`+`$limit` (optionally with `$skip`) fuse into a bounded-heap
//! top-k, which also takes in a `$project` right before the `$sort` when
//! the sort keys allow it and projects only the rows the heap keeps —
//! all without changing a byte of output for any thread count
//! (the [`mod@reference`] oracle keeps the unfused full-sort semantics; the
//! determinism suite in `tests/parallel.rs` and `harness s6` gate it).
//! See [`exec`] for the threading model.
//!
//! ## Example
//!
//! ```
//! use jagg::{aggregate, Pipeline};
//! use mongofind::Collection;
//!
//! let coll = Collection::parse_str(r#"[
//!     {"name": "Sue",  "age": 28, "hobbies": ["yoga", "chess"]},
//!     {"name": "John", "age": 32, "hobbies": ["fishing"]},
//!     {"name": "Ana",  "age": 45, "hobbies": ["chess"]}
//! ]"#).unwrap();
//!
//! let pipe = Pipeline::parse_str(r#"[
//!     {"$match":  {"age": {"$gte": 30}}},
//!     {"$unwind": "$hobbies"},
//!     {"$group":  {"_id": "$hobbies", "n": {"$count": {}}}},
//!     {"$sort":   {"_id": 1}}
//! ]"#).unwrap();
//!
//! let out = aggregate(&coll, &pipe);
//! assert_eq!(out.len(), 2);
//! assert_eq!(out[0].to_string(), r#"{"_id":"chess","n":1}"#);
//! assert_eq!(out[1].to_string(), r#"{"_id":"fishing","n":1}"#);
//! ```

pub mod exec;
pub mod explain;
pub mod pipeline;
mod plan;
pub mod reference;

pub use exec::{aggregate, aggregate_with_ctx};
pub use explain::{
    explain, explain_analyze, PipelineAnalyze, PipelineExplain, StageActual, StageExplain,
};
pub use pipeline::{
    Accumulator, AggError, GroupSpec, IdExpr, Pipeline, ProjectField, SortOrder, Stage, ValueExpr,
};
