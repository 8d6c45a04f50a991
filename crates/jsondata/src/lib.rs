//! # jsondata — JSON values and the formal JSON tree model
//!
//! This crate implements the data-model layer of Bourhis, Reutter, Suárez &
//! Vrgoč, *"JSON: data model, query languages and schema specification"*
//! (PODS 2017). It provides:
//!
//! * [`Json`] — a JSON value restricted to the paper's §2 fragment:
//!   objects (with pairwise-distinct keys), arrays, strings, and natural
//!   numbers. Object equality is **unordered**, as the paper requires.
//!   Strings and keys are [`JStr`]s, inline up to 22 bytes, so a value
//!   owns one heap buffer per non-empty container and none per short
//!   string.
//! * A from-scratch [`parse`](parse()) / [`serialize`](mod@serialize) pair
//!   for the textual format, with precise error positions — plus the fused
//!   [`parse_to_tree`](parse_to_tree()) family, which lexes, interns and
//!   assembles a [`JsonTree`] in one pass with no intermediate [`Json`]
//!   (identical trees and identical errors to the two-pass route, proven
//!   differentially).
//! * [`JsonTree`] — the paper's §3 *JSON tree*: an arena-backed tree whose
//!   nodes are partitioned into `Obj`/`Arr`/`Str`/`Int`, with a key-labelled
//!   object-child relation and an index-labelled array-child relation.
//!   Storage is CSR-style (flattened child arrays addressed by offset
//!   spans), and every object key and string atom is interned into a
//!   symbol table the tree holds behind an `Arc`, shared with the trees
//!   built on it that added no string.
//! * [`intern`] — the symbol layer: [`Sym`] (a stable `u32` per distinct
//!   string) and [`Interner`]. Edge-label tests across the logic engines
//!   compare symbols, never strings. Queries bind each key and string
//!   constant to its symbol once and step with `child_by_sym`, a binary
//!   search over `u32`s; `child_by_key` (an `O(1)` interner probe, then the
//!   same search) serves one-off probes, and a probe miss answers without
//!   touching any node.
//! * [`canon`] — canonical subtree labels: every node receives an integer
//!   class id such that two nodes have equal ids iff their subtrees are equal
//!   JSON values. This is the "online subtree equality" refinement that the
//!   paper's Proposition 1 proof relies on.
//! * [`domain`] — the formal tree-domain presentation
//!   `J = (D, Obj, Arr, Str, Int, A, O, val)` with validation of the five
//!   well-formedness conditions of Definition §3.1.
//! * [`nav`] — JSON navigation instructions `J[key]` / `J[i]` (§2).
//! * [`mod@pointer`] — RFC 6901 JSON Pointers (used by JSON Schema `$ref`).
//! * [`gen`] — seeded random document generators used by tests and the
//!   benchmark harness.
//!
//! ## Quick example
//!
//! ```
//! use jsondata::{parse, JsonTree};
//!
//! // The paper's Figure 1 document.
//! let doc = parse(r#"{
//!     "name": { "first": "John", "last": "Doe" },
//!     "age": 32,
//!     "hobbies": ["fishing", "yoga"]
//! }"#).unwrap();
//!
//! let tree = JsonTree::build(&doc);
//! let root = tree.root();
//! let name = tree.child_by_key(root, "name").unwrap();
//! let first = tree.child_by_key(name, "first").unwrap();
//! assert_eq!(tree.str_value(first), Some("John"));
//!
//! // Every subtree is again a JSON value (compositionality, §3.1).
//! assert_eq!(tree.json_at(name).to_string(), r#"{"first":"John","last":"Doe"}"#);
//! ```

pub mod canon;
pub mod domain;
pub mod error;
pub mod fxhash;
pub mod gen;
pub mod intern;
pub mod jstr;
pub mod nav;
pub mod parse;
pub mod pointer;
pub mod serialize;
pub mod tree;
pub mod value;

pub use canon::CanonTable;
pub use error::{JsonError, ParseError, ParseErrorKind, Position};
pub use intern::{Interner, Sym};
pub use jstr::JStr;
pub use nav::{NavPath, NavStep};
pub use parse::{
    parse, parse_to_tree, parse_to_tree_into, parse_to_tree_with_limits, parse_with_limits,
    ParseLimits,
};
pub use pointer::JsonPointer;
pub use tree::{EdgeLabel, JsonTree, NodeId, NodeKind};
pub use value::{Json, ObjectBuilder};
