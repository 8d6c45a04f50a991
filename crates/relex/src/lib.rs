//! # relex — a self-contained regular-expression engine over Σ
//!
//! The paper's logics use regular expressions in three distinct roles:
//!
//! 1. **Membership** — `X_e` (JNL), `◇_e`/`□_e` (JSL) and the JSON Schema
//!    keywords `pattern`/`patternProperties` test whether a key or string
//!    value belongs to `L(e)`.
//! 2. **Language algebra** — the Theorem 1 translation needs the *complement
//!    intersection* `C` of all `properties`/`patternProperties` keys for
//!    `additionalProperties`, and the satisfiability engines partition the
//!    key space into Venn regions of the mentioned expressions, requiring
//!    intersection, complement, emptiness and universality.
//! 3. **Witness synthesis** — satisfiability proofs must produce concrete
//!    keys/strings, requiring shortest-example extraction from a language.
//!
//! None of the offline crates provide (2) and (3), so this crate implements
//! the classical pipeline from scratch: parsed AST → Thompson NFA → symbolic
//! subset-construction DFA over unicode scalar-value ranges, with product
//! and complement constructions on DFAs.
//!
//! For role (1) on *interned* trees, [`bitset`] matches by dense symbol
//! index (see `jsondata::intern`). [`SymMatcher::compile`] is the one way
//! a regex becomes an edge matcher: it compiles the regex to a [`Dfa`]
//! once per (query, tree) and evaluates it over the whole symbol table in
//! one pass, yielding a [`SymBitset`] (one bit per symbol), so every edge
//! test in an evaluation inner loop is a single bit load. Only a regex
//! whose determinisation exceeds [`bitset::MAX_EDGE_DFA_STATES`] falls
//! back to a lazy memo that runs the NFA once per tested symbol.
//! [`SymMatcherTable`] is the per-context collection of matchers.
//!
//! Semantics note: all matching is **anchored** (full-word membership in
//! `L(e)`), exactly as the paper defines (`val(n) ∈ L(e)`). Unanchored
//! "search" behaviour can be recovered with explicit `.*` padding.
//!
//! ```
//! use relex::Regex;
//!
//! let e = Regex::parse("a(b|c)a").unwrap();
//! let c = e.compile();
//! assert!(c.is_match("aba"));
//! assert!(!c.is_match("aa"));
//!
//! // Language algebra: do two expressions overlap?
//! let f = Regex::parse("ab*a").unwrap();
//! let both = e.to_dfa().intersect(&f.to_dfa());
//! assert_eq!(both.example(), Some("aba".to_string()));
//! ```

pub mod ast;
pub mod bitset;
pub mod classes;
pub mod dfa;
mod memo;
pub mod nfa;
pub mod parse;

pub use ast::Regex;
pub use bitset::{MatcherId, SymBitset, SymMatcher, SymMatcherTable};
pub use classes::CharClass;
pub use dfa::Dfa;
pub use nfa::{CompiledRegex, Nfa};
pub use parse::RegexError;
