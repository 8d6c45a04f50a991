//! The precomputed DFA-over-symbols tier of edge matching.
//!
//! With every key and string atom of a tree interned to a dense `u32`
//! symbol (`jsondata::intern`), the set of symbols matching a regex is a
//! *subset of a known finite universe* — so instead of deciding membership
//! lazily per first-seen symbol (the [`KeyMatchMemo`] tier), a regex can be
//! compiled **once per (query, tree)** to a [`Dfa`] and evaluated over the
//! whole symbol table in one pass, producing a dense [`SymBitset`] with one
//! bit per symbol. Every edge test in the evaluation inner loops then
//! becomes a single bit load — no tri-state branch, no string resolution,
//! no NFA run.
//!
//! Determinisation can blow up (the classical `(a|b)*a(a|b)^n` family needs
//! `2^(n+1)` states), so [`SymMatcher::compile`] caps subset construction at
//! [`MAX_EDGE_DFA_STATES`] and falls back to the lazy [`KeyMatchMemo`] tier
//! for the offending regex — chosen per regex at compile time, never probed
//! again in the loop.
//!
//! Cost model: the eager pass is `O(total interned bytes)` per distinct
//! regex — the same order as building the tree — and each DFA step is a
//! table walk, far cheaper than the memo tier's NFA simulation. Whole-tree
//! evaluations (the logic engines' node-set semantics) always amortise it.
//! A *selective* traversal that resolves only a handful of symbols (e.g. a
//! single-path query over a huge, already-built tree) can prefer
//! [`EdgeStrategy::LazyMemo`], which bounds work to the symbols actually
//! tested.
//!
//! A bitset is built against a *snapshot* of the symbol table (symbols
//! `0..len` at compile time). Symbols interned later are still answered
//! correctly, by a direct DFA run.

use crate::dfa::Dfa;
use crate::memo::{KeyMatchMemo, RegexKeyedVec};
use crate::nfa::Nfa;
use crate::Regex;

/// State cap for edge-matcher DFAs. Deliberately far below
/// [`crate::dfa::MAX_DFA_STATES`]: a schema/formula regex that needs more
/// than a few thousand states is adversarial, and the lazy memo tier
/// bounds its cost to one NFA run per *tested* symbol instead of an eager
/// pass over the whole table.
pub const MAX_EDGE_DFA_STATES: usize = 1 << 12;

/// A dense bitset over symbol indexes (one bit per interned string).
#[derive(Debug, Clone, Default)]
pub struct SymBitset {
    words: Vec<u64>,
    len: usize,
}

impl SymBitset {
    /// An empty bitset covering no symbols.
    pub fn new() -> SymBitset {
        SymBitset::default()
    }

    /// Builds the match set of `dfa` over a symbol-table snapshot: bit `i`
    /// is the verdict for the `i`-th string yielded by `strings`.
    pub fn matching<'a>(dfa: &Dfa, strings: impl Iterator<Item = &'a str>) -> SymBitset {
        let mut out = SymBitset::new();
        for s in strings {
            out.push(dfa.is_match(s));
        }
        out
    }

    /// Number of symbols covered (bits, set or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset covers no symbols.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The verdict bit for symbol `i`. Symbols beyond the snapshot answer
    /// `false`; callers that can intern new symbols must consult the DFA
    /// for those (see [`SymMatcher::matches_sym`]).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "symbol {i} outside snapshot of {}", self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Appends the verdict for the next symbol (index `self.len()`).
    pub fn push(&mut self, v: bool) {
        let i = self.len;
        if i >> 6 == self.words.len() {
            self.words.push(0);
        }
        if v {
            self.words[i >> 6] |= 1 << (i & 63);
        }
        self.len += 1;
    }

    /// Number of matching symbols.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// How an evaluation context decides regex edge tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeStrategy {
    /// Compile each regex to a DFA and precompute a [`SymBitset`] over the
    /// symbol table (falling back per regex on [`MAX_EDGE_DFA_STATES`]).
    #[default]
    DfaBitset,
    /// Always use the lazy per-symbol [`KeyMatchMemo`] tier (kept for
    /// benchmark ablations and differential tests).
    LazyMemo,
}

/// A per-regex edge matcher: the precomputed bitset tier with its source
/// DFA, or the lazy memo fallback.
pub struct SymMatcher {
    repr: Repr,
}

enum Repr {
    /// Bitset over the symbol snapshot; the DFA stays around to answer
    /// symbols interned after the snapshot.
    Bits { dfa: Dfa, bits: SymBitset },
    /// Lazy tri-state memo (regex too large to determinise).
    Memo(KeyMatchMemo),
}

impl SymMatcher {
    /// Compiles `e` for a symbol-table snapshot: determinise (capped at
    /// [`MAX_EDGE_DFA_STATES`]) and precompute the bitset, or fall back to
    /// the lazy memo tier if determinisation blows up.
    pub fn compile<'a>(e: &Regex, strings: impl Iterator<Item = &'a str>) -> SymMatcher {
        let nfa = Nfa::from_regex(e);
        match Dfa::try_from_nfa_capped(&nfa, MAX_EDGE_DFA_STATES) {
            Ok(dfa) => {
                let bits = SymBitset::matching(&dfa, strings);
                SymMatcher {
                    repr: Repr::Bits { dfa, bits },
                }
            }
            Err(_) => SymMatcher {
                repr: Repr::Memo(KeyMatchMemo::new(e.compile())),
            },
        }
    }

    /// A matcher pinned to the lazy memo tier (the [`EdgeStrategy::LazyMemo`]
    /// ablation path).
    pub fn lazy_memo(e: &Regex) -> SymMatcher {
        SymMatcher {
            repr: Repr::Memo(KeyMatchMemo::new(e.compile())),
        }
    }

    /// Whether this matcher runs on the precomputed bitset tier.
    pub fn is_bitset(&self) -> bool {
        matches!(self.repr, Repr::Bits { .. })
    }

    /// The precomputed bitset, if this matcher has one.
    pub fn bitset(&self) -> Option<&SymBitset> {
        match &self.repr {
            Repr::Bits { bits, .. } => Some(bits),
            Repr::Memo(_) => None,
        }
    }

    /// Membership of the string behind symbol `sym`. On the bitset tier this
    /// is a single bit load and `resolve` is never called; symbols interned
    /// after the snapshot fall back to one direct DFA run. On the memo tier
    /// it is the tri-state table probe with a lazy NFA run.
    #[inline]
    pub fn matches_sym<'s>(&mut self, sym: usize, resolve: impl FnOnce() -> &'s str) -> bool {
        match &mut self.repr {
            Repr::Bits { dfa, bits } => {
                if sym < bits.len() {
                    bits.contains(sym)
                } else {
                    dfa.is_match(resolve())
                }
            }
            Repr::Memo(m) => m.matches_str(sym, resolve()),
        }
    }

    /// Direct membership on a resolved string (no caching).
    pub fn is_match(&self, s: &str) -> bool {
        match &self.repr {
            Repr::Bits { dfa, .. } => dfa.is_match(s),
            Repr::Memo(m) => m.is_match(s),
        }
    }
}

/// A stable handle to a matcher within one [`SymMatcherTable`] — lets hot
/// loops (e.g. the PDL product BFS) pre-resolve a regex once and then fetch
/// its matcher by vector index, with no AST hashing per edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatcherId(usize);

/// The per-(query, tree) collection of [`SymMatcher`]s shared by the
/// evaluation contexts of the logic crates.
///
/// Lookups go through the shared single-probe structure
/// (`crate::memo::RegexKeyedVec`): one AST hash + one `u64` map probe + one
/// AST equality check on a hit.
pub struct SymMatcherTable {
    strategy: EdgeStrategy,
    matchers: RegexKeyedVec<SymMatcher>,
}

impl Default for SymMatcherTable {
    fn default() -> Self {
        SymMatcherTable::new()
    }
}

impl SymMatcherTable {
    /// An empty table using the default [`EdgeStrategy::DfaBitset`] tier.
    pub fn new() -> SymMatcherTable {
        SymMatcherTable::with_strategy(EdgeStrategy::default())
    }

    /// An empty table with an explicit strategy.
    pub fn with_strategy(strategy: EdgeStrategy) -> SymMatcherTable {
        SymMatcherTable {
            strategy,
            matchers: RegexKeyedVec::default(),
        }
    }

    /// The strategy this table compiles new regexes with.
    pub fn strategy(&self) -> EdgeStrategy {
        self.strategy
    }

    /// Number of distinct regexes compiled so far.
    pub fn len(&self) -> usize {
        self.matchers.len()
    }

    /// Whether no regex has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.matchers.len() == 0
    }

    /// The id of the matcher for `e`, compiling it on first sight against
    /// the symbol snapshot produced by `strings` (only invoked on a miss).
    pub fn id<'a, I>(&mut self, e: &Regex, strings: impl FnOnce() -> I) -> MatcherId
    where
        I: Iterator<Item = &'a str>,
    {
        let strategy = self.strategy;
        MatcherId(self.matchers.slot_or_insert_with(e, |e| match strategy {
            EdgeStrategy::DfaBitset => SymMatcher::compile(e, strings()),
            EdgeStrategy::LazyMemo => SymMatcher::lazy_memo(e),
        }))
    }

    /// The matcher behind an id (a plain vector index; no hashing).
    #[inline]
    pub fn get_mut(&mut self, id: MatcherId) -> &mut SymMatcher {
        self.matchers.get_mut(id.0)
    }

    /// Convenience: the matcher for `e` (one table probe; loops over many
    /// edges should fetch this once, or pre-resolve ids with
    /// [`SymMatcherTable::id`]).
    pub fn matcher<'a, I>(&mut self, e: &Regex, strings: impl FnOnce() -> I) -> &mut SymMatcher
    where
        I: Iterator<Item = &'a str>,
    {
        let id = self.id(e, strings);
        self.get_mut(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_push_and_contains() {
        let mut b = SymBitset::new();
        for i in 0..200 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 200);
        for i in 0..200 {
            assert_eq!(b.contains(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(b.count_ones(), 67);
        assert!(SymBitset::new().is_empty());
    }

    #[test]
    fn compiled_matcher_agrees_with_nfa() {
        let e = Regex::parse("a(b|c)a|[x-z]+").unwrap();
        let compiled = e.compile();
        let keys = ["aba", "aca", "ada", "", "xyz", "xa", "zzz", "日本"];
        let mut m = SymMatcher::compile(&e, keys.iter().copied());
        assert!(m.is_bitset());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(
                m.matches_sym(i, || k),
                compiled.is_match(k),
                "key {k} (sym {i})"
            );
        }
    }

    #[test]
    fn out_of_snapshot_symbols_fall_back_to_dfa_and_extend() {
        let e = Regex::parse("k[0-9]+").unwrap();
        let snapshot = ["k1", "nope"];
        let mut m = SymMatcher::compile(&e, snapshot.iter().copied());
        // In-snapshot symbols are bit tests that never resolve.
        assert!(m.matches_sym(0, || unreachable!("bit test must not resolve")));
        // Symbols 2 and 3 were interned after the snapshot.
        assert!(m.matches_sym(2, || "k42"));
        assert!(!m.matches_sym(3, || "zzz"));
        // Answering them leaves the snapshot bitset at its compiled length.
        assert_eq!(m.bitset().unwrap().len(), 2);
    }

    #[test]
    fn blowup_regex_falls_back_to_memo() {
        // (a|b)*a(a|b)^12 needs 2^13 DFA states, above MAX_EDGE_DFA_STATES.
        let e = Regex::parse("(a|b)*a(a|b){12}").unwrap();
        let compiled = e.compile();
        let keys = ["aabababababab", "bbbbbbbbbbbbb", "a", ""];
        let mut m = SymMatcher::compile(&e, keys.iter().copied());
        assert!(!m.is_bitset(), "fallback expected");
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(m.matches_sym(i, || k), compiled.is_match(k), "key {k}");
        }
    }

    #[test]
    fn table_single_probe_per_regex() {
        let mut t = SymMatcherTable::new();
        let e1 = Regex::parse("a+").unwrap();
        let e2 = Regex::parse("b+").unwrap();
        let strings = ["aa", "bb"];
        let id1 = t.id(&e1, || strings.iter().copied());
        let id2 = t.id(&e2, || strings.iter().copied());
        assert_ne!(id1, id2);
        assert_eq!(t.id(&e1, || strings.iter().copied()), id1, "stable id");
        assert_eq!(t.len(), 2);
        assert!(t.get_mut(id1).matches_sym(0, || "aa"));
        assert!(!t.get_mut(id1).matches_sym(1, || "bb"));
        assert!(t.get_mut(id2).matches_sym(1, || "bb"));
    }

    #[test]
    fn lazy_strategy_pins_memo_tier() {
        let mut t = SymMatcherTable::with_strategy(EdgeStrategy::LazyMemo);
        let e = Regex::parse("a+").unwrap();
        let m = t.matcher(&e, || ["aa"].into_iter());
        assert!(!m.is_bitset());
        assert!(m.matches_sym(0, || "aa"));
        assert!(!m.matches_sym(1, || "xx"));
    }
}
