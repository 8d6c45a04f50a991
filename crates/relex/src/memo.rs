//! Lazy per-symbol memoisation of anchored regex membership — the
//! fallback of edge matching for regexes whose determinisation exceeds
//! [`crate::bitset::MAX_EDGE_DFA_STATES`], where an eager pass over the
//! whole symbol table could cost one NFA run per interned string.
//!
//! A [`KeyMatchMemo`] runs its regex **once per distinct symbol** that is
//! actually tested, caching the verdict in a dense tri-state table indexed
//! by symbol. [`crate::bitset::SymMatcher::compile`] decides per regex
//! whether to build one.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::nfa::CompiledRegex;
use crate::Regex;

const UNKNOWN: u8 = 0;
const NO: u8 = 1;
const YES: u8 = 2;

/// A compiled regex plus a dense per-symbol verdict cache.
pub(crate) struct KeyMatchMemo {
    compiled: CompiledRegex,
    verdicts: Vec<u8>,
}

impl KeyMatchMemo {
    /// Wraps a compiled regex with an empty cache.
    pub(crate) fn new(compiled: CompiledRegex) -> KeyMatchMemo {
        KeyMatchMemo {
            compiled,
            verdicts: Vec::new(),
        }
    }

    /// Memoised membership: the string `s` behind symbol index `sym` is run
    /// through the regex at most once per distinct symbol; later calls are a
    /// table load. Symbols denote one string by contract, so the cached
    /// verdict wins regardless of the `s` passed on later calls.
    pub(crate) fn matches_str(&mut self, sym: usize, s: &str) -> bool {
        if sym >= self.verdicts.len() {
            self.verdicts.resize(sym + 1, UNKNOWN);
        }
        match self.verdicts[sym] {
            YES => true,
            NO => false,
            _ => {
                let hit = self.compiled.is_match(s);
                self.verdicts[sym] = if hit { YES } else { NO };
                hit
            }
        }
    }
}

/// A regex-keyed vector with a single-probe hit path, the storage of
/// `crate::bitset::SymMatcherTable`.
///
/// Values are keyed by a **precomputed 64-bit hash** of the regex AST: a
/// hit costs one AST hash + one `u64` map probe + one AST equality check,
/// replacing the previous `contains_key` → `insert` → `get_mut` sequence
/// that hashed the full AST up to three times per call. Hash collisions
/// between distinct regexes are handled by a per-slot bucket scan. Slots
/// are dense and stable, so callers can also hold the returned index and
/// skip the probe entirely.
pub(crate) struct RegexKeyedVec<V> {
    index: HashMap<u64, Vec<(Regex, usize)>>,
    values: Vec<V>,
}

impl<V> Default for RegexKeyedVec<V> {
    fn default() -> Self {
        RegexKeyedVec {
            index: HashMap::new(),
            values: Vec::new(),
        }
    }
}

impl<V> RegexKeyedVec<V> {
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// The slot of `e`, constructing its value on first sight.
    pub(crate) fn slot_or_insert_with(
        &mut self,
        e: &Regex,
        make: impl FnOnce(&Regex) -> V,
    ) -> usize {
        let mut h = DefaultHasher::new();
        e.hash(&mut h);
        let bucket = match self.index.entry(h.finish()) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => v.insert(Vec::new()),
        };
        if let Some((_, slot)) = bucket.iter().find(|(r, _)| r == e) {
            return *slot;
        }
        let slot = self.values.len();
        self.values.push(make(e));
        bucket.push((e.clone(), slot));
        slot
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, slot: usize) -> &mut V {
        &mut self.values[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Regex;

    #[test]
    fn memoises_per_symbol() {
        let mut memo = KeyMatchMemo::new(Regex::parse("a(b|c)a").unwrap().compile());
        for _ in 0..5 {
            assert!(memo.matches_str(0, "aba"));
            assert!(!memo.matches_str(7, "nope"));
        }
        let cached = memo.verdicts.iter().filter(|&&v| v != UNKNOWN).count();
        assert_eq!(cached, 2, "only the two distinct symbols resolved");
    }

    #[test]
    fn matches_str_agrees_with_direct() {
        let mut memo = KeyMatchMemo::new(Regex::parse("x+").unwrap().compile());
        assert!(memo.matches_str(3, "xxx"));
        // Cached verdict wins even if a different string is passed for the
        // same symbol (symbols denote one string by contract).
        assert!(memo.matches_str(3, "zzz"));
        assert!(!memo.matches_str(4, "zzz"));
    }
}
