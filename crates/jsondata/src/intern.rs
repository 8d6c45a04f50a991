//! String interning: stable `u32` symbols for object keys and string atoms.
//!
//! Every `O(|J|·|φ|)` bound in the paper assumes edge-label tests are
//! `O(1)`, yet a string-keyed tree pays a full comparison (and often a
//! clone) per test. Real-world JSON corpora have tiny key vocabularies
//! relative to their node counts, so an [`Interner`] turns the dominant
//! per-node string work into `u32` compares:
//!
//! * [`JsonTree::build`](crate::JsonTree::build) interns every object key
//!   and string leaf once; nodes store [`Sym`]s, never owned strings.
//! * `child_by_key` becomes an `O(1)` interner probe followed by a binary
//!   search over `Sym`s — a key absent from the interner cannot label any
//!   edge, so the miss answers `None` without touching the node.
//! * Regex edge tests throughout the logic engines run per **distinct
//!   symbol**, not per node: the default tier compiles each regex to a DFA
//!   and evaluates it over the whole table in one pass (a `SymBitset` in
//!   `relex::bitset`, one bit per `Sym`), so the inner loops do a single
//!   bit load; the lazy `(regex, Sym)` memo remains as the fallback for
//!   regexes too large to determinise.
//!
//! Symbols are **per-interner**: every tree built through one interner
//! (`parse_to_tree_into`, `JsonTree::build_into`, `concat_subtrees`, every
//! segment of a `mongofind::Collection`) shares one assignment, so their
//! `Sym`s compare directly. Comparing `Sym`s from trees built through
//! different interners is meaningless (and the type offers no guard beyond
//! that documented contract, matching `NodeId`).
//!
//! Symbols are allocated densely in interning order and never move, so a
//! consumer can snapshot the table (`len` plus [`Interner::iter`]) and
//! later catch up on symbols interned after the snapshot with
//! [`Interner::iter_from`] — how `Collection::adopt_segment` replays a
//! newer segment's symbols onto an older clone of its collection.

use crate::fxhash::FxHashMap;

/// An interned string: a dense index into one [`Interner`].
///
/// `Sym`s are ordered by interning time, **not** lexicographically; they
/// support only equality/ordering as opaque ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The dense index of this symbol (always `< Interner::len`).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a symbol from a raw index (bench/test helper; the index
    /// must come from the same interner's [`Sym::index`]).
    pub const fn from_index(i: usize) -> Sym {
        Sym(i as u32)
    }
}

/// A string interning table: each distinct string receives one [`Sym`].
///
/// Equality compares the symbol assignment itself — two interners are equal
/// iff they map exactly the same strings to exactly the same [`Sym`]s (the
/// lookup map is derived from that sequence, so only the dense string table
/// is compared). This is the contract the parse-fusion differential tests
/// rely on: identical event streams must produce identical symbol tables.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: FxHashMap<Box<str>, Sym>,
    strings: Vec<Box<str>>,
}

impl PartialEq for Interner {
    fn eq(&self, other: &Interner) -> bool {
        self.strings == other.strings
    }
}

impl Eq for Interner {}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns `s`, returning its existing symbol or allocating the next one.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Sym(self.strings.len() as u32);
        let owned: Box<str> = s.into();
        self.strings.push(owned.clone());
        self.map.insert(owned, sym);
        sym
    }

    /// The symbol of `s`, if it has been interned — the `O(1)` probe that
    /// fronts every key lookup.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.map.get(s).copied()
    }

    /// The string a symbol stands for.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates `(Sym, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.iter_from(0)
    }

    /// Iterates `(Sym, &str)` pairs starting at symbol index `start` — the
    /// catch-up half of the snapshot contract: a dense structure built over
    /// symbols `0..start` extends itself with exactly the strings interned
    /// since.
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = (Sym, &str)> {
        self.strings
            .iter()
            .enumerate()
            .skip(start)
            .map(|(i, s)| (Sym(i as u32), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        for s in ["", "k", "key", "日本語", "k"] {
            let sym = i.intern(s);
            assert_eq!(i.resolve(sym), s);
            assert_eq!(i.lookup(s), Some(sym));
        }
        assert_eq!(i.len(), 4, "duplicates collapse");
        assert_eq!(i.lookup("absent"), None);
    }

    #[test]
    fn iteration_follows_interning_order() {
        let mut i = Interner::new();
        i.intern("z");
        i.intern("a");
        let pairs: Vec<(usize, &str)> = i.iter().map(|(s, t)| (s.index(), t)).collect();
        assert_eq!(pairs, vec![(0, "z"), (1, "a")]);
    }

    #[test]
    fn iter_from_resumes_a_snapshot() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let snapshot = i.len();
        i.intern("c");
        i.intern("a"); // duplicate: no new symbol
        i.intern("d");
        let fresh: Vec<(usize, &str)> =
            i.iter_from(snapshot).map(|(s, t)| (s.index(), t)).collect();
        assert_eq!(fresh, vec![(2, "c"), (3, "d")]);
        assert!(i.iter_from(i.len()).next().is_none());
    }
}
