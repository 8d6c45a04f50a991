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
//! * A key step is a binary search over a node's `Sym`s
//!   (`child_by_sym`). Query engines resolve each key or string constant
//!   they read to its symbol **once per query** (`mongofind`'s
//!   `Path::bind`/`Filter::bind`), so per-row navigation hashes no string;
//!   `child_by_key` (an [`Interner::lookup`] probe, then the same search)
//!   is for one-off probes. A key absent from the interner cannot label
//!   any edge, so the miss answers `None` without touching a node.
//! * Regex edge tests throughout the logic engines run per **distinct
//!   symbol**, not per node: the default tier compiles each regex to a DFA
//!   and evaluates it over the whole table in one pass (a `SymBitset` in
//!   `relex::bitset`, one bit per `Sym`), so the inner loops do a single
//!   bit load; the lazy `(regex, Sym)` memo remains as the fallback for
//!   regexes too large to determinise.
//!
//! Symbols are **per-interner**: every tree built on one table or on an
//! extension of it (`parse_to_tree_into`, `JsonTree::build_into`,
//! `concat_subtrees`, every segment of a `mongofind::Collection`) shares
//! one assignment, so their `Sym`s compare directly. Comparing `Sym`s from
//! trees built through different interners is meaningless (and the type
//! offers no guard beyond that documented contract, matching `NodeId`).
//!
//! Symbols are allocated densely in interning order and never move, so a
//! table extended from another keeps every symbol of its base. The table
//! is **persistent**: a list of immutable runs behind `Arc`s, each holding
//! the strings of one contiguous symbol range and their lookup map. Each
//! string is one `Arc<str>`, shared by its run's list and map and by
//! every run a merge copies it into. A clone copies the run pointers,
//! never a string. Trees hold their table
//! behind an `Arc` too: a tree whose document brings no new string shares
//! its base's table, and one that does clones the run list and extends
//! the clone. A new string on a shared table goes into a run of its own,
//! and the newest runs merge like a binary counter (while the older of
//! the last two is less than twice the newer), so a table keeps
//! O(log n) runs and each new string costs O(log n) amortised pointer
//! copies (a merge copies only the run it merges into, once, cloning its
//! list and map rather than rehashing its strings). The
//! runs the base shares are never written, so an older snapshot's table
//! stays exactly as it was. A table nobody shares appends to its last run
//! in place, so one big parse (or a query-owned table) stays one run.
//!
//! The interning order is **relied on**: parse, insert and compaction all
//! intern in first-use order, so a symbol's index is also the time its
//! first document arrived, and no earlier document can carry it. A document
//! scan starts at the first document that can hold the newest symbol its
//! filter needs ([`JsonTree::first_child_using`](crate::JsonTree::first_child_using)
//! and `mongofind::Collection::scan_start`). A table pre-populated out of
//! document order keeps that bound sound, only less tight.

use std::sync::{Arc, OnceLock};

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
/// iff they map exactly the same strings to exactly the same [`Sym`]s, however
/// their runs are split. This is the contract the parse-fusion differential
/// tests rely on: identical event streams must produce identical symbol
/// tables.
#[derive(Debug, Clone)]
pub struct Interner {
    /// The oldest run, from symbol 0; empty only when the table is. Kept
    /// apart so that `resolve` reaches most symbols in one step.
    head: Arc<Run>,
    /// The newer runs, contiguous and in symbol order. Every run but a
    /// uniquely owned last one may be shared with other tables and is
    /// never written.
    tail: Vec<Arc<Run>>,
}

/// The strings of symbols `start..start + strings.len()` and their lookup
/// map. Each string is one allocation, shared by the list, the map, and
/// every run a merge copies it into.
#[derive(Debug)]
struct Run {
    start: u32,
    strings: Vec<Arc<str>>,
    map: FxHashMap<Arc<str>, Sym>,
}

impl Run {
    fn with_capacity(start: u32, cap: usize) -> Run {
        Run {
            start,
            strings: Vec::with_capacity(cap),
            map: FxHashMap::with_capacity_and_hasher(cap, Default::default()),
        }
    }

    fn len(&self) -> usize {
        self.strings.len()
    }

    /// Appends `s` (absent from the whole table) as the next symbol.
    fn push(&mut self, s: Arc<str>) -> Sym {
        let sym = Sym(self.start + self.strings.len() as u32);
        self.strings.push(Arc::clone(&s));
        self.map.insert(s, sym);
        sym
    }
}

impl Default for Interner {
    /// An empty table. Every empty table shares one empty run, so making
    /// one allocates nothing.
    fn default() -> Interner {
        static EMPTY: OnceLock<Arc<Run>> = OnceLock::new();
        Interner {
            head: Arc::clone(EMPTY.get_or_init(|| Arc::new(Run::with_capacity(0, 0)))),
            tail: Vec::new(),
        }
    }
}

impl PartialEq for Interner {
    fn eq(&self, other: &Interner) -> bool {
        self.len() == other.len() && self.iter().map(|(_, s)| s).eq(other.iter().map(|(_, s)| s))
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
        if let Some(sym) = self.lookup(s) {
            return sym;
        }
        if self.is_empty() {
            // The shared empty run holds nothing to share: take one of our
            // own.
            self.head = Arc::new(Run::with_capacity(0, 0));
        }
        let last = self.tail.last_mut().unwrap_or(&mut self.head);
        let sym = match Arc::get_mut(last) {
            Some(run) => run.push(s.into()),
            None => {
                let mut run = Run::with_capacity(self.len() as u32, 1);
                let sym = run.push(s.into());
                self.tail.push(Arc::new(run));
                sym
            }
        };
        self.merge_tail();
        sym
    }

    /// Merges the last two runs while the older is less than twice the
    /// newer, so run sizes at least halve from oldest to newest. The
    /// carry is worked out first, and the newest runs are merged into the
    /// oldest one it reaches in one step: a shared run is copied once (its
    /// list and map cloned, not rehashed string by string, with room for
    /// the newer runs), and each newer string is pushed once.
    fn merge_tail(&mut self) {
        let Some(newest) = self.tail.last() else {
            return;
        };
        let (mut into, mut merged) = (self.tail.len(), newest.len());
        while into > 0 {
            let older = if into == 1 {
                &self.head
            } else {
                &self.tail[into - 2]
            };
            if older.len() >= 2 * merged {
                break;
            }
            merged += older.len();
            into -= 1;
        }
        if into == self.tail.len() {
            return;
        }
        // `tail[into..]` merges into the run before it.
        let (kept, newer) = self.tail.split_at_mut(into);
        let older = kept.last_mut().unwrap_or(&mut self.head);
        let extra = merged - older.len();
        if Arc::get_mut(older).is_none() {
            let mut strings = Vec::with_capacity(merged);
            strings.extend_from_slice(&older.strings);
            *older = Arc::new(Run {
                start: older.start,
                strings,
                map: older.map.clone(),
            });
        }
        let run = Arc::get_mut(older).expect("a run of this table's own");
        run.strings.reserve(extra);
        run.map.reserve(extra);
        for s in newer.iter().flat_map(|r| &r.strings) {
            run.push(Arc::clone(s));
        }
        self.tail.truncate(into);
    }

    /// The symbol of `s`, if it has been interned — the probe a query makes
    /// once per key or string constant when it binds, and that fronts every
    /// one-off `child_by_key`. One hash probe per run, oldest (largest)
    /// first.
    #[inline]
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        match self.head.map.get(s) {
            Some(&sym) => Some(sym),
            None => self.tail.iter().find_map(|run| run.map.get(s).copied()),
        }
    }

    /// The string a symbol stands for.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        match self.head.strings.get(sym.index()) {
            Some(s) => s,
            None => self.resolve_in_tail(sym.index()),
        }
    }

    #[cold]
    fn resolve_in_tail(&self, i: usize) -> &str {
        let run = &self.tail[self.tail.partition_point(|r| r.start as usize <= i) - 1];
        &run.strings[i - run.start as usize]
    }

    /// The runs, oldest first.
    fn runs(&self) -> impl Iterator<Item = &Arc<Run>> {
        std::iter::once(&self.head).chain(&self.tail)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        let last = self.tail.last().unwrap_or(&self.head);
        last.start as usize + last.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.head.strings.is_empty()
    }

    /// Iterates `(Sym, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.runs().flat_map(|run| {
            (run.start..)
                .zip(&run.strings)
                .map(|(i, s)| (Sym(i), s.as_ref()))
        })
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
    fn shared_growth_keeps_logarithmic_runs() {
        let mut t = Interner::new();
        for i in 0..1000 {
            t.intern(&format!("base{i}"));
        }
        assert!(t.tail.is_empty(), "a table nobody shares grows in place");
        // The insert path: each version clones the last and brings two new
        // strings, and every version stays alive.
        let mut versions = Vec::new();
        for i in 0..3000 {
            let mut next = t.clone();
            next.intern(&format!("new{i}"));
            next.intern(&format!("more{i}"));
            versions.push(std::mem::replace(&mut t, next));
            let runs: Vec<usize> = t.runs().map(|r| r.len()).collect();
            assert!(runs.len() <= 1 + t.len().ilog2() as usize, "{runs:?}");
            assert!(
                runs.windows(2).all(|w| w[0] >= 2 * w[1]),
                "run sizes at least halve: {runs:?}"
            );
        }
        assert_eq!(versions[0].len(), 1000, "the first version is untouched");
        assert_eq!(t.resolve(Sym(999)), "base999");
        assert_eq!(t.resolve(Sym(6999)), "more2999");
    }

    #[test]
    fn iteration_follows_interning_order() {
        let mut i = Interner::new();
        i.intern("z");
        i.intern("a");
        let pairs: Vec<(usize, &str)> = i.iter().map(|(s, t)| (s.index(), t)).collect();
        assert_eq!(pairs, vec![(0, "z"), (1, "a")]);
    }
}
