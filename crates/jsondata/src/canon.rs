//! Canonical subtree labels: the "online subtree equality" engine.
//!
//! The operators `EQ(α, A)`, `EQ(α, β)` (JNL), `∼(A)` and `Unique` (JSL)
//! compare *entire subtrees*. Naively each comparison costs `O(|J|)`, and
//! pre-computing all pairs costs `O(|J|²)` — the quadratic baseline the paper
//! mentions in the proof of Proposition 1. This module implements the
//! refinement: a single bottom-up pass assigns every node an integer *class
//! id* such that
//!
//! > `class(n) == class(m)`  ⇔  `json(n) == json(m)`,
//!
//! after which every subtree equality test is `O(1)`. Class ids are computed
//! by hash-consing node signatures (kind + value + child class list; object
//! children keyed and sorted so the unordered object semantics is honoured).
//!
//! Signatures carry interned [`Sym`]s — never owned strings — so hashing a
//! node costs a few word mixes regardless of key/string lengths, and an
//! external value whose keys or atoms were never interned is known to be
//! absent before any tree node is visited.
//!
//! The table is a hash-consing arena: one open-addressed index with a
//! 16-byte slot per class, and one flat `u32` buffer of container
//! signatures. A slot holds the class id, 32 bits of the signature's hash
//! (its kind in the low two) and a key: the value itself for a number or
//! a string atom, the offset of the signature in the buffer for an array
//! or an object. A probe passes over other classes by their hash bits
//! alone, and confirms a match by comparing the full signature, so an
//! atom, the constant of every index probe, is found by reading one slot.
//! A container's signature is written straight onto the end of the
//! buffer and kept only if it is new, so a build allocates a fixed set of
//! buffers grown by doubling — O(log n) allocations, not one per
//! container or per class — and keeps no heap object per class.

use std::hash::Hasher;

use crate::fxhash::FxHasher;
use crate::intern::Sym;
use crate::tree::{JsonTree, NodeId, NodeKind, RESERVE_NODES_MAX};
use crate::value::Json;

/// Signature kinds, kept in the low two bits of a slot's hash bits.
const INT: u32 = 0;
const STR: u32 = 1;
/// An array's signature words: the class of each child.
const ARR: u32 = 2;
/// An object's signature words: `key symbol, class` pairs in symbol
/// order — object equality is unordered, and the tree already stores
/// children symbol-sorted.
const OBJ: u32 = 3;

/// One class in the index.
#[derive(Clone, Copy)]
struct Slot {
    /// The high bits of the signature's hash, with its kind in the low two.
    tag: u32,
    /// The class id; [`FREE`]'s `u32::MAX` in an empty slot (ids stay
    /// below the node count).
    class: u32,
    /// A number's value, a string atom's symbol, or the offset of a
    /// container's signature in `sigs`.
    key: u64,
}

/// An empty slot.
const FREE: Slot = Slot {
    tag: 0,
    class: u32::MAX,
    key: 0,
};

/// A bound on signature words per node: each child edge adds at most two
/// (a key and a class) and each container one length word, so a tree of
/// `n` nodes writes fewer than `3n`.
const WORDS_PER_NODE: usize = 3;

/// A canonical-label table for one [`JsonTree`].
#[derive(Clone)]
pub struct CanonTable {
    /// The class of each node, indexed by node id.
    class: Vec<u32>,
    /// The signature of every container class, in class-id order, each a
    /// length word followed by its words.
    sigs: Vec<u32>,
    /// The number of classes.
    classes: u32,
    /// Open-addressed, linearly probed index of every class, a power of
    /// two long and at most three quarters full.
    index: Vec<Slot>,
}

/// The hash bits a slot keeps for a signature of `kind` whose words are
/// `words`: the high half of the hash, where its final multiply mixes
/// best, with the kind in the low two bits. The length is folded into
/// the first step and the words hashed in pairs, so an atom costs two
/// hash steps.
#[inline]
fn tag(kind: u32, words: &[u32]) -> u32 {
    let mut h = FxHasher::default();
    h.write_u64(u64::from(kind) | ((words.len() as u64) << 32));
    let mut pairs = words.chunks_exact(2);
    for p in &mut pairs {
        h.write_u64(u64::from(p[0]) | (u64::from(p[1]) << 32));
    }
    if let [w] = pairs.remainder() {
        h.write_u32(*w);
    }
    ((h.finish() >> 32) as u32 & !3) | kind
}

/// [`tag`] of a number or a string atom, `value` being its number or its
/// symbol.
#[inline]
fn atom_tag(kind: u32, value: u64) -> u32 {
    tag(kind, &[value as u32, (value >> 32) as u32])
}

/// The first slot `tag` probes in an index of `mask + 1` slots: the top
/// bits of a Fibonacci multiply, so growing the index re-homes every
/// slot from its stored bits without reading a signature.
#[inline]
fn home(tag: u32, mask: usize) -> usize {
    let bits = mask.count_ones();
    (u64::from(tag).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

impl CanonTable {
    /// Builds the table in `O(|J|)` hash operations (one pass, children
    /// before parents), assigning class ids in that order: a new id at
    /// each first-seen signature.
    pub fn build(tree: &JsonTree) -> CanonTable {
        let n = tree.node_count();
        // A small tree (an inserted document) fits in what is reserved
        // here, so no buffer regrows; a large one grows them by doubling
        // and gives the slack back at the end.
        let reserve = n.min(RESERVE_NODES_MAX);
        let mut table = CanonTable {
            class: vec![0; n],
            sigs: Vec::with_capacity(reserve * WORDS_PER_NODE),
            classes: 0,
            // Twice the reserved nodes: a small tree's index stays at
            // most half full, and never grows.
            index: vec![FREE; (2 * reserve).next_power_of_two()],
        };
        for node in tree.bottom_up() {
            table.class[node.index()] = match tree.kind(node) {
                NodeKind::Int => {
                    table.intern_atom(INT, tree.num_value(node).expect("Int node has value"))
                }
                NodeKind::Str => {
                    let sym = tree.str_sym(node).expect("Str node has value");
                    table.intern_atom(STR, sym.index() as u64)
                }
                NodeKind::Arr => {
                    let at = table.open_sig();
                    let (class, sigs) = (&table.class, &mut table.sigs);
                    sigs.extend(tree.arr_children(node).iter().map(|c| class[c.index()]));
                    table.intern_sig(ARR, at)
                }
                NodeKind::Obj => {
                    let at = table.open_sig();
                    let (class, sigs) = (&table.class, &mut table.sigs);
                    for (k, c) in tree.obj_entries(node) {
                        sigs.extend_from_slice(&[k.index() as u32, class[c.index()]]);
                    }
                    table.intern_sig(OBJ, at)
                }
            };
        }
        if n > RESERVE_NODES_MAX {
            table.sigs.shrink_to_fit();
        }
        table
    }

    /// The class of the atom `value` of `kind`, new if it is unseen.
    fn intern_atom(&mut self, kind: u32, value: u64) -> u32 {
        let tag = atom_tag(kind, value);
        match self.probe(tag, |s| s.key == value) {
            Ok(class) => class,
            Err(slot) => self.add(slot, tag, value),
        }
    }

    /// Starts a container signature at the end of `sigs` (its length word,
    /// filled in if it is kept) and returns where it starts.
    fn open_sig(&mut self) -> usize {
        self.sigs.push(0);
        self.sigs.len() - 1
    }

    /// The class of the container signature of `kind` whose words follow
    /// the length word at `sigs[at]`: an existing class, whose words are
    /// then dropped again, or a new one, whose entry they become.
    fn intern_sig(&mut self, kind: u32, at: usize) -> u32 {
        let words = &self.sigs[at + 1..];
        let tag = tag(kind, words);
        match self.probe(tag, |s| self.sig_at(s.key) == words) {
            Ok(class) => {
                self.sigs.truncate(at);
                class
            }
            Err(slot) => {
                let len = self.sigs.len() - at - 1;
                u32::try_from(self.sigs.len()).expect("signature words fit in u32");
                self.sigs[at] = len as u32;
                self.add(slot, tag, at as u64)
            }
        }
    }

    /// Takes the free `slot` for a new class.
    fn add(&mut self, slot: usize, tag: u32, key: u64) -> u32 {
        let class = self.classes;
        self.index[slot] = Slot { tag, class, key };
        self.classes += 1;
        if 4 * self.class_count() > 3 * self.index.len() {
            self.grow_index();
        }
        class
    }

    /// Looks up the signature whose [`tag`] is `tag` and which `same`
    /// confirms: `Ok(its class)`, or `Err(the free slot it would take)`.
    #[inline]
    fn probe(&self, tag: u32, same: impl Fn(&Slot) -> bool) -> Result<u32, usize> {
        let mask = self.index.len() - 1;
        let mut at = home(tag, mask);
        loop {
            let slot = &self.index[at];
            if slot.class == FREE.class {
                return Err(at);
            }
            if slot.tag == tag && same(slot) {
                return Ok(slot.class);
            }
            at = (at + 1) & mask;
        }
    }

    /// The words of the container signature whose length word is at
    /// `sigs[at]`.
    #[inline]
    fn sig_at(&self, at: u64) -> &[u32] {
        let at = at as usize;
        &self.sigs[at + 1..at + 1 + self.sigs[at] as usize]
    }

    /// Doubles the index and re-inserts every slot at its hash bits' home.
    fn grow_index(&mut self) {
        let mask = 2 * self.index.len() - 1;
        let mut index = vec![FREE; mask + 1];
        for slot in self.index.iter().filter(|s| s.class != FREE.class) {
            let mut at = home(slot.tag, mask);
            while index[at].class != FREE.class {
                at = (at + 1) & mask;
            }
            index[at] = *slot;
        }
        self.index = index;
    }

    /// The class id of node `n`.
    pub fn class_of(&self, n: NodeId) -> u32 {
        self.class[n.index()]
    }

    /// The full class vector, indexed by node id. Class ids are assigned
    /// deterministically (bottom-up, first-seen order), so two structurally
    /// identical trees — e.g. the fused and two-pass parse of one document —
    /// must yield byte-identical vectors; the differential tests assert it.
    pub fn classes(&self) -> &[u32] {
        &self.class
    }

    /// `O(1)` subtree equality: `json(a) == json(b)`.
    pub fn equal(&self, a: NodeId, b: NodeId) -> bool {
        self.class_of(a) == self.class_of(b)
    }

    /// Number of distinct subtree values in the tree.
    pub fn class_count(&self) -> usize {
        self.classes as usize
    }

    /// The class id of the string atom `sym` (a symbol of the tree's
    /// table), or `None` if no string leaf of the tree carries it.
    #[inline]
    pub fn class_of_str(&self, sym: Sym) -> Option<u32> {
        self.find_atom(STR, sym.index() as u64)
    }

    /// The class id of the number atom `n`, or `None` if no number leaf
    /// of the tree carries it.
    #[inline]
    pub fn class_of_num(&self, n: u64) -> Option<u32> {
        self.find_atom(INT, n)
    }

    /// The class of the atom `value` of `kind`, or `None` if no leaf of
    /// the tree carries it.
    #[inline]
    fn find_atom(&self, kind: u32, value: u64) -> Option<u32> {
        self.probe(atom_tag(kind, value), |s| s.key == value).ok()
    }

    /// The class of the container signature of `kind` with words
    /// `words`, or `None` if no node of the tree has it.
    fn find_sig(&self, kind: u32, words: &[u32]) -> Option<u32> {
        self.probe(tag(kind, words), |s| self.sig_at(s.key) == words)
            .ok()
    }

    /// The class id an *external* JSON value would have in `tree` (the tree
    /// this table was built from), or `None` if the value does not occur as
    /// a subtree anywhere in the tree.
    ///
    /// Used by `EQ(α, A)` / `∼(A)`: a node `n` satisfies `json(n) == A` iff
    /// `class_of(n) == class_of_json(tree, A)`. Keys and string atoms are
    /// resolved through `tree`'s interner first; a probe miss proves absence
    /// immediately.
    #[inline]
    pub fn class_of_json(&self, tree: &JsonTree, value: &Json) -> Option<u32> {
        // An atom is one slot lookup, inlined into the caller (an index
        // probe makes one per segment); only containers need the walk and
        // its work stacks.
        match value {
            Json::Num(n) => self.class_of_num(*n),
            Json::Str(s) => self.class_of_str(tree.sym(s)?),
            Json::Array(_) | Json::Object(_) => self.container_class(tree, value),
        }
    }

    /// [`CanonTable::class_of_json`] of an array or object: an iterative
    /// bottom-up walk over the external value, mirroring `build` but
    /// lookup-only, so any unseen signature proves the value is absent.
    fn container_class(&self, tree: &JsonTree, value: &Json) -> Option<u32> {
        enum Frame<'a> {
            Enter(&'a Json),
            /// An array closes over the last `len` results.
            ExitArr(usize),
            /// An object closes over the last `len` results, keyed by the
            /// last `len` entries of `keys`.
            ExitObj(usize),
        }
        let mut work = vec![Frame::Enter(value)];
        let mut results: Vec<u32> = Vec::new();
        // The symbol-sorted keys of every open object, stacked.
        let mut keys: Vec<u32> = Vec::new();
        let mut members: Vec<(Sym, &Json)> = Vec::new();
        let mut words: Vec<u32> = Vec::new();
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(v) => match v {
                    Json::Num(n) => results.push(self.find_atom(INT, *n)?),
                    Json::Str(s) => results.push(self.class_of_str(tree.sym(s)?)?),
                    Json::Array(items) => {
                        work.push(Frame::ExitArr(items.len()));
                        work.extend(items.iter().rev().map(Frame::Enter));
                    }
                    Json::Object(o) => {
                        // Keys must all be interned in the tree, and the
                        // signature orders pairs by symbol (matching the
                        // tree's storage order).
                        members.clear();
                        for (k, child) in o.iter() {
                            members.push((tree.sym(k)?, child));
                        }
                        members.sort_unstable_by_key(|(s, _)| *s);
                        keys.extend(members.iter().map(|(s, _)| s.index() as u32));
                        work.push(Frame::ExitObj(members.len()));
                        work.extend(members.iter().rev().map(|&(_, c)| Frame::Enter(c)));
                    }
                },
                Frame::ExitArr(len) => {
                    let at = results.len() - len;
                    let class = self.find_sig(ARR, &results[at..])?;
                    results.truncate(at);
                    results.push(class);
                }
                Frame::ExitObj(len) => {
                    let (at, key_at) = (results.len() - len, keys.len() - len);
                    words.clear();
                    for (&k, &c) in keys[key_at..].iter().zip(&results[at..]) {
                        words.extend_from_slice(&[k, c]);
                    }
                    results.truncate(at);
                    keys.truncate(key_at);
                    results.push(self.find_sig(OBJ, &words)?);
                }
            }
        }
        debug_assert_eq!(results.len(), 1);
        results.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn table(src: &str) -> (JsonTree, CanonTable) {
        let t = JsonTree::build(&parse(src).unwrap());
        let c = CanonTable::build(&t);
        (t, c)
    }

    #[test]
    fn equal_subtrees_share_class() {
        let (t, c) = table(r#"{"a": {"x": 1, "y": [2]}, "b": {"y": [2], "x": 1}}"#);
        let a = t.child_by_key(t.root(), "a").unwrap();
        let b = t.child_by_key(t.root(), "b").unwrap();
        assert!(c.equal(a, b), "unordered-equal objects must share a class");
        assert_ne!(c.class_of(t.root()), c.class_of(a));
    }

    #[test]
    fn class_equality_matches_json_equality_exhaustively() {
        let (t, c) = table(r#"{"p": [1, [1], "1", {"k": 1}, {"k": 1}, [1, 1]], "q": 1, "r": "1"}"#);
        for a in t.node_ids() {
            for b in t.node_ids() {
                assert_eq!(
                    c.equal(a, b),
                    t.json_at(a) == t.json_at(b),
                    "canon must agree with structural equality at {a:?},{b:?}"
                );
            }
        }
    }

    #[test]
    fn distinguishes_types_with_same_surface() {
        let (t, c) = table(r#"[1, "1", [], {}]"#);
        let ids: Vec<NodeId> = t.arr_children(t.root()).to_vec();
        for i in 0..ids.len() {
            for j in 0..ids.len() {
                assert_eq!(c.equal(ids[i], ids[j]), i == j);
            }
        }
    }

    #[test]
    fn class_of_external_json() {
        let (t, c) = table(r#"{"name": {"first": "John"}, "other": {"first": "John"}}"#);
        let external = parse(r#"{"first": "John"}"#).unwrap();
        let class = c
            .class_of_json(&t, &external)
            .expect("value occurs in tree");
        let name = t.child_by_key(t.root(), "name").unwrap();
        assert_eq!(class, c.class_of(name));
        // Absent values yield None.
        assert_eq!(
            c.class_of_json(&t, &parse(r#"{"first":"Jane"}"#).unwrap()),
            None
        );
        assert_eq!(c.class_of_json(&t, &Json::Num(99)), None);
        // Un-interned keys prove absence before any signature is hashed.
        assert_eq!(
            c.class_of_json(&t, &parse(r#"{"ghost": 1}"#).unwrap()),
            None
        );
    }

    #[test]
    fn class_of_external_nested_absent_child() {
        let (t, c) = table(r#"{"a": [1, 2]}"#);
        // `3` never occurs, so neither can `[3]`.
        assert_eq!(c.class_of_json(&t, &parse("[3]").unwrap()), None);
        assert!(c.class_of_json(&t, &parse("[1,2]").unwrap()).is_some());
    }

    #[test]
    fn class_count_counts_distinct_values() {
        // Values: the array, 1 (twice), 2 → 3 distinct.
        let (_, c) = table(r#"[1, 1, 2]"#);
        assert_eq!(c.class_count(), 3);
    }

    #[test]
    fn empty_object_vs_empty_array() {
        let (t, c) = table(r#"[{}, [], {}, []]"#);
        let cs = t.arr_children(t.root());
        assert!(c.equal(cs[0], cs[2]));
        assert!(c.equal(cs[1], cs[3]));
        assert!(!c.equal(cs[0], cs[1]));
    }

    #[test]
    fn large_repeated_structure_dedups() {
        // 64 copies of the same subtree: classes collapse.
        let leaf = parse(r#"{"v": [1, 2, 3]}"#).unwrap();
        let doc = Json::Array(vec![leaf; 64]);
        let t = JsonTree::build(&doc);
        let c = CanonTable::build(&t);
        // distinct values: root array, object, inner array, 1, 2, 3 = 6
        assert_eq!(c.class_count(), 6);
    }

    #[test]
    fn external_probe_with_unordered_keys() {
        // External objects may list keys in any order; the symbol sort
        // canonicalises them exactly like the tree's own storage.
        let (t, c) = table(r#"{"a": {"x": 1, "y": 2}}"#);
        let fwd = parse(r#"{"x": 1, "y": 2}"#).unwrap();
        let rev = parse(r#"{"y": 2, "x": 1}"#).unwrap();
        assert_eq!(c.class_of_json(&t, &fwd), c.class_of_json(&t, &rev));
        assert!(c.class_of_json(&t, &fwd).is_some());
    }
}
