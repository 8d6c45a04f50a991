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
//! node costs a few `u64` mixes regardless of key/string lengths, and an
//! external value whose keys or atoms were never interned is known to be
//! absent before any tree node is visited.

use crate::fxhash::FxHashMap;
use crate::intern::Sym;
use crate::tree::{JsonTree, NodeId, NodeKind, RESERVE_NODES_MAX};
use crate::value::Json;

/// A canonical-label table for one [`JsonTree`].
#[derive(Clone)]
pub struct CanonTable {
    class: Vec<u32>,
    interner: FxHashMap<Sig, u32>,
}

/// The hash-consed signature of a node: its kind/value plus the classes of
/// its children. Two nodes share a signature iff their subtrees are equal.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Sig {
    Int(u64),
    Str(Sym),
    Arr(Vec<u32>),
    /// Symbol-sorted `(key, class)` pairs — object equality is unordered but
    /// the tree already stores children symbol-sorted.
    Obj(Vec<(Sym, u32)>),
}

impl CanonTable {
    /// Builds the table in `O(|J|)` hash operations (one pass, children
    /// before parents).
    pub fn build(tree: &JsonTree) -> CanonTable {
        let n = tree.node_count();
        let mut class = vec![0u32; n];
        let mut interner: FxHashMap<Sig, u32> =
            FxHashMap::with_capacity_and_hasher(n.min(RESERVE_NODES_MAX), Default::default());
        for n in tree.bottom_up() {
            let sig = Self::signature_of_node(tree, &class, n);
            let next = interner.len() as u32;
            let id = *interner.entry(sig).or_insert(next);
            class[n.index()] = id;
        }
        CanonTable { class, interner }
    }

    fn signature_of_node(tree: &JsonTree, class: &[u32], n: NodeId) -> Sig {
        match tree.kind(n) {
            NodeKind::Int => Sig::Int(tree.num_value(n).expect("Int node has value")),
            NodeKind::Str => Sig::Str(tree.str_sym(n).expect("Str node has value")),
            NodeKind::Arr => Sig::Arr(
                tree.arr_children(n)
                    .iter()
                    .map(|c| class[c.index()])
                    .collect(),
            ),
            NodeKind::Obj => Sig::Obj(
                tree.obj_entries(n)
                    .map(|(k, c)| (k, class[c.index()]))
                    .collect(),
            ),
        }
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
        self.interner.len()
    }

    /// The class id of the string atom `sym` (a symbol of the tree's
    /// table), or `None` if no string leaf of the tree carries it.
    pub fn class_of_str(&self, sym: Sym) -> Option<u32> {
        self.interner.get(&Sig::Str(sym)).copied()
    }

    /// The class id an *external* JSON value would have in `tree` (the tree
    /// this table was built from), or `None` if the value does not occur as
    /// a subtree anywhere in the tree.
    ///
    /// Used by `EQ(α, A)` / `∼(A)`: a node `n` satisfies `json(n) == A` iff
    /// `class_of(n) == class_of_json(tree, A)`. Keys and string atoms are
    /// resolved through `tree`'s interner first; a probe miss proves absence
    /// immediately.
    pub fn class_of_json(&self, tree: &JsonTree, value: &Json) -> Option<u32> {
        // An atom is one signature lookup; only containers need the walk
        // (and its work stacks).
        match value {
            Json::Num(n) => return self.interner.get(&Sig::Int(*n)).copied(),
            Json::Str(s) => return self.class_of_str(tree.sym(s)?),
            Json::Array(_) | Json::Object(_) => {}
        }
        // Iterative bottom-up over the external value, mirroring `build` but
        // lookup-only: any unseen signature proves the value is absent.
        enum Frame<'a> {
            Enter(&'a Json),
            ExitArr(usize),
            ExitObj(Vec<Sym>),
        }
        let mut work = vec![Frame::Enter(value)];
        let mut results: Vec<u32> = Vec::new();
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(v) => match v {
                    Json::Num(n) => {
                        results.push(*self.interner.get(&Sig::Int(*n))?);
                    }
                    Json::Str(s) => {
                        let sym = tree.sym(s)?;
                        results.push(*self.interner.get(&Sig::Str(sym))?);
                    }
                    Json::Array(items) => {
                        work.push(Frame::ExitArr(items.len()));
                        for item in items.iter().rev() {
                            work.push(Frame::Enter(item));
                        }
                    }
                    Json::Object(o) => {
                        // Keys must all be interned in the tree, and the
                        // signature orders pairs by symbol (matching the
                        // tree's storage order).
                        let mut entries: Vec<(Sym, &Json)> = o
                            .iter()
                            .map(|(k, child)| tree.sym(k).map(|s| (s, child)))
                            .collect::<Option<_>>()?;
                        entries.sort_unstable_by_key(|(s, _)| *s);
                        work.push(Frame::ExitObj(entries.iter().map(|(s, _)| *s).collect()));
                        for (_, child) in entries.iter().rev() {
                            work.push(Frame::Enter(child));
                        }
                    }
                },
                Frame::ExitArr(len) => {
                    let classes = results.split_off(results.len() - len);
                    results.push(*self.interner.get(&Sig::Arr(classes))?);
                }
                Frame::ExitObj(syms) => {
                    let classes = results.split_off(results.len() - syms.len());
                    let sig = Sig::Obj(syms.into_iter().zip(classes).collect());
                    results.push(*self.interner.get(&sig)?);
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
