//! The JSON tree model of §3.1: an arena-backed, immutable tree whose nodes
//! are partitioned into objects, arrays, strings and numbers, with
//! key-labelled object edges and index-labelled array edges.
//!
//! Design notes:
//!
//! * Node ids are assigned in **document-order pre-order** during
//!   construction (the order a streaming parser encounters values), so for
//!   every node `n` and every descendant `d` of `n`, `n.index() < d.index()`
//!   and every subtree occupies a contiguous id block. Iterating ids in
//!   *descending* order therefore visits children before parents — the
//!   bottom-up evaluation order used throughout the logic engines — without
//!   materialising an explicit post-order.
//! * All strings — object keys **and** string leaves — are interned into
//!   the tree's [`Interner`]; nodes store [`Sym`]s, never owned strings.
//!   Edge tests on the logic engines' hot paths are therefore `u32`
//!   compares. The table sits behind an [`Arc`]: trees built from one base
//!   table share it until a document brings a string the base lacks.
//! * Storage is CSR-style: one flattened `children` array (with a parallel
//!   `keys` array of symbols) addressed by per-node offset spans, instead of
//!   one heap allocation per node. Object children are stored **sorted by
//!   `Sym`**, so [`JsonTree::child_by_key`] is an `O(1)` interner probe
//!   followed by a binary search over `u32`s — and a key that was never
//!   interned answers `None` without touching the node at all. JSON objects
//!   are unordered (§3.2 difference 1), so no information is lost.
//! * Construction and reconstruction are iterative: document depth never
//!   translates into call-stack depth, so million-node chain documents used
//!   by the scaling benchmarks are safe.
//! * A tree owns its one [`CanonTable`], built on first use
//!   ([`JsonTree::canon`]) and kept for the tree's lifetime. Trees are
//!   immutable and shared behind `Arc`s, so every holder of the tree —
//!   each snapshot, index and query engine — reads the same table.
//! * An array-rooted tree also keeps a **horizon table**
//!   ([`JsonTree::first_child_using`]): the running maximum of the symbols
//!   its root's children use, as a sparse step list. Symbols are numbered
//!   in first-use order, so it tells a document scan where the first
//!   document that can carry a given key or string atom sits.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::canon::CanonTable;
use crate::fxhash::FxHashSet;
use crate::intern::{Interner, Sym};
use crate::jstr::JStr;
use crate::value::{Json, ObjectRepr};

/// Identifier of a node within one [`JsonTree`]; indexes the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The arena index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a `NodeId` from a raw arena index (test/bench helper).
    pub const fn from_index(i: usize) -> NodeId {
        NodeId(i as u32)
    }
}

/// The four node types partitioning the tree domain (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An object node (member of the `Obj` partition).
    Obj,
    /// An array node (member of the `Arr` partition).
    Arr,
    /// A string leaf (member of the `Str` partition).
    Str,
    /// A number leaf (member of the `Int` partition).
    Int,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Obj => "object",
            NodeKind::Arr => "array",
            NodeKind::Str => "string",
            NodeKind::Int => "number",
        };
        f.write_str(s)
    }
}

/// The label of an edge from a parent to one of its children: a key (for
/// object nodes, relation `O`) or a position (for array nodes, relation `A`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeLabel<'a> {
    /// Object edge labelled with a key `w ∈ Σ*`.
    Key(&'a str),
    /// Array edge labelled with a position `i ∈ ℕ`.
    Index(usize),
}

impl fmt::Display for EdgeLabel<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeLabel::Key(k) => write!(f, "{:?}", k),
            EdgeLabel::Index(i) => write!(f, "{}", i),
        }
    }
}

/// Sentinel in the flattened `keys` array for array-edge slots.
const NO_KEY: Sym = Sym::from_index(u32::MAX as usize);

/// Sentinel in `parents` for the root.
const NO_PARENT: u32 = u32::MAX;

/// How many open containers [`JsonTree::json_at`] holds inline before it
/// spills to the heap.
const INLINE_FRAMES: usize = 16;

/// A container [`JsonTree::json_at`] is still filling.
enum Open {
    Arr(Vec<Json>),
    Obj(Vec<(JStr, Json)>),
}

impl Open {
    fn close(self) -> Json {
        match self {
            Open::Arr(items) => Json::Array(items),
            Open::Obj(pairs) => Json::Object(ObjectRepr::from_distinct(pairs)),
        }
    }
}

/// An open container of [`JsonTree::json_at`]'s walk: its child span
/// in the flattened arrays, and the position of its next child.
struct Frame {
    next: usize,
    end: usize,
    open: Open,
}

/// [`JsonTree::json_at`]'s stack of open ancestors: the first
/// [`INLINE_FRAMES`] live inline, deeper ones on the heap.
#[derive(Default)]
struct Frames {
    inline: [Option<Frame>; INLINE_FRAMES],
    spill: Vec<Frame>,
    len: usize,
}

impl Frames {
    fn push(&mut self, f: Frame) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = Some(f),
            None => self.spill.push(f),
        }
        self.len += 1;
    }

    fn pop(&mut self) -> Option<Frame> {
        self.len = self.len.checked_sub(1)?;
        match self.inline.get_mut(self.len) {
            Some(slot) => slot.take(),
            None => self.spill.pop(),
        }
    }
}

/// An immutable JSON tree `J = (D, Obj, Arr, Str, Int, A, O, val)`.
///
/// Per node the tree keeps 29 bytes of columns: the kind (1 byte); the
/// parent, the slot in the parent's child span, the child-span offset,
/// and the node's entry in the flattened `children` and `keys` arrays
/// (4 bytes each); and the leaf payload (8). Measures that follow from
/// these are computed, not stored: a subtree's size from pre-order
/// contiguity ([`JsonTree::subtree_size`]), and of the heights only the
/// root's, which construction sees for free.
#[derive(Clone)]
pub struct JsonTree {
    /// The partition each node belongs to.
    kinds: Vec<NodeKind>,
    /// Parent node index, or [`NO_PARENT`] at the root: PDL's backward
    /// steps and the edge label into a node.
    parents: Vec<u32>,
    /// Position of each node in its parent's child span; 0 for the root.
    slots: Vec<u32>,
    /// CSR offsets: node `i`'s children live at
    /// `children[child_start[i] .. child_start[i + 1]]`.
    child_start: Vec<u32>,
    /// Flattened child arrays (key-symbol-sorted for objects, positional for
    /// arrays).
    children: Vec<NodeId>,
    /// Key symbol per child slot ([`NO_KEY`] under array nodes).
    keys: Vec<Sym>,
    /// Leaf payload: the number of an `Int` node, or the interned-string
    /// index of a `Str` node (0 for containers).
    payload: Vec<u64>,
    /// Height of the whole tree (the root's subtree; a lone leaf is 0).
    height: u32,
    /// The symbol table for keys and string atoms, shared with every tree
    /// built from the same base that added no string of its own.
    interner: Arc<Interner>,
    /// The canonical-label table, built at most once ([`JsonTree::canon`]).
    canon: OnceLock<CanonTable>,
    /// The horizon table, built at most once ([`JsonTree::first_child_using`]).
    horizon: OnceLock<Box<[HorizonStep]>>,
}

/// One step of a tree's horizon table: root children `child..` (up to the
/// next step) may use symbols below `bound`, and no earlier child uses
/// `bound - 1` or anything above it.
#[derive(Debug, Clone, Copy)]
struct HorizonStep {
    /// Position of the root child where the running maximum grew.
    child: u32,
    /// One more than the largest symbol used by root children `0..=child`.
    bound: u32,
}

/// The streaming construction core shared by [`JsonTree::build`] and the
/// fused parser (`parse_to_tree` in [`crate::parse`]).
///
/// The builder consumes a **document-order event stream** — the sequence of
/// tokens a streaming JSON parser naturally produces — and assembles the CSR
/// arrays directly, with no intermediate [`Json`]:
///
/// * Node ids are assigned in document-order pre-order (parents before
///   children, subtrees contiguous).
/// * Keys and string atoms are interned the moment they are lexed, so the
///   symbol table grows in document order. The builder starts from a base
///   table and clones it (`Arc::make_mut`) only at the first string the
///   base lacks, so a document with no new string shares its base's table.
///   The clone copies the base's run list, O(log n) pointers, never a
///   string: the new strings go into runs of the clone's own, and the
///   base table stays untouched (see [`Interner`]).
/// * Open containers live on an explicit stack (`open`); their pending child
///   entries stack up in one shared `scratch` buffer, so construction does
///   **no per-node allocation** and document depth never becomes call-stack
///   depth.
/// * When an object closes, its entries are symbol-sorted in place — the
///   invariant `child_by_sym` binary-searches on — and moved to the `closed`
///   buffer; [`TreeBuilder::finish`] lays the spans out in node-id order.
/// * Duplicate keys are detected exactly, as `Sym` collisions within one
///   open object (one probe of a shared `(node, Sym)` hash set per key —
///   symbols make the probe collision-free, unlike string hashes).
///
/// Because both construction paths reduce to this one event consumer, a
/// fused parse and a parse-then-build of the same document produce
/// [`JsonTree::identical`] trees by construction; the differential test
/// suite (`tests/parse_fusion.rs`) pins that equivalence.
pub(crate) struct TreeBuilder {
    interner: Arc<Interner>,
    kinds: Vec<NodeKind>,
    parents: Vec<u32>,
    payload: Vec<u64>,
    /// Stack of open containers.
    open: Vec<OpenFrame>,
    /// Child entries `(key or NO_KEY, child id)` of all open containers,
    /// stacked; each frame owns `scratch[frame.scratch_start..]` up to the
    /// next frame's start.
    scratch: Vec<(Sym, u32)>,
    /// Child entries of closed containers, grouped per node (object spans
    /// already symbol-sorted).
    closed: Vec<(Sym, u32)>,
    /// Per-node `(offset, len)` span into `closed`; `(0, 0)` for leaves.
    closed_span: Vec<(u32, u32)>,
    /// Duplicate-key probe: `(object node id, key symbol)` pairs of every
    /// open object. Node ids never repeat, so stale entries of closed
    /// objects are inert and need no cleanup.
    seen_keys: FxHashSet<(u32, Sym)>,
    /// The key awaiting its value inside the innermost open object.
    pending_key: Sym,
    /// The most containers ever open around one node: the tree's height.
    height: u32,
}

struct OpenFrame {
    id: u32,
    scratch_start: u32,
    is_obj: bool,
}

/// The most nodes a builder (or a canonical-label table) reserves room
/// for up front. A small document (an inserted one) then fills every
/// working vector without regrowing it, and a large one grows them by
/// doubling from here, as it would from empty.
pub(crate) const RESERVE_NODES_MAX: usize = 256;

impl TreeBuilder {
    /// A builder interning on top of `interner` (possibly pre-populated,
    /// for shared-interner batch loading), with room for `nodes` nodes in
    /// each working vector.
    pub(crate) fn new(interner: Arc<Interner>, nodes: usize) -> TreeBuilder {
        TreeBuilder {
            interner,
            kinds: Vec::with_capacity(nodes),
            parents: Vec::with_capacity(nodes),
            payload: Vec::with_capacity(nodes),
            open: Vec::with_capacity(nodes),
            scratch: Vec::with_capacity(nodes),
            closed: Vec::with_capacity(nodes),
            closed_span: Vec::with_capacity(nodes),
            seen_keys: FxHashSet::with_capacity_and_hasher(nodes, Default::default()),
            pending_key: NO_KEY,
            height: 0,
        }
    }

    /// A builder for a document of `len` bytes of text: room for one node
    /// per 8 bytes, fewer than a typical document spends on one, up to
    /// [`RESERVE_NODES_MAX`].
    pub(crate) fn for_text(interner: Arc<Interner>, len: usize) -> TreeBuilder {
        TreeBuilder::new(interner, (len / 8 + 1).min(RESERVE_NODES_MAX))
    }

    /// The symbol of `s`, cloning the base table's run list on the first
    /// string it lacks.
    fn intern(&mut self, s: &str) -> Sym {
        match self.interner.lookup(s) {
            Some(sym) => sym,
            None => Arc::make_mut(&mut self.interner).intern(s),
        }
    }

    fn new_node(&mut self, kind: NodeKind, payload: u64) -> u32 {
        let id = self.kinds.len() as u32;
        self.kinds.push(kind);
        self.payload.push(payload);
        self.closed_span.push((0, 0));
        self.height = self.height.max(self.open.len() as u32);
        match self.open.last() {
            Some(f) => {
                self.parents.push(f.id);
                let key = if f.is_obj {
                    std::mem::replace(&mut self.pending_key, NO_KEY)
                } else {
                    NO_KEY
                };
                self.scratch.push((key, id));
            }
            None => self.parents.push(NO_PARENT),
        }
        id
    }

    /// A number value.
    pub(crate) fn num(&mut self, n: u64) {
        self.new_node(NodeKind::Int, n);
    }

    /// A string value (interned as an atom).
    pub(crate) fn str_atom(&mut self, s: &str) {
        let sym = self.intern(s);
        self.new_node(NodeKind::Str, sym.index() as u64);
    }

    /// A string value by pre-resolved symbol. The symbol must be valid in
    /// this builder's interner (i.e. come from a tree whose interner the
    /// builder's table extends) — the replay path of
    /// [`JsonTree::concat_subtrees`] uses this to skip re-hashing strings
    /// that are already interned.
    fn str_atom_sym(&mut self, sym: Sym) {
        debug_assert!(sym.index() < self.interner.len(), "foreign symbol");
        self.new_node(NodeKind::Str, sym.index() as u64);
    }

    /// [`TreeBuilder::object_key`] by pre-resolved symbol (same validity
    /// contract as [`TreeBuilder::str_atom_sym`]).
    fn object_key_sym(&mut self, sym: Sym) -> bool {
        debug_assert!(sym.index() < self.interner.len(), "foreign symbol");
        let top = self.open.last().expect("object_key outside an object");
        debug_assert!(top.is_obj, "object_key inside an array");
        if !self.seen_keys.insert((top.id, sym)) {
            return false;
        }
        self.pending_key = sym;
        true
    }

    /// Opens an object value.
    pub(crate) fn begin_object(&mut self) {
        let id = self.new_node(NodeKind::Obj, 0);
        self.open.push(OpenFrame {
            id,
            scratch_start: self.scratch.len() as u32,
            is_obj: true,
        });
    }

    /// A member key inside the innermost open object. Returns `false` if the
    /// key duplicates an earlier member of that object (the caller reports
    /// the error; the builder is then abandoned).
    pub(crate) fn object_key(&mut self, key: &str) -> bool {
        let sym = self.intern(key);
        let top = self.open.last().expect("object_key outside an object");
        debug_assert!(top.is_obj, "object_key inside an array");
        if !self.seen_keys.insert((top.id, sym)) {
            return false;
        }
        self.pending_key = sym;
        true
    }

    /// Closes the innermost object: symbol-sorts its entries and retires
    /// them to the closed buffer.
    pub(crate) fn end_object(&mut self) {
        let f = self.open.pop().expect("end_object without begin_object");
        debug_assert!(f.is_obj);
        let start = f.scratch_start as usize;
        self.scratch[start..].sort_unstable_by_key(|(s, _)| *s);
        self.closed_span[f.id as usize] = (
            self.closed.len() as u32,
            (self.scratch.len() - start) as u32,
        );
        self.closed.extend_from_slice(&self.scratch[start..]);
        self.scratch.truncate(start);
    }

    /// Opens an array value.
    pub(crate) fn begin_array(&mut self) {
        let id = self.new_node(NodeKind::Arr, 0);
        self.open.push(OpenFrame {
            id,
            scratch_start: self.scratch.len() as u32,
            is_obj: false,
        });
    }

    /// Closes the innermost array (entries keep positional order).
    pub(crate) fn end_array(&mut self) {
        let f = self.open.pop().expect("end_array without begin_array");
        debug_assert!(!f.is_obj);
        let start = f.scratch_start as usize;
        self.closed_span[f.id as usize] = (
            self.closed.len() as u32,
            (self.scratch.len() - start) as u32,
        );
        self.closed.extend_from_slice(&self.scratch[start..]);
        self.scratch.truncate(start);
    }

    /// Flattens into the final CSR arrays. The node columns of a tree too
    /// big for the builder's reservation grew by doubling; they give their
    /// slack back here, while a small tree (an inserted document) keeps
    /// its columns as reserved rather than pay a reallocation each.
    pub(crate) fn finish(mut self) -> JsonTree {
        debug_assert!(self.open.is_empty(), "finish with open containers");
        debug_assert!(!self.kinds.is_empty(), "finish without a root value");
        let n = self.kinds.len();
        let total = self.closed.len();
        let mut child_start = Vec::with_capacity(n + 1);
        let mut children = Vec::with_capacity(total);
        let mut keys = Vec::with_capacity(total);
        let mut slots = vec![0u32; n];
        for i in 0..n {
            child_start.push(children.len() as u32);
            let (off, len) = self.closed_span[i];
            let span = &self.closed[off as usize..(off + len) as usize];
            for (slot, &(k, c)) in span.iter().enumerate() {
                children.push(NodeId(c));
                keys.push(k);
                slots[c as usize] = slot as u32;
            }
        }
        child_start.push(children.len() as u32);
        if n > RESERVE_NODES_MAX {
            self.kinds.shrink_to_fit();
            self.parents.shrink_to_fit();
            self.payload.shrink_to_fit();
        }
        JsonTree {
            kinds: self.kinds,
            parents: self.parents,
            slots,
            child_start,
            children,
            keys,
            payload: self.payload,
            height: self.height,
            interner: self.interner,
            canon: OnceLock::new(),
            horizon: OnceLock::new(),
        }
    }
}

impl JsonTree {
    /// Builds the tree representation of a JSON document, interning every
    /// object key and string leaf into the tree's symbol table.
    ///
    /// Construction replays the document in document order through the same
    /// `TreeBuilder` event core the fused parser drives, so
    /// `JsonTree::build(&parse(s)?)` and `parse_to_tree(s)` produce
    /// [`JsonTree::identical`] trees.
    pub fn build(doc: &Json) -> JsonTree {
        Self::build_into(doc, &Arc::default())
    }

    /// [`JsonTree::build`] interning on top of a `base` table — the batch
    /// loading form: each document is built from the previous tree's
    /// table, so every string keeps one [`Sym`] across the batch and
    /// symbols compare directly. The tree shares `base` when the document
    /// brings no new string; otherwise it holds an extended copy (cost
    /// `O(symbols)`, paid once, at the first new string).
    pub fn build_into(doc: &Json, base: &Arc<Interner>) -> JsonTree {
        let mut b = TreeBuilder::new(Arc::clone(base), 0);
        Self::feed(&mut b, doc);
        b.finish()
    }

    /// Replays `doc` into the builder as a document-order event stream.
    fn feed(b: &mut TreeBuilder, doc: &Json) {
        enum Ev<'a> {
            Val(&'a Json),
            Member(&'a str, &'a Json),
            EndObj,
            EndArr,
        }
        let mut stack: Vec<Ev<'_>> = vec![Ev::Val(doc)];
        while let Some(ev) = stack.pop() {
            let v = match ev {
                Ev::EndObj => {
                    b.end_object();
                    continue;
                }
                Ev::EndArr => {
                    b.end_array();
                    continue;
                }
                Ev::Member(k, v) => {
                    let fresh = b.object_key(k);
                    debug_assert!(fresh, "Json object keys are pairwise distinct");
                    v
                }
                Ev::Val(v) => v,
            };
            match v {
                Json::Num(n) => b.num(*n),
                Json::Str(s) => b.str_atom(s),
                Json::Array(items) => {
                    b.begin_array();
                    stack.push(Ev::EndArr);
                    for item in items.iter().rev() {
                        stack.push(Ev::Val(item));
                    }
                }
                Json::Object(o) => {
                    b.begin_object();
                    stack.push(Ev::EndObj);
                    for (k, v) in o.pairs().iter().rev() {
                        stack.push(Ev::Member(k, v));
                    }
                }
            }
        }
    }

    /// Merges subtrees taken from trees that all share one symbol
    /// assignment into a **single array-rooted tree**: the result's
    /// root is an array whose `i`-th element is a copy of `parts[i]`'s
    /// subtree. This is the segment-merge primitive of
    /// `mongofind::Collection::compact_tail` and `compact` — a run of
    /// segments replays into one tree so per-segment dispatch overhead
    /// (one JNL evaluation, one canonical-label table, one parallel task
    /// *per segment*) collapses to one.
    ///
    /// `base` must extend the table of every part tree (the parts were
    /// built through one lineage of tables), so every [`Sym`] in a part
    /// resolves to the same string in `base` and the replay copies
    /// symbols **without re-hashing a single string**. Replay interns
    /// nothing new, so the merged tree shares `base` itself.
    ///
    /// Replay emits each object's members in the stored symbol-sorted
    /// order, so node ids within the result are pre-order over that
    /// layout; `json_at` values are exactly the part values (object
    /// equality is unordered).
    pub fn concat_subtrees(parts: &[(&JsonTree, NodeId)], base: &Arc<Interner>) -> JsonTree {
        let mut b = TreeBuilder::new(Arc::clone(base), 0);
        b.begin_array();
        for &(tree, node) in parts {
            tree.replay_into(node, &mut b);
        }
        b.end_array();
        b.finish()
    }

    /// Replays the subtree at `n` into `b` as a document-order event
    /// stream, copying pre-resolved symbols (see
    /// [`JsonTree::concat_subtrees`] for the shared-interner contract).
    fn replay_into(&self, n: NodeId, b: &mut TreeBuilder) {
        enum Ev {
            Val(NodeId),
            Member(Sym, NodeId),
            EndObj,
            EndArr,
        }
        let mut stack: Vec<Ev> = vec![Ev::Val(n)];
        while let Some(ev) = stack.pop() {
            let v = match ev {
                Ev::EndObj => {
                    b.end_object();
                    continue;
                }
                Ev::EndArr => {
                    b.end_array();
                    continue;
                }
                Ev::Member(k, v) => {
                    let fresh = b.object_key_sym(k);
                    debug_assert!(fresh, "tree object keys are pairwise distinct");
                    v
                }
                Ev::Val(v) => v,
            };
            match self.kind(v) {
                NodeKind::Int => b.num(self.payload[v.index()]),
                NodeKind::Str => b.str_atom_sym(self.str_sym(v).expect("Str payload")),
                NodeKind::Arr => {
                    b.begin_array();
                    stack.push(Ev::EndArr);
                    for &c in self.arr_children(v).iter().rev() {
                        stack.push(Ev::Val(c));
                    }
                }
                NodeKind::Obj => {
                    b.begin_object();
                    stack.push(Ev::EndObj);
                    let span = self.span(v);
                    for i in span.rev() {
                        stack.push(Ev::Member(self.keys[i], self.children[i]));
                    }
                }
            }
        }
    }

    /// Structural identity of the arena representation: same node ids, CSR
    /// layout, payloads **and symbol table**. This is strictly finer than
    /// JSON value equality — two trees of unordered-equal documents parsed
    /// from differently-ordered texts intern in different orders and are
    /// *not* identical, while `to_json()` equality still holds. The
    /// parse-fusion differential suite asserts identity between the fused
    /// and two-pass constructions of one text.
    pub fn identical(&self, other: &JsonTree) -> bool {
        self.kinds == other.kinds
            && self.parents == other.parents
            && self.slots == other.slots
            && self.child_start == other.child_start
            && self.children == other.children
            && self.keys == other.keys
            && self.payload == other.payload
            && self.interner == other.interner
    }

    /// The root node (always id 0).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes, `|J|`.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// The tree's canonical-label table: `class(n) == class(m)` iff
    /// `json(n) == json(m)` (Proposition 1's refinement). Built in one
    /// `O(|J|)` pass on the first call from any holder, then read by every
    /// later one — index maintenance, `$group` keys and the logic engines
    /// share it.
    pub fn canon(&self) -> &CanonTable {
        self.canon.get_or_init(|| CanonTable::build(self))
    }

    /// Builds the canonical-label table if it is absent; `true` iff this
    /// call built it (what a query's `canon_builds` counter records).
    pub fn ensure_canon(&self) -> bool {
        let mut built = false;
        self.canon.get_or_init(|| {
            built = true;
            CanonTable::build(self)
        });
        built
    }

    /// Whether the canonical-label table has been built.
    pub fn has_canon(&self) -> bool {
        self.canon.get().is_some()
    }

    /// The position of the first array child of the root whose subtree
    /// may use `sym` as a key or string atom: no earlier child does. Answers
    /// `arr_children(root()).len()` when no child uses `sym` or a symbol
    /// interned after it (and so 0 for a non-array root).
    ///
    /// A lookup is a binary search over the tree's horizon table, a sparse
    /// step list of `(child, 1 + largest symbol children 0..=child use)`
    /// with one step per growth of that running maximum, built in one
    /// `O(|J|)` pass on the first call and kept ([`JsonTree::ensure_horizon`]).
    /// The answer is the child where the running maximum first reaches
    /// `sym`. It is exact when the tree interned its strings in document
    /// order onto a table holding none of them (`parse_to_tree`,
    /// [`JsonTree::build`], and [`JsonTree::concat_subtrees`] of documents
    /// built in order along one table lineage), because a symbol is then
    /// first reached by the child that first uses it. Over a pre-populated
    /// table it is only a lower bound: a later symbol can appear first.
    pub fn first_child_using(&self, sym: Sym) -> usize {
        let steps = self.horizon();
        let at = steps.partition_point(|s| s.bound as usize <= sym.index());
        match steps.get(at) {
            Some(s) => s.child as usize,
            None => self.arr_children(self.root()).len(),
        }
    }

    /// Builds the horizon table if it is absent — how a collection pays
    /// for it once, where a multi-document segment is born, rather than in
    /// the first query that scans it.
    pub fn ensure_horizon(&self) {
        self.horizon();
    }

    fn horizon(&self) -> &[HorizonStep] {
        self.horizon.get_or_init(|| {
            let mut steps = Vec::new();
            let mut bound = 0u32;
            let kids = self.arr_children(self.root());
            for (child, &c) in kids.iter().enumerate() {
                // A subtree is one contiguous id block, ending where the
                // next array element's begins. Its strings are its string
                // leaves and its objects' keys, and an object's keys are
                // sorted, so its last key is its largest.
                let end = kids.get(child + 1).map_or(self.node_count(), |s| s.index());
                let used = (c.index()..end)
                    .filter_map(|i| match self.kinds[i] {
                        NodeKind::Str => Some(self.payload[i] as u32),
                        NodeKind::Obj => self
                            .obj_syms(NodeId(i as u32))
                            .last()
                            .map(|k| k.index() as u32),
                        _ => None,
                    })
                    .max();
                if let Some(top) = used.filter(|&top| top >= bound) {
                    bound = top + 1;
                    steps.push(HorizonStep {
                        child: child as u32,
                        bound,
                    });
                }
            }
            steps.into_boxed_slice()
        })
    }

    /// The tree's symbol table (object keys and string atoms), shared by
    /// reference with the trees built on it that added no string.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// The symbol of `key` in this tree, if any node's edge or string leaf
    /// uses it — the `O(1)` probe fronting symbol-based lookups.
    pub fn sym(&self, key: &str) -> Option<Sym> {
        self.interner.lookup(key)
    }

    /// The string a symbol of this tree stands for.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// Iterates over all node ids in pre-order (ascending, parents first).
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// Iterates node ids bottom-up (children before parents).
    pub fn bottom_up(&self) -> impl Iterator<Item = NodeId> {
        self.node_ids().rev()
    }

    /// The kind (partition) of a node.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// Number of nodes in the subtree rooted at `n`, which occupies the
    /// id block `n.index() .. n.index() + subtree_size(n)`.
    ///
    /// Node ids are pre-order, so the block ends just after its last
    /// node, found by stepping from `n` into the child with the largest id
    /// until a node has no children: `O(depth)` steps, each the last
    /// element of an array or the largest id among an object's children
    /// (stored symbol-sorted, not in id order).
    pub fn subtree_size(&self, n: NodeId) -> usize {
        let mut last = n;
        loop {
            let kids = &self.children[self.span(last)];
            let next = match self.kind(last) {
                NodeKind::Arr => kids.last(),
                _ => kids.iter().max(),
            };
            match next {
                Some(&c) => last = c,
                None => return last.index() + 1 - n.index(),
            }
        }
    }

    /// Height of the whole tree (a lone leaf has height 0).
    pub fn height(&self) -> usize {
        self.height as usize
    }

    /// The child span of `n` in the flattened arrays.
    fn span(&self, n: NodeId) -> std::ops::Range<usize> {
        self.child_start[n.index()] as usize..self.child_start[n.index() + 1] as usize
    }

    /// Key symbols of an object node's children, sorted by `Sym`; empty for
    /// non-objects.
    pub fn obj_syms(&self, n: NodeId) -> &[Sym] {
        match self.kind(n) {
            NodeKind::Obj => &self.keys[self.span(n)],
            _ => &[],
        }
    }

    /// Child ids of an object node (parallel to [`JsonTree::obj_syms`]);
    /// empty for non-objects.
    pub fn obj_child_ids(&self, n: NodeId) -> &[NodeId] {
        match self.kind(n) {
            NodeKind::Obj => &self.children[self.span(n)],
            _ => &[],
        }
    }

    /// Object children as `(key symbol, child)` pairs, sorted by symbol —
    /// the allocation-free form the logic engines iterate.
    pub fn obj_entries(&self, n: NodeId) -> impl Iterator<Item = (Sym, NodeId)> + '_ {
        self.obj_syms(n)
            .iter()
            .copied()
            .zip(self.obj_child_ids(n).iter().copied())
    }

    /// Object children as `(key, child)` pairs with resolved key strings
    /// (for display and reference-oracle paths; hot paths should use
    /// [`JsonTree::obj_entries`]).
    pub fn obj_children(&self, n: NodeId) -> impl Iterator<Item = (&str, NodeId)> + '_ {
        self.obj_entries(n)
            .map(|(s, c)| (self.interner.resolve(s), c))
    }

    /// Array children in positional order; empty for non-arrays.
    pub fn arr_children(&self, n: NodeId) -> &[NodeId] {
        match self.kind(n) {
            NodeKind::Arr => &self.children[self.span(n)],
            _ => &[],
        }
    }

    /// Number of children of `n` (0 for leaves).
    pub fn child_count(&self, n: NodeId) -> usize {
        self.span(n).len()
    }

    /// The `O` relation restricted to `n`: the child under key `key`.
    /// Determinism (§3.1 condition 2) makes this at most one node.
    ///
    /// An `O(1)` interner probe resolves the key to a symbol — a miss means
    /// no edge anywhere in the tree carries this key — then a binary search
    /// over the node's key symbols (`u32` compares, no string work) finds
    /// the child. The probe hashes `key`, so this is for one-off lookups: a
    /// query walking many rows resolves its keys to symbols once and calls
    /// [`JsonTree::child_by_sym`].
    pub fn child_by_key(&self, n: NodeId, key: &str) -> Option<NodeId> {
        self.child_by_sym(n, self.interner.lookup(key)?)
    }

    /// [`JsonTree::child_by_key`] for an already-resolved symbol — the
    /// per-row key step of query engines (no string work at all).
    pub fn child_by_sym(&self, n: NodeId, sym: Sym) -> Option<NodeId> {
        match self.kind(n) {
            NodeKind::Obj => {
                let span = self.span(n);
                let syms = &self.keys[span.clone()];
                syms.binary_search(&sym)
                    .ok()
                    .map(|i| self.children[span.start + i])
            }
            _ => None,
        }
    }

    /// The `A` relation restricted to `n`: the child at position `i`.
    pub fn child_by_index(&self, n: NodeId, i: usize) -> Option<NodeId> {
        self.arr_children(n).get(i).copied()
    }

    /// The child at a possibly negative position: `-1` is the last element,
    /// `-j` the j-th from the end (the paper's dual array operator).
    pub fn child_by_signed_index(&self, n: NodeId, i: i64) -> Option<NodeId> {
        let cs = self.arr_children(n);
        if self.kind(n) != NodeKind::Arr {
            return None;
        }
        let idx = if i >= 0 {
            i as usize
        } else {
            cs.len().checked_sub(i.unsigned_abs() as usize)?
        };
        cs.get(idx).copied()
    }

    /// Iterates over all children with their edge labels.
    pub fn children(&self, n: NodeId) -> ChildIter<'_> {
        ChildIter {
            tree: self,
            kind: self.kind(n),
            span: self.span(n),
            pos: 0,
        }
    }

    /// The parent of `n`, or `None` at the root.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        match self.parents[n.index()] {
            NO_PARENT => None,
            p => Some(NodeId(p)),
        }
    }

    /// The key symbol on the edge into `n`, if `n` is an object child — the
    /// `O(1)`, allocation-free edge label the logic engines test against.
    pub fn incoming_key_sym(&self, n: NodeId) -> Option<Sym> {
        let p = self.parent(n)?;
        match self.kind(p) {
            NodeKind::Obj => Some(
                self.keys[self.child_start[p.index()] as usize + self.slots[n.index()] as usize],
            ),
            _ => None,
        }
    }

    /// The position on the edge into `n`, if `n` is an array child.
    pub fn incoming_index(&self, n: NodeId) -> Option<u64> {
        let p = self.parent(n)?;
        match self.kind(p) {
            NodeKind::Arr => Some(self.slots[n.index()] as u64),
            _ => None,
        }
    }

    /// The label of the edge from the parent of `n` to `n`.
    pub fn edge_from_parent(&self, n: NodeId) -> Option<EdgeLabel<'_>> {
        let p = self.parent(n)?;
        Some(match self.kind(p) {
            NodeKind::Obj => EdgeLabel::Key(self.interner.resolve(
                self.keys[self.child_start[p.index()] as usize + self.slots[n.index()] as usize],
            )),
            NodeKind::Arr => EdgeLabel::Index(self.slots[n.index()] as usize),
            _ => unreachable!("leaves have no children"),
        })
    }

    /// The string value of a `Str` node.
    pub fn str_value(&self, n: NodeId) -> Option<&str> {
        self.str_sym(n).map(|s| self.interner.resolve(s))
    }

    /// The interned symbol of a `Str` node's value (string atoms share the
    /// key symbol table, so pattern tests can memoise per symbol).
    pub fn str_sym(&self, n: NodeId) -> Option<Sym> {
        match self.kind(n) {
            NodeKind::Str => Some(Sym::from_index(self.payload[n.index()] as usize)),
            _ => None,
        }
    }

    /// The numeric value of an `Int` node.
    pub fn num_value(&self, n: NodeId) -> Option<u64> {
        match self.kind(n) {
            NodeKind::Int => Some(self.payload[n.index()]),
            _ => None,
        }
    }

    /// The function `json(n)` of §3.1: the subtree rooted at `n`, which is
    /// again a valid JSON value (compositionality).
    ///
    /// One pre-order walk over the subtree builds every container straight
    /// into its exact-capacity vector, and every key and string atom
    /// straight from the symbol table's `&str` into a [`JStr`] (inline up
    /// to 22 bytes). An object's members come out in the stored symbol
    /// order with no duplicate check (tree keys are distinct by §3.1
    /// determinism); only an object of more than 8 keys gets a key index.
    /// The walk keeps its open containers on an explicit stack, held
    /// inline up to 16 deep, so document depth never becomes call-stack
    /// depth and a document no deeper than that allocates only what the
    /// returned value owns.
    #[inline]
    pub fn json_at(&self, n: NodeId) -> Json {
        match self.leaf_json(n) {
            Some(leaf) => leaf,
            None => self.container_json(n),
        }
    }

    /// [`JsonTree::json_at`] of a container: the walk.
    fn container_json(&self, n: NodeId) -> Json {
        let mut cur = self.open(n);
        let mut frames = Frames::default();
        loop {
            if cur.next < cur.end {
                let c = self.children[cur.next];
                cur.next += 1;
                match self.leaf_json(c) {
                    Some(leaf) => self.fill(&mut cur, leaf),
                    None => frames.push(std::mem::replace(&mut cur, self.open(c))),
                }
                continue;
            }
            let value = cur.open.close();
            match frames.pop() {
                Some(parent) => {
                    cur = parent;
                    self.fill(&mut cur, value);
                }
                None => return value,
            }
        }
    }

    /// `json(n)` of a leaf, or `None` for a container.
    #[inline]
    fn leaf_json(&self, n: NodeId) -> Option<Json> {
        match self.kind(n) {
            NodeKind::Int => Some(Json::Num(self.payload[n.index()])),
            NodeKind::Str => Some(Json::Str(self.resolve(self.str_sym(n)?).into())),
            NodeKind::Arr | NodeKind::Obj => None,
        }
    }

    /// A [`JsonTree::json_at`] frame for container `n`, sized to its
    /// children.
    fn open(&self, n: NodeId) -> Frame {
        let span = self.span(n);
        let open = match self.kind(n) {
            NodeKind::Obj => Open::Obj(Vec::with_capacity(span.len())),
            _ => Open::Arr(Vec::with_capacity(span.len())),
        };
        Frame {
            next: span.start,
            end: span.end,
            open,
        }
    }

    /// Appends the value of `frame`'s most recently visited child.
    fn fill(&self, frame: &mut Frame, value: Json) {
        match &mut frame.open {
            Open::Arr(items) => items.push(value),
            Open::Obj(pairs) => {
                let key = self.resolve(self.keys[frame.next - 1]);
                pairs.push((key.into(), value));
            }
        }
    }

    /// The full document this tree represents.
    pub fn to_json(&self) -> Json {
        self.json_at(self.root())
    }

    /// The word in ℕ* addressing `n` in the tree domain (root = ε).
    /// Positions follow the §3.1 convention: a node's children are numbered
    /// `0..k` in the stored order (key-symbol-sorted for objects, positional
    /// for arrays).
    pub fn domain_word(&self, n: NodeId) -> Vec<usize> {
        let mut w = Vec::new();
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            w.push(self.slots[cur.index()] as usize);
            cur = p;
        }
        w.reverse();
        w
    }

    /// Human-readable path of `n` (e.g. `$."name"."first"` or `$."hobbies".1`).
    pub fn path_string(&self, n: NodeId) -> String {
        let mut parts = Vec::new();
        let mut cur = n;
        while let Some(label) = self.edge_from_parent(cur) {
            parts.push(label.to_string());
            cur = self.parent(cur).expect("edge implies parent");
        }
        parts.reverse();
        let mut out = String::from("$");
        for p in parts {
            out.push('.');
            out.push_str(&p);
        }
        out
    }
}

impl fmt::Debug for JsonTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JsonTree({} nodes, height {}, {} symbols)",
            self.node_count(),
            self.height(),
            self.interner.len()
        )
    }
}

/// Iterator over `(EdgeLabel, NodeId)` children of one node.
pub struct ChildIter<'a> {
    tree: &'a JsonTree,
    kind: NodeKind,
    span: std::ops::Range<usize>,
    pos: usize,
}

impl<'a> Iterator for ChildIter<'a> {
    type Item = (EdgeLabel<'a>, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        let i = self.span.start + self.pos;
        if i >= self.span.end {
            return None;
        }
        let out = match self.kind {
            NodeKind::Obj => (
                EdgeLabel::Key(self.tree.interner.resolve(self.tree.keys[i])),
                self.tree.children[i],
            ),
            NodeKind::Arr => (EdgeLabel::Index(self.pos), self.tree.children[i]),
            _ => return None,
        };
        self.pos += 1;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.span.len().saturating_sub(self.pos);
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn figure1() -> Json {
        parse(
            r#"{
                "name": {"first": "John", "last": "Doe"},
                "age": 32,
                "hobbies": ["fishing", "yoga"]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn build_figure1() {
        let t = JsonTree::build(&figure1());
        assert_eq!(t.node_count(), 8);
        assert_eq!(t.height(), 2);
        let root = t.root();
        assert_eq!(t.kind(root), NodeKind::Obj);
        assert_eq!(t.child_count(root), 3);

        let name = t.child_by_key(root, "name").unwrap();
        assert_eq!(t.kind(name), NodeKind::Obj);
        let first = t.child_by_key(name, "first").unwrap();
        assert_eq!(t.str_value(first), Some("John"));

        let age = t.child_by_key(root, "age").unwrap();
        assert_eq!(t.num_value(age), Some(32));

        let hobbies = t.child_by_key(root, "hobbies").unwrap();
        assert_eq!(t.kind(hobbies), NodeKind::Arr);
        let yoga = t.child_by_index(hobbies, 1).unwrap();
        assert_eq!(t.str_value(yoga), Some("yoga"));
        assert_eq!(t.child_by_index(hobbies, 2), None);
    }

    #[test]
    fn interner_probes_and_symbol_lookups() {
        let t = JsonTree::build(&figure1());
        // Every key and string atom is interned; an absent key misses in
        // O(1) without touching nodes.
        assert_eq!(t.sym("no-such-key"), None);
        assert_eq!(t.child_by_key(t.root(), "no-such-key"), None);
        let name_sym = t.sym("name").expect("interned");
        assert_eq!(t.resolve(name_sym), "name");
        let name = t.child_by_sym(t.root(), name_sym).unwrap();
        assert_eq!(t.child_by_key(t.root(), "name"), Some(name));
        // String atoms share the table.
        let yoga = t
            .child_by_index(t.child_by_key(t.root(), "hobbies").unwrap(), 1)
            .unwrap();
        assert_eq!(t.resolve(t.str_sym(yoga).unwrap()), "yoga");
        // A string-leaf symbol is not a key of any object.
        assert_eq!(t.child_by_sym(t.root(), t.str_sym(yoga).unwrap()), None);
    }

    #[test]
    fn incoming_edge_symbols() {
        let t = JsonTree::build(&figure1());
        let name = t.child_by_key(t.root(), "name").unwrap();
        assert_eq!(t.incoming_key_sym(name), t.sym("name"));
        assert_eq!(t.incoming_index(name), None);
        let hobbies = t.child_by_key(t.root(), "hobbies").unwrap();
        let yoga = t.child_by_index(hobbies, 1).unwrap();
        assert_eq!(t.incoming_key_sym(yoga), None);
        assert_eq!(t.incoming_index(yoga), Some(1));
        assert_eq!(t.incoming_key_sym(t.root()), None);
        assert_eq!(t.incoming_index(t.root()), None);
    }

    #[test]
    fn obj_entries_are_sym_sorted_and_match_resolved_children() {
        let t = JsonTree::build(&parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap());
        let syms = t.obj_syms(t.root());
        assert_eq!(syms.len(), 3);
        assert!(syms.windows(2).all(|w| w[0] < w[1]), "sorted by Sym");
        let resolved: Vec<(&str, NodeId)> = t.obj_children(t.root()).collect();
        let entries: Vec<(Sym, NodeId)> = t.obj_entries(t.root()).collect();
        for ((k, c1), (s, c2)) in resolved.iter().zip(entries) {
            assert_eq!(*c1, c2);
            assert_eq!(*k, t.resolve(s));
        }
    }

    #[test]
    fn preorder_ids_nest() {
        let t = JsonTree::build(&figure1());
        for n in t.node_ids() {
            for (_, c) in t.children(n) {
                assert!(c > n, "child id must exceed parent id");
                assert_eq!(t.parent(c), Some(n));
            }
        }
    }

    #[test]
    fn subtree_is_contiguous_block() {
        let t = JsonTree::build(&figure1());
        for n in t.node_ids() {
            let lo = n.index();
            let hi = lo + t.subtree_size(n);
            // All and only ids in [lo, hi) are in the subtree of n.
            for m in t.node_ids() {
                let mut anc = Some(m);
                let mut inside = false;
                while let Some(a) = anc {
                    if a == n {
                        inside = true;
                        break;
                    }
                    anc = t.parent(a);
                }
                assert_eq!(inside, (lo..hi).contains(&m.index()));
            }
        }
    }

    #[test]
    fn json_at_reconstructs_each_subtree() {
        // §3.1: the five subtrees of the running example are the five JSON
        // values of the document (here: Figure 1 variant with 8 values).
        let doc = figure1();
        let t = JsonTree::build(&doc);
        assert_eq!(t.to_json(), doc);
        let name = t.child_by_key(t.root(), "name").unwrap();
        assert_eq!(
            t.json_at(name),
            parse(r#"{"first":"John","last":"Doe"}"#).unwrap()
        );
        let hobbies = t.child_by_key(t.root(), "hobbies").unwrap();
        assert_eq!(t.json_at(hobbies), parse(r#"["fishing","yoga"]"#).unwrap());
    }

    #[test]
    fn json_at_of_every_node_is_the_value_at_its_path() {
        for seed in 0..40u64 {
            let doc = crate::gen::random_json(&crate::gen::GenConfig::sized(seed, 60));
            let t = JsonTree::build(&doc);
            for n in t.node_ids() {
                let mut labels = Vec::new();
                let mut at = n;
                while let Some(label) = t.edge_from_parent(at) {
                    labels.push(label);
                    at = t.parent(at).unwrap();
                }
                let want = labels.iter().rev().fold(&doc, |v, label| match label {
                    EdgeLabel::Key(k) => v.get(k).unwrap(),
                    EdgeLabel::Index(i) => v.index(*i).unwrap(),
                });
                assert_eq!(&t.json_at(n), want, "seed {seed}, node {}", n.index());
            }
        }
    }

    #[test]
    fn json_at_lists_members_in_symbol_order_not_child_id_order() {
        // The first document interns "b" before "a"; the second lists "a"
        // first, so its children's ids run a, b while their symbols run
        // b, a. Both children are containers, so each closes into the
        // slot its own key names.
        let t = JsonTree::build(
            &parse(r#"[{"b": 1, "a": 2}, {"a": {"x": [1]}, "b": [2, {"y": 3}]}]"#).unwrap(),
        );
        let second = t.child_by_index(t.root(), 1).unwrap();
        let ids: Vec<NodeId> = t.obj_child_ids(second).to_vec();
        assert!(ids[0] > ids[1], "stored order differs from id order");
        let j = t.json_at(second);
        assert_eq!(
            j,
            parse(r#"{"a": {"x": [1]}, "b": [2, {"y": 3}]}"#).unwrap()
        );
        let keys: Vec<&str> = j.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(j.get("a"), Some(&parse(r#"{"x": [1]}"#).unwrap()));
    }

    #[test]
    fn json_at_walks_a_4096_deep_document_on_a_small_stack() {
        // Building, comparing and dropping nested values recurse (derived
        // glue), so they run on a big stack; `json_at` itself runs on
        // 64 KiB, which a walk whose frames grew with depth would
        // overflow long before 4,096 levels.
        std::thread::Builder::new()
            .stack_size(256 * 1024 * 1024)
            .spawn(|| {
                let mut doc = Json::Num(7);
                for i in 0..4096 {
                    doc = if i % 2 == 0 {
                        Json::object(vec![("c".into(), doc)]).unwrap()
                    } else {
                        Json::Array(vec![doc, Json::Num(i)])
                    };
                }
                let t = JsonTree::build(&doc);
                assert_eq!(t.height(), 4096);
                let j = std::thread::Builder::new()
                    .stack_size(64 * 1024)
                    .spawn(move || t.json_at(t.root()))
                    .unwrap()
                    .join()
                    .unwrap();
                assert_eq!(j, doc);
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn negative_indexing() {
        let t = JsonTree::build(&parse(r#"[10, 20, 30]"#).unwrap());
        let r = t.root();
        assert_eq!(
            t.num_value(t.child_by_signed_index(r, -1).unwrap()),
            Some(30)
        );
        assert_eq!(
            t.num_value(t.child_by_signed_index(r, -3).unwrap()),
            Some(10)
        );
        assert_eq!(t.child_by_signed_index(r, -4), None);
        assert_eq!(
            t.num_value(t.child_by_signed_index(r, 1).unwrap()),
            Some(20)
        );
    }

    #[test]
    fn edge_labels_and_paths() {
        let t = JsonTree::build(&figure1());
        let hobbies = t.child_by_key(t.root(), "hobbies").unwrap();
        let yoga = t.child_by_index(hobbies, 1).unwrap();
        assert_eq!(t.edge_from_parent(yoga), Some(EdgeLabel::Index(1)));
        assert_eq!(t.edge_from_parent(hobbies), Some(EdgeLabel::Key("hobbies")));
        assert_eq!(t.edge_from_parent(t.root()), None);
        assert_eq!(t.path_string(yoga), "$.\"hobbies\".1");
    }

    #[test]
    fn domain_words_are_prefix_closed() {
        let t = JsonTree::build(&figure1());
        let words: Vec<Vec<usize>> = t.node_ids().map(|n| t.domain_word(n)).collect();
        for w in &words {
            let mut prefix = w.clone();
            while prefix.pop().is_some() {
                assert!(words.contains(&prefix), "domain must be prefix-closed");
            }
        }
        // Sibling completeness: if n·i ∈ D then n·j ∈ D for all j < i.
        for w in &words {
            if let Some((&last, head)) = w.split_last() {
                for j in 0..last {
                    let mut sib = head.to_vec();
                    sib.push(j);
                    assert!(words.contains(&sib), "domain must contain smaller siblings");
                }
            }
        }
    }

    #[test]
    fn leaves_have_no_children() {
        let t = JsonTree::build(&figure1());
        for n in t.node_ids() {
            match t.kind(n) {
                NodeKind::Str | NodeKind::Int => {
                    assert_eq!(t.child_count(n), 0);
                    assert!(t.children(n).next().is_none());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 100k-deep chain exercised iteratively end to end. Run on a big
        // stack only because the compiler-generated drop glue for nested
        // enums is recursive; all library operations are iterative.
        std::thread::Builder::new()
            .stack_size(256 * 1024 * 1024)
            .spawn(|| {
                let mut j = Json::Num(0);
                for _ in 0..100_000 {
                    j = Json::object(vec![("c".into(), j)]).unwrap();
                }
                let t = JsonTree::build(&j);
                assert_eq!(t.node_count(), 100_001);
                assert_eq!(t.height(), 100_000);
                // One shared key: the interner collapses it to one symbol.
                assert_eq!(t.interner().len(), 1);
                assert_eq!(t.to_json(), j);
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn empty_containers() {
        let t = JsonTree::build(&parse(r#"{"e":{},"a":[]}"#).unwrap());
        let e = t.child_by_key(t.root(), "e").unwrap();
        let a = t.child_by_key(t.root(), "a").unwrap();
        assert_eq!(t.kind(e), NodeKind::Obj);
        assert_eq!(t.child_count(e), 0);
        assert_eq!(t.kind(a), NodeKind::Arr);
        assert_eq!(t.subtree_size(e), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.json_at(a), Json::array([]));
    }

    #[test]
    fn concat_subtrees_merges_shared_interner_parts() {
        // Three "segments", each built on the previous one's table, then
        // merged: values round-trip, symbols stay shared, nothing new is
        // interned.
        let mut shared = Arc::default();
        let docs = [
            parse(r#"{"name": {"first": "Sue"}, "age": 28}"#).unwrap(),
            parse(r#"{"name": {"first": "John"}, "tags": ["a", "Sue"]}"#).unwrap(),
            parse(r#"[1, 2]"#).unwrap(),
        ];
        let segs: Vec<JsonTree> = docs
            .iter()
            .map(|d| {
                let t = JsonTree::build_into(d, &shared);
                shared = Arc::clone(t.interner());
                t
            })
            .collect();
        // The number-only third document brought no string: it shares the
        // second segment's table.
        assert!(Arc::ptr_eq(segs[1].interner(), segs[2].interner()));
        let before = shared.len();
        let parts: Vec<(&JsonTree, NodeId)> = segs.iter().map(|t| (t, t.root())).collect();
        let merged = JsonTree::concat_subtrees(&parts, &shared);
        assert_eq!(
            merged.interner().len(),
            before,
            "replay interns nothing new"
        );
        assert!(
            Arc::ptr_eq(merged.interner(), &shared),
            "so it shares the base"
        );
        assert_eq!(merged.kind(merged.root()), NodeKind::Arr);
        assert_eq!(merged.child_count(merged.root()), 3);
        for (i, d) in docs.iter().enumerate() {
            let c = merged.child_by_index(merged.root(), i).unwrap();
            assert_eq!(&merged.json_at(c), d);
        }
        // Symbols are the shared assignment: a key interned by segment 0
        // carries the same Sym in the merged tree.
        assert_eq!(merged.sym("name"), segs[0].sym("name"));
        // And the merged tree's invariants hold (sorted spans, pre-order).
        for n in merged.node_ids() {
            for (_, c) in merged.children(n) {
                assert!(c > n);
                assert_eq!(merged.parent(c), Some(n));
            }
            let syms = merged.obj_syms(n);
            assert!(syms.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn concat_subtrees_of_nothing_is_an_empty_array() {
        let merged = JsonTree::concat_subtrees(&[], &Arc::default());
        assert_eq!(merged.to_json(), Json::array([]));
    }

    #[test]
    fn concat_subtrees_can_lift_inner_nodes() {
        // Parts need not be roots: any node of a shared-interner tree works.
        let doc = parse(r#"{"a": {"x": 1}, "b": [7, 2]}"#).unwrap();
        let t = JsonTree::build(&doc);
        let a = t.child_by_key(t.root(), "a").unwrap();
        let b = t.child_by_key(t.root(), "b").unwrap();
        let merged = JsonTree::concat_subtrees(&[(&t, b), (&t, a)], t.interner());
        assert_eq!(merged.to_json(), parse(r#"[[7, 2], {"x": 1}]"#).unwrap());
    }

    #[test]
    fn child_iter_size_hint() {
        let t = JsonTree::build(&parse(r#"[1,2,3,4]"#).unwrap());
        let it = t.children(t.root());
        assert_eq!(it.size_hint(), (4, Some(4)));
        assert_eq!(t.children(t.root()).count(), 4);
    }

    /// Every key and string atom of `v`.
    fn strings_of(v: &Json, out: &mut FxHashSet<String>) {
        match v {
            Json::Str(s) => {
                out.insert(s.as_str().to_owned());
            }
            Json::Array(items) => items.iter().for_each(|x| strings_of(x, out)),
            Json::Object(o) => {
                for (k, x) in o.pairs() {
                    out.insert(k.as_str().to_owned());
                    strings_of(x, out);
                }
            }
            Json::Num(_) => {}
        }
    }

    /// Checks `first_child_using` for every symbol of `t` against the
    /// first root child whose value holds the symbol's string: never
    /// later, and the same child when `exact`.
    fn check_horizon(t: &JsonTree, exact: bool) {
        let kids: Vec<FxHashSet<String>> = t
            .arr_children(t.root())
            .iter()
            .map(|&c| {
                let mut set = FxHashSet::default();
                strings_of(&t.json_at(c), &mut set);
                set
            })
            .collect();
        for (sym, text) in t.interner().iter() {
            let first = kids
                .iter()
                .position(|k| k.contains(text))
                .unwrap_or(kids.len());
            let got = t.first_child_using(sym);
            assert!(got <= first, "{text:?}: {got} is after child {first}");
            if exact {
                assert_eq!(got, first, "{text:?}");
            }
        }
    }

    /// An array of small random documents; document `j` may bring its own
    /// key and string, and shares others with its neighbours.
    fn random_array(seed: u64) -> Json {
        let n = (seed % 12) as usize;
        Json::Array(
            (0..n)
                .map(|j| {
                    let mut cfg = crate::gen::GenConfig::sized(seed * 64 + j as u64, 12);
                    cfg.key_pool.push(format!("k{j}"));
                    cfg.string_pool
                        .extend([format!("v{j}"), format!("w{}", j % 3)]);
                    crate::gen::random_json(&cfg)
                })
                .collect(),
        )
    }

    #[test]
    fn first_child_using_finds_the_first_child_that_uses_a_symbol() {
        for seed in 0..40 {
            let doc = random_array(seed);
            check_horizon(
                &crate::parse::parse_to_tree(&doc.to_string()).unwrap(),
                true,
            );
            check_horizon(&JsonTree::build(&doc), true);
            // Documents built in order along one table lineage, then
            // concatenated onto the last table (what compaction does).
            let Json::Array(items) = &doc else {
                unreachable!("random_array returns an array")
            };
            let mut table = Arc::default();
            let parts: Vec<JsonTree> = items
                .iter()
                .map(|d| {
                    let t = JsonTree::build_into(d, &table);
                    table = Arc::clone(t.interner());
                    t
                })
                .collect();
            let refs: Vec<(&JsonTree, NodeId)> = parts.iter().map(|t| (t, t.root())).collect();
            check_horizon(&JsonTree::concat_subtrees(&refs, &table), true);
        }
    }

    #[test]
    fn first_child_using_over_a_pre_populated_table_is_a_lower_bound() {
        let mut table = Interner::new();
        for s in ["b", "a", "late"] {
            table.intern(s);
        }
        let doc = parse(r#"[{"a": 1}, {"b": "x"}, ["late"], 7]"#).unwrap();
        let t = JsonTree::build_into(&doc, &Arc::new(table));
        check_horizon(&t, false);
        let at = |s: &str| t.first_child_using(t.sym(s).unwrap());
        // "b" and "late" were interned before "a", which child 0 uses, so
        // the bound cannot rule child 0 (or child 1) out for them.
        assert_eq!((at("b"), at("a"), at("late"), at("x")), (0, 0, 1, 1));
        assert_eq!(t.first_child_using(Sym::from_index(4)), 4, "past the table");
        let leaf = JsonTree::build(&Json::str("solo"));
        assert_eq!(
            leaf.first_child_using(Sym::from_index(0)),
            0,
            "no array root"
        );
    }
}
