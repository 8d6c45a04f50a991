//! Secondary indexes over the segmented tree column.
//!
//! Two structures per declared path, both keyed through the collection's
//! interned substrate rather than re-materialised values, and a fence
//! in front of them:
//!
//! * a **hash index** on `(path, canon-class)` — per segment, the
//!   segment's own canonical-label table ([`JsonTree::canon`]) assigns
//!   every subtree a hash-consed class id, and the postings list each
//!   document whose path value lands in a class, sorted by class and then
//!   by ordinal, so one class's documents form one run found by binary
//!   search. `$eq` probes an external constant via
//!   [`jsondata::CanonTable::class_of_json`]; an un-interned constant is
//!   a *proof of absence* (no document can hold it), so the probe answers
//!   without touching a document. `$in` is a union of `$eq` probes.
//! * a **value fence** — per segment, the least and greatest number at
//!   the path. A number equals only a number node of the same value, so
//!   an `$eq` (or `$in` item) whose number lies outside a segment's fence
//!   is answered from the fence alone: the segment's canon table, class
//!   offsets and ordinals are not read. A point read by a key that grows
//!   with the ordinal (an `id`) thus reads one segment's postings however
//!   long the insert tail is (`segments_probed`).
//! * a **sorted column** — per segment, the `(ordinal, value-node)` pairs
//!   ordered by [`cmp_nodes`](crate::cmp_nodes) (the node-node twin of
//!   [`Json::total_cmp`]); `$gt`/`$gte`/`$lt`/`$lte` binary-search the
//!   boundary with [`cmp_node_json`](crate::cmp_node_json) and take a
//!   prefix/suffix. The column is also the substrate a future `$sort`
//!   pushdown reads runs from.
//!
//! All three are **per segment** and live in the [`Segment`] they index:
//! one [`Postings`] record holds them for every declared index,
//! and records ordinals *within* its segment, so it never depends on
//! where the segment sits in a column: a probe adds the segment's first
//! ordinal ([`Segment::first`]). [`Collection::insert`] builds the new
//! segment's record from its one document and touches no existing
//! posting; a merge ([`Collection::compact_tail`], [`Collection::compact`])
//! invalidates the node ids and classes of the segments it merges, so the
//! merged segment builds its record afresh, and the segments it leaves
//! keep theirs; a compacted clone adopts the segments its origin appended
//! meanwhile, records included ([`Collection::adopt_segment`]).
//!
//! Planning ([`IndexSet::plan`]) flattens a conjunctive filter and splits
//! it into an index-answerable prefix — `Compare(Eq|Gt|Gte|Lt|Lte)` and
//! positive `In` on indexed paths — plus a residual predicate. A lone
//! `$eq` probe reads its per-segment posting runs straight into the hit
//! list: each run is ascending and the segments are in ordinal order, so
//! their concatenation is already in `(segment, doc)` order. Any other
//! plan (intersections, `$in`, ranges) materialises one document-set
//! bitmap ([`jnl::bitset::BitSet`]) per probe and ANDs them in place.
//! The residual conjuncts, bound to the collection's table once per query
//! ([`Filter::bind`]), then run
//! [`BoundFilter::matches_at`](crate::BoundFilter::matches_at) only on the
//! hits. Missing-path semantics line up exactly: the filter dialect makes
//! `Compare`/positive-`In` false on an unresolvable path, and a document
//! without the path simply never enters a posting.
//!
//! [`Collection::find_refs_with_ctx`] plans once and executes this path
//! whenever a plan exists (that is what [`Collection::route_of`] reports
//! as [`Route::Index`](crate::Route::Index)). The document scan
//! ([`Collection::find_refs_via_scan_with_ctx`]) stays as the
//! differential oracle; `tests/index_differential.rs` sweeps layouts and
//! thread counts asserting byte-identical output.

use std::cmp::Ordering;
use std::sync::Arc;

use jguard::{QueryCtx, QueryError};
use jnl::bitset::BitSet;
use jsondata::{Interner, Json, JsonTree, NodeId, Sym};
use jtrace::{Counter, SpanKind};

use crate::{
    cmp_node_json, cmp_nodes, doc_count, doc_refs_at, step_node, table_of, Cmp, Collection, DocRef,
    Filter, Path, Segment,
};

/// The secondary indexes declared on one [`Collection`], in declaration
/// order, behind one [`Arc`] that every clone of the collection shares.
/// Empty (the default) until [`Collection::create_index`] declares a
/// path; an empty set costs nothing on insert.
///
/// The set holds no postings: each [`Segment`] carries its own postings
/// record for every declared index, built with the segment and
/// immutable afterwards. The hash side classes values through each
/// segment's own canonical-label table ([`JsonTree::canon`]), so the
/// index stores no table of its own. Cloning an `IndexSet` — which
/// `Collection::clone` does for every snapshot — is one reference bump.
#[derive(Default, Clone)]
pub struct IndexSet {
    defs: Arc<[IndexDef]>,
}

/// One declared index.
#[derive(Clone)]
struct IndexDef {
    /// The declared path, as written (`"name.first"`).
    name: String,
    path: Path,
}

/// The postings of one segment for every declared index, fences
/// included, in one record of three allocations whatever the segment's
/// size or the number of indexes. Each index lists one entry per segment document whose path
/// resolves, keyed by the document's ordinal within the segment; index
/// `i`'s entries are `starts[i * (c + 1)]..starts[i * (c + 1) + c]` of
/// both lists, where `c` is the segment tree's
/// [`class_count`](jsondata::CanonTable::class_count).
#[derive(Default, Clone)]
pub(crate) struct Postings {
    /// Per index, `c + 1` offsets into `ords`: canon class `k`'s run is
    /// `starts[i * (c + 1) + k]..starts[i * (c + 1) + k + 1]` (the hash
    /// side, answered without hashing). Then, from the end backwards,
    /// each index's value fence ([`Postings::fence`]), four words an
    /// index, so that index `i`'s is found from the slice's length alone.
    /// Empty when no index is declared.
    starts: Box<[u32]>,
    /// Ordinals grouped by class, ascending within each class.
    ords: Box<[u32]>,
    /// `(ordinal, resolved value node)` ordered by [`cmp_nodes`] then
    /// ordinal (the sorted column). Storing the value node means range
    /// probes never re-resolve the path.
    sorted: Box<[(u32, NodeId)]>,
}

/// One index-answerable conjunct, referencing the filter it came from.
pub(crate) enum Probe<'f> {
    /// `$eq` constant.
    Eq(&'f Json),
    /// Positive `$in` list (union of `Eq` probes).
    In(&'f [Json]),
    /// `$gt`/`$gte`/`$lt`/`$lte` boundary.
    Range(Cmp, &'f Json),
}

/// The planning split of a conjunctive filter: probes against declared
/// indexes plus the residual conjuncts evaluated on surviving docs only.
/// `pub(crate)` so the explain module can describe the exact split the
/// executor would run.
pub(crate) struct IndexPlan<'f> {
    /// `(position in the declarations, probe)` pairs.
    pub(crate) probes: Vec<(usize, Probe<'f>)>,
    /// Conjuncts the indexes cannot answer; empty means the probes are
    /// exact.
    pub(crate) residual: Vec<&'f Filter>,
}

impl IndexSet {
    /// The declared paths, in declaration order.
    pub fn declared(&self) -> impl Iterator<Item = &str> {
        self.defs.iter().map(|d| d.name.as_str())
    }

    /// Whether `self` and `other` are the same declarations (one is a
    /// clone of the other, with no index declared on either since).
    pub(crate) fn same(&self, other: &IndexSet) -> bool {
        Arc::ptr_eq(&self.defs, &other.defs)
    }

    /// Position of the index on `path`, if declared.
    fn position(&self, path: &Path) -> Option<usize> {
        self.defs.iter().position(|d| d.path == *path)
    }

    /// The declared path name of the index at position `i` (the plan's
    /// probe positions resolve through this for `EXPLAIN` rendering).
    pub(crate) fn path_name(&self, i: usize) -> &str {
        &self.defs[i].name
    }

    /// Declares an index on `path_str`, last. Returns `false` (and
    /// changes nothing) if already declared; the caller then adds its
    /// postings to every segment.
    fn declare(&mut self, path_str: &str) -> bool {
        if self.defs.iter().any(|d| d.name == path_str) {
            return false;
        }
        let mut defs = self.defs.to_vec();
        defs.push(IndexDef {
            name: path_str.to_owned(),
            path: Path::parse(path_str),
        });
        self.defs = defs.into();
        true
    }

    /// The postings of every declared index over the documents of `seg`.
    /// For an insert segment this is one document, so an insert builds
    /// one record from its own document alone.
    pub(crate) fn postings(&self, seg: &Segment) -> Postings {
        Postings::build(&self.defs, seg)
    }

    /// Splits a conjunctive filter into index probes + residual. `None`
    /// when nothing is index-answerable (callers fall back to the scan),
    /// at once when no index is declared. Top-level `And`s are flattened
    /// through nesting; any other top-level shape is treated as a
    /// one-conjunct conjunction.
    pub(crate) fn plan<'f>(&self, filter: &'f Filter) -> Option<IndexPlan<'f>> {
        if self.defs.is_empty() {
            return None;
        }
        let mut probes = Vec::new();
        let mut residual = Vec::new();
        let mut stack: Vec<&'f Filter> = vec![filter];
        while let Some(f) = stack.pop() {
            match f {
                Filter::And(fs) => stack.extend(fs.iter()),
                Filter::Compare(p, Cmp::Eq, v) => match self.position(p) {
                    Some(i) => probes.push((i, Probe::Eq(v))),
                    None => residual.push(f),
                },
                Filter::Compare(p, cmp @ (Cmp::Gt | Cmp::Gte | Cmp::Lt | Cmp::Lte), v) => {
                    match self.position(p) {
                        Some(i) => probes.push((i, Probe::Range(*cmp, v))),
                        None => residual.push(f),
                    }
                }
                Filter::In(p, items, true) => match self.position(p) {
                    Some(i) => probes.push((i, Probe::In(items))),
                    None => residual.push(f),
                },
                other => residual.push(other),
            }
        }
        if probes.is_empty() {
            return None;
        }
        Some(IndexPlan { probes, residual })
    }

    /// Runs one probe of the index at `pi`, inserting every matching
    /// document ordinal into `out`, and returns the number of segments
    /// whose postings it read past their fences. An `$eq` or `$in`
    /// constant is bound to the column's table once, not once per
    /// segment.
    fn probe_into(
        pi: usize,
        probe: &Probe<'_>,
        segments: &[Arc<Segment>],
        out: &mut BitSet,
    ) -> usize {
        let table = table_of(segments);
        let mut eq = |v: &Json| {
            let key = Key::bind(v, table);
            let mut probed = 0;
            for seg in segments {
                if let Some(run) = seg.postings.eq_run(pi, seg, &key) {
                    probed += 1;
                    for &o in run {
                        out.insert(seg.first + o as usize);
                    }
                }
            }
            probed
        };
        match probe {
            Probe::Eq(v) => eq(v),
            Probe::In(items) => {
                for v in items.iter() {
                    eq(v);
                }
                // A segment counts once, however many items it admits.
                let admits = |seg: &Segment, v: &Json| match v {
                    Json::Num(n) => seg.postings.admits(pi, *n),
                    _ => true,
                };
                segments
                    .iter()
                    .filter(|seg| items.iter().any(|v| admits(seg, v)))
                    .count()
            }
            Probe::Range(cmp, v) => {
                for seg in segments {
                    for &(o, _) in seg.postings.range_run(pi, seg, *cmp, v) {
                        out.insert(seg.first + o as usize);
                    }
                }
                segments.len()
            }
        }
    }

    /// Executes a plan. A lone `$eq` probe concatenates its posting runs
    /// into the hit list (charged to the byte budget); any other plan
    /// builds one bitmap per probe (each charged before it is built) and
    /// intersects them in place, stopping early on an empty one. The
    /// residual conjuncts — bound to the column's table once — then run
    /// on the hits only (ctx polled per document, survivors charged to
    /// the row budget). Output is in ascending ordinal — i.e. `(segment,
    /// doc)` — order, identical to the scan oracle.
    pub(crate) fn execute(
        &self,
        plan: &IndexPlan<'_>,
        segments: &[Arc<Segment>],
        ctx: &QueryCtx,
    ) -> Result<Vec<DocRef>, QueryError> {
        let mut hits = match plan.probes.as_slice() {
            [(pi, Probe::Eq(v))] => {
                ctx.record(Counter::IndexProbes, 1);
                ctx.span_open(SpanKind::Probe, 0);
                let key = Key::bind(v, table_of(segments));
                let mut probed = 0;
                let hits: Vec<DocRef> = (0u32..)
                    .zip(segments)
                    .filter_map(|(s, seg)| Some((s, seg, seg.postings.eq_run(*pi, seg, &key)?)))
                    .inspect(|_| probed += 1)
                    .flat_map(|(s, seg, run)| {
                        run.iter().map(move |&o| DocRef {
                            seg: s,
                            node: seg.doc(o as usize),
                        })
                    })
                    .collect();
                ctx.record(Counter::SegmentsProbed, probed);
                ctx.span_close(SpanKind::Probe, 0);
                ctx.charge_bytes(std::mem::size_of_val(hits.as_slice()) as u64)?;
                hits
            }
            probes => {
                let acc = Self::intersect(probes, segments, ctx)?;
                doc_refs_at(segments, acc.iter()).collect()
            }
        };
        let table = table_of(segments);
        let residual: Vec<_> = plan.residual.iter().map(|f| f.bind(table)).collect();
        let mut poll = ctx.poller();
        let mut kept = 0;
        for i in 0..hits.len() {
            poll.tick()?;
            let d = hits[i];
            if residual
                .iter()
                .all(|f| f.matches_at(&segments[d.seg as usize], d.node))
            {
                hits[kept] = d;
                kept += 1;
            }
        }
        if !residual.is_empty() {
            ctx.record(Counter::ResidualEvals, hits.len() as u64);
        }
        hits.truncate(kept);
        ctx.charge_rows(kept as u64)?;
        Ok(hits)
    }

    /// The bitmap side of [`IndexSet::execute`]: one document-set bitmap
    /// per probe (byte budget charged per bitmap), ANDed in place with
    /// early exit on empty.
    fn intersect(
        probes: &[(usize, Probe<'_>)],
        segments: &[Arc<Segment>],
        ctx: &QueryCtx,
    ) -> Result<BitSet, QueryError> {
        let n = doc_count(segments);
        let bitmap_bytes = (n.div_ceil(64) * 8) as u64;
        let mut acc: Option<BitSet> = None;
        for (ordinal, (pi, probe)) in probes.iter().enumerate() {
            ctx.charge_bytes(bitmap_bytes)?;
            // One probe answers the conjunct across *all* segments, so the
            // count is layout-invariant (same total before/after compact).
            ctx.record(Counter::IndexProbes, 1);
            ctx.span_open(SpanKind::Probe, ordinal as u32);
            let mut bm = BitSet::new(n);
            let probed = Self::probe_into(*pi, probe, segments, &mut bm);
            ctx.record(Counter::SegmentsProbed, probed as u64);
            ctx.span_close(SpanKind::Probe, ordinal as u32);
            match &mut acc {
                None => acc = Some(bm),
                Some(a) => {
                    ctx.record(Counter::BitmapIntersections, 1);
                    a.intersect_with(&bm);
                }
            }
            if acc.as_ref().expect("just set").is_empty() {
                break;
            }
        }
        Ok(acc.expect("plan holds at least one probe"))
    }
}

/// An `$eq` constant bound to a column's table once per probe: a string
/// by its symbol, a number by its value, a container as itself.
enum Key<'v> {
    /// A string constant's symbol in the column's table; `None` when the
    /// table lacks the string, which then equals no node.
    Sym(Option<Sym>),
    /// A number constant, tested against each segment's fence first.
    Num(u64),
    /// An array or object constant, classed per segment.
    Value(&'v Json),
}

impl<'v> Key<'v> {
    fn bind(v: &'v Json, table: &Interner) -> Key<'v> {
        match v {
            Json::Str(s) => Key::Sym(table.lookup(s)),
            Json::Num(n) => Key::Num(*n),
            _ => Key::Value(v),
        }
    }
}

/// Words of one index's fence at the end of [`Postings::starts`]: the
/// least and the greatest number, each as its low and high half.
const FENCE_WORDS: usize = 4;

/// The fence of a segment none of whose values at an indexed path is a
/// number: empty, since its least bound exceeds its greatest.
const NO_NUMBERS: (u64, u64) = (u64::MAX, 0);

impl Postings {
    /// The postings of `defs` over the documents of `seg`, whose
    /// positions in the segment are their ordinals. Each path is bound to
    /// the segment's own table: a string the table lacks is in none of
    /// its documents.
    fn build(defs: &[IndexDef], seg: &Segment) -> Postings {
        if defs.is_empty() {
            return Postings::default();
        }
        let tree = seg.tree();
        let table = tree.interner();
        let mut steps = Vec::with_capacity(defs.iter().map(|d| d.path.0.len()).sum());
        for d in defs.iter() {
            steps.extend(d.path.steps(table));
        }
        let canon = tree.canon();
        let classes = canon.class_count();
        let docs = seg.len();
        let cap = defs.len() * docs;
        let mut starts = vec![0u32; defs.len() * (classes + 1 + FENCE_WORDS)];
        let (offsets, fences) = starts.split_at_mut(defs.len() * (classes + 1));
        let mut ords = Vec::with_capacity(cap);
        let mut sorted = Vec::with_capacity(cap);
        let mut rest = steps.as_slice();
        let per_index = offsets.chunks_exact_mut(classes + 1);
        let fences = fences.chunks_exact_mut(FENCE_WORDS).rev();
        for ((d, starts), fence) in defs.iter().zip(per_index).zip(fences) {
            let (path, tail) = rest.split_at(d.path.0.len());
            rest = tail;
            let first = sorted.len();
            let (mut lo, mut hi) = NO_NUMBERS;
            for ord in 0..docs {
                let doc = seg.doc(ord);
                if let Some(v) = path.iter().try_fold(doc, |at, s| step_node(tree, at, s)) {
                    if let Some(n) = tree.num_value(v) {
                        (lo, hi) = (lo.min(n), hi.max(n));
                    }
                    sorted.push((ord as u32, v));
                }
            }
            fence.copy_from_slice(&[lo as u32, (lo >> 32) as u32, hi as u32, (hi >> 32) as u32]);
            // A counting sort by class: each class's end offset, then
            // every entry placed from the back, so that the offsets end
            // at each class's start and ordinals ascend within a class.
            let entries = &sorted[first..];
            for &(_, v) in entries {
                starts[canon.class_of(v) as usize] += 1;
            }
            let mut end = first as u32;
            for s in starts.iter_mut() {
                end += *s;
                *s = end;
            }
            ords.resize(sorted.len(), 0);
            for &(ord, v) in entries.iter().rev() {
                let s = &mut starts[canon.class_of(v) as usize];
                *s -= 1;
                ords[*s as usize] = ord;
            }
            // Ordinal tiebreak keeps the column deterministic across
            // rebuilds.
            sorted[first..]
                .sort_by(|&(oa, na), &(ob, nb)| cmp_nodes(tree, na, tree, nb).then(oa.cmp(&ob)));
        }
        Postings {
            starts: starts.into(),
            ords: ords.into(),
            sorted: sorted.into(),
        }
    }

    /// `self`'s indexes followed by `more`'s, over the same segment of
    /// `classes` canon classes: the offsets of both, then the fences of
    /// both, `more`'s nearer the front as the fences run backwards.
    fn append(&self, more: &Postings, classes: usize) -> Postings {
        let (offsets, fences) = self.split(classes);
        let (more_offsets, more_fences) = more.split(classes);
        let shift = self.ords.len() as u32;
        let moved = more_offsets.iter().map(|s| s + shift);
        Postings {
            starts: offsets
                .iter()
                .copied()
                .chain(moved)
                .chain(more_fences.iter().copied())
                .chain(fences.iter().copied())
                .collect(),
            ords: [&self.ords[..], &more.ords[..]].concat().into(),
            sorted: [&self.sorted[..], &more.sorted[..]].concat().into(),
        }
    }

    /// `starts` split into every index's class offsets and every index's
    /// fence, in a segment of `classes` canon classes.
    fn split(&self, classes: usize) -> (&[u32], &[u32]) {
        let indexes = self.starts.len() / (classes + 1 + FENCE_WORDS);
        self.starts.split_at(indexes * (classes + 1))
    }

    /// Index `i`'s class offsets in a segment of `classes` canon classes.
    fn starts(&self, i: usize, classes: usize) -> &[u32] {
        &self.starts[i * (classes + 1)..(i + 1) * (classes + 1)]
    }

    /// Index `i`'s fence: the least and the greatest number among the
    /// segment's values at its path ([`NO_NUMBERS`] when none is a
    /// number). It sits at the end of `starts`, so reading it needs
    /// neither the segment's class count nor its canon table.
    fn fence(&self, i: usize) -> (u64, u64) {
        let at = self.starts.len() - FENCE_WORDS * (i + 1);
        let w = |k: usize| u64::from(self.starts[at + k]);
        (w(0) | w(1) << 32, w(2) | w(3) << 32)
    }

    /// Whether index `i`'s fence admits the number `n`: `false` proves
    /// that no document of the segment has `n` at the path.
    fn admits(&self, i: usize, n: u64) -> bool {
        let (lo, hi) = self.fence(i);
        lo <= n && n <= hi
    }

    /// Index `i`'s ordinals whose value equals `key`, ascending, or
    /// `None` when the segment's fence rules a number constant out. A
    /// number equals only a number node of the same value, so a constant
    /// outside the fence is answered from the fence alone, before the
    /// segment's canon table, class offsets or ordinals are read.
    /// Otherwise the constant is classed into the segment's canon table
    /// and that class's run read. A string's symbol is comparable in
    /// every segment of the column, and a segment whose table stops
    /// before it holds no node carrying it. A constant that is not a
    /// subtree of the segment ([`jsondata::CanonTable::class_of_json`]
    /// → `None`) is an absence proof — the run is empty, but read.
    fn eq_run(&self, i: usize, tree: &JsonTree, key: &Key<'_>) -> Option<&[u32]> {
        if let Key::Num(n) = *key {
            if !self.admits(i, n) {
                return None;
            }
        }
        let canon = tree.canon();
        let class = match *key {
            Key::Sym(Some(sym)) if sym.index() < tree.interner().len() => canon.class_of_str(sym),
            Key::Sym(_) => None,
            Key::Num(n) => canon.class_of_num(n),
            Key::Value(v) => canon.class_of_json(tree, v),
        };
        let Some(class) = class else {
            return Some(&[]);
        };
        let starts = self.starts(i, canon.class_count());
        let k = class as usize;
        Some(&self.ords[starts[k] as usize..starts[k + 1] as usize])
    }

    /// Index `i`'s range hits: binary-searches the sorted column boundary
    /// against the probe constant ([`cmp_node_json`] implements the same
    /// total order the column is sorted by — pinned by the order-property
    /// suite) and returns the matching prefix/suffix.
    fn range_run(&self, i: usize, tree: &JsonTree, cmp: Cmp, v: &Json) -> &[(u32, NodeId)] {
        let starts = self.starts(i, tree.canon().class_count());
        let s = &self.sorted[starts[0] as usize..starts[starts.len() - 1] as usize];
        let below = |ord: Ordering| s.partition_point(|&(_, n)| cmp_node_json(tree, n, v) < ord);
        match cmp {
            Cmp::Gt => &s[below(Ordering::Greater)..],
            Cmp::Gte => &s[below(Ordering::Equal)..],
            Cmp::Lt => &s[..below(Ordering::Equal)],
            Cmp::Lte => &s[..below(Ordering::Greater)],
            Cmp::Eq | Cmp::Ne => unreachable!("not a range probe"),
        }
    }
}

impl Collection {
    /// Declares a secondary index on the dotted path `path` (hash +
    /// sorted-column, see the module docs) and adds its postings to every
    /// segment's record. Subsequent [`Collection::insert`]s build each
    /// new segment's postings with it; a merge rebuilds them for the
    /// merged segment. Returns `false` if the path is already indexed.
    pub fn create_index(&mut self, path: &str) -> bool {
        if !self.indexes.declare(path) {
            return false;
        }
        let new = &self.indexes.defs[self.indexes.defs.len() - 1..];
        for seg in &mut self.segments {
            let seg = Arc::make_mut(seg);
            let more = Postings::build(new, seg);
            let classes = seg.tree().canon().class_count();
            seg.postings = seg.postings.append(&more, classes);
            seg.indexes = self.indexes.clone();
        }
        true
    }

    /// Whether a secondary index is declared on `path`.
    pub fn has_index(&self, path: &str) -> bool {
        self.indexes.declared().any(|p| p == path)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Collection, DocRef, Filter, Route};
    use jguard::QueryCtx;

    fn coll() -> Collection {
        Collection::parse_str(
            r#"[
                {"name": {"first": "Sue"}, "age": 28, "tags": ["a", "b"]},
                {"name": {"first": "John"}, "age": 32},
                {"name": {"first": "Ann"}, "age": 28},
                {"age": 99},
                {"name": {"first": "Sue"}, "age": 40}
            ]"#,
        )
        .unwrap()
    }

    fn f(src: &str) -> Filter {
        Filter::parse_str(src).unwrap()
    }

    fn routed(c: &Collection, q: &Filter) -> Vec<DocRef> {
        c.find_refs_with_ctx(q, &QueryCtx::unlimited()).unwrap()
    }

    fn scan(c: &Collection, q: &Filter) -> Vec<DocRef> {
        c.find_refs_via_scan_with_ctx(q, &QueryCtx::unlimited())
            .unwrap()
    }

    #[test]
    fn create_is_idempotent() {
        let mut c = coll();
        assert!(c.create_index("age"));
        assert!(!c.create_index("age"));
        assert!(c.has_index("age"));
        assert!(!c.has_index("name.first"));
    }

    #[test]
    fn eq_probe_matches_scan() {
        let mut c = coll();
        c.create_index("name.first");
        c.create_index("age");
        for src in [
            r#"{"name.first": "Sue"}"#,
            r#"{"age": {"$eq": 28}}"#,
            r#"{"name.first": "Sue", "age": {"$gte": 30}}"#,
            r#"{"age": {"$in": [28, 99]}}"#,
            r#"{"age": {"$gt": 28, "$lte": 99}}"#,
            r#"{"name.first": "Nobody"}"#,
            r#"{"age": {"$lt": 5}}"#,
        ] {
            let q = f(src);
            assert_eq!(c.route_of(&q), Route::Index, "{src}");
            assert_eq!(routed(&c, &q), scan(&c, &q), "{src}");
        }
    }

    #[test]
    fn residual_conjuncts_apply() {
        let mut c = coll();
        c.create_index("age");
        // "name.first" is not indexed: it must run as residual on the
        // probe survivors.
        let q = f(r#"{"age": 28, "name.first": "Ann"}"#);
        assert_eq!(c.route_of(&q), Route::Index);
        let hits = routed(&c, &q);
        assert_eq!(hits, scan(&c, &q));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn unanswerable_falls_back_to_scan() {
        let mut c = coll();
        c.create_index("age");
        for src in [
            r#"{"age": {"$ne": 28}}"#,
            r#"{"age": {"$nin": [28]}}"#,
            r#"{"$or": [{"age": 28}, {"age": 99}]}"#,
            r#"{"age": {"$exists": "true"}}"#,
        ] {
            let q = f(src);
            assert_eq!(c.route_of(&q), Route::Scan, "{src}");
            assert_eq!(routed(&c, &q), scan(&c, &q), "{src}");
        }
    }

    #[test]
    fn incremental_insert_and_compact_maintain_indexes() {
        let mut c = coll();
        c.create_index("age");
        c.insert(&jsondata::parse(r#"{"name": {"first": "Zoe"}, "age": 28}"#).unwrap());
        let q = f(r#"{"age": 28}"#);
        assert_eq!(routed(&c, &q).len(), 3);
        assert_eq!(routed(&c, &q), scan(&c, &q));
        c.compact();
        assert_eq!(routed(&c, &q), scan(&c, &q));
        assert_eq!(c.find(&q).len(), 3);
    }

    #[test]
    fn empty_collection_probes() {
        let mut c = Collection::parse_str("[]").unwrap();
        c.create_index("age");
        let q = f(r#"{"age": 28}"#);
        assert_eq!(c.route_of(&q), Route::Index);
        assert!(routed(&c, &q).is_empty());
    }

    #[test]
    fn governed_probe_charges_budgets() {
        use jguard::{QueryError, Resource};
        let mut c = coll();
        c.create_index("age");
        let q = f(r#"{"age": 28}"#);
        // A one-byte budget cannot pay for the probe's hit list.
        let ctx = QueryCtx::new().with_byte_budget(1);
        match c.find_refs_with_ctx(&q, &ctx) {
            Err(QueryError::BudgetExceeded {
                resource: Resource::Bytes,
            }) => {}
            other => panic!("expected byte-budget error, got {other:?}"),
        }
        // An ample budget answers normally.
        let ctx = QueryCtx::new().with_byte_budget(1 << 20);
        assert_eq!(c.find_refs_with_ctx(&q, &ctx).unwrap(), scan(&c, &q));
    }
}
