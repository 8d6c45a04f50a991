//! Secondary indexes over the segmented tree column.
//!
//! Two structures per declared path, both keyed through the collection's
//! interned substrate rather than re-materialised values:
//!
//! * a **hash index** on `(path, canon-class)` — per segment, the
//!   segment's own canonical-label table ([`JsonTree::canon`]) assigns
//!   every subtree a hash-consed class id, and the posting map sends each
//!   class to the ascending document ordinals whose path value lands in
//!   that class. `$eq` probes an external constant via
//!   [`jsondata::CanonTable::class_of_json`]; an un-interned constant is
//!   a *proof of absence* (no document can hold it), so the probe answers
//!   in O(1) without touching a document. `$in` is a union of `$eq` probes.
//! * a **sorted column** — per segment, the `(ordinal, value-node)` pairs
//!   ordered by [`cmp_nodes`](crate::cmp_nodes) (the node-node twin of
//!   [`Json::total_cmp`]); `$gt`/`$gte`/`$lt`/`$lte` binary-search the
//!   boundary with [`cmp_node_json`](crate::cmp_node_json) and take a
//!   prefix/suffix. The column is also the substrate a future `$sort`
//!   pushdown reads runs from.
//!
//! Both are **per-segment**: [`Collection::insert`] appends a single-doc
//! segment and [`IndexSet::add_segment`] extends every index incrementally
//! without touching existing postings; [`Collection::compact`] invalidates
//! all node ids and classes, so it rebuilds from scratch
//! ([`IndexSet::rebuild`]).
//!
//! Planning ([`IndexSet::plan`]) flattens a conjunctive filter and splits
//! it into an index-answerable prefix — `Compare(Eq|Gt|Gte|Lt|Lte)` and
//! positive `In` on indexed paths — plus a residual predicate. A lone
//! `$eq` probe reads its per-segment posting lists straight into the hit
//! list: each list is ascending and the segments are in ordinal order, so
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
use std::ops::Range;
use std::sync::Arc;

use jguard::{QueryCtx, QueryError};
use jnl::bitset::BitSet;
use jsondata::fxhash::FxHashMap;
use jsondata::{Json, JsonTree, NodeId};
use jtrace::{Counter, SpanKind};

use crate::{
    cmp_node_json, cmp_nodes, doc_count, doc_refs_at, table_of, Cmp, Collection, DocRef, Filter,
    Path,
};

/// All secondary indexes of one [`Collection`]. Empty (the default)
/// until [`Collection::create_index`] declares a path; an empty set costs
/// nothing on insert.
///
/// The hash side classes values through each segment's own
/// canonical-label table ([`JsonTree::canon`]), so the index stores no
/// table of its own. Per-segment postings are immutable once built (a
/// segment's contents never change; maintenance only *appends* new
/// per-segment entries), so they sit behind [`Arc`]s and cloning an
/// `IndexSet` — which `Collection::clone` does for every snapshot — is a
/// vector of reference bumps, never a posting rebuild.
#[derive(Default, Clone)]
pub struct IndexSet {
    /// One index per declared path, in declaration order.
    paths: Vec<PathIndex>,
}

/// One declared index: the dotted path and its per-segment postings.
#[derive(Clone)]
struct PathIndex {
    /// The declared path, as written (`"name.first"`).
    name: String,
    path: Path,
    /// Parallel to `Collection::segments`.
    segs: Vec<Arc<SegPosting>>,
}

/// The postings of one `(path, segment)` pair.
#[derive(Default)]
struct SegPosting {
    /// canon class → ascending global document ordinals (the hash side).
    eq: FxHashMap<u32, Vec<u32>>,
    /// `(global ordinal, resolved value node)` ordered by
    /// [`cmp_nodes`] then ordinal (the sorted column). Storing the value
    /// node means range probes never re-resolve the path.
    sorted: Vec<(u32, NodeId)>,
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
    /// `(position in IndexSet::paths, probe)` pairs.
    pub(crate) probes: Vec<(usize, Probe<'f>)>,
    /// Conjuncts the indexes cannot answer; empty means the probes are
    /// exact.
    pub(crate) residual: Vec<&'f Filter>,
}

/// Builds the postings of `path` for segments `first..` of the column,
/// filing the documents at `ordinals` (which must be exactly those
/// segments' documents) under their segments in one ordinal-order pass.
/// The path is bound to the column's table once.
fn build_postings(
    path: &Path,
    segments: &[Arc<JsonTree>],
    first: usize,
    ordinals: Range<usize>,
) -> Vec<Arc<SegPosting>> {
    let path = path.bind(table_of(segments));
    let mut out: Vec<SegPosting> = segments[first..]
        .iter()
        .map(|_| SegPosting::default())
        .collect();
    for (ord, d) in ordinals.clone().zip(doc_refs_at(segments, ordinals)) {
        let seg = d.seg as usize;
        if let Some(v) = path.resolve_node(&segments[seg], d.node) {
            let posting = &mut out[seg - first];
            let class = segments[seg].canon().class_of(v);
            posting.eq.entry(class).or_default().push(ord as u32);
            posting.sorted.push((ord as u32, v));
        }
    }
    out.into_iter()
        .zip(&segments[first..])
        .map(|(mut posting, tree)| {
            // Ordinal tiebreak keeps the column deterministic across
            // rebuilds.
            posting
                .sorted
                .sort_by(|&(oa, na), &(ob, nb)| cmp_nodes(tree, na, tree, nb).then(oa.cmp(&ob)));
            Arc::new(posting)
        })
        .collect()
}

impl IndexSet {
    /// The declared paths, in declaration order.
    pub fn declared(&self) -> impl Iterator<Item = &str> {
        self.paths.iter().map(|p| p.name.as_str())
    }

    /// Position of the index on `path`, if declared.
    fn position(&self, path: &Path) -> Option<usize> {
        self.paths.iter().position(|p| p.path == *path)
    }

    /// The declared path name of the index at position `i` (the plan's
    /// probe positions resolve through this for `EXPLAIN` rendering).
    pub(crate) fn path_name(&self, i: usize) -> &str {
        &self.paths[i].name
    }

    /// Declares an index on `path_str`, building it over the current
    /// column. Returns `false` (and changes nothing) if already declared.
    pub(crate) fn create(&mut self, path_str: &str, segments: &[Arc<JsonTree>]) -> bool {
        if self.paths.iter().any(|p| p.name == path_str) {
            return false;
        }
        let path = Path::parse(path_str);
        let segs = build_postings(&path, segments, 0, 0..doc_count(segments));
        self.paths.push(PathIndex {
            name: path_str.to_owned(),
            path,
            segs,
        });
        true
    }

    /// Incremental maintenance for [`Collection::insert`]: the new last
    /// segment of `segments`, holding the last document, gets one posting
    /// per declared index (building that segment's canon table on the
    /// way); existing postings are untouched. No-op while no index is
    /// declared.
    pub(crate) fn add_segment(&mut self, segments: &[Arc<JsonTree>]) {
        if self.paths.is_empty() {
            return;
        }
        let last = segments.len() - 1;
        let n = doc_count(segments);
        for pi in &mut self.paths {
            debug_assert_eq!(pi.segs.len(), last, "segments append one at a time");
            let posting = build_postings(&pi.path, segments, last, n - 1..n);
            pi.segs.extend(posting);
        }
    }

    /// Full rebuild for [`Collection::compact`]: node ids and canon
    /// classes are all invalidated by the segment merge, so every posting
    /// is reconstructed from the new column (whose trees carry their own,
    /// fresh canon tables).
    pub(crate) fn rebuild(&mut self, segments: &[Arc<JsonTree>]) {
        if self.paths.is_empty() {
            return;
        }
        let n = doc_count(segments);
        for pi in &mut self.paths {
            pi.segs = build_postings(&pi.path, segments, 0, 0..n);
        }
    }

    /// Splits a conjunctive filter into index probes + residual. `None`
    /// when nothing is index-answerable (callers fall back to the scan),
    /// at once when no index is declared. Top-level `And`s are flattened
    /// through nesting; any other top-level shape is treated as a
    /// one-conjunct conjunction.
    pub(crate) fn plan<'f>(&self, filter: &'f Filter) -> Option<IndexPlan<'f>> {
        if self.paths.is_empty() {
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
    /// document ordinal into `out`.
    fn probe_into(
        &self,
        pi: usize,
        probe: &Probe<'_>,
        segments: &[Arc<JsonTree>],
        out: &mut BitSet,
    ) {
        let index = &self.paths[pi];
        let insert = |out: &mut BitSet, ords: &[u32]| {
            for &o in ords {
                out.insert(o as usize);
            }
        };
        for (posting, tree) in index.segs.iter().zip(segments) {
            match probe {
                Probe::Eq(v) => insert(out, posting.eq_list(tree, v)),
                Probe::In(items) => {
                    for v in items.iter() {
                        insert(out, posting.eq_list(tree, v));
                    }
                }
                Probe::Range(cmp, v) => range_hits(posting, tree, *cmp, v, out),
            }
        }
    }

    /// Executes a plan. A lone `$eq` probe concatenates its posting lists
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
        segments: &[Arc<JsonTree>],
        ctx: &QueryCtx,
    ) -> Result<Vec<DocRef>, QueryError> {
        let mut hits = match plan.probes.as_slice() {
            [(pi, Probe::Eq(v))] => {
                ctx.record(Counter::IndexProbes, 1);
                ctx.span_open(SpanKind::Probe, 0);
                let ords = self.paths[*pi]
                    .segs
                    .iter()
                    .zip(segments)
                    .flat_map(|(posting, tree)| posting.eq_list(tree, v))
                    .map(|&o| o as usize);
                let hits: Vec<DocRef> = doc_refs_at(segments, ords).collect();
                ctx.span_close(SpanKind::Probe, 0);
                ctx.charge_bytes(std::mem::size_of_val(hits.as_slice()) as u64)?;
                hits
            }
            probes => {
                let acc = self.intersect(probes, segments, ctx)?;
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
        &self,
        probes: &[(usize, Probe<'_>)],
        segments: &[Arc<JsonTree>],
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
            self.probe_into(*pi, probe, segments, &mut bm);
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

impl SegPosting {
    /// The ascending ordinals whose value equals `v`: classes the external
    /// constant into the segment's canon table and reads the posting
    /// list. An un-interned constant
    /// ([`jsondata::CanonTable::class_of_json`] → `None`) is an absence
    /// proof — the list is empty.
    fn eq_list(&self, tree: &JsonTree, v: &Json) -> &[u32] {
        tree.canon()
            .class_of_json(tree, v)
            .and_then(|class| self.eq.get(&class))
            .map_or(&[], Vec::as_slice)
    }
}

/// Range hits of one posting: binary-searches the sorted column boundary
/// against the probe constant ([`cmp_node_json`] implements the same
/// total order the column is sorted by — pinned by the order-property
/// suite) and inserts the matching prefix/suffix.
fn range_hits(posting: &SegPosting, tree: &JsonTree, cmp: Cmp, v: &Json, out: &mut BitSet) {
    let s = &posting.sorted;
    let run = match cmp {
        Cmp::Gt => {
            &s[s.partition_point(|&(_, n)| cmp_node_json(tree, n, v) != Ordering::Greater)..]
        }
        Cmp::Gte => &s[s.partition_point(|&(_, n)| cmp_node_json(tree, n, v) == Ordering::Less)..],
        Cmp::Lt => &s[..s.partition_point(|&(_, n)| cmp_node_json(tree, n, v) == Ordering::Less)],
        Cmp::Lte => {
            &s[..s.partition_point(|&(_, n)| cmp_node_json(tree, n, v) != Ordering::Greater)]
        }
        Cmp::Eq | Cmp::Ne => unreachable!("not a range probe"),
    };
    for &(o, _) in run {
        out.insert(o as usize);
    }
}

impl Collection {
    /// Declares a secondary index on the dotted path `path` (hash +
    /// sorted-column, see the module docs), building it over the current
    /// column. Subsequent [`Collection::insert`]s maintain it
    /// incrementally; [`Collection::compact`] rebuilds it. Returns
    /// `false` if the path is already indexed.
    pub fn create_index(&mut self, path: &str) -> bool {
        self.indexes.create(path, &self.segments)
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
