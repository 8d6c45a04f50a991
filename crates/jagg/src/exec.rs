//! The tree-backed pipeline executor.
//!
//! ## Row representation
//!
//! A pipeline row is **not** an owned document. It is a cursor into the
//! collection's persistent tree column plus overlay bindings:
//!
//! * `Base::Node` — a `(segment, node)` cursor ([`DocRef`]) into the
//!   collection's CSR trees. This is every row at pipeline entry, and stays
//!   the representation through `$match`, `$unwind`, `$sort`, `$skip`,
//!   `$limit`.
//! * Overlay bindings `path ↦ (segment, node)` record `$unwind`
//!   substitutions without copying the document: the row *means* "the base
//!   subtree with the value at `path` replaced by the bound subtree".
//!   Bindings are applied in list order (a later binding resolves through —
//!   and therefore nests inside or shadows — earlier ones).
//! * `Base::Owned` — an owned [`Json`], produced only at a `$group` or
//!   `$project` boundary, which must synthesize values that exist in no
//!   tree.
//!
//! Documents are materialised to [`Json`] exactly once, at pipeline output
//! — or earlier only where a stage genuinely observes a synthesized value
//! (a `$group` key, a projected field, a sort key, an accumulator
//! observation, or the rare merged view of a subtree that contains a
//! binding).
//!
//! ## Parallel execution
//!
//! Per-row stages (`$match`, `$project`, `$unwind`, sort-key resolution,
//! output materialisation, the accumulator folds of `$group`) fan out in
//! contiguous row-range chunks on the collection's [`jpar::Pool`]; chunk
//! results splice back in chunk order, so the output is identical for
//! every thread count and a 1-thread pool (or a row vector below
//! `PAR_MIN_ROWS`) runs the exact sequential code inline. Everything a
//! worker touches is read-only shared state: the executor's per-segment
//! [`CanonTable`]s live in `OnceLock` slots and are built **eagerly, in
//! parallel, before a `$group` fan-out** (never through `&mut self`
//! laziness), and `$group` itself is a three-phase plan — parallel key
//! resolution, a sequential unification barrier, parallel accumulation
//! with an in-chunk-order merge (see `Engine::group`). `$sort`'s
//! comparison sort, `$skip`/`$limit` and group-output assembly stay
//! sequential on the merged stream.
//!
//! ## Fast paths
//!
//! * A leading `$match` runs straight off the collection through
//!   [`Collection::find_refs_with_ctx`]: a secondary-index probe when
//!   the declared indexes answer part of the filter, the document scan
//!   ([`Filter::matches_at`] per document) otherwise — no
//!   materialisation either way.
//! * `$group` keys that resolve to tree nodes are hashed by their
//!   [`CanonTable`] class: two key nodes with equal subtrees share a
//!   class, so the common case never materialises or hashes a key value
//!   at all. At the unification barrier each distinct `(segment, class)`
//!   materialises **at most once per collection run** and unifies with
//!   other segments' classes — and with synthesized keys — through one
//!   shared [`Json`]-keyed map.
//! * `$sort` immediately followed by `$limit k` (or `$skip s` + `$limit
//!   k`) never performs the full sort: a bounded max-heap retains the
//!   `s + k` best rows under the stable `(sort keys, input position)`
//!   order (see `Engine::top_k`); `jagg::reference` keeps the full-sort
//!   semantics as the oracle.

use std::cmp::Ordering;
use std::sync::OnceLock;
use std::time::Instant;

use jguard::{QueryCtx, QueryError};
use jpar::Pool;
use jsondata::fxhash::FxHashMap;
use jsondata::{CanonTable, Json, JsonTree, NodeId, NodeKind};
use jtrace::{Counter, SpanKind};
use mongofind::{
    cmp_node_json, insert_path, json_kind, resolve_node_step, type_matches_kind, Collection,
    DocRef, Filter, Path,
};

use crate::explain::StageActual;
use crate::pipeline::{
    Accumulator, GroupSpec, IdExpr, Pipeline, ProjectField, SortOrder, Stage, ValueExpr,
};

/// Row vectors below this length always execute sequentially inline,
/// whatever the pool size — fan-out overhead would dominate.
const PAR_MIN_ROWS: usize = 512;

/// Minimum rows per chunk when a stage does fan out.
const ROW_CHUNK_MIN: usize = 128;

/// Runs an aggregation pipeline over a collection's tree column, returning
/// the output documents. Execution fans out on the collection's pool
/// ([`Collection::pool`]); output is identical for every thread count.
/// Agrees exactly with [`crate::reference::aggregate`] over
/// [`Collection::docs`] (differentially tested and CI-gated).
pub fn aggregate(coll: &Collection, pipeline: &Pipeline) -> Vec<Json> {
    match aggregate_with_ctx(coll, pipeline, &QueryCtx::unlimited()) {
        Ok(out) => out,
        Err(QueryError::WorkerPanicked { chunk, payload }) => {
            panic!(
                "worker panicked on chunk {}..{}: {payload}",
                chunk.start, chunk.end
            )
        }
        Err(e) => unreachable!("unlimited ctx cannot fail: {e}"),
    }
}

/// [`aggregate`] under a [`QueryCtx`]: every stage loop polls the
/// context (per row, amortised through a [`jguard::Poller`]), `$group`
/// accumulation and the `$push`/`$sort`/output buffers charge the byte
/// budget, `$unwind` expansion and the leading `$match` charge the row
/// budget, and a panicking worker surfaces as
/// [`QueryError::WorkerPanicked`] with the collection untouched.
pub fn aggregate_with_ctx(
    coll: &Collection,
    pipeline: &Pipeline,
    ctx: &QueryCtx,
) -> Result<Vec<Json>, QueryError> {
    // Worker panics are already contained per chunk inside the pool; this
    // outer net catches the coordinator-side loops (the `$group`
    // unification barrier, between-stage glue) so *no* panic crosses the
    // governed API boundary. `AssertUnwindSafe`: the engine is dropped on
    // the error path and the collection is only read.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Engine::with_ctx(coll, ctx.clone()).run(&pipeline.stages)
    })) {
        Ok(r) => r,
        Err(p) => Err(QueryError::WorkerPanicked {
            chunk: 0..0,
            payload: jpar::panic_payload(p),
        }),
    }
}

/// [`aggregate_with_ctx`] with a per-stage trace: `trace` receives one
/// [`StageActual`] per pipeline stage (fused `$sort`/`$skip`/`$limit`
/// blocks are expanded back into their constituent stages, interior
/// cardinalities derived arithmetically). The `EXPLAIN ANALYZE` entry
/// point of [`crate::explain`].
pub(crate) fn aggregate_traced_with_ctx(
    coll: &Collection,
    pipeline: &Pipeline,
    ctx: &QueryCtx,
    trace: &mut Vec<StageActual>,
) -> Result<Vec<Json>, QueryError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Engine::with_ctx(coll, ctx.clone()).run_traced(&pipeline.stages, Some(trace))
    })) {
        Ok(r) => r,
        Err(p) => Err(QueryError::WorkerPanicked {
            chunk: 0..0,
            payload: jpar::panic_payload(p),
        }),
    }
}

/// The base value of a row.
#[derive(Clone)]
enum Base {
    /// A cursor into the collection's tree column.
    Node(DocRef),
    /// An owned document synthesized by `$group`/`$project`.
    Owned(Json),
}

/// One pipeline row: a base document plus `$unwind` overlay bindings
/// (only ever non-empty on `Base::Node` rows — owned documents are
/// rebound in place).
#[derive(Clone)]
struct Row {
    base: Base,
    binds: Vec<(Path, DocRef)>,
}

impl Row {
    fn node(d: DocRef) -> Row {
        Row {
            base: Base::Node(d),
            binds: Vec::new(),
        }
    }

    fn owned(j: Json) -> Row {
        Row {
            base: Base::Owned(j),
            binds: Vec::new(),
        }
    }
}

/// The value a path resolves to on a row.
enum Resolved<'a> {
    /// A pure tree subtree (no binding beneath it).
    Node(DocRef),
    /// A borrowed owned value (row base is `Base::Owned`).
    Owned(&'a Json),
    /// A synthesized merged view: the subtree contained overlay bindings.
    Merged(Json),
}

struct Engine<'c> {
    coll: &'c Collection,
    pool: Pool,
    /// The query's governance context ([`QueryCtx::unlimited`] on the
    /// legacy path — every poll and charge is then a no-op branch).
    guard: QueryCtx,
    /// Canonical-label tables, one slot per segment (the `$group` key fast
    /// path). Thread-safe on-demand construction; `$group` fan-outs build
    /// every missing slot eagerly (and in parallel) first.
    canon: Vec<OnceLock<CanonTable>>,
}

impl<'c> Engine<'c> {
    fn with_ctx(coll: &'c Collection, guard: QueryCtx) -> Engine<'c> {
        Engine {
            coll,
            pool: *coll.pool(),
            guard,
            canon: (0..coll.segments().len())
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    fn tree(&self, seg: u32) -> &'c JsonTree {
        &self.coll.segments()[seg as usize]
    }

    fn json_of(&self, d: DocRef) -> Json {
        self.tree(d.seg).json_at(d.node)
    }

    fn canon(&self, seg: u32) -> &CanonTable {
        self.canon[seg as usize].get_or_init(|| {
            self.guard.record(Counter::CanonBuilds, 1);
            CanonTable::build(&self.coll.segments()[seg as usize])
        })
    }

    /// Builds the missing canonical-label tables of every segment `rows`
    /// can resolve a key node in, fanning the builds out on the pool — the
    /// eager pre-fan-out form of [`Engine::canon`], so `$group` workers
    /// only ever *read* the slots. Row key resolution can only land in a
    /// tree reachable from the row — its base cursor's segment or a
    /// binding's — so segments hosting no row (a selective leading
    /// `$match` over a fragmented collection leaves most of them empty)
    /// are never built.
    fn build_canon_for(&self, rows: &[Row]) -> Result<(), QueryError> {
        let mut needed = vec![false; self.canon.len()];
        for row in rows {
            if let Base::Node(d) = &row.base {
                needed[d.seg as usize] = true;
            }
            for (_, v) in &row.binds {
                needed[v.seg as usize] = true;
            }
        }
        let missing: Vec<usize> = (0..self.canon.len())
            .filter(|&i| needed[i] && self.canon[i].get().is_none())
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let built = self
            .pool
            .try_map_chunks(&self.guard, missing.len(), 1, |r| {
                self.guard.record(Counter::CanonBuilds, 1);
                Ok(CanonTable::build(&self.coll.segments()[missing[r.start]]))
            })?;
        for (i, table) in missing.into_iter().zip(built) {
            // A racing get_or_init may have won the slot; either table is
            // byte-identical (class assignment is deterministic per tree).
            let _ = self.canon[i].set(table);
        }
        Ok(())
    }

    /// The chunk size row-range fan-outs use: collapses to one inline
    /// chunk for serial pools and small row vectors.
    fn row_chunk(&self, n: usize) -> usize {
        if self.pool.threads() <= 1 || n < PAR_MIN_ROWS {
            n.max(1)
        } else {
            self.pool.chunk_for(n, ROW_CHUNK_MIN)
        }
    }

    fn run(&self, stages: &[Stage]) -> Result<Vec<Json>, QueryError> {
        self.run_traced(stages, None)
    }

    /// [`Engine::run`] with an optional per-stage trace. Tracing adds one
    /// `Instant` read per stage and nothing else — the untraced path takes
    /// the exact same stage sequence (the trace is the only difference,
    /// so `EXPLAIN ANALYZE` measures the executor it describes). Fused
    /// `$sort`/`$skip`/`$limit` blocks report their interior
    /// cardinalities arithmetically: `$sort` preserves the row count and
    /// the pagination arithmetic is exact, so the trace matches the
    /// unfused reference executor stage for stage.
    fn run_traced(
        &self,
        stages: &[Stage],
        mut trace: Option<&mut Vec<StageActual>>,
    ) -> Result<Vec<Json>, QueryError> {
        let mut rows: Vec<Row>;
        let rest = match stages.first() {
            // Leading-$match fast path: the filter runs over the tree
            // column before any row struct is even built.
            Some(Stage::Match(f)) => {
                let t0 = trace.is_some().then(Instant::now);
                self.guard.span_open(SpanKind::Stage, 0);
                rows = self.leading_match(f)?;
                self.guard.span_close(SpanKind::Stage, 0);
                if let Some(tr) = trace.as_deref_mut() {
                    tr.push(StageActual {
                        label: "$match",
                        rows_out: rows.len(),
                        wall_us: elapsed_us(t0),
                    });
                }
                &stages[1..]
            }
            _ => {
                rows = self
                    .coll
                    .doc_refs()
                    .iter()
                    .copied()
                    .map(Row::node)
                    .collect();
                stages
            }
        };
        let done = stages.len() - rest.len();
        let mut i = 0;
        while i < rest.len() {
            self.guard.check()?;
            let stage_no = (done + i) as u32;
            // Top-k pushdown: `$sort` whose output is immediately cut to
            // `skip + limit` rows is answered by a bounded heap instead of
            // a full sort.
            if let Stage::Sort(spec) = &rest[i] {
                let fused = match (rest.get(i + 1), rest.get(i + 2)) {
                    (Some(Stage::Limit(k)), _) => Some((0usize, clamp_len(*k), 2usize)),
                    (Some(Stage::Skip(s)), Some(Stage::Limit(k))) => {
                        Some((clamp_len(*s), clamp_len(*k), 3))
                    }
                    _ => None,
                };
                if let Some((skip, limit, consumed)) = fused {
                    let n_in = rows.len();
                    let t0 = trace.is_some().then(Instant::now);
                    self.guard.span_open(SpanKind::Stage, stage_no);
                    rows = self.top_k(rows, spec, skip, limit)?;
                    self.guard.span_close(SpanKind::Stage, stage_no);
                    if let Some(tr) = trace.as_deref_mut() {
                        // The fused block's wall time lands on the `$sort`
                        // entry; the pagination arithmetic is free.
                        tr.push(StageActual {
                            label: "$sort",
                            rows_out: n_in,
                            wall_us: elapsed_us(t0),
                        });
                        if consumed == 3 {
                            tr.push(StageActual {
                                label: "$skip",
                                rows_out: n_in.saturating_sub(skip),
                                wall_us: 0,
                            });
                        }
                        tr.push(StageActual {
                            label: "$limit",
                            rows_out: rows.len(),
                            wall_us: 0,
                        });
                    }
                    i += consumed;
                    continue;
                }
            }
            let t0 = trace.is_some().then(Instant::now);
            self.guard.span_open(SpanKind::Stage, stage_no);
            rows = self.step(rows, &rest[i])?;
            self.guard.span_close(SpanKind::Stage, stage_no);
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(StageActual {
                    label: stage_label(&rest[i]),
                    rows_out: rows.len(),
                    wall_us: elapsed_us(t0),
                });
            }
            i += 1;
        }
        let n = rows.len();
        let chunk = self.row_chunk(n);
        if chunk >= n {
            let mut out = Vec::with_capacity(n);
            let mut poll = self.guard.poller();
            for row in rows {
                poll.tick()?;
                let v = self.materialize(row);
                self.guard.charge_json(&v)?;
                out.push(v);
            }
            Ok(out)
        } else {
            self.pool.try_flat_map_chunks(&self.guard, n, chunk, |r| {
                let mut poll = self.guard.poller();
                let mut out = Vec::with_capacity(r.len());
                for i in r {
                    poll.tick()?;
                    let v = self.materialize_ref(&rows[i]);
                    self.guard.charge_json(&v)?;
                    out.push(v);
                }
                Ok(out)
            })
        }
    }

    /// The first `$match` of a pipeline, straight off the collection
    /// through the one governed find path,
    /// [`Collection::find_refs_with_ctx`]: a secondary-index probe when
    /// [`Collection::route_of`] says the declared indexes answer part of
    /// the conjunction (bitmap intersection plus a residual pass on
    /// survivors only), [`Filter::matches_at`] per document otherwise.
    /// Both routes return refs in `(segment, doc)` order, so the route
    /// is unobservable in the output, and `EXPLAIN` asks the same
    /// routing function, so a plan's claimed route is the one that runs.
    fn leading_match(&self, f: &Filter) -> Result<Vec<Row>, QueryError> {
        let refs = self.coll.find_refs_with_ctx(f, &self.guard)?;
        Ok(refs.into_iter().map(Row::node).collect())
    }

    fn step(&self, mut rows: Vec<Row>, stage: &Stage) -> Result<Vec<Row>, QueryError> {
        Ok(match stage {
            Stage::Match(f) => {
                let n = rows.len();
                let chunk = self.row_chunk(n);
                if chunk >= n {
                    let mut poll = self.guard.poller();
                    let mut kept = Vec::new();
                    for row in rows {
                        poll.tick()?;
                        if self.row_matches(&row, f) {
                            kept.push(row);
                        }
                    }
                    kept
                } else {
                    let keep: Vec<bool> =
                        self.pool.try_flat_map_chunks(&self.guard, n, chunk, |r| {
                            let mut poll = self.guard.poller();
                            let mut out = Vec::with_capacity(r.len());
                            for i in r {
                                poll.tick()?;
                                out.push(self.row_matches(&rows[i], f));
                            }
                            Ok(out)
                        })?;
                    let mut mask = keep.into_iter();
                    rows.retain(|_| mask.next().expect("mask covers every row"));
                    rows
                }
            }
            Stage::Project(spec) => {
                let n = rows.len();
                let chunk = self.row_chunk(n);
                self.pool.try_flat_map_chunks(&self.guard, n, chunk, |r| {
                    let mut poll = self.guard.poller();
                    let mut out = Vec::with_capacity(r.len());
                    for i in r {
                        poll.tick()?;
                        let v = self.project(&rows[i], spec);
                        self.guard.charge_json(&v)?;
                        out.push(Row::owned(v));
                    }
                    Ok(out)
                })?
            }
            Stage::Unwind(path) => self.unwind(rows, path)?,
            Stage::Group(spec) => self.group(rows, spec)?,
            Stage::Sort(spec) => self.sort(rows, spec)?,
            Stage::Skip(n) => {
                let n = clamp_len(*n).min(rows.len());
                rows.drain(..n);
                rows
            }
            Stage::Limit(n) => {
                rows.truncate(clamp_len(*n));
                rows
            }
            Stage::Count(label) => {
                // MongoDB emits no document at all for an empty input.
                if rows.is_empty() {
                    Vec::new()
                } else {
                    let doc = Json::object(vec![(label.clone(), Json::Num(rows.len() as u64))])
                        .expect("single key");
                    vec![Row::owned(doc)]
                }
            }
        })
    }

    // ---- path resolution over rows ----------------------------------

    /// Resolves a dotted path on a row, honouring overlay bindings. At each
    /// step, a binding whose (remaining) path is empty substitutes the
    /// current cursor — the **last** such binding wins, and bindings
    /// recorded before it are stale (they addressed the subtree it
    /// replaced; the executor only ever appends a binding at or below the
    /// resolution frontier of earlier ones, so this drop is exact). If
    /// bindings survive below the final cursor, the subtree is synthesized
    /// as a merged view.
    fn resolve<'r>(&self, row: &'r Row, path: &Path) -> Option<Resolved<'r>> {
        match &row.base {
            Base::Owned(j) => path.resolve(j).map(Resolved::Owned),
            Base::Node(d) => {
                let mut cur = *d;
                let mut active: Vec<(&[String], DocRef)> = row
                    .binds
                    .iter()
                    .map(|(p, v)| (p.0.as_slice(), *v))
                    .collect();
                for seg in &path.0 {
                    substitute(&mut cur, &mut active);
                    let t = self.tree(cur.seg);
                    cur = DocRef {
                        seg: cur.seg,
                        node: resolve_node_step(t, cur.node, seg)?,
                    };
                    active = active
                        .into_iter()
                        .filter_map(|(p, v)| {
                            p.split_first()
                                .and_then(|(head, rest)| (head == seg).then_some((rest, v)))
                        })
                        .collect();
                }
                substitute(&mut cur, &mut active);
                if active.is_empty() {
                    Some(Resolved::Node(cur))
                } else {
                    Some(Resolved::Merged(self.merge(cur, &active)))
                }
            }
        }
    }

    /// Materialises `cur` with the surviving bindings written in, in order.
    fn merge(&self, cur: DocRef, binds: &[(&[String], DocRef)]) -> Json {
        let mut j = self.json_of(cur);
        for (p, v) in binds {
            set_at(&mut j, p, self.json_of(*v));
        }
        j
    }

    /// Materialises a whole row (pipeline output, or an owned rebase).
    fn materialize(&self, row: Row) -> Json {
        match row.base {
            Base::Owned(j) => j,
            Base::Node(_) => self.materialize_ref(&row),
        }
    }

    /// [`Engine::materialize`] without consuming the row (the parallel
    /// output path, where rows are materialised through a shared borrow).
    fn materialize_ref(&self, row: &Row) -> Json {
        match &row.base {
            Base::Owned(j) => j.clone(),
            Base::Node(d) => {
                let mut j = self.json_of(*d);
                for (p, v) in &row.binds {
                    set_at(&mut j, &p.0, self.json_of(*v));
                }
                j
            }
        }
    }

    fn materialize_resolved(&self, r: Resolved<'_>) -> Json {
        match r {
            Resolved::Node(d) => self.json_of(d),
            Resolved::Owned(j) => j.clone(),
            Resolved::Merged(j) => j,
        }
    }

    /// Evaluates a value expression on a row, materialising the result
    /// (accumulator observations, compound `_id` fields, projected values).
    fn eval_expr(&self, row: &Row, e: &ValueExpr) -> Option<Json> {
        match e {
            ValueExpr::Const(c) => Some(c.clone()),
            ValueExpr::Field(p) => self.resolve(row, p).map(|r| self.materialize_resolved(r)),
        }
    }

    /// Evaluates a value expression as a number (`$sum`/`$avg`
    /// observations) without materialising non-numeric values.
    fn eval_num(&self, row: &Row, e: &ValueExpr) -> Option<u64> {
        match e {
            ValueExpr::Const(c) => c.as_num(),
            ValueExpr::Field(p) => match self.resolve(row, p)? {
                Resolved::Node(d) => self.tree(d.seg).num_value(d.node),
                Resolved::Owned(j) => j.as_num(),
                Resolved::Merged(j) => j.as_num(),
            },
        }
    }

    // ---- $match ------------------------------------------------------

    fn row_matches(&self, row: &Row, f: &Filter) -> bool {
        match &row.base {
            Base::Node(d) if row.binds.is_empty() => f.matches_at(self.tree(d.seg), d.node),
            Base::Owned(j) => f.matches(j),
            Base::Node(_) => self.matches_overlay(row, f),
        }
    }

    /// [`Filter::matches`] semantics on a row with overlay bindings.
    fn matches_overlay(&self, row: &Row, f: &Filter) -> bool {
        match f {
            Filter::And(fs) => fs.iter().all(|f| self.matches_overlay(row, f)),
            Filter::Or(fs) => fs.iter().any(|f| self.matches_overlay(row, f)),
            Filter::Not(f) => !self.matches_overlay(row, f),
            Filter::Compare(p, cmp, v) => match self.resolve(row, p) {
                Some(r) => {
                    let ord = self.cmp_resolved(&r, v);
                    match cmp {
                        mongofind::Cmp::Eq => ord.is_eq(),
                        mongofind::Cmp::Ne => !ord.is_eq(),
                        mongofind::Cmp::Gt => ord.is_gt(),
                        mongofind::Cmp::Gte => ord.is_ge(),
                        mongofind::Cmp::Lt => ord.is_lt(),
                        mongofind::Cmp::Lte => ord.is_le(),
                    }
                }
                None => false,
            },
            Filter::In(p, items, pos) => match self.resolve(row, p) {
                Some(r) => items.iter().any(|v| self.cmp_resolved(&r, v).is_eq()) == *pos,
                None => false,
            },
            Filter::Exists(p, flag) => self.resolve(row, p).is_some() == *flag,
            Filter::Size(p, n) => self
                .resolve(row, p)
                .and_then(|r| self.resolved_arr_len(&r))
                .is_some_and(|len| len as u64 == *n),
            Filter::Type(p, ty) => self
                .resolve(row, p)
                .is_some_and(|r| self.resolved_type_is(&r, ty)),
        }
    }

    fn cmp_resolved(&self, r: &Resolved<'_>, v: &Json) -> Ordering {
        match r {
            Resolved::Node(d) => cmp_node_json(self.tree(d.seg), d.node, v),
            Resolved::Owned(j) => j.total_cmp(v),
            Resolved::Merged(j) => j.total_cmp(v),
        }
    }

    fn resolved_arr_len(&self, r: &Resolved<'_>) -> Option<usize> {
        match r {
            Resolved::Node(d) => {
                let t = self.tree(d.seg);
                (t.kind(d.node) == NodeKind::Arr).then(|| t.child_count(d.node))
            }
            Resolved::Owned(j) => j.as_array().map(<[Json]>::len),
            Resolved::Merged(j) => j.as_array().map(<[Json]>::len),
        }
    }

    fn resolved_type_is(&self, r: &Resolved<'_>, ty: &str) -> bool {
        let kind = match r {
            Resolved::Node(d) => self.tree(d.seg).kind(d.node),
            Resolved::Owned(j) => json_kind(j),
            Resolved::Merged(j) => json_kind(j),
        };
        type_matches_kind(ty, kind)
    }

    // ---- $project ----------------------------------------------------

    fn project(&self, row: &Row, spec: &[(Path, ProjectField)]) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        for (path, field) in spec {
            let value = match field {
                ProjectField::Include => self
                    .resolve(row, path)
                    .map(|r| self.materialize_resolved(r)),
                ProjectField::Expr(e) => self.eval_expr(row, e),
            };
            if let Some(v) = value {
                insert_path(&mut pairs, &path.0, v);
            }
        }
        Json::object(pairs).expect("insert_path keeps keys distinct")
    }

    // ---- $unwind -----------------------------------------------------

    fn unwind(&self, rows: Vec<Row>, path: &Path) -> Result<Vec<Row>, QueryError> {
        let n = rows.len();
        let chunk = self.row_chunk(n);
        if chunk >= n {
            let mut out = Vec::new();
            let mut poll = self.guard.poller();
            for row in rows {
                poll.tick()?;
                let before = out.len();
                self.unwind_into(row, path, &mut out);
                self.guard.charge_rows((out.len() - before) as u64)?;
            }
            Ok(out)
        } else {
            self.pool.try_flat_map_chunks(&self.guard, n, chunk, |r| {
                let mut out = Vec::new();
                let mut poll = self.guard.poller();
                for i in r {
                    poll.tick()?;
                    let before = out.len();
                    self.unwind_into(rows[i].clone(), path, &mut out);
                    self.guard.charge_rows((out.len() - before) as u64)?;
                }
                Ok(out)
            })
        }
    }

    /// Unwinds one row, appending its output rows in order.
    fn unwind_into(&self, row: Row, path: &Path, out: &mut Vec<Row>) {
        enum Plan {
            Keep,
            Drop,
            /// Bind each child of this array node over the existing row.
            BindElems(DocRef),
            /// Rebase the materialised row once per element.
            OwnedElems(Vec<Json>),
        }
        let plan = match self.resolve(&row, path) {
            None => Plan::Drop,
            Some(Resolved::Node(d)) => {
                if self.tree(d.seg).kind(d.node) == NodeKind::Arr {
                    Plan::BindElems(d)
                } else {
                    // MongoDB treats a non-array value as the
                    // single-element case: the row passes unchanged.
                    Plan::Keep
                }
            }
            Some(Resolved::Owned(j)) => match j.as_array() {
                Some(items) => Plan::OwnedElems(items.to_vec()),
                None => Plan::Keep,
            },
            Some(Resolved::Merged(j)) => match j {
                Json::Array(items) => Plan::OwnedElems(items),
                _ => Plan::Keep,
            },
        };
        match plan {
            Plan::Drop => {}
            Plan::Keep => out.push(row),
            Plan::BindElems(arr) => {
                let t = self.tree(arr.seg);
                for &node in t.arr_children(arr.node) {
                    let mut unwound = row.clone();
                    unwound
                        .binds
                        .push((path.clone(), DocRef { seg: arr.seg, node }));
                    out.push(unwound);
                }
            }
            Plan::OwnedElems(items) => {
                // The resolve borrow has ended, so the row materialises
                // by move — an owned base is reused, not re-cloned.
                let base = self.materialize(row);
                for elem in items {
                    let mut doc = base.clone();
                    set_at(&mut doc, &path.0, elem);
                    out.push(Row::owned(doc));
                }
            }
        }
    }

    // ---- $group ------------------------------------------------------

    /// `$group`, as a three-phase plan whose serial specialisation (one
    /// chunk) is the defined semantics:
    ///
    /// 1. **Key resolution (parallel).** Each row's `_id` resolves once.
    ///    Keys that are pure tree nodes stay unmaterialised — `(segment,
    ///    canonical class)` plus a representative node — everything else
    ///    (constants, compound documents, synthesized/owned/merged values,
    ///    the missing-key group) materialises its key value here.
    /// 2. **Unification barrier (sequential).** Row keys map to global
    ///    group ids: each distinct `(segment, class)` materialises its
    ///    value **at most once per collection run** and funnels — together
    ///    with every synthesized key — through one shared `Json`-keyed
    ///    map, so equal keys from different segments (or different
    ///    representations) land in one group.
    /// 3. **Accumulation (parallel) + in-order merge.** Chunks fold their
    ///    rows into per-chunk accumulator tables keyed by group id; the
    ///    barrier merges chunk tables **in chunk order**, which restores
    ///    exact input order for the order-sensitive accumulators
    ///    (`$push`/`$first`/`$last`) and plain sums for the rest.
    fn group(&self, rows: Vec<Row>, spec: &GroupSpec) -> Result<Vec<Row>, QueryError> {
        /// A resolved-but-not-yet-unified row key.
        enum KeyH {
            /// A pure tree-node key: `(segment, class)` plus one node of
            /// that class to materialise from if the barrier needs to.
            Class { seg: u32, class: u32, rep: NodeId },
            /// A materialised key (`None` = the missing-key group).
            Owned(Option<Json>),
        }

        let n = rows.len();
        let chunk = self.row_chunk(n);
        if chunk < n && matches!(spec.id, IdExpr::Field(_)) {
            // The fan-out reads canon slots; build the reachable ones up
            // front.
            self.build_canon_for(&rows)?;
        }

        // Phase 1: per-row key handles, in row order.
        let keys: Vec<KeyH> = self.pool.try_flat_map_chunks(&self.guard, n, chunk, |r| {
            let mut poll = self.guard.poller();
            let mut out = Vec::with_capacity(r.len());
            for i in r {
                poll.tick()?;
                out.push(match &spec.id {
                    IdExpr::Field(p) => match self.resolve(&rows[i], p) {
                        Some(Resolved::Node(d)) => KeyH::Class {
                            seg: d.seg,
                            class: self.canon(d.seg).class_of(d.node),
                            rep: d.node,
                        },
                        resolved => KeyH::Owned(resolved.map(|r| self.materialize_resolved(r))),
                    },
                    id => KeyH::Owned(self.group_key(&rows[i], id)),
                });
            }
            Ok(out)
        })?;

        // Phase 2: the unification barrier. Every *distinct* group key
        // materialises exactly once, and is charged to the byte budget at
        // that moment (the per-row handles carry no new allocation).
        let mut by_json: FxHashMap<Option<Json>, usize> = FxHashMap::default();
        let mut by_class: FxHashMap<(u32, u32), usize> = FxHashMap::default();
        let mut group_keys: Vec<Option<Json>> = Vec::new();
        let guard = &self.guard;
        let mut slot =
            |key: Option<Json>, group_keys: &mut Vec<Option<Json>>| -> Result<usize, QueryError> {
                if let Some(&gi) = by_json.get(&key) {
                    return Ok(gi);
                }
                if let Some(k) = &key {
                    guard.charge_json(k)?;
                }
                let gi = group_keys.len();
                by_json.insert(key.clone(), gi);
                group_keys.push(key);
                Ok(gi)
            };
        let mut row_gis: Vec<usize> = Vec::with_capacity(n);
        let mut poll = self.guard.poller();
        for k in keys {
            poll.tick()?;
            row_gis.push(match k {
                KeyH::Class { seg, class, rep } => match by_class.get(&(seg, class)) {
                    Some(&gi) => gi,
                    None => {
                        let key = Some(self.tree(seg).json_at(rep));
                        let gi = slot(key, &mut group_keys)?;
                        by_class.insert((seg, class), gi);
                        gi
                    }
                },
                KeyH::Owned(key) => slot(key, &mut group_keys)?,
            });
        }
        let n_groups = group_keys.len();

        // Phase 3: per-chunk accumulation, merged in chunk order.
        let partials: Vec<FxHashMap<usize, Vec<AccState>>> =
            self.pool.try_map_chunks(&self.guard, n, chunk, |r| {
                let mut local: FxHashMap<usize, Vec<AccState>> = FxHashMap::default();
                let mut poll = self.guard.poller();
                for i in r {
                    poll.tick()?;
                    let states = local.entry(row_gis[i]).or_insert_with(|| {
                        spec.accs.iter().map(|(_, a)| AccState::new(a)).collect()
                    });
                    for (state, (_, acc)) in states.iter_mut().zip(&spec.accs) {
                        self.accumulate_into(state, acc, &rows[i])?;
                    }
                }
                Ok(local)
            })?;
        let mut states: Vec<Option<Vec<AccState>>> = (0..n_groups).map(|_| None).collect();
        for partial in partials {
            for (gi, part) in partial {
                match &mut states[gi] {
                    None => states[gi] = Some(part),
                    Some(dst) => {
                        for (d, s) in dst.iter_mut().zip(part) {
                            d.absorb(s);
                        }
                    }
                }
            }
        }

        // Deterministic output order: missing key first, then total order.
        let mut groups: Vec<(Option<Json>, Vec<AccState>)> = group_keys
            .into_iter()
            .zip(states)
            .map(|(key, st)| (key, st.expect("every group id came from a row")))
            .collect();
        groups.sort_by(|a, b| cmp_opt_json(&a.0, &b.0));
        Ok(groups
            .into_iter()
            .map(|(id, states)| {
                let mut pairs: Vec<(String, Json)> = Vec::new();
                if let Some(idj) = id {
                    pairs.push(("_id".into(), idj));
                }
                for ((name, _), state) in spec.accs.iter().zip(states) {
                    if let Some(v) = state.finish() {
                        pairs.push((name.clone(), v));
                    }
                }
                Row::owned(Json::object(pairs).expect("parser validated distinct names"))
            })
            .collect())
    }

    /// The group key of a row (`Field` ids are resolved inline by
    /// `Engine::group` so the class fast path shares the resolution).
    fn group_key(&self, row: &Row, id: &IdExpr) -> Option<Json> {
        match id {
            IdExpr::Const(c) => Some(c.clone()),
            IdExpr::Field(_) => unreachable!("Field ids are resolved inline by group()"),
            IdExpr::Doc(fields) => {
                let mut pairs: Vec<(String, Json)> = Vec::new();
                for (name, e) in fields {
                    if let Some(v) = self.eval_expr(row, e) {
                        pairs.push((name.clone(), v));
                    }
                }
                Some(Json::object(pairs).expect("parser validated distinct names"))
            }
        }
    }

    fn accumulate_into(
        &self,
        state: &mut AccState,
        acc: &Accumulator,
        row: &Row,
    ) -> Result<(), QueryError> {
        match (state, acc) {
            (AccState::Sum(total), Accumulator::Sum(e)) => {
                if let Some(n) = self.eval_num(row, e) {
                    *total += n as u128;
                }
            }
            (AccState::Avg { sum, count }, Accumulator::Avg(e)) => {
                if let Some(n) = self.eval_num(row, e) {
                    *sum += n as u128;
                    *count += 1;
                }
            }
            (AccState::Min(best), Accumulator::Min(e)) => {
                if let Some(v) = self.observe_cmp(row, e, best, Ordering::Less) {
                    *best = Some(v);
                }
            }
            (AccState::Max(best), Accumulator::Max(e)) => {
                if let Some(v) = self.observe_cmp(row, e, best, Ordering::Greater) {
                    *best = Some(v);
                }
            }
            (AccState::Count(n), Accumulator::Count) => *n += 1,
            (AccState::Push(items), Accumulator::Push(e)) => {
                // `$push` is the one accumulator with unbounded state: every
                // retained element is charged to the byte budget.
                if let Some(v) = self.eval_expr(row, e) {
                    self.guard.charge_json(&v)?;
                    items.push(v);
                }
            }
            (AccState::First(slot), Accumulator::First(e)) => {
                if slot.is_none() {
                    *slot = self.eval_expr(row, e);
                }
            }
            (AccState::Last(slot), Accumulator::Last(e)) => {
                if let Some(v) = self.eval_expr(row, e) {
                    *slot = Some(v);
                }
            }
            _ => unreachable!("state shape fixed by AccState::new"),
        }
        Ok(())
    }

    /// Observes a `$min`/`$max` candidate, materialising it **only** when
    /// it displaces the current best (tree-node candidates are compared in
    /// place via [`cmp_node_json`]).
    fn observe_cmp(
        &self,
        row: &Row,
        e: &ValueExpr,
        best: &Option<Json>,
        want: Ordering,
    ) -> Option<Json> {
        match e {
            ValueExpr::Const(c) => match best {
                None => Some(c.clone()),
                Some(b) => (c.total_cmp(b) == want).then(|| c.clone()),
            },
            ValueExpr::Field(p) => {
                let r = self.resolve(row, p)?;
                match best {
                    None => Some(self.materialize_resolved(r)),
                    Some(b) => {
                        (self.cmp_resolved(&r, b) == want).then(|| self.materialize_resolved(r))
                    }
                }
            }
        }
    }

    // ---- $sort -------------------------------------------------------

    /// Resolves the sort-key vector of every row (parallel chunks, row
    /// order preserved) — the per-row half both [`Engine::sort`] and
    /// `Engine::top_k` share.
    fn sort_keys(
        &self,
        rows: &[Row],
        spec: &[(Path, SortOrder)],
    ) -> Result<Vec<Vec<Option<Json>>>, QueryError> {
        let n = rows.len();
        let chunk = self.row_chunk(n);
        self.pool.try_flat_map_chunks(&self.guard, n, chunk, |r| {
            let mut poll = self.guard.poller();
            let mut out = Vec::with_capacity(r.len());
            for i in r {
                poll.tick()?;
                let mut keys: Vec<Option<Json>> = Vec::with_capacity(spec.len());
                for (p, _) in spec {
                    let k = self
                        .resolve(&rows[i], p)
                        .map(|x| self.materialize_resolved(x));
                    // The key buffer lives until the sort completes: it is
                    // part of the query's working set and charged as such.
                    if let Some(k) = &k {
                        self.guard.charge_json(k)?;
                    }
                    keys.push(k);
                }
                out.push(keys);
            }
            Ok(out)
        })
    }

    fn sort(&self, rows: Vec<Row>, spec: &[(Path, SortOrder)]) -> Result<Vec<Row>, QueryError> {
        // Sort keys are resolved on the tree and materialised once per row
        // (they are typically scalars); the rows themselves stay cursors.
        // The comparison sort runs sequentially on the merged stream.
        let keys = self.sort_keys(&rows, spec)?;
        let mut keyed: Vec<(Vec<Option<Json>>, Row)> = keys.into_iter().zip(rows).collect();
        // Stable, so equal-key rows keep their input order.
        keyed.sort_by(|(ka, _), (kb, _)| cmp_sort_keys(spec, ka, kb));
        Ok(keyed.into_iter().map(|(_, row)| row).collect())
    }

    /// The fused `$sort` + pagination: returns `stable_sort(rows)[skip ..
    /// skip + limit]` while retaining only `skip + limit` rows at a time.
    ///
    /// Correctness rests on `(sort keys, input position)` being a *total*
    /// order: the bounded max-heap keeps the `skip + limit` least rows
    /// under it, and sorting those ascending is exactly the first
    /// `skip + limit` rows of the full stable sort (ties resolved by input
    /// position = stability). `jagg::reference` runs the unfused full
    /// sort as the oracle; the differential suite pins equality including
    /// tie cases.
    fn top_k(
        &self,
        rows: Vec<Row>,
        spec: &[(Path, SortOrder)],
        skip: usize,
        limit: usize,
    ) -> Result<Vec<Row>, QueryError> {
        let keep = skip.saturating_add(limit);
        if keep == 0 || rows.is_empty() {
            return Ok(Vec::new());
        }
        if keep >= rows.len() {
            // The heap would hold everything: the full sort is cheaper.
            let mut out = self.sort(rows, spec)?;
            out.drain(..skip.min(out.len()));
            out.truncate(limit);
            return Ok(out);
        }
        let keys = self.sort_keys(&rows, spec)?;
        // A max-heap of the `keep` least entries under [`TopEnt`]'s total
        // `(keys, seq)` order: the root is the worst kept row, displaced
        // whenever a strictly-earlier-ordering row arrives (`PeekMut`
        // restores the heap on drop).
        let mut heap: std::collections::BinaryHeap<TopEnt<'_>> =
            std::collections::BinaryHeap::with_capacity(keep);
        let mut poll = self.guard.poller();
        for (seq, (keys, row)) in keys.into_iter().zip(rows).enumerate() {
            poll.tick()?;
            let ent = TopEnt {
                spec,
                keys,
                seq,
                row,
            };
            if heap.len() < keep {
                heap.push(ent);
            } else if let Some(mut worst) = heap.peek_mut() {
                if ent < *worst {
                    *worst = ent;
                }
            }
        }
        let mut kept = heap.into_sorted_vec();
        kept.drain(..skip.min(kept.len()));
        kept.truncate(limit);
        Ok(kept.into_iter().map(|e| e.row).collect())
    }
}

/// One candidate row of `Engine::top_k`'s bounded heap, ordered by the
/// stable `(sort keys, input position)` total order — the row itself does
/// not participate in comparisons.
struct TopEnt<'s> {
    spec: &'s [(Path, SortOrder)],
    keys: Vec<Option<Json>>,
    seq: usize,
    row: Row,
}

impl PartialEq for TopEnt<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for TopEnt<'_> {}

impl PartialOrd for TopEnt<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TopEnt<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_sort_keys(self.spec, &self.keys, &other.keys).then(self.seq.cmp(&other.seq))
    }
}

/// Accumulator state (one per `(group, accumulator)` pair).
enum AccState {
    Sum(u128),
    Avg { sum: u128, count: u64 },
    Min(Option<Json>),
    Max(Option<Json>),
    Count(u64),
    Push(Vec<Json>),
    First(Option<Json>),
    Last(Option<Json>),
}

impl AccState {
    fn new(acc: &Accumulator) -> AccState {
        match acc {
            Accumulator::Sum(_) => AccState::Sum(0),
            Accumulator::Avg(_) => AccState::Avg { sum: 0, count: 0 },
            Accumulator::Min(_) => AccState::Min(None),
            Accumulator::Max(_) => AccState::Max(None),
            Accumulator::Count => AccState::Count(0),
            Accumulator::Push(_) => AccState::Push(Vec::new()),
            Accumulator::First(_) => AccState::First(None),
            Accumulator::Last(_) => AccState::Last(None),
        }
    }

    /// Folds `later` — the state accumulated over a *later* contiguous row
    /// range — into `self`. Merging chunk states in chunk order is exactly
    /// the sequential fold: sums/counts add, min/max compare (ties keep
    /// the earlier observation, as the sequential fold does), `$push`
    /// concatenates, `$first` keeps the earliest observation and `$last`
    /// the latest.
    fn absorb(&mut self, later: AccState) {
        match (self, later) {
            (AccState::Sum(a), AccState::Sum(b)) => *a += b,
            (AccState::Avg { sum, count }, AccState::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            (AccState::Min(a), AccState::Min(b)) => absorb_best(a, b, Ordering::Less),
            (AccState::Max(a), AccState::Max(b)) => absorb_best(a, b, Ordering::Greater),
            (AccState::Count(a), AccState::Count(b)) => *a += b,
            (AccState::Push(a), AccState::Push(b)) => a.extend(b),
            (AccState::First(a), AccState::First(b)) => {
                if a.is_none() {
                    *a = b;
                }
            }
            (AccState::Last(a), AccState::Last(b)) => {
                if b.is_some() {
                    *a = b;
                }
            }
            _ => unreachable!("state shape fixed by AccState::new"),
        }
    }

    /// The output value, or `None` for empty-observation accumulators
    /// whose field is omitted (the fragment has no `null`).
    fn finish(self) -> Option<Json> {
        match self {
            AccState::Sum(total) => Some(Json::Num(saturate(total))),
            AccState::Avg { count: 0, .. } => None,
            AccState::Avg { sum, count } => Some(Json::Num(saturate(sum / count as u128))),
            AccState::Min(v) | AccState::Max(v) | AccState::First(v) | AccState::Last(v) => v,
            AccState::Count(n) => Some(Json::Num(n)),
            AccState::Push(items) => Some(Json::Array(items)),
        }
    }
}

/// The `$min`/`$max` merge rule: take the later best only when it strictly
/// beats the earlier one (a tie keeps the earlier observation, matching
/// the sequential fold's strict-comparison displacement).
fn absorb_best(dst: &mut Option<Json>, later: Option<Json>, want: Ordering) {
    if let Some(v) = later {
        let take = match dst.as_ref() {
            None => true,
            Some(d) => v.total_cmp(d) == want,
        };
        if take {
            *dst = Some(v);
        }
    }
}

/// Microseconds since a trace-gated start instant (`0` when untraced).
fn elapsed_us(t0: Option<Instant>) -> u64 {
    t0.map_or(0, |t| t.elapsed().as_micros() as u64)
}

/// The stage's operator name, for traces and plans.
pub(crate) fn stage_label(stage: &Stage) -> &'static str {
    match stage {
        Stage::Match(_) => "$match",
        Stage::Project(_) => "$project",
        Stage::Unwind(_) => "$unwind",
        Stage::Group(_) => "$group",
        Stage::Sort(_) => "$sort",
        Stage::Skip(_) => "$skip",
        Stage::Limit(_) => "$limit",
        Stage::Count(_) => "$count",
    }
}

/// Clamps a `u128` accumulator total into the fragment's `u64` numbers.
pub(crate) fn saturate(n: u128) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Clamps a `$skip`/`$limit` operand into `usize` without wrapping (a
/// 32-bit target must treat an oversized operand as "everything", not as
/// its truncated low bits).
pub(crate) fn clamp_len(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// The `$sort` comparator over per-row key vectors: first inequality under
/// [`cmp_opt_json`] decides, honouring each key's direction. Shared by both
/// executors (pure plumbing over already-resolved keys).
pub(crate) fn cmp_sort_keys(
    spec: &[(Path, SortOrder)],
    ka: &[Option<Json>],
    kb: &[Option<Json>],
) -> Ordering {
    for (i, (_, order)) in spec.iter().enumerate() {
        let ord = cmp_opt_json(&ka[i], &kb[i]);
        let ord = match order {
            SortOrder::Asc => ord,
            SortOrder::Desc => ord.reverse(),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// `None` (missing) sorts before every present value; present values
/// compare under [`Json::total_cmp`].
pub(crate) fn cmp_opt_json(a: &Option<Json>, b: &Option<Json>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => x.total_cmp(y),
    }
}

/// Applies the pending exact-match binding (the last one wins; entries
/// before it addressed the subtree it replaced and are dropped).
fn substitute(cur: &mut DocRef, active: &mut Vec<(&[String], DocRef)>) {
    if let Some(i) = active.iter().rposition(|(p, _)| p.is_empty()) {
        *cur = active[i].1;
        active.drain(..=i);
    }
}

/// Replaces the value at an existing dotted path inside an owned document
/// (resolution mirrors [`Path::resolve`]; a path that does not resolve is
/// a no-op). Shared with the value-based reference executor — it is pure
/// plumbing on already-evaluated values.
pub(crate) fn set_at(root: &mut Json, path: &[String], value: Json) {
    if path.is_empty() {
        *root = value;
        return;
    }
    let mut cur = root;
    for seg in &path[..path.len() - 1] {
        let next = match seg.parse::<usize>() {
            Ok(i) if cur.is_array() => cur.index_mut(i),
            _ => cur.get_mut(seg),
        };
        match next {
            Some(n) => cur = n,
            None => return,
        }
    }
    let leaf = &path[path.len() - 1];
    let slot = match leaf.parse::<usize>() {
        Ok(i) if cur.is_array() => cur.index_mut(i),
        _ => cur.get_mut(leaf),
    };
    if let Some(s) = slot {
        *s = value;
    }
}
