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
//!   A binding borrows the `$unwind` stage's own [`Path`], and a row holds
//!   its first binding inline, so unwinding allocates nothing per row.
//!   Bindings are applied in list order (a later binding resolves through —
//!   and therefore nests inside or shadows — earlier ones); resolving a
//!   path through them walks the list in place, with no scratch vector.
//! * `Base::Owned` — an owned [`Json`], produced only at a `$group` or
//!   `$project` boundary, which must synthesize values that exist in no
//!   tree.
//!
//! Documents are materialised to [`Json`] exactly once, at pipeline output
//! — or earlier only where a stage genuinely observes a synthesized value
//! (a projected field, a distinct `$group` key, a `$group` output, or the
//! rare merged view of a subtree that contains a binding). Until a stage
//! needs rows, the pipeline holds bare [`DocRef`]s. A document is charged
//! to the byte budget once, by the step that makes it, so a `$limit` or
//! `$skip` after a `$project` adds no charge of its own.
//!
//! Sort keys and the observations `$min`/`$max`/`$push`/`$first`/`$last`
//! keep are `Obs` values: a `(segment, node)` handle, or an owned value
//! only when the observed value is synthesized (an owned row's field, a
//! merged view) or is a number `$group` read as a `u64`. Handles compare
//! in place across trees
//! ([`cmp_nodes`]/[`cmp_node_json`]) and are charged to the byte budget
//! what their materialised values would cost
//! ([`QueryCtx::charge_node`]), so budgets trip where they did when
//! every key was materialised.
//!
//! ## Bound paths
//!
//! Each stage binds what it reads when it starts: `$match` binds its
//! filter ([`mongofind::Filter::bind`]), and `$project`, `$unwind`, `$group` (key
//! paths and accumulator fields) and sort-key resolution bind their paths
//! ([`Path::bind`]), all to the collection's table
//! ([`Collection::interner`]; [`BoundPath`] says why one table serves
//! every segment). Binding costs one table probe per path segment and
//! string constant per stage; rows then step by symbol
//! ([`mongofind::step_node`]) and hash no string. `Engine::resolve` takes
//! a [`BoundPath`], and a `$match` over rows with bindings or owned bases
//! walks the same [`BoundFilter`] as plain tree rows, through
//! [`BoundFilter::matches_with`].
//!
//! ## Parallel execution
//!
//! Per-row stages (`$match`, `$project`, `$unwind`, sort-key resolution,
//! output materialisation, `$group`'s resolution and fold) fan out in
//! contiguous row-range chunks on the collection's [`jpar::Pool`]; chunk
//! results splice back in chunk order, so the output is identical for
//! every thread count and a 1-thread pool (or a row vector below
//! [`DOC_CHUNK_MIN`]) runs the exact sequential code inline. Everything a
//! worker touches is read-only shared state, and `$group` is a three-phase
//! plan (see `Engine::group`): parallel resolution of each row's key and
//! of each distinct operand path into per-chunk columns, a sequential
//! unification barrier that also numbers each chunk's groups densely,
//! and a parallel column-at-a-time fold into one flat state vector per
//! chunk, merged in chunk order. `$sort`'s comparison sort,
//! `$skip`/`$limit` and group-output assembly stay sequential on the
//! merged stream.
//!
//! ## Canon tables
//!
//! `$group` keys are classed by each segment's canonical-label table,
//! which the segment tree owns ([`JsonTree::canon`]): it is built once per
//! segment — by index maintenance on an indexed collection, or by the
//! first query that needs it — and every later query, snapshot and index
//! reads the same table. Before a `$group` resolves keys, the segments its
//! rows can reach that still lack a table build theirs in parallel; only
//! those builds count as `canon_builds`.
//!
//! ## Fast paths
//!
//! * A leading `$match` runs straight off the collection, on its routed
//!   find path (see `Engine::run`), and yields bare refs.
//! * A `$group` `_id` is a tuple of its field paths (none for a constant,
//!   one for `"$path"`, one per path field of a compound document). When
//!   every field of a row resolves to a tree node or is missing, the row's
//!   key is a tuple of `(segment, class)` pairs in one flat per-chunk
//!   buffer: two nodes share a class exactly when their subtrees are
//!   equal, so the common case never materialises or hashes a key value.
//!   Each field path resolves once per row, and a row with an owned or
//!   merged field builds its key from the values already resolved. At the
//!   unification barrier each distinct tuple is looked up as a slice,
//!   materialises **once** and unifies — with other segments' tuples and
//!   with keys that had to be synthesized — through one shared
//!   [`Json`]-keyed map.
//! * Accumulators read operand columns: each distinct operand path
//!   resolves once per row, to a number's `u64`, a tree handle, a borrow
//!   of an owned row's value, or a marker for a merged view, and every
//!   accumulator on that path reads the same column. A merged view is
//!   built only by the accumulators that keep or compare it
//!   (`$min`/`$max`/`$push`/`$last`, and `$first` until it has a value)
//!   and dropped after, so a chunk holds no views. Numbers fold
//!   as plain `u64`: `$sum`/`$avg` add them, and `$min`/`$max` keep the
//!   best number apart from the best other value, since numbers rank
//!   below every other kind. Other values compare in place across trees
//!   ([`cmp_nodes`]). `$push`/`$first`/`$last` and the non-number extremes
//!   keep `(segment, node)` handles (or an owned value, for a synthesized
//!   observation), and each kept handle materialises once, in the
//!   group's output document.
//! * The stages run in the blocks of the one planner, `plan::plan`, which
//!   `EXPLAIN` renders too: top-k (`$sort` cut by `$limit`, answered by a
//!   bounded heap, `Engine::top_k`), with late projection of a `$project`
//!   before it, and output projection of a last `$project`, which the
//!   output step runs as it materialises each row — so
//!   `find(filter, projection)` builds one document per match.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::time::Instant;

use jguard::{QueryCtx, QueryError};
use jpar::Pool;
use jsondata::fxhash::FxHashMap;
use jsondata::{JStr, Json, JsonTree, NodeId, NodeKind};
use jtrace::{Counter, SpanKind};
use mongofind::{
    cmp_node_json, cmp_nodes, insert_path, step_node, BoundFilter, BoundPath, Collection, DocRef,
    Operand, Path, Step, DOC_CHUNK_MIN,
};

use crate::explain::StageActual;
use crate::pipeline::{
    Accumulator, GroupSpec, IdExpr, Pipeline, ProjectField, SortOrder, Stage, ValueExpr,
};
use crate::plan::{plan, Block, TopK};

/// Runs an aggregation pipeline over a collection's tree column, returning
/// the output documents. Execution fans out on the collection's pool
/// ([`Collection::pool`]); output is identical for every thread count.
/// Agrees exactly with [`crate::reference::aggregate`] over
/// [`Collection::docs`] (differentially tested and CI-gated).
pub fn aggregate(coll: &Collection, pipeline: &Pipeline) -> Vec<Json> {
    jpar::ungoverned(|ctx| aggregate_with_ctx(coll, pipeline, ctx))
}

/// [`aggregate`] under a [`QueryCtx`]: every stage loop polls the
/// context (per row, amortised through a [`jguard::Poller`]), `$group`
/// accumulation and the `$push`/`$sort` buffers charge the byte budget,
/// as does every document, once, in the step that creates it (a
/// `$project`, a `$group` or `$count` output, an owned `$unwind`
/// rebase, or the output step's materialisation of a tree row),
/// `$unwind` expansion and the leading `$match` charge the row
/// budget, and a panic — in a worker or on the calling thread — surfaces
/// as [`QueryError::WorkerPanicked`] with the collection untouched.
pub fn aggregate_with_ctx(
    coll: &Collection,
    pipeline: &Pipeline,
    ctx: &QueryCtx,
) -> Result<Vec<Json>, QueryError> {
    execute(coll, pipeline, ctx, None)
}

/// The one executor entry behind [`aggregate_with_ctx`] and `EXPLAIN
/// ANALYZE` ([`crate::explain::explain_analyze`]). With a `trace`, it
/// receives one [`StageActual`] per pipeline stage (fused
/// `$sort`/`$skip`/`$limit` blocks are expanded back into their
/// constituent stages, interior cardinalities derived arithmetically).
///
/// Worker panics are contained per chunk inside the pool; the
/// [`jpar::contain`] net around the run catches the calling thread's
/// loops (the `$group` unification barrier, between-stage glue), so no
/// panic crosses the governed boundary.
pub(crate) fn execute(
    coll: &Collection,
    pipeline: &Pipeline,
    ctx: &QueryCtx,
    trace: Option<&mut Vec<StageActual>>,
) -> Result<Vec<Json>, QueryError> {
    jpar::contain(ctx, || {
        Engine::with_ctx(coll, ctx.clone()).run(&pipeline.stages, trace)
    })
}

/// The base value of a row.
#[derive(Clone)]
enum Base {
    /// A cursor into the collection's tree column.
    Node(DocRef),
    /// An owned document synthesized by `$group`/`$project`.
    Owned(Json),
}

/// One `$unwind` binding: the stage's path and the element bound there.
type Bind<'p> = (&'p Path, DocRef);

/// A row's `$unwind` bindings in list order. A single binding — the
/// common case — is held inline, so a bound row costs no allocation and
/// is no larger than a row holding a plain vector.
#[derive(Clone, Default)]
enum Binds<'p> {
    #[default]
    None,
    One(Bind<'p>),
    Many(Vec<Bind<'p>>),
}

impl<'p> Binds<'p> {
    fn push(&mut self, b: Bind<'p>) {
        *self = match std::mem::take(self) {
            Binds::None => Binds::One(b),
            Binds::One(a) => Binds::Many(vec![a, b]),
            Binds::Many(mut v) => {
                v.push(b);
                Binds::Many(v)
            }
        };
    }

    fn is_empty(&self) -> bool {
        matches!(self, Binds::None)
    }

    fn as_slice(&self) -> &[Bind<'p>] {
        match self {
            Binds::None => &[],
            Binds::One(b) => std::slice::from_ref(b),
            Binds::Many(v) => v,
        }
    }
}

/// One pipeline row: a base document plus `$unwind` overlay bindings
/// (only ever non-empty on `Base::Node` rows — owned documents are
/// rebound in place).
#[derive(Clone)]
struct Row<'p> {
    base: Base,
    binds: Binds<'p>,
}

impl Row<'_> {
    fn node(d: DocRef) -> Self {
        Row {
            base: Base::Node(d),
            binds: Binds::default(),
        }
    }

    fn owned(j: Json) -> Self {
        Row {
            base: Base::Owned(j),
            binds: Binds::default(),
        }
    }
}

/// The rows between blocks: the leading `$match`'s refs (or every
/// document's), a tenth of a [`Row`]'s width, until a block needs rows.
enum Rows<'p> {
    Refs(Vec<DocRef>),
    Rows(Vec<Row<'p>>),
}

impl<'p> Rows<'p> {
    fn into_rows(self) -> Vec<Row<'p>> {
        match self {
            Rows::Refs(refs) => refs.into_iter().map(Row::node).collect(),
            Rows::Rows(rows) => rows,
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

/// A borrowed value: a subtree still in the tree column, or a `Json`.
#[derive(Clone, Copy)]
enum Val<'a> {
    Node(DocRef),
    Json(&'a Json),
}

/// A [`ValueExpr`] whose field path is bound to the collection's table.
enum BoundExpr<'p> {
    Const(&'p Json),
    Field(BoundPath<'p>),
}

/// A kept observation — an accumulator's, or a sort key: a handle into
/// the tree column, or an owned value when the observation was
/// synthesized (a constant, an owned row's field, a merged view).
/// Materialised once, at output, if at all.
enum Obs {
    Node(DocRef),
    Owned(Json),
}

impl Obs {
    fn as_val(&self) -> Val<'_> {
        match self {
            Obs::Node(d) => Val::Node(*d),
            Obs::Owned(j) => Val::Json(j),
        }
    }
}

/// A `$group` key tuple entry for a field that is missing on the row.
const MISSING: (u32, u32) = (u32::MAX, u32::MAX);

/// The `arg` of `$group`'s [`SpanKind::Phase`] spans, one per phase of
/// `Engine::group`: key and operand resolution, unification, fold.
const PHASE_RESOLVE: u32 = 0;
const PHASE_UNIFY: u32 = 1;
const PHASE_FOLD: u32 = 2;

/// A row's phase-1 `$group` key.
enum RowKey {
    /// A tuple: the row's `width` entries are the next slice of its
    /// chunk's `classes`/`nodes` buffers.
    Tuple,
    /// A materialised key (`None` = the missing-key group).
    Owned(Option<Json>),
}

/// One row's value at one `$group` operand path, or an accumulator's
/// constant.
#[derive(Clone, Copy)]
enum Cell<'r> {
    Missing,
    /// A number, from a tree node or an owned value alike.
    Num(u64),
    /// Any other tree value.
    Node(DocRef),
    /// Any other owned value: an owned row's field, or a constant.
    Json(&'r Json),
    /// A merged view at this operand path (never a number). It is built
    /// from the row only when an accumulator keeps or compares it, and
    /// dropped after.
    Merged(&'r BoundPath<'r>),
}

/// Where an accumulator reads its observations.
enum Src<'a> {
    /// A constant (`Missing` for `$count`): the same cell on every row.
    Const(Cell<'a>),
    /// An operand column, shared by every accumulator reading its path.
    Col(usize),
}

/// One chunk of `$group` rows: phase 1 fills the keys and operand
/// columns, phase 2 the group ids.
struct GroupChunk<'r> {
    keys: Vec<RowKey>,
    /// `(segment, class)` per tuple entry ([`MISSING`] for a missing
    /// field) — the part of a tuple that is hashed.
    classes: Vec<(u32, u32)>,
    /// A node of each entry's class, to materialise the key from.
    nodes: Vec<NodeId>,
    /// Operand cells, column-major: column `c` is
    /// `cells[c * rows .. (c + 1) * rows]`.
    cells: Vec<Cell<'r>>,
    /// Each row's chunk-local group id.
    local: Vec<u32>,
    /// The global group id of each local id (local ids are numbered in
    /// first-seen order).
    globals: Vec<u32>,
}

struct Engine<'c> {
    coll: &'c Collection,
    pool: Pool,
    /// The query's governance context ([`QueryCtx::unlimited`] on the
    /// legacy path — every poll and charge is then a no-op branch).
    guard: QueryCtx,
}

impl<'c> Engine<'c> {
    fn with_ctx(coll: &'c Collection, guard: QueryCtx) -> Engine<'c> {
        Engine {
            coll,
            pool: *coll.pool(),
            guard,
        }
    }

    fn tree(&self, seg: u32) -> &'c JsonTree {
        &self.coll.segments()[seg as usize]
    }

    /// Binds a path a stage reads to the collection's table — once, when
    /// the stage starts (see [`BoundPath`] for why one table serves every
    /// segment).
    fn bind<'p>(&self, path: &'p Path) -> BoundPath<'p> {
        path.bind(self.coll.interner())
    }

    fn bind_expr<'p>(&self, e: &'p ValueExpr) -> BoundExpr<'p> {
        match e {
            ValueExpr::Const(c) => BoundExpr::Const(c),
            ValueExpr::Field(p) => BoundExpr::Field(self.bind(p)),
        }
    }

    /// Builds the missing canonical-label tables of every segment `rows`
    /// can resolve a key node in, fanning the builds out on the pool, so
    /// `$group` workers only ever *read* tables. Row key resolution can
    /// only land in a tree reachable from the row — its base cursor's
    /// segment or a binding's — so segments hosting no row (a selective
    /// leading `$match` over a fragmented collection leaves most of them
    /// empty) are never built.
    fn build_canon_for(&self, rows: &[Row<'_>]) -> Result<(), QueryError> {
        let segments = self.coll.segments();
        let mut needed = vec![false; segments.len()];
        for row in rows {
            if let Base::Node(d) = &row.base {
                needed[d.seg as usize] = true;
            }
            for (_, v) in row.binds.as_slice() {
                needed[v.seg as usize] = true;
            }
        }
        let missing: Vec<usize> = (0..segments.len())
            .filter(|&i| needed[i] && !segments[i].has_canon())
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        self.pool
            .try_map_chunks(&self.guard, missing.len(), 1, |r| {
                if segments[missing[r.start]].ensure_canon() {
                    self.guard.record(Counter::CanonBuilds, 1);
                }
                Ok(())
            })
            .map(drop)
    }

    /// Runs the planned blocks, with an optional per-stage trace.
    /// Tracing adds one `Instant` read per block and nothing else — the
    /// untraced path runs the exact same blocks (the trace is the only
    /// difference, so `EXPLAIN ANALYZE` measures the executor it
    /// describes). A top-k block reports its interior cardinalities
    /// arithmetically: `$project` and `$sort` preserve the row count and
    /// the pagination arithmetic is exact, so the trace matches the
    /// unfused reference executor stage for stage.
    ///
    /// A leading `$match` runs through the one governed find path,
    /// [`Collection::find_refs_with_ctx`] (an index probe or the document
    /// scan, whichever `EXPLAIN` reports), whose refs come in `(segment,
    /// doc)` order on either route.
    fn run(
        &self,
        stages: &[Stage],
        mut trace: Option<&mut Vec<StageActual>>,
    ) -> Result<Vec<Json>, QueryError> {
        let (mut rows, first) = match stages.first() {
            Some(Stage::Match(f)) => {
                let t0 = trace.is_some().then(Instant::now);
                self.guard.span_open(SpanKind::Stage, 0);
                let refs = self.coll.find_refs_with_ctx(f, &self.guard)?;
                self.guard.span_close(SpanKind::Stage, 0);
                record(&mut trace, "$match", refs.len(), elapsed_us(t0));
                (Rows::Refs(refs), 1)
            }
            _ => (Rows::Refs(self.coll.doc_refs()), 0),
        };
        let mut stage_no = first;
        for block in plan(&stages[first..]) {
            let t0 = trace.is_some().then(Instant::now);
            match block {
                Block::Output(spec) => {
                    // The output step polls per row; it makes no check of
                    // its own, as a find's materialisation never did.
                    self.guard.span_open(SpanKind::Stage, stage_no as u32);
                    let out = self.output(rows, Some(spec))?;
                    self.guard.span_close(SpanKind::Stage, stage_no as u32);
                    record(&mut trace, "$project", out.len(), elapsed_us(t0));
                    return Ok(out);
                }
                Block::Stage(stage) => {
                    self.guard.check()?;
                    self.guard.span_open(SpanKind::Stage, stage_no as u32);
                    let out = self.step(rows.into_rows(), stage)?;
                    self.guard.span_close(SpanKind::Stage, stage_no as u32);
                    record(&mut trace, stage_label(stage), out.len(), elapsed_us(t0));
                    rows = Rows::Rows(out);
                }
                Block::TopK(ref tk) => {
                    self.guard.check()?;
                    // The block's span and wall time belong to its `$sort`.
                    let sort_no = (stage_no + usize::from(tk.project.is_some())) as u32;
                    let input = rows.into_rows();
                    let n_in = input.len();
                    self.guard.span_open(SpanKind::Stage, sort_no);
                    let out = self.top_k(input, tk)?;
                    self.guard.span_close(SpanKind::Stage, sort_no);
                    if tk.project.is_some() {
                        record(&mut trace, "$project", n_in, 0);
                    }
                    record(&mut trace, "$sort", n_in, elapsed_us(t0));
                    if let Some(skip) = tk.skip {
                        record(&mut trace, "$skip", n_in.saturating_sub(clamp_len(skip)), 0);
                    }
                    record(&mut trace, "$limit", out.len(), 0);
                    rows = Rows::Rows(out);
                }
            }
            stage_no += block.len();
        }
        self.output(rows, None)
    }

    /// The output step: one document per row — the row, or its
    /// projection by the pipeline's last `$project` (bound once, here).
    /// A document is charged to the byte budget once, by the step that
    /// creates it: here a projection or a tree row's materialisation,
    /// while an owned row's document was charged where it was made.
    fn output(
        &self,
        rows: Rows<'_>,
        project: Option<&[(Path, ProjectField)]>,
    ) -> Result<Vec<Json>, QueryError> {
        let spec = project.map(|spec| self.bind_project(spec));
        let emit = |row: Cow<'_, Row<'_>>, out: &mut Vec<Json>| {
            let created = spec.is_some() || matches!(row.base, Base::Node(_));
            let v = match &spec {
                Some(spec) => self.project(&row, spec),
                None => self.materialize(row),
            };
            if created {
                self.guard.charge_json(&v)?;
            }
            out.push(v);
            Ok(())
        };
        match rows {
            Rows::Refs(refs) => self.each_row(refs, |d, out| emit(Cow::Owned(Row::node(*d)), out)),
            Rows::Rows(rows) => self.each_row(rows, emit),
        }
    }

    /// Runs `f` on every row in order, polling first, and returns what
    /// the calls push: inline, taking each row by value and dispatching
    /// nothing, when the rows form one chunk ([`Pool::chunk_for`]);
    /// otherwise borrowing them, in parallel chunks spliced in order.
    fn each_row<T: Clone + Sync, U: Send>(
        &self,
        rows: Vec<T>,
        f: impl Fn(Cow<'_, T>, &mut Vec<U>) -> Result<(), QueryError> + Sync,
    ) -> Result<Vec<U>, QueryError> {
        let n = rows.len();
        let chunk = self.pool.chunk_for(n, DOC_CHUNK_MIN);
        if chunk >= n {
            let mut out = Vec::with_capacity(n);
            let mut poll = self.guard.poller();
            for row in rows {
                poll.tick()?;
                f(Cow::Owned(row), &mut out)?;
            }
            return Ok(out);
        }
        self.pool.try_flat_map_chunks(&self.guard, n, chunk, |r| {
            let mut out = Vec::with_capacity(r.len());
            let mut poll = self.guard.poller();
            for row in &rows[r] {
                poll.tick()?;
                f(Cow::Borrowed(row), &mut out)?;
            }
            Ok(out)
        })
    }

    fn step<'p>(
        &self,
        mut rows: Vec<Row<'p>>,
        stage: &'p Stage,
    ) -> Result<Vec<Row<'p>>, QueryError> {
        Ok(match stage {
            Stage::Match(f) => {
                let f = &f.bind(self.coll.interner());
                self.each_row(rows, |row, kept| {
                    if self.row_matches(&row, f) {
                        kept.push(row.into_owned());
                    }
                    Ok(())
                })?
            }
            Stage::Project(spec) => self.project_rows(rows, spec)?,
            Stage::Unwind(path) => self.unwind(rows, path)?,
            Stage::Group(spec) => self.group(rows, spec)?,
            Stage::Sort(spec) => {
                let keys: Vec<(&Path, SortOrder)> = spec.iter().map(|(p, o)| (p, *o)).collect();
                self.sort(rows, &keys)?
            }
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
                    let doc =
                        Json::object(vec![(label.as_str().into(), Json::Num(rows.len() as u64))])
                            .expect("single key");
                    self.guard.charge_json(&doc)?;
                    vec![Row::owned(doc)]
                }
            }
        })
    }

    // ---- path resolution over rows ----------------------------------

    /// Resolves a dotted path on a row, honouring overlay bindings. At each
    /// depth, a live binding whose path equals the prefix walked so far
    /// substitutes the current cursor — the **last** such binding wins,
    /// and bindings recorded before it go stale (they addressed the
    /// subtree it replaced; the executor only ever appends a binding at or
    /// below the resolution frontier of earlier ones, so this drop is
    /// exact). If live bindings remain strictly below the final cursor,
    /// the subtree is synthesized as a merged view. Tree steps go through
    /// the bound path's symbols ([`step_node`]); binding paths compare
    /// with the path's prefixes as written (they are the stages' own
    /// paths, never looked up in a table).
    fn resolve<'r>(&self, row: &'r Row<'_>, path: &BoundPath<'_>) -> Option<Resolved<'r>> {
        Some(match self.locate(row, path)? {
            Ok(r) => r,
            Err((cur, live)) => {
                let segs = &path.path().0;
                let below = row.binds.as_slice()[live..]
                    .iter()
                    .filter(|(p, _)| beneath(&p.0, segs))
                    .map(|(p, v)| (&p.0[segs.len()..], *v));
                Resolved::Merged(self.merge(cur, below))
            }
        })
    }

    /// [`Engine::resolve`] short of building a merged view: where one
    /// would be synthesized, `Err` holds its subtree and the index of the
    /// first live binding. `Ok` never holds [`Resolved::Merged`].
    #[allow(clippy::type_complexity)]
    fn locate<'r>(
        &self,
        row: &'r Row<'_>,
        path: &BoundPath<'_>,
    ) -> Option<Result<Resolved<'r>, (DocRef, usize)>> {
        let d = match &row.base {
            Base::Owned(j) => return path.path().resolve(j).map(|j| Ok(Resolved::Owned(j))),
            Base::Node(d) => *d,
        };
        if row.binds.is_empty() {
            let node = path.resolve_node(self.tree(d.seg), d.node)?;
            return Some(Ok(Resolved::Node(DocRef { seg: d.seg, node })));
        }
        let binds = row.binds.as_slice();
        let mut cur = d;
        // Bindings before position `live` are stale.
        let mut live = 0;
        let segs = &path.path().0;
        for depth in 0..=segs.len() {
            let prefix = &segs[..depth];
            if let Some(i) = binds[live..].iter().rposition(|(p, _)| p.0 == prefix) {
                cur = binds[live + i].1;
                live += i + 1;
            }
            if let Some(step) = path.steps().get(depth) {
                cur = DocRef {
                    seg: cur.seg,
                    node: step_node(self.tree(cur.seg), cur.node, step)?,
                };
            }
        }
        if binds[live..].iter().any(|(p, _)| beneath(&p.0, segs)) {
            Some(Err((cur, live)))
        } else {
            Some(Ok(Resolved::Node(cur)))
        }
    }

    /// Materialises `cur` with the surviving bindings written in, in order.
    fn merge<'a>(&self, cur: DocRef, binds: impl Iterator<Item = (&'a [JStr], DocRef)>) -> Json {
        let mut j = self.coll.json_of(cur);
        for (p, v) in binds {
            set_at(&mut j, p, self.coll.json_of(v));
        }
        j
    }

    /// Materialises a whole row (pipeline output, or an owned rebase);
    /// an owned row's document is moved out, a borrowed one's cloned.
    fn materialize(&self, row: Cow<'_, Row<'_>>) -> Json {
        match row {
            Cow::Owned(Row {
                base: Base::Owned(j),
                ..
            }) => j,
            row => match &row.base {
                Base::Owned(j) => j.clone(),
                Base::Node(d) => {
                    self.merge(*d, row.binds.as_slice().iter().map(|(p, v)| (&p.0[..], *v)))
                }
            },
        }
    }

    fn materialize_resolved(&self, r: Resolved<'_>) -> Json {
        match r {
            Resolved::Node(d) => self.coll.json_of(d),
            Resolved::Owned(j) => j.clone(),
            Resolved::Merged(j) => j,
        }
    }

    /// Evaluates a value expression on a row, materialising the result
    /// (a projected value).
    fn eval_expr(&self, row: &Row<'_>, e: &BoundExpr<'_>) -> Option<Json> {
        match e {
            BoundExpr::Const(c) => Some((*c).clone()),
            BoundExpr::Field(p) => self.resolve(row, p).map(|r| self.materialize_resolved(r)),
        }
    }

    /// Keeps a resolved sort key: a pure subtree stays a tree handle,
    /// anything else is materialised.
    fn keep(&self, r: Resolved<'_>) -> Obs {
        match r {
            Resolved::Node(d) => Obs::Node(d),
            other => Obs::Owned(self.materialize_resolved(other)),
        }
    }

    /// [`Json::total_cmp`] over borrowed values, comparing tree handles in
    /// place — across segments too.
    fn cmp_val(&self, a: Val<'_>, b: Val<'_>) -> Ordering {
        match (a, b) {
            (Val::Node(x), Val::Node(y)) => {
                cmp_nodes(self.tree(x.seg), x.node, self.tree(y.seg), y.node)
            }
            (Val::Node(x), Val::Json(v)) => cmp_node_json(self.tree(x.seg), x.node, v),
            (Val::Json(v), Val::Node(y)) => cmp_node_json(self.tree(y.seg), y.node, v).reverse(),
            (Val::Json(v), Val::Json(w)) => v.total_cmp(w),
        }
    }

    /// Materialises a kept observation (once, at group output).
    fn obs_json(&self, o: Obs) -> Json {
        match o {
            Obs::Node(d) => self.coll.json_of(d),
            Obs::Owned(j) => j,
        }
    }

    // ---- $match ------------------------------------------------------

    /// A row's `$match` verdict: a plain tree row is tested where it
    /// stands; any other row walks the same bound filter through
    /// [`Engine::resolve`], which honours overlay bindings.
    fn row_matches(&self, row: &Row<'_>, f: &BoundFilter<'_>) -> bool {
        match &row.base {
            Base::Node(d) if row.binds.is_empty() => f.matches_at(self.tree(d.seg), d.node),
            _ => f.matches_with(&|p| self.resolve(row, p).map(|r| self.operand(r))),
        }
    }

    /// A resolved value as the operand a filter condition tests.
    fn operand<'r>(&self, r: Resolved<'r>) -> Operand<'r>
    where
        'c: 'r,
    {
        match r {
            Resolved::Node(d) => Operand::Node(self.tree(d.seg), d.node),
            Resolved::Owned(j) => Operand::Value(Cow::Borrowed(j)),
            Resolved::Merged(j) => Operand::Value(Cow::Owned(j)),
        }
    }

    // ---- $project ----------------------------------------------------

    /// `$project` over a row vector (parallel chunks, row order kept):
    /// every output row is an owned document.
    fn project_rows<'p>(
        &self,
        rows: Vec<Row<'p>>,
        spec: &[(Path, ProjectField)],
    ) -> Result<Vec<Row<'p>>, QueryError> {
        let spec = &self.bind_project(spec);
        self.each_row(rows, |row, out| {
            let v = self.project(&row, spec);
            self.guard.charge_json(&v)?;
            out.push(Row::owned(v));
            Ok(())
        })
    }

    /// A `$project` spec with its value paths bound (`path: 1` binds the
    /// path itself).
    fn bind_project<'p>(&self, spec: &'p [(Path, ProjectField)]) -> Vec<(&'p Path, BoundExpr<'p>)> {
        spec.iter()
            .map(|(path, field)| {
                let e = match field {
                    ProjectField::Include => BoundExpr::Field(self.bind(path)),
                    ProjectField::Expr(e) => self.bind_expr(e),
                };
                (path, e)
            })
            .collect()
    }

    /// One output document: each `(output path, bound value)` of the
    /// stage's spec, in spec order (`path: 1` binds the path itself).
    fn project(&self, row: &Row<'_>, spec: &[(&Path, BoundExpr<'_>)]) -> Json {
        let mut pairs: Vec<(JStr, Json)> = Vec::new();
        for (path, e) in spec {
            if let Some(v) = self.eval_expr(row, e) {
                insert_path(&mut pairs, &path.0, v);
            }
        }
        Json::object(pairs).expect("insert_path keeps keys distinct")
    }

    // ---- $unwind -----------------------------------------------------

    fn unwind<'p>(&self, rows: Vec<Row<'p>>, path: &'p Path) -> Result<Vec<Row<'p>>, QueryError> {
        let path = &self.bind(path);
        self.each_row(rows, |row, out| {
            let before = out.len();
            self.unwind_into(row.into_owned(), path, out)?;
            self.guard.charge_rows((out.len() - before) as u64)
        })
    }

    /// Unwinds one row, appending its output rows in order; a rebased
    /// owned document is charged to the byte budget as it is made.
    fn unwind_into<'p>(
        &self,
        row: Row<'p>,
        path: &BoundPath<'p>,
        out: &mut Vec<Row<'p>>,
    ) -> Result<(), QueryError> {
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
                        .push((path.path(), DocRef { seg: arr.seg, node }));
                    out.push(unwound);
                }
            }
            Plan::OwnedElems(items) => {
                // The resolve borrow has ended, so the row materialises
                // by move — an owned base is reused, not re-cloned.
                let base = self.materialize(Cow::Owned(row));
                for elem in items {
                    let mut doc = base.clone();
                    set_at(&mut doc, &path.path().0, elem);
                    self.guard.charge_json(&doc)?;
                    out.push(Row::owned(doc));
                }
            }
        }
        Ok(())
    }

    // ---- $group ------------------------------------------------------

    /// `$group`, as a three-phase plan whose serial specialisation (one
    /// chunk) is the defined semantics. Each phase runs in a
    /// [`SpanKind::Phase`] span:
    ///
    /// 1. **Resolution (parallel).** One pass per row resolves each `_id`
    ///    field path ([`key_paths`]) once and each *distinct* accumulator
    ///    operand path once. When every key field resolves to a tree node
    ///    or is missing, the row's key stays unmaterialised: one
    ///    `(segment, class)` pair per field in the chunk's flat buffer,
    ///    plus a representative node; any other row materialises its key
    ///    from the values it already resolved. Each operand lands in its
    ///    path's column as a [`Cell`]: a number as its `u64`, any other
    ///    tree value as a handle, an owned row's value as a borrow, a
    ///    merged view as a marker (never built here).
    /// 2. **Unification barrier (sequential).** Row keys map to global
    ///    group ids through a tuple map. Each distinct tuple materialises
    ///    its value **once** and funnels — together with every
    ///    synthesized key — through one shared `Json`-keyed map, so equal
    ///    keys from different segments (or different representations)
    ///    land in one group. Each chunk also numbers the groups its rows
    ///    reach densely, in first-seen order.
    /// 3. **Fold (parallel) + in-order merge.** Each chunk folds column
    ///    by column — one accumulator over all its rows — into one flat
    ///    state vector indexed `local group × accumulators` (see
    ///    [`Engine::fold`]); the barrier merges chunk states **in chunk
    ///    order**, which restores exact input order for the
    ///    order-sensitive accumulators (`$push`/`$first`/`$last`) and
    ///    plain sums for the rest. Kept observations are tree handles
    ///    until the group's output document materialises them.
    fn group<'p>(&self, rows: Vec<Row<'p>>, spec: &GroupSpec) -> Result<Vec<Row<'p>>, QueryError> {
        self.guard.span_open(SpanKind::Phase, PHASE_RESOLVE);
        let n = rows.len();
        let chunk = self.pool.chunk_for(n, DOC_CHUNK_MIN);
        let paths: Vec<BoundPath<'_>> = key_paths(&spec.id)
            .into_iter()
            .map(|p| self.bind(p))
            .collect();
        let width = paths.len();
        let shared = shared_steps(&paths);
        // The distinct operand paths, one column each.
        let mut cols: Vec<BoundPath<'_>> = Vec::new();
        let srcs: Vec<Src<'_>> = spec
            .accs
            .iter()
            .map(|(_, acc)| match acc_operand(acc) {
                None => Src::Const(Cell::Missing),
                Some(ValueExpr::Const(c)) => {
                    Src::Const(c.as_num().map_or(Cell::Json(c), Cell::Num))
                }
                Some(ValueExpr::Field(p)) => {
                    Src::Col(match cols.iter().position(|b| b.path() == p) {
                        Some(c) => c,
                        None => {
                            cols.push(self.bind(p));
                            cols.len() - 1
                        }
                    })
                }
            })
            .collect();
        if width > 0 {
            // Key resolution reads canon tables; build the reachable
            // missing ones up front.
            self.build_canon_for(&rows)?;
        }

        // Phase 1: per-row key tuples and operand cells, one buffer set
        // per chunk.
        let rows = &rows;
        let mut chunks: Vec<GroupChunk<'_>> =
            self.pool.try_map_chunks(&self.guard, n, chunk, |r| {
                let mut poll = self.guard.poller();
                let len = r.len();
                let mut ck = GroupChunk {
                    keys: Vec::with_capacity(len),
                    classes: Vec::with_capacity(len * width),
                    nodes: Vec::with_capacity(len * width),
                    cells: vec![Cell::Missing; len * cols.len()],
                    local: Vec::new(),
                    globals: Vec::new(),
                };
                for (k, i) in r.enumerate() {
                    poll.tick()?;
                    let row = &rows[i];
                    let key = self.row_key(row, &paths, shared, &spec.id, &mut ck);
                    ck.keys.push(key);
                    for (c, p) in cols.iter().enumerate() {
                        ck.cells[c * len + k] = match self.locate(row, p) {
                            None => Cell::Missing,
                            Some(Ok(Resolved::Node(d))) => self
                                .tree(d.seg)
                                .num_value(d.node)
                                .map_or(Cell::Node(d), Cell::Num),
                            Some(Ok(Resolved::Owned(j))) => {
                                j.as_num().map_or(Cell::Json(j), Cell::Num)
                            }
                            Some(Ok(Resolved::Merged(_)) | Err(_)) => Cell::Merged(p),
                        };
                    }
                }
                Ok(ck)
            })?;
        self.guard.span_close(SpanKind::Phase, PHASE_RESOLVE);

        // Phase 2: the unification barrier. Every *distinct* group key
        // materialises exactly once, and is charged to the byte budget at
        // that moment (the per-row tuples carry no new allocation).
        self.guard.span_open(SpanKind::Phase, PHASE_UNIFY);
        let mut by_json: FxHashMap<Option<Json>, u32> = FxHashMap::default();
        let mut by_tuple: FxHashMap<Box<[(u32, u32)]>, u32> = FxHashMap::default();
        let mut group_keys: Vec<Option<Json>> = Vec::new();
        let guard = &self.guard;
        let mut slot =
            |key: Option<Json>, group_keys: &mut Vec<Option<Json>>| -> Result<u32, QueryError> {
                if let Some(&gi) = by_json.get(&key) {
                    return Ok(gi);
                }
                if let Some(k) = &key {
                    guard.charge_json(k)?;
                }
                let gi = group_keys.len() as u32;
                by_json.insert(key.clone(), gi);
                group_keys.push(key);
                Ok(gi)
            };
        // Per global group: its local id + 1 in the current chunk (0 =
        // not reached yet), reset after each chunk.
        let mut local_of: Vec<u32> = Vec::new();
        let mut poll = self.guard.poller();
        for ck in &mut chunks {
            ck.local.reserve_exact(ck.keys.len());
            let mut at = 0;
            for key in std::mem::take(&mut ck.keys) {
                poll.tick()?;
                let gi = match key {
                    RowKey::Owned(key) => slot(key, &mut group_keys)?,
                    RowKey::Tuple => {
                        let tuple = &ck.classes[at..at + width];
                        at += width;
                        match by_tuple.get(tuple) {
                            Some(&gi) => gi,
                            None => {
                                let values = self.tuple_json(tuple, &ck.nodes[at - width..at]);
                                let gi = slot(assemble_key(&spec.id, values), &mut group_keys)?;
                                by_tuple.insert(tuple.into(), gi);
                                gi
                            }
                        }
                    }
                };
                local_of.resize(group_keys.len(), 0);
                let l = &mut local_of[gi as usize];
                if *l == 0 {
                    ck.globals.push(gi);
                    *l = ck.globals.len() as u32;
                }
                ck.local.push(*l - 1);
            }
            for &gi in &ck.globals {
                local_of[gi as usize] = 0;
            }
        }
        let n_groups = group_keys.len();
        self.guard.span_close(SpanKind::Phase, PHASE_UNIFY);

        // Phase 3: per-chunk column-at-a-time folds into dense state,
        // merged in chunk order.
        self.guard.span_open(SpanKind::Phase, PHASE_FOLD);
        let accs = spec.accs.len();
        let fresh = |groups: usize| -> Vec<AccState> {
            (0..groups)
                .flat_map(|_| spec.accs.iter().map(|(_, a)| AccState::new(a)))
                .collect()
        };
        let partials: Vec<Vec<AccState>> =
            self.pool.try_map_chunks(&self.guard, n, chunk, |r| {
                let ck = &chunks[r.start / chunk];
                let len = r.len();
                let mut state = fresh(ck.globals.len());
                let mut poll = self.guard.poller();
                for (a, src) in srcs.iter().enumerate() {
                    for (k, &l) in ck.local.iter().enumerate() {
                        poll.tick()?;
                        let cell = match src {
                            Src::Const(c) => *c,
                            Src::Col(c) => ck.cells[c * len + k],
                        };
                        self.fold(&mut state[l as usize * accs + a], cell, &rows[r.start + k])?;
                    }
                }
                Ok(state)
            })?;
        let mut states = fresh(n_groups);
        for (ck, part) in chunks.iter().zip(partials) {
            for (i, s) in part.into_iter().enumerate() {
                let gi = ck.globals[i / accs] as usize;
                self.absorb(&mut states[gi * accs + i % accs], s);
            }
        }
        // The row columns are done with; free them before the outputs
        // materialise.
        drop(chunks);

        // Deterministic output order: missing key first, then total order.
        let mut groups: Vec<(Option<Json>, usize)> = group_keys.into_iter().zip(0..).collect();
        groups.sort_by(|a, b| cmp_opt_json(&a.0, &b.0));
        let mut out = Vec::with_capacity(groups.len());
        for (id, gi) in groups {
            let mut pairs: Vec<(JStr, Json)> = Vec::new();
            if let Some(idj) = id {
                pairs.push(("_id".into(), idj));
            }
            for (a, (name, _)) in spec.accs.iter().enumerate() {
                let state = std::mem::replace(&mut states[gi * accs + a], AccState::Count(0));
                if let Some(v) = self.finish(state) {
                    pairs.push((name.as_str().into(), v));
                }
            }
            let doc = Json::object(pairs).expect("parser validated distinct names");
            self.guard.charge_json(&doc)?;
            out.push(Row::owned(doc));
        }
        self.guard.span_close(SpanKind::Phase, PHASE_FOLD);
        Ok(out)
    }

    /// Resolves a row's `$group` key, each field path once. The first
    /// `shared` steps, which every field path has in common
    /// ([`shared_steps`]), are walked once per row on a plain tree row
    /// (no owned base, no binding), and each path goes on from there.
    /// While every field is a tree node or missing, the key is a tuple
    /// appended to the chunk's `classes`/`nodes`; at the first owned or
    /// merged field the tuple so far is taken back and the key
    /// materialises from the values already resolved plus the remaining
    /// fields.
    fn row_key(
        &self,
        row: &Row<'_>,
        paths: &[BoundPath<'_>],
        shared: usize,
        id: &IdExpr,
        ck: &mut GroupChunk<'_>,
    ) -> RowKey {
        let walk = |d: DocRef, steps: &[Step]| {
            let tree = self.tree(d.seg);
            let node = steps
                .iter()
                .try_fold(d.node, |at, s| step_node(tree, at, s))?;
            Some(DocRef { seg: d.seg, node })
        };
        let prefix = match &row.base {
            Base::Node(d) if shared > 0 && row.binds.is_empty() => {
                Some(walk(*d, &paths[0].steps()[..shared]))
            }
            _ => None,
        };
        let at = ck.classes.len();
        for (j, p) in paths.iter().enumerate() {
            let resolved = match prefix {
                Some(from) => from
                    .and_then(|d| walk(d, &p.steps()[shared..]))
                    .map(Resolved::Node),
                None => self.resolve(row, p),
            };
            match resolved {
                Some(Resolved::Node(d)) => {
                    ck.classes
                        .push((d.seg, self.tree(d.seg).canon().class_of(d.node)));
                    ck.nodes.push(d.node);
                }
                None => {
                    ck.classes.push(MISSING);
                    ck.nodes.push(NodeId::from_index(0));
                }
                Some(owned) => {
                    let before = self.tuple_json(&ck.classes[at..], &ck.nodes[at..]);
                    let rest = paths[j + 1..]
                        .iter()
                        .map(|p| self.resolve(row, p).map(|r| self.materialize_resolved(r)));
                    let values = before
                        .chain(std::iter::once(Some(self.materialize_resolved(owned))))
                        .chain(rest);
                    let key = assemble_key(id, values);
                    ck.classes.truncate(at);
                    ck.nodes.truncate(at);
                    return RowKey::Owned(key);
                }
            }
        }
        RowKey::Tuple
    }

    /// Materialises key tuple entries (`None` for a missing field).
    fn tuple_json<'a>(
        &'a self,
        classes: &'a [(u32, u32)],
        nodes: &'a [NodeId],
    ) -> impl Iterator<Item = Option<Json>> + 'a {
        classes.iter().zip(nodes).map(|(&(seg, c), &node)| {
            ((seg, c) != MISSING).then(|| self.coll.json_of(DocRef { seg, node }))
        })
    }

    /// Folds one row's observation into an accumulator's state (`$count`
    /// ignores the cell). Numbers fold as plain `u64`s: `$sum`/`$avg` add
    /// them and skip everything else, and `$min`/`$max` keep the best
    /// number apart from the best other value ([`Extreme`]).
    /// `$push`/`$first`/`$last` keep handles. A merged-view cell is built
    /// from `row` only by the accumulators that keep or compare it.
    fn fold(&self, state: &mut AccState, cell: Cell<'_>, row: &Row<'_>) -> Result<(), QueryError> {
        match state {
            AccState::Count(n) => *n += 1,
            AccState::Sum(total) => {
                if let Cell::Num(x) = cell {
                    *total += u128::from(x);
                }
            }
            AccState::Avg { sum, count } => {
                if let Cell::Num(x) = cell {
                    *sum += u128::from(x);
                    *count += 1;
                }
            }
            AccState::Min(best) => self.offer(best, cell, row, Ordering::Less),
            AccState::Max(best) => self.offer(best, cell, row, Ordering::Greater),
            AccState::Push(items) => {
                // `$push` is the one accumulator with unbounded state: every
                // retained element is charged to the byte budget, at what
                // its materialised value will cost.
                if let Some(o) = self.obs(cell, row) {
                    self.charge_obs(&o)?;
                    items.push(o);
                }
            }
            AccState::First(slot) => {
                if slot.is_none() {
                    *slot = self.obs(cell, row);
                }
            }
            AccState::Last(slot) => {
                if let Some(o) = self.obs(cell, row) {
                    *slot = Some(o);
                }
            }
        }
        Ok(())
    }

    /// Offers a `$min`/`$max` candidate. A number competes with the best
    /// number by plain `u64` comparison; any other value displaces the
    /// best other value only when it compares strictly `want`, in place —
    /// a tree candidate is kept as a handle, an owned row's value is
    /// cloned only when it wins, and a merged view is built, compared and
    /// kept or dropped.
    fn offer(&self, best: &mut Extreme, cell: Cell<'_>, row: &Row<'_>, want: Ordering) {
        let wins = |val: Val<'_>| {
            best.other
                .as_ref()
                .is_none_or(|b| self.cmp_val(val, b.as_val()) == want)
        };
        match cell {
            Cell::Missing => {}
            Cell::Num(x) => best.offer_num(x, want),
            Cell::Node(d) => {
                if wins(Val::Node(d)) {
                    best.other = Some(Obs::Node(d));
                }
            }
            Cell::Json(j) => {
                if wins(Val::Json(j)) {
                    best.other = Some(Obs::Owned(j.clone()));
                }
            }
            Cell::Merged(p) => {
                let j = self.view(row, p);
                if wins(Val::Json(&j)) {
                    best.other = Some(Obs::Owned(j));
                }
            }
        }
    }

    /// A cell as a kept observation: a tree value stays a handle, a number
    /// or an owned value is owned, and a merged view is built from `row`.
    fn obs(&self, cell: Cell<'_>, row: &Row<'_>) -> Option<Obs> {
        match cell {
            Cell::Missing => None,
            Cell::Num(x) => Some(Obs::Owned(Json::Num(x))),
            Cell::Node(d) => Some(Obs::Node(d)),
            Cell::Json(j) => Some(Obs::Owned(j.clone())),
            Cell::Merged(p) => Some(Obs::Owned(self.view(row, p))),
        }
    }

    /// Builds the merged view phase 1 located at `path` on `row`.
    fn view(&self, row: &Row<'_>, path: &BoundPath<'_>) -> Json {
        let r = self.resolve(row, path).expect("phase 1 located a view");
        self.materialize_resolved(r)
    }

    /// Folds `later` — the state accumulated over a *later* contiguous row
    /// range — into `dst`. Merging chunk states in chunk order is exactly
    /// the sequential fold: sums/counts add, min/max compare (ties keep
    /// the earlier observation, as the sequential fold does), `$push`
    /// concatenates, `$first` keeps the earliest observation and `$last`
    /// the latest.
    fn absorb(&self, dst: &mut AccState, later: AccState) {
        match (dst, later) {
            (AccState::Sum(a), AccState::Sum(b)) => *a += b,
            (AccState::Avg { sum, count }, AccState::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            (AccState::Min(a), AccState::Min(b)) => self.absorb_extreme(a, b, Ordering::Less),
            (AccState::Max(a), AccState::Max(b)) => self.absorb_extreme(a, b, Ordering::Greater),
            (AccState::Count(a), AccState::Count(b)) => *a += b,
            (AccState::Push(a), AccState::Push(b)) => {
                if a.is_empty() {
                    *a = b;
                } else {
                    a.extend(b);
                }
            }
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

    /// The `$min`/`$max` merge rule: the best numbers compare as `u64`s,
    /// and the later best other value is taken only when it strictly
    /// beats the earlier one (a tie keeps the earlier observation,
    /// matching the sequential fold's strict-comparison displacement).
    fn absorb_extreme(&self, dst: &mut Extreme, later: Extreme, want: Ordering) {
        if let Some(x) = later.num {
            dst.offer_num(x, want);
        }
        if let Some(v) = later.other {
            let take = dst
                .other
                .as_ref()
                .is_none_or(|d| self.cmp_val(v.as_val(), d.as_val()) == want);
            if take {
                dst.other = Some(v);
            }
        }
    }

    /// The output value, or `None` for empty-observation accumulators
    /// whose field is omitted (the fragment has no `null`). Kept handles
    /// materialise here, once each. Numbers rank below every other kind,
    /// so `$min` prefers its best number and `$max` its best other value.
    fn finish(&self, state: AccState) -> Option<Json> {
        match state {
            AccState::Sum(total) => Some(Json::Num(saturate(total))),
            AccState::Avg { count: 0, .. } => None,
            AccState::Avg { sum, count } => Some(Json::Num(saturate(sum / count as u128))),
            AccState::Min(e) => e
                .num
                .map(Json::Num)
                .or_else(|| e.other.map(|o| self.obs_json(o))),
            AccState::Max(e) => e.other.map(|o| self.obs_json(o)).or(e.num.map(Json::Num)),
            AccState::First(v) | AccState::Last(v) => v.map(|o| self.obs_json(o)),
            AccState::Count(n) => Some(Json::Num(n)),
            AccState::Push(items) => Some(Json::Array(
                items.into_iter().map(|o| self.obs_json(o)).collect(),
            )),
        }
    }

    // ---- $sort -------------------------------------------------------

    /// Resolves the sort keys of every row (parallel chunks, row order
    /// preserved) — the per-row half both [`Engine::sort`] and
    /// [`Engine::top_k`] share. A key that resolves to a pure subtree
    /// stays a tree handle; only a synthesized one (an owned row's field,
    /// a merged view) is owned. The buffer lives until the sort completes,
    /// so each key is charged as part of the query's working set, at what
    /// its materialised value would cost.
    fn sort_keys<'s>(
        &'s self,
        rows: &[Row<'_>],
        by: &'s [(&Path, SortOrder)],
    ) -> Result<SortKeys<'s, 'c>, QueryError> {
        let paths: Vec<BoundPath<'_>> = by.iter().map(|(p, _)| self.bind(p)).collect();
        let n = rows.len();
        let chunk = self.pool.chunk_for(n, DOC_CHUNK_MIN);
        let keys = self.pool.try_flat_map_chunks(&self.guard, n, chunk, |r| {
            let mut poll = self.guard.poller();
            let mut out = Vec::with_capacity(r.len() * paths.len());
            for i in r {
                poll.tick()?;
                for p in &paths {
                    let k = self.resolve(&rows[i], p).map(|x| self.keep(x));
                    if let Some(k) = &k {
                        self.charge_obs(k)?;
                    }
                    out.push(k);
                }
            }
            Ok(out)
        })?;
        Ok(SortKeys {
            engine: self,
            by,
            keys,
        })
    }

    fn sort<'p>(
        &self,
        rows: Vec<Row<'p>>,
        by: &[(&Path, SortOrder)],
    ) -> Result<Vec<Row<'p>>, QueryError> {
        // The rows stay cursors; the comparison sort runs sequentially on
        // the merged stream, over row positions.
        let keys = self.sort_keys(&rows, by)?;
        let mut keyed: Vec<(usize, Row<'p>)> = rows.into_iter().enumerate().collect();
        // Stable, so equal-key rows keep their input order.
        keyed.sort_by(|(a, _), (b, _)| keys.cmp(*a, *b));
        Ok(keyed.into_iter().map(|(_, row)| row).collect())
    }

    /// A top-k block ([`TopK`]): returns `stable_sort(rows)[skip ..
    /// skip + limit]` while retaining only `skip + limit` rows at a time,
    /// then runs the block's late `$project` on those survivors.
    ///
    /// Correctness rests on `(sort keys, input position)` being a *total*
    /// order: the bounded max-heap keeps the `skip + limit` least rows
    /// under it, and sorting those ascending is exactly the first
    /// `skip + limit` rows of the full stable sort (ties resolved by input
    /// position = stability). `jagg::reference` runs the unfused full
    /// sort as the oracle; the differential suite pins equality including
    /// tie cases.
    fn top_k<'p>(&self, rows: Vec<Row<'p>>, tk: &TopK<'_>) -> Result<Vec<Row<'p>>, QueryError> {
        let kept = self.heap_select(
            rows,
            &tk.keys,
            tk.skip.map_or(0, clamp_len),
            clamp_len(tk.limit),
        )?;
        match tk.project {
            Some(spec) => self.project_rows(kept, spec),
            None => Ok(kept),
        }
    }

    /// The bounded-heap half of [`Engine::top_k`].
    fn heap_select<'p>(
        &self,
        rows: Vec<Row<'p>>,
        by: &[(&Path, SortOrder)],
        skip: usize,
        limit: usize,
    ) -> Result<Vec<Row<'p>>, QueryError> {
        let keep = skip.saturating_add(limit);
        if keep == 0 || rows.is_empty() {
            return Ok(Vec::new());
        }
        if keep >= rows.len() {
            // The heap would hold everything: the full sort is cheaper.
            let mut out = self.sort(rows, by)?;
            out.drain(..skip.min(out.len()));
            out.truncate(limit);
            return Ok(out);
        }
        let keys = self.sort_keys(&rows, by)?;
        // A max-heap of the `keep` least entries under [`TopEnt`]'s total
        // `(keys, seq)` order: the root is the worst kept row, displaced
        // whenever a strictly-earlier-ordering row arrives (`PeekMut`
        // restores the heap on drop).
        let mut heap = std::collections::BinaryHeap::with_capacity(keep);
        let mut poll = self.guard.poller();
        for (seq, row) in rows.into_iter().enumerate() {
            poll.tick()?;
            let ent = TopEnt {
                keys: &keys,
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

    /// Charges a kept observation to the byte budget, at what its
    /// materialised value will cost.
    fn charge_obs(&self, o: &Obs) -> Result<(), QueryError> {
        match o {
            Obs::Node(d) => self.guard.charge_node(self.tree(d.seg), d.node),
            Obs::Owned(j) => self.guard.charge_json(j),
        }
    }
}

/// The sort keys of a row vector, in one flat row-major buffer: row `i`'s
/// keys are `keys[i * k .. (i + 1) * k]` for `k` sort keys (`None` = the
/// key is missing on the row).
struct SortKeys<'s, 'c> {
    engine: &'s Engine<'c>,
    by: &'s [(&'s Path, SortOrder)],
    keys: Vec<Option<Obs>>,
}

impl SortKeys<'_, '_> {
    /// The `$sort` order of rows `a` and `b`: the first key that differs
    /// decides, honouring its direction. A missing key sorts before every
    /// present one; present keys compare under [`Json::total_cmp`], tree
    /// handles in place ([`Engine::cmp_val`]).
    fn cmp(&self, a: usize, b: usize) -> Ordering {
        let k = self.by.len();
        let (ka, kb) = (
            &self.keys[a * k..(a + 1) * k],
            &self.keys[b * k..(b + 1) * k],
        );
        for ((x, y), (_, order)) in ka.iter().zip(kb).zip(self.by) {
            let ord = match (x, y) {
                (None, None) => Ordering::Equal,
                (None, Some(_)) => Ordering::Less,
                (Some(_), None) => Ordering::Greater,
                (Some(x), Some(y)) => self.engine.cmp_val(x.as_val(), y.as_val()),
            };
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
}

/// One candidate row of `Engine::heap_select`'s bounded heap, ordered by
/// the stable `(sort keys, input position)` total order — the row itself
/// does not participate in comparisons.
struct TopEnt<'k, 'c, 'p> {
    keys: &'k SortKeys<'k, 'c>,
    seq: usize,
    row: Row<'p>,
}

impl PartialEq for TopEnt<'_, '_, '_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for TopEnt<'_, '_, '_> {}

impl PartialOrd for TopEnt<'_, '_, '_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TopEnt<'_, '_, '_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.keys
            .cmp(self.seq, other.seq)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Accumulator state (one per `(group, accumulator)` pair).
enum AccState {
    Sum(u128),
    Avg { sum: u128, count: u64 },
    Min(Extreme),
    Max(Extreme),
    Count(u64),
    Push(Vec<Obs>),
    First(Option<Obs>),
    Last(Option<Obs>),
}

impl AccState {
    fn new(acc: &Accumulator) -> AccState {
        match acc {
            Accumulator::Sum(_) => AccState::Sum(0),
            Accumulator::Avg(_) => AccState::Avg { sum: 0, count: 0 },
            Accumulator::Min(_) => AccState::Min(Extreme::default()),
            Accumulator::Max(_) => AccState::Max(Extreme::default()),
            Accumulator::Count => AccState::Count(0),
            Accumulator::Push(_) => AccState::Push(Vec::new()),
            Accumulator::First(_) => AccState::First(None),
            Accumulator::Last(_) => AccState::Last(None),
        }
    }
}

/// A `$min`/`$max` state under the total order's rank rule: numbers rank
/// below every other kind, so the best number and the best other value
/// fold apart and [`Engine::finish`] picks by rank. Equal numbers are
/// equal values, so which observation a number tie keeps is unobservable.
#[derive(Default)]
struct Extreme {
    num: Option<u64>,
    other: Option<Obs>,
}

impl Extreme {
    /// Offers a number: it displaces the best number when it compares
    /// `want` as a plain `u64`.
    fn offer_num(&mut self, x: u64, want: Ordering) {
        if self.num.is_none_or(|m| x.cmp(&m) == want) {
            self.num = Some(x);
        }
    }
}

/// Assembles a `$group` key from the values at its [`key_paths`], in
/// that order (`None` = the path is missing on the row). A compound key
/// omits its missing fields; a bare `"$path"` key that is missing is the
/// missing-key group, `None`.
fn assemble_key(id: &IdExpr, mut values: impl Iterator<Item = Option<Json>>) -> Option<Json> {
    let mut next = || values.next().expect("one value per key path");
    match id {
        IdExpr::Const(c) => Some(c.clone()),
        IdExpr::Field(_) => next(),
        IdExpr::Doc(fields) => {
            let mut pairs: Vec<(JStr, Json)> = Vec::new();
            for (name, e) in fields {
                let v = match e {
                    ValueExpr::Const(c) => Some(c.clone()),
                    ValueExpr::Field(_) => next(),
                };
                if let Some(v) = v {
                    pairs.push((name.as_str().into(), v));
                }
            }
            Some(Json::object(pairs).expect("parser validated distinct names"))
        }
    }
}

/// Whether a binding at `bind` lies strictly beneath the path `segs`.
fn beneath(bind: &[JStr], segs: &[JStr]) -> bool {
    bind.len() > segs.len() && bind.starts_with(segs)
}

/// How many leading steps every `$group` key path has in common, when
/// there are two or more: `{"f": "$name.first", "l": "$name.last"}`
/// shares the one step `name`.
fn shared_steps(paths: &[BoundPath<'_>]) -> usize {
    let [first, rest @ ..] = paths else {
        return 0;
    };
    if rest.is_empty() {
        return 0;
    }
    let segs = &first.path().0;
    (0..segs.len())
        .take_while(|&k| rest.iter().all(|p| p.path().0.get(k) == Some(&segs[k])))
        .count()
}

/// The field paths a `$group` `_id` reads, in id order: none for a
/// constant, the path of `"$path"`, and the path fields of a compound
/// document (its constant fields are the same on every row). A row's key
/// is a function of the values at these paths.
fn key_paths(id: &IdExpr) -> Vec<&Path> {
    match id {
        IdExpr::Const(_) => Vec::new(),
        IdExpr::Field(p) => vec![p],
        IdExpr::Doc(fields) => fields
            .iter()
            .filter_map(|(_, e)| match e {
                ValueExpr::Field(p) => Some(p),
                ValueExpr::Const(_) => None,
            })
            .collect(),
    }
}

/// The value expression an accumulator observes (`None` for `$count`).
fn acc_operand(acc: &Accumulator) -> Option<&ValueExpr> {
    match acc {
        Accumulator::Sum(e)
        | Accumulator::Avg(e)
        | Accumulator::Min(e)
        | Accumulator::Max(e)
        | Accumulator::Push(e)
        | Accumulator::First(e)
        | Accumulator::Last(e) => Some(e),
        Accumulator::Count => None,
    }
}

/// Appends a stage's actuals to the trace, if there is one.
fn record(
    trace: &mut Option<&mut Vec<StageActual>>,
    label: &'static str,
    rows_out: usize,
    wall_us: u64,
) {
    if let Some(tr) = trace {
        tr.push(StageActual {
            label,
            rows_out,
            wall_us,
        });
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
fn saturate(n: u128) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Clamps a `$skip`/`$limit` operand into `usize` without wrapping (a
/// 32-bit target must treat an oversized operand as "everything", not as
/// its truncated low bits).
pub(crate) fn clamp_len(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// `None` (missing) sorts before every present value; present values
/// compare under [`Json::total_cmp`].
fn cmp_opt_json(a: &Option<Json>, b: &Option<Json>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => x.total_cmp(y),
    }
}

/// Replaces the value at an existing dotted path inside an owned document
/// (resolution mirrors [`Path::resolve`]; a path that does not resolve is
/// a no-op). The value-based reference executor has its own transcription
/// (`reference::replace`), so the two are checked against each other.
fn set_at(root: &mut Json, path: &[JStr], value: Json) {
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
