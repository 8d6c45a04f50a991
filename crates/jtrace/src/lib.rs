//! # jtrace — per-query observability primitives
//!
//! The stack answers a single query by several distinct means (index
//! probe, parallel scan, `jstat`-pruned pipelines, and the whole-tree JNL
//! oracle), but which one ran and what it touched is invisible at
//! runtime. This crate is the substrate that makes it visible:
//!
//! * [`QueryMetrics`] — a sink of **sharded atomic counters** (documents
//!   scanned, rows emitted, index probes, …) that rides on
//!   `jguard::QueryCtx` so every `*_with_ctx` query path records for free.
//!   A query with no sink attached pays exactly one branch per would-be
//!   record, the same null-cost pattern as the unlimited `QueryCtx`.
//! * a **panic audit log** on the same sink: `jpar`'s chunk containment
//!   reports which chunk panicked and with what payload, so an
//!   injected-fault storm is auditable after the fact.
//! * [`SpanLog`] — a lock-free **flight-recorder ring** of open/close span
//!   events (parse / plan / probe / stage / chunk scopes) with
//!   monotonic-nanosecond timestamps, dumpable as Chrome-trace JSON for
//!   offline flame inspection.
//!
//! This crate is dependency-free and sits below `jguard` in the workspace
//! graph; it never allocates on the record path (counters are plain
//! `fetch_add`s, span slots are preallocated) except for the rare panic
//! event, which owns its payload string.
//!
//! ## Counter semantics and determinism
//!
//! Counters are **work** counters, not **schedule** counters, wherever the
//! work itself is deterministic: on a fixed collection and query,
//! [`Counter::DocsScanned`], [`Counter::RowsEmitted`] and
//! [`Counter::IndexProbes`] totals are invariant across thread counts and
//! storage layouts — each unit of work is recorded exactly once no matter
//! which worker performs it. Schedule-dependent counters
//! ([`Counter::ChunksDispatched`], [`Counter::ChunksStolen`],
//! [`Counter::Polls`]) are explicitly exempt from that guarantee: they
//! describe how the work was carved up, which legitimately varies with the
//! pool size. `docs/observability.md` pins the full contract.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------
// Counter vocabulary
// ---------------------------------------------------------------------

/// The fixed counter vocabulary. Each variant indexes one atomic slot per
/// shard; the recording sites are documented per variant so a reader of a
/// [`Snapshot`] knows exactly what a count means.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Documents tested by the parallel **scan** route (the
    /// `Collection::find_refs_via_scan_with_ctx` chunk loops, which start
    /// at `Collection::scan_start`). Zero when
    /// a query was answered entirely by index probes or by the
    /// whole-tree JNL oracle.
    DocsScanned = 0,
    /// Rows charged to the row budget: matching refs emitted by
    /// scan/index/JNL matching, plus `$unwind` row production.
    RowsEmitted,
    /// Index probes executed (one per index-answerable conjunct, not per
    /// segment). Zero when the planner chose the scan.
    IndexProbes,
    /// Segments whose postings an index probe read past their value
    /// fence, recorded once per probe: every segment for a range probe;
    /// for an `$eq`, the segments whose fence admits the constant (all
    /// of them for a non-number); for an `$in`, those that admit any
    /// item. Depends on the segment layout, unlike `IndexProbes`.
    SegmentsProbed,
    /// Doc-bitmap AND operations performed while intersecting probe
    /// results.
    BitmapIntersections,
    /// Residual predicate evaluations: probe survivors tested against the
    /// residual conjuncts (a bound filter, `BoundFilter::matches_at`).
    /// Zero when the probes answer the whole filter.
    ResidualEvals,
    /// Segments evaluated by the whole-tree **JNL** oracle
    /// (`Collection::find_refs_via_jnl_with_ctx`, Proposition 1
    /// evaluation). Zero on the scan and index routes.
    SegmentsVisited,
    /// Per-query DFA symbol bitsets built: first sights of a regex inside
    /// `jnl::eval` that determinise under the state cap (a regex that
    /// falls back to the memo builds none).
    DfaBitsetBuilds,
    /// `CanonTable` constructions performed on behalf of the query
    /// (`$group` key classing, governed JNL evaluation). A segment keeps
    /// its table once built, so this is at most one per segment over the
    /// segment's lifetime, and 0 on an indexed collection.
    CanonBuilds,
    /// Bytes debited from the byte budget (only charged when a byte budget
    /// is configured — see `jguard::QueryCtx::charge_json`).
    BytesCharged,
    /// Governance poll checks that actually ran (deadline/cancel/fault
    /// inspections after stride amortisation).
    Polls,
    /// Parallel chunks claimed from the work-stealing counter
    /// (schedule-dependent).
    ChunksDispatched,
    /// Chunks claimed by a spawned worker rather than the calling thread
    /// (schedule-dependent; zero on serial execution).
    ChunksStolen,
    /// Panics contained by `jpar::contain`, in a pool chunk or by an
    /// entry point's net outside any chunk (each also appends a
    /// [`PanicEvent`]).
    WorkerPanics,
}

/// Number of counters in the vocabulary.
pub const NUM_COUNTERS: usize = 14;

/// Every counter, in slot order.
pub const ALL_COUNTERS: [Counter; NUM_COUNTERS] = [
    Counter::DocsScanned,
    Counter::RowsEmitted,
    Counter::IndexProbes,
    Counter::SegmentsProbed,
    Counter::BitmapIntersections,
    Counter::ResidualEvals,
    Counter::SegmentsVisited,
    Counter::DfaBitsetBuilds,
    Counter::CanonBuilds,
    Counter::BytesCharged,
    Counter::Polls,
    Counter::ChunksDispatched,
    Counter::ChunksStolen,
    Counter::WorkerPanics,
];

impl Counter {
    /// Stable snake-case identifier, used as the JSON key in snapshots,
    /// explain output and the bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DocsScanned => "docs_scanned",
            Counter::RowsEmitted => "rows_emitted",
            Counter::IndexProbes => "index_probes",
            Counter::SegmentsProbed => "segments_probed",
            Counter::BitmapIntersections => "bitmap_intersections",
            Counter::ResidualEvals => "residual_evals",
            Counter::SegmentsVisited => "segments_visited",
            Counter::DfaBitsetBuilds => "dfa_bitset_builds",
            Counter::CanonBuilds => "canon_builds",
            Counter::BytesCharged => "bytes_charged",
            Counter::Polls => "polls",
            Counter::ChunksDispatched => "chunks_dispatched",
            Counter::ChunksStolen => "chunks_stolen",
            Counter::WorkerPanics => "worker_panics",
        }
    }
}

// ---------------------------------------------------------------------
// Sharded sink
// ---------------------------------------------------------------------

/// Shard count (power of two). Each thread is pinned to one shard by a
/// process-wide round-robin assignment, so concurrent workers rarely
/// contend on the same cache line.
const SHARDS: usize = 16;

#[repr(align(128))]
#[derive(Default)]
struct Shard {
    slots: [AtomicU64; NUM_COUNTERS],
}

/// Returns this thread's shard index (assigned round-robin on first use,
/// cached in a thread-local thereafter).
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    IDX.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
            c.set(v);
            v
        }
    })
}

/// One panic contained by `jpar::contain`, preserved for post-hoc audit:
/// which chunk died and what the payload said.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanicEvent {
    /// Index of the chunk whose worker panicked (`usize::MAX` when the
    /// panic was contained outside any chunk, by an entry point's net).
    pub chunk: usize,
    /// The panic payload, downcast to a string where possible.
    pub payload: String,
}

/// The per-query metrics sink: sharded atomic counters plus the panic
/// audit log and an optional [`SpanLog`]. Cheap to share (`Arc`), safe to
/// record into from any number of worker threads concurrently.
///
/// Recording is wait-free (`fetch_add` on this thread's shard); reading
/// ([`QueryMetrics::snapshot`]) sums shards and may observe a mid-flight
/// query's partial totals — exact totals require quiescence, which every
/// caller in this workspace has (snapshots are taken after the governed
/// call returns).
pub struct QueryMetrics {
    shards: Vec<Shard>,
    panics: Mutex<Vec<PanicEvent>>,
    spans: Option<SpanLog>,
}

impl Default for QueryMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for QueryMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryMetrics")
            .field("snapshot", &self.snapshot().nonzero())
            .field("spans", &self.spans.is_some())
            .finish()
    }
}

impl QueryMetrics {
    /// A counters-only sink (no span ring).
    pub fn new() -> Self {
        QueryMetrics {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            panics: Mutex::new(Vec::new()),
            spans: None,
        }
    }

    /// A sink that also records spans into a ring of `capacity` slots
    /// (rounded up to a power of two; oldest events are overwritten once
    /// the ring wraps).
    pub fn with_spans(capacity: usize) -> Self {
        QueryMetrics {
            spans: Some(SpanLog::new(capacity)),
            ..QueryMetrics::new()
        }
    }

    /// Adds `n` to a counter on this thread's shard.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.shards[shard_index()].slots[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current total for one counter (sum over shards).
    pub fn get(&self, counter: Counter) -> u64 {
        self.shards
            .iter()
            .map(|s| s.slots[counter as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot of every counter total.
    pub fn snapshot(&self) -> Snapshot {
        let mut counts = [0u64; NUM_COUNTERS];
        for shard in &self.shards {
            for (i, slot) in shard.slots.iter().enumerate() {
                counts[i] += slot.load(Ordering::Relaxed);
            }
        }
        Snapshot { counts }
    }

    /// Appends a contained-panic event (and bumps
    /// [`Counter::WorkerPanics`]).
    pub fn record_panic(&self, chunk: usize, payload: &str) {
        self.add(Counter::WorkerPanics, 1);
        // A poisoned lock only means another recorder panicked while
        // appending; the Vec is still structurally sound.
        let mut log = self.panics.lock().unwrap_or_else(|e| e.into_inner());
        log.push(PanicEvent {
            chunk,
            payload: payload.to_owned(),
        });
    }

    /// The contained-panic audit log, in record order.
    pub fn panic_events(&self) -> Vec<PanicEvent> {
        self.panics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The span ring, if this sink was built with one.
    pub fn spans(&self) -> Option<&SpanLog> {
        self.spans.as_ref()
    }

    /// Records a span-open event (no-op without a span ring).
    #[inline]
    pub fn span_open(&self, kind: SpanKind, arg: u32) {
        if let Some(s) = &self.spans {
            s.record(kind, SpanPhase::Open, arg);
        }
    }

    /// Records a span-close event (no-op without a span ring).
    #[inline]
    pub fn span_close(&self, kind: SpanKind, arg: u32) {
        if let Some(s) = &self.spans {
            s.record(kind, SpanPhase::Close, arg);
        }
    }
}

/// An immutable copy of every counter total, taken by
/// [`QueryMetrics::snapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Totals, indexed by `Counter as usize` (see [`ALL_COUNTERS`]).
    pub counts: [u64; NUM_COUNTERS],
}

impl Snapshot {
    /// Total for one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize]
    }

    /// The non-zero counters as `(name, total)` pairs, in slot order.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        ALL_COUNTERS
            .iter()
            .filter(|c| self.get(**c) > 0)
            .map(|c| (c.name(), self.get(*c)))
            .collect()
    }

    /// Renders the snapshot as a flat JSON object keyed by
    /// [`Counter::name`], every counter present.
    pub fn to_json_text(&self) -> String {
        let mut out = String::from("{");
        for (i, c) in ALL_COUNTERS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name(), self.get(*c)));
        }
        out.push('}');
        out
    }
}

impl std::ops::Index<Counter> for Snapshot {
    type Output = u64;
    fn index(&self, c: Counter) -> &u64 {
        &self.counts[c as usize]
    }
}

// ---------------------------------------------------------------------
// Flight-recorder span ring
// ---------------------------------------------------------------------

/// Span scope vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Document ingestion (text → tree).
    Parse = 0,
    /// Query planning (route selection, probe planning).
    Plan,
    /// One index probe (arg = probe ordinal).
    Probe,
    /// One pipeline stage (arg = stage index).
    Stage,
    /// One parallel chunk (arg = chunk index).
    Chunk,
    /// One phase of a multi-phase stage, nested in the stage's span (arg
    /// = phase ordinal, numbered by the stage).
    Phase,
}

impl SpanKind {
    /// Stable lower-case name (Chrome-trace `cat`/`name` prefix).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Parse => "parse",
            SpanKind::Plan => "plan",
            SpanKind::Probe => "probe",
            SpanKind::Stage => "stage",
            SpanKind::Chunk => "chunk",
            SpanKind::Phase => "phase",
        }
    }

    fn from_u8(v: u8) -> SpanKind {
        match v {
            0 => SpanKind::Parse,
            1 => SpanKind::Plan,
            2 => SpanKind::Probe,
            3 => SpanKind::Stage,
            4 => SpanKind::Chunk,
            _ => SpanKind::Phase,
        }
    }
}

/// Whether an event opens or closes its scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanPhase {
    /// Scope entry (Chrome-trace `"B"`).
    Open,
    /// Scope exit (Chrome-trace `"E"`).
    Close,
}

/// One decoded span event.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Scope kind.
    pub kind: SpanKind,
    /// Open or close.
    pub phase: SpanPhase,
    /// Kind-specific argument (stage index, chunk index, probe ordinal).
    pub arg: u32,
    /// Recording thread's shard index — the Chrome-trace lane.
    pub tid: u16,
    /// Nanoseconds since the ring was created (monotonic clock).
    pub ts_ns: u64,
    /// Global sequence number (1-based record order).
    pub seq: u64,
}

struct SpanSlot {
    /// 0 = empty/in-flight; otherwise `global_index + 1` of the event the
    /// payload fields currently hold. Written with `Release` after the
    /// payload, read with `Acquire` before and after — a torn slot (ring
    /// wrapped mid-read) fails the stamp re-check and is skipped.
    seq: AtomicU64,
    /// kind(8) | phase(8) | tid(16) | arg(32)
    packed: AtomicU64,
    ts_ns: AtomicU64,
}

/// A lock-free, fixed-capacity ring of span events. Writers claim a slot
/// with one `fetch_add` and stamp it with a sequence number when the
/// payload is complete; once the ring wraps, the oldest events are
/// overwritten. Reading ([`SpanLog::events`]) is designed for post-query
/// dumps: it validates each slot's stamp before and after decoding and
/// drops slots that changed underneath it.
pub struct SpanLog {
    head: AtomicU64,
    slots: Vec<SpanSlot>,
    epoch: Instant,
}

impl SpanLog {
    fn new(capacity: usize) -> SpanLog {
        let cap = capacity.max(16).next_power_of_two();
        SpanLog {
            head: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| SpanSlot {
                    seq: AtomicU64::new(0),
                    packed: AtomicU64::new(0),
                    ts_ns: AtomicU64::new(0),
                })
                .collect(),
            epoch: Instant::now(),
        }
    }

    /// Records one event (wait-free; overwrites the oldest slot when
    /// full).
    pub fn record(&self, kind: SpanKind, phase: SpanPhase, arg: u32) {
        let ts = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx as usize) & (self.slots.len() - 1)];
        let packed = ((kind as u64) << 56)
            | ((phase as u64) << 48)
            | ((shard_index() as u64 & 0xffff) << 32)
            | arg as u64;
        // Invalidate, write payload, then stamp: readers that race with
        // this write see either stamp 0 or a stamp that fails re-check.
        slot.seq.store(0, Ordering::Release);
        slot.packed.store(packed, Ordering::Relaxed);
        slot.ts_ns.store(ts, Ordering::Relaxed);
        slot.seq.store(idx + 1, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events dropped by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Decodes the surviving events, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for slot in &self.slots {
            let stamp = slot.seq.load(Ordering::Acquire);
            if stamp == 0 {
                continue;
            }
            let packed = slot.packed.load(Ordering::Relaxed);
            let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != stamp {
                continue; // overwritten mid-read
            }
            out.push(SpanEvent {
                kind: SpanKind::from_u8((packed >> 56) as u8),
                phase: if (packed >> 48) as u8 == 0 {
                    SpanPhase::Open
                } else {
                    SpanPhase::Close
                },
                arg: packed as u32,
                tid: (packed >> 32) as u16,
                ts_ns,
                seq: stamp,
            });
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Renders the surviving events as Chrome-trace JSON
    /// (`chrome://tracing` / Perfetto `traceEvents` format, `B`/`E`
    /// duration events, microsecond timestamps).
    ///
    /// The top-level `"spanStats"` key carries the ring's honesty
    /// counters — `recorded` (every event ever seen) and `dropped`
    /// (events lost to wrap-around) — so a truncated trace is
    /// distinguishable from a complete one. Trace viewers ignore unknown
    /// top-level keys next to `traceEvents`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ph = match e.phase {
                SpanPhase::Open => "B",
                SpanPhase::Close => "E",
            };
            out.push_str(&format!(
                "{{\"name\":\"{} {}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":{}}}",
                e.kind.name(),
                e.arg,
                e.kind.name(),
                ph,
                e.ts_ns / 1_000,
                e.ts_ns % 1_000,
                e.tid,
            ));
        }
        out.push_str(&format!(
            "],\"spanStats\":{{\"recorded\":{},\"dropped\":{}}}}}",
            self.recorded(),
            self.dropped()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_across_threads() {
        let m = Arc::new(QueryMetrics::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.add(Counter::DocsScanned, 1);
                        m.add(Counter::RowsEmitted, 2);
                    }
                });
            }
        });
        assert_eq!(m.get(Counter::DocsScanned), 8_000);
        assert_eq!(m.get(Counter::RowsEmitted), 16_000);
        assert_eq!(m.get(Counter::IndexProbes), 0);
        let snap = m.snapshot();
        assert_eq!(snap[Counter::DocsScanned], 8_000);
        assert_eq!(
            snap.nonzero(),
            vec![("docs_scanned", 8_000), ("rows_emitted", 16_000)]
        );
    }

    #[test]
    fn snapshot_json_lists_every_counter() {
        let m = QueryMetrics::new();
        m.add(Counter::Polls, 7);
        let text = m.snapshot().to_json_text();
        for c in ALL_COUNTERS {
            assert!(text.contains(&format!("\"{}\":", c.name())), "{text}");
        }
        assert!(text.contains("\"polls\":7"));
    }

    #[test]
    fn panic_events_are_auditable() {
        let m = QueryMetrics::new();
        m.record_panic(3, "boom");
        m.record_panic(usize::MAX, "coordinator");
        assert_eq!(m.get(Counter::WorkerPanics), 2);
        let events = m.panic_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].chunk, 3);
        assert_eq!(events[0].payload, "boom");
    }

    #[test]
    fn span_ring_records_and_orders_events() {
        let m = QueryMetrics::with_spans(64);
        m.span_open(SpanKind::Plan, 0);
        m.span_close(SpanKind::Plan, 0);
        m.span_open(SpanKind::Stage, 2);
        m.span_close(SpanKind::Stage, 2);
        let spans = m.spans().expect("ring requested");
        let events = spans.events();
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(events[0].kind, SpanKind::Plan);
        assert_eq!(events[0].phase, SpanPhase::Open);
        assert_eq!(events[2].arg, 2);
        assert_eq!(spans.dropped(), 0);

        let trace = spans.to_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"name\":\"stage 2\""));
        assert!(trace.contains("\"ph\":\"B\""));
        assert!(trace.contains("\"ph\":\"E\""));
        assert!(trace.ends_with("\"spanStats\":{\"recorded\":4,\"dropped\":0}}"));
    }

    #[test]
    fn chrome_trace_metadata_reports_drops_honestly() {
        let m = QueryMetrics::with_spans(16);
        let spans = m.spans().expect("ring requested");
        for i in 0..40u32 {
            spans.record(SpanKind::Chunk, SpanPhase::Open, i);
        }
        let trace = spans.to_chrome_trace();
        assert!(trace.contains("\"spanStats\":{\"recorded\":40,\"dropped\":24}"));
    }

    #[test]
    fn span_ring_wraps_keeping_newest() {
        let m = QueryMetrics::with_spans(16);
        let spans = m.spans().expect("ring requested");
        for i in 0..40u32 {
            spans.record(SpanKind::Chunk, SpanPhase::Open, i);
        }
        assert_eq!(spans.recorded(), 40);
        assert_eq!(spans.dropped(), 24);
        let events = spans.events();
        assert_eq!(events.len(), 16);
        assert_eq!(events.first().map(|e| e.arg), Some(24));
        assert_eq!(events.last().map(|e| e.arg), Some(39));
    }

    #[test]
    fn spanless_sink_span_calls_are_noops() {
        let m = QueryMetrics::new();
        m.span_open(SpanKind::Parse, 0);
        m.span_close(SpanKind::Parse, 0);
        assert!(m.spans().is_none());
    }
}
