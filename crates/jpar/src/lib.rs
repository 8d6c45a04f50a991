//! # jpar — a scoped worker pool for embarrassingly parallel index ranges
//!
//! The query layers of this workspace (the `mongofind` find paths, the
//! `jagg` aggregation executor, per-segment JNL evaluation) are all
//! *per-document computations over immutable trees*: the collection's
//! segmented tree column is built once, then every query step maps an
//! index range `0..n` (documents, rows, or segments) through a pure
//! function of shared read-only state. This crate is the one
//! parallelism substrate they share — the build environment has no
//! crates.io access (so no `rayon`), and a small set of parked helper
//! threads is all that is needed for this shape of work.
//!
//! ## Threading model
//!
//! * **Shared state is read-only.** A [`Pool`] call borrows its closure
//!   (and everything the closure captures) immutably across all
//!   workers; nothing behind `&mut` crosses a thread boundary. Callers
//!   that used to build caches lazily through `&mut self` (canonical
//!   subtree tables, regex edge bitsets) must either build them
//!   **eagerly before the fan-out** or make them **worker-owned**
//!   (each worker builds its own) — the `jagg` executor does the
//!   former for `CanonTable`s, the JNL batch evaluator does the latter
//!   for its whole evaluation context.
//! * **Work is stolen in chunks.** [`Pool::map_chunks`] splits `0..n`
//!   into fixed-size chunks; workers claim chunk indices from one
//!   atomic counter (`fetch_add`), so a slow chunk never stalls the
//!   others and no per-item synchronisation exists.
//! * **Results are spliced deterministically.** Each chunk's output is
//!   returned to its chunk slot, so the assembled `Vec` is in index
//!   order *regardless of thread count or steal order*. Any
//!   order-sensitive reduction (accumulator states, group tables) must
//!   be merged **in chunk order** by the caller — chunk `i` always
//!   holds the results of items `i*chunk .. (i+1)*chunk`, contiguous
//!   and in order.
//! * **`N = 1` is the semantic oracle.** A pool with one thread (or a
//!   call whose range fits in one chunk) runs the chunks inline on the
//!   calling thread, in order, spawning nothing — not merely "the same
//!   results" but the *same sequence of closure applications* as the
//!   pre-parallel code. The determinism suites compare every parallel
//!   path against this serial fallback; a parallel run that disagrees
//!   with `N = 1` is a bug by definition.
//!
//! ## Entry points
//!
//! Three calls cover every caller: [`Pool::try_map_chunks`], the governed
//! core (polls a [`QueryCtx`] per chunk and contains panics);
//! [`Pool::try_flat_map_chunks`], the same with chunk results
//! concatenated; and [`Pool::map_chunks`], the ungoverned convenience
//! that re-raises a contained panic on the calling thread. One item per
//! chunk is `chunk = 1` (the item index is `range.start`).
//!
//! ## Dispatch
//!
//! Workers are **persistent helper threads** parked on a condvar between
//! jobs. Wake-ups cost microseconds instead of a per-call
//! `thread::spawn`, which is what a serving layer running many µs-scale
//! queries needs; the calling thread always participates inline, so a
//! dispatch can never hang waiting for busy helpers. See `src/park.rs`
//! for the protocol. `N = 1` runs inline with no worker machinery at
//! all.
//!
//! ## Choosing a thread count
//!
//! [`Pool::auto`] uses [`std::thread::available_parallelism`], overridden
//! by the `JPAR_THREADS` environment variable (useful for benchmarking
//! `1` vs `max` on one machine) or by [`Pool::with_threads`]. Thread
//! counts are clamped to at least 1: `JPAR_THREADS` values of `0`,
//! unparseable garbage, or numbers too large for `usize` fall back to
//! the machine's parallelism (itself at least 1) rather than erroring —
//! the contract pinned by `tests/env_contract.rs`.

use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use jguard::{QueryCtx, QueryError};
use jtrace::{Counter, SpanKind};

mod park;

/// The environment variable overriding [`Pool::auto`]'s thread count.
pub const THREADS_ENV: &str = "JPAR_THREADS";

/// Renders a caught panic payload for [`QueryError::WorkerPanicked`].
pub fn panic_payload(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Runs one chunk with panic containment: a panic inside `f` (including
/// an injected fault inside a context poll) becomes a structured
/// [`QueryError::WorkerPanicked`] carrying the chunk's item range.
///
/// `AssertUnwindSafe` is sound here because on the error path every
/// partial result is dropped and the pool's contract already requires
/// closure captures to be shared read-only state.
fn contain<T>(
    chunk: Range<usize>,
    f: impl FnOnce() -> Result<T, QueryError>,
) -> Result<T, QueryError> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(QueryError::WorkerPanicked {
            chunk,
            payload: panic_payload(p),
        }),
    }
}

/// A worker pool: a thread count.
///
/// `Pool` is a plain value (cheap to copy, it owns no OS resources).
/// Workers are borrowed from a process-global set of persistent parked
/// helpers for the duration of one call, and every worker is quiesced
/// before the call returns, so borrowed data needs no `'static` lifetime
/// and a panicking worker propagates to (or is contained for) the
/// caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Pool {
        Pool::auto()
    }
}

impl Pool {
    /// A single-threaded pool: every call runs inline on the calling
    /// thread, in order — the semantic oracle of the parallel paths.
    pub fn serial() -> Pool {
        Pool { threads: 1 }
    }

    /// A pool with an explicit thread count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The machine's available parallelism, overridden by the
    /// `JPAR_THREADS` environment variable when set to a positive number.
    pub fn auto() -> Pool {
        let from_env = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0);
        let threads = from_env.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        Pool { threads }
    }

    /// The number of worker threads this pool dispatches to (including
    /// the calling thread, which always participates).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A chunk size for `len` items that yields several chunks per worker
    /// (so stealing can balance uneven chunks) without dropping below
    /// `min_chunk` items — ranges smaller than `min_chunk` collapse into
    /// a single chunk and therefore run inline, which keeps tiny inputs
    /// off the thread-spawn path entirely.
    pub fn chunk_for(&self, len: usize, min_chunk: usize) -> usize {
        if self.threads <= 1 {
            return len.max(1);
        }
        len.div_ceil(self.threads * 4).max(min_chunk).max(1)
    }

    /// Splits `0..len` into chunks of `chunk` items (the last chunk may be
    /// short), evaluates `f` on each chunk, and returns the chunk results
    /// **in chunk order**. Workers steal chunk indices from one atomic
    /// counter; with one thread or one chunk everything runs inline on the
    /// calling thread in order (the serial fallback).
    ///
    /// A panicking closure re-raises the (contained) panic on the calling
    /// thread after all workers have been joined — the process never
    /// aborts, and the pool stays usable. Callers that need the panic as
    /// a value use [`Pool::try_map_chunks`].
    pub fn map_chunks<T, F>(&self, len: usize, chunk: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        match self.try_map_chunks(&QueryCtx::unlimited(), len, chunk, |r| Ok(f(r))) {
            Ok(out) => out,
            Err(QueryError::WorkerPanicked { chunk, payload }) => {
                panic!("jpar worker panicked on chunk {chunk:?}: {payload}")
            }
            Err(e) => unreachable!("unlimited ctx cannot fail, got {e}"),
        }
    }

    /// The governed core of the pool: like [`Pool::map_chunks`] but
    ///
    /// * workers poll `ctx` **before claiming each chunk** — an expired
    ///   deadline, a cancellation, or an overdrawn budget stops the whole
    ///   fan-out within one chunk of work and returns the error;
    /// * every chunk closure runs under `catch_unwind` — a panic becomes
    ///   [`QueryError::WorkerPanicked`] with the chunk's item range, the
    ///   remaining workers are joined, and the pool (plus any shared
    ///   immutable state) stays reusable;
    /// * when several chunks fail concurrently, the error of the
    ///   **lowest chunk index** wins, keeping the outcome deterministic
    ///   for a single planted fault regardless of thread count.
    pub fn try_map_chunks<T, F>(
        &self,
        ctx: &QueryCtx,
        len: usize,
        chunk: usize,
        f: F,
    ) -> Result<Vec<T>, QueryError>
    where
        T: Send,
        F: Fn(Range<usize>) -> Result<T, QueryError> + Sync,
    {
        let chunk = chunk.max(1);
        let n_chunks = len.div_ceil(chunk);
        let range_of = |i: usize| i * chunk..((i + 1) * chunk).min(len);
        // Runs chunk `i` with containment, recording the chunk span and —
        // on a contained panic — the audit event into the ctx's metrics
        // sink (both no-ops without a sink).
        let run_chunk = |i: usize| -> Result<T, QueryError> {
            ctx.record(Counter::ChunksDispatched, 1);
            ctx.span_open(SpanKind::Chunk, i as u32);
            let r = contain(range_of(i), || {
                ctx.check()?;
                f(range_of(i))
            });
            ctx.span_close(SpanKind::Chunk, i as u32);
            if let Err(QueryError::WorkerPanicked { payload, .. }) = &r {
                ctx.record_panic(i, payload);
            }
            r
        };

        let workers = self.threads.min(n_chunks);
        if workers <= 1 {
            let mut out = Vec::with_capacity(n_chunks);
            for i in 0..n_chunks {
                out.push(run_chunk(i)?);
            }
            return Ok(out);
        }

        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        // Each worker returns its claimed (chunk, value) pairs plus the
        // error (tagged with its chunk index) that stopped it, if any.
        type WorkerOut<T> = (Vec<(usize, T)>, Option<(usize, QueryError)>);
        let run_worker = |stolen: bool| -> WorkerOut<T> {
            let mut claimed: Vec<(usize, T)> = Vec::new();
            let mut err = None;
            while !stop.load(Ordering::Relaxed) {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                if stolen {
                    // Claimed by a helper rather than the caller.
                    ctx.record(Counter::ChunksStolen, 1);
                }
                match run_chunk(i) {
                    Ok(v) => claimed.push((i, v)),
                    Err(e) => {
                        err = Some((i, e));
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
            (claimed, err)
        };

        // A rangeless error for a panic that escaped `run_worker` itself
        // (i.e. outside any chunk's containment) — kept alive as a value
        // so it never re-raises across the pool boundary.
        let coordinator_error = |p: Box<dyn std::any::Any + Send>| -> WorkerOut<T> {
            let payload = panic_payload(p);
            ctx.record_panic(usize::MAX, &payload);
            (
                Vec::new(),
                Some((
                    usize::MAX,
                    QueryError::WorkerPanicked {
                        chunk: 0..0,
                        payload,
                    },
                )),
            )
        };

        let sink: Mutex<Vec<WorkerOut<T>>> = Mutex::new(Vec::with_capacity(workers));
        let task = |on_helper: bool| {
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| run_worker(on_helper)))
                .unwrap_or_else(|p| {
                    stop.store(true, Ordering::Relaxed);
                    coordinator_error(p)
                });
            sink.lock().unwrap_or_else(|e| e.into_inner()).push(out);
        };
        park::dispatch(workers - 1, &task);
        let outputs = sink.into_inner().unwrap_or_else(|e| e.into_inner());

        let mut first_err: Option<(usize, QueryError)> = None;
        let mut slots: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
        for (claimed, err) in outputs {
            for (i, v) in claimed {
                slots[i] = Some(v);
            }
            if let Some((i, e)) = err {
                if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_err = Some((i, e));
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every chunk index was claimed exactly once"))
            .collect())
    }

    /// [`Pool::try_map_chunks`] with the chunk results concatenated — the
    /// common "filter/flat-map a row vector" shape. Item order is
    /// preserved exactly (chunks are contiguous index ranges spliced in
    /// chunk order).
    pub fn try_flat_map_chunks<T, F>(
        &self,
        ctx: &QueryCtx,
        len: usize,
        chunk: usize,
        f: F,
    ) -> Result<Vec<T>, QueryError>
    where
        T: Send,
        F: Fn(Range<usize>) -> Result<Vec<T>, QueryError> + Sync,
    {
        Ok(self
            .try_map_chunks(ctx, len, chunk, f)?
            .into_iter()
            .flatten()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::with_threads(threads);
            let out = pool.map_chunks(100, 1, |r| r.start * r.start);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_chunks_covers_every_index_exactly_once() {
        for threads in [1, 2, 5] {
            for (len, chunk) in [(0, 4), (1, 4), (7, 3), (64, 64), (65, 64), (1000, 17)] {
                let pool = Pool::with_threads(threads);
                let parts = pool.map_chunks(len, chunk, |r| r.collect::<Vec<_>>());
                let flat: Vec<usize> = parts.concat();
                assert_eq!(
                    flat,
                    (0..len).collect::<Vec<_>>(),
                    "len {len} chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn flat_map_matches_sequential_filter() {
        let data: Vec<u64> = (0..10_000).map(|i| (i * 2654435761) % 1000).collect();
        let expect: Vec<u64> = data.iter().copied().filter(|&x| x % 7 == 0).collect();
        for threads in [1, 2, 8] {
            let pool = Pool::with_threads(threads);
            let got = pool
                .try_flat_map_chunks(&QueryCtx::unlimited(), data.len(), 128, |r| {
                    Ok(data[r].iter().copied().filter(|&x| x % 7 == 0).collect())
                })
                .expect("no faults");
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn chunk_for_collapses_small_inputs() {
        let pool = Pool::with_threads(8);
        // Below the minimum chunk everything fits in one chunk → inline.
        assert!(pool.chunk_for(100, 256) >= 100);
        // Large ranges split into several chunks per worker.
        let chunk = pool.chunk_for(100_000, 256);
        assert!(chunk >= 256);
        assert!(100_000usize.div_ceil(chunk) >= 8);
        // Serial pools never split.
        assert_eq!(Pool::serial().chunk_for(100_000, 256), 100_000);
    }

    #[test]
    fn thread_counts_are_clamped() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
        assert!(Pool::auto().threads() >= 1);
        assert_eq!(Pool::serial().threads(), 1);
    }

    #[test]
    fn metrics_record_dispatch_and_contained_panics() {
        use std::sync::Arc;

        // Dispatch accounting: every chunk is dispatched exactly once;
        // serial execution steals nothing.
        let sink = Arc::new(jtrace::QueryMetrics::new());
        let ctx = QueryCtx::new().with_metrics(Arc::clone(&sink));
        let pool = Pool::with_threads(4);
        let out = pool
            .try_map_chunks(&ctx, 100, 10, |r| Ok(r.len()))
            .expect("no faults");
        assert_eq!(out.iter().sum::<usize>(), 100);
        let snap = sink.snapshot();
        assert_eq!(snap[Counter::ChunksDispatched], 10);
        assert!(snap[Counter::ChunksStolen] <= snap[Counter::ChunksDispatched]);

        let serial_sink = Arc::new(jtrace::QueryMetrics::new());
        let serial_ctx = QueryCtx::new().with_metrics(Arc::clone(&serial_sink));
        Pool::serial()
            .try_map_chunks(&serial_ctx, 100, 10, |r| Ok(r.len()))
            .expect("no faults");
        assert_eq!(serial_sink.get(Counter::ChunksDispatched), 10);
        assert_eq!(serial_sink.get(Counter::ChunksStolen), 0);

        // A contained panic lands in the audit log with its chunk index.
        for threads in [1, 4] {
            let sink = Arc::new(jtrace::QueryMetrics::new());
            let ctx = QueryCtx::new().with_metrics(Arc::clone(&sink));
            let pool = Pool::with_threads(threads);
            let err = jguard::with_quiet_panics(|| {
                pool.try_map_chunks(&ctx, 100, 10, |r| {
                    if r.start == 30 {
                        panic!("chunk bomb");
                    }
                    Ok(r.len())
                })
            })
            .expect_err("chunk 3 panics");
            assert!(matches!(err, QueryError::WorkerPanicked { .. }));
            assert_eq!(sink.get(Counter::WorkerPanics), 1);
            let events = sink.panic_events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].chunk, 3);
            assert!(events[0].payload.contains("chunk bomb"));
        }
    }

    #[test]
    fn park_dispatch_survives_concurrent_callers() {
        // Many threads dispatching simultaneously exercises the shared
        // helper queue: jobs must not steal each other's chunks or lose
        // results.
        let data: Vec<u64> = (0..20_000).collect();
        let expect: u64 = data.iter().sum();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let data = &data;
                s.spawn(move || {
                    let pool = Pool::with_threads(4);
                    for _ in 0..50 {
                        let partials =
                            pool.map_chunks(data.len(), 333, |r| data[r].iter().sum::<u64>());
                        assert_eq!(partials.iter().sum::<u64>(), expect);
                    }
                });
            }
        });
    }

    #[test]
    fn park_dispatch_supports_nested_calls() {
        // A dispatched worker that itself dispatches must make progress
        // even when every helper is busy: the inner caller participates
        // inline by construction.
        let pool = Pool::with_threads(4);
        let out = pool.map_chunks(8, 1, |r| {
            let inner = Pool::with_threads(2);
            inner
                .map_chunks(1000, 100, |r| r.sum::<usize>())
                .iter()
                .sum::<usize>()
                + r.start
        });
        let inner_total: usize = (0..1000).sum();
        assert_eq!(out, (0..8).map(|i| inner_total + i).collect::<Vec<_>>());
    }

    #[test]
    fn park_dispatch_contains_panics_and_stays_reusable() {
        let pool = Pool::with_threads(4);
        for _ in 0..10 {
            let err = jguard::with_quiet_panics(|| {
                pool.try_map_chunks(&QueryCtx::new(), 100, 10, |r| {
                    if r.start == 50 {
                        panic!("park bomb");
                    }
                    Ok(r.len())
                })
            })
            .expect_err("chunk 5 panics");
            assert!(matches!(err, QueryError::WorkerPanicked { .. }));
            // The helpers survive the contained panic and serve the next
            // call normally.
            let ok = pool
                .try_map_chunks(&QueryCtx::new(), 100, 10, |r| Ok(r.len()))
                .expect("pool stays usable");
            assert_eq!(ok.iter().sum::<usize>(), 100);
        }
    }

    #[test]
    fn workers_share_read_only_state() {
        // The closure borrows a large shared slice; sums agree.
        let data: Vec<u64> = (0..100_000).collect();
        let pool = Pool::with_threads(4);
        let partials = pool.map_chunks(data.len(), 1013, |r| data[r].iter().sum::<u64>());
        let total: u64 = partials.iter().sum();
        assert_eq!(total, 100_000 * 99_999 / 2);
    }
}
