//! # jguard — per-query resource governance
//!
//! A multi-tenant serving layer cannot let one query take the process
//! down (a panicking worker), starve its neighbours (an adversarial
//! filter that runs forever), or exhaust memory (an unbounded `$push`
//! group). This crate is the workspace-wide answer: a cheap, clonable
//! [`QueryCtx`] carrying a deadline, a cancellation flag, and byte/row
//! budgets, threaded through every long-running path — `jpar` pool
//! dispatch, per-node JNL evaluation, `jagg` stage loops, and the
//! `mongofind` find/aggregate entry points — plus the structured
//! [`QueryError`] those paths return instead of panicking or spinning.
//!
//! ## Error taxonomy
//!
//! | Variant | Raised when |
//! |---|---|
//! | [`QueryError::Deadline`] | the context's deadline passed during a poll |
//! | [`QueryError::BudgetExceeded`] | a byte or row charge overdrew its budget |
//! | [`QueryError::Cancelled`] | [`QueryCtx::cancel`] was called on a clone |
//! | [`QueryError::WorkerPanicked`] | a pool worker panicked; the panic was contained |
//! | [`QueryError::ParseLimit`] | ingestion rejected a document via [`jsondata::ParseLimits`] |
//! | [`QueryError::Overloaded`] | an admission queue shed the request before it ran |
//! | [`QueryError::BadQuery`] | the request text failed to parse as a filter/pipeline |
//!
//! [`QueryError::is_retryable`] classifies every variant for callers
//! that want to retry: only [`QueryError::Overloaded`] is transient (the
//! request never ran and nothing was consumed); everything else is
//! either deterministic (`BadQuery`, `ParseLimit`, `BudgetExceeded`), an
//! explicit decision (`Cancelled`, `Deadline`), or evidence of a bug
//! (`WorkerPanicked`). [`retry_with_backoff`] is the matching bounded
//! retry loop with jittered exponential backoff used by the `jserve`
//! admission path.
//!
//! ## Poll granularity and overhead contract
//!
//! Deadlines and cancellation are observed *cooperatively*: workers
//! check the context between chunks, and per-row loops poll through a
//! [`Poller`], which performs the real check (an `Instant::now()` and
//! two atomic loads) only once every [`POLL_STRIDE`] ticks. A tick on
//! an unlimited context is a single branch on an `Option` discriminant.
//! The contract, enforced by `harness s7`, is that an expired or
//! cancelled query returns its error within a bounded grace window
//! (one chunk plus one poll stride of work) and that the uncontended
//! poll cost on the parallel workloads stays within 2%.
//!
//! Budgets are *charged*, not polled: producers call
//! [`QueryCtx::charge_bytes`] / [`QueryCtx::charge_rows`] as they
//! materialise output, and the first charge that overdraws returns
//! [`QueryError::BudgetExceeded`]. Charging on an unlimited context is
//! free (no traversal is done to size a value unless a byte budget is
//! actually present — see [`QueryCtx::charge_json`]).
//!
//! ## Panic-free guarantees
//!
//! `jpar`'s fallible entry points (`try_map_chunks`,
//! `try_flat_map_chunks`) contain worker panics with `catch_unwind`
//! and convert them to [`QueryError::WorkerPanicked`], joining the
//! remaining workers; the pool and any shared immutable state stay
//! reusable. Every `mongofind`/`jagg` `*_with_ctx` API inherits this:
//! they return `Err(WorkerPanicked)` rather than unwinding, as long as
//! the panic originates inside the dispatched closure. The legacy
//! (ctx-free) APIs re-raise the contained panic on the calling thread
//! to preserve their documented behaviour.
//!
//! ## Observability
//!
//! A [`jtrace::QueryMetrics`] sink can ride the context
//! ([`QueryCtx::with_metrics`]): the governance primitives record into it
//! (polls, bytes charged, rows emitted) and every `*_with_ctx` query path
//! in the workspace records its own counters and spans through
//! [`QueryCtx::record`] / [`QueryCtx::span_open`]. Without a sink each
//! record site costs a single branch, the same null-cost contract as the
//! unlimited context (gated by `harness s10`). See `docs/observability.md`.
//!
//! ## Fault injection
//!
//! [`Fault`] rides the context: the s7 harness plants
//! `Fault::PanicAtPoll(k)` or `Fault::SleepAtPoll` to prove, from the
//! outside, that panics are contained and deadlines are enforced at
//! every poll site. Production contexts leave it at `Fault::None`,
//! which skips the poll counter entirely.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jsondata::{Json, ParseError};
use jtrace::{Counter, QueryMetrics, SpanKind};

/// How many [`Poller::tick`]s elapse between two real context checks.
///
/// Per-row loops tick once per item; a stride of 1024 keeps the
/// amortised cost of `Instant::now()` far below the per-item work while
/// bounding the reaction latency to ~1024 items of compute.
pub const POLL_STRIDE: u32 = 1024;

/// Which budget a [`QueryError::BudgetExceeded`] overdrew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// The approximate-byte budget charged by materialisation paths.
    Bytes,
    /// The result-row budget charged by find/unwind/group outputs.
    Rows,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Bytes => write!(f, "byte"),
            Resource::Rows => write!(f, "row"),
        }
    }
}

/// A structured, per-query failure. See the crate docs for the taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The context's deadline passed while the query was running.
    Deadline,
    /// A byte or row charge overdrew the context's budget.
    BudgetExceeded {
        /// Which budget was overdrawn.
        resource: Resource,
    },
    /// [`QueryCtx::cancel`] was observed by a poll.
    Cancelled,
    /// A pool worker panicked; the panic was contained at the pool
    /// boundary instead of unwinding through the caller.
    WorkerPanicked {
        /// The item range of the chunk whose closure panicked
        /// (empty when the panic happened outside any chunk).
        chunk: Range<usize>,
        /// The panic payload, when it was a string (the common case);
        /// a placeholder otherwise.
        payload: String,
    },
    /// Ingestion rejected a document against its [`jsondata::ParseLimits`].
    ParseLimit(ParseError),
    /// An admission queue shed the request before it ran (the queue was
    /// full or the request timed out waiting for a slot). Nothing was
    /// executed; the request is safe to retry.
    Overloaded,
    /// The request text itself was malformed (filter/pipeline/projection
    /// failed to parse). Deterministic: retrying cannot help.
    BadQuery(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Deadline => write!(f, "query deadline exceeded"),
            QueryError::BudgetExceeded { resource } => {
                write!(f, "query {resource} budget exceeded")
            }
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::WorkerPanicked { chunk, payload } => write!(
                f,
                "worker panicked on chunk {}..{}: {payload}",
                chunk.start, chunk.end
            ),
            QueryError::ParseLimit(e) => write!(f, "document rejected at ingestion: {e}"),
            QueryError::Overloaded => write!(f, "server overloaded, request shed"),
            QueryError::BadQuery(msg) => write!(f, "bad query: {msg}"),
        }
    }
}

impl QueryError {
    /// Whether a retry of the same request can plausibly succeed.
    ///
    /// Only [`QueryError::Overloaded`] qualifies: the request was shed
    /// *before* any work ran, so a retry after backoff races a different
    /// load level. Every other variant is deterministic for the same
    /// request ([`QueryError::BadQuery`], [`QueryError::ParseLimit`],
    /// [`QueryError::BudgetExceeded`]), reflects an explicit decision
    /// that a retry must not override ([`QueryError::Cancelled`],
    /// [`QueryError::Deadline`] — the tenant's time is already spent),
    /// or is evidence of a bug where blind retry would just panic a
    /// second worker ([`QueryError::WorkerPanicked`]).
    pub fn is_retryable(&self) -> bool {
        match self {
            QueryError::Overloaded => true,
            QueryError::Deadline
            | QueryError::BudgetExceeded { .. }
            | QueryError::Cancelled
            | QueryError::WorkerPanicked { .. }
            | QueryError::ParseLimit(_)
            | QueryError::BadQuery(_) => false,
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> QueryError {
        QueryError::ParseLimit(e)
    }
}

/// A fault planted on a context by the s7 harness and the containment
/// tests. Triggers on the Nth real poll (1-based, counted across all
/// clones of the context).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault — the poll counter is not even incremented.
    #[default]
    None,
    /// Panic inside the Nth poll, wherever it happens to run.
    PanicAtPoll(u64),
    /// Sleep `millis` inside the Nth poll — a synthetic slow node.
    SleepAtPoll {
        /// Which poll (1-based) stalls.
        at: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
}

/// The message injected panics carry, so tests can tell them from real bugs.
pub const INJECTED_PANIC_MSG: &str = "jguard: injected fault panic";

#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    bytes_left: Option<AtomicI64>,
    rows_left: Option<AtomicI64>,
    polls: AtomicU64,
    fault: Fault,
    metrics: Option<Arc<QueryMetrics>>,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            deadline: None,
            cancelled: AtomicBool::new(false),
            bytes_left: None,
            rows_left: None,
            polls: AtomicU64::new(0),
            fault: Fault::None,
            metrics: None,
        }
    }
}

/// A cheap, clonable per-query governance handle.
///
/// [`QueryCtx::unlimited`] carries no state at all — checks and charges
/// on it compile down to one branch, which is what the legacy
/// (ctx-free) APIs delegate with. Any builder method allocates the
/// shared state; clones of a built context observe the same
/// cancellation flag, budgets, and poll counter.
///
/// Builder methods (`with_*`) must be applied **before** the context is
/// cloned — they mutate through [`Arc::get_mut`] and panic if clones
/// already exist.
#[derive(Debug, Clone, Default)]
pub struct QueryCtx {
    inner: Option<Arc<Inner>>,
}

impl QueryCtx {
    /// A context with no limits and no shared state. Checks are free;
    /// [`QueryCtx::cancel`] on it is a no-op.
    pub fn unlimited() -> QueryCtx {
        QueryCtx { inner: None }
    }

    /// A context with allocated shared state but no limits — cancellable
    /// from another thread via a clone, otherwise unconstrained.
    pub fn new() -> QueryCtx {
        QueryCtx {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    fn make_mut(&mut self) -> &mut Inner {
        let arc = self.inner.get_or_insert_with(|| Arc::new(Inner::default()));
        Arc::get_mut(arc).expect("QueryCtx builder methods must run before the ctx is cloned")
    }

    /// Sets the deadline to `now + timeout`.
    pub fn with_timeout(mut self, timeout: Duration) -> QueryCtx {
        self.make_mut().deadline = Some(Instant::now() + timeout);
        self
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> QueryCtx {
        self.make_mut().deadline = Some(deadline);
        self
    }

    /// Caps the approximate bytes the query may materialise.
    pub fn with_byte_budget(mut self, bytes: u64) -> QueryCtx {
        self.make_mut().bytes_left = Some(AtomicI64::new(i64::try_from(bytes).unwrap_or(i64::MAX)));
        self
    }

    /// Caps the result rows the query may produce.
    pub fn with_row_budget(mut self, rows: u64) -> QueryCtx {
        self.make_mut().rows_left = Some(AtomicI64::new(i64::try_from(rows).unwrap_or(i64::MAX)));
        self
    }

    /// Plants an injected fault (testing/harness only).
    pub fn with_fault(mut self, fault: Fault) -> QueryCtx {
        self.make_mut().fault = fault;
        self
    }

    /// Attaches a [`jtrace::QueryMetrics`] sink: every `*_with_ctx` path
    /// the context flows through records its counters (and spans, if the
    /// sink carries a ring) into it. Like the budgets, the sink is shared
    /// by all clones; without one, every record site costs one branch.
    pub fn with_metrics(mut self, sink: Arc<QueryMetrics>) -> QueryCtx {
        self.make_mut().metrics = Some(sink);
        self
    }

    /// The attached metrics sink, if any.
    pub fn metrics(&self) -> Option<&Arc<QueryMetrics>> {
        self.inner.as_deref().and_then(|i| i.metrics.as_ref())
    }

    /// Adds `n` to `counter` on the attached sink (no-op without one).
    #[inline]
    pub fn record(&self, counter: Counter, n: u64) {
        if let Some(inner) = self.inner.as_deref() {
            if let Some(m) = &inner.metrics {
                m.add(counter, n);
            }
        }
    }

    /// Appends a contained-panic audit event to the attached sink
    /// (no-op without one). `chunk` is `usize::MAX` when the panic was
    /// contained outside any identifiable chunk.
    pub fn record_panic(&self, chunk: usize, payload: &str) {
        if let Some(m) = self.metrics() {
            m.record_panic(chunk, payload);
        }
    }

    /// Records a span-open event on the attached sink's ring (no-op
    /// without a sink or without a ring).
    #[inline]
    pub fn span_open(&self, kind: SpanKind, arg: u32) {
        if let Some(inner) = self.inner.as_deref() {
            if let Some(m) = &inner.metrics {
                m.span_open(kind, arg);
            }
        }
    }

    /// Records a span-close event (see [`QueryCtx::span_open`]).
    #[inline]
    pub fn span_close(&self, kind: SpanKind, arg: u32) {
        if let Some(inner) = self.inner.as_deref() {
            if let Some(m) = &inner.metrics {
                m.span_close(kind, arg);
            }
        }
    }

    /// Whether this is the zero-state unlimited context.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// Requests cancellation; every clone observes it at its next poll.
    /// A no-op on [`QueryCtx::unlimited`] (there is no shared flag).
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// Whether a byte budget is present (lets producers skip sizing
    /// work entirely when it is not).
    #[inline]
    pub fn has_byte_budget(&self) -> bool {
        self.inner
            .as_deref()
            .is_some_and(|i| i.bytes_left.is_some())
    }

    /// The full check: fault hook, cancellation flag, deadline.
    /// Budgets are charged separately, not polled.
    pub fn check(&self) -> Result<(), QueryError> {
        let Some(inner) = self.inner.as_deref() else {
            return Ok(());
        };
        if let Some(m) = &inner.metrics {
            m.add(Counter::Polls, 1);
        }
        if inner.fault != Fault::None {
            let n = inner.polls.fetch_add(1, Ordering::Relaxed) + 1;
            match inner.fault {
                Fault::PanicAtPoll(at) if n == at => panic!("{INJECTED_PANIC_MSG} (poll {at})"),
                Fault::SleepAtPoll { at, millis } if n == at => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                _ => {}
            }
        }
        if inner.cancelled.load(Ordering::Relaxed) {
            return Err(QueryError::Cancelled);
        }
        if let Some(d) = inner.deadline {
            if Instant::now() >= d {
                return Err(QueryError::Deadline);
            }
        }
        Ok(())
    }

    /// Charges `n` approximate bytes against the budget, if one is set.
    #[inline]
    pub fn charge_bytes(&self, n: u64) -> Result<(), QueryError> {
        let Some(inner) = self.inner.as_deref() else {
            return Ok(());
        };
        if let Some(m) = &inner.metrics {
            m.add(Counter::BytesCharged, n);
        }
        let Some(left) = &inner.bytes_left else {
            return Ok(());
        };
        let n = i64::try_from(n).unwrap_or(i64::MAX);
        if left.fetch_sub(n, Ordering::Relaxed) < n {
            return Err(QueryError::BudgetExceeded {
                resource: Resource::Bytes,
            });
        }
        Ok(())
    }

    /// Charges `n` result rows against the budget, if one is set.
    #[inline]
    pub fn charge_rows(&self, n: u64) -> Result<(), QueryError> {
        let Some(inner) = self.inner.as_deref() else {
            return Ok(());
        };
        if let Some(m) = &inner.metrics {
            m.add(Counter::RowsEmitted, n);
        }
        let Some(left) = &inner.rows_left else {
            return Ok(());
        };
        let n = i64::try_from(n).unwrap_or(i64::MAX);
        if left.fetch_sub(n, Ordering::Relaxed) < n {
            return Err(QueryError::BudgetExceeded {
                resource: Resource::Rows,
            });
        }
        Ok(())
    }

    /// Charges a materialised value's approximate size — but only
    /// traverses the value when a byte budget is actually present, so
    /// unbudgeted queries pay nothing for the call.
    #[inline]
    pub fn charge_json(&self, value: &Json) -> Result<(), QueryError> {
        if !self.has_byte_budget() {
            return Ok(());
        }
        self.charge_bytes(approx_json_bytes(value))
    }

    /// A per-loop poller bound to this context.
    pub fn poller(&self) -> Poller<'_> {
        Poller::new(self)
    }
}

/// Amortises [`QueryCtx::check`] for per-item loops: the real check
/// runs once every [`POLL_STRIDE`] ticks; the other ticks are a counter
/// decrement. On an unlimited context a tick is a single branch.
pub struct Poller<'c> {
    ctx: &'c QueryCtx,
    left: u32,
}

impl<'c> Poller<'c> {
    /// A fresh poller; its first [`Poller::tick`] performs a real check
    /// so an already-expired context fails before any work happens.
    pub fn new(ctx: &'c QueryCtx) -> Poller<'c> {
        Poller { ctx, left: 0 }
    }

    /// Call once per item. Cheap between strides; see [`POLL_STRIDE`].
    #[inline]
    pub fn tick(&mut self) -> Result<(), QueryError> {
        if self.ctx.inner.is_none() {
            return Ok(());
        }
        if self.left > 0 {
            self.left -= 1;
            return Ok(());
        }
        self.left = POLL_STRIDE;
        self.ctx.check()
    }
}

/// A cheap structural size estimate used for byte-budget charging:
/// container/string headers plus payload lengths. It deliberately
/// over-approximates small values (every node costs at least a
/// pointer-ish constant) so budgets bound allocation, not undershoot it.
pub fn approx_json_bytes(value: &Json) -> u64 {
    match value {
        Json::Num(_) => 16,
        Json::Str(s) => 24 + s.len() as u64,
        Json::Array(items) => 24 + items.iter().map(approx_json_bytes).sum::<u64>(),
        Json::Object(o) => {
            let mut total = 24u64;
            for (k, v) in o.iter() {
                total += 24 + k.len() as u64 + approx_json_bytes(v);
            }
            total
        }
    }
}

/// Bounds for [`retry_with_backoff`]: how many attempts to make and how
/// the sleep between them grows.
///
/// The delay before retry `i` (1-based) is drawn uniformly from
/// `0..=min(cap, base << (i-1))` — "full jitter", which decorrelates
/// clients that were all shed by the same overload spike. `base = 0`
/// disables sleeping entirely (useful in tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "no retries").
    pub attempts: u32,
    /// Backoff base; doubles per retry before jitter.
    pub base: Duration,
    /// Upper bound on any single pre-jitter backoff step.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
        }
    }
}

/// Runs `f` until it succeeds, fails with a non-retryable error, or
/// exhausts `policy.attempts`. Sleeps a jittered, exponentially growing
/// delay between attempts (see [`RetryPolicy`]).
///
/// Only errors with [`QueryError::is_retryable`]` == true` are retried —
/// in practice [`QueryError::Overloaded`] from an admission queue. The
/// last error is returned verbatim when attempts run out.
pub fn retry_with_backoff<T>(
    policy: RetryPolicy,
    mut f: impl FnMut() -> Result<T, QueryError>,
) -> Result<T, QueryError> {
    // Cheap decorrelation seed: a process-wide counter mixed with the
    // monotonic clock, fed through splitmix64. Not cryptographic; it
    // only has to spread concurrent retriers across the backoff window.
    static SALT: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);
    let clock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0);
    let mut rng = SALT
        .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
        .wrapping_add(clock);
    let mut next_u64 = move || {
        rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let attempts = policy.attempts.max(1);
    let mut backoff = policy.base;
    for attempt in 1..=attempts {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < attempts && e.is_retryable() => {
                let step = backoff.min(policy.cap);
                if !step.is_zero() {
                    let nanos = step.as_nanos().min(u128::from(u64::MAX)) as u64;
                    std::thread::sleep(Duration::from_nanos(next_u64() % (nanos + 1)));
                }
                backoff = backoff.saturating_mul(2);
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("loop returns on the final attempt")
}

/// Runs `f` with the global panic hook silenced, restoring it after.
/// Used by the fault-injection harness and the containment tests so a
/// thousand *intentional* panics do not flood stderr. The hook is
/// process-global: concurrent tests may briefly lose their panic
/// message, but the unwind (and thus the test failure) still happens.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_free_and_infallible() {
        let ctx = QueryCtx::unlimited();
        assert!(ctx.is_unlimited());
        assert_eq!(ctx.check(), Ok(()));
        assert_eq!(ctx.charge_bytes(u64::MAX), Ok(()));
        assert_eq!(ctx.charge_rows(u64::MAX), Ok(()));
        ctx.cancel(); // no-op
        assert_eq!(ctx.check(), Ok(()));
    }

    #[test]
    fn cancellation_is_seen_by_clones() {
        let ctx = QueryCtx::new();
        let worker = ctx.clone();
        assert_eq!(worker.check(), Ok(()));
        ctx.cancel();
        assert_eq!(worker.check(), Err(QueryError::Cancelled));
    }

    #[test]
    fn expired_deadline_fails_check() {
        let ctx = QueryCtx::unlimited().with_timeout(Duration::from_secs(0));
        assert_eq!(ctx.check(), Err(QueryError::Deadline));
        let far = QueryCtx::unlimited().with_timeout(Duration::from_secs(3600));
        assert_eq!(far.check(), Ok(()));
    }

    #[test]
    fn byte_budget_overdraws_once() {
        let ctx = QueryCtx::unlimited().with_byte_budget(100);
        assert_eq!(ctx.charge_bytes(60), Ok(()));
        assert_eq!(
            ctx.charge_bytes(60),
            Err(QueryError::BudgetExceeded {
                resource: Resource::Bytes
            })
        );
        // Stays overdrawn.
        assert!(ctx.charge_bytes(1).is_err());
    }

    #[test]
    fn row_budget_counts_rows() {
        let ctx = QueryCtx::unlimited().with_row_budget(3);
        assert_eq!(ctx.charge_rows(2), Ok(()));
        assert_eq!(ctx.charge_rows(1), Ok(()));
        assert_eq!(
            ctx.charge_rows(1),
            Err(QueryError::BudgetExceeded {
                resource: Resource::Rows
            })
        );
    }

    #[test]
    fn poller_strides_and_reacts() {
        let ctx = QueryCtx::new();
        let mut p = ctx.poller();
        // First tick checks (ok), the next POLL_STRIDE ticks are free.
        assert_eq!(p.tick(), Ok(()));
        ctx.cancel();
        let mut seen = None;
        for i in 0..=POLL_STRIDE {
            if p.tick().is_err() {
                seen = Some(i);
                break;
            }
        }
        assert_eq!(seen, Some(POLL_STRIDE), "reacts exactly at the stride");
    }

    #[test]
    fn fault_panics_at_requested_poll() {
        let ctx = QueryCtx::unlimited().with_fault(Fault::PanicAtPoll(3));
        assert_eq!(ctx.check(), Ok(()));
        assert_eq!(ctx.check(), Ok(()));
        let r = with_quiet_panics(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.check()))
        });
        assert!(r.is_err(), "third poll panics");
        assert_eq!(ctx.check(), Ok(()), "later polls are clean");
    }

    #[test]
    fn metrics_sink_records_polls_and_charges() {
        let sink = Arc::new(QueryMetrics::new());
        let ctx = QueryCtx::new().with_metrics(Arc::clone(&sink));
        assert_eq!(ctx.check(), Ok(()));
        // Charges record even when no budget is configured.
        assert_eq!(ctx.charge_rows(5), Ok(()));
        assert_eq!(ctx.charge_bytes(100), Ok(()));
        ctx.record(Counter::DocsScanned, 3);
        ctx.record_panic(7, "boom");
        assert_eq!(sink.get(Counter::Polls), 1);
        assert_eq!(sink.get(Counter::RowsEmitted), 5);
        assert_eq!(sink.get(Counter::BytesCharged), 100);
        assert_eq!(sink.get(Counter::DocsScanned), 3);
        assert_eq!(sink.get(Counter::WorkerPanics), 1);
        assert_eq!(sink.panic_events()[0].chunk, 7);
        assert!(ctx.metrics().is_some());

        // Spanless and sinkless paths are no-ops, not errors.
        ctx.span_open(SpanKind::Plan, 0);
        let bare = QueryCtx::unlimited();
        bare.record(Counter::DocsScanned, 1);
        bare.record_panic(0, "ignored");
        bare.span_close(SpanKind::Plan, 0);
        assert!(bare.metrics().is_none());
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let small = Json::Num(1);
        let big = Json::Array((0..100).map(|_| Json::str("hello world")).collect());
        assert!(approx_json_bytes(&big) > approx_json_bytes(&small));
        assert!(approx_json_bytes(&big) >= 100 * 11);
    }

    #[test]
    fn retryability_is_classified_per_variant() {
        assert!(QueryError::Overloaded.is_retryable());
        assert!(!QueryError::Deadline.is_retryable());
        assert!(!QueryError::Cancelled.is_retryable());
        assert!(!QueryError::BudgetExceeded {
            resource: Resource::Bytes
        }
        .is_retryable());
        assert!(!QueryError::BudgetExceeded {
            resource: Resource::Rows
        }
        .is_retryable());
        assert!(!QueryError::WorkerPanicked {
            chunk: 0..4,
            payload: "boom".into(),
        }
        .is_retryable());
        let parse_err = jsondata::parse_with_limits("[0", jsondata::ParseLimits::default())
            .expect_err("truncated doc must fail");
        assert!(!QueryError::ParseLimit(parse_err).is_retryable());
        assert!(!QueryError::BadQuery("no such stage".into()).is_retryable());
    }

    #[test]
    fn retry_retries_only_retryable_errors() {
        let quick = RetryPolicy {
            attempts: 5,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        };
        // Succeeds on the third attempt.
        let mut calls = 0;
        let out = retry_with_backoff(quick, || {
            calls += 1;
            if calls < 3 {
                Err(QueryError::Overloaded)
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(3));

        // Exhausts attempts and surfaces the last error.
        let mut calls = 0;
        let out: Result<(), _> = retry_with_backoff(quick, || {
            calls += 1;
            Err(QueryError::Overloaded)
        });
        assert_eq!(out, Err(QueryError::Overloaded));
        assert_eq!(calls, 5);

        // Non-retryable errors are returned immediately.
        let mut calls = 0;
        let out: Result<(), _> = retry_with_backoff(quick, || {
            calls += 1;
            Err(QueryError::Deadline)
        });
        assert_eq!(out, Err(QueryError::Deadline));
        assert_eq!(calls, 1);

        // attempts == 0 is clamped to a single attempt, not a panic.
        let zero = RetryPolicy {
            attempts: 0,
            ..quick
        };
        assert_eq!(retry_with_backoff(zero, || Ok(7)), Ok(7));
    }

    #[test]
    fn retry_backoff_sleeps_are_bounded_by_cap() {
        let policy = RetryPolicy {
            attempts: 4,
            base: Duration::from_micros(200),
            cap: Duration::from_micros(400),
        };
        let t0 = Instant::now();
        let out: Result<(), _> = retry_with_backoff(policy, || Err(QueryError::Overloaded));
        assert_eq!(out, Err(QueryError::Overloaded));
        // 3 sleeps, each at most cap (plus scheduler slop): far below 1s.
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn display_is_stable() {
        let e = QueryError::WorkerPanicked {
            chunk: 3..7,
            payload: "boom".into(),
        };
        assert_eq!(e.to_string(), "worker panicked on chunk 3..7: boom");
        assert_eq!(QueryError::Deadline.to_string(), "query deadline exceeded");
        assert_eq!(
            QueryError::BudgetExceeded {
                resource: Resource::Rows
            }
            .to_string(),
            "query row budget exceeded"
        );
        assert_eq!(
            QueryError::Overloaded.to_string(),
            "server overloaded, request shed"
        );
        assert_eq!(QueryError::BadQuery("x".into()).to_string(), "bad query: x");
    }
}
