//! The persistent parked-helper dispatch core.
//!
//! A serving process runs many µs-scale queries per second; spawning OS
//! threads per pool call costs more than the queries themselves. This
//! module keeps a small, process-global set of helper threads parked on
//! a condvar and lends them out to pool calls for the duration of one
//! dispatch.
//!
//! ## Protocol
//!
//! [`dispatch`] publishes the caller's task closure on a global job
//! queue, wakes up to `helpers` parked threads, then **runs the task
//! inline on the calling thread** — progress never depends on a helper
//! being free, so a dispatch can never hang waiting for workers that are
//! busy elsewhere (including the nested case where the caller *is* a
//! helper). When the caller's inline pass returns, it revokes any
//! unclaimed invitations under the queue lock and blocks until every
//! helper that did claim the job has left the closure.
//!
//! ## Why `unsafe` lives here and nowhere else
//!
//! Helpers outlive any single dispatch, so the caller's borrowed closure
//! is smuggled to them behind a lifetime-erased raw pointer
//! ([`erased::TaskPtr`]). Soundness rests on the drain protocol above:
//! `dispatch` does not return before every participant has exited the
//! closure, so the erased borrow never outlives the stack frame it
//! points into. Participation is counted *under the queue lock at claim
//! time*, which closes the race between a helper claiming a job and the
//! caller revoking it. The crate-level lint is `deny(unsafe_code)`; this
//! module opts out for exactly the erased-pointer cell below.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Hard cap on persistent helper threads. High enough that every
/// realistic `available_parallelism` fits; low enough that an absurd
/// `JPAR_THREADS` cannot exhaust the process's thread quota.
pub(crate) const MAX_HELPERS: usize = 64;

/// The dispatched closure: called with `true` on helper threads and
/// `false` on the dispatching thread's inline pass, so callers can keep
/// steal accounting exact even for nested dispatches.
type Task<'a> = &'a (dyn Fn(bool) + Sync);

#[allow(unsafe_code)]
mod erased {
    /// A lifetime-erased [`super::Task`]. `Send`/`Sync` are asserted
    /// because the pointee is `Sync` and the pointer is only dereferenced
    /// between job publication and drain (see the module docs).
    pub(super) struct TaskPtr(*const (dyn Fn(bool) + Sync));

    unsafe impl Send for TaskPtr {}
    unsafe impl Sync for TaskPtr {}

    impl TaskPtr {
        pub(super) fn new(task: super::Task<'_>) -> TaskPtr {
            let ptr: *const (dyn Fn(bool) + Sync + '_) = std::ptr::from_ref(task);
            // SAFETY: a pure lifetime erasure between identically laid-out
            // fat pointers. The erased borrow is only dereferenced while
            // `dispatch` keeps the referent alive (see the module docs).
            TaskPtr(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(bool) + Sync + '_),
                    *const (dyn Fn(bool) + Sync + 'static),
                >(ptr)
            })
        }

        /// # Safety
        /// The referent must still be alive: callers may only invoke this
        /// on a job they claimed from the queue while registered as a
        /// participant, which [`super::dispatch`] waits for before its
        /// task borrow expires.
        pub(super) unsafe fn call(&self, on_helper: bool) {
            unsafe { (*self.0)(on_helper) }
        }
    }
}

/// One published dispatch. Lives on the queue while invitations remain
/// and in each participating helper's hand until it finishes.
struct Job {
    task: erased::TaskPtr,
    /// Helpers currently inside the closure. Incremented under the queue
    /// lock at claim time; decremented (with a notify) when the helper
    /// leaves, panic or no panic.
    participants: Mutex<usize>,
    drained: Condvar,
}

/// A queue entry: a job plus how many more helpers may still join it.
struct Entry {
    job: Arc<Job>,
    invites: usize,
}

struct Core {
    queue: Mutex<Vec<Entry>>,
    work: Condvar,
    spawned: AtomicUsize,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // A poisoned lock only means a helper panicked outside the
    // containment below; the protected state is still structurally sound
    // and refusing to continue would turn a contained panic into a hang.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn core() -> &'static Core {
    static CORE: OnceLock<Core> = OnceLock::new();
    CORE.get_or_init(|| Core {
        queue: Mutex::new(Vec::new()),
        work: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

/// Spawns helpers up to `want` total (capped at [`MAX_HELPERS`]). Spawn
/// failure is tolerated: the dispatching thread always participates
/// inline, so a thread-quota error degrades throughput, not correctness.
fn ensure_helpers(want: usize) {
    let core = core();
    let want = want.min(MAX_HELPERS);
    loop {
        let cur = core.spawned.load(Ordering::Relaxed);
        if cur >= want {
            return;
        }
        if core
            .spawned
            .compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        let spawned = std::thread::Builder::new()
            .name(format!("jpar-helper-{cur}"))
            .spawn(helper_loop);
        if spawned.is_err() {
            core.spawned.fetch_sub(1, Ordering::Relaxed);
            return;
        }
    }
}

/// Decrements a job's participant count on scope exit — including panic
/// unwinds — so the dispatcher's drain wait can never be leaked.
struct Participant(Arc<Job>);

impl Drop for Participant {
    fn drop(&mut self) {
        let mut n = lock(&self.0.participants);
        *n -= 1;
        if *n == 0 {
            self.0.drained.notify_all();
        }
    }
}

/// Claims one invitation from the queue, registering the calling thread
/// as a participant *before* the queue lock is released (the ordering
/// the drain protocol relies on). Entries with no invitations left are
/// removed eagerly, so the scan is effectively front-of-queue.
fn claim(queue: &mut Vec<Entry>) -> Option<Participant> {
    let idx = queue.iter().position(|e| e.invites > 0)?;
    queue[idx].invites -= 1;
    let job = Arc::clone(&queue[idx].job);
    *lock(&job.participants) += 1;
    if queue[idx].invites == 0 {
        queue.remove(idx);
    }
    Some(Participant(job))
}

// The one call site of `TaskPtr::call` outside the erasure cell; the
// safety argument lives on the `unsafe` block below.
#[allow(unsafe_code)]
fn helper_loop() {
    let core = core();
    let mut queue = lock(&core.queue);
    loop {
        match claim(&mut queue) {
            Some(participant) => {
                drop(queue);
                // The pool's task already contains chunk panics; this
                // catch is the backstop that keeps the helper alive (and
                // the participant count exact) if the task's own
                // bookkeeping panics.
                let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    // SAFETY: we are a registered participant of a job we
                    // claimed from the queue; `dispatch` is still inside
                    // its drain wait, so the task borrow is alive.
                    unsafe { participant.0.task.call(true) }
                }));
                drop(participant);
                queue = lock(&core.queue);
            }
            None => {
                queue = core.work.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

/// Runs `task` on the calling thread plus up to `helpers` parked helper
/// threads, returning only when every participant has left the closure.
///
/// `task` receives `true` when invoked on a helper and `false` on the
/// caller's inline pass. Helpers are best-effort: if none are free (or
/// none can be spawned), the call degrades to running inline.
pub(crate) fn dispatch(helpers: usize, task: Task<'_>) {
    let helpers = helpers.min(MAX_HELPERS);
    if helpers == 0 {
        task(false);
        return;
    }
    ensure_helpers(helpers);
    let core = core();
    let job = Arc::new(Job {
        task: erased::TaskPtr::new(task),
        participants: Mutex::new(0),
        drained: Condvar::new(),
    });
    lock(&core.queue).push(Entry {
        job: Arc::clone(&job),
        invites: helpers,
    });
    for _ in 0..helpers {
        core.work.notify_one();
    }

    task(false);

    // Revoke unclaimed invitations: after this, no new helper can join.
    {
        let mut queue = lock(&core.queue);
        if let Some(idx) = queue.iter().position(|e| Arc::ptr_eq(&e.job, &job)) {
            queue.remove(idx);
        }
    }
    // Drain the helpers that did join before the task borrow expires.
    let mut participants = lock(&job.participants);
    while *participants > 0 {
        participants = job
            .drained
            .wait(participants)
            .unwrap_or_else(|e| e.into_inner());
    }
}
