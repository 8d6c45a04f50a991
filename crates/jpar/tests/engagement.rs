//! The pool really runs chunks on more than one thread: with two threads
//! and two chunks, each chunk waits until both chunks have started. A
//! pool that ran its chunks one after the other (the serial fallback, or
//! a helper that never claims the job) leaves the first chunk waiting
//! alone until it gives up.
//!
//! This is the engagement half of `harness s6`, which counts that the
//! query paths split their work into chunks but cannot see which thread
//! runs them.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use jpar::Pool;

/// How long a chunk waits for the other one before giving up.
const RENDEZVOUS: Duration = Duration::from_secs(10);

#[test]
fn two_threads_run_two_chunks_at_once() {
    let arrived = Mutex::new(0usize);
    let both = Condvar::new();
    let met = jpar::ungoverned(|ctx| {
        Pool::with_threads(2).try_map_chunks(ctx, 2, 1, |_| {
            let mut n = arrived.lock().expect("no chunk panics holding the lock");
            *n += 1;
            both.notify_all();
            let (n, _) = both
                .wait_timeout_while(n, RENDEZVOUS, |n| *n < 2)
                .expect("no chunk panics holding the lock");
            Ok(*n == 2)
        })
    });
    assert_eq!(
        met,
        [true, true],
        "the two chunks never ran at the same time"
    );
}
