//! A panicking worker closure must never abort the process or poison
//! the pool: it surfaces as `QueryError::WorkerPanicked` (try APIs) or
//! re-raises on the calling thread (`map_chunks`), and the same pool
//! value keeps dispatching correctly afterwards.

use jguard::{with_quiet_panics, Fault, QueryCtx, QueryError};
use jpar::Pool;

#[test]
fn panicking_chunk_becomes_structured_error() {
    with_quiet_panics(|| {
        for threads in [1, 2, 8] {
            let pool = Pool::with_threads(threads);
            let r = pool.try_map_chunks(&QueryCtx::unlimited(), 100, 10, |r| {
                if r.contains(&42) {
                    panic!("chunk bomb");
                }
                Ok(r.len())
            });
            match r {
                Err(QueryError::WorkerPanicked { chunk, payload }) => {
                    assert!(chunk.contains(&42), "chunk {chunk:?} should contain 42");
                    assert_eq!(payload, "chunk bomb");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    });
}

#[test]
fn pool_is_reusable_after_a_panic() {
    with_quiet_panics(|| {
        let pool = Pool::with_threads(4);
        for round in 0..5 {
            let r = pool.try_map_chunks(&QueryCtx::unlimited(), 64, 4, |r| {
                if r.start == 32 {
                    panic!("round {round}");
                }
                Ok(r.len())
            });
            assert!(matches!(r, Err(QueryError::WorkerPanicked { .. })));
            // The very same pool value still produces correct results.
            let ok = pool.map_chunks(100, 1, |r| r.start + 1);
            assert_eq!(ok, (1..=100).collect::<Vec<_>>());
        }
    });
}

#[test]
fn legacy_map_chunks_reraises_on_calling_thread() {
    with_quiet_panics(|| {
        let pool = Pool::with_threads(4);
        let caught = std::panic::catch_unwind(|| {
            pool.map_chunks(100, 10, |r| {
                if r.start == 50 {
                    panic!("legacy bomb");
                }
                r.len()
            })
        });
        let msg = match caught {
            Err(p) => *p.downcast::<String>().expect("string payload"),
            Ok(_) => panic!("expected a panic"),
        };
        assert!(msg.contains("legacy bomb"), "payload preserved: {msg}");
        assert!(msg.contains("50..60"), "chunk range named: {msg}");
        // Still alive and correct.
        assert_eq!(
            pool.map_chunks(10, 1, |r| r.start * 2),
            (0..10).map(|i| i * 2).collect::<Vec<_>>()
        );
    });
}

#[test]
fn injected_fault_panic_is_contained_at_every_thread_count() {
    with_quiet_panics(|| {
        for threads in [1, 2, 8] {
            let pool = Pool::with_threads(threads);
            let ctx = QueryCtx::unlimited().with_fault(Fault::PanicAtPoll(2));
            let r = pool.try_map_chunks(&ctx, 1000, 10, |r| Ok(r.len()));
            assert!(
                matches!(r, Err(QueryError::WorkerPanicked { .. })),
                "threads {threads}: {r:?}"
            );
        }
    });
}

#[test]
fn expired_ctx_stops_dispatch() {
    for threads in [1, 2, 8] {
        let pool = Pool::with_threads(threads);
        let ctx = QueryCtx::unlimited().with_timeout(std::time::Duration::from_secs(0));
        let r = pool.try_map_chunks(&ctx, 10_000, 8, |r| Ok(r.len()));
        assert_eq!(r, Err(QueryError::Deadline), "threads {threads}");
    }
}

#[test]
fn cancelled_ctx_stops_dispatch() {
    let pool = Pool::with_threads(4);
    let ctx = QueryCtx::new();
    ctx.cancel();
    let r = pool.try_map_chunks(&ctx, 10_000, 8, |r| Ok(r.len()));
    assert_eq!(r, Err(QueryError::Cancelled));
}

#[test]
fn try_results_match_infallible_results() {
    let data: Vec<u64> = (0u64..50_000)
        .map(|i| i.wrapping_mul(2654435761) % 997)
        .collect();
    for threads in [1, 2, 8] {
        let pool = Pool::with_threads(threads);
        let plain = pool
            .map_chunks(data.len(), 512, |r| {
                data[r]
                    .iter()
                    .copied()
                    .filter(|&x| x % 3 == 0)
                    .collect::<Vec<_>>()
            })
            .concat();
        let tried = pool
            .try_flat_map_chunks(&QueryCtx::unlimited(), data.len(), 512, |r| {
                Ok(data[r].iter().copied().filter(|&x| x % 3 == 0).collect())
            })
            .unwrap();
        assert_eq!(plain, tried, "threads {threads}");
    }
}
