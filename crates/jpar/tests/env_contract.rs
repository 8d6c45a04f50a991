//! Pins the `JPAR_THREADS` environment contract of
//! [`Pool::auto`], so the persistent-pool rewrite (or any future one)
//! cannot silently change env semantics:
//!
//! * a positive integer is taken verbatim;
//! * `"0"`, unparseable garbage, and values too large for `usize` all
//!   fall back to the machine's parallelism — never an error, never a
//!   zero-thread pool;
//! * whatever happens, the resulting thread count is ≥ 1.
//!
//! Environment variables are process-global, so every case runs inside
//! one `#[test]` (cargo runs separate `#[test]` fns concurrently).

use jpar::{Pool, THREADS_ENV};

/// Sets `var` for the duration of `f`, restoring the previous state
/// afterwards even if an assertion fails.
fn with_env<T>(var: &str, value: Option<&str>, f: impl FnOnce() -> T) -> T {
    struct Restore<'a>(&'a str, Option<String>);
    impl Drop for Restore<'_> {
        fn drop(&mut self) {
            match &self.1 {
                Some(v) => std::env::set_var(self.0, v),
                None => std::env::remove_var(self.0),
            }
        }
    }
    let _restore = Restore(var, std::env::var(var).ok());
    match value {
        Some(v) => std::env::set_var(var, v),
        None => std::env::remove_var(var),
    }
    f()
}

#[test]
fn jpar_threads_env_edge_cases_clamp_to_at_least_one() {
    let fallback = with_env(THREADS_ENV, None, || Pool::auto().threads());
    assert!(fallback >= 1, "unset env must yield a usable pool");

    // A positive integer is honoured verbatim.
    assert_eq!(
        with_env(THREADS_ENV, Some("3"), || Pool::auto().threads()),
        3
    );
    assert_eq!(
        with_env(THREADS_ENV, Some("1"), || Pool::auto().threads()),
        1
    );

    // An absurdly large — but parseable — count is honoured too: the
    // pool clamps its *workers* per call (`threads.min(n_chunks)`, and
    // the park core caps helper threads), so a huge setting cannot
    // spawn a huge number of threads.
    let huge = with_env(THREADS_ENV, Some("1048576"), Pool::auto);
    assert_eq!(huge.threads(), 1_048_576);
    let out = huge
        .try_map_chunks(&jguard::QueryCtx::unlimited(), 1000, 10, |r| Ok(r.len()))
        .expect("no faults");
    assert_eq!(out.iter().sum::<usize>(), 1000);

    // "0" is not a usable thread count: fall back, never zero.
    assert_eq!(
        with_env(THREADS_ENV, Some("0"), || Pool::auto().threads()),
        fallback
    );

    // Garbage falls back.
    for garbage in ["banana", "", " 4", "4 ", "-2", "3.5", "0x10"] {
        assert_eq!(
            with_env(THREADS_ENV, Some(garbage), || Pool::auto().threads()),
            fallback,
            "garbage value {garbage:?} must fall back"
        );
    }

    // Too large for usize: parse fails, falls back (not a panic, not 0).
    assert_eq!(
        with_env(THREADS_ENV, Some("18446744073709551616"), || {
            Pool::auto().threads()
        }),
        fallback
    );
}
