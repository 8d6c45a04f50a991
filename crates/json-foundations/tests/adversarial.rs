//! Hostile-input suite: every entry of [`jsondata::gen::hostile_corpus`]
//! must flow through parse → find → aggregate with a **success or a
//! structured error, never a panic**, at every thread count — and the
//! same queries under a governed context must fail *closed* (structured
//! `QueryError`) when the budget or deadline cannot be met.

use std::time::Duration;

use jguard::{QueryCtx, QueryError};
use jpar::Pool;
use json_foundations::agg::Pipeline;
use json_foundations::mongo::{Collection, Filter, Projection};
use jsondata::{gen, ParseLimits};

const THREADS: [usize; 3] = [1, 2, 8];

/// Labels of corpus entries the §2 data model *requires* the parser to
/// reject (duplicate keys, unbalanced/trailing text). Everything else is
/// nasty but legal under default limits — except depth, where the default
/// 512 cap rejects the deep entries; both outcomes are structured.
const MUST_REJECT: [&str; 3] = ["dup_flood_10k", "unclosed_deep", "trailing_garbage"];

fn queries() -> (Filter, Pipeline) {
    let f = Filter::parse_str(r#"{"a": {"$gte": 0}}"#).unwrap();
    let p = Pipeline::parse_str(
        r#"[{"$match": {"a": {"$gte": 0}}},
            {"$group": {"_id": "$a", "n": {"$count": {}}, "all": {"$push": "$a"}}},
            {"$sort": {"n": 0}}, {"$limit": 5}]"#,
    )
    .unwrap();
    (f, p)
}

#[test]
fn hostile_corpus_never_panics_across_thread_counts() {
    let (filter, pipe) = queries();
    let find = Pipeline::find(filter.clone(), Projection::default());
    for (label, text) in gen::hostile_corpus(7) {
        let parsed = Collection::parse_str(&text);
        if MUST_REJECT.contains(&label) {
            assert!(parsed.is_err(), "{label}: the parser must reject this");
        }
        if parsed.is_err() {
            continue;
        }
        for threads in THREADS {
            let mut coll = Collection::parse_str(&text).unwrap();
            coll.set_pool(Pool::with_threads(threads));
            // Plain and governed paths; the governed context is generous
            // enough that the hostile shape, not the guard, is on trial.
            let found = coll.find(&filter);
            let ctx = QueryCtx::new().with_timeout(Duration::from_secs(60));
            let governed = json_foundations::agg::aggregate_with_ctx(&coll, &find, &ctx)
                .unwrap_or_else(|e| panic!("{label} x{threads}: {e}"));
            assert_eq!(found, governed, "{label} x{threads}");
            let agg = json_foundations::agg::aggregate(&coll, &pipe);
            let agg_governed = json_foundations::agg::aggregate_with_ctx(&coll, &pipe, &ctx)
                .unwrap_or_else(|e| panic!("{label} x{threads}: {e}"));
            assert_eq!(agg, agg_governed, "{label} x{threads}");
        }
    }
}

#[test]
fn hostile_corpus_under_ingestion_limits_fails_closed() {
    let limits = ParseLimits {
        max_depth: 256,
        max_bytes: 1 << 20,
    };
    let build = || {
        let mut coll = Collection::parse_str(r#"[{"a": 1}]"#).unwrap();
        let mut rejected = 0;
        for (label, text) in gen::hostile_corpus(11) {
            match coll.insert_str_with_limits(&text, limits) {
                Ok(()) => {}
                Err(QueryError::ParseLimit(_)) => rejected += 1,
                Err(e) => panic!("{label}: non-parse error at ingestion: {e}"),
            }
        }
        assert!(rejected >= 4, "the caps must reject the worst entries");
        coll
    };
    // Whatever made it through is queryable on every thread count.
    let (filter, pipe) = queries();
    let oracle = {
        let mut c = build();
        c.set_pool(Pool::serial());
        (c.find(&filter), json_foundations::agg::aggregate(&c, &pipe))
    };
    for threads in THREADS {
        let mut c = build();
        c.set_pool(Pool::with_threads(threads));
        assert_eq!(c.find(&filter), oracle.0, "x{threads}");
        assert_eq!(
            json_foundations::agg::aggregate(&c, &pipe),
            oracle.1,
            "x{threads}"
        );
    }
}

#[test]
fn starved_budgets_fail_closed_on_hostile_survivors() {
    let (filter, pipe) = queries();
    let find = Pipeline::find(filter, Projection::default());
    for (label, text) in gen::hostile_corpus(13) {
        let Ok(mut coll) = Collection::parse_str(&text) else {
            continue;
        };
        for threads in THREADS {
            coll.set_pool(Pool::with_threads(threads));
            // A zero byte budget: any query materialising output must
            // return BudgetExceeded (or legitimately produce nothing).
            let starved = QueryCtx::new().with_byte_budget(0);
            if let Err(e) = json_foundations::agg::aggregate_with_ctx(&coll, &find, &starved) {
                assert!(
                    matches!(e, QueryError::BudgetExceeded { .. }),
                    "{label} x{threads}: {e}"
                );
            }
            if let Err(e) = json_foundations::agg::aggregate_with_ctx(&coll, &pipe, &starved) {
                assert!(
                    matches!(e, QueryError::BudgetExceeded { .. }),
                    "{label} x{threads}: {e}"
                );
            }
            // An already-cancelled context stops before real work.
            let cancelled = QueryCtx::new();
            cancelled.cancel();
            assert!(matches!(
                json_foundations::agg::aggregate_with_ctx(&coll, &find, &cancelled),
                Err(QueryError::Cancelled)
            ));
            // An expired deadline is indistinguishable from cancellation
            // in shape: a structured Deadline, not a hang or a panic.
            let expired = QueryCtx::new().with_timeout(Duration::ZERO);
            assert!(matches!(
                json_foundations::agg::aggregate_with_ctx(&coll, &pipe, &expired),
                Err(QueryError::Deadline)
            ));
        }
    }
}
