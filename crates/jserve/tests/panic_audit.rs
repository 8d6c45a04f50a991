//! One panic boundary: every governed front door — find on either route,
//! aggregate, and `Server::serve` — returns a contained panic as
//! `QueryError::WorkerPanicked`, and leaves exactly one `PanicEvent` on
//! the query's metrics sink, wherever the panic was raised: in a pool
//! chunk or on the calling thread.

use std::sync::Arc;

use jguard::{with_quiet_panics, Fault, QueryCtx, QueryError, INJECTED_PANIC_MSG};
use jserve::{AdmissionConfig, Request, Server, TenantSpec};
use jtrace::{Counter, QueryMetrics};
use mongofind::{Collection, Filter, Route};

/// Six documents over `a` and `b`, with an index on `a` when `indexed`.
fn coll(indexed: bool) -> Collection {
    let mut coll = Collection::parse_str(
        r#"[{"a": 1, "b": 1}, {"a": 1, "b": 2}, {"a": 2, "b": 3},
            {"a": 1, "b": 4}, {"a": 3, "b": 5}, {"a": 1, "b": 6}]"#,
    )
    .expect("collection parses");
    if indexed {
        assert!(coll.create_index("a"));
    }
    coll
}

/// A fresh context carrying `fault` and its own sink.
fn faulty(fault: Fault) -> (QueryCtx, Arc<QueryMetrics>) {
    let sink = Arc::new(QueryMetrics::new());
    let ctx = QueryCtx::new()
        .with_metrics(Arc::clone(&sink))
        .with_fault(fault);
    (ctx, sink)
}

/// Checks the audit contract for one query: a contained panic leaves
/// exactly one event naming the injected fault; a clean run leaves none.
/// Returns whether the query panicked.
fn audited<T: std::fmt::Debug>(what: &str, r: &Result<T, QueryError>, sink: &QueryMetrics) -> bool {
    let events = sink.panic_events();
    match r {
        Err(QueryError::WorkerPanicked { payload, .. }) => {
            assert!(payload.contains(INJECTED_PANIC_MSG), "{what}: {payload}");
            assert_eq!(events.len(), 1, "{what}: {events:?}");
            assert_eq!(sink.get(Counter::WorkerPanics), 1, "{what}");
            assert_eq!(&events[0].payload, payload, "{what}");
            true
        }
        Ok(_) => {
            assert!(events.is_empty(), "{what}: {events:?}");
            false
        }
        Err(e) => panic!("{what}: an injected panic surfaced as {e}"),
    }
}

#[test]
fn aggregate_panic_on_the_calling_thread_is_audited_once() {
    // The first poll of `[{"$limit": 2}]` is the stage loop's own check,
    // on the calling thread and outside any pool chunk.
    let coll = coll(false);
    let pipe = jagg::Pipeline::parse_str(r#"[{"$limit": 2}]"#).expect("pipeline parses");
    let (ctx, sink) = faulty(Fault::PanicAtPoll(1));
    let r = with_quiet_panics(|| jagg::aggregate_with_ctx(&coll, &pipe, &ctx));
    assert!(audited("$limit", &r, &sink), "{r:?}");
    assert_eq!(sink.panic_events()[0].chunk, usize::MAX);
}

#[test]
fn index_route_residual_panic_is_contained() {
    // The index route tests its residual conjunct on the calling thread.
    let coll = coll(true);
    let filter = Filter::parse_str(r#"{"a": 1, "b": {"$gte": 2}}"#).expect("filter parses");
    assert_eq!(coll.route_of(&filter), Route::Index);
    let (ctx, sink) = faulty(Fault::PanicAtPoll(1));
    let r = with_quiet_panics(|| coll.find_refs_with_ctx(&filter, &ctx));
    assert!(audited("index find", &r, &sink), "{r:?}");
    // The collection answers the same query normally afterwards.
    assert_eq!(coll.find(&filter).len(), 3);
}

#[test]
fn every_contained_panic_leaves_one_audit_event() {
    let scan = coll(false);
    let indexed = coll(true);
    let filter_src = r#"{"a": 1, "b": {"$gte": 2}}"#;
    let filter = Filter::parse_str(filter_src).expect("filter parses");
    let pipe_src =
        r#"[{"$match": {"a": 1}}, {"$group": {"_id": "$a", "n": {"$sum": "$b"}}}, {"$limit": 2}]"#;
    let pipe = jagg::Pipeline::parse_str(pipe_src).expect("pipeline parses");
    let server = Server::new(coll(true), AdmissionConfig::default());
    let requests = [
        Request::Find {
            filter: filter_src.into(),
        },
        Request::Aggregate {
            pipeline: pipe_src.into(),
        },
    ];
    let mut panicked = 0;
    with_quiet_panics(|| {
        for k in 1..=12 {
            for (what, c) in [("scan find", &scan), ("index find", &indexed)] {
                let (ctx, sink) = faulty(Fault::PanicAtPoll(k));
                let r = c.find_with_ctx(&filter, None, &ctx);
                panicked += usize::from(audited(&format!("{what} k={k}"), &r, &sink));
                let (ctx, sink) = faulty(Fault::PanicAtPoll(k));
                let r = jagg::aggregate_with_ctx(c, &pipe, &ctx);
                panicked += usize::from(audited(&format!("{what} aggregate k={k}"), &r, &sink));
            }
            for (i, req) in requests.iter().enumerate() {
                // A tenant per query, so each query has its own sink.
                let tenant = format!("k{k}-r{i}");
                assert!(server.register_tenant(TenantSpec::new(tenant.as_str())));
                let r = server.serve_with_fault(&tenant, req, Fault::PanicAtPoll(k));
                let sink = server.tenant_metrics(&tenant).expect("tenant registered");
                panicked += usize::from(audited(&format!("serve {req:?} k={k}"), &r, &sink));
            }
        }
    });
    assert!(panicked >= 12, "the sweep hit only {panicked} live polls");
}
