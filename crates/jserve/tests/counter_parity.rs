//! The served path and a replay of its public calls record the same
//! work. servebench's traced mode alternates rounds served through
//! `Server::serve` with rounds replayed through the public calls `serve`
//! makes (plus one `route_of` per find), and on a read-only workload it
//! requires every round to add the same schedule-free counters to the
//! tenant sink. This suite pins that contract verb by verb, on the
//! benchmark's request shapes.

use jguard::{QueryCtx, QueryError};
use jpar::Pool;
use jserve::{AdmissionConfig, Request, Server, TenantSpec};
use jsondata::Json;
use jtrace::{Counter, QueryMetrics};
use mongofind::{Collection, DocRef, Filter, Projection};

/// The work counters that depend only on the requests, not on the
/// schedule (servebench's `SCHEDULE_FREE`).
const SCHEDULE_FREE: [Counter; 6] = [
    Counter::DocsScanned,
    Counter::RowsEmitted,
    Counter::IndexProbes,
    Counter::ResidualEvals,
    Counter::SegmentsVisited,
    Counter::CanonBuilds,
];

/// `mongofind`'s minimum materialisation chunk (its private
/// `DOC_CHUNK_MIN`), which the replay carves results up by.
const DOC_CHUNK_MIN: usize = 256;

const TENANT: &str = "t";
const POINT: &str = r#"{"id": 7}"#;
const PROJECTION: &str = r#"{"name.first": 1, "age": 1}"#;
const FIND_SCAN: &str = r#"{"name.last": {"$gt": "K"}}"#;
const FIND_EQ_UNINDEXED: &str = r#"{"name.last": "Kim"}"#;
const UNWIND_GROUP_SORT: &str = r#"[
    {"$match": {"age": {"$gte": 30}}},
    {"$unwind": "$hobbies"},
    {"$group": {"_id": "$hobbies", "n": {"$count": {}}, "total_age": {"$sum": "$age"},
                "avg_age": {"$avg": "$age"}, "min_age": {"$min": "$age"}, "max_age": {"$max": "$age"}}},
    {"$sort": {"n": 0, "_id": 1}}
]"#;
const PROJECT_SORT_PAGINATE: &str = r#"[
    {"$match": {"name.first": {"$in": ["Sue", "Omar", "Ivy"]}, "age": {"$lte": 89}}},
    {"$project": {"name.first": 1, "age": 1, "nh": "$hobbies"}},
    {"$sort": {"age": 0, "name.first": 1}},
    {"$skip": 100},
    {"$limit": 50}
]"#;
const MATCH_GROUP_COMPOUND: &str = r#"[
    {"$match": {"name.last": {"$in": ["Doe", "Smith", "Lopez", "Chen", "Haddad", "Kim"]}}},
    {"$group": {"_id": {"f": "$name.first", "l": "$name.last"}, "n": {"$count": {}},
                "ages": {"$push": "$age"}, "youngest": {"$min": "$age"}}},
    {"$sort": {"n": 0, "_id": 1}},
    {"$limit": 10}
]"#;

/// 2,000 person records indexed as the benchmark indexes them, on a
/// serial pool, with one tenant.
fn server() -> Server {
    let mut coll = Collection::from_array(&jsondata::gen::person_records(2_000, 1))
        .expect("records form a collection");
    for path in ["id", "name.first", "age"] {
        assert!(coll.create_index(path), "index on {path} declared once");
    }
    let server = Server::new(coll.with_pool(Pool::serial()), AdmissionConfig::default());
    assert!(server.register_tenant(TenantSpec::new(TENANT)));
    server
}

fn find(filter: &str) -> Request {
    Request::Find {
        filter: filter.into(),
    }
}

fn aggregate(pipeline: &str) -> Request {
    Request::Aggregate {
        pipeline: pipeline.into(),
    }
}

fn bad_query(e: impl std::fmt::Display) -> QueryError {
    QueryError::BadQuery(e.to_string())
}

/// The schedule-free counters `run` adds to `sink`.
fn added(sink: &QueryMetrics, run: impl FnOnce()) -> [u64; 6] {
    let before = SCHEDULE_FREE.map(|c| sink.get(c));
    run();
    let after = SCHEDULE_FREE.map(|c| sink.get(c));
    std::array::from_fn(|i| after[i] - before[i])
}

fn materialize(
    coll: &Collection,
    ctx: &QueryCtx,
    refs: &[DocRef],
    make: impl Fn(DocRef) -> Json + Sync,
) -> Result<Vec<Json>, QueryError> {
    let chunk = coll.pool().chunk_for(refs.len(), DOC_CHUNK_MIN);
    coll.pool()
        .try_flat_map_chunks(ctx, refs.len(), chunk, |r| {
            let mut poll = ctx.poller();
            let mut out = Vec::with_capacity(r.len());
            for &d in &refs[r] {
                poll.tick()?;
                let v = make(d);
                ctx.charge_json(&v)?;
                out.push(v);
            }
            Ok(out)
        })
}

/// Serves `req` through the public calls `Server::serve` makes, under the
/// tenant's sink, plus one `route_of` per find — what the traced replay
/// runs.
fn replay(server: &Server, req: &Request) -> Result<(), QueryError> {
    let metrics = server.tenant_metrics(TENANT).expect("tenant registered");
    let ctx = QueryCtx::new().with_metrics(metrics);
    let snap = server.store().snapshot();
    let coll = snap.collection();
    let filter = |src: &str| Filter::parse_str(src).map_err(bad_query);
    let pipeline = |src: &str| jagg::Pipeline::parse_str(src).map_err(bad_query);
    match req {
        Request::Find { filter: src } => {
            let f = filter(src)?;
            coll.route_of(&f);
            let refs = coll.find_refs_with_ctx(&f, &ctx)?;
            materialize(coll, &ctx, &refs, |d| coll.json_of(d))?;
        }
        Request::FindProject {
            filter: src,
            projection,
        } => {
            let f = filter(src)?;
            let p = Projection::parse_str(projection).map_err(bad_query)?;
            coll.route_of(&f);
            let refs = coll.find_refs_with_ctx(&f, &ctx)?;
            materialize(coll, &ctx, &refs, |d| {
                p.apply_tree(&coll.segments()[d.seg as usize], d.node)
            })?;
        }
        Request::Aggregate { pipeline: src } => {
            jagg::aggregate_with_ctx(coll, &pipeline(src)?, &ctx)?;
        }
        Request::Explain { filter: src } => {
            coll.explain(&filter(src)?).to_json();
        }
        Request::ExplainAnalyze { filter: src } => {
            coll.explain_analyze(&filter(src)?)?.to_json();
        }
        Request::ExplainPipeline { pipeline: src } => {
            jagg::explain(coll, &pipeline(src)?).to_json();
        }
        Request::ExplainAnalyzePipeline { pipeline: src } => {
            jagg::explain_analyze(coll, &pipeline(src)?)?.to_json();
        }
        Request::Insert { .. } => unreachable!("the read-only mixes insert nothing"),
    }
    Ok(())
}

/// Checks every request of `mix`: serving it and replaying it add the
/// same schedule-free counters to the tenant sink. Returns what each
/// served request added.
fn assert_parity(mix: &[Request]) -> Vec<[u64; 6]> {
    let server = server();
    let sink = server.tenant_metrics(TENANT).expect("tenant registered");
    mix.iter()
        .map(|req| {
            let served = added(&sink, || {
                server.serve(TENANT, req).expect("request serves");
            });
            let replayed = added(&sink, || replay(&server, req).expect("request replays"));
            assert_eq!(served, replayed, "{req:?}: {SCHEDULE_FREE:?}");
            served
        })
        .collect()
}

#[test]
fn lookup_point_reads_count_as_their_replay() {
    let added = assert_parity(&[
        find(POINT),
        Request::FindProject {
            filter: POINT.into(),
            projection: PROJECTION.into(),
        },
        aggregate(&format!(r#"[{{"$match": {POINT}}}]"#)),
    ]);
    for counts in added {
        // One probe, one row, nothing scanned.
        assert_eq!(counts, [0, 1, 1, 0, 0, 0]);
    }
}

#[test]
fn analytics_mix_counts_as_its_replay() {
    let mix = [
        find(FIND_SCAN),
        find(FIND_EQ_UNINDEXED),
        aggregate(UNWIND_GROUP_SORT),
        aggregate(PROJECT_SORT_PAGINATE),
        aggregate(MATCH_GROUP_COMPOUND),
        Request::Explain {
            filter: FIND_EQ_UNINDEXED.into(),
        },
        Request::ExplainAnalyzePipeline {
            pipeline: MATCH_GROUP_COMPOUND.into(),
        },
    ];
    let added = assert_parity(&mix);
    assert!(added[..5].iter().all(|c| c.iter().any(|&n| n > 0)));
    // An EXPLAIN ANALYZE counts into its private sink, not the tenant's.
    assert_eq!(added[6], [0; 6], "{:?}", mix[6]);
}

#[test]
fn explain_analyze_counts_as_its_replay_and_adds_nothing() {
    for filter in [POINT, FIND_SCAN] {
        let added = assert_parity(&[Request::ExplainAnalyze {
            filter: filter.into(),
        }]);
        assert_eq!(added, [[0; 6]], "{filter}");
    }
}
