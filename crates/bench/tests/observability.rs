//! The observability suite: the `jtrace` determinism contract and the
//! `EXPLAIN` snapshot pins.
//!
//! **Determinism.** The *work* counters — documents scanned, rows
//! emitted, index probes, bitmap intersections, residual evaluations —
//! measure what a query logically did, so their totals must be invariant
//! across thread counts and segment layouts: a query does the same work
//! whether one worker does it or eight, and whether the collection was
//! parsed in one shot, built from per-insert segments, or compacted.
//! (*Schedule* counters — chunks dispatched/stolen, polls — and the
//! per-segment `SegmentsVisited` and `SegmentsProbed` are execution-shape
//! by definition and carry no such contract.)
//!
//! **Snapshots.** The `EXPLAIN` text and JSON renderings over the S9
//! filter corpus are pinned byte-for-byte, and so are the `EXPLAIN
//! ANALYZE` renderings up to wall time: plans are a public, diffable
//! interface, and an accidental rendering change should fail loudly
//! here rather than silently invalidate downstream tooling.

use std::sync::Arc;

use bench::{
    jnl_refs, routed_refs, s10_route_workloads, scan_refs, S6_FIND_FILTER, S9_INDEX_PATHS,
};
use jguard::QueryCtx;
use jtrace::{Counter, QueryMetrics, Snapshot};
use mongofind::{Collection, Filter};

/// The work-counter set under the determinism contract.
const WORK: [Counter; 5] = [
    Counter::DocsScanned,
    Counter::RowsEmitted,
    Counter::IndexProbes,
    Counter::BitmapIntersections,
    Counter::ResidualEvals,
];

fn corpus() -> Vec<jsondata::Json> {
    let jsondata::Json::Array(docs) = jsondata::gen::person_records(1000, 7) else {
        panic!("person_records returns an array");
    };
    docs
}

/// The four segment layouts of the same logical collection, each with
/// the S9 indexes declared.
fn layouts(docs: &[jsondata::Json]) -> Vec<(&'static str, Collection)> {
    let text = jsondata::serialize::to_string(&jsondata::Json::Array(docs.to_vec()));
    let mut one_parse = Collection::parse_str(&text).expect("corpus parses");
    for p in S9_INDEX_PATHS {
        one_parse.create_index(p);
    }
    let mut fragmented = Collection::parse_str("[]").expect("empty parses");
    for p in S9_INDEX_PATHS {
        fragmented.create_index(p);
    }
    for d in docs {
        fragmented.insert(d);
    }
    let mut compacted = Collection::parse_str("[]").expect("empty parses");
    for p in S9_INDEX_PATHS {
        compacted.create_index(p);
    }
    for d in docs {
        compacted.insert(d);
    }
    compacted.compact();
    // The layout tiered compaction leaves between two merges: a seed, two
    // merged tails and single-document inserts.
    let (seed, rest) = docs.split_at(docs.len() / 2);
    let (first, rest) = rest.split_at(docs.len() / 5);
    let (second, rest) = rest.split_at(docs.len() / 12);
    let text = jsondata::serialize::to_string(&jsondata::Json::Array(seed.to_vec()));
    let mut tiered = Collection::parse_str(&text).expect("corpus parses");
    for p in S9_INDEX_PATHS {
        tiered.create_index(p);
    }
    for tail in [first, second] {
        tail.iter().for_each(|d| tiered.insert(d));
        tiered.compact_tail();
    }
    rest.iter().for_each(|d| tiered.insert(d));
    let multi = tiered.segments().iter().filter(|s| s.is_multi()).count();
    assert_eq!(multi, 3, "seed and two merged tails");
    vec![
        ("one_parse", one_parse),
        ("fragmented", fragmented),
        ("post_compact", compacted),
        ("tiered", tiered),
    ]
}

/// Runs `f` under a fresh metrics sink and returns the counter snapshot.
fn counters_of(f: impl FnOnce(&QueryCtx)) -> Snapshot {
    let sink = Arc::new(QueryMetrics::new());
    let ctx = QueryCtx::new().with_metrics(Arc::clone(&sink));
    f(&ctx);
    sink.snapshot()
}

fn work_totals(s: &Snapshot) -> Vec<(&'static str, u64)> {
    WORK.iter().map(|&c| (c.name(), s.get(c))).collect()
}

#[test]
fn work_counters_invariant_across_threads_and_layouts() {
    let docs = corpus();
    let filters: Vec<(&str, Filter)> = s10_route_workloads()
        .into_iter()
        .map(|(label, src, _)| (label, Filter::parse_str(src).expect("filter parses")))
        .chain(std::iter::once((
            "s6_find_scan",
            Filter::parse_str(S6_FIND_FILTER).expect("filter parses"),
        )))
        .collect();
    let pipe = jagg::Pipeline::parse_str(
        r#"[
            {"$match": {"age": {"$gte": 30}}},
            {"$unwind": "$hobbies"},
            {"$group": {"_id": "$hobbies", "n": {"$count": {}}}},
            {"$sort": {"n": 0, "_id": 1}}
        ]"#,
    )
    .expect("pipeline parses");

    let mut labels: Vec<&str> = filters.iter().map(|(l, _)| *l).collect();
    labels.push("aggregate_pipeline");

    // Reference totals come from the first (layout, threads) combination;
    // every other combination must reproduce them exactly.
    let mut reference: Vec<Vec<(&'static str, u64)>> = Vec::new();
    for (layout, mut coll) in layouts(&docs) {
        for threads in [1usize, 2, 8] {
            coll.set_pool(jpar::Pool::with_threads(threads));
            let mut observed = Vec::new();
            for (label, f) in &filters {
                let snap = counters_of(|ctx| {
                    coll.find_refs_with_ctx(f, ctx)
                        .unwrap_or_else(|e| panic!("{label} failed: {e}"));
                });
                observed.push(work_totals(&snap));
            }
            let snap = counters_of(|ctx| {
                jagg::aggregate_with_ctx(&coll, &pipe, ctx).expect("pipeline runs");
            });
            observed.push(work_totals(&snap));
            if reference.is_empty() {
                // The reference run must actually record work, or the
                // invariance below is vacuous.
                let total: u64 = observed.iter().flatten().map(|(_, n)| n).sum();
                assert!(total > 0, "reference run recorded no work at all");
                reference = observed;
                continue;
            }
            for (label, (got, want)) in labels.iter().zip(observed.iter().zip(&reference)) {
                assert_eq!(
                    got, want,
                    "work counters drifted on {label} at {layout}/{threads} threads"
                );
            }
        }
    }
}

#[test]
fn group_phase_spans_nest_in_the_stage_span() {
    use jtrace::{SpanKind, SpanPhase};
    // `$group` opens one `phase` span per phase, in order, inside its
    // stage span: 0 resolution, 1 unification, 2 fold. Chunk spans fall
    // inside the parallel phases and are left out here.
    let docs = corpus();
    let pipe = jagg::Pipeline::parse_str(
        r#"[{"$unwind": "$hobbies"}, {"$group": {"_id": "$hobbies", "lo": {"$min": "$age"}}}]"#,
    )
    .expect("pipeline parses");
    for (layout, mut coll) in layouts(&docs) {
        for threads in [1usize, 2] {
            coll.set_pool(jpar::Pool::with_threads(threads));
            let sink = Arc::new(QueryMetrics::with_spans(1 << 14));
            let ctx = QueryCtx::new().with_metrics(Arc::clone(&sink));
            jagg::aggregate_with_ctx(&coll, &pipe, &ctx).expect("pipeline runs");
            let spans = sink.spans().expect("sink was built with a span ring");
            assert_eq!(spans.dropped(), 0);
            let events: Vec<(SpanKind, SpanPhase, u32)> = spans
                .events()
                .into_iter()
                .filter(|e| e.kind != SpanKind::Chunk)
                .map(|e| (e.kind, e.phase, e.arg))
                .collect();
            let (open, close) = (SpanPhase::Open, SpanPhase::Close);
            let mut want = vec![(SpanKind::Stage, open, 0), (SpanKind::Stage, close, 0)];
            want.push((SpanKind::Stage, open, 1));
            for phase in 0..3 {
                want.push((SpanKind::Phase, open, phase));
                want.push((SpanKind::Phase, close, phase));
            }
            want.push((SpanKind::Stage, close, 1));
            assert_eq!(events, want, "{layout} x{threads}");
        }
    }
}

#[test]
fn routed_rows_equal_scan_oracle_on_every_layout() {
    let docs = corpus();
    for (layout, coll) in layouts(&docs) {
        for (label, src, expected_route) in s10_route_workloads() {
            let f = Filter::parse_str(src).expect("filter parses");
            assert_eq!(
                coll.explain(&f).route.name(),
                expected_route,
                "{label} on {layout}"
            );
            let scan = scan_refs(&coll, &f);
            assert_eq!(
                routed_refs(&coll, &f),
                scan,
                "routed refs != scan refs on {label} ({layout})"
            );
            // The JNL oracle agrees too wherever the compilation is exact.
            if f.jnl_exact() {
                assert_eq!(
                    jnl_refs(&coll, &f),
                    scan,
                    "JNL refs != scan refs on {label} ({layout})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// EXPLAIN snapshots: pinned renderings over the S9 filter corpus.
// ---------------------------------------------------------------------

fn snapshot_collection() -> Collection {
    let text = jsondata::serialize::to_string(&jsondata::gen::person_records(100, 7));
    let mut coll = Collection::parse_str(&text).expect("corpus parses");
    for p in S9_INDEX_PATHS {
        coll.create_index(p);
    }
    coll
}

#[test]
fn explain_text_snapshots_for_the_s9_corpus() {
    let coll = snapshot_collection();
    let expected: Vec<(&str, &str)> = vec![
        (
            r#"{"id": 12345}"#,
            "find id = 12345\n\
             \x20 route: index  [docs=100, scan_docs=0, segments=1]\n\
             \x20 indexes: [id, name.first, age]\n\
             \x20 probe[0] eq: id = 12345\n",
        ),
        (
            r#"{"age": {"$gte": 40, "$lt": 50}}"#,
            "find (age >= 40 && age < 50)\n\
             \x20 route: index  [docs=100, scan_docs=0, segments=1]\n\
             \x20 indexes: [id, name.first, age]\n\
             \x20 probe[0] range: age < 50\n\
             \x20 probe[1] range: age >= 40\n",
        ),
        (
            r#"{"name.first": {"$in": ["Sue", "Omar", "Ivy"]}}"#,
            "find name.first in [\"Sue\", \"Omar\", \"Ivy\"]\n\
             \x20 route: index  [docs=100, scan_docs=0, segments=1]\n\
             \x20 indexes: [id, name.first, age]\n\
             \x20 probe[0] in: name.first in [\"Sue\", \"Omar\", \"Ivy\"]\n",
        ),
        (
            r#"{"age": {"$gte": 40, "$lt": 60}, "name.last": "Kim"}"#,
            "find (age >= 40 && age < 60 && name.last = \"Kim\")\n\
             \x20 route: index  [docs=100, scan_docs=0, segments=1]\n\
             \x20 indexes: [id, name.first, age]\n\
             \x20 probe[0] range: age < 60\n\
             \x20 probe[1] range: age >= 40\n\
             \x20 residual: name.last = \"Kim\"\n",
        ),
        (
            r#"{"name.last": "Kim"}"#,
            "find name.last = \"Kim\"\n\
             \x20 route: scan  [docs=100, scan_docs=98, segments=1]\n\
             \x20 indexes: [id, name.first, age]\n",
        ),
        (
            r#"{"name.last": {"$gt": "K"}}"#,
            "find name.last > \"K\"\n\
             \x20 route: scan  [docs=100, scan_docs=100, segments=1]\n\
             \x20 indexes: [id, name.first, age]\n",
        ),
    ];
    for (src, want) in expected {
        let f = Filter::parse_str(src).expect("filter parses");
        assert_eq!(
            coll.explain(&f).render_text(),
            want,
            "snapshot drift on {src}"
        );
    }
}

#[test]
fn explain_json_snapshots_for_the_s9_corpus() {
    let coll = snapshot_collection();
    let f = Filter::parse_str(r#"{"age": {"$gte": 40, "$lt": 60}, "name.last": "Kim"}"#)
        .expect("filter parses");
    assert_eq!(
        coll.explain(&f).to_json().to_string(),
        "{\"query\":\"find\",\
          \"filter\":\"(age >= 40 && age < 60 && name.last = \\\"Kim\\\")\",\
          \"route\":\"index\",\
          \"docs\":100,\
          \"scan_docs\":0,\
          \"segments\":1,\
          \"indexes\":[\"id\",\"name.first\",\"age\"],\
          \"probes\":[\
           {\"path\":\"age\",\"kind\":\"range\",\"condition\":\"age < 60\"},\
           {\"path\":\"age\",\"kind\":\"range\",\"condition\":\"age >= 40\"}],\
          \"residual\":\"name.last = \\\"Kim\\\"\"}",
    );
    let f = Filter::parse_str(r#"{"name.last": "Kim"}"#).expect("filter parses");
    assert_eq!(
        coll.explain(&f).to_json().to_string(),
        "{\"query\":\"find\",\
          \"filter\":\"name.last = \\\"Kim\\\"\",\
          \"route\":\"scan\",\
          \"docs\":100,\
          \"scan_docs\":98,\
          \"segments\":1,\
          \"indexes\":[\"id\",\"name.first\",\"age\"],\
          \"probes\":[]}",
    );
}

#[test]
fn pipeline_explain_text_snapshot() {
    let coll = snapshot_collection();
    let pipe = jagg::Pipeline::parse_str(
        r#"[
            {"$match": {"age": {"$gte": 30}}},
            {"$sort": {"age": 0}},
            {"$skip": 5},
            {"$limit": 10}
        ]"#,
    )
    .expect("pipeline parses");
    let text = jagg::explain(&coll, &pipe).render_text();
    let want = "aggregate (4 stages)\n\
                \x20 [0] $match: age >= 30\n\
                \x20 [1] $sort: age desc  [fused: top-k]\n\
                \x20 [2] $skip: 5  [fused: top-k]\n\
                \x20 [3] $limit: 10  [fused: top-k]\n\
                \x20 leading $match plan:\n\
                \x20   find age >= 30\n\
                \x20     route: index  [docs=100, scan_docs=0, segments=1]\n\
                \x20     indexes: [id, name.first, age]\n\
                \x20     probe[0] range: age >= 30\n\
                \x20 note: top-k fusion: $sort+$skip+$limit run as a bounded heap (skip=5, limit=10)\n";
    assert_eq!(text, want, "pipeline explain snapshot drift:\n{text}");
}

/// `rendered` with every `wall_us` figure replaced by `_`: the only
/// run-dependent value of an `EXPLAIN ANALYZE` rendering on a serial pool.
fn mask_wall_us(rendered: &str) -> String {
    let mut out = String::new();
    let mut rest = rendered;
    while let Some(i) = rest.find("wall_us") {
        let (head, tail) = rest.split_at(i + "wall_us".len());
        let sep = if tail.starts_with("\":") { 2 } else { 1 };
        out.push_str(head);
        out.push_str(&tail[..sep]);
        out.push('_');
        rest = tail[sep..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out + rest
}

/// The top-level keys of a rendered plan, in order.
fn keys(plan: &jsondata::Json) -> Vec<String> {
    let obj = plan.as_object().expect("plans render to objects");
    obj.pairs()
        .iter()
        .map(|(k, _)| k.as_str().to_owned())
        .collect()
}

#[test]
fn analyze_snapshots_share_one_ending() {
    let coll = snapshot_collection().with_pool(jpar::Pool::serial());
    let f = Filter::parse_str(r#"{"age": {"$gte": 40, "$lt": 60}, "name.last": "Kim"}"#)
        .expect("filter parses");
    let an = coll
        .explain_analyze(&f)
        .expect("ungoverned analyze succeeds");
    let want = "find (age >= 40 && age < 60 && name.last = \"Kim\")\n\
                \x20 route: index  [docs=100, scan_docs=0, segments=1]\n\
                \x20 indexes: [id, name.first, age]\n\
                \x20 probe[0] range: age < 60\n\
                \x20 probe[1] range: age >= 40\n\
                \x20 residual: name.last = \"Kim\"\n\
                \x20 actual: rows=6, wall_us=_\n\
                \x20 counters: rows_emitted=6, index_probes=2, segments_probed=2, \
                bitmap_intersections=1, residual_evals=31, bytes_charged=32, polls=1\n\
                \x20 spans: recorded=6, dropped=0\n";
    assert_eq!(mask_wall_us(&an.render_text()), want);
    let find_keys = keys(&an.to_json());
    assert_eq!(
        find_keys[find_keys.len() - 4..],
        ["rows", "wall_us", "counters", "spans"]
    );
    assert_eq!(find_keys[..find_keys.len() - 4], keys(&an.plan.to_json()));

    let pipe = jagg::Pipeline::parse_str(
        r#"[{"$match": {"age": {"$gte": 30}}}, {"$sort": {"age": 0}}, {"$skip": 5}, {"$limit": 10}]"#,
    )
    .expect("pipeline parses");
    let an = jagg::explain_analyze(&coll, &pipe).expect("ungoverned analyze succeeds");
    let text = mask_wall_us(&an.render_text());
    let plan_text = an.plan.render_text();
    let want = "  actual[0] $match: rows=87, wall_us=_\n\
                \x20 actual[1] $sort: rows=87, wall_us=_\n\
                \x20 actual[2] $skip: rows=82, wall_us=_\n\
                \x20 actual[3] $limit: rows=10, wall_us=_\n\
                \x20 actual: rows=10, wall_us=_\n\
                \x20 counters: rows_emitted=87, index_probes=1, segments_probed=1, \
                bytes_charged=16, polls=6, chunks_dispatched=1\n\
                \x20 spans: recorded=10, dropped=0\n";
    assert_eq!(text.strip_prefix(plan_text.as_str()), Some(want), "{text}");
    let pipe_keys = keys(&an.to_json());
    assert_eq!(
        pipe_keys[pipe_keys.len() - 5..],
        ["actual_stages", "rows", "wall_us", "counters", "spans"]
    );
    assert_eq!(pipe_keys[..pipe_keys.len() - 5], keys(&an.plan.to_json()));
}

/// `bytes_charged` of each S5 pipeline of [`bench::s5_pipelines`] under
/// a byte budget, the same on every layout and thread count. The `$group`
/// figures are those of the executor that materialised every `$group` key
/// and `$push` element per row; the node-native executor charges each kept
/// handle what its value will cost, so a budget trips on the same row.
/// The paginate pipeline's `$project` runs late, on its 50 survivors
/// only, so it charges less than the executor that projected every row
/// (124,798); [`FULL_SORT`] pins the unfused figures. Every document is
/// charged once, by the step that makes it: the projected page where the
/// `$project` makes it (the output step charged it a second time,
/// 41,683), and every `$group` output where the fold makes it, all 48
/// groups of the compound-key pipeline rather than the 10 its `$limit`
/// keeps (36,726).
const S5_BYTES_CHARGED: [u64; 3] = [2071, 29_093, 60_644];

#[test]
fn s5_bytes_charged_are_those_of_the_materialising_executor() {
    let docs = corpus();
    for (label, mut coll) in layouts(&docs) {
        for ((name, src), want) in bench::s5_pipelines().into_iter().zip(S5_BYTES_CHARGED) {
            let pipe = jagg::Pipeline::parse_str(src).expect("S5 pipeline parses");
            for threads in [1, 2] {
                coll.set_pool(jpar::Pool::with_threads(threads));
                let sink = Arc::new(QueryMetrics::new());
                let ctx = QueryCtx::new()
                    .with_byte_budget(u64::MAX / 2)
                    .with_metrics(Arc::clone(&sink));
                jagg::aggregate_with_ctx(&coll, &pipe, &ctx).expect("within budget");
                assert_eq!(
                    sink.get(Counter::BytesCharged),
                    want,
                    "{label} {name} x{threads}"
                );
            }
        }
    }
}

/// A `$project`'s documents are charged once, where the `$project` makes
/// them: a `$limit` after it that keeps every row adds no charge (the
/// output step charged each projected document again, 134,000 bytes).
#[test]
fn a_projected_document_is_charged_once() {
    let docs = corpus();
    for src in [
        r#"[{"$project": {"age": 1}}]"#,
        r#"[{"$project": {"age": 1}}, {"$limit": 100000}]"#,
    ] {
        let pipe = jagg::Pipeline::parse_str(src).expect("pipeline parses");
        for (label, mut coll) in layouts(&docs) {
            for threads in [1, 2] {
                coll.set_pool(jpar::Pool::with_threads(threads));
                let sink = Arc::new(QueryMetrics::new());
                let ctx = QueryCtx::new()
                    .with_byte_budget(u64::MAX / 2)
                    .with_metrics(Arc::clone(&sink));
                jagg::aggregate_with_ctx(&coll, &pipe, &ctx).expect("within budget");
                assert_eq!(
                    sink.get(Counter::BytesCharged),
                    67_000,
                    "{label} x{threads}: {src}"
                );
            }
        }
    }
}

/// Full `$sort`s (no `$limit` follows) over the S5 paginate selection,
/// with the `bytes_charged` of the executor that materialised every sort
/// key: keys that are tree handles (sorting the matched documents), and
/// keys of owned rows (sorting after the `$project`, which therefore runs
/// before the sort and projects every row, each charged once: the output
/// step charged them again, 207,913).
const FULL_SORT: [(&str, u64); 2] = [
    (
        r#"[{"$match": {"name.first": {"$in": ["Sue", "Omar", "Ivy"]}, "age": {"$lte": 89}}},
            {"$sort": {"age": 0, "name.first": 1}}]"#,
        150_954,
    ),
    (
        r#"[{"$match": {"name.first": {"$in": ["Sue", "Omar", "Ivy"]}, "age": {"$lte": 89}}},
            {"$project": {"name.first": 1, "age": 1, "nh": "$hobbies"}},
            {"$sort": {"age": 0, "name.first": 1}}]"#,
        112_208,
    ),
];

#[test]
fn full_sort_bytes_charged_are_those_of_the_materialising_executor() {
    let docs = corpus();
    for (src, want) in FULL_SORT {
        let pipe = jagg::Pipeline::parse_str(src).expect("pipeline parses");
        for (label, mut coll) in layouts(&docs) {
            for threads in [1, 2] {
                coll.set_pool(jpar::Pool::with_threads(threads));
                let sink = Arc::new(QueryMetrics::new());
                let ctx = QueryCtx::new()
                    .with_byte_budget(u64::MAX / 2)
                    .with_metrics(Arc::clone(&sink));
                jagg::aggregate_with_ctx(&coll, &pipe, &ctx).expect("within budget");
                assert_eq!(
                    sink.get(Counter::BytesCharged),
                    want,
                    "{label} x{threads}: {src}"
                );
            }
        }
    }
}
