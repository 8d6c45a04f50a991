//! Index-vs-scan differential suite.
//!
//! The document scan (`Collection::find_refs_via_scan_with_ctx`) is the
//! oracle; the routed path (`Collection::find_refs_with_ctx`, which takes
//! the index route whenever `Collection::route_of` says so) must be
//! **byte-identical** to it — and, on the exactly JNL-compilable
//! fragment, so must the JNL oracle — for every filter, probed or
//! scanned, across every segment layout the
//! tree column can be in ({one big parse, 1k single-doc inserts,
//! post-compact, empty}) and every thread count ({1, 2, 8}; the probe
//! itself is sequential, but the fallback scans and the materialisation
//! passes ride the pool). Incremental maintenance (inserts after the
//! index is built) and unicode keys/values get dedicated sweeps.

use std::sync::Arc;

use jguard::QueryCtx;
use jpar::Pool;
use jsondata::{gen, serialize::to_string, Json};
use jtrace::{Counter, QueryMetrics};
use mongofind::{Collection, DocRef, Filter, Route};

/// The scan oracle.
fn scan(coll: &Collection, f: &Filter) -> Vec<DocRef> {
    coll.find_refs_via_scan_with_ctx(f, &QueryCtx::unlimited())
        .unwrap()
}

/// The routed path, checked to have run the route `route_of` names — an
/// index route probes and scans nothing, a scan route scans the
/// documents its plan claims (`scan_docs`) and probes nothing — so an
/// index comparison can never silently become a scan-vs-scan
/// self-comparison.
fn routed(coll: &Collection, f: &Filter) -> Vec<DocRef> {
    let sink = Arc::new(QueryMetrics::new());
    let ctx = QueryCtx::new().with_metrics(Arc::clone(&sink));
    let refs = coll.find_refs_with_ctx(f, &ctx).unwrap();
    let (probes, scanned) = (
        sink.get(Counter::IndexProbes),
        sink.get(Counter::DocsScanned),
    );
    match coll.route_of(f) {
        Route::Index => assert!(probes > 0 && scanned == 0, "{f:?}"),
        Route::Scan => assert!(
            probes == 0 && scanned == coll.explain(f).scan_docs as u64,
            "{f:?}"
        ),
    }
    refs
}

/// Filters crossing the probe planner's whole surface: indexed `$eq`,
/// ranges, `$in`, compound probe+residual, unindexed paths (scan
/// fallback), `$or`/`$ne`/`$exists` (unanswerable), and missing paths.
fn filter_corpus() -> Vec<Filter> {
    [
        // fully index-answerable
        r#"{"name.first": "Sue"}"#,
        r#"{"age": {"$eq": 44}}"#,
        r#"{"age": {"$gt": 60}}"#,
        r#"{"age": {"$gte": 18, "$lt": 30}}"#,
        r#"{"age": {"$lte": 25}}"#,
        r#"{"name.first": {"$in": ["Sue", "Ivy", "Nobody"]}}"#,
        r#"{"name.first": "Wei", "age": {"$gte": 40}}"#,
        // probe + residual (name.last / hobbies are never indexed)
        r#"{"age": {"$gt": 30}, "name.last": "Kim"}"#,
        r#"{"name.first": "Ana", "hobbies": {"$size": 2}}"#,
        // nothing answerable: scan fallback must engage
        r#"{"age": {"$ne": 44}}"#,
        r#"{"name.last": {"$nin": ["Doe"]}}"#,
        r#"{"$or": [{"age": 18}, {"name.first": "Ivy"}]}"#,
        r#"{"name.last": {"$exists": "false"}}"#,
        r#"{"$not": {"age": {"$lt": 70}}}"#,
        // probes that can never match
        r#"{"name.first": "NoSuchName"}"#,
        r#"{"age": {"$gt": 10000}}"#,
        r#"{"nope.deep": 1}"#,
    ]
    .iter()
    .map(|src| Filter::parse_str(src).expect("corpus filter parses"))
    .collect()
}

/// Declares the suite's two standing indexes.
fn with_indexes(mut coll: Collection) -> Collection {
    assert!(coll.create_index("name.first"));
    assert!(coll.create_index("age"));
    coll
}

fn big_parse(n: usize) -> Collection {
    Collection::parse_str(&to_string(&gen::person_records(n, 42))).unwrap()
}

fn fragmented(n: usize) -> Collection {
    let Json::Array(docs) = gen::person_records(n, 42) else {
        panic!("person_records returns an array");
    };
    let mut coll = Collection::parse_str("[]").unwrap();
    for d in &docs {
        coll.insert_str(&to_string(d)).unwrap();
    }
    coll
}

/// The layout sweep: every shape carries the same two indexes.
fn shapes(n: usize) -> Vec<(&'static str, Collection)> {
    // Indexes created *before* compaction: the rebuild path is exercised.
    let mut compacted = with_indexes(fragmented(n));
    compacted.compact();
    vec![
        ("one_big_parse", with_indexes(big_parse(n))),
        ("fragmented_inserts", with_indexes(fragmented(n))),
        ("post_compact", compacted),
        ("empty", with_indexes(Collection::parse_str("[]").unwrap())),
    ]
}

#[test]
fn indexed_find_agrees_with_scan_across_layouts_and_threads() {
    for (label, mut coll) in shapes(1000) {
        for f in filter_corpus() {
            coll.set_pool(Pool::serial());
            let oracle_refs = scan(&coll, &f);
            let oracle_docs: Vec<Json> = oracle_refs.iter().map(|&d| coll.json_of(d)).collect();
            for threads in [1, 2, 8] {
                coll.set_pool(Pool::with_threads(threads));
                assert_eq!(routed(&coll, &f), oracle_refs, "{label} x{threads} {f:?}");
                assert_eq!(coll.find(&f), oracle_docs, "{label} x{threads} {f:?}");
                if f.jnl_exact() {
                    let jnl = coll
                        .find_refs_via_jnl_with_ctx(&f, &QueryCtx::unlimited())
                        .unwrap();
                    assert_eq!(jnl, oracle_refs, "{label} x{threads} {f:?}");
                }
            }
        }
    }
}

#[test]
fn incremental_maintenance_keeps_probes_exact() {
    // Index first, insert afterwards: every insert appends a single-doc
    // segment whose postings are built incrementally; probes must see the
    // new documents immediately and exactly.
    let mut coll = with_indexes(big_parse(300));
    let Json::Array(extra) = gen::person_records(200, 7) else {
        panic!("array");
    };
    for (i, d) in extra.iter().enumerate() {
        coll.insert(d);
        if i % 50 == 0 {
            for f in filter_corpus() {
                assert_eq!(routed(&coll, &f), scan(&coll, &f), "{f:?}");
            }
        }
    }
    for f in filter_corpus() {
        assert_eq!(routed(&coll, &f), scan(&coll, &f), "{f:?}");
    }
    // Compact the mixed column and sweep once more (full rebuild).
    coll.compact();
    for f in filter_corpus() {
        assert_eq!(routed(&coll, &f), scan(&coll, &f), "{f:?}");
    }
}

#[test]
fn unicode_keys_and_values_probe_exactly() {
    let mut coll = Collection::parse_str(
        r#"[
            {"città": "Zürich", "n": 1},
            {"città": "São Paulo", "n": 2},
            {"città": "Zürich", "n": 3},
            {"città": "北京", "n": 4},
            {"città": "ZÜRICH", "n": 5},
            {"n": 6}
        ]"#,
    )
    .unwrap();
    assert!(coll.create_index("città"));
    for src in [
        r#"{"città": "Zürich"}"#,
        r#"{"città": "北京"}"#,
        r#"{"città": {"$in": ["São Paulo", "ZÜRICH"]}}"#,
        r#"{"città": {"$gt": "Z"}}"#,
        r#"{"città": {"$lte": "Zürich"}}"#,
        r#"{"città": "zürich"}"#,
    ] {
        let f = Filter::parse_str(src).unwrap();
        assert_eq!(coll.route_of(&f), Route::Index, "{src}");
        assert_eq!(routed(&coll, &f), scan(&coll, &f), "{src}");
    }
    // Insert more unicode after the build, then compact: maintenance and
    // rebuild must both keep byte-exact agreement.
    coll.insert(&jsondata::parse(r#"{"città": "Zürich", "n": 7}"#).unwrap());
    coll.insert(&jsondata::parse(r#"{"città": "øster", "n": 8}"#).unwrap());
    let f = Filter::parse_str(r#"{"città": "Zürich"}"#).unwrap();
    assert_eq!(routed(&coll, &f).len(), 3);
    assert_eq!(routed(&coll, &f), scan(&coll, &f));
    coll.compact();
    assert_eq!(routed(&coll, &f), scan(&coll, &f));
}

#[test]
fn structured_value_probes_agree() {
    // Indexed values need not be scalars: equality probes on objects and
    // arrays go through the same canon classes, ranges through the same
    // total order.
    let mut coll = Collection::parse_str(
        r#"[
            {"v": {"a": 1, "b": 2}},
            {"v": {"b": 2, "a": 1}},
            {"v": [1, 2]},
            {"v": [1, 2, 3]},
            {"v": 5},
            {"v": "5"},
            {"other": 1}
        ]"#,
    )
    .unwrap();
    assert!(coll.create_index("v"));
    for src in [
        r#"{"v": {"a": 1, "b": 2}}"#,
        r#"{"v": [1, 2]}"#,
        r#"{"v": {"$gte": [1, 2]}}"#,
        r#"{"v": {"$lt": "5"}}"#,
        r#"{"v": {"$gt": 4}}"#,
        r#"{"v": {"$in": [[1, 2, 3], 5]}}"#,
    ] {
        let f = Filter::parse_str(src).unwrap();
        assert_eq!(coll.route_of(&f), Route::Index, "{src}");
        assert_eq!(routed(&coll, &f), scan(&coll, &f), "{src}");
    }
}
