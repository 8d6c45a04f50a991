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

/// Fence documents: the value at the indexed path `v` cycles through the
/// fence edges (0 and `u64::MAX`), numbers that climb or fall with the
/// ordinal, a string, an array and an object holding a number, and no
/// `v` at all; `w`, the second index, mixes numbers with a string and
/// documents without it.
fn fence_docs(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let v = match i % 9 {
                0 => "0".to_owned(),
                1 => u64::MAX.to_string(),
                2 => (7 + i).to_string(),
                3 => r#""7""#.to_owned(),
                4 => "[7]".to_owned(),
                5 => r#"{"a": 7}"#.to_owned(),
                6 => String::new(),
                7 => (1000 - i).to_string(),
                _ => (u64::MAX - i as u64).to_string(),
            };
            let w = match i % 4 {
                0 => format!(r#", "w": {i}"#),
                1 => r#", "w": "w""#.to_owned(),
                2 => String::new(),
                _ => format!(r#", "w": {}"#, i * 1000),
            };
            match v.as_str() {
                "" => format!(r#"{{"k": {i}{w}}}"#),
                v => format!(r#"{{"k": {i}, "v": {v}{w}}}"#),
            }
        })
        .collect()
}

fn fence_parse(docs: &[String]) -> Collection {
    Collection::parse_str(&format!("[{}]", docs.join(","))).unwrap()
}

fn fence_insert(mut coll: Collection, docs: &[String]) -> Collection {
    for d in docs {
        coll.insert_str(d).unwrap();
    }
    coll
}

fn fence_indexed(mut coll: Collection) -> Collection {
    assert!(coll.create_index("v"));
    assert!(coll.create_index("w"));
    coll
}

/// Every layout whose segments carry different fences, each over the
/// same 90 fence documents.
fn fence_layouts() -> Vec<(&'static str, Collection)> {
    let docs = fence_docs(90);
    let empty = || Collection::parse_str("[]").unwrap();
    // The seed, two merged tails and single-document inserts.
    let mut tiered = fence_insert(fence_indexed(fence_parse(&docs[..30])), &docs[30..60]);
    tiered.compact_tail();
    tiered = fence_insert(tiered, &docs[60..80]);
    tiered.compact_tail();
    let tiered = fence_insert(tiered, &docs[80..]);
    assert!(tiered.segments().iter().filter(|s| s.is_multi()).count() >= 2);
    // A compacted clone adopting the segments its origin appended.
    let mut origin = fence_insert(fence_indexed(fence_parse(&docs[..30])), &docs[30..60]);
    let mut adopted = origin.clone();
    adopted.compact();
    let from = origin.segments().len();
    origin = fence_insert(origin, &docs[60..]);
    for seg in &origin.segments()[from..] {
        adopted.adopt_segment(seg);
    }
    // Indexes declared after inserts (postings appended to every
    // segment's record, one index at a time), then more inserts.
    let mut late = fence_insert(fence_parse(&docs[..30]), &docs[30..60]);
    assert!(late.create_index("w"));
    late = fence_insert(late, &docs[60..75]);
    assert!(late.create_index("v"));
    let late = fence_insert(late, &docs[75..]);
    vec![
        ("one_parse", fence_indexed(fence_parse(&docs))),
        ("fragmented", fence_insert(fence_indexed(empty()), &docs)),
        ("tiered", tiered),
        ("adopted", adopted),
        ("indexed_after_inserts", late),
    ]
}

/// The number constants to probe: every number at `v` or `w`, its
/// neighbours, and both ends of the number line.
fn fence_numbers() -> Vec<u64> {
    let mut ns = vec![0, 1, u64::MAX - 1, u64::MAX];
    for i in 0..90u64 {
        for n in [7 + i, 1000 - i, u64::MAX - i, i, i * 1000] {
            ns.extend([n.saturating_sub(1), n, n.saturating_add(1)]);
        }
    }
    ns.sort_unstable();
    ns.dedup();
    ns
}

/// Number, string, array and object probes over the fenced indexes
/// agree with the scan on every layout. On the fragmented layout every
/// segment holds one document, so its fence is one number (or none): a
/// lone number `$eq` must read exactly the segments holding it.
#[test]
fn value_fences_keep_probes_exact() {
    let max = u64::MAX;
    // (filter, whether it is a lone number `$eq`)
    let mut filters: Vec<(String, bool)> = fence_numbers()
        .into_iter()
        .flat_map(|n| [format!(r#"{{"v": {n}}}"#), format!(r#"{{"w": {n}}}"#)])
        .map(|src| (src, true))
        .collect();
    let others = [
        r#"{"v": "7"}"#.to_owned(),
        r#"{"v": [7]}"#.to_owned(),
        r#"{"v": {"a": 7}}"#.to_owned(),
        r#"{"w": "w"}"#.to_owned(),
        r#"{"v": 7, "w": 3000}"#.to_owned(),
        r#"{"v": {"$gte": 7, "$lte": 9}}"#.to_owned(),
        // `$in` lists whose items fall in several segments' fences.
        format!(r#"{{"v": {{"$in": [0, 9, 993, {max}]}}}}"#),
        format!(r#"{{"v": {{"$in": [1, 8, 994, {}]}}}}"#, max - 1),
        r#"{"v": {"$in": [7, "7", [7], {"a": 7}, 100]}}"#.to_owned(),
        r#"{"w": {"$in": [0, 4, 3000, 87000, 88000, "w"]}}"#.to_owned(),
        format!(r#"{{"v": {{"$in": [{max}, 0]}}, "w": {{"$in": [0, 36]}}}}"#),
    ];
    filters.extend(others.into_iter().map(|src| (src, false)));
    let mut hits = 0;
    for (label, mut coll) in fence_layouts() {
        let docs = coll.docs();
        for (src, lone_number) in &filters {
            let f = Filter::parse_str(src).unwrap();
            assert_eq!(coll.route_of(&f), Route::Index, "{label} {src}");
            let want = scan(&coll, &f);
            hits += want.len();
            for threads in [1, 2] {
                coll.set_pool(Pool::with_threads(threads));
                let sink = Arc::new(QueryMetrics::new());
                let ctx = QueryCtx::new().with_metrics(Arc::clone(&sink));
                let refs = coll.find_refs_with_ctx(&f, &ctx).unwrap();
                assert_eq!(refs, want, "{label} x{threads} {src}");
                if label == "fragmented" && *lone_number {
                    let holding = docs.iter().filter(|d| f.matches(d)).count() as u64;
                    assert_eq!(sink.get(Counter::SegmentsProbed), holding, "{src}");
                }
            }
        }
    }
    assert!(hits > 0, "the sweep must find documents, not only absences");
}
