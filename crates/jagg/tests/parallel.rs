//! Parallel-determinism and top-k pushdown suites for the tree executor.
//!
//! * **Determinism:** `jagg::aggregate` output must be byte-identical for
//!   every thread count (the 1-thread pool is the serial oracle — chunks
//!   run inline in order) across the three tree-column layouts: one big
//!   parse, many single-document insert segments, and post-`compact()`.
//!   The cross-segment `$group` cases here are the ones the merge-time
//!   `(segment, class)` unification must get right.
//! * **Top-k pushdown:** `$sort` + `$limit` (and `$sort` + `$skip` +
//!   `$limit`) run through a bounded heap in the tree executor while
//!   `jagg::reference` keeps the full sort — the differential checks pin
//!   equal output *including stability ties* (duplicate sort keys whose
//!   rows are distinguishable by another field).

use jagg::{reference, Pipeline};
use jpar::Pool;
use jsondata::{gen, serialize::to_string, Json};
use mongofind::Collection;

fn big_parse(n: usize) -> Collection {
    Collection::parse_str(&to_string(&gen::person_records(n, 9))).unwrap()
}

fn fragmented(n: usize) -> Collection {
    let Json::Array(docs) = gen::person_records(n, 9) else {
        panic!("person_records returns an array");
    };
    let mut coll = Collection::parse_str("[]").unwrap();
    for d in &docs {
        coll.insert_str(&to_string(d)).unwrap();
    }
    coll
}

fn shapes(n: usize) -> Vec<(&'static str, Collection)> {
    let mut compacted = fragmented(n);
    compacted.compact();
    vec![
        ("one_big_parse", big_parse(n)),
        ("fragmented_inserts", fragmented(n)),
        ("post_compact", compacted),
        ("empty", Collection::parse_str("[]").unwrap()),
    ]
}

/// Pipelines covering every parallel stage path: exact and inexact
/// leading `$match`, mid-pipeline `$match` over bindings, `$unwind`
/// fan-out, `$group` (order-sensitive accumulators included — these
/// catch any chunk-merge reordering), `$project`, `$sort` and the fused
/// and unfused pagination forms.
fn pipeline_corpus() -> Vec<&'static str> {
    vec![
        r#"[{"$match": {"name.first": {"$eq": "Sue"}}}]"#,
        r#"[{"$match": {"age": {"$gte": 30}}}, {"$project": {"name.last": 1, "age": 1}}]"#,
        r#"[{"$unwind": "$hobbies"}, {"$match": {"hobbies": {"$in": ["chess", "yoga"]}}}]"#,
        r#"[{"$unwind": "$hobbies"},
            {"$group": {"_id": "$hobbies", "n": {"$count": {}},
                        "ages": {"$push": "$age"},
                        "first_id": {"$first": "$id"}, "last_id": {"$last": "$id"},
                        "total": {"$sum": "$age"}, "avg": {"$avg": "$age"},
                        "lo": {"$min": "$age"}, "hi": {"$max": "$age"}}},
            {"$sort": {"n": 0, "_id": 1}}]"#,
        r#"[{"$group": {"_id": "$name.last", "n": {"$count": {}}, "ids": {"$push": "$id"}}}]"#,
        r#"[{"$group": {"_id": "$name", "n": {"$count": {}}}}]"#,
        r#"[{"$group": {"_id": {"f": "$name.first", "l": "$name.last"}, "youngest": {"$min": "$age"}}},
            {"$sort": {"youngest": 1, "_id": 1}}]"#,
        r#"[{"$match": {"name.last": {"$in": ["Doe", "Kim", "Chen"]}}},
            {"$unwind": "$hobbies"},
            {"$group": {"_id": "$hobbies", "by": {"$push": "$name.first"}}}]"#,
        r#"[{"$sort": {"age": 1, "id": 1}}, {"$skip": 10}, {"$limit": 5}]"#,
        r#"[{"$sort": {"age": 0}}, {"$limit": 7}]"#,
        r#"[{"$sort": {"age": 1}}]"#,
        r#"[{"$project": {"a": "$age", "f": "$name.first"}}, {"$sort": {"a": 0, "f": 1}}, {"$limit": 3}]"#,
        r#"[{"$count": "docs"}]"#,
    ]
}

#[test]
fn aggregate_is_identical_across_thread_counts_and_layouts() {
    for (label, mut coll) in shapes(900) {
        let docs = coll.docs();
        for src in pipeline_corpus() {
            let pipe = Pipeline::parse_str(src).unwrap();
            let oracle = reference::aggregate(&docs, &pipe);
            for threads in [1, 2, 8] {
                coll.set_pool(Pool::with_threads(threads));
                assert_eq!(
                    jagg::aggregate(&coll, &pipe),
                    oracle,
                    "{label} x{threads}: {src}"
                );
            }
        }
    }
}

#[test]
fn cross_segment_groups_merge_order_sensitively() {
    // Rows of one group alternate between segments; $push/$first/$last
    // must still observe them in document order — the case the merge-time
    // (segment, class) unification exists for.
    let mut coll = Collection::parse_str("[]").unwrap();
    for i in 0..600u64 {
        let key = ["a", "b", "c"][(i % 3) as usize];
        coll.insert_str(&format!(r#"{{"k": "{key}", "i": {i}}}"#))
            .unwrap();
    }
    let pipe = Pipeline::parse_str(
        r#"[{"$group": {"_id": "$k", "all": {"$push": "$i"},
                        "head": {"$first": "$i"}, "tail": {"$last": "$i"}}},
            {"$sort": {"_id": 1}}]"#,
    )
    .unwrap();
    let oracle = reference::aggregate(&coll.docs(), &pipe);
    for threads in [1, 2, 8] {
        coll.set_pool(Pool::with_threads(threads));
        assert_eq!(jagg::aggregate(&coll, &pipe), oracle, "x{threads}");
    }
    // And after compaction the same groups come from one segment's
    // classes instead of 600 — answers unchanged.
    coll.compact();
    for threads in [1, 8] {
        coll.set_pool(Pool::with_threads(threads));
        assert_eq!(
            jagg::aggregate(&coll, &pipe),
            oracle,
            "compacted x{threads}"
        );
    }
}

/// Collections and pipelines engineered so `$sort`+`$limit` cuts through
/// runs of equal sort keys: any instability in the bounded heap shows up
/// as a different surviving `id`.
#[test]
fn top_k_pushdown_matches_full_sort_including_ties() {
    // 500 docs over only 5 distinct sort keys → every cut lands mid-tie.
    let docs: Vec<Json> = (0..500u64)
        .map(|i| jsondata::parse(&format!(r#"{{"id": {i}, "age": {}}}"#, i % 5)).unwrap())
        .collect();
    let mut coll = Collection::from_json(&Json::Array(docs.clone()));
    let cases = [
        r#"[{"$sort": {"age": 1}}, {"$limit": 12}]"#,
        r#"[{"$sort": {"age": 0}}, {"$limit": 12}]"#,
        r#"[{"$sort": {"age": 1}}, {"$skip": 7}, {"$limit": 12}]"#,
        r#"[{"$sort": {"age": 0}}, {"$skip": 99}, {"$limit": 101}]"#,
        r#"[{"$sort": {"age": 1, "id": 1}}, {"$limit": 13}]"#,
        r#"[{"$sort": {"missing": 1, "age": 0}}, {"$limit": 9}]"#,
        // Degenerate bounds: empty keeps, over-long keeps, zero limit.
        r#"[{"$sort": {"age": 1}}, {"$limit": 0}]"#,
        r#"[{"$sort": {"age": 1}}, {"$skip": 1000}, {"$limit": 4}]"#,
        r#"[{"$sort": {"age": 1}}, {"$limit": 100000}]"#,
        r#"[{"$sort": {"age": 1}}, {"$skip": 499}, {"$limit": 5}]"#,
        // Unfused neighbours keep plain-sort semantics.
        r#"[{"$sort": {"age": 1}}, {"$skip": 3}]"#,
        r#"[{"$limit": 20}, {"$sort": {"age": 0}}]"#,
        r#"[{"$sort": {"age": 0}}, {"$sort": {"id": 1}}, {"$limit": 6}]"#,
        // Fusion after other stages, and feeding later stages.
        r#"[{"$unwind": "$missing"}, {"$sort": {"age": 1}}, {"$limit": 3}]"#,
        r#"[{"$group": {"_id": "$age", "n": {"$count": {}}}}, {"$sort": {"n": 0, "_id": 1}}, {"$limit": 2}]"#,
        r#"[{"$sort": {"age": 1}}, {"$limit": 25}, {"$group": {"_id": "$age", "ids": {"$push": "$id"}}}]"#,
    ];
    for src in cases {
        let pipe = Pipeline::parse_str(src).unwrap();
        let oracle = reference::aggregate(&docs, &pipe);
        for threads in [1, 2, 8] {
            coll.set_pool(Pool::with_threads(threads));
            assert_eq!(jagg::aggregate(&coll, &pipe), oracle, "x{threads}: {src}");
        }
    }
}

#[test]
fn top_k_stability_is_pinned_explicitly() {
    // Not just oracle agreement: the kept rows ARE the first-by-input
    // rows of each tie run. Ages tie in pairs; ids record input order.
    let docs: Vec<Json> = (0..10u64)
        .map(|i| jsondata::parse(&format!(r#"{{"id": {i}, "age": {}}}"#, i / 2)).unwrap())
        .collect();
    let coll = Collection::from_json(&Json::Array(docs));
    let pipe = Pipeline::parse_str(r#"[{"$sort": {"age": 1}}, {"$limit": 3}]"#).unwrap();
    let out = jagg::aggregate(&coll, &pipe);
    let ids: Vec<u64> = out
        .iter()
        .map(|d| d.get("id").unwrap().as_num().unwrap())
        .collect();
    // age runs are [0,0],[1,1],…; the stable cut keeps ids 0, 1, 2.
    assert_eq!(ids, vec![0, 1, 2]);

    let pipe =
        Pipeline::parse_str(r#"[{"$sort": {"age": 1}}, {"$skip": 1}, {"$limit": 3}]"#).unwrap();
    let out = jagg::aggregate(&coll, &pipe);
    let ids: Vec<u64> = out
        .iter()
        .map(|d| d.get("id").unwrap().as_num().unwrap())
        .collect();
    assert_eq!(ids, vec![1, 2, 3]);
}
