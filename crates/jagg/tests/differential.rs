//! The jagg differential suite: every pipeline runs through BOTH executors
//! — the tree-backed engine (`jagg::aggregate`, cursors + overlay bindings
//! over the collection's tree column) and the naive value-based oracle
//! (`jagg::reference::aggregate` over owned documents) — and the outputs
//! must be identical, element for element. Group output ordering, the
//! missing-key group, unwinding empty/missing/non-array values, compound
//! `_id` documents with absent subfields, and the leading-`$match` fast
//! path are all crossed here.

use jagg::{reference, Pipeline};
use jsondata::{gen, parse, Json};
use mongofind::{Collection, Filter, Projection};

/// Asserts tree executor == value oracle on one (collection, pipeline).
fn check(coll: &Collection, pipeline_src: &str) {
    let pipe = Pipeline::parse_str(pipeline_src).unwrap_or_else(|e| {
        panic!("pipeline {pipeline_src} does not parse: {e}");
    });
    let via_tree = jagg::aggregate(coll, &pipe);
    let via_value = reference::aggregate(&coll.docs(), &pipe);
    assert_eq!(via_tree, via_value, "pipeline {pipeline_src}");
}

fn people() -> Collection {
    Collection::parse_str(
        r#"[
        {"name": {"first": "Sue", "last": "Kim"}, "age": 28,
         "hobbies": ["yoga", "chess"], "scores": [3, 1, 2]},
        {"name": {"first": "John", "last": "Doe"}, "age": 32,
         "hobbies": ["fishing"], "scores": []},
        {"name": {"first": "Ana"}, "age": 45, "hobbies": [],
         "tags": {"0": "numeric-key"}},
        {"name": {"first": "Sue", "last": "Doe"}, "age": 45,
         "hobbies": ["chess", "chess"], "scores": [9]},
        {"name": {"first": "Wei"}, "age": 28, "hobbies": "not-an-array"},
        {"misc": 7}
    ]"#,
    )
    .unwrap()
}

/// The pipeline corpus: every stage, every accumulator, and the edge cases
/// called out in the issue (unwinding empty and missing arrays, duplicate
/// group keys, missing-key groups, compound ids with absent subfields).
fn corpus() -> Vec<&'static str> {
    vec![
        // --- single stages ---
        r#"[{"$match": {"age": {"$gte": 30}}}]"#,
        // leading match inside the exact-JNL fragment…
        r#"[{"$match": {"name.first": {"$eq": "Sue"}}}]"#,
        r#"[{"$match": {"$or": [{"age": 28}, {"name.last": {"$exists": "false"}}]}}]"#,
        // …and outside it
        r#"[{"$match": {"hobbies": {"$size": 2}}}]"#,
        r#"[{"$match": {"hobbies": {"$type": "array"}}}]"#,
        r#"[{"$match": {"tags.0": "numeric-key"}}]"#,
        r#"[{"$project": {"name.first": 1, "age": 1}}]"#,
        r#"[{"$project": {"who": "$name.first", "const": {"$literal": {"k": [1]}}, "missing": "$nope"}}]"#,
        r#"[{"$unwind": "$hobbies"}]"#,
        r#"[{"$unwind": "$scores"}]"#,
        r#"[{"$unwind": "$missing.path"}]"#,
        r#"[{"$sort": {"age": 1, "name.first": 1}}]"#,
        r#"[{"$sort": {"age": 0, "name.last": 1}}]"#,
        r#"[{"$sort": {"nope": 1, "age": 0}}]"#,
        r#"[{"$skip": 2}]"#,
        r#"[{"$skip": 100}]"#,
        r#"[{"$limit": 3}]"#,
        r#"[{"$limit": 0}]"#,
        r#"[{"$count": "total"}]"#,
        // --- $group: every accumulator, duplicate keys, missing keys ---
        r#"[{"$group": {"_id": "$name.first",
                        "n": {"$count": {}},
                        "total_age": {"$sum": "$age"},
                        "avg_age": {"$avg": "$age"},
                        "min_age": {"$min": "$age"},
                        "max_age": {"$max": "$age"},
                        "ages": {"$push": "$age"},
                        "first_age": {"$first": "$age"},
                        "last_age": {"$last": "$age"}}}]"#,
        r#"[{"$group": {"_id": "$name", "n": {"$count": {}}}}]"#,
        r#"[{"$group": {"_id": "$hobbies", "n": {"$count": {}}}}]"#,
        r#"[{"$group": {"_id": "$misc", "seen": {"$push": "$name.first"}}}]"#,
        r#"[{"$group": {"_id": 1, "everyone": {"$count": {}}, "sum_missing": {"$sum": "$nope"}, "avg_missing": {"$avg": "$nope"}, "min_missing": {"$min": "$nope"}, "push_missing": {"$push": "$nope"}}}]"#,
        r#"[{"$group": {"_id": {"f": "$name.first", "l": "$name.last"}, "n": {"$count": {}}}}]"#,
        r#"[{"$group": {"_id": {"$literal": {"f": "$name.first"}}, "n": {"$count": {}}}}]"#,
        r#"[{"$group": {"_id": "$age", "non_numeric_sum": {"$sum": "$name"}, "mixed_min": {"$min": "$hobbies"}, "ones": {"$sum": 1}}}]"#,
        // --- multi-stage compositions ---
        r#"[{"$match": {"age": {"$gte": 28}}},
            {"$unwind": "$hobbies"},
            {"$group": {"_id": "$hobbies", "n": {"$count": {}}, "avg_age": {"$avg": "$age"}}},
            {"$sort": {"n": 0, "_id": 1}}]"#,
        r#"[{"$unwind": "$hobbies"},
            {"$match": {"hobbies": "chess"}},
            {"$count": "chess_rows"}]"#,
        r#"[{"$unwind": "$scores"},
            {"$unwind": "$hobbies"},
            {"$group": {"_id": {"h": "$hobbies", "s": "$scores"}, "n": {"$count": {}}}}]"#,
        r#"[{"$unwind": "$hobbies"},
            {"$project": {"name": 1, "hobby": "$hobbies"}},
            {"$sort": {"hobby": 1, "name.first": 1}},
            {"$skip": 1},
            {"$limit": 2}]"#,
        r#"[{"$match": {"name.first": {"$in": ["Sue", "Ana"]}}},
            {"$group": {"_id": "$name.first", "oldest": {"$max": "$age"}}},
            {"$match": {"oldest": {"$gte": 40}}}]"#,
        r#"[{"$project": {"a": "$scores"}},
            {"$unwind": "$a"},
            {"$group": {"_id": "$a", "n": {"$count": {}}}},
            {"$sort": {"_id": 0}}]"#,
        r#"[{"$group": {"_id": "$name.last", "n": {"$count": {}}}},
            {"$group": {"_id": "$n", "k": {"$count": {}}}}]"#,
        r#"[{"$sort": {"age": 1}},
            {"$group": {"_id": "$name.first", "youngest_last": {"$first": "$name.last"}, "oldest_last": {"$last": "$name.last"}}}]"#,
        r#"[{"$unwind": "$hobbies"}, {"$unwind": "$hobbies"}]"#,
        r#"[{"$match": {"nope": 1}}, {"$count": "none"}]"#,
        r#"[{"$count": "a"}, {"$count": "b"}]"#,
        // --- every overlay-matcher arm on rows with live bindings ---
        r#"[{"$unwind": "$scores"}, {"$match": {"scores": {"$type": "number"}}}]"#,
        r#"[{"$unwind": "$scores"}, {"$match": {"scores": {"$in": [1, 9]}}}]"#,
        r#"[{"$unwind": "$scores"}, {"$match": {"scores": {"$nin": [2, 3]}}}]"#,
        r#"[{"$unwind": "$scores"}, {"$match": {"scores": {"$gt": 1, "$lte": 9}}}]"#,
        r#"[{"$unwind": "$scores"}, {"$match": {"scores": {"$exists": "true"}, "name.last": {"$exists": "false"}}}]"#,
        r#"[{"$unwind": "$scores"}, {"$match": {"hobbies": {"$size": 2}, "name": {"$type": "object"}}}]"#,
        r#"[{"$unwind": "$scores"}, {"$match": {"$or": [{"scores": 9}, {"$not": {"scores": {"$gte": 2}}}]}}]"#,
    ]
}

#[test]
fn corpus_agrees_on_people() {
    let coll = people();
    for src in corpus() {
        check(&coll, src);
    }
}

#[test]
fn corpus_agrees_on_person_records() {
    let coll = Collection::from_array(&gen::person_records(200, 11)).unwrap();
    for src in corpus() {
        check(&coll, src);
    }
}

#[test]
fn corpus_agrees_on_random_documents() {
    // Random collections whose shapes the corpus paths only partially fit:
    // missing keys, type mismatches, numeric segments over objects.
    for seed in 0..24u64 {
        let docs: Vec<Json> = (0..12)
            .map(|i| gen::random_json(&gen::GenConfig::sized(seed * 31 + i, 40)))
            .collect();
        let coll = Collection::from_array(&Json::Array(docs)).unwrap();
        for src in [
            r#"[{"$unwind": "$a"}, {"$group": {"_id": "$a", "n": {"$count": {}}}}]"#,
            r#"[{"$match": {"a": {"$exists": "true"}}}, {"$sort": {"a": 1, "b": 0}}]"#,
            r#"[{"$project": {"x": "$a.b", "y": "$0", "z": 1}}]"#,
            r#"[{"$group": {"_id": {"k": "$a", "m": "$b.c"}, "lo": {"$min": "$a"}, "hi": {"$max": "$a"}, "all": {"$push": "$b"}}}]"#,
            r#"[{"$unwind": "$a"}, {"$unwind": "$a.b"}, {"$count": "rows"}]"#,
            r#"[{"$sort": {"a": 0}}, {"$skip": 3}, {"$limit": 5}]"#,
        ] {
            check(&coll, src);
        }
    }
}

#[test]
fn generated_pipelines_agree() {
    // Seeded pipeline generator: random stage sequences assembled from a
    // component pool over the person-record vocabulary, so $unwind overlay
    // bindings, re-grouping, and pagination compose in arbitrary orders.
    let stage_pool: Vec<&str> = vec![
        r#"{"$match": {"age": {"$gte": 40}}}"#,
        r#"{"$match": {"name.first": {"$in": ["Sue", "Wei", "Omar"]}}}"#,
        r#"{"$match": {"hobbies": {"$size": 1}}}"#,
        r#"{"$unwind": "$hobbies"}"#,
        r#"{"$project": {"name.first": 1, "age": 1, "hobbies": 1, "h": "$hobbies"}}"#,
        r#"{"$group": {"_id": "$name.first", "n": {"$count": {}}, "total": {"$sum": "$age"}, "hs": {"$push": "$hobbies"}}}"#,
        r#"{"$group": {"_id": {"f": "$name.first", "a": "$age"}, "lo": {"$min": "$age"}, "hi": {"$max": "$age"}}}"#,
        r#"{"$sort": {"age": 0, "name.first": 1}}"#,
        r#"{"$sort": {"n": 1, "_id": 0}}"#,
        r#"{"$skip": 2}"#,
        r#"{"$limit": 7}"#,
        r#"{"$count": "rows"}"#,
        // `$project → $sort → [$skip] → $limit` runs, one entry each:
        // late-projected (`p: 1` and `"$q"` keys, over tree, bound or
        // owned rows) and unfused (a prefix clash, a dropped key).
        r#"{"$project": {"name.first": 1, "age": 1, "h": "$hobbies"}}, {"$sort": {"age": 0, "name.first": 1}}, {"$skip": 3}, {"$limit": 5}"#,
        r#"{"$project": {"_id": 1, "n": 1, "h": "$hobbies", "a": "$age"}}, {"$sort": {"h": 1, "a": 0, "_id": 1}}, {"$limit": 4}"#,
        r#"{"$project": {"name": 1, "name.first": 1, "age": 1}}, {"$sort": {"name.first": 1}}, {"$skip": 1}, {"$limit": 6}"#,
        r#"{"$project": {"age": 1}}, {"$sort": {"name.first": 1, "age": 0}}, {"$limit": 3}"#,
    ];
    // A tiny deterministic LCG so the sweep needs no rand dependency.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut late = 0;
    for case in 0..120 {
        let coll = Collection::from_array(&gen::person_records(40, case as u64)).unwrap();
        let len = 1 + next() % 4;
        let stages: Vec<&str> = (0..len)
            .map(|_| stage_pool[next() % stage_pool.len()])
            .collect();
        let src = format!("[{}]", stages.join(","));
        check(&coll, &src);
        let plan = jagg::explain(&coll, &Pipeline::parse_str(&src).unwrap());
        late += plan
            .notes
            .iter()
            .filter(|n| n.starts_with("late projection"))
            .count();
    }
    assert!(late >= 10, "only {late} late-projected blocks generated");
}

#[test]
fn insert_then_aggregate_matches_rebuild() {
    // The ROADMAP's incremental-insert item: post-insert `find` and
    // `aggregate` must be indistinguishable from a from-scratch rebuild of
    // the extended collection.
    let mut coll = people();
    coll.insert(
        &parse(r#"{"name": {"first": "Omar"}, "age": 61, "hobbies": ["chess", "go"]}"#).unwrap(),
    );
    coll.insert_str(
        r#"{"name": {"first": "Sue"}, "age": 19, "hobbies": ["go"], "scores": [2, 2]}"#,
    )
    .unwrap();
    let rebuilt = Collection::from_array(&Json::Array(coll.docs())).unwrap();
    assert_eq!(coll.docs(), rebuilt.docs());
    for src in corpus() {
        let pipe = Pipeline::parse_str(src).unwrap();
        assert_eq!(
            jagg::aggregate(&coll, &pipe),
            jagg::aggregate(&rebuilt, &pipe),
            "pipeline {src} diverges between incremental and rebuilt collections"
        );
        // And both agree with the oracle.
        check(&coll, src);
    }
    let f = mongofind::Filter::parse_str(r#"{"name.first": "Sue"}"#).unwrap();
    assert_eq!(coll.find(&f), rebuilt.find(&f));
    let via_jnl = |c: &Collection| -> Vec<Json> {
        c.find_refs_via_jnl_with_ctx(&f, &jguard::QueryCtx::unlimited())
            .unwrap()
            .into_iter()
            .map(|d| c.json_of(d))
            .collect()
    };
    assert_eq!(via_jnl(&coll), via_jnl(&rebuilt));
}

#[test]
fn non_array_roots_aggregate_as_single_document() {
    // The shared single-document semantics of non-array collection roots.
    let coll =
        Collection::parse_str(r#"{"name": {"first": "Sue"}, "age": 28, "hobbies": ["yoga"]}"#)
            .unwrap();
    assert_eq!(coll.len(), 1);
    for src in [
        r#"[{"$match": {"name.first": "Sue"}}]"#,
        r#"[{"$match": {"name.first": "Zoe"}}]"#,
        r#"[{"$unwind": "$hobbies"}, {"$project": {"h": "$hobbies"}}]"#,
        r#"[{"$group": {"_id": "$name.first", "n": {"$count": {}}}}]"#,
        r#"[{"$count": "docs"}]"#,
    ] {
        check(&coll, src);
    }
    let pipe = Pipeline::parse_str(r#"[{"$count": "docs"}]"#).unwrap();
    assert_eq!(
        jagg::aggregate(&coll, &pipe),
        vec![parse(r#"{"docs": 1}"#).unwrap()]
    );
}

#[test]
fn unwind_edge_semantics_are_pinned() {
    // Beyond the differential agreement, pin the defined behavior itself:
    // missing → dropped, [] → dropped, non-array → passed through.
    let coll = Collection::parse_str(
        r#"[
        {"id": 0, "a": [1, 2]},
        {"id": 1, "a": []},
        {"id": 2},
        {"id": 3, "a": "scalar"}
    ]"#,
    )
    .unwrap();
    let pipe =
        Pipeline::parse_str(r#"[{"$unwind": "$a"}, {"$project": {"id": 1, "a": 1}}]"#).unwrap();
    let out = jagg::aggregate(&coll, &pipe);
    assert_eq!(
        out,
        vec![
            parse(r#"{"id": 0, "a": 1}"#).unwrap(),
            parse(r#"{"id": 0, "a": 2}"#).unwrap(),
            parse(r#"{"id": 3, "a": "scalar"}"#).unwrap(),
        ]
    );
    check(&coll, r#"[{"$unwind": "$a"}]"#);
}

#[test]
fn overlay_bindings_observed_from_above() {
    // A $match on a PARENT of an unwound path must see the merged view
    // (the binding nests inside the compared subtree).
    let coll = Collection::parse_str(
        r#"[
        {"o": {"a": [1, 2], "k": "x"}},
        {"o": {"a": [3],    "k": "y"}}
    ]"#,
    )
    .unwrap();
    let src = r#"[
        {"$unwind": "$o.a"},
        {"$match": {"o": {"$eq": {"a": 1, "k": "x"}}}},
        {"$project": {"v": "$o.a", "whole": "$o"}}
    ]"#;
    check(&coll, src);
    let out = jagg::aggregate(&coll, &Pipeline::parse_str(src).unwrap());
    assert_eq!(
        out,
        vec![parse(r#"{"v": 1, "whole": {"a": 1, "k": "x"}}"#).unwrap()]
    );
    // Grouping and sorting on merged parents of bindings.
    check(
        &coll,
        r#"[{"$unwind": "$o.a"}, {"$group": {"_id": "$o", "n": {"$count": {}}}}]"#,
    );
    check(&coll, r#"[{"$unwind": "$o.a"}, {"$sort": {"o": 0}}]"#);
    // Unwinding a parent of an existing binding (merged array case).
    let coll2 = Collection::parse_str(r#"[{"a": [[1, 2], [3]]}]"#).unwrap();
    check(
        &coll2,
        r#"[{"$unwind": "$a"}, {"$unwind": "$a"}, {"$group": {"_id": "$a", "n": {"$count": {}}}}]"#,
    );
}

#[test]
fn group_ordering_and_missing_key_group_are_defined() {
    let coll = people();
    let pipe = Pipeline::parse_str(
        r#"[{"$group": {"_id": "$name.last", "n": {"$count": {}}, "ages": {"$push": "$age"}}}]"#,
    )
    .unwrap();
    let out = jagg::aggregate(&coll, &pipe);
    // Missing-key group first (no _id field), then keys in total order.
    assert_eq!(
        out,
        vec![
            parse(r#"{"n": 3, "ages": [45, 28]}"#).unwrap(),
            parse(r#"{"_id": "Doe", "n": 2, "ages": [32, 45]}"#).unwrap(),
            parse(r#"{"_id": "Kim", "n": 1, "ages": [28]}"#).unwrap(),
        ]
    );
}

#[test]
fn docs_cache_is_consistent_before_and_after_insert() {
    let mut coll = people();
    let before = coll.docs();
    coll.insert(&parse(r#"{"x": 1}"#).unwrap());
    let after = coll.docs();
    assert_eq!(after.len(), before.len() + 1);
    assert_eq!(&after[..before.len()], &before[..]);
    assert_eq!(after[before.len()], parse(r#"{"x": 1}"#).unwrap());
}

#[test]
fn node_native_group_edge_cases_agree_on_every_layout() {
    // Hand-made edges of the tuple-keyed `$group`: a compound key whose
    // values recur in documents of different segments (with object keys
    // interned in different orders), a compound key with one field
    // missing, a tuple key that must unify with a merged `$unwind` view,
    // and handle accumulators tied across segments.
    let texts = [
        r#"{"id": 0, "k": {"f": "Sue", "l": "Kim"}, "o": {"a": [1, 2], "k": "x"}, "v": {"p": 1, "q": [2]}}"#,
        r#"{"id": 1, "k": {"l": "Kim", "f": "Sue"}, "o": {"k": "x", "a": 1}, "v": {"q": [2], "p": 1}}"#,
        r#"{"id": 2, "k": {"f": "Sue"}, "o": {"k": "y", "a": [1]}, "v": "z"}"#,
        r#"{"id": 3, "k": {"f": "Sue"}, "o": {"a": 2, "k": "x"}, "v": 3}"#,
        r#"{"id": 4, "k": {}, "o": {"k": "x", "a": [2]}, "v": [3, 1]}"#,
        r#"{"id": 5, "o": {"k": "y", "a": 1}, "v": {"p": 1, "q": [2]}}"#,
    ];
    let docs: Vec<Json> = texts.iter().map(|t| parse(t).unwrap()).collect();
    let pipelines = [
        r#"[{"$group": {"_id": {"f": "$k.f", "l": "$k.l"}, "ids": {"$push": "$id"},
                        "lo": {"$min": "$v"}, "hi": {"$max": "$v"},
                        "head": {"$first": "$v"}, "tail": {"$last": "$v"}, "vs": {"$push": "$v"}}}]"#,
        r#"[{"$unwind": "$o.a"}, {"$group": {"_id": {"o": "$o"}, "ids": {"$push": "$id"}}}]"#,
        r#"[{"$unwind": "$o.a"}, {"$group": {"_id": "$o", "n": {"$count": {}},
                                             "lo": {"$min": "$o"}, "all": {"$push": "$o"}}}]"#,
        r#"[{"$group": {"_id": "$v", "ids": {"$push": "$id"}, "hi": {"$max": "$k"}}}]"#,
    ];
    let mut layouts = Vec::new();
    layouts.push(Collection::from_json(&Json::Array(docs.clone())));
    for split in [0, 2, 4] {
        let mut coll = Collection::from_json(&Json::Array(docs[..split].to_vec()));
        for d in &docs[split..] {
            coll.insert(d);
        }
        layouts.push(coll.clone());
        coll.compact();
        layouts.push(coll);
    }
    for mut coll in layouts {
        assert_eq!(coll.docs(), docs);
        for src in pipelines {
            let pipe = Pipeline::parse_str(src).unwrap();
            let oracle = reference::aggregate(&docs, &pipe);
            for threads in [1, 2, 4] {
                coll.set_pool(jpar::Pool::with_threads(threads));
                assert_eq!(
                    jagg::aggregate(&coll, &pipe),
                    oracle,
                    "{} segments x{threads}: {src}",
                    coll.segments().len()
                );
            }
        }
    }
}

#[test]
fn late_segment_strings_bind_in_every_stage() {
    // Hand-made: the loaded segment holds none of the strings the
    // pipelines name; each insert brings some. Every stage binds its
    // paths and constants to the collection's last table, which must
    // serve the loaded segment too.
    let texts = [
        r#"{"id": 0, "t": ["a", "b"]}"#,
        r#"{"id": 1, "t": "a"}"#,
        r#"{"id": 2, "t": ["late", "a"], "who": {"mail": "x@late"}}"#,
        r#"{"id": 3, "t": "late", "who": {"mail": "y@late", "0": "zero"}}"#,
        r#"{"id": 4, "t": ["late", "late"], "who": ["w0", {"mail": "x@late"}]}"#,
    ];
    let docs: Vec<Json> = texts.iter().map(|t| parse(t).unwrap()).collect();
    let pipelines = [
        r#"[{"$unwind": "$t"}, {"$match": {"t": "late"}}, {"$group": {"_id": "$who.mail", "ids": {"$push": "$id"}}}]"#,
        r#"[{"$unwind": "$t"}, {"$match": {"t": {"$ne": "late"}}}, {"$project": {"id": 1, "m": "$who.mail"}}]"#,
        r#"[{"$match": {"who.0": {"$in": ["zero", "w0", "absent"]}}}, {"$project": {"id": 1, "z": "$who.0"}}]"#,
        r#"[{"$unwind": "$who"}, {"$match": {"who.mail": "x@late"}}, {"$sort": {"id": 0}}]"#,
        r#"[{"$project": {"id": 1, "s": {"$literal": "nowhere"}, "m": "$who.mail"}},
            {"$match": {"s": "nowhere", "m": {"$exists": "true"}}}, {"$sort": {"m": 1, "id": 1}}]"#,
        r#"[{"$group": {"_id": "$who.mail", "n": {"$count": {}}, "t": {"$last": "$t"}}}, {"$sort": {"_id": 0}}]"#,
    ];
    for split in [0, 1, 2] {
        let mut coll = Collection::from_json(&Json::Array(docs[..split].to_vec()));
        for d in &docs[split..] {
            coll.insert(d);
        }
        let mut compacted = coll.clone();
        compacted.compact();
        for mut c in [coll, compacted] {
            for src in pipelines {
                let pipe = Pipeline::parse_str(src).unwrap();
                let oracle = reference::aggregate(&docs, &pipe);
                assert!(!oracle.is_empty(), "vacuous case: {src}");
                for threads in [1, 2, 4] {
                    c.set_pool(jpar::Pool::with_threads(threads));
                    assert_eq!(
                        jagg::aggregate(&c, &pipe),
                        oracle,
                        "split {split}, {} segments x{threads}: {src}",
                        c.segments().len()
                    );
                }
            }
        }
    }
}

/// `find(f)` is `[{"$match": f}]` and `find(f, p)` is `[{"$match": f},
/// {"$project": p}]` (`Pipeline::find`): on the tiered and fragmented
/// layouts, at 1, 2 and 8 threads, both agree with `Filter::matches`
/// plus `Projection::apply` over the collection's documents. The
/// projections cross overlapping paths (a path and its extension, in
/// either order), missing paths, numeric segments (array positions, and
/// an object key `"0"`) and the empty projection, which keeps whole
/// documents. 1,200 records put the output step past its parallel
/// threshold.
#[test]
fn find_pipelines_agree_with_filter_and_projection() {
    let Json::Array(mut docs) = gen::person_records(1_200, 3) else {
        panic!("person_records returns an array");
    };
    for extra in [
        r#"{"id": 5000, "name": "just a string", "age": 50, "hobbies": {"0": "keyed"}}"#,
        r#"{"id": 5001, "name": {"first": "Ana"}, "age": 61}"#,
        r#"{"id": 5002, "name": {"first": {"deep": 1}, "last": "Kim"}, "hobbies": []}"#,
    ] {
        docs.insert(docs.len() / 3, parse(extra).unwrap());
    }
    let mut fragmented = Collection::parse_str("[]").unwrap();
    docs.iter().for_each(|d| fragmented.insert(d));
    let layouts = [("fragmented", fragmented), ("tiered", tiered(&docs))];
    let filters = [
        "{}",
        r#"{"age": {"$gte": 40}}"#,
        r#"{"name.last": "Kim"}"#,
        r#"{"hobbies.0": {"$in": ["chess", "keyed"]}}"#,
        r#"{"nope": {"$exists": "true"}}"#,
    ];
    let projections = [
        "{}",
        r#"{"name.first": 1, "age": 1}"#,
        r#"{"name": 1, "name.first": 1}"#,
        r#"{"name.first": 1, "name": 1}"#,
        r#"{"nope": 1, "name.middle": 1, "age.x": 1}"#,
        r#"{"hobbies.0": 1, "hobbies.1": 1}"#,
        r#"{"hobbies.0": 1, "name.first.deep": 1}"#,
    ];
    for (label, mut coll) in layouts {
        let values = coll.docs();
        assert_eq!(values, docs, "{label}");
        for f in filters {
            let filter = Filter::parse_str(f).unwrap();
            let hits: Vec<&Json> = values.iter().filter(|d| filter.matches(d)).collect();
            for p in projections {
                let projection = Projection::parse_str(p).unwrap();
                let want: Vec<Json> = hits.iter().map(|d| projection.apply(d)).collect();
                let pipe = Pipeline::find(filter.clone(), projection);
                assert_eq!(pipe.stages.len(), 1 + usize::from(p != "{}"), "{p}");
                for threads in [1, 2, 8] {
                    coll.set_pool(jpar::Pool::with_threads(threads));
                    assert_eq!(
                        jagg::aggregate(&coll, &pipe),
                        want,
                        "{label} x{threads}: find({f}, {p})"
                    );
                }
            }
        }
    }
}

/// The layout tiered compaction leaves between two merges: the first
/// half as a seed, two merged tails (a fifth, then a twelfth of the
/// documents) and the rest as single-document inserts.
fn tiered(docs: &[Json]) -> Collection {
    let n = docs.len();
    let (seed, rest) = docs.split_at(n / 2);
    let (first, rest) = rest.split_at(n / 5);
    let (second, rest) = rest.split_at(n / 12);
    let mut coll = Collection::from_json(&Json::Array(seed.to_vec()));
    for tail in [first, second] {
        tail.iter().for_each(|d| coll.insert(d));
        coll.compact_tail();
    }
    rest.iter().for_each(|d| coll.insert(d));
    let multi = coll.segments().iter().filter(|s| s.is_multi()).count();
    assert_eq!(multi, 3, "seed and two merged tails");
    coll
}
