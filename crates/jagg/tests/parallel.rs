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

/// Documents whose group keys and accumulator values recur across
/// segments under different interning orders: compound keys with a
/// missing field, values of every kind (objects with their keys written
/// in either order), and an `o.a` that is an array on some documents (so
/// `$unwind` leaves a merged view of `o`) and a scalar on others (so `o`
/// stays a tree node with the same value).
fn cross_segment_docs(n: u64) -> Vec<Json> {
    const FIRSTS: [&str; 4] = ["Sue", "Ana", "Wei", "Omar"];
    const LASTS: [&str; 3] = ["Kim", "Doe", "Chen"];
    (0..n)
        .map(|i| {
            let last = match i % 5 {
                0 => String::new(),
                _ => format!(r#", "l": "{}""#, LASTS[(i % 3) as usize]),
            };
            let v = match i % 7 {
                0 => format!("{}", i % 4),
                1 => format!(r#""s{}""#, i % 3),
                2 => format!("[{}, {}]", i % 2, i % 3),
                3 => r#"{"b": 1, "a": [2]}"#.to_owned(),
                4 => r#"{"a": [2], "b": 1}"#.to_owned(),
                5 => format!(r#"{{"a": {}}}"#, i % 3),
                _ => "[]".to_owned(),
            };
            // `v` is missing on every eleventh row.
            let v = match i % 11 {
                10 => String::new(),
                _ => format!(r#", "v": {v}"#),
            };
            let a = if i % 2 == 0 { "[1, 2]" } else { "1" };
            let src = format!(
                r#"{{"id": {i}, "k": {{"f": "{}"{last}}}{v}, "o": {{"k": "x", "a": {a}}}}}"#,
                FIRSTS[(i % 4) as usize]
            );
            jsondata::parse(&src).unwrap()
        })
        .collect()
}

/// The layouts a `$group` must agree on: one parse, one segment per
/// insert, a loaded half plus inserted half, and the compacted column.
fn layouts(docs: &[Json]) -> Vec<(&'static str, Collection)> {
    let one = Collection::from_json(&Json::Array(docs.to_vec()));
    let mut fragmented = Collection::parse_str("[]").unwrap();
    for d in docs {
        fragmented.insert(d);
    }
    let half = docs.len() / 2;
    let mut mixed = Collection::from_json(&Json::Array(docs[..half].to_vec()));
    for d in &docs[half..] {
        mixed.insert(d);
    }
    let mut compacted = fragmented.clone();
    compacted.compact();
    vec![
        ("one_parse", one),
        ("fragmented", fragmented),
        ("half_inserted", mixed),
        ("compacted", compacted),
    ]
}

#[test]
fn node_native_group_keys_and_handles_agree_across_segments() {
    let docs = cross_segment_docs(700);
    let cases = [
        // Compound keys from every segment, one field missing on a fifth
        // of the rows; every handle-keeping accumulator ties across
        // segments (equal values, objects with reordered keys).
        r#"[{"$group": {"_id": {"f": "$k.f", "l": "$k.l"}, "n": {"$count": {}},
                        "lo": {"$min": "$v"}, "hi": {"$max": "$v"},
                        "head": {"$first": "$v"}, "tail": {"$last": "$v"},
                        "all": {"$push": "$v"}}},
            {"$sort": {"_id": 1}}]"#,
        // A compound key with a constant field, and one whose every field
        // is missing.
        r#"[{"$group": {"_id": {"c": 7, "f": "$k.f", "gone": "$nope"},
                        "ids": {"$push": "$id"}}}]"#,
        r#"[{"$group": {"_id": {"x": "$nope", "y": "$nope.too"}, "n": {"$count": {}}}}]"#,
        // Tuple keys that must unify with owned keys: `o` is a merged view
        // on unwound rows and a plain tree node on the rest.
        r#"[{"$unwind": "$o.a"},
            {"$group": {"_id": {"o": "$o", "f": "$k.f"}, "n": {"$count": {}},
                        "ids": {"$push": "$id"}}}]"#,
        r#"[{"$unwind": "$o.a"},
            {"$group": {"_id": "$o", "lo": {"$min": "$o"}, "hi": {"$max": "$o"},
                        "head": {"$first": "$o"}, "tail": {"$last": "$o"},
                        "all": {"$push": "$o"}}}]"#,
        // Bare keys over mixed kinds, and a constant key.
        r#"[{"$group": {"_id": "$v", "n": {"$count": {}}, "lo": {"$min": "$id"}}}]"#,
        r#"[{"$group": {"_id": "one", "lo": {"$min": "$v"}, "hi": {"$max": "$v"}}}]"#,
        // Operand columns folded per chunk into dense state over the
        // groups the chunk reaches, merged in chunk order. Groups recur
        // every few rows, so from 2 threads on every group spans chunks,
        // and a group's best number and best non-number (`v` is every
        // kind, or missing) can come from different chunks.
        r#"[{"$group": {"_id": "$k.l", "n": {"$count": {}}, "s": {"$sum": "$v"}, "a": {"$avg": "$v"},
                        "lo": {"$min": "$v"}, "hi": {"$max": "$v"}, "all": {"$push": "$v"},
                        "f": {"$first": "$v"}, "l": {"$last": "$v"}}}]"#,
        r#"[{"$group": {"_id": "$v", "lo": {"$min": "$v"}, "hi": {"$max": "$v"},
                        "ones": {"$sum": 1}, "also": {"$sum": 1}, "ids": {"$push": "$id"}}}]"#,
        // Constant operands: a non-number sum, constant extremes, pushes.
        r#"[{"$group": {"_id": "$k.f", "z": {"$sum": "x"}, "lo": {"$min": 3},
                        "hi": {"$max": {"$literal": {"k": [1]}}}, "p": {"$push": "lit"},
                        "f": {"$first": 7}}}]"#,
        // A group per row.
        r#"[{"$group": {"_id": "$id", "lo": {"$min": "$v"}, "s": {"$sum": "$id"}}},
            {"$sort": {"s": 0}}, {"$limit": 20}]"#,
        r#"[{"$project": {"k": 1, "v": 1, "n": "$id"}},
            {"$group": {"_id": "$k.f", "lo": {"$min": "$v"}, "hi": {"$max": "$v"},
                        "s": {"$sum": "$n"}, "top": {"$max": "$n"}, "ns": {"$push": "$n"}}}]"#,
        r#"[{"$unwind": "$o.a"},
            {"$group": {"_id": "$k.l", "lo": {"$min": "$o"}, "hi": {"$max": "$o"},
                        "s": {"$sum": "$o.a"}, "amin": {"$min": "$o.a"}, "last": {"$last": "$o"}}}]"#,
    ];
    for (label, mut coll) in layouts(&docs) {
        for src in cases {
            let pipe = Pipeline::parse_str(src).unwrap();
            let oracle = reference::aggregate(&docs, &pipe);
            for threads in [1, 2, 4, 8] {
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

/// Documents whose later part brings keys and strings the first part
/// never uses: the first `early` documents hold only `id`, `name` and
/// early tags, the rest add `email`, `extra.{k,n,list}` and late tag
/// strings. Loading the early part and inserting the rest leaves the
/// first segment's table without any late string.
fn late_vocabulary_docs(n: u64, early: u64) -> Vec<Json> {
    (0..n)
        .map(|i| {
            let src = if i < early {
                format!(
                    r#"{{"id": {i}, "name": "n{}", "tags": ["t{}", "t{}"]}}"#,
                    i % 3,
                    i % 2,
                    i % 4
                )
            } else {
                let k = if i % 3 == 0 { "late-v" } else { "v2" };
                let tags = match i % 4 {
                    0 => r#"["t0", "late-tag"]"#,
                    1 => r#""late-tag""#,
                    2 => "[]",
                    _ => r#"["late-tag", "t1", "late-tag"]"#,
                };
                format!(
                    r#"{{"id": {i}, "name": "n{}", "email": "e{}@late", "tags": {tags},
                        "extra": {{"k": "{k}", "n": {}, "list": ["late-1", "late-{}"]}}}}"#,
                    i % 3,
                    i % 5,
                    i % 4,
                    i % 3
                )
            };
            jsondata::parse(&src).unwrap()
        })
        .collect()
}

#[test]
fn stages_bind_keys_and_strings_first_seen_in_later_segments() {
    let docs = late_vocabulary_docs(640, 200);
    let mut fragmented = Collection::from_json(&Json::Array(docs[..200].to_vec()));
    for d in &docs[200..] {
        fragmented.insert(d);
    }
    assert!(fragmented.segments()[0].sym("late-tag").is_none());
    assert!(fragmented.segments()[0].sym("email").is_none());
    let mut compacted = fragmented.clone();
    compacted.compact();
    let cases = [
        // An inner `$match` over unwound rows, on a string that exists
        // only in insert segments, then a `$group` keyed by a late key.
        r#"[{"$unwind": "$tags"}, {"$match": {"tags": "late-tag"}},
            {"$group": {"_id": "$email", "n": {"$count": {}}, "ids": {"$push": "$id"}}}]"#,
        // `$in`/`$ne` over unwound rows mixing early, late and absent
        // strings; `$project` and `$sort` on late keys.
        r#"[{"$unwind": "$tags"},
            {"$match": {"tags": {"$in": ["late-tag", "t0", "absent"]}, "extra.k": {"$ne": "late-v"}}},
            {"$project": {"id": 1, "tags": 1, "e": "$email", "x": "$extra.k"}},
            {"$sort": {"e": 1, "id": 0}}]"#,
        // Compound late keys and accumulators over late fields.
        r#"[{"$group": {"_id": {"e": "$email", "x": "$extra.k"}, "sum": {"$sum": "$extra.n"},
                        "head": {"$first": "$tags"}, "hi": {"$max": "$email"},
                        "lo": {"$min": "$extra.list"}}},
            {"$sort": {"_id": 1}}]"#,
        // A leading `$match`, a nested `$unwind` and a `$match` on its
        // elements, a sort on a late key, and a top-k cut.
        r#"[{"$match": {"id": {"$gte": 100}}}, {"$unwind": "$extra.list"},
            {"$match": {"extra.list": {"$nin": ["late-1", "absent"]}}},
            {"$sort": {"extra.k": 1, "id": 0}}, {"$limit": 25}]"#,
        // `$match` on owned rows: a late string, and a literal no
        // document holds (owned values compare by value, never by symbol).
        r#"[{"$project": {"id": 1, "e": "$email", "k": "$extra.k", "lit": {"$literal": "never-held"}}},
            {"$match": {"k": "late-v", "lit": "never-held"}},
            {"$group": {"_id": "$e", "n": {"$count": {}}}}]"#,
    ];
    for (label, mut coll) in [("fragmented", fragmented), ("compacted", compacted)] {
        for src in cases {
            let pipe = Pipeline::parse_str(src).unwrap();
            let oracle = reference::aggregate(&docs, &pipe);
            assert!(!oracle.is_empty(), "vacuous case: {src}");
            for threads in [1, 2, 4] {
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

/// Documents for the late-projection cases: ages tie in runs of 150
/// (so every skip boundary falls inside a tie run), and `hobbies` is an
/// array of 0–2 elements (so `$unwind` leaves bound rows).
fn paginate_docs(n: u64) -> Vec<Json> {
    const FIRSTS: [&str; 5] = ["Sue", "Ana", "Wei", "Omar", "Ivy"];
    const HOBBIES: [&str; 3] = ["chess", "yoga", "go"];
    (0..n)
        .map(|i| {
            let hobbies: Vec<String> = (0..i % 3)
                .map(|j| format!(r#""{}""#, HOBBIES[((i + j) % 3) as usize]))
                .collect();
            let src = format!(
                r#"{{"id": {i}, "age": {}, "name": {{"first": "{}", "last": "L{}"}}, "hobbies": [{}]}}"#,
                i % 4,
                FIRSTS[(i % 5) as usize],
                i % 7,
                hobbies.join(", ")
            );
            jsondata::parse(&src).unwrap()
        })
        .collect()
}

/// A `$project` right before a top-k `$sort` runs after the heap when
/// every sort key is an `p: 1` or `"$q"` output with no prefix clash
/// (see `jagg::explain`'s late-projection note); every other shape runs
/// as written. Both must agree with the reference, which always projects
/// first.
#[test]
fn late_projection_agrees_with_the_reference() {
    let docs = paginate_docs(600);
    // (pipeline, whether the `$project` runs late)
    let cases = [
        // Eligible: `p: 1` keys, with ties straddling the skip boundary
        // and the end of the page.
        (
            r#"[{"$project": {"id": 1, "age": 1}}, {"$sort": {"age": 1}}, {"$skip": 148}, {"$limit": 4}]"#,
            true,
        ),
        (
            r#"[{"$project": {"name.first": 1, "age": 1, "nh": "$hobbies"}},
                {"$sort": {"age": 0, "name.first": 1}}, {"$skip": 30}, {"$limit": 50}]"#,
            true,
        ),
        // Eligible: a key on a field-reference output.
        (
            r#"[{"$project": {"h": "$hobbies", "id": 1}}, {"$sort": {"h": 0, "id": 1}}, {"$limit": 6}]"#,
            true,
        ),
        // Ineligible: an output path is a prefix or an extension of the
        // key. In the second, the projected `name` is `{"first": id}`.
        (
            r#"[{"$project": {"name": 1, "name.first": 1, "id": 1}}, {"$sort": {"name.first": 1, "id": 0}}, {"$limit": 5}]"#,
            false,
        ),
        (
            r#"[{"$project": {"name.first": "$id", "name": 1}}, {"$sort": {"name": 1}}, {"$limit": 5}]"#,
            false,
        ),
        // Ineligible: the `$project` drops the key.
        (
            r#"[{"$project": {"id": 1}}, {"$sort": {"age": 1, "id": 0}}, {"$limit": 5}]"#,
            false,
        ),
        // Ineligible: no `$limit`, so the sort runs in full.
        (
            r#"[{"$project": {"id": 1, "age": 1}}, {"$sort": {"age": 0, "id": 1}}]"#,
            false,
        ),
        // Rows carrying `$unwind` bindings.
        (
            r#"[{"$unwind": "$hobbies"}, {"$project": {"id": 1, "hobbies": 1, "f": "$name.first"}},
                {"$sort": {"hobbies": 1, "f": 0}}, {"$skip": 97}, {"$limit": 9}]"#,
            true,
        ),
        // Owned rows after `$group`.
        (
            r#"[{"$group": {"_id": {"a": "$age", "f": "$name.first"}, "n": {"$count": {}}, "ids": {"$push": "$id"}}},
                {"$project": {"k": "$_id", "n": 1, "ids": 1}}, {"$sort": {"n": 0, "k.a": 1}}, {"$skip": 3}, {"$limit": 4}]"#,
            false,
        ),
        (
            r#"[{"$group": {"_id": {"a": "$age", "f": "$name.first"}, "n": {"$count": {}}, "ids": {"$push": "$id"}}},
                {"$project": {"k": "$_id", "n": 1, "ids": 1}}, {"$sort": {"n": 0, "k": 1}}, {"$skip": 3}, {"$limit": 4}]"#,
            true,
        ),
    ];
    for (label, mut coll) in layouts(&docs) {
        for (src, late) in cases {
            let pipe = Pipeline::parse_str(src).unwrap();
            let plan = jagg::explain(&coll, &pipe);
            assert_eq!(
                plan.notes.iter().any(|n| n.starts_with("late projection")),
                late,
                "{src}"
            );
            let oracle = reference::aggregate(&docs, &pipe);
            assert!(!oracle.is_empty(), "vacuous case: {src}");
            for threads in [1, 2, 4] {
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
