//! Determinism and compaction suites for the parallel query paths.
//!
//! Every parallel scan in `mongofind` must return **byte-identical**
//! results for every thread count — the 1-thread pool runs the chunks
//! inline in order and is therefore the semantic oracle (`jpar`'s
//! documented contract). The sweeps here cross thread counts {1, 2, 8}
//! with the segment layouts the tree column can be in: one big parse (a
//! single array segment), many single-document insert segments, the
//! post-`compact()` merge of the latter, a compacted clone that adopted
//! segments its origin appended afterwards, the tiered layout
//! `compact_tail` leaves (a seed, two merged tails, then inserts), and
//! the `[]` and non-array single-document seeds. On every cell the
//! routed path (`find_refs_with_ctx`, with and without an index to take)
//! must equal the document-scan oracle, and so must the JNL oracle on
//! the exactly JNL-compilable fragment.
//!
//! `Collection::compact` itself is pinned by an equivalence property:
//! documents, symbols and every query answer must be unchanged by
//! compaction, on a hand corpus and on seeded generated documents.
//!
//! Each segment carries its own postings, which a background compaction
//! adopts by pointer along with the segment. An interleaving of inserts,
//! `Collection::compact` and background compactions that adopt the
//! inserts committed during their merge checks, at tails of 0, 1, 64 and
//! 127 insert segments, that the index route answers `$eq`, `$in` and
//! range filters exactly as the scan and `Filter::matches` do. A second
//! interleaving races 0, 5 and 127 inserts against tail merges
//! (`Collection::compact_tail`), up to merges that reach the seed, and
//! checks every step against the scan and a serial replay of the same
//! inserts that was never compacted.

use std::sync::Arc;

use jguard::QueryCtx;
use jpar::Pool;
use jsondata::{gen, parse, serialize::to_string, Json, NodeKind};
use mongofind::{Collection, DocRef, Filter, Projection, Route};

fn routed(coll: &Collection, f: &Filter) -> Vec<DocRef> {
    coll.find_refs_with_ctx(f, &QueryCtx::unlimited()).unwrap()
}

fn scan(coll: &Collection, f: &Filter) -> Vec<DocRef> {
    coll.find_refs_via_scan_with_ctx(f, &QueryCtx::unlimited())
        .unwrap()
}

fn via_jnl(coll: &Collection, f: &Filter) -> Vec<DocRef> {
    coll.find_refs_via_jnl_with_ctx(f, &QueryCtx::unlimited())
        .unwrap()
}

/// The JNL oracle's answer, materialised (refs differ across layouts).
fn via_jnl_docs(coll: &Collection, f: &Filter) -> Vec<Json> {
    via_jnl(coll, f)
        .into_iter()
        .map(|d| coll.json_of(d))
        .collect()
}

fn find_project(coll: &Collection, f: &Filter, p: &Projection) -> Vec<Json> {
    coll.find_with_ctx(f, Some(p), &QueryCtx::unlimited())
        .unwrap()
}

/// Filters crossing the exact-JNL fragment boundary, nested paths,
/// numeric segments, and every operator class.
fn filter_corpus() -> Vec<Filter> {
    [
        r#"{"name.first": {"$eq": "Sue"}}"#,
        r#"{"name.last": {"$in": ["Doe", "Kim"]}}"#,
        r#"{"name.last": {"$exists": "false"}}"#,
        r#"{"age": {"$gte": 30, "$lt": 60}}"#,
        r#"{"age": {"$ne": 44}}"#,
        r#"{"hobbies": {"$size": 2}}"#,
        r#"{"hobbies.0": "chess"}"#,
        r#"{"hobbies": {"$type": "array"}}"#,
        r#"{"$or": [{"age": 18}, {"name.first": "Ivy"}]}"#,
        r#"{"$not": {"age": {"$lt": 70}}}"#,
        r#"{"nope.deep": 1}"#,
    ]
    .iter()
    .map(|src| Filter::parse_str(src).expect("corpus filter parses"))
    .collect()
}

/// One big parse: a single array segment of `n` records.
fn big_parse(n: usize) -> Collection {
    Collection::parse_str(&to_string(&gen::person_records(n, 42))).unwrap()
}

fn person_docs(n: usize) -> Vec<Json> {
    let Json::Array(docs) = gen::person_records(n, 42) else {
        panic!("person_records returns an array");
    };
    docs
}

/// `n` single-document insert segments (the fragmented layout).
fn fragmented(n: usize) -> Collection {
    let mut coll = Collection::parse_str("[]").unwrap();
    for d in &person_docs(n) {
        coll.insert_str(&to_string(d)).unwrap();
    }
    assert_eq!(coll.segments().len(), n + 1);
    coll
}

/// The first `n - k` documents inserted and compacted on a clone, then the
/// last `k` inserted on the origin and adopted by the compacted clone —
/// the catch-up of a background compaction.
fn compacted_then_adopted(n: usize, k: usize) -> Collection {
    let docs = person_docs(n);
    let mut origin = Collection::parse_str("[]").unwrap();
    for d in &docs[..n - k] {
        origin.insert_str(&to_string(d)).unwrap();
    }
    let mut compacted = origin.clone();
    compacted.compact();
    for d in &docs[n - k..] {
        origin.insert_str(&to_string(d)).unwrap();
    }
    for seg in &origin.segments()[n - k + 1..] {
        compacted.adopt_segment(seg);
    }
    assert_eq!(compacted.segments().len(), 1 + k);
    compacted
}

/// The first half of `n` records as one parse, two merged tails (a
/// fifth, then a twelfth of the records) and the rest inserted: the
/// layout tiered compaction leaves between two merges.
fn tiered(n: usize) -> Collection {
    let docs = person_docs(n);
    let (seed, rest) = docs.split_at(n / 2);
    let (first, rest) = rest.split_at(n / 5);
    let (second, rest) = rest.split_at(n / 12);
    let mut coll = Collection::parse_str(&to_string(&Json::Array(seed.to_vec()))).unwrap();
    for tail in [first, second] {
        for d in tail {
            coll.insert_str(&to_string(d)).unwrap();
        }
        coll.compact_tail();
    }
    for d in rest {
        coll.insert_str(&to_string(d)).unwrap();
    }
    let multi = coll.segments().iter().filter(|s| s.is_multi()).count();
    assert_eq!(multi, 3, "seed and two merged tails");
    coll
}

/// Every layout, with the documents a one-parse load of the same input
/// holds.
fn shapes(n: usize) -> Vec<(&'static str, Collection, Vec<Json>)> {
    let mut compacted = fragmented(n);
    compacted.compact();
    let single = r#"{"age": 30, "name": {"first": "Sue"}}"#;
    vec![
        ("one_big_parse", big_parse(n), person_docs(n)),
        ("fragmented_inserts", fragmented(n), person_docs(n)),
        ("post_compact", compacted, person_docs(n)),
        (
            "compacted_then_adopted",
            compacted_then_adopted(n, n / 10),
            person_docs(n),
        ),
        ("tiered", tiered(n), person_docs(n)),
        ("empty", Collection::parse_str("[]").unwrap(), vec![]),
        (
            "single_doc",
            Collection::parse_str(single).unwrap(),
            vec![parse(single).unwrap()],
        ),
    ]
}

#[test]
fn find_paths_agree_across_thread_counts_and_layouts() {
    // 1000 docs: comfortably past the parallel thresholds (chunked scans
    // and multi-segment JNL fan-out both engage at 2 and 8 threads).
    let projection = Projection::parse_str(r#"{"name.first": 1, "age": 1}"#).unwrap();
    for (label, mut coll, _) in shapes(1000) {
        // The same layout with an index to route through: `age` filters
        // take the index route there and the scan route on `coll`.
        let mut indexed = coll.clone();
        indexed.create_index("age");
        for f in filter_corpus() {
            coll.set_pool(Pool::serial());
            let refs = scan(&coll, &f);
            let found: Vec<Json> = refs.iter().map(|&d| coll.json_of(d)).collect();
            let projected = find_project(&coll, &f, &projection);
            let refs_jnl = via_jnl(&coll, &f);
            if f.jnl_exact() {
                assert_eq!(refs_jnl, refs, "{label} JNL vs scan {f:?}");
            }
            for threads in [1, 2, 8] {
                coll.set_pool(Pool::with_threads(threads));
                indexed.set_pool(Pool::with_threads(threads));
                assert_eq!(scan(&coll, &f), refs, "{label} x{threads} {f:?}");
                assert_eq!(routed(&coll, &f), refs, "{label} x{threads} {f:?}");
                assert_eq!(routed(&indexed, &f), refs, "{label} x{threads} {f:?}");
                assert_eq!(coll.find(&f), found, "{label} x{threads} {f:?}");
                assert_eq!(
                    find_project(&coll, &f, &projection),
                    projected,
                    "{label} x{threads} {f:?}"
                );
                assert_eq!(via_jnl(&coll, &f), refs_jnl, "{label} x{threads} {f:?}");
            }
        }
    }
}

#[test]
fn derived_doc_column_and_symbol_table_hold_on_every_layout() {
    // The invariants the collection derives from its segments instead of
    // storing: the document list and the symbol table.
    for (label, mut coll, docs) in shapes(300) {
        // doc_refs() is each segment's documents in turn, from the
        // segment's first ordinal on: a multi-document segment's root's
        // array children, any other segment's root.
        let segs = coll.segments();
        let mut expect: Vec<DocRef> = Vec::new();
        for (s, tree) in (0u32..).zip(segs) {
            assert_eq!(tree.first(), expect.len(), "{label}");
            match tree.is_multi() {
                true => {
                    assert_eq!(tree.kind(tree.root()), NodeKind::Arr, "{label}");
                    let docs = tree.arr_children(tree.root());
                    expect.extend(docs.iter().map(|&node| DocRef { seg: s, node }));
                }
                false => expect.push(DocRef {
                    seg: s,
                    node: tree.root(),
                }),
            }
        }
        assert_eq!(coll.doc_refs(), expect, "{label}");
        assert_eq!(coll.len(), docs.len(), "{label}");
        assert_eq!(coll.docs(), docs, "{label}");

        // Every segment's symbols resolve the same through the
        // collection's table as through the segment's own.
        for tree in segs {
            for (sym, s) in tree.interner().iter() {
                assert_eq!(coll.interner().resolve(sym), s, "{label}");
            }
        }

        // A clone shares the table; so does an insert whose strings are
        // all known already.
        assert!(
            Arc::ptr_eq(coll.clone().interner(), coll.interner()),
            "{label}"
        );
        let table = Arc::clone(coll.interner());
        let known = docs.first().cloned().unwrap_or(Json::Num(7));
        coll.insert_str(&to_string(&known)).unwrap();
        assert!(Arc::ptr_eq(coll.interner(), &table), "{label}");
        assert_eq!(coll.docs().last(), Some(&known), "{label}");
    }
}

#[test]
fn parallel_scan_respects_document_order() {
    // The spliced result must be in (segment, doc) order — equal to the
    // sequential scan's order, not merely the same set.
    let mut coll = big_parse(2000);
    coll.set_pool(Pool::with_threads(8));
    let all = Filter::parse_str(r#"{"age": {"$gte": 18}}"#).unwrap();
    let refs = scan(&coll, &all);
    assert_eq!(refs.len(), coll.len());
    assert!(
        refs.windows(2)
            .all(|w| (w[0].seg, w[0].node) <= (w[1].seg, w[1].node)),
        "refs must come back in (segment, doc) order"
    );
    let ids: Vec<Json> = coll
        .find(&all)
        .iter()
        .map(|d| d.get("id").unwrap().clone())
        .collect();
    let expect: Vec<Json> = (0..coll.len() as u64).map(Json::Num).collect();
    assert_eq!(ids, expect, "documents must come back in insertion order");
}

#[test]
fn compact_preserves_documents_and_query_answers() {
    let projection = Projection::parse_str(r#"{"name.last": 1, "age": 1}"#).unwrap();
    let mut coll = fragmented(300);
    let docs_before = coll.docs();
    let sym_age = coll.interner().lookup("age").unwrap();
    let answers_before: Vec<(Vec<Json>, Vec<Json>, Vec<Json>)> = filter_corpus()
        .iter()
        .map(|f| {
            (
                coll.find(f),
                via_jnl_docs(&coll, f),
                find_project(&coll, f, &projection),
            )
        })
        .collect();

    coll.compact();
    assert_eq!(coll.segments().len(), 1, "compaction merges to one segment");
    assert_eq!(coll.docs(), &docs_before[..], "documents are unchanged");
    assert_eq!(
        coll.interner().lookup("age"),
        Some(sym_age),
        "the shared symbol assignment survives compaction"
    );
    for (f, before) in filter_corpus().iter().zip(answers_before) {
        assert_eq!(coll.find(f), before.0, "find after compact, {f:?}");
        assert_eq!(via_jnl_docs(&coll, f), before.1, "JNL after compact, {f:?}");
        assert_eq!(
            find_project(&coll, f, &projection),
            before.2,
            "projected find after compact, {f:?}"
        );
    }

    // Compacting twice (and compacting a single-segment collection) is a
    // no-op; inserting afterwards grows new segments that compact again.
    coll.compact();
    assert_eq!(coll.segments().len(), 1);
    coll.insert(&parse(r#"{"name": {"first": "Zed"}, "age": 33, "hobbies": []}"#).unwrap());
    assert_eq!(coll.segments().len(), 2);
    let f = Filter::parse_str(r#"{"name.first": "Zed"}"#).unwrap();
    assert_eq!(coll.find(&f).len(), 1);
    coll.compact();
    assert_eq!(coll.segments().len(), 1);
    assert_eq!(coll.find(&f).len(), 1);
    assert_eq!(coll.len(), 301);
}

#[test]
fn compact_equivalence_on_seeded_random_documents() {
    // Property sweep: insert generated documents of arbitrary shape
    // (scalars, deep nests, arrays at the root), compact, and compare
    // against both the uncompacted answers and a from-scratch rebuild.
    let mut coll = Collection::from_json(&parse(r#"[]"#).unwrap());
    for seed in 0..40u64 {
        coll.insert(&gen::random_json(&gen::GenConfig::sized(seed, 50)));
    }
    let docs_before = coll.docs();
    let filters = filter_corpus();
    let before: Vec<Vec<Json>> = filters.iter().map(|f| coll.find(f)).collect();

    coll.compact();
    assert_eq!(coll.docs(), &docs_before[..]);
    let rebuilt = Collection::from_json(&Json::Array(docs_before));
    for (f, b) in filters.iter().zip(&before) {
        assert_eq!(&coll.find(f), b, "compacted vs uncompacted, {f:?}");
        assert_eq!(coll.find(f), rebuilt.find(f), "compacted vs rebuilt, {f:?}");
        assert_eq!(
            via_jnl_docs(&coll, f),
            via_jnl_docs(&rebuilt, f),
            "JNL compacted vs rebuilt, {f:?}"
        );
    }
}

#[test]
fn compact_handles_edge_layouts() {
    // Empty collection.
    let mut empty = Collection::parse_str("[]").unwrap();
    empty.compact();
    assert!(empty.is_empty());
    assert_eq!(empty.segments().len(), 1);

    // A single-document collection whose document IS an array value:
    // compaction must keep it one array-valued document, not explode it
    // into elements.
    let mut coll = Collection::parse_str("[]").unwrap();
    coll.insert(&parse("[1, 2, 3]").unwrap());
    coll.insert(&parse(r#"{"k": 1}"#).unwrap());
    assert_eq!(coll.len(), 2);
    coll.compact();
    assert_eq!(coll.len(), 2);
    assert_eq!(
        coll.docs(),
        &[parse("[1, 2, 3]").unwrap(), parse(r#"{"k": 1}"#).unwrap()]
    );

    // Non-array root (single-document semantics) plus inserts.
    let mut single = Collection::parse_str(r#"{"age": 5}"#).unwrap();
    single.insert_str(r#"{"age": 7}"#).unwrap();
    single.compact();
    assert_eq!(single.len(), 2);
    assert_eq!(
        single.docs(),
        &[
            parse(r#"{"age": 5}"#).unwrap(),
            parse(r#"{"age": 7}"#).unwrap()
        ]
    );
}

/// The `i`-th document of the interleaving: repeated and fresh ids, a
/// first name no earlier document has (a new string), a structured value
/// and a string where the indexed paths usually hold a scalar and a
/// number, and missing paths.
fn interleaved_doc(i: usize) -> String {
    match i % 5 {
        0 => format!(
            r#"{{"id": {}, "name": {{"first": "Sue", "last": "Kim"}}, "age": {}}}"#,
            i % 40,
            18 + i % 60
        ),
        1 => format!(
            r#"{{"id": {}, "name": {{"first": "N{i}"}}, "age": 44}}"#,
            5000 + i
        ),
        2 => format!(r#"{{"id": {i}, "name": {{"first": {{"nick": "S"}}}}, "age": "old"}}"#),
        3 => format!(r#"{{"id": {}, "hobbies": ["yoga"]}}"#, 7 + i % 3),
        _ => format!(r#"{{"id": [{i}], "name": "Ivy", "age": {}}}"#, i % 90),
    }
}

/// `$eq`, `$in` and range probes on the indexed paths, alone, intersected
/// and with a residual.
fn probe_corpus() -> Vec<Filter> {
    [
        r#"{"id": 7}"#,
        r#"{"id": {"$in": [3, 7, 5001, 9999]}}"#,
        r#"{"name.first": "Sue"}"#,
        r#"{"name.first": "N6"}"#,
        r#"{"name.first": {"nick": "S"}}"#,
        r#"{"name.first": {"$in": ["Ivy", "N126", "Nobody"]}}"#,
        r#"{"age": 44}"#,
        r#"{"age": "old"}"#,
        r#"{"age": {"$gt": 40}}"#,
        r#"{"age": {"$gte": 30, "$lt": 50}}"#,
        r#"{"age": {"$lte": 20}}"#,
        r#"{"name.first": {"$gte": "N"}}"#,
        r#"{"name.first": "Sue", "age": {"$gte": 50}}"#,
        r#"{"id": {"$lt": 20}, "hobbies": ["yoga"]}"#,
    ]
    .iter()
    .map(|src| Filter::parse_str(src).expect("probe filter parses"))
    .collect()
}

#[test]
fn index_route_stays_exact_across_inserts_compactions_and_adoptions() {
    let mut coll = big_parse(300);
    for path in ["id", "name.first", "age"] {
        assert!(coll.create_index(path));
    }
    let filters = probe_corpus();
    let mut next = 0;
    let mut insert = |coll: &mut Collection, n: usize| {
        for _ in 0..n {
            coll.insert_str(&interleaved_doc(next)).unwrap();
            next += 1;
        }
    };
    let mut checked = Vec::new();
    let mut check = |coll: &Collection, step: &str| {
        let tail = coll.segments().len() - 1;
        let docs = coll.docs();
        for f in &filters {
            assert_eq!(coll.route_of(f), Route::Index, "{step} {f:?}");
            let refs = routed(coll, f);
            assert_eq!(refs, scan(coll, f), "{step}, tail {tail}: {f:?}");
            let got: Vec<Json> = refs.iter().map(|&d| coll.json_of(d)).collect();
            let want: Vec<Json> = docs.iter().filter(|d| f.matches(d)).cloned().collect();
            assert_eq!(got, want, "{step}, tail {tail}: {f:?}");
        }
        checked.push(tail);
    };
    // A background compaction (the `jserve::Store::compact` protocol):
    // merge a snapshot, commit `raced` inserts to the live column
    // meanwhile, then adopt them onto the merge.
    let background =
        |coll: &mut Collection, raced: usize, insert: &mut dyn FnMut(&mut Collection, usize)| {
            let mut merged = coll.clone();
            merged.compact();
            let base = coll.segments().len();
            insert(coll, raced);
            for seg in &coll.segments()[base..] {
                merged.adopt_segment(seg);
            }
            *coll = merged;
        };

    check(&coll, "seed");
    insert(&mut coll, 1);
    check(&coll, "one insert");
    insert(&mut coll, 63);
    check(&coll, "64 inserts");
    background(&mut coll, 5, &mut insert);
    check(&coll, "background compaction, 5 raced");
    insert(&mut coll, 59);
    check(&coll, "59 inserts after adopting 5");
    coll.compact();
    check(&coll, "compact");
    insert(&mut coll, 1);
    check(&coll, "one insert after compact");
    insert(&mut coll, 126);
    check(&coll, "127 inserts after compact");
    background(&mut coll, 0, &mut insert);
    check(&coll, "background compaction, none raced");
    background(&mut coll, 127, &mut insert);
    check(&coll, "background compaction, 127 raced");
    insert(&mut coll, 1);
    coll.compact();
    check(&coll, "compact after adopting");
    assert_eq!(checked, [0, 1, 64, 5, 64, 0, 1, 127, 0, 127, 0]);
}

#[test]
fn tail_merges_racing_inserts_match_scan_and_serial_replay() {
    let mut coll = big_parse(300);
    for path in ["id", "name.first", "age"] {
        assert!(coll.create_index(path));
    }
    // The same inserts, applied serially and never compacted.
    let mut replay = coll.clone();
    let filters = probe_corpus();
    let mut next = 0;
    let mut insert = |coll: &mut Collection, replay: &mut Collection, n: usize| {
        for _ in 0..n {
            let doc = interleaved_doc(next);
            coll.insert_str(&doc).unwrap();
            replay.insert_str(&doc).unwrap();
            next += 1;
        }
    };
    let check = |coll: &Collection, replay: &Collection, step: &str| {
        let docs = coll.docs();
        assert_eq!(docs, replay.docs(), "{step}");
        assert_eq!(coll.doc_refs().len(), coll.len(), "{step}");
        for f in &filters {
            let refs = routed(coll, f);
            assert_eq!(refs, scan(coll, f), "{step}: {f:?}");
            let got: Vec<Json> = refs.iter().map(|&d| coll.json_of(d)).collect();
            assert_eq!(got, replay.find(f), "{step}: {f:?}");
        }
    };
    // A background tail merge (the `jserve::Store::compact` protocol):
    // merge the tail of a snapshot, commit `raced` inserts to the live
    // column meanwhile, then adopt them onto the merge.
    let mut merges = 0;
    let mut background =
        |coll: &mut Collection,
         replay: &mut Collection,
         raced: usize,
         insert: &mut dyn FnMut(&mut Collection, &mut Collection, usize)| {
            let mut merged = coll.clone();
            merged.compact_tail();
            let segs = merged.segments();
            assert!(
                segs.iter().all(|s| s.is_multi()),
                "a merge leaves no insert segment"
            );
            assert!(
                segs.len() <= 1 + merged.len().ilog2() as usize,
                "{} segments over {} documents",
                segs.len(),
                merged.len()
            );
            assert!(segs.windows(2).all(|w| w[0].len() >= 2 * w[1].len()));
            let base = coll.segments().len();
            insert(coll, replay, raced);
            for seg in &coll.segments()[base..] {
                merged.adopt_segment(seg);
            }
            *coll = merged;
            merges += 1;
        };

    check(&coll, &replay, "seed");
    insert(&mut coll, &mut replay, 64);
    background(&mut coll, &mut replay, 0, &mut insert);
    check(&coll, &replay, "tail merge of 64, none raced");
    insert(&mut coll, &mut replay, 20);
    background(&mut coll, &mut replay, 5, &mut insert);
    check(&coll, &replay, "tail merge of 20, 5 raced");
    assert_eq!(
        coll.segments().len(),
        3 + 5,
        "seed, two tiers and 5 adopted"
    );
    background(&mut coll, &mut replay, 127, &mut insert);
    check(&coll, &replay, "tail merge of 5, 127 raced");
    // Merges of the raced inserts, until a tier merge reaches the seed.
    for raced in [0, 5, 127, 5, 127] {
        background(&mut coll, &mut replay, raced, &mut insert);
        check(&coll, &replay, &format!("tail merge, {raced} raced"));
    }
    coll.compact_tail();
    check(&coll, &replay, "final tail merge");
    assert_eq!(coll.segments().len(), 1, "the last merges reached the seed");
    assert_eq!(merges, 8);
}
