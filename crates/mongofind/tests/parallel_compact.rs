//! Determinism and compaction suites for the parallel query paths.
//!
//! Every parallel scan in `mongofind` must return **byte-identical**
//! results for every thread count — the 1-thread pool runs the chunks
//! inline in order and is therefore the semantic oracle (`jpar`'s
//! documented contract). The sweeps here cross thread counts {1, 2, 8}
//! with the three segment layouts the tree column can be in: one big
//! parse (a single array segment), many single-document insert segments,
//! and the post-`compact()` merge of the latter. On every cell the
//! routed path (`find_refs_with_ctx`, with and without an index to take)
//! must equal the document-scan oracle, and so must the JNL oracle on
//! the exactly JNL-compilable fragment.
//!
//! `Collection::compact` itself is pinned by an equivalence property:
//! documents, symbols and every query answer must be unchanged by
//! compaction, on a hand corpus and on seeded generated documents.

use jguard::QueryCtx;
use jpar::Pool;
use jsondata::{gen, parse, serialize::to_string, Json};
use mongofind::{Collection, DocRef, Filter, Projection};

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

/// `n` single-document insert segments (the fragmented layout).
fn fragmented(n: usize) -> Collection {
    let Json::Array(docs) = gen::person_records(n, 42) else {
        panic!("person_records returns an array");
    };
    let mut coll = Collection::parse_str("[]").unwrap();
    for d in &docs {
        coll.insert_str(&to_string(d)).unwrap();
    }
    assert_eq!(coll.segments().len(), n + 1);
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
        (
            "single_doc",
            Collection::parse_str(r#"{"age": 30, "name": {"first": "Sue"}}"#).unwrap(),
        ),
    ]
}

#[test]
fn find_paths_agree_across_thread_counts_and_layouts() {
    // 1000 docs: comfortably past the parallel thresholds (chunked scans
    // and multi-segment JNL fan-out both engage at 2 and 8 threads).
    let projection = Projection::parse_str(r#"{"name.first": 1, "age": 1}"#).unwrap();
    for (label, mut coll) in shapes(1000) {
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
