//! Soundness of the symbol-horizon scan.
//!
//! The document scan (`Collection::find_refs_via_scan_with_ctx`) skips
//! every document before `Collection::scan_start`, which it derives from
//! symbols: the filter's horizon (`BoundFilter::horizon`), the segments'
//! table lengths and the multi-document segments' horizon tables. The
//! oracle here
//! is `Filter::matches` over the materialised `Collection::docs`, which
//! shares no symbol code with any of that. The sweep crosses the
//! collection layouts (one parse, all inserted, half inserted, compacted,
//! inserted after a compaction, tiered, empty) with 1, 2 and 4 threads, on
//! filters that need late strings, keys only inserted documents carry,
//! strings the table lacks, numeric path segments, old and new strings
//! mixed under `$or`/`$in`, and the negations that need nothing. A scan
//! the horizon leaves with no document to test still polls its context.

use std::collections::HashMap;
use std::sync::Arc;

use jguard::{Fault, QueryCtx, QueryError};
use jpar::Pool;
use jsondata::{gen, parse, serialize::to_string, Json};
use jtrace::{Counter, QueryMetrics};
use mongofind::{Collection, Filter};

/// Seed records, then `LATE` documents that each bring a unique `email`,
/// a `slot` object keyed `"0"` and `tags`, none of which a seed record
/// carries.
const LATE: usize = 60;

fn corpus() -> Vec<Json> {
    let Json::Array(mut docs) = gen::person_records(300, 11) else {
        panic!("person_records returns an array");
    };
    for i in 0..LATE {
        let text = format!(
            r#"{{"id": {}, "name": {{"first": "Sue", "last": "L{i}"}}, "age": {},
                "email": "u{i}@example.org", "slot": {{"0": "v{i}"}},
                "tags": ["t{}", "t{}"]}}"#,
            1000 + i,
            20 + i,
            i % 7,
            (i + 3) % 7
        );
        docs.push(parse(&text).expect("late document parses"));
    }
    docs
}

fn filters() -> Vec<Filter> {
    [
        // Late unique strings, and keys only the late documents carry.
        r#"{"email": "u45@example.org"}"#,
        r#"{"email": "u0@example.org"}"#,
        r#"{"name.last": "L59"}"#,
        r#"{"email": {"$exists": 1}}"#,
        r#"{"email": {"$gt": "u5"}}"#,
        r#"{"email": {"$type": "string"}}"#,
        r#"{"tags": {"$size": 2}}"#,
        r#"{"$and": [{"email": {"$exists": 1}}, {"slot.0": "v30"}]}"#,
        // Numeric path segments: array positions and an object key "0".
        r#"{"tags.1": "t3"}"#,
        r#"{"slot.0": "v7"}"#,
        r#"{"hobbies.0": "yoga"}"#,
        // Strings and keys the table lacks.
        r#"{"email": "nobody@example.org"}"#,
        r#"{"nokey": {"$exists": 1}}"#,
        r#"{"name.first": {"$in": ["Nobody", "Noone"]}}"#,
        r#"{"name.first": "email"}"#,
        // Old and new strings mixed.
        r#"{"$or": [{"name.first": "Ivy"}, {"email": "u50@example.org"}]}"#,
        r#"{"$or": [{"email": "u10@example.org"}, {"email": "nobody"}]}"#,
        r#"{"email": {"$in": ["u12@example.org", "u40@example.org", "nobody"]}}"#,
        r#"{"name.last": {"$in": ["L20", "Kim"]}}"#,
        r#"{"name.last": {"$in": ["L20", 7]}}"#,
        // Negations, and filters that need nothing.
        r#"{"email": {"$ne": "u5@example.org"}}"#,
        r#"{"email": {"$nin": ["u5@example.org"]}}"#,
        r#"{"$not": {"email": "u5@example.org"}}"#,
        r#"{"email": {"$exists": 0}}"#,
        r#"{"nokey": {"$exists": 0}}"#,
        r#"{"age": {"$gte": 50}}"#,
        r#"{}"#,
    ]
    .iter()
    .map(|src| Filter::parse_str(src).expect("filter parses"))
    .collect()
}

fn from_docs(docs: &[Json]) -> Collection {
    Collection::parse_str(&to_string(&Json::Array(docs.to_vec()))).expect("corpus parses")
}

fn layouts(docs: &[Json]) -> Vec<(&'static str, Collection)> {
    let (first, rest) = docs.split_at(docs.len() - LATE / 2);
    let mut all_inserted = from_docs(&[]);
    docs.iter().for_each(|d| all_inserted.insert(d));
    let mut half_inserted = from_docs(first);
    rest.iter().for_each(|d| half_inserted.insert(d));
    let mut compacted = all_inserted.clone();
    compacted.compact();
    let (before, after) = docs.split_at(docs.len() - 12);
    let mut inserted_after_compaction = from_docs(&[]);
    before
        .iter()
        .for_each(|d| inserted_after_compaction.insert(d));
    inserted_after_compaction.compact();
    after
        .iter()
        .for_each(|d| inserted_after_compaction.insert(d));
    vec![
        ("one_parse", from_docs(docs)),
        ("all_inserted", all_inserted),
        ("half_inserted", half_inserted),
        ("compacted", compacted),
        ("inserted_after_compaction", inserted_after_compaction),
        ("tiered", tiered(docs)),
    ]
}

/// The seed records as one parse, then the late documents as two merged
/// tails (30, then 12 documents) and single-document inserts: the layout
/// tiered compaction leaves between two merges, with late strings inside
/// merged segments.
fn tiered(docs: &[Json]) -> Collection {
    let (seed, late) = docs.split_at(docs.len() - LATE);
    let (first, rest) = late.split_at(30);
    let (second, rest) = rest.split_at(12);
    let mut coll = from_docs(seed);
    for tail in [first, second] {
        tail.iter().for_each(|d| coll.insert(d));
        coll.compact_tail();
    }
    rest.iter().for_each(|d| coll.insert(d));
    let multi = coll.segments().iter().filter(|s| s.is_multi()).count();
    assert_eq!(multi, 3, "seed and two merged tails");
    coll
}

/// The scan's answer as document ordinals, with the documents it tested.
fn scan(coll: &Collection, f: &Filter) -> (Vec<usize>, u64) {
    let sink = Arc::new(QueryMetrics::new());
    let ctx = QueryCtx::new().with_metrics(Arc::clone(&sink));
    let refs = coll.find_refs_via_scan_with_ctx(f, &ctx).unwrap();
    let ordinal: HashMap<_, _> = coll
        .doc_refs()
        .into_iter()
        .enumerate()
        .map(|(i, d)| (d, i))
        .collect();
    let hits = refs.iter().map(|d| ordinal[d]).collect();
    (hits, sink.get(Counter::DocsScanned))
}

/// The oracle: `Filter::matches` on the materialised documents.
fn oracle(coll: &Collection, f: &Filter) -> Vec<usize> {
    let docs = coll.docs();
    (0..docs.len()).filter(|&i| f.matches(&docs[i])).collect()
}

#[test]
fn horizon_scan_equals_filter_matches_on_every_layout_and_thread_count() {
    let docs = corpus();
    let filters = filters();
    // Documents each filter's scan tests on the one-parse layout: the
    // count must not depend on the layout or the thread count.
    let mut scanned_at: Vec<Option<u64>> = vec![None; filters.len()];
    for (layout, mut coll) in layouts(&docs) {
        for threads in [1, 2, 4] {
            coll.set_pool(Pool::with_threads(threads));
            for (f, want_scanned) in filters.iter().zip(&mut scanned_at) {
                let want = oracle(&coll, f);
                let (got, scanned) = scan(&coll, f);
                assert_eq!(got, want, "{f} at {layout}/{threads} threads");
                let start = coll.scan_start(&f.bind(coll.interner()));
                assert_eq!(scanned, (coll.len() - start) as u64, "{f} at {layout}");
                assert_eq!(
                    *want_scanned.get_or_insert(scanned),
                    scanned,
                    "{f} at {layout}"
                );
            }
        }
    }
}

#[test]
fn a_late_unique_string_is_scanned_from_its_document_on() {
    let docs = corpus();
    for (layout, coll) in layouts(&docs) {
        let n = coll.len() as u64;
        for (src, ordinal) in [
            (r#"{"email": "u45@example.org"}"#, 345),
            (r#"{"email": {"$exists": 1}}"#, 300),
            (r#"{"email": "nobody@example.org"}"#, 360),
            (r#"{"email": {"$exists": 0}}"#, 0),
        ] {
            let f = Filter::parse_str(src).expect("filter parses");
            let (_, scanned) = scan(&coll, &f);
            assert_eq!(scanned, n - ordinal, "{src} at {layout}");
        }
    }
}

#[test]
fn the_empty_collection_scans_nothing() {
    let coll = from_docs(&[]);
    for f in filters() {
        assert_eq!(scan(&coll, &f), (vec![], 0), "{f}");
        assert_eq!(coll.scan_start(&f.bind(coll.interner())), 0, "{f}");
    }
}

#[test]
fn a_scan_left_with_nothing_to_test_still_answers_to_its_context() {
    let coll = from_docs(&corpus());
    let f = Filter::parse_str(r#"{"email": "nobody@example.org"}"#).expect("filter parses");
    let cancelled = QueryCtx::new();
    cancelled.cancel();
    assert_eq!(
        coll.find_refs_via_scan_with_ctx(&f, &cancelled),
        Err(QueryError::Cancelled)
    );
    // An injected panic at that one poll is contained, as in a chunk.
    let faulty = QueryCtx::new().with_fault(Fault::PanicAtPoll(1));
    let got = jguard::with_quiet_panics(|| coll.find_refs_via_scan_with_ctx(&f, &faulty));
    assert!(
        matches!(got, Err(QueryError::WorkerPanicked { .. })),
        "{got:?}"
    );
}
