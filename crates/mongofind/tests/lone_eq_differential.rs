//! Lone-`$eq` differential suite.
//!
//! A plan whose only probe is one `$eq` (with or without a residual)
//! answers from the index's per-segment posting lists, concatenated, with
//! no bitmap. This suite checks that path against the document scan and
//! against `Filter::matches` on the materialised documents, for scalar,
//! absent and structured constants, across every layout the tree column
//! can be in ({one parse, one parse plus 1 and plus 64 inserts, compacted,
//! inserted after a compaction, tiered, empty}) at 1, 2 and 4 threads. It
//! also
//! pins what the probe records: one probe, no bitmap intersection, no
//! scanned document, and a byte charge of exactly the hit list.

use std::mem::size_of;
use std::sync::Arc;

use jguard::QueryCtx;
use jpar::Pool;
use jsondata::{gen, serialize::to_string, Json};
use jtrace::{Counter, QueryMetrics};
use mongofind::{Collection, DocRef, Filter, Route};

/// Every filter plans exactly one `$eq` probe.
const FILTERS: [&str; 13] = [
    // number and string constants
    r#"{"id": 7}"#,
    r#"{"age": {"$eq": 44}}"#,
    r#"{"name.first": "Sue"}"#,
    // a string only the insert segments intern
    r#"{"name.first": "Zoe"}"#,
    // a string no symbol table holds
    r#"{"name.first": "Nobody"}"#,
    // interned values in no posting list of the probed index
    r#"{"name.first": "Kim"}"#,
    r#"{"age": 5}"#,
    // object- and array-valued constants on an indexed path
    r#"{"name": {"first": "Sue", "last": "Kim"}}"#,
    r#"{"name": {"last": "Kim", "first": "Sue"}}"#,
    r#"{"hobbies": ["yoga"]}"#,
    r#"{"hobbies": []}"#,
    // `$eq` plus an unindexed residual
    r#"{"name.first": "Sue", "name.last": "Kim"}"#,
    r#"{"id": 7, "hobbies": {"$size": 1}}"#,
];

const SEED_DOCS: usize = 500;

fn indexed(mut coll: Collection) -> Collection {
    for path in ["id", "name.first", "age", "name", "hobbies"] {
        assert!(coll.create_index(path));
    }
    coll
}

/// Insert `i`: a repeat of seed id 7, a doc equal to the object and
/// array constants, or one with a first name the seed never interned.
fn insert_doc(i: usize) -> String {
    match i % 3 {
        0 => format!(
            r#"{{"id": 7, "name": {{"first": "Sue", "last": "Doe"}}, "age": {}, "hobbies": ["chess"]}}"#,
            20 + i % 50
        ),
        1 => r#"{"id": 1001, "name": {"last": "Kim", "first": "Sue"}, "age": 44, "hobbies": ["yoga"]}"#
            .to_owned(),
        _ => format!(
            r#"{{"id": {}, "name": {{"first": "Zoe", "last": "Kim"}}, "age": 44, "hobbies": []}}"#,
            2000 + i
        ),
    }
}

fn with_inserts(mut coll: Collection, from: usize, n: usize) -> Collection {
    for i in from..from + n {
        coll.insert_str(&insert_doc(i)).unwrap();
    }
    coll
}

fn seed() -> Collection {
    indexed(Collection::parse_str(&to_string(&gen::person_records(SEED_DOCS, 42))).unwrap())
}

fn layouts() -> Vec<(&'static str, Collection)> {
    let mut compacted = with_inserts(seed(), 0, 64);
    compacted.compact();
    let after_compaction = with_inserts(compacted.clone(), 64, 5);
    vec![
        ("one_parse", seed()),
        ("plus_1_insert", with_inserts(seed(), 0, 1)),
        ("plus_64_inserts", with_inserts(seed(), 0, 64)),
        ("compacted", compacted),
        ("inserted_after_compaction", after_compaction),
        ("tiered", tiered()),
        ("empty", indexed(Collection::parse_str("[]").unwrap())),
    ]
}

/// The seed, two merged tails (64, then 20 inserts) and 5
/// single-document inserts: the layout tiered compaction leaves between
/// two merges.
fn tiered() -> Collection {
    let mut coll = with_inserts(seed(), 0, 64);
    coll.compact_tail();
    coll = with_inserts(coll, 64, 20);
    coll.compact_tail();
    let coll = with_inserts(coll, 84, 5);
    let multi = coll.segments().iter().filter(|s| s.is_multi()).count();
    assert_eq!(multi, 3, "seed and two merged tails");
    coll
}

#[test]
fn lone_eq_probe_agrees_with_scan_and_matches() {
    let mut hits = 0;
    for (label, mut coll) in layouts() {
        let docs = coll.docs();
        for src in FILTERS {
            let f = Filter::parse_str(src).unwrap();
            let plan = coll.explain(&f);
            assert_eq!(plan.route, Route::Index, "{label} {src}");
            assert_eq!(plan.probes.len(), 1, "{label} {src}");
            assert_eq!(plan.probes[0].kind, "eq", "{label} {src}");
            let want: Vec<Json> = docs.iter().filter(|d| f.matches(d)).cloned().collect();
            hits += want.len();
            for threads in [1, 2, 4] {
                coll.set_pool(Pool::with_threads(threads));
                let at = format!("{label} x{threads} {src}");
                let sink = Arc::new(QueryMetrics::new());
                let ctx = QueryCtx::new().with_metrics(Arc::clone(&sink));
                let refs = coll.find_refs_with_ctx(&f, &ctx).unwrap();
                let scan = coll
                    .find_refs_via_scan_with_ctx(&f, &QueryCtx::unlimited())
                    .unwrap();
                assert_eq!(refs, scan, "{at}");
                let got: Vec<Json> = refs.iter().map(|&d| coll.json_of(d)).collect();
                assert_eq!(got, want, "{at}");
                assert_eq!(coll.find(&f), want, "{at}");

                assert_eq!(sink.get(Counter::IndexProbes), 1, "{at}");
                assert_eq!(sink.get(Counter::BitmapIntersections), 0, "{at}");
                assert_eq!(sink.get(Counter::DocsScanned), 0, "{at}");
                assert_eq!(sink.get(Counter::RowsEmitted), refs.len() as u64, "{at}");
                // The probe charges the hit list it builds: every document
                // the residual then tests, or every row without one.
                let listed = match plan.residual {
                    Some(_) => sink.get(Counter::ResidualEvals),
                    None => {
                        assert_eq!(sink.get(Counter::ResidualEvals), 0, "{at}");
                        refs.len() as u64
                    }
                };
                assert_eq!(
                    sink.get(Counter::BytesCharged),
                    listed * size_of::<DocRef>() as u64,
                    "{at}"
                );
            }
        }
    }
    assert!(hits > 0, "the sweep must find documents, not only absences");
}

#[test]
fn lone_eq_byte_budget_pays_for_the_hit_list_only() {
    let coll = with_inserts(seed(), 0, 1);
    let f = Filter::parse_str(r#"{"id": 7}"#).unwrap();
    let list = 2 * size_of::<DocRef>() as u64;
    // A budget of exactly the two-entry hit list answers; one byte less
    // does not.
    let ctx = QueryCtx::new().with_byte_budget(list);
    assert_eq!(coll.find_refs_with_ctx(&f, &ctx).unwrap().len(), 2);
    let ctx = QueryCtx::new().with_byte_budget(list - 1);
    assert!(coll.find_refs_with_ctx(&f, &ctx).is_err());
}
