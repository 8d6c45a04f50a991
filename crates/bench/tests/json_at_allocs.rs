//! `JsonTree::json_at` allocates only what the value it returns owns:
//! the same allocations, and the same bytes, as cloning that value. And a
//! value owns one heap buffer per object, one per non-empty array and one
//! per string or key longer than `JStr::INLINE` bytes — nothing per short
//! string and no key index for a small object.
//!
//! This binary installs `bench::memtrack`'s counting allocator, whose
//! counters are process-wide, so its tests run one at a time under a lock.

use std::sync::Mutex;

use bench::memtrack::{self, CountingAlloc};
use jsondata::{gen, JStr, Json, JsonTree};
use mongofind::Collection;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn json_at_allocates_only_what_its_output_owns() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tree = JsonTree::build(&gen::person_records(16, 5));
    for &doc in tree.arr_children(tree.root()) {
        let (value, built) = memtrack::measure(|| tree.json_at(doc));
        let (copy, cloned) = memtrack::measure(|| value.clone());
        assert!(built.allocs > 0);
        assert_eq!(
            (built.allocs, built.peak_bytes),
            (cloned.allocs, cloned.peak_bytes),
            "{value}"
        );
        drop(copy);
    }
}

/// The heap buffers `v` owns: one per object (its pairs; no object here
/// has more than 8 keys, so none keeps a key index), one per non-empty
/// array, one per string or key past the inline limit.
fn owned_buffers(v: &Json) -> u64 {
    let long = |s: &str| u64::from(s.len() > JStr::INLINE);
    match v {
        Json::Num(_) => 0,
        Json::Str(s) => long(s),
        Json::Array(items) => {
            u64::from(!items.is_empty()) + items.iter().map(owned_buffers).sum::<u64>()
        }
        Json::Object(o) => {
            assert!(o.len() <= 8, "a small object");
            u64::from(!o.is_empty())
                + o.iter()
                    .map(|(k, c)| long(k) + owned_buffers(c))
                    .sum::<u64>()
        }
    }
}

#[test]
fn json_of_allocates_per_container_not_per_string() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let Json::Array(records) = gen::person_records(2_000, 1) else {
        panic!("person_records returns an array");
    };
    // Stretch some names past the inline limit, one of them by a
    // two-byte character that straddles it.
    let records: Vec<Json> = records
        .into_iter()
        .enumerate()
        .map(|(i, r)| match i % 3 {
            0 => r,
            1 => jsondata::parse(
                &r.to_string()
                    .replace("\"Doe\"", "\"Doe-Smith-Lopez-Chen-Kim\""),
            )
            .unwrap(),
            _ => jsondata::parse(
                &r.to_string()
                    .replace("\"Sue\"", "\"Sue-Ana-Wei-Omar-Ivy-é\""),
            )
            .unwrap(),
        })
        .collect();
    let text = Json::Array(records.clone()).to_string();
    let coll = Collection::parse_str(&text).expect("collection parses");
    let (mut allocs, mut docs) = (0, 0);
    for (d, want) in coll.doc_refs().into_iter().zip(&records) {
        let (value, made) = memtrack::measure(|| coll.json_of(d));
        assert_eq!(&value, want);
        assert_eq!(made.allocs, owned_buffers(&value), "{value}");
        allocs += made.allocs;
        docs += 1;
    }
    // 2 objects per record, plus a hobbies array in about 2 records of 3.
    assert!(
        allocs <= 3 * docs,
        "{allocs} allocations over {docs} documents"
    );
}
