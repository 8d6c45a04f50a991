//! `Json::eq` allocates only for a pair of nested containers: scalars and
//! flat arrays and objects compare with no heap allocation, so a count of
//! a code path that compares values (such as `$group`'s hash-tag
//! collisions) does not depend on how many comparisons it makes.
//!
//! This binary installs `bench::memtrack`'s counting allocator, whose
//! counters are process-wide, so it holds this one test.

use bench::memtrack::{self, CountingAlloc};
use jsondata::{parse, Json};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn eq_allocates_only_for_nested_container_pairs() {
    let flat = [
        ("1", "1", true),
        ("1", "2", false),
        (r#""a""#, r#""a""#, true),
        (r#""a""#, "1", false),
        ("[1, 2, 3]", "[1, 2, 3]", true),
        ("[1, 2, 3]", "[1, 2, 4]", false),
        (r#"{"a": 1, "b": "x"}"#, r#"{"b": "x", "a": 1}"#, true),
        (r#"{"a": 1, "b": "x"}"#, r#"{"a": 1, "c": "x"}"#, false),
        (r#"{"a": [], "b": {}}"#, r#"{"a": {}, "b": []}"#, false),
    ];
    for (l, r, expect) in flat {
        let (a, b) = (parse(l).expect("parses"), parse(r).expect("parses"));
        let (same, profile) = memtrack::measure(|| a == b);
        assert_eq!(same, expect, "{l} == {r}");
        assert_eq!(profile.allocs, 0, "{l} == {r}");
    }
    // A nested pair goes on the work stack.
    let a: Json = parse(r#"{"a": {"b": 1}}"#).expect("parses");
    let b = a.clone();
    let (same, profile) = memtrack::measure(|| a == b);
    assert!(same);
    assert!(profile.allocs > 0);
}
