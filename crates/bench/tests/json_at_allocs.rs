//! `JsonTree::json_at` allocates only what the value it returns owns:
//! the same allocations, and the same bytes, as cloning that value.
//!
//! This binary installs `bench::memtrack`'s counting allocator, whose
//! counters are process-wide, so it holds this one test.

use bench::memtrack::{self, CountingAlloc};
use jsondata::{gen, JsonTree};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn json_at_allocates_only_what_its_output_owns() {
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
