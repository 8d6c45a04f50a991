//! `CanonTable::build` allocates a fixed set of buffers grown by
//! doubling, so its allocation count stays small and does not grow with
//! the number of containers: one heap signature per container or per
//! class would make tens of thousands on 20k person records.
//!
//! This binary installs `bench::memtrack`'s counting allocator, whose
//! counters are process-wide, so it holds this one test.

use bench::memtrack::{self, CountingAlloc};
use jsondata::{gen, parse_to_tree, serialize, CanonTable};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The most allocations one table build may make.
const CANON_ALLOCS: u64 = 64;

#[test]
fn canon_build_allocations_do_not_grow_with_the_corpus() {
    for n in [1_000, 20_000] {
        let text = serialize::to_string(&gen::person_records(n, 7));
        let tree = parse_to_tree(&text).expect("generated text parses");
        let (canon, profile) = memtrack::measure(|| CanonTable::build(&tree));
        assert!(canon.class_count() > n, "{n} records");
        assert!(
            profile.allocs <= CANON_ALLOCS,
            "{n} records: CanonTable::build made {} allocations (at most {CANON_ALLOCS})",
            profile.allocs
        );
    }
}
