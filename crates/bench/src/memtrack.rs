//! A counting global allocator for the experiment harness: its allocation
//! gates count how many heap allocations and how much peak live memory a
//! region costs. S4's is the "intermediate allocation" claim fusion makes
//! (the two-pass route materialises an owned `Json` — one allocation per
//! container/string plus the value arena — before the tree; the fused
//! route never does).
//!
//! The harness binary installs [`CountingAlloc`] as its
//! `#[global_allocator]`, but the counters are **off by default**: outside a
//! [`measure`] window every allocation pays exactly one relaxed bool load,
//! so the *timed* regions of every experiment — including S4's own wall
//! clocks, whose two sides allocate very differently — run effectively
//! uninstrumented. Only the dedicated allocation-profile runs flip the
//! counters on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The counting allocator (a zero-sized wrapper over [`System`]).
pub struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Records `grown` freshly live bytes and updates the high-water mark.
fn grow(grown: usize) {
    let live = LIVE.fetch_add(grown, Relaxed) + grown;
    PEAK.fetch_max(live, Relaxed);
}

/// Releases `shrunk` live bytes; saturates at zero so frees of memory
/// allocated *before* the measure window cannot wrap the counter.
fn shrink(shrunk: usize) {
    let _ = LIVE.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(shrunk)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            shrink(layout.size());
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation profile of one measured region.
#[derive(Debug, Clone, Copy)]
pub struct AllocProfile {
    /// Heap allocation calls (`alloc` + `realloc`) made by the region.
    pub allocs: u64,
    /// Peak live heap bytes the region allocated above its entry level —
    /// its own high-water mark, including any transient intermediates.
    pub peak_bytes: usize,
}

/// Runs `f` with the counters enabled and reports its allocation profile.
/// Counters read zero unless [`CountingAlloc`] is installed as the global
/// allocator. Not reentrant (the harness is single-threaded).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocProfile) {
    ALLOCS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
    let out = f();
    ENABLED.store(false, Relaxed);
    let profile = AllocProfile {
        allocs: ALLOCS.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed),
    };
    (out, profile)
}
