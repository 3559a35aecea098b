//! Machine build cost, gated on work rather than time: a counting global
//! allocator measures how many heap allocations `Machine::builder(256)
//! .build()` makes per node. Allocation counts are deterministic, so the
//! gate holds on any host; a wall-clock budget would not.
//!
//! Its own test binary because the allocator is process-global: keep it
//! to this one test so nothing else allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use voyager::Machine;

/// Forwards to the system allocator, counting every allocation call
/// (`alloc`, `alloc_zeroed` and `realloc`).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the caller's guarantees pass
// straight through. The counter is a statistic and guards no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Per-node allocation budget for a default build. Cache tags, the
/// tracer ring and every other per-node structure must stay a handful of
/// flat arrays, not one allocation per set or per record.
const MAX_ALLOCS_PER_NODE: u64 = 64;

#[test]
fn build_allocations_per_node_stay_bounded() {
    const NODES: u64 = 256;
    let before = ALLOCS.load(Ordering::Relaxed);
    let m = Machine::builder(NODES as usize).build();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    drop(m);
    let per_node = allocs as f64 / NODES as f64;
    println!("build of {NODES} nodes: {allocs} allocations, {per_node:.1} per node");
    assert!(
        allocs <= MAX_ALLOCS_PER_NODE * NODES,
        "{per_node:.1} allocations per node exceed the budget of {MAX_ALLOCS_PER_NODE}"
    );
}
