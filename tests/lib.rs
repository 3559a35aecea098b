//! Integration-test-only crate; see the `tests/` directory.
//!
//! The one shared item is [`Counting`], the allocation-counting global
//! allocator of the work gates (`build_cost`, `window_cost`). A test
//! binary opts in with
//! `#[global_allocator] static GLOBAL: sv_tests::Counting = sv_tests::Counting;`
//! and reads [`allocations`] around the code it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting every allocation call
/// (`alloc`, `alloc_zeroed` and `realloc`).
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocation calls made so far through [`Counting`], by every thread.
/// Zero in a binary that did not install it.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

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
