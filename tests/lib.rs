//! Integration-test-only crate; see the `tests/` directory.
//!
//! The one shared item is [`Counting`], the allocation-counting global
//! allocator of the work gates (`build_cost`, `window_cost`). A test
//! binary opts in with
//! `#[global_allocator] static GLOBAL: sv_tests::Counting = sv_tests::Counting;`
//! and reads [`allocations`] and [`allocated_bytes`] around the code it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting every allocation call
/// (`alloc`, `alloc_zeroed` and `realloc`) and the bytes they request.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Allocation calls made so far through [`Counting`], by every thread.
/// Zero in a binary that did not install it.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested so far through [`Counting`], by every thread: the
/// size of each `alloc` and `alloc_zeroed`, and what each `realloc`
/// grows a block by. Frees are not subtracted. Zero in a binary that did
/// not install it.
pub fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the caller's guarantees pass
// straight through. The counters are statistics and guard no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
