//! Machine build cost, gated on work rather than time: a counting global
//! allocator measures how many heap allocations `Machine::builder(256)
//! .build()` makes per node. Allocation counts are deterministic, so the
//! gate holds on any host; a wall-clock budget would not.
//!
//! Its own test binary because the allocator is process-global: keep it
//! to this one test so nothing else allocates concurrently.

use sv_tests::{allocations, Counting};
use voyager::Machine;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Per-node allocation budget for a default build. Cache tags, the
/// tracer ring and every other per-node structure must stay a handful of
/// flat arrays, not one allocation per set or per record.
const MAX_ALLOCS_PER_NODE: u64 = 64;

#[test]
fn build_allocations_per_node_stay_bounded() {
    const NODES: u64 = 256;
    let before = allocations();
    let m = Machine::builder(NODES as usize).build();
    let allocs = allocations() - before;
    drop(m);
    let per_node = allocs as f64 / NODES as f64;
    println!("build of {NODES} nodes: {allocs} allocations, {per_node:.1} per node");
    assert!(
        allocs <= MAX_ALLOCS_PER_NODE * NODES,
        "{per_node:.1} allocations per node exceed the budget of {MAX_ALLOCS_PER_NODE}"
    );
}
