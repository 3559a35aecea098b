//! Machine build and restore cost, gated on work rather than time: a
//! counting global allocator measures how many heap allocations, and how
//! many bytes, building `Machine::builder(n)` and restoring its snapshot
//! make per node, and how many rendering a stats snapshot as JSON makes.
//! All are deterministic, so the gates hold on any host; a wall-clock
//! budget would not.
//!
//! Its own test binary because the allocator is process-global. The
//! tests take one lock for their whole body, so no test allocates while
//! another measures.

use std::sync::Mutex;
use sv_tests::{allocated_bytes, allocations, Counting};
use voyager::{Machine, Parallelism};

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// Per-node allocation budget for a default build. Cache tags, the
/// tracer ring and every other per-node structure must stay a handful of
/// flat arrays, not one allocation per set or per record.
const MAX_ALLOCS_PER_NODE: u64 = 64;

/// Per-node byte budget for a default build. A node allocates its
/// cache ways only as a run touches them, and shares one translation
/// table with every other node, so a build pays for neither.
const MAX_BUILD_BYTES_PER_NODE: u64 = 32 * 1024;

/// Per-node byte budget for restoring the snapshot of a fresh build:
/// 22.1 KiB measured at 256 nodes and 35.6 KiB at 2048, plus headroom.
/// Restore assembles a machine as build does, then loads every node's
/// state. The snapshot holds the translation table once, so every node
/// shares the one copy restore loads. Cache chunks whose slots all read
/// never-used stay unallocated.
const MAX_RESTORE_BYTES_PER_NODE: u64 = 40 * 1024;

/// Allocation budget for rendering the 64-node staggered-pairs stats
/// snapshot as JSON. The writer formats numbers in place, so only the
/// output `String`'s doublings and the stack of open containers
/// allocate, however many values the snapshot holds.
const MAX_STATS_JSON_ALLOCS: u64 = 64;

/// Allocation calls and bytes `f` makes, and its result (dropped by the
/// caller, outside the measurement).
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (allocations(), allocated_bytes());
    let out = f();
    (out, allocations() - calls, allocated_bytes() - bytes)
}

#[test]
fn build_allocations_per_node_stay_bounded() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const NODES: u64 = 256;
    let (m, allocs, _) = measure(|| Machine::builder(NODES as usize).build());
    drop(m);
    let per_node = allocs as f64 / NODES as f64;
    println!("build of {NODES} nodes: {allocs} allocations, {per_node:.1} per node");
    assert!(
        allocs <= MAX_ALLOCS_PER_NODE * NODES,
        "{per_node:.1} allocations per node exceed the budget of {MAX_ALLOCS_PER_NODE}"
    );
}

#[test]
fn build_bytes_per_node_stay_bounded() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for nodes in [256u64, 2048] {
        let (m, _, bytes) = measure(|| Machine::builder(nodes as usize).build());
        drop(m);
        let per_node = bytes as f64 / nodes as f64 / 1024.0;
        println!("build of {nodes} nodes: {bytes} bytes, {per_node:.1} KiB per node");
        assert!(
            bytes <= MAX_BUILD_BYTES_PER_NODE * nodes,
            "{per_node:.1} KiB per node at {nodes} nodes exceed the budget of {} KiB",
            MAX_BUILD_BYTES_PER_NODE / 1024
        );
    }
}

#[test]
fn restore_bytes_per_node_stay_bounded() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for nodes in [256u64, 2048] {
        let snapshot = Machine::builder(nodes as usize).build().checkpoint();
        let (m, allocs, bytes) = measure(|| Machine::builder(1).restore(&snapshot));
        m.expect("a fresh build's snapshot restores");
        let per_node = bytes as f64 / nodes as f64 / 1024.0;
        println!(
            "restore of {nodes} nodes: {allocs} allocations, {bytes} bytes, {per_node:.1} KiB per node"
        );
        assert!(
            bytes <= MAX_RESTORE_BYTES_PER_NODE * nodes,
            "{per_node:.1} KiB per node at {nodes} nodes exceed the budget of {} KiB",
            MAX_RESTORE_BYTES_PER_NODE / 1024
        );
    }
}

#[test]
fn stats_json_allocations_stay_bounded() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut m = Machine::builder(64)
        .parallelism(Parallelism::Sequential)
        .sample_latency(true)
        .build();
    voyager::workloads::load_staggered_pairs(&mut m);
    m.run_to_quiescence();
    let stats = m.stats();
    let (json, allocs, _) = measure(|| stats.to_json());
    println!(
        "stats JSON of 64 nodes: {allocs} allocations for {} bytes",
        json.len()
    );
    assert!(
        allocs <= MAX_STATS_JSON_ALLOCS,
        "{allocs} allocations exceed the budget of {MAX_STATS_JSON_ALLOCS}"
    );
}
