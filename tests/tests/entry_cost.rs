//! Cost of the event loop's run entries, gated on work rather than time.
//! The event loop keeps its shard wake indexes, and each node's cached
//! NIU and firmware wakes, from one run entry to the next, and derives
//! them afresh only after a write through `Machine::nodes`. A 256-node
//! `Sequential` staggered-pairs machine advanced in 32 `run_for` slices
//! must derive each node's wake exactly once, at its first entry. One
//! write through `m.nodes[i]` between two slices must derive every
//! node's wake exactly once more, and the run must still match the
//! cycle-stepped oracle making the same write at the same cycle. That
//! run's node ticks and wake republishes are pinned, as `tick_cost`
//! pins the block transfers'.

use voyager::api::{BasicMsg, SendBasic};
use voyager::workloads::{load_staggered_pairs, PAIR_MSGS};
use voyager::{Machine, MachineBuilder, Parallelism};

/// Nodes of the machine: 128 pairs.
const NODES: usize = 256;

/// `run_for` slices each run is advanced in.
const SLICES: u32 = 32;

/// Simulated time of one slice. The 256-node workload quiesces at
/// 2,543,015 ns, inside the 32 slices' 2.56 ms.
const SLICE_NS: u64 = 80_000;

/// The write comes before this slice, long after pair 0 finished.
const WRITE_AT: u32 = 16;

/// `(node ticks, wake republishes)` of the run with the write.
const PINNED: (u64, u64) = (17_421, 17_934);

/// The statistics every run mode must agree on: all of them but the
/// run loop's own counters.
fn model_stats(m: &Machine) -> String {
    let mut s = m.stats();
    s.run.node_ticks = 0;
    s.run.skipped_node_ticks = 0;
    s.run.wake_republishes = 0;
    s.to_json()
}

/// Build the workload and advance it in [`SLICES`] slices. With `write`,
/// load a program onto the idle node 0 through `m.nodes` before slice
/// [`WRITE_AT`]: it sends one more message to node 1, whose program has
/// finished, so the message lands in its queue unread.
fn run(b: MachineBuilder, write: bool) -> Machine {
    let mut m = b.build();
    load_staggered_pairs(&mut m);
    for k in 0..SLICES {
        if write && k == WRITE_AT {
            let lib = m.lib(0);
            assert!(m.nodes[0].program_done(), "node 0 is idle at the write");
            let msg = BasicMsg::new(lib.user_dest(1), vec![0xA5; 16]);
            let send = SendBasic::resuming(&lib, vec![msg], PAIR_MSGS);
            m.nodes[0].load_program(Box::new(send));
        }
        m.run_for(SLICE_NS);
    }
    m
}

#[test]
fn run_entries_derive_each_wake_once_per_write() {
    let sequential = || Machine::builder(NODES).parallelism(Parallelism::Sequential);
    let mut quiet = run(sequential(), false);
    let quiet_wakes = quiet.window_work().entry_wakes;
    // One more entry, which finds the machine quiescent without a scan
    // to prime it.
    assert!(quiet.run().is_quiesced(), "the quiet run drains");
    let written = run(sequential(), true);
    let oracle = run(Machine::builder(NODES).cycle_stepped(), true);
    let r = written.stats().run;
    println!(
        "{NODES} nodes, {SLICES} slices: {quiet_wakes} wakes derived at run entries; \
         with one write: {} wakes derived, {} node ticks, {} wake republishes",
        written.window_work().entry_wakes,
        r.node_ticks,
        r.wake_republishes
    );
    assert_eq!(quiet_wakes, NODES as u64, "wakes derived without a write");
    assert_eq!(
        quiet.window_work().entry_wakes,
        NODES as u64,
        "wakes derived by a quiescence check"
    );
    assert_eq!(
        written.window_work().entry_wakes,
        2 * NODES as u64,
        "wakes derived with one write"
    );
    assert!(
        written.nodes.iter().all(|n| n.program_done()),
        "the written run finishes every program"
    );
    assert_eq!(
        model_stats(&written),
        model_stats(&oracle),
        "the written run agrees with the oracle"
    );
    assert_eq!(
        (r.node_ticks, r.wake_republishes),
        PINNED,
        "node ticks and wake republishes of the written run"
    );
}
