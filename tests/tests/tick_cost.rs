//! Cost of the event loop on the paper's block-transfer approaches,
//! gated on work rather than time. A 2-node `Sequential` machine moves
//! 16 KiB with each of approaches 1–5, and the run's node ticks and wake
//! republishes must equal the pinned counts exactly. Both are pure
//! functions of the simulated behaviour and of how exact the engines'
//! wakes are, so they only move when one of those changes: a wake that
//! turns conservative again (a DMA engine or the sP polling while it
//! waits) shows up here as a rise, long before it shows in wall time.

use voyager::blockxfer::{load_block_transfer, SRC_ADDR};
use voyager::firmware::proto::Approach;
use voyager::{Machine, Parallelism};

/// Bytes each transfer moves.
const LEN: u32 = 16 * 1024;

/// `(approach, node ticks, wake republishes)` of one 16 KiB transfer.
const PINNED: [(Approach, u64, u64); 5] = [
    (Approach::ApDirect, 23_678, 23_883),
    (Approach::SpManaged, 10_370, 10_626),
    (Approach::BlockHw, 7_590, 7_847),
    (Approach::OptimisticSp, 5_791, 6_053),
    (Approach::OptimisticHw, 5_724, 5_983),
];

/// Run one transfer from node 0 to node 1, check the bytes landed, and
/// return the run's node ticks and wake republishes.
fn transfer(approach: Approach) -> (u64, u64) {
    let mut m = Machine::builder(2)
        .parallelism(Parallelism::Sequential)
        .build();
    let dst = load_block_transfer(&mut m, approach, LEN, 7);
    m.run_to_quiescence();
    assert_eq!(
        m.mem_read(1, dst, LEN as usize),
        m.mem_read(0, SRC_ADDR, LEN as usize),
        "{approach:?}: destination bytes"
    );
    let run = m.stats().run;
    (run.node_ticks, run.wake_republishes)
}

#[test]
fn block_transfers_tick_only_due_nodes() {
    // Measure every approach before judging any, so a failure still
    // prints every count.
    let got: Vec<(Approach, u64, u64)> = PINNED
        .iter()
        .map(|&(approach, _, _)| {
            let (ticks, republishes) = transfer(approach);
            println!("{approach:?} {LEN} B: {ticks} node ticks, {republishes} wake republishes");
            (approach, ticks, republishes)
        })
        .collect();
    assert_eq!(got, PINNED, "node ticks and wake republishes per approach");
}
