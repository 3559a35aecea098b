//! Snapshot size gated as work rather than time: on the cadence
//! workload (256-node staggered pairs, one base snapshot before the run
//! and a delta cut every 20,000 bus cycles), a full snapshot must cost a
//! bounded number of bytes per node, and a cadence delta must stay at
//! least ten times smaller; a fresh 2048-node build's snapshot must cost
//! as few bytes per node as the 256-node one. Byte counts are
//! deterministic, so the gates hold on any host. The cuts are pure
//! observation: the donor, and a machine restored from the base and
//! every delta, both finish with the stats of the uninterrupted run.

use voyager::workloads::load_staggered_pairs;
use voyager::{DeltaCheckpoint, Machine, Parallelism};

const NODES: u16 = 256;

/// Full-snapshot budget per node. A full snapshot lists only the cache
/// chunks a run has used, and writes each distinct translation table
/// once, so a node costs its NIU and its small state: 13.1 KiB measured
/// at the last cadence cut and 7.5 KiB for a fresh 2048-node build,
/// plus headroom.
const MAX_FULL_BYTES_PER_NODE: usize = 16 * 1024;

/// The bytes of each cadence delta, pinned: what a delta carries is
/// work, so any change to it shows here first. The first cut after the
/// base finds every node changed since the build; later ones carry the
/// active pairs' written lines and small state.
const CADENCE_DELTA_BYTES: [usize; 8] = [
    1_114_191, 145_163, 145_163, 145_163, 145_163, 145_163, 154_792, 154_319,
];

fn build() -> Machine {
    let mut m = Machine::builder(NODES.into())
        .parallelism(Parallelism::Sequential)
        .sample_latency(true)
        .build();
    load_staggered_pairs(&mut m);
    m
}

#[test]
fn cadence_snapshot_bytes_stay_bounded_per_node_and_deltas_ten_times_smaller() {
    let mut reference = build();
    let end_ns = reference.run_to_quiescence().ns();
    let want = reference.stats().to_json();
    // 20,000 cycles of the 66 MHz bus clock, in simulated ns.
    let every_ns = (20_000u64 * 1000).div_ceil(66);
    let mut m = build();
    let base = m.checkpoint_delta();
    assert!(base.is_base());
    let mut deltas = Vec::new();
    let mut target = every_ns;
    while target < end_ns {
        m.run_for(target - m.now.ns());
        match m.checkpoint_delta() {
            DeltaCheckpoint::Delta(d) => deltas.push(d),
            DeltaCheckpoint::Base(_) => unreachable!("the chain is open"),
        }
        target += every_ns;
    }
    let full = m.checkpoint().len();
    let sizes: Vec<usize> = deltas.iter().map(Vec::len).collect();
    let mean = sizes.iter().sum::<usize>() / sizes.len();
    let per_node = full / usize::from(NODES);
    println!(
        "{NODES} nodes: full snapshot at the last cut {full} bytes ({:.1} KiB per node); \
         mean of {} cadence deltas {mean} bytes ({:.1}x below full)",
        per_node as f64 / 1024.0,
        deltas.len(),
        full as f64 / mean as f64,
    );
    assert_eq!(sizes, CADENCE_DELTA_BYTES, "bytes of each cadence delta");
    assert!(
        per_node <= MAX_FULL_BYTES_PER_NODE,
        "{per_node} full-snapshot bytes per node exceed the budget of {MAX_FULL_BYTES_PER_NODE}"
    );
    assert!(
        mean * 10 <= full,
        "mean cadence delta {mean} bytes is not 10x below the full snapshot's {full}"
    );
    m.run_to_quiescence();
    assert!(m.stats().to_json() == want, "the cuts perturbed the donor");
    let mut chain = Machine::builder(1)
        .parallelism(Parallelism::Sequential)
        .restore_chain(&base.into_bytes(), &deltas)
        .expect("restore the base and every delta");
    chain.run_to_quiescence();
    assert!(
        chain.stats().to_json() == want,
        "the base and chain restore diverged from the uninterrupted run"
    );
}

/// Every node of a build holds one translation table of 4 × stride
/// entries, stride = next_pow2(n). Written once per node, it made a
/// snapshot grow as n²; written once per snapshot, it leaves a node's
/// share of the bytes flat.
#[test]
fn fresh_2048_node_snapshot_bytes_stay_bounded_per_node() {
    const NODES: usize = 2048;
    let full = Machine::builder(NODES).build().checkpoint().len();
    let per_node = full / NODES;
    println!(
        "fresh {NODES}-node build: snapshot {full} bytes ({:.1} KiB per node)",
        per_node as f64 / 1024.0
    );
    assert!(
        per_node <= MAX_FULL_BYTES_PER_NODE,
        "{per_node} snapshot bytes per node exceed the budget of {MAX_FULL_BYTES_PER_NODE}"
    );
}
