//! Collectives on StarT-Voyager, three ways: aP-driven over Express
//! messages, aP-driven over Basic messages, and NIC-resident in sP
//! firmware — the "MPI library over NIU primitives" role the paper
//! assigns to layer 0, and the offload ROADMAP item 2 asks for.
//!
//! Run with: `cargo run --release -p sv-examples --bin collectives`

use voyager::api::CollReq;
use voyager::app::AppEventKind;
use voyager::collectives::{barrier, AllReduce, BasicAllReduce, Broadcast, ReduceOp};
use voyager::firmware::proto::CollOp;
use voyager::Machine;

/// Run one collective on a fresh `n`-node machine; returns the
/// quiescence time and every node's result. A node that never emits a
/// result is a protocol bug, so this panics rather than papering over
/// the hole with a default.
fn run_collective(
    n: usize,
    mk: impl Fn(&voyager::NodeLib, u16) -> Box<dyn voyager::Program>,
) -> (u64, Vec<u64>) {
    let mut m = Machine::builder(n).build();
    for i in 0..n as u16 {
        let lib = m.lib(i);
        m.nodes[i as usize].load_program(mk(&lib, i));
    }
    let t = m.run_to_quiescence().ns();
    let results = (0..n as u16)
        .map(|i| {
            m.events(i)
                .iter()
                .find_map(|e| match e.kind {
                    AppEventKind::Result { value, .. } => Some(value),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("node {i} finished without a collective result"))
        })
        .collect();
    (t, results)
}

/// Like [`run_collective`], but also reports the aP and sP busy
/// fractions so the offload's occupancy story is visible: who did the
/// collective's work, the application processors or the NIC firmware?
fn run_with_occupancy(
    n: usize,
    mk: impl Fn(&voyager::NodeLib, u16) -> Box<dyn voyager::Program>,
) -> (u64, Vec<u64>, f64, u64) {
    let mut m = Machine::builder(n).build();
    for i in 0..n as u16 {
        let lib = m.lib(i);
        m.nodes[i as usize].load_program(mk(&lib, i));
    }
    let t = m.run_to_quiescence().ns();
    let results = (0..n as u16)
        .map(|i| {
            m.events(i)
                .iter()
                .find_map(|e| match e.kind {
                    AppEventKind::Result { value, .. } => Some(value),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("node {i} finished without a collective result"))
        })
        .collect();
    let s = m.stats();
    // Mean busy fractions across nodes: aP loads/stores vs sP collective
    // handler time, both against the run's wall time.
    let ap_ops: u64 = s.nodes.iter().map(|nd| nd.cpu.loads + nd.cpu.stores).sum();
    let sp_coll_ns: u64 = s.nodes.iter().map(|nd| nd.fw.coll_busy_ns).sum();
    (t, results, ap_ops as f64 / n as f64, sp_coll_ns / n as u64)
}

fn main() {
    let n = 16;

    let (t, _) = run_collective(n, |lib, _| Box::new(barrier(lib)));
    println!(
        "{n}-node barrier (aP/Express): {:.1} us (4 dissemination rounds)",
        t as f64 / 1000.0
    );

    let (t, results) = run_collective(n, |lib, _| Box::new(Broadcast::new(lib, 3, 0xFEED)));
    assert!(results.iter().all(|&v| v == 0xFEED));
    println!(
        "{n}-node broadcast from rank 3 (aP/Express): {:.1} us, all nodes got {:#x}",
        t as f64 / 1000.0,
        results[0]
    );

    let want: u64 = (1..=n as u64).sum();

    // The same all-reduce, three ways. Express: two uncached stores per
    // round per node. Basic: a composed message per round per node.
    // Firmware: the aP issues one COLL_START and waits; the whole tree
    // protocol runs sP-to-sP.
    let (t_ex, results, ap_ex, _) = run_with_occupancy(n, |lib, i| {
        Box::new(AllReduce::new(lib, ReduceOp::Sum, i as u64 + 1))
    });
    assert!(results.iter().all(|&v| v == want));

    let (t_ba, results, ap_ba, _) = run_with_occupancy(n, |lib, i| {
        Box::new(BasicAllReduce::new(lib, ReduceOp::Sum, i as u64 + 1))
    });
    assert!(results.iter().all(|&v| v == want));

    let (t_fw, results, ap_fw, sp_ns) = run_with_occupancy(n, |lib, i| {
        Box::new(lib.coll_program(vec![CollReq::allreduce(CollOp::Sum, i as u64 + 1)]))
    });
    assert!(results.iter().all(|&v| v == want));

    println!("\n{n}-node allreduce(sum of 1..={n}) = {want}, three implementations:");
    println!(
        "  aP-driven, Express messages: {:>7.1} us  ({ap_ex:.0} aP mem-ops/node)",
        t_ex as f64 / 1000.0
    );
    println!(
        "  aP-driven, Basic messages:   {:>7.1} us  ({ap_ba:.0} aP mem-ops/node)",
        t_ba as f64 / 1000.0
    );
    println!(
        "  NIC-resident (sP firmware):  {:>7.1} us  ({ap_fw:.0} aP mem-ops/node, {sp_ns} ns sP coll time/node)",
        t_fw as f64 / 1000.0
    );

    let (t, results) = run_collective(n, |lib, i| {
        Box::new(lib.coll_program(vec![CollReq::reduce(
            CollOp::Max,
            0,
            [17u64, 99, 23, 4][i as usize % 4],
        )]))
    });
    println!(
        "\n{n}-node firmware reduce(max) to rank 0: {:.1} us -> root got {}",
        t as f64 / 1000.0,
        results[0]
    );

    println!(
        "\naP-driven collectives burn every aP for the whole collective; the\n\
         firmware engine needs one uncached store in and one message out per aP,\n\
         with fan-in/fan-out sequenced entirely on the sPs (14-byte tree messages\n\
         over the fat tree's own 4-ary recursion)."
    );
}
