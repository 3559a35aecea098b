//! Collective-operation integration tests: the aP-driven Express
//! implementations (barrier, broadcast, all-reduce on 2–16 nodes) and
//! the NIC-resident firmware engine, differentially against each other
//! — identical inputs must give identical results, and the firmware
//! path must be byte-deterministic across every run mode with a
//! hostile fabric armed.

use voyager::app::AppEventKind;
use voyager::collectives::{barrier, AllReduce, BasicAllReduce, Broadcast, ReduceOp};
use voyager::Machine;

fn result_of(m: &Machine, node: u16, label: &str) -> u64 {
    m.events(node)
        .iter()
        .find_map(|e| match e.kind {
            AppEventKind::Result { label: l, value } if l == label => Some(value),
            _ => None,
        })
        .unwrap_or_else(|| panic!("node {node} produced no '{label}' result"))
}

#[test]
fn allreduce_sum_over_sizes() {
    for n in [2usize, 4, 8, 16] {
        let mut m = Machine::builder(n).build();
        for i in 0..n as u16 {
            let lib = m.lib(i);
            m.load_program(i, AllReduce::new(&lib, ReduceOp::Sum, (i as u64 + 1) * 10));
        }
        m.run_to_quiescence();
        let want: u64 = (1..=n as u64).map(|i| i * 10).sum();
        for i in 0..n as u16 {
            assert_eq!(result_of(&m, i, "allreduce"), want, "node {i} of {n}");
        }
    }
}

#[test]
fn allreduce_min_max() {
    let values = [42u64, 7, 99, 13];
    for (op, want) in [(ReduceOp::Min, 7u64), (ReduceOp::Max, 99)] {
        let mut m = Machine::builder(4).build();
        for i in 0..4u16 {
            let lib = m.lib(i);
            m.load_program(i, AllReduce::new(&lib, op, values[i as usize]));
        }
        m.run_to_quiescence();
        for i in 0..4u16 {
            assert_eq!(result_of(&m, i, "allreduce"), want);
        }
    }
}

#[test]
fn allreduce_large_values_use_both_halves() {
    let mut m = Machine::builder(2).build();
    let a = 0xDEAD_BEEF_0000_0001u64;
    let b = 0x0000_0001_CAFE_F00Du64;
    for (i, v) in [(0u16, a), (1, b)] {
        let lib = m.lib(i);
        m.load_program(i, AllReduce::new(&lib, ReduceOp::Sum, v));
    }
    m.run_to_quiescence();
    assert_eq!(result_of(&m, 0, "allreduce"), a.wrapping_add(b));
    assert_eq!(result_of(&m, 1, "allreduce"), a.wrapping_add(b));
}

#[test]
fn basic_allreduce_matches_express() {
    // The Basic-message baseline (ROADMAP item 2's comparison point for
    // the firmware engine) computes the same reductions as the Express
    // implementation, just over the general-purpose queue path.
    for n in [2usize, 4, 16] {
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let mut m = Machine::builder(n).build();
            for i in 0..n as u16 {
                let lib = m.lib(i);
                m.load_program(i, BasicAllReduce::new(&lib, op, 1000 + 37 * i as u64));
            }
            m.run_to_quiescence();
            let want = (0..n as u64)
                .map(|i| 1000 + 37 * i)
                .reduce(|a, b| match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Max => a.max(b),
                })
                .unwrap();
            for i in 0..n as u16 {
                assert_eq!(
                    result_of(&m, i, "allreduce_basic"),
                    want,
                    "node {i} of {n}, {op:?}"
                );
            }
        }
    }
}

#[test]
fn barrier_completes_on_sixteen_nodes() {
    let mut m = Machine::builder(16).build();
    for i in 0..16u16 {
        let lib = m.lib(i);
        m.load_program(i, barrier(&lib));
    }
    let t = m.run_to_quiescence();
    assert!(t.ns() > 0 && t.ns() < 1_000_000, "barrier took {t}");
    // A 16-node dissemination needs 4 rounds x 2 express msgs per node.
    assert!(m.network.stats.delivered.get() >= 16 * 4);
}

#[test]
fn broadcast_from_every_root() {
    for n in [2usize, 4, 7, 16] {
        for root in [0u16, (n as u16) - 1, (n as u16) / 2] {
            let mut m = Machine::builder(n).build();
            let secret = 0xABCD_0000 + root as u64;
            for i in 0..n as u16 {
                let lib = m.lib(i);
                m.load_program(i, Broadcast::new(&lib, root, secret));
            }
            m.run_to_quiescence();
            for i in 0..n as u16 {
                assert_eq!(
                    result_of(&m, i, "broadcast"),
                    secret,
                    "node {i}, {n} nodes, root {root}"
                );
            }
        }
    }
}

#[test]
fn barrier_latency_scales_logarithmically() {
    let time_for = |n: usize| {
        let mut m = Machine::builder(n).build();
        for i in 0..n as u16 {
            let lib = m.lib(i);
            m.load_program(i, barrier(&lib));
        }
        m.run_to_quiescence().ns()
    };
    let t2 = time_for(2);
    let t16 = time_for(16);
    // 4 rounds vs 1 round: clearly more, but far less than 8x.
    assert!(t16 > t2, "{t16} !> {t2}");
    assert!(t16 < 8 * t2, "barrier must scale ~log: {t16} vs {t2}");
}

// === NIC-resident (firmware) collectives ===

mod fw {
    use super::*;
    use voyager::api::CollReq;
    use voyager::arctic::FaultParams;
    use voyager::firmware::proto::CollOp;
    use voyager::{Parallelism, ShardPolicy};

    /// The fault suite's hostile fabric with a seed of its own, so the
    /// two suites do not share an RNG stream.
    fn hostile() -> FaultParams {
        FaultParams::hostile(0x0C01_1EC7)
    }

    /// A machine where every node runs the collective program
    /// `reqs_for(node)` through the firmware engine.
    fn fw_machine(
        n: u16,
        reqs_for: impl Fn(u16) -> Vec<CollReq>,
        par: Parallelism,
        policy: ShardPolicy,
        faults: Option<FaultParams>,
    ) -> Machine {
        let mut b = Machine::builder(n as usize)
            .parallelism(par)
            .shard_policy(policy);
        if let Some(f) = faults {
            b = b.faults(f);
        }
        let mut m = b.build();
        for i in 0..n {
            let lib = m.lib(i);
            m.load_program(i, lib.coll_program(reqs_for(i)));
        }
        m
    }

    fn contribution(node: u16) -> u64 {
        0x1000 + 7 * node as u64
    }

    #[test]
    fn firmware_collectives_compute_correct_results() {
        // Includes non-power-of-two sizes (truncated trees) the
        // aP-driven recursive-doubling AllReduce cannot even run.
        for n in [1u16, 2, 4, 5, 16] {
            for root in [0u16, n - 1, n / 2] {
                let sum: u64 = (0..n).map(contribution).sum();
                let min = (0..n).map(contribution).min().unwrap();
                let secret = 0xABCD_0000 + root as u64;
                let mut m = fw_machine(
                    n,
                    |i| {
                        vec![
                            CollReq::barrier(),
                            CollReq::broadcast(root, if i == root { secret } else { 0 }),
                            CollReq::reduce(CollOp::Sum, root, contribution(i)),
                            CollReq::allreduce(CollOp::Min, contribution(i)),
                        ]
                    },
                    Parallelism::Sequential,
                    ShardPolicy::BySubtree,
                    None,
                );
                assert!(m.run().is_quiesced(), "{n} nodes root {root} hung");
                for i in 0..n {
                    let ctx = format!("node {i} of {n}, root {root}");
                    assert_eq!(result_of(&m, i, "coll_barrier"), 0, "{ctx}");
                    assert_eq!(result_of(&m, i, "coll_broadcast"), secret, "{ctx}");
                    let want_red = if i == root { sum } else { 0 };
                    assert_eq!(result_of(&m, i, "coll_reduce"), want_red, "{ctx}");
                    assert_eq!(result_of(&m, i, "coll_allreduce"), min, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn firmware_matches_ap_driven_collectives() {
        // Differential: identical inputs through both implementations.
        for n in [4u16, 16] {
            for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
                let mut ap = Machine::builder(n as usize).build();
                for i in 0..n {
                    let lib = ap.lib(i);
                    ap.load_program(i, AllReduce::new(&lib, op, contribution(i)));
                }
                ap.run_to_quiescence();
                let mut fw = fw_machine(
                    n,
                    |i| vec![CollReq::allreduce(op.into(), contribution(i))],
                    Parallelism::Sequential,
                    ShardPolicy::BySubtree,
                    None,
                );
                fw.run_to_quiescence();
                for i in 0..n {
                    assert_eq!(
                        result_of(&ap, i, "allreduce"),
                        result_of(&fw, i, "coll_allreduce"),
                        "node {i} of {n}, {op:?}"
                    );
                }
            }
            for root in [0u16, n - 1, n / 2] {
                let secret = 0xFEED_0000 + root as u64;
                let mut ap = Machine::builder(n as usize).build();
                for i in 0..n {
                    let lib = ap.lib(i);
                    ap.load_program(i, Broadcast::new(&lib, root, secret));
                }
                ap.run_to_quiescence();
                let mut fw = fw_machine(
                    n,
                    |i| vec![CollReq::broadcast(root, if i == root { secret } else { 0 })],
                    Parallelism::Sequential,
                    ShardPolicy::BySubtree,
                    None,
                );
                fw.run_to_quiescence();
                for i in 0..n {
                    assert_eq!(
                        result_of(&ap, i, "broadcast"),
                        result_of(&fw, i, "coll_broadcast"),
                        "node {i} of {n}, root {root}"
                    );
                }
            }
        }
    }

    /// The ISSUE's differential matrix: byte-identical stats across
    /// every worker count and shard policy with faults armed. The
    /// collective chain is heaviest at small sizes (where the matrix is
    /// cheap) and a single all-reduce at 64/256 nodes.
    #[test]
    fn firmware_collective_stats_byte_identical_across_run_modes() {
        for n in [4u16, 16, 64, 256] {
            let reqs = move |i: u16| {
                if n <= 16 {
                    vec![
                        CollReq::barrier(),
                        CollReq::broadcast(1 % n, 0xB0 + i as u64),
                        CollReq::reduce(CollOp::Max, n - 1, contribution(i)),
                        CollReq::allreduce(CollOp::Sum, contribution(i)),
                    ]
                } else {
                    vec![CollReq::allreduce(CollOp::Sum, contribution(i))]
                }
            };
            let run = |par: Parallelism, policy: ShardPolicy| {
                let mut m = fw_machine(n, reqs, par, policy, Some(hostile()));
                assert!(m.run().is_quiesced(), "{n} nodes {par:?} {policy:?} hung");
                m.stats().to_json()
            };
            let baseline = run(Parallelism::Sequential, ShardPolicy::BySubtree);
            let sum: u64 = (0..n).map(contribution).sum();
            {
                // The baseline run really computed the reduction.
                let mut m = fw_machine(
                    n,
                    reqs,
                    Parallelism::Sequential,
                    ShardPolicy::BySubtree,
                    Some(hostile()),
                );
                m.run_to_quiescence();
                for i in 0..n {
                    assert_eq!(result_of(&m, i, "coll_allreduce"), sum, "node {i} of {n}");
                }
            }
            for policy in [ShardPolicy::BySubtree, ShardPolicy::RoundRobin] {
                for par in [
                    Parallelism::Sequential,
                    Parallelism::Fixed(2),
                    Parallelism::Fixed(5),
                    Parallelism::Auto,
                ] {
                    if let Parallelism::Fixed(w) = par {
                        if w > n as usize {
                            continue; // more workers than shards is a typed error
                        }
                    }
                    assert_eq!(
                        run(par, policy),
                        baseline,
                        "stats diverged: {n} nodes, {par:?}, {policy:?}"
                    );
                }
            }
        }
    }

    /// Acceptance: at 64 nodes the firmware all-reduce completes faster
    /// than the aP-driven recursive-doubling baseline, and the aPs do
    /// almost nothing — their whole contribution is one Basic message
    /// out and one polled receive in.
    #[test]
    fn firmware_allreduce_beats_ap_baseline_at_scale() {
        // The aP-driven baseline is the ROADMAP item 2 one: recursive
        // doubling over Basic messages, every round composing/polling on
        // the aP. (Express recursive doubling is reported alongside in
        // EXPERIMENTS.md S8 — its 2×8-byte packets make it the latency
        // winner by construction on a serialization-bound fabric, but it
        // still burns every aP for the whole collective.)
        let n = 64u16;
        let mut ap = Machine::builder(n as usize).build();
        for i in 0..n {
            let lib = ap.lib(i);
            ap.load_program(i, BasicAllReduce::new(&lib, ReduceOp::Sum, contribution(i)));
        }
        let ap_t = ap.run_to_quiescence().ns();
        let mut fw = fw_machine(
            n,
            |i| vec![CollReq::allreduce(CollOp::Sum, contribution(i))],
            Parallelism::Sequential,
            ShardPolicy::BySubtree,
            None,
        );
        let fw_t = fw.run_to_quiescence().ns();
        let want: u64 = (0..n).map(contribution).sum();
        for i in 0..n {
            assert_eq!(result_of(&ap, i, "allreduce_basic"), want);
            assert_eq!(result_of(&fw, i, "coll_allreduce"), want);
        }
        assert!(
            fw_t < ap_t,
            "firmware all-reduce must beat the aP baseline at {n} nodes: {fw_t} !< {ap_t}"
        );
        // sP occupancy attribution: every node's firmware charged
        // collective time, and the counters balance machine-wide.
        let s = fw.stats();
        let started: u64 = s.nodes.iter().map(|nd| nd.fw.coll_started).sum();
        let completed: u64 = s.nodes.iter().map(|nd| nd.fw.coll_completed).sum();
        let ups: u64 = s.nodes.iter().map(|nd| nd.fw.coll_ups_sent).sum();
        let downs: u64 = s.nodes.iter().map(|nd| nd.fw.coll_downs_sent).sum();
        assert_eq!(started, n as u64);
        assert_eq!(completed, n as u64);
        // Every non-root rank sends exactly one UP; fan-out mirrors it.
        assert_eq!(ups, n as u64 - 1);
        assert_eq!(downs, n as u64 - 1);
        assert!(s.nodes.iter().all(|nd| nd.fw.coll_busy_ns > 0));
    }
}
