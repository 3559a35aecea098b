//! Simulation speed: simulated nanoseconds per wall-clock second.
//!
//! Two workloads, two questions:
//!
//! 1. **Synchronized ring** (every node computes for a long gap, then all
//!    exchange at once): how do the cycle-stepped oracle and the
//!    idle-skipping event loop, on one shard and sharded over threads,
//!    compare when the *time* axis is idle-heavy? The event loop must
//!    reproduce the cycle-stepped quiescence time exactly; the bin
//!    asserts it.
//! 2. **Staggered pairs** (one node pair exchanges at a time while every
//!    other node sits in a long delay): how does the event loop scale
//!    with node count when the *space* axis is idle-heavy? This is the
//!    regime the wake-time index targets — work per simulated second is
//!    constant, so a loop that rescans or ticks all `N` nodes per
//!    executed cycle degrades linearly while an indexed loop holds its
//!    rate.
//!
//! Without arguments the bin runs the node-count sweep over staggered
//! pairs, the loop-mode comparison on the ring, full-vs-delta checkpoint
//! cost (size, save, restore) for 8..1024-node machines and the same
//! all-reduce three ways, prints each as a table and rewrites
//! `BENCH_simspeed.json` whole with them (simulated ns and bus cycles
//! per wall second, per loop mode and node count). The staggered-pair
//! workload is [`voyager::workloads::load_staggered_pairs`];
//! `tests/stats_golden.rs` pins its 64-node counter snapshot.
//!
//! Usage: `simspeed [--nodes N] [--tenant-sweep]`. With `--nodes` only
//! the sweep entry for `N` nodes (even, at least 2) runs, and no report
//! is written. `--tenant-sweep` runs the S10 scaling study instead:
//! tenant count per node swept 4→256 on a 16-node machine (override with
//! `--nodes`), printing hit rate, rebinds and the P99 tail split —
//! including the Latency class's isolation — at each point. These are
//! the EXPERIMENTS.md S10 table rows. Any other argument prints the
//! usage line and exits with status 2.

use std::io::Write as _;
use std::time::Instant;

use sv_bench::print_table;
use voyager::api::{BasicMsg, CollReq, RecvBasic, SendBasic};
use voyager::app::{Delay, Seq};
use voyager::collectives::{AllReduce, BasicAllReduce, ReduceOp};
use voyager::firmware::proto::CollOp;
use voyager::workloads::{load_staggered_pairs, PAIR_MSGS, STAGGER_NS};
use voyager::{Machine, MachineBuilder, Parallelism, Program, ShardPolicy};

const USAGE: &str = "usage: simspeed [--nodes N] [--tenant-sweep]";

/// Compute gap between ring rounds, in ns. At 66 MHz this is ~3300 bus
/// cycles of idle per ~2 us of messaging — the regime the event loop
/// is built for.
const GAP_NS: u64 = 50_000;
const ROUNDS: u16 = 30;

/// A ring: each node computes for `GAP_NS`, sends one Basic message to
/// its successor, then receives one from its predecessor, `ROUNDS`
/// times over.
fn load_ring(m: &mut Machine) {
    let n = m.nodes.len() as u16;
    for i in 0..n {
        let lib = m.lib(i);
        let next = (i + 1) % n;
        let mut parts: Vec<Box<dyn Program>> = Vec::new();
        for r in 0..ROUNDS {
            let msg = BasicMsg::new(lib.user_dest(next), vec![r as u8; 16]);
            parts.push(Box::new(Delay(GAP_NS)));
            parts.push(Box::new(SendBasic::resuming(&lib, vec![msg], r)));
            parts.push(Box::new(RecvBasic::resuming(&lib, 1, r)));
        }
        m.load_program(i, Seq::new(parts));
    }
}

/// Run `load` to quiescence; return (simulated ns, wall seconds).
fn measure(builder: MachineBuilder, load: fn(&mut Machine)) -> (u64, f64) {
    let mut m = builder.build();
    load(&mut m);
    let start = Instant::now();
    let t = m.run_to_quiescence();
    (t.ns(), start.elapsed().as_secs_f64())
}

fn fmt_rate(sim_ns: u64, wall_s: f64) -> (f64, String) {
    let rate = sim_ns as f64 / wall_s;
    (rate, format!("{:.1}", rate / 1e6))
}

/// One sweep measurement for the JSON report.
struct SweepRow {
    nodes: u16,
    sim_ns: u64,
    /// Worker count the parallel column ran with (recorded per row so
    /// the report stays honest if the sweep ever varies it).
    workers: usize,
    event_ns_per_s: f64,
    parallel_ns_per_s: f64,
}

/// Bus cycles retired per wall second at the default 66 MHz bus.
fn cycles_per_s(ns_per_s: f64) -> f64 {
    ns_per_s * 66.0 / 1000.0
}

/// Sweep entry at `n` nodes: event and parallel rates on the staggered
/// pair workload, checked bit-identical against the cycle-stepped loop
/// at sizes where stepping is affordable.
fn sweep_point(n: u16, workers: usize) -> SweepRow {
    // Warm up allocator / thread pool effects (parallel, so the warm-up
    // stays cheap at the largest sweep sizes).
    let _ = measure(
        Machine::builder(n.into()).parallelism(Parallelism::Fixed(workers)),
        load_staggered_pairs,
    );
    let (t_ev, w_ev) = measure(
        Machine::builder(n.into()).parallelism(Parallelism::Sequential),
        load_staggered_pairs,
    );
    let (t_par, w_par) = measure(
        Machine::builder(n.into())
            .parallelism(Parallelism::Fixed(workers))
            .shard_policy(ShardPolicy::BySubtree),
        load_staggered_pairs,
    );
    assert_eq!(
        t_ev, t_par,
        "parallel loop must match the event loop ({n} nodes)"
    );
    if n <= 32 {
        let (t_step, _) = measure(
            Machine::builder(n.into()).cycle_stepped(),
            load_staggered_pairs,
        );
        assert_eq!(
            t_step, t_ev,
            "event loop must match cycle-stepped time ({n} nodes)"
        );
    }
    SweepRow {
        nodes: n,
        sim_ns: t_ev,
        workers,
        event_ns_per_s: t_ev as f64 / w_ev,
        parallel_ns_per_s: t_par as f64 / w_par,
    }
}

/// One checkpoint cost measurement for the JSON report: a full snapshot
/// and, one stagger slot later, the delta back to it.
struct CkptPoint {
    nodes: u16,
    bytes: usize,
    save_us: f64,
    restore_us: f64,
    delta_bytes: usize,
    delta_save_us: f64,
    /// Restoring base + one delta (a whole-chain restore, so ≥ the full
    /// restore cost by construction — recorded for honesty).
    delta_restore_us: f64,
    chain_len: usize,
}

/// Snapshot size and save/restore wall cost for an `n`-node machine
/// checkpointed mid-run (half the staggered pairs fired: queues, caches
/// and memory warm), plus the cost of a delta cut one stagger slot
/// later — the "nearby cut" regime incremental snapshots exist for.
fn ckpt_point(n: u16) -> CkptPoint {
    let mut m = Machine::builder(n.into())
        .parallelism(Parallelism::Sequential)
        .build();
    load_staggered_pairs(&mut m);
    m.run_for(u64::from(n / 4) * STAGGER_NS);
    let t0 = Instant::now();
    let bytes = m.checkpoint();
    let save_us = t0.elapsed().as_secs_f64() * 1e6;
    let t1 = Instant::now();
    let r = Machine::builder(1)
        .parallelism(Parallelism::Sequential)
        .restore(&bytes)
        .expect("restore");
    let restore_us = t1.elapsed().as_secs_f64() * 1e6;
    assert_eq!(r.stats().nodes.len(), usize::from(n));
    // Open a delta chain here, advance one stagger slot (one more pair
    // exchanges; everyone else idles) and measure the incremental cut.
    let base = m.checkpoint_delta().into_bytes();
    m.run_for(STAGGER_NS);
    let t2 = Instant::now();
    let delta = match m.checkpoint_delta() {
        voyager::DeltaCheckpoint::Delta(d) => d,
        voyager::DeltaCheckpoint::Base(_) => unreachable!("chain is open"),
    };
    let delta_save_us = t2.elapsed().as_secs_f64() * 1e6;
    let t3 = Instant::now();
    let rc = Machine::builder(1)
        .parallelism(Parallelism::Sequential)
        .restore_chain(&base, &[&delta])
        .expect("restore_chain");
    let delta_restore_us = t3.elapsed().as_secs_f64() * 1e6;
    assert_eq!(rc.stats().nodes.len(), usize::from(n));
    CkptPoint {
        nodes: n,
        bytes: bytes.len(),
        save_us,
        restore_us,
        delta_bytes: delta.len(),
        delta_save_us,
        delta_restore_us,
        chain_len: 1,
    }
}

fn write_json(
    path: &str,
    workers: usize,
    sweep: &[SweepRow],
    ring: &[(u16, u64, f64, f64, f64)],
    ckpt: &[CkptPoint],
    coll: &[CollRow],
) {
    let host_cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"simspeed\",\n");
    s.push_str("  \"unit\": \"per wall-clock second\",\n");
    s.push_str(&format!("  \"parallel_workers\": {workers},\n"));
    s.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    s.push_str(&format!(
        "  \"sweep\": {{\n    \"workload\": \"staggered_pairs\",\n    \"stagger_ns\": {STAGGER_NS},\n    \"msgs_per_pair\": {PAIR_MSGS},\n    \"points\": [\n"
    ));
    for (i, r) in sweep.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"nodes\": {}, \"sim_ns\": {}, \"parallel_workers\": {}, \"event_sim_ns\": {:.0}, \"event_cycles\": {:.0}, \"parallel_sim_ns\": {:.0}, \"parallel_cycles\": {:.0}}}{}\n",
            r.nodes,
            r.sim_ns,
            r.workers,
            r.event_ns_per_s,
            cycles_per_s(r.event_ns_per_s),
            r.parallel_ns_per_s,
            cycles_per_s(r.parallel_ns_per_s),
            if i + 1 == sweep.len() { "" } else { "," },
        ));
    }
    s.push_str("    ]\n  },\n");
    s.push_str(&format!(
        "  \"ring\": {{\n    \"workload\": \"synchronized_ring\",\n    \"gap_ns\": {GAP_NS},\n    \"rounds\": {ROUNDS},\n    \"points\": [\n"
    ));
    for (i, (n, sim_ns, st, ev, par)) in ring.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"nodes\": {n}, \"sim_ns\": {sim_ns}, \"stepped_sim_ns\": {st:.0}, \"stepped_cycles\": {:.0}, \"event_sim_ns\": {ev:.0}, \"event_cycles\": {:.0}, \"parallel_sim_ns\": {par:.0}, \"parallel_cycles\": {:.0}}}{}\n",
            cycles_per_s(*st),
            cycles_per_s(*ev),
            cycles_per_s(*par),
            if i + 1 == ring.len() { "" } else { "," },
        ));
    }
    s.push_str("    ]\n  },\n");
    s.push_str(
        "  \"checkpoint\": {\n    \"workload\": \"staggered_pairs mid-run; delta one stagger slot later\",\n    \"points\": [\n",
    );
    for (i, c) in ckpt.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"nodes\": {}, \"full\": {{\"bytes\": {}, \"save_us\": {:.0}, \"restore_us\": {:.0}}}, \"delta\": {{\"bytes\": {}, \"save_us\": {:.0}, \"restore_us\": {:.0}, \"chain_len\": {}}}}}{}\n",
            c.nodes,
            c.bytes,
            c.save_us,
            c.restore_us,
            c.delta_bytes,
            c.delta_save_us,
            c.delta_restore_us,
            c.chain_len,
            if i + 1 == ckpt.len() { "" } else { "," },
        ));
    }
    s.push_str("    ]\n  },\n");
    s.push_str(
        "  \"collectives\": {\n    \"workload\": \"allreduce of 0..n, three implementations\",\n    \"points\": [\n",
    );
    for (i, r) in coll.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"nodes\": {}, \"express\": {{\"ns\": {}, \"ap_ops_per_node\": {}}}, \"basic\": {{\"ns\": {}, \"ap_ops_per_node\": {}}}, \"firmware\": {{\"ns\": {}, \"ap_ops_per_node\": {}, \"sp_coll_ns_per_node\": {}}}}}{}\n",
            r.nodes,
            r.express_ns,
            r.express_apops,
            r.basic_ns,
            r.basic_apops,
            r.fw_ns,
            r.fw_apops,
            r.fw_sp_ns,
            if i + 1 == coll.len() { "" } else { "," },
        ));
    }
    s.push_str("    ]\n  }\n}\n");
    let mut f = std::fs::File::create(path).expect("create json report");
    f.write_all(s.as_bytes()).expect("write json report");
}

/// The S10 scaling study (`--tenant-sweep`): sweep tenants per node
/// 4→256 on a fixed machine and print, at each point, the rx-queue
/// cache's hit rate and the inject→deliver P99 tail split by cache
/// outcome and by QoS class. The 12-slot managed hardware pool covers
/// small tenant counts; past it, the cache thrashes, misses divert
/// through the firmware service path, and the aggregate tail grows —
/// while the Latency class's high-priority translation bit holds its
/// own P99 down. EXPERIMENTS.md S10 is this table.
fn tenant_sweep(n: u16) {
    use voyager::{SchedPolicy, SystemParams, TenancyParams};
    println!(
        "{:>12} {:>9} {:>9} {:>8} {:>9} {:>9} {:>11} {:>11}",
        "tenants/node",
        "hit rate",
        "rebinds",
        "p99",
        "hit p99",
        "miss p99",
        "latency p99",
        "others p99"
    );
    for tenants in [4u16, 8, 16, 32, 64, 128, 256] {
        let tenancy = TenancyParams {
            tenants_per_node: tenants,
            policy: SchedPolicy::WeightedTimeSlice { quantum_ns: 20_000 },
            confined: None,
        };
        let out = voyager::workloads::tenant_mix(SystemParams::default(), n.into(), tenancy, 6);
        assert!(out.sent_msgs > 0, "mix ran at {tenants} tenants/node");
        println!(
            "{:>12} {:>8.1}% {:>9} {:>8} {:>9} {:>9} {:>11} {:>11}",
            tenants,
            out.hit_rate * 100.0,
            out.rebinds,
            out.p99_ns,
            out.hit_p99_ns,
            out.miss_p99_ns,
            out.latency_class_p99_ns,
            out.other_class_p99_ns,
        );
    }
}

/// One collectives measurement for the JSON report: the same all-reduce
/// three ways (aP-driven over Express, aP-driven over Basic, sP
/// firmware), with the occupancy split that motivates the offload.
struct CollRow {
    nodes: u16,
    express_ns: u64,
    express_apops: u64,
    basic_ns: u64,
    basic_apops: u64,
    fw_ns: u64,
    fw_apops: u64,
    fw_sp_ns: u64,
}

/// Mean aP memory operations and sP collective-handler time per node.
fn coll_occupancy(m: &Machine, n: u16) -> (u64, u64) {
    let s = m.stats();
    let ops: u64 = s.nodes.iter().map(|nd| nd.cpu.loads + nd.cpu.stores).sum();
    let sp: u64 = s.nodes.iter().map(|nd| nd.fw.coll_busy_ns).sum();
    (ops / u64::from(n), sp / u64::from(n))
}

/// All-reduce of `0..n` at `n` nodes, three implementations, on fresh
/// sequential machines: quiescence latency plus the per-node occupancy
/// split for each.
fn coll_point(n: u16) -> CollRow {
    let run = |load: &dyn Fn(&mut Machine, u16)| {
        let mut m = Machine::builder(n.into()).build();
        load(&mut m, n);
        let t = m.run_to_quiescence().ns();
        let (ops, sp) = coll_occupancy(&m, n);
        (t, ops, sp)
    };
    let (express_ns, express_apops, _) = run(&|m, n| {
        for i in 0..n {
            let lib = m.lib(i);
            m.load_program(i, AllReduce::new(&lib, ReduceOp::Sum, u64::from(i)));
        }
    });
    let (basic_ns, basic_apops, _) = run(&|m, n| {
        for i in 0..n {
            let lib = m.lib(i);
            m.load_program(i, BasicAllReduce::new(&lib, ReduceOp::Sum, u64::from(i)));
        }
    });
    let (fw_ns, fw_apops, fw_sp_ns) = run(&|m, n| {
        for i in 0..n {
            let lib = m.lib(i);
            m.load_program(
                i,
                lib.coll_program(vec![CollReq::allreduce(CollOp::Sum, u64::from(i))]),
            );
        }
    });
    CollRow {
        nodes: n,
        express_ns,
        express_apops,
        basic_ns,
        basic_apops,
        fw_ns,
        fw_apops,
        fw_sp_ns,
    }
}

/// The command line: `--nodes N`, and whether `--tenant-sweep` was
/// given; `None` for any other argument, or an `N` that is not an even
/// node count of at least 2.
fn parse_args(mut args: impl Iterator<Item = String>) -> Option<(Option<u16>, bool)> {
    let (mut nodes, mut tenant_sweep) = (None, false);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--nodes" => {
                let n: u16 = args.next()?.parse().ok()?;
                if n < 2 || !n.is_multiple_of(2) {
                    return None;
                }
                nodes = Some(n);
            }
            "--tenant-sweep" => tenant_sweep = true,
            _ => return None,
        }
    }
    Some((nodes, tenant_sweep))
}

fn main() {
    let Some((only_nodes, tenant_sweep_only)) = parse_args(std::env::args().skip(1)) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    if tenant_sweep_only {
        tenant_sweep(only_nodes.unwrap_or(16));
        return;
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .clamp(2, 8);

    // ---- Node-count sweep (idle-heavy staggered pairs) ----
    let sweep_sizes: Vec<u16> = match only_nodes {
        Some(n) => vec![n],
        None => vec![8, 16, 32, 64, 128, 256, 1024, 4096],
    };
    let mut sweep = Vec::new();
    let mut sweep_rows = Vec::new();
    for &n in &sweep_sizes {
        let r = sweep_point(n, workers);
        sweep_rows.push(vec![
            n.to_string(),
            r.sim_ns.to_string(),
            format!("{:.1}", r.event_ns_per_s / 1e6),
            format!("{:.1}", r.parallel_ns_per_s / 1e6),
        ]);
        sweep.push(r);
    }
    print_table(
        &format!("node-count sweep, staggered pairs (sim-Mns per wall-second; {workers} workers)"),
        &["nodes", "sim ns", "event", "parallel"],
        &sweep_rows,
    );

    // A single sweep point prints its row only: the tables below, and
    // the record that only a full run may write, are not its business.
    if only_nodes.is_some() {
        return;
    }

    // ---- Loop-mode comparison on the synchronized ring ----
    let mut ring = Vec::new();
    let mut rows = Vec::new();
    let mut speedup_8 = (0.0f64, 0.0f64);
    for n in [2u16, 8, 32] {
        let _ = measure(Machine::builder(n.into()), load_ring);
        let (t_step, w_step) = measure(Machine::builder(n.into()).cycle_stepped(), load_ring);
        let (t_ev, w_ev) = measure(
            Machine::builder(n.into()).parallelism(Parallelism::Sequential),
            load_ring,
        );
        let (t_par, w_par) = measure(
            Machine::builder(n.into()).parallelism(Parallelism::Fixed(workers)),
            load_ring,
        );
        assert_eq!(
            t_step, t_ev,
            "event loop must match cycle-stepped time ({n} nodes)"
        );
        assert_eq!(
            t_step, t_par,
            "parallel loop must match cycle-stepped time ({n} nodes)"
        );

        let (r_step, s_step) = fmt_rate(t_step, w_step);
        let (r_ev, s_ev) = fmt_rate(t_ev, w_ev);
        let (r_par, s_par) = fmt_rate(t_par, w_par);
        if n == 8 {
            speedup_8 = (r_ev / r_step, r_par / r_step);
        }
        ring.push((n, t_step, r_step, r_ev, r_par));
        rows.push(vec![
            n.to_string(),
            t_step.to_string(),
            s_step,
            s_ev,
            s_par,
            format!("{:.2}x", r_ev / r_step),
            format!("{:.2}x", r_par / r_step),
        ]);
    }
    print_table(
        &format!("simulation speed, idle-heavy ring (sim-Mns per wall-second; {workers} workers)"),
        &[
            "nodes",
            "sim ns",
            "stepped",
            "event",
            "parallel",
            "event/stepped",
            "par/stepped",
        ],
        &rows,
    );
    println!(
        "\n8-node speedup over cycle-stepped: event {:.2}x, parallel {:.2}x",
        speedup_8.0, speedup_8.1
    );

    // ---- Checkpoint size and save/restore cost, full vs delta ----
    let ckpt: Vec<CkptPoint> = [8u16, 16, 32, 64, 256, 1024]
        .iter()
        .map(|&n| ckpt_point(n))
        .collect();
    let ckpt_rows: Vec<Vec<String>> = ckpt
        .iter()
        .map(|c| {
            vec![
                c.nodes.to_string(),
                c.bytes.to_string(),
                format!("{:.0}", c.save_us),
                format!("{:.0}", c.restore_us),
                c.delta_bytes.to_string(),
                format!("{:.0}", c.delta_save_us),
                format!("{:.0}", c.delta_restore_us),
                format!("{:.0}x", c.bytes as f64 / c.delta_bytes as f64),
            ]
        })
        .collect();
    print_table(
        "checkpoint snapshots, staggered pairs mid-run (delta: one stagger slot later)",
        &[
            "nodes",
            "full bytes",
            "save us",
            "restore us",
            "delta bytes",
            "save us",
            "chain restore us",
            "bytes ratio",
        ],
        &ckpt_rows,
    );

    // ---- Collectives: the same all-reduce three ways ----
    let coll: Vec<CollRow> = [4u16, 16, 64, 256].iter().map(|&n| coll_point(n)).collect();
    let coll_rows: Vec<Vec<String>> = coll
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                r.express_ns.to_string(),
                r.express_apops.to_string(),
                r.basic_ns.to_string(),
                r.basic_apops.to_string(),
                r.fw_ns.to_string(),
                r.fw_apops.to_string(),
                r.fw_sp_ns.to_string(),
            ]
        })
        .collect();
    print_table(
        "allreduce, three implementations (latency ns; aP mem-ops and sP coll-ns per node)",
        &[
            "nodes",
            "express ns",
            "aP ops",
            "basic ns",
            "aP ops",
            "firmware ns",
            "aP ops",
            "sP ns",
        ],
        &coll_rows,
    );

    write_json("BENCH_simspeed.json", workers, &sweep, &ring, &ckpt, &coll);
    println!("\nwrote BENCH_simspeed.json");
}
