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
//! Results are printed as tables and written machine-readable to
//! `BENCH_simspeed.json` (simulated ns and bus cycles per wall second,
//! per loop mode and node count).
//!
//! Usage: `simspeed [--nodes N] [--faults] [--collectives]
//! [--hotspot] [--checkpoint-every C] [--delta-every C] [--restore FILE]
//! [--artifacts-dir DIR]` — with `--nodes` only the
//! sweep entry for `N` runs (the CI smoke configuration), and no report
//! is written; without arguments every table runs and the report is
//! rewritten whole. The
//! staggered-pair workload is [`voyager::workloads::load_staggered_pairs`];
//! `tests/stats_golden.rs` pins its 64-node counter snapshot. With
//! `--faults`, the bin instead runs only the fault-injection smoke: the
//! staggered-pair workload over a lossy, duplicating, corrupting,
//! reordering fabric with the reliable-delivery layer armed, asserting
//! zero payload loss, engaged recovery, and byte-identical stats between
//! the sequential and parallel event loops. With `--collectives`, the
//! bin runs only the firmware-collectives smoke: barrier + all-reduce +
//! broadcast sequenced NIC-side on every node, asserting exact results
//! and byte-identical stats across loop modes, then printing the
//! three-way all-reduce latency/occupancy comparison at that size.
//! With `--hotspot`, the bin runs only the Arctic QoS smoke: the incast
//! workload with virtual channels armed, asserting that 2 VCs cut the
//! High-class tail latency below the 1-VC head-of-line-blocking
//! baseline, that credit stalls engage, and that stats stay
//! byte-identical between the sequential and parallel event loops with
//! QoS and a hostile fabric armed together. With `--tenants`, the bin
//! runs only the multi-tenant serving smoke: the S10 tenant job mix
//! (latency + bulk + bursty classes and one confined misbehaving tenant
//! per node) under the deterministic per-node scheduler, asserting
//! byte-identical stats between the sequential and parallel event
//! loops, exactly one contained protection violation per node, and
//! printing the rx-queue-cache hit rate and tail-latency split.
//! `--tenant-sweep` runs the full S10 scaling study instead: tenant
//! count per node swept 4→256 on a 16-node machine (override with
//! `--nodes`), printing hit rate, rebinds and the P99 tail split —
//! including the Latency class's isolation — at each point. These are
//! the EXPERIMENTS.md S10 table rows.
//!
//! With `--checkpoint-every C`, the bin instead runs the checkpoint
//! cadence smoke: the staggered-pair workload (at `--nodes`, default
//! 16) snapshotted every `C` bus cycles, asserting that checkpointing
//! never perturbs the run, that a mid-run snapshot restores and
//! finishes with byte-identical stats, and leaving the final snapshot
//! at `BENCH_simspeed_ckpt.bin` under the artifacts directory for
//! `--restore FILE`, which rebuilds a machine from a snapshot file and
//! runs it to quiescence. `--delta-every C` is the incremental twin:
//! one full base snapshot up front, then a *delta* cut every `C` bus
//! cycles ([`Machine::checkpoint_delta`]), asserting non-perturbation,
//! that restoring base + every delta finishes byte-identical to the
//! uninterrupted run, and that a cadence delta is at least 10x smaller
//! than a full snapshot of the same machine. The default full run also
//! records paired full-vs-delta snapshot cost (size, save, restore) for
//! 8..1024-node machines in the JSON report.
//!
//! The scratch artifact `BENCH_simspeed_ckpt.bin` lands under `target/`
//! by default; `--artifacts-dir DIR` redirects it. The committed
//! `BENCH_simspeed.json` report stays in the working directory.

use std::io::Write as _;
use std::time::Instant;

use sv_bench::print_table;
use voyager::api::{BasicMsg, CollReq, RecvBasic, SendBasic};
use voyager::app::{AppEventKind, Delay, Seq};
use voyager::collectives::{AllReduce, BasicAllReduce, ReduceOp};
use voyager::firmware::proto::CollOp;
use voyager::workloads::{load_staggered_pairs, PAIR_MSGS, STAGGER_NS};
use voyager::{Machine, MachineBuilder, Parallelism, Program, ShardPolicy};

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

/// Scratch-artifact filename, placed under `--artifacts-dir` (default
/// `target/`).
const CKPT_FILE: &str = "BENCH_simspeed_ckpt.bin";

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

/// Checkpoint cadence smoke (`--checkpoint-every C`): snapshot the
/// staggered-pair run every `C` bus cycles. The donor must finish with
/// stats byte-identical to an uninterrupted reference run (checkpoints
/// are pure observation), and the middle snapshot must restore and
/// finish byte-identically too. The last snapshot is left on disk for
/// `--restore`.
fn checkpoint_every_smoke(n: u16, every_cycles: u64, ckpt_path: &std::path::Path) {
    assert!(every_cycles > 0, "--checkpoint-every takes a cycle count");
    let build = || {
        let mut m = Machine::builder(n.into())
            .parallelism(Parallelism::Sequential)
            .sample_latency(true)
            .build();
        load_staggered_pairs(&mut m);
        m
    };
    let mut reference = build();
    let end_ns = reference.run_to_quiescence().ns();
    let want = reference.stats().to_json();

    // `C` bus cycles of the default 66 MHz clock, in simulated ns.
    let chunk_ns = (every_cycles * 1000).div_ceil(66).max(1);
    let mut m = build();
    let mut snaps: Vec<Vec<u8>> = Vec::new();
    let mut save_s = 0.0f64;
    // Checkpoint at absolute simulated times strictly inside the run,
    // so the harness never pushes `now` past the natural quiescence
    // point (that would legitimately change the final time).
    let mut target = chunk_ns;
    while target < end_ns {
        m.run_for(target.saturating_sub(m.now.ns()));
        let t0 = Instant::now();
        snaps.push(m.checkpoint());
        save_s += t0.elapsed().as_secs_f64();
        target += chunk_ns;
    }
    if snaps.is_empty() {
        snaps.push(m.checkpoint());
    }
    m.run_to_quiescence();
    assert_eq!(m.stats().to_json(), want, "checkpointing perturbed the run");

    let mid = &snaps[snaps.len() / 2];
    let mut r = Machine::builder(1)
        .parallelism(Parallelism::Sequential)
        .restore(mid)
        .expect("restore mid-run snapshot");
    r.run_to_quiescence();
    assert_eq!(r.stats().to_json(), want, "mid-run restore diverged");

    let (lo, hi) = snaps
        .iter()
        .map(Vec::len)
        .fold((usize::MAX, 0), |(l, h), b| (l.min(b), h.max(b)));
    std::fs::write(ckpt_path, snaps.last().expect("at least one snapshot"))
        .expect("write snapshot");
    println!(
        "checkpoint smoke: {n} nodes, {} snapshots every {every_cycles} cycles \
         ({lo}..{hi} bytes, {:.0} us/save); donor and mid-run restore both \
         matched the uninterrupted run; wrote {}",
        snaps.len(),
        save_s / snaps.len() as f64 * 1e6,
        ckpt_path.display(),
    );
}

/// Incremental-checkpoint cadence smoke (`--delta-every C`): one full
/// base snapshot before the run, then a delta cut every `C` bus cycles.
/// Asserts that delta cuts never perturb the donor, that restoring the
/// base plus *every* delta resumes and finishes byte-identical to the
/// uninterrupted run, and that a cadence delta stays at least 10x below
/// a full snapshot of the same machine in bytes — the whole point of
/// dirty tracking.
fn delta_every_smoke(n: u16, every_cycles: u64) {
    assert!(every_cycles > 0, "--delta-every takes a cycle count");
    let build = || {
        let mut m = Machine::builder(n.into())
            .parallelism(Parallelism::Sequential)
            .sample_latency(true)
            .build();
        load_staggered_pairs(&mut m);
        m
    };
    let mut reference = build();
    let end_ns = reference.run_to_quiescence().ns();
    let want = reference.stats().to_json();

    let chunk_ns = (every_cycles * 1000).div_ceil(66).max(1);
    let mut m = build();
    let base = m.checkpoint_delta().into_bytes();
    let mut deltas: Vec<Vec<u8>> = Vec::new();
    let mut save_s = 0.0f64;
    let mut target = chunk_ns;
    while target < end_ns {
        m.run_for(target.saturating_sub(m.now.ns()));
        let t0 = Instant::now();
        match m.checkpoint_delta() {
            voyager::DeltaCheckpoint::Delta(d) => deltas.push(d),
            voyager::DeltaCheckpoint::Base(_) => unreachable!("chain is open"),
        }
        save_s += t0.elapsed().as_secs_f64();
        target += chunk_ns;
    }
    assert!(!deltas.is_empty(), "cadence longer than the whole run");
    // A full snapshot at the last cut, for the size comparison (pure
    // observation; the donor continues unperturbed).
    let full_at_last_cut = m.checkpoint().len();
    m.run_to_quiescence();
    assert_eq!(m.stats().to_json(), want, "delta cuts perturbed the run");

    let mut r = Machine::builder(1)
        .parallelism(Parallelism::Sequential)
        .restore_chain(&base, &deltas)
        .expect("restore base + delta chain");
    r.run_to_quiescence();
    assert_eq!(r.stats().to_json(), want, "chain restore diverged");

    let total: usize = deltas.iter().map(Vec::len).sum();
    let avg = total / deltas.len();
    assert!(
        avg * 10 <= full_at_last_cut,
        "cadence delta not ≥10x below full: avg {avg} vs full {full_at_last_cut} bytes"
    );
    println!(
        "delta smoke: {n} nodes, base {} bytes + {} deltas every {every_cycles} \
         cycles (avg {avg} bytes, {:.0} us/save; full snapshot {full_at_last_cut} \
         bytes, {:.0}x); donor and base+chain restore both matched the \
         uninterrupted run",
        base.len(),
        deltas.len(),
        save_s / deltas.len() as f64 * 1e6,
        full_at_last_cut as f64 / avg as f64,
    );
}

/// `--restore FILE`: rebuild a machine from a snapshot file and run it
/// to quiescence.
fn restore_smoke(path: &str) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let mut m = Machine::builder(1)
        .parallelism(Parallelism::Sequential)
        .restore(&bytes)
        .unwrap_or_else(|e| panic!("restore {path}: {e}"));
    let n = m.stats().nodes.len();
    let at = m.now.ns();
    let t = m.run_to_quiescence();
    println!(
        "restored {n} nodes at {at} ns from {path} ({} bytes); quiesced at {} ns",
        bytes.len(),
        t.ns()
    );
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

/// Fault-injection smoke (`--faults`): the staggered-pair workload over
/// a hostile fabric. The run must finish with every payload delivered
/// exactly once, visible retransmission work, and stats JSON identical
/// between the sequential and windowed-parallel event loops.
fn faults_smoke(n: u16, workers: usize) {
    let faults = voyager::arctic::FaultParams {
        drop_ppm: 60_000,
        dup_ppm: 30_000,
        corrupt_ppm: 25_000,
        reorder_ppm: 40_000,
        seed: 0xFA17_5EED,
    };
    let run = |par: Parallelism| {
        let mut m = Machine::builder(n.into())
            .faults(faults)
            .parallelism(par)
            .build();
        load_staggered_pairs(&mut m);
        let t = m.run_to_quiescence().ns();
        (t, m.stats())
    };
    let (t_ev, s_ev) = run(Parallelism::Sequential);
    let (t_par, s_par) = run(Parallelism::Fixed(workers));
    assert_eq!(t_ev, t_par, "parallel loop must match under faults");
    assert_eq!(
        s_ev.to_json(),
        s_par.to_json(),
        "fault-injected stats must be identical across loop modes"
    );
    let delivered: u64 = s_ev
        .nodes
        .iter()
        .map(|nd| nd.niu.classes[0].delivered)
        .sum();
    let offered = u64::from(n / 2) * u64::from(PAIR_MSGS);
    assert_eq!(delivered, offered, "payloads lost under fault injection");
    let retransmits: u64 = s_ev.nodes.iter().map(|nd| nd.niu.retransmits).sum();
    assert!(retransmits > 0, "fault rates too low to exercise recovery");
    println!(
        "faults smoke: {n} nodes, {} drops + {} corruptions injected, \
         {retransmits} retransmits, {offered}/{offered} payloads delivered",
        s_ev.network.faults_dropped, s_ev.network.faults_corrupted,
    );
}

/// Hot-spot / QoS smoke (`--hotspot`): the incast workload from
/// `voyager::workloads::hot_spot` (every node floods node 0 with
/// Low-class traffic while the last node interleaves High-class
/// probes), run three ways. First the EXPERIMENTS.md S9 isolation
/// gate: with 1 virtual channel (every class in one bounded buffer,
/// the head-of-line-blocking baseline) the probe tail must be
/// measurably worse than with 2 VCs isolating the High class. Then
/// the determinism gate: with VCs *and* a hostile fabric armed, the
/// sequential and windowed-parallel event loops must produce
/// byte-identical stats JSON, credit stalls included.
fn hotspot_smoke(n: u16, workers: usize) {
    use voyager::arctic::{QosParams, VcArbitration};
    let qos_params = |vcs: u8| voyager::SystemParams {
        qos: Some(QosParams {
            vcs,
            credits_per_vc: 2,
            arbitration: VcArbitration::Priority,
        }),
        ..Default::default()
    };
    let (per_sender, hi_probes, payload) = (30u32, 8u32, 88usize);
    let hol = voyager::workloads::hot_spot(qos_params(1), n.into(), per_sender, hi_probes, payload);
    let iso = voyager::workloads::hot_spot(qos_params(2), n.into(), per_sender, hi_probes, payload);
    assert_eq!(hol.hi_count, u64::from(hi_probes));
    assert_eq!(iso.hi_count, u64::from(hi_probes));
    assert!(
        hol.credit_stalls > 0,
        "incast must exhaust 2-credit buffers"
    );
    assert!(
        iso.hi_max_ns < hol.hi_max_ns,
        "2 VCs must cut the High-class tail below the 1-VC baseline \
         (1 VC: {} ns, 2 VCs: {} ns)",
        hol.hi_max_ns,
        iso.hi_max_ns
    );
    let faults = voyager::arctic::FaultParams::hostile(0x5909_5EED);
    let run = |par: Parallelism| {
        let mut m = Machine::builder(n.into())
            .params(qos_params(2))
            .faults(faults)
            .parallelism(par)
            .build();
        voyager::workloads::load_hot_spot(&mut m, per_sender, hi_probes, payload);
        let t = m.run_to_quiescence().ns();
        (t, m.stats())
    };
    let (t_ev, s_ev) = run(Parallelism::Sequential);
    let (t_par, s_par) = run(Parallelism::Fixed(workers));
    assert_eq!(t_ev, t_par, "parallel loop must match under QoS + faults");
    assert_eq!(
        s_ev.to_json(),
        s_par.to_json(),
        "QoS stats must be identical across loop modes"
    );
    let q = s_ev.network.qos.as_ref().expect("QoS armed");
    println!(
        "hotspot smoke: {n} nodes, hi tail {} ns with 1 VC vs {} ns with 2 VCs \
         ({} credit stalls in baseline); faulty-fabric loops identical \
         ({t_ev} ns, {} stalls, {} stall-ns)",
        hol.hi_max_ns, iso.hi_max_ns, hol.credit_stalls, q.credit_stalls, q.credit_stall_ns,
    );
}

/// Multi-tenant serving smoke (`--tenants`): the S10 tenant job mix on
/// an `n`-node machine with tenancy armed — per-node schedulers
/// multiplexing latency/bulk/bursty tenants plus one confined
/// misbehaving tenant. The sequential and windowed-parallel event loops
/// must produce byte-identical stats (per-tenant sections included),
/// each node must contain exactly one protection violation, and the
/// serving metrics (cache hit rate, P99 tail split) are printed for the
/// log.
fn tenants_smoke(n: u16, workers: usize) {
    use voyager::{SchedPolicy, TenancyParams};
    let run = |par: Parallelism| {
        let tenancy = TenancyParams {
            tenants_per_node: 16,
            policy: SchedPolicy::WeightedTimeSlice { quantum_ns: 20_000 },
            confined: Some(5),
        };
        let mut m = Machine::builder(n.into())
            .tenants(tenancy)
            .parallelism(par)
            .build();
        voyager::workloads::load_tenant_mix(&mut m, 8);
        let t = m.run_to_quiescence().ns();
        let out = voyager::workloads::measure_tenant_mix(&m);
        (t, m.stats().to_json(), out)
    };
    let (t_ev, s_ev, out) = run(Parallelism::Sequential);
    let (t_par, s_par, _) = run(Parallelism::Fixed(workers));
    assert_eq!(t_ev, t_par, "parallel loop must match with tenancy armed");
    assert_eq!(
        s_ev, s_par,
        "tenant stats must be identical across loop modes"
    );
    assert!(s_ev.contains("\"per_tenant\":"), "per-tenant rows present");
    assert_eq!(
        out.tx_violations,
        u64::from(n),
        "one contained violation per node"
    );
    assert!(out.rq_hits + out.rq_misses > 0, "tenant traffic flowed");
    assert!(out.rebinds > 0, "miss path exercised");
    println!(
        "tenants smoke: {n} nodes x 16 tenants, loops identical ({t_ev} ns); \
         hit rate {:.1}% ({} hits / {} misses, {} diversions, {} rebinds), \
         p99 {} ns (hit {} ns, miss {} ns; latency class {} ns vs others {} ns), \
         {} violations contained",
        out.hit_rate * 100.0,
        out.rq_hits,
        out.rq_misses,
        out.diversions,
        out.rebinds,
        out.p99_ns,
        out.hit_p99_ns,
        out.miss_p99_ns,
        out.latency_class_p99_ns,
        out.other_class_p99_ns,
        out.tx_violations,
    );
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

/// Firmware-collectives smoke (`--collectives`): barrier + all-reduce +
/// broadcast sequenced NIC-side on every node, run under both the
/// sequential and windowed-parallel event loops. The loops must agree
/// byte-for-byte on the stats, every node must complete all three
/// collectives with the exact expected results, and the three-way
/// all-reduce comparison at this size is printed for the log.
fn collectives_smoke(n: u16, workers: usize) {
    let want_sum: u64 = (1..=u64::from(n)).sum();
    let run = |par: Parallelism| {
        let mut m = Machine::builder(n.into()).parallelism(par).build();
        for i in 0..n {
            let lib = m.lib(i);
            m.load_program(
                i,
                lib.coll_program(vec![
                    CollReq::barrier(),
                    CollReq::allreduce(CollOp::Sum, u64::from(i) + 1),
                    CollReq::broadcast(0, 0xC0FFEE),
                ]),
            );
        }
        let t = m.run_to_quiescence().ns();
        for i in 0..n {
            let vals: Vec<u64> = m
                .events(i)
                .iter()
                .filter_map(|e| match e.kind {
                    AppEventKind::Result { value, .. } => Some(value),
                    _ => None,
                })
                .collect();
            assert_eq!(
                vals,
                vec![0, want_sum, 0xC0FFEE],
                "node {i} collective results"
            );
        }
        (t, m.stats())
    };
    let (t_ev, s_ev) = run(Parallelism::Sequential);
    let (t_par, s_par) = run(Parallelism::Fixed(workers));
    assert_eq!(t_ev, t_par, "parallel loop must match on collectives");
    assert_eq!(
        s_ev.to_json(),
        s_par.to_json(),
        "collective stats must be identical across loop modes"
    );
    for nd in &s_ev.nodes {
        assert_eq!(nd.fw.coll_started, 3, "node {} started", nd.node);
        assert_eq!(nd.fw.coll_completed, 3, "node {} completed", nd.node);
    }
    let r = coll_point(n);
    println!(
        "collectives smoke: {n} nodes, 3 collectives/node, loops identical \
         ({t_ev} ns); allreduce express {} ns ({} aP ops/node), basic {} ns \
         ({} aP ops/node), firmware {} ns ({} aP ops/node, {} ns sP/node)",
        r.express_ns, r.express_apops, r.basic_ns, r.basic_apops, r.fw_ns, r.fw_apops, r.fw_sp_ns,
    );
}

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .clamp(2, 8);
    let args: Vec<String> = std::env::args().collect();
    let only_nodes: Option<u16> = args.iter().position(|a| a == "--nodes").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--nodes takes a node count")
    });
    let artifacts_dir = std::path::PathBuf::from(
        args.iter()
            .position(|a| a == "--artifacts-dir")
            .map(|i| {
                args.get(i + 1)
                    .expect("--artifacts-dir takes a directory")
                    .clone()
            })
            .unwrap_or_else(|| "target".to_string()),
    );
    std::fs::create_dir_all(&artifacts_dir).expect("create artifacts dir");
    if let Some(i) = args.iter().position(|a| a == "--restore") {
        let path = args.get(i + 1).expect("--restore takes a snapshot file");
        restore_smoke(path);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--checkpoint-every") {
        let every = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--checkpoint-every takes a bus-cycle count");
        checkpoint_every_smoke(
            only_nodes.unwrap_or(16),
            every,
            &artifacts_dir.join(CKPT_FILE),
        );
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--delta-every") {
        let every = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--delta-every takes a bus-cycle count");
        delta_every_smoke(only_nodes.unwrap_or(16), every);
        return;
    }
    if args.iter().any(|a| a == "--faults") {
        faults_smoke(only_nodes.unwrap_or(64), workers);
        return;
    }
    if args.iter().any(|a| a == "--collectives") {
        collectives_smoke(only_nodes.unwrap_or(64), workers);
        return;
    }
    if args.iter().any(|a| a == "--hotspot") {
        hotspot_smoke(only_nodes.unwrap_or(16), workers);
        return;
    }
    if args.iter().any(|a| a == "--tenant-sweep") {
        tenant_sweep(only_nodes.unwrap_or(16));
        return;
    }
    if args.iter().any(|a| a == "--tenants") {
        tenants_smoke(only_nodes.unwrap_or(16), workers);
        return;
    }

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

    // A single sweep point is a smoke run: the tables below, and the
    // record that only a full run may write, are not its business.
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
