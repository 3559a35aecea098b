//! Run-loop equivalence: the idle-skipping event loop — on one shard or
//! sharded across worker threads — must be bit-identical to the
//! cycle-stepped oracle. Everything measured in this repository rests on
//! that equivalence.

use voyager::api::{BasicMsg, RecvBasic, RecvExpress, SendBasic, SendExpress};
use voyager::{Machine, MachineBuilder, Parallelism, RunOutcome, ShardPolicy};

/// The workload from the determinism suite: 4 nodes, all-to-all Basic
/// messages, 8 rounds.
fn load_all_to_all(m: &mut Machine) {
    for i in 0..4u16 {
        let lib = m.lib(i);
        let items: Vec<BasicMsg> = (0..8u16)
            .flat_map(|r| (0..4u16).filter(|&d| d != i).map(move |d| (r, d)))
            .map(|(r, d)| BasicMsg::new(lib.user_dest(d), vec![r as u8; 24]))
            .collect();
        m.load_program(
            i,
            voyager::app::Seq::new(vec![
                Box::new(SendBasic::new(&lib, items)),
                Box::new(RecvBasic::expecting(&lib, 24)),
            ]),
        );
    }
}

/// Full observable fingerprint of a finished machine: quiescence time,
/// per-node event logs, received messages, and node 0's rendered trace
/// (which timestamps every load, store, bus completion and packet).
type Fingerprint = (
    u64,
    Vec<Vec<(u64, String)>>,
    Vec<Vec<(u16, Vec<u8>)>>,
    String,
);

fn fingerprint(m: &Machine, t: u64) -> Fingerprint {
    let n = m.nodes.len() as u16;
    let logs = (0..n)
        .map(|i| {
            m.events(i)
                .iter()
                .map(|e| (e.at.ns(), format!("{:?}", e.kind)))
                .collect()
        })
        .collect();
    let msgs = (0..n)
        .map(|i| {
            m.received_messages(i)
                .into_iter()
                .map(|(s, d)| (s, d.to_vec()))
                .collect()
        })
        .collect();
    (t, logs, msgs, m.trace(0, None))
}

fn run_mode(builder: MachineBuilder, load: impl Fn(&mut Machine)) -> Fingerprint {
    let mut m = builder.tracing(0).build();
    load(&mut m);
    let t = m.run_to_quiescence().ns();
    fingerprint(&m, t)
}

#[test]
fn event_loop_matches_cycle_stepped() {
    let stepped = run_mode(Machine::builder(4).cycle_stepped(), load_all_to_all);
    let event = run_mode(Machine::builder(4), load_all_to_all);
    assert_eq!(stepped.0, event.0, "quiescence time");
    assert_eq!(stepped, event, "full fingerprint");
}

#[test]
fn parallel_shards_match_sequential() {
    let seq = run_mode(
        Machine::builder(4).parallelism(Parallelism::Sequential),
        load_all_to_all,
    );
    for workers in [2, 3, 4] {
        for policy in [ShardPolicy::BySubtree, ShardPolicy::RoundRobin] {
            let par = run_mode(
                Machine::builder(4)
                    .parallelism(Parallelism::Fixed(workers))
                    .shard_policy(policy),
                load_all_to_all,
            );
            assert_eq!(seq, par, "workers = {workers}, policy = {policy:?}");
        }
    }
}

#[test]
fn modes_agree_on_the_ideal_network() {
    let load = |m: &mut Machine| {
        let l0 = m.lib(0);
        let l1 = m.lib(1);
        m.load_program(0, SendBasic::to_node(&l0, 1, vec![7u8; 40]));
        m.load_program(1, RecvBasic::expecting(&l1, 1));
    };
    let stepped = run_mode(Machine::builder(2).ideal_network(100).cycle_stepped(), load);
    let event = run_mode(Machine::builder(2).ideal_network(100), load);
    let par = run_mode(
        Machine::builder(2)
            .ideal_network(100)
            .parallelism(Parallelism::Fixed(2)),
        load,
    );
    assert_eq!(stepped, event);
    assert_eq!(event, par);
}

#[test]
fn modes_agree_on_express_traffic() {
    let load = |m: &mut Machine| {
        let l0 = m.lib(0);
        let l1 = m.lib(1);
        let items = (0..12u32)
            .map(|i| (l0.express_dest(1), i as u8, i * 3))
            .collect();
        m.load_program(0, SendExpress::new(&l0, items));
        m.load_program(1, RecvExpress::expecting(&l1, 12));
    };
    let stepped = run_mode(Machine::builder(2).cycle_stepped(), load);
    let event = run_mode(Machine::builder(2), load);
    let par = run_mode(Machine::builder(2).parallelism(Parallelism::Fixed(2)), load);
    assert_eq!(stepped, event);
    assert_eq!(event, par);
}

#[test]
fn run_for_advances_identically() {
    // Advance in awkward uneven slices; every mode must land on the same
    // cycle with the same state at every slice boundary.
    let mut machines = [
        Machine::builder(4).cycle_stepped().build(),
        Machine::builder(4)
            .parallelism(Parallelism::Sequential)
            .build(),
        Machine::builder(4)
            .parallelism(Parallelism::Fixed(3))
            .build(),
    ];
    for m in &mut machines {
        load_all_to_all(m);
    }
    for ns in [1u64, 17, 1_000, 33_333, 500_000] {
        for m in &mut machines {
            m.run_for(ns);
        }
        let t0 = machines[0].now.ns();
        assert_eq!(t0, machines[1].now.ns(), "slice {ns}");
        assert_eq!(t0, machines[2].now.ns(), "slice {ns}");
    }
    let fps: Vec<_> = machines
        .iter_mut()
        .map(|m| {
            let t = m.run_to_quiescence().ns();
            fingerprint(m, t)
        })
        .collect();
    assert_eq!(fps[0], fps[1]);
    assert_eq!(fps[1], fps[2]);
}

#[test]
fn hang_reports_identical_cap_time() {
    // A receiver waiting for a message nobody sends polls forever: the
    // capped run must report the hang at the same simulated time in every
    // mode, through RunOutcome and the legacy Result alike.
    let hung_at = |builder: MachineBuilder| {
        let mut m = builder.build();
        let lib = m.lib(1);
        m.load_program(1, RecvBasic::expecting(&lib, 1));
        match m.run_capped(200_000) {
            RunOutcome::Hung(t) => t.ns(),
            RunOutcome::Quiesced(t) => panic!("unexpected quiescence at {t}"),
        }
    };
    let stepped = hung_at(Machine::builder(4).cycle_stepped());
    assert_eq!(stepped, hung_at(Machine::builder(4)));
    assert_eq!(
        stepped,
        hung_at(Machine::builder(4).parallelism(Parallelism::Fixed(4)))
    );
}

#[test]
fn a_compute_past_the_end_of_time_parks_the_program() {
    // Regression: a `Step::Compute` ending past `u64::MAX` ns overflowed
    // the compute counter and the CPU's deadline ("attempt to add with
    // overflow" in debug builds; in release the deadline wrapped and
    // the CPU resumed at once). It now parks the program until the end
    // of time: the run hangs at its cap with the same statistics in every
    // mode (the run loop's own work counters aside).
    let hung = |builder: MachineBuilder| {
        let mut m = builder.build();
        m.load_program(
            0,
            voyager::app::Seq::new(vec![
                Box::new(voyager::app::Delay(5)),
                Box::new(voyager::app::Delay(u64::MAX)),
            ]),
        );
        let RunOutcome::Hung(t) = m.run_capped(20_000) else {
            panic!("a parked program cannot finish");
        };
        let mut s = m.stats();
        (
            s.run.node_ticks,
            s.run.skipped_node_ticks,
            s.run.wake_republishes,
        ) = (0, 0, 0);
        (t.ns(), s.to_json())
    };
    let oracle = hung(Machine::builder(2).cycle_stepped());
    assert!(oracle.0 > 20_000, "hung at the cap, not before");
    assert!(oracle.1.contains("\"compute_ns\":18446744073709551615"));
    for par in [Parallelism::Sequential, Parallelism::Fixed(2)] {
        assert!(
            hung(Machine::builder(2).parallelism(par)) == oracle,
            "{par:?}"
        );
    }
}

/// Staggered pairs at 64 nodes: most nodes idle at any instant — the
/// wake index's target regime. Shared by the fingerprint and the stats
/// determinism tests below.
fn load_staggered_pairs(m: &mut Machine) {
    const STAGGER_NS: u64 = 2_000;
    for k in 0..32u16 {
        let (a, b) = (2 * k, 2 * k + 1);
        let lib_a = m.lib(a);
        let lib_b = m.lib(b);
        let msgs = (0..2u16)
            .map(|r| BasicMsg::new(lib_a.user_dest(b), vec![r as u8; 16]))
            .collect();
        m.load_program(
            a,
            voyager::app::Seq::new(vec![
                Box::new(voyager::app::Delay(k as u64 * STAGGER_NS)),
                Box::new(SendBasic::new(&lib_a, msgs)),
            ]),
        );
        m.load_program(
            b,
            voyager::app::Seq::new(vec![
                Box::new(voyager::app::Delay(k as u64 * STAGGER_NS)),
                Box::new(RecvBasic::expecting(&lib_b, 2)),
            ]),
        );
    }
}

/// At a scale where a stale or late wake in the sharded per-worker
/// indexes would surface, fingerprint every node's events, messages and
/// node 0's trace across all three modes.
#[test]
fn modes_agree_at_64_nodes() {
    let load = load_staggered_pairs;
    let stepped = run_mode(Machine::builder(64).cycle_stepped(), load);
    let event = run_mode(Machine::builder(64), load);
    assert_eq!(stepped, event, "event vs stepped at 64 nodes");
    for workers in [2, 5, 8] {
        for policy in [ShardPolicy::BySubtree, ShardPolicy::RoundRobin] {
            let par = run_mode(
                Machine::builder(64)
                    .parallelism(Parallelism::Fixed(workers))
                    .shard_policy(policy),
                load,
            );
            assert_eq!(event, par, "workers = {workers}, policy = {policy:?}");
        }
    }
}

/// The full stats snapshot — every counter in the machine, rendered to
/// JSON — is byte-identical across worker counts and shard policies on
/// the 64-node staggered-pairs workload. Latency sampling is on, so the
/// per-class Summaries (the only stats with per-packet metadata) are
/// covered too. This is the observability layer's determinism contract:
/// the run-loop counters deliberately exclude anything that varies with
/// sharding (priming and full-scan republishes).
#[test]
fn stats_snapshot_identical_across_worker_counts() {
    let snap = |par: Parallelism, policy: ShardPolicy| {
        let mut m = Machine::builder(64)
            .parallelism(par)
            .shard_policy(policy)
            .sample_latency(true)
            .build();
        load_staggered_pairs(&mut m);
        m.run_to_quiescence();
        m.stats().to_json()
    };
    let seq = snap(Parallelism::Sequential, ShardPolicy::BySubtree);
    assert!(
        seq.contains("\"latency_sum_cycles\":"),
        "sampled latencies present"
    );
    for workers in [1, 2, 5, 8] {
        for policy in [ShardPolicy::BySubtree, ShardPolicy::RoundRobin] {
            assert_eq!(
                seq,
                snap(Parallelism::Fixed(workers), policy),
                "workers = {workers}, policy = {policy:?}"
            );
        }
    }
}

/// Ablation A1's configuration: queues past the 12 bound hardware slots
/// divert through node 1's miss queue to the firmware. The cycle-stepped
/// oracle, `Sequential` and `Fixed(2)` must agree on the stats, with
/// every message served by a hardware hit or the firmware. The oracle
/// used to stop while that queue still held messages, because
/// quiescence did not count it as work although the wake computation
/// did.
#[test]
fn modes_agree_while_the_miss_queue_drains() {
    use voyager::workloads::{load_rxq_spray, RXQ_MSGS_PER_QUEUE};
    for k in [16, 48] {
        let run = |b: MachineBuilder| {
            let mut m = b.build();
            load_rxq_spray(&mut m, k);
            m.run_to_quiescence();
            let served =
                m.nodes[1].niu.ctrl.rx_cache.hits.get() + m.nodes[1].fw.stats.miss_msgs.get();
            assert_eq!(
                served,
                (RXQ_MSGS_PER_QUEUE * k) as u64,
                "k = {k}: messages served"
            );
            // The run counters measure the loop itself, not the model.
            let mut s = m.stats();
            s.run.node_ticks = 0;
            s.run.skipped_node_ticks = 0;
            s.run.wake_republishes = 0;
            s.to_json()
        };
        let stepped = run(Machine::builder(2).cycle_stepped());
        assert_eq!(
            stepped,
            run(Machine::builder(2).parallelism(Parallelism::Sequential)),
            "k = {k}: sequential"
        );
        assert_eq!(
            stepped,
            run(Machine::builder(2).parallelism(Parallelism::Fixed(2))),
            "k = {k}: Fixed(2)"
        );
    }
}

#[test]
fn phased_sends_resume_cleanly() {
    // Regression for the SendBasic::resuming consumer-shadow estimate: a
    // send resumed at a producer position below the queue depth must
    // deliver correctly (and without the spurious initial shadow poll the
    // old wrap-around arithmetic forced — asserted directly in the api
    // unit tests).
    let mut m = Machine::builder(2).build();
    let l0 = m.lib(0);
    let l1 = m.lib(1);
    m.load_program(0, SendBasic::to_node(&l0, 1, vec![0u8; 8]));
    m.load_program(1, RecvBasic::expecting(&l1, 1));
    m.run_to_quiescence();
    for phase in 1..4u16 {
        let msg = BasicMsg::new(l0.user_dest(1), vec![phase as u8; 8]);
        m.load_program(0, SendBasic::resuming(&l0, vec![msg], phase));
        m.load_program(1, RecvBasic::resuming(&l1, 1, phase));
        m.run_to_quiescence();
    }
    let msgs = m.received_messages(1);
    assert_eq!(msgs.len(), 4);
    for (phase, (_, data)) in msgs.iter().enumerate() {
        assert_eq!(data[..], [phase as u8; 8][..], "phase {phase}");
    }
}

#[test]
fn api_errors_are_reported_not_panicked() {
    use voyager::ApiError;
    let m = Machine::builder(2).build();
    let lib = m.lib(0);
    assert!(matches!(
        BasicMsg::try_new(1, vec![0u8; 89]),
        Err(ApiError::PayloadTooLarge { len: 89, max: 88 })
    ));
    assert!(BasicMsg::try_new(1, vec![0u8; 88]).is_ok());
    assert!(matches!(
        BasicMsg::new(1, vec![0u8; 8]).try_with_tagon(vec![0u8; 47]),
        Err(ApiError::BadTagOnSize { len: 47 })
    ));
    assert!(matches!(
        BasicMsg::new(1, vec![0u8; 20]).try_with_tagon(vec![0u8; 80]),
        Err(ApiError::MessageTooLarge {
            payload: 20,
            tagon: 80,
            max: 88
        })
    ));
    assert!(BasicMsg::new(1, vec![0u8; 8])
        .try_with_tagon(vec![0u8; 48])
        .is_ok());
    assert!(matches!(
        SendBasic::try_to_node(&lib, 2, vec![0u8; 8]),
        Err(ApiError::DestinationOutOfRange { dest: 2, nodes: 2 })
    ));
    assert!(SendBasic::try_to_node(&lib, 1, vec![0u8; 8]).is_ok());
    // The error type renders usable diagnostics.
    let e = BasicMsg::try_new(1, vec![0u8; 120]).unwrap_err();
    assert!(e.to_string().contains("88"), "{e}");
}

#[test]
#[should_panic(expected = "Basic payload is at most 88 bytes")]
fn panicking_constructor_still_panics() {
    let _ = BasicMsg::new(1, vec![0u8; 89]);
}

/// A cache level with no sets (zero ways, or fewer lines than ways)
/// could index no address: the builder refuses it, naming the level.
#[test]
fn bad_cache_geometry_is_a_typed_error_at_each_level() {
    use voyager::membus::CacheParams;
    use voyager::{ApiError, SystemParams};
    let bad = [
        CacheParams {
            ways: 0,
            ..CacheParams::l1_604e()
        },
        CacheParams {
            size_bytes: 64,
            ways: 4,
            ..CacheParams::l1_604e()
        },
    ];
    for geometry in bad {
        for level in [1u8, 2] {
            let mut p = SystemParams::default();
            *(if level == 1 { &mut p.l1 } else { &mut p.l2 }) = geometry;
            let Err(e) = Machine::builder(2).params(p).try_build() else {
                panic!("L{level} {geometry:?} accepted");
            };
            assert_eq!(e, ApiError::BadCacheGeometry { level });
            assert!(e.to_string().starts_with(&format!("L{level} ")), "{e}");
        }
    }
}

#[test]
fn invalid_parallelism_is_a_typed_error() {
    use voyager::ApiError;
    assert!(matches!(
        Machine::builder(4)
            .parallelism(Parallelism::Fixed(0))
            .try_build(),
        Err(ApiError::WorkerCountZero)
    ));
    assert!(matches!(
        Machine::builder(4)
            .parallelism(Parallelism::Fixed(7))
            .try_build(),
        Err(ApiError::WorkersExceedShards {
            workers: 7,
            shards: 4
        })
    ));
    // The errors render actionable diagnostics.
    let Err(e) = Machine::builder(4)
        .parallelism(Parallelism::Fixed(0))
        .try_build()
    else {
        panic!("Fixed(0) accepted")
    };
    assert!(e.to_string().contains("Sequential"), "{e}");
    let Err(e) = Machine::builder(4)
        .parallelism(Parallelism::Fixed(7))
        .try_build()
    else {
        panic!("Fixed(7) accepted at 4 nodes")
    };
    assert!(e.to_string().contains('7'), "{e}");
}

#[test]
#[should_panic(expected = "Parallelism::Fixed(0)")]
fn invalid_parallelism_panics_through_build() {
    let _ = Machine::builder(4)
        .parallelism(Parallelism::Fixed(0))
        .build();
}

#[test]
fn parallelism_accessors_expose_the_resolved_plan() {
    let m = Machine::builder(64)
        .parallelism(Parallelism::Fixed(5))
        .shard_policy(ShardPolicy::RoundRobin)
        .build();
    assert_eq!(m.parallelism(), Parallelism::Fixed(5));
    assert_eq!(m.shard_policy(), ShardPolicy::RoundRobin);
    assert_eq!(m.workers(), 5);
    assert!(!m.is_cycle_stepped());
    // RoundRobin deals nodes across exactly `workers` shards.
    assert_eq!(m.shard_count(), 5);

    // BySubtree shards are aligned fat-tree subtrees: 64 nodes at 2
    // workers coarsen to 4-leaf-group (16-node) subtrees.
    let m = Machine::builder(64)
        .parallelism(Parallelism::Fixed(2))
        .build();
    assert_eq!(m.shard_policy(), ShardPolicy::BySubtree);
    assert_eq!(m.shard_count(), 4);

    let m = Machine::builder(2).build();
    assert_eq!(m.parallelism(), Parallelism::Sequential);
    assert_eq!(m.workers(), 1);

    // `parallelism` configures the event loop only: it leaves the
    // stepped oracle selected whichever of the two calls comes first.
    let m = Machine::builder(2)
        .cycle_stepped()
        .parallelism(Parallelism::Sequential)
        .build();
    assert!(m.is_cycle_stepped());
    let m = Machine::builder(2)
        .parallelism(Parallelism::Fixed(2))
        .cycle_stepped()
        .build();
    assert!(m.is_cycle_stepped());
    assert_eq!(m.workers(), 2);
}

/// The fabric picks the subtree level `BySubtree` shards at: the tree
/// coarsens until cross-shard traffic spans two lookahead windows, and
/// the ideal pipe, with no hops to exploit, keeps the worker-balance
/// level. Each point is `(nodes, workers, tree shards, pipe shards)`.
#[test]
fn shard_maps_on_both_fabrics() {
    for (nodes, workers, tree, pipe) in [
        (8, 2, 2, 8),
        (16, 4, 4, 16),
        (64, 2, 4, 4),
        (64, 4, 16, 16),
        (256, 2, 4, 4),
    ] {
        let b = || Machine::builder(nodes).parallelism(Parallelism::Fixed(workers));
        assert_eq!(
            (
                b().build().shard_count(),
                b().ideal_network(100).build().shard_count()
            ),
            (tree, pipe),
            "{nodes} nodes, {workers} workers"
        );
    }
}

/// One worker is one shard — `Sequential` and `Fixed(1)` alike, under
/// either policy and at any size — so the single-threaded event loop
/// never pays for a partition it cannot run in parallel. The 1024-node
/// machines are the costly part: each peaks near 1.1 GB in a debug
/// build, so they are built one at a time and dropped before the next.
#[test]
fn sequential_runs_one_shard() {
    for n in [64, 1024] {
        for par in [Parallelism::Sequential, Parallelism::Fixed(1)] {
            for policy in [ShardPolicy::BySubtree, ShardPolicy::RoundRobin] {
                let m = Machine::builder(n)
                    .parallelism(par)
                    .shard_policy(policy)
                    .build();
                assert_eq!(m.shard_count(), 1, "{n} nodes, {par:?}, {policy:?}");
            }
        }
    }
}

/// `Parallelism::Auto` sizes the pool from the host's available
/// parallelism, clamped to the node count.
#[test]
fn auto_parallelism_reads_the_environment() {
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    let m = Machine::builder(64).parallelism(Parallelism::Auto).build();
    assert_eq!(m.workers(), host.min(64));
    assert_eq!(m.parallelism(), Parallelism::Auto);
    // Clamped to the node count.
    let m = Machine::builder(1).parallelism(Parallelism::Auto).build();
    assert_eq!(m.workers(), 1);
    // And the Auto machine still reproduces the sequential run exactly.
    let auto = run_mode(
        Machine::builder(4).parallelism(Parallelism::Auto),
        load_all_to_all,
    );
    let seq = run_mode(
        Machine::builder(4).parallelism(Parallelism::Sequential),
        load_all_to_all,
    );
    assert_eq!(auto, seq);
}

/// A panic inside a program reaches the caller of `run()` under every
/// plan. The probe is a 256-node ring (the `window_cost` order,
/// `97·k mod n`, 4 rounds) in which node 85 panics after its last round.
/// Node 85 sits in a shard that a pool thread owns under both `Fixed(2)`
/// (shard 1 of 4) and `Fixed(4)` (shard 5 of 16), so the panic is raised
/// off the scheduler thread. Each run gets a watchdog thread, so a
/// `run()` that never returns (a shard that never comes back) fails the
/// test by timeout instead of hanging the suite.
#[test]
fn a_program_panic_reaches_the_caller_under_every_plan() {
    use std::time::Duration;
    use voyager::app::{Delay, Env, FnProgram, Seq, Step};
    use voyager::Program;

    const NODES: usize = 256;
    const PANICKER: u16 = 85;
    const MESSAGE: &str = "node 85 gave up after its last round";
    let probe = |par: Parallelism| {
        let mut m = Machine::builder(NODES)
            .parallelism(par)
            .shard_policy(ShardPolicy::BySubtree)
            .build();
        let shards = m.shard_count();
        let threads = m.workers().min(shards);
        let shard = PANICKER as usize / (NODES / shards);
        assert!(
            par == Parallelism::Sequential || !shard.is_multiple_of(threads),
            "{par:?}: node {PANICKER} is in shard {shard} of {shards}, run by the scheduler thread"
        );
        let order = |k: usize| (97 * k % NODES) as u16;
        for k in 0..NODES {
            let (node, next) = (order(k), order(k + 1));
            let lib = m.lib(node);
            let mut parts: Vec<Box<dyn Program>> = Vec::new();
            for r in 0..4u16 {
                let msg = BasicMsg::new(lib.user_dest(next), vec![r as u8; 16]);
                parts.push(Box::new(Delay(50_000)));
                parts.push(Box::new(SendBasic::resuming(&lib, vec![msg], r)));
                parts.push(Box::new(RecvBasic::resuming(&lib, 1, r)));
            }
            if node == PANICKER {
                parts.push(Box::new(FnProgram(|_: &mut Env<'_>| -> Step {
                    panic!("{MESSAGE}")
                })));
            }
            m.load_program(node, Seq::new(parts));
        }
        let _ = m.run();
    };
    for par in [
        Parallelism::Sequential,
        Parallelism::Fixed(2),
        Parallelism::Fixed(4),
    ] {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let message = std::panic::catch_unwind(|| probe(par)).err().map(|p| {
                let text = p.downcast_ref::<&str>().map(|s| s.to_string());
                text.or_else(|| p.downcast_ref::<String>().cloned())
            });
            let _ = tx.send(message.flatten());
        });
        let message = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{par:?}: run() still blocked after 30 s"));
        assert_eq!(message.as_deref(), Some(MESSAGE), "{par:?}");
    }
}
