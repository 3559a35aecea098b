//! The multi-tenant serving layer's contracts: per-tenant stats are
//! byte-identical across every run mode, worker count and shard policy
//! (with the fault fabric armed); a machine checkpointed mid-mix — full
//! cut or delta chain — resumes to the same final stats; and no tenant
//! can reach another tenant's destinations through the confined queue
//! (the protection-isolation matrix: the masks fold every cross-namespace
//! attempt back into the offender's own slice, and an out-of-slice
//! destination shuts down only the confined queue).

use voyager::arctic::FaultParams;
use voyager::tenancy::{JobBody, StreamItem, CONFINED_TX_Q};
use voyager::workloads::load_tenant_mix;
use voyager::{
    DeltaCheckpoint, Machine, MachineBuilder, Parallelism, SchedPolicy, ShardPolicy, TenancyParams,
    TenantScheduler,
};

/// The hostile fabric of `ckpt.rs`, seed included: retransmit timers
/// and sequence windows are live at any mid-run cut.
fn hostile() -> FaultParams {
    FaultParams::hostile(0xD15E_A5E0)
}

/// The serving mix under test: six tenants per node (latency, bursty,
/// bulk, ... and a confined misbehaving one) under the weighted policy.
fn mix_params() -> TenancyParams {
    TenancyParams {
        tenants_per_node: 6,
        policy: SchedPolicy::WeightedTimeSlice { quantum_ns: 20_000 },
        confined: Some(5),
    }
}

fn with_mode(b: MachineBuilder, mode: Option<Parallelism>) -> MachineBuilder {
    match mode {
        None => b.cycle_stepped(),
        Some(p) => b.parallelism(p),
    }
}

/// Build the 8-node faulted tenant machine, run the job mix, return the
/// full stats JSON (which embeds the per-tenant sections).
fn mix_stats(mode: Option<Parallelism>, policy: ShardPolicy) -> String {
    let b = Machine::builder(8)
        .faults(hostile())
        .tenants(mix_params())
        .shard_policy(policy);
    let mut m = with_mode(b, mode).build();
    load_tenant_mix(&mut m, 6);
    m.run_to_quiescence();
    m.stats().to_json()
}

/// Just the tenancy-owned sections of the stats (machine-level
/// namespace block plus every node's per-tenant rows), for comparisons
/// that cross the cycle-stepped/event boundary where run-loop counters
/// legitimately differ.
fn tenant_sections(mode: Option<Parallelism>) -> String {
    let b = Machine::builder(8).faults(hostile()).tenants(mix_params());
    let mut m = with_mode(b, mode).build();
    load_tenant_mix(&mut m, 6);
    m.run_to_quiescence();
    let s = m.stats();
    format!(
        "{:?} {:?}",
        s.tenancy,
        s.nodes.iter().map(|n| &n.tenants).collect::<Vec<_>>()
    )
}

#[test]
fn tenant_stats_identical_across_worker_counts_and_policies() {
    let want = mix_stats(Some(Parallelism::Sequential), ShardPolicy::BySubtree);
    assert!(want.contains("\"tenancy\":"), "tenancy block present");
    assert!(want.contains("\"per_tenant\":"), "per-tenant rows present");
    for workers in [2, 5, 8] {
        for policy in [ShardPolicy::BySubtree, ShardPolicy::RoundRobin] {
            assert_eq!(
                want,
                mix_stats(Some(Parallelism::Fixed(workers)), policy),
                "workers = {workers}, policy = {policy:?}"
            );
        }
    }
}

#[test]
fn tenant_stats_identical_across_run_modes() {
    // Cycle-stepped vs event-driven vs sharded: the tenancy sections
    // are pure simulation state and must not move at all.
    let stepped = tenant_sections(None);
    let event = tenant_sections(Some(Parallelism::Sequential));
    let sharded = tenant_sections(Some(Parallelism::Fixed(4)));
    assert_eq!(stepped, event, "cycle-stepped vs event");
    assert_eq!(event, sharded, "event vs sharded");
    assert!(stepped.contains("TenancySnapshot"), "sections populated");
}

/// Uninterrupted reference run for the checkpoint tests.
fn baseline(mode: Option<Parallelism>) -> (u64, String) {
    let b = Machine::builder(8).faults(hostile()).tenants(mix_params());
    let mut m = with_mode(b, mode).build();
    load_tenant_mix(&mut m, 6);
    let t = m.run_to_quiescence();
    (t.ns(), m.stats().to_json())
}

#[test]
fn tenant_checkpoint_cut_resumes_identically() {
    for mode in [
        None,
        Some(Parallelism::Sequential),
        Some(Parallelism::Fixed(4)),
    ] {
        let (end_ns, want) = baseline(mode);
        let b = Machine::builder(8).faults(hostile()).tenants(mix_params());
        let mut m = with_mode(b, mode).build();
        load_tenant_mix(&mut m, 6);
        // A third of the way in, schedulers are mid-slice and the muxes
        // can be mid-message; the snapshot must carry all of it.
        m.run_for(end_ns / 3);
        let bytes = m.checkpoint();
        m.run_to_quiescence();
        assert_eq!(m.stats().to_json(), want, "donor diverged, mode {mode:?}");
        let mut r = with_mode(Machine::builder(1), mode)
            .restore(&bytes)
            .expect("restore");
        r.run_to_quiescence();
        assert_eq!(r.stats().to_json(), want, "restore diverged, mode {mode:?}");
    }
}

#[test]
fn tenant_delta_chain_resumes_identically() {
    let (end_ns, want) = baseline(Some(Parallelism::Sequential));
    let mut m = Machine::builder(8)
        .faults(hostile())
        .tenants(mix_params())
        .build();
    load_tenant_mix(&mut m, 6);
    let base = match m.checkpoint_delta() {
        DeltaCheckpoint::Base(b) => b,
        DeltaCheckpoint::Delta(_) => panic!("first cut must be a base"),
    };
    let mut deltas = Vec::new();
    for _ in 0..3 {
        m.run_for(end_ns / 6);
        match m.checkpoint_delta() {
            DeltaCheckpoint::Delta(d) => deltas.push(d),
            DeltaCheckpoint::Base(_) => panic!("chained cut must be a delta"),
        }
    }
    let full_at_cut = m.checkpoint();
    let mut r = Machine::builder(1)
        .restore_chain(&base, &deltas)
        .expect("chain restore");
    assert_eq!(r.checkpoint(), full_at_cut, "chain lands on the full cut");
    r.run_to_quiescence();
    assert_eq!(r.stats().to_json(), want, "chain-restored run diverged");
}

#[test]
fn latency_class_stays_pinned_under_cache_thrash() {
    // 24 tenants per node over the 12 managed hardware slots: the LRU
    // pool thrashes, but the Latency-class tenant's queue is pinned
    // once resident, so it misses at most once (the cold bind) per node
    // and its tail stays in the hit-path bucket while the unpinned
    // classes' tails grow with the divert/miss-service detour.
    let tp = TenancyParams {
        tenants_per_node: 24,
        policy: SchedPolicy::WeightedTimeSlice { quantum_ns: 20_000 },
        confined: None,
    };
    let mut m = Machine::builder(4).tenants(tp).build();
    load_tenant_mix(&mut m, 6);
    m.run_to_quiescence();
    let out = voyager::workloads::measure_tenant_mix(&m);
    assert!(
        out.rebinds > 48,
        "pool thrashed (got {} rebinds)",
        out.rebinds
    );
    assert!(
        out.latency_class_p99_ns < out.other_class_p99_ns,
        "pinned class tail ({}) below unpinned tail ({})",
        out.latency_class_p99_ns,
        out.other_class_p99_ns
    );
    for node in &m.stats().nodes {
        let row = &node.tenants.as_ref().expect("armed").tenants[0];
        assert_eq!(row.class, 1, "tenant 0 is the Latency tenant");
        assert!(
            row.rq_misses <= 1,
            "pinned queue missed {} times (only the cold bind is allowed)",
            row.rq_misses
        );
        assert!(row.rq_hits > 0, "pinned queue served from hardware");
    }
}

/// Regression: the weighted slice scaled its quantum by the tenant's
/// weight with a plain multiply, which overflowed for a quantum past
/// `u64::MAX / 4` (a panic with overflow checks, a near-zero quantum
/// without). A quantum too large to scale never preempts.
#[test]
fn a_huge_weighted_quantum_runs_the_mix_to_quiescence() {
    let tp = TenancyParams {
        policy: SchedPolicy::WeightedTimeSlice {
            quantum_ns: u64::MAX / 2,
        },
        ..mix_params()
    };
    let mut m = Machine::builder(4).tenants(tp).build();
    let scheduled = load_tenant_mix(&mut m, 6);
    m.run_to_quiescence();
    let rows: Vec<_> = m
        .stats()
        .nodes
        .iter()
        .flat_map(|n| n.tenants.as_ref().expect("armed").tenants.clone())
        .collect();
    assert!(rows.iter().all(|t| t.done == 1), "every job ran to its end");
    let sent: u64 = rows.iter().map(|t| t.sent_msgs).sum();
    assert_eq!(sent, scheduled, "every scheduled message went out");
}

#[test]
fn cross_tenant_protection_isolation_matrix() {
    // For every choice of confined tenant c, have c aim a message at
    // every other tenant b's namespace destination through the masked
    // tx queue. The AND/OR masks must fold each attempt back into c's
    // own slice — b's logical queue sees nothing, ever — and a final
    // out-of-slice destination must shut down only the confined queue.
    let tenants = 4u16;
    for c in 0..tenants {
        let tp = TenancyParams {
            tenants_per_node: tenants,
            policy: SchedPolicy::RoundRobin,
            confined: Some(c),
        };
        let mut m = Machine::builder(2).tenants(tp).build();
        let reg = m.tenant_registry().expect("registry");
        let probes: Vec<u16> = (0..tenants).filter(|&b| b != c).collect();
        let jobs: Vec<JobBody> = (0..tenants)
            .map(|t| {
                if t == c {
                    let mut items: std::collections::VecDeque<StreamItem> = probes
                        .iter()
                        // Raw value of tenant b's real destination for
                        // node 1; the masks will refuse to honour it.
                        .map(|&b| {
                            StreamItem::Msg(voyager::api::BasicMsg::new(
                                reg.tenant_dest(b, 1),
                                vec![0xEE; 8],
                            ))
                        })
                        .collect();
                    // An offset past the installed entries: protection
                    // violation, queue shutdown.
                    items.push_back(StreamItem::Msg(voyager::api::BasicMsg::new(
                        reg.slice - 1,
                        vec![0xBD; 8],
                    )));
                    JobBody::Stream(items)
                } else {
                    JobBody::Stream(std::collections::VecDeque::new())
                }
            })
            .collect();
        let lib = m.lib(0);
        m.load_program(0, TenantScheduler::new(lib, &tp, jobs));
        m.run_to_quiescence();
        let stats = m.stats();
        let node1 = stats.nodes[1].tenants.as_ref().expect("tenancy armed");
        for b in 0..tenants {
            let row = &node1.tenants[b as usize];
            let reached = row.rq_hits + row.rq_misses + row.diversions;
            if b == c {
                assert_eq!(
                    reached,
                    probes.len() as u64,
                    "confined {c}: own queue gets the folded-back probes"
                );
            } else {
                assert_eq!(reached, 0, "confined {c} reached tenant {b}'s queue");
            }
        }
        // The violation shut down the confined queue — and only it.
        let q = CONFINED_TX_Q as usize;
        let n0 = &m.nodes[0];
        assert!(!n0.niu.ctrl.tx[q].enabled, "confined {c}: tx{q} shut");
        assert!(n0.niu.ctrl.tx[1].enabled, "confined {c}: shared tx1 alive");
        assert_eq!(stats.nodes[0].niu.violations, 1, "confined {c}");
        assert_eq!(stats.nodes[0].niu.xlate_faults, 1, "confined {c}");
    }
}
