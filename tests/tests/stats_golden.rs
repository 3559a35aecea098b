//! Golden-stats regression tests: nine canonical scenarios — messaging,
//! block transfer, shared memory, firmware collectives, QoS-armed
//! incast, tenancy, a hostile fabric, an edge-case mix and the 64-node
//! staggered pairs of the simspeed sweep — each pinned
//! to a checked-in JSON snapshot of every counter in the machine. Any
//! behavioural drift (timing, protocol traffic, queue discipline) shows
//! up as a byte difference against the golden.
//!
//! When a change is *intentional*, regenerate the goldens with
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p sv-tests --test stats_golden
//! ```
//!
//! and review the diff like any other code change.

use voyager::api::{request_transfer, BasicMsg, CollReq, RecvBasic, SendBasic};
use voyager::app::{Seq, Step, StoreData};
use voyager::arctic::FaultParams;
use voyager::firmware::proto::{encode_addr_msg, op, Approach, CollOp, XferReq};
use voyager::niu::queues::RxFullPolicy;
use voyager::{Machine, MachineBuilder, Parallelism, SystemParams};

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(name)
}

/// Compare rendered stats against the checked-in golden, or rewrite the
/// golden when `UPDATE_GOLDENS` is set. On mismatch, panic with the
/// first divergent byte and its surrounding context (the full snapshots
/// are far too large for an `assert_eq!` dump).
fn check_golden(name: &str, mut got: String) {
    got.push('\n');
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with UPDATE_GOLDENS=1",
            path.display()
        )
    });
    if got != want {
        let idx = got
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.len().min(want.len()));
        let ctx = |s: &str| {
            let lo = idx.saturating_sub(80);
            let hi = (idx + 80).min(s.len());
            s[lo..hi].to_string()
        };
        panic!(
            "stats drifted from golden {name} at byte {idx}:\n  got: …{}…\n want: …{}…\n\
             if the drift is intentional, regenerate with UPDATE_GOLDENS=1 and review the diff",
            ctx(&got),
            ctx(&want)
        );
    }
}

/// A program issuing a fixed sequence of loads/stores.
struct Ops(std::collections::VecDeque<Step>);

impl voyager::Program for Ops {
    fn step(&mut self, _env: &mut voyager::Env<'_>) -> Step {
        self.0.pop_front().unwrap_or(Step::Done)
    }
}

/// Messaging: 4-node all-to-all Basic traffic, 8 rounds, with latency
/// sampling on — covers the tx/rx queue counters, per-class Summaries
/// and the Arctic per-link occupancy.
#[test]
fn golden_stats_messaging() {
    let mut m = Machine::builder(4).sample_latency(true).build();
    for i in 0..4u16 {
        let lib = m.lib(i);
        let items: Vec<BasicMsg> = (0..8u16)
            .flat_map(|r| (0..4u16).filter(|&d| d != i).map(move |d| (r, d)))
            .map(|(r, d)| BasicMsg::new(lib.user_dest(d), vec![r as u8; 24]))
            .collect();
        m.load_program(
            i,
            Seq::new(vec![
                Box::new(SendBasic::new(&lib, items)),
                Box::new(RecvBasic::expecting(&lib, 24)),
            ]),
        );
    }
    m.run_to_quiescence();
    let s = m.stats();
    // Spot-check the headline numbers before pinning every byte: each
    // node sends and receives 24 messages.
    for n in &s.nodes {
        assert_eq!(n.niu.classes[0].sent, 24, "node {} sent", n.node);
        assert_eq!(n.niu.classes[0].delivered, 24, "node {} delivered", n.node);
        assert_eq!(n.niu.classes[0].latency_count, 24);
    }
    assert_eq!(s.network.delivered, 96);
    check_golden("stats_messaging.json", s.to_json());
}

/// Block transfer: a firmware-managed (approach 2) then a hardware
/// (approach 3) transfer over the same 2-node machine — covers the DMA
/// class, firmware xfer counters, dma_chain_steps and sP occupancy.
#[test]
fn golden_stats_blockxfer() {
    let mut m = Machine::builder(2)
        .params(SystemParams::default())
        .sample_latency(true)
        .build();
    let len = 16 * 1024u32;
    m.nodes[0].mem.fill_pattern(0x10_0000, len as usize, 1);
    m.nodes[0].mem.fill_pattern(0x14_0000, len as usize, 2);
    let lib0 = m.lib(0);
    let lib1 = m.lib(1);
    let req = |approach, xfer_id, src_addr, dst_addr| XferReq {
        approach,
        xfer_id,
        src_addr,
        dst_addr,
        len,
        dst_node: 1,
        notify_lq: 1,
    };
    m.load_program(
        0,
        request_transfer(&lib0, &req(Approach::SpManaged, 1, 0x10_0000, 0x20_0000)),
    );
    m.load_program(1, RecvBasic::expecting(&lib1, 1));
    m.run_to_quiescence();
    // Second transfer: the service-queue producer cursor has advanced by
    // one request, so resume rather than restart (request_transfer is a
    // SendBasic against the node's own service queue).
    let hw = req(Approach::BlockHw, 2, 0x14_0000, 0x24_0000);
    m.load_program(
        0,
        SendBasic::resuming(
            &lib0,
            vec![BasicMsg::new(lib0.svc_dest(0), hw.encode().to_vec())],
            1,
        ),
    );
    m.load_program(1, RecvBasic::resuming(&lib1, 1, 1));
    m.run_to_quiescence();
    // Both payloads arrived intact before we trust the counters.
    assert_eq!(
        m.nodes[1].mem.read_vec(0x20_0000, len as usize),
        m.nodes[0].mem.read_vec(0x10_0000, len as usize)
    );
    assert_eq!(
        m.nodes[1].mem.read_vec(0x24_0000, len as usize),
        m.nodes[0].mem.read_vec(0x14_0000, len as usize)
    );
    let s = m.stats();
    assert_eq!(s.nodes[0].fw.xfer_requests, 2);
    assert_eq!(s.nodes[0].fw.xfer_completed_sends, 2);
    // Approach 2's completion notify is issued by the receiver's sP; the
    // hardware path notifies without firmware involvement.
    assert_eq!(s.nodes[1].fw.xfer_notifies, 1);
    assert!(s.nodes[0].niu.dma_chain_steps > 0, "hw block path chained");
    assert!(
        s.nodes[0].fw.xfer_chunks_sent > 0,
        "sp-managed path chunked"
    );
    check_golden("stats_blockxfer.json", s.to_json());
}

/// The NUMA address of the shared-memory scenario: page 1, home node 1.
const SHMEM_NUMA: u64 = 0x1008;
/// The S-COMA line of the shared-memory scenario, offset from the
/// region base: home node 1.
const SHMEM_SCOMA: u64 = 0x1000;

/// Shared memory: a NUMA store+load round trip and an S-COMA
/// share-then-invalidate sequence on a 4-node machine from `b`. Returns
/// the machine and both phases' quiescence times.
fn run_shmem(b: MachineBuilder) -> (Machine, [u64; 2]) {
    let p = SystemParams::default();
    let mut m = b.params(p).build();
    let numa_addr = p.map.numa_base + SHMEM_NUMA;
    let scoma_addr = p.map.scoma_base + SHMEM_SCOMA;
    m.nodes[1].mem.write_u64(scoma_addr, 7);
    // Phase 1: NUMA round trip from node 0; S-COMA reads from 2 and 3.
    m.load_program(
        0,
        Ops(vec![
            Step::Store {
                addr: numa_addr,
                data: StoreData::U64(0xFEED_F00D),
            },
            Step::Compute(50_000),
            Step::Load {
                addr: numa_addr,
                bytes: 8,
            },
        ]
        .into()),
    );
    for n in [2u16, 3] {
        m.load_program(
            n,
            Ops(vec![Step::Load {
                addr: scoma_addr,
                bytes: 8,
            }]
            .into()),
        );
    }
    let t1 = m.run_to_quiescence().ns();
    // Phase 2: node 0 writes the S-COMA line, invalidating both sharers.
    m.load_program(
        0,
        Ops(vec![Step::Store {
            addr: scoma_addr,
            data: StoreData::U64(0xBEEF),
        }]
        .into()),
    );
    let t2 = m.run_to_quiescence().ns();
    (m, [t1, t2])
}

/// Shared memory ([`run_shmem`]) — covers the firmware NUMA/S-COMA
/// protocol counters, directory transitions and aBIU retry counters.
#[test]
fn golden_stats_shmem() {
    let (m, _) = run_shmem(Machine::builder(4).sample_latency(true));
    let s = m.stats();
    assert_eq!(s.nodes[1].fw.numa_home_reads, 1);
    assert_eq!(s.nodes[1].fw.numa_home_writes, 1);
    assert_eq!(s.nodes[0].fw.numa_forwards, 2, "one load miss + one store");
    assert_eq!(s.nodes[1].fw.scoma_invals, 2, "both sharers invalidated");
    assert!(s.nodes[1].fw.scoma_transitions > 0);
    check_golden("stats_shmem.json", s.to_json());
}

/// The NUMA and S-COMA protocol paths under every run loop: the
/// shared-memory scenario reaches the same quiescence times, statistics
/// (the run loop's own counters aside) and memory contents at both
/// addresses on every node under the cycle-stepped oracle, `Sequential`
/// and `Fixed(2)`.
#[test]
fn oracle_agrees_on_shared_memory() {
    let run = |b: MachineBuilder| {
        let (m, t) = run_shmem(b.sample_latency(true));
        let mut s = m.stats();
        s.run.node_ticks = 0;
        s.run.skipped_node_ticks = 0;
        s.run.wake_republishes = 0;
        let map = m.params.map;
        let bytes: Vec<Vec<u8>> = (0..4u16)
            .flat_map(|n| {
                [map.numa_base + SHMEM_NUMA, map.scoma_base + SHMEM_SCOMA]
                    .map(|addr| m.mem_read(n, addr, 8))
            })
            .collect();
        (t, s.to_json(), bytes)
    };
    let oracle = run(Machine::builder(4).cycle_stepped());
    for par in [Parallelism::Sequential, Parallelism::Fixed(2)] {
        let got = run(Machine::builder(4).parallelism(par));
        assert_eq!(got.0, oracle.0, "{par:?}: quiescence times");
        assert!(got.1 == oracle.1, "{par:?}: stats");
        assert_eq!(got.2, oracle.2, "{par:?}: memory");
    }
}

/// Firmware collectives: barrier, all-reduce and broadcast on a 4-node
/// machine, all sequenced on the sPs — covers the coll_* firmware
/// counters, the express tree traffic and the service-queue Basic path.
#[test]
fn golden_stats_collectives() {
    let mut m = Machine::builder(4).sample_latency(true).build();
    for i in 0..4u16 {
        let lib = m.lib(i);
        m.load_program(
            i,
            lib.coll_program(vec![
                CollReq::barrier(),
                CollReq::allreduce(CollOp::Sum, 100 + i as u64),
                CollReq::broadcast(2, 0xC0FFEE),
            ]),
        );
    }
    m.run_to_quiescence();
    let s = m.stats();
    // Headline invariants before pinning every byte: every node ran all
    // three collectives, and fan-in/fan-out message counts balance.
    for n in &s.nodes {
        assert_eq!(n.fw.coll_started, 3, "node {} started", n.node);
        assert_eq!(n.fw.coll_completed, 3, "node {} completed", n.node);
        assert!(n.fw.coll_busy_ns > 0, "node {} sP busy", n.node);
    }
    // Barrier and all-reduce fan in (3 ups each on 4 nodes); broadcast
    // starts at the root. All three fan out to the 3 non-root nodes.
    let ups: u64 = s.nodes.iter().map(|n| n.fw.coll_ups_sent).sum();
    let downs: u64 = s.nodes.iter().map(|n| n.fw.coll_downs_sent).sum();
    assert_eq!(ups, 6);
    assert_eq!(downs, 9);
    check_golden("stats_collectives.json", s.to_json());
}

/// QoS: the incast hot-spot workload on an 8-node machine with two
/// virtual channels and shallow (2-credit) buffers — covers the `qos`
/// stats object: per-VC occupancy/stall counters, credit-stall totals
/// and the High/Low latency split. The four scenarios above run with
/// QosParams unset and so also pin the *absence* of the `qos` key:
/// arming QoS must never change legacy machines' bytes.
#[test]
fn golden_stats_qos() {
    let p = SystemParams {
        qos: Some(voyager::arctic::QosParams {
            vcs: 2,
            credits_per_vc: 2,
            arbitration: voyager::arctic::VcArbitration::Priority,
        }),
        ..Default::default()
    };
    let mut m = Machine::builder(8).params(p).sample_latency(true).build();
    let total = voyager::workloads::load_hot_spot(&mut m, 12, 4, 64);
    m.run_to_quiescence();
    let s = m.stats();
    // Headline invariants before pinning every byte: all traffic lands,
    // the High probes ride VC 0, and the shallow buffers visibly stall.
    let delivered: u64 = s.nodes[0].niu.classes.iter().map(|c| c.delivered).sum();
    assert_eq!(delivered, u64::from(total));
    let q = s.network.qos.as_ref().expect("QoS armed");
    assert_eq!((q.vcs, q.credits_per_vc), (2, 2));
    assert_eq!(q.latency_hi_count, 4, "every probe measured");
    assert!(q.credit_stalls > 0, "incast must stall on credits");
    assert!(q.vc_usage[0].bytes > 0 && q.vc_usage[1].bytes > 0);
    check_golden("stats_qos.json", s.to_json());
}

/// Tenancy: the S10 tenant job mix on a 4-node machine with six tenants
/// per node (one confined misbehaving) under the weighted scheduler —
/// covers the machine-level `tenancy` namespace block and every
/// per-tenant row: scheduler occupancy, rx-queue-cache attribution,
/// firmware drain/rebind counters and the hit/miss latency split. The
/// five scenarios above run with tenancy unset and so also pin the
/// *absence* of both keys: arming tenants must never change legacy
/// machines' bytes.
#[test]
fn golden_stats_tenancy() {
    let tp = voyager::TenancyParams {
        tenants_per_node: 6,
        policy: voyager::SchedPolicy::WeightedTimeSlice { quantum_ns: 20_000 },
        confined: Some(5),
    };
    let mut m = Machine::builder(4).sample_latency(true).tenants(tp).build();
    voyager::workloads::load_tenant_mix(&mut m, 6);
    m.run_to_quiescence();
    let s = m.stats();
    // Headline invariants before pinning every byte: the namespace block
    // reflects the params, every tenant ran and sent traffic, and each
    // node contained exactly one protection violation.
    let ten = s.tenancy.as_ref().expect("tenancy block");
    assert_eq!(ten.tenants_per_node, 6);
    assert_eq!(ten.confined_plus_one, 6, "confined tenant 5 recorded");
    for n in &s.nodes {
        let t = n.tenants.as_ref().expect("per-tenant rows");
        assert_eq!(t.tenants.len(), 6);
        assert!(t.tenants.iter().all(|r| r.sent_msgs > 0), "node {}", n.node);
        assert_eq!(n.niu.violations, 1, "node {} contained", n.node);
    }
    check_golden("stats_tenancy.json", s.to_json());
}

/// Faults: the 8-node all-pairs exchange of `faults.rs`
/// ([`voyager::workloads::load_all_pairs`]) over the same hostile
/// fabric — covers the fault model's counters and the reliable layer's
/// acks, retransmissions and corrupt/duplicate drops, which read 0 in
/// every fault-free scenario above.
#[test]
fn golden_stats_faults() {
    let n = 8u16;
    let mut m = Machine::builder(n.into())
        .faults(FaultParams::hostile(0xD15E_A5E0))
        .sample_latency(true)
        .build();
    voyager::workloads::load_all_pairs(&mut m);
    m.run_to_quiescence();
    let s = m.stats();
    // Headline invariants before pinning every byte: the fabric did its
    // worst and the reliable layer recovered everything.
    assert!(s.network.faults_dropped > 0 && s.network.faults_corrupted > 0);
    let sum = |f: fn(&voyager::stats::NodeSnapshot) -> u64| s.nodes.iter().map(f).sum::<u64>();
    assert!(sum(|n| n.niu.retransmits) > 0 && sum(|n| n.niu.acks_received) > 0);
    assert_eq!(sum(|n| n.niu.reliable_dropped), 0, "nothing gave up");
    assert_eq!(
        sum(|n| n.niu.classes.iter().map(|c| c.delivered).sum()),
        u64::from(n) * u64::from(n - 1)
    );
    check_golden("stats_faults.json", s.to_json());
}

/// Edge cases on one 3-node machine, three scenarios at once: the
/// retry-capped full receiver of `faults.rs` on node 1 (4-entry Retry
/// queue, cap 64, 8 messages), the five malformed service messages of
/// `faults.rs` sent to node 2, and a cached program on node 2 that
/// stores a line, reloads it, evicts it through the direct-mapped L2 and
/// reloads it again — covers the drop, protocol-error and cache
/// counters no other scenario moves.
#[test]
fn golden_stats_edges() {
    let mut p = SystemParams::default();
    p.niu.rx_full_retry_cap = 64;
    let mut m = Machine::builder(3).params(p).sample_latency(true).build();
    m.nodes[1].niu.ctrl.rx[1].buf.entries = 4;
    m.nodes[1].niu.ctrl.rx[1].full_policy = RxFullPolicy::Retry;
    let lib0 = m.lib(0);
    let svc = lib0.svc_dest(2);
    let mut items: Vec<BasicMsg> = (0..8u8)
        .map(|i| BasicMsg::new(lib0.user_dest(1), vec![i]))
        .collect();
    items.extend([
        BasicMsg::new(svc, vec![0xEE, 1, 2, 3]),
        BasicMsg::new(svc, vec![op::XFER_REQ, 0x01]),
        BasicMsg::new(svc, encode_addr_msg(op::SCOMA_INV_ACK, 0x40_0000).to_vec()),
        BasicMsg::new(svc, vec![]),
        BasicMsg::new(svc, vec![0x00]),
    ]);
    m.load_program(0, SendBasic::new(&lib0, items));
    let line = 0x3000;
    let load = |addr| Step::Load { addr, bytes: 8 };
    m.load_program(
        2,
        Ops(vec![
            Step::Store {
                addr: line,
                data: StoreData::U64(1),
            },
            load(line),
            load(line + p.l2.size_bytes),
            load(line),
        ]
        .into()),
    );
    m.run_to_quiescence();
    let s = m.stats();
    // Headline invariants before pinning every byte: the four overflow
    // messages were shed, every malformed message was counted, and the
    // dirty line was written back.
    assert_eq!(s.nodes[1].niu.rx_retry_drops, 4);
    assert_eq!(s.nodes[2].fw.proto_errors, 5);
    assert_eq!(s.nodes[2].cpu.castouts, 1);
    assert!(s.nodes[2].cpu.l1_hits > 0);
    check_golden("stats_edges.json", s.to_json());
}

/// Staggered pairs at 64 nodes, the simspeed sweep's workload, with
/// latency sampling on — the largest golden, with the run-loop counters
/// of a mostly idle machine and 63 active links. The sequential loop and
/// the loop sharded over two workers must both render it byte for byte,
/// as the sweep's two columns must agree.
#[test]
fn golden_stats_simspeed_64() {
    for par in [Parallelism::Sequential, Parallelism::Fixed(2)] {
        let mut m = Machine::builder(64)
            .parallelism(par)
            .sample_latency(true)
            .build();
        voyager::workloads::load_staggered_pairs(&mut m);
        m.run_to_quiescence();
        check_golden("simspeed_stats_64.json", m.stats().to_json());
    }
}

/// The golden harness itself must fail closed: a single mutated counter
/// in otherwise-valid stats JSON has to be rejected, or every scenario
/// above is a no-op. Flips one digit of a collective counter and checks
/// the comparison panics.
#[test]
fn golden_rejects_mutated_stats() {
    // Never run the mutation against a golden being rewritten — it
    // would pin the corrupted bytes.
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        return;
    }
    let want = std::fs::read_to_string(golden_path("stats_collectives.json"))
        .expect("collectives golden present (regenerate with UPDATE_GOLDENS=1)");
    let mutated = want.replacen("\"coll_started\":3", "\"coll_started\":4", 1);
    assert_ne!(mutated, want, "mutation must actually change the bytes");
    let outcome = std::panic::catch_unwind(|| {
        check_golden("stats_collectives.json", mutated.trim_end().to_string())
    });
    assert!(
        outcome.is_err(),
        "mutated stats passed golden verification — the harness is blind"
    );
}
