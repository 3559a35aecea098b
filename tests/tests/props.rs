//! Property-based tests over the core data structures and, at the top,
//! whole-machine transfer integrity for arbitrary sizes and patterns.

use proptest::prelude::*;
use sv_arctic::topology::{Endpoint, FatTree};
use sv_membus::{BusOpKind, CacheParams, MemoryArray, Mesi, SnoopyCache};
use sv_niu::msg::{express, MsgFlags, MsgHeader};
use sv_sim::{DetRng, EventQueue, Time};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MemoryArray behaves exactly like a flat byte map under arbitrary
    /// interleavings of reads and writes.
    #[test]
    fn memory_array_matches_reference(ops in proptest::collection::vec(
        (0u64..20_000, proptest::collection::vec(any::<u8>(), 1..300)), 1..60)) {
        let mut mem = MemoryArray::new();
        let mut reference = std::collections::HashMap::<u64, u8>::new();
        for (addr, data) in &ops {
            mem.write(*addr, data);
            for (i, b) in data.iter().enumerate() {
                reference.insert(*addr + i as u64, *b);
            }
        }
        for (addr, data) in &ops {
            let got = mem.read_vec(*addr, data.len());
            let want: Vec<u8> = (0..data.len() as u64)
                .map(|i| reference.get(&(*addr + i)).copied().unwrap_or(0))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Every route in every fat tree is a contiguous path of the right
    /// length from source to destination, for arbitrary up-port choices.
    #[test]
    fn fat_tree_routes_are_always_valid(
        nodes in 2usize..64,
        s in 0u16..64,
        d in 0u16..64,
        sel in any::<u32>(),
    ) {
        let s = s % nodes as u16;
        let d = d % nodes as u16;
        prop_assume!(s != d);
        let t = FatTree::build(nodes);
        let r = t.route(s, d, |lvl| sel.rotate_left(lvl * 7));
        prop_assert_eq!(r.len(), t.hop_count(s, d));
        prop_assert_eq!(t.links[r[0]].from, Endpoint::Node(s));
        for w in r.windows(2) {
            prop_assert_eq!(t.links[w[0]].to, t.links[w[1]].from);
        }
        prop_assert_eq!(t.links[*r.last().unwrap()].to, Endpoint::Node(d));
    }

    /// Credit conservation: for arbitrary traffic through a QoS-armed
    /// network — arbitrary VC count, credit depth, arbitration,
    /// topology size, priorities, and inject times, with or without a
    /// hostile fault model — every credit loaned to an upstream link is
    /// back in its pool once the network quiesces, nothing is stuck
    /// waiting, and no packet is lost to flow control (only the fault
    /// model may drop).
    #[test]
    fn qos_credits_always_return_at_quiescence(
        nodes in 2usize..=16,
        vcs in 1u8..=4,
        credits_per_vc in 1u8..=4,
        rr in any::<bool>(),
        spread in any::<bool>(),
        faulty in any::<bool>(),
        fault_seed in any::<u64>(),
        traffic in proptest::collection::vec(
            (any::<u16>(), any::<u16>(), any::<bool>(), 0u32..=88, 0u64..2_000),
            1..120),
    ) {
        use sv_arctic::{
            FaultParams, LinkParams, Network, Packet, Priority, QosParams,
            RoutingPolicy, VcArbitration,
        };
        let mut n: Network<u32> = Network::new(
            nodes,
            LinkParams::default(),
            if spread { RoutingPolicy::HashSpread } else { RoutingPolicy::Fixed },
        );
        n.set_qos(QosParams {
            vcs,
            credits_per_vc,
            arbitration: if rr { VcArbitration::RoundRobin } else { VcArbitration::Priority },
        });
        if faulty {
            n.set_faults(FaultParams {
                drop_ppm: 60_000, dup_ppm: 40_000, corrupt_ppm: 30_000,
                reorder_ppm: 50_000, seed: fault_seed,
            });
        }
        let mut injected = 0u64;
        for (i, &(s, d, hi, bytes, at)) in traffic.iter().enumerate() {
            let s = s % nodes as u16;
            let d = d % nodes as u16;
            if s == d {
                continue;
            }
            let prio = if hi { Priority::High } else { Priority::Low };
            n.inject(Time::from_ns(at), Packet::new(s, d, prio, bytes, i as u32));
            injected += 1;
        }
        let mut delivered = 0u64;
        while let Some(t) = n.next_event_time() {
            n.advance(t);
            delivered += n.take_delivered().len() as u64;
        }
        prop_assert_eq!(n.outstanding_credits(), 0,
            "every loaned credit must be returned at quiescence");
        // Flow control stalls, it never drops: accounting for fault
        // drops and duplications, every injected packet arrives.
        let s = &n.stats;
        prop_assert_eq!(
            delivered,
            injected + s.faults_duplicated.get() - s.faults_dropped.get(),
            "credit flow control lost or invented packets"
        );
    }

    /// Message header encoding round-trips for every field combination.
    #[test]
    fn msg_header_roundtrips(dest in any::<u16>(), len in 0u8..=88,
                             flags in 0u8..8, granule in any::<u16>(),
                             tlen in prop_oneof![Just(48u8), Just(80u8)]) {
        let h = MsgHeader {
            dest,
            len,
            flags: MsgFlags(flags),
            tagon_len: tlen,
            tagon_granule: granule,
        };
        prop_assert_eq!(MsgHeader::decode(&h.encode()), h);
    }

    /// Express codecs round-trip over their whole domains.
    #[test]
    fn express_codecs_roundtrip(dest in 0u16..1024, tag in any::<u8>(),
                                src in 0u16..0x8000, data in any::<[u8; 4]>()) {
        let off = express::tx_offset(dest, tag);
        prop_assert_eq!(express::decode_tx_offset(off), (dest, tag));
        let packed = express::pack_rx(src, tag, data);
        prop_assert_eq!(express::unpack_rx(packed), Some((src, tag, data)));
        let entry = express::pack_tx_entry(dest, tag, data);
        prop_assert_eq!(express::unpack_tx_entry(entry), (dest, tag, data));
    }

    /// The event queue dequeues in nondecreasing time order with FIFO
    /// tie-breaking, for arbitrary push sequences.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..100, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time(t), i);
        }
        let mut last: Option<(Time, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li);
                }
            }
            last = Some((t, i));
        }
    }

    /// A snoopy cache never reports more resident lines than its
    /// capacity, and lookups after install always hit.
    #[test]
    fn cache_capacity_invariant(addrs in proptest::collection::vec(0u64..0x40_000, 1..300)) {
        let mut c = SnoopyCache::new(CacheParams {
            size_bytes: 2048,
            ways: 2,
            push_latency_cycles: 1,
        });
        for &a in &addrs {
            c.install(a, Mesi::Exclusive);
            prop_assert_ne!(c.peek(a), Mesi::Invalid, "just-installed line resident");
            prop_assert!(c.resident_lines() <= 64);
        }
    }

    /// Snooping an external RWITM always leaves the line invalid,
    /// whatever state it was in.
    #[test]
    fn rwitm_snoop_invalidates(addr in 0u64..0x10_000,
                               state in prop_oneof![
                                   Just(Mesi::Modified), Just(Mesi::Exclusive), Just(Mesi::Shared)]) {
        let mut c = SnoopyCache::new(CacheParams::l1_604e());
        c.install(addr, state);
        let _ = c.snoop(BusOpKind::Rwitm, addr);
        prop_assert_eq!(c.peek(addr), Mesi::Invalid);
    }

    /// The deterministic RNG's `below` is always in range and `split`
    /// streams never correlate exactly.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = DetRng::new(seed);
        for _ in 0..50 {
            prop_assert!(r.below(bound) < bound);
        }
        let mut a = DetRng::new(seed);
        let mut b = a.split();
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        prop_assert!(same < 4);
    }
}

proptest! {
    // Whole-machine cases are expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any 8-byte-aligned transfer size moves data intact under the
    /// firmware-managed and hardware block paths.
    #[test]
    fn arbitrary_size_transfers_verify(len8 in 1u32..1500, hw in any::<bool>()) {
        let len = len8 * 8;
        let approach = if hw {
            voyager::firmware::proto::Approach::BlockHw
        } else {
            voyager::firmware::proto::Approach::SpManaged
        };
        let p = voyager::blockxfer::run_block_transfer(
            voyager::SystemParams::default(),
            voyager::blockxfer::XferSpec { approach, len, verify: true },
        );
        prop_assert!(p.verified, "{:?} at {} bytes", approach, len);
    }

    /// All-reduce computes the right answer for arbitrary contributions
    /// on arbitrary power-of-two machines.
    #[test]
    fn allreduce_is_correct_for_random_inputs(
        log_n in 1u32..4,
        values in proptest::collection::vec(any::<u64>(), 8),
    ) {
        use voyager::collectives::{AllReduce, ReduceOp};
        use voyager::app::AppEventKind;
        let n = 1usize << log_n;
        let mut m = voyager::Machine::builder(n).build();
        for i in 0..n as u16 {
            let lib = m.lib(i);
            m.load_program(i, AllReduce::new(&lib, ReduceOp::Sum, values[i as usize]));
        }
        m.run_to_quiescence();
        let want = values[..n]
            .iter()
            .fold(0u64, |a, &b| a.wrapping_add(b));
        for i in 0..n as u16 {
            let got = m
                .events(i)
                .iter()
                .find_map(|e| match e.kind {
                    AppEventKind::Result { value, .. } => Some(value),
                    _ => None,
                })
                .expect("result");
            prop_assert_eq!(got, want);
        }
    }

    /// Reflective windows propagate arbitrary 8-byte-aligned store
    /// sequences exactly, in both firmware and hardware modes.
    #[test]
    fn reflective_stores_propagate_random_offsets(
        offs in proptest::collection::vec(0u64..512, 1..12),
        hw in any::<bool>(),
    ) {
        use voyager::app::{Env, FnProgram, Step, StoreData};
        let p = voyager::SystemParams::default();
        let mut m = voyager::Machine::builder(2).params(p).build();
        m.map_reflective(0, 0, 1, 0x30_0000, 4096, hw);
        let base = p.map.reflect_base;
        let mut queue: std::collections::VecDeque<Step> = offs
            .iter()
            .map(|&o| Step::Store {
                addr: base + o * 8,
                data: StoreData::U64(0xAA00 + o),
            })
            .collect();
        m.load_program(
            0,
            FnProgram(move |_e: &mut Env<'_>| queue.pop_front().unwrap_or(Step::Done)),
        );
        m.run_to_quiescence();
        for &o in &offs {
            prop_assert_eq!(m.nodes[1].mem.read_u64(0x30_0000 + o * 8), 0xAA00 + o);
        }
    }

    /// Machine-wide counter conservation: at quiescence every message
    /// class satisfies `sent == delivered + dropped` summed across all
    /// nodes, and — with latency sampling on from cycle 0 — every
    /// delivery carries exactly one latency sample. Exercises Basic,
    /// TagOn and Express concurrently with arbitrary payloads and an
    /// arbitrary sender phase offset.
    #[test]
    fn stats_conserve_messages_per_class(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..=40), 1..5),
        with_tagon in any::<bool>(),
        n_express in 1u32..10,
        delay in 0u64..2_000,
    ) {
        use sv_niu::msg::{MsgClass, MSG_CLASSES};
        use voyager::api::{BasicMsg, RecvBasic, RecvExpress, SendBasic, SendExpress};
        use voyager::app::{Delay, Seq};
        let mut m = voyager::Machine::builder(3).sample_latency(true).build();
        let l0 = m.lib(0);
        let l1 = m.lib(1);
        let l2 = m.lib(2);
        let items: Vec<BasicMsg> = payloads
            .iter()
            .map(|p| {
                let msg = BasicMsg::new(l0.user_dest(1), p.clone());
                if with_tagon {
                    msg.with_tagon(vec![0x5A; 48])
                } else {
                    msg
                }
            })
            .collect();
        let nb = items.len();
        m.load_program(
            0,
            Seq::new(vec![
                Box::new(Delay(delay)),
                Box::new(SendBasic::new(&l0, items)),
            ]),
        );
        let eitems: Vec<(u16, u8, u32)> = (0..n_express)
            .map(|i| (l2.express_dest(1), i as u8, i * 7))
            .collect();
        m.load_program(2, SendExpress::new(&l2, eitems));
        m.load_program(
            1,
            Seq::new(vec![
                Box::new(RecvBasic::expecting(&l1, nb)),
                Box::new(RecvExpress::expecting(&l1, n_express as usize)),
            ]),
        );
        m.run_to_quiescence();
        let s = m.stats();
        for class in 0..MSG_CLASSES {
            let (mut sent, mut delivered, mut dropped, mut samples) = (0u64, 0u64, 0u64, 0u64);
            for n in &s.nodes {
                let c = &n.niu.classes[class];
                sent += c.sent;
                delivered += c.delivered;
                dropped += c.dropped;
                samples += c.latency_count;
            }
            prop_assert_eq!(sent, delivered + dropped,
                "conservation, class {}", MsgClass::NAMES[class]);
            prop_assert_eq!(samples, delivered,
                "one latency sample per delivery, class {}", MsgClass::NAMES[class]);
        }
        // And the workload really moved what it claimed in each class.
        let basic_class = if with_tagon { MsgClass::TagOn } else { MsgClass::Basic } as usize;
        let delivered_of = |class: usize| -> u64 {
            s.nodes.iter().map(|n| n.niu.classes[class].delivered).sum()
        };
        prop_assert_eq!(delivered_of(basic_class), nb as u64);
        prop_assert_eq!(delivered_of(MsgClass::Express as usize), u64::from(n_express));
    }

    /// Reliable delivery under arbitrary fault rates: per-class
    /// conservation (`sent == delivered + dropped` summed over nodes)
    /// holds whatever the network does, and — with rates inside the
    /// default retransmit budget — not a single payload is lost or
    /// duplicated.
    #[test]
    fn fault_injected_runs_conserve_messages_per_class(
        drop_ppm in 0u32..60_000,
        dup_ppm in 0u32..40_000,
        corrupt_ppm in 0u32..30_000,
        reorder_ppm in 0u32..40_000,
        fault_seed in any::<u64>(),
    ) {
        use sv_niu::msg::{MsgClass, MSG_CLASSES};
        use voyager::api::{BasicMsg, RecvBasic, SendBasic};
        let faults = voyager::arctic::FaultParams {
            drop_ppm, dup_ppm, corrupt_ppm, reorder_ppm, seed: fault_seed,
        };
        let mut m = voyager::Machine::builder(4).faults(faults).build();
        for i in 0..4u16 {
            let lib = m.lib(i);
            let items: Vec<BasicMsg> = (0..4u16)
                .filter(|&d| d != i)
                .map(|d| BasicMsg::new(lib.user_dest(d), vec![i as u8; 24]))
                .collect();
            m.load_program(i, voyager::app::Seq::new(vec![
                Box::new(SendBasic::new(&lib, items)),
                Box::new(RecvBasic::expecting(&lib, 3)),
            ]));
        }
        m.run_to_quiescence();
        let s = m.stats();
        for class in 0..MSG_CLASSES {
            let (mut sent, mut delivered, mut dropped) = (0u64, 0u64, 0u64);
            for n in &s.nodes {
                sent += n.niu.classes[class].sent;
                delivered += n.niu.classes[class].delivered;
                dropped += n.niu.classes[class].dropped;
            }
            prop_assert_eq!(sent, delivered + dropped,
                "conservation, class {}", MsgClass::NAMES[class]);
        }
        let basic = MsgClass::Basic as usize;
        let delivered: u64 = s.nodes.iter().map(|n| n.niu.classes[basic].delivered).sum();
        prop_assert_eq!(delivered, 12, "zero loss inside the retransmit budget");
    }

    /// Checkpointing at an arbitrary point of an arbitrary-seed faulty
    /// run *under the sharded loop*, then restoring under an arbitrary
    /// worker count and shard policy, finishes with stats byte-identical
    /// to the uninterrupted sequential run. The cut point is a fraction
    /// of the *total* run time, so cases land before the first send,
    /// mid-retransmit, and after quiescence — including cuts inside what
    /// would have been a lookahead window. Half the cases arm virtual
    /// channels with arbitrary (small) VC counts, credit depths, and
    /// arbitration, so cuts also land mid-credit-stall and the snapshot
    /// must carry per-VC queues, credit counters, and waiter lists.
    #[test]
    fn checkpoint_resume_matches_uninterrupted_run(
        cut_permille in 0u64..1000,
        workers in 1usize..=4,
        round_robin in any::<bool>(),
        fault_seed in any::<u64>(),
        qos in proptest::option::of((1u8..=3, 1u8..=3, any::<bool>())),
    ) {
        use voyager::api::{BasicMsg, RecvBasic, SendBasic};
        use voyager::arctic::{QosParams, VcArbitration};
        use voyager::{Parallelism, ShardPolicy};
        let faults = voyager::arctic::FaultParams::hostile(fault_seed);
        let params = voyager::SystemParams {
            qos: qos.map(|(vcs, credits_per_vc, rr)| QosParams {
                vcs,
                credits_per_vc,
                arbitration: if rr {
                    VcArbitration::RoundRobin
                } else {
                    VcArbitration::Priority
                },
            }),
            ..Default::default()
        };
        let par = if workers == 1 {
            Parallelism::Sequential
        } else {
            Parallelism::Fixed(workers)
        };
        let policy = if round_robin {
            ShardPolicy::RoundRobin
        } else {
            ShardPolicy::BySubtree
        };
        let build = |par: Parallelism, policy: ShardPolicy| {
            let mut m = voyager::Machine::builder(4)
                .params(params)
                .faults(faults)
                .parallelism(par)
                .shard_policy(policy)
                .sample_latency(true)
                .build();
            for i in 0..4u16 {
                let lib = m.lib(i);
                let items: Vec<BasicMsg> = (0..4u16)
                    .filter(|&d| d != i)
                    .map(|d| BasicMsg::new(lib.user_dest(d), vec![i as u8; 24]))
                    .collect();
                m.load_program(i, voyager::app::Seq::new(vec![
                    Box::new(SendBasic::new(&lib, items)),
                    Box::new(RecvBasic::expecting(&lib, 3)),
                ]));
            }
            m
        };
        let mut base = build(Parallelism::Sequential, ShardPolicy::BySubtree);
        let end_ns = base.run_to_quiescence().ns();
        let want = base.stats().to_json();
        let mut donor = build(par, policy);
        donor.run_for(end_ns * cut_permille / 1000);
        let bytes = donor.checkpoint();
        let mut r = voyager::Machine::builder(1)
            .parallelism(par)
            .shard_policy(policy)
            .restore(&bytes)
            .expect("restore");
        r.run_to_quiescence();
        prop_assert_eq!(r.stats().to_json(), want);
    }

    /// Delta chains of arbitrary length, cut at arbitrary (sorted)
    /// points of an arbitrary-seed faulty run under arbitrary worker
    /// counts and shard policies: restoring base + every delta in order
    /// yields a machine whose full snapshot is byte-identical to the
    /// donor's at the last cut, and which finishes with stats identical
    /// to the uninterrupted run. Also asserts the typed forgery errors:
    /// a delta applied to a fresh (wrong) base is `BaseMismatch`; a
    /// chain with a dropped link is `ChainBroken` — never a panic.
    #[test]
    fn checkpoint_delta_chain_matches_full_snapshot_and_uninterrupted_run(
        cut_permilles in proptest::collection::vec(0u64..1000, 1..=4),
        workers in 1usize..=4,
        round_robin in any::<bool>(),
        fault_seed in any::<u64>(),
    ) {
        use sv_sim::ckpt::SnapshotError;
        use voyager::api::{ApiError, BasicMsg, RecvBasic, SendBasic};
        use voyager::{DeltaCheckpoint, Parallelism, ShardPolicy};
        let faults = voyager::arctic::FaultParams::hostile(fault_seed);
        let par = if workers == 1 {
            Parallelism::Sequential
        } else {
            Parallelism::Fixed(workers)
        };
        let policy = if round_robin {
            ShardPolicy::RoundRobin
        } else {
            ShardPolicy::BySubtree
        };
        let build = |par: Parallelism, policy: ShardPolicy| {
            let mut m = voyager::Machine::builder(4)
                .faults(faults)
                .parallelism(par)
                .shard_policy(policy)
                .sample_latency(true)
                .build();
            for i in 0..4u16 {
                let lib = m.lib(i);
                let items: Vec<BasicMsg> = (0..4u16)
                    .filter(|&d| d != i)
                    .map(|d| BasicMsg::new(lib.user_dest(d), vec![i as u8; 24]))
                    .collect();
                m.load_program(i, voyager::app::Seq::new(vec![
                    Box::new(SendBasic::new(&lib, items)),
                    Box::new(RecvBasic::expecting(&lib, 3)),
                ]));
            }
            m
        };
        let mut base_run = build(Parallelism::Sequential, ShardPolicy::BySubtree);
        let end_ns = base_run.run_to_quiescence().ns();
        let want = base_run.stats().to_json();
        // Cut at sorted fractions of the total run time; duplicates give
        // zero-length (empty) deltas, which must chain fine too.
        let mut cuts = cut_permilles;
        cuts.sort_unstable();
        let mut donor = build(par, policy);
        let mut at_ns = 0u64;
        let base = match donor.checkpoint_delta() {
            DeltaCheckpoint::Base(b) => b,
            DeltaCheckpoint::Delta(_) => unreachable!("first cut is the base"),
        };
        let mut deltas = Vec::new();
        for permille in cuts {
            let target = end_ns * permille / 1000;
            donor.run_for(target - at_ns);
            at_ns = target;
            match donor.checkpoint_delta() {
                DeltaCheckpoint::Delta(d) => deltas.push(d),
                DeltaCheckpoint::Base(_) => unreachable!("chain already open"),
            }
        }
        let mut r = voyager::Machine::builder(1)
            .parallelism(par)
            .shard_policy(policy)
            .restore_chain(&base, &deltas)
            .expect("restore_chain");
        prop_assert_eq!(r.checkpoint(), donor.checkpoint(),
            "chain restore != donor full snapshot at last cut");
        r.run_to_quiescence();
        prop_assert_eq!(r.stats().to_json(), want);
        // Forgeries: wrong base, and a chain missing its first link. The
        // impostor must actually differ from the donor's base (identical
        // deterministic builds snapshot identically), so run it a bit.
        let mut impostor = build(par, policy);
        impostor.run_for(end_ns / 2 + 1);
        let wrong_base = match impostor.checkpoint_delta() {
            DeltaCheckpoint::Base(b) => b,
            DeltaCheckpoint::Delta(_) => unreachable!(),
        };
        let mismatch = matches!(
            voyager::Machine::builder(1)
                .parallelism(par)
                .restore_chain(&wrong_base, &deltas),
            Err(ApiError::Snapshot(SnapshotError::BaseMismatch { .. }))
        );
        prop_assert!(mismatch, "wrong base not refused as BaseMismatch");
        if deltas.len() > 1 {
            let broken = matches!(
                voyager::Machine::builder(1)
                    .parallelism(par)
                    .restore_chain(&base, &deltas[1..]),
                Err(ApiError::Snapshot(SnapshotError::ChainBroken { .. }))
            );
            prop_assert!(broken, "dropped link not refused as ChainBroken");
        }
    }

    /// NIC-resident collectives under arbitrary fault rates: a chain of
    /// barrier, all-reduce and broadcast with arbitrary operator, root,
    /// and contributions must either quiesce with every node holding the
    /// exact results (rates inside the default retransmit budget always
    /// do), or — if the fabric was hostile enough that Go-Back-N gave up
    /// — stop without hanging, with the abandonment visible in
    /// `reliable_dropped`. At quiescence per-class message conservation
    /// holds as usual.
    #[test]
    fn firmware_collectives_survive_hostile_fabrics(
        drop_ppm in 0u32..60_000,
        dup_ppm in 0u32..40_000,
        corrupt_ppm in 0u32..30_000,
        reorder_ppm in 0u32..40_000,
        fault_seed in any::<u64>(),
        op_idx in 0usize..3,
        root in 0u16..8,
        contributions in proptest::collection::vec(any::<u64>(), 8),
        secret in any::<u64>(),
    ) {
        use sv_niu::msg::{MsgClass, MSG_CLASSES};
        use voyager::api::CollReq;
        use voyager::app::AppEventKind;
        use voyager::firmware::proto::CollOp;
        use voyager::RunOutcome;
        let op = [CollOp::Sum, CollOp::Min, CollOp::Max][op_idx];
        let faults = voyager::arctic::FaultParams {
            drop_ppm, dup_ppm, corrupt_ppm, reorder_ppm, seed: fault_seed,
        };
        let n = 8u16;
        let mut m = voyager::Machine::builder(n as usize).faults(faults).build();
        for i in 0..n {
            let lib = m.lib(i);
            m.load_program(i, lib.coll_program(vec![
                CollReq::barrier(),
                CollReq::allreduce(op, contributions[i as usize]),
                CollReq::broadcast(root, secret),
            ]));
        }
        let result_of = |m: &voyager::Machine, node: u16, label: &str| {
            m.events(node).iter().find_map(|e| match e.kind {
                AppEventKind::Result { label: l, value } if l == label => Some(value),
                _ => None,
            })
        };
        match m.run_capped(1_000_000_000) {
            RunOutcome::Quiesced(_) => {
                let want = contributions[..n as usize]
                    .iter()
                    .copied()
                    .reduce(|a, b| op.apply(a, b))
                    .expect("nonempty");
                for i in 0..n {
                    prop_assert_eq!(result_of(&m, i, "coll_barrier"), Some(0));
                    prop_assert_eq!(result_of(&m, i, "coll_allreduce"), Some(want));
                    prop_assert_eq!(result_of(&m, i, "coll_broadcast"), Some(secret));
                }
                let s = m.stats();
                for class in 0..MSG_CLASSES {
                    let (mut sent, mut delivered, mut dropped) = (0u64, 0u64, 0u64);
                    for nd in &s.nodes {
                        sent += nd.niu.classes[class].sent;
                        delivered += nd.niu.classes[class].delivered;
                        dropped += nd.niu.classes[class].dropped;
                    }
                    prop_assert_eq!(sent, delivered + dropped,
                        "conservation, class {}", MsgClass::NAMES[class]);
                }
            }
            RunOutcome::Hung(_) => {
                // A stuck collective is only acceptable when the reliable
                // layer demonstrably abandoned part of a stream.
                let s = m.stats();
                let abandoned: u64 = s.nodes.iter().map(|nd| nd.niu.reliable_dropped).sum();
                prop_assert!(abandoned > 0,
                    "collective hung without any reliable-layer abandonment");
            }
        }
    }

    /// Mid-collective checkpoint cuts: a chain of firmware collectives
    /// over a hostile fabric, cut at an arbitrary fraction of the run
    /// under an arbitrary run mode, restored through *both* a full
    /// snapshot and a base+delta chain, finishes with stats
    /// byte-identical to the uninterrupted sequential run.
    #[test]
    fn firmware_collective_checkpoint_cut_resumes_identically(
        cut_permille in 0u64..1000,
        workers in 1usize..=4,
        round_robin in any::<bool>(),
        fault_seed in any::<u64>(),
    ) {
        use voyager::api::CollReq;
        use voyager::firmware::proto::CollOp;
        use voyager::{DeltaCheckpoint, Parallelism, ShardPolicy};
        let faults = voyager::arctic::FaultParams::hostile(fault_seed);
        let par = if workers == 1 {
            Parallelism::Sequential
        } else {
            Parallelism::Fixed(workers)
        };
        let policy = if round_robin {
            ShardPolicy::RoundRobin
        } else {
            ShardPolicy::BySubtree
        };
        let build = |par: Parallelism, policy: ShardPolicy| {
            let mut m = voyager::Machine::builder(8)
                .faults(faults)
                .parallelism(par)
                .shard_policy(policy)
                .build();
            for i in 0..8u16 {
                let lib = m.lib(i);
                m.load_program(i, lib.coll_program(vec![
                    CollReq::allreduce(CollOp::Sum, 0x1000 + i as u64),
                    CollReq::broadcast(3, 0xFEED_F00D),
                    CollReq::reduce(CollOp::Max, 5, 7 * i as u64),
                ]));
            }
            m
        };
        let mut base_run = build(Parallelism::Sequential, ShardPolicy::BySubtree);
        let end_ns = base_run.run_to_quiescence().ns();
        let want = base_run.stats().to_json();
        // Full-snapshot restore through the cut.
        let mut donor = build(par, policy);
        donor.run_for(end_ns * cut_permille / 1000);
        let bytes = donor.checkpoint();
        let mut r = voyager::Machine::builder(1)
            .parallelism(par)
            .shard_policy(policy)
            .restore(&bytes)
            .expect("restore");
        r.run_to_quiescence();
        prop_assert_eq!(r.stats().to_json(), want.clone());
        // Base + one delta spanning the same cut.
        let mut donor2 = build(par, policy);
        let chain_base = match donor2.checkpoint_delta() {
            DeltaCheckpoint::Base(b) => b,
            DeltaCheckpoint::Delta(_) => unreachable!("first cut is the base"),
        };
        donor2.run_for(end_ns * cut_permille / 1000);
        let delta = match donor2.checkpoint_delta() {
            DeltaCheckpoint::Delta(d) => d,
            DeltaCheckpoint::Base(_) => unreachable!("chain already open"),
        };
        let mut r2 = voyager::Machine::builder(1)
            .parallelism(par)
            .shard_policy(policy)
            .restore_chain(&chain_base, &[delta])
            .expect("restore_chain");
        prop_assert_eq!(r2.checkpoint(), donor2.checkpoint(),
            "chain restore != donor full snapshot at the cut");
        r2.run_to_quiescence();
        prop_assert_eq!(r2.stats().to_json(), want);
    }

    /// Arbitrary payload contents survive the Basic message path intact.
    #[test]
    fn arbitrary_payloads_roundtrip(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..=88), 1..6)) {
        use voyager::api::{BasicMsg, RecvBasic, SendBasic};
        let mut m = voyager::Machine::builder(2).build();
        let lib0 = m.lib(0);
        let items: Vec<BasicMsg> = payloads
            .iter()
            .map(|p| BasicMsg::new(lib0.user_dest(1), p.clone()))
            .collect();
        let n = items.len();
        m.load_program(0, SendBasic::new(&lib0, items));
        m.load_program(1, RecvBasic::expecting(&m.lib(1), n));
        m.run_to_quiescence();
        let msgs = m.received_messages(1);
        prop_assert_eq!(msgs.len(), n);
        for (got, want) in msgs.iter().zip(&payloads) {
            prop_assert_eq!(&got.1[..], &want[..]);
        }
    }

    /// `Node::next_event_cycle` is conservative: a machine that ticks
    /// nodes only at their advertised wake cycles (the event loops) is
    /// indistinguishable from one that ticks every node on every cycle,
    /// for arbitrary message mixes, payload sizes and compute delays. A
    /// wake advertised even one cycle too late would shift the
    /// quiescence time or reorder deliveries and fail this.
    #[test]
    fn advertised_wakes_are_conservative(
        delays in proptest::collection::vec(0u64..3_000, 3),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..=88), 1..5),
        express in any::<bool>(),
    ) {
        use voyager::api::{BasicMsg, RecvBasic, RecvExpress, SendBasic, SendExpress};
        use voyager::app::{Delay, Seq};
        use voyager::{Machine, MachineBuilder, Program};
        let n = payloads.len();
        let load = |m: &mut Machine| {
            let l0 = m.lib(0);
            let l1 = m.lib(1);
            let send: Box<dyn Program> = if express {
                let items = payloads
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (l0.express_dest(1), i as u8, p.len() as u32))
                    .collect();
                Box::new(SendExpress::new(&l0, items))
            } else {
                let items = payloads
                    .iter()
                    .map(|p| BasicMsg::new(l0.user_dest(1), p.clone()))
                    .collect();
                Box::new(SendBasic::new(&l0, items))
            };
            let recv: Box<dyn Program> = if express {
                Box::new(RecvExpress::expecting(&l1, n))
            } else {
                Box::new(RecvBasic::expecting(&l1, n))
            };
            m.load_program(0, Seq::new(vec![Box::new(Delay(delays[0])), send]));
            m.load_program(1, Seq::new(vec![Box::new(Delay(delays[1])), recv]));
            // A bystander that only computes: its wake must not pin the
            // loop, and the loop must not miss its completion.
            m.load_program(2, Seq::new(vec![Box::new(Delay(delays[2]))]));
        };
        let run = |b: MachineBuilder| {
            let mut m = b.build();
            load(&mut m);
            let t = m.run_to_quiescence().ns();
            let msgs: Vec<_> = (0..3u16).map(|i| m.received_messages(i)).collect();
            let events: Vec<Vec<_>> = (0..3u16)
                .map(|i| {
                    m.events(i)
                        .iter()
                        .map(|e| (e.at.ns(), format!("{:?}", e.kind)))
                        .collect()
                })
                .collect();
            (t, msgs, events)
        };
        let stepped = run(Machine::builder(3).cycle_stepped());
        let event = run(Machine::builder(3).parallelism(voyager::Parallelism::Sequential));
        let par = run(Machine::builder(3).parallelism(voyager::Parallelism::Fixed(2)));
        prop_assert_eq!(&stepped, &event);
        prop_assert_eq!(&event, &par);
    }
}
