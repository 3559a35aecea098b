//! Arctic virtual channels and credit-based flow control, end to end:
//! typed configuration errors, the high-priority user destination class,
//! stat plumbing, determinism of QoS-armed machines across every run
//! mode, the EXPERIMENTS.md S9 isolation gate, and checkpoint/restore
//! of in-flight credit state.

use voyager::api::{ApiError, BasicMsg, RecvBasic, SendBasic};
use voyager::arctic::{FaultParams, QosParams, VcArbitration};
use voyager::workloads::{hot_spot, load_hot_spot};
use voyager::{Machine, Parallelism, ShardPolicy, SystemParams};

fn qos(vcs: u8, credits_per_vc: u8, arbitration: VcArbitration) -> QosParams {
    QosParams {
        vcs,
        credits_per_vc,
        arbitration,
    }
}

#[test]
fn zero_virtual_channels_is_a_typed_error() {
    let err = match Machine::builder(4)
        .network_qos(qos(0, 8, VcArbitration::Priority))
        .try_build()
    {
        Err(e) => e,
        Ok(_) => panic!("a zero-VC network must not build"),
    };
    assert!(matches!(err, ApiError::ZeroVirtualChannels));
    assert!(err.to_string().contains("at least 1"));
}

#[test]
fn zero_credits_is_a_typed_error() {
    let err = match Machine::builder(4)
        .network_qos(qos(2, 0, VcArbitration::Priority))
        .try_build()
    {
        Err(e) => e,
        Ok(_) => panic!("a zero-credit buffer must not build"),
    };
    assert!(matches!(err, ApiError::ZeroCredits));
    assert!(err.to_string().contains("deadlock"));
}

#[test]
fn unarmed_machines_report_no_qos_stats() {
    // QosParams unset is the legacy machine: no credit model, no `qos`
    // object in the stats JSON, so every pre-QoS golden stays
    // byte-identical.
    let mut m = Machine::builder(2).build();
    assert_eq!(m.network.qos(), None);
    let l0 = m.lib(0);
    let l1 = m.lib(1);
    m.load_program(0, SendBasic::to_node(&l0, 1, vec![5u8; 24]));
    m.load_program(1, RecvBasic::expecting(&l1, 1));
    m.run_to_quiescence();
    let s = m.stats();
    assert!(s.network.qos.is_none());
    assert!(!s.to_json().contains("\"qos\""));
}

#[test]
fn high_priority_destination_rides_the_isolated_vc() {
    // The fourth xlate destination class: `user_dest_hi` deliveries are
    // ordinary user messages at the receiver, but they travel the
    // network as Priority::High and so occupy VC 0 when QoS is armed.
    let mut m = Machine::builder(4)
        .network_qos(qos(2, 4, VcArbitration::Priority))
        .build();
    for i in 1..4u16 {
        let lib = m.lib(i);
        let hi = BasicMsg::new(lib.user_dest_hi(0), vec![i as u8; 16]);
        let lo = BasicMsg::new(lib.user_dest(0), vec![i as u8; 64]);
        m.load_program(i, SendBasic::new(&lib, vec![hi, lo]));
    }
    let l0 = m.lib(0);
    m.load_program(0, RecvBasic::expecting(&l0, 6));
    m.run_to_quiescence();
    let s = m.stats();
    let q = s.network.qos.as_ref().expect("QoS armed");
    assert_eq!(q.vcs, 2);
    assert_eq!(q.latency_hi_count, 3, "one High packet per sender");
    assert!(q.latency_lo_count >= 3);
    assert_eq!(q.vc_usage.len(), 2);
    assert!(q.vc_usage[0].bytes > 0, "High class must use VC 0");
    assert!(q.vc_usage[1].bytes > 0, "Low class must use VC 1");
    let delivered: u64 = s.nodes[0].niu.classes.iter().map(|c| c.delivered).sum();
    assert_eq!(delivered, 6, "both classes deliver to the same programs");
}

/// Remove the `"run"` object — loop-bookkeeping counters (ticks taken
/// vs skipped, wake republishes) that describe how the loop executed,
/// not what the machine did. Every simulation-visible stat stays in.
fn strip_loop_meta(json: &str) -> String {
    let start = json.find("\"run\":{").expect("run object present");
    let end = start + json[start..].find('}').expect("run object closes");
    format!("{}{}", &json[..start], &json[end + 2..])
}

/// The core acceptance gate: a QoS-armed machine over a hostile fabric
/// produces byte-identical stats (credit stalls, per-VC usage, latency
/// split included) under the cycle-stepped loop, the sequential event
/// loop, and every parallel worker count and shard policy.
#[test]
fn qos_stats_identical_across_every_run_mode() {
    let faults = FaultParams::hostile(0x905_0FF5);
    let p = SystemParams {
        qos: Some(qos(2, 2, VcArbitration::Priority)),
        ..Default::default()
    };
    let run = |b: voyager::MachineBuilder| {
        let mut m = b.params(p).faults(faults).build();
        load_hot_spot(&mut m, 12, 4, 64);
        let t = m.run_to_quiescence().ns();
        (t, strip_loop_meta(&m.stats().to_json()))
    };
    let (t0, want) = run(Machine::builder(8));
    assert!(want.contains("\"credit_stalls\""));
    let (ts, stepped) = run(Machine::builder(8).cycle_stepped());
    assert_eq!(ts, t0, "cycle-stepped quiescence time");
    assert_eq!(stepped, want, "cycle-stepped stats");
    for workers in [2usize, 3, 4] {
        for policy in [ShardPolicy::BySubtree, ShardPolicy::RoundRobin] {
            let (t, got) = run(Machine::builder(8)
                .parallelism(Parallelism::Fixed(workers))
                .shard_policy(policy));
            assert_eq!(t, t0, "workers = {workers}, policy = {policy:?}");
            assert_eq!(got, want, "workers = {workers}, policy = {policy:?}");
        }
    }
}

/// EXPERIMENTS.md S9: under incast congestion, two virtual channels must
/// give the High class a measurably lower tail latency than the single
/// shared buffer, and the shared buffer must visibly stall on credits.
#[test]
fn incast_isolation_cuts_the_high_priority_tail() {
    let with_vcs = |vcs: u8| {
        let p = SystemParams {
            qos: Some(qos(vcs, 2, VcArbitration::Priority)),
            ..Default::default()
        };
        hot_spot(p, 8, 24, 6, 88)
    };
    let hol = with_vcs(1);
    let iso = with_vcs(2);
    assert_eq!(hol.hi_count, 6);
    assert_eq!(iso.hi_count, 6);
    assert!(
        hol.credit_stalls > 0,
        "incast must exhaust 2-credit buffers"
    );
    assert!(
        iso.hi_max_ns * 2 < hol.hi_max_ns,
        "VC isolation should cut the High tail well below the shared-buffer \
         baseline (1 VC: {} ns, 2 VCs: {} ns)",
        hol.hi_max_ns,
        iso.hi_max_ns
    );
    assert!(iso.hi_mean_ns < hol.hi_mean_ns);
}

/// Checkpoint a QoS-armed faulty machine mid-run — with credits loaned
/// out and senders plausibly stalled — and the restored machine must
/// finish with stats byte-identical to the uninterrupted run, under a
/// different worker count than the donor's.
#[test]
fn qos_state_survives_checkpoint_and_restore() {
    let faults = FaultParams::hostile(0xC4ED_1757);
    let p = SystemParams {
        qos: Some(qos(2, 1, VcArbitration::RoundRobin)),
        ..Default::default()
    };
    let build = || {
        let mut m = Machine::builder(8).params(p).faults(faults).build();
        load_hot_spot(&mut m, 16, 4, 88);
        m
    };
    let mut base = build();
    let end_ns = base.run_to_quiescence().ns();
    let want = base.stats().to_json();
    assert!(want.contains("\"credit_stalls\""));
    for cut_permille in [0u64, 250, 500, 750, 999] {
        let mut donor = build();
        donor.run_for(end_ns * cut_permille / 1000);
        let bytes = donor.checkpoint();
        let mut r = Machine::builder(1)
            .parallelism(Parallelism::Fixed(2))
            .restore(&bytes)
            .expect("restore");
        assert_eq!(r.network.qos(), p.qos, "restored machine keeps QosParams");
        r.run_to_quiescence();
        assert_eq!(
            r.stats().to_json(),
            want,
            "cut at {cut_permille} permille diverged"
        );
    }
}

/// A restored QoS machine re-checkpoints to the same bytes: the per-VC
/// queues, credit counters, waiter lists, and arbitration cursors all
/// round-trip exactly.
#[test]
fn qos_checkpoint_roundtrips_byte_identically() {
    let p = SystemParams {
        qos: Some(qos(3, 1, VcArbitration::RoundRobin)),
        ..Default::default()
    };
    let mut m = Machine::builder(8).params(p).build();
    load_hot_spot(&mut m, 16, 4, 88);
    m.run_for(4_000);
    let a = m.checkpoint();
    let r = Machine::builder(1).restore(&a).expect("restore");
    assert_eq!(r.checkpoint(), a, "snapshot must round-trip exactly");
}

/// EXPERIMENTS.md S9 data generator: the High-class tail under incast
/// with one and with two virtual channels, at 4 to 32 nodes. Ignored by
/// default; reproduce the table with
/// `cargo test -p sv-tests --test qos -- --ignored --nocapture`.
#[test]
#[ignore]
fn s9_incast_sweep() {
    println!("| nodes | hi tail, 1 VC (ns) | hi tail, 2 VCs (ns) | credit stalls (1 VC) |");
    for n in [4usize, 8, 16, 32] {
        let with_vcs = |vcs: u8| {
            let p = SystemParams {
                qos: Some(qos(vcs, 2, VcArbitration::Priority)),
                ..Default::default()
            };
            hot_spot(p, n, 30, 8, 88)
        };
        let (hol, iso) = (with_vcs(1), with_vcs(2));
        println!(
            "| {n} | {} | {} | {} |",
            hol.hi_max_ns, iso.hi_max_ns, hol.credit_stalls
        );
    }
}
