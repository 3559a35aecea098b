//! Checkpoint/restore end to end: the headline guarantee is that a
//! machine checkpointed mid-run — with faults armed and the reliable
//! layer mid-retransmit — resumes to a final [`voyager::MachineStats`]
//! byte-identical to the uninterrupted run, in every run mode and
//! thread count. The other half of the contract: no sequence of bytes,
//! however forged, makes restore panic — it either yields a valid
//! machine or a typed [`voyager::api::ApiError::Snapshot`].

use sv_sim::ckpt::SnapshotError;
use voyager::api::ApiError;
use voyager::app::{AppEventKind, Delay, FnProgram};
use voyager::arctic::FaultParams;
use voyager::{Machine, MachineBuilder, Parallelism, ShardPolicy};

/// The hostile fabric of `faults.rs`, seed included: a mid-run
/// checkpoint is guaranteed to catch retransmit timers and sequence
/// windows in flight.
fn hostile() -> FaultParams {
    FaultParams::hostile(0xD15E_A5E0)
}

/// Run-mode axis for the headline test: `None` = cycle-stepped,
/// `Some(p)` = event-driven under parallelism `p`.
const MODES: [Option<Parallelism>; 5] = [
    None,
    Some(Parallelism::Sequential),
    Some(Parallelism::Fixed(2)),
    Some(Parallelism::Fixed(5)),
    Some(Parallelism::Fixed(8)),
];

fn with_mode(b: MachineBuilder, mode: Option<Parallelism>) -> MachineBuilder {
    match mode {
        None => b.cycle_stepped(),
        Some(p) => b.parallelism(p),
    }
}

/// [`voyager::workloads::load_all_pairs`] on `n` nodes over the hostile
/// fabric, under `mode`.
fn all_pairs(n: u16, mode: Option<Parallelism>) -> Machine {
    let b = Machine::builder(n as usize)
        .faults(hostile())
        .sample_latency(true);
    let mut m = with_mode(b, mode).build();
    voyager::workloads::load_all_pairs(&mut m);
    m
}

/// Uninterrupted reference run: final time and stats JSON.
fn baseline(n: u16, mode: Option<Parallelism>) -> (u64, String) {
    let mut m = all_pairs(n, mode);
    let t = m.run_to_quiescence();
    (t.ns(), m.stats().to_json())
}

#[test]
fn checkpoint_resume_is_bit_identical_in_every_run_mode() {
    let n = 8u16;
    for mode in MODES {
        let (end_ns, want) = baseline(n, mode);
        // Cut mid-run: a third of the way in, the hostile fabric has
        // retransmit timers pending and receive windows partly filled.
        let mut m = all_pairs(n, mode);
        m.run_for(end_ns / 3);
        let bytes = m.checkpoint();
        // Checkpointing is non-destructive: the donor machine itself
        // must still finish identically.
        m.run_to_quiescence();
        assert_eq!(m.stats().to_json(), want, "donor diverged, mode {mode:?}");
        // And the restored machine finishes identically too. The
        // builder's node count/params are decoys — the snapshot wins.
        let mut r = with_mode(Machine::builder(1), mode)
            .restore(&bytes)
            .expect("restore");
        r.run_to_quiescence();
        assert_eq!(r.stats().to_json(), want, "restore diverged, mode {mode:?}");
    }
}

#[test]
fn checkpoint_transfers_across_worker_counts_and_policies() {
    // Worker count and shard policy are execution details, not machine
    // state: a snapshot cut under `Sequential` (one shard) must finish
    // byte-identically under any worker count and either shard policy.
    // (Cycle-stepped is excluded: its run-loop counters legitimately
    // differ from the event modes'.)
    let n = 8u16;
    let (end_ns, want) = baseline(n, Some(Parallelism::Sequential));
    let mut m = all_pairs(n, Some(Parallelism::Sequential));
    m.run_for(end_ns / 3);
    let bytes = m.checkpoint();
    for k in [2usize, 5, 8] {
        for policy in [ShardPolicy::BySubtree, ShardPolicy::RoundRobin] {
            let mut r = Machine::builder(1)
                .parallelism(Parallelism::Fixed(k))
                .shard_policy(policy)
                .restore(&bytes)
                .expect("restore");
            r.run_to_quiescence();
            assert_eq!(
                r.stats().to_json(),
                want,
                "diverged at {k} workers, {policy:?}"
            );
        }
    }
}

#[test]
fn checkpoint_at_quiescence_restores_quiescent() {
    let mut m = all_pairs(4, Some(Parallelism::Fixed(2)));
    m.run_to_quiescence();
    let want = m.stats().to_json();
    let mut r = Machine::builder(1)
        .parallelism(Parallelism::Fixed(2))
        .restore(&m.checkpoint())
        .expect("restore");
    // Restore hands back the stats verbatim — including the final
    // simulated time — without running anything.
    assert_eq!(r.stats().to_json(), want);
    // And the machine really is quiescent: it confirms within one
    // quiescence-check window (32 cycles), doing no further work.
    let t = r.run_to_quiescence();
    assert!(
        t >= m.now && t.ns() - m.now.ns() < 1_000,
        "{t:?} vs {:?}",
        m.now
    );
}

/// Event labels are `&'static str`s. Restoring the same snapshot twice
/// must hand out one shared copy of each label, not leak a fresh one per
/// restore (or per delta a standby applies).
#[test]
fn restores_share_one_copy_of_each_event_label() {
    let mut m = Machine::builder(1).build();
    m.load_program(
        0,
        FnProgram(|env: &mut voyager::Env<'_>| {
            env.emit(AppEventKind::Marker("restored label"));
            voyager::Step::Done
        }),
    );
    m.run_to_quiescence();
    let snapshot = m.checkpoint();
    let label = |m: &Machine| match m.events(0).first().map(|e| &e.kind) {
        Some(AppEventKind::Marker(label)) => *label,
        other => panic!("expected the marker first, got {other:?}"),
    };
    let a = Machine::builder(1).restore(&snapshot).expect("restores");
    let b = Machine::builder(1).restore(&snapshot).expect("restores");
    assert_eq!(label(&a), "restored label");
    assert!(std::ptr::eq(label(&a), label(&b)), "label leaked twice");
}

#[test]
fn unsnapshottable_program_is_a_typed_refusal() {
    let mut m = Machine::builder(2).build();
    m.load_program(0, FnProgram(|_: &mut voyager::Env<'_>| voyager::Step::Done));
    // Mid-run (not yet stepped), the closure's state is uncapturable.
    let err = m.try_checkpoint().expect_err("must refuse");
    assert!(
        matches!(
            err,
            ApiError::Snapshot(SnapshotError::UnsupportedProgram { node: 0 })
        ),
        "got {err:?}"
    );
    // Once it has finished, there is nothing left to capture and the
    // checkpoint succeeds.
    m.run_to_quiescence();
    assert!(m.try_checkpoint().is_ok());
}

/// A small donor snapshot with real content: programs mid-run, faults
/// armed, some memory touched.
fn donor_bytes() -> Vec<u8> {
    let mut m = all_pairs(2, Some(Parallelism::Sequential));
    m.mem_write(0, 0x4000, &[0xAB; 256]);
    m.run_for(5_000);
    m.checkpoint()
}

fn restore(bytes: &[u8]) -> Result<Machine, ApiError> {
    Machine::builder(1)
        .parallelism(Parallelism::Sequential)
        .restore(bytes)
}

#[test]
fn every_header_field_rejects_tampering() {
    let good = donor_bytes();
    assert!(restore(&good).is_ok());

    // Magic (bytes 0..4).
    let mut b = good.clone();
    b[0] ^= 0xFF;
    assert!(
        matches!(
            restore(&b),
            Err(ApiError::Snapshot(SnapshotError::BadMagic { .. }))
        ),
        "magic tamper not caught"
    );

    // Version (bytes 4..8).
    let mut b = good.clone();
    b[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(
        matches!(
            restore(&b),
            Err(ApiError::Snapshot(SnapshotError::Version {
                found: 99,
                expected: sv_sim::ckpt::FORMAT_VERSION,
            }))
        ),
        "version tamper not caught"
    );

    // Parameter hash (bytes 8..16).
    let mut b = good.clone();
    b[8] ^= 0x01;
    assert!(
        matches!(
            restore(&b),
            Err(ApiError::Snapshot(SnapshotError::ParamHash { .. }))
        ),
        "param-hash tamper not caught"
    );

    // Node count (bytes 16..24): zero and absurd are both refused
    // before any allocation happens.
    for forged in [0u64, u64::MAX] {
        let mut b = good.clone();
        b[16..24].copy_from_slice(&forged.to_le_bytes());
        assert!(
            matches!(
                restore(&b),
                Err(ApiError::Snapshot(SnapshotError::NodeCount { found })) if found == forged
            ),
            "node-count {forged} not caught"
        );
    }

    // Tampering the params *section* (after the header) must trip the
    // hash too — the header was consistent, the payload was not.
    let mut b = good.clone();
    b[40] ^= 0x40; // inside the length-prefixed params blob
    assert!(
        matches!(
            restore(&b),
            Err(ApiError::Snapshot(SnapshotError::ParamHash { .. }))
        ),
        "params-section tamper not caught"
    );
}

#[test]
fn truncated_snapshots_error_without_panicking() {
    let good = donor_bytes();
    // Every cut inside the header region, then a sweep of cuts through
    // the body at a stride coprime with typical field sizes.
    let mut cuts: Vec<usize> = (0..32.min(good.len())).collect();
    cuts.extend((32..good.len()).step_by(1009));
    for cut in cuts {
        assert!(
            restore(&good[..cut]).is_err(),
            "truncation at {cut}/{} accepted",
            good.len()
        );
    }
}

#[test]
fn bit_flipped_snapshots_never_panic() {
    let good = donor_bytes();
    // Header corruption is caught by the typed checks above; here the
    // property under test is weaker and global: *no* single-byte
    // corruption anywhere may panic restore — it either fails typed or
    // yields a machine that still runs. (A flip past the params section
    // can land in self-describing payload bytes and decode cleanly;
    // that is fine, the state is still internally valid.)
    for pos in (0..good.len()).step_by(257) {
        let mut b = good.clone();
        b[pos] ^= 0xFF;
        if let Ok(mut m) = restore(&b) {
            // Must also survive being driven, not merely decoded.
            let _ = m.run_capped(100_000);
        }
    }
}

#[test]
fn snapshot_is_deterministic_and_restore_roundtrips_bytes() {
    // Two checkpoints of the same machine state are byte-identical, and
    // a restored machine re-checkpoints to the same bytes (modulo
    // nothing: the format has no timestamps or map-order dependence).
    let mut m = all_pairs(4, Some(Parallelism::Fixed(2)));
    m.run_for(10_000);
    let a = m.checkpoint();
    let b = m.checkpoint();
    assert_eq!(a, b);
    let r = Machine::builder(1)
        .parallelism(Parallelism::Fixed(2))
        .restore(&a)
        .expect("restore");
    assert_eq!(r.checkpoint(), a);
}

#[test]
fn restored_machine_ignores_builder_shape_but_keeps_observation_knobs() {
    let mut m = all_pairs(2, Some(Parallelism::Sequential));
    m.run_for(2_000);
    let bytes = m.checkpoint();
    // Builder says 64 nodes; the snapshot says 2. Snapshot wins.
    let r = Machine::builder(64)
        .parallelism(Parallelism::Sequential)
        .restore(&bytes)
        .expect("restore");
    assert_eq!(r.stats().nodes.len(), 2);
}

// =====================================================================
// Delta chains
// =====================================================================

use voyager::DeltaCheckpoint;

/// Drive `m` in `cuts` equal slices of `total_ns`, taking a delta cut
/// after each slice. Returns `(base, deltas)`.
fn chain_cuts(m: &mut Machine, total_ns: u64, cuts: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
    let base = match m.checkpoint_delta() {
        DeltaCheckpoint::Base(b) => b,
        DeltaCheckpoint::Delta(_) => panic!("first cut must be the base"),
    };
    let mut deltas = Vec::new();
    for _ in 0..cuts {
        m.run_for(total_ns / cuts as u64);
        match m.checkpoint_delta() {
            DeltaCheckpoint::Delta(d) => deltas.push(d),
            DeltaCheckpoint::Base(_) => panic!("chain already open"),
        }
    }
    (base, deltas)
}

#[test]
fn delta_chain_resume_is_bit_identical_in_every_run_mode() {
    let n = 8u16;
    for mode in MODES {
        let (end_ns, want) = baseline(n, mode);
        let mut m = all_pairs(n, mode);
        // Four cuts through the first half of the run: the hostile
        // fabric has retransmit timers and sequence windows in flight.
        let (base, deltas) = chain_cuts(&mut m, end_ns / 2, 4);
        // The chain-restored machine serializes byte-identically to a
        // full snapshot of the donor at the final cut...
        let full_at_cut = m.checkpoint();
        let r = with_mode(Machine::builder(1), mode)
            .restore_chain(&base, &deltas)
            .expect("restore_chain");
        assert_eq!(
            r.checkpoint(),
            full_at_cut,
            "chain restore != full snapshot, mode {mode:?}"
        );
        // ...cutting was non-perturbing for the donor...
        m.run_to_quiescence();
        assert_eq!(m.stats().to_json(), want, "donor diverged, mode {mode:?}");
        // ...and the restored machine finishes identically too.
        let mut r = r;
        r.run_to_quiescence();
        assert_eq!(
            r.stats().to_json(),
            want,
            "chain restore diverged, mode {mode:?}"
        );
    }
}

#[test]
fn delta_chain_transfers_across_worker_counts_and_policies() {
    let n = 8u16;
    let (end_ns, want) = baseline(n, Some(Parallelism::Sequential));
    let mut m = all_pairs(n, Some(Parallelism::Sequential));
    let (base, deltas) = chain_cuts(&mut m, end_ns / 2, 3);
    for k in [2usize, 5, 8] {
        for policy in [ShardPolicy::BySubtree, ShardPolicy::RoundRobin] {
            let mut r = Machine::builder(1)
                .parallelism(Parallelism::Fixed(k))
                .shard_policy(policy)
                .restore_chain(&base, &deltas)
                .expect("restore_chain");
            r.run_to_quiescence();
            assert_eq!(
                r.stats().to_json(),
                want,
                "chain diverged at {k} workers, {policy:?}"
            );
        }
    }
}

#[test]
fn restored_chain_continues_the_chain() {
    // A chain-restored machine picks up where the donor left off: its
    // next cut is the next link, and applies on top of the same base.
    let n = 4u16;
    let (end_ns, want) = baseline(n, Some(Parallelism::Sequential));
    let mut m = all_pairs(n, Some(Parallelism::Sequential));
    let (base, mut deltas) = chain_cuts(&mut m, end_ns / 3, 2);
    let mut r = Machine::builder(1)
        .parallelism(Parallelism::Sequential)
        .restore_chain(&base, &deltas)
        .expect("restore_chain");
    r.run_for(end_ns / 4);
    match r.checkpoint_delta() {
        DeltaCheckpoint::Delta(d) => deltas.push(d),
        DeltaCheckpoint::Base(_) => panic!("restored machine restarted the chain"),
    }
    let mut r2 = Machine::builder(1)
        .parallelism(Parallelism::Sequential)
        .restore_chain(&base, &deltas)
        .expect("extended chain restores");
    r2.run_to_quiescence();
    assert_eq!(r2.stats().to_json(), want);
}

#[test]
fn idle_interval_delta_is_tiny_and_applies() {
    let mut m = all_pairs(4, Some(Parallelism::Sequential));
    m.run_for(10_000);
    let (base, _) = chain_cuts(&mut m, 0, 0);
    // No simulated time has passed since the cut: nothing is dirty, so
    // the delta is header + presence bytes — a few dozen bytes against
    // a megabyte-class full snapshot.
    let d = match m.checkpoint_delta() {
        DeltaCheckpoint::Delta(d) => d,
        DeltaCheckpoint::Base(_) => panic!("chain already open"),
    };
    assert!(d.len() < 256, "idle delta is {} bytes", d.len());
    assert!(d.len() * 100 < base.len(), "idle delta not ≥100x smaller");
    let r = Machine::builder(1)
        .parallelism(Parallelism::Sequential)
        .restore_chain(&base, &[d])
        .expect("idle delta applies");
    assert_eq!(r.checkpoint(), m.checkpoint());
}

#[test]
fn delta_on_wrong_base_is_base_mismatch() {
    // Two donors, identical configuration, different cut points: the
    // param hash matches, so only the base id can tell them apart.
    let mut a = all_pairs(4, Some(Parallelism::Sequential));
    let (_, deltas_a) = chain_cuts(&mut a, 30_000, 2);
    let mut b = all_pairs(4, Some(Parallelism::Sequential));
    b.run_for(7_000);
    let (base_b, _) = chain_cuts(&mut b, 0, 0);
    let Err(err) = Machine::builder(1)
        .parallelism(Parallelism::Sequential)
        .restore_chain(&base_b, &deltas_a)
    else {
        panic!("wrong base must be refused");
    };
    assert!(
        matches!(err, ApiError::Snapshot(SnapshotError::BaseMismatch { .. })),
        "got {err:?}"
    );
}

/// The base id is checked after the base decodes, so a flip the decoder
/// cannot see must still change the id: no single-byte flip anywhere in
/// the base lets the chain restore.
#[test]
fn no_single_byte_flip_in_the_base_restores_the_chain() {
    let mut m = all_pairs(8, Some(Parallelism::Sequential));
    m.run_for(10_000);
    let (base, deltas) = chain_cuts(&mut m, 10_000, 1);
    let chain = |b: &[u8]| {
        Machine::builder(1)
            .parallelism(Parallelism::Sequential)
            .restore_chain(b, &deltas)
    };
    assert!(chain(&base).is_ok());
    for pos in (0..base.len()).step_by(4001) {
        let mut b = base.clone();
        b[pos] ^= 0xFF;
        let err = chain(&b).err();
        assert!(
            matches!(err, Some(ApiError::Snapshot(_))),
            "flip at {pos}/{}: {err:?}",
            base.len()
        );
    }
}

#[test]
fn chain_with_missing_duplicate_or_reordered_link_is_chain_broken() {
    let mut m = all_pairs(4, Some(Parallelism::Sequential));
    let (base, deltas) = chain_cuts(&mut m, 30_000, 3);
    let b = |sel: &[usize]| {
        let picked: Vec<&Vec<u8>> = sel.iter().map(|&i| &deltas[i]).collect();
        Machine::builder(1)
            .parallelism(Parallelism::Sequential)
            .restore_chain(&base, &picked)
    };
    // Intact chain is fine; every broken shape is a typed refusal.
    assert!(b(&[0, 1, 2]).is_ok());
    for (label, sel) in [
        ("missing link", &[0usize, 2][..]),
        ("duplicated link", &[0, 1, 1][..]),
        ("reordered links", &[1, 0][..]),
        ("skipped head", &[2][..]),
    ] {
        let Err(err) = b(sel) else {
            panic!("{label}: broken chain accepted");
        };
        assert!(
            matches!(err, ApiError::Snapshot(SnapshotError::ChainBroken { .. })),
            "{label}: got {err:?}"
        );
    }
}

#[test]
fn delta_headers_reject_format_confusion_and_tampering() {
    let mut m = all_pairs(4, Some(Parallelism::Sequential));
    let (base, deltas) = chain_cuts(&mut m, 20_000, 1);
    let chain = |d: &[u8]| {
        Machine::builder(1)
            .parallelism(Parallelism::Sequential)
            .restore_chain(&base, &[d])
    };
    // A full snapshot is not a delta...
    assert!(matches!(
        chain(&base),
        Err(ApiError::Snapshot(SnapshotError::BadMagic { .. }))
    ));
    // ...and a delta is not a full snapshot.
    assert!(matches!(
        restore(&deltas[0]),
        Err(ApiError::Snapshot(SnapshotError::BadMagic { .. }))
    ));
    // Version (bytes 4..8).
    let mut d = deltas[0].clone();
    d[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        chain(&d),
        Err(ApiError::Snapshot(SnapshotError::Version {
            found: 99,
            expected: sv_sim::ckpt::FORMAT_VERSION,
        }))
    ));
    // Param hash (bytes 8..16).
    let mut d = deltas[0].clone();
    d[8] ^= 0x01;
    assert!(matches!(
        chain(&d),
        Err(ApiError::Snapshot(SnapshotError::ParamHash { .. }))
    ));
    // Node count (bytes 16..24).
    let mut d = deltas[0].clone();
    d[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        chain(&d),
        Err(ApiError::Snapshot(SnapshotError::NodeCount { .. }))
    ));
    // Base id (bytes 24..32).
    let mut d = deltas[0].clone();
    d[24] ^= 0x01;
    assert!(matches!(
        chain(&d),
        Err(ApiError::Snapshot(SnapshotError::BaseMismatch { .. }))
    ));
    // A delta naming its base by `fnv1a64` of the base bytes, as builds
    // before `snapshot_id` did, is refused rather than trusted.
    let fnv = sv_sim::ckpt::fnv1a64(&base);
    let mut d = deltas[0].clone();
    d[24..32].copy_from_slice(&fnv.to_le_bytes());
    let err = chain(&d).err();
    assert!(
        matches!(err, Some(ApiError::Snapshot(SnapshotError::BaseMismatch { found, expected }))
            if found == fnv && expected != fnv),
        "fnv-named base: {err:?}"
    );
    // Sequence number (bytes 32..40).
    let mut d = deltas[0].clone();
    d[32..40].copy_from_slice(&7u64.to_le_bytes());
    assert!(matches!(
        chain(&d),
        Err(ApiError::Snapshot(SnapshotError::ChainBroken {
            expected: 1,
            found: 7,
        }))
    ));
    // From-cycle (bytes 40..48): continuity with the base's cut cycle.
    let mut d = deltas[0].clone();
    d[40] ^= 0x01;
    assert!(matches!(
        chain(&d),
        Err(ApiError::Snapshot(SnapshotError::ChainBroken { .. }))
    ));
}

#[test]
fn truncated_or_bit_flipped_deltas_never_panic() {
    let mut m = all_pairs(4, Some(Parallelism::Sequential));
    let (base, deltas) = chain_cuts(&mut m, 30_000, 1);
    let d = &deltas[0];
    let chain = |d: &[u8]| {
        Machine::builder(1)
            .parallelism(Parallelism::Sequential)
            .restore_chain(&base, &[d])
    };
    let mut cuts: Vec<usize> = (0..56.min(d.len())).collect();
    cuts.extend((56..d.len()).step_by(509));
    for cut in cuts {
        assert!(
            chain(&d[..cut]).is_err(),
            "delta truncation at {cut}/{} accepted",
            d.len()
        );
    }
    for pos in (0..d.len()).step_by(131) {
        let mut b = d.clone();
        b[pos] ^= 0xFF;
        if let Ok(mut r) = chain(&b) {
            // A flip in self-describing payload bytes can decode
            // cleanly; the machine must still be drivable.
            let _ = r.run_capped(100_000);
        }
    }
}

#[test]
fn delta_chain_is_deterministic() {
    // Two identical donors, identical cut schedules: identical base and
    // delta bytes. No timestamps, map order, or allocator state leaks.
    let cut = |mut m: Machine| chain_cuts(&mut m, 40_000, 3);
    let (base_a, deltas_a) = cut(all_pairs(4, Some(Parallelism::Fixed(2))));
    let (base_b, deltas_b) = cut(all_pairs(4, Some(Parallelism::Fixed(2))));
    assert_eq!(base_a, base_b);
    assert_eq!(deltas_a, deltas_b);
}

/// Cut one SVCK base and two SVDK deltas from `m`, running `slices[i]`
/// ns before cut `i` (`None` runs to quiescence). The chain must
/// restore to the donor's full snapshot at the last cut.
fn pinned_chain(mut m: Machine, slices: Slices) -> [Vec<u8>; 3] {
    let mut cut = |slice: Option<u64>| {
        match slice {
            Some(ns) => m.run_for(ns),
            None => {
                m.run_to_quiescence();
            }
        }
        match m.checkpoint_delta() {
            DeltaCheckpoint::Base(b) | DeltaCheckpoint::Delta(b) => b,
        }
    };
    let chain = [cut(slices[0]), cut(slices[1]), cut(slices[2])];
    assert_eq!(&chain[0][..4], b"SVCK");
    assert!(chain[1].starts_with(b"SVDK") && chain[2].starts_with(b"SVDK"));
    let r = sequential(1)
        .restore_chain(&chain[0], &chain[1..])
        .expect("pinned chain restores");
    assert_eq!(r.checkpoint(), m.checkpoint(), "chain restore != full cut");
    chain
}

fn sequential(n: usize) -> MachineBuilder {
    Machine::builder(n).parallelism(Parallelism::Sequential)
}

/// 8-node hot spot over 2 VCs x 2 credits on the hostile fabric with
/// reliable delivery: VC queues, credit counters, fault RNG, Go-Back-N
/// windows.
fn pinned_qos_faults() -> Machine {
    let mut m = sequential(8)
        .network_qos(voyager::arctic::QosParams {
            vcs: 2,
            credits_per_vc: 2,
            arbitration: voyager::arctic::VcArbitration::Priority,
        })
        .faults(hostile())
        .build();
    voyager::workloads::load_hot_spot(&mut m, 16, 4, 88);
    m
}

/// Tenant mix with more tenants than rx-queue slots: scheduler slices,
/// per-tenant registry rows and the rx-queue cache's LRU.
fn pinned_tenants() -> Machine {
    let mut m = sequential(4)
        .tenants(voyager::TenancyParams {
            tenants_per_node: 16,
            policy: voyager::SchedPolicy::WeightedTimeSlice { quantum_ns: 20_000 },
            confined: Some(5),
        })
        .build();
    voyager::workloads::load_tenant_mix(&mut m, 6);
    m
}

/// A firmware all-reduce then barrier on 16 nodes: collective engine
/// state and the aP-side waits.
fn pinned_collective() -> Machine {
    use voyager::firmware::proto::CollOp;
    let mut m = sequential(16).build();
    for i in 0..16u16 {
        let lib = m.lib(i);
        let reqs = vec![
            voyager::CollReq::allreduce(CollOp::Sum, 0x1000 + 7 * u64::from(i)),
            voyager::CollReq::barrier(),
        ];
        m.load_program(i, lib.coll_program(reqs));
    }
    m
}

/// Two S-COMA writers competing for one line while a third node stores
/// to and loads from a NUMA page homed elsewhere.
fn pinned_shmem() -> Machine {
    use voyager::api::{ReadRegion, WriteRegion};
    let mut m = sequential(4).build();
    let map = m.params.map;
    let line = map.scoma_base + 0x1000;
    let numa = map.numa_base + 0x1008;
    m.load_program(0, WriteRegion::new(line, vec![0x11; 64]));
    m.load_program(2, WriteRegion::new(line, vec![0x22; 64]));
    m.load_program(
        3,
        voyager::app::Seq::new(vec![
            Box::new(WriteRegion::new(numa, vec![0x33; 16])),
            Box::new(ReadRegion::new(numa, 16)),
        ]),
    );
    m
}

/// Four concurrent block transfers, one per firmware approach (sP
/// managed, hardware block, optimistic sP, optimistic hardware).
fn pinned_blockxfer() -> Machine {
    use voyager::api::{request_transfer, RecvBasic};
    use voyager::firmware::proto::{Approach, XferReq};
    let mut m = sequential(4).build();
    let len = 8 * 1024u32;
    let scoma = m.params.map.scoma_base;
    let plan = [
        (0u16, 1u16, Approach::SpManaged, 0x20_0000u64),
        (1, 0, Approach::BlockHw, 0x28_0000),
        (2, 3, Approach::OptimisticSp, scoma + 0x10_0000),
        (3, 2, Approach::OptimisticHw, scoma + 0x18_0000),
    ];
    for (src, dst, approach, dst_addr) in plan {
        m.nodes[src as usize]
            .mem
            .fill_pattern(0x10_0000, len as usize, u64::from(src));
        let lib = m.lib(src);
        let req = XferReq {
            approach,
            xfer_id: 10 + src,
            src_addr: 0x10_0000,
            dst_addr,
            len,
            dst_node: dst,
            notify_lq: 1,
        };
        m.load_program(
            src,
            voyager::app::Seq::new(vec![
                Box::new(request_transfer(&lib, &req)),
                Box::new(RecvBasic::expecting(&lib, 1)),
            ]),
        );
    }
    m
}

/// The 8-node hot spot on the fixed-latency ideal fabric.
fn pinned_ideal() -> Machine {
    let mut m = sequential(8).ideal_network(100).build();
    voyager::workloads::load_hot_spot(&mut m, 50, 4, 64);
    m
}

/// Two Express senders, each a `Seq` of `Delay`s and `SendExpress`
/// batches, feeding two `RecvExpress` receivers on 4 nodes: Express
/// queues, primed receivers and not-yet-run delays.
fn pinned_express() -> Machine {
    use voyager::api::{RecvExpress, SendExpress};
    use voyager::app::Seq;
    let mut m = sequential(4).build();
    for (src, dst, wait) in [(0u16, 2u16, 200u64), (1, 3, 700)] {
        let lib = m.lib(src);
        let batch = |first: u32| {
            (first..first + 20)
                .map(|i| (lib.express_dest(dst), i as u8, 0x100 * u32::from(src) + i))
                .collect()
        };
        m.load_program(
            src,
            Seq::new(vec![
                Box::new(Delay(wait)),
                Box::new(SendExpress::new(&lib, batch(0))),
                Box::new(Delay(wait)),
                Box::new(SendExpress::new(&lib, batch(20))),
            ]),
        );
        let rx = m.lib(dst);
        m.load_program(dst, RecvExpress::expecting(&rx, 40));
    }
    m
}

/// Two round-robin tenants per node on 2 nodes, no confined tenant,
/// whose jobs are child programs (a `Seq` of `Delay`s, a `Delay`): the
/// scheduler record's child bodies and its absent confined-queue mux.
fn pinned_tenant_children() -> Machine {
    use voyager::app::Seq;
    use voyager::tenancy::JobBody;
    let tp = voyager::TenancyParams {
        tenants_per_node: 2,
        policy: voyager::SchedPolicy::RoundRobin,
        confined: None,
    };
    let mut m = sequential(2).tenants(tp).build();
    for i in 0..2u16 {
        let step = 100 * u64::from(i);
        let jobs = vec![
            JobBody::Child(Box::new(Seq::new(vec![
                Box::new(Delay(700 + step)),
                Box::new(Delay(900)),
                Box::new(Delay(1_100 + step)),
            ]))),
            JobBody::Child(Box::new(Delay(2_500))),
        ];
        let lib = m.lib(i);
        m.load_program(i, voyager::TenantScheduler::new(lib, &tp, jobs));
    }
    m
}

/// A `SendBasic` of 40 messages, each with a TagOn attachment (80 bytes
/// behind an 8-byte payload, or 48 behind 24–26 bytes), into a
/// `RecvBasic` on 2 nodes: past the 32-entry transmit queue, so the
/// sender polls the consumer shadow for space.
fn pinned_send_basic() -> Machine {
    use voyager::api::{BasicMsg, RecvBasic, SendBasic};
    let mut m = stepped(2);
    let lib = m.lib(0);
    let items = (0..40u8)
        .map(|k| {
            let dest = lib.user_dest(1);
            if k % 2 == 0 {
                BasicMsg::new(dest, vec![k; 8]).with_tagon(vec![!k; 80])
            } else {
                BasicMsg::new(dest, vec![k; 24 + usize::from(k % 3)]).with_tagon(vec![!k; 48])
            }
        })
        .collect();
    m.load_program(0, SendBasic::new(&lib, items));
    let rx = m.lib(1);
    m.load_program(1, RecvBasic::expecting(&rx, 40));
    m
}

/// A `RecvBasic` polling an empty queue until a delayed sender's six
/// messages (0, 1, 7, 8, 9 and 88 payload bytes) arrive, on 2 nodes.
fn pinned_recv_basic() -> Machine {
    use voyager::api::{BasicMsg, RecvBasic, SendBasic};
    use voyager::app::Seq;
    let mut m = stepped(2);
    let lib = m.lib(0);
    let items = [0usize, 1, 7, 8, 9, 88]
        .into_iter()
        .map(|len| BasicMsg::new(lib.user_dest(1), vec![len as u8; len]))
        .collect();
    m.load_program(
        0,
        Seq::new(vec![
            Box::new(Delay(400)),
            Box::new(SendBasic::new(&lib, items)),
        ]),
    );
    let rx = m.lib(1);
    m.load_program(1, RecvBasic::expecting(&rx, 6));
    m
}

/// A firmware all-reduce then barrier on 4 nodes: each `CollWait` polls
/// its empty receive queue, backing off, while the sPs run the tree.
fn pinned_coll_wait() -> Machine {
    use voyager::firmware::proto::CollOp;
    let mut m = stepped(4);
    for i in 0..4u16 {
        let lib = m.lib(i);
        let reqs = vec![
            voyager::CollReq::allreduce(CollOp::Sum, 5 + u64::from(i)),
            voyager::CollReq::barrier(),
        ];
        m.load_program(i, lib.coll_program(reqs));
    }
    m
}

/// Three round-robin tenants per node on 2 nodes, tenant 2 confined:
/// tenants 0 and 1 stream 41 messages through the shared user-queue mux
/// (one with a TagOn attachment), past its 32 entries, and tenant 2
/// four through the confined queue's mux.
fn pinned_tenant_muxes() -> Machine {
    use voyager::api::BasicMsg;
    use voyager::tenancy::{JobBody, StreamItem};
    let tp = voyager::TenancyParams {
        tenants_per_node: 3,
        policy: voyager::SchedPolicy::RoundRobin,
        confined: Some(2),
    };
    let mut m = Machine::builder(2).cycle_stepped().tenants(tp).build();
    for i in 0..2u16 {
        let to = |t: u16| m.tenant_lib(i, t).dest(1 - i);
        let mut bulk: std::collections::VecDeque<StreamItem> = (0..20u8)
            .map(|k| StreamItem::Msg(BasicMsg::new(to(0), vec![k; 40])))
            .collect();
        bulk.push_back(StreamItem::Msg(
            BasicMsg::new(to(0), vec![0xEE; 8]).with_tagon(vec![0x7A; 48]),
        ));
        let mut late = std::collections::VecDeque::from([StreamItem::Delay(300)]);
        late.extend((0..20u8).map(|k| StreamItem::Msg(BasicMsg::new(to(1), vec![k; 88]))));
        let confined = (0..4u8)
            .map(|k| StreamItem::Msg(BasicMsg::new(1 - i, vec![k; 8])))
            .collect();
        let jobs = vec![
            JobBody::Stream(bulk),
            JobBody::Stream(late),
            JobBody::Stream(confined),
        ];
        let lib = m.lib(i);
        m.load_program(i, voyager::TenantScheduler::new(lib, &tp, jobs));
    }
    m
}

fn stepped(n: usize) -> Machine {
    Machine::builder(n).cycle_stepped().build()
}

/// Step `m` under the cycle-stepped oracle until every node's program
/// has finished, cutting a full snapshot after every bus cycle, and fold
/// the cuts' `snapshot_id`s, in order, into one FNV-1a-64. Returns the
/// cut count and the digest. Every state a program's record passes
/// through is pinned this way, not only the states at a chain's three
/// cuts.
fn per_cycle_ids(mut m: Machine) -> (usize, u64) {
    let nodes = m.nodes.len() as u16;
    let finished = |m: &Machine| {
        (0..nodes).all(|i| {
            m.events(i)
                .iter()
                .any(|e| e.kind == AppEventKind::ProgramDone)
        })
    };
    let mut ids = Vec::new();
    while !finished(&m) {
        assert!(
            ids.len() < 8 * 100_000,
            "the run must finish in 100,000 cycles"
        );
        m.step();
        ids.extend(sv_sim::ckpt::snapshot_id(&m.checkpoint()).to_le_bytes());
    }
    (ids.len() / 8, sv_sim::ckpt::fnv1a64(&ids))
}

// Cut schedules (ns per slice): every cut lands mid-run, while the
// scenario's own state (credit stalls, tenant slices, collective
// rounds, coherence transactions, DMA) is live.
type Slices = [Option<u64>; 3];
type Build = fn() -> Machine;
const SLICES_QOS: Slices = [Some(60_000), Some(60_000), Some(60_000)];
const SLICES_TENANTS: Slices = [Some(25_000), Some(25_000), Some(25_000)];
const SLICES_COLL: Slices = [Some(4_000), Some(3_000), Some(3_000)];
const SLICES_SHMEM: Slices = [Some(3_000), Some(3_000), Some(2_500)];
const SLICES_XFER: Slices = [Some(20_000), Some(30_000), Some(30_000)];
const SLICES_IDEAL: Slices = [Some(50_000), Some(100_000), None];
const SLICES_EXPRESS: Slices = [Some(1_000), Some(1_000), Some(1_000)];
const SLICES_CHILDREN: Slices = [Some(1_000), Some(2_500), Some(1_000)];

/// Snapshot bytes pinned across commits. Each scenario yields a chain —
/// an SVCK base and two SVDK deltas cut mid-run — and each snapshot is
/// reduced to its byte length and FNV-1a-64. The first scenario is an
/// 8-node incast cut at 20 µs, 40 µs and quiescence; the others arm
/// QoS + faults, tenancy, firmware collectives, S-COMA/NUMA, block
/// transfers, the ideal fabric, Express messaging behind delays and
/// child-bodied tenant jobs, so every checkpointed component and every
/// program kind writes real state. Any change to what a component writes, or in what
/// order, shows up here even if save and load change together. Four
/// more entries each fold a full snapshot per bus cycle of a short
/// cycle-stepped run (see [`per_cycle_ids`]) that drives one layer-0
/// queue program: a `SendBasic` polling for space, a `RecvBasic`, a
/// `CollWait` backing off and a tenant scheduler with both muxes. A
/// program record that changes between the chains' cuts fails there.
/// Regenerate deliberately with
///
/// ```text
/// UPDATE_GOLDENS=1 cargo test -p sv-tests --test ckpt snapshot_bytes
/// ```
#[test]
fn snapshot_bytes_match_golden_digests() {
    let mut m = sequential(8).build();
    voyager::workloads::load_hot_spot(&mut m, 50, 4, 64);
    let [full, d1, d2] = pinned_chain(m, [Some(20_000), Some(20_000), None]);
    let entry = |name: &str, b: &[u8]| {
        format!(
            "  \"{name}\": {{\"len\": {}, \"fnv1a64\": \"{:016x}\"}}",
            b.len(),
            sv_sim::ckpt::fnv1a64(b)
        )
    };
    let mut entries = vec![
        entry("svck_full_20us", &full),
        entry("svdk_delta_40us", &d1),
        entry("svdk_delta_quiescent", &d2),
    ];
    let scenarios: [(&str, Build, Slices); 8] = [
        ("qos_faults", pinned_qos_faults, SLICES_QOS),
        ("tenants", pinned_tenants, SLICES_TENANTS),
        ("collective", pinned_collective, SLICES_COLL),
        ("shmem", pinned_shmem, SLICES_SHMEM),
        ("blockxfer", pinned_blockxfer, SLICES_XFER),
        ("ideal", pinned_ideal, SLICES_IDEAL),
        ("express", pinned_express, SLICES_EXPRESS),
        ("tenant_children", pinned_tenant_children, SLICES_CHILDREN),
    ];
    for (name, build, slices) in scenarios {
        let m = build();
        let [base, d1, d2] = pinned_chain(m, slices);
        entries.push(entry(&format!("{name}_svck_base"), &base));
        entries.push(entry(&format!("{name}_svdk_1"), &d1));
        entries.push(entry(&format!("{name}_svdk_2"), &d2));
    }
    let programs: [(&str, Build); 4] = [
        ("send_basic", pinned_send_basic),
        ("recv_basic", pinned_recv_basic),
        ("coll_wait", pinned_coll_wait),
        ("tenant_muxes", pinned_tenant_muxes),
    ];
    for (name, build) in programs {
        let (cuts, digest) = per_cycle_ids(build());
        entries.push(format!(
            "  \"{name}_per_cycle\": {{\"cuts\": {cuts}, \"fnv1a64\": \"{digest:016x}\"}}"
        ));
    }
    let got = format!("{{\n{}\n}}\n", entries.join(",\n"));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens/ckpt_digests.json");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden present (UPDATE_GOLDENS=1)");
    assert_eq!(got, want, "snapshot bytes drifted from {}", path.display());
}

#[test]
fn delay_program_checkpoints_mid_wait() {
    let mut m = Machine::builder(2)
        .parallelism(Parallelism::Sequential)
        .build();
    m.load_program(0, Delay(50_000));
    m.load_program(1, Delay(10_000));
    m.run_for(1_000);
    let bytes = m.checkpoint();
    m.run_to_quiescence();
    let want = m.stats().to_json();
    let mut r = Machine::builder(1)
        .parallelism(Parallelism::Sequential)
        .restore(&bytes)
        .expect("restore");
    r.run_to_quiescence();
    assert_eq!(r.stats().to_json(), want);
}

/// Cuts taken at the same cycles carry the same bytes under every
/// worker count: a parallel window's harvest sets per-link dirty bits
/// and rolls them back with the links, so a `Fixed(k)` delta lists
/// exactly the links a `Sequential` one does.
#[test]
fn delta_bytes_at_the_same_cuts_match_across_worker_counts() {
    let n = 8u16;
    let (end_ns, _) = baseline(n, Some(Parallelism::Sequential));
    let cut = |p| chain_cuts(&mut all_pairs(n, Some(p)), end_ns / 2, 4);
    let want = cut(Parallelism::Sequential);
    for k in [2, 4] {
        assert!(cut(Parallelism::Fixed(k)) == want, "Fixed({k})");
    }
}
