//! Checkpoint/restore end to end: the headline guarantee is that a
//! machine checkpointed mid-run — with faults armed and the reliable
//! layer mid-retransmit — resumes to a final [`voyager::MachineStats`]
//! byte-identical to the uninterrupted run, in every run mode and
//! thread count. The other half of the contract: no sequence of bytes,
//! however forged, makes restore panic — it either yields a valid
//! machine or a typed [`voyager::api::ApiError::Snapshot`].

use sv_sim::ckpt::SnapshotError;
use voyager::api::{ApiError, BasicMsg, RecvBasic, SendBasic};
use voyager::app::{Delay, FnProgram, Seq};
use voyager::arctic::FaultParams;
use voyager::{Machine, MachineBuilder, Parallelism, ShardPolicy};

/// Same hostile-but-survivable fabric as `faults.rs`: enough loss,
/// duplication, corruption and reordering that a mid-run checkpoint is
/// guaranteed to catch retransmit timers and sequence windows in
/// flight.
fn hostile() -> FaultParams {
    FaultParams {
        drop_ppm: 40_000,
        dup_ppm: 20_000,
        corrupt_ppm: 15_000,
        reorder_ppm: 30_000,
        seed: 0xD15E_A5E0,
    }
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

/// Every node sends one Basic (even senders) or TagOn (odd senders)
/// message to every other node, then waits for its own `n - 1`.
fn all_pairs(n: u16, mode: Option<Parallelism>) -> Machine {
    let b = Machine::builder(n as usize)
        .faults(hostile())
        .sample_latency(true);
    let mut m = with_mode(b, mode).build();
    for i in 0..n {
        let lib = m.lib(i);
        let items: Vec<BasicMsg> = (0..n)
            .filter(|&d| d != i)
            .map(|d| {
                let msg = BasicMsg::new(lib.user_dest(d), vec![i as u8 * 16 + d as u8; 32]);
                if i % 2 == 1 {
                    msg.with_tagon(vec![0xA5; 48])
                } else {
                    msg
                }
            })
            .collect();
        m.load_program(
            i,
            Seq::new(vec![
                Box::new(SendBasic::new(&lib, items)),
                Box::new(RecvBasic::expecting(&lib, n as usize - 1)),
            ]),
        );
    }
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

/// Snapshot bytes pinned across commits: an 8-node incast cut at 20 µs
/// (the chain's SVCK base), at 40 µs and at quiescence (two SVDK
/// deltas), each reduced to its byte length and FNV-1a-64. Any change
/// to what a component writes, or in what order, shows up here even if
/// save and load change together. Regenerate deliberately with
///
/// ```text
/// UPDATE_GOLDENS=1 cargo test -p sv-tests --test ckpt snapshot_bytes
/// ```
#[test]
fn snapshot_bytes_match_golden_digests() {
    let mut m = Machine::builder(8)
        .parallelism(Parallelism::Sequential)
        .build();
    voyager::workloads::load_hot_spot(&mut m, 50, 4, 64);
    let cut = |m: &mut Machine| match m.checkpoint_delta() {
        DeltaCheckpoint::Base(b) | DeltaCheckpoint::Delta(b) => b,
    };
    m.run_for(20_000);
    let full = cut(&mut m);
    m.run_for(20_000);
    let d1 = cut(&mut m);
    m.run_to_quiescence();
    let d2 = cut(&mut m);
    assert_eq!(&full[..4], b"SVCK");
    assert!(d1.starts_with(b"SVDK") && d2.starts_with(b"SVDK"));
    let entry = |name: &str, b: &[u8]| {
        format!(
            "  \"{name}\": {{\"len\": {}, \"fnv1a64\": \"{:016x}\"}}",
            b.len(),
            sv_sim::ckpt::fnv1a64(b)
        )
    };
    let got = format!(
        "{{\n{},\n{},\n{}\n}}\n",
        entry("svck_full_20us", &full),
        entry("svdk_delta_40us", &d1),
        entry("svdk_delta_quiescent", &d2)
    );
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
