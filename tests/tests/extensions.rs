//! Integration tests for the paper's §5 extension mechanisms:
//! reflective memory (Shrimp / Memory Channel emulation) in firmware and
//! enhanced-aBIU hardware modes, and clsSRAM write-tracking with
//! dirty-line flushes (the diff-ing support).

use voyager::api::{request_flush, RecvBasic};
use voyager::app::{AppEventKind, Env, Program, Step, StoreData};
use voyager::firmware::proto::XferFlush;
use voyager::{Machine, MachineBuilder, Parallelism, SystemParams};

struct Ops {
    seq: std::collections::VecDeque<Step>,
}

impl Ops {
    fn new(steps: Vec<Step>) -> Self {
        Ops { seq: steps.into() }
    }
}

impl Program for Ops {
    fn step(&mut self, _env: &mut Env<'_>) -> Step {
        self.seq.pop_front().unwrap_or(Step::Done)
    }
}

// =========================================================================
// Reflective memory
// =========================================================================

fn reflective_roundtrip(hw: bool) -> Machine {
    let p = SystemParams::default();
    let mut m = Machine::builder(2).params(p).build();
    // Node 0's window [0, 4K) of the reflective region maps to node 1's
    // DRAM at 0x30_0000.
    m.map_reflective(0, 0, 1, 0x30_0000, 4096, hw);
    let base = p.map.reflect_base;
    m.load_program(
        0,
        Ops::new(vec![
            Step::Store {
                addr: base,
                data: StoreData::U64(0x1111),
            },
            Step::Store {
                addr: base + 8,
                data: StoreData::U64(0x2222),
            },
            Step::Store {
                addr: base + 4088,
                data: StoreData::U64(0x3333),
            },
        ]),
    );
    m.run_to_quiescence();
    m
}

#[test]
fn reflective_stores_propagate_firmware_mode() {
    let m = reflective_roundtrip(false);
    // Local copy updated...
    let base = m.params.map.reflect_base;
    assert_eq!(m.nodes[0].mem.read_u64(base), 0x1111);
    // ...and reflected to the peer.
    assert_eq!(m.nodes[1].mem.read_u64(0x30_0000), 0x1111);
    assert_eq!(m.nodes[1].mem.read_u64(0x30_0008), 0x2222);
    assert_eq!(m.nodes[1].mem.read_u64(0x30_0000 + 4088), 0x3333);
    // Firmware did the forwarding.
    assert!(m.nodes[0].fw.occupancy.busy_ns > 0);
}

#[test]
fn reflective_stores_propagate_hardware_mode() {
    let m = reflective_roundtrip(true);
    assert_eq!(m.nodes[1].mem.read_u64(0x30_0000), 0x1111);
    assert_eq!(m.nodes[1].mem.read_u64(0x30_0008), 0x2222);
    // The enhanced aBIU shipped updates without engaging the sP.
    assert_eq!(m.nodes[0].fw.occupancy.busy_ns, 0);
}

#[test]
fn hardware_reflective_is_faster_than_firmware() {
    let run = |hw: bool| {
        let p = SystemParams::default();
        let mut m = Machine::builder(2).params(p).build();
        m.map_reflective(0, 0, 1, 0x30_0000, 64 * 1024, hw);
        let base = p.map.reflect_base;
        let steps: Vec<Step> = (0..512)
            .map(|i| Step::Store {
                addr: base + i * 8,
                data: StoreData::U64(i),
            })
            .collect();
        m.load_program(0, Ops::new(steps));
        m.run_to_quiescence().ns()
    };
    let fw = run(false);
    let hw = run(true);
    assert!(
        hw < fw,
        "hardware reflective ({hw} ns) must beat firmware ({fw} ns)"
    );
}

#[test]
fn unmapped_reflective_offsets_stay_local() {
    let p = SystemParams::default();
    let mut m = Machine::builder(2).params(p).build();
    m.map_reflective(0, 0, 1, 0x30_0000, 4096, true);
    let outside = p.map.reflect_base + 8192; // beyond the window
    m.load_program(
        0,
        Ops::new(vec![Step::Store {
            addr: outside,
            data: StoreData::U64(0x9999),
        }]),
    );
    m.run_to_quiescence();
    assert_eq!(
        m.nodes[0].mem.read_u64(outside),
        0x9999,
        "local write lands"
    );
    assert_eq!(m.network.stats.injected.get(), 0, "nothing propagated");
}

#[test]
fn reflective_reader_sees_updates_coherently() {
    // Node 1 caches its receive buffer, node 0 updates it reflectively;
    // the landing remote write snoop-invalidates node 1's cached copy so
    // a re-read observes the new value.
    let p = SystemParams::default();
    let mut m = Machine::builder(2).params(p).build();
    m.map_reflective(0, 0, 1, 0x30_0000, 4096, true);
    m.nodes[1].mem.write_u64(0x30_0000, 7);
    // Node 1 reads (caches) the old value.
    let seen = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let s2 = seen.clone();
    let mut phase = 0;
    m.load_program(
        1,
        voyager::app::FnProgram(move |env: &mut Env<'_>| match phase {
            0 => {
                phase = 1;
                Step::Load {
                    addr: 0x30_0000,
                    bytes: 8,
                }
            }
            1 => {
                assert_eq!(env.last_load, 7, "cold read sees the old value");
                phase = 2;
                // Wait for the update to arrive, then re-read.
                Step::Compute(100_000)
            }
            2 => {
                phase = 3;
                Step::Load {
                    addr: 0x30_0000,
                    bytes: 8,
                }
            }
            _ => {
                s2.store(env.last_load, std::sync::atomic::Ordering::Relaxed);
                Step::Done
            }
        }),
    );
    m.load_program(
        0,
        Ops::new(vec![
            Step::Compute(20_000),
            Step::Store {
                addr: p.map.reflect_base,
                data: StoreData::U64(99),
            },
        ]),
    );
    m.run_to_quiescence();
    assert_eq!(
        seen.load(std::sync::atomic::Ordering::Relaxed),
        99,
        "snoop invalidation makes the update visible"
    );
}

// =========================================================================
// Write tracking + dirty-line flush (diff-ing)
// =========================================================================

/// Bytes of the tracked region: 128 lines.
const FLUSH_REGION: u32 = 4096;
/// Where node 1 receives the flushed lines.
const FLUSH_DST: u64 = 0x40_0000;

/// A flush of node 0's tracked region (the first [`FLUSH_REGION`] bytes
/// of the S-COMA region) to node 1.
fn flush_request(p: &SystemParams, xfer_id: u16) -> XferFlush {
    XferFlush {
        xfer_id,
        base: p.map.scoma_base,
        dst_addr: FLUSH_DST,
        len: FLUSH_REGION,
        dst_node: 1,
        notify_lq: 1,
    }
}

/// Node 0 flushes its tracked region and awaits the notification.
fn load_flush(m: &mut Machine, xfer_id: u16) {
    let req = flush_request(&m.params, xfer_id);
    let lib0 = m.lib(0);
    m.load_program(
        0,
        voyager::app::Seq::new(vec![
            Box::new(request_flush(&lib0, &req)),
            Box::new(RecvBasic::expecting(&lib0, 1)),
        ]),
    );
}

/// Write tracking on a 2-node machine from `b`: aP stores dirty lines 2,
/// 5 and 100 of node 0's tracked region, then node 0 flushes the region
/// to node 1. Returns the machine and both phases' quiescence times.
fn run_tracked_flush(b: MachineBuilder) -> (Machine, [u64; 2]) {
    let p = SystemParams::default();
    let mut m = b.params(p).build();
    m.enable_write_tracking(0);
    let base = p.map.scoma_base;
    m.nodes[0].mem.fill_pattern(base, FLUSH_REGION as usize, 3);
    // Dirty lines 2, 5, 100 via aP stores (cached; tracking snoops the
    // fill operations).
    let mut steps = Vec::new();
    for line in [2u64, 5, 100] {
        steps.push(Step::Store {
            addr: base + line * 32,
            data: StoreData::U64(0xD0 + line),
        });
    }
    m.load_program(0, Ops::new(steps));
    let t1 = m.run_to_quiescence().ns();
    load_flush(&mut m, 9);
    let t2 = m.run_to_quiescence().ns();
    (m, [t1, t2])
}

#[test]
fn tracked_flush_ships_only_dirty_lines() {
    let (mut m, _) = run_tracked_flush(Machine::builder(2));
    let base = m.params.map.scoma_base;
    // Only the three dirty lines travelled.
    assert_eq!(m.nodes[0].fw.xfer.flush_lines_sent.get(), 3);
    assert_eq!(m.nodes[0].fw.xfer.flush_lines_skipped.get(), 125);
    // Their contents (the full lines, store included) landed at node 1.
    for line in [2u64, 5, 100] {
        let want = m.nodes[0].mem.read_vec(base + line * 32, 32);
        let got = m.nodes[1].mem.read_vec(FLUSH_DST + line * 32, 32);
        assert_eq!(got, want, "line {line}");
    }
    // Untouched lines did not travel.
    assert_eq!(m.nodes[1].mem.read_vec(FLUSH_DST, 32), vec![0u8; 32]);
    // The notification arrived.
    assert!(m
        .event_time(0, |k| matches!(
            k,
            AppEventKind::NotifyReceived { xfer_id: 9 }
        ))
        .is_some());
    // Tracking state was cleared: a second flush ships nothing.
    load_flush(&mut m, 10);
    m.run_to_quiescence();
    assert_eq!(m.nodes[0].fw.xfer.flush_lines_sent.get(), 3, "no new lines");
}

/// The tracked flush's sweep under every run loop: the same quiescence
/// times, statistics (the run loop's own counters aside) and
/// destination bytes under the cycle-stepped oracle, `Sequential` and
/// `Fixed(2)`.
#[test]
fn oracle_agrees_on_the_tracked_flush() {
    let run = |b: MachineBuilder| {
        let (m, t) = run_tracked_flush(b);
        let mut s = m.stats();
        s.run.node_ticks = 0;
        s.run.skipped_node_ticks = 0;
        s.run.wake_republishes = 0;
        (
            t,
            s.to_json(),
            m.mem_read(1, FLUSH_DST, FLUSH_REGION as usize),
        )
    };
    let oracle = run(Machine::builder(2).cycle_stepped());
    for par in [Parallelism::Sequential, Parallelism::Fixed(2)] {
        let got = run(Machine::builder(2).parallelism(par));
        assert_eq!(got.0, oracle.0, "{par:?}: quiescence times");
        assert!(got.1 == oracle.1, "{par:?}: stats");
        assert!(got.2 == oracle.2, "{par:?}: destination bytes");
    }
}

#[test]
fn tracking_disables_scoma_gating() {
    let p = SystemParams::default();
    let mut m = Machine::builder(2).params(p).build();
    m.enable_write_tracking(0);
    let addr = p.map.scoma_base + 0x1000; // would be homed at node 1
    m.load_program(
        0,
        Ops::new(vec![Step::Store {
            addr,
            data: StoreData::U64(1),
        }]),
    );
    m.run_to_quiescence();
    // No protocol ran: the store proceeded locally, recorded as dirty.
    assert_eq!(m.nodes[1].fw.scoma.stats.home_writes.get(), 0);
    assert_eq!(
        m.nodes[0].niu.clssram.get(p.map.scoma_line(addr)),
        sv_niu::ClsState::ReadWrite
    );
    assert_eq!(m.nodes[0].stats.ap_retries.get(), 0, "no ARTRY stalls");
}

#[test]
fn dense_flush_ships_everything() {
    let p = SystemParams::default();
    let mut m = Machine::builder(2).params(p).build();
    m.enable_write_tracking(0);
    let base = p.map.scoma_base;
    let lines = 32u64;
    let steps: Vec<Step> = (0..lines)
        .map(|l| Step::Store {
            addr: base + l * 32,
            data: StoreData::U64(l),
        })
        .collect();
    m.load_program(0, Ops::new(steps));
    m.run_to_quiescence();
    let lib0 = m.lib(0);
    m.load_program(
        0,
        voyager::app::Seq::new(vec![
            Box::new(request_flush(
                &lib0,
                &XferFlush {
                    xfer_id: 1,
                    base,
                    dst_addr: 0x40_0000,
                    len: (lines * 32) as u32,
                    dst_node: 1,
                    notify_lq: 1,
                },
            )),
            Box::new(RecvBasic::expecting(&lib0, 1)),
        ]),
    );
    m.run_to_quiescence();
    assert_eq!(m.nodes[0].fw.xfer.flush_lines_sent.get(), lines);
    for l in 0..lines {
        assert_eq!(m.nodes[1].mem.read_u64(0x40_0000 + l * 32), l);
    }
}
