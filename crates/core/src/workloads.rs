//! Multi-node workload generators and microbenchmark drivers.
//!
//! These functions build a machine, run a canonical traffic pattern and
//! return measurements. They back experiment tables T1 (message
//! microbenchmarks), T2 (shared-memory operation costs) and A3 (network
//! scaling), and double as heavyweight integration tests.

use crate::api::{BasicMsg, RecvBasic, RecvExpress, SendBasic, SendExpress};
use crate::app::{AppEventKind, Delay, Env, Program, Seq, Step, StoreData};
use crate::machine::{Machine, NodeLib};
use crate::metrics::MsgMicro;
use crate::params::SystemParams;
use crate::tenancy::{JobBody, StreamItem, TenancyParams, TenantClass, TenantScheduler};
use std::collections::VecDeque;
use sv_niu::msg::MsgHeader;
use sv_sim::stats::Log2Histogram;
use sv_sim::Time;

// =========================================================================
// Ping-pong programs
// =========================================================================

#[derive(Debug, Clone, Copy, PartialEq)]
enum PpState {
    Send,
    SendPayload,
    SendPtr,
    Poll,
    CheckPoll,
    ReadBody,
    Collect,
    ConsumePtr,
}

/// Basic-message ping-pong (8-byte payload). The initiator sends first;
/// each side alternates send/receive for `iters` rounds.
pub struct PingPongBasic {
    lib: NodeLib,
    peer: u16,
    iters: u32,
    round: u32,
    initiator: bool,
    state: PpState,
    producer: u16,
    consumer: u16,
    producer_seen: u16,
}

impl PingPongBasic {
    /// Build one side of the ping-pong.
    pub fn new(lib: &NodeLib, peer: u16, iters: u32, initiator: bool) -> Self {
        PingPongBasic {
            lib: *lib,
            peer,
            iters,
            round: 0,
            initiator,
            state: if initiator {
                PpState::Send
            } else {
                PpState::Poll
            },
            producer: 0,
            consumer: 0,
            producer_seen: 0,
        }
    }
}

impl Program for PingPongBasic {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        loop {
            match self.state {
                PpState::Send => {
                    if self.round >= self.iters {
                        return Step::Done;
                    }
                    let dest = self.lib.user_dest(self.peer);
                    let hdr = MsgHeader::basic(dest, 8);
                    let slot = self.lib.basic_tx.slot_off(self.producer);
                    self.state = PpState::SendPayload;
                    return Step::Store {
                        addr: self.lib.asram(slot),
                        data: StoreData::Bytes(hdr.encode().to_vec()),
                    };
                }
                PpState::SendPayload => {
                    let slot = self.lib.basic_tx.slot_off(self.producer);
                    self.state = PpState::SendPtr;
                    return Step::Store {
                        addr: self.lib.asram(slot + 8),
                        data: StoreData::U64(self.round as u64),
                    };
                }
                PpState::SendPtr => {
                    self.producer = self.producer.wrapping_add(1);
                    let q = self.lib.basic_tx.q;
                    // Initiator now waits for the echo; responder is done
                    // with this round.
                    self.state = if self.initiator {
                        PpState::Poll
                    } else {
                        self.round += 1;
                        PpState::Poll
                    };
                    if !self.initiator && self.round >= self.iters {
                        // Final echo sent; finish after the pointer update.
                        self.state = PpState::Send; // will return Done next
                        self.round = self.iters;
                    }
                    return Step::Store {
                        addr: self.lib.map.ptr_update_addr(false, q, self.producer),
                        data: StoreData::U64(0),
                    };
                }
                PpState::Poll => {
                    if self.consumer != self.producer_seen {
                        self.state = PpState::ReadBody;
                        continue;
                    }
                    self.state = PpState::CheckPoll;
                    return Step::Load {
                        addr: self.lib.asram(self.lib.basic_rx.shadow_off),
                        bytes: 8,
                    };
                }
                PpState::CheckPoll => {
                    self.producer_seen = env.last_load as u16;
                    if self.consumer == self.producer_seen {
                        self.state = PpState::Poll;
                        return Step::Compute(30);
                    }
                    self.state = PpState::ReadBody;
                }
                PpState::ReadBody => {
                    let slot = self.lib.basic_rx.slot_off(self.consumer);
                    self.state = PpState::Collect;
                    return Step::Load {
                        addr: self.lib.asram(slot + 8),
                        bytes: 8,
                    };
                }
                PpState::Collect => {
                    self.state = PpState::ConsumePtr;
                }
                PpState::ConsumePtr => {
                    self.consumer = self.consumer.wrapping_add(1);
                    let q = self.lib.basic_rx.q;
                    if self.initiator {
                        self.round += 1;
                        self.state = PpState::Send;
                    } else {
                        self.state = PpState::Send;
                    }
                    return Step::Store {
                        addr: self.lib.map.ptr_update_addr(true, q, self.consumer),
                        data: StoreData::U64(0),
                    };
                }
            }
        }
    }
}

/// Express-message ping-pong: one store to send, polling loads to
/// receive.
pub struct PingPongExpress {
    lib: NodeLib,
    peer: u16,
    iters: u32,
    round: u32,
    initiator: bool,
    waiting: bool,
    primed: bool,
}

/// Most ping-pong rounds one [`PingPongExpress`] pair can run: the
/// Express store-address encoding carries an 8-bit tag and each round
/// stamps its (1-based, on the responder side) round number into it, so
/// past 255 the tags would silently alias — round 256 indistinguishable
/// from round 0 on the wire.
pub const MAX_EXPRESS_ROUNDS: u32 = 255;

impl PingPongExpress {
    /// Build one side. Panics when `iters` exceeds
    /// [`MAX_EXPRESS_ROUNDS`]: the 8-bit Express tag would alias past
    /// that, corrupting any analysis keyed on the tag (before this check
    /// the round number was truncated silently with `as u8`).
    pub fn new(lib: &NodeLib, peer: u16, iters: u32, initiator: bool) -> Self {
        assert!(
            iters <= MAX_EXPRESS_ROUNDS,
            "PingPongExpress supports at most {MAX_EXPRESS_ROUNDS} rounds \
             (got {iters}): the Express tag is 8 bits and round tags would alias"
        );
        PingPongExpress {
            lib: *lib,
            peer,
            iters,
            round: 0,
            initiator,
            waiting: !initiator,
            primed: false,
        }
    }
}

impl Program for PingPongExpress {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        loop {
            if self.round >= self.iters {
                return Step::Done;
            }
            if self.waiting {
                if self.primed {
                    self.primed = false;
                    if sv_niu::msg::express::unpack_rx(env.last_load).is_none() {
                        return Step::Compute(30);
                    }
                    self.waiting = false;
                    if self.initiator {
                        self.round += 1;
                    }
                    continue;
                }
                self.primed = true;
                return Step::Load {
                    addr: self.lib.map.express_rx_addr(self.lib.express_rx_q),
                    bytes: 8,
                };
            }
            // Send.
            let dest = self.lib.express_dest(self.peer);
            self.waiting = true;
            if !self.initiator {
                self.round += 1;
            }
            // In range by construction: iters ≤ MAX_EXPRESS_ROUNDS, and
            // the responder's pre-increment tops out at `iters`.
            debug_assert!(self.round <= MAX_EXPRESS_ROUNDS);
            return Step::Store {
                addr: self
                    .lib
                    .map
                    .express_tx_addr(self.lib.express_tx_q, dest, self.round as u8),
                data: StoreData::Bytes({ self.round }.to_le_bytes().to_vec()),
            };
        }
    }
}

// =========================================================================
// Measurement drivers
// =========================================================================

fn program_done_time(m: &Machine, node: u16) -> Time {
    m.event_time(node, |k| matches!(k, AppEventKind::ProgramDone))
        .expect("program finished")
}

/// Basic-message ping-pong: returns `(one-way ns, round-trip ns)`.
pub fn basic_ping_pong(params: SystemParams, iters: u32) -> (u64, u64) {
    let mut m = Machine::builder(2).params(params).build();
    m.load_program(0, PingPongBasic::new(&m.lib(0), 1, iters, true));
    m.load_program(1, PingPongBasic::new(&m.lib(1), 0, iters, false));
    m.run_to_quiescence();
    let total = program_done_time(&m, 0).ns();
    let rtt = total / iters as u64;
    (rtt / 2, rtt)
}

/// Express-message ping-pong: returns `(one-way ns, round-trip ns)`.
pub fn express_ping_pong(params: SystemParams, iters: u32) -> (u64, u64) {
    let mut m = Machine::builder(2).params(params).build();
    m.load_program(0, PingPongExpress::new(&m.lib(0), 1, iters, true));
    m.load_program(1, PingPongExpress::new(&m.lib(1), 0, iters, false));
    m.run_to_quiescence();
    let total = program_done_time(&m, 0).ns();
    let rtt = total / iters as u64;
    (rtt / 2, rtt)
}

/// One-way Basic message stream (optionally with TagOn attachments).
pub fn basic_stream(
    params: SystemParams,
    msgs: u32,
    payload_len: usize,
    tagon_len: Option<usize>,
) -> MsgMicro {
    let mut m = Machine::builder(2).params(params).build();
    let lib0 = m.lib(0);
    let items: Vec<BasicMsg> = (0..msgs)
        .map(|i| {
            let mut msg = BasicMsg::new(lib0.user_dest(1), vec![(i & 0xFF) as u8; payload_len]);
            if let Some(t) = tagon_len {
                msg = msg.with_tagon(vec![0xA5u8; t]);
            }
            msg
        })
        .collect();
    let per_msg_bytes = (payload_len + tagon_len.unwrap_or(0)) as u32;
    m.load_program(0, SendBasic::new(&lib0, items));
    m.load_program(1, RecvBasic::expecting(&m.lib(1), msgs as usize));
    m.run_to_quiescence();
    let dur = program_done_time(&m, 1).ns().max(1);
    MsgMicro {
        mechanism: match tagon_len {
            Some(t) => format!("basic+tagon{t}"),
            None => format!("basic-{payload_len}B"),
        },
        one_way_ns: dur / msgs as u64,
        round_trip_ns: 0,
        msg_rate_per_s: msgs as f64 / (dur as f64 / 1e9),
        bandwidth_mb_s: sv_sim::stats::mb_per_s(per_msg_bytes as u64 * msgs as u64, dur),
        payload_bytes: per_msg_bytes,
    }
}

/// One-way Express message stream.
pub fn express_stream(params: SystemParams, msgs: u32) -> MsgMicro {
    let mut m = Machine::builder(2).params(params).build();
    let lib0 = m.lib(0);
    let items: Vec<(u16, u8, u32)> = (0..msgs)
        .map(|i| (lib0.express_dest(1), (i & 0xFF) as u8, i))
        .collect();
    m.load_program(0, SendExpress::new(&lib0, items));
    m.load_program(1, RecvExpress::expecting(&m.lib(1), msgs as usize));
    m.run_to_quiescence();
    let dur = program_done_time(&m, 1).ns().max(1);
    MsgMicro {
        mechanism: "express".into(),
        one_way_ns: dur / msgs as u64,
        round_trip_ns: 0,
        msg_rate_per_s: msgs as f64 / (dur as f64 / 1e9),
        bandwidth_mb_s: sv_sim::stats::mb_per_s(5 * msgs as u64, dur),
        payload_bytes: 5,
    }
}

/// All-to-all Basic traffic on an `n`-node machine; returns
/// `(completion ns, aggregate payload MB/s)`.
pub fn all_to_all(params: SystemParams, n: usize, per_pair: u32, payload_len: usize) -> (u64, f64) {
    let mut m = Machine::builder(n).params(params).build();
    for i in 0..n as u16 {
        let lib = m.lib(i);
        let mut items = Vec::new();
        for round in 0..per_pair {
            for d in 0..n as u16 {
                if d != i {
                    items.push(BasicMsg::new(
                        lib.user_dest(d),
                        vec![(round & 0xFF) as u8; payload_len],
                    ));
                }
            }
        }
        m.load_program(
            i,
            crate::app::Seq::new(vec![
                Box::new(SendBasic::new(&lib, items)),
                Box::new(RecvBasic::expecting(&lib, per_pair as usize * (n - 1))),
            ]),
        );
    }
    m.run_to_quiescence();
    let dur = (0..n as u16)
        .map(|i| program_done_time(&m, i).ns())
        .max()
        .expect("nodes")
        .max(1);
    let total_bytes = (n * (n - 1)) as u64 * per_pair as u64 * payload_len as u64;
    (dur, sv_sim::stats::mb_per_s(total_bytes, dur))
}

/// What one [`hot_spot`] run measured, read from the network's own
/// per-priority inject→deliver summaries (present whether or not QoS is
/// armed, so the no-VC baseline is directly comparable).
#[derive(Debug, Clone, Copy)]
pub struct HotSpotOutcome {
    /// Time until every node's program finished, ns.
    pub completion_ns: u64,
    /// High-class packets delivered.
    pub hi_count: u64,
    /// Largest High-class inject→deliver latency, ns — the tail metric
    /// EXPERIMENTS.md S9 gates on.
    pub hi_max_ns: u64,
    /// Mean High-class latency, ns.
    pub hi_mean_ns: f64,
    /// Largest Low-class latency, ns.
    pub lo_max_ns: u64,
    /// Mean Low-class latency, ns.
    pub lo_mean_ns: f64,
    /// Credit-stall episodes (zero when QoS is unarmed).
    pub credit_stalls: u64,
    /// Total credit-blocked time, ns (zero when QoS is unarmed).
    pub credit_stall_ns: u64,
}

/// Hot-spot (incast) driver: every node but 0 floods node 0 with
/// `per_sender` Low-class Basic messages, while the last node
/// interleaves `hi_probes` small High-class probes (via
/// [`NodeLib::user_dest_hi`]) into its own stream. The probes are the
/// latency-critical traffic whose tail the congested Low class
/// head-of-line-blocks — unless virtual channels isolate it
/// ([`crate::MachineBuilder::network_qos`], EXPERIMENTS.md S9).
pub fn hot_spot(
    params: SystemParams,
    n: usize,
    per_sender: u32,
    hi_probes: u32,
    payload_len: usize,
) -> HotSpotOutcome {
    let mut m = Machine::builder(n).params(params).build();
    load_hot_spot(&mut m, per_sender, hi_probes, payload_len);
    m.run_to_quiescence();
    let completion_ns = (0..n as u16)
        .map(|i| program_done_time(&m, i).ns())
        .max()
        .expect("nodes");
    let net = &m.network.stats;
    HotSpotOutcome {
        completion_ns,
        hi_count: net.latency_hi.count,
        hi_max_ns: net.latency_hi.max,
        hi_mean_ns: net.latency_hi.mean().unwrap_or(0.0),
        lo_max_ns: net.latency_lo.max,
        lo_mean_ns: net.latency_lo.mean().unwrap_or(0.0),
        credit_stalls: net.credit_stalls.get(),
        credit_stall_ns: net.credit_stall_ns,
    }
}

/// Messages ablation A1's sender sends to each logical queue
/// ([`load_rxq_spray`]).
pub const RXQ_MSGS_PER_QUEUE: usize = 12;

/// Ablation A1's receive-queue spray on a 2-node machine: node 0 sends
/// [`RXQ_MSGS_PER_QUEUE`] 32-byte Basic messages round-robin to each of
/// `k` logical queues on node 1. The first `min(k, 12)` queues are bound
/// to sP-polled hardware rx slots; the rest divert through node 1's miss
/// queue, made lossless (`Retry`), to the firmware. Returns the number
/// of messages sent.
pub fn load_rxq_spray(m: &mut Machine, k: usize) -> usize {
    use sv_niu::queues::RxFullPolicy;
    use sv_niu::translate::XlateEntry;
    use sv_niu::{QueueId, RxService};
    const HW_SLOTS: [u8; 12] = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14];
    let miss = m.nodes[1].niu.params.miss_queue_slot;
    m.nodes[1].niu.ctrl.rx[miss].full_policy = RxFullPolicy::Retry;
    // Logical queues 100..100+k at the receiver, named by the sender's
    // virtual destinations 0x300...
    for i in 0..k as u16 {
        m.nodes[0].niu.ctrl.xlate.install(
            0x300 + i,
            XlateEntry {
                valid: true,
                node: 1,
                logical_q: 100 + i,
                high_priority: false,
            },
        );
    }
    for (&slot, i) in HW_SLOTS.iter().zip(0..k as u16) {
        let niu = &mut m.nodes[1].niu;
        niu.ctrl.rx_cache.bind(100 + i, QueueId(slot));
        niu.ctrl.rx[usize::from(slot)].service = RxService::SpPolled;
    }
    let lib = m.lib(0);
    let items: Vec<BasicMsg> = (0..RXQ_MSGS_PER_QUEUE)
        .flat_map(|_| (0..k as u16).map(|i| BasicMsg::new(0x300 + i, vec![0u8; 32])))
        .collect();
    let total = items.len();
    m.load_program(0, SendBasic::new(&lib, items));
    total
}

/// Load the [`hot_spot`] programs onto an already-built machine (the
/// bench smoke reuses this across run modes); returns the total message
/// count node 0 expects.
pub fn load_hot_spot(m: &mut Machine, per_sender: u32, hi_probes: u32, payload_len: usize) -> u32 {
    let n = m.nodes.len();
    assert!(n >= 2, "incast needs a victim and at least one sender");
    let total = (n as u32 - 1) * per_sender + hi_probes;
    for i in 1..n as u16 {
        let lib = m.lib(i);
        let mut items = Vec::new();
        // Spread the probes evenly through the last sender's stream so
        // they sample the congestion as it builds, not just its edges.
        let probing = i as usize == n - 1;
        let gap = (per_sender / hi_probes.max(1)).max(1);
        let mut sent_hi = 0;
        for j in 0..per_sender {
            items.push(BasicMsg::new(lib.user_dest(0), vec![0x4C; payload_len]));
            if probing && sent_hi < hi_probes && j % gap == gap - 1 {
                items.push(BasicMsg::new(lib.user_dest_hi(0), vec![0x48; 8]));
                sent_hi += 1;
            }
        }
        if probing {
            // Probes the even spread didn't place (hi_probes > per_sender).
            for _ in sent_hi..hi_probes {
                items.push(BasicMsg::new(lib.user_dest_hi(0), vec![0x48; 8]));
            }
        }
        m.load_program(i, SendBasic::new(&lib, items));
    }
    m.load_program(0, RecvBasic::expecting(&m.lib(0), total as usize));
    total
}

/// Stagger between pair activations in [`load_staggered_pairs`], ns.
pub const STAGGER_NS: u64 = 20_000;

/// Basic messages each pair of [`load_staggered_pairs`] exchanges.
pub const PAIR_MSGS: u16 = 4;

/// Staggered pairs, the simspeed sweep workload: node `2k` sends
/// [`PAIR_MSGS`] 16-byte Basic messages to node `2k+1`, both starting at
/// `k ×` [`STAGGER_NS`]; both then finish. At any instant at most one
/// pair is exchanging (its slot is far shorter than the stagger) and
/// every other node is idle in a delay or done: the idle-heavy
/// *node-count* regime, where total work grows linearly with the node
/// count but concurrent work does not. The machine needs an even number
/// of nodes.
pub fn load_staggered_pairs(m: &mut Machine) {
    let n = m.nodes.len() as u16;
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "pairs need an even node count"
    );
    for k in 0..n / 2 {
        let (a, b) = (2 * k, 2 * k + 1);
        let start = u64::from(k) * STAGGER_NS;
        let lib_a = m.lib(a);
        let lib_b = m.lib(b);
        let msgs = (0..PAIR_MSGS)
            .map(|r| BasicMsg::new(lib_a.user_dest(b), vec![r as u8; 16]))
            .collect();
        m.load_program(
            a,
            Seq::new(vec![
                Box::new(Delay(start)),
                Box::new(SendBasic::new(&lib_a, msgs)),
            ]),
        );
        m.load_program(
            b,
            Seq::new(vec![
                Box::new(Delay(start)),
                Box::new(RecvBasic::expecting(&lib_b, usize::from(PAIR_MSGS))),
            ]),
        );
    }
}

/// All pairs, the fault-injection workload: every node sends one
/// 32-byte message to every other node, Basic from even senders and
/// TagOn with a 48-byte `0xA5` tag from odd ones, then waits for its own
/// `n - 1`. Every payload byte is `16 × sender + receiver`, so a
/// delivery names its pair; the machine may have at most 16 nodes.
pub fn load_all_pairs(m: &mut Machine) {
    let n = m.nodes.len() as u16;
    assert!(n <= 16, "payload bytes name pairs of at most 16 nodes");
    for i in 0..n {
        let lib = m.lib(i);
        let items: Vec<BasicMsg> = (0..n)
            .filter(|&d| d != i)
            .map(|d| {
                let msg = BasicMsg::new(lib.user_dest(d), vec![(i * 16 + d) as u8; 32]);
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
                Box::new(RecvBasic::expecting(&lib, usize::from(n) - 1)),
            ]),
        );
    }
}

// =========================================================================
// Multi-tenant job mix (experiment S10)
// =========================================================================

/// One tenant's job for the S10 mix, by class convention
/// ([`TenancyParams::tenant_class`]):
///
/// - **Latency**: small paced probes — `Delay(2 µs)` then one 16-byte
///   message per round. The tail of this class is the study's headline
///   metric.
/// - **Bulk**: 88-byte messages back to back (one per round, no pacing).
/// - **Bursty**: idle 5 µs, then a burst of four 32-byte messages.
/// - **Misbehaving** (the confined tenant): raw in-slice destinations
///   through the masked tx queue 3, with one out-of-range destination in
///   the middle of the stream that trips a protection violation and
///   shuts the queue down. Capped below the 32-entry queue depth so the
///   shared mux never waits on a consumer that the shutdown froze.
fn tenant_job(
    tp: &TenancyParams,
    reg: &crate::tenancy::TenantRegistry,
    node: u16,
    t: u16,
    msgs: u32,
) -> JobBody {
    let n = reg.nodes as u32;
    // Destinations cycle over the other nodes, staggered by tenant so
    // the aggregate traffic is not an accidental permutation.
    let dest_of = |k: u32| ((node as u32 + 1 + (t as u32 + k) % (n - 1)) % n) as u16;
    let mut items = VecDeque::new();
    match tp.tenant_class(t) {
        TenantClass::Latency => {
            for k in 0..msgs {
                items.push_back(StreamItem::Delay(2_000));
                items.push_back(StreamItem::Msg(BasicMsg::new(
                    reg.tenant_dest(t, dest_of(k)),
                    vec![0x4C; 16],
                )));
            }
        }
        TenantClass::Bulk => {
            for k in 0..msgs {
                items.push_back(StreamItem::Msg(BasicMsg::new(
                    reg.tenant_dest(t, dest_of(k)),
                    vec![0x42; 88],
                )));
            }
        }
        TenantClass::Bursty => {
            let mut k = 0;
            while k < msgs {
                items.push_back(StreamItem::Delay(5_000));
                for _ in 0..(msgs - k).min(4) {
                    items.push_back(StreamItem::Msg(BasicMsg::new(
                        reg.tenant_dest(t, dest_of(k)),
                        vec![0x41; 32],
                    )));
                    k += 1;
                }
            }
        }
        TenantClass::Misbehaving => {
            let total = msgs.min(24);
            let bad_at = total / 2;
            for k in 0..total {
                // Raw destination: tx queue 3's AND/OR masks confine it
                // to this tenant's translation slice. `slice - 1` is
                // never installed (the slice holds `nodes` entries and
                // `slice > nodes`), so that message faults.
                let dest = if k == bad_at {
                    reg.slice - 1
                } else {
                    dest_of(k)
                };
                items.push_back(StreamItem::Msg(BasicMsg::new(dest, vec![0x4D; 8])));
            }
        }
    }
    JobBody::Stream(items)
}

/// Load the S10 tenant job mix onto an already-built machine: one
/// [`TenantScheduler`] per node multiplexing every tenant's job.
/// Requires tenancy to be armed ([`crate::MachineBuilder::tenants`]).
/// Returns the number of Basic messages scheduled machine-wide
/// (including each confined tenant's post-violation messages, which the
/// shutdown will strand in tx queue 3).
pub fn load_tenant_mix(m: &mut Machine, msgs_per_tenant: u32) -> u64 {
    let tp = m
        .tenancy()
        .expect("load_tenant_mix requires MachineBuilder::tenants");
    let reg = m.tenant_registry().expect("registry follows tenancy");
    let n = m.nodes.len() as u16;
    assert!(n >= 2, "the job mix needs a remote destination");
    let mut scheduled = 0u64;
    for i in 0..n {
        let jobs: Vec<JobBody> = (0..reg.count)
            .map(|t| tenant_job(&tp, &reg, i, t, msgs_per_tenant))
            .collect();
        scheduled += jobs
            .iter()
            .map(|j| match j {
                JobBody::Stream(items) => items
                    .iter()
                    .filter(|it| matches!(it, StreamItem::Msg(_)))
                    .count() as u64,
                JobBody::Child(_) => 0,
            })
            .sum::<u64>();
        let lib = m.lib(i);
        m.load_program(i, TenantScheduler::new(lib, &tp, jobs));
    }
    scheduled
}

/// What one [`tenant_mix`] run measured, aggregated machine-wide from
/// the per-tenant attribution (rx-queue-cache counters and
/// inject→deliver histograms in the NIU, scheduler occupancy in the
/// per-node reports).
#[derive(Debug, Clone, Copy)]
pub struct TenantMixOutcome {
    /// Time until every node's scheduler finished, ns.
    pub completion_ns: u64,
    /// Basic messages tenants completed through the shared tx muxes.
    pub sent_msgs: u64,
    /// Deliveries that found their logical rx queue bound to a hardware
    /// queue.
    pub rq_hits: u64,
    /// Deliveries whose logical queue was unbound (firmware path).
    pub rq_misses: u64,
    /// Messages diverted to the miss queue.
    pub diversions: u64,
    /// `rq_hits / (rq_hits + rq_misses)`, the S10 x-axis companion.
    pub hit_rate: f64,
    /// P99 inject→deliver latency over cache-hit deliveries, ns.
    pub hit_p99_ns: u64,
    /// P99 inject→deliver latency over cache-miss deliveries, ns.
    pub miss_p99_ns: u64,
    /// P99 over all tenant deliveries, ns — the S10 tail metric.
    pub p99_ns: u64,
    /// P99 over Latency-class tenants only, ns (the QoS-isolation
    /// subject).
    pub latency_class_p99_ns: u64,
    /// P99 over every other class, ns.
    pub other_class_p99_ns: u64,
    /// Protection violations the NIUs raised (the misbehaving tenants).
    pub tx_violations: u64,
    /// Hardware-slot rebinds the firmware performed servicing misses.
    pub rebinds: u64,
}

fn merge_hist(into: &mut Log2Histogram, h: &Log2Histogram) {
    for (a, b) in into.buckets.iter_mut().zip(&h.buckets) {
        *a += b;
    }
    into.summary.merge(&h.summary);
}

/// Aggregate a finished tenant-mix run. Split out of [`tenant_mix`] so
/// the bench harness and tests can re-measure the same machine after
/// driving it through different run modes.
pub fn measure_tenant_mix(m: &Machine) -> TenantMixOutcome {
    let tp = m.tenancy().expect("tenancy armed");
    let stats = m.stats();
    let completion_ns = (0..m.nodes.len() as u16)
        .map(|i| program_done_time(m, i).ns())
        .max()
        .expect("nodes");
    let (mut sent, mut hits, mut misses, mut div, mut viol, mut rebinds) = (0, 0, 0, 0, 0, 0);
    for node in &stats.nodes {
        viol += node.niu.violations;
        if let Some(tn) = &node.tenants {
            rebinds += tn.rebinds;
            for t in &tn.tenants {
                sent += t.sent_msgs;
                hits += t.rq_hits;
                misses += t.rq_misses;
                div += t.diversions;
            }
        }
    }
    // P99s come from merging the raw per-tenant histograms (bucket sums
    // are exact; per-tenant bucketed p99s would not compose).
    let mut hit_h = Log2Histogram::new();
    let mut miss_h = Log2Histogram::new();
    let mut all_h = Log2Histogram::new();
    let mut lat_h = Log2Histogram::new();
    let mut rest_h = Log2Histogram::new();
    for node in &m.nodes {
        if let Some(attr) = &node.niu.tenant {
            for t in 0..attr.count {
                let latency_class = tp.tenant_class(t) == TenantClass::Latency;
                for h in [
                    &attr.hit_latency[t as usize],
                    &attr.miss_latency[t as usize],
                ] {
                    merge_hist(&mut all_h, h);
                    merge_hist(
                        if latency_class {
                            &mut lat_h
                        } else {
                            &mut rest_h
                        },
                        h,
                    );
                }
                merge_hist(&mut hit_h, &attr.hit_latency[t as usize]);
                merge_hist(&mut miss_h, &attr.miss_latency[t as usize]);
            }
        }
    }
    let p99 = |h: &Log2Histogram| h.quantile(0.99).unwrap_or(0);
    TenantMixOutcome {
        completion_ns,
        sent_msgs: sent,
        rq_hits: hits,
        rq_misses: misses,
        diversions: div,
        hit_rate: if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
        hit_p99_ns: p99(&hit_h),
        miss_p99_ns: p99(&miss_h),
        p99_ns: p99(&all_h),
        latency_class_p99_ns: p99(&lat_h),
        other_class_p99_ns: p99(&rest_h),
        tx_violations: viol,
        rebinds,
    }
}

/// Build an `n`-node machine with `tenancy` armed, run the S10 job mix
/// to quiescence and aggregate the per-tenant attribution. The
/// EXPERIMENTS.md S10 sweep calls this with tenants/node from 4 to 256.
pub fn tenant_mix(
    params: SystemParams,
    n: usize,
    tenancy: TenancyParams,
    msgs_per_tenant: u32,
) -> TenantMixOutcome {
    let mut m = Machine::builder(n).params(params).tenants(tenancy).build();
    load_tenant_mix(&mut m, msgs_per_tenant);
    m.run_to_quiescence();
    measure_tenant_mix(&m)
}

// =========================================================================
// Shared-memory probes (experiment T2)
// =========================================================================

/// A single timed load or store, bracketed by markers.
pub struct Probe {
    addr: u64,
    write: bool,
    phase: u8,
}

impl Probe {
    /// A timed load of `addr`.
    pub fn load(addr: u64) -> Self {
        Probe {
            addr,
            write: false,
            phase: 0,
        }
    }

    /// A timed store to `addr`.
    pub fn store(addr: u64) -> Self {
        Probe {
            addr,
            write: true,
            phase: 0,
        }
    }
}

impl Program for Probe {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        match self.phase {
            0 => {
                self.phase = 1;
                env.emit(AppEventKind::Marker("probe-start"));
                if self.write {
                    Step::Store {
                        addr: self.addr,
                        data: StoreData::U64(0xD00D),
                    }
                } else {
                    Step::Load {
                        addr: self.addr,
                        bytes: 8,
                    }
                }
            }
            1 => {
                self.phase = 2;
                env.emit(AppEventKind::Marker("probe-end"));
                Step::Done
            }
            _ => Step::Done,
        }
    }
}

/// Latency of the `k`-th probe on node `i` (marker pair), ns.
pub fn probe_latency(m: &Machine, i: u16, k: usize) -> u64 {
    let starts: Vec<Time> = m
        .events(i)
        .iter()
        .filter(|e| e.kind == AppEventKind::Marker("probe-start"))
        .map(|e| e.at)
        .collect();
    let ends: Vec<Time> = m
        .events(i)
        .iter()
        .filter(|e| e.kind == AppEventKind::Marker("probe-end"))
        .map(|e| e.at)
        .collect();
    ends[k].since(starts[k])
}

/// NUMA load latency: `remote` selects a page homed on the other node.
pub fn numa_load_latency(params: SystemParams, remote: bool) -> u64 {
    let mut m = Machine::builder(2).params(params).build();
    let addr = params.map.numa_base + if remote { 0x1000 } else { 0 };
    m.load_program(0, Probe::load(addr));
    m.run_to_quiescence();
    probe_latency(&m, 0, 0)
}

/// NUMA store completion latency (posted; measures the bus handoff).
pub fn numa_store_latency(params: SystemParams, remote: bool) -> u64 {
    let mut m = Machine::builder(2).params(params).build();
    let addr = params.map.numa_base + if remote { 0x1000 } else { 0 };
    m.load_program(0, Probe::store(addr));
    m.run_to_quiescence();
    probe_latency(&m, 0, 0)
}

/// S-COMA latencies on a 2-node machine, for an address homed at node 1:
/// `(read miss 2-hop, read after grant with cold caches, write upgrade)`.
pub fn scoma_latencies(params: SystemParams) -> (u64, u64, u64) {
    let mut m = Machine::builder(2).params(params).build();
    let addr = params.map.scoma_base + 0x1000; // page 1 → home node 1
    m.nodes[1].mem.fill_pattern(addr, 32, 7);
    // Probe 1: read miss (2-hop protocol).
    m.load_program(0, Probe::load(addr));
    m.run_to_quiescence();
    let miss = probe_latency(&m, 0, 0);
    // Probe 2: read again with cold caches — clsSRAM hit, local DRAM.
    m.nodes[0].flush_caches();
    m.load_program(0, Probe::load(addr));
    m.run_to_quiescence();
    let hit = probe_latency(&m, 0, 1);
    // Probe 3: write (upgrade ReadOnly → ReadWrite).
    m.load_program(0, Probe::store(addr));
    m.run_to_quiescence();
    let upgrade = probe_latency(&m, 0, 2);
    (miss, hit, upgrade)
}

/// S-COMA 3-hop read: node 0 owns the line dirty, home is node 1, node 2
/// reads (recall path). Returns the reader's latency.
pub fn scoma_read_3hop(params: SystemParams) -> u64 {
    let mut m = Machine::builder(4).params(params).build();
    let addr = params.map.scoma_base + 0x1000; // home node 1
    m.nodes[1].mem.fill_pattern(addr, 32, 9);
    // Node 0 takes ownership by writing.
    m.load_program(0, Probe::store(addr));
    m.run_to_quiescence();
    // Node 2 reads: home must recall from node 0.
    m.load_program(2, Probe::load(addr));
    m.run_to_quiescence();
    probe_latency(&m, 2, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at most 255 rounds")]
    fn express_ping_pong_rejects_aliasing_round_counts() {
        // Regression: 256+ rounds used to truncate the round tag with
        // `as u8`, so round 256's Express tag collided with round 0's.
        let m = Machine::builder(2).build();
        let _ = PingPongExpress::new(&m.lib(0), 1, 256, true);
    }

    #[test]
    fn express_ping_pong_runs_at_the_tag_limit() {
        // The full 255-round budget works and every tag stays unique.
        let (ow, rtt) = express_ping_pong(SystemParams::default(), MAX_EXPRESS_ROUNDS);
        assert!(ow > 0 && rtt > ow);
    }

    #[test]
    fn hot_spot_counts_both_classes() {
        let out = hot_spot(SystemParams::default(), 4, 10, 4, 64);
        assert_eq!(out.hi_count, 4);
        assert!(out.hi_max_ns > 0);
        assert!(out.lo_max_ns > 0);
        // QoS unarmed: the credit machinery must stay silent.
        assert_eq!(out.credit_stalls, 0);
        assert_eq!(out.credit_stall_ns, 0);
    }

    #[test]
    fn tenant_mix_attributes_per_tenant() {
        let tp = TenancyParams {
            tenants_per_node: 4,
            confined: Some(3),
            ..TenancyParams::default()
        };
        let out = tenant_mix(SystemParams::default(), 4, tp, 8);
        assert!(out.sent_msgs > 0);
        assert!(out.rq_hits + out.rq_misses > 0);
        // Every logical queue starts unbound, so the cold first
        // delivery per tenant misses and the firmware rebinds a slot.
        assert!(out.rq_misses > 0);
        assert!(out.rebinds > 0);
        assert!(out.p99_ns > 0);
        // One confined tenant per node trips exactly one violation,
        // after which its queue is shut.
        assert_eq!(out.tx_violations, 4);
        assert!(out.hit_rate > 0.0 && out.hit_rate < 1.0);
    }

    #[test]
    fn hot_spot_with_qos_armed_reports_vc_stats() {
        let p = SystemParams {
            qos: Some(sv_arctic::QosParams {
                vcs: 2,
                credits_per_vc: 2,
                arbitration: sv_arctic::VcArbitration::Priority,
            }),
            ..Default::default()
        };
        let out = hot_spot(p, 4, 10, 4, 64);
        assert_eq!(out.hi_count, 4);
        assert!(out.hi_max_ns > 0);
    }
}
