//! The assembled NIU and its engine logic.
//!
//! [`Niu`] ties CTRL, the aBIU, the SRAM banks and the network FIFOs
//! together and advances them one 66 MHz cycle at a time. The owning node
//! drives it through four explicit interfaces:
//!
//! 1. **aP bus**: [`Niu::ap_snoop`] on every address tenure,
//!    [`Niu::ap_complete_store`] / [`Niu::ap_complete_load`] when a
//!    claimed operation's data phase finishes.
//! 2. **Bus mastering**: [`Niu::pop_abiu_request`] yields operations the
//!    node must issue on the bus; [`Niu::abiu_completed`] reports them
//!    done (after the node performed the request's functional
//!    [`DataMove`]).
//! 3. **Network**: [`Niu::push_arrival`] for inbound packets,
//!    [`Niu::pop_ready_packet`] for outbound.
//! 4. **sP**: [`Niu::sp`] returns the [`SpPort`] the firmware crate
//!    drives (the sBIU immediate-command interface plus the local
//!    command queues).

use crate::abiu::{ABiu, DataMove, SpRequest};
use crate::addrmap::{AddressMap, Region};
use crate::cmd::{BlockOp, LocalCmd};
use crate::ctrl::{BlockReadState, BlockTxState, Ctrl};
use crate::msg::{
    express, MsgClass, MsgData, MsgFlags, MsgHeader, NetPayload, RemoteCmdKind, MSG_CLASSES,
};
use crate::params::NiuParams;
use crate::queues::{QueueBuffer, QueueId, RxFullPolicy, RxService};
use crate::sram::{ClsSram, ClsState, Sram, SramSel};
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap, VecDeque};
use sv_arctic::{Packet, Priority};
use sv_membus::{BusOp, BusOpKind, MasterId, SnoopVerdict};
use sv_sim::stats::{Counter, Log2Histogram, Summary};

/// Maximum combined payload (message body + TagOn) per packet.
pub const MAX_PACKET_PAYLOAD: usize = 88;

/// Nanoseconds per 66 MHz bus cycle (the clock every NIU cost is charged
/// in); tenant latency histograms record in ns so they read directly.
pub const CYCLE_NS: u64 = 15;

/// Capacity of the remote command queue.
const REMOTE_Q_CAP: usize = 64;
/// Capacity of the TxU staging FIFO: when the network drains slower than
/// the IBus fills, the transmit and block-transmit engines stall here,
/// as in the hardware.
const TXU_FIFO_CAP: usize = 16;
/// Capacity of each local command queue.
const CMDQ_CAP: usize = 64;
/// How many aBIU requests the block-read unit keeps in flight.
const BLOCK_READ_WINDOW: usize = 8;

/// Interrupts the NIU raises toward the sP (and, for rx queues configured
/// that way, ultimately the aP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NiuInterrupt {
    /// A message arrived in an interrupt-mode receive queue.
    RxArrival(QueueId),
    /// A transmit queue was shut down by a protection violation.
    TxViolation(QueueId),
    /// The block-read unit finished an unchained operation.
    BlockReadDone,
    /// The block-transmit unit finished (data and notify all sent).
    BlockTxDone,
}

/// Follow-up bookkeeping for completed aBIU-mastered operations.
#[derive(Debug)]
enum ReqTag {
    /// Gates command queue `i` (in-order completion).
    CmdWait(usize),
    /// Part of a block read; `bytes` landed in aSRAM.
    BlockRead { bytes: u32 },
    /// Part of a remote-command write; optionally sets clsSRAM states
    /// when the final chunk lands (approach-5 hardware path).
    RemoteWrite {
        set_cls: Option<(u64, u64, ClsState)>,
    },
}

/// Per-traffic-class accounting: conservation counters plus the
/// inject→deliver latency summary (samples only when the NIU's latency
/// sampling is enabled; the counters are always on).
#[derive(Debug, Default, Clone, Copy)]
pub struct ClassStats {
    /// Packets launched (loopbacks included).
    pub sent: Counter,
    /// Packets accepted by the destination NIU (into a receive queue, or
    /// for [`MsgClass::Dma`] into the remote command queue).
    pub delivered: Counter,
    /// Packets discarded at the destination (disabled queue or full-queue
    /// Drop policy).
    pub dropped: Counter,
    /// Inject→deliver latency in 66 MHz cycles, for stamped packets.
    pub latency: Summary,
}

/// Top-level NIU statistics (engine-level stats live in the substructures).
#[derive(Debug, Default)]
pub struct NiuStats {
    /// Loopback msgs.
    pub loopback_msgs: Counter,
    /// Express dropped.
    pub express_dropped: Counter,
    /// Rxu high water.
    pub rxu_high_water: usize,
    /// Per-class conservation counters and latency, indexed by
    /// [`MsgClass`] as `usize`.
    pub class: [ClassStats; MSG_CLASSES],
    /// Packets retransmitted by the reliable layer after an ack timeout.
    pub retransmits: Counter,
    /// Acks this NIU generated (one per sequenced arrival, accepted or
    /// not — a re-ack is how the sender recovers from a lost ack).
    pub acks_sent: Counter,
    /// Ack packets this NIU consumed.
    pub acks_received: Counter,
    /// Sequenced arrivals discarded as duplicate or out-of-order
    /// (go-back-N accepts strictly in order).
    pub dup_drops: Counter,
    /// Frames discarded at the link interface with a failed CRC (the
    /// fault model corrupted them in flight).
    pub corrupt_drops: Counter,
    /// Messages abandoned by the rx engine after exhausting the
    /// full-queue retry cap ([`NiuParams::rx_full_retry_cap`]).
    pub rx_retry_drops: Counter,
    /// Packets the reliable layer abandoned after the retransmit cap
    /// (also counted in the owning class's `dropped`).
    pub reliable_dropped: Counter,
}

/// Per-tenant receive-side attribution, armed only when the machine is
/// built with tenancy. Tenant `t` owns logical rx queue `lq_base + t`;
/// arrivals into that queue record their inject→deliver latency here,
/// split by whether the queue-cache lookup hit a hardware slot (direct
/// delivery) or took the firmware miss path. The split is the
/// observable cost of the 16-slot cache fronting a large tenant
/// namespace — the quantity the S10 scaling study measures.
#[derive(Debug, Clone, Default)]
pub struct TenantAttr {
    /// First logical rx queue owned by a tenant.
    pub lq_base: u16,
    /// Tenants on this node.
    pub count: u16,
    /// Inject→deliver latency (ns) for arrivals whose queue-cache lookup
    /// landed in a hardware slot, per tenant.
    pub hit_latency: Vec<Log2Histogram>,
    /// Inject→deliver latency (ns) for arrivals that took the miss path,
    /// per tenant: stamped when the firmware dequeues them from the miss
    /// queue, so the sP service time is part of the cost.
    pub miss_latency: Vec<Log2Histogram>,
    /// Side channel carrying `(logical_q, sent_cycle)` for messages
    /// parked in the miss queue, keyed by the miss-queue producer index
    /// their slot was written at. The rx slot encoding keeps only
    /// `(src, lq, len)`, so the launch stamp would otherwise be lost on
    /// the miss path. `BTreeMap` for deterministic serialization order.
    pub miss_meta: BTreeMap<u16, (u16, u64)>,
}

impl TenantAttr {
    /// Fresh attribution state for `count` tenants at `lq_base`.
    pub fn new(lq_base: u16, count: u16) -> Self {
        TenantAttr {
            lq_base,
            count,
            hit_latency: vec![Log2Histogram::default(); count as usize],
            miss_latency: vec![Log2Histogram::default(); count as usize],
            miss_meta: BTreeMap::new(),
        }
    }

    /// Which tenant owns logical queue `lq`, if any.
    #[inline]
    pub fn tenant_of(&self, lq: u16) -> Option<usize> {
        let t = lq.checked_sub(self.lq_base)?;
        (t < self.count).then_some(t as usize)
    }
}

/// Per-`(destination, priority)` sender state of the reliable layer: a
/// go-back-N connection. Sequence numbers start at 1 (0 is the
/// "unsequenced" sentinel on the wire).
#[derive(Debug)]
struct RelConn {
    /// Next sequence number to assign.
    next_seq: u32,
    /// Unacked packets, oldest first, kept for retransmission.
    unacked: VecDeque<(u32, Packet<NetPayload>)>,
    /// Consecutive timeouts without ack progress.
    retries: u32,
    /// Cycle the retransmit timer fires (meaningful while `unacked` is
    /// nonempty).
    next_retry_cycle: u64,
}

impl RelConn {
    fn new() -> Self {
        RelConn {
            next_seq: 1,
            unacked: VecDeque::new(),
            retries: 0,
            next_retry_cycle: 0,
        }
    }
}

/// Traffic class charged for a packet the reliable layer abandons.
fn payload_class(p: &NetPayload) -> MsgClass {
    match p {
        NetPayload::Msg { data, .. } => data.class(),
        // Remote commands are the DMA/block machinery; control packets
        // are never sequenced, so the arm is for exhaustiveness only.
        NetPayload::RemoteCmd { .. } | NetPayload::Ack { .. } | NetPayload::RelSync { .. } => {
            MsgClass::Dma
        }
    }
}

/// Outcome of attempting to deliver a message into a receive queue.
enum Deliver {
    /// Delivered (or dropped per policy); engine busy until this cycle.
    Done(u64),
    /// Target full under Retry policy: leave the message where it is.
    Stall,
}

/// The NIU. See module docs for the interaction contract.
#[derive(Debug)]
pub struct Niu {
    /// Node id.
    pub node_id: u16,
    /// Timing/geometry parameters.
    pub params: NiuParams,
    /// Physical address map.
    pub map: AddressMap,
    /// The CTRL ASIC.
    pub ctrl: Ctrl,
    /// The aP-side bus interface unit.
    pub abiu: ABiu,
    /// The aSRAM bank.
    pub asram: Sram,
    /// The sSRAM bank.
    pub ssram: Sram,
    /// The cache-line-state SRAM.
    pub clssram: ClsSram,
    rxu_in: VecDeque<NetPayload>,
    txu_out: VecDeque<(u64, Packet<NetPayload>)>,
    sp_requests: VecDeque<SpRequest>,
    interrupts: VecDeque<NiuInterrupt>,
    req_tags: HashMap<u64, ReqTag>,
    /// Reliable-layer sender connections keyed by `(dst, priority index)`.
    /// `BTreeMap`, not `HashMap`: the retransmit sweep iterates it, and
    /// iteration order must be deterministic across runs.
    tx_rel: BTreeMap<(u16, u8), RelConn>,
    /// Reliable-layer receiver state: next expected sequence number per
    /// `(src, priority index)` stream.
    rx_expected: BTreeMap<(u16, u8), u32>,
    /// Consecutive full-queue stalls of the message at the head of
    /// `rxu_in` (only the head can stall; reset when it is consumed).
    rx_head_stalls: u32,
    /// Same, for a Notify at the head of the remote command queue.
    notify_head_stalls: u32,
    /// Running statistics.
    pub stats: NiuStats,
    /// Stamp launch cycles on outgoing packets so the receive side can
    /// record inject→deliver latencies. Off by default: the stamp is the
    /// only per-message cost the observability layer adds beyond counter
    /// increments, and switching it off keeps the hot path at one branch.
    pub sample_latency: bool,
    /// Per-tenant latency attribution; `None` unless the machine armed
    /// tenancy at build time. Arming implies `sample_latency` (the
    /// split needs launch stamps).
    pub tenant: Option<TenantAttr>,
    /// Whole-section dirty flag for the small (non-SRAM) NIU state, set by
    /// the entry points the run loops call. Runtime bookkeeping, never
    /// serialized; fresh and loaded NIUs start conservatively dirty.
    ckpt_dirty: bool,
}

impl Niu {
    /// A fresh NIU for node `node_id`.
    pub fn new(node_id: u16, params: NiuParams, map: AddressMap) -> Self {
        Niu {
            node_id,
            ctrl: Ctrl::new(&params),
            abiu: ABiu::new(map),
            asram: Sram::new(params.asram_bytes),
            ssram: Sram::new(params.ssram_bytes),
            clssram: ClsSram::new(params.cls_lines),
            rxu_in: VecDeque::new(),
            txu_out: VecDeque::new(),
            sp_requests: VecDeque::new(),
            interrupts: VecDeque::new(),
            req_tags: HashMap::new(),
            tx_rel: BTreeMap::new(),
            rx_expected: BTreeMap::new(),
            rx_head_stalls: 0,
            notify_head_stalls: 0,
            stats: NiuStats::default(),
            sample_latency: false,
            tenant: None,
            ckpt_dirty: true,
            params,
            map,
        }
    }

    fn sram(&self, sel: SramSel) -> &Sram {
        match sel {
            SramSel::A => &self.asram,
            SramSel::S => &self.ssram,
        }
    }

    fn sram_mut(&mut self, sel: SramSel) -> &mut Sram {
        match sel {
            SramSel::A => &mut self.asram,
            SramSel::S => &mut self.ssram,
        }
    }

    // =====================================================================
    // Node-facing interface
    // =====================================================================

    /// Advance every engine to `cycle`.
    pub fn tick(&mut self, cycle: u64) {
        self.ckpt_dirty = true;
        self.rx_step(cycle);
        self.tx_step(cycle);
        self.cmd_step(0, cycle);
        self.cmd_step(1, cycle);
        self.remote_step(cycle);
        self.block_read_step(cycle);
        self.block_tx_step(cycle);
        self.reliable_step(cycle);
    }

    /// A tick skipped because no engine was due and nothing touched the
    /// NIU since its wake was derived: [`Niu::tick`] would have changed
    /// nothing but the small-state dirty flag, so only that is set, and
    /// delta snapshots stay byte-identical.
    pub fn skip_tick(&mut self) {
        self.ckpt_dirty = true;
    }

    /// A packet arrived from the network (or was looped back locally).
    pub fn push_arrival(&mut self, payload: NetPayload) {
        self.ckpt_dirty = true;
        self.rxu_in.push_back(payload);
        if self.rxu_in.len() > self.stats.rxu_high_water {
            self.stats.rxu_high_water = self.rxu_in.len();
        }
    }

    /// A packet arrived from the network, envelope included. The link
    /// interface work happens here, before anything queues: CRC-failed
    /// frames are discarded, reliable-layer control packets (acks, stream
    /// resyncs) are consumed, and sequenced packets pass the go-back-N
    /// in-order check and are cumulatively acked. Accepted payloads then
    /// take the normal [`Niu::push_arrival`] path.
    pub fn push_arrival_packet(&mut self, cycle: u64, pkt: Packet<NetPayload>) {
        self.ckpt_dirty = true;
        if pkt.corrupt {
            // The frame failed its CRC: discard at the link, exactly as
            // the hardware would. The sender's retransmit timer (if the
            // reliable layer is on) recovers the payload.
            self.stats.corrupt_drops.bump();
            return;
        }
        match pkt.payload {
            NetPayload::Ack {
                src,
                prio_idx,
                ack_upto,
            } => {
                self.handle_ack(cycle, src, prio_idx, ack_upto);
                return;
            }
            NetPayload::RelSync {
                src,
                prio_idx,
                next_seq,
            } => {
                self.handle_rel_sync(src, prio_idx, next_seq);
                return;
            }
            _ => {}
        }
        if pkt.seq != 0 {
            let prio_idx = pkt.priority.index() as u8;
            let expected = self.rx_expected.entry((pkt.src, prio_idx)).or_insert(1);
            let accept = pkt.seq == *expected;
            if accept {
                *expected += 1;
            } else {
                self.stats.dup_drops.bump();
            }
            // Cumulative ack either way: re-acking a duplicate is how the
            // sender learns its original ack was lost.
            let ack_upto = *expected - 1;
            let ack = NetPayload::Ack {
                src: self.node_id,
                prio_idx,
                ack_upto,
            };
            let bytes = ack.payload_bytes();
            self.txu_out.push_back((
                cycle,
                Packet::new(self.node_id, pkt.src, Priority::High, bytes, ack),
            ));
            self.stats.acks_sent.bump();
            if !accept {
                return;
            }
        }
        self.push_arrival(pkt.payload);
    }

    /// Consume a cumulative ack for our `(peer, prio_idx)` stream.
    fn handle_ack(&mut self, cycle: u64, peer: u16, prio_idx: u8, ack_upto: u32) {
        self.stats.acks_received.bump();
        let Some(conn) = self.tx_rel.get_mut(&(peer, prio_idx)) else {
            return; // stale ack for a stream we no longer track
        };
        let mut progressed = false;
        while conn.unacked.front().is_some_and(|&(s, _)| s <= ack_upto) {
            conn.unacked.pop_front();
            progressed = true;
        }
        if progressed {
            conn.retries = 0;
            conn.next_retry_cycle = cycle + self.params.ack_timeout_cycles;
        }
    }

    /// A peer abandoned part of its stream to us; skip our expectation
    /// forward so the stream can make progress. Monotonic max guards
    /// against stale or reordered syncs.
    fn handle_rel_sync(&mut self, peer: u16, prio_idx: u8, next_seq: u32) {
        let expected = self.rx_expected.entry((peer, prio_idx)).or_insert(1);
        if next_seq > *expected {
            *expected = next_seq;
        }
    }

    /// Retransmit-timer sweep of the reliable layer: on timeout, go back
    /// N (resend the whole unacked window) with exponential backoff; past
    /// the retry cap, abandon the window — each packet counts dropped —
    /// and resynchronize the receiver.
    fn reliable_step(&mut self, cycle: u64) {
        if !self.params.reliable {
            return;
        }
        let timeout = self.params.ack_timeout_cycles;
        let shift_cap = self.params.retransmit_backoff_shift_cap;
        let cap = self.params.retransmit_cap;
        // BTreeMap: the sweep order is deterministic.
        for (&(dst, prio_idx), conn) in self.tx_rel.iter_mut() {
            if conn.unacked.is_empty() || cycle < conn.next_retry_cycle {
                continue;
            }
            if conn.retries >= cap {
                for (_, pkt) in conn.unacked.drain(..) {
                    self.stats.reliable_dropped.bump();
                    self.stats.class[payload_class(&pkt.payload) as usize]
                        .dropped
                        .bump();
                }
                conn.retries = 0;
                // Fire-and-forget resync; if it is lost too, later traffic
                // on the stream re-enters the timeout path and is dropped
                // the same counted way, so the run still terminates.
                let sync = NetPayload::RelSync {
                    src: self.node_id,
                    prio_idx,
                    next_seq: conn.next_seq,
                };
                let bytes = sync.payload_bytes();
                self.txu_out.push_back((
                    cycle,
                    Packet::new(self.node_id, dst, Priority::High, bytes, sync),
                ));
            } else {
                for (_, pkt) in conn.unacked.iter() {
                    self.stats.retransmits.bump();
                    self.txu_out.push_back((cycle, pkt.clone()));
                }
                conn.retries += 1;
                conn.next_retry_cycle = cycle + (timeout << conn.retries.min(shift_cap));
            }
        }
    }

    /// Take the next outbound packet whose processing finished by `cycle`.
    pub fn pop_ready_packet(&mut self, cycle: u64) -> Option<Packet<NetPayload>> {
        match self.txu_out.front() {
            Some(&(ready, _)) if ready <= cycle => {
                self.ckpt_dirty = true;
                self.txu_out.pop_front().map(|(_, p)| p)
            }
            _ => None,
        }
    }

    /// Cycle at which the next outbound packet becomes ready, if any.
    pub fn next_packet_ready(&self) -> Option<u64> {
        self.txu_out.front().map(|&(r, _)| r)
    }

    /// Next aBIU bus-master request, respecting the outstanding window.
    pub fn pop_abiu_request(&mut self) -> Option<crate::abiu::AbiuRequest> {
        self.abiu.pop_request(self.params.max_abiu_outstanding)
    }

    /// An aBIU-mastered bus operation completed (the node already applied
    /// its [`DataMove`]).
    pub fn abiu_completed(&mut self, id: u64) {
        self.abiu.request_completed();
        match self.req_tags.remove(&id) {
            Some(ReqTag::CmdWait(i)) => {
                self.ctrl.cmd_wait[i].ids.remove(&id);
            }
            Some(ReqTag::BlockRead { bytes }) => {
                let mut finished = false;
                let mut chained = false;
                if let Some(br) = &mut self.ctrl.block_read {
                    br.completed = (br.completed + bytes).min(br.total);
                    chained = br.chained;
                    if br.completed >= br.total {
                        finished = true;
                    }
                    if chained {
                        let completed = br.completed;
                        if let Some(bt) = &mut self.ctrl.block_tx {
                            bt.watermark = completed.min(bt.total);
                        }
                    }
                }
                if finished {
                    self.ctrl.block_read = None;
                    if !chained {
                        self.interrupts.push_back(NiuInterrupt::BlockReadDone);
                    }
                }
            }
            Some(ReqTag::RemoteWrite { set_cls }) => {
                debug_assert!(self.ctrl.remote_writes_outstanding > 0);
                self.ctrl.remote_writes_outstanding -= 1;
                if let Some((first, count, state)) = set_cls {
                    self.clssram.set_range(first, count, state);
                    for l in first..first + count {
                        self.abiu.scoma_clear_notified(l);
                    }
                }
            }
            None => {}
        }
    }

    /// Snoop an aP-issued bus operation: classification, clsSRAM check,
    /// ARTRY decision, sP notification. aBIU-mastered operations are not
    /// checked (they are the NIU's own traffic).
    pub fn ap_snoop(&mut self, op: &BusOp) -> SnoopVerdict {
        if op.master != MasterId::Ap {
            return SnoopVerdict::default();
        }
        // Write-tracking mode (the diff-ing extension): the clsSRAM
        // records written lines instead of gating accesses, so update
        // protocols can flush only what changed.
        if self.abiu.write_tracking {
            if let Region::Scoma = self.map.classify(op.addr) {
                if matches!(
                    op.kind,
                    BusOpKind::Rwitm
                        | BusOpKind::Kill
                        | BusOpKind::SingleWrite
                        | BusOpKind::WriteLine
                ) {
                    let line = self.map.scoma_line(op.addr);
                    self.clssram.set(line, ClsState::ReadWrite);
                }
                return SnoopVerdict::default();
            }
        }
        let cls = match self.map.classify(op.addr) {
            Region::Scoma => Some(self.clssram.get(self.map.scoma_line(op.addr))),
            _ => None,
        };
        let (claim, mut verdict, notify) = self.abiu.classify(op, cls);
        // ReadOnly S-COMA lines must install *Shared* in the aP caches:
        // the aBIU drives SHD so a later store is forced onto the bus
        // (as a Kill/RWITM) where the clsSRAM write check can catch it.
        // Without this, the cache would upgrade E→M silently and the
        // protocol would never see the write.
        if cls == Some(ClsState::ReadOnly) && op.kind.is_read() && !verdict.artry {
            verdict.shared = true;
        }
        if let Some(n) = notify {
            self.sp_requests.push_back(n);
        }
        // A full Express transmit queue retries the launching store until
        // space frees: lossless backpressure with no software involvement.
        if let crate::abiu::ClaimKind::ExpressTx { q, .. } = claim {
            let qi = q as usize;
            if qi < self.ctrl.tx.len() {
                let qd = &mut self.ctrl.tx[qi];
                if qd.enabled && qd.express && !qd.has_space() {
                    qd.full_stalls.bump();
                    return SnoopVerdict::retry();
                }
            }
        }
        // Claimed reads are supplied from SRAM / the aBIU's buffers.
        if op.kind.is_read()
            && !matches!(
                claim,
                crate::abiu::ClaimKind::Ignore | crate::abiu::ClaimKind::Retry
            )
        {
            verdict.supply_latency = verdict.supply_latency.max(self.params.sram_service_cycles);
        }
        verdict
    }

    /// A claimed aP store completed; apply its side effects.
    pub fn ap_complete_store(&mut self, cycle: u64, addr: u64, data: &[u8]) {
        match self.map.classify(addr) {
            Region::Asram(off) => {
                // aP-side port of the dual-ported aSRAM: no IBus crossing.
                self.asram.write(off, data);
            }
            Region::PtrUpdate { is_rx, q, value } => {
                if is_rx {
                    let qd = &mut self.ctrl.rx[q as usize];
                    if qd.enabled {
                        qd.consumer_update(value);
                    }
                } else {
                    let qd = &mut self.ctrl.tx[q as usize];
                    if qd.enabled {
                        qd.producer_update(value);
                    }
                }
            }
            Region::ExpressTx { q, dest, tag } => {
                let compose = self.params.express_compose_cycles;
                let qi = q as usize;
                if qi >= self.ctrl.tx.len() {
                    self.stats.express_dropped.bump();
                    return;
                }
                let (slot, ok) = {
                    let qd = &mut self.ctrl.tx[qi];
                    if !qd.enabled || !qd.express || !qd.has_space() {
                        (0, false)
                    } else {
                        let slot = qd.buf.slot_addr(qd.producer);
                        qd.enqueued.bump();
                        qd.producer = qd.producer.wrapping_add(1);
                        (slot, true)
                    }
                };
                if !ok {
                    self.stats.express_dropped.bump();
                    return;
                }
                let mut word = [0u8; 4];
                word[..data.len().min(4)].copy_from_slice(&data[..data.len().min(4)]);
                let entry = express::pack_tx_entry(dest, tag, word);
                let sel = self.ctrl.tx[qi].buf.sram;
                self.sram_mut(sel).write_u64(slot, entry);
                self.ctrl.ibus.acquire(cycle, compose);
                self.abiu.stats.express_tx.bump();
            }
            Region::Numa => {
                self.sp_requests.push_back(SpRequest::NumaStore {
                    addr,
                    data: Bytes::copy_from_slice(data),
                });
            }
            Region::Reflect => {
                // Reflective-memory capture: the local write is applied
                // by the node (the region is memory-backed); the aBIU
                // propagates the update to the mapped peer.
                assert!(
                    addr.is_multiple_of(8) && data.len() == 8,
                    "reflective-memory stores are 8-byte aligned doublewords"
                );
                if let Some((peer, peer_addr)) = self.abiu.reflect_lookup(addr) {
                    let payload = Bytes::copy_from_slice(data);
                    if self.abiu.reflect_hw {
                        // Enhanced-aBIU mode: hardware ships the update.
                        let end = self
                            .ctrl
                            .ibus
                            .acquire(cycle, self.params.express_compose_cycles);
                        self.send_packet(
                            end,
                            peer,
                            Priority::High,
                            MsgClass::Dma,
                            NetPayload::RemoteCmd {
                                src: self.node_id,
                                cmd: RemoteCmdKind::WriteDram {
                                    addr: peer_addr,
                                    data: payload,
                                },
                                sent_cycle: 0,
                            },
                        );
                    } else {
                        self.sp_requests.push_back(SpRequest::ReflectStore {
                            peer,
                            peer_addr,
                            data: payload,
                        });
                    }
                }
            }
            _ => {}
        }
    }

    /// A claimed aP load completed; return the data word.
    pub fn ap_complete_load(&mut self, cycle: u64, addr: u64, len: u32) -> u64 {
        match self.map.classify(addr) {
            Region::Asram(off) => {
                let mut b = [0u8; 8];
                let n = (len as usize).min(8);
                self.asram.read(off, &mut b[..n]);
                u64::from_le_bytes(b)
            }
            Region::ExpressRx { q } => {
                let qi = q as usize;
                if qi >= self.ctrl.rx.len() {
                    return express::RX_EMPTY;
                }
                let (slot, sel, ok) = {
                    let qd = &mut self.ctrl.rx[qi];
                    if !qd.express || qd.pending() == 0 {
                        (0, qd.buf.sram, false)
                    } else {
                        let slot = qd.buf.slot_addr(qd.consumer);
                        qd.dequeued.bump();
                        qd.consumer = qd.consumer.wrapping_add(1);
                        (slot, qd.buf.sram, true)
                    }
                };
                if !ok {
                    return express::RX_EMPTY;
                }
                self.ctrl
                    .ibus
                    .acquire(cycle, self.params.express_compose_cycles);
                self.abiu.stats.express_rx.bump();
                self.sram(sel).read_u64(slot)
            }
            Region::Numa => {
                let data = self.abiu.numa_take(addr).unwrap_or_default();
                let mut b = [0u8; 8];
                b[..data.len().min(8)].copy_from_slice(&data[..data.len().min(8)]);
                u64::from_le_bytes(b)
            }
            _ => 0,
        }
    }

    /// Pop the next raised interrupt, oldest first. The steady-state
    /// drain API: polling an empty line is free and draining never
    /// allocates, unlike [`Niu::take_interrupts`].
    pub fn pop_interrupt(&mut self) -> Option<NiuInterrupt> {
        self.interrupts.pop_front()
    }

    /// Drain raised interrupts into a fresh `Vec` (convenience for tests;
    /// hot paths use [`Niu::pop_interrupt`]).
    pub fn take_interrupts(&mut self) -> Vec<NiuInterrupt> {
        self.interrupts.drain(..).collect()
    }

    /// Pending aBIU→sBIU requests awaiting firmware.
    pub fn sp_requests_pending(&self) -> usize {
        self.sp_requests.len()
    }

    /// Whether any engine or queue still holds work (quiescence check;
    /// does not include pending sP requests, which firmware owns).
    pub fn has_work(&self) -> bool {
        self.ctrl.has_work()
            || !self.rxu_in.is_empty()
            || !self.txu_out.is_empty()
            || self.abiu.requests_pending() > 0
            || self.tx_rel.values().any(|c| !c.unacked.is_empty())
    }

    /// Whether raised interrupt lines await the firmware's drain.
    pub fn interrupts_pending(&self) -> bool {
        !self.interrupts.is_empty()
    }

    /// Earliest cycle >= `cycle` at which [`Niu::tick`] (or the machine's
    /// outbound-packet pop) can change NIU state, or `None` when every
    /// engine is drained or blocked. It stays exact until a bus
    /// completion reaches the NIU, a packet arrives, an outbound packet
    /// is popped or the firmware engages; the event loop derives it again
    /// after each of those. So an engine blocked on a condition only such
    /// an event clears reports nothing: the block-read DMA while its aBIU
    /// window is full, a local command engine while an in-order wait is
    /// outstanding or its `Block` head finds the unit busy, and an aBIU
    /// request while the outstanding window is full. An engine whose
    /// blocked retry itself changes state reports that retry (a Notify
    /// waiting on outstanding writes re-arms `remote_busy`). The other
    /// engines report their busy-timer expiry while they hold work, which
    /// may be early: a tick whose gates still block is a pure no-op.
    pub fn next_event_cycle(&self, cycle: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |c: u64| {
            let c = c.max(cycle);
            next = Some(next.map_or(c, |n: u64| n.min(c)));
        };
        let ctrl = &self.ctrl;
        // RXU: a queued arrival is processed once the engine frees.
        if !self.rxu_in.is_empty() {
            consider(ctrl.rx_busy);
        }
        // TXU: launches when a composed message is pending and the output
        // FIFO has room (the FIFO drains via the machine's pop below).
        if self.txu_out.len() < TXU_FIFO_CAP && ctrl.tx.iter().any(|q| q.enabled && q.pending() > 0)
        {
            consider(ctrl.tx_busy);
        }
        // Local command engines whose head command can start.
        for (i, &busy) in ctrl.cmd_busy.iter().enumerate() {
            if self.cmd_head_ready(i) {
                consider(busy);
            }
        }
        // Remote command engine. A Notify blocked on outstanding writes
        // re-arms `remote_busy` at every expiry — a state change that must
        // be executed on the same cycles as a cycle-stepped run.
        if !ctrl.remote_q.is_empty() {
            consider(ctrl.remote_busy);
        }
        // Block-read DMA issues a request every cycle its window has room;
        // it has no busy timer.
        if self.block_read_ready() {
            consider(cycle);
        }
        // Block-transmit engine.
        if ctrl.block_tx.is_some() {
            consider(ctrl.blocktx_busy);
        }
        // Outbound packets become visible to the network at their ready
        // cycle (popped by the machine, not by `tick`).
        if let Some(ready) = self.next_packet_ready() {
            consider(ready);
        }
        // Reliable-layer retransmit timers.
        for conn in self.tx_rel.values() {
            if !conn.unacked.is_empty() {
                consider(conn.next_retry_cycle);
            }
        }
        // aBIU master requests are drained by the node on the same tick
        // they appear; a queued residue waits for the outstanding window,
        // which frees on a bus completion.
        if self.abiu.request_ready(self.params.max_abiu_outstanding) {
            consider(cycle);
        }
        next
    }

    /// The firmware-facing port.
    pub fn sp(&mut self) -> SpPort<'_> {
        SpPort { niu: self }
    }

    /// Arm per-tenant attribution: tenant `t` of `count` owns logical rx
    /// queue `lq_base + t`. Called once at machine build time; implies
    /// latency sampling (the hit/miss split needs launch stamps) and
    /// per-logical-queue hit/miss counting in the queue cache.
    pub fn arm_tenancy(&mut self, lq_base: u16, count: u16) {
        self.ckpt_dirty = true;
        self.sample_latency = true;
        self.tenant = Some(TenantAttr::new(lq_base, count));
        self.ctrl.rx_cache.arm_per_lq();
    }

    // =====================================================================
    // Engines
    // =====================================================================

    /// Queue an outgoing packet, or loop it back locally when the
    /// destination is this node. Stamps the traffic class (always; one
    /// byte store) and, when latency sampling is on, the launch cycle.
    fn send_packet(
        &mut self,
        ready: u64,
        dst: u16,
        prio: Priority,
        class: MsgClass,
        mut payload: NetPayload,
    ) {
        self.stats.class[class as usize].sent.bump();
        match &mut payload {
            NetPayload::Msg { data, .. } => {
                data.set_class(class);
                if self.sample_latency {
                    // `.max(1)`: cycle 0 launches must not read as the
                    // "unstamped" sentinel.
                    data.set_sent_cycle(ready.max(1));
                }
            }
            NetPayload::RemoteCmd { sent_cycle, .. } => {
                if self.sample_latency {
                    *sent_cycle = ready.max(1);
                }
            }
            // Control packets of the reliable layer never take this path.
            NetPayload::Ack { .. } | NetPayload::RelSync { .. } => {}
        }
        if dst == self.node_id {
            self.stats.loopback_msgs.bump();
            self.push_arrival(payload);
            return;
        }
        let bytes = payload.payload_bytes();
        let mut pkt = Packet::new(self.node_id, dst, prio, bytes, payload);
        if self.params.reliable {
            let conn = self
                .tx_rel
                .entry((dst, prio.index() as u8))
                .or_insert_with(RelConn::new);
            pkt.seq = conn.next_seq;
            conn.next_seq += 1;
            if conn.unacked.is_empty() {
                conn.retries = 0;
                conn.next_retry_cycle = ready + self.params.ack_timeout_cycles;
            }
            conn.unacked.push_back((pkt.seq, pkt.clone()));
        }
        self.txu_out.push_back((ready, pkt));
    }

    fn rx_step(&mut self, cycle: u64) {
        if self.ctrl.rx_busy > cycle {
            return;
        }
        let Some(front) = self.rxu_in.front() else {
            return;
        };
        match front {
            NetPayload::RemoteCmd { .. } => {
                if self.ctrl.remote_q.len() >= REMOTE_Q_CAP {
                    return;
                }
                let Some(NetPayload::RemoteCmd {
                    src,
                    cmd,
                    sent_cycle,
                }) = self.rxu_in.pop_front()
                else {
                    unreachable!()
                };
                self.ctrl.remote_q.push_back((src, cmd));
                self.ctrl.stats.remote_cmds.bump();
                // DMA-class delivery point: acceptance into the remote
                // command queue (the inner Notify message, if any, is not
                // double-counted).
                let cs = &mut self.stats.class[MsgClass::Dma as usize];
                cs.delivered.bump();
                if sent_cycle != 0 {
                    cs.latency.record(cycle.saturating_sub(sent_cycle));
                }
                self.rx_head_stalls = 0;
                self.ctrl.rx_busy = cycle + 1;
            }
            NetPayload::Msg { .. } => {
                // Pop, deliver, and push back on a stall: the payload is
                // an inline [`MsgData`], so the round trip is a plain copy
                // (the old peek-and-clone allocated on every poll).
                let Some(NetPayload::Msg {
                    src,
                    logical_q,
                    data,
                }) = self.rxu_in.pop_front()
                else {
                    unreachable!()
                };
                let track = Some((data.class(), data.sent_cycle()));
                match self.deliver_msg(cycle, src, logical_q, &data, track) {
                    Deliver::Done(end) => {
                        self.rx_head_stalls = 0;
                        self.ctrl.rx_busy = end;
                    }
                    Deliver::Stall => {
                        self.rx_head_stalls += 1;
                        if self.rx_head_stalls >= self.params.rx_full_retry_cap {
                            // A persistently-full Retry queue would stall
                            // the engine forever (and hang the run); give
                            // up on this message and count it.
                            self.rx_head_stalls = 0;
                            self.stats.rx_retry_drops.bump();
                            self.ctrl.stats.msgs_dropped.bump();
                            self.stats.class[data.class() as usize].dropped.bump();
                            self.ctrl.rx_busy = cycle + self.params.rx_engine_overhead_cycles;
                        } else {
                            self.rxu_in.push_front(NetPayload::Msg {
                                src,
                                logical_q,
                                data,
                            });
                            self.ctrl.rx_busy = cycle + self.params.rx_full_retry_cycles;
                        }
                    }
                }
            }
            // Reliable-layer control normally never queues (it is consumed
            // at [`Niu::push_arrival_packet`]); a loopback or direct
            // `push_arrival` of one is still honored here.
            NetPayload::Ack { .. } | NetPayload::RelSync { .. } => {
                match self.rxu_in.pop_front() {
                    Some(NetPayload::Ack {
                        src,
                        prio_idx,
                        ack_upto,
                    }) => self.handle_ack(cycle, src, prio_idx, ack_upto),
                    Some(NetPayload::RelSync {
                        src,
                        prio_idx,
                        next_seq,
                    }) => self.handle_rel_sync(src, prio_idx, next_seq),
                    _ => unreachable!(),
                }
                self.rx_head_stalls = 0;
                self.ctrl.rx_busy = cycle + 1;
            }
        }
    }

    /// Deliver a message into (the hardware slot caching) `logical_q`.
    ///
    /// `track` carries per-class accounting metadata `(class, sent_cycle)`
    /// for network messages; `None` for Notify bodies, whose packet was
    /// already accounted as [`MsgClass::Dma`] at remote-queue acceptance.
    fn deliver_msg(
        &mut self,
        cycle: u64,
        src: u16,
        logical_q: u16,
        data: &[u8],
        track: Option<(MsgClass, u64)>,
    ) -> Deliver {
        let overhead = self.params.rx_engine_overhead_cycles;
        let miss_slot = self.params.miss_queue_slot;
        let mut target = match self.ctrl.rx_cache.translate(logical_q) {
            Some(q) => q.0 as usize,
            None => miss_slot,
        };
        loop {
            let q = &self.ctrl.rx[target];
            if !q.enabled {
                self.ctrl.stats.msgs_dropped.bump();
                if let Some((class, _)) = track {
                    self.stats.class[class as usize].dropped.bump();
                }
                return Deliver::Done(cycle + overhead);
            }
            if q.has_space() {
                break;
            }
            match q.full_policy {
                RxFullPolicy::Retry => {
                    self.ctrl.rx[target].full_stalls.bump();
                    return Deliver::Stall;
                }
                RxFullPolicy::Drop => {
                    self.ctrl.rx[target].dropped.bump();
                    self.ctrl.stats.msgs_dropped.bump();
                    if let Some((class, _)) = track {
                        self.stats.class[class as usize].dropped.bump();
                    }
                    return Deliver::Done(cycle + overhead);
                }
                RxFullPolicy::Divert => {
                    if target == miss_slot {
                        // The miss queue itself is full: drop.
                        self.ctrl.rx[target].dropped.bump();
                        self.ctrl.stats.msgs_dropped.bump();
                        if let Some((class, _)) = track {
                            self.stats.class[class as usize].dropped.bump();
                        }
                        return Deliver::Done(cycle + overhead);
                    }
                    self.ctrl.rx[target].diverted.bump();
                    self.ctrl.stats.msgs_diverted.bump();
                    self.ctrl.rx_cache.note_diversion(logical_q);
                    target = miss_slot;
                }
            }
        }
        // Write the message into the slot.
        let q = &self.ctrl.rx[target];
        let sel = q.buf.sram;
        let slot = q.buf.slot_addr(q.producer);
        let express_q = q.express;
        let shadow = q.shadow_addr;
        let service = q.service;
        let entry_bytes = if express_q {
            let tag = data.first().copied().unwrap_or(0);
            let mut word = [0u8; 4];
            let n = data.len().saturating_sub(1).min(4);
            word[..n].copy_from_slice(&data[1..1 + n]);
            self.sram_mut(sel)
                .write_u64(slot, express::pack_rx(src, tag, word));
            8u32
        } else {
            let hdr = encode_rx_slot(src, logical_q, data.len() as u8);
            self.sram_mut(sel).write(slot, &hdr);
            self.sram_mut(sel).write(slot + 8, data);
            8 + data.len() as u32
        };
        let end = self
            .ctrl
            .ibus
            .acquire(cycle, self.params.ibus_cycles(entry_bytes));
        let q = &mut self.ctrl.rx[target];
        q.producer = q.producer.wrapping_add(1);
        q.received.bump();
        let producer = q.producer;
        if let Some((ssel, saddr)) = shadow {
            self.sram_mut(ssel).write_u64(saddr, producer as u64);
            self.ctrl.ibus.acquire(cycle, 1);
        }
        if service == RxService::Interrupt {
            self.interrupts
                .push_back(NiuInterrupt::RxArrival(QueueId(target as u8)));
        }
        self.ctrl.stats.msgs_delivered.bump();
        if let Some((class, sent_cycle)) = track {
            let cs = &mut self.stats.class[class as usize];
            cs.delivered.bump();
            if sent_cycle != 0 {
                cs.latency.record(cycle.saturating_sub(sent_cycle));
            }
            if let Some(ta) = &mut self.tenant {
                if let Some(t) = ta.tenant_of(logical_q) {
                    if sent_cycle != 0 {
                        if target == miss_slot {
                            // Latency completes when firmware services the
                            // miss queue; park the stamp keyed by the slot
                            // this message landed at (pre-increment
                            // producer).
                            ta.miss_meta
                                .insert(producer.wrapping_sub(1), (logical_q, sent_cycle));
                        } else {
                            ta.hit_latency[t].record(cycle.saturating_sub(sent_cycle) * CYCLE_NS);
                        }
                    }
                }
            }
        }
        Deliver::Done(end + overhead)
    }

    fn tx_step(&mut self, cycle: u64) {
        if self.ctrl.tx_busy > cycle || self.txu_out.len() >= TXU_FIFO_CAP {
            return;
        }
        let Some(qi) = self.ctrl.pick_tx_queue() else {
            return;
        };
        let overhead = self.params.tx_engine_overhead_cycles;
        let (sel, slot, express_q) = {
            let q = &self.ctrl.tx[qi];
            (q.buf.sram, q.buf.slot_addr(q.consumer), q.express)
        };
        if express_q {
            let entry = self.sram(sel).read_u64(slot);
            let (dest, tag, word) = express::unpack_tx_entry(entry);
            let masked = self.ctrl.tx[qi].masked_dest(dest);
            let Some(x) = self.ctrl.xlate.lookup(masked) else {
                self.tx_violation(qi);
                return;
            };
            let mut payload = MsgData::empty();
            payload.append(&[tag]);
            payload.append(&word);
            let cost = overhead + self.params.ibus_cycles(8) + 2;
            let end = self.ctrl.ibus.acquire(cycle, cost);
            self.advance_tx_consumer(qi);
            self.send_packet(
                end,
                x.node,
                x.priority(),
                MsgClass::Express,
                NetPayload::Msg {
                    src: self.node_id,
                    logical_q: x.logical_q,
                    data: payload,
                },
            );
            self.ctrl.tx_busy = end;
            return;
        }
        // Basic message: header + payload from SRAM.
        let mut hdr_b = [0u8; 8];
        self.sram(sel).read(slot, &mut hdr_b);
        let hdr = MsgHeader::decode(&hdr_b);
        let (node, logical_q, prio) = if hdr.flags.contains(MsgFlags::RAW) {
            if !self.ctrl.tx[qi].raw_allowed {
                self.tx_violation(qi);
                return;
            }
            let (n, q) = MsgHeader::split_raw_dest(hdr.dest);
            let prio = if hdr.flags.contains(MsgFlags::PRIO_HIGH) {
                Priority::High
            } else {
                Priority::Low
            };
            (n, q as u16, prio)
        } else {
            let masked = self.ctrl.tx[qi].masked_dest(hdr.dest);
            let Some(x) = self.ctrl.xlate.lookup(masked) else {
                self.tx_violation(qi);
                return;
            };
            (x.node, x.logical_q, x.priority())
        };
        let mut data = MsgData::with_len(hdr.len as usize);
        self.sram(sel).read(slot + 8, data.as_mut_slice());
        let mut cost = overhead + self.params.ibus_cycles(8 + hdr.len as u32) + 2;
        let class = if hdr.flags.contains(MsgFlags::TAGON) {
            MsgClass::TagOn
        } else {
            MsgClass::Basic
        };
        if hdr.flags.contains(MsgFlags::TAGON) {
            assert!(
                data.len() + hdr.tagon_len as usize <= MAX_PACKET_PAYLOAD,
                "message + TagOn exceeds the 88-byte packet payload"
            );
            let tagon = data.extend_zeroed(hdr.tagon_len as usize);
            self.sram(sel).read(hdr.tagon_addr(), tagon);
            cost += self.params.ibus_cycles(hdr.tagon_len as u32);
            self.ctrl.stats.tagon_bytes += hdr.tagon_len as u64;
        }
        let end = self.ctrl.ibus.acquire(cycle, cost);
        self.advance_tx_consumer(qi);
        self.ctrl.stats.msgs_launched.bump();
        self.send_packet(
            end,
            node,
            prio,
            class,
            NetPayload::Msg {
                src: self.node_id,
                logical_q,
                data,
            },
        );
        self.ctrl.tx_busy = end;
    }

    /// Free the head slot of tx queue `qi` and refresh its consumer shadow.
    fn advance_tx_consumer(&mut self, qi: usize) {
        let q = &mut self.ctrl.tx[qi];
        q.consumer = q.consumer.wrapping_add(1);
        q.sent.bump();
        let consumer = q.consumer;
        if let Some((ssel, saddr)) = q.shadow_addr {
            self.sram_mut(ssel).write_u64(saddr, consumer as u64);
        }
    }

    /// Protection violation: shut the queue down and notify firmware/OS.
    fn tx_violation(&mut self, qi: usize) {
        let q = &mut self.ctrl.tx[qi];
        q.enabled = false;
        q.violations.bump();
        self.ctrl.stats.violations.bump();
        self.interrupts
            .push_back(NiuInterrupt::TxViolation(QueueId(qi as u8)));
        self.sp_requests
            .push_back(SpRequest::Violation { q: qi as u8 });
    }

    /// Whether local command engine `i` holds a head command that can
    /// start once its busy timer expires: no in-order wait is
    /// outstanding, and a `Block` head finds its unit free. The one gate
    /// [`Niu::cmd_step`] and [`Niu::next_event_cycle`] share, so the
    /// engine's wake is exact.
    fn cmd_head_ready(&self, i: usize) -> bool {
        let ctrl = &self.ctrl;
        if !ctrl.cmd_wait[i].ids.is_empty() {
            return false;
        }
        match ctrl.cmdq[i].front() {
            None => false,
            // Block commands stall at the head until their unit frees.
            Some(LocalCmd::Block(op)) => match op {
                BlockOp::Read { .. } => ctrl.block_read.is_none(),
                BlockOp::Tx { .. } => ctrl.block_tx.is_none(),
                BlockOp::ReadTx { .. } => ctrl.block_read.is_none() && ctrl.block_tx.is_none(),
            },
            Some(_) => true,
        }
    }

    fn cmd_step(&mut self, i: usize, cycle: u64) {
        if self.ctrl.cmd_busy[i] > cycle || !self.cmd_head_ready(i) {
            return;
        }
        let Some(cmd) = self.ctrl.cmdq[i].pop_front() else {
            return;
        };
        self.ctrl.stats.cmds_executed.bump();
        let decode = self.params.cmd_decode_cycles;
        match cmd {
            LocalCmd::WriteSramU64 { sram, addr, data } => {
                self.sram_mut(sram).write_u64(addr, data);
                let end = self
                    .ctrl
                    .ibus
                    .acquire(cycle, decode + self.params.ibus_cycles(8));
                self.ctrl.cmd_busy[i] = end;
            }
            LocalCmd::CopySram { src, dst, len } => {
                let data = self.sram(src.0).read_vec(src.1, len as usize);
                self.sram_mut(dst.0).write(dst.1, &data);
                let cost = decode + 2 * self.params.ibus_cycles(len);
                self.ctrl.cmd_busy[i] = self.ctrl.ibus.acquire(cycle, cost);
            }
            LocalCmd::BusRead {
                dram_addr,
                sram,
                sram_addr,
                len,
            } => {
                self.issue_bus_chunks(i, dram_addr, sram, sram_addr, len, true);
                let cost = decode + self.params.ibus_cycles(len);
                self.ctrl.cmd_busy[i] = self.ctrl.ibus.acquire(cycle, cost);
            }
            LocalCmd::BusWrite {
                dram_addr,
                sram,
                sram_addr,
                len,
            } => {
                self.issue_bus_chunks(i, dram_addr, sram, sram_addr, len, false);
                let cost = decode + self.params.ibus_cycles(len);
                self.ctrl.cmd_busy[i] = self.ctrl.ibus.acquire(cycle, cost);
            }
            LocalCmd::SendMsg {
                header,
                sram,
                addr,
                raw_node,
            } => {
                let mut data = MsgData::with_len(header.len as usize);
                self.sram(sram).read(addr, data.as_mut_slice());
                self.fw_send(i, cycle, header, data, sram, raw_node);
            }
            LocalCmd::SendDirect {
                node,
                logical_q,
                priority,
                data,
                tagon,
            } => {
                let mut body = MsgData::new(&data);
                let mut cost = decode + self.params.ibus_cycles(8 + body.len() as u32) + 2;
                let class = if tagon.is_some() {
                    MsgClass::TagOn
                } else {
                    MsgClass::Basic
                };
                if let Some((tsel, taddr, tlen)) = tagon {
                    assert!(body.len() + tlen as usize <= MAX_PACKET_PAYLOAD);
                    let t = body.extend_zeroed(tlen as usize);
                    self.sram(tsel).read(taddr, t);
                    cost += self.params.ibus_cycles(tlen as u32);
                    self.ctrl.stats.tagon_bytes += tlen as u64;
                }
                let end = self.ctrl.ibus.acquire(cycle, cost);
                self.ctrl.stats.msgs_launched.bump();
                self.send_packet(
                    end,
                    node,
                    priority,
                    class,
                    NetPayload::Msg {
                        src: self.node_id,
                        logical_q,
                        data: body,
                    },
                );
                self.ctrl.cmd_busy[i] = end;
            }
            LocalCmd::SendRemoteWrite {
                node,
                remote_addr,
                sram,
                sram_addr,
                len,
                set_cls,
            } => {
                let data = Bytes::from(self.sram(sram).read_vec(sram_addr, len as usize));
                let cmd = match set_cls {
                    Some(state) => RemoteCmdKind::WriteDramSetCls {
                        addr: remote_addr,
                        data,
                        state: state.bits(),
                    },
                    None => RemoteCmdKind::WriteDram {
                        addr: remote_addr,
                        data,
                    },
                };
                let cost = decode + self.params.ibus_cycles(cmd.payload_bytes());
                let end = self.ctrl.ibus.acquire(cycle, cost);
                self.send_packet(
                    end,
                    node,
                    Priority::High,
                    MsgClass::Dma,
                    NetPayload::RemoteCmd {
                        src: self.node_id,
                        cmd,
                        sent_cycle: 0,
                    },
                );
                self.ctrl.cmd_busy[i] = end;
            }
            LocalCmd::BusFlush { addr } => {
                let id = self
                    .abiu
                    .push_request(BusOpKind::Flush, addr, 0, DataMove::None);
                self.req_tags.insert(id, ReqTag::CmdWait(i));
                self.ctrl.cmd_wait[i].ids.insert(id);
                self.ctrl.cmd_busy[i] = cycle + decode;
            }
            LocalCmd::SendRemoteCmd { node, cmd } => {
                let cost = decode + self.params.ibus_cycles(cmd.payload_bytes());
                let end = self.ctrl.ibus.acquire(cycle, cost);
                self.send_packet(
                    end,
                    node,
                    Priority::High,
                    MsgClass::Dma,
                    NetPayload::RemoteCmd {
                        src: self.node_id,
                        cmd,
                        sent_cycle: 0,
                    },
                );
                self.ctrl.cmd_busy[i] = end;
            }
            LocalCmd::Block(op) => {
                self.install_block(op);
                self.ctrl.cmd_busy[i] = cycle + decode;
            }
            LocalCmd::SetCls { line, state } => {
                self.clssram.set(line, state);
                self.abiu.scoma_clear_notified(line);
                self.ctrl.cmd_busy[i] = cycle + decode + 1;
            }
            LocalCmd::SetClsRange {
                first,
                count,
                state,
            } => {
                self.clssram.set_range(first, count, state);
                for l in first..first + count {
                    self.abiu.scoma_clear_notified(l);
                }
                self.ctrl.cmd_busy[i] = cycle + decode + count;
            }
            LocalCmd::TxPtrUpdate { q, producer } => {
                let qd = &mut self.ctrl.tx[q.0 as usize];
                if qd.enabled {
                    qd.producer_update(producer);
                }
                self.ctrl.cmd_busy[i] = cycle + decode;
            }
            LocalCmd::RxPtrUpdate { q, consumer } => {
                self.ctrl.rx[q.0 as usize].consumer_update(consumer);
                self.ctrl.cmd_busy[i] = cycle + decode;
            }
            LocalCmd::BindRxQueue { logical, hw } => {
                self.ctrl.rx_cache.bind(logical, hw);
                self.ctrl.cmd_busy[i] = cycle + decode + 2;
            }
            LocalCmd::SetTxEnabled { q, enabled } => {
                self.ctrl.tx[q.0 as usize].enabled = enabled;
                self.ctrl.cmd_busy[i] = cycle + decode;
            }
        }
    }

    /// Firmware-initiated SendMsg (translated unless `raw_node` given).
    fn fw_send(
        &mut self,
        i: usize,
        cycle: u64,
        header: MsgHeader,
        mut data: MsgData,
        sram: SramSel,
        raw_node: Option<(u16, u16, Priority)>,
    ) {
        let decode = self.params.cmd_decode_cycles;
        let (node, logical_q, prio) = match raw_node {
            Some(r) => r,
            None => match self.ctrl.xlate.lookup(header.dest) {
                Some(x) => (x.node, x.logical_q, x.priority()),
                None => {
                    // Firmware sends are privileged; a missing entry is a
                    // firmware bug, surfaced as a dropped message.
                    self.ctrl.stats.msgs_dropped.bump();
                    self.ctrl.cmd_busy[i] = cycle + decode;
                    return;
                }
            },
        };
        let mut cost = decode + self.params.ibus_cycles(8 + data.len() as u32) + 2;
        let class = if header.flags.contains(MsgFlags::TAGON) {
            MsgClass::TagOn
        } else {
            MsgClass::Basic
        };
        if header.flags.contains(MsgFlags::TAGON) {
            assert!(data.len() + header.tagon_len as usize <= MAX_PACKET_PAYLOAD);
            let t = data.extend_zeroed(header.tagon_len as usize);
            self.sram(sram).read(header.tagon_addr(), t);
            cost += self.params.ibus_cycles(header.tagon_len as u32);
            self.ctrl.stats.tagon_bytes += header.tagon_len as u64;
        }
        let end = self.ctrl.ibus.acquire(cycle, cost);
        self.ctrl.stats.msgs_launched.bump();
        self.send_packet(
            end,
            node,
            prio,
            class,
            NetPayload::Msg {
                src: self.node_id,
                logical_q,
                data,
            },
        );
        self.ctrl.cmd_busy[i] = end;
    }

    /// Issue the aBIU bus operations for an in-order BusRead/BusWrite.
    fn issue_bus_chunks(
        &mut self,
        i: usize,
        dram: u64,
        sram: SramSel,
        sram_addr: u32,
        len: u32,
        read: bool,
    ) {
        assert_eq!(dram % 8, 0, "command-queue bus ops are 8-byte aligned");
        assert_eq!(len % 8, 0, "command-queue bus ops move multiples of 8");
        let mut off = 0u32;
        while off < len {
            let a = dram + off as u64;
            let chunk = if a.is_multiple_of(32) && len - off >= 32 {
                32
            } else {
                8
            };
            let (kind, move_) = if read {
                (
                    if chunk == 32 {
                        BusOpKind::Read
                    } else {
                        BusOpKind::SingleRead
                    },
                    DataMove::DramToSram {
                        dram: a,
                        sram,
                        sram_addr: sram_addr + off,
                        len: chunk,
                    },
                )
            } else {
                (
                    if chunk == 32 {
                        BusOpKind::WriteLine
                    } else {
                        BusOpKind::SingleWrite
                    },
                    DataMove::SramToDram {
                        sram,
                        sram_addr: sram_addr + off,
                        dram: a,
                        len: chunk,
                    },
                )
            };
            let id = self.abiu.push_request(kind, a, chunk, move_);
            self.req_tags.insert(id, ReqTag::CmdWait(i));
            self.ctrl.cmd_wait[i].ids.insert(id);
            off += chunk;
        }
    }

    fn install_block(&mut self, op: BlockOp) {
        assert!(op.len() <= 4096, "block operations are limited to a page");
        match op {
            BlockOp::Read {
                dram_addr,
                sram_addr,
                len,
            } => {
                debug_assert!(self.ctrl.block_read.is_none());
                self.ctrl.block_read = Some(BlockReadState {
                    dram: dram_addr,
                    sram_addr,
                    total: len,
                    issued: 0,
                    completed: 0,
                    chained: false,
                });
            }
            BlockOp::Tx {
                sram_addr,
                len,
                node,
                remote_addr,
                set_cls,
                notify,
            } => {
                debug_assert!(self.ctrl.block_tx.is_none());
                self.ctrl.block_tx = Some(BlockTxState {
                    sram_addr,
                    total: len,
                    sent: 0,
                    node,
                    remote_addr,
                    set_cls,
                    notify,
                    watermark: len,
                });
            }
            BlockOp::ReadTx {
                dram_addr,
                len,
                sram_addr,
                node,
                remote_addr,
                set_cls,
                notify,
            } => {
                debug_assert!(self.ctrl.block_read.is_none() && self.ctrl.block_tx.is_none());
                self.ctrl.block_read = Some(BlockReadState {
                    dram: dram_addr,
                    sram_addr,
                    total: len,
                    issued: 0,
                    completed: 0,
                    chained: true,
                });
                self.ctrl.block_tx = Some(BlockTxState {
                    sram_addr,
                    total: len,
                    sent: 0,
                    node,
                    remote_addr,
                    set_cls,
                    notify,
                    watermark: 0,
                });
            }
        }
    }

    /// Whether the block-read DMA has bytes left to request and room in
    /// its aBIU window: the gate of [`Niu::block_read_step`] and of its
    /// wake.
    fn block_read_ready(&self) -> bool {
        self.ctrl
            .block_read
            .as_ref()
            .is_some_and(|br| br.issued < br.total)
            && self.abiu.requests_pending() < BLOCK_READ_WINDOW
    }

    fn block_read_step(&mut self, _cycle: u64) {
        if !self.block_read_ready() {
            return;
        }
        let Some(br) = &mut self.ctrl.block_read else {
            return;
        };
        let a = br.dram + br.issued as u64;
        let rem = br.total - br.issued;
        let chunk = if a.is_multiple_of(32) && rem >= 32 {
            32
        } else {
            8
        };
        let kind = if chunk == 32 {
            BusOpKind::Read
        } else {
            BusOpKind::SingleRead
        };
        let move_ = DataMove::DramToSram {
            dram: a,
            sram: SramSel::A,
            sram_addr: br.sram_addr + br.issued,
            len: chunk,
        };
        br.issued += chunk;
        let id = self.abiu.push_request(kind, a, chunk, move_);
        self.req_tags.insert(id, ReqTag::BlockRead { bytes: chunk });
    }

    fn block_tx_step(&mut self, cycle: u64) {
        if self.ctrl.blocktx_busy > cycle || self.txu_out.len() >= TXU_FIFO_CAP {
            return;
        }
        let Some(bt) = &self.ctrl.block_tx else {
            return;
        };
        if bt.sent >= bt.total {
            // All data sent: emit the notify (ordered behind the data on
            // the same remote-command stream), then retire the unit.
            let bt = self.ctrl.block_tx.take().expect("checked");
            if let Some((lq, data)) = bt.notify {
                let cost = self.params.block_tx_pkt_overhead_cycles
                    + self.params.ibus_cycles(8 + data.len() as u32);
                let end = self.ctrl.ibus.acquire(cycle, cost);
                self.send_packet(
                    end,
                    bt.node,
                    Priority::High,
                    MsgClass::Dma,
                    NetPayload::RemoteCmd {
                        src: self.node_id,
                        cmd: RemoteCmdKind::Notify {
                            logical_q: lq,
                            data,
                        },
                        sent_cycle: 0,
                    },
                );
                self.ctrl.blocktx_busy = end;
            }
            self.interrupts.push_back(NiuInterrupt::BlockTxDone);
            return;
        }
        let avail = bt.watermark.saturating_sub(bt.sent);
        if avail == 0 {
            return;
        }
        // Rate-match with the chained read: send only full chunks until
        // the final tail, so a fast IBus cannot degrade wire efficiency
        // by racing ahead of the read watermark with undersized packets.
        if avail < self.params.block_tx_chunk_bytes && bt.watermark < bt.total {
            return;
        }
        let chunk = self
            .params
            .block_tx_chunk_bytes
            .min(bt.total - bt.sent)
            .min(avail);
        let (sram_addr, sent, node, remote_addr, set_cls) =
            (bt.sram_addr, bt.sent, bt.node, bt.remote_addr, bt.set_cls);
        let data = Bytes::from(self.asram.read_vec(sram_addr + sent, chunk as usize));
        let cmd = match set_cls {
            Some(state) => RemoteCmdKind::WriteDramSetCls {
                addr: remote_addr + sent as u64,
                data,
                state: state.bits(),
            },
            None => RemoteCmdKind::WriteDram {
                addr: remote_addr + sent as u64,
                data,
            },
        };
        let cost = self.params.block_tx_pkt_overhead_cycles + self.params.ibus_cycles(8 + chunk);
        let end = self.ctrl.ibus.acquire(cycle, cost);
        self.ctrl.stats.dma_chain_steps.bump();
        self.send_packet(
            end,
            node,
            Priority::High,
            MsgClass::Dma,
            NetPayload::RemoteCmd {
                src: self.node_id,
                cmd,
                sent_cycle: 0,
            },
        );
        self.ctrl.block_tx.as_mut().expect("checked").sent += chunk;
        self.ctrl.blocktx_busy = end;
    }

    fn remote_step(&mut self, cycle: u64) {
        if self.ctrl.remote_busy > cycle {
            return;
        }
        let Some((_, front)) = self.ctrl.remote_q.front() else {
            return;
        };
        // Notify waits for every outstanding remote write to land: the
        // completion scoreboard that makes notify-after-data a guarantee.
        if matches!(front, RemoteCmdKind::Notify { .. }) && self.ctrl.remote_writes_outstanding > 0
        {
            self.ctrl.remote_busy = cycle + 2;
            return;
        }
        let (src, cmd) = self.ctrl.remote_q.pop_front().expect("checked");
        let overhead = self.params.remote_cmd_overhead_cycles;
        match cmd {
            RemoteCmdKind::SetCls { line, state } => {
                self.clssram.set(line, ClsState::from_bits(state));
                self.abiu.scoma_clear_notified(line);
                self.ctrl.remote_busy = cycle + overhead;
            }
            RemoteCmdKind::Notify { logical_q, data } => {
                match self.deliver_msg(cycle, src, logical_q, &data, None) {
                    Deliver::Done(end) => {
                        self.notify_head_stalls = 0;
                        self.ctrl.remote_busy = end.max(cycle + overhead);
                    }
                    Deliver::Stall => {
                        self.notify_head_stalls += 1;
                        if self.notify_head_stalls >= self.params.rx_full_retry_cap {
                            // Bounded like the rx engine's retry: drop the
                            // notify body rather than stall the remote
                            // queue forever. The packet was already
                            // counted delivered (Dma) at remote-queue
                            // acceptance, so only the engine-level drop
                            // counters move here.
                            self.notify_head_stalls = 0;
                            self.stats.rx_retry_drops.bump();
                            self.ctrl.stats.msgs_dropped.bump();
                            self.ctrl.remote_busy = cycle + overhead;
                        } else {
                            // Put it back and retry later.
                            self.ctrl
                                .remote_q
                                .push_front((src, RemoteCmdKind::Notify { logical_q, data }));
                            self.ctrl.remote_busy = cycle + self.params.rx_full_retry_cycles;
                        }
                    }
                }
            }
            RemoteCmdKind::WriteDram { addr, data } => {
                self.issue_remote_write(cycle, addr, data, None);
            }
            RemoteCmdKind::WriteDramSetCls { addr, data, state } => {
                let first = self.map.scoma_line(addr);
                let count = (data.len() as u64).div_ceil(sv_membus::CACHE_LINE);
                self.issue_remote_write(
                    cycle,
                    addr,
                    data,
                    Some((first, count.max(1), ClsState::from_bits(state))),
                );
            }
        }
    }

    /// Chunk a remote write into aP bus operations; `set_cls` rides on the
    /// final chunk.
    fn issue_remote_write(
        &mut self,
        cycle: u64,
        addr: u64,
        data: Bytes,
        set_cls: Option<(u64, u64, ClsState)>,
    ) {
        assert_eq!(addr % 8, 0, "remote writes are 8-byte aligned");
        assert_eq!(data.len() % 8, 0, "remote writes move multiples of 8");
        let len = data.len() as u32;
        let mut off = 0u32;
        let mut ids = Vec::new();
        while off < len {
            let a = addr + off as u64;
            let chunk = if a.is_multiple_of(32) && len - off >= 32 {
                32
            } else {
                8
            };
            let kind = if chunk == 32 {
                BusOpKind::WriteLine
            } else {
                BusOpKind::SingleWrite
            };
            let slice = data.slice(off as usize..(off + chunk) as usize);
            let id = self.abiu.push_request(
                kind,
                a,
                chunk,
                DataMove::BytesToDram {
                    dram: a,
                    data: slice,
                },
            );
            ids.push(id);
            off += chunk;
        }
        let n = ids.len();
        for (k, id) in ids.into_iter().enumerate() {
            let tag = if k + 1 == n {
                ReqTag::RemoteWrite { set_cls }
            } else {
                ReqTag::RemoteWrite { set_cls: None }
            };
            self.req_tags.insert(id, tag);
        }
        self.ctrl.remote_writes_outstanding += n;
        let cost = self.params.remote_cmd_overhead_cycles + self.params.ibus_cycles(len);
        self.ctrl.remote_busy = self.ctrl.ibus.acquire(cycle, cost);
    }
}

/// Encode the 8-byte receive-slot header written by the rx engine.
pub fn encode_rx_slot(src: u16, logical_q: u16, len: u8) -> [u8; 8] {
    let mut b = [0u8; 8];
    b[0..2].copy_from_slice(&src.to_le_bytes());
    b[2] = len;
    b[4..6].copy_from_slice(&logical_q.to_le_bytes());
    b
}

/// Decode a receive-slot header: `(src, logical_q, len)`.
pub fn decode_rx_slot(b: &[u8; 8]) -> (u16, u16, u8) {
    (
        u16::from_le_bytes([b[0], b[1]]),
        u16::from_le_bytes([b[4], b[5]]),
        b[2],
    )
}

// =========================================================================
// sP port
// =========================================================================

/// The sP's window into the NIU: the sBIU immediate-command interface
/// plus command-queue access. All *timing* of sP work is charged by the
/// firmware engine (`sv-firmware`); these methods are functional.
pub struct SpPort<'a> {
    niu: &'a mut Niu,
}

impl<'a> SpPort<'a> {
    /// Next aBIU→sBIU request (NUMA/S-COMA/violation notifications).
    pub fn pop_request(&mut self) -> Option<SpRequest> {
        self.niu.sp_requests.pop_front()
    }

    /// Push a command into local command queue `qi` (0 or 1). Returns
    /// `false` if the queue is full.
    pub fn push_cmd(&mut self, qi: usize, cmd: LocalCmd) -> bool {
        if self.niu.ctrl.cmdq[qi].len() >= CMDQ_CAP {
            return false;
        }
        self.niu.ctrl.cmdq[qi].push_back(cmd);
        true
    }

    /// Occupancy of local command queue `qi`.
    pub fn cmd_depth(&self, qi: usize) -> usize {
        self.niu.ctrl.cmdq[qi].len()
    }

    /// Pop the next message from an (sP-serviced) receive queue:
    /// `(src, logical_q, payload)`.
    pub fn read_msg(&mut self, q: QueueId) -> Option<(u16, u16, Bytes)> {
        let qd = self.niu.ctrl.rx_queue(q);
        if qd.pending() == 0 {
            return None;
        }
        let sel = qd.buf.sram;
        let slot = qd.buf.slot_addr(qd.consumer);
        let mut hdr = [0u8; 8];
        self.niu.sram(sel).read(slot, &mut hdr);
        let (src, lq, len) = decode_rx_slot(&hdr);
        let data = Bytes::from(self.niu.sram(sel).read_vec(slot + 8, len as usize));
        let qd = self.niu.ctrl.rx_queue_mut(q);
        qd.dequeued.bump();
        qd.consumer = qd.consumer.wrapping_add(1);
        Some((src, lq, data))
    }

    /// Non-consuming read of the message at free-running pointer `ptr` of
    /// receive queue `q`: `(src, logical_q, payload, buffer sram, payload
    /// SRAM address)`. Returns `None` if `ptr` has caught up with the
    /// producer. The caller advances the consumer itself (typically with
    /// an in-order [`LocalCmd::RxPtrUpdate`] *after* commands that read
    /// the slot, so the buffer is not recycled under them).
    pub fn msg_at(&self, q: QueueId, ptr: u16) -> Option<(u16, u16, Bytes, SramSel, u32)> {
        let qd = self.niu.ctrl.rx_queue(q);
        if ptr == qd.producer {
            return None;
        }
        let sel = qd.buf.sram;
        let slot = qd.buf.slot_addr(ptr);
        let mut hdr = [0u8; 8];
        self.niu.sram(sel).read(slot, &mut hdr);
        let (src, lq, len) = decode_rx_slot(&hdr);
        let data = Bytes::from(self.niu.sram(sel).read_vec(slot + 8, len as usize));
        Some((src, lq, data, sel, slot + 8))
    }

    /// Supply data for a pending NUMA load.
    pub fn numa_supply(&mut self, addr: u64, data: Bytes) {
        self.niu.abiu.numa_supply(addr, data);
    }

    /// Set a clsSRAM line state (immediate; bulk updates should use the
    /// command queue's SetClsRange to get realistic costs).
    pub fn set_cls(&mut self, line: u64, state: ClsState) {
        self.niu.clssram.set(line, state);
        self.niu.abiu.scoma_clear_notified(line);
    }

    /// Bind a logical rx queue into a hardware slot (immediate).
    pub fn bind_rx_queue(&mut self, logical: u16, hw: QueueId) {
        self.niu.ctrl.rx_cache.bind(logical, hw);
    }

    /// Drain pending interrupts.
    pub fn take_interrupts(&mut self) -> Vec<NiuInterrupt> {
        self.niu.take_interrupts()
    }
}

sv_sim::checkpointed! {
    enum NiuInterrupt {
        0 => RxArrival(q),
        1 => TxViolation(q),
        2 => BlockReadDone,
        3 => BlockTxDone,
    }
}

sv_sim::checkpointed! {
    enum ReqTag {
        0 => CmdWait(i),
        1 => BlockRead { bytes },
        2 => RemoteWrite { set_cls },
    }
}

sv_sim::checkpointed! {
    struct ClassStats {
        sent,
        delivered,
        dropped,
        latency,
    }
}

sv_sim::checkpointed! {
    struct NiuStats {
        loopback_msgs,
        express_dropped,
        rxu_high_water,
        class,
        retransmits,
        acks_sent,
        acks_received,
        dup_drops,
        corrupt_drops,
        rx_retry_drops,
        reliable_dropped,
    }
}

sv_sim::checkpointed! {
    struct TenantAttr {
        lq_base,
        count,
        hit_latency,
        miss_latency,
        miss_meta,
    }
    // `deliver_msg` indexes both vectors by `tenant_of`, which admits any
    // index below `count`; a forged mismatch would panic there.
    validate: |ta: &TenantAttr| {
        ta.hit_latency.len() == ta.count as usize && ta.miss_latency.len() == ta.count as usize
    }
}

sv_sim::checkpointed! {
    struct RelConn {
        next_seq,
        unacked,
        retries,
        next_retry_cycle,
    }
}

// The SRAM banks are tracked per 64-byte line (aSRAM/sSRAM) or as one
// presence-flagged section (the sparse, small clsSRAM), and CTRL's
// translation entries travel only when they changed; everything else is
// small, mutates together on every active cycle, and is rewritten whole
// in each delta record.
sv_sim::checkpointed! {
    pub struct Niu {
        node_id,
        params,
        map,
        ctrl: nested,
        abiu,
        asram: pages,
        ssram: pages,
        clssram: presence,
        rxu_in,
        txu_out,
        sp_requests,
        interrupts,
        req_tags,
        tx_rel,
        rx_expected,
        rx_head_stalls,
        notify_head_stalls,
        stats,
        sample_latency,
        tenant,
    }
    delta { dirty: ckpt_dirty }
    validate: Niu::is_consistent
}

impl Niu {
    /// Cross-component invariants a restored NIU must satisfy — each one
    /// is indexed through at runtime far from the restore site, so a
    /// forged snapshot violating them must fail typed at restore, not
    /// panic there.
    fn is_consistent(&self) -> bool {
        // Firmware wake checks and command dispatch index `ctrl.rx` /
        // `ctrl.tx` by `params` counts.
        self.ctrl.rx.len() == self.params.rx_queues
            && self.ctrl.tx.len() == self.params.tx_queues
            // Every SRAM access is bounds-checked against the bank's own
            // size, which must be the one the parameters promise.
            && self.asram.len() == self.params.asram_bytes
            && self.ssram.len() == self.params.ssram_bytes
            // The clsSRAM is constructed to cover exactly `params.cls_lines`.
            && self.clssram.capacity_lines() == self.params.cls_lines
            // Every S-COMA address must map to a line the clsSRAM covers:
            // `ap_snoop` computes `map.scoma_line(addr)` and indexes the
            // clsSRAM with it on every snooped bus operation.
            && self.map.scoma_len.div_ceil(sv_membus::CACHE_LINE) <= self.clssram.capacity_lines()
            && self.queues_fit_sram()
    }

    /// Restored queue descriptors are untrusted bytes: reject any whose
    /// buffer span or shadow-pointer slot falls outside its SRAM bank,
    /// so a forged snapshot cannot steer the engines into the SRAM
    /// bounds asserts (and `slot_addr` arithmetic stays in `u32`).
    fn queues_fit_sram(&self) -> bool {
        let bank = |sel: SramSel| match sel {
            SramSel::A => self.asram.len() as u64,
            SramSel::S => self.ssram.len() as u64,
        };
        let buf_ok = |b: &QueueBuffer| {
            b.base as u64 + b.entries as u64 * b.entry_bytes as u64 <= bank(b.sram)
        };
        let shadow_ok =
            |s: Option<(SramSel, u32)>| s.is_none_or(|(sel, addr)| addr as u64 + 8 <= bank(sel));
        self.ctrl
            .tx
            .iter()
            .all(|q| buf_ok(&q.buf) && shadow_ok(q.shadow_addr))
            && self
                .ctrl
                .rx
                .iter()
                .all(|q| buf_ok(&q.buf) && shadow_ok(q.shadow_addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::XlateEntry;

    fn niu() -> Niu {
        let mut n = Niu::new(0, NiuParams::default(), AddressMap::default());
        // Destination 1 -> node 1, logical queue 1, low priority.
        n.ctrl.xlate.install(
            1,
            XlateEntry {
                valid: true,
                node: 1,
                logical_q: 1,
                high_priority: false,
            },
        );
        // Local logical queue 1 cached in hardware slot 1.
        n.ctrl.rx_cache.bind(1, QueueId(1));
        n
    }

    /// Compose a basic message directly in SRAM and launch it.
    fn compose_and_launch(n: &mut Niu, qi: usize, dest: u16, payload: &[u8]) {
        let (sel, slot, producer) = {
            let q = &n.ctrl.tx[qi];
            (q.buf.sram, q.buf.slot_addr(q.producer), q.producer)
        };
        let hdr = MsgHeader::basic(dest, payload.len() as u8);
        n.sram_mut(sel).write(slot, &hdr.encode());
        n.sram_mut(sel).write(slot + 8, payload);
        n.ctrl.tx[qi].producer = producer.wrapping_add(1);
    }

    fn run(n: &mut Niu, cycles: u64) -> Vec<Packet<NetPayload>> {
        let mut out = Vec::new();
        for c in 0..cycles {
            n.tick(c);
            while let Some(p) = n.pop_ready_packet(c) {
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn basic_message_launch_and_translate() {
        let mut n = niu();
        compose_and_launch(&mut n, 0, 1, b"hello voyager");
        let pkts = run(&mut n, 100);
        assert_eq!(pkts.len(), 1);
        let p = &pkts[0];
        assert_eq!(p.dst, 1);
        match &p.payload {
            NetPayload::Msg {
                src,
                logical_q,
                data,
            } => {
                assert_eq!(*src, 0);
                assert_eq!(*logical_q, 1);
                assert_eq!(&data[..], b"hello voyager");
            }
            other => panic!("unexpected payload {other:?}"),
        }
        assert_eq!(n.ctrl.tx[0].sent.get(), 1);
        assert_eq!(n.ctrl.tx[0].pending(), 0);
    }

    #[test]
    fn snapshot_mid_launch_resumes_identically() {
        use crate::translate::XlateEntry;
        let mut n = niu();
        n.ctrl.xlate.install(
            2,
            XlateEntry {
                valid: true,
                node: 2,
                logical_q: 1,
                high_priority: true,
            },
        );
        compose_and_launch(&mut n, 0, 1, b"first message");
        compose_and_launch(&mut n, 0, 2, b"second message");
        // Stop mid-flight: the tx engine is busy and packets are staged.
        for c in 0..5 {
            n.tick(c);
        }
        let mut w = sv_sim::ckpt::SnapWriter::new();
        w.save(&n);
        let bytes = w.finish();
        let mut r = sv_sim::ckpt::SnapReader::new(&bytes);
        let mut rest = niu();
        rest.restore(&mut r).expect("niu snapshot restores");
        r.finish().expect("restore consumes the whole snapshot");
        let mut orig = n;
        let drain = |n: &mut Niu| {
            let mut out = Vec::new();
            for c in 5..200 {
                n.tick(c);
                while let Some(p) = n.pop_ready_packet(c) {
                    out.push(p);
                }
            }
            out
        };
        let a = drain(&mut orig);
        let b = drain(&mut rest);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(format!("{:?}", orig.stats), format!("{:?}", rest.stats));
        assert_eq!(
            format!("{:?}", orig.ctrl.stats),
            format!("{:?}", rest.ctrl.stats)
        );
        assert_eq!(a.len(), 2);
    }

    fn saved(n: &Niu) -> Vec<u8> {
        let mut w = sv_sim::ckpt::SnapWriter::new();
        w.save(n);
        w.finish()
    }

    fn delta(n: &Niu) -> Vec<u8> {
        let mut w = sv_sim::ckpt::SnapWriter::new();
        n.delta_save(&mut w);
        w.finish()
    }

    /// A bank whose size disagrees with the parameters, or that holds a
    /// page past its end, is refused: a 96 KiB aSRAM would turn a store
    /// the parameters allow into a bounds panic, and no write can put a
    /// page past the end.
    #[test]
    fn restored_sram_bank_must_match_the_parameters() {
        use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError};
        let corrupt = Err(SnapshotError::Corrupt { offset: 0 });
        let mut built = niu();
        built.asram.write_u64(100 * 1024, 7);
        assert_eq!(niu().restore(&mut SnapReader::new(&saved(&built))), Ok(()));
        for kib in [96, 16 * 1024] {
            for a_side in [true, false] {
                let mut n = niu();
                *(if a_side { &mut n.asram } else { &mut n.ssram }) = Sram::new(kib * 1024);
                assert!(n.queues_fit_sram());
                let got = niu().restore(&mut SnapReader::new(&saved(&n)));
                assert_eq!(got, corrupt, "{kib} KiB, aSRAM {a_side}");
            }
        }
        let mut past_end = sv_membus::MemoryArray::new();
        past_end.write_u64(128 * 1024, 7);
        let mut w = SnapWriter::new();
        w.u32(128 * 1024);
        w.save(&past_end);
        assert_eq!(
            SnapReader::new(&w.finish()).load::<Sram>().map(|_| ()),
            corrupt
        );
        let mut w = SnapWriter::new();
        past_end.save_delta(&mut w);
        let got = Sram::new(128 * 1024).apply_delta(&mut SnapReader::new(&w.finish()));
        assert_eq!(got, corrupt);
    }

    /// The lookup counters ride in every NIU delta record; the table's
    /// entries only after an `install` or a growing `grow_to`.
    #[test]
    fn xlate_entries_travel_in_a_delta_only_when_changed() {
        use crate::translate::XlateEntry;
        let e = XlateEntry {
            valid: true,
            node: 3,
            logical_q: 1,
            high_priority: false,
        };
        let mut n = niu();
        let mut copy = niu();
        copy.restore(&mut sv_sim::ckpt::SnapReader::new(&saved(&n)))
            .unwrap();
        n.ckpt_clear_dirty();
        copy.ckpt_clear_dirty();
        let quiet = delta(&n).len();
        assert!(n.ctrl.xlate.lookup(1).is_some());
        assert_eq!(delta(&n).len(), quiet, "a lookup moves only a counter");
        n.ctrl.xlate.grow_to(16);
        assert_eq!(delta(&n).len(), quiet, "a grow that grows nothing");
        n.ctrl.xlate.install(5, e);
        // The delta stream's table index, an entry count and the entries.
        let table = 8 + 8 + 8 * n.ctrl.xlate.len();
        let d = delta(&n);
        assert_eq!(d.len(), quiet + table);
        copy.delta_apply(&mut sv_sim::ckpt::SnapReader::new(&d))
            .unwrap();
        assert_eq!(saved(&copy), saved(&n));
        assert_eq!(copy.ctrl.xlate.lookup(5), Some(e));
        n.ckpt_clear_dirty();
        n.ctrl.xlate.grow_to(2048);
        assert_eq!(delta(&n).len(), quiet + 8 + 8 + 8 * 2048);
    }

    #[test]
    fn invalid_destination_shuts_queue_down() {
        let mut n = niu();
        compose_and_launch(&mut n, 0, 999, b"bad");
        let pkts = run(&mut n, 50);
        assert!(pkts.is_empty());
        assert!(!n.ctrl.tx[0].enabled);
        assert_eq!(n.ctrl.stats.violations.get(), 1);
        let ints = n.take_interrupts();
        assert!(ints.contains(&NiuInterrupt::TxViolation(QueueId(0))));
        assert!(matches!(
            n.sp().pop_request(),
            Some(SpRequest::Violation { q: 0 })
        ));
    }

    #[test]
    fn raw_message_requires_privilege() {
        let mut n = niu();
        let hdr = MsgHeader {
            dest: MsgHeader::raw_dest(2, 5),
            len: 2,
            flags: MsgFlags::RAW,
            tagon_len: 0,
            tagon_granule: 0,
        };
        let slot = n.ctrl.tx[0].buf.slot_addr(0);
        n.asram.write(slot, &hdr.encode());
        n.asram.write(slot + 8, b"ab");
        n.ctrl.tx[0].producer = 1;
        let pkts = run(&mut n, 50);
        assert!(pkts.is_empty(), "unprivileged RAW must be blocked");
        assert!(!n.ctrl.tx[0].enabled);

        // Re-enable with raw permission: the same message now launches.
        n.ctrl.tx[0].enabled = true;
        n.ctrl.tx[0].raw_allowed = true;
        let pkts = run(&mut n, 100);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].dst, 2);
        match &pkts[0].payload {
            NetPayload::Msg { logical_q, .. } => assert_eq!(*logical_q, 5),
            _ => panic!(),
        }
    }

    #[test]
    fn tagon_appends_sram_data() {
        let mut n = niu();
        n.asram.write(0x8000, &[7u8; 48]);
        let (sel, slot) = {
            let q = &n.ctrl.tx[0];
            (q.buf.sram, q.buf.slot_addr(0))
        };
        let hdr = MsgHeader::basic(1, 4).with_tagon(0x8000, crate::msg::TAGON_SMALL);
        n.sram_mut(sel).write(slot, &hdr.encode());
        n.sram_mut(sel).write(slot + 8, b"abcd");
        n.ctrl.tx[0].producer = 1;
        let pkts = run(&mut n, 100);
        assert_eq!(pkts.len(), 1);
        match &pkts[0].payload {
            NetPayload::Msg { data, .. } => {
                assert_eq!(data.len(), 52);
                assert_eq!(&data[..4], b"abcd");
                assert!(data[4..].iter().all(|&b| b == 7));
            }
            _ => panic!(),
        }
        assert_eq!(n.ctrl.stats.tagon_bytes, 48);
    }

    #[test]
    fn arrival_lands_in_bound_queue_and_is_readable() {
        let mut n = niu();
        n.ctrl.rx[1].service = RxService::SpPolled;
        n.push_arrival(NetPayload::Msg {
            src: 3,
            logical_q: 1,
            data: MsgData::new(b"payload!"),
        });
        run(&mut n, 50);
        assert_eq!(n.ctrl.rx[1].pending(), 1);
        let (src, lq, data) = n.sp().read_msg(QueueId(1)).unwrap();
        assert_eq!((src, lq), (3, 1));
        assert_eq!(&data[..], b"payload!");
        assert_eq!(n.ctrl.rx[1].pending(), 0);
    }

    #[test]
    fn unbound_logical_queue_diverts_to_miss_queue() {
        let mut n = niu();
        n.push_arrival(NetPayload::Msg {
            src: 3,
            logical_q: 77,
            data: MsgData::new(b"stray"),
        });
        run(&mut n, 50);
        let miss = n.params.miss_queue_slot;
        assert_eq!(n.ctrl.rx[miss].pending(), 1);
        assert_eq!(n.ctrl.rx_cache.misses.get(), 1);
        let (_, lq, data) = n.sp().read_msg(QueueId(miss as u8)).unwrap();
        assert_eq!(lq, 77, "slot header preserves the logical queue");
        assert_eq!(&data[..], b"stray");
    }

    #[test]
    fn full_queue_policies() {
        // Drop.
        let mut n = niu();
        n.ctrl.rx[1].buf.entries = 2;
        n.ctrl.rx[1].full_policy = RxFullPolicy::Drop;
        for _ in 0..3 {
            n.push_arrival(NetPayload::Msg {
                src: 2,
                logical_q: 1,
                data: MsgData::new(b"x"),
            });
        }
        run(&mut n, 200);
        assert_eq!(n.ctrl.rx[1].pending(), 2);
        assert_eq!(n.ctrl.rx[1].dropped.get(), 1);

        // Divert.
        let mut n = niu();
        n.ctrl.rx[1].buf.entries = 1;
        n.ctrl.rx[1].full_policy = RxFullPolicy::Divert;
        for _ in 0..2 {
            n.push_arrival(NetPayload::Msg {
                src: 2,
                logical_q: 1,
                data: MsgData::new(b"x"),
            });
        }
        run(&mut n, 200);
        assert_eq!(n.ctrl.rx[1].pending(), 1);
        assert_eq!(n.ctrl.rx[1].diverted.get(), 1);
        assert_eq!(n.ctrl.rx[n.params.miss_queue_slot].pending(), 1);

        // Retry: message waits until the consumer frees space.
        let mut n = niu();
        n.ctrl.rx[1].buf.entries = 1;
        n.ctrl.rx[1].full_policy = RxFullPolicy::Retry;
        for _ in 0..2 {
            n.push_arrival(NetPayload::Msg {
                src: 2,
                logical_q: 1,
                data: MsgData::new(b"x"),
            });
        }
        run(&mut n, 200);
        assert_eq!(n.ctrl.rx[1].pending(), 1, "second message still held");
        assert!(n.has_work());
        // Consume one; the held message then lands.
        let qd = &mut n.ctrl.rx[1];
        qd.consumer = qd.consumer.wrapping_add(1);
        for c in 200..400 {
            n.tick(c);
        }
        assert_eq!(n.ctrl.rx[1].pending(), 1);
        assert_eq!(n.ctrl.rx[1].received.get(), 2);
    }

    #[test]
    fn express_store_to_packet_to_receive_load() {
        let mut n = niu();
        // Configure tx queue 2 and rx queue 3 as express queues.
        n.ctrl.tx[2].express = true;
        n.ctrl.rx[3].express = true;
        n.ctrl.rx[3].buf.entry_bytes = 8;
        n.ctrl.tx[2].buf.entry_bytes = 8;
        n.ctrl.rx_cache.bind(9, QueueId(3));
        n.ctrl.xlate.install(
            9,
            XlateEntry {
                valid: true,
                node: 0, // loop back to ourselves for a one-NIU test
                logical_q: 9,
                high_priority: false,
            },
        );
        // aP store into the express-tx window.
        let addr = n.map.express_tx_addr(2, 9, 0xAB);
        n.ap_complete_store(0, addr, &[1, 2, 3, 4]);
        assert_eq!(n.ctrl.tx[2].pending(), 1);
        run(&mut n, 200);
        // Looped back and delivered into rx queue 3.
        assert_eq!(n.ctrl.rx[3].pending(), 1);
        let v = n.ap_complete_load(200, n.map.express_rx_addr(3), 8);
        let (src, tag, data) = express::unpack_rx(v).expect("message present");
        assert_eq!((src, tag), (0, 0xAB));
        assert_eq!(data, [1, 2, 3, 4]);
        // Queue now empty: canonical empty value.
        let v2 = n.ap_complete_load(201, n.map.express_rx_addr(3), 8);
        assert_eq!(v2, express::RX_EMPTY);
    }

    #[test]
    fn ptr_update_store_drives_ctrl() {
        let mut n = niu();
        let a = n.map.ptr_update_addr(false, 4, 3);
        n.ap_complete_store(0, a, &[]);
        assert_eq!(n.ctrl.tx[4].producer, 3);
        let a = n.map.ptr_update_addr(true, 2, 7);
        n.ap_complete_store(0, a, &[]);
        assert_eq!(n.ctrl.rx[2].consumer, 7);
    }

    #[test]
    fn remote_write_lands_via_abiu_and_sets_cls() {
        let mut n = niu();
        let scoma = n.map.scoma_base;
        n.push_arrival(NetPayload::RemoteCmd {
            src: 1,
            cmd: RemoteCmdKind::WriteDramSetCls {
                addr: scoma,
                data: Bytes::from(vec![9u8; 64]),
                state: ClsState::ReadOnly.bits(),
            },
            sent_cycle: 0,
        });
        // Drive: collect aBIU requests and complete them (simulating the
        // node's bus).
        let mut writes = Vec::new();
        for c in 0..100 {
            n.tick(c);
            while let Some(r) = n.pop_abiu_request() {
                writes.push(r.clone());
                n.abiu_completed(r.id);
            }
        }
        assert_eq!(writes.len(), 2, "64B = two line writes");
        assert!(writes.iter().all(|r| r.kind == BusOpKind::WriteLine));
        assert_eq!(n.clssram.get(0), ClsState::ReadOnly);
        assert_eq!(n.clssram.get(1), ClsState::ReadOnly);
        assert_eq!(n.ctrl.remote_writes_outstanding, 0);
    }

    #[test]
    fn notify_waits_for_outstanding_writes() {
        let mut n = niu();
        n.ctrl.rx[1].service = RxService::SpPolled;
        n.push_arrival(NetPayload::RemoteCmd {
            src: 1,
            cmd: RemoteCmdKind::WriteDram {
                addr: 0x1000,
                data: Bytes::from(vec![1u8; 32]),
            },
            sent_cycle: 0,
        });
        n.push_arrival(NetPayload::RemoteCmd {
            src: 1,
            cmd: RemoteCmdKind::Notify {
                logical_q: 1,
                data: Bytes::from_static(b"done"),
            },
            sent_cycle: 0,
        });
        // Tick without completing the write: notify must not deliver.
        let mut req = None;
        for c in 0..200 {
            n.tick(c);
            if req.is_none() {
                req = n.pop_abiu_request();
            }
        }
        assert_eq!(n.ctrl.rx[1].pending(), 0, "notify gated by scoreboard");
        // Complete the write: notify now lands.
        n.abiu_completed(req.expect("write issued").id);
        for c in 200..400 {
            n.tick(c);
        }
        assert_eq!(n.ctrl.rx[1].pending(), 1);
        let (_, _, data) = n.sp().read_msg(QueueId(1)).unwrap();
        assert_eq!(&data[..], b"done");
    }

    #[test]
    fn block_read_streams_lines() {
        let mut n = niu();
        n.sp().push_cmd(
            0,
            LocalCmd::Block(BlockOp::Read {
                dram_addr: 0x2000,
                sram_addr: 0x4000,
                len: 128,
            }),
        );
        let mut reads = Vec::new();
        for c in 0..200 {
            n.tick(c);
            while let Some(r) = n.pop_abiu_request() {
                reads.push(r.clone());
                n.abiu_completed(r.id);
            }
        }
        assert_eq!(reads.len(), 4);
        assert!(reads.iter().all(|r| r.kind == BusOpKind::Read));
        assert!(n.ctrl.block_read.is_none());
        assert!(n.take_interrupts().contains(&NiuInterrupt::BlockReadDone));
    }

    #[test]
    fn chained_read_tx_produces_remote_writes_and_notify() {
        let mut n = niu();
        n.sp().push_cmd(
            0,
            LocalCmd::Block(BlockOp::ReadTx {
                dram_addr: 0x2000,
                len: 256,
                sram_addr: 0x4000,
                node: 1,
                remote_addr: 0x9000,
                set_cls: None,
                notify: Some((1, Bytes::from_static(b"fin"))),
            }),
        );
        let mut pkts = Vec::new();
        for c in 0..2000 {
            n.tick(c);
            while let Some(r) = n.pop_abiu_request() {
                n.abiu_completed(r.id);
            }
            while let Some(p) = n.pop_ready_packet(c) {
                pkts.push(p);
            }
        }
        // 256 bytes stream out as contiguous remote writes (chunk size may
        // dip below 64 B when the transmit side catches up with the read
        // side), followed by exactly one notify.
        assert!(pkts.len() >= 5, "{} packets", pkts.len());
        let mut offset = 0x9000u64;
        for p in &pkts[..pkts.len() - 1] {
            assert_eq!(p.priority, Priority::High);
            match &p.payload {
                NetPayload::RemoteCmd {
                    cmd: RemoteCmdKind::WriteDram { addr, data },
                    ..
                } => {
                    assert_eq!(*addr, offset);
                    assert!(data.len() <= 64 && !data.is_empty());
                    offset += data.len() as u64;
                }
                other => panic!("expected data write, got {other:?}"),
            }
        }
        assert_eq!(offset, 0x9000 + 256, "all bytes sent exactly once");
        match &pkts[pkts.len() - 1].payload {
            NetPayload::RemoteCmd {
                cmd: RemoteCmdKind::Notify { data, .. },
                ..
            } => assert_eq!(&data[..], b"fin"),
            other => panic!("expected notify, got {other:?}"),
        }
        assert!(n.ctrl.block_tx.is_none() && n.ctrl.block_read.is_none());
        assert!(!n.has_work());
    }

    /// Tick `n` over `cycles`, popping aBIU requests into flight as the
    /// node does but completing none; returns the popped request ids.
    fn tick_holding_requests(n: &mut Niu, cycles: std::ops::Range<u64>) -> Vec<u64> {
        let mut ids = Vec::new();
        for c in cycles {
            n.tick(c);
            while let Some(r) = n.pop_abiu_request() {
                ids.push(r.id);
            }
        }
        ids
    }

    #[test]
    fn a_full_block_read_window_advertises_no_wake_until_a_completion() {
        let mut n = niu();
        n.sp().push_cmd(
            0,
            LocalCmd::Block(BlockOp::Read {
                dram_addr: 0x2000,
                sram_addr: 0x4000,
                len: 4096,
            }),
        );
        // Four requests in flight and four queued behind them fill both
        // the outstanding window and the DMA's own.
        let ids = tick_holding_requests(&mut n, 0..50);
        assert_eq!(ids.len(), n.params.max_abiu_outstanding);
        assert_eq!(n.abiu.requests_pending(), BLOCK_READ_WINDOW);
        assert_eq!(n.next_event_cycle(50), None, "blocked DMA polls");
        // A completion frees both windows: the DMA and the queued
        // residue are due at once.
        n.abiu_completed(ids[0]);
        assert_eq!(n.next_event_cycle(50), Some(50));
    }

    #[test]
    fn an_in_order_wait_advertises_no_wake_until_its_completions() {
        let mut n = niu();
        n.sp().push_cmd(
            0,
            LocalCmd::BusRead {
                dram_addr: 0x1000,
                sram: SramSel::A,
                sram_addr: 0x100,
                len: 64,
            },
        );
        n.sp().push_cmd(
            0,
            LocalCmd::WriteSramU64 {
                sram: SramSel::A,
                addr: 0x7000,
                data: 42,
            },
        );
        let ids = tick_holding_requests(&mut n, 0..100);
        assert_eq!(ids.len(), 2);
        assert_eq!(n.ctrl.cmdq[0].len(), 1, "the write waits behind the reads");
        assert_eq!(n.next_event_cycle(100), None, "waiting engine polls");
        n.abiu_completed(ids[0]);
        assert_eq!(n.next_event_cycle(100), None, "one read still outstanding");
        n.abiu_completed(ids[1]);
        assert_eq!(n.next_event_cycle(100), Some(100));
    }

    #[test]
    fn a_block_head_whose_unit_is_busy_advertises_no_wake_until_it_frees() {
        let mut n = niu();
        // A block read with every request issued, awaiting completions,
        // and a second block read queued behind it.
        n.ctrl.block_read = Some(BlockReadState {
            dram: 0x2000,
            sram_addr: 0x4000,
            total: 128,
            issued: 128,
            completed: 0,
            chained: false,
        });
        n.sp().push_cmd(
            0,
            LocalCmd::Block(BlockOp::Read {
                dram_addr: 0x3000,
                sram_addr: 0x5000,
                len: 128,
            }),
        );
        assert_eq!(n.next_event_cycle(10), None, "queued block head polls");
        n.ctrl.block_read = None;
        assert_eq!(n.next_event_cycle(10), Some(10));
    }

    #[test]
    fn cmd_queue_bus_ops_complete_in_order() {
        let mut n = niu();
        n.sp().push_cmd(
            0,
            LocalCmd::BusRead {
                dram_addr: 0x1000,
                sram: SramSel::A,
                sram_addr: 0x100,
                len: 64,
            },
        );
        n.sp().push_cmd(
            0,
            LocalCmd::WriteSramU64 {
                sram: SramSel::A,
                addr: 0x7000,
                data: 42,
            },
        );
        // Until the bus reads complete, the second command must not run.
        let mut reqs = Vec::new();
        for c in 0..100 {
            n.tick(c);
            while let Some(r) = n.pop_abiu_request() {
                reqs.push(r);
            }
        }
        assert_eq!(reqs.len(), 2);
        assert_eq!(n.asram.read_u64(0x7000), 0, "gated by in-order rule");
        for r in &reqs {
            n.abiu_completed(r.id);
        }
        for c in 100..200 {
            n.tick(c);
        }
        assert_eq!(n.asram.read_u64(0x7000), 42);
    }

    #[test]
    fn send_direct_with_tagon() {
        let mut n = niu();
        n.ssram.write(0x300, &[5u8; 80]);
        n.sp().push_cmd(
            1,
            LocalCmd::SendDirect {
                node: 1,
                logical_q: 4,
                priority: Priority::Low,
                data: Bytes::from_static(b"hdr"),
                tagon: Some((SramSel::S, 0x300, crate::msg::TAGON_LARGE)),
            },
        );
        let pkts = run(&mut n, 100);
        assert_eq!(pkts.len(), 1);
        match &pkts[0].payload {
            NetPayload::Msg { data, .. } => {
                assert_eq!(data.len(), 83);
                assert_eq!(&data[..3], b"hdr");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn numa_flow_via_sp_port() {
        let mut n = niu();
        let addr = n.map.numa_base + 0x100;
        let op = BusOp::single(BusOpKind::SingleRead, addr, 8, MasterId::Ap, 0);
        // First snoop: retry + sP request.
        let v = n.ap_snoop(&op);
        assert!(v.artry);
        let req = n.sp().pop_request();
        assert!(matches!(req, Some(SpRequest::NumaLoad { .. })));
        // Firmware supplies; the retried op is claimed and the load
        // completion returns the data.
        n.sp()
            .numa_supply(addr, Bytes::from(7u64.to_le_bytes().to_vec()));
        let v2 = n.ap_snoop(&op);
        assert!(!v2.artry);
        assert_eq!(n.ap_complete_load(10, addr, 8), 7);
    }

    #[test]
    fn scoma_snoop_reads_clssram() {
        let mut n = niu();
        let addr = n.map.scoma_base + 64;
        let op = BusOp::burst(BusOpKind::Read, addr, MasterId::Ap, 0);
        let v = n.ap_snoop(&op);
        assert!(v.artry, "invalid line must retry");
        assert!(matches!(
            n.sp().pop_request(),
            Some(SpRequest::ScomaMiss {
                line: 2,
                write: false
            })
        ));
        n.sp().set_cls(2, ClsState::ReadOnly);
        let v2 = n.ap_snoop(&op);
        assert!(!v2.artry, "valid line proceeds to DRAM");
    }

    #[test]
    fn rx_slot_header_roundtrip() {
        let h = encode_rx_slot(300, 77, 42);
        assert_eq!(decode_rx_slot(&h), (300, 77, 42));
    }

    #[test]
    fn send_remote_write_reads_sram_at_execution_time() {
        // The command captures its data when it *executes*, after earlier
        // in-order commands have produced it — the property the S-COMA
        // grant path depends on.
        let mut n = niu();
        n.sp().push_cmd(
            0,
            LocalCmd::WriteSramU64 {
                sram: SramSel::S,
                addr: 0x900,
                data: 0xAAAA,
            },
        );
        n.sp().push_cmd(
            0,
            LocalCmd::SendRemoteWrite {
                node: 1,
                remote_addr: 0x5000,
                sram: SramSel::S,
                sram_addr: 0x900,
                len: 8,
                set_cls: None,
            },
        );
        let pkts = run(&mut n, 100);
        assert_eq!(pkts.len(), 1);
        match &pkts[0].payload {
            NetPayload::RemoteCmd {
                cmd: RemoteCmdKind::WriteDram { addr, data },
                ..
            } => {
                assert_eq!(*addr, 0x5000);
                assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), 0xAAAA);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(pkts[0].priority, Priority::High);
    }

    #[test]
    fn bus_flush_gates_following_commands() {
        let mut n = niu();
        n.sp().push_cmd(0, LocalCmd::BusFlush { addr: 0x3000 });
        n.sp().push_cmd(
            0,
            LocalCmd::WriteSramU64 {
                sram: SramSel::A,
                addr: 0x940,
                data: 5,
            },
        );
        // Until the flush's bus op completes, the write must not run.
        let mut req = None;
        for c in 0..60 {
            n.tick(c);
            if req.is_none() {
                req = n.pop_abiu_request();
            }
        }
        let r = req.expect("flush issued on the bus");
        assert_eq!(r.kind, BusOpKind::Flush);
        assert_eq!(n.asram.read_u64(0x940), 0, "gated");
        n.abiu_completed(r.id);
        for c in 60..120 {
            n.tick(c);
        }
        assert_eq!(n.asram.read_u64(0x940), 5);
    }

    #[test]
    fn reflect_lookup_resolves_windows() {
        use crate::abiu::ReflectiveWindow;
        let mut n = niu();
        n.abiu.reflect_windows.push(ReflectiveWindow {
            local_off: 0x1000,
            len: 0x1000,
            peer: 3,
            peer_base: 0x9_0000,
        });
        let base = n.map.reflect_base;
        assert_eq!(n.abiu.reflect_lookup(base + 0x1000), Some((3, 0x9_0000)));
        assert_eq!(n.abiu.reflect_lookup(base + 0x1FF8), Some((3, 0x9_0FF8)));
        assert_eq!(n.abiu.reflect_lookup(base + 0xFFF), None);
        assert_eq!(n.abiu.reflect_lookup(base + 0x2000), None);
    }

    #[test]
    fn write_tracking_records_dirty_lines_without_stalls() {
        let mut n = niu();
        n.abiu.write_tracking = true;
        let addr = n.map.scoma_base + 0x40;
        let op = BusOp::burst(BusOpKind::Rwitm, addr, MasterId::Ap, 0);
        let v = n.ap_snoop(&op);
        assert!(!v.artry, "tracking never stalls");
        assert_eq!(n.clssram.get(2), ClsState::ReadWrite, "line recorded dirty");
        // Reads are not recorded.
        let rd = BusOp::burst(BusOpKind::Read, addr + 32, MasterId::Ap, 0);
        let v = n.ap_snoop(&rd);
        assert!(!v.artry);
        assert_eq!(n.clssram.get(3), ClsState::Invalid);
        assert_eq!(n.sp_requests_pending(), 0, "no sP notifications either");
    }

    #[test]
    fn full_express_tx_queue_retries_the_store() {
        let mut n = niu();
        n.ctrl.tx[2].express = true;
        n.ctrl.tx[2].buf.entry_bytes = 8;
        n.ctrl.tx[2].buf.entries = 4;
        n.ctrl.tx[2].producer = 4; // full
        let addr = n.map.express_tx_addr(2, 1, 0);
        let op = BusOp::single(BusOpKind::SingleWrite, addr, 4, MasterId::Ap, 0);
        assert!(n.ap_snoop(&op).artry, "full queue backpressures the store");
        n.ctrl.tx[2].consumer = 1; // space frees
        assert!(!n.ap_snoop(&op).artry);
    }

    #[test]
    fn tx_priority_arbitration_prefers_high() {
        let mut n = niu();
        n.ctrl.xlate.install(
            2,
            XlateEntry {
                valid: true,
                node: 1,
                logical_q: 2,
                high_priority: false,
            },
        );
        compose_and_launch(&mut n, 0, 1, b"low");
        compose_and_launch(&mut n, 3, 2, b"high");
        n.ctrl.tx[3].priority = 7;
        let pkts = run(&mut n, 200);
        assert_eq!(pkts.len(), 2);
        match &pkts[0].payload {
            NetPayload::Msg { data, .. } => assert_eq!(&data[..], b"high"),
            _ => panic!(),
        }
    }

    // ---- reliable delivery ----

    fn reliable_niu() -> Niu {
        let mut n = niu();
        n.params.reliable = true;
        n.params.ack_timeout_cycles = 50;
        n.params.retransmit_cap = 3;
        n.params.retransmit_backoff_shift_cap = 2;
        n
    }

    #[test]
    fn reliable_send_stamps_sequence_numbers() {
        let mut n = reliable_niu();
        compose_and_launch(&mut n, 0, 1, b"one");
        compose_and_launch(&mut n, 0, 1, b"two");
        let pkts = run(&mut n, 40);
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[0].seq, 1);
        assert_eq!(pkts[1].seq, 2);
        assert!(n.has_work(), "unacked window keeps the NIU awake");
        // An ack for both retires the window.
        let ack = Packet::new(
            1,
            0,
            Priority::High,
            8,
            NetPayload::Ack {
                src: 1,
                prio_idx: Priority::Low.index() as u8,
                ack_upto: 2,
            },
        );
        n.push_arrival_packet(40, ack);
        assert!(!n.has_work());
        assert_eq!(n.stats.acks_received.get(), 1);
    }

    #[test]
    fn receiver_accepts_in_order_and_acks() {
        let mut n = niu(); // receiver side needs no reliable flag
        let mk = |seq: u32| {
            let mut p = Packet::new(
                1,
                0,
                Priority::Low,
                2,
                NetPayload::Msg {
                    src: 1,
                    logical_q: 1,
                    data: MsgData::new(b"hi"),
                },
            );
            p.seq = seq;
            p
        };
        n.push_arrival_packet(0, mk(1));
        // Duplicate and out-of-order copies are discarded but re-acked.
        n.push_arrival_packet(0, mk(1));
        n.push_arrival_packet(0, mk(3));
        n.push_arrival_packet(0, mk(2));
        let pkts = run(&mut n, 60);
        // Two accepted messages (seq 1, 2); seq 3 was early and dropped.
        assert_eq!(n.stats.dup_drops.get(), 2);
        assert_eq!(n.stats.acks_sent.get(), 4);
        let acks: Vec<u32> = pkts
            .iter()
            .filter_map(|p| match &p.payload {
                NetPayload::Ack { ack_upto, .. } => Some(*ack_upto),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![1, 1, 1, 2]);
    }

    #[test]
    fn corrupt_frames_are_discarded_at_the_link() {
        let mut n = niu();
        let mut p = Packet::new(
            1,
            0,
            Priority::Low,
            2,
            NetPayload::Msg {
                src: 1,
                logical_q: 1,
                data: MsgData::new(b"hi"),
            },
        );
        p.corrupt = true;
        n.push_arrival_packet(0, p);
        assert_eq!(n.stats.corrupt_drops.get(), 1);
        assert!(!n.has_work(), "a corrupt frame leaves no residue");
    }

    #[test]
    fn timeout_retransmits_with_backoff_then_drops() {
        let mut n = reliable_niu();
        compose_and_launch(&mut n, 0, 1, b"lost");
        // Run long past the capped backoff ladder with every output
        // discarded (the "network" loses everything).
        let mut msg_copies = 0;
        let mut syncs = 0;
        for c in 0..20_000u64 {
            n.tick(c);
            while let Some(p) = n.pop_ready_packet(c) {
                match p.payload {
                    NetPayload::Msg { .. } => {
                        assert_eq!(p.seq, 1, "only one logical message exists");
                        msg_copies += 1;
                    }
                    NetPayload::RelSync { next_seq, .. } => {
                        assert_eq!(next_seq, 2);
                        syncs += 1;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(msg_copies, 4, "original + 3 retransmits");
        assert_eq!(syncs, 1, "abandonment resynchronizes the receiver");
        assert_eq!(n.stats.retransmits.get(), 3, "cap bounds the retries");
        assert_eq!(n.stats.reliable_dropped.get(), 1);
        assert_eq!(
            n.stats.class[MsgClass::Basic as usize].dropped.get(),
            1,
            "abandoned packet charged to its class"
        );
        assert!(!n.has_work(), "the NIU quiesces instead of hanging");
    }

    #[test]
    fn rel_sync_advances_receiver_expectation() {
        let mut n = niu();
        let sync = Packet::new(
            1,
            0,
            Priority::High,
            8,
            NetPayload::RelSync {
                src: 1,
                prio_idx: Priority::Low.index() as u8,
                next_seq: 5,
            },
        );
        n.push_arrival_packet(0, sync);
        // Seq 5 is now in-order; 4 is stale.
        let mut p = Packet::new(
            1,
            0,
            Priority::Low,
            2,
            NetPayload::Msg {
                src: 1,
                logical_q: 1,
                data: MsgData::new(b"hi"),
            },
        );
        p.seq = 4;
        n.push_arrival_packet(0, p.clone());
        assert_eq!(n.stats.dup_drops.get(), 1);
        p.seq = 5;
        n.push_arrival_packet(0, p);
        assert_eq!(n.stats.dup_drops.get(), 1);
        assert_eq!(n.rxu_in.len(), 1);
    }

    #[test]
    fn persistent_rx_full_retry_is_capped() {
        let mut n = niu();
        n.params.rx_full_retry_cycles = 1;
        n.params.rx_full_retry_cap = 8;
        n.ctrl.rx[1].full_policy = RxFullPolicy::Retry;
        n.ctrl.rx[1].buf.entries = 1;
        n.ctrl.rx[1].producer = 1; // full, and nothing ever drains it
        for i in 0..2u32 {
            let mut data = MsgData::new(b"jam");
            data.set_class(MsgClass::Basic);
            let _ = i;
            n.push_arrival(NetPayload::Msg {
                src: 1,
                logical_q: 1,
                data,
            });
        }
        let _ = run(&mut n, 500);
        assert_eq!(n.stats.rx_retry_drops.get(), 2);
        assert_eq!(n.stats.class[MsgClass::Basic as usize].dropped.get(), 2);
        assert!(!n.has_work(), "capped retry quiesces the engine");
        assert!(n.ctrl.rx[1].full_stalls.get() >= 16, "8 stalls per message");
    }
}
