//! The firmware dispatch engine.
//!
//! The sP runs a classic poll loop: check the aBIU→sBIU request queue,
//! then the service receive queue, then the miss queue, then step any
//! active transfer state machines — handling **one work item per
//! engagement** and charging its cost to the occupancy model. While a
//! handler's cost has not elapsed, the sP does nothing else; that
//! occupancy is precisely what distinguishes transfer approaches 2 and 3
//! in the paper's evaluation.

use crate::params::FwParams;
use crate::proto::op;
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};
use sv_niu::abiu::SpRequest;
use sv_niu::{LocalCmd, Niu, NiuInterrupt, QueueId};
use sv_sim::stats::{Counter, Occupancy};

/// Command queue the firmware uses for ordered service-queue work
/// (writes + consumer updates).
pub const Q_SVC: usize = 0;
/// Command queue used for protocol work (NUMA/S-COMA staging and sends).
pub const Q_PROTO: usize = 1;

/// sSRAM staging offsets (firmware scratch).
pub mod staging {
    /// NUMA read-reply composition (meta + data).
    pub const NUMA_READ: u32 = 0x1000;
    /// NUMA write landing.
    pub const NUMA_WRITE: u32 = 0x1040;
    /// S-COMA recall/writeback composition.
    pub const SCOMA_RECALL: u32 = 0x1080;
    /// S-COMA home writeback landing + grant source.
    pub const SCOMA_WB: u32 = 0x10C0;
    /// S-COMA home grant staging (clean grants).
    pub const SCOMA_GRANT: u32 = 0x1100;
}

/// aSRAM staging offsets (within `[96 KiB, 128 KiB)`, see `Ctrl::new`).
pub mod asram_staging {
    /// Approach-2 sender staging, one slot per command queue.
    pub const A2: [u32; 2] = [0x18000, 0x18800];
    /// Block-operation staging (approaches 3-5), one page.
    pub const BLOCK: u32 = 0x1A000;
}

/// Static firmware configuration (conventions shared by all nodes).
#[derive(Debug, Clone, Copy)]
pub struct FwConfig {
    /// This node's id.
    pub node: u16,
    /// Total nodes in the machine.
    pub nodes: u16,
    /// Hardware rx queue bound as the sP service queue.
    pub svc_q: QueueId,
    /// Logical queue number of every node's sP service queue.
    pub svc_lq: u16,
    /// Page size used for block-operation chunking and home interleave.
    pub page: u32,
}

impl FwConfig {
    /// Default conventions: service queue = hardware slot 0 = logical 0.
    pub fn new(node: u16, nodes: u16) -> Self {
        FwConfig {
            node,
            nodes,
            svc_q: QueueId(0),
            svc_lq: 0,
            page: 4096,
        }
    }

    /// Home node of a NUMA address (page-interleaved).
    pub fn numa_home(&self, addr: u64) -> u16 {
        ((addr >> 12) % self.nodes as u64) as u16
    }

    /// Home node of an S-COMA line (page-interleaved over the region).
    pub fn scoma_home(&self, line: u64) -> u16 {
        (((line * sv_membus::CACHE_LINE) >> 12) % self.nodes as u64) as u16
    }
}

/// Aggregate firmware statistics.
#[derive(Debug, Default)]
pub struct FwStats {
    /// Work items handled.
    pub handled: Counter,
    /// Svc msgs.
    pub svc_msgs: Counter,
    /// Miss msgs.
    pub miss_msgs: Counter,
    /// Violations seen.
    pub violations_seen: Counter,
    /// Malformed, stale, or otherwise protocol-inconsistent messages the
    /// firmware discarded instead of acting on (truncated payloads,
    /// unknown opcodes, state transitions for lines/transfers it does not
    /// know). A hardened firmware counts these and keeps running; it
    /// never panics on traffic it did not expect.
    pub proto_errors: Counter,
}

/// Per-tenant firmware state: the sP half of the tenancy subsystem. The
/// machine reserves a band of hardware rx slots for tenant traffic; the
/// firmware manages which tenant logical queues are resident in them
/// (LRU refill on every miss-queue service, the software-managed-TLB
/// discipline the paper's rx-queue cache implies) and drains arrivals
/// from resident slots into the software receive queues, so tenants are
/// *served* by the node rather than each polling an aP-mapped queue.
#[derive(Debug, Clone)]
pub struct FwTenant {
    /// First tenant logical rx queue (tenant `t` owns `lq_base + t`).
    pub lq_base: u16,
    /// Tenants on this node.
    pub count: u16,
    /// First hardware rx slot managed for tenant caching.
    pub slot_lo: u8,
    /// Last (inclusive) managed hardware rx slot.
    pub slot_hi: u8,
    /// Logical queue resident per managed slot; `u16::MAX` = unbound.
    pub slot_lq: Vec<u16>,
    /// LRU stamp per managed slot.
    pub slot_tick: Vec<u64>,
    /// Monotonic use counter feeding the LRU stamps.
    pub tick: u64,
    /// Round-robin cursor for draining resident slots.
    pub drain_rr: u8,
    /// Rebinds performed (queue-cache management work).
    pub rebinds: Counter,
    /// Messages drained from resident hardware slots, per tenant.
    pub drained: Vec<Counter>,
    /// Messages serviced via the miss queue, per tenant.
    pub miss_served: Vec<Counter>,
    /// Per-tenant residency pin: once bound, a pinned tenant's slot is
    /// exempt from LRU eviction (unless every slot is pinned). This is
    /// the QoS half of the queue cache — Latency-class tenants keep
    /// hardware delivery even when the namespace thrashes the pool.
    pub pinned: Vec<bool>,
}

impl FwTenant {
    /// Fresh tenant state managing hardware slots `slot_lo..=slot_hi`;
    /// `pinned[t]` marks tenant `t`'s queue eviction-exempt.
    pub fn new(lq_base: u16, count: u16, slot_lo: u8, slot_hi: u8, pinned: Vec<bool>) -> Self {
        let n = (slot_hi - slot_lo + 1) as usize;
        assert_eq!(pinned.len(), count as usize, "one pin flag per tenant");
        FwTenant {
            lq_base,
            count,
            slot_lo,
            slot_hi,
            slot_lq: vec![u16::MAX; n],
            slot_tick: vec![0; n],
            tick: 0,
            drain_rr: 0,
            rebinds: Counter::default(),
            drained: vec![Counter::default(); count as usize],
            miss_served: vec![Counter::default(); count as usize],
            pinned,
        }
    }

    /// Whether managed slot `i` currently holds a pinned tenant's queue.
    #[inline]
    fn slot_pinned(&self, i: usize) -> bool {
        self.tenant_of(self.slot_lq[i])
            .is_some_and(|t| self.pinned[t])
    }

    /// Which tenant owns logical queue `lq`, if any.
    #[inline]
    pub fn tenant_of(&self, lq: u16) -> Option<usize> {
        let t = lq.checked_sub(self.lq_base)?;
        (t < self.count).then_some(t as usize)
    }
}

/// One node's firmware.
#[derive(Debug)]
pub struct Firmware {
    /// Node configuration.
    pub cfg: FwConfig,
    /// Timing/geometry parameters.
    pub params: FwParams,
    busy_until: u64,
    /// Accumulated busy time.
    pub occupancy: Occupancy,
    /// Running statistics.
    pub stats: FwStats,
    /// Our cursor into the service queue (the CTRL consumer pointer is
    /// advanced by in-order RxPtrUpdate commands so slots are not
    /// recycled under pending bus writes).
    svc_ptr: u16,
    /// Block-transfer service state.
    pub xfer: crate::xfer::XferService,
    /// NUMA protocol state and statistics.
    pub numa: crate::numa::NumaService,
    /// S-COMA directory and statistics.
    pub scoma: crate::scoma::ScomaService,
    /// Software (DRAM-resident) receive queues fed by the miss queue.
    pub sw_rx: HashMap<u16, VecDeque<(u16, Bytes)>>,
    /// NIC-resident collective state and statistics.
    pub coll: crate::coll::CollService,
    /// Tenancy state; `None` unless the machine armed tenants at build.
    pub tenant: Option<FwTenant>,
}

impl Firmware {
    /// Firmware for one node.
    pub fn new(cfg: FwConfig, params: FwParams) -> Self {
        Firmware {
            cfg,
            params,
            busy_until: 0,
            occupancy: Occupancy::default(),
            stats: FwStats::default(),
            svc_ptr: 0,
            xfer: Default::default(),
            numa: Default::default(),
            scoma: Default::default(),
            sw_rx: HashMap::new(),
            coll: Default::default(),
            tenant: None,
        }
    }

    /// Arm tenancy: manage hardware rx slots `slot_lo..=slot_hi` as an
    /// LRU cache over the `count` tenant logical queues at `lq_base`,
    /// with `pinned[t]` exempting tenant `t` from eviction once bound.
    /// Called once at machine build time.
    pub fn arm_tenancy(
        &mut self,
        lq_base: u16,
        count: u16,
        slot_lo: u8,
        slot_hi: u8,
        pinned: Vec<bool>,
    ) {
        self.tenant = Some(FwTenant::new(lq_base, count, slot_lo, slot_hi, pinned));
    }

    /// Charge `base` cycles (after ablation scaling) of sP occupancy
    /// starting at `cycle`.
    pub(crate) fn charge(&mut self, cycle: u64, base: u64) {
        let c = self.params.cost(base);
        self.busy_until = cycle + c;
        // Anchored interval (66 MHz bus cycle ≈ 15 ns) so utilization can
        // be clipped to a run window even when a handler straddles its end.
        self.occupancy.busy_at(cycle * 15, c * 15);
        self.stats.handled.bump();
    }

    /// Whether the firmware is mid-handler at `cycle`.
    pub fn is_busy(&self, cycle: u64) -> bool {
        self.busy_until > cycle
    }

    /// Whether the firmware holds unfinished protocol/transfer state.
    pub fn has_work(&self, niu: &Niu) -> bool {
        self.xfer.has_work()
            || niu.sp_requests_pending() > 0
            || self.scoma.has_pending()
            || self.coll.has_pending()
            || self.svc_pending(niu)
            || self.miss_pending(niu)
            || self.tenant_slots_pending(niu)
    }

    /// Whether the miss queue holds messages for the firmware to drain.
    /// Shared by [`Firmware::has_work`] and [`Firmware::next_wake`], so
    /// quiescence and the wake computation agree on it.
    fn miss_pending(&self, niu: &Niu) -> bool {
        let miss_q = niu.params.miss_queue_slot;
        QueueId(miss_q as u8) != self.cfg.svc_q && niu.ctrl.rx[miss_q].pending() > 0
    }

    /// Whether any tenant-managed hardware slot holds undrained messages.
    fn tenant_slots_pending(&self, niu: &Niu) -> bool {
        self.tenant.as_ref().is_some_and(|tn| {
            (tn.slot_lo..=tn.slot_hi)
                .any(|s| niu.ctrl.rx.get(s as usize).is_some_and(|q| q.pending() > 0))
        })
    }

    fn svc_pending(&self, niu: &Niu) -> bool {
        let q = &niu.ctrl.rx[self.cfg.svc_q.0 as usize];
        self.svc_ptr != q.producer
    }

    /// Earliest cycle >= `cycle` at which [`Firmware::tick`] can change
    /// state, or `None` when an engagement would be a pure no-op until
    /// the NIU changes. The event loop derives this wake again whenever
    /// the NIU runs, a bus completion reaches the NIU or a snoop raises
    /// an sP request, so each source reports only work it can act on
    /// now, by the same gates its step tests: a transfer waiting on a
    /// deep command queue, a busy block unit, a GO or its pages asks for
    /// nothing. Waking early is always safe, skipping a state-changing
    /// cycle is not.
    pub fn next_wake(&self, cycle: u64, niu: &Niu) -> Option<u64> {
        // Raised interrupt lines are drained on the very next engagement,
        // busy or not.
        if niu.interrupts_pending() {
            return Some(cycle);
        }
        let deep = niu.ctrl.cmdq[Q_SVC].len() > 48 || niu.ctrl.cmdq[Q_PROTO].len() > 48;
        let work = niu.sp_requests_pending() > 0
            || self.svc_pending(niu)
            || self.miss_pending(niu)
            || self.tenant_slots_pending(niu)
            || self.xfer.has_actionable(niu)
            // Collectives waiting on tree messages need no engagement
            // (arrival wakes us via svc_pending, like scoma); only ones
            // with a send/delivery ready demand a tick.
            || self.coll.has_actionable(self.cfg.node, self.cfg.nodes);
        // While the command queues are deep the firmware re-arms its
        // backpressure stall at every expiry — a state change the
        // event-driven loop must execute on the same cycles.
        if work || deep {
            Some(self.busy_until.max(cycle))
        } else {
            // Note `scoma.has_pending()` keeps `has_work()` true but
            // requires no engagement: it resolves via future service-queue
            // messages, which wake us through `svc_pending`.
            None
        }
    }

    /// One firmware engagement: poll sources in priority order, handle at
    /// most one item.
    pub fn tick(&mut self, cycle: u64, niu: &mut Niu) {
        // Interrupt lines are edge-triggered bookkeeping, free to drain.
        while let Some(int) = niu.pop_interrupt() {
            if let NiuInterrupt::TxViolation(_) = int {
                self.stats.violations_seen.bump();
            }
        }
        if self.busy_until > cycle {
            return;
        }
        // Handlers need room for the commands they push.
        if niu.sp().cmd_depth(Q_SVC) > 48 || niu.sp().cmd_depth(Q_PROTO) > 48 {
            self.busy_until = cycle + 4;
            return;
        }
        // 1. aBIU→sBIU requests (coherence misses, violations).
        if let Some(req) = niu.sp().pop_request() {
            self.handle_sp_request(cycle, req, niu);
            return;
        }
        // 2. Service queue messages.
        if self.step_service_queue(cycle, niu) {
            return;
        }
        // 3. Miss/overflow queue.
        if self.step_miss_queue(cycle, niu) {
            return;
        }
        // 4. Tenant traffic parked in resident hardware slots.
        if self.step_tenant_drain(cycle, niu) {
            return;
        }
        // 5. Active transfer state machines.
        if self.step_xfers(cycle, niu) {
            return;
        }
        // 6. Collective fan-in/fan-out progress.
        self.step_coll(cycle, niu);
    }

    fn handle_sp_request(&mut self, cycle: u64, req: SpRequest, niu: &mut Niu) {
        match req {
            SpRequest::NumaLoad { addr, .. } => self.numa_on_load_miss(cycle, addr, niu),
            SpRequest::NumaStore { addr, data } => self.numa_on_store(cycle, addr, data, niu),
            SpRequest::ScomaMiss { line, write } => {
                self.scoma_on_local_miss(cycle, line, write, niu)
            }
            SpRequest::Violation { .. } => {
                // OS policy decision; we record it and leave the queue
                // disabled (tests re-enable explicitly).
                self.charge(cycle, self.params.dispatch_cycles);
            }
            SpRequest::ReflectStore {
                peer,
                peer_addr,
                data,
            } => {
                // Firmware-mode reflective memory: ship the captured
                // store as a remote write.
                niu.sp().push_cmd(
                    Q_PROTO,
                    LocalCmd::SendRemoteCmd {
                        node: peer,
                        cmd: sv_niu::msg::RemoteCmdKind::WriteDram {
                            addr: peer_addr,
                            data,
                        },
                    },
                );
                self.charge(cycle, self.params.reflect_fw_cycles);
            }
        }
    }

    /// Process one service-queue message; returns whether one was handled.
    fn step_service_queue(&mut self, cycle: u64, niu: &mut Niu) -> bool {
        let svc_q = self.cfg.svc_q;
        let Some((src, _lq, data, sel, payload_addr)) = niu.sp().msg_at(svc_q, self.svc_ptr) else {
            return false;
        };
        self.stats.svc_msgs.bump();
        // An empty service message has no opcode byte at all. It used to
        // decode as opcode 0 via `unwrap_or(0)` — benign only for as long
        // as 0 stays unassigned in `proto::op`. Treat it as the protocol
        // error it is: count it, charge dispatch, free the slot, move on.
        let Some(opcode) = data.first().copied() else {
            self.stats.proto_errors.bump();
            self.svc_ptr = self.svc_ptr.wrapping_add(1);
            let ptr = self.svc_ptr;
            niu.sp().push_cmd(
                Q_SVC,
                LocalCmd::RxPtrUpdate {
                    q: svc_q,
                    consumer: ptr,
                },
            );
            self.charge(cycle, self.params.dispatch_cycles);
            return true;
        };
        // Most handlers copy what they need out of the slot, so the slot
        // can be freed immediately; XFER_DATA's bus write reads the slot
        // in place and frees it with an in-order pointer update.
        let needs_slot = opcode == op::XFER_DATA;
        self.svc_ptr = self.svc_ptr.wrapping_add(1);
        if !needs_slot {
            let ptr = self.svc_ptr;
            niu.sp().push_cmd(
                Q_SVC,
                LocalCmd::RxPtrUpdate {
                    q: svc_q,
                    consumer: ptr,
                },
            );
        }
        match opcode {
            op::XFER_REQ => self.xfer_on_request(cycle, &data, niu),
            op::XFER_DATA => {
                let ptr = self.svc_ptr;
                self.xfer_on_data(cycle, src, &data, sel, payload_addr, ptr, niu)
            }
            op::XFER_SETUP => self.xfer_on_setup(cycle, src, &data, niu),
            op::XFER_PAGE => self.xfer_on_page(cycle, src, &data, niu),
            op::XFER_GO => self.xfer_on_go(cycle, &data, niu),
            op::XFER_FLUSH => self.xfer_on_flush(cycle, &data, niu),
            op::NUMA_READ => self.numa_on_home_read(cycle, src, &data, niu),
            op::NUMA_WRITE => self.numa_on_home_write(cycle, &data, niu),
            op::NUMA_DATA => self.numa_on_data(cycle, &data, niu),
            op::SCOMA_READ => self.scoma_on_home_req(cycle, src, &data, false, niu),
            op::SCOMA_WRITE => self.scoma_on_home_req(cycle, src, &data, true, niu),
            op::SCOMA_RECALL => self.scoma_on_recall(cycle, src, &data, niu),
            op::SCOMA_WB => self.scoma_on_writeback(cycle, src, &data, niu),
            op::SCOMA_INV => self.scoma_on_inv(cycle, src, &data, niu),
            op::SCOMA_INV_ACK => self.scoma_on_inv_ack(cycle, &data, niu),
            op::COLL_START => self.coll_on_start(cycle, &data, niu),
            op::COLL_UP => self.coll_on_up(cycle, &data, niu),
            op::COLL_DOWN => self.coll_on_down(cycle, &data, niu),
            _ => {
                // Unknown opcode: drop with a dispatch charge.
                self.stats.proto_errors.bump();
                self.charge(cycle, self.params.dispatch_cycles);
            }
        }
        true
    }

    /// Service one diverted message from the miss/overflow queue into the
    /// software queues; returns whether one was handled.
    fn step_miss_queue(&mut self, cycle: u64, niu: &mut Niu) -> bool {
        let miss_q = QueueId(niu.params.miss_queue_slot as u8);
        if miss_q == self.cfg.svc_q {
            return false;
        }
        let Some((src, lq, data)) = niu.sp().read_msg(miss_q) else {
            return false;
        };
        self.stats.miss_msgs.bump();
        self.sw_rx.entry(lq).or_default().push_back((src, data));
        let mut cost = self.params.miss_service_cycles;
        if let Some(tn) = &mut self.tenant {
            if let Some(t) = tn.tenant_of(lq) {
                tn.miss_served[t].bump();
                // Complete the inject→deliver sample the NIU parked when
                // this message was written into the miss queue (keyed by
                // the slot index, i.e. the just-consumed pointer value).
                let slot_idx = niu.ctrl.rx[miss_q.0 as usize].consumer.wrapping_sub(1);
                if let Some(ta) = &mut niu.tenant {
                    if let Some((_, sent)) = ta.miss_meta.remove(&slot_idx) {
                        ta.miss_latency[t].record(cycle.saturating_sub(sent) * sv_niu::CYCLE_NS);
                    }
                }
                // Queue-cache management, the software-managed-TLB refill:
                // make the missed logical queue resident by evicting the
                // least-recently-used managed slot, so this tenant's next
                // arrivals take the hardware hit path.
                tn.tick += 1;
                let now = tn.tick;
                match niu.ctrl.rx_cache.peek(lq) {
                    Some(hw) => {
                        // Already resident (the miss predates a refill
                        // that has since happened): just touch its stamp.
                        if (tn.slot_lo..=tn.slot_hi).contains(&hw.0) {
                            tn.slot_tick[(hw.0 - tn.slot_lo) as usize] = now;
                        }
                    }
                    None => {
                        // LRU over the evictable slots: pinned-bound
                        // slots (Latency-class residents) are passed
                        // over so QoS tenants keep hardware delivery
                        // under thrash — unless every slot is pinned,
                        // in which case plain LRU is the only option.
                        let evictable = |tn: &FwTenant, i: usize| !tn.slot_pinned(i);
                        let all_pinned = (0..tn.slot_lq.len()).all(|i| !evictable(tn, i));
                        let mut victim = usize::MAX;
                        for i in 0..tn.slot_lq.len() {
                            if !all_pinned && !evictable(tn, i) {
                                continue;
                            }
                            if victim == usize::MAX || tn.slot_tick[i] < tn.slot_tick[victim] {
                                victim = i;
                            }
                        }
                        let hw = QueueId(tn.slot_lo + victim as u8);
                        if (hw.0 as usize) < niu.params.rx_queues {
                            tn.slot_lq[victim] = lq;
                            tn.slot_tick[victim] = now;
                            tn.rebinds.bump();
                            niu.sp().bind_rx_queue(lq, hw);
                            cost += self.params.dispatch_cycles;
                        }
                    }
                }
            }
        }
        self.charge(cycle, cost);
        true
    }

    /// Drain one message from a tenant-managed hardware slot into the
    /// software receive queues; returns whether one was handled. Resident
    /// tenants get hardware delivery (the cache-hit path, no divert), but
    /// the sP still moves payloads out so the 16-entry slots never back
    /// up into divert storms.
    fn step_tenant_drain(&mut self, cycle: u64, niu: &mut Niu) -> bool {
        let Some(tn) = self.tenant.as_mut() else {
            return false;
        };
        let n = tn.slot_lq.len();
        if n == 0 {
            return false;
        }
        for k in 0..n {
            let i = (tn.drain_rr as usize + k) % n;
            let hw = QueueId(tn.slot_lo + i as u8);
            let pending = niu
                .ctrl
                .rx
                .get(hw.0 as usize)
                .is_some_and(|q| q.pending() > 0);
            if !pending {
                continue;
            }
            let Some((src, lq, data)) = niu.sp().read_msg(hw) else {
                continue;
            };
            tn.drain_rr = ((i + 1) % n) as u8;
            tn.tick += 1;
            tn.slot_tick[i] = tn.tick;
            if let Some(t) = tn.tenant_of(lq) {
                tn.drained[t].bump();
            }
            self.sw_rx.entry(lq).or_default().push_back((src, data));
            self.charge(cycle, self.params.miss_service_cycles);
            return true;
        }
        false
    }

    /// Pop a message from a software (miss-serviced) queue. The caller
    /// (the aP library slow path) charges its own cost.
    pub fn sw_rx_pop(&mut self, lq: u16) -> Option<(u16, Bytes)> {
        self.sw_rx.get_mut(&lq)?.pop_front()
    }
}

sv_sim::checkpointed! {
    struct FwConfig {
        node,
        nodes,
        svc_q,
        svc_lq,
        page,
    }
    // Home interleave and page chunking divide by these.
    validate: |c: &FwConfig| c.nodes != 0 && c.page != 0
}

sv_sim::checkpointed! {
    struct FwStats {
        handled,
        svc_msgs,
        miss_msgs,
        violations_seen,
        proto_errors,
    }
}

sv_sim::checkpointed! {
    struct FwTenant {
        lq_base,
        count,
        slot_lo,
        slot_hi,
        slot_lq,
        slot_tick,
        tick,
        drain_rr,
        rebinds,
        drained,
        miss_served,
        pinned,
    }
    validate: FwTenant::is_consistent
}

impl FwTenant {
    /// The drain scan and miss refill index all five vectors by slot or
    /// tenant; forged mismatched lengths would panic there.
    fn is_consistent(&self) -> bool {
        let slots = (self.slot_hi as usize)
            .checked_sub(self.slot_lo as usize)
            .map(|d| d + 1);
        let tenants = self.count as usize;
        slots == Some(self.slot_lq.len())
            && self.slot_tick.len() == self.slot_lq.len()
            && self.drained.len() == tenants
            && self.miss_served.len() == tenants
            && self.pinned.len() == tenants
    }
}

sv_sim::checkpointed! {
    struct Firmware {
        cfg,
        params,
        busy_until,
        occupancy,
        stats,
        svc_ptr,
        xfer,
        numa,
        scoma,
        sw_rx,
        coll,
        tenant,
    }
    validate: Firmware::roots_in_range
}

impl Firmware {
    /// Tree arithmetic divides by `nodes` and indexes by rank; a forged
    /// snapshot must not smuggle an out-of-range root in. The
    /// UNKNOWN_ROOT sentinel (state created by tree messages before the
    /// local COLL_START) is legitimate mid-collective content.
    fn roots_in_range(&self) -> bool {
        self.coll
            .states
            .values()
            .all(|s| s.root == crate::coll::UNKNOWN_ROOT || s.root < self.cfg.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homes_are_page_interleaved() {
        let cfg = FwConfig::new(0, 4);
        assert_eq!(cfg.numa_home(0x8000_0000), 0);
        assert_eq!(cfg.numa_home(0x8000_1000), 1);
        assert_eq!(cfg.numa_home(0x8000_4000), 0);
        // Lines 0..127 live on page 0 → home 0; 128.. → home 1.
        assert_eq!(cfg.scoma_home(0), 0);
        assert_eq!(cfg.scoma_home(127), 0);
        assert_eq!(cfg.scoma_home(128), 1);
    }

    #[test]
    fn charge_scales_and_accumulates() {
        let mut fw = Firmware::new(FwConfig::new(0, 2), FwParams::default().scaled(200));
        fw.charge(100, 10);
        assert!(fw.is_busy(119));
        assert!(!fw.is_busy(120));
        assert_eq!(fw.occupancy.busy_ns, 20 * 15);
        assert_eq!(fw.stats.handled.get(), 1);
    }
}
