//! One StarT-Voyager node: aP core + L1/L2 + memory bus + DRAM + NIU + sP.
//!
//! The node advances on the 66 MHz bus clock. Each tick: the aP core
//! makes one step of progress, the bus advances (with the node merging
//! snoop verdicts from the caches, the aBIU and the memory controller),
//! the NIU engines run, pending aBIU bus-master requests are issued, and
//! the firmware engine gets one engagement. All functional data movement
//! happens at bus-completion instants, so timing and data are always
//! consistent. The event loop's tick (`Node::tick_due`) runs the same
//! sequence but skips the NIU and the firmware when neither is due.

use crate::app::{AppEvent, AppEventKind, Env, Program, Step, StoreData};
use crate::params::SystemParams;
use std::collections::{HashMap, HashSet};
use sv_arctic::Packet;
use sv_firmware::{Firmware, FwConfig};
use sv_membus::{
    Bus, BusEvent, BusOp, BusOpKind, DramTimer, MasterId, MemoryArray, Mesi, SnoopVerdict,
    SnoopyCache,
};
use sv_niu::abiu::{AbiuRequest, DataMove};
use sv_niu::msg::NetPayload;
use sv_niu::{Niu, SramSel};
use sv_sim::stats::Counter;
use sv_sim::Time;

/// aP core execution state.
#[derive(Debug)]
enum CpuState {
    /// No program loaded.
    Unloaded,
    /// Ready to take the next program step.
    Ready,
    /// Busy computing until the given time.
    Computing { until: Time },
    /// Waiting for an outstanding memory operation.
    WaitMem,
    /// Program finished.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpuOpKind {
    CachedLoad,
    CachedStoreFill,
    CachedStoreUpgrade,
    UncachedLoad,
    UncachedStore,
}

#[derive(Debug)]
struct PendingCpuOp {
    tag: u64,
    kind: CpuOpKind,
    addr: u64,
    bytes: u32,
    data: Option<StoreData>,
    issued_at: Time,
}

/// Per-node statistics.
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Load operations executed.
    pub loads: Counter,
    /// Store operations executed.
    pub stores: Counter,
    /// L1 hits.
    pub l1_hits: Counter,
    /// L2 hits.
    pub l2_hits: Counter,
    /// Bus ops issued.
    pub bus_ops_issued: Counter,
    /// Dirty-line castouts issued.
    pub castouts: Counter,
    /// Time the aP spent computing (including per-step overheads).
    pub cpu_compute_ns: u64,
    /// Time the aP spent stalled on memory operations.
    pub cpu_mem_stall_ns: u64,
    /// ARTRY retries observed on aP operations (S-COMA stalls etc.).
    pub ap_retries: Counter,
}

/// One node of the machine.
pub struct Node {
    /// Request identifier.
    pub id: u16,
    /// Timing/geometry parameters.
    pub params: SystemParams,
    /// Functional memory contents (DRAM + the S-COMA region).
    pub mem: MemoryArray,
    /// Dram timer.
    pub dram_timer: DramTimer,
    /// The memory bus.
    pub bus: Bus,
    /// L1.
    pub l1: SnoopyCache,
    /// L2.
    pub l2: SnoopyCache,
    /// The network interface unit.
    pub niu: Niu,
    /// The service-processor firmware.
    pub fw: Firmware,
    /// Application event log.
    pub events: Vec<AppEvent>,
    /// Debugging tracer (disabled by default; see
    /// [`crate::Machine::enable_tracing`]).
    pub tracer: sv_sim::trace::Tracer,
    /// Running statistics.
    pub stats: NodeStats,
    program: Option<Box<dyn Program>>,
    cpu: CpuState,
    last_load: u64,
    pending: Option<PendingCpuOp>,
    castout_tags: HashSet<u64>,
    inflight_abiu: HashMap<u64, AbiuRequest>,
    next_tag: u64,
    /// Scratch event buffers reused every tick (bus events, then the
    /// snoop-resolution events they spawn) so the hot loop never
    /// allocates.
    bus_events: Vec<BusEvent>,
    snoop_events: Vec<BusEvent>,
    /// Whole-section dirty flag for the node's small mutable state (CPU,
    /// bus, firmware, stats...), set by every mutating entry point.
    /// Runtime bookkeeping, never serialized; fresh and restored nodes
    /// start conservatively dirty.
    ckpt_dirty: bool,
    /// The NIU's and the firmware's wakes as the event loop last derived
    /// them, so that [`Node::tick_due`] can skip an engine that is not
    /// due. [`TOUCHED`] marks an engine that ran or that something
    /// touched since: its wake is derived afresh before it is next used.
    /// Runtime bookkeeping, valid only inside one run: every run entry
    /// primes them ([`Node::prime_wake`]).
    niu_wake: Option<u64>,
    fw_wake: Option<u64>,
}

/// The cached wake of an engine that ran or that something touched
/// since its wake was derived. A derived wake never reads `Some(0)` past
/// cycle 0, and at cycle 0 deriving it again is merely redundant.
const TOUCHED: Option<u64> = Some(0);

impl Node {
    /// Build node `id` of a `nodes`-node machine.
    pub fn new(id: u16, nodes: u16, params: SystemParams) -> Self {
        Node {
            id,
            mem: MemoryArray::new(),
            dram_timer: DramTimer::default(),
            bus: Bus::new(params.bus),
            l1: SnoopyCache::new(params.l1),
            l2: SnoopyCache::new(params.l2),
            niu: Niu::new(id, params.niu, params.map),
            fw: Firmware::new(FwConfig::new(id, nodes), params.fw),
            events: Vec::new(),
            tracer: sv_sim::trace::Tracer::new(8192),
            stats: NodeStats::default(),
            program: None,
            cpu: CpuState::Unloaded,
            last_load: 0,
            pending: None,
            castout_tags: HashSet::new(),
            inflight_abiu: HashMap::new(),
            next_tag: 1,
            bus_events: Vec::new(),
            snoop_events: Vec::new(),
            ckpt_dirty: true,
            niu_wake: TOUCHED,
            fw_wake: TOUCHED,
            params,
        }
    }

    /// Load (or replace) the aP program.
    pub fn load_program(&mut self, p: Box<dyn Program>) {
        self.ckpt_dirty = true;
        self.program = Some(p);
        self.cpu = CpuState::Ready;
    }

    /// Drop all cached lines (cold-cache measurement helper). Functional
    /// data is unaffected — the data model is write-through. The fresh
    /// caches start all-dirty, so a flush can never hide from a delta
    /// snapshot.
    pub fn flush_caches(&mut self) {
        self.ckpt_dirty = true;
        self.l1 = SnoopyCache::new(self.params.l1);
        self.l2 = SnoopyCache::new(self.params.l2);
    }

    /// Whether the aP program has run to completion (vacuously true when
    /// no program is loaded).
    pub fn program_done(&self) -> bool {
        matches!(self.cpu, CpuState::Done | CpuState::Unloaded)
    }

    /// Whether any component of this node still has work in flight.
    pub fn has_work(&self) -> bool {
        !self.program_done()
            || self.bus.busy()
            || self.niu.has_work()
            || self.fw.has_work(&self.niu)
            || self.pending.is_some()
            || !self.inflight_abiu.is_empty()
    }

    fn fresh_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    /// Earliest bus cycle >= `cycle` at which [`Node::tick`] can change
    /// state, or `None` when the node is fully idle until an external
    /// event (a packet arrival) reaches it. Conservative in the safe
    /// direction: a tick at a cycle where every engine's gate still
    /// blocks is a pure no-op, so reporting too-early cycles cannot
    /// change behaviour, only cost time.
    pub fn next_event_cycle(&self, cycle: u64, clock: &sv_sim::Clock) -> Option<u64> {
        let niu = self.niu.next_event_cycle(cycle);
        let fw = self.fw.next_wake(cycle, &self.niu);
        [self.core_wake(cycle, clock), niu, fw]
            .into_iter()
            .flatten()
            .min()
    }

    /// The aP core's and the bus's share of [`Node::next_event_cycle`].
    fn core_wake(&self, cycle: u64, clock: &sv_sim::Clock) -> Option<u64> {
        let cpu = match self.cpu {
            CpuState::Ready => Some(cycle),
            CpuState::Computing { until } => Some(clock.edge_at_or_after(until).max(cycle)),
            // WaitMem resolves via a bus completion (covered below);
            // Done/Unloaded never act.
            CpuState::WaitMem | CpuState::Done | CpuState::Unloaded => None,
        };
        let bus = self.bus.next_event_cycle(cycle).map(|c| c.max(cycle));
        cpu.into_iter().chain(bus).min()
    }

    /// [`Node::next_event_cycle`] at a run entry, keeping the NIU's and
    /// the firmware's wakes for [`Node::tick_due`].
    pub(crate) fn prime_wake(&mut self, cycle: u64, clock: &sv_sim::Clock) -> Option<u64> {
        self.touch_engines();
        self.wake(cycle, clock)
    }

    /// [`Node::next_event_cycle`] for the event loop, after its tick at
    /// `cycle - 1`: the NIU's and the firmware's wakes are derived again
    /// only when they ran or something touched them since. A kept wake is
    /// still exact: it lies at or past `cycle`, and nothing it depends on
    /// has changed.
    pub(crate) fn wake(&mut self, cycle: u64, clock: &sv_sim::Clock) -> Option<u64> {
        let niu = self.niu_wake(cycle);
        let fw = self.fw_wake(cycle);
        [self.core_wake(cycle, clock), niu, fw]
            .into_iter()
            .flatten()
            .min()
    }

    /// The NIU's wake at floor `cycle`, derived again if it is stale.
    /// Debug builds derive it afresh either way and require a kept wake
    /// to match, so an engine the tick skips has a fresh wake past the
    /// cycle, and a touch that goes unrecorded fails the run.
    fn niu_wake(&mut self, cycle: u64) -> Option<u64> {
        if self.niu_wake == TOUCHED {
            self.niu_wake = self.niu.next_event_cycle(cycle);
        }
        debug_assert_eq!(
            self.niu_wake,
            self.niu.next_event_cycle(cycle),
            "node {}: stale NIU wake at cycle {cycle}: a touch went unrecorded",
            self.id
        );
        self.niu_wake
    }

    /// The firmware's wake at floor `cycle`, derived again if it is
    /// stale, and checked like [`Node::niu_wake`].
    fn fw_wake(&mut self, cycle: u64) -> Option<u64> {
        if self.fw_wake == TOUCHED {
            self.fw_wake = self.fw.next_wake(cycle, &self.niu);
        }
        debug_assert_eq!(
            self.fw_wake,
            self.fw.next_wake(cycle, &self.niu),
            "node {}: stale firmware wake at cycle {cycle}: a touch went unrecorded",
            self.id
        );
        self.fw_wake
    }

    /// Mark both engines touched. Each can open the other's gates, and a
    /// bus completion that reaches the NIU can open gates of either.
    fn touch_engines(&mut self) {
        self.niu_wake = TOUCHED;
        self.fw_wake = TOUCHED;
    }

    /// Hand a packet the fabric delivered to the NIU, which touches it.
    pub(crate) fn push_arrival_packet(&mut self, cycle: u64, pkt: Packet<NetPayload>) {
        self.niu_wake = TOUCHED;
        self.niu.push_arrival_packet(cycle, pkt);
    }

    /// Take the NIU's next outbound packet ready by `cycle`; a pop
    /// touches the NIU (its transmit FIFO gains room).
    pub(crate) fn pop_ready_packet(&mut self, cycle: u64) -> Option<Packet<NetPayload>> {
        let pkt = self.niu.pop_ready_packet(cycle)?;
        self.niu_wake = TOUCHED;
        Some(pkt)
    }

    /// Advance the node to bus cycle `cycle` (absolute time `now`),
    /// running every engine: the cycle-stepped oracle's tick.
    pub fn tick(&mut self, cycle: u64, now: Time) {
        self.tick_engines(cycle, now, true);
    }

    /// The event loop's tick: [`Node::tick`]'s sequence, except that the
    /// NIU and the firmware run only when their wakes are due. A wake is
    /// derived again first when the engine ran or something touched it
    /// since: a bus completion that reached the NIU, an sP request a snoop
    /// raised, an arrival, an egress pop, or the other engine running. A
    /// skipped engine's tick would have changed nothing (its wake lies
    /// past `cycle`), so the node ends in the state [`Node::tick`]
    /// leaves, the NIU's dirty flag included.
    pub(crate) fn tick_due(&mut self, cycle: u64, now: Time) {
        self.tick_engines(cycle, now, false);
    }

    fn tick_engines(&mut self, cycle: u64, now: Time, all: bool) {
        self.ckpt_dirty = true;
        self.cpu_step(now);
        let mut events = std::mem::take(&mut self.bus_events);
        self.bus.tick_into(cycle, &mut events);
        for ev in events.drain(..) {
            self.handle_bus_event(cycle, now, ev);
        }
        self.bus_events = events;
        if all || self.niu_wake(cycle).is_some_and(|w| w <= cycle) {
            self.niu.tick(cycle);
            // The NIU delivers to the firmware's queues.
            self.touch_engines();
        } else {
            self.niu.skip_tick();
        }
        // Issue aBIU bus-master requests.
        while let Some(req) = self.niu.pop_abiu_request() {
            self.bus.request(req.bus_op());
            self.inflight_abiu.insert(req.id, req);
        }
        if all || self.fw_wake(cycle).is_some_and(|w| w <= cycle) {
            self.fw.tick(cycle, &mut self.niu);
            // The firmware feeds the NIU's command queues.
            self.touch_engines();
        }
    }

    // =====================================================================
    // aP core
    // =====================================================================

    fn cpu_step(&mut self, now: Time) {
        match self.cpu {
            CpuState::Computing { until } if until <= now => self.cpu = CpuState::Ready,
            _ => {}
        }
        if !matches!(self.cpu, CpuState::Ready) {
            return;
        }
        let Some(program) = self.program.as_mut() else {
            self.cpu = CpuState::Unloaded;
            return;
        };
        let mut env = Env {
            now,
            node: self.id,
            last_load: self.last_load,
            events: &mut self.events,
        };
        let step = program.step(&mut env);
        match step {
            Step::Compute(ns) => {
                self.stats.cpu_compute_ns += ns;
                self.cpu = CpuState::Computing {
                    until: now.plus(ns.max(1)),
                };
            }
            Step::Idle => {
                self.cpu = CpuState::Computing {
                    until: now.plus(15),
                };
            }
            Step::Done => {
                self.events.push(AppEvent {
                    at: now,
                    kind: AppEventKind::ProgramDone,
                });
                self.cpu = CpuState::Done;
            }
            Step::Load { addr, bytes } => {
                assert!((1..=8).contains(&bytes), "loads are 1-8 bytes");
                self.stats.loads.bump();
                if self.tracer.enabled() {
                    self.tracer.record(
                        now,
                        sv_sim::trace::Subsys::App,
                        format!("load {bytes}B @{addr:#x}"),
                    );
                }
                self.issue_load(now, addr, bytes);
            }
            Step::Store { addr, data } => {
                assert!((1..=8).contains(&data.len()), "stores are 1-8 bytes");
                self.stats.stores.bump();
                if self.tracer.enabled() {
                    self.tracer.record(
                        now,
                        sv_sim::trace::Subsys::App,
                        format!("store {}B @{addr:#x}", data.len()),
                    );
                }
                self.issue_store(now, addr, data);
            }
        }
    }

    fn finish_local(&mut self, now: Time, ns: u64) {
        self.stats.cpu_compute_ns += ns;
        self.cpu = CpuState::Computing {
            until: now.plus(ns + self.params.cpu.step_overhead_ns),
        };
    }

    fn issue_load(&mut self, now: Time, addr: u64, bytes: u32) {
        if self.params.map.is_memory_backed(addr) {
            if self.l1.lookup(addr) != Mesi::Invalid {
                self.stats.l1_hits.bump();
                self.last_load = self.read_word(addr, bytes);
                self.finish_local(now, self.params.cpu.l1_hit_ns);
                return;
            }
            let l2_state = self.l2.lookup(addr);
            if l2_state != Mesi::Invalid {
                self.stats.l2_hits.bump();
                self.l1.install(addr, l2_state);
                self.last_load = self.read_word(addr, bytes);
                self.finish_local(now, self.params.cpu.l2_hit_ns);
                return;
            }
            let tag = self.fresh_tag();
            self.bus
                .request(BusOp::burst(BusOpKind::Read, addr, MasterId::Ap, tag));
            self.stats.bus_ops_issued.bump();
            self.pending = Some(PendingCpuOp {
                tag,
                kind: CpuOpKind::CachedLoad,
                addr,
                bytes,
                data: None,
                issued_at: now,
            });
            self.cpu = CpuState::WaitMem;
        } else {
            let tag = self.fresh_tag();
            self.bus.request(BusOp::single(
                BusOpKind::SingleRead,
                addr,
                bytes,
                MasterId::Ap,
                tag,
            ));
            self.stats.bus_ops_issued.bump();
            self.pending = Some(PendingCpuOp {
                tag,
                kind: CpuOpKind::UncachedLoad,
                addr,
                bytes,
                data: None,
                issued_at: now,
            });
            self.cpu = CpuState::WaitMem;
        }
    }

    fn issue_store(&mut self, now: Time, addr: u64, data: StoreData) {
        // Reflective-memory stores write through the bus so the aBIU can
        // capture them (Shrimp-style mapped pages are write-through).
        let reflect = matches!(
            self.params.map.classify(addr),
            sv_niu::addrmap::Region::Reflect
        );
        if self.params.map.is_memory_backed(addr) && !reflect {
            let l1 = self.l1.lookup(addr);
            let l2 = self.l2.lookup(addr);
            let effective = if l1 != Mesi::Invalid { l1 } else { l2 };
            match effective {
                Mesi::Modified | Mesi::Exclusive => {
                    // Writable: functional write-through, state to M.
                    self.mem.write(addr, &data.to_bytes());
                    if l1 != Mesi::Invalid {
                        self.l1.set_state(addr, Mesi::Modified);
                    } else {
                        self.l1.install(addr, Mesi::Modified);
                        self.stats.l2_hits.bump();
                    }
                    self.l2.set_state(addr, Mesi::Modified);
                    let cost = if l1 != Mesi::Invalid {
                        self.params.cpu.l1_hit_ns
                    } else {
                        self.params.cpu.l2_hit_ns
                    };
                    self.finish_local(now, cost);
                }
                Mesi::Shared => {
                    // Upgrade: address-only Kill.
                    let tag = self.fresh_tag();
                    self.bus
                        .request(BusOp::addr_only(BusOpKind::Kill, addr, MasterId::Ap, tag));
                    self.stats.bus_ops_issued.bump();
                    self.pending = Some(PendingCpuOp {
                        tag,
                        kind: CpuOpKind::CachedStoreUpgrade,
                        addr,
                        bytes: data.len(),
                        data: Some(data),
                        issued_at: now,
                    });
                    self.cpu = CpuState::WaitMem;
                }
                Mesi::Invalid => {
                    let tag = self.fresh_tag();
                    self.bus
                        .request(BusOp::burst(BusOpKind::Rwitm, addr, MasterId::Ap, tag));
                    self.stats.bus_ops_issued.bump();
                    self.pending = Some(PendingCpuOp {
                        tag,
                        kind: CpuOpKind::CachedStoreFill,
                        addr,
                        bytes: data.len(),
                        data: Some(data),
                        issued_at: now,
                    });
                    self.cpu = CpuState::WaitMem;
                }
            }
        } else {
            let tag = self.fresh_tag();
            self.bus.request(BusOp::single(
                BusOpKind::SingleWrite,
                addr,
                data.len(),
                MasterId::Ap,
                tag,
            ));
            self.stats.bus_ops_issued.bump();
            self.pending = Some(PendingCpuOp {
                tag,
                kind: CpuOpKind::UncachedStore,
                addr,
                bytes: data.len(),
                data: Some(data),
                issued_at: now,
            });
            self.cpu = CpuState::WaitMem;
        }
    }

    fn read_word(&self, addr: u64, bytes: u32) -> u64 {
        let mut b = [0u8; 8];
        self.mem.read(addr, &mut b[..bytes as usize]);
        u64::from_le_bytes(b)
    }

    /// Install a filled line in L2 then L1, issuing a castout for any
    /// dirty L2 victim (inclusion: the L1 copy of the victim goes too).
    fn install_line(&mut self, addr: u64, state: Mesi) {
        if let Some((victim, dirty)) = self.l2.install(addr, state) {
            self.l1.invalidate(victim);
            if dirty {
                // Functional data is already in memory (write-through
                // functional model); the castout costs bus bandwidth.
                let tag = self.fresh_tag();
                self.castout_tags.insert(tag);
                self.bus.request(BusOp::burst(
                    BusOpKind::WriteLine,
                    victim,
                    MasterId::Ap,
                    tag,
                ));
                self.stats.castouts.bump();
            }
        }
        self.l1.install(addr, state);
    }

    // =====================================================================
    // Bus event handling
    // =====================================================================

    fn handle_bus_event(&mut self, cycle: u64, now: Time, ev: BusEvent) {
        match ev {
            BusEvent::Snoop(op) => {
                let verdict = self.snoop_all(cycle, &op);
                // Snoop resolution only yields Retried/Completed, never
                // another Snoop, so this recursion is depth one and the
                // taken scratch buffer cannot be re-entered.
                let mut more = std::mem::take(&mut self.snoop_events);
                self.bus.resolve_snoop_into(cycle, verdict, &mut more);
                for e in more.drain(..) {
                    self.handle_bus_event(cycle, now, e);
                }
                self.snoop_events = more;
            }
            BusEvent::Retried(op) => {
                if op.master == MasterId::Ap {
                    self.stats.ap_retries.bump();
                }
                if self.tracer.enabled() {
                    self.tracer.record(
                        now,
                        sv_sim::trace::Subsys::Bus,
                        format!("ARTRY {:?} {:#x} by {:?}", op.kind, op.addr, op.master),
                    );
                }
            }
            BusEvent::Completed(op, verdict) => {
                if self.tracer.enabled() {
                    self.tracer.record(
                        now,
                        sv_sim::trace::Subsys::Bus,
                        format!(
                            "done {:?} {:#x} ({}B) by {:?}{}",
                            op.kind,
                            op.addr,
                            op.bytes,
                            op.master,
                            if verdict.shared { " shd" } else { "" }
                        ),
                    );
                }
                self.complete_op(cycle, now, op, verdict)
            }
        }
    }

    /// Merge the snoop verdicts of every agent for one address tenure.
    fn snoop_all(&mut self, cycle: u64, op: &BusOp) -> SnoopVerdict {
        let mut verdict = SnoopVerdict::default();
        // Caches do not snoop their own master's operations.
        if op.master != MasterId::Ap {
            let o1 = self.l1.snoop(op.kind, op.addr);
            let o2 = self.l2.snoop(op.kind, op.addr);
            verdict.merge(o1.verdict);
            verdict.merge(o2.verdict);
        }
        let requests = self.niu.sp_requests_pending();
        verdict.merge(self.niu.ap_snoop(op));
        if self.niu.sp_requests_pending() != requests {
            // A coherence miss or a NUMA access raised a request for the sP.
            self.fw_wake = TOUCHED;
        }
        // Memory controller: supplies data for memory-backed reads not
        // supplied by a cache push.
        if !verdict.artry
            && op.kind.is_read()
            && self.params.map.is_memory_backed(op.addr)
            && verdict.supply_latency == 0
        {
            verdict.supply_latency = self.dram_timer.supply_latency(cycle, &self.params.dram);
        }
        verdict
    }

    fn complete_op(&mut self, cycle: u64, now: Time, op: BusOp, verdict: SnoopVerdict) {
        match op.master {
            MasterId::ABiu => {
                let req = self
                    .inflight_abiu
                    .remove(&op.tag)
                    .expect("completion for unknown aBIU request");
                self.apply_move(&req);
                self.niu.abiu_completed(req.id);
                self.touch_engines();
            }
            MasterId::Ap => {
                if self.castout_tags.remove(&op.tag) {
                    return;
                }
                let Some(p) = self.pending.take() else {
                    panic!("aP completion with no pending op (tag {})", op.tag);
                };
                assert_eq!(p.tag, op.tag, "out-of-order aP completion");
                self.stats.cpu_mem_stall_ns += now.since(p.issued_at);
                match p.kind {
                    CpuOpKind::CachedLoad => {
                        let state = if verdict.shared {
                            Mesi::Shared
                        } else {
                            Mesi::Exclusive
                        };
                        self.install_line(p.addr, state);
                        self.last_load = self.read_word(p.addr, p.bytes);
                    }
                    CpuOpKind::CachedStoreFill => {
                        self.install_line(p.addr, Mesi::Modified);
                        self.mem
                            .write(p.addr, &p.data.expect("store data").to_bytes());
                    }
                    CpuOpKind::CachedStoreUpgrade => {
                        self.l1.set_state(p.addr, Mesi::Modified);
                        self.l2.set_state(p.addr, Mesi::Modified);
                        // The line may only be in L2 (upgrade from there).
                        if self.l1.peek(p.addr) == Mesi::Invalid {
                            self.l1.install(p.addr, Mesi::Modified);
                        }
                        self.mem
                            .write(p.addr, &p.data.expect("store data").to_bytes());
                    }
                    CpuOpKind::UncachedLoad => {
                        self.last_load = self.niu.ap_complete_load(cycle, p.addr, p.bytes);
                        self.touch_engines();
                    }
                    CpuOpKind::UncachedStore => {
                        let bytes = p.data.expect("store data").to_bytes();
                        // Reflective stores also land in local DRAM (the
                        // memory controller accepted the write); other
                        // claimed regions are NIU-internal.
                        if self.params.map.is_memory_backed(p.addr) {
                            self.mem.write(p.addr, &bytes);
                            // The write-through invalidates any cached
                            // copy of the line on this node.
                            self.l1.invalidate(p.addr);
                            self.l2.invalidate(p.addr);
                        }
                        self.niu.ap_complete_store(cycle, p.addr, &bytes);
                        self.touch_engines();
                    }
                }
                self.cpu = CpuState::Computing {
                    until: now.plus(self.params.cpu.step_overhead_ns),
                };
            }
        }
    }

    /// Perform the functional data movement of a completed aBIU request.
    fn apply_move(&mut self, req: &AbiuRequest) {
        match &req.move_ {
            DataMove::DramToSram {
                dram,
                sram,
                sram_addr,
                len,
            } => {
                let buf = self.mem.read_vec(*dram, *len as usize);
                match sram {
                    SramSel::A => self.niu.asram.write(*sram_addr, &buf),
                    SramSel::S => self.niu.ssram.write(*sram_addr, &buf),
                }
            }
            DataMove::SramToDram {
                sram,
                sram_addr,
                dram,
                len,
            } => {
                let buf = match sram {
                    SramSel::A => self.niu.asram.read_vec(*sram_addr, *len as usize),
                    SramSel::S => self.niu.ssram.read_vec(*sram_addr, *len as usize),
                };
                self.mem.write(*dram, &buf);
            }
            DataMove::BytesToDram { dram, data } => {
                self.mem.write(*dram, data);
            }
            DataMove::None => {}
        }
    }
}

use sv_sim::ckpt::SnapshotError;

sv_sim::checkpointed! {
    enum CpuState {
        0 => Unloaded,
        1 => Ready,
        2 => Computing { until },
        3 => WaitMem,
        4 => Done,
    }
}

sv_sim::checkpointed! {
    enum CpuOpKind {
        0 => CachedLoad,
        1 => CachedStoreFill,
        2 => CachedStoreUpgrade,
        3 => UncachedLoad,
        4 => UncachedStore,
    }
}

sv_sim::checkpointed! {
    struct PendingCpuOp {
        tag,
        kind,
        addr,
        bytes,
        data,
        issued_at,
    }
    // Store completions unwrap the payload.
    validate: |p: &PendingCpuOp| {
        let needs_data = matches!(
            p.kind,
            CpuOpKind::CachedStoreFill | CpuOpKind::CachedStoreUpgrade | CpuOpKind::UncachedStore
        );
        !needs_data || p.data.is_some()
    }
}

sv_sim::checkpointed! {
    struct NodeStats {
        loads,
        stores,
        l1_hits,
        l2_hits,
        bus_ops_issued,
        castouts,
        cpu_compute_ns,
        cpu_mem_stall_ns,
        ap_retries,
    }
}

impl Node {
    /// Capture the program's execution state for a checkpoint:
    /// `Ok(None)` when nothing needs restoring (no program, or a
    /// finished unsnapshottable one), `Err(UnsupportedProgram)` when a
    /// still-running program cannot be captured.
    pub(crate) fn program_snapshot(
        &self,
    ) -> Result<Option<crate::api::ProgramSnapshot>, SnapshotError> {
        match &self.program {
            None => Ok(None),
            Some(p) => match p.snapshot() {
                Some(s) => Ok(Some(s)),
                None if self.program_done() => Ok(None),
                None => Err(SnapshotError::UnsupportedProgram { node: self.id }),
            },
        }
    }

    /// Per-tenant scheduler accounting from this node's program, when it
    /// is a [`crate::tenancy::TenantScheduler`]. The program box is kept
    /// after completion, so this works post-run.
    pub(crate) fn tenant_report(&self) -> Option<Vec<crate::tenancy::TenantSchedStat>> {
        self.program.as_ref().and_then(|p| p.tenant_report())
    }

    /// Install a restored program without resetting the core state the
    /// way [`Node::load_program`] does — the checkpointed [`CpuState`]
    /// (possibly mid-computation or mid-memory-stall) must survive.
    pub(crate) fn set_restored_program(&mut self, p: Box<dyn Program>) {
        self.ckpt_dirty = true;
        self.program = Some(p);
    }

    /// Mark the node's small state dirty (external mutation through the
    /// machine API).
    pub(crate) fn ckpt_mark_dirty(&mut self) {
        self.ckpt_dirty = true;
    }
}

// A node's snapshot is everything but the program (captured separately
// as a [`crate::api::ProgramSnapshot`]) and the per-tick scratch buffers
// (always empty between ticks). Delta records rewrite the small state
// whole — it is a few KB and mutates together on every active cycle —
// then carry the lines written to DRAM and SRAM and the dirty cache chunks.
// The caches rebuild their geometry from their own params on restore,
// matching the param-hash check the machine header already passed.
sv_sim::checkpointed! {
    pub(crate) struct Node {
        cpu,
        last_load,
        pending,
        castout_tags,
        inflight_abiu,
        next_tag,
        events,
        tracer,
        stats,
        mem: pages,
        dram_timer,
        bus,
        l1: chunks,
        l2: chunks,
        niu: nested,
        fw,
    }
    delta {
        dirty: ckpt_dirty,
        tail: [mem: pages, niu: nested, l1: chunks, l2: chunks],
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("cpu", &self.cpu)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Env, Program};

    struct Ops(std::collections::VecDeque<Step>);
    impl Program for Ops {
        fn step(&mut self, _e: &mut Env<'_>) -> Step {
            self.0.pop_front().unwrap_or(Step::Done)
        }
    }

    fn node_with(steps: Vec<Step>) -> Node {
        let mut n = Node::new(0, 1, SystemParams::default());
        n.load_program(Box::new(Ops(steps.into())));
        n
    }

    fn run(n: &mut Node, cycles: u64) {
        let clock = n.params.bus_clock();
        for c in 0..cycles {
            n.tick(c, clock.edge(c));
        }
    }

    #[test]
    fn cached_load_fills_both_levels() {
        let mut n = node_with(vec![Step::Load {
            addr: 0x1000,
            bytes: 8,
        }]);
        n.mem.write_u64(0x1000, 77);
        run(&mut n, 200);
        assert!(n.program_done());
        assert_eq!(n.last_load, 77);
        assert_eq!(n.l1.peek(0x1000), sv_membus::Mesi::Exclusive);
        assert_eq!(n.l2.peek(0x1000), sv_membus::Mesi::Exclusive);
        assert_eq!(n.stats.bus_ops_issued.get(), 1);
        assert!(n.stats.cpu_mem_stall_ns > 0);
    }

    #[test]
    fn second_load_hits_l1_without_bus_traffic() {
        let mut n = node_with(vec![
            Step::Load {
                addr: 0x1000,
                bytes: 8,
            },
            Step::Load {
                addr: 0x1008,
                bytes: 8,
            }, // same line
        ]);
        run(&mut n, 300);
        assert!(n.program_done());
        assert_eq!(n.stats.bus_ops_issued.get(), 1, "one fill serves the line");
        assert_eq!(n.stats.l1_hits.get(), 1);
    }

    #[test]
    fn store_miss_uses_rwitm_and_lands_data() {
        let mut n = node_with(vec![Step::Store {
            addr: 0x2000,
            data: StoreData::U64(0xAB),
        }]);
        run(&mut n, 200);
        assert!(n.program_done());
        assert_eq!(n.mem.read_u64(0x2000), 0xAB);
        assert_eq!(n.l1.peek(0x2000), sv_membus::Mesi::Modified);
    }

    #[test]
    fn store_hit_after_fill_is_silent() {
        let mut n = node_with(vec![
            Step::Store {
                addr: 0x2000,
                data: StoreData::U64(1),
            },
            Step::Store {
                addr: 0x2008,
                data: StoreData::U64(2),
            },
        ]);
        run(&mut n, 300);
        assert_eq!(n.stats.bus_ops_issued.get(), 1, "M-state hit stays on-chip");
        assert_eq!(n.mem.read_u64(0x2008), 2);
    }

    #[test]
    fn dirty_eviction_issues_castout() {
        // Direct-mapped L2: two lines mapping to the same set evict each
        // other; the dirty victim must be written back on the bus.
        let mut n = Node::new(0, 1, SystemParams::default());
        let l2_bytes = n.params.l2.size_bytes;
        n.load_program(Box::new(Ops(vec![
            Step::Store {
                addr: 0x3000,
                data: StoreData::U64(1),
            },
            Step::Load {
                addr: 0x3000 + l2_bytes,
                bytes: 8,
            },
        ]
        .into())));
        run(&mut n, 400);
        assert!(n.program_done());
        assert_eq!(n.stats.castouts.get(), 1);
        assert_eq!(n.mem.read_u64(0x3000), 1, "data survived the eviction");
    }

    #[test]
    fn compute_time_is_accounted() {
        let mut n = node_with(vec![Step::Compute(1234)]);
        run(&mut n, 200);
        assert!(n.program_done());
        assert_eq!(n.stats.cpu_compute_ns, 1234);
        assert_eq!(n.stats.cpu_mem_stall_ns, 0);
    }

    #[test]
    fn uncached_store_reaches_niu() {
        let p = SystemParams::default();
        let ptr = p.map.ptr_update_addr(false, 4, 9);
        let mut n = node_with(vec![Step::Store {
            addr: ptr,
            data: StoreData::U64(0),
        }]);
        run(&mut n, 200);
        assert!(n.program_done());
        assert_eq!(n.niu.ctrl.tx[4].producer, 9);
    }

    #[test]
    fn flush_caches_preserves_data() {
        let mut n = node_with(vec![Step::Store {
            addr: 0x4000,
            data: StoreData::U64(5),
        }]);
        run(&mut n, 200);
        n.flush_caches();
        assert_eq!(n.l1.peek(0x4000), sv_membus::Mesi::Invalid);
        assert_eq!(n.mem.read_u64(0x4000), 5);
    }

    #[test]
    fn node_without_program_is_quiescent() {
        let mut n = Node::new(0, 1, SystemParams::default());
        assert!(n.program_done());
        assert!(!n.has_work());
        run(&mut n, 10);
        assert!(!n.has_work());
    }

    #[test]
    fn partial_width_loads() {
        let mut n = node_with(vec![
            Step::Load {
                addr: 0x1003,
                bytes: 1,
            },
            Step::Load {
                addr: 0x1000,
                bytes: 4,
            },
        ]);
        n.mem
            .write(0x1000, &[0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x11, 0x22]);
        run(&mut n, 300);
        assert!(n.program_done());
        assert_eq!(n.last_load, 0xDDCCBBAA);
    }
}
