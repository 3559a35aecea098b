//! Event-driven packet-level network model.
//!
//! Every directed link of the fat tree is a serializing resource: a packet
//! occupies the link for `wire_bytes / bandwidth` and then spends the
//! per-hop `router_latency_ns` crossing into the next switch's output
//! stage. Each link keeps one output queue per virtual channel; in the
//! default (legacy) configuration there are two, mapped from `Priority`,
//! and whenever the link frees, the high-priority queue is drained
//! first — this is how Arctic's two-priority discipline keeps protocol
//! replies from queueing behind bulk requests.
//!
//! With [`QosParams`] armed the model adds credit-based flow control:
//! every `(link, vc)` input buffer holds [`QosParams::credits_per_vc`]
//! slots, an upstream link must hold a credit for the downstream buffer
//! before it may start transmitting, and the credit returns when the
//! downstream link drains the packet onward. A blocked VC registers
//! itself as a waiter on the starved downstream buffer and is re-polled
//! by the credit return — never by time-based retry — so the event count
//! stays linear in packets. Because up*/down* fat-tree routes induce an
//! acyclic link-dependency graph, the credit loop is deadlock-free at
//! any VC count, including one.
//!
//! The network runs its own internal event queue; the owning machine calls
//! [`Network::advance`] with an upper time bound and collects deliveries.
//! [`Network::harvest`] looks ahead instead: it advances, collects, and
//! rolls back exactly what the advance changed, so a parallel run loop
//! can learn a window's deliveries before committing the window.
//!
//! [`Network::set_ideal`] swaps the tree for a contention-free
//! fixed-latency pipe (the network-cost ablation): every entry point
//! above then routes to the pipe, so callers hold one network either
//! way and never learn which model carries their packets.

use crate::fault::{FaultModel, FaultParams};
use crate::ideal::IdealNetwork;
use crate::packet::Packet;
use crate::topology::{FatTree, LinkId, RoutingPolicy};
use std::collections::VecDeque;
use sv_sim::stats::{Counter, Summary};
use sv_sim::{EventQueue, Time};

/// Link timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Serialization cost as a rational `ns_num/ns_den` nanoseconds per
    /// byte. Arctic: 160 MB/s = 6.25 ns/B = 25/4.
    pub ns_per_byte_num: u64,
    /// Ns per byte den.
    pub ns_per_byte_den: u64,
    /// Fixed per-hop cost (switch traversal + wire propagation), ns.
    pub router_latency_ns: u64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            ns_per_byte_num: 25,
            ns_per_byte_den: 4,
            router_latency_ns: 60,
        }
    }
}

impl LinkParams {
    /// Serialization time of `bytes` on one link, rounded up to whole ns.
    #[inline]
    pub fn serialize_ns(&self, bytes: u32) -> u64 {
        (bytes as u64 * self.ns_per_byte_num).div_ceil(self.ns_per_byte_den)
    }

    /// Link bandwidth in MB/s (for reports).
    pub fn bandwidth_mb_s(&self) -> f64 {
        1e9 / (self.ns_per_byte_num as f64 / self.ns_per_byte_den as f64) / 1e6
    }
}

/// Output-port arbitration among a link's virtual channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcArbitration {
    /// Always scan VCs from 0 upward — VC 0 (the High class) wins every
    /// contested slot. This is the legacy two-priority discipline.
    Priority,
    /// Rotate the starting VC after every grant, so sustained traffic on
    /// one VC cannot starve another of link bandwidth.
    RoundRobin,
}

/// Virtual-channel / credit-flow-control configuration
/// (see `voyager::MachineBuilder::network_qos`).
///
/// The default — 2 VCs mapped from [`crate::Priority`], priority
/// arbitration — matches the legacy discipline in *ordering*, but armed
/// QoS additionally bounds every `(link, vc)` buffer at
/// `credits_per_vc` slots, so timing differs from the unarmed model
/// whenever a buffer would have overflowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosParams {
    /// Virtual channels per link. Packets map to `min(priority index,
    /// vcs-1)`: with 1 VC all traffic shares one buffer (the
    /// head-of-line-blocking baseline), with ≥2 the High class gets VC 0.
    pub vcs: u8,
    /// Input-buffer slots per `(link, vc)` — the credit pool an upstream
    /// transmitter draws on.
    pub credits_per_vc: u8,
    /// Output-port arbitration among VCs.
    pub arbitration: VcArbitration,
}

impl Default for QosParams {
    fn default() -> Self {
        QosParams {
            vcs: 2,
            credits_per_vc: 8,
            arbitration: VcArbitration::Priority,
        }
    }
}

/// One virtual channel of one link: its output queue, the credit pool
/// guarding its *input* buffer, and per-VC usage counters.
#[derive(Debug)]
struct VcState {
    /// Flight slots queued for transmission on this VC.
    queue: VecDeque<usize>,
    /// Free slots in this link's input buffer that upstream transmitters
    /// may still claim. Unused (held at 0) when QoS is unarmed.
    credits: u8,
    /// Upstream links whose head-of-queue is blocked waiting for one of
    /// this buffer's credits; each gets a Dispatch poke when a credit
    /// returns. Deduplicated, so bounded by the link count.
    waiters: Vec<LinkId>,
    /// When the head of `queue` first found the downstream pool empty;
    /// cleared (and accumulated into `stall_ns`) on the next grant.
    blocked_since: Option<Time>,
    /// Bytes transmitted from this VC.
    bytes: u64,
    /// Serialization time spent on this VC's packets, ns.
    busy_ns: u64,
    /// Deepest this VC's output queue has been.
    high_water: usize,
    /// Times the head of this VC found the downstream credit pool empty.
    stalls: u64,
    /// Total time heads of this VC spent credit-blocked, ns.
    stall_ns: u64,
}

impl Clone for VcState {
    fn clone(&self) -> Self {
        VcState {
            queue: self.queue.clone(),
            waiters: self.waiters.clone(),
            ..*self
        }
    }

    /// Reuses this channel's two buffers (see [`Savepoint`]).
    fn clone_from(&mut self, source: &Self) {
        let mut queue = std::mem::take(&mut self.queue);
        let mut waiters = std::mem::take(&mut self.waiters);
        queue.clone_from(&source.queue);
        waiters.clone_from(&source.waiters);
        *self = VcState {
            queue,
            waiters,
            ..*source
        };
    }
}

impl VcState {
    fn new(credits: u8) -> Self {
        VcState {
            queue: VecDeque::new(),
            credits,
            waiters: Vec::new(),
            blocked_since: None,
            bytes: 0,
            busy_ns: 0,
            high_water: 0,
            stalls: 0,
            stall_ns: 0,
        }
    }
}

/// Per-link running state.
#[derive(Debug)]
struct LinkState {
    /// Time the transmitter frees.
    busy_until: Time,
    /// Per-VC output queues. Two in the legacy configuration (indexed by
    /// priority, 0 = high), [`QosParams::vcs`] when QoS is armed.
    vcs: Vec<VcState>,
    /// Whether a Dispatch event for this link is already pending — the
    /// dedup that keeps event count linear in packets regardless of
    /// queue depth.
    dispatch_scheduled: bool,
    /// Round-robin arbitration cursor: the VC scanned first at the next
    /// grant. Stays 0 under priority arbitration.
    rr_cursor: u8,
    /// High-water mark across all VC queues.
    high_water: usize,
    /// Bytes pushed through this link.
    bytes: u64,
    /// Time this link spent serializing packets, ns (occupancy numerator).
    busy_ns: u64,
}

impl Clone for LinkState {
    fn clone(&self) -> Self {
        LinkState {
            vcs: self.vcs.clone(),
            ..*self
        }
    }

    /// Reuses the VC vector and every channel's buffers (see
    /// [`Savepoint`]).
    fn clone_from(&mut self, source: &Self) {
        let mut vcs = std::mem::take(&mut self.vcs);
        vcs.clone_from(&source.vcs);
        *self = LinkState { vcs, ..*source };
    }
}

impl LinkState {
    fn new(vcs: usize, credits: u8) -> Self {
        LinkState {
            busy_until: Time::ZERO,
            vcs: (0..vcs).map(|_| VcState::new(credits)).collect(),
            dispatch_scheduled: false,
            rr_cursor: 0,
            high_water: 0,
            bytes: 0,
            busy_ns: 0,
        }
    }

    fn queued(&self) -> usize {
        self.vcs.iter().map(|v| v.queue.len()).sum()
    }
}

/// A packet travelling its route.
#[derive(Debug, Clone)]
struct InFlight<P> {
    packet: Packet<P>,
    route: Vec<LinkId>,
    /// Index of the next link to traverse.
    hop: usize,
    /// Fault-injected overtaking: jump the priority queue at each hop.
    reorder: bool,
}

#[derive(Debug, Clone, Copy)]
enum NetEvent {
    /// The link may be able to start transmitting.
    Dispatch(LinkId),
    /// A packet finished traversing link `route[hop]` and arrives at the
    /// next queueing point (or its destination).
    Arrive { flight: usize },
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    /// Packets injected.
    pub injected: Counter,
    /// Packets delivered.
    pub delivered: Counter,
    /// End-to-end packet latency (inject -> deliver), ns.
    pub latency: Summary,
    /// Total payload+header bytes delivered.
    pub bytes_delivered: u64,
    /// Highest output-queue occupancy seen on any link.
    pub max_link_queue: usize,
    /// Packets discarded at injection by the fault model.
    pub faults_dropped: Counter,
    /// Packets the fault model delivered twice.
    pub faults_duplicated: Counter,
    /// Packets whose payload the fault model mangled in flight.
    pub faults_corrupted: Counter,
    /// Packets the fault model let overtake their priority queue.
    pub faults_reordered: Counter,
    /// Times any VC head found its downstream credit pool empty (QoS
    /// armed only; each blocked episode counts once, not per retry).
    pub credit_stalls: Counter,
    /// Total time VC heads spent credit-blocked, ns (QoS armed only; a
    /// head still blocked when the run ends is not counted).
    pub credit_stall_ns: u64,
    /// End-to-end latency of [`crate::Priority::High`] packets, ns.
    pub latency_hi: Summary,
    /// End-to-end latency of [`crate::Priority::Low`] packets, ns.
    pub latency_lo: Summary,
}

/// The Arctic network simulator.
///
/// `P` is the structured payload type (opaque to the network).
#[derive(Debug, Clone)]
pub struct Network<P> {
    /// Fat-tree topology.
    pub topology: FatTree,
    /// Timing/geometry parameters.
    pub params: LinkParams,
    /// Routing policy in force.
    pub policy: RoutingPolicy,
    /// Virtual-channel / credit configuration, when armed (see
    /// [`Network::set_qos`]). `None` runs the legacy two-priority model
    /// with unbounded buffers and no credit logic at all.
    qos: Option<QosParams>,
    links: Vec<LinkState>,
    flights: Vec<Option<InFlight<P>>>,
    free_slots: Vec<usize>,
    events: EventQueue<NetEvent>,
    delivered: Vec<(Time, Packet<P>)>,
    route_salt: u64,
    /// Fault injector, when configured (see [`Network::set_faults`]).
    fault: Option<FaultModel>,
    /// Running statistics.
    pub stats: NetworkStats,
    /// Whole-section dirty flag for delta snapshots: set by every
    /// mutating entry point. Runtime bookkeeping, never serialized; fresh
    /// and restored networks start conservatively dirty.
    dirty: bool,
    /// Bitmap over links: bit set = the link was written since the last
    /// checkpoint cut, so the next delta carries it. Set by the
    /// [`Network::touch`] write barrier; like `dirty`, never serialized
    /// and all-set in fresh and restored networks.
    dirty_links: Vec<u64>,
    /// Undo journal of [`Network::harvest`]; empty between harvests
    /// apart from buffers kept for reuse. Never serialized.
    save: Savepoint,
    /// The contention-free pipe, when armed (see [`Network::set_ideal`]):
    /// it then carries every packet, and the tree stays idle.
    ideal: Option<IdealNetwork<P>>,
}

/// What one [`Network::harvest`] must put back: the pre-image of every
/// piece of state an `advance` can change, saved before the first write.
/// The buffers outlive the harvest, so once they have grown to a
/// window's size a harvest allocates nothing.
///
/// An advance pops and pushes events, writes links (and sets their dirty
/// bits), moves flights one hop per arrival, and updates `stats` and
/// `dirty`. It never launches a
/// flight (only `inject` does), so the slot allocator and the fault RNG
/// stay as they were; and during a harvest a delivered flight keeps its
/// slot, so `free_slots` does too.
#[derive(Debug, Clone, Default)]
struct Savepoint {
    /// A harvest is advancing: link writes and flight hops are journaled.
    active: bool,
    /// Links saved this harvest, in first-write order, each with its
    /// dirty bit before the harvest.
    links: Vec<(LinkId, bool)>,
    /// `pre[i]` is the pre-image of link `links[i]`. Entries past
    /// `links.len()` are spare buffers for later harvests.
    pre: Vec<LinkState>,
    /// `saved[l]`: link `l` already has its pre-image this harvest.
    saved: Vec<bool>,
    /// `(slot, hop)` before every hop a flight took, oldest first.
    hops: Vec<(usize, usize)>,
    /// The event queue, restored whole: heap, sequence counter and
    /// popped-time horizon.
    events: EventQueue<NetEvent>,
    stats: NetworkStats,
    dirty: bool,
}

impl Savepoint {
    /// Keep `link`'s pre-image and dirty bit unless this harvest already
    /// has them.
    fn save_link(&mut self, id: LinkId, link: &LinkState, dirty: bool) {
        if std::mem::replace(&mut self.saved[id], true) {
            return;
        }
        match self.pre.get_mut(self.links.len()) {
            Some(spare) => spare.clone_from(link),
            None => self.pre.push(link.clone()),
        }
        self.links.push((id, dirty));
    }
}

impl<P> Network<P> {
    /// Build a network spanning `nodes` endpoints.
    pub fn new(nodes: usize, params: LinkParams, policy: RoutingPolicy) -> Self {
        let topology = FatTree::build(nodes);
        let links: Vec<LinkState> = (0..topology.link_count())
            .map(|_| LinkState::new(2, 0))
            .collect();
        Network {
            dirty_links: vec![u64::MAX; links.len().div_ceil(64)],
            topology,
            params,
            policy,
            qos: None,
            links,
            flights: Vec::new(),
            free_slots: Vec::new(),
            events: EventQueue::new(),
            delivered: Vec::new(),
            route_salt: 0,
            fault: None,
            stats: NetworkStats::default(),
            dirty: true,
            save: Savepoint::default(),
            ideal: None,
        }
    }

    /// Number of attached nodes.
    pub fn nodes(&self) -> usize {
        self.topology.nodes
    }

    /// Install (or, with all-zero rates, remove) the fault injector.
    pub fn set_faults(&mut self, params: FaultParams) {
        self.dirty = true;
        self.fault = params.enabled().then(|| FaultModel::new(params));
    }

    /// Arm virtual channels with credit-based flow control. Rebuilds every
    /// link with `qos.vcs` channels of `qos.credits_per_vc` credits each,
    /// so this must run before any traffic is injected. Panics on a
    /// zero-VC or zero-credit configuration — the embedding builder
    /// rejects those with a typed error before they reach here.
    pub fn set_qos(&mut self, qos: QosParams) {
        assert!(qos.vcs > 0, "QosParams.vcs must be at least 1");
        assert!(
            qos.credits_per_vc > 0,
            "QosParams.credits_per_vc must be at least 1"
        );
        assert!(
            self.events.is_empty() && self.flights.iter().all(|f| f.is_none()),
            "set_qos must run before traffic"
        );
        self.dirty = true;
        self.dirty_links.fill(u64::MAX);
        self.qos = Some(qos);
        for link in &mut self.links {
            *link = LinkState::new(qos.vcs as usize, qos.credits_per_vc);
        }
    }

    /// Carry every packet through a contention-free pipe instead of the
    /// tree: each is delivered `fixed_latency_ns` plus its serialization
    /// time after injection, with no queueing — the network-cost
    /// ablation. The pipe ignores the fault injector and QoS. Must run
    /// before any traffic.
    pub fn set_ideal(&mut self, fixed_latency_ns: u64) {
        assert!(
            self.next_event_time().is_none(),
            "set_ideal must run before traffic"
        );
        let pipe = IdealNetwork::new(self.nodes(), fixed_latency_ns, self.params);
        self.ideal = Some(pipe);
    }

    /// The QoS configuration in force, if any.
    pub fn qos(&self) -> Option<QosParams> {
        self.qos
    }

    /// Credits currently on loan across all `(link, vc)` pools: each
    /// loaned credit is a packet occupying (or in transit toward) a
    /// downstream input buffer, so a quiescent network must report zero —
    /// the credit-conservation property the test suite pins. Always zero
    /// when QoS is unarmed.
    pub fn outstanding_credits(&self) -> u64 {
        let Some(q) = self.qos else { return 0 };
        self.links
            .iter()
            .flat_map(|l| l.vcs.iter())
            .map(|v| (q.credits_per_vc - v.credits) as u64)
            .sum()
    }

    /// True if anything (links, flights, fault RNG, stats, the pipe) may
    /// have changed since the last [`Network::ckpt_clear_dirty`].
    pub fn ckpt_dirty(&self) -> bool {
        self.dirty || self.ideal.as_ref().is_some_and(|p| p.dirty)
    }

    /// Forget the dirty marks — called when a checkpoint cut captures the
    /// current contents.
    pub fn ckpt_clear_dirty(&mut self) {
        self.dirty = false;
        self.dirty_links.fill(0);
        if let Some(pipe) = &mut self.ideal {
            pipe.dirty = false;
        }
    }

    /// Whether link `l` was written since the last checkpoint cut.
    fn link_dirty(&self, l: LinkId) -> bool {
        self.dirty_links[l / 64] & (1u64 << (l % 64)) != 0
    }

    /// Inject a packet at time `now`. The packet begins queueing on the
    /// node's uplink immediately.
    ///
    /// All fault randomness is consumed here and only here: `inject`
    /// runs exactly once per packet in a deterministic global order
    /// under every run mode and thread count (`advance` draws nothing),
    /// which is what makes fault-injected runs thread-count-invariant —
    /// see [`crate::fault`].
    pub fn inject(&mut self, now: Time, mut packet: Packet<P>)
    where
        P: Clone,
    {
        if let Some(pipe) = &mut self.ideal {
            return pipe.inject(now, packet);
        }
        assert_ne!(packet.src, packet.dst, "network cannot loop back to self");
        packet.injected_at = now;
        self.dirty = true;
        self.stats.injected.bump();
        let mut copies = 1usize;
        let mut reorder = false;
        if let Some(fm) = &mut self.fault {
            let v = fm.judge(&packet);
            if v.drop {
                self.stats.faults_dropped.bump();
                return;
            }
            if v.duplicate {
                self.stats.faults_duplicated.bump();
                copies = 2;
            }
            if v.corrupt {
                self.stats.faults_corrupted.bump();
                packet.corrupt = true;
            }
            if v.reorder {
                self.stats.faults_reordered.bump();
                reorder = true;
            }
        }
        for _ in 1..copies {
            self.launch(now, packet.clone(), reorder);
        }
        self.launch(now, packet, reorder);
    }

    /// Route one flight and start it queueing on the source uplink.
    fn launch(&mut self, now: Time, packet: Packet<P>, reorder: bool) {
        let salt = self.route_salt;
        self.route_salt = self.route_salt.wrapping_add(1);
        let (src, dst) = (packet.src, packet.dst);
        let policy = self.policy;
        let route = self.topology.route(src, dst, |level| {
            let per_packet_salt = match policy {
                RoutingPolicy::Fixed => return 0,
                RoutingPolicy::HashSpread => salt,
                RoutingPolicy::FlowHash => 0,
            };
            // Deterministic spread over (src, dst, [sequence,] level),
            // through a full avalanche finalizer (a weak mix here
            // collapses distinct flows onto one up port).
            let mut h = per_packet_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ ((src as u64) << 32)
                ^ ((dst as u64) << 16)
                ^ level as u64;
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            (h >> 32) as u32
        });
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.flights.push(None);
                self.flights.len() - 1
            }
        };
        self.flights[slot] = Some(InFlight {
            packet,
            route,
            hop: 0,
            reorder,
        });
        self.enqueue_on_link(now, slot);
    }

    /// VC a packet priority maps onto, given this network's channel count.
    #[inline]
    fn vc_of(&self, prio: crate::packet::Priority) -> usize {
        let nvcs = self.qos.map_or(2, |q| q.vcs as usize);
        prio.index().min(nvcs - 1)
    }

    /// Put flight `slot` on the output queue of its current link and poke
    /// the dispatcher.
    fn enqueue_on_link(&mut self, now: Time, slot: usize) {
        let (link_id, prio, reorder) = {
            let f = self.flights[slot].as_ref().expect("live flight");
            (f.route[f.hop], f.packet.priority, f.reorder)
        };
        let vc = self.vc_of(prio);
        self.touch(link_id);
        let link = &mut self.links[link_id];
        if reorder {
            // Fault-injected overtaking: jump ahead of everything already
            // queued on this VC. Consumes no randomness — the verdict was
            // drawn once, at injection.
            link.vcs[vc].queue.push_front(slot);
        } else {
            link.vcs[vc].queue.push_back(slot);
        }
        let vq = link.vcs[vc].queue.len();
        if vq > link.vcs[vc].high_water {
            link.vcs[vc].high_water = vq;
        }
        let q = link.queued();
        if q > link.high_water {
            link.high_water = q;
            if q > self.stats.max_link_queue {
                self.stats.max_link_queue = q;
            }
        }
        if !link.dispatch_scheduled {
            link.dispatch_scheduled = true;
            let at = now.max_of(link.busy_until);
            self.events.push(at, NetEvent::Dispatch(link_id));
        }
    }

    /// Time of the next internal event, if any.
    pub fn next_event_time(&self) -> Option<Time> {
        match &self.ideal {
            Some(pipe) => pipe.next_event_time(),
            None => self.events.peek_time(),
        }
    }

    /// Process all internal events with `time <= until`; deliveries are
    /// appended to an internal list retrieved with [`Network::take_delivered`].
    pub fn advance(&mut self, until: Time)
    where
        P: Clone,
    {
        if let Some(pipe) = &mut self.ideal {
            return pipe.advance(until);
        }
        while let Some(t) = self.events.peek_time() {
            if t > until {
                break;
            }
            let (now, ev) = self.events.pop().expect("peeked");
            self.dirty = true;
            match ev {
                NetEvent::Dispatch(link_id) => self.dispatch(now, link_id),
                NetEvent::Arrive { flight } => self.arrive(now, flight),
            }
        }
    }

    /// Write barrier of the link state: every function that writes a link
    /// calls this first. It marks the link dirty for the next delta cut,
    /// and during a harvest it first saves the link's pre-image and dirty
    /// bit once; otherwise that is one predictable branch.
    #[inline]
    fn touch(&mut self, link: LinkId) {
        if self.save.active {
            let dirty = self.link_dirty(link);
            self.save.save_link(link, &self.links[link], dirty);
        }
        self.dirty_links[link / 64] |= 1u64 << (link % 64);
    }

    fn dispatch(&mut self, now: Time, link_id: LinkId) {
        self.touch(link_id);
        let link = &mut self.links[link_id];
        link.dispatch_scheduled = false;
        if link.busy_until > now {
            // Raced with a just-started transmission; retry when free.
            if link.queued() > 0 {
                link.dispatch_scheduled = true;
                self.events
                    .push(link.busy_until, NetEvent::Dispatch(link_id));
            }
            return;
        }
        // Pick a VC head to transmit. With every head credit-blocked this
        // returns None with the link subscribed to the starved downstream
        // pools — the credit return re-polls it, so no timed retry.
        let Some((slot, vc)) = self.grant(now, link_id) else {
            return;
        };
        let bytes = self.flights[slot]
            .as_ref()
            .expect("live flight")
            .packet
            .wire_bytes;
        let ser = self.params.serialize_ns(bytes);
        let link = &mut self.links[link_id];
        link.busy_until = now.plus(ser);
        link.bytes += bytes as u64;
        link.busy_ns += ser;
        link.vcs[vc].bytes += bytes as u64;
        link.vcs[vc].busy_ns += ser;
        let arrive_at = now.plus(ser + self.params.router_latency_ns);
        self.events
            .push(arrive_at, NetEvent::Arrive { flight: slot });
        if link.queued() > 0 {
            link.dispatch_scheduled = true;
            let free = link.busy_until;
            self.events.push(free, NetEvent::Dispatch(link_id));
        }
    }

    /// Pick the next flight this link may transmit, honoring VC
    /// arbitration order and (when QoS is armed) downstream credit
    /// availability. Reserves the downstream credit, returns the credit
    /// the granted packet itself held, and pays out stall accounting.
    fn grant(&mut self, now: Time, link_id: LinkId) -> Option<(usize, usize)> {
        self.touch(link_id);
        let Some(qos) = self.qos else {
            // Legacy two-priority discipline: high first, no credit
            // logic anywhere on this path.
            let link = &mut self.links[link_id];
            for vc in 0..2 {
                if let Some(slot) = link.vcs[vc].queue.pop_front() {
                    return Some((slot, vc));
                }
            }
            return None;
        };
        let nvcs = qos.vcs as usize;
        let start = match qos.arbitration {
            VcArbitration::Priority => 0,
            VcArbitration::RoundRobin => self.links[link_id].rr_cursor as usize,
        };
        for i in 0..nvcs {
            let vc = (start + i) % nvcs;
            let Some(&slot) = self.links[link_id].vcs[vc].queue.front() else {
                continue;
            };
            // Transmitting moves the packet into the next link's input
            // buffer, so the grant must hold one of that buffer's
            // credits — unless this is the final hop (the destination
            // NIU imposes no credit bound on the network).
            let next = {
                let f = self.flights[slot].as_ref().expect("live flight");
                (f.hop + 1 < f.route.len()).then(|| f.route[f.hop + 1])
            };
            if let Some(next) = next {
                self.touch(next);
                if self.links[next].vcs[vc].credits == 0 {
                    // Blocked: count the episode once, subscribe to the
                    // credit return, and offer the port to another VC.
                    let bvc = &mut self.links[link_id].vcs[vc];
                    if bvc.blocked_since.is_none() {
                        bvc.blocked_since = Some(now);
                        bvc.stalls += 1;
                        self.stats.credit_stalls.bump();
                    }
                    let waiters = &mut self.links[next].vcs[vc].waiters;
                    if !waiters.contains(&link_id) {
                        waiters.push(link_id);
                    }
                    continue;
                }
                self.links[next].vcs[vc].credits -= 1;
            }
            let gvc = &mut self.links[link_id].vcs[vc];
            if let Some(t0) = gvc.blocked_since.take() {
                let blocked = now.since(t0);
                gvc.stall_ns += blocked;
                self.stats.credit_stall_ns += blocked;
            }
            let popped = gvc.queue.pop_front();
            debug_assert_eq!(popped, Some(slot));
            // Departing frees the input-buffer slot this packet held
            // (hop 0 occupies the source NIU's own buffer, which is not
            // credit-bounded), returning a credit to this link's pool.
            if self.flights[slot].as_ref().expect("live flight").hop > 0 {
                self.credit_return(now, link_id, vc);
            }
            if qos.arbitration == VcArbitration::RoundRobin {
                self.links[link_id].rr_cursor = ((vc + 1) % nvcs) as u8;
            }
            return Some((slot, vc));
        }
        None
    }

    /// Return one credit to `(link, vc)` and poke every subscribed
    /// upstream waiter with a Dispatch event.
    fn credit_return(&mut self, now: Time, link_id: LinkId, vc: usize) {
        self.touch(link_id);
        self.links[link_id].vcs[vc].credits += 1;
        let waiters = std::mem::take(&mut self.links[link_id].vcs[vc].waiters);
        for w in waiters {
            self.touch(w);
            let wl = &mut self.links[w];
            if !wl.dispatch_scheduled {
                wl.dispatch_scheduled = true;
                let at = now.max_of(wl.busy_until);
                self.events.push(at, NetEvent::Dispatch(w));
            }
        }
    }

    fn arrive(&mut self, now: Time, slot: usize)
    where
        P: Clone,
    {
        let f = self.flights[slot].as_mut().expect("live flight");
        if self.save.active {
            self.save.hops.push((slot, f.hop));
        }
        f.hop += 1;
        if f.hop < f.route.len() {
            self.enqueue_on_link(now, slot);
            return;
        }
        let packet = if self.save.active {
            // The harvest rolls this flight back, so it keeps its slot
            // and the delivery is a copy.
            f.packet.clone()
        } else {
            self.free_slots.push(slot);
            self.flights[slot].take().expect("live flight").packet
        };
        self.stats.delivered.bump();
        self.stats.bytes_delivered += packet.wire_bytes as u64;
        let lat = now.since(packet.injected_at);
        self.stats.latency.record(lat);
        match packet.priority {
            crate::packet::Priority::High => self.stats.latency_hi.record(lat),
            crate::packet::Priority::Low => self.stats.latency_lo.record(lat),
        }
        self.delivered.push((now, packet));
    }

    /// Append to `out` every delivery the network makes up to `horizon`
    /// — first any still undrained, then those `advance(horizon)` would
    /// make — and leave the network exactly as it was: the same state,
    /// snapshot and delta bytes, dirty marks and next event.
    ///
    /// The advance runs on the network itself with its savepoint
    /// journal armed, and the rollback restores only what it changed, so
    /// the cost follows the events in the window, not the size of the
    /// fabric.
    pub fn harvest(&mut self, horizon: Time, out: &mut Vec<(Time, Packet<P>)>)
    where
        P: Clone,
    {
        if let Some(pipe) = &mut self.ideal {
            return pipe.harvest(horizon, out);
        }
        let pending = self.delivered.len();
        let save = &mut self.save;
        save.events.clone_from(&self.events);
        save.stats.clone_from(&self.stats);
        save.dirty = self.dirty;
        save.saved.resize(self.links.len(), false);
        save.active = true;
        self.advance(horizon);
        out.extend_from_slice(&self.delivered[..pending]);
        out.extend(self.delivered.drain(pending..));
        self.rollback();
    }

    /// Undo the journaled advance of [`Network::harvest`].
    fn rollback(&mut self) {
        let save = &mut self.save;
        save.active = false;
        std::mem::swap(&mut self.events, &mut save.events);
        std::mem::swap(&mut self.stats, &mut save.stats);
        self.dirty = save.dirty;
        for (pre, &(id, dirty)) in save.pre.iter_mut().zip(&save.links) {
            std::mem::swap(&mut self.links[id], pre);
            save.saved[id] = false;
            let bit = 1u64 << (id % 64);
            if dirty {
                self.dirty_links[id / 64] |= bit;
            } else {
                self.dirty_links[id / 64] &= !bit;
            }
        }
        save.links.clear();
        for &(slot, hop) in save.hops.iter().rev() {
            self.flights[slot].as_mut().expect("journaled flight").hop = hop;
        }
        save.hops.clear();
    }

    /// Drain packets delivered since the last call, in delivery order.
    pub fn take_delivered(&mut self) -> Vec<(Time, Packet<P>)> {
        let mut out = Vec::new();
        self.drain_delivered_into(&mut out);
        out
    }

    /// Drain delivered packets into a caller-owned buffer, in delivery
    /// order. Unlike [`Network::take_delivered`] this transfers nothing
    /// but the packets: both buffers keep their capacity, so a run loop
    /// polling every event cycle allocates nothing in the steady state.
    pub fn drain_delivered_into(&mut self, out: &mut Vec<(Time, Packet<P>)>) {
        if let Some(pipe) = &mut self.ideal {
            return pipe.drain_delivered_into(out);
        }
        if !self.delivered.is_empty() {
            self.dirty = true;
        }
        out.append(&mut self.delivered);
    }

    /// Conservative lookahead: a packet injected at time `t` cannot
    /// change *any* delivery (its own or, through link contention,
    /// another packet's) earlier than `t + lookahead_ns()`.
    ///
    /// Justification: every route has at least two hops, so the injected
    /// packet itself delivers no earlier than two full
    /// `serialize + router` terms after injection. For it to perturb
    /// another packet it must win arbitration on some link L; if L is its
    /// first hop (the source's private uplink) the displaced packet still
    /// has L's serialization plus at least one further hop ahead of it,
    /// and if L is a later hop the injected packet first spent a full hop
    /// reaching L. Either way the earliest perturbed delivery is bounded
    /// below by two minimum hop times. Window-parallel execution relies
    /// on this bound; see `DESIGN.md`. With the pipe armed it is the
    /// pipe's own bound: its fixed latency plus a header's serialization.
    pub fn lookahead_ns(&self) -> u64 {
        if let Some(pipe) = &self.ideal {
            return pipe.lookahead_ns();
        }
        2 * (self.params.serialize_ns(crate::packet::PACKET_HEADER_BYTES)
            + self.params.router_latency_ns)
    }

    /// Minimum idle-network latency of any packet travelling between two
    /// *distinct* aligned height-`k` subtrees (see
    /// [`FatTree::subtree_of`]): such a route has at least
    /// `2 + 2k` hops, each costing at least a header serialization plus
    /// the router latency.
    ///
    /// This is the topology-derived synchronization slack a
    /// subtree-sharded parallel run loop gets to exploit: shards aligned
    /// to height-`k` subtrees cannot influence each other faster than
    /// this, so it bounds how often cross-shard deliveries can recur and
    /// grows with shard coarseness — while the *global* window safety
    /// bound stays [`Network::lookahead_ns`], pinned by same-leaf
    /// traffic that the centralized contention model must arbitrate.
    pub fn cross_subtree_latency_ns(&self, k: u32) -> u64 {
        self.topology.min_cross_subtree_hops(k) as u64
            * (self.params.serialize_ns(crate::packet::PACKET_HEADER_BYTES)
                + self.params.router_latency_ns)
    }

    /// The fat-tree height whose aligned subtrees a parallel run loop on
    /// `workers` workers shards by: the worker-balance choice
    /// ([`FatTree::shard_levels_for`]), which the tree then coarsens,
    /// never below one subtree per worker, until cross-shard traffic
    /// spends two lookahead windows in flight
    /// ([`Network::cross_subtree_latency_ns`]). The pipe has no hops.
    pub fn shard_level(&self, workers: usize) -> u32 {
        let topo = &self.topology;
        let mut k = topo.shard_levels_for(workers);
        if self.ideal.is_none() {
            let floor_ns = 2 * self.lookahead_ns();
            while topo.subtree_count(k + 1) >= workers
                && topo.subtree_count(k) > 1
                && self.cross_subtree_latency_ns(k) < floor_ns
            {
                k += 1;
            }
        }
        k
    }

    /// Per-link usage snapshot for links that carried traffic, in link-id
    /// order (deterministic). Idle links are omitted to keep machine-wide
    /// snapshots proportional to activity, not topology size.
    pub fn link_usage(&self) -> Vec<LinkUsage> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.bytes > 0)
            .map(|(id, l)| LinkUsage::capture(id, l))
            .collect()
    }

    /// Machine-wide per-VC usage, one row per VC index, aggregated over
    /// every link (links are symmetric in the fat tree, so the per-VC
    /// split is the interesting axis; the per-link split stays in
    /// [`Network::link_usage`]). Row count equals the armed VC count, or
    /// 2 (the legacy priority classes) when QoS is unarmed.
    pub fn vc_usage(&self) -> Vec<VcUsage> {
        let nvcs = self.qos.map_or(2, |q| q.vcs as usize);
        (0..nvcs)
            .map(|vc| VcUsage::capture(&self.links, vc))
            .collect()
    }
}

sv_sim::json_stats! {
    /// Per-VC usage record exported by [`Network::vc_usage`], aggregated
    /// over all links.
    #[derive(Copy)]
    pub struct VcUsage(links: &[LinkState], vc: usize) {
        /// Virtual-channel index (0 carries the High class).
        vc = vc as u64,
        /// Bytes transmitted on this VC.
        bytes = links.iter().map(|l| l.vcs[vc].bytes).sum(),
        /// Serialization time spent on this VC, ns.
        busy_ns = links.iter().map(|l| l.vcs[vc].busy_ns).sum(),
        /// Deepest any single link's queue for this VC has been.
        high_water = links.iter().map(|l| l.vcs[vc].high_water as u64).max().unwrap_or(0),
        /// Credit-stall episodes charged to this VC.
        stalls = links.iter().map(|l| l.vcs[vc].stalls).sum(),
        /// Time this VC's heads spent credit-blocked, ns.
        stall_ns = links.iter().map(|l| l.vcs[vc].stall_ns).sum(),
    }
}

sv_sim::json_stats! {
    /// Per-link usage record exported by [`Network::link_usage`].
    #[derive(Copy)]
    pub struct LinkUsage(id: usize, l: &LinkState) {
        /// Link id in the fat tree.
        link: usize = id,
        /// Bytes serialized onto the link.
        bytes = l.bytes,
        /// Time spent serializing (occupancy numerator), ns.
        busy_ns = l.busy_ns,
        /// Output-queue high-water mark.
        high_water = l.high_water as u64,
    }
}

use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError, StateLoad, StateSave};

sv_sim::checkpointed! {
    struct LinkParams {
        ns_per_byte_num,
        ns_per_byte_den,
        router_latency_ns,
    }
    // A zero denominator would divide-by-zero in `serialize_ns`.
    validate: |p: &LinkParams| p.ns_per_byte_den != 0
}

sv_sim::checkpointed! {
    enum VcArbitration {
        0 => Priority,
        1 => RoundRobin,
    }
}

sv_sim::checkpointed! {
    struct QosParams {
        vcs,
        credits_per_vc,
        arbitration,
    }
    // Zero VCs or zero credits would wedge every link forever; the
    // builder refuses them, so a snapshot carrying them is forged.
    validate: |q: &QosParams| q.vcs != 0 && q.credits_per_vc != 0
}

sv_sim::checkpointed! {
    struct VcState {
        queue,
        credits,
        waiters,
        blocked_since,
        bytes,
        busy_ns,
        high_water,
        stalls,
        stall_ns,
    }
}

sv_sim::checkpointed! {
    struct LinkState {
        busy_until,
        vcs,
        dispatch_scheduled,
        rr_cursor,
        high_water,
        bytes,
        busy_ns,
    }
}

sv_sim::checkpointed! {
    struct InFlight<P> {
        packet,
        route,
        hop,
        reorder,
    }
}

sv_sim::checkpointed! {
    enum NetEvent {
        0 => Dispatch(link),
        1 => Arrive { flight },
    }
}

sv_sim::checkpointed! {
    struct NetworkStats {
        injected,
        delivered,
        latency,
        bytes_delivered,
        max_link_queue,
        faults_dropped,
        faults_duplicated,
        faults_corrupted,
        faults_reordered,
        credit_stalls,
        credit_stall_ns,
        latency_hi,
        latency_lo,
    }
}

impl<P: StateSave + Clone> StateSave for Network<P> {
    /// The tree, then the pipe option. The topology is not serialized —
    /// it is a pure function of the node count, rebuilt by
    /// [`Network::new`] on restore.
    fn save(&self, w: &mut SnapWriter) {
        self.save_tree(w, |w| w.save(&self.links));
        w.save(&self.ideal);
    }
}

impl<P: StateSave + Clone> Network<P> {
    /// The tree's snapshot layout, with `links` writing the link section.
    fn save_tree(&self, w: &mut SnapWriter, links: impl FnOnce(&mut SnapWriter)) {
        w.usize_(self.nodes());
        w.save(&self.params);
        w.save(&self.policy);
        w.save(&self.qos);
        links(w);
        w.save(&self.flights);
        w.save(&self.free_slots);
        w.save(&self.events);
        w.save(&self.delivered);
        w.u64(self.route_salt);
        w.save(&self.fault);
        w.save(&self.stats);
    }

    /// A delta record: the tree's section, then the pipe option, each
    /// after a presence byte and only when changed since the last cut.
    /// The tree's is its snapshot layout with the link section cut to the
    /// links written since the cut, as a `u64` entry count and ascending
    /// `(u64 link index, link)` entries: a window of traffic writes a few
    /// links of a large fabric; everything else is small and whole.
    pub fn save_delta(&self, w: &mut SnapWriter) {
        w.save(&self.dirty);
        if self.dirty {
            self.save_tree(w, |w| {
                let dirty = || (0..self.links.len()).filter(|&l| self.link_dirty(l));
                w.usize_(dirty().count());
                for l in dirty() {
                    w.u64(l as u64);
                    w.save(&self.links[l]);
                }
            });
        }
        let pipe_dirty = self.ideal.as_ref().is_some_and(|p| p.dirty);
        w.save(&pipe_dirty);
        if pipe_dirty {
            w.save(&self.ideal);
        }
    }
}

impl<P: StateLoad + Clone> StateLoad for Network<P> {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let at = r.offset();
        let nodes = r.usize_()?;
        // NodeId is u16; anything outside that range is a forged stream
        // (and would make FatTree::build attempt a giant allocation).
        if nodes == 0 || nodes > u16::MAX as usize + 1 {
            return Err(SnapshotError::Corrupt { offset: at });
        }
        let params: LinkParams = r.load()?;
        let policy: RoutingPolicy = r.load()?;
        let qos: Option<QosParams> = r.load()?;
        let mut net = Network::new(nodes, params, policy);
        if let Some(q) = qos {
            net.set_qos(q);
        }
        let links_at = r.offset();
        let links: Vec<LinkState> = r.load()?;
        if links.len() != net.topology.link_count() {
            return Err(SnapshotError::Corrupt { offset: links_at });
        }
        net.links = links;
        net.load_body(r)?;
        net.ideal = r.load()?;
        net.check_pipe(at)?;
        Ok(net)
    }
}

impl<P: StateLoad + Clone> Network<P> {
    /// Apply a record written by [`Network::save_delta`] on top of this
    /// (restored) network, which must span the same node count. A link
    /// index out of range, repeated or out of order is
    /// [`SnapshotError::Corrupt`] at its offset. Applied links are
    /// re-marked dirty; callers clear the marks once the whole chain has
    /// been applied. On error the network is partly overwritten; callers
    /// discard it.
    pub fn apply_delta(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let at = r.offset();
        if r.load::<bool>()? {
            let nodes_at = r.offset();
            if r.usize_()? != self.nodes() {
                return Err(SnapshotError::Corrupt { offset: nodes_at });
            }
            self.params = r.load()?;
            self.policy = r.load()?;
            self.qos = r.load()?;
            let mut prev = None;
            for _ in 0..r.list_len(self.links.len())? {
                let l = r.ascending_index(prev, self.links.len())?;
                prev = Some(l);
                self.links[l] = r.load()?;
                self.dirty_links[l / 64] |= 1u64 << (l % 64);
            }
            self.dirty = true;
            self.load_body(r)?;
        }
        if r.load::<bool>()? {
            self.ideal = r.load()?;
        }
        self.check_pipe(at)
    }

    /// Load the sections after the links, then cross-check the whole
    /// network ([`Network::validate_restored`]).
    fn load_body(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let at = r.offset();
        self.flights = r.load()?;
        self.free_slots = r.load()?;
        self.events = r.load()?;
        self.delivered = r.load()?;
        self.route_salt = r.u64()?;
        self.fault = r.load()?;
        self.stats = r.load()?;
        self.validate_restored()
            .map_err(|()| SnapshotError::Corrupt { offset: at })
    }
}

impl<P> Network<P> {
    /// Refuse a restored pipe that spans another node count than the
    /// tree: its packet range checks ran against its own count. `at` is
    /// where the network's record starts.
    fn check_pipe(&self, at: usize) -> Result<(), SnapshotError> {
        match &self.ideal {
            Some(pipe) if pipe.nodes != self.nodes() => Err(SnapshotError::Corrupt { offset: at }),
            _ => Ok(()),
        }
    }

    /// Cross-reference every slot index in a freshly restored network so
    /// a decodable-but-forged snapshot cannot make `advance` panic or
    /// index out of bounds later.
    ///
    /// Every flight slot must be referenced exactly once: a live flight
    /// by one VC-queue entry or one pending `Arrive` event (it waits for
    /// a link or crosses one, never both), a free slot by one free-list
    /// entry. A second reference would move the flight twice, and a
    /// missing one would strand it or hand its slot out while it is live.
    fn validate_restored(&self) -> Result<(), ()> {
        let live = |slot: usize| matches!(self.flights.get(slot), Some(Some(_)));
        // References per slot; every index counted below is in bounds.
        let mut refs = vec![0u32; self.flights.len()];
        let nodes = self.topology.nodes;
        // Delivered packets are handed to the embedding machine, which
        // indexes its node array by `dst`.
        for (_, p) in &self.delivered {
            if (p.src as usize) >= nodes || (p.dst as usize) >= nodes {
                return Err(());
            }
        }
        for f in self.flights.iter().flatten() {
            if (f.packet.src as usize) >= nodes || (f.packet.dst as usize) >= nodes {
                return Err(());
            }
            if f.route.is_empty() || f.hop >= f.route.len() {
                return Err(());
            }
            if f.route.iter().any(|&l| l >= self.links.len()) {
                return Err(());
            }
        }
        for &slot in &self.free_slots {
            if slot >= self.flights.len() || self.flights[slot].is_some() {
                return Err(());
            }
            refs[slot] += 1;
        }
        let nvcs = self.qos.map_or(2, |q| q.vcs as usize);
        let max_credits = self.qos.map_or(0, |q| q.credits_per_vc);
        for (id, link) in self.links.iter().enumerate() {
            // Link layout must match the declared QoS geometry, and no
            // credit pool may exceed its capacity (an over-full pool
            // would let `outstanding_credits` underflow and a forged
            // surplus would overrun downstream buffers).
            if link.vcs.len() != nvcs || link.rr_cursor as usize >= nvcs {
                return Err(());
            }
            for (vc, v) in link.vcs.iter().enumerate() {
                if v.credits > max_credits {
                    return Err(());
                }
                for &slot in &v.queue {
                    // A queued flight waits at its current hop, on its
                    // class's VC: anywhere else its departure would
                    // return a credit to a pool it never drew from.
                    match self.flights.get(slot) {
                        Some(Some(f))
                            if f.route[f.hop] == id && self.vc_of(f.packet.priority) == vc => {}
                        _ => return Err(()),
                    }
                    refs[slot] += 1;
                }
                if v.waiters.iter().any(|&w| w >= self.links.len()) {
                    return Err(());
                }
            }
        }
        let mut probe = self.events.clone();
        while let Some((_, ev)) = probe.pop() {
            match ev {
                NetEvent::Dispatch(l) => {
                    if l >= self.links.len() {
                        return Err(());
                    }
                }
                NetEvent::Arrive { flight } => {
                    if !live(flight) {
                        return Err(());
                    }
                    refs[flight] += 1;
                }
            }
        }
        if refs.iter().any(|&n| n != 1) {
            return Err(());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Priority, PACKET_HEADER_BYTES};

    fn net(nodes: usize) -> Network<u32> {
        Network::new(nodes, LinkParams::default(), RoutingPolicy::HashSpread)
    }

    fn run_until_quiet(n: &mut Network<u32>) -> Vec<(Time, Packet<u32>)> {
        let mut out = Vec::new();
        while let Some(t) = n.next_event_time() {
            n.advance(t);
            out.extend(n.take_delivered());
        }
        out
    }

    #[test]
    fn snapshot_mid_flight_resumes_identically() {
        // Checkpoint a network with packets queued and in flight (faults
        // armed so the RNG is mid-stream) and check the restored copy
        // finishes the run with byte-identical deliveries and stats.
        let mut n = net(8);
        n.set_faults(FaultParams {
            drop_ppm: 50_000,
            dup_ppm: 50_000,
            corrupt_ppm: 50_000,
            reorder_ppm: 50_000,
            seed: 0xC4E0,
        });
        for i in 0..40u32 {
            let (s, d) = ((i % 8) as u16, ((i + 3) % 8) as u16);
            n.inject(
                Time::from_ns(i as u64 * 10),
                Packet::new(s, d, Priority::Low, 64, i),
            );
        }
        // Advance partway: leaves queued flights, pending events, and a
        // consumed RNG prefix.
        n.advance(Time::from_ns(900));
        let mut restored: Network<u32> = sv_sim::ckpt::roundtrip(&n).unwrap();
        // Keep injecting after the restore point on both copies.
        for i in 40..60u32 {
            let (s, d) = ((i % 8) as u16, ((i + 3) % 8) as u16);
            let p = Packet::new(s, d, Priority::Low, 64, i);
            n.inject(Time::from_ns(1000 + i as u64), p.clone());
            restored.inject(Time::from_ns(1000 + i as u64), p);
        }
        let a = run_until_quiet(&mut n);
        let b = run_until_quiet(&mut restored);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(format!("{:?}", n.stats), format!("{:?}", restored.stats));
        assert_eq!(
            format!("{:?}", n.link_usage()),
            format!("{:?}", restored.link_usage())
        );
    }

    #[test]
    fn snapshot_rejects_dangling_slot_references() {
        // Forge a snapshot whose free list points at a live flight.
        let mut n = net(2);
        n.inject(Time::ZERO, Packet::new(0, 1, Priority::Low, 8, 1u32));
        let mut w = sv_sim::ckpt::SnapWriter::new();
        n.save(&mut w);
        let good = w.finish();
        let mut r = sv_sim::ckpt::SnapReader::new(&good);
        assert!(Network::<u32>::load(&mut r).is_ok());
        // Re-save with a corrupted free list: flights has one live slot
        // (index 0) and the queues reference it, so claiming it free must
        // be rejected by cross-validation, not trusted.
        let mut w = sv_sim::ckpt::SnapWriter::new();
        w.usize_(n.nodes());
        w.save(&n.params);
        w.save(&n.policy);
        w.save(&n.qos);
        w.save(&n.links);
        w.save(&n.flights);
        w.save(&vec![0usize]); // forged free_slots
        w.save(&n.events);
        w.save(&n.delivered);
        w.u64(7);
        w.save(&n.fault);
        w.save(&n.stats);
        w.save(&n.ideal);
        let bad = w.finish();
        let mut r = sv_sim::ckpt::SnapReader::new(&bad);
        assert!(matches!(
            Network::<u32>::load(&mut r),
            Err(sv_sim::ckpt::SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn single_packet_delivery_latency_matches_model() {
        let mut n = net(2);
        let p = Packet::new(0, 1, Priority::Low, 88, 7u32);
        n.inject(Time::ZERO, p);
        let got = run_until_quiet(&mut n);
        assert_eq!(got.len(), 1);
        let (t, p) = &got[0];
        assert_eq!(p.payload, 7);
        // 2 hops, each: serialize 96B at 6.25 ns/B = 600 ns + 60 ns router.
        assert_eq!(t.ns(), 2 * (600 + 60));
        assert_eq!(n.topology.hop_count(0, 1), 2);
        // Per-link occupancy: both traversed links serialized for 600 ns.
        let usage = n.link_usage();
        assert_eq!(usage.len(), 2);
        assert!(usage.iter().all(|u| u.busy_ns == 600 && u.bytes == 96));
    }

    #[test]
    fn serialization_throughput_bounds_stream() {
        // Stream many packets from 0 to 1: delivery spacing must equal the
        // serialization time of one packet (pipelined across the two hops).
        let mut n = net(2);
        for i in 0..50u32 {
            n.inject(Time::ZERO, Packet::new(0, 1, Priority::Low, 88, i));
        }
        let got = run_until_quiet(&mut n);
        assert_eq!(got.len(), 50);
        // In-order delivery for a single flow.
        for (i, (_, p)) in got.iter().enumerate() {
            assert_eq!(p.payload, i as u32);
        }
        let spacing = got[10].0.since(got[9].0);
        assert_eq!(spacing, 600, "spacing must equal per-link serialization");
        // Sustained goodput: 88 payload bytes per 600 ns ≈ 146.7 MB/s < 160.
        let t_first = got[0].0;
        let t_last = got.last().unwrap().0;
        let mbs = sv_sim::stats::mb_per_s(88 * 49, t_last.since(t_first));
        assert!((mbs - 146.6).abs() < 1.0, "{mbs}");
    }

    #[test]
    fn high_priority_overtakes_queued_low() {
        let mut n = net(2);
        // Fill the uplink with low-priority packets, then inject one high.
        for i in 0..10u32 {
            n.inject(Time::ZERO, Packet::new(0, 1, Priority::Low, 88, i));
        }
        n.inject(Time::from_ns(1), Packet::new(0, 1, Priority::High, 8, 999));
        let got = run_until_quiet(&mut n);
        let pos = got.iter().position(|(_, p)| p.payload == 999).unwrap();
        assert!(
            pos <= 2,
            "high-priority packet delivered at position {pos}, expected near-front"
        );
    }

    #[test]
    fn cross_traffic_contends_on_shared_downlink() {
        // Two senders to the same destination halve each other's goodput.
        let mut n = net(4);
        for i in 0..20u32 {
            n.inject(Time::ZERO, Packet::new(0, 3, Priority::Low, 88, i));
            n.inject(Time::ZERO, Packet::new(1, 3, Priority::Low, 88, 1000 + i));
        }
        let got = run_until_quiet(&mut n);
        assert_eq!(got.len(), 40);
        // Delivery timestamps mark packet *ends*, so rate over the span
        // from first to last delivery covers all but the first packet.
        let total_bytes: u64 = got.iter().skip(1).map(|(_, p)| p.wire_bytes as u64).sum();
        let span = got.last().unwrap().0.since(got[0].0);
        let mbs = sv_sim::stats::mb_per_s(total_bytes, span);
        // The shared switch->node link caps aggregate at one link bandwidth.
        assert!(mbs <= 161.0, "aggregate {mbs} MB/s exceeds link rate");
    }

    #[test]
    fn sixteen_node_all_pairs_delivers_everything() {
        let mut n = net(16);
        let mut expect = 0;
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s != d {
                    n.inject(
                        Time::ZERO,
                        Packet::new(s, d, Priority::Low, 32, (s as u32) << 16 | d as u32),
                    );
                    expect += 1;
                }
            }
        }
        let got = run_until_quiet(&mut n);
        assert_eq!(got.len(), expect);
        assert_eq!(n.stats.delivered.get(), expect as u64);
        for (_, p) in &got {
            assert_eq!(p.payload, (p.src as u32) << 16 | p.dst as u32);
        }
    }

    #[test]
    fn header_only_packet_times() {
        let mut n = net(2);
        n.inject(Time::ZERO, Packet::new(1, 0, Priority::High, 0, 0));
        let got = run_until_quiet(&mut n);
        let ser = LinkParams::default().serialize_ns(PACKET_HEADER_BYTES);
        assert_eq!(got[0].0.ns(), 2 * (ser + 60));
    }

    #[test]
    fn hash_spread_beats_fixed_routing_under_uniform_load() {
        // 16 nodes, random permutation traffic climbing to the top level;
        // fixed routing funnels everything through up-port 0.
        let mk = |policy| {
            let mut n: Network<u32> = Network::new(16, LinkParams::default(), policy);
            for rep in 0..8u32 {
                for s in 0..16u16 {
                    let d = (s + 4 + (rep as u16 % 3) * 4) % 16; // crosses leaves
                    if d != s {
                        n.inject(Time::ZERO, Packet::new(s, d, Priority::Low, 88, rep));
                    }
                }
            }
            let mut last = Time::ZERO;
            while let Some(t) = n.next_event_time() {
                n.advance(t);
                for (dt, _) in n.take_delivered() {
                    last = last.max_of(dt);
                }
            }
            last.ns()
        };
        let fixed = mk(RoutingPolicy::Fixed);
        let spread = mk(RoutingPolicy::HashSpread);
        assert!(
            spread < fixed,
            "spread routing ({spread} ns) should finish before fixed ({fixed} ns)"
        );
    }

    #[test]
    fn fault_drops_and_dups_are_counted_and_deterministic() {
        use crate::fault::{FaultParams, PPM};
        let run = |params: FaultParams| {
            let mut n = net(4);
            n.set_faults(params);
            for k in 0..200u32 {
                let s = (k % 4) as u16;
                n.inject(
                    Time::from_ns(k as u64 * 10),
                    Packet::new(s, (s + 1) % 4, Priority::Low, 64, k),
                );
            }
            let got = run_until_quiet(&mut n);
            (
                got.into_iter()
                    .map(|(t, p)| (t.ns(), p.payload, p.corrupt))
                    .collect::<Vec<_>>(),
                n.stats.clone(),
            )
        };
        let params = FaultParams {
            drop_ppm: PPM / 10,
            dup_ppm: PPM / 10,
            corrupt_ppm: PPM / 10,
            reorder_ppm: PPM / 10,
            seed: 1234,
        };
        let (got, stats) = run(params);
        assert!(stats.faults_dropped.get() > 0);
        assert!(stats.faults_duplicated.get() > 0);
        assert!(stats.faults_corrupted.get() > 0);
        assert!(stats.faults_reordered.get() > 0);
        assert!(got.iter().any(|&(_, _, c)| c), "corrupt flag reaches exit");
        // Every injected packet is accounted for: delivered once, twice
        // (duplicated), or dropped.
        assert_eq!(
            stats.delivered.get(),
            stats.injected.get() + stats.faults_duplicated.get() - stats.faults_dropped.get()
        );
        // Same seed → bit-identical trace; different seed → different.
        let (again, _) = run(params);
        assert_eq!(got, again);
        let (other, _) = run(FaultParams { seed: 77, ..params });
        assert_ne!(got, other);
        // Disabling restores perfect delivery.
        let (clean, cs) = run(FaultParams::default());
        assert_eq!(clean.len(), 200);
        assert_eq!(cs.faults_dropped.get(), 0);
    }

    #[test]
    fn reordered_packet_overtakes_queue() {
        use crate::fault::{FaultParams, PPM};
        // Reorder every packet: with a deep queue the last-injected
        // packet must come out first (LIFO within the priority class).
        let mut n = net(2);
        n.set_faults(FaultParams {
            reorder_ppm: PPM,
            ..FaultParams::default()
        });
        for k in 0..5u32 {
            n.inject(Time::ZERO, Packet::new(0, 1, Priority::Low, 88, k));
        }
        let got = run_until_quiet(&mut n);
        assert_eq!(got.len(), 5);
        // All five enqueue before the first dispatch event fires, so the
        // queue drains fully LIFO.
        let order: Vec<u32> = got.iter().map(|(_, p)| p.payload).collect();
        assert_eq!(order, vec![4, 3, 2, 1, 0]);
    }

    fn qos_net(nodes: usize, qos: QosParams) -> Network<u32> {
        let mut n: Network<u32> = Network::new(nodes, LinkParams::default(), RoutingPolicy::Fixed);
        n.set_qos(qos);
        n
    }

    #[test]
    fn qos_default_ordering_matches_legacy_when_credits_ample() {
        // With buffers deep enough that no credit ever hits zero, the
        // armed default (2 VCs, priority arbitration) must produce the
        // exact delivery trace of the legacy model.
        let traffic = |n: &mut Network<u32>| {
            for i in 0..30u32 {
                let (s, d) = ((i % 8) as u16, ((i + 3) % 8) as u16);
                let prio = if i % 5 == 0 {
                    Priority::High
                } else {
                    Priority::Low
                };
                n.inject(Time::from_ns(i as u64 * 7), Packet::new(s, d, prio, 64, i));
            }
        };
        let mut legacy: Network<u32> =
            Network::new(8, LinkParams::default(), RoutingPolicy::HashSpread);
        let mut armed: Network<u32> =
            Network::new(8, LinkParams::default(), RoutingPolicy::HashSpread);
        armed.set_qos(QosParams {
            credits_per_vc: 255,
            ..QosParams::default()
        });
        traffic(&mut legacy);
        traffic(&mut armed);
        let a = run_until_quiet(&mut legacy);
        let b = run_until_quiet(&mut armed);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(armed.stats.credit_stalls.get(), 0);
        assert_eq!(armed.outstanding_credits(), 0);
    }

    #[test]
    fn credits_conserve_and_stalls_engage_under_pressure() {
        // One-slot buffers on a deep incast: senders must stall on
        // credits, and at quiescence every loaned credit is back.
        let mut n = qos_net(
            8,
            QosParams {
                vcs: 2,
                credits_per_vc: 1,
                arbitration: VcArbitration::Priority,
            },
        );
        for i in 0..60u32 {
            let s = 1 + (i % 7) as u16;
            n.inject(
                Time::from_ns(i as u64),
                Packet::new(s, 0, Priority::Low, 88, i),
            );
        }
        let got = run_until_quiet(&mut n);
        assert_eq!(got.len(), 60, "credit stalls must delay, never drop");
        assert!(
            n.stats.credit_stalls.get() > 0,
            "1-credit buffers under incast must stall"
        );
        assert!(n.stats.credit_stall_ns > 0);
        assert_eq!(n.outstanding_credits(), 0, "all credits returned");
        let usage = n.vc_usage();
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[1].stalls, n.stats.credit_stalls.get());
        assert_eq!(usage[0].bytes, 0, "no High traffic ran");
        assert!(usage[1].bytes > 0);
    }

    #[test]
    fn two_vcs_isolate_high_priority_from_congested_low() {
        // Saturate the Low class into a hot node, then probe with High
        // packets. With 1 VC the probe queues behind the bulk (plus
        // credit backpressure); with 2 VCs it rides its own buffers.
        let tail = |vcs: u8| {
            let mut n = qos_net(
                16,
                QosParams {
                    vcs,
                    credits_per_vc: 2,
                    arbitration: VcArbitration::Priority,
                },
            );
            for i in 0..120u32 {
                let s = 1 + (i % 15) as u16;
                n.inject(
                    Time::from_ns(i as u64),
                    Packet::new(s, 0, Priority::Low, 88, i),
                );
            }
            for k in 0..8u32 {
                n.inject(
                    Time::from_ns(500 + k as u64 * 400),
                    Packet::new(15, 0, Priority::High, 8, 10_000 + k),
                );
            }
            run_until_quiet(&mut n);
            assert_eq!(n.outstanding_credits(), 0);
            n.stats.latency_hi.max
        };
        let blocked = tail(1);
        let isolated = tail(2);
        assert!(
            isolated * 2 < blocked,
            "VC isolation should cut the High tail well below the shared-buffer \
             baseline (1 VC: {blocked} ns, 2 VCs: {isolated} ns)"
        );
    }

    #[test]
    fn round_robin_arbitration_shares_the_port() {
        // Two saturated VCs into one hot node: round-robin must
        // interleave grants instead of letting VC 0 monopolize the port.
        let run = |arb: VcArbitration| {
            let mut n = qos_net(
                4,
                QosParams {
                    vcs: 2,
                    credits_per_vc: 4,
                    arbitration: arb,
                },
            );
            for i in 0..20u32 {
                n.inject(Time::ZERO, Packet::new(1, 0, Priority::High, 88, i));
                n.inject(Time::ZERO, Packet::new(1, 0, Priority::Low, 88, 100 + i));
            }
            run_until_quiet(&mut n)
                .iter()
                .map(|(_, p)| p.payload)
                .collect::<Vec<_>>()
        };
        let rr = run(VcArbitration::RoundRobin);
        let strict = run(VcArbitration::Priority);
        // Priority arbitration delivers every High packet before any Low.
        assert!(strict.iter().position(|&p| p >= 100).unwrap() >= 20 - 1);
        // Round-robin mixes the classes well before the High class drains.
        let first_low_rr = rr.iter().position(|&p| p >= 100).unwrap();
        assert!(
            first_low_rr < 10,
            "round-robin should interleave (first Low at {first_low_rr})"
        );
    }

    #[test]
    fn qos_snapshot_mid_stall_resumes_identically() {
        // Cut a checkpoint while credits are loaned out and heads are
        // blocked; the restored copy must finish byte-identically.
        let mut n = qos_net(
            8,
            QosParams {
                vcs: 2,
                credits_per_vc: 1,
                arbitration: VcArbitration::RoundRobin,
            },
        );
        n.set_faults(FaultParams {
            drop_ppm: 30_000,
            dup_ppm: 30_000,
            corrupt_ppm: 30_000,
            reorder_ppm: 30_000,
            seed: 0x51AB,
        });
        for i in 0..50u32 {
            let (s, d) = (
                (i % 8) as u16,
                if i % 3 == 0 { 0 } else { ((i + 5) % 8) as u16 },
            );
            if s != d {
                let prio = if i % 4 == 0 {
                    Priority::High
                } else {
                    Priority::Low
                };
                n.inject(Time::from_ns(i as u64 * 5), Packet::new(s, d, prio, 88, i));
            }
        }
        n.advance(Time::from_ns(1500));
        assert!(n.outstanding_credits() > 0, "cut lands mid-stall");
        let mut restored: Network<u32> = sv_sim::ckpt::roundtrip(&n).unwrap();
        assert_eq!(restored.qos(), n.qos());
        let a = run_until_quiet(&mut n);
        let b = run_until_quiet(&mut restored);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(format!("{:?}", n.stats), format!("{:?}", restored.stats));
        assert_eq!(
            format!("{:?}", n.vc_usage()),
            format!("{:?}", restored.vc_usage())
        );
        assert_eq!(n.outstanding_credits(), 0);
        assert_eq!(restored.outstanding_credits(), 0);
    }

    #[test]
    fn snapshot_rejects_overfull_credit_pool() {
        // A forged credit surplus must fail cross-validation: it would
        // let upstream transmitters overrun the buffer it guards.
        let n = qos_net(2, QosParams::default());
        let mut w = sv_sim::ckpt::SnapWriter::new();
        n.save(&mut w);
        let good = w.finish();
        let mut r = sv_sim::ckpt::SnapReader::new(&good);
        assert!(Network::<u32>::load(&mut r).is_ok());
        let mut forged = n.clone();
        forged.links[0].vcs[0].credits = n.qos().unwrap().credits_per_vc + 1;
        let mut w = sv_sim::ckpt::SnapWriter::new();
        forged.save(&mut w);
        let bad = w.finish();
        let mut r = sv_sim::ckpt::SnapReader::new(&bad);
        assert!(matches!(
            Network::<u32>::load(&mut r),
            Err(sv_sim::ckpt::SnapshotError::Corrupt { .. })
        ));
    }

    /// A Low packet queued twice on one VC would be transmitted twice:
    /// the second departure finds its flight already moved on (or gone)
    /// and `arrive` panics mid-run. Restore must refuse every snapshot
    /// that references a flight slot other than exactly once.
    #[test]
    fn snapshot_rejects_slots_not_referenced_exactly_once() {
        let load = |n: &Network<u32>| {
            Network::<u32>::load(&mut sv_sim::ckpt::SnapReader::new(&snapshot(n)))
        };
        let corrupt =
            |n: &Network<u32>| matches!(load(n), Err(sv_sim::ckpt::SnapshotError::Corrupt { .. }));
        let mut n = net(2);
        n.inject(Time::ZERO, Packet::new(0, 1, Priority::Low, 8, 1));
        n.inject(Time::ZERO, Packet::new(0, 1, Priority::Low, 8, 2));
        let up = n.flights[0].as_ref().unwrap().route[0];
        assert_eq!(n.links[up].vcs[1].queue, [0, 1]);
        assert!(load(&n).is_ok());
        // Queued twice.
        let mut forged = n.clone();
        forged.links[up].vcs[1].queue.push_back(0);
        assert!(corrupt(&forged), "queue [0, 1, 0] restored");
        // Never referenced: flight 1 would be stranded.
        let mut forged = n.clone();
        forged.links[up].vcs[1].queue.pop_back();
        assert!(corrupt(&forged), "stranded flight restored");
        // Queued on the wrong VC: its departure would return a credit
        // to the High class's pool.
        let mut forged = n.clone();
        forged.links[up].vcs[1].queue.pop_back();
        forged.links[up].vcs[0].queue.push_back(1);
        assert!(corrupt(&forged), "Low flight on the High VC restored");
        // Queued while also crossing a link.
        let mut crossing = n.clone();
        crossing.advance(Time::ZERO);
        assert!(
            load(&crossing).is_ok(),
            "flight 0 crossing, flight 1 queued"
        );
        crossing.links[up].vcs[1].queue.push_front(0);
        assert!(corrupt(&crossing), "queued and arriving restored");
        // A free slot listed twice would be handed to two flights.
        let mut done = n.clone();
        run_until_quiet(&mut done);
        assert_eq!(done.free_slots.len(), 2);
        assert!(load(&done).is_ok());
        done.free_slots.push(done.free_slots[0]);
        assert!(corrupt(&done), "free slot listed twice restored");
    }

    fn snapshot(n: &Network<u32>) -> Vec<u8> {
        let mut w = sv_sim::ckpt::SnapWriter::new();
        n.save(&mut w);
        w.finish()
    }

    fn delta(n: &Network<u32>) -> Vec<u8> {
        let mut w = sv_sim::ckpt::SnapWriter::new();
        n.save_delta(&mut w);
        w.finish()
    }

    /// Restore refuses a pipe spanning another node count than the tree,
    /// in a full record and in a delta, at the record's first byte.
    #[test]
    fn a_pipe_spanning_another_node_count_is_corrupt() {
        use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError};
        let (mut small, mut big) = (net(4), net(8));
        small.set_ideal(100);
        big.set_ideal(100);
        assert!(Network::<u32>::load(&mut SnapReader::new(&snapshot(&big))).is_ok());
        let mut w = SnapWriter::new();
        big.save_tree(&mut w, |w| w.save(&big.links));
        w.save(&small.ideal);
        assert_eq!(
            Network::<u32>::load(&mut SnapReader::new(&w.finish())).err(),
            Some(SnapshotError::Corrupt { offset: 0 })
        );
        let mut w = SnapWriter::new();
        w.save(&false);
        w.save(&true);
        w.save(&small.ideal);
        assert_eq!(
            big.apply_delta(&mut SnapReader::new(&w.finish())),
            Err(SnapshotError::Corrupt { offset: 0 })
        );
    }

    /// Links whose dirty bit is set.
    fn dirty_links(n: &Network<u32>) -> Vec<LinkId> {
        (0..n.links.len()).filter(|&l| n.link_dirty(l)).collect()
    }

    /// Offset of a delta record's link entry count: past the tree's
    /// presence byte, the node count, the link parameters, the routing
    /// policy and the QoS option.
    fn links_at(n: &Network<u32>) -> usize {
        let mut w = sv_sim::ckpt::SnapWriter::new();
        w.save(&true);
        w.usize_(n.nodes());
        w.save(&n.params);
        w.save(&n.policy);
        w.save(&n.qos);
        w.len()
    }

    /// A donor whose last cut saw a 16-node network mid-traffic, with
    /// one packet injected after the cut and carried one hop since.
    fn cut_then_one_hop() -> (Network<u32>, Vec<u8>) {
        let mut n = net(16);
        for s in 0..16u16 {
            n.inject(
                Time::ZERO,
                Packet::new(s, (s + 5) % 16, Priority::Low, 64, s.into()),
            );
        }
        n.advance(Time::from_ns(700));
        let base = snapshot(&n);
        n.ckpt_clear_dirty();
        n.inject(
            Time::from_ns(700),
            Packet::new(3, 12, Priority::High, 8, 99),
        );
        n.advance(Time::from_ns(1_400));
        (n, base)
    }

    #[test]
    fn network_delta_carries_only_the_links_written_since_the_cut() {
        let (mut n, base) = cut_then_one_hop();
        let written = dirty_links(&n);
        assert!(
            !written.is_empty() && written.len() < n.links.len(),
            "{written:?}"
        );
        let d = delta(&n);
        let at = links_at(&n);
        assert_eq!(d[at..at + 8], (written.len() as u64).to_le_bytes());
        assert!(d.len() < snapshot(&n).len());
        let mut r = Network::<u32>::load(&mut sv_sim::ckpt::SnapReader::new(&base)).unwrap();
        r.ckpt_clear_dirty();
        r.apply_delta(&mut sv_sim::ckpt::SnapReader::new(&d))
            .unwrap();
        assert_eq!(snapshot(&r), snapshot(&n));
        // The applied record re-saves byte-identically, and the copy
        // runs on as the donor does.
        assert_eq!((dirty_links(&r), delta(&r)), (written, d));
        assert_eq!(
            format!("{:?}", run_until_quiet(&mut n)),
            format!("{:?}", run_until_quiet(&mut r))
        );
        assert_eq!(snapshot(&r), snapshot(&n));
    }

    #[test]
    fn network_delta_link_list_out_of_range_repeated_or_out_of_order_is_corrupt() {
        let (n, base) = cut_then_one_hop();
        let written = dirty_links(&n);
        assert!(written.len() >= 2);
        let d = delta(&n);
        let first = links_at(&n) + 8;
        let mut w = sv_sim::ckpt::SnapWriter::new();
        w.save(&n.links[written[0]]);
        let second = first + 8 + w.len();
        let set = |at: usize, v: u64| {
            let mut b = d.clone();
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            b
        };
        let last = n.links.len() as u64 - 1;
        for (bytes, at, what) in [
            (set(second, n.links.len() as u64), second, "out of range"),
            (set(second, written[0] as u64), second, "repeated"),
            (set(first, last), second, "out of order"),
            (set(first - 8, n.links.len() as u64 + 1), first - 8, "count"),
        ] {
            let mut r = Network::<u32>::load(&mut sv_sim::ckpt::SnapReader::new(&base)).unwrap();
            assert_eq!(
                r.apply_delta(&mut sv_sim::ckpt::SnapReader::new(&bytes)),
                Err(sv_sim::ckpt::SnapshotError::Corrupt { offset: at }),
                "{what}"
            );
        }
        // A record for another fabric size is refused at its node count,
        // past the presence byte.
        let mut other = net(32);
        assert_eq!(
            other.apply_delta(&mut sv_sim::ckpt::SnapReader::new(&d)),
            Err(sv_sim::ckpt::SnapshotError::Corrupt { offset: 1 })
        );
    }

    /// Every harvest must return what a clone advanced to the same
    /// horizon delivers, and leave no trace: after each one the network
    /// matches a twin that never harvested in snapshot and delta bytes,
    /// dirty flag, per-link dirty bits and next event. The traffic drives every write the savepoint
    /// journals: crossing flows of both classes contend for links,
    /// 2-credit VCs stall and register waiters (QoS armed), and the fault
    /// model duplicates and reorders packets. Horizons range from inside
    /// one hop to several round trips, some with deliveries undrained.
    #[test]
    fn harvest_matches_a_cloned_advance_and_rolls_back() {
        let qos = QosParams {
            vcs: 2,
            credits_per_vc: 2,
            arbitration: VcArbitration::RoundRobin,
        };
        for qos in [None, Some(qos)] {
            let mut n = net(16);
            if let Some(q) = qos {
                n.set_qos(q);
            }
            n.set_faults(FaultParams {
                drop_ppm: 20_000,
                dup_ppm: 100_000,
                corrupt_ppm: 20_000,
                reorder_ppm: 100_000,
                seed: 0x4A12,
            });
            let mut twin = n.clone();
            let mut out = Vec::new();
            let mut harvested = 0;
            for step in 0..80u64 {
                let now = Time::from_ns(step * 150);
                for net in [&mut n, &mut twin] {
                    net.advance(now);
                    if step % 3 != 0 {
                        net.take_delivered();
                    }
                    if step % 2 == 0 {
                        net.ckpt_clear_dirty();
                    }
                    for s in 0..16u16 {
                        if (u64::from(s) + step) % 3 == 0 {
                            let d = (s + 5 + 6 * (step % 2) as u16) % 16;
                            let prio = if (u64::from(s) + step) % 4 == 0 {
                                Priority::High
                            } else {
                                Priority::Low
                            };
                            let bytes = 8 + u32::from(s % 4) * 24;
                            let tag = (step as u32) << 8 | u32::from(s);
                            net.inject(now, Packet::new(s, d, prio, bytes, tag));
                        }
                    }
                }
                for ahead in [0, 60, 219, 1_000, 5_000] {
                    let horizon = now.plus(ahead);
                    let mut probe = twin.clone();
                    probe.advance(horizon);
                    let want = probe.take_delivered();
                    out.clear();
                    n.harvest(horizon, &mut out);
                    let at = format!("qos {qos:?}, step {step}, horizon {horizon}");
                    assert_eq!(format!("{out:?}"), format!("{want:?}"), "{at}");
                    assert!(snapshot(&n) == snapshot(&twin), "{at}: snapshot changed");
                    assert_eq!(n.ckpt_dirty(), twin.ckpt_dirty(), "{at}");
                    assert_eq!(dirty_links(&n), dirty_links(&twin), "{at}");
                    assert!(delta(&n) == delta(&twin), "{at}: delta changed");
                    assert_eq!(n.next_event_time(), twin.next_event_time(), "{at}");
                    harvested += out.len();
                }
            }
            assert!(harvested > 0);
            assert!(n.stats.faults_duplicated.get() > 0 && n.stats.faults_reordered.get() > 0);
            if qos.is_some() {
                assert!(n.stats.credit_stalls.get() > 0, "2-credit VCs must stall");
            }
            assert_eq!(
                format!("{:?}", run_until_quiet(&mut n)),
                format!("{:?}", run_until_quiet(&mut twin))
            );
            assert_eq!(format!("{:?}", n.stats), format!("{:?}", twin.stats));
            assert_eq!(n.outstanding_credits(), 0);
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut n = net(16);
            for s in 0..16u16 {
                for k in 0..5u32 {
                    n.inject(
                        Time::from_ns(k as u64 * 10),
                        Packet::new(s, (s + 5) % 16, Priority::Low, 64, k),
                    );
                }
            }
            run_until_quiet(&mut n)
                .into_iter()
                .map(|(t, p)| (t.ns(), p.src, p.dst, p.payload))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
