//! Cluster assembly and configuration.
//!
//! [`Machine::builder`] builds `n` nodes and the Arctic network, and
//! installs the default queue/translation conventions every example and
//! benchmark uses:
//!
//! | Logical queue | Hardware slot | Consumer | Purpose |
//! |---|---|---|---|
//! | 0 | rx 0 (sSRAM buffer) | sP firmware | service queue (DMA requests, protocol traffic) |
//! | 1 | rx 1 (aSRAM, shadow pointer) | aP polls | user Basic messages + transfer notifications |
//! | 2 | rx 2 (Express, 8-byte entries) | aP loads | user Express messages |
//! | — | rx 15 | sP firmware | receive-queue-cache miss/overflow queue |
//!
//! Transmit: tx 1 = user Basic (translated), tx 2 = user Express.
//! The translation table maps virtual destination `d` to node `d`'s user
//! queue, `0x100 + d` to node `d`'s service queue, and `0x200 + d` to
//! node `d`'s Express queue — the OS-installed protection boundary.
//!
//! ```
//! use voyager::{Machine, Parallelism, SystemParams};
//!
//! let mut m = Machine::builder(4)
//!     .params(SystemParams::default())
//!     .parallelism(Parallelism::Fixed(2))
//!     .build();
//! assert!(m.run().is_quiesced());
//! ```
//!
//! The run loops (the event loop and the cycle-stepped oracle) live in
//! [`crate::runloop`].

use crate::app::{AppEvent, AppEventKind, Program};
use crate::node::Node;
use crate::params::SystemParams;
use crate::runloop::{ExecPlan, Parallelism, RunScratch, ShardPolicy};
use bytes::Bytes;
use sv_arctic::Network;
use sv_niu::msg::NetPayload;
use sv_niu::queues::{QueueBuffer, RxFullPolicy, RxService};
use sv_niu::translate::{XlateEntry, XlateTable};
use sv_niu::{QueueId, SramSel};
use sv_sim::{Clock, Time};

/// Virtual-destination bases installed in every node's translation table.
///
/// The four destination classes live at multiples of a per-machine
/// *stride*: user Basic at `0`, sP service at `stride`, user Express at
/// `2 * stride`, and high-priority user Basic at `3 * stride` (same
/// logical queue as user Basic, but the translation entry sets the
/// high-priority bit so the packet rides the network's High class /
/// VC 0). The stride is 256 for machines up to 256 nodes — so the
/// constants below are exact there and every historical trace/golden is
/// unchanged — and widens to the next power of two above the node count
/// for larger machines (up to the 16384-node ceiling the 16-bit
/// destination field allows). Always derive destinations through
/// [`NodeLib::user_dest`]/[`NodeLib::svc_dest`]/[`NodeLib::express_dest`],
/// which apply the machine's stride.
pub mod dest {
    /// `USER + d` → node `d`, logical queue 1 (user Basic).
    pub const USER: u16 = 0;
    /// `SVC + d` → node `d`, logical queue 0 (sP service), machines ≤ 256 nodes.
    pub const SVC: u16 = 0x100;
    /// `EXPRESS + d` → node `d`, logical queue 2 (user Express), machines ≤ 256 nodes.
    pub const EXPRESS: u16 = 0x200;
    /// `USER_HI + d` → node `d`, logical queue 1 at high network
    /// priority, machines ≤ 256 nodes.
    pub const USER_HI: u16 = 0x300;

    /// Destination-class stride for an `n`-node machine.
    pub fn stride(n: u16) -> u16 {
        assert!(n <= 16_384, "destination namespace caps at 16384 nodes");
        n.next_power_of_two().max(SVC)
    }
}

/// aSRAM offsets of the pointer shadows.
pub mod shadow {
    /// Base of the shadow block.
    pub const BASE: u32 = 0x1C000;
    /// Receive-queue producer shadow for queue `q`.
    pub fn rx_producer(q: u8) -> u32 {
        BASE + q as u32 * 8
    }
    /// Transmit-queue consumer shadow for queue `q`.
    pub fn tx_consumer(q: u8) -> u32 {
        BASE + 0x100 + q as u32 * 8
    }
}

/// aSRAM scratch region available to user programs (TagOn staging).
pub const USER_SCRATCH: u32 = 0x1B000;

/// A read-only view of one queue as the user library sees it.
#[derive(Debug, Clone, Copy)]
pub struct QueueView {
    /// Queue index.
    pub q: u8,
    /// Buffer base offset in aSRAM.
    pub base: u32,
    /// Number of entries.
    pub entries: u16,
    /// Entry bytes.
    pub entry_bytes: u32,
    /// aSRAM offset of the relevant shadow pointer.
    pub shadow_off: u32,
}

impl QueueView {
    /// aSRAM offset of the slot for free-running pointer `ptr`.
    pub fn slot_off(&self, ptr: u16) -> u32 {
        self.base + (ptr % self.entries) as u32 * self.entry_bytes
    }
}

/// The layer-0 library's description of one node (addresses, queue
/// geometry, destination conventions). Copyable; programs embed it.
#[derive(Debug, Clone, Copy)]
pub struct NodeLib {
    /// Destination node.
    pub node: u16,
    /// Number of nodes in the machine.
    pub nodes: u16,
    /// Physical address map.
    pub map: sv_niu::AddressMap,
    /// Basic tx.
    pub basic_tx: QueueView,
    /// Basic rx.
    pub basic_rx: QueueView,
    /// Express tx q.
    pub express_tx_q: u8,
    /// Express rx q.
    pub express_rx_q: u8,
}

impl NodeLib {
    /// Physical address of aSRAM offset `off`.
    pub fn asram(&self, off: u32) -> u64 {
        self.map.asram_addr(off)
    }

    /// Virtual destination of node `d`'s user queue.
    pub fn user_dest(&self, d: u16) -> u16 {
        dest::USER + d
    }

    /// Virtual destination of node `d`'s service queue.
    pub fn svc_dest(&self, d: u16) -> u16 {
        dest::stride(self.nodes) + d
    }

    /// Virtual destination of node `d`'s Express queue.
    pub fn express_dest(&self, d: u16) -> u16 {
        2 * dest::stride(self.nodes) + d
    }

    /// Virtual destination of node `d`'s user queue at high network
    /// priority — same logical queue as [`NodeLib::user_dest`], but the
    /// packet rides the High class (VC 0 under armed QoS), so latency-
    /// critical messages bypass Low-class congestion.
    pub fn user_dest_hi(&self, d: u16) -> u16 {
        3 * dest::stride(self.nodes) + d
    }
}

/// Run-loop execution counters, part of [`Machine::stats`]. Only events
/// that are invariant across worker counts and shard policies are
/// counted: node ticks, arrival publishes and post-tick republishes.
/// Shard priming is deliberately excluded — it differs between shard
/// maps and between slicings of a run (`Machine::window_work` counts
/// it).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunLoopCounters {
    /// Node ticks executed ([`crate::Node::tick`] calls).
    pub node_ticks: u64,
    /// Wake-index publishes on arrival/post-tick edges.
    pub wake_republishes: u64,
}

/// The machine's nodes, in id order. Reads go through `Deref` to
/// `[Node]`. Every mutable access (`DerefMut`, so `IndexMut` and
/// `iter_mut`, and `&mut` iteration) sets a *touched* mark, which tells
/// the event loop that the wakes it keeps between run entries may no
/// longer describe the nodes, so its next entry derives them afresh
/// (see [`crate::runloop`]).
pub struct Nodes {
    list: Vec<Node>,
    /// Set by every mutable access, and while a run holds the nodes;
    /// cleared only when a run returns. A fresh list counts as touched.
    touched: bool,
}

impl Nodes {
    /// The nodes for one event-loop run, and whether they were touched
    /// since the last run returned. The mark stays set while the run
    /// holds them, and [`Nodes::release`] clears it once the run has
    /// returned, so a run that unwinds leaves the nodes marked.
    pub(crate) fn hold(&mut self) -> (bool, &mut [Node]) {
        let touched = std::mem::replace(&mut self.touched, true);
        (touched, &mut self.list)
    }

    /// End a run that returned: the kept wakes describe the nodes again.
    pub(crate) fn release(&mut self) {
        self.touched = false;
    }
}

impl std::ops::Deref for Nodes {
    type Target = [Node];

    fn deref(&self) -> &[Node] {
        &self.list
    }
}

impl std::ops::DerefMut for Nodes {
    fn deref_mut(&mut self) -> &mut [Node] {
        self.touched = true;
        &mut self.list
    }
}

impl<'a> IntoIterator for &'a Nodes {
    type Item = &'a Node;
    type IntoIter = std::slice::Iter<'a, Node>;

    fn into_iter(self) -> Self::IntoIter {
        self.list.iter()
    }
}

impl<'a> IntoIterator for &'a mut Nodes {
    type Item = &'a mut Node;
    type IntoIter = std::slice::IterMut<'a, Node>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

/// The assembled machine.
pub struct Machine {
    /// Timing/geometry parameters.
    pub params: SystemParams,
    /// The machine's nodes, indexed by node id.
    pub nodes: Nodes,
    /// Network-level statistics.
    pub network: Network<NetPayload>,
    /// When set, packets bypass the Arctic model and travel through a
    /// contention-free fixed-latency pipe — the network-cost ablation
    /// ([`MachineBuilder::ideal_network`]).
    pub(crate) ideal: Option<sv_arctic::IdealNetwork<NetPayload>>,
    pub(crate) clock: Clock,
    pub(crate) cycle: u64,
    /// The resolved execution plan (stepped/workers/policy), fixed at
    /// build time by [`MachineBuilder::try_build`].
    pub(crate) plan: ExecPlan,
    /// The parallelism as requested (before resolution), reported by
    /// [`Machine::parallelism`].
    pub(crate) requested: Parallelism,
    /// Current simulated time (updated every step).
    pub now: Time,
    /// The run loop's buffers, reused by every run entry.
    pub(crate) scratch: RunScratch,
    /// Run-loop execution counters (see [`RunLoopCounters`]).
    pub(crate) runstats: RunLoopCounters,
    /// Active delta-checkpoint chain, if [`Machine::try_checkpoint_delta`]
    /// has emitted a base snapshot (see that method for the epoch rules).
    pub(crate) delta_chain: Option<DeltaChain>,
    /// The tenancy configuration armed at build time, if any
    /// ([`MachineBuilder::tenants`]); drives the per-tenant stats
    /// section and the [`Machine::tenant_lib`] accessors.
    pub(crate) tenancy: Option<crate::tenancy::TenancyParams>,
}

/// Linkage state for an in-progress delta-checkpoint chain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeltaChain {
    /// [`sv_sim::ckpt::snapshot_id`] of the base snapshot bytes.
    base_id: u64,
    /// [`sv_sim::ckpt::fnv1a64`] over the serialized parameter section.
    param_hash: u64,
    /// Sequence number of the last emitted cut (0 = base only).
    seq: u64,
    /// Cycle of the last emitted cut.
    last_cycle: u64,
}

/// One cut from [`Machine::try_checkpoint_delta`]: either the chain's
/// base (a complete snapshot in the full `SVCK` format, restorable on
/// its own) or an incremental `SVDK` delta holding only the sections
/// dirty since the previous cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaCheckpoint {
    /// First cut of a chain: a complete full-format snapshot.
    Base(Vec<u8>),
    /// Subsequent cut: dirty sections only, chained to the base.
    Delta(Vec<u8>),
}

impl DeltaCheckpoint {
    /// The serialized bytes, whichever side this is.
    pub fn bytes(&self) -> &[u8] {
        match self {
            DeltaCheckpoint::Base(b) | DeltaCheckpoint::Delta(b) => b,
        }
    }

    /// Consume into the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            DeltaCheckpoint::Base(b) | DeltaCheckpoint::Delta(b) => b,
        }
    }

    /// True for the chain-opening full snapshot.
    pub fn is_base(&self) -> bool {
        matches!(self, DeltaCheckpoint::Base(_))
    }
}

/// Configures and assembles a [`Machine`]. Created by
/// [`Machine::builder`]; every knob has a sensible default, so
/// `Machine::builder(n).build()` is a complete machine.
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    n: usize,
    params: SystemParams,
    ideal_latency_ns: Option<u64>,
    traced_nodes: Vec<u16>,
    stepped: bool,
    par: Parallelism,
    policy: ShardPolicy,
    sample_latency: bool,
    tenancy: Option<crate::tenancy::TenancyParams>,
}

impl MachineBuilder {
    /// Replace the full parameter set (timing, link, routing, seeds).
    pub fn params(mut self, params: SystemParams) -> Self {
        self.params = params;
        self
    }

    /// Use an ideal (contention-free, fixed-latency) pipe instead of the
    /// Arctic model — the ablation that isolates NIU-side costs from
    /// network-side costs.
    pub fn ideal_network(mut self, fixed_latency_ns: u64) -> Self {
        self.ideal_latency_ns = Some(fixed_latency_ns);
        self
    }

    /// Select the Arctic route-spreading policy (network topology knob).
    pub fn topology(mut self, routing: sv_arctic::RoutingPolicy) -> Self {
        self.params.routing = routing;
        self
    }

    /// Inject network faults at the given rates, and arm the NIUs'
    /// reliable-delivery layer so the machine still guarantees exactly-
    /// once message delivery (up to the retransmit cap) on the faulty
    /// fabric. Deterministic: same [`sv_arctic::FaultParams::seed`], same
    /// faults, on every run mode and thread count.
    pub fn faults(mut self, faults: sv_arctic::FaultParams) -> Self {
        self.params.faults = faults;
        self.params.niu.reliable = true;
        self
    }

    /// Arm Arctic virtual channels with credit-based flow control.
    /// Every fat-tree link then carries [`sv_arctic::QosParams::vcs`]
    /// virtual channels, each with a bounded `credits_per_vc`-slot
    /// buffer; transmitters stall on credit exhaustion instead of
    /// queueing unboundedly, and the output port arbitrates VCs by
    /// priority or round-robin. Left unset, the network runs the legacy
    /// two-priority unbounded-buffer model bit-identically to prior
    /// releases. Zero-VC or zero-credit configurations are reported by
    /// [`MachineBuilder::try_build`] as
    /// [`crate::ApiError::ZeroVirtualChannels`] /
    /// [`crate::ApiError::ZeroCredits`].
    pub fn network_qos(mut self, qos: sv_arctic::QosParams) -> Self {
        self.params.qos = Some(qos);
        self
    }

    /// Enable the debugging tracer of node `i` from cycle 0. May be
    /// called once per node of interest.
    pub fn tracing(mut self, i: u16) -> Self {
        self.traced_nodes.push(i);
        self
    }

    /// Select how the event loop is parallelized:
    /// [`Parallelism::Sequential`] (the default), a fixed worker count,
    /// or [`Parallelism::Auto`]. Every choice produces bit-identical
    /// simulation results — see [`crate::runloop`]. Invalid combinations
    /// (zero workers, more workers than the finest shard partition) are
    /// reported by [`MachineBuilder::try_build`]. Leaves
    /// [`MachineBuilder::cycle_stepped`] in force, in either call order.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Choose how nodes are partitioned into shards for parallel runs
    /// (default [`ShardPolicy::BySubtree`]). Affects wall-clock speed
    /// only, never results.
    pub fn shard_policy(mut self, policy: ShardPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Use the original tick-every-cycle loop — the reference oracle —
    /// instead of the event loop. The two are bit-identical; this exists
    /// for cross-checking and for measuring the event loop's speedup.
    pub fn cycle_stepped(mut self) -> Self {
        self.stepped = true;
        self
    }

    /// Stamp every packet at injection so [`Machine::stats`] reports
    /// per-class inject→deliver latency distributions. Off by default:
    /// the hot path then pays a single untaken branch per send.
    pub fn sample_latency(mut self, on: bool) -> Self {
        self.sample_latency = on;
        self
    }

    /// Arm the multi-tenant serving layer (see [`crate::tenancy`]).
    /// Every node then carves `tenants_per_node` protected tenant
    /// namespaces: one logical rx queue per tenant (cached across
    /// hardware slots [`crate::tenancy::TENANT_SLOT_LO`]`..=`
    /// [`crate::tenancy::TENANT_SLOT_HI`] by the sP firmware), and one
    /// translation-table slice per tenant whose entries only name that
    /// tenant's own queues. A confined tenant additionally gets tx
    /// queue 3 with destination masks pinning every lookup inside its
    /// slice. Implies per-packet latency stamping (the per-tenant
    /// hit/miss latency split needs it). Invalid configurations are
    /// reported by [`MachineBuilder::try_build`] as
    /// [`crate::ApiError::TenantCountZero`],
    /// [`crate::ApiError::ConfinedTenantOutOfRange`] or
    /// [`crate::ApiError::TenantNamespaceOverflow`].
    pub fn tenants(mut self, tp: crate::tenancy::TenancyParams) -> Self {
        self.tenancy = Some(tp);
        self
    }

    /// Resolve the builder's parallelism knobs against a machine of `n`
    /// nodes into the concrete plan the run loops execute.
    fn resolve_plan(&self, n: usize) -> Result<ExecPlan, crate::api::ApiError> {
        let workers = self.par.resolve(n)?;
        Ok(ExecPlan {
            stepped: self.stepped,
            workers,
            policy: self.policy,
        })
    }

    /// Assemble the machine; panics on an invalid parallelism
    /// configuration. See [`MachineBuilder::try_build`] for the checked
    /// form.
    pub fn build(self) -> Machine {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Assemble the machine, reporting invalid configuration
    /// ([`crate::ApiError::WorkerCountZero`],
    /// [`crate::ApiError::WorkersExceedShards`],
    /// [`crate::ApiError::ZeroVirtualChannels`],
    /// [`crate::ApiError::ZeroCredits`],
    /// [`crate::ApiError::BadCacheGeometry`]) as a value instead of
    /// panicking.
    pub fn try_build(self) -> Result<Machine, crate::api::ApiError> {
        for (level, cache) in [(1, self.params.l1), (2, self.params.l2)] {
            if !cache.validate() {
                return Err(crate::api::ApiError::BadCacheGeometry { level });
            }
        }
        if let Some(q) = self.params.qos {
            if q.vcs == 0 {
                return Err(crate::api::ApiError::ZeroVirtualChannels);
            }
            if q.credits_per_vc == 0 {
                return Err(crate::api::ApiError::ZeroCredits);
            }
        }
        let plan = self.resolve_plan(self.n)?;
        // Tenancy validates against the node count and may need more
        // logical rx queues than the default namespace; the bump must
        // precede assembly (the rx-queue cache is sized at build).
        let mut params = self.params;
        let tenancy = match self.tenancy {
            Some(tp) => {
                let reg = crate::tenancy::TenantRegistry::try_new(self.n as u16, &tp)?;
                params.niu.logical_rx_queues =
                    params.niu.logical_rx_queues.max(reg.lq_end() as usize);
                Some((tp, reg))
            }
            None => None,
        };
        let mut m = Machine::assemble(self.n, params, plan, self.par);
        if let Some((tp, reg)) = tenancy {
            m.arm_tenancy(&tp, &reg);
            m.tenancy = Some(tp);
        }
        if let Some(latency) = self.ideal_latency_ns {
            m.ideal = Some(sv_arctic::IdealNetwork::new(
                self.n.max(2),
                latency,
                self.params.link,
            ));
        }
        for i in self.traced_nodes {
            m.enable_tracing(i, true);
        }
        if self.sample_latency {
            m.set_latency_sampling(true);
        }
        Ok(m)
    }
}

impl Machine {
    /// Start configuring an `n`-node machine with the default conventions
    /// installed. Runs event-driven on one thread unless configured
    /// otherwise.
    pub fn builder(n: usize) -> MachineBuilder {
        MachineBuilder {
            n,
            params: SystemParams::default(),
            ideal_latency_ns: None,
            traced_nodes: Vec::new(),
            stepped: false,
            par: Parallelism::default(),
            policy: ShardPolicy::default(),
            sample_latency: false,
            tenancy: None,
        }
    }

    fn assemble(n: usize, params: SystemParams, plan: ExecPlan, requested: Parallelism) -> Self {
        assert!(n >= 1, "a machine needs at least one node");
        let mut nodes: Vec<Node> = (0..n)
            .map(|i| Node::new(i as u16, n as u16, params))
            .collect();
        let xlate = Self::conventions_table(nodes[0].niu.ctrl.xlate.clone(), n as u16);
        for node in &mut nodes {
            Self::configure_node(node, &xlate);
        }
        let mut network = Network::new(n.max(2), params.link, params.routing);
        network.set_faults(params.faults);
        if let Some(q) = params.qos {
            network.set_qos(q);
        }
        Machine {
            params,
            nodes: Nodes {
                list: nodes,
                touched: true,
            },
            network,
            ideal: None,
            clock: params.bus_clock(),
            cycle: 0,
            plan,
            requested,
            now: Time::ZERO,
            scratch: RunScratch::default(),
            runstats: RunLoopCounters::default(),
            delta_chain: None,
            tenancy: None,
        }
    }

    /// The parallelism this machine was configured with — the requested
    /// value, not the resolution; see [`Machine::workers`] for the
    /// worker count actually in use.
    pub fn parallelism(&self) -> Parallelism {
        self.requested
    }

    /// The shard policy parallel runs partition the nodes under.
    pub fn shard_policy(&self) -> ShardPolicy {
        self.plan.policy
    }

    /// The resolved worker count the run loop uses; `1` means
    /// sequential.
    pub fn workers(&self) -> usize {
        self.plan.workers
    }

    /// True when this machine runs the cycle-stepped reference loop
    /// instead of the event-driven one.
    pub fn is_cycle_stepped(&self) -> bool {
        self.plan.stepped
    }

    /// Number of shards the current plan partitions the nodes into — a
    /// pure function of node count, topology, policy and worker count.
    pub fn shard_count(&self) -> usize {
        self.shard_map().shards
    }

    /// Turn per-class packet latency sampling on or off for every NIU
    /// (see [`MachineBuilder::sample_latency`]).
    pub fn set_latency_sampling(&mut self, on: bool) {
        for node in &mut self.nodes {
            node.ckpt_mark_dirty();
            node.niu.sample_latency = on;
        }
    }

    fn configure_node(node: &mut Node, xlate: &XlateTable) {
        let niu = &mut node.niu;
        // rx 0: sP service queue in sSRAM.
        {
            let q = &mut niu.ctrl.rx[0];
            q.buf = QueueBuffer {
                sram: SramSel::S,
                base: 0x4000,
                entries: 16,
                entry_bytes: 96,
            };
            q.service = RxService::SpPolled;
            q.full_policy = RxFullPolicy::Retry;
        }
        // rx 1: user Basic queue, aP-polled with producer shadow.
        {
            let q = &mut niu.ctrl.rx[1];
            q.service = RxService::ApPolled;
            q.shadow_addr = Some((SramSel::A, shadow::rx_producer(1)));
            q.full_policy = RxFullPolicy::Retry;
        }
        // rx 2: user Express queue (8-byte entries).
        {
            let q = &mut niu.ctrl.rx[2];
            q.express = true;
            q.buf.entry_bytes = 8;
            q.buf.entries = 64;
            q.service = RxService::ApPolled;
            // Retry (hold the packet, backpressuring the network) keeps
            // express streams lossless; Drop is exercised by unit tests.
            q.full_policy = RxFullPolicy::Retry;
        }
        // rx 15: miss/overflow queue, firmware-serviced, in sSRAM.
        {
            let miss = niu.params.miss_queue_slot;
            let q = &mut niu.ctrl.rx[miss];
            q.buf = QueueBuffer {
                sram: SramSel::S,
                base: 0x5000,
                entries: 16,
                entry_bytes: 96,
            };
            q.service = RxService::SpPolled;
            q.full_policy = RxFullPolicy::Drop;
        }
        // tx 1: user Basic queue with consumer shadow.
        niu.ctrl.tx[1].shadow_addr = Some((SramSel::A, shadow::tx_consumer(1)));
        // tx 2: user Express queue.
        {
            let q = &mut niu.ctrl.tx[2];
            q.express = true;
            q.buf.entry_bytes = 8;
            q.buf.entries = 64;
        }
        // Receive-queue cache: hot logical queues resident.
        niu.ctrl.rx_cache.bind(0, QueueId(0));
        niu.ctrl.rx_cache.bind(1, QueueId(1));
        niu.ctrl.rx_cache.bind(2, QueueId(2));
        // Translation table: a clone of the machine's conventions table.
        niu.ctrl.xlate = xlate.clone();
    }

    /// `table` with the four destination classes installed for every
    /// node, strided by machine size (a no-op grow at ≤ 256 nodes, where
    /// the table's construction size already covers them). Built once
    /// per machine; every node gets a copy-on-write clone.
    fn conventions_table(mut table: XlateTable, nodes: u16) -> XlateTable {
        let stride = dest::stride(nodes);
        table.grow_to(4 * stride as usize);
        for d in 0..nodes {
            for (base, lq, high) in [
                (dest::USER, 1u16, false),
                (stride, 0u16, false),
                (2 * stride, 2u16, false),
                (3 * stride, 1u16, true),
            ] {
                table.install(
                    base + d,
                    XlateEntry {
                        valid: true,
                        node: d,
                        logical_q: lq,
                        high_priority: high,
                    },
                );
            }
        }
        table
    }

    /// Install the tenancy conventions on every node: per-tenant
    /// translation slices, firmware-managed rx-cache slots, the
    /// confined tenant's masked tx queue, and the NIU/firmware
    /// attribution counters. Build-time only; the registry has already
    /// validated the carving against the machine size.
    fn arm_tenancy(
        &mut self,
        tp: &crate::tenancy::TenancyParams,
        reg: &crate::tenancy::TenantRegistry,
    ) {
        use crate::tenancy::{TenantClass, CONFINED_TX_Q, TENANT_SLOT_HI, TENANT_SLOT_LO};
        let nodes = self.nodes.len() as u16;
        // Tenant t's slice entry d names node d's copy of the same
        // tenant's logical queue — no slice can name another tenant's
        // inbox. Latency-class slices ride the network's High priority
        // (the QoS-isolation lever of study S10). Every node still
        // shares the build's conventions table, so the slices go into
        // one copy that every node then shares.
        let mut xlate = self.nodes[0].niu.ctrl.xlate.clone();
        xlate.grow_to(reg.xlate_end());
        for t in 0..reg.count {
            let high = tp.tenant_class(t) == TenantClass::Latency;
            for d in 0..nodes {
                xlate.install(
                    reg.tenant_dest(t, d),
                    XlateEntry {
                        valid: true,
                        node: d,
                        logical_q: reg.lq(t),
                        high_priority: high,
                    },
                );
            }
        }
        for node in &mut self.nodes {
            let niu = &mut node.niu;
            niu.ctrl.xlate = xlate.clone();
            // The managed hardware slots cache the tenant logical
            // queues under firmware LRU control; arriving messages are
            // drained by the sP, and a full slot diverts to the miss
            // queue (the default Divert policy) rather than
            // backpressuring unrelated tenants.
            for s in TENANT_SLOT_LO..=TENANT_SLOT_HI {
                niu.ctrl.rx[s as usize].service = RxService::SpPolled;
            }
            // The confined tenant's tx queue: AND/OR destination masks
            // pin every translation lookup inside its own slice.
            if let Some(c) = tp.confined {
                let q = &mut niu.ctrl.tx[CONFINED_TX_Q as usize];
                q.shadow_addr = Some((SramSel::A, shadow::tx_consumer(CONFINED_TX_Q)));
                q.and_mask = reg.slice - 1;
                q.or_mask = reg.xlate_base + c * reg.slice;
            }
            niu.arm_tenancy(reg.lq_base, reg.count);
            // Latency-class queues are pinned once resident: the LRU
            // refill never evicts them, so the QoS class keeps the
            // hardware hit path even when the pool thrashes (S10).
            let pinned = (0..reg.count)
                .map(|t| tp.tenant_class(t) == TenantClass::Latency)
                .collect();
            node.fw.arm_tenancy(
                reg.lq_base,
                reg.count,
                TENANT_SLOT_LO,
                TENANT_SLOT_HI,
                pinned,
            );
        }
    }

    /// The tenancy configuration this machine was built with, if any.
    pub fn tenancy(&self) -> Option<crate::tenancy::TenancyParams> {
        self.tenancy
    }

    /// The per-node tenant namespace carving, when tenancy is armed.
    pub fn tenant_registry(&self) -> Option<crate::tenancy::TenantRegistry> {
        self.tenancy.as_ref().map(|tp| {
            crate::tenancy::TenantRegistry::try_new(self.nodes.len() as u16, tp)
                .expect("tenancy was validated at build time")
        })
    }

    /// Tenant `t`'s handle on node `i` — the tenancy analogue of
    /// [`Machine::lib`]. Panics when tenancy is not armed or `t` is out
    /// of range.
    pub fn tenant_lib(&self, i: u16, t: u16) -> crate::tenancy::TenantLib {
        let reg = self
            .tenant_registry()
            .expect("tenant_lib requires MachineBuilder::tenants");
        assert!(t < reg.count, "tenant {t} out of range ({})", reg.count);
        crate::tenancy::TenantLib {
            lib: self.lib(i),
            tenant: t,
            registry: reg,
        }
    }

    /// The library view of node `i`.
    pub fn lib(&self, i: u16) -> NodeLib {
        let node = &self.nodes[i as usize];
        let tx1 = &node.niu.ctrl.tx[1];
        let rx1 = &node.niu.ctrl.rx[1];
        NodeLib {
            node: i,
            nodes: self.nodes.len() as u16,
            map: self.params.map,
            basic_tx: QueueView {
                q: 1,
                base: tx1.buf.base,
                entries: tx1.buf.entries,
                entry_bytes: tx1.buf.entry_bytes,
                shadow_off: shadow::tx_consumer(1),
            },
            basic_rx: QueueView {
                q: 1,
                base: rx1.buf.base,
                entries: rx1.buf.entries,
                entry_bytes: rx1.buf.entry_bytes,
                shadow_off: shadow::rx_producer(1),
            },
            express_tx_q: 2,
            express_rx_q: 2,
        }
    }

    /// Load a program onto node `i`'s application processor.
    pub fn load_program(&mut self, i: u16, p: impl Program + 'static) {
        self.nodes[i as usize].load_program(Box::new(p));
    }

    /// Turn the debugging tracer of node `i` on or off. While enabled,
    /// the node records application memory operations, bus completions /
    /// ARTRYs, and packet movement into a ring buffer retrievable with
    /// [`Machine::trace`].
    pub fn enable_tracing(&mut self, i: u16, on: bool) {
        self.nodes[i as usize].ckpt_mark_dirty();
        self.nodes[i as usize].tracer.set_enabled(on);
    }

    /// Render node `i`'s retained trace, optionally filtered by
    /// subsystem.
    pub fn trace(&self, i: u16, filter: Option<sv_sim::trace::Subsys>) -> String {
        self.nodes[i as usize].tracer.render(filter)
    }

    /// Event log of node `i`.
    pub fn events(&self, i: u16) -> &[AppEvent] {
        &self.nodes[i as usize].events
    }

    /// All Basic messages received by node `i`: `(source, payload)`.
    pub fn received_messages(&self, i: u16) -> Vec<(u16, Bytes)> {
        self.events(i)
            .iter()
            .filter_map(|e| match &e.kind {
                AppEventKind::Received { src, data, .. } => Some((*src, data.clone())),
                _ => None,
            })
            .collect()
    }

    /// Timestamp of the first event matching `f` on node `i`.
    pub fn event_time(&self, i: u16, f: impl Fn(&AppEventKind) -> bool) -> Option<Time> {
        self.events(i).iter().find(|e| f(&e.kind)).map(|e| e.at)
    }

    /// Total sP busy time across all nodes, ns.
    pub fn total_sp_busy_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.fw.occupancy.busy_ns).sum()
    }

    /// Map a reflective-memory window (paper §5 extension): stores into
    /// `[reflect_base + local_off, +len)` at node `a` propagate to
    /// `[peer_addr, +len)` at node `b`. `hw` selects the enhanced-aBIU
    /// hardware path; otherwise the sP forwards each update.
    pub fn map_reflective(
        &mut self,
        a: u16,
        local_off: u64,
        b: u16,
        peer_addr: u64,
        len: u64,
        hw: bool,
    ) {
        self.nodes[a as usize].ckpt_mark_dirty();
        let abiu = &mut self.nodes[a as usize].niu.abiu;
        abiu.reflect_hw = hw;
        abiu.reflect_windows.push(sv_niu::abiu::ReflectiveWindow {
            local_off,
            len,
            peer: b,
            peer_base: peer_addr,
        });
    }

    /// Put node `i`'s aBIU into write-tracking mode (the diff-ing
    /// extension): S-COMA-region writes are recorded in clsSRAM instead
    /// of gated, for later [`crate::api::request_flush`].
    pub fn enable_write_tracking(&mut self, i: u16) {
        self.nodes[i as usize].ckpt_mark_dirty();
        self.nodes[i as usize].niu.abiu.write_tracking = true;
    }

    /// Convenience: write bytes directly into node `i`'s memory (test
    /// and benchmark setup; costs nothing, like pre-loaded data).
    pub fn mem_write(&mut self, i: u16, addr: u64, data: &[u8]) {
        self.nodes[i as usize].mem.write(addr, data);
    }

    /// Convenience: read bytes from node `i`'s memory.
    pub fn mem_read(&self, i: u16, addr: u64, len: usize) -> Vec<u8> {
        self.nodes[i as usize].mem.read_vec(addr, len)
    }

    /// Serialize the complete machine state into a versioned snapshot.
    ///
    /// The snapshot captures everything that determines future behaviour
    /// — parameters, per-node component state (caches, NIU, firmware,
    /// memory, in-flight bus/CPU operations), program execution state,
    /// the network (including fault-model RNG and in-flight packets),
    /// and all statistics. Restoring it with
    /// [`MachineBuilder::restore`] and running to completion produces
    /// [`Machine::stats`] output byte-identical to the uninterrupted
    /// run, in every run mode and thread count.
    ///
    /// Panics when a node runs a program that cannot be snapshotted
    /// (e.g. a closure-based [`crate::app::FnProgram`]); see
    /// [`Machine::try_checkpoint`] for the checked form.
    pub fn checkpoint(&self) -> Vec<u8> {
        self.try_checkpoint().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked form of [`Machine::checkpoint`]: fails with
    /// [`crate::ApiError::Snapshot`] (carrying
    /// [`sv_sim::ckpt::SnapshotError::UnsupportedProgram`]) when a
    /// still-running program cannot capture its state. No bytes are
    /// produced on failure.
    pub fn try_checkpoint(&self) -> Result<Vec<u8>, crate::api::ApiError> {
        use sv_sim::ckpt::{fnv1a64, write_header, SnapHeader, SnapWriter, FORMAT_VERSION};
        // Collect program snapshots first so an unsupported program
        // fails the whole call before any serialization work.
        let mut progs = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            progs.push(node.program_snapshot()?);
        }
        // The parameter section is serialized separately so the header
        // can carry its hash: restore rejects a snapshot whose
        // parameters were tampered with before trusting any field.
        let mut pw = SnapWriter::new();
        pw.save(&self.params);
        let params = pw.finish();
        let mut w = SnapWriter::new();
        write_header(
            &mut w,
            &SnapHeader {
                version: FORMAT_VERSION,
                param_hash: fnv1a64(&params),
                nodes: self.nodes.len() as u64,
            },
        );
        w.lp_bytes(&params);
        w.u64(self.cycle);
        w.save(&self.now);
        w.save(&self.runstats);
        w.save(&self.network);
        w.save(&self.ideal);
        w.save(&self.tenancy);
        for (node, prog) in self.nodes.iter().zip(&progs) {
            w.save(node);
            w.save(prog);
        }
        Ok(w.finish())
    }

    /// Serialize the machine's parameters exactly as the snapshot formats
    /// do, and hash the section.
    fn param_hash(&self) -> u64 {
        use sv_sim::ckpt::fnv1a64;
        let mut pw = SnapWriter::new();
        pw.save(&self.params);
        fnv1a64(&pw.finish())
    }

    /// Cross-check the fabric sections a full or delta restore just
    /// loaded (starting at `at`) against the machine: they carry their
    /// own node count (their packet range checks depend on it) and QoS
    /// configuration (their VC geometry checks depend on it), and a
    /// forged section that disagrees with the header or the parameters
    /// must not slip through.
    fn check_fabric(&self, at: usize) -> Result<(), SnapshotError> {
        let span = self.nodes.len().max(2);
        if self.network.nodes() != span
            || self.ideal.as_ref().is_some_and(|i| i.nodes() != span)
            || self.network.qos() != self.params.qos
        {
            return Err(SnapshotError::Corrupt { offset: at });
        }
        Ok(())
    }

    /// Forget every dirty mark across the machine — a checkpoint cut has
    /// captured the current contents, opening a new epoch.
    fn ckpt_clear_dirty(&mut self) {
        for node in &mut self.nodes {
            node.ckpt_clear_dirty();
        }
        self.network.ckpt_clear_dirty();
        if let Some(ideal) = &mut self.ideal {
            ideal.ckpt_clear_dirty();
        }
    }

    /// Take an incremental checkpoint cut.
    ///
    /// The first call opens a chain: it emits a complete full-format
    /// snapshot ([`DeltaCheckpoint::Base`], identical to
    /// [`Machine::try_checkpoint`] output) and clears every dirty mark.
    /// Each subsequent call emits a [`DeltaCheckpoint::Delta`] holding
    /// only the sections that changed since the previous cut — the
    /// 64-byte DRAM/SRAM lines, cache chunks and network links written
    /// and translation tables changed since then, and whole small
    /// sections (node CPU/bus/firmware/NIU-queue state, the network's
    /// flights, events and fault RNG) for components that were active —
    /// then clears the marks again, opening the next epoch.
    ///
    /// Every delta is pinned to its chain by parameter hash, base
    /// snapshot id ([`sv_sim::ckpt::snapshot_id`] of the base bytes),
    /// sequence number, and cycle span; [`MachineBuilder::restore_chain`]
    /// verifies all four. Restoring the base plus the deltas in order
    /// resumes byte-identical to the uninterrupted run, in every run
    /// mode, worker count, and shard policy, with faults armed.
    ///
    /// Fails with [`crate::ApiError::Snapshot`] (and leaves the dirty
    /// marks and chain state untouched) when a still-running program
    /// cannot capture its state.
    pub fn try_checkpoint_delta(&mut self) -> Result<DeltaCheckpoint, crate::api::ApiError> {
        use sv_sim::ckpt::{snapshot_id, write_delta_header, DeltaHeader, FORMAT_VERSION};
        let Some(chain) = self.delta_chain else {
            let base = self.try_checkpoint()?;
            self.delta_chain = Some(DeltaChain {
                base_id: snapshot_id(&base),
                param_hash: self.param_hash(),
                seq: 0,
                last_cycle: self.cycle,
            });
            self.ckpt_clear_dirty();
            return Ok(DeltaCheckpoint::Base(base));
        };
        // Program snapshots for dirty nodes are collected first so an
        // unsupported program fails the whole call before any state
        // (dirty marks, chain position) is consumed.
        let dirty: Vec<bool> = self.nodes.iter().map(|n| n.ckpt_is_dirty()).collect();
        let mut progs = Vec::with_capacity(self.nodes.len());
        for (node, &d) in self.nodes.iter().zip(&dirty) {
            progs.push(if d { node.program_snapshot()? } else { None });
        }
        let mut w = SnapWriter::new();
        write_delta_header(
            &mut w,
            &DeltaHeader {
                version: FORMAT_VERSION,
                param_hash: chain.param_hash,
                nodes: self.nodes.len() as u64,
                base_id: chain.base_id,
                seq: chain.seq + 1,
                from_cycle: chain.last_cycle,
                to_cycle: self.cycle,
            },
        );
        w.save(&self.now);
        w.save(&self.runstats);
        if self.network.ckpt_dirty() {
            w.u8(1);
            self.network.save_delta(&mut w);
        } else {
            w.u8(0);
        }
        if self.ideal.as_ref().is_some_and(|i| i.ckpt_dirty()) {
            w.u8(1);
            w.save(&self.ideal);
        } else {
            w.u8(0);
        }
        for ((node, prog), &d) in self.nodes.iter().zip(&progs).zip(&dirty) {
            if d {
                w.u8(1);
                node.delta_save(&mut w);
                w.save(prog);
            } else {
                w.u8(0);
            }
        }
        let chain = self.delta_chain.as_mut().expect("chain checked above");
        chain.seq += 1;
        chain.last_cycle = self.cycle;
        self.ckpt_clear_dirty();
        Ok(DeltaCheckpoint::Delta(w.finish()))
    }

    /// Panicking form of [`Machine::try_checkpoint_delta`], mirroring
    /// [`Machine::checkpoint`].
    pub fn checkpoint_delta(&mut self) -> DeltaCheckpoint {
        self.try_checkpoint_delta()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Apply one delta on top of this (base-restored or partially
    /// chained) machine. `base_id` identifies the base snapshot the
    /// chain started from; `expect_seq` is the next link number.
    pub(crate) fn apply_delta(
        &mut self,
        bytes: &[u8],
        base_id: u64,
        expect_seq: u64,
    ) -> Result<(), crate::api::ApiError> {
        use sv_sim::ckpt::read_delta_header;
        let mut r = SnapReader::new(bytes);
        let header = read_delta_header(&mut r)?;
        let expected_hash = self.param_hash();
        if header.param_hash != expected_hash {
            return Err(SnapshotError::ParamHash {
                found: header.param_hash,
                expected: expected_hash,
            }
            .into());
        }
        if header.nodes != self.nodes.len() as u64 {
            return Err(SnapshotError::NodeCount {
                found: header.nodes,
            }
            .into());
        }
        if header.base_id != base_id {
            return Err(SnapshotError::BaseMismatch {
                found: header.base_id,
                expected: base_id,
            }
            .into());
        }
        if header.seq != expect_seq {
            return Err(SnapshotError::ChainBroken {
                expected: expect_seq,
                found: header.seq,
            }
            .into());
        }
        if header.from_cycle != self.cycle || header.to_cycle < header.from_cycle {
            return Err(SnapshotError::ChainBroken {
                expected: self.cycle,
                found: header.from_cycle,
            }
            .into());
        }
        self.now = r.load()?;
        self.runstats = r.load()?;
        let net_at = r.offset();
        match r.u8()? {
            0 => {}
            1 => self.network.apply_delta(&mut r)?,
            _ => return Err(SnapshotError::Corrupt { offset: net_at }.into()),
        }
        let ideal_at = r.offset();
        match r.u8()? {
            0 => {}
            1 => self.ideal = r.load()?,
            _ => return Err(SnapshotError::Corrupt { offset: ideal_at }.into()),
        }
        self.check_fabric(net_at)?;
        // A translation table the delta carries shares an array the
        // machine already holds when their entries are equal.
        for node in &self.nodes {
            node.niu.ctrl.xlate.hold_entries(&mut r);
        }
        for i in 0..self.nodes.len() {
            let at = r.offset();
            match r.u8()? {
                0 => continue,
                1 => {}
                _ => return Err(SnapshotError::Corrupt { offset: at }.into()),
            }
            self.nodes[i].delta_apply(&mut r)?;
            let prog: Option<crate::api::ProgramSnapshot> = r.load()?;
            if let Some(snap) = prog {
                let lib = self.lib(i as u16);
                let p = snap.instantiate(&lib);
                self.nodes[i].set_restored_program(p);
            }
        }
        r.finish()?;
        self.cycle = header.to_cycle;
        Ok(())
    }
}

use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError};

sv_sim::checkpointed! {
    struct RunLoopCounters {
        node_ticks,
        wake_republishes,
    }
}

impl MachineBuilder {
    /// Rebuild a machine from a [`Machine::checkpoint`] snapshot.
    ///
    /// The snapshot is authoritative for node count, parameters and all
    /// state — the builder's node count and [`MachineBuilder::params`]
    /// are ignored. Run-loop selection ([`MachineBuilder::parallelism`],
    /// [`MachineBuilder::shard_policy`],
    /// [`MachineBuilder::cycle_stepped`]) and the explicit observation
    /// knobs ([`MachineBuilder::tracing`],
    /// [`MachineBuilder::sample_latency`]) still apply, since they are
    /// free to differ between the saving and restoring run — results are
    /// bit-identical under all of them.
    ///
    /// Corrupted, truncated or version-mismatched snapshots fail with a
    /// typed [`crate::ApiError::Snapshot`]; no input can make this panic.
    pub fn restore(self, bytes: &[u8]) -> Result<Machine, crate::api::ApiError> {
        let mut m = self.restore_core(bytes)?;
        self.apply_restore_knobs(&mut m);
        Ok(m)
    }

    /// Rebuild a machine from a base snapshot plus an ordered delta
    /// chain (each produced by [`Machine::try_checkpoint_delta`]).
    ///
    /// The base restores exactly as [`MachineBuilder::restore`]; each
    /// delta is then verified against the chain — parameter hash, base
    /// snapshot id, sequence number, and cycle continuity — and applied
    /// in order. A delta written against a different base fails with
    /// [`sv_sim::ckpt::SnapshotError::BaseMismatch`]; a missing,
    /// duplicated, or reordered link fails with
    /// [`sv_sim::ckpt::SnapshotError::ChainBroken`]. All failures are
    /// typed [`crate::ApiError::Snapshot`] values; no input can panic.
    ///
    /// The restored machine resumes byte-identical to the donor at the
    /// final cut, in every run mode, worker count, and shard policy, and
    /// continues the same delta chain: its next
    /// [`Machine::try_checkpoint_delta`] emits the following link.
    pub fn restore_chain<D: AsRef<[u8]>>(
        self,
        base: &[u8],
        deltas: &[D],
    ) -> Result<Machine, crate::api::ApiError> {
        let mut m = self.restore_core(base)?;
        let base_id = sv_sim::ckpt::snapshot_id(base);
        let mut seq = 0u64;
        for d in deltas {
            seq += 1;
            m.apply_delta(d.as_ref(), base_id, seq)?;
        }
        m.delta_chain = Some(DeltaChain {
            base_id,
            param_hash: m.param_hash(),
            seq,
            last_cycle: m.cycle,
        });
        m.ckpt_clear_dirty();
        self.apply_restore_knobs(&mut m);
        Ok(m)
    }

    /// The observation knobs that are free to differ between the saving
    /// and the restoring run, applied after the state is in place.
    fn apply_restore_knobs(self, m: &mut Machine) {
        for i in self.traced_nodes {
            m.enable_tracing(i, true);
        }
        if self.sample_latency {
            m.set_latency_sampling(true);
        }
    }

    /// Everything [`MachineBuilder::restore`] does except the
    /// observation knobs: header validation, machine assembly, and the
    /// full state load.
    fn restore_core(&self, bytes: &[u8]) -> Result<Machine, crate::api::ApiError> {
        use sv_sim::ckpt::{fnv1a64, read_header};
        let mut r = SnapReader::new(bytes);
        let header = read_header(&mut r)?;
        let params_bytes = r.lp_bytes()?;
        let expected = fnv1a64(params_bytes);
        if header.param_hash != expected {
            return Err(SnapshotError::ParamHash {
                found: header.param_hash,
                expected,
            }
            .into());
        }
        // Node ids are u16; reject counts the machine cannot represent
        // before allocating anything.
        if header.nodes == 0 || header.nodes > u64::from(u16::MAX) {
            return Err(SnapshotError::NodeCount {
                found: header.nodes,
            }
            .into());
        }
        let params = {
            let mut pr = SnapReader::new(params_bytes);
            let p: SystemParams = pr.load()?;
            pr.finish()?;
            p
        };
        let n = header.nodes as usize;
        // Parallelism resolves against the snapshot's node count, not
        // the builder's placeholder.
        let plan = self.resolve_plan(n)?;
        let mut m = Machine::assemble(n, params, plan, self.par);
        m.cycle = r.u64()?;
        m.now = r.load()?;
        m.runstats = r.load()?;
        let net_at = r.offset();
        m.network = r.load()?;
        m.ideal = r.load()?;
        m.check_fabric(net_at)?;
        let ten_at = r.offset();
        let tenancy: Option<crate::tenancy::TenancyParams> = r.load()?;
        if let Some(tp) = &tenancy {
            // Re-run the build-time namespace validation against the
            // snapshot's node count; a forged section must not produce a
            // machine whose accessors panic.
            if crate::tenancy::TenantRegistry::try_new(n as u16, tp).is_err() {
                return Err(SnapshotError::Corrupt { offset: ten_at }.into());
            }
        }
        m.tenancy = tenancy;
        for i in 0..n {
            m.nodes[i].restore(&mut r)?;
            let prog: Option<crate::api::ProgramSnapshot> = r.load()?;
            if let Some(snap) = prog {
                let lib = m.lib(i as u16);
                let p = snap.instantiate(&lib);
                m.nodes[i].set_restored_program(p);
            }
        }
        r.finish()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_installs_conventions() {
        let mut m = Machine::builder(4).build();
        assert_eq!(m.nodes.len(), 4);
        let lib = m.lib(2);
        assert_eq!(lib.node, 2);
        assert_eq!(lib.user_dest(3), 3);
        assert_eq!(lib.svc_dest(1), 0x101);
        assert_eq!(lib.express_dest(0), 0x200);
        assert_eq!(lib.user_dest_hi(2), 0x302);
        // The high-priority alias maps to the same node and logical
        // queue as the plain user class, with the priority bit set.
        let hi = m.nodes[0]
            .niu
            .ctrl
            .xlate
            .lookup(lib.user_dest_hi(2))
            .unwrap();
        assert!(hi.valid && hi.high_priority);
        assert_eq!((hi.node, hi.logical_q), (2, 1));
        // The class stride is pinned at 256 up to 256 nodes (so every
        // historical trace stays valid) and widens past that.
        assert_eq!(dest::stride(1), 0x100);
        assert_eq!(dest::stride(256), 0x100);
        assert_eq!(dest::stride(257), 0x200);
        assert_eq!(dest::stride(1024), 1024);
        assert_eq!(dest::stride(4096), 4096);
        // Service queue is sP-polled in sSRAM.
        let n0 = &m.nodes[0];
        assert_eq!(n0.niu.ctrl.rx[0].buf.sram, SramSel::S);
        assert_eq!(n0.niu.ctrl.rx[0].service, RxService::SpPolled);
        assert!(n0.niu.ctrl.tx[2].express);
    }

    /// At 300 nodes the stride is 512, so the conventions grow every
    /// node's table past its 1,024-entry construction size.
    #[test]
    fn xlate_conventions_hold_on_every_node_past_256_nodes() {
        const N: u16 = 300;
        let mut m = Machine::builder(N as usize).build();
        let stride = dest::stride(N);
        assert_eq!(stride, 512);
        // Per class: logical queue and priority.
        let classes = [(1, false), (0, false), (2, false), (1, true)];
        for node in &mut m.nodes {
            let xlate = &mut node.niu.ctrl.xlate;
            assert_eq!(xlate.len(), 4 * stride as usize);
            for v in 0..4 * stride {
                let (d, (logical_q, high_priority)) = (v % stride, classes[(v / stride) as usize]);
                let want = (d < N).then_some(XlateEntry {
                    valid: true,
                    node: d,
                    logical_q,
                    high_priority,
                });
                assert_eq!(xlate.lookup(v), want, "virtual destination {v:#x}");
            }
        }
    }

    /// Nodes share the conventions table copy-on-write: an install on
    /// node 0 alone, as `workloads::load_rxq_spray` makes, leaves every
    /// other node's table as built.
    #[test]
    fn xlate_install_on_one_node_leaves_the_others_alone() {
        let saved = |m: &Machine, i: usize| {
            let mut w = sv_sim::ckpt::SnapWriter::new();
            w.save(&m.nodes[i].niu.ctrl.xlate);
            w.finish()
        };
        let mut built = Machine::builder(4).build();
        let mut m = Machine::builder(4).build();
        let e = XlateEntry {
            valid: true,
            node: 1,
            logical_q: 100,
            high_priority: false,
        };
        m.nodes[0].niu.ctrl.xlate.install(dest::USER_HI, e);
        assert_ne!(saved(&m, 0), saved(&built, 0));
        for i in 1..4 {
            assert_eq!(saved(&m, i), saved(&built, i), "node {i}");
            let len = built.nodes[i].niu.ctrl.xlate.len() as u16;
            for v in 0..len {
                let want = built.nodes[i].niu.ctrl.xlate.lookup(v);
                assert_eq!(
                    m.nodes[i].niu.ctrl.xlate.lookup(v),
                    want,
                    "node {i}, {v:#x}"
                );
            }
        }
        assert_eq!(m.nodes[0].niu.ctrl.xlate.lookup(dest::USER_HI), Some(e));
    }

    /// A restore shares equal translation tables by construction: every
    /// node whose entries equal node 0's holds node 0's array, after a
    /// full and after a chain restore, and an install still copies only
    /// the installing node's table.
    #[test]
    fn restored_nodes_share_one_translation_table() {
        const N: usize = 300;
        let saved = |m: &Machine, i: usize| {
            let mut w = sv_sim::ckpt::SnapWriter::new();
            w.save(&m.nodes[i].niu.ctrl.xlate);
            w.finish()
        };
        let mut donor = Machine::builder(N).build();
        let DeltaCheckpoint::Base(base) = donor.checkpoint_delta() else {
            panic!("the first cut is the base");
        };
        // Reinstalling an entry unchanged copies node 3's array and puts
        // it in the delta, whose chain restore loads it apart again.
        let table = &mut donor.nodes[3].niu.ctrl.xlate;
        let same = table.clone().lookup(7).unwrap();
        table.install(7, same);
        donor.run_for(2_000);
        let delta = donor.checkpoint_delta().into_bytes();
        assert!(delta.len() > 8 * 4 * 512);
        let full = Machine::builder(1).restore(&base).unwrap();
        let chain = Machine::builder(1).restore_chain(&base, &[delta]).unwrap();
        let built = Machine::builder(N).build();
        for mut m in [full, chain] {
            let table = &m.nodes[0].niu.ctrl.xlate;
            assert_eq!(table.len(), 4 * 512);
            assert!(m
                .nodes
                .iter()
                .all(|n| n.niu.ctrl.xlate.shares_entries_with(table)));
            let e = XlateEntry {
                valid: true,
                node: 7,
                logical_q: 9,
                high_priority: true,
            };
            m.nodes[5].niu.ctrl.xlate.install(dest::USER_HI, e);
            assert_eq!(m.nodes[5].niu.ctrl.xlate.lookup(dest::USER_HI), Some(e));
            for i in (0..N).filter(|&i| i != 5) {
                assert_eq!(saved(&m, i), saved(&built, i), "node {i}");
                let want = built.nodes[i].niu.ctrl.xlate.clone().lookup(dest::USER_HI);
                assert_eq!(m.nodes[i].niu.ctrl.xlate.lookup(dest::USER_HI), want);
            }
        }
    }

    /// Snapshot bytes depend on table contents only: a node that
    /// reinstalls an entry unchanged holds a private array equal to the
    /// shared one and saves the bytes of a fresh build.
    #[test]
    fn a_node_that_reinstalls_an_entry_unchanged_saves_a_fresh_build() {
        let built = Machine::builder(4).build();
        let mut m = Machine::builder(4).build();
        let table = &mut m.nodes[3].niu.ctrl.xlate;
        let same = table.clone().lookup(2).unwrap();
        table.install(2, same);
        let (node0, node3) = (&m.nodes[0].niu.ctrl.xlate, &m.nodes[3].niu.ctrl.xlate);
        assert!(!node3.shares_entries_with(node0));
        assert_eq!(m.checkpoint(), built.checkpoint());
    }

    #[test]
    fn empty_machine_quiesces_immediately() {
        let mut m = Machine::builder(2).build();
        let t = m.run_to_quiescence();
        assert!(t.ns() < 10_000);
    }

    #[test]
    fn run_for_advances_time() {
        let mut m = Machine::builder(2).build();
        m.run_for(1000);
        assert!(m.now.ns() >= 1000);
    }

    #[test]
    fn reads_leave_the_touched_mark_clear_and_writes_set_it() {
        let mut m = Machine::builder(4).build();
        assert!(m.nodes.touched, "a fresh machine counts as touched");
        m.load_program(0, crate::app::Delay(5_000));
        m.run_for(1_000);
        assert!(!m.nodes.touched, "a run that returned clears the mark");
        assert_eq!(m.nodes.len(), 4);
        assert_eq!(m.nodes[3].id, 3);
        assert_eq!(m.nodes.iter().filter(|n| n.has_work()).count(), 1);
        for n in &m.nodes {
            assert!(n.id < 4);
        }
        assert_eq!(m.stats().nodes.len(), 4);
        assert!(!m.checkpoint().is_empty());
        assert!(!m.nodes.touched, "reads leave the mark clear");
        type Write = fn(&mut Machine);
        let writes: [(&str, Write); 5] = [
            ("IndexMut", |m| m.nodes[1].niu.ctrl.tx[1].enabled = true),
            ("&mut iteration", |m| {
                for n in &mut m.nodes {
                    n.tracer.set_enabled(false);
                }
            }),
            ("load_program", |m| {
                m.load_program(2, crate::app::Delay(100))
            }),
            ("step", Machine::step),
            ("checkpoint_delta", |m| {
                m.checkpoint_delta();
            }),
        ];
        for (what, write) in writes {
            m.run_for(1_000);
            assert!(!m.nodes.touched, "{what}: a run clears the mark");
            write(&mut m);
            assert!(m.nodes.touched, "{what} sets the mark");
        }
    }

    #[test]
    fn builder_covers_legacy_constructor_shapes() {
        // The stepped-oracle shapes, on both fabrics, assembled through
        // the builder.
        let m = Machine::builder(3)
            .params(SystemParams::default())
            .cycle_stepped()
            .build();
        assert_eq!(m.nodes.len(), 3);
        assert!(m.is_cycle_stepped());
        assert_eq!(m.workers(), 1);
        let mut mi = Machine::builder(2)
            .params(SystemParams::default())
            .ideal_network(100)
            .cycle_stepped()
            .build();
        assert!(mi.ideal.is_some());
        mi.run_for(500);
        assert!(mi.now.ns() >= 500);
    }

    #[test]
    fn ideal_network_isolates_niu_costs() {
        use crate::api::{RecvBasic, SendBasic};
        let run = |ideal: bool| {
            let b = Machine::builder(2);
            let mut m = if ideal { b.ideal_network(100) } else { b }.build();
            m.load_program(0, SendBasic::to_node(&m.lib(0), 1, vec![9u8; 88]));
            m.load_program(1, RecvBasic::expecting(&m.lib(1), 1));
            let t = m.run_to_quiescence().ns();
            assert_eq!(m.received_messages(1).len(), 1);
            t
        };
        let arctic = run(false);
        let ideal = run(true);
        // The ideal pipe (100 ns) is much faster than two real hops
        // (~1.3 us); the residual is NIU + aP cost on both sides.
        assert!(ideal < arctic, "ideal {ideal} !< arctic {arctic}");
        assert!(
            arctic - ideal > 800,
            "network cost visible: {arctic} vs {ideal}"
        );
    }

    #[test]
    fn tracing_captures_the_message_path() {
        use crate::api::{RecvBasic, SendBasic};
        let mut m = Machine::builder(2).tracing(0).tracing(1).build();
        m.load_program(0, SendBasic::to_node(&m.lib(0), 1, vec![1u8; 16]));
        m.load_program(1, RecvBasic::expecting(&m.lib(1), 1));
        m.run_to_quiescence();
        let t0 = m.trace(0, None);
        assert!(t0.contains("store"), "sender stores traced:\n{t0}");
        assert!(
            t0.contains("tx 24B to node 1"),
            "packet egress traced:\n{t0}"
        );
        let t1_net = m.trace(1, Some(sv_sim::trace::Subsys::Net));
        assert!(t1_net.contains("rx 24B from node 0"));
        let t1_bus = m.trace(1, Some(sv_sim::trace::Subsys::Bus));
        assert!(t1_bus.contains("done SingleRead"), "receiver polls traced");
        // Disabled tracer records nothing further.
        m.enable_tracing(0, false);
        let before = m.nodes[0].tracer.total_recorded();
        m.load_program(0, SendBasic::to_node(&m.lib(0), 1, vec![2u8; 16]));
        m.load_program(1, RecvBasic::expecting(&m.lib(1), 1));
        m.run_to_quiescence();
        assert_eq!(m.nodes[0].tracer.total_recorded(), before);
    }

    #[test]
    fn queue_view_slots() {
        let v = QueueView {
            q: 1,
            base: 0x1000,
            entries: 32,
            entry_bytes: 96,
            shadow_off: 0,
        };
        assert_eq!(v.slot_off(0), 0x1000);
        assert_eq!(v.slot_off(33), 0x1000 + 96);
    }

    #[test]
    fn delta_restore_checks_network_qos_against_params() {
        // A network section whose QoS disagrees with the parameters is
        // refused on both restore paths: the full snapshot and a delta
        // that carries the changed section.
        use sv_sim::ckpt::SnapshotError;
        let mut m = Machine::builder(8)
            .parallelism(crate::Parallelism::Sequential)
            .build();
        crate::workloads::load_hot_spot(&mut m, 50, 4, 64);
        m.run_to_quiescence();
        let DeltaCheckpoint::Base(base) = m.checkpoint_delta() else {
            panic!("the first cut is the base");
        };
        m.network.set_qos(sv_arctic::QosParams::default());
        let DeltaCheckpoint::Delta(delta) = m.checkpoint_delta() else {
            panic!("the second cut is a delta");
        };
        let full = Machine::builder(1).restore(&m.checkpoint()).map(|_| ());
        let chain = Machine::builder(1)
            .restore_chain(&base, &[delta])
            .map(|_| ());
        for got in [full, chain] {
            assert!(
                matches!(
                    got,
                    Err(crate::api::ApiError::Snapshot(
                        SnapshotError::Corrupt { .. }
                    ))
                ),
                "{got:?}"
            );
        }
    }
}
