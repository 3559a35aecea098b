//! Machine-wide observability: the [`Machine::stats`] snapshot.
//!
//! This module exposes the *raw counters* of every simulated component
//! as one structured, serializable value — per-queue
//! enqueue/dequeue/stall counts, per-class message conservation and
//! latency distributions, aP, sP and memory-bus busy time, Arctic
//! per-link occupancy, firmware protocol counters, and run-loop
//! execution counters. Every field is an integer, so snapshots are
//! bit-deterministic: the determinism suite asserts byte-identical
//! [`MachineStats::to_json`] output across [`crate::Parallelism`]
//! worker counts and [`crate::ShardPolicy`] choices, and the
//! golden-stats tests pin exact values per scenario.
//!
//! Each record is one [`sv_sim::json_stats!`] declaration: one line per
//! counter holds its doc, its field name (also its JSON key) and the
//! live counter it copies, so the struct, the copy and the JSON cannot
//! drift apart. An `Option` section (`qos`, `tenancy`, per-node
//! `tenants`) is written only when the feature is armed.
//!
//! Collecting a snapshot costs nothing during the run: all counters are
//! maintained inline by the components (a handful of integer adds on
//! paths that already mutate state), and latency *sampling* — the only
//! per-packet metadata write — is off by default
//! ([`crate::MachineBuilder::sample_latency`]).

use crate::machine::Machine;
use crate::node::{Node, NodeStats};
use crate::tenancy::{TenancyParams, TenantRegistry, TenantSchedStat, TenantSpec};
use sv_arctic::{LinkUsage, Network, QosParams, VcUsage};
use sv_firmware::{Firmware, FwTenant};
use sv_membus::BusStats;
use sv_niu::msg::{MsgClass, MSG_CLASSES};
use sv_niu::niu::ClassStats;
use sv_niu::queues::{RxQueue, TxQueue};
use sv_niu::translate::PerLqStats;
use sv_niu::{NetPayload, Niu, TenantAttr};
use sv_sim::json::WriteJson;
use sv_sim::{json_stats, JsonWriter};

json_stats! {
    /// Per-class message conservation and latency. At quiescence
    /// `sent == delivered + dropped` holds for every class as long as no
    /// sender abandoned a message at the retransmit cap (the property
    /// suite asserts it, faults included). Under cap exhaustion the sender
    /// cannot know whether the receiver accepted a message whose ack was
    /// lost, so the invariant relaxes to
    /// `sent <= delivered + dropped <= sent + reliable_dropped`.
    #[derive(Copy)]
    pub struct ClassSnapshot(c: &ClassStats) {
        /// Packets launched (loopbacks included).
        sent = c.sent.get(),
        /// Packets accepted at the destination NIU.
        delivered = c.delivered.get(),
        /// Packets discarded at the destination.
        dropped = c.dropped.get(),
        /// Latency samples recorded (equals `delivered` while sampling is
        /// on from cycle 0; zero when sampling is off).
        latency_count = c.latency.count,
        /// Sum of inject→deliver latencies, 66 MHz bus cycles.
        latency_sum_cycles = c.latency.sum,
        /// Smallest latency sample (0 when none).
        latency_min_cycles = c.latency.min_or_zero(),
        /// Largest latency sample.
        latency_max_cycles = c.latency.max,
    }
}

json_stats! {
    /// One transmit queue's counters. Queues with all-zero counters are
    /// omitted from [`NiuSnapshot::tx_queues`].
    #[derive(Copy)]
    pub struct TxQueueSnapshot(q: usize, t: &TxQueue) {
        /// Hardware queue index.
        q = q as u64,
        /// Messages enqueued (producer-pointer advances).
        enqueued = t.enqueued.get(),
        /// Payload bytes launched.
        sent_bytes = t.sent.get(),
        /// Launch stalls on a full buffer (Express backpressure).
        full_stalls = t.full_stalls.get(),
        /// Protection violations observed.
        violations = t.violations.get(),
    }
}

json_stats! {
    /// One receive queue's counters. All-zero queues are omitted.
    #[derive(Copy)]
    pub struct RxQueueSnapshot(q: usize, r: &RxQueue) {
        /// Hardware queue index.
        q = q as u64,
        /// Payload bytes received.
        received_bytes = r.received.get(),
        /// Messages dequeued (consumer-pointer advances).
        dequeued = r.dequeued.get(),
        /// Messages dropped (full queue, Drop policy).
        dropped = r.dropped.get(),
        /// Messages diverted to the miss queue.
        diverted = r.diverted.get(),
        /// Delivery attempts stalled on a full queue (Retry policy).
        full_stalls = r.full_stalls.get(),
    }
}

json_stats! {
    /// One NIU's counters: CTRL engines, queues, translation, aBIU, IBus.
    pub struct NiuSnapshot(niu: &Niu) {
        /// Messages launched by the transmit engine.
        msgs_launched = niu.ctrl.stats.msgs_launched.get(),
        /// Messages delivered into receive queues.
        msgs_delivered = niu.ctrl.stats.msgs_delivered.get(),
        /// Messages diverted to the miss queue.
        msgs_diverted = niu.ctrl.stats.msgs_diverted.get(),
        /// Messages dropped.
        msgs_dropped = niu.ctrl.stats.msgs_dropped.get(),
        /// Remote commands executed.
        remote_cmds = niu.ctrl.stats.remote_cmds.get(),
        /// Local commands executed.
        cmds_executed = niu.ctrl.stats.cmds_executed.get(),
        /// Protection violations observed.
        violations = niu.ctrl.stats.violations.get(),
        /// TagOn bytes appended.
        tagon_bytes = niu.ctrl.stats.tagon_bytes,
        /// Contested transmit arbitrations won on priority.
        tx_priority_wins = niu.ctrl.stats.tx_priority_wins.get(),
        /// Block-transmit data chunks packetized (DMA chain steps).
        dma_chain_steps = niu.ctrl.stats.dma_chain_steps.get(),
        /// Messages short-circuited to this node's own receive path.
        loopback_msgs = niu.stats.loopback_msgs.get(),
        /// Express entries dropped (full queue, Drop policy).
        express_dropped = niu.stats.express_dropped.get(),
        /// Deepest receive-engine backlog seen.
        rxu_high_water = niu.stats.rxu_high_water as u64,
        /// Receive-queue-cache hits (message landed in a hardware queue).
        rq_cache_hits = niu.ctrl.rx_cache.hits.get(),
        /// Receive-queue-cache misses (message took the firmware path).
        rq_cache_misses = niu.ctrl.rx_cache.misses.get(),
        /// Destination-translation lookups.
        xlate_lookups = niu.ctrl.xlate.lookups.get(),
        /// Translation faults (protection violations).
        xlate_faults = niu.ctrl.xlate.faults.get(),
        /// IBus busy cycles.
        ibus_busy_cycles = niu.ctrl.ibus.busy_cycles,
        /// IBus transactions.
        ibus_transactions = niu.ctrl.ibus.transactions.get(),
        /// aBIU bus operations claimed.
        abiu_claimed = niu.abiu.stats.claimed.get(),
        /// aBIU ARTRY retries observed.
        abiu_retries = niu.abiu.stats.retries.get(),
        /// Reliable-delivery retransmissions (timeout resends).
        retransmits = niu.stats.retransmits.get(),
        /// Cumulative acks emitted by the link interface.
        acks_sent = niu.stats.acks_sent.get(),
        /// Cumulative acks consumed by the transmit side.
        acks_received = niu.stats.acks_received.get(),
        /// Duplicate/out-of-window sequenced frames discarded on arrival.
        dup_drops = niu.stats.dup_drops.get(),
        /// CRC-failed (fault-corrupted) frames discarded on arrival.
        corrupt_drops = niu.stats.corrupt_drops.get(),
        /// Head-of-line messages dropped after the Retry-policy cap.
        rx_retry_drops = niu.stats.rx_retry_drops.get(),
        /// Messages abandoned by the sender at the retransmit cap.
        reliable_dropped = niu.stats.reliable_dropped.get(),
        /// Per-class conservation/latency, indexed by [`MsgClass`] and
        /// keyed by its names in the JSON.
        classes by MsgClass::NAMES: [ClassSnapshot; MSG_CLASSES] =
            niu.stats.class.each_ref().map(ClassSnapshot::capture),
        /// Non-idle transmit queues.
        tx_queues: Vec<TxQueueSnapshot> = niu.ctrl.tx.iter().enumerate()
            .map(|(q, t)| TxQueueSnapshot::capture(q, t))
            .filter(|t| *t != TxQueueSnapshot { q: t.q, ..Default::default() })
            .collect(),
        /// Non-idle receive queues.
        rx_queues: Vec<RxQueueSnapshot> = niu.ctrl.rx.iter().enumerate()
            .map(|(q, r)| RxQueueSnapshot::capture(q, r))
            .filter(|r| *r != RxQueueSnapshot { q: r.q, ..Default::default() })
            .collect(),
    }
}

json_stats! {
    /// One node's firmware counters: engine, occupancy, NUMA, S-COMA, DMA.
    #[derive(Copy)]
    pub struct FwSnapshot(fw: &Firmware) {
        /// Work items handled.
        handled = fw.stats.handled.get(),
        /// Service-queue messages processed.
        svc_msgs = fw.stats.svc_msgs.get(),
        /// Miss-queue messages processed.
        miss_msgs = fw.stats.miss_msgs.get(),
        /// Violation interrupts observed.
        violations_seen = fw.stats.violations_seen.get(),
        /// Malformed, stale, or protocol-inconsistent messages discarded.
        proto_errors = fw.stats.proto_errors.get(),
        /// sP busy time, ns.
        busy_ns = fw.occupancy.busy_ns,
        /// Distinct sP busy intervals (handler engagements).
        busy_intervals = fw.occupancy.intervals,
        /// NUMA requests forwarded to a home node (load misses + stores).
        numa_forwards = fw.numa.load_misses.get() + fw.numa.stores_forwarded.get(),
        /// NUMA home-side reads serviced.
        numa_home_reads = fw.numa.home_reads.get(),
        /// NUMA home-side writes serviced.
        numa_home_writes = fw.numa.home_writes.get(),
        /// NUMA replies delivered to the waiting aP.
        numa_replies = fw.numa.replies.get(),
        /// S-COMA local misses serviced.
        scoma_local_misses = fw.scoma.stats.local_misses.get(),
        /// S-COMA directory state transitions.
        scoma_transitions = fw.scoma.stats.transitions.get(),
        /// S-COMA owner recalls issued.
        scoma_recalls = fw.scoma.stats.recalls.get(),
        /// S-COMA sharer invalidations issued.
        scoma_invals = fw.scoma.stats.invals.get(),
        /// S-COMA writebacks serviced.
        scoma_writebacks = fw.scoma.stats.writebacks.get(),
        /// Block-transfer requests accepted.
        xfer_requests = fw.xfer.requests.get(),
        /// Block-transfer sends completed.
        xfer_completed_sends = fw.xfer.completed_sends.get(),
        /// Block-transfer chunks sent (firmware DMA chain steps).
        xfer_chunks_sent = fw.xfer.chunks_sent.get(),
        /// Completion notifications sent.
        xfer_notifies = fw.xfer.notifies.get(),
        /// Collectives started by the local aP (COLL_START accepted).
        coll_started = fw.coll.started.get(),
        /// Collective results delivered to the local aP.
        coll_completed = fw.coll.completed.get(),
        /// Collective fan-in (COLL_UP) messages sent.
        coll_ups_sent = fw.coll.ups_sent.get(),
        /// Collective fan-out (COLL_DOWN) messages sent.
        coll_downs_sent = fw.coll.downs_sent.get(),
        /// Contributions folded while a fan-in was still incomplete (wait
        /// depth the sP absorbed on behalf of the aPs).
        coll_fanin_stalls = fw.coll.fanin_stalls.get(),
        /// sP busy time attributed to collective handlers, ns.
        coll_busy_ns = fw.coll.busy_ns,
    }
}

json_stats! {
    /// One node's memory-bus counters.
    #[derive(Copy)]
    pub struct BusSnapshot(s: &BusStats) {
        /// Address tenures started.
        tenures = s.tenures.get(),
        /// ARTRY retries observed.
        retries = s.retries.get(),
        /// Transactions completed.
        completions = s.completions.get(),
        /// Busy data-bus cycles (occupancy numerator).
        data_cycles = s.data_cycles,
        /// Bytes moved on the data bus.
        data_bytes = s.data_bytes,
    }
}

json_stats! {
    /// One node's aP-core counters.
    #[derive(Copy)]
    pub struct CpuSnapshot(s: &NodeStats) {
        /// Loads executed.
        loads = s.loads.get(),
        /// Stores executed.
        stores = s.stores.get(),
        /// L1 hits.
        l1_hits = s.l1_hits.get(),
        /// L2 hits.
        l2_hits = s.l2_hits.get(),
        /// Bus operations issued.
        bus_ops_issued = s.bus_ops_issued.get(),
        /// Dirty-line castouts.
        castouts = s.castouts.get(),
        /// Time spent computing, ns.
        compute_ns = s.cpu_compute_ns,
        /// Time stalled on memory, ns.
        mem_stall_ns = s.cpu_mem_stall_ns,
        /// ARTRY retries suffered.
        ap_retries = s.ap_retries.get(),
    }
}

json_stats! {
    /// One tenant's attribution on one node: scheduler occupancy,
    /// rx-queue-cache behaviour of the tenant's logical queue, firmware
    /// service counts, and the inject→deliver latency split by cache
    /// outcome. All integers (`done` is 0/1, quantiles come from the
    /// deterministic [`sv_sim::stats::Log2Histogram`]), so the JSON stays
    /// byte-deterministic across run modes.
    #[derive(Copy)]
    pub struct TenantSnapshot(
        t: usize,
        spec: TenantSpec,
        sched: TenantSchedStat,
        rq: Option<(&PerLqStats, usize)>,
        fw: Option<&FwTenant>,
        niu: Option<&TenantAttr>,
    ) {
        /// Tenant index on its node.
        id = t as u64,
        /// Workload-class code ([`crate::tenancy::TenantClass::code`]).
        class = spec.class.code() as u64,
        /// Scheduler weight.
        weight = spec.weight as u64,
        /// Scheduling slices granted.
        slices = sched.slices,
        /// Program steps executed on the tenant's behalf.
        steps = sched.steps,
        /// aP time attributed, ns.
        active_ns = sched.active_ns,
        /// Basic messages completed through the shared tx muxes.
        sent_msgs = sched.sent_msgs,
        /// 1 when the tenant's job ran to completion.
        done = sched.done as u64,
        /// Arrivals to the tenant's logical queue that found it cached in
        /// a hardware rx slot.
        rq_hits = rq.map_or(0, |(p, lq)| p.hits[lq]),
        /// Arrivals that took the miss-queue path (queue not resident).
        rq_misses = rq.map_or(0, |(p, lq)| p.misses[lq]),
        /// Arrivals diverted to the miss queue because the resident slot
        /// was full.
        diversions = rq.map_or(0, |(p, lq)| p.diversions[lq]),
        /// Messages the firmware drained from the tenant's resident slot.
        drained = fw.map_or(0, |f| f.drained[t].get()),
        /// Messages the firmware served for this tenant via the miss
        /// queue.
        miss_served = fw.map_or(0, |f| f.miss_served[t].get()),
        /// Inject→deliver latency samples on the cache-hit path.
        hit_latency_count = niu.map_or(0, |a| a.hit_latency[t].summary.count),
        /// P99 of the hit-path latency, ns (bucketed upper bound; 0 with
        /// no samples).
        hit_latency_p99_ns = niu.and_then(|a| a.hit_latency[t].quantile(0.99)).unwrap_or(0),
        /// Largest hit-path latency, ns.
        hit_latency_max_ns = niu.map_or(0, |a| a.hit_latency[t].summary.max),
        /// Latency samples on the miss path (stamped at firmware service,
        /// so sP occupancy is part of the cost).
        miss_latency_count = niu.map_or(0, |a| a.miss_latency[t].summary.count),
        /// P99 of the miss-path latency, ns.
        miss_latency_p99_ns = niu.and_then(|a| a.miss_latency[t].quantile(0.99)).unwrap_or(0),
        /// Largest miss-path latency, ns.
        miss_latency_max_ns = niu.map_or(0, |a| a.miss_latency[t].summary.max),
    }
}

json_stats! {
    /// One node's tenancy section ([`NodeSnapshot::tenants`]), present
    /// only when the machine was built with
    /// [`crate::MachineBuilder::tenants`].
    pub struct TenantNodeSnapshot(n: &Node, tp: &TenancyParams) {
        /// Queue-cache rebinds the firmware performed on this node.
        rebinds = n.fw.tenant.as_ref().map_or(0, |f| f.rebinds.get()),
        /// Per-tenant rows, in tenant order.
        tenants as "per_tenant": Vec<TenantSnapshot> = tenant_rows(n, tp),
    }
}

/// Node `n`'s per-tenant rows. A node without a `TenantScheduler`
/// program (tenancy armed but some other workload loaded) reports zero
/// occupancy.
fn tenant_rows(n: &Node, tp: &TenancyParams) -> Vec<TenantSnapshot> {
    let report = n.tenant_report().unwrap_or_default();
    let attr = n.niu.tenant.as_ref();
    let lq_base = attr.map_or(crate::tenancy::TENANT_LQ_BASE, |a| a.lq_base);
    let per_lq = n.niu.ctrl.rx_cache.per_lq.as_ref();
    (0..tp.tenants_per_node)
        .map(|t| {
            let sched = report.get(usize::from(t)).copied().unwrap_or_default();
            let rq = per_lq.map(|p| (p, usize::from(lq_base) + usize::from(t)));
            let fw = n.fw.tenant.as_ref();
            TenantSnapshot::capture(usize::from(t), tp.tenant_spec(t), sched, rq, fw, attr)
        })
        .collect()
}

json_stats! {
    /// Everything one node counted.
    pub struct NodeSnapshot(n: &Node, tp: Option<&TenancyParams>) {
        /// Node id.
        node = n.id as u64,
        /// aP core.
        cpu: CpuSnapshot = CpuSnapshot::capture(&n.stats),
        /// Memory bus.
        bus: BusSnapshot = BusSnapshot::capture(&n.bus.stats),
        /// Network interface unit.
        niu: NiuSnapshot = NiuSnapshot::capture(&n.niu),
        /// Service-processor firmware.
        fw: FwSnapshot = FwSnapshot::capture(&n.fw),
        /// Per-tenant attribution, when tenancy is armed. The JSON emits
        /// the `tenants` object only in that case, so untenanted machines
        /// keep their historical byte-identical snapshots.
        tenants: Option<TenantNodeSnapshot> = tp.map(|tp| TenantNodeSnapshot::capture(n, tp)),
    }
}

json_stats! {
    /// Network-level counters plus per-link occupancy (links that carried
    /// no bytes are omitted). All zeros under the ideal-network ablation,
    /// which bypasses the Arctic model.
    pub struct NetworkSnapshot(net: &Network<NetPayload>) {
        /// Packets injected.
        injected = net.stats.injected.get(),
        /// Packets delivered.
        delivered = net.stats.delivered.get(),
        /// Payload+header bytes delivered.
        bytes_delivered = net.stats.bytes_delivered,
        /// End-to-end latency samples (== delivered).
        latency_count = net.stats.latency.count,
        /// Sum of end-to-end latencies, ns.
        latency_sum_ns = net.stats.latency.sum,
        /// Smallest end-to-end latency, ns (0 when none).
        latency_min_ns = net.stats.latency.min_or_zero(),
        /// Largest end-to-end latency, ns.
        latency_max_ns = net.stats.latency.max,
        /// Deepest output queue seen on any link.
        max_link_queue = net.stats.max_link_queue as u64,
        /// Packets discarded by the fault model at injection.
        faults_dropped = net.stats.faults_dropped.get(),
        /// Extra in-flight copies created by the fault model.
        faults_duplicated = net.stats.faults_duplicated.get(),
        /// Packets whose payload the fault model corrupted.
        faults_corrupted = net.stats.faults_corrupted.get(),
        /// Packets the fault model pushed ahead of their priority peers.
        faults_reordered = net.stats.faults_reordered.get(),
        /// Per-link usage: `(link id, bytes, serialization-busy ns,
        /// deepest queue)`, links with traffic only.
        links: Vec<LinkUsage> = net.link_usage(),
        /// Virtual-channel / credit-flow-control counters, populated only
        /// when QoS is armed ([`crate::MachineBuilder::network_qos`]). The
        /// JSON emits the `qos` object only in that case, so unarmed
        /// machines keep their historical byte-identical snapshots.
        qos: Option<QosSnapshot> = net.qos().map(|q| QosSnapshot::capture(net, q)),
    }
}

json_stats! {
    /// Arctic virtual-channel counters (see [`NetworkSnapshot::qos`]).
    pub struct QosSnapshot(net: &Network<NetPayload>, q: QosParams) {
        /// Armed virtual channels per link.
        vcs = q.vcs as u64,
        /// Credit pool (input-buffer slots) per `(link, vc)`.
        credits_per_vc = q.credits_per_vc as u64,
        /// Credit-stall episodes (a VC head finding its downstream pool
        /// empty; one count per episode, not per retry).
        credit_stalls = net.stats.credit_stalls.get(),
        /// Total time VC heads spent credit-blocked, ns.
        credit_stall_ns = net.stats.credit_stall_ns,
        /// High-class end-to-end latency samples.
        latency_hi_count = net.stats.latency_hi.count,
        /// Sum of High-class end-to-end latencies, ns.
        latency_hi_sum_ns = net.stats.latency_hi.sum,
        /// Smallest High-class latency, ns (0 when none).
        latency_hi_min_ns = net.stats.latency_hi.min_or_zero(),
        /// Largest High-class latency, ns — the S9 tail metric.
        latency_hi_max_ns = net.stats.latency_hi.max,
        /// Low-class end-to-end latency samples.
        latency_lo_count = net.stats.latency_lo.count,
        /// Sum of Low-class end-to-end latencies, ns.
        latency_lo_sum_ns = net.stats.latency_lo.sum,
        /// Smallest Low-class latency, ns (0 when none).
        latency_lo_min_ns = net.stats.latency_lo.min_or_zero(),
        /// Largest Low-class latency, ns.
        latency_lo_max_ns = net.stats.latency_lo.max,
        /// Per-VC usage aggregated over all links, one row per VC index.
        vc_usage: Vec<VcUsage> = net.vc_usage(),
    }
}

json_stats! {
    /// Run-loop execution counters (see
    /// [`crate::machine::RunLoopCounters`] for what is — deliberately —
    /// not counted).
    #[derive(Copy)]
    pub struct RunSnapshot(m: &Machine) {
        /// Bus cycles the run has reached.
        cycles = m.cycle,
        /// Node ticks actually executed.
        node_ticks = m.runstats.node_ticks,
        /// Node ticks the event loop skipped (`cycles × nodes −
        /// node_ticks`; zero under [`crate::MachineBuilder::cycle_stepped`]).
        skipped_node_ticks = (m.cycle * m.nodes.len() as u64).saturating_sub(m.runstats.node_ticks),
        /// Wake-index publishes on arrival and post-tick edges.
        wake_republishes = m.runstats.wake_republishes,
    }
}

json_stats! {
    /// The machine-level tenancy configuration echo
    /// ([`MachineStats::tenancy`]): what the per-node tenant rows were
    /// carved from, so a stats file is self-describing.
    #[derive(Copy)]
    pub struct TenancySnapshot(tp: TenancyParams, reg: TenantRegistry) {
        /// Tenants per node.
        tenants_per_node = tp.tenants_per_node as u64,
        /// Scheduler policy code (0 round-robin, 1 weighted time slice).
        policy = tp.policy.code() as u64,
        /// Weighted-time-slice base quantum, ns (0 under round-robin).
        quantum_ns = tp.policy.quantum_ns(),
        /// Confined tenant index plus one; 0 = no confined tenant.
        confined_plus_one = tp.confined.map_or(0, |c| c as u64 + 1),
        /// First tenant logical rx queue.
        lq_base = reg.lq_base as u64,
        /// First virtual destination of tenant 0's translation slice.
        xlate_base = reg.xlate_base as u64,
        /// Virtual destinations per tenant slice.
        slice = reg.slice as u64,
    }
}

json_stats! {
    /// The machine-wide snapshot. Integers only, so
    /// [`MachineStats::to_json`] is byte-deterministic across runs, run
    /// modes and thread counts.
    pub struct MachineStats(m: &Machine, tp: Option<TenancyParams>) {
        /// Simulated time, ns.
        sim_time_ns = m.now.ns(),
        /// Run-loop execution counters.
        run: RunSnapshot = RunSnapshot::capture(m),
        /// Per-node counters.
        nodes: Vec<NodeSnapshot> =
            m.nodes.iter().map(|n| NodeSnapshot::capture(n, tp.as_ref())).collect(),
        /// Network counters.
        network: NetworkSnapshot = NetworkSnapshot::capture(&m.network),
        /// Tenancy configuration echo, when armed (the JSON emits the
        /// `tenancy` object only in that case).
        tenancy: Option<TenancySnapshot> =
            tp.zip(m.tenant_registry()).map(|(tp, reg)| TenancySnapshot::capture(tp, reg)),
    }
}

impl Machine {
    /// Snapshot every component's counters. Cheap (pure reads over state
    /// the components maintain inline) and side-effect free.
    pub fn stats(&self) -> MachineStats {
        MachineStats::capture(self, self.tenancy())
    }
}

impl MachineStats {
    /// Deterministic JSON rendering: object keys in declaration order,
    /// integers only, no whitespace. Byte-identical output ⇔ identical
    /// snapshot.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::api::{RecvBasic, SendBasic};
    use crate::Machine;
    use sv_niu::msg::MsgClass;

    #[test]
    fn snapshot_counts_one_basic_message() {
        let mut m = Machine::builder(2).sample_latency(true).build();
        m.load_program(0, SendBasic::to_node(&m.lib(0), 1, vec![7u8; 64]));
        m.load_program(1, RecvBasic::expecting(&m.lib(1), 1));
        m.run_to_quiescence();
        let s = m.stats();
        assert_eq!(s.nodes.len(), 2);
        let basic = MsgClass::Basic as usize;
        assert_eq!(s.nodes[0].niu.classes[basic].sent, 1);
        assert_eq!(s.nodes[1].niu.classes[basic].delivered, 1);
        assert_eq!(s.nodes[1].niu.classes[basic].latency_count, 1);
        assert!(s.nodes[1].niu.classes[basic].latency_min_cycles > 0);
        // The sender's tx queue 1 saw one enqueue; the receiver's rx
        // queue 1 saw one dequeue.
        assert!(s.nodes[0]
            .niu
            .tx_queues
            .iter()
            .any(|t| t.q == 1 && t.enqueued == 1));
        assert!(s.nodes[1]
            .niu
            .rx_queues
            .iter()
            .any(|r| r.q == 1 && r.dequeued == 1));
        assert_eq!(s.network.delivered, 1);
        assert!(!s.network.links.is_empty());
        assert!(s.run.node_ticks > 0);
        assert!(s.run.skipped_node_ticks > 0, "event loop skipped idle work");
        assert!(s.run.wake_republishes > 0);
    }

    #[test]
    fn json_rendering_is_stable_and_parsable_shape() {
        let mut m = Machine::builder(2).build();
        m.load_program(0, SendBasic::to_node(&m.lib(0), 1, vec![1u8; 16]));
        m.load_program(1, RecvBasic::expecting(&m.lib(1), 1));
        m.run_to_quiescence();
        let a = m.stats().to_json();
        let b = m.stats().to_json();
        assert_eq!(a, b, "snapshotting is side-effect free");
        assert!(a.starts_with("{\"sim_time_ns\":"));
        assert!(a.contains("\"classes\":{\"basic\":{"));
        assert!(a.ends_with("}"));
        // Latency sampling was off: no samples recorded anywhere.
        assert!(a.contains("\"latency_count\":0"));
    }

    #[test]
    fn sampling_off_records_no_latency() {
        let mut m = Machine::builder(2).build();
        m.load_program(0, SendBasic::to_node(&m.lib(0), 1, vec![1u8; 16]));
        m.load_program(1, RecvBasic::expecting(&m.lib(1), 1));
        m.run_to_quiescence();
        let s = m.stats();
        let basic = MsgClass::Basic as usize;
        assert_eq!(s.nodes[1].niu.classes[basic].delivered, 1);
        assert_eq!(s.nodes[1].niu.classes[basic].latency_count, 0);
        assert_eq!(s.nodes[1].niu.classes[basic].latency_min_cycles, 0);
    }
}
