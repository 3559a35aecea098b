//! Deterministic per-layer work counts read from [`MachineStats`], and
//! the model digest.
//!
//! Every count here is a simulation result: it repeats exactly for a
//! given workload and seed, at every worker count, traced or not. A
//! change that only speeds the simulator up must leave all of them, and
//! the digest, equal to the parent commit's.

use voyager::sim::ckpt::fnv1a64;
use voyager::stats::RunSnapshot;
use voyager::MachineStats;

macro_rules! counts {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Work counted by one or more machines, summed (except
        /// `max_link_queue`, which is a high-water mark).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counts {
            fn zip(self, o: Counts, f: impl Fn(u64, u64) -> u64) -> Counts {
                Counts { $($field: f(self.$field, o.$field),)* }
            }
        }
    };
}

counts! {
    /// Node ticks the run loop executed.
    node_ticks,
    /// Node ticks the event loop skipped (`cycles × nodes − node_ticks`).
    skipped_ticks,
    /// Wake-index publishes.
    wake_republishes,
    /// Packets the fabric delivered.
    packets,
    /// Bytes the fabric delivered.
    bytes,
    /// Link serialization time summed over links, simulated ns.
    link_busy_ns,
    /// Deepest output queue on any link.
    max_link_queue,
    /// Virtual-channel credit-stall episodes.
    credit_stalls,
    /// Time VC heads spent credit-blocked, simulated ns.
    credit_stall_ns,
    /// Messages the NIU transmit engines launched.
    msgs_launched,
    /// Messages delivered into receive queues.
    msgs_delivered,
    /// Receive-queue-cache hits.
    rq_hits,
    /// Receive-queue-cache misses.
    rq_misses,
    /// Messages diverted to the miss queue.
    msgs_diverted,
    /// Destination-translation lookups.
    xlate_lookups,
    /// Protection violations.
    violations,
    /// IBus busy bus cycles.
    ibus_busy_cycles,
    /// aBIU ARTRY retries.
    abiu_retries,
    /// Deliveries stalled on a full receive queue.
    rx_full_stalls,
    /// Firmware work items handled.
    fw_handled,
    /// sP busy time, simulated ns.
    fw_busy_ns,
    /// Miss-queue messages the firmware processed.
    fw_miss_msgs,
    /// Receive-queue-cache rebinds the firmware performed.
    fw_rebinds,
    /// Malformed or stale protocol messages discarded.
    fw_proto_errors,
    /// Memory-bus address tenures.
    bus_tenures,
    /// Memory-bus ARTRY retries.
    bus_retries,
    /// Busy data-bus cycles.
    bus_data_cycles,
    /// aP loads plus stores.
    mem_ops,
    /// aP L1 hits.
    l1_hits,
    /// aP L2 hits.
    l2_hits,
    /// aP time stalled on memory, simulated ns.
    mem_stall_ns,
}

impl Counts {
    /// The counts of one machine's stats snapshot.
    pub fn of(s: &MachineStats) -> Counts {
        let mut c = Counts {
            node_ticks: s.run.node_ticks,
            skipped_ticks: s.run.skipped_node_ticks,
            wake_republishes: s.run.wake_republishes,
            packets: s.network.delivered,
            bytes: s.network.bytes_delivered,
            link_busy_ns: s.network.links.iter().map(|l| l.busy_ns).sum(),
            max_link_queue: s.network.max_link_queue,
            credit_stalls: s.network.qos.as_ref().map_or(0, |q| q.credit_stalls),
            credit_stall_ns: s.network.qos.as_ref().map_or(0, |q| q.credit_stall_ns),
            ..Counts::default()
        };
        for n in &s.nodes {
            c.msgs_launched += n.niu.msgs_launched;
            c.msgs_delivered += n.niu.msgs_delivered;
            c.rq_hits += n.niu.rq_cache_hits;
            c.rq_misses += n.niu.rq_cache_misses;
            c.msgs_diverted += n.niu.msgs_diverted;
            c.xlate_lookups += n.niu.xlate_lookups;
            c.violations += n.niu.violations;
            c.ibus_busy_cycles += n.niu.ibus_busy_cycles;
            c.abiu_retries += n.niu.abiu_retries;
            c.rx_full_stalls += n.niu.rx_queues.iter().map(|q| q.full_stalls).sum::<u64>();
            c.fw_handled += n.fw.handled;
            c.fw_busy_ns += n.fw.busy_ns;
            c.fw_miss_msgs += n.fw.miss_msgs;
            c.fw_rebinds += n.tenants.as_ref().map_or(0, |t| t.rebinds);
            c.fw_proto_errors += n.fw.proto_errors;
            c.bus_tenures += n.bus.tenures;
            c.bus_retries += n.bus.retries;
            c.bus_data_cycles += n.bus.data_cycles;
            c.mem_ops += n.cpu.loads + n.cpu.stores;
            c.l1_hits += n.cpu.l1_hits;
            c.l2_hits += n.cpu.l2_hits;
            c.mem_stall_ns += n.cpu.mem_stall_ns;
        }
        c
    }

    /// Work of two machines together.
    pub fn plus(self, o: Counts) -> Counts {
        Counts {
            max_link_queue: self.max_link_queue.max(o.max_link_queue),
            ..self.zip(o, |a, b| a + b)
        }
    }

    /// Work done since `base`, a snapshot of the machine this one was
    /// restored from. The high-water mark is kept as is.
    pub fn since(self, base: Counts) -> Counts {
        Counts {
            max_link_queue: self.max_link_queue,
            ..self.zip(base, u64::saturating_sub)
        }
    }
}

/// FNV-1a-64 of the stats JSON with the run-loop counters zeroed: a
/// fingerprint of the modelled machine's behaviour that a change to how
/// the run loop schedules work must not move.
pub fn model_digest(s: &MachineStats) -> u64 {
    let mut s = s.clone();
    s.run = RunSnapshot::default();
    fnv1a64(s.to_json().as_bytes())
}

/// Fold one more machine's digest into a rep digest.
pub fn fold_digest(acc: u64, d: u64) -> u64 {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&acc.to_le_bytes());
    b[8..].copy_from_slice(&d.to_le_bytes());
    fnv1a64(&b)
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Host time one rep spent at each layer boundary, from its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTimes {
    /// `MachineBuilder::build`, s.
    pub build_s: f64,
    /// Nodes assembled by those builds.
    pub nodes_built: u64,
    /// Program loaders, s.
    pub load_s: f64,
    /// `Machine::run`/`run_for`, s.
    pub run_s: f64,
    /// `Machine::stats`, s.
    pub snapshot_s: f64,
}

/// The per-layer metrics of one rep, as `(name, unit, value)`: host
/// times from the rep's spans and work counts from its machines.
pub fn per_layer(
    h: &HostTimes,
    c: &Counts,
    ckpt: (u64, u64),
    xfer: (u64, u64),
) -> Vec<(&'static str, &'static str, f64)> {
    let ticks = c.node_ticks;
    vec![
        ("core.machine.build_s", "s", h.build_s),
        (
            "core.machine.build_us_per_node",
            "us",
            h.build_s * 1e6 / h.nodes_built.max(1) as f64,
        ),
        ("core.app.load_s", "s", h.load_s),
        ("core.runloop.run_s", "s", h.run_s),
        ("core.runloop.node_ticks", "count", ticks as f64),
        (
            "core.runloop.skipped_tick_frac",
            "frac",
            frac(c.skipped_ticks, ticks + c.skipped_ticks),
        ),
        (
            "core.runloop.wake_republishes",
            "count",
            c.wake_republishes as f64,
        ),
        (
            "core.runloop.host_ns_per_tick",
            "ns",
            h.run_s * 1e9 / ticks.max(1) as f64,
        ),
        ("core.stats.snapshot_s", "s", h.snapshot_s),
        ("arctic.packets", "count", c.packets as f64),
        ("arctic.bytes", "bytes", c.bytes as f64),
        ("arctic.link_busy_ns", "sim_ns", c.link_busy_ns as f64),
        ("arctic.max_link_queue", "count", c.max_link_queue as f64),
        ("arctic.credit_stalls", "count", c.credit_stalls as f64),
        ("arctic.credit_stall_ns", "sim_ns", c.credit_stall_ns as f64),
        (
            "arctic.host_ns_per_packet",
            "ns",
            h.run_s * 1e9 / c.packets.max(1) as f64,
        ),
        ("niu.msgs_launched", "count", c.msgs_launched as f64),
        ("niu.msgs_delivered", "count", c.msgs_delivered as f64),
        (
            "niu.rq_hit_frac",
            "frac",
            frac(c.rq_hits, c.rq_hits + c.rq_misses),
        ),
        ("niu.msgs_diverted", "count", c.msgs_diverted as f64),
        ("niu.xlate_lookups", "count", c.xlate_lookups as f64),
        ("niu.violations", "count", c.violations as f64),
        ("niu.ibus_busy_cycles", "cycles", c.ibus_busy_cycles as f64),
        ("niu.abiu_retries", "count", c.abiu_retries as f64),
        ("niu.rx_full_stalls", "count", c.rx_full_stalls as f64),
        ("firmware.handled", "count", c.fw_handled as f64),
        ("firmware.busy_ns", "sim_ns", c.fw_busy_ns as f64),
        ("firmware.miss_msgs", "count", c.fw_miss_msgs as f64),
        ("firmware.rebinds", "count", c.fw_rebinds as f64),
        ("firmware.proto_errors", "count", c.fw_proto_errors as f64),
        ("membus.bus_tenures", "count", c.bus_tenures as f64),
        (
            "membus.bus_retry_frac",
            "frac",
            frac(c.bus_retries, c.bus_tenures),
        ),
        ("membus.data_cycles", "cycles", c.bus_data_cycles as f64),
        ("membus.l1_hit_frac", "frac", frac(c.l1_hits, c.mem_ops)),
        (
            "membus.l2_hit_frac",
            "frac",
            frac(c.l2_hits, c.mem_ops.saturating_sub(c.l1_hits)),
        ),
        ("membus.mem_stall_ns", "sim_ns", c.mem_stall_ns as f64),
        ("sim.ckpt.full_bytes", "bytes", ckpt.0 as f64),
        ("sim.ckpt.delta_bytes_mean", "bytes", ckpt.1 as f64),
        ("core.blockxfer.ap_busy_ns", "sim_ns", xfer.0 as f64),
        ("core.blockxfer.bytes_verified", "bytes", xfer.1 as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use voyager::api::{RecvBasic, SendBasic};
    use voyager::{Machine, Parallelism};

    fn two_node_stats(par: Parallelism) -> MachineStats {
        let mut m = Machine::builder(4).parallelism(par).build();
        m.load_program(0, SendBasic::to_node(&m.lib(0), 3, vec![1; 16]));
        m.load_program(3, RecvBasic::expecting(&m.lib(3), 1));
        assert!(m.run().is_quiesced());
        m.stats()
    }

    #[test]
    fn digest_ignores_run_loop_counters_but_not_the_model() {
        let a = two_node_stats(Parallelism::Sequential);
        let mut b = a.clone();
        b.run.node_ticks += 1;
        b.run.wake_republishes += 1;
        assert_eq!(model_digest(&a), model_digest(&b));
        let mut d = a.clone();
        d.network.delivered += 1;
        assert_ne!(model_digest(&a), model_digest(&d));
        assert_eq!(
            model_digest(&a),
            model_digest(&two_node_stats(Parallelism::Fixed(2)))
        );
    }

    #[test]
    fn counts_add_and_subtract_per_machine() {
        let c = Counts::of(&two_node_stats(Parallelism::Sequential));
        assert_eq!(c.packets, 1);
        assert!(c.node_ticks > 0 && c.mem_ops > 0);
        let twice = c.plus(c);
        assert_eq!(twice.packets, 2);
        assert_eq!(twice.max_link_queue, c.max_link_queue);
        assert_eq!(twice.since(c), c);
    }
}
