//! System-wide parameters.
//!
//! One struct gathers every knob of the machine. Defaults model the 1998
//! hardware: 166 MHz 604e application processors on a 66 MHz 64-bit
//! memory bus, 512 KB in-line L2, and the Arctic network at
//! 160 MB/s/direction. Benches sweep individual fields; the comparative
//! claims reproduced in `EXPERIMENTS.md` hold across the sweeps.

use sv_arctic::{FaultParams, LinkParams, QosParams, RoutingPolicy};
use sv_firmware::FwParams;
use sv_membus::{BusParams, CacheParams, DramParams};
use sv_niu::{AddressMap, NiuParams};

/// Application-processor timing (ns granularity; the aP runs at 166 MHz
/// but all its interactions with the world happen through the bus).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuParams {
    /// Fixed per-instruction-step overhead (address generation, loop
    /// control) charged after every VM step, ns.
    pub step_overhead_ns: u64,
    /// L1 data cache hit, ns.
    pub l1_hit_ns: u64,
    /// L2 hit (miss in L1), ns.
    pub l2_hit_ns: u64,
}

impl Default for CpuParams {
    fn default() -> Self {
        CpuParams {
            step_overhead_ns: 12,
            l1_hit_ns: 6,
            l2_hit_ns: 36,
        }
    }
}

/// Every parameter of the simulated machine.
#[derive(Debug, Clone, Copy)]
pub struct SystemParams {
    /// Memory-bus frequency, MHz (the global tick rate of each node).
    pub bus_mhz: u64,
    /// Application-processor timing.
    pub cpu: CpuParams,
    /// Memory-bus timing.
    pub bus: BusParams,
    /// L1 data-cache geometry.
    pub l1: CacheParams,
    /// In-line L2 cache geometry.
    pub l2: CacheParams,
    /// DRAM controller timing.
    pub dram: DramParams,
    /// NIU geometry and engine costs.
    pub niu: NiuParams,
    /// Firmware handler costs.
    pub fw: FwParams,
    /// Arctic link timing.
    pub link: LinkParams,
    /// Fat-tree routing policy.
    pub routing: RoutingPolicy,
    /// Network fault injection (all-zero rates by default: a perfect
    /// network). Usually set through
    /// [`crate::MachineBuilder::faults`], which also arms the NIU's
    /// reliable-delivery layer.
    pub faults: FaultParams,
    /// Physical address map.
    pub map: AddressMap,
    /// Experiment RNG seed (workload generators).
    pub seed: u64,
    /// Arctic virtual-channel / credit flow control. `None` (the
    /// default) runs the legacy two-priority model with unbounded link
    /// buffers, bit-identical to prior releases. Usually set through
    /// [`crate::MachineBuilder::network_qos`].
    pub qos: Option<QosParams>,
}

impl Default for SystemParams {
    fn default() -> Self {
        SystemParams {
            bus_mhz: 66,
            cpu: CpuParams::default(),
            bus: BusParams::default(),
            l1: CacheParams::l1_604e(),
            l2: CacheParams::l2_voyager(),
            dram: DramParams::default(),
            niu: NiuParams::default(),
            fw: FwParams::default(),
            link: LinkParams::default(),
            // Per-flow FIFO routing is the machine default; the ordered
            // remote-command stream relies on it (see sv-arctic docs).
            routing: RoutingPolicy::FlowHash,
            faults: FaultParams::default(),
            map: AddressMap::default(),
            seed: 0x5747_5679, // "StarT-Voyager"
            qos: None,
        }
    }
}

impl SystemParams {
    /// The bus clock.
    pub fn bus_clock(&self) -> sv_sim::Clock {
        sv_sim::Clock::from_mhz(self.bus_mhz)
    }
}

sv_sim::checkpointed! {
    struct CpuParams {
        step_overhead_ns,
        l1_hit_ns,
        l2_hit_ns,
    }
}

sv_sim::checkpointed! {
    struct SystemParams {
        bus_mhz,
        cpu,
        bus,
        l1,
        l2,
        dram,
        niu,
        fw,
        link,
        routing,
        faults,
        map,
        seed,
        qos,
    }
    // The clock divides by the frequency.
    validate: |p: &SystemParams| p.bus_mhz != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_coherent() {
        let p = SystemParams::default();
        assert_eq!(p.bus_mhz, 66);
        assert!(p.cpu.l1_hit_ns < p.cpu.l2_hit_ns);
        // 160 MB/s Arctic links.
        assert!((p.link.bandwidth_mb_s() - 160.0).abs() < 1.0);
        let clk = p.bus_clock();
        assert_eq!(clk.cycles(66), 1000);
    }
}
