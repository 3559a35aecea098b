//! Deterministic per-packet fault injection.
//!
//! Real Arctic is engineered to be reliable, but the platform's whole
//! point is *exploring* scalable-SMP issues — including how protocols
//! behave when the fabric misbehaves. [`FaultModel`] perturbs traffic at
//! configurable parts-per-million rates: packet **drop**, **duplication**,
//! payload **corruption** (modelled as a CRC-failed frame the receiving
//! NIU discards), and **reordering** within a priority class.
//!
//! ## Determinism
//!
//! All randomness is consumed in [`crate::Network::inject`], which runs
//! exactly once per packet in the same global order under every run mode
//! and worker-thread count (the windowed parallel loop commits injections
//! in sorted `(cycle, node)` order — see the `voyager` run loop).
//! `Network::advance` draws nothing, so the probe clones the parallel
//! loop races ahead never touch the stream. A fault-injected run is
//! therefore bit-identical across 1/2/N threads and across reruns with
//! the same [`FaultParams::seed`].

use crate::packet::Packet;
use sv_sim::rng::DetRng;

/// Scale of the fault-rate knobs: rates are parts per million, so the
/// model never touches floating point on the hot path.
pub const PPM: u32 = 1_000_000;

/// Fault-injection configuration. All rates are parts-per-million per
/// injected packet; the default is all-zero (a perfect network).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultParams {
    /// Probability (ppm) a packet vanishes at injection.
    pub drop_ppm: u32,
    /// Probability (ppm) a packet is delivered twice.
    pub dup_ppm: u32,
    /// Probability (ppm) a packet arrives with a corrupt payload (the
    /// receiver sees a CRC-failed frame and discards it).
    pub corrupt_ppm: u32,
    /// Probability (ppm) a packet jumps its priority queue at every hop,
    /// overtaking earlier same-priority traffic.
    pub reorder_ppm: u32,
    /// Seed of the model's private split-mix stream.
    pub seed: u64,
}

impl Default for FaultParams {
    fn default() -> Self {
        FaultParams {
            drop_ppm: 0,
            dup_ppm: 0,
            corrupt_ppm: 0,
            reorder_ppm: 0,
            seed: 0xFA17_0001,
        }
    }
}

impl FaultParams {
    /// A drop-only configuration (the most common experiment knob).
    pub fn drops(ppm: u32, seed: u64) -> Self {
        FaultParams {
            drop_ppm: ppm,
            seed,
            ..FaultParams::default()
        }
    }

    /// A hostile-but-survivable fabric: 4% drops, 2% duplicates, 1.5%
    /// corruption, 3% reorders. Well inside the default retransmit cap,
    /// and enough that a mid-run cut catches retransmit timers and
    /// sequence windows in flight.
    pub fn hostile(seed: u64) -> Self {
        FaultParams {
            drop_ppm: 40_000,
            dup_ppm: 20_000,
            corrupt_ppm: 15_000,
            reorder_ppm: 30_000,
            seed,
        }
    }

    /// Whether any fault rate is nonzero.
    pub fn enabled(&self) -> bool {
        self.drop_ppm | self.dup_ppm | self.corrupt_ppm | self.reorder_ppm != 0
    }
}

/// The fate the model assigns one injected packet. Faults compose: a
/// duplicated packet can also be corrupted, and both copies share the
/// corruption (it is the same mangled frame traversing the tree twice).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultVerdict {
    /// Discard the packet at injection.
    pub drop: bool,
    /// Deliver two copies.
    pub duplicate: bool,
    /// Mark the payload corrupt.
    pub corrupt: bool,
    /// Queue-jump within the priority class at each hop.
    pub reorder: bool,
}

/// Per-link fault injector owned by the [`crate::Network`]. Only
/// `inject` draws from it, so an `advance` — and hence a harvest —
/// never moves its RNG.
#[derive(Debug, Clone)]
pub struct FaultModel {
    params: FaultParams,
    rng: DetRng,
}

impl FaultModel {
    /// Build a model from its configuration.
    pub fn new(params: FaultParams) -> Self {
        FaultModel {
            params,
            rng: DetRng::new(params.seed),
        }
    }

    /// Decide the fate of the next injected packet. Always consumes
    /// exactly four draws so the stream position is a pure function of
    /// the injection count, independent of earlier verdicts.
    pub fn judge<P>(&mut self, _packet: &Packet<P>) -> FaultVerdict {
        let mut roll = |ppm: u32| self.rng.below(PPM as u64) < ppm as u64;
        FaultVerdict {
            drop: roll(self.params.drop_ppm),
            duplicate: roll(self.params.dup_ppm),
            corrupt: roll(self.params.corrupt_ppm),
            reorder: roll(self.params.reorder_ppm),
        }
    }
}

sv_sim::checkpointed! {
    struct FaultParams {
        drop_ppm,
        dup_ppm,
        corrupt_ppm,
        reorder_ppm,
        seed,
    }
}

// The live RNG state is saved, not the seed: a restored model resumes
// mid-stream exactly where the original left off.
sv_sim::checkpointed! {
    struct FaultModel {
        params,
        rng,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Priority;

    fn pkt() -> Packet<u32> {
        Packet::new(0, 1, Priority::Low, 8, 0)
    }

    #[test]
    fn zero_rates_never_fault() {
        let mut m = FaultModel::new(FaultParams::default());
        assert!(!FaultParams::default().enabled());
        for _ in 0..1000 {
            assert_eq!(m.judge(&pkt()), FaultVerdict::default());
        }
    }

    #[test]
    fn full_rates_always_fault() {
        let p = FaultParams {
            drop_ppm: PPM,
            dup_ppm: PPM,
            corrupt_ppm: PPM,
            reorder_ppm: PPM,
            seed: 7,
        };
        let mut m = FaultModel::new(p);
        let v = m.judge(&pkt());
        assert!(v.drop && v.duplicate && v.corrupt && v.reorder);
    }

    #[test]
    fn rates_are_approximately_honored() {
        let mut m = FaultModel::new(FaultParams::drops(100_000, 42)); // 10%
        let n = 100_000;
        let dropped = (0..n).filter(|_| m.judge(&pkt()).drop).count();
        let frac = dropped as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "drop fraction {frac}");
    }

    #[test]
    fn same_seed_same_verdict_stream() {
        let p = FaultParams {
            drop_ppm: 50_000,
            dup_ppm: 50_000,
            corrupt_ppm: 50_000,
            reorder_ppm: 50_000,
            seed: 99,
        };
        let run = || {
            let mut m = FaultModel::new(p);
            (0..200).map(|_| m.judge(&pkt())).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        assert!(p.enabled());
    }
}
