//! NIU timing and geometry parameters.
//!
//! All costs are in 66 MHz bus cycles (the clock CTRL and the BIUs run
//! at). Defaults are calibrated to be plausible for the 1998 parts —
//! an ASIC flanked by large FPGAs — and are swept by the ablation
//! benches; the paper's conclusions must (and do) survive the sweeps.

/// Geometry and per-operation costs of the NIU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NiuParams {
    // ---- geometry ----
    /// Hardware transmit queues in CTRL.
    pub tx_queues: usize,
    /// Hardware receive queues in CTRL.
    pub rx_queues: usize,
    /// Size of the logical receive-queue namespace (translated, cached
    /// into the hardware queues).
    pub logical_rx_queues: usize,
    /// Hardware rx queue reserved as the miss/overflow queue serviced by
    /// firmware.
    pub miss_queue_slot: usize,
    /// aSRAM bytes (dual-ported).
    pub asram_bytes: u32,
    /// sSRAM bytes (dual-ported).
    pub ssram_bytes: u32,
    /// Cache lines covered by clsSRAM (S-COMA region size / 32).
    pub cls_lines: u64,

    // ---- IBus ----
    /// Bytes the IBus moves per cycle.
    pub ibus_bytes_per_cycle: u64,
    /// Fixed cycles added to every IBus transaction (arbitration).
    pub ibus_overhead_cycles: u64,

    // ---- engines ----
    /// Per-message cost of the transmit engine before the IBus read
    /// (descriptor fetch, translation, protection check).
    pub tx_engine_overhead_cycles: u64,
    /// Per-message cost of the receive engine before the IBus write
    /// (receive translation, queue-cache lookup).
    pub rx_engine_overhead_cycles: u64,
    /// Decode+issue cost per local command-queue command.
    pub cmd_decode_cycles: u64,
    /// Per-command overhead of the remote-command engine.
    pub remote_cmd_overhead_cycles: u64,
    /// Per-line issue overhead of the block-read unit.
    pub block_read_line_overhead_cycles: u64,
    /// Per-packet overhead of the block-transmit unit.
    pub block_tx_pkt_overhead_cycles: u64,
    /// Data bytes carried per block-transmit packet (the rest of the
    /// 88-byte payload budget holds the remote write command).
    pub block_tx_chunk_bytes: u32,
    /// aBIU cost to compose an Express message entry.
    pub express_compose_cycles: u64,
    /// Latency for the aBIU to service an aP access from SRAM (supply
    /// latency on the claimed bus operation).
    pub sram_service_cycles: u64,
    /// Maximum outstanding aBIU bus-master operations.
    pub max_abiu_outstanding: usize,
    /// Cycles the rx engine stalls before re-trying a full receive queue
    /// under [`crate::queues::RxFullPolicy::Retry`].
    pub rx_full_retry_cycles: u64,
    /// Retries the rx engine makes against a persistently-full receive
    /// queue before giving up and counting the message dropped. Bounds
    /// the [`crate::queues::RxFullPolicy::Retry`] livelock: a receiver
    /// that never drains quiesces instead of hanging the run.
    pub rx_full_retry_cap: u32,

    // ---- reliable delivery ----
    /// Enable the link-level go-back-N reliable-delivery layer: every
    /// non-control packet carries a per-`(destination, priority)` sequence
    /// number, receivers ack cumulatively, and senders retransmit on
    /// timeout. Off by default — a perfect network needs none of it and
    /// the timing is then bit-identical to builds without the layer.
    pub reliable: bool,
    /// Cycles without ack progress before a sender retransmits its
    /// unacked window.
    pub ack_timeout_cycles: u64,
    /// Cap on the exponential-backoff shift: retry `n` waits
    /// `ack_timeout_cycles << min(n, cap)`.
    pub retransmit_backoff_shift_cap: u32,
    /// Consecutive timeouts tolerated before the sender abandons the
    /// unacked window, counting each packet dropped instead of
    /// retransmitting forever.
    pub retransmit_cap: u32,
}

impl Default for NiuParams {
    fn default() -> Self {
        NiuParams {
            tx_queues: 16,
            rx_queues: 16,
            logical_rx_queues: 256,
            miss_queue_slot: 15,
            asram_bytes: 128 * 1024,
            ssram_bytes: 128 * 1024,
            cls_lines: (256 * 1024 * 1024) / 32,
            ibus_bytes_per_cycle: 8,
            ibus_overhead_cycles: 1,
            tx_engine_overhead_cycles: 4,
            rx_engine_overhead_cycles: 4,
            cmd_decode_cycles: 2,
            remote_cmd_overhead_cycles: 3,
            block_read_line_overhead_cycles: 1,
            block_tx_pkt_overhead_cycles: 2,
            block_tx_chunk_bytes: 64,
            express_compose_cycles: 2,
            sram_service_cycles: 2,
            max_abiu_outstanding: 4,
            rx_full_retry_cycles: 16,
            rx_full_retry_cap: 4096,
            reliable: false,
            ack_timeout_cycles: 4096,
            retransmit_backoff_shift_cap: 6,
            retransmit_cap: 16,
        }
    }
}

impl NiuParams {
    /// IBus cycles to move `bytes` (including arbitration overhead).
    #[inline]
    pub fn ibus_cycles(&self, bytes: u32) -> u64 {
        self.ibus_overhead_cycles + (bytes as u64).div_ceil(self.ibus_bytes_per_cycle)
    }
}

sv_sim::checkpointed! {
    struct NiuParams {
        tx_queues,
        rx_queues,
        logical_rx_queues,
        miss_queue_slot,
        asram_bytes,
        ssram_bytes,
        cls_lines,
        ibus_bytes_per_cycle,
        ibus_overhead_cycles,
        tx_engine_overhead_cycles,
        rx_engine_overhead_cycles,
        cmd_decode_cycles,
        remote_cmd_overhead_cycles,
        block_read_line_overhead_cycles,
        block_tx_pkt_overhead_cycles,
        block_tx_chunk_bytes,
        express_compose_cycles,
        sram_service_cycles,
        max_abiu_outstanding,
        rx_full_retry_cycles,
        rx_full_retry_cap,
        reliable,
        ack_timeout_cycles,
        retransmit_backoff_shift_cap,
        retransmit_cap,
    }
    // `ibus_cycles` divides by the IBus width, and the firmware indexes
    // `ctrl.rx` by the miss slot on every wake check.
    validate: |p: &NiuParams| p.ibus_bytes_per_cycle != 0 && p.miss_queue_slot < p.rx_queues
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let p = NiuParams::default();
        assert!(p.miss_queue_slot < p.rx_queues);
        assert!(p.logical_rx_queues >= p.rx_queues);
        assert!(p.block_tx_chunk_bytes <= 80, "chunk + command must fit 88B");
    }

    #[test]
    fn ibus_cost() {
        let p = NiuParams::default();
        assert_eq!(p.ibus_cycles(8), 2); // 1 overhead + 1 beat
        assert_eq!(p.ibus_cycles(96), 13); // 1 + 12 beats
        assert_eq!(p.ibus_cycles(1), 2);
    }
}
