//! Firmware handler cost model.
//!
//! Costs are in 66 MHz bus cycles (15 ns) — the clock the node advances
//! everything on. The embedded 604 runs faster than the bus, but every
//! handler's work is dominated by uncached accesses to CTRL state and the
//! command queues, which run at bus speed; expressing handler costs in
//! bus cycles is therefore the honest unit. Defaults correspond to
//! handlers of a few dozen instructions plus a handful of uncached
//! accesses (hundreds of ns), consistent with contemporaneous firmware
//! NIs (FLASH's protocol processor, Typhoon). Ablation A4 sweeps a
//! scaling factor over everything.

/// Per-handler sP costs, in bus cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FwParams {
    /// Poll + dequeue + dispatch for any work item.
    pub dispatch_cycles: u64,
    /// Parse a DMA/block-transfer request and set up transfer state.
    pub xfer_setup_cycles: u64,
    /// Approach 2 sender: issue the read+send command pair for one chunk.
    pub dma_chunk_cycles: u64,
    /// Approach 2 receiver: issue the write+free command pair for one chunk.
    pub dma_recv_chunk_cycles: u64,
    /// Issue one block operation (approaches 3-5, one per page).
    pub block_issue_cycles: u64,
    /// Approach 4 receiver: per-page clsSRAM range update.
    pub a4_page_cycles: u64,
    /// Requester-side NUMA forwarding (either direction).
    pub numa_req_cycles: u64,
    /// Home-side NUMA service (read or write).
    pub numa_home_cycles: u64,
    /// Requester-side S-COMA miss handling.
    pub scoma_miss_cycles: u64,
    /// Home-side S-COMA directory operation.
    pub scoma_home_cycles: u64,
    /// Owner/sharer-side recall or invalidation handling.
    pub scoma_recall_cycles: u64,
    /// Deliver a completion notification.
    pub notify_cycles: u64,
    /// Service one miss-queue (overflow) message into software queues.
    pub miss_service_cycles: u64,
    /// Forward one captured reflective-memory store (firmware mode).
    pub reflect_fw_cycles: u64,
    /// Per-dirty-line cost of a tracked-region flush (read + send + clear).
    pub flush_line_cycles: u64,
    /// clsSRAM lines scanned per cycle during a flush sweep.
    pub flush_scan_lines_per_cycle: u64,
    /// Accept a local COLL_START: allocate/merge group state, fold the
    /// local contribution.
    pub coll_start_cycles: u64,
    /// Fold one received fan-in/fan-out message into group state.
    pub coll_combine_cycles: u64,
    /// Issue one COLL_UP/COLL_DOWN tree message.
    pub coll_send_cycles: u64,
    /// Deliver a COLL_RESULT to the local aP.
    pub coll_deliver_cycles: u64,
    /// Multiplier applied to every cost (ablation knob; 100 = 1.0x).
    pub scale_percent: u64,
}

impl Default for FwParams {
    fn default() -> Self {
        FwParams {
            dispatch_cycles: 10,
            xfer_setup_cycles: 60,
            dma_chunk_cycles: 45,
            dma_recv_chunk_cycles: 45,
            block_issue_cycles: 25,
            a4_page_cycles: 35,
            numa_req_cycles: 25,
            numa_home_cycles: 40,
            scoma_miss_cycles: 30,
            scoma_home_cycles: 50,
            scoma_recall_cycles: 45,
            notify_cycles: 20,
            miss_service_cycles: 60,
            reflect_fw_cycles: 20,
            flush_line_cycles: 12,
            flush_scan_lines_per_cycle: 4,
            coll_start_cycles: 15,
            coll_combine_cycles: 12,
            coll_send_cycles: 10,
            coll_deliver_cycles: 12,
            scale_percent: 100,
        }
    }
}

impl FwParams {
    /// Apply the ablation scale to a base cost.
    #[inline]
    pub fn cost(&self, base: u64) -> u64 {
        (base * self.scale_percent).div_ceil(100)
    }

    /// A copy with every handler cost scaled by `percent`/100.
    pub fn scaled(mut self, percent: u64) -> Self {
        self.scale_percent = percent;
        self
    }
}

sv_sim::checkpointed! {
    struct FwParams {
        dispatch_cycles,
        xfer_setup_cycles,
        dma_chunk_cycles,
        dma_recv_chunk_cycles,
        block_issue_cycles,
        a4_page_cycles,
        numa_req_cycles,
        numa_home_cycles,
        scoma_miss_cycles,
        scoma_home_cycles,
        scoma_recall_cycles,
        notify_cycles,
        miss_service_cycles,
        reflect_fw_cycles,
        flush_line_cycles,
        flush_scan_lines_per_cycle,
        coll_start_cycles,
        coll_combine_cycles,
        coll_send_cycles,
        coll_deliver_cycles,
        scale_percent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling() {
        let p = FwParams::default();
        assert_eq!(p.cost(40), 40);
        let fast = p.scaled(50);
        assert_eq!(fast.cost(40), 20);
        let slow = p.scaled(300);
        assert_eq!(slow.cost(40), 120);
        // Rounds up: a nonzero cost never becomes free.
        assert_eq!(p.scaled(1).cost(10), 1);
    }
}
