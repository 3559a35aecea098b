//! CTRL ASIC state: queues, command queues, block units, the IBus.
//!
//! This module holds the *data* of the core NIU layer; the engine logic
//! that needs simultaneous access to CTRL, the SRAMs and the aBIU lives
//! in [`crate::niu`]. CTRL-local decision logic (transmit arbitration,
//! IBus accounting) is implemented here so it can be unit-tested in
//! isolation.

use crate::cmd::LocalCmd;
use crate::msg::RemoteCmdKind;
use crate::params::NiuParams;
use crate::queues::{QueueBuffer, QueueId, RxQueue, TxQueue};
use crate::sram::SramSel;
use crate::translate::{RxQueueCache, XlateTable};
use bytes::Bytes;
use std::collections::HashSet;
use std::collections::VecDeque;
use std::sync::OnceLock;
use sv_sim::stats::Counter;

/// The IBus: the NIU's single internal data path. Every transfer between
/// SRAM, CTRL, the TxU/RxU and the bus interfaces serializes here.
#[derive(Debug, Default)]
pub struct IBus {
    free_at: u64,
    /// Total busy cycles (utilization numerator).
    pub busy_cycles: u64,
    /// Number of transactions.
    pub transactions: Counter,
}

impl IBus {
    /// Acquire the IBus at `cycle` for `cycles` cycles; returns the cycle
    /// at which the transfer finishes.
    pub fn acquire(&mut self, cycle: u64, cycles: u64) -> u64 {
        let start = self.free_at.max(cycle);
        self.free_at = start + cycles;
        self.busy_cycles += cycles;
        self.transactions.bump();
        self.free_at
    }

    /// First cycle at which the IBus is free.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }
}

/// Block-read unit state: streams DRAM lines into aSRAM via aP-bus burst
/// reads.
#[derive(Debug)]
pub struct BlockReadState {
    /// DRAM-side address of the stream.
    pub dram: u64,
    /// SRAM byte address.
    pub sram_addr: u32,
    /// Total transfer size in bytes.
    pub total: u32,
    /// Bytes whose bus reads have been issued.
    pub issued: u32,
    /// Bytes landed in aSRAM (bus completes in order).
    pub completed: u32,
    /// Whether a chained block-transmit consumes this stream.
    pub chained: bool,
}

/// Block-transmit unit state: packetizes aSRAM into remote-write commands.
#[derive(Debug)]
pub struct BlockTxState {
    /// SRAM byte address.
    pub sram_addr: u32,
    /// Total transfer size in bytes.
    pub total: u32,
    /// Bytes sent so far.
    pub sent: u32,
    /// Destination node.
    pub node: u16,
    /// Destination DRAM address at the remote node.
    pub remote_addr: u64,
    /// Optional clsSRAM state to apply after the data lands.
    pub set_cls: Option<crate::sram::ClsState>,
    /// Optional completion notification (logical queue, payload).
    pub notify: Option<(u16, Bytes)>,
    /// Bytes available in aSRAM (== `total` for an unchained transmit;
    /// advanced by block-read completions when chained).
    pub watermark: u32,
}

/// Per-command-queue in-order gate: ids of aBIU operations the current
/// command must see completed before the next command may start.
#[derive(Debug, Default)]
pub struct CmdWait {
    /// Outstanding bus-operation ids.
    pub ids: HashSet<u64>,
}

/// CTRL statistics.
#[derive(Debug, Default)]
pub struct CtrlStats {
    /// Msgs launched.
    pub msgs_launched: Counter,
    /// Msgs delivered.
    pub msgs_delivered: Counter,
    /// Msgs diverted.
    pub msgs_diverted: Counter,
    /// Msgs dropped.
    pub msgs_dropped: Counter,
    /// Remote cmds.
    pub remote_cmds: Counter,
    /// Cmds executed.
    pub cmds_executed: Counter,
    /// Protection violations observed.
    pub violations: Counter,
    /// Tagon bytes.
    pub tagon_bytes: u64,
    /// Transmit arbitrations won over a lower-priority pending queue
    /// (ties broken round-robin are not "wins").
    pub tx_priority_wins: Counter,
    /// Block-transmit data chunks packetized (DMA chain steps).
    pub dma_chain_steps: Counter,
}

/// The CTRL ASIC.
#[derive(Debug)]
pub struct Ctrl {
    /// Transmit queues.
    pub tx: Vec<TxQueue>,
    /// Receive queues.
    pub rx: Vec<RxQueue>,
    /// Destination translation table.
    pub xlate: XlateTable,
    /// Rx cache.
    pub rx_cache: RxQueueCache,
    /// The NIU-internal IBus.
    pub ibus: IBus,

    /// Two ordered local command queues.
    pub cmdq: [VecDeque<LocalCmd>; 2],
    /// Cmd busy.
    pub cmd_busy: [u64; 2],
    /// Cmd wait.
    pub cmd_wait: [CmdWait; 2],

    /// Remote command queue: `(source node, command)`.
    pub remote_q: VecDeque<(u16, RemoteCmdKind)>,
    /// Remote busy.
    pub remote_busy: u64,
    /// Remote writes in flight on the aP bus (Notify commands wait for
    /// zero — the completion scoreboard).
    pub remote_writes_outstanding: usize,

    /// Tx busy.
    pub tx_busy: u64,
    /// Rx busy.
    pub rx_busy: u64,
    /// Blocktx busy.
    pub blocktx_busy: u64,

    /// Block read.
    pub block_read: Option<BlockReadState>,
    /// Block tx.
    pub block_tx: Option<BlockTxState>,

    /// Round-robin pointer for transmit arbitration ties.
    rr_next: usize,
    /// Running statistics.
    pub stats: CtrlStats,
}

impl Ctrl {
    /// CTRL with `params.tx_queues`/`params.rx_queues` unconfigured queues.
    ///
    /// Default buffer carving of the 128 KiB aSRAM: tx queue `i` occupies
    /// `[i * 4096, +4096)` (32 entries of 96 B), rx queue `i` occupies
    /// `[64 KiB + i * 2048, +2048)` (16 entries), leaving
    /// `[96 KiB, 128 KiB)` for firmware staging and pointer shadows.
    /// Higher layers re-point buffers as they wish (sP-serviced queues
    /// live in sSRAM).
    pub fn new(params: &NiuParams) -> Self {
        let tx = (0..params.tx_queues)
            .map(|i| {
                TxQueue::new(QueueBuffer {
                    sram: SramSel::A,
                    base: (i * 4096) as u32,
                    entries: 32,
                    entry_bytes: 96,
                })
            })
            .collect();
        let rx = (0..params.rx_queues)
            .map(|i| {
                RxQueue::new(QueueBuffer {
                    sram: SramSel::A,
                    base: (64 * 1024 + i * 2048) as u32,
                    entries: 16,
                    entry_bytes: 96,
                })
            })
            .collect();
        Ctrl {
            tx,
            rx,
            xlate: fresh_xlate(),
            rx_cache: RxQueueCache::new(params.logical_rx_queues, params.rx_queues),
            ibus: IBus::default(),
            cmdq: [VecDeque::new(), VecDeque::new()],
            cmd_busy: [0; 2],
            cmd_wait: [CmdWait::default(), CmdWait::default()],
            remote_q: VecDeque::new(),
            remote_busy: 0,
            remote_writes_outstanding: 0,
            tx_busy: 0,
            rx_busy: 0,
            blocktx_busy: 0,
            block_read: None,
            block_tx: None,
            rr_next: 0,
            stats: CtrlStats::default(),
        }
    }

    /// Transmit arbitration: among enabled queues with pending messages,
    /// pick the highest priority; break ties round-robin. Returns the
    /// queue index and advances the round-robin pointer.
    pub fn pick_tx_queue(&mut self) -> Option<usize> {
        let n = self.tx.len();
        // One pass finds the best priority and whether any lower-priority
        // queue is being passed over (a contested arbitration).
        let mut best_prio = 0u8;
        let mut candidates = 0usize;
        let mut at_best = 0usize;
        for q in &self.tx {
            if q.enabled && q.pending() > 0 {
                candidates += 1;
                if at_best == 0 || q.priority > best_prio {
                    best_prio = q.priority;
                    at_best = 1;
                } else if q.priority == best_prio {
                    at_best += 1;
                }
            }
        }
        if candidates == 0 {
            return None;
        }
        for k in 0..n {
            let i = (self.rr_next + k) % n;
            let q = &self.tx[i];
            if q.enabled && q.pending() > 0 && q.priority == best_prio {
                self.rr_next = (i + 1) % n;
                if candidates > at_best {
                    self.stats.tx_priority_wins.bump();
                }
                return Some(i);
            }
        }
        None
    }

    /// Whether local command queue `qi` is fully drained (no queued
    /// commands and no in-order completions outstanding). Firmware uses
    /// this as a fence before ordering-sensitive actions.
    pub fn cmd_quiescent(&self, qi: usize) -> bool {
        self.cmdq[qi].is_empty() && self.cmd_wait[qi].ids.is_empty()
    }

    /// Whether any engine has queued work (used by the machine to decide
    /// quiescence; engine busy-untils do not matter once queues drain).
    pub fn has_work(&self) -> bool {
        self.tx.iter().any(|q| q.enabled && q.pending() > 0)
            || !self.cmdq[0].is_empty()
            || !self.cmdq[1].is_empty()
            || !self.cmd_wait[0].ids.is_empty()
            || !self.cmd_wait[1].ids.is_empty()
            || !self.remote_q.is_empty()
            || self.remote_writes_outstanding > 0
            || self.block_read.is_some()
            || self.block_tx.is_some()
    }

    /// Convenience accessor used by tests and the sP port.
    pub fn rx_queue(&self, q: QueueId) -> &RxQueue {
        &self.rx[q.0 as usize]
    }

    /// Mutable accessor.
    pub fn rx_queue_mut(&mut self, q: QueueId) -> &mut RxQueue {
        &mut self.rx[q.0 as usize]
    }
}

sv_sim::checkpointed! {
    struct IBus {
        free_at,
        busy_cycles,
        transactions,
    }
}

sv_sim::checkpointed! {
    struct BlockReadState {
        dram,
        sram_addr,
        total,
        issued,
        completed,
        chained,
    }
}

sv_sim::checkpointed! {
    struct BlockTxState {
        sram_addr,
        total,
        sent,
        node,
        remote_addr,
        set_cls,
        notify,
        watermark,
    }
}

/// A fresh CTRL's translation table: 1024 invalid entries, one
/// copy-on-write array shared by every CTRL in the process, so building
/// a node allocates no table of its own.
fn fresh_xlate() -> XlateTable {
    static FRESH: OnceLock<XlateTable> = OnceLock::new();
    FRESH.get_or_init(|| XlateTable::new(1024)).clone()
}

sv_sim::checkpointed! {
    struct CmdWait {
        ids,
    }
}

sv_sim::checkpointed! {
    struct CtrlStats {
        msgs_launched,
        msgs_delivered,
        msgs_diverted,
        msgs_dropped,
        remote_cmds,
        cmds_executed,
        violations,
        tagon_bytes,
        tx_priority_wins,
        dma_chain_steps,
    }
}

// Nested in the NIU's delta record only so that the translation
// table's entries can leave its head for the tail (see `XlateTable`).
sv_sim::checkpointed! {
    pub(crate) struct Ctrl {
        tx,
        rx,
        xlate: nested,
        rx_cache,
        ibus,
        cmdq,
        cmd_busy,
        cmd_wait,
        remote_q,
        remote_busy,
        remote_writes_outstanding,
        tx_busy,
        rx_busy,
        blocktx_busy,
        block_read,
        block_tx,
        rr_next,
        stats,
    }
    delta {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ibus_serializes() {
        let mut ib = IBus::default();
        assert_eq!(ib.acquire(10, 5), 15);
        // Second transfer at the same instant queues behind the first.
        assert_eq!(ib.acquire(10, 3), 18);
        // Later transfer after it frees starts immediately.
        assert_eq!(ib.acquire(30, 2), 32);
        assert_eq!(ib.busy_cycles, 10);
        assert_eq!(ib.transactions.get(), 3);
        assert_eq!(ib.free_at(), 32);
    }

    #[test]
    fn arbitration_priority_then_round_robin() {
        let p = NiuParams::default();
        let mut c = Ctrl::new(&p);
        c.tx[2].producer = 1;
        c.tx[5].producer = 1;
        c.tx[9].producer = 1;
        c.tx[5].priority = 3;
        assert_eq!(c.pick_tx_queue(), Some(5), "highest priority wins");
        assert_eq!(c.stats.tx_priority_wins.get(), 1, "contested pick");
        c.tx[5].consumer = 1; // drain it
                              // 2 and 9 tie at priority 0: round robin from after last pick (6).
        assert_eq!(c.pick_tx_queue(), Some(9));
        assert_eq!(c.stats.tx_priority_wins.get(), 1, "ties are not wins");
        c.tx[2].producer = 2; // still pending
        c.tx[9].producer = 2;
        assert_eq!(c.pick_tx_queue(), Some(2), "rr pointer wrapped past 9");
    }

    #[test]
    fn disabled_queues_never_arbitrate() {
        let p = NiuParams::default();
        let mut c = Ctrl::new(&p);
        c.tx[0].producer = 1;
        c.tx[0].enabled = false;
        assert_eq!(c.pick_tx_queue(), None);
    }

    #[test]
    fn has_work_tracks_queues() {
        let p = NiuParams::default();
        let mut c = Ctrl::new(&p);
        assert!(!c.has_work());
        c.cmdq[1].push_back(LocalCmd::SetTxEnabled {
            q: QueueId(0),
            enabled: true,
        });
        assert!(c.has_work());
        c.cmdq[1].clear();
        c.remote_writes_outstanding = 1;
        assert!(c.has_work());
    }
}
