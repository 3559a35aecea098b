//! Command vocabulary of the NIU's ordered command queues.
//!
//! The sP (and, through extension FSMs, the BIUs) drives the NIU by
//! pushing [`LocalCmd`]s into one of CTRL's two **local command queues**.
//! Commands in one queue are issued and completed in order — the paper
//! calls this out as "very useful for shared-memory protocol processing" —
//! with the sole exception of [`LocalCmd::Block`] operations, which issue
//! in order but complete asynchronously in a dedicated functional unit.
//!
//! The **remote command queue** holds [`crate::msg::RemoteCmdKind`]s that
//! arrived from the network; its engine executes them FIFO, issuing aP
//! bus operations through the aBIU to land data in DRAM (and, with the
//! approach-5 extension, to update clsSRAM states) with no processor
//! involvement on the receiving side.

use crate::msg::{MsgHeader, RemoteCmdKind};
use crate::queues::QueueId;
use crate::sram::{ClsState, SramSel};
use bytes::Bytes;
use sv_arctic::Priority;

/// Re-exported for convenience: the remote-command payload.
pub use crate::msg::RemoteCmdKind as RemoteCommand;

/// A block operation executed by the NIU's hardware block units.
#[derive(Debug, Clone, PartialEq)]
// Variant fields are named self-descriptively; the variants themselves
// are documented above each one.
#[allow(missing_docs)]
pub enum BlockOp {
    /// Block-read unit: copy `[dram_addr, +len)` of local DRAM into aSRAM
    /// at `sram_addr`, via burst reads on the aP bus. Limited to one
    /// aligned page per operation, as in the hardware.
    Read {
        /// DRAM byte address.
        dram_addr: u64,
        /// SRAM byte address.
        sram_addr: u32,
        /// Length in bytes.
        len: u32,
    },
    /// Block-transmit unit: packetize `[sram_addr, +len)` of aSRAM into
    /// remote-write commands addressed to `[remote_addr, +len)` of node
    /// `node`'s DRAM.
    Tx {
        /// SRAM byte address.
        sram_addr: u32,
        /// Length in bytes.
        len: u32,
        /// Destination node.
        node: u16,
        /// Destination DRAM address at the remote node.
        remote_addr: u64,
        /// Approach-5 extension: ask the destination aBIU to set the
        /// covering clsSRAM lines to this state after each chunk lands.
        set_cls: Option<ClsState>,
        /// Optional completion notification delivered into the given
        /// logical receive queue at the destination *after* the data
        /// (same ordered remote-command stream).
        notify: Option<(u16, Bytes)>,
    },
    /// The chained form ("these two block operations can be chained"):
    /// stream DRAM → aSRAM → network, with the transmit side consuming
    /// lines as the read side lands them. This is transfer approach 3.
    ReadTx {
        /// DRAM byte address.
        dram_addr: u64,
        /// Length in bytes.
        len: u32,
        /// Staging base in aSRAM.
        sram_addr: u32,
        /// Destination node.
        node: u16,
        /// Destination DRAM address at the remote node.
        remote_addr: u64,
        /// Optional clsSRAM state to apply after the data lands.
        set_cls: Option<ClsState>,
        /// Optional completion notification (logical queue, payload).
        notify: Option<(u16, Bytes)>,
    },
}

impl BlockOp {
    /// Transfer length in bytes.
    pub fn len(&self) -> u32 {
        match self {
            BlockOp::Read { len, .. } | BlockOp::Tx { len, .. } | BlockOp::ReadTx { len, .. } => {
                *len
            }
        }
    }

    /// Whether the operation moves zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Commands accepted by the local command queues.
#[derive(Debug, Clone, PartialEq)]
// Variant fields are named self-descriptively; the variants themselves
// are documented above each one.
#[allow(missing_docs)]
pub enum LocalCmd {
    /// Write 8 bytes into an SRAM bank (through CTRL, over the IBus).
    WriteSramU64 { sram: SramSel, addr: u32, data: u64 },
    /// Copy between/within SRAM banks over the IBus.
    CopySram {
        /// Source node.
        src: (SramSel, u32),
        /// Destination.
        dst: (SramSel, u32),
        /// Length in bytes.
        len: u32,
    },
    /// aP bus read: DRAM → SRAM, issued line-by-line through the aBIU.
    BusRead {
        /// DRAM byte address.
        dram_addr: u64,
        /// Which SRAM bank.
        sram: SramSel,
        /// SRAM byte address.
        sram_addr: u32,
        /// Length in bytes.
        len: u32,
    },
    /// aP bus write: SRAM → DRAM.
    BusWrite {
        /// DRAM byte address.
        dram_addr: u64,
        /// Which SRAM bank.
        sram: SramSel,
        /// SRAM byte address.
        sram_addr: u32,
        /// Length in bytes.
        len: u32,
    },
    /// Transmit a message whose body sits in SRAM at `addr` (header per
    /// `header`). Firmware's equivalent of a software send; `raw_node`
    /// bypasses translation (privileged), otherwise `header.dest` is
    /// translated.
    SendMsg {
        /// Message header.
        header: MsgHeader,
        /// Which SRAM bank.
        sram: SramSel,
        /// Target byte address.
        addr: u32,
        /// Physical destination override (privileged; bypasses translation).
        raw_node: Option<(u16, u16, Priority)>,
    },
    /// Transmit a message carried inline (firmware-composed). Charged the
    /// same IBus/engine costs as [`LocalCmd::SendMsg`].
    SendDirect {
        /// Physical destination node (firmware traffic is privileged).
        node: u16,
        /// Logical receive queue at the destination.
        logical_q: u16,
        /// Network priority class.
        priority: Priority,
        /// Payload bytes.
        data: Bytes,
        /// Optional TagOn pickup: CTRL appends `[addr, +len)` from `sram`.
        tagon: Option<(SramSel, u32, u8)>,
    },
    /// Transmit a remote command to another node's remote command queue.
    SendRemoteCmd { node: u16, cmd: RemoteCmdKind },
    /// Transmit a remote *write* whose data is read from SRAM when the
    /// command executes — after any earlier bus reads in the same queue
    /// have landed their data (the in-order property firmware protocols
    /// build on). Becomes `WriteDram` or `WriteDramSetCls` on the wire.
    SendRemoteWrite {
        /// Destination node.
        node: u16,
        /// Destination DRAM address at the remote node.
        remote_addr: u64,
        /// Which SRAM bank.
        sram: SramSel,
        /// SRAM byte address.
        sram_addr: u32,
        /// Length in bytes.
        len: u32,
        /// Optional clsSRAM state to apply after the data lands.
        set_cls: Option<ClsState>,
    },
    /// Issue an address-only Flush on the aP bus (forces the aP caches to
    /// write back and invalidate a line — used by coherence recalls).
    BusFlush { addr: u64 },
    /// Hand an operation to a block unit (issues in order, completes
    /// asynchronously; the queue does not wait).
    Block(BlockOp),
    /// Set one clsSRAM line state.
    SetCls { line: u64, state: ClsState },
    /// Set a contiguous range of clsSRAM line states (block-operation
    /// support for transfer approaches 4/5).
    SetClsRange {
        /// First clsSRAM line.
        first: u64,
        /// Number of lines.
        count: u64,
        /// clsSRAM state to set.
        state: ClsState,
    },
    /// Update a transmit queue's producer pointer (launches messages).
    TxPtrUpdate { q: QueueId, producer: u16 },
    /// Update a receive queue's consumer pointer (frees buffer space).
    RxPtrUpdate { q: QueueId, consumer: u16 },
    /// Bind a logical receive queue into a hardware slot (receive-queue
    /// cache management, privileged).
    BindRxQueue { logical: u16, hw: QueueId },
    /// Enable or disable a transmit queue (recovery after a protection
    /// shutdown, scheduling).
    SetTxEnabled { q: QueueId, enabled: bool },
}

impl LocalCmd {
    /// Rough classification used for statistics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            LocalCmd::WriteSramU64 { .. } => "write_sram",
            LocalCmd::CopySram { .. } => "copy_sram",
            LocalCmd::BusRead { .. } => "bus_read",
            LocalCmd::BusWrite { .. } => "bus_write",
            LocalCmd::SendMsg { .. } => "send_msg",
            LocalCmd::SendDirect { .. } => "send_direct",
            LocalCmd::SendRemoteCmd { .. } => "send_remote_cmd",
            LocalCmd::SendRemoteWrite { .. } => "send_remote_write",
            LocalCmd::BusFlush { .. } => "bus_flush",
            LocalCmd::Block(_) => "block",
            LocalCmd::SetCls { .. } => "set_cls",
            LocalCmd::SetClsRange { .. } => "set_cls_range",
            LocalCmd::TxPtrUpdate { .. } => "tx_ptr",
            LocalCmd::RxPtrUpdate { .. } => "rx_ptr",
            LocalCmd::BindRxQueue { .. } => "bind_rxq",
            LocalCmd::SetTxEnabled { .. } => "set_tx_enabled",
        }
    }
}

sv_sim::checkpointed! {
    enum BlockOp {
        0 => Read { dram_addr, sram_addr, len },
        1 => Tx { sram_addr, len, node, remote_addr, set_cls, notify },
        2 => ReadTx { dram_addr, len, sram_addr, node, remote_addr, set_cls, notify },
    }
}

sv_sim::checkpointed! {
    enum LocalCmd {
        0 => WriteSramU64 { sram, addr, data },
        1 => CopySram { src, dst, len },
        2 => BusRead { dram_addr, sram, sram_addr, len },
        3 => BusWrite { dram_addr, sram, sram_addr, len },
        4 => SendMsg { header, sram, addr, raw_node },
        5 => SendDirect { node, logical_q, priority, data, tagon },
        6 => SendRemoteCmd { node, cmd },
        7 => SendRemoteWrite { node, remote_addr, sram, sram_addr, len, set_cls },
        8 => BusFlush { addr },
        9 => Block(op),
        10 => SetCls { line, state },
        11 => SetClsRange { first, count, state },
        12 => TxPtrUpdate { q, producer },
        13 => RxPtrUpdate { q, consumer },
        14 => BindRxQueue { logical, hw },
        15 => SetTxEnabled { q, enabled },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_len() {
        let b = BlockOp::Read {
            dram_addr: 0,
            sram_addr: 0,
            len: 4096,
        };
        assert_eq!(b.len(), 4096);
        assert!(!b.is_empty());
        let t = BlockOp::Tx {
            sram_addr: 0,
            len: 0,
            node: 1,
            remote_addr: 0,
            set_cls: None,
            notify: None,
        };
        assert!(t.is_empty());
    }

    #[test]
    fn kind_names_cover_commands() {
        let c = LocalCmd::SetCls {
            line: 0,
            state: ClsState::ReadWrite,
        };
        assert_eq!(c.kind_name(), "set_cls");
        let c = LocalCmd::SendRemoteCmd {
            node: 1,
            cmd: RemoteCmdKind::SetCls { line: 0, state: 2 },
        };
        assert_eq!(c.kind_name(), "send_remote_cmd");
    }
}
