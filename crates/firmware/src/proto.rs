//! Firmware protocol message formats.
//!
//! Firmware-to-firmware traffic travels as ordinary messages into each
//! node's sP service queue; the first payload byte is an opcode. All
//! formats are genuinely encoded to bytes (they ride through SRAM slots),
//! with round-trip tests below.

use bytes::{BufMut, Bytes, BytesMut};

/// Opcode byte values.
pub mod op {
    /// X f e r  r e q.
    pub const XFER_REQ: u8 = 0x01;
    /// X f e r  d a t a.
    pub const XFER_DATA: u8 = 0x02;
    /// X f e r  s e t u p.
    pub const XFER_SETUP: u8 = 0x03;
    /// X f e r  p a g e.
    pub const XFER_PAGE: u8 = 0x04;
    /// X f e r  g o.
    pub const XFER_GO: u8 = 0x05;
    /// X f e r  f l u s h.
    pub const XFER_FLUSH: u8 = 0x06;
    /// N u m a  r e a d.
    pub const NUMA_READ: u8 = 0x10;
    /// N u m a  d a t a.
    pub const NUMA_DATA: u8 = 0x11;
    /// N u m a  w r i t e.
    pub const NUMA_WRITE: u8 = 0x12;
    /// S c o m a  r e a d.
    pub const SCOMA_READ: u8 = 0x20;
    /// S c o m a  w r i t e.
    pub const SCOMA_WRITE: u8 = 0x21;
    /// S c o m a  r e c a l l.
    pub const SCOMA_RECALL: u8 = 0x22;
    /// S c o m a  w b.
    pub const SCOMA_WB: u8 = 0x23;
    /// S c o m a  i n v.
    pub const SCOMA_INV: u8 = 0x24;
    /// S c o m a  i n v  a c k.
    pub const SCOMA_INV_ACK: u8 = 0x25;
    /// N o t i f y.
    pub const NOTIFY: u8 = 0x30;
    /// C o l l  s t a r t (aP → local sP: join a collective).
    pub const COLL_START: u8 = 0x40;
    /// C o l l  u p (child sP → parent sP: fan-in contribution).
    pub const COLL_UP: u8 = 0x41;
    /// C o l l  d o w n (parent sP → child sP: fan-out result).
    pub const COLL_DOWN: u8 = 0x42;
    /// C o l l  r e s u l t (sP → local aP: completion + value).
    pub const COLL_RESULT: u8 = 0x43;
}

/// Which collective a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// All nodes rendezvous; the result is always 0.
    Barrier = 0,
    /// The root's value is distributed to every node.
    Bcast = 1,
    /// Contributions reduce to the root; only the root sees the value.
    Reduce = 2,
    /// Contributions reduce, then the result fans back out to everyone.
    AllReduce = 3,
}

impl CollKind {
    /// Decode from the wire byte.
    pub fn from_u8(v: u8) -> Option<CollKind> {
        Some(match v {
            0 => CollKind::Barrier,
            1 => CollKind::Bcast,
            2 => CollKind::Reduce,
            3 => CollKind::AllReduce,
            _ => return None,
        })
    }
}

/// Reduction operator carried by collective messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollOp {
    /// Wrapping addition.
    Sum = 0,
    /// Minimum.
    Min = 1,
    /// Maximum.
    Max = 2,
}

impl CollOp {
    /// Decode from the wire byte.
    pub fn from_u8(v: u8) -> Option<CollOp> {
        Some(match v {
            0 => CollOp::Sum,
            1 => CollOp::Min,
            2 => CollOp::Max,
            _ => return None,
        })
    }

    /// Fold one contribution into an accumulator.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            CollOp::Sum => a.wrapping_add(b),
            CollOp::Min => a.min(b),
            CollOp::Max => a.max(b),
        }
    }

    /// The fold's identity element (fresh accumulators start here).
    pub fn identity(self) -> u64 {
        match self {
            CollOp::Sum => 0,
            CollOp::Min => u64::MAX,
            CollOp::Max => 0,
        }
    }
}

/// An aP's request to join a collective (opcode COLL_START), sent as one
/// Basic message into the node's own service queue. The firmware assigns
/// the sequence number: every node issues its collectives in the same
/// order, so per-node counters agree machine-wide without the aP ever
/// naming one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollStart {
    /// Which collective.
    pub kind: CollKind,
    /// Reduction operator (ignored by Bcast).
    pub op: CollOp,
    /// Root node (0 for Barrier/AllReduce).
    pub root: u16,
    /// Logical queue that receives the COLL_RESULT message.
    pub notify_lq: u16,
    /// This node's contribution (the payload at the Bcast root).
    pub value: u64,
}

impl CollStart {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(op::COLL_START);
        b.put_u8(self.kind as u8);
        b.put_u8(self.op as u8);
        b.put_u8(0);
        b.put_u16_le(self.root);
        b.put_u16_le(self.notify_lq);
        b.put_u64_le(self.value);
        b.freeze()
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Option<CollStart> {
        if b.len() < 16 || b[0] != op::COLL_START {
            return None;
        }
        Some(CollStart {
            kind: CollKind::from_u8(b[1])?,
            op: CollOp::from_u8(b[2])?,
            root: u16::from_le_bytes([b[4], b[5]]),
            notify_lq: u16::from_le_bytes([b[6], b[7]]),
            value: u64::from_le_bytes(b[8..16].try_into().ok()?),
        })
    }
}

/// One sP-to-sP tree message (opcodes COLL_UP and COLL_DOWN).
///
/// Deliberately minimal — 14 payload bytes — because at scale the
/// collective's critical path is a chain of store-and-forward fat-tree
/// hops whose cost is dominated by wire serialization. Kind and
/// operator ride packed in one byte so a fast child's contribution can
/// still create (and fold into) group state at a parent whose own aP
/// has not started yet; the tree *geometry* (the root) is not carried,
/// since a node acts on a collective only after its local COLL_START
/// supplies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollMsg {
    /// COLL_UP or COLL_DOWN.
    pub opcode: u8,
    /// Which collective.
    pub kind: CollKind,
    /// Reduction operator.
    pub op: CollOp,
    /// Per-node collective sequence number.
    pub seq: u32,
    /// Partial reduction (UP) or final result (DOWN).
    pub value: u64,
}

impl CollMsg {
    /// Encode to payload bytes: opcode, packed kind/op, seq, value.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(14);
        b.put_u8(self.opcode);
        b.put_u8((self.kind as u8) | ((self.op as u8) << 4));
        b.put_u32_le(self.seq);
        b.put_u64_le(self.value);
        b.freeze()
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Option<CollMsg> {
        if b.len() < 14 || (b[0] != op::COLL_UP && b[0] != op::COLL_DOWN) {
            return None;
        }
        Some(CollMsg {
            opcode: b[0],
            kind: CollKind::from_u8(b[1] & 0x0f)?,
            op: CollOp::from_u8(b[1] >> 4)?,
            seq: u32::from_le_bytes(b[2..6].try_into().ok()?),
            value: u64::from_le_bytes(b[6..14].try_into().ok()?),
        })
    }
}

/// Completion message to the requesting aP's receive queue (opcode
/// COLL_RESULT): the collective's sequence number and final value.
pub fn encode_coll_result(kind: CollKind, seq: u32, value: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(16);
    b.put_u8(op::COLL_RESULT);
    b.put_u8(kind as u8);
    b.put_u16_le(0);
    b.put_u32_le(seq);
    b.put_u64_le(value);
    b.freeze()
}

/// Decode a collective completion; returns `(kind, seq, value)`.
pub fn decode_coll_result(b: &[u8]) -> Option<(CollKind, u32, u64)> {
    if b.len() < 16 || b[0] != op::COLL_RESULT {
        return None;
    }
    Some((
        CollKind::from_u8(b[1])?,
        u32::from_le_bytes(b[4..8].try_into().ok()?),
        u64::from_le_bytes(b[8..16].try_into().ok()?),
    ))
}

/// Which block-transfer implementation a request asks for (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// aPs move everything (never reaches firmware; listed for clarity).
    ApDirect = 1,
    /// sPs move the data with command-queue ops + TagOn messages.
    SpManaged = 2,
    /// Hardware block units.
    BlockHw = 3,
    /// Block units + optimistic early notification, sP-managed clsSRAM.
    OptimisticSp = 4,
    /// Block units + early notification, aBIU-managed clsSRAM.
    OptimisticHw = 5,
}

impl Approach {
    /// Decode from the wire byte.
    pub fn from_u8(v: u8) -> Option<Approach> {
        Some(match v {
            1 => Approach::ApDirect,
            2 => Approach::SpManaged,
            3 => Approach::BlockHw,
            4 => Approach::OptimisticSp,
            5 => Approach::OptimisticHw,
            _ => return None,
        })
    }
}

/// A block-transfer request from the local aP (opcode XFER_REQ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XferReq {
    /// Transfer approach (1-5).
    pub approach: Approach,
    /// Transfer identifier.
    pub xfer_id: u16,
    /// Source byte address.
    pub src_addr: u64,
    /// Destination byte address.
    pub dst_addr: u64,
    /// Length in bytes.
    pub len: u32,
    /// Destination node.
    pub dst_node: u16,
    /// Logical receive queue of the receiving job, for the completion
    /// notification.
    pub notify_lq: u16,
}

impl XferReq {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(28);
        b.put_u8(op::XFER_REQ);
        b.put_u8(self.approach as u8);
        b.put_u16_le(self.xfer_id);
        b.put_u64_le(self.src_addr);
        b.put_u64_le(self.dst_addr);
        b.put_u32_le(self.len);
        b.put_u16_le(self.dst_node);
        b.put_u16_le(self.notify_lq);
        b.freeze()
    }

    /// Decode from payload bytes (assumes opcode already checked).
    pub fn decode(b: &[u8]) -> Option<XferReq> {
        if b.len() < 28 || b[0] != op::XFER_REQ {
            return None;
        }
        Some(XferReq {
            approach: Approach::from_u8(b[1])?,
            xfer_id: u16::from_le_bytes([b[2], b[3]]),
            src_addr: u64::from_le_bytes(b[4..12].try_into().ok()?),
            dst_addr: u64::from_le_bytes(b[12..20].try_into().ok()?),
            len: u32::from_le_bytes(b[20..24].try_into().ok()?),
            dst_node: u16::from_le_bytes([b[24], b[25]]),
            notify_lq: u16::from_le_bytes([b[26], b[27]]),
        })
    }
}

/// Approach-2 data chunk header (opcode XFER_DATA); the chunk data rides
/// as TagOn bytes after this fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XferData {
    /// Transfer identifier.
    pub xfer_id: u16,
    /// Destination byte address.
    pub dst_addr: u64,
    /// Total transfer size, so the receiver can detect completion without
    /// relying on chunk ordering.
    pub total: u32,
    /// Logical queue that receives the completion notification.
    pub notify_lq: u16,
}

/// Encoded size of [`XferData`].
pub const XFER_DATA_LEN: usize = 18;

impl XferData {
    /// Encode (header only; TagOn data follows on the wire).
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(XFER_DATA_LEN);
        b.put_u8(op::XFER_DATA);
        b.put_u8(0);
        b.put_u16_le(self.xfer_id);
        b.put_u64_le(self.dst_addr);
        b.put_u32_le(self.total);
        b.put_u16_le(self.notify_lq);
        b.freeze()
    }

    /// Decode the header; chunk data is `b[XFER_DATA_LEN..]`.
    pub fn decode(b: &[u8]) -> Option<XferData> {
        if b.len() < XFER_DATA_LEN || b[0] != op::XFER_DATA {
            return None;
        }
        Some(XferData {
            xfer_id: u16::from_le_bytes([b[2], b[3]]),
            dst_addr: u64::from_le_bytes(b[4..12].try_into().ok()?),
            total: u32::from_le_bytes(b[12..16].try_into().ok()?),
            notify_lq: u16::from_le_bytes([b[16], b[17]]),
        })
    }
}

/// Approach-4/5 receiver setup (opcode XFER_SETUP): prepare clsSRAM for
/// optimistic completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XferSetup {
    /// Transfer identifier.
    pub xfer_id: u16,
    /// Destination byte address.
    pub dst_addr: u64,
    /// Length in bytes.
    pub len: u32,
    /// Logical queue that receives the completion notification.
    pub notify_lq: u16,
    /// Approach 4 (sP-managed states) or 5 (aBIU-managed states).
    pub approach: u8,
}

impl XferSetup {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(20);
        b.put_u8(op::XFER_SETUP);
        b.put_u8(self.approach);
        b.put_u16_le(self.xfer_id);
        b.put_u64_le(self.dst_addr);
        b.put_u32_le(self.len);
        b.put_u16_le(self.notify_lq);
        b.put_u16_le(0);
        b.freeze()
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Option<XferSetup> {
        if b.len() < 20 || b[0] != op::XFER_SETUP {
            return None;
        }
        Some(XferSetup {
            approach: b[1],
            xfer_id: u16::from_le_bytes([b[2], b[3]]),
            dst_addr: u64::from_le_bytes(b[4..12].try_into().ok()?),
            len: u32::from_le_bytes(b[12..16].try_into().ok()?),
            notify_lq: u16::from_le_bytes([b[16], b[17]]),
        })
    }
}

/// Approach-4 per-page arrival marker (opcode XFER_PAGE), delivered on
/// the ordered remote-command stream *after* the page's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XferPage {
    /// Transfer identifier.
    pub xfer_id: u16,
    /// Target byte address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u32,
}

impl XferPage {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(op::XFER_PAGE);
        b.put_u8(0);
        b.put_u16_le(self.xfer_id);
        b.put_u64_le(self.addr);
        b.put_u32_le(self.len);
        b.freeze()
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Option<XferPage> {
        if b.len() < 16 || b[0] != op::XFER_PAGE {
            return None;
        }
        Some(XferPage {
            xfer_id: u16::from_le_bytes([b[2], b[3]]),
            addr: u64::from_le_bytes(b[4..12].try_into().ok()?),
            len: u32::from_le_bytes(b[12..16].try_into().ok()?),
        })
    }
}

/// A tracked-region flush request (opcode XFER_FLUSH, the "diff-ing"
/// extension): send only the clsSRAM-recorded dirty lines of
/// `[base, +len)` to `dst_addr` at `dst_node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XferFlush {
    /// Transfer identifier.
    pub xfer_id: u16,
    /// Start of the tracked region (an S-COMA-region address).
    pub base: u64,
    /// Destination base address at the peer.
    pub dst_addr: u64,
    /// Length in bytes.
    pub len: u32,
    /// Destination node.
    pub dst_node: u16,
    /// Logical queue that receives the completion notification.
    pub notify_lq: u16,
}

impl XferFlush {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(28);
        b.put_u8(op::XFER_FLUSH);
        b.put_u8(0);
        b.put_u16_le(self.xfer_id);
        b.put_u64_le(self.base);
        b.put_u64_le(self.dst_addr);
        b.put_u32_le(self.len);
        b.put_u16_le(self.dst_node);
        b.put_u16_le(self.notify_lq);
        b.freeze()
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Option<XferFlush> {
        if b.len() < 28 || b[0] != op::XFER_FLUSH {
            return None;
        }
        Some(XferFlush {
            xfer_id: u16::from_le_bytes([b[2], b[3]]),
            base: u64::from_le_bytes(b[4..12].try_into().ok()?),
            dst_addr: u64::from_le_bytes(b[12..20].try_into().ok()?),
            len: u32::from_le_bytes(b[20..24].try_into().ok()?),
            dst_node: u16::from_le_bytes([b[24], b[25]]),
            notify_lq: u16::from_le_bytes([b[26], b[27]]),
        })
    }
}

/// A simple `(opcode, u64)` message used by NUMA reads and most S-COMA
/// traffic (the u64 is an address or line number).
pub fn encode_addr_msg(opcode: u8, addr: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(12);
    b.put_u8(opcode);
    b.put_u8(0);
    b.put_u16_le(0);
    b.put_u64_le(addr);
    b.freeze()
}

/// Decode an `(opcode, addr)` message.
pub fn decode_addr_msg(b: &[u8]) -> Option<(u8, u64)> {
    if b.len() < 12 {
        return None;
    }
    Some((b[0], u64::from_le_bytes(b[4..12].try_into().ok()?)))
}

/// An `(opcode, u64, u64)` message (NUMA data/write: address + data word;
/// S-COMA recall: line + requester).
pub fn encode_addr2_msg(opcode: u8, a: u64, b_: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(20);
    b.put_u8(opcode);
    b.put_u8(0);
    b.put_u16_le(0);
    b.put_u64_le(a);
    b.put_u64_le(b_);
    b.freeze()
}

/// Decode an `(opcode, a, b)` message.
pub fn decode_addr2_msg(b: &[u8]) -> Option<(u8, u64, u64)> {
    if b.len() < 20 {
        return None;
    }
    Some((
        b[0],
        u64::from_le_bytes(b[4..12].try_into().ok()?),
        u64::from_le_bytes(b[12..20].try_into().ok()?),
    ))
}

/// Completion notification to a job's receive queue (opcode NOTIFY).
pub fn encode_notify(xfer_id: u16) -> Bytes {
    let mut b = BytesMut::with_capacity(4);
    b.put_u8(op::NOTIFY);
    b.put_u8(0);
    b.put_u16_le(xfer_id);
    b.freeze()
}

/// Decode a notification; returns the transfer id.
pub fn decode_notify(b: &[u8]) -> Option<u16> {
    if b.len() < 4 || b[0] != op::NOTIFY {
        return None;
    }
    Some(u16::from_le_bytes([b[2], b[3]]))
}

use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError, StateLoad, StateSave};

impl StateSave for XferReq {
    fn save(&self, w: &mut SnapWriter) {
        // Reuse the wire codec: one canonical byte layout.
        w.lp_bytes(&self.encode());
    }
}
impl StateLoad for XferReq {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let at = r.offset();
        let b = r.lp_bytes()?;
        XferReq::decode(b).ok_or(SnapshotError::Corrupt { offset: at })
    }
}

// Checkpointed by their wire byte (`as u8` / `from_u8`).
sv_sim::checkpointed! {
    enum CollKind {
        0 => Barrier,
        1 => Bcast,
        2 => Reduce,
        3 => AllReduce,
    }
}

sv_sim::checkpointed! {
    enum CollOp {
        0 => Sum,
        1 => Min,
        2 => Max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xfer_req_roundtrip() {
        let r = XferReq {
            approach: Approach::BlockHw,
            xfer_id: 7,
            src_addr: 0x1000,
            dst_addr: 0x2000,
            len: 65536,
            dst_node: 3,
            notify_lq: 9,
        };
        assert_eq!(XferReq::decode(&r.encode()), Some(r));
    }

    #[test]
    fn xfer_req_rejects_garbage() {
        assert_eq!(XferReq::decode(&[0u8; 4]), None);
        let mut bad = XferReq {
            approach: Approach::SpManaged,
            xfer_id: 0,
            src_addr: 0,
            dst_addr: 0,
            len: 0,
            dst_node: 0,
            notify_lq: 0,
        }
        .encode()
        .to_vec();
        bad[1] = 99; // invalid approach byte
        assert_eq!(XferReq::decode(&bad), None);
    }

    #[test]
    fn xfer_data_roundtrip() {
        let d = XferData {
            xfer_id: 3,
            dst_addr: 0xABCD_EF00,
            total: 1 << 20,
            notify_lq: 4,
        };
        let enc = d.encode();
        assert_eq!(enc.len(), XFER_DATA_LEN);
        assert_eq!(XferData::decode(&enc), Some(d));
    }

    #[test]
    fn setup_and_page_roundtrip() {
        let s = XferSetup {
            xfer_id: 1,
            dst_addr: 0x4000_0000,
            len: 8192,
            notify_lq: 2,
            approach: 4,
        };
        assert_eq!(XferSetup::decode(&s.encode()), Some(s));
        let p = XferPage {
            xfer_id: 1,
            addr: 0x4000_1000,
            len: 4096,
        };
        assert_eq!(XferPage::decode(&p.encode()), Some(p));
    }

    #[test]
    fn xfer_flush_roundtrip() {
        let f = XferFlush {
            xfer_id: 5,
            base: 0x4000_2000,
            dst_addr: 0x30_0000,
            len: 64 * 1024,
            dst_node: 3,
            notify_lq: 1,
        };
        assert_eq!(XferFlush::decode(&f.encode()), Some(f));
        assert_eq!(XferFlush::decode(&[0u8; 8]), None);
    }

    #[test]
    fn addr_msgs_roundtrip() {
        let m = encode_addr_msg(op::SCOMA_READ, 42);
        assert_eq!(decode_addr_msg(&m), Some((op::SCOMA_READ, 42)));
        let m2 = encode_addr2_msg(op::NUMA_DATA, 0x100, 0xDEAD);
        assert_eq!(decode_addr2_msg(&m2), Some((op::NUMA_DATA, 0x100, 0xDEAD)));
    }

    #[test]
    fn notify_roundtrip() {
        assert_eq!(decode_notify(&encode_notify(99)), Some(99));
        assert_eq!(decode_notify(&[0u8; 2]), None);
    }

    #[test]
    fn coll_start_roundtrip() {
        let s = CollStart {
            kind: CollKind::AllReduce,
            op: CollOp::Min,
            root: 0,
            notify_lq: 1,
            value: u64::MAX - 3,
        };
        assert_eq!(CollStart::decode(&s.encode()), Some(s));
        assert_eq!(CollStart::decode(&[0u8; 8]), None);
        let mut bad = s.encode().to_vec();
        bad[1] = 9; // invalid kind byte
        assert_eq!(CollStart::decode(&bad), None);
        bad[1] = 0;
        bad[2] = 7; // invalid op byte
        assert_eq!(CollStart::decode(&bad), None);
    }

    #[test]
    fn coll_msg_roundtrip() {
        // Every (opcode, kind, op) combination survives the packed byte.
        for opcode in [op::COLL_UP, op::COLL_DOWN] {
            for kind_v in 0..4u8 {
                for op_v in 0..3u8 {
                    let m = CollMsg {
                        opcode,
                        kind: CollKind::from_u8(kind_v).unwrap(),
                        op: CollOp::from_u8(op_v).unwrap(),
                        seq: 0xDEAD_BEEF,
                        value: 1 << 63,
                    };
                    let wire = m.encode();
                    assert_eq!(wire.len(), 14, "tree messages stay at 14 bytes");
                    assert_eq!(CollMsg::decode(&wire), Some(m));
                }
            }
        }
        // A CollMsg must carry a tree opcode, not an arbitrary one.
        let mut stray = CollMsg {
            opcode: op::COLL_UP,
            kind: CollKind::Barrier,
            op: CollOp::Sum,
            seq: 0,
            value: 0,
        }
        .encode()
        .to_vec();
        stray[0] = op::COLL_RESULT;
        assert_eq!(CollMsg::decode(&stray), None);
        // An out-of-range packed operator is rejected, not misread.
        let mut bad_op = CollMsg {
            opcode: op::COLL_UP,
            kind: CollKind::Barrier,
            op: CollOp::Sum,
            seq: 0,
            value: 0,
        }
        .encode()
        .to_vec();
        bad_op[1] = 0x30; // op index 3: no such operator
        assert_eq!(CollMsg::decode(&bad_op), None);
    }

    #[test]
    fn coll_result_roundtrip() {
        let b = encode_coll_result(CollKind::Bcast, 5, 0xABCD);
        assert_eq!(decode_coll_result(&b), Some((CollKind::Bcast, 5, 0xABCD)));
        assert_eq!(decode_coll_result(&[0u8; 4]), None);
        // Not confused with a transfer notify.
        assert_eq!(decode_notify(&b), None);
    }

    #[test]
    fn coll_op_identity_and_apply() {
        for o in [CollOp::Sum, CollOp::Min, CollOp::Max] {
            assert_eq!(o.apply(o.identity(), 42), 42, "{o:?} identity");
            assert_eq!(CollOp::from_u8(o as u8), Some(o));
        }
        assert_eq!(CollOp::Sum.apply(u64::MAX, 2), 1, "wrapping sum");
        assert_eq!(CollOp::from_u8(3), None);
        for k in [
            CollKind::Barrier,
            CollKind::Bcast,
            CollKind::Reduce,
            CollKind::AllReduce,
        ] {
            assert_eq!(CollKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(CollKind::from_u8(4), None);
    }

    #[test]
    fn approach_codec() {
        for a in [
            Approach::ApDirect,
            Approach::SpManaged,
            Approach::BlockHw,
            Approach::OptimisticSp,
            Approach::OptimisticHw,
        ] {
            assert_eq!(Approach::from_u8(a as u8), Some(a));
        }
        assert_eq!(Approach::from_u8(0), None);
    }
}
