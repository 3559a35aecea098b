//! Message formats.
//!
//! A message in a transmit/receive queue occupies up to 96 bytes of SRAM:
//! an 8-byte header followed by up to 88 bytes of payload. The header is
//! genuinely encoded/decoded to bytes — the aP composes messages with
//! stores and the tests verify the bit-level round trip — while the
//! network payload travels as structured [`NetPayload`] (the wire size is
//! what matters for timing; see `sv-arctic`).

use bytes::Bytes;
use sv_arctic::Priority;

/// Maximum payload bytes of a Basic message.
pub const MAX_MSG_PAYLOAD: usize = 88;

/// Number of message classes tracked by the observability layer.
pub const MSG_CLASSES: usize = 4;

/// Traffic class of a message, for per-class counters and latency
/// summaries. The class rides in packet metadata (one byte in
/// [`MsgData`]; remote commands are always [`MsgClass::Dma`]) so the
/// receive side can attribute deliveries without re-deriving the send
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgClass {
    /// Basic queue-to-queue message (no TagOn attachment).
    Basic = 0,
    /// Express single-store message.
    Express = 1,
    /// Basic message with a TagOn attachment.
    TagOn = 2,
    /// Remote-command traffic: block-transfer data, notifies, S-COMA
    /// grants, reflective-memory updates.
    Dma = 3,
}

impl MsgClass {
    /// Stable lower-case names, indexable by `class as usize`.
    pub const NAMES: [&'static str; MSG_CLASSES] = ["basic", "express", "tagon", "dma"];

    /// Decode from the metadata byte (unknown values fold to `Basic`).
    #[inline]
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => MsgClass::Express,
            2 => MsgClass::TagOn,
            3 => MsgClass::Dma,
            _ => MsgClass::Basic,
        }
    }

    /// The stable lower-case name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// Inline, fixed-capacity payload of a Basic message (≤ 88 bytes).
///
/// Message payloads travel by value through the transmit FIFOs, the
/// network and the receive unit. An inline buffer keeps that entire path
/// free of heap traffic: composing, forwarding and delivering a message
/// is a `memcpy` of at most [`MAX_MSG_PAYLOAD`] bytes, never an
/// allocation. Derefs to `[u8]`, so consumers index and slice it like
/// the `Bytes` it replaced.
#[derive(Clone, Copy)]
pub struct MsgData {
    len: u8,
    /// Traffic class ([`MsgClass`] as its `u8` value), stamped by the
    /// transmit engine. Metadata only: excluded from equality and debug
    /// formatting, which compare the payload slice.
    class: u8,
    /// Launch cycle for inject→deliver latency sampling; 0 means
    /// "unstamped" (sampling off, or a payload built directly by tests),
    /// and the receive side records no latency for it.
    sent_cycle: u64,
    buf: [u8; MAX_MSG_PAYLOAD],
}

impl MsgData {
    /// A zero-length payload.
    pub const fn empty() -> Self {
        MsgData {
            len: 0,
            class: 0,
            sent_cycle: 0,
            buf: [0u8; MAX_MSG_PAYLOAD],
        }
    }

    /// A payload holding a copy of `data`.
    ///
    /// # Panics
    /// If `data` exceeds [`MAX_MSG_PAYLOAD`] bytes.
    pub fn new(data: &[u8]) -> Self {
        let mut d = MsgData::empty();
        d.append(data);
        d
    }

    /// A zero-filled payload of `len` bytes, for callers that fill the
    /// buffer in place (e.g. straight from SRAM) via
    /// [`MsgData::as_mut_slice`].
    ///
    /// # Panics
    /// If `len` exceeds [`MAX_MSG_PAYLOAD`].
    pub fn with_len(len: usize) -> Self {
        assert!(len <= MAX_MSG_PAYLOAD);
        MsgData {
            len: len as u8,
            class: 0,
            sent_cycle: 0,
            buf: [0u8; MAX_MSG_PAYLOAD],
        }
    }

    /// Traffic class stamped by the transmit engine ([`MsgClass::Basic`]
    /// for payloads that never passed through it).
    #[inline]
    pub fn class(&self) -> MsgClass {
        MsgClass::from_u8(self.class)
    }

    /// Stamp the traffic class (transmit-engine metadata).
    #[inline]
    pub fn set_class(&mut self, class: MsgClass) {
        self.class = class as u8;
    }

    /// Launch cycle for latency sampling; 0 when unstamped.
    #[inline]
    pub fn sent_cycle(&self) -> u64 {
        self.sent_cycle
    }

    /// Stamp the launch cycle (only done when latency sampling is on).
    #[inline]
    pub fn set_sent_cycle(&mut self, cycle: u64) {
        self.sent_cycle = cycle;
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }

    /// Mutable access to the payload bytes.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf[..self.len as usize]
    }

    /// Append a copy of `more` (how TagOn data joins the message body).
    ///
    /// # Panics
    /// If the result would exceed [`MAX_MSG_PAYLOAD`] bytes.
    pub fn append(&mut self, more: &[u8]) {
        let start = self.len as usize;
        assert!(
            start + more.len() <= MAX_MSG_PAYLOAD,
            "message payload exceeds the {MAX_MSG_PAYLOAD}-byte packet limit"
        );
        self.buf[start..start + more.len()].copy_from_slice(more);
        self.len += more.len() as u8;
    }

    /// Append `n` zero bytes and return the appended region, for callers
    /// that fill it in place.
    ///
    /// # Panics
    /// If the result would exceed [`MAX_MSG_PAYLOAD`] bytes.
    pub fn extend_zeroed(&mut self, n: usize) -> &mut [u8] {
        let start = self.len as usize;
        assert!(
            start + n <= MAX_MSG_PAYLOAD,
            "message payload exceeds the {MAX_MSG_PAYLOAD}-byte packet limit"
        );
        self.len += n as u8;
        &mut self.buf[start..start + n]
    }
}

impl Default for MsgData {
    fn default() -> Self {
        MsgData::empty()
    }
}

impl core::ops::Deref for MsgData {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for MsgData {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for MsgData {}

impl core::fmt::Debug for MsgData {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("MsgData").field(&self.as_slice()).finish()
    }
}

impl From<&[u8]> for MsgData {
    fn from(data: &[u8]) -> Self {
        MsgData::new(data)
    }
}

/// Payload bytes of an Express message (one byte rides in the address,
/// four in the data — "a five-byte payload").
pub const EXPRESS_PAYLOAD: usize = 5;

/// TagOn sizes: an extra 1.5 or 2.5 cache lines of SRAM data.
pub const TAGON_SMALL: u8 = 48;
/// Large TagOn attachment size (2.5 lines).
pub const TAGON_LARGE: u8 = 80;

/// A little local macro giving us the few bitflags operations we need
/// without an external crate.
macro_rules! bitflags_lite {
    ($(#[$m:meta])* pub struct $name:ident : $ty:ty { $($(#[$fm:meta])* const $f:ident = $v:expr;)* }) => {
        $(#[$m])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name(pub $ty);
        impl $name {
            $( $(#[$fm])* pub const $f: $name = $name($v); )*
            /// No flags set.
            pub const fn empty() -> Self { $name(0) }
            /// Whether every bit of `other` is set in `self`.
            pub const fn contains(self, other: $name) -> bool { self.0 & other.0 == other.0 }
            /// Union of two flag sets.
            pub const fn union(self, other: $name) -> Self { $name(self.0 | other.0) }
        }
        impl core::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, o: $name) -> $name { $name(self.0 | o.0) }
        }
    };
}

bitflags_lite!(
    /// Header flag bits.
    pub struct MsgFlags: u8 {
        /// Payload is extended with TagOn data fetched from SRAM by CTRL.
        const TAGON = 1 << 0;
        /// Raw message: destination is a physical (node, queue, priority)
        /// triple; translation and protection are bypassed (privileged).
        const RAW = 1 << 1;
        /// Request the high network priority (raw messages only; translated
        /// messages take priority from the translation table).
        const PRIO_HIGH = 1 << 2;
    }
);

/// Decoded message header (8 bytes in SRAM).
///
/// Layout: `dest:u16 | len:u8 | flags:u8 | tagon_len:u8 | _pad:u8 | tagon_addr:u16*16`
/// — the TagOn address is stored in 16-byte SRAM granules so it fits 16
/// bits, matching the "pointer in the message description" of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgHeader {
    /// Virtual destination (translated), or for RAW messages the packed
    /// physical destination `node << 8 | queue`.
    pub dest: u16,
    /// Payload length in bytes (0..=88), excluding TagOn data.
    pub len: u8,
    /// Flag bits.
    pub flags: MsgFlags,
    /// TagOn attachment length in bytes (48 or 80 when TAGON set).
    pub tagon_len: u8,
    /// TagOn source address in SRAM, in 16-byte granules.
    pub tagon_granule: u16,
}

impl MsgHeader {
    /// A plain translated message header.
    pub fn basic(dest: u16, len: u8) -> Self {
        assert!(len as usize <= MAX_MSG_PAYLOAD);
        MsgHeader {
            dest,
            len,
            flags: MsgFlags::empty(),
            tagon_len: 0,
            tagon_granule: 0,
        }
    }

    /// Attach TagOn data at SRAM byte address `sram_addr` (16-byte aligned).
    pub fn with_tagon(mut self, sram_addr: u32, tagon_len: u8) -> Self {
        assert!(tagon_len == TAGON_SMALL || tagon_len == TAGON_LARGE);
        assert_eq!(sram_addr % 16, 0, "TagOn source must be 16-byte aligned");
        self.flags = self.flags | MsgFlags::TAGON;
        self.tagon_len = tagon_len;
        self.tagon_granule = (sram_addr / 16) as u16;
        self
    }

    /// TagOn source byte address.
    pub fn tagon_addr(&self) -> u32 {
        self.tagon_granule as u32 * 16
    }

    /// Encode to the 8-byte SRAM representation.
    pub fn encode(&self) -> [u8; 8] {
        let mut b = [0u8; 8];
        b[0..2].copy_from_slice(&self.dest.to_le_bytes());
        b[2] = self.len;
        b[3] = self.flags.0;
        b[4] = self.tagon_len;
        b[6..8].copy_from_slice(&self.tagon_granule.to_le_bytes());
        b
    }

    /// Decode from the 8-byte SRAM representation.
    pub fn decode(b: &[u8; 8]) -> Self {
        MsgHeader {
            dest: u16::from_le_bytes([b[0], b[1]]),
            len: b[2],
            flags: MsgFlags(b[3]),
            tagon_len: b[4],
            tagon_granule: u16::from_le_bytes([b[6], b[7]]),
        }
    }

    /// Pack a raw physical destination.
    pub fn raw_dest(node: u16, queue: u8) -> u16 {
        (node << 8) | queue as u16
    }

    /// Unpack a raw physical destination.
    pub fn split_raw_dest(dest: u16) -> (u16, u8) {
        (dest >> 8, (dest & 0xFF) as u8)
    }
}

/// A command executed by the *destination* NIU's remote command queue —
/// how block transfers and S-COMA data replies land in DRAM without
/// firmware involvement on the receive side.
#[derive(Debug, Clone, PartialEq, Eq)]
// Variant fields are named self-descriptively; the variants themselves
// are documented above each one.
#[allow(missing_docs)]
pub enum RemoteCmdKind {
    /// Write `data` into destination DRAM at `addr` (via aBIU bus ops).
    WriteDram { addr: u64, data: Bytes },
    /// Set a clsSRAM line state (approach 4/5 support, S-COMA grants).
    SetCls { line: u64, state: u8 },
    /// Write DRAM then set the covering clsSRAM lines — the approach-5
    /// aBIU extension, one command so hardware does both.
    WriteDramSetCls { addr: u64, data: Bytes, state: u8 },
    /// Deliver a message into the given logical receive queue. Sent on
    /// the same ordered remote-command stream as the data it completes,
    /// which is how block transfers guarantee notify-after-data.
    Notify { logical_q: u16, data: Bytes },
}

impl RemoteCmdKind {
    /// Bytes this command occupies in a packet payload (8-byte command
    /// descriptor + data).
    pub fn payload_bytes(&self) -> u32 {
        match self {
            RemoteCmdKind::WriteDram { data, .. } => 8 + data.len() as u32,
            RemoteCmdKind::SetCls { .. } => 8,
            RemoteCmdKind::WriteDramSetCls { data, .. } => 8 + data.len() as u32,
            RemoteCmdKind::Notify { data, .. } => 8 + data.len() as u32,
        }
    }
}

/// What a StarT-Voyager packet carries.
#[derive(Debug, Clone, PartialEq, Eq)]
// Variant fields are named self-descriptively; the variants themselves
// are documented above each one.
#[allow(missing_docs)]
pub enum NetPayload {
    /// An application / firmware message bound for a receive queue.
    Msg {
        /// Source node.
        src: u16,
        /// Logical destination receive queue on the target node.
        logical_q: u16,
        /// Payload bytes (message body, TagOn already appended), stored
        /// inline so the network hot path never allocates.
        data: MsgData,
    },
    /// A remote command bound for the remote command queue.
    RemoteCmd {
        /// Source node.
        src: u16,
        /// The remote command.
        cmd: RemoteCmdKind,
        /// Launch cycle for inject→deliver latency sampling; 0 means
        /// unstamped (see [`MsgData::sent_cycle`]). Metadata: excluded
        /// from the wire-size accounting.
        sent_cycle: u64,
    },
    /// Cumulative acknowledgment of the reliable-delivery layer: "I have
    /// accepted every packet of your `(src → me, prio_idx)` stream up to
    /// and including `ack_upto`". Never sequenced or retransmitted
    /// itself; rides [`Priority::High`] so data traffic cannot starve it.
    Ack {
        /// The acknowledging node.
        src: u16,
        /// Priority index of the stream being acked (0 = high).
        prio_idx: u8,
        /// Highest in-order sequence number accepted.
        ack_upto: u32,
    },
    /// Stream resynchronization: after the sender's retry cap expires it
    /// abandons the unacked packets (counting them dropped) and tells the
    /// receiver to expect `next_seq` next, so the stream can make
    /// progress again. Fire-and-forget, like [`NetPayload::Ack`].
    RelSync {
        /// The abandoning sender.
        src: u16,
        /// Priority index of the stream being resynchronized.
        prio_idx: u8,
        /// The sequence number of the sender's next transmission.
        next_seq: u32,
    },
}

impl NetPayload {
    /// Payload size on the wire (the 8-byte packet header is added by
    /// `sv-arctic`).
    pub fn payload_bytes(&self) -> u32 {
        match self {
            NetPayload::Msg { data, .. } => data.len() as u32,
            NetPayload::RemoteCmd { cmd, .. } => cmd.payload_bytes(),
            NetPayload::Ack { .. } | NetPayload::RelSync { .. } => 8,
        }
    }

    /// Network priority this payload travels at, honoring the paper's
    /// discipline: remote commands (data replies / completions) ride the
    /// high-priority network so they can never deadlock behind requests.
    pub fn natural_priority(&self) -> Priority {
        match self {
            NetPayload::Msg { .. } => Priority::Low,
            NetPayload::RemoteCmd { .. } => Priority::High,
            NetPayload::Ack { .. } | NetPayload::RelSync { .. } => Priority::High,
        }
    }
}

/// Express message encodings. Part of the payload and the destination ride
/// in the *address* of a single uncached store; the remaining four payload
/// bytes are the store data.
pub mod express {
    /// Encode the address offset (within the Express-TX region) for a
    /// store launching an express message: `dest` (logical destination),
    /// `tag` (the address-carried payload byte).
    ///
    /// The full 16-bit destination field covers every destination class
    /// at the widest (16384-node) class stride the translation namespace
    /// supports; machines at or below 256 nodes only ever exercise the
    /// low 10 bits, where the encoding matches the original layout.
    pub fn tx_offset(dest: u16, tag: u8) -> u64 {
        // Offsets are 8-byte aligned stores: [dest:16][tag:8][align:3].
        ((dest as u64) << 11) | ((tag as u64) << 3)
    }

    /// Decode `(dest, tag)` from an Express-TX offset.
    pub fn decode_tx_offset(off: u64) -> (u16, u8) {
        (((off >> 11) & 0xFFFF) as u16, ((off >> 3) & 0xFF) as u8)
    }

    /// Pack a received express message into the 8 bytes returned by the
    /// receive load: `[valid:1][src:15][tag:8][data:4bytes]`.
    pub fn pack_rx(src: u16, tag: u8, data: [u8; 4]) -> u64 {
        let mut v: u64 = 1 << 63;
        v |= ((src as u64) & 0x7FFF) << 40;
        v |= (tag as u64) << 32;
        v |= u32::from_le_bytes(data) as u64;
        v
    }

    /// Pack an express *transmit-queue entry* as composed by the aBIU
    /// from the captured store address (dest, tag) and data word.
    pub fn pack_tx_entry(dest: u16, tag: u8, data: [u8; 4]) -> u64 {
        ((dest as u64) << 48) | ((tag as u64) << 40) | u32::from_le_bytes(data) as u64
    }

    /// Unpack an express transmit-queue entry.
    pub fn unpack_tx_entry(v: u64) -> (u16, u8, [u8; 4]) {
        (
            (v >> 48) as u16,
            ((v >> 40) & 0xFF) as u8,
            (v as u32).to_le_bytes(),
        )
    }

    /// The canonical empty value returned when no message is available.
    pub const RX_EMPTY: u64 = 0;

    /// Unpack a receive value; `None` if it is the canonical empty.
    pub fn unpack_rx(v: u64) -> Option<(u16, u8, [u8; 4])> {
        if v >> 63 == 0 {
            return None;
        }
        let src = ((v >> 40) & 0x7FFF) as u16;
        let tag = ((v >> 32) & 0xFF) as u8;
        let data = (v as u32).to_le_bytes();
        Some((src, tag, data))
    }
}

use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError, StateLoad, StateSave};

impl StateSave for MsgData {
    /// Only the live prefix of the inline buffer is serialized, so
    /// snapshot size tracks message size, not buffer capacity.
    fn save(&self, w: &mut SnapWriter) {
        w.u8(self.len);
        w.u8(self.class);
        w.u64(self.sent_cycle);
        w.raw(self.as_slice());
    }
}
impl StateLoad for MsgData {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let at = r.offset();
        let len = r.u8()?;
        if len as usize > MAX_MSG_PAYLOAD {
            return Err(SnapshotError::Corrupt { offset: at });
        }
        let class = r.u8()?;
        let sent_cycle = r.u64()?;
        let mut d = MsgData {
            len,
            class,
            sent_cycle,
            buf: [0u8; MAX_MSG_PAYLOAD],
        };
        let body = r.take(len as usize)?;
        d.buf[..len as usize].copy_from_slice(body);
        Ok(d)
    }
}

sv_sim::checkpointed! { struct MsgFlags(bits) }

impl StateSave for MsgHeader {
    fn save(&self, w: &mut SnapWriter) {
        w.raw(&self.encode());
    }
}
impl StateLoad for MsgHeader {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let b: [u8; 8] = r
            .take(8)?
            .try_into()
            .expect("take(8) returns exactly 8 bytes");
        Ok(MsgHeader::decode(&b))
    }
}

sv_sim::checkpointed! {
    enum RemoteCmdKind {
        0 => WriteDram { addr, data },
        1 => SetCls { line, state },
        2 => WriteDramSetCls { addr, data, state },
        3 => Notify { logical_q, data },
    }
}

sv_sim::checkpointed! {
    enum NetPayload {
        0 => Msg { src, logical_q, data },
        1 => RemoteCmd { src, cmd, sent_cycle },
        2 => Ack { src, prio_idx, ack_upto },
        3 => RelSync { src, prio_idx, next_seq },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = MsgHeader::basic(0x123, 88).with_tagon(0x400, TAGON_LARGE);
        let e = h.encode();
        assert_eq!(MsgHeader::decode(&e), h);
        assert_eq!(h.tagon_addr(), 0x400);
        assert!(h.flags.contains(MsgFlags::TAGON));
    }

    #[test]
    fn raw_dest_packing() {
        let d = MsgHeader::raw_dest(5, 9);
        assert_eq!(MsgHeader::split_raw_dest(d), (5, 9));
    }

    #[test]
    #[should_panic]
    fn oversized_payload_rejected() {
        let _ = MsgHeader::basic(0, 89);
    }

    #[test]
    #[should_panic(expected = "16-byte aligned")]
    fn tagon_alignment_enforced() {
        let _ = MsgHeader::basic(0, 0).with_tagon(0x401, TAGON_SMALL);
    }

    #[test]
    fn remote_cmd_sizes() {
        let w = RemoteCmdKind::WriteDram {
            addr: 0x1000,
            data: Bytes::from(vec![0u8; 64]),
        };
        assert_eq!(w.payload_bytes(), 72);
        let s = RemoteCmdKind::SetCls { line: 3, state: 1 };
        assert_eq!(s.payload_bytes(), 8);
    }

    #[test]
    fn payload_priorities() {
        let m = NetPayload::Msg {
            src: 0,
            logical_q: 1,
            data: MsgData::new(b"hi"),
        };
        assert_eq!(m.natural_priority(), Priority::Low);
        assert_eq!(m.payload_bytes(), 2);
        let r = NetPayload::RemoteCmd {
            src: 0,
            cmd: RemoteCmdKind::SetCls { line: 0, state: 0 },
            sent_cycle: 0,
        };
        assert_eq!(r.natural_priority(), Priority::High);
    }

    #[test]
    fn msg_class_metadata_is_not_identity() {
        let mut a = MsgData::new(b"abcd");
        let b = MsgData::new(b"abcd");
        a.set_class(MsgClass::TagOn);
        a.set_sent_cycle(77);
        assert_eq!(a, b, "class/sent_cycle are metadata, not payload");
        assert_eq!(a.class(), MsgClass::TagOn);
        assert_eq!(a.sent_cycle(), 77);
        assert_eq!(b.class(), MsgClass::Basic);
        assert_eq!(MsgClass::from_u8(9), MsgClass::Basic);
        for (i, n) in MsgClass::NAMES.iter().enumerate() {
            assert_eq!(MsgClass::from_u8(i as u8).name(), *n);
        }
    }

    #[test]
    fn msgdata_inline_buffer() {
        let mut d = MsgData::new(b"abcd");
        assert_eq!(d.len(), 4);
        assert_eq!(&d[..], b"abcd");
        d.append(&[7u8; 48]);
        assert_eq!(d.len(), 52);
        assert!(d[4..].iter().all(|&b| b == 7));
        let t = d.extend_zeroed(4);
        t.copy_from_slice(b"wxyz");
        assert_eq!(&d[52..], b"wxyz");
        assert_eq!(d, MsgData::from(&d[..]));
        assert!(MsgData::empty().is_empty());
        assert_eq!(MsgData::with_len(8).as_slice(), &[0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "88-byte packet limit")]
    fn msgdata_overflow_rejected() {
        let _ = MsgData::new(&[0u8; 89]);
    }

    #[test]
    fn express_tx_offset_roundtrip() {
        for dest in [0u16, 1, 255, 1023, 1024, 8192, 49151, u16::MAX] {
            for tag in [0u8, 7, 255] {
                let off = express::tx_offset(dest, tag);
                assert_eq!(off % 8, 0, "stores are 8-byte aligned");
                assert_eq!(express::decode_tx_offset(off), (dest, tag));
            }
        }
    }

    #[test]
    fn express_rx_roundtrip() {
        let v = express::pack_rx(42, 9, [1, 2, 3, 4]);
        assert_eq!(express::unpack_rx(v), Some((42, 9, [1, 2, 3, 4])));
        assert_eq!(express::unpack_rx(express::RX_EMPTY), None);
    }

    #[test]
    fn flags_ops() {
        let f = MsgFlags::TAGON | MsgFlags::RAW;
        assert!(f.contains(MsgFlags::TAGON));
        assert!(f.contains(MsgFlags::RAW));
        assert!(!f.contains(MsgFlags::PRIO_HIGH));
        assert!(MsgFlags::empty()
            .union(MsgFlags::RAW)
            .contains(MsgFlags::RAW));
    }
}
