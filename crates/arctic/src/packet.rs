//! Packet format and identity.

use sv_sim::Time;

/// Physical node (leaf) identifier.
pub type NodeId = u16;

/// Bytes of packet header on the wire (route word, source, logical queue,
/// flags). Matches the framing budget of Arctic's 96-byte packets: an
/// 8-byte header leaves 88 bytes for payload — exactly the maximum Basic
/// message payload of the paper.
pub const PACKET_HEADER_BYTES: u32 = 8;

/// Maximum payload bytes per packet.
pub const MAX_PAYLOAD_BYTES: u32 = 88;

/// Arctic supports (at least) two packet priorities; StarT-Voyager maps
/// protocol *replies* to [`Priority::High`] so that request traffic can
/// never indefinitely block responses — the standard two-network
/// deadlock-avoidance discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Reply / reclaim class; dispatched first at every link.
    High,
    /// Request / bulk class.
    Low,
}

impl Priority {
    /// Queue index used by the link model (0 = high).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Low => 1,
        }
    }
}

/// A packet in flight. `P` is the structured payload type supplied by the
/// NIU layer; only [`Packet::wire_bytes`] participates in timing, so the
/// simulation never serializes `P` to bytes.
#[derive(Debug, Clone)]
pub struct Packet<P> {
    /// Source node.
    pub src: NodeId,
    /// Destination.
    pub dst: NodeId,
    /// Network priority class.
    pub priority: Priority,
    /// Total size on the wire, header included.
    pub wire_bytes: u32,
    /// Time the packet entered the network (set by `Network::inject`).
    pub injected_at: Time,
    /// Reliable-delivery sequence number within the sender's
    /// `(destination, priority)` stream; `0` means unsequenced (the
    /// reliable layer is off or the packet is an ack). Stamped by the
    /// NIU, opaque to the network.
    pub seq: u32,
    /// Set by the fault model when the payload was mangled in flight —
    /// the receiving NIU sees a CRC-failed frame and discards it.
    pub corrupt: bool,
    /// Structured payload.
    pub payload: P,
}

impl<P> Packet<P> {
    /// Construct a packet carrying `payload_bytes` of payload (the header
    /// is added automatically). Panics if the payload exceeds
    /// [`MAX_PAYLOAD_BYTES`] — oversized transfers must be packetized by
    /// the NIU before injection, as in the hardware.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        priority: Priority,
        payload_bytes: u32,
        payload: P,
    ) -> Self {
        assert!(
            payload_bytes <= MAX_PAYLOAD_BYTES,
            "payload {payload_bytes} exceeds Arctic maximum {MAX_PAYLOAD_BYTES}"
        );
        Packet {
            src,
            dst,
            priority,
            wire_bytes: PACKET_HEADER_BYTES + payload_bytes,
            injected_at: Time::ZERO,
            seq: 0,
            corrupt: false,
            payload,
        }
    }
}

sv_sim::checkpointed! {
    enum Priority {
        0 => High,
        1 => Low,
    }
}

sv_sim::checkpointed! {
    struct Packet<P> {
        src,
        dst,
        priority,
        wire_bytes,
        injected_at,
        seq,
        corrupt,
        payload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_includes_header() {
        let p = Packet::new(0, 1, Priority::Low, 88, ());
        assert_eq!(p.wire_bytes, 96);
    }

    #[test]
    #[should_panic(expected = "exceeds Arctic maximum")]
    fn oversized_payload_rejected() {
        let _ = Packet::new(0, 1, Priority::Low, 89, ());
    }

    #[test]
    fn priority_indices() {
        assert_eq!(Priority::High.index(), 0);
        assert_eq!(Priority::Low.index(), 1);
        assert!(Priority::High < Priority::Low);
    }
}
