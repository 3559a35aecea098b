//! Serializable experiment records.

/// One measured block-transfer point (one approach × one size).
#[derive(Debug, Clone)]
pub struct XferPoint {
    /// Transfer approach (1–5, paper §6).
    pub approach: u8,
    /// Transfer size, bytes.
    pub bytes: u32,
    /// Time from the sender starting until the receiver's completion
    /// notification, ns. For approaches 4/5 this is the *optimistic*
    /// (early) notification.
    pub latency_notify_ns: u64,
    /// Time from the sender starting until the receiver has actually
    /// read every byte (stalling on not-yet-arrived S-COMA lines), ns.
    pub latency_use_ns: u64,
    /// Goodput over `latency_use_ns`, MB/s.
    pub bandwidth_mb_s: f64,
    /// Sender aP busy time (its program's wall time), ns.
    pub sender_ap_busy_ns: u64,
    /// Receiver aP busy time, ns.
    pub receiver_ap_busy_ns: u64,
    /// Total sP occupancy across both nodes, ns.
    pub sp_busy_ns: u64,
    /// Whether the destination buffer matched the source exactly.
    pub verified: bool,
}

/// A labeled series of transfer points (one approach swept over sizes).
#[derive(Debug, Clone)]
pub struct XferMeasurement {
    /// Transfer approach (1-5).
    pub approach: u8,
    /// Measured points, in size order.
    pub points: Vec<XferPoint>,
}

/// One message-mechanism microbenchmark row (experiment T1).
#[derive(Debug, Clone)]
pub struct MsgMicro {
    /// Mechanism label.
    pub mechanism: String,
    /// One-way latency, ns.
    pub one_way_ns: u64,
    /// Round-trip latency, ns.
    pub round_trip_ns: u64,
    /// Streaming message rate, msgs/s.
    pub msg_rate_per_s: f64,
    /// Streaming payload bandwidth, MB/s.
    pub bandwidth_mb_s: f64,
    /// Payload bytes per message.
    pub payload_bytes: u32,
}

/// One shared-memory microbenchmark row (experiment T2).
#[derive(Debug, Clone)]
pub struct ShmemMicro {
    /// Operation label.
    pub operation: String,
    /// Latency ns.
    pub latency_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_cloneable_and_debuggable() {
        let p = XferPoint {
            approach: 3,
            bytes: 4096,
            latency_notify_ns: 100,
            latency_use_ns: 200,
            bandwidth_mb_s: 100.0,
            sender_ap_busy_ns: 10,
            receiver_ap_busy_ns: 20,
            sp_busy_ns: 30,
            verified: true,
        };
        let m = XferMeasurement {
            approach: 3,
            points: vec![p.clone()],
        };
        assert!(format!("{m:?}").contains("4096"));
        assert_eq!(m.points[0].approach, p.approach);
    }
}
