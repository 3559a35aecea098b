#![warn(missing_docs)]
//! # sv-arctic — simulator of the MIT Arctic network
//!
//! Arctic (Boughton, PCRCW'97) is the fat-tree interconnect of the StarT
//! project: 4×4 packet-routed switches wired as a 4-ary *n*-tree,
//! 160 MB/s per direction per link, packets of at most 96 bytes, and two
//! packet priorities (the property the StarT-Voyager NIU relies on for
//! deadlock-free request/response protocols).
//!
//! This crate models the network at packet granularity:
//!
//! - [`topology::FatTree`] builds the 4-ary n-tree and computes up*/down
//!   routes with a pluggable up-port selection policy (Arctic routed
//!   adaptively; we provide a deterministic hash policy and an
//!   occupancy-snapshot adaptive policy, both reproducible).
//! - [`network::Network`] is an event-driven queueing model: every directed
//!   link serializes packets at link bandwidth, per-priority output queues
//!   give high-priority packets dispatch preference, and per-hop router
//!   latency is charged on top.
//! - [`Network::set_ideal`] swaps the tree for a contention-free
//!   constant-latency pipe, used in ablations to isolate NIU costs from
//!   network costs. The network's entry points route to the pipe while
//!   it is armed, so callers hold one [`Network`] on either fabric.
//!
//! The payload type is generic: the NIU crate ships its structured message
//! format through the network without a serialization round-trip; only the
//! declared wire size participates in timing.
//!
//! ## Fidelity notes
//! Arctic's credit-based link-level flow control is modeled when a
//! [`network::QosParams`] is armed: every link carries per-virtual-channel
//! bounded buffers guarded by credit counters, upstream transmitters stall
//! on credit exhaustion, and credits return on downstream drain (priority
//! or round-robin arbitration at the output port, DESIGN.md §15). With QoS
//! unset the legacy abstraction remains: lossless queueing with unbounded
//! (but high-water-tracked) output buffers, bit-identical to prior
//! releases. CRC and physical encoding are out of scope.

pub mod fault;
mod ideal;
pub mod network;
pub mod packet;
pub mod topology;

pub use fault::{FaultModel, FaultParams, FaultVerdict};
pub use network::{
    LinkParams, LinkUsage, Network, NetworkStats, QosParams, VcArbitration, VcUsage,
};
pub use packet::{NodeId, Packet, Priority, MAX_PAYLOAD_BYTES, PACKET_HEADER_BYTES};
pub use topology::{FatTree, RoutingPolicy};
