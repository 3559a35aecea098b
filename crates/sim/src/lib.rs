#![warn(missing_docs)]
//! # sv-sim — deterministic simulation kernel
//!
//! Foundation crate for the StarT-Voyager full-system simulator. It provides
//! the small set of domain-independent building blocks every other crate
//! rests on:
//!
//! - [`time`]: nanosecond-resolution simulated time and clock-domain
//!   conversion ([`Time`], [`Clock`]).
//! - [`queue`]: a deterministic event queue with stable FIFO tie-breaking
//!   ([`EventQueue`]).
//! - [`rng`]: a seedable, splittable pseudo-random generator
//!   ([`DetRng`]) so that every experiment is exactly reproducible.
//! - [`stats`]: counters, occupancy trackers, log-scale histograms and
//!   latency/bandwidth summaries used by the measurement harness.
//! - [`fifo`]: bounded FIFO models with occupancy statistics, the shape of
//!   every hardware queue in the NIU.
//! - [`json`]: a tiny deterministic JSON writer ([`JsonWriter`]) for
//!   byte-reproducible stats snapshots (nothing uses serde),
//!   and [`json_stats!`], which declares each stats record once.
//! - [`trace`]: a lightweight ring-buffer tracer for debugging simulations.
//! - [`wake`]: a dirty-tracking wake-time index ([`WakeIndex`]) that the
//!   event-driven run loops use to find the next executable cycle in
//!   O(log N) instead of scanning every node.
//! - [`ckpt`]: the versioned binary snapshot substrate
//!   ([`StateSave`]/[`StateLoad`], [`SnapWriter`]/[`SnapReader`]) behind
//!   `voyager::Machine::checkpoint` — bit-faithful restores, typed errors
//!   on hostile bytes.
//!
//! Design note: the simulator deliberately avoids trait-object component
//! graphs. Substrate crates expose plain state machines; the top-level
//! `voyager::Machine` owns all state and drives it. This crate therefore
//! contains *mechanism*, never *policy*.

pub mod ckpt;
pub mod fifo;
pub mod json;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wake;

pub use ckpt::{SnapReader, SnapWriter, SnapshotError, StateLoad, StateSave};
pub use fifo::BoundedFifo;
pub use json::JsonWriter;
pub use queue::EventQueue;
pub use rng::DetRng;
pub use time::{Clock, Time, NS_PER_SEC, NS_PER_US};
pub use wake::WakeIndex;
