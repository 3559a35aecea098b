#![warn(missing_docs)]
//! # voyager — the assembled StarT-Voyager machine
//!
//! This crate glues the substrates into the full system the paper
//! describes — a cluster of 604e SMP nodes, each with its memory bus,
//! caches, DRAM, NIU and service processor, joined by the Arctic fat
//! tree — and exposes the **layer-0 library**: the user-level view of
//! the communication mechanisms (Basic, Express, TagOn, DMA, NUMA,
//! S-COMA) plus the five block-transfer implementations of the paper's
//! evaluation.
//!
//! ## Quick start
//!
//! ```
//! use voyager::{Machine, SystemParams};
//! use voyager::api::{RecvBasic, SendBasic};
//!
//! let mut m = Machine::builder(2).params(SystemParams::default()).build();
//! // Node 0 sends one Basic message to node 1's user queue.
//! m.load_program(0, SendBasic::to_node(&m.lib(0), 1, b"hello, voyager".to_vec()));
//! m.load_program(1, RecvBasic::expecting(&m.lib(1), 1));
//! assert!(m.run().is_quiesced());
//! let msgs = m.received_messages(1);
//! assert_eq!(&msgs[0].1[..], b"hello, voyager");
//! ```
//!
//! ## Structure
//!
//! - [`params`]: every timing constant of the machine in one place.
//! - [`app`]: the application-processor program VM — programs are state
//!   machines that issue loads, stores and compute delays against the
//!   simulated memory system, so the *same* workload runs over every
//!   communication mechanism, as on the real machine.
//! - [`node`]: one node — aP core + L1/L2 + bus + DRAM + NIU + sP
//!   firmware — advanced on the 66 MHz bus clock.
//! - [`machine`]: cluster assembly ([`Machine::builder`]),
//!   queue/translation conventions, and measurement accessors.
//! - [`runloop`]: the idle-skipping, topology-sharded event loop and the
//!   cycle-stepped oracle it is bit-identical to.
//! - [`api`]: layer-0 library programs (Basic/Express send & receive,
//!   block-transfer requests, region readers/writers, notify waiters).
//! - [`blockxfer`]: the five block-transfer implementations and the
//!   experiment driver that measures them.
//! - [`workloads`]: multi-node traffic generators (ping-pong, streams,
//!   all-to-all) used by tests and the network ablation.
//! - [`metrics`]: serializable experiment records.
//! - [`stats`]: the machine-wide counter snapshot ([`Machine::stats`]).
//! - [`sweep`]: parallel parameter sweeps for the bench harness.
//! - [`tenancy`]: the multi-tenant serving layer — per-node tenant
//!   namespaces over the rx-queue/translation space and a deterministic
//!   per-aP job scheduler ([`Machine::builder`] + `tenants(..)`).

pub mod api;
pub mod app;
pub mod blockxfer;
pub mod collectives;
pub mod machine;
pub mod metrics;
pub mod node;
pub mod params;
pub mod runloop;
pub mod stats;
pub mod sweep;
pub mod tenancy;
pub mod workloads;

pub use api::{ApiError, CollReq, CollWait};
pub use app::{AppEvent, AppEventKind, Env, Program, Step};
pub use machine::{DeltaCheckpoint, Machine, MachineBuilder, NodeLib};
pub use metrics::{XferMeasurement, XferPoint};
pub use node::Node;
pub use params::SystemParams;
pub use runloop::{Parallelism, RunOutcome, ShardPolicy};
pub use stats::MachineStats;
pub use tenancy::{
    JobBody, SchedPolicy, StreamItem, TenancyParams, TenantClass, TenantLib, TenantRegistry,
    TenantSchedStat, TenantScheduler, TenantSpec,
};

// Re-export the substrate crates so downstream users need only `voyager`.
pub use sv_arctic as arctic;
pub use sv_firmware as firmware;
pub use sv_membus as membus;
pub use sv_niu as niu;
pub use sv_sim as sim;
