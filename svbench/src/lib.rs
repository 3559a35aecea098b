//! # svbench — the StarT-Voyager simulator's benchmark
//!
//! Six named workloads, each a closed run to quiescence driven through
//! the simulator's public API ([`workloads`]); spans around every call
//! into it ([`spans`]); deterministic per-layer work counts and the model
//! digest ([`layers`]); and the metrics computed from them ([`report`]).
//! The `svbench` binary runs one workload per process and prints every
//! metric by name with its unit; see `README.md` beside this crate.

pub mod layers;
pub mod report;
pub mod spans;
pub mod workloads;
