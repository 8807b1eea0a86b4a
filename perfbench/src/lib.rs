//! # perfbench
//!
//! One benchmark for the whole YOLoC stack: two seeded workloads, the
//! end-to-end metrics a user of the stack sees, and per-layer timings
//! from a replay of each layer's public calls on the workload's own
//! shapes. See `README.md` in this directory for the metric table and
//! how to run it.

use std::collections::BTreeMap;

pub mod deploy;
pub mod metrics;
pub mod probe;
pub mod replay;
pub mod serve;
pub mod trace;
pub mod workloads;

pub use workloads::{run, Args, Outcome, Workload};

/// Metric values by registry name.
pub type Values = BTreeMap<&'static str, f64>;
