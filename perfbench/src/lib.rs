//! Benchmark for the message-dependent deadlock simulator.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run one workload.

pub mod due;
pub mod replay;
pub mod report;
pub mod trace;
pub mod workload;
