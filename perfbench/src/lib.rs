//! # perfbench — the repository's benchmark
//!
//! One command runs a named workload from a seed and prints every metric by
//! name with its unit, then a one-line JSON result.  Every answer is
//! checked; failures are counted and make the command exit non-zero.  Each
//! layer is timed from outside, through its public functions; a traced run
//! records the benchmark's own spans around those calls and reads the
//! program's charge, workspace and trace summaries.  See `README.md` for
//! the workloads, the metrics and how to read the traced run.

pub mod family;
pub mod host;
pub mod layers;
pub mod procfs;
pub mod report;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;
