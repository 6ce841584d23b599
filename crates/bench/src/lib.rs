//! The benchmark harness: the `bench_json` binary under `src/bin/`, plus
//! the seeded [`workloads`] the integration tests share.

#![forbid(unsafe_code)]

pub mod workloads;
