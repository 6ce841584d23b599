//! Umbrella crate for the SFCP reproduction workspace.
//!
//! This crate only re-exports the member crates so that the examples and
//! integration tests in the workspace root can use a single dependency.
//! Library users should depend on the individual crates directly:
//!
//! * [`sfcp`] — the coarsest partition solvers (the paper's contribution),
//! * [`sfcp_forest`] — functional graph (pseudo-forest) substrate,
//! * [`sfcp_strings`] — circular string canonization and string sorting,
//! * [`sfcp_parprim`] — parallel primitives (scan, sort, list ranking, Euler tour),
//! * [`sfcp_pram`] — the PRAM work/depth cost model,
//! * [`sfcp_service`] — the batched, warm, snapshot-cached serving layer.
//!
//! ## Quickstart
//!
//! The paper's own 16-node example (Fig. 1 / Example 2.2), solved by every
//! algorithm behind the [`sfcp::coarsest_partition`] facade — the runnable
//! twin of `examples/quickstart.rs` (run that one with
//! `cargo run --example quickstart --release`):
//!
//! ```
//! use sfcp_repro::sfcp::{coarsest_partition, Algorithm, Instance, ALL_ALGORITHMS};
//! use sfcp_repro::sfcp_pram::Ctx;
//!
//! let instance = Instance::paper_example();
//! for algorithm in ALL_ALGORITHMS {
//!     let ctx = Ctx::parallel();
//!     let q = coarsest_partition(&ctx, &instance, algorithm);
//!     sfcp_repro::sfcp::verify::assert_valid(&instance, &q);
//!     assert_eq!(q.num_blocks(), 4, "{algorithm:?}");
//!     // Work/depth of the run were tracked on the context:
//!     assert!(ctx.stats().work > 0 && ctx.stats().rounds > 0);
//! }
//!
//! // The paper reports A_Q = [1,2,1,3,2,2,4,4,1,3,4,3,1,2,3,4]; the
//! // parallel algorithm reproduces exactly that partition (Example 3.1).
//! let expected = sfcp_repro::sfcp::Partition::new(
//!     sfcp_repro::sfcp_forest::generators::paper_example_expected_q(),
//! );
//! let ctx = Ctx::parallel();
//! let q = coarsest_partition(&ctx, &instance, Algorithm::Parallel);
//! assert!(q.same_partition(&expected));
//! ```
//!
//! ## Error handling
//!
//! Every panicking entry point has a fallible `try_` twin returning a typed
//! error; untrusted input never panics, and a failed run leaves the context
//! recovered and reusable (see `DESIGN.md`, "Failure model and recovery"):
//!
//! ```
//! use sfcp_repro::sfcp::{try_coarsest_partition, Algorithm, DecomposeError, Instance};
//! use sfcp_repro::sfcp_forest::{try_decompose, FunctionalGraph};
//! use sfcp_repro::sfcp_forest::cycles::CycleMethod;
//! use sfcp_repro::sfcp_pram::{Ctx, Error};
//!
//! // Malformed input surfaces as a typed error, not a panic.
//! assert!(matches!(
//!     FunctionalGraph::try_new(vec![0, 9, 1]),
//!     Err(Error::OutOfRange { index: 1, value: 9, .. })
//! ));
//! assert!(matches!(
//!     Instance::try_new(vec![0, 1], vec![0]),
//!     Err(Error::LengthMismatch { .. })
//! ));
//!
//! // Well-formed input decomposes and solves fallibly.
//! let ctx = Ctx::parallel();
//! let g = FunctionalGraph::try_new(vec![1, 2, 0, 0]).unwrap();
//! let d = try_decompose(&ctx, &g, CycleMethod::Euler).unwrap();
//! assert_eq!(d.num_cycles(), 1);
//!
//! let instance = Instance::paper_example();
//! let q = try_coarsest_partition(&ctx, &instance, Algorithm::Parallel).unwrap();
//! assert_eq!(q.num_blocks(), 4);
//!
//! // DecomposeError separates bad input (permanent) from failed runs
//! // (retryable after the built-in Ctx::recover).
//! let err: DecomposeError = Error::NotAPermutation { duplicate: 3 }.into();
//! assert!(!err.is_retryable());
//! ```

#![forbid(unsafe_code)]

pub use sfcp;
pub use sfcp_forest;
pub use sfcp_parprim;
pub use sfcp_pram;
pub use sfcp_service;
pub use sfcp_strings;
