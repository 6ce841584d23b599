//! # sfcp-forest — the functional-graph (pseudo-forest) substrate
//!
//! The graph of a function `f : S → S` has out-degree one everywhere, so each
//! connected component is a *pseudo-tree*: exactly one cycle, with trees
//! hanging off the cycle nodes (Section 2 of the paper).  This crate provides
//! everything the coarsest-partition algorithms need to know about that
//! structure:
//!
//! * [`graph::FunctionalGraph`] — a validated wrapper around the array
//!   `A_f[x] = f(x)`;
//! * [`generators`] — deterministic instance generators (uniformly random
//!   functions, pure cycle collections with controlled lengths, long paths,
//!   stars, the paper's 16-node example of Fig. 1);
//! * [`cycles`] — marking the cycle nodes with the paper's Euler-tour /
//!   buddy-edge method of Section 5 (near-linear work), checked against a
//!   sequential degree-peeling oracle;
//! * [`structure`] — the full decomposition used by the labelling steps:
//!   cycles as node sequences with leaders and in-cycle positions, the rooted
//!   forest of tree nodes (each tree rooted at a cycle node), and node levels.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod cycles;
pub mod generators;
pub mod graph;
pub mod structure;

pub use cycles::{cycle_nodes, CycleMethod};
pub use graph::FunctionalGraph;
pub use structure::{decompose, try_decompose, Decomposition};
