//! # sfcp-parprim — the parallel primitives the JáJá–Ryu algorithm stands on
//!
//! The coarsest-partition algorithm is a composition of classic PRAM
//! building blocks.  This crate implements each of them with the same
//! interface discipline: every routine takes a [`sfcp_pram::Ctx`], runs on
//! the rayon pool, charges its work/depth to the context's tracker, and is
//! tested against a straightforward sequential reference implementation.
//!
//! | Module | Primitive | Role in the paper |
//! |--------|-----------|-------------------|
//! | [`scan`] | prefix sums (inclusive/exclusive, generic, blocked parallel) | step scheduling, compaction offsets, Euler-tour rankings |
//! | [`reduce`] | parallel reductions (minimum, with index) | finding the minimum symbol `m` in *efficient m.s.p.*, leader election |
//! | [`compact`] | stream compaction (stable filter with output offsets) | collecting marked positions, building contracted strings |
//! | [`csr`] | parallel CSR construction from `(key, value)` streams | children lists, buddy-edge incidence rotations, level buckets |
//! | [`intsort`] | stable LSD radix sort (block-parallel counting passes) | the Bhatt-et-al. integer sorting the paper charges `O(n log log n)` work to |
//! | [`rank`] | sorting-based renaming: map items to dense ranks; doubling rounds over the classes that can still split | "replace each pair by its rank" steps of m.s.p. / string sorting; the Lemma 4.2 doubling of Step 3 |
//! | [`listrank`] | list ranking (sparse ruling set with wavefront walks; Wyllie pointer jumping for tiny lists) | Step 1 of *cycle node labeling*, fused Euler-tour + cycle-chain ranking |
//! | [`jump`] | pointer jumping on rooted forests and permutations | roots of the hanging trees, labelling the Euler cycles of Section 5 |
//! | [`euler`] | Euler tours of rooted forests (levels, entry/exit, flagged-ancestor counts) | Section 4 tree labelling and Section 5 cycle finding |
//! | [`merge`] | parallel merge and merge sort | the Cole-mergesort base case of string sorting |

// Every public item of this crate is part of the documented substitution
// surface; the CI rustdoc gate (`RUSTDOCFLAGS="-D warnings" cargo doc`)
// turns a missing or broken doc into a build failure.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub mod compact;
pub mod csr;
pub mod euler;
pub mod intsort;
pub mod jump;
pub mod listrank;
pub mod merge;
pub mod rank;
pub mod reduce;
pub mod scan;

pub use compact::{compact_indices, compact_with};
pub use csr::{build_csr, build_csr_into};
pub use euler::{EulerTour, RootedForest};
pub use intsort::{radix_sort_pairs, radix_sort_recs, radix_sort_recs_prebounded, radix_sort_u64};
pub use jump::find_roots;
pub use listrank::{list_rank, list_rank_into, list_rank_wyllie};
pub use merge::{merge_sorted, parallel_merge_sort};
pub use rank::{
    dense_ranks_by_key_into, dense_ranks_by_sort, dense_ranks_by_sort_into, dense_ranks_of_pairs,
    dense_ranks_of_pairs_into, refine_classes_into, Listed, Refinement,
};
pub use reduce::{min_index, min_value};
pub use scan::{
    exclusive_scan, exclusive_scan_into, inclusive_scan, inclusive_scan_into, scan_generic,
    scan_generic_into,
};
