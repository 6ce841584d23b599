//! # sfcp-pram — a work/depth PRAM cost model over rayon
//!
//! The JáJá–Ryu algorithm (and every algorithm in this workspace) is stated
//! for the **arbitrary CRCW PRAM**: `p` synchronous processors sharing a
//! memory in which concurrent reads always succeed and, on concurrent writes
//! to the same cell, *some* (arbitrary) writer wins.  Nobody has a PRAM, so
//! this crate provides the substitution described in `DESIGN.md`:
//!
//! * a [`Tracker`] that counts **operations** (total work) and **rounds**
//!   (parallel steps ≈ depth), the two quantities the paper's theorems bound;
//! * an execution context [`Ctx`] whose loop helpers run the algorithm code
//!   thread-parallel (via rayon) and charge work/depth costs that depend
//!   only on the input, so that measured operation counts are deterministic
//!   and independent of the thread count and the task grain;
//! * an arbitrary-CRCW insert-if-absent table ([`crcw::CrcwTable`]) standing
//!   in for the paper's `BB[1..n, 1..n]` auxiliary array;
//! * a scratch-buffer [`Workspace`] on every [`Ctx`] — checkout/return pools
//!   of reusable vectors so the `O(log n)`-round doubling loops allocate
//!   O(1) buffers per run;
//! * a failure model: typed [`Error`]s for the fallible (`try_`) surface of
//!   the downstream crates, a poison/recover protocol on the workspace
//!   ([`Workspace::recover`] / [`Ctx::recover`]) so a context survives a
//!   failed invocation with warm pools, and a deterministic fault injector
//!   per workspace ([`faults`], [`Workspace::faults`]) that is zero-cost when
//!   disabled;
//! * an observability layer ([`trace`]): RAII spans ([`Ctx::span`]) opened
//!   at every engine pass ([`Ctx::pass`]) and pipeline phase, recording wall
//!   time, charge deltas, and workspace churn into a per-context ring — also
//!   zero-cost when disabled, and charge-neutral in every state.
//!
//! ## Quick example
//!
//! ```
//! use sfcp_pram::Ctx;
//!
//! let ctx = Ctx::parallel();
//! let squares: Vec<u64> = ctx.par_map_idx(1000, |i| (i * i) as u64);
//! assert_eq!(squares[31], 961);
//! let stats = ctx.stats();
//! assert!(stats.work >= 1000);   // at least one operation per element
//! assert!(stats.rounds >= 1);    // one parallel round
//! ```

// Every public item of this crate is part of the documented substitution
// surface; the CI rustdoc gate (`RUSTDOCFLAGS="-D warnings" cargo doc`)
// turns a missing or broken doc into a build failure.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub mod crcw;
pub mod ctx;
pub mod error;
pub mod faults;
pub mod fxhash;
pub mod topology;
pub mod trace;
pub mod tracker;
pub mod workspace;

pub use crcw::CrcwTable;
pub use ctx::Ctx;
pub use error::{check_index_width, Error, MAX_DOMAIN};
pub use topology::Topology;
pub use trace::{Span, Trace, TraceSnapshot, TraceSummary};
pub use tracker::{Stats, Tracker};
pub use workspace::{Rec, Scratch, Workspace, WorkspaceStats};

/// Convenience: smallest power of two `>= x` (returns 1 for `x == 0`).
///
/// Several of the paper's algorithms (the simple m.s.p. tournament,
/// *Algorithm partition*) assume power-of-two sizes "for convenience"; the
/// implementations pad with sentinels using this helper.
#[inline]
pub fn next_pow2(x: usize) -> usize {
    x.max(1).next_power_of_two()
}

/// Convenience: `ceil(log2(x))` with `ceil_log2(0) == 0` and `ceil_log2(1) == 0`.
#[inline]
pub fn ceil_log2(x: usize) -> u32 {
    if x <= 1 {
        0
    } else {
        usize::BITS - (x - 1).leading_zeros()
    }
}

/// Convenience: `floor(log2(x))` with `floor_log2(0) == 0`.
#[inline]
pub fn floor_log2(x: usize) -> u32 {
    if x == 0 {
        0
    } else {
        usize::BITS - 1 - x.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pow2_basic() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(4), 4);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(1023), 1024);
        assert_eq!(next_pow2(1024), 1024);
        assert_eq!(next_pow2(1025), 2048);
    }

    #[test]
    fn ceil_log2_basic() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1 << 20), 20);
        assert_eq!(ceil_log2((1 << 20) + 1), 21);
    }

    #[test]
    fn floor_log2_basic() {
        assert_eq!(floor_log2(0), 0);
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(4), 2);
        assert_eq!(floor_log2(1 << 20), 20);
        assert_eq!(floor_log2((1 << 20) + 5), 20);
    }

    #[test]
    fn log_identities() {
        for x in 1..2000usize {
            let c = ceil_log2(x);
            let f = floor_log2(x);
            assert!((1usize << c) >= x);
            assert!((1usize << f) <= x);
            if x.is_power_of_two() {
                assert_eq!(c, f);
            } else {
                assert_eq!(c, f + 1);
            }
        }
    }
}
