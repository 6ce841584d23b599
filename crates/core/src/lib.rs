//! # sfcp — the single function coarsest partition problem
//!
//! Given a set `S = {0, …, n-1}`, a function `f : S → S` and an initial
//! partition `B` of `S`, compute the **coarsest** partition `Q` that refines
//! `B` and is stable under `f` (every block maps into a single block).  This
//! crate reproduces the parallel algorithm of
//!
//! > J. F. JáJá and K. W. Ryu, *An efficient parallel algorithm for the
//! > single function coarsest partition problem*, SPAA 1993 / Theoretical
//! > Computer Science 129 (1994) 293–307,
//!
//! together with the sequential and parallel baselines it is compared
//! against:
//!
//! | Algorithm | Module | Complexity (work, depth) |
//! |-----------|--------|--------------------------|
//! | naive fixpoint refinement (oracle) | [`naive`] | `O(n²)`, sequential |
//! | Hopcroft partition refinement \[1\]  | [`hopcroft`] | `O(n log n)`, sequential |
//! | Paige–Tarjan–Bonic-style linear \[16\] | [`sequential`] | `O(n)`, sequential |
//! | label doubling (Galley–Iliopoulos-style \[10\]) | [`doubling`] | `O(n log n)`, `O(log² n)` |
//! | **JáJá–Ryu parallel algorithm** | [`parallel`] | `O(n log log n)`-style, `O(log n)`-style (see DESIGN.md for the substitutions) |
//!
//! ## Quickstart
//!
//! ```
//! use sfcp::{coarsest_partition, Algorithm, Instance};
//! use sfcp_pram::Ctx;
//!
//! // The 16-node example of Fig. 1 in the paper.
//! let instance = Instance::paper_example();
//! let ctx = Ctx::parallel();
//! let q = coarsest_partition(&ctx, &instance, Algorithm::Parallel);
//! assert_eq!(q.num_blocks(), 4);
//! sfcp::verify::assert_valid(&instance, &q);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod cycle_equivalence;
pub mod doubling;
pub mod error;
pub mod hopcroft;
pub mod naive;
pub mod parallel;
pub mod problem;
pub mod sequential;
pub mod verify;

pub use cycle_equivalence::GroupingMethod;
pub use error::DecomposeError;
pub use parallel::{try_coarsest_parallel, ParallelConfig, TreeLabelMethod};
pub use problem::{Instance, Partition};
pub use verify::{verify, VerifyError};

use sfcp_pram::Ctx;

/// The algorithms available through the [`coarsest_partition`] facade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Naive fixpoint refinement (the test oracle).
    Naive,
    /// Hopcroft-style `O(n log n)` sequential partition refinement.
    Hopcroft,
    /// Linear-time sequential algorithm (Paige–Tarjan–Bonic style).
    SequentialLinear,
    /// Parallel label doubling, `O(n log n)` work (Galley–Iliopoulos style).
    Doubling,
    /// The paper's parallel algorithm (default configuration).
    #[default]
    Parallel,
}

/// Solve the coarsest partition problem with the chosen algorithm.
///
/// The sequential algorithms run no parallel loops but still charge their
/// work to the tracker of `ctx`, so all algorithms can be compared in the
/// same work/depth tables.
#[must_use]
pub fn coarsest_partition(ctx: &Ctx, instance: &Instance, algorithm: Algorithm) -> Partition {
    match algorithm {
        Algorithm::Naive => {
            let q = naive::coarsest_naive(instance);
            ctx.charge_step(instance.len() as u64);
            q
        }
        Algorithm::Hopcroft => {
            let q = hopcroft::coarsest_hopcroft(instance);
            ctx.charge_step(instance.len() as u64);
            q
        }
        Algorithm::SequentialLinear => {
            let q = sequential::coarsest_sequential(instance);
            ctx.charge_step(instance.len() as u64);
            q
        }
        Algorithm::Doubling => doubling::coarsest_doubling(ctx, instance),
        Algorithm::Parallel => parallel::coarsest_parallel(ctx, instance),
    }
}

/// Fallible [`coarsest_partition`]: validates the instance envelope and
/// converts any mid-run panic — internal invariant asserts, faults injected
/// through the context's [`sfcp_pram::faults::Faults`] — into a typed
/// [`DecomposeError`].  On an execution failure the context has been through
/// [`Ctx::recover`], so its warm buffer pools survive and retrying the
/// identical call is sound.
///
/// # Errors
/// [`DecomposeError::InvalidInput`] for oversized instances,
/// [`DecomposeError::Execution`] when the run unwinds.
pub fn try_coarsest_partition(
    ctx: &Ctx,
    instance: &Instance,
    algorithm: Algorithm,
) -> Result<Partition, DecomposeError> {
    if let Algorithm::Parallel = algorithm {
        return parallel::try_coarsest_parallel(ctx, instance);
    }
    sfcp_pram::check_index_width(instance.len()).map_err(DecomposeError::InvalidInput)?;
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        coarsest_partition(ctx, instance, algorithm)
    })) {
        Ok(q) => Ok(q),
        Err(payload) => {
            let err = sfcp_pram::Error::from_panic(payload);
            ctx.recover();
            Err(err.into())
        }
    }
}

/// All algorithms, handy for tests and benchmark sweeps.
pub const ALL_ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Naive,
    Algorithm::Hopcroft,
    Algorithm::SequentialLinear,
    Algorithm::Doubling,
    Algorithm::Parallel,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_runs_every_algorithm_on_the_paper_example() {
        let instance = Instance::paper_example();
        let expected = Partition::new(sfcp_forest::generators::paper_example_expected_q());
        for algorithm in ALL_ALGORITHMS {
            let ctx = Ctx::parallel();
            let q = coarsest_partition(&ctx, &instance, algorithm);
            assert!(q.same_partition(&expected), "{algorithm:?}");
            verify::assert_valid(&instance, &q);
        }
    }

    #[test]
    fn all_algorithms_agree_on_random_instances() {
        for seed in 0..6 {
            let instance = Instance::random(400, 3, seed);
            let ctx = Ctx::parallel();
            let reference = coarsest_partition(&ctx, &instance, Algorithm::Naive);
            for algorithm in ALL_ALGORITHMS {
                let q = coarsest_partition(&ctx, &instance, algorithm);
                assert!(q.same_partition(&reference), "{algorithm:?} on seed {seed}");
            }
        }
    }

    #[test]
    fn charges_are_recorded_for_every_algorithm() {
        let instance = Instance::random(1000, 3, 1);
        for algorithm in ALL_ALGORITHMS {
            let ctx = Ctx::parallel();
            let _ = coarsest_partition(&ctx, &instance, algorithm);
            assert!(ctx.stats().work > 0, "{algorithm:?} charged no work");
        }
    }
}
