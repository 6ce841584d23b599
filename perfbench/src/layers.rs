//! The calls the benchmark times, one per layer, each through the layer's
//! public functions and configured like the paper's algorithm
//! (`ParallelConfig::default()`).

use sfcp::cycle_equivalence::group_cycles;
use sfcp::{Algorithm, Instance, ParallelConfig, Partition};
use sfcp_forest::Decomposition;
use sfcp_pram::Ctx;
use sfcp_strings::{
    booth_msp, minimal_starting_point, rotation, smallest_period, smallest_period_seq,
};

/// The paper's algorithm through the library facade.
#[must_use]
pub fn solve(ctx: &Ctx, inst: &Instance) -> Partition {
    sfcp::coarsest_partition(ctx, inst, Algorithm::Parallel)
}

/// The linear-time sequential baseline.
#[must_use]
pub fn sequential(inst: &Instance) -> Partition {
    sfcp::sequential::coarsest_sequential(inst)
}

/// Pseudoforest decomposition (the algorithm's step 1).
#[must_use]
pub fn decompose(ctx: &Ctx, inst: &Instance) -> Decomposition {
    sfcp_forest::decompose(ctx, inst.graph(), ParallelConfig::default().cycle_method)
}

/// Canonical primitive label string of every cycle: smallest period, then
/// minimal starting point, with the parallel routines on cycles at or above
/// the solver's `parallel_strings_threshold` and the sequential ones below.
#[must_use]
pub fn canonize(ctx: &Ctx, inst: &Instance, dec: &Decomposition) -> Vec<Vec<u32>> {
    let config = ParallelConfig::default();
    let b = inst.blocks();
    let cycles: Vec<&[u32]> = dec.cycles().collect();
    ctx.par_map_slice(&cycles, |cycle| {
        let s: Vec<u32> = cycle.iter().map(|&x| b[x as usize]).collect();
        let (p, r) = if s.len() >= config.parallel_strings_threshold {
            let p = smallest_period(ctx, &s);
            (p, minimal_starting_point(ctx, &s[..p], config.msp_method))
        } else {
            let p = smallest_period_seq(&s);
            (p, booth_msp(&s[..p]))
        };
        rotation(&s[..p], r)
    })
}

/// Group equal canonical cycle strings (the algorithm's Section 3.2).
#[must_use]
pub fn group(ctx: &Ctx, strings: &[Vec<u32>]) -> Vec<u32> {
    group_cycles(ctx, strings, ParallelConfig::default().grouping)
}
