//! The label-doubling parallel baseline (Galley–Iliopoulos style, \[10\] in the
//! paper): `O(n log n)` work.
//!
//! Round `k` assigns every element a label that encodes the B-label sequence
//! of its first `2^k` iterates (by ranking the pair of round-`(k-1)` labels of
//! `x` and of `f^(2^(k-1))(x)`).  After `⌈log₂(n+1)⌉` rounds the label
//! determines the entire infinite B-label sequence (Lemma 2.1(ii)), i.e. the
//! coarsest partition.  This is the natural "obvious" parallel algorithm the
//! paper improves on: the per-round integer sort makes it `O(n log n)` work,
//! versus the paper's `O(n log log n)`.

use crate::problem::{Instance, Partition};
use sfcp_parprim::rank::{dense_ranks_by_sort, dense_ranks_of_pairs_into};
use sfcp_pram::Ctx;

/// Compute the coarsest stable refinement by label doubling.
///
/// All per-round scratch (the pair list, the next label array, the next jump
/// array) is checked out from the context workspace once and ping-ponged
/// across the `O(log n)` rounds, so the loop allocates O(1) buffers per run.
#[must_use]
pub fn coarsest_doubling(ctx: &Ctx, instance: &Instance) -> Partition {
    let n = instance.len();
    if n == 0 {
        return Partition::new(Vec::new());
    }
    let f = instance.f();

    let (mut labels, mut distinct) = dense_ranks_by_sort(
        ctx,
        &instance
            .blocks()
            .iter()
            .map(|&x| u64::from(x))
            .collect::<Vec<_>>(),
    );
    let mut jump: Vec<u32> = f.to_vec();

    let ws = ctx.workspace();
    let mut pairs = ws.take_pairs(n);
    let mut next_labels = ws.take_u32(0);
    let mut next_jump = ws.take_u32(n);

    let rounds = sfcp_pram::ceil_log2(n + 1).max(1);
    for _ in 0..rounds {
        if distinct == n {
            break; // already fully refined: all labels distinct
        }
        {
            let labels = &labels;
            let jump = &jump;
            ctx.par_update(&mut pairs, |x, p| {
                *p = (u64::from(labels[x]), u64::from(labels[jump[x] as usize]));
            });
        }
        let new_distinct = dense_ranks_of_pairs_into(ctx, &pairs, &mut next_labels);
        {
            let jump_ref = &jump;
            ctx.par_update(&mut next_jump, |x, j| *j = jump_ref[jump_ref[x] as usize]);
        }
        // The refinement is monotone: once the block count stops growing the
        // partition is stable under further doubling and we can stop early.
        let stop = new_distinct == distinct;
        std::mem::swap(&mut labels, &mut *next_labels);
        distinct = new_distinct;
        std::mem::swap(&mut jump, &mut *next_jump);
        if stop {
            break;
        }
    }
    Partition::new(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::coarsest_naive;
    use crate::verify::assert_valid;
    use proptest::prelude::*;

    #[test]
    fn paper_example() {
        let inst = Instance::paper_example();
        let ctx = Ctx::parallel();
        let q = coarsest_doubling(&ctx, &inst);
        let expected = Partition::new(sfcp_forest::generators::paper_example_expected_q());
        assert!(q.same_partition(&expected));
        assert_valid(&inst, &q);
    }

    #[test]
    fn edge_cases_match_naive() {
        let ctx = Ctx::parallel();
        for inst in [
            Instance::new(vec![], vec![]),
            Instance::new(vec![0], vec![3]),
            Instance::new(vec![1, 0], vec![0, 0]),
            Instance::new(vec![0; 9], (0..9).collect()),
            Instance::new((0..9).collect(), vec![0; 9]),
            Instance::deep(200, 1, 2, 7),
        ] {
            let q = coarsest_doubling(&ctx, &inst);
            assert!(q.same_partition(&coarsest_naive(&inst)));
        }
    }

    #[test]
    fn early_stop_does_not_change_the_answer() {
        // An instance that is already stable: B classes = coarsest classes.
        let inst = Instance::new(vec![1, 2, 3, 4, 5, 0], vec![0, 1, 0, 1, 0, 1]);
        let ctx = Ctx::parallel();
        let q = coarsest_doubling(&ctx, &inst);
        assert!(q.same_partition(&Partition::new(vec![0, 1, 0, 1, 0, 1])));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_naive(n in 1usize..120, blocks in 1usize..4, seed in 0u64..200) {
            let inst = Instance::random(n, blocks, seed);
            let ctx = Ctx::parallel().with_grain(32);
            let q = coarsest_doubling(&ctx, &inst);
            prop_assert!(q.same_partition(&coarsest_naive(&inst)));
        }
    }
}
