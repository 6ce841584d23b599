//! Stream compaction: gather the elements satisfying a predicate, preserving
//! their order, in `O(n)` work and `O(log n)` depth.
//!
//! The m.s.p. and string-sorting algorithms repeatedly "collect the marked
//! positions" and "write the groups of each substring contiguously"; both
//! are compactions driven by an exclusive prefix sum of 0/1 flags.

use crate::scan::{charge_scan_cost, SCAN_BLOCK};
use rayon::prelude::*;
use sfcp_pram::Ctx;

/// Indices `i` (in increasing order) for which `keep(i)` is true.
#[must_use]
pub fn compact_indices<F>(ctx: &Ctx, n: usize, keep: F) -> Vec<u32>
where
    F: Fn(usize) -> bool + Sync + Send,
{
    compact_with(ctx, n, keep, |i| i as u32)
}

/// [`compact_indices`] writing into a reusable output buffer (cleared and
/// refilled), so per-round compactions in decomposition passes allocate
/// nothing once the caller's buffer is warm.
pub fn compact_indices_into<F>(ctx: &Ctx, n: usize, keep: F, out: &mut Vec<u32>)
where
    F: Fn(usize) -> bool + Sync + Send,
{
    compact_with_into(ctx, n, keep, |i| i as u32, out);
}

/// Stable compaction with a projection: collects `project(i)` for every index
/// `i` with `keep(i)`, in increasing order of `i`.
///
/// The flag and offset intermediates are checked out from the context
/// workspace, so repeated compactions (the m.s.p. contraction loop marks runs
/// every round) do not allocate; only the returned vector is fresh.
#[must_use]
pub fn compact_with<T, F, P>(ctx: &Ctx, n: usize, keep: F, project: P) -> Vec<T>
where
    T: Send + Sync + Copy + Default,
    F: Fn(usize) -> bool + Sync + Send,
    P: Fn(usize) -> T + Sync + Send,
{
    let mut out = Vec::new();
    compact_with_into(ctx, n, keep, project, &mut out);
    out
}

/// [`compact_with`] writing into a reusable output buffer.
///
/// One fused pass per side of the model's scan: a count of the kept
/// indices per scan block, a sequential prefix over the block counts, and
/// a write of each block's kept projections.  `keep` runs twice per index,
/// so it must be cheap and pure.  Charges the model it stands for: a flag
/// round, the offset scan and a scatter round.
pub fn compact_with_into<T, F, P>(ctx: &Ctx, n: usize, keep: F, project: P, out: &mut Vec<T>)
where
    T: Send + Sync + Copy + Default,
    F: Fn(usize) -> bool + Sync + Send,
    P: Fn(usize) -> T + Sync + Send,
{
    let _span = ctx.pass("compact");
    out.clear();
    if n == 0 {
        return;
    }
    assert!(
        n <= u32::MAX as usize,
        "compact_with_into counts its offsets in u32 words"
    );
    ctx.charge_step(n as u64); // flags
    charge_scan_cost(ctx, n); // offsets
    ctx.charge_step(n as u64); // scatter
    let num_blocks = n.div_ceil(SCAN_BLOCK);
    let block = |b: usize| b * SCAN_BLOCK..((b + 1) * SCAN_BLOCK).min(n);
    let mut offsets = ctx.workspace().take_u32(num_blocks);
    offsets.par_iter_mut().enumerate().for_each(|(b, count)| {
        *count = block(b).map(|i| u32::from(keep(i))).sum();
    });
    let mut total = 0u32;
    for offset in offsets.iter_mut() {
        total += std::mem::replace(offset, total);
    }
    out.resize(total as usize, T::default());
    let out_ptr = SendPtr(out.as_mut_ptr());
    let offsets = &offsets;
    (0..num_blocks).into_par_iter().for_each(|b| {
        let ptr = out_ptr;
        let mut slot = offsets[b] as usize;
        for i in block(b) {
            if keep(i) {
                // SAFETY: block b owns the slots from its offset up to the
                // next block's, one per kept index, so each slot is written
                // exactly once.
                unsafe {
                    *ptr.0.add(slot) = project(i);
                }
                slot += 1;
            }
        }
    });
}

#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: `SendPtr` only smuggles a raw base pointer into parallel tasks
// whose writes target disjoint indices; every dereference site carries its
// own SAFETY argument for that disjointness, and the pointee buffer is
// borrowed for the whole parallel region, so it outlives every task.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` across tasks only copies the pointer value —
// no shared-reference method dereferences it, so aliased access to the
// pointee can never originate from the `Sync` impl itself.
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn collects_even_indices() {
        let ctx = Ctx::parallel();
        let idx = compact_indices(&ctx, 10, |i| i % 2 == 0);
        assert_eq!(idx, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn empty_inputs() {
        let ctx = Ctx::parallel();
        assert!(compact_indices(&ctx, 0, |_| true).is_empty());
        assert!(compact_indices(&ctx, 100, |_| false).is_empty());
    }

    #[test]
    fn keeps_everything_in_order() {
        let ctx = Ctx::parallel().with_grain(8);
        let idx = compact_indices(&ctx, 10_000, |_| true);
        assert_eq!(idx.len(), 10_000);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn projection_variant() {
        let ctx = Ctx::parallel();
        let data = [10u32, 11, 12, 13, 14, 15];
        let picked = compact_with(&ctx, data.len(), |i| data[i] % 2 == 1, |i| data[i]);
        assert_eq!(picked, vec![11, 13, 15]);
    }

    proptest! {
        #[test]
        fn matches_filter(v in proptest::collection::vec(0u32..10, 0..5000)) {
            let ctx = Ctx::parallel().with_grain(64);
            let picked = compact_with(&ctx, v.len(), |i| v[i] < 5, |i| v[i]);
            let expected: Vec<u32> = v.iter().copied().filter(|&x| x < 5).collect();
            prop_assert_eq!(picked, expected);
        }
    }

    /// Miri target: the parallel compaction's disjoint scatter of surviving
    /// indices into the output.
    #[test]
    fn miri_parallel_compact_writes_disjoint_slots() {
        let ctx = Ctx::parallel();
        let idx = compact_indices(&ctx, 5000, |i| i % 3 == 0);
        assert_eq!(idx.len(), 1667);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.iter().all(|&i| i % 3 == 0));
    }
}
