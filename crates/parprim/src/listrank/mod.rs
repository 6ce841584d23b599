//! List ranking — one work-efficient engine plus the Wyllie tiny-list path.
//!
//! Step 1 of *Algorithm cycle node labeling* rearranges each cycle into
//! consecutive memory locations; the paper does this with the optimal
//! list-ranking algorithm of Anderson and Miller (`O(log n)` time, `O(n)`
//! work, EREW).  The practical stand-in is a sparse ruling set
//! ([`list_rank`]): deterministically sample ~`n / k` *rulers*, walk the
//! short segments between rulers (in parallel over segments), rank the
//! contracted list of rulers with weighted Wyllie, and expand.  Expected
//! `O(n)` work, `O(k + log n)` depth with `k ≈ log n`.  The segment walks
//! run as lockstep *wavefronts* (`bucket.rs`): the dependent pointer-chase
//! of one walk overlaps the memory latency of its bucket neighbours, so the
//! hot traversal runs at bandwidth instead of latency.
//!
//! At or below `TINY_LIST_MAX` (1,024) elements the ruling-set machinery is
//! pure overhead and [`list_rank`] runs Wyllie's pointer jumping
//! ([`list_rank_wyllie`]) instead: `O(log n)` depth but `O(n log n)` work,
//! charged at its own model cost.  `list_rank_wyllie` is also public as the
//! §8 Wyllie row of the complexity table.
//!
//! The same machinery executes the cycle-min contraction behind
//! [`crate::jump::permutation_cycle_min`] (`ruling.rs` /
//! `cycle_min_contraction_into`), which stays charge-pinned to the
//! documented pointer-jumping substitution via top-ups.
//!
//! The input is a *successor* array: `next[i]` is the element after `i`, and
//! terminal elements satisfy `next[i] == i`.  Several independent lists may
//! share one array — the property the **fused Euler ranking** exploits:
//! `decompose` lays the `2n` Euler-tour arcs and the `m` broken-cycle chain
//! elements out in one successor array and ranks both with a single
//! invocation (see DESIGN.md, "List ranking").  The output rank of an
//! element is its distance (number of hops) to its terminal.

mod bucket;
mod ruling;
mod wyllie;

pub use ruling::is_sampled_ruler;
pub use wyllie::{list_rank_wyllie, list_rank_wyllie_into};

pub(crate) use ruling::{cycle_min_contraction_flagged_core, cycle_min_contraction_into};

use ruling::{charge_sampling_model, sample_chain_rulers, segment_target, TINY_LIST_MAX};
use sfcp_pram::Ctx;

/// The ruler-flag bit of a *flagged* successor word: bit 31 of
/// `flagged[i] = next[i] | RULER_FLAG·(i is a ruler)`.  Successor arrays
/// therefore must stay below `2^31` elements.  See
/// [`list_rank_flagged_into`] for the construction contract.
pub const RULER_FLAG: u32 = 1 << 31;

/// Distance of every element to the terminal of its list: sparse-ruling-set
/// ranking with wavefront walks, or Wyllie pointer jumping at or below
/// 1,024 elements.
///
/// # Panics
/// Panics if `next` contains an out-of-range index.
#[must_use]
pub fn list_rank(ctx: &Ctx, next: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    list_rank_into(ctx, next, &mut out);
    out
}

/// [`list_rank`] writing into a reusable output buffer, so repeated rankings
/// (the fused Euler-tour + cycle-chain pass of a decomposition) allocate
/// nothing once the caller's buffer and the workspace pools are warm.
pub fn list_rank_into(ctx: &Ctx, next: &[u32], out: &mut Vec<u32>) {
    sfcp_pram::faults::on_engine_pass();
    let mut span = ctx.span("list_rank");
    span.attr("n", next.len() as u64);
    let n = next.len();
    out.clear();
    if n == 0 {
        return;
    }
    if n <= TINY_LIST_MAX {
        list_rank_wyllie_into(ctx, next, out);
        return;
    }
    for (i, &s) in next.iter().enumerate() {
        assert!((s as usize) < n, "next[{i}] = {s} out of range");
    }
    let flagged_next = sample_chain_rulers(ctx, next, segment_target(n));
    bucket::rank_core(ctx, &flagged_next, out);
}

/// [`list_rank_into`] over a **flagged** successor array the caller built —
/// the entry point of the `has_pred` fold: callers that lay their successor
/// lists out anyway (the fused Euler ranking of `decompose`) OR the ruler
/// flag into each word as they write it, and the ranking skips its
/// `has_pred` sampling passes entirely (charging them without executing, so
/// the flagged and sampling entry points are charge-identical — see
/// DESIGN.md, "Charge discipline").
///
/// Contract on `flagged[i] = next[i] | RULER_FLAG·ruler(i)`:
///
/// * `next[i] < flagged.len() < 2^31` is the successor (terminals point to
///   themselves), and the flag bit must be set for
///   * every **head** (element no other element points to),
///   * every **terminal** (`next[i] == i`), and
///   * every element of the deterministic hash sample
///     ([`is_sampled_ruler`]`(i, flagged.len())`).
///
/// The flag contract mirrors the internal `sample_chain_rulers` exactly, so
/// the flagged entries produce the same rulers, the same ranks, and the
/// same charges as the sampling entries.  The input is trusted: the range
/// invariant is *not* re-validated here (an out-of-range successor panics
/// on a bounds-checked gather instead of being reported up front), which is
/// what deletes the sampling pre-passes from the hot path.
///
/// For tiny inputs the flags are stripped into a scratch copy and Wyllie
/// runs as usual.
pub fn list_rank_flagged_into(ctx: &Ctx, flagged: &[u32], out: &mut Vec<u32>) {
    sfcp_pram::faults::on_engine_pass();
    let mut span = ctx.span("list_rank_flagged");
    span.attr("n", flagged.len() as u64);
    let n = flagged.len();
    out.clear();
    if n == 0 {
        return;
    }
    if n <= TINY_LIST_MAX {
        // Strip the flag bits (uncharged glue, parallel like the other
        // packing passes) and run the Wyllie path the sampling entries
        // would also take.
        let ws = ctx.workspace();
        let mut plain = ws.take_u32(n);
        crate::intsort::fill_items_uncharged(ctx, &mut plain, |i| flagged[i] & !RULER_FLAG);
        list_rank_wyllie_into(ctx, &plain, out);
        return;
    }
    // The sampling entry's two passes, charged without being executed.
    charge_sampling_model(ctx, n);
    bucket::rank_core(ctx, flagged, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use sfcp_pram::Mode;

    /// Reference ranking by walking each list.
    #[allow(clippy::needless_range_loop)]
    fn reference_ranks(next: &[u32]) -> Vec<u32> {
        let n = next.len();
        let mut rank = vec![0u32; n];
        for start in 0..n {
            let mut steps = 0u32;
            let mut cur = start;
            while next[cur] as usize != cur {
                cur = next[cur] as usize;
                steps += 1;
                assert!(steps as usize <= n, "cycle detected — invalid list input");
            }
            rank[start] = steps;
        }
        rank
    }

    /// Build a successor array for a random permutation split into `lists`
    /// independent lists.
    fn random_lists(n: usize, lists: usize, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut rng);
        let mut next: Vec<u32> = (0..n as u32).collect();
        let chunk = n.div_ceil(lists.max(1));
        for part in perm.chunks(chunk) {
            for w in part.windows(2) {
                next[w[0] as usize] = w[1];
            }
            // Last element of each part is terminal (already self-loop).
        }
        next
    }

    #[test]
    fn empty_and_singleton() {
        let ctx = Ctx::parallel();
        assert!(list_rank_wyllie(&ctx, &[]).is_empty());
        assert_eq!(list_rank_wyllie(&ctx, &[0]), vec![0]);
        assert!(list_rank(&ctx, &[]).is_empty());
        assert_eq!(list_rank(&ctx, &[0]), vec![0]);
    }

    #[test]
    fn single_chain() {
        // 0 -> 1 -> 2 -> 3 (terminal)
        let next = vec![1u32, 2, 3, 3];
        for mode in [Mode::Sequential, Mode::Parallel] {
            let ctx = Ctx::new(mode);
            assert_eq!(list_rank_wyllie(&ctx, &next), vec![3, 2, 1, 0]);
            assert_eq!(list_rank(&ctx, &next), vec![3, 2, 1, 0]);
        }
    }

    #[test]
    fn two_lists() {
        // list A: 4 -> 2 -> 0 (terminal); list B: 3 -> 1 (terminal)
        let next = vec![0u32, 1, 0, 1, 2];
        let ctx = Ctx::parallel();
        assert_eq!(list_rank_wyllie(&ctx, &next), vec![0, 0, 1, 1, 2]);
    }

    /// Ranking on large inputs matches the reference in both modes, and so
    /// does the Wyllie path run at the same size.
    #[test]
    fn large_random_lists_all_engines() {
        let next = random_lists(20_000, 7, 42);
        let expected = reference_ranks(&next);
        for mode in [Mode::Sequential, Mode::Parallel] {
            let ctx = Ctx::new(mode);
            assert_eq!(list_rank(&ctx, &next), expected, "{mode:?}");
            assert_eq!(list_rank_wyllie(&ctx, &next), expected, "{mode:?}");
        }
    }

    #[test]
    fn single_long_chain_exercises_contraction_engines() {
        // One chain of length 50k in index order — heads/terminals handled.
        let n = 50_000;
        let mut next: Vec<u32> = (1..=n as u32).collect();
        next[n - 1] = (n - 1) as u32;
        let ctx = Ctx::parallel();
        for (i, &r) in list_rank(&ctx, &next).iter().enumerate() {
            assert_eq!(r as usize, n - 1 - i);
        }
    }

    #[test]
    fn ruling_set_work_is_smaller_than_wyllie() {
        let next = random_lists(100_000, 3, 9);
        let ctx_w = Ctx::parallel();
        let _ = list_rank_wyllie(&ctx_w, &next);
        let ctx_r = Ctx::parallel();
        let _ = list_rank(&ctx_r, &next);
        assert!(
            ctx_r.stats().work < ctx_w.stats().work,
            "ruling set ({}) should charge less work than Wyllie ({})",
            ctx_r.stats().work,
            ctx_w.stats().work
        );
    }

    /// The ruling-set charges are pinned to exact (work, rounds) values in
    /// both execution modes, across the tiny/contraction threshold: up to
    /// 1,024 elements the Wyllie model, above it the ruling-set model.
    #[test]
    fn cache_bucket_charges_match_ruling_set() {
        // (n, lists, seed, sequential pin, parallel pin) as (work, rounds).
        for (n, lists, seed, seq, par) in [
            (12usize, 2usize, 3u64, (132, 11), (132, 11)), // tiny path (Wyllie)
            (1024, 1, 4, (23_552, 23), (23_552, 23)),      // threshold boundary
            (1025, 1, 5, (7_991, 22), (7_991, 22)),
            (30_000, 5, 6, (236_702, 35), (266_726, 36)),
            (60_000, 1, 7, (469_114, 36), (529_159, 37)),
        ] {
            let next = random_lists(n, lists, seed);
            let expected = reference_ranks(&next);
            for (mode, pin) in [(Mode::Sequential, seq), (Mode::Parallel, par)] {
                let ctx = Ctx::new(mode);
                assert_eq!(list_rank(&ctx, &next), expected, "n={n}, mode={mode:?}");
                assert_eq!(
                    (ctx.stats().work, ctx.stats().rounds),
                    pin,
                    "charges moved at n={n}, mode={mode:?}"
                );
            }
        }
    }

    /// `list_rank` dispatches on size alone: at or below the tiny threshold
    /// it charges exactly what `list_rank_wyllie` charges, above it the
    /// (smaller) ruling-set model.
    #[test]
    fn dispatch_respects_ctx_engine() {
        for (n, tiny) in [(TINY_LIST_MAX, true), (40_000, false)] {
            let next = random_lists(n, 4, 17);
            let dispatched = Ctx::parallel();
            let _ = list_rank(&dispatched, &next);
            let wyllie = Ctx::parallel();
            let _ = list_rank_wyllie(&wyllie, &next);
            if tiny {
                assert_eq!(dispatched.stats(), wyllie.stats(), "n={n}");
            } else {
                assert!(dispatched.stats().work < wyllie.stats().work, "n={n}");
            }
        }
    }

    /// Warm rankings serve every checkout from the workspace pools, on the
    /// ruling-set path and on the Wyllie path.
    #[test]
    fn warm_rankings_allocate_nothing() {
        let next = random_lists(30_000, 3, 23);
        type Ranker = fn(&Ctx, &[u32], &mut Vec<u32>);
        for rank in [list_rank_into as Ranker, list_rank_wyllie_into] {
            let ctx = Ctx::parallel();
            let mut out = Vec::new();
            rank(&ctx, &next, &mut out); // warm up
            let before = ctx.workspace().stats();
            for _ in 0..4 {
                rank(&ctx, &next, &mut out);
            }
            let after = ctx.workspace().stats();
            assert!(after.checkouts > before.checkouts);
            assert_eq!(
                after.misses, before.misses,
                "warm rankings must not allocate fresh buffers"
            );
            assert_eq!(after.outstanding(), 0);
        }
    }

    /// Build the flagged successor array of `next` per the
    /// `list_rank_flagged_into` contract (heads, terminals, hash sample).
    fn flag_successors(next: &[u32]) -> Vec<u32> {
        let n = next.len();
        let mut has_pred = vec![false; n];
        for (i, &s) in next.iter().enumerate() {
            if s as usize != i {
                has_pred[s as usize] = true;
            }
        }
        (0..n)
            .map(|i| {
                let ruler = !has_pred[i] || next[i] as usize == i || is_sampled_ruler(i, n);
                next[i] | (u32::from(ruler) << 31)
            })
            .collect()
    }

    /// The flagged entry point must produce the identical ranks and the
    /// identical charges as the sampling entry point, in both modes, across
    /// the tiny-list threshold.
    #[test]
    fn flagged_entry_matches_sampling_entry() {
        for (n, lists, seed) in [
            (12usize, 2usize, 3u64), // tiny path (Wyllie fall-back)
            (1024, 1, 4),            // threshold boundary
            (1025, 1, 5),
            (30_000, 5, 6),
        ] {
            let next = random_lists(n, lists, seed);
            let flagged = flag_successors(&next);
            for mode in [Mode::Sequential, Mode::Parallel] {
                let sampled = Ctx::new(mode);
                let direct = Ctx::new(mode);
                let mut a = Vec::new();
                let mut b = Vec::new();
                list_rank_into(&sampled, &next, &mut a);
                list_rank_flagged_into(&direct, &flagged, &mut b);
                assert_eq!(a, b, "ranks diverged (n={n}, {mode:?})");
                assert_eq!(
                    sampled.stats(),
                    direct.stats(),
                    "flagged charges diverged (n={n}, {mode:?})"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn all_engines_match_reference(n in 1usize..400, lists in 1usize..8, seed in 0u64..100) {
            let next = random_lists(n, lists, seed);
            let ctx = Ctx::parallel().with_grain(32);
            prop_assert_eq!(list_rank(&ctx, &next), reference_ranks(&next));
        }

        /// Past the tiny threshold with a forced wavefront refill (many short
        /// segments), the bucketed walk must agree with the reference.
        #[test]
        fn bucketed_walk_matches_on_many_short_lists(seed in 0u64..30) {
            let next = random_lists(5000, 600, seed);
            let expected = reference_ranks(&next);
            let ctx = Ctx::parallel();
            prop_assert_eq!(list_rank(&ctx, &next), expected);
        }
    }

    /// Miri target: the wavefront ranking internals (the segment walks and
    /// expansion scatters), above the tiny-list Wyllie fallback threshold.
    #[test]
    fn miri_wavefront_ranking_above_tiny_threshold() {
        let n = 1300usize;
        let mut next: Vec<u32> = (1..=n as u32).collect();
        next[n - 1] = (n - 1) as u32;
        let ctx = Ctx::parallel();
        for (i, &r) in list_rank(&ctx, &next).iter().enumerate() {
            assert_eq!(r as usize, n - 1 - i);
        }
    }
}
