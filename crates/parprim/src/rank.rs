//! Dense renaming ("replace each item by its rank").
//!
//! Both recursive contractions in the paper — step 3 of *Algorithm efficient
//! m.s.p.* and step 3 of *Algorithm sorting strings* — sort a multiset of
//! ordered pairs and then replace every pair by its rank in the sorted order,
//! so that the next round works over a dense alphabet `[0, 2n/3)`.  The
//! label-doubling algorithms (cycle equivalence, tree labelling) also need a
//! renaming step, but there only *distinctness* matters, not order.
//!
//! * [`dense_ranks_by_sort`] — **order-preserving**: equal keys get equal
//!   ranks and the ranks respect the key order.  Backed by the radix sort.
//! * [`dense_ranks`] — order-arbitrary renaming by first occurrence, `O(n)`
//!   expected work with a hash map (the practical stand-in for the arbitrary
//!   CRCW `BB` table).
//!
//! The order-preserving pipeline is fused and allocation-free: the keys are
//! packed into `(key, index)` records, radix-sorted by streaming passes, and
//! then a **single blocked pass** over the sorted records detects group
//! boundaries, prefix-sums the per-block boundary counts, and scatters the
//! ranks.  That pass charges the three §8 model steps it stands for — a
//! boundary-flag round, the group-id scan, and the rank-scatter round (see
//! `DESIGN.md`, "Charge discipline") — and the charges are pinned by the
//! tests below.
//!
//! The `_into` variants write the ranks into a caller-provided buffer so
//! that doubling loops can reuse one rank buffer across all `O(log n)`
//! rounds.

use crate::intsort::{idx_bits_for, radix_sort_recs_prebounded, radix_sort_words, sig_bits};
use crate::scan::{charge_scan_cost, SCAN_BLOCK};
use rayon::prelude::*;
use sfcp_pram::fxhash::FxHashMap;
use sfcp_pram::{Ctx, Rec};

/// Order-preserving dense ranks of `keys`: returns `(ranks, distinct)`, where
/// `ranks[i] < distinct`, `ranks[i] == ranks[j]` iff `keys[i] == keys[j]`, and
/// `ranks[i] < ranks[j]` iff `keys[i] < keys[j]`.
///
/// Work: that of a radix sort plus `O(n)`; depth `O(log n)`.
#[must_use]
pub fn dense_ranks_by_sort(ctx: &Ctx, keys: &[u64]) -> (Vec<u32>, usize) {
    let mut ranks = Vec::new();
    let distinct = dense_ranks_by_sort_into(ctx, keys, &mut ranks);
    (ranks, distinct)
}

/// [`dense_ranks_by_sort`] writing the ranks into a reusable buffer;
/// returns the number of distinct keys.
pub fn dense_ranks_by_sort_into(ctx: &Ctx, keys: &[u64], ranks: &mut Vec<u32>) -> usize {
    sfcp_pram::faults::on_engine_pass();
    let _span = ctx.span("dense_ranks_by_sort");
    let n = keys.len();
    if n == 0 {
        ranks.clear();
        return 0;
    }
    if n == 1 {
        // The model's charges for the trivial case (its radix sort returns
        // before the max scan).
        ctx.charge_step(1); // identity-order setup
        ranks.resize(1, 0);
        ranks[0] = 0;
        ctx.charge_step(1); // boundary flags
        charge_scan_cost(ctx, 1);
        ctx.charge_step(1); // rank scatter
        return 1;
    }
    let max_key = *keys.iter().max().unwrap();
    ctx.charge_step(n as u64); // max scan
    let key_bits = sig_bits(max_key);
    let idx_bits = idx_bits_for(n);
    let ws = ctx.workspace();
    ranks.resize(n, 0);
    if key_bits + idx_bits <= 64 {
        let mut words = ws.take_u64(n);
        let mut scratch = ws.take_u64(n);
        // The packing pass is the model's identity-order setup round.
        ctx.par_update(&mut words, |i, w| *w = (keys[i] << idx_bits) | i as u64);
        radix_sort_words(ctx, &mut words, &mut scratch, key_bits, idx_bits);
        let mask = (1u64 << idx_bits) - 1;
        fused_rank_finish(
            ctx,
            &words,
            |&w| w >> idx_bits,
            |&w| (w & mask) as u32,
            ranks,
        )
    } else {
        let mut recs = ws.take_recs(n);
        let mut scratch = ws.take_recs(n);
        ctx.par_update(&mut recs, |i, r| *r = Rec::new(keys[i], i as u32));
        radix_sort_recs_prebounded(ctx, &mut recs, &mut scratch, key_bits);
        fused_rank_finish(ctx, &recs, |r: &Rec| r.key, |r: &Rec| r.pay, ranks)
    }
}

/// The fused finish: one blocked pass over the *sorted* items detects
/// boundaries, ranks every item, and scatters `ranks[payload] = rank`.
/// `key`/`pay` project the sort key and embedded payload out of an item
/// (a packed `u64` word or a wide [`Rec`]).  Returns the number of distinct
/// keys.
///
/// Model cost (charged up front): the §8 boundary-flag round, group-id scan
/// and rank-scatter round the fused pass stands for.
fn fused_rank_finish<T, K, P>(ctx: &Ctx, items: &[T], key: K, pay: P, ranks: &mut [u32]) -> usize
where
    T: Sync,
    K: Fn(&T) -> u64 + Sync + Send,
    P: Fn(&T) -> u32 + Sync + Send,
{
    let n = items.len();
    debug_assert_eq!(ranks.len(), n);
    ctx.charge_step(n as u64); // boundary flags
    charge_scan_cost(ctx, n); // group ids (an inclusive scan)
    ctx.charge_step(n as u64); // rank scatter

    if !ctx.is_parallel() || n <= SCAN_BLOCK {
        // Single sequential sweep.
        let mut group = 0u32;
        let mut prev = key(&items[0]);
        ranks[pay(&items[0]) as usize] = 0;
        for r in &items[1..] {
            let k = key(r);
            if k != prev {
                group += 1;
                prev = k;
            }
            ranks[pay(r) as usize] = group;
        }
        return group as usize + 1;
    }

    // Blocked: per-block boundary counts, a tiny sequential prefix scan over
    // the blocks, then a per-block rank-and-scatter sweep.
    let num_blocks = n.div_ceil(SCAN_BLOCK);
    let ws = ctx.workspace();
    let mut block_bounds = ws.take_u32(num_blocks);
    {
        let counts_ptr = SendPtr(block_bounds.as_mut_ptr());
        let key = &key;
        (0..num_blocks).into_par_iter().for_each(|b| {
            let cp = counts_ptr;
            let start = b * SCAN_BLOCK;
            let end = (start + SCAN_BLOCK).min(n);
            let mut count = 0u32;
            for i in start.max(1)..end {
                count += u32::from(key(&items[i]) != key(&items[i - 1]));
            }
            // SAFETY: one write per block index.
            unsafe {
                *cp.0.add(b) = count;
            }
        });
    }
    // Exclusive prefix over the per-block boundary counts — routed through
    // the tiled transpose-scan helper, which splits the scan across workers
    // once the block count outgrows a tile (uncharged either way: the fused
    // finish charges the scan model up front).
    let running =
        crate::intsort::transpose_scan_offsets(ctx, &mut block_bounds, 1, num_blocks, None);
    let distinct = running as usize + 1;
    let ranks_ptr = SendPtr(ranks.as_mut_ptr());
    let key = &key;
    let pay = &pay;
    let base = &block_bounds;
    (0..num_blocks).into_par_iter().for_each(|b| {
        let ptr = ranks_ptr;
        let start = b * SCAN_BLOCK;
        let end = (start + SCAN_BLOCK).min(n);
        let mut group = base[b];
        for i in start..end {
            if i > 0 && key(&items[i]) != key(&items[i - 1]) {
                group += 1;
            }
            // SAFETY: payloads form a permutation — one write per slot.
            unsafe {
                *ptr.0.add(pay(&items[i]) as usize) = group;
            }
        }
    });
    distinct
}

/// Order-preserving dense ranks of pairs, ranked lexicographically.
/// Equivalent to `dense_ranks_by_sort` on packed keys when both components
/// fit in 32 bits (which the dense labels produced by the algorithms always
/// do), otherwise falls back to a sort of the raw pairs.
#[must_use]
pub fn dense_ranks_of_pairs(ctx: &Ctx, pairs: &[(u64, u64)]) -> (Vec<u32>, usize) {
    let mut ranks = Vec::new();
    let distinct = dense_ranks_of_pairs_into(ctx, pairs, &mut ranks);
    (ranks, distinct)
}

/// [`dense_ranks_of_pairs`] writing the ranks into a reusable buffer;
/// returns the number of distinct pairs.
pub fn dense_ranks_of_pairs_into(ctx: &Ctx, pairs: &[(u64, u64)], ranks: &mut Vec<u32>) -> usize {
    sfcp_pram::faults::on_engine_pass();
    let _span = ctx.span("dense_ranks_of_pairs");
    let n = pairs.len();
    if n == 0 {
        ranks.clear();
        return 0;
    }
    let max_a = pairs.iter().map(|p| p.0).max().unwrap();
    let max_b = pairs.iter().map(|p| p.1).max().unwrap();
    ctx.charge_step(2 * n as u64);
    // Pack as tightly as possible so the radix sort needs as few counting
    // passes as possible (the dense labels of the contraction algorithms fit
    // in well under 32 bits each).
    let b_bits = (64 - max_b.leading_zeros()).max(1);
    let a_bits = (64 - max_a.leading_zeros()).max(1);
    if a_bits + b_bits <= 64 {
        let ws = ctx.workspace();
        let key_bits = a_bits + b_bits;
        let idx_bits = idx_bits_for(n);
        ranks.resize(n, 0);
        // The packing pass is the model's key-packing map; the extra
        // charge_step(n) is its identity-order setup round, and (for n > 1)
        // the second one its max scan — the key width is already known here.
        ctx.charge_step(n as u64);
        if n > 1 {
            ctx.charge_step(n as u64);
        }
        if key_bits + idx_bits <= 64 {
            let mut words = ws.take_u64(n);
            let mut scratch = ws.take_u64(n);
            ctx.par_update(&mut words, |i, w| {
                let (a, b) = pairs[i];
                *w = (((a << b_bits) | b) << idx_bits) | i as u64;
            });
            radix_sort_words(ctx, &mut words, &mut scratch, key_bits, idx_bits);
            let mask = (1u64 << idx_bits) - 1;
            fused_rank_finish(
                ctx,
                &words,
                |&w| w >> idx_bits,
                |&w| (w & mask) as u32,
                ranks,
            )
        } else {
            let mut recs = ws.take_recs(n);
            let mut scratch = ws.take_recs(n);
            ctx.par_update(&mut recs, |i, r| {
                let (a, b) = pairs[i];
                *r = Rec::new((a << b_bits) | b, i as u32);
            });
            radix_sort_recs_prebounded(ctx, &mut recs, &mut scratch, key_bits);
            fused_rank_finish(ctx, &recs, |r: &Rec| r.key, |r: &Rec| r.pay, ranks)
        }
    } else {
        // Rare path: rank via a full comparison sort of the pairs.
        let mut idx: Vec<u32> = (0..n as u32).collect();
        ctx.par_sort_unstable_by_key(&mut idx, |&i| pairs[i as usize]);
        ranks.resize(n, 0);
        let mut distinct = 0u32;
        for (j, &i) in idx.iter().enumerate() {
            if j > 0 && pairs[idx[j - 1] as usize] != pairs[i as usize] {
                distinct += 1;
            }
            ranks[i as usize] = distinct;
        }
        ctx.charge_step(n as u64);
        distinct as usize + 1
    }
}

/// Order-arbitrary dense renaming: equal keys get equal labels, distinct keys
/// get distinct labels in `[0, distinct)`, but the numeric order of labels is
/// unspecified (first occurrence wins).  `O(n)` expected work.
#[must_use]
pub fn dense_ranks(ctx: &Ctx, keys: &[u64]) -> (Vec<u32>, usize) {
    sfcp_pram::faults::on_engine_pass();
    let _span = ctx.span("dense_ranks");
    let n = keys.len();
    ctx.charge_step(n as u64);
    let mut map: FxHashMap<u64, u32> = FxHashMap::default();
    let mut out = Vec::with_capacity(n);
    for &k in keys {
        let next = map.len() as u32;
        let id = *map.entry(k).or_insert(next);
        out.push(id);
    }
    (out, map.len())
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
    use rand::prelude::*;
    use sfcp_pram::Mode;

    fn check_consistent(keys: &[u64], ranks: &[u32], distinct: usize, ordered: bool) {
        assert_eq!(keys.len(), ranks.len());
        if !keys.is_empty() {
            let max_rank = ranks.iter().copied().max().unwrap() as usize + 1;
            assert_eq!(max_rank, distinct, "ranks must be dense in [0, distinct)");
        }
        for i in 0..keys.len() {
            for j in 0..keys.len() {
                assert_eq!(
                    keys[i] == keys[j],
                    ranks[i] == ranks[j],
                    "equality preserved"
                );
                if ordered {
                    assert_eq!(keys[i] < keys[j], ranks[i] < ranks[j], "order preserved");
                }
            }
        }
    }

    /// Reference order-preserving ranks: the number of distinct smaller
    /// keys, via a sorted, deduplicated copy.
    fn reference_ranks<K: Ord + Copy>(keys: &[K]) -> (Vec<u32>, usize) {
        let mut uniq = keys.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let ranks = keys
            .iter()
            .map(|k| uniq.binary_search(k).unwrap() as u32)
            .collect();
        (ranks, uniq.len())
    }

    #[test]
    fn by_sort_small() {
        let ctx = Ctx::parallel();
        let keys = [30u64, 10, 20, 10, 30, 30];
        let (ranks, distinct) = dense_ranks_by_sort(&ctx, &keys);
        assert_eq!(distinct, 3);
        assert_eq!(ranks, vec![2, 0, 1, 0, 2, 2]);
        check_consistent(&keys, &ranks, distinct, true);
    }

    #[test]
    fn by_sort_empty() {
        let ctx = Ctx::parallel();
        let (ranks, distinct) = dense_ranks_by_sort(&ctx, &[]);
        assert!(ranks.is_empty());
        assert_eq!(distinct, 0);
    }

    #[test]
    fn pairs_example_from_paper() {
        // Example 3.4: pairs (1,3),(2,3),(4,3),(1,2),(3,4),(2,#),(1,1),(1,3),(2,2),(3,2)
        // sort to (1,1),(1,2),(1,3),(1,3),(2,#),(2,2),(2,3),(3,2),(3,4),(4,3) and
        // get ranks 1,2,3,3,4,5,6,7,8,9 (0-based: 0..8).  We model '#' (blank)
        // as 0 and shift real symbols by +1.
        let ctx = Ctx::parallel();
        let bl = 0u64; // blank
        let pairs: Vec<(u64, u64)> = vec![
            (2, 4),
            (3, 4),
            (5, 4),
            (2, 3),
            (4, 5),
            (3, bl),
            (2, 2),
            (2, 4),
            (3, 3),
            (4, 3),
        ];
        let (ranks, distinct) = dense_ranks_of_pairs(&ctx, &pairs);
        assert_eq!(distinct, 9);
        // (1,3) appears twice (indices 0 and 7) and must share a rank.
        assert_eq!(ranks[0], ranks[7]);
        // Expected ranks from the paper (1-based 1,2,3,3,4,5,6,7,8,9 in pair order
        // (1,1),(1,2),(1,3),(1,3),(2),(2,2),(2,3),(3,2),(3,4),(4,3)):
        // our pair list order maps to 3,6,9,2,8,4,1,3,5 per the paper's resulting string
        // (7,3,6,9,2,8,4,1,3,5)... check a few:
        assert_eq!(ranks[6], 0); // (1,1) is the smallest pair
        assert_eq!(ranks[3], 1); // (1,2)
        assert_eq!(ranks[0], 2); // (1,3)
        assert_eq!(ranks[5], 3); // (2,#) — the padded pair sorts before (2,2)
        assert_eq!(ranks[2], 8); // (4,3) is the largest
        check_consistent(
            &pairs
                .iter()
                .map(|&(a, b)| (a << 32) | b)
                .collect::<Vec<_>>(),
            &ranks,
            distinct,
            true,
        );
    }

    #[test]
    fn arbitrary_ranks_preserve_equality_only() {
        let ctx = Ctx::parallel();
        let keys = [7u64, 7, 2, 9, 2, 7];
        let (ranks, distinct) = dense_ranks(&ctx, &keys);
        assert_eq!(distinct, 3);
        check_consistent(&keys, &ranks, distinct, false);
        // First-occurrence numbering.
        assert_eq!(ranks[0], 0);
        assert_eq!(ranks[2], 1);
        assert_eq!(ranks[3], 2);
    }

    /// The fused finish must match the reference ranks — including at the
    /// block boundaries around `SCAN_BLOCK` — and charge the exact pinned
    /// (work, rounds) of the §8 model (radix sort plus boundary, scan and
    /// scatter rounds) in both modes.
    #[test]
    fn engines_agree_and_charge_identically() {
        let mut rng = StdRng::seed_from_u64(23);
        // (n, sequential pin, parallel pin) as (work, rounds).
        for (n, seq, par) in [
            (1usize, (4, 4), (4, 4)),
            (2, (30, 8), (30, 8)),
            (SCAN_BLOCK - 1, (26_620, 8), (26_620, 8)),
            (SCAN_BLOCK, (28_804, 11), (28_804, 11)),
            (SCAN_BLOCK + 1, (28_811, 12), (32_914, 13)),
            (40_000, (280_516, 15), (322_094, 16)),
        ] {
            let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1 + n as u64 / 2)).collect();
            let expected = reference_ranks(&keys);
            for (mode, pin) in [(Mode::Sequential, seq), (Mode::Parallel, par)] {
                let ctx = Ctx::new(mode);
                let got = dense_ranks_by_sort(&ctx, &keys);
                assert_eq!(got, expected, "rank mismatch at n={n}, mode={mode:?}");
                assert_eq!(
                    (ctx.stats().work, ctx.stats().rounds),
                    pin,
                    "charges moved at n={n}, mode={mode:?}"
                );
            }
        }
    }

    /// The same pins for the pair path: the word-packed branch, the
    /// key-only record branch (30+30-bit keys), and the comparison-sort
    /// fallback for pairs too wide to pack.
    #[test]
    fn pair_engines_agree_and_charge_identically() {
        let mut rng = StdRng::seed_from_u64(29);
        let narrow: Vec<(u64, u64)> = (0..20_000)
            .map(|_| (rng.gen_range(0..500), rng.gen_range(0..500)))
            .collect();
        // 30+30-bit keys: packed key fits in 64 bits, key + index does not —
        // the middle (wide-record) branch of the packed pair path.
        let mid: Vec<(u64, u64)> = (0..20_000)
            .map(|_| {
                (
                    rng.gen_range(1 << 29..1u64 << 30),
                    rng.gen_range(1 << 29..1u64 << 30),
                )
            })
            .collect();
        let wide: Vec<(u64, u64)> = (0..5_000)
            .map(|_| {
                (
                    rng.gen_range(0..u64::MAX / 2),
                    rng.gen_range(0..u64::MAX / 2),
                )
            })
            .collect();
        // (pairs, sequential pin, parallel pin) as (work, rounds).
        for (pairs, seq, par) in [
            (&narrow, (201_028, 16), (222_071, 17)),
            (&mid, (286_156, 28), (312_327, 29)),
            (&wide, (80_000, 15), (80_000, 15)),
        ] {
            let expected = reference_ranks(pairs);
            for (mode, pin) in [(Mode::Sequential, seq), (Mode::Parallel, par)] {
                let ctx = Ctx::new(mode);
                assert_eq!(dense_ranks_of_pairs(&ctx, pairs), expected, "mode={mode:?}");
                assert_eq!((ctx.stats().work, ctx.stats().rounds), pin, "mode={mode:?}");
            }
        }
    }

    /// The `_into` variants stop allocating once the workspace is warm.
    #[test]
    fn into_variant_reuses_buffers_across_rounds() {
        let keys: Vec<u64> = (0..30_000u64).map(|i| i % 977).collect();
        let ctx = Ctx::parallel();
        let mut ranks = Vec::new();
        let _ = dense_ranks_by_sort_into(&ctx, &keys, &mut ranks); // warm-up
        let before = ctx.workspace().stats();
        for _ in 0..8 {
            let distinct = dense_ranks_by_sort_into(&ctx, &keys, &mut ranks);
            assert_eq!(distinct, 977);
        }
        let after = ctx.workspace().stats();
        assert_eq!(
            after.misses, before.misses,
            "warm dense-rank rounds must not allocate fresh buffers"
        );
    }

    proptest! {
        #[test]
        fn sort_ranks_match_reference(keys in proptest::collection::vec(0u64..200, 0..1500)) {
            let ctx = Ctx::parallel().with_grain(64);
            prop_assert_eq!(dense_ranks_by_sort(&ctx, &keys), reference_ranks(&keys));
        }

        #[test]
        fn hash_ranks_preserve_equality(keys in proptest::collection::vec(0u64..50, 0..1000)) {
            let ctx = Ctx::parallel();
            let (ranks, distinct) = dense_ranks(&ctx, &keys);
            let mut uniq: Vec<u64> = keys.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(distinct, uniq.len());
            for i in 0..keys.len() {
                for j in (i + 1)..keys.len() {
                    prop_assert_eq!(keys[i] == keys[j], ranks[i] == ranks[j]);
                }
            }
        }
    }

    /// Miri target: the rank-scatter pointer writes, on a key set whose
    /// dense ranks are known in closed form (`gcd(31, 53) = 1`, so every
    /// residue occurs and rank == key value).
    #[test]
    fn miri_dense_ranks_by_sort() {
        let keys: Vec<u64> = (0..1500u64).map(|i| (i * 31) % 53).collect();
        let ctx = Ctx::parallel();
        let (ranks, distinct) = dense_ranks_by_sort(&ctx, &keys);
        assert_eq!(distinct, 53);
        for (r, k) in ranks.iter().zip(&keys) {
            assert_eq!(u64::from(*r), *k);
        }
    }
}
