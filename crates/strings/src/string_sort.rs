//! Lexicographic sorting of variable-length strings — *Algorithm sorting
//! strings* (Section 3.1, Lemma 3.8).
//!
//! Input: a list of `m` strings over an alphabet of size polynomial in `n`,
//! where `n` is the total number of symbols.  The paper's algorithm contracts
//! the instance round by round: every string is cut into ordered pairs (the
//! last pair of an odd-length string padded with the blank `#`, which
//! precedes every symbol), all pairs are integer-sorted and replaced by their
//! ranks, halving every string; after `O(log log n)` rounds the instance has
//! at most `n / log n` symbols and a comparison sort finishes the job.  With
//! the radix sort standing in for Bhatt-et-al. integer sorting this is the
//! `O(n log log n)`-work, `O(log n)`-depth algorithm of Lemma 3.8.
//!
//! The key invariant (checked by the property tests) is that the pair→rank
//! encoding preserves the relative lexicographic order of the strings at
//! every round, including prefix cases (`"ab" < "abc"`), because the blank
//! sorts strictly below every real symbol.

use rayon::prelude::*;
use sfcp_parprim::merge::parallel_merge_sort;
use sfcp_parprim::rank::dense_ranks_of_pairs_into;
use sfcp_pram::Ctx;

/// Fallible [`sort_strings`]: validates the size envelope and converts any
/// mid-run panic (internal assert or fault injected through
/// [`sfcp_pram::faults`]) into a typed [`sfcp_pram::Error`], running
/// [`Ctx::recover`] before returning so the context stays usable.
///
/// # Errors
/// [`sfcp_pram::Error::TooLarge`] when the string count or total symbol
/// count reaches `2^31`; [`sfcp_pram::Error::Injected`] /
/// [`sfcp_pram::Error::Panicked`] when the run unwinds.
pub fn try_sort_strings(ctx: &Ctx, strings: &[Vec<u32>]) -> Result<Vec<u32>, sfcp_pram::Error> {
    sfcp_pram::check_index_width(strings.len())?;
    let total: usize = strings.iter().map(Vec::len).sum();
    sfcp_pram::check_index_width(total)?;
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sort_strings(ctx, strings))) {
        Ok(order) => Ok(order),
        Err(payload) => {
            let err = sfcp_pram::Error::from_panic(payload);
            ctx.recover();
            Err(err)
        }
    }
}

/// Sort `strings` lexicographically with the paper's pair contraction and
/// return the permutation of indices in sorted order.  Equal strings keep
/// their original relative order (the result is a stable order), which also
/// makes the output deterministic.
#[must_use]
pub fn sort_strings(ctx: &Ctx, strings: &[Vec<u32>]) -> Vec<u32> {
    let m = strings.len();
    if m <= 1 {
        return (0..m as u32).collect();
    }
    let total_symbols: usize = strings.iter().map(Vec::len).sum();
    // Encoded strings: symbols shifted by +1 so that 0 is the blank `#`.
    let mut encoded: Vec<Vec<u64>> = ctx.par_map_slice(strings, |s| {
        s.iter().map(|&c| u64::from(c) + 1).collect::<Vec<u64>>()
    });

    // Step 4 threshold: keep contracting until at most n / log n symbols
    // remain (or every string is a single symbol).
    let threshold =
        (total_symbols / (sfcp_pram::ceil_log2(total_symbols.max(2)) as usize).max(1)).max(64);

    // The pair list and rank buffer are workspace-backed and reused across
    // the O(log log n) contraction rounds.
    let ws = ctx.workspace();
    let mut pairs = ws.take_pairs(0);
    let mut ranks = ws.take_u32(0);

    loop {
        let current_total: usize = encoded.iter().map(Vec::len).sum();
        let max_len = encoded.iter().map(Vec::len).max().unwrap_or(0);
        ctx.charge_step(m as u64);
        if max_len <= 1 || current_total <= threshold {
            break;
        }

        // Steps 2–3: cut every string into pairs, rank all pairs globally,
        // rewrite every string as its sequence of pair ranks.
        let pairs_per_string: Vec<u64> =
            ctx.par_map_slice(&encoded, |s| s.len().div_ceil(2) as u64);
        let (offsets, total_pairs) = sfcp_parprim::scan::exclusive_scan(ctx, &pairs_per_string);
        let total_pairs = total_pairs as usize;

        pairs.resize(total_pairs, (0, 0));
        {
            let ptr = SendPtr(pairs.as_mut_ptr());
            let encoded_ref = &encoded;
            ctx.par_for_idx(m, |i| {
                let s = &encoded_ref[i];
                let base = offsets[i] as usize;
                let p = ptr;
                for g in 0..s.len().div_ceil(2) {
                    let a = s[2 * g];
                    let b = if 2 * g + 1 < s.len() { s[2 * g + 1] } else { 0 };
                    // SAFETY: every (string, group) pair owns one distinct slot.
                    unsafe {
                        *p.0.add(base + g) = (a, b);
                    }
                }
            });
            ctx.charge_work(current_total as u64);
        }

        let _distinct = dense_ranks_of_pairs_into(ctx, &pairs, &mut ranks);

        encoded = ctx.par_map_idx(m, |i| {
            let base = offsets[i] as usize;
            let count = pairs_per_string[i] as usize;
            // Shift by +1 to keep 0 reserved as the blank in the next round.
            (0..count).map(|g| u64::from(ranks[base + g]) + 1).collect()
        });
    }

    // Step 5: comparison sort of the contracted instance.  Keys are
    // (encoded string, original index) so that equal strings stay in their
    // original relative order.
    let mut keyed: Vec<(Vec<u64>, u32)> = encoded
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, i as u32))
        .collect();
    ctx.charge_step(m as u64);
    sort_keyed(ctx, &mut keyed);
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Final comparison sort: if the contracted strings are single symbols we can
/// sort fixed-size keys with the parallel merge sort; otherwise fall back to
/// a slice-comparison sort (still on an instance of ≤ n / log n symbols).
fn sort_keyed(ctx: &Ctx, keyed: &mut [(Vec<u64>, u32)]) {
    let all_unit = keyed.iter().all(|(s, _)| s.len() <= 1);
    if all_unit {
        let mut fixed: Vec<(u64, u32)> = keyed
            .iter()
            .map(|(s, i)| (s.first().copied().map_or(0, |x| x), *i))
            .collect();
        parallel_merge_sort(ctx, &mut fixed);
        let lookup: std::collections::HashMap<u32, usize> = fixed
            .iter()
            .enumerate()
            .map(|(pos, &(_, i))| (i, pos))
            .collect();
        keyed.sort_by_key(|(_, i)| lookup[i]);
        ctx.charge_step(keyed.len() as u64);
    } else {
        let total: u64 = keyed.iter().map(|(s, _)| s.len() as u64).sum();
        ctx.charge_work(total * u64::from(sfcp_pram::ceil_log2(keyed.len().max(2))));
        ctx.charge_rounds(u64::from(sfcp_pram::ceil_log2(keyed.len().max(2))));
        keyed.par_sort();
    }
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

    fn reference_sort(strings: &[Vec<u32>]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..strings.len() as u32).collect();
        order.sort_by(|&a, &b| {
            strings[a as usize]
                .cmp(&strings[b as usize])
                .then(a.cmp(&b))
        });
        order
    }

    fn check(strings: &[Vec<u32>]) {
        let ctx = Ctx::parallel().with_grain(16);
        assert_eq!(
            sort_strings(&ctx, strings),
            reference_sort(strings),
            "contraction sort on {strings:?}"
        );
    }

    #[test]
    fn empty_and_singleton() {
        check(&[]);
        check(&[vec![]]);
        check(&[vec![3, 1, 4]]);
    }

    #[test]
    fn basic_cases() {
        check(&[vec![2], vec![1], vec![3]]);
        check(&[vec![1, 2], vec![1], vec![1, 2, 3], vec![1, 1]]);
        // Prefix relationships.
        check(&[vec![1, 2, 3], vec![1, 2], vec![1], vec![], vec![1, 2, 3, 0]]);
        // Duplicates must stay in input order (stability).
        check(&[vec![5, 5], vec![5, 5], vec![5], vec![5, 5]]);
    }

    #[test]
    fn different_length_scales() {
        let strings = vec![
            vec![1; 100],
            vec![1; 99],
            {
                let mut s = vec![1; 99];
                s.push(0);
                s
            },
            vec![0; 3],
            vec![2],
            vec![],
        ];
        check(&strings);
    }

    #[test]
    fn large_random_instance() {
        let mut rng = StdRng::seed_from_u64(7);
        let strings: Vec<Vec<u32>> = (0..2000)
            .map(|_| {
                let len = rng.gen_range(0..40);
                (0..len).map(|_| rng.gen_range(0..6)).collect()
            })
            .collect();
        check(&strings);
    }

    #[test]
    fn skewed_lengths() {
        let mut rng = StdRng::seed_from_u64(11);
        // A few very long strings sharing long prefixes plus many short ones:
        // the regime where contraction pays off.
        let mut strings: Vec<Vec<u32>> = Vec::new();
        let shared: Vec<u32> = (0..1000).map(|_| rng.gen_range(0..3)).collect();
        for _ in 0..8 {
            let mut s = shared.clone();
            let extra = rng.gen_range(0..10);
            for _ in 0..extra {
                s.push(rng.gen_range(0..3));
            }
            strings.push(s);
        }
        for _ in 0..200 {
            let len = rng.gen_range(0..5);
            strings.push((0..len).map(|_| rng.gen_range(0..3)).collect());
        }
        check(&strings);
    }

    /// Lemma 3.8's observable consequence at test sizes: the contraction
    /// sort's work per input symbol stays flat as the number of strings
    /// grows 16×, on strings that share long prefixes (the instance on which
    /// a comparison sort re-reads the shared prefix in every comparison).
    #[test]
    fn contraction_work_per_symbol_stays_flat() {
        let work_of = |m: usize| -> f64 {
            let mut rng = StdRng::seed_from_u64(3);
            let shared: Vec<u32> = (0..14).map(|_| rng.gen_range(0..3)).collect();
            let strings: Vec<Vec<u32>> = (0..m)
                .map(|_| {
                    let mut s = shared.clone();
                    s.push(rng.gen_range(0..5));
                    s.push(rng.gen_range(0..5));
                    s
                })
                .collect();
            let total: usize = strings.iter().map(Vec::len).sum();
            let ctx = Ctx::parallel();
            let _ = sort_strings(&ctx, &strings);
            ctx.stats().work as f64 / total as f64
        };
        let contraction_growth = work_of(8192) / work_of(512);
        assert!(
            contraction_growth < 1.2,
            "contraction per-symbol work grew by {contraction_growth:.3}× over a 16× instance increase"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_reference(
            strings in proptest::collection::vec(
                proptest::collection::vec(0u32..5, 0..20),
                0..60,
            )
        ) {
            check(&strings);
        }

        #[test]
        fn matches_reference_large_alphabet(
            strings in proptest::collection::vec(
                proptest::collection::vec(0u32..1_000_000, 0..8),
                0..40,
            )
        ) {
            check(&strings);
        }
    }

    /// Miri target: the contraction sort's scatter/rank machinery.
    #[test]
    fn miri_sort_strings_small() {
        check(&[vec![3, 1], vec![2, 2, 2], vec![1], vec![3, 1], vec![]]);
    }
}
