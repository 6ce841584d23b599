//! Grouping cycles into equivalence classes — Section 3.2 of the paper.
//!
//! After each cycle's B-label string has been reduced to its smallest
//! repeating prefix and rotated to its minimal starting point, two cycles are
//! equivalent iff those canonical strings are *equal*.  The paper solves this
//! with *Algorithm partition*: a `log ℓ`-round doubling computation in which
//! all starting positions of equal label sequences elect a common
//! representative by writing into the arbitrary-CRCW table `BB`.
//!
//! * [`group_cycles_doubling`] — the paper's algorithm, with the `BB` table
//!   realised by [`sfcp_pram::CrcwTable`] (insert-if-absent, arbitrary
//!   winner).  Cycles are grouped by length first (different lengths can
//!   never be equivalent once reduced to their periods) and padded to the
//!   next power of two with a sentinel, as the paper assumes `ℓ = 2^h` "for
//!   convenience".
//! * [`group_cycles_by_hash`] — hash map from string to class, the
//!   sequential oracle.

use sfcp_pram::fxhash::FxHashMap;
use sfcp_pram::{CrcwTable, Ctx};

/// Which grouping algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupingMethod {
    /// The paper's *Algorithm partition* (CRCW doubling).
    #[default]
    Partition,
    /// Sequential hashing (the oracle).
    Hash,
}

/// Group the canonical cycle strings into equivalence classes; returns one
/// dense class id per input string (equal strings ⇔ equal ids).
#[must_use]
pub fn group_cycles(ctx: &Ctx, strings: &[Vec<u32>], method: GroupingMethod) -> Vec<u32> {
    let mut span = ctx.span("group_cycles");
    span.attr("cycles", strings.len() as u64);
    match method {
        GroupingMethod::Partition => group_cycles_doubling(ctx, strings),
        GroupingMethod::Hash => group_cycles_by_hash(ctx, strings),
    }
}

/// The paper's *Algorithm partition*.
#[must_use]
pub fn group_cycles_doubling(ctx: &Ctx, strings: &[Vec<u32>]) -> Vec<u32> {
    let k = strings.len();
    let mut class = vec![u32::MAX; k];
    if k == 0 {
        return class;
    }
    // Group the cycles by length.
    let mut by_len: FxHashMap<usize, Vec<u32>> = FxHashMap::default();
    for (i, s) in strings.iter().enumerate() {
        by_len.entry(s.len()).or_default().push(i as u32);
    }
    ctx.charge_step(k as u64);

    let mut next_class = 0u32;
    let mut lens: Vec<usize> = by_len.keys().copied().collect();
    lens.sort_unstable();
    for len in lens {
        let members = &by_len[&len];
        if len == 0 {
            // All empty strings are equivalent.
            for &i in members {
                class[i as usize] = next_class;
            }
            next_class += 1;
            continue;
        }
        // Lay the strings of this group out contiguously, padded to a power
        // of two with the sentinel 0 (labels are shifted by +1).
        let padded = sfcp_pram::next_pow2(len);
        let total = members.len() * padded;
        let mut eq: Vec<u64> = vec![0; total];
        {
            let eq_ptr = SendPtr(eq.as_mut_ptr());
            let members_ref = members;
            ctx.par_for_idx(members.len(), |mi| {
                let s = &strings[members_ref[mi] as usize];
                let base = mi * padded;
                let p = eq_ptr;
                for (j, &c) in s.iter().enumerate() {
                    // SAFETY: disjoint destination ranges per string.
                    unsafe {
                        *p.0.add(base + j) = u64::from(c) + 1;
                    }
                }
            });
            ctx.charge_work(total as u64);
        }

        // The doubling rounds of Algorithm partition.  In round j every
        // position d1 that is a multiple of 2^j combines its label with the
        // label of d2 = d1 + 2^(j-1): all positions whose length-2^j label
        // sequences are equal elect a common representative through the
        // arbitrary-CRCW table BB.
        let rounds = sfcp_pram::ceil_log2(padded);
        for j in 1..=rounds {
            let stride = 1usize << j;
            let half = stride >> 1;
            let bb: CrcwTable<(u64, u64)> = CrcwTable::with_capacity(total / stride + 1);
            let positions = total / stride;
            let eq_snapshot = &eq;
            let updates: Vec<(usize, u64)> = ctx.par_map_idx(positions, |t| {
                let d1 = t * stride;
                let d2 = d1 + half;
                let key = (eq_snapshot[d1], eq_snapshot[d2]);
                let winner = bb.insert_arbitrary(key, d1 as u64);
                (d1, winner)
            });
            for (d1, winner) in updates {
                eq[d1] = winner;
            }
            ctx.charge_step(positions as u64);
        }

        // Two cycles of this group are equivalent iff their first positions
        // carry the same representative (Corollary 3.10).  Renumber densely.
        let mut reps: FxHashMap<u64, u32> = FxHashMap::default();
        for (mi, &i) in members.iter().enumerate() {
            let rep = eq[mi * padded];
            let id = *reps.entry(rep).or_insert_with(|| {
                let c = next_class;
                next_class += 1;
                c
            });
            class[i as usize] = id;
        }
        ctx.charge_step(members.len() as u64);
    }
    class
}

/// Sequential hashing oracle.
#[must_use]
pub fn group_cycles_by_hash(ctx: &Ctx, strings: &[Vec<u32>]) -> Vec<u32> {
    let mut map: FxHashMap<&[u32], u32> = FxHashMap::default();
    let mut out = Vec::with_capacity(strings.len());
    for s in strings {
        let next = map.len() as u32;
        out.push(*map.entry(s.as_slice()).or_insert(next));
    }
    ctx.charge_step(strings.iter().map(|s| s.len() as u64).sum::<u64>() + strings.len() as u64);
    out
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

    fn all_methods() -> [GroupingMethod; 2] {
        [GroupingMethod::Partition, GroupingMethod::Hash]
    }

    fn check_grouping(strings: &[Vec<u32>]) {
        let ctx = Ctx::parallel().with_grain(16);
        for m in all_methods() {
            let class = group_cycles(&ctx, strings, m);
            assert_eq!(class.len(), strings.len());
            for i in 0..strings.len() {
                for j in 0..strings.len() {
                    assert_eq!(
                        strings[i] == strings[j],
                        class[i] == class[j],
                        "{m:?}: strings {i} and {j} ({:?} vs {:?})",
                        strings[i],
                        strings[j]
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_single() {
        check_grouping(&[]);
        check_grouping(&[vec![1, 2, 3]]);
        check_grouping(&[vec![]]);
    }

    #[test]
    fn paper_example_cycles() {
        // In Example 3.1 both cycles have canonical period string (1,2,1,3):
        // they are equivalent.
        check_grouping(&[vec![1, 2, 1, 3], vec![1, 2, 1, 3]]);
        let ctx = Ctx::parallel();
        let class = group_cycles(
            &ctx,
            &[vec![1, 2, 1, 3], vec![1, 2, 1, 3]],
            GroupingMethod::Partition,
        );
        assert_eq!(class[0], class[1]);
    }

    #[test]
    fn mixed_lengths_and_duplicates() {
        check_grouping(&[
            vec![1, 2],
            vec![1, 2, 1],
            vec![1, 2],
            vec![2, 1],
            vec![1],
            vec![1],
            vec![1, 2, 1],
            vec![3, 3, 3, 3, 3],
        ]);
    }

    #[test]
    fn non_power_of_two_lengths() {
        // Lengths 3, 5, 6, 7 exercise the sentinel padding.
        check_grouping(&[
            vec![1, 2, 3],
            vec![1, 2, 3],
            vec![1, 2, 4],
            vec![5, 4, 3, 2, 1],
            vec![5, 4, 3, 2, 1],
            vec![9, 8, 7, 6, 5, 4],
            vec![1, 1, 1, 1, 1, 1, 1],
            vec![1, 1, 1, 1, 1, 1, 2],
        ]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn methods_agree_with_equality(
            strings in proptest::collection::vec(
                proptest::collection::vec(0u32..3, 1..9),
                0..24,
            )
        ) {
            check_grouping(&strings);
        }
    }

    /// Miri target: *Algorithm partition*'s scatter writes and CRCW rounds,
    /// against the hash oracle.
    #[test]
    fn miri_group_cycles_small() {
        check_grouping(&[
            vec![1, 2, 1, 3],
            vec![2, 1, 3, 1],
            vec![7],
            vec![1, 2, 1, 3],
        ]);
    }
}
