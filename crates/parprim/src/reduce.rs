//! Parallel reductions: minima with positions.
//!
//! *Algorithm efficient m.s.p.* starts every round by finding the smallest
//! symbol `m` of the circular string; leader election for cycles picks the
//! minimum node index.  Both are index-reporting reductions.  Work `O(n)`,
//! depth `O(log n)`.

use sfcp_pram::Ctx;

/// Minimum value of a non-empty slice.
///
/// # Panics
/// Panics if `values` is empty.
#[must_use]
pub fn min_value<T: Ord + Copy + Send + Sync>(ctx: &Ctx, values: &[T]) -> T {
    assert!(!values.is_empty(), "min_value of an empty slice");
    let first = values[0];
    ctx.par_reduce_idx(values.len(), first, |i| values[i], |a, b| a.min(b))
}

/// Index of the minimum element; ties broken towards the smallest index
/// (this determinism matters: the algorithms use it for leader election).
///
/// # Panics
/// Panics if `values` is empty.
#[must_use]
pub fn min_index<T: Ord + Copy + Send + Sync>(ctx: &Ctx, values: &[T]) -> usize {
    assert!(!values.is_empty(), "min_index of an empty slice");
    let best = ctx.par_reduce_idx(
        values.len(),
        (values[0], 0usize),
        |i| (values[i], i),
        |a, b| {
            // Smaller value wins; on equal values the smaller index wins.
            if b.0 < a.0 || (b.0 == a.0 && b.1 < a.1) {
                b
            } else {
                a
            }
        },
    );
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    /// Keys whose minimum is the maximum of `v`, so [`min_index`] finds the
    /// first maximum.
    fn reversed(v: &[u32]) -> Vec<Reverse<u32>> {
        v.iter().copied().map(Reverse).collect()
    }

    #[test]
    fn min_and_max_with_ties() {
        let ctx = Ctx::parallel().with_grain(16);
        let v = vec![5u32, 3, 7, 3, 9, 1, 1, 8];
        assert_eq!(min_value(&ctx, &v), 1);
        assert_eq!(min_index(&ctx, &v), 5, "first occurrence of the minimum");
        assert_eq!(
            min_index(&ctx, &reversed(&v)),
            4,
            "the maximum, via Reverse"
        );
        let all_equal = vec![2u32; 100];
        assert_eq!(min_index(&ctx, &all_equal), 0);
        assert_eq!(min_index(&ctx, &reversed(&all_equal)), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn min_index_empty_panics() {
        let ctx = Ctx::parallel();
        let _ = min_index::<u32>(&ctx, &[]);
    }

    proptest! {
        #[test]
        fn matches_std(v in proptest::collection::vec(0u32..50, 1..2000)) {
            let ctx = Ctx::parallel().with_grain(32);
            let expected_min = *v.iter().min().unwrap();
            prop_assert_eq!(min_value(&ctx, &v), expected_min);
            prop_assert_eq!(min_index(&ctx, &v), v.iter().position(|&x| x == expected_min).unwrap());
            let expected_max = *v.iter().max().unwrap();
            prop_assert_eq!(min_index(&ctx, &reversed(&v)), v.iter().position(|&x| x == expected_max).unwrap());
        }
    }
}
