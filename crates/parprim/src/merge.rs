//! Parallel comparison sorting (the Cole-mergesort stand-in).
//!
//! *Algorithm sorting strings* finishes by running Cole's parallel mergesort
//! on an instance already contracted to `O(n / log n)` symbols, so that the
//! `O(m log m)` comparison cost fits in the linear work budget.  The practical
//! analogue is an ordinary parallel merge sort (recursive halves via
//! `rayon::join`, sequential merge), which has the same `O(m log m)` work and
//! polylogarithmic depth.

use sfcp_pram::Ctx;

/// Threshold below which recursion bottoms out into a sequential sort.
const SEQ_CUTOFF: usize = 4 * 1024;

/// Merge two sorted slices into a new sorted vector (stable: ties take the
/// element of `a` first).
#[must_use]
pub fn merge_sorted<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Stable parallel merge sort, in place.
///
/// Charged as a comparison sort: `O(n log n)` work and `O(log² n)` depth —
/// deliberately *more* work than the integer sort in [`crate::intsort`].  The
/// string sort of Lemma 3.8 uses it only on its final, contracted instance.
pub fn parallel_merge_sort<T: Ord + Copy + Send + Sync>(ctx: &Ctx, data: &mut [T]) {
    let n = data.len();
    let log_n = sfcp_pram::ceil_log2(n).max(1) as u64;
    ctx.charge_work(n as u64 * log_n);
    ctx.charge_rounds(log_n * log_n);
    msort(data);
}

fn msort<T: Ord + Copy + Send + Sync>(data: &mut [T]) {
    let n = data.len();
    if n <= SEQ_CUTOFF {
        data.sort();
        return;
    }
    let mid = n / 2;
    {
        let (left, right) = data.split_at_mut(mid);
        rayon::join(|| msort(left), || msort(right));
    }
    let merged = merge_sorted(&data[..mid], &data[mid..]);
    data.copy_from_slice(&merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    #[test]
    fn merge_basic() {
        assert_eq!(merge_sorted(&[1, 3, 5], &[2, 4, 6]), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(merge_sorted::<u32>(&[], &[]), Vec::<u32>::new());
        assert_eq!(merge_sorted(&[1, 1], &[1]), vec![1, 1, 1]);
        assert_eq!(merge_sorted(&[5], &[1, 2]), vec![1, 2, 5]);
    }

    #[test]
    fn merge_is_stable_by_pairing() {
        // Use pairs (key, origin) to observe stability of equal keys.
        let a = [(1, 'a'), (2, 'a')];
        let b = [(1, 'b'), (3, 'b')];
        let m = merge_sorted(&a, &b);
        assert_eq!(m, vec![(1, 'a'), (1, 'b'), (2, 'a'), (3, 'b')]);
    }

    #[test]
    fn sorts_large_random() {
        let mut rng = StdRng::seed_from_u64(99);
        let original: Vec<u64> = (0..100_000).map(|_| rng.gen_range(0..1_000)).collect();
        let ctx = Ctx::parallel();
        let mut data = original.clone();
        parallel_merge_sort(&ctx, &mut data);
        let mut expected = original;
        expected.sort();
        assert_eq!(data, expected);
    }

    #[test]
    fn sorts_edge_cases() {
        let ctx = Ctx::parallel();
        let mut empty: Vec<u32> = vec![];
        parallel_merge_sort(&ctx, &mut empty);
        assert!(empty.is_empty());
        let mut single = vec![7u32];
        parallel_merge_sort(&ctx, &mut single);
        assert_eq!(single, vec![7]);
        let mut sorted: Vec<u32> = (0..10_000).collect();
        parallel_merge_sort(&ctx, &mut sorted.clone());
        parallel_merge_sort(&ctx, &mut sorted);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    proptest! {
        #[test]
        fn matches_std_sort(mut v in proptest::collection::vec(0i64..1000, 0..5000)) {
            let ctx = Ctx::parallel();
            let mut expected = v.clone();
            expected.sort();
            parallel_merge_sort(&ctx, &mut v);
            prop_assert_eq!(v, expected);
        }
    }
}
