//! Disjoint scatter writes: `dest[index] = value` for a stream of
//! `(index, value)` pairs, one plain store per pair.
//!
//! JáJá–Ryu's EREW algorithm needs nothing more than exclusive writes, and
//! every hot scatter of the decomposition pipeline (the Euler-tour
//! successors, the CSR value sweep, the wavefront walk records, the
//! ancestor-sum deltas, the dense-rank finish) is written as direct stores
//! at its own site.  [`scatter_into`] is the same pass as a reusable
//! primitive.
//!
//! Software write-combining (per-bucket staging tiles) never beat direct
//! stores where it was measured, in cache or past it (DESIGN.md §7,
//! "Scatter writes: one direct-store path").

use sfcp_pram::Ctx;

/// Scatter an `(index, value)` stream into `dest`: `item(s)` is invoked for
/// every stream slot `s in 0..num_slots` and returns `Some((index, value))`
/// or `None` for slots contributing nothing.  Distinct slots must produce
/// distinct indices (or store identical values), and every index must be in
/// range — the usual disjoint-scatter contract of this workspace.
///
/// Charged one round of `num_slots` operations.
///
/// # Panics
/// Panics if an index is out of range.
pub fn scatter_into<T, F>(ctx: &Ctx, dest: &mut [T], num_slots: usize, item: F)
where
    T: Copy + Send + Sync,
    F: Fn(usize) -> Option<(usize, T)> + Sync + Send,
{
    let mut span = ctx.pass("scatter");
    span.attr("num_slots", num_slots as u64);
    let len = dest.len();
    let ptr = SendPtr(dest.as_mut_ptr());
    ctx.par_for_idx(num_slots, |s| {
        if let Some((idx, val)) = item(s) {
            assert!(idx < len, "scatter index {idx} out of range ({len})");
            let p = ptr;
            // SAFETY: in range (checked) and index-disjoint (caller
            // contract).
            unsafe {
                *p.0.add(idx) = val;
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
    use rand::prelude::*;
    use sfcp_pram::Mode;

    fn scatter(n: usize, stream: &[Option<(usize, u32)>]) -> Vec<u32> {
        let mut dest = vec![0u32; n];
        scatter_into(&Ctx::parallel(), &mut dest, stream.len(), |s| stream[s]);
        dest
    }

    #[test]
    fn empty_and_tiny() {
        assert!(scatter(0, &[]).is_empty());
        let stream = [Some((2usize, 7u32)), None, Some((0, 9))];
        assert_eq!(scatter(4, &stream), vec![9, 0, 7, 0]);
    }

    #[test]
    fn permutation_scatter_matches_across_modes() {
        let n = 200_000;
        let mut rng = StdRng::seed_from_u64(11);
        let mut idx: Vec<u32> = (0..n as u32).collect();
        idx.shuffle(&mut rng);
        let results: Vec<_> = [Mode::Sequential, Mode::Parallel]
            .into_iter()
            .map(|mode| {
                let ctx = Ctx::new(mode);
                let mut dest = vec![0u64; n];
                scatter_into(&ctx, &mut dest, n, |s| Some((idx[s] as usize, s as u64)));
                (ctx.stats(), dest)
            })
            .collect();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0].1[idx[5] as usize], 5);
    }

    #[test]
    fn i64_values_round_trip() {
        let ctx = Ctx::parallel();
        let mut dest = vec![0i64; 10_000];
        scatter_into(&ctx, &mut dest, 10_000, |s| {
            Some((s, if s % 2 == 0 { -(s as i64) } else { s as i64 }))
        });
        assert_eq!(dest[6], -6);
        assert_eq!(dest[7], 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn direct_engine_rejects_out_of_range() {
        let mut dest = vec![0u32; 4];
        scatter_into(&Ctx::parallel(), &mut dest, 8, |s| Some((s, 1)));
    }

    proptest! {
        /// Arbitrary partial streams land exactly where a sequential
        /// reference loop puts them.
        #[test]
        fn matches_reference_on_partial_streams(
            n in 1usize..2000,
            seed in 0u64..64,
            density_pct in 5u32..96,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut slots: Vec<u32> = (0..n as u32).collect();
            slots.shuffle(&mut rng);
            let stream: Vec<Option<(usize, u32)>> = (0..n)
                .map(|s| {
                    rng.gen_bool(f64::from(density_pct) / 100.0)
                        .then(|| (slots[s] as usize, rng.gen_range(0..1_000_000)))
                })
                .collect();
            let mut expected = vec![0u32; n];
            for pair in stream.iter().flatten() {
                expected[pair.0] = pair.1;
            }
            prop_assert_eq!(scatter(n, &stream), expected);
        }
    }
}
