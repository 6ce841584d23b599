//! Prefix sums (scans).
//!
//! The scan is *the* workhorse PRAM primitive: compaction offsets, Euler-tour
//! rankings, radix-sort bucket offsets and the "number of bad ancestors"
//! computation of the tree-labelling step are all scans.  The parallel
//! version is the standard two-pass blocked algorithm: block-local sums, a
//! (small) scan over the block sums, then a block-local sweep — `O(n)` work
//! and `O(log n)` depth, matching the cost the paper assumes for prefix sums.

use sfcp_pram::Ctx;

/// Block size used by the parallel two-pass scan (public so that fused
/// passes elsewhere — e.g. the dense-rank finish — can mirror the same block
/// decomposition and charge profile).
pub const SCAN_BLOCK: usize = 4096;

/// Inclusive prefix sums of `values` (`out[i] = values[0] + … + values[i]`).
#[must_use]
pub fn inclusive_scan(ctx: &Ctx, values: &[u64]) -> Vec<u64> {
    scan_generic(ctx, values, 0u64, |a, b| a + b, true)
}

/// [`inclusive_scan`] writing into a reusable output buffer.
pub fn inclusive_scan_into(ctx: &Ctx, values: &[u64], out: &mut Vec<u64>) {
    scan_generic_into(ctx, values, 0u64, |a, b| a + b, true, out);
}

/// Exclusive prefix sums of `values` (`out[i] = values[0] + … + values[i-1]`,
/// `out[0] = 0`).  Returns the scanned vector and the total sum.
#[must_use]
pub fn exclusive_scan(ctx: &Ctx, values: &[u64]) -> (Vec<u64>, u64) {
    let mut out = Vec::new();
    let total = exclusive_scan_into(ctx, values, &mut out);
    (out, total)
}

/// [`exclusive_scan`] writing into a reusable output buffer; returns the
/// total sum.
pub fn exclusive_scan_into(ctx: &Ctx, values: &[u64], out: &mut Vec<u64>) -> u64 {
    let total: u64 = values.iter().sum();
    scan_generic_into(ctx, values, 0u64, |a, b| a + b, false, out);
    total
}

/// Charge (without executing) exactly what a length-`n` scan charges.  Fused
/// passes that replace a scan with structurally different code use this so
/// that the tracker's work/depth stay byte-identical to the unfused
/// pipeline; the equivalence is regression-tested against [`inclusive_scan`].
pub fn charge_scan_cost(ctx: &Ctx, n: usize) {
    if n == 0 {
        return;
    }
    let num_blocks = n.div_ceil(SCAN_BLOCK).max(1);
    ctx.charge_rounds(sfcp_pram::ceil_log2(num_blocks) as u64);
    if n <= SCAN_BLOCK {
        ctx.charge_step(n as u64);
    } else {
        ctx.charge_work(2 * n as u64); // the two per-element passes
        ctx.charge_step(num_blocks as u64); // block totals (par_map_idx)
        ctx.charge_work(num_blocks as u64); // sequential block-offset scan
        ctx.charge_step(num_blocks as u64); // block sweep (par_for_idx)
    }
}

/// Generic blocked scan with an associative operation `op` and identity
/// `identity`.  `inclusive` selects inclusive vs exclusive output.
///
/// Work `O(n)`, depth `O(log n)` (the block-sum scan is performed
/// sequentially but over only `n / SCAN_BLOCK` elements, so the extra depth
/// charged is the standard `O(log n)`).
#[must_use]
pub fn scan_generic<T, F>(ctx: &Ctx, values: &[T], identity: T, op: F, inclusive: bool) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync + Send,
{
    let mut out = Vec::new();
    scan_generic_into(ctx, values, identity, op, inclusive, &mut out);
    out
}

/// [`scan_generic`] writing into a reusable output buffer (cleared and
/// refilled; the buffer's capacity is reused across calls).
#[allow(clippy::needless_range_loop)] // index drives a raw-pointer write
pub fn scan_generic_into<T, F>(
    ctx: &Ctx,
    values: &[T],
    identity: T,
    op: F,
    inclusive: bool,
    out: &mut Vec<T>,
) where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync + Send,
{
    let _span = ctx.pass("scan");
    let n = values.len();
    out.clear();
    if n == 0 {
        return;
    }
    // Depth of the implicit block-sum combine tree.
    ctx.charge_rounds(sfcp_pram::ceil_log2(n.div_ceil(SCAN_BLOCK).max(1)) as u64);

    if n <= SCAN_BLOCK {
        // Straight sequential scan (still charges n work via the step).
        ctx.charge_step(n as u64);
        out.reserve(n);
        let mut acc = identity;
        for &v in values {
            if inclusive {
                acc = op(acc, v);
                out.push(acc);
            } else {
                out.push(acc);
                acc = op(acc, v);
            }
        }
        return;
    }

    // Pass 1: per-block totals.  The two passes touch every element once each.
    ctx.charge_work(2 * n as u64);
    let num_blocks = n.div_ceil(SCAN_BLOCK);
    let mut block_offsets: Vec<T> = ctx.par_map_idx(num_blocks, |b| {
        let start = b * SCAN_BLOCK;
        let end = (start + SCAN_BLOCK).min(n);
        let mut acc = identity;
        for &v in &values[start..end] {
            acc = op(acc, v);
        }
        acc
    });

    // Exclusive-scan the block totals in place (small, done sequentially):
    // the generic element type has no workspace pool, so pass 1's buffer is
    // the only per-block scratch this function allocates.
    let mut acc = identity;
    for slot in &mut block_offsets {
        let total = std::mem::replace(slot, acc);
        acc = op(acc, total);
    }
    ctx.charge_work(num_blocks as u64);

    // Pass 2: per-block sweep with the block offset.
    out.reserve(n);
    // SAFETY: fully overwritten below before reading.
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(n)
    };
    let out_ptr = SendPtr(out.as_mut_ptr());
    ctx.par_for_idx(num_blocks, |b| {
        let start = b * SCAN_BLOCK;
        let end = (start + SCAN_BLOCK).min(n);
        let mut acc = block_offsets[b];
        let ptr = out_ptr;
        for i in start..end {
            // SAFETY: each index is written by exactly one block.
            unsafe {
                if inclusive {
                    acc = op(acc, values[i]);
                    *ptr.0.add(i) = acc;
                } else {
                    *ptr.0.add(i) = acc;
                    acc = op(acc, values[i]);
                }
            }
        }
    });
}

/// A raw pointer wrapper that asserts cross-thread transferability.  Every
/// use in this crate writes disjoint index ranges from different tasks.
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

    fn reference_inclusive(values: &[u64]) -> Vec<u64> {
        let mut acc = 0;
        values
            .iter()
            .map(|&v| {
                acc += v;
                acc
            })
            .collect()
    }

    #[test]
    fn empty_and_singleton() {
        let ctx = Ctx::parallel();
        assert!(inclusive_scan(&ctx, &[]).is_empty());
        assert_eq!(inclusive_scan(&ctx, &[5]), vec![5]);
        let (ex, total) = exclusive_scan(&ctx, &[5]);
        assert_eq!(ex, vec![0]);
        assert_eq!(total, 5);
    }

    #[test]
    fn small_known_values() {
        let ctx = Ctx::parallel();
        let v = [1u64, 2, 3, 4, 5];
        assert_eq!(inclusive_scan(&ctx, &v), vec![1, 3, 6, 10, 15]);
        let (ex, total) = exclusive_scan(&ctx, &v);
        assert_eq!(ex, vec![0, 1, 3, 6, 10]);
        assert_eq!(total, 15);
    }

    #[test]
    fn large_crosses_block_boundaries() {
        let ctx = Ctx::parallel();
        let v: Vec<u64> = (0..3 * SCAN_BLOCK as u64 + 17).map(|i| i % 7).collect();
        assert_eq!(inclusive_scan(&ctx, &v), reference_inclusive(&v));
    }

    #[test]
    fn generic_scan_with_max_operator() {
        let ctx = Ctx::parallel();
        let v: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let out = scan_generic(&ctx, &v, 0u64, |a, b| a.max(b), true);
        assert_eq!(out, vec![3, 3, 4, 4, 5, 9, 9, 9]);
    }

    /// `charge_scan_cost` must mirror the real scan's charges exactly: the
    /// fused dense-rank finish depends on this to stay charge-identical to
    /// the unfused pipeline.
    #[test]
    fn charge_scan_cost_matches_real_scan() {
        for n in [
            0usize,
            1,
            100,
            SCAN_BLOCK,
            SCAN_BLOCK + 1,
            3 * SCAN_BLOCK + 17,
            100_000,
        ] {
            let real = Ctx::parallel();
            let v: Vec<u64> = vec![1; n];
            let _ = inclusive_scan(&real, &v);
            let model = Ctx::parallel();
            charge_scan_cost(&model, n);
            assert_eq!(
                real.stats(),
                model.stats(),
                "charge model diverged at n={n}"
            );
        }
    }

    #[test]
    fn into_variants_reuse_buffers() {
        let ctx = Ctx::parallel();
        let v: Vec<u64> = (0..10_000).map(|i| i % 5).collect();
        let mut out = Vec::new();
        inclusive_scan_into(&ctx, &v, &mut out);
        assert_eq!(out, reference_inclusive(&v));
        let cap = out.capacity();
        let w: Vec<u64> = (0..8_000).map(|i| i % 3).collect();
        let total = exclusive_scan_into(&ctx, &w, &mut out);
        assert_eq!(total, w.iter().sum::<u64>());
        assert_eq!(out.capacity(), cap, "buffer capacity must be reused");
        assert_eq!(out[0], 0);
        assert_eq!(out[7999], w[..7999].iter().sum::<u64>());
    }

    #[test]
    fn charges_linear_work() {
        let ctx = Ctx::parallel();
        let v: Vec<u64> = vec![1; 100_000];
        let _ = inclusive_scan(&ctx, &v);
        let stats = ctx.stats();
        assert!(stats.work >= 100_000);
        assert!(
            stats.work < 400_000,
            "scan should be linear work, got {}",
            stats.work
        );
    }

    proptest! {
        #[test]
        fn matches_reference(v in proptest::collection::vec(0u64..1000, 0..3000)) {
            let par = Ctx::parallel().with_grain(64);
            prop_assert_eq!(inclusive_scan(&par, &v), reference_inclusive(&v));
            let (ex, total) = exclusive_scan(&par, &v);
            prop_assert_eq!(total, v.iter().sum::<u64>());
            for i in 0..v.len() {
                prop_assert_eq!(ex[i], v[..i].iter().sum::<u64>());
            }
        }
    }

    /// Miri target: the pass-2 `set_len` + disjoint per-block pointer writes
    /// of the parallel scan (needs `n > SCAN_BLOCK`).
    #[test]
    fn miri_parallel_scan_crosses_block_boundary() {
        let v: Vec<u64> = (0..(SCAN_BLOCK + 64) as u64).map(|i| i % 7).collect();
        let ctx = Ctx::parallel();
        assert_eq!(inclusive_scan(&ctx, &v), reference_inclusive(&v));
    }
}
