//! Parallel CSR construction: group a `(key, value)` edge stream into
//! `offsets + items` adjacency lists.
//!
//! Every incidence structure in the decomposition pipeline — the children
//! lists of [`crate::euler::RootedForest`], the per-vertex endpoint rotations
//! of the buddy-edge multigraph in `cycle_nodes_euler` — is the same build:
//! a stream of `m` slots, each contributing at most one `(key, value)` pair
//! with `key < num_keys`, materialized as CSR `offsets` (length
//! `num_keys + 1`) plus `items` (values grouped by key, **stream order
//! within a group** — for the ascending streams every caller feeds, that
//! means ascending order inside each group).
//!
//! The classic sequential build is three passes — count, prefix, scatter —
//! of which the count and the scatter are *random-access* passes over the
//! `num_keys`-sized count/cursor arrays.  The builder here runs the same
//! three passes blocked: each block histograms its slice of the stream into
//! its own row of a flat `(blocks × num_keys)` matrix, a transpose-scan
//! turns the matrix into block-major stable cursors *and writes the CSR
//! `offsets` as its block-0 column for free*, and a second blocked sweep
//! scatters the values.  With one block this is exactly the sequential
//! build; with many it is the block-parallel generalization of it.  The
//! block count depends only on the stream length, the key space and the
//! pool's thread count: short streams, and key spaces past the
//! `2^22`-counter histogram budget the radix sort also keeps, run one
//! block.
//!
//! Every intermediate is a [`sfcp_pram::Workspace`] checkout: once the pools
//! are warm, a build allocates nothing beyond the caller's output buffers.
//!
//! ## Charge model
//!
//! The documented cost of a CSR build is the §8 model of the sequential
//! count/prefix/scatter build: one counting round of `m` operations, one
//! prefix round of `num_keys` operations, one scatter round of `m`
//! operations — `2m + num_keys` work in 3 rounds at every block count.
//! The block plan is physical only (DESIGN.md, "CSR construction").

use crate::intsort::{for_each_block, transpose_scan_offsets, MAX_HIST_COUNTERS};
use sfcp_pram::Ctx;

/// Build the CSR grouping of an edge stream, returning `(offsets, items)`.
///
/// `edge(s)` is called for every stream slot `s in 0..num_slots` and returns
/// `Some((key, value))` with `key < num_keys`, or `None` for slots that
/// contribute nothing.  It is called **twice per slot** (the counting and
/// the scatter sweep) and must return the same answer each time; a closure
/// that changes between passes panics.
/// `offsets` has length `num_keys + 1`; the values of key `k` occupy
/// `items[offsets[k] .. offsets[k + 1]]` in stream order.
///
/// # Panics
/// Panics if any produced key is `>= num_keys`.
#[must_use]
pub fn build_csr<F>(ctx: &Ctx, num_keys: usize, num_slots: usize, edge: F) -> (Vec<u32>, Vec<u32>)
where
    F: Fn(usize) -> Option<(u32, u32)> + Sync + Send,
{
    let mut offsets = Vec::new();
    let mut items = Vec::new();
    build_csr_into(ctx, num_keys, num_slots, edge, &mut offsets, &mut items);
    (offsets, items)
}

/// [`build_csr`] writing into caller-owned buffers, so hot paths can reuse
/// workspace checkouts (or retained vectors) across calls.
///
/// # Panics
/// Panics if any produced key is `>= num_keys`.
pub fn build_csr_into<F>(
    ctx: &Ctx,
    num_keys: usize,
    num_slots: usize,
    edge: F,
    offsets: &mut Vec<u32>,
    items: &mut Vec<u32>,
) where
    F: Fn(usize) -> Option<(u32, u32)> + Sync + Send,
{
    let mut span = ctx.pass("build_csr");
    span.attr("num_keys", num_keys as u64);
    span.attr("num_slots", num_slots as u64);
    assert!(
        num_keys < u32::MAX as usize,
        "num_keys {num_keys} too large for the u32 key space"
    );
    // Offsets, cursors, and item positions are all u32; bounding the slot
    // count bounds the contributing-pair total, so none of them can wrap.
    assert!(
        num_slots <= u32::MAX as usize,
        "num_slots {num_slots} too large for the u32 offset space"
    );
    // The documented model cost (that of the sequential build
    // `RootedForest::from_parents` used to inline): count the stream,
    // prefix the counts, scatter the stream.
    ctx.charge_step(num_slots as u64);
    ctx.charge_step(num_keys as u64);
    ctx.charge_step(num_slots as u64);

    let ws = ctx.workspace();
    // Physical block count: enough to feed the pool's workers, but bounded
    // so the histogram matrix stays within the counter budget AND the
    // per-block row work (`num_keys` counters filled and scanned per block)
    // stays amortized against the stream.  On one thread this is exactly
    // one block — the sequential build with zero overhead.  Tracking
    // `current_num_threads` here is safe because the builder's charges are
    // the fixed documented model, never a function of the block plan.
    let budget = (MAX_HIST_COUNTERS / num_keys.max(1)).clamp(1, 256);
    let amortized = (4 * num_slots / num_keys.max(1)).max(1);
    let num_blocks = (num_slots / 8192)
        .clamp(1, rayon::current_num_threads().max(1))
        .min(budget)
        .min(amortized);
    let block_size = num_slots.div_ceil(num_blocks);
    let mut hist = ws.take_u32(num_blocks * num_keys);

    // Count: each block fills its own histogram row.
    {
        let hist_ptr = SendPtr(hist.as_mut_ptr());
        for_each_block(num_blocks, |b| {
            let hp = hist_ptr;
            let start = b * block_size;
            let end = (start + block_size).min(num_slots);
            // SAFETY: rows of the histogram matrix are disjoint per block.
            let row = unsafe { std::slice::from_raw_parts_mut(hp.0.add(b * num_keys), num_keys) };
            row.fill(0);
            for s in start..end {
                if let Some((k, _)) = edge(s) {
                    assert!(
                        (k as usize) < num_keys,
                        "csr key {k} out of range (num_keys = {num_keys})"
                    );
                    row[k as usize] += 1;
                }
            }
        });
    }

    // Stable offsets (key-major, then block-major); block 0's cursor for key
    // `k` is the group start, i.e. `offsets[k]` — the transpose-scan emits
    // that column as its per-key base.
    offsets.clear();
    offsets.resize(num_keys + 1, 0);
    let running = transpose_scan_offsets(
        ctx,
        &mut hist,
        num_blocks,
        num_keys,
        Some(&mut offsets[..num_keys]),
    );
    offsets[num_keys] = running;

    // Scatter: stream the slots again; the histogram rows double as write
    // cursors, and each (block, key) range is disjoint.
    items.clear();
    items.resize(running as usize, 0);
    let total = items.len();
    let hist_ptr = SendPtr(hist.as_mut_ptr());
    let items_ptr = SendPtr(items.as_mut_ptr());
    for_each_block(num_blocks, |b| {
        let (hp, ip) = (hist_ptr, items_ptr);
        let start = b * block_size;
        let end = (start + block_size).min(num_slots);
        // SAFETY: disjoint histogram rows (see above).
        let row = unsafe { std::slice::from_raw_parts_mut(hp.0.add(b * num_keys), num_keys) };
        for s in start..end {
            if let Some((k, v)) = edge(s) {
                let cursor = &mut row[k as usize];
                // The cursors were derived from a *separate* counting
                // invocation of `edge`; a non-deterministic closure could
                // otherwise push one past the buffer.  Keep the unsafe write
                // bounded so that inconsistency panics instead of scribbling.
                assert!(
                    (*cursor as usize) < total,
                    "csr edge stream changed between the counting and scatter passes"
                );
                // SAFETY: in-bounds by the check above; offsets of different
                // (block, key) pairs are disjoint ranges, so each item slot
                // is written once.
                unsafe {
                    *ip.0.add(*cursor as usize) = v;
                }
                *cursor += 1;
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

    /// Straight-line reference: push every pair into per-key vectors.
    fn naive_csr(num_keys: usize, stream: &[Option<(u32, u32)>]) -> (Vec<u32>, Vec<u32>) {
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); num_keys];
        for pair in stream.iter().flatten() {
            groups[pair.0 as usize].push(pair.1);
        }
        let mut offsets = vec![0u32; num_keys + 1];
        let mut items = Vec::new();
        for (k, g) in groups.iter().enumerate() {
            items.extend_from_slice(g);
            offsets[k + 1] = items.len() as u32;
        }
        (offsets, items)
    }

    /// A random stream with skewed keys, empty keys, and `None` slots.
    fn random_stream(num_keys: usize, num_slots: usize, seed: u64) -> Vec<Option<(u32, u32)>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..num_slots)
            .map(|s| {
                if rng.gen_bool(0.2) {
                    None
                } else {
                    // Skew towards low keys so some groups are large and the
                    // top of the key range stays empty.
                    let k = rng.gen_range(0..num_keys.max(1)) as u32;
                    let k = if rng.gen_bool(0.5) { k / 7 } else { k };
                    Some((k, s as u32))
                }
            })
            .collect()
    }

    /// The same build on a one-thread pool, where it runs one block: the
    /// sequential count/prefix/scatter baseline every block plan must
    /// reproduce byte for byte.
    fn one_block_baseline(num_keys: usize, stream: &[Option<(u32, u32)>]) -> (Vec<u32>, Vec<u32>) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool");
        pool.install(|| build_csr(&Ctx::untracked(), num_keys, stream.len(), |s| stream[s]))
    }

    /// The §8 closed form of a build's charges: `2·num_slots + num_keys`
    /// work in 3 rounds, at every block count.
    fn model_charges(num_keys: usize, num_slots: usize) -> sfcp_pram::Stats {
        sfcp_pram::Stats {
            work: (2 * num_slots + num_keys) as u64,
            rounds: 3,
        }
    }

    /// A stream over more than `2^22` keys, past the histogram budget.
    fn huge_key_space_stream() -> (usize, Vec<Option<(u32, u32)>>) {
        let num_keys = (1 << 22) + 3;
        let mut rng = StdRng::seed_from_u64(5);
        let stream = (0..60_000)
            .map(|s| {
                if rng.gen_bool(0.1) {
                    None
                } else {
                    Some((rng.gen_range(0..num_keys as u32), s as u32))
                }
            })
            .collect();
        (num_keys, stream)
    }

    #[test]
    fn empty_and_degenerate() {
        let ctx = Ctx::parallel();
        let (offsets, items) = build_csr(&ctx, 0, 0, |_| None);
        assert_eq!(offsets, vec![0]);
        assert!(items.is_empty());
        let (offsets, items) = build_csr(&ctx, 4, 0, |_| None);
        assert_eq!(offsets, vec![0; 5]);
        assert!(items.is_empty());
        let (offsets, items) = build_csr(&ctx, 3, 5, |_| None);
        assert_eq!(offsets, vec![0; 4]);
        assert!(items.is_empty());
    }

    #[test]
    fn small_grouping_is_stable() {
        let ctx = Ctx::parallel();
        let stream = [
            Some((2u32, 10u32)),
            Some((0, 11)),
            None,
            Some((2, 12)),
            Some((0, 13)),
            Some((3, 14)),
        ];
        let (offsets, items) = build_csr(&ctx, 5, stream.len(), |s| stream[s]);
        assert_eq!(offsets, vec![0, 2, 2, 4, 5, 5]);
        assert_eq!(items, vec![11, 13, 10, 12, 14]);
        assert_eq!(ctx.stats(), model_charges(5, stream.len()));
    }

    /// Long streams (several blocks when the pool has several threads) must
    /// match the naive reference and the one-block baseline exactly, and
    /// charge the closed-form model.
    #[test]
    fn large_streams_match_reference_and_baseline() {
        for (num_keys, num_slots, seed) in [
            (50_000, 120_000, 1u64),
            (300, 40_000, 2),
            (70_000, 70_000, 3),
        ] {
            let stream = random_stream(num_keys, num_slots, seed);
            let expected = naive_csr(num_keys, &stream);
            assert_eq!(one_block_baseline(num_keys, &stream), expected);
            let ctx = Ctx::parallel();
            let got = build_csr(&ctx, num_keys, num_slots, |s| stream[s]);
            assert_eq!(got, expected, "csr mismatch (keys={num_keys})");
            assert_eq!(ctx.stats(), model_charges(num_keys, num_slots));
        }
    }

    /// Key spaces past the `2^22`-counter histogram budget run one block; it
    /// must agree with the naive reference and charge the same closed-form
    /// model.
    #[test]
    fn huge_key_spaces_run_one_block_and_match_naive() {
        let (num_keys, stream) = huge_key_space_stream();
        let ctx = Ctx::parallel();
        let got = build_csr(&ctx, num_keys, stream.len(), |s| stream[s]);
        assert_eq!(got, naive_csr(num_keys, &stream));
        assert_eq!(ctx.stats(), model_charges(num_keys, stream.len()));
        assert_eq!(
            *got.0.last().unwrap() as usize,
            stream.iter().flatten().count()
        );
    }

    #[test]
    fn warm_builds_allocate_nothing() {
        let (huge_keys, huge_stream) = huge_key_space_stream();
        for (num_keys, stream) in [
            (30_000, random_stream(30_000, 80_000, 9)),
            (huge_keys, huge_stream),
        ] {
            let ctx = Ctx::parallel();
            let mut offsets = Vec::new();
            let mut items = Vec::new();
            let mut build = || {
                build_csr_into(
                    &ctx,
                    num_keys,
                    stream.len(),
                    |s| stream[s],
                    &mut offsets,
                    &mut items,
                );
            };
            build();
            let before = ctx.workspace().stats();
            for _ in 0..3 {
                build();
            }
            let after = ctx.workspace().stats();
            assert!(after.checkouts > before.checkouts);
            assert_eq!(
                after.misses, before.misses,
                "warm CSR builds must serve every checkout from the pools (keys={num_keys})"
            );
            assert_eq!(after.outstanding(), 0);
        }
    }

    /// A stream short enough to run one block on any pool.
    #[test]
    #[should_panic(expected = "out of range")]
    fn short_streams_reject_out_of_range_keys() {
        let ctx = Ctx::parallel();
        let _ = build_csr(&ctx, 10, 1024, |s| Some((10, s as u32)));
    }

    /// A stream long enough to run several blocks on a multi-thread pool.
    #[test]
    #[should_panic(expected = "out of range")]
    fn long_streams_reject_out_of_range_keys() {
        let ctx = Ctx::parallel();
        let _ = build_csr(&ctx, 10, 50_000, |s| Some((10, s as u32)));
    }

    proptest! {
        /// Offsets, grouping, and within-group (stream) order all match the
        /// naive build.
        #[test]
        fn matches_naive_build(
            num_keys in 1usize..400,
            num_slots in 0usize..5000,
            seed in 0u64..64,
        ) {
            let stream = random_stream(num_keys, num_slots, seed);
            let expected = naive_csr(num_keys, &stream);
            let ctx = Ctx::parallel().with_grain(64);
            let got = build_csr(&ctx, num_keys, num_slots, |s| stream[s]);
            prop_assert_eq!(&got, &expected);
            // Ascending-value streams yield ascending groups (the property
            // `RootedForest` children lists rely on).
            for k in 0..num_keys {
                let group = &got.1[got.0[k] as usize..got.0[k + 1] as usize];
                prop_assert!(group.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    /// Miri target: the direct-build scatter of grouped items into the
    /// `items` array (disjoint per-key offset ranges).
    #[test]
    fn miri_csr_build_matches_naive_on_skewed_stream() {
        let num_keys = 37;
        let stream: Vec<Option<(u32, u32)>> = (0..800u32)
            .map(|s| {
                if s % 5 == 0 {
                    None
                } else {
                    Some((s.wrapping_mul(2_654_435_761) % 37, s))
                }
            })
            .collect();
        let ctx = Ctx::parallel();
        let got = build_csr(&ctx, num_keys, stream.len(), |s| stream[s]);
        assert_eq!(got, naive_csr(num_keys, &stream));
    }
}
