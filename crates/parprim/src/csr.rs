//! Parallel CSR construction: group a `(key, value)` edge stream into
//! `offsets + items` adjacency lists.
//!
//! Every incidence structure in the decomposition pipeline — the children
//! lists of [`crate::euler::RootedForest`], the per-vertex endpoint rotations
//! of the buddy-edge multigraph in `cycle_nodes_euler`, the per-level node
//! buckets of the levelwise tree labelling — is the same build: a stream of
//! `m` slots, each contributing at most one `(key, value)` pair with
//! `key < num_keys`, materialized as CSR `offsets` (length `num_keys + 1`)
//! plus `items` (values grouped by key, **stream order within a group** —
//! for the ascending streams every caller feeds, that means ascending order
//! inside each group).
//!
//! The classic sequential build is three passes — count, prefix, scatter —
//! of which the count and the scatter are *random-access* passes over the
//! `num_keys`-sized count/cursor arrays.  At `n = 10^6` those arrays are
//! megabytes, every access misses cache, and the build dominates `decompose`
//! (see ROADMAP, "Multigraph CSR build is the new decompose bottleneck").
//!
//! The builder here turns the build into blocked, parallel passes with two
//! regimes, picked by a counter budget derived from the probed last-level
//! cache ([`direct_build_max_keys`], hard-capped by the same `2^22`-counter
//! bound the radix engine's `block_plan` charges for):
//!
//! * **Direct** (`num_keys` counters fit the budget): one stable counting
//!   pass at radix `num_keys` — each block histograms its slice of the
//!   stream into its own row of a flat `(blocks × num_keys)` matrix, a
//!   sequential transpose-scan turns the matrix into block-major stable
//!   cursors *and writes the CSR `offsets` as its block-0 column for free*,
//!   and a second blocked sweep scatters the values.  With one block this
//!   is exactly the sequential baseline; with many it is the
//!   block-parallel generalization of it.
//! * **Bucketed** (huge key spaces): slots are packed into `u64` words
//!   `key << 32 | value` (empty slots get the sentinel key `num_keys`,
//!   which sorts last) and LSD counting-passed on the key digits with
//!   adaptive digit widths — `intsort`'s cache-resident per-block
//!   machinery.  LSD stability keeps equal-key words in stream order, so
//!   no tie-break is needed.  A final blocked pass extracts the value
//!   column and fills each `offsets` slot exactly once from the group
//!   boundaries.
//!
//! Every intermediate is a [`sfcp_pram::Workspace`] checkout: once the pools
//! are warm, a build allocates nothing beyond the caller's output buffers.
//!
//! ## Charge model
//!
//! The documented cost of a CSR build is the §8 model of the sequential
//! count/prefix/scatter build: one counting round of `m` operations, one
//! prefix round of `num_keys` operations, one scatter round of `m`
//! operations — `2m + num_keys` work in 3 rounds in every regime.  The
//! blocked regimes' physical passes (word packing, the per-digit counting
//! passes, the fused finish) are uncharged implementation glue, the same
//! discipline as the sort's fill/extract passes (DESIGN.md, "CSR
//! construction").

use crate::intsort::{
    counting_pass_items_uncharged, fill_items_uncharged, for_each_block, plan_digits, sig_bits,
    transpose_scan_offsets,
};
use sfcp_pram::Ctx;

/// Key bits used to bucket the write-combined counting pass: `2^6 = 64`
/// staging buckets.  Few enough that the per-block fill state lives in
/// registers/L1, many enough that one bucket's row window is a small
/// fraction of the histogram row.
const BUCKET_BITS: u32 = 6;

/// Staging buckets per block of the write-combined counting pass.
const NUM_BUCKETS: usize = 1 << BUCKET_BITS;

/// Below this stream length the blocked machinery is pure overhead; the
/// builder runs the sequential count/prefix/scatter build.
pub const SEQUENTIAL_BUILD_MAX: usize = 1024;

/// Hard cap on the key space the direct (single counting pass at radix
/// `num_keys`) build will allocate histograms for — the same `2^22`-counter
/// budget that bounds `intsort`'s per-pass offset matrices.  Beyond it the
/// builder falls back to multi-pass radix bucketing over packed words.
///
/// The cap a given context actually applies is
/// [`direct_build_max_keys`] — this constant tightened by the probed LLC
/// budget, so small-cache hosts fall back to the bucketed regime earlier.
///
/// Public so workloads and tests can assert which regime a key space lands
/// in (the sharded-multigraph workload of `sfcp-bench` exists to push real
/// builds past this budget).
pub const DIRECT_BUILD_MAX_KEYS: usize = 1 << 22;

/// The live direct-build key cap on this context: [`DIRECT_BUILD_MAX_KEYS`]
/// tightened so the counting pass's per-block histogram rows fit the probed
/// LLC budget ([`sfcp_pram::Topology::csr_direct_counter_budget`]).  The
/// regime choice is physical only — results and charges are identical in
/// both regimes — so consulting the probe here is charge-neutral (DESIGN.md,
/// "The topology probe").
#[must_use]
pub fn direct_build_max_keys(ctx: &Ctx) -> usize {
    DIRECT_BUILD_MAX_KEYS.min(ctx.topology().csr_direct_counter_budget())
}

/// Build the CSR grouping of an edge stream, returning `(offsets, items)`.
///
/// `edge(s)` is called for every stream slot `s in 0..num_slots` and returns
/// `Some((key, value))` with `key < num_keys`, or `None` for slots that
/// contribute nothing.  It may be called **more than once per slot** (the
/// counting-based regimes stream the slots twice) and must return the same
/// answer each time; a closure that changes between passes panics.
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
    // The documented model cost (identical in every regime, and that of the
    // sequential build `RootedForest::from_parents` used to inline): count
    // the stream, prefix the counts, scatter the stream.
    ctx.charge_step(num_slots as u64);
    ctx.charge_step(num_keys as u64);
    ctx.charge_step(num_slots as u64);

    if num_slots <= SEQUENTIAL_BUILD_MAX {
        build_csr_sequential(ctx, num_keys, num_slots, &edge, offsets, items);
    } else if num_keys <= direct_build_max_keys(ctx) {
        build_csr_direct(ctx, num_keys, num_slots, &edge, offsets, items);
    } else {
        build_csr_bucketed(ctx, num_keys, num_slots, &edge, offsets, items);
    }
}

/// The sequential build: count (random increments), prefix, cursor scatter
/// (random reads and writes).  Uncharged — the model charge is applied by the
/// dispatching wrapper.
fn build_csr_sequential<F>(
    ctx: &Ctx,
    num_keys: usize,
    num_slots: usize,
    edge: &F,
    offsets: &mut Vec<u32>,
    items: &mut Vec<u32>,
) where
    F: Fn(usize) -> Option<(u32, u32)> + Sync + Send,
{
    offsets.clear();
    offsets.resize(num_keys + 1, 0);
    for s in 0..num_slots {
        if let Some((k, _)) = edge(s) {
            assert!(
                (k as usize) < num_keys,
                "csr key {k} out of range (num_keys = {num_keys})"
            );
            offsets[k as usize + 1] += 1;
        }
    }
    for k in 0..num_keys {
        offsets[k + 1] += offsets[k];
    }
    let total = offsets[num_keys] as usize;
    let ws = ctx.workspace();
    let mut cursor = ws.take_u32(num_keys + 1);
    cursor.copy_from_slice(offsets);
    items.clear();
    items.resize(total, 0);
    for s in 0..num_slots {
        if let Some((k, v)) = edge(s) {
            items[cursor[k as usize] as usize] = v;
            cursor[k as usize] += 1;
        }
    }
}

/// The direct blocked build: one stable counting pass at radix `num_keys`.
/// Each block histograms its slice of the stream into its own row of a flat
/// `(blocks × num_keys)` matrix; the sequential transpose-scan produces
/// block-major stable cursors and emits the CSR `offsets` as a by-product
/// (the cursor of key `k` in block 0 *is* `offsets[k]`); the scatter sweep
/// then streams the slots again, writing each value once.  One block makes
/// this exactly [`build_csr_sequential`]; several make it the
/// block-parallel generalization.  Uncharged (model charge applied by the
/// dispatching wrapper).
fn build_csr_direct<F>(
    ctx: &Ctx,
    num_keys: usize,
    num_slots: usize,
    edge: &F,
    offsets: &mut Vec<u32>,
    items: &mut Vec<u32>,
) where
    F: Fn(usize) -> Option<(u32, u32)> + Sync + Send,
{
    let ws = ctx.workspace();
    // Physical block count: enough to feed the pool's workers, but bounded
    // so the histogram matrix stays within the counter budget AND the
    // per-block row work (`num_keys` counters filled and scanned per block)
    // stays amortized against the stream.  On one thread this is exactly
    // one block — the sequential baseline with zero overhead.  Tracking
    // `current_num_threads` here is safe because the builder's charges are
    // the fixed documented model, never a function of the block plan.
    let budget = (DIRECT_BUILD_MAX_KEYS / num_keys.max(1)).clamp(1, 256);
    let amortized = (4 * num_slots / num_keys.max(1)).max(1);
    let num_blocks = (num_slots / 8192)
        .clamp(1, rayon::current_num_threads().max(1))
        .min(budget)
        .min(amortized);
    let block_size = num_slots.div_ceil(num_blocks);
    let mut hist = ws.take_u32(num_blocks * num_keys);

    // Write-combined counting regime: once a block's histogram row outgrows
    // the probed L2, the random `row[k] += 1` increments become the pass's
    // miss bill.  Past that boundary each block stages the keys into
    // per-bucket tiles (bucketed by the high key bits) and applies a tile of increments at a time, so every
    // burst lands in one `num_keys / 2^BUCKET_BITS` row window instead of
    // striding the whole row.  Physical only: the counts are identical, the
    // model charge above never changes.
    let stage_entries = ctx.topology().scatter_tile_entries();
    let wc_counting = num_keys * std::mem::size_of::<u32>() > ctx.topology().l2_bytes();
    let key_bits = usize::BITS - num_keys.saturating_sub(1).leading_zeros();
    let bucket_shift = key_bits.saturating_sub(BUCKET_BITS);
    let mut stage = wc_counting.then(|| ws.take_u32(num_blocks * NUM_BUCKETS * stage_entries));

    // Count: each block fills its own histogram row.
    {
        let hist_ptr = SendPtr(hist.as_mut_ptr());
        let stage_ptr = stage.as_mut().map(|s| SendPtr(s.as_mut_ptr()));
        for_each_block(num_blocks, |b| {
            let hp = hist_ptr;
            let start = b * block_size;
            let end = (start + block_size).min(num_slots);
            // SAFETY: rows of the histogram matrix are disjoint per block.
            let row = unsafe { std::slice::from_raw_parts_mut(hp.0.add(b * num_keys), num_keys) };
            row.fill(0);
            match stage_ptr {
                None => {
                    for s in start..end {
                        if let Some((k, _)) = edge(s) {
                            assert!(
                                (k as usize) < num_keys,
                                "csr key {k} out of range (num_keys = {num_keys})"
                            );
                            row[k as usize] += 1;
                        }
                    }
                }
                Some(sp) => {
                    let region_len = NUM_BUCKETS * stage_entries;
                    // SAFETY: per-block staging regions are disjoint.
                    let region = unsafe {
                        std::slice::from_raw_parts_mut(sp.0.add(b * region_len), region_len)
                    };
                    let mut fill = [0u32; NUM_BUCKETS];
                    for s in start..end {
                        if let Some((k, _)) = edge(s) {
                            assert!(
                                (k as usize) < num_keys,
                                "csr key {k} out of range (num_keys = {num_keys})"
                            );
                            let bucket = (k >> bucket_shift) as usize;
                            let f = fill[bucket] as usize;
                            region[bucket * stage_entries + f] = k;
                            if f + 1 == stage_entries {
                                for &kk in &region[bucket * stage_entries..][..stage_entries] {
                                    row[kk as usize] += 1;
                                }
                                fill[bucket] = 0;
                            } else {
                                fill[bucket] = f as u32 + 1;
                            }
                        }
                    }
                    for (bucket, &f) in fill.iter().enumerate() {
                        for &kk in &region[bucket * stage_entries..][..f as usize] {
                            row[kk as usize] += 1;
                        }
                    }
                }
            }
        });
    }
    drop(stage);

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

/// The cache-bucketed fallback for huge key spaces: pack, radix-bucket by
/// key digits, fused offsets+items finish.  Uncharged (model charge applied
/// by the wrapper).
fn build_csr_bucketed<F>(
    ctx: &Ctx,
    num_keys: usize,
    num_slots: usize,
    edge: &F,
    offsets: &mut Vec<u32>,
    items: &mut Vec<u32>,
) where
    F: Fn(usize) -> Option<(u32, u32)> + Sync + Send,
{
    let ws = ctx.workspace();
    let sentinel = num_keys as u64;
    // Keys 0..=num_keys (sentinel included) live in the high 32 bits, the
    // value in the low 32: counting passes shift past the value bits, and
    // LSD stability preserves stream order within every key group.
    let key_bits = sig_bits(sentinel);
    let mut words = ws.take_u64(num_slots);
    fill_items_uncharged(ctx, &mut words, |s| match edge(s) {
        Some((k, v)) => {
            assert!(
                (k as usize) < num_keys,
                "csr key {k} out of range (num_keys = {num_keys})"
            );
            (u64::from(k) << 32) | u64::from(v)
        }
        None => sentinel << 32,
    });
    let mut scratch = ws.take_u64(num_slots);
    let (digit_bits, passes) = plan_digits(key_bits);
    for pass in 0..passes {
        counting_pass_items_uncharged(
            ctx,
            &words,
            &mut scratch,
            32 + pass * digit_bits,
            digit_bits,
        );
        std::mem::swap(&mut *words, &mut *scratch);
    }

    // Sentinel words sort to a trailing block; everything before it is real.
    let kept = words.partition_point(|&w| (w >> 32) < sentinel);
    offsets.clear();
    offsets.resize(num_keys + 1, 0);
    items.clear();
    items.resize(kept, 0);

    // Fused finish: one blocked pass over the sorted words extracts the
    // value column and writes each offsets slot exactly once (position `i`
    // fills `offsets[j] = i` for every key `j` in the gap between the
    // previous word's key and its own).  Blocks only peek one word to the
    // left of their range, so the pass parallelizes without a scan.
    let num_blocks = (kept / 8192).clamp(1, 256);
    let block_size = kept.div_ceil(num_blocks).max(1);
    let offsets_ptr = SendPtr(offsets.as_mut_ptr());
    let items_ptr = SendPtr(items.as_mut_ptr());
    let words = &words[..kept];
    let run_block = |b: usize| {
        let start = b * block_size;
        let end = (start + block_size).min(kept);
        let (op, ip) = (offsets_ptr, items_ptr);
        for i in start..end {
            let w = words[i];
            let k = (w >> 32) as usize;
            // SAFETY: each item slot is written by exactly one position.
            unsafe {
                *ip.0.add(i) = w as u32;
            }
            let prev = if i == 0 {
                usize::MAX // virtual key "-1" before the first word
            } else {
                (words[i - 1] >> 32) as usize
            };
            for j in prev.wrapping_add(1)..=k {
                // SAFETY: gap ranges of different positions are disjoint, so
                // each offsets slot is written exactly once.
                unsafe {
                    *op.0.add(j) = i as u32;
                }
            }
        }
    };
    for_each_block(num_blocks, run_block);
    // Keys past the last real word (always at least the `num_keys` slot).
    let tail_from = if kept == 0 {
        0
    } else {
        (words[kept - 1] >> 32) as usize + 1
    };
    for o in &mut offsets[tail_from..=num_keys] {
        *o = kept as u32;
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

    /// The sequential count/prefix/scatter build on the same stream — the
    /// baseline every blocked regime must reproduce byte for byte.
    fn sequential_baseline(num_keys: usize, stream: &[Option<(u32, u32)>]) -> (Vec<u32>, Vec<u32>) {
        let ctx = Ctx::untracked();
        let (mut offsets, mut items) = (Vec::new(), Vec::new());
        build_csr_sequential(
            &ctx,
            num_keys,
            stream.len(),
            &|s| stream[s],
            &mut offsets,
            &mut items,
        );
        (offsets, items)
    }

    /// The §8 closed form of a build's charges: `2·num_slots + num_keys`
    /// work in 3 rounds, in every regime.
    fn model_charges(num_keys: usize, num_slots: usize) -> sfcp_pram::Stats {
        sfcp_pram::Stats {
            work: (2 * num_slots + num_keys) as u64,
            rounds: 3,
        }
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

    /// The blocked direct path (above the sequential threshold) must match
    /// the naive reference and the sequential baseline exactly, and charge
    /// the closed-form model.
    #[test]
    fn large_streams_match_reference_and_baseline() {
        for (num_keys, num_slots, seed) in [
            (50_000, 120_000, 1u64),
            (300, 40_000, 2),
            (70_000, 70_000, 3),
        ] {
            let stream = random_stream(num_keys, num_slots, seed);
            let expected = naive_csr(num_keys, &stream);
            assert_eq!(sequential_baseline(num_keys, &stream), expected);
            let ctx = Ctx::parallel();
            let got = build_csr(&ctx, num_keys, num_slots, |s| stream[s]);
            assert_eq!(got, expected, "csr mismatch (keys={num_keys})");
            assert_eq!(ctx.stats(), model_charges(num_keys, num_slots));
        }
    }

    /// Key spaces past the direct-build budget take the packed-word radix
    /// fallback; it must agree with the sequential baseline and charge the
    /// same closed-form model.
    #[test]
    fn bucketed_fallback_matches_baseline_on_huge_key_spaces() {
        let num_keys = DIRECT_BUILD_MAX_KEYS + 3;
        let num_slots = 60_000;
        let mut rng = StdRng::seed_from_u64(5);
        let stream: Vec<Option<(u32, u32)>> = (0..num_slots)
            .map(|s| {
                if rng.gen_bool(0.1) {
                    None
                } else {
                    Some((rng.gen_range(0..num_keys as u32), s as u32))
                }
            })
            .collect();
        let ctx = Ctx::parallel();
        let a = build_csr(&ctx, num_keys, num_slots, |s| stream[s]);
        assert_eq!(
            a,
            sequential_baseline(num_keys, &stream),
            "bucketed fallback diverged from the baseline"
        );
        assert_eq!(ctx.stats(), model_charges(num_keys, num_slots));
        // Spot-check the grouping really happened.
        assert_eq!(a.0.len(), num_keys + 1);
        assert_eq!(
            *a.0.last().unwrap() as usize,
            stream.iter().flatten().count()
        );
    }

    #[test]
    fn warm_builds_allocate_nothing() {
        let num_keys = 30_000;
        let stream = random_stream(num_keys, 80_000, 9);
        let ctx = Ctx::parallel();
        let mut offsets = Vec::new();
        let mut items = Vec::new();
        build_csr_into(
            &ctx,
            num_keys,
            stream.len(),
            |s| stream[s],
            &mut offsets,
            &mut items,
        );
        let before = ctx.workspace().stats();
        for _ in 0..4 {
            build_csr_into(
                &ctx,
                num_keys,
                stream.len(),
                |s| stream[s],
                &mut offsets,
                &mut items,
            );
        }
        let after = ctx.workspace().stats();
        assert!(after.checkouts > before.checkouts);
        assert_eq!(
            after.misses, before.misses,
            "warm CSR builds must serve every checkout from the pools"
        );
        assert_eq!(after.outstanding(), 0);
    }

    /// The sequential build (streams up to `SEQUENTIAL_BUILD_MAX` slots).
    #[test]
    #[should_panic(expected = "out of range")]
    fn sequential_engine_rejects_out_of_range_keys() {
        let ctx = Ctx::parallel();
        let _ = build_csr(&ctx, 10, SEQUENTIAL_BUILD_MAX, |s| Some((10, s as u32)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn packed_engine_rejects_out_of_range_keys() {
        let ctx = Ctx::parallel();
        let _ = build_csr(&ctx, 10, 50_000, |s| Some((10, s as u32)));
    }

    #[test]
    fn mocked_small_cache_topology_switches_regimes_and_matches() {
        use sfcp_pram::Topology;
        // 512 KB LLC / 4 KB L2: the direct-build cap shrinks to the 64K
        // floor and the counting pass enters the write-combined regime well
        // below it.
        let topo = Topology::fallback()
            .with_llc_bytes(1 << 19)
            .with_l2_bytes(1 << 12);
        let small_ctx = || Ctx::parallel().with_topology(topo);
        assert_eq!(direct_build_max_keys(&small_ctx()), 1 << 16);
        assert!(direct_build_max_keys(&Ctx::parallel()) >= 1 << 16);

        // 70_000 keys: direct build on the real host, bucketed fallback
        // under the mocked topology — identical output and charges either
        // way (the regime switch must be charge-invisible).
        let num_keys = 70_000;
        let stream = random_stream(num_keys, 90_000, 17);
        let expected = naive_csr(num_keys, &stream);
        for ctx in [small_ctx(), Ctx::parallel()] {
            let got = build_csr(&ctx, num_keys, stream.len(), |s| stream[s]);
            assert_eq!(got, expected, "csr mismatch under {:?}", ctx.topology());
            assert_eq!(
                ctx.stats(),
                model_charges(num_keys, stream.len()),
                "regime switches must be charge-invisible"
            );
        }

        // 5_000 keys: still the direct regime under the mock, but the 20 KB
        // row exceeds the 4 KB L2, so the counting pass runs write-combined.
        let num_keys = 5_000;
        let stream = random_stream(num_keys, 60_000, 18);
        let expected = naive_csr(num_keys, &stream);
        let ctx = small_ctx();
        let wc = build_csr(&ctx, num_keys, stream.len(), |s| stream[s]);
        assert_eq!(wc, expected, "write-combined counting pass diverged");
    }

    proptest! {
        /// Offsets, grouping, and within-group (stream) order all match the
        /// naive build, across the sequential/blocked threshold.
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
