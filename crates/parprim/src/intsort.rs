//! Integer sorting: stable block-parallel LSD radix sort.
//!
//! This is the routine the paper charges its only super-linear term to: it
//! uses the Bhatt–Diks–Hagerup–Prasad–Radzik–Saxena deterministic integer
//! sorting algorithm (`O(log n / log log n)` time, `O(n log log n)` work) to
//! sort keys drawn from `[1, n^{O(1)}]`.  The practical analogue implemented
//! here is a least-significant-digit radix sort with adaptive digit widths:
//!
//! * work `O(n · ⌈b/8⌉)` where `b` is the number of significant key bits —
//!   linear in `n` for the polynomial-range keys the algorithms produce,
//! * depth `O(⌈b/8⌉ · log n)` from the per-digit histogram scans,
//! * **stable**, which the pair-contraction steps of *efficient m.s.p.* and
//!   *sorting strings* rely on.
//!
//! The engine is cache-aware: `(u64 key, u32 payload)` records ([`Rec`]) —
//! or, when key and index fit together, single packed `u64` words — are
//! physically moved between ping-pong buffers checked out from the [`Ctx`]
//! workspace.  Every counting pass reads and writes the record stream
//! sequentially; no pass gathers through an index permutation, and no pass
//! allocates (histogram matrices and ping-pong buffers come from the
//! workspace pool).
//!
//! The tracked charges are the §8 model of an LSD radix sort over an index
//! permutation — an identity-order setup round, a max-scan round, and per
//! counting pass a histogram round, a transpose-scan over the offset matrix
//! and a scatter round — whatever physical representation runs (see
//! `DESIGN.md`, "Charge discipline"), so the complexity tables do not depend
//! on the record layout.
//!
//! The classic entry points ([`radix_sort_u64`], [`radix_sort_pairs`])
//! return a *permutation* (`Vec<u32>` of indices in sorted order); they are
//! thin wrappers that sort records carrying the index as payload and read
//! the payload column back out.  Callers that can consume sorted records
//! directly (the dense-rank pipeline in [`crate::rank`]) skip the read-back
//! entirely.

use rayon::prelude::*;
use sfcp_pram::{Ctx, Rec};

/// Widest digit the sorter will use; bounded so the per-block histogram
/// matrices stay small.  11 bits keeps the (blocks × radix) offset matrix of
/// a 40-bit pair-key sort inside L2 (~0.5 MB) — the wider 15-bit digits save
/// a pass but pay for it several times over in histogram/offset traffic.
const MAX_DIGIT_BITS: u32 = 11;

/// Pick the digit width that minimises the number of counting passes for keys
/// of the given significant width.  The paper's integer sort exploits exactly
/// this "polynomial range ⇒ constant number of passes of range-n counting
/// sort" structure, so dense pair keys are handled in two or three passes.
pub(crate) fn plan_digits(significant_bits: u32) -> (u32, u32) {
    let sig = significant_bits.max(1);
    let passes = sig.div_ceil(MAX_DIGIT_BITS).max(1);
    let digit_bits = sig.div_ceil(passes).clamp(4, MAX_DIGIT_BITS);
    (digit_bits, sig.div_ceil(digit_bits))
}

/// Number of significant bits of `x` (at least 1).
#[inline]
pub(crate) fn sig_bits(x: u64) -> u32 {
    (64 - x.leading_zeros()).max(1)
}

/// Counter budget of a per-block histogram matrix (`blocks × radix` `u32`
/// cells): the sort's block plan and the CSR builder's both stay within it.
pub(crate) const MAX_HIST_COUNTERS: usize = 1 << 22;

/// The sort's block decomposition: enough blocks to parallelise, few enough
/// that the histogram matrix (blocks × radix) stays within
/// [`MAX_HIST_COUNTERS`].  A pure function of `(n, radix)` — never of the
/// host or the thread count — because its output enters tracked charges,
/// which must be machine-independent (DESIGN.md, "Charge discipline").
fn model_block_plan(n: usize, radix: usize) -> (usize, usize) {
    let max_blocks = (MAX_HIST_COUNTERS / radix).clamp(1, 256);
    let num_blocks = (n / 8192).clamp(1, max_blocks);
    (num_blocks, n.div_ceil(num_blocks))
}

/// Run `f(block_index)` for each block, on the rayon pool when there is
/// more than one.  Charges nothing: callers account for the pass explicitly
/// at its model cost.
pub(crate) fn for_each_block<F>(num_blocks: usize, f: F)
where
    F: Fn(usize) + Sync + Send,
{
    if num_blocks > 1 {
        (0..num_blocks).into_par_iter().for_each(f);
    } else {
        for b in 0..num_blocks {
            f(b);
        }
    }
}

/// Digits per tile of the parallel transpose-scan: wide enough that a
/// tile's row segments stream (≥ 4 KB per row), small enough to split the
/// scan across workers.
const SCAN_TILE: usize = 1024;

/// Turn the per-block digit histogram matrix (`num_blocks` block-major rows
/// of `radix` counters) into block-major stable scatter cursors: the cursor
/// of `(block b, digit d)` points at the first output slot for block `b`'s
/// items with digit `d`, with items ordered digit-major first, block-major
/// second.  Optionally emits the exclusive per-digit base (the cursor of
/// block 0, i.e. the CSR `offsets` column) into `base_out`.  Returns the
/// total count.
///
/// The naive formulation walks the matrix digit-major — a column traversal
/// at a `radix`-word stride that misses cache on every cell once the matrix
/// outgrows L2, and runs serially between the parallel histogram and
/// scatter passes (the depth bottleneck the ROADMAP flags).  This version
/// is block-tiled into streaming row-major passes — per-digit totals, an
/// exclusive scan over them, then a row-major cursor sweep — and every
/// matrix pass parallelises over digit tiles (columns are independent); the
/// digit scan itself goes two-level (tile sums, then local scans) once it
/// is wide enough to matter.  Uncharged: callers charge the documented
/// `radix × blocks` transpose-scan cost unchanged, so the tiling is
/// charge-invisible (see DESIGN.md, "Charge discipline").
#[allow(clippy::needless_range_loop)] // digit indices drive raw-pointer writes
pub(crate) fn transpose_scan_offsets(
    ctx: &Ctx,
    hist: &mut [u32],
    num_blocks: usize,
    radix: usize,
    mut base_out: Option<&mut [u32]>,
) -> u32 {
    debug_assert_eq!(hist.len(), num_blocks * radix);
    let num_tiles = radix.div_ceil(SCAN_TILE);
    let parallel = num_tiles > 1;

    if num_blocks == 1 {
        // One row: the cursors are the exclusive scan of the row itself.
        if !parallel {
            let mut running = 0u32;
            for d in 0..radix {
                if let Some(base) = base_out.as_deref_mut() {
                    base[d] = running;
                }
                let c = hist[d];
                hist[d] = running;
                running += c;
            }
            return running;
        }
        // Two-level scan: per-tile sums, a tiny sequential scan over them,
        // then parallel local exclusive scans.
        let ws = ctx.workspace();
        let mut tile_sum = ws.take_u32(num_tiles);
        {
            let sums = SendPtr(tile_sum.as_mut_ptr());
            let hist_ref: &[u32] = hist;
            for_each_block(num_tiles, |t| {
                let (d0, d1) = (t * SCAN_TILE, ((t + 1) * SCAN_TILE).min(radix));
                let sp = sums;
                let total: u32 = hist_ref[d0..d1].iter().sum();
                // SAFETY: one writer per tile.
                unsafe {
                    *sp.0.add(t) = total;
                }
            });
        }
        let mut running = 0u32;
        for t in tile_sum.iter_mut() {
            let c = *t;
            *t = running;
            running += c;
        }
        {
            let hist_ptr = SendPtr(hist.as_mut_ptr());
            let base_ptr = base_out.as_deref_mut().map(|b| SendPtr(b.as_mut_ptr()));
            let tile_sum = &tile_sum;
            for_each_block(num_tiles, |t| {
                let (d0, d1) = (t * SCAN_TILE, ((t + 1) * SCAN_TILE).min(radix));
                let hp = hist_ptr;
                let mut acc = tile_sum[t];
                for d in d0..d1 {
                    // SAFETY: tiles own disjoint digit ranges.
                    unsafe {
                        let cell = hp.0.add(d);
                        let c = *cell;
                        *cell = acc;
                        if let Some(bp) = base_ptr {
                            *bp.0.add(d) = acc;
                        }
                        acc += c;
                    }
                }
            });
        }
        return running;
    }

    // Multi-block: per-digit totals (streaming row-major), exclusive scan
    // over the digits, then a row-major sweep turning the totals into
    // running block cursors.  `base` doubles as totals, digit base, and
    // running cursor in turn.
    let ws = ctx.workspace();
    let mut base = ws.take_u32(radix);
    base.fill(0);
    {
        let base_ptr = SendPtr(base.as_mut_ptr());
        let hist_ref: &[u32] = hist;
        for_each_block(num_tiles, |t| {
            let (d0, d1) = (t * SCAN_TILE, ((t + 1) * SCAN_TILE).min(radix));
            let bp = base_ptr;
            for b in 0..num_blocks {
                let row = &hist_ref[b * radix..];
                for d in d0..d1 {
                    // SAFETY: tiles own disjoint digit ranges.
                    unsafe {
                        *bp.0.add(d) += row[d];
                    }
                }
            }
        });
    }
    // Exclusive scan of the totals (sequential below SCAN_TILE tiles' worth
    // of digits, two-level otherwise — same scheme as the single-row path).
    let total = if !parallel {
        let mut running = 0u32;
        for cell in base.iter_mut() {
            let c = *cell;
            *cell = running;
            running += c;
        }
        running
    } else {
        let mut tile_sum = ws.take_u32(num_tiles);
        {
            let sums = SendPtr(tile_sum.as_mut_ptr());
            let base_ref: &[u32] = &base;
            for_each_block(num_tiles, |t| {
                let (d0, d1) = (t * SCAN_TILE, ((t + 1) * SCAN_TILE).min(radix));
                let sp = sums;
                let total: u32 = base_ref[d0..d1].iter().sum();
                // SAFETY: one writer per tile.
                unsafe {
                    *sp.0.add(t) = total;
                }
            });
        }
        let mut running = 0u32;
        for t in tile_sum.iter_mut() {
            let c = *t;
            *t = running;
            running += c;
        }
        {
            let base_ptr = SendPtr(base.as_mut_ptr());
            let tile_sum = &tile_sum;
            for_each_block(num_tiles, |t| {
                let (d0, d1) = (t * SCAN_TILE, ((t + 1) * SCAN_TILE).min(radix));
                let bp = base_ptr;
                let mut acc = tile_sum[t];
                for d in d0..d1 {
                    // SAFETY: tiles own disjoint digit ranges.
                    unsafe {
                        let cell = bp.0.add(d);
                        let c = *cell;
                        *cell = acc;
                        acc += c;
                    }
                }
            });
        }
        running
    };
    if let Some(bo) = base_out {
        bo[..radix].copy_from_slice(&base);
    }
    // Row-major cursor sweep, parallel over digit tiles: block b's cursor
    // for digit d is the digit base plus the counts of earlier blocks.
    {
        let hist_ptr = SendPtr(hist.as_mut_ptr());
        let base_ptr = SendPtr(base.as_mut_ptr());
        for_each_block(num_tiles, |t| {
            let (d0, d1) = (t * SCAN_TILE, ((t + 1) * SCAN_TILE).min(radix));
            let (hp, bp) = (hist_ptr, base_ptr);
            for b in 0..num_blocks {
                for d in d0..d1 {
                    // SAFETY: tiles own disjoint digit ranges of every row.
                    unsafe {
                        let cell = hp.0.add(b * radix + d);
                        let run = bp.0.add(d);
                        let c = *cell;
                        *cell = *run;
                        *run += c;
                    }
                }
            }
        });
    }
    total
}

// ---------------------------------------------------------------------------
// Packed record sort.
// ---------------------------------------------------------------------------

/// Bits needed to store an index in `0..n` (at least 1).
#[inline]
pub(crate) fn idx_bits_for(n: usize) -> u32 {
    sig_bits(n.saturating_sub(1) as u64)
}

/// An item a counting pass can extract a digit from.
pub(crate) trait RadixItem: Copy + Default + Send + Sync + 'static {
    fn digit_at(&self, shift: u32, mask: u64) -> usize;
}

impl RadixItem for Rec {
    #[inline]
    fn digit_at(&self, shift: u32, mask: u64) -> usize {
        ((self.key >> shift) & mask) as usize
    }
}

impl RadixItem for u64 {
    #[inline]
    fn digit_at(&self, shift: u32, mask: u64) -> usize {
        ((self >> shift) & mask) as usize
    }
}

/// Stable in-place radix sort of `recs` by [`Rec::key`].  `scratch` is the
/// ping-pong partner (resized as needed); after the call `recs` holds the
/// sorted records and `scratch` holds garbage.
///
/// This is the zero-allocation hot path: counting passes stream the record
/// array sequentially (histogram) and write each record exactly once per
/// pass (scatter) — no index-permutation gathers.  The per-pass histogram
/// matrix is checked out from the context workspace.
///
/// Records are the wide-key representation (16 bytes).  When the key and
/// payload together fit in 64 bits the engine instead uses
/// `radix_sort_words` — a single `u64` per element, halving the memory
/// traffic of every pass.
pub fn radix_sort_recs(ctx: &Ctx, recs: &mut Vec<Rec>, scratch: &mut Vec<Rec>) {
    let n = recs.len();
    if n <= 1 {
        return;
    }
    let max_key = recs.iter().map(|r| r.key).max().unwrap();
    ctx.charge_step(n as u64);
    radix_sort_recs_prebounded(ctx, recs, scratch, sig_bits(max_key));
}

/// [`radix_sort_recs`] for callers that already know a bound on the
/// significant key bits (skips the max scan and its charge; callers charge
/// the model's max-scan round themselves where it applies).
pub fn radix_sort_recs_prebounded(
    ctx: &Ctx,
    recs: &mut Vec<Rec>,
    scratch: &mut Vec<Rec>,
    significant_bits: u32,
) {
    let mut span = ctx.pass("radix_sort_recs");
    span.attr("n", recs.len() as u64);
    let n = recs.len();
    if n <= 1 {
        return;
    }
    let (digit_bits, passes) = plan_digits(significant_bits);
    span.attr("passes", passes as u64);
    scratch.resize(n, Rec::default());
    for pass in 0..passes {
        counting_pass_items(ctx, recs, scratch, pass * digit_bits, digit_bits);
        std::mem::swap(recs, scratch);
    }
}

/// Stable radix sort of packed words `key << idx_bits | index` by the key
/// digits only: the counting passes skip the low `idx_bits`, and LSD
/// stability makes the embedded ascending index a free tie-break, so the
/// result is exactly a stable sort by key.  One 8-byte word per element —
/// the tightest streaming representation, used whenever
/// `key_bits + idx_bits <= 64`.
///
/// The number of passes depends only on `key_bits`, so the charge profile is
/// identical to sorting the bare keys as records.
pub(crate) fn radix_sort_words(
    ctx: &Ctx,
    words: &mut Vec<u64>,
    scratch: &mut Vec<u64>,
    key_bits: u32,
    idx_bits: u32,
) {
    let n = words.len();
    if n <= 1 {
        return;
    }
    let (digit_bits, passes) = plan_digits(key_bits);
    scratch.resize(n, 0);
    for pass in 0..passes {
        counting_pass_items(
            ctx,
            words,
            scratch,
            idx_bits + pass * digit_bits,
            digit_bits,
        );
        std::mem::swap(words, scratch);
    }
}

/// One stable counting pass: reorder `src` into `dst` by the
/// `digit_bits`-wide digit at `shift`.  Charges the model cost of one
/// counting pass.
pub(crate) fn counting_pass_items<T: RadixItem>(
    ctx: &Ctx,
    src: &[T],
    dst: &mut [T],
    shift: u32,
    digit_bits: u32,
) {
    let n = src.len();
    let mut span = ctx.span("radix_pass");
    span.attr("shift", u64::from(shift));
    let radix = 1usize << digit_bits;
    let mask = (radix - 1) as u64;
    let (num_blocks, block_size) = model_block_plan(n, radix);

    // Flat histogram matrix [block][digit], reused across passes and calls.
    let ws = ctx.workspace();
    let mut hist = ws.take_u32(num_blocks * radix);

    // Count: each block zeroes and fills its own row — a sequential read of
    // the record stream, no indirections.
    {
        let hist_ptr = SendPtr(hist.as_mut_ptr());
        for_each_block(num_blocks, |b| {
            let hp = hist_ptr;
            let start = b * block_size;
            let end = (start + block_size).min(n);
            // SAFETY: rows of the histogram matrix are disjoint per block.
            let row = unsafe { std::slice::from_raw_parts_mut(hp.0.add(b * radix), radix) };
            row.fill(0);
            for r in &src[start..end] {
                row[r.digit_at(shift, mask)] += 1;
            }
        });
    }

    // Global stable offsets: digit-major, then block-major (block-tiled
    // streaming passes instead of the cache-hostile column walk).
    transpose_scan_offsets(ctx, &mut hist, num_blocks, radix, None);

    // Scatter: stream the block again, moving whole records; each
    // (block, digit) offset range is disjoint, so every destination slot is
    // written exactly once.  The histogram row doubles as the running write
    // cursors — no per-block clone.
    {
        let hist_ptr = SendPtr(hist.as_mut_ptr());
        let dst_ptr = SendPtr(dst.as_mut_ptr());
        for_each_block(num_blocks, |b| {
            let hp = hist_ptr;
            let dp = dst_ptr;
            let start = b * block_size;
            let end = (start + block_size).min(n);
            // SAFETY: disjoint histogram rows (see above).
            let row = unsafe { std::slice::from_raw_parts_mut(hp.0.add(b * radix), radix) };
            for r in &src[start..end] {
                let d = r.digit_at(shift, mask);
                // SAFETY: offsets of different (block, digit) pairs are
                // disjoint ranges, so each output slot is written once.
                unsafe {
                    *dp.0.add(row[d] as usize) = *r;
                }
                row[d] += 1;
            }
        });
    }

    // The model cost of one counting pass: a histogram round over the
    // blocks, the sequential transpose-scan over the offset matrix, and a
    // scatter round over the whole input.
    ctx.charge_step(num_blocks as u64);
    ctx.charge_step((radix * num_blocks) as u64);
    ctx.charge_step(num_blocks as u64);
    ctx.charge_work(n as u64);
}

/// Copy the payload column out of a sorted record buffer (the permutation).
/// Uncharged: in the model the sorted index permutation *is* the output, so
/// reading it back is representation glue, not a step.
fn extract_payload(ctx: &Ctx, recs: &[Rec]) -> Vec<u32> {
    recs.par_iter()
        .with_min_len(ctx.grain())
        .map(|r| r.pay)
        .collect()
}

/// Extract the embedded index column out of sorted packed words (uncharged,
/// see [`extract_payload`]).
fn extract_payload_words(ctx: &Ctx, words: &[u64], idx_bits: u32) -> Vec<u32> {
    let mask = (1u64 << idx_bits) - 1;
    words
        .par_iter()
        .with_min_len(ctx.grain())
        .map(|&w| (w & mask) as u32)
        .collect()
}

/// Fill `items[i] = make(i)` without charging (representation glue under
/// the caller's documented model charge).
pub(crate) fn fill_items_uncharged<T, F>(ctx: &Ctx, items: &mut [T], make: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync + Send,
{
    let n = items.len();
    let ptr = SendPtr(items.as_mut_ptr());
    let grain = ctx.grain();
    (0..n.div_ceil(grain)).into_par_iter().for_each(|c| {
        let start = c * grain;
        let end = (start + grain).min(n);
        let p = ptr;
        for i in start..end {
            // SAFETY: disjoint chunks; each slot written once.
            unsafe {
                p.0.add(i).write(make(i));
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Public permutation-returning API.
// ---------------------------------------------------------------------------

/// Stable sort of `0..keys.len()` by `keys[i]`, returning the index
/// permutation in sorted order.  Keys may be any `u64`s; only the significant
/// bits of the maximum key are processed, with an adaptive digit width so
/// that dense (polynomial-range) keys need only a couple of counting passes.
#[must_use]
pub fn radix_sort_u64(ctx: &Ctx, keys: &[u64]) -> Vec<u32> {
    let mut span = ctx.pass("radix_sort_u64");
    span.attr("n", keys.len() as u64);
    let n = keys.len();
    if n <= 1 {
        // The model's identity-order setup round (its max scan and passes
        // are skipped on trivial input).
        ctx.charge_step(n as u64);
        return (0..n as u32).collect();
    }
    let max_key = *keys.iter().max().unwrap();
    ctx.charge_step(n as u64); // max scan
    let key_bits = sig_bits(max_key);
    let idx_bits = idx_bits_for(n);
    let ws = ctx.workspace();
    if key_bits + idx_bits <= 64 {
        let mut words = ws.take_u64(n);
        let mut scratch = ws.take_u64(n);
        // The packing pass is the model's identity-order setup round.
        ctx.par_update(&mut words, |i, w| *w = (keys[i] << idx_bits) | i as u64);
        radix_sort_words(ctx, &mut words, &mut scratch, key_bits, idx_bits);
        extract_payload_words(ctx, &words, idx_bits)
    } else {
        let mut recs = ws.take_recs(n);
        let mut scratch = ws.take_recs(n);
        ctx.par_update(&mut recs, |i, r| *r = Rec::new(keys[i], i as u32));
        radix_sort_recs_prebounded(ctx, &mut recs, &mut scratch, key_bits);
        extract_payload(ctx, &recs)
    }
}

/// Stable sort of index pairs `(a, b)` in lexicographic order, returning the
/// index permutation.  This is the exact shape required by step 3 of
/// *Algorithm efficient m.s.p.* and *Algorithm sorting strings* ("sort all the
/// ordered pairs lexicographically").
#[must_use]
pub fn radix_sort_pairs(ctx: &Ctx, pairs: &[(u64, u64)]) -> Vec<u32> {
    let mut span = ctx.pass("radix_sort_pairs");
    span.attr("n", pairs.len() as u64);
    let n = pairs.len();
    if n <= 1 {
        return (0..n as u32).collect();
    }
    let max_a = pairs.iter().map(|p| p.0).max().unwrap();
    let max_b = pairs.iter().map(|p| p.1).max().unwrap();
    ctx.charge_step(2 * n as u64);
    // Pack into a single u64 key whenever it fits: shift `a` by exactly the
    // number of significant bits of the largest `b`, so the packed keys stay
    // as narrow as possible (fewer counting passes); otherwise fall back to
    // two stable passes (sort by b, then stably by a).
    let b_bits = sig_bits(max_b);
    let a_bits = sig_bits(max_a);
    let ws = ctx.workspace();
    let idx_bits = idx_bits_for(n);
    if a_bits + b_bits + idx_bits <= 64 {
        // Tightest path: key and index in one u64 word.
        let mut words = ws.take_u64(n);
        let mut scratch = ws.take_u64(n);
        // One pass packs key and index (the model's key-packing map)…
        ctx.par_update(&mut words, |i, w| {
            let (a, b) = pairs[i];
            *w = (((a << b_bits) | b) << idx_bits) | i as u64;
        });
        // …plus the model's identity-order setup and max-scan rounds (the
        // key width is already known here).
        ctx.charge_step(n as u64);
        ctx.charge_step(n as u64);
        radix_sort_words(ctx, &mut words, &mut scratch, a_bits + b_bits, idx_bits);
        extract_payload_words(ctx, &words, idx_bits)
    } else if a_bits + b_bits <= 64 {
        let mut recs = ws.take_recs(n);
        let mut scratch = ws.take_recs(n);
        // Packed records (the model's key-packing map, plus its
        // identity-order setup and max scan — the key width is already
        // exact: the pair containing max_a pins sig_bits(max packed key) to
        // a_bits + b_bits).
        ctx.par_update(&mut recs, |i, r| {
            let (a, b) = pairs[i];
            *r = Rec::new((a << b_bits) | b, i as u32);
        });
        ctx.charge_step(n as u64);
        ctx.charge_step(n as u64);
        radix_sort_recs_prebounded(ctx, &mut recs, &mut scratch, a_bits + b_bits);
        extract_payload(ctx, &recs)
    } else {
        // Wide pairs: two stable record passes (by b, then by a).  Both key
        // widths are already known, so neither sort re-scans for the max
        // (the model's max scan of pass one is charged explicitly).
        let mut recs = ws.take_recs(n);
        let mut scratch = ws.take_recs(n);
        ctx.par_update(&mut recs, |i, r| *r = Rec::new(pairs[i].1, i as u32));
        ctx.charge_step(n as u64); // identity-order setup
        ctx.charge_step(n as u64); // max scan of pass one
        radix_sort_recs_prebounded(ctx, &mut recs, &mut scratch, b_bits);
        ctx.par_update(&mut recs, |_, r| r.key = pairs[r.pay as usize].0);
        radix_sort_recs_prebounded(ctx, &mut recs, &mut scratch, a_bits);
        extract_payload(ctx, &recs)
    }
}

struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
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

    fn check_is_stable_sort(keys: &[u64], order: &[u32]) {
        assert_eq!(order.len(), keys.len());
        // Sorted.
        for w in order.windows(2) {
            let (a, b) = (keys[w[0] as usize], keys[w[1] as usize]);
            assert!(a <= b, "not sorted: {a} > {b}");
            if a == b {
                assert!(w[0] < w[1], "not stable on equal keys");
            }
        }
        // A permutation.
        let mut seen = vec![false; keys.len()];
        for &i in order {
            assert!(!seen[i as usize], "duplicate index {i}");
            seen[i as usize] = true;
        }
    }

    /// The stable index order of `pairs` by `std`'s stable sort — the
    /// reference the pair sort must reproduce exactly.
    fn std_pair_order(pairs: &[(u64, u64)]) -> Vec<u32> {
        let mut expected: Vec<u32> = (0..pairs.len() as u32).collect();
        expected.sort_by_key(|&i| pairs[i as usize]);
        expected
    }

    #[test]
    fn empty_and_single() {
        let ctx = Ctx::parallel();
        assert!(radix_sort_u64(&ctx, &[]).is_empty());
        assert_eq!(radix_sort_u64(&ctx, &[42]), vec![0]);
    }

    #[test]
    fn small_with_duplicates() {
        let ctx = Ctx::parallel();
        let keys = [5u64, 3, 5, 1, 3, 3, 0];
        let order = radix_sort_u64(&ctx, &keys);
        check_is_stable_sort(&keys, &order);
        assert_eq!(order, vec![6, 3, 1, 4, 5, 0, 2]);
    }

    #[test]
    fn large_random_keys_sort_stably() {
        let mut rng = StdRng::seed_from_u64(7);
        let keys: Vec<u64> = (0..100_000).map(|_| rng.gen_range(0..1_000_000)).collect();
        let ctx = Ctx::parallel();
        let order = radix_sort_u64(&ctx, &keys);
        check_is_stable_sort(&keys, &order);
    }

    #[test]
    fn large_keys_use_more_passes() {
        let ctx = Ctx::parallel();
        let keys = [u64::from(u32::MAX) + 17, 3, 1 << 40, 12, 1 << 40];
        let order = radix_sort_u64(&ctx, &keys);
        check_is_stable_sort(&keys, &order);
    }

    #[test]
    fn pair_sort_lexicographic() {
        let ctx = Ctx::parallel();
        let pairs = [
            (1u64, 3u64),
            (2, 3),
            (4, 3),
            (1, 2),
            (3, 4),
            (2, 0),
            (1, 1),
            (1, 3),
            (2, 2),
            (3, 2),
        ];
        let order = radix_sort_pairs(&ctx, &pairs);
        let sorted: Vec<(u64, u64)> = order.iter().map(|&i| pairs[i as usize]).collect();
        let mut expected = pairs.to_vec();
        expected.sort();
        assert_eq!(sorted, expected);
        // Stability on the duplicate (1,3).
        let pos_first = order.iter().position(|&i| i == 0).unwrap();
        let pos_second = order.iter().position(|&i| i == 7).unwrap();
        assert!(pos_first < pos_second);
    }

    #[test]
    fn pair_sort_wide_values() {
        let ctx = Ctx::parallel();
        let big = 1u64 << 40;
        let pairs = [(big, 1u64), (1, big), (big, 0), (0, big), (big, big)];
        let order = radix_sort_pairs(&ctx, &pairs);
        let sorted: Vec<(u64, u64)> = order.iter().map(|&i| pairs[i as usize]).collect();
        let mut expected = pairs.to_vec();
        expected.sort();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn pair_sort_wide_values_stability() {
        // Wide pairs with duplicates exercise the two-pass path's stability.
        let big = 1u64 << 50;
        let pairs: Vec<(u64, u64)> = (0..2000u64).map(|i| (big + i % 7, (i % 5) << 40)).collect();
        let ctx = Ctx::parallel();
        let order = radix_sort_pairs(&ctx, &pairs);
        for w in order.windows(2) {
            let (x, y) = (pairs[w[0] as usize], pairs[w[1] as usize]);
            assert!(x <= y);
            if x == y {
                assert!(w[0] < w[1], "two-pass pair sort must be stable");
            }
        }
    }

    #[test]
    fn work_is_near_linear() {
        let ctx = Ctx::parallel();
        let keys: Vec<u64> = (0..200_000u64).rev().collect();
        let _ = radix_sort_u64(&ctx, &keys);
        let stats = ctx.stats();
        // 2 digit passes (max key < 2^18) at ~2n each plus setup: well under
        // the ~n log n ≈ 3.5M a comparison sort would be charged.
        assert!(
            stats.work < 2_500_000,
            "work {} should be near-linear",
            stats.work
        );
    }

    /// The charge-discipline pins: every entry point — `radix_sort_u64` and
    /// all three `radix_sort_pairs` packing branches (key + index in one
    /// word, key-only records, two-pass wide records) — charges the exact
    /// (work, rounds) of the §8 radix-sort model on fixed seeded inputs.
    #[test]
    fn engines_charge_identically() {
        let mut rng = StdRng::seed_from_u64(11);
        let keys: Vec<u64> = (0..40_000).map(|_| rng.gen_range(0..5_000_000)).collect();
        let narrow: Vec<(u64, u64)> = (0..30_000)
            .map(|_| (rng.gen_range(0..60_000), rng.gen_range(0..60_000)))
            .collect();
        // 30+30-bit keys: the packed key fits in 64 bits but not together
        // with the index — exercises the middle (wide-record) pair branch.
        let mid: Vec<(u64, u64)> = (0..30_000)
            .map(|_| {
                (
                    rng.gen_range(1 << 29..1u64 << 30),
                    rng.gen_range(1 << 29..1u64 << 30),
                )
            })
            .collect();
        let wide: Vec<(u64, u64)> = (0..20_000)
            .map(|_| {
                (
                    rng.gen_range(0..u64::MAX / 2),
                    rng.gen_range(0..u64::MAX / 2),
                )
            })
            .collect();
        let charged = |run: &dyn Fn(&Ctx)| {
            let ctx = Ctx::parallel();
            run(&ctx);
            (ctx.stats().work, ctx.stats().rounds)
        };
        let got = [
            charged(&|ctx| {
                check_is_stable_sort(&keys, &radix_sort_u64(ctx, &keys));
            }),
            charged(&|ctx| assert_eq!(radix_sort_pairs(ctx, &narrow), std_pair_order(&narrow))),
            charged(&|ctx| assert_eq!(radix_sort_pairs(ctx, &mid), std_pair_order(&mid))),
            charged(&|ctx| assert_eq!(radix_sort_pairs(ctx, &wide), std_pair_order(&wide))),
        ];
        // [u64, narrow, mid, wide] as (work, rounds).
        let expected = [(203_096, 11), (258_450, 13), (348_468, 22), (409_200, 41)];
        assert_eq!(got, expected, "sort charges moved");
    }

    /// After a warm-up call, the sorts stop allocating: every buffer
    /// checkout is served from the workspace pool.
    #[test]
    fn packed_engine_reuses_workspace_buffers() {
        let keys: Vec<u64> = (0..50_000u64).rev().collect();
        let ctx = Ctx::parallel();
        let _ = radix_sort_u64(&ctx, &keys); // warm up the pools
        let before = ctx.workspace().stats();
        for _ in 0..5 {
            let _ = radix_sort_u64(&ctx, &keys);
        }
        let after = ctx.workspace().stats();
        assert!(after.checkouts > before.checkouts);
        assert_eq!(
            after.misses, before.misses,
            "warm sorts must not allocate fresh buffers"
        );
    }

    proptest! {
        #[test]
        fn matches_stable_std_sort(keys in proptest::collection::vec(0u64..10_000, 0..3000)) {
            let ctx = Ctx::parallel().with_grain(64);
            let order = radix_sort_u64(&ctx, &keys);
            check_is_stable_sort(&keys, &order);
            // Oracle: indices sorted stably by key.
            let mut expected: Vec<u32> = (0..keys.len() as u32).collect();
            expected.sort_by_key(|&i| keys[i as usize]);
            prop_assert_eq!(order, expected);
        }

        /// The pair sort reproduces `std`'s stable index order exactly.
        #[test]
        fn engines_agree_on_pairs(pairs in proptest::collection::vec((0u64..500, 0u64..500), 0..2000)) {
            let ctx = Ctx::parallel().with_grain(64);
            prop_assert_eq!(radix_sort_pairs(&ctx, &pairs), std_pair_order(&pairs));
        }
    }

    /// Miri target: the counting-pass / packed-scatter raw-pointer writes,
    /// at a size that crosses the block plan.
    #[test]
    fn miri_radix_sort_scatter_paths() {
        let keys: Vec<u64> = (0..3000u64)
            .map(|i| i.wrapping_mul(2_654_435_761) % 977)
            .collect();
        let ctx = Ctx::parallel();
        check_is_stable_sort(&keys, &radix_sort_u64(&ctx, &keys));
    }
}
