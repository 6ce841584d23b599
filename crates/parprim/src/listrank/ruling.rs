//! The sparse-ruling-set machinery shared by list ranking and cycle minima.
//!
//! Deterministically sample ~`n / k` *rulers*, walk the short segments
//! between rulers (in parallel over segments), solve the contracted problem
//! over the rulers with packed-word doubling, and expand.  Two problems run
//! on this machinery:
//!
//! * **list ranking** (`bucket.rs`, behind [`crate::listrank::list_rank`]):
//!   the contracted list is ranked with weighted Wyllie (weight of a ruler =
//!   its segment length);
//! * **cycle minima** ([`cycle_min_contraction_into`], the execution path of
//!   `jump::permutation_cycle_min` for large permutations): the contracted
//!   cycle is min-jumped over packed `(best, jump)` words.
//!
//! The working representation of both is the **flagged successor array**:
//! `flagged[i] = next[i] | RULER_FLAG·(i is a ruler)`, so every walk hop
//! costs a single gather.  Callers that construct their successor lists
//! anyway — the fused Euler ranking of `decompose` — can emit the flags in
//! the same pass ([`crate::listrank::list_rank_flagged_into`]), which
//! deletes the `has_pred` sampling pass entirely; the skipped passes are
//! charged without being executed, so the flagged entry points are
//! charge-identical to the sampling ones (see DESIGN.md, "Charge
//! discipline").
//!
//! The segment walks themselves run as wavefront batches (`bucket.rs`).

use sfcp_pram::fxhash::hash_u64;
use sfcp_pram::{Ctx, Scratch};

use super::bucket;

/// Below this size pointer jumping beats the ruling-set machinery outright;
/// list ranking falls back to it (charging the Wyllie model).
pub(crate) const TINY_LIST_MAX: usize = 1024;

/// Low 31 bits of a packed successor-plus-ruler-flag word.
pub(crate) const FLAGGED_LOW: u32 = (1 << 31) - 1;

/// Segment length target ~`log n`: keeps the expected work linear while the
/// per-segment walks stay short.
pub(crate) fn segment_target(n: usize) -> usize {
    (sfcp_pram::ceil_log2(n) as usize).max(2) * 2
}

/// Whether slot `i` of a `domain_len`-element successor array is in the
/// deterministic `1/k` hash sample the ruling-set machinery uses (`k` is the
/// `segment_target` of the domain — about `2·log2 n`).  Heads and terminals are rulers
/// unconditionally, *in addition* to this sample.
///
/// The sample is a threshold compare against the hash (`hash < 2^64 / k`)
/// rather than a divisibility test: the one division has loop-invariant
/// operands, so it hoists out of the per-element loops that call this —
/// a hardware divide per element would otherwise dominate the flag
/// construction passes.
#[inline]
#[must_use]
pub fn is_sampled_ruler(i: usize, domain_len: usize) -> bool {
    ruler_sample(domain_len)(i)
}

/// [`is_sampled_ruler`] for one domain length, with the threshold's
/// division done once: passes whose per-element closures write through raw
/// pointers use it, since there the compiler cannot hoist the division.
pub(crate) fn ruler_sample(domain_len: usize) -> impl Fn(usize) -> bool + Copy + Send + Sync {
    let threshold = sample_threshold(segment_target(domain_len));
    move |i| hash_u64(i as u64) < threshold
}

/// The hash threshold of a `1/k` sample.
#[inline]
pub(crate) fn sample_threshold(k: usize) -> u64 {
    u64::MAX / k as u64
}

/// Deterministic chain-ruler sampling for list ranking: element `i` is a
/// ruler iff its hash falls in a
/// `1/k` slice, or it is a head (no predecessor — the prefix of a list
/// before the first sampled ruler would never be walked otherwise), or it is
/// a terminal.  The second pass packs the successor and the ruler flag into
/// one word (`next[i] | RULER_FLAG`), so the segment walks cost a single
/// gather per hop.
///
/// Returns the flagged successor array.  Callers that already know the
/// heads of their lists skip this entirely and build the flagged array
/// themselves (the `_flagged` entry points charge these two passes without
/// executing them).
pub(crate) fn sample_chain_rulers<'c>(ctx: &'c Ctx, next: &[u32], k: usize) -> Scratch<'c, u32> {
    let n = next.len();
    assert!(
        n < (1 << 31),
        "ruling-set list ranking packs successors and ruler flags into u32 words"
    );
    let ws = ctx.workspace();
    let mut has_pred = ws.take_u8(n);
    has_pred.fill(0);
    for (i, &s) in next.iter().enumerate() {
        if s as usize != i {
            has_pred[s as usize] = 1;
        }
    }
    ctx.charge_step(n as u64);

    let mut flagged_next = ws.take_u32(n);
    {
        let has_pred = &has_pred;
        let threshold = sample_threshold(k);
        ctx.par_update(&mut flagged_next, |i, w| {
            let ruler = has_pred[i] == 0 || next[i] as usize == i || hash_u64(i as u64) < threshold;
            *w = next[i] | (u32::from(ruler) << 31);
        });
    }
    flagged_next
}

/// Charge (without executing) the two sampling passes of
/// [`sample_chain_rulers`] — the flagged entry points' model top-up.
pub(crate) fn charge_sampling_model(ctx: &Ctx, n: usize) {
    ctx.charge_step(n as u64); // the has_pred predecessor pass
    ctx.charge_step(n as u64); // the ruler-flag packing pass
}

/// Compact the rulers of a flagged successor array and invert the
/// numbering: returns `(ruler_ids, ruler_index)` with
/// `ruler_index[ruler_ids[j]] == j`.  Only ruler slots of `ruler_index` are
/// written (and only those are read back).
pub(crate) fn index_rulers<'c, F>(
    ctx: &'c Ctx,
    n: usize,
    is_ruler: F,
) -> (Scratch<'c, u32>, Scratch<'c, u32>)
where
    F: Fn(usize) -> bool + Sync + Send,
{
    let ws = ctx.workspace();
    let mut ruler_ids = ws.take_u32(0);
    crate::compact::compact_indices_into(ctx, n, is_ruler, &mut ruler_ids);
    let m = ruler_ids.len();
    let mut ruler_index = ws.take_u32(n);
    for (j, &r) in ruler_ids.iter().enumerate() {
        ruler_index[r as usize] = j as u32;
    }
    ctx.charge_step(m as u64);
    (ruler_ids, ruler_index)
}

/// Weighted-Wyllie doubling over the contracted list, on packed
/// `(rank << 32) | successor` words — the rank twin of the cycle-min
/// `(best, jump)` representation: one gather per element per round instead
/// of two.  Converged rounds are charged without being executed.  Charges
/// two steps of `m` per round — the weighted-Wyllie model's rank pass and
/// successor pass, which the packed word advances together.
pub(crate) fn contracted_rank_doubling(ctx: &Ctx, state: &mut [u64]) {
    let m = state.len();
    let ws = ctx.workspace();
    let mut next_state = ws.take_u64(m);
    let rounds = sfcp_pram::ceil_log2(m.max(2)) + 1;
    for r in 0..rounds {
        {
            let state_ref: &[u64] = state;
            ctx.par_update(&mut next_state, |j, s| {
                let cur = state_ref[j];
                let via = state_ref[(cur & u64::from(u32::MAX)) as usize];
                *s = (((cur >> 32) + (via >> 32)) << 32) | (via & u64::from(u32::MAX));
            });
        }
        // The model advances rank and successor as two parallel passes; the
        // fused packed pass above charged one of them.
        ctx.charge_step(m as u64);
        state.swap_with_slice(&mut next_state);
        if *state == **next_state {
            // Converged: every successor is a terminal (rank 0, stable), so
            // further rounds are identity passes — charge them without
            // executing (see DESIGN.md "Charge discipline").
            let skipped = (rounds - 1 - r) as u64;
            ctx.charge_work(2 * skipped * m as u64);
            ctx.charge_rounds(2 * skipped);
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Cycle minima by contraction (the execution path of
// `jump::permutation_cycle_min` for large permutations).
// ---------------------------------------------------------------------------

/// Cycle minima of a permutation by sparse-ruling-set contraction.
///
/// Sample ~`n / k` rulers deterministically, walk each inter-ruler segment
/// once recording the segment minimum and the end ruler of every element,
/// min-jump the packed `(best, jump)` contracted list, and expand.  Cycles
/// that received no sampled ruler are swept sequentially at the end (w.h.p.
/// a vanishing fraction; the sweep is linear in the number of uncovered
/// elements).  The segment walks run as wavefront batches.
///
/// Charge discipline: the model cost of this routine is pinned to the
/// documented pointer-jumping substitution — init plus two steps of `n`
/// operations for each of `ceil_log2(n) + 1` rounds, exactly what the
/// jumping path of `permutation_cycle_min_into` charges after validation.
/// The contraction's own (smaller) pass charges are counted and the
/// remainder is topped up, so tracked work/depth is independent of which
/// execution path ran — see DESIGN.md "Charge discipline".
pub(crate) fn cycle_min_contraction_into(ctx: &Ctx, succ: &[u32], out: &mut Vec<u32>) {
    let n = succ.len();
    assert!(
        n < (1 << 31),
        "the cycle-min contraction packs successors and ruler flags into u32 words"
    );
    let ws = ctx.workspace();
    let k = segment_target(n);
    // Rulers: fixed points (their cycle is just {i}) plus a deterministic
    // 1/k hash sample, packed next to the successor so every walk hop costs
    // a single gather.  A cycle may end up with no ruler at all — handled by
    // the final sequential sweep.
    let mut flagged = ws.take_u32(n);
    let threshold = sample_threshold(k);
    ctx.par_update(&mut flagged, |i, w| {
        let ruler = succ[i] as usize == i || hash_u64(i as u64) < threshold;
        *w = succ[i] | (u32::from(ruler) << 31);
    });
    cycle_min_contraction_flagged_core(ctx, &flagged, out, 1);
}

/// The contraction body over a caller-built flagged successor permutation
/// (see `jump::permutation_cycle_min_flagged_into`).  `charged_flag_passes`
/// counts how many rounds of `n` the caller's flag construction already
/// charged inside the pinned budget (the sampling entry charges one).
pub(crate) fn cycle_min_contraction_flagged_core(
    ctx: &Ctx,
    flagged: &[u32],
    out: &mut Vec<u32>,
    charged_flag_passes: u64,
) {
    let n = flagged.len();
    let ws = ctx.workspace();
    let before = ctx.stats();
    let rounds = (sfcp_pram::ceil_log2(n) + 1) as u64;
    // The pinned model budget (init plus two steps of `n` per round, the
    // jumping path's post-validation cost), minus whatever flag-construction
    // passes the caller already charged against it — the sampling entry
    // charges one round of `n`, the flagged entries none (their flags ride
    // along in passes charged elsewhere).
    let target_work = (n as u64) * (1 + 2 * rounds - charged_flag_passes);
    let target_rounds = 1 + 2 * rounds - charged_flag_passes;

    let (ruler_ids, ruler_index) = {
        let flagged = &flagged;
        index_rulers(ctx, n, |i| flagged[i] >> 31 == 1)
    };
    let m = ruler_ids.len();

    // Walk every segment once: record the end ruler of each element and the
    // segment minimum, building the contracted (min, next-ruler) state
    // directly in packed form.  `end_ruler[i] == u32::MAX` afterwards marks
    // elements on ruler-free cycles.
    let mut end_ruler = ws.take_u32(n);
    end_ruler.fill(u32::MAX);
    let mut state = ws.take_u64(m);
    bucket::cycle_walk_bucketed(
        ctx,
        flagged,
        &ruler_ids,
        &ruler_index,
        &mut end_ruler,
        &mut state,
    );
    ctx.charge_step(m as u64);

    // Packed min-jumping over the contracted list (m ≈ n / k elements, so
    // the state stays cache-resident); stops as soon as the minima
    // stabilize.
    let mut next_state = ws.take_u64(m);
    for _ in 0..sfcp_pram::ceil_log2(m.max(2)) + 1 {
        {
            let state_ref = &state;
            ctx.par_update(&mut next_state, |j, s| {
                let cur = state_ref[j];
                let via = state_ref[(cur & u64::from(u32::MAX)) as usize];
                let best = (cur >> 32).min(via >> 32);
                *s = (best << 32) | (via & u64::from(u32::MAX));
            });
        }
        let stable = state
            .iter()
            .zip(next_state.iter())
            .all(|(a, b)| a >> 32 == b >> 32);
        std::mem::swap(&mut *state, &mut *next_state);
        if stable {
            break;
        }
    }

    // Expand: every covered element takes its end ruler's cycle minimum.
    out.resize(n, 0);
    {
        let (end_ruler, state) = (&end_ruler, &state);
        ctx.par_update(out, |i, o| {
            let e = end_ruler[i];
            *o = if e == u32::MAX {
                u32::MAX // ruler-free cycle, resolved below
            } else {
                (state[e as usize] >> 32) as u32
            };
        });
    }

    // Sequential sweep over ruler-free cycles (each walked twice: minimum,
    // then assignment).
    for i in 0..n {
        if end_ruler[i] != u32::MAX {
            continue;
        }
        let mut min = i as u32;
        let mut cur = (flagged[i] & FLAGGED_LOW) as usize;
        while cur != i {
            min = min.min(cur as u32);
            cur = (flagged[cur] & FLAGGED_LOW) as usize;
        }
        out[i] = min;
        end_ruler[i] = u32::MAX - 1;
        let mut cur = (flagged[i] & FLAGGED_LOW) as usize;
        while cur != i {
            out[cur] = min;
            end_ruler[cur] = u32::MAX - 1;
            cur = (flagged[cur] & FLAGGED_LOW) as usize;
        }
    }

    // Top up to the pinned jumping-path charges.
    let consumed = ctx.stats();
    let (dw, dr) = (consumed.work - before.work, consumed.rounds - before.rounds);
    debug_assert!(
        dw <= target_work && dr <= target_rounds,
        "contraction consumed more than the pinned jumping budget ({dw}/{target_work} work, {dr}/{target_rounds} rounds)"
    );
    ctx.charge_work(target_work.saturating_sub(dw));
    ctx.charge_rounds(target_rounds.saturating_sub(dr));
}

#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(pub(crate) *mut T);
// SAFETY: `SendPtr` only smuggles a raw base pointer into parallel tasks
// whose writes target disjoint indices; every dereference site carries its
// own SAFETY argument for that disjointness, and the pointee buffer is
// borrowed for the whole parallel region, so it outlives every task.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` across tasks only copies the pointer value —
// no shared-reference method dereferences it, so aliased access to the
// pointee can never originate from the `Sync` impl itself.
unsafe impl<T> Sync for SendPtr<T> {}
