//! The list-ranking body: ruling-set ranking with wavefront-batched segment
//! walks.
//!
//! A plain segment walk chases one pointer at a time: every hop is a
//! dependent gather into an array far larger than cache, so each walk
//! serialises on a full memory latency per hop.  The segments themselves
//! are *independent*, though — so this body advances a bucket of [`WAVE`]
//! walks in lockstep.  Per sweep over the bucket, every live walk issues
//! one gather; the loads of different lanes do not depend on each other, so
//! the out-of-order core overlaps them and the traversal streams at memory
//! *bandwidth* instead of memory *latency* (measured ~8× faster on the
//! 2n-arc Euler rankings that dominate `decompose`).
//!
//! The bucket also changes what a walk records: instead of a two-pass
//! measure-then-scatter layout, one pass stores per interior node the packed
//! word `(steps from segment start) << 32 | (start ruler)`, and the final
//! rank falls out as `rank(start ruler) − steps`.  The same expand pass
//! can report each element's list tail: the contracted doubling leaves
//! every ruler's packed word pointing at its list's terminal ruler.  The
//! charges are the §8 ruling-set model: the walk pass charges one round of
//! `m` (the per-segment dispatch) plus `n` work (one operation per hop), the
//! packed contracted doubling charges the two weighted-Wyllie steps per
//! round, and each reported tail one operation of the expand round.

use sfcp_pram::Ctx;

use super::ruling::{contracted_rank_doubling, index_rulers, SendPtr, FLAGGED_LOW};

/// The low half of a packed contracted-state or interior word.
const LOW: u64 = u32::MAX as u64;

/// Walks advanced in lockstep per bucket: enough to cover the memory
/// latency × bandwidth product of one core; past ~64 the lane state stops
/// fitting comfortably in L1 and the refill bookkeeping starts to show.
/// Lane count is physical geometry only — charges never depend on it.
const WAVE: usize = 64;

/// Rulers handed to one wavefront task: coarse enough that the per-task
/// lane-state setup amortises, fine enough to load-balance across threads.
const WALKS_PER_TASK: usize = 4096;

/// The ranking body over a flagged successor array of more than
/// `TINY_LIST_MAX` elements (the entry points in `mod.rs` sample or trust
/// the flags and charge the sampling passes).  With `tails`, the expand
/// pass also writes `tails[k]`, the terminal of the list through slot
/// `2k`, for every even slot (`tails.len() == n.div_ceil(2)`).
pub(crate) fn rank_core(
    ctx: &Ctx,
    flagged_next: &[u32],
    out: &mut Vec<u32>,
    tails: Option<&mut [u32]>,
) {
    let n = flagged_next.len();
    let ws = ctx.workspace();
    let (ruler_ids, ruler_index) = {
        let flagged_next = &flagged_next;
        index_rulers(ctx, n, |i| flagged_next[i] >> 31 == 1)
    };
    let m = ruler_ids.len();

    // One wavefront pass over all segments.  No fill of `interior`: every
    // non-ruler node is interior to exactly one segment and therefore
    // written, and only non-ruler slots are read back.  Charged at the
    // model's walk cost: one round of `m` (the per-segment dispatch) plus
    // `n` work (one operation per hop).
    let mut interior = ws.take_u64(n);
    let mut state = ws.take_u64(m);
    chain_walk_bucketed(
        flagged_next,
        &ruler_ids,
        &ruler_index,
        &mut interior,
        &mut state,
    );
    ctx.charge_step(m as u64);
    ctx.charge_work(n as u64);

    // Contracted list over rulers, as packed (rank, jump) words; the walk
    // wrote the initial (segment length, end ruler) state directly.  Once
    // it converges, every jump is the terminal ruler of the ruler's list.
    contracted_rank_doubling(ctx, &mut state);

    // Final rank: a ruler takes its contracted rank; an interior node is
    // `steps` hops past its segment's start ruler, so it ranks exactly
    // `steps` below that ruler, and its tail is that ruler's tail.
    out.resize(n, 0);
    let (flagged_next, ruler_index, ruler_ids) = (&flagged_next, &ruler_index, &ruler_ids);
    let (state, interior) = (&state, &interior);
    // The contracted word of `i`'s segment ruler, and `i`'s steps past it.
    let segment = |i: usize| {
        if flagged_next[i] >> 31 == 1 {
            (state[ruler_index[i] as usize], 0)
        } else {
            let w = interior[i];
            (state[(w & LOW) as usize], (w >> 32) as u32)
        }
    };
    let Some(tails) = tails else {
        ctx.par_update(out, |i, r| {
            let (word, steps) = segment(i);
            *r = (word >> 32) as u32 - steps;
        });
        return;
    };
    assert_eq!(tails.len(), n.div_ceil(2), "one tail per even slot");
    let reported = tails.len() as u64;
    let tails_ptr = SendPtr(tails.as_mut_ptr());
    ctx.par_update(out, |i, r| {
        let (word, steps) = segment(i);
        *r = (word >> 32) as u32 - steps;
        if i % 2 == 0 {
            let tp = tails_ptr;
            // SAFETY: `i / 2 < n.div_ceil(2) == tails.len()`, and each even
            // slot `i` is the only writer of `tails[i / 2]`.
            unsafe {
                *tp.0.add(i / 2) = ruler_ids[(word & LOW) as usize];
            }
        }
    });
    // One write per reported tail, inside the expand round.
    ctx.charge_work(reported);
}

/// The wavefront chain walk: for every ruler `j`, walk to the next ruler (or
/// terminal), writing `(steps << 32) | j` at every interior node and the
/// packed `(segment length << 32) | end ruler` contracted state at `j`.
/// Uncharged — callers charge the documented walk cost explicitly.
fn chain_walk_bucketed(
    flagged_next: &[u32],
    ruler_ids: &[u32],
    ruler_index: &[u32],
    interior: &mut [u64],
    seg_state: &mut [u64],
) {
    let m = ruler_ids.len();
    let num_tasks = m.div_ceil(WALKS_PER_TASK).max(1);
    let interior_ptr = SendPtr(interior.as_mut_ptr());
    let seg_ptr = SendPtr(seg_state.as_mut_ptr());
    crate::intsort::for_each_block(num_tasks, |t| {
        let lo = t * WALKS_PER_TASK;
        let hi = ((t + 1) * WALKS_PER_TASK).min(m);
        let (ip, sp) = (interior_ptr, seg_ptr);
        let mut lane_j = [0u32; WAVE];
        let mut lane_cur = [0u32; WAVE];
        let mut lane_word = [0u32; WAVE];
        let mut lane_steps = [0u32; WAVE];
        let mut active = [false; WAVE];
        let lanes = WAVE.min(hi - lo);
        let mut fill = lo;
        let mut live = 0usize;
        for l in 0..lanes {
            let start = ruler_ids[fill] as usize;
            lane_j[l] = fill as u32;
            lane_cur[l] = start as u32;
            lane_word[l] = flagged_next[start];
            lane_steps[l] = 0;
            active[l] = true;
            fill += 1;
            live += 1;
        }
        while live > 0 {
            for l in 0..lanes {
                if !active[l] {
                    continue;
                }
                let cur = lane_cur[l] as usize;
                let nxt = (lane_word[l] & FLAGGED_LOW) as usize;
                let finished = if nxt == cur {
                    // The start ruler is a terminal: empty segment.
                    Some((lane_steps[l], ruler_index[cur]))
                } else {
                    // The one gather of this lane's sweep.
                    let w = flagged_next[nxt];
                    if w >> 31 == 1 {
                        Some((lane_steps[l] + 1, ruler_index[nxt]))
                    } else {
                        let steps = lane_steps[l] + 1;
                        // SAFETY: in range (just gathered); each non-ruler
                        // node is interior to exactly one segment — one
                        // writer per slot.
                        unsafe {
                            *ip.0.add(nxt) = (u64::from(steps) << 32) | u64::from(lane_j[l]);
                        }
                        lane_cur[l] = nxt as u32;
                        lane_word[l] = w;
                        lane_steps[l] = steps;
                        None
                    }
                };
                if let Some((len, end)) = finished {
                    // SAFETY: one writer per ruler j.
                    unsafe {
                        *sp.0.add(lane_j[l] as usize) = (u64::from(len) << 32) | u64::from(end);
                    }
                    if fill < hi {
                        let start = ruler_ids[fill] as usize;
                        lane_j[l] = fill as u32;
                        lane_cur[l] = start as u32;
                        lane_word[l] = flagged_next[start];
                        lane_steps[l] = 0;
                        fill += 1;
                    } else {
                        active[l] = false;
                        live -= 1;
                    }
                }
            }
        }
    });
}

/// The wavefront cycle walk of the cycle-min contraction: for every ruler
/// `j`, walk to the next ruler (or all the way around the cycle), writing
/// `j` into `end_ruler` at every covered element and the packed
/// `(segment minimum << 32) | next ruler` contracted state at `j`.
/// Uncharged — the cycle-min caller is topped up to its pinned model.
pub(crate) fn cycle_walk_bucketed(
    flagged_succ: &[u32],
    ruler_ids: &[u32],
    ruler_index: &[u32],
    end_ruler: &mut [u32],
    state: &mut [u64],
) {
    let m = ruler_ids.len();
    let num_tasks = m.div_ceil(WALKS_PER_TASK).max(1);
    let end_ptr = SendPtr(end_ruler.as_mut_ptr());
    let state_ptr = SendPtr(state.as_mut_ptr());
    crate::intsort::for_each_block(num_tasks, |t| {
        let lo = t * WALKS_PER_TASK;
        let hi = ((t + 1) * WALKS_PER_TASK).min(m);
        let (ep, sp) = (end_ptr, state_ptr);
        let mut lane_j = [0u32; WAVE];
        let mut lane_start = [0u32; WAVE];
        let mut lane_cur = [0u32; WAVE];
        let mut lane_min = [0u32; WAVE];
        let mut active = [false; WAVE];
        let lanes = WAVE.min(hi - lo);
        let mut fill = lo;
        let mut live = 0usize;
        for l in 0..lanes {
            let start = ruler_ids[fill] as usize;
            lane_j[l] = fill as u32;
            lane_start[l] = start as u32;
            lane_cur[l] = flagged_succ[start] & FLAGGED_LOW;
            lane_min[l] = start as u32;
            active[l] = true;
            fill += 1;
            live += 1;
        }
        while live > 0 {
            for l in 0..lanes {
                if !active[l] {
                    continue;
                }
                let cur = lane_cur[l] as usize;
                let finished = if cur == lane_start[l] as usize {
                    // Wrapped all the way around: this cycle's only ruler.
                    Some((lane_min[l], lane_j[l]))
                } else {
                    // The one gather of this lane's sweep.
                    let w = flagged_succ[cur];
                    if w >> 31 == 1 {
                        Some((lane_min[l], ruler_index[cur]))
                    } else {
                        // SAFETY: in range (just gathered); each element is
                        // interior to exactly one segment — one writer per
                        // slot.
                        unsafe {
                            *ep.0.add(cur) = lane_j[l];
                        }
                        lane_min[l] = lane_min[l].min(cur as u32);
                        lane_cur[l] = w & FLAGGED_LOW;
                        None
                    }
                };
                if let Some((min, next_ruler)) = finished {
                    // The start ruler's own slot, plus the contracted state.
                    // SAFETY: one writer per ruler j, and per start ruler.
                    unsafe {
                        *ep.0.add(lane_start[l] as usize) = lane_j[l];
                        *sp.0.add(lane_j[l] as usize) =
                            (u64::from(min) << 32) | u64::from(next_ruler);
                    }
                    if fill < hi {
                        let start = ruler_ids[fill] as usize;
                        lane_j[l] = fill as u32;
                        lane_start[l] = start as u32;
                        lane_cur[l] = flagged_succ[start] & FLAGGED_LOW;
                        lane_min[l] = start as u32;
                        fill += 1;
                    } else {
                        active[l] = false;
                        live -= 1;
                    }
                }
            }
        }
    });
}
