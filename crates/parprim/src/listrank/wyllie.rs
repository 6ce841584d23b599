//! Wyllie's pointer jumping.
//!
//! `O(n log n)` work, `O(log n)` depth — the §8 Wyllie row the work-efficient
//! ruling-set ranking is measured against, and the execution path for tiny
//! inputs, where the ruling-set machinery is pure overhead.

use sfcp_pram::Ctx;

/// Wyllie's pointer-jumping list ranking.
///
/// The per-round successor/rank arrays are workspace-backed and ping-ponged,
/// so the `O(log n)` rounds allocate O(1) buffers per run.
#[must_use]
pub fn list_rank_wyllie(ctx: &Ctx, next: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    list_rank_wyllie_into(ctx, next, &mut out);
    out
}

/// [`list_rank_wyllie`] writing into a reusable output buffer.
pub fn list_rank_wyllie_into(ctx: &Ctx, next: &[u32], out: &mut Vec<u32>) {
    let n = next.len();
    out.clear();
    if n == 0 {
        return;
    }
    for (i, &s) in next.iter().enumerate() {
        assert!((s as usize) < n, "next[{i}] = {s} out of range");
    }
    let ws = ctx.workspace();
    let mut succ = ws.take_u32(n);
    succ.copy_from_slice(next);
    out.resize(n, 0);
    ctx.par_update(out, |i, r| *r = u32::from(next[i] as usize != i));
    let mut next_rank = ws.take_u32(n);
    let mut next_succ = ws.take_u32(n);
    let rounds = sfcp_pram::ceil_log2(n) + 1;
    for r in 0..rounds {
        // Synchronous step: read the old arrays, write fresh ones.
        {
            let rank_ref: &[u32] = out;
            let succ_ref = &succ;
            ctx.par_update(&mut next_rank, |i, r| {
                *r = rank_ref[i] + rank_ref[succ_ref[i] as usize];
            });
            let succ_ref = &succ;
            ctx.par_update(&mut next_succ, |i, s| *s = succ_ref[succ_ref[i] as usize]);
        }
        std::mem::swap(out, &mut *next_rank);
        std::mem::swap(&mut *succ, &mut *next_succ);
        if *next_succ == *succ {
            // Every pointer reached its terminal (whose rank is and stays 0),
            // so further rounds are identity passes: charge them without
            // executing (see DESIGN.md "Charge discipline").
            let skipped = (rounds - 1 - r) as u64;
            ctx.charge_work(2 * skipped * n as u64);
            ctx.charge_rounds(2 * skipped);
            break;
        }
    }
}
