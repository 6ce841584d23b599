//! Pointer jumping on rooted forests and permutations.
//!
//! Pointer jumping (a.k.a. path doubling) is the simplest way to aggregate
//! information along directed paths in `O(log n)` rounds.  It is used here
//! for three jobs:
//!
//! * [`find_roots`] / [`distance_to_root`] — locate, for each node of a
//!   rooted forest (`parent[r] == r` for roots), the root of its tree and the
//!   distance to it.  These back the tree-labelling step of Section 4 and
//!   serve as a cross-check for the Euler-tour computations.
//! * [`permutation_cycle_min`] — for a permutation given as a successor
//!   array, the minimum element of each cycle.  This labels the Euler cycles
//!   produced by *Algorithm finding cycle nodes* (Section 5) and elects cycle
//!   leaders for the cycle-labelling step.
//!
//! All three are `O(n log n)` work and `O(log n)` depth.  Where the paper
//! needs the work-optimal variant it combines pointer jumping with the
//! list-ranking / Euler-tour machinery; the experiments quantify the gap.

use sfcp_pram::{Ctx, Error};
use std::sync::atomic::{AtomicBool, Ordering};

/// For every node of a rooted forest, the root of its tree.
/// Roots are the fixed points of `parent`.
///
/// # Panics
/// Panics if `parent` contains an out-of-range index or if the structure has
/// a cycle other than the root self-loops (checked in debug builds only).
#[must_use]
pub fn find_roots(ctx: &Ctx, parent: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    find_roots_into(ctx, parent, &mut out);
    out
}

/// [`find_roots`] writing into a reusable output buffer.  The per-round jump
/// arrays ping-pong between `out` and one workspace checkout, so the
/// `O(log n)` rounds allocate nothing once the pool is warm.
pub fn find_roots_into(ctx: &Ctx, parent: &[u32], out: &mut Vec<u32>) {
    sfcp_pram::faults::on_engine_pass();
    let _span = ctx.span("find_roots");
    let n = parent.len();
    out.clear();
    if n == 0 {
        return;
    }
    for (i, &p) in parent.iter().enumerate() {
        assert!((p as usize) < n, "parent[{i}] = {p} out of range");
    }
    out.resize(n, 0);
    out.copy_from_slice(parent);
    let ws = ctx.workspace();
    let mut next_up = ws.take_u32(n);
    let rounds = sfcp_pram::ceil_log2(n) + 1;
    for r in 0..rounds {
        // Convergence detection rides inside the jump pass itself — each
        // chunk OR-accumulates `up[up[i]] ^ up[i]` branchlessly and raises
        // the shared flag once at its end — so no separate array-compare
        // pass runs per round (idempotent relaxed stores of `true`,
        // common-CRCW style; uncharged physical glue, as the compare pass
        // it replaces was).  `par_chunks_mut` charges one round of `n`,
        // exactly like the `par_update` formulation.
        let changed = AtomicBool::new(false);
        let chunk = ctx.grain();
        {
            let up: &[u32] = out;
            let changed = &changed;
            ctx.par_chunks_mut(&mut next_up, chunk, |ci, slice| {
                let base = ci * chunk;
                let mut diff = 0u32;
                for (o, u) in slice.iter_mut().enumerate() {
                    let cur = up[base + o];
                    let next = up[cur as usize];
                    diff |= next ^ cur;
                    *u = next;
                }
                if diff != 0 {
                    changed.store(true, Ordering::Relaxed);
                }
            });
        }
        if !changed.load(Ordering::Relaxed) {
            // Converged: every pointer is already at its root, so the
            // remaining rounds would be identity passes.  Charge them without
            // executing — the model cost of pointer jumping is
            // input-independent (ceil_log2(n) + 1 rounds), only the wall
            // clock shortcuts.
            charge_skipped_rounds(ctx, (rounds - 1 - r) as u64, n as u64);
            return;
        }
        std::mem::swap(out, &mut *next_up);
    }
    debug_assert!(
        (0..n).all(|i| out[out[i] as usize] == out[i]),
        "pointer jumping did not converge — `parent` is not a rooted forest"
    );
}

/// Charge `skipped` rounds of `ops_per_round` operations each — the cost of
/// pointer-jumping rounds that an early convergence exit did not execute.
/// Keeps tracked work/depth byte-identical to the always-run-all-rounds
/// baseline (see DESIGN.md "Charge discipline").
fn charge_skipped_rounds(ctx: &Ctx, skipped: u64, ops_per_round: u64) {
    ctx.charge_work(skipped * ops_per_round);
    ctx.charge_rounds(skipped);
}

/// For every node of a rooted forest, its distance (number of edges) to the
/// root of its tree.
#[must_use]
pub fn distance_to_root(ctx: &Ctx, parent: &[u32]) -> Vec<u32> {
    sfcp_pram::faults::on_engine_pass();
    let _span = ctx.span("distance_to_root");
    let n = parent.len();
    if n == 0 {
        return Vec::new();
    }
    for (i, &p) in parent.iter().enumerate() {
        assert!((p as usize) < n, "parent[{i}] = {p} out of range");
    }
    let ws = ctx.workspace();
    let mut up = ws.take_u32(n);
    up.copy_from_slice(parent);
    let mut dist: Vec<u32> = ctx.par_map_idx(n, |i| u32::from(parent[i] as usize != i));
    let mut next_dist = ws.take_u32(n);
    let mut next_up = ws.take_u32(n);
    let rounds = sfcp_pram::ceil_log2(n) + 1;
    for r in 0..rounds {
        {
            let (dist_ref, up_ref) = (&dist, &up);
            ctx.par_update(&mut next_dist, |i, d| {
                *d = dist_ref[i] + dist_ref[up_ref[i] as usize];
            });
            let up_ref = &up;
            ctx.par_update(&mut next_up, |i, u| *u = up_ref[up_ref[i] as usize]);
        }
        std::mem::swap(&mut dist, &mut *next_dist);
        std::mem::swap(&mut *up, &mut *next_up);
        if *next_up == *up {
            // All pointers at their roots (dist[root] = 0, so dist is stable
            // too); charge the skipped rounds and stop.
            charge_skipped_rounds(ctx, 2 * (rounds - 1 - r) as u64, n as u64);
            break;
        }
    }
    dist
}

/// For every element of a permutation (successor array `succ`), the minimum
/// element on its cycle.  Elements on the same cycle — and only those — get
/// the same representative.
///
/// # Panics
/// Panics if `succ` is not a permutation of `0..succ.len()`.
#[must_use]
pub fn permutation_cycle_min(ctx: &Ctx, succ: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    permutation_cycle_min_into(ctx, succ, &mut out);
    out
}

/// [`permutation_cycle_min`] writing into a reusable output buffer; all
/// per-round jump/best arrays are workspace checkouts ping-ponged across the
/// `O(log n)` rounds.
pub fn permutation_cycle_min_into(ctx: &Ctx, succ: &[u32], out: &mut Vec<u32>) {
    try_permutation_cycle_min_into(ctx, succ, out).unwrap_or_else(|e| panic!("{e}"));
}

/// [`permutation_cycle_min`] with typed validation: rejects out-of-range
/// successors, repeated elements (non-permutations), and domains at or above
/// `2^31` (whose indices would collide with the bit-31 ruler flag of the
/// contraction machinery) with an [`Error`] instead of panicking.
pub fn try_permutation_cycle_min(ctx: &Ctx, succ: &[u32]) -> Result<Vec<u32>, Error> {
    let mut out = Vec::new();
    try_permutation_cycle_min_into(ctx, succ, &mut out)?;
    Ok(out)
}

/// [`try_permutation_cycle_min`] writing into a reusable output buffer.
pub fn try_permutation_cycle_min_into(
    ctx: &Ctx,
    succ: &[u32],
    out: &mut Vec<u32>,
) -> Result<(), Error> {
    sfcp_pram::faults::on_engine_pass();
    let _span = ctx.span("cycle_min");
    let n = succ.len();
    out.clear();
    if n == 0 {
        return Ok(());
    }
    sfcp_pram::check_index_width(n)?;
    let ws = ctx.workspace();
    // Validate permutation-ness: every element must appear exactly once.
    // `seen` is a bitset so the random probes stay inside an n/8-byte,
    // cache-resident buffer.
    let mut seen = ws.take_u64(n.div_ceil(64));
    seen.fill(0);
    for (i, &s) in succ.iter().enumerate() {
        if s as usize >= n {
            return Err(Error::OutOfRange {
                what: "succ",
                index: i,
                value: s,
                len: n,
            });
        }
        let (word, bit) = (s as usize / 64, s as usize % 64);
        if seen[word] >> bit & 1 != 0 {
            return Err(Error::NotAPermutation { duplicate: s });
        }
        seen[word] |= 1 << bit;
    }
    ctx.charge_step(n as u64);

    if n > CYCLE_MIN_CONTRACTION_THRESHOLD {
        // The contraction executes on the shared ruling-set machinery of the
        // list-ranking subsystem and is topped up to the pinned
        // pointer-jumping model, so the path choice never shows in tracked
        // charges.  Domains at or above 2^31 cannot carry the machinery's
        // flag bit; they were rejected by the width check above.
        crate::listrank::cycle_min_contraction_into(ctx, succ, out);
        return Ok(());
    }

    cycle_min_doubling(ctx, succ, out);
    Ok(())
}

/// [`permutation_cycle_min_into`] over a **flagged** successor permutation
/// the caller built (`flagged[i] = succ[i] | RULER_FLAG·ruler(i)`, see
/// [`crate::listrank::RULER_FLAG`]): the flag bit must be set for every
/// fixed point and for the deterministic hash sample
/// ([`crate::listrank::is_sampled_ruler`]`(i, n)`).  The input is
/// **trusted** to be a permutation — the validation pass is charged without
/// being executed (the early-exit discipline of DESIGN.md, "Charge
/// discipline"); a non-permutation makes the walks spin or panic instead of
/// being reported up front.  Charges are identical to
/// [`permutation_cycle_min_into`] on the unflagged permutation.
///
/// This is the cycle-min half of the `has_pred`/sampling fold: the
/// buddy-edge face permutation of `cycle_nodes_euler` ORs the flags in as
/// it writes each successor, deleting the separate validation and sampling
/// passes from the hot path.
pub fn permutation_cycle_min_flagged_into(ctx: &Ctx, flagged: &[u32], out: &mut Vec<u32>) {
    sfcp_pram::faults::on_engine_pass();
    let _span = ctx.span("cycle_min_flagged");
    let n = flagged.len();
    out.clear();
    if n == 0 {
        return;
    }
    // The validation pass of the untrusted entry point, charged without
    // being executed.
    ctx.charge_step(n as u64);
    if n > CYCLE_MIN_CONTRACTION_THRESHOLD {
        // No flag-construction pass was charged inside the pinned budget
        // (the caller's flags ride along in its own charged passes).
        crate::listrank::cycle_min_contraction_flagged_core(ctx, flagged, out, 0);
        return;
    }
    // Strip the flags (uncharged glue, parallel like the other packing
    // passes) and run the doubling loop the unflagged path would run.
    let ws = ctx.workspace();
    let mut plain = ws.take_u32(n);
    crate::intsort::fill_items_uncharged(ctx, &mut plain, |i| {
        flagged[i] & !crate::listrank::RULER_FLAG
    });
    cycle_min_doubling(ctx, &plain, out);
}

/// The packed `(best, jump)` doubling loop — the cache-aware twin of the
/// classic two-array formulation.  A round reads `best[jump[i]]` and
/// `jump[jump[i]]`, i.e. the *same* random index in two arrays; packing
/// both halves into one u64 word makes that a single gather per element
/// per round instead of two (plus the sequential read), at 8 bytes of
/// traffic.  Charges are the model's two passes per round.
fn cycle_min_doubling(ctx: &Ctx, succ: &[u32], out: &mut Vec<u32>) {
    let n = succ.len();
    let ws = ctx.workspace();
    let mut state = ws.take_u64(n);
    ctx.par_update(&mut state, |i, s| {
        let best = (i as u32).min(succ[i]);
        *s = (u64::from(best) << 32) | u64::from(succ[i]);
    });
    let mut next_state = ws.take_u64(n);
    let rounds = sfcp_pram::ceil_log2(n) + 1;
    for _ in 0..rounds {
        {
            let state_ref = &state;
            ctx.par_update(&mut next_state, |i, s| {
                let cur = state_ref[i];
                let via = state_ref[(cur & 0xFFFF_FFFF) as usize];
                let best = (cur >> 32).min(via >> 32);
                *s = (best << 32) | (via & 0xFFFF_FFFF);
            });
        }
        // The model advances `best` and `jump` as two parallel passes; the
        // fused packed pass above charged one of them.
        ctx.charge_step(n as u64);
        std::mem::swap(&mut *state, &mut *next_state);
    }
    // Unpack the cycle minima (uncharged glue, like the payload extraction
    // of the packed sort).
    out.resize(n, 0);
    for (o, &s) in out.iter_mut().zip(state.iter()) {
        *o = (s >> 32) as u32;
    }
}

/// Above this size the cycle-min labeling runs as a sparse-ruling-set
/// contraction instead of whole-array pointer jumping: `log n` rounds of
/// random gathers over the full array lose badly to one segment walk plus
/// jumping over a `k`-times-smaller, cache-resident contracted list.  The
/// contraction lives in the list-ranking subsystem (`crate::listrank`); at
/// or below this size the doubling loop runs.  Both paths charge the same
/// pinned pointer-jumping model.
const CYCLE_MIN_CONTRACTION_THRESHOLD: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    #[allow(clippy::needless_range_loop)]
    fn random_forest(n: usize, roots: usize, seed: u64) -> Vec<u32> {
        // Node i > 0 picks a parent among smaller indices; the first `roots`
        // nodes are roots.  Then apply a random relabelling so structure is
        // not index-ordered.
        let mut rng = StdRng::seed_from_u64(seed);
        let roots = roots.clamp(1, n);
        let mut parent: Vec<u32> = (0..n as u32).collect();
        for i in roots..n {
            parent[i] = rng.gen_range(0..i) as u32;
        }
        let mut relabel: Vec<u32> = (0..n as u32).collect();
        relabel.shuffle(&mut rng);
        let mut new_parent = vec![0u32; n];
        for i in 0..n {
            new_parent[relabel[i] as usize] = relabel[parent[i] as usize];
        }
        new_parent
    }

    fn reference_root_and_dist(parent: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let n = parent.len();
        let mut roots = vec![0u32; n];
        let mut dist = vec![0u32; n];
        for i in 0..n {
            let mut cur = i;
            let mut d = 0;
            while parent[cur] as usize != cur {
                cur = parent[cur] as usize;
                d += 1;
                assert!(d <= n as u32);
            }
            roots[i] = cur as u32;
            dist[i] = d;
        }
        (roots, dist)
    }

    #[test]
    fn empty_and_single() {
        let ctx = Ctx::parallel();
        assert!(find_roots(&ctx, &[]).is_empty());
        assert_eq!(find_roots(&ctx, &[0]), vec![0]);
        assert_eq!(distance_to_root(&ctx, &[0]), vec![0]);
    }

    #[test]
    fn small_forest() {
        // Tree: 0 <- 1 <- 2, 0 <- 3; separate root 4.
        let parent = vec![0u32, 0, 1, 0, 4];
        let ctx = Ctx::parallel();
        assert_eq!(find_roots(&ctx, &parent), vec![0, 0, 0, 0, 4]);
        assert_eq!(distance_to_root(&ctx, &parent), vec![0, 1, 2, 1, 0]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn deep_path() {
        let n = 30_000;
        let mut parent: Vec<u32> = (0..n as u32).collect();
        for i in 1..n {
            parent[i] = (i - 1) as u32;
        }
        let ctx = Ctx::parallel();
        let roots = find_roots(&ctx, &parent);
        assert!(roots.iter().all(|&r| r == 0));
        let dist = distance_to_root(&ctx, &parent);
        assert_eq!(dist[n - 1], (n - 1) as u32);
        assert_eq!(dist[0], 0);
    }

    #[test]
    fn permutation_cycles() {
        // Permutation with cycles (0 2 4), (1 3), (5).
        let succ = vec![2u32, 3, 4, 1, 0, 5];
        let ctx = Ctx::parallel();
        assert_eq!(permutation_cycle_min(&ctx, &succ), vec![0, 1, 0, 1, 0, 5]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_non_permutation() {
        let ctx = Ctx::sequential();
        let _ = permutation_cycle_min(&ctx, &[0, 0, 1]);
    }

    /// Reference cycle minima by walking every cycle.
    fn reference_cycle_min(succ: &[u32]) -> Vec<u32> {
        let n = succ.len();
        let mut expected = vec![u32::MAX; n];
        for start in 0..n {
            if expected[start] != u32::MAX {
                continue;
            }
            let mut members = vec![start];
            let mut cur = succ[start] as usize;
            while cur != start {
                members.push(cur);
                cur = succ[cur] as usize;
            }
            let m = *members.iter().min().unwrap() as u32;
            for x in members {
                expected[x] = m;
            }
        }
        expected
    }

    /// The contraction path (n > threshold) must agree with the reference on
    /// large shuffled permutations, in both modes.
    #[test]
    fn contraction_path_matches_reference_large() {
        use sfcp_pram::Mode;
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 20_000 + seed as usize * 7;
            let mut succ: Vec<u32> = (0..n as u32).collect();
            succ.shuffle(&mut rng);
            let expected = reference_cycle_min(&succ);
            for mode in [Mode::Sequential, Mode::Parallel] {
                let ctx = Ctx::new(mode);
                assert_eq!(
                    permutation_cycle_min(&ctx, &succ),
                    expected,
                    "seed {seed}, {mode:?}"
                );
            }
        }
    }

    /// The doubling path (at or below the threshold) and the contraction
    /// path (above it) both charge the pinned pointer-jumping model —
    /// validation + init + two steps of n per round — in both modes.
    #[test]
    fn cycle_min_engines_charge_identically() {
        use sfcp_pram::Mode;
        let mut rng = StdRng::seed_from_u64(31);
        for n in [CYCLE_MIN_CONTRACTION_THRESHOLD, 30_000] {
            let mut succ: Vec<u32> = (0..n as u32).collect();
            succ.shuffle(&mut rng);
            let rounds = (sfcp_pram::ceil_log2(n) + 1) as u64;
            for mode in [Mode::Sequential, Mode::Parallel] {
                let ctx = Ctx::new(mode);
                let _ = permutation_cycle_min(&ctx, &succ);
                assert_eq!(
                    (ctx.stats().work, ctx.stats().rounds),
                    ((n as u64) * (2 + 2 * rounds), 2 + 2 * rounds),
                    "n={n}, {mode:?}"
                );
            }
        }
    }

    /// The flagged cycle-min entry (flags built per its contract) must match
    /// the untrusted entry's output and charges, across the contraction
    /// threshold.
    #[test]
    fn flagged_cycle_min_matches_untrusted_entry() {
        use crate::listrank::is_sampled_ruler;
        for (n, seed) in [(100usize, 1u64), (4096, 2), (4097, 3), (30_000, 4)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut succ: Vec<u32> = (0..n as u32).collect();
            succ.shuffle(&mut rng);
            let flagged: Vec<u32> = succ
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let ruler = s as usize == i || is_sampled_ruler(i, n);
                    s | (u32::from(ruler) << 31)
                })
                .collect();
            let untrusted = Ctx::parallel();
            let trusted = Ctx::parallel();
            let mut a = Vec::new();
            let mut b = Vec::new();
            permutation_cycle_min_into(&untrusted, &succ, &mut a);
            permutation_cycle_min_flagged_into(&trusted, &flagged, &mut b);
            assert_eq!(a, b, "minima diverged (n={n})");
            assert_eq!(
                untrusted.stats(),
                trusted.stats(),
                "flagged cycle-min charges diverged (n={n})"
            );
        }
    }

    /// Cycles whose members are all unsampled (no hash-selected ruler) are
    /// resolved by the sequential sweep.
    #[test]
    fn contraction_handles_ruler_free_cycles() {
        let n = 10_000;
        // Collect unsampled indices and link them into cycles of length 7.
        let unsampled: Vec<u32> = (0..n as u32)
            .filter(|&i| !crate::listrank::is_sampled_ruler(i as usize, n))
            .collect();
        assert!(unsampled.len() > 100, "sampling rate sanity");
        let mut succ: Vec<u32> = (0..n as u32).collect();
        for chunk in unsampled.chunks(7).take(40) {
            for w in 0..chunk.len() {
                succ[chunk[w] as usize] = chunk[(w + 1) % chunk.len()];
            }
        }
        let expected = reference_cycle_min(&succ);
        let ctx = Ctx::parallel();
        assert_eq!(permutation_cycle_min(&ctx, &succ), expected);
    }

    /// The contraction execution must charge exactly what the jumping path
    /// charges: validation + init + two steps of n per round.
    #[test]
    fn contraction_charges_match_jumping_model() {
        let n = 30_000;
        let mut rng = StdRng::seed_from_u64(9);
        let mut succ: Vec<u32> = (0..n as u32).collect();
        succ.shuffle(&mut rng);
        let ctx = Ctx::parallel();
        let _ = permutation_cycle_min(&ctx, &succ);
        let rounds = (sfcp_pram::ceil_log2(n) + 1) as u64;
        let expected_work = (n as u64) * (2 + 2 * rounds);
        let expected_rounds = 2 + 2 * rounds;
        assert_eq!(ctx.stats().work, expected_work);
        assert_eq!(ctx.stats().rounds, expected_rounds);
    }

    proptest! {
        #[test]
        fn forest_matches_reference(n in 1usize..500, roots in 1usize..10, seed in 0u64..50) {
            let parent = random_forest(n, roots, seed);
            let (exp_roots, exp_dist) = reference_root_and_dist(&parent);
            let ctx = Ctx::parallel().with_grain(32);
            prop_assert_eq!(find_roots(&ctx, &parent), exp_roots);
            prop_assert_eq!(distance_to_root(&ctx, &parent), exp_dist);
        }

        #[test]
        fn permutation_min_matches_reference(n in 1usize..300, seed in 0u64..50) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut succ: Vec<u32> = (0..n as u32).collect();
            succ.shuffle(&mut rng);
            // Reference: walk each cycle.
            let mut expected = vec![u32::MAX; n];
            for start in 0..n {
                if expected[start] != u32::MAX { continue; }
                let mut members = vec![start];
                let mut cur = succ[start] as usize;
                while cur != start {
                    members.push(cur);
                    cur = succ[cur] as usize;
                }
                let m = *members.iter().min().unwrap() as u32;
                for x in members {
                    expected[x] = m;
                }
            }
            let ctx = Ctx::parallel().with_grain(32);
            prop_assert_eq!(permutation_cycle_min(&ctx, &succ), expected);
        }
    }
}
