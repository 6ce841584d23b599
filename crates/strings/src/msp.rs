//! Parallel minimal starting point (m.s.p.) — Section 3.1 of the paper.
//!
//! Both parallel algorithms of the paper take a circular string over `u32`
//! symbols and return the index of the minimal rotation start:
//!
//! * [`efficient_msp`] — *Algorithm efficient m.s.p.*: mark the positions
//!   where a run of the minimum symbol starts, contract the string into
//!   ordered pairs between marked positions, integer-sort the pairs and
//!   replace them by their ranks, and recurse on the (≤ 2n/3)-length string;
//!   once the string is short, finish with the tournament.  With the radix
//!   sort standing in for Bhatt-et-al. integer sorting this is the
//!   `O(n log log n)`-work, `O(log n)`-depth algorithm of Lemma 3.7.
//! * [`simple_msp`] — *Algorithm simple m.s.p.*, the tournament that
//!   finishes *efficient m.s.p.*: every position starts as a candidate; in
//!   round `i`, each block of `2^i` positions holds at most one surviving
//!   candidate, and the two candidates of a merged block are compared over
//!   `2^i` symbols (ties eliminate the later candidate, justified by
//!   Lemma 3.3).  `O(n log n)` work, `O(log n)` rounds.
//!
//! The facade [`minimal_starting_point`] runs *efficient m.s.p.* or Booth's
//! sequential algorithm.  It first reduces the input to its smallest
//! repeating prefix (the algorithms require a nonrepeating input; the m.s.p.
//! of the prefix is an m.s.p. of the original string) and normalises the
//! answer to the smallest starting index, so both methods and the sequential
//! oracles agree exactly.

use crate::canonical::booth_msp;
use crate::period::smallest_period;
use sfcp_parprim::rank::dense_ranks_of_pairs_into;
use sfcp_parprim::reduce::min_value;
use sfcp_pram::Ctx;

/// Which m.s.p. algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MspMethod {
    /// Booth's sequential linear-time algorithm (the oracle).
    Booth,
    /// The paper's recursive pair-contraction algorithm
    /// (`O(n log log n)` work) — the headline result of Section 3.1.
    #[default]
    Efficient,
}

/// Fallible [`minimal_starting_point`]: validates the size envelope and
/// converts any mid-run panic (internal assert or fault injected through
/// [`sfcp_pram::faults`]) into a typed [`sfcp_pram::Error`], running
/// [`Ctx::recover`] before returning so the context stays usable.
///
/// # Errors
/// [`sfcp_pram::Error::TooLarge`] when `s.len() >= 2^31`;
/// [`sfcp_pram::Error::Injected`] / [`sfcp_pram::Error::Panicked`] when the
/// run unwinds.
pub fn try_minimal_starting_point(
    ctx: &Ctx,
    s: &[u32],
    method: MspMethod,
) -> Result<usize, sfcp_pram::Error> {
    sfcp_pram::check_index_width(s.len())?;
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        minimal_starting_point(ctx, s, method)
    })) {
        Ok(p) => Ok(p),
        Err(payload) => {
            let err = sfcp_pram::Error::from_panic(payload);
            ctx.recover();
            Err(err)
        }
    }
}

/// Minimal starting point of the circular string `s` (smallest index among
/// minimal rotation starts), using `method`.  Handles repeating inputs.
#[must_use]
pub fn minimal_starting_point(ctx: &Ctx, s: &[u32], method: MspMethod) -> usize {
    let mut span = ctx.span("minimal_starting_point");
    span.attr("n", s.len() as u64);
    let n = s.len();
    if n <= 1 {
        return 0;
    }
    if method == MspMethod::Booth {
        return booth_msp(s);
    }
    // Reduce to the smallest repeating prefix: its m.s.p. is an m.s.p. of the
    // original string, and the prefix is nonrepeating by construction.
    let p = smallest_period(ctx, s);
    if p == 1 {
        return 0;
    }
    let msp = efficient_msp(ctx, &s[..p]);
    debug_assert!(msp < p);
    // Every position msp + k·p of the original is a minimal start; the
    // canonical answer is the smallest one, which is msp itself.
    msp
}

// ---------------------------------------------------------------------------
// Algorithm simple m.s.p. (block tournament).
// ---------------------------------------------------------------------------

/// The paper's *Algorithm simple m.s.p.* generalised to arbitrary `n` (the
/// paper assumes `n = 2^k` "for convenience"): candidates live in conceptual
/// blocks of size `2^i`; merging two blocks compares the two candidates over
/// `2^i` symbols and, on a tie, keeps the earlier one (Lemma 3.3).
///
/// Requires a **nonrepeating** circular string (unique m.s.p.); for repeating
/// inputs use [`minimal_starting_point`], which reduces to the period first.
#[must_use]
pub fn simple_msp(ctx: &Ctx, s: &[u32]) -> usize {
    let n = s.len();
    if n <= 1 {
        return 0;
    }
    let padded = sfcp_pram::next_pow2(n);
    // candidates[b] = surviving candidate of block b, or u32::MAX if the
    // block is empty (only possible for the padding blocks past n).
    let mut candidates: Vec<u32> = (0..padded)
        .map(|i| if i < n { i as u32 } else { u32::MAX })
        .collect();
    ctx.charge_step(padded as u64);

    let mut width = 1usize; // current block size 2^(i-1)
    while candidates.len() > 1 {
        let compare_len = (2 * width).min(n);
        let next: Vec<u32> = ctx.par_map_idx(candidates.len() / 2, |b| {
            let left = candidates[2 * b];
            let right = candidates[2 * b + 1];
            match (left, right) {
                (u32::MAX, r) => r,
                (l, u32::MAX) => l,
                (l, r) => {
                    // Compare the rotations starting at l and r over
                    // `compare_len` symbols.
                    let (l, r) = (l as usize, r as usize);
                    let mut winner = l; // tie ⇒ keep the earlier (Lemma 3.3)
                    for k in 0..compare_len {
                        let a = s[(l + k) % n];
                        let b = s[(r + k) % n];
                        match a.cmp(&b) {
                            std::cmp::Ordering::Less => {
                                winner = l;
                                break;
                            }
                            std::cmp::Ordering::Greater => {
                                winner = r;
                                break;
                            }
                            std::cmp::Ordering::Equal => continue,
                        }
                    }
                    winner as u32
                }
            }
        });
        // Each of the (#blocks / 2) comparisons costs up to `compare_len`.
        ctx.charge_work((candidates.len() as u64 / 2) * compare_len as u64);
        candidates = next;
        width *= 2;
    }
    candidates[0] as usize
}

// ---------------------------------------------------------------------------
// Algorithm efficient m.s.p. (recursive pair contraction).
// ---------------------------------------------------------------------------

/// The paper's *Algorithm efficient m.s.p.*.
///
/// Requires a **nonrepeating** circular string.
///
/// All full-length scratch of the contraction loop (the contracted string,
/// origin map, pair list and rank buffer) is workspace-backed and reused
/// across rounds: the loop allocates O(1) buffers per run.
#[must_use]
pub fn efficient_msp(ctx: &Ctx, s: &[u32]) -> usize {
    let n = s.len();
    if n <= 1 {
        return 0;
    }
    // The recursion stops once the contracted string has at most
    // max(n / log n, 32) symbols, exactly as in step 4 of the paper; the
    // remaining instance is handed to the tournament (step 5).
    let threshold = (n / (sfcp_pram::ceil_log2(n) as usize).max(1)).max(32);

    // Current contracted circular string and, for every contracted position,
    // the original position it stands for.
    let ws = ctx.workspace();
    let mut elems = ws.take_u64(n);
    ctx.par_update(&mut elems, |i, e| *e = u64::from(s[i]) + 1);
    let mut origin = ws.take_u32(n);
    ctx.par_update(&mut origin, |i, o| *o = i as u32);
    let mut pairs = ws.take_pairs(0);
    let mut new_origin = ws.take_u32(0);
    let mut ranks = ws.take_u32(0);

    loop {
        let len = elems.len();
        if len <= 1 {
            return origin[0] as usize;
        }
        if len <= threshold {
            // Step 5: finish with the simple tournament on the contracted
            // string (it is still nonrepeating — see the module tests — and
            // its m.s.p. corresponds to the original m.s.p. by Lemma 3.5).
            let contracted: Vec<u32> = ctx.par_map_slice(&elems, |&e| e as u32);
            let pos = simple_msp(ctx, &contracted);
            return origin[pos] as usize;
        }

        // Step 1: mark the starts of runs of the minimum symbol.
        let m = min_value(ctx, &elems);
        let marked: Vec<bool> =
            ctx.par_map_idx(len, |j| elems[j] == m && elems[(j + len - 1) % len] != m);
        let marks: Vec<u32> = sfcp_parprim::compact::compact_indices(ctx, len, |j| marked[j]);
        match marks.len() {
            0 => {
                // Every symbol equals the minimum — the string is repeating
                // (period 1), which the precondition excludes; still, answer
                // correctly by returning the smallest original position.
                let first = sfcp_parprim::reduce::min_index(ctx, &origin);
                return origin[first] as usize;
            }
            1 => return origin[marks[0] as usize] as usize,
            _ => {}
        }

        // Step 2: between consecutive marked positions, group the symbols in
        // ordered pairs; an odd-length run pads its last pair with the current
        // minimum symbol `m`, exactly as in the paper ("we represent it as the
        // pair (c, m)").  The pad must be `m` — a run ends precisely because
        // the next symbol is `m`, so padding with `m` keeps pair comparisons
        // faithful to comparisons of the underlying rotations.
        let k = marks.len();
        // Run lengths (cyclically, run r spans marks[r] .. marks[r+1]-1).
        let run_len: Vec<u32> = ctx.par_map_idx(k, |r| {
            let start = marks[r] as usize;
            let end = marks[(r + 1) % k] as usize;
            ((end + len - start - 1) % len + 1) as u32
        });
        let pairs_per_run: Vec<u64> = ctx.par_map_slice(&run_len, |&l| u64::from(l.div_ceil(2)));
        let (run_offset, total_pairs) = sfcp_parprim::scan::exclusive_scan(ctx, &pairs_per_run);
        let total_pairs = total_pairs as usize;

        // Build the pair list and the origin of each pair (the original
        // position of its first symbol), in cyclic order of the runs.
        pairs.resize(total_pairs, (0, 0));
        new_origin.resize(total_pairs, 0);
        {
            let pairs_ptr = SendPtr(pairs.as_mut_ptr());
            let origin_ptr = SendPtr(new_origin.as_mut_ptr());
            let elems_ref = &elems;
            let origin_ref = &origin;
            ctx.par_for_idx(k, |r| {
                let start = marks[r] as usize;
                let l = run_len[r] as usize;
                let base = run_offset[r] as usize;
                let (pp, op) = (pairs_ptr, origin_ptr);
                for g in 0..l.div_ceil(2) {
                    let first = (start + 2 * g) % len;
                    let a = elems_ref[first];
                    let b = if 2 * g + 1 < l {
                        elems_ref[(start + 2 * g + 1) % len]
                    } else {
                        m
                    };
                    // SAFETY: each pair slot belongs to exactly one run/group.
                    unsafe {
                        *pp.0.add(base + g) = (a, b);
                        *op.0.add(base + g) = origin_ref[first];
                    }
                }
            });
            ctx.charge_work(len as u64);
        }

        // Step 3: sort the pairs, replace each by its (order-preserving) rank.
        let _distinct = dense_ranks_of_pairs_into(ctx, &pairs, &mut ranks);
        // Shift by one so the blank value stays reserved in the next round.
        elems.resize(total_pairs, 0);
        {
            let ranks = &ranks;
            ctx.par_update(&mut elems, |g, e| *e = u64::from(ranks[g]) + 1);
        }
        std::mem::swap(&mut *origin, &mut *new_origin);
        debug_assert!(elems.len() <= 2 * len / 3 + 1);
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
    use crate::canonical::naive_msp;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn all_methods() -> [MspMethod; 2] {
        [MspMethod::Booth, MspMethod::Efficient]
    }

    #[test]
    fn trivial_inputs() {
        let ctx = Ctx::parallel();
        for m in all_methods() {
            assert_eq!(minimal_starting_point(&ctx, &[], m), 0);
            assert_eq!(minimal_starting_point(&ctx, &[9], m), 0);
            assert_eq!(minimal_starting_point(&ctx, &[3, 3, 3], m), 0);
        }
    }

    #[test]
    fn paper_example_34() {
        // Example 3.4's circular string; its minimal rotation starts at the
        // "1,1,1" run (index 13), as the sequential baselines confirm.
        let s = [3u32, 2, 1, 3, 2, 3, 4, 3, 1, 2, 3, 4, 2, 1, 1, 1, 3, 2, 2];
        let ctx = Ctx::parallel();
        let expected = naive_msp(&s);
        assert_eq!(expected, 13);
        for m in all_methods() {
            assert_eq!(minimal_starting_point(&ctx, &s, m), expected, "{m:?}");
        }
    }

    #[test]
    fn paper_example_31_period_string() {
        // The cycle C of Example 3.1 has B-label string with period (1,2,1,3);
        // rotating the period to its m.s.p. gives (1,2,1,3) → m.s.p. 0 — but
        // the minimal rotation of (1,2,1,3) itself starts at index 2: (1,3,1,2)
        // vs (1,2,1,3)… compare: (1,2,..) < (1,3,..), so m.s.p. is 0.
        let s = [1u32, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3];
        let ctx = Ctx::parallel();
        let expected = naive_msp(&s);
        assert_eq!(expected, 0);
        for m in all_methods() {
            assert_eq!(minimal_starting_point(&ctx, &s, m), expected, "{m:?}");
        }
    }

    #[test]
    fn nonrepeating_direct_calls_agree() {
        let ctx = Ctx::parallel().with_grain(16);
        let cases: Vec<Vec<u32>> = vec![
            vec![2, 1],
            vec![1, 2, 3, 4, 5],
            vec![5, 4, 3, 2, 1],
            vec![2, 1, 2, 2, 1, 1],
            vec![1, 1, 2, 1, 2, 2, 1, 2],
            vec![7, 3, 6, 9, 2, 8, 4, 1, 3, 5],
        ];
        for s in cases {
            let expected = naive_msp(&s);
            assert_eq!(simple_msp(&ctx, &s), expected, "simple on {s:?}");
            assert_eq!(efficient_msp(&ctx, &s), expected, "efficient on {s:?}");
        }
    }

    #[test]
    fn large_random_strings() {
        let mut rng = StdRng::seed_from_u64(2024);
        let ctx = Ctx::parallel();
        for &n in &[1000usize, 4096, 10_001] {
            for alphabet in [2u32, 5, 1000] {
                let s: Vec<u32> = (0..n).map(|_| rng.gen_range(0..alphabet)).collect();
                let expected = booth_msp(&s);
                for m in all_methods() {
                    assert_eq!(
                        minimal_starting_point(&ctx, &s, m),
                        expected,
                        "{m:?} on n={n}, alphabet={alphabet}"
                    );
                }
            }
        }
    }

    #[test]
    fn adversarial_long_runs() {
        let ctx = Ctx::parallel();
        // Strings like 1^a 0 1^b 0 … stress the run-marking logic.
        let mut s = Vec::new();
        for (a, b) in [(37usize, 11usize), (5, 5), (1, 63)] {
            s.clear();
            s.extend(std::iter::repeat_n(1u32, a));
            s.push(0);
            s.extend(std::iter::repeat_n(1u32, b));
            s.push(0);
            s.extend(std::iter::repeat_n(2u32, 7));
            let expected = naive_msp(&s);
            for m in all_methods() {
                assert_eq!(
                    minimal_starting_point(&ctx, &s, m),
                    expected,
                    "{m:?} on {s:?}"
                );
            }
        }
    }

    /// The paper's claim is about asymptotic work: *simple m.s.p.* is
    /// `Θ(n log n)` while *efficient m.s.p.* is `O(n log log n)`.  The
    /// observable consequence at test-sized inputs is that the per-symbol
    /// work of the simple algorithm grows with `log n` while the efficient
    /// algorithm's stays (nearly) flat.
    #[test]
    fn efficient_msp_work_grows_slower_than_simple() {
        let work_of = |n: usize, msp: fn(&Ctx, &[u32]) -> usize| -> f64 {
            let mut rng = StdRng::seed_from_u64(5);
            let s: Vec<u32> = (0..n).map(|_| rng.gen_range(0..8)).collect();
            let ctx = Ctx::parallel();
            // The period reduction of the facade, then the algorithm itself.
            let p = smallest_period(&ctx, &s);
            let _ = msp(&ctx, &s[..p]);
            ctx.stats().work as f64 / n as f64
        };
        let (n1, n2) = (1usize << 12, 1usize << 16);
        let simple_growth = work_of(n2, simple_msp) / work_of(n1, simple_msp);
        let efficient_growth = work_of(n2, efficient_msp) / work_of(n1, efficient_msp);
        assert!(
            efficient_growth < simple_growth,
            "per-symbol work growth: efficient {efficient_growth:.3} should be below simple {simple_growth:.3}"
        );
        // And the efficient algorithm's per-symbol work is essentially flat.
        assert!(
            efficient_growth < 1.25,
            "efficient m.s.p. per-symbol work grew by {efficient_growth:.3}× over a 16× size increase"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn all_methods_match_booth_small_alphabet(s in proptest::collection::vec(0u32..3, 2..250)) {
            let ctx = Ctx::parallel().with_grain(16);
            let expected = naive_msp(&s);
            for m in all_methods() {
                prop_assert_eq!(minimal_starting_point(&ctx, &s, m), expected);
            }
        }

        #[test]
        fn all_methods_match_booth_binary(s in proptest::collection::vec(0u32..2, 2..400)) {
            let ctx = Ctx::parallel().with_grain(16);
            let expected = naive_msp(&s);
            for m in all_methods() {
                prop_assert_eq!(minimal_starting_point(&ctx, &s, m), expected);
            }
        }
    }

    /// Miri target: the rank/scatter passes inside both parallel m.s.p.
    /// algorithms, against Booth's oracle.
    #[test]
    fn miri_msp_methods_agree() {
        let s: Vec<u32> = (0..96u32).map(|i| i.wrapping_mul(13) % 5).collect();
        let ctx = Ctx::parallel();
        let want = booth_msp(&s);
        assert_eq!(simple_msp(&ctx, &s), want);
        assert_eq!(efficient_msp(&ctx, &s), want);
    }
}
