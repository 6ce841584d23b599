//! Smallest repeating prefix of a circular string.
//!
//! For a cycle `C` with B-label string `S`, the *smallest repeating prefix*
//! `P` is the shortest prefix with `P^j = S`.  Its length is the smallest
//! period of `S` that divides `|S|`; every node of the cycle gets the same
//! Q-label as the node `|P|` positions ahead (Lemma 2.1(ii)), so the cycle
//! labelling algorithm first replaces each cycle's label string by `P`.
//!
//! Two implementations:
//! * [`smallest_period_seq`] — the classical KMP failure-function
//!   computation, `O(n)` sequential time (the route Paige–Tarjan–Bonic take);
//! * [`smallest_period`] — a parallel check of each divisor `d | n` in
//!   increasing order (`S` is `d`-periodic iff `S[i] = S[i mod d]` for all
//!   `i`), `O(log n)`-ish depth per check and `O(n)` work per check.  The
//!   number of divisors of `n` is `n^{o(1)}`, and in the coarsest-partition
//!   pipeline the strings are almost always aperiodic so only a couple of
//!   divisors are ever inspected.  (The paper cites the Breslauer–Galil
//!   string-matching machinery for an `O(log log n)`-time bound; the divisor
//!   sweep is the practical substitution and is cross-checked against the
//!   sequential algorithm in the tests.)

use sfcp_pram::Ctx;

/// Smallest period `p` of `s` such that `p` divides `s.len()` — i.e. the
/// length of the smallest repeating prefix of the circular string `s`.
/// Returns `s.len()` for aperiodic strings and `0` for the empty string.
///
/// Sequential `O(n)` via the KMP failure function.
#[must_use]
pub fn smallest_period_seq(s: &[u32]) -> usize {
    let n = s.len();
    if n == 0 {
        return 0;
    }
    // failure[i] = length of the longest proper border of s[..=i].
    let mut failure = vec![0usize; n];
    let mut k = 0usize;
    for i in 1..n {
        while k > 0 && s[i] != s[k] {
            k = failure[k - 1];
        }
        if s[i] == s[k] {
            k += 1;
        }
        failure[i] = k;
    }
    let p = n - failure[n - 1];
    if n.is_multiple_of(p) {
        p
    } else {
        n
    }
}

/// Parallel smallest period (same contract as [`smallest_period_seq`]).
#[must_use]
pub fn smallest_period(ctx: &Ctx, s: &[u32]) -> usize {
    let mut span = ctx.span("smallest_period");
    span.attr("n", s.len() as u64);
    let n = s.len();
    if n == 0 {
        return 0;
    }
    if n == 1 {
        return 1;
    }
    // Divisors of n in increasing order.
    let mut divisors = Vec::new();
    let mut d = 1usize;
    while d * d <= n {
        if n.is_multiple_of(d) {
            divisors.push(d);
            if d != n / d {
                divisors.push(n / d);
            }
        }
        d += 1;
    }
    divisors.sort_unstable();
    ctx.charge_step(divisors.len() as u64);

    for &p in &divisors {
        if p == n {
            break;
        }
        // Cheap rejection first: almost every non-period is refuted within a
        // handful of positions, so probe a short prefix sequentially before
        // paying for the full parallel check.
        let probe = (n - p).min(64);
        ctx.charge_work(probe as u64);
        if (0..probe).any(|i| s[i + p] != s[i]) {
            continue;
        }
        // s is p-periodic iff s[i] == s[i - p] for all i >= p.
        let periodic =
            ctx.par_reduce_idx(n - p, true, |i| s[i + p] == s[i % p.max(1)], |a, b| a && b);
        if periodic {
            return p;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference_period(s: &[u32]) -> usize {
        let n = s.len();
        if n == 0 {
            return 0;
        }
        'outer: for p in 1..=n {
            if !n.is_multiple_of(p) {
                continue;
            }
            for i in p..n {
                if s[i] != s[i % p] {
                    continue 'outer;
                }
            }
            return p;
        }
        n
    }

    #[test]
    fn simple_cases() {
        let ctx = Ctx::parallel();
        assert_eq!(smallest_period_seq(&[]), 0);
        assert_eq!(smallest_period(&ctx, &[]), 0);
        assert_eq!(smallest_period_seq(&[5]), 1);
        assert_eq!(smallest_period(&ctx, &[5]), 1);
        assert_eq!(smallest_period_seq(&[1, 1, 1, 1]), 1);
        assert_eq!(smallest_period(&ctx, &[1, 1, 1, 1]), 1);
        assert_eq!(smallest_period_seq(&[1, 2, 1, 2]), 2);
        assert_eq!(smallest_period(&ctx, &[1, 2, 1, 2]), 2);
        assert_eq!(smallest_period_seq(&[1, 2, 3]), 3);
        assert_eq!(smallest_period(&ctx, &[1, 2, 3]), 3);
    }

    #[test]
    fn paper_example_31() {
        // Example 3.1: the B-label string of cycle C is (1,2,1,3,1,2,1,3,1,2,1,3)
        // and its smallest repeating prefix is (1,2,1,3).
        let ctx = Ctx::parallel();
        let s = [1u32, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3];
        assert_eq!(smallest_period_seq(&s), 4);
        assert_eq!(smallest_period(&ctx, &s), 4);
        // Cycle D has B-label string (1,2,1,3): aperiodic.
        let d = [1u32, 2, 1, 3];
        assert_eq!(smallest_period_seq(&d), 4);
        assert_eq!(smallest_period(&ctx, &d), 4);
    }

    #[test]
    fn period_must_divide_length() {
        // "aab" repeated twice then one extra "a": the failure function would
        // suggest a border, but no proper divisor period exists for length 7.
        let ctx = Ctx::parallel();
        let s = [1u32, 1, 2, 1, 1, 2, 1];
        assert_eq!(smallest_period_seq(&s), 7);
        assert_eq!(smallest_period(&ctx, &s), 7);
    }

    #[test]
    fn longer_structured_period() {
        let ctx = Ctx::parallel();
        let base = [3u32, 1, 4, 1, 5];
        let mut s = Vec::new();
        for _ in 0..12 {
            s.extend_from_slice(&base);
        }
        assert_eq!(smallest_period_seq(&s), 5);
        assert_eq!(smallest_period(&ctx, &s), 5);
    }

    proptest! {
        #[test]
        fn par_and_seq_match_reference(
            base in proptest::collection::vec(0u32..4, 1..12),
            reps in 1usize..6,
        ) {
            let mut s = Vec::new();
            for _ in 0..reps {
                s.extend_from_slice(&base);
            }
            let ctx = Ctx::parallel().with_grain(16);
            let expected = reference_period(&s);
            prop_assert_eq!(smallest_period_seq(&s), expected);
            prop_assert_eq!(smallest_period(&ctx, &s), expected);
        }

        #[test]
        fn random_strings(s in proptest::collection::vec(0u32..3, 1..200)) {
            let ctx = Ctx::parallel().with_grain(16);
            let expected = reference_period(&s);
            prop_assert_eq!(smallest_period_seq(&s), expected);
            prop_assert_eq!(smallest_period(&ctx, &s), expected);
        }
    }
}
