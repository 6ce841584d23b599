//! Sequential least-rotation (minimal starting point) oracles.
//!
//! The m.s.p. problem "is known to admit a sequential linear-time algorithm"
//! (Booth; Shiloach).  The solver runs Booth's algorithm on short cycles, and
//! the property tests use both functions here as oracles for the parallel
//! algorithms.
//!
//! * [`booth_msp`] — Booth's failure-function algorithm, `O(n)` time.
//! * [`naive_msp`] — the obvious `O(n²)` scan, used only in tests.
//!
//! Both return the smallest index that starts a minimal rotation, so they
//! agree even on repeating (periodic) inputs.

/// Booth's least-rotation algorithm: the smallest index starting a
/// lexicographically minimal rotation of `s`.  `O(n)` time, `O(n)` space.
#[must_use]
pub fn booth_msp(s: &[u32]) -> usize {
    let n = s.len();
    if n == 0 {
        return 0;
    }
    // Standard formulation over the doubled string with a failure function.
    let mut f = vec![usize::MAX; 2 * n];
    let mut k = 0usize; // least rotation candidate
    for j in 1..2 * n {
        let sj = s[j % n];
        let mut i = f[j - k - 1];
        while i != usize::MAX && sj != s[(k + i + 1) % n] {
            if sj < s[(k + i + 1) % n] {
                k = j - i - 1;
            }
            i = f[i];
        }
        if i == usize::MAX && sj != s[(k + i.wrapping_add(1)) % n] {
            // i == MAX means no border; compare with the first character.
            if sj < s[k % n] {
                k = j;
            }
            f[j - k] = usize::MAX;
        } else {
            f[j - k] = i.wrapping_add(1);
        }
    }
    k
}

/// Naive `O(n²)` minimal starting point (smallest index on ties).
#[must_use]
pub fn naive_msp(s: &[u32]) -> usize {
    let n = s.len();
    if n == 0 {
        return 0;
    }
    let mut best = 0usize;
    for cand in 1..n {
        if crate::compare_rotations(s, cand, best) == std::cmp::Ordering::Less {
            best = cand;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_and_single() {
        assert_eq!(booth_msp(&[]), 0);
        assert_eq!(naive_msp(&[]), 0);
        assert_eq!(booth_msp(&[7]), 0);
    }

    #[test]
    fn known_cases() {
        // "baca" → rotations: baca, acab, caba, abac → minimal "abac" at 3.
        let s = [2u32, 1, 3, 1];
        assert_eq!(naive_msp(&s), 3);
        assert_eq!(booth_msp(&s), 3);

        // Already minimal.
        let t = [1u32, 1, 2, 3];
        assert_eq!(naive_msp(&t), 0);
        assert_eq!(booth_msp(&t), 0);

        // All equal symbols: every rotation equal, smallest index is 0.
        let u = [4u32; 6];
        assert_eq!(naive_msp(&u), 0);
        assert_eq!(booth_msp(&u), 0);
    }

    #[test]
    fn paper_example_34_string() {
        let s = [3u32, 2, 1, 3, 2, 3, 4, 3, 1, 2, 3, 4, 2, 1, 1, 1, 3, 2, 2];
        let expected = naive_msp(&s);
        assert_eq!(expected, 13, "the minimal rotation starts at the 1,1,1 run");
        assert_eq!(booth_msp(&s), expected);
    }

    #[test]
    fn repeating_string_returns_first_minimal_start() {
        let s = [2u32, 1, 2, 1];
        assert_eq!(naive_msp(&s), 1);
        assert_eq!(booth_msp(&s), 1);
    }

    #[test]
    fn adversarial_runs() {
        // Long run of equal symbols followed by a smaller one.
        let mut s = vec![1u32; 50];
        s.push(0);
        s.extend(vec![1u32; 30]);
        let expected = naive_msp(&s);
        assert_eq!(booth_msp(&s), expected);
    }

    proptest! {
        #[test]
        fn booth_matches_naive(s in proptest::collection::vec(0u32..4, 1..120)) {
            prop_assert_eq!(booth_msp(&s), naive_msp(&s));
        }

        #[test]
        fn larger_alphabet(s in proptest::collection::vec(0u32..1000, 1..200)) {
            let expected = naive_msp(&s);
            prop_assert_eq!(booth_msp(&s), expected);
        }
    }
}
