//! # sfcp-strings — circular string canonization and string sorting
//!
//! Section 3 of JáJá & Ryu reduces the cycle-labelling half of the coarsest
//! partition problem to two string problems, both of independent interest:
//!
//! 1. **Minimal starting point (m.s.p.) of a circular string** — the rotation
//!    that is lexicographically least.  The paper gives two parallel
//!    algorithms: the *simple* block tournament (`O(n log n)` work,
//!    `O(log n)` depth) and the *efficient* recursive pair-contraction
//!    (`O(n log log n)` work, `O(log n)` depth), plus it builds on the
//!    classical sequential solutions (Booth, Shiloach).
//! 2. **Lexicographic sorting of variable-length strings** whose total length
//!    is `n` over a polynomial alphabet, again by pair contraction, in
//!    `O(n log log n)` work and `O(log n)` depth.
//!
//! This crate implements the paper's algorithms for both, with Booth's
//! sequential m.s.p. as the oracle:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`period`] | smallest repeating prefix (= smallest period dividing the length) of a circular string, sequential (failure function) and parallel (divisor checks) |
//! | [`canonical`] | sequential m.s.p. oracles: Booth's algorithm and a naive quadratic reference |
//! | [`msp`] | the paper's parallel m.s.p. algorithms: the *efficient* contraction and the *simple* tournament that finishes it; plus the [`msp::minimal_starting_point`] facade that handles repeating inputs |
//! | [`string_sort`] | the paper's pair-contraction string sorting |
//!
//! Symbols are `u32`s (the alphabet of the coarsest-partition application is
//! the set of initial block labels, which is at most `n`); the blank symbol
//! `#` that "precedes any symbol" is represented internally by reserving `0`
//! and shifting real symbols up by one.
//!
//! ```
//! use sfcp_pram::Ctx;
//! use sfcp_strings::msp::{minimal_starting_point, MspMethod};
//!
//! let ctx = Ctx::parallel();
//! // Example 3.4 of the paper.
//! let s: Vec<u32> = vec![3, 2, 1, 3, 2, 3, 4, 3, 1, 2, 3, 4, 2, 1, 1, 1, 3, 2, 2];
//! let msp = minimal_starting_point(&ctx, &s, MspMethod::Efficient);
//! // The minimal rotation starts at the run "1,1,1,3,2,2,...".
//! assert_eq!(msp, 13);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod canonical;
pub mod msp;
pub mod period;
pub mod string_sort;

pub use canonical::{booth_msp, naive_msp};
pub use msp::{minimal_starting_point, try_minimal_starting_point, MspMethod};
pub use period::{smallest_period, smallest_period_seq};
pub use string_sort::{sort_strings, try_sort_strings};

/// Compare two rotations of the same circular string lexicographically.
///
/// Returns the ordering of rotation `i` versus rotation `j`, comparing at
/// most `s.len()` symbols (two rotations of the same circular string are
/// equal iff they agree on all `n` symbols).
#[must_use]
pub fn compare_rotations(s: &[u32], i: usize, j: usize) -> std::cmp::Ordering {
    let n = s.len();
    for k in 0..n {
        let a = s[(i + k) % n];
        let b = s[(j + k) % n];
        match a.cmp(&b) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// Materialize the rotation of `s` starting at `start`.
#[must_use]
pub fn rotation(s: &[u32], start: usize) -> Vec<u32> {
    let n = s.len();
    (0..n).map(|k| s[(start + k) % n]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn compare_rotations_correctness() {
        let s = [2u32, 1, 3, 1];
        // rotation 1 = [1,3,1,2], rotation 3 = [1,2,1,3]
        assert_eq!(rotation(&s, 1), vec![1, 3, 1, 2]);
        assert_eq!(rotation(&s, 3), vec![1, 2, 1, 3]);
        assert_eq!(compare_rotations(&s, 3, 1), Ordering::Less);
        assert_eq!(compare_rotations(&s, 1, 3), Ordering::Greater);
        assert_eq!(compare_rotations(&s, 2, 2), Ordering::Equal);
    }

    #[test]
    fn equal_rotations_of_repeating_string() {
        let s = [1u32, 2, 1, 2];
        assert_eq!(compare_rotations(&s, 0, 2), Ordering::Equal);
        assert_eq!(compare_rotations(&s, 1, 3), Ordering::Equal);
        assert_eq!(compare_rotations(&s, 0, 1), Ordering::Less);
    }
}
