//! Integration tests for the stand-alone subproblems the paper highlights as
//! being of independent interest (Section 1): minimal starting points of
//! circular strings, string sorting, and cycle equivalence — exercised
//! through the public crate APIs together.

use proptest::prelude::*;
use rand::prelude::*;
use sfcp_pram::Ctx;
use sfcp_strings::msp::{efficient_msp, minimal_starting_point, simple_msp, MspMethod};
use sfcp_strings::string_sort::sort_strings;
use sfcp_strings::{booth_msp, rotation, smallest_period};

#[test]
fn canonical_rotation_is_rotation_invariant() {
    let ctx = Ctx::parallel();
    let mut rng = StdRng::seed_from_u64(3);
    for len in [5usize, 17, 64, 257, 1000] {
        let s: Vec<u32> = (0..len).map(|_| rng.gen_range(0..3)).collect();
        let canon = rotation(&s, minimal_starting_point(&ctx, &s, MspMethod::Efficient));
        for _ in 0..5 {
            let shift = rng.gen_range(0..len);
            let rotated = rotation(&s, shift);
            let canon2 = rotation(
                &rotated,
                minimal_starting_point(&ctx, &rotated, MspMethod::Efficient),
            );
            assert_eq!(
                canon, canon2,
                "rotation by {shift} changed the canonical form"
            );
        }
    }
}

#[test]
fn all_msp_methods_agree_on_large_structured_strings() {
    let ctx = Ctx::parallel();
    // Periodic-ish strings with planted minima stress the marking step.
    let mut s: Vec<u32> = Vec::new();
    for block in 0..200 {
        s.extend([3, 2, 3, 4, 2 + (block % 3) as u32]);
    }
    s.extend([1, 1, 2]);
    let expected = booth_msp(&s);
    assert_eq!(
        minimal_starting_point(&ctx, &s, MspMethod::Efficient),
        expected
    );
    // The string is nonrepeating, so both paper algorithms apply directly.
    assert_eq!(smallest_period(&ctx, &s), s.len());
    assert_eq!(simple_msp(&ctx, &s), expected);
    assert_eq!(efficient_msp(&ctx, &s), expected);
}

#[test]
fn period_reduction_composes_with_msp() {
    let ctx = Ctx::parallel();
    let pattern = [1u32, 3, 2, 2, 3];
    let mut s = Vec::new();
    for _ in 0..20 {
        s.extend_from_slice(&pattern);
    }
    assert_eq!(smallest_period(&ctx, &s), pattern.len());
    // The m.s.p. of the repeated string equals the m.s.p. of the pattern.
    let msp = minimal_starting_point(&ctx, &s, MspMethod::Efficient);
    assert_eq!(msp, booth_msp(&pattern));
}

#[test]
fn string_sorting_agrees_with_comparison_on_mixed_workload() {
    let ctx = Ctx::parallel();
    let mut rng = StdRng::seed_from_u64(9);
    let mut strings: Vec<Vec<u32>> = Vec::new();
    // Mixture: short random strings, long strings with shared prefixes, exact
    // duplicates, empty strings.
    for _ in 0..500 {
        let len = rng.gen_range(0..12);
        strings.push((0..len).map(|_| rng.gen_range(0..4)).collect());
    }
    let shared: Vec<u32> = (0..300).map(|_| rng.gen_range(0..4)).collect();
    for _ in 0..100 {
        let mut s = shared.clone();
        s.push(rng.gen_range(0..4));
        strings.push(s);
    }
    strings.push(Vec::new());
    strings.push(shared.clone());
    strings.push(shared);

    let a = sort_strings(&ctx, &strings);
    // A stable comparison sort of the indices gives the same order.
    let mut b: Vec<u32> = (0..strings.len() as u32).collect();
    b.sort_by(|&x, &y| strings[x as usize].cmp(&strings[y as usize]));
    assert_eq!(a, b);
    // And the order really is sorted.
    for w in a.windows(2) {
        assert!(strings[w[0] as usize] <= strings[w[1] as usize]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn msp_methods_agree_end_to_end(s in proptest::collection::vec(0u32..4, 1..300)) {
        let ctx = Ctx::parallel();
        prop_assert_eq!(minimal_starting_point(&ctx, &s, MspMethod::Efficient), booth_msp(&s));
        // The tournament alone, on the nonrepeating prefix it requires.
        let p = smallest_period(&ctx, &s);
        prop_assert_eq!(simple_msp(&ctx, &s[..p]), booth_msp(&s[..p]));
    }

    #[test]
    fn coarsest_partition_equivalences_are_f_invariant(
        n in 2usize..150,
        blocks in 1usize..4,
        seed in 0u64..100,
    ) {
        // Structural property straight from the definition: if x ≡ y then
        // f(x) ≡ f(y) and B(x) = B(y).
        let instance = sfcp::Instance::random(n, blocks, seed);
        let ctx = Ctx::parallel();
        let q = sfcp::coarsest_partition(&ctx, &instance, sfcp::Algorithm::Parallel);
        for x in 0..n as u32 {
            for y in 0..n as u32 {
                if q.label(x) == q.label(y) {
                    prop_assert_eq!(instance.blocks()[x as usize], instance.blocks()[y as usize]);
                    prop_assert_eq!(
                        q.label(instance.f()[x as usize]),
                        q.label(instance.f()[y as usize])
                    );
                }
            }
        }
    }
}
