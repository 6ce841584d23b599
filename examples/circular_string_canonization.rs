//! Canonising circular strings — the stand-alone subproblem of Section 3.1.
//!
//! Necklaces, chemical ring notations and circular genome fingerprints are
//! all "circular strings"; comparing two of them requires a canonical
//! rotation.  This example canonises a batch of random necklaces with the
//! paper's *efficient m.s.p.* algorithm, cross-checks against Booth's
//! sequential algorithm, and then sorts the canonical forms with the paper's
//! string sorting algorithm to count distinct necklaces.
//!
//! Run with: `cargo run --example circular_string_canonization --release`

use rand::prelude::*;
use sfcp_pram::Ctx;
use sfcp_strings::msp::{minimal_starting_point, MspMethod};
use sfcp_strings::string_sort::sort_strings;
use sfcp_strings::{booth_msp, rotation};

fn main() {
    let ctx = Ctx::parallel();
    let mut rng = StdRng::seed_from_u64(2026);

    // A batch of necklaces over a 4-letter alphabet; half of them are
    // rotations of the other half, so roughly 50% should collapse.
    let base_count = 3_000usize;
    let len = 96usize;
    let mut necklaces: Vec<Vec<u32>> = (0..base_count)
        .map(|_| (0..len).map(|_| rng.gen_range(0..4u32)).collect())
        .collect();
    for i in 0..base_count {
        let shift = rng.gen_range(0..len);
        let rotated = rotation(&necklaces[i], shift);
        necklaces.push(rotated);
    }

    // Canonise every necklace (parallel over necklaces; each uses the
    // recursive contraction algorithm of Lemma 3.7).
    let start = std::time::Instant::now();
    let canonical: Vec<Vec<u32>> = necklaces
        .iter()
        .map(|s| {
            let msp = minimal_starting_point(&ctx, s, MspMethod::Efficient);
            debug_assert_eq!(msp % s.len(), booth_msp(s) % s.len());
            rotation(s, msp)
        })
        .collect();
    let canonise_time = start.elapsed();

    // Sort the canonical forms lexicographically and count distinct ones.
    let start = std::time::Instant::now();
    let order = sort_strings(&ctx, &canonical);
    let sort_time = start.elapsed();
    let mut distinct = if order.is_empty() { 0 } else { 1 };
    for w in order.windows(2) {
        if canonical[w[0] as usize] != canonical[w[1] as usize] {
            distinct += 1;
        }
    }

    println!(
        "{} necklaces of length {len}: {} distinct after canonisation",
        necklaces.len(),
        distinct
    );
    println!(
        "canonisation {:.1} ms, sorting {:.1} ms (work so far: {})",
        canonise_time.as_secs_f64() * 1e3,
        sort_time.as_secs_f64() * 1e3,
        ctx.stats().work
    );

    // Every original necklace and its planted rotation must canonise to the
    // same string.
    for i in 0..base_count {
        assert_eq!(
            canonical[i],
            canonical[base_count + i],
            "planted rotation {i} did not collapse"
        );
    }
    println!("all {base_count} planted rotations collapsed onto their originals");
    assert!(distinct <= base_count);
}
