//! End-to-end coverage of the CSR builder's *bucketed* regime.
//!
//! Every decomposition call site hands `build_csr` a key space of at most
//! `n ≤ 2^22`, so the packed-word radix fallback (key spaces past the
//! direct-build counter budget) used to run only in unit tests.  The
//! sharded/contracted multigraph workload (`sfcp_bench::workloads`) is a
//! real edge stream over a `2^23` key space; these tests pin that the
//! workload actually lands in the bucketed regime and that the regime's
//! output, charges, and allocation behaviour hold end to end.

use sfcp_bench::workloads::sharded_multigraph;
use sfcp_parprim::csr::{DIRECT_BUILD_MAX_KEYS, SEQUENTIAL_BUILD_MAX};
use sfcp_pram::{Ctx, Stats};

/// Straight-line reference: push every pair into per-key vectors.
fn naive_csr(
    num_keys: usize,
    edges: impl Iterator<Item = Option<(u32, u32)>>,
) -> (Vec<u32>, Vec<u32>) {
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); num_keys];
    for pair in edges.flatten() {
        groups[pair.0 as usize].push(pair.1);
    }
    let mut offsets = vec![0u32; num_keys + 1];
    let mut items = Vec::new();
    for (k, g) in groups.iter().enumerate() {
        items.extend_from_slice(g);
        offsets[k + 1] = items.len() as u32;
    }
    (offsets, items)
}

/// The workload must satisfy the builder's bucketed-dispatch condition: a stream past the sequential threshold over a key space past
/// the direct-build counter budget.
#[test]
fn workload_lands_in_the_bucketed_regime() {
    let g = sharded_multigraph(60_000, 1);
    assert!(
        g.num_keys > DIRECT_BUILD_MAX_KEYS,
        "key space {} must exceed the direct budget {DIRECT_BUILD_MAX_KEYS}",
        g.num_keys
    );
    assert!(g.num_slots() > SEQUENTIAL_BUILD_MAX);
}

/// The bucketed build must agree with the naive baseline and charge the
/// §8 closed form of a CSR build — `2·num_slots + num_keys` work in 3
/// rounds.
#[test]
fn bucketed_build_matches_baseline_end_to_end() {
    let g = sharded_multigraph(60_000, 2);
    let expected = naive_csr(g.num_keys, (0..g.num_slots()).map(|s| g.edge(s)));
    let model = Stats {
        work: (2 * g.num_slots() + g.num_keys) as u64,
        rounds: 3,
    };
    let ctx = Ctx::parallel();
    let got = g.build_csr(&ctx);
    assert_eq!(got, expected);
    assert_eq!(ctx.stats(), model);
    // Sanity: the stream really exercises grouping (non-empty, with gaps).
    let (offsets, items) = expected;
    assert!(!items.is_empty());
    assert!(offsets.windows(2).any(|w| w[0] == w[1]), "empty keys exist");
    assert!(
        offsets.windows(2).any(|w| w[1] - w[0] > 8),
        "skewed supernode groups exist"
    );
}

/// Warm bucketed builds serve every checkout from the workspace pools —
/// the zero-allocation contract extends to the fallback regime.
#[test]
fn warm_bucketed_builds_allocate_nothing() {
    let g = sharded_multigraph(40_000, 3);
    let ctx = Ctx::parallel();
    let mut offsets = Vec::new();
    let mut items = Vec::new();
    let build = |offsets: &mut Vec<u32>, items: &mut Vec<u32>| {
        sfcp_parprim::csr::build_csr_into(
            &ctx,
            g.num_keys,
            g.num_slots(),
            |s| g.edge(s),
            offsets,
            items,
        );
    };
    build(&mut offsets, &mut items); // warm up
    let before = ctx.workspace().stats();
    for _ in 0..3 {
        build(&mut offsets, &mut items);
    }
    let after = ctx.workspace().stats();
    assert!(after.checkouts > before.checkouts);
    assert_eq!(
        after.misses, before.misses,
        "warm bucketed builds must not allocate fresh buffers"
    );
    assert_eq!(after.outstanding(), 0);
}
