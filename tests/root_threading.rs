//! Root-threading regression: `decompose` computes the root array **once**.
//!
//! The pointer-jumping root computation runs a single time per
//! decomposition and is threaded through the Euler-tour finish
//! (`EulerTour::from_tree_arc_ranks`), the `cycle_of` propagation,
//! and — via `Decomposition::roots` — the tree labelling of the parallel
//! algorithm.  Every `find_roots_into` call opens a `find_roots` span, so a
//! traced context counts the calls of one run without any process-global
//! state.

use sfcp_forest::cycles::CycleMethod;
use sfcp_pram::Ctx;

/// Number of `find_roots` spans a traced run of `f` records (asserting the
/// trace ring dropped nothing, so the count is complete).
fn find_roots_calls(f: impl FnOnce(&Ctx)) -> u64 {
    let ctx = Ctx::parallel().with_tracing();
    f(&ctx);
    let snapshot = ctx.trace().snapshot();
    assert_eq!(snapshot.dropped_spans, 0, "the trace ring overflowed");
    snapshot
        .summary()
        .rows
        .iter()
        .filter(|row| row.name == "find_roots")
        .map(|row| row.count)
        .sum()
}

#[test]
fn decompose_runs_find_roots_exactly_once() {
    let g = sfcp_forest::generators::random_function(40_000, 77);
    let calls = find_roots_calls(|ctx| {
        let d = sfcp_forest::decompose(ctx, &g, CycleMethod::Euler);
        // The threaded array is the root array: every root is a cycle node,
        // and following parents from x must land on roots[x].
        for x in [0u32, 1, 17, 39_999] {
            let r = d.roots[x as usize];
            assert!(d.is_cycle[r as usize]);
            assert_eq!(g.iterate(x, d.levels[x as usize] as usize), r);
            assert_eq!(d.root_of(x), r);
        }
    });
    assert_eq!(
        calls, 1,
        "decompose must compute the root array exactly once"
    );

    // The full parallel algorithm adds no further root computations beyond
    // the one inside its decompose (tree labelling reads the threaded
    // array).
    let inst = sfcp::Instance::random(20_000, 3, 5);
    let calls = find_roots_calls(|ctx| {
        let q = sfcp::coarsest_partition(ctx, &inst, sfcp::Algorithm::Parallel);
        std::hint::black_box(q.num_blocks());
    });
    assert_eq!(
        calls, 1,
        "coarsest_parallel must reuse decompose's root array"
    );
}
