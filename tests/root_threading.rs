//! Root-threading regression: `decompose` reads its root array off the
//! fused Euler ranking, and nothing runs pointer jumping for roots.
//!
//! The ranking reports the tail of every tree node's down arc, which names
//! the node's root; the array is threaded through the Euler-tour finish
//! (`EulerTour::from_tree_arc_ranks`), the `cycle_of` propagation, and —
//! via `Decomposition::roots` — the tree labelling of the parallel
//! algorithm.  Every `find_roots_into` call opens a `find_roots` span, so a
//! traced context shows whether one ran without any process-global state.

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
fn decompose_reads_its_roots_off_the_ranking() {
    let g = sfcp_forest::generators::random_function(40_000, 77);
    let calls = find_roots_calls(|ctx| {
        let d = sfcp_forest::decompose(ctx, &g, CycleMethod::Euler);
        // The threaded array is the forest's root array, computed
        // independently here by pointer jumping on an untraced context.
        let roots = sfcp_parprim::jump::find_roots(&Ctx::untracked(), d.forest.parents());
        assert_eq!(d.roots, roots);
        for x in [0u32, 1, 17, 39_999] {
            assert_eq!(d.root_of(x), roots[x as usize]);
        }
    });
    assert_eq!(calls, 0, "decompose must not run pointer jumping for roots");

    // The full parallel algorithm adds no root computation either: tree
    // labelling reads the threaded array.
    let inst = sfcp::Instance::random(20_000, 3, 5);
    let calls = find_roots_calls(|ctx| {
        let q = sfcp::coarsest_partition(ctx, &inst, sfcp::Algorithm::Parallel);
        std::hint::black_box(q.num_blocks());
    });
    assert_eq!(calls, 0, "coarsest_parallel must reuse decompose's roots");
}
