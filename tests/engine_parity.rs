//! Cross-engine regression tests for the zero-allocation sort/rank engine.
//!
//! The packed record engine must be observably identical to the permutation
//! baseline everywhere except wall-clock time and allocation count:
//!
//! * identical partitions from every algorithm,
//! * byte-identical work/depth charges (the tracker-based complexity tables
//!   must be engine-independent),
//! * O(1) workspace allocations per *run* once the pools are warm (not per
//!   doubling round).

use sfcp::{coarsest_partition, Algorithm, Instance};
use sfcp_forest::{cycles::CycleMethod, decompose};
use sfcp_pram::{Ctx, Mode, RankEngine, SortEngine};

fn rank_engines() -> [RankEngine; 3] {
    RankEngine::ALL
}

fn instances() -> Vec<Instance> {
    vec![
        Instance::paper_example(),
        Instance::random(3000, 4, 7),
        Instance::random_cycles(&[2, 3, 4, 6, 6, 12, 24], 2, 2),
        Instance::periodic_cycles(9, 24, 6, 3, 3),
        Instance::deep(2000, 5, 2, 4),
    ]
}

#[test]
fn parallel_algorithm_is_engine_independent() {
    for inst in instances() {
        for mode in [Mode::Sequential, Mode::Parallel] {
            let packed = Ctx::new(mode);
            let baseline = Ctx::new(mode).with_sort_engine(SortEngine::Permutation);
            let a = coarsest_partition(&packed, &inst, Algorithm::Parallel);
            let b = coarsest_partition(&baseline, &inst, Algorithm::Parallel);
            assert!(
                a.same_partition(&b),
                "engines disagree on n={}, mode={mode:?}",
                inst.len()
            );
            assert_eq!(
                packed.stats(),
                baseline.stats(),
                "work/depth diverged on n={}, mode={mode:?}",
                inst.len()
            );
        }
    }
}

#[test]
fn doubling_algorithm_is_engine_independent() {
    for inst in instances() {
        let packed = Ctx::parallel();
        let baseline = Ctx::parallel().with_sort_engine(SortEngine::Permutation);
        let a = coarsest_partition(&packed, &inst, Algorithm::Doubling);
        let b = coarsest_partition(&baseline, &inst, Algorithm::Doubling);
        assert!(a.same_partition(&b), "engines disagree on n={}", inst.len());
        assert_eq!(
            packed.stats(),
            baseline.stats(),
            "work/depth diverged on n={}",
            inst.len()
        );
    }
}

/// `decompose` itself must be engine- and method-stable: every `CycleMethod`
/// × `RankEngine` × `SortEngine` combination produces the identical
/// `Decomposition`; for a fixed (method, rank engine) the two sort engines
/// charge identical work/depth, and the two ruling-set rank engines
/// (`RulingSet` vs `CacheBucket`) charge identically to each other (the
/// `PointerJump` rank engine charges its own documented Wyllie model).
#[test]
fn decompose_is_engine_and_method_independent() {
    let graphs = [
        sfcp_forest::generators::paper_example_function(),
        sfcp_forest::generators::random_function(5000, 3),
        sfcp_forest::generators::random_function(40_000, 17), // contraction path
        sfcp_forest::generators::long_tail(3000, 5, 2),
    ];
    for g in &graphs {
        let mut first = None;
        for method in [
            CycleMethod::Sequential,
            CycleMethod::Jump,
            CycleMethod::Euler,
        ] {
            let mut ruling_set_stats = None;
            for rank in rank_engines() {
                let packed = Ctx::parallel().with_rank_engine(rank);
                let baseline = Ctx::parallel()
                    .with_rank_engine(rank)
                    .with_sort_engine(SortEngine::Permutation);
                let a = decompose(&packed, g, method);
                let b = decompose(&baseline, g, method);
                assert_eq!(
                    a,
                    b,
                    "sort engines disagree on decomposition (n={}, {method:?}, {rank:?})",
                    g.len()
                );
                assert_eq!(
                    packed.stats(),
                    baseline.stats(),
                    "sort-engine charges diverged (n={}, {method:?}, {rank:?})",
                    g.len()
                );
                match rank {
                    RankEngine::RulingSet => ruling_set_stats = Some(packed.stats()),
                    RankEngine::CacheBucket => assert_eq!(
                        ruling_set_stats.expect("RulingSet measured first"),
                        packed.stats(),
                        "RulingSet and CacheBucket charges diverged (n={}, {method:?})",
                        g.len()
                    ),
                    RankEngine::PointerJump => {}
                }
                match &first {
                    None => first = Some(a),
                    Some(reference) => assert_eq!(
                        reference,
                        &a,
                        "engine combinations disagree on decomposition (n={}, {method:?}, {rank:?})",
                        g.len()
                    ),
                }
            }
        }
    }
}

/// The full parallel algorithm under every `RankEngine` × `SortEngine`
/// combination: identical partitions everywhere, sort-engine charges equal
/// for a fixed rank engine, and the two ruling-set rank engines charge
/// identically end to end.
#[test]
fn parallel_algorithm_is_rank_engine_independent() {
    // Large enough that both the cycle-min contraction (> 4096 arcs) and the
    // ruling-set list ranking (> 1024 elements) run their large-input paths.
    let inst = Instance::random(20_000, 4, 29);
    let mut reference = None;
    let mut ruling_set_stats = None;
    for rank in rank_engines() {
        let mut per_rank = Vec::new();
        for sort in [SortEngine::Packed, SortEngine::Permutation] {
            let ctx = Ctx::parallel()
                .with_rank_engine(rank)
                .with_sort_engine(sort);
            let q = coarsest_partition(&ctx, &inst, Algorithm::Parallel);
            match &reference {
                None => reference = Some(q),
                Some(r) => assert!(
                    r.same_partition(&q),
                    "partition diverged under ({rank:?}, {sort:?})"
                ),
            }
            per_rank.push(ctx.stats());
        }
        assert_eq!(
            per_rank[0], per_rank[1],
            "sort-engine charges diverged under {rank:?}"
        );
        match rank {
            RankEngine::RulingSet => ruling_set_stats = Some(per_rank[0]),
            RankEngine::CacheBucket => assert_eq!(
                ruling_set_stats.expect("RulingSet measured first"),
                per_rank[0],
                "RulingSet and CacheBucket end-to-end charges diverged"
            ),
            RankEngine::PointerJump => {}
        }
    }
}

/// The tentpole acceptance property: after one warm-up run, repeated runs of
/// the doubling loop (O(log n) dense-rank rounds each) serve every scratch
/// checkout from the workspace pool — zero fresh allocations per run.
#[test]
fn doubling_loop_allocates_o1_buffers_per_run() {
    let inst = Instance::random(30_000, 4, 11);
    let ctx = Ctx::parallel();
    let _ = coarsest_partition(&ctx, &inst, Algorithm::Doubling); // warm up
    let before = ctx.workspace().stats();
    for _ in 0..3 {
        let _ = coarsest_partition(&ctx, &inst, Algorithm::Doubling);
    }
    let after = ctx.workspace().stats();
    assert!(
        after.checkouts > before.checkouts,
        "rounds must use the workspace"
    );
    assert_eq!(
        after.misses, before.misses,
        "warm doubling runs must not allocate fresh scratch buffers"
    );
}

/// Same property for the full parallel algorithm (m.s.p. + tree labelling).
#[test]
fn parallel_algorithm_allocates_o1_buffers_per_run() {
    let inst = Instance::random(30_000, 4, 13);
    let ctx = Ctx::parallel();
    let _ = coarsest_partition(&ctx, &inst, Algorithm::Parallel); // warm up
    let before = ctx.workspace().stats();
    for _ in 0..3 {
        let _ = coarsest_partition(&ctx, &inst, Algorithm::Parallel);
    }
    let after = ctx.workspace().stats();
    assert!(
        after.checkouts > before.checkouts,
        "runs must use the workspace"
    );
    assert_eq!(
        after.misses, before.misses,
        "warm parallel runs must not allocate fresh scratch buffers"
    );
}
