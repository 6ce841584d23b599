//! Charge-determinism regression: tracked work/depth must depend only on
//! the input — bit-identical across thread counts, task grains and tracing.
//! No pass reads the host's caches, so the host enters a run only through
//! its thread count.
//!
//! DESIGN.md's "Charge discipline" demands that the complexity tables be a
//! property of the algorithm, never of the machine: the same run on 1, 2,
//! all hardware threads, or twice that (more pool workers than cores), and
//! at any task grain, must charge exactly the same work and depth (only
//! wall-clock may differ).  A charge that accidentally depends on
//! `current_num_threads` or on the grain (e.g. a per-thread block count
//! leaking into a charged loop) breaks this test immediately: the wavefront
//! chunking of the list ranking, the contraction walks, and the CSR / radix
//! block plans are all thread-count-sensitive *physically* and must stay
//! invisible in charges.
//!
//! The pipeline pins at the end of this file hold the charges themselves to
//! exact `(work, rounds)` values on fixed seeded inputs: any change to a
//! charged pass anywhere in the stack moves them.

use sfcp::{coarsest_partition, Algorithm, Instance};
use sfcp_forest::cycles::CycleMethod;
use sfcp_pram::{Ctx, Stats};

/// Run `f` under a virtual rayon pool of `threads` workers and return the
/// charges it reports.
fn charges_with_threads<F: Fn() -> Stats>(threads: usize, f: F) -> Stats {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.install(f)
}

fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(4, usize::from);
    let mut counts = vec![1, 2, max, 2 * max];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The `(threads, grain)` legs a charge must not depend on: every thread
/// count at the default grain, then a tiny, a small and an
/// input-sized task grain at two threads.
fn legs() -> Vec<(usize, Option<usize>)> {
    let threads = thread_counts().into_iter().map(|t| (t, None));
    let grains = [4, 64, 1 << 20].map(|g| (2, Some(g)));
    threads.chain(grains).collect()
}

/// A fresh tracked context at `grain` (the default when `None`).
fn ctx_with_grain(grain: Option<usize>) -> Ctx {
    let ctx = Ctx::parallel();
    match grain {
        Some(g) => ctx.with_grain(g),
        None => ctx,
    }
}

#[test]
fn coarsest_parallel_charges_are_thread_count_independent() {
    for inst in [
        Instance::random(20_000, 4, 5),
        Instance::random_cycles(&[2, 3, 4, 6, 6, 12, 24], 2, 2),
        Instance::deep(5_000, 5, 2, 4),
    ] {
        let mut baseline: Option<Stats> = None;
        for (threads, grain) in legs() {
            let stats = charges_with_threads(threads, || {
                let ctx = ctx_with_grain(grain);
                let q = coarsest_partition(&ctx, &inst, Algorithm::Parallel);
                std::hint::black_box(q.num_blocks());
                ctx.stats()
            });
            match &baseline {
                None => baseline = Some(stats),
                Some(b) => assert_eq!(
                    *b,
                    stats,
                    "charges diverged at {threads} threads, grain {grain:?} (n={})",
                    inst.len()
                ),
            }
        }
    }
}

/// Tracing must be charge-invisible: the span guards read the tracker and
/// the clock but never feed them, so a traced decompose must charge
/// bit-identically to an untraced one (the spans sit inside every engine
/// pass, so the whole pass structure is exercised).  This is the contract
/// that lets `bench_json` harvest its per-row span summaries from the same
/// tracked pass that labels the charge columns.
#[test]
fn tracing_is_charge_invisible_across_engine_grid() {
    let g = sfcp_forest::generators::random_function(20_000, 17);
    let run = |traced: bool| {
        let mut ctx = Ctx::parallel();
        if traced {
            ctx = ctx.with_tracing();
        }
        let d = sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
        std::hint::black_box(d.num_cycles());
        (ctx.stats(), ctx.trace().snapshot().spans.len())
    };
    let (untraced, no_spans) = run(false);
    let (traced, spans) = run(true);
    assert_eq!(untraced, traced, "tracing changed charges");
    assert_eq!(no_spans, 0, "untraced run must record nothing");
    assert!(spans > 0, "traced run must record the phase spans");
}

#[test]
fn decompose_charges_are_thread_count_independent() {
    let g = sfcp_forest::generators::random_function(50_000, 23);
    for method in [CycleMethod::Sequential, CycleMethod::Euler] {
        let mut baseline: Option<Stats> = None;
        for (threads, grain) in legs() {
            let stats = charges_with_threads(threads, || {
                let ctx = ctx_with_grain(grain);
                let d = sfcp_forest::decompose(&ctx, &g, method);
                std::hint::black_box(d.num_cycles());
                ctx.stats()
            });
            match &baseline {
                None => baseline = Some(stats),
                Some(b) => assert_eq!(
                    *b, stats,
                    "decompose charges diverged at {threads} threads, grain {grain:?} ({method:?})"
                ),
            }
        }
    }
}

/// `(work, rounds)` of a tracked run of `f` on a fresh context.
fn charged(f: impl FnOnce(&Ctx)) -> (u64, u64) {
    let ctx = Ctx::parallel();
    f(&ctx);
    (ctx.stats().work, ctx.stats().rounds)
}

/// `decompose` charges, pinned per `CycleMethod` on four graphs (the paper
/// example, a small and a contraction-sized random function, and a long
/// tail).  Every method yields the identical `Decomposition`.
#[test]
fn decompose_charges_are_pinned_per_cycle_method() {
    let graphs = [
        sfcp_forest::generators::paper_example_function(),
        sfcp_forest::generators::random_function(5000, 3),
        sfcp_forest::generators::random_function(40_000, 17), // contraction path
        sfcp_forest::generators::long_tail(3000, 5, 2),
    ];
    // Per graph: [Sequential, Euler] pins.
    let pins: [[(u64, u64); 2]; 4] = [
        [(1_092, 55), (1_668, 73)],
        [(224_638, 88), (584_638, 124)],
        [(1_725_444, 103), (5_085_444, 145)],
        [(124_944, 70), (328_944, 104)],
    ];
    for (g, pins) in graphs.iter().zip(pins) {
        let reference = sfcp_forest::decompose(&Ctx::parallel(), g, CycleMethod::Sequential);
        let methods = [CycleMethod::Sequential, CycleMethod::Euler];
        for (method, pin) in methods.into_iter().zip(pins) {
            let got = charged(|ctx| {
                let d = sfcp_forest::decompose(ctx, g, method);
                assert_eq!(d, reference, "n={}, {method:?}", g.len());
            });
            assert_eq!(got, pin, "n={}, {method:?}", g.len());
        }
    }
}

/// The small instances of the end-to-end pins, with their number of blocks.
fn pinned_instances() -> [(Instance, usize); 5] {
    [
        (Instance::paper_example(), 4),
        (Instance::random(3000, 4, 7), 2584),
        (Instance::random_cycles(&[2, 3, 4, 6, 6, 12, 24], 2, 2), 53),
        (Instance::periodic_cycles(9, 24, 6, 3, 3), 18),
        (Instance::deep(2000, 5, 2, 4), 1991),
    ]
}

/// The large instance of the end-to-end pins, with its number of blocks:
/// large enough for the cycle-min contraction (> 4096 arcs) and the
/// wavefront list ranking (> 1024 elements).
fn large_pinned_instance() -> (Instance, usize) {
    (Instance::random(20_000, 4, 29), 16_909)
}

/// Runs the paper's algorithm on `inst`: the partition must be Hopcroft's,
/// with `blocks` blocks, and the charges must equal `pin`.
fn assert_parallel_pinned(inst: &Instance, blocks: usize, pin: (u64, u64)) {
    let reference = coarsest_partition(&Ctx::parallel(), inst, Algorithm::Hopcroft);
    assert_eq!(reference.num_blocks(), blocks, "n={}", inst.len());
    let got = charged(|ctx| {
        let q = coarsest_partition(ctx, inst, Algorithm::Parallel);
        assert!(q.same_partition(&reference), "n={}", inst.len());
    });
    assert_eq!(got, pin, "n={}", inst.len());
}

/// The paper's algorithm end to end on the small instances: pinned charges
/// and Hopcroft's partition per instance.
#[test]
fn coarsest_parallel_charges_are_pinned() {
    let pins = [
        (1_731, 84),
        (484_789, 240),
        (7_439, 130),
        (31_800, 110),
        (310_113, 181),
    ];
    for ((inst, blocks), pin) in pinned_instances().into_iter().zip(pins) {
        assert_parallel_pinned(&inst, blocks, pin);
    }
}

/// The paper's algorithm end to end on the large instance, where the
/// contraction and the wavefront ranking run their large-input paths.
#[test]
fn coarsest_parallel_charges_are_pinned_on_large_input_paths() {
    let (inst, blocks) = large_pinned_instance();
    assert_parallel_pinned(&inst, blocks, (3_678_978, 314));
}

/// The label-doubling baseline end to end: pinned charges per instance,
/// and the same partition as Hopcroft's.
#[test]
fn coarsest_doubling_charges_are_pinned() {
    let pins = [
        (502, 32),
        (200_358, 83),
        (4_167, 74),
        (9_552, 44),
        (159_028, 89),
        (1_454_022, 107),
    ];
    let instances = pinned_instances()
        .into_iter()
        .chain([large_pinned_instance()]);
    for ((inst, _), pin) in instances.zip(pins) {
        let reference = coarsest_partition(&Ctx::parallel(), &inst, Algorithm::Hopcroft);
        let got = charged(|ctx| {
            let q = coarsest_partition(ctx, &inst, Algorithm::Doubling);
            assert!(q.same_partition(&reference), "n={}", inst.len());
        });
        assert_eq!(got, pin, "n={}", inst.len());
    }
}
