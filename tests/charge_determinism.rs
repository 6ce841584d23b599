//! Charge-determinism regression: tracked work/depth must be bit-identical
//! across thread counts.
//!
//! DESIGN.md's "Charge discipline" demands that the complexity tables be a
//! property of the algorithm, never of the machine: the same run on 1, 2, or
//! all hardware threads must charge exactly the same work and depth (only
//! wall-clock may differ).  This guards the invariant before any NUMA/grain
//! tuning lands — a charge that accidentally depends on
//! `current_num_threads` (e.g. a per-thread block count leaking into a
//! charged loop) breaks this test immediately.  The `RankEngine` ×
//! `SortEngine` grid keeps every engine combination under the same gate: the
//! `CacheBucket` wavefront chunking, the contraction walks, and the CSR /
//! radix block plans are all thread-count-sensitive *physically* and must
//! stay thread-count-invisible in charges.

use sfcp::{coarsest_partition, Algorithm, Instance};
use sfcp_forest::cycles::CycleMethod;
use sfcp_pram::{Ctx, Mode, RankEngine, SortEngine, Stats, Topology};

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
    let mut counts = vec![1, 2, max];
    counts.dedup();
    counts
}

fn rank_engines() -> [RankEngine; 3] {
    RankEngine::ALL
}

#[test]
fn coarsest_parallel_charges_are_thread_count_independent() {
    for inst in [
        Instance::random(20_000, 4, 5),
        Instance::random_cycles(&[2, 3, 4, 6, 6, 12, 24], 2, 2),
        Instance::deep(5_000, 5, 2, 4),
    ] {
        let mut baseline: Option<Stats> = None;
        for threads in thread_counts() {
            let stats = charges_with_threads(threads, || {
                let ctx = Ctx::new(Mode::Parallel);
                let q = coarsest_partition(&ctx, &inst, Algorithm::Parallel);
                std::hint::black_box(q.num_blocks());
                ctx.stats()
            });
            match &baseline {
                None => baseline = Some(stats),
                Some(b) => assert_eq!(
                    *b,
                    stats,
                    "charges diverged at {threads} threads (n={})",
                    inst.len()
                ),
            }
        }
    }
}

/// Every `RankEngine` × `SortEngine` combination must charge
/// bit-identically across thread counts on the full algorithm — the
/// acceptance gate of the engine subsystems.
#[test]
fn coarsest_parallel_engine_grid_is_thread_count_independent() {
    let inst = Instance::random(20_000, 4, 11);
    for rank in rank_engines() {
        for sort in [SortEngine::Packed, SortEngine::Permutation] {
            let mut baseline: Option<Stats> = None;
            for threads in thread_counts() {
                let stats = charges_with_threads(threads, || {
                    let ctx = Ctx::new(Mode::Parallel)
                        .with_rank_engine(rank)
                        .with_sort_engine(sort);
                    let q = coarsest_partition(&ctx, &inst, Algorithm::Parallel);
                    std::hint::black_box(q.num_blocks());
                    ctx.stats()
                });
                match &baseline {
                    None => baseline = Some(stats),
                    Some(b) => assert_eq!(
                        *b, stats,
                        "charges diverged at {threads} threads ({rank:?}, {sort:?})"
                    ),
                }
            }
        }
    }
}

/// The topology probe must be charge-invisible: the radix block plan, the
/// CSR regime choice and its write-combined counting pass, and the
/// wavefront lane count all read the probed topology, but none of it may
/// reach a charged quantity.  Pins the decomposition charges bit-identical
/// between the probed topology and mocked topologies at both extremes (a
/// 1-byte LLC shrinks the physical radix-counter and CSR budgets to their
/// floors; a 2^40-byte LLC lifts them past every cap), exercising the
/// model-vs-physical block-plan split.  This is the cross-check the
/// `charge-taint` lint's allowlist leans on.
#[test]
fn topology_probe_is_charge_invisible() {
    for n in [3_000, 60_000] {
        let g = sfcp_forest::generators::random_function(n, 41);
        let run = |ctx: Ctx| {
            let d = sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
            std::hint::black_box(d.num_cycles());
            ctx.stats()
        };
        let probed = run(Ctx::new(Mode::Parallel));
        for (label, topo) in [
            ("tiny-LLC", Topology::fallback().with_llc_bytes(1)),
            ("huge-LLC", Topology::fallback().with_llc_bytes(1 << 40)),
        ] {
            let mocked = run(Ctx::new(Mode::Parallel).with_topology(topo));
            assert_eq!(
                probed, mocked,
                "charges diverged on the {label} mock (n={n})"
            );
        }
    }
}

/// Tracing must be charge-invisible: the span guards read the tracker and
/// the clock but never feed them, so a traced decompose must charge
/// bit-identically to an untraced one — across the full `RankEngine` ×
/// `SortEngine` grid (the spans sit inside every engine pass, so each
/// engine's pass structure is exercised).  This is the contract that lets
/// `bench_json` harvest its per-row span summaries from the same tracked
/// pass that labels the charge columns.
#[test]
fn tracing_is_charge_invisible_across_engine_grid() {
    let g = sfcp_forest::generators::random_function(20_000, 17);
    for rank in rank_engines() {
        for sort in [SortEngine::Packed, SortEngine::Permutation] {
            let run = |traced: bool| {
                let mut ctx = Ctx::new(Mode::Parallel)
                    .with_rank_engine(rank)
                    .with_sort_engine(sort);
                if traced {
                    ctx = ctx.with_tracing();
                }
                let d = sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
                std::hint::black_box(d.num_cycles());
                (ctx.stats(), ctx.trace().snapshot().spans.len())
            };
            let (untraced, no_spans) = run(false);
            let (traced, spans) = run(true);
            assert_eq!(
                untraced, traced,
                "tracing changed charges ({rank:?}, {sort:?})"
            );
            assert_eq!(no_spans, 0, "untraced run must record nothing");
            assert!(spans > 0, "traced run must record the phase spans");
        }
    }
}

#[test]
fn decompose_charges_are_thread_count_independent() {
    let g = sfcp_forest::generators::random_function(50_000, 23);
    for method in [
        CycleMethod::Sequential,
        CycleMethod::Jump,
        CycleMethod::Euler,
    ] {
        for rank in rank_engines() {
            let mut baseline: Option<Stats> = None;
            for threads in thread_counts() {
                let stats = charges_with_threads(threads, || {
                    let ctx = Ctx::new(Mode::Parallel).with_rank_engine(rank);
                    let d = sfcp_forest::decompose(&ctx, &g, method);
                    std::hint::black_box(d.num_cycles());
                    ctx.stats()
                });
                match &baseline {
                    None => baseline = Some(stats),
                    Some(b) => assert_eq!(
                        *b, stats,
                        "decompose charges diverged at {threads} threads ({method:?}, {rank:?})"
                    ),
                }
            }
        }
    }
}

/// Sequential mode must also charge exactly like 1-thread parallel mode for
/// the decomposition pipeline (the loops are the same code path).
#[test]
fn decompose_sequential_mode_matches_parallel_charges() {
    let g = sfcp_forest::generators::random_function(30_000, 7);
    let seq = Ctx::sequential();
    let _ = sfcp_forest::decompose(&seq, &g, CycleMethod::Euler);
    let par = charges_with_threads(1, || {
        let ctx = Ctx::new(Mode::Parallel);
        let _ = sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
        ctx.stats()
    });
    // The blocked scan charges differ between modes by design (see scan.rs);
    // everything else is identical, so the two must stay within a tight
    // band and the parallel charges must be thread-count independent (the
    // strict equality across thread counts is asserted above).
    let ratio = seq.stats().work as f64 / par.work as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "sequential/parallel work diverged: {} vs {}",
        seq.stats().work,
        par.work
    );
}
