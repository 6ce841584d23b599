//! Charge-determinism regression: tracked work/depth must be bit-identical
//! across thread counts.
//!
//! DESIGN.md's "Charge discipline" demands that the complexity tables be a
//! property of the algorithm, never of the machine: the same run on 1, 2, or
//! all hardware threads must charge exactly the same work and depth (only
//! wall-clock may differ).  This guards the invariant before any NUMA/grain
//! tuning lands — a charge that accidentally depends on
//! `current_num_threads` (e.g. a per-thread block count leaking into a
//! charged loop) breaks this test immediately: the wavefront chunking of
//! the list ranking, the contraction walks, and the CSR / radix block plans
//! are all thread-count-sensitive *physically* and must stay
//! thread-count-invisible in charges.
//!
//! The pipeline pins at the end of this file hold the charges themselves to
//! exact `(work, rounds)` values on fixed seeded inputs, in both modes: any
//! change to a charged pass anywhere in the stack moves them.

use sfcp::{coarsest_partition, Algorithm, Instance};
use sfcp_forest::cycles::CycleMethod;
use sfcp_pram::{Ctx, Mode, Stats, Topology};

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
/// bit-identically to an untraced one, in both modes (the spans sit inside
/// every engine pass, so the whole pass structure is exercised).  This is
/// the contract that lets `bench_json` harvest its per-row span summaries
/// from the same tracked pass that labels the charge columns.
#[test]
fn tracing_is_charge_invisible_across_engine_grid() {
    let g = sfcp_forest::generators::random_function(20_000, 17);
    for mode in [Mode::Sequential, Mode::Parallel] {
        let run = |traced: bool| {
            let mut ctx = Ctx::new(mode);
            if traced {
                ctx = ctx.with_tracing();
            }
            let d = sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
            std::hint::black_box(d.num_cycles());
            (ctx.stats(), ctx.trace().snapshot().spans.len())
        };
        let (untraced, no_spans) = run(false);
        let (traced, spans) = run(true);
        assert_eq!(untraced, traced, "tracing changed charges ({mode:?})");
        assert_eq!(no_spans, 0, "untraced run must record nothing");
        assert!(spans > 0, "traced run must record the phase spans");
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
        let mut baseline: Option<Stats> = None;
        for threads in thread_counts() {
            let stats = charges_with_threads(threads, || {
                let ctx = Ctx::new(Mode::Parallel);
                let d = sfcp_forest::decompose(&ctx, &g, method);
                std::hint::black_box(d.num_cycles());
                ctx.stats()
            });
            match &baseline {
                None => baseline = Some(stats),
                Some(b) => assert_eq!(
                    *b, stats,
                    "decompose charges diverged at {threads} threads ({method:?})"
                ),
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

/// `(work, rounds)` of a tracked run of `f` on a fresh context in `mode`.
fn charged(mode: Mode, f: impl FnOnce(&Ctx)) -> (u64, u64) {
    let ctx = Ctx::new(mode);
    f(&ctx);
    (ctx.stats().work, ctx.stats().rounds)
}

/// `decompose` charges, pinned per `CycleMethod` on four graphs (the paper
/// example, a small and a contraction-sized random function, and a long
/// tail), in both modes.  Every method yields the identical
/// `Decomposition`.
#[test]
fn decompose_charges_are_pinned_per_cycle_method() {
    let graphs = [
        sfcp_forest::generators::paper_example_function(),
        sfcp_forest::generators::random_function(5000, 3),
        sfcp_forest::generators::random_function(40_000, 17), // contraction path
        sfcp_forest::generators::long_tail(3000, 5, 2),
    ];
    // Per graph: [Sequential, Jump, Euler] × (sequential pin, parallel pin).
    type ModePins = ((u64, u64), (u64, u64));
    let pins: [[ModePins; 3]; 4] = [
        [
            ((1_460, 61), (1_460, 61)),
            ((1_508, 64), (1_508, 64)),
            ((2_036, 79), (2_036, 79)),
        ],
        [
            ((264_438, 98), (289_648, 101)),
            ((324_438, 110), (349_648, 113)),
            ((624_438, 134), (649_648, 137)),
        ],
        [
            ((2_132_978, 116), (2_333_406, 119)),
            ((2_732_978, 131), (2_933_406, 134)),
            ((5_492_978, 158), (5_693_406, 161)),
        ],
        [
            ((146_132, 80), (158_149, 82)),
            ((179_132, 91), (191_149, 93)),
            ((350_132, 114), (362_149, 116)),
        ],
    ];
    for (g, pins) in graphs.iter().zip(pins) {
        let reference = sfcp_forest::decompose(&Ctx::sequential(), g, CycleMethod::Sequential);
        let methods = [
            CycleMethod::Sequential,
            CycleMethod::Jump,
            CycleMethod::Euler,
        ];
        for (method, (seq, par)) in methods.into_iter().zip(pins) {
            for (mode, pin) in [(Mode::Sequential, seq), (Mode::Parallel, par)] {
                let got = charged(mode, |ctx| {
                    let d = sfcp_forest::decompose(ctx, g, method);
                    assert_eq!(d, reference, "n={}, {method:?}, {mode:?}", g.len());
                });
                assert_eq!(got, pin, "n={}, {method:?}, {mode:?}", g.len());
            }
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

/// Runs the paper's algorithm on `inst` in both modes: the partition must be
/// Hopcroft's, with `blocks` blocks, and the charges must equal the
/// `(sequential, parallel)` pins.
fn assert_parallel_pinned(inst: &Instance, blocks: usize, (seq, par): ((u64, u64), (u64, u64))) {
    let reference = coarsest_partition(&Ctx::sequential(), inst, Algorithm::Hopcroft);
    assert_eq!(reference.num_blocks(), blocks, "n={}", inst.len());
    for (mode, pin) in [(Mode::Sequential, seq), (Mode::Parallel, par)] {
        let got = charged(mode, |ctx| {
            let q = coarsest_partition(ctx, inst, Algorithm::Parallel);
            assert!(q.same_partition(&reference), "n={}, {mode:?}", inst.len());
        });
        assert_eq!(got, pin, "n={}, {mode:?}", inst.len());
    }
}

/// The paper's algorithm end to end on the small instances: pinned charges
/// per instance in both modes, and the same partition in both.
#[test]
fn coarsest_parallel_charges_are_pinned() {
    // (sequential pin, parallel pin) per instance.
    let pins = [
        ((2_322, 102), (2_322, 102)),
        ((784_042, 349), (808_100, 353)),
        ((10_078, 150), (10_078, 150)),
        ((42_190, 132), (42_190, 132)),
        ((427_453, 237), (427_453, 237)),
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
    assert_parallel_pinned(&inst, blocks, ((6_036_271, 476), (6_520_455, 495)));
}

/// The label-doubling baseline end to end: pinned charges per instance in
/// both modes, and the same partition as Hopcroft's.
#[test]
fn coarsest_doubling_charges_are_pinned() {
    // (sequential pin, parallel pin) per instance.
    let pins = [
        ((502, 32), (502, 32)),
        ((200_358, 83), (200_358, 83)),
        ((4_167, 74), (4_167, 74)),
        ((9_552, 44), (9_552, 44)),
        ((159_028, 89), (159_028, 89)),
        ((1_326_966, 101), (1_454_022, 107)),
    ];
    let instances = pinned_instances()
        .into_iter()
        .chain([large_pinned_instance()]);
    for ((inst, _), (seq, par)) in instances.zip(pins) {
        let reference = coarsest_partition(&Ctx::sequential(), &inst, Algorithm::Hopcroft);
        for (mode, pin) in [(Mode::Sequential, seq), (Mode::Parallel, par)] {
            let got = charged(mode, |ctx| {
                let q = coarsest_partition(ctx, &inst, Algorithm::Doubling);
                assert!(q.same_partition(&reference), "n={}, {mode:?}", inst.len());
            });
            assert_eq!(got, pin, "n={}, {mode:?}", inst.len());
        }
    }
}
