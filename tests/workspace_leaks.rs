//! Workspace leak regression: every pool checkout must be returned.
//!
//! The decomposition pipeline checks dozens of scratch buffers out of the
//! `Ctx` workspace per run.  A leaked guard (e.g. a `Scratch` moved into a
//! struct that outlives the run, or a forgotten ping-pong partner) would make
//! the pools grow without bound across runs.  Two invariants:
//!
//! * after any run returns, no checkout is outstanding
//!   (`stats().outstanding() == 0`);
//! * once warm, repeated identical runs leave the pool population exactly
//!   stable (same number of pooled buffers before and after), and the
//!   `O(log n)`-round algorithms allocate O(1) buffers per *run*, not per
//!   round.

use sfcp::{coarsest_partition, Algorithm, Instance};
use sfcp_forest::cycles::CycleMethod;
use sfcp_parprim::euler::RootedForest;
use sfcp_pram::Ctx;

/// `RootedForest::from_parents` used to allocate its `counts` and `children`
/// arrays fresh on every call.  With the CSR builder underneath, every
/// intermediate is a pool checkout: warm calls miss nothing, return
/// everything, and leave both the pool population and the pooled *bytes*
/// (which capture growth-after-checkout, e.g. the checked constructor's
/// walk stack) exactly stable.
#[test]
fn from_parents_returns_every_checkout() {
    let n = 50_000;
    let mut parent: Vec<u32> = (0..n as u32).collect();
    for (i, p) in parent.iter_mut().enumerate().skip(1) {
        *p = (i / 3) as u32;
    }
    let ctx = Ctx::parallel();
    // Warm up both constructors (the checked walk uses extra pool buffers).
    let a = RootedForest::from_parents(&ctx, parent.clone());
    let b = RootedForest::from_parents_checked(&ctx, parent.clone()).unwrap();
    assert_eq!(a, b);
    assert_eq!(ctx.workspace().stats().outstanding(), 0);

    let warm_pool = ctx.workspace().pooled_buffers();
    let warm_bytes = ctx.workspace().pooled_bytes();
    let warm_misses = ctx.workspace().stats().misses;
    for round in 0..3 {
        let fast = RootedForest::from_parents(&ctx, parent.clone());
        let checked = RootedForest::from_parents_checked(&ctx, parent.clone()).unwrap();
        std::hint::black_box((fast.len(), checked.len()));
        assert_eq!(
            ctx.workspace().stats().outstanding(),
            0,
            "outstanding checkouts after from_parents (round {round})"
        );
        assert_eq!(
            ctx.workspace().pooled_buffers(),
            warm_pool,
            "pool population drifted on warm from_parents run {round}"
        );
        assert_eq!(
            ctx.workspace().pooled_bytes(),
            warm_bytes,
            "pooled bytes drifted on warm from_parents run {round}"
        );
    }
    assert_eq!(
        ctx.workspace().stats().misses,
        warm_misses,
        "warm from_parents runs must serve every checkout from the pools"
    );
}

#[test]
fn decompose_returns_every_checkout() {
    let g = sfcp_forest::generators::random_function(30_000, 41);
    let ctx = Ctx::parallel();
    for method in [CycleMethod::Sequential, CycleMethod::Euler] {
        let d = sfcp_forest::decompose(&ctx, &g, method);
        std::hint::black_box(d.num_cycles());
        assert_eq!(
            ctx.workspace().stats().outstanding(),
            0,
            "outstanding checkouts after decompose ({method:?})"
        );
    }

    // The two-method warm-up leaves the pools populated, but the first
    // Euler-only runs may still pair requests with smaller pooled buffers
    // and grow them in place (pooled bytes are monotone and bounded, so a
    // couple of identical runs reach the fixed point).
    for _ in 0..2 {
        let d = sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
        std::hint::black_box(d.num_cycles());
    }
    // Converged: the pool population (and its byte volume, which includes
    // any growth-after-checkout) must now be exactly stable across repeated
    // runs, and warm runs must not allocate.
    let warm_pool = ctx.workspace().pooled_buffers();
    let warm_bytes = ctx.workspace().pooled_bytes();
    let warm_stats = ctx.workspace().stats();
    for round in 0..3 {
        let d = sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
        std::hint::black_box(d.num_cycles());
        assert_eq!(ctx.workspace().stats().outstanding(), 0);
        assert_eq!(
            ctx.workspace().pooled_buffers(),
            warm_pool,
            "pool population drifted on warm run {round}"
        );
        assert_eq!(
            ctx.workspace().pooled_bytes(),
            warm_bytes,
            "pooled bytes drifted on warm run {round}"
        );
    }
    assert_eq!(
        ctx.workspace().stats().misses,
        warm_stats.misses,
        "warm decompose runs must serve every checkout from the pools"
    );
}

/// The fused Euler ranking path — `decompose` assembling one `2n`-word
/// successor buffer and ranking it with a single list-ranking invocation —
/// must return every checkout, and once warm leave both the pool
/// population and the pooled bytes (which capture growth-after-checkout of
/// the fused buffers) exactly stable.
#[test]
fn fused_euler_ranking_returns_every_checkout() {
    let g = sfcp_forest::generators::random_function(30_000, 43);
    let ctx = Ctx::parallel();
    // Warm to the pool fixed point (early runs may grow smaller pooled
    // buffers in place).
    for _ in 0..3 {
        let d = sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
        std::hint::black_box(d.num_cycles());
        assert_eq!(
            ctx.workspace().stats().outstanding(),
            0,
            "outstanding checkouts after fused decompose"
        );
    }
    let warm_pool = ctx.workspace().pooled_buffers();
    let warm_bytes = ctx.workspace().pooled_bytes();
    let warm_misses = ctx.workspace().stats().misses;
    for round in 0..3 {
        let d = sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
        std::hint::black_box(d.num_cycles());
        assert_eq!(ctx.workspace().stats().outstanding(), 0);
        assert_eq!(
            ctx.workspace().pooled_buffers(),
            warm_pool,
            "pool population drifted on warm fused run {round}"
        );
        assert_eq!(
            ctx.workspace().pooled_bytes(),
            warm_bytes,
            "pooled bytes drifted on warm fused run {round}"
        );
    }
    assert_eq!(
        ctx.workspace().stats().misses,
        warm_misses,
        "warm fused runs must serve every checkout from the pools"
    );
}

/// After one warm-up run, repeated runs of the doubling loop (O(log n)
/// dense-rank rounds each) serve every scratch checkout from the workspace
/// pool — zero fresh allocations per run.
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

#[test]
fn coarsest_parallel_returns_every_checkout() {
    let inst = Instance::random(30_000, 4, 19);
    let ctx = Ctx::parallel();
    let _ = coarsest_partition(&ctx, &inst, Algorithm::Parallel); // warm up
    assert_eq!(ctx.workspace().stats().outstanding(), 0);

    let warm_pool = ctx.workspace().pooled_buffers();
    let warm_misses = ctx.workspace().stats().misses;
    for _ in 0..3 {
        let q = coarsest_partition(&ctx, &inst, Algorithm::Parallel);
        std::hint::black_box(q.num_blocks());
        assert_eq!(
            ctx.workspace().stats().outstanding(),
            0,
            "outstanding checkouts after coarsest_parallel"
        );
        assert_eq!(
            ctx.workspace().pooled_buffers(),
            warm_pool,
            "pool population must be stable across warm runs"
        );
    }
    assert_eq!(ctx.workspace().stats().misses, warm_misses);
}

/// Post-panic recovery (DESIGN.md, "Failure model and recovery"): a panic
/// mid-pipeline unwinds through the `Scratch` guards (returning every
/// checkout), `Ctx::recover` re-reconciles the counters and byte accounting,
/// and warm runs on the recovered context are exactly as stable as they were
/// before the failure.
#[test]
fn recovered_context_is_warm_and_stable_after_a_panic() {
    let g = sfcp_forest::generators::random_function(30_000, 53);
    let ctx = Ctx::parallel();
    for _ in 0..3 {
        let d = sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
        std::hint::black_box(d.num_cycles());
    }
    ctx.reset_stats();
    let baseline = sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
    let baseline_stats = ctx.stats();
    let warm_pool = ctx.workspace().pooled_buffers();
    let warm_bytes = ctx.workspace().pooled_bytes();
    let epoch_before = ctx.workspace().epoch();

    // Panic while scratch buffers are checked out; the unwind must return
    // them all.
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let ws = ctx.workspace();
        let _a = ws.take_u32(4096);
        let _b = ws.take_u64(4096);
        panic!("mid-run failure with live checkouts");
    }))
    .unwrap_err();
    assert_eq!(
        payload.downcast_ref::<&'static str>(),
        Some(&"mid-run failure with live checkouts")
    );
    assert_eq!(
        ctx.workspace().stats().outstanding(),
        0,
        "guards must return their buffers during the unwind"
    );

    ctx.recover();
    assert_eq!(ctx.workspace().epoch(), epoch_before + 1);
    assert_eq!(ctx.workspace().stats().outstanding(), 0);
    assert_eq!(ctx.workspace().pooled_buffers(), warm_pool);
    assert_eq!(ctx.workspace().pooled_bytes(), warm_bytes);

    // The recovered context reproduces the warm baseline bit-identically.
    let rerun = sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
    assert_eq!(ctx.stats(), baseline_stats);
    assert_eq!(rerun, baseline);
    assert_eq!(ctx.workspace().stats().outstanding(), 0);
    assert_eq!(ctx.workspace().pooled_buffers(), warm_pool);
    assert_eq!(ctx.workspace().pooled_bytes(), warm_bytes);
}
