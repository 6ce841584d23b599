//! The deterministic fault-injection sweep (DESIGN.md, "Failure model and
//! recovery").
//!
//! Warm a context, count the injection points of one decompose (workspace
//! checkouts and engine passes), then arm a
//! fault at **every** point in turn: each injection must surface as
//! `Error::Injected` through the `try_` surface, leave the workspace fully
//! reconciled (no outstanding checkouts, stable pooled bytes), and a re-run
//! on the recovered context must reproduce the baseline result and charges
//! bit-identically.
//!
//! Each test arms only its own context's injector
//! (`ctx.workspace().faults()`), so the tests need no lock and run
//! concurrently with each other.

use sfcp_repro::sfcp::{try_coarsest_partition, Algorithm, DecomposeError, Instance};
use sfcp_repro::sfcp_forest::cycles::CycleMethod;
use sfcp_repro::sfcp_forest::{decompose, generators, try_decompose};
use sfcp_repro::sfcp_pram::faults::{FaultKind, FaultSite, InjectedFault};
use sfcp_repro::sfcp_pram::{Ctx, Error};

fn sweep_size() -> usize {
    // Tier-1 `cargo test -q` runs this binary unoptimized; the release sweep
    // in CI runs the issue-spec size.
    if cfg!(debug_assertions) {
        20_000
    } else {
        100_000
    }
}

#[test]
fn sweep_every_injection_point_across_the_engine_grid() {
    let n = sweep_size();
    let g = generators::random_function(n, 0xfa017);
    let ctx = Ctx::parallel();
    let faults = ctx.workspace().faults();

    // Warm the pools so the baseline run is allocation-free and the
    // pooled-byte level is at its fixpoint.
    for _ in 0..3 {
        let _ = decompose(&ctx, &g, CycleMethod::Euler);
    }

    ctx.reset_stats();
    let baseline = decompose(&ctx, &g, CycleMethod::Euler);
    let baseline_stats = ctx.stats();
    let baseline_pooled = ctx.workspace().pooled_bytes();
    assert_eq!(ctx.workspace().stats().outstanding(), 0);

    // Learn how many injection points one warm run has.
    faults.start_counting();
    let _ = decompose(&ctx, &g, CycleMethod::Euler);
    let (checkouts, passes) = faults.counts();
    assert!(
        checkouts > 0 && passes > 0,
        "the hooks must see a warm decompose"
    );

    let points = (0..checkouts)
        .map(|k| (FaultSite::Checkout, k))
        .chain((0..passes).map(|k| (FaultSite::EnginePass, k)));
    for (site, k) in points {
        // Exercise both simulated failure kinds across the sweep; they
        // share the unwind-recovery path.
        let kind = if k % 2 == 0 {
            FaultKind::Panic
        } else {
            FaultKind::AllocFail
        };
        faults.arm(site, k, kind);
        let err = try_decompose(&ctx, &g, CycleMethod::Euler)
            .expect_err("an armed fault must fail the run");
        match err {
            Error::Injected(fault) => {
                assert_eq!(fault.site, site);
                assert_eq!(fault.index, k);
                assert_eq!(fault.kind, kind);
            }
            other => {
                panic!("expected the injected fault at {site:?} #{k}, got {other}")
            }
        }

        // Recovery (already run by try_decompose): pools reconciled and
        // at their warm byte level.
        let ws = ctx.workspace().stats();
        assert_eq!(ws.outstanding(), 0, "{site:?} #{k} leaked");
        assert_eq!(
            ctx.workspace().pooled_bytes(),
            baseline_pooled,
            "{site:?} #{k} changed the pooled-byte level"
        );

        // The recovered context must reproduce the baseline
        // bit-identically: same result, same charges.
        ctx.reset_stats();
        let rerun = decompose(&ctx, &g, CycleMethod::Euler);
        assert_eq!(
            ctx.stats(),
            baseline_stats,
            "post-recovery charges diverged after {site:?} #{k}"
        );
        assert_eq!(
            rerun, baseline,
            "post-recovery result diverged after {site:?} #{k}"
        );
    }
}

/// Fault state belongs to one context: a fault armed on context A fails
/// A's run while context B runs the same workload on another thread at the
/// same time and reproduces its baseline answer and charges.
#[test]
fn armed_fault_fails_only_its_own_context() {
    let g = generators::random_function(10_000, 0x150);
    let (a, b) = (Ctx::parallel(), Ctx::parallel());
    for ctx in [&a, &b] {
        let _ = decompose(ctx, &g, CycleMethod::Euler);
    }
    b.reset_stats();
    let baseline = try_decompose(&b, &g, CycleMethod::Euler).expect("baseline");
    let baseline_stats = b.stats();

    a.workspace()
        .faults()
        .arm(FaultSite::EnginePass, 0, FaultKind::Panic);
    b.reset_stats();
    let start = std::sync::Barrier::new(2);
    let run = |ctx: &Ctx| {
        start.wait();
        try_decompose(ctx, &g, CycleMethod::Euler)
    };
    let (on_a, on_b) = std::thread::scope(|s| {
        let on_a = s.spawn(|| run(&a));
        let on_b = s.spawn(|| run(&b));
        (on_a.join().unwrap(), on_b.join().unwrap())
    });
    assert!(
        matches!(
            on_a,
            Err(Error::Injected(InjectedFault {
                site: FaultSite::EnginePass,
                index: 0,
                ..
            }))
        ),
        "the armed context must fail at its first pass: {on_a:?}"
    );
    assert_eq!(on_b.expect("the unarmed context must succeed"), baseline);
    assert_eq!(b.stats(), baseline_stats);
}

#[test]
fn injected_faults_surface_through_the_solver_facade() {
    let instance = Instance::random(5_000, 3, 11);
    let ctx = Ctx::parallel();
    let baseline = try_coarsest_partition(&ctx, &instance, Algorithm::Parallel).unwrap();

    ctx.workspace()
        .faults()
        .arm(FaultSite::Checkout, 0, FaultKind::AllocFail);
    let err = try_coarsest_partition(&ctx, &instance, Algorithm::Parallel)
        .expect_err("an armed fault must fail the solve");
    assert!(
        matches!(err, DecomposeError::Execution(Error::Injected(_))),
        "got {err}"
    );
    assert!(err.is_retryable());
    assert_eq!(ctx.workspace().stats().outstanding(), 0);

    // Retrying the identical call on the recovered context succeeds.
    let retried = try_coarsest_partition(&ctx, &instance, Algorithm::Parallel).unwrap();
    assert!(retried.same_partition(&baseline));
}

/// Recovery must leave the trace recorder coherent (DESIGN.md §12): a span
/// held open across `Ctx::recover` is orphaned — its baseline counters
/// predate the tracker/workspace reset, so closing it normally would record
/// garbage deltas.  `recover` (and `reset_stats`) invalidate the open
/// stack, the orphaned guard discards at drop, and a post-recovery traced
/// run records a fresh tree whose root charge matches the tracker exactly.
#[test]
fn recovery_discards_orphaned_spans() {
    let g = generators::random_function(10_000, 5);
    let ctx = Ctx::parallel().with_tracing();
    let _ = decompose(&ctx, &g, CycleMethod::Euler);

    // Direct orphan: recover while a span is open.
    ctx.trace().clear();
    {
        let _orphan = ctx.span("orphan");
        ctx.recover();
    }
    let snap = ctx.trace().snapshot();
    assert!(
        snap.spans_named("orphan").is_empty(),
        "an orphaned span must be discarded, not recorded: {snap:?}"
    );
    assert_eq!(snap.open_discarded, 1);

    // Injected mid-pipeline fault: the unwind closes the in-flight guards
    // (they measured real pre-fault execution) and `try_decompose`'s
    // recovery invalidates whatever the unwind left open.  The next traced
    // run must then record a coherent tree — exactly one root whose charge
    // delta equals the tracker's run total (an un-discarded stale parent
    // would nest the new tree and skew every delta).
    ctx.workspace()
        .faults()
        .arm(FaultSite::EnginePass, 3, FaultKind::Panic);
    let err =
        try_decompose(&ctx, &g, CycleMethod::Euler).expect_err("an armed fault must fail the run");
    assert!(matches!(err, Error::Injected(_)), "got {err}");
    ctx.trace().clear();
    ctx.reset_stats();
    let d = decompose(&ctx, &g, CycleMethod::Euler);
    std::hint::black_box(d.num_cycles());
    let snap = ctx.trace().snapshot();
    let roots = snap.spans_named("decompose");
    assert_eq!(roots.len(), 1, "one pipeline root: {snap:?}");
    assert_eq!(roots[0].parent, None, "recovery left a stale open span");
    assert_eq!(roots[0].depth, 0);
    assert_eq!(
        roots[0].charge,
        ctx.stats(),
        "the root span's charge delta must equal the tracker's run total"
    );
    assert_eq!(snap.open_discarded, 0);
}

#[test]
fn disabled_layer_never_perturbs_results_or_charges() {
    let g = generators::random_function(10_000, 3);
    let quiet = Ctx::parallel();
    let _ = decompose(&quiet, &g, CycleMethod::Euler);
    quiet.reset_stats();
    let a = decompose(&quiet, &g, CycleMethod::Euler);
    let quiet_stats = quiet.stats();

    // A counting (but never firing) layer sees the same run.
    let counted = Ctx::parallel();
    let _ = decompose(&counted, &g, CycleMethod::Euler);
    counted.reset_stats();
    counted.workspace().faults().start_counting();
    let b = decompose(&counted, &g, CycleMethod::Euler);
    assert_eq!(a, b);
    assert_eq!(quiet_stats, counted.stats());
}

/// The service-path sweep: a fault armed at **every** checkout/engine-pass
/// site of a batched request must fail exactly the member whose serve holds
/// that event, with a typed retryable error, while every other member of the
/// batch answers as in the baseline.  The serving worker's workspace stays
/// reconciled (`outstanding == 0`, observed via a probe on the same warm
/// context), and the next identical batch reproduces the baseline answers
/// and charges bit-identically.  The test drives a `Worker` directly and arms
/// that worker's own context; `proto`'s unit tests cover the wire encoding
/// of the replies.
#[test]
fn service_path_sweep_recovers_warm_workers() {
    use sfcp_repro::sfcp_service::{ComputeRequest, ErrorCode, ReplyPayload, Worker};

    let mut worker = Worker::new(0, 1 << 20, false);
    let member_n = if cfg!(debug_assertions) { 400 } else { 4_000 };
    let subs: Vec<(u64, ComputeRequest)> = (0..5)
        .map(|j| {
            let m = Instance::random(member_n + j * 37, 2 + j % 3, 0xfa + j as u64);
            let req = ComputeRequest::partition(m.f().to_vec(), m.blocks().to_vec()).no_cache();
            (j as u64, req)
        })
        .collect();
    let run_batch = |worker: &mut Worker| worker.serve_batch(0, &subs).responses;

    // Warm the worker, then record the baseline batch (answers + charges).
    let _ = run_batch(&mut worker);
    let baseline: Vec<_> = run_batch(&mut worker)
        .into_iter()
        .map(|r| r.outcome.expect("baseline member"))
        .collect();

    // Count the injection points of each member's warm serve.  A batch
    // serves its members in order, so the k-th event of a batched serve
    // belongs to the first member whose running total exceeds k.
    let per_member: Vec<(u64, u64)> = subs
        .iter()
        .map(|(id, req)| {
            worker.ctx().workspace().faults().start_counting();
            let _ = worker.serve(*id, req);
            worker.ctx().workspace().faults().counts()
        })
        .collect();
    assert!(
        per_member.iter().all(|&(c, p)| c > 0 && p > 0),
        "hooks must see every member's serve: {per_member:?}"
    );
    let owner = |site: FaultSite, k: u64| {
        let mut end = 0;
        per_member
            .iter()
            .position(|&(c, p)| {
                end += if site == FaultSite::Checkout { c } else { p };
                k < end
            })
            .expect("the event lies inside the batch")
    };
    let checkouts: u64 = per_member.iter().map(|&(c, _)| c).sum();
    let passes: u64 = per_member.iter().map(|&(_, p)| p).sum();

    let points = (0..checkouts)
        .map(|k| (FaultSite::Checkout, k))
        .chain((0..passes).map(|k| (FaultSite::EnginePass, k)));
    for (site, k) in points {
        let kind = if k % 2 == 0 {
            FaultKind::Panic
        } else {
            FaultKind::AllocFail
        };
        let hit = owner(site, k);
        worker.ctx().workspace().faults().arm(site, k, kind);
        let responses = run_batch(&mut worker);

        // The member holding the event fails typed and retryable; the
        // others answer as in the baseline.
        for (j, (response, base)) in responses.iter().zip(&baseline).enumerate() {
            if j == hit {
                let err = response
                    .outcome
                    .as_ref()
                    .expect_err("an armed fault must fail its member");
                assert_eq!(err.code, ErrorCode::Execution, "{site:?} #{k}: {err}");
                assert!(err.retryable, "{site:?} #{k} must be retryable");
                assert_eq!(err.id, subs[j].0, "{site:?} #{k}: error id");
            } else {
                let reply = response
                    .outcome
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{site:?} #{k} failed member {j}: {e}"));
                assert_eq!(reply.payload, base.payload, "{site:?} #{k} member {j}");
                assert_eq!(
                    (reply.work, reply.rounds),
                    (base.work, base.rounds),
                    "{site:?} #{k} member {j} charges"
                );
            }
        }

        // The worker recovered: no outstanding checkouts.
        let probe = worker.handle_probe().expect("probe");
        let ReplyPayload::Probe { outstanding, .. } = probe.payload else {
            panic!("probe payload expected");
        };
        assert_eq!(outstanding, 0, "{site:?} #{k} leaked a checkout");

        // The same warm worker reproduces the baseline bit-identically.
        let rerun = run_batch(&mut worker);
        for (base, got) in baseline.iter().zip(&rerun) {
            let reply = got.outcome.as_ref().expect("post-recovery member");
            assert_eq!(
                reply.payload, base.payload,
                "{site:?} #{k} changed an answer"
            );
            assert_eq!(
                (reply.work, reply.rounds),
                (base.work, base.rounds),
                "{site:?} #{k} changed the charges"
            );
        }
    }
}
