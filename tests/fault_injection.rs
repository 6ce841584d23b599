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
//! The fault layer is process-global, so every test here serializes on one
//! lock; this suite lives in its own test binary so it never shares a
//! process with unrelated parallel tests.

use sfcp_repro::sfcp::{try_coarsest_partition, Algorithm, DecomposeError, Instance};
use sfcp_repro::sfcp_forest::cycles::CycleMethod;
use sfcp_repro::sfcp_forest::{decompose, generators, try_decompose};
use sfcp_repro::sfcp_pram::faults::{self, FaultKind, FaultSite};
use sfcp_repro::sfcp_pram::{Ctx, Error};

static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Serialize on the process-global fault layer, tolerating a poisoned lock
/// (an earlier failed test must not cascade).
fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Injected faults unwind on purpose, thousands of times per sweep; silence
/// the default "thread panicked" spew for the duration of a closure.
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(prev);
    result
}

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
    let _g = lock();
    faults::reset();
    let n = sweep_size();
    let g = generators::random_function(n, 0xfa017);

    with_quiet_panics(|| {
        let ctx = Ctx::parallel();

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
        faults::start_counting();
        let _ = decompose(&ctx, &g, CycleMethod::Euler);
        let (checkouts, passes) = faults::counts();
        faults::reset();
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
            faults::arm(site, k, kind);
            let err = try_decompose(&ctx, &g, CycleMethod::Euler)
                .expect_err("an armed fault must fail the run");
            faults::reset();
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
    });
    faults::reset();
}

#[test]
fn injected_faults_surface_through_the_solver_facade() {
    let _g = lock();
    faults::reset();
    let instance = Instance::random(5_000, 3, 11);
    let ctx = Ctx::parallel();
    let baseline = try_coarsest_partition(&ctx, &instance, Algorithm::Parallel).unwrap();

    let err = with_quiet_panics(|| {
        faults::arm(FaultSite::Checkout, 0, FaultKind::AllocFail);
        let err = try_coarsest_partition(&ctx, &instance, Algorithm::Parallel)
            .expect_err("an armed fault must fail the solve");
        faults::reset();
        err
    });
    assert!(
        matches!(err, DecomposeError::Execution(Error::Injected(_))),
        "got {err}"
    );
    assert!(err.is_retryable());
    assert_eq!(ctx.workspace().stats().outstanding(), 0);

    // Retrying the identical call on the recovered context succeeds.
    let retried = try_coarsest_partition(&ctx, &instance, Algorithm::Parallel).unwrap();
    assert!(retried.same_partition(&baseline));
    faults::reset();
}

/// Recovery must leave the trace recorder coherent (DESIGN.md §12): a span
/// held open across `Ctx::recover` is orphaned — its baseline counters
/// predate the tracker/workspace reset, so closing it normally would record
/// garbage deltas.  `recover` (and `reset_stats`) invalidate the open
/// stack, the orphaned guard discards at drop, and a post-recovery traced
/// run records a fresh tree whose root charge matches the tracker exactly.
#[test]
fn recovery_discards_orphaned_spans() {
    let _g = lock();
    faults::reset();
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
    let err = with_quiet_panics(|| {
        faults::arm(FaultSite::EnginePass, 3, FaultKind::Panic);
        let err = try_decompose(&ctx, &g, CycleMethod::Euler)
            .expect_err("an armed fault must fail the run");
        faults::reset();
        err
    });
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
    faults::reset();
}

#[test]
fn disabled_layer_never_perturbs_results_or_charges() {
    let _g = lock();
    faults::reset();
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
    faults::start_counting();
    let b = decompose(&counted, &g, CycleMethod::Euler);
    faults::reset();
    assert_eq!(a, b);
    assert_eq!(quiet_stats, counted.stats());
}

/// The service-path sweep: a fault armed at **every** checkout/engine-pass
/// site of a batched request must surface over the wire as a typed
/// retryable error on every cohort member, leave the serving worker's
/// workspace reconciled (`outstanding == 0`, observed via a probe on the
/// same warm context), and the next identical request must reproduce the
/// baseline answer and charges bit-identically.
#[test]
fn service_path_sweep_recovers_warm_workers() {
    use sfcp_repro::sfcp_service::{
        Client, ComputeRequest, ErrorCode, ReplyPayload, Server, ServerConfig,
    };

    let _g = lock();
    faults::reset();
    let server = Server::start(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let member_n = if cfg!(debug_assertions) { 400 } else { 4_000 };
    let members: Vec<Instance> = (0..5)
        .map(|j| Instance::random(member_n + j * 37, 2 + j % 3, 0xfa + j as u64))
        .collect();
    let reqs: Vec<ComputeRequest> = members
        .iter()
        .map(|m| ComputeRequest::partition(m.f().to_vec(), m.blocks().to_vec()).no_cache())
        .collect();

    let run_batch = |client: &mut Client| client.batch(&reqs).expect("transport");

    // Warm the worker, then record the baseline cohort (answers + charges).
    let _ = run_batch(&mut client);
    let baseline: Vec<_> = run_batch(&mut client)
        .into_iter()
        .map(|r| r.outcome.expect("baseline member"))
        .collect();

    // Count the injection points of one warm batched serve.  Only the
    // serving worker runs engine code while we wait on the response, so the
    // window sees exactly that run.
    faults::start_counting();
    let _ = run_batch(&mut client);
    let (checkouts, passes) = faults::counts();
    faults::reset();
    assert!(
        checkouts > 0 && passes > 0,
        "hooks must see the fused serve"
    );

    with_quiet_panics(|| {
        let points = (0..checkouts)
            .map(|k| (FaultSite::Checkout, k))
            .chain((0..passes).map(|k| (FaultSite::EnginePass, k)));
        for (site, k) in points {
            let kind = if k % 2 == 0 {
                FaultKind::Panic
            } else {
                FaultKind::AllocFail
            };
            faults::arm(site, k, kind);
            let responses = run_batch(&mut client);
            faults::reset();

            // Every cohort member fails typed and retryable.
            for response in &responses {
                let err = response
                    .outcome
                    .as_ref()
                    .expect_err("an armed fault must fail the cohort");
                assert_eq!(err.code, ErrorCode::Execution, "{site:?} #{k}: {err}");
                assert!(err.retryable, "{site:?} #{k} must be retryable");
            }

            // The worker recovered: no outstanding checkouts.
            let probe = client.probe().expect("transport").expect("probe");
            let ReplyPayload::Probe { outstanding, .. } = probe.payload else {
                panic!("probe payload expected");
            };
            assert_eq!(outstanding, 0, "{site:?} #{k} leaked a checkout");

            // The same warm worker reproduces the baseline bit-identically.
            let rerun = run_batch(&mut client);
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
    });
    faults::reset();
    server.shutdown();
}
