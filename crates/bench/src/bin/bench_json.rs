//! Machine-readable perf trajectory of the parallel primitives, the
//! decomposition pipeline and the serving layer: times each routine
//! best-of-k on fixed seeded inputs and writes `BENCH_parprim.json`.
//!
//! Benchmarked routines, at n ∈ {1e5, 1e6}:
//!
//! * `dense_ranks_by_sort` — the doubling loops' hot primitive,
//! * `radix_sort_pairs`   — the pair-contraction sort,
//! * `csr_build`          — the parallel CSR builder on the buddy-edge
//!   incidence stream,
//! * `list_rank`          — the ruling-set list ranking on a multi-list
//!   successor array,
//! * `euler_build`        — the Euler-tour construction over a random
//!   forest (tour successors + 2n-arc ranking + positions),
//! * `decompose`          — the decomposition pipeline (cold pools: fresh
//!   context per repetition),
//! * `decompose_warm`     — the roots-threaded decomposition on warm
//!   workspace pools (one persistent context) — the number the ROADMAP's
//!   decompose trajectory quotes,
//! * `decompose_checked`  — the validated `try_decompose` path (size
//!   envelope check + `catch_unwind`) on the same warm pools; a gate
//!   asserts it stays within noise of `decompose_warm`,
//! * `coarsest_parallel`  — the end-to-end parallel algorithm.
//!
//! The **service tier** measures the `sfcp-service` front-end end to end
//! over loopback TCP (in-process server, blocking client):
//!
//! * `service_warm` / `service_cold` — per-request p50/p99 latency and
//!   throughput of decompose workload requests against a warm persistent
//!   worker vs the cold rebuild-per-request baseline, at the same sizes as
//!   the library rows.  An in-run gate asserts the warm p50 beats cold by
//!   at least the workspace pool warm-up margin (the number the serving
//!   layer exists to bank).
//! * `service_batch` — fixed work (128 partition requests at n = 2048)
//!   pushed through explicit batch frames of 1, 8 and 64 members;
//!   `p50_ms`/`p99_ms` are per-*frame* round trips and `rps` is requests
//!   per second, so the rows chart the latency-vs-throughput trade the
//!   batching policy buys.  An in-run gate asserts the largest batch
//!   out-throughputs the unbatched drain.
//!
//! Service rows carry `"batch"`, `"p50_ms"`, `"p99_ms"` and `"rps"`
//! columns instead of `"ms"` (they measure the serving path), and their
//! `"trace"` is the span summary of one traced request's serving run,
//! reported by the server itself over the wire.
//!
//! Each library row records the best-of-k wall-clock (`"ms"`) plus the
//! tracked work/depth of the routine.
//!
//! Run with: `cargo run -p sfcp-bench --bin bench_json --release [out.json]`
//!
//! Every row also embeds a `"trace"` object — the span summary of one
//! instrumented run (per-phase wall/self time, charges and workspace
//! checkouts).  `--trace <path>` additionally exports a Chrome/Perfetto
//! `trace.json` of one warm traced decompose at the largest measured size.
//!
//! Schema 3 (this layout): one `"ms"` column per library row.  Schema 2
//! files timed two engine sets per row (`"packed_ms"`, `"permutation_ms"`,
//! `"speedup"`, `"engines"`).  sfcp-lint's `bench-schema` rule checks the
//! committed file's rows for their `"trace"` summaries.
//!
//! `--smoke` runs only n = 1e5 and additionally compares the fresh
//! `decompose`, `decompose_warm`, `decompose_checked`, `csr_build`,
//! `list_rank` and `euler_build` rows against the committed
//! `BENCH_parprim.json` (or the file given with `--committed <path>`),
//! failing on a >10% machine-normalized wall-clock regression of `"ms"` —
//! the CI gate for the decomposition pipeline, the CSR subsystem and the
//! list ranking.  The committed file is parsed as JSON and its rows are
//! looked up by `"name"` and `"n"`.  The comparison only runs when the
//! committed file's `"threads"` matches this host's available parallelism;
//! otherwise the two files are not comparable and only the in-run gates
//! apply.

use rand::prelude::*;
use sfcp::{coarsest_partition, Algorithm, Instance};
use sfcp_pram::{Ctx, Mode, Stats};
use sfcp_service::json::{self, Value};
use sfcp_service::{Client, ComputeRequest, Kind, Reply, Server, ServerConfig};
use std::time::Instant;

/// Best-of-k wall-clock milliseconds of `f` with a fresh context per run.
fn best_ms<F: FnMut(&Ctx)>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let ctx = Ctx::untracked(Mode::Parallel);
        let t = Instant::now();
        f(&ctx);
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Tracked work/depth of `f`, plus the span summary of the same (traced)
/// run.  Tracing is charge-neutral by construction —
/// `tests/charge_determinism.rs` pins that the charges here are
/// bit-identical to an untraced run — so one tracked pass yields both.
fn charges<F: FnMut(&Ctx)>(mut f: F) -> (Stats, String) {
    let ctx = Ctx::parallel().with_tracing();
    f(&ctx);
    (ctx.stats(), ctx.trace().snapshot().summary().to_json())
}

struct Row {
    name: &'static str,
    n: usize,
    /// Best-of-k wall-clock milliseconds.
    ms: f64,
    work: u64,
    rounds: u64,
    /// Span summary of one tracked+traced run
    /// ([`sfcp_pram::TraceSummary::to_json`]): per-phase wall/self time,
    /// charges and checkouts.  Wall times in here come from that single
    /// instrumented pass, not the best-of-k `ms` column — they describe
    /// *shape* (where a row's time goes), not the trajectory numbers.
    trace: String,
}

impl Row {
    fn new(name: &'static str, n: usize, ms: f64, c: Stats, trace: String) -> Row {
        println!("{name:>22} n={n:>8}: {ms:9.3} ms");
        Row {
            name,
            n,
            ms,
            work: c.work,
            rounds: c.rounds,
            trace,
        }
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\"name\": \"{}\", \"n\": {}, \"ms\": {:.3}, ",
                "\"work\": {}, \"rounds\": {}, \"trace\": {}}}"
            ),
            self.name, self.n, self.ms, self.work, self.rounds, self.trace,
        )
    }
}

fn measure<F: FnMut(&Ctx) + Clone>(name: &'static str, n: usize, reps: usize, f: F) -> Row {
    let ms = best_ms(reps, f.clone());
    let (c, trace) = charges(f);
    Row::new(name, n, ms, c, trace)
}

/// Two warm rows measured **interleaved** on one shared **persistent,
/// pre-warmed** context (one warm-up call, then every repetition reuses
/// the same workspace pools — this is the "warm"
/// number the decompose trajectory in ROADMAP.md quotes; the plain
/// `measure` rows pay the cold-pool allocations every repetition).
/// Each repetition times both closures back-to-back, so both best-of-k
/// minima sample the same quiet scheduler windows and their ratio cancels
/// machine jitter.  This is what makes the checked-vs-unchecked overhead
/// gate meaningful on noisy shared runners — two independent best-of-k
/// loops minutes apart can diverge by more than the gate's tolerance from
/// scheduling alone.
///
/// **Run order alternates per repetition.**  A fixed `f`-then-`g` order
/// biases the pair: the member that runs second inherits warmed caches,
/// branch predictors and page tables from the first, and at the 1e6 tier
/// the effect is larger than the overhead being gated (a committed fixed-
/// order trajectory showed `decompose_checked` at 203.9 ms *beating*
/// `decompose_warm` at 216.7 ms — the validated superset of the warm path
/// cannot genuinely be 6% faster; that gap was pure ordering).  Alternating
/// gives each member the lead position on half the reps, so the order bias
/// cancels out of both the best-of-k columns and the per-rep ratios.
///
/// Returns the two rows plus the **median paired ratio** `g/f` over the
/// reps — the statistic the overhead gate checks.  The
/// median of per-rep ratios is robust against a single noisy rep in a way
/// the ratio-of-minima is not (the two minima can come from different reps
/// and different run orders).
fn measure_warm_pair<F, G>(
    name_a: &'static str,
    name_b: &'static str,
    n: usize,
    reps: usize,
    f: F,
    g: G,
) -> (Row, Row, f64)
where
    F: FnMut(&Ctx) + Clone,
    G: FnMut(&Ctx) + Clone,
{
    let (best_a, best_b, paired_ratio) = {
        let (mut f, mut g) = (f.clone(), g.clone());
        let ctx = Ctx::untracked(Mode::Parallel);
        f(&ctx); // warm the pools (shared by both closures)
        g(&ctx);
        let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
        let mut ratios = Vec::with_capacity(reps);
        let time = |h: &mut dyn FnMut(&Ctx)| {
            let t = Instant::now();
            h(&ctx);
            t.elapsed().as_secs_f64() * 1e3
        };
        for rep in 0..reps {
            let (a, b) = if rep % 2 == 0 {
                let a = time(&mut f);
                let b = time(&mut g);
                (a, b)
            } else {
                let b = time(&mut g);
                let a = time(&mut f);
                (a, b)
            };
            best_a = best_a.min(a);
            best_b = best_b.min(b);
            ratios.push(b / a);
        }
        ratios.sort_by(f64::total_cmp);
        (best_a, best_b, ratios[ratios.len() / 2])
    };
    let (ca, trace_a) = charges(f);
    let (cb, trace_b) = charges(g);
    (
        Row::new(name_a, n, best_a, ca, trace_a),
        Row::new(name_b, n, best_b, cb, trace_b),
        paired_ratio,
    )
}

/// One service-tier measurement: the TCP front-end driven end to end.
/// Latency rows (`service_warm` / `service_cold`) time one request per
/// round trip; the batch rows time explicit batch frames, so their
/// `p50_ms`/`p99_ms` are per-frame and `rps` carries the throughput story.
struct ServiceRow {
    name: &'static str,
    n: usize,
    /// Members per request frame (1 for the latency rows).
    batch: usize,
    p50_ms: f64,
    p99_ms: f64,
    /// Requests (batch members, not frames) per second over the timed drain.
    rps: f64,
    work: u64,
    rounds: u64,
    /// Span summary of one traced request's serving run, as reported by
    /// the server over the wire (schema 2 field; same shape as
    /// [`Row::trace`] — the serving path runs the same instrumented
    /// context).
    trace: String,
}

impl ServiceRow {
    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\"name\": \"{}\", \"n\": {}, \"batch\": {}, ",
                "\"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"rps\": {:.1}, ",
                "\"work\": {}, \"rounds\": {}, \"trace\": {}}}"
            ),
            self.name,
            self.n,
            self.batch,
            self.p50_ms,
            self.p99_ms,
            self.rps,
            self.work,
            self.rounds,
            self.trace,
        )
    }
}

fn percentile(sorted_ms: &[f64], pct: usize) -> f64 {
    sorted_ms[(sorted_ms.len() * pct / 100).min(sorted_ms.len() - 1)]
}

/// Unwrap a service round trip down to the reply (any failure — transport
/// or typed — fails the bench run; the serving path is part of what is
/// being certified here).
fn expect_reply(
    outcome: Result<Result<Reply, sfcp_service::ErrorReply>, sfcp_service::ClientError>,
) -> Reply {
    outcome
        .expect("service transport must stay up during the bench")
        .unwrap_or_else(|e| panic!("service answered a typed error: {e}"))
}

/// One latency row: `reqs` decompose workload requests (digest replies,
/// cache bypassed) against an in-process single-worker server, timed per
/// round trip.  `cold` rebuilds the worker's context per request — the
/// baseline the warm-vs-cold gate compares against.  The request stream is
/// identical on both servers (same workload key, so the worker's generator
/// memo serves both equally); the only asymmetry left is workspace pool
/// reuse, which is exactly the margin the serving layer exists to keep.
fn measure_service_latency(name: &'static str, n: usize, reqs: usize, cold: bool) -> ServiceRow {
    let server = Server::start(ServerConfig {
        cold_ctx: cold,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral loopback port");
    let mut client = Client::connect(server.addr()).expect("connect to the in-process server");
    let req = ComputeRequest::workload(Kind::Decompose, n, 0x5EED, 0)
        .digest_only()
        .no_cache();
    // Untimed warm-up: pages in the code path on both servers and generates
    // the workload into the worker's memo; only the warm server's workspace
    // pools carry into the timed window.
    for _ in 0..2 {
        expect_reply(client.request(&req));
    }
    let mut lats = Vec::with_capacity(reqs);
    let (mut work, mut rounds) = (0u64, 0u64);
    let t0 = Instant::now();
    for _ in 0..reqs {
        let t = Instant::now();
        let reply = expect_reply(client.request(&req));
        lats.push(t.elapsed().as_secs_f64() * 1e3);
        (work, rounds) = (reply.work, reply.rounds);
    }
    let rps = reqs as f64 / t0.elapsed().as_secs_f64();
    lats.sort_by(f64::total_cmp);
    let (p50_ms, p99_ms) = (percentile(&lats, 50), percentile(&lats, 99));
    // The row's trace comes from the serving run itself: one traced request
    // outside the timed window, summarized by the worker and shipped back.
    let traced = expect_reply(client.request(&req.clone().traced()));
    let trace = traced
        .trace_json
        .expect("a traced request must carry its summary");
    server.shutdown();
    println!("{name:>22} n={n:>8}: p50 {p50_ms:9.3} ms  p99 {p99_ms:9.3} ms  ({rps:8.1} req/s)");
    ServiceRow {
        name,
        n,
        batch: 1,
        p50_ms,
        p99_ms,
        rps,
        work,
        rounds,
        trace,
    }
}

/// One throughput row: `total` partition workload requests at domain size
/// `n`, pushed through frames of `batch` members (plain round trips when
/// `batch == 1`, explicit batch frames otherwise — the worker fuses each
/// frame's members into one solver invocation).  Work/rounds accumulate
/// over every member reply, so the column records the charge cost of the
/// fused plan actually served.
fn measure_service_batch(n: usize, batch: usize, total: usize) -> ServiceRow {
    let server = Server::start(ServerConfig::default()).expect("bind an ephemeral loopback port");
    let mut client = Client::connect(server.addr()).expect("connect to the in-process server");
    let members: Vec<ComputeRequest> = (0..total)
        .map(|j| {
            ComputeRequest::workload(Kind::Partition, n, 0xBA7C4 + j as u64, 8)
                .digest_only()
                .no_cache()
        })
        .collect();
    // Untimed warm-up pass over the same frames.
    for chunk in members.chunks(batch) {
        if batch == 1 {
            expect_reply(client.request(&chunk[0]));
        } else {
            client
                .batch(chunk)
                .expect("batch transport")
                .into_iter()
                .for_each(|r| {
                    expect_reply(Ok(r.outcome));
                });
        }
    }
    let mut lats = Vec::with_capacity(total.div_ceil(batch));
    let (mut work, mut rounds) = (0u64, 0u64);
    let t0 = Instant::now();
    for chunk in members.chunks(batch) {
        let t = Instant::now();
        if batch == 1 {
            let reply = expect_reply(client.request(&chunk[0]));
            work += reply.work;
            rounds += reply.rounds;
        } else {
            for response in client.batch(chunk).expect("batch transport") {
                let reply = expect_reply(Ok(response.outcome));
                work += reply.work;
                rounds += reply.rounds;
            }
        }
        lats.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let rps = total as f64 / t0.elapsed().as_secs_f64();
    lats.sort_by(f64::total_cmp);
    let (p50_ms, p99_ms) = (percentile(&lats, 50), percentile(&lats, 99));
    let traced = expect_reply(client.request(&members[0].clone().traced()));
    let trace = traced
        .trace_json
        .expect("a traced request must carry its summary");
    server.shutdown();
    println!(
        "{:>22} n={n:>8}: p50 {p50_ms:9.3} ms  p99 {p99_ms:9.3} ms  ({rps:8.1} req/s, batch {batch})",
        "service_batch"
    );
    ServiceRow {
        name: "service_batch",
        n,
        batch,
        p50_ms,
        p99_ms,
        rps,
        work,
        rounds,
        trace,
    }
}

/// The numeric `field` of the `results` row of a parsed bench file whose
/// `name` and `n` match.
fn committed_value(bench: &Value, name: &str, n: usize, field: &str) -> Option<f64> {
    bench
        .get("results")?
        .as_array()?
        .iter()
        .find(|row| {
            row.get("name").and_then(Value::as_str) == Some(name)
                && row.get("n").and_then(Value::as_usize) == Some(n)
        })?
        .get(field)?
        .as_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out_path: Option<String> = None;
    let mut committed_path = "BENCH_parprim.json".to_string();
    let mut smoke = false;
    let mut trace_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).expect("--trace needs a path").clone());
            }
            "--committed" => {
                i += 1;
                committed_path = args.get(i).expect("--committed needs a path").clone();
            }
            other => out_path = Some(other.to_string()),
        }
        i += 1;
    }
    // A smoke run must never clobber the committed trajectory it is about to
    // read back, so its default output goes elsewhere.
    let out_path = out_path.unwrap_or_else(|| {
        if smoke {
            "bench_smoke.json".to_string()
        } else {
            "BENCH_parprim.json".to_string()
        }
    });
    assert!(
        !smoke || out_path != committed_path,
        "--smoke would overwrite the committed baseline {committed_path} before comparing \
         against it; pass a different output path"
    );
    let sizes: &[usize] = if smoke {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    let mut rows: Vec<Row> = Vec::new();
    let mut service_rows: Vec<ServiceRow> = Vec::new();
    // Median paired checked/warm ratio at the largest size (overwritten per
    // tier; sizes ascend, so the last assignment is the largest n).
    let mut checked_paired_ratio = f64::NAN;

    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ n as u64);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..2 * n as u64)).collect();
        let pairs: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0..n as u64), rng.gen_range(0..n as u64)))
            .collect();
        let reps = if n >= 1_000_000 { 3 } else { 5 };

        rows.push(measure("dense_ranks_by_sort", n, reps, |ctx: &Ctx| {
            let (ranks, _) = sfcp_parprim::rank::dense_ranks_by_sort(ctx, &keys);
            std::hint::black_box(&ranks);
        }));
        rows.push(measure("radix_sort_pairs", n, reps, |ctx: &Ctx| {
            let order = sfcp_parprim::intsort::radix_sort_pairs(ctx, &pairs);
            std::hint::black_box(&order);
        }));
        let g = sfcp_forest::generators::random_function(n, 0xDECADE);
        // The buddy-edge incidence CSR of `g` — the exact build that gates
        // `cycle_nodes_euler` — through the parallel CSR subsystem.
        let f = g.table();
        // `build_csr_into` with retained output buffers — the pooled hot
        // path the call sites use — and extra reps: the row is cheap enough
        // that best-of-few is dominated by jitter otherwise.  The stream
        // mirrors `cycle_nodes_euler`'s exactly, including the self-loop
        // filter (the `None`-slot path).
        let mut offsets = Vec::new();
        let mut items = Vec::new();
        rows.push(measure("csr_build", n, 3 * reps, move |ctx: &Ctx| {
            sfcp_parprim::csr::build_csr_into(
                ctx,
                n,
                2 * n,
                |s| {
                    let x = s / 2;
                    if f[x] as usize == x {
                        None // self-loop edges are excluded, as in cycle_nodes_euler
                    } else if s % 2 == 0 {
                        Some((x as u32, (x as u32) * 2 + 1))
                    } else {
                        Some((f[x], (x as u32) * 2))
                    }
                },
                &mut offsets,
                &mut items,
            );
            std::hint::black_box(offsets.len() + items.len());
        }));
        // The list ranking on a multi-list successor array shaped
        // like the fused Euler domain: one shuffled permutation split into
        // a handful of independent chains.
        let next: Vec<u32> = {
            let mut perm: Vec<u32> = (0..n as u32).collect();
            perm.shuffle(&mut rng);
            let mut next: Vec<u32> = (0..n as u32).collect();
            for part in perm.chunks(n.div_ceil(8)) {
                for w in part.windows(2) {
                    next[w[0] as usize] = w[1];
                }
            }
            next
        };
        rows.push(measure("list_rank", n, reps, |ctx: &Ctx| {
            let ranks = sfcp_parprim::listrank::list_rank(ctx, &next);
            std::hint::black_box(ranks.len());
        }));
        // Euler-tour construction over a random relabeled forest: tour
        // successors, the 2n-arc ranking, and the position finish.
        let forest = {
            let mut parent: Vec<u32> = (0..n as u32).collect();
            for (i, p) in parent.iter_mut().enumerate().skip(8) {
                *p = rng.gen_range(0..i) as u32;
            }
            let mut relabel: Vec<u32> = (0..n as u32).collect();
            relabel.shuffle(&mut rng);
            let mut shuffled = vec![0u32; n];
            for i in 0..n {
                shuffled[relabel[i] as usize] = relabel[parent[i] as usize];
            }
            sfcp_parprim::euler::RootedForest::from_parents(
                &Ctx::untracked(Mode::Parallel),
                shuffled,
            )
        };
        rows.push(measure("euler_build", n, reps, |ctx: &Ctx| {
            let tour = sfcp_parprim::euler::EulerTour::build(ctx, &forest);
            std::hint::black_box(tour.len());
        }));
        rows.push(measure("decompose", n, reps, |ctx: &Ctx| {
            let d = sfcp_forest::decompose(ctx, &g, sfcp_forest::cycles::CycleMethod::Euler);
            std::hint::black_box(d.num_cycles());
        }));
        // The unchecked warm row and the validated (`try_`) row, timed
        // interleaved on the same pre-warmed context: the checked path's
        // whole point is to be free (size envelope check + catch_unwind
        // around the identical pipeline), and the gate below holds it
        // within noise of `decompose_warm` — which requires correlated
        // sampling, not two independent best-of-k loops.
        let (warm_row, checked_row, pair_ratio) = measure_warm_pair(
            "decompose_warm",
            "decompose_checked",
            n,
            2 * reps,
            |ctx: &Ctx| {
                let d = sfcp_forest::decompose(ctx, &g, sfcp_forest::cycles::CycleMethod::Euler);
                std::hint::black_box(d.num_cycles());
            },
            |ctx: &Ctx| {
                let d =
                    sfcp_forest::try_decompose(ctx, &g, sfcp_forest::cycles::CycleMethod::Euler)
                        .expect("a valid instance must decompose");
                std::hint::black_box(d.num_cycles());
            },
        );
        rows.push(warm_row);
        rows.push(checked_row);
        checked_paired_ratio = pair_ratio;
        let inst = Instance::random(n, 8, 0xC0FFEE);
        rows.push(measure("coarsest_parallel", n, reps, |ctx: &Ctx| {
            let q = coarsest_partition(ctx, &inst, Algorithm::Parallel);
            std::hint::black_box(q.num_blocks());
        }));
        // The service latency pair at the same size: warm persistent worker
        // vs the cold rebuild-per-request baseline, over loopback TCP.
        let service_reqs = if n >= 1_000_000 { 12 } else { 40 };
        service_rows.push(measure_service_latency(
            "service_warm",
            n,
            service_reqs,
            false,
        ));
        service_rows.push(measure_service_latency(
            "service_cold",
            n,
            service_reqs,
            true,
        ));
    }

    // The service throughput tier: fixed work (128 partition requests at
    // n = 2048) through frames of 1, 8 and 64 members.
    for batch in [1, 8, 64] {
        service_rows.push(measure_service_batch(2048, batch, 128));
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"sfcp_parprim\",\n");
    // Schema 3: one `ms` column per library row (schema 2 timed two engine
    // sets); every row carries a "trace" span summary, which the
    // `bench-schema` lint enforces.
    json.push_str("  \"schema\": 3,\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str("  \"results\": [\n");
    let body: Vec<String> = rows
        .iter()
        .map(Row::json)
        .chain(service_rows.iter().map(ServiceRow::json))
        .collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &json).expect("failed to write benchmark json");
    println!("wrote {out_path}");

    // `--trace <path>`: one warm traced decompose at the largest measured
    // size, exported as a Chrome/Perfetto trace
    // (load it at ui.perfetto.dev or chrome://tracing).  Runs outside the
    // timed windows above, so it cannot perturb the trajectory numbers.
    if let Some(path) = &trace_path {
        let n = *sizes.last().expect("at least one size");
        let g = sfcp_forest::generators::random_function(n, 0xDECADE);
        let ctx = Ctx::untracked(Mode::Parallel);
        let d = sfcp_forest::decompose(&ctx, &g, sfcp_forest::cycles::CycleMethod::Euler);
        std::hint::black_box(d.num_cycles()); // warm the pools, untraced
        ctx.trace().enable();
        let d = sfcp_forest::decompose(&ctx, &g, sfcp_forest::cycles::CycleMethod::Euler);
        std::hint::black_box(d.num_cycles());
        std::fs::write(path, ctx.trace().snapshot().to_chrome_json())
            .expect("failed to write trace json");
        println!("wrote {path} (chrome://tracing / ui.perfetto.dev)");
    }

    // The validated entry point must be free: at the largest size, the
    // `try_decompose` row (size check + catch_unwind around the identical
    // pipeline) stays within noise of the unchecked warm row.  The gated
    // statistic is the **median paired ratio** from the order-alternating
    // interleaved reps, not the ratio of the two best-of-k columns: the
    // paired median is immune both to the fixed-order cache bias (each
    // member leads half the reps) and to the two minima landing in
    // different scheduler windows.  The absolute floor covers timer
    // granularity on fast runs.
    let largest = rows.iter().map(|r| r.n).max().unwrap();
    let warm = rows
        .iter()
        .find(|r| r.name == "decompose_warm" && r.n == largest)
        .expect("decompose_warm row present");
    let checked = rows
        .iter()
        .find(|r| r.name == "decompose_checked" && r.n == largest)
        .expect("decompose_checked row present");
    let overhead = checked_paired_ratio;
    println!(
        "checked-path overhead n={largest}: median paired {overhead:.3}x \
         (best-of-k {:.3} ms vs {:.3} ms)",
        checked.ms, warm.ms
    );
    assert!(
        overhead < 1.10 || checked.ms - warm.ms < 0.5,
        "the validated decompose path costs {overhead:.2}x the unchecked warm path \
         (median paired ratio; must stay within noise — the try_ surface is a size \
         check + catch_unwind)"
    );

    // The serving-layer gate: at the largest size, the warm worker's p50
    // must beat the cold rebuild-per-request baseline by at least the
    // workspace pool warm-up margin.  The committed trajectory measures the
    // margin at ~1.19x (n = 1e6) and ~1.33x (n = 1e5); 1.10 leaves noise
    // headroom while still failing if warm serving ever stops paying.
    let service_at = |name: &str, filt: &dyn Fn(&&ServiceRow) -> bool| {
        service_rows
            .iter()
            .find(|r| r.name == name && filt(r))
            .unwrap_or_else(|| panic!("{name} row present"))
    };
    let warm_p50 = service_at("service_warm", &|r| r.n == largest).p50_ms;
    let cold_p50 = service_at("service_cold", &|r| r.n == largest).p50_ms;
    let margin = cold_p50 / warm_p50;
    println!(
        "service warm-vs-cold n={largest}: warm p50 {warm_p50:.3} ms vs cold \
         {cold_p50:.3} ms ({margin:.2}x)"
    );
    assert!(
        margin >= 1.10,
        "warm service p50 is only {margin:.2}x faster than the cold rebuild-per-request \
         baseline at n={largest} (must be >= 1.10 — the persistent-worker margin is the \
         serving layer's reason to exist)"
    );

    // The batching gate: pushing the same 128 requests through 64-member
    // frames must out-throughput the one-request-per-round-trip drain
    // (frame fusion plus round-trip amortization; small slack for runner
    // noise on the millisecond-scale frames).
    let rps_solo = service_at("service_batch", &|r| r.batch == 1).rps;
    let rps_batched = service_at("service_batch", &|r| r.batch == 64).rps;
    println!(
        "service batching: {rps_batched:.1} req/s at batch 64 vs {rps_solo:.1} req/s unbatched \
         ({:.2}x)",
        rps_batched / rps_solo
    );
    assert!(
        rps_batched > rps_solo * 0.95,
        "batched serving ({rps_batched:.1} req/s at 64/frame) fails to out-throughput the \
         unbatched drain ({rps_solo:.1} req/s) — batching must never cost throughput"
    );

    // Smoke gate: the decompose, csr_build, list_rank, and euler_build
    // entries must not regress more than 10% against the committed
    // trajectory (same n as measured in this run).  The raw wall-clock
    // ratio is normalized by the radix_sort_pairs ratio of the same two
    // files: that row touches neither the decomposition code, the CSR
    // builder, nor the list ranking, so a uniformly slower or
    // faster machine cancels out and the gate tracks genuine regressions
    // rather than runner hardware.  Files recorded at a different thread
    // count are not comparable at all, so the comparison is skipped then.
    if smoke {
        let committed = std::fs::read(&committed_path)
            .unwrap_or_else(|e| panic!("cannot read committed bench {committed_path}: {e}"));
        let committed = json::parse(&committed)
            .unwrap_or_else(|e| panic!("committed bench {committed_path} is not JSON: {e}"));
        let committed_threads = committed.get("threads").and_then(Value::as_usize);
        if committed_threads != Some(threads) {
            println!(
                "smoke: {committed_path} was recorded at {} threads and this host has \
                 {threads}; the files are not comparable, so the comparisons against \
                 committed rows are skipped (the in-run gates above still ran)",
                committed_threads.map_or("unknown".into(), |t| t.to_string())
            );
            return;
        }
        let calib = rows
            .iter()
            .find(|r| r.name == "radix_sort_pairs")
            .expect("calibration row present");
        let committed_calib_ms = committed_value(&committed, "radix_sort_pairs", calib.n, "ms")
            .unwrap_or_else(|| {
                panic!(
                    "no radix_sort_pairs n={} entry in {committed_path}",
                    calib.n
                )
            });
        let machine = calib.ms / committed_calib_ms;
        for gated in [
            "decompose",
            "decompose_warm",
            "decompose_checked",
            "csr_build",
            "list_rank",
            "euler_build",
        ] {
            let fresh = rows
                .iter()
                .find(|r| r.name == gated)
                .unwrap_or_else(|| panic!("{gated} row present"));
            let committed_ms = committed_value(&committed, gated, fresh.n, "ms")
                .unwrap_or_else(|| panic!("no {gated} n={} entry in {committed_path}", fresh.n));
            let raw = fresh.ms / committed_ms;
            let ratio = raw / machine;
            println!(
                "smoke: {gated} n={} is {:.3} ms vs committed {:.3} ms \
                 (raw {raw:.2}x, machine-normalized {ratio:.2}x)",
                fresh.n, fresh.ms, committed_ms
            );
            // Relative gate with a small absolute floor covering timer and
            // scheduler granularity on the ~1 ms csr_build row (a quarter
            // millisecond of excess is never treated as a regression; real
            // regressions of the ~20 ms decompose row clear it by an order
            // of magnitude).
            let excess_ms = fresh.ms - committed_ms * machine;
            assert!(
                ratio < 1.10 || excess_ms < 0.25,
                "{gated} regressed {ratio:.2}x machine-normalized (> 1.10, +{excess_ms:.3} ms) \
                 against the committed {committed_path} entry ({:.3} ms vs {committed_ms:.3} ms, \
                 calibration {machine:.2}x)",
                fresh.ms
            );
        }
        // The serving path is gated the same way on its warm p50: a
        // regression here that leaves the library rows green means the
        // service layer itself (framing, dispatch, context reuse) got
        // slower.  The floor is wider than the library rows' because one
        // p50 over 40 loopback round trips carries more scheduler noise
        // than a best-of-k minimum.
        let fresh = service_rows
            .iter()
            .find(|r| r.name == "service_warm")
            .expect("service_warm row present");
        let committed_ms = committed_value(&committed, "service_warm", fresh.n, "p50_ms")
            .unwrap_or_else(|| panic!("no service_warm n={} entry in {committed_path}", fresh.n));
        let raw = fresh.p50_ms / committed_ms;
        let ratio = raw / machine;
        let excess_ms = fresh.p50_ms - committed_ms * machine;
        println!(
            "smoke: service_warm n={} p50 is {:.3} ms vs committed {committed_ms:.3} ms \
             (raw {raw:.2}x, machine-normalized {ratio:.2}x)",
            fresh.n, fresh.p50_ms
        );
        assert!(
            ratio < 1.15 || excess_ms < 1.0,
            "service_warm p50 regressed {ratio:.2}x machine-normalized (> 1.15, \
             +{excess_ms:.3} ms) against the committed {committed_path} entry \
             ({:.3} ms vs {committed_ms:.3} ms, calibration {machine:.2}x)",
            fresh.p50_ms
        );
    }
}
