//! Workloads, the timed and traced runs, and the metrics they report.
//!
//! A run with tracing off (`--trace 0`) measures the end-to-end metrics.  A
//! traced run (`--trace 1`) times every layer from outside, reads the
//! program's own charge, workspace and trace summaries, drives the serving
//! layer, and reports the per-layer metrics.  Both check every answer.

use crate::family::{self, Family, SEQUENTIAL_BUDGET_NODES};
use crate::host::Stamp;
use crate::layers;
use crate::procfs::{self, CpuTimes};
use crate::serve::{self, Service};
use crate::spans::{Recorder, SpanRec};
use crate::stats::{self, Summary};
use sfcp::{Instance, Partition};
use sfcp_pram::{Ctx, TraceSummary};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Instance::random(1_000_000, 3, seed)`: the headline instance.
    RandomForest,
    /// `Instance::periodic_cycles(96, 1 << 14, 1 << 12, 4, seed)`.
    LongCycles,
    /// `Instance::deep(1_000_000, 8, 4, seed)`.
    DeepChains,
    /// Closed-loop inline partition requests against an in-process server.
    ServiceMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::RandomForest,
        Workload::LongCycles,
        Workload::DeepChains,
        Workload::ServiceMixed,
    ];

    /// The name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::RandomForest => "random_forest",
            Workload::LongCycles => "long_cycles",
            Workload::DeepChains => "deep_chains",
            Workload::ServiceMixed => "service_mixed",
        }
    }

    /// Look a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn family(self) -> Family {
        match self {
            Workload::RandomForest | Workload::ServiceMixed => Family::Random,
            Workload::LongCycles => Family::Cycles,
            Workload::DeepChains => Family::Deep,
        }
    }
}

/// Instance sizes: the workload definitions, or a tiny mode for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes that define the workloads.
    Full,
    /// Small enough to run every workload end to end in seconds.
    Tiny,
}

impl Scale {
    fn headline_n(self, w: Workload) -> usize {
        match (self, w) {
            (Scale::Tiny, _) => 1 << 14,
            (Scale::Full, Workload::LongCycles) => 96 << 14,
            (Scale::Full, _) => 1_000_000,
        }
    }

    fn service_sizes(self) -> [usize; 3] {
        match self {
            Scale::Full => [1 << 12, 1 << 15, 1 << 17],
            Scale::Tiny => [1 << 8, 1 << 10, 1 << 12],
        }
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Instance sizes.
    pub scale: Scale,
}

/// End-to-end metrics and their units, reported with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("solve_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("request_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
];

/// Per-layer metrics and their units, reported by the traced run.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("error_rate", "ratio"),
    ("pseudoforest.decompose_ms", "ms"),
    ("core.label_ms", "ms"),
    ("core.sequential_ms", "ms"),
    ("core.speedup_vs_sequential", "x"),
    ("core.check_ms", "ms"),
    ("strings.canonize_ms", "ms"),
    ("core.group_cycles_ms", "ms"),
    ("pram.work", "count"),
    ("pram.rounds", "count"),
    ("pram.pool_bytes_per_node", "B/node"),
    ("pram.warm_allocs", "count"),
    ("solve_1t_ms", "ms"),
    ("rayon.scaling", "x"),
    ("rayon.cpu_util", "ratio"),
    ("rayon.sys_share", "ratio"),
    ("trace.label_tree_nodes", "ms"),
    ("trace.doubling_round", "ms"),
    ("trace.doubling_rounds", "count"),
    ("trace.dense_ranks_of_pairs", "ms"),
    ("trace.radix_pass", "ms"),
    ("trace.ancestor_counts", "ms"),
    ("trace.label_cycle_nodes", "ms"),
    ("trace.list_rank_flagged", "ms"),
    ("trace.find_roots", "ms"),
    ("trace.build_csr", "ms"),
    ("trace.levels", "ms"),
    ("trace.cycle_min_flagged", "ms"),
    ("trace.overhead", "x"),
    ("request_tail_ms", "ms"),
    ("service.solve_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.decode_ms", "ms"),
    ("service.encode_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.p50_4k_ms", "ms"),
    ("service.p50_32k_ms", "ms"),
    ("service.p50_128k_ms", "ms"),
];

/// Program spans read as wall time (whole phases); every other `trace.*`
/// span is read as self time summed over its occurrences.
const WALL_SPANS: [&str; 3] = ["label_tree_nodes", "label_cycle_nodes", "doubling_round"];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Warm solves the solver workloads' peak RSS is taken over.
const MEMORY_SOLVES: usize = 2;

/// Largest-size instances the serving workload's direct solves rotate over.
const DIRECT_INSTANCES: usize = 8;

/// Fewest samples of each timed call, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Share of a traced solver run spent on the layer pass; the rest drives
/// the serving layer with the workload's family.
const MAIN_SHARE: f64 = 0.7;

/// Share of a serving run spent in the closed loop; the rest times direct
/// solves (timed run) or the layer pass (traced run).  Long enough for
/// about 300 requests on a 2-vCPU host, which keeps the tail at p95.
const SERVE_SHARE: f64 = 0.8;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value (a median where `summary` is set).
    pub value: f64,
    /// Quartiles and sample count of a timing.
    pub summary: Option<Summary>,
    /// Extra context (the percentile behind `request_tail_ms`).
    pub note: Option<String>,
}

/// Everything one run measured.
pub struct Report {
    /// The options it ran with.
    pub opts: Opts,
    /// The host stamp.
    pub stamp: Stamp,
    /// Operations whose answer was checked.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// What went wrong, one line per failure.
    pub errors: Vec<String>,
    /// The metrics, in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<Metric>,
    /// The benchmark's own spans (traced runs only).
    pub spans: Vec<SpanRec>,
    /// The program's own trace summary of the traced solve, as JSON.
    pub program_trace: Option<String>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

/// Checks the answers for one instance: the first is verified in full, and
/// a later answer with identical labels is accepted by comparison.
struct Answers<'a> {
    inst: &'a Instance,
    expected: usize,
    verified: Option<Vec<u32>>,
}

impl<'a> Answers<'a> {
    fn new(inst: &'a Instance) -> Answers<'a> {
        Answers {
            inst,
            expected: family::reference_blocks(inst),
            verified: None,
        }
    }

    fn check(&mut self, q: &Partition) -> Result<(), String> {
        if self.verified.as_deref() == Some(q.labels()) {
            return Ok(());
        }
        family::check(self.inst, q, self.expected)?;
        self.verified = Some(q.labels().to_vec());
        Ok(())
    }
}

fn median(xs: &[f64]) -> f64 {
    stats::summarize(xs).map_or(0.0, |s| s.p50)
}

fn deadline_in(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds.max(0.0))
}

/// Run one workload.
///
/// # Errors
/// Failures that leave nothing to report (a server that does not start, a
/// malformed reply trace).  Wrong answers are not errors: they are counted
/// in the report.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let stamp = Stamp::probe();
    let mut rec = Recorder::new(opts.trace);
    let mut tally = Tally::default();
    let (result, _) = rec.span("run", |rec| match opts.workload {
        Workload::ServiceMixed => run_service(opts, &stamp, rec, &mut tally),
        _ => run_solver(opts, &stamp, rec, &mut tally),
    });
    let (mut metrics, program_trace) = result?;
    if opts.trace {
        metrics.insert(
            "error_rate",
            plain(
                "error_rate",
                tally.failed as f64 / tally.attempted.max(1) as f64,
            ),
        );
    }
    let names: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            let mut m = metrics
                .remove(name)
                .unwrap_or_else(|| panic!("metric {name} not measured"));
            m.unit = unit;
            m
        })
        .collect();
    Ok(Report {
        opts: *opts,
        stamp,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics,
        spans: rec.spans().to_vec(),
        program_trace,
    })
}

type Metrics = HashMap<&'static str, Metric>;

fn plain(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit: "",
        value,
        summary: None,
        note: None,
    }
}

fn timing(name: &'static str, samples: &[f64]) -> Metric {
    let summary = stats::summarize(samples);
    Metric {
        name,
        unit: "",
        value: summary.map_or(0.0, |s| s.p50),
        summary,
        note: None,
    }
}

fn put(metrics: &mut Metrics, m: Metric) {
    metrics.insert(m.name, m);
}

/// The end-to-end metrics shared by every workload.  `requests` are the
/// operations the workload serves: library solves on a solver workload,
/// round trips on the serving one.
fn end_to_end(
    setup_s: &[f64],
    solve: &[f64],
    peak_kb: Option<u64>,
    requests: &[f64],
    throughput: f64,
) -> Metrics {
    let mut m = Metrics::new();
    put(&mut m, timing("setup_s", setup_s));
    put(&mut m, timing("solve_ms", solve));
    put(
        &mut m,
        plain("peak_rss_mb", peak_kb.unwrap_or(0) as f64 / 1024.0),
    );
    put(&mut m, timing("request_p50_ms", requests));
    put(&mut m, plain("throughput_rps", throughput));
    m
}

/// `request_tail_ms` by the rule of [`stats::tail`], noting the percentile.
fn tail_metric(requests: &[f64]) -> Metric {
    let mut tail = timing("request_tail_ms", requests);
    if let Some((pct, value)) = stats::tail(requests) {
        tail.value = value;
        tail.note = Some(format!("p{pct} of {} requests", requests.len()));
    }
    tail
}

/// A warm solver: the instance, its context and the cold solve's answer.
struct Solver {
    inst: Instance,
    ctx: Ctx,
    first: Partition,
}

fn run_solver(
    opts: &Opts,
    stamp: &Stamp,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<(Metrics, Option<String>), String> {
    let fam = opts.workload.family();
    let n = opts.scale.headline_n(opts.workload);
    let mut setup_s = Vec::new();
    let mut solver = None;
    let mut peak = None;
    let mut memory_answers = Vec::new();
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    rec.span("setup", |rec| {
        for rep in 0..reps {
            let t = Instant::now();
            let inst = rec.time("generate", || fam.instance(n, opts.seed)).0;
            let ctx = Ctx::parallel();
            let first = rec.time("solve_cold", || layers::solve(&ctx, &inst)).0;
            setup_s.push(t.elapsed().as_secs_f64());
            if rep == 0 && !opts.trace {
                // Peak RSS of warm solves, taken before the benchmark's own
                // work (more set-ups, the reference) can leave freed but
                // still-resident memory behind to inflate it.
                procfs::reset_peak_rss();
                for _ in 0..MEMORY_SOLVES {
                    memory_answers.push(rec.time("solve_memory", || layers::solve(&ctx, &inst)).0);
                }
                peak = procfs::peak_rss_kb();
            }
            solver = Some(Solver { inst, ctx, first });
        }
    });
    let Solver { inst, ctx, first } = solver.expect("at least one set-up");
    let mut answers = rec.time("reference", || Answers::new(&inst)).0;
    for q in std::iter::once(first).chain(memory_answers) {
        tally.add(answers.check(&q));
    }

    // On cycles-only instances the reference is the cycle oracle, and
    // SequentialLinear runs on a budgeted prefix of whole cycles that it
    // must get right too.
    let prefix =
        (fam == Family::Cycles).then(|| family::cycle_prefix(&inst, SEQUENTIAL_BUDGET_NODES));
    if let Some(sub) = &prefix {
        let q = rec.time("sequential", || layers::sequential(sub)).0;
        let want = family::cycle_oracle_blocks(sub).expect("a prefix of cycles is all cycles");
        tally.add(
            family::check(sub, &q, want)
                .map_err(|e| format!("SequentialLinear on the cycle prefix: {e}")),
        );
    }

    if opts.trace {
        let layer = rec
            .span("layers", |rec| {
                let seconds = opts.seconds * MAIN_SHARE;
                layer_pass(rec, &ctx, &mut answers, prefix.as_ref(), seconds, tally)
            })
            .0;
        let sizes = opts.scale.service_sizes();
        let service = rec
            .time("serve_start", || serve::start(fam, &sizes, opts.seed))
            .0?;
        let served = traced_serving(
            rec,
            &service,
            &ctx,
            fam,
            &sizes,
            opts.seed,
            stamp.clients,
            opts.seconds * (1.0 - MAIN_SHARE),
            tally,
        )?;
        service.server.shutdown();
        let metrics = per_layer(&layer, &served, &layer.solve, stamp.nproc, inst.len());
        Ok((metrics, Some(layer.program.to_json())))
    } else {
        let deadline = deadline_in(opts.seconds);
        let solve = rec
            .span("timed", |rec| {
                solve_loop(
                    rec,
                    &ctx,
                    std::slice::from_mut(&mut answers),
                    deadline,
                    tally,
                )
            })
            .0;
        // One caller issuing solves back to back.
        let throughput = 1e3 / median(&solve);
        Ok((end_to_end(&setup_s, &solve, peak, &solve, throughput), None))
    }
}

fn run_service(
    opts: &Opts,
    stamp: &Stamp,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<(Metrics, Option<String>), String> {
    let fam = opts.workload.family();
    let sizes = opts.scale.service_sizes();
    let mut setup_s = Vec::new();
    let mut service: Option<Service> = None;
    rec.span("setup", |rec| {
        for _ in 0..if opts.trace { 1 } else { SETUP_REPS } {
            if let Some(old) = service.take() {
                old.server.shutdown();
            }
            let (started, ms) = rec.time("serve_start", || serve::start(fam, &sizes, opts.seed));
            setup_s.push(ms / 1e3);
            service = Some(started?);
        }
        Ok::<(), String>(())
    })
    .0?;
    let service = service.expect("at least one set-up");
    let ctx = Ctx::parallel();
    // Direct solves rotate over several largest-size instances (the pool's
    // among them), so one seed's instance shapes weigh less on the median.
    let direct: Vec<Instance> = (0..DIRECT_INSTANCES)
        .map(|j| fam.instance(sizes[2], serve::pool_seed(opts.seed, 2, j)))
        .collect();
    let mut answers: Vec<Answers> = rec
        .time("reference", || direct.iter().map(Answers::new).collect())
        .0;

    let result = if opts.trace {
        let served = traced_serving(
            rec,
            &service,
            &ctx,
            fam,
            &sizes,
            opts.seed,
            stamp.clients,
            opts.seconds * SERVE_SHARE,
            tally,
        )?;
        let layer = rec
            .span("layers", |rec| {
                let seconds = opts.seconds * (1.0 - SERVE_SHARE);
                layer_pass(rec, &ctx, &mut answers[0], None, seconds, tally)
            })
            .0;
        let metrics = per_layer(
            &layer,
            &served,
            &served.latencies(None),
            stamp.nproc,
            direct[0].len(),
        );
        (metrics, Some(layer.program.to_json()))
    } else {
        let expected = pool_expected(rec, &service, &ctx, tally)?;
        // The peak covers the loop and the direct solves; reply checks
        // (regenerated instances, references) come after it is read.
        procfs::reset_peak_rss();
        let deadline = deadline_in(opts.seconds * SERVE_SHARE);
        let served = serve_pass(
            rec,
            &service,
            fam,
            &sizes,
            opts.seed,
            stamp.clients,
            deadline,
        )?;
        let deadline = deadline_in(opts.seconds * (1.0 - SERVE_SHARE));
        let solve = rec
            .span("timed", |rec| {
                solve_loop(rec, &ctx, &mut answers, deadline, tally)
            })
            .0;
        let peak = procfs::peak_rss_kb();
        check_served(rec, &ctx, &served, &expected, fam, &sizes, tally);
        let requests = served.latencies(None);
        let throughput = requests.len() as f64 / served.wall_s;
        (
            end_to_end(&setup_s, &solve, peak, &requests, throughput),
            None,
        )
    };
    service.server.shutdown();
    Ok(result)
}

fn one_thread_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the one-thread pool always builds")
}

/// Warm solves at `nproc` threads, rotating over the instances, until
/// `deadline` (at least [`MIN_ROUNDS`]).  Each answer is checked after its
/// timer stops.
fn solve_loop(
    rec: &mut Recorder,
    ctx: &Ctx,
    answers: &mut [Answers<'_>],
    deadline: Instant,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut solve = Vec::new();
    while solve.len() < MIN_ROUNDS || Instant::now() < deadline {
        let answers = &mut answers[solve.len() % answers.len()];
        let inst = answers.inst;
        let (q, ms) = rec.time("solve", || layers::solve(ctx, inst));
        solve.push(ms);
        tally.add(answers.check(&q));
    }
    solve
}

/// What the layer pass measured.
#[derive(Default)]
struct LayerStats {
    solve: Vec<f64>,
    solve_1t: Vec<f64>,
    decompose: Vec<f64>,
    check: Vec<f64>,
    canonize: Vec<f64>,
    group: Vec<f64>,
    sequential: Vec<f64>,
    /// Parallel solves of the sequential baseline's input when that is a
    /// budgeted prefix rather than the instance itself.
    solve_prefix: Vec<f64>,
    cpu: CpuTimes,
    cpu_wall_s: f64,
    work: u64,
    rounds: u64,
    warm_allocs: u64,
    pooled_bytes: u64,
    traced_ms: f64,
    program: TraceSummary,
}

/// Time each layer's public calls for about `seconds`: warm solves at
/// `nproc` and one thread (with the answer check), one tracked solve
/// (charges, workspace misses) and one traced solve (the program's own
/// spans) on the same context, then decompose with the string layers, then
/// the sequential baseline.
fn layer_pass(
    rec: &mut Recorder,
    ctx: &Ctx,
    answers: &mut Answers<'_>,
    prefix: Option<&Instance>,
    seconds: f64,
    tally: &mut Tally,
) -> LayerStats {
    let inst = answers.inst;
    let one = one_thread_pool();
    let mut s = LayerStats::default();
    // Phases, not one interleaved round: each call then runs warm after
    // calls of its own kind, as the timed run's solves do, and the freed
    // memory of the sequential baseline cannot page-fault a solve.
    let start = Instant::now();
    let until = |share: f64| start + Duration::from_secs_f64(seconds * share);
    while s.solve.len() < MIN_ROUNDS || Instant::now() < until(0.45) {
        let before = procfs::cpu_times().unwrap_or_default();
        let (q, ms) = rec.time("solve", || layers::solve(ctx, inst));
        let used = procfs::cpu_times().unwrap_or_default().since(before);
        s.cpu.user_s += used.user_s;
        s.cpu.sys_s += used.sys_s;
        s.cpu_wall_s += ms / 1e3;
        s.solve.push(ms);
        let (verdict, ms) = rec.time("check", || family::check(inst, &q, answers.expected));
        s.check.push(ms);
        tally.add(verdict);
        drop(q);

        let (q, ms) = rec.time("solve_1t", || one.install(|| layers::solve(ctx, inst)));
        s.solve_1t.push(ms);
        tally.add(answers.check(&q));
    }

    let misses = ctx.workspace().stats().misses;
    ctx.reset_stats();
    let q = rec.time("solve_tracked", || layers::solve(ctx, inst)).0;
    let charges = ctx.stats();
    s.work = charges.work;
    s.rounds = charges.rounds;
    s.warm_allocs = ctx.workspace().stats().misses - misses;
    s.pooled_bytes = ctx.workspace().pooled_bytes();
    tally.add(answers.check(&q));
    drop(q);

    ctx.trace().clear();
    ctx.trace().enable();
    let (q, ms) = rec.time("solve_traced", || layers::solve(ctx, inst));
    ctx.trace().disable();
    s.traced_ms = ms;
    s.program = ctx.trace().snapshot().summary();
    tally.add(answers.check(&q));
    drop(q);

    while s.decompose.len() < MIN_ROUNDS || Instant::now() < until(0.75) {
        let (dec, ms) = rec.time("decompose", || layers::decompose(ctx, inst));
        s.decompose.push(ms);
        let (strings, ms) = rec.time("canonize", || layers::canonize(ctx, inst, &dec));
        s.canonize.push(ms);
        drop(dec);
        let (_, ms) = rec.time("group_cycles", || layers::group(ctx, &strings));
        s.group.push(ms);
    }

    let seq_input = prefix.unwrap_or(inst);
    while s.sequential.len() < MIN_ROUNDS || Instant::now() < until(1.0) {
        let (_, ms) = rec.time("sequential", || layers::sequential(seq_input));
        s.sequential.push(ms);
        if let Some(sub) = prefix {
            let (_, ms) = rec.time("solve_prefix", || layers::solve(ctx, sub));
            s.solve_prefix.push(ms);
        }
    }
    s
}

/// What the closed loop measured.
struct Served {
    records: Vec<serve::ReqRec>,
    wall_s: f64,
    hit_ratio: f64,
    stages: Option<serve::Stages>,
}

impl Served {
    /// Latencies in milliseconds of the answered requests of one size, or
    /// of all sizes.
    fn latencies(&self, size_idx: Option<usize>) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.result.is_ok() && size_idx.is_none_or(|i| r.size_idx == i))
            .map(serve::ReqRec::ms)
            .collect()
    }
}

/// Expected reply digest of every pool request (a checked direct solve),
/// with the server's uncached warm-up replies checked against it.
fn pool_expected(
    rec: &mut Recorder,
    service: &Service,
    ctx: &Ctx,
    tally: &mut Tally,
) -> Result<Vec<u64>, String> {
    let expected = rec
        .time("pool_reference", || {
            serve::pool_references(ctx, &service.pool)
        })
        .0?;
    for (k, warm) in service.warm.iter().enumerate() {
        let digest = match &warm.outcome {
            Ok(reply) => match &reply.payload {
                sfcp_service::ReplyPayload::Labels(l) => Some(serve::digest(l)),
                _ => None,
            },
            Err(_) => None,
        };
        tally.add(if digest == Some(expected[k]) {
            Ok(())
        } else {
            Err(format!(
                "uncached warm-up reply to pool request {k} is wrong"
            ))
        });
    }
    Ok(expected)
}

/// Run the closed loop until `deadline`, with the cache hit ratio from
/// `probe` before and after.
fn serve_pass(
    rec: &mut Recorder,
    service: &Service,
    fam: Family,
    sizes: &[usize; 3],
    seed: u64,
    clients: usize,
    deadline: Instant,
) -> Result<Served, String> {
    let addr = service.server.addr();
    let (hits0, misses0) = serve::probe(addr)?;
    let ((records, wall_s), _) = rec.span("serve_loop", |rec| {
        let out = serve::closed_loop(service, fam, sizes, seed, clients, deadline);
        for r in &out.0 {
            rec.record("request", r.start, r.end);
        }
        out
    });
    let (hits1, misses1) = serve::probe(addr)?;
    let (hits, misses) = (hits1 - hits0, misses1 - misses0);
    Ok(Served {
        records,
        wall_s,
        hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        stages: None,
    })
}

/// Check every reply of the loop (see [`serve::check_replies`]).
fn check_served(
    rec: &mut Recorder,
    ctx: &Ctx,
    served: &Served,
    expected: &[u64],
    fam: Family,
    sizes: &[usize; 3],
    tally: &mut Tally,
) {
    let errors = rec
        .time("check_replies", || {
            serve::check_replies(ctx, &served.records, expected, fam, sizes)
        })
        .0;
    tally.attempted += served.records.len() as u64;
    tally.failed += errors.len() as u64;
    tally.errors.extend(errors);
}

/// The traced run's serving pass: pool references, the closed loop for
/// `seconds`, the reply checks, and the serving-stage timings.
#[allow(clippy::too_many_arguments)]
fn traced_serving(
    rec: &mut Recorder,
    service: &Service,
    ctx: &Ctx,
    fam: Family,
    sizes: &[usize; 3],
    seed: u64,
    clients: usize,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Served, String> {
    let expected = pool_expected(rec, service, ctx, tally)?;
    let deadline = deadline_in(seconds);
    let mut served = serve_pass(rec, service, fam, sizes, seed, clients, deadline)?;
    check_served(rec, ctx, &served, &expected, fam, sizes, tally);
    let t = Instant::now();
    let stages = serve::stages(service, &expected)?;
    rec.record("stages", t, Instant::now());
    tally.attempted += stages.solve_ms.len() as u64;
    served.stages = Some(stages);
    Ok(served)
}

/// The per-layer metrics.  `requests` are the workload's operations, as for
/// `request_p50_ms` in the timed run.
fn per_layer(
    layer: &LayerStats,
    served: &Served,
    requests: &[f64],
    nproc: usize,
    n: usize,
) -> Metrics {
    let mut m = Metrics::new();
    put(&mut m, tail_metric(requests));
    let solve = median(&layer.solve);
    put(
        &mut m,
        timing("pseudoforest.decompose_ms", &layer.decompose),
    );
    put(
        &mut m,
        plain("core.label_ms", solve - median(&layer.decompose)),
    );
    put(&mut m, timing("core.sequential_ms", &layer.sequential));
    let parallel = if layer.solve_prefix.is_empty() {
        solve
    } else {
        median(&layer.solve_prefix)
    };
    put(
        &mut m,
        plain(
            "core.speedup_vs_sequential",
            median(&layer.sequential) / parallel,
        ),
    );
    put(&mut m, timing("core.check_ms", &layer.check));
    put(&mut m, timing("strings.canonize_ms", &layer.canonize));
    put(&mut m, timing("core.group_cycles_ms", &layer.group));
    put(&mut m, plain("pram.work", layer.work as f64));
    put(&mut m, plain("pram.rounds", layer.rounds as f64));
    put(
        &mut m,
        plain(
            "pram.pool_bytes_per_node",
            layer.pooled_bytes as f64 / n as f64,
        ),
    );
    put(&mut m, plain("pram.warm_allocs", layer.warm_allocs as f64));
    put(&mut m, timing("solve_1t_ms", &layer.solve_1t));
    put(
        &mut m,
        plain("rayon.scaling", median(&layer.solve_1t) / solve),
    );
    let cpu = layer.cpu.total();
    put(
        &mut m,
        plain("rayon.cpu_util", cpu / (layer.cpu_wall_s * nproc as f64)),
    );
    put(
        &mut m,
        plain(
            "rayon.sys_share",
            if cpu > 0.0 {
                layer.cpu.sys_s / cpu
            } else {
                0.0
            },
        ),
    );

    let row = |name: &str| layer.program.rows.iter().find(|r| r.name == name);
    for (metric, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("trace.")) {
        let span = &metric["trace.".len()..];
        let value = match span {
            "overhead" => layer.traced_ms / solve,
            "doubling_rounds" => row("doubling_round").map_or(0, |r| r.count) as f64,
            _ => row(span).map_or(0.0, |r| {
                let ns = if WALL_SPANS.contains(&span) {
                    r.wall_ns
                } else {
                    r.self_ns
                };
                ns as f64 / 1e6
            }),
        };
        put(&mut m, plain(metric, value));
    }

    let stages = served
        .stages
        .as_ref()
        .expect("traced runs time the serving stages");
    put(&mut m, timing("service.solve_ms", &stages.solve_ms));
    put(&mut m, timing("service.overhead_ms", &stages.overhead_ms));
    put(&mut m, timing("service.decode_ms", &stages.decode_ms));
    put(&mut m, timing("service.encode_ms", &stages.encode_ms));
    put(&mut m, plain("service.cache_hit_ratio", served.hit_ratio));
    put(
        &mut m,
        timing("service.p50_4k_ms", &served.latencies(Some(0))),
    );
    put(
        &mut m,
        timing("service.p50_32k_ms", &served.latencies(Some(1))),
    );
    put(
        &mut m,
        timing("service.p50_128k_ms", &served.latencies(Some(2))),
    );
    m
}
