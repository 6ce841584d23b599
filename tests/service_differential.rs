//! Differential harness for the serving layer: every request kind
//! round-trips through a live TCP service and must match a direct library
//! call **bit-for-bit** — both the answer and the charges.  Charges are
//! input-determined (machine-, warmth-, and topology-independent), which is
//! what makes this comparison meaningful: a warm service worker and a cold
//! harness context must report identical `(work, rounds)`.
//!
//! Coverage: every request kind on three seeded inputs; batch frames of
//! 1 / 7 / 64 members, each member checked against its own solo direct
//! call; an injected fault in one member of a batch (that member fails, the
//! others still match), then the same batch replayed on the recovered
//! worker; and two workers serving four concurrent clients.  The fault test
//! arms one `Worker`'s own context, so no test here needs a lock.

use sfcp_pram::faults::{FaultKind, FaultSite};
use sfcp_pram::{Ctx, Stats};
use sfcp_repro::sfcp::{try_coarsest_partition, Algorithm, Instance};
use sfcp_repro::sfcp_forest::cycles::CycleMethod;
use sfcp_repro::sfcp_forest::{generators, try_decompose};
use sfcp_service::snapshot::{decomposition_digest, labels_digest};
use sfcp_service::worker::workload_string;
use sfcp_service::{
    Client, ComputeRequest, ErrorCode, Kind, Reply, ReplyPayload, Response, Server, ServerConfig,
    Worker,
};

/// Run a direct library call under fresh stats, mirroring the worker's
/// `traced_run` charge accounting.
fn charged<T>(ctx: &Ctx, run: impl FnOnce(&Ctx) -> T) -> (T, Stats) {
    ctx.reset_stats();
    let result = run(ctx);
    (result, ctx.stats())
}

fn assert_charges(reply: &Reply, stats: Stats, what: &str) {
    assert_eq!(
        (reply.work, reply.rounds),
        (stats.work, stats.rounds),
        "{what}: service charges diverged from the direct call"
    );
}

fn problem_size() -> usize {
    if cfg!(debug_assertions) {
        900
    } else {
        20_000
    }
}

/// Every request kind, on three seeded inputs, against direct calls.
#[test]
fn every_kind_matches_direct_calls_across_the_engine_grid() {
    let server = Server::start(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let n = problem_size();
    let ctx = Ctx::parallel();

    for i in 0..3 {
        let seed = 0x5eed + i as u64;

        // Partition: canonical labels and charges.
        let inst = Instance::random(n, 2 + i % 5, seed);
        let req = ComputeRequest::partition(inst.f().to_vec(), inst.blocks().to_vec()).no_cache();
        let reply = client.request(&req).expect("transport").expect("solve");
        let (q, stats) = charged(&ctx, |c| {
            try_coarsest_partition(c, &inst, Algorithm::Parallel)
        });
        let expect = q.expect("direct solve").canonical().into_labels();
        assert_eq!(
            reply.payload,
            ReplyPayload::Labels(expect.clone()),
            "partition[{i}]"
        );
        assert_charges(&reply, stats, "partition");

        // MinimizeDfa is the same refinement; answers and charges match the
        // identical direct partition call.
        let req = ComputeRequest::minimize_dfa(inst.f().to_vec(), inst.blocks().to_vec())
            .no_cache()
            .digest_only();
        let reply = client.request(&req).expect("transport").expect("solve");
        assert_eq!(
            reply.payload,
            ReplyPayload::LabelsDigest(labels_digest(&expect))
        );
        assert_charges(&reply, stats, "minimize_dfa");

        // Canonize: workload input regenerated harness-side.
        let req = ComputeRequest::workload(Kind::Canonize, n, seed, 4).no_cache();
        let reply = client.request(&req).expect("transport").expect("canonize");
        let text = workload_string(n, seed, 4);
        let (msp, stats) = charged(&ctx, |c| {
            sfcp_strings::try_minimal_starting_point(c, &text, sfcp_strings::MspMethod::Efficient)
        });
        assert_eq!(
            reply.payload,
            ReplyPayload::Msp(msp.expect("direct msp") as u64)
        );
        assert_charges(&reply, stats, "canonize");

        // Decompose: structure fingerprint plus charges.
        let graph = generators::random_function(n, seed);
        let req = ComputeRequest::decompose(graph.table().to_vec()).no_cache();
        let reply = client.request(&req).expect("transport").expect("decompose");
        let (d, stats) = charged(&ctx, |c| try_decompose(c, &graph, CycleMethod::Euler));
        let d = d.expect("direct decompose");
        assert_eq!(
            reply.payload,
            ReplyPayload::Decomposition {
                num_cycles: d.num_cycles() as u64,
                num_cycle_nodes: d.cycle_nodes.len() as u64,
                digest: decomposition_digest(&d),
            }
        );
        assert_charges(&reply, stats, "decompose");
    }
    server.shutdown();
}

fn batch_members(count: usize, seed: u64) -> Vec<Instance> {
    (0..count)
        .map(|j| Instance::random(64 + (j * 37) % 240, 2 + j % 4, seed + j as u64))
        .collect()
}

fn batch_requests(members: &[Instance]) -> Vec<ComputeRequest> {
    members
        .iter()
        .map(|m| ComputeRequest::partition(m.f().to_vec(), m.blocks().to_vec()).no_cache())
        .collect()
}

/// Serve a batch frame of `members` on a worker directly (no transport).
fn serve_on(worker: &mut Worker, members: &[Instance]) -> Vec<Response> {
    let subs: Vec<(u64, ComputeRequest)> = (0..).zip(batch_requests(members)).collect();
    worker.serve_batch(0, &subs).responses
}

/// A member's solo direct call: its canonical labels and charges.
fn direct(ctx: &Ctx, member: &Instance) -> (ReplyPayload, Stats) {
    let (q, stats) = charged(ctx, |c| {
        try_coarsest_partition(c, member, Algorithm::Parallel)
    });
    (
        ReplyPayload::Labels(q.expect("direct").canonical().into_labels()),
        stats,
    )
}

/// Check one member's response against its solo direct call.
fn verify_member(response: &Response, ctx: &Ctx, member: &Instance, what: &str) {
    let reply = response
        .outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let (labels, stats) = direct(ctx, member);
    assert_eq!(reply.payload, labels, "{what}: labels");
    assert_charges(reply, stats, what);
}

/// Differentially verify every member of one batch's `responses`: each
/// member's labels and charges equal its own solo direct call.
fn verify_batch(responses: &[Response], ctx: &Ctx, members: &[Instance]) {
    assert_eq!(responses.len(), members.len());
    for (j, (member, response)) in members.iter().zip(responses).enumerate() {
        let what = format!("batch of {} member {j}", members.len());
        verify_member(response, ctx, member, &what);
    }
}

/// Batch sizes 1, 7, and 64 round-trip bit-for-bit, results and charges.
#[test]
fn batch_sizes_round_trip_bit_for_bit() {
    let server = Server::start(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let ctx = Ctx::parallel();

    for (size, seed) in [(1usize, 71), (7, 72), (64, 73)] {
        let members = batch_members(size, seed);
        let responses = client.batch(&batch_requests(&members)).expect("transport");
        verify_batch(&responses, &ctx, &members);
    }
    server.shutdown();
}

/// An injected fault inside one member of a batch fails that member alone
/// with a typed retryable error; the other six answer like direct calls,
/// and the very same batch replayed on the recovered warm worker is
/// differentially identical to direct calls.
#[test]
fn mid_batch_fault_then_replay_matches_direct_calls() {
    let mut worker = Worker::new(0, 1 << 20, false);
    let ctx = Ctx::parallel();
    let members = batch_members(7, 99);
    let requests = batch_requests(&members);

    // Arm the third engine pass of member 3: count the passes the members
    // before it take.
    let armed = 3;
    worker.ctx().workspace().faults().start_counting();
    for req in &requests[..armed] {
        let _ = worker.serve(0, req);
    }
    let (_, passes_before) = worker.ctx().workspace().faults().counts();
    worker.ctx().workspace().faults().arm(
        FaultSite::EnginePass,
        passes_before + 2,
        FaultKind::Panic,
    );
    let responses = serve_on(&mut worker, &members);
    assert_eq!(responses.len(), members.len());
    for (j, (member, response)) in members.iter().zip(&responses).enumerate() {
        if j == armed {
            let err = response
                .outcome
                .as_ref()
                .expect_err("the armed member fails");
            assert_eq!(err.code, ErrorCode::Execution);
            assert!(err.retryable, "an injected fault is retryable: {err}");
        } else {
            verify_member(
                response,
                &ctx,
                member,
                &format!("member {j} beside the fault"),
            );
        }
    }

    // The worker recovered; the replay must still be bit-identical.
    let replay = serve_on(&mut worker, &members);
    verify_batch(&replay, &ctx, &members);
}

/// Two workers drain one queue while four clients send interleaved compute
/// and batch frames: every answer and charge equals the direct call, and no
/// worker is left holding a workspace checkout.  Instances repeat across
/// clients, so some answers come from either worker's snapshot cache.
#[test]
fn two_workers_serve_concurrent_clients_like_direct_calls() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 24;
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let ctx = Ctx::parallel();
    let pool = batch_members(12, 0xc0c0);
    let expected: Vec<(ReplyPayload, Stats)> = pool.iter().map(|m| direct(&ctx, m)).collect();
    let start = std::sync::Barrier::new(CLIENTS);

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (pool, expected, start) = (&pool, &expected, &start);
            let addr = server.addr();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let check = |reply: &Reply, m: usize, what: &str| {
                    assert_eq!(reply.payload, expected[m].0, "client {c} {what}: labels");
                    assert_charges(reply, expected[m].1, what);
                };
                start.wait();
                for i in 0..REQUESTS {
                    let first = (c * 5 + i * 7) % pool.len();
                    if i % 3 == 2 {
                        let picks: Vec<usize> =
                            (0..5).map(|j| (first + j * 3) % pool.len()).collect();
                        let frame: Vec<Instance> = picks.iter().map(|&m| pool[m].clone()).collect();
                        let responses = client.batch(&batch_requests(&frame)).expect("transport");
                        assert_eq!(responses.len(), picks.len());
                        for (&m, response) in picks.iter().zip(&responses) {
                            let reply = response.outcome.as_ref().expect("batch member");
                            check(reply, m, "batch member");
                        }
                    } else {
                        let m = &pool[first];
                        let req = ComputeRequest::partition(m.f().to_vec(), m.blocks().to_vec());
                        let reply = client.request(&req).expect("transport").expect("solve");
                        check(&reply, first, "request");
                    }
                }
            });
        }
    });

    let mut client = Client::connect(server.addr()).expect("connect");
    let probe = client.probe().expect("transport").expect("probe");
    assert!(
        matches!(probe.payload, ReplyPayload::Probe { outstanding: 0, .. }),
        "a worker holds a checkout after the run: {:?}",
        probe.payload
    );
    server.shutdown();
}
