//! Differential harness for the serving layer: every request kind
//! round-trips through a live TCP service and must match a direct library
//! call **bit-for-bit** — both the answer and the charges.  Charges are
//! input-determined (machine-, warmth-, and topology-independent), which is
//! what makes this comparison meaningful: a warm service worker and a cold
//! harness context must report identical `(work, rounds)`.
//!
//! Coverage: every request kind on three seeded inputs, batch sizes
//! 1 / 7 / 64 (solo path, fused cohorts), and the same batch replayed after
//! an injected mid-batch fault (recovery must not poison the differential
//! property).  The fault test arms one `Worker`'s own context, so no test
//! here needs a lock.

use sfcp_pram::faults::{FaultKind, FaultSite};
use sfcp_pram::{Ctx, Stats};
use sfcp_repro::sfcp::{try_coarsest_partition, Algorithm, Instance};
use sfcp_repro::sfcp_forest::cycles::CycleMethod;
use sfcp_repro::sfcp_forest::{generators, try_decompose};
use sfcp_service::batch::{canonical_labels, fuse_instances, split_canonical_labels, BatchPolicy};
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
        let expect = canonical_labels(&q.expect("direct solve"));
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

/// Differentially verify every member of one batch's `responses`: answers
/// against solo direct solves, charges against the path the cohort actually
/// took (solo charges for a batch of one, fused-reference charges otherwise).
fn verify_batch(responses: &[Response], ctx: &Ctx, members: &[Instance]) {
    assert_eq!(responses.len(), members.len());

    let (expect_labels, expect_stats): (Vec<Vec<u32>>, Stats) = if members.len() == 1 {
        let (q, stats) = charged(ctx, |c| {
            try_coarsest_partition(c, &members[0], Algorithm::Parallel)
        });
        (vec![canonical_labels(&q.expect("direct"))], stats)
    } else {
        // The fused reference: the harness builds the same union instance
        // the worker fuses, and the cohort's charges must equal one direct
        // call on it.
        let fused = fuse_instances(members);
        let (q, stats) = charged(ctx, |c| {
            try_coarsest_partition(c, &fused.instance, Algorithm::Parallel)
        });
        (
            split_canonical_labels(q.expect("direct fused").labels(), &fused.spans),
            stats,
        )
    };

    for (j, (member, response)) in members.iter().zip(responses).enumerate() {
        let reply = response.outcome.as_ref().expect("member solve");
        assert_eq!(
            reply.fused as usize,
            members.len(),
            "batch of {} member {j}: cohort size",
            members.len()
        );
        assert_charges(reply, expect_stats, "batch member");
        assert_eq!(
            reply.payload,
            ReplyPayload::Labels(expect_labels[j].clone()),
            "batch of {} member {j}: fused-path labels",
            members.len()
        );
        // And the fused answer equals the member's *solo* direct solve —
        // the answer-preservation property end to end.
        let solo = try_coarsest_partition(ctx, member, Algorithm::Parallel).expect("solo");
        assert_eq!(
            reply.payload,
            ReplyPayload::Labels(canonical_labels(&solo)),
            "batch of {} member {j}: solo-equivalence",
            members.len()
        );
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

/// An injected mid-batch fault fails the whole cohort with typed retryable
/// errors, and the very same batch replayed on the recovered warm worker is
/// differentially identical to direct calls.
#[test]
fn mid_batch_fault_then_replay_matches_direct_calls() {
    let mut worker = Worker::new(0, 1 << 20, BatchPolicy::default(), false);
    let ctx = Ctx::parallel();
    let members = batch_members(7, 99);

    worker
        .ctx()
        .workspace()
        .faults()
        .arm(FaultSite::EnginePass, 2, FaultKind::Panic);
    let responses = serve_on(&mut worker, &members);
    assert_eq!(responses.len(), members.len());
    for response in &responses {
        let err = response
            .outcome
            .as_ref()
            .expect_err("faulted cohort member");
        assert_eq!(err.code, ErrorCode::Execution);
        assert!(err.retryable, "an injected fault is retryable: {err}");
    }

    // The worker recovered; the replay must still be bit-identical.
    let replay = serve_on(&mut worker, &members);
    verify_batch(&replay, &ctx, &members);
}
