//! A serving worker: one persistent [`Ctx`] (warm workspace pools), one
//! snapshot cache, one generated-workload cache.
//!
//! Every request kind funnels into a `pub fn handle_*` method returning a
//! typed `Result` — the facade-coverage lint enforces that naming, so no
//! handler can silently become panicking API.  The dispatch wrapper
//! additionally `catch_unwind`s the whole request and runs
//! [`Ctx::recover`] before reporting [`ErrorCode::Internal`]: a poisoned
//! request ends as a typed error on the wire and the worker keeps serving.

use crate::batch::{canonical_labels, fuse_instances, split_canonical_labels, BatchPolicy};
use crate::error::{ErrorCode, ErrorReply};
use crate::proto::{BatchResponse, ComputeRequest, Input, Kind, Reply, ReplyPayload, Response};
use crate::snapshot::{
    decomposition_digest, labels_digest, Snapshot, SnapshotCache, SnapshotPayload,
};
use sfcp::{try_coarsest_partition, Algorithm, Instance};
use sfcp_forest::cycles::CycleMethod;
use sfcp_forest::{generators, try_decompose, FunctionalGraph};
use sfcp_pram::{Ctx, Stats};
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Cap on server-side generated workload domains: a workload request is a
/// few wire bytes, so generation must not become a memory amplifier.
pub const MAX_WORKLOAD_N: usize = 1 << 26;

/// Generated inputs cached per worker, so repeated `(n, seed)` workloads
/// (the latency benchmark's steady state) skip regeneration.
enum GenEntry {
    Instance(Rc<Instance>),
    Graph(Rc<FunctionalGraph>),
    Text(Rc<Vec<u32>>),
}

/// Deterministic string workload: splitmix64 stream over `seed`, symbols
/// in `0..alphabet`.  Exported so the differential harness regenerates the
/// same input the server computed on.
#[must_use]
pub fn workload_string(n: usize, seed: u64, alphabet: u32) -> Vec<u32> {
    let alphabet = u64::from(alphabet.max(1));
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z % alphabet) as u32
        })
        .collect()
}

/// One serving worker.  Single-threaded owner of its context; the server
/// gives each worker thread exactly one.
pub struct Worker {
    index: usize,
    ctx: Ctx,
    cache: SnapshotCache,
    gen: Vec<((u8, u64, u64, u32), GenEntry)>,
    policy: BatchPolicy,
    cold_ctx: bool,
}

/// How many generated workloads a worker keeps around.
const GEN_CACHE_CAP: usize = 8;

impl Worker {
    /// A fresh worker.  `cache_bytes` bounds the snapshot cache (0
    /// disables it); `cold_ctx` rebuilds the context per request (the
    /// benchmark's cold-path baseline — never what you want in production).
    #[must_use]
    pub fn new(index: usize, cache_bytes: usize, policy: BatchPolicy, cold_ctx: bool) -> Worker {
        Worker {
            index,
            ctx: Ctx::parallel(),
            cache: SnapshotCache::new(cache_bytes),
            gen: Vec::new(),
            policy,
            cold_ctx,
        }
    }

    /// Serve one compute request, panic-safely: any escaped panic recovers
    /// the context and reports a typed internal error.
    pub fn serve(&mut self, id: u64, req: &ComputeRequest) -> Response {
        let outcome = catch_unwind(AssertUnwindSafe(|| self.dispatch(req)));
        let outcome = match outcome {
            Ok(result) => result.map_err(|mut e| {
                e.id = id;
                e
            }),
            Err(payload) => {
                self.ctx.recover();
                let err = sfcp_pram::Error::from_panic(payload);
                Err(ErrorReply {
                    id,
                    code: ErrorCode::Internal,
                    message: err.to_string(),
                    retryable: true,
                })
            }
        };
        Response { id, outcome }
    }

    /// Serve an explicit batch frame: partition-family members fuse into
    /// cohort invocations under the admission policy; other kinds run solo.
    pub fn serve_batch(&mut self, id: u64, subs: &[(u64, ComputeRequest)]) -> BatchResponse {
        let mut responses: Vec<Option<Response>> = vec![None; subs.len()];

        // Pass 1: solo kinds, cache hits, and input errors resolve
        // immediately; fusable members queue up.
        let mut fusable: Vec<(usize, Rc<Instance>)> = Vec::new();
        for (slot, (sub_id, req)) in subs.iter().enumerate() {
            let fuse_candidate = matches!(req.kind, Kind::Partition | Kind::MinimizeDfa)
                && !req.trace
                && subs.len() > 1;
            if !fuse_candidate {
                responses[slot] = Some(self.serve(*sub_id, req));
                continue;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| self.resolve_instance(req)));
            match outcome {
                Err(payload) => {
                    self.ctx.recover();
                    let err = sfcp_pram::Error::from_panic(payload);
                    responses[slot] = Some(Response {
                        id: *sub_id,
                        outcome: Err(ErrorReply {
                            id: *sub_id,
                            code: ErrorCode::Internal,
                            message: err.to_string(),
                            retryable: true,
                        }),
                    });
                }
                Ok(Err(mut e)) => {
                    e.id = *sub_id;
                    responses[slot] = Some(Response {
                        id: *sub_id,
                        outcome: Err(e),
                    });
                }
                Ok(Ok(instance)) => {
                    if req.use_cache {
                        let key = partition_key(&instance);
                        if let Some(snap) = self.cache.get(key) {
                            responses[slot] = Some(cached_partition_response(*sub_id, req, &snap));
                            continue;
                        }
                    }
                    fusable.push((slot, instance));
                }
            }
        }

        // Pass 2: chunk the fusable members in request order under the size
        // caps; singleton chunks fall back
        // to the solo path (identical semantics AND identical charges —
        // fusion canonicalizes initial blocks, which is only
        // charge-transparent when the whole cohort is compared against a
        // fused reference).
        let mut chunks: Vec<Vec<(usize, Rc<Instance>)>> = Vec::new();
        for (slot, instance) in fusable {
            let fits = chunks.last().is_some_and(|chunk| {
                let chunk_n: usize = chunk.iter().map(|(_, i)| i.len()).sum();
                chunk.len() < self.policy.max_batch
                    && chunk_n + instance.len() <= self.policy.max_fused_n
            });
            if fits {
                chunks
                    .last_mut()
                    .expect("checked above")
                    .push((slot, instance));
            } else {
                chunks.push(vec![(slot, instance)]);
            }
        }
        for chunk in chunks {
            if chunk.len() == 1 {
                let (slot, _) = chunk[0];
                let (sub_id, req) = &subs[slot];
                responses[slot] = Some(self.serve(*sub_id, req));
                continue;
            }
            self.serve_fused_chunk(subs, &chunk, &mut responses);
        }

        let responses = responses
            .into_iter()
            .enumerate()
            .map(|(slot, r)| {
                r.unwrap_or_else(|| Response {
                    id: subs[slot].0,
                    outcome: Err(ErrorReply {
                        id: subs[slot].0,
                        code: ErrorCode::Internal,
                        message: "request fell through batch admission".into(),
                        retryable: true,
                    }),
                })
            })
            .collect();
        BatchResponse { id, responses }
    }

    /// One fused solver invocation for a chunk of ≥ 2 members.
    fn serve_fused_chunk(
        &mut self,
        subs: &[(u64, ComputeRequest)],
        chunk: &[(usize, Rc<Instance>)],
        responses: &mut [Option<Response>],
    ) {
        let members: Vec<Instance> = chunk.iter().map(|(_, i)| (**i).clone()).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let fused = fuse_instances(&members);
            self.prepare_context();
            self.ctx.reset_stats();
            let result = try_coarsest_partition(&self.ctx, &fused.instance, Algorithm::Parallel);
            let stats = self.ctx.stats();
            result.map(|q| (split_canonical_labels(q.labels(), &fused.spans), stats))
        }));
        let fused_result = match outcome {
            Ok(r) => r,
            Err(payload) => {
                self.ctx.recover();
                let err = sfcp_pram::Error::from_panic(payload);
                for &(slot, _) in chunk {
                    let sub_id = subs[slot].0;
                    responses[slot] = Some(Response {
                        id: sub_id,
                        outcome: Err(ErrorReply {
                            id: sub_id,
                            code: ErrorCode::Internal,
                            message: err.to_string(),
                            retryable: true,
                        }),
                    });
                }
                return;
            }
        };
        match fused_result {
            Err(e) => {
                // One poisoned member fails its whole cohort; every member
                // gets the typed (retryable) error, and the recovered
                // context serves the next request with baseline charges.
                for &(slot, _) in chunk {
                    let sub_id = subs[slot].0;
                    responses[slot] = Some(Response {
                        id: sub_id,
                        outcome: Err(ErrorReply::from_solver(sub_id, &e)),
                    });
                }
            }
            Ok((split, stats)) => {
                let cohort = u32::try_from(chunk.len()).unwrap_or(u32::MAX);
                for (&(slot, _), labels) in chunk.iter().zip(split) {
                    let (sub_id, req) = &subs[slot];
                    let payload = if req.digest_only {
                        ReplyPayload::LabelsDigest(labels_digest(&labels))
                    } else {
                        ReplyPayload::Labels(labels)
                    };
                    responses[slot] = Some(Response {
                        id: *sub_id,
                        outcome: Ok(Reply {
                            kind: req.kind.name(),
                            payload,
                            work: stats.work,
                            rounds: stats.rounds,
                            cached: false,
                            fused: cohort,
                            trace_json: None,
                        }),
                    });
                }
            }
        }
    }

    fn dispatch(&mut self, req: &ComputeRequest) -> Result<Reply, ErrorReply> {
        match req.kind {
            Kind::Partition => self.handle_partition(req),
            Kind::MinimizeDfa => self.handle_minimize(req),
            Kind::Canonize => self.handle_canonize(req),
            Kind::Decompose => self.handle_decompose(req),
        }
    }

    /// Coarsest partition of one instance, with snapshot caching.
    pub fn handle_partition(&mut self, req: &ComputeRequest) -> Result<Reply, ErrorReply> {
        let instance = self.resolve_instance(req)?;
        let key = partition_key(&instance);
        if req.use_cache {
            if let Some(snap) = self.cache.get(key) {
                return match cached_partition_response(0, req, &snap).outcome {
                    Ok(reply) => Ok(Reply {
                        kind: req.kind.name(),
                        ..reply
                    }),
                    Err(e) => Err(e),
                };
            }
        }
        self.prepare_context();
        let (result, stats, trace_json) = self.traced_run(req.trace, |ctx| {
            try_coarsest_partition(ctx, &instance, Algorithm::Parallel)
        });
        let q = result.map_err(|e| ErrorReply::from_solver(0, &e))?;
        let labels = canonical_labels(&q);
        if req.use_cache {
            self.cache.insert(
                key,
                &Snapshot {
                    payload: SnapshotPayload::Labels(labels.clone()),
                    work: stats.work,
                    rounds: stats.rounds,
                },
            );
        }
        let payload = if req.digest_only {
            ReplyPayload::LabelsDigest(labels_digest(&labels))
        } else {
            ReplyPayload::Labels(labels)
        };
        Ok(Reply {
            kind: req.kind.name(),
            payload,
            work: stats.work,
            rounds: stats.rounds,
            cached: false,
            fused: 1,
            trace_json,
        })
    }

    /// Unary-DFA minimization: the same refinement, DFA-flavored fields.
    pub fn handle_minimize(&mut self, req: &ComputeRequest) -> Result<Reply, ErrorReply> {
        self.handle_partition(req)
    }

    /// Circular-string canonization: least rotation starting point.
    pub fn handle_canonize(&mut self, req: &ComputeRequest) -> Result<Reply, ErrorReply> {
        let text = self.resolve_text(req)?;
        let key = input_key(3, &text);
        if req.use_cache {
            if let Some(snap) = self.cache.get(key) {
                if let SnapshotPayload::Msp(k) = snap.payload {
                    return Ok(Reply {
                        kind: req.kind.name(),
                        payload: ReplyPayload::Msp(k),
                        work: snap.work,
                        rounds: snap.rounds,
                        cached: true,
                        fused: 1,
                        trace_json: None,
                    });
                }
            }
        }
        self.prepare_context();
        let (result, stats, trace_json) = self.traced_run(req.trace, |ctx| {
            sfcp_strings::try_minimal_starting_point(ctx, &text, sfcp_strings::MspMethod::Efficient)
        });
        let msp = result.map_err(|e| ErrorReply::from_pram(0, &e))? as u64;
        if req.use_cache {
            self.cache.insert(
                key,
                &Snapshot {
                    payload: SnapshotPayload::Msp(msp),
                    work: stats.work,
                    rounds: stats.rounds,
                },
            );
        }
        Ok(Reply {
            kind: req.kind.name(),
            payload: ReplyPayload::Msp(msp),
            work: stats.work,
            rounds: stats.rounds,
            cached: false,
            fused: 1,
            trace_json,
        })
    }

    /// Pseudoforest decomposition summary.
    pub fn handle_decompose(&mut self, req: &ComputeRequest) -> Result<Reply, ErrorReply> {
        let graph = self.resolve_graph(req)?;
        let key = input_key(4, graph.table());
        if req.use_cache {
            if let Some(snap) = self.cache.get(key) {
                if let SnapshotPayload::Decomposition {
                    num_cycles,
                    num_cycle_nodes,
                    digest,
                } = snap.payload
                {
                    return Ok(Reply {
                        kind: req.kind.name(),
                        payload: ReplyPayload::Decomposition {
                            num_cycles,
                            num_cycle_nodes,
                            digest,
                        },
                        work: snap.work,
                        rounds: snap.rounds,
                        cached: true,
                        fused: 1,
                        trace_json: None,
                    });
                }
            }
        }
        self.prepare_context();
        let (result, stats, trace_json) = self.traced_run(req.trace, |ctx| {
            try_decompose(ctx, &graph, CycleMethod::Euler)
        });
        let d = result.map_err(|e| ErrorReply::from_pram(0, &e))?;
        let payload = ReplyPayload::Decomposition {
            num_cycles: d.num_cycles() as u64,
            num_cycle_nodes: d.cycle_nodes.len() as u64,
            digest: decomposition_digest(&d),
        };
        if req.use_cache {
            if let ReplyPayload::Decomposition {
                num_cycles,
                num_cycle_nodes,
                digest,
            } = payload
            {
                self.cache.insert(
                    key,
                    &Snapshot {
                        payload: SnapshotPayload::Decomposition {
                            num_cycles,
                            num_cycle_nodes,
                            digest,
                        },
                        work: stats.work,
                        rounds: stats.rounds,
                    },
                );
            }
        }
        Ok(Reply {
            kind: req.kind.name(),
            payload,
            work: stats.work,
            rounds: stats.rounds,
            cached: false,
            fused: 1,
            trace_json,
        })
    }

    /// Introspection: workspace and cache state of this worker (tests
    /// assert post-fault recovery invariants through this).
    pub fn handle_probe(&self) -> Result<Reply, ErrorReply> {
        let ws = self.ctx.workspace().stats();
        let cache = self.cache.stats();
        Ok(Reply {
            kind: "probe",
            payload: ReplyPayload::Probe {
                worker: self.index as u64,
                outstanding: ws.outstanding(),
                pooled_bytes: self.ctx.workspace().pooled_bytes(),
                cache_hits: cache.hits,
                cache_misses: cache.misses,
                cache_bytes: cache.bytes as u64,
            },
            work: 0,
            rounds: 0,
            cached: false,
            fused: 1,
            trace_json: None,
        })
    }

    /// This worker's persistent context (test support: arm its
    /// [`Faults`](sfcp_pram::faults::Faults) injector to fail a later
    /// serve).  A `cold_ctx` worker replaces it on every request.
    #[doc(hidden)]
    #[must_use]
    pub fn ctx(&self) -> &Ctx {
        &self.ctx
    }

    /// The admission policy this worker batches under.
    #[must_use]
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Ready the context for a run.  In cold mode the context (pools and
    /// all) is rebuilt from scratch — the per-request cost every library
    /// entry point pays today, kept as the benchmark baseline.
    fn prepare_context(&mut self) {
        if self.cold_ctx {
            self.ctx = Ctx::parallel();
        }
    }

    /// Run a closure under fresh stats (and, when asked, a fresh trace),
    /// returning its result, the run's charges, and the trace summary.
    fn traced_run<T>(
        &mut self,
        trace: bool,
        run: impl FnOnce(&Ctx) -> T,
    ) -> (T, Stats, Option<String>) {
        if trace {
            self.ctx.trace().clear();
            self.ctx.trace().enable();
        }
        self.ctx.reset_stats();
        let result = run(&self.ctx);
        let stats = self.ctx.stats();
        let trace_json = if trace {
            let summary = self.ctx.trace().snapshot().summary().to_json();
            self.ctx.trace().disable();
            Some(summary)
        } else {
            None
        };
        (result, stats, trace_json)
    }

    fn gen_lookup(
        &mut self,
        key: (u8, u64, u64, u32),
        build: impl FnOnce() -> GenEntry,
    ) -> &GenEntry {
        if let Some(pos) = self.gen.iter().position(|(k, _)| *k == key) {
            return &self.gen[pos].1;
        }
        if self.gen.len() >= GEN_CACHE_CAP {
            self.gen.remove(0);
        }
        self.gen.push((key, build()));
        &self.gen.last().expect("just pushed").1
    }

    fn check_workload(n: usize) -> Result<(), ErrorReply> {
        if n == 0 || n > MAX_WORKLOAD_N {
            return Err(ErrorReply {
                id: 0,
                code: ErrorCode::InvalidInput,
                message: format!("workload n must be in 1..={MAX_WORKLOAD_N}, got {n}"),
                retryable: false,
            });
        }
        Ok(())
    }

    fn resolve_instance(&mut self, req: &ComputeRequest) -> Result<Rc<Instance>, ErrorReply> {
        match &req.input {
            Input::Inline { f, blocks } => Instance::try_new(f.clone(), blocks.clone())
                .map(Rc::new)
                .map_err(|e| ErrorReply::from_pram(0, &e)),
            Input::Workload { n, seed, param } => {
                Worker::check_workload(*n)?;
                let (n, seed, param) = (*n, *seed, *param);
                let entry = self.gen_lookup((1, n as u64, seed, param), || {
                    GenEntry::Instance(Rc::new(Instance::random(n, param as usize, seed)))
                });
                match entry {
                    GenEntry::Instance(i) => Ok(Rc::clone(i)),
                    _ => unreachable!("keyed by kind tag"),
                }
            }
        }
    }

    fn resolve_graph(&mut self, req: &ComputeRequest) -> Result<Rc<FunctionalGraph>, ErrorReply> {
        match &req.input {
            Input::Inline { f, .. } => FunctionalGraph::try_new(f.clone())
                .map(Rc::new)
                .map_err(|e| ErrorReply::from_pram(0, &e)),
            Input::Workload { n, seed, .. } => {
                Worker::check_workload(*n)?;
                let (n, seed) = (*n, *seed);
                let entry = self.gen_lookup((2, n as u64, seed, 0), || {
                    GenEntry::Graph(Rc::new(generators::random_function(n, seed)))
                });
                match entry {
                    GenEntry::Graph(g) => Ok(Rc::clone(g)),
                    _ => unreachable!("keyed by kind tag"),
                }
            }
        }
    }

    fn resolve_text(&mut self, req: &ComputeRequest) -> Result<Rc<Vec<u32>>, ErrorReply> {
        match &req.input {
            Input::Inline { f, .. } => Ok(Rc::new(f.clone())),
            Input::Workload { n, seed, param } => {
                Worker::check_workload(*n)?;
                let (n, seed, param) = (*n, *seed, *param);
                let entry = self.gen_lookup((3, n as u64, seed, param), || {
                    GenEntry::Text(Rc::new(workload_string(n, seed, param)))
                });
                match entry {
                    GenEntry::Text(t) => Ok(Rc::clone(t)),
                    _ => unreachable!("keyed by kind tag"),
                }
            }
        }
    }
}

/// Cache key for partition-family requests: the instance digest.
fn partition_key(instance: &Instance) -> u64 {
    let mut h = sfcp_pram::fxhash::FxHasher::default();
    h.write_u8(1);
    h.write_u64(instance.digest());
    h.finish()
}

/// Cache key for array-shaped inputs (canonize, decompose).
fn input_key(tag: u8, values: &[u32]) -> u64 {
    let mut h = sfcp_pram::fxhash::FxHasher::default();
    h.write_u8(tag);
    h.write_u64(values.len() as u64);
    for &v in values {
        h.write_u32(v);
    }
    h.finish()
}

/// A response served from a cached snapshot (labels payload only).
fn cached_partition_response(id: u64, req: &ComputeRequest, snap: &Snapshot) -> Response {
    let SnapshotPayload::Labels(labels) = &snap.payload else {
        return Response {
            id,
            outcome: Err(ErrorReply {
                id,
                code: ErrorCode::Internal,
                message: "cache entry kind mismatch".into(),
                retryable: true,
            }),
        };
    };
    let payload = if req.digest_only {
        ReplyPayload::LabelsDigest(labels_digest(labels))
    } else {
        ReplyPayload::Labels(labels.clone())
    };
    Response {
        id,
        outcome: Ok(Reply {
            kind: req.kind.name(),
            payload,
            work: snap.work,
            rounds: snap.rounds,
            cached: true,
            fused: 1,
            trace_json: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker() -> Worker {
        Worker::new(0, 1 << 20, BatchPolicy::default(), false)
    }

    #[test]
    fn partition_round_trips_and_caches() {
        let mut w = worker();
        let req = ComputeRequest::partition(
            Instance::paper_example().f().to_vec(),
            Instance::paper_example().blocks().to_vec(),
        );
        let first = w.serve(1, &req);
        let reply = first.outcome.as_ref().expect("first solve succeeds");
        assert!(!reply.cached);
        let ReplyPayload::Labels(labels) = &reply.payload else {
            panic!("labels expected");
        };
        // The paper's Example 3.1 partition, canonicalized.
        assert_eq!(labels[..4], [0, 1, 0, 2]);

        let second = w.serve(2, &req);
        let reply2 = second.outcome.as_ref().expect("cache hit succeeds");
        assert!(
            reply2.cached,
            "identical request must hit the snapshot cache"
        );
        assert_eq!(reply2.payload, reply.payload);
        assert_eq!((reply2.work, reply2.rounds), (reply.work, reply.rounds));
    }

    #[test]
    fn bad_input_is_typed_and_worker_survives() {
        let mut w = worker();
        let bad = ComputeRequest::partition(vec![9, 0], vec![0, 0]);
        let resp = w.serve(7, &bad);
        let err = resp.outcome.expect_err("out-of-range f must fail");
        assert_eq!(err.code, ErrorCode::InvalidInput);
        assert_eq!(err.id, 7);
        assert!(!err.retryable);

        let ok = w.serve(8, &ComputeRequest::decompose(vec![1, 0]));
        assert!(
            ok.outcome.is_ok(),
            "worker keeps serving after a bad request"
        );
    }

    #[test]
    fn batch_fusion_matches_solo_answers() {
        let mut w = worker();
        let make = |seed: u64| {
            let inst = Instance::random(300, 3, seed);
            ComputeRequest::partition(inst.f().to_vec(), inst.blocks().to_vec()).no_cache()
        };
        let subs: Vec<(u64, ComputeRequest)> = (0..5).map(|i| (100 + i, make(i))).collect();
        let batch = w.serve_batch(50, &subs);
        assert_eq!(batch.responses.len(), 5);
        for ((sub_id, req), resp) in subs.iter().zip(&batch.responses) {
            assert_eq!(resp.id, *sub_id);
            let reply = resp.outcome.as_ref().expect("fused member succeeds");
            assert_eq!(reply.fused, 5, "all five members share one invocation");
            let solo = w.serve(999, req);
            assert_eq!(
                solo.outcome.expect("solo solve").payload,
                reply.payload,
                "fused answer must equal the solo answer"
            );
        }
    }

    #[test]
    fn workload_inputs_are_deterministic() {
        let mut w = worker();
        let req = ComputeRequest::workload(Kind::Decompose, 5_000, 42, 0).digest_only();
        let a = w.serve(1, &req);
        let b = w.serve(2, &req);
        assert_eq!(a.outcome.unwrap().payload, b.outcome.unwrap().payload);

        let oversized = ComputeRequest::workload(Kind::Decompose, MAX_WORKLOAD_N + 1, 1, 0);
        let err = w
            .serve(3, &oversized)
            .outcome
            .expect_err("oversized workload");
        assert_eq!(err.code, ErrorCode::InvalidInput);
    }

    #[test]
    fn probe_reports_reconciled_workspace() {
        let mut w = worker();
        let _ = w.serve(1, &ComputeRequest::workload(Kind::Partition, 2_000, 5, 3));
        let probe = w.handle_probe().expect("probe");
        let ReplyPayload::Probe {
            outstanding,
            pooled_bytes,
            ..
        } = probe.payload
        else {
            panic!("probe payload");
        };
        assert_eq!(outstanding, 0);
        assert!(pooled_bytes > 0, "pools stay warm between requests");
    }
}
