//! A serving worker: one persistent [`Ctx`] (warm workspace pools), one
//! snapshot cache, one generated-workload cache.
//!
//! Every request kind funnels into a `pub fn handle_*` method returning a
//! typed `Result` — the facade-coverage lint enforces that naming, so no
//! handler can silently become panicking API.  The dispatch wrapper
//! additionally `catch_unwind`s the whole request and runs
//! [`Ctx::recover`] before reporting [`ErrorCode::Internal`]: a poisoned
//! request ends as a typed error on the wire and the worker keeps serving.

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
    cold_ctx: bool,
}

/// How many generated workloads a worker keeps around.
const GEN_CACHE_CAP: usize = 8;

impl Worker {
    /// A fresh worker.  `cache_bytes` bounds the snapshot cache (0
    /// disables it); `cold_ctx` rebuilds the context per request (the
    /// benchmark's cold-path baseline — never what you want in production).
    #[must_use]
    pub fn new(index: usize, cache_bytes: usize, cold_ctx: bool) -> Worker {
        Worker {
            index,
            ctx: Ctx::parallel(),
            cache: SnapshotCache::new(cache_bytes),
            gen: Vec::new(),
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

    /// Serve an explicit batch frame: each member is served on its own,
    /// in request order, exactly as if it had arrived alone.
    pub fn serve_batch(&mut self, id: u64, subs: &[(u64, ComputeRequest)]) -> BatchResponse {
        let responses = subs
            .iter()
            .map(|(sub_id, req)| self.serve(*sub_id, req))
            .collect();
        BatchResponse { id, responses }
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
                return cached_partition_reply(req, &snap);
            }
        }
        self.prepare_context();
        let (result, stats, trace_json) = self.traced_run(req.trace, |ctx| {
            try_coarsest_partition(ctx, &instance, Algorithm::Parallel)
        });
        let q = result.map_err(|e| ErrorReply::from_solver(0, &e))?;
        let labels = q.canonical().into_labels();
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

/// A reply served from a cached snapshot (labels payload only).
fn cached_partition_reply(req: &ComputeRequest, snap: &Snapshot) -> Result<Reply, ErrorReply> {
    let SnapshotPayload::Labels(labels) = &snap.payload else {
        return Err(ErrorReply {
            id: 0,
            code: ErrorCode::Internal,
            message: "cache entry kind mismatch".into(),
            retryable: true,
        });
    };
    let payload = if req.digest_only {
        ReplyPayload::LabelsDigest(labels_digest(labels))
    } else {
        ReplyPayload::Labels(labels.clone())
    };
    Ok(Reply {
        kind: req.kind.name(),
        payload,
        work: snap.work,
        rounds: snap.rounds,
        cached: true,
        trace_json: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker() -> Worker {
        Worker::new(0, 1 << 20, false)
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

    /// Batch members go through the snapshot cache like solo requests: a
    /// member answered inside a batch is a cache hit when it arrives alone,
    /// and a replayed batch is served from the cache member by member.
    #[test]
    fn batch_members_share_the_snapshot_cache() {
        let mut w = worker();
        let subs: Vec<(u64, ComputeRequest)> = (0..3)
            .map(|i| {
                let inst = Instance::random(300, 3, i);
                let req = ComputeRequest::partition(inst.f().to_vec(), inst.blocks().to_vec());
                (100 + i, req)
            })
            .collect();
        let batch = w.serve_batch(50, &subs);
        assert_eq!(batch.id, 50);
        assert_eq!(batch.responses.len(), 3);
        let first: Vec<Reply> = subs
            .iter()
            .zip(batch.responses)
            .map(|((sub_id, _), resp)| {
                assert_eq!(resp.id, *sub_id);
                let reply = resp.outcome.expect("batch member succeeds");
                assert!(!reply.cached, "a first sighting is computed");
                reply
            })
            .collect();

        let solo = w.serve(999, &subs[0].1).outcome.expect("solo request");
        assert!(solo.cached, "the batch member's answer was cached");
        assert_eq!(solo.payload, first[0].payload);
        assert_eq!((solo.work, solo.rounds), (first[0].work, first[0].rounds));

        let replay = w.serve_batch(51, &subs);
        for (resp, reply) in replay.responses.iter().zip(&first) {
            let again = resp.outcome.as_ref().expect("replayed member succeeds");
            assert!(again.cached, "a replayed member hits the cache");
            assert_eq!(again.payload, reply.payload);
            assert_eq!((again.work, again.rounds), (reply.work, reply.rounds));
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
