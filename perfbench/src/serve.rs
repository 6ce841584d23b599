//! Load for the serving layer: a closed loop of inline partition requests
//! against an in-process `sfcp_service::Server` over loopback.
//!
//! Requests are generated here and sent as whole JSON frames, so the
//! server's frame read and JSON parse lie inside every measured latency.
//! Each client draws its requests from its own seeded stream ([`Mix`]): a
//! size out of three, and either a repeat from a small pool (a cache read
//! once the pool is warm) or a fresh instance (a cache write).

use crate::family::{self, Family};
use sfcp::{Instance, Partition};
use sfcp_pram::Ctx;
use sfcp_service::json::{self, Value};
use sfcp_service::proto::RequestBody;
use sfcp_service::{
    Client, ComputeRequest, ReplyPayload, Request, Response, Server, ServerConfig, ServerHandle,
};
use std::hash::Hasher;
use std::net::SocketAddr;
use std::time::Instant;

/// Pool instances per request size.
pub const POOL_PER_SIZE: usize = 2;

/// Traced, uncached requests per largest-size pool instance in a traced run.
const TRACED_REPS: usize = 2;

/// Timed `Request::decode` / `Response::encode` calls per largest-size frame.
const CODEC_REPS: usize = 3;

/// One repeated request.
pub struct PoolEntry {
    /// Index into the request sizes.
    pub size_idx: usize,
    /// The instance.
    pub inst: Instance,
    /// Its encoded request frame.
    pub frame: Vec<u8>,
    /// The id inside `frame`.
    pub id: u64,
}

/// A running server with its pool warmed.
pub struct Service {
    /// The server.
    pub server: ServerHandle,
    /// The repeated requests.
    pub pool: Vec<PoolEntry>,
    /// The server's first, uncached reply to each pool request.
    pub warm: Vec<Response>,
}

/// SplitMix64: the seeded stream behind every request choice.
#[must_use]
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One request choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// Index into the request sizes.
    pub size_idx: usize,
    /// `Some(seed)` for a fresh instance, `None` for a pool repeat.
    pub fresh: Option<u64>,
    /// Which pool instance of that size, for a repeat.
    pub pool_j: usize,
}

/// A client's request stream, in rounds of six: every (size, repeat or
/// fresh) pair once per round, in a seeded order, so the mix has exact
/// proportions whatever the request count.
pub struct Mix {
    state: u64,
    round: Vec<(usize, bool)>,
}

impl Mix {
    /// The stream of client `client` under `seed`.
    #[must_use]
    pub fn new(seed: u64, client: usize) -> Mix {
        Mix {
            state: seed ^ ((client as u64 + 1) << 48),
            round: Vec::new(),
        }
    }

    /// The next choice.
    pub fn pick(&mut self) -> Pick {
        if self.round.is_empty() {
            self.round = (0..3).flat_map(|s| [(s, false), (s, true)]).collect();
            for i in (1..self.round.len()).rev() {
                let j = (splitmix(&mut self.state) % (i as u64 + 1)) as usize;
                self.round.swap(i, j);
            }
        }
        let (size_idx, fresh) = self.round.pop().expect("a round was just filled");
        let r = splitmix(&mut self.state);
        Pick {
            size_idx,
            fresh: fresh.then_some(r),
            pool_j: (r % POOL_PER_SIZE as u64) as usize,
        }
    }
}

/// Seed of pool instance `j` of size `size_idx`.
#[must_use]
pub fn pool_seed(seed: u64, size_idx: usize, j: usize) -> u64 {
    let mut s = seed ^ 0x5eed_0000 ^ ((size_idx * POOL_PER_SIZE + j) as u64);
    splitmix(&mut s)
}

/// A partition request frame over `inst`'s inline arrays.
#[must_use]
pub fn frame(id: u64, req: ComputeRequest) -> Vec<u8> {
    Request {
        id,
        body: RequestBody::Compute(req),
    }
    .encode()
}

fn partition_request(inst: &Instance) -> ComputeRequest {
    ComputeRequest::partition(inst.f().to_vec(), inst.blocks().to_vec())
}

/// FxHash of a label array.
#[must_use]
pub fn digest(labels: &[u32]) -> u64 {
    let mut h = sfcp_pram::fxhash::FxHasher::default();
    labels.iter().for_each(|&l| h.write_u32(l));
    h.finish()
}

/// Digest of a partition's canonical (first-occurrence) labels, the form
/// the server replies with.
#[must_use]
pub fn canonical_digest(q: &Partition) -> u64 {
    digest(q.canonical().labels())
}

/// Send one frame and decode the reply, checking the echoed id.
///
/// # Errors
/// Transport, protocol and server-side errors, as text.
pub fn call(client: &mut Client, id: u64, frame: &[u8]) -> Result<Response, String> {
    let payload = client.call_raw(frame).map_err(|e| e.to_string())?;
    decode(id, &payload)
}

/// Decode a reply frame to request `id`, checking the echoed id.
fn decode(id: u64, payload: &[u8]) -> Result<Response, String> {
    let response = Response::decode(payload)?;
    if response.id != id {
        return Err(format!("reply id {} to request {id}", response.id));
    }
    Ok(response)
}

/// `(cached, digest of labels)` of a partition reply.
fn labels_of(response: &Response) -> Result<(bool, u64), String> {
    match &response.outcome {
        Ok(reply) => match &reply.payload {
            ReplyPayload::Labels(labels) => Ok((reply.cached, digest(labels))),
            other => Err(format!("unexpected payload {other:?}")),
        },
        Err(e) => Err(format!("{:?}: {}", e.code, e.message)),
    }
}

/// Build the pool, start a server with the default configuration, and send
/// every pool request once (uncached solves that warm the worker's context
/// and fill its cache).  This is the serving workload's set-up.
///
/// # Errors
/// Server start and warm-up failures.
pub fn start(fam: Family, sizes: &[usize; 3], seed: u64) -> Result<Service, String> {
    let mut pool = Vec::with_capacity(3 * POOL_PER_SIZE);
    for (size_idx, &n) in sizes.iter().enumerate() {
        for j in 0..POOL_PER_SIZE {
            let inst = fam.instance(n, pool_seed(seed, size_idx, j));
            let id = pool.len() as u64 + 1;
            let frame = frame(id, partition_request(&inst));
            pool.push(PoolEntry {
                size_idx,
                inst,
                frame,
                id,
            });
        }
    }
    let server = Server::start(ServerConfig::default()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let warm = pool
        .iter()
        .map(|e| call(&mut client, e.id, &e.frame))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Service { server, pool, warm })
}

/// Where a request's instance came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Index into the pool.
    Pool(usize),
    /// Seed of a fresh instance.
    Fresh(u64),
}

/// One request of the loop.
pub struct ReqRec {
    /// Index into the request sizes.
    pub size_idx: usize,
    /// Where its instance came from.
    pub source: Source,
    /// When its frame started going out.
    pub start: Instant,
    /// When its reply frame had been read.
    pub end: Instant,
    /// `(cached, digest of labels)`, or what went wrong.
    pub result: Result<(bool, u64), String>,
}

impl ReqRec {
    /// Round-trip latency in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The closed loop: `clients` connections, each sending its next request
/// as soon as the previous reply arrives, until `deadline`.  Fresh
/// instances are generated and encoded by the client before its timer
/// starts.  Returns the requests and the loop's wall time in seconds.
#[must_use]
pub fn closed_loop(
    service: &Service,
    fam: Family,
    sizes: &[usize; 3],
    seed: u64,
    clients: usize,
    deadline: Instant,
) -> (Vec<ReqRec>, f64) {
    let addr = service.server.addr();
    let start = Instant::now();
    let per_client: Vec<Vec<ReqRec>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || client_loop(addr, c, &service.pool, fam, sizes, seed, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    (per_client.into_iter().flatten().collect(), wall)
}

fn client_loop(
    addr: SocketAddr,
    c: usize,
    pool: &[PoolEntry],
    fam: Family,
    sizes: &[usize; 3],
    seed: u64,
    deadline: Instant,
) -> Vec<ReqRec> {
    let mut out = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            let now = Instant::now();
            out.push(ReqRec {
                size_idx: 0,
                source: Source::Pool(0),
                start: now,
                end: now,
                result: Err(format!("connect: {e}")),
            });
            return out;
        }
    };
    let mut mix = Mix::new(seed, c);
    let mut next_id = ((c as u64 + 1) << 32) + 1;
    // At least one full round, so every (size, repeat or fresh) pair is
    // measured however short the loop.
    while out.len() < 6 || Instant::now() < deadline {
        let pick = mix.pick();
        let fresh_frame;
        let (id, bytes, source) = match pick.fresh {
            Some(fresh_seed) => {
                next_id += 1;
                let inst = fam.instance(sizes[pick.size_idx], fresh_seed);
                fresh_frame = frame(next_id, partition_request(&inst));
                (next_id, fresh_frame.as_slice(), Source::Fresh(fresh_seed))
            }
            None => {
                let k = pick.size_idx * POOL_PER_SIZE + pick.pool_j;
                (pool[k].id, pool[k].frame.as_slice(), Source::Pool(k))
            }
        };
        let start = Instant::now();
        let reply = client.call_raw(bytes);
        let end = Instant::now();
        let result = reply
            .map_err(|e| e.to_string())
            .and_then(|payload| labels_of(&decode(id, &payload)?));
        out.push(ReqRec {
            size_idx: pick.size_idx,
            source,
            start,
            end,
            result,
        });
    }
    out
}

/// Expected reply digest of every pool instance, from a direct library
/// solve on `ctx` that is itself checked against the reference block count.
///
/// # Errors
/// A failed check of a direct solve.
pub fn pool_references(ctx: &Ctx, pool: &[PoolEntry]) -> Result<Vec<u64>, String> {
    pool.iter()
        .map(|e| {
            let q = crate::layers::solve(ctx, &e.inst);
            family::check(&e.inst, &q, family::reference_blocks(&e.inst))?;
            Ok(canonical_digest(&q))
        })
        .collect()
}

/// Check every reply of the loop: a pool reply must equal the direct solve
/// of its instance (so cached replies equal the uncached warm-up reply,
/// which is checked the same way), and a fresh reply must equal a direct
/// solve of the regenerated instance, which is itself checked.  Returns
/// one message per failed request.
#[must_use]
pub fn check_replies(
    ctx: &Ctx,
    records: &[ReqRec],
    expected: &[u64],
    fam: Family,
    sizes: &[usize; 3],
) -> Vec<String> {
    let mut errors = Vec::new();
    for r in records {
        let got = match &r.result {
            Ok((_, d)) => *d,
            Err(e) => {
                errors.push(e.clone());
                continue;
            }
        };
        let want = match r.source {
            Source::Pool(k) => Ok(expected[k]),
            Source::Fresh(s) => {
                let inst = fam.instance(sizes[r.size_idx], s);
                let q = crate::layers::solve(ctx, &inst);
                family::check(&inst, &q, family::reference_blocks(&inst))
                    .map(|()| canonical_digest(&q))
            }
        };
        match want {
            Ok(want) if want == got => {}
            Ok(_) => errors.push(format!(
                "{:?}: reply differs from the direct solve",
                r.source
            )),
            Err(e) => errors.push(format!(
                "{:?}: direct solve failed its check: {e}",
                r.source
            )),
        }
    }
    errors
}

/// Snapshot-cache `(hits, misses)` reported by `probe`.
///
/// # Errors
/// Transport and protocol failures.
pub fn probe(addr: SocketAddr) -> Result<(u64, u64), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let reply = client.probe().map_err(|e| e.to_string())?;
    match reply.map_err(|e| e.message)?.payload {
        ReplyPayload::Probe {
            cache_hits,
            cache_misses,
            ..
        } => Ok((cache_hits, cache_misses)),
        other => Err(format!("unexpected probe payload {other:?}")),
    }
}

/// Serving-layer timings of a traced run, in milliseconds.
#[derive(Debug, Default)]
pub struct Stages {
    /// Server-reported root span (`coarsest_parallel`) of traced requests.
    pub solve_ms: Vec<f64>,
    /// Client latency minus the root span, per traced request.
    pub overhead_ms: Vec<f64>,
    /// `Request::decode` on the largest frames.
    pub decode_ms: Vec<f64>,
    /// `Response::encode` on the replies to the largest frames.
    pub encode_ms: Vec<f64>,
}

/// Time the serving stages on the largest pool instances: traced uncached
/// requests (their reply digest is checked against `expected`), and the
/// request decoder and reply encoder on the workload's own frames.
///
/// # Errors
/// Transport failures, malformed traces and wrong answers.
pub fn stages(service: &Service, expected: &[u64]) -> Result<Stages, String> {
    let mut client = Client::connect(service.server.addr()).map_err(|e| e.to_string())?;
    let mut out = Stages::default();
    let largest = service
        .pool
        .iter()
        .enumerate()
        .filter(|(_, e)| e.size_idx == 2);
    for (k, entry) in largest {
        for rep in 0..TRACED_REPS {
            let id = 1_000 + (k * TRACED_REPS + rep) as u64;
            let traced = frame(id, partition_request(&entry.inst).no_cache().traced());
            let start = Instant::now();
            let response = call(&mut client, id, &traced)?;
            let client_ms = start.elapsed().as_secs_f64() * 1e3;
            if labels_of(&response)?.1 != expected[k] {
                return Err("traced reply differs from the direct solve".into());
            }
            let server_ms = root_span_ms(&response)?;
            out.solve_ms.push(server_ms);
            out.overhead_ms.push(client_ms - server_ms);
        }
        for _ in 0..CODEC_REPS {
            let t = Instant::now();
            let decoded = Request::decode(std::hint::black_box(&entry.frame));
            out.decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
            decoded.map_err(|e| e.message)?;
            let t = Instant::now();
            let bytes = std::hint::black_box(&service.warm[k]).encode();
            out.encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(bytes);
        }
    }
    Ok(out)
}

/// Wall time of the `coarsest_parallel` span in a reply's trace summary.
fn root_span_ms(response: &Response) -> Result<f64, String> {
    let reply = response.outcome.as_ref().map_err(|e| e.message.clone())?;
    let text = reply
        .trace_json
        .as_deref()
        .ok_or("traced reply without a trace")?;
    let summary = json::parse(text.as_bytes()).map_err(|e| e.to_string())?;
    summary
        .get("spans")
        .and_then(Value::as_array)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("name").and_then(Value::as_str) == Some("coarsest_parallel"))
        })
        .and_then(|r| r.get("wall_ns")?.as_u64())
        .map(|ns| ns as f64 / 1e6)
        .ok_or_else(|| "trace summary has no coarsest_parallel span".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_streams_are_deterministic_per_seed_and_client() {
        let take = |seed, c| {
            let mut m = Mix::new(seed, c);
            (0..60).map(|_| m.pick()).collect::<Vec<_>>()
        };
        assert_eq!(take(3, 0), take(3, 0));
        assert_ne!(take(3, 0), take(3, 1));
        assert_ne!(take(3, 0), take(4, 0));
        // Every round of six holds each (size, fresh) pair exactly once.
        for round in take(3, 0).chunks(6) {
            let mut kinds: Vec<(usize, bool)> = round
                .iter()
                .map(|p| (p.size_idx, p.fresh.is_some()))
                .collect();
            kinds.sort_unstable();
            let all: Vec<(usize, bool)> = (0..3).flat_map(|s| [(s, false), (s, true)]).collect();
            assert_eq!(kinds, all);
            assert!(round.iter().all(|p| p.pool_j < POOL_PER_SIZE));
        }
        assert_eq!(pool_seed(5, 1, 1), pool_seed(5, 1, 1));
        assert_ne!(pool_seed(5, 1, 1), pool_seed(5, 1, 0));
    }
}
