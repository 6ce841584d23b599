//! Adversarial-input suite: malformed inputs must surface as typed errors
//! through the `try_` surface — never as panics — and must leave the context
//! reconciled (no outstanding checkouts).
//!
//! Property-based: cyclic "forests", non-permutation successor arrays,
//! out-of-range function tables, mismatched instance arrays, truncated
//! arc-rank streams.  The serving layer's protocol cases send malformed
//! frames to a live server, and the codec differential checks the wire
//! decoder and encoders against a reading built on `json::parse`.

use proptest::prelude::*;
use sfcp::{DecomposeError, Instance};
use sfcp_forest::FunctionalGraph;
use sfcp_parprim::euler::{EulerTour, RootedForest};
use sfcp_parprim::jump::try_permutation_cycle_min;
use sfcp_pram::{Ctx, Error};

/// Run a fallible closure and demand a typed error: unwinding is a test
/// failure in its own right, distinct from an `Ok`.
fn expect_typed_err<T: std::fmt::Debug>(
    f: impl FnOnce() -> Result<T, Error> + std::panic::UnwindSafe,
) -> Error {
    match std::panic::catch_unwind(f) {
        Ok(result) => result.expect_err("adversarial input must be rejected"),
        Err(_) => panic!("adversarial input must surface as Err, not a panic"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parent arrays with at least one cycle of length >= 2 are rejected
    /// with `CycleDetected`, and the workspace comes back reconciled.
    #[test]
    fn cyclic_parent_arrays_are_rejected(
        n in 2usize..120,
        cycle_at in 0usize..120,
        seed in 0u64..1000,
    ) {
        let mut rng_state = seed.wrapping_mul(0x9e37_79b9_97f4_a7c5).wrapping_add(1);
        let mut next = move |bound: usize| {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % bound as u64) as u32
        };
        // Random pointers, then force a 2-cycle somewhere.
        let mut parent: Vec<u32> = (0..n).map(|_| next(n)).collect();
        let a = cycle_at % n;
        let b = (a + 1) % n;
        parent[a] = b as u32;
        parent[b] = a as u32;

        let ctx = Ctx::parallel();
        let err = expect_typed_err(std::panic::AssertUnwindSafe(|| {
            RootedForest::from_parents_checked(&ctx, parent.clone())
        }));
        prop_assert!(matches!(err, Error::CycleDetected { .. }), "got {err}");
        prop_assert_eq!(ctx.workspace().stats().outstanding(), 0);
    }

    /// Successor arrays that repeat an element (hence are no permutation)
    /// are rejected with `NotAPermutation`; out-of-range entries with
    /// `OutOfRange`.  Neither panics.
    #[test]
    fn non_permutation_successors_are_rejected(
        n in 2usize..120,
        dup_from in 0usize..120,
        dup_to in 0usize..120,
        rotate in 0usize..120,
    ) {
        let n = n.max(2);
        // Start from a genuine permutation (a rotation), then break it.
        let mut succ: Vec<u32> = (0..n as u32).map(|i| (i + 1 + (rotate % n) as u32) % n as u32).collect();
        let from = dup_from % n;
        let mut to = dup_to % n;
        if to == from {
            to = (to + 1) % n;
        }
        succ[to] = succ[from]; // now succ[from] appears twice

        let ctx = Ctx::parallel();
        let err = expect_typed_err(std::panic::AssertUnwindSafe(|| {
            try_permutation_cycle_min(&ctx, &succ)
        }));
        prop_assert!(matches!(err, Error::NotAPermutation { .. }), "got {err}");
        prop_assert_eq!(ctx.workspace().stats().outstanding(), 0);

        // Out-of-range entry.
        let mut succ: Vec<u32> = (0..n as u32).map(|i| (i + 1) % n as u32).collect();
        succ[from] = n as u32 + 3;
        let err = expect_typed_err(std::panic::AssertUnwindSafe(|| {
            try_permutation_cycle_min(&ctx, &succ)
        }));
        prop_assert!(matches!(err, Error::OutOfRange { .. }), "got {err}");
    }

    /// Function tables with out-of-range values are rejected by the graph
    /// and instance constructors with `OutOfRange`.
    #[test]
    fn out_of_range_function_tables_are_rejected(
        n in 1usize..120,
        at in 0usize..120,
        excess in 0u32..50,
    ) {
        let mut f: Vec<u32> = vec![0; n];
        f[at % n] = n as u32 + excess;
        let err = expect_typed_err(|| FunctionalGraph::try_new(f.clone()));
        prop_assert!(matches!(err, Error::OutOfRange { .. }), "got {err}");

        let blocks = vec![0u32; n];
        match Instance::try_new(f, blocks) {
            Err(Error::OutOfRange { .. }) => {}
            other => prop_assert!(false, "expected OutOfRange, got {other:?}"),
        }
    }

    /// Mismatched `A_f` / `A_B` lengths are a `LengthMismatch`, and the
    /// solver-facade classification marks them permanent (not retryable).
    #[test]
    fn mismatched_instance_arrays_are_rejected(
        n in 1usize..120,
        delta in 1usize..20,
    ) {
        let f: Vec<u32> = vec![0; n];
        let blocks = vec![0u32; n + delta];
        let err = expect_typed_err(|| Instance::try_new(f, blocks));
        prop_assert!(matches!(err, Error::LengthMismatch { .. }), "got {err}");
        let classified: DecomposeError = err.into();
        prop_assert!(!classified.is_retryable());
    }

    /// Truncated arc-rank streams (shorter than the 2n arcs the tour needs)
    /// are rejected with `LengthMismatch`.
    #[test]
    fn truncated_arc_rank_streams_are_rejected(
        n in 1usize..80,
        cut in 1usize..160,
    ) {
        let ctx = Ctx::parallel();
        let parent: Vec<u32> = (0..n as u32).map(|i| i.saturating_sub(1)).collect();
        let forest = RootedForest::from_parents(&ctx, parent);
        let short_len = (2 * n).saturating_sub(cut.clamp(1, 2 * n));
        let dist = vec![0u32; short_len];
        let err = expect_typed_err(std::panic::AssertUnwindSafe(|| {
            EulerTour::try_from_arc_ranks(&ctx, &forest, &dist)
        }));
        prop_assert!(matches!(err, Error::LengthMismatch { .. }), "got {err}");
    }
}

/// The documented boundary of the index width: `2^31 - 1` passes the check,
/// `2^31` is rejected — pinned through the public helper so it never needs
/// an 8 GiB allocation to exercise.
#[test]
fn index_width_boundary_is_pinned() {
    assert!(sfcp_pram::check_index_width((1 << 31) - 1).is_ok());
    assert!(matches!(
        sfcp_pram::check_index_width(1 << 31),
        Err(Error::TooLarge { .. })
    ));
    assert_eq!(sfcp_pram::MAX_DOMAIN, 1 << 31);
}

// ---------------------------------------------------------------------------
// Serving-layer protocol decoder: malformed frames, oversized length
// prefixes, and garbage JSON must come back as typed error responses — never
// a hung connection, a panic, or a dead server.
// ---------------------------------------------------------------------------

mod protocol {
    use sfcp_service::{
        Client, ClientError, ComputeRequest, ErrorCode, Response, Server, ServerConfig,
    };
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn server() -> sfcp_service::ServerHandle {
        Server::start(ServerConfig::default()).expect("bind")
    }

    /// Decode a raw response frame and demand a typed error of `code`.
    fn expect_error(payload: &[u8], code: ErrorCode) {
        let response = Response::decode(payload).expect("response parses");
        let err = response.outcome.expect_err("a typed error response");
        assert_eq!(err.code, code, "{err}");
    }

    /// Garbage JSON inside a well-delimited frame: typed `BadRequest`, and
    /// the connection keeps serving.
    #[test]
    fn garbage_json_is_typed_and_connection_survives() {
        let handle = server();
        let mut client = Client::connect(handle.addr()).expect("connect");
        for garbage in [
            &b"{not json at all"[..],
            b"",
            b"[1,2,3]",
            b"\"a bare string\"",
            b"{\"id\":1,\"kind\":\"no_such_kind\",\"f\":[0]}",
            b"{\"id\":2,\"kind\":\"partition\"}",
            b"{\"id\":3,\"kind\":\"partition\",\"f\":[0],\"blocks\":[true]}",
            b"{\"id\":4,\"kind\":\"partition\",\"f\":[0],\"blocks\":[0],\"digest\":\"yes\"}",
            // Elements of `f` outside u32: too large, negative, fractional.
            b"{\"id\":6,\"kind\":\"partition\",\"f\":[4294967296],\"blocks\":[0]}",
            b"{\"id\":7,\"kind\":\"partition\",\"f\":[-1],\"blocks\":[0]}",
            b"{\"id\":8,\"kind\":\"partition\",\"f\":[1.5],\"blocks\":[0]}",
            b"\xff\xfe invalid utf8 \xff",
        ] {
            let payload = client.call_raw(garbage).expect("error response expected");
            expect_error(&payload, ErrorCode::BadRequest);
        }
        // Decodes fine but is rejected by the worker's workload validation:
        // still a typed error, one layer later.
        let payload = client
            .call_raw(b"{\"id\":5,\"kind\":\"partition\",\"workload\":{\"n\":0,\"seed\":1}}")
            .expect("error response expected");
        expect_error(&payload, ErrorCode::InvalidInput);
        // The same connection still computes.
        let reply = client
            .request(&ComputeRequest::partition(vec![1, 0], vec![0, 1]))
            .expect("transport")
            .expect("solve");
        assert!(reply.work > 0);
        handle.shutdown();
    }

    /// A batch nested inside a batch is rejected, not recursed into.
    #[test]
    fn nested_batches_are_rejected() {
        let handle = server();
        let mut client = Client::connect(handle.addr()).expect("connect");
        let nested =
            br#"{"id":1,"kind":"batch","requests":[{"id":2,"kind":"batch","requests":[]}]}"#;
        let payload = client.call_raw(nested).expect("error response expected");
        expect_error(&payload, ErrorCode::BadRequest);
        handle.shutdown();
    }

    /// Deeply nested JSON trips the parser's depth limit as a typed error —
    /// not a stack overflow.
    #[test]
    fn pathological_nesting_is_bounded() {
        let handle = server();
        let mut client = Client::connect(handle.addr()).expect("connect");
        let mut deep = vec![b'['; 100_000];
        deep.extend(vec![b']'; 100_000]);
        let payload = client.call_raw(&deep).expect("error response expected");
        expect_error(&payload, ErrorCode::BadRequest);
        handle.shutdown();
    }

    /// An oversized length prefix gets one typed error response and then a
    /// deliberate close (the stream position is unrecoverable) — and the
    /// server keeps accepting fresh connections.
    #[test]
    fn oversized_length_prefix_reports_then_closes() {
        let handle = server();
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        raw.write_all(&u32::MAX.to_le_bytes())
            .expect("write prefix");
        raw.flush().expect("flush");

        let mut len_buf = [0u8; 4];
        raw.read_exact(&mut len_buf).expect("error frame header");
        let len = u32::from_le_bytes(len_buf) as usize;
        assert!(len < 1 << 16, "sane error frame");
        let mut payload = vec![0u8; len];
        raw.read_exact(&mut payload).expect("error frame body");
        expect_error(&payload, ErrorCode::BadRequest);

        // Then EOF: the server closed its half.
        assert_eq!(raw.read(&mut len_buf).expect("clean close"), 0);

        // A fresh connection is served normally.
        let mut client = Client::connect(handle.addr()).expect("reconnect");
        assert!(client.probe().expect("transport").is_ok());
        handle.shutdown();
    }

    /// A frame truncated mid-payload (client hangs up early) must not wedge
    /// the server.
    #[test]
    fn truncated_frames_do_not_wedge_the_server() {
        let handle = server();
        {
            let mut raw = TcpStream::connect(handle.addr()).expect("connect");
            raw.write_all(&100u32.to_le_bytes()).expect("write prefix");
            raw.write_all(b"{\"id\":1").expect("partial payload");
            // Drop: EOF inside the frame body.
        }
        let mut client = Client::connect(handle.addr()).expect("reconnect");
        assert!(client.probe().expect("transport").is_ok());
        handle.shutdown();
    }

    /// The client side refuses oversized response prefixes too (a malicious
    /// or confused server cannot make it allocate unboundedly).
    #[test]
    fn client_rejects_oversized_response_prefixes() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let fake = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept");
            let mut sink = [0u8; 256];
            let _ = peer.read(&mut sink);
            peer.write_all(&u32::MAX.to_le_bytes())
                .expect("evil prefix");
            peer.flush().expect("flush");
            // Hold the socket open until the client gives up.
            let _ = peer.read(&mut sink);
        });
        let mut client = Client::connect(addr).expect("connect");
        let err = client.call_raw(b"{}").expect_err("oversized response");
        assert!(matches!(err, ClientError::Frame(_)), "got {err}");
        drop(client);
        fake.join().expect("fake server");
    }
}

// ---------------------------------------------------------------------------
// Wire codec differential: the typed decoder reads every frame the way a
// reading built on `json::parse` does — the same request, or a typed
// `BadRequest` on both sides with the same echoed id — and the encoders
// write exactly the bytes of the `Value` tree each frame describes.  The
// `Value`-based reference lives only here.
// ---------------------------------------------------------------------------

mod codec {
    use sfcp_service::json::{self, Value, MAX_DEPTH};
    use sfcp_service::proto::{BatchResponse, RequestBody};
    use sfcp_service::{
        ComputeRequest, ErrorCode, ErrorReply, Input, Kind, Reply, ReplyPayload, Request, Response,
    };

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }

        fn chance(&mut self, one_in: u64) -> bool {
            self.below(one_in) == 0
        }
    }

    const KINDS: [Kind; 4] = [
        Kind::Partition,
        Kind::MinimizeDfa,
        Kind::Canonize,
        Kind::Decompose,
    ];

    // -- The reference: the request reading and the frame trees, on `Value`.

    fn reference_decode(payload: &[u8]) -> Result<Request, ErrorReply> {
        let value = json::parse(payload)
            .map_err(|e| ErrorReply::bad_request(format!("malformed JSON: {e}")))?;
        let id = value_id(&value);
        let body = reference_body(&value, true).map_err(|mut e| {
            e.id = id;
            e
        })?;
        Ok(Request { id, body })
    }

    fn value_id(value: &Value) -> u64 {
        value.get("id").and_then(Value::as_u64).unwrap_or(0)
    }

    fn bad(message: &str) -> ErrorReply {
        ErrorReply::bad_request(message)
    }

    fn reference_body(value: &Value, allow_batch: bool) -> Result<RequestBody, ErrorReply> {
        let kind = match value.get("kind").and_then(Value::as_str) {
            None => return Err(bad("missing kind")),
            Some("probe") => return Ok(RequestBody::Probe),
            Some("batch") if !allow_batch => return Err(bad("nested batch")),
            Some("batch") => {
                let reqs = value
                    .get("requests")
                    .and_then(Value::as_array)
                    .ok_or_else(|| bad("batch without requests"))?;
                let mut subs = Vec::new();
                for sub in reqs {
                    match reference_body(sub, false)? {
                        RequestBody::Compute(req) => subs.push((value_id(sub), req)),
                        _ => return Err(bad("batch members must be compute requests")),
                    }
                }
                return Ok(RequestBody::Batch(subs));
            }
            Some(name) => KINDS
                .into_iter()
                .find(|k| k.name() == name)
                .ok_or_else(|| bad("unknown kind"))?,
        };
        let input = if let Some(w) = value.get("workload") {
            let n = w
                .get("n")
                .and_then(Value::as_usize)
                .ok_or_else(|| bad("n"))?;
            let seed = w
                .get("seed")
                .and_then(Value::as_u64)
                .ok_or_else(|| bad("seed"))?;
            let param_key = match kind {
                Kind::Partition | Kind::MinimizeDfa => Some("blocks"),
                Kind::Canonize => Some("alphabet"),
                Kind::Decompose => None,
            };
            let param = param_key.map_or(0, |key| {
                w.get(key)
                    .and_then(Value::as_u64)
                    .and_then(|v| u32::try_from(v).ok())
                    .unwrap_or(2)
                    .max(1)
            });
            Input::Workload { n, seed, param }
        } else {
            let (f_key, blocks_key) = array_keys(kind);
            let f = reference_u32s(value, f_key)?;
            let blocks = match blocks_key {
                Some(key) => reference_u32s(value, key)?,
                None => Vec::new(),
            };
            Input::Inline { f, blocks }
        };
        let flag = |key: &str, default: bool| match value.get(key) {
            None => Ok(default),
            Some(v) => v.as_bool().ok_or_else(|| bad("flag")),
        };
        Ok(RequestBody::Compute(ComputeRequest {
            kind,
            input,
            digest_only: flag("digest", false)?,
            use_cache: flag("cache", true)?,
            trace: flag("trace", false)?,
        }))
    }

    fn reference_u32s(value: &Value, key: &str) -> Result<Vec<u32>, ErrorReply> {
        value
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| bad("missing array"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| bad("u32 values"))
            })
            .collect()
    }

    fn array_keys(kind: Kind) -> (&'static str, Option<&'static str>) {
        match kind {
            Kind::Partition => ("f", Some("blocks")),
            Kind::MinimizeDfa => ("delta", Some("accepting")),
            Kind::Canonize => ("s", None),
            Kind::Decompose => ("f", None),
        }
    }

    fn obj(members: Vec<(&str, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn int(v: u64) -> Value {
        Value::Int(v as i64)
    }

    fn u32_values(values: &[u32]) -> Value {
        Value::Array(values.iter().map(|&v| Value::Int(i64::from(v))).collect())
    }

    fn hex(v: u64) -> Value {
        Value::Str(format!("{v:#018x}"))
    }

    fn request_tree(req: &Request) -> Value {
        let mut members = vec![("id", int(req.id))];
        match &req.body {
            RequestBody::Probe => members.push(("kind", Value::Str("probe".into()))),
            RequestBody::Compute(c) => compute_members(c, &mut members),
            RequestBody::Batch(subs) => {
                members.push(("kind", Value::Str("batch".into())));
                let subs = subs
                    .iter()
                    .map(|(id, c)| {
                        let mut m = vec![("id", int(*id))];
                        compute_members(c, &mut m);
                        obj(m)
                    })
                    .collect();
                members.push(("requests", Value::Array(subs)));
            }
        }
        obj(members)
    }

    fn compute_members(req: &ComputeRequest, members: &mut Vec<(&str, Value)>) {
        members.push(("kind", Value::Str(req.kind.name().into())));
        match &req.input {
            Input::Inline { f, blocks } => {
                let (f_key, blocks_key) = array_keys(req.kind);
                members.push((f_key, u32_values(f)));
                if let Some(key) = blocks_key {
                    members.push((key, u32_values(blocks)));
                }
            }
            Input::Workload { n, seed, param } => {
                let mut w = vec![("n", int(*n as u64)), ("seed", int(*seed))];
                match req.kind {
                    Kind::Partition | Kind::MinimizeDfa => {
                        w.push(("blocks", int(u64::from(*param))))
                    }
                    Kind::Canonize => w.push(("alphabet", int(u64::from(*param)))),
                    Kind::Decompose => {}
                }
                members.push(("workload", obj(w)));
            }
        }
        if req.digest_only {
            members.push(("digest", Value::Bool(true)));
        }
        if !req.use_cache {
            members.push(("cache", Value::Bool(false)));
        }
        if req.trace {
            members.push(("trace", Value::Bool(true)));
        }
    }

    fn response_tree(resp: &Response) -> Value {
        let mut members = vec![("id", int(resp.id))];
        match &resp.outcome {
            Err(err) => {
                members.push(("ok", Value::Bool(false)));
                members.push(("code", Value::Str(err.code.name().into())));
                members.push(("message", Value::Str(err.message.clone())));
                members.push(("retryable", Value::Bool(err.retryable)));
            }
            Ok(reply) => {
                members.push(("ok", Value::Bool(true)));
                members.push(("kind", Value::Str(reply.kind.into())));
                match &reply.payload {
                    ReplyPayload::Labels(labels) => members.push(("labels", u32_values(labels))),
                    ReplyPayload::LabelsDigest(d) => members.push(("labels_digest", hex(*d))),
                    ReplyPayload::Msp(k) => members.push(("msp", int(*k))),
                    ReplyPayload::Decomposition {
                        num_cycles,
                        num_cycle_nodes,
                        digest,
                    } => {
                        members.push(("num_cycles", int(*num_cycles)));
                        members.push(("num_cycle_nodes", int(*num_cycle_nodes)));
                        members.push(("digest", hex(*digest)));
                    }
                    ReplyPayload::Probe {
                        worker,
                        outstanding,
                        pooled_bytes,
                        cache_hits,
                        cache_misses,
                        cache_bytes,
                    } => {
                        members.push(("worker", int(*worker)));
                        members.push(("outstanding", int(*outstanding)));
                        members.push(("pooled_bytes", int(*pooled_bytes)));
                        members.push(("cache_hits", int(*cache_hits)));
                        members.push(("cache_misses", int(*cache_misses)));
                        members.push(("cache_bytes", int(*cache_bytes)));
                    }
                }
                members.push(("work", int(reply.work)));
                members.push(("rounds", int(reply.rounds)));
                members.push(("cached", Value::Bool(reply.cached)));
                if let Some(trace) = &reply.trace_json {
                    members.push((
                        "trace",
                        json::parse(trace.as_bytes()).unwrap_or(Value::Null),
                    ));
                }
            }
        }
        obj(members)
    }

    // -- Generated frames.

    fn u32s(rng: &mut Rng, len: usize) -> Vec<u32> {
        (0..len)
            .map(|_| match rng.below(6) {
                0 => u32::MAX - rng.below(3) as u32,
                1 => rng.below(10) as u32,
                _ => rng.next() as u32 >> rng.below(32),
            })
            .collect()
    }

    fn compute(rng: &mut Rng) -> ComputeRequest {
        let kind = KINDS[rng.below(4) as usize];
        let n = rng.below(40) as usize;
        let mut req = if rng.chance(4) {
            let n = if rng.chance(8) {
                u64::MAX >> rng.below(2)
            } else {
                rng.below(1 << 20)
            };
            let seed = if rng.chance(4) {
                rng.next()
            } else {
                rng.below(100)
            };
            let param = match kind {
                Kind::Decompose => 0,
                _ => 1 + rng.below(9) as u32,
            };
            ComputeRequest::workload(kind, n as usize, seed, param)
        } else {
            let f = u32s(rng, n);
            let blocks = u32s(rng, n);
            match kind {
                Kind::Partition => ComputeRequest::partition(f, blocks),
                Kind::MinimizeDfa => ComputeRequest::minimize_dfa(f, blocks),
                Kind::Canonize => ComputeRequest::canonize(f),
                Kind::Decompose => ComputeRequest::decompose(f),
            }
        };
        if rng.chance(3) {
            req = req.digest_only();
        }
        if rng.chance(3) {
            req = req.no_cache();
        }
        if rng.chance(3) {
            req = req.traced();
        }
        req
    }

    fn request(rng: &mut Rng) -> Request {
        let id = if rng.chance(8) {
            u64::MAX - rng.below(2)
        } else {
            rng.below(1000)
        };
        let body = match rng.below(6) {
            0 => RequestBody::Probe,
            1 => RequestBody::Batch(
                (0..rng.below(4))
                    .map(|_| (rng.below(1 << 40), compute(rng)))
                    .collect(),
            ),
            _ => RequestBody::Compute(compute(rng)),
        };
        Request { id, body }
    }

    /// A value unlike any protocol member, for unknown and duplicate keys.
    fn junk(rng: &mut Rng, depth: usize) -> Value {
        match rng.below(if depth > 3 { 4 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Float(-2.5e-3),
            2 => Value::Str("x\"\\/\u{e9}".into()),
            3 => Value::Int(-(rng.below(1 << 40) as i64)),
            4 => Value::Array((0..rng.below(4)).map(|_| junk(rng, depth + 1)).collect()),
            _ => Value::Object(
                (0..rng.below(4))
                    .map(|i| (format!("k{i}"), junk(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    /// `value` with its objects' members shuffled, some repeated after
    /// their first occurrence with junk values (`Value::get` keeps the
    /// first), and unknown members mixed in.
    fn scramble(rng: &mut Rng, value: &Value) -> Value {
        match value {
            Value::Object(members) => {
                let mut out: Vec<(String, Value)> = members
                    .iter()
                    .map(|(k, v)| (k.clone(), scramble(rng, v)))
                    .collect();
                for i in (1..out.len()).rev() {
                    out.swap(i, rng.below(i as u64 + 1) as usize);
                }
                for _ in 0..rng.below(3) {
                    let (key, at) = if !members.is_empty() && rng.chance(2) {
                        let key = members[rng.below(members.len() as u64) as usize].0.clone();
                        let first = out.iter().position(|(k, _)| *k == key).expect("present");
                        (key, first + 1)
                    } else {
                        (format!("unknown{}", rng.below(9)), 0)
                    };
                    let at = at + rng.below((out.len() - at) as u64 + 1) as usize;
                    out.insert(at, (key, junk(rng, 0)));
                }
                Value::Object(out)
            }
            Value::Array(items) => Value::Array(items.iter().map(|v| scramble(rng, v)).collect()),
            other => other.clone(),
        }
    }

    fn space(rng: &mut Rng, out: &mut String) {
        for _ in 0..rng.below(3) {
            out.push([' ', '\n', '\t', '\r'][rng.below(4) as usize]);
        }
    }

    /// JSON text of `value` with whitespace between tokens and, now and
    /// then, a key character spelled as a `\u` escape (`"\u0066"` is `"f"`).
    fn respell(rng: &mut Rng, value: &Value, out: &mut String) {
        space(rng, out);
        match value {
            Value::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    space(rng, out);
                    out.push('"');
                    for c in k.chars() {
                        if rng.chance(3) {
                            out.push_str(&format!("\\u{:04X}", c as u32));
                        } else {
                            out.push(c);
                        }
                    }
                    out.push('"');
                    space(rng, out);
                    out.push(':');
                    respell(rng, v, out);
                }
                space(rng, out);
                out.push('}');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    respell(rng, v, out);
                }
                space(rng, out);
                out.push(']');
            }
            other => out.push_str(&other.to_json()),
        }
        space(rng, out);
    }

    /// Both readings of `frame` agree; returns the typed one.
    fn same_reading(frame: &[u8]) -> Result<Request, ErrorReply> {
        let typed = Request::decode(frame);
        let reference = reference_decode(frame);
        let text = String::from_utf8_lossy(frame);
        match (&typed, &reference) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{text}"),
            (Err(a), Err(b)) => {
                assert_eq!(a.code, ErrorCode::BadRequest, "{text}: {a}");
                assert_eq!(b.code, ErrorCode::BadRequest, "{text}: {b}");
                assert_eq!(a.id, b.id, "{text}: {a} / {b}");
            }
            _ => panic!("readings differ on {text}: {typed:?} vs {reference:?}"),
        }
        typed
    }

    #[test]
    fn encoded_and_respelled_requests_read_like_the_tree() {
        let mut rng = Rng(1);
        for _ in 0..400 {
            let req = request(&mut rng);
            let tree = request_tree(&req);
            let frame = req.encode();
            assert_eq!(frame, tree.to_json().into_bytes(), "{req:?}");
            // A `u64` past `i64::MAX` goes out negative and reads back as
            // 0 (an id) or as a bad request (a workload's n or seed), as
            // the tree's `Value::Int` spelling always did.
            let faithful = req.id <= i64::MAX as u64
                && !matches!(&req.body, RequestBody::Batch(subs) if subs.iter().any(|(_, c)| wide(c)))
                && !matches!(&req.body, RequestBody::Compute(c) if wide(c));
            let read = same_reading(&frame);
            if faithful {
                assert_eq!(read.as_ref(), Ok(&req));
            }
            for _ in 0..4 {
                let scrambled = scramble(&mut rng, &tree);
                let mut text = String::new();
                respell(&mut rng, &scrambled, &mut text);
                let read = same_reading(text.as_bytes());
                if faithful {
                    assert_eq!(read.as_ref(), Ok(&req), "{text}");
                }
            }
        }
    }

    fn wide(req: &ComputeRequest) -> bool {
        matches!(req.input, Input::Workload { n, seed, .. } if n as u64 > i64::MAX as u64 || seed > i64::MAX as u64)
    }

    #[test]
    fn number_forms_read_like_the_tree() {
        let forms = [
            "0",
            "7",
            "01",
            "-0",
            "00",
            "-01",
            "1.5",
            "1e2",
            "1E2",
            "-1",
            "+1",
            ".5",
            "1.",
            "0.0",
            "1e999",
            "-",
            "4294967295",
            "4294967296",
            "1234567",
            "12345678",
            "123456789",
            "9223372036854775807",
            "9223372036854775808",
            "123456789012345678901234567890",
            "1-2",
            "\"3\"",
            "true",
            "null",
            "[3]",
        ];
        let mut read = [0, 0];
        for form in forms {
            for template in [
                "{\"id\":1,\"kind\":\"partition\",\"f\":[@],\"blocks\":[0]}",
                "{\"id\":1,\"kind\":\"partition\",\"f\":[0,@,0,0,0,0,0,0,0],\"blocks\":[0,0,0,0,0,0,0,0,0]}",
                "{\"id\":1,\"kind\":\"canonize\",\"s\":[@ ,1]}",
                "{\"id\":@,\"kind\":\"probe\"}",
                "{\"kind\":\"decompose\",\"id\":@,\"f\":[true]}",
                "{\"id\":2,\"kind\":\"partition\",\"workload\":{\"n\":@,\"seed\":3,\"blocks\":2}}",
                "{\"id\":2,\"kind\":\"canonize\",\"workload\":{\"n\":9,\"seed\":@,\"alphabet\":@}}",
                "{\"id\":3,\"kind\":\"batch\",\"requests\":[{\"id\":@,\"kind\":\"decompose\",\"f\":[@]}]}",
            ] {
                read[usize::from(same_reading(template.replace('@', form).as_bytes()).is_ok())] += 1;
            }
        }
        assert!(
            read[0] > 50 && read[1] > 50,
            "accepted and rejected forms: {read:?}"
        );
    }

    #[test]
    fn truncated_and_malformed_frames_read_like_the_tree() {
        let mut rng = Rng(7);
        for _ in 0..40 {
            let frame = request(&mut rng).encode();
            for cut in 0..frame.len().min(300) {
                assert!(same_reading(&frame[..cut]).is_err());
            }
        }
        for bad in [
            &b"{\"id\":5,\"kind\":\"partition\",\"f\":[true],\"blocks\":[0],\"x\":[1,]}"[..],
            b"{\"id\":5,\"kind\":\"partition\",\"f\":[0],\"blocks\":[0]} {}",
            b"{\"id\":5,\"f\":[0],\"blocks\":[0],\"kind\":\"partition\",\"kind\":7}",
            b"{\"id\":5,\"kind\":7,\"kind\":\"partition\",\"f\":[0],\"blocks\":[0]}",
            b"{\"id\":\"5\",\"kind\":\"canonize\",\"s\":{}}",
            b"{\"id\":5,\"kind\":\"canonize\",\"s\":[1],\"s\":\"x\",\"f\":[1.5]}",
            b"{\"id\":5,\"kind\":\"batch\",\"requests\":[1,{\"kind\":\"probe\"}]}",
            b"{\"id\":5,\"kind\":\"batch\",\"requests\":{}}",
            b"{\"id\":5,\"kind\":\"partition\",\"workload\":[1,2]}",
            b"{\"id\":5,\"kind\":\"partition\",\"workload\":{\"n\":4,\"seed\":1,\"blocks\":-2}}",
            b"{\"id\":5,\"kind\":\"partition\",\"f\":[0],\"blocks\":[0],\"digest\":1}",
            b"{\"id\":5,\"kind\":\"partition\",\"f\":[0],\"blocks\":[0],\"\\u0063ache\":false}",
            b"{\"id\":5,\"kind\":\"partition\",\"f\":[0],\"blocks\":[0],\"x\":\"\\ud800\"}",
            b"{\"id\":5,\"kind\":\"partition\",\"f\":[0],\"blocks\":[0],\"x\":\"\xff\"}",
            b"{\"id\":5,\"kind\":\"partition\",\"f\":[0],\"blocks\":[0],\"x\":\"a\x01\"}",
            b"{\"id\":5 \"kind\":\"probe\"}",
            b"{\"id\":5,\"kind\":\"probe\",}",
            b"{\"id\":5,\"kind\":\"pro\\be\"}",
            b"{\"id\":5,\"kind\":\"probe\"}\n\t ",
            b"[{\"id\":5,\"kind\":\"probe\"}]",
            b"",
            b"nul",
        ] {
            let _ = same_reading(bad);
        }
    }

    #[test]
    fn nesting_at_the_depth_limit_reads_like_the_tree() {
        // An unknown member's arrays nest from depth 1; a value deeper than
        // `MAX_DEPTH` is an error, even a number inside the innermost array.
        for levels in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
            for inner in ["", "1", "{}", "[]"] {
                let frame = format!(
                    "{{\"id\":9,\"kind\":\"probe\",\"x\":{}{inner}{}}}",
                    "[".repeat(levels),
                    "]".repeat(levels)
                );
                let deepest = levels + usize::from(!inner.is_empty());
                assert_eq!(same_reading(frame.as_bytes()).is_ok(), deepest <= MAX_DEPTH);
            }
        }
        // Batch members nest two levels per batch; the innermost `f` sits
        // near the limit, its elements past it.
        for nested in [
            MAX_DEPTH / 2 - 2,
            MAX_DEPTH / 2 - 1,
            MAX_DEPTH / 2,
            MAX_DEPTH / 2 + 1,
        ] {
            let frame = format!(
                "{}{{\"id\":1,\"kind\":\"decompose\",\"f\":[0]}}{}",
                "{\"id\":1,\"kind\":\"batch\",\"requests\":[".repeat(nested),
                "]}".repeat(nested)
            );
            // An element within the limit leaves valid JSON and the nested
            // batch error, echoing id 1; past it, the frame is malformed.
            let deepest = 2 * nested + 2;
            let err = same_reading(frame.as_bytes()).expect_err("a nested batch");
            assert_eq!(err.id, u64::from(deepest <= MAX_DEPTH), "{nested}");
        }
    }

    fn reply(kind: &'static str, payload: ReplyPayload, trace_json: Option<String>) -> Reply {
        Reply {
            kind,
            payload,
            work: 123_456_789,
            rounds: 77,
            cached: trace_json.is_none(),
            trace_json,
        }
    }

    #[test]
    fn every_reply_kind_encodes_like_the_tree_and_reads_back() {
        let trace = "{\"spans\":[{\"name\":\"a\\\"b\\/c\",\"wall_ns\":12,\"share\":1.5e-3}],\
                     \"dropped\":0,\"ok\":true,\"none\":null}";
        let responses = [
            Response {
                id: 1,
                outcome: Ok(reply(
                    "partition",
                    ReplyPayload::Labels(vec![0, 1, 9, 10, 99_999_999, 100_000_000, u32::MAX]),
                    None,
                )),
            },
            Response {
                id: 2,
                outcome: Ok(reply(
                    "minimize_dfa",
                    ReplyPayload::Labels(Vec::new()),
                    None,
                )),
            },
            Response {
                id: 3,
                outcome: Ok(reply("partition", ReplyPayload::LabelsDigest(0xab), None)),
            },
            Response {
                id: 4,
                outcome: Ok(reply("canonize", ReplyPayload::Msp(41), None)),
            },
            Response {
                id: 5,
                outcome: Ok(reply(
                    "decompose",
                    ReplyPayload::Decomposition {
                        num_cycles: 3,
                        num_cycle_nodes: 17,
                        digest: u64::MAX,
                    },
                    None,
                )),
            },
            Response {
                id: 6,
                outcome: Ok(reply(
                    "probe",
                    ReplyPayload::Probe {
                        worker: 1,
                        outstanding: 0,
                        pooled_bytes: 1 << 40,
                        cache_hits: 5,
                        cache_misses: 6,
                        cache_bytes: 7,
                    },
                    None,
                )),
            },
            Response {
                id: 7,
                outcome: Err(ErrorReply {
                    id: 7,
                    code: ErrorCode::BadRequest,
                    message: "bad \"f\" \\ at\nbyte\t3 \u{1} é".into(),
                    retryable: false,
                }),
            },
            Response {
                id: 8,
                outcome: Ok(reply(
                    "partition",
                    ReplyPayload::Labels(vec![0, 0, 1]),
                    Some(trace.into()),
                )),
            },
        ];
        for resp in &responses {
            let bytes = resp.encode();
            assert_eq!(
                bytes,
                response_tree(resp).to_json().into_bytes(),
                "{resp:?}"
            );
            let mut back = Response::decode(&bytes).expect("decodes");
            if let (Ok(b), Ok(r)) = (&mut back.outcome, &resp.outcome) {
                // The trace comes back re-serialized, as it went out.
                let spliced = r
                    .trace_json
                    .as_ref()
                    .map(|t| json::parse(t.as_bytes()).unwrap().to_json());
                assert_eq!(b.trace_json, spliced);
                b.trace_json.clone_from(&r.trace_json);
            }
            assert_eq!(&back, resp);
        }
        // A trace that is not JSON goes out as `null`, like the tree's.
        let odd = Response {
            id: u64::MAX,
            outcome: Ok(reply(
                "canonize",
                ReplyPayload::Msp(0),
                Some("{oops".into()),
            )),
        };
        assert_eq!(odd.encode(), response_tree(&odd).to_json().into_bytes());

        let batch = BatchResponse {
            id: 90,
            responses: responses[..7].to_vec(),
        };
        let tree = obj(vec![
            ("id", int(90)),
            ("ok", Value::Bool(true)),
            ("kind", Value::Str("batch".into())),
            (
                "responses",
                Value::Array(batch.responses.iter().map(response_tree).collect()),
            ),
        ]);
        assert_eq!(batch.encode(), tree.to_json().into_bytes());
        assert_eq!(
            BatchResponse::decode(&batch.encode()).expect("decodes"),
            batch
        );
        let empty = BatchResponse {
            id: 91,
            responses: Vec::new(),
        };
        assert_eq!(
            BatchResponse::decode(&empty.encode()).expect("decodes"),
            empty
        );
    }
}
