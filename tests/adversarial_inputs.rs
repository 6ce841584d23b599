//! Adversarial-input suite: malformed inputs must surface as typed errors
//! through the `try_` surface — never as panics — and must leave the context
//! reconciled (no outstanding checkouts).
//!
//! Property-based: cyclic "forests", non-permutation successor arrays,
//! out-of-range function tables, mismatched instance arrays, truncated
//! arc-rank streams.

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
