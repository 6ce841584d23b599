//! Wire protocol: length-prefixed JSON frames and the typed request /
//! response structs they carry.
//!
//! A frame is a little-endian `u32` byte count followed by exactly that
//! many bytes of UTF-8 JSON (one request or one response object).  The
//! length prefix is bounded by the server's configured maximum
//! ([`DEFAULT_MAX_FRAME_BYTES`] by default); an oversized prefix is a fatal
//! framing error (the stream position is unrecoverable), while garbage JSON
//! inside a well-framed payload is a per-request error and leaves the
//! connection usable.
//!
//! ## Request shapes
//!
//! ```json
//! {"id":1,"kind":"partition","f":[1,2,0,0],"blocks":[0,0,0,1]}
//! {"id":2,"kind":"minimize_dfa","delta":[1,2,0],"accepting":[0,0,1]}
//! {"id":3,"kind":"canonize","s":[2,1,2,1,1]}
//! {"id":4,"kind":"decompose","f":[1,2,0,0]}
//! {"id":5,"kind":"partition","workload":{"n":100000,"seed":7,"blocks":3}}
//! {"id":6,"kind":"batch","requests":[{"id":60,"kind":"partition",…},…]}
//! {"id":7,"kind":"probe"}
//! ```
//!
//! Common options on compute requests: `"digest":true` (respond with a
//! fingerprint instead of the label array), `"cache":false` (bypass the
//! snapshot cache), `"trace":true` (attach the span summary of the serving
//! run).  Unknown keys — such as a leftover `"engines"` object from older
//! clients — are ignored.
//!
//! `u64` fingerprints ride as `"0x…"` hex strings: JSON numbers are f64 and
//! lose integer precision past 2^53.

use crate::error::{ErrorCode, ErrorReply};
use crate::json::{self, Value};
use std::fmt;
use std::io::{Read, Write};

/// Default cap on a single frame's payload size (64 MiB — a 16M-element
/// inline instance; workload requests describe big inputs in a few bytes).
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 64 << 20;

/// A framing-layer failure.  Unlike a malformed payload, these poison the
/// stream position, so the peer closes the connection after reporting.
#[derive(Debug)]
pub enum FrameError {
    /// The transport failed.
    Io(std::io::Error),
    /// The length prefix exceeds the configured cap.
    TooLarge {
        /// The declared payload length.
        declared: u32,
        /// The configured cap.
        max: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one length-prefixed frame.
///
/// The prefix and payload go out as a **single** write: splitting them
/// leaves the payload queued behind Nagle's algorithm waiting for the ACK
/// of the prefix segment, and the peer's delayed-ACK timer turns every
/// response into a 40–200 ms stall (observed as a ~13x latency blowup on
/// small-request service rounds before the writes were coalesced).
///
/// # Errors
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds u32 length")
    })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame.  `Ok(None)` is a clean end-of-stream
/// (the peer closed between frames).
///
/// # Errors
/// [`FrameError::TooLarge`] when the prefix exceeds `max_bytes`;
/// [`FrameError::Io`] on transport failures (including EOF mid-frame).
pub fn read_frame(r: &mut impl Read, max_bytes: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame header",
                )))
            }
            k => filled += k,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max_bytes {
        return Err(FrameError::TooLarge {
            declared: len,
            max: max_bytes,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// The request kinds that run the solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Single function coarsest partition of `(f, blocks)`.
    Partition,
    /// Unary DFA minimization: `delta`/`accepting` map onto `f`/`blocks`.
    MinimizeDfa,
    /// Circular-string canonization: least starting point of `s`.
    Canonize,
    /// Pseudoforest decomposition summary of `f`.
    Decompose,
}

impl Kind {
    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Partition => "partition",
            Kind::MinimizeDfa => "minimize_dfa",
            Kind::Canonize => "canonize",
            Kind::Decompose => "decompose",
        }
    }
}

/// The input payload of a compute request: inline arrays, or a server-side
/// generated workload (keeps parse cost out of latency benchmarks and big
/// inputs off the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// Inline arrays; `blocks` is empty for `canonize`/`decompose`.
    Inline {
        /// The function table (or the string, for `canonize`).
        f: Vec<u32>,
        /// The initial block labels (partition kinds only).
        blocks: Vec<u32>,
    },
    /// Deterministic server-side generation from `(n, seed)`.
    Workload {
        /// Domain size.
        n: usize,
        /// Generator seed.
        seed: u64,
        /// Number of initial blocks (partition kinds) or alphabet size
        /// (`canonize`); ignored by `decompose`.
        param: u32,
    },
}

/// One compute request (everything except `batch`/`probe` framing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeRequest {
    /// Which solver to run.
    pub kind: Kind,
    /// The input payload.
    pub input: Input,
    /// Respond with an FxHash fingerprint instead of the result array.
    pub digest_only: bool,
    /// Consult/fill the snapshot cache.
    pub use_cache: bool,
    /// Attach the span trace summary of the serving run.
    pub trace: bool,
}

impl ComputeRequest {
    fn new(kind: Kind, input: Input) -> Self {
        ComputeRequest {
            kind,
            input,
            digest_only: false,
            use_cache: true,
            trace: false,
        }
    }

    /// A coarsest-partition request over inline arrays.
    #[must_use]
    pub fn partition(f: Vec<u32>, blocks: Vec<u32>) -> Self {
        ComputeRequest::new(Kind::Partition, Input::Inline { f, blocks })
    }

    /// A unary-DFA minimization request (`delta`, acceptance classes).
    #[must_use]
    pub fn minimize_dfa(delta: Vec<u32>, accepting: Vec<u32>) -> Self {
        ComputeRequest::new(
            Kind::MinimizeDfa,
            Input::Inline {
                f: delta,
                blocks: accepting,
            },
        )
    }

    /// A circular-string canonization request.
    #[must_use]
    pub fn canonize(s: Vec<u32>) -> Self {
        ComputeRequest::new(
            Kind::Canonize,
            Input::Inline {
                f: s,
                blocks: Vec::new(),
            },
        )
    }

    /// A pseudoforest decomposition-summary request.
    #[must_use]
    pub fn decompose(f: Vec<u32>) -> Self {
        ComputeRequest::new(
            Kind::Decompose,
            Input::Inline {
                f,
                blocks: Vec::new(),
            },
        )
    }

    /// A request over a server-side generated workload.
    #[must_use]
    pub fn workload(kind: Kind, n: usize, seed: u64, param: u32) -> Self {
        ComputeRequest::new(kind, Input::Workload { n, seed, param })
    }

    /// Respond with a fingerprint instead of the result array.
    #[must_use]
    pub fn digest_only(mut self) -> Self {
        self.digest_only = true;
        self
    }

    /// Bypass the snapshot cache.
    #[must_use]
    pub fn no_cache(mut self) -> Self {
        self.use_cache = false;
        self
    }

    /// Attach the serving run's trace summary to the response.
    #[must_use]
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The request body.
    pub body: RequestBody,
}

/// The body of a request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestBody {
    /// One compute request.
    Compute(ComputeRequest),
    /// An explicit batch: sub-requests admitted as one cohort.
    Batch(Vec<(u64, ComputeRequest)>),
    /// Introspection: the answering worker reports its workspace/cache
    /// state (tests assert recovery invariants through this).
    Probe,
}

impl Request {
    /// Parse a request frame payload.
    ///
    /// # Errors
    /// [`ErrorReply`] with [`ErrorCode::BadRequest`] on garbage JSON or a
    /// structurally invalid request (the connection stays usable).
    pub fn decode(payload: &[u8]) -> Result<Request, ErrorReply> {
        let value = json::parse(payload)
            .map_err(|e| ErrorReply::bad_request(format!("malformed JSON: {e}")))?;
        let id = req_id(&value);
        let body = decode_body(&value, true).map_err(|mut e| {
            e.id = id;
            e
        })?;
        Ok(Request { id, body })
    }

    /// Serialize to a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut members = vec![("id".to_string(), Value::Int(self.id as i64))];
        match &self.body {
            RequestBody::Probe => {
                members.push(("kind".into(), Value::Str("probe".into())));
            }
            RequestBody::Compute(req) => encode_compute(req, &mut members),
            RequestBody::Batch(subs) => {
                members.push(("kind".into(), Value::Str("batch".into())));
                let reqs = subs
                    .iter()
                    .map(|(id, req)| {
                        let mut m = vec![("id".to_string(), Value::Int(*id as i64))];
                        encode_compute(req, &mut m);
                        Value::Object(m)
                    })
                    .collect();
                members.push(("requests".into(), Value::Array(reqs)));
            }
        }
        Value::Object(members).to_json().into_bytes()
    }
}

/// Best-effort id extraction so error replies can still correlate.
fn req_id(value: &Value) -> u64 {
    value.get("id").and_then(Value::as_u64).unwrap_or(0)
}

fn decode_body(value: &Value, allow_batch: bool) -> Result<RequestBody, ErrorReply> {
    let kind = value
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| ErrorReply::bad_request("missing \"kind\"".into()))?;
    let kind = match kind {
        "probe" => return Ok(RequestBody::Probe),
        "batch" => {
            if !allow_batch {
                return Err(ErrorReply::bad_request("nested batch".into()));
            }
            let reqs = value
                .get("requests")
                .and_then(Value::as_array)
                .ok_or_else(|| ErrorReply::bad_request("batch without \"requests\"".into()))?;
            let mut subs = Vec::with_capacity(reqs.len());
            for sub in reqs {
                let sub_id = req_id(sub);
                match decode_body(sub, false)? {
                    RequestBody::Compute(req) => subs.push((sub_id, req)),
                    _ => {
                        return Err(ErrorReply::bad_request(
                            "batch members must be compute requests".into(),
                        ))
                    }
                }
            }
            return Ok(RequestBody::Batch(subs));
        }
        "partition" => Kind::Partition,
        "minimize_dfa" => Kind::MinimizeDfa,
        "canonize" => Kind::Canonize,
        "decompose" => Kind::Decompose,
        other => {
            return Err(ErrorReply::bad_request(format!("unknown kind {other:?}")));
        }
    };
    let input = decode_input(kind, value)?;
    Ok(RequestBody::Compute(ComputeRequest {
        kind,
        input,
        digest_only: flag(value, "digest", false)?,
        use_cache: flag(value, "cache", true)?,
        trace: flag(value, "trace", false)?,
    }))
}

fn flag(value: &Value, key: &str, default: bool) -> Result<bool, ErrorReply> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ErrorReply::bad_request(format!("\"{key}\" must be a boolean"))),
    }
}

fn u32_array(value: &Value, key: &str) -> Result<Vec<u32>, ErrorReply> {
    let items = value
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| ErrorReply::bad_request(format!("missing \"{key}\" array")))?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let v = item
            .as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| ErrorReply::bad_request(format!("\"{key}\" must hold u32 values")))?;
        out.push(v);
    }
    Ok(out)
}

fn decode_input(kind: Kind, value: &Value) -> Result<Input, ErrorReply> {
    if let Some(w) = value.get("workload") {
        let n = w
            .get("n")
            .and_then(Value::as_usize)
            .ok_or_else(|| ErrorReply::bad_request("workload needs \"n\"".into()))?;
        let seed = w
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| ErrorReply::bad_request("workload needs \"seed\"".into()))?;
        let param_key = match kind {
            Kind::Partition | Kind::MinimizeDfa => Some("blocks"),
            Kind::Canonize => Some("alphabet"),
            Kind::Decompose => None,
        };
        let param = match param_key {
            None => 0,
            Some(key) => w
                .get(key)
                .and_then(Value::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .unwrap_or(2)
                .max(1),
        };
        return Ok(Input::Workload { n, seed, param });
    }
    let (f_key, blocks_key) = match kind {
        Kind::Partition => ("f", Some("blocks")),
        Kind::MinimizeDfa => ("delta", Some("accepting")),
        Kind::Canonize => ("s", None),
        Kind::Decompose => ("f", None),
    };
    let f = u32_array(value, f_key)?;
    let blocks = match blocks_key {
        Some(key) => u32_array(value, key)?,
        None => Vec::new(),
    };
    Ok(Input::Inline { f, blocks })
}

fn encode_compute(req: &ComputeRequest, members: &mut Vec<(String, Value)>) {
    members.push(("kind".into(), Value::Str(req.kind.name().into())));
    match &req.input {
        Input::Inline { f, blocks } => {
            let (f_key, blocks_key) = match req.kind {
                Kind::Partition => ("f", Some("blocks")),
                Kind::MinimizeDfa => ("delta", Some("accepting")),
                Kind::Canonize => ("s", None),
                Kind::Decompose => ("f", None),
            };
            members.push((f_key.into(), u32_values(f)));
            if let Some(key) = blocks_key {
                members.push((key.into(), u32_values(blocks)));
            }
        }
        Input::Workload { n, seed, param } => {
            let mut w = vec![
                ("n".to_string(), Value::Int(*n as i64)),
                ("seed".to_string(), Value::Int(*seed as i64)),
            ];
            match req.kind {
                Kind::Partition | Kind::MinimizeDfa => {
                    w.push(("blocks".into(), Value::Int(i64::from(*param))));
                }
                Kind::Canonize => w.push(("alphabet".into(), Value::Int(i64::from(*param)))),
                Kind::Decompose => {}
            }
            members.push(("workload".into(), Value::Object(w)));
        }
    }
    if req.digest_only {
        members.push(("digest".into(), Value::Bool(true)));
    }
    if !req.use_cache {
        members.push(("cache".into(), Value::Bool(false)));
    }
    if req.trace {
        members.push(("trace".into(), Value::Bool(true)));
    }
}

fn u32_values(values: &[u32]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Int(i64::from(v))).collect())
}

/// A successful reply body.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyPayload {
    /// Canonical partition labels (first-occurrence numbering).
    Labels(Vec<u32>),
    /// FxHash fingerprint of the canonical labels (`digest:true`).
    LabelsDigest(u64),
    /// Canonize: the minimal starting point.
    Msp(u64),
    /// Decompose: summary counters plus a structure fingerprint.
    Decomposition {
        /// Number of cycles in the pseudoforest.
        num_cycles: u64,
        /// Total nodes on cycles.
        num_cycle_nodes: u64,
        /// FxHash over the decomposition arrays.
        digest: u64,
    },
    /// Probe: the answering worker's state.
    Probe {
        /// Worker index.
        worker: u64,
        /// Outstanding workspace checkouts (0 when healthy).
        outstanding: u64,
        /// Pooled workspace bytes.
        pooled_bytes: u64,
        /// Snapshot-cache hits since start.
        cache_hits: u64,
        /// Snapshot-cache misses since start.
        cache_misses: u64,
        /// Bytes resident in the snapshot cache.
        cache_bytes: u64,
    },
}

/// One reply (the `ok:true` arm of a [`Response`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Wire name of the request kind (`"probe"` for probes).
    pub kind: &'static str,
    /// The payload.
    pub payload: ReplyPayload,
    /// Tracked work charge of the serving run (0 for cache hits?  No —
    /// cache hits replay the stored charges; see DESIGN.md §13).
    pub work: u64,
    /// Tracked rounds charge of the serving run.
    pub rounds: u64,
    /// Whether the answer came from the snapshot cache.
    pub cached: bool,
    /// Cohort size of the fused engine invocation that served this reply
    /// (1 when the request ran alone).
    pub fused: u32,
    /// Trace summary JSON of the serving run, when requested.
    pub trace_json: Option<String>,
}

/// A response frame: the echoed id plus either a reply or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echoed request id.
    pub id: u64,
    /// Reply or typed error.
    pub outcome: Result<Reply, ErrorReply>,
}

/// A batch response frame: the echoed batch id plus per-member responses in
/// request order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResponse {
    /// Echoed batch frame id.
    pub id: u64,
    /// Per-member responses, in request order.
    pub responses: Vec<Response>,
}

fn hex_u64(v: u64) -> Value {
    Value::Str(format!("{v:#018x}"))
}

fn parse_hex_u64(v: &Value) -> Option<u64> {
    let s = v.as_str()?.strip_prefix("0x")?;
    u64::from_str_radix(s, 16).ok()
}

impl Response {
    /// Serialize to a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.to_value().to_json().into_bytes()
    }

    fn to_value(&self) -> Value {
        let mut members = vec![("id".to_string(), Value::Int(self.id as i64))];
        match &self.outcome {
            Err(err) => {
                members.push(("ok".into(), Value::Bool(false)));
                members.push(("code".into(), Value::Str(err.code.name().into())));
                members.push(("message".into(), Value::Str(err.message.clone())));
                members.push(("retryable".into(), Value::Bool(err.retryable)));
            }
            Ok(reply) => {
                members.push(("ok".into(), Value::Bool(true)));
                members.push(("kind".into(), Value::Str(reply.kind.into())));
                match &reply.payload {
                    ReplyPayload::Labels(labels) => {
                        members.push(("labels".into(), u32_values(labels)));
                    }
                    ReplyPayload::LabelsDigest(d) => {
                        members.push(("labels_digest".into(), hex_u64(*d)));
                    }
                    ReplyPayload::Msp(k) => {
                        members.push(("msp".into(), Value::Int(*k as i64)));
                    }
                    ReplyPayload::Decomposition {
                        num_cycles,
                        num_cycle_nodes,
                        digest,
                    } => {
                        members.push(("num_cycles".into(), Value::Int(*num_cycles as i64)));
                        members.push((
                            "num_cycle_nodes".into(),
                            Value::Int(*num_cycle_nodes as i64),
                        ));
                        members.push(("digest".into(), hex_u64(*digest)));
                    }
                    ReplyPayload::Probe {
                        worker,
                        outstanding,
                        pooled_bytes,
                        cache_hits,
                        cache_misses,
                        cache_bytes,
                    } => {
                        for (key, v) in [
                            ("worker", worker),
                            ("outstanding", outstanding),
                            ("pooled_bytes", pooled_bytes),
                            ("cache_hits", cache_hits),
                            ("cache_misses", cache_misses),
                            ("cache_bytes", cache_bytes),
                        ] {
                            members.push((key.into(), Value::Int(*v as i64)));
                        }
                    }
                }
                members.push(("work".into(), Value::Int(reply.work as i64)));
                members.push(("rounds".into(), Value::Int(reply.rounds as i64)));
                members.push(("cached".into(), Value::Bool(reply.cached)));
                members.push(("fused".into(), Value::Int(i64::from(reply.fused))));
                if let Some(trace) = &reply.trace_json {
                    // Already-serialized JSON from the trace summary; splice
                    // it back in as a parsed value to keep the frame valid.
                    let spliced = json::parse(trace.as_bytes()).unwrap_or(Value::Null);
                    members.push(("trace".into(), spliced));
                }
            }
        }
        Value::Object(members)
    }

    /// Parse a response frame payload.
    ///
    /// # Errors
    /// A human-readable description when the payload is not a valid
    /// response object (client-side use).
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let value = json::parse(payload).map_err(|e| format!("malformed response JSON: {e}"))?;
        Response::from_value(&value)
    }

    fn from_value(value: &Value) -> Result<Response, String> {
        let id = req_id(value);
        let ok = value
            .get("ok")
            .and_then(Value::as_bool)
            .ok_or("response missing \"ok\"")?;
        if !ok {
            let code = value
                .get("code")
                .and_then(Value::as_str)
                .map(ErrorCode::from_name)
                .ok_or("error response missing \"code\"")?;
            let message = value
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string();
            let retryable = value
                .get("retryable")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            return Ok(Response {
                id,
                outcome: Err(ErrorReply {
                    id,
                    code,
                    message,
                    retryable,
                }),
            });
        }
        let kind_name = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing \"kind\"")?;
        let (kind, payload) = match kind_name {
            "probe" => {
                let get = |key: &str| value.get(key).and_then(Value::as_u64).unwrap_or(0);
                (
                    "probe",
                    ReplyPayload::Probe {
                        worker: get("worker"),
                        outstanding: get("outstanding"),
                        pooled_bytes: get("pooled_bytes"),
                        cache_hits: get("cache_hits"),
                        cache_misses: get("cache_misses"),
                        cache_bytes: get("cache_bytes"),
                    },
                )
            }
            "canonize" => {
                let k = value
                    .get("msp")
                    .and_then(Value::as_u64)
                    .ok_or("missing \"msp\"")?;
                ("canonize", ReplyPayload::Msp(k))
            }
            "decompose" => (
                "decompose",
                ReplyPayload::Decomposition {
                    num_cycles: value
                        .get("num_cycles")
                        .and_then(Value::as_u64)
                        .ok_or("missing \"num_cycles\"")?,
                    num_cycle_nodes: value
                        .get("num_cycle_nodes")
                        .and_then(Value::as_u64)
                        .ok_or("missing \"num_cycle_nodes\"")?,
                    digest: value
                        .get("digest")
                        .and_then(parse_hex_u64)
                        .ok_or("missing \"digest\"")?,
                },
            ),
            "partition" | "minimize_dfa" => {
                let kind = if kind_name == "partition" {
                    "partition"
                } else {
                    "minimize_dfa"
                };
                if let Some(d) = value.get("labels_digest") {
                    (
                        kind,
                        ReplyPayload::LabelsDigest(parse_hex_u64(d).ok_or("bad digest")?),
                    )
                } else {
                    let labels = value
                        .get("labels")
                        .and_then(Value::as_array)
                        .ok_or("missing \"labels\"")?
                        .iter()
                        .map(|v| {
                            v.as_u64()
                                .and_then(|v| u32::try_from(v).ok())
                                .ok_or("labels must hold u32 values")
                        })
                        .collect::<Result<Vec<u32>, _>>()?;
                    (kind, ReplyPayload::Labels(labels))
                }
            }
            other => return Err(format!("unknown response kind {other:?}")),
        };
        let trace_json = value.get("trace").map(Value::to_json);
        Ok(Response {
            id,
            outcome: Ok(Reply {
                kind,
                payload,
                work: value.get("work").and_then(Value::as_u64).unwrap_or(0),
                rounds: value.get("rounds").and_then(Value::as_u64).unwrap_or(0),
                cached: value
                    .get("cached")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
                fused: value
                    .get("fused")
                    .and_then(Value::as_u64)
                    .and_then(|v| u32::try_from(v).ok())
                    .unwrap_or(1),
                trace_json,
            }),
        })
    }
}

impl BatchResponse {
    /// Serialize to a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let members = vec![
            ("id".to_string(), Value::Int(self.id as i64)),
            ("ok".to_string(), Value::Bool(true)),
            ("kind".to_string(), Value::Str("batch".into())),
            (
                "responses".to_string(),
                Value::Array(self.responses.iter().map(Response::to_value).collect()),
            ),
        ];
        Value::Object(members).to_json().into_bytes()
    }

    /// Parse a batch response frame payload.
    ///
    /// # Errors
    /// A human-readable description when the payload is not a valid batch
    /// response.
    pub fn decode(payload: &[u8]) -> Result<BatchResponse, String> {
        let value = json::parse(payload).map_err(|e| format!("malformed response JSON: {e}"))?;
        if value.get("kind").and_then(Value::as_str) != Some("batch") {
            return Err("not a batch response".into());
        }
        let responses = value
            .get("responses")
            .and_then(Value::as_array)
            .ok_or("batch response missing \"responses\"")?
            .iter()
            .map(Response::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchResponse {
            id: req_id(&value),
            responses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            Request {
                id: 1,
                body: RequestBody::Compute(
                    ComputeRequest::partition(vec![1, 2, 0], vec![0, 0, 1])
                        .digest_only()
                        .no_cache()
                        .traced(),
                ),
            },
            Request {
                id: 2,
                body: RequestBody::Compute(ComputeRequest::workload(Kind::Canonize, 100, 7, 4)),
            },
            Request {
                id: 3,
                body: RequestBody::Probe,
            },
            Request {
                id: 4,
                body: RequestBody::Batch(vec![
                    (40, ComputeRequest::minimize_dfa(vec![0, 0], vec![0, 1])),
                    (41, ComputeRequest::decompose(vec![1, 0])),
                ]),
            },
        ];
        for req in reqs {
            let decoded = Request::decode(&req.encode()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let responses = vec![
            Response {
                id: 9,
                outcome: Ok(Reply {
                    kind: "partition",
                    payload: ReplyPayload::Labels(vec![0, 1, 0]),
                    work: 123,
                    rounds: 7,
                    cached: true,
                    fused: 3,
                    trace_json: Some("{\"spans\":[]}".into()),
                }),
            },
            Response {
                id: 10,
                outcome: Ok(Reply {
                    kind: "decompose",
                    payload: ReplyPayload::Decomposition {
                        num_cycles: 2,
                        num_cycle_nodes: 5,
                        digest: u64::MAX,
                    },
                    work: 1,
                    rounds: 1,
                    cached: false,
                    fused: 1,
                    trace_json: None,
                }),
            },
            Response {
                id: 11,
                outcome: Err(ErrorReply {
                    id: 11,
                    code: ErrorCode::Execution,
                    message: "injected".into(),
                    retryable: true,
                }),
            },
        ];
        for resp in responses {
            let decoded = Response::decode(&resp.encode()).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    /// Clients of the retired engine options may still send an `"engines"`
    /// object (with `"sort"`, `"rank"` or `"scatter"` keys); it is ignored
    /// like any unknown key.
    #[test]
    fn leftover_scatter_engine_key_is_ignored() {
        let req = Request::decode(
            br#"{"id":1,"kind":"partition","f":[1,0],"blocks":[0,0],
                "engines":{"sort":"permutation","rank":"ruling_set","scatter":"combining"}}"#,
        )
        .unwrap();
        let RequestBody::Compute(compute) = req.body else {
            panic!("expected a compute request, got {:?}", req.body);
        };
        assert_eq!(compute, ComputeRequest::partition(vec![1, 0], vec![0, 0]));
    }

    #[test]
    fn oversized_frame_is_fatal_but_typed() {
        let mut buf: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0, 0];
        match read_frame(&mut buf, DEFAULT_MAX_FRAME_BYTES) {
            Err(FrameError::TooLarge { declared, max }) => {
                assert_eq!(declared, u32::MAX);
                assert_eq!(max, DEFAULT_MAX_FRAME_BYTES);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn frame_roundtrip_and_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"id\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r: &[u8] = &buf;
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"{\"id\":1}");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }
}
