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
//!
//! ## The codec
//!
//! One typed reader and one writer, no `Value` tree on the frame path:
//!
//! * **Reading.**  Each kind of object has a schema, a table of the
//!   members the decoder reads and their types (`REQUEST`, `RESPONSE`,
//!   `BATCH_RESPONSE`).  The reader walks an object's members in any order
//!   straight off the bytes, on the lexer that [`json::parse`] also runs
//!   on.  It reads array members into `Vec<u32>`, integers, flags and
//!   strings into their own types, and lexes and drops every unknown
//!   member.  A repeated key keeps its first occurrence, as
//!   [`Value::get`] does.  The whole payload is lexed before any field is
//!   checked, so a syntax error anywhere is a malformed-JSON bad request
//!   with id 0, and a well-formed frame with a bad field echoes its id.
//! * **Writing.**  Every frame is appended to one buffer reserved up
//!   front, array elements through a digit writer.  The bytes are exactly
//!   those of the frame's `Value` tree under [`Value::to_json`]: the same
//!   key order and compact spelling, with ids and counters written as
//!   unsigned digits.
//!
//! Only a traced reply's `trace` member goes through a [`Value`]: the
//! summary is already-serialized JSON, which the writer re-parses so the
//! frame stays valid whatever the string holds, and which the reader reads
//! as a tree and hands back as text.

use crate::error::{ErrorCode, ErrorReply};
use crate::json::{self, JsonError, Lexer, Value};
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

    fn from_name(name: &str) -> Option<Kind> {
        [
            Kind::Partition,
            Kind::MinimizeDfa,
            Kind::Canonize,
            Kind::Decompose,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }

    /// The keys of an inline input's arrays: the function (or string) and,
    /// for the partition kinds, the initial blocks.
    fn array_keys(self) -> (&'static str, Option<&'static str>) {
        match self {
            Kind::Partition => ("f", Some("blocks")),
            Kind::MinimizeDfa => ("delta", Some("accepting")),
            Kind::Canonize => ("s", None),
            Kind::Decompose => ("f", None),
        }
    }

    /// The workload member that holds [`Input::Workload`]'s `param`.
    fn param_key(self) -> Option<&'static str> {
        match self {
            Kind::Partition | Kind::MinimizeDfa => Some("blocks"),
            Kind::Canonize => Some("alphabet"),
            Kind::Decompose => None,
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
    /// Roughly the encoded size, to allocate the frame once.
    fn len_hint(&self) -> usize {
        match &self.input {
            Input::Inline { f, blocks } => 64 + U32_HINT * (f.len() + blocks.len()),
            Input::Workload { .. } => 128,
        }
    }

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
        let mut fields = Fields::read_document(payload, &REQUEST)
            .map_err(|e| ErrorReply::bad_request(format!("malformed JSON: {e}")))?;
        let id = fields.uint("id").unwrap_or(0);
        let body = decode_body(&mut fields, true).map_err(|mut e| {
            e.id = id;
            e
        })?;
        Ok(Request { id, body })
    }

    /// Serialize to a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let hint = match &self.body {
            RequestBody::Compute(req) => req.len_hint(),
            RequestBody::Batch(subs) => subs.iter().map(|(_, req)| req.len_hint()).sum(),
            RequestBody::Probe => 0,
        };
        let mut out = Vec::with_capacity(64 + hint);
        let mut obj = Obj::open(&mut out, "id", self.id);
        match &self.body {
            RequestBody::Probe => obj.str("kind", "probe"),
            RequestBody::Compute(req) => encode_compute(&mut obj, req),
            RequestBody::Batch(subs) => {
                obj.str("kind", "batch");
                obj.list("requests", subs, |out, (id, req)| {
                    let mut sub = Obj::open(out, "id", *id);
                    encode_compute(&mut sub, req);
                    sub.close();
                });
            }
        }
        obj.close();
        out
    }
}

fn decode_body(fields: &mut Fields, allow_batch: bool) -> Result<RequestBody, ErrorReply> {
    let kind = match fields.str("kind") {
        None => return Err(ErrorReply::bad_request("missing \"kind\"")),
        Some("probe") => return Ok(RequestBody::Probe),
        Some("batch") if !allow_batch => return Err(ErrorReply::bad_request("nested batch")),
        Some("batch") => return decode_batch(fields),
        Some(name) => Kind::from_name(name)
            .ok_or_else(|| ErrorReply::bad_request(format!("unknown kind {name:?}")))?,
    };
    let input = match fields.get("workload") {
        Some(Field::Object(w)) => Input::Workload {
            n: w.uint("n")
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| ErrorReply::bad_request("workload needs \"n\""))?,
            seed: w
                .uint("seed")
                .ok_or_else(|| ErrorReply::bad_request("workload needs \"seed\""))?,
            param: kind.param_key().map_or(0, |key| {
                w.uint(key)
                    .and_then(|v| u32::try_from(v).ok())
                    .unwrap_or(2)
                    .max(1)
            }),
        },
        _ => {
            let (f_key, blocks_key) = kind.array_keys();
            let f = take_u32s(fields, f_key)?;
            let blocks = match blocks_key {
                Some(key) => take_u32s(fields, key)?,
                None => Vec::new(),
            };
            Input::Inline { f, blocks }
        }
    };
    Ok(RequestBody::Compute(ComputeRequest {
        kind,
        input,
        digest_only: flag(fields, "digest", false)?,
        use_cache: flag(fields, "cache", true)?,
        trace: flag(fields, "trace", false)?,
    }))
}

fn decode_batch(fields: &mut Fields) -> Result<RequestBody, ErrorReply> {
    let Some(Field::Objects(subs)) = fields.take("requests") else {
        return Err(ErrorReply::bad_request("batch without \"requests\""));
    };
    subs.into_iter()
        .map(|mut sub| {
            let sub_id = sub.uint("id").unwrap_or(0);
            match decode_body(&mut sub, false)? {
                RequestBody::Compute(req) => Ok((sub_id, req)),
                _ => Err(ErrorReply::bad_request(
                    "batch members must be compute requests",
                )),
            }
        })
        .collect::<Result<_, _>>()
        .map(RequestBody::Batch)
}

fn flag(fields: &Fields, key: &str, default: bool) -> Result<bool, ErrorReply> {
    match fields.get(key) {
        None => Ok(default),
        Some(Field::Bool(b)) => Ok(*b),
        Some(_) => Err(ErrorReply::bad_request(format!(
            "\"{key}\" must be a boolean"
        ))),
    }
}

fn take_u32s(fields: &mut Fields, key: &str) -> Result<Vec<u32>, ErrorReply> {
    match fields.take(key) {
        Some(Field::U32s(values)) => Ok(values),
        Some(_) => Err(ErrorReply::bad_request(format!(
            "\"{key}\" must hold u32 values"
        ))),
        None => Err(ErrorReply::bad_request(format!("missing \"{key}\" array"))),
    }
}

fn encode_compute(obj: &mut Obj<'_>, req: &ComputeRequest) {
    obj.str("kind", req.kind.name());
    match &req.input {
        Input::Inline { f, blocks } => {
            let (f_key, blocks_key) = req.kind.array_keys();
            obj.u32s(f_key, f);
            if let Some(key) = blocks_key {
                obj.u32s(key, blocks);
            }
        }
        Input::Workload { n, seed, param } => {
            let mut w = Obj::open(obj.key("workload"), "n", *n as u64);
            w.int("seed", *seed);
            if let Some(key) = req.kind.param_key() {
                w.int(key, u64::from(*param));
            }
            w.close();
        }
    }
    if req.digest_only {
        obj.bool("digest", true);
    }
    if !req.use_cache {
        obj.bool("cache", false);
    }
    if req.trace {
        obj.bool("trace", true);
    }
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
    /// Tracked work charge of the run that computed the answer.  A cache
    /// hit replays the charge stored with its snapshot, so it equals the
    /// original run's; a probe reports 0 (DESIGN.md §13).
    pub work: u64,
    /// Tracked rounds charge, under the same rule as [`Reply::work`].
    pub rounds: u64,
    /// Whether the answer came from the snapshot cache.
    pub cached: bool,
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

impl Response {
    /// Serialize to a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len_hint());
        self.write(&mut out);
        out
    }

    /// Roughly the encoded size, to allocate the frame once.
    fn len_hint(&self) -> usize {
        match &self.outcome {
            Err(err) => 128 + err.message.len(),
            Ok(reply) => {
                let labels = match &reply.payload {
                    ReplyPayload::Labels(labels) => labels.len(),
                    _ => 0,
                };
                256 + U32_HINT * labels + reply.trace_json.as_ref().map_or(0, String::len)
            }
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        let mut obj = Obj::open(out, "id", self.id);
        match &self.outcome {
            Err(err) => {
                obj.bool("ok", false);
                obj.str("code", err.code.name());
                obj.str("message", &err.message);
                obj.bool("retryable", err.retryable);
            }
            Ok(reply) => {
                obj.bool("ok", true);
                obj.str("kind", reply.kind);
                match &reply.payload {
                    ReplyPayload::Labels(labels) => obj.u32s("labels", labels),
                    ReplyPayload::LabelsDigest(d) => obj.hex("labels_digest", *d),
                    ReplyPayload::Msp(k) => obj.int("msp", *k),
                    ReplyPayload::Decomposition {
                        num_cycles,
                        num_cycle_nodes,
                        digest,
                    } => {
                        obj.int("num_cycles", *num_cycles);
                        obj.int("num_cycle_nodes", *num_cycle_nodes);
                        obj.hex("digest", *digest);
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
                            obj.int(key, *v);
                        }
                    }
                }
                obj.int("work", reply.work);
                obj.int("rounds", reply.rounds);
                obj.bool("cached", reply.cached);
                if let Some(trace) = &reply.trace_json {
                    // Already-serialized JSON from the trace summary; it
                    // goes through the parser so the frame stays valid
                    // whatever the string holds.
                    let spliced = json::parse(trace.as_bytes()).unwrap_or(Value::Null);
                    spliced.write(obj.key("trace"));
                }
            }
        }
        obj.close();
    }

    /// Parse a response frame payload.
    ///
    /// # Errors
    /// A human-readable description when the payload is not a valid
    /// response object (client-side use).
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let mut fields = Fields::read_document(payload, RESPONSE)
            .map_err(|e| format!("malformed response JSON: {e}"))?;
        Response::from_fields(&mut fields)
    }

    fn from_fields(f: &mut Fields) -> Result<Response, String> {
        let id = f.uint("id").unwrap_or(0);
        if !f.bool("ok").ok_or("response missing \"ok\"")? {
            let err = ErrorReply {
                id,
                code: f
                    .str("code")
                    .map(ErrorCode::from_name)
                    .ok_or("error response missing \"code\"")?,
                message: f.str("message").unwrap_or_default().to_string(),
                retryable: f.bool("retryable").unwrap_or(false),
            };
            return Ok(Response {
                id,
                outcome: Err(err),
            });
        }
        // `None` is a probe.
        let kind = match f.str("kind").ok_or("missing \"kind\"")? {
            "probe" => None,
            name => Some(
                Kind::from_name(name).ok_or_else(|| format!("unknown response kind {name:?}"))?,
            ),
        };
        let payload = match kind {
            None => {
                let get = |key| f.uint(key).unwrap_or(0);
                ReplyPayload::Probe {
                    worker: get("worker"),
                    outstanding: get("outstanding"),
                    pooled_bytes: get("pooled_bytes"),
                    cache_hits: get("cache_hits"),
                    cache_misses: get("cache_misses"),
                    cache_bytes: get("cache_bytes"),
                }
            }
            Some(Kind::Canonize) => ReplyPayload::Msp(f.uint("msp").ok_or("missing \"msp\"")?),
            Some(Kind::Decompose) => ReplyPayload::Decomposition {
                num_cycles: f.uint("num_cycles").ok_or("missing \"num_cycles\"")?,
                num_cycle_nodes: f
                    .uint("num_cycle_nodes")
                    .ok_or("missing \"num_cycle_nodes\"")?,
                digest: f.hex("digest").ok_or("missing \"digest\"")?,
            },
            Some(Kind::Partition | Kind::MinimizeDfa) => {
                if f.get("labels_digest").is_some() {
                    ReplyPayload::LabelsDigest(f.hex("labels_digest").ok_or("bad digest")?)
                } else {
                    match f.take("labels") {
                        Some(Field::U32s(labels)) => ReplyPayload::Labels(labels),
                        Some(_) => return Err("labels must hold u32 values".into()),
                        None => return Err("missing \"labels\"".into()),
                    }
                }
            }
        };
        let trace_json = match f.take("trace") {
            Some(Field::Json(trace)) => Some(trace.to_json()),
            _ => None,
        };
        Ok(Response {
            id,
            outcome: Ok(Reply {
                kind: kind.map_or("probe", Kind::name),
                payload,
                work: f.uint("work").unwrap_or(0),
                rounds: f.uint("rounds").unwrap_or(0),
                cached: f.bool("cached").unwrap_or(false),
                trace_json,
            }),
        })
    }
}

impl BatchResponse {
    /// Serialize to a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let hint: usize = self.responses.iter().map(Response::len_hint).sum();
        let mut out = Vec::with_capacity(64 + hint);
        let mut obj = Obj::open(&mut out, "id", self.id);
        obj.bool("ok", true);
        obj.str("kind", "batch");
        obj.list("responses", &self.responses, |out, r| r.write(out));
        obj.close();
        out
    }

    /// Parse a batch response frame payload.
    ///
    /// # Errors
    /// A human-readable description when the payload is not a valid batch
    /// response.
    pub fn decode(payload: &[u8]) -> Result<BatchResponse, String> {
        let mut fields = Fields::read_document(payload, BATCH_RESPONSE)
            .map_err(|e| format!("malformed response JSON: {e}"))?;
        if fields.str("kind") != Some("batch") {
            return Err("not a batch response".into());
        }
        let Some(Field::Objects(items)) = fields.take("responses") else {
            return Err("batch response missing \"responses\"".into());
        };
        let responses = items
            .into_iter()
            .map(|mut r| Response::from_fields(&mut r))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchResponse {
            id: fields.uint("id").unwrap_or(0),
            responses,
        })
    }
}

// ---------------------------------------------------------------------------
// The reader: each object's members, straight off the frame bytes.
// ---------------------------------------------------------------------------

/// How the reader takes one member's value.
#[derive(Clone, Copy)]
enum Ty {
    /// A non-negative integer, as [`Value::as_u64`] reads it.
    Uint,
    /// `true` or `false`.
    Bool,
    /// A string.
    Str,
    /// An array of integers in `u32` range, read into a `Vec<u32>`.
    U32s,
    /// An object, read by its own schema.
    Object(Schema),
    /// An array of objects, each read by the schema.
    Objects(Schema),
    /// Any value, kept as a [`Value`] tree.
    Json,
}

/// The members the decoder reads from one kind of object, by key.  Every
/// other member is lexed and dropped.
type Schema = &'static [(&'static str, Ty)];

/// A request object, at the top level or as a batch member.  A member's
/// own `"requests"` is read but never used: a nested batch is rejected.
static REQUEST: [(&str, Ty); 12] = [
    ("id", Ty::Uint),
    ("kind", Ty::Str),
    ("f", Ty::U32s),
    ("blocks", Ty::U32s),
    ("delta", Ty::U32s),
    ("accepting", Ty::U32s),
    ("s", Ty::U32s),
    (
        "workload",
        Ty::Object(&[
            ("n", Ty::Uint),
            ("seed", Ty::Uint),
            ("blocks", Ty::Uint),
            ("alphabet", Ty::Uint),
        ]),
    ),
    ("digest", Ty::Bool),
    ("cache", Ty::Bool),
    ("trace", Ty::Bool),
    ("requests", Ty::Objects(&REQUEST)),
];

/// A response object, at the top level or as a batch member.
const RESPONSE: Schema = &[
    ("id", Ty::Uint),
    ("ok", Ty::Bool),
    ("code", Ty::Str),
    ("message", Ty::Str),
    ("retryable", Ty::Bool),
    ("kind", Ty::Str),
    ("labels", Ty::U32s),
    ("labels_digest", Ty::Str),
    ("msp", Ty::Uint),
    ("num_cycles", Ty::Uint),
    ("num_cycle_nodes", Ty::Uint),
    ("digest", Ty::Str),
    ("worker", Ty::Uint),
    ("outstanding", Ty::Uint),
    ("pooled_bytes", Ty::Uint),
    ("cache_hits", Ty::Uint),
    ("cache_misses", Ty::Uint),
    ("cache_bytes", Ty::Uint),
    ("work", Ty::Uint),
    ("rounds", Ty::Uint),
    ("cached", Ty::Bool),
    ("trace", Ty::Json),
];

/// A batch response frame.
const BATCH_RESPONSE: Schema = &[
    ("id", Ty::Uint),
    ("kind", Ty::Str),
    ("responses", Ty::Objects(RESPONSE)),
];

/// One member's value as its [`Ty`] reads it.
enum Field {
    Uint(u64),
    Bool(bool),
    Str(String),
    U32s(Vec<u32>),
    Object(Fields),
    Objects(Vec<Fields>),
    Json(Value),
    /// A member holding a value of another type: present, but unreadable.
    Wrong,
}

impl Field {
    fn read(lx: &mut Lexer<'_>, depth: usize, ty: Ty) -> Result<Field, JsonError> {
        Ok(match ty {
            Ty::Uint => lx.uint(depth)?.map_or(Field::Wrong, Field::Uint),
            Ty::Bool => lx.bool(depth)?.map_or(Field::Wrong, Field::Bool),
            Ty::Str => lx.str(depth)?.map_or(Field::Wrong, Field::Str),
            Ty::U32s => lx.u32s(depth)?.map_or(Field::Wrong, Field::U32s),
            Ty::Object(schema) => Field::Object(Fields::read(lx, depth, schema)?),
            Ty::Objects(schema) => {
                let mut items = Vec::new();
                let is_array = lx.elements(depth, |lx| {
                    items.push(Fields::read(lx, depth + 1, schema)?);
                    Ok(())
                })?;
                if is_array {
                    Field::Objects(items)
                } else {
                    Field::Wrong
                }
            }
            Ty::Json => Field::Json(lx.value(depth)?),
        })
    }
}

/// The schema members of one object, each at its first occurrence (the
/// one [`Value::get`] finds).  A value that is not an object has none.
#[derive(Default)]
struct Fields(Vec<(&'static str, Field)>);

impl Fields {
    /// Read a whole payload: one value, and nothing but whitespace after it.
    fn read_document(payload: &[u8], schema: Schema) -> Result<Fields, JsonError> {
        let mut lx = Lexer::new(payload);
        let fields = Fields::read(&mut lx, 0, schema)?;
        lx.finish()?;
        Ok(fields)
    }

    fn read(lx: &mut Lexer<'_>, depth: usize, schema: Schema) -> Result<Fields, JsonError> {
        let mut fields = Fields::default();
        lx.members(depth, |lx, key| {
            match schema.iter().find(|(name, _)| *name == key) {
                Some(&(name, ty)) if fields.get(name).is_none() => {
                    let field = Field::read(lx, depth + 1, ty)?;
                    fields.0.push((name, field));
                    Ok(())
                }
                _ => lx.skip(depth + 1),
            }
        })?;
        Ok(fields)
    }

    fn get(&self, key: &str) -> Option<&Field> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, f)| f)
    }

    fn take(&mut self, key: &str) -> Option<Field> {
        let at = self.0.iter().position(|(k, _)| *k == key)?;
        Some(self.0.swap_remove(at).1)
    }

    fn uint(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Field::Uint(v) => Some(*v),
            _ => None,
        }
    }

    fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Field::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A `"0x…"` hex string.
    fn hex(&self, key: &str) -> Option<u64> {
        u64::from_str_radix(self.str(key)?.strip_prefix("0x")?, 16).ok()
    }
}

// ---------------------------------------------------------------------------
// The writer: every frame appended to one buffer.
// ---------------------------------------------------------------------------

/// Bytes to reserve per `u32` of an array: a hint, not a bound (up to six
/// digits and a comma; the arrays a solvable instance sends hold values
/// below its size).
const U32_HINT: usize = 8;

/// Appends one object to a frame buffer: [`Obj::open`] writes `{` and the
/// first member, each later member goes out as `,"key":value`, and
/// [`Obj::close`] writes `}`.
struct Obj<'o>(&'o mut Vec<u8>);

impl<'o> Obj<'o> {
    fn open(out: &'o mut Vec<u8>, key: &str, v: u64) -> Obj<'o> {
        out.push(b'{');
        json::write_str(out, key);
        out.push(b':');
        json::write_int(out, v);
        Obj(out)
    }

    /// Write `,"key":` and return the buffer for the value.
    fn key(&mut self, key: &str) -> &mut Vec<u8> {
        self.0.push(b',');
        json::write_str(self.0, key);
        self.0.push(b':');
        self.0
    }

    fn int(&mut self, key: &str, v: u64) {
        json::write_int(self.key(key), v);
    }

    fn bool(&mut self, key: &str, v: bool) {
        json::write_bool(self.key(key), v);
    }

    fn str(&mut self, key: &str, v: &str) {
        json::write_str(self.key(key), v);
    }

    /// A `u64` fingerprint as a `"0x…"` string of 16 hex digits.
    fn hex(&mut self, key: &str, v: u64) {
        write!(self.key(key), "\"{v:#018x}\"").expect("writing to a Vec cannot fail");
    }

    /// An array, each item written by `item`.
    fn list<T>(&mut self, key: &str, items: &[T], mut item: impl FnMut(&mut Vec<u8>, &T)) {
        let out = self.key(key);
        out.push(b'[');
        for (i, x) in items.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            item(out, x);
        }
        out.push(b']');
    }

    fn u32s(&mut self, key: &str, values: &[u32]) {
        self.list(key, values, |out, &v| json::write_u32(out, v));
    }

    fn close(self) {
        self.0.push(b'}');
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

    /// Servers that fused batch members sent a `"fused"` cohort size with
    /// every reply; it is ignored like any unknown key.
    #[test]
    fn leftover_fused_reply_key_is_ignored() {
        let resp = Response::decode(
            br#"{"id":3,"ok":true,"kind":"partition","labels":[0,1,0],
                "work":12,"rounds":4,"cached":false,"fused":8}"#,
        )
        .unwrap();
        let expect = Reply {
            kind: "partition",
            payload: ReplyPayload::Labels(vec![0, 1, 0]),
            work: 12,
            rounds: 4,
            cached: false,
            trace_json: None,
        };
        assert_eq!(resp.outcome, Ok(expect));
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
