//! # `sfcp_service` — the batched, warm, snapshot-cached serving layer
//!
//! Every library entry point in this workspace pays a cold-start tax: a
//! fresh [`sfcp_pram::Ctx`] arrives with empty workspace pools, and the
//! measured warm-up margin at `n = 10^6` is ~20% of end-to-end latency
//! (`decompose` vs `decompose_warm` in `BENCH_parprim.json`).  This crate
//! is the long-running front-end that amortizes that tax to zero: worker
//! threads own persistent contexts, answers are cached as versioned
//! checksummed [`Snapshot`]s, and small requests fuse into one solver
//! invocation (DESIGN.md §13).
//!
//! The wire protocol is length-prefixed JSON over TCP ([`proto`]); the
//! request surface covers coarsest partition, unary DFA minimization,
//! circular-string canonization, and pseudoforest decomposition.  Answers
//! and charges are **bit-identical** to direct library calls — the
//! differential harness (`tests/service_differential.rs`) pins that for
//! every request kind, which is only possible because the charge
//! discipline makes charges input-determined and therefore cacheable.
//!
//! ## Quickstart
//!
//! ```
//! use sfcp_service::{Client, ComputeRequest, ReplyPayload, Server, ServerConfig};
//!
//! // An in-process server on an ephemeral local port.
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//!
//! // The paper's 16-node example, served over the wire.
//! let inst = sfcp::Instance::paper_example();
//! let req = ComputeRequest::partition(inst.f().to_vec(), inst.blocks().to_vec());
//! let reply = client.request(&req).unwrap().unwrap();
//! let ReplyPayload::Labels(labels) = &reply.payload else { panic!() };
//! assert_eq!(labels.iter().max(), Some(&3), "four blocks, canonical labels");
//! assert!(reply.work > 0 && !reply.cached);
//!
//! // The identical request hits the snapshot cache — same answer, same
//! // charges, no recompute.
//! let again = client.request(&req).unwrap().unwrap();
//! assert!(again.cached);
//! assert_eq!(again.payload, reply.payload);
//! assert_eq!((again.work, again.rounds), (reply.work, reply.rounds));
//!
//! // Bad input is a typed error, and the worker keeps serving.
//! let bad = ComputeRequest::partition(vec![9, 0], vec![0, 0]);
//! let err = client.request(&bad).unwrap().unwrap_err();
//! assert_eq!(err.code, sfcp_service::ErrorCode::InvalidInput);
//! assert!(client.probe().unwrap().is_ok());
//!
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub mod batch;
pub mod client;
pub mod error;
pub mod json;
pub mod proto;
pub mod server;
pub mod snapshot;
pub mod worker;

pub use batch::BatchPolicy;
pub use client::{Client, ClientError};
pub use error::{ErrorCode, ErrorReply};
pub use proto::{ComputeRequest, Input, Kind, Reply, ReplyPayload, Request, Response};
pub use server::{Server, ServerConfig, ServerHandle};
pub use snapshot::{Snapshot, SnapshotCache, SnapshotError, SnapshotPayload};
pub use worker::Worker;
