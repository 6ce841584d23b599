//! `sfcp_serve` — run the partition service, or smoke-test it.
//!
//! ```text
//! sfcp_serve [--port P] [--workers N] [--cache-mb M] [--cold] [--deadline-us U]
//! sfcp_serve --smoke N [--workers N] [--cache-mb M]
//! ```
//!
//! Serve mode binds `127.0.0.1:P` and runs until killed.  Smoke mode (the
//! CI gate) starts an in-process server on an ephemeral port, drives `N`
//! mixed requests through a real TCP client, verifies every answer against
//! a direct library computation, and exits non-zero on the first mismatch.

use sfcp::{coarsest_partition, Algorithm, Instance};
use sfcp_forest::cycles::CycleMethod;
use sfcp_forest::{decompose, generators};
use sfcp_pram::Ctx;
use sfcp_service::batch::canonical_labels;
use sfcp_service::snapshot::{decomposition_digest, labels_digest};
use sfcp_service::worker::workload_string;
use sfcp_service::{BatchPolicy, Client, ComputeRequest, Kind, ReplyPayload, Server, ServerConfig};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    port: u16,
    workers: usize,
    cache_mb: usize,
    cold: bool,
    deadline_us: u64,
    smoke: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 7433,
        workers: 1,
        cache_mb: 64,
        cold: false,
        deadline_us: 0,
        smoke: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--port" => {
                args.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--cache-mb" => {
                args.cache_mb = value("--cache-mb")?
                    .parse()
                    .map_err(|e| format!("--cache-mb: {e}"))?;
            }
            "--deadline-us" => {
                args.deadline_us = value("--deadline-us")?
                    .parse()
                    .map_err(|e| format!("--deadline-us: {e}"))?;
            }
            "--cold" => args.cold = true,
            "--smoke" => {
                args.smoke = Some(
                    value("--smoke")?
                        .parse()
                        .map_err(|e| format!("--smoke: {e}"))?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: sfcp_serve [--port P] [--workers N] [--cache-mb M] [--cold] \
                     [--deadline-us U] [--smoke N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn config_from(args: &Args, ephemeral: bool) -> ServerConfig {
    ServerConfig {
        workers: args.workers,
        policy: BatchPolicy {
            deadline: Duration::from_micros(args.deadline_us),
            ..BatchPolicy::default()
        },
        cache_bytes: args.cache_mb << 20,
        cold_ctx: args.cold,
        port: if ephemeral { 0 } else { args.port },
        ..ServerConfig::default()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("sfcp_serve: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.smoke {
        return smoke(&args, n);
    }

    let server = match Server::start(config_from(&args, false)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sfcp_serve: bind failed: {e}");
            return ExitCode::from(1);
        }
    };
    println!("sfcp_serve listening on {}", server.addr());
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Drive `n` mixed requests through a live server and verify each answer
/// against a direct library computation.
fn smoke(args: &Args, n: usize) -> ExitCode {
    let server = match Server::start(config_from(args, true)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke: bind failed: {e}");
            return ExitCode::from(1);
        }
    };
    let mut client = match Client::connect(server.addr()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("smoke: connect failed: {e}");
            return ExitCode::from(1);
        }
    };
    let ctx = Ctx::parallel();
    let mut failures = 0usize;
    let mut served = 0usize;
    let mut check = |name: &str, ok: bool| {
        served += 1;
        if !ok {
            failures += 1;
            eprintln!("smoke FAIL [{served}]: {name}");
        }
    };

    for i in 0..n {
        let seed = 1000 + i as u64;
        match i % 5 {
            // Inline partition vs direct solve.
            0 => {
                let inst = Instance::random(500 + (i % 7) * 131, 2 + i % 4, seed);
                let req = ComputeRequest::partition(inst.f().to_vec(), inst.blocks().to_vec());
                let got = client.request(&req);
                let expect =
                    canonical_labels(&coarsest_partition(&ctx, &inst, Algorithm::Parallel));
                check(
                    "partition",
                    matches!(
                        got,
                        Ok(Ok(ref r)) if r.payload == ReplyPayload::Labels(expect.clone())
                    ),
                );
            }
            // Workload decompose (server-side generation) vs direct digest.
            1 => {
                let size = 2_000 + (i % 3) * 777;
                let req = ComputeRequest::workload(Kind::Decompose, size, seed, 0);
                let got = client.request(&req);
                let graph = generators::random_function(size, seed);
                let d = decompose(&ctx, &graph, CycleMethod::Euler);
                let expect = decomposition_digest(&d);
                check(
                    "decompose",
                    matches!(
                        got,
                        Ok(Ok(ref r)) if matches!(
                            r.payload,
                            ReplyPayload::Decomposition { digest, .. } if digest == expect
                        )
                    ),
                );
            }
            // Workload canonize vs Booth's serial reference.
            2 => {
                let size = 300 + (i % 5) * 41;
                let req = ComputeRequest::workload(Kind::Canonize, size, seed, 6);
                let got = client.request(&req);
                let text = workload_string(size, seed, 6);
                let expect = sfcp_strings::booth_msp(&text) as u64;
                check(
                    "canonize",
                    matches!(got, Ok(Ok(ref r)) if r.payload == ReplyPayload::Msp(expect)),
                );
            }
            // Explicit batch (fused) vs per-member direct solves.
            3 => {
                let members: Vec<Instance> = (0..4)
                    .map(|j| Instance::random(200 + j * 57, 2 + j, seed + j as u64))
                    .collect();
                let reqs: Vec<ComputeRequest> = members
                    .iter()
                    .map(|m| {
                        ComputeRequest::partition(m.f().to_vec(), m.blocks().to_vec())
                            .no_cache()
                            .digest_only()
                    })
                    .collect();
                let got = client.batch(&reqs);
                let ok = match got {
                    Ok(responses) if responses.len() == members.len() => {
                        members.iter().zip(&responses).all(|(m, resp)| {
                            let expect = labels_digest(&canonical_labels(&coarsest_partition(
                                &ctx,
                                m,
                                Algorithm::Parallel,
                            )));
                            matches!(
                                &resp.outcome,
                                Ok(r) if r.payload == ReplyPayload::LabelsDigest(expect)
                            )
                        })
                    }
                    _ => false,
                };
                check("batch", ok);
            }
            // Probe invariant: no workspace checkout outstanding between
            // requests.
            _ => {
                let probe_ok = matches!(
                    client.probe(),
                    Ok(Ok(ref r)) if matches!(
                        r.payload,
                        ReplyPayload::Probe { outstanding: 0, .. }
                    )
                );
                check("probe", probe_ok);
            }
        }
    }

    server.shutdown();
    if failures == 0 {
        println!("smoke OK: {served} requests verified against direct library calls");
        ExitCode::SUCCESS
    } else {
        eprintln!("smoke: {failures}/{served} requests FAILED verification");
        ExitCode::from(1)
    }
}
