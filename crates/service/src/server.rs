//! The TCP front-end: accept loop, per-connection readers, and the shared
//! worker pool.
//!
//! Readers decode frames and enqueue jobs; each worker thread owns one
//! [`Worker`] (persistent context, snapshot cache) and drains the shared
//! queue one job at a time.  A `batch` frame is one job: its worker serves
//! the members one by one and answers with one frame.
//!
//! Failure containment: a malformed payload answers with a typed error and
//! the connection stays open; an oversized length prefix answers and then
//! closes (the stream position is unrecoverable); a request that panics a
//! solver recovers the worker's context and answers with a typed error —
//! the worker thread never dies with the request.

use crate::error::ErrorReply;
use crate::proto::{
    read_frame, write_frame, ComputeRequest, FrameError, Request, RequestBody, Response,
    DEFAULT_MAX_FRAME_BYTES,
};
use crate::worker::Worker;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads (each with its own persistent context and cache).
    pub workers: usize,
    /// Per-worker snapshot-cache budget in bytes (0 disables caching).
    pub cache_bytes: usize,
    /// Rebuild the context per request (benchmark cold baseline only).
    pub cold_ctx: bool,
    /// Frame payload cap.
    pub max_frame_bytes: u32,
    /// TCP port on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            cache_bytes: 64 << 20,
            cold_ctx: false,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            port: 0,
        }
    }
}

/// The serving front-end; [`Server::start`] returns a handle.
pub struct Server;

/// A running server: bound address plus shutdown/join plumbing.  Dropping
/// the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// One queued unit of work.
enum Job {
    Single {
        conn: Arc<Conn>,
        id: u64,
        req: ComputeRequest,
    },
    Batch {
        conn: Arc<Conn>,
        id: u64,
        subs: Vec<(u64, ComputeRequest)>,
    },
    Probe {
        conn: Arc<Conn>,
        id: u64,
    },
}

/// The write half of a connection; response frames are written whole under
/// the lock so concurrent workers never interleave bytes.
struct Conn {
    stream: Mutex<TcpStream>,
}

impl Conn {
    /// Best-effort send: a vanished peer is not the worker's problem.
    fn send(&self, payload: &[u8]) {
        if let Ok(mut stream) = self.stream.lock() {
            let _ = write_frame(&mut *stream, payload);
        }
    }
}

impl Server {
    /// Bind 127.0.0.1 and spawn the accept loop and worker pool.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));

        let mut threads = Vec::with_capacity(config.workers + 1);
        for index in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let shutdown = Arc::clone(&shutdown);
            // The worker (and its context) is built inside its thread: a
            // worker is a strictly single-threaded owner and never crosses
            // a thread boundary.
            threads.push(std::thread::spawn(move || {
                let worker = Worker::new(index, config.cache_bytes, config.cold_ctx);
                worker_loop(worker, &rx, &shutdown);
            }));
        }
        {
            let shutdown = Arc::clone(&shutdown);
            let max_frame = config.max_frame_bytes;
            threads.push(std::thread::spawn(move || {
                accept_loop(&listener, &tx, &shutdown, max_frame);
            }));
        }
        Ok(ServerHandle {
            addr,
            shutdown,
            threads,
        })
    }
}

impl ServerHandle {
    /// The bound address (ephemeral port resolved).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the workers, and join the service threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        if let Ok(mut stream) = TcpStream::connect(self.addr) {
            let _ = stream.write_all(&[]);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &Sender<Job>,
    shutdown: &Arc<AtomicBool>,
    max_frame: u32,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let tx = tx.clone();
        let shutdown = Arc::clone(shutdown);
        // Readers are not joined on shutdown: they exit on client EOF or
        // when the job channel closes beneath them.
        std::thread::spawn(move || connection_loop(stream, &tx, &shutdown, max_frame));
    }
}

fn connection_loop(
    stream: TcpStream,
    tx: &Sender<Job>,
    shutdown: &Arc<AtomicBool>,
    max_frame: u32,
) {
    // Request/response ping-pong never benefits from Nagle coalescing, and
    // with it on, any response segment racing a delayed ACK stalls for the
    // peer's delayed-ACK timer (the client side sets nodelay too).
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn {
        stream: Mutex::new(write_half),
    });
    let mut reader = stream;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_frame(&mut reader, max_frame) {
            Ok(None) => return,
            Ok(Some(payload)) => match Request::decode(&payload) {
                Err(err) => {
                    // Garbage inside a well-delimited frame: answer and
                    // keep the connection (framing is still in sync).
                    let id = err.id;
                    conn.send(
                        &Response {
                            id,
                            outcome: Err(err),
                        }
                        .encode(),
                    );
                }
                Ok(request) => {
                    let job = match request.body {
                        RequestBody::Probe => Job::Probe {
                            conn: Arc::clone(&conn),
                            id: request.id,
                        },
                        RequestBody::Compute(req) => Job::Single {
                            conn: Arc::clone(&conn),
                            id: request.id,
                            req,
                        },
                        RequestBody::Batch(subs) => Job::Batch {
                            conn: Arc::clone(&conn),
                            id: request.id,
                            subs,
                        },
                    };
                    if tx.send(job).is_err() {
                        return;
                    }
                }
            },
            Err(FrameError::TooLarge { declared, max }) => {
                // The declared length poisons the stream position: report,
                // then close.
                let err = ErrorReply::bad_request(format!(
                    "frame of {declared} bytes exceeds the {max}-byte cap"
                ));
                conn.send(
                    &Response {
                        id: 0,
                        outcome: Err(err),
                    }
                    .encode(),
                );
                return;
            }
            Err(FrameError::Io(_)) => return,
        }
    }
}

fn worker_loop(mut worker: Worker, rx: &Arc<Mutex<Receiver<Job>>>, shutdown: &Arc<AtomicBool>) {
    loop {
        // Hold the queue lock only while receiving; serving runs unlocked
        // so other workers keep draining.  The timeout lets an idle worker
        // see the shutdown flag.
        let job = {
            let Ok(guard) = rx.lock() else { return };
            match guard.recv_timeout(Duration::from_millis(50)) {
                Err(RecvTimeoutError::Timeout) => {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
                Ok(job) => job,
            }
        };
        match job {
            Job::Single { conn, id, req } => conn.send(&worker.serve(id, &req).encode()),
            Job::Batch { conn, id, subs } => conn.send(&worker.serve_batch(id, &subs).encode()),
            Job::Probe { conn, id } => {
                let outcome = worker.handle_probe().map_err(|mut e| {
                    e.id = id;
                    e
                });
                conn.send(&Response { id, outcome }.encode());
            }
        }
    }
}
