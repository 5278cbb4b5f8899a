//! The peer daemon: a concurrent server for the wire protocol.
//!
//! The daemon ships with **two connection engines** behind one config
//! knob ([`ServerConfig::io`]). Both drive the same connection core
//! ([`crate::conn`]), so they speak the same protocol, emit the same
//! fault frames and publish the same metrics:
//!
//! * [`IoMode::Threads`] (the default, and this module) — one blocking
//!   reader thread per connection over a fixed worker pool;
//! * [`IoMode::Poll`] (`poll_server`, DESIGN.md §12) — an event-driven
//!   readiness loop (epoll/kqueue via `axml_support::poll`): a few shard
//!   threads multiplex thousands of non-blocking TCP connections.
//!
//! Threads-engine architecture (all plain `std` threads):
//!
//! * one **accept thread** polls the non-blocking listener and spawns a
//!   lightweight **reader thread** per connection;
//! * each reader feeds what [`wire::read_frame`] returns to the
//!   connection core and pushes the jobs it hands out into a **bounded
//!   in-flight queue** — when the queue is full the core answers a
//!   retryable [`FaultCode::Busy`] fault instead of blocking
//!   (backpressure);
//! * a **fixed-size worker pool** drains the queue, runs the
//!   application-level [`Handler`] (for an Active XML peer: decode the
//!   SOAP envelope, run the Schema Enforcement module, encode the reply),
//!   and writes the `Response`/`Fault` frame back through the
//!   connection's shared writer — so one connection can have several
//!   requests in flight and replies may be pipelined out of order;
//! * [`NetServer::shutdown`] is **graceful and deterministic**: it stops
//!   accepting, unblocks and joins every reader (or poller shard),
//!   drains-and-joins every worker (bounded wait), and reports any
//!   worker panic as an error instead of leaking threads.
//!
//! Per-connection read/write timeouts bound every blocking read or write:
//! an idle connection is kept (pooled clients stay connected), but a peer
//! that stalls *mid-frame* is answered with a `Timeout` fault and
//! dropped.

use crate::conn::{Action, Conn, Endpoint, Job, Refusal};
use crate::transport;
use crate::wire::{self, FaultCode, Frame, WireError, WireFault};
use axml_support::sync::Mutex;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Application logic plugged into the daemon: maps one request envelope to
/// one response envelope, or a typed fault.
pub trait Handler: Send + Sync + 'static {
    /// Handles one request envelope (UTF-8 XML). `id` is the wire request
    /// id — handlers stamp it on their spans so a receiver-side trace can
    /// be correlated with the sender's.
    fn handle(&self, id: u64, envelope: &str) -> Result<String, WireFault>;

    /// Handles one chunk-shipped document, already reassembled and
    /// digest-verified by the engine: `name` is the repository name from
    /// `DocChunkStart`, `text` the raw document XML. Returns the reply
    /// envelope. The default refuses, so handlers that never opted in
    /// simply do not serve chunked transfers.
    fn handle_document(&self, id: u64, name: &str, text: &str) -> Result<String, WireFault> {
        let _ = (id, text);
        Err(WireFault::new(
            FaultCode::BadFrame,
            format!("chunked transfer of '{name}' is not supported by this handler"),
        ))
    }
}

impl<F> Handler for F
where
    F: Fn(u64, &str) -> Result<String, WireFault> + Send + Sync + 'static,
{
    fn handle(&self, id: u64, envelope: &str) -> Result<String, WireFault> {
        self(id, envelope)
    }
}

/// Connection-engine selector: how the daemon turns socket bytes into
/// requests. See the module docs for the trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// One blocking reader thread per connection (a wall at thousands
    /// of peers).
    #[default]
    Threads,
    /// Event-driven readiness loop: sharded epoll/kqueue, bounded
    /// memory, 10k+ connections.
    Poll,
}
impl std::str::FromStr for IoMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "threads" => Ok(IoMode::Threads),
            "poll" => Ok(IoMode::Poll),
            other => Err(format!(
                "unknown io mode '{other}' (expected 'threads' or 'poll')"
            )),
        }
    }
}

impl std::fmt::Display for IoMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoMode::Threads => "threads",
            IoMode::Poll => "poll",
        })
    }
}

/// Tuning knobs for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Name announced in the `Welcome` handshake frame.
    pub name: String,
    /// Connection engine ([`IoMode::Threads`] or [`IoMode::Poll`]).
    pub io: IoMode,
    /// Poll engine only: number of readiness-loop shard threads, each
    /// owning its own poller, connections and bounded request queue.
    /// More shards spread accept and read work across cores.
    pub shards: usize,
    /// Fixed number of worker threads processing requests. In poll mode
    /// the pool is partitioned across shards (at least one per shard).
    pub workers: usize,
    /// Capacity of the in-flight request queue (backpressure bound).
    /// In poll mode this is the capacity of *each* shard's queue, so
    /// `shards = 1` reproduces the threads engine's Busy semantics
    /// exactly.
    pub queue: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Maximum accepted frame payload, in bytes.
    pub max_frame: usize,
    /// Maximum *cumulative* size of one chunked document transfer, in
    /// bytes — what a reassembling connection will buffer in total, as
    /// opposed to the per-frame `max_frame` cap.
    pub max_doc: usize,
    /// Metric registry the server publishes into (`server.*` catalogue
    /// entries) and serves back over `StatsRequest` frames. Defaults to
    /// the process-wide registry; tests inject a fresh one for isolation.
    pub metrics: axml_obs::Registry,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            name: "axml-peer".to_owned(),
            io: IoMode::Threads,
            shards: 2,
            workers: 4,
            queue: 64,
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(5),
            max_frame: wire::DEFAULT_MAX_FRAME,
            max_doc: wire::DEFAULT_MAX_DOC,
            metrics: axml_obs::global(),
        }
    }
}


type SharedWriter = Arc<Mutex<TcpStream>>;

/// Where a worker delivers a finished reply. The threads engine hands
/// workers the connection's locked writer; the poll engine cannot (its
/// sockets are non-blocking and owned by a shard loop), so workers post
/// the frame to the shard's outbox and wake its poller instead.
pub(crate) enum ReplyTo {
    /// Write the frame directly through the connection's shared writer.
    Stream(SharedWriter),
    /// Post the frame to a poll shard's outbox for connection `conn`.
    Shard {
        shard: Arc<crate::poll_server::ShardHandle>,
        conn: u64,
    },
}

/// A queued job and where its reply goes.
pub(crate) struct Task {
    job: Job,
    reply: ReplyTo,
}

pub(crate) struct Shared {
    pub(crate) handler: Arc<dyn Handler>,
    pub(crate) config: ServerConfig,
    /// The connection core's side of the server: name, stop flag and the
    /// protocol metrics.
    pub(crate) ep: Arc<Endpoint>,
    /// `server.queue_depth`: in-flight worker queue occupancy.
    queue_depth: axml_obs::Gauge,
    panics: axml_obs::Counter,
    /// Poll engine only: live connections across all shards.
    pub(crate) poll_connections: axml_obs::Gauge,
    /// Poll engine only: bytes held in per-connection read, write and
    /// reassembly buffers across all shards (the bounded-memory witness).
    pub(crate) poll_buffer_bytes: axml_obs::Gauge,
    /// Live connection streams, keyed by a connection id, so shutdown can
    /// unblock readers stuck in a read. (Threads engine only; the poll
    /// engine's shards own their connections outright.)
    conns: Mutex<HashMap<u64, SharedWriter>>,
    next_conn: AtomicU64,
}

impl Shared {
    fn new(handler: Arc<dyn Handler>, config: ServerConfig) -> Arc<Shared> {
        let r = &config.metrics;
        Arc::new(Shared {
            handler,
            ep: Endpoint::new(&config.name, config.max_doc, r),
            queue_depth: r.gauge("server.queue_depth"),
            panics: r.counter("server.panics_total"),
            poll_connections: r.gauge("server.poll.connections"),
            poll_buffer_bytes: r.gauge("server.poll.buffer_bytes"),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            config,
        })
    }
}

/// A running daemon; dropping it without [`NetServer::shutdown`] still
/// stops and joins everything (panics in workers are then swallowed).
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    engine: Engine,
}

/// The running engine behind a [`NetServer`] — which one is decided once
/// at bind time by [`ServerConfig::io`].
enum Engine {
    Threads {
        accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
        workers: Vec<JoinHandle<()>>,
        job_tx: Option<SyncSender<Task>>,
    },
    Poll(crate::poll_server::PollEngine),
}

/// Errors from server lifecycle operations.
#[derive(Debug)]
pub enum ServerError {
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
    /// A server thread panicked; the payload is rendered into the string.
    WorkerPanic(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o error: {e}"),
            ServerError::WorkerPanic(m) => write!(f, "server thread panicked: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl NetServer {
    /// Binds `addr` over TCP and starts whichever engine
    /// [`ServerConfig::io`] selects.
    pub fn bind(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn Handler>,
        config: ServerConfig,
    ) -> Result<NetServer, ServerError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(ServerError::Io)?
            .next()
            .ok_or_else(|| {
                ServerError::Io(std::io::Error::new(
                    std::io::ErrorKind::AddrNotAvailable,
                    "address resolved to nothing",
                ))
            })?;
        let shared = Shared::new(handler, config);
        let (engine, local_addr) = if shared.config.io == IoMode::Poll {
            let (engine, local) = crate::poll_server::PollEngine::bind(addr, &shared)?;
            (Engine::Poll(engine), local)
        } else {
            let listener = TcpListener::bind(addr).map_err(ServerError::Io)?;
            listener.set_nonblocking(true).map_err(ServerError::Io)?;
            let local = listener.local_addr().map_err(ServerError::Io)?;
            (start_threads(listener, &shared), local)
        };
        Ok(NetServer {
            shared,
            local_addr,
            engine,
        })
    }

    /// The bound socket address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting, unblock + join readers, drain +
    /// join workers. Returns an error if any server thread panicked.
    pub fn shutdown(mut self) -> Result<(), ServerError> {
        self.stop_all()
    }

    fn stop_all(&mut self) -> Result<(), ServerError> {
        self.shared.ep.stop();
        let mut first_panic: Option<String> = None;
        {
            let panics = &self.shared.panics;
            let mut note = |r: std::thread::Result<()>| {
                if let Err(p) = r {
                    let msg = panic_message(p);
                    panics.inc();
                    axml_obs::span("server.panic").fail(&msg);
                    first_panic.get_or_insert(msg);
                }
            };
            match &mut self.engine {
                Engine::Threads {
                    accept,
                    workers,
                    job_tx,
                } => {
                    // Unblock readers parked in reads.
                    for conn in self.shared.conns.lock().values() {
                        let _ = conn.lock().shutdown(Shutdown::Both);
                    }
                    if let Some(accept) = accept.take() {
                        match accept.join() {
                            Ok(readers) => {
                                for r in readers {
                                    note(r.join());
                                }
                            }
                            Err(p) => note(Err(p)),
                        }
                    }
                    // Closing the queue ends the worker loops once drained.
                    drop(job_tx.take());
                    for w in workers.drain(..) {
                        note(w.join());
                    }
                }
                Engine::Poll(engine) => engine.stop(&mut note),
            }
        }
        match first_panic {
            Some(m) => Err(ServerError::WorkerPanic(m)),
            None => Ok(()),
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        let _ = self.stop_all();
    }
}

/// Starts the threads engine on a bound, non-blocking listener: the
/// worker pool, then the accept thread.
fn start_threads(listener: TcpListener, shared: &Arc<Shared>) -> Engine {
    let (job_tx, job_rx) = sync_channel::<Task>(shared.config.queue.max(1));
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers = (0..shared.config.workers.max(1))
        .map(|w| spawn_worker(shared, &job_rx, format!("axml-net-worker-{w}")))
        .collect();
    let accept = {
        let shared = Arc::clone(shared);
        let job_tx = job_tx.clone();
        std::thread::Builder::new()
            .name("axml-net-accept".to_owned())
            .spawn(move || accept_loop(&listener, &shared, &job_tx))
            .expect("spawn accept thread")
    };
    Engine::Threads {
        accept: Some(accept),
        workers,
        job_tx: Some(job_tx),
    }
}

/// How long the accept loop of the threads engine waits before it polls
/// its listener again.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    job_tx: &SyncSender<Task>,
) -> Vec<JoinHandle<()>> {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.ep.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if transport::prepare_accepted(&stream, false).is_err() {
                    continue;
                }
                let conn = shared.ep.accept();
                let shared = Arc::clone(shared);
                let job_tx = job_tx.clone();
                // A reader that cannot start takes its connection down
                // with it; the daemon keeps accepting.
                if let Ok(reader) = std::thread::Builder::new()
                    .name("axml-net-reader".to_owned())
                    .spawn(move || reader_loop(stream, conn, &shared, &job_tx))
                {
                    readers.push(reader);
                }
                // Opportunistically reap finished readers so a long-lived
                // daemon does not accumulate handles.
                readers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // Nothing to accept yet, or a transient failure such as
            // EMFILE while descriptors run out: pause one poll interval
            // and accept again.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    readers
}

/// Serves one connection: feeds each blocking read to the connection
/// core until it closes the connection.
fn reader_loop(stream: TcpStream, mut conn: Conn, shared: &Arc<Shared>, job_tx: &SyncSender<Task>) {
    let config = &shared.config;
    if stream
        .set_read_timeout(Some(config.read_timeout))
        .and_then(|()| stream.set_write_timeout(Some(config.write_timeout)))
        .is_err()
    {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    shared
        .conns
        .lock()
        .insert(conn_id, Arc::clone(&writer));
    let mut reader = BufReader::new(stream);
    loop {
        let mut action = conn.on_read(wire::read_frame(&mut reader, config.max_frame));
        if let Action::Queue(job) = action {
            let reply = ReplyTo::Stream(Arc::clone(&writer));
            action = submit(shared, &mut conn, job_tx, job, reply);
        }
        match action {
            Action::Continue | Action::Queue(_) => {}
            Action::Reply(frame) => {
                let _ = send_reply(&writer, &frame);
            }
            Action::Close(frame) => {
                if let Some(frame) = frame {
                    let _ = send_reply(&writer, &frame);
                }
                break;
            }
        }
    }
    shared.conns.lock().remove(&conn_id);
}

fn send_reply(writer: &SharedWriter, frame: &Frame) -> Result<(), WireError> {
    wire::write_frame(&mut *writer.lock(), frame)
}

/// Offers `job` to a worker queue. A full queue, or one closed by
/// shutdown, turns it into the connection core's refusal answer; a
/// queued job returns [`Action::Continue`].
pub(crate) fn submit(
    shared: &Shared,
    conn: &mut Conn,
    job_tx: &SyncSender<Task>,
    job: Job,
    reply: ReplyTo,
) -> Action {
    let id = job.id;
    // Count the slot before the job becomes visible to workers: the
    // worker's decrement must never be able to outrun our increment,
    // or the gauge could read negative at rest.
    shared.queue_depth.add(1);
    let why = match job_tx.try_send(Task { job, reply }) {
        Ok(()) => return Action::Continue,
        Err(TrySendError::Full(_)) => Refusal::Busy,
        Err(TrySendError::Disconnected(_)) => Refusal::Shutdown,
    };
    shared.queue_depth.sub(1);
    conn.refused(id, why)
}

/// Spawns one worker draining `job_rx`.
pub(crate) fn spawn_worker(
    shared: &Arc<Shared>,
    job_rx: &Arc<Mutex<Receiver<Task>>>,
    name: String,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let job_rx = Arc::clone(job_rx);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(&shared, &job_rx))
        .expect("spawn worker thread")
}

fn worker_loop(shared: &Shared, job_rx: &Mutex<Receiver<Task>>) {
    loop {
        // Hold the lock only while dequeueing, never while handling.
        let Ok(task) = job_rx.lock().recv() else {
            return; // queue closed: graceful shutdown
        };
        shared.queue_depth.sub(1);
        let reply = shared.ep.reply(task.job.id, task.job.run(&*shared.handler));
        // A gone client is not the server's problem — in either engine:
        // the direct write may fail, or the shard may find the
        // connection already closed and drop the frame.
        match &task.reply {
            ReplyTo::Stream(writer) => {
                let _ = send_reply(writer, &reply);
            }
            ReplyTo::Shard { shard, conn } => shard.deliver(*conn, reply),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FrameType;
    use std::io::Write as _;
    use std::net::TcpStream;

    fn echo_server(config: ServerConfig) -> NetServer {
        let handler: Arc<dyn Handler> = Arc::new(|_id: u64, envelope: &str| {
            if envelope == "boom" {
                Err(WireFault::new(FaultCode::Server, "boom requested"))
            } else {
                Ok(format!("echo:{envelope}"))
            }
        });
        NetServer::bind("127.0.0.1:0", handler, config).unwrap()
    }

    fn dial(server: &NetServer) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        wire::set_stream_timeouts(
            &stream,
            Some(Duration::from_secs(5)),
            Some(Duration::from_secs(5)),
        )
        .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (reader, stream)
    }

    fn shake(reader: &mut BufReader<TcpStream>, stream: &mut TcpStream) {
        wire::write_frame(stream, &wire::hello("test-client")).unwrap();
        let back = wire::read_frame(reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Welcome);
        let (v, name) = wire::decode_welcome(&back.payload).unwrap();
        assert_eq!(v, wire::VERSION);
        assert_eq!(name, "axml-peer");
    }

    #[test]
    fn serves_requests_and_faults() {
        let server = echo_server(ServerConfig::default());
        let (mut reader, mut stream) = dial(&server);
        shake(&mut reader, &mut stream);
        wire::write_frame(&mut stream, &wire::request(1, "hi")).unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Response);
        assert_eq!(back.id, 1);
        assert_eq!(wire::decode_envelope(&back.payload).unwrap(), "echo:hi");
        wire::write_frame(&mut stream, &wire::request(2, "boom")).unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Fault);
        let f = wire::decode_fault(&back.payload).unwrap();
        assert_eq!(f.code, FaultCode::Server);
        assert!(!f.retryable);
        server.shutdown().unwrap();
    }

    #[test]
    fn handshake_is_mandatory_and_versioned() {
        let server = echo_server(ServerConfig::default());
        // Requests before Hello are rejected.
        let (mut reader, mut stream) = dial(&server);
        wire::write_frame(&mut stream, &wire::request(1, "hi")).unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Fault);
        let f = wire::decode_fault(&back.payload).unwrap();
        assert_eq!(f.code, FaultCode::BadFrame);

        // Wrong version is rejected with a Version fault.
        let (mut reader, mut stream) = dial(&server);
        let mut bad_hello = wire::hello("old-client");
        bad_hello.payload[4..6].copy_from_slice(&99u16.to_be_bytes());
        wire::write_frame(&mut stream, &bad_hello).unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        let f = wire::decode_fault(&back.payload).unwrap();
        assert_eq!(f.code, FaultCode::Version);
        server.shutdown().unwrap();
    }

    #[test]
    fn oversized_frame_gets_too_large_fault() {
        let server = echo_server(ServerConfig {
            max_frame: 64,
            ..ServerConfig::default()
        });
        let (mut reader, mut stream) = dial(&server);
        shake(&mut reader, &mut stream);
        wire::write_frame(&mut stream, &wire::request(1, &"x".repeat(1000))).unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Fault);
        let f = wire::decode_fault(&back.payload).unwrap();
        assert_eq!(f.code, FaultCode::TooLarge);
        server.shutdown().unwrap();
    }

    #[test]
    fn stalled_writer_gets_timeout_fault() {
        let server = echo_server(ServerConfig {
            read_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        });
        let (mut reader, mut stream) = dial(&server);
        shake(&mut reader, &mut stream);
        // Send only half a header, then stall.
        stream.write_all(&[0x03, 0, 0, 0]).unwrap();
        stream.flush().unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Fault);
        let f = wire::decode_fault(&back.payload).unwrap();
        assert_eq!(f.code, FaultCode::Timeout);
        server.shutdown().unwrap();
    }

    #[test]
    fn stats_request_returns_metric_snapshot() {
        let registry = axml_obs::Registry::new();
        axml_obs::register_catalogue(&registry);
        let server = echo_server(ServerConfig {
            metrics: registry.clone(),
            ..ServerConfig::default()
        });
        let (mut reader, mut stream) = dial(&server);
        shake(&mut reader, &mut stream);
        wire::write_frame(&mut stream, &wire::request(1, "hi")).unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Response);
        wire::write_frame(&mut stream, &wire::stats_request(2)).unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::StatsResponse);
        assert_eq!(back.id, 2);
        let text = wire::decode_envelope(&back.payload).unwrap();
        let snap = axml_obs::Snapshot::parse_json(&text).unwrap();
        assert_eq!(snap.counter("server.requests_total"), 1);
        assert_eq!(snap.counter("server.responses_ok_total"), 1);
        assert_eq!(snap.counter("server.connections_total"), 1);
        // Scrapes stay out of the request accounting.
        assert_eq!(
            snap.counter("server.requests_total"),
            snap.counter("server.responses_ok_total") + snap.counter("server.faults_total")
        );
        server.shutdown().unwrap();
    }

    struct StoreDoc {
        docs: Mutex<HashMap<String, String>>,
    }

    impl Handler for StoreDoc {
        fn handle(&self, _id: u64, envelope: &str) -> Result<String, WireFault> {
            Ok(format!("echo:{envelope}"))
        }

        fn handle_document(&self, _id: u64, name: &str, text: &str) -> Result<String, WireFault> {
            self.docs.lock().insert(name.to_owned(), text.to_owned());
            Ok(format!("stored:{name}"))
        }
    }

    fn chunk_frames(id: u64, name: &str, data: &[u8], chunk: usize) -> Vec<Frame> {
        let mut digest = axml_support::hash::Fnv64::new();
        let mut frames = vec![wire::doc_chunk_start(id, name)];
        let mut seq = 0u32;
        for piece in data.chunks(chunk) {
            digest.update(piece);
            frames.push(wire::doc_chunk(id, seq, piece));
            seq += 1;
        }
        frames.push(wire::doc_chunk_end(id, seq, data.len() as u64, digest.finish()));
        frames
    }

    #[test]
    fn chunked_transfer_reaches_document_handler() {
        let registry = axml_obs::Registry::new();
        axml_obs::register_catalogue(&registry);
        let handler = Arc::new(StoreDoc {
            docs: Mutex::new(HashMap::new()),
        });
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::<StoreDoc>::clone(&handler),
            ServerConfig {
                metrics: registry.clone(),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let (mut reader, mut stream) = dial(&server);
        // The Welcome advertises the chunk capability.
        wire::write_frame(&mut stream, &wire::hello_with("test-client", wire::CAP_CHUNKED))
            .unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        let (_, name, caps) = wire::decode_welcome_caps(&back.payload).unwrap();
        assert_eq!(name, "axml-peer");
        assert_eq!(caps & wire::CAP_CHUNKED, wire::CAP_CHUNKED);

        let doc = "<doc>".repeat(50) + &"</doc>".repeat(50);
        for f in chunk_frames(7, "big.xml", doc.as_bytes(), 37) {
            wire::write_frame(&mut stream, &f).unwrap();
        }
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Response);
        assert_eq!(back.id, 7);
        assert_eq!(wire::decode_envelope(&back.payload).unwrap(), "stored:big.xml");
        assert_eq!(handler.docs.lock().get("big.xml"), Some(&doc));

        let snap = registry.snapshot();
        assert!(snap.counter("net.chunk.frames_total") >= 3);
        assert_eq!(snap.counter("net.chunk.bytes_total"), doc.len() as u64);
        assert_eq!(snap.counter("net.chunk.aborts_total"), 0);
        assert_eq!(snap.gauge("net.chunk.reassembly_bytes"), 0);
        assert_eq!(
            snap.counter("server.requests_total"),
            snap.counter("server.responses_ok_total") + snap.counter("server.faults_total")
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn chunk_faults_are_typed_and_the_connection_survives() {
        let registry = axml_obs::Registry::new();
        axml_obs::register_catalogue(&registry);
        let handler = Arc::new(StoreDoc {
            docs: Mutex::new(HashMap::new()),
        });
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::<StoreDoc>::clone(&handler),
            ServerConfig {
                metrics: registry.clone(),
                max_doc: 64,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let (mut reader, mut stream) = dial(&server);
        shake(&mut reader, &mut stream);

        // Out-of-sequence chunk: typed BadFrame on the transfer's id.
        wire::write_frame(&mut stream, &wire::doc_chunk_start(3, "d")).unwrap();
        wire::write_frame(&mut stream, &wire::doc_chunk(3, 5, b"zz")).unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Fault);
        assert_eq!(back.id, 3);
        let f = wire::decode_fault(&back.payload).unwrap();
        assert_eq!(f.code, FaultCode::BadFrame);
        assert!(f.message.contains("out of sequence"));

        // Cumulative cap: TooLarge reports the running total.
        wire::write_frame(&mut stream, &wire::doc_chunk_start(4, "d")).unwrap();
        wire::write_frame(&mut stream, &wire::doc_chunk(4, 0, &[b'a'; 40])).unwrap();
        wire::write_frame(&mut stream, &wire::doc_chunk(4, 1, &[b'b'; 40])).unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.id, 4);
        let f = wire::decode_fault(&back.payload).unwrap();
        assert_eq!(f.code, FaultCode::TooLarge);
        assert!(f.message.contains("80 cumulative bytes"), "{}", f.message);

        // Same connection still serves plain requests and fresh transfers.
        wire::write_frame(&mut stream, &wire::request(5, "hi")).unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Response);
        for f in chunk_frames(6, "ok.xml", b"<ok/>", 2) {
            wire::write_frame(&mut stream, &f).unwrap();
        }
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Response);
        assert_eq!(back.id, 6);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.chunk.aborts_total"), 2);
        assert_eq!(snap.gauge("net.chunk.reassembly_bytes"), 0);
        server.shutdown().unwrap();
    }

    #[test]
    fn idle_inside_chunk_transfer_gets_timeout_fault() {
        let server = echo_server(ServerConfig {
            read_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        });
        let (mut reader, mut stream) = dial(&server);
        shake(&mut reader, &mut stream);
        // Open a transfer, send one whole chunk frame, then go quiet: the
        // socket is between frames but the transfer is mid-flight.
        wire::write_frame(&mut stream, &wire::doc_chunk_start(9, "stall")).unwrap();
        wire::write_frame(&mut stream, &wire::doc_chunk(9, 0, b"abc")).unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Fault);
        let f = wire::decode_fault(&back.payload).unwrap();
        assert_eq!(f.code, FaultCode::Timeout);
        assert!(f.message.contains("mid-chunk-transfer"));
        server.shutdown().unwrap();
    }

    #[test]
    fn graceful_shutdown_reports_counts() {
        let registry = axml_obs::Registry::new();
        let server = echo_server(ServerConfig {
            metrics: registry.clone(),
            ..ServerConfig::default()
        });
        let (mut reader, mut stream) = dial(&server);
        shake(&mut reader, &mut stream);
        for i in 0..5 {
            wire::write_frame(&mut stream, &wire::request(i, "ping")).unwrap();
            let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(back.id, i);
        }
        assert_eq!(registry.snapshot().counter("server.responses_ok_total"), 5);
        server.shutdown().unwrap();
    }

    #[test]
    fn accepted_streams_run_with_nagle_off() {
        let server = echo_server(ServerConfig::default());
        let (mut reader, mut stream) = dial(&server);
        shake(&mut reader, &mut stream);
        let nodelay: Vec<bool> = (server.shared.conns.lock().values())
            .map(|w| w.lock().nodelay().unwrap())
            .collect();
        assert_eq!(nodelay, [true], "accepted stream keeps Nagle on");
        server.shutdown().unwrap();
    }
}
