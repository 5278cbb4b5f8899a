//! The event-driven connection engine ([`IoMode::Poll`]): sharded
//! epoll/kqueue readiness loops multiplexing thousands of non-blocking
//! TCP connections. DESIGN.md §12 is the architecture document.
//!
//! Shape:
//!
//! * **Shards** — `ServerConfig::shards` threads, each owning one
//!   `axml_support::poll::Poller`, its own connection table, and its own
//!   bounded request queue. The listening socket is registered in *every*
//!   shard's poller (level-triggered), so accepts self-balance: whichever
//!   shard wakes first wins the connection, the rest see `WouldBlock`.
//! * **Connections** — a non-blocking `TcpStream`, a
//!   [`FrameDecoder`] reassembling frames across arbitrary partial reads,
//!   the connection core ([`crate::conn`]) that answers them, and a
//!   pending-write buffer. All socket I/O for a connection happens on its
//!   shard thread; workers never touch sockets.
//! * **Workers** — the threads engine's worker loop, partitioned across
//!   shards (at least one each). Replies travel back via the shard's
//!   outbox + waker ([`ReplyTo::Shard`]) and are flushed by the shard
//!   loop.
//! * **Fairness** — level-triggered readiness plus a per-event read
//!   budget ([`MAX_READS_PER_EVENT`] × 64 KiB): a fire-hosing connection
//!   yields the shard after its budget, and undrained sockets are simply
//!   re-reported on the next `wait`. No connection can park the shard.
//! * **Deadlines** — the poller wakes at least every ~`read_timeout`/4
//!   (capped to 50 ms) and sweeps: a connection silent for longer than
//!   `read_timeout` is reported to its core as `Idle` or, mid-frame,
//!   `Stalled` (the blocking reader's per-read timeout semantics), and
//!   one whose pending writes make no progress for `write_timeout` is
//!   dropped.
//!
//! The core builds every fault frame and bumps every protocol metric,
//! so replies and the `requests_total = responses_ok_total +
//! faults_total` identity match the threads engine byte for byte —
//! `tests/net_exchange.rs` runs every scenario over both engines and
//! asserts exactly that. Two extra gauges are poll-specific:
//! `server.poll.connections` and `server.poll.buffer_bytes` (the
//! bounded-memory witness for the 10k-connection smoke test).

use crate::conn::{self, Action};
use crate::frames::FrameDecoder;
use crate::server::{spawn_worker, submit, ReplyTo, ServerError, Shared, Task};
use crate::wire::{self, Frame};
use axml_support::poll::{Event, Interest, Poller, Waker};
use axml_support::sync::channel::{bounded, Sender};
use axml_support::sync::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The token every shard registers the shared listener under.
/// (`u64::MAX` itself is the poller's reserved waker token.)
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// How many 64 KiB reads one readiness event may consume before the
/// connection yields the shard to its neighbours.
const MAX_READS_PER_EVENT: usize = 16;

/// Shard-level read scratch. One per shard, not per connection — idle
/// connections cost only their (shrunk) decoder and `Conn` bookkeeping.
const SCRATCH_LEN: usize = 64 * 1024;

/// Retained-capacity bound for a drained write buffer.
const OUT_SHRINK: usize = 64 * 1024;

/// A shard's cross-thread face: where workers post finished replies.
pub(crate) struct ShardHandle {
    outbox: Mutex<Vec<(u64, Frame)>>,
    waker: Waker,
}

impl ShardHandle {
    /// Posts `frame` for connection `conn` and wakes the shard loop. If
    /// the connection has closed meanwhile the shard drops the frame —
    /// same outcome as the threads engine writing to a gone client.
    pub(crate) fn deliver(&self, conn: u64, frame: Frame) {
        self.outbox.lock().push((conn, frame));
        self.waker.wake();
    }
}

/// The running poll engine: shard threads + their worker pools.
pub(crate) struct PollEngine {
    shard_handles: Vec<Arc<ShardHandle>>,
    shards: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    job_txs: Vec<Sender<Task>>,
}

impl PollEngine {
    /// Binds `addr`, spins up the shards and their workers.
    pub(crate) fn bind(
        addr: SocketAddr,
        shared: &Arc<Shared>,
    ) -> Result<(PollEngine, SocketAddr), ServerError> {
        let listener = TcpListener::bind(addr).map_err(ServerError::Io)?;
        listener.set_nonblocking(true).map_err(ServerError::Io)?;
        let local = listener.local_addr().map_err(ServerError::Io)?;
        let listener = Arc::new(listener);
        let nshards = shared.config.shards.max(1);
        let total_workers = shared.config.workers.max(1);
        let queue = shared.config.queue.max(1);
        let mut engine = PollEngine {
            shard_handles: Vec::with_capacity(nshards),
            shards: Vec::with_capacity(nshards),
            workers: Vec::new(),
            job_txs: Vec::with_capacity(nshards),
        };
        for s in 0..nshards {
            let poller = Poller::new().map_err(ServerError::Io)?;
            let handle = Arc::new(ShardHandle {
                outbox: Mutex::new(Vec::new()),
                waker: poller.waker(),
            });
            let (job_tx, job_rx) = bounded::<Task>(queue);
            let job_rx = Arc::new(Mutex::new(job_rx));
            // Spread the worker pool across shards, at least one each.
            let per = (total_workers / nshards + usize::from(s < total_workers % nshards)).max(1);
            for w in 0..per {
                let name = format!("axml-poll-worker-{s}-{w}");
                engine.workers.push(spawn_worker(shared, &job_rx, name));
            }
            let shard_thread = {
                let listener = Arc::clone(&listener);
                let handle = Arc::clone(&handle);
                let shared = Arc::clone(shared);
                let job_tx = job_tx.clone();
                std::thread::Builder::new()
                    .name(format!("axml-poll-shard-{s}"))
                    .spawn(move || shard_loop(&listener, &poller, &handle, &shared, &job_tx))
                    .expect("spawn shard thread")
            };
            engine.shard_handles.push(handle);
            engine.shards.push(shard_thread);
            engine.job_txs.push(job_tx);
        }
        Ok((engine, local))
    }

    /// Deterministic shutdown: wake + join every shard (their sockets
    /// close with them), then close the queues and join every worker.
    /// The caller has already raised the shared stop flag.
    pub(crate) fn stop(&mut self, note: &mut dyn FnMut(std::thread::Result<()>)) {
        for h in &self.shard_handles {
            h.waker.wake();
        }
        for s in self.shards.drain(..) {
            note(s.join());
        }
        // The shards' sender clones died with their threads; dropping
        // ours closes each queue, ending the workers once drained.
        self.job_txs.clear();
        for w in self.workers.drain(..) {
            note(w.join());
        }
    }
}

/// One connection's socket side. All fields are owned by the shard
/// thread; nothing here is shared.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// The protocol state: handshake, chunk reassembly, accounting.
    core: conn::Conn,
    /// Encoded frames awaiting the socket; `out_pos` is the flushed
    /// prefix.
    out: Vec<u8>,
    out_pos: usize,
    /// Close once `out` is flushed (fault-then-close paths).
    close_after_flush: bool,
    /// Whether the poller registration currently includes write interest.
    want_write: bool,
    /// Marked for removal; swept at the end of the loop iteration.
    dead: bool,
    /// Last byte received — the idle/stall deadline anchor, matching the
    /// blocking reader's per-`read` timeout semantics (a slow dribbler
    /// that keeps sending is never a stall).
    last_activity: Instant,
    /// Last write progress — anchors the `write_timeout` deadline.
    last_write_progress: Instant,
}

impl Conn {
    fn new(stream: TcpStream, core: conn::Conn, max_frame: usize, now: Instant) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(max_frame),
            core,
            out: Vec::new(),
            out_pos: 0,
            close_after_flush: false,
            want_write: false,
            dead: false,
            last_activity: now,
            last_write_progress: now,
        }
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Carries out a core answer that needs no worker: buffer the reply,
    /// or mark the connection to close once it is flushed.
    fn act(&mut self, action: Action) {
        match action {
            Action::Continue | Action::Queue(_) => {}
            Action::Reply(frame) => enqueue(self, &frame),
            Action::Close(frame) => {
                if let Some(frame) = frame {
                    enqueue(self, &frame);
                }
                self.close_after_flush = true;
            }
        }
    }
}

fn shard_loop(
    listener: &Arc<TcpListener>,
    poller: &Poller,
    handle: &Arc<ShardHandle>,
    shared: &Arc<Shared>,
    job_tx: &Sender<Task>,
) {
    let read_timeout = shared.config.read_timeout;
    let write_timeout = shared.config.write_timeout;
    // The wait timeout doubles as the deadline-sweep tick: fine enough
    // that a stall is detected within ~1.25 × read_timeout, coarse
    // enough that 10k idle connections cost one sweep per 50 ms.
    let tick = (read_timeout / 4)
        .min(Duration::from_millis(50))
        .max(Duration::from_millis(5));
    if poller
        .register(listener.as_fd(), LISTEN_TOKEN, Interest::READ)
        .is_err()
    {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH_LEN];
    let mut next_token: u64 = 0;
    let mut reported_bytes: i64 = 0;

    while !shared.ep.stopping() {
        let _ = poller.wait(&mut events, Some(tick));
        if shared.ep.stopping() {
            break;
        }
        let now = Instant::now();
        for i in 0..events.len() {
            let ev = events[i];
            if ev.token == LISTEN_TOKEN {
                accept_ready(listener, poller, shared, &mut conns, &mut next_token, now);
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            if ev.readable && !conn.dead {
                on_readable(conn, ev.token, shared, job_tx, handle, &mut scratch, now);
            }
            if !conn.dead {
                try_flush(conn, now);
            }
            if !conn.dead {
                update_interest(conn, ev.token, poller);
            }
        }
        // Worker replies: append to the owning connection's buffer.
        let pending = std::mem::take(&mut *handle.outbox.lock());
        for (token, frame) in pending {
            if let Some(conn) = conns.get_mut(&token) {
                if !conn.dead {
                    enqueue(conn, &frame);
                    try_flush(conn, now);
                    if !conn.dead {
                        update_interest(conn, token, poller);
                    }
                }
            }
        }
        // Deadline sweep.
        for (token, conn) in conns.iter_mut() {
            if conn.dead {
                continue;
            }
            if conn.pending_out() > 0
                && now.duration_since(conn.last_write_progress) > write_timeout
            {
                // The peer stopped draining its socket; drop it.
                conn.dead = true;
                continue;
            }
            if conn.close_after_flush || now.duration_since(conn.last_activity) <= read_timeout {
                continue;
            }
            // The core keeps an idle connection, drops one that never
            // finished its handshake, and faults a stall mid-frame or
            // inside an open chunk transfer.
            let action = conn.core.on_read(Err(conn.decoder.timeout()));
            if action != Action::Continue {
                conn.act(action);
                try_flush(conn, now);
                if !conn.dead {
                    update_interest(conn, *token, poller);
                }
            }
        }
        // Sweep the dead and republish the bounded-memory gauge. A
        // dropped core gives back its reassembly bytes by itself.
        conns.retain(|_, conn| {
            if conn.dead {
                let _ = poller.deregister(conn.stream.as_fd());
                shared.poll_connections.sub(1);
            }
            !conn.dead
        });
        let total: i64 = conns
            .values()
            .map(|c| (c.decoder.buffered_len() + c.core.reassembly_len() + c.pending_out()) as i64)
            .sum();
        shared.poll_buffer_bytes.add(total - reported_bytes);
        reported_bytes = total;
    }

    // Shutdown: connections die with the shard. Idle peers see a plain
    // close (threads-engine parity: readers return silently on stop).
    shared.poll_buffer_bytes.add(-reported_bytes);
    for (_, conn) in conns.drain() {
        let _ = poller.deregister(conn.stream.as_fd());
        shared.poll_connections.sub(1);
    }
}

fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    now: Instant,
) {
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue; // stream drops, connection resets
                }
                let core = shared.ep.accept();
                let token = *next_token;
                *next_token += 1;
                if poller
                    .register(stream.as_fd(), token, Interest::READ)
                    .is_err()
                {
                    continue;
                }
                shared.poll_connections.add(1);
                let conn = Conn::new(stream, core, shared.config.max_frame, now);
                conns.insert(token, conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

fn on_readable(
    conn: &mut Conn,
    token: u64,
    shared: &Arc<Shared>,
    job_tx: &Sender<Task>,
    handle: &Arc<ShardHandle>,
    scratch: &mut [u8],
    now: Instant,
) {
    for _ in 0..MAX_READS_PER_EVENT {
        match conn.stream.read(scratch) {
            Ok(0) => {
                // EOF: silent between frames, the blocking reader's
                // BadFrame fault mid-frame. Either way the connection is
                // done.
                let action = conn.core.on_read(Err(conn.decoder.eof()));
                conn.act(action);
                try_flush(conn, now);
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.last_activity = now;
                conn.decoder.feed(&scratch[..n]);
                while let Some(read) = conn.decoder.poll_frame().transpose() {
                    let mut action = conn.core.on_read(read);
                    if let Action::Queue(job) = action {
                        let reply = ReplyTo::Shard {
                            shard: Arc::clone(handle),
                            conn: token,
                        };
                        action = submit(shared, &mut conn.core, job_tx, job, reply);
                    }
                    conn.act(action);
                    if conn.close_after_flush {
                        return;
                    }
                }
                if n < scratch.len() {
                    return; // socket drained
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    // Budget exhausted: leftover socket bytes re-report on the next
    // wait (level-triggered), after the other connections get a turn.
}

fn enqueue(conn: &mut Conn, frame: &Frame) {
    // Writing to a Vec only fails for >u32 payloads, which the server
    // never produces.
    let _ = wire::write_frame(&mut conn.out, frame);
}

fn try_flush(conn: &mut Conn, now: Instant) {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.out_pos += n;
                conn.last_write_progress = now;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
        if conn.out.capacity() > OUT_SHRINK {
            conn.out = Vec::new();
        }
        if conn.close_after_flush {
            conn.dead = true;
        }
    }
}

/// Syncs the poller registration with whether the connection has bytes
/// to write. Level-triggered write interest on an idle socket would
/// busy-spin the shard, so it is armed only while `out` is non-empty.
fn update_interest(conn: &mut Conn, token: u64, poller: &Poller) {
    let want = conn.pending_out() > 0;
    if want != conn.want_write
        && poller
            .modify(
                conn.stream.as_fd(),
                token,
                if want {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                },
            )
            .is_ok()
    {
        conn.want_write = want;
    }
}

#[cfg(test)]
mod tests {
    use crate::server::{Handler, IoMode, NetServer, ServerConfig};
    use crate::wire::{self, FaultCode, FrameType, WireFault};
    use std::io::{BufReader, Write as _};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Duration;

    fn poll_config() -> ServerConfig {
        ServerConfig {
            io: IoMode::Poll,
            ..ServerConfig::default()
        }
    }

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
    fn poll_engine_serves_requests_and_faults() {
        let server = echo_server(poll_config());
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
        server.shutdown().unwrap();
    }

    #[test]
    fn poll_engine_stalled_writer_gets_timeout_fault() {
        let server = echo_server(ServerConfig {
            read_timeout: Duration::from_millis(50),
            ..poll_config()
        });
        let (mut reader, mut stream) = dial(&server);
        shake(&mut reader, &mut stream);
        // Half a header, then silence.
        stream.write_all(&[0x03, 0, 0, 0]).unwrap();
        stream.flush().unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Fault);
        let f = wire::decode_fault(&back.payload).unwrap();
        assert_eq!(f.code, FaultCode::Timeout);
        server.shutdown().unwrap();
    }

    #[test]
    fn poll_engine_single_shard_and_many_shards_both_serve() {
        for shards in [1, 4] {
            let registry = axml_obs::Registry::new();
            let server = echo_server(ServerConfig {
                shards,
                metrics: registry.clone(),
                ..poll_config()
            });
            let (mut reader, mut stream) = dial(&server);
            shake(&mut reader, &mut stream);
            for i in 0..5 {
                wire::write_frame(&mut stream, &wire::request(i, "ping")).unwrap();
                let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
                assert_eq!(back.id, i);
                assert_eq!(back.kind, FrameType::Response);
            }
            assert_eq!(registry.snapshot().counter("server.responses_ok_total"), 5);
            server.shutdown().unwrap();
        }
    }

    struct StoreDoc;

    impl Handler for StoreDoc {
        fn handle(&self, _id: u64, envelope: &str) -> Result<String, WireFault> {
            Ok(format!("echo:{envelope}"))
        }
        fn handle_document(
            &self,
            _id: u64,
            name: &str,
            text: &str,
        ) -> Result<String, WireFault> {
            Ok(format!("stored:{name}:{}", text.len()))
        }
    }

    fn chunk_frames(id: u64, name: &str, data: &[u8], chunk: usize) -> Vec<wire::Frame> {
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
    fn poll_engine_serves_chunked_transfers() {
        let server = NetServer::bind("127.0.0.1:0", Arc::new(StoreDoc), poll_config()).unwrap();
        let (mut reader, mut stream) = dial(&server);
        wire::write_frame(&mut stream, &wire::hello_with("test-client", wire::CAP_CHUNKED))
            .unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Welcome);
        let (_, _, caps) = wire::decode_welcome_caps(&back.payload).unwrap();
        assert_ne!(caps & wire::CAP_CHUNKED, 0);
        let doc = "<doc>".to_string() + &"x".repeat(2000) + "</doc>";
        for f in chunk_frames(11, "big.xml", doc.as_bytes(), 97) {
            wire::write_frame(&mut stream, &f).unwrap();
        }
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Response);
        assert_eq!(back.id, 11);
        assert_eq!(
            wire::decode_envelope(&back.payload).unwrap(),
            format!("stored:big.xml:{}", doc.len())
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn poll_engine_chunk_fault_keeps_the_connection_serving() {
        let server = NetServer::bind("127.0.0.1:0", Arc::new(StoreDoc), poll_config()).unwrap();
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
        // Same connection still serves ordinary requests...
        wire::write_frame(&mut stream, &wire::request(4, "hi")).unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Response);
        assert_eq!(back.id, 4);
        // ...and a fresh transfer.
        for f in chunk_frames(5, "ok.xml", b"<ok/>", 2) {
            wire::write_frame(&mut stream, &f).unwrap();
        }
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Response);
        assert_eq!(back.id, 5);
        server.shutdown().unwrap();
    }

    #[test]
    fn poll_engine_stall_inside_chunk_transfer_times_out() {
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::new(StoreDoc),
            ServerConfig {
                read_timeout: Duration::from_millis(50),
                ..poll_config()
            },
        )
        .unwrap();
        let (mut reader, mut stream) = dial(&server);
        shake(&mut reader, &mut stream);
        wire::write_frame(&mut stream, &wire::doc_chunk_start(9, "stall")).unwrap();
        wire::write_frame(&mut stream, &wire::doc_chunk(9, 0, b"abc")).unwrap();
        stream.flush().unwrap();
        let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.kind, FrameType::Fault);
        let f = wire::decode_fault(&back.payload).unwrap();
        assert_eq!(f.code, FaultCode::Timeout);
        assert!(f.message.contains("mid-chunk-transfer"));
        server.shutdown().unwrap();
    }

    #[test]
    fn poll_engine_pipelines_requests_from_one_connection() {
        let server = echo_server(poll_config());
        let (mut reader, mut stream) = dial(&server);
        shake(&mut reader, &mut stream);
        // Fire a burst without reading, then collect: replies may be
        // reordered across workers but every id must come back once.
        for i in 0..16u64 {
            wire::write_frame(&mut stream, &wire::request(i, &format!("m{i}"))).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            let back = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(back.kind, FrameType::Response);
            assert!(seen.insert(back.id));
        }
        server.shutdown().unwrap();
    }
}
