//! The client half of the wire protocol: pooled connections with
//! handshakes, timeouts, and bounded retry-with-backoff.
//!
//! A [`NetClient`] targets one remote daemon. Connections are dialed
//! lazily, handshaken once, and returned to an idle pool after each
//! successful call — so a burst of calls reuses sockets instead of
//! re-dialing. Failures are classified:
//!
//! * **retryable faults** (`Busy`, `Timeout`, `Shutdown`, or any fault the
//!   server flagged retryable) and transport errors trigger a bounded
//!   retry with exponential backoff plus *deterministic* jitter drawn from
//!   [`axml_support::rng`] — every client seeded identically backs off
//!   identically, which keeps the loopback tests and benches reproducible;
//! * non-retryable faults surface immediately as
//!   [`ClientError::Fault`].
//!
//! Every call is additionally bounded by a **total deadline**
//! ([`ClientConfig::deadline`]) spanning all attempts, backoff sleeps and
//! dials: per-attempt socket timeouts are clamped to the remaining
//! budget, and when it runs out the call fails with the typed
//! [`ClientError::Deadline`] instead of letting `attempts ×
//! read_timeout` of wall time accumulate.
//!
//! The client is generic over [`Transport`]: `NetClient::new` dials real
//! TCP, while [`NetClient::with_transport`] accepts any transport and
//! [`Clock`] — the deterministic simulator injects an in-memory network
//! and virtual time, exercising these exact retry/backoff/deadline paths.

use crate::transport::{Duplex, TcpTransport, Transport};
use crate::wire::{self, ChunkDigest, FrameType, WireError, WireFault};
use axml_support::clock::Clock;
use axml_support::rng::{RngExt, SeedableRng, StdRng};
use axml_support::sync::Mutex;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for a [`NetClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Name announced in the `Hello` handshake frame.
    pub name: String,
    /// Dial timeout for new connections.
    pub connect_timeout: Duration,
    /// Socket read timeout while waiting for a reply.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Total per-call budget across *all* attempts, including backoff
    /// sleeps and re-dials. Attempt-level timeouts are clamped to what
    /// remains; an exhausted budget fails the call with
    /// [`ClientError::Deadline`].
    pub deadline: Duration,
    /// Maximum accepted frame payload, in bytes.
    pub max_frame: usize,
    /// Total attempts per call (1 = no retries).
    pub attempts: u32,
    /// Base backoff; attempt `n` sleeps `base * 2^n` plus jitter.
    pub backoff: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Idle connections kept for reuse.
    pub pool: usize,
    /// Metric registry the client publishes into (`client.*` catalogue
    /// entries). Defaults to the process-wide registry; tests inject a
    /// fresh one for isolation.
    pub metrics: axml_obs::Registry,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            name: "axml-client".to_owned(),
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            deadline: Duration::from_secs(30),
            max_frame: wire::DEFAULT_MAX_FRAME,
            attempts: 3,
            backoff: Duration::from_millis(10),
            seed: 0xA_0E11,
            pool: 4,
            metrics: axml_obs::global(),
        }
    }
}

/// Errors surfaced by [`NetClient::call`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The remote answered with a typed fault (after exhausting retries if
    /// it was retryable).
    Fault(WireFault),
    /// The transport failed (after exhausting retries).
    Wire(WireError),
    /// The handshake failed (bad magic/version/unexpected frame).
    Handshake(String),
    /// The total per-call deadline ([`ClientConfig::deadline`]) elapsed
    /// before any attempt succeeded.
    Deadline {
        /// The configured total budget.
        budget: Duration,
        /// The failure of the last attempt, if one completed.
        last: Option<Box<ClientError>>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Fault(fault) => write!(f, "{fault}"),
            ClientError::Wire(e) => write!(f, "transport: {e}"),
            ClientError::Handshake(m) => write!(f, "handshake failed: {m}"),
            ClientError::Deadline { budget, last } => {
                write!(f, "call deadline of {budget:?} exhausted")?;
                if let Some(last) = last {
                    write!(f, " (last attempt: {last})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {}

struct Conn {
    reader: BufReader<Box<dyn Duplex>>,
    writer: Box<dyn Duplex>,
    /// Name the remote daemon announced in its `Welcome`.
    server_name: String,
    /// Capability bits the remote daemon advertised (`CAP_*`). An old
    /// peer's legacy `Welcome` decodes as zero.
    server_caps: u8,
    /// The buffer chunked transfers encode their `DocChunk` frames in,
    /// kept for the next transfer on this connection: a fresh 256 KiB
    /// buffer per transfer, freed as it ends, lets the allocator trim
    /// the heap and fault the pages back in on the next one.
    chunk_frame: Vec<u8>,
}

/// Pre-resolved handles onto the `client.*` catalogue entries.
struct Metrics {
    calls: axml_obs::Counter,
    attempts: axml_obs::Counter,
    retries: axml_obs::Counter,
    faults: axml_obs::Counter,
    call_ns: axml_obs::Histogram,
}

impl Metrics {
    fn new(r: &axml_obs::Registry) -> Self {
        Metrics {
            calls: r.counter("client.calls_total"),
            attempts: r.counter("client.attempts_total"),
            retries: r.counter("client.retries_total"),
            faults: r.counter("client.faults_total"),
            call_ns: r.histogram("client.call_ns", axml_obs::LATENCY_NS_BOUNDS),
        }
    }
}

/// A pooled client for one remote daemon.
pub struct NetClient {
    endpoint: String,
    tcp_addr: Option<SocketAddr>,
    transport: Arc<dyn Transport>,
    clock: Arc<dyn Clock>,
    config: ClientConfig,
    idle: Mutex<Vec<Conn>>,
    next_id: AtomicU64,
    jitter: Mutex<StdRng>,
    metrics: Metrics,
}

impl NetClient {
    /// Creates a TCP client for `addr` (connections are dialed lazily).
    pub fn new(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<NetClient, ClientError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| ClientError::Wire(e.into()))?
            .next()
            .ok_or_else(|| {
                ClientError::Wire(WireError::Malformed("address resolved to nothing".to_owned()))
            })?;
        let mut client = NetClient::with_transport(
            addr.to_string(),
            Arc::new(TcpTransport),
            axml_support::clock::system(),
            config,
        );
        client.tcp_addr = Some(addr);
        Ok(client)
    }

    /// Creates a client dialing `endpoint` through an explicit transport
    /// and clock — how the deterministic simulator runs this exact client
    /// over an in-memory network and virtual time.
    pub fn with_transport(
        endpoint: impl Into<String>,
        transport: Arc<dyn Transport>,
        clock: Arc<dyn Clock>,
        config: ClientConfig,
    ) -> NetClient {
        let seed = config.seed;
        let metrics = Metrics::new(&config.metrics);
        NetClient {
            endpoint: endpoint.into(),
            tcp_addr: None,
            transport,
            clock,
            config,
            idle: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            jitter: Mutex::new(StdRng::seed_from_u64(seed)),
            metrics,
        }
    }

    /// The endpoint this client dials, in the transport's notation.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// The remote socket address. Panics when the client was built over a
    /// non-TCP transport ([`NetClient::with_transport`]); use
    /// [`NetClient::endpoint`] there.
    pub fn remote_addr(&self) -> SocketAddr {
        self.tcp_addr.expect("client is not on a TCP transport")
    }

    /// Number of idle pooled connections (for tests).
    pub fn pooled(&self) -> usize {
        self.idle.lock().len()
    }

    /// Budget still available `started` nanoseconds into a call.
    fn remaining(&self, started: u64) -> Duration {
        let elapsed = Duration::from_nanos(self.clock.now_ns().saturating_sub(started));
        self.config.deadline.saturating_sub(elapsed)
    }

    fn dial(&self, remaining: Duration) -> Result<Conn, ClientError> {
        let stream = self
            .transport
            .connect(&self.endpoint, self.config.connect_timeout.min(remaining))
            .map_err(|e| ClientError::Wire(e.into()))?;
        stream
            .set_read_timeout(Some(self.config.read_timeout.min(remaining)))
            .and_then(|()| stream.set_write_timeout(Some(self.config.write_timeout)))
            .map_err(|e| ClientError::Wire(e.into()))?;
        let mut writer = stream
            .try_clone()
            .map_err(|e| ClientError::Wire(e.into()))?;
        let mut reader = BufReader::new(stream);
        wire::write_frame(
            &mut writer,
            &wire::hello_with(&self.config.name, wire::CAPS),
        )
        .map_err(ClientError::Wire)?;
        let frame = wire::read_frame(&mut reader, self.config.max_frame).map_err(|e| {
            ClientError::Handshake(format!("no Welcome from {}: {e}", self.endpoint))
        })?;
        match frame.kind {
            FrameType::Welcome => {
                let (version, server_name, server_caps) =
                    wire::decode_welcome_caps(&frame.payload).map_err(|e| {
                        ClientError::Handshake(format!("bad Welcome payload: {e}"))
                    })?;
                if version != wire::VERSION {
                    return Err(ClientError::Handshake(format!(
                        "server speaks version {version}, client {}",
                        wire::VERSION
                    )));
                }
                Ok(Conn {
                    reader,
                    writer,
                    server_name,
                    server_caps,
                    chunk_frame: Vec::new(),
                })
            }
            FrameType::Fault => {
                let fault = wire::decode_fault(&frame.payload)
                    .unwrap_or_else(|e| WireFault::new(wire::FaultCode::BadFrame, e.to_string()));
                Err(ClientError::Handshake(fault.to_string()))
            }
            other => Err(ClientError::Handshake(format!(
                "expected Welcome, got {other:?}"
            ))),
        }
    }

    fn checkout(&self, remaining: Duration) -> Result<Conn, ClientError> {
        if let Some(conn) = self.idle.lock().pop() {
            return Ok(conn);
        }
        self.dial(remaining)
    }

    fn checkin(&self, conn: Conn) {
        let mut idle = self.idle.lock();
        if idle.len() < self.config.pool {
            idle.push(conn);
        }
    }

    /// The name of the remote daemon, learned from the handshake (dials a
    /// connection if none is pooled).
    pub fn server_name(&self) -> Result<String, ClientError> {
        let conn = self.checkout(self.config.deadline)?;
        let name = conn.server_name.clone();
        self.checkin(conn);
        Ok(name)
    }

    /// The capability bits the remote daemon advertised in its `Welcome`
    /// (dials a connection if none is pooled). An old peer that predates
    /// capabilities reports zero — callers fall back to single-frame
    /// shipping when [`wire::CAP_CHUNKED`] is absent.
    pub fn server_caps(&self) -> Result<u8, ClientError> {
        let conn = self.checkout(self.config.deadline)?;
        let caps = conn.server_caps;
        self.checkin(conn);
        Ok(caps)
    }

    /// Backoff before retry `attempt` (1-based): `base * 2^(attempt-1)`
    /// plus a deterministic jitter of up to one base interval.
    fn backoff_for(&self, attempt: u32) -> Duration {
        let base = self.config.backoff;
        let exp = base.saturating_mul(1u32 << (attempt - 1).min(10));
        let jitter_us = if base.as_micros() == 0 {
            0
        } else {
            self.jitter
                .lock()
                .random_range(0..base.as_micros() as u64)
        };
        exp + Duration::from_micros(jitter_us)
    }

    /// Sends one request envelope and waits for the matching reply.
    ///
    /// Retries transport failures and retryable faults up to the
    /// configured attempt budget, re-dialing as needed, all within the
    /// total [`ClientConfig::deadline`].
    pub fn call(&self, envelope: &str) -> Result<String, ClientError> {
        self.call_impl(None, envelope)
    }

    /// Like [`NetClient::call`], but stamps `id` on the request frame
    /// instead of drawing from the client's own sequence — used by the
    /// peer layer to correlate sender and receiver span trees. Retries
    /// reuse `id`: a failed attempt never leaves its connection in the
    /// pool, so a late reply can never be mistaken for a fresh one.
    pub fn call_with_id(&self, id: u64, envelope: &str) -> Result<String, ClientError> {
        self.call_impl(Some(id), envelope)
    }

    /// Ships one document as a chunked transfer
    /// (`DocChunkStart`/`DocChunk`/`DocChunkEnd`) and waits for the
    /// server's reply, retrying like [`NetClient::call`].
    ///
    /// `produce` is invoked once per attempt with an [`std::io::Write`]
    /// sink; whatever it writes is cut into `chunk_bytes`-sized frames as
    /// it streams — the client never materializes the document, so peak
    /// sender memory is one frame, kept on the pooled connection for its
    /// next transfer, plus whatever the producer itself buffers. The
    /// server must advertise [`wire::CAP_CHUNKED`];
    /// check [`NetClient::server_caps`] first to fall back to a
    /// single-frame call against old peers.
    ///
    /// A `name` longer than the 65 535 bytes a `DocChunkStart` frame can
    /// declare fails with [`ClientError::Wire`] before any frame is
    /// written, and is not retried.
    pub fn send_document_chunked(
        &self,
        id: Option<u64>,
        name: &str,
        chunk_bytes: usize,
        mut produce: impl FnMut(&mut dyn std::io::Write) -> std::io::Result<()>,
    ) -> Result<String, ClientError> {
        wire::check_doc_name(name).map_err(ClientError::Wire)?;
        // A chunk frame carries a 4-byte sequence number before the data.
        let chunk = chunk_bytes.clamp(1, self.config.max_frame.saturating_sub(4).max(1));
        self.run_call(|started| self.chunked_once(id, name, chunk, &mut produce, started))
    }

    fn chunked_once(
        &self,
        id: Option<u64>,
        name: &str,
        chunk: usize,
        produce: &mut impl FnMut(&mut dyn std::io::Write) -> std::io::Result<()>,
        started: u64,
    ) -> Result<String, ClientError> {
        let mut conn = self.checkout(self.remaining(started))?;
        if conn.server_caps & wire::CAP_CHUNKED == 0 {
            // Non-retryable: the peer will not grow the capability
            // between attempts. Callers use `server_caps` to pick the
            // single-frame path instead.
            return Err(ClientError::Handshake(format!(
                "server '{}' does not support chunked transfers",
                conn.server_name
            )));
        }
        let id = id.unwrap_or_else(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        wire::write_frame(&mut conn.writer, &wire::doc_chunk_start(id, name))
            .map_err(ClientError::Wire)?;
        let (count, total, digest) = {
            let digest = ChunkDigest::for_caps(conn.server_caps);
            let mut sink =
                ChunkSink::new(&mut conn.writer, &mut conn.chunk_frame, id, chunk, digest);
            // A mid-stream producer failure leaves the transfer half-sent;
            // the connection is dropped (never pooled), which the server
            // accounts as an abort. The retry loop re-dials and re-invokes
            // the producer from the top.
            produce(&mut sink).map_err(|e| ClientError::Wire(e.into()))?;
            sink.finish().map_err(ClientError::Wire)?
        };
        wire::write_frame(
            &mut conn.writer,
            &wire::doc_chunk_end(id, count, total, digest),
        )
        .map_err(ClientError::Wire)?;
        self.read_reply(conn, id, started, FrameType::Response)
    }

    fn call_impl(&self, id: Option<u64>, envelope: &str) -> Result<String, ClientError> {
        self.run_call(|started| self.call_once(id, envelope, started))
    }

    /// The shared retry scaffold: counts the call, runs `attempt` under
    /// the attempt budget and total deadline with backoff between tries,
    /// and records the latency histogram. Both the single-frame and the
    /// chunked paths go through here so their retry/deadline semantics
    /// cannot drift.
    fn run_call(
        &self,
        mut attempt_once: impl FnMut(u64) -> Result<String, ClientError>,
    ) -> Result<String, ClientError> {
        let started = self.clock.now_ns();
        self.metrics.calls.inc();
        let deadline = |last: Option<ClientError>| ClientError::Deadline {
            budget: self.config.deadline,
            last: last.map(Box::new),
        };
        let result = (|| {
            let mut last: Option<ClientError> = None;
            for attempt in 1..=self.config.attempts.max(1) {
                if attempt > 1 {
                    // The backoff sleep itself must fit the budget; a
                    // retry we could start but never finish is wasted.
                    let pause = self.backoff_for(attempt - 1);
                    if pause >= self.remaining(started) {
                        return Err(deadline(last));
                    }
                    self.metrics.retries.inc();
                    self.clock.sleep(pause);
                }
                let remaining = self.remaining(started);
                if remaining.is_zero() {
                    return Err(deadline(last));
                }
                self.metrics.attempts.inc();
                match attempt_once(started) {
                    Ok(reply) => return Ok(reply),
                    Err(e) => {
                        let retryable = match &e {
                            ClientError::Fault(f) => f.retryable,
                            ClientError::Wire(_) => true,
                            ClientError::Handshake(_) => false,
                            ClientError::Deadline { .. } => false,
                        };
                        if !retryable {
                            return Err(e);
                        }
                        last = Some(e);
                    }
                }
            }
            Err(last.unwrap_or_else(|| {
                ClientError::Wire(WireError::Malformed("no attempts configured".to_owned()))
            }))
        })();
        if result.is_err() {
            self.metrics.faults.inc();
        }
        self.metrics
            .call_ns
            .observe(self.clock.now_ns().saturating_sub(started));
        result
    }

    fn call_once(&self, id: Option<u64>, envelope: &str, started: u64) -> Result<String, ClientError> {
        let mut conn = self.checkout(self.remaining(started))?;
        let id = id.unwrap_or_else(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        if let Err(e) = wire::write_frame(&mut conn.writer, &wire::request(id, envelope)) {
            // A pooled connection may have been closed by the server;
            // the retry loop will re-dial.
            return Err(ClientError::Wire(e));
        }
        self.read_reply(conn, id, started, FrameType::Response)
    }

    /// Waits for the `expect` reply to request `id`, skipping frames other
    /// calls own, within the call's remaining deadline. Consumes the
    /// connection and pools it back only on a framed outcome (the reply,
    /// or a fault addressed to this request).
    fn read_reply(
        &self,
        mut conn: Conn,
        id: u64,
        started: u64,
        expect: FrameType,
    ) -> Result<String, ClientError> {
        loop {
            // Clamp every wait to the remaining call budget, so the total
            // deadline holds however many frames we must skip.
            let remaining = self.remaining(started);
            if remaining.is_zero() {
                return Err(ClientError::Wire(WireError::Stalled));
            }
            conn.reader
                .get_ref()
                .set_read_timeout(Some(self.config.read_timeout.min(remaining)))
                .map_err(|e| ClientError::Wire(e.into()))?;
            let frame = match wire::read_frame(&mut conn.reader, self.config.max_frame) {
                Ok(f) => f,
                Err(WireError::Idle | WireError::Stalled) => {
                    return Err(ClientError::Wire(WireError::Stalled));
                }
                Err(e) => return Err(ClientError::Wire(e)),
            };
            match frame.kind {
                kind if kind == expect && frame.id == id => {
                    let reply =
                        wire::decode_envelope(&frame.payload).map_err(ClientError::Wire)?;
                    self.checkin(conn);
                    return Ok(reply);
                }
                // Faults with id 0 are connection-level (the stream is no
                // longer framed): terminal, and the connection is dropped.
                // A fault for *this* request leaves the connection framed
                // and reusable.
                FrameType::Fault if frame.id == id || frame.id == 0 => {
                    let fault = wire::decode_fault(&frame.payload).map_err(ClientError::Wire)?;
                    if frame.id == id {
                        self.checkin(conn);
                    }
                    return Err(ClientError::Fault(fault));
                }
                // A reply or fault for a request this call does not own —
                // pipelined by another thread's aborted call, or a
                // duplicate the network delivered twice — or the second
                // copy of a duplicated Welcome: skip it. (Found by the
                // simulator's duplication fault: a stale frame must not
                // poison the next call on a pooled connection.)
                FrameType::Response
                | FrameType::StatsResponse
                | FrameType::Fault
                | FrameType::Welcome => continue,
                other => {
                    return Err(ClientError::Wire(WireError::Malformed(format!(
                        "unexpected {other:?} frame while awaiting a reply"
                    ))));
                }
            }
        }
    }

    /// Scrapes the remote daemon's metric registry over a `StatsRequest`
    /// frame and parses the JSON snapshot it answers with.
    pub fn stats(&self) -> Result<axml_obs::Snapshot, ClientError> {
        let text = self.stats_json()?;
        axml_obs::Snapshot::parse_json(&text)
            .map_err(|e| ClientError::Wire(WireError::Malformed(e.to_string())))
    }

    /// Like [`NetClient::stats`], but returns the raw JSON snapshot.
    pub fn stats_json(&self) -> Result<String, ClientError> {
        let started = self.clock.now_ns();
        let mut conn = self.checkout(self.remaining(started))?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        wire::write_frame(&mut conn.writer, &wire::stats_request(id))
            .map_err(ClientError::Wire)?;
        self.read_reply(conn, id, started, FrameType::StatsResponse)
    }
}

/// An [`std::io::Write`] that cuts its input into `DocChunk` frames as
/// bytes arrive, tracking the sequence number, cumulative length, and
/// running digest the closing `DocChunkEnd` must declare.
///
/// Each frame is encoded in place in the connection's frame buffer: the
/// header and sequence number are reserved up front, written data is
/// appended once, and the header is filled in and the digest advanced
/// when the frame goes out. Holds at most one chunk of data at a time.
struct ChunkSink<'a> {
    writer: &'a mut Box<dyn Duplex>,
    chunk: usize,
    /// The frame being filled: [`wire::DOC_CHUNK_PREFIX`] bytes, then up
    /// to `chunk` bytes of data.
    frame: &'a mut Vec<u8>,
    seq: u32,
    total: u64,
    digest: ChunkDigest,
}

impl<'a> ChunkSink<'a> {
    fn new(
        writer: &'a mut Box<dyn Duplex>,
        frame: &'a mut Vec<u8>,
        id: u64,
        chunk: usize,
        digest: ChunkDigest,
    ) -> Self {
        wire::begin_doc_chunk(frame, id);
        frame.reserve(chunk);
        ChunkSink {
            writer,
            chunk,
            frame,
            seq: 0,
            total: 0,
            digest,
        }
    }

    /// Data bytes held in the current frame.
    fn held(&self) -> usize {
        self.frame.len() - wire::DOC_CHUNK_PREFIX
    }

    /// Sends the current frame as one write plus a flush, as
    /// [`wire::write_frame`] does, and starts the next one.
    fn emit(&mut self) -> Result<(), WireError> {
        self.digest.update(&self.frame[wire::DOC_CHUNK_PREFIX..]);
        wire::seal_doc_chunk(self.frame, self.seq)?;
        self.writer.write_all(self.frame)?;
        self.writer.flush()?;
        self.frame.truncate(wire::DOC_CHUNK_PREFIX);
        self.seq += 1;
        Ok(())
    }

    /// Flushes the final partial chunk and returns what `DocChunkEnd`
    /// must carry: `(count, total bytes, digest)`.
    fn finish(mut self) -> Result<(u32, u64, u64), WireError> {
        if self.held() > 0 {
            self.emit()?;
        }
        Ok((self.seq, self.total, self.digest.finish()))
    }
}

impl std::io::Write for ChunkSink<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let mut rest = data;
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(rest.len().min(self.chunk - self.held()));
            self.frame.extend_from_slice(piece);
            self.total += piece.len() as u64;
            rest = tail;
            if self.held() == self.chunk {
                self.emit()
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        // Partial chunks are held until `finish`: flushing them early
        // would change the chunk boundaries the peer observes.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Handler, NetServer, ServerConfig};
    use crate::wire::{FaultCode, Frame};
    use axml_support::hash::{fnv64, xxh64, Fnv64};
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn echo() -> Arc<dyn Handler> {
        Arc::new(|_: u64, envelope: &str| Ok(format!("echo:{envelope}")))
    }

    #[test]
    fn call_reuses_pooled_connections() {
        let registry = axml_obs::Registry::new();
        let config = ServerConfig {
            metrics: registry.clone(),
            ..ServerConfig::default()
        };
        let server = NetServer::bind("127.0.0.1:0", echo(), config).unwrap();
        let client = NetClient::new(server.local_addr(), ClientConfig::default()).unwrap();
        for i in 0..10 {
            assert_eq!(client.call(&format!("m{i}")).unwrap(), format!("echo:m{i}"));
        }
        assert_eq!(client.pooled(), 1, "all calls shared one socket");
        assert_eq!(
            registry.snapshot().counter("server.connections_total"),
            1,
            "no re-dialing"
        );
        assert_eq!(client.server_name().unwrap(), "axml-peer");
        server.shutdown().unwrap();
    }

    #[test]
    fn retryable_faults_are_retried_with_backoff() {
        // Fails twice with a retryable fault, then succeeds.
        let calls = Arc::new(AtomicU32::new(0));
        let calls2 = Arc::clone(&calls);
        let handler: Arc<dyn Handler> = Arc::new(move |_: u64, envelope: &str| {
            if calls2.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(WireFault::new(FaultCode::Busy, "try later").retryable())
            } else {
                Ok(envelope.to_owned())
            }
        });
        let server = NetServer::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let registry = axml_obs::Registry::new();
        let client = NetClient::new(
            server.local_addr(),
            ClientConfig {
                attempts: 3,
                backoff: Duration::from_millis(1),
                metrics: registry.clone(),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        assert_eq!(client.call("ok").unwrap(), "ok");
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("client.calls_total"), 1);
        assert_eq!(snap.counter("client.attempts_total"), 3);
        assert_eq!(snap.counter("client.retries_total"), 2);
        assert_eq!(snap.counter("client.faults_total"), 0);
        server.shutdown().unwrap();
    }

    #[test]
    fn non_retryable_faults_surface_immediately() {
        let calls = Arc::new(AtomicU32::new(0));
        let calls2 = Arc::clone(&calls);
        let handler: Arc<dyn Handler> = Arc::new(move |_: u64, _: &str| {
            calls2.fetch_add(1, Ordering::SeqCst);
            Err(WireFault::new(FaultCode::Client, "bad request"))
        });
        let server = NetServer::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let client = NetClient::new(server.local_addr(), ClientConfig::default()).unwrap();
        let err = client.call("x").unwrap_err();
        assert!(matches!(err, ClientError::Fault(ref f) if f.code == FaultCode::Client));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no retry");
        server.shutdown().unwrap();
    }

    #[test]
    fn retries_are_exhausted_against_a_dead_address() {
        // Bind a listener, learn its port, drop it: connections now fail.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = NetClient::new(
            addr,
            ClientConfig {
                attempts: 2,
                backoff: Duration::from_millis(1),
                connect_timeout: Duration::from_millis(200),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            client.call("x").unwrap_err(),
            ClientError::Wire(_)
        ));
    }

    #[test]
    fn deadline_bounds_total_call_time_across_retries() {
        // Every attempt faults retryably; a generous attempt budget must
        // still be cut short by the total deadline.
        let handler: Arc<dyn Handler> = Arc::new(move |_: u64, _: &str| {
            Err(WireFault::new(FaultCode::Busy, "always busy").retryable())
        });
        let server = NetServer::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let deadline = Duration::from_millis(120);
        let client = NetClient::new(
            server.local_addr(),
            ClientConfig {
                attempts: 1000,
                backoff: Duration::from_millis(20),
                deadline,
                metrics: axml_obs::Registry::new(),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let started = std::time::Instant::now();
        let err = client.call("x").unwrap_err();
        let elapsed = started.elapsed();
        assert!(
            matches!(err, ClientError::Deadline { budget, last: Some(_) } if budget == deadline),
            "expected a deadline error carrying the last fault, got {err:?}"
        );
        // Wall time is bounded by the deadline plus modest scheduling
        // slack — not by attempts × backoff.
        assert!(
            elapsed < deadline + Duration::from_secs(2),
            "call ran {elapsed:?} against a {deadline:?} deadline"
        );
        server.shutdown().unwrap();
    }

    /// Answers a chunk-shipped document with its name, length and FNV-64
    /// digest, so a reply pins the exact bytes received.
    struct StoreDoc;

    fn receipt(name: &str, text: &[u8]) -> String {
        let mut digest = Fnv64::new();
        digest.update(text);
        format!("got:{name}:{}:{:016x}", text.len(), digest.finish())
    }

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
            Ok(receipt(name, text.as_bytes()))
        }
    }

    #[test]
    fn chunked_send_streams_the_document_and_gets_the_reply() {
        let server =
            NetServer::bind("127.0.0.1:0", Arc::new(StoreDoc), ServerConfig::default()).unwrap();
        let client = NetClient::new(server.local_addr(), ClientConfig::default()).unwrap();
        assert_ne!(client.server_caps().unwrap() & wire::CAP_CHUNKED, 0);
        let doc = "<doc>".to_string() + &"payload ".repeat(20_000) + "</doc>";
        let reply = client
            .send_document_chunked(Some(42), "news.xml", 1024, |w| {
                // Stream in odd-sized pieces so chunk boundaries never
                // align with write boundaries.
                for piece in doc.as_bytes().chunks(333) {
                    w.write_all(piece)?;
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(reply, receipt("news.xml", doc.as_bytes()));
        assert_eq!(client.pooled(), 1, "the transfer connection was pooled back");

        // Chunk sizes at the edges: one byte, a size coprime to the
        // document, an exact divisor, and one past the end; plus an empty
        // document, which ships as Start and End with no chunk between.
        let small = "<doc>".to_string() + &"x".repeat(4085) + "</doc>";
        assert_eq!(small.len() % 512, 0);
        for (doc, chunk) in [
            (small.as_str(), 1),
            (small.as_str(), 7),
            (small.as_str(), 512),
            (small.as_str(), small.len() + 1),
            ("", 64),
        ] {
            let reply = client
                .send_document_chunked(None, "edge.xml", chunk, |w| {
                    for piece in doc.as_bytes().chunks(333) {
                        w.write_all(piece)?;
                    }
                    Ok(())
                })
                .unwrap();
            assert_eq!(
                reply,
                receipt("edge.xml", doc.as_bytes()),
                "chunk size {chunk}"
            );
        }
        assert_eq!(
            client.pooled(),
            1,
            "every transfer reused the one connection"
        );

        // A name the chunk-start frame cannot declare is refused before
        // anything is dialed or written, and never retried.
        let registry = axml_obs::Registry::new();
        let fresh = NetClient::new(
            server.local_addr(),
            ClientConfig {
                metrics: registry.clone(),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let long = "n".repeat(wire::MAX_DOC_NAME + 1);
        let err = fresh
            .send_document_chunked(None, &long, 64, |w| w.write_all(b"<d/>"))
            .unwrap_err();
        assert!(
            matches!(err, ClientError::Wire(WireError::Malformed(ref m)) if m.contains("name")),
            "expected a typed name refusal, got {err:?}"
        );
        assert_eq!(fresh.pooled(), 0, "nothing was dialed");
        assert_eq!(registry.snapshot().counter("client.attempts_total"), 0);
        server.shutdown().unwrap();
    }

    #[test]
    fn chunked_send_against_a_legacy_peer_fails_fast() {
        // A hand-rolled peer that answers with a pre-capability Welcome.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let legacy = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let hello = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(hello.kind, FrameType::Hello);
            let mut writer = stream;
            wire::write_frame(&mut writer, &wire::welcome("old-peer")).unwrap();
            // Hold the socket open until the client has decided.
            let _ = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME);
        });
        let client = NetClient::new(addr, ClientConfig::default()).unwrap();
        assert_eq!(client.server_caps().unwrap(), 0);
        let err = client
            .send_document_chunked(None, "d.xml", 64, |w| w.write_all(b"<d/>"))
            .unwrap_err();
        assert!(
            matches!(err, ClientError::Handshake(ref m) if m.contains("chunked")),
            "expected a fast non-retryable refusal, got {err:?}"
        );
        drop(client);
        legacy.join().unwrap();
    }

    /// A hand-rolled peer whose `Welcome` advertises `caps`. It answers
    /// one chunked transfer and returns the digest its `DocChunkEnd`
    /// declared.
    fn digest_recording_peer(caps: u8) -> (SocketAddr, std::thread::JoinHandle<u64>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let hello = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
            let (_, _, hello_caps) = wire::decode_hello_caps(&hello.payload).unwrap();
            assert_eq!(hello_caps, wire::CAPS, "the client advertises both bits");
            wire::write_frame(&mut writer, &wire::welcome_with("fake", caps)).unwrap();
            loop {
                let frame = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
                if frame.kind == FrameType::DocChunkEnd {
                    let (_, _, digest) = wire::decode_chunk_end(&frame.payload).unwrap();
                    wire::write_frame(&mut writer, &wire::response(frame.id, "ok")).unwrap();
                    return digest;
                }
            }
        });
        (addr, peer)
    }

    #[test]
    fn chunk_digest_follows_the_welcome_caps() {
        let doc = "<doc>".to_string() + &"quote ".repeat(3_000) + "</doc>";
        let (fnv, xxh) = (fnv64(doc.as_bytes()), xxh64(doc.as_bytes()));
        for (caps, expected) in [(wire::CAP_CHUNKED, fnv), (wire::CAPS, xxh)] {
            let (addr, peer) = digest_recording_peer(caps);
            let client = NetClient::new(addr, ClientConfig::default()).unwrap();
            let reply = client
                .send_document_chunked(None, "d.xml", 1000, |w| w.write_all(doc.as_bytes()))
                .unwrap();
            assert_eq!(reply, "ok");
            assert_eq!(peer.join().unwrap(), expected, "caps {caps:#04x}");
        }
    }

    /// A hand-rolled peer that answers Hello with a duplicated Welcome,
    /// then answers one request on the same connection with `reply`.
    fn doubled_welcome_peer(
        reply: fn(&Frame) -> Frame,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let hello = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(hello.kind, FrameType::Hello);
            let welcome = wire::welcome_with("doubled", wire::CAP_CHUNKED);
            wire::write_frame(&mut writer, &welcome).unwrap();
            wire::write_frame(&mut writer, &welcome).unwrap();
            let request = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
            wire::write_frame(&mut writer, &reply(&request)).unwrap();
        });
        (addr, peer)
    }

    #[test]
    fn a_duplicated_welcome_is_skipped() {
        let (addr, peer) = doubled_welcome_peer(|f| wire::response(f.id, "pong"));
        let registry = axml_obs::Registry::new();
        let config = ClientConfig {
            metrics: registry.clone(),
            ..ClientConfig::default()
        };
        let client = NetClient::new(addr, config).unwrap();
        assert_eq!(client.call("ping").unwrap(), "pong");
        assert_eq!(
            registry.snapshot().counter("client.attempts_total"),
            1,
            "the call succeeds in one attempt"
        );
        peer.join().unwrap();

        let (addr, peer) = doubled_welcome_peer(|f| wire::stats_response(f.id, "{}"));
        let client = NetClient::new(addr, ClientConfig::default()).unwrap();
        assert_eq!(client.stats_json().unwrap(), "{}");
        peer.join().unwrap();
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let server = NetServer::bind("127.0.0.1:0", echo(), ServerConfig::default()).unwrap();
        let mk = |seed| {
            NetClient::new(
                server.local_addr(),
                ClientConfig {
                    seed,
                    ..ClientConfig::default()
                },
            )
            .unwrap()
        };
        let (a, b) = (mk(42), mk(42));
        let seq_a: Vec<Duration> = (1..=4).map(|i| a.backoff_for(i)).collect();
        let seq_b: Vec<Duration> = (1..=4).map(|i| b.backoff_for(i)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same jitter");
        // Exponential growth dominates the one-base-interval jitter.
        assert!(seq_a[3] > seq_a[0]);
        server.shutdown().unwrap();
    }
}
