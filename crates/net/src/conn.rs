//! The connection core: the server side of the wire protocol, with no I/O.
//!
//! What a daemon speaks on each connection lives here once: the
//! versioned handshake, inline Stats, the Shutdown and Busy answers,
//! chunk reassembly with its UTF-8 hand-off, the fault taxonomy and the
//! `server.*`/`net.chunk.*` accounting. [`Conn`] reads no socket and no
//! clock. A driver feeds it what its reader produced and carries out the
//! [`Action`] it answers with. Three drivers run it (DESIGN.md §12.4):
//!
//! * the threads engine's blocking reader, which reads with
//!   [`wire::read_frame`] and writes replies directly;
//! * the poll engine's shard loop, which decodes through a
//!   [`FrameDecoder`](crate::FrameDecoder) and sweeps deadlines;
//! * the simulator's server actors (`axml-sim`), which do the same in
//!   virtual time.
//!
//! A read outcome is a decoded frame or the [`WireError`] that ended the
//! read: `Idle` or `Stalled` for a timeout without or with a partial
//! frame, `Closed` or an unexpected-EOF `Io` error, `TooLarge`, or any
//! other decode error. A job the driver's queue refuses comes back
//! through [`Conn::refused`].
//!
//! Every request ends in exactly one `responses_ok_total` or
//! `faults_total` increment, so `requests_total = responses_ok_total +
//! faults_total`. Handshake faults and Stats scrapes are not requests.
//! A closed connection answers nothing and accounts nothing more.

use crate::frames::{ChunkAssembler, ChunkProgress};
use crate::server::Handler;
use crate::wire::{self, ChunkDigest, FaultCode, Frame, FrameType, WireError, WireFault};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What the driver does after feeding one input to a [`Conn`].
#[derive(Debug, PartialEq)]
pub enum Action {
    /// Nothing to send; keep reading.
    Continue,
    /// Write this frame, then keep reading.
    Reply(Frame),
    /// Hand this job to a worker, and report a refusal through
    /// [`Conn::refused`].
    Queue(Job),
    /// Write the frame, if any, then close the connection.
    Close(Option<Frame>),
}

/// One request for a worker.
#[derive(Debug, PartialEq)]
pub struct Job {
    /// The wire request id the reply carries.
    pub id: u64,
    /// What to run.
    pub work: Work,
}

/// What a queued job asks the worker to run.
#[derive(Debug, PartialEq)]
pub enum Work {
    /// A plain request envelope (UTF-8 XML).
    Envelope(String),
    /// A reassembled, digest-verified chunk-shipped document.
    Document {
        /// The repository name from `DocChunkStart`.
        name: String,
        /// The document XML.
        text: String,
    },
}

impl Job {
    /// Runs the job through the application handler.
    pub fn run(&self, handler: &dyn Handler) -> Result<String, WireFault> {
        match &self.work {
            Work::Envelope(envelope) => handler.handle(self.id, envelope),
            Work::Document { name, text } => handler.handle_document(self.id, name, text),
        }
    }
}

/// Why a driver's queue refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The queue is full: a retryable `Busy` fault, and the connection
    /// keeps serving.
    Busy,
    /// The queue is closed because the server is stopping: a retryable
    /// `Shutdown` fault, then close.
    Shutdown,
}

/// Pre-resolved handles onto the `server.*` and `net.chunk.*` catalogue
/// entries, so hot paths never touch the registry's name map.
struct Metrics {
    connections: axml_obs::Counter,
    requests: axml_obs::Counter,
    responses_ok: axml_obs::Counter,
    faults: axml_obs::Counter,
    busy: axml_obs::Counter,
    timeouts: axml_obs::Counter,
    too_large: axml_obs::Counter,
    frame_bytes: axml_obs::Histogram,
    chunk_frames: axml_obs::Counter,
    chunk_bytes: axml_obs::Counter,
    chunk_aborts: axml_obs::Counter,
    chunk_reassembly: axml_obs::Gauge,
}

/// What every connection of one server shares: the name its `Welcome`
/// announces, the cap on one chunked transfer, the stop flag and the
/// metric handles.
pub struct Endpoint {
    name: String,
    max_doc: usize,
    registry: axml_obs::Registry,
    stopping: AtomicBool,
    m: Metrics,
}

impl Endpoint {
    /// An endpoint announcing `name`, capping one chunked transfer at
    /// `max_doc` bytes, and publishing into (and answering Stats from)
    /// `registry`.
    pub fn new(name: &str, max_doc: usize, registry: &axml_obs::Registry) -> Arc<Endpoint> {
        let r = registry;
        Arc::new(Endpoint {
            name: name.to_owned(),
            max_doc,
            registry: r.clone(),
            stopping: AtomicBool::new(false),
            m: Metrics {
                connections: r.counter("server.connections_total"),
                requests: r.counter("server.requests_total"),
                responses_ok: r.counter("server.responses_ok_total"),
                faults: r.counter("server.faults_total"),
                busy: r.counter("server.busy_total"),
                timeouts: r.counter("server.timeouts_total"),
                too_large: r.counter("server.frame_too_large_total"),
                frame_bytes: r.histogram("server.frame_bytes", axml_obs::BYTES_BOUNDS),
                chunk_frames: r.counter("net.chunk.frames_total"),
                chunk_bytes: r.counter("net.chunk.bytes_total"),
                chunk_aborts: r.counter("net.chunk.aborts_total"),
                chunk_reassembly: r.gauge("net.chunk.reassembly_bytes"),
            },
        })
    }

    /// Opens the protocol state of one accepted connection.
    pub fn accept(self: &Arc<Self>) -> Conn {
        self.m.connections.inc();
        Conn {
            ep: Arc::clone(self),
            handshaken: false,
            closed: false,
            assembler: ChunkAssembler::new(self.max_doc),
            reported: 0,
        }
    }

    /// Marks the server as stopping. From then on a frame other than a
    /// handshake or a scrape is answered with a retryable `Shutdown`
    /// fault and closes its connection, and an idle timeout or a broken
    /// read closes without a fault.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
    }

    /// Whether [`Endpoint::stop`] was called.
    pub fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Accounts a worker's answer to job `id` and encodes its reply.
    pub fn reply(&self, id: u64, outcome: Result<String, WireFault>) -> Frame {
        match outcome {
            Ok(envelope) => {
                self.m.requests.inc();
                self.m.responses_ok.inc();
                wire::response(id, &envelope)
            }
            Err(fault) => {
                self.fault();
                wire::fault(id, &fault)
            }
        }
    }

    fn fault(&self) {
        self.m.requests.inc();
        self.m.faults.inc();
    }
}

fn fault(id: u64, code: FaultCode, message: impl Into<String>) -> Frame {
    wire::fault(id, &WireFault::new(code, message))
}

/// One connection's protocol state. Dropping it gives back its
/// reassembly bytes and counts an unfinished transfer as aborted, so a
/// driver that drops a connection for its own reasons leaks nothing.
pub struct Conn {
    ep: Arc<Endpoint>,
    handshaken: bool,
    closed: bool,
    assembler: ChunkAssembler,
    /// Reassembly bytes last published into `net.chunk.reassembly_bytes`.
    reported: usize,
}

impl Conn {
    /// Feeds one read outcome.
    pub fn on_read(&mut self, read: Result<Frame, WireError>) -> Action {
        if self.closed {
            return Action::Close(None);
        }
        match read {
            Ok(frame) => self.on_frame(frame),
            // Before the handshake every broken read drops silently.
            Err(_) if !self.handshaken => self.close(None),
            Err(WireError::Stalled) => self.timeout("read timed out mid-frame"),
            Err(WireError::TooLarge { len, max }) => {
                // The oversized payload was never read: the stream is no
                // longer framed, so fault and close.
                self.ep.fault();
                self.ep.m.too_large.inc();
                self.ep.m.frame_bytes.observe(len as u64);
                let f = fault(
                    0,
                    FaultCode::TooLarge,
                    format!("{len}-byte payload exceeds the {max}-byte cap"),
                );
                self.close(Some(f))
            }
            Err(WireError::Closed) => self.close(None),
            Err(_) if self.ep.stopping() => self.close(None),
            // Idle pooled connections are kept, but silence inside an
            // open chunk transfer is the same stall as inside a frame.
            Err(WireError::Idle) if !self.assembler.active() => Action::Continue,
            Err(WireError::Idle) => self.timeout("read timed out mid-chunk-transfer"),
            Err(e) => {
                self.ep.fault();
                self.close(Some(fault(0, FaultCode::BadFrame, e.to_string())))
            }
        }
    }

    /// Answers a job the driver's queue refused.
    pub fn refused(&mut self, id: u64, why: Refusal) -> Action {
        if self.closed {
            return Action::Close(None);
        }
        match why {
            Refusal::Busy => {
                // Busy before requests: `requests_total − busy_total`,
                // read in that order, never counts a refusal as answered.
                self.ep.m.busy.inc();
                self.ep.fault();
                let f = WireFault::new(FaultCode::Busy, "in-flight request queue is full");
                Action::Reply(wire::fault(id, &f.retryable()))
            }
            Refusal::Shutdown => self.shut_down(id),
        }
    }

    /// Whether a chunked transfer is open.
    pub fn transfer_active(&self) -> bool {
        self.assembler.active()
    }

    /// Bytes held for the open chunked transfer.
    pub fn reassembly_len(&self) -> usize {
        self.assembler.buffered_len()
    }

    fn on_frame(&mut self, frame: Frame) -> Action {
        if self.handshaken {
            self.ep.m.frame_bytes.observe(frame.payload.len() as u64);
        }
        match frame.kind {
            // A repeated Hello is answered like the first.
            FrameType::Hello => self.handshake(&frame),
            _ if !self.handshaken => self.close(Some(fault(
                frame.id,
                FaultCode::BadFrame,
                "expected Hello to open the connection",
            ))),
            // Scrapes must work even when the worker queue is saturated,
            // and they stay out of the request accounting.
            FrameType::StatsRequest => {
                let snapshot = self.ep.registry.snapshot().to_json();
                Action::Reply(wire::stats_response(frame.id, &snapshot))
            }
            _ if self.ep.stopping() => self.shut_down(frame.id),
            FrameType::DocChunkStart | FrameType::DocChunk | FrameType::DocChunkEnd => {
                self.chunk(&frame)
            }
            FrameType::Request => match wire::decode_envelope(&frame.payload) {
                Ok(envelope) => Action::Queue(Job {
                    id: frame.id,
                    work: Work::Envelope(envelope),
                }),
                Err(e) => {
                    self.ep.fault();
                    Action::Reply(fault(frame.id, FaultCode::Client, e.to_string()))
                }
            },
            _ => {
                self.ep.fault();
                Action::Reply(fault(
                    frame.id,
                    FaultCode::BadFrame,
                    "expected a Request frame",
                ))
            }
        }
    }

    fn handshake(&mut self, frame: &Frame) -> Action {
        match wire::decode_hello_caps(&frame.payload) {
            Ok((version, _peer, caps)) if version == wire::VERSION => {
                self.handshaken = true;
                // The client's caps pick the digest its transfers close with.
                self.assembler.set_digest(ChunkDigest::for_caps(caps));
                Action::Reply(wire::welcome_with(&self.ep.name, wire::CAPS))
            }
            Ok((version, _, _)) => self.close(Some(fault(
                0,
                FaultCode::Version,
                format!("server speaks version {}, client {version}", wire::VERSION),
            ))),
            Err(e) => self.close(Some(fault(
                0,
                FaultCode::BadFrame,
                format!("bad Hello: {e}"),
            ))),
        }
    }

    fn chunk(&mut self, frame: &Frame) -> Action {
        let m = &self.ep.m;
        m.chunk_frames.inc();
        if frame.kind == FrameType::DocChunk {
            m.chunk_bytes
                .add(frame.payload.len().saturating_sub(4) as u64);
        }
        let outcome = self.assembler.accept(frame);
        // Publish before the job can be answered: a sender that sees its
        // DocChunkEnd answered must not see the gauge still holding it.
        self.sync_reassembly();
        let m = &self.ep.m;
        match outcome {
            Ok(ChunkProgress::Pending | ChunkProgress::Drained) => Action::Continue,
            Ok(ChunkProgress::Complete { name, bytes, .. }) => match String::from_utf8(bytes) {
                Ok(text) => Action::Queue(Job {
                    id: frame.id,
                    work: Work::Document { name, text },
                }),
                Err(_) => {
                    self.ep.fault();
                    m.chunk_aborts.inc();
                    let f = fault(frame.id, FaultCode::Client, "chunked document is not UTF-8");
                    Action::Reply(f)
                }
            },
            // The transfer is dead but the stream is still framed: fault
            // the transfer's request id and keep serving. The assembler
            // drains the pipelined remains itself.
            Err(e) => {
                self.ep.fault();
                m.chunk_aborts.inc();
                let f = match e {
                    WireError::TooLarge { len, max } => {
                        m.too_large.inc();
                        m.frame_bytes.observe(len as u64);
                        WireFault::new(
                            FaultCode::TooLarge,
                            format!(
                                "chunked transfer of {len} cumulative bytes exceeds the {max}-byte cap"
                            ),
                        )
                    }
                    other => WireFault::new(FaultCode::BadFrame, other.to_string()),
                };
                Action::Reply(wire::fault(frame.id, &f))
            }
        }
    }

    fn shut_down(&mut self, id: u64) -> Action {
        self.ep.fault();
        let f = WireFault::new(FaultCode::Shutdown, "server is shutting down");
        self.close(Some(wire::fault(id, &f.retryable())))
    }

    fn timeout(&mut self, message: &str) -> Action {
        self.ep.fault();
        self.ep.m.timeouts.inc();
        self.close(Some(fault(0, FaultCode::Timeout, message)))
    }

    fn close(&mut self, frame: Option<Frame>) -> Action {
        self.closed = true;
        self.release();
        Action::Close(frame)
    }

    fn sync_reassembly(&mut self) {
        let now = self.assembler.buffered_len();
        self.ep
            .m
            .chunk_reassembly
            .add(now as i64 - self.reported as i64);
        self.reported = now;
    }

    /// Gives back the reassembly bytes; an open transfer counts as aborted.
    fn release(&mut self) {
        if self.assembler.active() {
            self.ep.m.chunk_aborts.inc();
            self.assembler.abort();
        }
        self.sync_reassembly();
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.release();
    }
}
