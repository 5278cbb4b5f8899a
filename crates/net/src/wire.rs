//! The AXML framing and wire protocol.
//!
//! Peers exchange length-prefixed **frames** over TCP. Every frame is a
//! fixed 13-byte header followed by a payload:
//!
//! ```text
//! +------+----------------------+----------------+-- ... --+
//! | type |      request id      | payload length | payload |
//! | (u8) |      (u64, BE)       |    (u32, BE)   |  bytes  |
//! +------+----------------------+----------------+-- ... --+
//! ```
//!
//! Frame types:
//!
//! | type | name       | payload                                          |
//! |------|------------|--------------------------------------------------|
//! | 0x01 | `Hello`    | magic `AXML` + version (u16 BE) + peer name      |
//! | 0x02 | `Welcome`  | version (u16 BE) + peer name                     |
//! | 0x03 | `Request`  | a SOAP envelope (UTF-8 XML)                      |
//! | 0x04 | `Response` | a SOAP envelope (UTF-8 XML)                      |
//! | 0x05 | `Fault`    | code (u8) + retryable (u8) + message (UTF-8)     |
//! | 0x06 | `StatsRequest`  | empty — asks the server for its metrics     |
//! | 0x07 | `StatsResponse` | a JSON metric snapshot (`axml-obs` format)  |
//! | 0x08 | `DocChunkStart` | name len (u16 BE) + document name (UTF-8)   |
//! | 0x09 | `DocChunk`      | sequence number (u32 BE) + raw chunk bytes  |
//! | 0x0A | `DocChunkEnd`   | chunk count (u32 BE) + total bytes (u64 BE) + digest (u64 BE, [`ChunkDigest`]) |
//!
//! A connection opens with a versioned handshake: the client sends
//! `Hello` (request id 0); the server answers `Welcome`, or a `Fault`
//! with [`FaultCode::Version`] and closes. After the handshake the client
//! sends `Request` frames with monotonically increasing request ids; each
//! is answered by exactly one `Response` or `Fault` frame carrying the
//! *same* request id (answers may arrive out of order when the server
//! pipelines requests across its worker pool).
//!
//! **Capabilities.** Either handshake frame may append a NUL byte and a
//! capability bitmask after the peer name ([`hello_with`] /
//! [`welcome_with`]). Decoders split the name at the first NUL, so a
//! suffix-aware peer sees a clean name plus the mask, while a peer
//! predating the suffix merely logs a name with a trailing marker — the
//! handshake itself still succeeds. A client uses chunked document
//! transfer ([`CAP_CHUNKED`]) only when the server's `Welcome` advertises
//! it, falling back to single-frame `Request` shipping otherwise. Both
//! ends of this build advertise [`CAPS`].
//!
//! **Chunked transfers.** A document too large for one `Request` frame
//! travels as `DocChunkStart`, then `DocChunk` frames with consecutive
//! sequence numbers starting at 0, then `DocChunkEnd` carrying the chunk
//! count, cumulative byte length, and a running digest of the chunk
//! bytes. Each end picks the digest from the caps the other end
//! advertised ([`ChunkDigest::for_caps`]): XXH64 when they include
//! [`CAP_XXH64`], FNV-1a-64 when not. A peer advertises the bit only if it
//! computes XXH64, so both ends agree. All frames of one transfer carry
//! the same request id, and the transfer is answered by exactly one
//! `Response` or `Fault` like a plain `Request`. Reassembly rules live in
//! [`ChunkAssembler`](crate::frames::ChunkAssembler).
//!
//! Faults are **typed**: a [`FaultCode`] plus a `retryable` flag that
//! tells the client whether backing off and retrying can help (queue
//! full, timeouts) or cannot (malformed envelope, unknown service).
//!
//! Payloads larger than the receiver's configured maximum are rejected
//! *before* any allocation ([`WireError::TooLarge`]) — a 4-byte length
//! from a hostile peer never reserves memory.

use axml_support::hash::{Fnv64, Xxh64};
use std::io::{Read, Write};
use std::time::Duration;

/// The handshake magic: the first four payload bytes of every `Hello`.
pub const MAGIC: [u8; 4] = *b"AXML";

/// The wire protocol version spoken by this build.
pub const VERSION: u16 = 1;

/// Size of the fixed frame header (type + request id + payload length).
pub const HEADER_LEN: usize = 1 + 8 + 4;

/// Default cap on payload size: 4 MiB.
pub const DEFAULT_MAX_FRAME: usize = 4 << 20;

/// Default cap on the *cumulative* size of one chunked document transfer:
/// 64 MiB. Per-chunk frames stay bounded by the frame cap; this bounds
/// what a reassembling receiver will buffer in total.
pub const DEFAULT_MAX_DOC: usize = 64 << 20;

/// Longest document name, in bytes, a `DocChunkStart` frame can carry:
/// the name length travels as a `u16`.
pub(crate) const MAX_DOC_NAME: usize = u16::MAX as usize;

/// Handshake capability bit: the peer understands the
/// `DocChunkStart`/`DocChunk`/`DocChunkEnd` frame family.
pub const CAP_CHUNKED: u8 = 0x01;

/// Handshake capability bit: the peer closes and checks chunked
/// transfers with an XXH64 digest instead of FNV-1a-64.
pub const CAP_XXH64: u8 = 0x02;

/// The capabilities this build advertises, in a client's `Hello` and in
/// a server's `Welcome`.
pub const CAPS: u8 = CAP_CHUNKED | CAP_XXH64;

/// The running digest that closes a chunked transfer (`DocChunkEnd`).
#[derive(Debug, Clone, Copy)]
pub enum ChunkDigest {
    /// FNV-1a-64, byte for byte as before [`CAP_XXH64`] existed.
    Fnv64(Fnv64),
    /// XXH64 with seed 0.
    Xxh64(Xxh64),
}

impl ChunkDigest {
    /// A fresh digest for a transfer to or from a peer that advertised
    /// `caps` in its handshake: XXH64 when it set [`CAP_XXH64`],
    /// FNV-1a-64 when it did not. Senders and receivers both decide here.
    pub fn for_caps(caps: u8) -> ChunkDigest {
        if caps & CAP_XXH64 != 0 {
            ChunkDigest::Xxh64(Xxh64::new())
        } else {
            ChunkDigest::Fnv64(Fnv64::new())
        }
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        match self {
            ChunkDigest::Fnv64(d) => d.update(bytes),
            ChunkDigest::Xxh64(d) => d.update(bytes),
        }
    }

    /// The digest of everything folded so far.
    pub fn finish(&self) -> u64 {
        match self {
            ChunkDigest::Fnv64(d) => d.finish(),
            ChunkDigest::Xxh64(d) => d.finish(),
        }
    }
}

/// The kind of a frame, i.e. its `type` byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Client-side half of the handshake.
    Hello,
    /// Server-side half of the handshake.
    Welcome,
    /// A request carrying a SOAP envelope.
    Request,
    /// A successful reply carrying a SOAP envelope.
    Response,
    /// A typed failure reply.
    Fault,
    /// Asks the server for a JSON snapshot of its metric registry.
    StatsRequest,
    /// The JSON metric snapshot answering a `StatsRequest`.
    StatsResponse,
    /// Opens a chunked document transfer (name + metadata).
    DocChunkStart,
    /// One chunk of a chunked transfer (sequence number + bytes).
    DocChunk,
    /// Closes a chunked transfer (count + total length + digest).
    DocChunkEnd,
}

impl FrameType {
    fn to_byte(self) -> u8 {
        match self {
            FrameType::Hello => 0x01,
            FrameType::Welcome => 0x02,
            FrameType::Request => 0x03,
            FrameType::Response => 0x04,
            FrameType::Fault => 0x05,
            FrameType::StatsRequest => 0x06,
            FrameType::StatsResponse => 0x07,
            FrameType::DocChunkStart => 0x08,
            FrameType::DocChunk => 0x09,
            FrameType::DocChunkEnd => 0x0a,
        }
    }

    /// Decodes a frame's `type` byte (byte 0 of the header).
    pub fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0x01 => Ok(FrameType::Hello),
            0x02 => Ok(FrameType::Welcome),
            0x03 => Ok(FrameType::Request),
            0x04 => Ok(FrameType::Response),
            0x05 => Ok(FrameType::Fault),
            0x06 => Ok(FrameType::StatsRequest),
            0x07 => Ok(FrameType::StatsResponse),
            0x08 => Ok(FrameType::DocChunkStart),
            0x09 => Ok(FrameType::DocChunk),
            0x0a => Ok(FrameType::DocChunkEnd),
            other => Err(WireError::UnknownFrameType(other)),
        }
    }
}

/// One frame: type, request id, raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame's type byte, decoded.
    pub kind: FrameType,
    /// Correlates requests with their replies; 0 during the handshake.
    pub id: u64,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

/// Typed fault codes carried by `Fault` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCode {
    /// The request itself is at fault (malformed envelope, bad method).
    Client,
    /// The server failed to process a well-formed request.
    Server,
    /// The server's in-flight request queue is full; try again later.
    Busy,
    /// The peer timed out mid-frame.
    Timeout,
    /// A frame exceeded the receiver's size cap.
    TooLarge,
    /// A frame violated the protocol (bad type, handshake out of order).
    BadFrame,
    /// Version negotiation failed during the handshake.
    Version,
    /// The server is shutting down.
    Shutdown,
}

impl FaultCode {
    fn to_byte(self) -> u8 {
        match self {
            FaultCode::Client => 0,
            FaultCode::Server => 1,
            FaultCode::Busy => 2,
            FaultCode::Timeout => 3,
            FaultCode::TooLarge => 4,
            FaultCode::BadFrame => 5,
            FaultCode::Version => 6,
            FaultCode::Shutdown => 7,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(FaultCode::Client),
            1 => Ok(FaultCode::Server),
            2 => Ok(FaultCode::Busy),
            3 => Ok(FaultCode::Timeout),
            4 => Ok(FaultCode::TooLarge),
            5 => Ok(FaultCode::BadFrame),
            6 => Ok(FaultCode::Version),
            7 => Ok(FaultCode::Shutdown),
            other => Err(WireError::Malformed(format!("unknown fault code {other}"))),
        }
    }

    /// The SOAP `faultcode` string this wire code maps to.
    pub fn as_soap_code(self) -> &'static str {
        match self {
            FaultCode::Client => "Client",
            FaultCode::Server => "Server",
            FaultCode::Busy => "Server.Busy",
            FaultCode::Timeout => "Server.Timeout",
            FaultCode::TooLarge => "Client.TooLarge",
            FaultCode::BadFrame => "Client.BadFrame",
            FaultCode::Version => "Client.Version",
            FaultCode::Shutdown => "Server.Shutdown",
        }
    }

    /// The inverse of [`FaultCode::as_soap_code`]; unknown strings map to
    /// the two base SOAP codes by prefix, defaulting to `Server`.
    pub fn from_soap_code(code: &str) -> Self {
        match code {
            "Client" => FaultCode::Client,
            "Server" => FaultCode::Server,
            "Server.Busy" => FaultCode::Busy,
            "Server.Timeout" => FaultCode::Timeout,
            "Client.TooLarge" => FaultCode::TooLarge,
            "Client.BadFrame" => FaultCode::BadFrame,
            "Client.Version" => FaultCode::Version,
            "Server.Shutdown" => FaultCode::Shutdown,
            other if other.starts_with("Client") => FaultCode::Client,
            _ => FaultCode::Server,
        }
    }
}

impl std::fmt::Display for FaultCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_soap_code())
    }
}

/// The decoded payload of a `Fault` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFault {
    /// Typed fault code.
    pub code: FaultCode,
    /// Whether retrying (after backoff) can succeed.
    pub retryable: bool,
    /// Human-readable description.
    pub message: String,
}

impl WireFault {
    /// A non-retryable fault.
    pub fn new(code: FaultCode, message: impl Into<String>) -> Self {
        WireFault {
            code,
            retryable: false,
            message: message.into(),
        }
    }

    /// Marks the fault retryable.
    pub fn retryable(mut self) -> Self {
        self.retryable = true;
        self
    }
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault [{}{}]: {}",
            self.code,
            if self.retryable { ", retryable" } else { "" },
            self.message
        )
    }
}

/// Errors raised while reading or writing frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// An I/O failure (kind + description).
    Io(std::io::ErrorKind, String),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The read timed out while the connection was idle (no frame begun).
    Idle,
    /// The read timed out mid-frame — the peer stalled.
    Stalled,
    /// A payload length exceeded the configured cap.
    TooLarge {
        /// The announced payload length.
        len: usize,
        /// The receiver's cap.
        max: usize,
    },
    /// An unknown frame type byte.
    UnknownFrameType(u8),
    /// The handshake magic did not match.
    BadMagic,
    /// The peer speaks an incompatible protocol version.
    Version(u16),
    /// A structurally invalid payload.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(kind, msg) => write!(f, "i/o error ({kind:?}): {msg}"),
            WireError::Closed => write!(f, "connection closed by peer"),
            WireError::Idle => write!(f, "idle timeout waiting for a frame"),
            WireError::Stalled => write!(f, "peer stalled mid-frame"),
            WireError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::UnknownFrameType(b) => write!(f, "unknown frame type byte {b:#04x}"),
            WireError::BadMagic => write!(f, "handshake magic mismatch"),
            WireError::Version(v) => write!(f, "incompatible protocol version {v}"),
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.kind(), e.to_string())
    }
}

fn is_timeout(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The error of a stream that ends inside a frame.
pub(crate) fn eof_mid_frame() -> WireError {
    WireError::Io(
        std::io::ErrorKind::UnexpectedEof,
        "connection closed mid-frame".to_owned(),
    )
}

/// Reads exactly `buf.len()` bytes. `started` says whether earlier bytes
/// of the same frame were already consumed: a timeout then is a stall
/// ([`WireError::Stalled`]), while a timeout before any byte of the frame
/// is a benign [`WireError::Idle`]. A clean EOF before any byte is
/// [`WireError::Closed`].
fn read_full(r: &mut impl Read, buf: &mut [u8], mut started: bool) -> Result<(), WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if started {
                    eof_mid_frame()
                } else {
                    WireError::Closed
                });
            }
            Ok(n) => {
                filled += n;
                started = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => {
                return Err(if started {
                    WireError::Stalled
                } else {
                    WireError::Idle
                });
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads one frame, enforcing `max_payload` before allocating.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_full(r, &mut header, false)?;
    let kind = FrameType::from_byte(header[0])?;
    let id = u64::from_be_bytes(header[1..9].try_into().expect("8 header bytes"));
    let len = u32::from_be_bytes(header[9..13].try_into().expect("4 header bytes")) as usize;
    if len > max_payload {
        return Err(WireError::TooLarge {
            len,
            max: max_payload,
        });
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, true)?;
    Ok(Frame { kind, id, payload })
}

/// Writes one frame (header + payload) and flushes. Header and payload
/// go out as a single write: two small writes on an unbuffered socket
/// interact with Nagle + delayed ACK and stall every frame ~40 ms.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    let len = u32::try_from(frame.payload.len())
        .map_err(|_| WireError::Malformed("payload exceeds u32 length".to_owned()))?;
    let mut buf = Vec::with_capacity(HEADER_LEN + frame.payload.len());
    buf.push(frame.kind.to_byte());
    buf.extend_from_slice(&frame.id.to_be_bytes());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(&frame.payload);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Appends the NUL-delimited capability suffix to a handshake name
/// field; a zero mask keeps the pre-capability byte layout.
fn name_with_caps(buf: &mut Vec<u8>, peer_name: &str, caps: u8) {
    buf.extend_from_slice(peer_name.as_bytes());
    if caps != 0 {
        buf.push(0);
        buf.push(caps);
    }
}

/// Splits a handshake name field into `(name bytes, capability mask)`:
/// everything before the first NUL is the name, the byte after it (if
/// any) is the mask. Fields without a NUL carry no capabilities.
fn split_caps(field: &[u8]) -> (&[u8], u8) {
    match field.iter().position(|&b| b == 0) {
        Some(at) => (&field[..at], field.get(at + 1).copied().unwrap_or(0)),
        None => (field, 0),
    }
}

/// Builds the `Hello` frame a client opens the connection with.
pub fn hello(peer_name: &str) -> Frame {
    hello_with(peer_name, 0)
}

/// Builds a `Hello` frame advertising a capability mask (see
/// [`CAP_CHUNKED`]). `caps == 0` produces the legacy payload layout.
pub fn hello_with(peer_name: &str, caps: u8) -> Frame {
    let mut payload = Vec::with_capacity(4 + 2 + peer_name.len() + 2);
    payload.extend_from_slice(&MAGIC);
    payload.extend_from_slice(&VERSION.to_be_bytes());
    name_with_caps(&mut payload, peer_name, caps);
    Frame {
        kind: FrameType::Hello,
        id: 0,
        payload,
    }
}

/// Decodes a `Hello` payload including the capability mask, returning
/// `(version, peer name, caps)`. Payloads without the NUL suffix decode
/// with `caps == 0`.
pub fn decode_hello_caps(payload: &[u8]) -> Result<(u16, String, u8), WireError> {
    if payload.len() < 6 {
        return Err(WireError::Malformed("hello payload too short".to_owned()));
    }
    if payload[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_be_bytes([payload[4], payload[5]]);
    let (name, caps) = split_caps(&payload[6..]);
    let name = String::from_utf8(name.to_vec())
        .map_err(|_| WireError::Malformed("hello peer name is not UTF-8".to_owned()))?;
    Ok((version, name, caps))
}

/// Builds the `Welcome` frame a server answers the handshake with.
pub fn welcome(peer_name: &str) -> Frame {
    welcome_with(peer_name, 0)
}

/// Builds a `Welcome` frame advertising a capability mask (see
/// [`CAP_CHUNKED`]). `caps == 0` produces the legacy payload layout.
pub fn welcome_with(peer_name: &str, caps: u8) -> Frame {
    let mut payload = Vec::with_capacity(2 + peer_name.len() + 2);
    payload.extend_from_slice(&VERSION.to_be_bytes());
    name_with_caps(&mut payload, peer_name, caps);
    Frame {
        kind: FrameType::Welcome,
        id: 0,
        payload,
    }
}

/// Decodes a `Welcome` payload, returning `(version, peer name)`.
pub fn decode_welcome(payload: &[u8]) -> Result<(u16, String), WireError> {
    decode_welcome_caps(payload).map(|(v, name, _)| (v, name))
}

/// Decodes a `Welcome` payload including the capability mask, returning
/// `(version, peer name, caps)`. Payloads without the NUL suffix decode
/// with `caps == 0`.
pub fn decode_welcome_caps(payload: &[u8]) -> Result<(u16, String, u8), WireError> {
    if payload.len() < 2 {
        return Err(WireError::Malformed("welcome payload too short".to_owned()));
    }
    let version = u16::from_be_bytes([payload[0], payload[1]]);
    let (name, caps) = split_caps(&payload[2..]);
    let name = String::from_utf8(name.to_vec())
        .map_err(|_| WireError::Malformed("welcome peer name is not UTF-8".to_owned()))?;
    Ok((version, name, caps))
}

/// Builds a `Request` frame around a SOAP envelope.
pub fn request(id: u64, envelope: &str) -> Frame {
    Frame {
        kind: FrameType::Request,
        id,
        payload: envelope.as_bytes().to_vec(),
    }
}

/// Builds a `Response` frame around a SOAP envelope.
pub fn response(id: u64, envelope: &str) -> Frame {
    Frame {
        kind: FrameType::Response,
        id,
        payload: envelope.as_bytes().to_vec(),
    }
}

/// Builds a `Fault` frame from a typed fault.
pub fn fault(id: u64, f: &WireFault) -> Frame {
    let mut payload = Vec::with_capacity(2 + f.message.len());
    payload.push(f.code.to_byte());
    payload.push(u8::from(f.retryable));
    payload.extend_from_slice(f.message.as_bytes());
    Frame {
        kind: FrameType::Fault,
        id,
        payload,
    }
}

/// Decodes a `Fault` payload.
pub fn decode_fault(payload: &[u8]) -> Result<WireFault, WireError> {
    if payload.len() < 2 {
        return Err(WireError::Malformed("fault payload too short".to_owned()));
    }
    Ok(WireFault {
        code: FaultCode::from_byte(payload[0])?,
        retryable: payload[1] != 0,
        message: String::from_utf8(payload[2..].to_vec())
            .map_err(|_| WireError::Malformed("fault message is not UTF-8".to_owned()))?,
    })
}

/// Builds a `StatsRequest` frame (empty payload).
pub fn stats_request(id: u64) -> Frame {
    Frame {
        kind: FrameType::StatsRequest,
        id,
        payload: Vec::new(),
    }
}

/// Builds a `StatsResponse` frame around a JSON metric snapshot.
pub fn stats_response(id: u64, snapshot_json: &str) -> Frame {
    Frame {
        kind: FrameType::StatsResponse,
        id,
        payload: snapshot_json.as_bytes().to_vec(),
    }
}

/// Checks that `doc_name` fits a `DocChunkStart` frame (at most
/// [`MAX_DOC_NAME`] bytes). A sender checks before it writes the first
/// frame of a transfer: a longer name cannot be declared, and a receiver
/// would only reject the transfer after the whole document had streamed.
pub(crate) fn check_doc_name(doc_name: &str) -> Result<(), WireError> {
    if doc_name.len() > MAX_DOC_NAME {
        return Err(WireError::Malformed(format!(
            "document name of {} bytes exceeds the {MAX_DOC_NAME}-byte chunk-start limit",
            doc_name.len()
        )));
    }
    Ok(())
}

/// Builds the `DocChunkStart` frame opening a chunked document transfer.
///
/// Panics when `doc_name` is longer than 65 535 bytes, which the frame
/// cannot declare; a sender refuses such a name before it writes any
/// frame of the transfer.
pub fn doc_chunk_start(id: u64, doc_name: &str) -> Frame {
    let name = doc_name.as_bytes();
    let len = u16::try_from(name.len()).expect("document names are checked against MAX_DOC_NAME");
    let mut payload = Vec::with_capacity(2 + name.len());
    payload.extend_from_slice(&len.to_be_bytes());
    payload.extend_from_slice(name);
    Frame {
        kind: FrameType::DocChunkStart,
        id,
        payload,
    }
}

/// Decodes a `DocChunkStart` payload, returning the document name.
pub fn decode_chunk_start(payload: &[u8]) -> Result<String, WireError> {
    if payload.len() < 2 {
        return Err(WireError::Malformed(
            "chunk-start payload too short".to_owned(),
        ));
    }
    let len = u16::from_be_bytes([payload[0], payload[1]]) as usize;
    if payload.len() != 2 + len {
        return Err(WireError::Malformed(format!(
            "chunk-start name length {len} does not match payload ({} bytes left)",
            payload.len() - 2
        )));
    }
    String::from_utf8(payload[2..].to_vec())
        .map_err(|_| WireError::Malformed("chunk-start document name is not UTF-8".to_owned()))
}

/// Builds one `DocChunk` frame: sequence number + raw bytes.
pub fn doc_chunk(id: u64, seq: u32, data: &[u8]) -> Frame {
    let mut payload = Vec::with_capacity(4 + data.len());
    payload.extend_from_slice(&seq.to_be_bytes());
    payload.extend_from_slice(data);
    Frame {
        kind: FrameType::DocChunk,
        id,
        payload,
    }
}

/// Bytes of an encoded `DocChunk` frame before its data: the header and
/// the sequence number.
pub(crate) const DOC_CHUNK_PREFIX: usize = HEADER_LEN + 4;

/// Starts encoding a `DocChunk` frame in place: clears `buf` and writes
/// the type byte and request id, leaving [`DOC_CHUNK_PREFIX`] bytes
/// whose payload length and sequence number [`seal_doc_chunk`] fills in
/// once the data has been appended. The sealed bytes are exactly what
/// [`write_frame`] puts on the wire for [`doc_chunk`].
pub(crate) fn begin_doc_chunk(buf: &mut Vec<u8>, id: u64) {
    buf.clear();
    buf.push(FrameType::DocChunk.to_byte());
    buf.extend_from_slice(&id.to_be_bytes());
    // Payload length and sequence number.
    buf.extend_from_slice(&[0; 8]);
}

/// Completes a frame begun with [`begin_doc_chunk`] whose data follows
/// the prefix in `buf`.
pub(crate) fn seal_doc_chunk(buf: &mut [u8], seq: u32) -> Result<(), WireError> {
    let len = u32::try_from(buf.len() - HEADER_LEN)
        .map_err(|_| WireError::Malformed("payload exceeds u32 length".to_owned()))?;
    buf[9..HEADER_LEN].copy_from_slice(&len.to_be_bytes());
    buf[HEADER_LEN..DOC_CHUNK_PREFIX].copy_from_slice(&seq.to_be_bytes());
    Ok(())
}

/// Decodes a `DocChunk` payload, returning `(sequence number, bytes)`.
pub fn decode_chunk(payload: &[u8]) -> Result<(u32, &[u8]), WireError> {
    if payload.len() < 4 {
        return Err(WireError::Malformed("chunk payload too short".to_owned()));
    }
    let seq = u32::from_be_bytes(payload[0..4].try_into().expect("4 seq bytes"));
    Ok((seq, &payload[4..]))
}

/// Builds the `DocChunkEnd` frame closing a chunked transfer: chunk
/// count, cumulative byte length, and the digest of those bytes (see
/// [`ChunkDigest`]).
pub fn doc_chunk_end(id: u64, count: u32, total: u64, digest: u64) -> Frame {
    let mut payload = Vec::with_capacity(4 + 8 + 8);
    payload.extend_from_slice(&count.to_be_bytes());
    payload.extend_from_slice(&total.to_be_bytes());
    payload.extend_from_slice(&digest.to_be_bytes());
    Frame {
        kind: FrameType::DocChunkEnd,
        id,
        payload,
    }
}

/// Decodes a `DocChunkEnd` payload, returning `(count, total, digest)`.
pub fn decode_chunk_end(payload: &[u8]) -> Result<(u32, u64, u64), WireError> {
    if payload.len() != 20 {
        return Err(WireError::Malformed(format!(
            "chunk-end payload must be 20 bytes, got {}",
            payload.len()
        )));
    }
    let count = u32::from_be_bytes(payload[0..4].try_into().expect("4 count bytes"));
    let total = u64::from_be_bytes(payload[4..12].try_into().expect("8 total bytes"));
    let digest = u64::from_be_bytes(payload[12..20].try_into().expect("8 digest bytes"));
    Ok((count, total, digest))
}

/// Decodes a `Request`/`Response` payload as the UTF-8 envelope it carries.
pub fn decode_envelope(payload: &[u8]) -> Result<String, WireError> {
    String::from_utf8(payload.to_vec())
        .map_err(|_| WireError::Malformed("envelope is not UTF-8".to_owned()))
}

/// Applies read/write timeouts to a raw TCP stream (`None` disables them)
/// and turns Nagle off: a test helper for hand-driven sockets. Production
/// streams get `TCP_NODELAY` where they are made, in
/// [`TcpTransport`](crate::transport::TcpTransport) and the poll engine's
/// accept loop.
pub fn set_stream_timeouts(
    stream: &std::net::TcpStream,
    read: Option<Duration>,
    write: Option<Duration>,
) -> std::io::Result<()> {
    stream.set_read_timeout(read)?;
    stream.set_write_timeout(write)?;
    stream.set_nodelay(true)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let frames = [
            hello("client-a"),
            welcome("server-b"),
            request(7, "<env/>"),
            response(7, "<env/>"),
            fault(9, &WireFault::new(FaultCode::Busy, "queue full").retryable()),
            stats_request(11),
            stats_response(11, "{\"counters\":{}}"),
        ];
        for f in &frames {
            let mut buf = Vec::new();
            write_frame(&mut buf, f).unwrap();
            let back = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(&back, f);
        }
    }

    #[test]
    fn handshake_payloads_decode() {
        let (v, name, _) = decode_hello_caps(&hello("np.example.org").payload).unwrap();
        assert_eq!(v, VERSION);
        assert_eq!(name, "np.example.org");
        let (v, name) = decode_welcome(&welcome("archive").payload).unwrap();
        assert_eq!(v, VERSION);
        assert_eq!(name, "archive");
        assert_eq!(decode_hello_caps(b"NOPE\x00\x01x"), Err(WireError::BadMagic));
        assert!(decode_hello_caps(b"AX").is_err());
    }

    #[test]
    fn capability_suffix_roundtrips_and_stays_backward_compatible() {
        // Caps advertised and recovered, name clean.
        let h = hello_with("np.example.org", CAP_CHUNKED);
        let (v, name, caps) = decode_hello_caps(&h.payload).unwrap();
        assert_eq!((v, name.as_str(), caps), (VERSION, "np.example.org", CAP_CHUNKED));
        let w = welcome_with("archive", CAP_CHUNKED);
        let (v, name, caps) = decode_welcome_caps(&w.payload).unwrap();
        assert_eq!((v, name.as_str(), caps), (VERSION, "archive", CAP_CHUNKED));
        // Legacy payloads (no suffix) decode with caps == 0, and a zero
        // mask produces byte-identical legacy payloads.
        assert_eq!(hello_with("a", 0).payload, hello("a").payload);
        let (_, _, caps) = decode_hello_caps(&hello("a").payload).unwrap();
        assert_eq!(caps, 0);
        // The caps-blind decoder still yields a clean name.
        let (_, name) = decode_welcome(&w.payload).unwrap();
        assert_eq!(name, "archive");
    }

    #[test]
    fn chunk_frames_roundtrip() {
        for f in [
            doc_chunk_start(5, "reuters.xml"),
            doc_chunk(5, 0, b"<doc>"),
            doc_chunk(5, 1, b"</doc>"),
            doc_chunk_end(5, 2, 11, 0xdead_beef_cafe_f00d),
        ] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &f).unwrap();
            let back = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(back, f);
        }
        assert_eq!(
            decode_chunk_start(&doc_chunk_start(1, "n").payload).unwrap(),
            "n"
        );
        let frame = doc_chunk(1, 7, b"abc");
        assert_eq!(decode_chunk(&frame.payload).unwrap(), (7, &b"abc"[..]));
        assert_eq!(
            decode_chunk_end(&doc_chunk_end(1, 3, 99, 42).payload).unwrap(),
            (3, 99, 42)
        );
        // Truncated End payloads are typed malformed errors.
        assert!(matches!(
            decode_chunk_end(&[0u8; 12]),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(decode_chunk(&[0u8; 2]), Err(WireError::Malformed(_))));
        assert!(matches!(
            decode_chunk_start(&[0, 5, b'x']),
            Err(WireError::Malformed(_))
        ));
        // The longest declarable name round-trips; one byte more is
        // refused before a frame exists.
        let longest = "n".repeat(MAX_DOC_NAME);
        assert_eq!(check_doc_name(&longest), Ok(()));
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc_chunk_start(6, &longest)).unwrap();
        let back = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(decode_chunk_start(&back.payload).unwrap(), longest);
        assert!(matches!(
            check_doc_name(&"n".repeat(MAX_DOC_NAME + 1)),
            Err(WireError::Malformed(m)) if m.contains("65536 bytes")
        ));
        // A chunk frame encoded in place is byte-identical to the built one.
        for data in [&b""[..], b"<doc>", &[b'x'; 300]] {
            let mut built = Vec::new();
            write_frame(&mut built, &doc_chunk(9, 3, data)).unwrap();
            let mut in_place = Vec::new();
            begin_doc_chunk(&mut in_place, 9);
            in_place.extend_from_slice(data);
            seal_doc_chunk(&mut in_place, 3).unwrap();
            assert_eq!(in_place, built);
        }
    }

    #[test]
    fn fault_payload_roundtrip() {
        let f = WireFault::new(FaultCode::Timeout, "peer stalled").retryable();
        let frame = fault(3, &f);
        assert_eq!(decode_fault(&frame.payload).unwrap(), f);
        assert!(decode_fault(&[0]).is_err());
        assert!(decode_fault(&[42, 0]).is_err());
    }

    #[test]
    fn oversized_frames_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &request(1, &"x".repeat(100))).unwrap();
        let err = read_frame(&mut buf.as_slice(), 10).unwrap_err();
        assert_eq!(err, WireError::TooLarge { len: 100, max: 10 });
    }

    #[test]
    fn truncated_streams_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &request(1, "hello")).unwrap();
        // Cut mid-payload: unexpected EOF, not a clean close.
        let cut = &buf[..buf.len() - 2];
        assert!(matches!(
            read_frame(&mut &cut[..], DEFAULT_MAX_FRAME),
            Err(WireError::Io(std::io::ErrorKind::UnexpectedEof, _))
        ));
        // Empty stream: clean close.
        assert_eq!(
            read_frame(&mut &[][..], DEFAULT_MAX_FRAME),
            Err(WireError::Closed)
        );
    }

    #[test]
    fn soap_code_mapping_roundtrips() {
        for code in [
            FaultCode::Client,
            FaultCode::Server,
            FaultCode::Busy,
            FaultCode::Timeout,
            FaultCode::TooLarge,
            FaultCode::BadFrame,
            FaultCode::Version,
            FaultCode::Shutdown,
        ] {
            assert_eq!(FaultCode::from_soap_code(code.as_soap_code()), code);
        }
        assert_eq!(
            FaultCode::from_soap_code("Client.Whatever"),
            FaultCode::Client
        );
        assert_eq!(FaultCode::from_soap_code("exotic"), FaultCode::Server);
    }

    #[test]
    fn unknown_frame_type_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &request(1, "x")).unwrap();
        buf[0] = 0x7f;
        assert_eq!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME),
            Err(WireError::UnknownFrameType(0x7f))
        );
    }
}
