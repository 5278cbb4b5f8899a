//! Incremental frame reassembly for the non-blocking poll engine.
//!
//! [`read_frame`](crate::wire::read_frame) owns a blocking stream and can
//! simply loop until a frame is complete. The readiness loop cannot: a
//! socket hands it arbitrary byte slivers — half a header now, three
//! frames and a fragment later — and the loop must bank them and move on.
//! [`FrameDecoder`] is that bank: feed it whatever `read` returned, then
//! drain complete frames.
//!
//! The decoder is **error-equivalent** to `read_frame` by construction
//! (property-tested in `tests/poller_frames.rs` across arbitrary split
//! points):
//!
//! * the type byte is judged only once the *full* 13-byte header has
//!   arrived — a lone garbage byte followed by silence is a stall, not an
//!   `UnknownFrameType`, exactly as with the blocking reader;
//! * an oversized length is rejected (`TooLarge {len, max}`) before one
//!   byte of payload is buffered or allocated;
//! * errors are sticky — after a protocol error the connection is dead
//!   and further feeding keeps returning the same error.
//!
//! Memory stays bounded per connection: the buffer never holds more than
//! one maximum-size frame plus one read's worth of spillover, consumed
//! prefixes are compacted, and an idle decoder releases any oversized
//! scratch back to the allocator.

use crate::wire::{self, Frame, FrameType, WireError, HEADER_LEN};
use axml_support::hash::Fnv64;

/// Buffer capacity above which an *empty* decoder gives memory back.
/// Idle connections (the 10k-scale case) should cost tens of bytes, not
/// the high-water mark of their largest historic frame.
const SHRINK_THRESHOLD: usize = 16 * 1024;

/// An incremental, non-blocking decoder of the 13-byte-header wire frames.
///
/// One per connection. Feed raw socket bytes with [`FrameDecoder::feed`],
/// then call [`FrameDecoder::poll_frame`] until it yields `Ok(None)`.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily).
    pos: usize,
    max_payload: usize,
    /// A protocol error, once hit, is permanent for the connection.
    dead: Option<WireError>,
}

impl FrameDecoder {
    /// A decoder enforcing `max_payload` exactly like `read_frame`.
    pub fn new(max_payload: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_payload,
            dead: None,
        }
    }

    /// Banks bytes read off the socket. Cheap; parsing happens in
    /// [`FrameDecoder::poll_frame`].
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.dead.is_some() {
            return;
        }
        // Compact before growing, not after draining: one memmove per
        // read instead of one per frame.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Yields the next complete frame, `Ok(None)` if more bytes are
    /// needed, or the connection-killing protocol error.
    pub fn poll_frame(&mut self) -> Result<Option<Frame>, WireError> {
        if let Some(err) = &self.dead {
            return Err(err.clone());
        }
        let pending = &self.buf[self.pos..];
        if pending.len() < HEADER_LEN {
            self.maybe_shrink();
            return Ok(None);
        }
        let kind = match FrameType::from_byte(pending[0]) {
            Ok(kind) => kind,
            Err(err) => return Err(self.kill(err)),
        };
        let id = u64::from_be_bytes(pending[1..9].try_into().expect("8 header bytes"));
        let len = u32::from_be_bytes(pending[9..13].try_into().expect("4 header bytes")) as usize;
        if len > self.max_payload {
            return Err(self.kill(WireError::TooLarge {
                len,
                max: self.max_payload,
            }));
        }
        if pending.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload = pending[HEADER_LEN..HEADER_LEN + len].to_vec();
        self.pos += HEADER_LEN + len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            self.maybe_shrink();
        }
        Ok(Some(Frame { kind, id, payload }))
    }

    /// Whether bytes of an incomplete frame are pending — the line
    /// between a benign [`WireError::Idle`] and a [`WireError::Stalled`]
    /// peer when a read deadline passes.
    pub fn mid_frame(&self) -> bool {
        self.dead.is_none() && self.pos < self.buf.len()
    }

    /// What a read deadline passing now means: [`WireError::Stalled`]
    /// inside a frame, [`WireError::Idle`] between frames.
    pub fn timeout(&self) -> WireError {
        if self.mid_frame() {
            WireError::Stalled
        } else {
            WireError::Idle
        }
    }

    /// What an end of stream now means, as the blocking reader reports
    /// it: [`WireError::Closed`] between frames, an unexpected-EOF error
    /// inside one.
    pub fn eof(&self) -> WireError {
        if self.mid_frame() {
            wire::eof_mid_frame()
        } else {
            WireError::Closed
        }
    }

    /// Bytes currently buffered (unconsumed); feeds the poll engine's
    /// `server.poll.buffer_bytes` gauge.
    pub fn buffered_len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The scratch buffer's current allocation in bytes. Bounded while a
    /// connection idles (see `maybe_shrink`), so 10k parked connections
    /// cost kilobytes each, not the size of their largest past frame.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    fn kill(&mut self, err: WireError) -> WireError {
        self.dead = Some(err.clone());
        self.buf = Vec::new();
        self.pos = 0;
        err
    }

    fn maybe_shrink(&mut self) {
        if self.buf.is_empty() && self.buf.capacity() > SHRINK_THRESHOLD {
            self.buf = Vec::new();
        }
    }
}

/// One in-flight chunked document transfer.
struct Transfer {
    id: u64,
    name: String,
    next_seq: u32,
    buf: Vec<u8>,
    digest: Fnv64,
}

/// What [`ChunkAssembler::accept`] did with a chunk frame.
#[derive(Debug, PartialEq, Eq)]
pub enum ChunkProgress {
    /// The frame advanced an in-flight transfer; more frames expected.
    Pending,
    /// A `DocChunkEnd` verified: the transfer is complete.
    Complete {
        /// Request id carried by every frame of the transfer.
        id: u64,
        /// Document name announced in `DocChunkStart`.
        name: String,
        /// The reassembled, digest-verified document bytes.
        bytes: Vec<u8>,
    },
    /// The frame belonged to a transfer that already faulted and is being
    /// drained; it was discarded without effect.
    Drained,
}

/// Reassembles `DocChunkStart`/`DocChunk`/`DocChunkEnd` sequences into
/// whole documents; the connection core ([`crate::conn`]) runs one per
/// connection for every engine and the simulator.
///
/// Rules enforced (each violation is a connection-visible typed error):
///
/// * one transfer in flight per connection — a second `DocChunkStart`
///   mid-transfer is [`WireError::Malformed`];
/// * chunks carry consecutive sequence numbers from 0 and the transfer's
///   request id throughout;
/// * the *cumulative* reassembled size is capped — the resulting
///   [`WireError::TooLarge`] reports the running total, not the size of
///   the frame that crossed the line;
/// * `DocChunkEnd` must match the observed chunk count, total byte
///   length, and running FNV-64 digest.
///
/// After an error the failed transfer's buffer is released immediately
/// and the assembler enters a **drain** state for that request id:
/// already-pipelined chunks of the dead transfer are discarded
/// ([`ChunkProgress::Drained`]) until its `DocChunkEnd` passes, after
/// which the connection can host a fresh transfer — this is what makes a
/// client retry on the same pooled connection clean.
pub struct ChunkAssembler {
    max_total: usize,
    transfer: Option<Transfer>,
    drain_id: Option<u64>,
}

impl ChunkAssembler {
    /// An assembler capping cumulative transfer size at `max_total`.
    pub fn new(max_total: usize) -> Self {
        ChunkAssembler {
            max_total,
            transfer: None,
            drain_id: None,
        }
    }

    /// Whether a transfer is in flight — the line between a benign idle
    /// connection and a peer stalled *between* chunk frames, mirroring
    /// [`FrameDecoder::mid_frame`] for stalls inside one frame.
    pub fn active(&self) -> bool {
        self.transfer.is_some()
    }

    /// Bytes currently buffered for reassembly; feeds the
    /// `net.chunk.reassembly_bytes` gauge and the poll engine's
    /// per-connection buffer accounting.
    pub fn buffered_len(&self) -> usize {
        self.transfer.as_ref().map_or(0, |t| t.buf.len())
    }

    /// Releases any partial transfer without entering the drain state —
    /// the connection-teardown path (sticky decoder error, sweep).
    pub fn abort(&mut self) {
        self.transfer = None;
        self.drain_id = None;
    }

    /// Feeds one chunk-family frame. `Err` means the transfer (not the
    /// connection framing) failed: the caller should fault the frame's
    /// request id and keep reading — the assembler drains the remains of
    /// the dead transfer by itself.
    pub fn accept(&mut self, frame: &Frame) -> Result<ChunkProgress, WireError> {
        if self.drain_id == Some(frame.id) {
            // A fresh Start is a retry of the faulted transfer (client
            // retries reuse their request id) — never drain it.
            if frame.kind == FrameType::DocChunkStart {
                self.drain_id = None;
            } else {
                if frame.kind == FrameType::DocChunkEnd {
                    self.drain_id = None;
                }
                return Ok(ChunkProgress::Drained);
            }
        }
        match frame.kind {
            FrameType::DocChunkStart => {
                if let Some(t) = &self.transfer {
                    let prev = t.id;
                    return Err(self.fail(
                        frame.id,
                        WireError::Malformed(format!(
                            "chunk-start for request {} while transfer {prev} is in flight",
                            frame.id
                        )),
                    ));
                }
                let name = match wire::decode_chunk_start(&frame.payload) {
                    Ok(name) => name,
                    Err(e) => return Err(self.fail(frame.id, e)),
                };
                self.transfer = Some(Transfer {
                    id: frame.id,
                    name,
                    next_seq: 0,
                    buf: Vec::new(),
                    digest: Fnv64::new(),
                });
                Ok(ChunkProgress::Pending)
            }
            FrameType::DocChunk => {
                let Some(t) = self.transfer.as_mut() else {
                    return Err(self.fail(
                        frame.id,
                        WireError::Malformed("chunk frame outside a transfer".to_owned()),
                    ));
                };
                if t.id != frame.id {
                    let active = t.id;
                    return Err(self.fail(
                        frame.id,
                        WireError::Malformed(format!(
                            "chunk for request {} inside transfer {active}",
                            frame.id
                        )),
                    ));
                }
                let (seq, data) = match wire::decode_chunk(&frame.payload) {
                    Ok(parts) => parts,
                    Err(e) => return Err(self.fail(frame.id, e)),
                };
                if seq != t.next_seq {
                    let expected = t.next_seq;
                    return Err(self.fail(
                        frame.id,
                        WireError::Malformed(format!(
                            "chunk out of sequence: expected {expected}, got {seq}"
                        )),
                    ));
                }
                // Cumulative cap: report the running total, not this
                // frame's length — a 1 KiB chunk can be the one that
                // pushes a transfer over a 64 MiB cap.
                let total = t.buf.len() + data.len();
                if total > self.max_total {
                    let max = self.max_total;
                    return Err(self.fail(frame.id, WireError::TooLarge { len: total, max }));
                }
                t.next_seq += 1;
                t.digest.update(data);
                t.buf.extend_from_slice(data);
                Ok(ChunkProgress::Pending)
            }
            FrameType::DocChunkEnd => {
                let Some(t) = self.transfer.as_ref() else {
                    return Err(self.fail(
                        frame.id,
                        WireError::Malformed("chunk-end outside a transfer".to_owned()),
                    ));
                };
                if t.id != frame.id {
                    let active = t.id;
                    return Err(self.fail(
                        frame.id,
                        WireError::Malformed(format!(
                            "chunk-end for request {} inside transfer {active}",
                            frame.id
                        )),
                    ));
                }
                let (count, total, digest) = match wire::decode_chunk_end(&frame.payload) {
                    Ok(parts) => parts,
                    Err(e) => return Err(self.fail(frame.id, e)),
                };
                let t = self.transfer.take().expect("checked transfer");
                if count != t.next_seq {
                    let got = t.next_seq;
                    return Err(self.fail(
                        frame.id,
                        WireError::Malformed(format!(
                            "chunk-end declares {count} chunks, received {got}"
                        )),
                    ));
                }
                if total != t.buf.len() as u64 {
                    let got = t.buf.len();
                    return Err(self.fail(
                        frame.id,
                        WireError::Malformed(format!(
                            "chunk-end declares {total} bytes, received {got}"
                        )),
                    ));
                }
                let observed = t.digest.finish();
                if digest != observed {
                    return Err(self.fail(
                        frame.id,
                        WireError::Malformed(format!(
                            "chunk digest mismatch: declared {digest:#018x}, observed {observed:#018x}"
                        )),
                    ));
                }
                Ok(ChunkProgress::Complete {
                    id: t.id,
                    name: t.name,
                    bytes: t.buf,
                })
            }
            _ => Err(self.fail(
                frame.id,
                WireError::Malformed(format!(
                    "frame {:?} is not part of the chunk family",
                    frame.kind
                )),
            )),
        }
    }

    /// Drops the partial transfer, releasing its buffer to the allocator
    /// at once (not on the next accept), and arms draining for `id`.
    fn fail(&mut self, id: u64, err: WireError) -> WireError {
        self.transfer = None;
        self.drain_id = Some(id);
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, DEFAULT_MAX_FRAME};

    fn encode(frame: &Frame) -> Vec<u8> {
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, frame).unwrap();
        buf
    }

    #[test]
    fn whole_frame_in_one_feed() {
        let frame = wire::request(42, "<env>hello</env>");
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.feed(&encode(&frame));
        assert_eq!(dec.poll_frame().unwrap(), Some(frame));
        assert_eq!(dec.poll_frame().unwrap(), None);
        assert!(!dec.mid_frame());
        assert_eq!(dec.buffered_len(), 0);
    }

    #[test]
    fn one_byte_dribble() {
        let frame = wire::response(7, "<env>drip</env>");
        let bytes = encode(&frame);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        for (i, b) in bytes.iter().enumerate() {
            assert_eq!(dec.poll_frame().unwrap(), None, "early frame at byte {i}");
            // Any banked byte short of a full frame counts as mid-frame.
            assert_eq!(dec.mid_frame(), i > 0);
            dec.feed(&[*b]);
        }
        assert_eq!(dec.poll_frame().unwrap(), Some(frame));
        assert!(!dec.mid_frame());
    }

    #[test]
    fn many_frames_one_feed() {
        let frames = [
            wire::hello("alice"),
            wire::request(1, "<a/>"),
            wire::request(2, "<b/>"),
            wire::stats_request(3),
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&encode(f));
        }
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.feed(&bytes);
        for f in &frames {
            assert_eq!(dec.poll_frame().unwrap().as_ref(), Some(f));
        }
        assert_eq!(dec.poll_frame().unwrap(), None);
    }

    #[test]
    fn unknown_type_only_after_full_header() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.feed(&[0x7f]);
        // Blocking-reader parity: a bad first byte alone is not yet an
        // error — the header hasn't arrived.
        assert_eq!(dec.poll_frame().unwrap(), None);
        assert!(dec.mid_frame());
        dec.feed(&[0u8; HEADER_LEN - 1]);
        assert_eq!(dec.poll_frame(), Err(WireError::UnknownFrameType(0x7f)));
        // Sticky.
        dec.feed(&encode(&wire::request(1, "x")));
        assert_eq!(dec.poll_frame(), Err(WireError::UnknownFrameType(0x7f)));
    }

    #[test]
    fn too_large_rejected_at_header() {
        let frame = wire::request(1, &"y".repeat(100));
        let bytes = encode(&frame);
        let mut dec = FrameDecoder::new(10);
        // Header only — the payload never needs to arrive to be refused.
        dec.feed(&bytes[..HEADER_LEN]);
        assert_eq!(
            dec.poll_frame(),
            Err(WireError::TooLarge { len: 100, max: 10 })
        );
    }

    fn chunk_frames_for(id: u64, name: &str, data: &[u8], chunk: usize) -> Vec<Frame> {
        let mut frames = vec![wire::doc_chunk_start(id, name)];
        let mut digest = Fnv64::new();
        let mut seq = 0u32;
        for piece in data.chunks(chunk.max(1)) {
            digest.update(piece);
            frames.push(wire::doc_chunk(id, seq, piece));
            seq += 1;
        }
        frames.push(wire::doc_chunk_end(id, seq, data.len() as u64, digest.finish()));
        frames
    }

    #[test]
    fn assembler_roundtrips_and_verifies_digest() {
        let data = b"<doc>intensional</doc>".to_vec();
        for chunk in [1usize, 3, 7, 64] {
            let mut asm = ChunkAssembler::new(1024);
            let frames = chunk_frames_for(9, "fig1.xml", &data, chunk);
            let last = frames.len() - 1;
            for (i, f) in frames.iter().enumerate() {
                let progress = asm.accept(f).unwrap();
                if i < last {
                    assert_eq!(progress, ChunkProgress::Pending);
                    assert!(asm.active() || i == last);
                } else {
                    assert_eq!(
                        progress,
                        ChunkProgress::Complete {
                            id: 9,
                            name: "fig1.xml".to_owned(),
                            bytes: data.clone(),
                        }
                    );
                }
            }
            assert!(!asm.active());
            assert_eq!(asm.buffered_len(), 0);
        }
    }

    #[test]
    fn assembler_rejects_out_of_sequence_and_drains_the_rest() {
        let mut asm = ChunkAssembler::new(1024);
        asm.accept(&wire::doc_chunk_start(4, "d")).unwrap();
        asm.accept(&wire::doc_chunk(4, 0, b"aa")).unwrap();
        let err = asm.accept(&wire::doc_chunk(4, 2, b"bb")).unwrap_err();
        assert!(matches!(err, WireError::Malformed(ref m) if m.contains("out of sequence")));
        // Buffer released immediately, pipelined remains are drained.
        assert_eq!(asm.buffered_len(), 0);
        assert!(!asm.active());
        assert_eq!(
            asm.accept(&wire::doc_chunk(4, 3, b"cc")).unwrap(),
            ChunkProgress::Drained
        );
        assert_eq!(
            asm.accept(&wire::doc_chunk_end(4, 4, 8, 0)).unwrap(),
            ChunkProgress::Drained
        );
        // After the drained End, the same id can retry cleanly.
        for f in chunk_frames_for(4, "d", b"aabb", 2) {
            asm.accept(&f).unwrap();
        }
    }

    #[test]
    fn assembler_retry_start_clears_drain_state() {
        let mut asm = ChunkAssembler::new(1024);
        asm.accept(&wire::doc_chunk_start(4, "d")).unwrap();
        let _ = asm.accept(&wire::doc_chunk(4, 5, b"x")).unwrap_err();
        // Retry with the *same* request id, Start first: must not be
        // swallowed by the drain state.
        let frames = chunk_frames_for(4, "d", b"payload", 3);
        let last = frames.len() - 1;
        for (i, f) in frames.iter().enumerate() {
            let p = asm.accept(f).unwrap();
            if i == last {
                assert!(matches!(p, ChunkProgress::Complete { .. }));
            }
        }
    }

    #[test]
    fn assembler_too_large_reports_cumulative_length() {
        let mut asm = ChunkAssembler::new(10);
        asm.accept(&wire::doc_chunk_start(1, "d")).unwrap();
        asm.accept(&wire::doc_chunk(1, 0, b"123456")).unwrap();
        let err = asm.accept(&wire::doc_chunk(1, 1, b"78901")).unwrap_err();
        // 6 + 5 = 11 cumulative bytes against a 10-byte cap — not the
        // 5-byte frame that crossed the line.
        assert_eq!(err, WireError::TooLarge { len: 11, max: 10 });
        assert_eq!(asm.buffered_len(), 0);
    }

    #[test]
    fn assembler_rejects_bad_digest_count_and_total() {
        let data = b"abcdef";
        let digest = {
            let mut d = Fnv64::new();
            d.update(data);
            d.finish()
        };
        let cases: [(Frame, &str); 3] = [
            (wire::doc_chunk_end(2, 3, 6, digest), "chunks"),
            (wire::doc_chunk_end(2, 2, 7, digest), "bytes"),
            (wire::doc_chunk_end(2, 2, 6, digest ^ 1), "digest"),
        ];
        for (end, what) in cases {
            let mut asm = ChunkAssembler::new(1024);
            asm.accept(&wire::doc_chunk_start(2, "d")).unwrap();
            asm.accept(&wire::doc_chunk(2, 0, &data[..3])).unwrap();
            asm.accept(&wire::doc_chunk(2, 1, &data[3..])).unwrap();
            let err = asm.accept(&end).unwrap_err();
            assert!(
                matches!(err, WireError::Malformed(_)),
                "{what}: wrong taxonomy {err:?}"
            );
            assert_eq!(asm.buffered_len(), 0, "{what}: buffer retained");
        }
    }

    #[test]
    fn assembler_rejects_orphan_and_nested_frames() {
        let mut asm = ChunkAssembler::new(1024);
        assert!(matches!(
            asm.accept(&wire::doc_chunk(3, 0, b"x")).unwrap_err(),
            WireError::Malformed(_)
        ));
        let mut asm = ChunkAssembler::new(1024);
        asm.accept(&wire::doc_chunk_start(3, "a")).unwrap();
        assert!(matches!(
            asm.accept(&wire::doc_chunk_start(4, "b")).unwrap_err(),
            WireError::Malformed(_)
        ));
        // Abort releases everything without arming the drain state.
        let mut asm = ChunkAssembler::new(1024);
        asm.accept(&wire::doc_chunk_start(5, "c")).unwrap();
        asm.accept(&wire::doc_chunk(5, 0, b"zz")).unwrap();
        asm.abort();
        assert_eq!(asm.buffered_len(), 0);
        assert!(!asm.active());
    }

    #[test]
    fn idle_decoder_releases_large_buffers() {
        let frame = wire::request(1, &"z".repeat(64 * 1024));
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.feed(&encode(&frame));
        assert!(dec.poll_frame().unwrap().is_some());
        assert_eq!(dec.poll_frame().unwrap(), None);
        assert!(
            dec.buf.capacity() <= SHRINK_THRESHOLD,
            "idle decoder retained {} bytes",
            dec.buf.capacity()
        );
    }
}
