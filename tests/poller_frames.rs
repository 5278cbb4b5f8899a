//! Partial-read reassembly property tests for the poll engine's
//! incremental [`FrameDecoder`].
//!
//! The readiness loop receives frames in arbitrary fragments — a 13-byte
//! header can arrive one byte per `read`, a payload can straddle any
//! number of reads, and several pipelined frames can land in one. The
//! decoder's contract is *byte-for-byte parity with the blocking reader*:
//! for any byte stream and any split of it into feed chunks, the decoder
//! must produce exactly the frames `wire::read_frame` produces, in order,
//! and terminate with exactly the same typed [`WireError`] — including
//! corrupt prefixes (unknown type bytes, oversized length words) and
//! truncation mid-frame. Streams, corruptions and split boundaries are
//! all derived from seeds via the workspace PRNG, so every failure
//! reproduces from its seed.

use axml::net::wire::{self, ChunkDigest, Frame, FrameType};
use axml::net::{ChunkAssembler, ChunkProgress, FrameDecoder, WireError};
use axml_support::rng::{Rng, RngExt, SeedableRng, StdRng};

/// Ground truth: the blocking reader consuming the same bytes from an
/// in-memory cursor. Returns every decoded frame plus the terminal error
/// (`Closed` on a clean end-of-stream between frames).
fn blocking_reference(bytes: &[u8], max: usize) -> (Vec<Frame>, WireError) {
    let mut cursor = std::io::Cursor::new(bytes);
    let mut frames = Vec::new();
    loop {
        match wire::read_frame(&mut cursor, max) {
            Ok(frame) => frames.push(frame),
            Err(e) => return (frames, e),
        }
    }
}

/// Runs the incremental decoder over `bytes` split into `chunks`
/// (lengths summing to `bytes.len()`), then maps its end-of-stream state
/// onto the blocking reader's EOF taxonomy: buffered partial frame →
/// "connection closed mid-frame", empty buffer → `Closed`.
fn decoder_run(bytes: &[u8], max: usize, chunks: &[usize]) -> (Vec<Frame>, WireError) {
    assert_eq!(chunks.iter().sum::<usize>(), bytes.len());
    let mut decoder = FrameDecoder::new(max);
    let mut frames = Vec::new();
    let mut pos = 0usize;
    for &chunk in chunks {
        decoder.feed(&bytes[pos..pos + chunk]);
        pos += chunk;
        loop {
            match decoder.poll_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) => return (frames, e),
            }
        }
    }
    let eof = if decoder.mid_frame() {
        WireError::Io(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame".to_owned(),
        )
    } else {
        WireError::Closed
    };
    (frames, eof)
}

const MAX: usize = 4096;
const KINDS: [FrameType; 10] = [
    FrameType::Hello,
    FrameType::Welcome,
    FrameType::Request,
    FrameType::Response,
    FrameType::Fault,
    FrameType::StatsRequest,
    FrameType::StatsResponse,
    FrameType::DocChunkStart,
    FrameType::DocChunk,
    FrameType::DocChunkEnd,
];

fn random_payload(rng: &mut StdRng) -> Vec<u8> {
    let len = *rng
        .choose(&[0usize, 1, 2, 12, 13, 14, 64, 500, 1500, MAX])
        .unwrap();
    let mut payload = Vec::with_capacity(len);
    while payload.len() < len {
        payload.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    payload.truncate(len);
    payload
}

/// A seed-derived wire stream: a few well-formed frames, optionally
/// followed by one corruption (truncation, unknown type byte with a
/// random amount of trailing header, or an oversized length word).
fn random_stream(rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..rng.random_range(0..=5u32) {
        let frame = Frame {
            kind: *rng.choose(&KINDS).unwrap(),
            id: rng.next_u64(),
            payload: random_payload(rng),
        };
        wire::write_frame(&mut bytes, &frame).unwrap();
    }
    match rng.random_range(0..4u32) {
        0 => {} // clean stream
        1 => {
            // Truncate anywhere — possibly mid-header or mid-payload.
            let cut = rng.random_range(0..=bytes.len());
            bytes.truncate(cut);
        }
        2 => {
            // A corrupt prefix: an invalid type byte. How bad it looks
            // depends on how much of the 13-byte header follows — the
            // type byte may only be judged once the header is complete.
            bytes.push(if rng.random_bool(0.5) {
                0x00
            } else {
                rng.random_range(0x08..=0xffu8)
            });
            for _ in 0..rng.random_range(0..=20u32) {
                bytes.push(rng.next_u64() as u8);
            }
        }
        _ => {
            // A valid type byte announcing an over-cap payload: must be
            // rejected from the header alone, before any allocation.
            bytes.push(0x03);
            bytes.extend_from_slice(&rng.next_u64().to_be_bytes());
            let len = rng.random_range(MAX as u32 + 1..=u32::MAX);
            bytes.extend_from_slice(&len.to_be_bytes());
            for _ in 0..rng.random_range(0..=64u32) {
                bytes.push(rng.next_u64() as u8);
            }
        }
    }
    bytes
}

/// Seed-derived read boundaries: several splitting styles, from
/// byte-at-a-time up to one-shot.
fn random_chunks(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut left = len;
    match rng.random_range(0..4u32) {
        0 => chunks.extend(std::iter::repeat(1).take(len)),
        1 => {
            if len > 0 {
                chunks.push(len);
            }
        }
        style => {
            let cap = if style == 2 { 7usize } else { 64 };
            while left > 0 {
                let n = rng.random_range(1..=cap.min(left));
                chunks.push(n);
                left -= n;
            }
        }
    }
    chunks
}

#[test]
fn seeded_split_fuzz_matches_blocking_reader() {
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = random_stream(&mut rng);
        let chunks = random_chunks(&mut rng, bytes.len());
        let reference = blocking_reference(&bytes, MAX);
        let incremental = decoder_run(&bytes, MAX, &chunks);
        assert_eq!(incremental, reference, "seed {seed} diverged");
    }
}

#[test]
fn every_single_split_of_a_pipelined_stream_matches() {
    let mut bytes = Vec::new();
    wire::write_frame(&mut bytes, &wire::request(1, "<env>hello</env>")).unwrap();
    wire::write_frame(&mut bytes, &wire::response(2, "<env>world</env>")).unwrap();
    wire::write_frame(&mut bytes, &wire::stats_request(3)).unwrap();
    let reference = blocking_reference(&bytes, MAX);
    assert_eq!(reference.0.len(), 3);
    assert_eq!(reference.1, WireError::Closed);
    for cut in 0..=bytes.len() {
        let chunks: Vec<usize> = [cut, bytes.len() - cut]
            .into_iter()
            .filter(|&n| n > 0)
            .collect();
        assert_eq!(
            decoder_run(&bytes, MAX, &chunks),
            reference,
            "split at byte {cut} diverged"
        );
    }
}

#[test]
fn corrupt_prefix_yields_the_same_typed_fault_as_blocking() {
    // A garbage type byte is only judged once the full header arrived:
    // with a complete header both readers say UnknownFrameType...
    let full_header = [0xAAu8; 13];
    let reference = blocking_reference(&full_header, MAX);
    assert_eq!(reference.1, WireError::UnknownFrameType(0xAA));
    assert_eq!(
        decoder_run(&full_header, MAX, &[13]),
        reference,
        "complete corrupt header"
    );
    // ...while a lone garbage byte followed by silence is a truncation,
    // NOT an UnknownFrameType — the stall/EOF taxonomy wins.
    let partial = [0xAAu8; 5];
    let reference = blocking_reference(&partial, MAX);
    assert!(matches!(
        reference.1,
        WireError::Io(std::io::ErrorKind::UnexpectedEof, _)
    ));
    assert_eq!(
        decoder_run(&partial, MAX, &[1, 1, 1, 1, 1]),
        reference,
        "truncated corrupt header"
    );
    // An oversized length word is rejected from the header alone, with
    // the same {len, max} pair, even when fed a byte at a time.
    let mut oversized = vec![0x03];
    oversized.extend_from_slice(&7u64.to_be_bytes());
    oversized.extend_from_slice(&(MAX as u32 + 1).to_be_bytes());
    let reference = blocking_reference(&oversized, MAX);
    assert_eq!(
        reference.1,
        WireError::TooLarge {
            len: MAX + 1,
            max: MAX
        }
    );
    let ones = vec![1usize; oversized.len()];
    assert_eq!(decoder_run(&oversized, MAX, &ones), reference);
}

// ---------------------------------------------------------------------
// Chunk-transfer fuzz: the reassembly taxonomy must be identical no
// matter which reader fed the assembler its frames. Each test runs once
// per chunk digest: FNV-1a-64 for a peer that advertised chunking only,
// XXH64 for one that also advertised CAP_XXH64.
// ---------------------------------------------------------------------

/// The `Hello` caps that select each chunk digest.
const DIGEST_CAPS: [u8; 2] = [wire::CAP_CHUNKED, wire::CAPS];

/// A well-formed chunked transfer: Start, consecutive chunks, an End
/// declaring the true count/total and the digest `caps` selects.
fn transfer_frames(id: u64, name: &str, data: &[u8], chunk: usize, caps: u8) -> Vec<Frame> {
    let mut frames = vec![wire::doc_chunk_start(id, name)];
    let mut digest = ChunkDigest::for_caps(caps);
    let mut seq = 0u32;
    for piece in data.chunks(chunk.max(1)) {
        digest.update(piece);
        frames.push(wire::doc_chunk(id, seq, piece));
        seq += 1;
    }
    frames.push(wire::doc_chunk_end(id, seq, data.len() as u64, digest.finish()));
    frames
}

/// Drives one [`ChunkAssembler`] checking the digest `caps` selects over
/// the chunk-family frames of a decoded stream, collapsing each step to
/// a comparable string — the completed document's bytes are included so
/// payload corruption at a split boundary cannot hide behind an
/// equal-length transcript.
fn assembler_transcript(frames: &[Frame], max_doc: usize, caps: u8) -> Vec<String> {
    let mut asm = ChunkAssembler::new(max_doc);
    asm.set_digest(ChunkDigest::for_caps(caps));
    frames
        .iter()
        .filter(|f| {
            matches!(
                f.kind,
                FrameType::DocChunkStart | FrameType::DocChunk | FrameType::DocChunkEnd
            )
        })
        .map(|f| match asm.accept(f) {
            Ok(ChunkProgress::Pending) => "pending".to_owned(),
            Ok(ChunkProgress::Drained) => "drained".to_owned(),
            Ok(ChunkProgress::Complete { id, name, bytes }) => {
                format!("complete id={id} name={name} bytes={bytes:?}")
            }
            Err(e) => format!("err: {e}"),
        })
        .collect()
}

/// Seed-derived transfers — clean, reordered, digest-corrupted,
/// truncated-End, miscounted, or over-cap — interleaved with control
/// frames, serialized, split at random read boundaries, and decoded by
/// both readers. Frame parity and assembler-transcript parity must hold
/// for every seed; corrupted variants must end in a typed error.
#[test]
fn seeded_chunk_fuzz_taxonomy_matches_across_readers() {
    for (caps, seed) in DIGEST_CAPS
        .into_iter()
        .flat_map(|caps| (0..300u64).map(move |seed| (caps, seed)))
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let id = rng.random_range(1..1000u64);
        let len = rng.random_range(0..2000usize);
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            data.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        data.truncate(len);
        let chunk = rng.random_range(1..=600usize);
        let mut frames = transfer_frames(id, "fuzz.xml", &data, chunk, caps);
        // Interleave a control frame somewhere mid-transfer: the real
        // reader answers StatsRequest inline without touching the
        // assembler, so the transcript must be unaffected.
        let at = rng.random_range(0..=frames.len());
        frames.insert(at, wire::stats_request(id + 1));
        let max_doc = if rng.random_bool(0.15) {
            // A small cap forces the cumulative TooLarge path.
            rng.random_range(1..=len.max(2))
        } else {
            1 << 20
        };
        let corrupt = rng.random_range(0..5u32);
        let n = frames.len();
        let expect_error = match corrupt {
            1 if n >= 4 => {
                // Swap two interior frames: out-of-sequence chunks, or a
                // Start/End displaced into the middle of the transfer.
                let i = rng.random_range(1..n - 2);
                frames.swap(i, i + 1);
                !matches!(
                    (frames[i].kind, frames[i + 1].kind),
                    (FrameType::StatsRequest, _) | (_, FrameType::StatsRequest)
                )
            }
            2 => {
                // Corrupt the declared digest.
                let end = frames.iter_mut().find(|f| f.kind == FrameType::DocChunkEnd);
                let end = end.expect("transfer has an End");
                let last = end.payload.len() - 1;
                end.payload[last] ^= 0xFF;
                true
            }
            3 => {
                // Truncate the End payload below its fixed 20 bytes.
                let end = frames.iter_mut().find(|f| f.kind == FrameType::DocChunkEnd);
                end.expect("transfer has an End").payload.truncate(19);
                true
            }
            4 => {
                // Declare one chunk too many.
                let end = frames.iter_mut().find(|f| f.kind == FrameType::DocChunkEnd);
                let end = end.expect("transfer has an End");
                let count =
                    u32::from_be_bytes(end.payload[0..4].try_into().unwrap()).wrapping_add(1);
                end.payload[0..4].copy_from_slice(&count.to_be_bytes());
                true
            }
            _ => false,
        };
        let mut bytes = Vec::new();
        for frame in &frames {
            wire::write_frame(&mut bytes, frame).unwrap();
        }
        let (blocking_frames, blocking_end) = blocking_reference(&bytes, MAX);
        let chunks = random_chunks(&mut rng, bytes.len());
        let (decoded_frames, decoded_end) = decoder_run(&bytes, MAX, &chunks);
        let at = format!("caps {caps:#04x} seed {seed}");
        assert_eq!(decoded_frames, blocking_frames, "{at}: frames diverged");
        assert_eq!(decoded_end, blocking_end, "{at}: terminal state diverged");

        let reference = assembler_transcript(&blocking_frames, max_doc, caps);
        let incremental = assembler_transcript(&decoded_frames, max_doc, caps);
        assert_eq!(incremental, reference, "{at}: taxonomy diverged");
        let failed = reference.iter().any(|step| step.starts_with("err: "));
        let over_cap = len > max_doc;
        if expect_error || over_cap {
            assert!(
                failed,
                "{at}: corruption (corrupt={corrupt}, cap={max_doc}) went undetected"
            );
        } else {
            assert!(
                reference.iter().any(|s| s.starts_with("complete")),
                "{at}: clean transfer did not complete: {reference:?}"
            );
        }
    }
}

/// The three canonical corruptions pin their exact typed messages — the
/// strings both engines put on the wire, asserted byte-for-byte after a
/// byte-at-a-time decode. Each case pins its message under FNV-1a-64 and
/// under XXH64; the XXH64 digest pin names the 32-byte document's digest.
#[test]
fn chunk_corruption_messages_are_pinned() {
    let data = b"0123456789abcdef0123456789abcdef";
    type Corrupt = Box<dyn Fn(&mut Vec<Frame>)>;
    let cases: [(&str, Corrupt, [&str; 2]); 4] = [
        (
            "out of sequence",
            Box::new(|frames: &mut Vec<Frame>| frames.swap(1, 2)),
            ["chunk out of sequence: expected 0, got 1"; 2],
        ),
        (
            "bad digest",
            Box::new(|frames: &mut Vec<Frame>| {
                let last = frames.last_mut().unwrap();
                let n = last.payload.len() - 1;
                last.payload[n] ^= 0x01;
            }),
            [
                "chunk digest mismatch",
                "chunk digest mismatch: declared 0x642a94958e71e6c4, observed 0x642a94958e71e6c5",
            ],
        ),
        (
            "truncated end",
            Box::new(|frames: &mut Vec<Frame>| {
                frames.last_mut().unwrap().payload.truncate(12);
            }),
            ["chunk-end payload must be 20 bytes, got 12"; 2],
        ),
        (
            "wrong count",
            Box::new(|frames: &mut Vec<Frame>| {
                let last = frames.last_mut().unwrap();
                last.payload[0..4].copy_from_slice(&9u32.to_be_bytes());
            }),
            ["chunk-end declares 9 chunks, received 4"; 2],
        ),
    ];
    for (label, corrupt, pins) in cases {
        for (caps, expected) in DIGEST_CAPS.into_iter().zip(pins) {
            let mut frames = transfer_frames(7, "pin.xml", data, 8, caps);
            corrupt(&mut frames);
            let mut bytes = Vec::new();
            for frame in &frames {
                wire::write_frame(&mut bytes, frame).unwrap();
            }
            let ones = vec![1usize; bytes.len()];
            let (decoded, _) = decoder_run(&bytes, MAX, &ones);
            let transcript = assembler_transcript(&decoded, 1 << 20, caps);
            let err = transcript
                .iter()
                .find(|s| s.starts_with("err: "))
                .unwrap_or_else(|| panic!("{label}: no error in {transcript:?}"));
            assert!(err.contains(expected), "{label} (caps {caps:#04x}): {err}");
            // And the blocking path reports the identical message.
            let (blocking, _) = blocking_reference(&bytes, MAX);
            assert_eq!(
                assembler_transcript(&blocking, 1 << 20, caps),
                transcript,
                "{label} (caps {caps:#04x})"
            );
        }
    }
}

#[test]
fn decoder_errors_are_sticky() {
    let mut decoder = FrameDecoder::new(MAX);
    decoder.feed(&[0xAA; 13]);
    assert_eq!(
        decoder.poll_frame(),
        Err(WireError::UnknownFrameType(0xAA))
    );
    // Feeding perfectly valid frames afterwards must not resurrect the
    // connection: the engine will close it, and until then the decoder
    // keeps reporting the original fault.
    let mut valid = Vec::new();
    wire::write_frame(&mut valid, &wire::request(9, "<env/>")).unwrap();
    decoder.feed(&valid);
    assert_eq!(
        decoder.poll_frame(),
        Err(WireError::UnknownFrameType(0xAA))
    );
}

#[test]
fn decoder_releases_oversized_buffers_between_frames() {
    let mut decoder = FrameDecoder::new(4 << 20);
    let big = Frame {
        kind: FrameType::Response,
        id: 1,
        payload: vec![0x42; 1 << 20],
    };
    let mut bytes = Vec::new();
    wire::write_frame(&mut bytes, &big).unwrap();
    decoder.feed(&bytes);
    assert_eq!(decoder.poll_frame().unwrap().unwrap(), big);
    assert_eq!(decoder.poll_frame().unwrap(), None);
    assert_eq!(decoder.buffered_len(), 0);
    // A megabyte-sized scratch buffer must not stay pinned per idle
    // connection — that is the difference between 10k connections at
    // ~KBs each and 10k connections at ~MBs each.
    assert!(
        decoder.capacity() <= 64 * 1024,
        "idle decoder pins {} bytes",
        decoder.capacity()
    );
}
