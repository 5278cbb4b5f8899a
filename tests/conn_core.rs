//! Property test of the connection core (`axml::net::conn`), driven
//! directly with no sockets and no clock. Seeded sequences of read
//! outcomes reach a few connections of one endpoint: handshakes (good
//! and wrong-version), requests (well-formed and not UTF-8), scrapes,
//! chunk transfers with corrupted sequence numbers, counts, digests,
//! sizes and text, rogue frame kinds, idle and stalled timeouts, EOF,
//! decode errors, a server stop, and Busy and Shutdown refusals at the
//! queue door. After every step the reassembly gauge must equal what
//! the live connections hold, and a closed connection must hold none.
//! Then every queued job is answered, every connection torn down, and:
//!
//! * `server.requests_total = responses_ok_total + faults_total`, and
//!   it counts exactly the answers the connections gave: worker replies
//!   plus every fault frame after the handshake except a `Version`
//!   fault (a handshake answer, not a request's);
//! * `net.chunk.reassembly_bytes` is back to 0;
//! * a closed connection emits and accounts nothing more.
//!
//! Failing seeds replay from `regressions/conn_core.seeds`.

use axml::net::conn::{Action, Conn, Endpoint, Job, Refusal};
use axml::net::wire::{self, Frame, FrameType, WireError};
use axml::net::{FaultCode, WireFault};
use axml::obs::Registry;
use axml_support::hash::Fnv64;
use axml_support::prelude::*;
use axml_support::prop::run;
use axml_support::rng::{RngExt, SeedableRng, StdRng};

/// Cumulative cap on one chunked transfer: small, so transfers cross it.
const MAX_DOC: usize = 96;

/// The chunked transfer a connection's peer is in the middle of sending.
struct Transfer {
    id: u64,
    seq: u32,
    len: u64,
    digest: Fnv64,
}

/// One connection under test and its peer's side of the conversation.
struct Side {
    conn: Conn,
    handshaken: bool,
    closed: bool,
    transfer: Option<Transfer>,
}

/// Whether `frame`, written on a connection past its handshake, answers
/// a request.
fn answers_request(frame: &Frame) -> bool {
    frame.kind == FrameType::Fault
        && wire::decode_fault(&frame.payload)
            .expect("fault payload")
            .code
            != FaultCode::Version
}

/// The next chunk-family frame: a fresh Start, the open transfer's next
/// chunk, or its End — each sometimes corrupted.
fn chunk_frame(rng: &mut StdRng, transfer: &mut Option<Transfer>, id: u64) -> Frame {
    let Some(t) = transfer else {
        *transfer = Some(Transfer {
            id,
            seq: 0,
            len: 0,
            digest: Fnv64::new(),
        });
        return wire::doc_chunk_start(id, "doc.xml");
    };
    if rng.random_bool(0.25) {
        let t = transfer.take().expect("open transfer");
        let (mut count, mut total, mut digest) = (t.seq, t.len, t.digest.finish());
        match rng.random_range(0..8u32) {
            0 => count += 1,
            1 => total += 1,
            2 => digest ^= 1,
            _ => {}
        }
        return wire::doc_chunk_end(t.id, count, total, digest);
    }
    let mut piece: Vec<u8> = (0..rng.random_range(1..24usize))
        .map(|_| b'a' + rng.random_range(0..26u8))
        .collect();
    if rng.random_bool(0.1) {
        piece[0] = 0xff; // the reassembled document is not UTF-8
    }
    let seq = if rng.random_bool(0.05) {
        t.seq + 1
    } else {
        t.seq
    };
    t.seq += 1;
    t.len += piece.len() as u64;
    t.digest.update(&piece);
    wire::doc_chunk(t.id, seq, &piece)
}

/// Draws the next read outcome for one connection.
fn draw(rng: &mut StdRng, transfer: &mut Option<Transfer>, id: u64) -> Result<Frame, WireError> {
    match rng.random_range(0..100u32) {
        0..=9 => Ok(wire::hello("prop")),
        10 => {
            let mut hello = wire::hello("old");
            hello.payload[4..6].copy_from_slice(&99u16.to_be_bytes());
            Ok(hello)
        }
        11..=29 => Ok(wire::request(id, "<env/>")),
        30..=32 => Ok(Frame {
            kind: FrameType::Request,
            id,
            payload: vec![0xff, 0xfe],
        }),
        33..=37 => Ok(wire::stats_request(id)),
        38..=74 => Ok(chunk_frame(rng, transfer, id)),
        75..=78 => Ok(Frame {
            kind: *rng
                .choose(&[FrameType::Welcome, FrameType::Response, FrameType::Fault])
                .expect("non-empty"),
            id,
            payload: b"rogue".to_vec(),
        }),
        79..=84 => Err(WireError::Idle),
        85..=86 => Err(WireError::Stalled),
        87 => Err(WireError::Closed),
        88 => Err(WireError::Io(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame".to_owned(),
        )),
        89..=90 => Err(WireError::UnknownFrameType(0x7f)),
        91 => Err(WireError::TooLarge {
            len: 5000,
            max: 4096,
        }),
        _ => Ok(wire::request(id, "<env/>")),
    }
}

fn gauge(registry: &Registry) -> i64 {
    registry.snapshot().gauge("net.chunk.reassembly_bytes")
}

fn core_holds(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let registry = Registry::new();
    let ep = Endpoint::new("prop-peer", MAX_DOC, &registry);
    let mut sides: Vec<Side> = (0..rng.random_range(1..4usize))
        .map(|_| Side {
            conn: ep.accept(),
            handshaken: false,
            closed: false,
            transfer: None,
        })
        .collect();
    let mut jobs: Vec<Job> = Vec::new();
    let mut answered = 0u64;
    for id in 1..=rng.random_range(1..160u64) {
        if rng.random_bool(0.005) {
            ep.stop();
            continue;
        }
        let n = sides.len();
        let side = &mut sides[rng.random_range(0..n)];
        let before = side.closed.then(|| registry.snapshot().to_json());
        let mut action = if side.closed && rng.random_bool(0.3) {
            side.conn.refused(id, Refusal::Busy)
        } else {
            let read = draw(&mut rng, &mut side.transfer, id);
            side.conn.on_read(read)
        };
        if let Action::Queue(job) = action {
            action = match rng.random_range(0..10u32) {
                0..=2 => side.conn.refused(job.id, Refusal::Busy),
                3 => side.conn.refused(job.id, Refusal::Shutdown),
                _ => {
                    jobs.push(job);
                    Action::Continue
                }
            };
        }
        if let Some(before) = before {
            prop_assert_eq!(
                &action,
                &Action::Close(None),
                "a closed connection answered"
            );
            prop_assert!(
                registry.snapshot().to_json() == before,
                "a closed connection accounted"
            );
        }
        let frame = match &action {
            Action::Reply(frame) | Action::Close(Some(frame)) => Some(frame),
            _ => None,
        };
        if let Some(frame) = frame {
            if side.handshaken && answers_request(frame) {
                answered += 1;
            }
            side.handshaken |= frame.kind == FrameType::Welcome;
        }
        if let Action::Close(_) = action {
            side.closed = true;
            prop_assert_eq!(
                side.conn.reassembly_len(),
                0,
                "a closed connection holds bytes"
            );
        }
        let held: usize = sides.iter().map(|s| s.conn.reassembly_len()).sum();
        prop_assert_eq!(
            gauge(&registry),
            held as i64,
            "reassembly gauge out of sync"
        );
    }
    // Workers answer every queued job, then every connection goes away.
    for job in jobs {
        answered += 1;
        let outcome = if rng.random_bool(0.8) {
            Ok("<ok/>".to_owned())
        } else {
            Err(WireFault::new(FaultCode::Server, "handler failed"))
        };
        ep.reply(job.id, outcome);
    }
    drop(sides);
    let snap = registry.snapshot();
    prop_assert_eq!(
        snap.counter("server.requests_total"),
        snap.counter("server.responses_ok_total") + snap.counter("server.faults_total")
    );
    prop_assert_eq!(snap.counter("server.requests_total"), answered);
    prop_assert!(snap.counter("server.busy_total") <= snap.counter("server.faults_total"));
    prop_assert_eq!(gauge(&registry), 0, "reassembly bytes leaked");
    Ok(())
}

#[test]
fn conn_core() {
    run(
        "conn_core",
        &ProptestConfig::with_cases(500),
        0u64..u64::MAX,
        core_holds,
    );
}
