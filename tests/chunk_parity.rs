//! Chunked wire shipping is observationally identical to single-frame
//! shipping — byte for byte, for every document, chunk size, strategy,
//! and engine.
//!
//! The chunk protocol (DESIGN.md §14) promises that splitting an
//! enforced document into `DocChunkStart`/`DocChunk`/`DocChunkEnd`
//! frames is *pure transport*: the receiver's handler sees exactly the
//! bytes the in-memory streaming enforcer produces, no matter how the
//! chunk boundaries fall. This suite drives the promise:
//!
//! * a property sweeping random intensional newspapers through both
//!   strategies and both network engines at random chunk sizes from one
//!   byte up to past the document length, checking the received bytes
//!   against an in-memory `enforce_stream` run of the same input;
//! * a peer-level matrix case checking `send_document_chunked` stores
//!   the identical document `send_document` (single Request frame)
//!   stores, on both engines;
//! * an ignored spot run shipping a document ≥4× the frame cap through
//!   both engines with sender- and receiver-side buffer accounting — the
//!   bounded-memory witness behind the B15 bench;
//! * an ignored stall witness timing hundreds of 1 MiB transfers on both
//!   engines: none may wait on the receiver's delayed ACK.
//!
//! Failing seeds replay from `regressions/chunk_parity.seeds`.

use axml::core::invoke::{Invoker, ScriptedInvoker};
use axml::core::rewrite::Strategy as RwStrategy;
use axml::core::stream::{enforce_stream, enforce_stream_to, StreamOptions};
use axml::net::wire::{self, WireFault};
use axml::net::{ClientConfig, Handler, IoMode, NetClient, NetServer, ServerConfig};
use axml::peer::{Peer, Query, RemotePeer};
use axml::schema::{Compiled, ITree, NoOracle, Schema};
use axml::services::{Registry, ServiceDef};
use axml_support::prelude::*;
use std::sync::{Arc, Mutex};

const IO_MODES: [IoMode; 2] = [IoMode::Threads, IoMode::Poll];

fn compiled(root_model: &str) -> Compiled {
    Compiled::new(
        Schema::builder()
            .element("newspaper", root_model)
            .data_element("title")
            .data_element("date")
            .data_element("temp")
            .data_element("city")
            .element("exhibit", "title.(Get_Date|date)")
            .data_element("performance")
            .function("Get_Temp", "city", "temp")
            .function("TimeOut", "data", "(exhibit|performance)*")
            .function("Get_Date", "title", "date")
            .build()
            .unwrap(),
        &NoOracle,
    )
    .unwrap()
}

/// The paper's (*) and (***) exchange schemas: one keeps calls in place,
/// one forces everything to materialize — the two extremes of how much
/// the enforcement rewrites while the bytes stream into the chunk sink.
const MODELS: [&str; 2] = [
    "title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
    "title.date.temp.(exhibit|performance)*",
];

fn scripted() -> ScriptedInvoker {
    ScriptedInvoker::new()
        .answer("Get_Temp", vec![ITree::data("temp", "15 C")])
        .answer(
            "TimeOut",
            vec![ITree::elem(
                "exhibit",
                vec![ITree::data("title", "Monet"), ITree::data("date", "Mon")],
            )],
        )
        .answer("Get_Date", vec![ITree::data("date", "04/10/2002")])
}

fn text_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("The Daily Moon".to_owned()),
        Just("a & b".to_owned()),
        Just("x<y>z".to_owned()),
        Just("04/10/2002".to_owned()),
        "[a-z]{1,12}".prop_map(|s| s),
    ]
}

fn exhibit_strategy() -> impl Strategy<Value = ITree> {
    (text_strategy(), (0u32..2).prop_map(|b| b == 1)).prop_map(|(t, lazy)| {
        let date = if lazy {
            ITree::func("Get_Date", vec![ITree::data("title", &t)])
        } else {
            ITree::data("date", "Mon")
        };
        ITree::elem("exhibit", vec![ITree::data("title", &t), date])
    })
}

/// Valid-leaning random newspapers — the property ships documents, so
/// most cases must survive enforcement (unenforceable ones are skipped;
/// error parity is `stream_parity`'s job).
fn newspaper_strategy() -> impl Strategy<Value = ITree> {
    let temp = prop_oneof![
        Just(ITree::data("temp", "15 C")),
        Just(ITree::func("Get_Temp", vec![ITree::data("city", "Paris")])),
    ];
    let tail = prop_oneof![
        Just(Vec::new()),
        Just(vec![ITree::func("TimeOut", vec![ITree::text("exhibits")])]),
        prop::collection::vec(exhibit_strategy(), 1..4),
    ];
    (text_strategy(), temp, tail).prop_map(|(title, temp, tail)| {
        let mut children = vec![
            ITree::data("title", &title),
            ITree::data("date", "04/10/2002"),
            temp,
        ];
        children.extend(tail);
        ITree::elem("newspaper", children)
    })
}

/// Records every chunk-shipped document the daemon receives.
struct RecordingStore {
    docs: Mutex<Vec<(String, String)>>,
}

impl Handler for RecordingStore {
    fn handle(&self, _id: u64, _envelope: &str) -> Result<String, WireFault> {
        Ok("<ok/>".to_owned())
    }

    fn handle_document(&self, _id: u64, name: &str, text: &str) -> Result<String, WireFault> {
        self.docs
            .lock()
            .unwrap()
            .push((name.to_owned(), text.to_owned()));
        Ok(format!("<stored bytes=\"{}\"/>", text.len()))
    }
}

fn serve_store(io: IoMode, config: ServerConfig) -> (NetServer, Arc<RecordingStore>, NetClient) {
    let store = Arc::new(RecordingStore {
        docs: Mutex::new(Vec::new()),
    });
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<dyn Handler>,
        ServerConfig { io, ..config },
    )
    .unwrap();
    let client = NetClient::new(server.local_addr(), ClientConfig::default()).unwrap();
    (server, store, client)
}

/// The core parity check: enforce `input` in memory, then enforce the
/// same input *into the wire* at the given chunk size, and require the
/// daemon's handler to have received the identical bytes.
fn assert_wire_parity(
    compiled: &Compiled,
    input: &str,
    strategy: RwStrategy,
    chunk_bytes: usize,
    io: IoMode,
) {
    let opts = StreamOptions {
        strategy,
        ..StreamOptions::default()
    };
    let expected = enforce_stream(compiled, input, &opts, &mut || {
        Box::new(scripted()) as Box<dyn Invoker + Send>
    });
    let Ok((expected, expected_report)) = expected else {
        return; // unenforceable under this schema/strategy: nothing to ship
    };
    let (server, store, client) = serve_store(io, ServerConfig::default());
    let mut invoker = scripted();
    let reply = client
        .send_document_chunked(None, "parity.xml", chunk_bytes, |sink| {
            let opts = StreamOptions {
                strategy,
                ..StreamOptions::default()
            };
            enforce_stream_to(compiled, input, &opts, &mut invoker, sink)
                .map(|_| ())
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
        })
        .unwrap();
    assert!(reply.contains("stored"), "{reply}");
    let docs = store.docs.lock().unwrap();
    assert_eq!(docs.len(), 1);
    assert_eq!(docs[0].0, "parity.xml");
    assert_eq!(
        docs[0].1, expected,
        "chunk-shipped bytes diverge from the in-memory enforcement \
         (chunk_bytes={chunk_bytes}, {io:?}, {strategy:?})"
    );
    assert_eq!(expected_report.bytes_out, expected.len() as u64);
    drop(docs);
    server.shutdown().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random documents × both schemas × both strategies × both engines
    /// × a random chunk size from 1 byte to past the document length:
    /// the received bytes always equal the in-memory enforcement.
    #[test]
    fn chunk_parity(doc in newspaper_strategy(), chunk_seed in 1usize..4096) {
        for model in MODELS {
            let c = compiled(model);
            let input =
                axml::xml::element_to_string(&doc.to_xml(), &axml::xml::WriteOptions::compact());
            // 1 byte, a mid-document split, and past-the-end in one sweep.
            let chunk_bytes = 1 + chunk_seed % (input.len() + 64);
            for strategy in [RwStrategy::Safe, RwStrategy::Possible] {
                for io in IO_MODES {
                    assert_wire_parity(&c, &input, strategy, chunk_bytes, io);
                }
            }
        }
    }
}

/// One-byte chunks are the adversarial extreme: every header/payload
/// boundary in the reassembly path is exercised. Pinned (not seeded) so
/// it runs on every `cargo test`.
#[test]
fn regression_one_byte_chunks_round_trip() {
    let c = compiled(MODELS[0]);
    let input = "<newspaper><title>t</title><date>04/10/2002</date><temp>15 C</temp></newspaper>";
    for io in IO_MODES {
        assert_wire_parity(&c, input, RwStrategy::Safe, 1, io);
    }
}

/// A chunk size far past the document length degenerates to a single
/// `DocChunk` frame — the protocol's smallest legal transfer.
#[test]
fn regression_oversized_chunk_size_degenerates_to_one_chunk() {
    let c = compiled(MODELS[0]);
    let input = "<newspaper><title>t</title><date>04/10/2002</date><temp>15 C</temp></newspaper>";
    for io in IO_MODES {
        assert_wire_parity(&c, input, RwStrategy::Possible, 1 << 20, io);
    }
}

// ---------------------------------------------------------------------
// Peer-level matrix: chunked and single-frame shipping store the same
// document.
// ---------------------------------------------------------------------

fn exchange_vocab() -> Schema {
    Schema::builder()
        .element("newspaper", "title.date.exhibit*")
        .data_element("title")
        .data_element("date")
        .element("exhibit", "title.date")
        .function("Listings", "data", "exhibit*")
        .build()
        .unwrap()
}

/// `send_document` (one Request frame) and `send_document_chunked`
/// (Start/Chunk/End) must leave the receiving peer's repository with the
/// identical document, under both engines.
#[test]
fn peer_ship_matrix_chunked_equals_single_frame() {
    let front = ITree::elem(
        "newspaper",
        vec![
            ITree::data("title", "The Sun"),
            ITree::data("date", "04/10/2002"),
            ITree::elem(
                "exhibit",
                vec![ITree::data("title", "Monet"), ITree::data("date", "Mon")],
            ),
        ],
    );
    let strict = Arc::new(Compiled::new(exchange_vocab(), &NoOracle).unwrap());
    for io in IO_MODES {
        let receiver_peer = Arc::new(Peer::new(
            "browser.example.org",
            Arc::clone(&strict),
            Arc::new(Registry::new()),
        ));
        let config = axml::net::ServerConfig {
            io,
            ..Default::default()
        };
        let receiver =
            axml::peer::NetPeer::serve(Arc::clone(&receiver_peer), "127.0.0.1:0", config).unwrap();
        let sender = Peer::new(
            "newspaper.example.org",
            Arc::clone(&strict),
            Arc::new(Registry::new()),
        );
        sender.declare(
            ServiceDef::new("Listings", "data", "exhibit*"),
            Query::Children("unused".to_owned()),
        );
        let remote = RemotePeer::connect(receiver.local_addr(), Default::default()).unwrap();

        let (sent, _) = remote
            .send_document(&sender, "front-single", &front, &strict)
            .unwrap();
        let report = remote
            .send_document_chunked(&sender, "front-chunked", &front, &strict, 64)
            .unwrap();
        assert!(!report.fell_back, "both ends speak chunked ({io:?})");
        assert_eq!(report.bytes_out > 0, true, "{io:?}: nothing streamed");

        let single = receiver_peer.repository.load("front-single").unwrap();
        let chunked = receiver_peer.repository.load("front-chunked").unwrap();
        assert_eq!(single, chunked, "{io:?}: stored documents diverge");
        assert_eq!(single, sent, "{io:?}: chunked store differs from the sent doc");
        receiver.shutdown().unwrap();
    }
}

// ---------------------------------------------------------------------
// Bounded-memory witness: a document ≥4× the frame cap.
// ---------------------------------------------------------------------

/// Ships a ~4.2× `DEFAULT_MAX_FRAME` document through both engines in
/// 256 KiB chunks. The sender's enforcement streams straight into the
/// chunk sink (peak buffer far below the document), the receiver
/// reassembles under its cumulative cap and hands the handler the exact
/// bytes, and the reassembly gauge returns to zero. Ignored by default
/// (builds ~17 MB of XML); `scripts/ci.sh` runs it in release mode, and
/// the B15 bench measures the same path.
#[test]
#[ignore = "builds a 17 MB document; run explicitly in release mode"]
fn spot_4x_frame_cap_ships_end_to_end() {
    let c = compiled(MODELS[0]);
    let target = 4 * wire::DEFAULT_MAX_FRAME + wire::DEFAULT_MAX_FRAME / 4;
    let body: String = "lorem ipsum dolor sit amet 0123456789 "
        .chars()
        .cycle()
        .take(1 << 16)
        .collect();
    let mut input = String::with_capacity(target + 4096);
    input.push_str("<newspaper><title>big</title><date>04/10/2002</date><temp>15 C</temp>");
    while input.len() + (1 << 16) + 128 < target {
        input.push_str("<exhibit><title>");
        input.push_str(&body);
        input.push_str("</title><date>Mon</date></exhibit>");
    }
    input.push_str("</newspaper>");
    assert!(input.len() >= 4 * wire::DEFAULT_MAX_FRAME);

    for io in IO_MODES {
        let metrics = axml::obs::Registry::new();
        let (server, store, client) = serve_store(
            io,
            ServerConfig {
                metrics: metrics.clone(),
                ..ServerConfig::default()
            },
        );
        let opts = StreamOptions::default();
        let mut invoker = scripted();
        let mut peak = 0u64;
        let reply = client
            .send_document_chunked(None, "big.xml", 256 << 10, |sink| {
                let rep = enforce_stream_to(&c, &input, &opts, &mut invoker, sink)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
                peak = rep.peak_buffer_bytes;
                Ok(())
            })
            .unwrap();
        assert!(reply.contains("stored"), "{reply}");
        let docs = store.docs.lock().unwrap();
        assert_eq!(docs.len(), 1, "{io:?}");
        assert_eq!(docs[0].1.len(), input.len(), "{io:?}: byte count diverged");
        assert_eq!(docs[0].1, input, "{io:?}: bytes diverged");
        drop(docs);
        // Sender-side bound: the enforcement never buffered anything close
        // to the document — this is what makes >RAM documents shippable.
        assert!(
            peak < wire::DEFAULT_MAX_FRAME as u64 / 4,
            "{io:?}: sender peak buffer {peak} bytes is not bounded"
        );
        // Receiver-side accounting: every payload byte counted, and the
        // reassembly buffer fully released after the hand-off.
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("net.chunk.bytes_total"),
            input.len() as u64,
            "{io:?}"
        );
        assert!(snap.counter("net.chunk.frames_total") >= 2 + (input.len() / (256 << 10)) as u64);
        assert_eq!(snap.counter("net.chunk.aborts_total"), 0, "{io:?}");
        assert_eq!(snap.gauge("net.chunk.reassembly_bytes"), 0, "{io:?}");
        server.shutdown().unwrap();
    }
}

// ---------------------------------------------------------------------
// Stall witness: no chunked transfer waits on a delayed ACK.
// ---------------------------------------------------------------------

/// Answers each chunk-shipped document with its byte count and drops it.
struct Drain;

impl Handler for Drain {
    fn handle(&self, _id: u64, _envelope: &str) -> Result<String, WireFault> {
        Ok("<ok/>".to_owned())
    }

    fn handle_document(&self, _id: u64, _name: &str, text: &str) -> Result<String, WireFault> {
        Ok(format!("<stored bytes=\"{}\"/>", text.len()))
    }
}

/// Ships 200 transfers of 1 MiB in 256 KiB chunks to a loopback daemon on
/// each engine and times each one. With Nagle's algorithm on, the short
/// `DocChunkEnd` behind the last chunk waits for the receiver's delayed
/// ACK, and a sizeable share of transfers take 40 ms or more instead of a
/// few milliseconds. Fails when 5 or more transfers take 30 ms or more.
/// Ignored by default (it measures time); `scripts/ci.sh` runs it in
/// release mode.
#[test]
#[ignore = "times 400 transfers of 1 MiB; run explicitly in release mode"]
fn stall_witness_chunked_transfers_never_wait_for_delayed_acks() {
    const TRANSFERS: usize = 200;
    const STALL_MS: f64 = 30.0;
    let doc: String = (0..1usize << 20)
        .map(|i| char::from(b'a' + (i % 26) as u8))
        .collect();
    let reply = format!("<stored bytes=\"{}\"/>", doc.len());
    for io in IO_MODES {
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::new(Drain),
            ServerConfig {
                io,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let client = NetClient::new(server.local_addr(), ClientConfig::default()).unwrap();
        let ship = || {
            client
                .send_document_chunked(None, "feed.xml", 256 << 10, |sink| {
                    sink.write_all(doc.as_bytes())
                })
                .unwrap()
        };
        // The first transfer dials and handshakes; it is not timed.
        assert_eq!(ship(), reply);
        let mut ms: Vec<f64> = (0..TRANSFERS)
            .map(|_| {
                let t = std::time::Instant::now();
                assert_eq!(ship(), reply);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        let stalled = ms.iter().filter(|&&m| m >= STALL_MS).count();
        println!(
            "{io:?}: p50 {:.1} ms, p90 {:.1} ms, max {:.1} ms, {stalled}/{TRANSFERS} at >= {STALL_MS} ms",
            ms[TRANSFERS / 2],
            ms[TRANSFERS * 9 / 10],
            ms[TRANSFERS - 1]
        );
        assert!(
            stalled < 5,
            "{io:?}: {stalled} of {TRANSFERS} transfers took >= {STALL_MS} ms"
        );
        drop(client);
        server.shutdown().unwrap();
    }
}
