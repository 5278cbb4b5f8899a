//! Loopback integration tests of the TCP peer daemons, run as a
//! **transport matrix**: every scenario executes once under
//! `IoMode::Threads` (blocking reader threads) and once under
//! `IoMode::Poll` (the sharded epoll/kqueue readiness loop), and the
//! outcomes are asserted *equal* — identical fault frames byte for byte,
//! identical stats, identical documents landed, identical span-tree
//! shapes. The poll engine is only correct if a client cannot tell the
//! two engines apart. The raw protocol-fault scenario also runs against
//! a simulator server actor (`SimWorld::listen`), whose replies must be
//! the same bytes: all three drive the one connection core.
//!
//! Scenarios: concurrent clients, raw protocol faults (oversized frame,
//! malformed envelope, bad frame type, mid-frame stall, handshake
//! violations, a repeated Hello, chunk digests matched and mismatched to
//! the Hello's caps), queue-saturation Busy backpressure, the
//! paper's Fig. 1 three-party newspaper exchange, and span correlation
//! for clean and failed exchanges.

use axml::net::{
    wire, ClientConfig, Duplex, IoMode, NetClient, NetServer, ServerConfig, TcpTransport,
    Transport,
};
use axml::obs::{install_sink, uninstall_sink, RingSink, SpanRecord, SpanSink};
use axml::peer::{envelope_handler, InboundPolicy, NetInvoker, NetPeer, Peer, Query, RemotePeer};
use axml::schema::{validate, Compiled, ITree, NoOracle, Schema};
use axml::services::{Registry, ServiceDef};
use axml::sim::{FaultPlan, SimServerConfig, SimWorld};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Both engines, in the order the matrix runs them.
const IO_MODES: [IoMode; 2] = [IoMode::Threads, IoMode::Poll];

/// The default config for one side of the matrix.
fn mode_config(io: IoMode) -> ServerConfig {
    ServerConfig {
        io,
        ..Default::default()
    }
}

/// Equal-length tags for per-mode document names: envelope sizes (and so
/// TooLarge byte counts in fault messages) must not depend on the mode's
/// name length.
fn mode_tag(io: IoMode) -> &'static str {
    match io {
        IoMode::Threads => "thr",
        IoMode::Poll => "pol",
    }
}

fn vocab() -> Schema {
    Schema::builder()
        .element("newspaper", "title.date.(Listings|exhibit*)")
        .data_element("title")
        .data_element("date")
        .element("exhibit", "title.date")
        .function("Listings", "data", "exhibit*")
        .build()
        .unwrap()
}

fn strict_vocab() -> Schema {
    Schema::builder()
        .element("newspaper", "title.date.exhibit*")
        .data_element("title")
        .data_element("date")
        .element("exhibit", "title.date")
        .function("Listings", "data", "exhibit*")
        .build()
        .unwrap()
}

fn compiled(schema: Schema) -> Arc<Compiled> {
    Arc::new(Compiled::new(schema, &NoOracle).unwrap())
}

/// The listings provider every matrix daemon serves.
fn listings_peer() -> Arc<Peer> {
    let peer = Arc::new(Peer::new(
        "listings.example.org",
        compiled(vocab()),
        Arc::new(Registry::new()),
    ));
    peer.repository.store(
        "program",
        ITree::elem(
            "listings",
            vec![
                ITree::elem(
                    "exhibit",
                    vec![ITree::data("title", "Monet"), ITree::data("date", "Mon")],
                ),
                ITree::elem(
                    "exhibit",
                    vec![ITree::data("title", "Rodin"), ITree::data("date", "Tue")],
                ),
            ],
        ),
    );
    peer.declare(
        ServiceDef::new("Listings", "data", "exhibit*"),
        Query::Children("program".to_owned()),
    );
    peer
}

/// A listings-provider daemon on an ephemeral loopback port.
fn provider_daemon(config: ServerConfig) -> NetPeer {
    NetPeer::serve(listings_peer(), "127.0.0.1:0", config).unwrap()
}

fn front_page() -> ITree {
    ITree::elem(
        "newspaper",
        vec![
            ITree::data("title", "The Sun"),
            ITree::data("date", "04/10/2002"),
            ITree::func("Listings", vec![ITree::text("exhibits")]),
        ],
    )
}

/// Raw wire client: connect with sane timeouts.
fn dial(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    wire::set_stream_timeouts(
        &stream,
        Some(Duration::from_secs(10)),
        Some(Duration::from_secs(10)),
    )
    .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (reader, stream)
}

fn shake(reader: &mut impl Read, stream: &mut impl Write) {
    wire::write_frame(stream, &wire::hello("matrix-client")).unwrap();
    let back = wire::read_frame(reader, wire::DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(back.kind, wire::FrameType::Welcome);
}

// ---------------------------------------------------------------------
// Scenario: concurrent clients share one daemon.
// ---------------------------------------------------------------------

/// The daemon's (served, rejected Busy, other faults) counts, read from
/// its own registry.
fn serving_counts(registry: &axml::obs::Registry) -> (u64, u64, u64) {
    let snap = registry.snapshot();
    let busy = snap.counter("server.busy_total");
    (
        snap.counter("server.responses_ok_total"),
        busy,
        snap.counter("server.faults_total") - busy,
    )
}

/// (served, rejected_busy, faulted) after 8 clients × 5 invokes.
fn concurrent_clients_outcome(io: IoMode) -> (u64, u64, u64) {
    let registry = axml::obs::Registry::new();
    let daemon = provider_daemon(ServerConfig {
        metrics: registry.clone(),
        ..mode_config(io)
    });
    let addr = daemon.local_addr();
    let caller = Arc::new(Peer::new(
        "caller.example.org",
        compiled(vocab()),
        Arc::new(Registry::new()),
    ));
    let remote = Arc::new(RemotePeer::connect(addr, ClientConfig::default()).unwrap());

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let caller = Arc::clone(&caller);
            let remote = Arc::clone(&remote);
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let result = remote
                        .invoke_service(&caller, "Listings", &[ITree::text("exhibits")])
                        .unwrap();
                    assert_eq!(result.len(), 2);
                    assert!(result.iter().all(|t| t.name() == Some("exhibit")));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let out = serving_counts(&registry);
    daemon.shutdown().unwrap();
    out
}

#[test]
fn matrix_concurrent_clients_share_one_daemon() {
    let outcomes: Vec<_> = IO_MODES
        .iter()
        .map(|&io| concurrent_clients_outcome(io))
        .collect();
    assert_eq!(
        outcomes[0], outcomes[1],
        "threads vs poll: identical serving stats"
    );
    assert_eq!(outcomes[0], (40, 0, 0), "every concurrent request answered");
}

// ---------------------------------------------------------------------
// Scenario: raw protocol faults, compared frame-for-frame.
// ---------------------------------------------------------------------

/// The servers the protocol-fault scenario runs against: both TCP
/// engines and a simulator server actor.
#[derive(Debug, Clone, Copy)]
enum Daemon {
    Tcp(IoMode),
    Sim,
}

/// A running protocol-fault server and how to dial it.
struct FaultServer {
    transport: Arc<dyn Transport>,
    endpoint: String,
    tcp: Option<NetPeer>,
    /// Keeps the simulated world (and its virtual clock) alive.
    _world: Option<SimWorld>,
}

impl FaultServer {
    fn start(daemon: Daemon, max_frame: usize, read_timeout: Duration) -> FaultServer {
        match daemon {
            Daemon::Tcp(io) => {
                let peer = provider_daemon(ServerConfig {
                    max_frame,
                    read_timeout,
                    ..mode_config(io)
                });
                FaultServer {
                    transport: Arc::new(TcpTransport),
                    endpoint: peer.local_addr().to_string(),
                    tcp: Some(peer),
                    _world: None,
                }
            }
            Daemon::Sim => {
                let world = SimWorld::new(7, FaultPlan::default());
                let endpoint = "listings.example.org";
                world.listen(
                    endpoint,
                    envelope_handler(listings_peer()),
                    SimServerConfig {
                        max_frame,
                        read_timeout,
                        ..SimServerConfig::default()
                    },
                );
                FaultServer {
                    transport: world.transport("matrix-client"),
                    endpoint: endpoint.to_owned(),
                    tcp: None,
                    _world: Some(world),
                }
            }
        }
    }

    /// Raw wire client over whichever transport the server runs on.
    fn dial(&self) -> (BufReader<Box<dyn Duplex>>, Box<dyn Duplex>) {
        let stream = self
            .transport
            .connect(&self.endpoint, Duration::from_secs(10))
            .unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (reader, stream)
    }
}

/// Ships a small newspaper as a raw chunked transfer on a fresh
/// connection whose `Hello` advertises `hello_caps`, closed with the
/// digest a peer advertising `digest_caps` computes, and returns the
/// server's answer.
fn raw_chunked_transfer(
    server: &FaultServer,
    id: u64,
    hello_caps: u8,
    digest_caps: u8,
) -> wire::Frame {
    let (mut reader, mut stream) = server.dial();
    wire::write_frame(&mut stream, &wire::hello_with("matrix-client", hello_caps)).unwrap();
    let welcome = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
    let (_, _, caps) = wire::decode_welcome_caps(&welcome.payload).unwrap();
    assert_eq!(caps, wire::CAPS, "the Welcome advertises both bits");
    let doc = b"<newspaper><title>The Sun</title><date>04/10/2002</date></newspaper>";
    let mut digest = wire::ChunkDigest::for_caps(digest_caps);
    wire::write_frame(&mut stream, &wire::doc_chunk_start(id, &format!("raw{id}.xml"))).unwrap();
    let mut count = 0;
    for piece in doc.chunks(16) {
        digest.update(piece);
        wire::write_frame(&mut stream, &wire::doc_chunk(id, count, piece)).unwrap();
        count += 1;
    }
    let end = wire::doc_chunk_end(id, count, doc.len() as u64, digest.finish());
    wire::write_frame(&mut stream, &end).unwrap();
    wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap()
}

/// Drives every protocol-fault path over a raw connection and returns
/// each reply frame, labelled. The whole vector must be byte-identical
/// across the three servers.
fn protocol_fault_outcome(daemon: Daemon) -> Vec<(&'static str, wire::Frame)> {
    let server = FaultServer::start(daemon, 256, Duration::from_millis(100));
    let mut out = Vec::new();

    // Oversized frame: rejected before allocation, connection closed.
    {
        let (mut reader, mut stream) = server.dial();
        shake(&mut reader, &mut stream);
        wire::write_frame(&mut stream, &wire::request(1, &"x".repeat(1000))).unwrap();
        out.push((
            "oversized",
            wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap(),
        ));
    }
    // Malformed envelope (invalid UTF-8): typed Client fault, and the
    // connection survives — prove it with a follow-up stats scrape.
    {
        let (mut reader, mut stream) = server.dial();
        shake(&mut reader, &mut stream);
        let bad = wire::Frame {
            kind: wire::FrameType::Request,
            id: 7,
            payload: vec![0xff, 0xfe, 0x01],
        };
        wire::write_frame(&mut stream, &bad).unwrap();
        out.push((
            "malformed-envelope",
            wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap(),
        ));
        wire::write_frame(&mut stream, &wire::stats_request(8)).unwrap();
        let stats = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        // Snapshot *values* legitimately differ across servers (the poll
        // gauges); the frame kind + id prove the connection stayed up.
        out.push((
            "conn-survives-malformed",
            wire::Frame {
                kind: stats.kind,
                id: stats.id,
                payload: Vec::new(),
            },
        ));
    }
    // Wrong frame type after handshake: BadFrame, connection survives.
    {
        let (mut reader, mut stream) = server.dial();
        shake(&mut reader, &mut stream);
        let rogue = wire::Frame {
            kind: wire::FrameType::Welcome,
            id: 9,
            payload: b"nope".to_vec(),
        };
        wire::write_frame(&mut stream, &rogue).unwrap();
        out.push((
            "rogue-frame-type",
            wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap(),
        ));
    }
    // A repeated Hello after the handshake is answered like the first.
    {
        let (mut reader, mut stream) = server.dial();
        shake(&mut reader, &mut stream);
        wire::write_frame(&mut stream, &wire::hello("matrix-client")).unwrap();
        out.push((
            "repeated-hello",
            wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap(),
        ));
    }
    // Mid-frame stall: half a header then silence → Timeout fault.
    {
        let (mut reader, mut stream) = server.dial();
        shake(&mut reader, &mut stream);
        stream.write_all(&[0x03, 0, 0, 0]).unwrap();
        stream.flush().unwrap();
        out.push((
            "mid-frame-stall",
            wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap(),
        ));
    }
    // Mid-chunk stall: a transfer opens, one chunk lands, then silence
    // *between* frames — the inbox is empty, but the open transfer makes
    // it a stall, not an idle pooled connection.
    {
        let (mut reader, mut stream) = server.dial();
        shake(&mut reader, &mut stream);
        wire::write_frame(&mut stream, &wire::doc_chunk_start(11, "stall.xml")).unwrap();
        wire::write_frame(&mut stream, &wire::doc_chunk(11, 0, b"<newspaper>")).unwrap();
        stream.flush().unwrap();
        out.push((
            "mid-chunk-stall",
            wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap(),
        ));
    }
    // The digest follows the Hello's caps: FNV-1a-64 for a client that
    // advertised chunking only, XXH64 for one that also set CAP_XXH64.
    // A transfer closed with the other digest is refused.
    let (fnv, xxh) = (wire::CAP_CHUNKED, wire::CAPS);
    out.push(("fnv-hello-fnv-digest", raw_chunked_transfer(&server, 21, fnv, fnv)));
    out.push(("fnv-hello-xxh-digest", raw_chunked_transfer(&server, 22, fnv, xxh)));
    out.push(("xxh-hello-xxh-digest", raw_chunked_transfer(&server, 23, xxh, xxh)));
    out.push(("xxh-hello-fnv-digest", raw_chunked_transfer(&server, 24, xxh, fnv)));
    // Handshake violation: a Request before Hello.
    {
        let (mut reader, mut stream) = server.dial();
        wire::write_frame(&mut stream, &wire::request(4, "<env/>")).unwrap();
        out.push((
            "request-before-hello",
            wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap(),
        ));
    }
    // Handshake violation: a stats scrape before Hello.
    {
        let (mut reader, mut stream) = server.dial();
        wire::write_frame(&mut stream, &wire::stats_request(5)).unwrap();
        out.push((
            "stats-before-hello",
            wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap(),
        ));
    }
    // Version mismatch in the Hello.
    {
        let (mut reader, mut stream) = server.dial();
        let mut old = wire::hello("old-client");
        old.payload[4..6].copy_from_slice(&99u16.to_be_bytes());
        wire::write_frame(&mut stream, &old).unwrap();
        out.push((
            "version-mismatch",
            wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap(),
        ));
    }

    if let Some(tcp) = server.tcp {
        tcp.shutdown().unwrap();
    }
    out
}

#[test]
fn matrix_protocol_faults_are_byte_identical() {
    let threads = protocol_fault_outcome(Daemon::Tcp(IoMode::Threads));
    let poll = protocol_fault_outcome(Daemon::Tcp(IoMode::Poll));
    let sim = protocol_fault_outcome(Daemon::Sim);
    assert_eq!(
        threads, poll,
        "every fault frame must be byte-identical across engines"
    );
    assert_eq!(
        threads, sim,
        "the simulator's server must answer with the daemon's bytes"
    );
    // Taxonomy spot-checks (on the threads run; the others are equal).
    let frame = |label: &str| &threads.iter().find(|(l, _)| *l == label).unwrap().1;
    let fault_code = |label: &str| {
        assert_eq!(frame(label).kind, wire::FrameType::Fault, "{label}");
        wire::decode_fault(&frame(label).payload).unwrap()
    };
    assert_eq!(fault_code("oversized").code, axml::net::FaultCode::TooLarge);
    assert_eq!(
        fault_code("malformed-envelope").code,
        axml::net::FaultCode::Client
    );
    assert_eq!(
        fault_code("rogue-frame-type").code,
        axml::net::FaultCode::BadFrame
    );
    assert_eq!(frame("repeated-hello").kind, wire::FrameType::Welcome);
    assert_eq!(
        fault_code("mid-frame-stall").code,
        axml::net::FaultCode::Timeout
    );
    let chunk_stall = fault_code("mid-chunk-stall");
    assert_eq!(chunk_stall.code, axml::net::FaultCode::Timeout);
    assert!(
        chunk_stall.message.contains("mid-chunk-transfer"),
        "the stall must name the open transfer: {}",
        chunk_stall.message
    );
    assert_eq!(
        fault_code("request-before-hello").code,
        axml::net::FaultCode::BadFrame
    );
    let early_stats = fault_code("stats-before-hello");
    assert_eq!(early_stats.code, axml::net::FaultCode::BadFrame);
    assert_eq!(early_stats.message, "expected Hello to open the connection");
    assert_eq!(
        fault_code("version-mismatch").code,
        axml::net::FaultCode::Version
    );
    assert_eq!(
        frame("conn-survives-malformed").kind,
        wire::FrameType::StatsResponse
    );
    for label in ["fnv-hello-fnv-digest", "xxh-hello-xxh-digest"] {
        assert_eq!(frame(label).kind, wire::FrameType::Response, "{label}");
    }
    for label in ["fnv-hello-xxh-digest", "xxh-hello-fnv-digest"] {
        let refused = fault_code(label);
        assert_eq!(refused.code, axml::net::FaultCode::BadFrame, "{label}");
        assert!(
            refused.message.contains("chunk digest mismatch"),
            "{label}: {}",
            refused.message
        );
    }
}

// ---------------------------------------------------------------------
// Scenario: Busy backpressure when the queue saturates.
// ---------------------------------------------------------------------

/// One worker asleep, a one-slot queue full: the third pipelined request
/// must bounce with a retryable Busy while the first two eventually
/// serve. Returns the three reply frames sorted by request id.
fn busy_backpressure_outcome(io: IoMode) -> Vec<wire::Frame> {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    let registry = axml::obs::Registry::new();
    let entered = Arc::new(AtomicU64::new(0));
    let entered_in_handler = Arc::clone(&entered);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::new(move |_id: u64, envelope: &str| {
            entered_in_handler.fetch_add(1, Relaxed);
            std::thread::sleep(Duration::from_millis(300));
            Ok(envelope.to_owned())
        }),
        ServerConfig {
            workers: 1,
            queue: 1,
            shards: 1, // single shard == single queue: exact Busy parity
            metrics: registry.clone(),
            ..mode_config(io)
        },
    )
    .unwrap();
    let (mut reader, mut stream) = dial(server.local_addr());
    shake(&mut reader, &mut stream);
    // Park request 1 *inside* the handler before pipelining 2 and 3, so
    // exactly one queue slot is free: 2 queues, 3 must bounce.
    wire::write_frame(&mut stream, &wire::request(1, "<env/>")).unwrap();
    while entered.load(Relaxed) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    for id in 2..=3u64 {
        wire::write_frame(&mut stream, &wire::request(id, "<env/>")).unwrap();
    }
    let mut replies: Vec<_> = (0..3)
        .map(|_| wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap())
        .collect();
    replies.sort_by_key(|f| f.id);
    let (served, rejected_busy, _) = serving_counts(&registry);
    assert_eq!(rejected_busy, 1);
    assert_eq!(served, 2);
    server.shutdown().unwrap();
    replies
}

#[test]
fn matrix_busy_backpressure_is_identical() {
    let threads = busy_backpressure_outcome(IoMode::Threads);
    let poll = busy_backpressure_outcome(IoMode::Poll);
    assert_eq!(threads, poll, "Busy replies byte-identical across engines");
    assert_eq!(threads[0].kind, wire::FrameType::Response);
    assert_eq!(threads[1].kind, wire::FrameType::Response);
    assert_eq!(threads[2].kind, wire::FrameType::Fault);
    let busy = wire::decode_fault(&threads[2].payload).unwrap();
    assert_eq!(busy.code, axml::net::FaultCode::Busy);
    assert!(busy.retryable, "Busy is retryable");
}

// ---------------------------------------------------------------------
// Scenario: the paper's Fig. 1 three-party newspaper exchange.
// ---------------------------------------------------------------------

/// Runs the full sender → provider → receiver exchange and returns the
/// shipped document (already asserted identical to what the receiver
/// stored). Must come out identical under both engines.
fn fig1_exchange_outcome(io: IoMode) -> ITree {
    let provider = provider_daemon(mode_config(io));

    // The receiver: a daemon that enforces the strict schema and refuses
    // any intensional content (a browser, Sec. 1).
    let receiver_peer = Arc::new(
        Peer::new(
            "browser.example.org",
            compiled(strict_vocab()),
            Arc::new(Registry::new()),
        )
        .with_inbound(InboundPolicy::RejectFunctions),
    );
    let receiver =
        NetPeer::serve(Arc::clone(&receiver_peer), "127.0.0.1:0", mode_config(io)).unwrap();

    // The sender: holds the intensional front page.
    let sender = Peer::new(
        "newspaper.example.org",
        compiled(vocab()),
        Arc::new(Registry::new()),
    );
    let front = front_page();
    validate(&front, &sender.compiled).unwrap();

    let to_provider = RemotePeer::connect(provider.local_addr(), ClientConfig::default()).unwrap();
    let to_receiver = RemotePeer::connect(receiver.local_addr(), ClientConfig::default()).unwrap();

    // Shipping the raw intensional document is refused by the receiver's
    // enforcement (sender-side rewriting is skipped because the document
    // already conforms to the *lazy* schema).
    let lazy = compiled(vocab());
    let err = to_receiver
        .send_document(&sender, "front", &front, &lazy)
        .unwrap_err();
    assert!(
        matches!(err, axml::peer::PeerError::Fault(ref f) if f.code.starts_with("Client")),
        "{err}"
    );

    // Under the agreed extensional exchange schema, the sender first
    // materializes `Listings` through the provider daemon, then ships.
    let strict = compiled(strict_vocab());
    let mut invoker = NetInvoker {
        caller: &sender,
        remote: &to_provider,
    };
    let (sent, report) = to_receiver
        .send_document_with(&sender, "front", &front, &strict, &mut invoker)
        .unwrap();
    assert_eq!(report.invoked, vec!["Listings".to_owned()]);
    assert_eq!(sent.num_funcs(), 0);
    assert_eq!(sent.children().len(), 4); // title, date, 2 exhibits

    // The receiver daemon verified and stored the materialized document.
    let stored = receiver_peer.repository.load("front").unwrap();
    assert_eq!(stored, sent);
    validate(&stored, &receiver_peer.compiled).unwrap();

    provider.shutdown().unwrap();
    receiver.shutdown().unwrap();
    sent
}

#[test]
fn matrix_newspaper_exchange_between_daemons() {
    let threads = fig1_exchange_outcome(IoMode::Threads);
    let poll = fig1_exchange_outcome(IoMode::Poll);
    assert_eq!(
        threads, poll,
        "the materialized Fig. 1 document is engine-independent"
    );
}

// ---------------------------------------------------------------------
// Scenario: the Fig. 1 exchange when the newspaper outgrows the frame
// cap — single-frame shipping faults, chunked shipping streams through.
// ---------------------------------------------------------------------

/// A provider whose listings are too big to ship inside one frame of the
/// receiver's 4 KiB cap once materialized into the front page.
fn bulky_provider_daemon(config: ServerConfig) -> NetPeer {
    let peer = Arc::new(Peer::new(
        "listings.example.org",
        compiled(vocab()),
        Arc::new(Registry::new()),
    ));
    peer.repository.store(
        "program",
        ITree::elem(
            "listings",
            vec![
                ITree::elem(
                    "exhibit",
                    vec![
                        ITree::data("title", &"Monet retrospective ".repeat(150)),
                        ITree::data("date", "Mon"),
                    ],
                ),
                ITree::elem(
                    "exhibit",
                    vec![
                        ITree::data("title", &"Rodin in bronze ".repeat(150)),
                        ITree::data("date", "Tue"),
                    ],
                ),
            ],
        ),
    );
    peer.declare(
        ServiceDef::new("Listings", "data", "exhibit*"),
        Query::Children("program".to_owned()),
    );
    NetPeer::serve(peer, "127.0.0.1:0", config).unwrap()
}

/// Ships the oversized Fig. 1 front page: single-frame must fault with
/// `TooLarge`, chunked (512-byte chunks, `Listings` materialized over the
/// network first) must store the full document. Returns the
/// stored document for the cross-engine equality check.
fn oversized_chunked_exchange_outcome(io: IoMode) -> ITree {
    let provider = bulky_provider_daemon(mode_config(io));
    let receiver_peer = Arc::new(Peer::new(
        "browser.example.org",
        compiled(strict_vocab()),
        Arc::new(Registry::new()),
    ));
    let receiver = NetPeer::serve(
        Arc::clone(&receiver_peer),
        "127.0.0.1:0",
        ServerConfig {
            max_frame: 4096,
            ..mode_config(io)
        },
    )
    .unwrap();
    let sender = Peer::new(
        "newspaper.example.org",
        compiled(vocab()),
        Arc::new(Registry::new()),
    );
    let front = front_page();
    let strict = compiled(strict_vocab());
    let to_provider = RemotePeer::connect(provider.local_addr(), ClientConfig::default()).unwrap();
    let to_receiver = RemotePeer::connect(receiver.local_addr(), ClientConfig::default()).unwrap();

    // Single-frame: the materialized envelope blows the 4 KiB cap.
    let mut invoker = NetInvoker {
        caller: &sender,
        remote: &to_provider,
    };
    let err = to_receiver
        .send_document_with(&sender, "front", &front, &strict, &mut invoker)
        .unwrap_err();
    assert!(
        matches!(&err, axml::peer::PeerError::Fault(f) if f.code == "Client.TooLarge"),
        "single-frame shipping of an oversized document must fault TooLarge, got {err}"
    );

    // Chunked: `Listings` materializes remotely, then the same document
    // crosses in 512-byte chunks, each far below the cap.
    let mut invoker = NetInvoker {
        caller: &sender,
        remote: &to_provider,
    };
    let (sent, _) = to_receiver
        .send_document_chunked_with(&sender, "front", &front, &strict, 512, &mut invoker)
        .unwrap();
    let bytes = axml::xml::element_to_string(&sent.to_xml(), &axml::xml::WriteOptions::compact());
    assert!(
        bytes.len() > 4096,
        "the enforced document must exceed the frame cap (got {} bytes)",
        bytes.len()
    );
    let stored = receiver_peer.repository.load("front").unwrap();
    assert_eq!(stored, sent);
    validate(&stored, &receiver_peer.compiled).unwrap();
    assert_eq!(stored.num_funcs(), 0);

    provider.shutdown().unwrap();
    receiver.shutdown().unwrap();
    stored
}

#[test]
fn matrix_oversized_newspaper_ships_chunked_identically() {
    let threads = oversized_chunked_exchange_outcome(IoMode::Threads);
    let poll = oversized_chunked_exchange_outcome(IoMode::Poll);
    assert_eq!(
        threads, poll,
        "the chunk-shipped oversized document is engine-independent"
    );
}

// ---------------------------------------------------------------------
// Scenario: span correlation, clean exchange.
// ---------------------------------------------------------------------

/// All spans carrying `rid` as their request-id field.
fn spans_with_rid<'a>(records: &'a [SpanRecord], rid: &str) -> Vec<&'a SpanRecord> {
    records
        .iter()
        .filter(|r| r.field("rid") == Some(rid))
        .collect()
}

fn named<'a>(spans: &[&'a SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
    spans.iter().copied().filter(|r| r.name == name).collect()
}

/// The comparable shape of a clean exchange's span tree:
/// (name, hangs-off-exchange-root, is-error) triples, sorted.
fn clean_exchange_span_shape(io: IoMode) -> Vec<(String, bool, bool)> {
    let sink = RingSink::new(4096);
    let dyn_sink: Arc<dyn SpanSink> = sink.clone();
    install_sink(dyn_sink.clone());

    let provider = provider_daemon(mode_config(io));
    let receiver_peer = Arc::new(Peer::new(
        "browser.example.org",
        compiled(strict_vocab()),
        Arc::new(Registry::new()),
    ));
    let receiver =
        NetPeer::serve(Arc::clone(&receiver_peer), "127.0.0.1:0", mode_config(io)).unwrap();
    let sender = Peer::new(
        "newspaper.example.org",
        compiled(vocab()),
        Arc::new(Registry::new()),
    );
    let to_provider = RemotePeer::connect(provider.local_addr(), ClientConfig::default()).unwrap();
    let to_receiver = RemotePeer::connect(receiver.local_addr(), ClientConfig::default()).unwrap();
    let mut invoker = NetInvoker {
        caller: &sender,
        remote: &to_provider,
    };
    let strict = compiled(strict_vocab());
    // Parallel tests share the global sink list, so select our exchange
    // by a unique per-mode document name, then follow its request id.
    let doc = format!("front-traced-{}", mode_tag(io));
    to_receiver
        .send_document_with(&sender, &doc, &front_page(), &strict, &mut invoker)
        .unwrap();
    uninstall_sink(&dyn_sink);
    let records = sink.records();

    let exchange: Vec<_> = records
        .iter()
        .filter(|r| r.name == "exchange" && r.field("doc") == Some(doc.as_str()))
        .collect();
    assert_eq!(exchange.len(), 1, "{io}: one exchange root per send");
    let exchange = exchange[0];
    assert!(!exchange.error);
    let rid = exchange.field("rid").unwrap().to_owned();

    let tree = spans_with_rid(&records, &rid);
    let enforce = named(&tree, "enforce");
    let ship = named(&tree, "ship");
    let validate = named(&tree, "validate");
    assert_eq!(
        (enforce.len(), ship.len(), validate.len()),
        (1, 1, 1),
        "{io}: exactly one enforce/ship/validate per request id"
    );
    let (enforce, ship, validate) = (enforce[0], ship[0], validate[0]);

    // Sender-side children hang off the exchange root...
    assert_eq!(enforce.parent, Some(exchange.id));
    assert_eq!(ship.parent, Some(exchange.id));
    // ...the receiver's validate is a root, correlated by request id only.
    assert_eq!(validate.parent, None);
    assert_eq!(validate.field("peer"), Some("browser.example.org"));
    assert_eq!(validate.field("method"), Some(axml::peer::RECEIVE_METHOD));
    assert!(ship.field("bytes").unwrap().parse::<u64>().unwrap() > 0);

    // Loopback shares one monotonic epoch, so wall order is assertable:
    // enforcement finishes before shipping starts, and the receiver's
    // validation starts after the ship went out.
    assert!(enforce.start_ns + enforce.duration_ns <= ship.start_ns);
    assert!(ship.start_ns <= validate.start_ns);
    assert!(
        tree.iter().all(|r| !r.error),
        "{io}: clean exchange, clean spans"
    );

    // The materializing Listings call is its own correlated pair: an
    // invoke span nested under enforce, plus the provider daemon's
    // validate span under the same (distinct) request id.
    let invoke: Vec<_> = records
        .iter()
        .filter(|r| r.name == "invoke" && r.parent == Some(enforce.id))
        .collect();
    assert_eq!(invoke.len(), 1, "{io}: one service call for Listings");
    let invoke = invoke[0];
    assert_eq!(invoke.field("method"), Some("Listings"));
    let invoke_rid = invoke.field("rid").unwrap();
    assert_ne!(invoke_rid, rid, "{io}: service call gets its own rid");
    let provider_validate: Vec<_> = named(&spans_with_rid(&records, invoke_rid), "validate");
    assert_eq!(provider_validate.len(), 1);
    assert_eq!(
        provider_validate[0].field("peer"),
        Some("listings.example.org")
    );

    provider.shutdown().unwrap();
    receiver.shutdown().unwrap();

    let mut shape: Vec<(String, bool, bool)> = tree
        .iter()
        .map(|r| (r.name.clone(), r.parent == Some(exchange.id), r.error))
        .collect();
    shape.sort();
    shape
}

#[test]
fn matrix_exchange_emits_one_correlated_span_tree_per_request() {
    let threads = clean_exchange_span_shape(IoMode::Threads);
    let poll = clean_exchange_span_shape(IoMode::Poll);
    assert_eq!(threads, poll, "span-tree shape is engine-independent");
}

// ---------------------------------------------------------------------
// Scenario: span correlation, failed exchanges.
// ---------------------------------------------------------------------

/// Failed exchanges still produce one correlated tree per request id,
/// with the failing stage and the exchange root tagged as errors — for
/// the receiver refusing an oversized frame, a saturated (Busy) daemon,
/// and a stalled daemon that never answers. Returns, per scenario, the
/// ship span's recorded failure reason for cross-engine comparison.
fn failed_exchange_outcome(io: IoMode) -> Vec<(String, String)> {
    let sink = RingSink::new(4096);
    let dyn_sink: Arc<dyn SpanSink> = sink.clone();
    install_sink(dyn_sink.clone());

    let sender = Peer::new(
        "newspaper.example.org",
        compiled(vocab()),
        Arc::new(Registry::new()),
    );
    let lazy = compiled(vocab());
    // Already conforms to the lazy schema: enforcement succeeds, the
    // failure is injected at or behind the wire.
    let bulky = ITree::elem(
        "newspaper",
        vec![
            ITree::data("title", &"x".repeat(2048)),
            ITree::data("date", "04/10/2002"),
        ],
    );
    let doc = |stem: &str| format!("{stem}-{}", mode_tag(io));

    // 1. Receiver caps frames below the envelope size: ship is refused
    //    with TooLarge before any handler runs.
    let tiny = provider_daemon(ServerConfig {
        max_frame: 256,
        ..mode_config(io)
    });
    let to_tiny = RemotePeer::connect(tiny.local_addr(), ClientConfig::default()).unwrap();
    to_tiny
        .send_document(&sender, &doc("front-toolarge"), &bulky, &lazy)
        .unwrap_err();
    tiny.shutdown().unwrap();

    // 2. A saturated daemon: one worker busy, a one-slot queue full, so
    //    the non-retrying sender is bounced with Busy.
    let busy_server = NetServer::bind(
        "127.0.0.1:0",
        Arc::new(|_id: u64, envelope: &str| {
            std::thread::sleep(Duration::from_millis(600));
            Ok(envelope.to_owned())
        }),
        ServerConfig {
            workers: 1,
            queue: 1,
            shards: 1,
            ..mode_config(io)
        },
    )
    .unwrap();
    let busy_addr = busy_server.local_addr();
    let occupiers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let client = NetClient::new(busy_addr, ClientConfig::default()).unwrap();
                client.call("<keepalive/>").unwrap();
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200)); // let both occupy worker+queue
    let to_busy = RemotePeer::connect(
        busy_addr,
        ClientConfig {
            attempts: 1,
            ..Default::default()
        },
    )
    .unwrap();
    to_busy
        .send_document(&sender, &doc("front-busy"), &bulky, &lazy)
        .unwrap_err();
    for t in occupiers {
        t.join().unwrap();
    }
    busy_server.shutdown().unwrap();

    // 3. A stalled daemon: handshakes, then never answers; the sender's
    //    read timeout expires mid-exchange. (Client-side failure — the
    //    tarpit is a raw listener, not a NetServer — but it must look
    //    the same to senders regardless of what serves everything else.)
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let stall_addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let hello = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(hello.kind, wire::FrameType::Hello);
        let mut writer = stream;
        wire::write_frame(&mut writer, &wire::welcome("tarpit")).unwrap();
        // Swallow frames without ever answering until the peer gives up.
        while wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).is_ok() {}
    });
    let to_stalled = RemotePeer::connect(
        stall_addr,
        ClientConfig {
            attempts: 1,
            read_timeout: Duration::from_millis(150),
            ..Default::default()
        },
    )
    .unwrap();
    to_stalled
        .send_document(&sender, &doc("front-stalled"), &bulky, &lazy)
        .unwrap_err();

    uninstall_sink(&dyn_sink);
    let records = sink.records();
    let mut out = Vec::new();
    for stem in ["front-toolarge", "front-busy", "front-stalled"] {
        let doc = doc(stem);
        let exchange: Vec<_> = records
            .iter()
            .filter(|r| r.name == "exchange" && r.field("doc") == Some(doc.as_str()))
            .collect();
        assert_eq!(exchange.len(), 1, "{doc}: one exchange root");
        let exchange = exchange[0];
        assert!(exchange.error, "{doc}: failed exchange is error-tagged");
        let rid = exchange.field("rid").unwrap();
        let tree = spans_with_rid(&records, rid);
        let enforce = named(&tree, "enforce");
        let ship = named(&tree, "ship");
        assert_eq!((enforce.len(), ship.len()), (1, 1), "{doc}");
        assert!(!enforce[0].error, "{doc}: enforcement itself succeeded");
        assert!(ship[0].error, "{doc}: the wire stage carries the error");
        assert!(
            named(&tree, "validate").is_empty(),
            "{doc}: nothing validated — the document never landed"
        );
        let reason = ship[0]
            .field("error.msg")
            .unwrap_or_else(|| panic!("{doc}: failure reason recorded"))
            .to_owned();
        out.push((stem.to_owned(), reason));
    }
    out
}

#[test]
fn matrix_failed_exchanges_emit_error_tagged_spans() {
    let threads = failed_exchange_outcome(IoMode::Threads);
    let poll = failed_exchange_outcome(IoMode::Poll);
    assert_eq!(
        threads, poll,
        "failure reasons on the ship span are engine-independent"
    );
    let reason = |stem: &str| {
        threads
            .iter()
            .find(|(s, _)| s == stem)
            .map(|(_, r)| r.as_str())
            .unwrap()
    };
    assert!(
        reason("front-toolarge").contains("TooLarge"),
        "{}",
        reason("front-toolarge")
    );
    assert!(
        reason("front-busy").contains("Busy"),
        "{}",
        reason("front-busy")
    );
}
