//! B15: chunked wire shipping — documents past the frame cap.
//!
//! Three measurement families, each against a live loopback daemon on
//! both engines (blocking readers and the poll-mode readiness loop):
//!
//! * `single_1mib_*` — the pre-chunking baseline: one sub-cap document
//!   in a single `Request` frame;
//! * `chunked_{N}mib_*` — the same transport carrying `N` MiB through
//!   `DocChunkStart`/`DocChunk`/`DocChunkEnd` frames in 256 KiB chunks.
//!   The 16 MiB point is 4× `DEFAULT_MAX_FRAME`: unshippable without
//!   chunking, which is the protocol's reason to exist;
//! * `enforced_chunked_4mib_*` — the full pipeline, as a peer ships: the
//!   sender enforces an intensional feed once with `enforce_stream_with`,
//!   then the transfer writes the enforced bytes.
//!
//! Two layer pairs, in process and without a socket, time one enforced
//! ~1 MiB feed at each end of a chunked ship:
//!
//! * `receive_1mib_one_pass` / `receive_1mib_dom` — the receiver's work
//!   per document: `read_validated`'s one validating, building pass, and
//!   the three passes it replaced (`validate_xml_stream`, then
//!   `parse_document` and `ITree::from_xml`);
//! * `write_1mib_tree` / `write_1mib_dom` — the sender's serialization:
//!   `ITree::write_xml`, and the `ITree::to_xml` DOM written out by
//!   `element_to_string`. Both write into a fresh `String`.
//!
//! The JSON report carries one receiver-side accounting record per
//! (size × engine) configuration: every payload byte must land in
//! `net.chunk.bytes_total`, zero aborts, and the reassembly gauge back
//! at zero — the same identities `tests/chunk_parity.rs` pins, asserted
//! here by the CI gate at bench scale. The enforced records add the
//! feed's call sites, the invocations one ship made, and whether the
//! receiver got the enforced bytes.

use axml_core::invoke::ScriptedInvoker;
use axml_core::stream::{enforce_stream_with, StreamOptions};
use axml_net::{wire, ClientConfig, Handler, IoMode, NetClient, NetServer, ServerConfig};
use axml_schema::{read_validated, validate_xml_stream, Compiled, ITree, NoOracle, Schema};
use axml_support::bench::{criterion_group, criterion_main, smoke_mode, Criterion, Throughput};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const MIB: usize = 1 << 20;
const CHUNK: usize = 256 << 10;
const IO_MODES: [IoMode; 2] = [IoMode::Threads, IoMode::Poll];

fn io_tag(io: IoMode) -> &'static str {
    match io {
        IoMode::Threads => "threads",
        IoMode::Poll => "poll",
    }
}

/// Counts received document bytes and drops them — the bench measures
/// the wire, not the repository. While `keep` is set it also keeps the
/// last document, for the correctness pass.
struct DrainStore {
    bytes: AtomicU64,
    keep: AtomicBool,
    kept: Mutex<String>,
}

impl Handler for DrainStore {
    fn handle(&self, _id: u64, envelope: &str) -> Result<String, wire::WireFault> {
        self.bytes.fetch_add(envelope.len() as u64, Ordering::Relaxed);
        Ok("<ok/>".to_owned())
    }

    fn handle_document(&self, _id: u64, _name: &str, text: &str) -> Result<String, wire::WireFault> {
        self.bytes.fetch_add(text.len() as u64, Ordering::Relaxed);
        if self.keep.load(Ordering::Relaxed) {
            *self.kept.lock().unwrap() = text.to_owned();
        }
        Ok("<stored/>".to_owned())
    }
}

fn fresh_registry() -> axml_obs::Registry {
    let r = axml_obs::Registry::new();
    axml_obs::register_catalogue(&r);
    r
}

fn daemon(io: IoMode, metrics: axml_obs::Registry) -> (NetServer, Arc<DrainStore>, NetClient) {
    let store = Arc::new(DrainStore {
        bytes: AtomicU64::new(0),
        keep: AtomicBool::new(false),
        kept: Mutex::new(String::new()),
    });
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<dyn Handler>,
        ServerConfig {
            io,
            metrics,
            ..Default::default()
        },
    )
    .unwrap();
    let client = NetClient::new(server.local_addr(), ClientConfig::default()).unwrap();
    (server, store, client)
}

/// An extensional newspaper of roughly `target_bytes`: padded exhibit
/// titles, no call sites — pure payload for the transport measurements.
fn newspaper_xml(target_bytes: usize) -> String {
    let body: String = "lorem ipsum dolor sit amet 0123456789 "
        .chars()
        .cycle()
        .take(1 << 16)
        .collect();
    let mut out = String::with_capacity(target_bytes + (1 << 17));
    out.push_str("<newspaper><title>big</title><date>04/10/2002</date>");
    // Overshoot: the N-MiB point must be *at least* N MiB so the 16 MiB
    // document really sits past 4x the frame cap.
    while out.len() < target_bytes {
        out.push_str("<exhibit><title>");
        out.push_str(&body);
        out.push_str("</title><date>Mon</date></exhibit>");
    }
    out.push_str("</newspaper>");
    out
}

fn feed_compiled() -> Compiled {
    Compiled::new(
        Schema::builder()
            .element("feed", "meta.chunk*.calls")
            .data_element("meta")
            .data_element("chunk")
            .element("calls", "quote*")
            .data_element("quote")
            .function("Get_Quote", "meta", "quote*")
            .build()
            .unwrap(),
        &NoOracle,
    )
    .unwrap()
}

/// The `Get_Quote` call sites in [`feed_xml`]'s feed.
const FEED_CALL_SITES: usize = 1;

/// An intensional quote feed (B14's shape, one call site) for the
/// end-to-end enforced-ship variant.
fn feed_xml(target_bytes: usize) -> String {
    let chunk_body: String = "abcdefghijklmnopqrstuvwxyz0123456789 "
        .chars()
        .cycle()
        .take(64 << 10)
        .collect();
    let mut out = String::with_capacity(target_bytes + 4096);
    out.push_str("<feed><meta>nasdaq 2026-08-08</meta>");
    while out.len() + (64 << 10) < target_bytes {
        out.push_str("<chunk>");
        out.push_str(&chunk_body);
        out.push_str("</chunk>");
    }
    out.push_str(
        "<calls><int:fun xmlns:int=\"http://www.activexml.com/ns/int\" methodName=\"Get_Quote\">\
         <int:params><int:param><meta>site 0</meta></int:param></int:params></int:fun></calls></feed>",
    );
    out
}

fn invoker() -> ScriptedInvoker {
    ScriptedInvoker::new().answer("Get_Quote", vec![ITree::data("quote", "AXML 42.17")])
}

/// Enforces `feed` as a sender does before its transfer opens, then
/// ships the enforced bytes. Returns them and the invocations made.
fn enforce_and_ship(client: &NetClient, compiled: &Compiled, feed: &str) -> (String, usize) {
    let (enforced, invocations) = enforce_feed(compiled, feed);
    ship_raw(client, &enforced);
    (enforced, invocations)
}

/// Enforces `feed` as a sender does: the enforced bytes and the
/// invocations made.
fn enforce_feed(compiled: &Compiled, feed: &str) -> (String, usize) {
    let mut inv = invoker();
    let (enforced, _) =
        enforce_stream_with(compiled, feed, &StreamOptions::default(), &mut inv).unwrap();
    (enforced, inv.calls())
}

fn ship_raw(client: &NetClient, input: &str) -> u64 {
    let reply = client
        .send_document_chunked(None, "bench.xml", CHUNK, |sink| {
            sink.write_all(input.as_bytes())
        })
        .unwrap();
    assert!(reply.contains("stored"), "{reply}");
    input.len() as u64
}

fn bench(c: &mut Criterion) {
    let chunked_sizes: &[usize] = if smoke_mode() {
        &[MIB, 4 * MIB, 16 * MIB]
    } else {
        &[MIB, 4 * MIB, 16 * MIB, 32 * MIB]
    };

    let mut group = c.benchmark_group("b15_chunked_ship");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(1000));

    let mut reports: Vec<String> = Vec::new();

    // Baseline: one sub-cap document in a single Request frame.
    let single = newspaper_xml(MIB);
    for io in IO_MODES {
        let (server, store, client) = daemon(io, fresh_registry());
        group.throughput(Throughput::Bytes(single.len() as u64));
        group.bench_function(format!("single_1mib_{}", io_tag(io)), |b| {
            b.iter(|| {
                let reply = client.call(black_box(&single)).unwrap();
                black_box(reply.len())
            })
        });
        assert!(store.bytes.load(Ordering::Relaxed) >= single.len() as u64);
        server.shutdown().unwrap();
    }

    // Chunked transport at growing sizes, 4x the frame cap included.
    for &size in chunked_sizes {
        let input = newspaper_xml(size);
        let mib = size / MIB;
        for io in IO_MODES {
            let metrics = fresh_registry();
            let (server, store, client) = daemon(io, metrics.clone());

            // Correctness pass first: one ship with receiver-side
            // accounting captured into the JSON report.
            store.bytes.store(0, Ordering::Relaxed);
            ship_raw(&client, &input);
            let snap = metrics.snapshot();
            assert_eq!(store.bytes.load(Ordering::Relaxed), input.len() as u64);
            assert_eq!(snap.counter("net.chunk.bytes_total"), input.len() as u64);
            assert_eq!(snap.counter("net.chunk.aborts_total"), 0);
            assert_eq!(snap.gauge("net.chunk.reassembly_bytes"), 0);
            reports.push(format!(
                "{{\"id\": \"chunked_{mib}mib_{io}\", \"size_bytes\": {size}, \
                 \"io\": \"{io}\", \"chunk_bytes\": {chunk}, \
                 \"recv_bytes\": {recv}, \"chunk_frames\": {frames}, \
                 \"aborts\": {aborts}, \"reassembly_gauge\": {gauge}}}",
                io = io_tag(io),
                size = input.len(),
                chunk = CHUNK,
                recv = snap.counter("net.chunk.bytes_total"),
                frames = snap.counter("net.chunk.frames_total"),
                aborts = snap.counter("net.chunk.aborts_total"),
                gauge = snap.gauge("net.chunk.reassembly_bytes"),
            ));

            group.throughput(Throughput::Bytes(input.len() as u64));
            group.bench_function(format!("chunked_{mib}mib_{}", io_tag(io)), |b| {
                b.iter(|| black_box(ship_raw(&client, &input)))
            });
            server.shutdown().unwrap();
        }
    }

    // End-to-end: the sender enforces the feed once, then ships the
    // enforced bytes; each call site is invoked once per ship.
    let compiled = feed_compiled();
    let feed = feed_xml(4 * MIB);
    for io in IO_MODES {
        let metrics = fresh_registry();
        let (server, store, client) = daemon(io, metrics.clone());

        store.keep.store(true, Ordering::Relaxed);
        let (enforced, invocations) = enforce_and_ship(&client, &compiled, &feed);
        store.keep.store(false, Ordering::Relaxed);
        let received = std::mem::take(&mut *store.kept.lock().unwrap());
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("net.chunk.bytes_total"), enforced.len() as u64);
        assert_eq!(snap.counter("net.chunk.aborts_total"), 0);
        assert_eq!(snap.gauge("net.chunk.reassembly_bytes"), 0);
        assert_eq!(
            invocations, FEED_CALL_SITES,
            "each call site is invoked once"
        );
        assert!(
            received == enforced,
            "the receiver got other bytes than were enforced"
        );
        reports.push(format!(
            "{{\"id\": \"enforced_chunked_4mib_{io}\", \"size_bytes\": {size}, \
             \"io\": \"{io}\", \"chunk_bytes\": {chunk}, \
             \"recv_bytes\": {recv}, \"chunk_frames\": {frames}, \
             \"aborts\": 0, \"reassembly_gauge\": 0, \
             \"call_sites\": {FEED_CALL_SITES}, \"invocations\": {invocations}, \
             \"recv_equals_enforced\": {same}}}",
            io = io_tag(io),
            size = feed.len(),
            chunk = CHUNK,
            recv = snap.counter("net.chunk.bytes_total"),
            frames = snap.counter("net.chunk.frames_total"),
            same = received == enforced,
        ));

        group.throughput(Throughput::Bytes(feed.len() as u64));
        group.bench_function(format!("enforced_chunked_4mib_{}", io_tag(io)), |b| {
            b.iter(|| black_box(enforce_and_ship(&client, &compiled, black_box(&feed)).1))
        });
        server.shutdown().unwrap();
    }

    // The two ends of a chunked ship, on one enforced ~1 MiB feed.
    let (enforced, _) = enforce_feed(&compiled, &feed_xml(MIB));
    let three_passes = || {
        validate_xml_stream(&enforced, &compiled).unwrap();
        ITree::from_xml(&axml_xml::parse_document(&enforced).unwrap().root).unwrap()
    };
    let tree = three_passes();
    assert_eq!(read_validated(&enforced, &compiled).unwrap(), tree);
    let compact = axml_xml::WriteOptions::compact();
    let mut written = String::new();
    tree.write_xml(&mut written).unwrap();
    assert_eq!(written, enforced, "the tree writer is the DOM writer");
    group.throughput(Throughput::Bytes(enforced.len() as u64));
    group.bench_function("receive_1mib_one_pass", |b| {
        b.iter(|| read_validated(black_box(&enforced), &compiled).unwrap())
    });
    group.bench_function("receive_1mib_dom", |b| b.iter(three_passes));
    group.bench_function("write_1mib_tree", |b| {
        b.iter(|| {
            let mut out = String::new();
            black_box(&tree).write_xml(&mut out).unwrap();
            out
        })
    });
    group.bench_function("write_1mib_dom", |b| {
        b.iter(|| axml_xml::element_to_string(&black_box(&tree).to_xml(), &compact))
    });

    group.attach_json("ship_reports", format!("[{}]", reports.join(",")));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
