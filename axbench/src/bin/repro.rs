//! Reproductions of the defects the benchmark surfaces (see NOTES.md).
//!
//! ```text
//! cargo run --release --manifest-path axbench/Cargo.toml --bin repro -- nagle
//! cargo run --release --manifest-path axbench/Cargo.toml --bin repro -- stack <pairs>
//! cargo run --release --manifest-path axbench/Cargo.toml --bin repro -- cache-mem
//! ```
//!
//! * `nagle` — ships the same 1 MiB document 100 times as a chunked
//!   transfer to a loopback daemon, once through `NetClient` (whose
//!   sockets keep Nagle's algorithm on) and once through a raw socket with
//!   `TCP_NODELAY` that writes the identical frame sequence, and prints
//!   both latency profiles.
//! * `stack <pairs>` — safe-rewrites one mirror-chain exhibit with
//!   `2 * pairs + 1` children on a thread with a 2 MiB stack, the size
//!   Rust gives spawned threads by default. Past roughly 1 500 children
//!   the process aborts with a stack overflow.
//! * `cache-mem` — fills a default-capacity `SolveCache` with distinct
//!   `schema_churn` games and prints the resident memory per entry.

use axml_core::invoke::ScriptedInvoker;
use axml_core::rewrite::Rewriter;
use axml_core::solve_cache::{SolveCache, DEFAULT_CAPACITY};
use axml_net::{wire, ClientConfig, Handler, NetClient, NetServer, ServerConfig, WireFault};
use axml_schema::dsl::parse_schema_dsl;
use axml_schema::{Compiled, ITree, NoOracle};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

const MIRROR: &str = include_str!("../mirror.schema");
const LABELS: [&str; 4] = ["line", "note", "memo", "tag"];
const CHUNK: usize = 256 << 10;

/// Stores nothing: answers every chunked document with a fixed reply.
struct Drain;

impl Handler for Drain {
    fn handle(&self, _id: u64, _envelope: &str) -> Result<String, WireFault> {
        Ok("<ok/>".to_owned())
    }

    fn handle_document(&self, _id: u64, _name: &str, _text: &str) -> Result<String, WireFault> {
        Ok("<stored/>".to_owned())
    }
}

fn profile(label: &str, mut ms: Vec<f64>) {
    ms.sort_by(f64::total_cmp);
    let q = |p: f64| ms[((p / 100.0) * (ms.len() - 1) as f64).round() as usize];
    let stalled = ms.iter().filter(|&&m| m >= 30.0).count();
    println!(
        "{label:>22}: p10 {:6.1} ms  p50 {:6.1} ms  p90 {:6.1} ms  max {:6.1} ms  ({stalled}/{} at >= 30 ms)",
        q(10.0),
        q(50.0),
        q(90.0),
        q(100.0),
        ms.len()
    );
}

fn nagle() {
    let server = NetServer::bind("127.0.0.1:0", Arc::new(Drain), ServerConfig::default())
        .expect("bind a loopback daemon");
    let addr = server.local_addr();
    let doc: Vec<u8> = (0..1usize << 20).map(|i| b'a' + (i % 26) as u8).collect();
    let trials = 100;

    let client = NetClient::new(addr, ClientConfig::default()).expect("loopback address");
    let mut ms = Vec::new();
    for _ in 0..trials {
        let t = Instant::now();
        client
            .send_document_chunked(None, "doc", CHUNK, |sink| sink.write_all(&doc))
            .expect("chunked transfer");
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    profile("NetClient (Nagle on)", ms);

    let stream = TcpStream::connect(addr).expect("dial the daemon");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut writer = stream.try_clone().expect("clone the socket");
    let mut reader = BufReader::new(stream);
    wire::write_frame(&mut writer, &wire::hello_with("repro", wire::CAP_CHUNKED)).expect("hello");
    wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).expect("welcome");
    let mut ms = Vec::new();
    for id in 1..=trials {
        let t = Instant::now();
        wire::write_frame(&mut writer, &wire::doc_chunk_start(id, "doc")).expect("start");
        let mut digest = axml_support::hash::Fnv64::new();
        let mut count = 0u32;
        for piece in doc.chunks(CHUNK) {
            digest.update(piece);
            wire::write_frame(&mut writer, &wire::doc_chunk(id, count, piece)).expect("chunk");
            count += 1;
        }
        let end = wire::doc_chunk_end(id, count, doc.len() as u64, digest.finish());
        wire::write_frame(&mut writer, &end).expect("end");
        let reply = wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).expect("reply");
        assert_eq!(
            reply.kind,
            wire::FrameType::Response,
            "transfer {id} answered"
        );
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    profile("raw socket, NODELAY", ms);
    drop((client, writer, reader));
    server.shutdown().expect("daemon shuts down");
}

fn mirror() -> Compiled {
    Compiled::new(
        parse_schema_dsl(MIRROR).expect("mirror schema parses"),
        &NoOracle,
    )
    .expect("mirror schema compiles")
}

/// One exhibit: a title, then `pairs` (Get_Date, label) pairs.
fn exhibit(pairs: usize, code: usize) -> ITree {
    let mut kids = vec![ITree::data("title", "t")];
    for p in 0..pairs {
        kids.push(ITree::func("Get_Date", vec![ITree::data("title", "t")]));
        let label = LABELS[(code >> (2 * (p % 16))) & 3];
        kids.push(ITree::data(label, "x"));
    }
    ITree::elem("r", vec![ITree::elem("exhibit", kids)])
}

fn invoker() -> ScriptedInvoker {
    ScriptedInvoker::new().answer("Get_Date", vec![ITree::data("date", "d")])
}

fn stack(pairs: usize) {
    let compiled = mirror();
    let doc = exhibit(pairs, 0x5A5A);
    println!(
        "safe rewriting of one exhibit with {} children at k = 6 on a 2 MiB stack...",
        2 * pairs + 1
    );
    let outcome = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            Rewriter::new(&compiled)
                .with_k(6)
                .rewrite_safe(&doc, &mut invoker())
                .map(|(out, report)| (out.size(), report.invoked.len()))
        })
        .expect("spawn the rewriting thread")
        .join()
        .expect("rewriting thread panicked");
    println!("completed: {outcome:?}");
}

fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

fn cache_mem() {
    let compiled = mirror();
    let cache = SolveCache::unpublished(DEFAULT_CAPACITY);
    let before = rss_kib();
    let mut rw = Rewriter::new(&compiled).with_k(6).with_cache(&cache);
    for code in 0..DEFAULT_CAPACITY {
        rw.rewrite_safe(&exhibit(6, code), &mut invoker())
            .expect("mirror exhibits rewrite safely at k = 6");
    }
    let grown = rss_kib().saturating_sub(before);
    println!(
        "{} cache entries (capacity {}), resident memory +{:.1} MiB, {:.0} KiB per entry",
        cache.len(),
        cache.capacity(),
        grown as f64 / 1024.0,
        grown as f64 / cache.len() as f64
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["nagle"] => nagle(),
        ["stack", pairs] => stack(pairs.parse().expect("stack takes a pair count")),
        ["cache-mem"] => cache_mem(),
        _ => {
            eprintln!("usage: repro nagle | stack <pairs> | cache-mem");
            std::process::exit(2);
        }
    }
}
