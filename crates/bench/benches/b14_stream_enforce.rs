//! B14: streaming vs DOM whole-document enforcement.
//!
//! A quote feed — one small `meta` header, a long run of 64 KiB
//! extensional `chunk`s, and a trailing `calls` section holding 0, 1, or
//! 16 `Get_Quote` call sites whose exchange type (`quote*`) forces them
//! to materialize — is enforced two ways at each document size:
//!
//! * `dom_*` — the classical pipeline: parse the whole document, decode
//!   it into an [`ITree`], rewrite, serialize;
//! * `stream_*` — [`enforce_stream_with`]: the chunks are copied straight
//!   from the pull parser to the output string, and only the `calls`
//!   subtree is ever materialized, so peak buffering for materialization
//!   stays proportional to the *active* subtree while the document grows.
//!
//! The JSON report carries one [`StreamReport`] per (size × call-sites)
//! configuration plus the process obs snapshot. The CI gate asserts the
//! bounded-memory claim from these numbers: `peak_buffer_bytes` must stay
//! flat (within 2×) while the document grows 16×, and the
//! `bytes_copied + bytes_rewritten == bytes_out` identity must hold.
//! Sizes: 1→16 MiB in smoke mode, 1→64 MiB otherwise (EXPERIMENTS.md
//! records a 100 MB spot run).

use axml_core::invoke::{Invoker, ScriptedInvoker};
use axml_core::solve_cache::SolveCache;
use axml_core::stream::{enforce_dom, enforce_stream, enforce_stream_with, StreamOptions};
use axml_schema::{Compiled, ITree, NoOracle, Schema};
use axml_support::bench::{criterion_group, criterion_main, smoke_mode, Criterion, Throughput};
use std::hint::black_box;

const MIB: usize = 1 << 20;
const CHUNK_TEXT: usize = 64 << 10;
const CALL_SITES: [usize; 3] = [0, 1, 16];

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

/// A feed of roughly `target_bytes` of XML: 64 KiB text chunks, then a
/// `calls` section with `calls` Get_Quote sites.
fn feed_xml(target_bytes: usize, calls: usize) -> String {
    let mut out = String::with_capacity(target_bytes + 4096);
    out.push_str("<feed><meta>nasdaq 2026-08-08</meta>");
    let chunk_body: String = "abcdefghijklmnopqrstuvwxyz0123456789 "
        .chars()
        .cycle()
        .take(CHUNK_TEXT)
        .collect();
    while out.len() + CHUNK_TEXT < target_bytes {
        out.push_str("<chunk>");
        out.push_str(&chunk_body);
        out.push_str("</chunk>");
    }
    out.push_str("<calls>");
    for i in 0..calls {
        out.push_str(&format!(
            "<int:fun xmlns:int=\"http://www.activexml.com/ns/int\" methodName=\"Get_Quote\">\
             <int:params><int:param><meta>site {i}</meta></int:param></int:params></int:fun>"
        ));
    }
    out.push_str("</calls></feed>");
    out
}

fn invoker() -> ScriptedInvoker {
    ScriptedInvoker::new().answer("Get_Quote", vec![ITree::data("quote", "AXML 42.17")])
}

fn bench(c: &mut Criterion) {
    let compiled = feed_compiled();
    let sizes: &[usize] = if smoke_mode() {
        &[MIB, 4 * MIB, 16 * MIB]
    } else {
        &[MIB, 4 * MIB, 16 * MIB, 64 * MIB]
    };
    let cache = SolveCache::unpublished(256);

    let mut group = c.benchmark_group("b14_stream_enforce");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(1000));

    let mut reports: Vec<String> = Vec::new();
    for &size in sizes {
        for &calls in &CALL_SITES {
            let input = feed_xml(size, calls);
            let opts = StreamOptions {
                k: 1,
                cache: Some(cache.clone()),
                ..StreamOptions::default()
            };
            let mib = size / MIB;

            // Correctness first: streaming output is byte-identical to
            // the DOM pipeline on every configuration measured.
            let (stream_out, rep) = enforce_stream(&compiled, &input, &opts, &mut || {
                Box::new(invoker()) as Box<dyn Invoker + Send>
            })
            .unwrap();
            let (dom_out, _) = enforce_dom(&compiled, &input, &opts, &mut || {
                Box::new(invoker()) as Box<dyn Invoker + Send>
            })
            .unwrap();
            assert_eq!(stream_out, dom_out, "parity broke at {mib} MiB / {calls} calls");
            assert!(!rep.fell_back, "unexpected fallback at {mib} MiB / {calls} calls");
            assert_eq!(rep.bytes_copied + rep.bytes_rewritten, rep.bytes_out);
            reports.push(format!(
                "{{\"size_bytes\": {}, \"call_sites\": {}, \"bytes_out\": {}, \
                 \"bytes_copied\": {}, \"bytes_rewritten\": {}, \
                 \"subtrees_materialized\": {}, \"peak_buffer_bytes\": {}, \
                 \"fell_back\": {}}}",
                input.len(),
                calls,
                rep.bytes_out,
                rep.bytes_copied,
                rep.bytes_rewritten,
                rep.subtrees_materialized,
                rep.peak_buffer_bytes,
                rep.fell_back,
            ));
            drop(stream_out);
            drop(dom_out);

            group.throughput(Throughput::Bytes(input.len() as u64));
            group.bench_function(format!("stream_{mib}mib_{calls}calls"), |b| {
                b.iter(|| {
                    let mut inv = invoker();
                    let (out, _) =
                        enforce_stream_with(&compiled, black_box(&input), &opts, &mut inv).unwrap();
                    black_box(out.len())
                })
            });
            group.bench_function(format!("dom_{mib}mib_{calls}calls"), |b| {
                b.iter(|| {
                    let (out, _) = enforce_dom(&compiled, black_box(&input), &opts, &mut || {
                        Box::new(invoker()) as Box<dyn Invoker + Send>
                    })
                    .unwrap();
                    black_box(out.len())
                })
            });
        }
    }

    group.attach_json("stream_reports", format!("[{}]", reports.join(",")));
    group.attach_json("obs_snapshot", axml_obs::global().snapshot().to_json());
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
