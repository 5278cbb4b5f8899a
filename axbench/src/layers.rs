//! The per-layer breakdown of a traced run, measured from outside the
//! program in three ways:
//!
//! * spans: the benchmark's own `bench.op` / `bench.invoke` /
//!   `bench.handler` spans joined with the program's `exchange`,
//!   `enforce`, `ship` and `invoke` spans (by parent link on one thread,
//!   by wire request id across daemons);
//! * deltas of the DESIGN.md §8 counters over the untraced window;
//! * replay: each input's layer calls timed again, outside the timed
//!   ops, on the op's own inputs.

use axml_core::invoke::{RefusingInvoker, ScriptedInvoker};
use axml_core::stream::{enforce_stream_with, StreamOptions};
use axml_net::{wire, ChunkAssembler};
use axml_obs::{Snapshot, SpanRecord};
use axml_peer::RECEIVE_METHOD;
use axml_schema::{validate, ITree};
use axml_services::soap;
use axml_xml::{element_to_string, parse_document, WriteOptions};
use std::collections::HashMap;
use std::time::Instant;

use crate::rig::Rig;
use crate::workload::{answers, Expect, Input, Kind, CHUNK_BYTES};

/// Counter and histogram movement between two registry snapshots.
pub struct Delta<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl<'a> Delta<'a> {
    /// The movement from `before` to `after`.
    pub fn new(before: &'a Snapshot, after: &'a Snapshot) -> Self {
        Delta { before, after }
    }

    /// How much counter `name` grew.
    pub fn counter(&self, name: &str) -> f64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name)) as f64
    }

    /// Mean of the observations histogram `name` received, divided by
    /// `scale` (0 when it received none).
    pub fn hist_mean(&self, name: &str, scale: f64) -> f64 {
        let get = |s: &Snapshot| s.histograms.get(name).map_or((0, 0), |h| (h.count, h.sum));
        let (c0, s0) = get(self.before);
        let (c1, s1) = get(self.after);
        ratio(
            s1.saturating_sub(s0) as f64 / scale,
            c1.saturating_sub(c0) as f64,
        )
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The per-layer metrics that come from the §8 registry.
pub fn registry_metrics(d: &Delta, ops: f64, out: &mut Vec<(&'static str, f64, &'static str)>) {
    let after = d.after;
    let calls = d.counter("client.calls_total");
    out.extend([
        ("net.call_us", d.hist_mean("client.call_ns", 1e3), "us"),
        ("net.calls_per_op", ratio(calls, ops), "count/op"),
        (
            "net.retries_per_call",
            ratio(d.counter("client.retries_total"), calls),
            "ratio",
        ),
        (
            "net.busy_share",
            ratio(
                d.counter("server.busy_total"),
                d.counter("server.requests_total"),
            ),
            "ratio",
        ),
        (
            "net.chunk_frames_per_op",
            ratio(d.counter("net.chunk.frames_total"), ops),
            "count/op",
        ),
        (
            "net.chunk_aborts",
            d.counter("net.chunk.aborts_total"),
            "count",
        ),
        (
            "net.reassembly_bytes_end",
            after.gauge("net.chunk.reassembly_bytes") as f64,
            "B",
        ),
        (
            "core.zero_copy_ratio",
            ratio(
                d.counter("enforce.stream.bytes_copied"),
                d.counter("enforce.stream.bytes_out"),
            ),
            "ratio",
        ),
        (
            "core.stream_fallbacks_per_op",
            ratio(d.counter("enforce.stream.fallbacks"), ops),
            "count/op",
        ),
        (
            "core.subtrees_per_op",
            ratio(d.counter("enforce.stream.subtrees_materialized"), ops),
            "count/op",
        ),
        (
            "core.cache_hit_ratio",
            ratio(
                d.counter("solve_cache.hits_total"),
                d.counter("solve_cache.lookups_total"),
            ),
            "ratio",
        ),
        (
            "core.cache_misses_per_op",
            ratio(d.counter("solve_cache.misses_total"), ops),
            "count/op",
        ),
        (
            "core.cache_evictions_per_op",
            ratio(d.counter("solve_cache.evictions_total"), ops),
            "count/op",
        ),
        (
            "core.solve_us",
            d.hist_mean("solve_cache.solve_ns", 1e3),
            "us",
        ),
        (
            "core.solver_nodes_per_op",
            ratio(d.counter("solver.safe.nodes_total"), ops),
            "count/op",
        ),
    ]);
}

/// The per-layer metrics joined out of the traced window's spans.
pub fn span_metrics(spans: &[SpanRecord], out: &mut Vec<(&'static str, f64, &'static str)>) {
    let mut handlers: HashMap<(&str, &str), u64> = HashMap::new();
    let mut invoke_children: HashMap<u64, u64> = HashMap::new();
    let (mut ops, mut bench_invokes) = (0usize, Vec::new());
    for s in spans {
        match s.name.as_str() {
            "bench.handler" => {
                if let (Some(role), Some(rid)) = (s.field("role"), s.field("rid")) {
                    handlers.insert((role, rid), s.duration_ns);
                }
            }
            "bench.invoke" => {
                bench_invokes.push(us(s.duration_ns));
                if let Some(p) = s.parent {
                    *invoke_children.entry(p).or_default() += s.duration_ns;
                }
            }
            "bench.op" => ops += 1,
            _ => {}
        }
    }
    let (mut exchange, mut enforce_self, mut ship_wire, mut invoke_wire) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let role_durations = |role: &str| -> Vec<f64> {
        handlers
            .iter()
            .filter(|((r, _), _)| *r == role)
            .map(|(_, &d)| us(d))
            .collect()
    };
    for s in spans {
        let wire_gap = |role| {
            let rid = s.field("rid")?;
            let inner = handlers.get(&(role, rid))?;
            Some(us(s.duration_ns.saturating_sub(*inner)))
        };
        match s.name.as_str() {
            "exchange" => exchange.push(us(s.duration_ns)),
            "enforce" => enforce_self.push(us(s
                .duration_ns
                .saturating_sub(invoke_children.get(&s.id).copied().unwrap_or(0)))),
            "ship" => ship_wire.extend(wire_gap("receiver")),
            "invoke" => invoke_wire.extend(wire_gap("provider")),
            _ => {}
        }
    }
    out.extend([
        ("peer.exchange_us", mean(&exchange), "us"),
        ("core.enforce_self_us", mean(&enforce_self), "us"),
        ("net.ship_wire_us", mean(&ship_wire), "us"),
        ("net.invoke_wire_us", mean(&invoke_wire), "us"),
        (
            "peer.receiver_handler_us",
            mean(&role_durations("receiver")),
            "us",
        ),
        (
            "peer.provider_handler_us",
            mean(&role_durations("provider")),
            "us",
        ),
        ("services.invoke_us", mean(&bench_invokes), "us"),
        (
            "services.invokes_per_op",
            ratio(bench_invokes.len() as f64, ops as f64),
            "count/op",
        ),
    ]);
}

/// One input's layer calls, timed again in nanoseconds: each field is
/// the total over the occurrences the op's path makes of that call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    serialize: u64,
    enforce: u64,
    /// Largest input span the sender's streaming enforcement buffered.
    peak_buffer: u64,
    parse: u64,
    from_xml: u64,
    validate: u64,
    soap: u64,
    frame: u64,
    verify: u64,
}

impl Replay {
    /// Field by field, the faster of two replays of the same input.
    fn min(self, o: Replay) -> Replay {
        Replay {
            serialize: self.serialize.min(o.serialize),
            enforce: self.enforce.min(o.enforce),
            peak_buffer: self.peak_buffer.max(o.peak_buffer),
            parse: self.parse.min(o.parse),
            from_xml: self.from_xml.min(o.from_xml),
            validate: self.validate.min(o.validate),
            soap: self.soap.min(o.soap),
            frame: self.frame.min(o.frame),
            verify: self.verify.min(o.verify),
        }
    }

    /// The calls the op's path makes (`validate` is reported for
    /// reference only: the streaming receiver does not call it).
    fn attributed(&self) -> u64 {
        self.serialize
            + self.enforce
            + self.parse
            + self.from_xml
            + self.soap
            + self.frame
            + self.verify
    }
}

fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = std::hint::black_box(f());
    *acc += t.elapsed().as_nanos() as u64;
    v
}

/// Encodes `frames` and decodes them again the way the default
/// (threads) engine reads a connection, reassembling chunked transfers.
fn frame_roundtrip(frames: &[wire::Frame]) {
    let mut buf = Vec::with_capacity(
        frames
            .iter()
            .map(|f| f.payload.len() + wire::HEADER_LEN)
            .sum(),
    );
    for f in frames {
        wire::write_frame(&mut buf, f).expect("frame encodes into memory");
    }
    let mut reader = buf.as_slice();
    let mut asm = ChunkAssembler::new(wire::DEFAULT_MAX_DOC);
    while !reader.is_empty() {
        let f =
            wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME).expect("replayed frame decodes");
        if matches!(
            f.kind,
            wire::FrameType::DocChunkStart
                | wire::FrameType::DocChunk
                | wire::FrameType::DocChunkEnd
        ) {
            asm.accept(&f).expect("replayed transfer reassembles");
        }
        std::hint::black_box(&f);
    }
}

/// The frames a chunked transfer of `text` puts on the wire, digest
/// included, as the sending client cuts them.
fn chunk_frames(name: &str, text: &[u8]) -> Vec<wire::Frame> {
    let mut frames = vec![wire::doc_chunk_start(1, name)];
    let mut digest = axml_support::hash::Fnv64::new();
    let mut count = 0u32;
    for piece in text.chunks(CHUNK_BYTES) {
        digest.update(piece);
        frames.push(wire::doc_chunk(1, count, piece));
        count += 1;
    }
    frames.push(wire::doc_chunk_end(
        1,
        count,
        text.len() as u64,
        digest.finish(),
    ));
    frames
}

/// Replays one op's layer calls on `input`, using the sending and
/// receiving peers' own solver caches.
pub fn replay(rig: &Rig, input: &Input) -> Replay {
    let mut r = Replay::default();
    let kind = rig.kind;
    let script = answers(kind)
        .into_iter()
        .fold(ScriptedInvoker::new(), |s, (def, a)| s.answer(&def.name, a));
    let mut invoker = script.clone();
    let opts = |cache| StreamOptions {
        k: kind.k(),
        cache: Some(cache),
        ..StreamOptions::default()
    };
    let compact = WriteOptions::compact();
    let text = timed(&mut r.serialize, || {
        element_to_string(&input.doc.to_xml(), &compact)
    });
    let exchange = &rig.schemas.exchanges[input.exchange];
    let enforced = timed(&mut r.enforce, || {
        enforce_stream_with(
            exchange,
            &text,
            &opts(rig.sender.solve_cache().clone()),
            &mut invoker,
        )
    });
    let Ok((out, report)) = enforced else {
        return r;
    };
    r.peak_buffer = report.peak_buffer_bytes;
    // Remote service calls: their envelopes and frames.
    let mut envelopes = Vec::new();
    if kind != Kind::Churn {
        for (f, params) in &invoker.log {
            let answer = answers(kind)
                .into_iter()
                .find(|(def, _)| def.name == *f)
                .map(|(_, a)| a)
                .unwrap_or_default();
            timed(&mut r.soap, || {
                let req = soap::request(f, params).to_xml();
                let _ = soap::decode(&req);
                let resp = soap::response(&answer).to_xml();
                let _ = soap::decode(&resp);
                envelopes.push(req);
                envelopes.push(resp);
            });
        }
    }
    let receiver_opts = opts(rig.receiver.solve_cache().clone());
    let name = "s0-0";
    let reply = timed(&mut r.soap, || {
        soap::response(&[ITree::text(name)]).to_xml()
    });
    if kind == Kind::Bulk {
        timed(&mut r.frame, || {
            frame_roundtrip(&chunk_frames(name, out.as_bytes()))
        });
        let verified = timed(&mut r.verify, || {
            enforce_stream_with(
                &rig.schemas.receiver,
                &out,
                &receiver_opts,
                &mut RefusingInvoker,
            )
        });
        if verified.is_ok() {
            let doc = timed(&mut r.parse, || {
                parse_document(&out).expect("enforced feed parses")
            });
            let tree = timed(&mut r.from_xml, || {
                ITree::from_xml(&doc.root).expect("feed decodes")
            });
            timed(&mut r.validate, || {
                validate(&tree, &rig.schemas.receiver).is_ok()
            });
        }
        timed(&mut r.soap, || soap::decode(&reply).is_ok());
    } else {
        let doc = timed(&mut r.parse, || {
            parse_document(&out).expect("enforced output parses")
        });
        let tree = timed(&mut r.from_xml, || {
            ITree::from_xml(&doc.root).expect("output decodes")
        });
        timed(&mut r.validate, || {
            validate(&tree, &rig.schemas.receiver).is_ok()
        });
        let envelope = timed(&mut r.soap, || {
            let env = soap::request(RECEIVE_METHOD, &[ITree::text(name), tree.clone()]).to_xml();
            let _ = soap::decode(&env);
            let _ = soap::decode(&reply);
            env
        });
        envelopes.push(envelope);
        let again = timed(&mut r.serialize, || {
            element_to_string(&tree.to_xml(), &compact)
        });
        timed(&mut r.verify, || {
            enforce_stream_with(
                &rig.schemas.receiver,
                &again,
                &receiver_opts,
                &mut RefusingInvoker,
            )
            .is_ok()
        });
    }
    envelopes.push(reply);
    let frames: Vec<wire::Frame> = envelopes.iter().map(|e| wire::request(1, e)).collect();
    timed(&mut r.frame, || frame_roundtrip(&frames));
    r
}

/// Replays every input `passes` times; per-op means (in µs) of each
/// layer, taking each call's fastest pass per input.
pub fn replay_metrics(
    rig: &Rig,
    inputs: &[Input],
    passes: usize,
    cpu_us_per_op: f64,
    out: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let per_input: Vec<Replay> = inputs
        .iter()
        .map(|input| {
            (1..passes)
                .map(|_| replay(rig, input))
                .fold(replay(rig, input), Replay::min)
        })
        .collect();
    let m = |f: fn(&Replay) -> u64| mean(&per_input.iter().map(|r| us(f(r))).collect::<Vec<_>>());
    let attributed = m(Replay::attributed);
    out.extend([
        ("xml.serialize_us", m(|r| r.serialize), "us"),
        ("xml.parse_us", m(|r| r.parse), "us"),
        ("schema.from_xml_us", m(|r| r.from_xml), "us"),
        ("schema.validate_us", m(|r| r.validate), "us"),
        ("core.stream_enforce_us", m(|r| r.enforce), "us"),
        ("core.stream_verify_us", m(|r| r.verify), "us"),
        ("services.soap_codec_us", m(|r| r.soap), "us"),
        ("net.frame_codec_us", m(|r| r.frame), "us"),
        (
            "other.unattributed_cpu_us",
            cpu_us_per_op - attributed,
            "us",
        ),
        (
            "core.peak_buffer_bytes",
            per_input.iter().map(|r| r.peak_buffer).max().unwrap_or(0) as f64,
            "B",
        ),
    ]);
    let accepted = inputs
        .iter()
        .filter(|i| matches!(i.expect, Expect::Accept { .. }))
        .count();
    println!(
        "# replay: {} inputs ({} accepted) x {} passes, attributed {:.1} us/op of {:.1} us/op CPU",
        inputs.len(),
        accepted,
        passes,
        attributed,
        cpu_us_per_op
    );
}
