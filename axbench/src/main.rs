//! `axbench` — the repository benchmark.
//!
//! ```text
//! axbench --workload <fig1_exchange|bulk_feed|schema_churn> --seed <n>
//!         --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against in-process loopback daemons (default
//! `ServerConfig`), driven as a closed loop by two sender threads that
//! each wait for every reply, beside idle-priority spinners that keep
//! the vCPUs from halting on two of the workloads (see `spin.rs`). Every
//! op is checked against a reference outcome computed beforehand with
//! the DOM pipeline. The last line of standard output is one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer breakdown with
//! `--trace 1`. Lines before it
//! starting with `#` are diagnostics (host steal, CPU, RSS growth, sample
//! counts). Any wrong outcome makes the exit code 1.

mod layers;
mod rig;
mod spin;
mod stats;
mod workload;

use axml_obs::{RingSink, SpanRecord, SpanSink};
use rig::{measure, run_senders, Phase, Rig, Tick, TICK_SECONDS};
use spin::Spinners;
use stats::{median, median_u64, quantile, status_kib, tail};
use std::sync::Arc;
use std::time::Instant;
use workload::{Expect, Input, Kind};

/// Rates and the tail are read from a window's quiet decile: p90 over
/// slices of throughput and goodput, p10 over sub-windows of the tail.
/// Host steal and co-tenant load only ever slow the program down, and
/// they come in bursts; the quiet decile reads the program's own speed
/// as long as a tenth of the window is calm, while a change of the
/// program moves every slice.
const QUIET: f64 = 0.1;

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    Ok(Args {
        kind: Kind::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Attempts and unexpected outcomes across every phase of the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, phase: &Phase) {
        self.attempted += phase.samples.len() as u64;
        for (input, why) in &phase.failures {
            if self.failed < 5 {
                eprintln!("axbench: input {input} failed: {why}");
            }
            self.failed += 1;
        }
    }
}

/// End-to-end figures of one measured window.
struct Window {
    throughput: f64,
    goodput_mib_s: f64,
    cpu_us_per_op: f64,
    /// Accepted-op latencies (ns), in completion order.
    accepted: Vec<u64>,
    /// Refusal latencies (ns), sorted.
    refused: Vec<u64>,
}

impl Window {
    fn all_accepted(&self) -> Vec<u64> {
        let mut all = self.accepted.clone();
        all.sort_unstable();
        all
    }
}

/// Completed ops a slice holds at least. A slice is a run of
/// consecutive ticks merged until it reaches this count, so the slices
/// of every workload carry like sampling noise: a `fig1_exchange` slice
/// lasts one tick, a `bulk_feed` slice most of a second.
const SLICE_OPS: u64 = 100;

/// Totals over a run of consecutive ticks.
#[derive(Debug, Clone, Copy)]
struct Span {
    from_us: u32,
    to_us: u32,
    ops: u64,
    /// Bytes of enforced documents the receiver accepted.
    bytes: u64,
    cpu_ns: u64,
    /// `cpu_ns` less each tick's host steal share (see [`summarize`]).
    ran_ns: f64,
    /// Host steal share weighted by tick length, in microseconds.
    stolen_us: f64,
}

impl Span {
    fn of(tick: &Tick) -> Span {
        Span {
            from_us: tick.from_us,
            to_us: tick.to_us,
            ops: 0,
            bytes: 0,
            cpu_ns: tick.cpu_ns,
            ran_ns: tick.cpu_ns as f64 * (1.0 - tick.steal),
            stolen_us: tick.steal * f64::from(tick.to_us - tick.from_us),
        }
    }

    fn join(self, next: &Span) -> Span {
        Span {
            from_us: self.from_us,
            to_us: next.to_us,
            ops: self.ops + next.ops,
            bytes: self.bytes + next.bytes,
            cpu_ns: self.cpu_ns + next.cpu_ns,
            ran_ns: self.ran_ns + next.ran_ns,
            stolen_us: self.stolen_us + next.stolen_us,
        }
    }

    fn seconds(&self) -> f64 {
        f64::from(self.to_us - self.from_us) / 1e6
    }

    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.seconds()
    }

    fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.ops as f64
    }

    fn steal(&self) -> f64 {
        self.stolen_us / 1e6 / self.seconds()
    }
}

/// Merges consecutive spans, closing each merged span once `done` holds;
/// a remainder that never gets there joins the last closed one.
fn merge(spans: &[Span], done: impl Fn(&Span) -> bool) -> Vec<Span> {
    let mut out = Vec::new();
    let mut open: Option<Span> = None;
    for s in spans {
        let joined = open.map_or(*s, |o| o.join(s));
        if done(&joined) {
            out.push(joined);
            open = None;
        } else {
            open = Some(joined);
        }
    }
    if let Some(rest) = open {
        let last = out.pop().map_or(rest, |l: Span| l.join(&rest));
        out.push(last);
    }
    out
}

/// Cuts a window's samples into its slices (see [`SLICE_OPS`]).
/// Throughput and goodput are each taken from the quiet decile of the
/// slices (see [`QUIET`]), so host steal that spares a tenth of the
/// window does not move them.
///
/// CPU per op is taken over the whole window, less the host's steal
/// share of each tick: the guest kernel charges stolen time to whichever
/// task it interrupted, so process CPU time grows with steal by
/// 1 / (1 - steal) while the program does the same work.
fn summarize(phase: &Phase, ticks: &[Tick], inputs: &[Input]) -> Window {
    let mut spans: Vec<Span> = ticks.iter().map(Span::of).collect();
    let mut accepted = Vec::new();
    let mut refused = Vec::new();
    let first = ticks.first().map_or(0, |t| t.from_us);
    let mut samples: Vec<_> = phase
        .samples
        .iter()
        .filter(|s| s.ok && s.end_us > first)
        .collect();
    samples.sort_by_key(|s| s.end_us);
    for s in samples {
        let i = ticks.partition_point(|t| t.to_us < s.end_us);
        if i == ticks.len() {
            break;
        }
        spans[i].ops += 1;
        match &inputs[s.input as usize].expect {
            Expect::Accept { bytes, .. } => {
                spans[i].bytes += bytes;
                accepted.push(u64::from(s.latency_ns));
            }
            _ => refused.push(u64::from(s.latency_ns)),
        }
    }
    refused.sort_unstable();
    let slices = merge(&spans, |s| s.ops >= SLICE_OPS);
    let thr: Vec<f64> = slices.iter().map(Span::ops_per_s).collect();
    let good: Vec<f64> = slices
        .iter()
        .map(|s| s.bytes as f64 / f64::from(1 << 20) / s.seconds())
        .collect();
    let ticks_per_second = (1.0 / TICK_SECONDS).round() as usize;
    let seconds: Vec<Span> = spans
        .chunks(ticks_per_second)
        .map(|c| c[1..].iter().fold(c[0], |a, t| a.join(t)))
        .collect();
    println!(
        "# per second (ops/s @ host steal % / CPU us per op): {}",
        seconds
            .iter()
            .map(|s| {
                format!(
                    "{:.0}@{:.0}/{:.0}",
                    s.ops_per_s(),
                    100.0 * s.steal(),
                    s.cpu_us_per_op()
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    );
    let q = |v: &[f64], p| quantile(v, p).unwrap_or(0.0);
    println!(
        "# {} slices of {SLICE_OPS}+ ops ({:.2} s median); ops/s p10 {:.0} p50 {:.0} p90 {:.0}",
        slices.len(),
        q(&slices.iter().map(Span::seconds).collect::<Vec<_>>(), 0.5),
        q(&thr, 0.1),
        q(&thr, 0.5),
        q(&thr, 0.9)
    );
    let whole = spans[1..].iter().fold(spans[0], |a, t| a.join(t));
    let cpu_us_per_op = whole.ran_ns / 1e3 / whole.ops as f64;
    println!(
        "# CPU us per op over the window: {:.1} as charged, {cpu_us_per_op:.1} less host steal ({:.1} %)",
        whole.cpu_us_per_op(),
        100.0 * whole.steal()
    );
    Window {
        throughput: q(&thr, 1.0 - QUIET),
        goodput_mib_s: q(&good, 1.0 - QUIET),
        cpu_us_per_op,
        accepted,
        refused,
    }
}

/// The tail percentile, taken per sub-window of consecutive accepted
/// ops (each just large enough to leave ten samples beyond the rank)
/// and reported as the lower decile over sub-windows. A tail reacts to
/// host steal of a few percent, which comes in bursts through a window;
/// the quiet decile of the sub-windows still reads the program's own
/// tail, and a program change moves every sub-window.
fn tail_over_subwindows(w: &Window, pct: f64) -> f64 {
    let need = (100.0 * stats::MIN_BEYOND as f64 / (100.0 - pct)).ceil() as usize + 1;
    let mut groups: Vec<Vec<u64>> = w.accepted.chunks(need).map(<[u64]>::to_vec).collect();
    if groups.len() > 1 && groups.last().is_some_and(|g| g.len() < need) {
        let short = groups.pop().expect("checked");
        groups.last_mut().expect("checked").extend(short);
    }
    let tails: Vec<stats::Tail> = groups
        .iter_mut()
        .filter_map(|g| {
            g.sort_unstable();
            tail(g, pct)
        })
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value as f64 / 1e3).collect();
    let min_beyond = tails.iter().map(|t| t.beyond).min().unwrap_or(0);
    println!(
        "# latency_tail_us: p{pct} in each of {} sub-windows of {need}+ accepted ops \
         ({} in all, at least {min_beyond} beyond the rank in each), lower decile of: {}",
        tails.len(),
        w.accepted.len(),
        values
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    quantile(&values, QUIET).unwrap_or(0.0)
}

fn print_result(correct: bool, tally: &Tally, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Brings the workload up `times` times, each followed by its warm-up
/// pass; keeps the last rig running. Returns it with the setup times.
fn set_up(
    kind: Kind,
    inputs: &[Input],
    tally: &mut Tally,
    times: usize,
    traced: bool,
) -> (Rig, Vec<f64>) {
    let mut rig: Option<Rig> = None;
    let mut secs = Vec::new();
    for _ in 0..times {
        if let Some(old) = rig.take() {
            old.shut_down();
        }
        let t0 = Instant::now();
        let fresh = Rig::bring_up(kind, traced);
        let warm = run_senders(&fresh, inputs, false, |_| {});
        secs.push(t0.elapsed().as_secs_f64());
        tally.add(&warm);
        rig = Some(fresh);
    }
    (rig.expect("at least one setup"), secs)
}

fn end_to_end(
    args: &Args,
    inputs: &[Input],
    spin: &Spinners,
    tally: &mut Tally,
) -> Vec<(&'static str, f64, &'static str)> {
    let (rig, setups) = set_up(args.kind, inputs, tally, args.kind.setups(), false);
    let rss_warm = status_kib("VmRSS");
    let (phase, ticks) = measure(&rig, inputs, args.seconds, spin, || {});
    tally.add(&phase);
    let rss_end = status_kib("VmRSS");
    let hwm = status_kib("VmHWM");
    rig.shut_down();
    let w = summarize(&phase, &ticks, inputs);
    let all = w.all_accepted();
    let tail_us = tail_over_subwindows(&w, args.kind.tail_pct());
    let cpu_s: u64 = ticks.iter().map(|t| t.cpu_ns).sum();
    let steal = median(&ticks.iter().map(|t| t.steal).collect::<Vec<_>>()).unwrap_or(0.0);
    println!("# setup_s per bring-up: {setups:?}");
    println!(
        "# window: {:.1} s, {} accepted and {} refused ops, {} ticks, median tick host steal {:.1} %, program CPU {:.2} s",
        args.seconds,
        all.len(),
        w.refused.len(),
        ticks.len(),
        100.0 * steal,
        cpu_s as f64 / 1e9
    );
    let q = |p: f64| tail(&all, p).map_or(0.0, |t| t.value as f64 / 1e3);
    println!(
        "# accepted latency us: p10 {:.0}, p50 {:.0}, p75 {:.0}, p90 {:.0}, p95 {:.0}, p99 {:.0}",
        q(10.0),
        q(50.0),
        q(75.0),
        q(90.0),
        q(95.0),
        q(99.0)
    );
    let growth = rss_end as f64 - rss_warm as f64;
    println!(
        "# rss_kib: end of warm-up {rss_warm}, end of run {rss_end} ({:+.1} %){}",
        100.0 * growth / rss_warm.max(1) as f64,
        // The window's own samples take up to about a MiB; growth past
        // that and past 5 % is the program's.
        if growth > (0.05 * rss_warm as f64).max(4096.0) {
            ", GROWTH"
        } else {
            ""
        }
    );
    vec![
        ("setup_s", median(&setups).unwrap_or(0.0), "s"),
        ("throughput_ops_s", w.throughput, "1/s"),
        (
            "latency_p50_us",
            median_u64(&all).unwrap_or(0.0) / 1e3,
            "us",
        ),
        ("latency_tail_us", tail_us, "us"),
        (
            "refusal_p50_us",
            median_u64(&w.refused).unwrap_or(0.0) / 1e3,
            "us",
        ),
        ("goodput_mib_s", w.goodput_mib_s, "MiB/s"),
        ("cpu_us_per_op", w.cpu_us_per_op, "us"),
        ("peak_rss_mib", hwm as f64 / 1024.0, "MiB"),
    ]
}

fn per_layer(
    args: &Args,
    inputs: &[Input],
    spin: &Spinners,
    tally: &mut Tally,
) -> Vec<(&'static str, f64, &'static str)> {
    let half = args.seconds / 2.0;
    // Untraced window: throughput baseline, CPU per op, registry deltas.
    // Set up as often as an end-to-end run does: the process's first rig
    // runs markedly slower than later ones, so the baseline must not be
    // the first.
    let (rig, _) = set_up(args.kind, inputs, tally, args.kind.setups(), false);
    let before = axml_obs::global().snapshot();
    let (phase, ticks) = measure(&rig, inputs, half, spin, || {});
    let after = axml_obs::global().snapshot();
    tally.add(&phase);
    rig.shut_down();
    let plain = summarize(&phase, &ticks, inputs);
    let mut out = Vec::new();
    layers::registry_metrics(
        &layers::Delta::new(&before, &after),
        phase.samples.len() as f64,
        &mut out,
    );

    // Traced window: the same rig with span wrappers and a ring sink.
    let ring = RingSink::new(1 << 18);
    let sink: Arc<dyn SpanSink> = ring.clone();
    axml_obs::install_sink(Arc::clone(&sink));
    let (rig, _) = set_up(args.kind, inputs, tally, 1, true);
    ring.drain();
    let mut spans: Vec<SpanRecord> = Vec::new();
    let (phase, ticks) = measure(&rig, inputs, half, spin, || spans.extend(ring.drain()));
    spans.extend(ring.drain());
    axml_obs::uninstall_sink(&sink);
    tally.add(&phase);
    let traced = summarize(&phase, &ticks, inputs);
    layers::span_metrics(&spans, &mut out);
    // Each call's fastest of several passes; churn's 2 048 inputs cost
    // about a millisecond each, so one pass there.
    let passes = if args.kind == Kind::Churn { 1 } else { 10 };
    layers::replay_metrics(&rig, inputs, passes, plain.cpu_us_per_op, &mut out);
    rig.shut_down();
    let bench_op: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "bench.op")
        .map(|s| s.duration_ns as f64 / 1e3)
        .collect();
    println!(
        "# traced: {} spans; bench.op mean {:.1} us over {} ops (cross-check for peer.exchange_us)",
        spans.len(),
        layers::ratio(bench_op.iter().sum(), bench_op.len() as f64),
        bench_op.len()
    );
    println!(
        "# throughput untraced {:.1} 1/s, traced {:.1} 1/s",
        plain.throughput, traced.throughput
    );
    out.push((
        "obs.trace_overhead_share",
        1.0 - layers::ratio(traced.throughput, plain.throughput),
        "ratio",
    ));
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("axbench: {e}");
            eprintln!(
                "usage: axbench --workload <fig1_exchange|bulk_feed|schema_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Started before anything else, so that no thread of the program
    // runs without them.
    let spin = Spinners::start(args.kind.spinners());
    let (inputs, digest) = workload::inputs(args.kind, args.seed);
    println!(
        "# workload {} seed {} seconds {} trace {}: {} inputs (digest {digest:016x}), {} sender threads, {} spinners, available_parallelism {}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs.len(),
        rig::SENDERS,
        spin.count(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&args, &inputs, &spin, &mut tally)
    } else {
        end_to_end(&args, &inputs, &spin, &mut tally)
    };
    spin.stop();
    let correct = tally.failed == 0 && tally.attempted > 0;
    print_result(correct, &tally, &metrics);
    if !correct {
        std::process::exit(1);
    }
}
