//! `axml-obs` — std-only observability substrate for the Active XML
//! reproduction.
//!
//! Two halves, both free of registry dependencies (DESIGN.md §6):
//!
//! * **Metrics**: a [`Registry`] of named counters, gauges
//!   and fixed-bucket histograms behind atomic handles, snapshot-able to
//!   deterministic JSON (and re-parsable from it — tests assert snapshot
//!   monotonicity through a serialize/parse round trip).
//! * **Spans** ([`span_mod`][crate::span]): hierarchical enter/exit
//!   guards with monotonic durations and key=value fields, delivered to
//!   pluggable sinks — [`RingSink`] in tests, a stderr line sink when
//!   `AXML_TRACE` is set.
//!
//! Library code records into [`global`] by default; anything that needs
//! isolation (parallel tests, per-daemon scraping) threads its own
//! [`Registry`] instead. The full metric-name catalogue and span
//! taxonomy live in DESIGN.md §8.

mod json;
mod metrics;
mod span;

pub use json::{Json, JsonError};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, BYTES_BOUNDS,
    LATENCY_NS_BOUNDS,
};
pub use span::{
    install_sink, now_ns, span, uninstall_sink, RingSink, SpanGuard, SpanRecord, SpanSink,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The process-wide registry. Created on first use with the documented
/// metric catalogue pre-registered, so a snapshot always lists every
/// documented name even before the corresponding code path runs.
pub fn global() -> Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let r = Registry::new();
            register_catalogue(&r);
            r
        })
        .clone()
}

/// Pre-registers the DESIGN.md §8 metric catalogue on `registry` (zero
/// values). Called for [`global`]; daemons call it on per-server
/// registries so `axml stats` scrapes are fully populated from the
/// first frame.
pub fn register_catalogue(registry: &Registry) {
    for name in [
        "solver.safe.solves_total",
        "solver.safe.nodes_total",
        "solver.safe.edges_total",
        "solver.safe.sink_pruned_total",
        "solver.safe.mark_pruned_total",
        "solver.possible.solves_total",
        "solver.possible.nodes_total",
        "solver.possible.edges_total",
        "server.connections_total",
        "server.requests_total",
        "server.responses_ok_total",
        "server.faults_total",
        "server.busy_total",
        "server.timeouts_total",
        "server.frame_too_large_total",
        "server.panics_total",
        "net.chunk.frames_total",
        "net.chunk.bytes_total",
        "net.chunk.aborts_total",
        "client.calls_total",
        "client.attempts_total",
        "client.retries_total",
        "client.faults_total",
        "peer.exchanges_total",
        "peer.exchange_faults_total",
        "peer.validated_total",
        "peer.received_total",
        "services.calls_total",
        "services.call_faults_total",
        "services.fees_cents_total",
        "store.load_total",
        "store.persist_total",
        "store.entries_loaded_total",
        "store.corrupt_discarded_total",
    ] {
        registry.counter(name);
    }
    registry.gauge("server.queue_depth");
    registry.gauge("server.poll.connections");
    registry.gauge("server.poll.buffer_bytes");
    registry.gauge("net.chunk.reassembly_bytes");
    registry.gauge("store.bytes");
    registry.histogram("solver.safe.solve_ns", LATENCY_NS_BOUNDS);
    registry.histogram("solver.possible.solve_ns", LATENCY_NS_BOUNDS);
    registry.histogram("server.frame_bytes", BYTES_BOUNDS);
    registry.histogram("client.call_ns", LATENCY_NS_BOUNDS);
}

static REQUEST_IDS: AtomicU64 = AtomicU64::new(1);

/// A process-unique request id, used to correlate the sender's span tree
/// with the receiver's across the wire (it rides in the frame header).
pub fn next_request_id() -> u64 {
    REQUEST_IDS.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_snapshot_contains_catalogue() {
        let snap = global().snapshot();
        for name in [
            "solver.safe.nodes_total",
            "server.busy_total",
            "client.retries_total",
            "peer.validated_total",
        ] {
            assert!(
                snap.counters.contains_key(name),
                "catalogue missing {name}"
            );
        }
        assert!(snap.gauges.contains_key("server.queue_depth"));
        assert!(snap.histograms.contains_key("solver.safe.solve_ns"));
    }

    #[test]
    fn request_ids_are_unique() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
    }
}
