#!/usr/bin/env bash
# Tier-1 gate: the workspace must build, test, and smoke-bench fully
# offline (no registry crates exist in any Cargo.toml; see DESIGN.md §6).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build (offline, warnings are errors) =="
RUSTFLAGS="${RUSTFLAGS:--D warnings}" cargo build --release --offline --workspace --all-targets

echo "== tier-1: test suite (offline) =="
cargo test -q --offline --workspace

echo "== tier-1: rustdoc (offline, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== tier-1: loopback network tests (hard timeout) =="
# The TCP layer must never wedge the gate: every network-touching suite
# runs under a hard wall-clock cap.
timeout --kill-after=10 120 cargo test -q --offline -p axml-net
timeout --kill-after=10 120 cargo test -q --offline --test net_exchange
timeout --kill-after=10 120 cargo test -q --offline --test cli serve_and_send
# Hostile requests at a live daemon on both engines: 3 000 nested
# elements (in one envelope and chunked), an 80 000-attribute flood on
# the call element, and parameters that would need rewriting (they must
# reach no solver). Each gets an answer, and the daemon still answers
# stats.
timeout --kill-after=10 120 cargo test -q --offline --test robustness -- --exact \
    deep_nesting_gets_a_typed_fault_on_both_engines \
    attribute_flood_is_answered_on_both_engines \
    hostile_parameters_reach_no_solver_on_both_engines

echo "== tier-1: bench smoke run (B1 + B9 loopback exchange, JSON reports) =="
json_dir="$(mktemp -d)"
obs_dir="$(mktemp -d)"
daemon_pid=""
cleanup() {
    if [ -n "$daemon_pid" ]; then kill "$daemon_pid" 2>/dev/null || true; fi
    rm -rf "$json_dir" "$obs_dir"
}
trap cleanup EXIT
AXML_BENCH_SMOKE=1 AXML_BENCH_JSON="$json_dir" \
    cargo bench --offline -p axml-bench --bench b1_safe_vs_schema_size
AXML_BENCH_SMOKE=1 AXML_BENCH_JSON="$json_dir" \
    timeout --kill-after=10 300 \
    cargo bench --offline -p axml-bench --bench b9_peer_exchange
python3 - "$json_dir" <<'EOF'
import json, pathlib, sys
files = sorted(pathlib.Path(sys.argv[1]).glob("BENCH_*.json"))
assert files, "bench smoke run emitted no BENCH_*.json"
names = {f.name for f in files}
assert "BENCH_b9_peer_exchange.json" in names, f"missing B9 report, got {names}"
for f in files:
    report = json.loads(f.read_text())
    assert report["benchmarks"], f"{f.name}: empty benchmark list"
    print(f"{f.name}: {len(report['benchmarks'])} benchmarks, valid JSON")
b9 = json.loads((pathlib.Path(sys.argv[1]) / "BENCH_b9_peer_exchange.json").read_text())
ids = {b["id"] for b in b9["benchmarks"]}
assert "exchange_tcp_loopback" in ids, f"B9 loopback exchange missing: {ids}"
EOF

echo "== tier-1: linear word executor (10^5 children on a 2 MiB stack) =="
# Safe and possible rewriting of one 100 001-child word at k = 1 takes
# a few seconds in release mode. An executor quadratic in the children
# count needs about 20 minutes per run here, and one that recurses per
# child overflows the 2 MiB thread stack at 1 401 children.
timeout --kill-after=10 60 \
    cargo test -q --release --offline --test executor_parity -- --ignored --exact \
    a_hundred_thousand_children_rewrite_on_a_small_stack

echo "== tier-1: observability gate (invariants + live-daemon scrape) =="
timeout --kill-after=10 120 cargo test -q --offline --test obs_invariants

cat > "$obs_dir/star.schema" <<'SCHEMA'
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
element title     = data
element date      = data
element temp      = data
element city      = data
element exhibit   = title.(Get_Date | date)
element performance = data
function Get_Temp : city -> temp
function TimeOut  : data -> (exhibit | performance)*
function Get_Date : title -> date
root newspaper
SCHEMA
printf '%s\n' \
    "<newspaper><title>The Sun</title><date>04/10/2002</date><temp>15</temp></newspaper>" \
    > "$obs_dir/plain.xml"

axml_bin="target/release/axml"
"$axml_bin" serve "$obs_dir/star.schema" 127.0.0.1:0 --name obs-gate \
    > "$obs_dir/serve.out" &
daemon_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$obs_dir/serve.out" 2>/dev/null || true)"
    if [ -n "$addr" ]; then break; fi
    sleep 0.1
done
[ -n "$addr" ] || { echo "daemon never printed its banner"; exit 1; }

# Drive one real exchange through the daemon, then scrape it live.
timeout --kill-after=10 60 \
    "$axml_bin" send "$obs_dir/star.schema" "$addr" "$obs_dir/plain.xml" --name front
timeout --kill-after=10 60 "$axml_bin" stats "$addr" > "$obs_dir/stats.json"
kill "$daemon_pid" 2>/dev/null || true
daemon_pid=""

python3 - "$obs_dir/stats.json" <<'EOF'
import json, sys
snap = json.loads(open(sys.argv[1]).read())
counters, gauges = snap["counters"], snap["gauges"]
# The documented catalogue (DESIGN.md §8) is present in every scrape.
for name in [
    "solver.safe.nodes_total", "solver.safe.sink_pruned_total",
    "solver.safe.mark_pruned_total", "solver.possible.nodes_total",
    "server.requests_total", "server.responses_ok_total",
    "server.faults_total", "server.busy_total", "server.timeouts_total",
    "server.frame_too_large_total", "server.panics_total",
    "client.retries_total", "peer.validated_total", "peer.received_total",
    "solve_cache.lookups_total", "solve_cache.hits_total",
    "solve_cache.misses_total", "solve_cache.insertions_total",
    "solve_cache.evictions_total",
]:
    assert name in counters, f"scrape missing counter {name}"
assert "server.queue_depth" in gauges, "scrape missing server.queue_depth"
assert "solve_cache.entries" in gauges, "scrape missing solve_cache.entries"
assert "server.frame_bytes" in snap["histograms"], "scrape missing frame histogram"
# Cache accounting identity (DESIGN.md §9.2) holds in the live daemon.
assert counters["solve_cache.lookups_total"] == (
    counters["solve_cache.hits_total"] + counters["solve_cache.misses_total"]
), "solve cache accounting identity violated"
# The exchange we just drove is accounted, and exactly once.
assert counters["server.requests_total"] >= 1, "exchange not accounted"
assert counters["peer.received_total"] >= 1, "document receipt not accounted"
assert counters["server.requests_total"] == (
    counters["server.responses_ok_total"] + counters["server.faults_total"]
), "request accounting identity violated"
print(f"stats scrape ok: {len(counters)} counters, "
      f"requests={counters['server.requests_total']}")
EOF

echo "== tier-1: net-poller gate (readiness loop, DESIGN.md §12) =="
# One connection core (DESIGN.md §12.4): fault frames are built in
# net/src/conn.rs only. The engines and the simulator's server actors
# drive it; none of them may build a WireFault of its own. The one
# exception is the Handler::handle_document default refusal, an
# application answer rather than a protocol one.
rogue_faults=$(
    for f in crates/net/src/server.rs crates/net/src/poll_server.rs; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            /fn handle_document/ { allow = 1 }
            /WireFault::new\(/ { if (!allow) print f ":" NR ": " $0; allow = 0 }' "$f"
    done
    grep -n 'WireFault::new(' crates/sim/src/world.rs | sed 's|^|crates/sim/src/world.rs:|' || true
)
if [ -n "$rogue_faults" ]; then
    echo "fault frames built outside the connection core (net::conn):"
    echo "$rogue_faults"
    exit 1
fi
# The poll engine's own suites: decoder split-fuzz parity and the
# 5k-connection scale smoke, plus the core's property test and the
# three-way (threads / poll / simulator) protocol-fault parity — all
# under one wall-clock budget (the rest of the transport matrix in
# net_exchange already ran above, both engines).
poller_started=$(date +%s)
timeout --kill-after=10 60 cargo test -q --offline --test poller_frames
timeout --kill-after=10 60 cargo test -q --offline --test poller_scale
timeout --kill-after=10 60 cargo test -q --offline --test conn_core
timeout --kill-after=10 60 cargo test -q --offline --test net_exchange -- \
    matrix_protocol_faults_are_byte_identical
poller_elapsed=$(( $(date +%s) - poller_started ))
if [ "$poller_elapsed" -ge 60 ]; then
    echo "poller suites blew their wall-clock budget: ${poller_elapsed}s >= 60s"
    exit 1
fi
echo "poller suites ok in ${poller_elapsed}s (budget 60s)"

AXML_BENCH_SMOKE=1 AXML_BENCH_JSON="$json_dir" \
    timeout --kill-after=10 300 \
    cargo bench --offline -p axml-bench --bench b13_poller_load
python3 - "$json_dir" <<'EOF'
import json, pathlib, sys
b13 = json.loads((pathlib.Path(sys.argv[1]) / "BENCH_b13_poller_load.json").read_text())
ids = {b["id"] for b in b13["benchmarks"]}
want = {"round_trip_threads_1conn", "round_trip_poll_1conn"}
assert want <= ids, f"B13 variants missing: {want - ids}"
curve = b13["saturation"]
assert curve, "B13 emitted an empty saturation curve"
for point in curve:
    for key in ("conns", "requests", "rps", "p50_ns", "p99_ns", "p999_ns"):
        assert key in point, f"saturation point missing {key}: {point}"
    assert point["p50_ns"] <= point["p99_ns"] <= point["p999_ns"], \
        f"percentiles disordered: {point}"
obs = b13["daemon_obs"]["counters"]
assert obs["server.requests_total"] == (
    obs["server.responses_ok_total"] + obs["server.faults_total"]
), "B13 accounting identity violated"
assert obs["server.requests_total"] == sum(p["requests"] for p in curve), \
    "saturation-curve requests not all accounted by the daemon"
print(f"B13 smoke ok: {len(curve)} points, "
      f"requests={obs['server.requests_total']}")
EOF

# The live-daemon scrape again, poll engine this time: the readiness
# loop must be indistinguishable to ops tooling as well — same
# catalogue, same identity, plus its own fleet gauges.
"$axml_bin" serve "$obs_dir/star.schema" 127.0.0.1:0 --name obs-gate-poll \
    --io poll --shards 2 > "$obs_dir/serve-poll.out" &
daemon_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$obs_dir/serve-poll.out" 2>/dev/null || true)"
    if [ -n "$addr" ]; then break; fi
    sleep 0.1
done
[ -n "$addr" ] || { echo "poll-mode daemon never printed its banner"; exit 1; }
timeout --kill-after=10 60 \
    "$axml_bin" send "$obs_dir/star.schema" "$addr" "$obs_dir/plain.xml" --name front
timeout --kill-after=10 60 "$axml_bin" stats "$addr" > "$obs_dir/stats-poll.json"
kill "$daemon_pid" 2>/dev/null || true
daemon_pid=""
python3 - "$obs_dir/stats-poll.json" <<'EOF'
import json, sys
snap = json.loads(open(sys.argv[1]).read())
counters, gauges = snap["counters"], snap["gauges"]
assert counters["server.requests_total"] >= 1, "poll-mode exchange not accounted"
assert counters["server.requests_total"] == (
    counters["server.responses_ok_total"] + counters["server.faults_total"]
), "poll-mode accounting identity violated"
for name in ("server.poll.connections", "server.poll.buffer_bytes"):
    assert name in gauges, f"poll-mode scrape missing gauge {name}"
assert gauges["server.poll.connections"] >= 1, "scraping connection not gauged"
print(f"poll-mode scrape ok: requests={counters['server.requests_total']}, "
      f"live conns={gauges['server.poll.connections']}")
EOF

echo "== tier-1: solver-cache gate (determinism suite + B11 smoke) =="
timeout --kill-after=10 180 cargo test -q --offline --test cache_determinism
AXML_BENCH_SMOKE=1 AXML_BENCH_JSON="$json_dir" \
    timeout --kill-after=10 300 \
    cargo bench --offline -p axml-bench --bench b11_solve_cache
python3 - "$json_dir" <<'EOF'
import json, pathlib, sys
b11 = json.loads((pathlib.Path(sys.argv[1]) / "BENCH_b11_solve_cache.json").read_text())
ids = {b["id"] for b in b11["benchmarks"]}
want = {"cold_sequential", "warm_sequential"}
assert want <= ids, f"B11 variants missing: {want - ids}"
snap = b11["solve_cache_snapshot"]["counters"]
assert snap["solve_cache.hits_total"] > 0, "warm B11 runs never hit the cache"
assert snap["solve_cache.lookups_total"] == (
    snap["solve_cache.hits_total"] + snap["solve_cache.misses_total"]
), "B11 cache accounting identity violated"
print(f"B11 smoke ok: {sorted(ids)}, "
      f"hit rate {snap['solve_cache.hits_total']}/{snap['solve_cache.lookups_total']}")
EOF

echo "== tier-1: store gate (persistent warm state, DESIGN.md §11) =="
# Snapshot/matrix round-trip and corruption suites, the solved-game
# parity corpus (its last line pins the snapshot bytes), the B12
# warm-start bench, and a live cold→warm daemon restart — all under a
# 60s budget like the sim gate (the suites are pure compute plus a few
# MB of I/O).
store_started=$(date +%s)
timeout --kill-after=10 60 cargo test -q --offline -p axml-store
timeout --kill-after=10 60 cargo test -q --offline --test game_parity
timeout --kill-after=10 60 cargo test -q --offline --test store_roundtrip
timeout --kill-after=10 60 cargo test -q --offline --test store_robustness
timeout --kill-after=10 60 cargo test -q --offline --test store_restart
store_elapsed=$(( $(date +%s) - store_started ))
if [ "$store_elapsed" -ge 60 ]; then
    echo "store suites blew their wall-clock budget: ${store_elapsed}s >= 60s"
    exit 1
fi
echo "store suites ok in ${store_elapsed}s (budget 60s)"

AXML_BENCH_SMOKE=1 AXML_BENCH_JSON="$json_dir" \
    timeout --kill-after=10 300 \
    cargo bench --offline -p axml-bench --bench b12_store_warm_start
python3 - "$json_dir" <<'EOF'
import json, pathlib, sys
b12 = json.loads((pathlib.Path(sys.argv[1]) / "BENCH_b12_store_warm_start.json").read_text())
ids = {b["id"] for b in b12["benchmarks"]}
want = {"cold_start_first_request", "warm_start_first_request",
        "cold_start_first_100", "warm_start_first_100",
        "snapshot_load", "snapshot_persist"}
assert want <= ids, f"B12 variants missing: {want - ids}"
ws = b12["warm_start"]
assert ws["entries"] > 0 and ws["snapshot_bytes"] > 0, f"empty snapshot: {ws}"
assert ws["cold"]["misses"] > 0, "cold start never exercised the solver"
assert ws["warm"]["misses"] == 0, (
    f"warm-snapshot start missed {ws['warm']['misses']} times in the "
    f"first {ws['first_requests']} requests")
assert ws["warm"]["hits"] == ws["warm"]["lookups"], "warm accounting broken"
print(f"B12 smoke ok: {ws['entries']} entries / {ws['snapshot_bytes']} bytes, "
      f"warm hit rate {ws['warm']['hits']}/{ws['warm']['lookups']}")
EOF

# Live restart fidelity: a daemon populates its cache enforcing an
# intensional document, snapshots at graceful shutdown, and its
# replacement must resume warm — first request answered without one
# solver miss, asserted through the real stats scrape.
cat > "$obs_dir/sched.schema" <<'SCHEMA'
element r       = exhibit*
element exhibit = title.date
element title   = data
element date    = data
function Get_Date    : title -> date
function Get_Program : data -> r
root r
SCHEMA
cat > "$obs_dir/prog.xml" <<'XML'
<r><exhibit><title>Monet</title><int:fun xmlns:int="http://www.activexml.com/ns/int" methodName="Get_Date"><int:params><int:param><title>Monet</title></int:param></int:params></int:fun></exhibit></r>
XML
store_dir="$obs_dir/warm"
# Always run in the background: `exec` makes `$!` the daemon itself, so
# `kill "$daemon_pid"` stops the daemon rather than only its subshell.
serve_store() {
    exec "$axml_bin" serve "$obs_dir/sched.schema" 127.0.0.1:0 --name store-gate \
        --doc program="$obs_dir/prog.xml" --export Get_Program=program \
        --builtin-services --store-dir "$store_dir" "$@"
}
serve_store --requests 2 > "$obs_dir/serve-cold.out" 2> "$obs_dir/serve-cold.err" &
daemon_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$obs_dir/serve-cold.out" 2>/dev/null || true)"
    if [ -n "$addr" ]; then break; fi
    sleep 0.1
done
[ -n "$addr" ] || { echo "cold store daemon never printed its banner"; exit 1; }
timeout --kill-after=10 60 \
    "$axml_bin" invoke "$obs_dir/sched.schema" "$addr" Get_Program Monet > /dev/null
timeout --kill-after=10 60 "$axml_bin" stats "$addr" > "$obs_dir/stats-cold.json"
# Request 2 hits the quota: the daemon exits gracefully, snapshotting.
timeout --kill-after=10 60 \
    "$axml_bin" invoke "$obs_dir/sched.schema" "$addr" Get_Program Monet > /dev/null
wait "$daemon_pid"
daemon_pid=""
[ -f "$store_dir/solve_cache.axsc" ] || { echo "graceful shutdown left no snapshot"; exit 1; }

serve_store > "$obs_dir/serve-warm.out" 2> "$obs_dir/serve-warm.err" &
daemon_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$obs_dir/serve-warm.out" 2>/dev/null || true)"
    if [ -n "$addr" ]; then break; fi
    sleep 0.1
done
[ -n "$addr" ] || { echo "warm store daemon never printed its banner"; exit 1; }
timeout --kill-after=10 60 \
    "$axml_bin" invoke "$obs_dir/sched.schema" "$addr" Get_Program Monet > /dev/null
timeout --kill-after=10 60 "$axml_bin" stats "$addr" > "$obs_dir/stats-warm.json"
kill "$daemon_pid" 2>/dev/null || true
daemon_pid=""
grep -q "^warm start: " "$obs_dir/serve-warm.err" \
    || { echo "restarted daemon never reported its warm start"; exit 1; }

python3 - "$obs_dir/stats-cold.json" "$obs_dir/stats-warm.json" <<'EOF'
import json, sys
cold = json.loads(open(sys.argv[1]).read())["counters"]
warm = json.loads(open(sys.argv[2]).read())["counters"]
# The cold daemon really solved games for this traffic...
assert cold["solve_cache.misses_total"] >= 1, "cold daemon never solved a game"
# ...and the restarted daemon resumed warm: snapshot loaded, first
# request answered entirely from it.
assert warm["store.load_total"] >= 1, "restarted daemon never consulted the store"
assert warm["store.entries_loaded_total"] >= 1, "snapshot loaded no entries"
assert warm["store.corrupt_discarded_total"] == 0, "snapshot discarded as corrupt"
assert warm["solve_cache.hits_total"] >= 1, "first post-restart request missed the warm cache"
assert warm["solve_cache.misses_total"] == 0, (
    f"restart was not warm: {warm['solve_cache.misses_total']} misses")
print(f"restart scrape ok: cold misses={cold['solve_cache.misses_total']}, "
      f"warm loaded={warm['store.entries_loaded_total']} "
      f"hits={warm['solve_cache.hits_total']} misses=0")
EOF

echo "== tier-1: sim gate (seeded fault injection, DESIGN.md §10) =="
# One validate-or-rewrite (DESIGN.md §4, core::rewrite): the simulator
# and the peer enforce through core::rewrite's entry points (enforce_with,
# enforce_forest, and core::stream's text pipeline around them), so the
# goldens pin the production path. Outside their test modules, neither may call the rewriter's
# rewrite_safe/rewrite_possible itself.
rogue_rewrites=$(
    for f in crates/sim/src/*.rs crates/peer/src/*.rs; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { skip = 1 }
            skip && /^}/ { skip = 0; next }
            !skip && /rewrite_(safe|possible)\(/ { print f ":" NR ": " $0 }' "$f"
    done
)
if [ -n "$rogue_rewrites" ]; then
    echo "validate-or-rewrite copied outside core::rewrite:"
    echo "$rogue_rewrites"
    exit 1
fi
# The deterministic simulator suites: ≥1000 fresh seeds plus the full
# regression corpus (regressions/sim/*.seeds replays automatically via
# the property harness), the ported protocol-fault tests, and the golden
# transcripts — all under one wall-clock budget. Virtual time means the
# whole batch simulates minutes of network traffic in seconds; a budget
# blowout signals a real-sleep or livelock regression, so it fails hard.
sim_started=$(date +%s)
timeout --kill-after=10 60 cargo test -q --offline --test sim_invariants
timeout --kill-after=10 60 cargo test -q --offline --test sim_faults
timeout --kill-after=10 60 cargo test -q --offline --test golden_transcripts
timeout --kill-after=10 60 cargo test -q --offline -p axml-sim
# Fleet soak (DESIGN.md §10.5): the reduced 16-peer gate plus the full
# 100-peer/1000-exchange fleet, strategic game-graph adversaries
# included — determinism and both accounting identities fleet-wide.
timeout --kill-after=10 60 cargo test -q --offline --test sim_soak
sim_elapsed=$(( $(date +%s) - sim_started ))
if [ "$sim_elapsed" -ge 60 ]; then
    echo "sim gate blew its wall-clock budget: ${sim_elapsed}s >= 60s"
    exit 1
fi
echo "sim gate ok in ${sim_elapsed}s (budget 60s)"

echo "== tier-1: receiver-validator gate (streaming validation, DESIGN.md §13) =="
# Receivers validate what they are sent and never rewrite it. Three
# checks: the streaming validator's suites (its verdicts against DOM
# validation, the chunked receiver's one pass against the three passes it
# replaced, and the text pipeline's pinned errors) under one wall-clock
# budget; a guard that keeps core::stream the DOM pipeline around the
# rewriter; and a live daemon scrape showing that the receiver validated
# what it stored.
stream_started=$(date +%s)
timeout --kill-after=10 60 cargo test -q --offline --test stream_parity
timeout --kill-after=10 60 cargo test -q --offline -p axml-schema stream::
stream_elapsed=$(( $(date +%s) - stream_started ))
if [ "$stream_elapsed" -ge 60 ]; then
    echo "streaming suites blew their wall-clock budget: ${stream_elapsed}s >= 60s"
    exit 1
fi
echo "streaming suites ok in ${stream_elapsed}s (budget 60s)"

# One enforcement implementation (DESIGN.md §13.3): core::stream parses,
# decodes and hands the tree to the rewriter. Outside its tests it may
# not drive the pull parser itself, so that a second, incremental
# enforcement engine cannot grow back beside the rewriter.
engine_in_stream=$(
    awk '/^#\[cfg\(test\)\]/ { skip = 1 }
        skip && /^}/ { skip = 0; next }
        !skip && /Reader::new\(|next_event\(/ { print FILENAME ":" NR ": " $0 }' \
        crates/core/src/stream.rs
)
if [ -n "$engine_in_stream" ]; then
    echo "a pull-parser enforcement engine in core::stream:"
    echo "$engine_in_stream"
    exit 1
fi

# Live scrape: the CLI sender enforces before it ships; the receiving
# daemon only validates, and accounts every receipt it validated.
"$axml_bin" serve "$obs_dir/star.schema" 127.0.0.1:0 --name stream-gate \
    > "$obs_dir/serve-stream.out" &
daemon_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$obs_dir/serve-stream.out" 2>/dev/null || true)"
    if [ -n "$addr" ]; then break; fi
    sleep 0.1
done
[ -n "$addr" ] || { echo "stream-gate daemon never printed its banner"; exit 1; }
timeout --kill-after=10 60 \
    "$axml_bin" send "$obs_dir/star.schema" "$addr" "$obs_dir/plain.xml" \
    --name front
timeout --kill-after=10 60 "$axml_bin" stats "$addr" > "$obs_dir/stats-stream.json"
kill "$daemon_pid" 2>/dev/null || true
daemon_pid=""
python3 - "$obs_dir/stats-stream.json" <<'EOF'
import json, sys
snap = json.loads(open(sys.argv[1]).read())
counters = snap["counters"]
assert counters["peer.validated_total"] >= 1, "receive never ran the validator"
assert counters["peer.validated_total"] >= counters["peer.received_total"], \
    "a document was stored without being validated"
print(f"streaming scrape ok: validated={counters['peer.validated_total']}, "
      f"received={counters['peer.received_total']}")
EOF

echo "== tier-1: chunking gate (wire parity + fuzz + 4x-cap ship, DESIGN.md §14) =="
# The chunk protocol's contract (DESIGN.md §14): splitting a document
# into DocChunkStart/DocChunk/DocChunkEnd frames is pure transport —
# received bytes identical to the in-memory enforcement at every chunk
# size, and the corruption taxonomy byte-identical across engines. The
# parity property, the seeded fuzz sweep and the pinned fault messages
# (each under both chunk digests, FNV-1a-64 and XXH64), the digest
# negotiation cases of the three-way protocol-fault matrix, the
# connection core's XXH64 property run and the XXH64 split property
# all run under one wall-clock budget.
#
# The chunked path carries no DOM (DESIGN.md §13.2, §14.4): the receiver
# validates and builds its tree in one pass, and the sender writes the
# enforced tree straight into the chunk frames. Neither function may
# parse into, decode from or encode into `axml_xml::Element`.
dom_on_chunked_path=$(
    awk 'match($0, /^ *(pub )?fn (receive_document_text|send_document_chunked_with)[(<]/) {
            body = 1; found++; indent = $0; sub(/[^ ].*/, "", indent)
        }
        body && /parse_document\(|from_xml\(|\.to_xml\(/ { print FILENAME ":" NR ": " $0 }
        body && $0 == indent "}" { body = 0 }
        END { if (found != 2) print FILENAME ": found " found + 0 " of the 2 chunked-path functions" }' \
        crates/peer/src/net.rs
)
if [ -n "$dom_on_chunked_path" ]; then
    echo "a DOM on the chunked path:"
    echo "$dom_on_chunked_path"
    exit 1
fi
chunk_started=$(date +%s)
timeout --kill-after=10 60 cargo test -q --offline --test chunk_parity
timeout --kill-after=10 60 cargo test -q --offline --test poller_frames -- \
    seeded_chunk_fuzz_taxonomy_matches_across_readers \
    chunk_corruption_messages_are_pinned
timeout --kill-after=10 60 cargo test -q --offline --test net_exchange -- --exact \
    matrix_protocol_faults_are_byte_identical
timeout --kill-after=10 60 cargo test -q --offline --test conn_core -- --exact \
    conn_core_xxh64
timeout --kill-after=10 60 cargo test -q --offline -p axml-support -- hash::
chunk_elapsed=$(( $(date +%s) - chunk_started ))
if [ "$chunk_elapsed" -ge 60 ]; then
    echo "chunking suites blew their wall-clock budget: ${chunk_elapsed}s >= 60s"
    exit 1
fi
echo "chunking suites ok in ${chunk_elapsed}s (budget 60s)"

# The 4x-cap witness: a document >=4x the frame cap ships end to end
# through both engines as a peer ships it — each embedded call invoked
# once, the received bytes the enforced document's compact form — with
# receiver-side buffer accounting. Release mode — the test builds ~17 MB
# of XML.
timeout --kill-after=10 120 \
    cargo test -q --release --offline --test chunk_parity -- --ignored \
    spot_4x_frame_cap_ships_end_to_end

# The stall witness: 200 chunked 1 MiB transfers per engine, fewer than 5
# of them at >= 30 ms. A transfer whose DocChunkEnd waits on the
# receiver's delayed ACK (a socket with Nagle on) takes ~40 ms. Run alone,
# so no other test competes for the CPU while it times.
timeout --kill-after=10 120 \
    cargo test -q --release --offline --test chunk_parity -- --ignored --exact \
    stall_witness_chunked_transfers_never_wait_for_delayed_acks

AXML_BENCH_SMOKE=1 AXML_BENCH_JSON="$json_dir" \
    timeout --kill-after=10 300 \
    cargo bench --offline -p axml-bench --bench b15_chunked_ship
python3 - "$json_dir" <<'EOF'
import json, pathlib, sys
b15 = json.loads((pathlib.Path(sys.argv[1]) / "BENCH_b15_chunked_ship.json").read_text())
ids = {b["id"] for b in b15["benchmarks"]}
want = {"single_1mib_threads", "single_1mib_poll",
        "chunked_16mib_threads", "chunked_16mib_poll",
        "enforced_chunked_4mib_threads", "enforced_chunked_4mib_poll",
        "receive_1mib_one_pass", "receive_1mib_dom",
        "write_1mib_tree", "write_1mib_dom"}
assert want <= ids, f"B15 variants missing: {want - ids}"
reports = b15["ship_reports"]
assert reports, "B15 emitted no ship reports"
frame_cap = 4 << 20
seen_over_cap = False
for r in reports:
    # Receiver-side identities, per configuration: zero aborts, the
    # reassembly buffer fully released, every chunk frame accounted.
    assert r["aborts"] == 0, f"chunked ship aborted: {r}"
    assert r["reassembly_gauge"] == 0, f"reassembly buffer not released: {r}"
    assert r["chunk_frames"] >= 2 + r["recv_bytes"] // r["chunk_bytes"], \
        f"chunk frame undercount: {r}"
    if r["id"].startswith("chunked_"):
        assert r["recv_bytes"] == r["size_bytes"], f"bytes lost on the wire: {r}"
    if r["size_bytes"] >= 4 * frame_cap:
        seen_over_cap = True
    if r["id"].startswith("enforced_"):
        # Full pipeline: the sender enforced once, before the transfer
        # opened, so each call site was invoked once, and the receiver got
        # exactly the enforced bytes.
        assert r["invocations"] == r["call_sites"] > 0, \
            f"call sites not invoked exactly once: {r}"
        assert r["recv_equals_enforced"] is True, \
            f"received bytes differ from the enforced document: {r}"
assert seen_over_cap, "no ship at >=4x the frame cap was measured"
biggest = max(r["size_bytes"] for r in reports)
print(f"B15 smoke ok: {len(reports)} ship reports, largest {biggest} bytes "
      f"({biggest / frame_cap:.1f}x the frame cap)")
EOF

# Live scrape: the CLI ships a document in 16-byte chunks through a real
# daemon, which must expose the net.chunk.* catalogue with the transfer
# accounted and the reassembly gauge back at zero.
"$axml_bin" serve "$obs_dir/star.schema" 127.0.0.1:0 --name chunk-gate \
    > "$obs_dir/serve-chunk.out" &
daemon_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$obs_dir/serve-chunk.out" 2>/dev/null || true)"
    if [ -n "$addr" ]; then break; fi
    sleep 0.1
done
[ -n "$addr" ] || { echo "chunk-gate daemon never printed its banner"; exit 1; }
timeout --kill-after=10 60 \
    "$axml_bin" send "$obs_dir/star.schema" "$addr" "$obs_dir/plain.xml" \
    --name front --chunk-bytes 16 > "$obs_dir/send-chunk.out"
grep -q "in 16-byte chunks" "$obs_dir/send-chunk.out" \
    || { echo "CLI silently fell back to a single frame:"; \
         cat "$obs_dir/send-chunk.out"; exit 1; }
timeout --kill-after=10 60 "$axml_bin" stats "$addr" > "$obs_dir/stats-chunk.json"
kill "$daemon_pid" 2>/dev/null || true
daemon_pid=""
python3 - "$obs_dir/stats-chunk.json" <<'EOF'
import json, sys
snap = json.loads(open(sys.argv[1]).read())
counters, gauges = snap["counters"], snap["gauges"]
for name in ["net.chunk.frames_total", "net.chunk.bytes_total",
             "net.chunk.aborts_total"]:
    assert name in counters, f"scrape missing counter {name}"
assert "net.chunk.reassembly_bytes" in gauges, \
    "scrape missing net.chunk.reassembly_bytes"
# One 16-byte-chunked transfer: many frames, every payload byte counted,
# no aborts, and the reassembly buffer handed off and released.
assert counters["net.chunk.frames_total"] >= 3, "chunked send not accounted"
assert counters["net.chunk.bytes_total"] >= 1, "no chunk payload accounted"
assert counters["net.chunk.aborts_total"] == 0, "clean transfer counted as abort"
assert gauges["net.chunk.reassembly_bytes"] == 0, \
    "reassembly buffer not released after hand-off"
assert counters["peer.received_total"] >= 1, "chunked document receipt not accounted"
print(f"chunk scrape ok: frames={counters['net.chunk.frames_total']}, "
      f"bytes={counters['net.chunk.bytes_total']}, gauge back at 0")
EOF

echo "== tier-1: benchmark gate (axbench builds, its tests pass, a traced bulk_feed is correct) =="
# axbench drives the crates from outside, and its traced replay is the
# one caller that feeds hand-built FNV chunk frames to
# ChunkAssembler::new. A wire change that breaks the benchmark fails
# here rather than in a benchmark run.
cargo build --release --offline --manifest-path axbench/Cargo.toml --bins
cargo test --release --offline --manifest-path axbench/Cargo.toml
timeout --kill-after=10 120 axbench/target/release/axbench \
    --workload bulk_feed --seed 1 --seconds 2 --trace 1 > "$obs_dir/axbench.out"
python3 - "$obs_dir/axbench.out" <<'EOF'
import json, sys
last = open(sys.argv[1]).read().strip().splitlines()[-1]
result = json.loads(last)
assert result["correct"] is True, f"traced bulk_feed run was not correct: {last}"
print(f"axbench smoke ok: attempted={result['attempted']}, failed={result['failed']}")
EOF

echo "== tier-1: green =="
