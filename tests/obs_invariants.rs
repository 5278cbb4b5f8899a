//! Invariants of the observability subsystem (DESIGN.md §8).
//!
//! * Solver accounting: on any instance, the lazy product never visits
//!   more nodes than the eager one; pruning counters never exceed the
//!   visit count; the published registry counters agree with the public
//!   `GameStats` figures.
//! * Server accounting: every request is answered exactly once, so
//!   `server.requests_total = server.responses_ok_total +
//!   server.faults_total` — including under Busy backpressure.
//! * Client accounting: `retries = attempts - calls`, bounded by
//!   `calls x (attempts_per_call - 1)`.
//! * Snapshots: concurrent snapshots while writers hammer the registry
//!   serialize to parseable JSON and read monotonically per counter.

use axml::core::awk::{Awk, AwkLimits};
use axml::core::game::{complement_of, BuildMode, Game, Strategy as Play};
use axml::core::solve_cache::{SolveCache, TargetSlot};
use axml::net::{wire, ClientConfig, NetClient, NetServer, ServerConfig};
use axml::obs::{register_catalogue, Registry, Snapshot};
use axml::schema::{Compiled, NoOracle, Schema};
use axml_support::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Star-free regex over names drawn from `syms`.
fn starfree_regex(syms: &'static [&'static str]) -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        select(syms).prop_map(str::to_owned),
        Just("ε".to_owned()),
    ];
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3)
                .prop_map(|parts| format!("({})", parts.join("."))),
            prop::collection::vec(inner.clone(), 1..3)
                .prop_map(|parts| format!("({})", parts.join("|"))),
            inner.prop_map(|r| format!("({r})?")),
        ]
    })
}

const DATA_SYMS: &[&str] = &["a", "b"];
const ALL_SYMS: &[&str] = &["a", "b", "f", "g"];

fn build_schema(out_f: &str, out_g: &str) -> Option<Compiled> {
    let schema = Schema::builder()
        .allow_ambiguous()
        .data_element("a")
        .data_element("b")
        .function("f", "", out_f)
        .function("g", "", out_g)
        .build()
        .ok()?;
    Compiled::new(schema, &NoOracle).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lazy-mode safe games never visit more product nodes than eager
    /// ones, pruning never outruns visiting, and the per-registry
    /// counters published by `solve_in` agree with `GameStats`.
    #[test]
    fn solver_counters_obey_the_game_bounds(
        out_f in starfree_regex(ALL_SYMS),
        out_g in starfree_regex(DATA_SYMS),
        word_names in prop::collection::vec(select(ALL_SYMS), 0..4),
        target_text in starfree_regex(ALL_SYMS),
        k in 0u32..3,
    ) {
        let Some(compiled) = build_schema(&out_f, &out_g) else {
            return Ok(());
        };
        let word: Vec<axml::automata::Symbol> = word_names
            .iter()
            .map(|n| compiled.alphabet().lookup(n).unwrap())
            .collect();
        let mut ab = compiled.alphabet().clone();
        let Ok(target) = axml::automata::Regex::parse(&target_text, &mut ab) else {
            return Ok(());
        };
        prop_assume!(ab.len() == compiled.alphabet().len());

        let n = compiled.alphabet().len();
        let awk = Awk::build(&word, &compiled, k, &AwkLimits::default()).unwrap();

        let eager_reg = Registry::new();
        let lazy_reg = Registry::new();
        let eager = Game::solve_in(Play::Safe, awk.clone(), complement_of(&target, n), BuildMode::Eager, &eager_reg);
        let lazy = Game::solve_in(Play::Safe, awk.clone(), complement_of(&target, n), BuildMode::Lazy, &lazy_reg);

        // The lazy frontier is a subset of the full product.
        prop_assert!(lazy.stats.nodes <= eager.stats.nodes,
            "lazy visited {} nodes, eager {}", lazy.stats.nodes, eager.stats.nodes);

        // Published counters mirror the public stats exactly.
        for (registry, game) in [(&eager_reg, &eager), (&lazy_reg, &lazy)] {
            let snap = registry.snapshot();
            prop_assert_eq!(snap.counter("solver.safe.solves_total"), 1);
            prop_assert_eq!(snap.counter("solver.safe.nodes_total"),
                game.stats.nodes as u64);
            prop_assert_eq!(snap.counter("solver.safe.edges_total"),
                game.stats.edges as u64);
            prop_assert_eq!(snap.counter("solver.safe.sink_pruned_total"),
                game.stats.sink_pruned as u64);
            prop_assert_eq!(snap.counter("solver.safe.mark_pruned_total"),
                game.stats.mark_pruned as u64);
            // Pruning can only skip nodes that were up for visiting.
            prop_assert!(
                snap.counter("solver.safe.sink_pruned_total")
                    + snap.counter("solver.safe.mark_pruned_total")
                    <= snap.counter("solver.safe.nodes_total"),
                "pruned more nodes than visited");
        }

        // The possible-game counters mirror their stats too.
        let poss_reg = Registry::new();
        let dfa = axml::automata::Dfa::determinize(
            &axml::automata::Nfa::thompson(&target, n));
        let poss = Game::solve_in(Play::Possible, awk, dfa, BuildMode::Eager, &poss_reg);
        let snap = poss_reg.snapshot();
        prop_assert_eq!(snap.counter("solver.possible.solves_total"), 1);
        prop_assert_eq!(snap.counter("solver.possible.nodes_total"),
            poss.stats.nodes as u64);
        prop_assert_eq!(snap.counter("solver.possible.edges_total"),
            poss.stats.edges as u64);
    }
}

/// One server registry: every accepted request is accounted exactly once,
/// as a success or as a fault — mixed ok / handler-fault traffic.
#[test]
fn server_accounts_every_request_exactly_once() {
    let metrics = Registry::new();
    register_catalogue(&metrics);
    let handler = Arc::new(|_id: u64, envelope: &str| {
        if envelope.contains("fail") {
            Err(wire::WireFault::new(wire::FaultCode::Client, "told to fail"))
        } else {
            Ok(format!("<ok>{envelope}</ok>"))
        }
    });
    let server = NetServer::bind(
        "127.0.0.1:0",
        handler,
        ServerConfig {
            metrics: metrics.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let client = NetClient::new(server.local_addr(), ClientConfig::default()).unwrap();

    for i in 0..7 {
        assert!(client.call(&format!("<r>{i}</r>")).is_ok());
    }
    for _ in 0..5 {
        assert!(client.call("<r>fail</r>").is_err());
    }

    let snap = metrics.snapshot();
    assert_eq!(snap.counter("server.responses_ok_total"), 7);
    assert_eq!(snap.counter("server.faults_total"), 5);
    assert_eq!(
        snap.counter("server.requests_total"),
        snap.counter("server.responses_ok_total") + snap.counter("server.faults_total"),
        "every request answered exactly once"
    );
    assert_eq!(snap.gauge("server.queue_depth"), 0, "queue drained at rest");
    server.shutdown().unwrap();
}

/// The accounting identity survives Busy backpressure: a one-slot queue
/// under concurrent fire still answers (ok or Busy) every request.
#[test]
fn server_accounting_holds_under_busy_backpressure() {
    let metrics = Registry::new();
    register_catalogue(&metrics);
    let handler = Arc::new(|_id: u64, envelope: &str| {
        std::thread::sleep(Duration::from_millis(20));
        Ok(envelope.to_owned())
    });
    let server = NetServer::bind(
        "127.0.0.1:0",
        handler,
        ServerConfig {
            workers: 1,
            queue: 1,
            metrics: metrics.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                // attempts=1 so a Busy fault surfaces instead of retrying.
                let client = NetClient::new(
                    addr,
                    ClientConfig {
                        attempts: 1,
                        ..Default::default()
                    },
                )
                .unwrap();
                let outcome = client.call(&format!("<r>{t}</r>"));
                match outcome {
                    Ok(_) => true,
                    Err(axml::net::ClientError::Fault(f)) => {
                        assert_eq!(f.code, wire::FaultCode::Busy, "{f}");
                        false
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            })
        })
        .collect();
    let ok_count = threads
        .into_iter()
        .map(|t| t.join().unwrap())
        .filter(|ok| *ok)
        .count() as u64;

    let snap = metrics.snapshot();
    assert_eq!(snap.counter("server.responses_ok_total"), ok_count);
    assert_eq!(snap.counter("server.busy_total"), 8 - ok_count);
    assert_eq!(
        snap.counter("server.requests_total"),
        snap.counter("server.responses_ok_total") + snap.counter("server.faults_total"),
    );
    server.shutdown().unwrap();
}

/// Client-side accounting: `retries = attempts - calls`, and retries
/// never exceed `calls x (attempts_per_call - 1)`.
#[test]
fn client_retries_are_bounded_by_the_attempt_budget() {
    let handler = Arc::new(|_id: u64, _env: &str| {
        Err(wire::WireFault::new(wire::FaultCode::Server, "always down").retryable())
    });
    let server = NetServer::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
    let metrics = Registry::new();
    register_catalogue(&metrics);
    const ATTEMPTS: u64 = 3;
    let client = NetClient::new(
        server.local_addr(),
        ClientConfig {
            attempts: ATTEMPTS as u32,
            backoff: Duration::from_millis(1),
            metrics: metrics.clone(),
            ..Default::default()
        },
    )
    .unwrap();

    const CALLS: u64 = 4;
    for _ in 0..CALLS {
        assert!(client.call("<r/>").is_err());
    }

    let snap = metrics.snapshot();
    assert_eq!(snap.counter("client.calls_total"), CALLS);
    assert_eq!(snap.counter("client.faults_total"), CALLS);
    assert_eq!(
        snap.counter("client.retries_total"),
        snap.counter("client.attempts_total") - snap.counter("client.calls_total"),
    );
    assert!(
        snap.counter("client.retries_total") <= CALLS * (ATTEMPTS - 1),
        "retries {} exceed the attempt budget",
        snap.counter("client.retries_total"),
    );
    server.shutdown().unwrap();
}

/// A small deterministic DFA per slot, so cache reads can be checked
/// against a fresh rebuild (any divergence would mean a torn or aliased
/// entry).
fn slot_dfa(slot: usize) -> axml::automata::Dfa {
    let mut ab = axml::automata::Alphabet::new();
    let pattern = ["a", "a*", "(a|b)", "a.b", "(a.b)?", "b*"][slot % 6];
    let re = axml::automata::Regex::parse(pattern, &mut ab).unwrap();
    axml::automata::Dfa::determinize(&axml::automata::Nfa::thompson(&re, ab.len()))
}

/// Cache accounting identities after heavy single-threaded churn well
/// past capacity: `hits + misses = lookups`, the entry count never
/// exceeds capacity, `entries = insertions - evictions`, and the
/// published registry instruments agree with [`SolveCache::stats`].
#[test]
fn solve_cache_accounting_identities_survive_churn() {
    let registry = Registry::new();
    let cache = SolveCache::with_registry(4, &registry);
    for round in 0..50usize {
        for slot in 0..6usize {
            let d = cache.dfa(
                Play::Safe,
                (slot % 2) as u64,
                TargetSlot::Content(slot as axml::automata::Symbol),
                || slot_dfa(slot),
            );
            assert_eq!(d.num_states(), slot_dfa(slot).num_states(), "round {round}");
        }
    }
    let s = cache.stats();
    assert_eq!(s.lookups, s.hits + s.misses, "every lookup is a hit or a miss");
    assert!(s.entries <= s.capacity, "{} entries > capacity {}", s.entries, s.capacity);
    assert_eq!(s.entries as u64, s.insertions - s.evictions);
    assert!(s.evictions > 0, "churn past capacity must evict");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("solve_cache.lookups_total"), s.lookups);
    assert_eq!(snap.counter("solve_cache.hits_total"), s.hits);
    assert_eq!(snap.counter("solve_cache.misses_total"), s.misses);
    assert_eq!(snap.counter("solve_cache.insertions_total"), s.insertions);
    assert_eq!(snap.counter("solve_cache.evictions_total"), s.evictions);
    assert_eq!(snap.gauge("solve_cache.entries") as usize, cache.len());
}

/// N threads hammering one under-sized cache with overlapping keys:
/// no deadlock, every read hands back the artifact its key was built
/// from, and the accounting identities hold at rest.
#[test]
fn solve_cache_hammering_is_deadlock_free_and_consistent() {
    const THREADS: usize = 8;
    const OPS: usize = 400;
    let registry = Registry::new();
    let cache = SolveCache::with_registry(3, &registry);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = cache.clone();
            scope.spawn(move || {
                for i in 0..OPS {
                    let slot = (t + i) % 6;
                    let d = cache.dfa(
                        Play::Safe,
                        7,
                        TargetSlot::Content(slot as axml::automata::Symbol),
                        || slot_dfa(slot),
                    );
                    assert_eq!(d.num_states(), slot_dfa(slot).num_states());
                }
            });
        }
    });
    let s = cache.stats();
    assert_eq!(s.lookups, (THREADS * OPS) as u64);
    assert_eq!(s.lookups, s.hits + s.misses);
    assert!(s.entries <= s.capacity);
    assert_eq!(s.entries as u64, s.insertions - s.evictions);
    // Racing builders may duplicate work, but lost races never insert.
    assert!(s.insertions <= s.misses);
}

/// Concurrent snapshots while writers hammer the registry: every
/// serialized snapshot re-parses, and each counter reads monotonically
/// across successive snapshots.
#[test]
fn concurrent_snapshots_parse_and_read_monotonically() {
    const WRITERS: usize = 4;
    const INCS: u64 = 20_000;

    let registry = Registry::new();
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let own = registry.counter(&format!("tear.writer{w}_total"));
            let shared = registry.counter("tear.shared_total");
            let gauge = registry.gauge("tear.level");
            std::thread::spawn(move || {
                for _ in 0..INCS {
                    own.inc();
                    shared.inc();
                    gauge.add(1);
                }
            })
        })
        .collect();

    let mut previous: Option<Snapshot> = None;
    for _ in 0..200 {
        let json = registry.snapshot().to_json();
        let parsed = Snapshot::parse_json(&json).expect("snapshot JSON re-parses");
        if let Some(prev) = &previous {
            for w in 0..WRITERS {
                let name = format!("tear.writer{w}_total");
                assert!(
                    parsed.counter(&name) >= prev.counter(&name),
                    "{name} went backwards"
                );
            }
            assert!(parsed.counter("tear.shared_total") >= prev.counter("tear.shared_total"));
        }
        previous = Some(parsed);
    }
    for t in writers {
        t.join().unwrap();
    }

    // At rest the totals are exact — no lost updates, no phantom reads.
    let last = Snapshot::parse_json(&registry.snapshot().to_json()).unwrap();
    for w in 0..WRITERS {
        assert_eq!(last.counter(&format!("tear.writer{w}_total")), INCS);
    }
    assert_eq!(last.counter("tear.shared_total"), WRITERS as u64 * INCS);
    assert_eq!(last.gauge("tear.level"), (WRITERS as u64 * INCS) as i64);
}
