//! Fleet-scale soak: a hundred peers, a thousand exchanges, one seed.
//!
//! [`run_soak`] builds a fleet of N marketplace peers in **one**
//! simulated world. Every peer both *serves* — `Get_Quote` answered by a
//! seed-assigned [`Strategy`](crate::strategy::Strategy) (random,
//! crashing, or the strategic game-graph opponent), every other envelope
//! (service calls, document receipt) through the real
//! [`axml_peer::envelope_handler`] pipeline — and *initiates*: each
//! exchange picks a sender and a receiver, generates a catalog, enforces
//! it through the real rewriter (continuation-style `Get_Quote` chains
//! hop across the fleet; local `Get_Appraisal` calls resolve through the
//! sender's own UDDI/ACL registry, which churn toggles between and
//! during exchanges), and ships it — all under the full fault taxonomy:
//! drops, duplicates, delays, resets, busy pushback, symmetric *and*
//! one-direction partitions, and crash-restarts, in virtual time.
//!
//! Invariants asserted fleet-wide on every run:
//!
//! * each delivered catalog conforms to the schema and is stored intact
//!   at its receiver; each failed exchange carries a typed error;
//! * every client edge stays within its retry/attempt bounds;
//! * every peer's `server.requests = ok + faults` identity holds, and so
//!   does the fleet-wide aggregate sum;
//! * the shared solver cache's `lookups = hits + misses` identity holds
//!   across all exchanges (one cache serves every sender, so this is a
//!   cross-exchange, fleet-wide identity);
//! * `delivered + failed = exchanges`;
//! * the run is byte-reproducible: one `u64` seed determines the whole
//!   transcript, down to the event-log digest.
//!
//! The transcript is compact on purpose — one line per exchange,
//! aggregate metrics, and an FNV-64 digest of the event log instead of
//! the log itself — so a 100-peer, 1000-exchange soak still diffs
//! cleanly when a seed regresses.

use crate::marketplace::{
    generated_catalog, marketplace_schema, ChurnKind, ChurnPlan, RoutingInvoker, StrategyKind,
    PRINCIPAL,
};
use crate::strategy::strategy_provider;
use crate::topology::{Link, Topology};
use crate::world::{Crash, FaultPlan, Partition, SimWorld};
use axml_core::rewrite::{enforce_with, Strategy};
use axml_core::solve_cache::SolveCache;
use axml_peer::{envelope_handler, Peer, PeerError};
use axml_schema::{validate, ITree};
use axml_services::{soap, Registry, ServiceDef};
use axml_support::hash::fnv64;
use axml_support::rng::{RngExt, SeedableRng, StdRng};
use std::sync::Arc;
use std::time::Duration;

/// Endpoint of the `i`-th fleet peer.
pub fn fleet_endpoint(i: usize) -> String {
    format!("peer{i:03}.fleet.example.org")
}

/// Everything one soak run depends on.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// The one seed: fault schedule, fleet strategies, every document.
    pub seed: u64,
    /// Fleet size (every peer both serves and initiates).
    pub peers: usize,
    /// Exchanges driven through the fleet.
    pub exchanges: usize,
    /// Client attempts per call.
    pub attempts: u32,
    /// Client total per-call deadline.
    pub deadline: Duration,
}

impl SoakConfig {
    /// The full fleet gate: 100 peers, 1000 exchanges.
    pub fn fleet(seed: u64) -> SoakConfig {
        SoakConfig {
            seed,
            peers: 100,
            exchanges: 1000,
            attempts: 4,
            deadline: Duration::from_secs(5),
        }
    }

    /// A reduced soak for tight CI budgets: same machinery, smaller
    /// fleet.
    pub fn reduced(seed: u64) -> SoakConfig {
        SoakConfig {
            seed,
            peers: 16,
            exchanges: 120,
            attempts: 4,
            deadline: Duration::from_secs(5),
        }
    }
}

/// Everything one soak run produced.
pub struct SoakReport {
    /// Exchanges that delivered.
    pub delivered: usize,
    /// Exchanges that failed (with a typed error).
    pub failed: usize,
    /// Per-peer strategies the seed assigned (fleet composition).
    pub strategies: Vec<StrategyKind>,
    /// Invariant violations — empty means the soak passed.
    pub violations: Vec<String>,
    /// Compact deterministic transcript (byte-identical per seed).
    pub transcript: String,
}

/// Derives the soak's fault schedule from the seed: mild per-frame fault
/// probabilities (most exchanges should complete), several partitions —
/// half of them one-direction — and several crash-restarts spread over
/// the first virtual minutes. The horizon is raised far beyond the
/// default: a soak legitimately simulates hours.
fn soak_plan(rng: &mut StdRng, peers: usize) -> FaultPlan {
    let mut plan = FaultPlan {
        jitter_ns: rng.random_range(0..2_000_000),
        drop_prob: rng.random_unit() * 0.02,
        dup_prob: rng.random_unit() * 0.02,
        delay_prob: rng.random_unit() * 0.1,
        extra_delay_ns: rng.random_range(0..20_000_000),
        reset_prob: rng.random_unit() * 0.01,
        busy_prob: rng.random_unit() * 0.05,
        horizon_ns: 36_000_000_000_000, // 10 virtual hours
        ..FaultPlan::default()
    };
    for _ in 0..(peers / 8).max(1) {
        let from_ns = rng.random_range(0..600_000_000_000);
        plan.partitions.push(Partition {
            a: fleet_endpoint(rng.random_range(0..peers)),
            b: fleet_endpoint(rng.random_range(0..peers)),
            from_ns,
            until_ns: from_ns + rng.random_range(0..2_000_000_000),
            oneway: rng.random_bool(0.5),
        });
    }
    for _ in 0..(peers / 10).max(1) {
        plan.crashes.push(Crash {
            endpoint: fleet_endpoint(rng.random_range(0..peers)),
            at_ns: rng.random_range(0..600_000_000_000),
            down_ns: rng.random_range(0..3_000_000_000),
        });
    }
    plan
}

/// A fleet peer's handler: `Get_Quote` requests go to the strategy
/// daemon, every other envelope (declared-service calls, `axml.receive`
/// shipments, undecodable junk) to the real peer pipeline.
fn fleet_handler(
    peer: Arc<Peer>,
    strategy: Arc<dyn axml_net::Handler>,
) -> Arc<dyn axml_net::Handler> {
    let pipeline = envelope_handler(peer);
    Arc::new(move |id: u64, envelope: &str| match soap::decode(envelope) {
        Ok(soap::Message::Request { ref method, .. }) if method == "Get_Quote" => {
            strategy.handle(id, envelope)
        }
        _ => pipeline.handle(id, envelope),
    })
}

fn register_appraisal(registry: &Registry) {
    registry.register_fn(ServiceDef::new("Get_Appraisal", "title", "price"), |_| {
        Ok(vec![ITree::data("price", "100")])
    });
}

/// Runs one seeded fleet soak and checks every invariant.
pub fn run_soak(config: &SoakConfig) -> SoakReport {
    assert!(config.peers >= 2, "a soak needs at least two peers");
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xf1ee_750a_c0de);
    let plan = soak_plan(&mut rng, config.peers);
    let world = SimWorld::new(config.seed, plan);
    let topo = Topology::new(&world, marketplace_schema()).with_retries(
        config.seed,
        config.attempts,
        config.deadline,
    );
    let compiled = Arc::clone(topo.compiled());

    // ---- The fleet ---------------------------------------------------
    // Every peer: a UDDI/ACL registry listing Get_Appraisal (the churn
    // target), the real enforcement pipeline, and a seed-assigned
    // Get_Quote strategy.
    let mut strategies = Vec::with_capacity(config.peers);
    let mut registries = Vec::with_capacity(config.peers);
    let mut peers = Vec::with_capacity(config.peers);
    let mut server_metrics = Vec::with_capacity(config.peers);
    for i in 0..config.peers {
        let kind = {
            let u = rng.random_unit();
            if u < 0.7 {
                StrategyKind::Random {
                    fault_prob: rng.random_unit() * 0.1,
                }
            } else if u < 0.85 {
                StrategyKind::Crashing {
                    up_for: rng.random_range(0..20),
                }
            } else {
                StrategyKind::Strategic
            }
        };
        let registry = Arc::new(Registry::new());
        register_appraisal(&registry);
        registry.grant(PRINCIPAL, "Get_Appraisal");
        let endpoint = fleet_endpoint(i);
        let peer = topo.local_peer_with(&endpoint, Arc::clone(&registry));
        let provider_seed = config.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1);
        let metrics = topo.serve(
            &endpoint,
            fleet_handler(
                Arc::clone(&peer),
                strategy_provider(Arc::clone(&compiled), provider_seed, kind.build(&compiled)),
            ),
        );
        strategies.push(kind);
        registries.push(registry);
        peers.push(peer);
        server_metrics.push(metrics);
    }

    // One solver cache shared by every sender: the fleet-wide
    // lookups = hits + misses identity spans all exchanges.
    let cache_metrics = axml_obs::Registry::new();
    let cache = SolveCache::with_registry(256, &cache_metrics);

    // ---- The exchanges -----------------------------------------------
    let mut violations: Vec<String> = Vec::new();
    let mut lines: Vec<String> = Vec::with_capacity(config.exchanges);
    let mut delivered = 0usize;
    let mut failed = 0usize;
    for e in 0..config.exchanges {
        let sender = rng.random_range(0..config.peers);
        let receiver = {
            let r = rng.random_range(0..config.peers - 1);
            if r >= sender { r + 1 } else { r }
        };
        let mode = if rng.random_bool(0.3) { Strategy::Safe } else { Strategy::Possible };
        let offers = rng.random_range(0..4usize);
        let k = rng.random_range(1..=2u32);
        let doc = generated_catalog(&mut rng, offers, mode == Strategy::Possible);
        // UDDI churn *between* exchanges: occasionally toggle the
        // sender's Get_Appraisal listing — withdraw it, or restore it
        // (re-granting, since a mid-exchange Revoke may have stripped
        // the ACL entry).
        let churned = if rng.random_bool(0.1) {
            let reg = &registries[sender];
            if reg.is_registered("Get_Appraisal") {
                reg.deregister("Get_Appraisal");
                "withdraw"
            } else {
                register_appraisal(reg);
                reg.grant(PRINCIPAL, "Get_Appraisal");
                "restore"
            }
        } else {
            "-"
        };
        // Churn *during* the exchange, inside the routing invoker, as in
        // the marketplace scenario.
        let churn = if rng.random_bool(0.1) {
            Some(ChurnPlan {
                after_calls: rng.random_range(0..4),
                kind: if rng.random_bool(0.5) { ChurnKind::Deregister } else { ChurnKind::Revoke },
            })
        } else {
            None
        };
        // The continuation fan-out: three provider edges; successive
        // Get_Quote hops rotate across them.
        let fanout: Vec<usize> = (0..3)
            .map(|_| {
                let p = rng.random_range(0..config.peers - 1);
                if p >= sender { p + 1 } else { p }
            })
            .collect();
        let sender_name = fleet_endpoint(sender);
        let fan_links: Vec<Link> = fanout
            .iter()
            .map(|&p| topo.remote(&sender_name, &fleet_endpoint(p)))
            .collect();
        let ship_link = topo.remote(&sender_name, &fleet_endpoint(receiver));

        let doc_name = format!("soak{e}");
        let result = (|| -> Result<ITree, PeerError> {
            let sender_peer = &peers[sender];
            let mut invoker =
                RoutingInvoker::new(sender_peer, &fan_links, &registries[sender], churn);
            let (sent, _) = enforce_with(&compiled, &doc, k, mode, &cache, &mut invoker)?;
            ship_link
                .remote
                .send_document(sender_peer, &doc_name, &sent, &compiled)?;
            Ok(sent)
        })();
        world.run_until_idle();
        match result {
            Ok(sent) => {
                delivered += 1;
                if let Err(err) = validate(&sent, &compiled) {
                    violations.push(format!("x{e}: delivered catalog does not conform: {err}"));
                }
                match peers[receiver].repository.load(&doc_name) {
                    Ok(stored) if stored == sent => {}
                    Ok(_) => {
                        violations.push(format!("x{e}: receiver stored a different catalog"))
                    }
                    Err(_) => {
                        violations.push(format!("x{e}: delivered but receiver stored nothing"))
                    }
                }
                lines.push(format!(
                    "x{e} s={sender} r={receiver} mode={mode:?} k={k} offers={offers} churn={churned} outcome=delivered"
                ));
            }
            Err(error) => {
                failed += 1;
                let error = error.to_string();
                if error.trim().is_empty() {
                    violations.push(format!("x{e}: exchange failed without a typed error"));
                }
                lines.push(format!(
                    "x{e} s={sender} r={receiver} mode={mode:?} k={k} offers={offers} churn={churned} outcome=failed: {error}"
                ));
            }
        }
        // Per-edge retry/attempt bounds, checked while this exchange's
        // client edges are still alive.
        for (label, link) in fan_links
            .iter()
            .enumerate()
            .map(|(i, l)| (format!("x{e}.quote{i}"), l))
            .chain(std::iter::once((format!("x{e}.ship"), &ship_link)))
        {
            let snap = link.metrics.snapshot();
            let calls = snap.counter("client.calls_total");
            let attempts = snap.counter("client.attempts_total");
            let retries = snap.counter("client.retries_total");
            if attempts > calls * config.attempts as u64 {
                violations.push(format!(
                    "{label}: {attempts} attempts exceed bound {} ({calls} calls)",
                    calls * config.attempts as u64
                ));
            }
            if retries > calls * (config.attempts as u64 - 1) {
                violations.push(format!(
                    "{label}: {retries} retries exceed bound {}",
                    calls * (config.attempts as u64 - 1)
                ));
            }
        }
    }

    // ---- Fleet-wide invariants ---------------------------------------
    let (mut sum_requests, mut sum_ok, mut sum_faults) = (0u64, 0u64, 0u64);
    for (i, m) in server_metrics.iter().enumerate() {
        let snap = m.snapshot();
        let requests = snap.counter("server.requests_total");
        let ok = snap.counter("server.responses_ok_total");
        let faults = snap.counter("server.faults_total");
        if requests != ok + faults {
            violations.push(format!(
                "peer{i}: accounting identity broken: {requests} != {ok} + {faults}"
            ));
        }
        sum_requests += requests;
        sum_ok += ok;
        sum_faults += faults;
    }
    if sum_requests != sum_ok + sum_faults {
        violations.push(format!(
            "fleet: aggregate accounting identity broken: {sum_requests} != {sum_ok} + {sum_faults}"
        ));
    }
    let cache_snap = cache_metrics.snapshot();
    let lookups = cache_snap.counter("solve_cache.lookups_total");
    let hits = cache_snap.counter("solve_cache.hits_total");
    let misses = cache_snap.counter("solve_cache.misses_total");
    if lookups != hits + misses {
        violations.push(format!(
            "fleet solver cache identity broken: {lookups} != {hits} + {misses}"
        ));
    }
    if delivered + failed != config.exchanges {
        violations.push(format!(
            "exchange accounting broken: {delivered} delivered + {failed} failed != {}",
            config.exchanges
        ));
    }

    // ---- Transcript --------------------------------------------------
    let events = world.event_log();
    let mut t = String::new();
    t.push_str(&format!(
        "soak seed={} peers={} exchanges={} strategies=[{}]\n",
        config.seed,
        config.peers,
        config.exchanges,
        strategies.iter().map(StrategyKind::name).collect::<Vec<_>>().join(","),
    ));
    t.push_str("=== exchanges ===\n");
    for line in &lines {
        t.push_str(line);
        t.push('\n');
    }
    t.push_str("=== aggregate ===\n");
    t.push_str(&format!("delivered={delivered} failed={failed}\n"));
    t.push_str(&format!(
        "servers: requests={sum_requests} ok={sum_ok} faults={sum_faults}\n"
    ));
    t.push_str(&format!(
        "cache: lookups={lookups} hits={hits} misses={misses}\n"
    ));
    t.push_str(&format!(
        "events: count={} fnv64=0x{:016x}\n",
        events.lines().count(),
        fnv64(events.as_bytes())
    ));
    t.push_str(&format!("virtual_ns={}\n", world.now_ns()));
    for v in &violations {
        t.push_str(&format!("VIOLATION: {v}\n"));
    }

    SoakReport {
        delivered,
        failed,
        strategies,
        violations,
        transcript: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_soak_is_clean_and_reproducible() {
        let config = SoakConfig::reduced(7);
        let a = run_soak(&config);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.delivered + a.failed, config.exchanges);
        assert!(a.delivered > 0, "a mild fault schedule must deliver something");
        let b = run_soak(&config);
        assert_eq!(a.transcript, b.transcript);
    }

    #[test]
    fn tiny_soak_exercises_both_modes_and_churn() {
        let config = SoakConfig {
            seed: 11,
            peers: 4,
            exchanges: 60,
            attempts: 4,
            deadline: Duration::from_secs(5),
        };
        let report = run_soak(&config);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.transcript.contains("mode=Safe"));
        assert!(report.transcript.contains("mode=Possible"));
        assert!(
            report.transcript.contains("churn=withdraw")
                || report.transcript.contains("churn=restore"),
            "60 exchanges at 10% churn should toggle at least once"
        );
    }
}
