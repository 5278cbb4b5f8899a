//! Rolling-schema-upgrade scenario: persistent warm state under fleet
//! churn (DESIGN.md §11).
//!
//! A fleet of receiver daemons starts on one exchange-schema version
//! and upgrades peer-by-peer while a sender keeps shipping documents.
//! Before every send the sender consults the precomputed Sec. 6
//! [`CompatMatrix`] — persisted to and reloaded from an on-disk
//! [`Store`] — instead of solving schema games on the hot path:
//!
//! * a receiver on a *compatible* version gets the document, enforced
//!   into that version through the real rewriter (materializing
//!   `Get_Date` calls against a provider daemon over the simulated
//!   network);
//! * a receiver that upgraded to an *incompatible* version is vetoed
//!   by the matrix — the send is skipped, never attempted and failed.
//!
//! Halfway through, the sender "restarts": its solver cache is
//! persisted to the store, thrown away, and reloaded. The scenario
//! then asserts the warm restart is *exact*: zero cache misses after
//! the restart (every game the stable fleet needs was snapshotted),
//! and a static analysis through the reloaded cache is
//! statistic-identical to one through a cold cache (loaded games are
//! bit-equivalent to fresh solves).
//!
//! Invariants checked on every run:
//!
//! 1. **zero failed exchanges** — every attempted send is delivered
//!    and stored intact; incompatibilities surface as matrix vetoes,
//!    not runtime faults;
//! 2. every compatibility consult is answered by the matrix
//!    (`live_checks == 0` — no games on the hot path);
//! 3. vetoes happen exactly for the incompatible version, nowhere
//!    else;
//! 4. the restart resumes warm: snapshot entries reload without
//!    corruption and the post-restart rounds take zero cache misses;
//! 5. per-daemon accounting identities hold.
//!
//! The whole run is a pure function of its seed: the transcript —
//! upgrade schedule, per-send verdicts, event log, cache and store
//! counters — is byte-identical across runs and pinned by a golden
//! file.
//!
//! [`CompatMatrix`]: axml_store::CompatMatrix
//! [`Store`]: axml_store::Store

use crate::topology::Topology;
use crate::world::{FaultPlan, SimWorld};
use axml_core::rewrite::{enforce_with, Rewriter, Strategy};
use axml_core::solve_cache::SolveCache;
use axml_net::ClientConfig;
use axml_peer::{
    envelope_handler, negotiate_with_matrix, InboundPolicy, NetInvoker, Peer, Proposal,
};
use axml_schema::{validate, Compiled, ITree, NoOracle, Schema};
use axml_services::Registry as ServiceRegistry;
use axml_store::{CompatMatrix, Store};
use axml_support::hash::fnv64;
use axml_support::rng::{RngExt, SeedableRng, StdRng};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Sender endpoint.
pub const UPGRADE_SENDER: &str = "sender.upgrade.example.org";
/// Provider daemon endpoint (serves `Get_Date`).
pub const UPGRADE_PROVIDER: &str = "dates.upgrade.example.org";

/// Receiver endpoint for fleet slot `i`.
pub fn upgrade_endpoint(i: usize) -> String {
    format!("peer{i}.upgrade.example.org")
}

/// The versioned schema portfolio the fleet rolls through. All
/// versions share one vocabulary; they differ in how intensional an
/// `exhibit` may stay:
///
/// * `v1` — dates may be left as embedded `Get_Date` calls;
/// * `v2` — dates must be materialized (safe to upgrade to: `v1`
///   documents rewrite into it by invoking `Get_Date`);
/// * `v3` — additionally requires a `room` element no rewriting can
///   produce (incompatible: the matrix must veto sends to it).
pub fn upgrade_portfolio() -> Vec<(String, Schema)> {
    let version = |exhibit_model: &str| -> Schema {
        Schema::builder()
            .element("r", "exhibit*")
            .element("exhibit", exhibit_model)
            .data_element("title")
            .data_element("date")
            .data_element("room")
            .function("Get_Date", "title", "date")
            .build()
            .expect("static upgrade schema")
    };
    vec![
        ("v1".to_owned(), version("title.(Get_Date|date)")),
        ("v2".to_owned(), version("title.date")),
        ("v3".to_owned(), version("title.date.room")),
    ]
}

/// Everything one rolling-upgrade run depends on.
#[derive(Debug, Clone)]
pub struct UpgradeConfig {
    /// Seed for the world RNG, document shapes, and provider answers.
    pub seed: u64,
    /// Fleet size (receiver daemons).
    pub receivers: usize,
    /// Exchange rounds; every round ships one document to every
    /// receiver the matrix approves. Must leave room for the schedule:
    /// `receivers + 1` upgrade rounds plus at least one stable round
    /// before and after the restart.
    pub rounds: usize,
    /// Store directory; `None` uses (and removes) a unique temp dir.
    pub store_dir: Option<PathBuf>,
}

impl UpgradeConfig {
    /// The default fleet: 3 receivers, 8 rounds, ephemeral store.
    pub fn from_seed(seed: u64) -> UpgradeConfig {
        UpgradeConfig {
            seed,
            receivers: 3,
            rounds: 8,
            store_dir: None,
        }
    }
}

/// Everything one run produced.
pub struct UpgradeReport {
    /// Sends the matrix approved and the fleet delivered.
    pub delivered: usize,
    /// Sends the matrix vetoed (incompatible upgrade target).
    pub vetoed: usize,
    /// Invariant violations — empty means the run passed.
    pub violations: Vec<String>,
    /// Deterministic transcript, byte-identical for equal seeds.
    pub transcript: String,
}

/// One fleet slot: the daemon currently listening on the endpoint and
/// the version it runs.
struct FleetNode {
    endpoint: String,
    peer: Arc<Peer>,
    metrics: axml_obs::Registry,
    version: usize,
}

fn upgrade_doc(rng: &mut StdRng, exhibits: usize) -> ITree {
    let children = (0..exhibits)
        .map(|i| {
            let len = rng.random_range(1..=5usize);
            let title: String = (0..len).map(|_| rng.random_range('a'..='z')).collect();
            // Exhibit 0 is always intensional so every document forces
            // at least one materializing rewrite; the rest alternate,
            // keeping the set of children words small and recurring
            // (which is what makes the post-restart zero-miss
            // invariant provable).
            crate::scenario::exhibit(&title, i % 2 == 0)
        })
        .collect();
    ITree::elem("r", children)
}

/// Runs one seeded rolling-schema-upgrade and checks every invariant.
pub fn run_upgrade(config: &UpgradeConfig) -> UpgradeReport {
    assert!(
        config.rounds >= config.receivers + 3,
        "schedule needs receivers+1 upgrade rounds plus stable rounds around the restart"
    );
    let (dir, ephemeral) = match &config.store_dir {
        Some(d) => (d.clone(), false),
        None => (
            std::env::temp_dir().join(format!(
                "axml-upgrade-{}-{}",
                std::process::id(),
                config.seed
            )),
            true,
        ),
    };
    let store_metrics = axml_obs::Registry::new();
    let store = Store::open_with(&dir, &store_metrics).expect("store directory");

    let portfolio = upgrade_portfolio();
    let compiled: Vec<Arc<Compiled>> = portfolio
        .iter()
        .map(|(_, s)| Arc::new(Compiled::new(s.clone(), &NoOracle).expect("version compiles")))
        .collect();
    let sender_schema = &portfolio[0].1;
    let sender_fp = compiled[0].fingerprint();

    // The compatibility relation is computed offline, persisted, and —
    // crucially — *reloaded from disk* before the exchange loop: every
    // hot-path verdict below comes from the on-disk artifact.
    let matrix = CompatMatrix::build(&portfolio, "r", 1, &NoOracle).expect("matrix builds");
    store.persist_matrix(&matrix).expect("matrix persists");
    let matrix = store.load_matrix().expect("persisted matrix reloads");

    let world = SimWorld::new(config.seed, FaultPlan::default());
    let client_template = ClientConfig {
        connect_timeout: Duration::from_millis(100),
        read_timeout: Duration::from_millis(200),
        attempts: 4,
        backoff: Duration::from_millis(10),
        deadline: Duration::from_secs(5),
        seed: config.seed,
        ..ClientConfig::default()
    };
    let topo = Topology::new(&world, Arc::clone(&compiled[0])).with_client_template(client_template);
    let provider_metrics = topo.serve(
        UPGRADE_PROVIDER,
        crate::strategy::strategy_provider(
            Arc::clone(&compiled[0]),
            config.seed,
            Arc::new(crate::strategy::RandomStrategy { fault_prob: 0.0 }),
        ),
    );
    let sender = topo.local_peer(UPGRADE_SENDER);
    let provider_link = topo.remote(UPGRADE_SENDER, UPGRADE_PROVIDER);

    // Boot the fleet on v1. Receivers are wired by hand (not via
    // `Topology::peer`) because each runs its *own* schema version.
    let boot = |endpoint: &str, version: usize| -> (Arc<Peer>, axml_obs::Registry) {
        let peer = Arc::new(Peer::new(
            endpoint,
            Arc::clone(&compiled[version]),
            Arc::new(ServiceRegistry::new()),
        ));
        let metrics = topo.serve(endpoint, envelope_handler(Arc::clone(&peer)));
        (peer, metrics)
    };
    let mut fleet: Vec<FleetNode> = (0..config.receivers)
        .map(|i| {
            let endpoint = upgrade_endpoint(i);
            let (peer, metrics) = boot(&endpoint, 0);
            FleetNode {
                endpoint,
                peer,
                metrics,
                version: 0,
            }
        })
        .collect();

    // The sender's warm state: one solver cache shared across every
    // enforcement, swapped for a reloaded one at the restart round.
    let pre_metrics = axml_obs::Registry::new();
    let post_metrics = axml_obs::Registry::new();
    let mut cache = SolveCache::with_registry(64, &pre_metrics);
    let restart_round = config.receivers + 2;

    let mut t = String::new();
    t.push_str(&format!(
        "upgrade seed={} receivers={} rounds={}\n",
        config.seed, config.receivers, config.rounds
    ));
    t.push_str("=== matrix ===\n");
    t.push_str(&format!("k={} root={}\n", matrix.k(), matrix.root()));
    for from in matrix.names() {
        for to in matrix.names() {
            t.push_str(&format!(
                "{from}->{to}: {}\n",
                match matrix.can_send(from, to) {
                    Some(true) => "ok".to_owned(),
                    Some(false) => format!(
                        "no ({})",
                        matrix.reason(from, to).unwrap_or("unspecified")
                    ),
                    None => "unknown".to_owned(),
                }
            ));
        }
    }
    t.push_str("=== rounds ===\n");

    let mut violations = Vec::new();
    let mut delivered = 0usize;
    let mut vetoed = 0usize;
    let mut restart_loaded = 0usize;

    for round in 0..config.rounds {
        // Rolling upgrades: one daemon per round steps to v2, then the
        // first daemon steps again to the incompatible v3 — all before
        // the restart, so the post-restart fleet is stable.
        let upgrade_to = if round < config.receivers {
            Some((round, 1))
        } else if round == config.receivers {
            Some((0, 2))
        } else {
            None
        };
        if let Some((slot, version)) = upgrade_to {
            let endpoint = fleet[slot].endpoint.clone();
            let (peer, metrics) = boot(&endpoint, version);
            fleet[slot].peer = peer;
            fleet[slot].metrics = metrics;
            fleet[slot].version = version;
            t.push_str(&format!(
                "round {round}: upgrade {endpoint} -> {}\n",
                portfolio[version].0
            ));
        }

        // Sender restart: snapshot the cache, throw it away, reload.
        if round == restart_round {
            store
                .persist_cache(&cache, sender_fp)
                .expect("cache persists");
            cache = SolveCache::with_registry(64, &post_metrics);
            let report = store.load_cache(&cache, sender_fp);
            restart_loaded = report.entries;
            if report.entries == 0 {
                violations.push("restart loaded zero cache entries".to_owned());
            }
            if report.discarded {
                violations.push("restart discarded the snapshot as corrupt".to_owned());
            }
            t.push_str(&format!(
                "round {round}: sender restart, reloaded {} cached solves ({} bytes)\n",
                report.entries, report.bytes
            ));
        }

        let mut rng = StdRng::seed_from_u64(config.seed ^ (round as u64).wrapping_mul(0x9e37_79b9));
        let doc = upgrade_doc(&mut rng, 1 + round % 3);
        let doc_name = format!("program-r{round}");

        for slot in 0..fleet.len() {
            let version = fleet[slot].version;
            let (version_name, version_schema) = &portfolio[version];
            let proposal = [Proposal {
                name: version_name.clone(),
                schema: version_schema.clone(),
            }];
            let (outcome, usage) = negotiate_with_matrix(
                sender_schema,
                "v1",
                "r",
                &proposal,
                &InboundPolicy::AcceptAll,
                1,
                &NoOracle,
                &matrix,
            )
            .expect("negotiation runs");
            if usage.live_checks != 0 {
                violations.push(format!(
                    "round {round} {}: {} live schema checks on the hot path",
                    fleet[slot].endpoint, usage.live_checks
                ));
            }
            let agreed = matches!(outcome, axml_peer::Negotiation::Agreed { .. });
            if agreed != (version != 2) {
                violations.push(format!(
                    "round {round} {}: matrix verdict {agreed} for version {version_name}",
                    fleet[slot].endpoint
                ));
            }
            if !agreed {
                vetoed += 1;
                t.push_str(&format!(
                    "round {round}: {} [{version_name}] vetoed by matrix\n",
                    fleet[slot].endpoint
                ));
                continue;
            }

            // Enforce into the receiver's version (materializing over
            // the simulated network), then ship. Exactly the Fig. 1
            // pipeline, warmed by the shared cache.
            let target = &compiled[version];
            let send = || -> Result<(ITree, usize), axml_peer::PeerError> {
                let mut invoker = NetInvoker {
                    caller: &sender,
                    remote: &provider_link.remote,
                };
                let (sent, report) =
                    enforce_with(target, &doc, 1, Strategy::Safe, &cache, &mut invoker)?;
                let invoked = report.invoked.len();
                let link = topo.remote(UPGRADE_SENDER, &fleet[slot].endpoint);
                link.remote.send_document(&sender, &doc_name, &sent, target)?;
                Ok((sent, invoked))
            };
            match send() {
                Ok((sent, invoked)) => {
                    delivered += 1;
                    t.push_str(&format!(
                        "round {round}: {} [{version_name}] delivered exhibits={} invoked={}\n",
                        fleet[slot].endpoint,
                        1 + round % 3,
                        invoked
                    ));
                    match fleet[slot].peer.repository.load(&doc_name) {
                        Ok(stored) if stored == sent => {}
                        Ok(_) => violations.push(format!(
                            "round {round} {}: stored document differs from the one sent",
                            fleet[slot].endpoint
                        )),
                        Err(e) => violations.push(format!(
                            "round {round} {}: delivered but not stored: {e}",
                            fleet[slot].endpoint
                        )),
                    }
                    if let Err(e) = validate(&sent, target) {
                        violations.push(format!(
                            "round {round} {}: delivered document breaks {version_name}: {e}",
                            fleet[slot].endpoint
                        ));
                    }
                }
                Err(e) => {
                    violations.push(format!(
                        "round {round} {}: FAILED exchange (matrix approved it): {e}",
                        fleet[slot].endpoint
                    ));
                }
            }
        }

        // The round right after the restart also proves the reloaded
        // entries are bit-equivalent to fresh solves: a static safety
        // analysis through the warm cache must report the same game
        // statistics as one through a cold cache.
        if round == restart_round {
            let target = &compiled[1];
            let warm = Rewriter::new(target)
                .with_k(1)
                .with_cache(&cache)
                .analyze_safe(&doc);
            let cold_cache = SolveCache::unpublished(64);
            let cold = Rewriter::new(target)
                .with_k(1)
                .with_cache(&cold_cache)
                .analyze_safe(&doc);
            match (warm, cold) {
                (Ok(w), Ok(c)) => {
                    if (w.games, w.product_nodes) != (c.games, c.product_nodes) {
                        violations.push(format!(
                            "warm analysis ({} games, {} nodes) != cold analysis ({} games, {} nodes)",
                            w.games, w.product_nodes, c.games, c.product_nodes
                        ));
                    }
                    t.push_str(&format!(
                        "round {round}: warm/cold analysis agree: games={} product_nodes={}\n",
                        w.games, w.product_nodes
                    ));
                }
                (w, c) => violations.push(format!(
                    "warm/cold analysis diverged: warm={:?} cold={:?}",
                    w.is_ok(),
                    c.is_ok()
                )),
            }
        }
    }
    world.run_until_idle();

    // ---- Invariants ----------------------------------------------------
    let post = post_metrics.snapshot();
    let post_misses = post.counter("solve_cache.misses_total");
    if post_misses != 0 {
        violations.push(format!(
            "warm restart was not exact: {post_misses} cache misses after reload"
        ));
    }
    for node in &fleet {
        let snap = node.metrics.snapshot();
        let requests = snap.counter("server.requests_total");
        let ok = snap.counter("server.responses_ok_total");
        let faults = snap.counter("server.faults_total");
        if requests != ok + faults {
            violations.push(format!(
                "{}: accounting identity broken: {requests} != {ok} + {faults}",
                node.endpoint
            ));
        }
    }
    {
        let snap = provider_metrics.snapshot();
        let requests = snap.counter("server.requests_total");
        let ok = snap.counter("server.responses_ok_total");
        let faults = snap.counter("server.faults_total");
        if requests != ok + faults {
            violations.push(format!(
                "provider: accounting identity broken: {requests} != {ok} + {faults}"
            ));
        }
    }
    let store_snap = store_metrics.snapshot();
    if store_snap.counter("store.corrupt_discarded_total") != 0 {
        violations.push("store discarded an artifact as corrupt in a clean run".to_owned());
    }

    // ---- Transcript tail ----------------------------------------------
    t.push_str("=== cache ===\n");
    for (phase, m) in [("pre-restart", &pre_metrics), ("post-restart", &post_metrics)] {
        let snap = m.snapshot();
        t.push_str(&format!(
            "{phase}: lookups={} hits={} misses={} insertions={} entries={}\n",
            snap.counter("solve_cache.lookups_total"),
            snap.counter("solve_cache.hits_total"),
            snap.counter("solve_cache.misses_total"),
            snap.counter("solve_cache.insertions_total"),
            snap.gauge("solve_cache.entries"),
        ));
    }
    t.push_str("=== store ===\n");
    t.push_str(&format!(
        "loads={} persists={} entries_loaded={} corrupt_discarded={}\n",
        store_snap.counter("store.load_total"),
        store_snap.counter("store.persist_total"),
        store_snap.counter("store.entries_loaded_total"),
        store_snap.counter("store.corrupt_discarded_total"),
    ));
    t.push_str(&format!(
        "summary delivered={delivered} vetoed={vetoed} restart_loaded={restart_loaded}\n"
    ));
    t.push_str("=== events ===\n");
    let events = world.event_log();
    t.push_str(&format!(
        "events: count={} fnv64=0x{:016x}\n",
        events.lines().count(),
        fnv64(events.as_bytes())
    ));
    for v in &violations {
        t.push_str(&format!("VIOLATION: {v}\n"));
    }

    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }

    UpgradeReport {
        delivered,
        vetoed,
        violations,
        transcript: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_upgrade_passes_every_invariant() {
        let report = run_upgrade(&UpgradeConfig::from_seed(11));
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        assert!(report.delivered > 0);
        // The v3 upgrade happens at round `receivers`, so every later
        // round vetoes exactly one send.
        assert!(report.vetoed > 0, "the incompatible version never vetoed");
    }

    #[test]
    fn same_seed_upgrades_are_byte_identical() {
        let a = run_upgrade(&UpgradeConfig::from_seed(23));
        let b = run_upgrade(&UpgradeConfig::from_seed(23));
        assert_eq!(a.transcript, b.transcript);
        assert!(a.violations.is_empty(), "{:#?}", a.violations);
    }

    #[test]
    fn incompatibility_is_vetoed_not_failed() {
        let report = run_upgrade(&UpgradeConfig::from_seed(5));
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        assert!(
            report.transcript.contains("vetoed by matrix"),
            "v3 sends should be vetoed:\n{}",
            report.transcript
        );
        assert!(!report.transcript.contains("FAILED"));
    }
}
