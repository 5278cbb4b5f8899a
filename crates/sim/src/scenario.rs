//! The Fig. 1 scenario under simulation: a three-party intensional
//! exchange with seeded faults, checked against the exchange invariants.
//!
//! The cast mirrors the paper's opening example:
//!
//! * a **sender** holds an intensional document (`exhibit` dates left as
//!   embedded `Get_Date` calls) and must ship it under an agreed
//!   exchange schema that requires materialized dates;
//! * a **provider** daemon serves `Get_Date` — here *adversarially*: it
//!   answers with random but type-correct data, or injects service
//!   faults (retryable and not), all drawn from the scenario seed;
//! * a **receiver** daemon runs the real peer enforcement pipeline
//!   ([`axml_peer::envelope_handler`]) and stores what arrives.
//!
//! The sender enforces the exchange schema through the real rewriter
//! (safe mode per Fig. 3, or possible mode per Fig. 9), materializing
//! calls over the simulated network via the real `NetClient`, then ships
//! the result — while the world drops, delays, duplicates, reorders and
//! cuts frames, partitions links, and crash-restarts daemons.
//!
//! [`run_scenario`] executes one such exchange and checks the
//! **invariants** that must hold under *any* fault schedule:
//!
//! 1. a delivered document conforms to the exchange schema and is stored
//!    intact at the receiver — faults may fail an exchange, never corrupt
//!    one (safe rewritings conform regardless of the injected answers);
//! 2. a failed exchange reports a *typed* error (a [`PeerError`]
//!    variant) — never a hang (the world's horizon converts a would-hang
//!    into a panic), never a silent drop;
//! 3. client retries stay within the configured attempt bound;
//! 4. each daemon's accounting identity holds:
//!    `server.requests_total = responses_ok_total + faults_total`;
//! 5. the solver cache's identity holds:
//!    `lookups = hits + misses`.
//!
//! Everything the run observes is serialized into a transcript —
//! event log, rewrite decisions, outcome, metric snapshots — that is
//! byte-identical across runs of the same seed.

use crate::strategy::{strategy_provider, RandomStrategy};
use crate::topology::Topology;
use crate::world::{Crash, FaultPlan, Partition, SimWorld};
use axml_core::rewrite::{enforce_with, RewriteReport, Strategy};
use axml_core::solve_cache::SolveCache;
use axml_net::ClientConfig;
use axml_peer::{NetInvoker, PeerError};
use axml_schema::{validate, Compiled, ITree, NoOracle, Schema};
use axml_support::rng::{RngExt, SeedableRng, StdRng};
use std::sync::Arc;
use std::time::Duration;

/// Everything one scenario run depends on. Derive it wholesale from a
/// seed with [`ScenarioConfig::from_seed`], or pin fields for a fixed
/// (e.g. golden) scenario.
#[derive(Clone)]
pub struct ScenarioConfig {
    /// Seed for the world RNG, the document, and the provider's answers.
    pub seed: u64,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Safe (Sec. 4, Fig. 3) or possible (Sec. 5, Fig. 9) enforcement.
    pub mode: Strategy,
    /// Document to ship; `None` generates one from the seed.
    pub doc: Option<ITree>,
    /// Number of `exhibit` subtrees when generating the document.
    pub exhibits: usize,
    /// Probability the provider answers a call with an injected service
    /// fault instead of data.
    pub provider_fault_prob: f64,
    /// Client attempts per call.
    pub attempts: u32,
    /// Client total per-call deadline.
    pub deadline: Duration,
}

/// The endpoint names the scenario registers in the world.
pub const SENDER: &str = "sender.example.org";
/// Provider daemon endpoint (serves `Get_Date`).
pub const PROVIDER: &str = "provider.example.org";
/// Receiver daemon endpoint (stores shipped documents).
pub const RECEIVER: &str = "receiver.example.org";

impl ScenarioConfig {
    /// Derives a full scenario — fault schedule, document shape, provider
    /// behavior — from one seed. This is the distribution the CI seed
    /// batch and the property harness explore.
    pub fn from_seed(seed: u64) -> ScenarioConfig {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce0_a11a_5eed);
        let mut plan = FaultPlan {
            jitter_ns: rng.random_range(0..2_000_000),
            drop_prob: rng.random_unit() * 0.05,
            dup_prob: rng.random_unit() * 0.05,
            delay_prob: rng.random_unit() * 0.2,
            extra_delay_ns: rng.random_range(0..50_000_000),
            reset_prob: rng.random_unit() * 0.02,
            busy_prob: rng.random_unit() * 0.10,
            ..FaultPlan::default()
        };
        if rng.random_bool(0.25) {
            let from_ns = rng.random_range(0..1_000_000_000);
            plan.partitions.push(Partition {
                a: SENDER.to_owned(),
                b: if rng.random_bool(0.5) { PROVIDER } else { RECEIVER }.to_owned(),
                from_ns,
                until_ns: from_ns + rng.random_range(0..300_000_000),
                oneway: false,
            });
        }
        if rng.random_bool(0.25) {
            plan.crashes.push(Crash {
                endpoint: if rng.random_bool(0.5) { PROVIDER } else { RECEIVER }.to_owned(),
                at_ns: rng.random_range(0..1_500_000_000),
                down_ns: rng.random_range(0..400_000_000),
            });
        }
        ScenarioConfig {
            seed,
            plan,
            mode: if seed % 2 == 0 { Strategy::Safe } else { Strategy::Possible },
            doc: None,
            exhibits: rng.random_range(0..6usize),
            provider_fault_prob: rng.random_unit() * 0.15,
            attempts: 4,
            deadline: Duration::from_secs(5),
        }
    }
}

/// The seed-derived fault schedule alone (handy for tests composing
/// their own scenarios).
pub fn scenario_plan(seed: u64) -> FaultPlan {
    ScenarioConfig::from_seed(seed).plan
}

/// How one exchange ended.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The enforced document was shipped and accepted.
    Delivered {
        /// The materialized document as sent.
        sent: ITree,
        /// The sender's rewrite decisions.
        report: RewriteReport,
    },
    /// The exchange failed with a typed error.
    Failed {
        /// The error, rendered (always a [`PeerError`] variant).
        error: String,
    },
}

/// Everything one run produced.
pub struct ScenarioReport {
    /// How the exchange ended.
    pub outcome: Outcome,
    /// Invariant violations — empty means the run passed. Each entry is a
    /// self-contained description.
    pub violations: Vec<String>,
    /// The full deterministic transcript: event log, outcome, rewrite
    /// decisions, metric snapshots. Byte-identical for equal seeds.
    pub transcript: String,
}

/// The shared vocabulary (the Fig. 1 exchange schema): listings of
/// exhibits whose dates may be left intensional as `Get_Date` calls,
/// while the exchange type demands materialized `title.date` pairs.
pub fn exchange_schema() -> Arc<Compiled> {
    static SCHEMA: std::sync::OnceLock<Arc<Compiled>> = std::sync::OnceLock::new();
    SCHEMA
        .get_or_init(|| {
            Arc::new(
                Compiled::new(
                    Schema::builder()
                        .element("r", "exhibit*")
                        .element("exhibit", "title.date")
                        .data_element("title")
                        .data_element("date")
                        .function("Get_Date", "title", "date")
                        .build()
                        .expect("static exchange schema"),
                    &NoOracle,
                )
                .expect("static exchange schema compiles"),
            )
        })
        .clone()
}

/// One exhibit: the date either materialized or left as an embedded call.
pub fn exhibit(title: &str, intensional: bool) -> ITree {
    let date = if intensional {
        ITree::func("Get_Date", vec![ITree::data("title", title)])
    } else {
        ITree::data("date", "mon")
    };
    ITree::elem("exhibit", vec![ITree::data("title", title), date])
}

fn generated_doc(rng: &mut StdRng, exhibits: usize) -> ITree {
    let children = (0..exhibits)
        .map(|_| {
            let len = rng.random_range(1..=5usize);
            let title: String = (0..len).map(|_| rng.random_range('a'..='z')).collect();
            let intensional = rng.random_bool(0.5);
            exhibit(&title, intensional)
        })
        .collect();
    ITree::elem("r", children)
}

/// The adversarial provider: answers `Get_Date` with *random but
/// type-correct* data, or an injected fault (half of them retryable) —
/// all drawn deterministically from the scenario seed. Now a thin alias
/// for [`RandomStrategy`] under the strategy adapter; the RNG draws are
/// identical, so transcripts are unchanged.
fn adversarial_provider(
    compiled: Arc<Compiled>,
    seed: u64,
    fault_prob: f64,
) -> Arc<dyn axml_net::Handler> {
    strategy_provider(compiled, seed, Arc::new(RandomStrategy { fault_prob }))
}

/// The client template every scenario edge starts from (the topology
/// overrides `name` and `metrics` per edge).
fn client_template(config: &ScenarioConfig) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(100),
        read_timeout: Duration::from_millis(200),
        attempts: config.attempts,
        backoff: Duration::from_millis(10),
        deadline: config.deadline,
        seed: config.seed,
        ..ClientConfig::default()
    }
}

/// Runs one seeded Fig. 1 exchange and checks every invariant.
pub fn run_scenario(config: &ScenarioConfig) -> ScenarioReport {
    let world = SimWorld::new(config.seed, config.plan.clone());
    let topo = Topology::new(&world, exchange_schema()).with_client_template(client_template(config));
    let compiled = Arc::clone(topo.compiled());

    // Receiver: the real peer pipeline served as a sim actor.
    let receiver = topo.peer(RECEIVER);
    let receiver_peer = Arc::clone(&receiver.peer);
    let receiver_metrics = receiver.metrics.clone();

    // Provider: adversarial Get_Date daemon.
    let provider_metrics = topo.serve(
        PROVIDER,
        adversarial_provider(Arc::clone(&compiled), config.seed, config.provider_fault_prob),
    );

    // Sender: the real pooled client stack over the sim transport.
    let sender_peer = topo.local_peer(SENDER);
    let provider_link = topo.remote(SENDER, PROVIDER);
    let receiver_link = topo.remote(SENDER, RECEIVER);
    let (provider_remote, receiver_remote) = (&provider_link.remote, &receiver_link.remote);
    let provider_client_metrics = provider_link.metrics.clone();
    let receiver_client_metrics = receiver_link.metrics.clone();

    // Enforce the exchange schema through the real rewriter, materializing
    // embedded calls over the simulated network; then ship the result.
    let doc = match &config.doc {
        Some(doc) => doc.clone(),
        None => {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0xd0c5_eed);
            generated_doc(&mut rng, config.exhibits)
        }
    };
    let cache_metrics = axml_obs::Registry::new();
    let cache = SolveCache::with_registry(64, &cache_metrics);
    let exchange = || -> Result<(ITree, RewriteReport), PeerError> {
        let mut invoker = NetInvoker {
            caller: &sender_peer,
            remote: provider_remote,
        };
        let (sent, report) = enforce_with(&compiled, &doc, 1, config.mode, &cache, &mut invoker)?;
        receiver_remote.send_document(&sender_peer, "program", &sent, &compiled)?;
        Ok((sent, report))
    };
    let outcome = match exchange() {
        Ok((sent, report)) => Outcome::Delivered { sent, report },
        Err(e) => Outcome::Failed {
            error: e.to_string(),
        },
    };
    world.run_until_idle();

    // ---- Invariants --------------------------------------------------
    let mut violations = Vec::new();
    match &outcome {
        Outcome::Delivered { sent, .. } => {
            if let Err(e) = validate(sent, &compiled) {
                violations.push(format!(
                    "delivered document does not conform to the exchange schema: {e}"
                ));
            }
            match receiver_peer.repository.load("program") {
                Ok(stored) if &stored == sent => {}
                Ok(_) => violations.push(
                    "receiver stored a document different from the one sent".to_owned(),
                ),
                Err(_) => violations.push(
                    "exchange reported delivered but the receiver stored nothing".to_owned(),
                ),
            }
        }
        Outcome::Failed { error } => {
            if error.trim().is_empty() {
                violations.push("exchange failed without a typed error".to_owned());
            }
        }
    }
    for (who, m) in [
        ("provider-client", &provider_client_metrics),
        ("receiver-client", &receiver_client_metrics),
    ] {
        let snap = m.snapshot();
        let calls = snap.counter("client.calls_total");
        let attempts = snap.counter("client.attempts_total");
        let retries = snap.counter("client.retries_total");
        if attempts > calls * config.attempts as u64 {
            violations.push(format!(
                "{who}: {attempts} attempts exceed the bound of {} ({calls} calls × {} attempts)",
                calls * config.attempts as u64,
                config.attempts
            ));
        }
        if retries > calls * (config.attempts as u64 - 1) {
            violations.push(format!(
                "{who}: {retries} retries exceed the bound of {} ({calls} calls × {})",
                calls * (config.attempts as u64 - 1),
                config.attempts - 1
            ));
        }
    }
    for (who, m) in [("provider", &provider_metrics), ("receiver", &receiver_metrics)] {
        let snap = m.snapshot();
        let requests = snap.counter("server.requests_total");
        let ok = snap.counter("server.responses_ok_total");
        let faults = snap.counter("server.faults_total");
        if requests != ok + faults {
            violations.push(format!(
                "{who}: accounting identity broken: {requests} requests != {ok} ok + {faults} faults"
            ));
        }
    }
    {
        let snap = cache_metrics.snapshot();
        let lookups = snap.counter("solve_cache.lookups_total");
        let hits = snap.counter("solve_cache.hits_total");
        let misses = snap.counter("solve_cache.misses_total");
        if lookups != hits + misses {
            violations.push(format!(
                "solver cache identity broken: {lookups} lookups != {hits} hits + {misses} misses"
            ));
        }
    }

    // ---- Transcript --------------------------------------------------
    let mut t = String::new();
    t.push_str(&format!(
        "scenario seed={} mode={:?} exhibits={}\n",
        config.seed, config.mode, config.exhibits
    ));
    t.push_str("=== events ===\n");
    t.push_str(&world.event_log());
    t.push_str("\n=== outcome ===\n");
    match &outcome {
        Outcome::Delivered { sent, report } => {
            t.push_str(&format!("delivered {}\n", sent.to_xml().to_xml()));
            t.push_str(&format!(
                "report invoked={:?} wasted_calls={} games={}\n",
                report.invoked, report.wasted_calls, report.games
            ));
        }
        Outcome::Failed { error } => {
            t.push_str(&format!("failed: {error}\n"));
        }
    }
    t.push_str("=== metrics ===\n");
    for (who, m) in [
        ("client.provider", &provider_client_metrics),
        ("client.receiver", &receiver_client_metrics),
        ("server.provider", &provider_metrics),
        ("server.receiver", &receiver_metrics),
    ] {
        t.push_str(&format!("{who}: {}\n", m.snapshot().to_json()));
    }
    {
        // The cache's `*_ns` histograms measure real wall time inside the
        // solver — the one place the sim clock cannot reach — so the
        // transcript carries only its (deterministic) counters.
        let snap = cache_metrics.snapshot();
        t.push_str(&format!(
            "cache: lookups={} hits={} misses={} insertions={} evictions={} entries={}\n",
            snap.counter("solve_cache.lookups_total"),
            snap.counter("solve_cache.hits_total"),
            snap.counter("solve_cache.misses_total"),
            snap.counter("solve_cache.insertions_total"),
            snap.counter("solve_cache.evictions_total"),
            snap.gauge("solve_cache.entries"),
        ));
    }
    for v in &violations {
        t.push_str(&format!("VIOLATION: {v}\n"));
    }

    ScenarioReport {
        outcome,
        violations,
        transcript: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_scenario_delivers_and_passes_invariants() {
        let config = ScenarioConfig {
            seed: 7,
            plan: FaultPlan::default(),
            mode: Strategy::Safe,
            doc: Some(ITree::elem(
                "r",
                vec![exhibit("monet", true), exhibit("rodin", false)],
            )),
            exhibits: 0,
            provider_fault_prob: 0.0,
            attempts: 4,
            deadline: Duration::from_secs(5),
        };
        let report = run_scenario(&config);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        match &report.outcome {
            Outcome::Delivered { sent, report } => {
                validate(sent, &exchange_schema()).unwrap();
                assert_eq!(report.invoked, vec!["Get_Date".to_owned()]);
            }
            Outcome::Failed { error } => panic!("fault-free run failed: {error}"),
        }
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let config = ScenarioConfig::from_seed(42);
        let a = run_scenario(&config);
        let b = run_scenario(&config);
        assert_eq!(a.transcript, b.transcript);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn virtual_time_advances_without_wall_time() {
        let world = SimWorld::new(1, FaultPlan::default());
        let clock = world.clock();
        let wall = std::time::Instant::now();
        clock.sleep(Duration::from_secs(60));
        assert_eq!(world.now_ns(), 60 * 1_000_000_000);
        assert!(wall.elapsed() < Duration::from_secs(1));
    }
}
