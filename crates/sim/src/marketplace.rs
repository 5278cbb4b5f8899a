//! The marketplace scenario: continuation-style quote chains across a
//! fleet of seeded peers, with registry churn mid-exchange.
//!
//! A shopper holds a `catalog` whose offers may leave the price
//! intensional in two ways:
//!
//! * `Get_Quote` — a *search-engine style* service whose output type is
//!   `price|apology|Get_Quote`: a provider may answer with a price, an
//!   apology (type-correct, but nothing downstream can repair it), or a
//!   **continuation** — another `Get_Quote` call. The shopper's
//!   [`RoutingInvoker`] routes each successive hop to the next provider
//!   round-robin, so a chain of continuations walks across the fleet
//!   until some peer answers extensionally or the expansion depth `k`
//!   runs out;
//! * `Get_Appraisal` — a *local* service resolved through the shopper's
//!   own UDDI/ACL [`axml_services::Registry`] under a principal. This is
//!   the churn target: mid-exchange, the scenario may deregister the
//!   listing or revoke the principal's grant, and every later appraisal
//!   must fail with the registry's typed error.
//!
//! Each provider answers through a pluggable
//! [`Strategy`](crate::strategy::Strategy): random type-correct data, a
//! crash-after-N daemon, or the strategic game-graph opponent that picks
//! the worst type-correct answer (`apology`) wherever the graph admits
//! one. Everything — topology
//! size, document shape, fault schedule (including one-direction
//! partitions), churn point, per-peer strategies — derives from one
//! seed, and the run serializes to a byte-reproducible transcript
//! checked against the same invariants as the Fig. 1 scenario.

use crate::scenario::{Outcome, ScenarioReport};
use crate::strategy::{
    self, strategy_provider, CrashingStrategy, RandomStrategy, StrategicStrategy,
};
use crate::topology::{Link, Topology};
use crate::world::{Crash, FaultPlan, Partition, SimWorld};
use axml_core::invoke::{InvokeError, Invoker};
use axml_core::rewrite::{enforce_with, RewriteReport, Strategy};
use axml_core::solve_cache::SolveCache;
use axml_peer::{NetInvoker, Peer, PeerError};
use axml_schema::{validate, Compiled, ITree, NoOracle, Schema};
use axml_support::rng::{RngExt, SeedableRng, StdRng};
use std::sync::Arc;
use std::time::Duration;

/// The shopper (sender) client name.
pub const SHOPPER: &str = "shopper.example.org";
/// The buyer daemon that receives the enforced catalog.
pub const BUYER: &str = "buyer.example.org";
/// The principal the shopper presents to its local registry.
pub const PRINCIPAL: &str = "shopper";

/// Endpoint of the `i`-th marketplace provider.
pub fn market_endpoint(i: usize) -> String {
    format!("market{i}.example.org")
}

/// What one provider peer answers with.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyKind {
    /// Random type-correct answers with seeded fault injection.
    Random {
        /// Probability a call is answered with an injected fault.
        fault_prob: f64,
    },
    /// Serves `up_for` calls, then faults forever.
    Crashing {
        /// Calls served before the crash.
        up_for: u64,
    },
    /// The game-graph opponent: worst type-correct answers.
    Strategic,
}

impl StrategyKind {
    /// Builds the concrete strategy for this kind.
    pub fn build(&self, compiled: &Compiled) -> Arc<dyn strategy::Strategy> {
        match self {
            StrategyKind::Random { fault_prob } => Arc::new(RandomStrategy {
                fault_prob: *fault_prob,
            }),
            StrategyKind::Crashing { up_for } => Arc::new(CrashingStrategy::after(*up_for)),
            StrategyKind::Strategic => Arc::new(
                StrategicStrategy::new(compiled, &["title", "Get_Quote"], "title.price", 1)
                    .expect("marketplace strategic context compiles"),
            ),
        }
    }

    /// Short name for transcripts.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Random { .. } => "random",
            StrategyKind::Crashing { .. } => "crashing",
            StrategyKind::Strategic => "strategic",
        }
    }
}

/// How the shopper's local registry is churned mid-exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// The provider withdraws its UDDI listing.
    Deregister,
    /// The ACL grant for the shopper's principal is revoked.
    Revoke,
}

/// Registry churn schedule: after `after_calls` dispatched invocations,
/// apply `kind` to the local `Get_Appraisal` listing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Invocations dispatched before the churn fires.
    pub after_calls: u64,
    /// What the churn does.
    pub kind: ChurnKind,
}

/// Everything one marketplace run depends on; derive it wholesale from a
/// seed with [`MarketplaceConfig::from_seed`], or pin fields.
#[derive(Debug, Clone)]
pub struct MarketplaceConfig {
    /// Seed for the world, document, and providers.
    pub seed: u64,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Safe or possible enforcement.
    pub mode: Strategy,
    /// Document to ship; `None` generates one from the seed.
    pub doc: Option<ITree>,
    /// Number of offers when generating the document.
    pub offers: usize,
    /// Per-provider answer strategies (also fixes the fleet size).
    pub strategies: Vec<StrategyKind>,
    /// Expansion depth (bounds continuation-chain length).
    pub k: u32,
    /// Registry churn, if any.
    pub churn: Option<ChurnPlan>,
    /// Client attempts per call.
    pub attempts: u32,
    /// Client total per-call deadline.
    pub deadline: Duration,
}

impl MarketplaceConfig {
    /// Derives a full marketplace run from one seed: fleet size and
    /// strategies, document shape, fault schedule (with one-direction
    /// partitions), churn point — the distribution the property batch
    /// explores.
    pub fn from_seed(seed: u64) -> MarketplaceConfig {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3a9c_e77e_ba2a);
        let peers = rng.random_range(2..=5usize);
        let offers = rng.random_range(0..8usize);
        let k = rng.random_range(1..=3u32);
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
        if rng.random_bool(0.3) {
            let from_ns = rng.random_range(0..1_000_000_000);
            plan.partitions.push(Partition {
                a: SHOPPER.to_owned(),
                b: market_endpoint(rng.random_range(0..peers)),
                from_ns,
                until_ns: from_ns + rng.random_range(0..300_000_000),
                oneway: rng.random_bool(0.5),
            });
        }
        if rng.random_bool(0.25) {
            plan.crashes.push(Crash {
                endpoint: if rng.random_bool(0.5) {
                    market_endpoint(rng.random_range(0..peers))
                } else {
                    BUYER.to_owned()
                },
                at_ns: rng.random_range(0..1_500_000_000),
                down_ns: rng.random_range(0..400_000_000),
            });
        }
        let mode = if rng.random_bool(0.3) { Strategy::Safe } else { Strategy::Possible };
        let churn = if rng.random_bool(0.5) {
            Some(ChurnPlan {
                after_calls: rng.random_range(0..6),
                kind: if rng.random_bool(0.5) { ChurnKind::Deregister } else { ChurnKind::Revoke },
            })
        } else {
            None
        };
        let strategies = (0..peers)
            .map(|_| {
                let u = rng.random_unit();
                if u < 0.7 {
                    StrategyKind::Random {
                        fault_prob: rng.random_unit() * 0.15,
                    }
                } else if u < 0.85 {
                    StrategyKind::Crashing {
                        up_for: rng.random_range(0..5),
                    }
                } else {
                    StrategyKind::Strategic
                }
            })
            .collect();
        MarketplaceConfig {
            seed,
            plan,
            mode,
            doc: None,
            offers,
            strategies,
            k,
            churn,
            attempts: 4,
            deadline: Duration::from_secs(5),
        }
    }
}

/// The marketplace vocabulary: a catalog of offers whose prices may be
/// left as `Get_Quote` continuations or local `Get_Appraisal` calls.
pub fn marketplace_schema() -> Arc<Compiled> {
    static SCHEMA: std::sync::OnceLock<Arc<Compiled>> = std::sync::OnceLock::new();
    SCHEMA
        .get_or_init(|| {
            Arc::new(
                Compiled::new(
                    Schema::builder()
                        .element("catalog", "offer*")
                        .element("offer", "title.price")
                        .data_element("title")
                        .data_element("price")
                        .data_element("apology")
                        .function("Get_Quote", "title", "price|apology|Get_Quote")
                        .function("Get_Appraisal", "title", "price")
                        .build()
                        .expect("static marketplace schema"),
                    &NoOracle,
                )
                .expect("static marketplace schema compiles"),
            )
        })
        .clone()
}

/// One offer with its price materialized, or left as a call to `func`.
pub fn offer(title: &str, func: Option<&str>) -> ITree {
    let price = match func {
        None => ITree::data("price", "100"),
        Some(f) => ITree::func(f, vec![ITree::data("title", title)]),
    };
    ITree::elem("offer", vec![ITree::data("title", title), price])
}

pub(crate) fn generated_catalog(rng: &mut StdRng, offers: usize, allow_quotes: bool) -> ITree {
    let children = (0..offers)
        .map(|_| {
            let len = rng.random_range(1..=5usize);
            let title: String = (0..len).map(|_| rng.random_range('a'..='z')).collect();
            let kinds: &[Option<&str>] = if allow_quotes {
                &[None, Some("Get_Appraisal"), Some("Get_Quote")]
            } else {
                &[None, Some("Get_Appraisal")]
            };
            offer(&title, kinds[rng.random_range(0..kinds.len())])
        })
        .collect();
    ITree::elem("catalog", children)
}

/// The shopper's invoker: `Get_Quote` hops round-robin across the
/// provider fleet (each continuation lands on the next peer), everything
/// else resolves through the local UDDI/ACL registry under the shopper's
/// principal — with the churn plan applied mid-exchange.
pub struct RoutingInvoker<'a> {
    caller: &'a Arc<Peer>,
    links: &'a [Link],
    registry: &'a axml_services::Registry,
    churn: Option<ChurnPlan>,
    dispatched: u64,
    hop: usize,
    churned: bool,
}

impl<'a> RoutingInvoker<'a> {
    /// A fresh routing invoker over the provider fleet and the local
    /// registry.
    pub fn new(
        caller: &'a Arc<Peer>,
        links: &'a [Link],
        registry: &'a axml_services::Registry,
        churn: Option<ChurnPlan>,
    ) -> RoutingInvoker<'a> {
        RoutingInvoker {
            caller,
            links,
            registry,
            churn,
            dispatched: 0,
            hop: 0,
            churned: false,
        }
    }

    /// Network hops made so far (continuation-chain length across peers).
    pub fn hops(&self) -> usize {
        self.hop
    }
}

impl Invoker for RoutingInvoker<'_> {
    fn invoke(&mut self, function: &str, params: &[ITree]) -> Result<Vec<ITree>, InvokeError> {
        if let Some(churn) = self.churn {
            if !self.churned && self.dispatched >= churn.after_calls {
                self.churned = true;
                match churn.kind {
                    ChurnKind::Deregister => {
                        self.registry.deregister("Get_Appraisal");
                    }
                    ChurnKind::Revoke => self.registry.revoke(PRINCIPAL, "Get_Appraisal"),
                }
            }
        }
        self.dispatched += 1;
        if function == "Get_Quote" {
            let link = &self.links[self.hop % self.links.len()];
            self.hop += 1;
            NetInvoker {
                caller: self.caller,
                remote: &link.remote,
            }
            .invoke(function, params)
        } else {
            self.registry.call(Some(PRINCIPAL), function, params)
        }
    }
}

/// Runs one seeded marketplace exchange and checks every invariant.
pub fn run_marketplace(config: &MarketplaceConfig) -> ScenarioReport {
    let world = SimWorld::new(config.seed, config.plan.clone());
    let topo = Topology::new(&world, marketplace_schema()).with_retries(
        config.seed,
        config.attempts,
        config.deadline,
    );
    let compiled = Arc::clone(topo.compiled());

    // Buyer: the real peer pipeline, stores the enforced catalog.
    let buyer = topo.peer(BUYER);

    // Provider fleet: one strategy daemon per configured peer.
    let provider_metrics: Vec<axml_obs::Registry> = config
        .strategies
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let seed = config.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1);
            topo.serve(
                &market_endpoint(i),
                strategy_provider(Arc::clone(&compiled), seed, kind.build(&compiled)),
            )
        })
        .collect();
    let provider_links: Vec<Link> = (0..config.strategies.len())
        .map(|i| topo.remote(SHOPPER, &market_endpoint(i)))
        .collect();

    // Shopper: local registry serving Get_Appraisal under an ACL (the
    // churn target), plus the pooled client edges.
    let registry = Arc::new(axml_services::Registry::new());
    registry.register_fn(
        axml_services::ServiceDef::new("Get_Appraisal", "title", "price"),
        |_params| Ok(vec![ITree::data("price", "100")]),
    );
    registry.grant(PRINCIPAL, "Get_Appraisal");
    let shopper = topo.local_peer_with(SHOPPER, Arc::clone(&registry));
    let buyer_link = topo.remote(SHOPPER, BUYER);

    let doc = match &config.doc {
        Some(doc) => doc.clone(),
        None => {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0xca7a_106d);
            generated_catalog(&mut rng, config.offers, config.mode == Strategy::Possible)
        }
    };
    let cache_metrics = axml_obs::Registry::new();
    let cache = SolveCache::with_registry(64, &cache_metrics);
    let exchange = || -> Result<(ITree, RewriteReport), PeerError> {
        let mut invoker =
            RoutingInvoker::new(&shopper, &provider_links, &registry, config.churn);
        let (sent, report) =
            enforce_with(&compiled, &doc, config.k, config.mode, &cache, &mut invoker)?;
        buyer_link
            .remote
            .send_document(&shopper, "market", &sent, &compiled)?;
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
                    "delivered catalog does not conform to the marketplace schema: {e}"
                ));
            }
            match buyer.peer.repository.load("market") {
                Ok(stored) if &stored == sent => {}
                Ok(_) => violations
                    .push("buyer stored a catalog different from the one sent".to_owned()),
                Err(_) => violations
                    .push("exchange reported delivered but the buyer stored nothing".to_owned()),
            }
        }
        Outcome::Failed { error } => {
            if error.trim().is_empty() {
                violations.push("exchange failed without a typed error".to_owned());
            }
        }
    }
    let mut client_edges: Vec<(String, &axml_obs::Registry)> = provider_links
        .iter()
        .enumerate()
        .map(|(i, l)| (format!("client.market{i}"), &l.metrics))
        .collect();
    client_edges.push(("client.buyer".to_owned(), &buyer_link.metrics));
    for (who, m) in &client_edges {
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
    let mut servers: Vec<(String, &axml_obs::Registry)> = provider_metrics
        .iter()
        .enumerate()
        .map(|(i, m)| (format!("server.market{i}"), m))
        .collect();
    servers.push(("server.buyer".to_owned(), &buyer.metrics));
    for (who, m) in &servers {
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
        "marketplace seed={} mode={:?} offers={} k={} churn={:?} strategies=[{}]\n",
        config.seed,
        config.mode,
        config.offers,
        config.k,
        config.churn,
        config
            .strategies
            .iter()
            .map(StrategyKind::name)
            .collect::<Vec<_>>()
            .join(","),
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
    for (who, m) in client_edges.iter().chain(servers.iter()) {
        t.push_str(&format!("{who}: {}\n", m.snapshot().to_json()));
    }
    {
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

    fn pinned(seed: u64, mode: Strategy, doc: ITree, strategies: Vec<StrategyKind>) -> MarketplaceConfig {
        MarketplaceConfig {
            seed,
            plan: FaultPlan::default(),
            mode,
            doc: Some(doc),
            offers: 0,
            strategies,
            k: 3,
            churn: None,
            attempts: 4,
            deadline: Duration::from_secs(5),
        }
    }

    #[test]
    fn clean_possible_run_with_random_fleet_delivers() {
        let doc = ITree::elem(
            "catalog",
            vec![offer("laptop", Some("Get_Quote")), offer("phone", None)],
        );
        let config = pinned(
            21,
            Strategy::Possible,
            doc,
            vec![
                StrategyKind::Random { fault_prob: 0.0 },
                StrategyKind::Random { fault_prob: 0.0 },
            ],
        );
        let report = run_marketplace(&config);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // Random fleets may answer apology (typed failure) or price; this
        // pinned seed happens to deliver — if it ever flips, the transcript
        // is still deterministic, which is what matters here.
        match &report.outcome {
            Outcome::Delivered { sent, .. } => validate(sent, &marketplace_schema()).unwrap(),
            Outcome::Failed { error } => assert!(!error.is_empty()),
        }
    }

    #[test]
    fn strategic_fleet_forces_a_typed_possible_failure() {
        let doc = ITree::elem("catalog", vec![offer("laptop", Some("Get_Quote"))]);
        let config = pinned(21, Strategy::Possible, doc, vec![StrategyKind::Strategic]);
        let report = run_marketplace(&config);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        match &report.outcome {
            Outcome::Failed { error } => {
                assert!(
                    error.contains("all rewriting branches failed"),
                    "strategic apology must exhaust the rewriter, got: {error}"
                );
            }
            Outcome::Delivered { sent, .. } => {
                panic!("strategic opponent must not let this deliver: {}", sent.to_xml().to_xml())
            }
        }
    }

    #[test]
    fn safe_mode_serves_appraisals_from_the_local_registry() {
        let doc = ITree::elem(
            "catalog",
            vec![offer("laptop", Some("Get_Appraisal")), offer("phone", None)],
        );
        let config = pinned(
            22,
            Strategy::Safe,
            doc,
            vec![StrategyKind::Random { fault_prob: 0.0 }],
        );
        let report = run_marketplace(&config);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        match &report.outcome {
            Outcome::Delivered { sent, report } => {
                validate(sent, &marketplace_schema()).unwrap();
                assert_eq!(report.invoked, vec!["Get_Appraisal".to_owned()]);
            }
            Outcome::Failed { error } => panic!("local appraisal failed: {error}"),
        }
    }

    #[test]
    fn churn_fails_later_appraisals_typed() {
        let doc = ITree::elem(
            "catalog",
            vec![
                offer("laptop", Some("Get_Appraisal")),
                offer("phone", Some("Get_Appraisal")),
            ],
        );
        for kind in [ChurnKind::Deregister, ChurnKind::Revoke] {
            let mut config = pinned(
                23,
                Strategy::Safe,
                doc.clone(),
                vec![StrategyKind::Random { fault_prob: 0.0 }],
            );
            config.churn = Some(ChurnPlan {
                after_calls: 1,
                kind,
            });
            let report = run_marketplace(&config);
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            match &report.outcome {
                Outcome::Failed { error } => assert!(
                    error.contains("not registered") || error.contains("ACL"),
                    "churn {kind:?} must surface the registry's typed error, got: {error}"
                ),
                Outcome::Delivered { .. } => {
                    panic!("churn {kind:?} after 1 call must fail the second appraisal")
                }
            }
        }
    }

    #[test]
    fn continuation_chains_hop_across_the_fleet() {
        // One provider always answers with a continuation-style hop is
        // impossible to pin with the random strategy, so drive the
        // RoutingInvoker directly: every Get_Quote goes to the next link.
        let world = SimWorld::new(31, FaultPlan::default());
        let topo = Topology::new(&world, marketplace_schema());
        let compiled = Arc::clone(topo.compiled());
        let metrics: Vec<axml_obs::Registry> = (0..3)
            .map(|i| {
                topo.serve(
                    &market_endpoint(i),
                    strategy_provider(
                        Arc::clone(&compiled),
                        31 + i as u64,
                        Arc::new(RandomStrategy { fault_prob: 0.0 }),
                    ),
                )
            })
            .collect();
        let links: Vec<Link> = (0..3).map(|i| topo.remote(SHOPPER, &market_endpoint(i))).collect();
        let registry = Arc::new(axml_services::Registry::new());
        let shopper = topo.local_peer_with(SHOPPER, Arc::clone(&registry));
        let mut invoker = RoutingInvoker::new(&shopper, &links, &registry, None);
        let params = [ITree::data("title", "x")];
        for _ in 0..4 {
            invoker.invoke("Get_Quote", &params).unwrap();
        }
        assert_eq!(invoker.hops(), 4);
        // Round-robin: 4 hops over 3 peers — peer 0 served twice.
        assert!(metrics[0].snapshot().counter("server.requests_total") >= 2);
        assert!(metrics[1].snapshot().counter("server.requests_total") >= 1);
        assert!(metrics[2].snapshot().counter("server.requests_total") >= 1);
    }

    #[test]
    fn seeded_marketplace_runs_are_byte_identical() {
        let config = MarketplaceConfig::from_seed(99);
        let a = run_marketplace(&config);
        let b = run_marketplace(&config);
        assert_eq!(a.transcript, b.transcript);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }
}
