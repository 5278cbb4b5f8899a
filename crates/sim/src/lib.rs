//! Deterministic simulation harness for the Active XML peer network.
//!
//! Everything nondeterministic about a real multi-peer exchange — socket
//! latency, message loss, connection resets, server backpressure, peer
//! crashes, even the answers services return — is replaced here by draws
//! from **one seeded RNG** advancing **virtual time** through a
//! discrete-event queue. A scenario run is a pure function of its seed:
//! run it twice and the event logs, exchange transcripts, and metrics
//! snapshots are byte-identical. Thousands of seeds explore thousands of
//! distinct fault interleavings per CI run in seconds of wall time, and
//! a failing seed shrinks (via the `axml-support` property harness) and
//! replays exactly.
//!
//! The stack under test is the *production* stack: the real pooled
//! [`axml_net::NetClient`] with its retry/deadline logic, the real wire
//! codecs, the real peer enforcement pipeline
//! ([`axml_peer::envelope_handler`]) — only the [`Transport`] and
//! [`Clock`] capabilities are swapped for simulated ones.
//!
//! * [`world`] — the event queue, virtual clock, in-memory transport,
//!   fault pipeline, and server actors;
//! * [`scenario`] — the Fig. 1 three-party exchange scenario, its
//!   invariant checks, and the transcript serializer;
//! * [`marketplace`] — continuation-style quote chains across a provider
//!   fleet, with UDDI/ACL registry churn mid-exchange;
//! * [`soak`] — the fleet-scale soak: ≥100 peers, ≥1000 exchanges in
//!   one world, every invariant checked fleet-wide;
//! * [`upgrade`] — rolling-schema-upgrade fleet: the persisted
//!   compatibility matrix gates sends while daemons change versions,
//!   and a mid-run sender restart resumes from a warm cache snapshot;
//! * [`strategy`] — pluggable provider answer policies: random,
//!   crashing, and the strategic game-graph opponent;
//! * [`topology`] — declarative construction of multi-peer casts
//!   (listening peers, custom services, client edges).
//!
//! [`Transport`]: axml_net::Transport
//! [`Clock`]: axml_support::clock::Clock

#![warn(missing_docs)]

pub mod marketplace;
pub mod scenario;
pub mod soak;
pub mod strategy;
pub mod topology;
pub mod upgrade;
pub mod world;

pub use marketplace::{
    market_endpoint, marketplace_schema, offer, run_marketplace, ChurnKind, ChurnPlan,
    MarketplaceConfig, RoutingInvoker, StrategyKind, BUYER, PRINCIPAL, SHOPPER,
};
pub use scenario::{
    exchange_schema, exhibit, run_scenario, scenario_plan, Outcome, ScenarioConfig,
    ScenarioReport, PROVIDER, RECEIVER, SENDER,
};
pub use soak::{fleet_endpoint, run_soak, SoakConfig, SoakReport};
pub use strategy::{
    strategy_provider, CrashingStrategy, RandomStrategy, StrategicStrategy, Strategy,
};
pub use topology::{Link, PeerNode, Topology};
pub use upgrade::{
    run_upgrade, upgrade_endpoint, upgrade_portfolio, UpgradeConfig, UpgradeReport,
    UPGRADE_PROVIDER, UPGRADE_SENDER,
};
pub use world::{Crash, FaultPlan, Partition, SimServerConfig, SimWorld};
