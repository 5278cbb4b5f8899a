//! Fleet-scale soak gates (DESIGN.md §10): one seeded world holding a
//! hundred peers, a thousand exchanges driven through the real client,
//! wire, and enforcement stack under the full fault taxonomy — drops,
//! duplicates, delays, resets, busy pushback, symmetric and one-direction
//! partitions, crash-restarts — in virtual time, with every invariant
//! (conformance, typed failures, retry bounds, the
//! `server.requests = ok + faults` and `lookups = hits + misses`
//! accounting identities, per-peer *and* fleet-wide) checked on every
//! run, byte-reproducible from one `u64` seed.
//!
//! To replay a soak by hand:
//!
//! ```text
//! AXML_SOAK_SEED=0xdeadbeef cargo test --test sim_soak replay_env_seed -- --nocapture
//! ```

use axml::core::rewrite::Strategy;
use axml::schema::ITree;
use axml::sim::{
    offer, run_marketplace, run_soak, FaultPlan, MarketplaceConfig, Outcome, SoakConfig,
    StrategyKind,
};
use std::time::Duration;

/// The reduced soak (16 peers, 120 exchanges — the ci.sh gate) passes
/// every invariant and replays byte-identically: same seed, same
/// transcript, down to the event-log digest.
#[test]
fn reduced_soak_replays_byte_identically() {
    for seed in [0u64, 3, 0x50a7, 0xdead_beef] {
        let config = SoakConfig::reduced(seed);
        let a = run_soak(&config);
        assert!(
            a.violations.is_empty(),
            "soak seed 0x{seed:x} violated: {:?}\ntranscript tail:\n{}",
            a.violations,
            tail(&a.transcript)
        );
        assert_eq!(a.delivered + a.failed, config.exchanges);
        let b = run_soak(&config);
        assert_eq!(
            a.transcript, b.transcript,
            "soak seed 0x{seed:x} diverged between runs"
        );
    }
}

/// The full gate from the issue: a 100-peer fleet, 1000 exchanges, the
/// complete fault taxonomy, all invariants and both accounting
/// identities fleet-wide — and the whole run reproducible from one seed.
#[test]
fn fleet_soak_100_peers_1000_exchanges_upholds_invariants() {
    let config = SoakConfig::fleet(2026);
    let a = run_soak(&config);
    assert!(
        a.violations.is_empty(),
        "fleet soak violated: {:?}\ntranscript tail:\n{}",
        a.violations,
        tail(&a.transcript)
    );
    assert_eq!(a.delivered + a.failed, 1000);
    assert!(a.delivered > 0, "a mild fault schedule must deliver exchanges");
    assert!(a.failed > 0, "1000 exchanges under faults must fail some");
    // The seed draws the fleet composition; this seed fields all three
    // opponent kinds.
    for kind in ["random", "crashing", "strategic"] {
        assert!(
            a.strategies.iter().any(|s| s.name() == kind),
            "100-peer fleet is missing a {kind} opponent"
        );
    }
    let b = run_soak(&config);
    assert_eq!(a.transcript, b.transcript, "fleet soak diverged between runs");
}

/// The strategic game-graph opponent demonstrably changes an outcome a
/// random opponent would not: same pinned seed, same document, same
/// world — a random fleet delivers, the strategic fleet forces a typed
/// possible-mode failure by answering the worst type-correct word
/// (`apology`) at every fork.
#[test]
fn strategic_adversary_flips_a_random_delivery_into_typed_failure() {
    let doc = ITree::elem("catalog", vec![offer("laptop", Some("Get_Quote"))]);
    let pinned = |strategies: Vec<StrategyKind>| MarketplaceConfig {
        seed: 3,
        plan: FaultPlan::default(),
        mode: Strategy::Possible,
        doc: Some(doc.clone()),
        offers: 0,
        strategies,
        k: 3,
        churn: None,
        attempts: 4,
        deadline: Duration::from_secs(5),
    };
    let random = run_marketplace(&pinned(vec![StrategyKind::Random { fault_prob: 0.0 }]));
    let strategic = run_marketplace(&pinned(vec![StrategyKind::Strategic]));
    assert!(random.violations.is_empty(), "{:?}", random.violations);
    assert!(strategic.violations.is_empty(), "{:?}", strategic.violations);
    assert!(
        matches!(random.outcome, Outcome::Delivered { .. }),
        "the random opponent delivers on this pinned seed"
    );
    match &strategic.outcome {
        Outcome::Failed { error } => assert!(
            error.contains("all rewriting branches failed"),
            "strategic opponent must exhaust the rewriter, got: {error}"
        ),
        Outcome::Delivered { .. } => {
            panic!("strategic opponent must not deliver where random does")
        }
    }
}

/// Replays one soak by hand: set `AXML_SOAK_SEED` (decimal or 0x-hex) and
/// run with `--nocapture` to see the reduced-soak transcript of that
/// seed.
#[test]
fn replay_env_seed() {
    let seed = match std::env::var("AXML_SOAK_SEED") {
        Ok(raw) => {
            let raw = raw.trim().replace('_', "");
            match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).expect("AXML_SOAK_SEED: bad hex"),
                None => raw.parse().expect("AXML_SOAK_SEED: bad u64"),
            }
        }
        Err(_) => 7, // no seed requested: still exercise the replay path
    };
    let report = run_soak(&SoakConfig::reduced(seed));
    println!("{}", report.transcript);
    assert!(
        report.violations.is_empty(),
        "soak seed 0x{seed:016x} violated: {:?}",
        report.violations
    );
}

fn tail(transcript: &str) -> String {
    transcript
        .lines()
        .rev()
        .take(30)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect::<Vec<_>>()
        .join("\n")
}
