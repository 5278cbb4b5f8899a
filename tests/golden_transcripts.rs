//! Golden transcript tests: three canonical exchanges from the paper,
//! each run under one fixed seed, compared byte-for-byte against a
//! checked-in transcript. In this reproduction the paper's figures map
//! to: Fig. 1 — the basic intensional exchange between peers; Fig. 3 —
//! the safe-rewriting enforcement path; Fig. 9 — the possible-rewriting
//! (speculative, backtracking) path.
//!
//! The transcripts pin the *entire* observable behavior of a run — event
//! schedule, wire traffic, retries, delivered document, and every metric
//! snapshot — so any drift in the client, server, enforcement, or
//! simulator shows up as a byte diff. After an intentional behavior
//! change, regenerate with:
//!
//! ```text
//! AXML_UPDATE_GOLDEN=1 cargo test --test golden_transcripts
//! ```
//!
//! and review the diff of `tests/golden/` like any other code change.

use axml::core::rewrite::Strategy;
use axml::schema::ITree;
use axml::sim::{
    exhibit, offer, run_marketplace, run_scenario, run_upgrade, FaultPlan, MarketplaceConfig,
    Outcome, ScenarioConfig, StrategyKind, UpgradeConfig,
};
use std::path::PathBuf;
use std::time::Duration;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, transcript: &str) {
    let path = golden_path(name);
    if std::env::var("AXML_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, transcript).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {path:?} ({e}); run with AXML_UPDATE_GOLDEN=1 to create it")
    });
    assert!(
        transcript == want,
        "transcript drifted from {name}.\n\
         If the change is intentional, regenerate with AXML_UPDATE_GOLDEN=1 \
         and review the diff.\n--- want ---\n{want}\n--- got ---\n{transcript}"
    );
}

/// The Fig. 1 document: two exhibits, one with its date materialized and
/// one left as an embedded `Get_Date` call.
fn fig1_doc() -> ITree {
    ITree::elem("r", vec![exhibit("monet", false), exhibit("rodin", true)])
}

/// Fig. 1 — the basic exchange: a clean network, safe enforcement, the
/// intensional call materialized before shipping, document delivered.
#[test]
fn fig1_exchange_transcript_is_stable() {
    let report = run_scenario(&ScenarioConfig {
        seed: 0x0f16_0001,
        plan: FaultPlan::default(),
        mode: Strategy::Safe,
        doc: Some(fig1_doc()),
        exhibits: 0,
        provider_fault_prob: 0.0,
        attempts: 4,
        deadline: Duration::from_secs(5),
    });
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(matches!(report.outcome, Outcome::Delivered { .. }));
    check_golden("fig1.txt", &report.transcript);
}

/// Fig. 3 — safe rewriting under a noisy network: duplicated frames and
/// Busy pushback force retries, but the safe plan still guarantees the
/// delivered document conforms.
#[test]
fn fig3_safe_rewriting_transcript_is_stable() {
    let report = run_scenario(&ScenarioConfig {
        seed: 0x0f16_0004,
        plan: FaultPlan {
            dup_prob: 0.25,
            busy_prob: 0.40,
            ..FaultPlan::default()
        },
        mode: Strategy::Safe,
        doc: Some(ITree::elem(
            "r",
            vec![exhibit("monet", true), exhibit("rodin", true)],
        )),
        exhibits: 0,
        provider_fault_prob: 0.0,
        attempts: 4,
        deadline: Duration::from_secs(5),
    });
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(matches!(report.outcome, Outcome::Delivered { .. }));
    check_golden("fig3.txt", &report.transcript);
}

/// Fig. 9 — possible rewriting against a flaky provider: service calls
/// may come back as injected faults, the speculative plan retries or
/// reports a typed failure, and the whole dance is pinned byte-for-byte.
#[test]
fn fig9_possible_rewriting_transcript_is_stable() {
    let report = run_scenario(&ScenarioConfig {
        seed: 0x0f16_0009,
        plan: FaultPlan::default(),
        mode: Strategy::Possible,
        doc: Some(ITree::elem(
            "r",
            vec![
                exhibit("monet", true),
                exhibit("rodin", false),
                exhibit("redon", true),
            ],
        )),
        exhibits: 0,
        provider_fault_prob: 0.5,
        attempts: 4,
        deadline: Duration::from_secs(5),
    });
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    check_golden("fig9.txt", &report.transcript);
}

/// The strategic game-graph adversary (Sec. 5's Possible game, played
/// against us): on a seed where a random opponent delivers, the
/// strategic provider walks the solved game graph and answers the worst
/// type-correct word (`apology`) at every `Get_Quote` fork, forcing the
/// possible-mode rewrite into a typed exhaustion failure. The pinned
/// transcript shows the whole dance — the quote call, the apology
/// answer, the backtracking, the typed error — byte-for-byte.
#[test]
fn strategic_adversary_transcript_is_stable() {
    let config = MarketplaceConfig {
        seed: 3,
        plan: FaultPlan::default(),
        mode: Strategy::Possible,
        doc: Some(ITree::elem(
            "catalog",
            vec![offer("laptop", Some("Get_Quote"))],
        )),
        offers: 0,
        strategies: vec![StrategyKind::Strategic],
        k: 3,
        churn: None,
        attempts: 4,
        deadline: Duration::from_secs(5),
    };
    let report = run_marketplace(&config);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // The same seed with a fault-free random opponent delivers (see
    // tests/sim_soak.rs); the strategic opponent must not.
    match &report.outcome {
        Outcome::Failed { error } => assert!(error.contains("all rewriting branches failed")),
        Outcome::Delivered { .. } => panic!("strategic opponent must force a typed failure"),
    }
    check_golden("strategic.txt", &report.transcript);
}

/// The rolling-schema-upgrade fleet (DESIGN.md §11): the persisted
/// compatibility matrix vetoes the incompatible version while daemons
/// upgrade one by one, and a mid-run sender restart resumes from the
/// on-disk cache snapshot with zero misses. The transcript pins the
/// upgrade schedule, every matrix verdict, the restart reload counts,
/// both cache-counter phases, the store counters, and a digest of the
/// full event log.
#[test]
fn rolling_upgrade_transcript_is_stable() {
    let report = run_upgrade(&UpgradeConfig::from_seed(0x0f16_0011));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.delivered > 0 && report.vetoed > 0);
    check_golden("upgrade.txt", &report.transcript);
}
