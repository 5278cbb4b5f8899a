//! Determinism of the cross-request solver cache (DESIGN.md §9):
//!
//! * a warm run (every game answered from the [`SolveCache`]) produces
//!   byte-identical XML and an identical [`RewriteReport`] to the cold
//!   run that populated the cache;
//! * so do runs through a capacity-starved cache that evicts as it goes.
//!
//! Services are modeled by a *pure* invoker — the answer depends only on
//! `(function, params)`, never on call order or thread — so any output
//! divergence can only come from the cache.

use axml::core::invoke::{InvokeError, Invoker};
use axml::core::rewrite::{RewriteReport, Rewriter};
use axml::core::solve_cache::SolveCache;
use axml::schema::{
    generate_output_instance, validate, Compiled, GenConfig, ITree, NoOracle, Schema,
};
use axml_support::hash::fx_hash_one;
use axml_support::prelude::*;
use axml_support::rng::SeedableRng;

#[allow(unused_imports)] // doc link
use axml::core::rewrite::RewriteError;

/// Answers every call with a random output instance of the function's
/// declared type, drawn from an RNG seeded by `(salt, function, params)`
/// alone: the same call always gets the same answer, on any thread.
struct PureInvoker<'c> {
    compiled: &'c Compiled,
    salt: u64,
}

impl Invoker for PureInvoker<'_> {
    fn invoke(&mut self, function: &str, params: &[ITree]) -> Result<Vec<ITree>, InvokeError> {
        let seed = fx_hash_one(&(self.salt, function, format!("{params:?}")));
        let mut rng = axml_support::rng::StdRng::seed_from_u64(seed);
        let output = self.compiled.sig_of(function).output.clone();
        generate_output_instance(self.compiled, &output, &mut rng, &GenConfig::default()).map_err(
            |e| InvokeError {
                function: function.to_owned(),
                message: e.to_string(),
            },
        )
    }
}

fn exchange_compiled() -> Compiled {
    Compiled::new(
        Schema::builder()
            .element("r", "exhibit*")
            .element("exhibit", "title.date")
            .data_element("title")
            .data_element("date")
            .function("Get_Date", "title", "date")
            .build()
            .unwrap(),
        &NoOracle,
    )
    .unwrap()
}

/// One root subtree: materialized or intensional date, per the flag.
fn exhibit(title: &str, intensional: bool) -> ITree {
    let date = if intensional {
        ITree::func("Get_Date", vec![ITree::data("title", title)])
    } else {
        ITree::data("date", "mon")
    };
    ITree::elem("exhibit", vec![ITree::data("title", title), date])
}

/// A pure invoker whose *failures* are pure too: a call crashes iff a
/// hash of `(crash_salt, function, params)` says so — a property of what
/// is being called, never of call order or how many calls came before.
/// Cold, warm and evicting caches therefore face the same failure set,
/// and must report it the same way.
struct CrashingInvoker<'c> {
    inner: PureInvoker<'c>,
    crash_salt: u64,
}

impl Invoker for CrashingInvoker<'_> {
    fn invoke(&mut self, function: &str, params: &[ITree]) -> Result<Vec<ITree>, InvokeError> {
        let die = fx_hash_one(&(self.crash_salt, function, format!("{params:?}"))) % 3 == 0;
        if die {
            return Err(InvokeError {
                function: function.to_owned(),
                message: "service crashed (injected)".to_owned(),
            });
        }
        self.inner.invoke(function, params)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cold, warm, and capacity-starved runs of the same document agree
    /// byte for byte, and their reports are identical.
    #[test]
    fn warm_and_cold_runs_are_byte_identical(
        exhibits in prop::collection::vec(("[a-z]{1,5}", 0u32..2), 0..6),
        salt in 0u64..1_000,
    ) {
        let c = exchange_compiled();
        let doc = ITree::elem(
            "r",
            exhibits.iter().map(|(t, f)| exhibit(t, *f == 1)).collect(),
        );
        let cache = SolveCache::unpublished(128);
        let run_sequential = |cache: &SolveCache| -> (ITree, RewriteReport) {
            let mut inv = PureInvoker { compiled: &c, salt };
            Rewriter::new(&c)
                .with_k(1)
                .with_cache(cache)
                .rewrite_safe(&doc, &mut inv)
                .unwrap()
        };
        let (cold, cold_rep) = run_sequential(&cache);
        validate(&cold, &c).unwrap();
        let cold_xml = cold.to_xml().to_xml();

        // Warm sequential: every game/DFA now comes from the cache.
        let misses_after_cold = cache.stats().misses;
        let (warm, warm_rep) = run_sequential(&cache);
        prop_assert_eq!(warm.to_xml().to_xml(), cold_xml.clone(), "warm != cold");
        prop_assert_eq!(&warm_rep, &cold_rep);
        prop_assert_eq!(cache.stats().misses, misses_after_cold,
            "a warm run must not rebuild anything");

        // A 4-entry cache evicts while it runs; twice over, it still
        // delivers the cold bytes.
        let starved = SolveCache::unpublished(4);
        for pass in 0..2 {
            let (out, rep) = run_sequential(&starved);
            prop_assert_eq!(out.to_xml().to_xml(), cold_xml.clone(),
                "starved cache diverged on pass {}", pass);
            prop_assert_eq!(&rep, &cold_rep);
        }
    }

    /// A crashing service crashes *identically* whatever the cache holds:
    /// a cold private cache, a warm shared one and a starved one either
    /// all deliver the same bytes or all fail with the same typed error.
    /// Crashes keyed on call count would make the cache observable —
    /// keyed on `(function, params)` they are not.
    #[test]
    fn crashing_invoker_fails_identically_warm_and_cold(
        exhibits in prop::collection::vec(("[a-z]{1,5}", 0u32..2), 1..6),
        salt in 0u64..1_000,
        crash_salt in 0u64..1_000,
    ) {
        let c = exchange_compiled();
        let doc = ITree::elem(
            "r",
            exhibits.iter().map(|(t, f)| exhibit(t, *f == 1)).collect(),
        );
        let run = |cache: &SolveCache| {
            let mut inv = CrashingInvoker {
                inner: PureInvoker { compiled: &c, salt },
                crash_salt,
            };
            Rewriter::new(&c).with_k(1).with_cache(cache).rewrite_safe(&doc, &mut inv)
        };
        let cold = run(&SolveCache::unpublished(128));
        let warm_cache = SolveCache::unpublished(128);
        Rewriter::new(&c)
            .with_k(1)
            .with_cache(&warm_cache)
            .rewrite_safe(&doc, &mut PureInvoker { compiled: &c, salt })
            .unwrap();
        for (regime, cache) in [("warm", warm_cache), ("starved", SolveCache::unpublished(4))] {
            let again = run(&cache);
            match (&cold, &again) {
                (Ok((s, s_rep)), Ok((p, p_rep))) => {
                    prop_assert_eq!(
                        p.to_xml().to_xml(),
                        s.to_xml().to_xml(),
                        "delivered bytes diverged under the {} cache",
                        regime
                    );
                    prop_assert_eq!(p_rep, s_rep);
                }
                (Err(se), Err(pe)) => {
                    prop_assert_eq!(
                        format!("{pe:?}"),
                        format!("{se:?}"),
                        "typed error diverged under the {} cache",
                        regime
                    );
                }
                (s, p) => {
                    prop_assert!(
                        false,
                        "outcome diverged under the {} cache: cold ok={}, {} ok={}",
                        regime,
                        s.is_ok(),
                        regime,
                        p.is_ok()
                    );
                }
            }
        }
    }
}
