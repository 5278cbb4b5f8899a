//! Randomized cross-check of the automata-based algorithms against the
//! brute-force reference implementations of Defs. 4–5.
//!
//! Schemas are generated with random star-free output types (so the
//! reference enumeration is exact), then random words, random targets and
//! every k in 0..=2 are compared across: eager safe, lazy safe, possible.

use axml::automata::{Dfa, Nfa, Regex, Symbol};
use axml::core::awk::{Awk, AwkLimits};
use axml::core::brute::{brute_possible, brute_safe};
use axml::core::game::{complement_of, BuildMode, Game, Strategy as Play};
use axml::schema::{Compiled, NoOracle, Schema};
use axml_support::prelude::*;

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

/// Builds a schema with two data elements and two functions whose output
/// types are the given star-free expressions.
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
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn algorithms_match_brute_force(
        out_f in starfree_regex(ALL_SYMS),
        out_g in starfree_regex(DATA_SYMS),
        word_names in prop::collection::vec(select(ALL_SYMS), 0..4),
        target_text in starfree_regex(ALL_SYMS),
        k in 0u32..3,
    ) {
        let Some(compiled) = build_schema(&out_f, &out_g) else {
            return Ok(()); // builder rejected the random model; skip
        };
        let word: Vec<Symbol> = word_names
            .iter()
            .map(|n| compiled.alphabet().lookup(n).unwrap())
            .collect();
        let mut ab = compiled.alphabet().clone();
        let Ok(target) = Regex::parse(&target_text, &mut ab) else {
            return Ok(());
        };
        prop_assume!(ab.len() == compiled.alphabet().len());

        let n = compiled.alphabet().len();
        let awk = Awk::build(&word, &compiled, k, &AwkLimits::default()).unwrap();
        let safe_eager =
            Game::solve(Play::Safe, awk.clone(), complement_of(&target, n), BuildMode::Eager).wins();
        let safe_lazy =
            Game::solve(Play::Safe, awk.clone(), complement_of(&target, n), BuildMode::Lazy).wins();
        let possible =
            Game::solve(Play::Possible, awk, Dfa::determinize(&Nfa::thompson(&target, n)), BuildMode::Eager)
                .wins();

        let safe_ref = brute_safe(&word, &compiled, k, &target)
            .expect("star-free outputs enumerate");
        let possible_ref = brute_possible(&word, &compiled, k, &target)
            .expect("star-free outputs enumerate");

        prop_assert_eq!(safe_eager, safe_ref,
            "eager safe mismatch: w={:?} target={} k={} out_f={} out_g={}",
            word_names, target_text, k, out_f, out_g);
        prop_assert_eq!(safe_lazy, safe_ref,
            "lazy safe mismatch: w={:?} target={} k={}", word_names, target_text, k);
        prop_assert_eq!(possible, possible_ref,
            "possible mismatch: w={:?} target={} k={} out_f={} out_g={}",
            word_names, target_text, k, out_f, out_g);
        // Safe implies possible, always.
        prop_assert!(!safe_ref || possible_ref);
    }
}
