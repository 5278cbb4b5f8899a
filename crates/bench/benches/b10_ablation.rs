//! B10: ablations of implementation design choices.
//!
//! * complement minimization before the product (smaller Ā vs extra
//!   minimization cost);
//! * Glushkov-direct DFA vs Thompson + subset construction for
//!   deterministic content models.

use axml_automata::{Dfa, Glushkov, Nfa, Regex};
use axml_bench::wide_instance;
use axml_core::awk::{Awk, AwkLimits};
use axml_core::game::{complement_of, BuildMode, Game, Strategy};
use axml_support::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("b10_ablation");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));

    // Ablation 1: minimize the complement before the product?
    for n in [8usize, 16] {
        let (compiled, word, target) = wide_instance(n);
        let syms = compiled.alphabet().len();
        group.bench_with_input(BenchmarkId::new("comp_plain", n), &n, |b, _| {
            b.iter(|| {
                let awk =
                    Awk::build(black_box(&word), &compiled, 1, &AwkLimits::default()).unwrap();
                let comp = complement_of(&target, syms);
                black_box(Game::solve(Strategy::Safe, awk, comp, BuildMode::Lazy).stats.nodes)
            })
        });
        group.bench_with_input(BenchmarkId::new("comp_minimized", n), &n, |b, _| {
            b.iter(|| {
                let awk =
                    Awk::build(black_box(&word), &compiled, 1, &AwkLimits::default()).unwrap();
                let comp = complement_of(&target, syms).minimized();
                black_box(Game::solve(Strategy::Safe, awk, comp, BuildMode::Lazy).stats.nodes)
            })
        });
    }

    // Ablation 2: DFA construction for a deterministic content model.
    let mut ab = axml_automata::Alphabet::new();
    let model: String = (0..24)
        .map(|i| format!("(s{i}|t{i})"))
        .collect::<Vec<_>>()
        .join(".");
    let re = Regex::parse(&model, &mut ab).unwrap();
    let syms = ab.len();
    group.bench_function("dfa_via_glushkov", |b| {
        b.iter(|| {
            black_box(
                Glushkov::new(black_box(&re), syms)
                    .to_dfa()
                    .unwrap()
                    .num_states(),
            )
        })
    });
    group.bench_function("dfa_via_thompson_subset", |b| {
        b.iter(|| black_box(Dfa::determinize(&Nfa::thompson(black_box(&re), syms)).num_states()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
