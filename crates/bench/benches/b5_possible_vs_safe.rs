//! B5: possible rewriting (product with the target, Sec. 5) vs safe
//! rewriting (product with the complement, Sec. 4) on the same instances.

use axml_bench::wide_instance;
use axml_core::awk::{Awk, AwkLimits};
use axml_core::game::{complement_of, target_of, BuildMode, Game, Strategy};
use axml_support::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("b5_possible_vs_safe");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for n in [4usize, 8, 12, 16] {
        let (compiled, word, target) = wide_instance(n);
        group.bench_with_input(BenchmarkId::new("safe", n), &n, |b, _| {
            b.iter(|| {
                let awk =
                    Awk::build(black_box(&word), &compiled, 1, &AwkLimits::default()).unwrap();
                let comp = complement_of(&target, compiled.alphabet().len());
                black_box(Game::solve(Strategy::Safe, awk, comp, BuildMode::Lazy).wins())
            })
        });
        group.bench_with_input(BenchmarkId::new("possible", n), &n, |b, _| {
            b.iter(|| {
                let awk =
                    Awk::build(black_box(&word), &compiled, 1, &AwkLimits::default()).unwrap();
                let dfa = target_of(&target, compiled.alphabet().len());
                black_box(Game::solve(Strategy::Possible, awk, dfa, BuildMode::Eager).wins())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
