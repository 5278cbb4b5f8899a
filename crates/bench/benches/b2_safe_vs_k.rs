//! B2: decision cost vs the rewriting depth k (Sec. 4:
//! `|A_w^k| = O((|s0|+|w|)^k)` — the exponent is k).

use axml_bench::recursive_schema;
use axml_core::awk::{Awk, AwkLimits};
use axml_core::game::{complement_of, BuildMode, Game, Strategy};
use axml_support::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let (compiled, word, target) = recursive_schema();
    let mut group = c.benchmark_group("b2_safe_vs_k");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for k in [1u32, 2, 3, 4, 5, 6, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let awk =
                    Awk::build(black_box(&word), &compiled, k, &AwkLimits::default()).unwrap();
                let comp = complement_of(&target, compiled.alphabet().len());
                let game = Game::solve(Strategy::Safe, awk, comp, BuildMode::Lazy);
                black_box((game.wins(), game.stats.nodes))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
