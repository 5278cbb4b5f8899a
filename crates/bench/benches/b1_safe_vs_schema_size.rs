//! B1: safe-rewriting decision time vs target-schema size (Sec. 4:
//! polynomial for deterministic content models).

use axml_bench::scaled_schema;
use axml_core::awk::{Awk, AwkLimits};
use axml_core::game::{complement_of, BuildMode, Game, Strategy};
use axml_support::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("b1_safe_vs_schema_size");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for n in [2usize, 4, 8, 16, 32, 64] {
        let (compiled, word, target) = scaled_schema(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let awk =
                    Awk::build(black_box(&word), &compiled, 1, &AwkLimits::default()).unwrap();
                let comp = complement_of(&target, compiled.alphabet().len());
                let game = Game::solve(Strategy::Safe, awk, comp, BuildMode::Lazy);
                assert!(game.wins());
                black_box(game.stats.nodes)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
