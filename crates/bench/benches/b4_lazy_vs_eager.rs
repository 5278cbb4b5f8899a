//! B4: the Sec. 7 lazy/pruned product vs the eager Fig. 3 construction
//! (same worst case, large practical savings — Fig. 12).

use axml_automata::Regex;
use axml_bench::{paper_schema, wide_instance};
use axml_core::awk::{Awk, AwkLimits};
use axml_core::game::{complement_of, BuildMode, Game, Strategy};
use axml_support::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("b4_lazy_vs_eager");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    // The Fig. 6/12 instance itself.
    let compiled = paper_schema();
    let word: Vec<u32> = ["title", "date", "Get_Temp", "TimeOut"]
        .iter()
        .map(|s| compiled.alphabet().lookup(s).unwrap())
        .collect();
    let mut ab = compiled.alphabet().clone();
    let fig6 = Regex::parse("title.date.temp.(TimeOut|exhibit*)", &mut ab).unwrap();
    for (label, mode) in [("eager", BuildMode::Eager), ("lazy", BuildMode::Lazy)] {
        group.bench_function(BenchmarkId::new("fig6", label), |b| {
            b.iter(|| {
                let awk =
                    Awk::build(black_box(&word), &compiled, 1, &AwkLimits::default()).unwrap();
                let comp = complement_of(&fig6, compiled.alphabet().len());
                black_box(Game::solve(Strategy::Safe, awk, comp, mode).stats.nodes)
            })
        });
    }
    // Scaled instances.
    for n in [4usize, 8, 12, 16] {
        let (compiled, word, target) = wide_instance(n);
        for (label, mode) in [("eager", BuildMode::Eager), ("lazy", BuildMode::Lazy)] {
            group.bench_with_input(BenchmarkId::new(format!("wide_{label}"), n), &n, |b, _| {
                b.iter(|| {
                    let awk =
                        Awk::build(black_box(&word), &compiled, 1, &AwkLimits::default()).unwrap();
                    let comp = complement_of(&target, compiled.alphabet().len());
                    black_box(Game::solve(Strategy::Safe, awk, comp, mode).stats.nodes)
                })
            });
        }
    }
    // Solver counters accumulated over the run ride along with the
    // timings so a bench report also shows node/prune work done.
    group.attach_json("obs_snapshot", axml_obs::global().snapshot().to_json());
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
