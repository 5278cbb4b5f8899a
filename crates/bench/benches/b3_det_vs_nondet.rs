//! B3: complementation cost, deterministic vs non-deterministic content
//! models (Sec. 4: the exponential blow-up only hits non-deterministic
//! regular expressions, which XML Schema forbids).

use axml_bench::{det_family, nondet_family};
use axml_core::game::complement_of;
use axml_support::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("b3_det_vs_nondet");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for n in [2usize, 4, 6, 8, 10, 12] {
        let (det, syms) = det_family(n);
        group.bench_with_input(BenchmarkId::new("deterministic", n), &n, |b, _| {
            b.iter(|| black_box(complement_of(black_box(&det), syms).num_states()))
        });
        let (nondet, syms) = nondet_family(n);
        group.bench_with_input(BenchmarkId::new("nondeterministic", n), &n, |b, _| {
            b.iter(|| black_box(complement_of(black_box(&nondet), syms).num_states()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
