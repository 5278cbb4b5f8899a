//! B11: the cross-request solver cache.
//!
//! One wide document (many independent `exhibit` subtrees with distinct
//! children words) is enforced against its exchange schema two ways:
//!
//! * `cold_sequential` — a fresh cache every iteration: the full
//!   Glushkov → determinize → complement → `A_w^k` → fixpoint pipeline
//!   runs for the root game and every distinct subtree word;
//! * `warm_sequential` — one shared pre-warmed [`SolveCache`]: every
//!   game and DFA is answered from the cache, only execution remains.
//!
//! The warm cache's registry snapshot (hit/miss/eviction counters)
//! rides along in the JSON report.

use axml_core::invoke::ScriptedInvoker;
use axml_core::rewrite::Rewriter;
use axml_core::solve_cache::SolveCache;
use axml_obs::Registry;
use axml_schema::{Compiled, ITree, NoOracle, Schema};
use axml_support::bench::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const EXHIBITS: usize = 16;

fn exchange_compiled() -> Compiled {
    Compiled::new(
        Schema::builder()
            .element("r", "exhibit*")
            .element("exhibit", "title.date.line*")
            .data_element("title")
            .data_element("date")
            .data_element("line")
            .function("Get_Date", "title", "date|Mirror_A1|Mirror_A2")
            .function("Mirror_A1", "", "date|Mirror_B1|Mirror_B2")
            .function("Mirror_A2", "", "date|Mirror_B1|Mirror_B2")
            .function("Mirror_B1", "", "date|Mirror_C1|Mirror_C2")
            .function("Mirror_B2", "", "date|Mirror_C1|Mirror_C2")
            .function("Mirror_C1", "", "date|Mirror_D1|Mirror_D2")
            .function("Mirror_C2", "", "date|Mirror_D1|Mirror_D2")
            .function("Mirror_D1", "", "date")
            .function("Mirror_D2", "", "date")
            .build()
            .unwrap(),
        &NoOracle,
    )
    .unwrap()
}

/// `EXHIBITS` root subtrees; exhibit `i` carries `i` trailing lines, so
/// every subtree children word is distinct and costs its own game.
fn wide_doc() -> ITree {
    let kids = (0..EXHIBITS)
        .map(|i| {
            let title = format!("t{i}");
            let mut children = vec![
                ITree::data("title", &title),
                ITree::func("Get_Date", vec![ITree::data("title", &title)]),
            ];
            for l in 0..i {
                children.push(ITree::data("line", &format!("l{l}")));
            }
            ITree::elem("exhibit", children)
        })
        .collect();
    ITree::elem("r", kids)
}

fn invoker() -> ScriptedInvoker {
    ScriptedInvoker::new().answer("Get_Date", vec![ITree::data("date", "mon")])
}

fn bench(c: &mut Criterion) {
    let compiled = exchange_compiled();
    let doc = wide_doc();

    let registry = Registry::new();
    let warm_cache = SolveCache::with_registry(512, &registry);
    // Pre-warm: one full sequential run populates every entry.
    let (reference, reference_report) = Rewriter::new(&compiled)
        .with_k(5)
        .with_cache(&warm_cache)
        .rewrite_safe(&doc, &mut invoker())
        .unwrap();
    assert_eq!(reference_report.invoked.len(), EXHIBITS);

    let mut group = c.benchmark_group("b11_solve_cache");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.throughput(Throughput::Elements(doc.size() as u64));

    group.bench_function("cold_sequential", |b| {
        b.iter(|| {
            let cache = SolveCache::unpublished(512);
            let mut rw = Rewriter::new(&compiled).with_k(5).with_cache(&cache);
            let (out, _) = rw.rewrite_safe(black_box(&doc), &mut invoker()).unwrap();
            black_box(out.size())
        })
    });
    group.bench_function("warm_sequential", |b| {
        let mut rw = Rewriter::new(&compiled).with_k(5).with_cache(&warm_cache);
        b.iter(|| {
            let (out, _) = rw.rewrite_safe(black_box(&doc), &mut invoker()).unwrap();
            assert_eq!(out, reference);
            black_box(out.size())
        })
    });

    // Cache accounting accumulated over the run (hits, misses,
    // evictions, entry count) rides along with the timings.
    group.attach_json("solve_cache_snapshot", registry.snapshot().to_json());
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
