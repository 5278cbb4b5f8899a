//! Regenerates every experiment series (B1–B9) as plain tables.
//!
//! This is the "tables and figures" harness: each section prints the
//! series that EXPERIMENTS.md records, with wall-clock timings measured on
//! the spot. Run with:
//!
//! ```text
//! cargo run --release -p axml-bench --bin report
//! ```

use axml_bench::*;
use axml_core::awk::{Awk, AwkLimits};
use axml_core::invoke::ScriptedInvoker;
use axml_core::game::{complement_of, target_of, BuildMode, Game, Strategy};
use axml_core::rewrite::{enforce, Rewriter};
use axml_core::schema_rw::schema_safe_rewrites;
use axml_schema::{validate, Compiled, ITree, NoOracle, Schema};
use axml_services::builtin::{GetDate, GetTemp, TimeOutGuide};
use axml_services::{Registry, ServiceDef};
use std::sync::Arc;
use std::time::Instant;

fn time<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    // Warm up once, then take the best of 5 runs (micro-benchmark style).
    let mut out = f();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    (out, best)
}

fn main() {
    println!("# Experiment report — Exchanging Intensional XML Data (SIGMOD 2003)");
    println!("# All times in microseconds (best of 5). Shapes, not absolutes, matter.\n");

    b1();
    b2();
    b3();
    b4();
    b5();
    b6();
    b7();
    b8();
    b9();
    b10();
}

fn b1() {
    println!("## B1  safe rewriting vs target-schema size (polynomial for deterministic models)");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "n", "product", "time_us", "safe"
    );
    for n in [2usize, 4, 8, 16, 32, 64, 128] {
        let (compiled, word, target) = scaled_schema(n);
        let ((nodes, safe), us) = time(|| {
            let awk = Awk::build(&word, &compiled, 1, &AwkLimits::default()).unwrap();
            let comp = complement_of(&target, compiled.alphabet().len());
            let game = Game::solve(Strategy::Safe, awk, comp, BuildMode::Lazy);
            (game.stats.nodes, game.wins())
        });
        println!("{n:>6} {nodes:>12} {us:>12.1} {safe:>12}");
    }
    println!();
}

fn b2() {
    println!("## B2  safe rewriting vs depth k (exponent is k)");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "k", "awk_states", "product", "time_us"
    );
    let (compiled, word, target) = recursive_schema();
    for k in 1..=8u32 {
        let ((states, nodes), us) = time(|| {
            let awk = Awk::build(&word, &compiled, k, &AwkLimits::default()).unwrap();
            let states = awk.num_states();
            let comp = complement_of(&target, compiled.alphabet().len());
            let game = Game::solve(Strategy::Safe, awk, comp, BuildMode::Lazy);
            (states, game.stats.nodes)
        });
        println!("{k:>6} {states:>12} {nodes:>12} {us:>12.1}");
    }
    println!();
}

fn b3() {
    println!("## B3  complementation: deterministic vs non-deterministic content models");
    println!(
        "{:>6} {:>12} {:>12} {:>14} {:>14}",
        "n", "det_states", "det_us", "nondet_states", "nondet_us"
    );
    for n in [2usize, 4, 6, 8, 10, 12, 14, 16] {
        let (det, s1) = det_family(n);
        let (dn, dus) = time(|| complement_of(&det, s1).num_states());
        let (nondet, s2) = nondet_family(n);
        let (nn, nus) = time(|| complement_of(&nondet, s2).num_states());
        println!("{n:>6} {dn:>12} {dus:>12.1} {nn:>14} {nus:>14.1}");
    }
    println!();
}

fn b4() {
    println!("## B4  lazy (Sec. 7) vs eager (Fig. 3) product construction");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "n", "eager_nodes", "lazy_nodes", "eager_us", "lazy_us", "sink_pruned"
    );
    for n in [4usize, 8, 12, 16, 20] {
        let (compiled, word, target) = wide_instance(n);
        let run = |mode| {
            let awk = Awk::build(&word, &compiled, 1, &AwkLimits::default()).unwrap();
            let comp = complement_of(&target, compiled.alphabet().len());
            Game::solve(Strategy::Safe, awk, comp, mode).stats
        };
        let (es, eus) = time(|| run(BuildMode::Eager));
        let (ls, lus) = time(|| run(BuildMode::Lazy));
        println!(
            "{n:>8} {:>12} {:>12} {eus:>12.1} {lus:>12.1} {:>12}",
            es.nodes, ls.nodes, ls.sink_pruned
        );
    }
    println!();
}

fn b5() {
    println!("## B5  possible (Fig. 9) vs safe (Fig. 3) decision cost");
    println!(
        "{:>8} {:>14} {:>14} {:>12} {:>12}",
        "n", "safe_nodes", "possible_nodes", "safe_us", "possible_us"
    );
    for n in [4usize, 8, 12, 16, 20] {
        let (compiled, word, target) = wide_instance(n);
        let (sn, sus) = time(|| {
            let awk = Awk::build(&word, &compiled, 1, &AwkLimits::default()).unwrap();
            let comp = complement_of(&target, compiled.alphabet().len());
            Game::solve(Strategy::Safe, awk, comp, BuildMode::Lazy).stats.nodes
        });
        let (pn, pus) = time(|| {
            let awk = Awk::build(&word, &compiled, 1, &AwkLimits::default()).unwrap();
            let dfa = target_of(&target, compiled.alphabet().len());
            Game::solve(Strategy::Possible, awk, dfa, BuildMode::Eager).stats.nodes
        });
        println!("{n:>8} {sn:>14} {pn:>14} {sus:>12.1} {pus:>12.1}");
    }
    println!();
}

fn b6() {
    println!("## B6  materialized size vs fan-out x and depth k  (|w|·x^k bound)");
    println!(
        "{:>4} {:>4} {:>10} {:>10} {:>12}",
        "x", "k", "leaves", "x^k", "time_us"
    );
    for (x, k) in [
        (2usize, 2usize),
        (2, 4),
        (2, 6),
        (2, 8),
        (3, 2),
        (3, 4),
        (4, 3),
    ] {
        let (compiled, doc) = fanout_schema(x, k);
        let (leaves, us) = time(|| {
            let mut rewriter = Rewriter::new(&compiled).with_k((k + 1) as u32);
            let mut invoker = FanoutInvoker { x };
            let (out, _) = rewriter.rewrite_safe(&doc, &mut invoker).unwrap();
            out.children().len()
        });
        println!(
            "{x:>4} {k:>4} {leaves:>10} {:>10} {us:>12.1}",
            x.pow(k as u32)
        );
    }
    println!();
    println!("## B6  wide words at k = 1: executor time per child (r = a*, f : () -> a)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "children", "safe_us", "ns/child", "possible_us", "ns/child"
    );
    for n in [1_000usize, 10_000, 100_000] {
        let (safe, possible) = wide(n);
        let per = |us: f64| us * 1e3 / n as f64;
        println!(
            "{n:>8} {safe:>12.0} {:>12.0} {possible:>12.0} {:>12.0}",
            per(safe),
            per(possible)
        );
    }
    println!();
}

/// Safe and possible rewriting of one [`wide_schema`] word of `n`
/// children at k = 1, cold (a fresh rewriter per run): the best times
/// in microseconds.
fn wide(n: usize) -> (f64, f64) {
    let (compiled, doc) = wide_schema(n);
    let run = |strategy: Strategy| {
        time(|| {
            let mut rewriter = Rewriter::new(&compiled).with_k(1);
            let mut invoker = ScriptedInvoker::new().answer("f", vec![ITree::data("a", "x")]);
            let (out, _) = match strategy {
                Strategy::Safe => rewriter.rewrite_safe(&doc, &mut invoker),
                Strategy::Possible => rewriter.rewrite_possible(&doc, &mut invoker),
            }
            .unwrap();
            assert_eq!(out.children().len(), n);
        })
        .1
    };
    (run(Strategy::Safe), run(Strategy::Possible))
}

fn b7() {
    println!("## B7  schema compatibility (Sec. 6) vs number of element types");
    println!("{:>6} {:>10} {:>12}", "types", "compatible", "time_us");
    for n in [2usize, 4, 8, 16, 32, 64] {
        let (s0, s) = chain_schemas(n);
        let (ok, us) = time(|| {
            schema_safe_rewrites(&s0, "e0", &s, 1, &NoOracle)
                .unwrap()
                .compatible()
        });
        println!("{n:>6} {ok:>10} {us:>12.1}");
    }
    println!();
}

fn b8() {
    println!("## B8  validation throughput vs document size");
    println!("{:>8} {:>12} {:>14}", "nodes", "time_us", "Mnodes/s");
    let compiled = paper_schema();
    for min in [10usize, 40, 80, 160, 320] {
        let doc = sized_instance(min as u64, min);
        let (_, us) = time(|| validate(&doc, &compiled).is_ok());
        let rate = doc.size() as f64 / us;
        println!("{:>8} {us:>12.2} {rate:>14.2}", doc.size());
    }
    println!();
}

fn b9() {
    println!("## B9  peer exchange: Schema Enforcement end to end (Fig. 2 into (**))");
    let registry = Registry::new();
    registry.register(
        ServiceDef::new("Get_Temp", "city", "temp"),
        Arc::new(GetTemp::with_defaults()),
    );
    registry.register(
        ServiceDef::new("TimeOut", "data", "(exhibit|performance)*"),
        Arc::new(TimeOutGuide::exhibits_only()),
    );
    registry.register(
        ServiceDef::new("Get_Date", "title", "date"),
        Arc::new(GetDate { table: vec![] }),
    );
    let exchange = Compiled::new(
        Schema::builder()
            .element("newspaper", "title.date.temp.(TimeOut|exhibit*)")
            .data_element("title")
            .data_element("date")
            .data_element("temp")
            .data_element("city")
            .element("exhibit", "title.(Get_Date|date)")
            .data_element("performance")
            .function("Get_Temp", "city", "temp")
            .function("TimeOut", "data", "(exhibit|performance)*")
            .function("Get_Date", "title", "date")
            .build()
            .unwrap(),
        &NoOracle,
    )
    .unwrap();
    let doc = newspaper();
    let (_, enforce_us) = time(|| {
        let mut invoker = registry.invoker(None);
        enforce(&exchange, &doc, 1, &mut invoker).unwrap().1
    });
    let (_, wire_us) = time(|| {
        let mut invoker = registry.invoker(None);
        let (sent, _) = enforce(&exchange, &doc, 1, &mut invoker).unwrap();
        let xml = sent.to_xml().to_xml();
        axml_xml::parse_document(&xml).unwrap()
    });
    println!("{:>32} {:>12}", "operation", "time_us");
    println!("{:>32} {enforce_us:>12.1}", "enforce (verify+rewrite)");
    println!("{:>32} {wire_us:>12.1}", "enforce + serialize + parse");
    println!("{:>32} {:>12.1}", "throughput (exchanges/s)", 1e6 / wire_us);
}

fn b10() {
    println!("\n## B10 ablations: complement minimization; Glushkov vs Thompson+subset");
    println!("{:>8} {:>16} {:>16}", "n", "plain_us", "minimized_us");
    for n in [8usize, 16, 24] {
        let (compiled, word, target) = wide_instance(n);
        let syms = compiled.alphabet().len();
        let (_, plain) = time(|| {
            let awk = Awk::build(&word, &compiled, 1, &AwkLimits::default()).unwrap();
            Game::solve(Strategy::Safe, awk, complement_of(&target, syms), BuildMode::Lazy)
                .stats
                .nodes
        });
        let (_, minimized) = time(|| {
            let awk = Awk::build(&word, &compiled, 1, &AwkLimits::default()).unwrap();
            Game::solve(
                Strategy::Safe,
                awk,
                complement_of(&target, syms).minimized(),
                BuildMode::Lazy,
            )
            .stats
            .nodes
        });
        println!("{n:>8} {plain:>16.1} {minimized:>16.1}");
    }
    use axml_automata::{Dfa, Glushkov, Nfa, Regex};
    let mut ab = axml_automata::Alphabet::new();
    let model: String = (0..24)
        .map(|i| format!("(s{i}|t{i})"))
        .collect::<Vec<_>>()
        .join(".");
    let re = Regex::parse(&model, &mut ab).unwrap();
    let syms = ab.len();
    let (_, g_us) = time(|| Glushkov::new(&re, syms).to_dfa().unwrap().num_states());
    let (_, t_us) = time(|| Dfa::determinize(&Nfa::thompson(&re, syms)).num_states());
    println!("{:>24} {:>12}", "dfa construction", "time_us");
    println!("{:>24} {g_us:>12.1}", "glushkov direct");
    println!("{:>24} {t_us:>12.1}", "thompson+subset");
}
