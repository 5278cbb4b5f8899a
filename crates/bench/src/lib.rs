//! Benchmark workloads for the experiment suite.
//!
//! The paper has no quantitative tables; its measurable claims are the
//! complexity statements of Secs. 4, 5 and 7. Each workload here
//! parameterizes one of those claims; the Criterion benches under
//! `benches/` and the `report` binary both draw from this module (see
//! DESIGN.md §5 for the experiment index B1–B9).

#![warn(missing_docs)]

use axml_automata::{Regex, Symbol};
use axml_schema::{Compiled, ITree, NoOracle, Schema};

/// The paper's schema (*) compiled (document vocabulary for most benches).
pub fn paper_schema() -> Compiled {
    Compiled::new(
        Schema::builder()
            .data_element("title")
            .data_element("date")
            .data_element("temp")
            .data_element("city")
            .data_element("performance")
            .element("exhibit", "title.(Get_Date|date)")
            .function("Get_Temp", "city", "temp")
            .function("TimeOut", "data", "(exhibit|performance)*")
            .function("Get_Date", "title", "date")
            .element("newspaper", "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
            .build()
            .unwrap(),
        &NoOracle,
    )
    .unwrap()
}

/// The Fig. 2 document.
pub fn newspaper() -> ITree {
    axml_schema::newspaper_example()
}

/// B1: a schema whose root has `n` slots, each a function call that must
/// be materialized into its element: word `f0…f(n-1)`, target `a0…a(n-1)`.
/// Target-schema size grows linearly with `n`.
pub fn scaled_schema(n: usize) -> (Compiled, Vec<Symbol>, Regex) {
    let mut b = Schema::builder();
    let mut model = String::new();
    for i in 0..n {
        b = b.data_element(&format!("a{i}"));
        b = b.function(&format!("f{i}"), "", &format!("a{i}"));
        if i > 0 {
            model.push('.');
        }
        model.push_str(&format!("a{i}"));
    }
    let b = b.element("r", &model);
    let schema = b.build().unwrap();
    let compiled = Compiled::new(schema, &NoOracle).unwrap();
    let word: Vec<Symbol> = (0..n)
        .map(|i| compiled.alphabet().lookup(&format!("f{i}")).unwrap())
        .collect();
    let mut ab = compiled.alphabet().clone();
    let target = Regex::parse(&model, &mut ab).unwrap();
    (compiled, word, target)
}

/// B2: a branching recursive output type — `f` returns `f.f | a` — so
/// `|A_w^k|` grows exponentially with `k`.
pub fn recursive_schema() -> (Compiled, Vec<Symbol>, Regex) {
    let schema = Schema::builder()
        .element("r", "a*")
        .data_element("a")
        .function("f", "", "f.f|a")
        .build()
        .unwrap();
    let compiled = Compiled::new(schema, &NoOracle).unwrap();
    let word = vec![compiled.alphabet().lookup("f").unwrap()];
    let mut ab = compiled.alphabet().clone();
    let target = Regex::parse("a*", &mut ab).unwrap();
    (compiled, word, target)
}

/// B3 (deterministic family): `x{n}` — complementing stays linear.
pub fn det_family(n: usize) -> (Regex, usize) {
    let mut ab = axml_automata::Alphabet::new();
    ab.intern("x");
    ab.intern("y");
    let re = Regex::parse(&format!("x{{{n}}}"), &mut ab).unwrap();
    (re, ab.len())
}

/// B3 (non-deterministic family): `(x|y)*.x.(x|y){n}` — the minimal DFA
/// (hence the complement) has `2^(n+1)` states.
pub fn nondet_family(n: usize) -> (Regex, usize) {
    let mut ab = axml_automata::Alphabet::new();
    ab.intern("x");
    ab.intern("y");
    let re = Regex::parse(&format!("(x|y)*.x.(x|y){{{n}}}"), &mut ab).unwrap();
    (re, ab.len())
}

/// B4/B5: a newspaper-like word with `n` (call | element) slots, against a
/// target requiring materialization of every odd slot — creating products
/// with substantial dead regions for the pruner to skip.
pub fn wide_instance(n: usize) -> (Compiled, Vec<Symbol>, Regex) {
    let mut b = Schema::builder();
    let mut model = String::new();
    for i in 0..n {
        b = b.data_element(&format!("a{i}"));
        b = b.function(&format!("f{i}"), "", &format!("a{i}.a{i}?"));
        if i > 0 {
            model.push('.');
        }
        if i % 2 == 0 {
            b = b.element(&format!("s{i}"), &format!("(f{i}|a{i}.a{i}?)"));
            model.push_str(&format!("(f{i}|a{i}.a{i}?)"));
        } else {
            model.push_str(&format!("a{i}.a{i}?"));
        }
    }
    let schema = b.element("r", &model).build().unwrap();
    let compiled = Compiled::new(schema, &NoOracle).unwrap();
    let word: Vec<Symbol> = (0..n)
        .map(|i| compiled.alphabet().lookup(&format!("f{i}")).unwrap())
        .collect();
    let mut ab = compiled.alphabet().clone();
    let target = Regex::parse(&model, &mut ab).unwrap();
    (compiled, word, target)
}

/// B6: a depth-`k` fan-out-`x` materialization workload: `h{d}` returns
/// `x` copies of `h{d-1}`, and `h0` returns a single `leaf` element. Fully
/// materializing `h{k}` yields `x^k` leaves — the paper's `|w|·x^k` bound.
pub fn fanout_schema(x: usize, k: usize) -> (Compiled, ITree) {
    let mut b = Schema::builder().element("r", "leaf*").data_element("leaf");
    b = b.function("h0", "", "leaf");
    for d in 1..=k {
        let inner = format!("h{}", d - 1);
        let model = format!("({inner}){{{x}}}");
        b = b.function(&format!("h{d}"), "", &model);
    }
    let schema = b.build().unwrap();
    let compiled = Compiled::new(schema, &NoOracle).unwrap();
    let doc = ITree::elem("r", vec![ITree::func(&format!("h{k}"), vec![])]);
    (compiled, doc)
}

/// B6 (wide series): `r = a*` with `f : () -> a`, and a root of `n`
/// children alternating `a` with a call to `f`. At k = 1 every call is
/// invoked, so executing the word costs one step per child.
pub fn wide_schema(n: usize) -> (Compiled, ITree) {
    let schema = Schema::builder()
        .element("r", "a*")
        .data_element("a")
        .function("f", "", "a")
        .build()
        .unwrap();
    let compiled = Compiled::new(schema, &NoOracle).unwrap();
    let kids = (0..n)
        .map(|i| match i % 2 {
            0 => ITree::data("a", "x"),
            _ => ITree::func("f", vec![]),
        })
        .collect();
    (compiled, ITree::elem("r", kids))
}

/// An invoker realizing the [`fanout_schema`] services deterministically.
pub struct FanoutInvoker {
    /// Fan-out per level.
    pub x: usize,
}

impl axml_core::invoke::Invoker for FanoutInvoker {
    fn invoke(
        &mut self,
        function: &str,
        _params: &[ITree],
    ) -> Result<Vec<ITree>, axml_core::invoke::InvokeError> {
        let d: usize = function
            .strip_prefix('h')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| axml_core::invoke::InvokeError {
                function: function.to_owned(),
                message: "unknown fanout function".to_owned(),
            })?;
        if d == 0 {
            Ok(vec![ITree::elem("leaf", vec![])])
        } else {
            Ok((0..self.x)
                .map(|_| ITree::func(&format!("h{}", d - 1), vec![]))
                .collect())
        }
    }
}

/// B7: a sender schema with `n` element types chained `e0 -> e1 -> … ->
/// leaf`, each content `(gi | next)`, against a receiver schema requiring
/// the materialized form.
pub fn chain_schemas(n: usize) -> (Schema, Schema) {
    let mk = |materialized: bool| {
        let mut b = Schema::builder();
        for i in 0..n {
            let next = if i + 1 < n {
                format!("e{}", i + 1)
            } else {
                "leaf".to_owned()
            };
            let model = if materialized {
                next.clone()
            } else {
                format!("g{i}|{next}")
            };
            b = b.element(&format!("e{i}"), &model);
            b = b.function(&format!("g{i}"), "", &next);
        }
        b.data_element("leaf").root("e0").build().unwrap()
    };
    (mk(false), mk(true))
}

/// B8/B9: a random instance of the paper schema, preferring at least
/// `min_size` nodes (retries generation and keeps the largest).
pub fn sized_instance(seed: u64, min_size: usize) -> ITree {
    use axml_support::rng::SeedableRng;
    let compiled = paper_schema();
    let mut rng = axml_support::rng::StdRng::seed_from_u64(seed);
    let config = axml_schema::GenConfig {
        words: axml_automata::SampleConfig {
            star_continue: 0.8,
            max_star: 32,
        },
        ..Default::default()
    };
    let mut best = axml_schema::generate_instance(&compiled, "newspaper", &mut rng, &config)
        .expect("generable");
    for _ in 0..50 {
        if best.size() >= min_size {
            break;
        }
        let candidate = axml_schema::generate_instance(&compiled, "newspaper", &mut rng, &config)
            .expect("generable");
        if candidate.size() > best.size() {
            best = candidate;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_core::awk::{Awk, AwkLimits};
    use axml_core::rewrite::Rewriter;
    use axml_core::game::{complement_of, BuildMode, Game, Strategy};

    #[test]
    fn scaled_schema_is_safe_at_every_size() {
        for n in [1, 4, 8] {
            let (compiled, word, target) = scaled_schema(n);
            let awk = Awk::build(&word, &compiled, 1, &AwkLimits::default()).unwrap();
            let comp = complement_of(&target, compiled.alphabet().len());
            assert!(Game::solve(Strategy::Safe, awk, comp, BuildMode::Lazy).wins());
        }
    }

    #[test]
    fn recursive_schema_grows_with_k() {
        let (compiled, word, _) = recursive_schema();
        let s2 = Awk::build(&word, &compiled, 2, &AwkLimits::default())
            .unwrap()
            .num_states();
        let s4 = Awk::build(&word, &compiled, 4, &AwkLimits::default())
            .unwrap()
            .num_states();
        assert!(s4 > 2 * s2);
    }

    #[test]
    fn nondet_family_blows_up() {
        let (det, n1) = det_family(6);
        let (nondet, n2) = nondet_family(6);
        let c1 = complement_of(&det, n1).num_states();
        let c2 = complement_of(&nondet, n2).num_states();
        assert!(c2 > 8 * c1, "det {c1} vs nondet {c2}");
    }

    #[test]
    fn fanout_materializes_x_pow_k_leaves() {
        let (compiled, doc) = fanout_schema(3, 2);
        let mut rewriter = Rewriter::new(&compiled).with_k(3);
        let mut invoker = FanoutInvoker { x: 3 };
        let (out, _) = rewriter.rewrite_safe(&doc, &mut invoker).unwrap();
        assert_eq!(out.children().len(), 9); // 3^2 leaves
    }

    #[test]
    fn chain_schemas_compatible() {
        let (s0, s) = chain_schemas(5);
        let report =
            axml_core::schema_rw::schema_safe_rewrites(&s0, "e0", &s, 1, &NoOracle).unwrap();
        assert!(report.compatible(), "{:?}", report.failures);
    }

    #[test]
    fn wide_instance_solvable() {
        let (compiled, word, target) = wide_instance(6);
        let awk = Awk::build(&word, &compiled, 1, &AwkLimits::default()).unwrap();
        let comp = complement_of(&target, compiled.alphabet().len());
        let eager = Game::solve(Strategy::Safe, awk.clone(), comp.clone(), BuildMode::Eager);
        let lazy = Game::solve(Strategy::Safe, awk, comp, BuildMode::Lazy);
        assert_eq!(eager.wins(), lazy.wins());
        assert!(lazy.stats.nodes <= eager.stats.nodes);
    }

    #[test]
    fn sized_instances_scale() {
        let small = sized_instance(1, 0);
        let big = sized_instance(1, 60);
        assert!(big.size() >= small.size());
    }
}
