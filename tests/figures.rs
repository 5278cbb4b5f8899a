//! Executable reproductions of every figure in the paper.
//!
//! The paper's evaluation artifacts are worked examples (Figs. 2, 4–8,
//! 10–12) rather than measurement tables; each test here regenerates one
//! figure's content and asserts the paper's stated conclusion.

use axml::automata::{Dfa, Nfa, Regex};
use axml::core::awk::{Awk, AwkLimits, StateKind};
use axml::core::invoke::ScriptedInvoker;
use axml::core::rewrite::Rewriter;
use axml::core::game::{complement_of, target_of, BuildMode, Game, Strategy};
use axml::schema::{newspaper_example, validate, Compiled, ITree, NoOracle, Schema};

/// The paper's schema (*) of Sec. 2, compiled.
fn paper_compiled() -> Compiled {
    Compiled::new(
        Schema::builder()
            .element("newspaper", "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
            .data_element("title")
            .data_element("date")
            .data_element("temp")
            .data_element("city")
            .element("exhibit", "title.(Get_Date|date)")
            .data_element("performance")
            .function("Get_Temp", "city", "temp")
            .function("TimeOut", "data", "(exhibit|performance)*")
            .function("Get_Date", "title", "date")
            .root("newspaper")
            .build()
            .unwrap(),
        &NoOracle,
    )
    .unwrap()
}

fn newspaper_word(c: &Compiled) -> Vec<u32> {
    ["title", "date", "Get_Temp", "TimeOut"]
        .iter()
        .map(|n| c.alphabet().lookup(n).unwrap())
        .collect()
}

fn target(c: &Compiled, model: &str) -> Regex {
    let mut ab = c.alphabet().clone();
    let re = Regex::parse(model, &mut ab).unwrap();
    assert_eq!(ab.len(), c.alphabet().len(), "targets use declared names");
    re
}

/// Figure 2: the document before and after invoking Get_Temp.
#[test]
fn figure2_before_after() {
    let c = paper_compiled();
    let before = newspaper_example();
    validate(&before, &c).unwrap();
    assert_eq!(before.num_funcs(), 2);

    let mut rewriter = Rewriter::new(&c).with_k(1);
    // Target: schema (**) — Fig. 2.b's shape.
    let c2 = Compiled::new(
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
    let mut rewriter2 = Rewriter::new(&c2).with_k(1);
    let mut invoker = ScriptedInvoker::new().answer("Get_Temp", vec![ITree::data("temp", "15 C")]);
    let (after, report) = rewriter2.rewrite_safe(&before, &mut invoker).unwrap();
    // Fig. 2.b: temp element in place of the call, TimeOut untouched.
    assert_eq!(report.invoked, vec!["Get_Temp".to_owned()]);
    assert_eq!(after.children()[2], ITree::data("temp", "15 C"));
    assert_eq!(after.num_funcs(), 1);
    let _ = rewriter.analyze_safe(&before);
}

/// Figure 4: `A_w^1` for w = title.date.Get_Temp.TimeOut.
#[test]
fn figure4_awk_structure() {
    let c = paper_compiled();
    let awk = Awk::build(&newspaper_word(&c), &c, 1, &AwkLimits::default()).unwrap();
    // Two forks — q2 (Get_Temp) and q3 (TimeOut) in the figure.
    assert_eq!(awk.num_forks(), 2);
    // The Get_Temp fork's copy reads exactly one 'temp'; TimeOut's copy
    // loops over exhibit|performance.
    let temp = c.alphabet().lookup("temp").unwrap();
    let exhibit = c.alphabet().lookup("exhibit").unwrap();
    let performance = c.alphabet().lookup("performance").unwrap();
    let mut copy_symbols = Vec::new();
    for e in 0..awk.num_edges() as u32 {
        if let Some(sym) = awk.edge(e).label {
            copy_symbols.push(sym);
        }
    }
    assert!(copy_symbols.contains(&temp));
    assert!(copy_symbols.contains(&exhibit));
    assert!(copy_symbols.contains(&performance));
    // The 1-depth language matches the figure: both fork options per call.
    let words = awk.enumerate_words(6, 2_000);
    let w = |names: &[&str]| -> Vec<u32> {
        names
            .iter()
            .map(|n| c.alphabet().lookup(n).unwrap())
            .collect()
    };
    assert!(words.contains(&w(&["title", "date", "Get_Temp", "TimeOut"])));
    assert!(words.contains(&w(&["title", "date", "temp", "TimeOut"])));
    assert!(words.contains(&w(&["title", "date", "temp", "performance"])));
    assert!(words.contains(&w(&["title", "date", "Get_Temp"])));
}

/// Figure 5: the complement automaton Ā for schema (**) — complete,
/// deterministic, with the accepting sink p6.
#[test]
fn figure5_complement_automaton() {
    let c = paper_compiled();
    let re = target(&c, "title.date.temp.(TimeOut|exhibit*)");
    let comp = complement_of(&re, c.alphabet().len());
    assert!(comp.is_complete());
    // Minimal form has exactly the 7 states of Fig. 5 (p0..p6).
    let min = comp.minimized();
    assert_eq!(min.num_states(), 7);
    // Exactly one accepting sink (p6), and the non-accepting states of the
    // complement are the 2 accepting states of the original (p3 ~ p4 merge
    // is NOT possible: p3 accepts exhibit*, p4 = after TimeOut accepts ε).
    let sinks: Vec<u32> = (0..min.num_states() as u32)
        .filter(|&s| min.is_accepting_sink(s))
        .collect();
    assert_eq!(sinks.len(), 1);
    let accepting = min.finals.iter().filter(|&&f| f).count();
    assert_eq!(accepting, 4, "p0, p1, p2 and p6 accept in Ā (Fig. 5)");
    // Words in / out of the complement.
    let w = |names: &[&str]| -> Vec<u32> {
        names
            .iter()
            .map(|n| c.alphabet().lookup(n).unwrap())
            .collect()
    };
    assert!(!min.accepts(&w(&["title", "date", "temp", "TimeOut"])));
    assert!(!min.accepts(&w(&["title", "date", "temp", "exhibit", "exhibit"])));
    assert!(min.accepts(&w(&["title", "date", "Get_Temp", "TimeOut"])));
    assert!(min.accepts(&w(&["title", "date"])));
}

/// Figure 6: the product automaton and its marking — safe, with the
/// rewriting sequence "invoke Get_Temp, do not invoke TimeOut".
#[test]
fn figure6_product_marking_and_plan() {
    let c = paper_compiled();
    let awk = Awk::build(&newspaper_word(&c), &c, 1, &AwkLimits::default()).unwrap();
    let comp = complement_of(
        &target(&c, "title.date.temp.(TimeOut|exhibit*)"),
        c.alphabet().len(),
    );
    let game = Game::solve(Strategy::Safe, awk, comp, BuildMode::Eager);
    assert!(game.wins(), "the initial state is not marked");
    let plan = game.plan().unwrap();
    let names: Vec<(String, bool)> = plan
        .iter()
        .map(|d| (c.alphabet().name(d.func).to_owned(), d.invoke))
        .collect();
    assert_eq!(
        names,
        vec![("Get_Temp".to_owned(), true), ("TimeOut".to_owned(), false)]
    );
    // Fork nodes exist and are unmarked, like [q2,p2] and [q3,p3] in the
    // figure.
    let mut unmarked_forks = 0;
    for n in 0..game.num_nodes() as u32 {
        let (s, _) = game.pair(n);
        if matches!(game.awk.kind(s), StateKind::Fork { .. }) && game.allowed(n) {
            unmarked_forks += 1;
        }
    }
    assert!(unmarked_forks >= 2);
}

/// Figures 7 and 8: complement for schema (***) and the fully marked
/// product — no safe rewriting.
#[test]
fn figure7_8_unsafe_product() {
    let c = paper_compiled();
    let re = target(&c, "title.date.temp.exhibit*");
    let comp = complement_of(&re, c.alphabet().len());
    // Fig. 7's automaton has 5 states (p0..p3 + sink p6) in minimal form.
    assert_eq!(comp.minimized().num_states(), 5);
    let awk = Awk::build(&newspaper_word(&c), &c, 1, &AwkLimits::default()).unwrap();
    let game = Game::solve(Strategy::Safe, awk, comp, BuildMode::Eager);
    assert!(!game.wins(), "initial state is marked (Fig. 8)");
    // Both fork nodes have both options marked: every fork node reachable
    // on the spine is marked.
    for n in 0..game.num_nodes() as u32 {
        let (s, _) = game.pair(n);
        if matches!(game.awk.kind(s), StateKind::Fork { depth: 1, .. }) {
            assert!(!game.allowed(n), "depth-1 forks are all marked in Fig. 8");
        }
    }
}

/// Figure 10: the (non-complemented) automaton A for schema (***).
#[test]
fn figure10_target_automaton() {
    let c = paper_compiled();
    let re = target(&c, "title.date.temp.exhibit*");
    let dfa = target_of(&re, c.alphabet().len());
    // p0..p4 of the figure: 5 states, accepting p3 and p4.
    assert_eq!(dfa.num_states(), 5);
    assert_eq!(dfa.finals.iter().filter(|&&f| f).count(), 2);
    let w = |names: &[&str]| -> Vec<u32> {
        names
            .iter()
            .map(|n| c.alphabet().lookup(n).unwrap())
            .collect()
    };
    assert!(dfa.accepts(&w(&["title", "date", "temp"])));
    assert!(dfa.accepts(&w(&["title", "date", "temp", "exhibit"])));
    assert!(!dfa.accepts(&w(&["title", "date", "temp", "performance"])));
}

/// Figure 11: the possible-rewriting product — a rewriting may exist, and
/// the only viable fork options invoke both functions.
#[test]
fn figure11_possible_product() {
    let c = paper_compiled();
    let awk = Awk::build(&newspaper_word(&c), &c, 1, &AwkLimits::default()).unwrap();
    let dfa = target_of(&target(&c, "title.date.temp.exhibit*"), c.alphabet().len());
    let game = Game::solve(Strategy::Possible, awk, dfa, BuildMode::Eager);
    assert!(game.wins(), "the initial state is marked viable");
    let plan = game.plan().unwrap();
    assert_eq!(plan.len(), 2);
    assert!(
        plan.iter().all(|d| d.invoke),
        "the only fork options left invoke both Get_Temp and TimeOut"
    );
}

/// Figure 12: the pruned (lazy) construction explores strictly less than
/// the eager one on the Fig. 6 instance, thanks to sink pruning.
#[test]
fn figure12_pruning() {
    let c = paper_compiled();
    let mk = |mode| {
        let awk = Awk::build(&newspaper_word(&c), &c, 1, &AwkLimits::default()).unwrap();
        let comp = complement_of(
            &target(&c, "title.date.temp.(TimeOut|exhibit*)"),
            c.alphabet().len(),
        );
        Game::solve(Strategy::Safe, awk, comp, mode)
    };
    let eager = mk(BuildMode::Eager);
    let lazy = mk(BuildMode::Lazy);
    assert_eq!(eager.wins(), lazy.wins());
    assert!(
        lazy.stats.nodes < eager.stats.nodes,
        "lazy {} vs eager {}",
        lazy.stats.nodes,
        eager.stats.nodes
    );
    assert!(lazy.stats.sink_pruned > 0, "sink-node rule fired");
}

/// Sanity check tying Figs. 5/7 together: the same word is in the
/// complement of (***) but not of (**) after invoking both calls the
/// lucky way.
#[test]
fn complements_disagree_on_lucky_word() {
    let c = paper_compiled();
    let lucky: Vec<u32> = ["title", "date", "temp", "exhibit"]
        .iter()
        .map(|n| c.alphabet().lookup(n).unwrap())
        .collect();
    let comp2 = complement_of(
        &target(&c, "title.date.temp.(TimeOut|exhibit*)"),
        c.alphabet().len(),
    );
    let comp3 = complement_of(&target(&c, "title.date.temp.exhibit*"), c.alphabet().len());
    assert!(!comp2.accepts(&lucky));
    assert!(!comp3.accepts(&lucky));
    // A kept TimeOut call is fine for (**) but not for (***).
    let kept: Vec<u32> = ["title", "date", "temp", "TimeOut"]
        .iter()
        .map(|n| c.alphabet().lookup(n).unwrap())
        .collect();
    assert!(!comp2.accepts(&kept));
    assert!(comp3.accepts(&kept));
    // A performance is outside both.
    let unlucky: Vec<u32> = ["title", "date", "temp", "performance"]
        .iter()
        .map(|n| c.alphabet().lookup(n).unwrap())
        .collect();
    assert!(comp2.accepts(&unlucky));
    assert!(comp3.accepts(&unlucky));
}

/// Figure 1: the exchange scenario — among the increasingly materialized
/// versions of the document, the sender picks one conforming to the
/// agreed schema.
#[test]
fn figure1_exchange_scenario() {
    let c = paper_compiled();
    let doc = newspaper_example();
    // The fully intensional version conforms to (*)…
    validate(&doc, &c).unwrap();
    // …a partially materialized version conforms to (**)…
    let dashed = ITree::elem(
        "newspaper",
        vec![
            ITree::data("title", "The Sun"),
            ITree::data("date", "04/10/2002"),
            ITree::data("temp", "15 C"),
            ITree::func("TimeOut", vec![ITree::text("exhibits")]),
        ],
    );
    let c2 = Compiled::new(
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
    validate(&dashed, &c2).unwrap();
    assert!(validate(&doc, &c2).is_err());
    // …and the fully materialized one conforms to both.
    let full = ITree::elem(
        "newspaper",
        vec![
            ITree::data("title", "The Sun"),
            ITree::data("date", "04/10/2002"),
            ITree::data("temp", "15 C"),
        ],
    );
    validate(&full, &c).unwrap();
    validate(&full, &c2).unwrap();
}

/// The complement construction agrees with NFA semantics on random words
/// (backing the Fig. 5/7 automata).
#[test]
fn complement_agrees_with_nfa() {
    let c = paper_compiled();
    let n = c.alphabet().len();
    for model in [
        "title.date.temp.(TimeOut|exhibit*)",
        "title.date.temp.exhibit*",
        "title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
    ] {
        let re = target(&c, model);
        let nfa = Nfa::thompson(&re, n);
        let dfa = Dfa::determinize(&nfa);
        let comp = complement_of(&re, n);
        use axml::automata::{sample_word, SampleConfig};
        use axml_support::rng::SeedableRng;
        let mut rng = axml_support::rng::StdRng::seed_from_u64(99);
        for _ in 0..100 {
            let w = sample_word(&re, &mut rng, &SampleConfig::default()).unwrap();
            assert!(nfa.accepts(&w) && dfa.accepts(&w) && !comp.accepts(&w));
        }
    }
}
