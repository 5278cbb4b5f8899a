//! Game parity corpus: the solved word games, pinned case by case in
//! `regressions/game_parity.digests`.
//!
//! `executor_parity` pins what the word executor does with a game; this
//! suite pins the games themselves. Each case is a children word under a
//! target content model and a depth bound `k` from 1 to 4: the paper's
//! Fig. 6/8/11/12 instance, and every element word of the `executor_parity`
//! newspapers and mirror chains. Each case is solved three ways: the safe
//! game built eagerly (Fig. 3 as printed), the safe game built lazily
//! (Sec. 7, Fig. 12) and the possible game (Fig. 9). One digest per solve
//! covers the verdict, the construction statistics, the node pairs, the
//! adjacency in order, the allowed set, the plan, the adversary's move at
//! every node, the counterexample of a lost safe game, the strategic
//! adversary's answer for every call of a possible game, and the DOT text.
//!
//! A last line pins the solve cache as `axml-store` persists it: the
//! `executor_parity` documents are rewritten through one shared cache
//! and the digest of its encoded snapshot is recorded.
//!
//! After an intentional change to the games, regenerate with
//!
//! ```text
//! AXML_UPDATE_GOLDEN=1 cargo test --test game_parity
//! ```
//!
//! and review the diff of the corpus like any other code change.

mod corpus;

use axml::automata::{Alphabet, Regex, Symbol};
use axml::core::adversary::worst_answer;
use axml::core::awk::{Awk, AwkLimits, StateKind};
use axml::core::dot::game_to_dot;
use axml::core::game::{BuildMode, Game, GameStats, Strategy};
use axml::core::rewrite::Rewriter;
use axml::core::solve_cache::SolveCache;
use axml::obs::Registry;
use axml::schema::{words_of, Compiled, CompiledContent, ITree};
use axml::store::encode_entries;
use axml_support::hash::fnv64;
use corpus::*;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The three ways each case is solved.
#[derive(Debug, Clone, Copy)]
enum Way {
    SafeEager,
    SafeLazy,
    Possible,
}

const WAYS: [(Way, &str); 3] = [
    (Way::SafeEager, "safe-eager"),
    (Way::SafeLazy, "safe-lazy"),
    (Way::Possible, "possible"),
];

/// Everything the digest reads off one solved game.
struct View {
    wins: bool,
    stats: GameStats,
    pairs: Vec<(u32, u32)>,
    succs: Vec<Vec<(u32, u32)>>,
    allowed: Vec<bool>,
    plan: Option<Vec<(Symbol, bool)>>,
    adversary: Vec<Option<(u32, u32)>>,
    counterexample: Option<Vec<Symbol>>,
    worst: Vec<(Symbol, Vec<Symbol>, bool)>,
    dot: String,
}

/// The function symbols of the depth-1 forks of `awk`, in state order.
fn forked_functions(awk: &Awk) -> Vec<Symbol> {
    let mut funcs = Vec::new();
    for s in 0..awk.num_states() as u32 {
        if let StateKind::Fork { func, depth: 1, .. } = awk.kind(s) {
            if !funcs.contains(&func) {
                funcs.push(func);
            }
        }
    }
    funcs
}

/// Solves the game of `awk` against `target` one way and reads it. This
/// is the only function that names the solver's types.
fn solve(way: Way, awk: Awk, target: &Regex, alphabet: &Alphabet) -> View {
    let funcs = forked_functions(&awk);
    let (strategy, mode) = match way {
        Way::SafeEager => (Strategy::Safe, BuildMode::Eager),
        Way::SafeLazy => (Strategy::Safe, BuildMode::Lazy),
        Way::Possible => (Strategy::Possible, BuildMode::Eager),
    };
    let dfa = strategy.dfa(target, alphabet.len());
    let g = Game::solve_in(strategy, awk, dfa, mode, &Registry::new());
    let nodes = || 0..g.num_nodes() as u32;
    View {
        wins: g.wins(),
        stats: g.stats,
        pairs: nodes().map(|v| g.pair(v)).collect(),
        succs: nodes().map(|v| g.successors(v).to_vec()).collect(),
        allowed: nodes().map(|v| g.allowed(v)).collect(),
        plan: g
            .plan()
            .map(|p| p.iter().map(|d| (d.func, d.invoke)).collect()),
        adversary: nodes().map(|v| g.adversary_move(v)).collect(),
        counterexample: g.counterexample(),
        worst: match strategy {
            Strategy::Safe => Vec::new(),
            Strategy::Possible => funcs
                .iter()
                .filter_map(|&f| worst_answer(&g, f).map(|w| (f, w.word, w.trapping)))
                .collect(),
        },
        dot: game_to_dot(&g, alphabet, "game"),
    }
}

/// One corpus line: the verdict and size in the clear, the rest digested.
fn line(name: &str, way: &str, v: &View) -> String {
    let mut text = String::new();
    let _ = writeln!(text, "wins {} stats {:?}", v.wins, v.stats);
    for (n, pair) in v.pairs.iter().enumerate() {
        let _ = writeln!(
            text,
            "n{n} {pair:?} allowed={} out={:?} adversary={:?}",
            v.allowed[n], v.succs[n], v.adversary[n]
        );
    }
    let _ = writeln!(text, "plan {:?}", v.plan);
    let _ = writeln!(text, "counterexample {:?}", v.counterexample);
    let _ = writeln!(text, "worst {:?}", v.worst);
    text.push_str(&v.dot);
    format!(
        "{name} {way} wins={} nodes={} edges={} digest={:016x}",
        v.wins,
        v.stats.nodes,
        v.stats.edges,
        fnv64(text.as_bytes())
    )
}

/// The regex of `label`'s content model.
fn content_model<'c>(compiled: &'c Compiled, label: &str) -> &'c Regex {
    match compiled.content_of(label) {
        Some(CompiledContent::Model { regex, .. }) => regex,
        _ => panic!("'{label}' has no content model"),
    }
}

/// Every (element label, children word) of `tree` not yet in `seen`, in
/// document order.
fn element_words(tree: &ITree, compiled: &Compiled, seen: &mut Vec<(String, Vec<Symbol>)>) {
    if let ITree::Elem { label, children } = tree {
        if matches!(compiled.content_of(label), Some(CompiledContent::Model { .. })) {
            let word = words_of(children, compiled).expect("corpus words compile");
            if !seen.iter().any(|(l, w)| l == label && *w == word) {
                seen.push((label.clone(), word));
            }
        }
        for c in children {
            element_words(c, compiled, seen);
        }
    }
}

/// Three lines per `k` from 1 to 4: `word` under `label`'s content model
/// in `compiled`, solved each way.
fn push_cases(lines: &mut Vec<String>, prefix: &str, compiled: &Compiled, label: &str, word: &[Symbol]) {
    let target = content_model(compiled, label);
    let shown: Vec<&str> = word.iter().map(|&s| compiled.alphabet().name(s)).collect();
    for k in 1..=4u32 {
        let name = format!("{prefix} {label}[{}] k{k}", shown.join("."));
        for (way, way_name) in WAYS {
            let awk = Awk::build(word, compiled, k, &AwkLimits::default()).expect("corpus games fit");
            lines.push(line(&name, way_name, &solve(way, awk, target, compiled.alphabet())));
        }
    }
}

/// The game cases, in corpus order.
fn game_lines() -> Vec<String> {
    let mut lines = Vec::new();
    // Figs. 6/12 (into (**)) and 8/11 (into (***)): the newspaper word
    // title.date.Get_Temp.TimeOut of Fig. 2.
    for (fig, root) in [
        ("fig6+12", "title.date.temp.(TimeOut|exhibit*)"),
        ("fig8+11", "title.date.temp.exhibit*"),
    ] {
        let c = newspaper_schema(root, "title.(Get_Date|date)");
        let word: Vec<Symbol> = ["title", "date", "Get_Temp", "TimeOut"]
            .iter()
            .map(|n| c.alphabet().lookup(n).unwrap())
            .collect();
        push_cases(&mut lines, fig, &c, "newspaper", &word);
    }
    for (tname, target) in newspaper_targets() {
        let mut seen = Vec::new();
        for d in 0..NEWSPAPERS {
            element_words(&newspaper(d), &target, &mut seen);
        }
        for (label, word) in seen {
            push_cases(&mut lines, &format!("news/{tname}"), &target, &label, &word);
        }
    }
    for (tname, target) in mirror_targets() {
        let mut seen = Vec::new();
        for d in 0..MIRRORS {
            element_words(&mirror_doc(10_000 + d), &target, &mut seen);
        }
        for (label, word) in seen {
            push_cases(&mut lines, &format!("mirror/{tname}"), &target, &label, &word);
        }
    }
    lines
}

/// The snapshot line: the `executor_parity` documents rewritten through
/// one shared cache (DOM rewriter, both strategies, the same seeds), then
/// the cache encoded as `axml-store` persists it.
fn snapshot_line() -> String {
    let cache = SolveCache::unpublished(4096);
    let strategies = [Strategy::Safe, Strategy::Possible];
    let rewrite = |doc: &ITree, target: &Compiled, k: u32, strategy: Strategy, seed: u64| {
        let mut rw = Rewriter::new(target).with_k(k).with_cache(&cache);
        let mut inv = SeededInvoker::new(target, seed);
        let _ = match strategy {
            Strategy::Safe => rw.rewrite_safe(doc, &mut inv),
            Strategy::Possible => rw.rewrite_possible(doc, &mut inv),
        };
    };
    let news = newspaper_targets();
    for d in 0..NEWSPAPERS {
        let doc = newspaper(d);
        for (t, (_, target)) in news.iter().enumerate() {
            for strategy in strategies {
                let seed = d * 1_000 + t as u64 * 10 + strategy as u64;
                rewrite(&doc, target, 1, strategy, seed);
            }
        }
    }
    let mirrors = mirror_targets();
    for d in 0..MIRRORS {
        let doc = mirror_doc(10_000 + d);
        for (t, (_, target)) in mirrors.iter().enumerate() {
            for k in [2u32, 3, 4] {
                for strategy in strategies {
                    let seed =
                        500_000 + d * 1_000 + t as u64 * 100 + k as u64 * 10 + strategy as u64;
                    rewrite(&doc, target, k, strategy, seed);
                }
            }
        }
    }
    let entries = cache.export_entries();
    let bytes = encode_entries(&entries);
    format!(
        "snapshot entries={} bytes={} digest={:016x}",
        entries.len(),
        bytes.len(),
        fnv64(&bytes)
    )
}

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("regressions/game_parity.digests")
}

const HEADER: &str = "\
# Corpus for tests/game_parity.rs::game_parity (one line per solved game).
# <case> <safe-eager|safe-lazy|possible> wins=<verdict> nodes=<product nodes>
# edges=<product edges> digest=<digest of the whole solved game>; the last
# line digests the encoded solve-cache snapshot.
# Regenerate with AXML_UPDATE_GOLDEN=1 cargo test --test game_parity.
";

#[test]
fn game_parity() {
    let mut lines = game_lines();
    lines.push(snapshot_line());
    let path = corpus_path();
    if std::env::var("AXML_UPDATE_GOLDEN").is_ok() {
        let mut text = HEADER.to_owned();
        for l in &lines {
            text.push_str(l);
            text.push('\n');
        }
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing corpus {path:?} ({e}); run with AXML_UPDATE_GOLDEN=1 to create it")
    });
    let want: Vec<&str> = want.lines().filter(|l| !l.starts_with('#')).collect();
    let diffs: Vec<String> = lines
        .iter()
        .zip(&want)
        .filter(|(got, want)| got.as_str() != **want)
        .take(10)
        .map(|(got, want)| format!("  want {want}\n   got {got}"))
        .collect();
    assert!(
        diffs.is_empty() && lines.len() == want.len(),
        "games diverged from the recorded corpus ({} recorded, {} now):\n{}",
        want.len(),
        lines.len(),
        diffs.join("\n")
    );
}
