//! Executor parity corpus: the Fig. 3 / Fig. 9 word executor's observable
//! behaviour, pinned case by case in `regressions/executor_parity.digests`.
//!
//! `cache_determinism` compares two runs of the *same* executor, so it
//! cannot notice a change in the executor itself. This suite compares
//! the executor against a recorded corpus instead. Each case is a generated document (one of the paper's
//! newspapers or a mirror-chain exhibit list), a target schema, a depth
//! bound `k` and a strategy, run against a seeded invoker that answers
//! every call with a random instance of the function's declared output
//! type. Those answers often kill a branch the executor chose: a kept
//! `Get_Temp` whose `TimeOut` answer carries a `performance`, or a mirror
//! chain that runs past `k`. Possible rewriting then backtracks and
//! counts wasted calls. A few calls fail outright, and some cases run
//! under a call budget, so the fatal paths are pinned too.
//!
//! Every case runs through `Rewriter::rewrite_safe` / `rewrite_possible`.
//! For each run the corpus holds a digest of the output bytes, the length
//! and a digest of the `invoked` log, `wasted_calls`, the number of games
//! and the error text.
//!
//! After an intentional behaviour change, regenerate with
//!
//! ```text
//! AXML_UPDATE_GOLDEN=1 cargo test --test executor_parity
//! ```
//!
//! and review the diff of the corpus like any other code change.

mod corpus;

use axml::core::invoke::ScriptedInvoker;
use axml::core::rewrite::{RewriteError, RewriteReport, Rewriter, Strategy};
use axml::core::solve_cache::SolveCache;
use axml::schema::{Compiled, ITree, NoOracle, Schema};
use axml::xml::{element_to_string, WriteOptions};
use corpus::*;
use std::path::PathBuf;

fn xml_of(tree: &ITree) -> String {
    element_to_string(&tree.to_xml(), &WriteOptions::compact())
}

/// What a run produced, as digests and counts. A failed run returns no
/// report, so its calls come from the invoker's own log.
fn record(out: Result<(String, &RewriteReport), RewriteError>, log: &[String]) -> String {
    let (out, invoked, wasted, games, err) = match out {
        Ok((xml, r)) => (
            digest(xml.as_bytes()),
            &r.invoked[..],
            r.wasted_calls.to_string(),
            r.games.to_string(),
            "-".to_owned(),
        ),
        Err(e) => ("-".to_owned(), log, "-".into(), "-".into(), e.to_string()),
    };
    format!(
        "out={out} calls={}:{} wasted={wasted} games={games} err={err}",
        invoked.len(),
        digest(invoked.join(",").as_bytes()),
    )
}

struct Case<'a> {
    name: String,
    doc: ITree,
    target: &'a Compiled,
    k: u32,
    strategy: Strategy,
    seed: u64,
    max_calls: Option<usize>,
}

/// Runs one case through the rewriter: one corpus line.
fn run(case: &Case<'_>, cache: &SolveCache) -> String {
    let mut rw = Rewriter::new(case.target).with_k(case.k).with_cache(cache);
    if let Some(max) = case.max_calls {
        rw = rw.with_max_calls(max);
    }
    let mut inv = SeededInvoker::new(case.target, case.seed);
    let out = match case.strategy {
        Strategy::Safe => rw.rewrite_safe(&case.doc, &mut inv),
        Strategy::Possible => rw.rewrite_possible(&case.doc, &mut inv),
    };
    let out = match &out {
        Ok((tree, report)) => Ok((xml_of(tree), report)),
        Err(e) => Err(e.clone()),
    };
    format!("{} dom {}", case.name, record(out, &inv.log))
}

fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Safe => "safe",
        Strategy::Possible => "possible",
    }
}

/// Every case of the corpus, in corpus order.
fn corpus_lines() -> Vec<String> {
    let cache = SolveCache::unpublished(4096);
    let mut lines = Vec::new();
    let mut push = |case: Case<'_>| lines.push(run(&case, &cache));
    let strategies = [Strategy::Safe, Strategy::Possible];
    let news = newspaper_targets();
    for d in 0..NEWSPAPERS {
        let doc = newspaper(d);
        for (t, (tname, target)) in news.iter().enumerate() {
            for strategy in strategies {
                let seed = d * 1_000 + t as u64 * 10 + strategy as u64;
                // One case in seven runs under a budget of two calls.
                let max_calls = (seed % 7 == 3).then_some(2);
                push(Case {
                    name: format!("news{d:03} {tname} k1 {}", strategy_name(strategy)),
                    doc: doc.clone(),
                    target,
                    k: 1,
                    strategy,
                    seed,
                    max_calls,
                });
            }
        }
    }
    let mirrors = mirror_targets();
    for d in 0..MIRRORS {
        let doc = mirror_doc(10_000 + d);
        for (t, (tname, target)) in mirrors.iter().enumerate() {
            for k in [2u32, 3, 4] {
                for strategy in strategies {
                    let seed =
                        500_000 + d * 1_000 + t as u64 * 100 + k as u64 * 10 + strategy as u64;
                    push(Case {
                        name: format!("mirror{d:03} {tname} k{k} {}", strategy_name(strategy)),
                        doc: doc.clone(),
                        target,
                        k,
                        strategy,
                        seed,
                        max_calls: None,
                    });
                }
            }
        }
    }
    lines
}

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("regressions/executor_parity.digests")
}

const HEADER: &str = "\
# Corpus for tests/executor_parity.rs::executor_parity (one line per run).
# <case> dom out=<digest of the output XML> calls=<count>:<digest of the
# invoked log> wasted=<wasted_calls> games=<games> err=<error text>.
# Regenerate with AXML_UPDATE_GOLDEN=1 cargo test --test executor_parity.
";

#[test]
fn executor_parity() {
    let lines = corpus_lines();
    let path = corpus_path();
    let mut text = HEADER.to_owned();
    for l in &lines {
        text.push_str(l);
        text.push('\n');
    }
    if std::env::var("AXML_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    }
    assert!(lines.len() >= 500, "the corpus holds {} cases", lines.len());
    let wasteful = lines
        .iter()
        .filter(|l| !l.contains(" wasted=0 ") && !l.contains(" wasted=- "))
        .count();
    assert!(wasteful >= 50, "only {wasteful} cases waste calls");
    if std::env::var("AXML_UPDATE_GOLDEN").is_ok() {
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
        "executor diverged from the recorded corpus ({} runs recorded, {} run now):\n{}",
        want.len(),
        lines.len(),
        diffs.join("\n")
    );
}

/// `r = a*` with `f : () -> a`, and a root of `n` children alternating
/// `a` with a call to `f`.
fn wide(n: usize) -> (Compiled, ITree) {
    let c = Compiled::new(
        Schema::builder()
            .element("r", "a*")
            .data_element("a")
            .function("f", "", "a")
            .build()
            .unwrap(),
        &NoOracle,
    )
    .unwrap();
    let kids = (0..n)
        .map(|i| match i % 2 {
            0 => ITree::data("a", "x"),
            _ => ITree::func("f", vec![]),
        })
        .collect();
    (c, ITree::elem("r", kids))
}

/// Rewrites a [`wide`] root of `children` children at k = 1 on a thread
/// with the 2 MiB stack Rust gives spawned threads, for both strategies.
fn rewrite_wide_on_a_small_stack(children: usize) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let (c, doc) = wide(children);
            let want = ITree::elem("r", vec![ITree::data("a", "x"); children]);
            let answers = || ScriptedInvoker::new().answer("f", vec![ITree::data("a", "x")]);
            for strategy in [Strategy::Safe, Strategy::Possible] {
                let mut rw = Rewriter::new(&c).with_k(1);
                let mut inv = answers();
                let (out, report) = match strategy {
                    Strategy::Safe => rw.rewrite_safe(&doc, &mut inv),
                    Strategy::Possible => rw.rewrite_possible(&doc, &mut inv),
                }
                .unwrap();
                assert_eq!(out, want, "{strategy:?} DOM output");
                assert_eq!(report.invoked.len(), children / 2);
                assert_eq!(report.wasted_calls, 0);
            }
        })
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("wide words rewrite without overflowing the stack");
}

/// A refusal names at most 32 symbols of the word it refuses, however
/// wide the word: at k = 0 no call may be invoked, so no rewriting of a
/// [`wide`] root reaches `a*`.
#[test]
fn refusals_of_wide_words_name_at_most_32_symbols() {
    let children = 20_001;
    let (c, doc) = wide(children);
    let shown = ["a", "f"].repeat(16).join(".");
    let want = format!("{shown}…(+{} more)", children - 32);
    for strategy in [Strategy::Safe, Strategy::Possible] {
        let mut rw = Rewriter::new(&c).with_k(0);
        let mut inv = ScriptedInvoker::new();
        let err = match strategy {
            Strategy::Safe => rw.rewrite_safe(&doc, &mut inv),
            Strategy::Possible => rw.rewrite_possible(&doc, &mut inv),
        }
        .unwrap_err();
        let (RewriteError::NotSafe { word, .. } | RewriteError::NotPossible { word, .. }) = &err
        else {
            panic!("{strategy:?}: not a refusal: {err}");
        };
        assert_eq!(*word, want, "{strategy:?}");
        assert!(err.to_string().len() < 200, "{strategy:?}: {err}");
    }
}

/// The executor walks a word in a loop, not a recursion per child.
#[test]
fn wide_words_rewrite_on_a_small_stack() {
    rewrite_wide_on_a_small_stack(20_001);
}

/// The release-mode time gate of `scripts/ci.sh` (under `timeout 60`):
/// an executor quadratic in the children count needs about 20 minutes
/// per run at this size.
#[test]
#[ignore = "release-mode time gate, run by scripts/ci.sh"]
fn a_hundred_thousand_children_rewrite_on_a_small_stack() {
    rewrite_wide_on_a_small_stack(100_001);
}
