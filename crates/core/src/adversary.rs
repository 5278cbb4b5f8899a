//! Strategic adversaries over the solved rewriting games.
//!
//! The paper's Def. 4 lets a service answer a call with *any* instance of
//! its output type. Random type-correct answers (the default simulated
//! adversary) explore that freedom blindly; the related rewriting-games
//! literature (*Games for Active XML Revisited*, *Transducer-based
//! Rewriting Games for Active XML*) characterizes the **worst-case**
//! opponent instead: one that plays the game graph. This module extracts
//! that opponent's moves from an already-solved possible [`Game`].
//!
//! The adversary's freedom for one call to `f` is the path it picks
//! through the output-type copy that [`Awk`] spliced in for `f`'s fork:
//! each labeled edge on the path is one symbol of the answer word. A
//! *trapping* answer is a path whose product node (or target-DFA state)
//! leaves the viable region — after splicing it, no continuation of the
//! rewriting can reach the target language, so a possible-mode rewriter
//! is forced to backtrack and, with no alternatives, to report a typed
//! `Exhausted` failure. [`worst_answer`] finds such a path when one
//! exists; [`Game::counterexample`] is the safe-game analogue (the
//! full adversary-forced bad word).
//!
//! [`Awk`]: crate::awk::Awk

use crate::awk::{EdgeId, StateId, StateKind};
use crate::game::Game;
use axml_automata::{Symbol, NO_STATE};

/// The answer the strategic adversary wants to give for one call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorstAnswer {
    /// The answer word (a word of the function's output type).
    pub word: Vec<Symbol>,
    /// Whether this answer provably traps the rewriter: after splicing
    /// it, the product leaves the viable region, so no continuation
    /// conforms. `false` means every type-correct answer keeps the
    /// rewriter viable — the adversary cannot win this call.
    pub trapping: bool,
}

/// Walks the solved possible game and returns the adversary's preferred
/// answer word for the first depth-1 occurrence of `func` in the word the
/// game was built over. Returns `None` when `func` has no depth-1 fork in
/// the expansion (the rewriter never asks the adversary anything).
///
/// The walk starts at the fork's `invoke` edge and chooses successors in
/// the output-type copy, preferring edges whose product node is
/// non-viable (or whose label is dead in the target DFA — those pairs are
/// pruned from the product). Deeper forks inside the copy are traversed
/// through their `skip` edge only: the answer must be a word of the
/// output type itself, not of its further expansion. Every step either
/// strictly decreases a precomputed distance to the copy's exit or is the
/// single move into the trapped region, so the walk terminates without a
/// fuel bound.
pub fn worst_answer(game: &Game, func: Symbol) -> Option<WorstAnswer> {
    let awk = &game.awk;
    // The first depth-1 fork for `func`: fork states are created in
    // left-to-right word order, so the lowest state id is the first
    // occurrence.
    let fork = (0..awk.num_states() as StateId).find(|&s| {
        matches!(
            awk.kind(s),
            StateKind::Fork { func: f, depth: 1, .. } if f == func
        )
    })?;
    let StateKind::Fork { skip, invoke, .. } = awk.kind(fork) else {
        unreachable!("state found by fork filter");
    };
    let entry = awk.edge(invoke).to;
    let exit = awk.edge(skip).to;

    // The target-DFA state the rewriter is in when it invokes: read it
    // off a product node sitting on the fork. Prefer a viable one (the
    // rewriter only invokes from viable nodes).
    let q0 = (0..game.num_nodes() as u32)
        .filter(|&n| game.pair(n).0 == fork)
        .max_by_key(|&n| game.allowed(n))
        .map(|n| game.pair(n).1)?;

    let dist = distances_to(awk, exit);
    dist[entry as usize]?; // the copy must be able to complete an answer

    let mut word = Vec::new();
    let mut s = entry;
    // `None` target state = the answer already fell off the target DFA.
    let mut q = Some(q0);
    let mut trapped = !alive(game, s, q);
    while s != exit {
        let candidates = answer_edges(awk, s);
        let pick = candidates
            .iter()
            .copied()
            .filter(|&e| dist[awk.edge(e).to as usize].is_some())
            .min_by_key(|&e| {
                let edge = awk.edge(e);
                let q2 = step(game, q, edge.label);
                // Trap first (non-viable beats viable), then shortest way
                // out, then lowest edge id for determinism.
                (alive(game, edge.to, q2), dist[edge.to as usize], e)
            })?;
        let edge = awk.edge(pick);
        q = step(game, q, edge.label);
        if let Some(sym) = edge.label {
            word.push(sym);
        }
        s = edge.to;
        trapped = trapped || !alive(game, s, q);
    }
    Some(WorstAnswer {
        word,
        trapping: trapped,
    })
}

/// Steps the game's target DFA; `None` is the dead (trapped) state.
fn step(game: &Game, q: Option<u32>, label: Option<Symbol>) -> Option<u32> {
    match (q, label) {
        (q, None) => q,
        (None, Some(_)) => None,
        (Some(q), Some(sym)) => match game.dfa.next(q, sym) {
            NO_STATE => None,
            t => Some(t),
        },
    }
}

/// Whether the pair `(awk state, target state)` is still a viable product
/// node. A dead target state, a pair pruned from the product, or a
/// non-viable node all mean the rewriter has already lost.
fn alive(game: &Game, s: StateId, q: Option<u32>) -> bool {
    match q {
        None => false,
        Some(q) => game.node(s, q).is_some_and(|n| game.allowed(n)),
    }
}

/// The edges an *answer* may take from `s`: all of a regular state's
/// edges, but only the `skip` edge of a deeper fork (taking `invoke`
/// would emit a word of the expansion, not of the output type).
fn answer_edges(awk: &crate::awk::Awk, s: StateId) -> Vec<EdgeId> {
    match awk.kind(s) {
        StateKind::Regular => awk.out_edges(s).to_vec(),
        StateKind::Fork { skip, .. } => vec![skip],
    }
}

/// BFS distance (in edges) from every awk state to `exit`, restricted to
/// answer edges. `None` = `exit` unreachable along answer paths.
fn distances_to(awk: &crate::awk::Awk, exit: StateId) -> Vec<Option<u32>> {
    let n = awk.num_states();
    // Reverse adjacency over answer edges.
    let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); n];
    for s in 0..n as StateId {
        for e in answer_edges(awk, s) {
            rev[awk.edge(e).to as usize].push(s);
        }
    }
    let mut dist = vec![None; n];
    dist[exit as usize] = Some(0);
    let mut queue = std::collections::VecDeque::from([exit]);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize].expect("queued states have distances");
        for &p in &rev[v as usize] {
            if dist[p as usize].is_none() {
                dist[p as usize] = Some(d + 1);
                queue.push_back(p);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awk::{Awk, AwkLimits};
    use crate::game::{target_of, BuildMode, Strategy};
    use axml_automata::Regex;
    use axml_schema::{Compiled, NoOracle, Schema};

    fn marketplace_compiled() -> Compiled {
        Compiled::new(
            Schema::builder()
                .element("offer", "title.price")
                .data_element("title")
                .data_element("price")
                .data_element("apology")
                .function("Get_Quote", "title", "price|apology|Get_Quote")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap()
    }

    fn game(c: &Compiled, w: &[&str], target: &str, k: u32) -> Game {
        let word: Vec<Symbol> = w
            .iter()
            .map(|n| c.alphabet().lookup(n).unwrap())
            .collect();
        let awk = Awk::build(&word, c, k, &AwkLimits::default()).unwrap();
        let mut ab = c.alphabet().clone();
        let re = Regex::parse(target, &mut ab).unwrap();
        assert_eq!(ab.len(), c.alphabet().len());
        Game::solve(
            Strategy::Possible,
            awk,
            target_of(&re, c.alphabet().len()),
            BuildMode::Eager,
        )
    }

    #[test]
    fn adversary_finds_the_trapping_answer() {
        // The rewriter must turn title.Get_Quote into title.price; the
        // output type also admits `apology`, which no continuation can
        // repair. The strategic adversary must find it.
        let c = marketplace_compiled();
        let g = game(&c, &["title", "Get_Quote"], "title.price", 1);
        assert!(g.wins());
        let quote = c.alphabet().lookup("Get_Quote").unwrap();
        let answer = worst_answer(&g, quote).expect("Get_Quote has a fork");
        assert!(answer.trapping, "apology traps the rewriter");
        let apology = c.alphabet().lookup("apology").unwrap();
        assert_eq!(answer.word, vec![apology]);
    }

    #[test]
    fn trapping_answers_survive_deeper_expansion() {
        // At k = 2 the Get_Quote continuation inside the output type is
        // itself expanded; the answer walk must stay inside the depth-1
        // copy (skip edges only) and still find `apology`.
        let c = marketplace_compiled();
        let g = game(&c, &["title", "Get_Quote"], "title.price", 2);
        let quote = c.alphabet().lookup("Get_Quote").unwrap();
        let answer = worst_answer(&g, quote).expect("Get_Quote has a fork");
        assert!(answer.trapping);
        let apology = c.alphabet().lookup("apology").unwrap();
        assert_eq!(answer.word, vec![apology]);
    }

    #[test]
    fn no_trap_when_every_answer_keeps_the_rewriter_viable() {
        // Get_Date's output type is exactly `date`: the adversary has no
        // freedom, so no trapping answer exists.
        let c = Compiled::new(
            Schema::builder()
                .element("exhibit", "title.date")
                .data_element("title")
                .data_element("date")
                .function("Get_Date", "title", "date")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let g = game(&c, &["title", "Get_Date"], "title.date", 1);
        let get_date = c.alphabet().lookup("Get_Date").unwrap();
        let answer = worst_answer(&g, get_date).expect("Get_Date has a fork");
        assert!(!answer.trapping);
        let date = c.alphabet().lookup("date").unwrap();
        assert_eq!(answer.word, vec![date]);
    }

    #[test]
    fn no_fork_means_no_answer() {
        let c = marketplace_compiled();
        let g = game(&c, &["title", "price"], "title.price", 1);
        let quote = c.alphabet().lookup("Get_Quote").unwrap();
        assert!(worst_answer(&g, quote).is_none());
    }

    #[test]
    fn successor_queries_agree_with_the_walk() {
        // The exposed node()/adversary_move() queries let callers
        // replay the walk by hand: from the start, some path of
        // adversary_move moves reaches a non-viable node exactly when
        // the game is winnable by the adversary at that fork.
        let c = marketplace_compiled();
        let g = game(&c, &["title", "Get_Quote"], "title.price", 1);
        let (s0, q0) = g.pair(g.start);
        assert_eq!(g.node(s0, q0), Some(g.start));
        let (_, n) = g.adversary_move(g.start).expect("start has moves");
        assert!(g.node(g.pair(n).0, g.pair(n).1) == Some(n));
    }
}
