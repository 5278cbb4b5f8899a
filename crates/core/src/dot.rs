//! Graphviz DOT rendering of the rewriting automata.
//!
//! Regenerates the paper's figures as graphs: `A_w^k` (Fig. 4), the
//! complement (Figs. 5/7), the marked safe product (Figs. 6/8/12) and the
//! possible product (Fig. 11). Marked/unviable nodes are shaded like the
//! colored nodes in the paper.

use crate::awk::{Awk, StateKind};
use crate::game::{Game, Strategy};
use axml_automata::Alphabet;
use std::fmt::Write as _;

/// Renders `A_w^k` (Fig. 4 style): forks as diamonds, ε edges dashed.
pub fn awk_to_dot(awk: &Awk, alphabet: &Alphabet, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  rankdir=LR;");
    for s in 0..awk.num_states() as u32 {
        match awk.kind(s) {
            StateKind::Fork { func, .. } => {
                let _ = writeln!(
                    out,
                    "  q{s} [shape=diamond, label=\"q{s}\\nfork {}\"];",
                    alphabet.name(func)
                );
            }
            StateKind::Regular => {
                let shape = if s == awk.finish {
                    "doublecircle"
                } else {
                    "circle"
                };
                let _ = writeln!(out, "  q{s} [shape={shape}, label=\"q{s}\"];");
            }
        }
    }
    let _ = writeln!(out, "  start [shape=point];");
    let _ = writeln!(out, "  start -> q{};", awk.start);
    for e in 0..awk.num_edges() as u32 {
        let edge = awk.edge(e);
        match edge.label {
            Some(sym) => {
                let _ = writeln!(
                    out,
                    "  q{} -> q{} [label=\"{}\"];",
                    edge.from,
                    edge.to,
                    alphabet.name(sym)
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  q{} -> q{} [label=\"ε\", style=dashed];",
                    edge.from, edge.to
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a solved game (Figs. 6/8/12 for safe games, Fig. 11 for
/// possible ones): nodes outside the allowed region (marked, or not
/// viable) are shaded, fork nodes are diamonds, and the finish nodes of
/// a safe game and the accepting nodes of a possible one are doubled.
pub fn game_to_dot(game: &Game, alphabet: &Alphabet, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  rankdir=LR;");
    for n in 0..game.num_nodes() as u32 {
        let (s, p) = game.pair(n);
        let fill = if game.allowed(n) {
            ""
        } else {
            ", style=filled, fillcolor=gray75"
        };
        let doubled = s == game.awk.finish && (game.strategy == Strategy::Safe || game.allowed(n));
        let shape = match game.awk.kind(s) {
            _ if doubled => "doublecircle",
            StateKind::Fork { .. } => "diamond",
            StateKind::Regular => "circle",
        };
        let _ = writeln!(out, "  n{n} [shape={shape}, label=\"[q{s},p{p}]\"{fill}];");
    }
    let _ = writeln!(out, "  start [shape=point];");
    let _ = writeln!(out, "  start -> n{};", game.start);
    for n in 0..game.num_nodes() as u32 {
        for &(eid, t) in game.successors(n) {
            match game.awk.edge(eid).label {
                Some(sym) => {
                    let _ = writeln!(out, "  n{n} -> n{t} [label=\"{}\"];", alphabet.name(sym));
                }
                None => {
                    let _ = writeln!(out, "  n{n} -> n{t} [label=\"ε\", style=dashed];");
                }
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awk::AwkLimits;
    use crate::game::BuildMode;
    use axml_automata::Regex;
    use axml_schema::{Compiled, NoOracle, Schema};

    fn setup() -> (Compiled, Vec<u32>, Regex) {
        let c = Compiled::new(
            Schema::builder()
                .element("r", "(f|a)")
                .data_element("a")
                .function("f", "", "a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let w = vec![c.alphabet().lookup("f").unwrap()];
        let mut ab = c.alphabet().clone();
        let re = Regex::parse("a", &mut ab).unwrap();
        (c, w, re)
    }

    #[test]
    fn dot_renderers_produce_wellformed_graphs() {
        let (c, w, re) = setup();
        let awk = Awk::build(&w, &c, 1, &AwkLimits::default()).unwrap();
        let dot = awk_to_dot(&awk, c.alphabet(), "fig4");
        assert!(dot.contains("diamond"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.starts_with("digraph fig4 {") && dot.ends_with("}\n"));

        let n = c.alphabet().len();
        let solve = |strategy: Strategy| {
            Game::solve(strategy, awk.clone(), strategy.dfa(&re, n), BuildMode::Eager)
        };
        let dot = game_to_dot(&solve(Strategy::Safe), c.alphabet(), "fig6");
        assert!(dot.contains("fillcolor=gray75"), "marked nodes shaded");
        assert!(dot.contains("[q0,p0]"));

        let dot = game_to_dot(&solve(Strategy::Possible), c.alphabet(), "fig11");
        assert!(dot.contains("doublecircle"));
    }
}
