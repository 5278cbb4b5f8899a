//! Brute-force reference implementations of Defs. 4–5.
//!
//! These evaluate the k-depth left-to-right rewriting game *directly*, by
//! enumerating every output instance of every invocable call. They are
//! exponential and only work when output types denote **finite** languages
//! (no stars), but they implement the definitions with no automata theory
//! at all — the property-test suites cross-check the product-and-marking
//! algorithms of [`crate::safe`] / [`crate::possible`] against them on
//! small instances.

use axml_automata::{Dfa, Nfa, Regex, Symbol};
use axml_schema::Compiled;

/// Enumerates `lang(re)`; `None` if the language is infinite or larger
/// than `max_words`.
pub fn enumerate_language(re: &Regex, max_words: usize) -> Option<Vec<Vec<Symbol>>> {
    if has_unbounded(re) {
        return None;
    }
    let mut words = enum_rec(re)?;
    words.sort();
    words.dedup();
    if words.len() > max_words {
        return None;
    }
    Some(words)
}

fn has_unbounded(re: &Regex) -> bool {
    match re {
        Regex::Empty | Regex::Epsilon | Regex::Sym(_) => false,
        Regex::Seq(ps) | Regex::Alt(ps) => ps.iter().any(has_unbounded),
        Regex::Star(_) | Regex::Plus(_) => true,
        Regex::Opt(inner) => has_unbounded(inner),
        Regex::Repeat(inner, _, max) => max.is_none() || has_unbounded(inner),
    }
}

fn enum_rec(re: &Regex) -> Option<Vec<Vec<Symbol>>> {
    Some(match re {
        Regex::Empty => vec![],
        Regex::Epsilon => vec![vec![]],
        Regex::Sym(s) => vec![vec![*s]],
        Regex::Seq(parts) => {
            let mut acc: Vec<Vec<Symbol>> = vec![vec![]];
            for p in parts {
                let words = enum_rec(p)?;
                let mut next = Vec::new();
                for a in &acc {
                    for w in &words {
                        let mut joined = a.clone();
                        joined.extend(w);
                        next.push(joined);
                    }
                }
                acc = next;
                if acc.len() > 100_000 {
                    return None;
                }
            }
            acc
        }
        Regex::Alt(parts) => {
            let mut out = Vec::new();
            for p in parts {
                out.extend(enum_rec(p)?);
            }
            out
        }
        Regex::Opt(inner) => {
            let mut out = enum_rec(inner)?;
            out.push(vec![]);
            out
        }
        Regex::Repeat(inner, min, max) => {
            let max = (*max)?;
            let words = enum_rec(inner)?;
            let mut out = Vec::new();
            for n in *min..=max {
                let mut acc: Vec<Vec<Symbol>> = vec![vec![]];
                for _ in 0..n {
                    let mut next = Vec::new();
                    for a in &acc {
                        for w in &words {
                            let mut joined = a.clone();
                            joined.extend(w);
                            next.push(joined);
                        }
                    }
                    acc = next;
                }
                out.extend(acc);
                if out.len() > 100_000 {
                    return None;
                }
            }
            out
        }
        Regex::Star(_) | Regex::Plus(_) => return None,
    })
}

/// Brute-force k-depth left-to-right **safe** rewriting of `w` into the
/// language of `target` (which must be a complete DFA of the target — not
/// its complement).
///
/// Returns `None` if some invocable output type is infinite.
pub fn brute_safe(w: &[Symbol], compiled: &Compiled, k: u32, target: &Regex) -> Option<bool> {
    let n = compiled.alphabet().len();
    let dfa = Dfa::determinize(&Nfa::thompson(target, n)).completed(n);
    let tagged: Vec<(Symbol, u32)> = w.iter().map(|&s| (s, 1)).collect();
    brute_go(&tagged, dfa.start, compiled, k, &dfa, true)
}

/// Brute-force k-depth left-to-right **possible** rewriting.
pub fn brute_possible(w: &[Symbol], compiled: &Compiled, k: u32, target: &Regex) -> Option<bool> {
    let n = compiled.alphabet().len();
    let dfa = Dfa::determinize(&Nfa::thompson(target, n)).completed(n);
    let tagged: Vec<(Symbol, u32)> = w.iter().map(|&s| (s, 1)).collect();
    brute_go(&tagged, dfa.start, compiled, k, &dfa, false)
}

/// The direct game: process occurrences left to right; at each invocable
/// occurrence (depth ≤ k) the rewriter chooses keep or invoke; invoking
/// universally (safe) or existentially (possible) quantifies over all
/// output instances, whose occurrences carry depth + 1.
fn brute_go(
    suffix: &[(Symbol, u32)],
    q: u32,
    compiled: &Compiled,
    k: u32,
    dfa: &Dfa,
    safe: bool,
) -> Option<bool> {
    let Some(((sym, depth), rest)) = suffix.split_first() else {
        return Some(dfa.finals[q as usize]);
    };
    // Option 1: keep the occurrence as a plain letter.
    let keep = brute_go(rest, dfa.next(q, *sym), compiled, k, dfa, safe)?;
    if keep {
        return Some(true);
    }
    // Option 2: invoke, when allowed.
    if *depth > k || !compiled.invocable(*sym) {
        return Some(false);
    }
    let sig = compiled
        .sig(*sym)
        .expect("invocable symbols have signatures");
    let outputs = enumerate_language(&sig.output, 50_000)?;
    let mut invoke_result = true;
    let mut any = false;
    for out in &outputs {
        let mut new_suffix: Vec<(Symbol, u32)> = out.iter().map(|&s| (s, depth + 1)).collect();
        new_suffix.extend_from_slice(rest);
        let r = brute_go(&new_suffix, q, compiled, k, dfa, safe)?;
        if safe {
            invoke_result &= r;
            if !invoke_result {
                break;
            }
        } else {
            any |= r;
            if any {
                break;
            }
        }
    }
    if safe {
        // Invoking succeeds iff *all* outputs work (and at least one output
        // exists — an empty output language means the call can never
        // return, which we treat as failure).
        Some(!outputs.is_empty() && invoke_result)
    } else {
        Some(any)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awk::{Awk, AwkLimits};
    use crate::game::{BuildMode, Game, Strategy};
    use axml_schema::{NoOracle, Schema};

    fn star_free_compiled() -> Compiled {
        Compiled::new(
            Schema::builder()
                .element("r", "(f|g|h|a|b)?(f|g|h|a|b)?")
                .allow_ambiguous()
                .data_element("a")
                .data_element("b")
                .function("f", "", "a|b")
                .function("g", "", "a.a?")
                .function("h", "", "g|b")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap()
    }

    fn check_agreement(c: &Compiled, w_names: &[&str], target: &str, k: u32) {
        let w: Vec<Symbol> = w_names
            .iter()
            .map(|n| c.alphabet().lookup(n).unwrap())
            .collect();
        let mut ab = c.alphabet().clone();
        let re = Regex::parse(target, &mut ab).unwrap();
        assert_eq!(
            ab.len(),
            c.alphabet().len(),
            "target must use known symbols"
        );
        // Algorithmic answers.
        let awk = Awk::build(&w, c, k, &AwkLimits::default()).unwrap();
        let n = c.alphabet().len();
        let solve = |strategy: Strategy, mode| {
            Game::solve(strategy, awk.clone(), strategy.dfa(&re, n), mode).wins()
        };
        let safe_alg = solve(Strategy::Safe, BuildMode::Eager);
        let safe_lazy = solve(Strategy::Safe, BuildMode::Lazy);
        let poss_alg = solve(Strategy::Possible, BuildMode::Eager);
        // Reference answers.
        let safe_ref = brute_safe(&w, c, k, &re).expect("finite outputs");
        let poss_ref = brute_possible(&w, c, k, &re).expect("finite outputs");
        assert_eq!(
            safe_alg, safe_ref,
            "safe mismatch on {w_names:?} -> {target} (k={k})"
        );
        assert_eq!(
            safe_lazy, safe_ref,
            "lazy mismatch on {w_names:?} -> {target} (k={k})"
        );
        assert_eq!(
            poss_alg, poss_ref,
            "possible mismatch on {w_names:?} -> {target} (k={k})"
        );
        // Sanity: safe implies possible.
        assert!(!safe_ref || poss_ref);
    }

    #[test]
    fn exhaustive_agreement_on_small_instances() {
        let c = star_free_compiled();
        let symbols = ["f", "g", "h", "a", "b"];
        let targets = [
            "a",
            "b",
            "a.a",
            "a.b",
            "a|b",
            "(a|b).(a|b)",
            "a.a?",
            "a?",
            "a.a.a",
            "(a|b)?",
            "b.a",
            "a.(a|b)",
            "g|a.a?",
            "f.a",
            "",
        ];
        // All words of length ≤ 2 over the 5 symbols, all targets, k ∈ {0,1,2}.
        let mut words: Vec<Vec<&str>> = vec![vec![]];
        for &s in &symbols {
            words.push(vec![s]);
        }
        for &s1 in &symbols {
            for &s2 in &symbols {
                words.push(vec![s1, s2]);
            }
        }
        for w in &words {
            for t in &targets {
                for k in 0..=2 {
                    check_agreement(&c, w, t, k);
                }
            }
        }
    }

    #[test]
    fn enumerate_language_works() {
        let mut ab = axml_automata::Alphabet::new();
        let re = Regex::parse("(a|b).c?", &mut ab).unwrap();
        let words = enumerate_language(&re, 100).unwrap();
        assert_eq!(words.len(), 4);
        let re2 = Regex::parse("a*", &mut ab).unwrap();
        assert_eq!(enumerate_language(&re2, 100), None);
        let re3 = Regex::parse("a{1,3}", &mut ab).unwrap();
        assert_eq!(enumerate_language(&re3, 100).unwrap().len(), 3);
    }
}
