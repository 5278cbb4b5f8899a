//! Deterministic finite automata.
//!
//! The safe-rewriting algorithm (Fig. 3 of the paper) needs a *deterministic
//! and complete* automaton for the complement of the target content model.
//! This module provides subset construction, completion with a sink state,
//! complementation, products, Moore minimization, emptiness and witness
//! extraction.

use crate::alphabet::Symbol;
use crate::nfa::Nfa;
use axml_support::hash::FxHashMap;
use std::collections::{BTreeMap, HashMap};

/// Sentinel for a missing transition in a partial DFA.
pub const NO_STATE: u32 = u32::MAX;

/// A (possibly partial) DFA over the dense alphabet `0..num_symbols`.
///
/// The transition table is a flat row-major matrix: entry
/// `table[state * num_symbols + symbol]` is the successor state or
/// [`NO_STATE`].
#[derive(Debug, Clone)]
pub struct Dfa {
    /// Alphabet size.
    pub num_symbols: usize,
    /// Flat transition table, `num_states × num_symbols`.
    pub table: Vec<u32>,
    /// Initial state.
    pub start: u32,
    /// `finals[s]` is true iff state `s` accepts.
    pub finals: Vec<bool>,
}

impl Dfa {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.finals.len()
    }

    /// The successor of `state` on `sym`, or [`NO_STATE`].
    #[inline]
    pub fn next(&self, state: u32, sym: Symbol) -> u32 {
        self.table[state as usize * self.num_symbols + sym as usize]
    }

    /// True iff the DFA accepts `word`.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let mut s = self.start;
        for &sym in word {
            s = self.next(s, sym);
            if s == NO_STATE {
                return false;
            }
        }
        self.finals[s as usize]
    }

    /// Subset construction from an ε-NFA. The result is partial (no sink).
    pub fn determinize(nfa: &Nfa) -> Dfa {
        let num_symbols = nfa.num_symbols;
        let start_set = nfa.eps_closure(&[nfa.start]);
        let mut ids: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut sets: Vec<Vec<u32>> = Vec::new();
        let mut table: Vec<u32> = Vec::new();
        let mut finals: Vec<bool> = Vec::new();

        // Intern the start set, then process subset-states in discovery
        // order; every newly interned set is appended, so a cursor doubles
        // as the worklist.
        ids.insert(start_set.clone(), 0);
        finals.push(nfa.contains_final(&start_set));
        sets.push(start_set);
        table.extend(std::iter::repeat_n(NO_STATE, num_symbols));
        let start = 0u32;
        let mut cursor = 0usize;
        while cursor < sets.len() {
            // Group transitions by symbol to avoid scanning the whole
            // alphabet for sparse automata. Ascending symbol order numbers
            // the states the same way in every run.
            let set = sets[cursor].clone();
            let mut by_sym: BTreeMap<Symbol, Vec<u32>> = BTreeMap::new();
            for &st in &set {
                for &(a, t) in &nfa.trans[st as usize] {
                    by_sym.entry(a).or_default().push(t);
                }
            }
            for (sym, targets) in by_sym {
                let next_set = nfa.eps_closure(&targets);
                if next_set.is_empty() {
                    continue;
                }
                let t = match ids.get(&next_set) {
                    Some(&id) => id,
                    None => {
                        let id = sets.len() as u32;
                        ids.insert(next_set.clone(), id);
                        finals.push(nfa.contains_final(&next_set));
                        sets.push(next_set);
                        table.extend(std::iter::repeat_n(NO_STATE, num_symbols));
                        id
                    }
                };
                table[cursor * num_symbols + sym as usize] = t;
            }
            cursor += 1;
        }
        Dfa {
            num_symbols,
            table,
            start,
            finals,
        }
    }

    /// Returns a *complete* copy over an alphabet of `num_symbols` symbols:
    /// every state has a transition on every symbol, adding a non-accepting
    /// sink if needed. `num_symbols` must be at least `self.num_symbols`
    /// (the alphabet may be widened, e.g. to cover document-only symbols).
    pub fn completed(&self, num_symbols: usize) -> Dfa {
        assert!(
            num_symbols >= self.num_symbols,
            "cannot shrink the alphabet"
        );
        let n = self.num_states();
        let needs_sink = num_symbols > self.num_symbols
            || (0..n).any(|s| {
                (0..self.num_symbols).any(|a| self.table[s * self.num_symbols + a] == NO_STATE)
            });
        let total = if needs_sink { n + 1 } else { n };
        let sink = n as u32;
        let mut table = vec![sink; total * num_symbols];
        for s in 0..n {
            for a in 0..self.num_symbols {
                let t = self.table[s * self.num_symbols + a];
                table[s * num_symbols + a] = if t == NO_STATE { sink } else { t };
            }
        }
        let mut finals = self.finals.clone();
        if needs_sink {
            finals.push(false);
        }
        Dfa {
            num_symbols,
            table,
            start: self.start,
            finals,
        }
    }

    /// True if every state has a successor on every symbol.
    pub fn is_complete(&self) -> bool {
        self.table.iter().all(|&t| t != NO_STATE)
    }

    /// Complements the automaton by flipping accepting states.
    ///
    /// # Panics
    /// Panics if the automaton is not complete — complement a
    /// [`Dfa::completed`] automaton.
    pub fn complemented(&self) -> Dfa {
        assert!(
            self.is_complete(),
            "complement requires a complete DFA; call completed() first"
        );
        let mut out = self.clone();
        for f in &mut out.finals {
            *f = !*f;
        }
        out
    }

    /// Product automaton; `accept` combines the two acceptance flags
    /// (e.g. `&&` for intersection, `||` for union).
    pub fn product(&self, other: &Dfa, accept: impl Fn(bool, bool) -> bool) -> Dfa {
        assert_eq!(
            self.num_symbols, other.num_symbols,
            "product requires matching alphabets"
        );
        let num_symbols = self.num_symbols;
        // Pair keys are packed into one u64 and interned through the
        // deterministic fast hasher: the product is quadratic in the
        // worst case, so SipHash on a tuple key dominates the profile.
        let pack = |a: u32, b: u32| (u64::from(a) << 32) | u64::from(b);
        let mut ids: FxHashMap<u64, u32> = FxHashMap::default();
        let expected = self.num_states().max(other.num_states()) * 2;
        ids.reserve(expected);
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(expected);
        let mut table: Vec<u32> = Vec::new();
        let mut finals: Vec<bool> = Vec::with_capacity(expected);
        // Intern the start pair, then process states in discovery order;
        // every newly interned pair is appended to `pairs`, so a simple
        // cursor doubles as the worklist.
        let start_pair = (self.start, other.start);
        ids.insert(pack(self.start, other.start), 0);
        finals.push(accept(
            self.finals[self.start as usize],
            other.finals[other.start as usize],
        ));
        pairs.push(start_pair);
        table.extend(std::iter::repeat_n(NO_STATE, num_symbols));
        let start = 0u32;
        let mut cursor = 0usize;
        while cursor < pairs.len() {
            let (p, q) = pairs[cursor];
            for a in 0..num_symbols {
                let tp = self.next(p, a as Symbol);
                let tq = other.next(q, a as Symbol);
                if tp == NO_STATE || tq == NO_STATE {
                    continue;
                }
                let t = match ids.get(&pack(tp, tq)) {
                    Some(&id) => id,
                    None => {
                        let id = pairs.len() as u32;
                        ids.insert(pack(tp, tq), id);
                        finals.push(accept(self.finals[tp as usize], other.finals[tq as usize]));
                        pairs.push((tp, tq));
                        table.extend(std::iter::repeat_n(NO_STATE, num_symbols));
                        id
                    }
                };
                table[cursor * num_symbols + a] = t;
            }
            cursor += 1;
        }
        Dfa {
            num_symbols,
            table,
            start,
            finals,
        }
    }

    /// True iff the language is empty (no accepting state reachable).
    ///
    /// Unlike [`Dfa::shortest_accepted`] this never builds the BFS parent
    /// chain or reconstructs a witness: a bitset-driven DFS that returns
    /// on the first reachable accepting state, allocation-free when the
    /// start state already decides the answer. `subset_of` and
    /// `equivalent` sit on this in the schema-compatibility hot path.
    pub fn is_empty_language(&self) -> bool {
        if self.finals[self.start as usize] {
            return false;
        }
        if !self.finals.iter().any(|&f| f) {
            return true;
        }
        let n = self.num_states();
        let mut seen = vec![0u64; n.div_ceil(64)];
        let mut stack = Vec::with_capacity(64);
        seen[self.start as usize / 64] |= 1u64 << (self.start as usize % 64);
        stack.push(self.start);
        while let Some(s) = stack.pop() {
            let row = s as usize * self.num_symbols;
            for &t in &self.table[row..row + self.num_symbols] {
                if t == NO_STATE {
                    continue;
                }
                let (word, bit) = (t as usize / 64, 1u64 << (t as usize % 64));
                if seen[word] & bit == 0 {
                    if self.finals[t as usize] {
                        return false;
                    }
                    seen[word] |= bit;
                    stack.push(t);
                }
            }
        }
        true
    }

    /// A shortest accepted word, or `None` if the language is empty
    /// (BFS from the start state).
    pub fn shortest_accepted(&self) -> Option<Vec<Symbol>> {
        let n = self.num_states();
        let mut prev: Vec<Option<(u32, Symbol)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[self.start as usize] = true;
        queue.push_back(self.start);
        let mut hit = if self.finals[self.start as usize] {
            Some(self.start)
        } else {
            None
        };
        'bfs: while let Some(s) = queue.pop_front() {
            if hit.is_some() {
                break;
            }
            for a in 0..self.num_symbols {
                let t = self.next(s, a as Symbol);
                if t != NO_STATE && !seen[t as usize] {
                    seen[t as usize] = true;
                    prev[t as usize] = Some((s, a as Symbol));
                    if self.finals[t as usize] {
                        hit = Some(t);
                        break 'bfs;
                    }
                    queue.push_back(t);
                }
            }
        }
        let mut cur = hit?;
        let mut word = Vec::new();
        while let Some((p, a)) = prev[cur as usize] {
            word.push(a);
            cur = p;
        }
        word.reverse();
        Some(word)
    }

    /// Moore partition-refinement minimization.
    ///
    /// Input must be complete; the result is complete, minimal, and preserves
    /// the language. Unreachable states are dropped first.
    pub fn minimized(&self) -> Dfa {
        assert!(self.is_complete(), "minimize requires a complete DFA");
        // 1. Restrict to reachable states.
        let n = self.num_states();
        let mut reach = vec![false; n];
        let mut stack = vec![self.start];
        reach[self.start as usize] = true;
        while let Some(s) = stack.pop() {
            for a in 0..self.num_symbols {
                let t = self.next(s, a as Symbol);
                if !reach[t as usize] {
                    reach[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        let states: Vec<u32> = (0..n as u32).filter(|&s| reach[s as usize]).collect();
        // 2. Initial partition: accepting / non-accepting.
        let mut class = vec![0u32; n];
        for &s in &states {
            class[s as usize] = u32::from(self.finals[s as usize]);
        }
        let mut num_classes = 2;
        loop {
            // Signature of a state: (class, class of successor per symbol).
            let mut sig_ids: HashMap<Vec<u32>, u32> = HashMap::new();
            let mut new_class = vec![0u32; n];
            for &s in &states {
                let mut sig = Vec::with_capacity(self.num_symbols + 1);
                sig.push(class[s as usize]);
                for a in 0..self.num_symbols {
                    sig.push(class[self.next(s, a as Symbol) as usize]);
                }
                let next_id = sig_ids.len() as u32;
                let id = *sig_ids.entry(sig).or_insert(next_id);
                new_class[s as usize] = id;
            }
            let new_num = sig_ids.len();
            class = new_class;
            if new_num == num_classes {
                break;
            }
            num_classes = new_num;
        }
        // 3. Build the quotient automaton.
        let mut table = vec![NO_STATE; num_classes * self.num_symbols];
        let mut finals = vec![false; num_classes];
        for &s in &states {
            let c = class[s as usize] as usize;
            finals[c] = self.finals[s as usize];
            for a in 0..self.num_symbols {
                table[c * self.num_symbols + a] = class[self.next(s, a as Symbol) as usize];
            }
        }
        Dfa {
            num_symbols: self.num_symbols,
            table,
            start: class[self.start as usize],
            finals,
        }
    }

    /// True iff `lang(self) ⊆ lang(other)` (both complete, same alphabet).
    pub fn subset_of(&self, other: &Dfa) -> bool {
        // L1 ⊆ L2 ⟺ L1 ∩ ¬L2 = ∅.
        self.product(&other.complemented(), |a, b| a && b)
            .is_empty_language()
    }

    /// True iff this DFA and `other` accept the same language
    /// (both must be complete over the same alphabet).
    pub fn equivalent(&self, other: &Dfa) -> bool {
        // L1 Δ L2 empty ⟺ equivalence.
        let xor = self.product(other, |a, b| a != b);
        xor.is_empty_language()
    }

    /// States from which an accepting state is reachable ("live" states).
    pub fn coaccessible(&self) -> Vec<bool> {
        let n = self.num_states();
        // Build reverse adjacency.
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for s in 0..n {
            for a in 0..self.num_symbols {
                let t = self.next(s as u32, a as Symbol);
                if t != NO_STATE {
                    rev[t as usize].push(s as u32);
                }
            }
        }
        let mut live = vec![false; n];
        let mut stack: Vec<u32> = (0..n as u32).filter(|&s| self.finals[s as usize]).collect();
        for &s in &stack {
            live[s as usize] = true;
        }
        while let Some(s) = stack.pop() {
            for &p in &rev[s as usize] {
                if !live[p as usize] {
                    live[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        live
    }

    /// True if `state` is an accepting sink: accepting, and every outgoing
    /// transition loops back to itself. Used by the lazy pruning variant of
    /// the safe-rewriting algorithm (Sec. 7, "Sink nodes").
    pub fn is_accepting_sink(&self, state: u32) -> bool {
        self.finals[state as usize]
            && (0..self.num_symbols).all(|a| self.next(state, a as Symbol) == state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::regex::Regex;

    fn dfa_of(pattern: &str, extra: &[&str]) -> (Dfa, Alphabet) {
        let mut ab = Alphabet::new();
        let re = Regex::parse(pattern, &mut ab).unwrap();
        for e in extra {
            ab.intern(e);
        }
        let nfa = Nfa::thompson(&re, ab.len());
        (Dfa::determinize(&nfa), ab)
    }

    fn word(ab: &Alphabet, w: &str) -> Vec<Symbol> {
        w.split('.')
            .filter(|s| !s.is_empty())
            .map(|s| ab.lookup(s).expect("symbol must be interned"))
            .collect()
    }

    #[test]
    fn determinize_agrees_with_nfa() {
        let (dfa, ab) = dfa_of("title.date.(Get_Temp|temp).(TimeOut|exhibit*)", &[]);
        assert!(dfa.accepts(&word(&ab, "title.date.Get_Temp.TimeOut")));
        assert!(dfa.accepts(&word(&ab, "title.date.temp")));
        assert!(dfa.accepts(&word(&ab, "title.date.temp.exhibit.exhibit")));
        assert!(!dfa.accepts(&word(&ab, "title.date")));
        assert!(!dfa.accepts(&word(&ab, "title.date.temp.TimeOut.TimeOut")));
    }

    #[test]
    fn completion_adds_sink_and_complement_flips() {
        let (dfa, ab) = dfa_of("a.b", &["c"]);
        let complete = dfa.completed(ab.len());
        assert!(complete.is_complete());
        let comp = complete.complemented();
        assert!(!comp.accepts(&word(&ab, "a.b")));
        assert!(comp.accepts(&word(&ab, "a")));
        assert!(comp.accepts(&word(&ab, "a.b.c")));
        assert!(comp.accepts(&[]));
    }

    #[test]
    #[should_panic(expected = "complete")]
    fn complement_requires_complete() {
        let (dfa, _) = dfa_of("a.b", &[]);
        let _ = dfa.complemented();
    }

    #[test]
    fn product_intersection() {
        let (d1, mut ab) = {
            let mut ab = Alphabet::new();
            let re = Regex::parse("a*b", &mut ab).unwrap();
            let nfa = Nfa::thompson(&re, 2);
            (Dfa::determinize(&nfa), ab)
        };
        let re2 = Regex::parse("a.a*.b", &mut ab).unwrap();
        let d2 = Dfa::determinize(&Nfa::thompson(&re2, 2));
        let inter = d1.completed(2).product(&d2.completed(2), |x, y| x && y);
        let a = ab.lookup("a").unwrap();
        let b = ab.lookup("b").unwrap();
        assert!(inter.accepts(&[a, b]));
        assert!(inter.accepts(&[a, a, b]));
        assert!(!inter.accepts(&[b])); // in L1, not L2
    }

    #[test]
    fn emptiness_and_witness() {
        let (dfa, ab) = dfa_of("a.b|a.c", &[]);
        let w = dfa.shortest_accepted().unwrap();
        assert_eq!(w.len(), 2);
        assert!(dfa.accepts(&w));
        // Intersection of disjoint languages is empty.
        let re2 = {
            let mut ab2 = ab.clone();
            Regex::parse("b.a", &mut ab2).unwrap()
        };
        let d2 = Dfa::determinize(&Nfa::thompson(&re2, ab.len()));
        let inter = dfa
            .completed(ab.len())
            .product(&d2.completed(ab.len()), |x, y| x && y);
        assert!(inter.is_empty_language());
    }

    #[test]
    fn emptiness_agrees_with_witness_search() {
        let (dfa, ab) = dfa_of("a.b|a.c", &[]);
        assert_eq!(dfa.is_empty_language(), dfa.shortest_accepted().is_none());
        let comp = dfa.completed(ab.len()).complemented();
        assert_eq!(comp.is_empty_language(), comp.shortest_accepted().is_none());
        // ε in the language: decided before touching the table.
        let (star, _) = dfa_of("a*", &[]);
        assert!(!star.is_empty_language());
        // No accepting state at all: decided without traversal.
        let none = Dfa {
            num_symbols: 1,
            table: vec![0],
            start: 0,
            finals: vec![false],
        };
        assert!(none.is_empty_language());
        assert!(none.shortest_accepted().is_none());
    }

    #[test]
    fn minimization_preserves_language_and_shrinks() {
        let (dfa, ab) = dfa_of("(a|b)*a(a|b)", &[]);
        let complete = dfa.completed(ab.len());
        let min = complete.minimized();
        assert!(min.num_states() <= complete.num_states());
        assert!(min.equivalent(&complete));
        let a = ab.lookup("a").unwrap();
        let b = ab.lookup("b").unwrap();
        assert!(min.accepts(&[a, a]));
        assert!(min.accepts(&[b, a, b]));
        assert!(!min.accepts(&[a]));
    }

    #[test]
    fn subset_relation() {
        let mk = |pattern: &str, ab: &mut Alphabet| {
            let re = Regex::parse(pattern, ab).unwrap();
            Dfa::determinize(&Nfa::thompson(&re, 2))
        };
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        let aa = mk("a.a", &mut ab).completed(2);
        let astar = mk("a*", &mut ab).completed(2);
        let ab_lang = mk("(a|b)*", &mut ab).completed(2);
        assert!(aa.subset_of(&astar));
        assert!(astar.subset_of(&ab_lang));
        assert!(!astar.subset_of(&aa));
        assert!(!ab_lang.subset_of(&astar));
        assert!(astar.subset_of(&astar));
    }

    #[test]
    fn equivalent_detects_difference() {
        let (d1, ab) = dfa_of("a*", &["b"]);
        let (d2, _) = {
            let mut ab2 = Alphabet::new();
            let re = Regex::parse("a.a*", &mut ab2).unwrap();
            ab2.intern("b");
            let nfa = Nfa::thompson(&re, ab2.len());
            (Dfa::determinize(&nfa), ab2)
        };
        let c1 = d1.completed(ab.len());
        let c2 = d2.completed(ab.len());
        assert!(!c1.equivalent(&c2)); // differ on ε
        assert!(c1.equivalent(&c1.minimized()));
    }

    #[test]
    fn accepting_sink_detection() {
        // (a|b)* : after minimization, a single accepting state looping on
        // everything.
        let (dfa, ab) = dfa_of("(a|b)*", &[]);
        let complete = dfa.completed(ab.len()).minimized();
        assert!(complete.is_accepting_sink(complete.start));
        // Complement of a.b has an accepting sink (the error sink).
        let (d2, ab2) = dfa_of("a.b", &[]);
        let comp = d2.completed(ab2.len()).complemented();
        let sink_exists = (0..comp.num_states() as u32).any(|s| comp.is_accepting_sink(s));
        assert!(sink_exists);
    }

    #[test]
    fn coaccessible_marks_live_states() {
        let (dfa, ab) = dfa_of("a.b", &["c"]);
        let complete = dfa.completed(ab.len());
        let live = complete.coaccessible();
        assert!(live[complete.start as usize]);
        // The sink cannot reach acceptance.
        let sink = (0..complete.num_states() as u32)
            .find(|&s| {
                !complete.finals[s as usize]
                    && (0..ab.len()).all(|a| complete.next(s, a as Symbol) == s)
            })
            .unwrap();
        assert!(!live[sink as usize]);
    }
}

impl Dfa {
    /// Renders the automaton in Graphviz DOT format, resolving symbol names
    /// through `alphabet`. Accepting states are drawn as double circles.
    pub fn to_dot(&self, alphabet: &crate::Alphabet, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=circle];");
        for s in 0..self.num_states() as u32 {
            let shape = if self.finals[s as usize] {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(out, "  q{s} [shape={shape}];");
        }
        let _ = writeln!(out, "  start [shape=point];");
        let _ = writeln!(out, "  start -> q{};", self.start);
        // Group parallel edges into one label.
        for s in 0..self.num_states() as u32 {
            let mut by_target: std::collections::BTreeMap<u32, Vec<&str>> =
                std::collections::BTreeMap::new();
            for a in 0..self.num_symbols {
                let t = self.next(s, a as Symbol);
                if t != NO_STATE {
                    by_target
                        .entry(t)
                        .or_default()
                        .push(alphabet.name(a as Symbol));
                }
            }
            for (t, labels) in by_target {
                let _ = writeln!(out, "  q{s} -> q{t} [label=\"{}\"];", labels.join(", "));
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use crate::{Alphabet, Nfa, Regex};

    #[test]
    fn dot_output_is_wellformed() {
        let mut ab = Alphabet::new();
        let re = Regex::parse("a.b*", &mut ab).unwrap();
        let dfa = Dfa::determinize(&Nfa::thompson(&re, ab.len()));
        let dot = dfa.to_dot(&ab, "test");
        assert!(dot.starts_with("digraph test {"));
        assert!(dot.ends_with("}\n"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("label=\"a\""));
        // Parallel symbols grouped on one edge.
        let re2 = Regex::parse("(a|b)", &mut ab).unwrap();
        let d2 = Dfa::determinize(&Nfa::thompson(&re2, ab.len()));
        let dot2 = d2.to_dot(&ab, "t2");
        assert!(dot2.contains("a, b"));
    }
}
