//! The k-depth expansion automaton `A_w^k` (Fig. 3, steps 5–10; Fig. 4).
//!
//! Given the children word `w` of a node, `A_w^k` represents *all* words
//! obtainable from `w` by a k-depth left-to-right rewriting: every invocable
//! function occurrence may either stay (its symbol is read) or be invoked
//! (an arbitrary word of its output type is read instead), and functions
//! appearing in output types may recursively be expanded, up to depth `k`.
//!
//! Each expandable function edge is materialized as a *fork* state with
//! exactly two options (the paper's fork nodes and fork options):
//!
//! ```text
//!        ε          f              (skip: do not invoke)
//!   v ──────▶ m ─────────▶ u
//!             │    ε                (invoke: read an output instance)
//!             └──────▶ [A_{τout(f)} copy] ──ε──▶ u
//! ```
//!
//! States that are not forks are *adversary* states: which output word a
//! service returns is not under the rewriter's control.

use axml_automata::{Glushkov, Symbol};
use axml_schema::Compiled;
use std::fmt;

/// State identifier within an [`Awk`].
pub type StateId = u32;
/// Edge identifier within an [`Awk`].
pub type EdgeId = u32;

/// Processing direction of the one-pass restriction (Sec. 3; footnote 4:
/// "One could choose similarly right-to-left").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Children are processed left to right (the paper's default).
    #[default]
    LeftToRight,
    /// Children are processed right to left.
    RightToLeft,
}

/// What a state represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateKind {
    /// An ordinary state; outgoing edges are adversary choices.
    Regular,
    /// A fork for a function occurrence: exactly two outgoing edges, the
    /// `skip` (labeled) edge and the `invoke` (ε) edge.
    Fork {
        /// The function symbol this fork decides about.
        func: Symbol,
        /// Edge taken when the call is left intensional.
        skip: EdgeId,
        /// ε-edge into the output-type copy taken when the call is invoked.
        invoke: EdgeId,
        /// Expansion depth of this fork (1 = original word occurrence).
        depth: u32,
    },
}

/// An edge: `label = None` is an ε-move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source state.
    pub from: StateId,
    /// Target state.
    pub to: StateId,
    /// Symbol read, or `None` for ε.
    pub label: Option<Symbol>,
}

/// Construction limits for [`Awk::build`].
#[derive(Debug, Clone, Copy)]
pub struct AwkLimits {
    /// Maximum number of states (guards against exponential blow-ups when
    /// `k` is large and output types are wide).
    pub max_states: usize,
}

impl Default for AwkLimits {
    fn default() -> Self {
        AwkLimits {
            max_states: 500_000,
        }
    }
}

/// Error raised when construction limits are exceeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AwkTooLarge {
    /// The limit that was hit.
    pub max_states: usize,
}

impl fmt::Display for AwkTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "A_w^k construction exceeded the state limit ({} states)",
            self.max_states
        )
    }
}

impl std::error::Error for AwkTooLarge {}

/// The expansion automaton.
#[derive(Debug, Clone)]
pub struct Awk {
    /// Alphabet size (the compiled schema's effective alphabet).
    pub num_symbols: usize,
    kinds: Vec<StateKind>,
    edges: Vec<Edge>,
    out: Vec<Vec<EdgeId>>,
    /// Initial state (start of the word).
    pub start: StateId,
    /// Unique final state (end of the word).
    pub finish: StateId,
    /// The expansion depth this automaton was built with.
    pub k: u32,
    /// Processing direction this automaton encodes.
    pub direction: Direction,
}

impl Awk {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.kinds.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of fork states.
    pub fn num_forks(&self) -> usize {
        self.kinds
            .iter()
            .filter(|k| matches!(k, StateKind::Fork { .. }))
            .count()
    }

    /// Kind of `state`.
    pub fn kind(&self, state: StateId) -> StateKind {
        self.kinds[state as usize]
    }

    /// The edge `id`.
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id as usize]
    }

    /// Outgoing edge ids of `state`.
    pub fn out_edges(&self, state: StateId) -> &[EdgeId] {
        &self.out[state as usize]
    }

    /// Reassembles an automaton from its serialized parts (the snapshot
    /// decode path in `axml-store`).
    ///
    /// The `out` adjacency must be passed explicitly — it is *not*
    /// derivable from `edges`, because fork expansion reorders a
    /// state's outgoing list in place and the game builders depend on
    /// that order. Every structural invariant the builder guarantees is
    /// re-checked here, so a corrupted or adversarial snapshot yields
    /// `Err`, never an automaton that can make downstream indexing
    /// panic.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        num_symbols: usize,
        kinds: Vec<StateKind>,
        edges: Vec<Edge>,
        out: Vec<Vec<EdgeId>>,
        start: StateId,
        finish: StateId,
        k: u32,
        direction: Direction,
    ) -> Result<Awk, String> {
        let states = kinds.len();
        if out.len() != states {
            return Err(format!(
                "adjacency covers {} states but {} are declared",
                out.len(),
                states
            ));
        }
        if states == 0 {
            return Err("automaton has no states".to_owned());
        }
        if (start as usize) >= states || (finish as usize) >= states {
            return Err(format!(
                "start {start} or finish {finish} out of range (states: {states})"
            ));
        }
        for (i, e) in edges.iter().enumerate() {
            if (e.from as usize) >= states || (e.to as usize) >= states {
                return Err(format!("edge {i} endpoints out of range"));
            }
            if let Some(sym) = e.label {
                if (sym as usize) >= num_symbols {
                    return Err(format!("edge {i} labeled with unknown symbol {sym}"));
                }
            }
        }
        // Each edge appears exactly once in the adjacency, at its source.
        let mut listed = vec![false; edges.len()];
        for (s, ids) in out.iter().enumerate() {
            for &eid in ids {
                let Some(slot) = listed.get_mut(eid as usize) else {
                    return Err(format!("state {s} lists unknown edge {eid}"));
                };
                if *slot {
                    return Err(format!("edge {eid} listed twice in the adjacency"));
                }
                *slot = true;
                if edges[eid as usize].from != s as StateId {
                    return Err(format!("edge {eid} listed at state {s}, not its source"));
                }
            }
        }
        if let Some(missing) = listed.iter().position(|l| !l) {
            return Err(format!("edge {missing} absent from the adjacency"));
        }
        for (s, kind) in kinds.iter().enumerate() {
            if let StateKind::Fork { skip, invoke, .. } = kind {
                for (role, eid) in [("skip", *skip), ("invoke", *invoke)] {
                    if (eid as usize) >= edges.len() {
                        return Err(format!("fork {s}: {role} edge {eid} out of range"));
                    }
                    if edges[eid as usize].from != s as StateId {
                        return Err(format!("fork {s}: {role} edge {eid} has another source"));
                    }
                }
            }
        }
        Ok(Awk {
            num_symbols,
            kinds,
            edges,
            out,
            start,
            finish,
            k,
            direction,
        })
    }

    fn add_state(&mut self) -> StateId {
        self.kinds.push(StateKind::Regular);
        self.out.push(Vec::new());
        (self.kinds.len() - 1) as StateId
    }

    fn add_edge(&mut self, from: StateId, to: StateId, label: Option<Symbol>) -> EdgeId {
        let id = self.edges.len() as EdgeId;
        self.edges.push(Edge { from, to, label });
        self.out[from as usize].push(id);
        id
    }

    /// Builds `A_w^k` for the word `w` over `compiled`'s effective alphabet.
    ///
    /// Only *invocable* function-like symbols (declared invocable functions,
    /// invocable pattern classes) are expanded; everything else is a plain
    /// letter. The paper's algorithm performs `k` rounds, each expanding the
    /// function edges created by the previous round.
    pub fn build(
        w: &[Symbol],
        compiled: &Compiled,
        k: u32,
        limits: &AwkLimits,
    ) -> Result<Awk, AwkTooLarge> {
        Awk::build_directed(w, compiled, k, limits, Direction::LeftToRight)
    }

    /// Builds the expansion automaton for the given processing
    /// [`Direction`]. For [`Direction::RightToLeft`] the word and every
    /// output type are reversed, so the same left-to-right game machinery
    /// solves the mirrored problem; callers must also reverse the target
    /// language (see [`crate::game::complement_of`] on
    /// `target.reversed()`).
    pub fn build_directed(
        w: &[Symbol],
        compiled: &Compiled,
        k: u32,
        limits: &AwkLimits,
        direction: Direction,
    ) -> Result<Awk, AwkTooLarge> {
        let mut awk = Awk {
            num_symbols: compiled.alphabet().len(),
            kinds: Vec::new(),
            edges: Vec::new(),
            out: Vec::new(),
            start: 0,
            finish: 0,
            k,
            direction,
        };
        let word: Vec<Symbol> = match direction {
            Direction::LeftToRight => w.to_vec(),
            Direction::RightToLeft => w.iter().rev().copied().collect(),
        };
        let w = &word[..];
        awk.start = awk.add_state();
        let mut cur = awk.start;
        // Frontier of function edges eligible for expansion in the next round.
        let mut frontier: Vec<EdgeId> = Vec::new();
        for &sym in w {
            let next = awk.add_state();
            let e = awk.add_edge(cur, next, Some(sym));
            if compiled.invocable(sym) {
                frontier.push(e);
            }
            cur = next;
        }
        awk.finish = cur;

        for depth in 1..=k {
            let mut next_frontier = Vec::new();
            for eid in std::mem::take(&mut frontier) {
                awk.expand_edge(eid, depth, compiled, limits, &mut next_frontier)?;
            }
            frontier = next_frontier;
        }
        Ok(awk)
    }

    /// Expands one function edge into a fork + output-type copy.
    fn expand_edge(
        &mut self,
        eid: EdgeId,
        depth: u32,
        compiled: &Compiled,
        limits: &AwkLimits,
        next_frontier: &mut Vec<EdgeId>,
    ) -> Result<(), AwkTooLarge> {
        let Edge { from, to, label } = self.edges[eid as usize];
        let func = label.expect("function edges are labeled");
        let sig = compiled
            .sig(func)
            .expect("invocable symbols carry signatures");

        // Reroute: from ──ε──▶ fork; fork gets the old edge as its skip.
        let fork = self.add_state();
        // Rewrite the original edge in place to originate from the fork.
        self.edges[eid as usize].from = fork;
        let pos = self.out[from as usize]
            .iter()
            .position(|&e| e == eid)
            .expect("edge listed at its source");
        self.out[from as usize].remove(pos);
        self.out[fork as usize].push(eid);
        self.add_edge(from, fork, None);

        // Instantiate the Glushkov automaton of the output type (reversed
        // when the automaton processes right-to-left).
        let output = match self.direction {
            Direction::LeftToRight => sig.output.clone(),
            Direction::RightToLeft => sig.output.reversed(),
        };
        let g = Glushkov::new(&output, self.num_symbols);
        let nfa = g.to_nfa();
        let base = self.kinds.len() as StateId;
        if self.kinds.len() + nfa.num_states() > limits.max_states {
            return Err(AwkTooLarge {
                max_states: limits.max_states,
            });
        }
        for _ in 0..nfa.num_states() {
            self.add_state();
        }
        for (s, trans) in nfa.trans.iter().enumerate() {
            for &(sym, t) in trans {
                let e = self.add_edge(base + s as StateId, base + t, Some(sym));
                if depth < self.k && compiled.invocable(sym) {
                    next_frontier.push(e);
                }
            }
        }
        let invoke = self.add_edge(fork, base + nfa.start, None);
        for &f in &nfa.finals {
            self.add_edge(base + f, to, None);
        }
        self.kinds[fork as usize] = StateKind::Fork {
            func,
            skip: eid,
            invoke,
            depth,
        };
        Ok(())
    }

    /// All words acceptable by the automaton up to a length bound — test
    /// helper enumerating the rewriting language by BFS.
    pub fn enumerate_words(&self, max_len: usize, max_words: usize) -> Vec<Vec<Symbol>> {
        let mut out = Vec::new();
        // (state, word so far)
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((self.start, Vec::new()));
        let mut guard = 0usize;
        while let Some((s, word)) = queue.pop_front() {
            guard += 1;
            if guard > 200_000 || out.len() >= max_words {
                break;
            }
            if s == self.finish && !out.contains(&word) {
                out.push(word.clone());
            }
            for &eid in self.out_edges(s) {
                let e = self.edge(eid);
                match e.label {
                    None => queue.push_back((e.to, word.clone())),
                    Some(sym) if word.len() < max_len => {
                        let mut w2 = word.clone();
                        w2.push(sym);
                        queue.push_back((e.to, w2));
                    }
                    _ => {}
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_schema::{Compiled, NoOracle, Schema};

    pub(crate) fn paper_compiled() -> Compiled {
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
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap()
    }

    fn word(c: &Compiled, names: &[&str]) -> Vec<Symbol> {
        names
            .iter()
            .map(|n| c.alphabet().lookup(n).expect("declared"))
            .collect()
    }

    #[test]
    fn figure4_structure() {
        // A_w^1 for w = title.date.Get_Temp.TimeOut (Fig. 4): two forks,
        // one for each function occurrence.
        let c = paper_compiled();
        let w = word(&c, &["title", "date", "Get_Temp", "TimeOut"]);
        let awk = Awk::build(&w, &c, 1, &AwkLimits::default()).unwrap();
        assert_eq!(awk.num_forks(), 2);
        // Forks carry the right function symbols.
        let forks: Vec<Symbol> = (0..awk.num_states() as StateId)
            .filter_map(|s| match awk.kind(s) {
                StateKind::Fork { func, .. } => Some(func),
                StateKind::Regular => None,
            })
            .collect();
        assert!(forks.contains(&c.alphabet().lookup("Get_Temp").unwrap()));
        assert!(forks.contains(&c.alphabet().lookup("TimeOut").unwrap()));
    }

    #[test]
    fn language_of_awk1_matches_paper() {
        let c = paper_compiled();
        let w = word(&c, &["title", "date", "Get_Temp", "TimeOut"]);
        let awk = Awk::build(&w, &c, 1, &AwkLimits::default()).unwrap();
        let words = awk.enumerate_words(7, 5_000);
        let has = |names: &[&str]| words.contains(&word(&c, names));
        // Untouched word.
        assert!(has(&["title", "date", "Get_Temp", "TimeOut"]));
        // Invoke Get_Temp only (Fig. 2.b).
        assert!(has(&["title", "date", "temp", "TimeOut"]));
        // Invoke both; TimeOut returns two exhibits.
        assert!(has(&["title", "date", "temp", "exhibit", "exhibit"]));
        // Invoke both; TimeOut returns a performance.
        assert!(has(&["title", "date", "temp", "performance"]));
        // Invoke TimeOut with empty answer.
        assert!(has(&["title", "date", "Get_Temp"]));
        // Words not in the 1-depth rewriting language.
        assert!(!has(&["title", "date"]));
        assert!(!has(&["title", "date", "temp", "temp"]));
    }

    #[test]
    fn depth_limits_expansion() {
        // Get_Exhibits returns Get_Exhibit* (Sec. 3, infinite search space
        // example); each extra k adds one expansion layer.
        let c = Compiled::new(
            Schema::builder()
                .element("r", "Get_Exhibits|exhibit*")
                .element("exhibit", "")
                .function("Get_Exhibits", "", "Get_Exhibit*")
                .function("Get_Exhibit", "", "exhibit")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let w = vec![c.alphabet().lookup("Get_Exhibits").unwrap()];
        let a1 = Awk::build(&w, &c, 1, &AwkLimits::default()).unwrap();
        let a2 = Awk::build(&w, &c, 2, &AwkLimits::default()).unwrap();
        let a3 = Awk::build(&w, &c, 3, &AwkLimits::default()).unwrap();
        assert_eq!(a1.num_forks(), 1); // only Get_Exhibits forked
        assert!(a2.num_forks() > a1.num_forks()); // returned Get_Exhibit forked
        assert!(a3.num_states() >= a2.num_states());
        let exhibit = c.alphabet().lookup("exhibit").unwrap();
        let ge = c.alphabet().lookup("Get_Exhibit").unwrap();
        let w2 = a2.enumerate_words(3, 10_000);
        // Depth 2: Get_Exhibits → Get_Exhibit.Get_Exhibit → invoke one of them.
        assert!(w2.contains(&vec![exhibit, ge]));
        assert!(w2.contains(&vec![exhibit]));
        let w1 = a1.enumerate_words(3, 10_000);
        assert!(!w1.contains(&vec![exhibit])); // needs two levels
    }

    #[test]
    fn non_invocable_functions_not_forked() {
        let c = Compiled::new(
            Schema::builder()
                .element("r", "f|a")
                .data_element("a")
                .non_invocable_function("f", "", "a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let w = vec![c.alphabet().lookup("f").unwrap()];
        let awk = Awk::build(&w, &c, 3, &AwkLimits::default()).unwrap();
        assert_eq!(awk.num_forks(), 0);
        assert_eq!(awk.num_states(), 2);
    }

    #[test]
    fn k_zero_is_just_the_word() {
        let c = paper_compiled();
        let w = word(&c, &["title", "date", "Get_Temp", "TimeOut"]);
        let awk = Awk::build(&w, &c, 0, &AwkLimits::default()).unwrap();
        assert_eq!(awk.num_forks(), 0);
        assert_eq!(awk.num_states(), 5);
        assert_eq!(awk.enumerate_words(5, 100), vec![w]);
    }

    #[test]
    fn state_limit_enforced() {
        let c = Compiled::new(
            Schema::builder()
                .element("r", "f")
                .data_element("a")
                .function("f", "", "f.f|a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let w = vec![c.alphabet().lookup("f").unwrap()];
        let limits = AwkLimits { max_states: 50 };
        assert!(Awk::build(&w, &c, 12, &limits).is_err());
    }
}
