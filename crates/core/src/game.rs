//! The rewriting game: safe (Sec. 4, Fig. 3) and possible (Sec. 5,
//! Fig. 9) rewriting of one children word.
//!
//! Both notions play on the cartesian product of the expansion automaton
//! [`Awk`] with a DFA; only the DFA and the region the solve marks differ.
//!
//! * **Safe.** The DFA is the *complete deterministic complement* `Ā` of
//!   the target `R` (Fig. 3, step 4). The rewriter needs a strategy — a
//!   choice of invoke/skip at every fork — such that every word the
//!   services may produce lands in `R`. The solve marks the nodes from
//!   which the adversary (the services' actual answers) can force a word
//!   of `lang(Ā)`:
//!   * accepting product nodes (word complete, `Ā` accepting) are marked;
//!   * a *regular* node is marked if **some** successor is marked (the
//!     adversary picks the continuation);
//!   * a *fork* node is marked only if **both** its options lead to
//!     marked nodes (the rewriter picks the option).
//!
//!   The rewriter may stand on the unmarked nodes, and a safe rewriting
//!   exists iff the start is unmarked (Fig. 3, step 18). The lazy build
//!   mode implements the Sec. 7 optimization: the product is constructed
//!   on the fly, nodes whose complement state is an accepting *sink* are
//!   marked immediately without exploring their successors, and
//!   exploration is pruned below nodes already known marked (Fig. 12).
//! * **Possible.** The DFA is the (partial) determinized target (Fig. 9,
//!   step 3); product edges dead in it are pruned. A node is *viable* iff
//!   an accepting node is reachable from it (Fig. 9, step 5), and a
//!   rewriting may exist iff the start is viable. Execution is then
//!   opportunistic: follow viable options, invoke when needed, and
//!   backtrack when an answer leaves the viable region (Fig. 9, step 9).
//!
//! Either solve fills one `allowed` set — the unmarked nodes or the
//! viable ones — and every query reads that set, so one executor walks
//! both games. This is the single two-player game of Schuster &
//! Schwentick, *Games for Active XML Revisited*.

use crate::awk::{Awk, EdgeId, StateKind};
use axml_automata::{Dfa, Nfa, Regex, Symbol, NO_STATE};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Product node identifier.
pub type NodeId = u32;

/// Which rewriting notion a game decides and the executor plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Safe rewriting (Sec. 4): succeeds for *every* type-correct service
    /// answer, decided before any call is made; never backtracks.
    Safe,
    /// Possible rewriting (Sec. 5): invokes speculatively and backtracks
    /// when the services' actual answers rule a branch out.
    Possible,
}

impl Strategy {
    /// The DFA this strategy's games are built with, for the target
    /// `target` over `num_symbols` symbols.
    pub fn dfa(self, target: &Regex, num_symbols: usize) -> Dfa {
        match self {
            Strategy::Safe => complement_of(target, num_symbols),
            Strategy::Possible => target_of(target, num_symbols),
        }
    }

    /// The name of the solver metric `name` (the `solver.safe.*` and
    /// `solver.possible.*` catalogue entries).
    fn metric(self, name: &str) -> String {
        match self {
            Strategy::Safe => format!("solver.safe.{name}"),
            Strategy::Possible => format!("solver.possible.{name}"),
        }
    }
}

/// How the product graph of a safe game is constructed. Possible games
/// are always built whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BuildMode {
    /// Build every reachable product node, then mark (Fig. 3 as printed).
    #[default]
    Eager,
    /// Build on the fly with sink/marked pruning (Sec. 7 variant).
    Lazy,
}

/// Construction and marking statistics (used by the Fig. 12 reproduction
/// and the lazy-vs-eager bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GameStats {
    /// Product nodes created.
    pub nodes: usize,
    /// Product edges created.
    pub edges: usize,
    /// Nodes marked by the sink rule without exploring successors.
    pub sink_pruned: usize,
    /// Nodes whose expansion was skipped because they were already marked.
    pub mark_pruned: usize,
}

/// A static decision for one original function occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The function symbol.
    pub func: Symbol,
    /// Whether to invoke (`true`) or keep the call intensional (`false`).
    pub invoke: bool,
}

/// A solved rewriting game over `A_w^k × DFA`.
#[derive(Debug)]
pub struct Game {
    /// The expansion automaton.
    pub awk: Awk,
    /// The DFA of the product: `Ā` for safe games (complete), the target
    /// for possible games (partial: missing transitions are dead).
    pub dfa: Arc<Dfa>,
    /// The notion this game decides.
    pub strategy: Strategy,
    /// Node table: `(awk state, DFA state)` per node id.
    pairs: Vec<(u32, u32)>,
    ids: HashMap<(u32, u32), NodeId>,
    /// Outgoing product edges: `(awk edge, successor node)`.
    out: Vec<Vec<(EdgeId, NodeId)>>,
    /// The nodes the rewriter may stand on: unmarked (safe) or viable
    /// (possible). `allowed[start]` is the verdict.
    allowed: Vec<bool>,
    /// Initial node.
    pub start: NodeId,
    /// Statistics.
    pub stats: GameStats,
}

/// The scratch of one solve: the reverse adjacency, and the region grown
/// backwards from the final nodes — the marked nodes of a safe game, the
/// viable nodes of a possible one — with its worklist.
#[derive(Default)]
struct Region {
    preds: Preds,
    won: Vec<bool>,
    queue: Vec<NodeId>,
}

/// A reverse adjacency as one linked list per node in three flat arrays:
/// a solve builds it edge by edge and frees it whole, without a `Vec`
/// per node (the predecessors come out newest first).
#[derive(Default)]
struct Preds {
    /// Per node, its newest incoming edge.
    head: Vec<u32>,
    /// Per edge, the next older edge into the same node.
    next: Vec<u32>,
    /// Per edge, its source node.
    from: Vec<NodeId>,
}

const NO_EDGE: u32 = u32::MAX;

impl Preds {
    fn add_node(&mut self) {
        self.head.push(NO_EDGE);
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.next.push(self.head[to as usize]);
        self.head[to as usize] = self.from.len() as u32;
        self.from.push(from);
    }

    fn of(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut e = self.head[node as usize];
        std::iter::from_fn(move || {
            let from = *self.from.get(e as usize)?;
            e = self.next[e as usize];
            Some(from)
        })
    }
}

impl Game {
    /// Builds and solves the `strategy` game of `awk` against `dfa`: for
    /// safe games a complete DFA for the complement of the target, for
    /// possible games the determinized target (see [`Strategy::dfa`]);
    /// `mode` shapes the safe build only.
    ///
    /// Construction metrics are published to the [`axml_obs::global`]
    /// registry; use [`Game::solve_in`] to direct them elsewhere.
    pub fn solve(strategy: Strategy, awk: Awk, dfa: impl Into<Arc<Dfa>>, mode: BuildMode) -> Game {
        Self::solve_in(strategy, awk, dfa, mode, &axml_obs::global())
    }

    /// Like [`Game::solve`], but publishes node/edge/prune counts and
    /// solve latency to `metrics` (the `solver.safe.*` or
    /// `solver.possible.*` catalogue entries) instead of the process-wide
    /// registry. `self.stats` carries the same numbers either way.
    pub fn solve_in(
        strategy: Strategy,
        awk: Awk,
        dfa: impl Into<Arc<Dfa>>,
        mode: BuildMode,
        metrics: &axml_obs::Registry,
    ) -> Game {
        let dfa = dfa.into();
        assert_eq!(dfa.num_symbols, awk.num_symbols, "alphabet mismatch");
        assert!(
            strategy == Strategy::Possible || dfa.is_complete(),
            "complement automaton must be complete"
        );
        let started = std::time::Instant::now();
        let mut game = Game {
            awk,
            dfa,
            strategy,
            pairs: Vec::new(),
            ids: HashMap::new(),
            out: Vec::new(),
            allowed: Vec::new(),
            start: 0,
            stats: GameStats::default(),
        };
        let mut region = Region::default();
        game.build(strategy == Strategy::Safe && mode == BuildMode::Lazy, &mut region);
        // The least fixpoint over the built graph, seeded with the final
        // nodes and whatever the lazy build already marked.
        for n in 0..game.pairs.len() as NodeId {
            if region.won[n as usize] || game.is_final(n) {
                region.won[n as usize] = true;
                region.queue.push(n);
            }
        }
        game.spread(&mut region);
        game.allowed = match strategy {
            Strategy::Safe => region.won.iter().map(|&marked| !marked).collect(),
            Strategy::Possible => region.won,
        };
        let stats = game.stats;
        metrics.counter(&strategy.metric("solves_total")).inc();
        metrics
            .counter(&strategy.metric("nodes_total"))
            .add(stats.nodes as u64);
        metrics
            .counter(&strategy.metric("edges_total"))
            .add(stats.edges as u64);
        if strategy == Strategy::Safe {
            metrics
                .counter(&strategy.metric("sink_pruned_total"))
                .add(stats.sink_pruned as u64);
            metrics
                .counter(&strategy.metric("mark_pruned_total"))
                .add(stats.mark_pruned as u64);
        }
        metrics
            .histogram(&strategy.metric("solve_ns"), axml_obs::LATENCY_NS_BOUNDS)
            .observe(started.elapsed().as_nanos() as u64);
        game
    }

    /// Reassembles a solved game from its serialized parts (the
    /// snapshot decode path in `axml-store`).
    ///
    /// The pair-to-node index is derived from `pairs`. Validation guards
    /// *memory safety* — every index must be in range, every pair
    /// unique — not logical correctness of the `allowed` set; that is
    /// the job of the snapshot checksum and the structural cache key. A
    /// game that fails validation is reported as an error, never a
    /// panic.
    #[allow(clippy::too_many_arguments)]
    pub fn from_solved_parts(
        strategy: Strategy,
        awk: Awk,
        dfa: impl Into<Arc<Dfa>>,
        pairs: Vec<(u32, u32)>,
        out: Vec<Vec<(EdgeId, NodeId)>>,
        allowed: Vec<bool>,
        start: NodeId,
        stats: GameStats,
    ) -> Result<Game, String> {
        let dfa = dfa.into();
        if strategy == Strategy::Safe && !dfa.is_complete() {
            return Err("complement automaton is not complete".to_owned());
        }
        if dfa.num_symbols != awk.num_symbols {
            return Err("DFA/expansion alphabet mismatch".to_owned());
        }
        let nodes = pairs.len();
        if out.len() != nodes || allowed.len() != nodes {
            return Err("node table lengths disagree".to_owned());
        }
        if nodes == 0 || (start as usize) >= nodes {
            return Err(format!("start node {start} out of range ({nodes} nodes)"));
        }
        let mut ids = HashMap::with_capacity(nodes);
        for (i, &(s, q)) in pairs.iter().enumerate() {
            if (s as usize) >= awk.num_states() || (q as usize) >= dfa.num_states() {
                return Err(format!("node {i} pair ({s},{q}) out of range"));
            }
            if ids.insert((s, q), i as NodeId).is_some() {
                return Err(format!("pair ({s},{q}) interned twice"));
            }
        }
        for (n, succs) in out.iter().enumerate() {
            for &(eid, m) in succs {
                if (eid as usize) >= awk.num_edges() {
                    return Err(format!("node {n}: product edge {eid} out of range"));
                }
                if (m as usize) >= nodes {
                    return Err(format!("node {n}: successor {m} out of range"));
                }
            }
        }
        Ok(Game {
            awk,
            dfa,
            strategy,
            pairs,
            ids,
            out,
            allowed,
            start,
            stats,
        })
    }

    fn intern(&mut self, pair: (u32, u32), region: &mut Region) -> (NodeId, bool) {
        if let Some(&id) = self.ids.get(&pair) {
            return (id, false);
        }
        let id = self.pairs.len() as NodeId;
        self.ids.insert(pair, id);
        self.pairs.push(pair);
        self.out.push(Vec::new());
        region.preds.add_node();
        region.won.push(false);
        self.stats.nodes += 1;
        (id, true)
    }

    /// Whether `node` is final: the word is complete and the DFA accepts
    /// (a word outside the target for safe games, inside for possible).
    fn is_final(&self, node: NodeId) -> bool {
        let (s, q) = self.pairs[node as usize];
        s == self.awk.finish && self.dfa.finals[q as usize]
    }

    /// Builds the product reachable from the start, depth first. Under
    /// `lazy` (the Sec. 7 build of a safe game) marks found during
    /// construction are propagated at once: a fresh node whose
    /// complement state is an accepting sink, or that is final, is marked
    /// and not explored, and no marked node is expanded.
    fn build(&mut self, lazy: bool, region: &mut Region) {
        let (start, _) = self.intern((self.awk.start, self.dfa.start), region);
        self.start = start;
        if lazy && self.is_final(start) {
            region.won[start as usize] = true;
        }
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            if lazy && region.won[node as usize] {
                self.stats.mark_pruned += 1;
                continue;
            }
            let (s, q) = self.pairs[node as usize];
            for i in 0..self.awk.out_edges(s).len() {
                let eid = self.awk.out_edges(s)[i];
                let edge = self.awk.edge(eid);
                let q2 = match edge.label {
                    None => q,
                    Some(sym) => self.dfa.next(q, sym),
                };
                if q2 == NO_STATE {
                    continue; // dead in the target: pruned
                }
                let (succ, fresh) = self.intern((edge.to, q2), region);
                self.out[node as usize].push((eid, succ));
                region.preds.add_edge(node, succ);
                self.stats.edges += 1;
                if !lazy {
                    if fresh {
                        stack.push(succ);
                    }
                } else if fresh {
                    // Sink rule: complement accepting sink ⇒ every
                    // completion below is bad; mark and do not explore.
                    let sink = self.dfa.is_accepting_sink(q2);
                    if sink || self.is_final(succ) {
                        self.stats.sink_pruned += usize::from(sink);
                        self.join(region, succ);
                    } else {
                        stack.push(succ);
                    }
                } else if region.won[succ as usize]
                    && !region.won[node as usize]
                    && self.joins(&region.won, node)
                {
                    // A known-marked successor newly marks `node`.
                    self.join(region, node);
                }
            }
        }
    }

    /// Whether `node` belongs to the region given its successors'
    /// membership: when some successor does, except that a fork of a
    /// safe game (the rewriter's move) needs both options in it. An
    /// unexplored option counts as outside; it can only join later, and
    /// then spreading re-evaluates `node`.
    fn joins(&self, won: &[bool], node: NodeId) -> bool {
        let succs = &self.out[node as usize];
        let option = |edge: EdgeId| {
            succs
                .iter()
                .filter(|(e, _)| *e == edge)
                .any(|&(_, t)| won[t as usize])
        };
        match (self.strategy, self.awk.kind(self.pairs[node as usize].0)) {
            (Strategy::Safe, StateKind::Fork { skip, invoke, .. }) => option(skip) && option(invoke),
            _ => succs.iter().any(|&(_, t)| won[t as usize]),
        }
    }

    /// Adds `node` to the region and grows the region backwards from it.
    fn join(&self, region: &mut Region, node: NodeId) {
        region.won[node as usize] = true;
        region.queue.push(node);
        self.spread(region);
    }

    /// Grows the region backwards from its queued nodes to the least
    /// fixpoint of [`Game::joins`].
    fn spread(&self, region: &mut Region) {
        while let Some(n) = region.queue.pop() {
            for p in region.preds.of(n) {
                if !region.won[p as usize] && self.joins(&region.won, p) {
                    region.won[p as usize] = true;
                    region.queue.push(p);
                }
            }
        }
    }

    /// True iff the strategy wins: a k-depth left-to-right safe rewriting
    /// exists (Fig. 3, step 18: the initial node is unmarked), or one may
    /// exist (Fig. 9, step 6: the initial node is viable).
    pub fn wins(&self) -> bool {
        self.allowed[self.start as usize]
    }

    /// Whether execution may stand on `node`: unmarked (safe) or viable
    /// (possible).
    pub fn allowed(&self, node: NodeId) -> bool {
        self.allowed[node as usize]
    }

    /// Whether execution may end on `node`: the word is complete on an
    /// allowed node, so it is in the target.
    pub fn terminal(&self, node: NodeId) -> bool {
        self.pairs[node as usize].0 == self.awk.finish && self.allowed[node as usize]
    }

    /// The `(awk state, DFA state)` pair of `node`.
    pub fn pair(&self, node: NodeId) -> (u32, u32) {
        self.pairs[node as usize]
    }

    /// Product successors of `node` as `(awk edge, node)` pairs.
    pub fn successors(&self, node: NodeId) -> &[(EdgeId, NodeId)] {
        &self.out[node as usize]
    }

    /// Number of product nodes.
    pub fn num_nodes(&self) -> usize {
        self.pairs.len()
    }

    /// The product node for an `(awk state, DFA state)` pair, if that
    /// pair was reached during construction (pairs dead in a possible
    /// game's target are pruned). The inverse of [`Game::pair`], for
    /// callers walking the game graph externally (e.g. a strategic
    /// adversary replaying answer choices).
    pub fn node(&self, awk_state: u32, dfa_state: u32) -> Option<NodeId> {
        self.ids.get(&(awk_state, dfa_state)).copied()
    }

    /// The allowed product successor of `node` along awk edge `edge`.
    pub(crate) fn along(&self, node: NodeId, edge: EdgeId) -> Option<NodeId> {
        self.out[node as usize]
            .iter()
            .find(|(e, _)| *e == edge)
            .map(|&(_, t)| t)
            .filter(|&t| self.allowed(t))
    }

    /// The adversary's preferred move from `node`: a successor outside the
    /// allowed region (keeps a safe rewriter losing, traps a possible one
    /// away from every accepting node), if any. Ties break on the lowest
    /// edge id so strategic opponents replay deterministically.
    pub fn adversary_move(&self, node: NodeId) -> Option<(EdgeId, NodeId)> {
        self.out[node as usize]
            .iter()
            .copied()
            .find(|&(_, t)| !self.allowed(t))
            .or_else(|| self.out[node as usize].first().copied())
    }

    /// The static rewriting decisions for the *original* function
    /// occurrences of `w`, in left-to-right order: `true` = invoke.
    ///
    /// Skipping is preferred whenever it stays allowed, which minimizes
    /// the number of invocations (Fig. 3, step 23: each decision is
    /// independent, and not calling is always cheapest). An invoked call
    /// is passed through its output copy along allowed nodes (a
    /// representative service answer).
    ///
    /// Returns `None` when the strategy loses.
    pub fn plan(&self) -> Option<Vec<Decision>> {
        if !self.wins() {
            return None;
        }
        let mut decisions = Vec::new();
        let mut cur = self.start;
        // Walk the spine of the original word on allowed nodes: a safe
        // game's unmarked regular nodes have only unmarked successors and
        // its unmarked forks an unmarked option; a possible game's viable
        // nodes have a viable successor.
        loop {
            let (s, _) = self.pair(cur);
            if s == self.awk.finish {
                break;
            }
            match self.awk.kind(s) {
                StateKind::Fork {
                    func, skip, invoke, ..
                } => {
                    if let Some(t) = self.along(cur, skip) {
                        decisions.push(Decision {
                            func,
                            invoke: false,
                        });
                        cur = t;
                    } else {
                        decisions.push(Decision { func, invoke: true });
                        // Continue through the output copy until it exits
                        // back onto the spine at the skip edge's target.
                        let entry = self.along(cur, invoke)?;
                        cur = self.bfs_allowed_to_awk_state(entry, self.awk.edge(skip).to)?;
                    }
                }
                StateKind::Regular => {
                    // Exactly one spine successor: the next letter of w or
                    // the ε into the next fork.
                    let next = self.out[cur as usize]
                        .iter()
                        .find(|&&(_, t)| self.allowed(t))
                        .map(|&(_, t)| t);
                    match next {
                        Some(t) => cur = t,
                        None => break,
                    }
                }
            }
        }
        Some(decisions)
    }

    /// BFS through allowed product nodes from `from` to the first node
    /// whose awk component is `goal` (hops over an invoked call in the
    /// static plan).
    fn bfs_allowed_to_awk_state(&self, from: NodeId, goal: u32) -> Option<NodeId> {
        let mut seen = vec![false; self.pairs.len()];
        let mut queue = VecDeque::new();
        seen[from as usize] = true;
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            if self.pairs[n as usize].0 == goal {
                return Some(n);
            }
            for &(_, t) in &self.out[n as usize] {
                if !seen[t as usize] && self.allowed(t) {
                    seen[t as usize] = true;
                    queue.push_back(t);
                }
            }
        }
        None
    }

    /// When a safe game is lost, extracts a *doomed trace*: a word the
    /// adversary can force no matter how the rewriter plays, ending
    /// outside the target language. Symbols are the letters read along
    /// the trace (function letters mean the call was left intensional on
    /// that branch).
    ///
    /// Returns `None` when the game is won, and for possible games.
    pub fn counterexample(&self) -> Option<Vec<Symbol>> {
        if self.strategy != Strategy::Safe || self.wins() {
            return None;
        }
        self.doomed_trace().or_else(|| {
            // Lazily built games prune the successors of marked nodes,
            // which can leave no walkable path to a bad completion.
            // Re-solve eagerly: same verdict, full graph.
            let eager = Game::solve(
                Strategy::Safe,
                self.awk.clone(),
                Arc::clone(&self.dfa),
                BuildMode::Eager,
            );
            debug_assert!(!eager.wins());
            eager.doomed_trace()
        })
    }

    fn doomed_trace(&self) -> Option<Vec<Symbol>> {
        // Walk marked nodes only: at regular (adversary) nodes follow any
        // marked successor; at forks both options are marked — follow the
        // skip option so the trace shows the uninvoked call. Every step
        // strictly decreases the BFS distance to a bad accepting node, so
        // compute distances first (backwards, over the reverse adjacency
        // rebuilt here) to guarantee termination.
        let n = self.pairs.len();
        let marked = |v: NodeId| !self.allowed(v);
        let mut preds = Preds::default();
        (0..n).for_each(|_| preds.add_node());
        for (v, succs) in self.out.iter().enumerate() {
            for &(_, t) in succs {
                preds.add_edge(v as NodeId, t);
            }
        }
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for v in 0..n as NodeId {
            if self.is_final(v) && marked(v) {
                dist[v as usize] = 0;
                queue.push_back(v);
            }
        }
        while let Some(v) = queue.pop_front() {
            for p in preds.of(v) {
                if marked(p) && dist[p as usize] == u32::MAX {
                    dist[p as usize] = dist[v as usize] + 1;
                    queue.push_back(p);
                }
            }
        }
        let mut word = Vec::new();
        let mut cur = self.start;
        let mut guard = 0;
        while !self.is_final(cur) {
            guard += 1;
            if guard > 100_000 {
                return None; // defensive: malformed game
            }
            let next = self.out[cur as usize]
                .iter()
                .filter(|&&(_, t)| marked(t) && dist[t as usize] < dist[cur as usize])
                .min_by_key(|&&(_, t)| dist[t as usize])
                .copied()?;
            if let Some(sym) = self.awk.edge(next.0).label {
                word.push(sym);
            }
            cur = next.1;
        }
        Some(word)
    }
}

/// Builds the complete complement DFA `Ā` for a target regex (Fig. 3,
/// step 4) over an alphabet of `num_symbols` symbols.
pub fn complement_of(target: &Regex, num_symbols: usize) -> Dfa {
    let nfa = Nfa::thompson(target, num_symbols);
    Dfa::determinize(&nfa).completed(num_symbols).complemented()
}

/// Builds the (partial, deterministic) target automaton for a regex —
/// Fig. 9 step 3's automaton `A`. For the deterministic content models
/// XML Schema mandates it stays polynomial (Sec. 5).
pub fn target_of(target: &Regex, num_symbols: usize) -> Dfa {
    Dfa::determinize(&Nfa::thompson(target, num_symbols))
}

/// Decides k-depth **right-to-left** safe rewriting (footnote 4 of the
/// paper): the children word is processed from the right, so decisions for
/// right-hand occurrences may not depend on the results of left-hand
/// invocations. Implemented by mirroring: build `A_{wᴿ}^k` with reversed
/// output types and play against the complement of the reversed target.
pub fn safe_exists_rtl(
    w: &[Symbol],
    compiled: &axml_schema::Compiled,
    target: &Regex,
    k: u32,
    limits: &crate::awk::AwkLimits,
) -> Result<bool, crate::awk::AwkTooLarge> {
    let awk = Awk::build_directed(w, compiled, k, limits, crate::awk::Direction::RightToLeft)?;
    let comp = complement_of(&target.reversed(), compiled.alphabet().len());
    Ok(Game::solve(Strategy::Safe, awk, comp, BuildMode::Lazy).wins())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awk::AwkLimits;
    use axml_schema::{Compiled, NoOracle, Schema};

    const FIG2: [&str; 4] = ["title", "date", "Get_Temp", "TimeOut"];
    /// Schema (**): temp must be materialized, TimeOut may stay.
    const STAR2: &str = "title.date.temp.(TimeOut|exhibit*)";
    /// Schema (***): fully extensional newspaper.
    const STAR3: &str = "title.date.temp.exhibit*";

    fn schema(build: impl FnOnce(axml_schema::SchemaBuilder) -> axml_schema::SchemaBuilder) -> Compiled {
        Compiled::new(build(Schema::builder()).build().unwrap(), &NoOracle).unwrap()
    }

    /// The paper's newspaper vocabulary, `Get_Temp` invocable or not.
    fn newspaper(get_temp_invocable: bool) -> Compiled {
        schema(|b| {
            let b = b
                .element("newspaper", "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
                .data_element("title")
                .data_element("date")
                .data_element("temp")
                .data_element("city")
                .element("exhibit", "title.(Get_Date|date)")
                .data_element("performance");
            let b = if get_temp_invocable {
                b.function("Get_Temp", "city", "temp")
            } else {
                b.non_invocable_function("Get_Temp", "city", "temp")
            };
            b.function("TimeOut", "data", "(exhibit|performance)*")
                .function("Get_Date", "title", "date")
        })
    }

    fn word(c: &Compiled, names: &[&str]) -> Vec<Symbol> {
        names
            .iter()
            .map(|n| c.alphabet().lookup(n).unwrap())
            .collect()
    }

    fn regex(c: &Compiled, target: &str) -> Regex {
        let mut ab = c.alphabet().clone();
        let re = Regex::parse(target, &mut ab).unwrap();
        assert_eq!(ab.len(), c.alphabet().len(), "target uses declared symbols");
        re
    }

    fn solve(c: &Compiled, w: &[&str], target: &str, k: u32, strategy: Strategy, mode: BuildMode) -> Game {
        let awk = Awk::build(&word(c, w), c, k, &AwkLimits::default()).unwrap();
        let dfa = strategy.dfa(&regex(c, target), c.alphabet().len());
        Game::solve(strategy, awk, dfa, mode)
    }

    fn safe(c: &Compiled, w: &[&str], target: &str, k: u32) -> Game {
        solve(c, w, target, k, Strategy::Safe, BuildMode::Eager)
    }

    fn possible(c: &Compiled, w: &[&str], target: &str, k: u32) -> Game {
        solve(c, w, target, k, Strategy::Possible, BuildMode::Eager)
    }

    #[test]
    fn figure6_safe_into_star_star() {
        // Figs. 5–6: w = title.date.Get_Temp.TimeOut safely rewrites into
        // title.date.temp.(TimeOut | exhibit*): invoke Get_Temp, keep TimeOut.
        let c = newspaper(true);
        let game = safe(&c, &FIG2, STAR2, 1);
        assert!(game.wins());
        let plan = game.plan().unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].func, c.alphabet().lookup("Get_Temp").unwrap());
        assert!(plan[0].invoke, "Get_Temp needs to be invoked");
        assert_eq!(plan[1].func, c.alphabet().lookup("TimeOut").unwrap());
        assert!(!plan[1].invoke, "TimeOut should not be invoked");
    }

    #[test]
    fn figure8_unsafe_into_star_star_star() {
        // Figs. 7–8: no safe rewriting into title.date.temp.exhibit*
        // because TimeOut may return performance elements.
        let game = safe(&newspaper(true), &FIG2, STAR3, 1);
        assert!(!game.wins());
        assert!(game.plan().is_none());
    }

    #[test]
    fn figure11_possible_into_star_star_star() {
        // Figs. 10–11: the newspaper word possibly rewrites into
        // title.date.temp.exhibit* — both functions must be invoked and
        // TimeOut must happen to return only exhibits.
        let game = possible(&newspaper(true), &FIG2, STAR3, 1);
        assert!(game.wins());
        let plan = game.plan().unwrap();
        assert!(plan.iter().all(|d| d.invoke), "both calls must be invoked");
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn already_conforming_word_is_safe_with_empty_plan_decisions() {
        let game = safe(&newspaper(true), &["title", "date", "temp"], STAR2, 1);
        assert!(game.wins());
        assert_eq!(game.plan().unwrap(), vec![]);
    }

    #[test]
    fn lazy_and_eager_agree_and_lazy_prunes() {
        let c = newspaper(true);
        for (target, expect_safe) in [
            (STAR2, true),
            (STAR3, false),
            ("title.date.(Get_Temp|temp).(TimeOut|exhibit*)", true),
            ("title.date", false),
        ] {
            let eager = safe(&c, &FIG2, target, 1);
            let lazy = solve(&c, &FIG2, target, 1, Strategy::Safe, BuildMode::Lazy);
            assert_eq!(eager.wins(), expect_safe, "eager on {target}");
            assert_eq!(lazy.wins(), expect_safe, "lazy on {target}");
            assert!(
                lazy.stats.nodes <= eager.stats.nodes,
                "lazy must not build more nodes ({} vs {}) on {target}",
                lazy.stats.nodes,
                eager.stats.nodes
            );
        }
    }

    #[test]
    fn figure12_lazy_explores_strictly_fewer_nodes() {
        // The Fig. 6/12 instance: pruning skips the sink regions.
        let c = newspaper(true);
        let eager = safe(&c, &FIG2, STAR2, 1);
        let lazy = solve(&c, &FIG2, STAR2, 1, Strategy::Safe, BuildMode::Lazy);
        assert!(lazy.stats.nodes < eager.stats.nodes);
        assert!(lazy.stats.sink_pruned > 0);
    }

    #[test]
    fn unsafe_when_mandatory_function_not_invocable() {
        // The Fig. 6 instance with Get_Temp not invocable: the target
        // requires temp, so no safe (legal) rewriting exists.
        assert!(!safe(&newspaper(false), &FIG2, STAR2, 1).wins());
    }

    #[test]
    fn depth_matters_for_nested_outputs() {
        // Get_Exhibits returns Get_Exhibit*; flattening to exhibit* requires
        // depth 2 — and even then it is safe only because every returned
        // Get_Exhibit can itself be invoked. Possible rewriting into
        // exhibit.exhibit needs the same depth.
        let c = schema(|b| {
            b.element("r", "Get_Exhibits|exhibit*")
                .element("exhibit", "")
                .function("Get_Exhibits", "", "Get_Exhibit*")
                .function("Get_Exhibit", "", "exhibit")
        });
        let w = ["Get_Exhibits"];
        assert!(!safe(&c, &w, "exhibit*", 1).wins(), "depth 1 cannot flatten nested handles");
        assert!(safe(&c, &w, "exhibit*", 2).wins(), "depth 2 can invoke the returned handles");
        assert!(!possible(&c, &w, "exhibit.exhibit", 1).wins());
        assert!(possible(&c, &w, "exhibit.exhibit", 2).wins());
    }

    #[test]
    fn adversarial_star_outputs_block_safety() {
        // f returns (a|b)*; target a* — unsafe since b may come back.
        // g returns a*; target a* — safe.
        let c = schema(|b| {
            b.element("r", "(f|g|a)*")
                .data_element("a")
                .data_element("b")
                .function("f", "", "(a|b)*")
                .function("g", "", "a*")
        });
        assert!(!safe(&c, &["f"], "a*", 1).wins());
        let gg = safe(&c, &["g"], "a*", 1);
        assert!(gg.wins());
        assert!(gg.plan().unwrap()[0].invoke);
    }

    #[test]
    fn possible_verdicts() {
        let c = newspaper(true);
        // No rewriting can produce two temps.
        let disjoint = possible(&c, &FIG2, "title.date.temp.temp", 1);
        assert!(!disjoint.wins());
        assert!(disjoint.plan().is_none());
        // Safe implies possible.
        for target in [STAR2, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)"] {
            assert!(possible(&c, &FIG2, target, 1).wins(), "{target}");
        }
        // The plan prefers keeping calls: this word already conforms.
        let plan = possible(&c, &FIG2, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)", 1)
            .plan()
            .unwrap();
        assert!(plan.iter().all(|d| !d.invoke), "word already conforms");
    }

    #[test]
    fn counterexamples_are_forced_bad_words() {
        // The Fig. 8 instance, eager and lazy: the counterexample is a word
        // outside title.date.temp.exhibit* that the adversary can force.
        let c = newspaper(true);
        let target = regex(&c, STAR3);
        let nfa = Nfa::thompson(&target, c.alphabet().len());
        for mode in [BuildMode::Eager, BuildMode::Lazy] {
            let game = solve(&c, &FIG2, STAR3, 1, Strategy::Safe, mode);
            assert!(!game.wins());
            let bad = game.counterexample().expect("unsafe games have a trace");
            assert!(!nfa.accepts(&bad), "counterexample must violate the target");
            let awk = Awk::build(&word(&c, &FIG2), &c, 1, &AwkLimits::default()).unwrap();
            assert!(
                awk.enumerate_words(bad.len(), 100_000).contains(&bad),
                "counterexample must be a reachable rewriting outcome: {}",
                c.alphabet().format_word(&bad)
            );
        }
        // Won games and possible games have none.
        assert_eq!(safe(&c, &FIG2, STAR2, 1).counterexample(), None);
        assert_eq!(possible(&c, &FIG2, "title.date.temp.temp", 1).counterexample(), None);
    }

    /// τ_out(f) = a|cc ; τ_out(g) = b, under the content model `model`.
    fn direction_schema(model: &str) -> Compiled {
        schema(|b| {
            b.element("r", model)
                .data_element("a")
                .data_element("b")
                .data_element("cc")
                .function("f", "", "a|cc")
                .function("g", "", "b")
        })
    }

    fn directions(c: &Compiled, w: &[&str], target: &str) -> (bool, bool) {
        let ltr = safe(c, w, target, 1).wins();
        let rtl = safe_exists_rtl(&word(c, w), c, &regex(c, target), 1, &AwkLimits::default()).unwrap();
        (ltr, rtl)
    }

    #[test]
    fn directions_can_disagree() {
        // Target R = a.b | cc.g:
        //  * left-to-right IS safe: invoke f first; if it returns a, invoke
        //    g (a.b ∈ R); if it returns cc, keep g (cc.g ∈ R).
        //  * right-to-left is NOT safe: g must be decided before f's answer
        //    is known, and both choices can be beaten by the adversary.
        let c = direction_schema("a.b|cc.g");
        assert_eq!(directions(&c, &["f", "g"], "a.b|cc.g"), (true, false));
        // The mirror image: R = b.a | g.cc with word g.f — now RTL wins.
        let c = direction_schema("b.a|g.cc");
        assert_eq!(directions(&c, &["g", "f"], "b.a|g.cc"), (false, true));
    }

    #[test]
    fn directions_agree_on_the_paper_instance() {
        let c = newspaper(true);
        for (model, expected) in [(STAR2, true), (STAR3, false)] {
            assert_eq!(directions(&c, &FIG2, model), (expected, expected), "{model}");
        }
    }
}
