//! Document rewriting: the three-stage algorithm of Sec. 4.
//!
//! Given a document `t`, a compiled schema whose content models describe
//! the agreed exchange format, and an [`Invoker`] that executes service
//! calls, the [`Rewriter`]:
//!
//! 1. checks *function parameters* bottom-up (deepest calls first): the
//!    parameters of every call must rewrite into the call's input type,
//!    or the whole rewriting fails;
//! 2. traverses the tree *top-down*, handling one node and its direct
//!    children at a time;
//! 3. rewrites each node's children word by walking the word-level
//!    [`Game`] of the strategy, invoking services as the strategy dictates,
//!    materializing parameters just before each call, validating every
//!    returned forest against the service's declared output type, and
//!    following the returned calls' decisions up to depth `k`.
//!
//! Both strategies run the same passes; a [`Strategy`] only picks the game
//! the word executor walks, from left to right in one loop, on the game's
//! allowed nodes. Possible rewriting (Fig. 9) keeps an explicit stack of
//! choice points and backtracks to the latest one whose invoke branch is
//! still untried; safe rewriting (Fig. 3) never needs one.
//!
//! Returned subtrees are validated but not rewritten further (footnote 5 of
//! the paper: sender and receiver agree on function signatures, so output
//! instances are already instances of the schema).

use crate::awk::{Awk, AwkLimits, EdgeId, StateKind};
use crate::game::{BuildMode, Game};
use crate::invoke::{InvokeError, Invoker};
use crate::solve_cache::{SolveCache, TargetSlot};
use axml_automata::{Regex, Symbol};
use axml_schema::{validate_output_instance, words_of, Compiled, CompiledContent, FuncNode, ITree};
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

pub use crate::game::Strategy;

/// Errors raised by document rewriting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The document uses an element label the schema does not declare.
    UnknownLabel(String),
    /// No safe rewriting exists for the children of some node.
    NotSafe {
        /// The element label (or `τ_in(f)` context) that failed.
        context: String,
        /// The children word, rendered by [`Compiled::show_word`].
        word: String,
    },
    /// No rewriting can possibly succeed for the children of some node.
    NotPossible {
        /// The element label (or `τ_in(f)` context) that failed.
        context: String,
        /// The children word, rendered by [`Compiled::show_word`].
        word: String,
    },
    /// Every viable branch was tried and failed (possible-mode execution).
    Exhausted {
        /// Where the search ran dry.
        context: String,
    },
    /// The configured invocation budget was exceeded.
    CallBudget {
        /// The budget that was exhausted.
        max_calls: usize,
    },
    /// `A_w^k` grew beyond the configured limits.
    TooLarge(String),
    /// A service call failed.
    Invoke(InvokeError),
    /// A service returned data that does not match its declared output type.
    IllTyped {
        /// The function whose answer was ill-typed.
        function: String,
        /// Validation message.
        message: String,
    },
    /// The document is structurally invalid (e.g. text under a non-data
    /// element, data element with element children).
    Invalid(String),
    /// Content models must be deterministic (1-unambiguous) for execution.
    Ambiguous {
        /// Where the ambiguity was hit.
        context: String,
    },
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::UnknownLabel(l) => write!(f, "unknown element label '{l}'"),
            RewriteError::NotSafe { context, word } => {
                write!(f, "no safe rewriting for '{context}' (children: {word})")
            }
            RewriteError::NotPossible { context, word } => {
                write!(
                    f,
                    "no possible rewriting for '{context}' (children: {word})"
                )
            }
            RewriteError::Exhausted { context } => {
                write!(f, "all rewriting branches failed at '{context}'")
            }
            RewriteError::CallBudget { max_calls } => {
                write!(f, "invocation budget of {max_calls} calls exhausted")
            }
            RewriteError::TooLarge(m) => write!(f, "{m}"),
            RewriteError::Invoke(e) => write!(f, "{e}"),
            RewriteError::IllTyped { function, message } => {
                write!(f, "service '{function}' returned ill-typed data: {message}")
            }
            RewriteError::Invalid(m) => write!(f, "invalid document: {m}"),
            RewriteError::Ambiguous { context } => {
                write!(f, "ambiguous content model during execution at '{context}'")
            }
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<InvokeError> for RewriteError {
    fn from(e: InvokeError) -> Self {
        RewriteError::Invoke(e)
    }
}

/// Outcome statistics of an executed rewriting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteReport {
    /// Functions invoked, in call order.
    pub invoked: Vec<String>,
    /// Calls whose results were discarded by backtracking (possible mode).
    pub wasted_calls: usize,
    /// Word-level games solved.
    pub games: usize,
}

/// Static analysis result (no calls executed).
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Word-level games solved.
    pub games: usize,
    /// Total product nodes across all games.
    pub product_nodes: usize,
}

/// The document rewriter. Compiled DFAs and solved games flow through a
/// [`SolveCache`] — shared via [`Rewriter::with_cache`], else a private
/// one built when the rewriter first needs it — so reuse one instance (or
/// one cache) when processing many documents against the same schema.
pub struct Rewriter<'c> {
    compiled: &'c Compiled,
    /// Rewriting depth bound (Def. 7). Default 2.
    pub k: u32,
    /// `A_w^k` construction limits.
    pub limits: AwkLimits,
    /// Optional cap on total service invocations per rewriting run
    /// (possible-mode backtracking can otherwise spend unbounded calls;
    /// the Sec. 2 cost discussion motivates bounding it).
    pub max_calls: Option<usize>,
    cache: OnceLock<SolveCache>,
}

impl Strategy {
    /// The error for a word whose game this strategy loses.
    fn refusal(self, context: &str, word: String) -> RewriteError {
        let context = context.to_owned();
        match self {
            Strategy::Safe => RewriteError::NotSafe { context, word },
            Strategy::Possible => RewriteError::NotPossible { context, word },
        }
    }

    /// Whether execution may retry choices (Fig. 9's backtracking).
    fn backtracks(self) -> bool {
        self == Strategy::Possible
    }
}

/// The executor's moves on a solved game. Games come out of the
/// [`SolveCache`] behind `Arc`s: solved games are immutable, so
/// concurrent executors walk one shared instance.
impl Game {
    /// Follows the labeled edge for `sym` from `cur`; `None` means the step
    /// is impossible (dead branch). Two distinct labeled successors mean the
    /// content model was ambiguous — an execution error.
    fn step(&self, cur: u32, sym: Symbol, context: &str) -> Result<Option<u32>, RewriteError> {
        let mut found: Option<u32> = None;
        for &(eid, t) in self.successors(cur) {
            if self.awk.edge(eid).label == Some(sym) && self.allowed(t) {
                match found {
                    Some(prev) if prev != t => return Err(ambiguous(context)),
                    _ => found = Some(t),
                }
            }
        }
        Ok(found)
    }

    /// Finds the fork deciding about symbol `sym` one ε-step away from
    /// `cur`, returning `(fork product node, skip edge, invoke edge)`.
    fn fork(
        &self,
        cur: u32,
        sym: Symbol,
        context: &str,
    ) -> Result<Option<(u32, EdgeId, EdgeId)>, RewriteError> {
        let mut found = None;
        for &(eid, t) in self.successors(cur) {
            if self.awk.edge(eid).label.is_some() {
                continue;
            }
            if let StateKind::Fork {
                func, skip, invoke, ..
            } = self.awk.kind(self.pair(t).0)
            {
                if func == sym {
                    if found.is_some() {
                        return Err(ambiguous(context));
                    }
                    found = Some((t, skip, invoke));
                }
            }
        }
        Ok(found)
    }

    /// ε-step from `cur` to the product node at awk state `goal` (leaving
    /// an output copy).
    fn step_eps_to(&self, cur: u32, goal: u32) -> Option<u32> {
        self.successors(cur)
            .iter()
            .find(|&&(eid, t)| {
                self.awk.edge(eid).label.is_none() && self.pair(t).0 == goal && self.allowed(t)
            })
            .map(|&(_, t)| t)
    }
}

fn ambiguous(context: &str) -> RewriteError {
    RewriteError::Ambiguous {
        context: context.to_owned(),
    }
}

/// Where an item of the word executor lives.
#[derive(Debug, Clone, Copy)]
enum Loc {
    /// The given index of the forest being rewritten. These items come
    /// from the document: elements are rewritten recursively and calls
    /// get their parameters materialized.
    Word(usize),
    /// Item `.1` of spliced answer `.0`. Answers are validated and kept
    /// as they are.
    Answer(usize, usize),
}

/// A service answer spliced in front of the pending items: it is consumed
/// from item `next` on, then execution leaves the copy at awk state
/// `exit`, the state the call's skip edge reaches.
#[derive(Debug, Clone, Copy)]
struct Splice {
    answer: usize,
    next: usize,
    exit: u32,
}

/// What the word executor consumes next: the forest from index `pos` on,
/// preceded by the spliced answers (innermost last). Splices nest at most
/// `k` deep.
#[derive(Debug, Clone, Default)]
struct Pending {
    pos: usize,
    splices: Vec<Splice>,
}

/// A Fig. 9 choice point. Possible rewriting pushes one at every fork it
/// passes. When a branch dies, every call made since the deepest choice
/// point popped on the way back was pushed is wasted: the report's count
/// becomes the tally recorded there plus those calls, so a call discarded
/// by several backtracks counts once.
struct Choice {
    tally: Tally,
    /// The invoke branch, still untried: set when the executor took the
    /// skip branch and could invoke instead.
    retry: Option<Retry>,
}

/// The report's counts when a fork was reached.
#[derive(Clone, Copy)]
struct Tally {
    /// `invoked.len()`.
    calls: usize,
    /// `wasted_calls`: the wasted calls among those `calls`.
    wasted: usize,
}

/// How to resume at a fork on its invoke branch.
struct Retry {
    /// Output length at the fork.
    out_len: usize,
    /// Answers spliced at the fork.
    answers: usize,
    /// The pending items just after the call.
    pending: Pending,
    /// The call itself.
    call: Loc,
    /// The product node the invoke edge leads to.
    entry: u32,
    /// The awk state the skip edge reaches.
    exit: u32,
}

/// The state of one word execution: what is left to consume, where the
/// walk stands, and what it has produced.
struct Run<'w> {
    word: &'w [ITree],
    answers: Vec<Vec<ITree>>,
    pending: Pending,
    cur: u32,
    out: Vec<ITree>,
    choices: Vec<Choice>,
}

/// The next step of a [`Run`].
enum Next {
    /// Consume the item at this location.
    Item(Loc),
    /// Leave a fully consumed answer copy at this awk state.
    Exit(u32),
    /// Everything is consumed.
    End,
}

impl<'w> Run<'w> {
    /// Pops the next step off the pending items.
    fn advance(&mut self) -> Next {
        match self.pending.splices.last_mut() {
            Some(s) if s.next == self.answers[s.answer].len() => {
                let exit = s.exit;
                self.pending.splices.pop();
                Next::Exit(exit)
            }
            Some(s) => {
                s.next += 1;
                Next::Item(Loc::Answer(s.answer, s.next - 1))
            }
            None if self.pending.pos == self.word.len() => Next::End,
            None => {
                self.pending.pos += 1;
                Next::Item(Loc::Word(self.pending.pos - 1))
            }
        }
    }

    /// The item at `loc`, and whether it comes from the document.
    fn item(&self, loc: Loc) -> (&ITree, bool) {
        match loc {
            Loc::Word(i) => (&self.word[i], true),
            Loc::Answer(a, i) => (&self.answers[a][i], false),
        }
    }

    /// Moves to `next`; `false` when there is nowhere to go.
    fn goto(&mut self, next: Option<u32>) -> bool {
        if let Some(n) = next {
            self.cur = n;
        }
        next.is_some()
    }

    /// Emits `item` and moves to `next`.
    fn emit(&mut self, item: ITree, next: u32) -> bool {
        self.out.push(item);
        self.cur = next;
        true
    }
}

impl<'c> Rewriter<'c> {
    /// Creates a rewriter with depth bound `k = 2`, lazy game building,
    /// and a private (unpublished) solve cache, built only if the
    /// rewriter is used without [`Rewriter::with_cache`].
    pub fn new(compiled: &'c Compiled) -> Self {
        Rewriter {
            compiled,
            k: 2,
            limits: AwkLimits::default(),
            max_calls: None,
            cache: OnceLock::new(),
        }
    }

    /// Caps the number of service invocations per rewriting run.
    pub fn with_max_calls(mut self, max: usize) -> Self {
        self.max_calls = Some(max);
        self
    }

    /// Shares a solve cache: compiled DFAs and solved games are looked
    /// up in (and inserted into) `cache` instead of this rewriter's
    /// private one. Hand every rewriter of a long-running peer the same
    /// cache and request N+1 skips the Thompson/determinize/product/
    /// fixpoint pipeline entirely on repeated words.
    pub fn with_cache(mut self, cache: &SolveCache) -> Self {
        self.cache = OnceLock::from(cache.clone());
        self
    }

    /// The solve cache this rewriter reads and writes.
    pub fn cache(&self) -> &SolveCache {
        self.cache
            .get_or_init(|| SolveCache::unpublished(crate::solve_cache::DEFAULT_CAPACITY))
    }

    /// Sets the depth bound (Def. 7).
    pub fn with_k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// The compiled schema this rewriter targets.
    pub fn compiled(&self) -> &'c Compiled {
        self.compiled
    }

    // ------------------------------------------------------------------
    // Public entry points
    // ------------------------------------------------------------------

    /// Static safety analysis: does `tree` safely rewrite into the schema?
    /// No service is invoked. Returns per-run statistics on success.
    pub fn analyze_safe(&mut self, tree: &ITree) -> Result<Analysis, RewriteError> {
        self.analyze(tree, Strategy::Safe)
    }

    /// Static possible-rewriting analysis: might `tree` rewrite into the
    /// schema for *some* service answers? No service is invoked.
    pub fn analyze_possible(&mut self, tree: &ITree) -> Result<Analysis, RewriteError> {
        self.analyze(tree, Strategy::Possible)
    }

    /// The smallest depth `k ≤ max_k` at which `tree` safely rewrites into
    /// the schema, or `None` if even `max_k` is not enough.
    ///
    /// Useful for budgeting: the paper's complexity is exponential in `k`,
    /// so callers want the smallest sufficient depth (Def. 7).
    pub fn minimal_safe_k(&mut self, tree: &ITree, max_k: u32) -> Option<u32> {
        let saved = self.k;
        let mut found = None;
        for k in 0..=max_k {
            self.k = k;
            if self.analyze_safe(tree).is_ok() {
                found = Some(k);
                break;
            }
        }
        self.k = saved;
        found
    }

    /// Executes a safe rewriting of `tree` against `invoker`.
    ///
    /// Fails with [`RewriteError::NotSafe`] *before any call is made* if no
    /// safe rewriting exists (the guarantee of Sec. 4).
    pub fn rewrite_safe(
        &mut self,
        tree: &ITree,
        invoker: &mut dyn Invoker,
    ) -> Result<(ITree, RewriteReport), RewriteError> {
        self.rewrite(tree, Strategy::Safe, invoker)
    }

    /// Executes a *possible* rewriting: may invoke calls speculatively and
    /// backtrack; fails with [`RewriteError::Exhausted`] if the services'
    /// actual answers rule every viable branch out.
    pub fn rewrite_possible(
        &mut self,
        tree: &ITree,
        invoker: &mut dyn Invoker,
    ) -> Result<(ITree, RewriteReport), RewriteError> {
        self.rewrite(tree, Strategy::Possible, invoker)
    }

    /// Validate-or-rewrite, the Schema Enforcement module's (i)/(ii)/(iii)
    /// steps in Sec. 7: `tree` itself when it already conforms, otherwise
    /// its rewriting under `strategy`.
    pub(crate) fn enforce<'t>(
        &mut self,
        tree: &'t ITree,
        strategy: Strategy,
        invoker: &mut dyn Invoker,
    ) -> Result<(Cow<'t, ITree>, RewriteReport), RewriteError> {
        if axml_schema::validate(tree, self.compiled).is_ok() {
            return Ok((Cow::Borrowed(tree), RewriteReport::default()));
        }
        let (out, report) = self.rewrite(tree, strategy, invoker)?;
        Ok((Cow::Owned(out), report))
    }

    /// Stages 1–3 for a whole document.
    fn rewrite(
        &self,
        tree: &ITree,
        strategy: Strategy,
        invoker: &mut dyn Invoker,
    ) -> Result<(ITree, RewriteReport), RewriteError> {
        // Stage 1 (analysis only): every call's parameters must be
        // rewritable, bottom-up.
        self.analyze_params(tree, strategy, &mut Analysis::default())?;
        let mut report = RewriteReport::default();
        let out = self.rewrite_node(tree, strategy, invoker, &mut report)?;
        Ok((out, report))
    }

    // ------------------------------------------------------------------
    // Stages 1–2 without execution
    // ------------------------------------------------------------------

    fn analyze(&self, tree: &ITree, strategy: Strategy) -> Result<Analysis, RewriteError> {
        let mut analysis = Analysis::default();
        self.analyze_params(tree, strategy, &mut analysis)?;
        self.analyze_node(tree, strategy, &mut analysis)?;
        Ok(analysis)
    }

    /// Stage 1: the parameters of every call, bottom-up.
    fn analyze_params(
        &self,
        tree: &ITree,
        strategy: Strategy,
        analysis: &mut Analysis,
    ) -> Result<(), RewriteError> {
        for c in tree.children() {
            self.analyze_params(c, strategy, analysis)?;
        }
        if let ITree::Func(f) = tree {
            let slot = TargetSlot::Input(self.compiled.classify_func(&f.name));
            let word = self.word_of(&f.params);
            let game = self.solve(strategy, &word, slot, &format!("τ_in({})", f.name))?;
            analysis.count(&game);
        }
        Ok(())
    }

    /// Stage 2: every element's children word, top-down.
    fn analyze_node(
        &self,
        tree: &ITree,
        strategy: Strategy,
        analysis: &mut Analysis,
    ) -> Result<(), RewriteError> {
        // Text needs nothing; a call's parameters are stage 1's.
        let ITree::Elem { label, children } = tree else {
            return Ok(());
        };
        let Some(slot) = self.model_slot(label, children)? else {
            return Ok(());
        };
        let game = self.solve(strategy, &self.word_of(children), slot, label)?;
        analysis.count(&game);
        for c in children {
            self.analyze_node(c, strategy, analysis)?;
        }
        Ok(())
    }

    /// The target slot of an element whose children must play a game, or
    /// `None` when its content is `Any` or valid data.
    fn model_slot(
        &self,
        label: &str,
        children: &[ITree],
    ) -> Result<Option<TargetSlot>, RewriteError> {
        let sym = self.compiled.classify_label(label);
        match self.compiled.content(sym) {
            None => Err(RewriteError::UnknownLabel(label.to_owned())),
            Some(CompiledContent::Any) => Ok(None),
            Some(CompiledContent::Data) => {
                if children.iter().all(|c| matches!(c, ITree::Text(_))) {
                    Ok(None)
                } else {
                    Err(RewriteError::Invalid(format!(
                        "'{label}' is atomic but has non-text children"
                    )))
                }
            }
            Some(CompiledContent::Model { .. }) => Ok(Some(TargetSlot::Content(sym))),
        }
    }

    // ------------------------------------------------------------------
    // Stages 2+3: top-down traversal with execution
    // ------------------------------------------------------------------

    fn rewrite_node(
        &self,
        tree: &ITree,
        strategy: Strategy,
        invoker: &mut dyn Invoker,
        report: &mut RewriteReport,
    ) -> Result<ITree, RewriteError> {
        match tree {
            ITree::Text(_) => Ok(tree.clone()),
            // A function root: materialize its parameters so the node is
            // an instance of its input type; the call itself stays.
            ITree::Func(f) => self.keep_call(f, true, strategy, invoker, report),
            ITree::Elem { label, children } => match self.model_slot(label, children)? {
                None => Ok(tree.clone()),
                Some(slot) => {
                    let children =
                        self.rewrite_word(children, slot, label, strategy, invoker, report)?;
                    Ok(ITree::elem(label, children))
                }
            },
        }
    }

    /// Materializes the parameters of `f` to fit its input type.
    fn rewrite_params(
        &self,
        f: &FuncNode,
        strategy: Strategy,
        invoker: &mut dyn Invoker,
        report: &mut RewriteReport,
    ) -> Result<Vec<ITree>, RewriteError> {
        let slot = TargetSlot::Input(self.compiled.classify_func(&f.name));
        let context = format!("τ_in({})", f.name);
        self.rewrite_word(&f.params, slot, &context, strategy, invoker, report)
    }

    /// Rewrites the forest `items` into the target of `slot`: solves the
    /// strategy's game for its word, then executes it.
    fn rewrite_word(
        &self,
        items: &[ITree],
        slot: TargetSlot,
        context: &str,
        strategy: Strategy,
        invoker: &mut dyn Invoker,
        report: &mut RewriteReport,
    ) -> Result<Vec<ITree>, RewriteError> {
        let game = self.solve(strategy, &self.word_of(items), slot, context)?;
        report.games += 1;
        self.exec(&game, items, game.start, invoker, report, context)
    }

    // ------------------------------------------------------------------
    // The word executor (shared by safe and possible strategies)
    // ------------------------------------------------------------------

    /// Consumes `items` from product node `start`, returning the produced
    /// children. Output is appended in consumption order. A dead branch
    /// backtracks to the latest choice point with an untried invoke branch
    /// (possible mode only — in safe mode the preferred choice is
    /// guaranteed to succeed, so no choice point is ever pushed).
    fn exec(
        &self,
        game: &Game,
        items: &[ITree],
        start: u32,
        invoker: &mut dyn Invoker,
        report: &mut RewriteReport,
        context: &str,
    ) -> Result<Vec<ITree>, RewriteError> {
        let mut run = Run {
            word: items,
            answers: Vec::new(),
            pending: Pending::default(),
            cur: start,
            out: Vec::with_capacity(items.len()),
            choices: Vec::new(),
        };
        loop {
            let alive = match run.advance() {
                Next::End if game.terminal(run.cur) => return Ok(run.out),
                Next::End => false,
                Next::Exit(state) => run.goto(game.step_eps_to(run.cur, state)),
                Next::Item(loc) => self.consume(game, &mut run, loc, invoker, report, context)?,
            };
            if !alive && !self.backtrack(game, &mut run, invoker, report)? {
                return Err(exhausted(context));
            }
        }
    }

    /// Consumes the item at `loc`; `false` when the branch dies on it.
    fn consume(
        &self,
        game: &Game,
        run: &mut Run<'_>,
        loc: Loc,
        invoker: &mut dyn Invoker,
        report: &mut RewriteReport,
        context: &str,
    ) -> Result<bool, RewriteError> {
        let strategy = game.strategy;
        let (item, original) = run.item(loc);
        let f = match item {
            ITree::Text(_) => {
                let Some(next) = game.step(run.cur, self.compiled.data_sym(), context)? else {
                    return Ok(false);
                };
                let item = item.clone();
                return Ok(run.emit(item, next));
            }
            ITree::Elem { label, .. } => {
                let sym = self.compiled.classify_label(label);
                let Some(next) = game.step(run.cur, sym, context)? else {
                    return Ok(false);
                };
                let item = if original {
                    self.rewrite_node(item, strategy, invoker, report)?
                } else {
                    item.clone()
                };
                return Ok(run.emit(item, next));
            }
            ITree::Func(f) => f,
        };
        let sym = self.compiled.classify_func(&f.name);
        // Locate the fork for this occurrence, if the edge was expanded;
        // otherwise it is a plain letter (non-invocable or beyond depth k)
        // and the call must stay.
        let Some((fork, skip_edge, invoke_edge)) = game.fork(run.cur, sym, context)? else {
            let Some(next) = game.step(run.cur, sym, context)? else {
                return Ok(false);
            };
            let kept = self.keep_call(f, original, strategy, invoker, report)?;
            return Ok(run.emit(kept, next));
        };
        // Option order: keeping the call is free, invoking costs a call —
        // try keep first (minimal-cost policy of Fig. 3 step 23).
        let tally = Tally {
            calls: report.invoked.len(),
            wasted: report.wasted_calls,
        };
        let exit = game.awk.edge(skip_edge).to;
        let invoke = game.along(fork, invoke_edge);
        if let Some(next) = game.along(fork, skip_edge) {
            let kept = self.keep_call(f, original, strategy, invoker, report)?;
            if strategy.backtracks() {
                let retry = invoke.map(|entry| Retry {
                    out_len: run.out.len(),
                    answers: run.answers.len(),
                    pending: run.pending.clone(),
                    call: loc,
                    entry,
                    exit,
                });
                run.choices.push(Choice { tally, retry });
            }
            return Ok(run.emit(kept, next));
        }
        let Some(entry) = invoke else {
            return Ok(false);
        };
        self.invoke(game, run, loc, entry, exit, tally, invoker, report)?;
        Ok(true)
    }

    /// Takes the invoke branch of the fork on the call at `loc`:
    /// materializes its parameters (document calls; returned calls carry
    /// validated ones), invokes it, validates the answer and splices it in
    /// front of the pending items, to be left at awk state `exit`.
    #[allow(clippy::too_many_arguments)]
    fn invoke(
        &self,
        game: &Game,
        run: &mut Run<'_>,
        loc: Loc,
        entry: u32,
        exit: u32,
        tally: Tally,
        invoker: &mut dyn Invoker,
        report: &mut RewriteReport,
    ) -> Result<(), RewriteError> {
        if game.strategy.backtracks() {
            run.choices.push(Choice { tally, retry: None });
        }
        let (ITree::Func(f), original) = run.item(loc) else {
            unreachable!("forks are taken on calls only");
        };
        let params = if original {
            self.rewrite_params(f, game.strategy, invoker, report)?
        } else {
            f.params.clone()
        };
        if let Some(max) = self.max_calls {
            if report.invoked.len() >= max {
                return Err(RewriteError::CallBudget { max_calls: max });
            }
        }
        let result = invoker.invoke(&f.name, &params)?;
        report.invoked.push(f.name.clone());
        let sig = self
            .compiled
            .sig(self.compiled.classify_func(&f.name))
            .expect("function symbols carry signatures");
        validate_output_instance(&result, &sig.output_dfa, self.compiled).map_err(|e| {
            RewriteError::IllTyped {
                function: f.name.clone(),
                message: e.to_string(),
            }
        })?;
        run.answers.push(result);
        run.pending.splices.push(Splice {
            answer: run.answers.len() - 1,
            next: 0,
            exit,
        });
        run.cur = entry;
        Ok(())
    }

    /// Backtracks after a dead branch (Fig. 9): pops choice points until
    /// one still has its invoke branch, and takes that branch. Every call
    /// made since the last popped choice point was pushed is discarded,
    /// so the wasted count becomes its tally plus those calls. `false`
    /// when the stack runs dry.
    fn backtrack(
        &self,
        game: &Game,
        run: &mut Run<'_>,
        invoker: &mut dyn Invoker,
        report: &mut RewriteReport,
    ) -> Result<bool, RewriteError> {
        while let Some(choice) = run.choices.pop() {
            report.wasted_calls = choice.tally.wasted + report.invoked.len() - choice.tally.calls;
            if let Some(retry) = choice.retry {
                run.out.truncate(retry.out_len);
                run.answers.truncate(retry.answers);
                run.pending = retry.pending;
                let (call, entry, exit) = (retry.call, retry.entry, retry.exit);
                self.invoke(game, run, call, entry, exit, choice.tally, invoker, report)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// A kept call: original calls get their parameters materialized so the
    /// node conforms to its input type; returned calls are already valid.
    fn keep_call(
        &self,
        f: &FuncNode,
        original: bool,
        strategy: Strategy,
        invoker: &mut dyn Invoker,
        report: &mut RewriteReport,
    ) -> Result<ITree, RewriteError> {
        if !original {
            return Ok(ITree::Func(f.clone()));
        }
        Ok(ITree::Func(FuncNode {
            name: f.name.clone(),
            endpoint: f.endpoint.clone(),
            namespace: f.namespace.clone(),
            params: self.rewrite_params(f, strategy, invoker, report)?,
        }))
    }

    // ------------------------------------------------------------------
    // Game construction and caches
    // ------------------------------------------------------------------

    fn word_of(&self, items: &[ITree]) -> Vec<Symbol> {
        words_of(items, self.compiled).expect("words_of is total")
    }

    /// The regex a target slot names.
    fn target(&self, slot: TargetSlot) -> &'c Regex {
        let compiled = self.compiled;
        let sig = |sym| {
            compiled
                .sig(sym)
                .expect("function symbols carry signatures")
        };
        match slot {
            TargetSlot::Content(sym) => match compiled.content(sym) {
                Some(CompiledContent::Model { regex, .. }) => regex,
                _ => unreachable!("content slots name model elements"),
            },
            TargetSlot::Input(sym) => &sig(sym).input,
            TargetSlot::Output(sym) => &sig(sym).output,
        }
    }

    /// The strategy's solved game for `word` against the target of
    /// `slot`, from the cache when it holds one; the strategy's refusal
    /// when the game is lost.
    fn solve(
        &self,
        strategy: Strategy,
        word: &[Symbol],
        slot: TargetSlot,
        context: &str,
    ) -> Result<Arc<Game>, RewriteError> {
        let schema = self.compiled.fingerprint();
        let n = self.compiled.alphabet().len();
        let (k, limits, cache) = (self.k, self.limits, self.cache());
        let game = cache.game(strategy, schema, slot, word, k, limits.max_states, || {
            let awk = Awk::build(word, self.compiled, k, &limits)
                .map_err(|e| RewriteError::TooLarge(e.to_string()))?;
            let dfa = cache.dfa(strategy, schema, slot, || strategy.dfa(self.target(slot), n));
            Ok::<_, RewriteError>(Game::solve(strategy, awk, dfa, BuildMode::Lazy))
        })?;
        if !game.wins() {
            return Err(strategy.refusal(context, self.compiled.show_word(word)));
        }
        Ok(game)
    }
}

impl Analysis {
    fn count(&mut self, game: &Game) {
        self.games += 1;
        self.product_nodes += game.num_nodes();
    }
}

fn exhausted(context: &str) -> RewriteError {
    RewriteError::Exhausted {
        context: context.to_owned(),
    }
}

/// Convenience: validate-or-rewrite used by the peer's Schema Enforcement
/// module — returns `tree` unchanged when it already conforms, otherwise
/// attempts a safe rewriting (the module's (i)/(ii)/(iii) steps in Sec. 7).
/// A rewriting solves through a private cache, built only if a game is
/// solved; [`enforce_with`] shares one across calls.
pub fn enforce(
    compiled: &Compiled,
    tree: &ITree,
    k: u32,
    invoker: &mut dyn Invoker,
) -> Result<(ITree, RewriteReport), RewriteError> {
    let (out, report) = Rewriter::new(compiled)
        .with_k(k)
        .enforce(tree, Strategy::Safe, invoker)?;
    Ok((out.into_owned(), report))
}

/// [`enforce`] under either notion, through a shared [`SolveCache`]:
/// returns `tree` unchanged when it already conforms, otherwise runs a
/// safe or possible rewriting (the latter may invoke speculatively and
/// backtrack).
pub fn enforce_with(
    compiled: &Compiled,
    tree: &ITree,
    k: u32,
    strategy: Strategy,
    cache: &SolveCache,
    invoker: &mut dyn Invoker,
) -> Result<(ITree, RewriteReport), RewriteError> {
    let (out, report) = Rewriter::new(compiled)
        .with_k(k)
        .with_cache(cache)
        .enforce(tree, strategy, invoker)?;
    Ok((out.into_owned(), report))
}

/// The side of a function's signature a bare forest is enforced against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Call parameters, against `τ_in(f)`.
    Input,
    /// A service's result, against `τ_out(f)`.
    Output,
}

/// Validate-or-rewrite for a bare forest: the Schema Enforcement module's
/// (i)/(ii)/(iii) steps in Sec. 7 on the parameters a caller sends
/// ([`Side::Input`]) or the result a declared service returns
/// ([`Side::Output`]). Returns `forest` itself when it conforms to that
/// side of `function`'s signature, checked without a rewriter or a cache
/// lookup; otherwise its safe rewriting, solved through `cache`.
pub fn enforce_forest<'t>(
    compiled: &Compiled,
    function: &str,
    side: Side,
    forest: &'t [ITree],
    k: u32,
    cache: &SolveCache,
    invoker: &mut dyn Invoker,
) -> Result<Cow<'t, [ITree]>, RewriteError> {
    let sym = compiled.classify_func(function);
    let sig = compiled
        .sig(sym)
        .expect("function symbols carry signatures");
    let (dfa, slot, context) = match side {
        Side::Input => (&sig.input_dfa, TargetSlot::Input(sym), "τ_in"),
        Side::Output => (&sig.output_dfa, TargetSlot::Output(sym), "τ_out"),
    };
    if validate_output_instance(forest, dfa, compiled).is_ok() {
        return Ok(Cow::Borrowed(forest));
    }
    let rw = Rewriter::new(compiled).with_k(k).with_cache(cache);
    let strategy = Strategy::Safe;
    // Stage 1: the parameters of the forest's own calls.
    for t in forest {
        rw.analyze_params(t, strategy, &mut Analysis::default())?;
    }
    let context = format!("{context}({function})");
    let report = &mut RewriteReport::default();
    let out = rw.rewrite_word(forest, slot, &context, strategy, invoker, report)?;
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invoke::ScriptedInvoker;
    use axml_schema::{newspaper_example, validate, NoOracle, Schema};

    /// The paper's newspaper vocabulary under the given root and exhibit
    /// content models.
    pub(super) fn newspaper_compiled(root: &str, exhibit: &str) -> Compiled {
        Compiled::new(
            Schema::builder()
                .element("newspaper", root)
                .data_element("title")
                .data_element("date")
                .data_element("temp")
                .data_element("city")
                .element("exhibit", exhibit)
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

    fn paper_compiled() -> Compiled {
        newspaper_compiled(
            "title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
            "title.(Get_Date|date)",
        )
    }

    /// Schema (**): temp must be materialized, TimeOut may stay.
    fn star_star_compiled() -> Compiled {
        newspaper_compiled(
            "title.date.temp.(TimeOut|exhibit*)",
            "title.(Get_Date|date)",
        )
    }

    /// Schema (***): fully extensional newspaper.
    fn star3_compiled() -> Compiled {
        newspaper_compiled("title.date.temp.exhibit*", "title.(Get_Date|date)")
    }

    fn exhibit(title: &str, date: &str) -> ITree {
        ITree::elem(
            "exhibit",
            vec![ITree::data("title", title), ITree::data("date", date)],
        )
    }

    #[test]
    fn figure2_safe_rewriting_into_star_star() {
        // Fig. 2 end to end: Get_Temp is invoked (with its city parameter),
        // TimeOut stays intensional, and the result conforms to (**).
        let c = star_star_compiled();
        let mut rw = Rewriter::new(&c).with_k(1);
        let mut inv = ScriptedInvoker::new().answer("Get_Temp", vec![ITree::data("temp", "15 C")]);
        let (out, report) = rw.rewrite_safe(&newspaper_example(), &mut inv).unwrap();
        assert_eq!(report.invoked, vec!["Get_Temp".to_owned()]);
        assert_eq!(report.wasted_calls, 0);
        validate(&out, &c).unwrap();
        // The Get_Temp call got the materialized city parameter.
        assert_eq!(inv.log[0].1, vec![ITree::data("city", "Paris")]);
        // TimeOut is still there.
        assert_eq!(out.num_funcs(), 1);
        assert_eq!(out.children()[2], ITree::data("temp", "15 C"));
    }

    #[test]
    fn unsafe_target_fails_before_any_call() {
        // Schema (***): no safe rewriting — and crucially no side effects.
        let c = star3_compiled();
        let mut rw = Rewriter::new(&c).with_k(1);
        let mut inv = ScriptedInvoker::new()
            .answer("Get_Temp", vec![ITree::data("temp", "15 C")])
            .answer("TimeOut", vec![]);
        let err = rw.rewrite_safe(&newspaper_example(), &mut inv).unwrap_err();
        assert!(matches!(err, RewriteError::NotSafe { .. }), "{err}");
        assert_eq!(inv.calls(), 0, "safe rewriting must not invoke on failure");
    }

    #[test]
    fn possible_rewriting_succeeds_when_timeout_cooperates() {
        let c = star3_compiled();
        let mut rw = Rewriter::new(&c).with_k(1);
        let mut inv = ScriptedInvoker::new()
            .answer("Get_Temp", vec![ITree::data("temp", "15 C")])
            .answer(
                "TimeOut",
                vec![exhibit("Expo", "Mon"), exhibit("Louvre", "Tue")],
            );
        let (out, report) = rw.rewrite_possible(&newspaper_example(), &mut inv).unwrap();
        validate(&out, &c).unwrap();
        assert_eq!(out.num_funcs(), 0);
        assert_eq!(report.invoked.len(), 2);
        assert_eq!(report.wasted_calls, 0);
        assert_eq!(out.children().len(), 5);
    }

    #[test]
    fn possible_rewriting_exhausts_when_timeout_returns_performance() {
        let c = star3_compiled();
        let mut rw = Rewriter::new(&c).with_k(1);
        let mut inv = ScriptedInvoker::new()
            .answer("Get_Temp", vec![ITree::data("temp", "15 C")])
            .answer(
                "TimeOut",
                vec![ITree::elem("performance", vec![ITree::text("Hamlet")])],
            );
        let err = rw
            .rewrite_possible(&newspaper_example(), &mut inv)
            .unwrap_err();
        assert!(matches!(err, RewriteError::Exhausted { .. }), "{err}");
        // Both calls were made before the failure was discovered: that is
        // the cost of unsafe rewriting the paper warns about.
        assert!(inv.calls() >= 2);
    }

    #[test]
    fn possible_rejects_upfront_when_disjoint() {
        let c = newspaper_compiled("temp.temp", "title.date");
        let mut rw = Rewriter::new(&c).with_k(1);
        let mut inv = ScriptedInvoker::new();
        let err = rw
            .rewrite_possible(&newspaper_example(), &mut inv)
            .unwrap_err();
        assert!(matches!(err, RewriteError::NotPossible { .. }), "{err}");
        assert_eq!(inv.calls(), 0);
    }

    #[test]
    fn nested_params_materialized_innermost_first() {
        // r ::= b ; F : a -> b ; G : () -> a.  Doc: r[ F(G()) ].
        // F must be invoked; before that its parameter G must be called.
        let c = Compiled::new(
            Schema::builder()
                .element("r", "b")
                .data_element("a")
                .data_element("b")
                .function("F", "a", "b")
                .function("G", "", "a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let doc = ITree::elem("r", vec![ITree::func("F", vec![ITree::func("G", vec![])])]);
        let mut rw = Rewriter::new(&c).with_k(1);
        let mut inv = ScriptedInvoker::new()
            .answer("G", vec![ITree::data("a", "1")])
            .answer("F", vec![ITree::data("b", "2")]);
        let (out, report) = rw.rewrite_safe(&doc, &mut inv).unwrap();
        assert_eq!(report.invoked, vec!["G".to_owned(), "F".to_owned()]);
        assert_eq!(out, ITree::elem("r", vec![ITree::data("b", "2")]));
        // F received the materialized a.
        assert_eq!(inv.log[1].1, vec![ITree::data("a", "1")]);
    }

    #[test]
    fn kept_call_gets_its_params_materialized() {
        // Target keeps F, but F's parameter must become an instance of
        // τ_in(F) = a — the embedded G call must be materialized.
        let c = Compiled::new(
            Schema::builder()
                .element("r", "F|b")
                .data_element("a")
                .data_element("b")
                .function("F", "a", "b")
                .function("G", "", "a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let doc = ITree::elem("r", vec![ITree::func("F", vec![ITree::func("G", vec![])])]);
        let mut rw = Rewriter::new(&c).with_k(1);
        let mut inv = ScriptedInvoker::new().answer("G", vec![ITree::data("a", "1")]);
        let (out, report) = rw.rewrite_safe(&doc, &mut inv).unwrap();
        assert_eq!(report.invoked, vec!["G".to_owned()]);
        assert_eq!(
            out,
            ITree::elem("r", vec![ITree::func("F", vec![ITree::data("a", "1")])])
        );
        validate(&out, &c).unwrap();
    }

    #[test]
    fn unrewritable_params_fail_stage_one() {
        // τ_in(F) = a but the parameter is a 'b' with no way to fix it.
        let c = Compiled::new(
            Schema::builder()
                .element("r", "F|b")
                .data_element("a")
                .data_element("b")
                .function("F", "a", "b")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let doc = ITree::elem("r", vec![ITree::func("F", vec![ITree::data("b", "x")])]);
        let mut rw = Rewriter::new(&c).with_k(1);
        let err = rw.analyze_safe(&doc).unwrap_err();
        assert!(
            matches!(err, RewriteError::NotSafe { ref context, .. } if context.contains("τ_in(F)")),
            "{err}"
        );
    }

    #[test]
    fn ill_typed_service_answer_detected() {
        let c = star_star_compiled();
        let mut rw = Rewriter::new(&c).with_k(1);
        let mut inv = ScriptedInvoker::new().answer("Get_Temp", vec![ITree::data("date", "oops")]);
        let err = rw.rewrite_safe(&newspaper_example(), &mut inv).unwrap_err();
        assert!(
            matches!(err, RewriteError::IllTyped { ref function, .. } if function == "Get_Temp"),
            "{err}"
        );
    }

    #[test]
    fn depth_two_flattens_returned_handles() {
        let c = Compiled::new(
            Schema::builder()
                .element("r", "exhibit*")
                .element("exhibit", "")
                .function("Get_Exhibits", "", "Get_Exhibit*")
                .function("Get_Exhibit", "", "exhibit")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let doc = ITree::elem("r", vec![ITree::func("Get_Exhibits", vec![])]);
        // k = 1 is not safe: returned handles could not be materialized.
        let mut rw1 = Rewriter::new(&c).with_k(1);
        assert!(rw1.analyze_safe(&doc).is_err());
        // k = 2 invokes the returned handles too.
        let mut rw2 = Rewriter::new(&c).with_k(2);
        let mut inv = ScriptedInvoker::new()
            .answer(
                "Get_Exhibits",
                vec![
                    ITree::func("Get_Exhibit", vec![]),
                    ITree::func("Get_Exhibit", vec![]),
                ],
            )
            .answer("Get_Exhibit", vec![ITree::elem("exhibit", vec![])]);
        let (out, report) = rw2.rewrite_safe(&doc, &mut inv).unwrap();
        assert_eq!(
            out,
            ITree::elem(
                "r",
                vec![
                    ITree::elem("exhibit", vec![]),
                    ITree::elem("exhibit", vec![]),
                ]
            )
        );
        assert_eq!(report.invoked.len(), 3);
        validate(&out, &c).unwrap();
    }

    #[test]
    fn recursion_into_child_subtrees() {
        // The exhibit child itself contains a Get_Date call that must be
        // materialized for schema (***)-style exhibit = title.date.
        let c = newspaper_compiled("title.date.temp.exhibit*", "title.date");
        let doc = ITree::elem(
            "newspaper",
            vec![
                ITree::data("title", "t"),
                ITree::data("date", "d"),
                ITree::data("temp", "15"),
                ITree::elem(
                    "exhibit",
                    vec![
                        ITree::data("title", "Expo"),
                        ITree::func("Get_Date", vec![ITree::data("title", "Expo")]),
                    ],
                ),
            ],
        );
        let mut rw = Rewriter::new(&c).with_k(1);
        let mut inv = ScriptedInvoker::new().answer("Get_Date", vec![ITree::data("date", "Mon")]);
        let (out, report) = rw.rewrite_safe(&doc, &mut inv).unwrap();
        assert_eq!(report.invoked, vec!["Get_Date".to_owned()]);
        validate(&out, &c).unwrap();
    }

    #[test]
    fn backtracking_recovers_from_dead_skip_branch() {
        // target (f.a)|b : keeping f needs a following 'a' that is not
        // there, so the executor backtracks and invokes f, which returns b.
        let c = Compiled::new(
            Schema::builder()
                .element("r", "(f.a)|b")
                .data_element("a")
                .data_element("b")
                .function("f", "", "a|b")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let doc = ITree::elem("r", vec![ITree::func("f", vec![])]);
        let mut rw = Rewriter::new(&c).with_k(1);
        let mut inv = ScriptedInvoker::new().answer("f", vec![ITree::data("b", "x")]);
        let (out, report) = rw.rewrite_possible(&doc, &mut inv).unwrap();
        assert_eq!(out, ITree::elem("r", vec![ITree::data("b", "x")]));
        assert_eq!(report.invoked, vec!["f".to_owned()]);
        assert_eq!(report.wasted_calls, 0, "the skip branch made no calls");
    }

    #[test]
    fn a_call_discarded_past_two_choice_points_is_wasted_once() {
        // Keeping Get_Temp bets on TimeOut answering exhibits only; its
        // performance kills the branch, which pops TimeOut's choice point
        // and Get_Temp's. Get_Temp is then invoked and TimeOut kept.
        let c = newspaper_compiled(
            "title.date.((Get_Temp.exhibit*)|(temp.(TimeOut|exhibit|performance)*))",
            "title.(Get_Date|date)",
        );
        let mut inv = ScriptedInvoker::new()
            .answer("Get_Temp", vec![ITree::data("temp", "15 C")])
            .answer(
                "TimeOut",
                vec![ITree::elem("performance", vec![ITree::text("Hamlet")])],
            );
        let (out, report) = Rewriter::new(&c)
            .with_k(1)
            .rewrite_possible(&newspaper_example(), &mut inv)
            .unwrap();
        validate(&out, &c).unwrap();
        assert_eq!(report.invoked, vec!["TimeOut".to_owned(), "Get_Temp".to_owned()]);
        assert_eq!(report.wasted_calls, 1);
    }

    #[test]
    fn a_retried_branch_that_dies_again_wastes_each_call_once() {
        // Words e.f.g into x.f.g | e.(f.v | z.g). Keeping e and f, g is
        // invoked and answers u: dead. The retry invokes f, which answers
        // y: dead again. The retry of e answers x, and f and g are kept.
        let c = Compiled::new(
            Schema::builder()
                .element("r", "x.f.g|e.(f.v|z.g)")
                .data_element("x")
                .data_element("y")
                .data_element("z")
                .data_element("u")
                .data_element("v")
                .function("e", "", "x")
                .function("f", "", "y|z")
                .function("g", "", "u|v")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let call = |name| ITree::func(name, vec![]);
        let doc = ITree::elem("r", vec![call("e"), call("f"), call("g")]);
        let mut inv = ScriptedInvoker::new()
            .answer("e", vec![ITree::data("x", "1")])
            .answer("f", vec![ITree::data("y", "2")])
            .answer("g", vec![ITree::data("u", "3")]);
        let (out, report) = Rewriter::new(&c)
            .with_k(1)
            .rewrite_possible(&doc, &mut inv)
            .unwrap();
        assert_eq!(out, ITree::elem("r", vec![ITree::data("x", "1"), call("f"), call("g")]));
        assert_eq!(report.invoked, vec!["g".to_owned(), "f".to_owned(), "e".to_owned()]);
        assert_eq!(report.wasted_calls, 2, "g and f are discarded, e is kept");
    }

    #[test]
    fn wasted_calls_counted_on_dead_invocations() {
        // target a.b ; f : () -> a|c ; g : () -> b|c.
        // Invoking f returns c — dead end discovered immediately; the call
        // is wasted and the whole rewriting is exhausted.
        let c = Compiled::new(
            Schema::builder()
                .element("r", "a.b")
                .data_element("a")
                .data_element("b")
                .data_element("cc")
                .function("f", "", "a|cc")
                .function("g", "", "b|cc")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let doc = ITree::elem(
            "r",
            vec![ITree::func("f", vec![]), ITree::func("g", vec![])],
        );
        let mut rw = Rewriter::new(&c).with_k(1);
        let mut inv = ScriptedInvoker::new()
            .answer("f", vec![ITree::data("cc", "x")])
            .answer("g", vec![ITree::data("b", "y")]);
        let err = rw.rewrite_possible(&doc, &mut inv).unwrap_err();
        assert!(matches!(err, RewriteError::Exhausted { .. }), "{err}");
        assert_eq!(inv.calls(), 1, "g is never reached after f's dead answer");
    }

    #[test]
    fn enforce_skips_rewriting_when_already_conforming() {
        let c = paper_compiled();
        let mut inv = ScriptedInvoker::new();
        let (out, report) = enforce(&c, &newspaper_example(), 1, &mut inv).unwrap();
        assert_eq!(out, newspaper_example());
        assert_eq!(report.invoked.len(), 0);
        assert_eq!(inv.calls(), 0);
    }

    #[test]
    fn enforce_falls_back_to_safe_rewriting() {
        let c = star_star_compiled();
        let mut inv = ScriptedInvoker::new().answer("Get_Temp", vec![ITree::data("temp", "15 C")]);
        let (out, report) = enforce(&c, &newspaper_example(), 1, &mut inv).unwrap();
        assert_eq!(report.invoked, vec!["Get_Temp".to_owned()]);
        validate(&out, &c).unwrap();
    }

    #[test]
    fn forest_enforcement_checks_before_it_rewrites() {
        // A conforming forest comes back borrowed, with no call and no
        // cache lookup.
        let c = newspaper_compiled("title.date.temp.exhibit*", "title.date");
        let cache = SolveCache::unpublished(8);
        let mut inv = ScriptedInvoker::new().answer("Get_Date", vec![ITree::data("date", "Mon")]);
        let params = [ITree::data("title", "Monet")];
        let out = enforce_forest(&c, "Get_Date", Side::Input, &params, 1, &cache, &mut inv);
        assert!(matches!(out, Ok(Cow::Borrowed(p)) if p == params));
        assert_eq!((inv.calls(), cache.stats().lookups), (0, 0));

        // τ_out(TimeOut) holds exhibits with a date: the call is invoked.
        let date_call = ITree::func("Get_Date", vec![ITree::data("title", "Monet")]);
        let result = [ITree::elem(
            "exhibit",
            vec![ITree::data("title", "Monet"), date_call],
        )];
        let out = enforce_forest(&c, "TimeOut", Side::Output, &result, 1, &cache, &mut inv);
        assert_eq!(*out.unwrap(), [exhibit("Monet", "Mon")]);
        assert_eq!(inv.calls(), 1);

        // A refusal names the side it was enforced against.
        let err =
            enforce_forest(&c, "Get_Temp", Side::Input, &params, 1, &cache, &mut inv).unwrap_err();
        let RewriteError::NotSafe { context, .. } = err else {
            panic!("expected a safe-rewriting refusal, got {err}");
        };
        assert_eq!(context, "τ_in(Get_Temp)");
    }

    #[test]
    fn unknown_label_reported() {
        let c = paper_compiled();
        let mut rw = Rewriter::new(&c);
        let err = rw
            .analyze_safe(&ITree::elem("mystery", vec![]))
            .unwrap_err();
        assert!(matches!(err, RewriteError::UnknownLabel(ref l) if l == "mystery"));
    }

    #[test]
    fn invoker_failure_propagates() {
        let c = star_star_compiled();
        let mut rw = Rewriter::new(&c).with_k(1);
        let mut inv = ScriptedInvoker::new(); // no answers scripted
        let err = rw.rewrite_safe(&newspaper_example(), &mut inv).unwrap_err();
        assert!(matches!(err, RewriteError::Invoke(_)), "{err}");
    }

    #[test]
    fn analysis_reports_games() {
        let c = star_star_compiled();
        let mut rw = Rewriter::new(&c).with_k(1);
        let a = rw.analyze_safe(&newspaper_example()).unwrap();
        assert!(a.games >= 3, "root + two parameter games, got {}", a.games);
        assert!(a.product_nodes > 0);
    }
}

#[cfg(test)]
mod depth_tests {
    use super::tests::newspaper_compiled;
    use super::*;
    use axml_schema::{NoOracle, Schema};

    fn handles_compiled() -> Compiled {
        Compiled::new(
            Schema::builder()
                .element("r", "exhibit*")
                .element("exhibit", "")
                .function("Get_Exhibits", "", "Get_Exhibit*")
                .function("Get_Exhibit", "", "exhibit")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap()
    }

    #[test]
    fn minimal_safe_k_found() {
        let c = handles_compiled();
        let doc = ITree::elem("r", vec![ITree::func("Get_Exhibits", vec![])]);
        let mut rw = Rewriter::new(&c);
        assert_eq!(rw.minimal_safe_k(&doc, 5), Some(2));
        // The rewriter's configured k is restored.
        assert_eq!(rw.k, 2);
        // A flat document is safe at depth 0 (it already conforms).
        let flat = ITree::elem("r", vec![ITree::elem("exhibit", vec![])]);
        assert_eq!(rw.minimal_safe_k(&flat, 5), Some(0));
    }

    #[test]
    fn minimal_safe_k_none_when_unreachable() {
        // A non-invocable call can never be materialized: no k suffices.
        let c = Compiled::new(
            Schema::builder()
                .element("r", "a")
                .data_element("a")
                .non_invocable_function("f", "", "a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let doc = ITree::elem("r", vec![ITree::func("f", vec![])]);
        let mut rw = Rewriter::new(&c);
        assert_eq!(rw.minimal_safe_k(&doc, 4), None);
    }

    #[test]
    fn analyze_possible_distinguishes_from_safe() {
        // Newspaper into (***): not safe, but possible.
        let c = newspaper_compiled("title.date.temp.exhibit*", "title.(Get_Date|date)");
        let doc = axml_schema::newspaper_example();
        let mut rw = Rewriter::new(&c).with_k(1);
        assert!(rw.analyze_safe(&doc).is_err());
        assert!(rw.analyze_possible(&doc).is_ok());
        // Disjoint content: not even possible.
        let c2 = newspaper_compiled("temp.temp", "title.date");
        let mut rw2 = Rewriter::new(&c2).with_k(1);
        assert!(matches!(
            rw2.analyze_possible(&doc),
            Err(RewriteError::NotPossible { .. })
        ));
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::invoke::ScriptedInvoker;
    use axml_schema::{NoOracle, Schema};

    #[test]
    fn call_budget_enforced() {
        // Materializing needs three calls; a budget of two must abort.
        let c = Compiled::new(
            Schema::builder()
                .element("r", "a.a.a")
                .data_element("a")
                .function("f", "", "a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let doc = ITree::elem(
            "r",
            vec![
                ITree::func("f", vec![]),
                ITree::func("f", vec![]),
                ITree::func("f", vec![]),
            ],
        );
        let mut inv = ScriptedInvoker::new().answer("f", vec![ITree::data("a", "1")]);
        let mut limited = Rewriter::new(&c).with_k(1).with_max_calls(2);
        let err = limited.rewrite_safe(&doc, &mut inv).unwrap_err();
        assert!(
            matches!(err, RewriteError::CallBudget { max_calls: 2 }),
            "{err}"
        );
        assert_eq!(inv.calls(), 2, "the third call was never made");
        // With budget 3 it succeeds.
        let mut inv = ScriptedInvoker::new().answer("f", vec![ITree::data("a", "1")]);
        let mut enough = Rewriter::new(&c).with_k(1).with_max_calls(3);
        let (out, report) = enough.rewrite_safe(&doc, &mut inv).unwrap();
        assert_eq!(report.invoked.len(), 3);
        assert_eq!(out.children().len(), 3);
    }

    fn exhibits_compiled() -> Compiled {
        Compiled::new(
            Schema::builder()
                .element("r", "exhibit*")
                .element("exhibit", "title.date")
                .data_element("title")
                .data_element("date")
                .function("Get_Date", "title", "date")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap()
    }

    fn exhibits_doc(n: usize) -> ITree {
        let kids = (0..n)
            .map(|i| {
                let t = format!("t{i}");
                ITree::elem(
                    "exhibit",
                    vec![
                        ITree::data("title", &t),
                        ITree::func("Get_Date", vec![ITree::data("title", &t)]),
                    ],
                )
            })
            .collect();
        ITree::elem("r", kids)
    }

    #[test]
    fn warm_cache_reproduces_cold_results() {
        let c = exhibits_compiled();
        let doc = exhibits_doc(4);
        let cache = SolveCache::unpublished(64);
        let run = || {
            let mut inv = ScriptedInvoker::new().answer("Get_Date", vec![ITree::data("date", "Mon")]);
            Rewriter::new(&c)
                .with_k(1)
                .with_cache(&cache)
                .rewrite_safe(&doc, &mut inv)
                .unwrap()
        };
        let cold = run();
        let misses_after_cold = cache.stats().misses;
        let warm = run();
        assert_eq!(warm, cold);
        let s = cache.stats();
        assert_eq!(s.misses, misses_after_cold, "warm run must not rebuild");
        assert!(s.hits > 0);
    }
}
