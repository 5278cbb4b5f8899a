//! Streaming bounded-memory schema enforcement.
//!
//! The DOM enforcement path ([`crate::rewrite::enforce_with`]) parses the
//! whole document, decodes it into an [`ITree`], rewrites, and serializes —
//! four full-document materializations. This module drives the same
//! three-stage rewrite incrementally off the pull parser
//! ([`axml_xml::Reader`]) instead:
//!
//! * **Streaming copy.** Each open element carries a frame with its
//!   content-model DFA state (exactly like
//!   [`axml_schema::StreamValidator`]). Conforming extensional regions are
//!   re-emitted to the output sink as they are parsed — in the same compact
//!   normal form `ITree::to_xml` produces — and never buffered. Borrowed
//!   text spans whose escaped form equals the raw input span are written
//!   zero-copy and counted as `bytes_copied`; everything reconstructed
//!   (tags, re-escaped runs, spliced rewrites) counts as `bytes_rewritten`.
//!   The identity `bytes_copied + bytes_rewritten == bytes_out` always
//!   holds.
//! * **Detection-based materialization.** When an `int:fun` child appears
//!   under an element `P`, `P` enters *tail mode*: the remaining children
//!   are materialized into DOM form (with the exact normalization of
//!   [`axml_schema::forest_from_nodes`]) while the already-emitted prefix
//!   stays streamed. At `P`'s close the suffix is rewritten with
//!   [`Rewriter::rewrite_suffix`]: the game is built over `P`'s *full*
//!   children word (prefix symbols included, so it is the same `A_w^k`
//!   the DOM path solves, warm in the shared [`SolveCache`]), the prefix
//!   is advanced through forced letter moves, and only the tail items are
//!   executed. If [`Compiled::admits_functions`] says `P`'s content model
//!   admits function symbols and the element is already valid as parsed,
//!   the tail is spliced verbatim without games or invocations — mirroring
//!   the DOM validate-short-circuit. Inside wildcard (`Any`) content, only
//!   the `int:fun` subtree itself is materialized and re-serialized; no
//!   game is played, matching the DOM rewriter's verbatim copy.
//! * **Universal fallback.** Any anomaly — parse error, unknown label, a
//!   dead DFA move, malformed intensional markup, a failing suffix
//!   rewrite — abandons streaming and re-runs the DOM pipeline on the same
//!   input, so output bytes, typed errors, and leftmost-error-wins order
//!   are identical to [`enforce_dom`] by construction. A prefix that dies
//!   in the DFA is function-free, so the DOM rewriter could not have fixed
//!   it either (rewriting only changes the word at function positions);
//!   the fallback exists to reproduce the DOM error verbatim. Note that
//!   invocations performed before the anomaly are *not* undone: a stateful
//!   invoker may see calls repeated by the fallback run.
//!
//! Memory: the engine holds the frame stack of open elements (with one
//! recorded child-symbol word per open element) plus at most one in-flight
//! materialized region. [`StreamReport::peak_buffer_bytes`] reports the
//! largest raw-input span buffered for materialization; per-frame word
//! recording is O(children of open elements) and is not included in that
//! figure.

use crate::invoke::{Invoker, RefusingInvoker};
use crate::rewrite::{
    enforce_possible_with, enforce_with, RewriteError, RewriteReport, Rewriter, Strategy,
};
use crate::solve_cache::{SolveCache, TargetSlot, DEFAULT_CAPACITY};
use axml_automata::{Dfa, Regex, Symbol, NO_STATE};
use axml_schema::{forest_from_nodes, validate, words_of, Compiled, CompiledContent, ITree, INT_NS};
use axml_xml::{
    element_to_string, escape_text, parse_document, Attribute, Element, Event, Node, QName, Reader,
    StreamWriter, WriteOptions,
};
use std::borrow::Cow;
use std::io;

/// Options for streaming enforcement.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Depth bound `k` of the rewriting (Def. 7).
    pub k: u32,
    /// Safe or possible rewriting.
    pub strategy: Strategy,
    /// Worker threads for the DOM fallback's parallel subtree pass
    /// (the streaming path itself is single-threaded).
    pub workers: usize,
    /// Shared solver cache; `None` uses a private unpublished cache.
    pub cache: Option<SolveCache>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            k: 2,
            strategy: Strategy::Safe,
            workers: 1,
            cache: None,
        }
    }
}

/// Statistics of one streaming enforcement run.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    /// Total bytes emitted.
    pub bytes_out: u64,
    /// Bytes written zero-copy from the input (borrowed text spans whose
    /// escaped form equals the raw span).
    pub bytes_copied: u64,
    /// Bytes reconstructed: tags, re-escaped text, spliced rewrites, and
    /// the whole output on fallback. `bytes_copied + bytes_rewritten ==
    /// bytes_out` always holds.
    pub bytes_rewritten: u64,
    /// Number of subtree regions materialized into DOM form.
    pub subtrees_materialized: u64,
    /// Peak raw-input bytes buffered for an in-flight materialized region.
    pub peak_buffer_bytes: u64,
    /// Whether the engine abandoned streaming and re-ran the DOM pipeline.
    pub fell_back: bool,
    /// Invocation and game statistics of the rewriting work performed.
    pub rewrite: RewriteReport,
}

/// Why the engine stopped short of a streamed result.
enum Stop {
    /// Abandon streaming and re-run the DOM pipeline (parity fallback).
    Fallback(String),
    /// The output sink failed; no fallback, surface the error.
    Io(io::Error),
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        Stop::Io(e)
    }
}

/// An invoker that may not exist yet: purely extensional documents never
/// pay for constructing one.
enum Inv<'x, 'i> {
    Ready(&'x mut dyn Invoker),
    Lazy {
        make: &'x mut dyn FnMut() -> Box<dyn Invoker + Send + 'i>,
        built: Option<Box<dyn Invoker + Send + 'i>>,
    },
}

impl Inv<'_, '_> {
    fn get(&mut self) -> &mut dyn Invoker {
        match self {
            Inv::Ready(i) => &mut **i,
            Inv::Lazy { make, built } => {
                if built.is_none() {
                    *built = Some(make());
                }
                &mut **built.as_mut().expect("just built")
            }
        }
    }
}

/// A pending text run, merged across adjacent text events the way
/// `parse_document` merges adjacent text nodes. Stays borrowed as long as
/// it is a single unescaped span of the input (the zero-copy case).
enum Run<'a> {
    None,
    Borrowed(&'a str),
    Owned(String),
}

impl<'a> Run<'a> {
    fn push(&mut self, t: Cow<'a, str>) {
        *self = match std::mem::replace(self, Run::None) {
            Run::None => match t {
                Cow::Borrowed(s) => Run::Borrowed(s),
                Cow::Owned(s) => Run::Owned(s),
            },
            Run::Borrowed(p) => {
                let mut s = String::with_capacity(p.len() + t.len());
                s.push_str(p);
                s.push_str(&t);
                Run::Owned(s)
            }
            Run::Owned(mut p) => {
                p.push_str(&t);
                Run::Owned(p)
            }
        };
    }

    fn take(&mut self) -> Run<'a> {
        std::mem::replace(self, Run::None)
    }
}

/// Per-open-element state.
enum Kind<'c> {
    /// Regular content model: DFA advanced per child symbol.
    Model {
        sym: Symbol,
        dfa: &'c Dfa,
        state: u32,
        regex: &'c Regex,
    },
    /// Atomic content: text children only.
    Data,
    /// Wildcard content: children stream without validation.
    Any,
}

struct Frame<'c, 'a> {
    label: String,
    kind: Kind<'c>,
    /// Child symbols consumed so far — the streamed prefix word, needed
    /// when a later `int:fun` child forces a suffix rewrite.
    word: Vec<Symbol>,
    run: Run<'a>,
}

enum TailKind {
    /// Remaining children of the owning element (suffix rewrite at close).
    Suffix,
    /// A single `int:fun` subtree inside wildcard content.
    FunRegion,
}

/// An in-flight materialized region, built with `parse_document`'s exact
/// merge rules so `forest_from_nodes` normalizes identically to the DOM
/// path.
struct Tail {
    kind: TailKind,
    start_pos: usize,
    nodes: Vec<Node>,
    open: Vec<Element>,
}

struct Engine<'c, 'a, 'w, 'r> {
    compiled: &'c Compiled,
    reader: Reader<'a>,
    writer: StreamWriter<&'w mut dyn io::Write>,
    stack: Vec<Frame<'c, 'a>>,
    tail: Option<Tail>,
    report: &'r mut StreamReport,
}

impl<'c, 'a> Engine<'c, 'a, '_, '_> {
    fn run(
        &mut self,
        rw: &mut Rewriter<'c>,
        strategy: Strategy,
        inv: &mut Inv<'_, '_>,
    ) -> Result<(), Stop> {
        loop {
            let ev = self
                .reader
                .next_event()
                .map_err(|e| Stop::Fallback(format!("parse error: {e}")))?;
            if self.tail.is_some() {
                self.feed_tail(ev, rw, strategy, inv)?;
                continue;
            }
            match ev {
                Event::StartElement {
                    name,
                    attributes,
                    ns_decls,
                    ..
                } => self.on_start(name, attributes, ns_decls)?,
                Event::EndElement { .. } => self.on_end()?,
                Event::Text(t) => {
                    if let Some(top) = self.stack.last_mut() {
                        top.run.push(t);
                    }
                }
                // Comments and PIs vanish from the normal form but break
                // text-run adjacency, exactly like the DOM builder.
                Event::Comment(_) | Event::Pi { .. } => self.finalize_run()?,
                Event::Eof => break,
            }
        }
        self.report.bytes_out = self.writer.bytes_written();
        Ok(())
    }

    fn on_start(
        &mut self,
        name: QName,
        attributes: Vec<Attribute>,
        ns_decls: Vec<(String, String)>,
    ) -> Result<(), Stop> {
        self.finalize_run()?;
        let is_fun = name.matches(INT_NS, "fun");
        enum Top {
            Root,
            Any,
            Data,
            Model,
        }
        let top = match self.stack.last() {
            None => Top::Root,
            Some(f) => match f.kind {
                Kind::Any => Top::Any,
                Kind::Data => Top::Data,
                Kind::Model { .. } => Top::Model,
            },
        };
        match top {
            Top::Data => {
                let label = &self.stack.last().expect("data frame").label;
                return Err(Stop::Fallback(format!(
                    "'{label}' is atomic but has element children"
                )));
            }
            Top::Root if is_fun => {
                return Err(Stop::Fallback(
                    "intensional function at document root".into(),
                ));
            }
            Top::Any | Top::Model if is_fun => {
                let kind = if matches!(top, Top::Any) {
                    TailKind::FunRegion
                } else {
                    TailKind::Suffix
                };
                self.tail = Some(Tail {
                    kind,
                    start_pos: self.reader.pos(),
                    nodes: Vec::new(),
                    open: vec![Element {
                        name,
                        attributes,
                        ns_decls,
                        children: Vec::new(),
                    }],
                });
                return Ok(());
            }
            _ => {}
        }
        // An ordinary element child: advance the parent's DFA (if any),
        // then open its own frame.
        if let Some(Frame {
            kind: Kind::Model { dfa, state, .. },
            word,
            label,
            ..
        }) = self.stack.last_mut()
        {
            let sym = self.compiled.classify_label(&name.local);
            let next = dfa.next(*state, sym);
            if next == NO_STATE {
                return Err(Stop::Fallback(format!(
                    "unexpected '{}' in content of '{label}'",
                    self.compiled.alphabet().name(sym)
                )));
            }
            *state = next;
            word.push(sym);
        }
        let frame = match top {
            // Wildcard content is copied without classification; unknown
            // labels are fine there, as in the DOM path.
            Top::Any => Frame {
                label: name.local.clone(),
                kind: Kind::Any,
                word: Vec::new(),
                run: Run::None,
            },
            _ => self.open_frame(&name.local)?,
        };
        let n = self.writer.start(&name.local)?;
        self.report.bytes_rewritten += n as u64;
        self.stack.push(frame);
        Ok(())
    }

    fn open_frame(&self, label: &str) -> Result<Frame<'c, 'a>, Stop> {
        let sym = self.compiled.classify_label(label);
        let kind = match self.compiled.content(sym) {
            None => return Err(Stop::Fallback(format!("unknown element '{label}'"))),
            Some(CompiledContent::Data) => Kind::Data,
            Some(CompiledContent::Any) => Kind::Any,
            Some(CompiledContent::Model { regex, dfa }) => Kind::Model {
                sym,
                dfa,
                state: dfa.start,
                regex,
            },
        };
        Ok(Frame {
            label: label.to_owned(),
            kind,
            word: Vec::new(),
            run: Run::None,
        })
    }

    fn on_end(&mut self) -> Result<(), Stop> {
        self.finalize_run()?;
        let frame = self.stack.pop().expect("reader guarantees balanced tags");
        if let Kind::Model { dfa, state, .. } = frame.kind {
            if !dfa.finals[state as usize] {
                return Err(Stop::Fallback(format!(
                    "children of '{}' stop before the content model is satisfied",
                    frame.label
                )));
            }
        }
        let n = self.writer.end(&frame.label)?;
        self.report.bytes_rewritten += n as u64;
        Ok(())
    }

    /// Flushes the pending text run of the top frame: trim, drop when
    /// whitespace-only, otherwise consume a data symbol and emit the
    /// escaped text (zero-copy when the span is borrowed and clean).
    fn finalize_run(&mut self) -> Result<(), Stop> {
        let Some(top) = self.stack.last_mut() else {
            return Ok(());
        };
        let (text, borrowed): (Cow<'a, str>, bool) = match top.run.take() {
            Run::None => return Ok(()),
            Run::Borrowed(s) => (Cow::Borrowed(s), true),
            Run::Owned(s) => (Cow::Owned(s), false),
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return Ok(());
        }
        if let Kind::Model { dfa, state, .. } = &mut top.kind {
            let data = self.compiled.data_sym();
            let next = dfa.next(*state, data);
            if next == NO_STATE {
                return Err(Stop::Fallback(format!(
                    "unexpected text in content of '{}'",
                    top.label
                )));
            }
            *state = next;
            top.word.push(data);
        }
        let escaped = escape_text(trimmed);
        let zero_copy = borrowed && matches!(escaped, Cow::Borrowed(_));
        let n = self.writer.raw(&escaped)?;
        let text_len = escaped.len() as u64;
        if zero_copy {
            self.report.bytes_copied += text_len;
        } else {
            self.report.bytes_rewritten += text_len;
        }
        // A lazily-closed `>` may precede the span; it is reconstruction.
        self.report.bytes_rewritten += n as u64 - text_len;
        Ok(())
    }

    fn feed_tail(
        &mut self,
        ev: Event<'a>,
        rw: &mut Rewriter<'c>,
        strategy: Strategy,
        inv: &mut Inv<'_, '_>,
    ) -> Result<(), Stop> {
        let tail = self.tail.as_mut().expect("in tail mode");
        match ev {
            Event::StartElement {
                name,
                attributes,
                ns_decls,
                ..
            } => {
                tail.open.push(Element {
                    name,
                    attributes,
                    ns_decls,
                    children: Vec::new(),
                });
            }
            Event::EndElement { .. } => match tail.open.pop() {
                Some(done) => match tail.open.last_mut() {
                    Some(parent) => parent.children.push(Node::Element(done)),
                    None => {
                        tail.nodes.push(Node::Element(done));
                        if matches!(tail.kind, TailKind::FunRegion) {
                            return self.finish_fun_region();
                        }
                    }
                },
                // The owning element itself closes: rewrite the suffix.
                None => return self.finish_suffix(rw, strategy, inv),
            },
            Event::Text(t) => {
                let list = match tail.open.last_mut() {
                    Some(e) => &mut e.children,
                    None => &mut tail.nodes,
                };
                if let Some(Node::Text(prev)) = list.last_mut() {
                    prev.push_str(&t);
                } else if !t.trim().is_empty() {
                    list.push(Node::Text(t.into_owned()));
                }
            }
            Event::Comment(c) => {
                let list = match tail.open.last_mut() {
                    Some(e) => &mut e.children,
                    None => &mut tail.nodes,
                };
                list.push(Node::Comment(c.to_owned()));
            }
            Event::Pi { target, data } => {
                let list = match tail.open.last_mut() {
                    Some(e) => &mut e.children,
                    None => &mut tail.nodes,
                };
                list.push(Node::Pi {
                    target: target.to_owned(),
                    data: data.to_owned(),
                });
            }
            Event::Eof => {
                return Err(Stop::Fallback(
                    "input ended inside a materialized region".into(),
                ));
            }
        }
        Ok(())
    }

    fn account_region(&mut self, start_pos: usize) {
        self.report.subtrees_materialized += 1;
        let span = self.reader.pos().saturating_sub(start_pos) as u64;
        if span > self.report.peak_buffer_bytes {
            self.report.peak_buffer_bytes = span;
        }
    }

    /// An `int:fun` inside wildcard content: decode just the call subtree
    /// and splice its canonical serialization — the DOM rewriter copies
    /// `Any` content verbatim, no game is played.
    fn finish_fun_region(&mut self) -> Result<(), Stop> {
        let tail = self.tail.take().expect("in tail mode");
        self.account_region(tail.start_pos);
        let Some(Node::Element(e)) = tail.nodes.last() else {
            return Err(Stop::Fallback("empty materialized region".into()));
        };
        let t = ITree::from_xml(e).map_err(Stop::Fallback)?;
        let s = serialize_item(&t);
        let n = self.writer.raw(&s)?;
        self.report.bytes_rewritten += n as u64;
        Ok(())
    }

    /// The owning element of a suffix tail closes: decode the tail,
    /// short-circuit when the element is already valid and its content
    /// model admits functions, otherwise run the suffix rewrite.
    fn finish_suffix(
        &mut self,
        rw: &mut Rewriter<'c>,
        strategy: Strategy,
        inv: &mut Inv<'_, '_>,
    ) -> Result<(), Stop> {
        let tail = self.tail.take().expect("in tail mode");
        self.account_region(tail.start_pos);
        let frame = self.stack.pop().expect("suffix tail has an owner frame");
        let Kind::Model {
            sym,
            dfa,
            state,
            regex,
        } = frame.kind
        else {
            return Err(Stop::Fallback("suffix tail under non-model frame".into()));
        };
        let items = forest_from_nodes(&tail.nodes).map_err(Stop::Fallback)?;
        let tail_word = words_of(&items, self.compiled).expect("words_of is total");
        // Validate-tail-first: when the content model admits function
        // symbols and the element is valid as parsed, splice the tail
        // verbatim — the DOM path would have short-circuited too.
        let mut shortcut = false;
        if self.compiled.admits_functions(sym) {
            let mut st = state;
            let mut alive = true;
            for &s in &tail_word {
                st = dfa.next(st, s);
                if st == NO_STATE {
                    alive = false;
                    break;
                }
            }
            shortcut = alive
                && dfa.finals[st as usize]
                && items.iter().all(|t| validate(t, self.compiled).is_ok());
        }
        let out: Vec<ITree> = if shortcut {
            items
        } else {
            rw.rewrite_suffix(
                &frame.word,
                &items,
                regex,
                TargetSlot::Content(sym),
                &frame.label,
                strategy,
                inv.get(),
                &mut self.report.rewrite,
            )
            .map_err(|e| Stop::Fallback(format!("suffix rewrite failed: {e}")))?
        };
        for t in &out {
            let s = serialize_item(t);
            let n = self.writer.raw(&s)?;
            self.report.bytes_rewritten += n as u64;
        }
        let n = self.writer.end(&frame.label)?;
        self.report.bytes_rewritten += n as u64;
        Ok(())
    }
}

/// Serializes one rewritten item in the compact normal form the DOM path
/// emits (`element_to_string` of `ITree::to_xml`; bare text is escaped).
fn serialize_item(t: &ITree) -> String {
    match t {
        ITree::Text(s) => escape_text(s).into_owned(),
        other => element_to_string(&other.to_xml(), &WriteOptions::compact()),
    }
}

fn run_engine<'c>(
    compiled: &'c Compiled,
    input: &str,
    rw: &mut Rewriter<'c>,
    strategy: Strategy,
    inv: &mut Inv<'_, '_>,
    sink: &mut dyn io::Write,
    report: &mut StreamReport,
) -> Result<(), Stop> {
    let mut eng = Engine {
        compiled,
        reader: Reader::new(input),
        writer: StreamWriter::new(sink),
        stack: Vec::new(),
        tail: None,
        report,
    };
    eng.run(rw, strategy, inv)
}

fn resolve_cache(opts: &StreamOptions) -> SolveCache {
    opts.cache
        .clone()
        .unwrap_or_else(|| SolveCache::unpublished(DEFAULT_CAPACITY))
}

fn publish(report: &StreamReport) {
    let m = axml_obs::global();
    m.counter("enforce.stream.runs").inc();
    m.counter("enforce.stream.bytes_out").add(report.bytes_out);
    m.counter("enforce.stream.bytes_copied").add(report.bytes_copied);
    m.counter("enforce.stream.bytes_rewritten")
        .add(report.bytes_rewritten);
    m.counter("enforce.stream.subtrees_materialized")
        .add(report.subtrees_materialized);
    let fallbacks = m.counter("enforce.stream.fallbacks");
    if report.fell_back {
        fallbacks.inc();
    }
    m.gauge("enforce.stream.peak_buffer_bytes")
        .set(report.peak_buffer_bytes as i64);
}

fn dom_with_cache<'i>(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    cache: &SolveCache,
    make_invoker: &mut dyn FnMut() -> Box<dyn Invoker + Send + 'i>,
) -> Result<(String, RewriteReport), RewriteError> {
    let doc = parse_document(input).map_err(|e| RewriteError::Invalid(e.to_string()))?;
    let tree = ITree::from_xml(&doc.root).map_err(RewriteError::Invalid)?;
    let (out, rep) = match opts.strategy {
        Strategy::Safe => enforce_with(compiled, &tree, opts.k, cache, opts.workers, make_invoker)?,
        Strategy::Possible => {
            let mut inv = make_invoker();
            enforce_possible_with(compiled, &tree, opts.k, cache, &mut *inv)?
        }
    };
    Ok((
        element_to_string(&out.to_xml(), &WriteOptions::compact()),
        rep,
    ))
}

/// The DOM reference pipeline: parse → decode → enforce → serialize in the
/// compact normal form. Streaming enforcement is byte-identical to this
/// (and falls back to it on any anomaly); tests, benches, and CI gates
/// compare against it directly.
pub fn enforce_dom<'i>(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    make_invoker: &mut dyn FnMut() -> Box<dyn Invoker + Send + 'i>,
) -> Result<(String, RewriteReport), RewriteError> {
    let cache = resolve_cache(opts);
    dom_with_cache(compiled, input, opts, &cache, make_invoker)
}

/// Enforces the schema over the XML text of an intensional document in a
/// single streaming pass, returning the serialized result and a
/// [`StreamReport`].
///
/// Output is byte-identical to [`enforce_dom`] with the same options, and
/// error cases surface the identical typed [`RewriteError`]: the engine
/// re-runs the DOM pipeline on any anomaly (see the module docs; the
/// output buffer makes the fallback invisible to the caller). Use
/// [`Rewriter::rewrite_stream`] to stream into an [`io::Write`] sink
/// without buffering the output.
///
/// `make_invoker` is only called when a rewrite actually needs to invoke —
/// purely extensional documents never construct an invoker (the DOM
/// fallback may call it again; stateful invokers can observe repeated
/// calls, see the module docs).
pub fn enforce_stream<'i>(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    make_invoker: &mut dyn FnMut() -> Box<dyn Invoker + Send + 'i>,
) -> Result<(String, StreamReport), RewriteError> {
    let cache = resolve_cache(opts);
    let mut inv = Inv::Lazy {
        make: make_invoker,
        built: None,
    };
    enforce_stream_buffered(compiled, input, opts, &cache, &mut inv)
}

/// Like [`enforce_stream`], but materializing calls through a borrowed
/// [`Invoker`] instead of a factory. The DOM fallback is single-threaded
/// here (the factory form is what allows parallel subtree workers).
pub fn enforce_stream_with(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    invoker: &mut dyn Invoker,
) -> Result<(String, StreamReport), RewriteError> {
    let cache = resolve_cache(opts);
    let mut inv = Inv::Ready(invoker);
    enforce_stream_buffered(compiled, input, opts, &cache, &mut inv)
}

/// Like [`enforce_stream_with`], but streaming the enforced output into
/// `sink` instead of buffering it — the convenience wrapper the network
/// layer's chunked shipping path drives, so a document larger than RAM
/// never exists in one allocation on the sender. Fallback semantics are
/// [`Rewriter::rewrite_stream`]'s: a fallback after bytes were written
/// surfaces the divergence error rather than corrupting `sink`.
pub fn enforce_stream_to(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    invoker: &mut dyn Invoker,
    sink: &mut dyn io::Write,
) -> Result<StreamReport, RewriteError> {
    let cache = resolve_cache(opts);
    Rewriter::new(compiled)
        .with_k(opts.k)
        .with_cache(&cache)
        .rewrite_stream(input, opts.strategy, invoker, sink)
}

/// Verifies that `input` is already an instance of `compiled`: the
/// receiving side of an exchange, where rewriting is the sender's burden.
///
/// The streaming engine runs with a [`RefusingInvoker`] into a discarding
/// sink. A rewrite that invokes nothing is the identity, so the run
/// succeeds exactly on valid documents, and no output is kept. On an
/// anomaly it returns the DOM pipeline's verdict; unlike
/// [`Rewriter::rewrite_stream`] it never reports a divergence, because
/// nothing written has to be taken back. The `enforce.stream.*` metrics
/// are published as for every streaming run.
pub fn verify_stream(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
) -> Result<StreamReport, RewriteError> {
    let cache = resolve_cache(opts);
    let mut inv = Inv::Ready(&mut RefusingInvoker);
    stream_or_fall_back(compiled, input, opts, &cache, &mut inv, &mut io::sink())
        .map(|(_, report)| report)
}

fn enforce_stream_buffered(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    cache: &SolveCache,
    inv: &mut Inv<'_, '_>,
) -> Result<(String, StreamReport), RewriteError> {
    let mut buf: Vec<u8> = Vec::new();
    let (dom, report) = stream_or_fall_back(compiled, input, opts, cache, inv, &mut buf)?;
    let out = match dom {
        Some(out) => out,
        None => String::from_utf8(buf).expect("serializer emits UTF-8"),
    };
    Ok((out, report))
}

/// Streams `input` through the engine into `sink`. On an anomaly the DOM
/// pipeline re-runs on the same input and its output comes back as
/// `Some`, replacing whatever reached `sink`. Publishes the run's metrics.
fn stream_or_fall_back(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    cache: &SolveCache,
    inv: &mut Inv<'_, '_>,
    sink: &mut dyn io::Write,
) -> Result<(Option<String>, StreamReport), RewriteError> {
    let mut report = StreamReport::default();
    let res = {
        let mut rw = Rewriter::new(compiled).with_k(opts.k).with_cache(cache);
        run_engine(
            compiled,
            input,
            &mut rw,
            opts.strategy,
            inv,
            sink,
            &mut report,
        )
    };
    match res {
        Ok(()) => {
            publish(&report);
            Ok((None, report))
        }
        Err(Stop::Io(e)) => Err(RewriteError::Invalid(format!("output write error: {e}"))),
        Err(Stop::Fallback(_)) => {
            report.fell_back = true;
            report.bytes_copied = 0;
            report.bytes_rewritten = 0;
            report.bytes_out = 0;
            let dom = match inv {
                Inv::Lazy { make, .. } => dom_with_cache(compiled, input, opts, cache, *make),
                Inv::Ready(i) => Rewriter::new(compiled)
                    .with_k(opts.k)
                    .with_cache(cache)
                    .dom_fallback(input, opts.strategy, &mut **i),
            };
            match dom {
                Ok((out, rep)) => {
                    report.bytes_out = out.len() as u64;
                    report.bytes_rewritten = out.len() as u64;
                    report.rewrite = rep;
                    publish(&report);
                    Ok((Some(out), report))
                }
                Err(e) => {
                    publish(&report);
                    Err(e)
                }
            }
        }
    }
}

impl<'c> Rewriter<'c> {
    /// Streams `input` through schema enforcement directly into `sink` —
    /// the bounded-memory path: conforming regions are written as they are
    /// parsed and never buffered.
    ///
    /// Because bytes may already have been written when an anomaly forces
    /// the DOM fallback, parity degrades gracefully rather than silently:
    /// with nothing written yet the fallback output is streamed into
    /// `sink` as usual; otherwise the DOM pipeline is consulted for its
    /// verdict — its typed error is returned (anomalies coincide with DOM
    /// failures; see the module docs), and in the unexpected case where it
    /// succeeds, an error reports the divergence instead of corrupting
    /// `sink`. Callers that need transparent fallback should use
    /// [`enforce_stream`]. On error the sink's contents are unspecified.
    pub fn rewrite_stream(
        &mut self,
        input: &str,
        strategy: Strategy,
        invoker: &mut dyn Invoker,
        sink: &mut dyn io::Write,
    ) -> Result<StreamReport, RewriteError> {
        let compiled = self.compiled();
        let mut report = StreamReport::default();
        let res = {
            let mut inv = Inv::Ready(&mut *invoker);
            run_engine(
                compiled, input, self, strategy, &mut inv, sink, &mut report,
            )
        };
        match res {
            Ok(()) => {
                publish(&report);
                Ok(report)
            }
            Err(Stop::Io(e)) => Err(RewriteError::Invalid(format!("output write error: {e}"))),
            Err(Stop::Fallback(reason)) => {
                report.fell_back = true;
                let written = report.bytes_copied + report.bytes_rewritten;
                report.bytes_copied = 0;
                report.bytes_rewritten = 0;
                report.bytes_out = 0;
                match self.dom_fallback(input, strategy, invoker) {
                    Err(e) => {
                        publish(&report);
                        Err(e)
                    }
                    Ok((out, rep)) => {
                        report.rewrite = rep;
                        if written == 0 {
                            sink.write_all(out.as_bytes()).map_err(|e| {
                                RewriteError::Invalid(format!("output write error: {e}"))
                            })?;
                            report.bytes_out = out.len() as u64;
                            report.bytes_rewritten = out.len() as u64;
                            publish(&report);
                            Ok(report)
                        } else {
                            publish(&report);
                            Err(RewriteError::Invalid(format!(
                                "streaming enforcement diverged after {written} bytes were \
                                 written ({reason}); use enforce_stream for buffered fallback"
                            )))
                        }
                    }
                }
            }
        }
    }

    /// The DOM pipeline with this rewriter's configuration (`k`, cache,
    /// call budget), used when [`Rewriter::rewrite_stream`] falls back.
    fn dom_fallback(
        &mut self,
        input: &str,
        strategy: Strategy,
        invoker: &mut dyn Invoker,
    ) -> Result<(String, RewriteReport), RewriteError> {
        let doc = parse_document(input).map_err(|e| RewriteError::Invalid(e.to_string()))?;
        let tree = ITree::from_xml(&doc.root).map_err(RewriteError::Invalid)?;
        if validate(&tree, self.compiled()).is_ok() {
            return Ok((
                element_to_string(&tree.to_xml(), &WriteOptions::compact()),
                RewriteReport::default(),
            ));
        }
        let (out, rep) = match strategy {
            Strategy::Safe => self.rewrite_safe(&tree, invoker)?,
            Strategy::Possible => self.rewrite_possible(&tree, invoker)?,
        };
        Ok((element_to_string(&out.to_xml(), &WriteOptions::compact()), rep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invoke::ScriptedInvoker;
    use axml_schema::{NoOracle, Schema};

    fn compiled(root_model: &str) -> Compiled {
        Compiled::new(
            Schema::builder()
                .element("newspaper", root_model)
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

    /// Schema (*): calls admitted where they stand.
    fn star() -> Compiled {
        compiled("title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
    }

    /// Schema (**): temp must be materialized, TimeOut may stay.
    fn star_star() -> Compiled {
        compiled("title.date.temp.(TimeOut|exhibit*)")
    }

    fn scripted() -> Box<dyn Invoker + Send> {
        Box::new(
            ScriptedInvoker::new()
                .answer("Get_Temp", vec![ITree::data("temp", "15 C")])
                .answer("Get_Date", vec![ITree::data("date", "04/10/2002")]),
        )
    }

    fn paper_xml() -> String {
        axml_schema::newspaper_example().to_xml().to_pretty_xml()
    }

    fn both(c: &Compiled, input: &str, opts: &StreamOptions) -> (String, StreamReport) {
        let (dom, dom_rep) = enforce_dom(c, input, opts, &mut || scripted()).unwrap();
        let (out, rep) = enforce_stream(c, input, opts, &mut || scripted()).unwrap();
        assert_eq!(out, dom, "streaming and DOM outputs differ");
        assert_eq!(
            rep.rewrite.invoked, dom_rep.invoked,
            "invocation lists differ"
        );
        assert_eq!(
            rep.bytes_copied + rep.bytes_rewritten,
            rep.bytes_out,
            "byte accounting identity broken"
        );
        (out, rep)
    }

    #[test]
    fn extensional_document_streams_zero_copy() {
        let c = star_star();
        let input =
            "<newspaper><title>The Daily Moon</title><date>04/10/2002</date><temp>15 C</temp>\
             </newspaper>";
        let (out, rep) = both(&c, input, &StreamOptions::default());
        assert!(out.contains("<temp>15 C</temp>"));
        assert!(!rep.fell_back);
        assert_eq!(rep.subtrees_materialized, 0);
        assert_eq!(rep.peak_buffer_bytes, 0);
        assert!(rep.bytes_copied > 0, "text spans should be zero-copy");
        assert!(rep.rewrite.invoked.is_empty());
    }

    #[test]
    fn suffix_rewrite_materializes_required_call() {
        let c = star_star();
        let input = paper_xml();
        let (out, rep) = both(&c, &input, &StreamOptions { k: 1, ..StreamOptions::default() });
        assert!(out.contains("<temp>15 C</temp>"), "{out}");
        assert!(out.contains("methodName=\"TimeOut\""), "{out}");
        assert!(!rep.fell_back);
        assert_eq!(rep.rewrite.invoked, vec!["Get_Temp".to_owned()]);
        assert_eq!(rep.subtrees_materialized, 1);
        assert!(rep.peak_buffer_bytes > 0);
    }

    #[test]
    fn admitted_calls_shortcut_without_invocation() {
        let c = star();
        let input = paper_xml();
        let (out, rep) = both(&c, &input, &StreamOptions::default());
        assert!(out.contains("methodName=\"Get_Temp\""), "{out}");
        assert!(!rep.fell_back);
        assert!(rep.rewrite.invoked.is_empty());
        assert_eq!(rep.rewrite.games, 0, "shortcut must not build games");
    }

    #[test]
    fn invalid_document_falls_back_with_identical_error() {
        let c = star_star();
        // Wrong child order: function-free and invalid.
        let input = "<newspaper><date>d</date><title>t</title><temp>1</temp></newspaper>";
        let opts = StreamOptions::default();
        let dom_err = enforce_dom(&c, input, &opts, &mut || scripted()).unwrap_err();
        let err = enforce_stream(&c, input, &opts, &mut || scripted()).unwrap_err();
        assert_eq!(err.to_string(), dom_err.to_string());
        assert_eq!(err, dom_err);
    }

    #[test]
    fn parse_error_falls_back_with_identical_error() {
        let c = star_star();
        let input = "<newspaper><title>t</title>";
        let opts = StreamOptions::default();
        let dom_err = enforce_dom(&c, input, &opts, &mut || scripted()).unwrap_err();
        let err = enforce_stream(&c, input, &opts, &mut || scripted()).unwrap_err();
        assert_eq!(err, dom_err);
    }

    #[test]
    fn possible_strategy_matches_dom() {
        let c = star_star();
        let input = paper_xml();
        let opts = StreamOptions {
            k: 1,
            strategy: Strategy::Possible,
            ..StreamOptions::default()
        };
        let (out, _rep) = both(&c, &input, &opts);
        assert!(out.contains("<temp>15 C</temp>"), "{out}");
    }

    #[test]
    fn wildcard_content_streams_and_keeps_calls() {
        let c = Compiled::new(
            Schema::builder()
                .element("r", "blob.a")
                .any_element("blob")
                .data_element("a")
                .function("F", "a", "a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let input = r#"<r><blob><x note="kept-nowhere"><y>deep</y></x><int:fun
            xmlns:int="http://www.activexml.com/ns/int" methodName="F"><int:params>
            <int:param><a>1</a></int:param></int:params></int:fun></blob><a>2</a></r>"#;
        let (out, rep) = both(&c, input, &StreamOptions::default());
        assert!(out.contains("methodName=\"F\""), "{out}");
        assert!(!out.contains("note="), "attributes are normalized away");
        assert!(!rep.fell_back);
        assert_eq!(rep.subtrees_materialized, 1);
        assert!(rep.rewrite.invoked.is_empty());
    }

    #[test]
    fn mixed_runs_comments_and_cdata_normalize_like_dom() {
        let c = star_star();
        let input = "<newspaper>\n  <title>a &amp; b<!-- note --><![CDATA[ <raw> ]]></title>\n\
                     <date>d</date><temp>1</temp></newspaper>";
        let (out, rep) = both(&c, input, &StreamOptions::default());
        assert!(out.contains("a &amp; b"), "{out}");
        assert!(out.contains("&lt;raw&gt;"), "{out}");
        assert!(!rep.fell_back);
    }

    #[test]
    fn rewrite_stream_direct_sink_matches_buffered() {
        let c = star_star();
        let input = paper_xml();
        let (buffered, _) =
            enforce_stream(&c, &input, &StreamOptions { k: 1, ..StreamOptions::default() }, &mut || {
                scripted()
            })
            .unwrap();
        let mut sink = Vec::new();
        let mut inv = scripted();
        let rep = Rewriter::new(&c)
            .with_k(1)
            .rewrite_stream(&input, Strategy::Safe, &mut *inv, &mut sink)
            .unwrap();
        assert_eq!(String::from_utf8(sink).unwrap(), buffered);
        assert_eq!(rep.bytes_out as usize, buffered.len());
    }

    #[test]
    fn verify_stream_agrees_with_refused_enforcement() {
        let refused = |c: &Compiled, input: &str| {
            enforce_stream_with(c, input, &StreamOptions::default(), &mut RefusingInvoker)
        };
        // Valid as sent: accepted, with the byte accounting of a full run.
        let c = star();
        let input = paper_xml();
        let (out, expected) = refused(&c, &input).unwrap();
        let rep = verify_stream(&c, &input, &StreamOptions::default()).unwrap();
        assert!(!rep.fell_back);
        assert_eq!(rep.bytes_out, out.len() as u64);
        assert_eq!(
            (rep.bytes_copied, rep.bytes_rewritten),
            (expected.bytes_copied, expected.bytes_rewritten)
        );
        // A call the schema wants materialized, a dead DFA move, and an
        // unknown root: the refusal is the same typed error.
        let c = star_star();
        for input in [
            paper_xml(),
            "<newspaper><date>d</date><title>t</title><temp>1</temp></newspaper>".to_owned(),
            "<mystery/>".to_owned(),
        ] {
            let err = verify_stream(&c, &input, &StreamOptions::default()).unwrap_err();
            assert_eq!(err, refused(&c, &input).unwrap_err(), "{input}");
        }
    }

    #[test]
    fn rewrite_stream_clean_fallback_before_first_byte() {
        // A root-level anomaly (unknown element) falls back before any
        // byte is written, so the direct-sink path still succeeds.
        let c = star_star();
        let input = "<mystery/>";
        let mut sink = Vec::new();
        let mut inv = scripted();
        let err = Rewriter::new(&c)
            .rewrite_stream(input, Strategy::Safe, &mut *inv, &mut sink)
            .unwrap_err();
        // The DOM pipeline rejects it too; the typed error is its verdict.
        let dom_err = enforce_dom(&c, input, &StreamOptions::default(), &mut || scripted())
            .unwrap_err();
        assert_eq!(err, dom_err);
    }
}
