//! Text-to-text schema enforcement: the DOM reference pipeline.
//!
//! The XML text of an intensional document is parsed (`parse_document`),
//! decoded ([`ITree::from_xml`]), validated or rewritten by the one Schema
//! Enforcement module ([`Rewriter`]'s validate-or-rewrite, Sec. 7) and
//! written back in the compact normal form ([`ITree::write_xml`]). The single-frame ship
//! (`RemotePeer::ship_document`) enforces through [`enforce_stream_with`],
//! and tests and benchmarks take [`enforce_dom`] as the reference output
//! for a text. A sender that holds a tree calls `rewrite::enforce_with` on
//! it instead, with no text in between.
//!
//! The pipeline holds the whole input, its DOM and its tree at once; it
//! bounds no process's memory.

use crate::invoke::Invoker;
use crate::rewrite::{RewriteError, RewriteReport, Rewriter, Strategy};
use crate::solve_cache::SolveCache;
use axml_schema::{Compiled, ITree};
use axml_xml::parse_document;

/// Options for text-to-text enforcement.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Depth bound `k` of the rewriting (Def. 7).
    pub k: u32,
    /// Safe or possible rewriting.
    pub strategy: Strategy,
    /// Shared solver cache; `None` uses a private unpublished cache, built
    /// only if a game is solved.
    pub cache: Option<SolveCache>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            k: 2,
            strategy: Strategy::Safe,
            cache: None,
        }
    }
}

/// Statistics of one [`enforce_stream_with`] run.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    /// Invocation and game statistics of the rewriting.
    pub rewrite: RewriteReport,
    /// Input bytes held while enforcing: the whole input's length.
    pub peak_buffer_bytes: u64,
}

/// The DOM reference pipeline: parse, decode, validate-or-rewrite, write in
/// the compact normal form. `make_invoker` builds the invoker the run
/// calls services through.
pub fn enforce_dom<'i>(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    make_invoker: &mut dyn FnMut() -> Box<dyn Invoker + Send + 'i>,
) -> Result<(String, RewriteReport), RewriteError> {
    enforce_text(compiled, input, opts, &mut *make_invoker())
}

/// [`enforce_dom`] through a borrowed [`Invoker`], with a [`StreamReport`].
pub fn enforce_stream_with(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    invoker: &mut dyn Invoker,
) -> Result<(String, StreamReport), RewriteError> {
    let (out, rewrite) = enforce_text(compiled, input, opts, invoker)?;
    let report = StreamReport {
        rewrite,
        peak_buffer_bytes: input.len() as u64,
    };
    Ok((out, report))
}

fn enforce_text(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    invoker: &mut dyn Invoker,
) -> Result<(String, RewriteReport), RewriteError> {
    let doc = parse_document(input).map_err(|e| RewriteError::Invalid(e.to_string()))?;
    let tree = ITree::from_xml(&doc.root).map_err(RewriteError::Invalid)?;
    let mut rw = Rewriter::new(compiled).with_k(opts.k);
    if let Some(cache) = &opts.cache {
        rw = rw.with_cache(cache);
    }
    let (out, report) = rw.enforce(&tree, opts.strategy, invoker)?;
    let mut text = String::with_capacity(input.len());
    out.write_xml(&mut text)
        .expect("writing into a String cannot fail");
    Ok((text, report))
}
