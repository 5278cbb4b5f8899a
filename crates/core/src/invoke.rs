//! The service-invocation boundary.
//!
//! Rewriting *executes* against live services: when the strategy decides to
//! materialize a call, the function is invoked with its (materialized)
//! parameters and the returned forest is spliced in place of the function
//! node (Def. 4). This module defines the trait the rewriter calls through;
//! `axml-services` provides real (simulated) implementations.

use axml_schema::ITree;
use std::collections::HashMap;
use std::fmt;

/// Error returned by a service invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeError {
    /// The function that failed.
    pub function: String,
    /// Why.
    pub message: String,
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invocation of '{}' failed: {}",
            self.function, self.message
        )
    }
}

impl std::error::Error for InvokeError {}

/// Something that can execute Web-service calls.
pub trait Invoker {
    /// Invokes `function` with the given (already materialized) parameters
    /// and returns the result forest.
    fn invoke(&mut self, function: &str, params: &[ITree]) -> Result<Vec<ITree>, InvokeError>;
}

/// A scripted invoker for tests: each function name maps to a queue of
/// canned answers, replayed in order (the last answer repeats forever).
#[derive(Debug, Default, Clone)]
pub struct ScriptedInvoker {
    answers: HashMap<String, Vec<Vec<ITree>>>,
    cursor: HashMap<String, usize>,
    /// Every call made, in order: `(function, params)`.
    pub log: Vec<(String, Vec<ITree>)>,
}

impl ScriptedInvoker {
    /// Creates an empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one canned answer for `function` (queued after existing ones).
    pub fn answer(mut self, function: &str, forest: Vec<ITree>) -> Self {
        self.answers
            .entry(function.to_owned())
            .or_default()
            .push(forest);
        self
    }

    /// Number of calls made so far.
    pub fn calls(&self) -> usize {
        self.log.len()
    }
}

/// An invoker that refuses every call. Useful where an enforcement pass
/// must not reach any service, so that any attempted call surfaces as a
/// hard error — e.g. a benchmark timing the enforcement engine on a
/// receiver's schema. Receivers themselves never need it: they validate
/// what arrives and never run the rewriting engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct RefusingInvoker;

impl Invoker for RefusingInvoker {
    fn invoke(&mut self, function: &str, _params: &[ITree]) -> Result<Vec<ITree>, InvokeError> {
        Err(InvokeError {
            function: function.to_owned(),
            message: "invocation refused".to_owned(),
        })
    }
}

impl Invoker for ScriptedInvoker {
    fn invoke(&mut self, function: &str, params: &[ITree]) -> Result<Vec<ITree>, InvokeError> {
        self.log.push((function.to_owned(), params.to_vec()));
        let answers = self.answers.get(function).ok_or_else(|| InvokeError {
            function: function.to_owned(),
            message: "no scripted answer".to_owned(),
        })?;
        let i = self.cursor.entry(function.to_owned()).or_insert(0);
        let answer = answers
            .get(*i)
            .or_else(|| answers.last())
            .ok_or_else(|| InvokeError {
                function: function.to_owned(),
                message: "empty script".to_owned(),
            })?;
        *i += 1;
        Ok(answer.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_answers_replay_in_order_then_repeat() {
        let mut inv = ScriptedInvoker::new()
            .answer("f", vec![ITree::data("a", "1")])
            .answer("f", vec![ITree::data("a", "2")]);
        assert_eq!(inv.invoke("f", &[]).unwrap()[0], ITree::data("a", "1"));
        assert_eq!(inv.invoke("f", &[]).unwrap()[0], ITree::data("a", "2"));
        assert_eq!(inv.invoke("f", &[]).unwrap()[0], ITree::data("a", "2"));
        assert_eq!(inv.calls(), 3);
        assert!(inv.invoke("ghost", &[]).is_err());
    }
}
