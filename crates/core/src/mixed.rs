//! The mixed approach (Sec. 5, "A Mixed Approach").
//!
//! Safe rewriting pays for its guarantee with a large `A_w^k`: every
//! possible output of every call is accounted for. When some calls are
//! cheap and side-effect free, it is better to *just invoke them* and
//! continue the analysis with their actual results — the full signature
//! automaton `A_f` is replaced by the (much smaller) word that actually
//! came back.
//!
//! [`rewrite_mixed`] implements this: a policy designates the eagerly
//! invocable functions; a pre-materialization pass invokes them (up to `k`
//! rounds, since answers may contain more calls) and splices the validated
//! results; the ordinary safe rewriting then runs on the partially
//! materialized document. The pass is [`materialize`], the same walk a
//! peer's repository enriches its documents with.

use crate::invoke::Invoker;
use crate::rewrite::{RewriteError, RewriteReport, Rewriter};
use axml_schema::{validate_output_instance, Compiled, FuncNode, ITree};

/// Decides which calls to execute eagerly during the pre-materialization
/// pass — typically the side-effect-free / zero-cost ones (Sec. 5).
pub trait MixedPolicy {
    /// True if `function` may be invoked eagerly.
    fn pre_invoke(&self, function: &str) -> bool;
}

impl<F: Fn(&str) -> bool> MixedPolicy for F {
    fn pre_invoke(&self, function: &str) -> bool {
        self(function)
    }
}

/// Executes a mixed rewriting: eagerly materialize policy-selected calls,
/// then safely rewrite the rest.
///
/// Returns the rewritten tree and a combined report (pre-materialization
/// calls are included in `invoked`).
pub fn rewrite_mixed(
    rewriter: &mut Rewriter<'_>,
    tree: &ITree,
    policy: &dyn MixedPolicy,
    invoker: &mut dyn Invoker,
) -> Result<(ITree, RewriteReport), RewriteError> {
    let compiled = rewriter.compiled();
    let eager =
        |name: &str| policy.pre_invoke(name) && compiled.invocable(compiled.classify_func(name));
    let mut report = RewriteReport::default();
    let mut current = tree.clone();
    for _ in 0..rewriter.k {
        let before = report.invoked.len();
        current = materialize(
            compiled,
            &current,
            &eager,
            rewriter.max_calls,
            invoker,
            &mut report.invoked,
        )?;
        if report.invoked.len() == before {
            break;
        }
    }
    let (out, safe_report) = rewriter.rewrite_safe(&current, invoker)?;
    report.invoked.extend(safe_report.invoked);
    report.games += safe_report.games;
    report.wasted_calls += safe_report.wasted_calls;
    Ok((out, report))
}

/// One select-driven materialization pass: every call among an element's
/// children or a call's parameters that `select` accepts is invoked, and
/// its answer, validated against the function's output type, replaces it.
/// Calls left in place get their parameters walked. Answers are spliced
/// as they are, so calls they contain wait for the next pass. Each
/// invoked name is appended to `invoked`; with a `max_calls` budget, a
/// call once `invoked` holds that many names fails with
/// [`RewriteError::CallBudget`] before it is made.
pub fn materialize(
    compiled: &Compiled,
    tree: &ITree,
    select: &dyn Fn(&str) -> bool,
    max_calls: Option<usize>,
    invoker: &mut dyn Invoker,
    invoked: &mut Vec<String>,
) -> Result<ITree, RewriteError> {
    let mut forest =
        |items| materialize_forest(compiled, items, select, max_calls, invoker, invoked);
    Ok(match tree {
        ITree::Text(_) => tree.clone(),
        ITree::Elem { label, children } => ITree::elem(label, forest(children)?),
        ITree::Func(f) => ITree::Func(FuncNode {
            name: f.name.clone(),
            endpoint: f.endpoint.clone(),
            namespace: f.namespace.clone(),
            params: forest(&f.params)?,
        }),
    })
}

/// [`materialize`] over a forest: selected calls are invoked and their
/// answers spliced in their place; every other item is walked.
fn materialize_forest(
    compiled: &Compiled,
    items: &[ITree],
    select: &dyn Fn(&str) -> bool,
    max_calls: Option<usize>,
    invoker: &mut dyn Invoker,
    invoked: &mut Vec<String>,
) -> Result<Vec<ITree>, RewriteError> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let f = match item {
            ITree::Func(f) if select(&f.name) => f,
            _ => {
                out.push(materialize(
                    compiled, item, select, max_calls, invoker, invoked,
                )?);
                continue;
            }
        };
        if let Some(max) = max_calls {
            if invoked.len() >= max {
                return Err(RewriteError::CallBudget { max_calls: max });
            }
        }
        let result = invoker.invoke(&f.name, &f.params)?;
        invoked.push(f.name.clone());
        let sig = compiled.sig_of(&f.name);
        validate_output_instance(&result, &sig.output_dfa, compiled).map_err(|e| {
            RewriteError::IllTyped {
                function: f.name.clone(),
                message: e.to_string(),
            }
        })?;
        out.extend(result);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invoke::ScriptedInvoker;
    use axml_schema::{validate, Compiled, NoOracle, Schema};

    fn compiled() -> Compiled {
        Compiled::new(
            Schema::builder()
                .element("newspaper", "title.date.temp.exhibit*")
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

    fn newspaper() -> ITree {
        ITree::elem(
            "newspaper",
            vec![
                ITree::data("title", "The Sun"),
                ITree::data("date", "04/10/2002"),
                ITree::func("Get_Temp", vec![ITree::data("city", "Paris")]),
                ITree::func("TimeOut", vec![ITree::text("exhibits")]),
            ],
        )
    }

    #[test]
    fn mixed_succeeds_where_pure_safe_fails() {
        // Schema (***) is unsafe for the newspaper document because TimeOut
        // may return performances. Pre-invoking TimeOut (declared
        // side-effect free by policy) resolves the uncertainty: its actual
        // answer contains only exhibits, and the rest is safely rewritten.
        let c = compiled();
        let mut rw = Rewriter::new(&c).with_k(1);
        // Pure safe rewriting fails.
        assert!(rw.analyze_safe(&newspaper()).is_err());
        // Mixed: TimeOut is cheap, pre-invoke it.
        let mut inv = ScriptedInvoker::new()
            .answer(
                "TimeOut",
                vec![ITree::elem(
                    "exhibit",
                    vec![ITree::data("title", "Expo"), ITree::data("date", "Mon")],
                )],
            )
            .answer("Get_Temp", vec![ITree::data("temp", "15 C")]);
        let policy = |name: &str| name == "TimeOut";
        let (out, report) = rewrite_mixed(&mut rw, &newspaper(), &policy, &mut inv).unwrap();
        validate(&out, &c).unwrap();
        assert_eq!(
            report.invoked,
            vec!["TimeOut".to_owned(), "Get_Temp".to_owned()]
        );
        assert_eq!(out.num_funcs(), 0);
    }

    #[test]
    fn mixed_fails_when_actual_answer_unlucky() {
        // Pre-invoked TimeOut returns a performance: the materialized
        // document can no longer fit (***) and safe rewriting fails.
        let c = compiled();
        let mut rw = Rewriter::new(&c).with_k(1);
        let mut inv = ScriptedInvoker::new().answer(
            "TimeOut",
            vec![ITree::elem("performance", vec![ITree::text("Hamlet")])],
        );
        let policy = |name: &str| name == "TimeOut";
        let err = rewrite_mixed(&mut rw, &newspaper(), &policy, &mut inv).unwrap_err();
        assert!(matches!(err, RewriteError::NotSafe { .. }), "{err}");
        assert_eq!(inv.calls(), 1, "only the pre-invocation happened");
    }

    #[test]
    fn empty_policy_reduces_to_safe_rewriting() {
        let c = Compiled::new(
            Schema::builder()
                .element("r", "a")
                .data_element("a")
                .function("f", "", "a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let mut rw = Rewriter::new(&c).with_k(1);
        let doc = ITree::elem("r", vec![ITree::func("f", vec![])]);
        let mut inv = ScriptedInvoker::new().answer("f", vec![ITree::data("a", "1")]);
        let policy = |_: &str| false;
        let (out, report) = rewrite_mixed(&mut rw, &doc, &policy, &mut inv).unwrap();
        assert_eq!(report.invoked, vec!["f".to_owned()]);
        assert_eq!(out, ITree::elem("r", vec![ITree::data("a", "1")]));
    }

    #[test]
    fn pre_materialization_rounds_follow_nested_answers() {
        // handle -> handle -> a : two rounds of eager materialization.
        let c = Compiled::new(
            Schema::builder()
                .element("r", "a")
                .data_element("a")
                .function("h1", "", "h2")
                .function("h2", "", "a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let mut rw = Rewriter::new(&c).with_k(2);
        let doc = ITree::elem("r", vec![ITree::func("h1", vec![])]);
        let mut inv = ScriptedInvoker::new()
            .answer("h1", vec![ITree::func("h2", vec![])])
            .answer("h2", vec![ITree::data("a", "1")]);
        let policy = |_: &str| true;
        let (out, report) = rewrite_mixed(&mut rw, &doc, &policy, &mut inv).unwrap();
        assert_eq!(out, ITree::elem("r", vec![ITree::data("a", "1")]));
        assert_eq!(report.invoked, vec!["h1".to_owned(), "h2".to_owned()]);
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::invoke::ScriptedInvoker;
    use axml_schema::{Compiled, NoOracle, Schema};

    #[test]
    fn mixed_pre_pass_respects_call_budget() {
        let c = Compiled::new(
            Schema::builder()
                .element("r", "a.a")
                .data_element("a")
                .function("f", "", "a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let doc = ITree::elem(
            "r",
            vec![ITree::func("f", vec![]), ITree::func("f", vec![])],
        );
        let mut inv = ScriptedInvoker::new().answer("f", vec![ITree::data("a", "1")]);
        let mut rw = crate::rewrite::Rewriter::new(&c)
            .with_k(1)
            .with_max_calls(1);
        let policy = |_: &str| true;
        let err = rewrite_mixed(&mut rw, &doc, &policy, &mut inv).unwrap_err();
        assert!(
            matches!(err, RewriteError::CallBudget { max_calls: 1 }),
            "{err}"
        );
        assert_eq!(inv.calls(), 1);
    }
}
