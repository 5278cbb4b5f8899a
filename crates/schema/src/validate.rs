//! Document validation (Def. 3 of the paper).
//!
//! A document is an instance of a schema if, for every data node, the labels
//! of its children form a word in the content model of its label, and for
//! every function node the children (parameters) form a word in the
//! function's input type — recursively.

use crate::compile::{Compiled, CompiledContent};
use crate::def::SchemaError;
use crate::doc::ITree;
use axml_automata::Symbol;

/// Validates `tree` against the compiled schema.
pub fn validate(tree: &ITree, compiled: &Compiled) -> Result<(), SchemaError> {
    match tree {
        ITree::Text(_) => Ok(()),
        ITree::Elem { label, children } => {
            let sym = compiled.classify_label(label);
            let content = compiled.content(sym).ok_or_else(|| SchemaError::Invalid {
                message: format!("unknown element label '{label}'"),
            })?;
            validate_element(label, children, content, compiled)
        }
        ITree::Func(f) => {
            let sig = compiled.sig_of(&f.name);
            let word = words_of(&f.params, compiled).map_err(|m| SchemaError::Invalid {
                message: format!("in parameters of {}: {m}", f.name),
            })?;
            if !sig.input_dfa.accepts(&word) {
                return Err(SchemaError::Invalid {
                    message: format!(
                        "parameters of '{}' do not match its input type (got {})",
                        f.name,
                        compiled.show_word(&word)
                    ),
                });
            }
            for p in &f.params {
                validate(p, compiled)?;
            }
            Ok(())
        }
    }
}

fn validate_element(
    label: &str,
    children: &[ITree],
    content: &CompiledContent,
    compiled: &Compiled,
) -> Result<(), SchemaError> {
    match content {
        CompiledContent::Any => Ok(()),
        CompiledContent::Data => {
            if children.iter().all(|c| matches!(c, ITree::Text(_))) {
                Ok(())
            } else {
                Err(SchemaError::Invalid {
                    message: format!("'{label}' is atomic (data) but has non-text children"),
                })
            }
        }
        CompiledContent::Model { dfa, .. } => {
            let word = words_of(children, compiled).map_err(|m| SchemaError::Invalid {
                message: format!("in children of '{label}': {m}"),
            })?;
            if !dfa.accepts(&word) {
                return Err(SchemaError::Invalid {
                    message: format!(
                        "children of '{label}' ({}) do not match its content model",
                        compiled.show_word(&word)
                    ),
                });
            }
            for c in children {
                validate(c, compiled)?;
            }
            Ok(())
        }
    }
}

/// Maps a forest of children onto effective-alphabet symbols.
///
/// Text children classify to the `#data` symbol, matched by the `data`
/// particle (used in function signatures, e.g. `τ_in(TimeOut) = data`).
pub fn words_of(children: &[ITree], compiled: &Compiled) -> Result<Vec<Symbol>, String> {
    Ok(children
        .iter()
        .map(|c| match c {
            ITree::Elem { label, .. } => compiled.classify_label(label),
            ITree::Func(f) => compiled.classify_func(&f.name),
            ITree::Text(_) => compiled.data_sym(),
        })
        .collect())
}

/// Validates a *forest* as an output instance of type `output_dfa`
/// (Def. 3: root labels form a word in `τ_out(f)`, each tree an instance).
pub fn validate_output_instance(
    trees: &[ITree],
    sig_output: &axml_automata::Dfa,
    compiled: &Compiled,
) -> Result<(), SchemaError> {
    let word = words_of(trees, compiled).map_err(|m| SchemaError::Invalid { message: m })?;
    if !sig_output.accepts(&word) {
        return Err(SchemaError::Invalid {
            message: format!(
                "returned forest ({}) does not match the output type",
                compiled.show_word(&word)
            ),
        });
    }
    for t in trees {
        validate(t, compiled)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::{NoOracle, Predicate, Schema};
    use crate::doc::newspaper_example;

    fn compiled(schema: Schema) -> Compiled {
        Compiled::new(schema, &NoOracle).unwrap()
    }

    fn paper_star() -> Compiled {
        compiled(
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
        )
    }

    fn paper_star_star() -> Compiled {
        // Schema (**): temp must be materialized.
        compiled(
            Schema::builder()
                .element("newspaper", "title.date.temp.(TimeOut|exhibit*)")
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
        )
    }

    #[test]
    fn figure2_document_is_instance_of_star() {
        // "It is easy to see that the document of Figure 2.a is an instance
        //  of the schema of (*)" — Sec. 2.
        let doc = newspaper_example();
        validate(&doc, &paper_star()).unwrap();
    }

    #[test]
    fn figure2_document_is_not_instance_of_star_star() {
        // "... but not of a schema with τ′" — Sec. 2.
        let doc = newspaper_example();
        let err = validate(&doc, &paper_star_star()).unwrap_err();
        assert!(matches!(err, SchemaError::Invalid { .. }));
    }

    #[test]
    fn materialized_document_is_instance_of_star_star() {
        // Fig. 2.b: Get_Temp replaced by its result.
        let doc = ITree::elem(
            "newspaper",
            vec![
                ITree::data("title", "The Sun"),
                ITree::data("date", "04/10/2002"),
                ITree::data("temp", "15 C"),
                ITree::func("TimeOut", vec![ITree::text("exhibits")]),
            ],
        );
        validate(&doc, &paper_star_star()).unwrap();
    }

    #[test]
    fn bad_parameters_detected() {
        // Get_Temp expects a city parameter, not a date.
        let doc = ITree::elem(
            "newspaper",
            vec![
                ITree::data("title", "t"),
                ITree::data("date", "d"),
                ITree::func("Get_Temp", vec![ITree::data("date", "x")]),
                ITree::func("TimeOut", vec![ITree::text("y")]),
            ],
        );
        let err = validate(&doc, &paper_star()).unwrap_err();
        assert!(err.to_string().contains("Get_Temp"), "{err}");
    }

    #[test]
    fn data_elements_must_hold_text_only() {
        let doc = ITree::elem("title", vec![ITree::data("date", "x")]);
        assert!(validate(&doc, &paper_star()).is_err());
        let ok = ITree::data("title", "fine");
        validate(&ok, &paper_star()).unwrap();
    }

    #[test]
    fn unknown_label_rejected() {
        let doc = ITree::elem("mystery", vec![]);
        assert!(validate(&doc, &paper_star()).is_err());
    }

    #[test]
    fn nested_instances_checked_recursively() {
        // exhibit inside newspaper must itself conform.
        let good = ITree::elem(
            "newspaper",
            vec![
                ITree::data("title", "t"),
                ITree::data("date", "d"),
                ITree::data("temp", "15"),
                ITree::elem(
                    "exhibit",
                    vec![
                        ITree::data("title", "expo"),
                        ITree::func("Get_Date", vec![ITree::data("title", "expo")]),
                    ],
                ),
            ],
        );
        validate(&good, &paper_star()).unwrap();
        let bad = ITree::elem(
            "newspaper",
            vec![
                ITree::data("title", "t"),
                ITree::data("date", "d"),
                ITree::data("temp", "15"),
                ITree::elem("exhibit", vec![ITree::data("date", "backwards")]),
            ],
        );
        assert!(validate(&bad, &paper_star()).is_err());
    }

    #[test]
    fn pattern_matched_function_validates() {
        let c = compiled(
            Schema::builder()
                .element("r", "Forecast|temp")
                .data_element("temp")
                .data_element("city")
                .pattern(
                    "Forecast",
                    Predicate::NamePrefix("Get_".into()),
                    "city",
                    "temp",
                )
                .function("Get_Berlin_Temp", "city", "temp")
                .build()
                .unwrap(),
        );
        let doc = ITree::elem(
            "r",
            vec![ITree::func(
                "Get_Berlin_Temp",
                vec![ITree::data("city", "B")],
            )],
        );
        validate(&doc, &c).unwrap();
        // A function with the wrong name prefix does not match the pattern.
        let c2 = compiled(
            Schema::builder()
                .element("r", "Forecast|temp")
                .data_element("temp")
                .data_element("city")
                .pattern(
                    "Forecast",
                    Predicate::NamePrefix("Get_".into()),
                    "city",
                    "temp",
                )
                .function("FetchTemp", "city", "temp")
                .build()
                .unwrap(),
        );
        let doc2 = ITree::elem(
            "r",
            vec![ITree::func("FetchTemp", vec![ITree::data("city", "B")])],
        );
        assert!(validate(&doc2, &c2).is_err());
    }

    #[test]
    fn wildcard_content_accepts_anything() {
        let c = compiled(
            Schema::builder()
                .element("r", "blob")
                .any_element("blob")
                .build()
                .unwrap(),
        );
        let doc = ITree::elem(
            "r",
            vec![ITree::elem(
                "blob",
                vec![
                    ITree::elem("unknown", vec![ITree::text("x")]),
                    ITree::func("mystery_fn", vec![]),
                ],
            )],
        );
        validate(&doc, &c).unwrap();
    }

    #[test]
    fn output_instance_validation() {
        let c = paper_star();
        let sig = c.sig_of("TimeOut");
        let ok = vec![
            ITree::elem(
                "exhibit",
                vec![ITree::data("title", "a"), ITree::data("date", "d")],
            ),
            ITree::elem("performance", vec![ITree::text("p")]),
        ];
        validate_output_instance(&ok, &sig.output_dfa, &c).unwrap();
        let bad = vec![ITree::data("temp", "xx")];
        assert!(validate_output_instance(&bad, &sig.output_dfa, &c).is_err());
    }

    #[test]
    fn refusals_name_at_most_32_symbols_of_a_word() {
        let c = paper_star();
        let titles = |n: usize| vec![ITree::data("title", "t"); n];
        let word = |n: usize| vec!["title"; n].join(".");
        let refusal = |doc: &ITree| validate(doc, &c).unwrap_err().to_string();
        let at_32 = refusal(&ITree::elem("newspaper", titles(32)));
        assert!(
            at_32.contains(&format!("children of 'newspaper' ({}) do not", word(32))),
            "{at_32}"
        );
        assert!(!at_32.contains("more)"), "{at_32}");
        let at_33 = refusal(&ITree::elem("newspaper", titles(33)));
        assert!(
            at_33.contains(&format!("({}…(+1 more)) do not", word(32))),
            "{at_33}"
        );
        let params = refusal(&ITree::func("Get_Date", titles(40)));
        assert!(
            params.contains(&format!("(got {}…(+8 more))", word(32))),
            "{params}"
        );
        let sig = c.sig_of("Get_Date");
        let forest = validate_output_instance(&titles(33), &sig.output_dfa, &c)
            .unwrap_err()
            .to_string();
        assert!(
            forest.contains(&format!("forest ({}…(+1 more))", word(32))),
            "{forest}"
        );
    }

    #[test]
    fn mixed_content_rejected_in_regular_models() {
        let doc = ITree::elem(
            "newspaper",
            vec![
                ITree::text("stray"),
                ITree::data("title", "t"),
                ITree::data("date", "d"),
                ITree::data("temp", "15"),
            ],
        );
        assert!(validate(&doc, &paper_star()).is_err());
    }
}
