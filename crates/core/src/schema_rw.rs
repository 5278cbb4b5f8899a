//! Schema-to-schema safe rewriting (Sec. 6).
//!
//! To check compatibility between applications, the sender verifies that
//! *every* document its schema `s0` can generate (with root `r`) safely
//! rewrites into the exchange schema `s`. The paper's reduction: rather
//! than testing the infinitely many instances, it suffices to test, for
//! each element type of `s0` reachable from the root, whether a single
//! *virtual function* whose output type is that element's content model can
//! be safely rewritten into the corresponding content model of `s`.
//!
//! We materialize the reduction literally: an auxiliary schema is built by
//! overlaying `s0` onto `s` and adding one must-invoke virtual function
//! `#virt:l` per reachable label `l` with `τ_out(#virt:l) = τ0(l)`; the
//! single-letter word `#virt:l` is then tested for safe rewriting into
//! `τ(l)` at depth `k + 1` (one level is spent expanding the virtual call).

use crate::awk::{Awk, AwkLimits};
use crate::game::{complement_of, BuildMode, Game, Strategy};
use axml_automata::{Dfa, Nfa, Regex};
use axml_schema::{
    overlay, Compiled, CompiledContent, Content, PatternOracle, Schema, SchemaError,
};
use std::collections::BTreeSet;

/// Why a label of `s0` fails to rewrite into `s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Incompatibility {
    /// `s` does not declare the label at all.
    MissingElement(String),
    /// Content kinds disagree in an unfixable way (e.g. `s0` allows
    /// arbitrary subtrees where `s` wants a regular model).
    ContentMismatch {
        /// The label.
        label: String,
        /// Explanation.
        detail: String,
    },
    /// Some instance's children word cannot be safely rewritten.
    NotSafe {
        /// The label.
        label: String,
    },
}

impl std::fmt::Display for Incompatibility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Incompatibility::MissingElement(l) => {
                write!(f, "element '{l}' is not declared by the exchange schema")
            }
            Incompatibility::ContentMismatch { label, detail } => {
                write!(f, "content of '{label}' cannot match: {detail}")
            }
            Incompatibility::NotSafe { label } => {
                write!(f, "some instances of '{label}' cannot be safely rewritten")
            }
        }
    }
}

/// Result of a schema compatibility check.
#[derive(Debug, Clone, Default)]
pub struct CompatReport {
    /// Labels that were checked (reachable from the root in `s0`).
    pub checked: Vec<String>,
    /// Failures; empty iff the schemas are compatible.
    pub failures: Vec<Incompatibility>,
}

impl CompatReport {
    /// True iff `s0` safely rewrites into `s` (Def. 6).
    pub fn compatible(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Checks whether every instance of `s0` rooted at `root` safely rewrites
/// into `s`, with document rewritings of depth `k`.
///
/// The check is *conservative* for wildcard content: a label of `s0` that
/// is only ever reachable under `ANY`-content elements of `s` is still
/// required to conform.
pub fn schema_safe_rewrites(
    s0: &Schema,
    root: &str,
    s: &Schema,
    k: u32,
    oracle: &dyn PatternOracle,
) -> Result<CompatReport, SchemaError> {
    if !s0.elements.contains_key(root) {
        return Err(SchemaError::Undefined {
            name: root.to_owned(),
            context: "schema compatibility root".to_owned(),
        });
    }
    // Labels of s0 reachable from the root through content models.
    let reachable = reachable_labels(s0, root);

    // Auxiliary schema: the exchange schema, s0's extra declarations, and
    // one virtual must-invoke function per reachable label.
    let mut aux = overlay(s, s0)?;
    for label in &reachable {
        if let Some(def) = s0.elements.get(label) {
            if let Content::Model(re) = &def.content {
                let virt = format!("#virt:{label}");
                aux.alphabet.intern(&virt);
                let output = re
                    .map_symbols(&mut |sym| Regex::sym(aux.alphabet.intern(s0.alphabet.name(sym))));
                aux.functions.insert(
                    virt.clone(),
                    axml_schema::FunctionDef {
                        name: virt,
                        input: Regex::Epsilon,
                        output,
                        invocable: true,
                    },
                );
            }
        }
    }
    let compiled = Compiled::new(aux, oracle)?;

    let mut report = CompatReport::default();
    let limits = AwkLimits::default();
    for label in &reachable {
        report.checked.push(label.clone());
        let src = &s0.elements[label].content;
        // The overlay keeps s0's extra declarations around for signature
        // lookups, so missingness must be checked against `s` itself.
        if !s.elements.contains_key(label) {
            report
                .failures
                .push(Incompatibility::MissingElement(label.clone()));
            continue;
        }
        let dst = compiled
            .content_of(label)
            .expect("declared labels have compiled content");
        match (src, dst) {
            (_, CompiledContent::Any) => {}
            (Content::Data, CompiledContent::Data) => {}
            (Content::Data, CompiledContent::Model { dfa, .. }) => {
                // Data content is any word of text leaves: #data* must be
                // included in the target language.
                if !includes_data_star(dfa, &compiled) {
                    report.failures.push(Incompatibility::ContentMismatch {
                        label: label.clone(),
                        detail: "atomic data where the exchange schema requires elements"
                            .to_owned(),
                    });
                }
            }
            (Content::Any, _) => {
                report.failures.push(Incompatibility::ContentMismatch {
                    label: label.clone(),
                    detail: "unconstrained content cannot be guaranteed to conform".to_owned(),
                });
            }
            (Content::Model(_), CompiledContent::Data) => {
                // Conforms only if the source language is {ε}-of-data — the
                // virtual-function game handles the general case below with
                // target language #data*.
                let target = Regex::star(Regex::sym(compiled.data_sym()));
                if !virtual_game_safe(&compiled, label, &target, k, &limits) {
                    report.failures.push(Incompatibility::ContentMismatch {
                        label: label.clone(),
                        detail: "element content where the exchange schema requires atomic data"
                            .to_owned(),
                    });
                }
            }
            (Content::Model(_), CompiledContent::Model { regex, .. }) => {
                let target = regex.clone();
                if !virtual_game_safe(&compiled, label, &target, k, &limits) {
                    report.failures.push(Incompatibility::NotSafe {
                        label: label.clone(),
                    });
                }
            }
        }
    }
    Ok(report)
}

/// Plays the safe game for the single-letter word `#virt:label` against
/// `target` at depth `k + 1`.
fn virtual_game_safe(
    compiled: &Compiled,
    label: &str,
    target: &Regex,
    k: u32,
    limits: &AwkLimits,
) -> bool {
    let Some(virt) = compiled.alphabet().lookup(&format!("#virt:{label}")) else {
        return false;
    };
    let Ok(awk) = Awk::build(&[virt], compiled, k + 1, limits) else {
        return false;
    };
    let comp = complement_of(target, compiled.alphabet().len());
    Game::solve(Strategy::Safe, awk, comp, BuildMode::Lazy).wins()
}

/// Checks `#data* ⊆ lang(dfa)`.
fn includes_data_star(dfa: &Dfa, compiled: &Compiled) -> bool {
    let n = compiled.alphabet().len();
    let data_star = Regex::star(Regex::sym(compiled.data_sym()));
    let data_dfa = Dfa::determinize(&Nfa::thompson(&data_star, n)).completed(n);
    let comp = dfa.completed(n).complemented();
    data_dfa.product(&comp, |a, b| a && b).is_empty_language()
}

/// Labels of `schema` reachable from `root` through element content models.
fn reachable_labels(schema: &Schema, root: &str) -> Vec<String> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut stack = vec![root.to_owned()];
    while let Some(l) = stack.pop() {
        if !seen.insert(l.clone()) {
            continue;
        }
        if let Some(def) = schema.elements.get(&l) {
            if let Content::Model(re) = &def.content {
                for sym in re.symbols() {
                    let name = schema.alphabet.name(sym);
                    if schema.elements.contains_key(name) && !seen.contains(name) {
                        stack.push(name.to_owned());
                    }
                }
            }
        }
    }
    seen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_schema::NoOracle;

    /// The paper's schema (*) (Sec. 2) with root newspaper.
    fn star() -> Schema {
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
            .root("newspaper")
            .build()
            .unwrap()
    }

    fn star_star() -> Schema {
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
            .unwrap()
    }

    fn star3() -> Schema {
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
            .unwrap()
    }

    #[test]
    fn paper_section2_star_rewrites_into_star_star() {
        // Sec. 2: "This schema safely rewrites into the schema of (**) but
        //  does not safely rewrite into the one of (***)."
        let report =
            schema_safe_rewrites(&star(), "newspaper", &star_star(), 1, &NoOracle).unwrap();
        assert!(report.compatible(), "failures: {:?}", report.failures);
        assert!(report.checked.contains(&"newspaper".to_owned()));
        assert!(report.checked.contains(&"exhibit".to_owned()));
    }

    #[test]
    fn paper_section2_star_does_not_rewrite_into_star3() {
        let report = schema_safe_rewrites(&star(), "newspaper", &star3(), 1, &NoOracle).unwrap();
        assert!(!report.compatible());
        assert!(report
            .failures
            .iter()
            .any(|f| matches!(f, Incompatibility::NotSafe { label } if label == "newspaper")));
    }

    #[test]
    fn missing_element_detected() {
        let s0 = Schema::builder()
            .element("r", "extra")
            .data_element("extra")
            .root("r")
            .build()
            .unwrap();
        let s = Schema::builder().element("r", "").build().unwrap();
        let report = schema_safe_rewrites(&s0, "r", &s, 1, &NoOracle).unwrap();
        assert!(!report.compatible());
        assert!(report
            .failures
            .iter()
            .any(|f| matches!(f, Incompatibility::MissingElement(l) if l == "extra")));
        // And r's own content (requiring 'extra') fails too.
        assert!(report
            .failures
            .iter()
            .any(|f| matches!(f, Incompatibility::NotSafe { label } if label == "r")));
    }

    #[test]
    fn identical_schemas_are_compatible() {
        let report = schema_safe_rewrites(&star(), "newspaper", &star(), 1, &NoOracle).unwrap();
        assert!(report.compatible(), "failures: {:?}", report.failures);
    }

    #[test]
    fn data_vs_model_mismatches() {
        let s0 = Schema::builder()
            .element("r", "a")
            .data_element("a")
            .root("r")
            .build()
            .unwrap();
        // s declares a with element content: data 'a' cannot conform.
        let s = Schema::builder()
            .element("r", "a")
            .element("a", "b")
            .data_element("b")
            .build()
            .unwrap();
        let report = schema_safe_rewrites(&s0, "r", &s, 1, &NoOracle).unwrap();
        assert!(!report.compatible());
        assert!(report
            .failures
            .iter()
            .any(|f| matches!(f, Incompatibility::ContentMismatch { label, .. } if label == "a")));
    }

    #[test]
    fn unreachable_incompatibilities_ignored() {
        // s0 has a problematic label 'junk' that the root never reaches.
        let s0 = Schema::builder()
            .element("r", "a")
            .data_element("a")
            .element("junk", "a.a.a")
            .root("r")
            .build()
            .unwrap();
        let s = Schema::builder()
            .element("r", "a")
            .data_element("a")
            .build()
            .unwrap();
        let report = schema_safe_rewrites(&s0, "r", &s, 1, &NoOracle).unwrap();
        assert!(report.compatible(), "failures: {:?}", report.failures);
        assert!(!report.checked.contains(&"junk".to_owned()));
    }

    #[test]
    fn depth_is_respected() {
        // s0's r may contain Get_Exhibits; s requires exhibit*. Flattening
        // the returned handles needs document depth 2.
        let mk = |root_model: &str| {
            Schema::builder()
                .element("r", root_model)
                .element("exhibit", "")
                .function("Get_Exhibits", "", "Get_Exhibit*")
                .function("Get_Exhibit", "", "exhibit")
                .root("r")
                .build()
                .unwrap()
        };
        let s0 = mk("Get_Exhibits|exhibit*");
        let s = mk("exhibit*");
        let r1 = schema_safe_rewrites(&s0, "r", &s, 1, &NoOracle).unwrap();
        assert!(!r1.compatible());
        let r2 = schema_safe_rewrites(&s0, "r", &s, 2, &NoOracle).unwrap();
        assert!(r2.compatible(), "failures: {:?}", r2.failures);
    }

    #[test]
    fn bad_root_is_an_error() {
        assert!(schema_safe_rewrites(&star(), "ghost", &star(), 1, &NoOracle).is_err());
    }
}
