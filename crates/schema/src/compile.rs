//! Schema compilation onto a finite *effective alphabet*.
//!
//! Content models range over particles: concrete labels, concrete functions,
//! function patterns and wildcards. Patterns and wildcards denote open-ended
//! sets of names, but all the paper's algorithms are automata constructions
//! over a finite alphabet. The standard fix is to quotient the infinite name
//! space by the particles in play:
//!
//! * every concrete label/function declared in the schema is its own symbol;
//! * unknown functions are represented by *class symbols*, one per feasible
//!   set of patterns they might satisfy (patterns can only be co-satisfied
//!   when their signatures agree, which keeps the enumeration tiny);
//! * `#anyfun` stands for unknown functions satisfying no pattern (matched
//!   only by the `ANYFUN` wildcard) and `#anyelem` for unknown element
//!   labels (matched only by `ANY`).
//!
//! A particle then *expands* to the alternation of all symbols it matches,
//! and every regular expression of the schema is rewritten over the
//! effective alphabet once and for all.

use crate::def::{Content, PatternOracle, Schema, SchemaError, ANY_ELEMENT, ANY_FUNCTION, DATA};
use axml_automata::{Alphabet, Dfa, Glushkov, Nfa, Regex, Symbol};
use std::collections::BTreeMap;

/// Symbols of a refused word that a refusal names; the rest are counted.
/// A peer's word can run to megabytes, and a refusal goes back to it.
const WORD_SHOWN: usize = 32;

/// Cap on declared patterns (class enumeration is exponential per
/// signature group; real schemas use a handful).
pub const MAX_PATTERNS: usize = 12;

/// The kind of an effective-alphabet symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymKind {
    /// A concrete element label.
    Label,
    /// A concrete declared function.
    Function,
    /// A class of unknown functions satisfying a specific pattern set.
    Class,
    /// Unknown functions satisfying no pattern (`#anyfun`).
    AnyFun,
    /// Unknown element labels (`#anyelem`).
    AnyElem,
    /// An atomic data value (`#data`, text content).
    Data,
}

/// Compiled content of an element type.
#[derive(Debug, Clone)]
pub enum CompiledContent {
    /// Atomic data.
    Data,
    /// Unconstrained subtree.
    Any,
    /// A regular model: expanded regex plus its (complete-free) DFA.
    Model {
        /// Regex over the effective alphabet.
        regex: Regex,
        /// Determinized automaton used for validation.
        dfa: Dfa,
    },
}

/// Signature of a function-like symbol (function, class, or `#anyfun`).
#[derive(Debug, Clone)]
pub struct SigInfo {
    /// Input type over the effective alphabet.
    pub input: Regex,
    /// Output type over the effective alphabet.
    pub output: Regex,
    /// DFA for the input type (validation of parameters).
    pub input_dfa: Dfa,
    /// DFA for the output type (validation of returned data).
    pub output_dfa: Dfa,
    /// Whether a rewriting may invoke calls classified to this symbol.
    pub invocable: bool,
}

/// A schema compiled over its effective alphabet.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The source schema (typically the merge of sender and exchange
    /// declarations).
    pub schema: Schema,
    alphabet: Alphabet,
    kinds: Vec<SymKind>,
    content: Vec<Option<CompiledContent>>,
    sigs: Vec<Option<SigInfo>>,
    anyelem: Symbol,
    anyfun: Symbol,
    data: Symbol,
    fingerprint: std::sync::OnceLock<u64>,
}

impl Compiled {
    /// Compiles `schema`, evaluating pattern predicates on declared
    /// functions through `oracle`.
    pub fn new(schema: Schema, oracle: &dyn PatternOracle) -> Result<Compiled, SchemaError> {
        if schema.patterns.len() > MAX_PATTERNS {
            return Err(SchemaError::TooManyPatterns {
                count: schema.patterns.len(),
                max: MAX_PATTERNS,
            });
        }
        let mut alphabet = Alphabet::new();
        let mut kinds = Vec::new();
        let push = |alphabet: &mut Alphabet, kinds: &mut Vec<SymKind>, name: &str, k: SymKind| {
            let s = alphabet.intern(name);
            if s as usize == kinds.len() {
                kinds.push(k);
            }
            s
        };
        for name in schema.elements.keys() {
            push(&mut alphabet, &mut kinds, name, SymKind::Label);
        }
        for name in schema.functions.keys() {
            push(&mut alphabet, &mut kinds, name, SymKind::Function);
        }
        // Membership of declared functions in patterns: name predicate holds
        // and the signature (at particle level) is identical.
        let pattern_names: Vec<&String> = schema.patterns.keys().collect();
        let mut func_patterns: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for f in schema.functions.values() {
            let mut member = Vec::new();
            for p in schema.patterns.values() {
                if p.predicate.eval(&f.name, oracle) && p.input == f.input && p.output == f.output {
                    member.push(p.name.clone());
                }
            }
            func_patterns.insert(f.name.clone(), member);
        }
        // Feasible class symbols: non-empty subsets of patterns sharing one
        // signature.
        let mut sig_groups: BTreeMap<(String, String), Vec<&String>> = BTreeMap::new();
        for name in &pattern_names {
            let p = &schema.patterns[*name];
            let key = (
                p.input.display(&schema.alphabet).to_string(),
                p.output.display(&schema.alphabet).to_string(),
            );
            sig_groups.entry(key).or_default().push(name);
        }
        // class name -> (pattern subset)
        let mut classes: Vec<(Symbol, Vec<String>)> = Vec::new();
        for group in sig_groups.values() {
            let m = group.len();
            for mask in 1u32..(1 << m) {
                let subset: Vec<String> = (0..m)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| group[i].clone())
                    .collect();
                let cname = format!("#class:{}", subset.join("+"));
                let sym = push(&mut alphabet, &mut kinds, &cname, SymKind::Class);
                classes.push((sym, subset));
            }
        }
        let anyfun = push(&mut alphabet, &mut kinds, "#anyfun", SymKind::AnyFun);
        let anyelem = push(&mut alphabet, &mut kinds, "#anyelem", SymKind::AnyElem);
        let data = push(&mut alphabet, &mut kinds, "#data", SymKind::Data);

        // Particle expansion over the effective alphabet.
        let expand = |re: &Regex, alphabet: &Alphabet| -> Result<Regex, SchemaError> {
            let mut err = None;
            let out = re.map_symbols(&mut |sym| {
                let name = schema.alphabet.name(sym);
                match name {
                    DATA => Regex::sym(data),
                    ANY_ELEMENT => {
                        let mut branches: Vec<Regex> = schema
                            .elements
                            .keys()
                            .map(|l| Regex::sym(alphabet.lookup(l).expect("interned")))
                            .collect();
                        branches.push(Regex::sym(anyelem));
                        Regex::alt(branches)
                    }
                    ANY_FUNCTION => {
                        let mut branches: Vec<Regex> = schema
                            .functions
                            .keys()
                            .map(|f| Regex::sym(alphabet.lookup(f).expect("interned")))
                            .collect();
                        branches.extend(classes.iter().map(|(s, _)| Regex::sym(*s)));
                        branches.push(Regex::sym(anyfun));
                        Regex::alt(branches)
                    }
                    _ => {
                        if schema.elements.contains_key(name) || schema.functions.contains_key(name)
                        {
                            Regex::sym(alphabet.lookup(name).expect("interned"))
                        } else if schema.patterns.contains_key(name) {
                            let mut branches: Vec<Regex> = schema
                                .functions
                                .values()
                                .filter(|f| func_patterns[&f.name].contains(&name.to_owned()))
                                .map(|f| Regex::sym(alphabet.lookup(&f.name).expect("interned")))
                                .collect();
                            branches.extend(
                                classes
                                    .iter()
                                    .filter(|(_, subset)| subset.iter().any(|p| p == name))
                                    .map(|(s, _)| Regex::sym(*s)),
                            );
                            Regex::alt(branches)
                        } else {
                            err = Some(SchemaError::Undefined {
                                name: name.to_owned(),
                                context: "expansion".to_owned(),
                            });
                            Regex::Empty
                        }
                    }
                }
            });
            match err {
                Some(e) => Err(e),
                None => Ok(out),
            }
        };

        let n_syms = alphabet.len();
        let to_dfa = |re: &Regex| -> Dfa {
            // Glushkov when deterministic (cheap), subset construction
            // otherwise — expansion can merge particles onto one symbol.
            let g = Glushkov::new(re, n_syms);
            match g.to_dfa() {
                Ok(dfa) => dfa,
                Err(_) => Dfa::determinize(&Nfa::thompson(re, n_syms)),
            }
        };

        let mut content: Vec<Option<CompiledContent>> = vec![None; n_syms];
        let mut sigs: Vec<Option<SigInfo>> = vec![None; n_syms];
        for e in schema.elements.values() {
            let sym = alphabet.lookup(&e.name).expect("interned") as usize;
            content[sym] = Some(match &e.content {
                Content::Data => CompiledContent::Data,
                Content::Any => CompiledContent::Any,
                Content::Model(re) => {
                    let regex = expand(re, &alphabet)?;
                    let dfa = to_dfa(&regex);
                    CompiledContent::Model { regex, dfa }
                }
            });
        }
        for f in schema.functions.values() {
            let sym = alphabet.lookup(&f.name).expect("interned") as usize;
            let input = expand(&f.input, &alphabet)?;
            let output = expand(&f.output, &alphabet)?;
            sigs[sym] = Some(SigInfo {
                input_dfa: to_dfa(&input),
                output_dfa: to_dfa(&output),
                input,
                output,
                invocable: f.invocable,
            });
        }
        for (sym, subset) in &classes {
            let p = &schema.patterns[&subset[0]];
            let input = expand(&p.input, &alphabet)?;
            let output = expand(&p.output, &alphabet)?;
            let invocable = subset.iter().all(|name| schema.patterns[name].invocable);
            sigs[*sym as usize] = Some(SigInfo {
                input_dfa: to_dfa(&input),
                output_dfa: to_dfa(&output),
                input,
                output,
                invocable,
            });
        }
        // #anyfun: nothing is known about its signature; parameters and
        // results validate freely, and it can never be invoked.
        {
            let anything = Regex::star(Regex::alt(
                (0..n_syms as Symbol).map(Regex::sym).collect::<Vec<_>>(),
            ));
            sigs[anyfun as usize] = Some(SigInfo {
                input_dfa: to_dfa(&anything),
                output_dfa: to_dfa(&anything),
                input: anything.clone(),
                output: anything,
                invocable: false,
            });
        }
        Ok(Compiled {
            schema,
            alphabet,
            kinds,
            content,
            sigs,
            anyelem,
            anyfun,
            data,
            fingerprint: std::sync::OnceLock::new(),
        })
    }

    /// The effective alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Renders `word` for a refusal: at most its first 32 symbols, then
    /// `…(+N more)` for the `N` symbols left out.
    pub fn show_word(&self, word: &[Symbol]) -> String {
        let shown = word.len().min(WORD_SHOWN);
        let mut out = self.alphabet.format_word(&word[..shown]);
        if word.len() > shown {
            out.push_str(&format!("…(+{} more)", word.len() - shown));
        }
        out
    }

    /// A deterministic structural hash of the compiled schema: effective
    /// alphabet (names, order, kinds), every content model, and every
    /// signature (input/output types plus invocability).
    ///
    /// Two `Compiled` values with the same fingerprint define the same
    /// effective alphabet and the same languages everywhere the rewriting
    /// algorithms look, so solver artifacts (DFAs, solved games) keyed by
    /// `(fingerprint, …)` may be shared between them. Computed once and
    /// memoized; stable across runs and platforms.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            use std::hash::{Hash, Hasher};
            let mut h = axml_support::hash::FxHasher::default();
            self.alphabet.len().hash(&mut h);
            for (sym, name) in self.alphabet.iter() {
                name.hash(&mut h);
                (self.kinds[sym as usize] as u8).hash(&mut h);
            }
            for (sym, slot) in self.content.iter().enumerate() {
                match slot {
                    None => 0u8.hash(&mut h),
                    Some(CompiledContent::Data) => 1u8.hash(&mut h),
                    Some(CompiledContent::Any) => 2u8.hash(&mut h),
                    Some(CompiledContent::Model { regex, .. }) => {
                        3u8.hash(&mut h);
                        sym.hash(&mut h);
                        regex.display(&self.alphabet).to_string().hash(&mut h);
                    }
                }
            }
            for (sym, slot) in self.sigs.iter().enumerate() {
                match slot {
                    None => 0u8.hash(&mut h),
                    Some(sig) => {
                        1u8.hash(&mut h);
                        sym.hash(&mut h);
                        sig.input.display(&self.alphabet).to_string().hash(&mut h);
                        sig.output.display(&self.alphabet).to_string().hash(&mut h);
                        sig.invocable.hash(&mut h);
                    }
                }
            }
            h.finish()
        })
    }

    /// Kind of an effective symbol.
    pub fn kind(&self, sym: Symbol) -> SymKind {
        self.kinds[sym as usize]
    }

    /// The `#anyelem` residual symbol.
    pub fn anyelem(&self) -> Symbol {
        self.anyelem
    }

    /// The `#anyfun` residual symbol.
    pub fn anyfun(&self) -> Symbol {
        self.anyfun
    }

    /// The `#data` atomic-value symbol (text children classify to it).
    pub fn data_sym(&self) -> Symbol {
        self.data
    }

    /// Classifies a document element label.
    pub fn classify_label(&self, label: &str) -> Symbol {
        match self.alphabet.lookup(label) {
            Some(s) if self.kinds[s as usize] == SymKind::Label => s,
            _ => self.anyelem,
        }
    }

    /// Classifies a document function name. Unknown functions (no WSDL
    /// description in the compiled schema) fall into `#anyfun`.
    pub fn classify_func(&self, name: &str) -> Symbol {
        match self.alphabet.lookup(name) {
            Some(s) if self.kinds[s as usize] == SymKind::Function => s,
            _ => self.anyfun,
        }
    }

    /// Compiled content of a label symbol.
    pub fn content(&self, sym: Symbol) -> Option<&CompiledContent> {
        self.content.get(sym as usize).and_then(Option::as_ref)
    }

    /// Compiled content of a label by name.
    pub fn content_of(&self, label: &str) -> Option<&CompiledContent> {
        self.alphabet.lookup(label).and_then(|s| self.content(s))
    }

    /// Signature of a function-like symbol.
    pub fn sig(&self, sym: Symbol) -> Option<&SigInfo> {
        self.sigs.get(sym as usize).and_then(Option::as_ref)
    }

    /// Signature of a function by document name (classified first).
    pub fn sig_of(&self, name: &str) -> &SigInfo {
        self.sig(self.classify_func(name))
            .expect("function-like symbols always carry signatures")
    }

    /// True if calls classified to `sym` may be invoked by rewritings.
    pub fn invocable(&self, sym: Symbol) -> bool {
        self.sig(sym).is_some_and(|s| s.invocable)
    }

    /// All label symbols.
    pub fn label_symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.kinds.len() as Symbol).filter(|&s| self.kinds[s as usize] == SymKind::Label)
    }

    /// All function-like symbols (functions, classes, `#anyfun`).
    pub fn function_symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.kinds.len() as Symbol).filter(|&s| {
            matches!(
                self.kinds[s as usize],
                SymKind::Function | SymKind::Class | SymKind::AnyFun
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::{NoOracle, Predicate};

    fn paper_compiled() -> Compiled {
        let s = Schema::builder()
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
            .unwrap();
        Compiled::new(s, &NoOracle).unwrap()
    }

    #[test]
    fn symbols_and_kinds() {
        let c = paper_compiled();
        assert_eq!(c.kind(c.classify_label("newspaper")), SymKind::Label);
        assert_eq!(c.kind(c.classify_func("Get_Temp")), SymKind::Function);
        assert_eq!(c.classify_label("nope"), c.anyelem());
        assert_eq!(c.classify_func("nope"), c.anyfun());
        assert_eq!(c.label_symbols().count(), 7);
        // 3 functions + #anyfun, no patterns declared.
        assert_eq!(c.function_symbols().count(), 4);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = paper_compiled();
        let b = paper_compiled();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.fingerprint()); // memoized path
        let other = Compiled::new(
            Schema::builder()
                .element("newspaper", "title.date")
                .data_element("title")
                .data_element("date")
                .root("newspaper")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        assert_ne!(a.fingerprint(), other.fingerprint());
    }

    #[test]
    fn content_dfa_validates_words() {
        let c = paper_compiled();
        let model = match c.content_of("newspaper").unwrap() {
            CompiledContent::Model { dfa, .. } => dfa,
            _ => panic!("newspaper has a regular model"),
        };
        let w = |names: &[&str]| -> Vec<Symbol> {
            names
                .iter()
                .map(|n| c.alphabet().lookup(n).unwrap())
                .collect()
        };
        assert!(model.accepts(&w(&["title", "date", "Get_Temp", "TimeOut"])));
        assert!(model.accepts(&w(&["title", "date", "temp", "exhibit", "exhibit"])));
        assert!(!model.accepts(&w(&["title", "date", "temp", "performance"])));
    }

    #[test]
    fn pattern_classes_created_per_signature_group() {
        let s = Schema::builder()
            .element("newspaper", "title.(Forecast|temp)")
            .data_element("title")
            .data_element("temp")
            .data_element("city")
            .pattern(
                "Forecast",
                Predicate::NamePrefix("Get_".into()),
                "city",
                "temp",
            )
            .pattern(
                "Approved",
                Predicate::External("InACL".into()),
                "city",
                "temp",
            )
            .function("Get_Temp", "city", "temp")
            .build()
            .unwrap();
        let c = Compiled::new(s, &NoOracle).unwrap();
        // Subsets: {Forecast}, {Approved}, {Forecast,Approved} — same sig.
        let class_syms: Vec<_> = (0..c.alphabet().len() as Symbol)
            .filter(|&sym| c.kind(sym) == SymKind::Class)
            .collect();
        assert_eq!(class_syms.len(), 3);
        // Get_Temp matches Forecast (prefix) but not Approved (oracle: no).
        let fc = match c.content_of("newspaper").unwrap() {
            CompiledContent::Model { regex, .. } => regex.clone(),
            _ => panic!(),
        };
        let syms = fc.symbols();
        let get_temp = c.alphabet().lookup("Get_Temp").unwrap();
        assert!(syms.contains(&get_temp), "concrete match expanded in");
    }

    #[test]
    fn signature_mismatch_blocks_pattern_membership() {
        let s = Schema::builder()
            .element("r", "P*")
            .data_element("city")
            .data_element("temp")
            .pattern("P", Predicate::True, "city", "temp")
            .function("f", "city", "city") // wrong output type
            .build()
            .unwrap();
        let c = Compiled::new(s, &NoOracle).unwrap();
        let re = match c.content_of("r").unwrap() {
            CompiledContent::Model { regex, .. } => regex.clone(),
            _ => panic!(),
        };
        let f = c.alphabet().lookup("f").unwrap();
        assert!(!re.symbols().contains(&f), "f must not match pattern P");
    }

    #[test]
    fn wildcards_expand() {
        let s = Schema::builder()
            .element("r", "ANY*.ANYFUN?")
            .data_element("a")
            .function("f", "", "a")
            .build()
            .unwrap();
        let c = Compiled::new(s, &NoOracle).unwrap();
        let dfa = match c.content_of("r").unwrap() {
            CompiledContent::Model { dfa, .. } => dfa,
            _ => panic!(),
        };
        // Unknown element then unknown function then known pair.
        let word = vec![c.anyelem(), c.anyfun()];
        assert!(dfa.accepts(&word));
        let word2 = vec![
            c.alphabet().lookup("a").unwrap(),
            c.anyelem(),
            c.alphabet().lookup("f").unwrap(),
        ];
        assert!(dfa.accepts(&word2));
        // 'r' itself is a label and matched by ANY.
        assert!(dfa.accepts(&[c.classify_label("r")]));
        // Function where elements expected: rejected.
        assert!(!dfa.accepts(&[c.anyfun(), c.anyelem()]));
    }

    #[test]
    fn anyfun_is_never_invocable() {
        let c = paper_compiled();
        assert!(!c.invocable(c.anyfun()));
        assert!(c.invocable(c.classify_func("Get_Temp")));
    }

    #[test]
    fn too_many_patterns_rejected() {
        let mut b = Schema::builder().data_element("x");
        for i in 0..13 {
            b = b.pattern(&format!("P{i}"), Predicate::True, "x", "x");
        }
        let s = b.build().unwrap();
        assert!(matches!(
            Compiled::new(s, &NoOracle),
            Err(SchemaError::TooManyPatterns { .. })
        ));
    }
}
