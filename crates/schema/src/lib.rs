//! Intensional schemas for Active XML documents.
//!
//! This crate implements the schema layer of *Exchanging Intensional XML
//! Data* (SIGMOD 2003):
//!
//! * the simple `(L, F, P, τ)` document-schema model of Sec. 2 — element
//!   content models, function signatures, function patterns with name
//!   predicates, wildcards, and the invocable/non-invocable partition
//!   (Sec. 2.1) — built through [`Schema::builder`];
//! * the intensional document model of Def. 1 ([`ITree`]) with the XML
//!   encoding of Sec. 7 (`int:fun` elements);
//! * compilation onto a finite *effective alphabet* ([`Compiled`]) so that
//!   every algorithm downstream is a plain finite-automaton construction;
//! * validation (Def. 3) and random instance generation (the `∀ output
//!   instance` adversary of Def. 4);
//! * an **XML Schema_int** front-end ([`xsd::parse_xml_schema`]) accepting
//!   the XML syntax of Sec. 7 (`element`, `complexType`, `sequence`,
//!   `choice`, `function`, `functionPattern`, `any`, `minOccurs` /
//!   `maxOccurs`).
//!
//! ```
//! use axml_schema::{Schema, Compiled, NoOracle, validate, newspaper_example};
//!
//! let schema = Schema::builder()
//!     .element("newspaper", "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
//!     .data_element("title").data_element("date")
//!     .data_element("temp").data_element("city")
//!     .element("exhibit", "title.(Get_Date|date)")
//!     .data_element("performance")
//!     .function("Get_Temp", "city", "temp")
//!     .function("TimeOut", "data", "(exhibit|performance)*")
//!     .function("Get_Date", "title", "date")
//!     .build().unwrap();
//! let compiled = Compiled::new(schema, &NoOracle).unwrap();
//! validate(&newspaper_example(), &compiled).unwrap();
//! ```

#![warn(missing_docs)]

mod compile;
mod def;
mod doc;
pub mod dsl;
mod generate;
pub mod path;
mod refine;
mod stream;
mod validate;
pub mod xsd;

pub use compile::{Compiled, CompiledContent, SigInfo, SymKind, MAX_PATTERNS};
pub use def::{
    merge, overlay, Content, ElementDef, FunctionDef, NameKind, NoOracle, PatternDef,
    PatternOracle, Predicate, Schema, SchemaBuilder, SchemaError, ANY_ELEMENT, ANY_FUNCTION, DATA,
};
pub use doc::{newspaper_example, FuncNode, ITree, INT_NS};
pub use generate::{
    generate_instance, generate_output_instance, generate_word_instance, GenConfig, GenError,
};
pub use path::{PathError, PathQuery, Step};
pub use refine::{schema_refines, RefineFailure};
pub use stream::{read_validated, validate_xml_stream, ReadError, StreamValidator};
pub use validate::{validate, validate_output_instance, words_of};
