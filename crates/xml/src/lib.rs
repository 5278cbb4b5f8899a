//! From-scratch XML toolkit for the Active XML system.
//!
//! The SIGMOD 2003 paper exchanges *intensional* XML documents — ordinary,
//! well-formed XML in which embedded service calls are encoded as elements
//! in a dedicated namespace (`int:fun`, see Sec. 7 of the paper). This crate
//! supplies the XML substrate those documents live on:
//!
//! * a compact owned tree model ([`Document`], [`Element`], [`Node`]),
//! * qualified names and namespace scoping ([`QName`], [`NsScope`]),
//! * a streaming pull parser ([`Reader`], [`Event`]) plus a DOM builder
//!   ([`parse_document`]),
//! * a serializer with compact and pretty modes ([`write_document`],
//!   [`Element::to_xml`]).
//!
//! The parser covers the XML 1.0 features the system needs: prolog,
//! elements, attributes (both quote styles), character data, CDATA sections,
//! comments, processing instructions, the five predefined entities, numeric
//! character references, and namespace declarations. DTD internal subsets
//! are intentionally not supported (the paper's system types documents with
//! XML Schema, never DTD files).
//!
//! ```
//! use axml_xml::parse_document;
//!
//! let doc = parse_document(
//!     "<newspaper><title>The Sun</title><date>04/10/2002</date></newspaper>",
//! ).unwrap();
//! assert_eq!(doc.root.name.local, "newspaper");
//! assert_eq!(doc.root.children.len(), 2);
//! let round = doc.root.to_xml();
//! assert!(round.contains("<title>The Sun</title>"));
//! ```

#![warn(missing_docs)]

mod escape;
mod model;
mod reader;
mod writer;

pub use escape::{escape_attr, escape_text, unescape};
pub use model::{Attribute, Document, Element, Node, NsScope, QName};
pub use reader::{parse_document, Event, Reader, XmlError, MAX_DEPTH};
pub use writer::{element_to_string, write_document, WriteOptions};
