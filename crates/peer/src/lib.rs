//! Active XML peers (Sec. 7 of *Exchanging Intensional XML Data*).
//!
//! A peer is a node of the simulated Web-service world: it persists
//! intensional documents ([`Repository`]), enriches them by triggering
//! embedded calls, declares services over them, and exchanges SOAP
//! envelopes with other peers — every exchange passing through the
//! **Schema Enforcement module** that this reproduction is about:
//! verify the data against the agreed type, rewrite (materialize) it when
//! it does not conform, report an error when rewriting is impossible.
//! Only the sending side rewrites; whatever a peer receives — call
//! parameters or shipped documents — is validated and refused when it
//! does not conform. [`NetPeer`] serves a peer over `axml-net`, and
//! [`RemotePeer`] / [`NetInvoker`] are its client side.
//!
//! [`Peer::send_document`] implements the Fig. 1 scenario directly: a
//! sender holding an intensional document materializes exactly what the
//! agreed exchange schema requires before shipping it.

#![warn(missing_docs)]

mod negotiate;
pub mod net;
mod peer;
mod repository;

pub use negotiate::{negotiate, negotiate_with_matrix, MatrixUse, Negotiation, Proposal};
pub use net::{envelope_handler, NetInvoker, NetPeer, RemotePeer, RECEIVE_METHOD};
pub use peer::{EnforceOptions, InboundPolicy, Peer, PeerError, Query};
pub use repository::{RepoError, Repository, UpdateOp};
