//! # axml-net — TCP transport for Active XML peers
//!
//! The paper's system (Sec. 7) is a *peer*: a daemon whose Schema
//! Enforcement module intercepts every outbound and inbound message. This
//! crate provides the network substrate that turns the in-process peer of
//! `axml-peer` into such a daemon, using nothing but `std`:
//!
//! * [`wire`] — length-prefixed frames carrying SOAP envelopes, a
//!   versioned handshake, request ids, and typed retryable/non-retryable
//!   [`wire::WireFault`]s (see DESIGN.md §2.1 for the frame layout);
//! * [`conn`] — the connection core: one connection's protocol state
//!   machine (handshake, Stats, Shutdown and Busy answers, chunk
//!   reassembly, fault taxonomy, `server.*` accounting) with no I/O,
//!   driven by both server engines and by the simulator's servers;
//! * [`server`] — an accept loop feeding a fixed-size worker pool over a
//!   bounded in-flight queue (backpressure by retryable `Busy` faults),
//!   per-connection read/write timeouts, graceful panic-reporting
//!   shutdown; two engines behind one [`server::IoMode`] knob: blocking
//!   reader threads, or sharded epoll/kqueue readiness loops ([`frames`]
//!   does the partial-read reassembly) for 10k+ connections;
//! * [`client`] — a pooled connection client with connect/read timeouts,
//!   a total per-call deadline spanning retries, and bounded
//!   retry-with-backoff driven by deterministic jitter from
//!   `axml_support::rng`;
//! * [`transport`] — the pluggable byte-stream layer the client dials
//!   through ([`Transport`] / [`Duplex`]), with real TCP as the default
//!   and the deterministic simulator (`axml-sim`) as the other
//!   implementation.
//!
//! The crate is transport only: it moves opaque envelopes and knows
//! nothing about schemas or rewriting. `axml-peer::NetPeer` plugs the
//! enforcement module in as the server's [`server::Handler`].

#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod frames;
mod poll_server;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{ClientConfig, ClientError, NetClient};
pub use frames::{ChunkAssembler, ChunkProgress, FrameDecoder};
pub use server::{Handler, IoMode, NetServer, ServerConfig, ServerError};
pub use transport::{Duplex, TcpTransport, Transport};
pub use wire::{FaultCode, WireError, WireFault, CAP_CHUNKED, VERSION};
