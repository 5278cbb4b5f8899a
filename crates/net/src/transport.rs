//! Pluggable byte transport under the wire protocol.
//!
//! [`NetClient`](crate::NetClient) moves frames over an abstract
//! [`Transport`] — a factory for bidirectional byte streams ([`Duplex`])
//! — instead of touching `std::net` directly. [`TcpTransport`] is the
//! production implementation and the default behind `NetClient::new`;
//! the deterministic simulator (`axml-sim`) supplies an in-memory
//! transport whose streams deliver exactly the bytes, delays and failures
//! a seeded fault schedule dictates, so the *same* framing, handshake,
//! retry and backpressure code paths run under simulation. (Servers are
//! not transport-generic: both engines bind TCP, and the simulator's
//! server actors drive the connection core, [`crate::conn`], directly.)
//!
//! Timeout semantics are part of the contract: a read that exceeds the
//! configured read timeout must fail with an [`std::io::Error`] of kind
//! `WouldBlock` or `TimedOut` (what `TcpStream` does), because
//! [`wire::read_frame`](crate::wire::read_frame) distinguishes *idle*
//! from *stalled mid-frame* by exactly those kinds.
//!
//! Every TCP stream the client dials and both server engines accept runs
//! with `TCP_NODELAY`. Frames go out as one write each, so Nagle's
//! algorithm has nothing to coalesce; left on, it holds back a small
//! frame that follows a large one (the `DocChunkEnd` after the last
//! `DocChunk`) until the peer's delayed ACK, ~40 ms on Linux.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One bidirectional byte stream (one connection).
///
/// Implementations must support *cloned handles*: [`Duplex::try_clone`]
/// returns a second handle onto the same stream, so one thread can block
/// in a read while another writes (the server's reply path) — exactly
/// `TcpStream::try_clone` semantics.
pub trait Duplex: Read + Write + Send {
    /// Sets the read timeout for subsequent reads on this handle.
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()>;

    /// Sets the write timeout for subsequent writes on this handle.
    fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()>;

    /// A second handle onto the same underlying stream.
    fn try_clone(&self) -> io::Result<Box<dyn Duplex>>;

    /// Shuts the stream down in both directions, unblocking any handle
    /// parked in a read.
    fn shutdown(&self) -> io::Result<()>;
}

/// A connection factory the client dials through.
pub trait Transport: Send + Sync {
    /// Dials `endpoint`, bounded by `timeout`.
    fn connect(&self, endpoint: &str, timeout: Duration) -> io::Result<Box<dyn Duplex>>;
}

/// The production transport: real TCP sockets.
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpTransport;

fn resolve(endpoint: &str) -> io::Result<SocketAddr> {
    endpoint.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            format!("{endpoint} resolved to nothing"),
        )
    })
}

impl TcpTransport {
    /// Dials `endpoint` with Nagle's algorithm off.
    fn dial(endpoint: &str, timeout: Duration) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&resolve(endpoint)?, timeout)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }
}

impl Transport for TcpTransport {
    fn connect(&self, endpoint: &str, timeout: Duration) -> io::Result<Box<dyn Duplex>> {
        Ok(Box::new(TcpTransport::dial(endpoint, timeout)?))
    }
}

impl Duplex for TcpStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, d)
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, d)
    }

    fn try_clone(&self) -> io::Result<Box<dyn Duplex>> {
        Ok(Box::new(TcpStream::try_clone(self)?))
    }

    fn shutdown(&self) -> io::Result<()> {
        TcpStream::shutdown(self, Shutdown::Both)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn listen() -> (TcpListener, String) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = listener.local_addr().unwrap().to_string();
        (listener, endpoint)
    }

    #[test]
    fn tcp_transport_round_trips_bytes() {
        let (listener, endpoint) = listen();
        let mut dialed = TcpTransport
            .connect(&endpoint, Duration::from_secs(2))
            .unwrap();
        let (mut accepted, _) = listener.accept().unwrap();
        dialed.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        // A cloned handle reads what the original's peer writes.
        let mut clone = dialed.try_clone().unwrap();
        accepted.write_all(b"pong").unwrap();
        clone.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn dialed_streams_run_with_nagle_off() {
        let (_listener, endpoint) = listen();
        let dialed = TcpTransport::dial(&endpoint, Duration::from_secs(2)).unwrap();
        assert!(dialed.nodelay().unwrap(), "dialed stream keeps Nagle on");
    }

    #[test]
    fn timed_out_reads_report_wouldblock_or_timedout() {
        let (_listener, endpoint) = listen();
        let dialed = TcpTransport
            .connect(&endpoint, Duration::from_secs(2))
            .unwrap();
        dialed
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut buf = [0u8; 1];
        let mut reader = dialed.try_clone().unwrap();
        let err = reader.read_exact(&mut buf).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "read timeout surfaced as {err:?}"
        );
    }
}
