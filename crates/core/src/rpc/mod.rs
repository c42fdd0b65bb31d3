//! The wire layer of the service plane: framing, protocol codec and the
//! one framed connection every peer drives.
//!
//! `surfosd serve` and `surfos-loadgen` speak a hand-rolled protocol over
//! TCP or a unix socket. It has three layers, each its own module:
//!
//! * [`frame`] — length-prefixed framing: every message is a 4-byte
//!   little-endian length followed by that many bytes of UTF-8 JSON.
//!   Hostile lengths are rejected *before* any allocation.
//! * [`proto`] — the versioned request/response types and their JSON
//!   codec over the vendored serde shim.
//! * [`conn`] — the socket side: a TCP-or-unix [`Conn`], the nonblocking
//!   [`FramedConn`] byte pump, the `poll(2)` [`wait`](conn::wait), and the
//!   blocking [`Client`] built on them.
//!
//! The daemon itself (session loop, dispatch, admission) lives in
//! [`daemon`](crate::daemon); this module is deliberately free of any
//! kernel dependency, so the daemon, loadgen, tests and benches share
//! exactly one codec and one connection type.
#![warn(missing_docs)]

pub mod conn;
pub mod frame;
pub mod proto;

#[cfg(test)]
mod fuzz;

pub use conn::{Client, Conn, FramedConn};
pub use frame::{write_frame, FrameBuf, FrameError, MAX_FRAME_LEN};
pub use proto::{ProtoError, Request, RequestEnvelope, Response, PROTOCOL_VERSION};
