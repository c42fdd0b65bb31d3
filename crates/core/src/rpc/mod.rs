//! The wire layer of the service plane: framing and protocol codec.
//!
//! `surfosd serve` and `surfos-loadgen` speak a hand-rolled protocol over
//! TCP or a unix socket. It has two layers, each its own module:
//!
//! * [`frame`] — length-prefixed framing: every message is a 4-byte
//!   little-endian length followed by that many bytes of UTF-8 JSON.
//!   Hostile lengths are rejected *before* any allocation.
//! * [`proto`] — the versioned request/response types and their JSON
//!   codec over the vendored serde shim.
//!
//! The daemon itself (session loop, dispatch, admission) lives in
//! [`daemon`](crate::daemon); this module is deliberately free of any
//! kernel or socket dependency so clients, servers, tests and benches all
//! share exactly one codec.
#![warn(missing_docs)]

pub mod frame;
pub mod proto;

#[cfg(test)]
mod fuzz;

pub use frame::{read_frame, write_frame, FrameBuf, FrameError, MAX_FRAME_LEN};
pub use proto::{ProtoError, Request, RequestEnvelope, Response, PROTOCOL_VERSION};
