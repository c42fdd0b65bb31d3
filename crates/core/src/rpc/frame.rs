//! Length-prefixed framing for the SurfOS service plane.
//!
//! Every message on a service-plane connection — in either direction — is
//! one *frame*: a 4-byte little-endian length followed by exactly that many
//! bytes of UTF-8 JSON.
//!
//! ```text
//!   0        4                    4 + len
//!   ├────────┼────────────────────┤
//!   │ len LE │ JSON body (UTF-8)  │
//!   └────────┴────────────────────┘
//! ```
//!
//! The length counts the body only, never the header. Frames are
//! independent: a connection is a sequence of frames with no interleaving
//! or continuation, so a reader needs no state beyond "bytes seen so far".
//!
//! # Bounded allocation
//!
//! A frame length above [`MAX_FRAME_LEN`] is rejected *before* any buffer
//! is sized from it: a hostile or corrupt 4-byte prefix (e.g.
//! `0xffff_ffff`) costs the peer a [`FrameError::Oversized`] error, not a
//! 4 GiB allocation. [`FrameBuf`] only ever buffers bytes actually
//! received.
//!
//! # Examples
//!
//! Encoding and decoding one frame:
//!
//! ```
//! use surfos::rpc::frame::{encode_frame, FrameBuf};
//!
//! let bytes = encode_frame(r#"{"op":"ping"}"#);
//! assert_eq!(&bytes[..4], &13u32.to_le_bytes());
//!
//! let mut buf = FrameBuf::new();
//! buf.extend(&bytes);
//! assert_eq!(buf.next_frame().unwrap().as_deref(), Some(r#"{"op":"ping"}"#));
//! assert_eq!(buf.next_frame().unwrap(), None); // nothing left
//! ```
//!
//! A truncated frame stays pending until its bytes arrive:
//!
//! ```
//! use surfos::rpc::frame::{encode_frame, FrameBuf};
//!
//! let bytes = encode_frame("hello");
//! let mut buf = FrameBuf::new();
//! buf.extend(&bytes[..6]); // header + 2 of 5 body bytes
//! assert_eq!(buf.next_frame().unwrap(), None);
//! buf.extend(&bytes[6..]);
//! assert_eq!(buf.next_frame().unwrap().as_deref(), Some("hello"));
//! ```

use std::io::Write;

/// Hard upper bound on a frame body, in bytes (1 MiB). Large enough for a
/// full metrics snapshot, small enough that a corrupt length prefix cannot
/// drive an allocation.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Size of the length prefix, in bytes.
pub const HEADER_LEN: usize = 4;

/// Why the bytes received cannot be split into frames.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix names a body larger than [`MAX_FRAME_LEN`].
    /// Raised before any allocation is sized from the prefix.
    Oversized(usize),
    /// The body is not valid UTF-8.
    NotUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(len) => {
                write!(f, "frame length {len} exceeds maximum {MAX_FRAME_LEN}")
            }
            FrameError::NotUtf8 => write!(f, "frame body is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes `body` as one frame: 4-byte little-endian length + the bytes.
///
/// # Panics
/// Panics if `body` exceeds [`MAX_FRAME_LEN`] — outbound frames are built
/// by this crate and a too-large one is a protocol bug, not peer input.
pub fn encode_frame(body: &str) -> Vec<u8> {
    assert!(
        body.len() <= MAX_FRAME_LEN,
        "outbound frame of {} bytes exceeds MAX_FRAME_LEN",
        body.len()
    );
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// Writes `body` as one frame to `w` (header + body, single flush).
pub fn write_frame(w: &mut impl Write, body: &str) -> std::io::Result<()> {
    w.write_all(&encode_frame(body))?;
    w.flush()
}

/// An incremental frame decoder for non-blocking streams.
///
/// Feed whatever bytes arrive with [`FrameBuf::extend`]; pop complete
/// frames with [`FrameBuf::next_frame`]. The buffer never grows past the
/// bytes actually received plus one frame: an oversized length prefix
/// errors out of `next_frame` before any body bytes are awaited.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted lazily.
    start: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Appends received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer at O(pending bytes).
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes received but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete frame, if one has fully arrived.
    ///
    /// `Ok(None)` means "incomplete — feed more bytes". An
    /// [`FrameError::Oversized`] or [`FrameError::NotUtf8`] frame poisons
    /// the stream (framing cannot resynchronize); the caller should drop
    /// the connection.
    pub fn next_frame(&mut self) -> Result<Option<String>, FrameError> {
        let pending = &self.buf[self.start..];
        if pending.len() < HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..HEADER_LEN].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(len));
        }
        if pending.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let body = std::str::from_utf8(&pending[HEADER_LEN..HEADER_LEN + len])
            .map_err(|_| FrameError::NotUtf8)?
            .to_owned();
        self.start += HEADER_LEN + len;
        Ok(Some(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_single_and_back_to_back() {
        let mut buf = FrameBuf::new();
        buf.extend(&encode_frame("alpha"));
        buf.extend(&encode_frame(""));
        buf.extend(&encode_frame("β-utf8"));
        assert_eq!(buf.next_frame().unwrap().as_deref(), Some("alpha"));
        assert_eq!(buf.next_frame().unwrap().as_deref(), Some(""));
        assert_eq!(buf.next_frame().unwrap().as_deref(), Some("β-utf8"));
        assert_eq!(buf.next_frame().unwrap(), None);
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let bytes = encode_frame(r#"{"op":"ping","id":7}"#);
        let mut buf = FrameBuf::new();
        for (i, b) in bytes.iter().enumerate() {
            if i + 1 < bytes.len() {
                buf.extend(std::slice::from_ref(b));
                assert_eq!(buf.next_frame().unwrap(), None, "complete at byte {i}?");
            } else {
                buf.extend(std::slice::from_ref(b));
            }
        }
        assert_eq!(
            buf.next_frame().unwrap().as_deref(),
            Some(r#"{"op":"ping","id":7}"#)
        );
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation() {
        let mut buf = FrameBuf::new();
        buf.extend(&u32::MAX.to_le_bytes());
        // Rejected from the 4 header bytes alone — no body was ever needed,
        // so nothing was allocated from the hostile length.
        assert!(matches!(
            buf.next_frame(),
            Err(FrameError::Oversized(n)) if n == u32::MAX as usize
        ));
        assert!(buf.pending() <= HEADER_LEN);

        // One past the limit is rejected; the limit itself is not.
        let mut at_limit = FrameBuf::new();
        at_limit.extend(&((MAX_FRAME_LEN as u32 + 1).to_le_bytes()));
        assert!(matches!(
            at_limit.next_frame(),
            Err(FrameError::Oversized(_))
        ));
        let mut ok = FrameBuf::new();
        ok.extend(&(MAX_FRAME_LEN as u32).to_le_bytes());
        assert!(ok.next_frame().unwrap().is_none()); // just incomplete
    }

    #[test]
    fn non_utf8_body_rejected() {
        let mut raw = 2u32.to_le_bytes().to_vec();
        raw.extend_from_slice(&[0xff, 0xfe]);
        let mut buf = FrameBuf::new();
        buf.extend(&raw);
        assert!(matches!(buf.next_frame(), Err(FrameError::NotUtf8)));
    }

    #[test]
    fn compaction_keeps_buffer_bounded() {
        let mut buf = FrameBuf::new();
        let frame = encode_frame(&"x".repeat(1024));
        for _ in 0..100 {
            buf.extend(&frame);
            assert!(buf.next_frame().unwrap().is_some());
        }
        // After 100 consumed 1 KiB frames the retained buffer must not have
        // accumulated all 100 KiB.
        assert!(buf.buf.len() < 3 * frame.len(), "len={}", buf.buf.len());
    }
}
