//! Deterministic fuzz arm for the wire layer.
//!
//! Mutated copies of the frames the module docs of [`frame`](super::frame)
//! and [`proto`](super::proto) show are fed through [`FrameBuf`], the JSON
//! parser and both codecs. Each property case seeds a mutator that runs
//! [`ROUNDS`] rounds over every seed frame, testing each intermediate
//! body, then frames the results into one stream, checks it, mutates the
//! stream itself and checks it again: a fixed budget of some 40 k bodies
//! and 4 k streams, about a second in a debug build.
//!
//! Invariants:
//! * nothing panics;
//! * a declared length above [`MAX_FRAME_LEN`] errors as soon as its 4
//!   header bytes are pending, and a frame is never awaited past its
//!   declared end;
//! * every envelope or response that decodes survives an encode/decode
//!   round trip unchanged, and every id and task id it carries is at most
//!   [`MAX_EXACT_INT`].
//!
//! The daemon half writes [`DAEMON_STREAMS`] mutated streams from one
//! fixed seed into a live [`Server`]: it must answer every frame a
//! [`FrameBuf`] yields before the first framing error exactly once, in
//! order and echoing the id, then answer that error once and hang up; and
//! a fresh connection still gets `pong` afterwards.

use super::conn::{Client, Conn};
use super::frame::{encode_frame, FrameBuf, FrameError, MAX_FRAME_LEN};
use super::proto::{Request, RequestEnvelope, Response, MAX_EXACT_INT};
use crate::daemon::{demo_kernel, ServeOptions, Server};
use proptest::prelude::*;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use surfos_obs::JsonValue;

/// The frame bodies of the `frame` and `proto` module docs.
const SEEDS: &[&str] = &[
    r#"{"op":"ping"}"#,
    "hello",
    r#"{"v":1,"id":42,"op":"register","kind":"coverage","subject":"bedroom","value":25.0}"#,
    r#"{"v":1,"id":42,"kind":"registered","service":3,"task":7}"#,
    r#"{"v":1,"id":43,"kind":"rejected","reason":"tenant quota exhausted: 4 live services (cap 4)"}"#,
    r#"{"v":1,"id":7,"op":"ping"}"#,
    r#"{"v":1,"id":1,"kind":"rejected","reason":"no surfaces deployed"}"#,
];

/// Tokens spliced in by the dictionary mutation: the protocol's tags and
/// field names, JSON punctuation, and numbers at the edges of `f64`/`u64`.
const TOKENS: &[&str] = &[
    r#""op":"#,
    r#""kind":"#,
    r#""tenant":"#,
    r#""ping""#,
    r#""register""#,
    r#""release""#,
    r#""intent""#,
    r#""query""#,
    r#""metrics""#,
    r#""deterministic":true"#,
    r#""tasks":[1,2.5,-3]"#,
    r#""rss_dbm":"#,
    r#""\ud800\u0000\n""#,
    r#""""#,
    "null",
    "true",
    "7",
    "[[[[[[[[",
    "}}]]",
    ",",
    ":",
    "-0",
    "1e999",
    "-1e999",
    "1e-400",
    "18446744073709551616",
    "9007199254740993",
    "9007199254740991",
    "0.5",
    "\u{ff}\u{fe}",
];

/// Applies one mutation to `bytes`. `kind` picks the operator; `at` and
/// `val` are its raw operands, reduced to the current length.
fn mutate(bytes: &mut Vec<u8>, kind: u8, at: u32, val: u32) {
    let pos = |extra: usize| at as usize % (bytes.len() + extra);
    match kind {
        0 if !bytes.is_empty() => {
            let i = pos(0);
            bytes[i] ^= 1 << (val % 8);
        }
        1 if !bytes.is_empty() => {
            let i = pos(0);
            bytes[i] = val as u8;
        }
        2 => {
            let i = pos(1);
            bytes.insert(i, val as u8);
        }
        3 if !bytes.is_empty() => {
            let i = pos(0);
            let n = (val as usize % 8 + 1).min(bytes.len() - i);
            bytes.drain(i..i + n);
        }
        4 => {
            let i = pos(1);
            let token = TOKENS[val as usize % TOKENS.len()].as_bytes();
            bytes.splice(i..i, token.iter().copied());
        }
        5 if !bytes.is_empty() => {
            let i = pos(0);
            let token = TOKENS[val as usize % TOKENS.len()].as_bytes();
            let end = (i + token.len()).min(bytes.len());
            bytes.splice(i..end, token.iter().copied());
        }
        6 => {
            // A 4-byte little-endian length written over whatever is there:
            // near the frame limit half the time, arbitrary otherwise.
            let i = pos(1);
            let len = if val & 1 == 0 {
                (MAX_FRAME_LEN as u32)
                    .wrapping_add((val >> 1) % 5)
                    .wrapping_sub(2)
            } else {
                val
            };
            let end = (i + 4).min(bytes.len());
            bytes.splice(i..end, len.to_le_bytes());
        }
        7 => {
            // Structure-aware: replace the value after one of the `:`s with
            // a token, so most results still parse and reach the decoders.
            let colons: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b':').collect();
            if let Some(&c) = colons.get(at as usize % colons.len().max(1)) {
                let end = (c + 1..bytes.len())
                    .find(|&i| matches!(bytes[i], b',' | b'}'))
                    .unwrap_or(bytes.len());
                let token = TOKENS[val as usize % TOKENS.len()].as_bytes();
                bytes.splice(c + 1..end, token.iter().copied());
            }
        }
        _ => bytes.truncate(pos(1)),
    }
}

/// Parses and decodes one body; whatever decodes must round-trip.
fn check_body(bytes: &[u8]) {
    let body = String::from_utf8_lossy(bytes);
    let _ = JsonValue::parse(&body);
    let exact = |n: u64| assert!(n <= MAX_EXACT_INT, "{body:?} decoded to {n}");
    if let Ok(env) = RequestEnvelope::decode(&body) {
        exact(env.id);
        let json = env.encode();
        assert_eq!(
            RequestEnvelope::decode(&json).as_ref(),
            Ok(&env),
            "{body:?} -> {json}"
        );
    }
    if let Ok((id, resp)) = Response::decode(&body) {
        exact(id);
        match &resp {
            Response::IntentTasks { tasks } => tasks.iter().copied().for_each(exact),
            Response::Registered { task, .. } => exact(*task),
            _ => {}
        }
        let json = resp.encode(id);
        assert_eq!(
            Response::decode(&json),
            Ok((id, resp)),
            "{body:?} -> {json}"
        );
    }
}

/// The length a 4-byte header declares.
fn declared(header: &[u8]) -> usize {
    u32::from_le_bytes(header[..4].try_into().unwrap()) as usize
}

/// Feeds `stream` to a [`FrameBuf`] in chunks of the given sizes (cycled),
/// checking every `next_frame` answer against the stream itself.
fn check_stream(stream: &[u8], chunks: &[usize]) {
    let mut buf = FrameBuf::new();
    // `fed` bytes handed over so far; `off` is where the next frame starts.
    let (mut fed, mut off) = (0usize, 0usize);
    for &chunk in chunks.iter().cycle() {
        if fed == stream.len() {
            break;
        }
        let end = (fed + chunk).min(stream.len());
        buf.extend(&stream[fed..end]);
        fed = end;
        loop {
            assert_eq!(buf.pending(), fed - off);
            match buf.next_frame() {
                Ok(Some(body)) => {
                    let len = declared(&stream[off..]);
                    assert_eq!(body.as_bytes(), &stream[off + 4..off + 4 + len]);
                    check_body(body.as_bytes());
                    off += 4 + len;
                }
                Ok(None) => {
                    let pending = fed - off;
                    if pending >= 4 {
                        let len = declared(&stream[off..]);
                        assert!(len <= MAX_FRAME_LEN, "oversized length {len} left pending");
                        assert!(pending < 4 + len, "a complete frame was left pending");
                    }
                    break;
                }
                Err(FrameError::Oversized(len)) => {
                    assert!(fed - off >= 4);
                    assert_eq!(len, declared(&stream[off..]));
                    assert!(len > MAX_FRAME_LEN);
                    return;
                }
                Err(FrameError::NotUtf8) => {
                    let len = declared(&stream[off..]);
                    assert!(std::str::from_utf8(&stream[off + 4..off + 4 + len]).is_err());
                    return;
                }
            }
        }
    }
}

/// Mutation rounds per property case. With the shim's fixed case count
/// this is the whole budget: 64 × 32 rounds over every seed.
const ROUNDS: usize = 32;

/// SplitMix64 step: the per-case mutator's operand stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies `1..=max` random mutations to `bytes`, calling `each` after
/// every one.
fn mutate_n(bytes: &mut Vec<u8>, state: &mut u64, max: u64, mut each: impl FnMut(&[u8])) {
    for _ in 0..=next(state) % max {
        let r = next(state);
        mutate(bytes, (r % 9) as u8, (r >> 4) as u32, (r >> 32) as u32);
        each(bytes);
    }
}

/// Frames every seed twice, first mutated (`each` sees each intermediate
/// body), then as it is.
fn seed_stream(state: &mut u64, mut each: impl FnMut(&[u8])) -> Vec<u8> {
    let mut stream = Vec::new();
    for frame in SEEDS {
        let mut body = frame.as_bytes().to_vec();
        mutate_n(&mut body, state, 4, &mut each);
        stream.extend(encode_frame(&String::from_utf8_lossy(&body)));
        stream.extend(encode_frame(frame));
    }
    stream
}

proptest! {
    #[test]
    fn mutated_doc_frames_never_panic_and_round_trip(
        seed in prop::num::u64::ANY,
        chunks in prop::collection::vec(1usize..48, 1..6),
    ) {
        let mut state = seed;
        for _ in 0..ROUNDS {
            let mut stream = seed_stream(&mut state, check_body);
            check_stream(&stream, &chunks);
            mutate_n(&mut stream, &mut state, 3, |_| {});
            check_stream(&stream, &chunks);
        }
    }
}

/// Streams the daemon half writes, one connection each.
const DAEMON_STREAMS: usize = 32;

#[test]
fn mutated_streams_get_one_answer_per_frame_from_a_live_daemon() {
    // The heartbeat runs too, so requests also meet it on the kernel lock.
    let opts = ServeOptions {
        tick_ms: 5,
        ..ServeOptions::default()
    };
    let server = Server::start(demo_kernel(), opts).expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp listener");
    let mut state = 0x5eed;
    for case in 0..DAEMON_STREAMS {
        let mut stream = seed_stream(&mut state, |_| {});
        mutate_n(&mut stream, &mut state, 3, |_| {});

        // The answers owed: each frame's id (0 for a body that does not
        // decode), then id 0 for the framing error, if there is one.
        let mut frames = FrameBuf::new();
        frames.extend(&stream);
        let mut want = Vec::new();
        let framing_error = loop {
            match frames.next_frame() {
                Ok(Some(body)) => want.push(RequestEnvelope::decode(&body).map_or(0, |e| e.id)),
                Ok(None) => break false,
                Err(_) => break true,
            }
        };
        if framing_error {
            want.push(0);
        }

        let mut tcp = TcpStream::connect(addr).expect("connect");
        // After a framing error the daemon may hang up mid-write.
        let _ = tcp.write_all(&stream);
        let _ = tcp.shutdown(Shutdown::Write);
        let mut client = Client::new(Conn::Tcp(tcp)).expect("client");
        let mut got = Vec::new();
        let last = loop {
            match client.recv() {
                Ok(Some(answer)) => got.push(answer),
                Ok(None) => break None,
                // Hanging up with our bytes unread resets the connection.
                Err(e) if framing_error && e.kind() == ErrorKind::ConnectionReset => break None,
                Err(e) => break Some(e),
            }
        };
        let ids: Vec<u64> = got.iter().map(|(id, _)| *id).collect();
        assert!(last.is_none(), "case {case}: {last:?} after {ids:?}");
        assert_eq!(ids, want, "case {case}: {stream:?}");
        if framing_error {
            let Some((_, Response::Error { message })) = got.last() else {
                panic!("case {case}: no framing error answer: {got:?}");
            };
            assert!(
                message.starts_with("framing error"),
                "case {case}: {message}"
            );
        }
    }
    let mut fresh = Client::tcp(addr).expect("connect");
    let answer = fresh.call(&RequestEnvelope::new(1, Request::Ping));
    assert!(matches!(answer, Ok(Response::Pong { .. })), "{answer:?}");
    server.stop();
}
