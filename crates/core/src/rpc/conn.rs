//! Sockets of the service plane: one framed connection for every peer.
//!
//! The daemon's sessions, `surfos-loadgen` and the blocking [`Client`] all
//! drive a [`Conn`] through one [`FramedConn`] byte pump, and wait in one
//! `poll(2)` call, [`wait`], declared by hand below (std already links
//! libc). Nobody sleeps to poll.

use super::frame::{write_frame, FrameBuf, FrameError};
use super::proto::{RequestEnvelope, Response};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// One connected stream, TCP or unix.
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A unix-domain stream.
    Unix(UnixStream),
}

impl AsRawFd for Conn {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            Conn::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    /// Sockets buffer nothing in user space.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One `struct pollfd`, as `poll(2)` takes it.
#[repr(C)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `poll` event: data to read (or a hang-up to read as EOF).
pub(crate) const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether `poll` reported anything on this fd (including hang-up or
    /// error, which it reports whatever was asked for).
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Blocks until one of `fds` is ready or `timeout` (rounded up to whole
/// milliseconds, so a short one is no spin) has passed; `None` waits for
/// ever. A `poll` that fails for any reason but a signal marks every fd
/// ready, so the caller degrades to a nonblocking sweep, not a stall.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
    let ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd records and `nfds` is its exact length.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
        if n >= 0 {
            return;
        }
        if io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
            for fd in fds.iter_mut() {
                fd.revents = POLLIN;
            }
            return;
        }
    }
}

/// A nonblocking [`Conn`] with its incoming [`FrameBuf`] and its queue of
/// outgoing frame bytes.
#[derive(Debug)]
pub struct FramedConn {
    conn: Conn,
    inbuf: FrameBuf,
    /// Encoded frames not yet accepted by the socket, from `out_pos` on.
    outbuf: Vec<u8>,
    out_pos: usize,
}

impl FramedConn {
    /// Readies `conn`: nonblocking, and for TCP no Nagle. A frame is one
    /// `write` already, while holding one back until the previous one is
    /// acknowledged costs the peer's delayed-ACK timeout (up to 40 ms)
    /// whenever two frames are pipelined.
    pub fn new(conn: Conn) -> io::Result<FramedConn> {
        match &conn {
            Conn::Tcp(s) => {
                s.set_nonblocking(true)?;
                s.set_nodelay(true)?;
            }
            Conn::Unix(s) => s.set_nonblocking(true)?,
        }
        Ok(FramedConn {
            conn,
            inbuf: FrameBuf::new(),
            outbuf: Vec::new(),
            out_pos: 0,
        })
    }

    /// Queues `body` as one frame; [`flush`](Self::flush) sends it.
    pub fn queue(&mut self, body: &str) {
        write_frame(&mut self.outbuf, body).expect("Vec write is infallible");
    }

    /// Pushes queued bytes into the socket until it is full or the queue
    /// is empty. A dead peer's queue is dropped, as nobody is left to read
    /// it, and the error returned.
    pub fn flush(&mut self) -> io::Result<()> {
        let sent = loop {
            if self.flushed() {
                break Ok(());
            }
            match self.conn.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.outbuf.clear();
        self.out_pos = 0;
        sent
    }

    /// Whether every queued byte has left.
    pub fn flushed(&self) -> bool {
        self.out_pos == self.outbuf.len()
    }

    /// Reads what the socket has, up to about `quantum` bytes (a peer with
    /// more is ready again at the next `poll`). `Ok(false)` means the peer
    /// closed its end; bytes read before that stay buffered.
    pub fn fill(&mut self, quantum: usize) -> io::Result<bool> {
        let mut scratch = [0u8; 4096];
        let mut drained = 0;
        while drained < quantum {
            match self.conn.read(&mut scratch) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.inbuf.extend(&scratch[..n]);
                    drained += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Pops the next complete frame received ([`FrameBuf::next_frame`]).
    pub fn next_frame(&mut self) -> Result<Option<String>, FrameError> {
        self.inbuf.next_frame()
    }

    /// What to wait for: data if `read`, and room while bytes are queued.
    pub fn interest(&self, read: bool) -> PollFd {
        let mut events = if read { POLLIN } else { 0 };
        if !self.flushed() {
            events |= POLLOUT;
        }
        PollFd::new(self.conn.as_raw_fd(), events)
    }
}

/// A blocking client: one [`FramedConn`], each wait for it bounded by
/// [`Client::TIMEOUT`].
///
/// ```no_run
/// use surfos::rpc::{Client, Request, RequestEnvelope, Response};
///
/// let mut client = Client::tcp("127.0.0.1:7464")?;
/// let answer = client.call(&RequestEnvelope::new(1, Request::Ping))?;
/// assert!(matches!(answer, Response::Pong { .. }));
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct Client {
    conn: FramedConn,
}

impl Client {
    /// How long one `send` or `recv` waits before [`io::ErrorKind::TimedOut`].
    pub const TIMEOUT: Duration = Duration::from_secs(10);

    /// Wraps a connected stream.
    pub fn new(conn: Conn) -> io::Result<Client> {
        FramedConn::new(conn).map(|conn| Client { conn })
    }

    /// Connects over TCP.
    pub fn tcp(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::new(Conn::Tcp(TcpStream::connect(addr)?))
    }

    /// Connects to a unix socket.
    pub fn unix(path: impl AsRef<Path>) -> io::Result<Client> {
        Client::new(Conn::Unix(UnixStream::connect(path)?))
    }

    /// Sends `body` as one frame, returning once the socket took all of it.
    pub fn send(&mut self, body: &str) -> io::Result<()> {
        self.conn.queue(body);
        self.conn.flush()?;
        let deadline = Instant::now() + Self::TIMEOUT;
        while !self.conn.flushed() {
            self.wait_until(false, deadline)?;
            self.conn.flush()?;
        }
        Ok(())
    }

    /// Receives the next `(correlation id, response)`. `Ok(None)` means
    /// the peer closed between frames; a close inside a frame, a framing
    /// error or a body that does not decode is an error.
    pub fn recv(&mut self) -> io::Result<Option<(u64, Response)>> {
        let deadline = Instant::now() + Self::TIMEOUT;
        loop {
            // Frames received before an error or EOF are answers all the same.
            let open = self.conn.fill(usize::MAX);
            if let Some(body) = self.conn.next_frame().map_err(invalid_data)? {
                return Response::decode(&body).map(Some).map_err(invalid_data);
            }
            match (open?, self.conn.inbuf.pending()) {
                (true, _) => self.wait_until(true, deadline)?,
                (false, 0) => return Ok(None),
                (false, n) => {
                    let cut = format!("closed {n} bytes into a frame");
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, cut));
                }
            }
        }
    }

    /// One round trip: sends `env`, then receives the answer echoing its id.
    pub fn call(&mut self, env: &RequestEnvelope) -> io::Result<Response> {
        self.send(&env.encode())?;
        match self.recv()? {
            Some((id, response)) if id == env.id => Ok(response),
            other => Err(invalid_data(format!(
                "no answer to id {}: {other:?}",
                env.id
            ))),
        }
    }

    fn wait_until(&self, read: bool, deadline: Instant) -> io::Result<()> {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        wait(&mut [self.conn.interest(read)], Some(left));
        Ok(())
    }
}

fn invalid_data(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::frame::{encode_frame, MAX_FRAME_LEN};
    use crate::rpc::proto::{Request, PROTOCOL_VERSION};

    /// A client whose peer wrote `bytes` and hung up.
    fn after(bytes: &[u8]) -> Client {
        let (ours, mut peer) = UnixStream::pair().expect("socket pair");
        peer.write_all(bytes).expect("write");
        drop(peer);
        Client::new(Conn::Unix(ours)).expect("client")
    }

    fn pong(id: u64) -> Vec<u8> {
        let pong = Response::Pong {
            version: PROTOCOL_VERSION,
            tenant: "t".into(),
        };
        encode_frame(&pong.encode(id))
    }

    #[test]
    fn recv_reports_where_the_stream_ended() {
        // At a frame boundary: every frame, then a clean close.
        let mut two = pong(1);
        two.extend(pong(2));
        let mut c = after(&two);
        assert!(matches!(
            c.recv().unwrap(),
            Some((1, Response::Pong { .. }))
        ));
        assert!(matches!(
            c.recv().unwrap(),
            Some((2, Response::Pong { .. }))
        ));
        assert!(c.recv().unwrap().is_none());
        assert!(after(&[]).recv().unwrap().is_none());
        // Inside the header, and inside the body.
        let full = pong(3);
        for cut in [&full[..2], &full[..full.len() - 2]] {
            let err = after(cut).recv().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        }
    }

    #[test]
    fn recv_refuses_bad_frames() {
        // An oversized prefix is refused from its 4 header bytes alone.
        let mut huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        huge.extend_from_slice(b"{}");
        let mut not_utf8 = 2u32.to_le_bytes().to_vec();
        not_utf8.extend_from_slice(&[0xff, 0xfe]);
        for (bytes, needle) in [
            (huge, "exceeds maximum"),
            (not_utf8, "UTF-8"),
            (encode_frame(r#"{"v":1,"id":1}"#), "\"kind\""),
        ] {
            let err = after(&bytes).recv().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn call_checks_the_echoed_id() {
        let (ours, mut peer) = UnixStream::pair().expect("socket pair");
        let mut c = Client::new(Conn::Unix(ours)).expect("client");
        peer.write_all(&pong(8)).unwrap();
        let err = c.call(&RequestEnvelope::new(7, Request::Ping));
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidData);
        peer.write_all(&pong(9)).unwrap();
        let ok = c.call(&RequestEnvelope::new(9, Request::Ping));
        assert!(matches!(ok.unwrap(), Response::Pong { .. }));
    }

    #[test]
    fn wait_honours_its_timeout() {
        let (ours, _peer) = UnixStream::pair().expect("socket pair");
        let mut fds = [PollFd::new(ours.as_raw_fd(), POLLIN)];
        let t0 = Instant::now();
        wait(&mut fds, Some(Duration::from_micros(100)));
        assert!(!fds[0].ready());
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
