//! The `surfosd serve` daemon: many clients, one kernel, over a wire.
//!
//! This module turns an in-process [`SurfOS`] kernel into a long-running
//! network service. Clients connect over TCP or a unix socket, speak the
//! framed protocol in [`rpc`](crate::rpc), and their requests are routed
//! through the orchestrator's admission rule
//! ([`Orchestrator::admission_error`](surfos_orchestrator::Orchestrator::admission_error))
//! and broker tenant registration ([`TenantRegistry`]). Each verb is the
//! orchestrator's own (`ServiceRequest::from_kind`, `retire`,
//! `endpoint_pair`), the same calls the operator [`Shell`](crate::shell::Shell)
//! makes. Over-demand — quota exhausted, registry at capacity, a kernel
//! with no surface or no access point — always answers with a structured
//! `Rejected{reason}` response; the daemon never parks a request.
//!
//! # Threading model
//!
//! One acceptor thread owns the listeners; a **bounded pool** of session
//! workers (sized by [`surfos_channel::par::configured_threads`], the same
//! `SURFOS_THREADS` discipline as the compute pools) owns the connections.
//! The acceptor hands each new connection to one worker, round robin.
//! Every I/O thread blocks in `poll(2)` with no timeout, over its sockets
//! plus a *wake descriptor* (one end of a socket pair): the acceptor
//! writes a byte to a worker's wake descriptor after a handoff, and
//! [`Server::stop`] writes one to every thread's. A worker serves only
//! the sessions `poll` reports ready, each through the [`FramedConn`] byte
//! pump every service-plane peer uses (nonblocking, `TCP_NODELAY`): drain
//! bytes into its frame buffer, decode complete frames, dispatch, queue
//! the response bytes, flush. Kernel and registry state live behind one
//! mutex — the kernel is single-threaded by design, so the pool buys *I/O*
//! concurrency (thousands of idle connections are cheap) while dispatch
//! stays serialized and deterministic. An optional ticker thread drives
//! [`SurfOS::step`] so registered services actually get scheduled and
//! optimized while the daemon serves. The step holds the kernel lock; once
//! the live task set has settled, each slot hits the orchestrator's memo
//! and runs no Adam, so that hold is short.
//!
//! A panic costs one request, not the daemon: each dispatch runs under
//! `catch_unwind` and answers `Error` (counted in `rpc.panics`), a
//! panicking heartbeat skips that tick (`daemon.tick_panics`), and the
//! kernel lock is taken through `lock_state`, which recovers a poisoned
//! guard instead of panicking every later worker.
//!
//! # Tenancy
//!
//! Every connection gets a tenant id: `conn-N` by default, or the name
//! claimed in the first request's `tenant` field. Auto tenants are torn
//! down on disconnect (their leases released, backing tasks retired);
//! *claimed* tenants outlive their connections, so a client can reconnect
//! and release its leases by id.

use crate::rpc::conn::{wait, Conn, FramedConn, PollFd, POLLIN};
use crate::rpc::frame::write_frame;
use crate::rpc::proto::{ProtoError, Request, RequestEnvelope, Response, PROTOCOL_VERSION};
use crate::SurfOS;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use surfos_broker::registry::{RegistryError, TenantRegistry};
use surfos_obs as obs;
use surfos_orchestrator::ServiceRequest;

/// How the daemon listens and admits.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP listen address (e.g. `"127.0.0.1:7464"`, port `0` for an
    /// ephemeral port). `None` disables TCP.
    pub tcp: Option<String>,
    /// Unix socket path. `None` disables the unix listener. A stale
    /// socket file at the path is removed on start.
    pub unix: Option<PathBuf>,
    /// Session worker threads; `0` means the `channel::par` discipline
    /// (`SURFOS_THREADS`, else available parallelism), capped at 8.
    pub workers: usize,
    /// Maximum simultaneously-open connections. Connections beyond the
    /// cap are answered with one `Rejected` frame and closed — never left
    /// hanging in the accept queue.
    pub max_conns: usize,
    /// Kernel heartbeat period. Every `tick_ms` of wall time the daemon
    /// steps the kernel by `tick_ms` of simulation time, scheduling and
    /// optimizing admitted services. `0` disables the ticker — the kernel
    /// only admits (deterministic mode for recorded runs).
    pub tick_ms: u64,
    /// Global live-lease capacity across all tenants.
    pub capacity: usize,
    /// Live-lease cap per tenant.
    pub per_tenant: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
            workers: 0,
            max_conns: 4096,
            tick_ms: 0,
            capacity: 256,
            per_tenant: 16,
        }
    }
}

/// The request broker: kernel + tenant ledger + dispatch. Public so the
/// loopback tests and benches can drive admission without sockets.
pub struct Dispatcher {
    kernel: SurfOS,
    registry: TenantRegistry,
}

impl Dispatcher {
    /// Wraps a kernel with a tenant ledger sized by `opts`.
    pub fn new(kernel: SurfOS, opts: &ServeOptions) -> Self {
        Dispatcher {
            kernel,
            registry: TenantRegistry::new(opts.capacity, opts.per_tenant),
        }
    }

    /// The kernel being served.
    pub fn kernel(&self) -> &SurfOS {
        &self.kernel
    }

    /// Mutable kernel access (the ticker steps through this).
    pub fn kernel_mut(&mut self) -> &mut SurfOS {
        &mut self.kernel
    }

    /// Serves one request for `tenant`. Infallible by construction: every
    /// failure mode maps to a `Rejected` (admission) or `Error` (caller
    /// mistake) response.
    pub fn dispatch(&mut self, tenant: &str, request: &Request) -> Response {
        self.answer(tenant, request)
            .unwrap_or_else(Rejection::into_response)
    }

    /// [`dispatch`](Self::dispatch), with a refused admission kept apart
    /// so the session can count it under its reason.
    fn answer(&mut self, tenant: &str, request: &Request) -> Result<Response, Rejection> {
        Ok(match request {
            Request::Ping => Response::Pong {
                version: PROTOCOL_VERSION,
                tenant: tenant.to_owned(),
            },
            Request::RegisterService {
                kind,
                subject,
                value,
            } => self.register(tenant, kind, subject, *value)?,
            Request::ReleaseService { service } => match self.registry.release(tenant, *service) {
                Ok(lease) => {
                    self.kernel.orchestrator_mut().retire(lease.task);
                    Response::Released { service: *service }
                }
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            },
            Request::SubmitIntent { utterance } => self.intent(tenant, utterance)?,
            Request::QueryChannel { tx, rx } => self.query(tx, rx),
            Request::Metrics { deterministic } => {
                let snap = crate::telemetry::metrics_snapshot();
                Response::Metrics {
                    json: if *deterministic {
                        snap.deterministic_json()
                    } else {
                        snap.to_json()
                    },
                }
            }
        })
    }

    /// The admission gate shared by register and intent: a kernel that
    /// cannot run any task rejects now rather than queue forever
    /// ([`Orchestrator::admission_error`](surfos_orchestrator::Orchestrator::admission_error)),
    /// then the tenant ledger checks capacity and quota.
    fn admission(&self, tenant: &str) -> Result<(), Rejection> {
        match self.kernel.orchestrator().admission_error() {
            Some(reason) => Err(Rejection {
                label: "grid",
                text: reason.to_owned(),
            }),
            None => self.registry.admit(tenant).map_err(Rejection::from),
        }
    }

    fn register(
        &mut self,
        tenant: &str,
        kind: &str,
        subject: &str,
        value: f64,
    ) -> Result<Response, Rejection> {
        self.admission(tenant)?;
        let request = match ServiceRequest::from_kind(kind, subject, value) {
            Ok(request) => request,
            Err(message) => return Ok(Response::Error { message }),
        };
        let task = self.kernel.submit(request);
        match self.registry.register(tenant, kind, task) {
            Ok(service) => Ok(Response::Registered { service, task }),
            // admit() passed above; a race is impossible under the state
            // mutex, but fail closed: retire the freshly admitted task.
            Err(e) => {
                self.kernel.orchestrator_mut().retire(task);
                Err(e.into())
            }
        }
    }

    fn intent(&mut self, tenant: &str, utterance: &str) -> Result<Response, Rejection> {
        self.admission(tenant)?;
        let mut admitted = Vec::new();
        for task in self.kernel.handle_utterance(utterance) {
            match self.registry.register(tenant, "intent", task) {
                Ok(_) => admitted.push(task),
                // Quota ran out mid-intent: the overflow tasks are
                // retired, the admitted prefix stands.
                Err(_) => self.kernel.orchestrator_mut().retire(task),
            }
        }
        Ok(Response::IntentTasks { tasks: admitted })
    }

    fn query(&mut self, tx: &str, rx: &str) -> Response {
        match self.kernel.orchestrator().endpoint_pair(tx, rx) {
            Ok((tx, rx)) => {
                let budget = self.kernel.sim().link_budget(tx, rx);
                Response::Channel {
                    rss_dbm: budget.rss_dbm,
                    snr_db: budget.snr_db,
                    capacity_bps: budget.capacity_bps,
                }
            }
            Err(message) => Response::Error { message },
        }
    }

    /// Tears down an auto-assigned tenant on disconnect: every lease it
    /// holds is released and its backing task retired.
    fn teardown(&mut self, tenant: &str) {
        for lease in self.registry.release_tenant(tenant) {
            self.kernel.orchestrator_mut().retire(lease.task);
        }
    }
}

/// A refused admission: the `Rejected` answer's text, and the bounded
/// `reason` label `rpc.rejected` is counted under (`grid`, `quota`,
/// `capacity`; never the tenant).
struct Rejection {
    label: &'static str,
    text: String,
}

impl Rejection {
    fn into_response(self) -> Response {
        Response::Rejected { reason: self.text }
    }
}

impl From<RegistryError> for Rejection {
    fn from(e: RegistryError) -> Self {
        let label = match e {
            RegistryError::TenantQuota { .. } => "quota",
            RegistryError::Capacity { .. } => "capacity",
            // Only a release fails this way, and a release answers `Error`.
            RegistryError::NotOwner { .. } => "owner",
        };
        Rejection {
            label,
            text: e.to_string(),
        }
    }
}

/// The quickstart kernel `surfosd serve` boots when no `--setup` script
/// is given: the two-room apartment with one programmable surface on the
/// bedroom wall, an access point (`ap0`) and a client (`laptop`) — the
/// same scene as the crate-level doctest, ready to take registrations,
/// intents and channel queries out of the box.
pub fn demo_kernel() -> SurfOS {
    use surfos_channel::{ChannelSim, Endpoint};
    let scen = surfos_geometry::scenario::two_room_apartment();
    let sim = ChannelSim::new(
        scen.plan.clone(),
        surfos_em::band::NamedBand::MmWave28GHz.band(),
    );
    let mut os = SurfOS::new(sim);
    let pose = *scen.anchor("bedroom-north").expect("scenario anchor");
    os.deploy_surface(
        "wall0",
        Box::new(surfos_hw::ProgrammableDriver::new(
            surfos_hw::designs::nr_surface(),
        )),
        pose,
    );
    os.add_endpoint(Endpoint::access_point("ap0", scen.ap_pose));
    os.add_endpoint(Endpoint::client(
        "laptop",
        surfos_geometry::Vec3::new(6.5, 1.5, 1.2),
    ));
    os.set_user_room(scen.target_room.clone());
    os
}

/// Per-connection session state owned by one worker.
struct Session {
    conn: FramedConn,
    tenant: String,
    /// False until the first request; that request's `tenant` claim (if
    /// any) rebinds the session.
    bound: bool,
    /// True for `conn-N` tenants, whose leases die with the connection.
    auto_tenant: bool,
    closing: bool,
}

/// Bytes drained per session per sweep — bounds one client's buffered
/// demand without starving its neighbours on the same worker.
const READ_QUANTUM: usize = 64 * 1024;

impl Session {
    fn new(conn: FramedConn, id: u64) -> Self {
        Session {
            conn,
            tenant: format!("conn-{id}"),
            bound: false,
            auto_tenant: true,
            closing: false,
        }
    }
}

/// A thread's wake descriptor: `(write end, read end)` of a nonblocking
/// socket pair. The thread polls the read end beside its sockets; one
/// byte written to the write end ends its wait.
fn wake_pair() -> io::Result<(Arc<UnixStream>, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Arc::new(tx), rx))
}

/// Wakes the thread polling the other end of `tx`. A full buffer means a
/// wake is already pending, so a failed write loses nothing.
fn wake(tx: &UnixStream) {
    let _ = (&*tx).write(&[1]);
}

/// Empties a wake descriptor so the next `poll` blocks again.
fn drain_wakes(rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!((&*rx).read(&mut buf), Ok(n) if n > 0) {}
}

/// A running daemon. Dropping it (or calling [`stop`](Server::stop))
/// shuts the listeners, closes every session and joins the threads.
pub struct Server {
    stop: Arc<AtomicBool>,
    /// Write ends of the acceptor's and every worker's wake descriptor.
    wakers: Vec<Arc<UnixStream>>,
    /// The ticker waits on this between heartbeats; dropping it ends the
    /// wait at once.
    ticker: Option<Sender<()>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    live: Arc<AtomicUsize>,
}

impl Server {
    /// Boots the daemon around `kernel`.
    ///
    /// Binds the listeners (so a `port 0` request has its real port in
    /// [`tcp_addr`](Server::tcp_addr) when this returns), then spawns the
    /// acceptor, the session workers and (if `tick_ms > 0`) the kernel
    /// ticker.
    pub fn start(kernel: SurfOS, opts: ServeOptions) -> io::Result<Server> {
        let tcp = match &opts.tcp {
            Some(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let tcp_addr = tcp.as_ref().map(|l| l.local_addr()).transpose()?;
        let unix = match &opts.unix {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };

        let state = Arc::new(Mutex::new(Dispatcher::new(kernel, &opts)));
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        let workers = if opts.workers > 0 {
            opts.workers
        } else {
            surfos_channel::par::configured_threads().min(8)
        };
        // Every wake descriptor exists before any thread does, so a failed
        // `socketpair` leaves nothing running.
        let (accept_waker, accept_wake) = wake_pair()?;
        let worker_wakes = (0..workers)
            .map(|_| wake_pair())
            .collect::<io::Result<Vec<_>>>()?;

        let mut wakers = vec![accept_waker];
        let mut handoff = Vec::with_capacity(workers);
        let mut handles = Vec::new();
        for (w, (waker, wake_rx)) in worker_wakes.into_iter().enumerate() {
            let (to_worker, inbox) = mpsc::channel();
            handoff.push((to_worker, waker.clone()));
            wakers.push(waker);
            let (stop, live, state) = (stop.clone(), live.clone(), state.clone());
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rpc-worker-{w}"))
                    .spawn(move || worker_loop(&stop, &wake_rx, &inbox, &live, &state))
                    .expect("spawn worker"),
            );
        }
        {
            let (stop, live) = (stop.clone(), live.clone());
            let max_conns = opts.max_conns;
            handles.push(
                std::thread::Builder::new()
                    .name("rpc-accept".into())
                    .spawn(move || {
                        accept_loop(tcp, unix, &accept_wake, &stop, &handoff, &live, max_conns)
                    })
                    .expect("spawn acceptor"),
            );
        }
        let ticker = (opts.tick_ms > 0).then(|| {
            let (ticker, stopped) = mpsc::channel::<()>();
            let state = state.clone();
            let dt = opts.tick_ms;
            let tick = Duration::from_millis(dt);
            handles.push(
                std::thread::Builder::new()
                    .name("rpc-ticker".into())
                    .spawn(move || {
                        // A timeout is the next heartbeat; a disconnect
                        // (the server dropped its end) is shutdown.
                        while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(tick) {
                            let _span = obs::span!("daemon.tick");
                            let mut st = lock_state(&state);
                            let step = panic::catch_unwind(AssertUnwindSafe(|| {
                                st.kernel_mut().step(dt);
                            }));
                            if step.is_err() {
                                obs::add("daemon.tick_panics", 1);
                            }
                        }
                    })
                    .expect("spawn ticker"),
            );
            ticker
        });

        Ok(Server {
            stop,
            wakers,
            ticker,
            handles,
            tcp_addr,
            unix_path: opts.unix,
            live,
        })
    }

    /// The bound TCP address (the real port when `0` was requested).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The unix socket path, if one is being served.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// Connections currently open.
    pub fn live_conns(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Stops the daemon: listeners close, every session is dropped,
    /// threads join, the unix socket file is removed. Returns promptly
    /// however long the heartbeat period is.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.ticker = None;
        for waker in &self.wakers {
            wake(waker);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A worker's handoff: its session inbox and the write end of its wake
/// descriptor.
type Handoff = (Sender<Session>, Arc<UnixStream>);

fn accept_loop(
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    wake_rx: &UnixStream,
    stop: &AtomicBool,
    workers: &[Handoff],
    live: &AtomicUsize,
    max_conns: usize,
) {
    let mut fds = vec![PollFd::new(wake_rx.as_raw_fd(), POLLIN)];
    fds.extend(tcp.iter().map(|l| PollFd::new(l.as_raw_fd(), POLLIN)));
    fds.extend(unix.iter().map(|l| PollFd::new(l.as_raw_fd(), POLLIN)));
    let mut conn_seq: u64 = 0;
    loop {
        wait(&mut fds, None);
        if fds[0].ready() {
            drain_wakes(wake_rx);
            if stop.load(Ordering::SeqCst) {
                return;
            }
        }
        let mut incoming = Vec::new();
        if let Some(l) = &tcp {
            while let Ok((s, _)) = l.accept() {
                incoming.push(Conn::Tcp(s));
            }
        }
        if let Some(l) = &unix {
            while let Ok((s, _)) = l.accept() {
                incoming.push(Conn::Unix(s));
            }
        }
        for mut conn in incoming {
            if live.load(Ordering::Relaxed) >= max_conns {
                // Over the connection cap: structured rejection, then
                // close. The peer gets an answer, not a hang.
                obs::add("rpc.conns.over_capacity", 1);
                {
                    let _reason = obs::scoped(&[("reason", "conn_cap")]);
                    obs::add("rpc.rejected", 1);
                }
                let body = Response::Rejected {
                    reason: format!("connection limit reached ({max_conns})"),
                }
                .encode(0);
                let _ = write_frame(&mut conn, &body);
                continue;
            }
            let Ok(conn) = FramedConn::new(conn) else {
                continue;
            };
            conn_seq += 1;
            live.fetch_add(1, Ordering::Relaxed);
            obs::add("rpc.conns.opened", 1);
            obs::gauge("rpc.conns.live", live.load(Ordering::Relaxed) as f64);
            // Round robin; the wake goes after the push, so the worker
            // finds the session when its `poll` returns.
            let (inbox, waker) = &workers[(conn_seq % workers.len() as u64) as usize];
            match inbox.send(Session::new(conn, conn_seq)) {
                Ok(()) => wake(waker),
                // That worker is gone; the connection closes with the
                // returned session.
                Err(_) => {
                    live.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }
}

fn worker_loop(
    stop: &AtomicBool,
    wake_rx: &UnixStream,
    inbox: &Receiver<Session>,
    live: &AtomicUsize,
    state: &Mutex<Dispatcher>,
) {
    let mut sessions: Vec<Session> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        fds.clear();
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        // More requests unless closing; room to write while answers are
        // unflushed.
        fds.extend(sessions.iter().map(|s| s.conn.interest(!s.closing)));
        wait(&mut fds, None);
        if fds[0].ready() {
            drain_wakes(wake_rx);
            if stop.load(Ordering::SeqCst) {
                return;
            }
            // Adopt the connections handed over; the next `poll` reports
            // whatever they have already sent.
            sessions.extend(inbox.try_iter());
        }

        for (s, fd) in sessions.iter_mut().zip(&fds[1..]) {
            if fd.ready() {
                sweep_session(s, state);
            }
        }

        // Drop closed sessions, tearing down their auto tenants.
        let before = sessions.len();
        let mut dead = Vec::new();
        sessions.retain_mut(|s| {
            if s.closing && s.conn.flushed() {
                dead.push((s.tenant.clone(), s.auto_tenant));
                false
            } else {
                true
            }
        });
        if before != sessions.len() {
            live.fetch_sub(before - sessions.len(), Ordering::Relaxed);
            obs::add("rpc.conns.closed", (before - sessions.len()) as u64);
            obs::gauge("rpc.conns.live", live.load(Ordering::Relaxed) as f64);
            let mut st = lock_state(state);
            for (tenant, auto) in dead {
                if auto {
                    st.teardown(&tenant);
                }
            }
        }
    }
}

/// One sweep over one session that `poll` reported ready: drain readable
/// bytes (at most [`READ_QUANTUM`]; a session with more is ready again on
/// the next `poll`), serve every complete frame, flush.
fn sweep_session(s: &mut Session, state: &Mutex<Dispatcher>) {
    if !s.closing && !matches!(s.conn.fill(READ_QUANTUM), Ok(true)) {
        s.closing = true;
    }

    // A mid-frame disconnect (EOF with bytes still pending in the frame
    // buffer) is simply dropped: there is no complete request to serve
    // and nobody left to answer.
    loop {
        match s.conn.next_frame() {
            Ok(Some(body)) => serve_frame(s, state, &body),
            Ok(None) => break,
            // Framing is unrecoverable (we cannot resync a byte stream
            // with a hostile length prefix): answer once, then close.
            Err(e) => {
                obs::add("rpc.frame_errors", 1);
                let body = Response::Error {
                    message: format!("framing error: {e}"),
                }
                .encode(0);
                s.conn.queue(&body);
                s.closing = true;
                break;
            }
        }
    }

    if s.conn.flush().is_err() {
        s.closing = true;
    }
}

/// The kernel lock. A poisoned lock is recovered, not propagated: a
/// dispatch or heartbeat panic is caught while the guard is held, so only
/// a panic elsewhere under the lock (a disconnect teardown) can poison it,
/// and one such panic must not take every later request down with it.
fn lock_state(state: &Mutex<Dispatcher>) -> MutexGuard<'_, Dispatcher> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Decodes one frame body, binds the session tenant, dispatches, queues
/// the response.
fn serve_frame(s: &mut Session, state: &Mutex<Dispatcher>, body: &str) {
    let t0 = Instant::now();
    // Decode finished → kernel lock held: the wait behind a heartbeat or
    // another worker's dispatch. Timed only while obs records.
    let mut lock_wait = None;
    let (id, op, answer) = match RequestEnvelope::decode(body) {
        Ok(env) => {
            if !s.bound {
                if let Some(claim) = &env.tenant {
                    s.tenant = claim.clone();
                    s.auto_tenant = false;
                }
                s.bound = true;
            }
            let op = env.request.op();
            let decoded = obs::enabled().then(Instant::now);
            let mut st = lock_state(state);
            lock_wait = decoded.map(|t| t.elapsed());
            let answer =
                panic::catch_unwind(AssertUnwindSafe(|| st.answer(&s.tenant, &env.request)))
                    .unwrap_or_else(|_| {
                        obs::add("rpc.panics", 1);
                        Ok(Response::Error {
                            message: format!("internal error serving `{op}`"),
                        })
                    });
            (env.id, op, answer)
        }
        Err(ProtoError(message)) => (0, "invalid", Ok(Response::Error { message })),
    };
    let _op_label = obs::scoped(&[("op", op)]);
    obs::observe_ns("rpc.request_ns", t0.elapsed().as_nanos() as u64);
    if let Some(wait) = lock_wait {
        obs::observe_ns("rpc.stage.lock_wait_ns", wait.as_nanos() as u64);
    }
    obs::add("rpc.requests", 1);
    let response = match answer {
        Ok(response) => {
            if let Response::Error { .. } = response {
                obs::add("rpc.errors", 1);
            }
            response
        }
        Err(rejection) => {
            let _reason = obs::scoped(&[("reason", rejection.label)]);
            obs::add("rpc.rejected", 1);
            rejection.into_response()
        }
    };
    s.conn.queue(&response.encode(id));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::conn::Client;
    use std::net::TcpStream;
    use surfos_channel::ChannelSim;
    use surfos_em::band::NamedBand;
    use surfos_geometry::scenario::two_room_apartment;
    use surfos_orchestrator::task::TaskState;

    fn kernel() -> SurfOS {
        demo_kernel()
    }

    fn dispatcher(capacity: usize, per_tenant: usize) -> Dispatcher {
        let opts = ServeOptions {
            capacity,
            per_tenant,
            ..ServeOptions::default()
        };
        Dispatcher::new(kernel(), &opts)
    }

    #[test]
    fn poisoned_state_lock_still_serves() {
        let state = Mutex::new(dispatcher(8, 4));
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = state.lock().expect("fresh lock");
                    panic!("poison the kernel lock");
                })
                .join()
        });
        assert!(poisoner.is_err() && state.is_poisoned());

        let (ours, peer) = UnixStream::pair().expect("socket pair");
        let mut session = Session::new(FramedConn::new(Conn::Unix(ours)).unwrap(), 1);
        for (id, request) in [
            (1, Request::Ping),
            (
                2,
                Request::QueryChannel {
                    tx: "ap0".into(),
                    rx: "laptop".into(),
                },
            ),
        ] {
            serve_frame(
                &mut session,
                &state,
                &RequestEnvelope::new(id, request).encode(),
            );
        }
        session.conn.flush().expect("flush");
        let mut client = Client::new(Conn::Unix(peer)).expect("client");
        let mut answer = || client.recv().expect("an answer").expect("a frame");
        assert!(matches!(answer(), (1, Response::Pong { .. })));
        assert!(matches!(answer(), (2, Response::Channel { .. })));
    }

    /// A loopback TCP pair: a client, the daemon end as the accept path
    /// leaves it, and a second handle on the daemon end's socket.
    fn accepted_pair() -> (Client, FramedConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = Client::tcp(listener.local_addr().unwrap()).expect("connect");
        let daemon_end = listener.accept().expect("accept").0;
        let handle = daemon_end.try_clone().expect("clone");
        let conn = FramedConn::new(Conn::Tcp(daemon_end)).expect("prepare");
        (client, conn, handle)
    }

    #[test]
    fn accept_path_turns_nagle_off() {
        let (_client, _conn, daemon_end) = accepted_pair();
        assert!(daemon_end.nodelay().unwrap());
    }

    #[test]
    fn stop_does_not_wait_for_the_next_heartbeat() {
        let server = Server::start(
            kernel(),
            ServeOptions {
                tick_ms: 10_000,
                workers: 2,
                ..ServeOptions::default()
            },
        )
        .expect("bind loopback");
        let t0 = Instant::now();
        server.stop();
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }

    /// Two pipelined answers written one after the other while the first
    /// is unacknowledged: the second must leave at once. With Nagle on it
    /// waits for the client's ACK, which the client delays (up to 40 ms)
    /// because it has nothing to send until that answer arrives. The
    /// kernel lock is held so the worker reads the first request alone
    /// and the second arrives before the first answer leaves.
    #[test]
    fn second_pipelined_answer_is_not_held_for_a_delayed_ack() {
        let (mut client, conn, daemon_end) = accepted_pair();
        // Spins until the daemon end has (or no longer has) unread bytes.
        let await_pending = |want: bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while matches!(daemon_end.peek(&mut [0u8; 1]), Ok(n) if n > 0) != want {
                assert!(Instant::now() < deadline, "worker never read");
            }
        };

        let state = Arc::new(Mutex::new(dispatcher(8, 4)));
        let (stop, live) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicUsize::new(1)),
        );
        let (waker, wake_rx) = wake_pair().unwrap();
        let (to_worker, inbox) = mpsc::channel();
        to_worker.send(Session::new(conn, 1)).unwrap();
        wake(&waker);
        let worker = {
            let (stop, live, state) = (stop.clone(), live.clone(), state.clone());
            std::thread::spawn(move || worker_loop(&stop, &wake_rx, &inbox, &live, &state))
        };

        let mut id = 0;
        let mut call = |client: &mut Client| {
            id += 1;
            client
                .send(&RequestEnvelope::new(id, Request::Ping).encode())
                .unwrap();
            id
        };
        let answer = |client: &mut Client, want: u64| {
            assert_eq!(client.recv().unwrap().expect("an answer").0, want);
        };
        // Plain round trips first: they put the client's TCP into its
        // interactive mode, where it delays lone ACKs.
        for _ in 0..8 {
            let id = call(&mut client);
            answer(&mut client, id);
        }
        let mut waits: Vec<Duration> = (0..10)
            .map(|_| {
                let held = state.lock().unwrap();
                let first = call(&mut client);
                await_pending(false); // the worker took it and waits on the lock
                let second = call(&mut client);
                await_pending(true); // queued behind the first
                let t0 = Instant::now();
                drop(held);
                answer(&mut client, first);
                answer(&mut client, second);
                t0.elapsed()
            })
            .collect();
        stop.store(true, Ordering::SeqCst);
        wake(&waker);
        worker.join().unwrap();
        waits.sort();
        let median = waits[waits.len() / 2];
        assert!(
            median < Duration::from_millis(20),
            "median {median:?}, all {waits:?}"
        );
    }

    #[test]
    fn ping_echoes_tenant_and_version() {
        let mut d = dispatcher(8, 4);
        let resp = d.dispatch("conn-1", &Request::Ping);
        assert_eq!(
            resp,
            Response::Pong {
                version: PROTOCOL_VERSION,
                tenant: "conn-1".into()
            }
        );
    }

    #[test]
    fn register_then_release_round_trips_through_the_kernel() {
        let mut d = dispatcher(8, 4);
        let resp = d.dispatch(
            "t",
            &Request::RegisterService {
                kind: "coverage".into(),
                subject: "bedroom".into(),
                value: 25.0,
            },
        );
        let Response::Registered { service, task } = resp else {
            panic!("expected Registered, got {resp:?}");
        };
        assert!(d.kernel().orchestrator().tasks.get(task).is_some());
        let resp = d.dispatch("t", &Request::ReleaseService { service });
        assert_eq!(resp, Response::Released { service });
        // The backing task was retired, not left pending.
        let state = d.kernel().orchestrator().tasks.get(task).unwrap().state;
        assert!(matches!(state, TaskState::Failed | TaskState::Completed));
    }

    #[test]
    fn quota_exhaustion_rejects_with_reason() {
        let mut d = dispatcher(64, 2);
        let req = Request::RegisterService {
            kind: "coverage".into(),
            subject: "bedroom".into(),
            value: 25.0,
        };
        assert!(matches!(d.dispatch("t", &req), Response::Registered { .. }));
        assert!(matches!(d.dispatch("t", &req), Response::Registered { .. }));
        let Response::Rejected { reason } = d.dispatch("t", &req) else {
            panic!("third registration should exceed the per-tenant cap");
        };
        assert!(reason.contains("quota"), "{reason}");
        // A different tenant still gets in.
        assert!(matches!(d.dispatch("u", &req), Response::Registered { .. }));
    }

    #[test]
    fn empty_grid_rejects_instead_of_queueing() {
        let scen = two_room_apartment();
        let sim = ChannelSim::new(scen.plan.clone(), NamedBand::MmWave28GHz.band());
        let mut d = Dispatcher::new(SurfOS::new(sim), &ServeOptions::default());
        let Response::Rejected { reason } = d.dispatch(
            "t",
            &Request::RegisterService {
                kind: "coverage".into(),
                subject: "bedroom".into(),
                value: 25.0,
            },
        ) else {
            panic!("no surfaces deployed: must reject");
        };
        assert!(reason.contains("no surfaces"), "{reason}");

        // A surface but no access point: admitting would queue a task
        // the next heartbeat cannot schedule.
        let mut os = SurfOS::new(ChannelSim::new(
            scen.plan.clone(),
            NamedBand::MmWave28GHz.band(),
        ));
        os.deploy_surface(
            "wall0",
            Box::new(surfos_hw::ProgrammableDriver::new(
                surfos_hw::designs::nr_surface(),
            )),
            *scen.anchor("bedroom-north").unwrap(),
        );
        let mut d = Dispatcher::new(os, &ServeOptions::default());
        for request in [
            Request::RegisterService {
                kind: "coverage".into(),
                subject: "bedroom".into(),
                value: 25.0,
            },
            Request::SubmitIntent {
                utterance: "I want to watch a movie on my laptop".into(),
            },
        ] {
            let resp = d.dispatch("t", &request);
            assert_eq!(
                resp,
                Response::Rejected {
                    reason: "no access point registered".into()
                }
            );
        }
        assert!(d.kernel().orchestrator().tasks.all().is_empty());
        d.kernel_mut().step(10);
    }

    #[test]
    fn unknown_kind_and_endpoint_are_errors_not_rejections() {
        let mut d = dispatcher(8, 4);
        let resp = d.dispatch(
            "t",
            &Request::RegisterService {
                kind: "teleport".into(),
                subject: "bedroom".into(),
                value: 1.0,
            },
        );
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        let resp = d.dispatch(
            "t",
            &Request::QueryChannel {
                tx: "ap0".into(),
                rx: "ghost".into(),
            },
        );
        let Response::Error { message } = resp else {
            panic!("unknown endpoint must be an error");
        };
        assert!(message.contains("ghost"), "{message}");
    }

    /// One table of bad inputs through both front ends: the daemon's
    /// dispatcher and the operator shell must refuse each with the same
    /// reason text, because both take it from the same orchestrator verb.
    #[test]
    fn daemon_and_shell_give_the_same_reason_text() {
        use crate::shell::Shell;
        const FULL: &str = "scenario apartment\ndeploy wall0 scattermimo bedroom-north\nap ap0\nclient laptop 6.5 1.5 1.2";
        const NO_SURFACE: &str = "scenario apartment\nap ap0\nclient laptop 6.5 1.5 1.2";
        const NO_AP: &str =
            "scenario apartment\ndeploy wall0 scattermimo bedroom-north\nclient laptop 6.5 1.5 1.2";
        let register = |kind: &str| Request::RegisterService {
            kind: kind.into(),
            subject: "bedroom".into(),
            value: 25.0,
        };
        let intent = Request::SubmitIntent {
            utterance: "I want to watch a movie on my laptop".into(),
        };
        let query = Request::QueryChannel {
            tx: "ap0".into(),
            rx: "ghost".into(),
        };
        let cases = [
            (
                NO_SURFACE,
                "request coverage bedroom 25",
                register("coverage"),
            ),
            (
                NO_SURFACE,
                "say I want to watch a movie on my laptop",
                intent.clone(),
            ),
            (NO_AP, "request coverage bedroom 25", register("coverage")),
            (NO_AP, "say I want to watch a movie on my laptop", intent),
            (FULL, "request teleport bedroom 25", register("teleport")),
            (FULL, "budget ap0 ghost", query.clone()),
            (FULL, "diagnose ap0 ghost", query.clone()),
            (FULL, "crossband 5ghz ap0 ghost", query),
        ];
        for (script, command, request) in cases {
            let boot = || {
                let mut shell = Shell::new();
                shell.run_script(script).expect("setup script runs");
                shell
            };
            let mut shell = boot();
            let shell_text = shell.execute(command).expect_err(command).what;
            let mut d = Dispatcher::new(
                boot().into_kernel().expect("kernel"),
                &ServeOptions::default(),
            );
            let (Response::Rejected {
                reason: daemon_text,
            }
            | Response::Error {
                message: daemon_text,
            }) = d.dispatch("t", &request)
            else {
                panic!("{command}: the daemon accepted what the shell refused");
            };
            assert_eq!(shell_text, daemon_text, "{command}");
        }
    }

    #[test]
    fn query_channel_reports_a_live_link_budget() {
        let mut d = dispatcher(8, 4);
        let resp = d.dispatch(
            "t",
            &Request::QueryChannel {
                tx: "ap0".into(),
                rx: "laptop".into(),
            },
        );
        let Response::Channel {
            rss_dbm,
            snr_db,
            capacity_bps,
        } = resp
        else {
            panic!("expected Channel");
        };
        assert!(rss_dbm.is_finite() && rss_dbm < 0.0);
        assert!(snr_db.is_finite());
        assert!(capacity_bps >= 0.0);
    }

    #[test]
    fn intent_registers_leases_up_to_quota() {
        let mut d = dispatcher(64, 1);
        let resp = d.dispatch(
            "t",
            &Request::SubmitIntent {
                utterance: "I want to watch a movie on my laptop".into(),
            },
        );
        let Response::IntentTasks { tasks } = resp else {
            panic!("expected IntentTasks");
        };
        // per-tenant cap is 1: exactly one lease admitted regardless of
        // how many tasks the utterance grounded into.
        assert_eq!(tasks.len().min(1), tasks.len());
        assert_eq!(d.registry.live_of("t"), tasks.len());
    }

    #[test]
    fn teardown_releases_auto_tenant_leases() {
        let mut d = dispatcher(8, 4);
        let Response::Registered { task, .. } = d.dispatch(
            "conn-1",
            &Request::RegisterService {
                kind: "coverage".into(),
                subject: "bedroom".into(),
                value: 25.0,
            },
        ) else {
            panic!("expected Registered");
        };
        assert_eq!(d.registry.live(), 1);
        d.teardown("conn-1");
        assert_eq!(d.registry.live(), 0);
        let state = d.kernel().orchestrator().tasks.get(task).unwrap().state;
        assert!(matches!(state, TaskState::Failed | TaskState::Completed));
    }

    #[test]
    fn metrics_payload_is_parseable_json() {
        let mut d = dispatcher(8, 4);
        let Response::Metrics { json } = d.dispatch(
            "t",
            &Request::Metrics {
                deterministic: true,
            },
        ) else {
            panic!("expected Metrics");
        };
        surfos_obs::JsonValue::parse(&json).expect("metrics must parse");
    }
}
