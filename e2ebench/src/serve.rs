//! The serving workload `serve-tick`: an open loop at a fixed rate against
//! an in-process `surfosd serve` daemon (`Server::start`) with the heartbeat
//! ticker on, over loopback TCP, with two client threads and two
//! connections.

use crate::checks;
use crate::layers;
use crate::outcome::{OpCount, Outcome};
use crate::record::Recorder;
use crate::stats::{median, Samples, Timeline};
use crate::sysinfo;
use crate::Args;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use surfos::channel::Endpoint;
use surfos::daemon::{demo_kernel, ServeOptions, Server};
use surfos::geometry::scenario::two_room_apartment;
use surfos::obs;
use surfos::rpc::frame::{encode_frame, FrameBuf};
use surfos::rpc::proto::{Request, RequestEnvelope, Response};
use surfos::SurfOS;

/// Client endpoints added to the demo apartment, placed by the seed.
const SEEDED_CLIENTS: usize = 6;
/// Client connections (and client threads): the host's two cores.
const CONNS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// Safety net for one answer; an answer later than this is a failure.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);

/// The serve-tick heartbeat period, ms.
const TICK_MS: u64 = 200;
/// serve-tick offered load per connection, requests/s.
const TICK_RATE_PER_CONN: f64 = 200.0;
/// serve-tick op cycles: connection 0 swaps its lease (release, then
/// register at the same due time) once per cycle among queries;
/// connection 1 opens each cycle with an intent on a fresh connection.
/// Either way the live task set stays the same size from one heartbeat to
/// the next, so heartbeat cost stays steady.
const WRITE_CYCLE: [Op; 10] = [
    Op::Release,
    Op::Register,
    Op::Query,
    Op::Query,
    Op::Query,
    Op::Query,
    Op::Query,
    Op::Query,
    Op::Query,
    Op::Query,
];
const INTENT_CYCLE_LEN: usize = 50;
/// The intent utterance (grounds to one powering task).
pub const UTTERANCE: &str = "charge my phone";

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Query,
    Register,
    Release,
    Intent,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Query => "query",
            Op::Register => "register",
            Op::Release => "release",
            Op::Intent => "intent",
        }
    }
}

/// The served scene: the demo apartment plus seeded clients, and the
/// `(tx, rx)` pairs queries draw from.
#[derive(Clone)]
pub struct Scene {
    pub seed: u64,
    pub pairs: Vec<(String, String)>,
    /// Noise figure of every endpoint, by id.
    pub noise_figure: HashMap<String, f64>,
}

impl Scene {
    pub fn new(seed: u64) -> Self {
        let kernel = Scene::kernel_for(seed);
        let orch = kernel.orchestrator();
        let mut ids = vec!["laptop".to_string()];
        ids.extend((0..SEEDED_CLIENTS).map(|i| format!("c{i}")));
        let mut noise_figure = HashMap::new();
        for id in ids.iter().chain(std::iter::once(&"ap0".to_string())) {
            let ep = orch.endpoint(id).expect("scene endpoint");
            noise_figure.insert(id.clone(), ep.noise_figure_db);
        }
        let mut pairs: Vec<(String, String)> =
            ids.iter().map(|c| ("ap0".to_string(), c.clone())).collect();
        pairs.push(("laptop".into(), "ap0".into()));
        Scene {
            seed,
            pairs,
            noise_figure,
        }
    }

    /// A freshly built kernel for this scene (cache cold).
    pub fn kernel(&self) -> SurfOS {
        Scene::kernel_for(self.seed)
    }

    fn kernel_for(seed: u64) -> SurfOS {
        let mut os = demo_kernel();
        let scen = two_room_apartment();
        let mut spots = scen.target().sample_grid(6, 6, 1.2, 0.4);
        if let Some(living) = scen
            .plan
            .rooms()
            .iter()
            .find(|r| r.name != scen.target_room)
        {
            spots.extend(living.sample_grid(6, 6, 1.2, 0.4));
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c11e);
        for i in 0..SEEDED_CLIENTS {
            let k = crate::below(&mut rng, spots.len());
            os.add_endpoint(Endpoint::client(format!("c{i}"), spots.swap_remove(k)));
        }
        os
    }

    pub fn bandwidth_hz(&self) -> f64 {
        surfos::em::band::NamedBand::MmWave28GHz.band().bandwidth_hz
    }
}

/// How long a non-blocking client sleeps when its socket has nothing to
/// read (socket timeouts round up to the kernel tick, milliseconds, which
/// would make the open loop send late).
const POLL_QUANTUM: Duration = Duration::from_micros(20);

/// One non-blocking loopback connection with an incremental frame decoder;
/// it sleeps in `POLL_QUANTUM` steps so the open loop can send on time.
struct Wire {
    stream: TcpStream,
    buf: FrameBuf,
    scratch: Vec<u8>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Wire {
            stream,
            buf: FrameBuf::new(),
            scratch: vec![0; 64 * 1024],
        })
    }

    fn send(&mut self, body: &str) -> io::Result<()> {
        let frame = encode_frame(body);
        let mut sent = 0;
        while sent < frame.len() {
            match self.stream.write(&frame[sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL_QUANTUM),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Waits up to `wait` for bytes; returns every complete frame with the
    /// time it was read. `Ok(None)` means the peer closed.
    fn poll(&mut self, wait: Duration) -> io::Result<Option<Vec<(String, Instant)>>> {
        let n = match self.stream.read(&mut self.scratch) {
            Ok(0) => return Ok(None),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                std::thread::sleep(wait.min(POLL_QUANTUM));
                return Ok(Some(Vec::new()));
            }
            Err(e) => return Err(e),
        };
        let now = Instant::now();
        self.buf.extend(&self.scratch[..n]);
        let mut frames = Vec::new();
        while let Some(f) = self
            .buf
            .next_frame()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        {
            frames.push((f, now));
        }
        Ok(Some(frames))
    }

    /// Sends `body` and blocks for its answer.
    fn call(&mut self, body: &str) -> Result<(String, Instant), String> {
        self.send(body).map_err(|e| e.to_string())?;
        let deadline = Instant::now() + ANSWER_TIMEOUT;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err("answer timed out".into());
            }
            match self.poll(deadline - now).map_err(|e| e.to_string())? {
                None => return Err("connection closed".into()),
                Some(mut frames) if !frames.is_empty() => return Ok(frames.remove(0)),
                Some(_) => {}
            }
        }
    }
}

/// One request/response pair as it crossed the wire (kept in traced runs
/// for the in-process replay).
#[derive(Clone)]
pub struct Exchange {
    /// Position on the connection's timeline (sorts the replay).
    pub sent: Instant,
    /// Which client tenant sent it (a reconnect is a new tenant).
    pub tenant: usize,
    pub op: Op,
    pub req: String,
    pub resp: String,
    pub rtt_ns: u64,
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    ops: BTreeMap<String, OpCount>,
    errors: Vec<String>,
    /// Completion time and latency (due → answer) of every answered
    /// request.
    timeline: Timeline,
    /// When the client started its schedule.
    started: Option<Instant>,
    /// How late each request was sent.
    lag: Samples,
    exchanges: Vec<Exchange>,
    recorder: Option<Recorder>,
}

impl ClientLog {
    fn count(&mut self, op: Op, failed: bool) {
        let c = self.ops.entry(op.name().to_string()).or_default();
        c.attempted += 1;
        c.failed += failed as u64;
    }
}

/// Validates one answer and files it; returns whether it failed.
fn file_answer(
    log: &mut ClientLog,
    scene: &Scene,
    op: Op,
    id: u64,
    pair: Option<usize>,
    released: Option<u64>,
    body: &str,
) -> Result<Response, ()> {
    let (got_id, resp) = match Response::decode(body) {
        Ok(r) => r,
        Err(e) => {
            log.errors
                .push(format!("{} #{id}: undecodable answer: {e}", op.name()));
            return Err(());
        }
    };
    if let Err(e) = checks::check_response(op.name(), id, got_id, &resp, released) {
        log.errors.push(e);
        return Err(());
    }
    if let (
        Some(p),
        Response::Channel {
            rss_dbm,
            snr_db,
            capacity_bps,
        },
    ) = (pair, &resp)
    {
        let rx = &scene.pairs[p].1;
        if let Err(e) = checks::check_channel(
            *rss_dbm,
            *snr_db,
            *capacity_bps,
            scene.bandwidth_hz(),
            scene.noise_figure[rx],
        ) {
            log.errors.push(e);
            return Err(());
        }
    }
    Ok(resp)
}

fn query_request(scene: &Scene, p: usize) -> Request {
    Request::QueryChannel {
        tx: scene.pairs[p].0.clone(),
        rx: scene.pairs[p].1.clone(),
    }
}

fn register_request(kind: &str, subject: &str, value: f64) -> Request {
    Request::RegisterService {
        kind: kind.into(),
        subject: subject.into(),
        value,
    }
}

/// A booted daemon and its client connections.
struct Rig {
    server: Server,
    wires: Vec<Wire>,
}

/// Boots the daemon, opens the client connections and warms the daemon's
/// caches `SETUPS` times, keeping the last rig; returns it with the median
/// set-up time.
fn boot(
    scene: &Scene,
    opts: &ServeOptions,
    prepare: impl Fn(SocketAddr) -> Result<(), String>,
) -> Result<(Rig, f64), String> {
    let mut times = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let t0 = Instant::now();
        let server = Server::start(scene.kernel(), opts.clone()).map_err(|e| e.to_string())?;
        let addr = server.tcp_addr().ok_or("daemon has no TCP address")?;
        prepare(addr)?;
        let mut wires = Vec::new();
        for _ in 0..CONNS {
            let mut w = Wire::connect(addr).map_err(|e| e.to_string())?;
            call_checked(&mut w, "ping", Request::Ping)?;
            wires.push(w);
        }
        // Fill the daemon's linearization cache: one query per pair.
        for p in 0..scene.pairs.len() {
            call_checked(&mut wires[0], "query", query_request(scene, p))?;
        }
        times.push(t0.elapsed().as_secs_f64());
        rig = Some(Rig { server, wires });
    }
    Ok((rig.expect("SETUPS > 0"), median(&times)))
}

/// One blocking request whose answer must match its op.
fn call_checked(wire: &mut Wire, op: &str, request: Request) -> Result<Response, String> {
    let (body, _) = wire.call(&RequestEnvelope::new(0, request).encode())?;
    let (id, resp) = Response::decode(&body).map_err(|e| e.0)?;
    checks::check_response(op, 0, id, &resp, None)?;
    Ok(resp)
}

/// Median latency of one phase.
fn phase_p50(logs: &[ClientLog]) -> f64 {
    let mut lat = Samples::new();
    for l in logs {
        lat.extend(&l.timeline.latencies());
    }
    lat.median_ns() as f64
}

/// Sets the end-to-end figures from one phase's logs.
fn record_e2e(out: &mut Outcome, logs: &[ClientLog], what: &str) {
    let mut timeline = Timeline::default();
    let mut start: Option<Instant> = None;
    for l in logs {
        timeline.extend(&l.timeline);
        start = match (start, l.started) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
    out.set_e2e_timeline(&timeline, start.expect("client started"));
    out.detail_latency(what, &timeline.latencies());
}

/// The serve-tick daemon options: heartbeat on, one session worker, quotas
/// far above what two connections can hold.
fn tick_opts() -> ServeOptions {
    ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        tick_ms: TICK_MS,
        capacity: 256,
        per_tenant: 16,
        ..ServeOptions::default()
    }
}

/// The resident service set, registered under a claimed (durable) tenant
/// before the load starts: one powering service the heartbeat
/// re-optimizes every period.
fn register_residents(addr: SocketAddr) -> Result<(), String> {
    let mut w = Wire::connect(addr).map_err(|e| e.to_string())?;
    let env = RequestEnvelope::with_tenant(
        1,
        "resident",
        register_request("powering", "laptop", 3600.0),
    );
    let (body, _) = w.call(&env.encode())?;
    let (id, resp) = Response::decode(&body).map_err(|e| e.0)?;
    checks::check_response("register", 1, id, &resp, None)
}

/// One scheduled open-loop request.
#[derive(Clone, Copy)]
struct Slot {
    op: Op,
    due: Duration,
    pair: Option<usize>,
}

/// The open-loop schedule of one connection: Poisson arrivals at
/// `TICK_RATE_PER_CONN`, whole op cycles covering `secs`.
fn schedule(conn: usize, seed: u64, secs: f64, scene: &Scene) -> Vec<Slot> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0be1_0000 ^ conn as u64);
    let cycle: Vec<Op> = if conn == 0 {
        WRITE_CYCLE.to_vec()
    } else {
        let mut c = vec![Op::Intent];
        c.resize(INTENT_CYCLE_LEN, Op::Query);
        c
    };
    let wanted = (secs * TICK_RATE_PER_CONN).ceil() as usize;
    let total = wanted.div_ceil(cycle.len()) * cycle.len();
    let mut t = 0.0f64;
    (0..total)
        .map(|i| {
            let u: f64 = rng.random();
            let gap = -(1.0 - u).ln() / TICK_RATE_PER_CONN;
            let op = cycle[i % cycle.len()];
            if op != Op::Register {
                t += gap;
            }
            let pair = (op == Op::Query).then(|| crate::below(&mut rng, scene.pairs.len()));
            Slot {
                op,
                due: Duration::from_secs_f64(t),
                pair,
            }
        })
        .collect()
}

/// serve-tick: an open loop against the ticking daemon.
pub fn serve_tick(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let scene = Scene::new(args.seed);
    let opts = tick_opts();
    let (rig, setup_s) = match boot(&scene, &opts, register_residents) {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("serve-tick set-up: {e}"));
            return out;
        }
    };
    out.set_e2e("setup_s", setup_s, "s");
    let Rig { server, mut wires } = rig;
    let addr = server.tcp_addr().expect("tcp");
    // Connection 0 holds one lease from the start; each cycle swaps it.
    let mut leases = [None; CONNS];
    match wires[0]
        .call(&RequestEnvelope::new(0, register_request("powering", "laptop", 3600.0)).encode())
    {
        Ok((body, _)) => match Response::decode(&body) {
            Ok((_, Response::Registered { service, .. })) => leases[0] = Some(service),
            other => out.fail(format!("serve-tick: first lease: {other:?}")),
        },
        Err(e) => out.fail(format!("serve-tick: first lease: {e}")),
    }
    let epoch = Instant::now();
    let phases: Vec<(bool, f64)> = if args.trace {
        vec![(false, args.seconds / 2.0), (true, args.seconds / 2.0)]
    } else {
        vec![(false, args.seconds)]
    };
    let mut p50_by_phase = Vec::new();
    let mut last = Vec::new();
    for (phase, &(traced, secs)) in phases.iter().enumerate() {
        if traced {
            obs::reset();
            obs::set_enabled(true);
        }
        let seed = args.seed ^ ((phase as u64) << 40);
        let logs = std::thread::scope(|s| {
            let handles: Vec<_> = wires
                .iter_mut()
                .zip(leases.iter_mut())
                .enumerate()
                .map(|(c, (w, l))| {
                    let scene = &scene;
                    let slots = schedule(c, seed, secs, scene);
                    s.spawn(move || open_loop(w, l, addr, scene, c, &slots, traced, epoch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        });
        if !traced {
            out.set_e2e("peak_rss_mb", sysinfo::peak_rss_mb(), "MB");
            record_e2e(&mut out, &logs, "due to answer");
            let mut lag = Samples::new();
            for l in &logs {
                lag.extend(&l.lag);
            }
            out.detail_latency("generator lag", &lag);
        }
        p50_by_phase.push(phase_p50(&logs));
        for l in &logs {
            out.merge_ops(&l.ops);
            out.errors.extend(l.errors.iter().cloned());
        }
        last = logs;
    }
    if args.trace {
        out.snapshot = Some(obs::snapshot());
        obs::set_enabled(false);
    }
    drop(wires);
    server.stop();

    if args.trace {
        let mut rec = Recorder::new(true, epoch, 99);
        let mut exchanges: Vec<Exchange> = Vec::new();
        let mut rtt = Samples::new();
        let mut lag = Samples::new();
        for l in last.iter_mut() {
            lag.extend(&l.lag);
            for e in &l.exchanges {
                rtt.push(e.rtt_ns);
            }
            exchanges.append(&mut l.exchanges);
            if let Some(r) = l.recorder.take() {
                rec.absorb(r);
            }
        }
        layers::replay_rpc(&mut out, &mut rec, &scene, &opts, &mut exchanges, rtt);
        layers::daemon_snapshot(&mut out);
        layers::link_budget_probe(&mut out, &scene);
        layers::heartbeat_probe(&mut out, &mut rec, &scene, TICK_MS);
        layers::translate_probe(&mut out, &scene);
        out.set_layer("loadgen.lag_p99_us", lag.quantile_ns(0.99) as f64 / 1e3);
        out.set_layer(
            "obs.trace_overhead_ratio",
            p50_by_phase[1] / p50_by_phase[0].max(1.0),
        );
        out.recorder = Some(rec);
    }
    out
}

/// An in-flight open-loop request.
struct Pending {
    op: Op,
    due: Instant,
    sent: Instant,
    pair: Option<usize>,
    released: Option<u64>,
    body: String,
    tenant: usize,
}

/// One open-loop client: sends each slot when due (late if it must wait
/// for a lease id or a reconnect), pipelines, and times each answer from
/// when its request was due.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    wire: &mut Wire,
    lease: &mut Option<u64>,
    addr: SocketAddr,
    scene: &Scene,
    conn: usize,
    slots: &[Slot],
    traced: bool,
    epoch: Instant,
) -> ClientLog {
    let mut log = ClientLog {
        recorder: Some(Recorder::new(traced, epoch, conn as u32)),
        timeline: Timeline::with_room(slots.len()),
        lag: Samples::with_room(slots.len()),
        ..ClientLog::default()
    };
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut lease_pending = false;
    let mut next_id: u64 = 1;
    let mut tenant = conn * 1_000_000;
    let mut dead = false;
    let start = Instant::now();
    log.started = Some(start);

    // Files every frame that arrived; returns false on a dead connection.
    let absorb = |log: &mut ClientLog,
                  pending: &mut HashMap<u64, Pending>,
                  lease: &mut Option<u64>,
                  lease_pending: &mut bool,
                  frames: Vec<(String, Instant)>| {
        for (body, at) in frames {
            let id = Response::decode(&body).map(|r| r.0).unwrap_or(0);
            let Some(p) = pending.remove(&id) else {
                log.errors.push(format!("answer for unknown id {id}"));
                log.count(Op::Query, true);
                continue;
            };
            let failed = match file_answer(log, scene, p.op, id, p.pair, p.released, &body) {
                Ok(resp) => {
                    match resp {
                        Response::Registered { service, .. } => {
                            *lease = Some(service);
                            *lease_pending = false;
                        }
                        Response::Released { .. } => {}
                        _ => {}
                    }
                    log.timeline.push(at, at - p.due);
                    if traced {
                        let req = id | (conn as u64) << 48;
                        if let Some(r) = log.recorder.as_mut() {
                            let root = r.record("client.request", req, p.due, at, None);
                            r.record("client.lag", req, p.due, p.sent, root);
                        }
                        if log.exchanges.len() < layers::MAX_EXCHANGES {
                            log.exchanges.push(Exchange {
                                sent: p.sent,
                                tenant: p.tenant,
                                op: p.op,
                                req: p.body,
                                resp: body,
                                rtt_ns: (at - p.sent).as_nanos() as u64,
                            });
                        }
                    }
                    false
                }
                Err(()) => {
                    if p.op == Op::Register {
                        *lease_pending = false;
                    }
                    true
                }
            };
            log.count(p.op, failed);
        }
    };

    // Reads until `done()` or the answer timeout; false on a dead peer.
    macro_rules! wait_until {
        ($done:expr) => {{
            let deadline = Instant::now() + ANSWER_TIMEOUT;
            let mut ok = true;
            while !$done {
                let now = Instant::now();
                if now >= deadline {
                    log.errors.push("open loop: answer timed out".into());
                    ok = false;
                    break;
                }
                match wire.poll(deadline - now) {
                    Ok(Some(frames)) => {
                        absorb(&mut log, &mut pending, lease, &mut lease_pending, frames)
                    }
                    _ => {
                        log.errors.push("open loop: connection died".into());
                        ok = false;
                        break;
                    }
                }
            }
            ok
        }};
    }

    for slot in slots {
        let due = start + slot.due;
        // Answer traffic while waiting for the slot to come due.
        loop {
            let now = Instant::now();
            if now >= due || dead {
                break;
            }
            match wire.poll(due - now) {
                Ok(Some(frames)) => {
                    absorb(&mut log, &mut pending, lease, &mut lease_pending, frames)
                }
                _ => {
                    log.errors.push("open loop: connection died".into());
                    dead = true;
                }
            }
        }
        if dead {
            log.count(slot.op, true);
            continue;
        }
        let request = match slot.op {
            Op::Query => query_request(scene, slot.pair.expect("query pair")),
            Op::Register => {
                lease_pending = true;
                register_request("powering", "laptop", 3600.0)
            }
            Op::Release => {
                // The lease id comes from the register answer; wait for it
                // (the wait counts against this request, from its due time).
                if !wait_until!(!lease_pending) {
                    dead = true;
                    log.count(slot.op, true);
                    continue;
                }
                let Some(service) = lease.take() else {
                    log.errors
                        .push("release: the register before it failed".into());
                    log.count(slot.op, true);
                    continue;
                };
                Request::ReleaseService { service }
            }
            Op::Intent => {
                // Each intent opens a fresh connection: the previous
                // connection's auto tenant is torn down with its leases,
                // since an intent's leases have no id to release them by.
                if !wait_until!(pending.is_empty()) {
                    dead = true;
                    log.count(slot.op, true);
                    continue;
                }
                match Wire::connect(addr) {
                    Ok(w) => *wire = w,
                    Err(e) => {
                        log.errors.push(format!("reconnect: {e}"));
                        dead = true;
                        log.count(slot.op, true);
                        continue;
                    }
                }
                tenant += 1;
                Request::SubmitIntent {
                    utterance: UTTERANCE.into(),
                }
            }
        };
        let released = match &request {
            Request::ReleaseService { service } => Some(*service),
            _ => None,
        };
        let id = next_id;
        next_id += 1;
        let body = RequestEnvelope::new(id, request).encode();
        let sent = Instant::now();
        if let Err(e) = wire.send(&body) {
            log.errors.push(format!("send: {e}"));
            dead = true;
            log.count(slot.op, true);
            continue;
        }
        log.lag.push_duration(sent.saturating_duration_since(due));
        pending.insert(
            id,
            Pending {
                op: slot.op,
                due,
                sent,
                pair: slot.pair,
                released,
                body,
                tenant,
            },
        );
    }
    if !dead {
        wait_until!(pending.is_empty());
    }
    for (_, p) in pending.drain() {
        log.count(p.op, true);
    }
    log
}
