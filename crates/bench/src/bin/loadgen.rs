//! `surfos-loadgen` — iperf for the service plane.
//!
//! Opens N concurrent connections to a running `surfosd serve`, replays a
//! configurable request mix (query / register / intent / ping) at a
//! target rate or closed-loop, and reports throughput plus p50/p99/p999
//! request latency sourced from the `surfos-obs` HDR timers
//! (`rpc.request_ns{op=...}`, one labeled series per op).
//!
//! ```text
//! surfos-loadgen --connect 127.0.0.1:7464 --conns 64 --requests 10000
//! surfos-loadgen --unix /tmp/surfosd.sock --conns 8 --requests 800 \
//!     --mix query:8,register:1,intent:1 --rate 500
//! ```
//!
//! Flags:
//!
//! - `--connect ADDR` / `--unix PATH` — where the daemon listens (one
//!   required; both allowed, connections split round-robin).
//! - `--conns N` — concurrent connections (default 8).
//! - `--requests N` — total requests across all connections (default 1000).
//! - `--mix SPEC` — weighted op mix, e.g. `query:8,register:1,intent:1`
//!   (ops: `ping`, `query`, `register`, `intent`; default `query:8,register:1`).
//!   The schedule is a deterministic round-robin expansion of the weights,
//!   so identical invocations replay identical request streams.
//! - `--rate R` — target requests/second across all connections
//!   (0 = closed loop, as fast as responses return; default 0).
//! - `--tenant NAME` — claim one shared tenant on every connection
//!   (default: each connection gets its own auto tenant).
//! - `--tx ID` / `--rx ID` — endpoints for `query` ops (default `ap0` /
//!   `laptop`, the demo scene).
//! - `--subject ROOM` — subject for `register` ops (default `bedroom`).
//! - `--timeout-ms N` — abort safety net (default 60000).
//! - `--metrics-json PATH` / `--deterministic-metrics` — dump the client
//!   side observability snapshot on exit (`-` for stdout).
//!
//! Connections are dealt round-robin to `min(SURFOS_THREADS or available
//! parallelism, 8, --conns)` worker threads. Each connection is one
//! [`FramedConn`], the byte pump the daemon's sessions use; a worker
//! blocks in `poll(2)` over its connections until an answer arrives, a
//! socket has room, the next `--rate` permit falls due or `--timeout-ms`
//! runs out.
//!
//! Registered leases are recycled: once a connection holds 4, the next
//! `register` slot releases the oldest instead, so long runs exercise the
//! full lease lifecycle instead of just saturating quotas. `Rejected`
//! responses are counted separately — against a small `--capacity` they
//! are the *expected* outcome and the daemon's admission works.

use std::io;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use surfos::obs;
use surfos::rpc::conn::{wait, Conn, FramedConn};
use surfos::rpc::proto::{Request, RequestEnvelope, Response};

#[derive(Debug, Clone)]
struct Args {
    connect: Option<String>,
    unix: Option<String>,
    conns: usize,
    requests: u64,
    mix: Vec<Op>,
    rate: f64,
    tenant: Option<String>,
    tx: String,
    rx: String,
    subject: String,
    timeout_ms: u64,
    metrics_json: Option<String>,
    deterministic: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Ping,
    Query,
    Register,
    Intent,
}

/// Expands `query:8,register:1` into a deterministic round-robin schedule
/// (interleaved by weight, not 8-then-1, so short runs still mix).
fn parse_mix(spec: &str) -> Result<Vec<Op>, String> {
    let mut weighted = Vec::new();
    for part in spec.split(',') {
        let (name, weight) = match part.split_once(':') {
            Some((n, w)) => (
                n.trim(),
                w.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad weight in {part:?}"))?,
            ),
            None => (part.trim(), 1),
        };
        let op = match name {
            "ping" => Op::Ping,
            "query" => Op::Query,
            "register" => Op::Register,
            "intent" => Op::Intent,
            other => return Err(format!("unknown op {other:?} in mix")),
        };
        weighted.push((op, weight));
    }
    let total: usize = weighted.iter().map(|(_, w)| w).sum();
    if total == 0 {
        return Err("mix has zero total weight".into());
    }
    // Largest-remainder interleave: at position i, pick the op furthest
    // behind its weight share (signed — an op ahead of its share has a
    // negative deficit).
    let mut emitted = vec![0i64; weighted.len()];
    let mut schedule = Vec::with_capacity(total);
    for i in 0..total as i64 {
        let pick = (0..weighted.len())
            .max_by_key(|&k| weighted[k].1 as i64 * (i + 1) - emitted[k] * total as i64)
            .expect("non-empty mix");
        emitted[pick] += 1;
        schedule.push(weighted[pick].0);
    }
    Ok(schedule)
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        connect: None,
        unix: None,
        conns: 8,
        requests: 1000,
        mix: parse_mix("query:8,register:1").expect("default mix"),
        rate: 0.0,
        tenant: None,
        tx: "ap0".into(),
        rx: "laptop".into(),
        subject: "bedroom".into(),
        timeout_ms: 60_000,
        metrics_json: None,
        deterministic: false,
    };
    let mut args = argv.into_iter();
    fn val(name: &str, v: Option<String>) -> Result<String, String> {
        v.ok_or_else(|| format!("{name} needs a value"))
    }
    fn num<T: std::str::FromStr>(name: &str, v: Option<String>) -> Result<T, String> {
        val(name, v)?.parse().map_err(|_| format!("bad {name}"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => out.connect = Some(val("--connect", args.next())?),
            "--unix" => out.unix = Some(val("--unix", args.next())?),
            "--conns" => out.conns = num("--conns", args.next())?,
            "--requests" => out.requests = num("--requests", args.next())?,
            "--mix" => out.mix = parse_mix(&val("--mix", args.next())?)?,
            "--rate" => out.rate = num("--rate", args.next())?,
            "--tenant" => out.tenant = Some(val("--tenant", args.next())?),
            "--tx" => out.tx = val("--tx", args.next())?,
            "--rx" => out.rx = val("--rx", args.next())?,
            "--subject" => out.subject = val("--subject", args.next())?,
            "--timeout-ms" => out.timeout_ms = num("--timeout-ms", args.next())?,
            "--metrics-json" => out.metrics_json = Some(val("--metrics-json", args.next())?),
            "--deterministic-metrics" => out.deterministic = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if out.connect.is_none() && out.unix.is_none() {
        return Err("need --connect ADDR and/or --unix PATH".into());
    }
    if out.conns == 0 {
        return Err("--conns must be at least 1".into());
    }
    if !(out.rate.is_finite() && out.rate >= 0.0) {
        return Err("--rate must be a finite number of requests/s, at least 0".into());
    }
    Ok(out)
}

/// Where one connection is in the op mix, and the leases it holds.
struct Schedule {
    mix_idx: usize,
    leases: Vec<u64>,
}

/// Leases held per connection before `register` slots turn into releases.
const LEASE_RECYCLE: usize = 4;

impl Schedule {
    fn next_request(&mut self, args: &Args) -> (Request, &'static str) {
        let op = args.mix[self.mix_idx % args.mix.len()];
        self.mix_idx += 1;
        match op {
            Op::Ping => (Request::Ping, "ping"),
            Op::Query => (
                Request::QueryChannel {
                    tx: args.tx.clone(),
                    rx: args.rx.clone(),
                },
                "query",
            ),
            Op::Intent => (
                Request::SubmitIntent {
                    utterance: "I want to watch a movie on my laptop".into(),
                },
                "intent",
            ),
            Op::Register => {
                if self.leases.len() >= LEASE_RECYCLE {
                    (
                        Request::ReleaseService {
                            service: self.leases.remove(0),
                        },
                        "release",
                    )
                } else {
                    (
                        Request::RegisterService {
                            kind: "coverage".into(),
                            subject: args.subject.clone(),
                            value: 25.0,
                        },
                        "register",
                    )
                }
            }
        }
    }
}

/// One closed-loop client connection (at most one request in flight).
struct Connection {
    conn: FramedConn,
    schedule: Schedule,
    /// (request id, op name, send time) of the in-flight request.
    pending: Option<(u64, &'static str, Instant)>,
    quota: u64,
    /// Requests sent; the latest one's id.
    sent: u64,
    dead: bool,
}

impl Connection {
    fn finished(&self) -> bool {
        self.dead || (self.sent >= self.quota && self.pending.is_none())
    }

    /// Queues the next scheduled request.
    fn kick(&mut self, args: &Args) {
        let (request, op) = self.schedule.next_request(args);
        self.sent += 1;
        let mut env = RequestEnvelope::new(self.sent, request);
        env.tenant = args.tenant.clone();
        self.conn.queue(&env.encode());
        self.pending = Some((self.sent, op, Instant::now()));
    }

    /// Drains responses; records latency per op into the HDR timers.
    fn drain(&mut self) {
        if !matches!(self.conn.fill(usize::MAX), Ok(true)) {
            self.dead = true;
        }
        loop {
            match self.conn.next_frame() {
                Ok(Some(body)) => self.on_response(&body),
                Ok(None) => break,
                Err(_) => {
                    obs::add("loadgen.frame_errors", 1);
                    self.dead = true;
                    break;
                }
            }
        }
    }

    fn on_response(&mut self, body: &str) {
        let Ok((id, response)) = Response::decode(body) else {
            obs::add("loadgen.decode_errors", 1);
            self.dead = true;
            return;
        };
        let Some((want, op, t0)) = self.pending else {
            obs::add("loadgen.unexpected_frames", 1);
            return;
        };
        if id != want {
            obs::add("loadgen.unexpected_frames", 1);
            return;
        }
        let _op_label = obs::scoped(&[("op", op)]);
        obs::observe_ns("rpc.request_ns", t0.elapsed().as_nanos() as u64);
        obs::add("loadgen.responses", 1);
        match response {
            Response::Registered { service, .. } => {
                self.schedule.leases.push(service);
                obs::add("loadgen.ok", 1);
            }
            Response::Rejected { .. } => obs::add("loadgen.rejected", 1),
            Response::Error { .. } => obs::add("loadgen.errors", 1),
            _ => obs::add("loadgen.ok", 1),
        }
        self.pending = None;
    }
}

fn connect(args: &Args, idx: usize) -> io::Result<FramedConn> {
    // With both listeners given, connections alternate between them.
    FramedConn::new(match (&args.connect, &args.unix) {
        (Some(addr), Some(_)) if idx.is_multiple_of(2) => Conn::Tcp(TcpStream::connect(addr)?),
        (_, Some(path)) => Conn::Unix(UnixStream::connect(path)?),
        (Some(addr), None) => Conn::Tcp(TcpStream::connect(addr)?),
        (None, None) => unreachable!("parse_args requires an address"),
    })
}

/// Takes one `--rate` send permit: the n-th request across every worker
/// may leave once n / rate seconds have passed since `start`. A refusal
/// carries how long after `start` the next permit falls due.
fn take_permit(args: &Args, sent_global: &AtomicU64, start: Instant) -> Result<(), Duration> {
    if args.rate <= 0.0 {
        return Ok(());
    }
    let allowed = (start.elapsed().as_secs_f64() * args.rate) as u64;
    sent_global
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < allowed).then_some(n + 1)
        })
        .map(drop)
        .map_err(|n| {
            Duration::try_from_secs_f64((n + 1) as f64 / args.rate).unwrap_or(Duration::MAX)
        })
}

fn worker(
    args: &Args,
    mut conns: Vec<Connection>,
    sent_global: &AtomicU64,
    start: Instant,
    timeout: Duration,
) -> Vec<Connection> {
    let mut fds = Vec::new();
    loop {
        // Both measured from `start`.
        let mut wake = timeout;
        for c in &mut conns {
            if !c.dead && c.pending.is_none() && c.sent < c.quota {
                match take_permit(args, sent_global, start) {
                    Ok(()) => c.kick(args),
                    Err(due) => wake = wake.min(due),
                }
            }
            if c.conn.flush().is_err() {
                c.dead = true;
            }
        }
        fds.clear();
        fds.extend(
            conns
                .iter()
                .filter(|c| !c.finished())
                .map(|c| c.conn.interest(true)),
        );
        let elapsed = start.elapsed();
        if fds.is_empty() || elapsed > timeout {
            break;
        }
        wait(&mut fds, Some(wake.saturating_sub(elapsed)));
        // Nothing changed since `fds` was built, so the open connections
        // line up with it.
        for (c, fd) in conns.iter_mut().filter(|c| !c.finished()).zip(&fds) {
            if fd.ready() {
                c.drain();
            }
        }
    }
    conns
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            eprintln!(
                "usage: surfos-loadgen --connect ADDR|--unix PATH [--conns N] [--requests N] \
                 [--mix query:8,register:1] [--rate R] [--tenant NAME] \
                 [--timeout-ms N] [--metrics-json PATH] [--deterministic-metrics]"
            );
            std::process::exit(2);
        }
    };
    obs::set_enabled(true);

    // Open every connection up front — concurrency means simultaneously
    // open sockets, not a connection churn test.
    let mut conns = Vec::with_capacity(args.conns);
    for i in 0..args.conns {
        let conn = match connect(&args, i) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("loadgen: connect {}/{}: {e}", i + 1, args.conns);
                std::process::exit(1);
            }
        };
        let quota = args.requests / args.conns as u64
            + u64::from((i as u64) < args.requests % args.conns as u64);
        conns.push(Connection {
            conn,
            schedule: Schedule {
                mix_idx: i, // offset the schedule so conns don't sync-step
                leases: Vec::new(),
            },
            pending: None,
            quota,
            sent: 0,
            dead: false,
        });
    }

    let workers = surfos::channel::par::configured_threads()
        .min(8)
        .min(args.conns);

    // Deal connections round-robin across workers.
    let mut shards: Vec<Vec<Connection>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, c) in conns.into_iter().enumerate() {
        shards[i % workers].push(c);
    }

    let sent_global = AtomicU64::new(0);
    let start = Instant::now();
    let timeout = Duration::from_millis(args.timeout_ms);
    let conns: Vec<Connection> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                let (args, sent_global) = (&args, &sent_global);
                scope.spawn(move || worker(args, shard, sent_global, start, timeout))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker"))
            .collect()
    });
    let elapsed = start.elapsed();

    let sent: u64 = conns.iter().map(|c| c.sent).sum();
    let done = sent - conns.iter().filter(|c| c.pending.is_some()).count() as u64;
    let dead = conns.iter().filter(|c| c.dead).count();

    let snap = obs::snapshot();
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    println!(
        "loadgen: {} conns, {done}/{sent} responses in {:.2}s  ({:.0} req/s)",
        args.conns,
        elapsed.as_secs_f64(),
        done as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "loadgen: outcomes: ok={} rejected={} errors={} dead_conns={dead}",
        count("loadgen.ok"),
        count("loadgen.rejected"),
        count("loadgen.errors"),
    );
    // The headline latency lines: the flat timer, then one per op label.
    for (name, hdr) in &snap.timers {
        if name.starts_with("rpc.request_ns") {
            println!(
                "loadgen: {name}  p50={} p99={} p999={} max={}  (n={})",
                fmt_ns(hdr.p50),
                fmt_ns(hdr.p99),
                fmt_ns(hdr.p999),
                fmt_ns(hdr.max),
                hdr.count
            );
        }
    }

    if let Some(path) = args.metrics_json.as_deref() {
        let json = if args.deterministic {
            snap.deterministic_json()
        } else {
            snap.to_json()
        };
        if path == "-" {
            println!("{json}");
        } else if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("loadgen: cannot write metrics to {path}: {e}");
            std::process::exit(1);
        }
    }

    if done < sent || dead > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_expands_interleaved_and_deterministic() {
        let mix = parse_mix("query:3,register:1").unwrap();
        assert_eq!(mix.len(), 4);
        assert_eq!(mix.iter().filter(|o| **o == Op::Query).count(), 3);
        assert_eq!(mix.iter().filter(|o| **o == Op::Register).count(), 1);
        assert_eq!(mix, parse_mix("query:3,register:1").unwrap());
        // Weighted ops interleave instead of clumping, and every weight
        // is honoured exactly over one period.
        let mix = parse_mix("query:6,register:2,intent:1,ping:1").unwrap();
        assert_eq!(mix.len(), 10);
        assert_eq!(mix.iter().filter(|o| **o == Op::Query).count(), 6);
        assert_eq!(mix.iter().filter(|o| **o == Op::Register).count(), 2);
        assert_eq!(mix.iter().filter(|o| **o == Op::Intent).count(), 1);
        assert_eq!(mix.iter().filter(|o| **o == Op::Ping).count(), 1);
        assert_ne!(mix[0], mix[5], "six queries must not open back-to-back");
        // Bare names default to weight 1.
        assert_eq!(parse_mix("ping").unwrap(), vec![Op::Ping]);
        assert!(parse_mix("warp:1").is_err());
        assert!(parse_mix("query:0").is_err());
    }

    #[test]
    fn args_require_an_address() {
        let err = parse_args(["--conns".into(), "4".into()]).unwrap_err();
        assert!(err.contains("--connect"), "{err}");
    }

    #[test]
    fn rate_must_be_finite_and_non_negative() {
        for rate in ["NaN", "inf", "-1"] {
            let argv = ["--connect", "x", "--rate", rate].map(String::from);
            assert!(parse_args(argv).unwrap_err().contains("--rate"), "{rate}");
        }
    }

    #[test]
    fn register_slots_recycle_leases() {
        // A connection that already holds LEASE_RECYCLE leases turns its
        // next register slot into a release of the oldest.
        let args = parse_args([
            "--connect".into(),
            "x".into(),
            "--mix".into(),
            "register:1".into(),
        ])
        .unwrap();
        let mut s = Schedule {
            mix_idx: 0,
            leases: (1..=LEASE_RECYCLE as u64).collect(),
        };
        let (req, op) = s.next_request(&args);
        assert_eq!(op, "release");
        assert_eq!(req, Request::ReleaseService { service: 1 });
        assert_eq!(s.leases.len(), LEASE_RECYCLE - 1);
        let (_, op) = s.next_request(&args);
        assert_eq!(op, "register");
    }
}
