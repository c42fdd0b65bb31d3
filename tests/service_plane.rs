//! Service-plane integration tests: a real `surfosd` daemon served over
//! loopback TCP and a unix socket, driven by real framed-protocol
//! clients.
//!
//! Covers the wire contract end to end — registration, release, intent,
//! channel query, metrics, version negotiation — plus the hostile-input
//! guarantees: truncated frames, oversized length prefixes (rejected
//! before allocation), unknown ops, and mid-frame disconnects must never
//! panic the daemon or wedge other sessions.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use surfos::daemon::{demo_kernel, ServeOptions, Server};
use surfos::rpc::frame::MAX_FRAME_LEN;
use surfos::rpc::proto::{Request, RequestEnvelope, Response, PROTOCOL_VERSION};
use surfos::rpc::{Client, Conn};

/// Boots a daemon on an ephemeral TCP port (no unix socket, no ticker).
fn serve(opts: ServeOptions) -> Server {
    Server::start(demo_kernel(), opts).expect("bind loopback")
}

fn tcp_opts() -> ServeOptions {
    ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        ..ServeOptions::default()
    }
}

/// One blocking request/response round trip; the answer must echo the
/// correlation id.
fn call(client: &mut Client, env: &RequestEnvelope) -> Response {
    client
        .call(env)
        .expect("server must answer, echoing the id")
}

fn connect(server: &Server) -> Client {
    Client::tcp(server.tcp_addr().expect("tcp listener")).expect("connect")
}

/// A plain stream, for writing bytes that are not frames.
fn connect_raw(server: &Server) -> TcpStream {
    TcpStream::connect(server.tcp_addr().expect("tcp listener")).expect("connect")
}

#[test]
fn register_query_release_over_tcp() {
    let server = serve(tcp_opts());
    let mut c = connect(&server);

    // Ping: version + auto tenant.
    let Response::Pong { version, tenant } = call(&mut c, &RequestEnvelope::new(1, Request::Ping))
    else {
        panic!("expected Pong");
    };
    assert_eq!(version, PROTOCOL_VERSION);
    assert!(tenant.starts_with("conn-"), "{tenant}");

    // Register a coverage service.
    let resp = call(
        &mut c,
        &RequestEnvelope::new(
            2,
            Request::RegisterService {
                kind: "coverage".into(),
                subject: "bedroom".into(),
                value: 25.0,
            },
        ),
    );
    let Response::Registered { service, .. } = resp else {
        panic!("expected Registered, got {resp:?}");
    };

    // Query the demo link.
    let resp = call(
        &mut c,
        &RequestEnvelope::new(
            3,
            Request::QueryChannel {
                tx: "ap0".into(),
                rx: "laptop".into(),
            },
        ),
    );
    let Response::Channel { rss_dbm, .. } = resp else {
        panic!("expected Channel, got {resp:?}");
    };
    assert!(rss_dbm.is_finite() && rss_dbm < 0.0);

    // Release the lease.
    let resp = call(
        &mut c,
        &RequestEnvelope::new(4, Request::ReleaseService { service }),
    );
    assert_eq!(resp, Response::Released { service });

    // Releasing it again is an owner error, not a hang or a panic.
    let resp = call(
        &mut c,
        &RequestEnvelope::new(5, Request::ReleaseService { service }),
    );
    assert!(matches!(resp, Response::Error { .. }), "{resp:?}");

    server.stop();
}

#[test]
fn unix_socket_speaks_the_same_protocol() {
    let path = std::env::temp_dir().join(format!("surfosd-test-{}.sock", std::process::id()));
    let server = serve(ServeOptions {
        tcp: None,
        unix: Some(path.clone()),
        ..ServeOptions::default()
    });
    let mut c = Client::unix(&path).expect("connect unix");
    let resp = call(&mut c, &RequestEnvelope::new(7, Request::Ping));
    assert!(matches!(resp, Response::Pong { .. }));
    server.stop();
    assert!(!path.exists(), "socket file must be removed on stop");
}

#[test]
fn tenant_claim_binds_and_quota_rejects_structured() {
    let server = serve(ServeOptions {
        per_tenant: 2,
        ..tcp_opts()
    });
    let mut c = connect(&server);
    let register = |id| {
        RequestEnvelope::with_tenant(
            id,
            "alice",
            Request::RegisterService {
                kind: "coverage".into(),
                subject: "bedroom".into(),
                value: 25.0,
            },
        )
    };
    assert!(matches!(
        call(&mut c, &register(1)),
        Response::Registered { .. }
    ));
    assert!(matches!(
        call(&mut c, &register(2)),
        Response::Registered { .. }
    ));
    let Response::Rejected { reason } = call(&mut c, &register(3)) else {
        panic!("third register must exceed alice's quota");
    };
    assert!(reason.contains("alice"), "{reason}");

    // A second connection claiming the same tenant shares the quota…
    let mut c2 = connect(&server);
    assert!(matches!(
        call(&mut c2, &register(1)),
        Response::Rejected { .. }
    ));
    // …while a third connection under its own auto tenant is unaffected
    // (the claim binds per-session, and c2 is already alice).
    let mut c3 = connect(&server);
    let auto = RequestEnvelope::new(
        1,
        Request::RegisterService {
            kind: "coverage".into(),
            subject: "bedroom".into(),
            value: 25.0,
        },
    );
    assert!(matches!(call(&mut c3, &auto), Response::Registered { .. }));
    server.stop();
}

#[test]
fn intent_grounds_to_tasks_over_the_wire() {
    let server = serve(tcp_opts());
    let mut c = connect(&server);
    let resp = call(
        &mut c,
        &RequestEnvelope::new(
            1,
            Request::SubmitIntent {
                utterance: "I want to watch a movie on my laptop".into(),
            },
        ),
    );
    let Response::IntentTasks { tasks } = resp else {
        panic!("expected IntentTasks, got {resp:?}");
    };
    assert!(!tasks.is_empty(), "the demo utterance grounds to tasks");
    server.stop();
}

#[test]
fn metrics_response_nests_a_parseable_snapshot() {
    let server = serve(tcp_opts());
    let mut c = connect(&server);
    let resp = call(
        &mut c,
        &RequestEnvelope::new(
            1,
            Request::Metrics {
                deterministic: true,
            },
        ),
    );
    let Response::Metrics { json } = resp else {
        panic!("expected Metrics, got {resp:?}");
    };
    surfos::obs::JsonValue::parse(&json).expect("snapshot must parse");
    server.stop();
}

#[test]
fn wrong_version_is_refused_but_ping_still_answers() {
    let server = serve(tcp_opts());
    let mut c = connect(&server);
    // A v99 ping answers (version discovery)…
    let mut ping = RequestEnvelope::new(1, Request::Ping);
    ping.v = 99;
    let resp = call(&mut c, &ping);
    assert!(matches!(resp, Response::Pong { version, .. } if version == PROTOCOL_VERSION));
    // …a v99 query is an error naming the server's version.
    let mut query = RequestEnvelope::new(
        2,
        Request::QueryChannel {
            tx: "ap0".into(),
            rx: "laptop".into(),
        },
    );
    query.v = 99;
    // It does not decode, so the answer cannot echo its id.
    c.send(&query.encode()).unwrap();
    let (_, resp) = c.recv().unwrap().expect("an answer");
    let Response::Error { message } = resp else {
        panic!("wrong version must error, got {resp:?}");
    };
    assert!(message.contains("version"), "{message}");
    server.stop();
}

#[test]
fn unknown_op_answers_an_error_and_keeps_the_session() {
    let server = serve(tcp_opts());
    let mut c = connect(&server);
    c.send(r#"{"v":1,"id":9,"op":"frobnicate"}"#).unwrap();
    let (_, resp) = c.recv().unwrap().expect("an answer");
    assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    // The connection survives a body-level error.
    assert!(matches!(
        call(&mut c, &RequestEnvelope::new(10, Request::Ping)),
        Response::Pong { .. }
    ));
    server.stop();
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let server = serve(tcp_opts());
    let mut raw = connect_raw(&server);
    // A hostile header claiming u32::MAX bytes. If the daemon tried to
    // allocate it, a 4 GiB buffer would blow the test runner; instead it
    // must answer one framing error and close.
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.write_all(b"junk that never amounts to a frame")
        .unwrap();
    let mut c = Client::new(Conn::Tcp(raw)).unwrap();
    let (_, resp) = c.recv().unwrap().expect("framing error answer");
    let Response::Error { message } = resp else {
        panic!("expected framing error, got {resp:?}");
    };
    assert!(message.contains("exceeds"), "{message}");
    assert!(message.contains(&MAX_FRAME_LEN.to_string()), "{message}");
    // The daemon hangs up after an unrecoverable framing error.
    assert!(c.recv().unwrap().is_none(), "connection must close");
    // And it still serves new clients.
    let mut c2 = connect(&server);
    assert!(matches!(
        call(&mut c2, &RequestEnvelope::new(1, Request::Ping)),
        Response::Pong { .. }
    ));
    server.stop();
}

#[test]
fn mid_frame_disconnect_does_not_wedge_the_daemon() {
    let server = serve(tcp_opts());
    for _ in 0..4 {
        let mut c = connect_raw(&server);
        // Send a valid header and half the promised body, then vanish.
        let body = RequestEnvelope::new(1, Request::Ping).encode();
        c.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
        c.write_all(&body.as_bytes()[..body.len() / 2]).unwrap();
        drop(c);
    }
    // Truncated garbage, not even a full header.
    let mut c = connect_raw(&server);
    c.write_all(&[0x03, 0x00]).unwrap();
    drop(c);

    // The daemon keeps serving and eventually reaps the dead sessions.
    let mut alive = connect(&server);
    assert!(matches!(
        call(&mut alive, &RequestEnvelope::new(2, Request::Ping)),
        Response::Pong { .. }
    ));
    drop(alive);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.live_conns() > 0 {
        assert!(Instant::now() < deadline, "dead sessions never reaped");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.stop();
}

#[test]
fn connection_cap_answers_a_rejection_not_a_hang() {
    let server = serve(ServeOptions {
        max_conns: 2,
        ..tcp_opts()
    });
    let mut keep: Vec<Client> = (0..2).map(|_| connect(&server)).collect();
    // Make sure both are adopted before the third arrives.
    for (i, c) in keep.iter_mut().enumerate() {
        assert!(matches!(
            call(c, &RequestEnvelope::new(i as u64 + 1, Request::Ping)),
            Response::Pong { .. }
        ));
    }
    let mut over = connect(&server);
    let (_, resp) = over.recv().unwrap().expect("over-cap answer");
    let Response::Rejected { reason } = resp else {
        panic!("expected Rejected, got {resp:?}");
    };
    assert!(reason.contains("connection limit"), "{reason}");
    assert!(over.recv().unwrap().is_none(), "then it closes");
    server.stop();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = serve(tcp_opts());
    let mut c = connect(&server);
    // Write a burst of frames before reading anything.
    for id in 1..=20u64 {
        c.send(&RequestEnvelope::new(id, Request::Ping).encode())
            .unwrap();
    }
    for id in 1..=20u64 {
        let (got, resp) = c.recv().unwrap().expect("an answer");
        assert_eq!(got, id);
        assert!(matches!(resp, Response::Pong { .. }));
    }
    server.stop();
}

#[test]
fn concurrent_clients_all_get_served() {
    let server = serve(tcp_opts());
    let addr = server.tcp_addr().unwrap();
    let handles: Vec<_> = (0..16)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::tcp(addr).expect("connect");
                for id in 1..=25u64 {
                    let resp = call(&mut c, &RequestEnvelope::new(id, Request::Ping));
                    assert!(matches!(resp, Response::Pong { .. }), "thread {t} id {id}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.stop();
}

#[test]
fn auto_tenant_leases_die_with_the_connection() {
    let server = serve(tcp_opts());
    let mut c = connect(&server);
    let Response::Registered { .. } = call(
        &mut c,
        &RequestEnvelope::new(
            1,
            Request::RegisterService {
                kind: "coverage".into(),
                subject: "bedroom".into(),
                value: 25.0,
            },
        ),
    ) else {
        panic!("register failed");
    };
    drop(c);
    // After the disconnect is reaped, a fresh metrics query shows no
    // live leases: rpc.conns.live returns to the new connection only.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "teardown never happened");
        std::thread::sleep(Duration::from_millis(10));
        if server.live_conns() == 0 {
            break;
        }
    }
    server.stop();
}

#[test]
fn deeply_nested_frame_costs_one_error_not_the_daemon() {
    let server = serve(tcp_opts());
    let mut c = connect(&server);
    // Half a megabyte of `[`: a parser without a depth cap recurses once
    // per byte and overflows the worker's stack, aborting the process.
    c.send(&"[".repeat(500 * 1024)).unwrap();
    let (_, resp) = c.recv().unwrap().expect("an answer");
    let Response::Error { message } = resp else {
        panic!("expected one error answer, got {resp:?}");
    };
    assert!(message.contains("nesting"), "{message}");
    // Same session, next request: the daemon is still there.
    assert!(matches!(
        call(&mut c, &RequestEnvelope::new(2, Request::Ping)),
        Response::Pong { .. }
    ));
    server.stop();
}

#[test]
fn heartbeat_on_a_kernel_without_an_access_point_keeps_serving() {
    // A surface but no access point: a task admitted here would panic
    // the next heartbeat's schedule while it holds the kernel lock.
    let mut shell = surfos::shell::Shell::new();
    shell
        .run_script(
            "scenario apartment\ndeploy wall0 scattermimo bedroom-north\nclient laptop 6.5 1.5 1.2",
        )
        .unwrap();
    let kernel = shell.into_kernel().expect("script boots a kernel");
    let server = Server::start(
        kernel,
        ServeOptions {
            tick_ms: 5,
            ..tcp_opts()
        },
    )
    .expect("bind loopback");
    let mut c = connect(&server);
    let resp = call(
        &mut c,
        &RequestEnvelope::new(
            1,
            Request::RegisterService {
                kind: "coverage".into(),
                subject: "bedroom".into(),
                value: 25.0,
            },
        ),
    );
    assert_eq!(
        resp,
        Response::Rejected {
            reason: "no access point registered".into()
        }
    );
    // Several heartbeats later the daemon still answers.
    std::thread::sleep(Duration::from_millis(60));
    assert!(matches!(
        call(&mut c, &RequestEnvelope::new(2, Request::Ping)),
        Response::Pong { .. }
    ));
    server.stop();
}

#[test]
fn pipelined_pair_is_not_held_back_by_nagle() {
    // Two requests back to back, one write each: the second answer must
    // not wait for the client to ACK the first. With Nagle on the
    // daemon's socket it does whenever the two answers leave in separate
    // writes, and the client delays that ACK by up to 40 ms because it
    // has nothing to send until the answer arrives. A worker that reads
    // both requests at once writes one buffer and hides the stall; the
    // daemon's unit tests force the separate writes.
    let server = serve(tcp_opts());
    let mut c = connect(&server);
    let mut waits: Vec<Duration> = (0..20u64)
        .map(|round| {
            let t0 = Instant::now();
            for id in [2 * round + 1, 2 * round + 2] {
                c.send(&RequestEnvelope::new(id, Request::Ping).encode())
                    .unwrap();
            }
            for id in [2 * round + 1, 2 * round + 2] {
                let (got, resp) = c.recv().unwrap().expect("an answer");
                assert_eq!(got, id);
                assert!(matches!(resp, Response::Pong { .. }), "{resp:?}");
            }
            t0.elapsed()
        })
        .collect();
    waits.sort();
    let median = waits[waits.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median time to the second answer {median:?} (all: {waits:?})"
    );
    server.stop();
}

#[test]
fn a_parked_worker_wakes_for_a_new_connection() {
    // One worker, already blocked in poll(2) over an idle session: the
    // next connection reaches it only through the acceptor's wake.
    let server = serve(ServeOptions {
        workers: 1,
        ..tcp_opts()
    });
    let mut idle = connect(&server);
    assert!(matches!(
        call(&mut idle, &RequestEnvelope::new(1, Request::Ping)),
        Response::Pong { .. }
    ));
    let mut late = connect(&server);
    assert!(matches!(
        call(&mut late, &RequestEnvelope::new(2, Request::Ping)),
        Response::Pong { .. }
    ));
    // And the parked session is still served after the handoff.
    assert!(matches!(
        call(&mut idle, &RequestEnvelope::new(3, Request::Ping)),
        Response::Pong { .. }
    ));
    server.stop();
}
