//! An idle daemon costs no CPU: its acceptor and session workers block in
//! `poll(2)` instead of sweeping on a timer. A binary of its own, so no
//! sibling test spends CPU in the same process while it measures.
#![cfg(target_os = "linux")]

use std::time::Duration;
use surfos::daemon::{demo_kernel, ServeOptions, Server};
use surfos::rpc::{Client, Request, RequestEnvelope, Response};

/// This process's user + system CPU time, in clock ticks
/// (`/proc/self/stat` fields 14 and 15).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; count from after it.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field N is at index N - 3.
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[test]
fn idle_daemon_uses_no_cpu() {
    let server = Server::start(
        demo_kernel(),
        ServeOptions {
            workers: 2,
            tick_ms: 0,
            ..ServeOptions::default()
        },
    )
    .expect("bind loopback");
    let mut c = Client::tcp(server.tcp_addr().unwrap()).expect("connect");
    // One answered ping: the session is adopted and its worker parked.
    assert!(matches!(
        c.call(&RequestEnvelope::new(1, Request::Ping)).unwrap(),
        Response::Pong { .. }
    ));

    let before = cpu_ticks();
    std::thread::sleep(Duration::from_secs(1));
    let spent = cpu_ticks() - before;
    assert!(
        spent <= 2,
        "an idle daemon spent {spent} clock ticks in 1 s"
    );
    server.stop();
}
