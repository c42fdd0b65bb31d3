//! `surfosd` — the SurfOS operator console.
//!
//! Runs shell commands from a script file (first argument) or
//! interactively from stdin. See [`surfos::shell`] for the command set.
//!
//! ```text
//! cargo run --release -p surfos --bin surfosd -- deployment.surfos
//! echo "help" | cargo run --release -p surfos --bin surfosd
//! ```
//!
//! Observability flags (before the script path):
//!
//! - `--metrics-json PATH` — enable metrics collection and, on exit, write
//!   the full observability snapshot (counters, gauges, histograms, timer
//!   percentiles, span timings, event journal) as JSON to `PATH` (`-` for
//!   stdout, handy for piping into `jq`).
//! - `--deterministic-metrics` — write the run-invariant projection
//!   instead: wall-clock series (`*_ns`) are dropped, so two identical
//!   runs produce byte-identical files (used by `run_experiments.sh` to
//!   snapshot scenario metrics into `results/`).
//! - `--trace PATH` — flight-recorder timeline: record timestamped span
//!   and journal events and, on exit, write a Chrome Trace Event Format
//!   JSON file to `PATH` (`-` for stdout). Load it in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`; shard workers
//!   appear as named tracks (`shard=0`, `shard=1`, ...). Implies metrics
//!   collection.
//!
//! # Service mode
//!
//! `surfosd serve` turns the console into a long-running daemon speaking
//! the framed RPC protocol (see [`surfos::rpc`] and [`surfos::daemon`]):
//!
//! ```text
//! surfosd serve --listen 127.0.0.1:7464 --setup deployment.surfos
//! ```
//!
//! Flags: `--listen ADDR` (TCP; port 0 picks an ephemeral port, printed
//! as `surfosd: listening on ADDR`), `--unix PATH` (unix socket),
//! `--setup SCRIPT` (boot the kernel from a shell script; without it the
//! two-room demo scene is served), `--workers N`, `--max-conns N`,
//! `--tick-ms N` (kernel heartbeat; 0 = admission only), `--capacity N` /
//! `--per-tenant N` (lease quotas), `--duration-ms N` (self-stop for CI).
//! Without `--duration-ms` the daemon runs until stdin closes or reads a
//! `quit` line. The observability flags above compose with serve.

use std::io::{BufRead, Write};
use surfos::daemon::{demo_kernel, ServeOptions, Server};
use surfos::shell::Shell;

/// Parsed command line. Kept separate from `main` so the flag grammar is
/// unit-testable without spawning a process.
#[derive(Debug, Default, PartialEq)]
struct Args {
    metrics_json: Option<String>,
    deterministic: bool,
    trace: Option<String>,
    script_path: Option<String>,
    serve: Option<ServeArgs>,
}

/// The `serve` subcommand's flags.
#[derive(Debug, PartialEq)]
struct ServeArgs {
    listen: Option<String>,
    unix: Option<String>,
    setup: Option<String>,
    workers: usize,
    max_conns: usize,
    tick_ms: u64,
    capacity: usize,
    per_tenant: usize,
    duration_ms: Option<u64>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        let d = ServeOptions::default();
        ServeArgs {
            listen: None,
            unix: None,
            setup: None,
            workers: d.workers,
            max_conns: d.max_conns,
            tick_ms: d.tick_ms,
            capacity: d.capacity,
            per_tenant: d.per_tenant,
            duration_ms: None,
        }
    }
}

/// Parses surfosd's argument list (without the program name). Returns the
/// usage error message on bad input; the caller prints it and exits 2.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args::default();
    let mut args = argv.into_iter();
    let mut serving = false;
    while let Some(arg) = args.next() {
        // Flags shared by both modes.
        match arg.as_str() {
            "--metrics-json" => {
                match args.next() {
                    Some(path) => out.metrics_json = Some(path),
                    None => {
                        return Err("--metrics-json needs a path (or `-` for stdout)".into());
                    }
                }
                continue;
            }
            "--deterministic-metrics" => {
                out.deterministic = true;
                continue;
            }
            "--trace" => {
                match args.next() {
                    Some(path) => out.trace = Some(path),
                    None => {
                        return Err("--trace needs a path (or `-` for stdout)".into());
                    }
                }
                continue;
            }
            _ => {}
        }
        if serving {
            let serve = out.serve.as_mut().expect("serving implies serve args");
            match arg.as_str() {
                "--listen" => path_flag(&mut serve.listen, "--listen", args.next())?,
                "--unix" => path_flag(&mut serve.unix, "--unix", args.next())?,
                "--setup" => path_flag(&mut serve.setup, "--setup", args.next())?,
                "--workers" => serve.workers = num_flag("--workers", args.next())?,
                "--max-conns" => serve.max_conns = num_flag("--max-conns", args.next())?,
                "--tick-ms" => serve.tick_ms = num_flag("--tick-ms", args.next())?,
                "--capacity" => serve.capacity = num_flag("--capacity", args.next())?,
                "--per-tenant" => serve.per_tenant = num_flag("--per-tenant", args.next())?,
                "--duration-ms" => {
                    serve.duration_ms = Some(num_flag("--duration-ms", args.next())?)
                }
                other => return Err(format!("unknown serve flag {other}")),
            }
        } else {
            match arg.as_str() {
                "serve" if out.script_path.is_none() => {
                    serving = true;
                    out.serve = Some(ServeArgs::default());
                }
                other if other.starts_with("--") => {
                    return Err(format!("unknown flag {other}"));
                }
                other => out.script_path = Some(other.to_string()),
            }
        }
    }
    if let Some(serve) = &out.serve {
        if serve.listen.is_none() && serve.unix.is_none() {
            return Err("serve needs --listen ADDR and/or --unix PATH".into());
        }
    }
    Ok(out)
}

/// Parses a numeric flag operand.
fn num_flag<T: std::str::FromStr>(name: &str, value: Option<String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{name} needs a number"))?;
    v.parse().map_err(|_| format!("bad {name} value {v:?}"))
}

/// Stores a string flag operand.
fn path_flag(slot: &mut Option<String>, name: &str, value: Option<String>) -> Result<(), String> {
    match value {
        Some(v) => {
            *slot = Some(v);
            Ok(())
        }
        None => Err(format!("{name} needs a value")),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("surfosd: {msg}");
            std::process::exit(2);
        }
    };

    if args.metrics_json.is_some() || args.trace.is_some() {
        surfos::obs::set_enabled(true);
    }
    if args.trace.is_some() {
        surfos::obs::trace::set_enabled(true);
    }

    if let Some(serve) = &args.serve {
        run_serve(&args, serve);
        return;
    }

    let mut shell = Shell::new();
    if let Some(path) = &args.script_path {
        let script = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("surfosd: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match shell.run_script(&script) {
            Ok(out) => println!("{out}"),
            Err(e) => {
                eprintln!("surfosd: {e}");
                std::process::exit(1);
            }
        }
        write_outputs(&args);
        return;
    }

    // Interactive: one command per line.
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    print!("surfosd> ");
    let _ = stdout.flush();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        match shell.execute(&line) {
            Ok(out) if out.is_empty() => {}
            Ok(out) => println!("{out}"),
            Err(e) => println!("error: {}", e.what),
        }
        print!("surfosd> ");
        let _ = stdout.flush();
    }
    write_outputs(&args);
}

/// Boots a kernel (from `--setup` or the demo scene) and serves it until
/// `--duration-ms` elapses or stdin closes / reads `quit`.
fn run_serve(args: &Args, serve: &ServeArgs) {
    let kernel = match &serve.setup {
        Some(path) => {
            let script = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("surfosd: cannot read {path}: {e}");
                    std::process::exit(1);
                }
            };
            let mut shell = Shell::new();
            if let Err(e) = shell.run_script(&script) {
                eprintln!("surfosd: {e}");
                std::process::exit(1);
            }
            match shell.into_kernel() {
                Some(k) => k,
                None => {
                    eprintln!(
                        "surfosd: setup script {path} did not boot a kernel \
                         (no deploy/ap/request command ran)"
                    );
                    std::process::exit(1);
                }
            }
        }
        None => demo_kernel(),
    };

    let opts = ServeOptions {
        tcp: serve.listen.clone(),
        unix: serve.unix.clone().map(Into::into),
        workers: serve.workers,
        max_conns: serve.max_conns,
        tick_ms: serve.tick_ms,
        capacity: serve.capacity,
        per_tenant: serve.per_tenant,
    };
    let server = match Server::start(kernel, opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("surfosd: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    // The bound addresses go to stdout so scripts can scrape the real
    // port when `--listen 127.0.0.1:0` asked for an ephemeral one.
    if let Some(addr) = server.tcp_addr() {
        println!("surfosd: listening on {addr}");
    }
    if let Some(path) = server.unix_path() {
        println!("surfosd: listening on unix {}", path.display());
    }
    let _ = std::io::stdout().flush();

    match serve.duration_ms {
        Some(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        None => {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                let line = line.trim();
                if line == "quit" || line == "exit" {
                    break;
                }
            }
        }
    }
    server.stop();
    println!("surfosd: stopped");
    write_outputs(args);
}

/// Dumps the metrics snapshot and/or trace timeline, as requested.
fn write_outputs(args: &Args) {
    if let Some(path) = args.metrics_json.as_deref() {
        let snap = surfos::telemetry::metrics_snapshot();
        let json = if args.deterministic {
            snap.deterministic_json()
        } else {
            snap.to_json()
        };
        write_output("metrics", path, &json);
    }
    if let Some(path) = args.trace.as_deref() {
        let json = surfos::obs::trace::export_chrome_json();
        write_output("trace", path, &json);
    }
}

fn write_output(what: &str, path: &str, json: &str) {
    if path == "-" {
        println!("{json}");
    } else if let Err(e) = std::fs::write(path, format!("{json}\n")) {
        eprintln!("surfosd: cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn bare_script_path() {
        let a = parse(&["demo.surfos"]).unwrap();
        assert_eq!(a.script_path.as_deref(), Some("demo.surfos"));
        assert_eq!(a.metrics_json, None);
        assert_eq!(a.trace, None);
        assert!(!a.deterministic);
    }

    #[test]
    fn stdout_sentinel_is_a_path_not_a_flag() {
        let a = parse(&["--metrics-json", "-", "demo.surfos"]).unwrap();
        assert_eq!(a.metrics_json.as_deref(), Some("-"));
        assert_eq!(a.script_path.as_deref(), Some("demo.surfos"));
        let a = parse(&["--trace", "-"]).unwrap();
        assert_eq!(a.trace.as_deref(), Some("-"));
    }

    #[test]
    fn flags_compose_in_any_order() {
        let a = parse(&[
            "--deterministic-metrics",
            "--trace",
            "t.json",
            "--metrics-json",
            "m.json",
            "demo.surfos",
        ])
        .unwrap();
        assert!(a.deterministic);
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert_eq!(a.metrics_json.as_deref(), Some("m.json"));
        assert_eq!(a.script_path.as_deref(), Some("demo.surfos"));
    }

    #[test]
    fn missing_path_operands_error() {
        assert!(parse(&["--metrics-json"]).unwrap_err().contains("path"));
        assert!(parse(&["--trace"]).unwrap_err().contains("path"));
    }

    #[test]
    fn unknown_flags_error() {
        let err = parse(&["--metrics-yaml", "x"]).unwrap_err();
        assert!(err.contains("--metrics-yaml"), "{err}");
    }

    #[test]
    fn no_args_is_interactive() {
        assert_eq!(parse(&[]).unwrap(), Args::default());
    }

    #[test]
    fn serve_flags_parse() {
        let a = parse(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--unix",
            "/tmp/surfosd.sock",
            "--workers",
            "2",
            "--max-conns",
            "64",
            "--tick-ms",
            "50",
            "--capacity",
            "10",
            "--per-tenant",
            "3",
            "--duration-ms",
            "250",
            "--setup",
            "deploy.surfos",
        ])
        .unwrap();
        let s = a.serve.expect("serve mode");
        assert_eq!(s.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(s.unix.as_deref(), Some("/tmp/surfosd.sock"));
        assert_eq!(s.setup.as_deref(), Some("deploy.surfos"));
        assert_eq!(s.workers, 2);
        assert_eq!(s.max_conns, 64);
        assert_eq!(s.tick_ms, 50);
        assert_eq!(s.capacity, 10);
        assert_eq!(s.per_tenant, 3);
        assert_eq!(s.duration_ms, Some(250));
        assert_eq!(a.script_path, None);
    }

    #[test]
    fn serve_requires_an_address() {
        let err = parse(&["serve", "--workers", "2"]).unwrap_err();
        assert!(err.contains("--listen"), "{err}");
    }

    #[test]
    fn serve_composes_with_observability_flags() {
        let a = parse(&[
            "--metrics-json",
            "-",
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--deterministic-metrics",
        ])
        .unwrap();
        assert_eq!(a.metrics_json.as_deref(), Some("-"));
        assert!(a.deterministic);
        assert!(a.serve.is_some());
    }

    #[test]
    fn serve_rejects_bad_numbers_and_unknown_flags() {
        assert!(parse(&["serve", "--listen", "x", "--workers", "many"])
            .unwrap_err()
            .contains("--workers"));
        let err = parse(&["serve", "--listen", "x", "--frobnicate"]).unwrap_err();
        assert!(err.contains("serve flag"), "{err}");
    }

    #[test]
    fn serve_after_a_script_path_is_a_script_named_serve() {
        // `surfosd demo.surfos serve` keeps shell semantics: only a
        // leading `serve` selects service mode.
        let a = parse(&["demo.surfos", "serve"]).unwrap();
        assert!(a.serve.is_none());
        assert_eq!(a.script_path.as_deref(), Some("serve"));
    }
}
