//! `surfos-e2ebench` — the end-to-end SurfOS benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve-tick --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `README.md` for the why of each):
//!
//! - `campus-walk` — a 4-zone `ShardedKernel` over the 16 272-wall campus:
//!   incremental replay ticks beside periodic cold re-linearizations.
//! - `figures` — Fig 4 and Fig 5 through the library calls.
//! - `serve-tick` — open loop at a fixed rate against an in-process
//!   `surfosd serve` daemon with the heartbeat ticker on and a resident
//!   service set.
//!
//! With `--trace 0` the run prints every end-to-end metric; with
//! `--trace 1` it turns on `surfos-obs`, records the benchmark's own spans
//! and prints every per-layer metric. The last stdout line is always one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it is a `{"report": …}` object with per-op counts, percentiles
//! with their sample counts and the host/build fingerprint.

mod campus;
mod checks;
mod figures;
mod layers;
mod outcome;
mod record;
mod serve;
mod stats;
mod sysinfo;

use outcome::{E2E_METRICS, LAYER_METRICS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where traced runs write their spans and snapshot.
    pub out_dir: PathBuf,
}

/// A uniform index below `n` (`n > 0`) from a seeded generator.
pub fn below(rng: &mut impl rand::Rng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// The workloads `BENCHMARK.json` declares, in its order. The serving
/// workload comes last: its round trips hang on how fast threads wake, and
/// for the first minute or so after a build the host wakes them late.
pub const WORKLOADS: [&str; 3] = ["campus-walk", "figures", "serve-tick"];

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got {:?})",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("surfos-e2ebench: {e}");
            eprintln!(
                "usage: surfos-e2ebench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "serve-tick" => serve::serve_tick(&args),
        "campus-walk" => campus::run(&args),
        "figures" => figures::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    if args.trace {
        if let Err(e) = out.write_trace(&args) {
            eprintln!("surfos-e2ebench: could not write the trace files: {e}");
        }
    }
    let expected: Vec<&str> = if args.trace {
        LAYER_METRICS.iter().map(|m| m.0).collect()
    } else {
        E2E_METRICS.iter().map(|m| m.0).collect()
    };
    for e in &out.errors {
        eprintln!("surfos-e2ebench: check failed: {e}");
    }
    println!("{}", out.report_json(&args));
    println!("{}", out.result_json(args.trace, &expected));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_the_benchmark_flags() {
        let a = parse_args(argv("--workload figures --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("figures", 7, 3.0, true)
        );
    }

    #[test]
    fn args_reject_unknown_workloads_and_bad_values() {
        assert!(parse_args(argv("--workload nope")).is_err());
        assert!(parse_args(argv("--workload figures --trace 2")).is_err());
        assert!(parse_args(argv("--workload figures --seconds 0")).is_err());
        assert!(parse_args(argv("--workload figures --bogus 1")).is_err());
    }

    /// `BENCHMARK.json` and the binary must name the same workloads and
    /// metrics with the same units, or a run would print metrics the
    /// declaration does not know.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = surfos::obs::JsonValue::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|m| (m.0.to_string(), m.1.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&E2E_METRICS));
        assert_eq!(names("per_layer"), own(&LAYER_METRICS));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
