//! What one run produced: per-op counts, metrics, check failures, and the
//! two JSON lines the benchmark prints.

use crate::record::Recorder;
use crate::stats::{Samples, Timeline};
use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics `(name, unit, better)`, printed by `--trace 0` runs.
/// Each is measured on every workload; `README.md` says what the
/// operation behind the latency and throughput figures is per workload.
pub const E2E_METRICS: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("throughput_ops", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
];

/// Per-layer metrics `(name, unit, better)`, printed by `--trace 1` runs.
/// A layer a workload does not exercise reads 0 there.
pub const LAYER_METRICS: [(&str, &str, &str); 37] = [
    ("rpc.frame_decode_ns", "ns", "lower"),
    ("rpc.request_decode_ns", "ns", "lower"),
    ("rpc.response_encode_ns", "ns", "lower"),
    ("daemon.io_wait_us", "us", "lower"),
    ("daemon.server_request_us", "us", "lower"),
    ("daemon.tick_ms", "ms", "lower"),
    ("daemon.ticks", "count", "higher"),
    ("broker.dispatch_query_ns", "ns", "lower"),
    ("broker.dispatch_register_ns", "ns", "lower"),
    ("broker.dispatch_release_ns", "ns", "lower"),
    ("broker.dispatch_intent_us", "us", "lower"),
    ("broker.translate_us", "us", "lower"),
    ("kernel.step_ms", "ms", "lower"),
    ("kernel.schedule_us", "us", "lower"),
    ("kernel.optimize_ms", "ms", "lower"),
    ("kernel.push_us", "us", "lower"),
    ("kernel.sync_us", "us", "lower"),
    ("orchestrator.adam_ms", "ms", "lower"),
    ("orchestrator.adam_iters", "count", "lower"),
    ("orchestrator.tasks_per_heartbeat", "count", "higher"),
    ("hw.configs_pushed", "count", "lower"),
    ("hw.configs_skipped", "count", "higher"),
    ("channel.link_budget_ns", "ns", "lower"),
    ("channel.lincache_hit_ratio", "ratio", "higher"),
    ("channel.lincache_lookups", "count", "lower"),
    ("channel.linearize_cold_us", "us", "lower"),
    ("channel.refreshes_per_tick", "count", "lower"),
    ("channel.heatmap_ms", "ms", "lower"),
    ("geometry.wall_index_build_ms", "ms", "lower"),
    ("geometry.crossings_ns", "ns", "lower"),
    ("shard.route_us", "us", "lower"),
    ("shard.eval_us", "us", "lower"),
    ("shard.handoffs", "count", "higher"),
    ("shard.pool_tick_us", "us", "lower"),
    ("sensing.aoa_us", "us", "lower"),
    ("loadgen.lag_p99_us", "us", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
];

fn unit_of(name: &str) -> &'static str {
    E2E_METRICS
        .iter()
        .chain(LAYER_METRICS.iter())
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared"))
}

/// Attempted and failed operations of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one run produced.
#[derive(Default)]
pub struct Outcome {
    /// Per-op counts, keyed by op name.
    pub ops: BTreeMap<String, OpCount>,
    /// Correctness-check failures (empty when every check passed).
    pub errors: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Named detail figures for the report line, pre-rendered as JSON.
    pub details: Vec<(String, String)>,
    /// The benchmark's own spans (traced runs only).
    pub recorder: Option<Recorder>,
    /// The program's `surfos-obs` snapshot at the end of a traced run.
    pub snapshot: Option<surfos::obs::Snapshot>,
}

impl Outcome {
    /// Counts one attempt of `op`, failed or not.
    pub fn count(&mut self, op: &str, failed: bool) {
        let c = self.ops.entry(op.to_string()).or_default();
        c.attempted += 1;
        c.failed += failed as u64;
    }

    /// Adds a whole per-op tally.
    pub fn merge_ops(&mut self, ops: &BTreeMap<String, OpCount>) {
        for (op, c) in ops {
            let mine = self.ops.entry(op.clone()).or_default();
            mine.attempted += c.attempted;
            mine.failed += c.failed;
        }
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    /// Records a check result: `Err(msg)` becomes a failure.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail(e);
        }
    }

    pub fn set_e2e(&mut self, name: &'static str, value: f64, unit: &str) {
        debug_assert_eq!(unit_of(name), unit);
        self.e2e.insert(name, value);
    }

    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.layer.insert(name, value);
    }

    /// Adds a detail figure (any JSON value) to the report line.
    pub fn detail(&mut self, name: impl Into<String>, json: String) {
        self.details.push((name.into(), json));
    }

    /// Sets `throughput_ops`, `latency_p50_us` and `latency_p99_us` from a
    /// run's timeline (medians over its windows, see
    /// [`Timeline::windowed`]).
    pub fn set_e2e_timeline(&mut self, timeline: &Timeline, start: Instant) {
        let w = timeline.windowed(start);
        self.set_e2e("throughput_ops", w.throughput, "1/s");
        self.set_e2e("latency_p50_us", w.p50_ns / 1e3, "us");
        self.set_e2e("latency_p99_us", w.p99_ns / 1e3, "us");
        self.detail("windows", w.windows.to_string());
    }

    /// Adds a latency distribution to the report: p50/p90/p99 with the
    /// sample count they rest on.
    pub fn detail_latency(&mut self, name: &str, samples: &Samples) {
        self.detail(name, samples.summary_json());
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|c| c.failed).sum()
    }

    /// The last stdout line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, the metrics being `names` (missing layer metrics read 0,
    /// a missing end-to-end metric is a benchmark bug and fails the run).
    pub fn result_json(&self, trace: bool, names: &[&str]) -> String {
        let mut correct = self.errors.is_empty() && self.attempted() > 0;
        let mut metrics = String::new();
        for (i, name) in names.iter().enumerate() {
            let (value, unit) = if trace {
                (self.layer.get(name).copied().unwrap_or(0.0), unit_of(name))
            } else {
                let v = self.e2e.get(name).copied();
                if v.is_none() {
                    eprintln!("surfos-e2ebench: end-to-end metric {name} was not measured");
                    correct = false;
                }
                (v.unwrap_or(0.0), unit_of(name))
            };
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted(),
            self.failed()
        )
    }

    /// The report line: run parameters, host fingerprint, per-op counts,
    /// details and check failures.
    pub fn report_json(&self, args: &Args) -> String {
        let mut ops = String::new();
        for (i, (op, c)) in self.ops.iter().enumerate() {
            if i > 0 {
                ops.push_str(", ");
            }
            let _ = write!(
                ops,
                "{}: {{\"attempted\": {}, \"failed\": {}}}",
                json_str(op),
                c.attempted,
                c.failed
            );
        }
        let details: Vec<String> = self
            .details
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        format!(
            "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {:?}, \"trace\": {}, \
             \"env\": {}, \"ops\": {{{ops}}}, \"details\": {{{}}}, \"errors\": [{}]}}}}",
            json_str(&args.workload),
            args.seed,
            args.seconds,
            args.trace as u8,
            crate::sysinfo::env_json(),
            details.join(", "),
            errors.join(", ")
        )
    }

    /// Writes the traced run's spans and the program's own snapshot next
    /// to each other under `args.out_dir`.
    pub fn write_trace(&self, args: &Args) -> std::io::Result<()> {
        std::fs::create_dir_all(&args.out_dir)?;
        let stem = format!("{}-seed{}", args.workload, args.seed);
        if let Some(rec) = &self.recorder {
            std::fs::write(
                args.out_dir.join(format!("{stem}.spans.json")),
                rec.to_json(),
            )?;
        }
        if let Some(snap) = &self.snapshot {
            std::fs::write(
                args.out_dir.join(format!("{stem}.obs.json")),
                snap.to_json(),
            )?;
        }
        Ok(())
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    surfos::obs::to_json(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.count("query", false);
        o.count("query", true);
        o.set_e2e("setup_s", 0.5, "s");
        let line = o.result_json(false, &["setup_s"]);
        let v = surfos::obs::JsonValue::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("failed").unwrap().as_f64(), Some(1.0));
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn a_missing_end_to_end_metric_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.count("query", false);
        let line = o.result_json(false, &["setup_s"]);
        assert!(line.starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&str> = E2E_METRICS
            .iter()
            .chain(LAYER_METRICS.iter())
            .map(|m| m.0)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "duplicate metric {n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
