//! Observability substrate for SurfOS.
//!
//! One global, process-wide registry collects five kinds of signal:
//!
//! - **counters** — monotone `u64` sums (`obs::add("channel.lincache.hits", 1)`),
//! - **gauges** — last-write-wins `f64` values (`obs::gauge("orchestrator.loss", l)`),
//! - **histograms** — log2-bucketed `u64` distributions (`obs::observe("channel.batch.width", n)`),
//! - **timers** — log-linear HDR duration histograms with exact-bound
//!   `p50/p90/p99/p999` (`obs::observe_ns("channel.lincache.lookup_ns", ns)`,
//!   see the `hdr` module's accuracy contract),
//! - **spans** — RAII wall-clock timers that nest into a hierarchical timing
//!   tree (`let _s = obs::span!("kernel.step");`), keyed by the `/`-joined
//!   path of active span names on the current thread, with the same HDR
//!   percentiles per path,
//!
//! plus a fixed-capacity ring-buffer **event journal**
//! (`obs::event!("broker.monitor", "task {} degraded", id)`) and a
//! flight-recorder **trace timeline** ([`trace`]): per-thread timestamped
//! span/instant events exported as Chrome Trace Event JSON for
//! `chrome://tracing` / Perfetto.
//!
//! # Labels
//!
//! [`scoped`] pushes a label scope (`obs::scoped(&[("shard", id)])`): while
//! its guard lives, everything recorded on the thread is *also* keyed as
//! `name{shard=3}`. Suffixes are interned once per scope entry (bounded
//! cardinality; overflow counts into `obs.labels.dropped`), so the hot
//! recording path never formats strings. Labeled series always fold into
//! their flat base key, so pre-label consumers see unchanged totals.
//!
//! # Zero overhead when off
//!
//! Everything sits behind a runtime enable flag ([`set_enabled`]). While
//! disabled — the default — every recording call reduces to a single relaxed
//! atomic load and an untaken branch; `event!` does not even evaluate its
//! format arguments. `benches/obs.rs` in `surfos-bench` pins this to a few
//! nanoseconds per call.
//!
//! # Sharding
//!
//! Counter, histogram, timer and span storage is sharded: each thread is
//! assigned one of `registry::NUM_SHARDS` shards on first use (round-robin),
//! so the `channel::par` fan-out threads never contend on one lock.
//! [`snapshot`] merges the shards; merged totals are deterministic
//! regardless of thread count because addition commutes.
//!
//! # Determinism
//!
//! Counters, gauge values, histogram bucket counts and journal events are
//! functions of the work performed, not of the clock, so two identical runs
//! produce identical values. Wall-clock fields are the exception; by
//! convention every duration-valued name ends in `_ns`, and
//! [`Snapshot::deterministic_json`] excludes those (label suffixes aside),
//! all timer durations and all span durations so run outputs can be diffed.

use std::sync::atomic::{AtomicBool, Ordering};

mod hdr;
mod journal;
mod json;
mod labels;
mod registry;
mod snapshot;
mod span;
pub mod trace;

pub use json::{to_json, JsonValue, JsonWriter};
pub use labels::LabelGuard;
pub use snapshot::{
    base_name, label_body, EventSnapshot, HdrSnapshot, HistSnapshot, Snapshot, SpanSnapshot,
};
pub use span::SpanGuard;

/// The global enable flag. Off by default; when off the recording paths are
/// a single relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether observability is currently recording.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off at runtime. Existing data is kept; use
/// [`reset`] to clear it.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clears every counter, gauge, histogram, timer, span stat, label
/// interning, trace buffer and journal event. Does not change the enable
/// flags. Intended for tests and for starting a fresh measurement window.
pub fn reset() {
    registry::reset();
}

/// Adds `delta` to the counter `name`. No-op while disabled.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if enabled() {
        registry::record_counter(name, delta);
    }
}

/// Sets the gauge `name` to `value` (last write wins). No-op while disabled.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if enabled() {
        registry::record_gauge(name, value);
    }
}

/// Records `value` into the log2-bucketed histogram `name`. No-op while
/// disabled.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        registry::record_hist(name, value);
    }
}

/// Records a duration (nanoseconds) into the log-linear HDR timer `name`;
/// snapshots expose exact-bound `p50/p90/p99/p999` per timer. By the
/// determinism convention the name must end in `_ns`. No-op while disabled.
#[inline]
pub fn observe_ns(name: &'static str, ns: u64) {
    if enabled() {
        registry::record_timer(name, ns);
    }
}

/// Pushes a label scope: while the returned guard lives, samples recorded
/// on this thread are also attributed to `name{key=value,...}` keys (and,
/// for the outermost scope, trace events land on a track named after the
/// label set). Scopes nest by appending. Inert while disabled or past the
/// label-cardinality cap (counted in `obs.labels.dropped`).
///
/// ```
/// surfos_obs::set_enabled(true);
/// {
///     let _scope = surfos_obs::scoped(&[("shard", 3)]);
///     surfos_obs::add("kernel.steps", 1); // also counted as kernel.steps{shard=3}
/// }
/// # surfos_obs::set_enabled(false);
/// # surfos_obs::reset();
/// ```
#[inline]
pub fn scoped<V: std::fmt::Display>(labels: &[(&str, V)]) -> LabelGuard {
    labels::scoped(labels)
}

/// Detaches the calling thread from its open spans and label scope until
/// the returned guard drops: everything recorded meanwhile is keyed as on
/// a fresh thread (root span path, no labels, the thread's own trace
/// track). The fan-out pool wraps every chunk in one, so a chunk's keys do
/// not depend on whether the caller or a pooled worker ran it. Inert while
/// disabled.
pub fn detached() -> DetachGuard {
    DetachGuard {
        saved: enabled().then(|| (span::take_path(), labels::take())),
    }
}

/// Guard returned by [`detached`]; restores the thread's span path and
/// label scope on drop.
#[must_use = "binding a detach guard to `_` drops it immediately; use a named variable"]
pub struct DetachGuard {
    saved: Option<(String, (u32, u32))>,
}

impl Drop for DetachGuard {
    fn drop(&mut self) {
        if let Some((path, scope)) = self.saved.take() {
            span::restore_path(path);
            labels::restore(scope);
        }
    }
}

/// Starts a span named `name` on the current thread; the returned guard
/// records the elapsed time under the `/`-joined path of enclosing spans
/// when dropped. Prefer the [`span!`] macro. Returns an inert guard while
/// disabled.
#[inline]
pub fn span_enter(name: &'static str) -> SpanGuard {
    span::enter(name)
}

/// Appends an event to the journal. Called by the [`event!`] macro, which
/// gates format-argument evaluation on [`enabled`]; calling this directly
/// while disabled is a no-op.
#[inline]
pub fn event_str(category: &'static str, message: String) {
    if enabled() {
        registry::record_event(category, message);
    }
}

/// Takes a merged, sorted snapshot of everything recorded so far.
pub fn snapshot() -> Snapshot {
    registry::collect()
}

/// Opens an RAII span: `let _span = obs::span!("kernel.step");`. The span
/// ends when the guard goes out of scope — bind it to a named variable
/// (`_span`, not `_`) or it ends immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_enter($name)
    };
}

/// Appends a formatted event to the journal:
/// `obs::event!("broker.monitor", "task {} -> Degraded", id);`.
/// Format arguments are not evaluated while observability is disabled.
#[macro_export]
macro_rules! event {
    ($category:expr, $($arg:tt)*) => {
        if $crate::enabled() {
            $crate::event_str($category, format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that touch the global registry/enable flag (and,
    /// through `reset`, the label interner).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _x = exclusive();
        set_enabled(false);
        reset();
        add("t.counter", 3);
        gauge("t.gauge", 1.5);
        observe("t.hist", 7);
        observe_ns("t.timer_ns", 9);
        event!("t", "msg {}", 1);
        let _scope = scoped(&[("shard", 1)]);
        let _s = span!("t.span");
        drop(_s);
        drop(_scope);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.timers.is_empty());
        assert!(snap.spans.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        add("t.counter", 2);
        add("t.counter", 3);
        gauge("t.gauge", 1.0);
        gauge("t.gauge", 2.5);
        observe("t.hist", 1);
        observe("t.hist", 1);
        observe("t.hist", 1000);
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counters["t.counter"], 5);
        assert_eq!(snap.gauges["t.gauge"], 2.5);
        let h = &snap.histograms["t.hist"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1002);
        // 1 → bucket lo 1 (count 2); 1000 → bucket lo 512 (count 1).
        assert_eq!(h.buckets, vec![(1, 2), (512, 1)]);
        assert_eq!(h.p50(), 1);
    }

    #[test]
    fn timers_report_exact_bound_percentiles() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        for ns in 1..=1000u64 {
            observe_ns("t.lat_ns", ns);
        }
        let snap = snapshot();
        set_enabled(false);
        let t = &snap.timers["t.lat_ns"];
        assert_eq!(t.count, 1000);
        assert_eq!(t.min, 1);
        assert_eq!(t.max, 1000);
        for (got, exact) in [(t.p50, 500u64), (t.p90, 900), (t.p99, 990), (t.p999, 999)] {
            assert!(got >= exact && (got - exact) as f64 <= exact as f64 / 128.0);
        }
    }

    #[test]
    fn labeled_scopes_fold_into_flat_totals() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        for shard in 0..3u64 {
            let _scope = scoped(&[("shard", shard)]);
            add("t.work", shard + 1);
            observe("t.width", 4);
            observe_ns("t.lat_ns", 100 * (shard + 1));
            let _s = span!("t.phase");
        }
        add("t.work", 10); // unlabeled sample folds into the flat total too
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counters["t.work{shard=0}"], 1);
        assert_eq!(snap.counters["t.work{shard=1}"], 2);
        assert_eq!(snap.counters["t.work{shard=2}"], 3);
        assert_eq!(snap.counters["t.work"], 16);
        assert_eq!(snap.histograms["t.width"].count, 3);
        assert_eq!(snap.histograms["t.width{shard=1}"].count, 1);
        assert_eq!(snap.timers["t.lat_ns"].count, 3);
        assert_eq!(snap.timers["t.lat_ns{shard=2}"].max, 300);
        assert_eq!(snap.spans["t.phase"].count, 3);
        assert_eq!(snap.spans["t.phase{shard=0}"].count, 1);
        assert_eq!(base_name("t.work{shard=0}"), "t.work");
        assert_eq!(label_body("t.work{shard=0}"), Some("shard=0"));
        assert_eq!(label_body("t.work"), None);
    }

    #[test]
    fn nested_scopes_concatenate_labels() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        {
            let _outer = scoped(&[("worker", 1)]);
            let _inner = scoped(&[("shard", 2)]);
            add("t.nested", 1);
        }
        add("t.nested", 1);
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counters["t.nested{worker=1,shard=2}"], 1);
        assert_eq!(snap.counters["t.nested"], 2);
    }

    #[test]
    fn spans_nest_into_paths() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        {
            let _outer = span!("outer");
            {
                let _inner = span!("inner");
            }
            {
                let _inner = span!("inner");
            }
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["outer/inner"].count, 2);
        assert!(snap.spans["outer"].total_ns >= snap.spans["outer/inner"].total_ns);
        assert!(snap.spans["outer"].p99_ns >= snap.spans["outer"].p50_ns);
    }

    #[test]
    fn journal_keeps_newest_events_and_counts_drops() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        let cap = journal::DEFAULT_CAPACITY;
        for i in 0..(cap + 10) {
            event!("t", "event {i}");
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.events.len(), cap);
        assert_eq!(
            snap.events.first().unwrap().message,
            format!("event {}", 10)
        );
        assert_eq!(snap.events.first().unwrap().seq, 10);
        assert_eq!(
            snap.events.last().unwrap().message,
            format!("event {}", cap + 9)
        );
        assert_eq!(snap.counters["obs.journal.dropped"], 10);
    }

    #[test]
    fn shards_merge_across_threads() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        add("t.par", 1);
                        observe("t.par.h", 4);
                    }
                });
            }
        });
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counters["t.par"], 800);
        assert_eq!(snap.histograms["t.par.h"].count, 800);
        assert_eq!(snap.histograms["t.par.h"].buckets, vec![(4, 800)]);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        add("t.rt.counter", 41);
        gauge("t.rt.gauge", -2.25);
        observe("t.rt.hist", 9);
        observe_ns("t.rt.timer_ns", 640);
        event!("t.rt", "hello \"quoted\" \\ world");
        {
            let _s = span!("t.rt.span");
        }
        let snap = snapshot();
        set_enabled(false);
        let text = snap.to_json();
        let v = JsonValue::parse(&text).expect("valid JSON");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("t.rt.counter"))
                .and_then(JsonValue::as_f64),
            Some(41.0)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|g| g.get("t.rt.gauge"))
                .and_then(JsonValue::as_f64),
            Some(-2.25)
        );
        let timer = v
            .get("timers")
            .and_then(|t| t.get("t.rt.timer_ns"))
            .unwrap();
        assert_eq!(timer.get("count").and_then(JsonValue::as_f64), Some(1.0));
        assert!(timer.get("p999").and_then(JsonValue::as_f64).unwrap() >= 640.0);
        let events = v.get("events").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            events[0].get("message").and_then(JsonValue::as_str),
            Some("hello \"quoted\" \\ world")
        );
        assert!(v.get("spans").and_then(|s| s.get("t.rt.span")).is_some());
        // The deterministic projection parses too and drops wall-clock data.
        let det = JsonValue::parse(&snap.deterministic_json()).expect("valid JSON");
        let span = det.get("spans").and_then(|s| s.get("t.rt.span")).unwrap();
        assert_eq!(span.as_f64(), Some(1.0)); // count only, no ns
        assert!(det
            .get("timers")
            .and_then(|t| t.get("t.rt.timer_ns"))
            .is_none());
    }

    #[test]
    fn detached_records_as_a_fresh_thread_then_restores() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        {
            let _scope = scoped(&[("shard", 1)]);
            let _outer = span!("t.dt.outer");
            {
                let _root = detached();
                let _inner = span!("t.dt.inner");
                add("t.dt.inside", 1);
            }
            add("t.dt.after", 1);
            let _later = span!("t.dt.later");
        }
        let snap = snapshot();
        set_enabled(false);
        // Inside: root span path, no label.
        assert!(snap.spans.contains_key("t.dt.inner"));
        assert!(!snap
            .spans
            .keys()
            .any(|k| k.contains("t.dt.outer/t.dt.inner")));
        assert_eq!(snap.counters["t.dt.inside"], 1);
        assert!(!snap.counters.contains_key("t.dt.inside{shard=1}"));
        // After: the enclosing scope and span path are back.
        assert_eq!(snap.counters["t.dt.after{shard=1}"], 1);
        assert!(snap.spans.contains_key("t.dt.outer/t.dt.later"));
        reset();
    }

    #[test]
    fn trace_events_land_on_the_outermost_scope_track() {
        let _x = exclusive();
        set_enabled(true);
        trace::set_enabled(true);
        reset();
        // One thread works for two shards in turn, as a pooled worker does.
        std::thread::Builder::new()
            .name("t-tracks".into())
            .spawn(|| {
                let _unscoped = span!("t.tk.idle");
                drop(_unscoped);
                for shard in [0, 2] {
                    let _scope = scoped(&[("shard", shard)]);
                    let _work = span!("t.tk.work");
                    let _inner = scoped(&[("worker", 1)]);
                    trace::instant("t.tk.tick");
                }
            })
            .unwrap()
            .join()
            .unwrap();
        let json = trace::export_chrome_json();
        trace::set_enabled(false);
        set_enabled(false);
        let v = JsonValue::parse(&json).expect("valid trace JSON");
        let events = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        let mut tracks: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        tracks.sort_unstable();
        assert_eq!(tracks, ["shard=0", "shard=2", "t-tracks"]);
        assert_eq!(
            v.get("otherData")
                .and_then(|o| o.get("threads"))
                .and_then(JsonValue::as_f64),
            Some(1.0)
        );
        reset();
    }

    #[test]
    fn trace_timeline_exports_balanced_chrome_events() {
        let _x = exclusive();
        set_enabled(true);
        trace::set_enabled(true);
        reset();
        {
            let _scope = scoped(&[("shard", 0)]);
            let _outer = span!("t.tr.step");
            let _inner = span!("t.tr.phase");
            trace::instant("t.tr.tick");
        }
        let json = trace::export_chrome_json();
        trace::set_enabled(false);
        set_enabled(false);
        let v = JsonValue::parse(&json).expect("valid trace JSON");
        let events = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        // One named track carrying the shard label, balanced B/E pairs.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(JsonValue::as_str) == Some("thread_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(JsonValue::as_str)
                    == Some("shard=0")
        }));
        let begins = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("B"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("E"))
            .count();
        assert_eq!(begins, 2);
        assert_eq!(begins, ends);
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i")));
        // A second export after draining is empty of span events.
        let again = trace::export_chrome_json();
        let v2 = JsonValue::parse(&again).unwrap();
        let evs2 = v2.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        assert!(evs2
            .iter()
            .all(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M")));
        reset();
    }
}
