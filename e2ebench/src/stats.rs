//! Latency samples and order statistics.

use std::time::{Duration, Instant};

/// A set of durations in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    /// Samples with room for `n` values, their memory touched now (see
    /// [`Timeline::with_room`]).
    pub fn with_room(n: usize) -> Self {
        let mut ns = vec![u64::MAX; n];
        ns.clear();
        Samples { ns, sorted: false }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn push_duration(&mut self, d: Duration) {
        self.push(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile `q ∈ [0, 1]` in nanoseconds (0 when empty).
    pub fn quantile_ns(&mut self, q: f64) -> u64 {
        self.sort();
        if self.ns.is_empty() {
            return 0;
        }
        let rank = (q * self.ns.len() as f64).ceil() as usize;
        self.ns[rank.clamp(1, self.ns.len()) - 1]
    }

    pub fn median_ns(&mut self) -> u64 {
        self.quantile_ns(0.5)
    }

    /// `{"samples", "p50_us", "p90_us", "p99_us"}`; a percentile with fewer
    /// than ten samples beyond it is left out (it would be no tail).
    pub fn summary_json(&self) -> String {
        let mut s = self.clone();
        let n = s.len();
        let mut out = format!("{{\"samples\": {n}");
        for (q, key) in [(0.5, "p50_us"), (0.9, "p90_us"), (0.99, "p99_us")] {
            if n > 0 && (q == 0.5 || (1.0 - q) * n as f64 >= 10.0) {
                out.push_str(&format!(", \"{key}\": {:?}", s.quantile_ns(q) as f64 / 1e3));
            }
        }
        out.push('}');
        out
    }
}

/// Fewest operations in one window of [`Timeline::windowed`]: enough for
/// ten samples beyond its p99.
const MIN_WINDOW: usize = 1000;
/// Most windows one run is split into.
const MAX_WINDOWS: usize = 20;

/// When each operation of a run completed, and how long it took.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    pts: Vec<(Instant, u64)>,
}

/// Medians over a run's windows.
#[derive(Debug, Clone, Copy)]
pub struct Windowed {
    pub windows: usize,
    pub throughput: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

impl Timeline {
    /// A timeline with room for `n` operations, its memory touched now, so
    /// the peak RSS a run reports does not grow with how many operations
    /// it completed.
    pub fn with_room(n: usize) -> Self {
        let mut pts = vec![(Instant::now(), 0); n];
        pts.clear();
        Timeline { pts }
    }

    pub fn push(&mut self, end: Instant, latency: Duration) {
        self.pts
            .push((end, latency.as_nanos().min(u64::MAX as u128) as u64));
    }

    pub fn extend(&mut self, other: &Timeline) {
        self.pts.extend_from_slice(&other.pts);
    }

    /// The latencies alone.
    pub fn latencies(&self) -> Samples {
        let mut s = Samples::new();
        for &(_, ns) in &self.pts {
            s.push(ns);
        }
        s
    }

    /// Splits the run, in completion order, into equal windows of at least
    /// `MIN_WINDOW` operations (at most `MAX_WINDOWS` of them) and returns
    /// the median over windows of each window's throughput, p50 and p99.
    /// A few seconds of interference from the rest of the host then move
    /// one or two windows, not the figure.
    pub fn windowed(&self, start: Instant) -> Windowed {
        let mut pts = self.pts.clone();
        pts.sort_unstable_by_key(|p| p.0);
        let windows = (pts.len() / MIN_WINDOW).clamp(1, MAX_WINDOWS);
        let (mut rate, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        let mut from = start;
        for w in 0..windows {
            let chunk = &pts[w * pts.len() / windows..(w + 1) * pts.len() / windows];
            let Some(&(last, _)) = chunk.last() else {
                continue;
            };
            let span = last.saturating_duration_since(from).as_secs_f64();
            rate.push(chunk.len() as f64 / span.max(1e-9));
            from = last;
            let mut s = Samples::new();
            for &(_, ns) in chunk {
                s.push(ns);
            }
            p50.push(s.median_ns() as f64);
            p99.push(s.quantile_ns(0.99) as f64);
        }
        Windowed {
            windows,
            throughput: median(&rate),
            p50_ns: median(&p50),
            p99_ns: median(&p99),
        }
    }
}

/// Median of a float slice (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v);
        }
        assert_eq!(s.median_ns(), 50);
        assert_eq!(s.quantile_ns(0.99), 99);
        assert_eq!(s.quantile_ns(1.0), 100);
        assert_eq!(s.quantile_ns(0.0), 1);
    }

    #[test]
    fn summary_omits_unsupported_tails() {
        let mut s = Samples::new();
        for v in 0..50 {
            s.push(v * 1000);
        }
        let j = s.summary_json();
        assert!(j.contains("p50_us") && !j.contains("p90_us") && !j.contains("p99_us"));
    }

    #[test]
    fn windows_take_the_median_so_one_noisy_window_does_not_count() {
        let t0 = Instant::now();
        let mut tl = Timeline::default();
        // Four windows of 1000 ops at 1 ms each; the third is 10× slower.
        for i in 0..4000u64 {
            let slow = (2000..3000).contains(&i);
            let lat = Duration::from_micros(if slow { 10_000 } else { 1000 });
            tl.push(t0 + Duration::from_millis(i + 1), lat);
        }
        let w = tl.windowed(t0);
        assert_eq!(w.windows, 4);
        assert_eq!(w.p99_ns, 1e6);
        assert!((w.throughput - 1000.0).abs() < 1.0);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
