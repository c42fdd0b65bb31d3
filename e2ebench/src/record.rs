//! The benchmark's own span recorder for traced runs.
//!
//! Each span records its name, start, end, parent span and request id.
//! Spans stay in memory (one recorder per client thread, merged at the
//! end) and are written out once the run is over, together with each span
//! name's self time: its duration minus the part of its interval that its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per recorder; later spans are counted as dropped.
const CAPACITY: usize = 50_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub thread: u32,
}

/// Self time of one span name, summed over its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`; inert unless
    /// `enabled`.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Self {
        Recorder {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span with explicit times (e.g. from when a
    /// request was due, not when the recorder saw it).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
            thread: self.thread,
        });
        Some(id)
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-span self times: duration minus the union of the child spans'
    /// intervals clipped to the parent's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.end_ns - s.start_ns;
            e.self_ns += own;
        }
        out
    }

    /// `{"dropped", "self_times": {name: {...}}, "spans": [...]}`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"dropped\": {}, \"self_times\": {{", self.dropped);
        for (i, (name, t)) in self.self_times().iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                if i > 0 { ", " } else { "" },
                t.count,
                t.total_ns,
                t.self_ns
            );
        }
        out.push_str("}, \"spans\": [\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {own}, \"parent\": {parent}, \"req\": {}, \"thread\": {}}}",
                if i > 0 { "," } else { "" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.req,
                s.thread
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_once() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut r = Recorder::new(true, t0, 0);
        let root = r.record("root", 1, at(0), at(100), None);
        r.record("a", 1, at(10), at(40), root);
        // Overlaps `a`: the union, not the sum, is covered.
        r.record("b", 1, at(30), at(50), root);
        // Sticks out past the parent: clipped.
        r.record("c", 1, at(90), at(120), root);
        let own = r.self_ns();
        assert_eq!(
            own[0],
            Duration::from_millis(100 - 40 - 10).as_nanos() as u64
        );
        assert_eq!(r.self_times()["a"].self_ns, 30_000_000);
    }

    #[test]
    fn absorb_rebases_parents() {
        let t0 = Instant::now();
        let mut a = Recorder::new(true, t0, 0);
        a.record("x", 0, t0, t0, None);
        let mut b = Recorder::new(true, t0, 1);
        let p = b.record("outer", 7, t0, t0, None);
        b.record("inner", 7, t0, t0, p);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[2].req, 7);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let t0 = Instant::now();
        let mut r = Recorder::new(false, t0, 0);
        assert_eq!(r.record("x", 0, t0, t0, None), None);
        assert!(r.spans.is_empty());
    }
}
