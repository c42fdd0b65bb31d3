//! Traffic-based demand inference and service health monitoring.
//!
//! "We can potentially sense or monitor wireless traffic to understand
//! user demands" (paper §3.3). This module watches per-flow statistics
//! and classifies the application class driving them, so the broker can
//! invoke services for legacy applications that never ask.
//!
//! It also implements the broker's other monitoring duty: tracking each
//! running service's measured metric against its requested target.
//! [`ServiceMonitor`] is a per-task health state machine
//! (`Unknown → Healthy ↔ Degraded ↔ Failed`) that records every
//! transition in the `surfos-obs` event journal, so an operator can
//! replay *when* a service degraded, not just see that it is degraded
//! now.

use crate::demand::AppClass;

/// Aggregated statistics of one flow over an observation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowStats {
    /// Mean downlink rate, Mbit/s.
    pub rate_mbps: f64,
    /// Ratio of uplink to downlink volume (symmetry).
    pub ul_dl_ratio: f64,
    /// Mean packet inter-arrival jitter, milliseconds.
    pub jitter_ms: f64,
    /// Fraction of traffic in bursts (vs paced).
    pub burstiness: f64,
}

impl FlowStats {
    /// Validates ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.rate_mbps < 0.0 || !self.rate_mbps.is_finite() {
            return Err("rate must be non-negative".into());
        }
        if !(0.0..=10.0).contains(&self.ul_dl_ratio) {
            return Err("ul/dl ratio implausible".into());
        }
        if self.jitter_ms < 0.0 {
            return Err("jitter must be non-negative".into());
        }
        if !(0.0..=1.0).contains(&self.burstiness) {
            return Err("burstiness is a fraction".into());
        }
        Ok(())
    }
}

/// Classifies the application class behind a flow, or `None` when the
/// signature is too ambiguous to act on (acting on a wrong guess costs
/// hardware, so the classifier abstains rather than stretches).
pub fn classify(stats: &FlowStats) -> Option<AppClass> {
    stats.validate().ok()?;
    let s = stats;
    // Decision list, most distinctive signatures first.
    if s.rate_mbps > 300.0 && s.jitter_ms < 5.0 {
        return Some(AppClass::VrGaming);
    }
    if s.rate_mbps > 200.0 && s.burstiness > 0.6 {
        return Some(AppClass::FileTransfer);
    }
    if s.rate_mbps > 10.0 && s.burstiness < 0.4 && s.ul_dl_ratio < 0.2 {
        return Some(AppClass::VideoStreaming);
    }
    if s.rate_mbps > 2.0 && (0.5..=2.0).contains(&s.ul_dl_ratio) && s.jitter_ms < 30.0 {
        return Some(AppClass::OnlineMeeting);
    }
    if s.rate_mbps < 2.0 && s.burstiness > 0.5 {
        return Some(AppClass::SmartHome);
    }
    None
}

/// Health of one monitored service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// No observation yet.
    Unknown,
    /// Metric meets the target.
    Healthy,
    /// Metric misses the target, but within the degraded margin (or not
    /// yet persistently enough to be declared failed).
    Degraded,
    /// Metric has missed the target by more than the margin for
    /// `fail_after` consecutive observations.
    Failed,
}

/// When a shortfall becomes `Degraded` vs `Failed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Shortfall (in the metric's own unit, e.g. dB) tolerated as merely
    /// degraded. Beyond it the observation counts towards failure.
    pub degraded_margin: f64,
    /// Consecutive beyond-margin observations before declaring `Failed`
    /// (transient fades should not flap a service to failed).
    pub fail_after: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            degraded_margin: 10.0,
            fail_after: 3,
        }
    }
}

/// A health state change, returned by [`ServiceMonitor::observe`] and
/// journaled under the `broker.monitor` category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    pub from: Health,
    pub to: Health,
}

/// Per-service health tracker: feed it the measured metric after each
/// kernel step; it compares against the requested target and walks the
/// `Unknown → Healthy ↔ Degraded ↔ Failed` state machine. Every
/// transition is appended to the observability event journal (when
/// enabled) with the monitor's label.
#[derive(Debug, Clone)]
pub struct ServiceMonitor {
    label: String,
    target: f64,
    /// `true` for floor targets (SNR, delivered power), `false` for
    /// ceiling targets (leaked power).
    higher_is_better: bool,
    policy: HealthPolicy,
    health: Health,
    consecutive_beyond_margin: u32,
}

impl ServiceMonitor {
    /// A monitor with the default [`HealthPolicy`]. `label` names the
    /// service in journal events (e.g. `task#3 enhance_link`).
    pub fn new(label: impl Into<String>, target: f64, higher_is_better: bool) -> Self {
        ServiceMonitor {
            label: label.into(),
            target,
            higher_is_better,
            policy: HealthPolicy::default(),
            health: Health::Unknown,
            consecutive_beyond_margin: 0,
        }
    }

    /// Overrides the degradation/failure policy (builder style).
    pub fn with_policy(mut self, policy: HealthPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Current health.
    pub fn health(&self) -> Health {
        self.health
    }

    /// Feeds one measurement; returns the transition if health changed.
    pub fn observe(&mut self, metric: f64) -> Option<HealthTransition> {
        let shortfall = if self.higher_is_better {
            self.target - metric
        } else {
            metric - self.target
        };
        let next = if !shortfall.is_finite() || shortfall > self.policy.degraded_margin {
            self.consecutive_beyond_margin += 1;
            if self.consecutive_beyond_margin >= self.policy.fail_after {
                Health::Failed
            } else {
                Health::Degraded
            }
        } else {
            self.consecutive_beyond_margin = 0;
            if shortfall <= 0.0 {
                Health::Healthy
            } else {
                Health::Degraded
            }
        };
        if next == self.health {
            return None;
        }
        let transition = HealthTransition {
            from: self.health,
            to: next,
        };
        self.health = next;
        {
            // Per-service transition counter: the label scope keys it as
            // broker.monitor.transitions{service=<label>} alongside the
            // flat total (bounded by the monitor count, which the label
            // interner caps anyway).
            let _svc = surfos_obs::scoped(&[("service", &self.label)]);
            surfos_obs::add("broker.monitor.transitions", 1);
        }
        surfos_obs::event!(
            "broker.monitor",
            "{}: {:?} -> {:?} (metric {:.2}, target {:.2})",
            self.label,
            transition.from,
            transition.to,
            metric,
            self.target
        );
        Some(transition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rate: f64, ratio: f64, jitter: f64, burst: f64) -> FlowStats {
        FlowStats {
            rate_mbps: rate,
            ul_dl_ratio: ratio,
            jitter_ms: jitter,
            burstiness: burst,
        }
    }

    #[test]
    fn vr_signature() {
        assert_eq!(
            classify(&stats(600.0, 0.1, 2.0, 0.2)),
            Some(AppClass::VrGaming)
        );
    }

    #[test]
    fn streaming_signature() {
        assert_eq!(
            classify(&stats(40.0, 0.05, 15.0, 0.2)),
            Some(AppClass::VideoStreaming)
        );
    }

    #[test]
    fn meeting_signature_is_symmetric() {
        assert_eq!(
            classify(&stats(15.0, 1.0, 10.0, 0.3)),
            Some(AppClass::OnlineMeeting)
        );
    }

    #[test]
    fn bulk_transfer_signature() {
        assert_eq!(
            classify(&stats(450.0, 0.05, 40.0, 0.9)),
            Some(AppClass::FileTransfer)
        );
    }

    #[test]
    fn iot_signature() {
        assert_eq!(
            classify(&stats(0.3, 1.0, 100.0, 0.9)),
            Some(AppClass::SmartHome)
        );
    }

    #[test]
    fn ambiguity_yields_none() {
        // Mid-rate, paced, asymmetric-but-not-very: no confident match.
        assert_eq!(classify(&stats(5.0, 0.3, 60.0, 0.45)), None);
    }

    #[test]
    fn invalid_stats_yield_none() {
        assert_eq!(classify(&stats(-1.0, 0.1, 1.0, 0.1)), None);
        assert_eq!(classify(&stats(10.0, 0.1, 1.0, 1.5)), None);
    }

    #[test]
    fn monitor_walks_healthy_degraded_failed() {
        let mut m = ServiceMonitor::new("link", 20.0, true).with_policy(HealthPolicy {
            degraded_margin: 5.0,
            fail_after: 2,
        });
        assert_eq!(m.health(), Health::Unknown);

        // Meets target: Unknown -> Healthy.
        let t = m.observe(22.0).expect("transition");
        assert_eq!((t.from, t.to), (Health::Unknown, Health::Healthy));

        // Within margin: Healthy -> Degraded.
        let t = m.observe(17.0).expect("transition");
        assert_eq!((t.from, t.to), (Health::Healthy, Health::Degraded));

        // Beyond margin once: still Degraded (no transition), not Failed yet.
        assert_eq!(m.observe(10.0), None);
        assert_eq!(m.health(), Health::Degraded);

        // Beyond margin a second consecutive time: Failed.
        let t = m.observe(9.0).expect("transition");
        assert_eq!((t.from, t.to), (Health::Degraded, Health::Failed));

        // Recovery is immediate once the target is met again.
        let t = m.observe(25.0).expect("transition");
        assert_eq!((t.from, t.to), (Health::Failed, Health::Healthy));
    }

    #[test]
    fn monitor_respects_lower_is_better_direction() {
        // Suppression-style ceiling target: leaking *less* is healthy.
        let mut m = ServiceMonitor::new("suppress", -40.0, false);
        m.observe(-55.0);
        assert_eq!(m.health(), Health::Healthy);
        m.observe(-35.0); // 5 dB over the ceiling: within default margin.
        assert_eq!(m.health(), Health::Degraded);
    }

    #[test]
    fn failure_requires_consecutive_misses() {
        let mut m = ServiceMonitor::new("link", 20.0, true).with_policy(HealthPolicy {
            degraded_margin: 5.0,
            fail_after: 2,
        });
        m.observe(0.0); // one big miss
        m.observe(16.0); // recovers into the margin: resets the streak
        m.observe(0.0); // another big miss, but not consecutive
        assert_eq!(m.health(), Health::Degraded);
    }

    #[test]
    fn non_finite_metric_counts_as_miss() {
        let mut m = ServiceMonitor::new("link", 20.0, true).with_policy(HealthPolicy {
            degraded_margin: 5.0,
            fail_after: 1,
        });
        m.observe(f64::NAN);
        assert_eq!(m.health(), Health::Failed);
    }

    #[test]
    fn transitions_are_journaled_when_obs_enabled() {
        surfos_obs::set_enabled(true);
        let mut m = ServiceMonitor::new("journal-probe-task", 20.0, true);
        m.observe(25.0);
        m.observe(-100.0);
        let snap = surfos_obs::snapshot();
        surfos_obs::set_enabled(false);
        // Other tests share the journal; look only for our unique label.
        let ours: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.category == "broker.monitor" && e.message.contains("journal-probe-task"))
            .collect();
        assert!(
            ours.iter()
                .any(|e| e.message.contains("Unknown -> Healthy")),
            "missing Unknown -> Healthy event: {ours:?}"
        );
        assert!(
            ours.iter()
                .any(|e| e.message.contains("Healthy -> Degraded")),
            "missing Healthy -> Degraded event: {ours:?}"
        );
    }
}
