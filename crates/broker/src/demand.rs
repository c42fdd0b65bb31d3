//! The application demand model.
//!
//! "Application demands vary. VR/AR gaming needs high throughput and low
//! latency, smart home applications need sensing capability, while
//! sensitive data transmission necessitates added security protection"
//! (paper §2.1). [`AppDemand`] is that variation as data.

/// Recognized application classes (used by presets and the traffic
/// monitor's classifier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppClass {
    /// VR/AR gaming: very high throughput, very low latency, tracking.
    VrGaming,
    /// Video streaming: sustained throughput, tolerant latency, stability.
    VideoStreaming,
    /// Interactive video meeting: moderate symmetric throughput, low-ish
    /// latency.
    OnlineMeeting,
    /// Smart-home automation: tiny throughput, sensing-centric.
    SmartHome,
    /// Bulk file transfer: throughput-hungry, latency-insensitive.
    FileTransfer,
    /// Sensitive data transmission: modest throughput plus security.
    SensitiveTransfer,
}

/// What an application needs from the radio environment.
#[derive(Debug, Clone, PartialEq)]
pub struct AppDemand {
    /// The demanding application's class.
    pub class: AppClass,
    /// The device running it (endpoint id).
    pub device: String,
    /// The room the user is in.
    pub room: String,
    /// Downlink throughput needed, Mbit/s.
    pub throughput_mbps: f64,
    /// Latency budget, milliseconds.
    pub latency_ms: f64,
    /// Needs motion/position tracking.
    pub needs_tracking: bool,
    /// Needs eavesdropping protection.
    pub needs_security: bool,
    /// Needs wireless charging, with a duration in seconds.
    pub needs_powering: Option<f64>,
    /// How long the session is expected to last, seconds.
    pub session_s: f64,
}

impl AppDemand {
    /// The preset demand for an application class on a device in a room.
    pub fn preset(class: AppClass, device: impl Into<String>, room: impl Into<String>) -> Self {
        let device = device.into();
        let room = room.into();
        match class {
            AppClass::VrGaming => AppDemand {
                class,
                device,
                room,
                throughput_mbps: 800.0,
                latency_ms: 10.0,
                needs_tracking: true,
                needs_security: false,
                needs_powering: None,
                session_s: 3600.0,
            },
            AppClass::VideoStreaming => AppDemand {
                class,
                device,
                room,
                throughput_mbps: 50.0,
                latency_ms: 200.0,
                needs_tracking: false,
                needs_security: false,
                needs_powering: None,
                session_s: 7200.0,
            },
            AppClass::OnlineMeeting => AppDemand {
                class,
                device,
                room,
                throughput_mbps: 20.0,
                latency_ms: 50.0,
                needs_tracking: false,
                needs_security: false,
                needs_powering: None,
                session_s: 3600.0,
            },
            AppClass::SmartHome => AppDemand {
                class,
                device,
                room,
                throughput_mbps: 1.0,
                latency_ms: 500.0,
                needs_tracking: true,
                needs_security: false,
                needs_powering: None,
                session_s: 86_400.0,
            },
            AppClass::FileTransfer => AppDemand {
                class,
                device,
                room,
                throughput_mbps: 400.0,
                latency_ms: 1000.0,
                needs_tracking: false,
                needs_security: false,
                needs_powering: None,
                session_s: 600.0,
            },
            AppClass::SensitiveTransfer => AppDemand {
                class,
                device,
                room,
                throughput_mbps: 30.0,
                latency_ms: 100.0,
                needs_tracking: false,
                needs_security: true,
                needs_powering: None,
                session_s: 900.0,
            },
        }
    }

    /// Adds a charging need (builder style).
    pub fn with_powering(mut self, duration_s: f64) -> Self {
        self.needs_powering = Some(duration_s);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_reflect_paper_characterization() {
        let vr = AppDemand::preset(AppClass::VrGaming, "hmd", "den");
        let stream = AppDemand::preset(AppClass::VideoStreaming, "tv", "den");
        let smart = AppDemand::preset(AppClass::SmartHome, "hub", "den");
        let secret = AppDemand::preset(AppClass::SensitiveTransfer, "laptop", "den");

        // VR: high throughput AND low latency.
        assert!(vr.throughput_mbps > stream.throughput_mbps);
        assert!(vr.latency_ms < stream.latency_ms);
        assert!(vr.needs_tracking);
        // Smart home: sensing-centric.
        assert!(smart.needs_tracking);
        assert!(smart.throughput_mbps < 10.0);
        // Sensitive: security.
        assert!(secret.needs_security);
        assert!(!stream.needs_security);
    }

    #[test]
    fn powering_builder() {
        let d = AppDemand::preset(AppClass::OnlineMeeting, "phone", "office").with_powering(1800.0);
        assert_eq!(d.needs_powering, Some(1800.0));
    }
}
