//! Endpoints: the radios at the edges of every channel.

use surfos_em::antenna::ElementPattern;
use surfos_geometry::{Pose, Vec3};

/// What kind of device an endpoint is. SurfOS treats them uniformly for
/// propagation; the kind matters to services (feedback comes from APs,
/// powering targets are tags, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndpointKind {
    /// Infrastructure access point or base station.
    AccessPoint,
    /// A user device (phone, laptop, VR headset…).
    Client,
    /// A low-power sensor or RF-powered tag.
    SensorTag,
}

/// A transmitter/receiver in the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoint {
    /// Unique name, e.g. `"ap0"` or `"VR_headset"`.
    pub id: String,
    /// Device class.
    pub kind: EndpointKind,
    /// Placement and boresight orientation.
    pub pose: Pose,
    /// Antenna pattern.
    pub pattern: ElementPattern,
    /// Transmit power in dBm (conducted; pattern gain is applied per path).
    pub tx_power_dbm: f64,
    /// Receiver noise figure in dB.
    pub noise_figure_db: f64,
    /// Linear polarization angle in radians (scalar model: 0 = vertical).
    /// Mismatched ends lose `cos(Δψ)` in amplitude.
    pub polarization_rad: f64,
}

impl Endpoint {
    /// A typical indoor mmWave access point: sectoral 20 dBi pattern,
    /// 20 dBm transmit power, 7 dB noise figure.
    pub fn access_point(id: impl Into<String>, pose: Pose) -> Self {
        Endpoint {
            id: id.into(),
            kind: EndpointKind::AccessPoint,
            pose,
            pattern: ElementPattern::mmwave_ap(),
            tx_power_dbm: 20.0,
            noise_figure_db: 7.0,
            polarization_rad: 0.0,
        }
    }

    /// A client device: near-omni 2 dBi antenna, 15 dBm, 9 dB noise figure.
    pub fn client(id: impl Into<String>, position: Vec3) -> Self {
        Endpoint {
            id: id.into(),
            kind: EndpointKind::Client,
            // Clients are orientation-agnostic: face +x by convention.
            pose: Pose::wall_mounted(position, Vec3::X),
            pattern: ElementPattern::client(),
            tx_power_dbm: 15.0,
            noise_figure_db: 9.0,
            polarization_rad: 0.0,
        }
    }

    /// A passive tag for sensing/powering workloads: isotropic, 0 dBm
    /// backscatter-equivalent power, noisy receiver.
    pub fn sensor_tag(id: impl Into<String>, position: Vec3) -> Self {
        Endpoint {
            id: id.into(),
            kind: EndpointKind::SensorTag,
            pose: Pose::wall_mounted(position, Vec3::X),
            pattern: ElementPattern::Isotropic,
            tx_power_dbm: 0.0,
            noise_figure_db: 12.0,
            polarization_rad: 0.0,
        }
    }

    /// Amplitude antenna gain towards a world point.
    pub fn amplitude_gain_towards(&self, p: Vec3) -> f64 {
        use surfos_em::antenna::Pattern;
        let theta = self.pose.off_boresight_angle(p);
        self.pattern.amplitude_gain(theta)
    }

    /// Position shorthand.
    #[inline]
    pub fn position(&self) -> Vec3 {
        self.pose.position
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kinds() {
        let ap = Endpoint::access_point("ap0", Pose::wall_mounted(Vec3::ZERO, Vec3::X));
        let cl = Endpoint::client("c0", Vec3::xy(1.0, 1.0));
        let tag = Endpoint::sensor_tag("t0", Vec3::xy(2.0, 2.0));
        assert_eq!(ap.kind, EndpointKind::AccessPoint);
        assert_eq!(cl.kind, EndpointKind::Client);
        assert_eq!(tag.kind, EndpointKind::SensorTag);
    }

    #[test]
    fn ap_gain_is_directional() {
        let ap = Endpoint::access_point("ap0", Pose::wall_mounted(Vec3::ZERO, Vec3::X));
        let ahead = ap.amplitude_gain_towards(Vec3::new(5.0, 0.0, 0.0));
        let side = ap.amplitude_gain_towards(Vec3::new(0.0, 5.0, 0.0));
        assert!(ahead > side * 10.0, "ahead={ahead} side={side}");
    }

    #[test]
    fn client_gain_is_near_omni() {
        let cl = Endpoint::client("c0", Vec3::ZERO);
        let a = cl.amplitude_gain_towards(Vec3::new(1.0, 0.0, 0.0));
        let b = cl.amplitude_gain_towards(Vec3::new(-1.0, 1.0, 0.5));
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn tag_is_isotropic_unit_gain() {
        let tag = Endpoint::sensor_tag("t0", Vec3::ZERO);
        assert_eq!(tag.amplitude_gain_towards(Vec3::new(0.0, 0.0, 9.0)), 1.0);
    }
}
