//! Antenna and surface-element gain patterns.
//!
//! Endpoints (APs, clients) and individual surface elements all weight
//! incident/emitted energy by direction. SurfOS models patterns as a gain
//! factor over the angle from boresight; this captures the qualitative
//! behaviour that matters for the paper's experiments (directional APs,
//! cosine-law surface elements) without a full 3-D pattern integration.

use std::f64::consts::PI;

/// A directional gain pattern. Input is the angle from the pattern's
/// boresight in radians (`0` = boresight, `π/2` = endfire, `> π/2` = behind).
/// Output is a *linear amplitude* gain factor.
pub trait Pattern {
    /// Amplitude gain at `theta` radians off boresight.
    fn amplitude_gain(&self, theta: f64) -> f64;

    /// Power gain at `theta` radians off boresight (amplitude squared).
    fn power_gain(&self, theta: f64) -> f64 {
        let g = self.amplitude_gain(theta);
        g * g
    }
}

/// The standard element patterns used by SurfOS hardware models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ElementPattern {
    /// Uniform gain in all directions (reference / test pattern).
    Isotropic,
    /// `cos^q(θ)` forward hemisphere pattern — the standard metasurface
    /// element model. `q = 1` is a plain cosine (Lambertian) element; larger
    /// `q` narrows the element beam. Zero gain behind the surface.
    Cosine {
        /// Cosine exponent, must be ≥ 0.
        exponent: f64,
    },
    /// A sectoral pattern: constant high gain inside the half-power
    /// beamwidth, strong floor outside. Models phased-array APs coarsely.
    Sector {
        /// Boresight power gain in dBi.
        gain_dbi: f64,
        /// Full beamwidth in radians over which the boresight gain applies.
        beamwidth_rad: f64,
        /// Power gain in dBi outside the sector (side/back lobes).
        floor_dbi: f64,
    },
}

impl Pattern for ElementPattern {
    fn amplitude_gain(&self, theta: f64) -> f64 {
        let theta = theta.abs();
        match *self {
            ElementPattern::Isotropic => 1.0,
            ElementPattern::Cosine { exponent } => {
                if theta >= PI / 2.0 {
                    0.0
                } else {
                    theta.cos().powf(exponent).max(0.0)
                }
            }
            ElementPattern::Sector {
                gain_dbi,
                beamwidth_rad,
                floor_dbi,
            } => {
                let power_dbi = if theta <= beamwidth_rad / 2.0 {
                    gain_dbi
                } else {
                    floor_dbi
                };
                crate::units::db_to_amplitude(power_dbi)
            }
        }
    }
}

impl ElementPattern {
    /// The canonical metasurface element: `cos(θ)` with unit boresight gain.
    pub const LAMBERTIAN: ElementPattern = ElementPattern::Cosine { exponent: 1.0 };

    /// A typical indoor mmWave AP phased-array sector: 22 dBi over a 20°
    /// beam with a -10 dBi side/back floor.
    pub fn mmwave_ap() -> ElementPattern {
        ElementPattern::Sector {
            gain_dbi: 22.0,
            beamwidth_rad: 20f64.to_radians(),
            floor_dbi: -10.0,
        }
    }

    /// A near-omnidirectional client antenna (2 dBi).
    pub fn client() -> ElementPattern {
        ElementPattern::Sector {
            gain_dbi: 2.0,
            beamwidth_rad: 2.0 * PI,
            floor_dbi: 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isotropic_is_uniform() {
        let p = ElementPattern::Isotropic;
        for k in 0..10 {
            assert_eq!(p.amplitude_gain(k as f64 * 0.3), 1.0);
        }
    }

    #[test]
    fn cosine_boresight_and_endfire() {
        let p = ElementPattern::LAMBERTIAN;
        assert!((p.amplitude_gain(0.0) - 1.0).abs() < 1e-12);
        assert!(p.amplitude_gain(PI / 2.0) < 1e-12);
        assert_eq!(p.amplitude_gain(PI * 0.75), 0.0); // behind
    }

    #[test]
    fn cosine_monotone_decreasing() {
        let p = ElementPattern::Cosine { exponent: 2.0 };
        let mut last = f64::INFINITY;
        for k in 0..=10 {
            let g = p.amplitude_gain(k as f64 * PI / 20.0);
            assert!(g <= last);
            last = g;
        }
    }

    #[test]
    fn higher_exponent_is_narrower() {
        let wide = ElementPattern::Cosine { exponent: 1.0 };
        let narrow = ElementPattern::Cosine { exponent: 4.0 };
        let theta = PI / 4.0;
        assert!(narrow.amplitude_gain(theta) < wide.amplitude_gain(theta));
        assert!((narrow.amplitude_gain(0.0) - wide.amplitude_gain(0.0)).abs() < 1e-12);
    }

    #[test]
    fn sector_inside_and_outside() {
        let p = ElementPattern::mmwave_ap();
        let inside = p.power_gain(8f64.to_radians());
        let outside = p.power_gain(40f64.to_radians());
        assert!((crate::units::linear_to_db(inside) - 22.0).abs() < 1e-9);
        assert!((crate::units::linear_to_db(outside) - (-10.0)).abs() < 1e-9);
    }

    #[test]
    fn pattern_symmetric_in_theta() {
        let p = ElementPattern::Cosine { exponent: 1.5 };
        assert_eq!(p.amplitude_gain(0.7), p.amplitude_gain(-0.7));
    }

    #[test]
    fn power_gain_is_amplitude_squared() {
        let p = ElementPattern::Cosine { exponent: 1.0 };
        let a = p.amplitude_gain(0.5);
        assert!((p.power_gain(0.5) - a * a).abs() < 1e-12);
    }
}
