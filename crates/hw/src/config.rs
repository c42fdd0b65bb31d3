//! Surface configurations: the input to every driver primitive.
//!
//! "One configuration is an array of signal property alteration values for
//! each surface element, e.g., phase shift values" (paper §3.1). A
//! [`SurfaceConfig`] is exactly that, with optional surface-wide frequency
//! and polarization settings for the designs that control those.

use surfos_em::complex::Complex;
use surfos_em::phase::wrap_phase;

/// The programmed state of one element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElementState {
    /// Phase shift in radians, `[0, 2π)`.
    pub phase: f64,
    /// Amplitude factor in `[0, 1]`.
    pub amplitude: f64,
}

impl ElementState {
    /// A pure phase shift at unit amplitude.
    pub fn phase_only(phase: f64) -> Self {
        ElementState {
            phase: wrap_phase(phase),
            amplitude: 1.0,
        }
    }

    /// The identity state: no alteration.
    pub const IDENTITY: ElementState = ElementState {
        phase: 0.0,
        amplitude: 1.0,
    };

    /// The complex element response this state realizes.
    pub fn response(&self) -> Complex {
        Complex::from_polar(self.amplitude, self.phase)
    }
}

/// A complete surface configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceConfig {
    /// Per-element states, row-major.
    pub elements: Vec<ElementState>,
    /// Surface-wide resonance shift for frequency-control designs, hertz.
    pub frequency_shift_hz: Option<f64>,
    /// Surface-wide polarization rotation for polarization designs, rad.
    pub polarization_rot: Option<f64>,
}

impl SurfaceConfig {
    /// An identity configuration for `n` elements.
    pub fn identity(n: usize) -> Self {
        SurfaceConfig {
            elements: vec![ElementState::IDENTITY; n],
            frequency_shift_hz: None,
            polarization_rot: None,
        }
    }

    /// A pure-phase configuration from a phase array.
    pub fn from_phases(phases: &[f64]) -> Self {
        SurfaceConfig {
            elements: phases
                .iter()
                .map(|&p| ElementState::phase_only(p))
                .collect(),
            frequency_shift_hz: None,
            polarization_rot: None,
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when the config has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The phase array.
    pub fn phases(&self) -> Vec<f64> {
        self.elements.iter().map(|e| e.phase).collect()
    }

    /// The complex response array this configuration realizes.
    pub fn responses(&self) -> Vec<Complex> {
        self.elements.iter().map(ElementState::response).collect()
    }

    /// Validates element values (finite, amplitude within `[0, 1]`).
    pub fn validate(&self) -> Result<(), String> {
        if self.elements.is_empty() {
            return Err("configuration has no elements".into());
        }
        for (i, e) in self.elements.iter().enumerate() {
            if !e.phase.is_finite() {
                return Err(format!("element {i}: non-finite phase"));
            }
            if !e.amplitude.is_finite() || !(0.0..=1.0).contains(&e.amplitude) {
                return Err(format!(
                    "element {i}: amplitude {} outside [0,1]",
                    e.amplitude
                ));
            }
        }
        if let Some(f) = self.frequency_shift_hz {
            if !f.is_finite() {
                return Err("non-finite frequency shift".into());
            }
        }
        if let Some(p) = self.polarization_rot {
            if !p.is_finite() {
                return Err("non-finite polarization rotation".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn identity_is_transparent() {
        let c = SurfaceConfig::identity(4);
        assert_eq!(c.len(), 4);
        for r in c.responses() {
            assert!((r - Complex::ONE).abs() < 1e-12);
        }
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn from_phases_wraps() {
        let c = SurfaceConfig::from_phases(&[-PI, 3.0 * PI]);
        assert!((c.elements[0].phase - PI).abs() < 1e-12);
        assert!((c.elements[1].phase - PI).abs() < 1e-12);
    }

    #[test]
    fn responses_have_configured_magnitude() {
        let mut c = SurfaceConfig::identity(2);
        c.elements[1].amplitude = 0.5;
        c.elements[1].phase = PI / 2.0;
        let r = c.responses();
        assert!((r[1].abs() - 0.5).abs() < 1e-12);
        assert!((r[1].arg() - PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = SurfaceConfig::identity(2);
        c.elements[0].amplitude = 1.5;
        assert!(c.validate().is_err());

        let mut c = SurfaceConfig::identity(2);
        c.elements[1].phase = f64::NAN;
        assert!(c.validate().is_err());

        let c = SurfaceConfig {
            elements: vec![],
            frequency_shift_hz: None,
            polarization_rot: None,
        };
        assert!(c.validate().is_err());

        let mut c = SurfaceConfig::identity(1);
        c.frequency_shift_hz = Some(f64::INFINITY);
        assert!(c.validate().is_err());
    }

    #[test]
    fn phases_roundtrip() {
        let phases = [0.1, 1.0, 2.0, 3.0];
        let c = SurfaceConfig::from_phases(&phases);
        for (a, b) in c.phases().iter().zip(&phases) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
