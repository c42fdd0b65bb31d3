//! Frequency bands and wavelengths.
//!
//! Surface hardware is narrowband relative to the spectrum SurfOS manages
//! (0.9 GHz – 60 GHz, Table 1 of the paper), so every channel computation is
//! tagged with a [`Band`]. Bands are also the unit of frequency-division
//! multiplexing in the orchestrator.

use crate::units::SPEED_OF_LIGHT;

/// A contiguous frequency band: a centre frequency plus a bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Centre frequency in hertz.
    pub center_hz: f64,
    /// Bandwidth in hertz.
    pub bandwidth_hz: f64,
}

impl Band {
    /// Creates a band from a centre frequency and bandwidth, both in hertz.
    ///
    /// # Panics
    /// Panics if the centre frequency or bandwidth is not strictly positive,
    /// or if the band would extend below 0 Hz.
    pub fn new(center_hz: f64, bandwidth_hz: f64) -> Self {
        assert!(center_hz > 0.0, "band centre must be positive");
        assert!(bandwidth_hz > 0.0, "bandwidth must be positive");
        assert!(
            center_hz - bandwidth_hz / 2.0 >= 0.0,
            "band extends below 0 Hz"
        );
        Band {
            center_hz,
            bandwidth_hz,
        }
    }

    /// Carrier wavelength in metres at the band centre.
    #[inline]
    pub fn wavelength_m(&self) -> f64 {
        SPEED_OF_LIGHT / self.center_hz
    }

    /// Wavenumber `k = 2π/λ` in radians per metre at the band centre.
    #[inline]
    pub fn wavenumber(&self) -> f64 {
        2.0 * std::f64::consts::PI / self.wavelength_m()
    }

    /// Lower band edge in hertz.
    #[inline]
    pub fn low_hz(&self) -> f64 {
        self.center_hz - self.bandwidth_hz / 2.0
    }

    /// Upper band edge in hertz.
    #[inline]
    pub fn high_hz(&self) -> f64 {
        self.center_hz + self.bandwidth_hz / 2.0
    }

    /// Returns `true` if this band overlaps `other` (shared spectrum).
    ///
    /// Overlap is what creates inter-service and inter-surface interference,
    /// so the orchestrator checks this before co-scheduling tasks.
    pub fn overlaps(&self, other: &Band) -> bool {
        self.low_hz() < other.high_hz() && other.low_hz() < self.high_hz()
    }

    /// Returns `true` if `freq_hz` falls inside the band (edges inclusive).
    pub fn contains(&self, freq_hz: f64) -> bool {
        freq_hz >= self.low_hz() && freq_hz <= self.high_hz()
    }
}

/// Well-known bands used by the surface designs in Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedBand {
    /// 2.4 GHz ISM (Wi-Fi, LAIA / RFocus / LLAMA / LAVA).
    Ism2_4GHz,
    /// 3.5 GHz mid-band cellular.
    Cellular3_5GHz,
    /// 5 GHz Wi-Fi (ScatterMIMO, RFlens, Diffract).
    WiFi5GHz,
    /// 0.9 GHz sub-GHz ISM (low edge of Scrolls' range).
    Ism900MHz,
    /// 24 GHz mmWave (mmWall, NR-Surface).
    MmWave24GHz,
    /// 28 GHz 5G NR mmWave.
    MmWave28GHz,
    /// 30 GHz satellite Ka-band downlink region (PMSat).
    Ka30GHz,
    /// 60 GHz WiGig (MilliMirror, AutoMS).
    MmWave60GHz,
}

impl NamedBand {
    /// The concrete [`Band`] for this name.
    pub fn band(self) -> Band {
        match self {
            NamedBand::Ism900MHz => Band::new(0.915e9, 26e6),
            NamedBand::Ism2_4GHz => Band::new(2.44e9, 80e6),
            NamedBand::Cellular3_5GHz => Band::new(3.5e9, 100e6),
            NamedBand::WiFi5GHz => Band::new(5.25e9, 160e6),
            NamedBand::MmWave24GHz => Band::new(24.25e9, 400e6),
            NamedBand::MmWave28GHz => Band::new(28.0e9, 400e6),
            NamedBand::Ka30GHz => Band::new(30.0e9, 500e6),
            NamedBand::MmWave60GHz => Band::new(60.48e9, 2.16e9),
        }
    }

    /// All named bands, ordered by frequency.
    pub const ALL: [NamedBand; 8] = [
        NamedBand::Ism900MHz,
        NamedBand::Ism2_4GHz,
        NamedBand::Cellular3_5GHz,
        NamedBand::WiFi5GHz,
        NamedBand::MmWave24GHz,
        NamedBand::MmWave28GHz,
        NamedBand::Ka30GHz,
        NamedBand::MmWave60GHz,
    ];

    /// Returns `true` for bands in the mmWave range (≥ 24 GHz) where
    /// blockage dominates and surfaces act as range extenders.
    pub fn is_mmwave(self) -> bool {
        self.band().center_hz >= 24e9
    }
}

impl std::fmt::Display for Band {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} GHz (BW {:.1} MHz)",
            self.center_hz / 1e9,
            self.bandwidth_hz / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_known_values() {
        let b = NamedBand::Ism2_4GHz.band();
        assert!((b.wavelength_m() - 0.1229).abs() < 0.001);
        let mm = NamedBand::MmWave60GHz.band();
        assert!((mm.wavelength_m() - 0.004957).abs() < 0.0001);
    }

    #[test]
    fn wavenumber_matches_wavelength() {
        let b = NamedBand::WiFi5GHz.band();
        assert!((b.wavenumber() * b.wavelength_m() - 2.0 * std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn overlap_detection() {
        let a = Band::new(2.44e9, 80e6);
        let b = Band::new(2.46e9, 80e6);
        let c = Band::new(5.25e9, 160e6);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn adjacent_bands_do_not_overlap() {
        let a = Band::new(2.40e9, 20e6);
        let b = Band::new(2.42e9, 20e6); // edges touch at 2.41 GHz
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn contains_edges() {
        let b = Band::new(2.44e9, 80e6);
        assert!(b.contains(b.low_hz()));
        assert!(b.contains(b.high_hz()));
        assert!(b.contains(2.44e9));
        assert!(!b.contains(2.5e9));
    }

    #[test]
    fn named_bands_are_ordered_and_valid() {
        let mut last = 0.0;
        for nb in NamedBand::ALL {
            let b = nb.band();
            assert!(b.center_hz > last, "{nb:?} out of order");
            last = b.center_hz;
        }
    }

    #[test]
    fn mmwave_classification() {
        assert!(NamedBand::MmWave60GHz.is_mmwave());
        assert!(NamedBand::MmWave24GHz.is_mmwave());
        assert!(!NamedBand::WiFi5GHz.is_mmwave());
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = Band::new(1e9, 0.0);
    }

    #[test]
    #[should_panic(expected = "band extends below 0 Hz")]
    fn band_below_zero_rejected() {
        let _ = Band::new(1e6, 10e6);
    }
}
