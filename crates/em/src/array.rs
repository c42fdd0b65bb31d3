//! Planar array geometry and steering vectors.
//!
//! A metasurface is a planar array of sub-wavelength elements. This module
//! provides the geometry (element positions in the surface's local frame)
//! and the steering vectors used for beamforming and AoA estimation.
//!
//! Local frame convention: the surface lies in the local x–y plane with its
//! normal along +z. Directions are unit vectors `[x, y, z]` in that frame;
//! `z > 0` is in front of the surface.

use crate::complex::Complex;

/// The layout of a rectangular planar array: `rows × cols` elements with
/// uniform spacing, centred on the local origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayGeometry {
    /// Number of rows (along local y).
    pub rows: usize,
    /// Number of columns (along local x).
    pub cols: usize,
    /// Element pitch along x in metres.
    pub dx: f64,
    /// Element pitch along y in metres.
    pub dy: f64,
}

impl ArrayGeometry {
    /// Creates a geometry; all dimensions must be non-zero/positive.
    ///
    /// # Panics
    /// Panics on zero rows/cols or non-positive pitch.
    pub fn new(rows: usize, cols: usize, dx: f64, dy: f64) -> Self {
        assert!(rows > 0 && cols > 0, "array must have at least one element");
        assert!(dx > 0.0 && dy > 0.0, "element pitch must be positive");
        ArrayGeometry { rows, cols, dx, dy }
    }

    /// A square array with half-wavelength pitch — the standard design point.
    pub fn half_wavelength(rows: usize, cols: usize, wavelength_m: f64) -> Self {
        Self::new(rows, cols, wavelength_m / 2.0, wavelength_m / 2.0)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Returns `true` if the array has no elements (never true by
    /// construction; present for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical aperture area in square metres (`rows·dy × cols·dx`).
    #[inline]
    pub fn area_m2(&self) -> f64 {
        (self.rows as f64 * self.dy) * (self.cols as f64 * self.dx)
    }

    /// Local-frame position `[x, y, 0]` of element `(row, col)`, with the
    /// array centred on the origin.
    ///
    /// # Panics
    /// Panics if the indices are out of range.
    pub fn element_position(&self, row: usize, col: usize) -> [f64; 3] {
        assert!(row < self.rows && col < self.cols, "element index oob");
        let x = (col as f64 - (self.cols as f64 - 1.0) / 2.0) * self.dx;
        let y = (row as f64 - (self.rows as f64 - 1.0) / 2.0) * self.dy;
        [x, y, 0.0]
    }

    /// Flat element index for `(row, col)` in row-major order.
    #[inline]
    pub fn flat_index(&self, row: usize, col: usize) -> usize {
        row * self.cols + col
    }

    /// Inverse of [`flat_index`](Self::flat_index).
    #[inline]
    pub fn row_col(&self, index: usize) -> (usize, usize) {
        (index / self.cols, index % self.cols)
    }

    /// Iterates over all element local positions in row-major order.
    pub fn positions(&self) -> impl Iterator<Item = [f64; 3]> + '_ {
        (0..self.rows).flat_map(move |r| (0..self.cols).map(move |c| self.element_position(r, c)))
    }
}

/// A steering vector: the per-element unit phasors for a plane wave arriving
/// from (or departing towards) a given direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SteeringVector {
    /// One unit phasor per element, row-major.
    pub weights: Vec<Complex>,
}

impl SteeringVector {
    /// Computes the steering vector of `geometry` for plane-wave direction
    /// `dir` (a local-frame vector, not necessarily normalized) at wavenumber
    /// `k = 2π/λ`.
    ///
    /// The phase at element position `p` is `k · (p ⋅ û)` where `û` is the
    /// normalized direction. Phases are *relative*: the array centre has
    /// phase zero.
    ///
    /// # Panics
    /// Panics if `dir` is (numerically) the zero vector.
    pub fn compute(geometry: &ArrayGeometry, dir: [f64; 3], k: f64) -> Self {
        let n = (dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2]).sqrt();
        assert!(n > 1e-12, "steering direction must be non-zero");
        let u = [dir[0] / n, dir[1] / n, dir[2] / n];
        let weights = geometry
            .positions()
            .map(|p| {
                let dot = p[0] * u[0] + p[1] * u[1] + p[2] * u[2];
                Complex::cis(k * dot)
            })
            .collect();
        SteeringVector { weights }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The normalized correlation `|aᴴ·b| / N` between this steering vector
    /// and a channel (or another steering) vector. Equals 1 when the channel
    /// is a plane wave exactly from this direction.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn correlate(&self, channel: &[Complex]) -> f64 {
        assert_eq!(
            self.weights.len(),
            channel.len(),
            "steering/channel length mismatch"
        );
        let acc: Complex = self
            .weights
            .iter()
            .zip(channel)
            .map(|(w, h)| w.conj() * *h)
            .sum();
        acc.abs() / self.weights.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn geom() -> ArrayGeometry {
        ArrayGeometry::new(4, 8, 0.005, 0.005)
    }

    #[test]
    fn len_and_area() {
        let g = geom();
        assert_eq!(g.len(), 32);
        assert!((g.area_m2() - (4.0 * 0.005) * (8.0 * 0.005)).abs() < 1e-12);
    }

    #[test]
    fn positions_centred() {
        let g = geom();
        let sum = g.positions().fold([0.0; 3], |acc, p| {
            [acc[0] + p[0], acc[1] + p[1], acc[2] + p[2]]
        });
        assert!(sum[0].abs() < 1e-12 && sum[1].abs() < 1e-12 && sum[2].abs() < 1e-12);
    }

    #[test]
    fn flat_index_roundtrip() {
        let g = geom();
        for i in 0..g.len() {
            let (r, c) = g.row_col(i);
            assert_eq!(g.flat_index(r, c), i);
        }
    }

    #[test]
    fn boresight_steering_is_uniform() {
        let g = geom();
        let sv = SteeringVector::compute(&g, [0.0, 0.0, 1.0], 100.0);
        for w in &sv.weights {
            assert!((*w - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn off_axis_steering_has_linear_phase() {
        let g = ArrayGeometry::new(1, 4, 0.01, 0.01);
        let k = 2.0 * std::f64::consts::PI / 0.02; // λ = 2 cm, pitch = λ/2
        let dir = [1.0, 0.0, 1.0]; // 45° in x-z plane
        let sv = SteeringVector::compute(&g, dir, k);
        // adjacent-element phase difference must be constant
        let d0 = (sv.weights[1] / sv.weights[0]).arg();
        let d1 = (sv.weights[2] / sv.weights[1]).arg();
        let d2 = (sv.weights[3] / sv.weights[2]).arg();
        assert!((d0 - d1).abs() < 1e-9);
        assert!((d1 - d2).abs() < 1e-9);
        // and equal to k·dx·sin(45°)
        let want = k * 0.01 * (std::f64::consts::FRAC_PI_4).sin();
        assert!((d0 - want).abs() < 1e-9);
    }

    #[test]
    fn correlation_peaks_at_true_direction() {
        let g = ArrayGeometry::half_wavelength(8, 8, 0.01);
        let k = 2.0 * std::f64::consts::PI / 0.01;
        let truth = [0.3, 0.1, 1.0];
        let channel = SteeringVector::compute(&g, truth, k).weights;
        let at_truth = SteeringVector::compute(&g, truth, k).correlate(&channel);
        let away = SteeringVector::compute(&g, [-0.4, 0.2, 1.0], k).correlate(&channel);
        assert!((at_truth - 1.0).abs() < 1e-9);
        assert!(away < at_truth);
    }

    #[test]
    #[should_panic(expected = "steering direction must be non-zero")]
    fn zero_direction_rejected() {
        let _ = SteeringVector::compute(&geom(), [0.0; 3], 1.0);
    }

    #[test]
    #[should_panic(expected = "element index oob")]
    fn oob_element_rejected() {
        let _ = geom().element_position(4, 0);
    }

    proptest! {
        #[test]
        fn prop_steering_weights_are_unit(
            dx in 0.001..0.1f64,
            ux in -1.0..1.0f64, uy in -1.0..1.0f64,
        ) {
            let g = ArrayGeometry::new(3, 3, dx, dx);
            let sv = SteeringVector::compute(&g, [ux, uy, 1.0], 50.0);
            for w in &sv.weights {
                prop_assert!((w.abs() - 1.0).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_correlation_bounded(
            ux in -1.0..1.0f64, uy in -1.0..1.0f64,
            vx in -1.0..1.0f64, vy in -1.0..1.0f64,
        ) {
            let g = ArrayGeometry::half_wavelength(4, 4, 0.01);
            let k = 2.0 * std::f64::consts::PI / 0.01;
            let a = SteeringVector::compute(&g, [ux, uy, 1.0], k);
            let b = SteeringVector::compute(&g, [vx, vy, 1.0], k);
            let c = a.correlate(&b.weights);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
        }
    }
}
