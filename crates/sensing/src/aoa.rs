//! Angle-of-arrival estimation and the differentiable AoA loss.
//!
//! Estimation follows the md-Track matched-filter principle: scan a grid
//! of candidate directions, correlating the element-domain observation
//! with each direction's steering vector; the normalized spectrum is the
//! AoA likelihood. The cross-entropy between that spectrum and the true
//! direction is the paper's localization loss — and because the spectrum
//! is a quadratic form in the surface's element responses, its gradient
//! with respect to the element phases is analytic.

use surfos_em::array::{ArrayGeometry, SteeringVector};
use surfos_em::complex::Complex;
use surfos_geometry::{Pose, Vec3};

/// A grid of candidate azimuth directions in a surface's local frame
/// (directions `[sin φ, 0, cos φ]`, `φ = 0` on boresight).
#[derive(Debug, Clone, PartialEq)]
pub struct AngleGrid {
    /// Candidate azimuths in radians.
    pub azimuths: Vec<f64>,
}

impl AngleGrid {
    /// A uniform grid of `n` azimuths spanning `[-span, span]` radians.
    ///
    /// # Panics
    /// Panics if `n < 2` or span not in `(0, π/2)`.
    pub fn uniform(n: usize, span: f64) -> Self {
        assert!(n >= 2, "angle grid needs at least two bins");
        assert!(
            span > 0.0 && span < std::f64::consts::FRAC_PI_2,
            "span must be in (0, π/2)"
        );
        let azimuths = (0..n)
            .map(|i| -span + 2.0 * span * i as f64 / (n - 1) as f64)
            .collect();
        AngleGrid { azimuths }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.azimuths.len()
    }

    /// True if the grid is empty (cannot happen via [`uniform`](Self::uniform)).
    pub fn is_empty(&self) -> bool {
        self.azimuths.is_empty()
    }

    /// Local-frame unit direction of bin `i`.
    pub fn direction(&self, i: usize) -> [f64; 3] {
        let az = self.azimuths[i];
        [az.sin(), 0.0, az.cos()]
    }

    /// The bin whose azimuth is closest to `az`.
    pub fn nearest_bin(&self, az: f64) -> usize {
        self.azimuths
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - az).abs().total_cmp(&(b.1 - az).abs()))
            .map(|(i, _)| i)
            .expect("grid non-empty")
    }

    /// The true azimuth of a world point as seen by a surface: the angle of
    /// the local direction projected into the local x–z plane.
    pub fn azimuth_of(pose: &Pose, p: Vec3) -> f64 {
        let local = pose.world_to_local(p);
        local.x.atan2(local.z)
    }
}

/// The matched-filter AoA estimator for one surface aperture.
#[derive(Debug, Clone)]
pub struct AoaEstimator {
    /// Steering vectors of every grid bin (conjugated at use).
    steering: Vec<SteeringVector>,
    /// The angle grid.
    pub grid: AngleGrid,
}

impl AoaEstimator {
    /// Builds an estimator for an aperture at wavenumber `k` over a grid.
    pub fn new(geometry: &ArrayGeometry, k: f64, grid: AngleGrid) -> Self {
        let steering = (0..grid.len())
            .map(|i| SteeringVector::compute(geometry, grid.direction(i), k))
            .collect();
        AoaEstimator { steering, grid }
    }

    /// The normalized AoA spectrum (sums to 1) of an element-domain
    /// observation `y` (one complex sample per element).
    ///
    /// # Panics
    /// Panics if `y`'s length does not match the aperture.
    pub fn spectrum(&self, y: &[Complex]) -> Vec<f64> {
        let raw: Vec<f64> = self
            .steering
            .iter()
            .map(|s| {
                let z: Complex = s.weights.iter().zip(y).map(|(w, yi)| w.conj() * *yi).sum();
                z.norm_sqr()
            })
            .collect();
        normalize(raw)
    }

    /// The maximum-likelihood bin and its azimuth.
    pub fn estimate(&self, y: &[Complex]) -> (usize, f64) {
        let spec = self.spectrum(y);
        let best = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty spectrum");
        (best, self.grid.azimuths[best])
    }

    /// Builds the linear-in-response form of the spectrum for a surface
    /// whose (response-independent) element channel coefficients towards
    /// the observer are `coeffs` and whose AP-side calibration phasors are
    /// `calibration` (see [`crate::sounding`]): bin `i`'s complex statistic
    /// is `z_i(r) = Σ_e conj(s_{i,e}) · conj(cal_e) · coeffs_e · r_e`.
    pub fn linearize(
        &self,
        coeffs: &[Complex],
        calibration: &[Complex],
        true_azimuth: f64,
    ) -> AoaLinearization {
        assert_eq!(coeffs.len(), calibration.len(), "length mismatch");
        let bin_weights = self
            .steering
            .iter()
            .map(|s| {
                s.weights
                    .iter()
                    .zip(coeffs)
                    .zip(calibration)
                    .map(|((w, c), cal)| w.conj() * cal.conj() * *c)
                    .collect()
            })
            .collect();
        AoaLinearization {
            bin_weights,
            true_bin: self.grid.nearest_bin(true_azimuth),
        }
    }
}

fn normalize(mut raw: Vec<f64>) -> Vec<f64> {
    let total: f64 = raw.iter().sum();
    if total <= 1e-300 {
        // No energy at all: maximum-entropy (uniform) spectrum.
        let u = 1.0 / raw.len() as f64;
        raw.iter_mut().for_each(|v| *v = u);
    } else {
        raw.iter_mut().for_each(|v| *v /= total);
    }
    raw
}

/// The AoA cross-entropy loss as an explicit function of one surface's
/// element responses — the localization term of the paper's multitask
/// objective, with analytic phase gradients.
///
/// `loss(r) = −log q_t(r)` where `q_i = |z_i|² / Σ_j |z_j|²` and
/// `z_i(r) = Σ_e w_{i,e} · r_e`.
#[derive(Debug, Clone)]
pub struct AoaLinearization {
    /// Per-bin linear weights over the surface's elements.
    pub bin_weights: Vec<Vec<Complex>>,
    /// The grid bin containing the true direction.
    pub true_bin: usize,
}

impl AoaLinearization {
    fn statistics(&self, r: &[Complex]) -> Vec<Complex> {
        self.bin_weights
            .iter()
            .map(|w| w.iter().zip(r).map(|(wi, ri)| *wi * *ri).sum())
            .collect()
    }

    /// The normalized spectrum at responses `r`.
    pub fn spectrum(&self, r: &[Complex]) -> Vec<f64> {
        normalize(self.statistics(r).iter().map(|z| z.norm_sqr()).collect())
    }

    /// The cross-entropy loss at responses `r` (natural log).
    pub fn loss(&self, r: &[Complex]) -> f64 {
        self.loss_at(&self.statistics(r))
    }

    fn loss_at(&self, z: &[Complex]) -> f64 {
        let q = normalize(z.iter().map(|zi| zi.norm_sqr()).collect())[self.true_bin];
        -(q.max(1e-300)).ln()
    }

    /// The loss and its analytic gradient with respect to each element's
    /// phase (elements assumed to keep their current magnitude), from one
    /// evaluation of the bin statistics.
    ///
    /// `∂loss/∂φ_e = −d|z_t|²/dφ_e / |z_t|² + Σ_j d|z_j|²/dφ_e / Σ_j |z_j|²`
    /// with `d|z_i|²/dφ_e = 2·Re(conj(z_i)·j·w_{i,e}·r_e)`.
    pub fn loss_and_grad(&self, r: &[Complex]) -> (f64, Vec<f64>) {
        let z = self.statistics(r);
        let total: f64 = z.iter().map(|zi| zi.norm_sqr()).sum();
        let zt = z[self.true_bin];
        let zt_sq = zt.norm_sqr().max(1e-300);
        let total = total.max(1e-300);
        // Bins outer, elements inner: each bin's weights are read in
        // order, and every element still sums its bins in bin order.
        // `conj(z_i)·j·w·r` evaluates left to right, so `conj(z_i)·j` is
        // hoisted out of the element loop without changing a bit.
        let mut grad = vec![0.0; r.len()];
        for (zi, w) in z.iter().zip(&self.bin_weights) {
            let zj = zi.conj() * Complex::J;
            for ((g, wi), ri) in grad.iter_mut().zip(w).zip(r) {
                *g += 2.0 * (zj * *wi * *ri).re;
            }
        }
        let zj = zt.conj() * Complex::J;
        for ((g, wt), ri) in grad.iter_mut().zip(&self.bin_weights[self.true_bin]).zip(r) {
            let d_true = 2.0 * (zj * *wt * *ri).re;
            *g = -d_true / zt_sq + *g / total;
        }
        (self.loss_at(&z), grad)
    }

    /// Number of elements this linearization covers.
    pub fn element_count(&self) -> usize {
        self.bin_weights.first().map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfos_em::array::ArrayGeometry;

    const LAMBDA: f64 = 0.0107; // 28 GHz
    fn k() -> f64 {
        2.0 * std::f64::consts::PI / LAMBDA
    }

    fn estimator(n_bins: usize) -> AoaEstimator {
        let geom = ArrayGeometry::half_wavelength(8, 8, LAMBDA);
        AoaEstimator::new(&geom, k(), AngleGrid::uniform(n_bins, 1.2))
    }

    #[test]
    fn grid_construction() {
        let g = AngleGrid::uniform(5, 1.0);
        assert_eq!(g.len(), 5);
        assert!((g.azimuths[0] + 1.0).abs() < 1e-12);
        assert!((g.azimuths[4] - 1.0).abs() < 1e-12);
        assert!((g.azimuths[2]).abs() < 1e-12);
        assert_eq!(g.nearest_bin(0.05), 2);
        assert_eq!(g.nearest_bin(-2.0), 0);
    }

    #[test]
    fn direction_is_unit() {
        let g = AngleGrid::uniform(9, 1.2);
        for i in 0..g.len() {
            let d = g.direction(i);
            let n = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            assert!((n - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn azimuth_of_world_point() {
        let pose = Pose::wall_mounted(Vec3::new(0.0, 0.0, 1.5), Vec3::X);
        // Straight ahead: azimuth 0.
        assert!(AngleGrid::azimuth_of(&pose, Vec3::new(5.0, 0.0, 1.5)).abs() < 1e-9);
        // To the local right (world... right = up×normal = Z×X = Y).
        let az = AngleGrid::azimuth_of(&pose, Vec3::new(3.0, 3.0, 1.5));
        assert!((az - std::f64::consts::FRAC_PI_4).abs() < 1e-9);
    }

    #[test]
    fn plane_wave_estimated_at_true_bin() {
        let est = estimator(41);
        let geom = ArrayGeometry::half_wavelength(8, 8, LAMBDA);
        let true_az: f64 = 0.42;
        let y = SteeringVector::compute(&geom, [true_az.sin(), 0.0, true_az.cos()], k()).weights;
        let (bin, az) = est.estimate(&y);
        assert_eq!(bin, est.grid.nearest_bin(true_az));
        assert!((az - true_az).abs() < 0.05, "az={az}");
    }

    #[test]
    fn spectrum_is_probability() {
        let est = estimator(21);
        let geom = ArrayGeometry::half_wavelength(8, 8, LAMBDA);
        let y = SteeringVector::compute(&geom, [0.3, 0.0, 1.0], k()).weights;
        let spec = est.spectrum(&y);
        assert_eq!(spec.len(), 21);
        assert!((spec.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(spec.iter().all(|p| *p >= 0.0));
    }

    #[test]
    fn zero_observation_gives_uniform_spectrum() {
        let est = estimator(10);
        let spec = est.spectrum(&vec![Complex::ZERO; 64]);
        for p in spec {
            assert!((p - 0.1).abs() < 1e-12);
        }
    }

    fn toy_linearization() -> (AoaLinearization, Vec<Complex>) {
        // Small real construction through the estimator so the quadratic
        // structure is genuine.
        let est = estimator(15);
        let geom = ArrayGeometry::half_wavelength(8, 8, LAMBDA);
        let true_az: f64 = -0.3;
        // Client-side coefficients: plane wave from the true direction with
        // mild amplitude taper.
        let sv = SteeringVector::compute(&geom, [true_az.sin(), 0.0, true_az.cos()], k());
        let coeffs: Vec<Complex> = sv
            .weights
            .iter()
            .enumerate()
            .map(|(i, w)| *w * (0.5 + 0.5 / (1.0 + i as f64 / 64.0)))
            .collect();
        let cal = vec![Complex::ONE; 64];
        let lin = est.linearize(&coeffs, &cal, true_az);
        let r: Vec<Complex> = (0..64).map(|i| Complex::cis(i as f64 * 0.21)).collect();
        (lin, r)
    }

    #[test]
    fn identity_response_localizes_perfectly() {
        let (lin, _) = toy_linearization();
        let r = vec![Complex::ONE; 64];
        let spec = lin.spectrum(&r);
        let best = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, lin.true_bin);
        assert!(lin.loss(&r) < 1.5, "loss={}", lin.loss(&r));
    }

    #[test]
    fn scrambled_response_degrades_loss() {
        let (lin, scrambled) = toy_linearization();
        let identity = vec![Complex::ONE; 64];
        assert!(
            lin.loss(&scrambled) > lin.loss(&identity),
            "scrambled {} vs identity {}",
            lin.loss(&scrambled),
            lin.loss(&identity)
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let (lin, r) = toy_linearization();
        let (loss, grad) = lin.loss_and_grad(&r);
        assert_eq!(loss.to_bits(), lin.loss(&r).to_bits());
        let phases: Vec<f64> = r.iter().map(|c| c.arg()).collect();
        let loss_at = |p: &[f64]| {
            let rr: Vec<Complex> = p.iter().map(|&x| Complex::cis(x)).collect();
            lin.loss(&rr)
        };
        let eps = 1e-6;
        for e in [0usize, 7, 31, 63] {
            let mut p = phases.clone();
            p[e] += eps;
            let fd = (loss_at(&p) - loss_at(&phases)) / eps;
            assert!(
                (fd - grad[e]).abs() < 1e-3 * (1.0 + fd.abs()),
                "e={e} fd={fd} grad={}",
                grad[e]
            );
        }
    }

    #[test]
    fn loss_is_nonnegative_for_probabilities() {
        let (lin, r) = toy_linearization();
        // q_t ≤ 1 always, so −ln q_t ≥ 0.
        assert!(lin.loss(&r) >= 0.0);
        assert!(lin.loss(&vec![Complex::ONE; 64]) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two bins")]
    fn tiny_grid_rejected() {
        let _ = AngleGrid::uniform(1, 1.0);
    }
}
