//! Differentiable service objectives over surface configurations.
//!
//! Each objective scores a full multi-surface configuration (one complex
//! response vector per deployed surface) and provides the analytic
//! gradient of its loss with respect to every element phase, computed in
//! the same pass as the loss ([`Objective::loss_and_grad`]). The paper's
//! joint multitasking (§3.2, Figure 5) is a weighted sum of these
//! ([`MultiObjective`]), minimized by [`crate::optimizer`].
//!
//! Loss conventions (matching §4):
//! - coverage: the negative sum of link capacity across locations,
//! - localization: cross-entropy between estimated and true AoA,
//! - powering: negative log delivered power,
//! - suppression (security): positive log leaked power.

use surfos_channel::linear::{add_power_grad, Linearization, LinkGain};
use surfos_channel::par;
use surfos_channel::trace::ChannelTrace;
use surfos_channel::{ChannelSim, Endpoint};
use surfos_em::band::Band;
use surfos_em::complex::Complex;
use surfos_em::units::{db_to_linear, dbm_to_watts};
use surfos_geometry::Vec3;
use surfos_sensing::aoa::{AngleGrid, AoaEstimator, AoaLinearization};
use surfos_sensing::sounding::ap_calibration;

/// A differentiable loss over multi-surface configurations.
///
/// `Sync` so optimizers may score candidates on worker threads; the
/// per-location objectives below also fan their own link loops out
/// (deterministically — see [`surfos_channel::par`]).
pub trait Objective: Send + Sync {
    /// The loss at the given per-surface responses.
    fn loss(&self, responses: &[Vec<Complex>]) -> f64;

    /// The loss (bit-identical to [`loss`](Self::loss)) and `∂loss/∂φ` for
    /// every element of every surface (same shape as `responses`),
    /// assuming elements keep their current magnitudes — one pass over the
    /// channels, one Adam step.
    fn loss_and_grad(&self, responses: &[Vec<Complex>]) -> (f64, Vec<Vec<f64>>);
}

fn as_slices(responses: &[Vec<Complex>]) -> Vec<&[Complex]> {
    responses.iter().map(Vec::as_slice).collect()
}

fn zero_grads(responses: &[Vec<Complex>]) -> Vec<Vec<f64>> {
    responses.iter().map(|r| vec![0.0; r.len()]).collect()
}

/// Elements per gradient chunk: small enough that a 32×32 surface still
/// fans out over the pool (8 chunks), big enough that a chunk's per-link
/// work dwarfs claiming it, and its scratch stays in L1.
const GRAD_CHUNK: usize = 128;

/// `Σ_l factor_l · ∂|h_l|²/∂φ` for every element of every surface: the
/// gradient pass of the power-based objectives, after the link pass has
/// evaluated each `gain`. Fans out over element chunks; each element sums
/// its links in link order ([`add_power_grad`]), so the result has the
/// bits of a serial link-order accumulation at any worker count.
fn power_grad(
    responses: &[Vec<Complex>],
    links: &[(&Linearization, &LinkGain, f64)],
) -> Vec<Vec<f64>> {
    let mut grads = zero_grads(responses);
    let mut chunks: Vec<(usize, usize, &mut [f64])> = Vec::new();
    for (s, grad) in grads.iter_mut().enumerate() {
        for (c, chunk) in grad.chunks_mut(GRAD_CHUNK).enumerate() {
            chunks.push((s, c * GRAD_CHUNK, chunk));
        }
    }
    let threads = par::thread_count(chunks.len());
    par::par_map_mut_with_threads(&mut chunks, threads, |(s, start, grad)| {
        let response = &responses[*s][*start..*start + grad.len()];
        add_power_grad(links, *s, *start, response, grad);
    });
    grads
}

/// `P_tx / N` in linear units at `band`: multiplying `|h|²` yields SNR.
fn snr_scale_at(band: &Band, tx_power_dbm: f64, noise_figure_db: f64) -> f64 {
    let noise_dbm = surfos_em::noise::noise_power_dbm(band.bandwidth_hz, noise_figure_db);
    dbm_to_watts(tx_power_dbm) / dbm_to_watts(noise_dbm)
}

/// Coverage: maximize summed Shannon capacity over a set of locations.
///
/// `loss(r) = − Σ_i log2(1 + SNR_i(r))`, `SNR_i = |h_i(r)|² · scale`.
pub struct CoverageObjective {
    /// One linearized channel per evaluation location.
    pub links: Vec<Linearization>,
    /// `P_tx / N` in linear units: multiplying `|h|²` yields the SNR.
    pub snr_scale: f64,
    /// The band-independent traces behind `links`, kept so a band change
    /// is a cheap re-phasing ([`Self::rephase`]) instead of a re-trace.
    traces: Vec<ChannelTrace>,
    tx_power_dbm: f64,
    noise_figure_db: f64,
}

impl CoverageObjective {
    /// Builds the objective for a transmitter over grid points, using the
    /// receiver template's antenna/noise figure.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn new(sim: &ChannelSim, tx: &Endpoint, points: &[Vec3], rx_template: &Endpoint) -> Self {
        assert!(!points.is_empty(), "coverage objective needs locations");
        // Per-location ray traces are independent; the sweep resolves the
        // scene index once and fans out chunk-ordered (bit-identical to a
        // serial per-point linearize). Traces are retained for rephasing.
        let traces = sim.trace_sweep(tx, points, rx_template);
        let links = par::par_map(&traces, |t| t.linearize_at(&sim.band));
        CoverageObjective {
            links,
            snr_scale: snr_scale_at(&sim.band, tx.tx_power_dbm, rx_template.noise_figure_db),
            traces,
            tx_power_dbm: tx.tx_power_dbm,
            noise_figure_db: rx_template.noise_figure_db,
        }
    }

    /// Re-evaluates the objective at a new band without touching the
    /// environment: the retained traces are re-phased (`O(elements)` per
    /// link) and the noise scale recomputed. Bit-identical to rebuilding
    /// via [`Self::new`] against the same geometry retuned to `band` — a
    /// wideband objective sweep is one trace + N cheap rephasings.
    pub fn rephase(&mut self, band: &Band) {
        self.links = par::par_map(&self.traces, |t| t.linearize_at(band));
        self.snr_scale = snr_scale_at(band, self.tx_power_dbm, self.noise_figure_db);
    }

    /// Per-location SNRs in dB at the given responses.
    pub fn snrs_db(&self, responses: &[Vec<Complex>]) -> Vec<f64> {
        let slices = as_slices(responses);
        par::par_map(&self.links, |l| {
            let p = l.evaluate(&slices).norm_sqr() * self.snr_scale;
            surfos_em::units::linear_to_db(p)
        })
    }

    /// Median SNR in dB (the Figure 4 metric).
    pub fn median_snr_db(&self, responses: &[Vec<Complex>]) -> f64 {
        let mut snrs = self.snrs_db(responses);
        snrs.sort_by(f64::total_cmp);
        let n = snrs.len();
        if n % 2 == 1 {
            snrs[n / 2]
        } else {
            (snrs[n / 2 - 1] + snrs[n / 2]) / 2.0
        }
    }
}

impl Objective for CoverageObjective {
    fn loss(&self, responses: &[Vec<Complex>]) -> f64 {
        let slices = as_slices(responses);
        let terms = par::par_map(&self.links, |l| {
            let snr = l.evaluate(&slices).norm_sqr() * self.snr_scale;
            (1.0 + snr).log2()
        });
        // In-order serial sum: same association as the serial loop.
        -terms.iter().sum::<f64>()
    }

    fn loss_and_grad(&self, responses: &[Vec<Complex>]) -> (f64, Vec<Vec<f64>>) {
        let slices = as_slices(responses);
        let ln2 = std::f64::consts::LN_2;
        // Link pass: each link's gain, loss term and chain factor …
        let evals = par::par_map(&self.links, |l| {
            let gain = l.gain(&slices);
            let snr = gain.h.norm_sqr() * self.snr_scale;
            let factor = -self.snr_scale / ((1.0 + snr) * ln2);
            ((1.0 + snr).log2(), gain, factor)
        });
        let loss = -evals.iter().map(|(term, _, _)| term).sum::<f64>();
        // … then the element pass, per element in link order.
        let links: Vec<_> = self
            .links
            .iter()
            .zip(&evals)
            .map(|(l, (_, gain, factor))| (l, gain, *factor))
            .collect();
        (loss, power_grad(responses, &links))
    }
}

/// Localization: minimize the mean AoA cross-entropy over probe locations,
/// for one sensing surface.
pub struct LocalizationObjective {
    /// Per-probe AoA linearizations (over the sensing surface's elements).
    pub probes: Vec<AoaLinearization>,
    /// Which surface (simulator index) does the sensing.
    pub surface: usize,
}

impl LocalizationObjective {
    /// Builds the objective: clients at `probe_points` are localized
    /// through surface `surface_idx` by `ap`, over `grid` candidate
    /// angles. Probe locations the surface cannot serve are skipped.
    ///
    /// # Panics
    /// Panics if no probe location is servable (the sensing task is
    /// infeasible — callers must check geometry first).
    pub fn new(
        sim: &ChannelSim,
        surface_idx: usize,
        ap: &Endpoint,
        client_template: &Endpoint,
        probe_points: &[Vec3],
        grid: AngleGrid,
    ) -> Self {
        let surf = &sim.surfaces()[surface_idx];
        let estimator = AoaEstimator::new(&surf.geometry, sim.band.wavenumber(), grid);
        let cal = ap_calibration(sim, surface_idx, ap);
        // All probe links share one scene index and fan out together;
        // results come back in probe order for the zip below.
        let clients: Vec<Endpoint> = probe_points
            .iter()
            .map(|p| {
                let mut client = client_template.clone();
                client.pose.position = *p;
                client
            })
            .collect();
        let pairs: Vec<(&Endpoint, &Endpoint)> = clients.iter().map(|c| (c, ap)).collect();
        let probes: Vec<AoaLinearization> = sim
            .linearize_batch(&pairs)
            .iter()
            .zip(probe_points)
            .filter_map(|(lin, p)| {
                let term = lin.linear.iter().find(|t| t.surface == surface_idx)?;
                let true_az = AngleGrid::azimuth_of(&surf.pose, *p);
                Some(estimator.linearize(&term.coeffs, &cal, true_az))
            })
            .collect();
        assert!(
            !probes.is_empty(),
            "no probe location is servable by surface {surface_idx}"
        );
        LocalizationObjective {
            probes,
            surface: surface_idx,
        }
    }

    /// Per-probe cross-entropy losses, in probe order (probes fan out
    /// over the worker pool).
    pub fn losses(&self, responses: &[Vec<Complex>]) -> Vec<f64> {
        let r = &responses[self.surface];
        par::par_map(&self.probes, |p| p.loss(r))
    }
}

impl Objective for LocalizationObjective {
    fn loss(&self, responses: &[Vec<Complex>]) -> f64 {
        let l = self.losses(responses);
        l.iter().sum::<f64>() / l.len() as f64
    }

    fn loss_and_grad(&self, responses: &[Vec<Complex>]) -> (f64, Vec<Vec<f64>>) {
        // Probes fan out; losses and gradients are summed in probe order.
        let r = &responses[self.surface];
        let per_probe = par::par_map(&self.probes, |p| p.loss_and_grad(r));
        let n = self.probes.len() as f64;
        let loss = per_probe.iter().map(|(l, _)| l).sum::<f64>() / n;
        let mut grads = zero_grads(responses);
        for (_, dp) in &per_probe {
            for (g, d) in grads[self.surface].iter_mut().zip(dp) {
                *g += d / n;
            }
        }
        (loss, grads)
    }
}

/// Powering: maximize delivered power on one link.
/// `loss = −ln(|h|² + ε)`.
pub struct PoweringObjective {
    /// The linearized channel to the powered device.
    pub link: Linearization,
    /// The trace behind `link`, for band rephasing.
    trace: ChannelTrace,
}

impl PoweringObjective {
    /// Builds the objective for a tx → device link.
    pub fn new(sim: &ChannelSim, tx: &Endpoint, device: &Endpoint) -> Self {
        let trace = sim.trace(tx, device);
        PoweringObjective {
            link: trace.linearize_at(&sim.band),
            trace,
        }
    }

    /// Re-phases the retained trace at a new band (see
    /// [`CoverageObjective::rephase`]).
    pub fn rephase(&mut self, band: &Band) {
        self.link = self.trace.linearize_at(band);
    }

    /// Delivered power in dBm at the given responses for a transmit power.
    pub fn delivered_dbm(&self, responses: &[Vec<Complex>], tx_power_dbm: f64) -> f64 {
        let h = self.link.evaluate(&as_slices(responses));
        tx_power_dbm + surfos_em::units::amplitude_to_db(h.abs())
    }
}

const POWER_EPS: f64 = 1e-30;

impl Objective for PoweringObjective {
    fn loss(&self, responses: &[Vec<Complex>]) -> f64 {
        let p = self.link.evaluate(&as_slices(responses)).norm_sqr();
        -(p + POWER_EPS).ln()
    }

    fn loss_and_grad(&self, responses: &[Vec<Complex>]) -> (f64, Vec<Vec<f64>>) {
        let gain = self.link.gain(&as_slices(responses));
        let p = gain.h.norm_sqr();
        let factor = -1.0 / (p + POWER_EPS);
        let grads = power_grad(responses, &[(&self.link, &gain, factor)]);
        (-(p + POWER_EPS).ln(), grads)
    }
}

/// Security suppression: minimize leaked power into protected locations,
/// down to a floor. `loss = Σ_i ln(max(|h_i|², floor) + ε)` — once a
/// point's leak is below the floor the term (and its gradient) saturates,
/// so joint objectives stop paying for suppression the goal doesn't need.
pub struct SuppressionObjective {
    /// Linearized channels into the protected region.
    pub leaks: Vec<Linearization>,
    /// Leak power (|h|², linear) below which the loss saturates.
    /// Zero = suppress without limit.
    pub floor: f64,
    /// Band-independent traces behind `leaks`, for band rephasing.
    traces: Vec<ChannelTrace>,
}

impl SuppressionObjective {
    /// Builds the objective over protected points (no floor).
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn new(sim: &ChannelSim, tx: &Endpoint, points: &[Vec3], rx_template: &Endpoint) -> Self {
        assert!(!points.is_empty(), "suppression objective needs locations");
        let traces = sim.trace_sweep(tx, points, rx_template);
        let leaks = par::par_map(&traces, |t| t.linearize_at(&sim.band));
        SuppressionObjective {
            leaks,
            floor: 0.0,
            traces,
        }
    }

    /// Re-phases the retained traces at a new band (see
    /// [`CoverageObjective::rephase`]); the floor is a power ratio and
    /// carries over unchanged.
    pub fn rephase(&mut self, band: &Band) {
        self.leaks = par::par_map(&self.traces, |t| t.linearize_at(band));
    }

    /// Saturates the loss once the leaked RSS falls below
    /// `max_leak_dbm` for a transmitter at `tx_power_dbm` — the
    /// [`crate::service::ServiceGoal::Suppression`] target.
    pub fn with_goal(mut self, max_leak_dbm: f64, tx_power_dbm: f64) -> Self {
        self.floor = db_to_linear(max_leak_dbm - tx_power_dbm);
        self
    }

    /// Worst (highest) leaked RSS over the region, dBm.
    pub fn worst_leak_dbm(&self, responses: &[Vec<Complex>], tx_power_dbm: f64) -> f64 {
        let slices = as_slices(responses);
        self.leaks
            .iter()
            .map(|l| tx_power_dbm + surfos_em::units::amplitude_to_db(l.evaluate(&slices).abs()))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl Objective for SuppressionObjective {
    fn loss(&self, responses: &[Vec<Complex>]) -> f64 {
        let slices = as_slices(responses);
        let terms = par::par_map(&self.leaks, |l| {
            (l.evaluate(&slices).norm_sqr().max(self.floor) + POWER_EPS).ln()
        });
        terms.iter().sum()
    }

    fn loss_and_grad(&self, responses: &[Vec<Complex>]) -> (f64, Vec<Vec<f64>>) {
        let slices = as_slices(responses);
        let evals = par::par_map(&self.leaks, |l| {
            let gain = l.gain(&slices);
            let p = gain.h.norm_sqr();
            let term = (p.max(self.floor) + POWER_EPS).ln();
            // Saturated (goal met at this point): no gradient.
            let factor = if p <= self.floor {
                None
            } else {
                Some(1.0 / (p + POWER_EPS))
            };
            (term, gain, factor)
        });
        let loss = evals.iter().map(|(term, _, _)| term).sum();
        let links: Vec<_> = self
            .leaks
            .iter()
            .zip(&evals)
            .filter_map(|(l, (_, gain, factor))| Some((l, gain, (*factor)?)))
            .collect();
        (loss, power_grad(responses, &links))
    }
}

/// A weighted sum of objectives — the joint multitasking loss of §4:
/// "we minimize the sum of localization loss and coverage loss".
#[derive(Default)]
pub struct MultiObjective {
    terms: Vec<(Box<dyn Objective>, f64)>,
}

impl MultiObjective {
    /// An empty objective (zero loss).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a weighted term (builder style).
    ///
    /// # Panics
    /// Panics on non-finite or negative weights.
    pub fn with(mut self, objective: Box<dyn Objective>, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be finite and non-negative"
        );
        self.terms.push((objective, weight));
        self
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no term has been added.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

impl Objective for MultiObjective {
    // Terms run in order on the calling thread; each term fans out its own
    // inner loop (links, probes) over the worker pool when it is big
    // enough to pay for it, so a joint objective keeps every core on one
    // term at a time and a handful of single-link terms costs no hand-off.
    fn loss(&self, responses: &[Vec<Complex>]) -> f64 {
        self.terms.iter().map(|(o, w)| w * o.loss(responses)).sum()
    }

    fn loss_and_grad(&self, responses: &[Vec<Complex>]) -> (f64, Vec<Vec<f64>>) {
        let mut losses = Vec::with_capacity(self.terms.len());
        let mut total = zero_grads(responses);
        for (o, w) in &self.terms {
            let (l, g) = o.loss_and_grad(responses);
            losses.push(w * l);
            for (ts, gs) in total.iter_mut().zip(g) {
                for (t, gi) in ts.iter_mut().zip(gs) {
                    *t += w * gi;
                }
            }
        }
        (losses.iter().sum(), total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use surfos_channel::{OperationMode, SurfaceInstance};
    use surfos_em::antenna::ElementPattern;
    use surfos_em::array::ArrayGeometry;
    use surfos_em::band::NamedBand;
    use surfos_geometry::{FloorPlan, Pose};

    fn setup() -> (ChannelSim, Endpoint, Endpoint) {
        let band = NamedBand::MmWave28GHz.band();
        let mut sim = ChannelSim::new(FloorPlan::new(), band);
        let pose = Pose::wall_mounted(Vec3::new(0.0, 0.0, 1.5), Vec3::X);
        let geom = ArrayGeometry::half_wavelength(8, 8, band.wavelength_m());
        sim.add_surface(SurfaceInstance::new(
            "s0",
            pose,
            geom,
            OperationMode::Reflective,
        ));
        let ap = Endpoint::access_point(
            "ap0",
            Pose::wall_mounted(Vec3::new(5.0, -3.0, 2.0), Vec3::new(-1.0, 0.6, 0.0)),
        );
        let mut client = Endpoint::client("c0", Vec3::new(5.0, 3.0, 1.2));
        client.pattern = ElementPattern::Isotropic;
        (sim, ap, client)
    }

    fn grid_points() -> Vec<Vec3> {
        vec![
            Vec3::new(4.0, 2.0, 1.2),
            Vec3::new(5.0, 3.0, 1.2),
            Vec3::new(6.0, 2.5, 1.2),
            Vec3::new(4.5, 3.5, 1.2),
        ]
    }

    fn finite_diff_check(obj: &dyn Objective, responses: &[Vec<Complex>], elems: &[usize]) {
        let grads = obj.loss_and_grad(responses).1;
        let base = obj.loss(responses);
        let eps = 1e-6;
        for &e in elems {
            let mut r = responses.to_vec();
            r[0][e] *= Complex::cis(eps);
            let fd = (obj.loss(&r) - base) / eps;
            let g = grads[0][e];
            assert!(
                (fd - g).abs() < 1e-3 * (1.0 + fd.abs().max(g.abs())),
                "elem {e}: fd={fd} grad={g}"
            );
        }
    }

    #[test]
    fn coverage_gradient_matches_fd() {
        let (sim, ap, client) = setup();
        let obj = CoverageObjective::new(&sim, &ap, &grid_points(), &client);
        let responses: Vec<Vec<Complex>> =
            vec![(0..64).map(|i| Complex::cis(i as f64 * 0.13)).collect()];
        finite_diff_check(&obj, &responses, &[0, 17, 63]);
    }

    #[test]
    fn coverage_descent_direction_improves_capacity() {
        let (sim, ap, client) = setup();
        let obj = CoverageObjective::new(&sim, &ap, &grid_points(), &client);
        let responses: Vec<Vec<Complex>> = vec![vec![Complex::ONE; 64]];
        let g = obj.loss_and_grad(&responses).1;
        let step = 0.05;
        let stepped: Vec<Vec<Complex>> = vec![responses[0]
            .iter()
            .zip(&g[0])
            .map(|(r, gi)| *r * Complex::cis(-step * gi))
            .collect()];
        assert!(obj.loss(&stepped) <= obj.loss(&responses) + 1e-12);
    }

    #[test]
    fn median_snr_reported() {
        let (sim, ap, client) = setup();
        let obj = CoverageObjective::new(&sim, &ap, &grid_points(), &client);
        let responses: Vec<Vec<Complex>> = vec![vec![Complex::ONE; 64]];
        let snrs = obj.snrs_db(&responses);
        assert_eq!(snrs.len(), 4);
        let med = obj.median_snr_db(&responses);
        let mut sorted = snrs.clone();
        sorted.sort_by(f64::total_cmp);
        assert!(med >= sorted[1] - 1e-9 && med <= sorted[2] + 1e-9);
    }

    #[test]
    fn localization_gradient_matches_fd() {
        let (sim, ap, client) = setup();
        let obj = LocalizationObjective::new(
            &sim,
            0,
            &ap,
            &client,
            &grid_points(),
            AngleGrid::uniform(21, 1.2),
        );
        let responses: Vec<Vec<Complex>> = vec![(0..64)
            .map(|i| Complex::cis((i * i) as f64 * 0.05))
            .collect()];
        finite_diff_check(&obj, &responses, &[3, 32]);
    }

    #[test]
    fn powering_gradient_matches_fd() {
        let (sim, ap, client) = setup();
        let obj = PoweringObjective::new(&sim, &ap, &client);
        let responses: Vec<Vec<Complex>> =
            vec![(0..64).map(|i| Complex::cis(i as f64 * 0.4)).collect()];
        finite_diff_check(&obj, &responses, &[5, 40]);
    }

    #[test]
    fn suppression_prefers_nulls() {
        let (sim, ap, client) = setup();
        let obj = SuppressionObjective::new(&sim, &ap, &grid_points(), &client);
        // Focusing the surface on a protected point must raise the loss
        // relative to an anti-focused (scrambled) configuration.
        let lin = sim.linearize(&ap, &{
            let mut rx = client.clone();
            rx.pose.position = grid_points()[0];
            rx
        });
        let term = &lin.linear[0];
        let focused: Vec<Vec<Complex>> =
            vec![term.coeffs.iter().map(|c| Complex::cis(-c.arg())).collect()];
        let scrambled: Vec<Vec<Complex>> = vec![(0..64)
            .map(|i| Complex::cis((i * 37 % 64) as f64))
            .collect()];
        assert!(obj.loss(&focused) > obj.loss(&scrambled));
    }

    #[test]
    fn multiobjective_weights_sum() {
        let (sim, ap, client) = setup();
        let cov = CoverageObjective::new(&sim, &ap, &grid_points(), &client);
        let pow = PoweringObjective::new(&sim, &ap, &client);
        let responses: Vec<Vec<Complex>> = vec![vec![Complex::ONE; 64]];
        let l_cov = cov.loss(&responses);
        let l_pow = pow.loss(&responses);
        let multi = MultiObjective::new()
            .with(Box::new(cov), 2.0)
            .with(Box::new(pow), 0.5);
        assert!((multi.loss(&responses) - (2.0 * l_cov + 0.5 * l_pow)).abs() < 1e-9);
        assert_eq!(multi.len(), 2);
    }

    #[test]
    fn multiobjective_gradient_matches_fd() {
        let (sim, ap, client) = setup();
        let multi = MultiObjective::new()
            .with(
                Box::new(CoverageObjective::new(&sim, &ap, &grid_points(), &client)),
                1.0,
            )
            .with(
                Box::new(LocalizationObjective::new(
                    &sim,
                    0,
                    &ap,
                    &client,
                    &grid_points(),
                    AngleGrid::uniform(15, 1.2),
                )),
                0.3,
            );
        let responses: Vec<Vec<Complex>> =
            vec![(0..64).map(|i| Complex::cis(i as f64 * 0.09)).collect()];
        finite_diff_check(&multi, &responses, &[11, 50]);
    }

    #[test]
    fn coverage_rephase_matches_rebuild_at_new_band() {
        let (sim, ap, client) = setup();
        let mut obj = CoverageObjective::new(&sim, &ap, &grid_points(), &client);
        // Retune the environment and rebuild from scratch for reference.
        let mut retuned = sim.clone();
        retuned.band = NamedBand::MmWave60GHz.band();
        retuned.invalidate_cache();
        let reference = CoverageObjective::new(&retuned, &ap, &grid_points(), &client);
        // Re-phasing the retained traces must match bit-for-bit.
        obj.rephase(&retuned.band);
        assert_eq!(obj.snr_scale, reference.snr_scale);
        assert_eq!(obj.links.len(), reference.links.len());
        for (a, b) in obj.links.iter().zip(&reference.links) {
            assert_eq!(a.constant, b.constant);
            assert_eq!(a.linear.len(), b.linear.len());
            for (ta, tb) in a.linear.iter().zip(&b.linear) {
                assert_eq!(ta.coeffs, tb.coeffs);
            }
        }
        // And back: a full band round-trip restores the original exactly.
        let original = CoverageObjective::new(&sim, &ap, &grid_points(), &client);
        obj.rephase(&sim.band);
        for (a, b) in obj.links.iter().zip(&original.links) {
            assert_eq!(a.constant, b.constant);
        }
    }

    #[test]
    fn suppression_rephase_matches_rebuild_at_new_band() {
        let (sim, ap, client) = setup();
        let mut obj =
            SuppressionObjective::new(&sim, &ap, &grid_points(), &client).with_goal(-60.0, 20.0);
        let mut retuned = sim.clone();
        retuned.band = NamedBand::MmWave60GHz.band();
        retuned.invalidate_cache();
        let reference = SuppressionObjective::new(&retuned, &ap, &grid_points(), &client);
        let floor = obj.floor;
        obj.rephase(&retuned.band);
        assert_eq!(obj.floor, floor, "floor is band-free");
        for (a, b) in obj.leaks.iter().zip(&reference.leaks) {
            assert_eq!(a.constant, b.constant);
        }
    }

    #[test]
    fn multiobjective_parallel_terms_match_serial_sum() {
        let (sim, ap, client) = setup();
        // Enough points and probes that each term fans out at N workers.
        let points: Vec<Vec3> = (0..20)
            .map(|i| Vec3::new(4.0 + 0.5 * (i % 5) as f64, 2.0 + 0.4 * (i / 5) as f64, 1.2))
            .collect();
        let cov = CoverageObjective::new(&sim, &ap, &points, &client);
        let pow = PoweringObjective::new(&sim, &ap, &client);
        let loc =
            LocalizationObjective::new(&sim, 0, &ap, &client, &points, AngleGrid::uniform(15, 1.2));
        assert!(
            loc.probes.len() >= 8,
            "localization term too small to fan out"
        );
        let responses: Vec<Vec<Complex>> =
            vec![(0..64).map(|i| Complex::cis(i as f64 * 0.21)).collect()];
        // Localization's probe fan-out against an explicit serial loop over
        // its probes, accumulated in probe order.
        let r = &responses[loc.surface];
        let n = loc.probes.len() as f64;
        let serial_losses: Vec<f64> = loc.probes.iter().map(|p| p.loss(r)).collect();
        assert_eq!(
            bits(&[loc.losses(&responses)]),
            bits(std::slice::from_ref(&serial_losses))
        );
        assert_eq!(
            loc.loss(&responses).to_bits(),
            (serial_losses.iter().sum::<f64>() / n).to_bits()
        );
        let mut serial_loc_grad = zero_grads(&responses);
        for p in &loc.probes {
            for (g, d) in serial_loc_grad[loc.surface]
                .iter_mut()
                .zip(p.loss_and_grad(r).1)
            {
                *g += d / n;
            }
        }
        let (loc_loss, loc_grad) = loc.loss_and_grad(&responses);
        assert_eq!(loc_loss.to_bits(), loc.loss(&responses).to_bits());
        assert_eq!(bits(&loc_grad), bits(&serial_loc_grad));
        // The joint objective against its terms summed in term order. Each
        // term's own fan-out is bit-identical to serial at any worker count
        // (`par` tests); scripts/lint.sh also runs this crate with
        // SURFOS_THREADS=1, so both the pooled and the serial path pass here.
        let terms = [
            (&cov as &dyn Objective, 2.0),
            (&pow as &dyn Objective, 0.5),
            (&loc as &dyn Objective, 1.5),
        ];
        let serial: f64 = terms.iter().map(|(o, w)| w * o.loss(&responses)).sum();
        let mut serial_grad = zero_grads(&responses);
        for (o, w) in terms {
            for (ts, gs) in serial_grad.iter_mut().zip(o.loss_and_grad(&responses).1) {
                for (t, gi) in ts.iter_mut().zip(gs) {
                    *t += w * gi;
                }
            }
        }
        let multi = MultiObjective::new()
            .with(Box::new(cov), 2.0)
            .with(Box::new(pow), 0.5)
            .with(Box::new(loc), 1.5);
        assert_eq!(multi.loss(&responses).to_bits(), serial.to_bits());
        let (multi_loss, multi_grad) = multi.loss_and_grad(&responses);
        assert_eq!(multi_loss.to_bits(), serial.to_bits());
        assert_eq!(bits(&multi_grad), bits(&serial_grad));
    }

    fn bits(g: &[Vec<f64>]) -> Vec<Vec<u64>> {
        g.iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// The fused pass against the two-pass reference: `loss_and_grad`'s
    /// loss is `loss`, and its gradient is the link-by-link one, bit for
    /// bit. `scripts/lint.sh` also runs the `fused_` tests with
    /// `SURFOS_THREADS=3`, so chunks outnumber threads there.
    fn assert_fused_matches(
        obj: &dyn Objective,
        responses: &[Vec<Complex>],
        reference_grad: Vec<Vec<f64>>,
    ) {
        let (loss, grads) = obj.loss_and_grad(responses);
        assert_eq!(loss.to_bits(), obj.loss(responses).to_bits());
        assert_eq!(bits(&grads), bits(&reference_grad));
        assert!(grads.iter().flatten().any(|g| *g != 0.0));
    }

    #[test]
    fn fused_coverage_with_cascades_matches_two_pass() {
        let (sim, ap, client, points) = reference::relay_lab();
        let obj = CoverageObjective::new(&sim, &ap, &points, &client);
        assert!(
            obj.links
                .iter()
                .any(|l| l.bilinear.iter().any(|b| b.first == 0 && b.second == 1)
                    && l.bilinear.iter().any(|b| b.first == 1 && b.second == 0)),
            "the relay lab must have cascades both ways"
        );
        let responses = reference::responses(&sim);
        assert_fused_matches(&obj, &responses, reference::coverage_grad(&obj, &responses));
    }

    #[test]
    fn fused_suppression_with_saturated_points_matches_two_pass() {
        let (sim, ap, client, points) = reference::relay_lab();
        let mut obj = SuppressionObjective::new(&sim, &ap, &points, &client);
        let responses = reference::responses(&sim);
        let slices = as_slices(&responses);
        let mut leaks: Vec<f64> = obj
            .leaks
            .iter()
            .map(|l| l.evaluate(&slices).norm_sqr())
            .collect();
        leaks.sort_by(f64::total_cmp);
        // Half the points sit under the floor: no gradient from them.
        obj.floor = leaks[leaks.len() / 2];
        assert!(leaks[0] < obj.floor && obj.floor < leaks[leaks.len() - 1]);
        assert_fused_matches(
            &obj,
            &responses,
            reference::suppression_grad(&obj, &responses),
        );
    }

    #[test]
    fn fused_powering_matches_two_pass() {
        let (sim, ap, client, _) = reference::relay_lab();
        let obj = PoweringObjective::new(&sim, &ap, &client);
        let responses = reference::responses(&sim);
        assert_fused_matches(&obj, &responses, reference::powering_grad(&obj, &responses));
    }

    #[test]
    fn fused_localization_with_zero_energy_probe_matches_two_pass() {
        let (sim, ap, client, points) = reference::relay_lab();
        let mut obj =
            LocalizationObjective::new(&sim, 1, &ap, &client, &points, AngleGrid::uniform(21, 1.2));
        // A probe the surface delivers no energy to takes the
        // uniform-spectrum branch of the loss.
        obj.probes.push(AoaLinearization {
            bin_weights: vec![vec![Complex::ZERO; 32 * 32]; 21],
            true_bin: 4,
        });
        let responses = reference::responses(&sim);
        let zero_energy = obj.probes.last().expect("pushed").loss(&responses[1]);
        assert_eq!(zero_energy, -(1.0f64 / 21.0).ln());
        assert_fused_matches(
            &obj,
            &responses,
            reference::localization_grad(&obj, &responses),
        );
    }

    #[test]
    fn fused_multiobjective_matches_weighted_two_pass() {
        let (sim, ap, client, points) = reference::relay_lab();
        let cov = CoverageObjective::new(&sim, &ap, &points, &client);
        let pow = PoweringObjective::new(&sim, &ap, &client);
        let loc =
            LocalizationObjective::new(&sim, 0, &ap, &client, &points, AngleGrid::uniform(15, 1.2));
        let responses = reference::responses(&sim);
        // The weighted sum of the terms' two-pass gradients, in term order.
        let terms = [
            (reference::coverage_grad(&cov, &responses), 1.0),
            (reference::powering_grad(&pow, &responses), 0.25),
            (reference::localization_grad(&loc, &responses), 3.5),
        ];
        let mut want = zero_grads(&responses);
        for (g, w) in &terms {
            for (ts, gs) in want.iter_mut().zip(g) {
                for (t, gi) in ts.iter_mut().zip(gs) {
                    *t += w * gi;
                }
            }
        }
        let multi = MultiObjective::new()
            .with(Box::new(cov), 1.0)
            .with(Box::new(pow), 0.25)
            .with(Box::new(loc), 3.5);
        assert_fused_matches(&multi, &responses, want);
    }

    #[test]
    #[should_panic(expected = "needs locations")]
    fn empty_coverage_rejected() {
        let (sim, ap, client) = setup();
        let _ = CoverageObjective::new(&sim, &ap, &[], &client);
    }

    #[test]
    #[should_panic(expected = "weight must be finite")]
    fn bad_weight_rejected() {
        let (sim, ap, client) = setup();
        let cov = CoverageObjective::new(&sim, &ap, &grid_points(), &client);
        let _ = MultiObjective::new().with(Box::new(cov), -1.0);
    }
}
