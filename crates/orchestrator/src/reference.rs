//! The two-pass reference that every fused [`Objective::loss_and_grad`]
//! is checked against bit for bit: the objective's own
//! [`Objective::loss`], then a gradient built link by link (or probe by
//! probe) the way it was before the fused step — each link evaluated again
//! inside its own power gradient, per-link vectors summed serially in link
//! order. Test-only; no production path calls it.
//!
//! [`Objective::loss_and_grad`]: crate::objective::Objective::loss_and_grad
//! [`Objective::loss`]: crate::objective::Objective::loss

use crate::objective::{
    CoverageObjective, LocalizationObjective, PoweringObjective, SuppressionObjective,
};
use surfos_channel::linear::Linearization;
use surfos_channel::{ChannelSim, Endpoint, OperationMode, SurfaceInstance};
use surfos_em::antenna::ElementPattern;
use surfos_em::array::ArrayGeometry;
use surfos_em::band::NamedBand;
use surfos_em::complex::Complex;
use surfos_geometry::{FloorPlan, Pose, Vec3};
use surfos_sensing::aoa::AoaLinearization;

/// Two facing 32×32 surfaces 6 m apart with an isotropic AP and clients
/// between them, so links carry linear terms on both surfaces and
/// cascades both ways (the two-surface hybrid deployment). Each surface is
/// eight 128-element gradient chunks.
pub(crate) fn relay_lab() -> (ChannelSim, Endpoint, Endpoint, Vec<Vec3>) {
    let band = NamedBand::MmWave28GHz.band();
    let mut sim = ChannelSim::new(FloorPlan::new(), band);
    for (id, at, normal) in [
        ("s0", Vec3::new(0.0, 0.0, 1.5), Vec3::X),
        ("s1", Vec3::new(6.0, 0.0, 1.5), -Vec3::X),
    ] {
        sim.add_surface(SurfaceInstance::new(
            id,
            Pose::wall_mounted(at, normal),
            ArrayGeometry::half_wavelength(32, 32, band.wavelength_m()),
            OperationMode::Reflective,
        ));
    }
    let mut ap = Endpoint::access_point(
        "ap0",
        Pose::wall_mounted(Vec3::new(2.0, 2.0, 1.5), Vec3::new(1.0, -1.0, 0.0)),
    );
    ap.pattern = ElementPattern::Isotropic;
    let mut client = Endpoint::client("c0", Vec3::new(4.0, -2.0, 1.5));
    client.pattern = ElementPattern::Isotropic;
    let points = (0..12)
        .map(|i| Vec3::new(3.4 + 0.3 * (i % 4) as f64, -2.6 + 0.4 * (i / 4) as f64, 1.5))
        .collect();
    (sim, ap, client, points)
}

/// Element responses for every surface of `sim`: distinct, non-trivial
/// phases, so no gradient entry is zero by symmetry.
pub(crate) fn responses(sim: &ChannelSim) -> Vec<Vec<Complex>> {
    sim.surfaces()
        .iter()
        .enumerate()
        .map(|(s, surf)| {
            (0..surf.geometry.len())
                .map(|e| Complex::cis((e * (s + 3)) as f64 * 0.017))
                .collect()
        })
        .collect()
}

fn dot(coeffs: &[Complex], response: &[Complex]) -> Complex {
    coeffs.iter().zip(response).map(|(c, r)| *c * *r).sum()
}

fn zero_grads(responses: &[Vec<Complex>]) -> Vec<Vec<f64>> {
    responses.iter().map(|r| vec![0.0; r.len()]).collect()
}

fn as_slices(responses: &[Vec<Complex>]) -> Vec<&[Complex]> {
    responses.iter().map(Vec::as_slice).collect()
}

/// `∂h/∂r_e` for every element of `surface`.
fn d_dresponse(lin: &Linearization, surface: usize, responses: &[&[Complex]]) -> Vec<Complex> {
    let mut grad = vec![Complex::ZERO; responses[surface].len()];
    for t in &lin.linear {
        if t.surface == surface {
            for (g, c) in grad.iter_mut().zip(&t.coeffs) {
                *g += *c;
            }
        }
    }
    for b in &lin.bilinear {
        if b.first == surface {
            let other = dot(&b.beta, responses[b.second]);
            for (g, a) in grad.iter_mut().zip(&b.alpha) {
                *g += *a * other;
            }
        }
        if b.second == surface {
            let other = dot(&b.alpha, responses[b.first]);
            for (g, be) in grad.iter_mut().zip(&b.beta) {
                *g += *be * other;
            }
        }
    }
    grad
}

/// `∂|h|²/∂φ_e = 2·Re(conj(h)·j·r_e·∂h/∂r_e)` for every element of
/// `surface`, evaluating the link itself.
fn grad_power_wrt_phase(lin: &Linearization, surface: usize, responses: &[&[Complex]]) -> Vec<f64> {
    let h = lin.evaluate(responses);
    let dh = d_dresponse(lin, surface, responses);
    responses[surface]
        .iter()
        .zip(dh)
        .map(|(r, d)| {
            let dphi = Complex::J * *r * d;
            2.0 * (h.conj() * dphi).re
        })
        .collect()
}

/// Adds `factor · ∂|h|²/∂φ` of one link to `grads`, for the surfaces in
/// `surfaces`.
fn add_link(
    grads: &mut [Vec<f64>],
    lin: &Linearization,
    factor: f64,
    surfaces: impl Iterator<Item = usize>,
    slices: &[&[Complex]],
) {
    for s in surfaces {
        for (g, d) in grads[s]
            .iter_mut()
            .zip(grad_power_wrt_phase(lin, s, slices))
        {
            *g += factor * d;
        }
    }
}

/// Coverage: links that involve a surface add to it, in link order.
pub(crate) fn coverage_grad(obj: &CoverageObjective, responses: &[Vec<Complex>]) -> Vec<Vec<f64>> {
    let slices = as_slices(responses);
    let mut grads = zero_grads(responses);
    for l in &obj.links {
        let snr = l.evaluate(&slices).norm_sqr() * obj.snr_scale;
        let factor = -obj.snr_scale / ((1.0 + snr) * std::f64::consts::LN_2);
        let touching = (0..responses.len()).filter(|&s| {
            l.linear.iter().any(|t| t.surface == s)
                || l.bilinear.iter().any(|b| b.first == s || b.second == s)
        });
        add_link(&mut grads, l, factor, touching, &slices);
    }
    grads
}

/// Suppression: every unsaturated link adds to every surface.
pub(crate) fn suppression_grad(
    obj: &SuppressionObjective,
    responses: &[Vec<Complex>],
) -> Vec<Vec<f64>> {
    let slices = as_slices(responses);
    let mut grads = zero_grads(responses);
    for l in &obj.leaks {
        let p = l.evaluate(&slices).norm_sqr();
        if p <= obj.floor {
            continue;
        }
        add_link(
            &mut grads,
            l,
            1.0 / (p + 1e-30),
            0..responses.len(),
            &slices,
        );
    }
    grads
}

/// Powering: the one link adds to every surface.
pub(crate) fn powering_grad(obj: &PoweringObjective, responses: &[Vec<Complex>]) -> Vec<Vec<f64>> {
    let slices = as_slices(responses);
    let mut grads = zero_grads(responses);
    let p = obj.link.evaluate(&slices).norm_sqr();
    add_link(
        &mut grads,
        &obj.link,
        -1.0 / (p + 1e-30),
        0..responses.len(),
        &slices,
    );
    grads
}

/// One probe's AoA cross-entropy gradient, element by element over all
/// bins (the bin statistics evaluated again).
fn aoa_grad_phase(p: &AoaLinearization, r: &[Complex]) -> Vec<f64> {
    let z: Vec<Complex> = p.bin_weights.iter().map(|w| dot(w, r)).collect();
    let total: f64 = z.iter().map(|zi| zi.norm_sqr()).sum();
    let zt = z[p.true_bin];
    let zt_sq = zt.norm_sqr().max(1e-300);
    let total = total.max(1e-300);
    (0..r.len())
        .map(|e| {
            let mut sum_all = 0.0;
            for (i, zi) in z.iter().enumerate() {
                sum_all += 2.0 * (zi.conj() * Complex::J * p.bin_weights[i][e] * r[e]).re;
            }
            let d_true = 2.0 * (zt.conj() * Complex::J * p.bin_weights[p.true_bin][e] * r[e]).re;
            -d_true / zt_sq + sum_all / total
        })
        .collect()
}

/// Localization: per-probe gradients over `n`, summed in probe order.
pub(crate) fn localization_grad(
    obj: &LocalizationObjective,
    responses: &[Vec<Complex>],
) -> Vec<Vec<f64>> {
    let r = &responses[obj.surface];
    let n = obj.probes.len() as f64;
    let mut grads = zero_grads(responses);
    for p in &obj.probes {
        for (g, d) in grads[obj.surface].iter_mut().zip(aoa_grad_phase(p, r)) {
            *g += d / n;
        }
    }
    grads
}
