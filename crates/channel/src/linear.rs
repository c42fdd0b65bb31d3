//! Channel linearization: the affine/bilinear form of a link's gain in the
//! deployed surfaces' element responses.
//!
//! For a fixed environment, the complex channel gain of a link is
//!
//! ```text
//! h(r) = c + Σ_s  a_s · r_s  +  Σ_(s,t)  (α · r_s)(β · r_t)
//! ```
//!
//! where `r_s` is surface `s`'s element-response vector, `c` collects the
//! surface-independent paths (direct + wall bounces), the linear terms are
//! single-bounce surface paths and the bilinear terms are two-hop cascades.
//!
//! The optimizer needs `h` and `∂h/∂φ` thousands of times per configuration
//! search; evaluating this form is `O(total elements)` with no ray tracing.

use surfos_em::complex::Complex;

/// A single-surface (linear) contribution: `Σ_e coeffs[e] · r[e]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearTerm {
    /// Index of the surface in the simulator's surface list.
    pub surface: usize,
    /// One coefficient per element (row-major, matching the surface).
    pub coeffs: Vec<Complex>,
}

/// A cascade (bilinear) contribution:
/// `(Σ_a alpha[a]·r_first[a]) · (Σ_b beta[b]·r_second[b])`.
#[derive(Debug, Clone, PartialEq)]
pub struct BilinearTerm {
    /// Index of the first-hop surface.
    pub first: usize,
    /// Coefficients over the first surface's elements.
    pub alpha: Vec<Complex>,
    /// Index of the second-hop surface.
    pub second: usize,
    /// Coefficients over the second surface's elements.
    pub beta: Vec<Complex>,
}

/// The full linearized channel of one (transmitter, receiver) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Linearization {
    /// Surface-independent gain (direct path + wall reflections).
    pub constant: Complex,
    /// Single-bounce surface contributions.
    pub linear: Vec<LinearTerm>,
    /// Two-hop cascade contributions.
    pub bilinear: Vec<BilinearTerm>,
}

fn dot(coeffs: &[Complex], response: &[Complex]) -> Complex {
    debug_assert_eq!(coeffs.len(), response.len());
    coeffs.iter().zip(response).map(|(c, r)| *c * *r).sum()
}

/// One link's gain at one configuration, with the partial sums
/// `(α·r_first, β·r_second)` of each cascade term in term order — what the
/// phase gradient needs from the evaluation ([`add_power_grad`]).
#[derive(Debug)]
pub struct LinkGain {
    /// The channel gain `h`, bit-identical to [`Linearization::evaluate`].
    pub h: Complex,
    cascades: Vec<(Complex, Complex)>,
}

/// Adds `factor · ∂|h|²/∂φ_e` of every `(link, gain, factor)` to `grad[k]`
/// for the elements `e = start + k` of `surface`, assuming elements keep
/// their magnitudes (pure phase control):
///
/// `∂|h|²/∂φ_e = 2·Re( conj(h) · j·r_e · ∂h/∂r_e )`
///
/// `response` holds the surface's responses over the same elements and
/// each `gain` is its link's [`Linearization::gain`] at the configuration.
/// Links that do not involve `surface` add nothing. Every element sums its
/// links in the order given, so splitting a surface into chunks, on any
/// threads, gives the bits of one serial link-order accumulation.
pub fn add_power_grad(
    links: &[(&Linearization, &LinkGain, f64)],
    surface: usize,
    start: usize,
    response: &[Complex],
    grad: &mut [f64],
) {
    assert_eq!(response.len(), grad.len(), "length mismatch");
    let end = start + grad.len();
    // `j·r_e·∂h/∂r_e` evaluates left to right, so `j·r_e` is shared by
    // every link without changing a bit.
    let jr: Vec<Complex> = response.iter().map(|r| Complex::J * *r).collect();
    let mut dh = vec![Complex::ZERO; grad.len()];
    for &(lin, gain, factor) in links {
        if !lin.touches(surface) {
            continue;
        }
        // ∂h/∂r_e: the linear coefficients, then each cascade's own
        // coefficient times the other hop's partial sum.
        dh.fill(Complex::ZERO);
        for t in lin.linear.iter().filter(|t| t.surface == surface) {
            for (d, c) in dh.iter_mut().zip(&t.coeffs[start..end]) {
                *d += *c;
            }
        }
        for (b, &(first, second)) in lin.bilinear.iter().zip(&gain.cascades) {
            if b.first == surface {
                for (d, a) in dh.iter_mut().zip(&b.alpha[start..end]) {
                    *d += *a * second;
                }
            }
            if b.second == surface {
                for (d, be) in dh.iter_mut().zip(&b.beta[start..end]) {
                    *d += *be * first;
                }
            }
        }
        let h_conj = gain.h.conj();
        for ((g, jr), d) in grad.iter_mut().zip(&jr).zip(&dh) {
            *g += factor * (2.0 * (h_conj * (*jr * *d)).re);
        }
    }
}

impl Linearization {
    /// A channel with no paths at all.
    pub fn dead() -> Self {
        Linearization {
            constant: Complex::ZERO,
            linear: Vec::new(),
            bilinear: Vec::new(),
        }
    }

    /// Evaluates the channel gain for the given per-surface responses.
    /// `responses[s]` must be surface `s`'s element-response slice.
    ///
    /// # Panics
    /// Panics (in debug builds) on length mismatches; the simulator
    /// constructs both sides so a mismatch is an internal bug.
    pub fn evaluate(&self, responses: &[&[Complex]]) -> Complex {
        self.evaluate_with(responses, |_| ())
    }

    /// [`evaluate`](Self::evaluate), keeping what [`add_power_grad`] needs
    /// to differentiate the gain without evaluating it again.
    pub fn gain(&self, responses: &[&[Complex]]) -> LinkGain {
        let mut cascades = Vec::with_capacity(self.bilinear.len());
        let h = self.evaluate_with(responses, |parts| cascades.push(parts));
        LinkGain { h, cascades }
    }

    /// The gain, handing each cascade's `(α·r_first, β·r_second)` to
    /// `cascade` in term order.
    fn evaluate_with(
        &self,
        responses: &[&[Complex]],
        mut cascade: impl FnMut((Complex, Complex)),
    ) -> Complex {
        let mut h = self.constant;
        for t in &self.linear {
            h += dot(&t.coeffs, responses[t.surface]);
        }
        for b in &self.bilinear {
            let first = dot(&b.alpha, responses[b.first]);
            let second = dot(&b.beta, responses[b.second]);
            cascade((first, second));
            h += first * second;
        }
        h
    }

    /// True if some linear or cascade term of this link involves `surface`.
    fn touches(&self, surface: usize) -> bool {
        self.linear.iter().any(|t| t.surface == surface)
            || self
                .bilinear
                .iter()
                .any(|b| b.first == surface || b.second == surface)
    }

    /// Returns true if no surface influences this link (constant channel).
    pub fn is_constant(&self) -> bool {
        self.linear.is_empty() && self.bilinear.is_empty()
    }

    /// Total number of coefficient entries (memory/diagnostic metric).
    pub fn coefficient_count(&self) -> usize {
        self.linear.iter().map(|t| t.coeffs.len()).sum::<usize>()
            + self
                .bilinear
                .iter()
                .map(|b| b.alpha.len() + b.beta.len())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases_to_resp(phases: &[f64]) -> Vec<Complex> {
        phases.iter().map(|&p| Complex::cis(p)).collect()
    }

    fn example() -> Linearization {
        Linearization {
            constant: Complex::new(0.1, -0.2),
            linear: vec![LinearTerm {
                surface: 0,
                coeffs: vec![Complex::new(0.3, 0.1), Complex::new(-0.2, 0.4)],
            }],
            bilinear: vec![BilinearTerm {
                first: 0,
                alpha: vec![Complex::new(0.05, 0.0), Complex::new(0.0, 0.07)],
                second: 1,
                beta: vec![Complex::new(0.1, 0.1)],
            }],
        }
    }

    #[test]
    fn evaluate_matches_manual_expansion() {
        let lin = example();
        let r0 = phases_to_resp(&[0.5, -1.0]);
        let r1 = phases_to_resp(&[2.0]);
        let got = lin.evaluate(&[&r0, &r1]);
        let want = lin.constant
            + lin.linear[0].coeffs[0] * r0[0]
            + lin.linear[0].coeffs[1] * r0[1]
            + (lin.bilinear[0].alpha[0] * r0[0] + lin.bilinear[0].alpha[1] * r0[1])
                * (lin.bilinear[0].beta[0] * r1[0]);
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn dead_channel_evaluates_to_zero() {
        let lin = Linearization::dead();
        assert_eq!(lin.evaluate(&[]), Complex::ZERO);
        assert!(lin.is_constant());
    }

    /// `Σ_l factor_l · ∂|h_l|²/∂φ` of surface `surface` over all its elements.
    fn power_grad(links: &[(&Linearization, f64)], surface: usize, r: &[&[Complex]]) -> Vec<f64> {
        let gains: Vec<LinkGain> = links.iter().map(|(l, _)| l.gain(r)).collect();
        let weighted: Vec<_> = links
            .iter()
            .zip(&gains)
            .map(|(&(l, f), g)| (l, g, f))
            .collect();
        let mut grad = vec![0.0; r[surface].len()];
        add_power_grad(&weighted, surface, 0, r[surface], &mut grad);
        grad
    }

    #[test]
    fn gain_matches_evaluate() {
        let lin = example();
        let r0 = phases_to_resp(&[0.5, -1.0]);
        let r1 = phases_to_resp(&[2.0]);
        let gain = lin.gain(&[&r0, &r1]);
        assert_eq!(gain.h, lin.evaluate(&[&r0, &r1]));
        assert_eq!(gain.cascades.len(), 1);
        assert!(lin.touches(0) && lin.touches(1) && !lin.touches(2));
    }

    #[test]
    fn derivative_matches_finite_difference() {
        // A weighted sum over two links: the accumulated gradient matches
        // a finite difference of Σ factor·|h|², and element chunks give
        // the bits of one whole-surface pass.
        let lin = example();
        let mut other = example();
        other.constant = Complex::new(-0.3, 0.05);
        other.linear[0].coeffs[1] = Complex::new(0.1, -0.6);
        let links = [(&lin, 0.7), (&other, -1.3)];
        let phases0 = [0.5, -1.0];
        let r0 = phases_to_resp(&phases0);
        let r1 = phases_to_resp(&[2.0]);
        let r: [&[Complex]; 2] = [&r0, &r1];
        let grad = power_grad(&links, 0, &r);

        let gains: Vec<LinkGain> = links.iter().map(|(l, _)| l.gain(&r)).collect();
        let weighted: Vec<_> = links
            .iter()
            .zip(&gains)
            .map(|(&(l, f), g)| (l, g, f))
            .collect();
        let mut chunked = [0.0; 2];
        for e in 0..2 {
            add_power_grad(&weighted, 0, e, &r0[e..=e], &mut chunked[e..=e]);
        }
        assert_eq!(chunked[0].to_bits(), grad[0].to_bits());
        assert_eq!(chunked[1].to_bits(), grad[1].to_bits());

        let objective = |p0: &[f64]| {
            let r0 = phases_to_resp(p0);
            links
                .iter()
                .map(|(l, f)| f * l.evaluate(&[&r0, &r1]).norm_sqr())
                .sum::<f64>()
        };
        let eps = 1e-7;
        for e in 0..2 {
            let mut p = phases0;
            p[e] += eps;
            let fd = (objective(&p) - objective(&phases0)) / eps;
            assert!(
                (fd - grad[e]).abs() < 1e-5,
                "element {e}: fd={fd} grad={}",
                grad[e]
            );
        }
    }

    #[test]
    fn phase_gradient_matches_finite_difference() {
        let lin = example();
        let phases0 = [0.5, -1.0];
        let phases1 = [2.0];
        let r0 = phases_to_resp(&phases0);
        let r1 = phases_to_resp(&phases1);
        let grad = power_grad(&[(&lin, 1.0)], 0, &[&r0, &r1]);

        let power = |p0: &[f64]| {
            let r0 = phases_to_resp(p0);
            let r1 = phases_to_resp(&phases1);
            lin.evaluate(&[&r0, &r1]).norm_sqr()
        };
        let eps = 1e-7;
        for e in 0..2 {
            let mut p = phases0;
            p[e] += eps;
            let fd = (power(&p) - power(&phases0)) / eps;
            assert!(
                (fd - grad[e]).abs() < 1e-5,
                "element {e}: fd={fd} grad={}",
                grad[e]
            );
        }
    }

    #[test]
    fn second_surface_gradient_via_bilinear() {
        let lin = example();
        let r0 = phases_to_resp(&[0.5, -1.0]);
        let r1 = phases_to_resp(&[2.0]);
        let grad = power_grad(&[(&lin, 1.0)], 1, &[&r0, &r1]);
        // Only the bilinear term touches surface 1.
        let dh = (lin.bilinear[0].alpha[0] * r0[0] + lin.bilinear[0].alpha[1] * r0[1])
            * lin.bilinear[0].beta[0];
        let h = lin.evaluate(&[&r0, &r1]);
        let want = 2.0 * (h.conj() * Complex::J * r1[0] * dh).re;
        assert!((grad[0] - want).abs() < 1e-12);
    }

    #[test]
    fn coefficient_count() {
        assert_eq!(example().coefficient_count(), 2 + 2 + 1);
    }
}
