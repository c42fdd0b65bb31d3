//! Minimal, dependency-free complex arithmetic.
//!
//! SurfOS works with narrowband channel coefficients, which are complex
//! phasors. Rather than pull in a numerics crate we provide the small,
//! fully-tested subset of complex arithmetic the system needs. The type is
//! `Copy` and all operations are branch-free so channel-simulation inner
//! loops stay cheap.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// ```
/// use surfos_em::complex::Complex;
///
/// // Coherent combining: aligning a coefficient's phase maximizes |sum|.
/// let coeff = Complex::from_polar(0.5, 1.2);
/// let aligned = coeff * Complex::cis(-coeff.arg());
/// assert!((aligned.arg()).abs() < 1e-12);
/// assert!((aligned.abs() - 0.5).abs() < 1e-12);
/// ```
///
/// Represents narrowband channel coefficients, per-element scattering
/// responses and beamforming weights throughout SurfOS.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity, `0 + 0j`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0j`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1j`.
    pub const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a complex number from polar form: `r * e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Returns `e^{jθ}`: a unit phasor with phase `theta` radians.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// The complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude. Cheaper than [`abs`](Self::abs) — no square root.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns `true` if either component is NaN or infinite.
    #[inline]
    pub fn is_invalid(self) -> bool {
        !self.re.is_finite() || !self.im.is_finite()
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}j", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}j", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex::new(1.5, -2.5);
        let b = Complex::new(-0.25, 4.0);
        assert!(close(a + b - b, a));
    }

    #[test]
    fn mul_matches_polar() {
        let a = Complex::from_polar(2.0, 0.3);
        let b = Complex::from_polar(3.0, -1.1);
        let p = a * b;
        assert!((p.abs() - 6.0).abs() < EPS);
        assert!((p.arg() - (0.3 - 1.1)).abs() < 1e-9);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(3.0, -1.0);
        let b = Complex::new(0.5, 2.0);
        assert!(close(a * b / b, a));
    }

    #[test]
    fn conjugate_properties() {
        let a = Complex::new(1.0, 2.0);
        assert_eq!(a.conj().conj(), a);
        assert!(((a * a.conj()).re - a.norm_sqr()).abs() < EPS);
        assert!((a * a.conj()).im.abs() < EPS);
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..32 {
            let theta = k as f64 * 0.41;
            assert!((Complex::cis(theta).abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn arg_of_axes() {
        assert!((Complex::new(1.0, 0.0).arg() - 0.0).abs() < EPS);
        assert!((Complex::new(0.0, 1.0).arg() - std::f64::consts::FRAC_PI_2).abs() < EPS);
        assert!((Complex::new(-1.0, 0.0).arg() - std::f64::consts::PI).abs() < EPS);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Complex = (0..10).map(|k| Complex::new(k as f64, 1.0)).sum();
        assert!(close(total, Complex::new(45.0, 10.0)));
    }

    #[test]
    fn invalid_detection() {
        assert!(Complex::new(f64::NAN, 0.0).is_invalid());
        assert!(Complex::new(0.0, f64::INFINITY).is_invalid());
        assert!(!Complex::new(1.0, -1.0).is_invalid());
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", Complex::new(1.0, -1.0)), "1.000000-1.000000j");
        assert_eq!(format!("{}", Complex::new(1.0, 1.0)), "1.000000+1.000000j");
    }

    proptest! {
        #[test]
        fn prop_abs_is_multiplicative(
            ar in -1e3..1e3f64, ai in -1e3..1e3f64,
            br in -1e3..1e3f64, bi in -1e3..1e3f64,
        ) {
            let a = Complex::new(ar, ai);
            let b = Complex::new(br, bi);
            let lhs = (a * b).abs();
            let rhs = a.abs() * b.abs();
            prop_assert!((lhs - rhs).abs() <= 1e-6 * (1.0 + rhs));
        }

        #[test]
        fn prop_polar_roundtrip(r in 0.001..1e3f64, theta in -3.1..3.1f64) {
            let c = Complex::from_polar(r, theta);
            prop_assert!((c.abs() - r).abs() < 1e-9 * (1.0 + r));
            prop_assert!((c.arg() - theta).abs() < 1e-9);
        }

        #[test]
        fn prop_distributive(
            ar in -1e2..1e2f64, ai in -1e2..1e2f64,
            br in -1e2..1e2f64, bi in -1e2..1e2f64,
            cr in -1e2..1e2f64, ci in -1e2..1e2f64,
        ) {
            let a = Complex::new(ar, ai);
            let b = Complex::new(br, bi);
            let c = Complex::new(cr, ci);
            let lhs = a * (b + c);
            let rhs = a * b + a * c;
            prop_assert!((lhs - rhs).abs() < 1e-6);
        }
    }
}
