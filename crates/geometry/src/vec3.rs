//! 3-D vector math.
//!
//! A deliberately small, fully-tested vector type. SurfOS only needs the
//! operations ray tracing and frame transforms use; anything fancier would
//! be an invitation for unused, untested surface area.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point or direction in 3-D space, metres.
///
/// Convention throughout SurfOS: x–y is the floor plane, +z is up.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component (metres).
    pub x: f64,
    /// Y component (metres).
    pub y: f64,
    /// Z component (metres), up.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector / world origin.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit x.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit y.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit z (up).
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// A point on the floor plane (`z = 0`).
    #[inline]
    pub const fn xy(x: f64, y: f64) -> Self {
        Vec3 { x, y, z: 0.0 }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared length (cheaper; no square root).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, o: Vec3) -> f64 {
        (self - o).norm()
    }

    /// Returns the unit vector in this direction.
    ///
    /// # Panics
    /// Panics on the (numerically) zero vector — a zero direction is always
    /// a logic bug upstream, never a valid geometry.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        assert!(n > 1e-12, "cannot normalize a zero vector");
        self / n
    }

    /// Linear interpolation: `self` at `t = 0`, `o` at `t = 1`.
    #[inline]
    pub fn lerp(self, o: Vec3, t: f64) -> Vec3 {
        self + (o - self) * t
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Projection of this point onto the floor plane (`z = 0`).
    #[inline]
    pub fn flat(self) -> Vec3 {
        Vec3::new(self.x, self.y, 0.0)
    }

    /// Returns `true` if any component is NaN or infinite.
    #[inline]
    pub fn is_invalid(self) -> bool {
        !(self.x.is_finite() && self.y.is_finite() && self.z.is_finite())
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, k: f64) -> Vec3 {
        Vec3::new(self.x / k, self.y / k, self.z / k)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl std::fmt::Display for Vec3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_and_cross() {
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn norm_and_distance() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert!((Vec3::ZERO.distance(v) - 5.0).abs() < 1e-12);
        assert!((v.norm_sqr() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_is_unit() {
        let v = Vec3::new(2.0, -7.0, 0.5).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot normalize a zero vector")]
    fn normalize_zero_rejected() {
        let _ = Vec3::ZERO.normalized();
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn flat_zeroes_z() {
        assert_eq!(Vec3::new(1.0, 2.0, 3.0).flat(), Vec3::new(1.0, 2.0, 0.0));
    }

    #[test]
    fn invalid_detection() {
        assert!(Vec3::new(f64::NAN, 0.0, 0.0).is_invalid());
        assert!(!Vec3::new(1.0, 2.0, 3.0).is_invalid());
    }

    proptest! {
        #[test]
        fn prop_cross_orthogonal(
            ax in -10.0..10.0f64, ay in -10.0..10.0f64, az in -10.0..10.0f64,
            bx in -10.0..10.0f64, by in -10.0..10.0f64, bz in -10.0..10.0f64,
        ) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            let c = a.cross(b);
            prop_assert!(c.dot(a).abs() < 1e-6);
            prop_assert!(c.dot(b).abs() < 1e-6);
        }

        #[test]
        fn prop_triangle_inequality(
            ax in -10.0..10.0f64, ay in -10.0..10.0f64, az in -10.0..10.0f64,
            bx in -10.0..10.0f64, by in -10.0..10.0f64, bz in -10.0..10.0f64,
        ) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
        }
    }
}
