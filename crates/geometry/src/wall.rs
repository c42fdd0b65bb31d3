//! Vertical wall panels and segment intersection.
//!
//! A [`Wall`] is a vertical rectangle: a 2-D segment in plan view extruded
//! from `z = 0` up to `height`. Ray–wall intersection is computed exactly:
//! the 2-D segment crossing is found in the plan view, then the z of the
//! 3-D ray at that parameter is checked against the wall's height.

use crate::bvh::Aabb;
use crate::vec3::Vec3;

use crate::material::Material;

/// Endpoint-graze exclusion distance in metres: segment endpoints within
/// this of a wall plane do not count as crossings (devices mounted on a
/// wall must see through their own wall).
const GRAZE_MARGIN_M: f64 = 1e-3;

/// A vertical wall panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// One end of the wall's footprint (z is ignored; the wall starts at 0).
    pub a: Vec3,
    /// Other end of the footprint.
    pub b: Vec3,
    /// Wall height in metres.
    pub height: f64,
    /// Construction material.
    pub material: Material,
}

/// An intersection between a ray segment and a wall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WallHit {
    /// Parameter along the ray segment (0 at origin, 1 at destination).
    pub t: f64,
    /// The 3-D intersection point.
    pub point: Vec3,
}

impl Wall {
    /// Creates a wall from two footprint endpoints, a height and a material.
    ///
    /// # Panics
    /// Panics on a degenerate (zero-length) footprint or non-positive height.
    pub fn new(a: Vec3, b: Vec3, height: f64, material: Material) -> Self {
        assert!(
            (a.flat() - b.flat()).norm() > 1e-9,
            "wall footprint is degenerate"
        );
        assert!(height > 0.0, "wall height must be positive");
        Wall {
            a: a.flat(),
            b: b.flat(),
            height,
            material,
        }
    }

    /// Wall footprint length in metres.
    pub fn length(&self) -> f64 {
        (self.b - self.a).norm()
    }

    /// The outward unit normal of the wall plane in plan view (one of the
    /// two; the sign is arbitrary but consistent).
    pub fn normal(&self) -> Vec3 {
        let d = (self.b - self.a).normalized();
        Vec3::new(-d.y, d.x, 0.0)
    }

    /// The midpoint of the wall footprint at half height — a convenient
    /// mounting anchor for surfaces.
    pub fn center(&self) -> Vec3 {
        let mid = self.a.lerp(self.b, 0.5);
        Vec3::new(mid.x, mid.y, self.height / 2.0)
    }

    /// The wall's bounding box: footprint extent × `[0, height]`, untight
    /// by nothing — callers pad it (see [`Aabb::grown`]) to cover the
    /// graze-margin overhang `intersect_segment` allows on `u`.
    pub fn aabb(&self) -> Aabb {
        let lo = self.a.min(self.b);
        let hi = self.a.max(self.b);
        Aabb::new(
            Vec3::new(lo.x, lo.y, 0.0),
            Vec3::new(hi.x, hi.y, self.height),
        )
    }

    /// The endpoint-graze margin on the wall parameter `u` (1 mm normalized
    /// by footprint length). Constant per wall — spatial indexes precompute
    /// it so candidate tests skip the square root.
    pub fn u_margin(&self) -> f64 {
        GRAZE_MARGIN_M / (self.b - self.a).norm().max(1e-9)
    }

    /// The endpoint-graze margin on the ray parameter `t` (1 mm normalized
    /// by plan-view segment length). Constant per segment — computed once
    /// per query when testing many walls.
    pub fn t_margin(from: Vec3, to: Vec3) -> f64 {
        GRAZE_MARGIN_M / (to.flat() - from.flat()).norm().max(1e-9)
    }

    /// Tests whether the open segment `from → to` crosses this wall, and if
    /// so where.
    ///
    /// Endpoints *on* the wall (within 1 mm) do not count as crossings —
    /// a transmitter or surface mounted on a wall must not be considered
    /// blocked by its own mounting wall.
    pub fn intersect_segment(&self, from: Vec3, to: Vec3) -> Option<WallHit> {
        self.intersect_segment_impl(from, to, None)
    }

    /// [`Wall::intersect_segment`] with the graze margins supplied by the
    /// caller (see [`Wall::t_margin`] / [`Wall::u_margin`]). Passing the
    /// margins those methods compute yields bit-identical results while
    /// hoisting both square roots out of per-wall inner loops.
    pub fn intersect_segment_with_margins(
        &self,
        from: Vec3,
        to: Vec3,
        t_margin: f64,
        u_margin: f64,
    ) -> Option<WallHit> {
        self.intersect_segment_impl(from, to, Some((t_margin, u_margin)))
    }

    fn intersect_segment_impl(
        &self,
        from: Vec3,
        to: Vec3,
        margins: Option<(f64, f64)>,
    ) -> Option<WallHit> {
        // 2-D segment intersection in plan view.
        let p = from.flat();
        let r = to.flat() - p;
        let q = self.a;
        let s = self.b - q;

        let rxs = r.x * s.y - r.y * s.x;
        if rxs.abs() < 1e-12 {
            return None; // parallel or colinear: treat as no crossing
        }
        let qp = q - p;
        let t = (qp.x * s.y - qp.y * s.x) / rxs;
        let u = (qp.x * r.y - qp.y * r.x) / rxs;

        // Margins: exclude endpoint grazes (1 mm normalized against segment
        // lengths) so devices mounted on walls see through their own wall.
        let (t_margin, u_margin) = match margins {
            Some(m) => m,
            None => (Self::t_margin(from, to), self.u_margin()),
        };
        if t <= t_margin || t >= 1.0 - t_margin {
            return None;
        }
        if !(u >= -u_margin && u <= 1.0 + u_margin) {
            return None;
        }

        // Height check on the true 3-D ray.
        let z = from.z + (to.z - from.z) * t;
        if z < 0.0 || z > self.height {
            return None;
        }

        let point = from.lerp(to, t);
        Some(WallHit { t, point })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn wall() -> Wall {
        Wall::new(
            Vec3::xy(0.0, 0.0),
            Vec3::xy(4.0, 0.0),
            3.0,
            Material::Drywall,
        )
    }

    #[test]
    fn crossing_detected() {
        let w = wall();
        let hit = w
            .intersect_segment(Vec3::new(2.0, -1.0, 1.5), Vec3::new(2.0, 1.0, 1.5))
            .expect("must hit");
        assert!((hit.t - 0.5).abs() < 1e-9);
        assert!((hit.point - Vec3::new(2.0, 0.0, 1.5)).norm() < 1e-9);
    }

    #[test]
    fn parallel_misses() {
        let w = wall();
        assert!(w
            .intersect_segment(Vec3::new(0.0, 1.0, 1.0), Vec3::new(4.0, 1.0, 1.0))
            .is_none());
    }

    #[test]
    fn beyond_footprint_misses() {
        let w = wall();
        assert!(w
            .intersect_segment(Vec3::new(5.0, -1.0, 1.0), Vec3::new(5.0, 1.0, 1.0))
            .is_none());
    }

    #[test]
    fn over_the_wall_misses() {
        let w = wall(); // 3 m tall
        assert!(w
            .intersect_segment(Vec3::new(2.0, -1.0, 4.0), Vec3::new(2.0, 1.0, 4.0))
            .is_none());
        // A slanted ray whose crossing point is above the top of the wall.
        assert!(w
            .intersect_segment(Vec3::new(2.0, -0.1, 3.2), Vec3::new(2.0, 1.9, 5.2))
            .is_none());
    }

    #[test]
    fn endpoint_on_wall_does_not_count() {
        let w = wall();
        // Transmitter mounted exactly on the wall plane.
        let on_wall = Vec3::new(2.0, 0.0, 1.5);
        assert!(w
            .intersect_segment(on_wall, Vec3::new(2.0, 2.0, 1.5))
            .is_none());
        assert!(w
            .intersect_segment(Vec3::new(2.0, -2.0, 1.5), on_wall)
            .is_none());
    }

    #[test]
    fn slanted_ray_height_interpolated() {
        let w = wall();
        // Ray rises from 0.5 to 2.5; crosses wall plane at z=1.5, inside.
        assert!(w
            .intersect_segment(Vec3::new(2.0, -1.0, 0.5), Vec3::new(2.0, 1.0, 2.5))
            .is_some());
    }

    #[test]
    fn normal_is_unit_and_perpendicular() {
        let w = Wall::new(
            Vec3::xy(1.0, 1.0),
            Vec3::xy(3.0, 4.0),
            2.5,
            Material::Concrete,
        );
        let n = w.normal();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        assert!(n.dot(w.b - w.a).abs() < 1e-12);
    }

    #[test]
    fn center_is_midpoint_half_height() {
        let w = wall();
        assert!((w.center() - Vec3::new(2.0, 0.0, 1.5)).norm() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_wall_rejected() {
        let _ = Wall::new(Vec3::xy(1.0, 1.0), Vec3::xy(1.0, 1.0), 3.0, Material::Wood);
    }

    proptest! {
        #[test]
        fn prop_hit_point_is_on_wall_plane(
            y0 in -5.0..-0.1f64, y1 in 0.1..5.0f64, x in 0.2..3.8f64,
            z0 in 0.1..2.9f64, z1 in 0.1..2.9f64,
        ) {
            let w = wall();
            let from = Vec3::new(x, y0, z0);
            let to = Vec3::new(x, y1, z1);
            let hit = w.intersect_segment(from, to);
            prop_assert!(hit.is_some());
            let h = hit.unwrap();
            prop_assert!(h.point.y.abs() < 1e-9);
            prop_assert!(h.point.z >= 0.0 && h.point.z <= 3.0);
            prop_assert!(h.t > 0.0 && h.t < 1.0);
        }
    }
}
