//! Environment dynamics: the uncontrollable events surfaces must adapt to.
//!
//! The paper's core argument for an OS-like *runtime* (Section 5) is that
//! the radio environment changes underneath the surfaces — people walk,
//! furniture moves — and a compile-time library cannot react. This module
//! models those events: cylindrical [`Blocker`]s (人 ≈ a lossy cylinder)
//! and scripted [`BlockerWalk`] trajectories the kernel replays in
//! discrete time.

use surfos_em::band::Band;
use surfos_geometry::bvh::Aabb;
use surfos_geometry::{Material, Vec3};

/// A dynamic obstruction, modelled as a vertical lossy cylinder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blocker {
    /// Centre of the cylinder footprint.
    pub position: Vec3,
    /// Footprint radius in metres.
    pub radius: f64,
    /// Height in metres.
    pub height: f64,
    /// What the blocker is made of (humans by default).
    pub material: Material,
}

impl Blocker {
    /// A standing adult: 0.25 m radius, 1.8 m tall, human-body losses.
    pub fn person(position: Vec3) -> Self {
        Blocker {
            position: position.flat(),
            radius: 0.25,
            height: 1.8,
            material: Material::HumanBody,
        }
    }

    /// Does the segment pass through the cylinder?
    ///
    /// Checked in plan view (distance from the 2-D segment to the centre
    /// below the radius) with a height test at the closest approach.
    pub fn intersects(&self, from: Vec3, to: Vec3) -> bool {
        let p = self.position.flat();
        let a = from.flat();
        let b = to.flat();
        let ab = b - a;
        let len_sq = ab.norm_sqr();
        let t = if len_sq < 1e-12 {
            0.0
        } else {
            ((p - a).dot(ab) / len_sq).clamp(0.0, 1.0)
        };
        let closest = a.lerp(b, t);
        if closest.distance(p) > self.radius {
            return false;
        }
        // Height of the 3-D ray at that parameter.
        let z = from.z + (to.z - from.z) * t;
        (0.0..=self.height).contains(&z)
    }

    /// The cylinder's bounding box (footprint square × `[0, height]`).
    /// Callers pad it before conservative culling; [`Blocker::intersects`]
    /// accepts closest approaches exactly at `radius`, which lies on the
    /// unpadded box faces.
    pub fn aabb(&self) -> Aabb {
        let r = Vec3::new(self.radius, self.radius, 0.0);
        Aabb::new(
            self.position.flat() - r,
            self.position.flat() + r + Vec3::new(0.0, 0.0, self.height),
        )
    }

    /// Amplitude transmission factor for a segment: 1 when missed, the
    /// material's penetration factor when crossed.
    pub fn transmission_amplitude(&self, from: Vec3, to: Vec3, band: &Band) -> f64 {
        if self.intersects(from, to) {
            self.material.transmission_amplitude(band)
        } else {
            1.0
        }
    }
}

/// A scripted walking trajectory: piecewise-linear waypoints at a constant
/// speed, looping. Deterministic so experiments replay identically.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockerWalk {
    /// Waypoints of the walk (plan view).
    pub waypoints: Vec<Vec3>,
    /// Walking speed in metres/second.
    pub speed_mps: f64,
}

impl BlockerWalk {
    /// Creates a looping walk.
    ///
    /// # Panics
    /// Panics with fewer than 2 waypoints or non-positive speed.
    pub fn new(waypoints: Vec<Vec3>, speed_mps: f64) -> Self {
        assert!(waypoints.len() >= 2, "a walk needs at least two waypoints");
        assert!(speed_mps > 0.0, "walking speed must be positive");
        BlockerWalk {
            waypoints: waypoints.into_iter().map(|w| w.flat()).collect(),
            speed_mps,
        }
    }

    /// Total loop length in metres (closing the polygon).
    pub fn loop_length(&self) -> f64 {
        let n = self.waypoints.len();
        (0..n)
            .map(|i| self.waypoints[i].distance(self.waypoints[(i + 1) % n]))
            .sum()
    }

    /// Position at time `t_s` seconds into the walk.
    pub fn position_at(&self, t_s: f64) -> Vec3 {
        let total = self.loop_length();
        let mut dist = (t_s.max(0.0) * self.speed_mps) % total;
        let n = self.waypoints.len();
        for i in 0..n {
            let a = self.waypoints[i];
            let b = self.waypoints[(i + 1) % n];
            let seg = a.distance(b);
            if dist <= seg {
                return a.lerp(b, if seg < 1e-12 { 0.0 } else { dist / seg });
            }
            dist -= seg;
        }
        self.waypoints[0]
    }

    /// The blocker (a person) at time `t_s`.
    pub fn blocker_at(&self, t_s: f64) -> Blocker {
        Blocker::person(self.position_at(t_s))
    }

    /// A single-file crowd on the walk: `count` people, each trailing the
    /// previous by `spacing_s` seconds along the same loop. The standard
    /// multi-blocker load for the walk-replay benchmarks.
    pub fn crowd_at(&self, t_s: f64, count: usize, spacing_s: f64) -> Vec<Blocker> {
        (0..count)
            .map(|i| self.blocker_at(t_s + i as f64 * spacing_s))
            .collect()
    }
}

/// An environment event the kernel's runtime loop reacts to.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvironmentEvent {
    /// A blocker appeared or moved.
    BlockerMoved {
        /// Which blocker (index into the simulator's blocker list).
        index: usize,
        /// New position.
        position: Vec3,
    },
    /// A blocker left the environment.
    BlockerRemoved {
        /// Which blocker.
        index: usize,
    },
    /// An endpoint moved (user mobility).
    EndpointMoved {
        /// Endpoint id.
        id: String,
        /// New position.
        position: Vec3,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfos_em::band::NamedBand;

    #[test]
    fn person_blocks_crossing_ray() {
        let b = Blocker::person(Vec3::xy(2.0, 0.0));
        assert!(b.intersects(Vec3::new(0.0, 0.0, 1.2), Vec3::new(4.0, 0.0, 1.2)));
        assert!(!b.intersects(Vec3::new(0.0, 1.0, 1.2), Vec3::new(4.0, 1.0, 1.2)));
    }

    #[test]
    fn ray_over_head_misses() {
        let b = Blocker::person(Vec3::xy(2.0, 0.0)); // 1.8 m tall
        assert!(!b.intersects(Vec3::new(0.0, 0.0, 2.5), Vec3::new(4.0, 0.0, 2.5)));
    }

    #[test]
    fn grazing_within_radius_blocks() {
        let b = Blocker::person(Vec3::xy(2.0, 0.2)); // radius 0.25
        assert!(b.intersects(Vec3::new(0.0, 0.0, 1.0), Vec3::new(4.0, 0.0, 1.0)));
    }

    #[test]
    fn transmission_factor_mmwave_severe() {
        let b = Blocker::person(Vec3::xy(2.0, 0.0));
        let band = NamedBand::MmWave60GHz.band();
        let t = b.transmission_amplitude(Vec3::new(0.0, 0.0, 1.0), Vec3::new(4.0, 0.0, 1.0), &band);
        assert!(t < 0.1); // 25 dB power => ~0.056 amplitude
        let miss =
            b.transmission_amplitude(Vec3::new(0.0, 2.0, 1.0), Vec3::new(4.0, 2.0, 1.0), &band);
        assert_eq!(miss, 1.0);
    }

    #[test]
    fn walk_visits_waypoints_in_order() {
        let walk = BlockerWalk::new(vec![Vec3::xy(0.0, 0.0), Vec3::xy(4.0, 0.0)], 1.0);
        // Loop: 0,0 -> 4,0 -> back. Loop length 8.
        assert!((walk.loop_length() - 8.0).abs() < 1e-12);
        assert!((walk.position_at(0.0) - Vec3::xy(0.0, 0.0)).norm() < 1e-9);
        assert!((walk.position_at(2.0) - Vec3::xy(2.0, 0.0)).norm() < 1e-9);
        assert!((walk.position_at(4.0) - Vec3::xy(4.0, 0.0)).norm() < 1e-9);
        // Past the far end it walks back.
        assert!((walk.position_at(6.0) - Vec3::xy(2.0, 0.0)).norm() < 1e-9);
        // Loops.
        assert!((walk.position_at(8.0) - Vec3::xy(0.0, 0.0)).norm() < 1e-9);
        assert!((walk.position_at(10.0) - walk.position_at(2.0)).norm() < 1e-9);
    }

    #[test]
    fn walk_is_deterministic() {
        let w1 = BlockerWalk::new(vec![Vec3::xy(0.0, 0.0), Vec3::xy(1.0, 3.0)], 0.7);
        let w2 = w1.clone();
        for k in 0..20 {
            let t = k as f64 * 0.37;
            assert_eq!(w1.position_at(t), w2.position_at(t));
        }
    }

    #[test]
    #[should_panic(expected = "at least two waypoints")]
    fn single_waypoint_rejected() {
        let _ = BlockerWalk::new(vec![Vec3::ZERO], 1.0);
    }

    #[test]
    fn crowd_trails_the_lead_walker() {
        let walk = BlockerWalk::new(vec![Vec3::xy(0.0, 0.0), Vec3::xy(4.0, 0.0)], 1.0);
        let crowd = walk.crowd_at(3.0, 3, 0.5);
        assert_eq!(crowd.len(), 3);
        for (i, b) in crowd.iter().enumerate() {
            assert_eq!(b.position, walk.position_at(3.0 + i as f64 * 0.5));
        }
    }
}
