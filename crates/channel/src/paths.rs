//! Path tracing: enumerating propagation mechanisms into band-independent
//! geometric records, plus the reference per-band gain functions.
//!
//! Enumeration (`trace_*`) walks the environment once and captures each
//! path's geometry as a [`trace`](crate::trace) record; evaluation re-phases
//! those records at any band. The classic gain functions (`direct_gain`,
//! `wall_bounce_gain`, …) are thin wrappers — trace then evaluate at the
//! medium's own band — so there is exactly one implementation of the path
//! math.
//!
//! Every gain is an *amplitude* (field) gain including antenna pattern
//! factors, so `|h|²` is the power ratio between conducted transmit power
//! and received power.

use crate::dynamics::Blocker;
use crate::endpoint::Endpoint;
use crate::index::SceneIndex;
use crate::linear::LinearTerm;
use crate::surface::SurfaceInstance;
use crate::trace::{
    BounceTrace, CascadeTrace, ChannelTrace, DirectTrace, ElementLeg, SegmentTrace, SurfaceTrace,
};
use surfos_em::band::Band;
use surfos_em::complex::Complex;
use surfos_geometry::bvh::Aabb;
use surfos_geometry::reflect::specular_reflection;
use surfos_geometry::{FloorPlan, Vec3};

/// Padding for the aperture boxes [`Medium::new`] computes itself (the
/// indexed constructor reuses the scene index's, padded identically).
const APERTURE_AABB_PAD: f64 = 2e-3;

/// The propagation medium: static walls plus dynamic blockers, at one band.
///
/// Bundles everything path tracing needs to attenuate a ray segment. Build
/// it with [`Medium::new`] (brute scans — the reference the property tests
/// compare against) or [`Medium::with_index`] (conservative BVH/AABB culling
/// through a [`SceneIndex`]; bit-identical results). Both constructors
/// pre-filter the deployed surfaces down to the (usually empty) obstructing
/// subset and attach a padded aperture box to each, so per-segment scans
/// touch neither transparent surfaces nor far-away opaque ones.
#[derive(Debug, Clone)]
pub struct Medium<'a> {
    /// The static environment.
    pub plan: &'a FloorPlan,
    /// Dynamic obstructions (people, moved furniture).
    pub blockers: &'a [Blocker],
    /// The carrier band.
    pub band: Band,
    /// Deployed surfaces with `obstruction_amplitude < 1.0`, whose apertures
    /// attenuate *other* signals crossing them (off-band interaction, §2.1),
    /// each with a padded world box for a cheap conservative miss test. A
    /// surface never blocks its own scatter legs: those terminate on its
    /// plane. Kept in deployment order.
    obstructing: Vec<(&'a SurfaceInstance, Aabb)>,
    /// The scene's spatial index, when tracing through one.
    index: Option<&'a SceneIndex>,
}

impl<'a> Medium<'a> {
    /// Creates a medium, pre-filtering `surfaces` to the obstructing subset
    /// (each with a precomputed aperture box). All wall and blocker queries
    /// scan every primitive — this is the brute-force reference.
    pub fn new(
        plan: &'a FloorPlan,
        blockers: &'a [Blocker],
        surfaces: &'a [SurfaceInstance],
        band: Band,
    ) -> Self {
        Medium {
            plan,
            blockers,
            band,
            obstructing: surfaces
                .iter()
                .filter(|s| s.obstruction_amplitude < 1.0)
                .map(|s| (s, s.aperture_aabb().grown(APERTURE_AABB_PAD)))
                .collect(),
            index: None,
        }
    }

    /// Creates a medium that answers wall/blocker/surface queries through a
    /// [`SceneIndex`] built for exactly this `(plan, blockers, surfaces)`
    /// triple. Culling is conservative, so every answer is bit-identical to
    /// [`Medium::new`]'s.
    pub fn with_index(
        plan: &'a FloorPlan,
        blockers: &'a [Blocker],
        surfaces: &'a [SurfaceInstance],
        band: Band,
        index: &'a SceneIndex,
    ) -> Self {
        Medium {
            plan,
            blockers,
            band,
            obstructing: index
                .obstructing()
                .iter()
                .map(|&(i, aabb)| (&surfaces[i], aabb))
                .collect(),
            index: Some(index),
        }
    }

    /// Amplitude transmission factor along a segment:
    /// walls × blockers × crossing surfaces.
    pub fn transmission(&self, from: Vec3, to: Vec3) -> f64 {
        let walls = match self.index {
            Some(ix) => self
                .plan
                .transmission_amplitude_with(ix.walls(), from, to, &self.band),
            None => self.plan.transmission_amplitude(from, to, &self.band),
        };
        // The interval bank narrows the scan to a conservative candidate
        // superset; each survivor re-runs the exact box test, and skipping
        // an AABB-missed blocker drops an exact ×1.0 factor — so the
        // product is unchanged bit for bit (candidates arrive in blocker
        // order, preserving multiplication order too).
        let blockers: f64 = match self.index {
            Some(ix) => {
                let mut product = 1.0;
                ix.blocker_bank().for_each_candidate(from, to, |i| {
                    if ix.blocker_boxes()[i].intersects_segment(from, to) {
                        product *= self.blockers[i].transmission_amplitude(from, to, &self.band);
                    }
                });
                product
            }
            None => self
                .blockers
                .iter()
                .map(|b| b.transmission_amplitude(from, to, &self.band))
                .product(),
        };
        let surfaces = self.surface_obstruction(from, to);
        walls * blockers * surfaces
    }

    /// Amplitude factor of the obstructing apertures crossing the segment.
    /// With an index, the scan runs through the aperture interval bank
    /// (conservative candidates, exact survivor tests, deployment order) —
    /// bit-identical to the brute filter.
    fn surface_obstruction(&self, from: Vec3, to: Vec3) -> f64 {
        match self.index {
            Some(ix) => {
                let mut product = 1.0;
                ix.aperture_bank().for_each_candidate(from, to, |i| {
                    let (s, aabb) = &self.obstructing[i];
                    if aabb.intersects_segment(from, to) && s.intersects_segment(from, to) {
                        product *= s.obstruction_amplitude;
                    }
                });
                product
            }
            None => self
                .obstructing
                .iter()
                .filter(|(s, aabb)| {
                    aabb.intersects_segment(from, to) && s.intersects_segment(from, to)
                })
                .map(|(s, _)| s.obstruction_amplitude)
                .product(),
        }
    }

    /// The blocker materials crossing the segment, in blocker order. With
    /// an index, candidates come from the blocker interval bank; exact box
    /// and cylinder tests gate each survivor, so the collected list is
    /// bit-identical to the brute filter.
    fn blocker_crossings(&self, from: Vec3, to: Vec3) -> Vec<surfos_geometry::Material> {
        match self.index {
            Some(ix) => {
                let mut out = Vec::new();
                ix.blocker_bank().for_each_candidate(from, to, |i| {
                    let b = &self.blockers[i];
                    if ix.blocker_boxes()[i].intersects_segment(from, to) && b.intersects(from, to)
                    {
                        out.push(b.material);
                    }
                });
                out
            }
            None => self
                .blockers
                .iter()
                .filter(|b| b.intersects(from, to))
                .map(|b| b.material)
                .collect(),
        }
    }

    /// Enumerates a segment's obstructions into a band-independent record;
    /// [`SegmentTrace::transmission`] reproduces [`Self::transmission`] at
    /// any band.
    pub fn trace_segment(&self, from: Vec3, to: Vec3) -> SegmentTrace {
        let wall_materials = match self.index {
            Some(ix) => self.plan.crossings_with(ix.walls(), from, to),
            None => self.plan.crossings(from, to),
        }
        .into_iter()
        .map(|(_, m)| m)
        .collect();
        let blocker_materials = self.blocker_crossings(from, to);
        let surface_obstruction = self.surface_obstruction(from, to);
        SegmentTrace::new(
            from,
            to,
            wall_materials,
            blocker_materials,
            surface_obstruction,
        )
    }

    /// Batched [`Self::trace_segment`]: traces many segments in one call so
    /// the wall query runs through the BVH in SIMD packets
    /// ([`FloorPlan::crossings_batch`]) instead of one traversal per
    /// segment. Results are bit-identical to calling
    /// [`Self::trace_segment`] on each segment in order — the packet slab
    /// test is conservative and every candidate still goes through the
    /// exact scalar wall intersection.
    ///
    /// Without an index this degrades to the per-segment brute scan, which
    /// doubles as the reference arm the equivalence tests compare against.
    pub fn trace_segments(&self, segments: &[(Vec3, Vec3)]) -> Vec<SegmentTrace> {
        let Some(ix) = self.index else {
            return segments
                .iter()
                .map(|&(from, to)| self.trace_segment(from, to))
                .collect();
        };
        let wall_crossings = self.plan.crossings_batch(ix.walls(), segments);
        segments
            .iter()
            .zip(wall_crossings)
            .map(|(&(from, to), crossings)| {
                let wall_materials = crossings.into_iter().map(|(_, m)| m).collect();
                let blocker_materials = self.blocker_crossings(from, to);
                let surface_obstruction = self.surface_obstruction(from, to);
                SegmentTrace::new(
                    from,
                    to,
                    wall_materials,
                    blocker_materials,
                    surface_obstruction,
                )
            })
            .collect()
    }

    /// The cached world positions of surface `index`'s elements, when
    /// tracing through a scene index that still matches the surface.
    fn cached_elements(&self, index: usize, surface: &SurfaceInstance) -> Option<&'a [Vec3]> {
        self.index?.element_positions(index, surface)
    }

    /// Carrier wavelength shorthand.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.band.wavelength_m()
    }
}

/// Enumerates the direct path, or `None` for co-located endpoints (a dead
/// link rather than a singularity).
pub fn trace_direct(medium: &Medium, tx: &Endpoint, rx: &Endpoint) -> Option<DirectTrace> {
    let d = tx.position().distance(rx.position());
    if d < 1e-6 {
        return None;
    }
    let pat = tx.amplitude_gain_towards(rx.position()) * rx.amplitude_gain_towards(tx.position());
    let pol = (tx.polarization_rad - rx.polarization_rad).cos();
    Some(DirectTrace {
        d,
        pat_pol: pat * pol,
        segment: medium.trace_segment(tx.position(), rx.position()),
    })
}

/// Gain of the direct (possibly wall-penetrating) path.
pub fn direct_gain(medium: &Medium, tx: &Endpoint, rx: &Endpoint) -> Complex {
    match trace_direct(medium, tx, rx) {
        Some(t) => t.gain_at(&medium.band),
        None => Complex::ZERO,
    }
}

/// Enumerates all first-order specular wall reflections (image method),
/// in wall order.
pub fn trace_wall_bounces(medium: &Medium, tx: &Endpoint, rx: &Endpoint) -> Vec<BounceTrace> {
    // Pass 1: pure geometry — collect accepted specular reflections in
    // wall order.
    // With a scene index, a conservative SIMD prefilter
    // ([`WallIndex::specular_candidates`]) narrows the scan to walls whose
    // f32 uncertainty interval touches the acceptance window; survivors
    // run the exact test in ascending wall order, so the accepted list is
    // identical to the brute scan's. Without an index, scan every wall.
    let walls = medium.plan.walls();
    let accepted: Vec<_> = match medium.index {
        Some(ix) => ix
            .walls()
            .specular_candidates(tx.position(), rx.position())
            .into_iter()
            .filter_map(|i| {
                let wall = &walls[i];
                specular_reflection(tx.position(), rx.position(), wall).map(|refl| (wall, refl))
            })
            .collect(),
        None => walls
            .iter()
            .filter_map(|wall| {
                specular_reflection(tx.position(), rx.position(), wall).map(|refl| (wall, refl))
            })
            .collect(),
    };
    // Pass 2: leg attenuation, batched as two coherent fans (tx → every
    // specular point, then every specular point → rx) so packet traversal
    // shares BVH nodes across lanes. The bounce wall itself is excluded
    // because the specular point lies on it (segment-endpoint margin).
    let mut segments = Vec::with_capacity(accepted.len() * 2);
    segments.extend(accepted.iter().map(|(_, refl)| (tx.position(), refl.point)));
    segments.extend(accepted.iter().map(|(_, refl)| (refl.point, rx.position())));
    let mut seg_in = medium.trace_segments(&segments);
    let seg_out = seg_in.split_off(accepted.len());
    let pol = (tx.polarization_rad - rx.polarization_rad).cos();
    accepted
        .into_iter()
        .zip(seg_in)
        .zip(seg_out)
        .map(|(((wall, refl), seg_in), seg_out)| BounceTrace {
            total_length: refl.total_length(),
            material: wall.material,
            pat: tx.amplitude_gain_towards(refl.point) * rx.amplitude_gain_towards(refl.point),
            pol,
            seg_in,
            seg_out,
        })
        .collect()
}

/// Summed gain of all first-order specular wall reflections.
///
/// The reflected amplitude decays over the unfolded path length `d1 + d2`,
/// scaled by the wall material's reflection coefficient. Each leg is
/// additionally attenuated by any *other* walls it crosses.
pub fn wall_bounce_gain(medium: &Medium, tx: &Endpoint, rx: &Endpoint) -> Complex {
    let mut total = Complex::ZERO;
    for bounce in trace_wall_bounces(medium, tx, rx) {
        total += bounce.gain_at(&medium.band);
    }
    total
}

/// Whether a surface can couple `tx` to `rx` given its operation mode and
/// which sides of its plane the endpoints sit on.
pub fn surface_serves(surface: &SurfaceInstance, tx: Vec3, rx: Vec3) -> bool {
    surface
        .mode
        .serves(surface.is_in_front(tx), surface.is_in_front(rx))
}

/// Enumerates a single-bounce surface path, or `None` when the surface
/// cannot serve this link geometrically. Band-dependent pruning (wall
/// burial, resonance detuning) happens at evaluation, not here — a path
/// negligible at one band may matter at another.
///
/// Per-element distances are exact; incidence/departure angles and wall
/// attenuation are evaluated once against the surface centre.
pub fn trace_surface(
    medium: &Medium,
    tx: &Endpoint,
    rx: &Endpoint,
    surface: &SurfaceInstance,
    index: usize,
) -> Option<SurfaceTrace> {
    if !surface_serves(surface, tx.position(), rx.position()) {
        return None;
    }
    let center = surface.pose.position;
    let ep_gain = tx.amplitude_gain_towards(center) * rx.amplitude_gain_towards(center);
    let pol = (tx.polarization_rad + surface.polarization_rot - rx.polarization_rad).cos();
    use surfos_em::antenna::Pattern;
    let th_in = surface.pose.off_boresight_angle(tx.position());
    let th_out = surface.pose.off_boresight_angle(rx.position());
    let elem_pat = surface.pattern.amplitude_gain(th_in) * surface.pattern.amplitude_gain(th_out);
    let leg = |p: Vec3| ElementLeg {
        d1: tx.position().distance(p),
        d2: p.distance(rx.position()),
    };
    let legs = match medium.cached_elements(index, surface) {
        Some(ps) => ps.iter().map(|&p| leg(p)).collect(),
        None => (0..surface.len())
            .map(|e| leg(surface.element_world_position(e)))
            .collect(),
    };
    // Both legs share one packet traversal; bit-identical to two scalar
    // traces.
    let mut legs2 = medium.trace_segments(&[(tx.position(), center), (center, rx.position())]);
    let seg_out = legs2.pop().expect("two segments traced");
    let seg_in = legs2.pop().expect("two segments traced");
    Some(SurfaceTrace {
        surface: index,
        seg_in,
        seg_out,
        ep_gain,
        pol,
        resonance: surface.resonance,
        area: surface.element_area_m2(),
        efficiency: surface.efficiency,
        elem_pat,
        legs,
    })
}

/// Per-element coefficients of a single-bounce surface path, or `None` when
/// the surface cannot serve this link (geometrically or at this band).
///
/// The channel contribution of the surface is `Σ_e coeffs[e] · r[e]` where
/// `r` is the programmed element response.
pub fn surface_coeffs(
    medium: &Medium,
    tx: &Endpoint,
    rx: &Endpoint,
    surface: &SurfaceInstance,
) -> Option<LinearTerm> {
    // usize::MAX marks "caller fills in the surface index".
    trace_surface(medium, tx, rx, surface, usize::MAX)?.linear_term_at(&medium.band)
}

/// Enumerates a two-hop cascade `tx → first → second → rx`, or `None` when
/// a geometric gate (serving sides, overlapping surfaces) fails.
///
/// Far-field factorization: the inter-surface hop is taken centre-to-centre
/// (distance `D`), while the outer legs keep exact per-element distances.
/// The cascade contribution is `(α·r_first)(β·r_second)` with the shared
/// `1/(4π·λ·D)` amplitude and `e^{-jkD}` hop phase folded into `α`.
pub fn trace_cascade(
    medium: &Medium,
    tx: &Endpoint,
    rx: &Endpoint,
    first: &SurfaceInstance,
    second: &SurfaceInstance,
    first_idx: usize,
    second_idx: usize,
) -> Option<CascadeTrace> {
    let c1 = first.pose.position;
    let c2 = second.pose.position;
    // Hop gating: first must couple tx → second's side, second must couple
    // first's side → rx.
    if !surface_serves(first, tx.position(), c2) {
        return None;
    }
    if !surface_serves(second, c1, rx.position()) {
        return None;
    }
    let d_hop = c1.distance(c2);
    if d_hop < 1e-3 {
        return None; // overlapping surfaces: not a physical cascade
    }
    use surfos_em::antenna::Pattern;

    // α side: tx → element a → (towards second's centre).
    let th_in1 = first.pose.off_boresight_angle(tx.position());
    let th_out1 = first.pose.off_boresight_angle(c2);
    let pat1 = first.pattern.amplitude_gain(th_in1) * first.pattern.amplitude_gain(th_out1);
    let alpha_leg = |p: Vec3| ElementLeg {
        d1: tx.position().distance(p),
        d2: p.distance(c2),
    };
    let alpha_legs = match medium.cached_elements(first_idx, first) {
        Some(ps) => ps.iter().map(|&p| alpha_leg(p)).collect(),
        None => (0..first.len())
            .map(|a| alpha_leg(first.element_world_position(a)))
            .collect(),
    };

    // β side: (from first's centre) → element b → rx.
    let th_in2 = second.pose.off_boresight_angle(c1);
    let th_out2 = second.pose.off_boresight_angle(rx.position());
    let pat2 = second.pattern.amplitude_gain(th_in2) * second.pattern.amplitude_gain(th_out2);
    let pol = (tx.polarization_rad + first.polarization_rot + second.polarization_rot
        - rx.polarization_rad)
        .cos();
    let beta_leg = |p: Vec3| ElementLeg {
        d1: c1.distance(p),
        d2: p.distance(rx.position()),
    };
    let beta_legs = match medium.cached_elements(second_idx, second) {
        Some(ps) => ps.iter().map(|&p| beta_leg(p)).collect(),
        None => (0..second.len())
            .map(|b| beta_leg(second.element_world_position(b)))
            .collect(),
    };

    // All three legs share one packet traversal; bit-identical to three
    // scalar traces.
    let mut legs3 = medium.trace_segments(&[(tx.position(), c1), (c1, c2), (c2, rx.position())]);
    let seg_out = legs3.pop().expect("three segments traced");
    let seg_hop = legs3.pop().expect("three segments traced");
    let seg_in = legs3.pop().expect("three segments traced");
    Some(CascadeTrace {
        first: first_idx,
        second: second_idx,
        seg_in,
        seg_hop,
        seg_out,
        d_hop,
        pat1,
        res1: first.resonance,
        area_eff1: first.element_area_m2() * first.efficiency,
        g_tx: tx.amplitude_gain_towards(c1),
        alpha_legs,
        pat2,
        res2: second.resonance,
        pol,
        area_eff2: second.element_area_m2() * second.efficiency,
        g_rx: rx.amplitude_gain_towards(c2),
        beta_legs,
    })
}

/// Coefficients of a two-hop cascade `tx → first → second → rx`, or `None`
/// when either hop is gated off.
pub fn cascade_coeffs(
    medium: &Medium,
    tx: &Endpoint,
    rx: &Endpoint,
    first: &SurfaceInstance,
    second: &SurfaceInstance,
) -> Option<(Vec<Complex>, Vec<Complex>)> {
    trace_cascade(medium, tx, rx, first, second, usize::MAX, usize::MAX)?.coeffs_at(&medium.band)
}

/// Enumerates every path of a link into one band-independent record.
/// `wall_reflections` / `cascades` mirror the simulator's enable flags.
pub fn trace_channel(
    medium: &Medium,
    tx: &Endpoint,
    rx: &Endpoint,
    surfaces: &[SurfaceInstance],
    wall_reflections: bool,
    cascades: bool,
) -> ChannelTrace {
    let direct = trace_direct(medium, tx, rx);
    let bounces = wall_reflections.then(|| trace_wall_bounces(medium, tx, rx));
    let surface_traces = surfaces
        .iter()
        .enumerate()
        .filter_map(|(i, s)| trace_surface(medium, tx, rx, s, i))
        .collect();
    let cascade_traces = cascades.then(|| {
        let mut out = Vec::new();
        for i in 0..surfaces.len() {
            for j in 0..surfaces.len() {
                if i == j {
                    continue;
                }
                if let Some(t) = trace_cascade(medium, tx, rx, &surfaces[i], &surfaces[j], i, j) {
                    out.push(t);
                }
            }
        }
        out
    });
    ChannelTrace {
        direct,
        bounces,
        surfaces: surface_traces,
        cascades: cascade_traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::OperationMode;
    use surfos_em::array::ArrayGeometry;
    use surfos_em::band::NamedBand;
    use surfos_em::propagation::friis_amplitude;
    use surfos_geometry::{Material, Pose, Wall};

    fn medium_free(plan: &FloorPlan) -> Medium<'_> {
        Medium::new(plan, &[], &[], NamedBand::MmWave28GHz.band())
    }

    fn iso_endpoint(id: &str, pos: Vec3) -> Endpoint {
        let mut e = Endpoint::client(id, pos);
        e.pattern = surfos_em::antenna::ElementPattern::Isotropic;
        e
    }

    #[test]
    fn direct_gain_is_friis_in_free_space() {
        let plan = FloorPlan::new();
        let m = medium_free(&plan);
        let tx = iso_endpoint("tx", Vec3::new(0.0, 0.0, 1.0));
        let rx = iso_endpoint("rx", Vec3::new(5.0, 0.0, 1.0));
        let g = direct_gain(&m, &tx, &rx);
        let want = friis_amplitude(5.0, m.lambda());
        assert!((g - want).abs() < 1e-15);
    }

    #[test]
    fn direct_gain_attenuated_by_wall() {
        let mut plan = FloorPlan::new();
        plan.add_wall(Wall::new(
            Vec3::xy(2.5, -1.0),
            Vec3::xy(2.5, 1.0),
            3.0,
            Material::Concrete,
        ));
        let m = medium_free(&plan);
        let tx = iso_endpoint("tx", Vec3::new(0.0, 0.0, 1.0));
        let rx = iso_endpoint("rx", Vec3::new(5.0, 0.0, 1.0));
        let g = direct_gain(&m, &tx, &rx).abs();
        let clear = friis_amplitude(5.0, m.lambda()).abs();
        let expect = clear * Material::Concrete.transmission_amplitude(&m.band);
        assert!((g - expect).abs() < 1e-15);
        assert!(g < clear / 100.0);
    }

    #[test]
    fn colocated_endpoints_dead() {
        let plan = FloorPlan::new();
        let m = medium_free(&plan);
        let tx = iso_endpoint("tx", Vec3::new(1.0, 1.0, 1.0));
        let rx = iso_endpoint("rx", Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(direct_gain(&m, &tx, &rx), Complex::ZERO);
        assert!(trace_direct(&m, &tx, &rx).is_none());
    }

    #[test]
    fn wall_bounce_exists_and_weaker_than_direct() {
        let mut plan = FloorPlan::new();
        plan.add_wall(Wall::new(
            Vec3::xy(0.0, 3.0),
            Vec3::xy(10.0, 3.0),
            3.0,
            Material::Concrete,
        ));
        let m = medium_free(&plan);
        let tx = iso_endpoint("tx", Vec3::new(2.0, 0.0, 1.0));
        let rx = iso_endpoint("rx", Vec3::new(8.0, 0.0, 1.0));
        let bounce = wall_bounce_gain(&m, &tx, &rx).abs();
        let direct = direct_gain(&m, &tx, &rx).abs();
        assert!(bounce > 0.0);
        assert!(bounce < direct);
    }

    #[test]
    fn no_walls_no_bounce() {
        let plan = FloorPlan::new();
        let m = medium_free(&plan);
        let tx = iso_endpoint("tx", Vec3::new(2.0, 0.0, 1.0));
        let rx = iso_endpoint("rx", Vec3::new(8.0, 0.0, 1.0));
        assert_eq!(wall_bounce_gain(&m, &tx, &rx), Complex::ZERO);
        assert!(trace_wall_bounces(&m, &tx, &rx).is_empty());
    }

    fn test_surface(pos: Vec3, facing: Vec3, n: usize, mode: OperationMode) -> SurfaceInstance {
        let band = NamedBand::MmWave28GHz.band();
        let geom = ArrayGeometry::half_wavelength(n, n, band.wavelength_m());
        SurfaceInstance::new("s", Pose::wall_mounted(pos, facing), geom, mode)
    }

    #[test]
    fn reflective_surface_gates_sides() {
        let plan = FloorPlan::new();
        let m = medium_free(&plan);
        let s = test_surface(
            Vec3::new(0.0, 0.0, 1.5),
            Vec3::X,
            8,
            OperationMode::Reflective,
        );
        let front_a = iso_endpoint("a", Vec3::new(3.0, 1.0, 1.5));
        let front_b = iso_endpoint("b", Vec3::new(3.0, -1.0, 1.5));
        let behind = iso_endpoint("c", Vec3::new(-3.0, 0.0, 1.5));
        assert!(surface_coeffs(&m, &front_a, &front_b, &s).is_some());
        assert!(surface_coeffs(&m, &front_a, &behind, &s).is_none());
    }

    #[test]
    fn transmissive_surface_gates_sides() {
        let plan = FloorPlan::new();
        let m = medium_free(&plan);
        let s = test_surface(
            Vec3::new(0.0, 0.0, 1.5),
            Vec3::X,
            8,
            OperationMode::Transmissive,
        );
        let front = iso_endpoint("a", Vec3::new(3.0, 1.0, 1.5));
        let back = iso_endpoint("c", Vec3::new(-3.0, 0.0, 1.5));
        assert!(surface_coeffs(&m, &front, &back, &s).is_some());
        let front_b = iso_endpoint("b", Vec3::new(3.0, -1.0, 1.5));
        assert!(surface_coeffs(&m, &front, &front_b, &s).is_none());
    }

    #[test]
    fn focused_surface_beats_unfocused() {
        // Program conjugate phases and check coherent combining.
        let plan = FloorPlan::new();
        let m = medium_free(&plan);
        let mut s = test_surface(
            Vec3::new(0.0, 0.0, 1.5),
            Vec3::X,
            16,
            OperationMode::Reflective,
        );
        // Receiver far from the specular direction of the transmitter in
        // both aperture axes (different bearing *and* height), so the
        // identity (mirror) response cannot combine coherently.
        let tx = iso_endpoint("tx", Vec3::new(1.0, 2.5, 1.5));
        let rx = iso_endpoint("rx", Vec3::new(2.0, -0.5, 0.5));
        let term = surface_coeffs(&m, &tx, &rx, &s).expect("serves");

        // Unfocused: identity response.
        let ident: Complex = term.coeffs.iter().copied().sum();

        // Focused: cancel each coefficient's phase.
        let focused: f64 = term.coeffs.iter().map(|c| c.abs()).sum();
        s.set_phases(&term.coeffs.iter().map(|c| -c.arg()).collect::<Vec<_>>());
        let check: Complex = term
            .coeffs
            .iter()
            .zip(s.response())
            .map(|(c, r)| *c * *r)
            .sum();
        assert!((check.abs() - focused).abs() < 1e-12);
        assert!(focused > ident.abs());
        // With 256 elements the coherent gain must clearly beat the
        // incoherent identity sum.
        assert!(
            focused > 5.0 * ident.abs() || ident.abs() < 1e-12,
            "focused={focused:.3e} ident={:.3e}",
            ident.abs()
        );
    }

    #[test]
    fn surface_behind_thick_wall_pruned() {
        let mut plan = FloorPlan::new();
        // Two concrete walls between tx and the surface: ~160 dB, pruned.
        for x in [1.0, 1.5] {
            plan.add_wall(Wall::new(
                Vec3::xy(x, -5.0),
                Vec3::xy(x, 5.0),
                3.0,
                Material::Metal,
            ));
        }
        let m = medium_free(&plan);
        let s = test_surface(
            Vec3::new(3.0, 0.0, 1.5),
            -Vec3::X,
            8,
            OperationMode::Reflective,
        );
        let tx = iso_endpoint("tx", Vec3::new(0.0, 1.0, 1.5));
        let rx = iso_endpoint("rx", Vec3::new(0.0, -1.0, 1.5));
        assert!(surface_coeffs(&m, &tx, &rx, &s).is_none());
        // The wall-burial gate is band-dependent: the geometric trace still
        // exists, it just evaluates to nothing at this band.
        assert!(trace_surface(&m, &tx, &rx, &s, 0).is_some());
    }

    #[test]
    fn polarization_mismatch_kills_direct_link() {
        let plan = FloorPlan::new();
        let m = medium_free(&plan);
        let tx = iso_endpoint("tx", Vec3::new(0.0, 0.0, 1.0));
        let mut rx = iso_endpoint("rx", Vec3::new(5.0, 0.0, 1.0));
        let matched = direct_gain(&m, &tx, &rx).abs();
        rx.polarization_rad = std::f64::consts::FRAC_PI_2; // cross-pol
        let crossed = direct_gain(&m, &tx, &rx).abs();
        assert!(crossed < 1e-12 * (1.0 + matched), "cross-pol must null");
        rx.polarization_rad = std::f64::consts::FRAC_PI_4;
        let diag = direct_gain(&m, &tx, &rx).abs();
        assert!((diag / matched - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn polarization_rotating_surface_revives_crossed_link() {
        // The LLAMA use case: a cross-polarized link is dead directly, but
        // a surface that rotates polarization by 90° restores coupling.
        let plan = FloorPlan::new();
        let m = medium_free(&plan);
        let mut s = test_surface(
            Vec3::new(0.0, 0.0, 1.5),
            Vec3::X,
            8,
            OperationMode::Reflective,
        );
        let tx = iso_endpoint("tx", Vec3::new(3.0, 2.0, 1.5));
        let mut rx = iso_endpoint("rx", Vec3::new(3.0, -2.0, 1.5));
        rx.polarization_rad = std::f64::consts::FRAC_PI_2;

        // Without rotation, the surface path is cross-polarized too.
        let dead = surface_coeffs(&m, &tx, &rx, &s)
            .map(|t| t.coeffs.iter().map(|c| c.abs()).sum::<f64>())
            .unwrap_or(0.0);
        assert!(dead < 1e-12, "unrotated surface can't couple: {dead}");

        s.polarization_rot = std::f64::consts::FRAC_PI_2;
        let revived = surface_coeffs(&m, &tx, &rx, &s)
            .map(|t| t.coeffs.iter().map(|c| c.abs()).sum::<f64>())
            .unwrap_or(0.0);
        assert!(revived > 1e-9, "rotating surface must couple: {revived}");
    }

    #[test]
    fn resonance_detuning_weakens_surface() {
        // A Scrolls-style resonant surface: strong at its centre, weak
        // detuned, and re-tunable.
        let plan = FloorPlan::new();
        let m = medium_free(&plan); // 28 GHz
        let s_resonant = test_surface(
            Vec3::new(0.0, 0.0, 1.5),
            Vec3::X,
            8,
            OperationMode::Reflective,
        )
        .with_resonance(28.0e9, 0.1);
        let s_detuned = test_surface(
            Vec3::new(0.0, 0.0, 1.5),
            Vec3::X,
            8,
            OperationMode::Reflective,
        )
        .with_resonance(5.25e9, 0.1);
        let tx = iso_endpoint("tx", Vec3::new(3.0, 2.0, 1.5));
        let rx = iso_endpoint("rx", Vec3::new(3.0, -2.0, 1.5));
        let strong: f64 = surface_coeffs(&m, &tx, &rx, &s_resonant)
            .unwrap()
            .coeffs
            .iter()
            .map(|c| c.abs())
            .sum();
        // Far off resonance the surface is pruned entirely or negligible.
        let weak: f64 = surface_coeffs(&m, &tx, &rx, &s_detuned)
            .map(|t| t.coeffs.iter().map(|c| c.abs()).sum())
            .unwrap_or(0.0);
        assert!(weak < strong / 100.0, "strong={strong:.3e} weak={weak:.3e}");
    }

    #[test]
    fn cascade_exists_for_relay_geometry() {
        let plan = FloorPlan::new();
        let m = medium_free(&plan);
        // tx — s1 bounces to s2 — rx, all in front of the right faces.
        let s1 = test_surface(
            Vec3::new(0.0, 0.0, 1.5),
            Vec3::X,
            8,
            OperationMode::Reflective,
        );
        let s2 = test_surface(
            Vec3::new(6.0, 0.0, 1.5),
            -Vec3::X,
            8,
            OperationMode::Reflective,
        );
        let tx = iso_endpoint("tx", Vec3::new(2.0, 2.0, 1.5));
        let rx = iso_endpoint("rx", Vec3::new(4.0, -2.0, 1.5));
        let (alpha, beta) = cascade_coeffs(&m, &tx, &rx, &s1, &s2).expect("cascade");
        assert_eq!(alpha.len(), 64);
        assert_eq!(beta.len(), 64);
        assert!(alpha.iter().any(|c| c.abs() > 0.0));
    }

    #[test]
    fn cascade_gated_when_second_cannot_reach_rx() {
        let plan = FloorPlan::new();
        let m = medium_free(&plan);
        let s1 = test_surface(
            Vec3::new(0.0, 0.0, 1.5),
            Vec3::X,
            4,
            OperationMode::Reflective,
        );
        let s2 = test_surface(
            Vec3::new(6.0, 0.0, 1.5),
            -Vec3::X,
            4,
            OperationMode::Reflective,
        );
        let tx = iso_endpoint("tx", Vec3::new(2.0, 2.0, 1.5));
        let rx_behind_s2 = iso_endpoint("rx", Vec3::new(9.0, 0.0, 1.5));
        assert!(cascade_coeffs(&m, &tx, &rx_behind_s2, &s1, &s2).is_none());
    }

    #[test]
    fn cascade_weaker_than_single_bounce() {
        // Physical sanity: a two-hop path through two small surfaces is far
        // weaker (per unit response) than one bounce off the first.
        let plan = FloorPlan::new();
        let m = medium_free(&plan);
        let s1 = test_surface(
            Vec3::new(0.0, 0.0, 1.5),
            Vec3::X,
            8,
            OperationMode::Reflective,
        );
        let s2 = test_surface(
            Vec3::new(6.0, 0.0, 1.5),
            -Vec3::X,
            8,
            OperationMode::Reflective,
        );
        let tx = iso_endpoint("tx", Vec3::new(2.0, 2.0, 1.5));
        let rx = iso_endpoint("rx", Vec3::new(4.0, -2.0, 1.5));
        let single = surface_coeffs(&m, &tx, &rx, &s1).unwrap();
        let best_single: f64 = single.coeffs.iter().map(|c| c.abs()).sum();
        let (alpha, beta) = cascade_coeffs(&m, &tx, &rx, &s1, &s2).unwrap();
        let best_cascade: f64 =
            alpha.iter().map(|c| c.abs()).sum::<f64>() * beta.iter().map(|c| c.abs()).sum::<f64>();
        assert!(best_cascade < best_single);
    }

    #[test]
    fn medium_prefilters_transparent_surfaces() {
        let plan = FloorPlan::new();
        let band = NamedBand::MmWave28GHz.band();
        let transparent = test_surface(
            Vec3::new(3.0, 0.0, 1.5),
            Vec3::X,
            4,
            OperationMode::Reflective,
        );
        let opaque = test_surface(
            Vec3::new(4.0, 0.0, 1.5),
            Vec3::X,
            4,
            OperationMode::Reflective,
        )
        .with_obstruction(0.5);
        let surfaces = [transparent, opaque];
        let m = Medium::new(&plan, &[], &surfaces, band);
        assert_eq!(m.obstructing.len(), 1);
        assert_eq!(m.obstructing[0].0.obstruction_amplitude, 0.5);
        // And the obstruction still bites on a crossing segment (the
        // transparent surface is crossed too, but contributes nothing).
        let t = m.transmission(Vec3::new(0.0, 0.0, 1.5), Vec3::new(8.0, 0.0, 1.5));
        assert!(
            (t - 0.5).abs() < 1e-12,
            "one opaque crossing expected, t={t}"
        );
    }

    #[test]
    fn segment_trace_reproduces_transmission_across_bands() {
        let mut plan = FloorPlan::new();
        plan.add_wall(Wall::new(
            Vec3::xy(2.0, -2.0),
            Vec3::xy(2.0, 2.0),
            3.0,
            Material::Drywall,
        ));
        let blockers = [Blocker::person(Vec3::xy(3.0, 0.0))];
        let from = Vec3::new(0.0, 0.0, 1.2);
        let to = Vec3::new(6.0, 0.0, 1.2);
        for named in [
            NamedBand::Ism2_4GHz,
            NamedBand::WiFi5GHz,
            NamedBand::MmWave60GHz,
        ] {
            let band = named.band();
            let m = Medium::new(&plan, &blockers, &[], band);
            let trace = m.trace_segment(from, to);
            assert_eq!(trace.transmission(&band), m.transmission(from, to));
        }
    }
}
