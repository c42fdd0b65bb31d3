//! Trace/evaluate split: band-independent path records.
//!
//! Ray tracing a link does two separable jobs: *geometry* (which paths
//! exist, their segment lengths, which walls/blockers they cross, pattern
//! and polarization factors) and *electromagnetics* (Friis amplitudes,
//! material losses, resonance detuning and `e^{-jkd}` phases — everything
//! that depends on the carrier). The types here capture the first job as a
//! [`ChannelTrace`]; [`ChannelTrace::linearize_at`] then replays the second
//! job at any [`Band`] in `O(total elements)` without touching the
//! environment again.
//!
//! This is what makes a wideband frequency sweep one trace + N cheap
//! re-phasings instead of N full re-traces, and it is the payload the
//! simulator's linearization cache stores.
//!
//! Bit-exactness contract: for the band the trace was taken at,
//! `linearize_at` reproduces the reference path math in `paths` (which is
//! implemented on top of these records) operation-for-operation, so cached
//! and freshly-traced linearizations are interchangeable. Band-dependent
//! *gates* (wall-burial and resonance pruning) are re-applied per band:
//! a path negligible at 28 GHz may matter at 5 GHz and vice versa.

use crate::dynamics::Blocker;
use crate::linear::{BilinearTerm, LinearTerm, Linearization};
use surfos_em::band::Band;
use surfos_em::complex::Complex;
use surfos_em::propagation::{element_scatter_amplitude, friis_amplitude};
use surfos_em::simd::phasor;
use surfos_em::units::db_to_amplitude;
use surfos_geometry::bvh::{Aabb, AabbBank};
use surfos_geometry::{Material, Vec3};

/// Structure-of-arrays bank of rotating phasors: per element, a current
/// value and a fixed per-step rotation, stored as parallel `f64` slices so
/// the sweep's sum + advance runs through `surfos_em::simd::phasor`'s
/// vectorizable kernels. Each element's *rotation* is bit-identical to the
/// scalar `Complex` multiply; only the *sum* across elements is
/// reassociated (see the kernel docs for the bound).
#[derive(Debug, Default)]
struct PhasorBank {
    re: Vec<f64>,
    im: Vec<f64>,
    dre: Vec<f64>,
    dim: Vec<f64>,
}

impl PhasorBank {
    fn with_capacity(n: usize) -> Self {
        PhasorBank {
            re: Vec::with_capacity(n),
            im: Vec::with_capacity(n),
            dre: Vec::with_capacity(n),
            dim: Vec::with_capacity(n),
        }
    }

    /// Appends a phasor with initial `value` and per-step rotation angle
    /// `dphase` (radians).
    fn push(&mut self, value: Complex, dphase: f64) {
        let d = Complex::from_polar(1.0, dphase);
        self.re.push(value.re);
        self.im.push(value.im);
        self.dre.push(d.re);
        self.dim.push(d.im);
    }

    /// Sum of the current values, then advance every phasor one step.
    fn sum_and_advance(&mut self) -> Complex {
        let (re, im) = phasor::sum_and_advance(&mut self.re, &mut self.im, &self.dre, &self.dim);
        Complex::new(re, im)
    }

    /// Sum of the current values weighted by the real scales `w`, then
    /// advance every phasor one step.
    fn weighted_sum_and_advance(&mut self, w: &[f64]) -> Complex {
        let (re, im) =
            phasor::weighted_sum_and_advance(&mut self.re, &mut self.im, &self.dre, &self.dim, w);
        Complex::new(re, im)
    }

    fn len(&self) -> usize {
        self.re.len()
    }
}

/// Amplitude floor below which a path's accumulated transmission product
/// is treated as exactly zero (shared with the reference implementation
/// in `paths`). This uniform gate is what makes metal-shelled zones
/// *bit-exactly* independent — the contract the sharded kernel builds on.
pub const TRANSMISSION_FLOOR: f64 = 1e-9;
/// Thresholds shared with the reference implementation in `paths`.
pub(crate) const RESONANCE_FLOOR: f64 = 1e-6;
pub(crate) const COEFF_FLOOR: f64 = 1e-15;

/// Band-independent obstruction record of one ray segment: which wall
/// materials it crosses (in crossing order), which blockers (in list
/// order), and the off-band surface obstruction product. The segment's
/// world endpoints are retained so a blocker-only mutation can re-derive
/// just the blocker crossings (`SegmentTrace::refresh_blockers`) without
/// re-tracing walls or surfaces.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentTrace {
    /// Segment start, in world coordinates.
    from: Vec3,
    /// Segment end, in world coordinates.
    to: Vec3,
    /// Materials of crossed walls, sorted by crossing parameter.
    wall_materials: Vec<Material>,
    /// Materials of crossed blockers, in blocker-list order.
    blocker_materials: Vec<Material>,
    /// Product of crossing surfaces' obstruction amplitudes (band-free).
    surface_obstruction: f64,
}

impl SegmentTrace {
    pub(crate) fn new(
        from: Vec3,
        to: Vec3,
        wall_materials: Vec<Material>,
        blocker_materials: Vec<Material>,
        surface_obstruction: f64,
    ) -> Self {
        SegmentTrace {
            from,
            to,
            wall_materials,
            blocker_materials,
            surface_obstruction,
        }
    }

    /// Re-derives the blocker-crossing set against a new blocker
    /// configuration (with its padded boxes from the refitted scene
    /// index), returning whether it changed. Walls and surface
    /// obstructions are untouched — blockers are the only moving
    /// primitives — so an unchanged crossing set leaves the segment's
    /// [`SegmentTrace::transmission`] bit-identical at every band.
    ///
    /// The crossing test and collection order reproduce the indexed
    /// `Medium::trace_segment` exactly: interval-bank prefilter, exact
    /// conservative box cull, exact cylinder test, blocker-list order.
    pub(crate) fn refresh_blockers(
        &mut self,
        blockers: &[Blocker],
        boxes: &[Aabb],
        bank: &AabbBank,
    ) -> bool {
        let mut crossed: Vec<Material> = Vec::new();
        bank.for_each_candidate(self.from, self.to, |i| {
            let b = &blockers[i];
            if boxes[i].intersects_segment(self.from, self.to) && b.intersects(self.from, self.to) {
                crossed.push(b.material);
            }
        });
        if crossed == self.blocker_materials {
            false
        } else {
            self.blocker_materials = crossed;
            true
        }
    }

    /// Amplitude transmission factor of the segment at `band`.
    ///
    /// Skipped non-crossing factors are exactly `1.0` in the reference
    /// product, so omitting them is IEEE-identical.
    pub fn transmission(&self, band: &Band) -> f64 {
        let walls = db_to_amplitude(
            -self
                .wall_materials
                .iter()
                .map(|m| m.penetration_loss_db(band))
                .sum::<f64>(),
        );
        let blockers: f64 = self
            .blocker_materials
            .iter()
            .map(|m| m.transmission_amplitude(band))
            .product();
        walls * blockers * self.surface_obstruction
    }

    /// [`Self::transmission`] driven by per-probe material tables and a
    /// per-segment `db_to_amplitude` memo — the sweep hot path's variant.
    ///
    /// `pen_db[m.index()]` / `blocker_amp[m.index()]` must hold exactly
    /// `m.penetration_loss_db(band)` / `m.transmission_amplitude(band)`
    /// for the probe being evaluated (pure memoization, like the sweep's
    /// per-probe reflection table). The dB sum and blocker product run in
    /// the same order over the same values as [`Self::transmission`], and
    /// the `10^(-db/20)` is recomputed only when the summed dB differs
    /// from `memo.0` (same input bits → same output bits), so the result
    /// is **bit-identical** to `transmission(band)` at every probe. Seed
    /// `memo` with `(f64::NAN, 0.0)` (NaN compares unequal to everything,
    /// forcing the first computation). The material loss tables are step
    /// functions of frequency, so across a subcarrier sweep the memo
    /// turns one powf per probe into one powf per band-class.
    pub(crate) fn transmission_memo(
        &self,
        pen_db: &[f64; Material::ALL.len()],
        blocker_amp: &[f64; Material::ALL.len()],
        memo: &mut (f64, f64),
    ) -> f64 {
        let db: f64 = self.wall_materials.iter().map(|m| pen_db[m.index()]).sum();
        if db != memo.0 {
            *memo = (db, db_to_amplitude(-db));
        }
        let blockers: f64 = self
            .blocker_materials
            .iter()
            .map(|m| blocker_amp[m.index()])
            .product();
        memo.1 * blockers * self.surface_obstruction
    }
}

/// Seed value for [`SegmentTrace::transmission_memo`] memos: `NaN`
/// compares unequal to every dB sum, so the first probe always computes.
const FRESH_MEMO: (f64, f64) = (f64::NAN, 0.0);

/// Sweep-local surface state: the trace, its element phasor bank, and the
/// `[seg_in, seg_out]` transmission memos.
type SurfaceSweep<'a> = (&'a SurfaceTrace, PhasorBank, [(f64, f64); 2]);

/// Lorentzian resonance efficiency, mirroring
/// `SurfaceInstance::resonance_factor`.
fn resonance_factor(resonance: Option<(f64, f64)>, freq_hz: f64) -> f64 {
    match resonance {
        None => 1.0,
        Some((center, width)) => {
            let x = (freq_hz - center) / (width * center);
            1.0 / (1.0 + x * x)
        }
    }
}

/// Geometry of the direct path.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectTrace {
    /// Tx–rx distance in metres.
    pub d: f64,
    /// Pattern × polarization amplitude factor (band-free).
    pub pat_pol: f64,
    /// Obstructions along the path.
    pub segment: SegmentTrace,
}

impl DirectTrace {
    /// Complex gain at `band`.
    pub fn gain_at(&self, band: &Band) -> Complex {
        let g = friis_amplitude(self.d, band.wavelength_m());
        g * (self.pat_pol * self.segment.transmission(band))
    }
}

/// Geometry of one first-order specular wall reflection.
#[derive(Debug, Clone, PartialEq)]
pub struct BounceTrace {
    /// Unfolded path length tx → specular point → rx.
    pub total_length: f64,
    /// The bounce wall's material (reflection loss is band-dependent).
    pub material: Material,
    /// Pattern gain product towards the specular point (band-free).
    pub pat: f64,
    /// Polarization factor (band-free).
    pub pol: f64,
    /// Obstructions on the tx → specular-point leg.
    pub seg_in: SegmentTrace,
    /// Obstructions on the specular-point → rx leg.
    pub seg_out: SegmentTrace,
}

impl BounceTrace {
    /// Complex gain at `band`, or exactly [`Complex::ZERO`] when the legs'
    /// combined obstruction puts the bounce below [`TRANSMISSION_FLOOR`] —
    /// the same sub-noise floor that already gates surface and cascade
    /// terms. Applying it uniformly across all path families makes heavily
    /// shielded regions (e.g. a metal-shelled building) *exactly* RF-dark
    /// to each other: a scene partitioned along such shells evaluates
    /// bit-identically to the flat whole, which is what the sharded
    /// kernel's zone decomposition relies on.
    pub fn gain_at(&self, band: &Band) -> Complex {
        let trans = self.seg_in.transmission(band) * self.seg_out.transmission(band);
        if trans < TRANSMISSION_FLOOR {
            return Complex::ZERO;
        }
        let g = friis_amplitude(self.total_length, band.wavelength_m());
        let rho = self.material.reflection_amplitude(band);
        g * (rho * self.pat * self.pol * trans)
    }
}

/// Per-element leg lengths of a single-bounce surface path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElementLeg {
    /// Tx → element distance.
    pub d1: f64,
    /// Element → rx distance.
    pub d2: f64,
}

/// Geometry of a single-bounce programmable-surface path. Survived the
/// band-independent gates (mode/side serving); the band-dependent gates
/// (wall burial, resonance) are re-applied by [`Self::linear_term_at`].
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceTrace {
    /// Index of the surface in the simulator's surface list.
    pub surface: usize,
    /// Obstructions tx → surface centre.
    pub seg_in: SegmentTrace,
    /// Obstructions surface centre → rx.
    pub seg_out: SegmentTrace,
    /// Endpoint pattern gain product towards the centre (band-free).
    pub ep_gain: f64,
    /// Polarization factor including the surface's rotation (band-free).
    pub pol: f64,
    /// The surface's resonance `(centre_hz, fractional_width)`, if any.
    pub resonance: Option<(f64, f64)>,
    /// Element area in m².
    pub area: f64,
    /// Element amplitude efficiency.
    pub efficiency: f64,
    /// Element pattern gain product (centre-based angles; band-free).
    pub elem_pat: f64,
    /// Per-element leg lengths.
    pub legs: Vec<ElementLeg>,
}

impl SurfaceTrace {
    /// The per-element coefficients at `band`, or `None` when the surface
    /// is gated off (buried or detuned) at this band.
    pub fn linear_term_at(&self, band: &Band) -> Option<LinearTerm> {
        let trans = self.seg_in.transmission(band) * self.seg_out.transmission(band);
        if trans < TRANSMISSION_FLOOR {
            return None;
        }
        let resonance = resonance_factor(self.resonance, band.center_hz);
        if resonance < RESONANCE_FLOOR {
            return None;
        }
        let ep_gain = self.ep_gain * resonance * self.pol;
        let lambda = band.wavelength_m();
        let coeffs = self
            .legs
            .iter()
            .map(|leg| {
                let scatter =
                    element_scatter_amplitude(leg.d1, leg.d2, lambda, self.area, self.efficiency);
                scatter * (self.elem_pat * ep_gain * trans)
            })
            .collect();
        Some(LinearTerm {
            surface: self.surface,
            coeffs,
        })
    }
}

/// Geometry of a two-hop cascade `tx → first → second → rx`.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeTrace {
    /// Index of the first-hop surface.
    pub first: usize,
    /// Index of the second-hop surface.
    pub second: usize,
    /// Obstructions tx → first centre.
    pub seg_in: SegmentTrace,
    /// Obstructions first centre → second centre.
    pub seg_hop: SegmentTrace,
    /// Obstructions second centre → rx.
    pub seg_out: SegmentTrace,
    /// Centre-to-centre hop distance.
    pub d_hop: f64,
    /// First surface: element pattern product towards tx and the second
    /// centre (band-free; resonance re-applied per band).
    pub pat1: f64,
    /// First surface's resonance.
    pub res1: Option<(f64, f64)>,
    /// `element_area × efficiency` of the first surface.
    pub area_eff1: f64,
    /// Tx pattern gain towards the first centre.
    pub g_tx: f64,
    /// First surface per-element legs: `d1` = tx → element,
    /// `d2` = element → second centre.
    pub alpha_legs: Vec<ElementLeg>,
    /// Second surface: element pattern product (band-free).
    pub pat2: f64,
    /// Second surface's resonance.
    pub res2: Option<(f64, f64)>,
    /// End-to-end polarization factor through both rotations (band-free).
    pub pol: f64,
    /// `element_area × efficiency` of the second surface.
    pub area_eff2: f64,
    /// Rx pattern gain towards the second centre.
    pub g_rx: f64,
    /// Second surface per-element legs: `d1` = first centre → element,
    /// `d2` = element → rx.
    pub beta_legs: Vec<ElementLeg>,
}

impl CascadeTrace {
    /// The `(α, β)` coefficient vectors at `band`, or `None` when gated.
    pub fn coeffs_at(&self, band: &Band) -> Option<(Vec<Complex>, Vec<Complex>)> {
        let trans = self.seg_in.transmission(band)
            * self.seg_hop.transmission(band)
            * self.seg_out.transmission(band);
        if trans < TRANSMISSION_FLOOR {
            return None;
        }
        let lambda = band.wavelength_m();
        let k = band.wavenumber();
        let pat1 = self.pat1 * resonance_factor(self.res1, band.center_hz);
        let alpha: Vec<Complex> = self
            .alpha_legs
            .iter()
            .map(|leg| {
                let mag = self.area_eff1 / (4.0 * std::f64::consts::PI * leg.d1 * self.d_hop);
                let phase = -k * (leg.d1 + leg.d2 - self.d_hop) - k * self.d_hop;
                Complex::from_polar(mag, phase) * (pat1 * self.g_tx * trans)
            })
            .collect();
        let pat2 = self.pat2 * resonance_factor(self.res2, band.center_hz) * self.pol;
        let beta: Vec<Complex> = self
            .beta_legs
            .iter()
            .map(|leg| {
                let mag = self.area_eff2 / (lambda * leg.d2);
                let phase = -k * (leg.d1 - self.d_hop + leg.d2);
                Complex::from_polar(mag, phase) * (pat2 * self.g_rx)
            })
            .collect();
        if alpha.iter().all(|c| c.abs() < COEFF_FLOOR) || beta.iter().all(|c| c.abs() < COEFF_FLOOR)
        {
            return None;
        }
        Some((alpha, beta))
    }

    /// The bilinear term at `band`, or `None` when gated.
    pub fn term_at(&self, band: &Band) -> Option<BilinearTerm> {
        let (alpha, beta) = self.coeffs_at(band)?;
        Some(BilinearTerm {
            first: self.first,
            alpha,
            second: self.second,
            beta,
        })
    }
}

/// Everything path enumeration found for one (tx, rx) pair: the complete
/// band-independent geometry of the link. Re-phase it at any carrier with
/// [`Self::linearize_at`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelTrace {
    /// Direct path (`None` when the endpoints are co-located).
    pub direct: Option<DirectTrace>,
    /// Wall reflections (`None` when tracing had them disabled).
    pub bounces: Option<Vec<BounceTrace>>,
    /// Single-bounce surface paths that pass the geometric gates.
    pub surfaces: Vec<SurfaceTrace>,
    /// Two-hop cascades (`None` when tracing had them disabled).
    pub cascades: Option<Vec<CascadeTrace>>,
}

impl ChannelTrace {
    /// Evaluates the trace into a [`Linearization`] at `band`. Cheap:
    /// `O(total elements)`, no environment access.
    pub fn linearize_at(&self, band: &Band) -> Linearization {
        surfos_obs::add("channel.rephasings", 1);
        // Same per-band material tables as `sweep_evaluate`: pure
        // memoization of the `Material` loss models, so the direct and
        // bounce terms below stay bit-identical to `gain_at` while paying
        // one `powf` per distinct loss value instead of one per path.
        let mut pen_db = [0.0f64; Material::ALL.len()];
        let mut blocker_amp = [0.0f64; Material::ALL.len()];
        let mut rho = [0.0f64; Material::ALL.len()];
        for m in Material::ALL {
            pen_db[m.index()] = m.penetration_loss_db(band);
            blocker_amp[m.index()] = m.transmission_amplitude(band);
            rho[m.index()] = m.reflection_amplitude(band);
        }
        let lambda = band.wavelength_m();
        let mut memo = [FRESH_MEMO; 2];
        let mut constant = match &self.direct {
            Some(d) => {
                let g = friis_amplitude(d.d, lambda);
                g * (d.pat_pol
                    * d.segment
                        .transmission_memo(&pen_db, &blocker_amp, &mut memo[0]))
            }
            None => Complex::ZERO,
        };
        if let Some(bounces) = &self.bounces {
            let mut total = Complex::ZERO;
            for b in bounces {
                // Table-driven `BounceTrace::gain_at`, operation for
                // operation.
                let trans = b
                    .seg_in
                    .transmission_memo(&pen_db, &blocker_amp, &mut memo[0])
                    * b.seg_out
                        .transmission_memo(&pen_db, &blocker_amp, &mut memo[1]);
                if trans < TRANSMISSION_FLOOR {
                    continue;
                }
                let g = friis_amplitude(b.total_length, lambda);
                total += g * (rho[b.material.index()] * b.pat * b.pol * trans);
            }
            constant += total;
        }
        let linear = self
            .surfaces
            .iter()
            .filter_map(|s| s.linear_term_at(band))
            .collect();
        let bilinear = match &self.cascades {
            Some(cascades) => cascades.iter().filter_map(|c| c.term_at(band)).collect(),
            None => Vec::new(),
        };
        Linearization {
            constant,
            linear,
            bilinear,
        }
    }

    /// Evaluates the trace against `responses` at a *uniformly spaced*
    /// sequence of narrowband probes in one pass.
    ///
    /// Functionally this is `linearize_at(b).evaluate(responses)` per
    /// band, but per-element phases are linear in the wavenumber, so on a
    /// uniform grid each element's phasor advances by a fixed per-step
    /// rotation — one complex multiply instead of a fresh `sin`/`cos`.
    /// Band-dependent scalars (Friis magnitudes, material losses,
    /// resonance) and the pruning gates are still recomputed exactly per
    /// probe. The rotation is exact for a mathematically affine grid; the
    /// FP rounding of the caller's actual grid points bounds the
    /// deviation from point-wise evaluation at ~1e-11 relative.
    ///
    /// The phasors live in structure-of-arrays `PhasorBank`s driven by
    /// `surfos_em::simd::phasor`, so each probe's sum + advance is a
    /// vectorizable streaming pass instead of a pointer-chasing `Complex`
    /// loop. **Equivalence policy** versus the scalar reference arm
    /// (`sweep_evaluate_scalar`, test-only): every per-path value — phasor
    /// rotations, Friis magnitudes, material losses, gates — is computed
    /// by the same operations in the same order and is bit-identical; only
    /// the *sums across paths/elements* are reassociated into the kernels'
    /// partial-sum lanes, bounding the deviation per probe at
    /// `O(n·ε·Σ|termᵢ|)` absolute (n = paths or elements per sum). The
    /// per-probe material reflection table is pure memoization of
    /// [`Material::reflection_amplitude`] and changes nothing.
    pub fn sweep_evaluate(&self, bands: &[Band], responses: &[&[Complex]]) -> Vec<Complex> {
        if bands.len() < 2 {
            // `linearize_at` does the re-phasing accounting on this path.
            return bands
                .iter()
                .map(|b| self.linearize_at(b).evaluate(responses))
                .collect();
        }
        surfos_obs::add("channel.rephasings", bands.len() as u64);
        let tau = 2.0 * std::f64::consts::PI;
        let four_pi = 4.0 * std::f64::consts::PI;
        let lambda0 = bands[0].wavelength_m();
        let k0 = bands[0].wavenumber();
        let dk = bands[1].wavenumber() - k0;

        let mut direct = self.direct.as_ref().map(|d| {
            (
                d,
                Complex::from_polar(1.0, -tau * d.d / lambda0),
                Complex::from_polar(1.0, -dk * d.d),
            )
        });
        let mut direct_memo = FRESH_MEMO;
        let bounce_list: Option<&[BounceTrace]> = self.bounces.as_deref();
        let mut bounce_bank = PhasorBank::with_capacity(bounce_list.map_or(0, <[_]>::len));
        if let Some(bs) = bounce_list {
            for b in bs {
                bounce_bank.push(
                    Complex::from_polar(1.0, -tau * b.total_length / lambda0),
                    -dk * b.total_length,
                );
            }
        }
        let mut bounce_w = vec![0.0f64; bounce_bank.len()];
        // Per-segment powf memos, [seg_in, seg_out] per bounce.
        let mut bounce_memo = vec![[FRESH_MEMO; 2]; bounce_bank.len()];
        let mut surfaces: Vec<SurfaceSweep> = self
            .surfaces
            .iter()
            .map(|s| {
                let area_eff = s.area * s.efficiency;
                let mut bank = PhasorBank::with_capacity(s.legs.len());
                for (leg, r) in s.legs.iter().zip(responses[s.surface]) {
                    let mag = area_eff / (four_pi * leg.d1 * leg.d2);
                    let phase = -tau * (leg.d1 + leg.d2) / lambda0;
                    bank.push(
                        Complex::from_polar(mag, phase) * *r,
                        -dk * (leg.d1 + leg.d2),
                    );
                }
                (s, bank, [FRESH_MEMO; 2])
            })
            .collect();
        // Cascade α/β magnitudes are gated against `COEFF_FLOOR` without
        // the responses folded in, so track the largest static magnitude
        // per side alongside the response-weighted phasor banks.
        struct CascadeSoa<'a> {
            c: &'a CascadeTrace,
            alpha: PhasorBank,
            alpha_max_mag: f64,
            beta: PhasorBank,
            beta_max_mag: f64,
            memo: [(f64, f64); 3],
        }
        let mut cascades: Vec<CascadeSoa<'_>> = self
            .cascades
            .iter()
            .flatten()
            .map(|c| {
                let mut alpha_max_mag: f64 = 0.0;
                let mut alpha = PhasorBank::with_capacity(c.alpha_legs.len());
                for (leg, r) in c.alpha_legs.iter().zip(responses[c.first]) {
                    let mag = c.area_eff1 / (four_pi * leg.d1 * c.d_hop);
                    alpha_max_mag = alpha_max_mag.max(mag);
                    let phase = -k0 * (leg.d1 + leg.d2 - c.d_hop) - k0 * c.d_hop;
                    alpha.push(
                        Complex::from_polar(mag, phase) * *r,
                        -dk * (leg.d1 + leg.d2),
                    );
                }
                // β magnitude carries a 1/λ that moves with the band; keep
                // the static part here and scale per probe.
                let mut beta_max_mag: f64 = 0.0;
                let mut beta = PhasorBank::with_capacity(c.beta_legs.len());
                for (leg, r) in c.beta_legs.iter().zip(responses[c.second]) {
                    let mag = c.area_eff2 / leg.d2;
                    beta_max_mag = beta_max_mag.max(mag);
                    let phase = -k0 * (leg.d1 - c.d_hop + leg.d2);
                    beta.push(
                        Complex::from_polar(mag, phase) * *r,
                        -dk * (leg.d1 - c.d_hop + leg.d2),
                    );
                }
                CascadeSoa {
                    c,
                    alpha,
                    alpha_max_mag,
                    beta,
                    beta_max_mag,
                    memo: [FRESH_MEMO; 3],
                }
            })
            .collect();

        bands
            .iter()
            .map(|band| {
                let lambda = band.wavelength_m();
                // Per-probe material tables: penetration loss in dB and
                // blocker transmission amplitude, tabulated once instead
                // of one `match` per crossed wall per segment — pure
                // memoization feeding `transmission_memo`, which stays
                // bit-identical to `transmission`.
                let mut pen_db = [0.0f64; Material::ALL.len()];
                let mut blocker_amp = [0.0f64; Material::ALL.len()];
                for m in Material::ALL {
                    pen_db[m.index()] = m.penetration_loss_db(band);
                    blocker_amp[m.index()] = m.transmission_amplitude(band);
                }
                let mut h = Complex::ZERO;
                if let Some((d, val, delta)) = direct.as_mut() {
                    let mag = lambda / (four_pi * d.d);
                    let trans =
                        d.segment
                            .transmission_memo(&pen_db, &blocker_amp, &mut direct_memo);
                    h += *val * (mag * d.pat_pol * trans);
                    *val *= *delta;
                }
                if let Some(bs) = bounce_list {
                    // Per-probe reflection amplitudes, tabulated once per
                    // material instead of one `db_to_amplitude` per bounce.
                    let mut rho = [0.0f64; Material::ALL.len()];
                    for m in Material::ALL {
                        rho[m.index()] = m.reflection_amplitude(band);
                    }
                    for ((w, b), memo) in bounce_w.iter_mut().zip(bs).zip(bounce_memo.iter_mut()) {
                        let trans = b
                            .seg_in
                            .transmission_memo(&pen_db, &blocker_amp, &mut memo[0])
                            * b.seg_out
                                .transmission_memo(&pen_db, &blocker_amp, &mut memo[1]);
                        // Sub-noise bounces weight to 0 (mirrors the
                        // `gain_at` floor; a 0-weighted phasor adds an
                        // exact ±0, leaving the sum bit-unchanged).
                        if trans < TRANSMISSION_FLOOR {
                            *w = 0.0;
                            continue;
                        }
                        let mag = lambda / (four_pi * b.total_length);
                        *w = mag * rho[b.material.index()] * b.pat * b.pol * trans;
                    }
                    h += bounce_bank.weighted_sum_and_advance(&bounce_w);
                }
                for (s, bank, memo) in surfaces.iter_mut() {
                    // Phasors must advance every step, gated or not, so
                    // accumulate unconditionally and gate the scale.
                    let acc = bank.sum_and_advance();
                    let trans = s
                        .seg_in
                        .transmission_memo(&pen_db, &blocker_amp, &mut memo[0])
                        * s.seg_out
                            .transmission_memo(&pen_db, &blocker_amp, &mut memo[1]);
                    if trans < TRANSMISSION_FLOOR {
                        continue;
                    }
                    let resonance = resonance_factor(s.resonance, band.center_hz);
                    if resonance < RESONANCE_FLOOR {
                        continue;
                    }
                    h += acc * (s.elem_pat * (s.ep_gain * resonance * s.pol) * trans);
                }
                for cs in cascades.iter_mut() {
                    let acc_a = cs.alpha.sum_and_advance();
                    let acc_b = cs.beta.sum_and_advance();
                    let c = cs.c;
                    let memo = &mut cs.memo;
                    let trans = c
                        .seg_in
                        .transmission_memo(&pen_db, &blocker_amp, &mut memo[0])
                        * c.seg_hop
                            .transmission_memo(&pen_db, &blocker_amp, &mut memo[1])
                        * c.seg_out
                            .transmission_memo(&pen_db, &blocker_amp, &mut memo[2]);
                    if trans < TRANSMISSION_FLOOR {
                        continue;
                    }
                    let a_scale =
                        c.pat1 * resonance_factor(c.res1, band.center_hz) * c.g_tx * trans;
                    let b_scale =
                        c.pat2 * resonance_factor(c.res2, band.center_hz) * c.pol * c.g_rx / lambda;
                    if cs.alpha_max_mag * a_scale.abs() < COEFF_FLOOR
                        || cs.beta_max_mag * b_scale.abs() < COEFF_FLOOR
                    {
                        continue;
                    }
                    h += (acc_a * a_scale) * (acc_b * b_scale);
                }
                h
            })
            .collect()
    }

    /// Scalar reference arm of [`Self::sweep_evaluate`]: one rotating
    /// `Complex` per path element, strict left-to-right accumulation.
    /// Test-only: the equivalence test pins the SoA arm's reassociation
    /// bound against it.
    #[cfg(test)]
    pub(crate) fn sweep_evaluate_scalar(
        &self,
        bands: &[Band],
        responses: &[&[Complex]],
    ) -> Vec<Complex> {
        if bands.len() < 2 {
            // `linearize_at` does the re-phasing accounting on this path.
            return bands
                .iter()
                .map(|b| self.linearize_at(b).evaluate(responses))
                .collect();
        }
        surfos_obs::add("channel.rephasings", bands.len() as u64);
        let tau = 2.0 * std::f64::consts::PI;
        let four_pi = 4.0 * std::f64::consts::PI;
        let lambda0 = bands[0].wavelength_m();
        let k0 = bands[0].wavenumber();
        let dk = bands[1].wavenumber() - k0;

        // Phasor + its per-step rotation. `value` may carry the
        // band-independent magnitude and the element's response folded in.
        struct Rot {
            value: Complex,
            delta: Complex,
        }
        impl Rot {
            fn new(value: Complex, dphase: f64) -> Self {
                Rot {
                    value,
                    delta: Complex::from_polar(1.0, dphase),
                }
            }
            /// Returns the current value, then advances one grid step.
            fn take(&mut self) -> Complex {
                let v = self.value;
                self.value = v * self.delta;
                v
            }
        }

        let mut direct = self.direct.as_ref().map(|d| {
            (
                d,
                Rot::new(Complex::from_polar(1.0, -tau * d.d / lambda0), -dk * d.d),
            )
        });
        let mut bounces: Option<Vec<(&BounceTrace, Rot)>> = self.bounces.as_ref().map(|bs| {
            bs.iter()
                .map(|b| {
                    (
                        b,
                        Rot::new(
                            Complex::from_polar(1.0, -tau * b.total_length / lambda0),
                            -dk * b.total_length,
                        ),
                    )
                })
                .collect()
        });
        let mut surfaces: Vec<(&SurfaceTrace, Vec<Rot>)> = self
            .surfaces
            .iter()
            .map(|s| {
                let area_eff = s.area * s.efficiency;
                let elems = s
                    .legs
                    .iter()
                    .zip(responses[s.surface])
                    .map(|(leg, r)| {
                        let mag = area_eff / (four_pi * leg.d1 * leg.d2);
                        let phase = -tau * (leg.d1 + leg.d2) / lambda0;
                        Rot::new(
                            Complex::from_polar(mag, phase) * *r,
                            -dk * (leg.d1 + leg.d2),
                        )
                    })
                    .collect();
                (s, elems)
            })
            .collect();
        // Cascade α/β magnitudes are gated against `COEFF_FLOOR` without
        // the responses folded in, so track the largest static magnitude
        // per side alongside the response-weighted phasors.
        struct CascadeSweep<'a> {
            c: &'a CascadeTrace,
            alpha: Vec<Rot>,
            alpha_max_mag: f64,
            beta: Vec<Rot>,
            beta_max_mag: f64,
        }
        let mut cascades: Option<Vec<CascadeSweep<'_>>> = self.cascades.as_ref().map(|cs| {
            cs.iter()
                .map(|c| {
                    let mut alpha_max_mag: f64 = 0.0;
                    let alpha = c
                        .alpha_legs
                        .iter()
                        .zip(responses[c.first])
                        .map(|(leg, r)| {
                            let mag = c.area_eff1 / (four_pi * leg.d1 * c.d_hop);
                            alpha_max_mag = alpha_max_mag.max(mag);
                            let phase = -k0 * (leg.d1 + leg.d2 - c.d_hop) - k0 * c.d_hop;
                            Rot::new(
                                Complex::from_polar(mag, phase) * *r,
                                -dk * (leg.d1 + leg.d2),
                            )
                        })
                        .collect();
                    // β magnitude carries a 1/λ that moves with the band;
                    // keep the static part here and scale per probe.
                    let mut beta_max_mag: f64 = 0.0;
                    let beta = c
                        .beta_legs
                        .iter()
                        .zip(responses[c.second])
                        .map(|(leg, r)| {
                            let mag = c.area_eff2 / leg.d2;
                            beta_max_mag = beta_max_mag.max(mag);
                            let phase = -k0 * (leg.d1 - c.d_hop + leg.d2);
                            Rot::new(
                                Complex::from_polar(mag, phase) * *r,
                                -dk * (leg.d1 - c.d_hop + leg.d2),
                            )
                        })
                        .collect();
                    CascadeSweep {
                        c,
                        alpha,
                        alpha_max_mag,
                        beta,
                        beta_max_mag,
                    }
                })
                .collect()
        });

        bands
            .iter()
            .map(|band| {
                let lambda = band.wavelength_m();
                let mut h = Complex::ZERO;
                if let Some((d, rot)) = direct.as_mut() {
                    let mag = lambda / (four_pi * d.d);
                    h += rot.take() * (mag * d.pat_pol * d.segment.transmission(band));
                }
                if let Some(bounces) = bounces.as_mut() {
                    let mut total = Complex::ZERO;
                    for (b, rot) in bounces.iter_mut() {
                        // Phasors advance every step, gated or not.
                        let v = rot.take();
                        let trans = b.seg_in.transmission(band) * b.seg_out.transmission(band);
                        if trans < TRANSMISSION_FLOOR {
                            continue;
                        }
                        let mag = lambda / (four_pi * b.total_length);
                        let rho = b.material.reflection_amplitude(band);
                        total += v * (mag * rho * b.pat * b.pol * trans);
                    }
                    h += total;
                }
                for (s, elems) in surfaces.iter_mut() {
                    // Phasors must advance every step, gated or not, so
                    // accumulate unconditionally and gate the scale.
                    let mut acc = Complex::ZERO;
                    for rot in elems.iter_mut() {
                        acc += rot.take();
                    }
                    let trans = s.seg_in.transmission(band) * s.seg_out.transmission(band);
                    if trans < TRANSMISSION_FLOOR {
                        continue;
                    }
                    let resonance = resonance_factor(s.resonance, band.center_hz);
                    if resonance < RESONANCE_FLOOR {
                        continue;
                    }
                    h += acc * (s.elem_pat * (s.ep_gain * resonance * s.pol) * trans);
                }
                if let Some(cascades) = cascades.as_mut() {
                    for cs in cascades.iter_mut() {
                        let mut acc_a = Complex::ZERO;
                        for rot in cs.alpha.iter_mut() {
                            acc_a += rot.take();
                        }
                        let mut acc_b = Complex::ZERO;
                        for rot in cs.beta.iter_mut() {
                            acc_b += rot.take();
                        }
                        let c = cs.c;
                        let trans = c.seg_in.transmission(band)
                            * c.seg_hop.transmission(band)
                            * c.seg_out.transmission(band);
                        if trans < TRANSMISSION_FLOOR {
                            continue;
                        }
                        let a_scale =
                            c.pat1 * resonance_factor(c.res1, band.center_hz) * c.g_tx * trans;
                        let b_scale =
                            c.pat2 * resonance_factor(c.res2, band.center_hz) * c.pol * c.g_rx
                                / lambda;
                        if cs.alpha_max_mag * a_scale.abs() < COEFF_FLOOR
                            || cs.beta_max_mag * b_scale.abs() < COEFF_FLOOR
                        {
                            continue;
                        }
                        h += (acc_a * a_scale) * (acc_b * b_scale);
                    }
                }
                h
            })
            .collect()
    }

    /// Total number of stored per-element legs (memory diagnostic).
    pub fn leg_count(&self) -> usize {
        self.surfaces.iter().map(|s| s.legs.len()).sum::<usize>()
            + self
                .cascades
                .iter()
                .flatten()
                .map(|c| c.alpha_legs.len() + c.beta_legs.len())
                .sum::<usize>()
    }
}
