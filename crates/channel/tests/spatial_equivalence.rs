//! Property tests: the spatially-indexed tracing path must be
//! *bit-identical* to the brute-force scan on arbitrary cluttered scenes.
//!
//! `ChannelSim::linearize` runs through the per-epoch `SceneIndex` (wall
//! BVH, blocker/aperture boxes, cached element positions); the control
//! builds `Medium::new` — the brute reference — and traces the same link
//! directly. Any non-conservative culling, reordering or recomputed
//! intermediate shows up as a bit difference in the linearization.

use proptest::prelude::*;
use surfos_channel::dynamics::Blocker;
use surfos_channel::paths::{self, Medium};
use surfos_channel::{ChannelSim, Endpoint, OperationMode, SurfaceInstance};
use surfos_em::antenna::ElementPattern;
use surfos_em::array::ArrayGeometry;
use surfos_em::band::NamedBand;
use surfos_geometry::{FloorPlan, Material, Pose, Vec3, Wall};

/// Splittable LCG stream in [0, 1).
fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

/// A deterministic cluttered scene: `n_walls` short walls, `n_blockers`
/// people and `n_surfaces` small surfaces (alternating transparent /
/// obstructing) scattered over a 10×10 m area.
fn build_sim(seed: u64, n_walls: usize, n_blockers: usize, n_surfaces: usize) -> ChannelSim {
    let mut next = rng(seed);
    let materials = [
        Material::Drywall,
        Material::Concrete,
        Material::Glass,
        Material::Wood,
    ];
    let mut plan = FloorPlan::new();
    for i in 0..n_walls {
        let x = next() * 10.0;
        let y = next() * 10.0;
        let ang = next() * std::f64::consts::TAU;
        let len = 0.4 + next() * 2.6;
        plan.add_wall(Wall::new(
            Vec3::xy(x, y),
            Vec3::xy(x + ang.cos() * len, y + ang.sin() * len),
            1.0 + next() * 3.0,
            materials[i % materials.len()],
        ));
    }
    let band = NamedBand::MmWave28GHz.band();
    let mut sim = ChannelSim::new(plan, band);
    for _ in 0..n_blockers {
        sim.add_blocker(Blocker::person(Vec3::xy(next() * 10.0, next() * 10.0)));
    }
    let geom = ArrayGeometry::half_wavelength(4, 4, band.wavelength_m());
    for s in 0..n_surfaces {
        let pos = Vec3::new(next() * 10.0, next() * 10.0, 1.0 + next() * 1.5);
        let ang = next() * std::f64::consts::TAU;
        let pose = Pose::wall_mounted(pos, Vec3::xy(ang.cos(), ang.sin()));
        let mut surf = SurfaceInstance::new(format!("s{s}"), pose, geom, OperationMode::Reflective);
        if s % 2 == 1 {
            surf = surf.with_obstruction(0.3 + next() * 0.6);
        }
        sim.add_surface(surf);
    }
    sim
}

/// Brute-force control for `sim.linearize(tx, rx)`: same scene, no index.
fn brute_linearize(
    sim: &ChannelSim,
    tx: &Endpoint,
    rx: &Endpoint,
) -> surfos_channel::Linearization {
    let medium = Medium::new(&sim.plan, sim.blockers(), sim.surfaces(), sim.band);
    paths::trace_channel(
        &medium,
        tx,
        rx,
        sim.surfaces(),
        sim.enable_wall_reflections,
        sim.enable_cascades,
    )
    .linearize_at(&sim.band)
}

fn iso(id: &str, pos: Vec3) -> Endpoint {
    let mut e = Endpoint::client(id, pos);
    e.pattern = ElementPattern::Isotropic;
    e
}

proptest! {
    #[test]
    fn prop_indexed_linearize_bit_identical_to_brute(
        seed in 0u64..1_000_000,
        n_walls in 0usize..48,
        n_blockers in 0usize..4,
        n_surfaces in 0usize..3,
        tx_x in -1.0..11.0f64, tx_y in -1.0..11.0f64, tx_z in 0.2..3.5f64,
        rx_x in -1.0..11.0f64, rx_y in -1.0..11.0f64, rx_z in 0.2..3.5f64,
    ) {
        let sim = build_sim(seed, n_walls, n_blockers, n_surfaces);
        let tx = iso("tx", Vec3::new(tx_x, tx_y, tx_z));
        let rx = iso("rx", Vec3::new(rx_x, rx_y, rx_z));

        let indexed = sim.linearize(&tx, &rx);
        let brute = brute_linearize(&sim, &tx, &rx);

        prop_assert_eq!(
            indexed.constant.re.to_bits(), brute.constant.re.to_bits(),
            "constant.re diverged"
        );
        prop_assert_eq!(
            indexed.constant.im.to_bits(), brute.constant.im.to_bits(),
            "constant.im diverged"
        );
        prop_assert_eq!(indexed.linear.len(), brute.linear.len());
        for (a, b) in indexed.linear.iter().zip(&brute.linear) {
            prop_assert_eq!(a.surface, b.surface);
            prop_assert_eq!(a.coeffs.len(), b.coeffs.len());
            for (ca, cb) in a.coeffs.iter().zip(&b.coeffs) {
                prop_assert_eq!(ca.re.to_bits(), cb.re.to_bits());
                prop_assert_eq!(ca.im.to_bits(), cb.im.to_bits());
            }
        }
        prop_assert_eq!(indexed.bilinear.len(), brute.bilinear.len());
        for (a, b) in indexed.bilinear.iter().zip(&brute.bilinear) {
            prop_assert_eq!((a.first, a.second), (b.first, b.second));
            for (ca, cb) in a.alpha.iter().zip(&b.alpha) {
                prop_assert_eq!(ca.re.to_bits(), cb.re.to_bits());
                prop_assert_eq!(ca.im.to_bits(), cb.im.to_bits());
            }
            for (ca, cb) in a.beta.iter().zip(&b.beta) {
                prop_assert_eq!(ca.re.to_bits(), cb.re.to_bits());
                prop_assert_eq!(ca.im.to_bits(), cb.im.to_bits());
            }
        }
    }

    /// The batch API must match per-pair serial calls bit for bit (the
    /// fan-out shares one index and medium snapshot; chunk-ordered
    /// reassembly keeps ordering).
    #[test]
    fn prop_batch_matches_serial(
        seed in 0u64..1_000_000,
        n_walls in 0usize..24,
        n_pairs in 1usize..5,
    ) {
        let sim = build_sim(seed, n_walls, 1, 2);
        let mut next = rng(seed ^ 0xABCD);
        let endpoints: Vec<(Endpoint, Endpoint)> = (0..n_pairs)
            .map(|i| {
                (
                    iso(&format!("t{i}"), Vec3::new(next() * 10.0, next() * 10.0, 1.5)),
                    iso(&format!("r{i}"), Vec3::new(next() * 10.0, next() * 10.0, 1.2)),
                )
            })
            .collect();
        let pairs: Vec<(&Endpoint, &Endpoint)> =
            endpoints.iter().map(|(t, r)| (t, r)).collect();
        let batch = sim.linearize_batch(&pairs);
        prop_assert_eq!(batch.len(), pairs.len());
        for ((tx, rx), lin) in pairs.iter().zip(&batch) {
            let serial = sim.linearize(tx, rx);
            prop_assert_eq!(serial.constant.re.to_bits(), lin.constant.re.to_bits());
            prop_assert_eq!(serial.constant.im.to_bits(), lin.constant.im.to_bits());
            prop_assert_eq!(serial.linear.len(), lin.linear.len());
            prop_assert_eq!(serial.bilinear.len(), lin.bilinear.len());
        }
    }
}
