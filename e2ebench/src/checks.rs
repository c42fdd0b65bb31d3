//! Correctness checks. Each compares the program's output against an
//! independent computation or a property the method must have — never
//! against a stored copy of earlier output. The tests at the bottom feed
//! every check a deliberately wrong output and confirm it is rejected.

use surfos::channel::Linearization;
use surfos::rpc::proto::Response;
use surfos_bench::fig4::ArmPoint;

/// Boltzmann constant, J/K (exact SI value).
const BOLTZMANN: f64 = 1.380_649e-23;
/// Reference noise temperature, K.
const T0_KELVIN: f64 = 290.0;
/// Absolute tolerance on the recomputed SNR, dB.
const SNR_TOL_DB: f64 = 1e-9;
/// Relative tolerance on the recomputed capacity.
const CAPACITY_TOL: f64 = 1e-9;

/// Thermal noise over `bandwidth_hz` plus the receiver noise figure, dBm:
/// `10·log10(k·T0·B / 1 mW) + NF` (≈ `−174 + 10·log10 B + NF`).
pub fn noise_dbm(bandwidth_hz: f64, noise_figure_db: f64) -> f64 {
    10.0 * (BOLTZMANN * T0_KELVIN * bandwidth_hz * 1e3).log10() + noise_figure_db
}

/// A `Channel` answer must satisfy `snr = rss − noise` and
/// `capacity = B·log2(1 + 10^(snr/10))`. The comparisons are negated so a
/// NaN anywhere fails.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn check_channel(
    rss_dbm: f64,
    snr_db: f64,
    capacity_bps: f64,
    bandwidth_hz: f64,
    noise_figure_db: f64,
) -> Result<(), String> {
    let want_snr = rss_dbm - noise_dbm(bandwidth_hz, noise_figure_db);
    if !((snr_db - want_snr).abs() <= SNR_TOL_DB) {
        return Err(format!(
            "channel snr {snr_db} dB disagrees with rss {rss_dbm} dBm (want {want_snr} dB)"
        ));
    }
    let want_cap = bandwidth_hz * (1.0 + 10f64.powf(snr_db / 10.0)).log2();
    if !((capacity_bps - want_cap).abs() <= CAPACITY_TOL * want_cap.abs().max(1.0)) {
        return Err(format!(
            "channel capacity {capacity_bps} b/s disagrees with snr {snr_db} dB (want {want_cap})"
        ));
    }
    Ok(())
}

/// A response must echo its request's id and answer its op with the
/// matching kind: `query` → `channel`, `register` → `registered`,
/// `release` → `released` (same lease), `intent` → a non-empty task list.
pub fn check_response(
    op: &str,
    sent_id: u64,
    got_id: u64,
    response: &Response,
    released: Option<u64>,
) -> Result<(), String> {
    if sent_id != got_id {
        return Err(format!("{op} #{sent_id} answered with id {got_id}"));
    }
    let ok = match (op, response) {
        ("query", Response::Channel { .. }) => true,
        ("register", Response::Registered { .. }) => true,
        ("release", Response::Released { service }) => released.is_none_or(|s| s == *service),
        ("intent", Response::IntentTasks { tasks }) => !tasks.is_empty(),
        ("ping", Response::Pong { .. }) => true,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{op} #{sent_id} answered with {response:?}"))
    }
}

/// Linearizations are compared bit for bit: `{:?}` prints every `f64` in
/// its shortest round-trip form, so equal text means equal bits.
pub fn check_linearizations(
    label: &str,
    got: &[Linearization],
    want: &[Linearization],
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{label}: {} links vs {}", got.len(), want.len()));
    }
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        if format!("{a:?}") != format!("{b:?}") {
            return Err(format!("{label}: link {i} differs bit-wise"));
        }
    }
    Ok(())
}

fn arm<'a>(points: &'a [ArmPoint], prefix: &str) -> Vec<&'a ArmPoint> {
    points
        .iter()
        .filter(|p| p.label.starts_with(prefix))
        .collect()
}

/// Fig 4: median SNR is non-decreasing in size for the passive and
/// programmable arms (each arm's points come in increasing size), and the
/// hybrid reaches 10 and 15 dB more cheaply than programmable-only and
/// with less aperture than passive-only.
pub fn check_fig4(points: &[ArmPoint]) -> Result<(), String> {
    for prefix in ["passive", "programmable"] {
        let mut pts = arm(points, prefix);
        if pts.len() < 2 {
            return Err(format!("fig4: arm {prefix} has {} points", pts.len()));
        }
        pts.sort_by(|a, b| a.area_m2.total_cmp(&b.area_m2));
        for w in pts.windows(2) {
            if w[1].median_snr_db < w[0].median_snr_db {
                return Err(format!(
                    "fig4: {} reaches {:.2} dB, less than the smaller {} at {:.2} dB",
                    w[1].label, w[1].median_snr_db, w[0].label, w[0].median_snr_db
                ));
            }
        }
    }
    let reach = |prefix: &str, target: f64| -> Vec<&ArmPoint> {
        arm(points, prefix)
            .into_iter()
            .filter(|p| p.median_snr_db >= target)
            .collect()
    };
    for target in [10.0, 15.0] {
        let hybrid = reach("hybrid", target);
        let cheapest = hybrid
            .iter()
            .min_by(|a, b| a.cost_usd.total_cmp(&b.cost_usd))
            .ok_or(format!("fig4: no hybrid point reaches {target} dB"))?;
        let smallest = hybrid
            .iter()
            .min_by(|a, b| a.area_m2.total_cmp(&b.area_m2))
            .expect("non-empty");
        if let Some(p) = reach("programmable", target)
            .into_iter()
            .find(|p| p.cost_usd <= cheapest.cost_usd)
        {
            return Err(format!(
                "fig4: at {target} dB {} (${:.0}) is no dearer than the hybrid {} (${:.0})",
                p.label, p.cost_usd, cheapest.label, cheapest.cost_usd
            ));
        }
        if let Some(p) = reach("passive", target)
            .into_iter()
            .find(|p| p.area_m2 <= smallest.area_m2)
        {
            return Err(format!(
                "fig4: at {target} dB {} ({:.3} m²) is no larger than the hybrid {} ({:.3} m²)",
                p.label, p.area_m2, smallest.label, smallest.area_m2
            ));
        }
    }
    Ok(())
}

/// Fig 5 tolerance on the multitask median localization error over the
/// best single-task configuration's, m.
pub const FIG5_LOC_TOL_M: f64 = 0.25;
/// Fig 5 tolerance on the multitask median SNR under the best single-task
/// configuration's, dB.
pub const FIG5_SNR_TOL_DB: f64 = 3.0;

/// One Fig 5 configuration's medians.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Medians {
    pub loc_error_m: f64,
    pub snr_db: f64,
}

/// Fig 5: the multitask configuration stays within the tolerances of the
/// best single-task result on both metrics, beats coverage-opt on
/// localization and localization-opt on SNR. NaN medians fail.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn check_fig5(
    multi: Fig5Medians,
    loc_opt: Fig5Medians,
    cov_opt: Fig5Medians,
) -> Result<(), String> {
    let best_loc = loc_opt.loc_error_m.min(cov_opt.loc_error_m);
    let best_snr = loc_opt.snr_db.max(cov_opt.snr_db);
    if !(multi.loc_error_m <= best_loc + FIG5_LOC_TOL_M) {
        return Err(format!(
            "fig5: multitask localization {:.3} m is beyond {best_loc:.3} m + {FIG5_LOC_TOL_M}",
            multi.loc_error_m
        ));
    }
    if !(multi.snr_db >= best_snr - FIG5_SNR_TOL_DB) {
        return Err(format!(
            "fig5: multitask SNR {:.2} dB is below {best_snr:.2} dB − {FIG5_SNR_TOL_DB}",
            multi.snr_db
        ));
    }
    if !(multi.loc_error_m < cov_opt.loc_error_m) {
        return Err("fig5: multitask does not localize better than coverage-opt".into());
    }
    if !(multi.snr_db > loc_opt.snr_db) {
        return Err("fig5: multitask SNR is not above localization-opt".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfos::em::complex::Complex;
    use surfos::em::noise;

    const B: f64 = 400e6;

    fn good_channel(rss: f64, nf: f64) -> (f64, f64, f64) {
        let snr = noise::snr_db(rss, noise::noise_power_dbm(B, nf));
        (rss, snr, noise::shannon_capacity_bps(snr, B))
    }

    #[test]
    fn channel_check_accepts_the_program_formula() {
        for rss in [-110.0, -96.58, -40.0, 3.5] {
            let (r, s, c) = good_channel(rss, 9.0);
            check_channel(r, s, c, B, 9.0).unwrap();
        }
    }

    #[test]
    fn channel_check_rejects_capacity_that_disagrees_with_snr() {
        let (r, s, c) = good_channel(-80.0, 9.0);
        assert!(check_channel(r, s, c * (1.0 + 1e-6), B, 9.0).is_err());
    }

    #[test]
    fn channel_check_rejects_snr_that_disagrees_with_rss() {
        let (r, s, c) = good_channel(-80.0, 9.0);
        assert!(check_channel(r + 0.01, s, c, B, 9.0).is_err());
        // The wrong noise figure (an AP's 7 dB for a client's 9 dB).
        assert!(check_channel(r, s, c, B, 7.0).is_err());
        assert!(check_channel(r, f64::NAN, c, B, 9.0).is_err());
    }

    #[test]
    fn response_check_rejects_id_and_kind_mismatches() {
        let ch = Response::Channel {
            rss_dbm: 0.0,
            snr_db: 0.0,
            capacity_bps: 0.0,
        };
        check_response("query", 4, 4, &ch, None).unwrap();
        assert!(check_response("query", 4, 5, &ch, None).is_err());
        assert!(check_response("register", 4, 4, &ch, None).is_err());
        let rej = Response::Rejected {
            reason: "quota".into(),
        };
        assert!(check_response("register", 1, 1, &rej, None).is_err());
        let empty = Response::IntentTasks { tasks: vec![] };
        assert!(check_response("intent", 2, 2, &empty, None).is_err());
        let rel = Response::Released { service: 3 };
        check_response("release", 2, 2, &rel, Some(3)).unwrap();
        assert!(check_response("release", 2, 2, &rel, Some(4)).is_err());
    }

    fn lin() -> Linearization {
        Linearization {
            constant: Complex {
                re: 1e-5,
                im: -2e-6,
            },
            linear: vec![surfos::channel::linear::LinearTerm {
                surface: 0,
                coeffs: vec![Complex { re: 0.25, im: 0.5 }; 4],
            }],
            bilinear: vec![],
        }
    }

    #[test]
    fn linearization_check_rejects_one_perturbed_bit() {
        let want = vec![lin(), lin()];
        check_linearizations("campus", &want, &want).unwrap();
        let mut got = want.clone();
        let c = &mut got[1].linear[0].coeffs[2].im;
        *c = f64::from_bits(c.to_bits() ^ 1);
        assert!(check_linearizations("campus", &got, &want).is_err());
        assert!(check_linearizations("campus", &want[..1], &want).is_err());
    }

    fn point(label: &str, cost: f64, area: f64, snr: f64) -> ArmPoint {
        ArmPoint {
            label: label.into(),
            cost_usd: cost,
            area_m2: area,
            median_snr_db: snr,
        }
    }

    fn fig4_points() -> Vec<ArmPoint> {
        vec![
            point("passive 128×128", 35.0, 0.47, 7.4),
            point("passive 192×192", 76.0, 1.06, 11.8),
            point("passive 256×256", 133.0, 1.88, 15.7),
            point("programmable 96×96", 23130.0, 0.26, 13.0),
            point("programmable 128×128", 41050.0, 0.47, 17.3),
            point("hybrid 48×48P + 12×12R", 457.0, 0.070, 13.0),
            point("hybrid 64×64P + 12×12R", 460.0, 0.122, 18.2),
        ]
    }

    #[test]
    fn fig4_check_accepts_the_paper_shape() {
        check_fig4(&fig4_points()).unwrap();
    }

    #[test]
    fn fig4_check_rejects_a_hybrid_that_costs_more() {
        let mut pts = fig4_points();
        for p in pts.iter_mut().filter(|p| p.label.starts_with("hybrid")) {
            p.cost_usd = 50_000.0;
        }
        assert!(check_fig4(&pts).is_err());
    }

    #[test]
    fn fig4_check_rejects_a_hybrid_that_needs_more_area() {
        let mut pts = fig4_points();
        for p in pts.iter_mut().filter(|p| p.label.starts_with("hybrid")) {
            p.area_m2 = 2.0;
        }
        assert!(check_fig4(&pts).is_err());
    }

    #[test]
    fn fig4_check_rejects_snr_falling_with_size() {
        let mut pts = fig4_points();
        pts[1].median_snr_db = 5.0;
        assert!(check_fig4(&pts).is_err());
    }

    #[test]
    fn fig5_check_accepts_the_paper_claim_and_rejects_a_poor_multitask() {
        let m = |l, s| Fig5Medians {
            loc_error_m: l,
            snr_db: s,
        };
        let (loc, cov) = (m(0.30, 6.0), m(2.85, 20.9));
        check_fig5(m(0.30, 19.2), loc, cov).unwrap();
        // Localizes no better than coverage-opt.
        assert!(check_fig5(m(2.9, 19.2), loc, cov).is_err());
        // Loses too much SNR.
        assert!(check_fig5(m(0.30, 12.0), loc, cov).is_err());
        // Slightly beyond the localization tolerance.
        assert!(check_fig5(m(0.30 + FIG5_LOC_TOL_M + 0.01, 19.2), loc, cov).is_err());
    }
}
