//! `figures`: Fig 4 and Fig 5 reproduced through the library calls at the
//! parameters the figure binaries use. One operation is one Fig 4
//! deployment point (`passive_only`, `programmable_only`, `hybrid`) or the
//! whole Fig 5 run; a round is all 20 Fig 4 points plus Fig 5.

use crate::checks::{self, Fig5Medians};
use crate::layers;
use crate::outcome::Outcome;
use crate::record::Recorder;
use crate::stats::{median, Samples, Timeline};
use crate::sysinfo;
use crate::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use surfos::obs;
use surfos::orchestrator::objective::{CoverageObjective, LocalizationObjective};
use surfos::sensing::eval::evaluate_localization;
use surfos::sensing::AngleGrid;
use surfos_bench::fig4::{self, ArmPoint};
use surfos_bench::{fig2, fig5, ApartmentLab};

/// Fig 5 surface side and Adam iterations (the `fig5` binary's values).
const FIG5_N: usize = 32;
const FIG5_ITERS: usize = 200;
/// Adam iterations of the passive arm (`fig4::sweep`'s value).
const PASSIVE_ITERS: usize = 80;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// One Fig 4 deployment point, in `fig4::sweep`'s order.
#[derive(Debug, Clone, Copy)]
enum Point {
    Passive(usize),
    Programmable(usize),
    Hybrid(usize, usize),
}

impl Point {
    fn sweep() -> Vec<Point> {
        let mut v: Vec<Point> = [32, 64, 96, 128, 192, 256].map(Point::Passive).to_vec();
        v.extend([16, 32, 48, 64, 96, 128].map(Point::Programmable));
        v.extend(
            [
                (32, 8),
                (48, 8),
                (48, 12),
                (64, 12),
                (64, 16),
                (96, 16),
                (96, 24),
                (128, 24),
            ]
            .map(|(s, p)| Point::Hybrid(s, p)),
        );
        v
    }

    fn op(self) -> &'static str {
        match self {
            Point::Passive(_) => "fig4.passive",
            Point::Programmable(_) => "fig4.programmable",
            Point::Hybrid(..) => "fig4.hybrid",
        }
    }

    fn eval(self) -> ArmPoint {
        match self {
            Point::Passive(n) => fig4::passive_only(n, PASSIVE_ITERS),
            Point::Programmable(n) => fig4::programmable_only(n),
            Point::Hybrid(s, p) => fig4::hybrid(s, p),
        }
    }
}

/// What Fig 5 builds before it optimizes: the lab, the shared surface and
/// the coverage and localization objectives (their channel traces).
fn setup_once() {
    let mut lab = ApartmentLab::new("bedroom-north");
    let idx = lab.deploy("shared", "bedroom-north", FIG5_N);
    black_box(CoverageObjective::new(
        &lab.sim, &lab.ap, &lab.grid, &lab.probe,
    ));
    black_box(LocalizationObjective::new(
        &lab.sim,
        idx,
        &lab.ap,
        &lab.probe,
        &lab.grid,
        AngleGrid::uniform(41, 1.3),
    ));
}

/// One round: every Fig 4 point in seed order, then Fig 5.
struct Round {
    points: Vec<(usize, ArmPoint)>,
    fig5: fig5::Fig5,
    op_ns: Samples,
    timeline: Timeline,
    fig4: Duration,
    fig5_time: Duration,
}

fn round(order: &[usize], sweep: &[Point], rec: &mut Recorder, out: &mut Outcome) -> Round {
    let mut op_ns = Samples::new();
    let mut timeline = Timeline::default();
    let mut points = Vec::new();
    let mut fig4_time = Duration::ZERO;
    for (k, &i) in order.iter().enumerate() {
        let t0 = Instant::now();
        let p = sweep[i].eval();
        let t1 = Instant::now();
        rec.record("fig4.point", k as u64, t0, t1, None);
        op_ns.push_duration(t1 - t0);
        timeline.push(t1, t1 - t0);
        fig4_time += t1 - t0;
        out.count(sweep[i].op(), false);
        points.push((i, p));
    }
    let t0 = Instant::now();
    let f5 = fig5::run(FIG5_N, FIG5_ITERS);
    let t1 = Instant::now();
    rec.record("fig5.run", 0, t0, t1, None);
    op_ns.push_duration(t1 - t0);
    timeline.push(t1, t1 - t0);
    out.count("fig5", false);
    Round {
        points,
        fig5: f5,
        op_ns,
        timeline,
        fig4: fig4_time,
        fig5_time: t1 - t0,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        setup_once();
        setups.push(t0.elapsed().as_secs_f64());
    }
    out.set_e2e("setup_s", median(&setups), "s");

    let sweep = Point::sweep();
    let mut order: Vec<usize> = (0..sweep.len()).collect();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xf19_0000);
    for i in (1..order.len()).rev() {
        order.swap(i, crate::below(&mut rng, i + 1));
    }

    let mut rec = Recorder::new(args.trace, epoch, 0);
    if args.trace {
        // Overhead: the three smallest points untraced, then traced.
        let probe = [0usize, 6, 12];
        let untraced: Duration = probe.iter().map(|&i| timed(|| sweep[i].eval())).sum();
        obs::reset();
        obs::set_enabled(true);
        let traced: Duration = probe.iter().map(|&i| timed(|| sweep[i].eval())).sum();
        obs::reset();
        out.set_layer(
            "obs.trace_overhead_ratio",
            traced.as_secs_f64() / untraced.as_secs_f64(),
        );
    }

    let start = Instant::now();
    let mut all = Samples::new();
    let mut timeline = Timeline::default();
    let (mut fig4_s, mut fig5_s) = (Vec::new(), Vec::new());
    let mut first_round_rss = 0.0;
    // Whole rounds only: another round starts only if it should end
    // within `--seconds` (the first always runs).
    loop {
        let t0 = Instant::now();
        let r = round(&order, &sweep, &mut rec, &mut out);
        all.extend(&r.op_ns);
        timeline.extend(&r.timeline);
        fig4_s.push(r.fig4.as_secs_f64());
        fig5_s.push(r.fig5_time.as_secs_f64());
        check_round(&mut out, r);
        // Read after the first round: the allocator keeps some of a
        // round's memory, so a host fast enough for a second round would
        // read ~18 % higher for the same work.
        if fig4_s.len() == 1 {
            first_round_rss = sysinfo::peak_rss_mb();
        }
        if start.elapsed().as_secs_f64() + t0.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }

    if args.trace {
        let snap = obs::snapshot();
        obs::set_enabled(false);
        layers::kernel_snapshot(&mut out, &snap);
        layers::lincache_snapshot(&mut out, &snap);
        // Per traced figure round: a faster host runs more rounds.
        out.set_layer(
            "orchestrator.adam_iters",
            snap.counters
                .get("orchestrator.adam.iters")
                .copied()
                .unwrap_or(0) as f64
                / fig4_s.len() as f64,
        );
        let (n, total, _) = layers::span_stats(&snap, "channel.heatmap");
        if n > 0 {
            out.set_layer("channel.heatmap_ms", total as f64 / n as f64 / 1e6);
        }
        out.snapshot = Some(snap);
        sensing_probe(&mut out, &mut rec);
        out.recorder = Some(rec);
    } else {
        out.set_e2e("peak_rss_mb", first_round_rss, "MB");
        out.set_e2e_timeline(&timeline, start);
        out.detail_latency("figure point", &all);
        out.detail("fig4_s", format!("{:?}", median(&fig4_s)));
        out.detail("fig5_s", format!("{:?}", median(&fig5_s)));
    }
    out
}

fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t = Instant::now();
    black_box(f());
    t.elapsed()
}

/// Checks one round's figures against the properties the paper claims.
fn check_round(out: &mut Outcome, mut r: Round) {
    r.points.sort_by_key(|p| p.0);
    let points: Vec<ArmPoint> = r.points.into_iter().map(|p| p.1).collect();
    out.check(checks::check_fig4(&points));
    let medians: Vec<Fig5Medians> = r
        .fig5
        .configs
        .iter()
        .map(|c| Fig5Medians {
            loc_error_m: c.loc_error_m.median(),
            snr_db: c.snr_db.median(),
        })
        .collect();
    match medians.as_slice() {
        [multi, loc, cov] => out.check(checks::check_fig5(*multi, *loc, *cov)),
        _ => out.fail(format!("fig5: {} configurations, want 3", medians.len())),
    }
}

/// AoA localization per location on the Fig 5 lab.
fn sensing_probe(out: &mut Outcome, rec: &mut Recorder) {
    let mut lab = ApartmentLab::new("bedroom-north");
    let idx = lab.deploy("shared", "bedroom-north", FIG5_N);
    let grid = lab.heatmap_grid(8, 6);
    let noise = fig2::sounding_noise_std(&lab, idx);
    let mut rng = StdRng::seed_from_u64(5);
    let t0 = Instant::now();
    black_box(evaluate_localization(
        &lab.sim,
        idx,
        &lab.ap,
        &lab.probe,
        &grid,
        AngleGrid::uniform(81, 1.3),
        noise,
        &mut rng,
    ));
    let t1 = Instant::now();
    rec.record("probe.sensing.aoa", 0, t0, t1, None);
    out.set_layer(
        "sensing.aoa_us",
        (t1 - t0).as_secs_f64() * 1e6 / grid.len() as f64,
    );
}
