//! `campus-walk`: a 4-zone `ShardedKernel` over the 16 272-wall
//! four-building campus the shard benches use — 12 in-building links, four
//! 16×16 surfaces, a corridor walker per building and a street courier
//! that crosses zones — replayed in heartbeat-period `replay_tick`s with a
//! cold `linearize_links` every `ROUND`-th operation.

use crate::checks;
use crate::layers;
use crate::outcome::Outcome;
use crate::record::Recorder;
use crate::stats::{median, Samples, Timeline};
use crate::sysinfo;
use crate::Args;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};
use surfos::channel::dynamics::BlockerWalk;
use surfos::channel::{Endpoint, OperationMode, SurfaceInstance};
use surfos::em::array::ArrayGeometry;
use surfos::em::band::NamedBand;
use surfos::geometry::{Pose, Vec3};
use surfos::obs;
use surfos::shard::{ShardedKernel, Zone};
use surfos_bench::scenes::{building_extent, campus_plan, probe_segments_in, CampusPlan};

const BUILDINGS: usize = 4;
/// (16, 42) is the 4064-wall building; four of them plus shells make
/// 16 272 walls.
const FLOORS: usize = 16;
const ROOMS: usize = 42;
/// The campus plan is fixed (the shard benches' scene); the seed moves the
/// clients by up to 0.2 m and the walkers' speeds by up to ±2 %, small
/// enough that every seed does about the same work.
const SCENE_SEED: u64 = 11;
/// Simulated time per heartbeat, ms.
const TICK_MS: u64 = 100;
/// Operations per round: `ROUND - 1` replay ticks, then one cold
/// re-linearization of every link.
const ROUND: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Shard workers of the measured phases. The default pool
/// (`configured_threads()` workers) spawns fresh threads for both phases
/// of every tick, and on a shared 2-core host its tick time follows the
/// host's load: over five seeds its throughput spread 0.9 against 0.08
/// with one worker. A traced run times the default pool apart
/// (`shard.pool_tick_us`).
const MEASURED_WORKERS: usize = 1;
/// Seconds a traced run replays with the default pool.
const POOL_PROBE_S: f64 = 2.0;

/// The campus inputs a seed picks.
struct Layout {
    clients: Vec<[Vec3; 3]>,
    walker_speed: Vec<f64>,
    courier_speed: f64,
}

impl Layout {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00ca_4b05);
        let base = [
            Vec3::new(2.0, 2.0, 1.2),
            Vec3::new(84.0, 100.0, 1.2),
            Vec3::new(160.0, 216.0, 1.5),
        ];
        let mut jitter = |v: Vec3| {
            Vec3::new(
                v.x + rng.random::<f64>() * 0.2,
                v.y + rng.random::<f64>() * 0.2,
                v.z,
            )
        };
        let clients = (0..BUILDINGS).map(|_| base.map(&mut jitter)).collect();
        let walker_speed = (0..BUILDINGS)
            .map(|_| 1.4 * (0.98 + 0.04 * rng.random::<f64>()))
            .collect();
        Layout {
            clients,
            walker_speed,
            courier_speed: 20.0 * (0.98 + 0.04 * rng.random::<f64>()),
        }
    }
}

/// The campus kernel at an explicit zone table: per building one 16×16
/// surface above the first client's doorway, three AP→client links and a
/// corridor walker; one courier in the south street.
fn build(campus: &CampusPlan, zones: Vec<Zone>, layout: &Layout) -> ShardedKernel {
    let band = NamedBand::MmWave28GHz.band();
    let mut kernel = ShardedKernel::new(&campus.plan, band, zones);
    kernel.set_worker_threads(Some(MEASURED_WORKERS));
    let geom = ArrayGeometry::half_wavelength(16, 16, band.wavelength_m());
    for (b, building) in campus.buildings.iter().enumerate() {
        let origin = building.origin;
        kernel.add_surface(SurfaceInstance::new(
            format!("b{b}-wall"),
            Pose::wall_mounted(origin + Vec3::new(2.0, 5.0, 1.8), Vec3::new(0.0, -1.0, 0.0)),
            geom,
            OperationMode::Reflective,
        ));
        for (i, client) in layout.clients[b].iter().enumerate() {
            kernel
                .add_link(
                    Endpoint::client(format!("b{b}-ap"), origin + Vec3::new(84.0, 6.0, 2.5)),
                    Endpoint::client(format!("b{b}-rx{i}"), origin + *client),
                )
                .expect("in-building link");
        }
        kernel.attach_walk(BlockerWalk::new(
            vec![origin + Vec3::xy(2.0, 6.0), origin + Vec3::xy(166.0, 6.0)],
            layout.walker_speed[b],
        ));
    }
    kernel.attach_walk(BlockerWalk::new(
        vec![Vec3::xy(84.0, -3.6), Vec3::xy(260.0, -3.6)],
        layout.courier_speed,
    ));
    kernel
}

/// Operations per second the sample buffers have room for (well above
/// the ~3.3 k/s a 2-core host reaches).
const MAX_OPS_PER_S: f64 = 10_000.0;

/// Every op's completion time and latency, and the ticks' and cold
/// re-linearizations' latencies apart.
struct Phase {
    timeline: Timeline,
    start: Instant,
    ticks: Samples,
    relin: Samples,
}

fn measure(kernel: &mut ShardedKernel, secs: f64, out: &mut Outcome, rec: &mut Recorder) -> Phase {
    let room = (secs * MAX_OPS_PER_S) as usize;
    let start = Instant::now();
    let mut p = Phase {
        timeline: Timeline::with_room(room),
        start,
        ticks: Samples::with_room(room),
        relin: Samples::with_room(room / ROUND),
    };
    let deadline = start + Duration::from_secs_f64(secs);
    let mut op = 0u64;
    while Instant::now() < deadline {
        for i in 0..ROUND {
            let cold = i == ROUND - 1;
            let t0 = Instant::now();
            if cold {
                black_box(kernel.linearize_links());
            } else {
                kernel.replay_tick(TICK_MS);
            }
            let t1 = Instant::now();
            let name = if cold {
                "campus.relinearize"
            } else {
                "campus.tick"
            };
            rec.record(name, op, t0, t1, None);
            op += 1;
            p.timeline.push(t1, t1 - t0);
            if cold {
                p.relin.push_duration(t1 - t0);
            } else {
                p.ticks.push_duration(t1 - t0);
            }
            out.count(if cold { "relinearize" } else { "tick" }, false);
        }
    }
    p
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let layout = Layout::new(args.seed);
    let epoch = Instant::now();
    let mut rec = Recorder::new(args.trace, epoch, 0);

    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let t0 = Instant::now();
        let campus = campus_plan(BUILDINGS, FLOORS, ROOMS, SCENE_SEED);
        let mut kernel = build(&campus, campus.zones(), &layout);
        // The first tick traces every link cold and fills the caches.
        kernel.replay_tick(TICK_MS);
        setups.push(t0.elapsed().as_secs_f64());
        rig = Some((campus, kernel));
    }
    out.set_e2e("setup_s", median(&setups), "s");
    let (campus, mut kernel) = rig.expect("SETUPS > 0");

    let phases: Vec<(bool, f64)> = if args.trace {
        vec![(false, args.seconds / 2.0), (true, args.seconds / 2.0)]
    } else {
        vec![(false, args.seconds)]
    };
    let mut tick_p50 = Vec::new();
    for &(traced, secs) in &phases {
        if traced {
            obs::reset();
            obs::set_enabled(true);
        }
        let before = (kernel.cache_stats(), kernel.handoffs());
        let mut p = measure(&mut kernel, secs, &mut out, &mut rec);
        tick_p50.push(p.ticks.median_ns() as f64);
        if traced {
            out.snapshot = Some(obs::snapshot());
            obs::set_enabled(false);
            let snap = out.snapshot.clone().expect("just taken");
            layers::lincache_snapshot(&mut out, &snap);
            for (span, metric) in [
                ("kernel.shard.route", "shard.route_us"),
                ("kernel.shard.eval", "shard.eval_us"),
            ] {
                let (n, total, _) = layers::span_stats(&snap, span);
                if n > 0 {
                    out.set_layer(metric, total as f64 / n as f64 / 1e3);
                }
            }
            let after = kernel.cache_stats();
            out.set_layer(
                "channel.refreshes_per_tick",
                (after.refreshes - before.0.refreshes) as f64 / p.ticks.len().max(1) as f64,
            );
            out.set_layer("shard.handoffs", (kernel.handoffs() - before.1) as f64);
            out.set_layer(
                "channel.linearize_cold_us",
                p.relin.median_ns() as f64 / 1e3 / (3 * BUILDINGS) as f64,
            );
        } else {
            out.set_e2e("peak_rss_mb", sysinfo::peak_rss_mb(), "MB");
            out.set_e2e_timeline(&p.timeline, p.start);
            out.detail_latency("heartbeat", &p.timeline.latencies());
            out.detail_latency("replay tick", &p.ticks);
            out.detail_latency("cold relinearize", &p.relin);
        }
    }
    if args.trace {
        out.set_layer(
            "obs.trace_overhead_ratio",
            tick_p50[1] / tick_p50[0].max(1.0),
        );
        geometry_probe(&mut out, &campus, args.seed);
        // The same kernel on the default pool; the checks below then also
        // cover the ticks it ran.
        kernel.set_worker_threads(None);
        let mut p = measure(&mut kernel, POOL_PROBE_S, &mut out, &mut rec);
        out.set_layer("shard.pool_tick_us", p.ticks.median_ns() as f64 / 1e3);
        kernel.set_worker_threads(Some(MEASURED_WORKERS));
    }
    out.detail("shard_workers", MEASURED_WORKERS.to_string());

    // The 4-zone kernel must match a 1-zone (flat) kernel advanced to the
    // same time, bit for bit, both from its caches and traced cold.
    let mut flat = build(&campus, vec![Zone::all()], &layout);
    flat.replay_tick(kernel.now_ms());
    out.check(checks::check_linearizations(
        "campus replay vs flat",
        &kernel.linearizations(),
        &flat.linearizations(),
    ));
    out.check(checks::check_linearizations(
        "campus cold vs flat",
        &kernel.linearize_links(),
        &flat.linearize_links(),
    ));
    if kernel.handoffs() == 0 {
        out.fail("campus: the courier never crossed a zone boundary");
    }
    out.detail("handoffs", kernel.handoffs().to_string());
    out.detail("walls", campus.plan.walls().len().to_string());
    out.detail("simulated_s", format!("{:?}", kernel.now_ms() as f64 / 1e3));
    if args.trace {
        out.recorder = Some(rec);
    }
    out
}

/// Wall-index build and indexed segment crossings on the campus plan.
fn geometry_probe(out: &mut Outcome, campus: &CampusPlan, seed: u64) {
    let plan = &campus.plan;
    let mut builds = Vec::new();
    let mut index = None;
    for _ in 0..3 {
        let t = Instant::now();
        index = Some(plan.build_wall_index());
        builds.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set_layer("geometry.wall_index_build_ms", median(&builds));
    let index = index.expect("built");
    let (x, y) = building_extent(FLOORS, ROOMS);
    let segments = probe_segments_in(2000, seed, x, y);
    let mut s = Samples::new();
    for &(a, b) in &segments {
        let t = Instant::now();
        black_box(plan.crossings_with(&index, a, b));
        s.push_duration(t.elapsed());
    }
    out.set_layer("geometry.crossings_ns", s.median_ns() as f64);
}
