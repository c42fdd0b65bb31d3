//! Configuration-optimizer benchmarks: the per-iteration cost of the
//! analytic-gradient path versus the baselines, across surface sizes —
//! the numbers that justify gradient descent as the paper's workhorse.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use std::hint::black_box;
use surfos::orchestrator::objective::{CoverageObjective, Objective};
use surfos::orchestrator::optimizer::{adam, greedy_quantized, random_search, AdamOptions, Tying};
use surfos::orchestrator::{ServiceGoal, ServiceRequest};
use surfos_bench::ApartmentLab;

fn coverage_objective(n: usize) -> CoverageObjective {
    let mut lab = ApartmentLab::new("bedroom-north");
    lab.deploy("s", "bedroom-north", n);
    CoverageObjective::new(&lab.sim, &lab.ap, &lab.grid, &lab.probe)
}

/// The loss alone (what random search and greedy descent pay per
/// candidate) and the fused loss + gradient (what one Adam step pays).
/// 128×128 is where a pass over the links' coefficients leaves the caches.
fn bench_loss_and_gradient(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer/loss_grad");
    for n in [8usize, 16, 32, 128] {
        let obj = coverage_objective(n);
        let responses: Vec<Vec<surfos::em::complex::Complex>> =
            vec![vec![surfos::em::complex::Complex::ONE; n * n]];
        if n <= 32 {
            group.bench_function(format!("loss_{n}x{n}"), |b| {
                b.iter(|| black_box(obj.loss(black_box(&responses))))
            });
        }
        group.bench_function(format!("fused_{n}x{n}"), |b| {
            b.iter(|| black_box(obj.loss_and_grad(black_box(&responses))))
        });
    }
    group.finish();
}

fn bench_adam_iterations(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer/adam_10iters");
    group.sample_size(10);
    for n in [16usize, 32] {
        let obj = coverage_objective(n);
        group.bench_function(format!("{n}x{n}"), |b| {
            b.iter(|| {
                black_box(adam(
                    &obj,
                    &[vec![0.0; n * n]],
                    &Tying::element_wise(1),
                    AdamOptions {
                        iters: 10,
                        lr: 0.15,
                        ..Default::default()
                    },
                ))
            })
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer/baselines");
    group.sample_size(10);
    let n = 16usize;
    let obj = coverage_objective(n);
    group.bench_function("random_search_100", |b| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            black_box(random_search(&obj, &[n * n], 100, &mut rng))
        })
    });
    group.bench_function("greedy_2bit_1pass", |b| {
        b.iter(|| {
            black_box(greedy_quantized(
                &obj,
                &[n * n],
                &Tying::element_wise(1),
                2,
                1,
            ))
        })
    });
    group.finish();
}

fn bench_column_tying(c: &mut Criterion) {
    // Column tying shrinks the parameter count; the per-iteration cost
    // should shrink accordingly.
    let mut group = c.benchmark_group("optimizer/tying");
    group.sample_size(10);
    let n = 32usize;
    let obj = coverage_objective(n);
    let opts = AdamOptions {
        iters: 10,
        lr: 0.15,
        ..Default::default()
    };
    group.bench_function("element_wise_10iters", |b| {
        b.iter(|| {
            black_box(adam(
                &obj,
                &[vec![0.0; n * n]],
                &Tying::element_wise(1),
                opts,
            ))
        })
    });
    group.bench_function("column_wise_10iters", |b| {
        let mut tying = Tying::element_wise(1);
        tying.tie_columns(0, n, n);
        b.iter(|| black_box(adam(&obj, &[vec![0.0; n * n]], &tying, opts)))
    });
    group.finish();
}

/// One kernel heartbeat with three live powering tasks on the daemon's
/// demo kernel: the joint Adam run `surfosd serve`'s ticker performs. The
/// kernel memoizes each slot's result on its exact inputs, so
/// `heartbeat_3tasks` alternates the tasks between two goals every step:
/// each step misses the one-entry memo and runs Adam. Three single-link
/// terms are too small to fan out, so this should cost about three
/// one-task heartbeats; a per-iteration thread hand-off shows up here as
/// a step change. `heartbeat_3tasks_steady` steps the unchanged set once
/// it has settled: the memo path.
fn bench_heartbeat(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer");
    let boot = || {
        let mut os = surfos::daemon::demo_kernel();
        let tasks: Vec<_> = (0..3)
            .map(|_| os.submit(ServiceRequest::init_powering("laptop", 3600.0)))
            .collect();
        (os, tasks)
    };

    let (mut os, tasks) = boot();
    os.step(200);
    let mut min_power_dbm = -10.0;
    group.bench_function("heartbeat_3tasks", |b| {
        b.iter(|| {
            min_power_dbm = -30.0 - min_power_dbm; // -10 ↔ -20 dBm
            for &t in &tasks {
                let task = os.orchestrator_mut().tasks.get_mut(t).expect("live task");
                task.request.goal = ServiceGoal::DeliveredPower { min_power_dbm };
            }
            black_box(os.step(200))
        })
    });

    // The first configuration is realized after its control delay and
    // re-optimized once from there; from then on every step hits.
    let (mut os, _) = boot();
    for _ in 0..4 {
        os.step(200);
    }
    group.bench_function("heartbeat_3tasks_steady", |b| {
        b.iter(|| black_box(os.step(200)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_loss_and_gradient,
    bench_adam_iterations,
    bench_baselines,
    bench_column_tying,
    bench_heartbeat
);
criterion_main!(benches);
