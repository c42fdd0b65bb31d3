//! Channel-simulator micro-benchmarks: the cost of ray tracing
//! (linearization) and of re-evaluating channels from cached
//! linearizations — the asymmetry the optimizer's design relies on.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use surfos::channel::Endpoint;
use surfos_bench::ApartmentLab;

fn bench_linearize(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel/linearize");
    for n in [8usize, 16, 32] {
        let mut lab = ApartmentLab::new("bedroom-north");
        lab.deploy("s", "bedroom-north", n);
        let rx = Endpoint::client("rx", lab.grid[10]);
        group.bench_function(format!("{n}x{n}"), |b| {
            b.iter(|| black_box(lab.sim.linearize(&lab.ap, &rx)))
        });
    }
    group.finish();
}

fn bench_cached_evaluate(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel/evaluate_cached");
    for n in [16usize, 32] {
        let mut lab = ApartmentLab::new("bedroom-north");
        lab.deploy("s", "bedroom-north", n);
        let rx = Endpoint::client("rx", lab.grid[10]);
        let lin = lab.sim.linearize(&lab.ap, &rx);
        let responses = lab.sim.responses();
        group.bench_function(format!("{n}x{n}"), |b| {
            b.iter(|| black_box(lin.evaluate(black_box(&responses))))
        });
    }
    group.finish();
}

fn bench_cascade_scene(c: &mut Criterion) {
    // Two surfaces: linearization now includes bilinear cascade terms.
    let mut lab = ApartmentLab::new("living-wall");
    lab.deploy("backhaul", "living-wall", 32);
    lab.deploy("steer", "bedroom-wall", 16);
    let rx = Endpoint::client("rx", lab.grid[10]);
    c.bench_function("channel/linearize_with_cascades", |b| {
        b.iter(|| black_box(lab.sim.linearize(&lab.ap, &rx)))
    });
}

fn bench_heatmap(c: &mut Criterion) {
    let mut lab = ApartmentLab::new("bedroom-north");
    lab.deploy("s", "bedroom-north", 16);
    let grid = lab.heatmap_grid(10, 8);
    c.bench_function("channel/rss_heatmap_80pts_16x16", |b| {
        b.iter(|| black_box(lab.sim.rss_heatmap(&lab.ap, &grid, &lab.probe)))
    });
}

fn bench_frequency_response(c: &mut Criterion) {
    // One trace, then one cheap re-phasing evaluation per subcarrier.
    let mut lab = ApartmentLab::new("bedroom-north");
    lab.deploy("s", "bedroom-north", 16);
    let rx = Endpoint::client("rx", lab.grid[10]);
    let mut group = c.benchmark_group("channel/frequency_response");
    group.sample_size(20);
    group.bench_function("trace_once_128pts_16x16", |b| {
        b.iter(|| black_box(lab.sim.frequency_response(&lab.ap, &rx, 128)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_linearize,
    bench_cached_evaluate,
    bench_cascade_scene,
    bench_heatmap,
    bench_frequency_response
);
criterion_main!(benches);
