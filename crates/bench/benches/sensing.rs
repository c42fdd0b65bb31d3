//! Sensing benchmarks: AoA spectrum estimation and the differentiable
//! localization loss — the per-probe costs that bound how many sensing
//! tasks a frame can carry.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use surfos::em::array::{ArrayGeometry, SteeringVector};
use surfos::em::complex::Complex;
use surfos::sensing::aoa::{AngleGrid, AoaEstimator};

const LAMBDA: f64 = 0.0107;

fn k() -> f64 {
    2.0 * std::f64::consts::PI / LAMBDA
}

fn bench_spectrum(c: &mut Criterion) {
    let mut group = c.benchmark_group("sensing/spectrum");
    for (n, bins) in [(8usize, 41usize), (16, 81), (32, 81)] {
        let geom = ArrayGeometry::half_wavelength(n, n, LAMBDA);
        let est = AoaEstimator::new(&geom, k(), AngleGrid::uniform(bins, 1.3));
        let y = SteeringVector::compute(&geom, [0.3, 0.0, 1.0], k()).weights;
        group.bench_function(format!("{n}x{n}_{bins}bins"), |b| {
            b.iter(|| black_box(est.spectrum(black_box(&y))))
        });
    }
    group.finish();
}

fn bench_loss_gradient(c: &mut Criterion) {
    let mut group = c.benchmark_group("sensing/aoa_loss");
    let n = 16usize;
    let bins = 41;
    let geom = ArrayGeometry::half_wavelength(n, n, LAMBDA);
    let est = AoaEstimator::new(&geom, k(), AngleGrid::uniform(bins, 1.3));
    let coeffs = SteeringVector::compute(&geom, [0.2, 0.0, 1.0], k()).weights;
    let cal = vec![Complex::ONE; n * n];
    let lin = est.linearize(&coeffs, &cal, 0.2);
    let r: Vec<Complex> = (0..n * n).map(|i| Complex::cis(i as f64 * 0.1)).collect();
    group.bench_function("loss_16x16_41bins", |b| {
        b.iter(|| black_box(lin.loss(black_box(&r))))
    });
    group.bench_function("fused_16x16_41bins", |b| {
        b.iter(|| black_box(lin.loss_and_grad(black_box(&r))))
    });
    group.finish();
}

criterion_group!(benches, bench_spectrum, bench_loss_gradient);
criterion_main!(benches);
