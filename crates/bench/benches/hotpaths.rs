//! Criterion micro-benchmarks of GBDT training and MIC. The simulator
//! (allocation, event loop) and feature extraction are measured by the
//! benchmark's per-layer metrics (`sim.realloc.allocate_s`,
//! `sim.simulate_s`, `features.extract_s`) instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wdt_ml::{mic, Gbdt, GbdtParams, SplitStrategy};

/// Row-major synthetic regression data with continuous features (worst
/// case for the binner: every value distinct → full quantile path).
fn synth_matrix(n: usize, f: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..f)
                .map(|j| {
                    let z = (i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
                    (z >> 11) as f64 / (1u64 << 53) as f64 * 100.0
                })
                .collect()
        })
        .collect();
    let y: Vec<f64> = x.iter().map(|r| r[0] * r[1] + r[2] * r[2] - 3.0 * r[f - 1]).collect();
    (x, y)
}

fn bench_gbdt_fit(c: &mut Criterion) {
    let mut g = c.benchmark_group("gbdt_fit");
    g.sample_size(10);
    for &n in &[5_000usize, 50_000] {
        let (x, y) = synth_matrix(n, 15);
        let rounds = 20;
        for (name, split) in [("hist", SplitStrategy::Histogram), ("exact", SplitStrategy::Exact)] {
            let params = GbdtParams { n_rounds: rounds, split, ..Default::default() };
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| Gbdt::fit(&x, &y, &params))
            });
        }
    }
    g.finish();
}

fn bench_mic(c: &mut Criterion) {
    let mut g = c.benchmark_group("mic");
    g.sample_size(10);
    for &n in &[500usize, 2000] {
        let x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| (6.0 * v).sin() + 0.1 * (v * 777.0).fract()).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| b.iter(|| mic(&x, &y)));
    }
    g.finish();
}

criterion_group!(benches, bench_gbdt_fit, bench_mic);
criterion_main!(benches);
