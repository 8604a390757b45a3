//! Criterion micro-benchmarks of the workspace's hot paths: max–min
//! allocation, feature extraction, GBDT training, MIC, and the simulator
//! event loop.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use wdt_features::extract_features;
use wdt_ml::{mic, Gbdt, GbdtParams, SplitStrategy};
use wdt_sim::{allocate, FlowDemand, SimConfig, Simulator};
use wdt_types::{Bytes, EndpointId, SeedSeq, SimTime, TransferId, TransferRecord, TransferRequest};
use wdt_workload::{ArrivalMix, FleetSpec, WorkloadSpec};

fn synth_records(n: usize) -> Vec<TransferRecord> {
    (0..n)
        .map(|i| {
            let s = (i as f64 * 37.0) % 50_000.0;
            TransferRecord {
                id: TransferId(i as u64),
                src: EndpointId((i % 12) as u32),
                dst: EndpointId((12 + i % 10) as u32),
                start: SimTime::seconds(s),
                end: SimTime::seconds(s + 100.0 + (i % 900) as f64),
                bytes: Bytes::gb(1.0 + (i % 50) as f64),
                files: 1 + (i % 2000) as u64,
                dirs: 1 + (i % 40) as u64,
                concurrency: 1 + (i % 8) as u32,
                parallelism: 1 + (i % 4) as u32,
                faults: (i % 7 == 0) as u32,
            }
        })
        .collect()
}

fn bench_alloc(c: &mut Criterion) {
    let mut g = c.benchmark_group("allocate");
    for &n in &[10usize, 100, 400] {
        let capacities: Vec<f64> = (0..60).map(|i| 1e8 + (i as f64) * 1e7).collect();
        let flows: Vec<FlowDemand> = (0..n)
            .map(|i| {
                FlowDemand::new(
                    5e7 + (i % 13) as f64 * 1e7,
                    1.0 + (i % 5) as f64,
                    &[(i * 7) % 60, (i * 11) % 60, (i * 13) % 60, (i * 17) % 60],
                )
            })
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| allocate(&capacities, &flows))
        });
    }
    g.finish();
}

fn bench_features(c: &mut Criterion) {
    let mut g = c.benchmark_group("extract_features");
    g.sample_size(20);
    for &n in &[2_000usize, 10_000] {
        let records = synth_records(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| extract_features(&records))
        });
    }
    g.finish();
}

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

fn bench_simulator(c: &mut Criterion) {
    let w = WorkloadSpec {
        fleet: FleetSpec { sites: 12, extra_servers: 2, personal: 4 },
        heavy_edges: 4,
        heavy_sessions_per_day: 12.0,
        heavy_session_len: 4.0,
        sparse_edges: 20,
        days: 2.0,
        mix: ArrivalMix::default(),
    }
    .generate(&SeedSeq::new(3));
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.bench_function(format!("2days_{}transfers", w.requests.len()), |b| {
        b.iter_batched(
            || {
                let mut sim =
                    Simulator::new(w.endpoints.clone(), SimConfig::default(), &SeedSeq::new(3));
                sim.add_default_background(4, 0.4);
                for r in &w.requests {
                    sim.submit(r.clone());
                }
                sim
            },
            |sim| sim.run(),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_single_transfer(c: &mut Criterion) {
    // The cost of one complete simulated transfer (instrument-style).
    let testbed = wdt_sim::esnet_testbed();
    c.bench_function("simulate_one_transfer", |b| {
        b.iter_batched(
            || {
                let mut sim =
                    Simulator::new(testbed.clone(), SimConfig::testbed(), &SeedSeq::new(9));
                sim.submit(TransferRequest {
                    id: TransferId(0),
                    src: EndpointId(0),
                    dst: EndpointId(1),
                    submit: SimTime::ZERO,
                    bytes: Bytes::gb(50.0),
                    files: 100,
                    dirs: 5,
                    concurrency: 8,
                    parallelism: 4,
                    checksum: true,
                });
                sim
            },
            |sim| sim.run(),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_alloc,
    bench_features,
    bench_gbdt_fit,
    bench_mic,
    bench_simulator,
    bench_single_transfer
);
criterion_main!(benches);
