//! End-to-end integration: workload → simulator → features → models.

use wdt::prelude::*;
use wdt_model::run_per_edge;

fn small_world() -> (EndpointCatalog, Vec<TransferRequest>) {
    let w = WorkloadSpec {
        fleet: FleetSpec { sites: 14, extra_servers: 4, personal: 6 },
        heavy_edges: 4,
        heavy_sessions_per_day: 18.0,
        heavy_session_len: 5.0,
        sparse_edges: 30,
        days: 6.0,
        mix: ArrivalMix::default(),
    }
    .generate(&SeedSeq::new(11));
    (w.endpoints, w.requests)
}

fn simulate_once() -> Vec<TransferRecord> {
    let (endpoints, requests) = small_world();
    let mut sim = Simulator::new(endpoints, SimConfig::default(), &SeedSeq::new(11));
    sim.add_default_background(4, 0.4);
    for r in requests {
        sim.submit(r);
    }
    sim.run().records
}

/// The shared log, simulated once per test binary.
fn simulate() -> &'static [TransferRecord] {
    use std::sync::OnceLock;
    static LOG: OnceLock<Vec<TransferRecord>> = OnceLock::new();
    LOG.get_or_init(simulate_once)
}

#[test]
fn full_pipeline_trains_usable_models() {
    let records = simulate();
    assert!(records.len() > 1000, "got {} records", records.len());
    let features = extract_features(records);
    assert_eq!(features.len(), records.len());

    let mut cfg = PerEdgeConfig { min_transfers: 150, ..Default::default() };
    cfg.fit.gbdt.n_rounds = 60;
    let exps = run_per_edge(&features, &cfg);
    assert!(!exps.is_empty(), "no edge qualified");
    for e in &exps {
        assert!(e.xgb.mdape.is_finite());
        assert!(e.xgb.mdape < 40.0, "edge {} XGB MdAPE {}", e.edge, e.xgb.mdape);
        // The paper's core claim, per edge: the nonlinear model is at least
        // competitive with the linear one (and usually better).
        assert!(
            e.xgb.mdape < e.lr.mdape * 1.25,
            "edge {}: XGB {} vs LR {}",
            e.edge,
            e.xgb.mdape,
            e.lr.mdape
        );
    }
}

/// Quantization must not move the paper-facing results: the default 256
/// bins per feature must reproduce what lossless bins (every distinct
/// value its own bin, the exact greedy trainer's splits) give on the same
/// simulated campaign — per-edge prediction error within one MdAPE point,
/// and the same dominant features in the Figure 12 importance ranking.
/// The exact trainer itself is a `wdt-ml` unit-test oracle that an
/// integration test cannot reach; its own parity with lossless bins is a
/// property test there.
#[test]
fn default_bins_match_lossless_bins_on_paper_results() {
    let records = simulate();
    let features = extract_features(records);
    let mut cfg = PerEdgeConfig { min_transfers: 150, ..Default::default() };
    cfg.fit.gbdt.n_rounds = 60;
    let binned = run_per_edge(&features, &cfg);
    let mut lossless_cfg = cfg.clone();
    lossless_cfg.fit.gbdt.max_bins = 1 << 16;
    let lossless = run_per_edge(&features, &lossless_cfg);

    assert!(!binned.is_empty(), "no edge qualified");
    assert_eq!(binned.len(), lossless.len());
    for (b, l) in binned.iter().zip(&lossless) {
        assert_eq!(b.edge, l.edge);
        assert!(
            (b.xgb.mdape - l.xgb.mdape).abs() < 1.0,
            "edge {}: 256-bin MdAPE {} vs lossless {}",
            b.edge,
            b.xgb.mdape,
            l.xgb.mdape
        );
        // Figure 12: the top-5 most important features must agree as a
        // set, and the dominant feature must be identical. (Exact order
        // below the top spot can legitimately swap on near-tie gains.)
        let top5 = |exp: &wdt_model::EdgeExperiment| -> Vec<String> {
            let mut v: Vec<(String, f64)> = exp
                .xgb_importance
                .iter()
                .filter_map(|(n, o)| o.map(|val| (n.clone(), val)))
                .collect();
            v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite importance"));
            v.truncate(5);
            v.into_iter().map(|(n, _)| n).collect()
        };
        let (tb, tl) = (top5(b), top5(l));
        assert_eq!(tb[0], tl[0], "edge {}: dominant feature differs", b.edge);
        let sb: std::collections::BTreeSet<&String> = tb.iter().collect();
        let sl: std::collections::BTreeSet<&String> = tl.iter().collect();
        assert_eq!(sb, sl, "edge {}: top-5 importance sets differ", b.edge);
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let a = simulate_once();
    let b = simulate();
    assert_eq!(a.as_slice(), b);
}

#[test]
fn simulation_conserves_bytes_and_orders_time() {
    let (endpoints, requests) = small_world();
    let want: f64 = requests.iter().map(|r| r.bytes.as_f64()).sum();
    let n = requests.len();
    let mut sim = Simulator::new(endpoints, SimConfig::default(), &SeedSeq::new(11));
    for r in requests {
        sim.submit(r);
    }
    let out = sim.run();
    assert_eq!(out.records.len(), n);
    let got: f64 = out.records.iter().map(|r| r.bytes.as_f64()).sum();
    assert!((got - want).abs() < 1.0);
    for r in &out.records {
        assert!(r.end > r.start);
        assert!(r.rate().as_f64() > 0.0);
    }
}

#[test]
fn relative_external_load_is_bounded() {
    let records = simulate();
    let features = extract_features(records);
    for f in &features {
        let l = f.relative_external_load();
        assert!((0.0..=1.0).contains(&l), "load {l} out of range");
        for v in [f.k_sout, f.k_din, f.k_sin, f.k_dout, f.g_src, f.g_dst, f.s_sout, f.s_din] {
            assert!(v >= 0.0 && v.is_finite());
        }
    }
}

#[test]
fn threshold_filter_monotone_in_sample_count() {
    let records = simulate();
    let features = extract_features(records);
    let mut prev = usize::MAX;
    for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let kept = threshold_filter(&features, t).len();
        assert!(kept <= prev, "threshold {t} kept {kept} > {prev}");
        prev = kept;
    }
    // Threshold 1.0 keeps at least the per-edge maxima.
    assert!(prev >= 1);
}
