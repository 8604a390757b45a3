//! The determinism guarantee, tested head-on: campaign output and the
//! per-edge models fitted on it are bit-identical for any worker thread
//! count. The vendored rayon stand-in reads `WDT_THREADS` on every pool
//! construction, so one process can run the same work under different
//! thread counts back-to-back.
//!
//! Kept to a single `#[test]` on purpose: the thread-count env var is
//! process-global, and concurrent tests mutating it would race.

use wdt_bench::ScenarioCampaign;
use wdt_features::extract_features;
use wdt_model::{run_per_edge, EdgeExperiment, EvalReport, PerEdgeConfig};
use wdt_types::{EdgeId, ScenarioSpec};

fn scenario(text: &str) -> ScenarioCampaign {
    ScenarioCampaign::new(ScenarioSpec::from_text(text).expect("parse")).expect("validate")
}

fn report_bits(r: &EvalReport) -> Vec<u64> {
    let stats = [r.mdape, r.p95, r.rmse, r.r2];
    let floats = stats.iter().chain(&r.abs_pct_errors).map(|v| v.to_bits());
    [r.n as u64].into_iter().chain(floats).collect()
}

type ExperimentBits = (EdgeId, usize, Vec<u64>, Vec<u64>, Vec<(String, Option<u64>)>);

/// Every number of an edge experiment as bits, with its feature names.
fn experiment_bits(e: &EdgeExperiment) -> ExperimentBits {
    let scores = e.lr_significance.iter().chain(&e.xgb_importance);
    let scores = scores.map(|(name, v)| (name.clone(), v.map(f64::to_bits))).collect();
    (e.edge, e.n_samples, report_bits(&e.lr), report_bits(&e.xgb), scores)
}

#[test]
fn campaign_output_is_bit_identical_across_thread_counts() {
    // More shards than the smallest pool, so chunking differs.
    let spec = scenario(
        r#"{"name": "t-plain", "days": 2.0,
            "traffic": {"heavy_edges": 4, "sparse_edges": 14, "runs": 8}}"#,
    );
    // Two more campaigns exercise the modulation and arrival-mix paths the
    // plain one never touches: a flash crowd piles arrivals into two burst
    // windows, and a degradation window inserts ModChange boundary events
    // into every shard's queue.
    let flash = scenario(
        r#"{"name": "t-flash", "days": 2.0,
            "traffic": {"heavy_edges": 4, "sparse_edges": 14, "runs": 8},
            "arrivals": {"kind": "flash_crowd", "depth": 0.5,
                         "bursts": [{"start_day": 0.6, "duration_hours": 3.0, "multiplier": 6.0},
                                    {"start_day": 1.4, "duration_hours": 2.0, "multiplier": 9.0}]}}"#,
    );
    let degraded = scenario(
        r#"{"name": "t-degraded", "days": 2.0,
            "traffic": {"heavy_edges": 4, "sparse_edges": 14, "runs": 8},
            "capacity": [{"kind": "degradation", "endpoints": [0, 1, 2, 3],
                          "start_day": 0.5, "end_day": 1.25, "factor": 0.35}]}"#,
    );

    let baseline = spec.simulate_serial();
    assert!(baseline.records.len() > 100, "campaign too small to be meaningful");
    let flash_base = flash.simulate_serial();
    let degraded_base = degraded.simulate_serial();
    assert!(flash_base.records.len() > 100, "flash-crowd campaign too small");
    assert!(degraded_base.records.len() > 100, "degraded campaign too small");

    // Per-edge fits on the plain campaign: edges are the coarse parallel
    // site, and each fit runs on one thread. `min_transfers` is lowered so
    // that several edges of the small campaign qualify.
    let features = extract_features(&baseline.records);
    let mut per_edge_cfg = PerEdgeConfig { min_transfers: 40, ..Default::default() };
    per_edge_cfg.fit.gbdt.n_rounds = 40;
    let mut per_edge_base: Option<Vec<ExperimentBits>> = None;

    for threads in ["1", "2", "8"] {
        std::env::set_var("WDT_THREADS", threads);
        let experiments: Vec<ExperimentBits> =
            run_per_edge(&features, &per_edge_cfg).iter().map(experiment_bits).collect();
        match &per_edge_base {
            None => {
                assert!(experiments.len() >= 3, "{} edges qualify", experiments.len());
                per_edge_base = Some(experiments);
            }
            Some(base) => {
                assert!(*base == experiments, "per-edge models differ with WDT_THREADS={threads}")
            }
        }
        let out = spec.simulate();
        assert_eq!(
            out.records, baseline.records,
            "records differ from serial baseline with WDT_THREADS={threads}"
        );
        assert_eq!(out.heavy_edges, baseline.heavy_edges);
        // Deterministic counters must agree too (realloc_time_s is
        // wall-clock measurement, exempt).
        assert_eq!(out.stats.events, baseline.stats.events, "WDT_THREADS={threads}");
        assert_eq!(out.stats.reallocations, baseline.stats.reallocations, "WDT_THREADS={threads}");
        assert_eq!(
            out.stats.max_queue_depth, baseline.stats.max_queue_depth,
            "WDT_THREADS={threads}"
        );

        for (camp, base, name) in
            [(&flash, &flash_base, "flash-crowd"), (&degraded, &degraded_base, "degraded")]
        {
            let out = camp.simulate();
            assert_eq!(
                out.records, base.records,
                "{name} records differ from serial baseline with WDT_THREADS={threads}"
            );
            assert_eq!(out.stats.events, base.stats.events, "{name} WDT_THREADS={threads}");
            assert_eq!(
                out.stats.reallocations, base.stats.reallocations,
                "{name} WDT_THREADS={threads}"
            );
        }
    }
    std::env::remove_var("WDT_THREADS");
}
