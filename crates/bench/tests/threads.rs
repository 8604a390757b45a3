//! The PR 1 guarantee, tested head-on: campaign output is bit-identical
//! for any worker thread count. The vendored rayon stand-in reads
//! `WDT_THREADS` on every pool construction, so one process can run the
//! same campaign under different thread counts back-to-back.
//!
//! Kept to a single `#[test]` on purpose: the thread-count env var is
//! process-global, and concurrent tests mutating it would race.

use wdt_bench::ScenarioCampaign;
use wdt_types::ScenarioSpec;

fn scenario(text: &str) -> ScenarioCampaign {
    ScenarioCampaign::new(ScenarioSpec::from_text(text).expect("parse")).expect("validate")
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

    for threads in ["1", "2", "8"] {
        std::env::set_var("WDT_THREADS", threads);
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
