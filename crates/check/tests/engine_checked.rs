//! Engine runs under the full runtime invariant checker.
//!
//! This binary sets `WDT_CHECK=1` (and compares against the oracle at
//! every reallocation) before any simulator is constructed, so the
//! engine's check hooks — allocation invariants, differential oracle,
//! census/capacity freshness, byte conservation, time monotonicity — are
//! live for every run below. A violation panics, failing the test.

use wdt_bench::ScenarioCampaign;
use wdt_check::{check_records, TraceDigest};
use wdt_sim::{esnet_testbed, SimConfig, Simulator};
use wdt_types::{Bytes, EndpointId, ScenarioSpec, SeedSeq, SimTime, TransferId, TransferRequest};

/// Enable runtime checking for this process. Must run before the first
/// simulator does (the gates are read once and cached); every test calls
/// it first, so ordering among tests doesn't matter.
fn enable_checks() {
    std::env::set_var("WDT_CHECK", "1");
    std::env::set_var("WDT_CHECK_ORACLE_EVERY", "1");
}

fn req(id: u64, src: u32, dst: u32, submit: f64, gb: f64, c: u32, p: u32) -> TransferRequest {
    TransferRequest {
        id: TransferId(id),
        src: EndpointId(src),
        dst: EndpointId(dst),
        submit: SimTime::seconds(submit),
        bytes: Bytes::gb(gb),
        files: 40,
        dirs: 2,
        concurrency: c,
        parallelism: p,
        checksum: id.is_multiple_of(2),
    }
}

#[test]
fn fault_schedule_run_passes_every_invariant() {
    enable_checks();
    // Faults cranked three orders of magnitude above default plus heavy
    // contention: many pause/resume census transitions, every reallocation
    // checked against the oracle.
    let cfg = SimConfig { fault_rate_max: 0.05, ..SimConfig::default() };
    let mut sim = Simulator::new(esnet_testbed(), cfg, &SeedSeq::new(31));
    for i in 0..24 {
        sim.submit(req(i, (i % 4) as u32, ((i + 1) % 4) as u32, (i as f64) * 15.0, 20.0, 8, 4));
    }
    let out = sim.run();
    assert_eq!(out.records.len(), 24);
    assert!(out.stats.invariant_checks > 0, "checks never ran — gate broken?");
    assert!(out.records.iter().map(|r| r.faults).sum::<u32>() > 0, "no faults injected");
    assert!(check_records(&out.records).is_empty());
}

#[test]
fn endpoint_churn_with_background_passes_every_invariant() {
    enable_checks();
    // Background toggles dirty endpoints constantly while a slot-limited
    // queue churns arrivals/starts/completions — the incremental paths
    // (dirty list, censuses, scratch reuse) all get exercised under check.
    let cfg = SimConfig { max_active_per_endpoint: 3, ..SimConfig::default() };
    let mut sim = Simulator::new(esnet_testbed(), cfg, &SeedSeq::new(47));
    sim.add_default_background(6, 0.6);
    for i in 0..40 {
        sim.submit(req(i, (i % 4) as u32, ((i + 2) % 4) as u32, (i as f64) * 0.5, 10.0, 4, 4));
    }
    let out = sim.run();
    assert_eq!(out.records.len(), 40);
    assert!(out.stats.invariant_checks > 0);
    assert!(out.stats.max_queue_depth > 0, "slot limit never bound — churn untested");
    assert!(check_records(&out.records).is_empty());
}

#[test]
fn small_campaign_serial_and_parallel_digests_match_under_checks() {
    enable_checks();
    // The PR 1 guarantee, restated as a digest equality and run with the
    // invariant checker live in every shard (parallel shards inherit the
    // process-wide gate).
    let spec = ScenarioCampaign::new(
        ScenarioSpec::from_text(
            r#"{"name": "checked", "days": 1.5,
                "traffic": {"heavy_edges": 4, "sparse_edges": 12}}"#,
        )
        .expect("parse"),
    )
    .expect("validate");
    let par = spec.simulate();
    let ser = spec.simulate_serial();
    assert!(par.stats.invariant_checks > 0, "checks never ran inside shards");
    assert_eq!(par.records, ser.records);
    let dp = TraceDigest::from_records(&par.records);
    let ds = TraceDigest::from_records(&ser.records);
    assert_eq!(dp.hash(), ds.hash());
    assert!(dp.diff(&ds).is_empty());
    assert!(check_records(&par.records).is_empty());
}
