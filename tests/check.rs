//! Golden-trace verification at the workspace root: the check campaign's
//! digest must match the committed snapshot in `tests/golden/`, so any
//! behavioral drift in the simulator fails plain `cargo test` — not just
//! the dedicated CI job. Refresh after an intentional change with:
//!
//! ```text
//! cargo run --release -p wdt-cli -- check \
//!     --golden tests/golden/check-campaign.digest --refresh
//! ```

use wdt_bench::ScenarioCampaign;
use wdt_check::{check_records, TraceDigest};
use wdt_types::ScenarioSpec;

/// Must mirror the `wdt check` defaults in `crates/cli/src/commands.rs`:
/// seed 2017, 6 heavy and 30 sparse edges, 4 shards (the scenario
/// defaults), 2 days.
fn check_campaign() -> ScenarioCampaign {
    let spec = ScenarioSpec::from_text(r#"{"name": "check", "days": 2.0}"#).expect("parse");
    ScenarioCampaign::new(spec).expect("validate")
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/check-campaign.digest")
}

#[test]
fn check_campaign_matches_committed_golden_digest() {
    let committed = TraceDigest::from_text(
        &std::fs::read_to_string(golden_path()).expect("committed golden digest"),
    )
    .expect("golden digest parses and its hash verifies");
    let out = check_campaign().simulate();
    assert!(check_records(&out.records).is_empty(), "log invariants violated");
    let digest = TraceDigest::from_records(&out.records);
    let diff = committed.diff(&digest);
    assert!(
        diff.is_empty(),
        "campaign digest drifted from tests/golden/check-campaign.digest \
         ({} difference(s); first few below). If intentional, refresh with \
         `cargo run --release -p wdt-cli -- check --golden tests/golden/check-campaign.digest \
         --refresh` and commit.\n{}",
        diff.len(),
        diff.iter().take(10).cloned().collect::<Vec<_>>().join("\n")
    );
    assert_eq!(committed.hash(), digest.hash());
}

#[test]
fn golden_digest_file_is_well_formed() {
    let text = std::fs::read_to_string(golden_path()).expect("committed golden digest");
    let d = TraceDigest::from_text(&text).expect("parse");
    assert!(d.total > 500, "suspiciously small golden campaign: {} records", d.total);
    assert!(d.edges.len() > 10, "suspiciously few edges: {}", d.edges.len());
    // Every edge's quantiles are ordered and counts sum to the total.
    let sum: u64 = d.edges.values().map(|e| e.count).sum();
    assert_eq!(sum, d.total);
    for e in d.edges.values() {
        assert!(e.log2_rate_q.windows(2).all(|w| w[0] <= w[1]), "{:?}", e.log2_rate_q);
    }
}

/// The check campaign built from `wdt check`'s flags and the bundled
/// `baseline-diurnal` scenario are one campaign: their committed digests
/// carry the same hash. `tests/scenarios.rs` and CI's `verify` job pin
/// each digest to its simulation.
#[test]
fn check_campaign_and_baseline_scenario_share_one_digest() {
    let parse = |path: std::path::PathBuf| {
        let text = std::fs::read_to_string(&path).expect("committed golden digest");
        TraceDigest::from_text(&text).expect("golden digest parses and its hash verifies")
    };
    let baseline = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/scenarios/baseline-diurnal.digest");
    assert_eq!(parse(golden_path()).hash(), parse(baseline).hash());
}
