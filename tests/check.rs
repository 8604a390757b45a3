//! Golden-trace verification at the workspace root: the check campaign's
//! digest must match the committed snapshot in `tests/golden/`, so any
//! behavioral drift in the simulator fails plain `cargo test` — not just
//! the dedicated CI job. Refresh after an intentional change with:
//!
//! ```text
//! cargo run --release -p wdt-cli -- check \
//!     --golden tests/golden/check-campaign.digest --refresh
//! ```
//!
//! The same campaign's feature vectors are pinned too: an FNV-1a hash of
//! every `extract_features` vector must match
//! `tests/golden/check-features.digest`, so a feature layer change that
//! moves one bit of one feature fails here. The test prints the text it
//! expects the file to hold; refresh after an intentional change with:
//!
//! ```text
//! cargo test --release --test check features_match -- --nocapture \
//!     | sed -n '/^# wdt feature digest/,/^records /p' > tests/golden/check-features.digest
//! ```

use wdt::features::{extract_features, TransferFeatures};
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

/// FNV-1a over every feature vector, in log order: its id, then the bits
/// of its rate and of each `to_vec` entry, little-endian.
fn feature_hash(features: &[TransferFeatures]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in features {
        eat(f.id.0);
        eat(f.rate.to_bits());
        for v in f.to_vec() {
            eat(v.to_bits());
        }
    }
    hash
}

/// The feature golden's text for `features`.
fn feature_digest_text(features: &[TransferFeatures]) -> String {
    format!(
        "# wdt feature digest v1: FNV-1a of every extract_features vector\n\
         # (id, then rate and to_vec() bits, little-endian) of the check campaign\n\
         # refresh with: see tests/check.rs\n\
         hash {:016x}\n\
         records {}\n",
        feature_hash(features),
        features.len()
    )
}

#[test]
fn check_campaign_features_match_committed_golden_digest() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/check-features.digest");
    let committed = std::fs::read_to_string(path).expect("committed feature digest");
    let out = check_campaign().simulate();
    let actual = feature_digest_text(&extract_features(&out.records));
    println!("\n{actual}");
    assert!(
        committed == actual,
        "check campaign features drifted from tests/golden/check-features.digest; \
         if intentional, refresh it with the command in tests/check.rs's module docs"
    );
}
