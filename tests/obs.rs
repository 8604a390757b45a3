//! Observability must never change what the simulator computes.
//!
//! One `#[test]` on purpose: the tracing gate (`wdt_obs::set_enabled`)
//! is process-global, so interleaving with other tests in this binary
//! would make the "disabled" and "enabled" runs racy. Sequencing the
//! whole argument in a single test keeps both runs deterministic.
//!
//! The argument has three parts:
//!
//! 1. **Disabled path is inert** — with instrumentation off (the
//!    default), the check campaign's digest matches the committed golden
//!    snapshot bit for bit, i.e. merely linking `wdt-obs` into the
//!    engine changes nothing.
//! 2. **Enabled path is inert too** — with spans and counters recording,
//!    the transfer log and every deterministic `SimStats` counter are
//!    bitwise identical to the disabled run. Instrumentation reads
//!    clocks; it never feeds back into simulation state.
//! 3. **The trace is real** — the flight recorder captured engine spans
//!    and the Chrome-trace export passes the structural validator
//!    (parseable, monotone per track, properly nested).
//! 4. **The alert plane is observe-only** — a capacity-window scenario
//!    raises `CapacityChange` alerts at every `ModChange` boundary and
//!    bumps the global alert counters, yet the run still matches its
//!    committed golden digest, and a rerun with the ring already
//!    populated is bit-identical (alert state never feeds back).
//! 5. **Attribution is exact end to end** — a GBDT trained on the alerted
//!    campaign explains every row such that `bias + Σ contributions`
//!    reconstructs `predict_row` bitwise.

use wdt_bench::ScenarioCampaign;
use wdt_check::TraceDigest;
use wdt_features::extract_features;
use wdt_model::{build_dataset, FitConfig, FittedModel, ModelKind};

/// Must mirror the `wdt check` defaults in `crates/cli/src/commands.rs`:
/// seed 2017, 6 heavy and 30 sparse edges, 4 shards (the scenario
/// defaults), 2 days.
fn check_campaign() -> ScenarioCampaign {
    let spec = wdt_types::ScenarioSpec::from_text(r#"{"name": "check", "days": 2.0}"#);
    ScenarioCampaign::new(spec.expect("parse")).expect("validate")
}

#[test]
fn instrumentation_is_bit_transparent_and_traces_validate() {
    let committed = TraceDigest::from_text(
        &std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/golden/check-campaign.digest"),
        )
        .expect("committed golden digest"),
    )
    .expect("golden digest parses");

    // Part 1: disabled instrumentation — zero drift from the seed digest.
    assert!(!wdt_obs::enabled(), "tracing must default to off");
    let off = check_campaign().simulate();
    let digest = TraceDigest::from_records(&off.records);
    assert_eq!(
        committed.hash(),
        digest.hash(),
        "disabled-instrumentation campaign drifted from the golden digest:\n{}",
        committed.diff(&digest).join("\n")
    );

    // Part 2: enabled instrumentation — bitwise-identical results. Detail
    // level on purpose: per-event spans are the heaviest instrumentation,
    // so this is the strongest form of the transparency claim.
    wdt_obs::clear();
    wdt_obs::set_detail(true);
    let on = check_campaign().simulate();
    wdt_obs::set_enabled(false);
    assert_eq!(off.records, on.records, "tracing changed the transfer log");
    assert_eq!(off.stats.events, on.stats.events);
    assert_eq!(off.stats.reallocations, on.stats.reallocations);
    assert_eq!(off.stats.max_queue_depth, on.stats.max_queue_depth);
    assert_eq!(off.stats.scratch_reuses, on.stats.scratch_reuses);
    assert_eq!(off.stats.oracle_invocations, on.stats.oracle_invocations);
    assert_eq!(off.stats.waiting_drains, on.stats.waiting_drains);

    // Part 3: the recorded trace is non-trivial and structurally valid.
    let snapshot = wdt_obs::snapshot();
    let events: usize = snapshot.iter().map(|t| t.events.len()).sum();
    assert!(events > 0, "enabled campaign recorded no events");
    let text = wdt_obs::chrome_trace(&snapshot).to_string();
    let summary = wdt_obs::validate_chrome_trace(&text).expect("exported trace validates");
    assert!(summary.spans > 0, "no spans in exported trace: {summary:?}");
    assert!(summary.tracks >= 2, "expected wall + sim clock tracks: {summary:?}");
    wdt_obs::clear();

    // Part 4: the alert plane is observe-only. `degraded-backbone` has a
    // capacity schedule, so every `ModChange` boundary raises a
    // `CapacityChange` alert into the global ring — and the run must
    // still match its committed golden digest exactly.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let sink = wdt_obs::AlertSink::global();
    sink.clear();
    let counter = wdt_obs::Registry::global().counter("alerts.capacity_change");
    let raised_before = counter.get();
    let scen = ScenarioCampaign::from_file(&root.join("scenarios/degraded-backbone.json"))
        .expect("bundled capacity scenario");
    let golden = TraceDigest::from_text(
        &std::fs::read_to_string(root.join("tests/golden/scenarios/degraded-backbone.digest"))
            .expect("committed scenario digest"),
    )
    .expect("scenario digest parses");
    let alerted = scen.simulate();
    let digest1 = TraceDigest::from_records(&alerted.records);
    assert_eq!(
        golden.hash(),
        digest1.hash(),
        "alert-raising campaign drifted from its golden digest:\n{}",
        golden.diff(&digest1).join("\n")
    );
    let snap = sink.snapshot();
    assert!(
        snap.iter().any(|a| a.kind == wdt_obs::AlertKind::CapacityChange),
        "capacity scenario raised no CapacityChange alert: {snap:?}"
    );
    assert!(counter.get() > raised_before, "alerts.capacity_change counter did not move");
    // Rerun with the ring already populated: alert state never feeds
    // back into simulation state.
    let rerun = scen.simulate();
    assert_eq!(
        digest1.hash(),
        TraceDigest::from_records(&rerun.records).hash(),
        "rerun with a populated alert ring diverged"
    );
    sink.clear();

    // Part 5: attribution is exact on a campaign-trained model.
    let data = build_dataset(&extract_features(&alerted.records), false);
    let model =
        FittedModel::fit(&data, ModelKind::Gbdt, &FitConfig::default()).expect("fit on campaign");
    for row in data.x.iter().take(64) {
        let (bias, pred, contribs) = model.explain_row(row);
        assert_eq!(
            pred.to_bits(),
            model.predict_row(row).to_bits(),
            "explain prediction diverged from predict_row"
        );
        let folded = contribs.iter().fold(bias, |acc, &c| acc + c);
        assert_eq!(folded.to_bits(), pred.to_bits(), "attributions do not fold to prediction");
    }
}
