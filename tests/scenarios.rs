//! Bundled scenario library verification at the workspace root: every
//! scenario in `scenarios/` must reproduce its committed golden digest in
//! `tests/golden/scenarios/`, and the paper's Fig. 12 regime-robustness
//! claim — competing-load features stay in the top importance group — must
//! hold across distinct regimes. Refresh after an intentional change with:
//!
//! ```text
//! cargo run --release -p wdt-cli -- scenarios \
//!     --dir scenarios --golden-dir tests/golden/scenarios --refresh
//! ```

use std::path::{Path, PathBuf};
use wdt_bench::ScenarioCampaign;
use wdt_check::{check_records, TraceDigest};
use wdt_features::{extract_features, threshold_filter, Feature};
use wdt_model::{build_dataset, FitConfig, FittedModel, ModelKind};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn bundled_scenarios() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(root().join("scenarios"))
        .expect("bundled scenarios/ directory")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            (p.extension().is_some_and(|x| x == "json")).then_some(p)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn bundled_scenarios_match_committed_golden_digests() {
    let files = bundled_scenarios();
    assert!(files.len() >= 6, "scenario library shrank: only {} bundled", files.len());
    let mut drifted = Vec::new();
    for file in &files {
        let camp = ScenarioCampaign::from_file(file).expect("bundled scenario is valid");
        let name = camp.spec().name.clone();
        let golden_path = root().join("tests/golden/scenarios").join(format!("{name}.digest"));
        let committed = TraceDigest::from_text(
            &std::fs::read_to_string(&golden_path)
                .unwrap_or_else(|e| panic!("missing golden for '{name}': {e}")),
        )
        .expect("golden digest parses and its hash verifies");
        let out = camp.simulate();
        assert!(check_records(&out.records).is_empty(), "'{name}': log invariants violated");
        let digest = TraceDigest::from_records(&out.records);
        let diff = committed.diff(&digest);
        if !diff.is_empty() {
            eprintln!("'{name}' drifted ({} difference(s)):", diff.len());
            for d in diff.iter().take(5) {
                eprintln!("  {d}");
            }
            drifted.push(name);
        }
    }
    assert!(
        drifted.is_empty(),
        "{} bundled scenario(s) drifted from their golden digests: {}. If intentional, \
         refresh with `cargo run --release -p wdt-cli -- scenarios --dir scenarios \
         --golden-dir tests/golden/scenarios --refresh` and commit.",
        drifted.len(),
        drifted.join(", ")
    );
}

#[test]
fn bundled_scenario_digests_are_distinct_regimes() {
    // Each scenario must actually change behavior (except the baseline,
    // which by design reproduces the standard campaign): no two bundled
    // digests may collide, or the "library" is padding.
    let mut hashes = std::collections::BTreeMap::new();
    for file in bundled_scenarios() {
        let camp = ScenarioCampaign::from_file(&file).expect("valid");
        let name = camp.spec().name.clone();
        let text = std::fs::read_to_string(
            root().join("tests/golden/scenarios").join(format!("{name}.digest")),
        )
        .expect("golden exists");
        let d = TraceDigest::from_text(&text).expect("parses");
        if let Some(prev) = hashes.insert(d.hash(), name.clone()) {
            panic!("scenarios '{prev}' and '{name}' share digest {:016x}", d.hash());
        }
    }
}

/// Fig. 12 regime robustness: train a GBDT on each of three very different
/// bundled regimes (reference diurnal, flash-crowd demand spike, throttled
/// cloud egress) and check that (a) held-out MdAPE stays within the bounds
/// recorded in EXPERIMENTS.md and (b) competing-load features (K*/S*/G*)
/// keep at least two seats in the top-5 importance group — the model keeps
/// attributing performance to *other traffic* no matter the regime.
#[test]
fn fig12_competing_load_features_stay_on_top_across_regimes() {
    let regimes = [("baseline-diurnal", 28.0), ("flash-crowd", 28.0), ("cloud-egress", 28.0)];
    for (name, mdape_bound) in regimes {
        let camp = ScenarioCampaign::from_file(&root().join(format!("scenarios/{name}.json")))
            .expect("bundled scenario");
        let out = camp.simulate();
        let features = extract_features(&out.records);
        let filtered = threshold_filter(&features, 0.5);
        assert!(filtered.len() >= 60, "'{name}': too few filtered transfers to model");
        let data = build_dataset(&filtered, false);
        let (train, test) = data.split(0.7, 7);
        let mut cfg = FitConfig::default();
        cfg.gbdt.n_rounds = 80;
        let model = FittedModel::fit(&train, ModelKind::Gbdt, &cfg).expect("fit");
        let eval = model.evaluate(&test);
        assert!(
            eval.mdape < mdape_bound,
            "'{name}': MdAPE {:.1}% exceeds the {mdape_bound}% bound in EXPERIMENTS.md",
            eval.mdape
        );
        let mut sig = model.significance();
        sig.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top5: Vec<&str> = sig.iter().take(5).map(|(n, _)| n.as_str()).collect();
        let competing = top5
            .iter()
            .filter(|n| Feature::named(n).is_some_and(|c| c.family.is_competing_load()))
            .count();
        assert!(
            competing >= 2,
            "'{name}': only {competing} competing-load feature(s) in top-5 {top5:?}"
        );
    }
}
