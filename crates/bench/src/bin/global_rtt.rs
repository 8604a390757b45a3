//! Future-work extension (§5.4): add per-edge round-trip time to the
//! global model.
//!
//! The paper closes §5.4 with "In future work, we will incorporate
//! round-trip times for each edge, which we expect to reduce errors
//! further." We implement it: extend the Eq. 5 feature vector with the
//! edge's estimated RTT (from great-circle distance — obtainable without
//! touching the endpoints) and compare global-model MdAPE with and
//! without it.

use wdt_bench::table::TableWriter;
use wdt_bench::{standard_campaign, standard_log};
use wdt_features::{
    eligible_edges, endpoint_caps, extract_features, threshold_filter, TransferFeatures,
};
use wdt_geo::rtt_estimate;
use wdt_model::{build_global_dataset, FitConfig, FittedModel, ModelKind};

fn main() {
    let log = standard_log();
    let endpoints = standard_campaign().workload().endpoints;
    let features = extract_features(&log.records);
    let filtered = threshold_filter(&features, 0.5);
    let modeled: Vec<_> =
        eligible_edges(&features, 0.5, 300).into_iter().take(30).map(|(e, _)| e).collect();
    let pool: Vec<TransferFeatures> =
        filtered.iter().filter(|f| modeled.contains(&f.edge)).cloned().collect();
    let caps = endpoint_caps(&pool);

    // Base dataset (Eq. 5) and the RTT-augmented one.
    let base = build_global_dataset(&pool, &caps);
    let mut with_rtt = base.clone();
    with_rtt.names.push("RTT".into());
    for (row, f) in with_rtt.x.iter_mut().zip(&pool) {
        let d = endpoints.get(f.edge.src).location.distance_km(&endpoints.get(f.edge.dst).location);
        row.push(rtt_estimate(d));
    }

    let cfg = FitConfig::default();
    let mut t = TableWriter::new(
        "§5.4 future work — global model with and without a per-edge RTT feature",
        &["model", "MdAPE %", "p95 %"],
    );
    for (name, data) in [("Eq. 5 features", &base), ("Eq. 5 + RTT", &with_rtt)] {
        for (kind_name, kind) in [("linear", ModelKind::Linear), ("XGB", ModelKind::Gbdt)] {
            let (train, test) = data.split(0.7, 0x177);
            let model = FittedModel::fit(&train, kind, &cfg).expect("fit");
            let eval = model.evaluate(&test);
            t.row(&[
                format!("{name} ({kind_name})"),
                format!("{:.1}", eval.mdape),
                format!("{:.1}", eval.p95),
            ]);
        }
    }
    t.print();
    println!("\npaper's expectation: RTT should reduce global-model errors further.");
}
