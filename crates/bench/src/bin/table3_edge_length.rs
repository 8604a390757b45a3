//! Table 3: edge length (great-circle km) percentiles — all edges vs. the
//! modeled heavy edges. Shows the modeled edges are geographically
//! representative.
//!
//! Paper: 25th/50th/90th percentiles 235/1,976/3,062 km (all) vs
//! 247/1,436/3,947 km (30 modeled edges).

use std::collections::BTreeSet;
use wdt_bench::table::TableWriter;
use wdt_bench::{standard_campaign, standard_log};
use wdt_features::{eligible_edges, extract_features};
use wdt_ml::quantile;
use wdt_types::EdgeId;

fn main() {
    let log = standard_log();
    let endpoints = standard_campaign().workload().endpoints;
    let features = extract_features(&log.records);

    let all_edges: BTreeSet<EdgeId> = features.iter().map(|f| f.edge).collect();
    let modeled: Vec<EdgeId> =
        eligible_edges(&features, 0.5, 300).into_iter().map(|(e, _)| e).collect();

    let lengths = |edges: &[EdgeId]| -> Vec<f64> {
        edges
            .iter()
            .map(|e| endpoints.get(e.src).location.distance_km(&endpoints.get(e.dst).location))
            .collect()
    };
    let all_vec: Vec<EdgeId> = all_edges.into_iter().collect();
    let all_len = lengths(&all_vec);
    let mod_len = lengths(&modeled);

    let mut t = TableWriter::new(
        "Table 3 — edge length statistics (km)",
        &["Dataset", "n edges", "25th", "50th", "90th"],
    );
    for (name, v) in [("All edges", &all_len), ("Modeled edges", &mod_len)] {
        t.row(&[
            name.into(),
            v.len().to_string(),
            format!("{:.0}", quantile(v, 0.25)),
            format!("{:.0}", quantile(v, 0.5)),
            format!("{:.0}", quantile(v, 0.9)),
        ]);
    }
    t.print();
    println!("\npaper: all 235/1976/3062; 30 modeled 247/1436/3947");
}
