//! Table 4: edge type shares (%) — server/personal combinations, all edges
//! vs. the modeled heavy edges.
//!
//! Paper: all edges 45% GCS⇒GCS, 34% GCS⇒GCP, 20% GCP⇒GCS; the 30 modeled
//! edges 51/30/19. (GCP⇒GCP did not exist before 2016.)

use std::collections::BTreeSet;
use wdt_bench::table::TableWriter;
use wdt_bench::{standard_campaign, standard_log};
use wdt_features::{eligible_edges, extract_features};
use wdt_types::{EdgeId, EndpointType};

fn main() {
    let log = standard_log();
    let endpoints = standard_campaign().workload().endpoints;
    let features = extract_features(&log.records);

    let all_edges: Vec<EdgeId> =
        features.iter().map(|f| f.edge).collect::<BTreeSet<_>>().into_iter().collect();
    let modeled: Vec<EdgeId> =
        eligible_edges(&features, 0.5, 300).into_iter().map(|(e, _)| e).collect();

    let shares = |edges: &[EdgeId]| -> [f64; 4] {
        let mut counts = [0usize; 4];
        for e in edges {
            let s = endpoints.get(e.src).kind;
            let d = endpoints.get(e.dst).kind;
            let idx = match (s, d) {
                (EndpointType::Server, EndpointType::Server) => 0,
                (EndpointType::Server, EndpointType::Personal) => 1,
                (EndpointType::Personal, EndpointType::Server) => 2,
                (EndpointType::Personal, EndpointType::Personal) => 3,
            };
            counts[idx] += 1;
        }
        let n = edges.len().max(1) as f64;
        [
            100.0 * counts[0] as f64 / n,
            100.0 * counts[1] as f64 / n,
            100.0 * counts[2] as f64 / n,
            100.0 * counts[3] as f64 / n,
        ]
    };

    let mut t = TableWriter::new(
        "Table 4 — edge type statistics (%)",
        &["Dataset", "GCS=>GCS", "GCS=>GCP", "GCP=>GCS", "GCP=>GCP"],
    );
    for (name, edges) in [("All edges", &all_edges), ("Modeled edges", &modeled)] {
        let s = shares(edges);
        t.row(&[
            name.into(),
            format!("{:.0}", s[0]),
            format!("{:.0}", s[1]),
            format!("{:.0}", s[2]),
            format!("{:.0}", s[3]),
        ]);
    }
    t.print();
    println!("\npaper: all 45/34/20/0; 30 modeled 51/30/19/0");
    println!("(modeled edges are hub-to-hub, so GCS⇒GCS dominates there by construction)");
}
