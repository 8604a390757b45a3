//! Table 5: Pearson correlation coefficient (CC) vs. maximal information
//! coefficient (MIC) between each Table 2 feature and the transfer rate,
//! on four heavy edges.
//!
//! Paper: several features show MIC well above |CC| — evidence of
//! nonlinear dependence a linear model cannot capture; C and P score 0.00
//! (uniform within an edge, marked "–" for CC).

use wdt_bench::standard_log;
use wdt_bench::table::TableWriter;
use wdt_features::{eligible_edges, extract_features, threshold_filter, FEATURES};
use wdt_ml::{mic, pearson};

fn main() {
    let log = standard_log();
    let features = extract_features(&log.records);
    let filtered = threshold_filter(&features, 0.5);
    let edges = eligible_edges(&features, 0.5, 300);

    let mut header = vec!["row".to_string()];
    header.extend(FEATURES.iter().map(|c| c.name.to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = TableWriter::new(
        "Table 5 — CC vs MIC between features and rate, four heavy edges",
        &header_refs,
    );

    let mut nonlinear_evidence = 0usize;
    for (edge, _) in edges.iter().take(4) {
        let on_edge: Vec<_> = filtered.iter().filter(|f| f.edge == *edge).collect();
        let rates: Vec<f64> = on_edge.iter().map(|f| f.rate).collect();
        let mut cc_row = vec![format!("{edge} CC")];
        let mut mic_row = vec![format!("{edge} MIC")];
        for c in &FEATURES {
            let col: Vec<f64> = on_edge.iter().map(|f| c.of(f)).collect();
            let cc = pearson(&col, &rates);
            let m = mic(&col, &rates);
            cc_row.push(cc.map_or("-".into(), |v| format!("{:.2}", v.abs())));
            mic_row.push(format!("{m:.2}"));
            if let Some(cc) = cc {
                if m > cc.abs() + 0.05 {
                    nonlinear_evidence += 1;
                }
            }
        }
        t.row(&cc_row);
        t.row(&mic_row);
    }
    t.print();
    println!(
        "\nfeature/edge cells with MIC exceeding |CC| by >0.05: {nonlinear_evidence} (paper: many ⇒ nonlinear model justified)"
    );
    println!("'-' = zero variance (uniform feature), as in the paper's Table 5");
}
