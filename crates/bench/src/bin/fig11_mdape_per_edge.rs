//! Figure 11: MdAPE of the per-edge linear and gradient-boosted models,
//! with the number of samples per edge.
//!
//! Paper result: across 30 heavy edges, median MdAPE 7.0% (linear) and
//! 4.6% (boosted); boosted beats linear on most edges.

use wdt_bench::standard_log;
use wdt_bench::table::TableWriter;
use wdt_features::extract_features;
use wdt_ml::quantile;
use wdt_model::{run_per_edge, PerEdgeConfig};

fn main() {
    let log = standard_log();
    eprintln!("[fig11] extracting features from {} records ...", log.records.len());
    let features = extract_features(&log.records);

    let cfg = PerEdgeConfig::default();
    eprintln!(
        "[fig11] training per-edge models (threshold {:.1}·Rmax, ≥{} transfers) ...",
        cfg.threshold, cfg.min_transfers
    );
    let mut experiments = run_per_edge(&features, &cfg);
    experiments.sort_by_key(|a| a.edge);

    let mut t = TableWriter::new(
        "Figure 11 — per-edge MdAPE (%): linear vs eXtreme Gradient Boosting",
        &["Edge", "Samples", "LR MdAPE", "XGB MdAPE", "XGB wins"],
    );
    let mut lr_all = Vec::new();
    let mut xgb_all = Vec::new();
    let mut wins = 0usize;
    for e in &experiments {
        let win = e.xgb.mdape < e.lr.mdape;
        wins += win as usize;
        lr_all.push(e.lr.mdape);
        xgb_all.push(e.xgb.mdape);
        t.row(&[
            e.edge.to_string(),
            e.n_samples.to_string(),
            format!("{:.1}", e.lr.mdape),
            format!("{:.1}", e.xgb.mdape),
            if win { "yes".into() } else { "no".into() },
        ]);
    }
    t.print();
    println!("\nedges modeled: {}   XGB wins on {}/{}", experiments.len(), wins, experiments.len());
    println!(
        "median over edges — LR: {:.1}%  XGB: {:.1}%   (paper: 7.0% / 4.6%)",
        quantile(&lr_all, 0.5),
        quantile(&xgb_all, 0.5)
    );
}
