//! Ablation: how much does each feature *group* contribute?
//!
//! The paper argues that the engineered competing-load features are what
//! make log-only rate prediction work. We quantify that: train the
//! per-edge GBDT with one group of features removed at a time and measure
//! the median MdAPE across the modeled edges. A large increase over the
//! full model = the group carries real signal.
//!
//! Groups: `K*` (contending transfer rates), `S*` (competing TCP streams),
//! `G*` (competing GridFTP instances), `chars` (Nb, Nf, Nd).

use wdt_bench::standard_log;
use wdt_bench::table::TableWriter;
use wdt_features::{
    eligible_edges, extract_features, threshold_filter, Dataset, Family, TransferFeatures,
};
use wdt_ml::quantile;
use wdt_model::{FitConfig, FittedModel, ModelKind};

/// Which feature families a variant removes.
type Dropped = fn(Family) -> bool;

const GROUPS: [(&str, Dropped); 6] = [
    ("full model", |_| false),
    ("- K* (contending rates)", |f| f == Family::ContendingRate),
    ("- S* (competing streams)", |f| f == Family::Streams),
    ("- G* (competing instances)", |f| f == Family::Instances),
    // The three load groups are partially redundant (streams track rates),
    // so also drop them jointly to expose their combined contribution.
    ("- ALL load features", Family::is_competing_load),
    ("- chars (Nb, Nf, Nd)", |f| f == Family::Shape),
];

fn main() {
    let log = standard_log();
    let features = extract_features(&log.records);
    let filtered = threshold_filter(&features, 0.5);
    let edges: Vec<_> =
        eligible_edges(&features, 0.5, 300).into_iter().take(12).map(|(e, _)| e).collect();
    eprintln!("[ablation] {} edges", edges.len());

    let cfg = FitConfig::default();
    let mut t = TableWriter::new(
        "Ablation — median per-edge GBDT MdAPE (%) with feature groups removed",
        &["variant", "median MdAPE", "vs full"],
    );
    let mut full_median = 0.0;
    for (i, (name, dropped)) in GROUPS.into_iter().enumerate() {
        let mut mdapes = Vec::new();
        for edge in &edges {
            let on_edge: Vec<TransferFeatures> =
                filtered.iter().filter(|f| f.edge == *edge).cloned().collect();
            let data = Dataset::from_features(&on_edge, |c| c.served() && !dropped(c.family));
            let (train, test) = data.split(0.7, 0xAB1A ^ edge.src.0 as u64);
            let Some(model) = FittedModel::fit(&train, ModelKind::Gbdt, &cfg) else {
                continue;
            };
            mdapes.push(model.evaluate(&test).mdape);
        }
        let median = quantile(&mdapes, 0.5);
        if i == 0 {
            full_median = median;
        }
        t.row(&[
            name.into(),
            format!("{median:.2}"),
            if i == 0 {
                "-".into()
            } else {
                format!("{:+.1}%", 100.0 * (median / full_median - 1.0))
            },
        ]);
    }
    t.print();
    println!("\nreading: the biggest jump marks the feature group the models lean on most;");
    println!("the paper's thesis predicts the competing-load groups matter beyond Nb/Nf alone.");
}
