//! Per-edge model training (paper §5.1–§5.3).
//!
//! For every eligible edge (≥ `min_transfers` transfers above the rate
//! threshold), fit a linear and a gradient-boosted model on a 70/30 split,
//! and fit explanation models (with `Nflt`) on the full edge data to get
//! the Figure 9/12 significance circles.

use crate::pipeline::{build_dataset, EvalReport, FitConfig, FittedModel, ModelKind};
use rayon::prelude::*;
use wdt_features::{eligible_edges, rate_floors, TransferFeatures};
use wdt_types::EdgeId;

/// One edge's experiment outcome.
pub struct EdgeExperiment {
    /// The edge.
    pub edge: EdgeId,
    /// Transfers used (after threshold filtering).
    pub n_samples: usize,
    /// Linear model evaluation on the held-out 30%.
    pub lr: EvalReport,
    /// Gradient-boosted model evaluation on the held-out 30%.
    pub xgb: EvalReport,
    /// Figure 9: linear significance per feature (includes `Nflt`), with
    /// eliminated features reported as `None` (the red crosses).
    pub lr_significance: Vec<(String, Option<f64>)>,
    /// Figure 12: boosted importance per feature, same convention.
    pub xgb_importance: Vec<(String, Option<f64>)>,
}

/// Configuration of a per-edge experiment run.
#[derive(Debug, Clone)]
pub struct PerEdgeConfig {
    /// Rate threshold as a fraction of `Rmax(edge)` (paper: 0.5).
    pub threshold: f64,
    /// Minimum post-filter transfers for an edge to qualify (paper: 300).
    pub min_transfers: usize,
    /// Cap on the number of edges modeled (paper: 30). `usize::MAX` = all.
    pub max_edges: usize,
    /// Train fraction (paper: 0.7).
    pub train_frac: f64,
    /// Split seed.
    pub seed: u64,
    /// Pipeline configuration.
    pub fit: FitConfig,
}

impl Default for PerEdgeConfig {
    fn default() -> Self {
        PerEdgeConfig {
            threshold: 0.5,
            min_transfers: 300,
            max_edges: 30,
            train_frac: 0.7,
            seed: 0xED6E,
            fit: FitConfig::default(),
        }
    }
}

/// Significance of every feature in the *full* (explanation) dataset:
/// eliminated features become `None`.
fn full_significance(model: &FittedModel, all_names: &[String]) -> Vec<(String, Option<f64>)> {
    let sig = model.significance();
    all_names
        .iter()
        .map(|n| {
            let v = sig.iter().find(|(name, _)| name == n).map(|(_, v)| *v);
            (n.clone(), v)
        })
        .collect()
}

/// Run the per-edge experiments. Edges are processed in descending sample
/// count; training parallelizes across edges with Rayon.
///
/// Each edge's rows are selected straight from `features` against that
/// edge's [`rate_floors`] entry: the rows [`threshold_filter`] would keep,
/// in the same order, without a whole-log filtered copy. Only the edges
/// being fitted hold copies of their own rows.
///
/// [`threshold_filter`]: wdt_features::threshold_filter
pub fn run_per_edge(features: &[TransferFeatures], cfg: &PerEdgeConfig) -> Vec<EdgeExperiment> {
    let floors = rate_floors(features, cfg.threshold);
    let mut edges = eligible_edges(features, cfg.threshold, cfg.min_transfers);
    edges.truncate(cfg.max_edges);

    edges
        .par_iter()
        .filter_map(|&(edge, n)| {
            let floor = floors[&edge];
            let mut edge_feats = Vec::with_capacity(n);
            edge_feats
                .extend(features.iter().filter(|f| f.edge == edge && f.rate >= floor).cloned());
            run_one_edge(edge, &edge_feats, cfg)
        })
        .collect()
}

/// Fit LR + GBDT prediction models and explanation models on one edge's
/// (already filtered) transfers.
pub fn run_one_edge(
    edge: EdgeId,
    edge_feats: &[TransferFeatures],
    cfg: &PerEdgeConfig,
) -> Option<EdgeExperiment> {
    if edge_feats.is_empty() {
        return None;
    }
    // Prediction models: no Nflt, 70/30 split.
    let data = build_dataset(edge_feats, false);
    let (train, test) =
        data.split(cfg.train_frac, cfg.seed ^ edge.src.0 as u64 ^ (edge.dst.0 as u64) << 32);
    let lr_model = FittedModel::fit(&train, ModelKind::Linear, &cfg.fit)?;
    let xgb_model = FittedModel::fit(&train, ModelKind::Gbdt, &cfg.fit)?;
    let lr = lr_model.evaluate(&test);
    let xgb = xgb_model.evaluate(&test);

    // Explanation models: with Nflt, full data.
    let explain_data = build_dataset(edge_feats, true);
    let all_names = explain_data.names.clone();
    let lr_explain = FittedModel::fit(&explain_data, ModelKind::Linear, &cfg.fit)?;
    let xgb_explain = FittedModel::fit(&explain_data, ModelKind::Gbdt, &cfg.fit)?;

    Some(EdgeExperiment {
        edge,
        n_samples: edge_feats.len(),
        lr,
        xgb,
        lr_significance: full_significance(&lr_explain, &all_names),
        xgb_importance: full_significance(&xgb_explain, &all_names),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::EvalReport;
    use wdt_types::{EndpointId, TransferId};

    /// SplitMix64-based uniform draw, decorrelated across `(i, k)`.
    fn unif(seed: u64, i: u64, k: u64) -> f64 {
        let mut z = seed
            .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(k.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Synthetic edge whose rate depends nonlinearly on competing load.
    fn synth_edge(n: usize, edge: EdgeId, seed: u64) -> Vec<TransferFeatures> {
        (0..n)
            .map(|i| {
                let u = |k: u64| unif(seed, i as u64, k);
                let k_sout = 400.0e6 * u(3);
                let k_din = 400.0e6 * u(7);
                let g_dst = 30.0 * u(11);
                let n_b = 1.0e9 * (0.2 + 5.0 * u(17));
                // Nonlinear ground truth with interactions + mild noise.
                let rate = 800.0e6
                    / (1.0 + (k_sout + 2.0 * k_din) / 300.0e6)
                    / (1.0 + 0.02 * g_dst * g_dst / 30.0)
                    * (n_b / (n_b + 2.0e8))
                    * (1.0 + 0.03 * (u(23) - 0.5));
                TransferFeatures {
                    id: TransferId(i as u64),
                    edge,
                    start: i as f64 * 10.0,
                    end: i as f64 * 10.0 + 100.0,
                    rate,
                    k_sout,
                    k_din,
                    c: 4.0,
                    p: 2.0,
                    s_sout: k_sout / 1e7,
                    s_sin: 0.0,
                    s_dout: 0.0,
                    s_din: k_din / 1e7,
                    k_sin: 0.0,
                    k_dout: 0.0,
                    n_d: 5.0,
                    n_b,
                    n_flt: if u(29) > 0.9 { 1.0 } else { 0.0 },
                    g_src: 10.0 * u(31),
                    g_dst,
                    n_f: 100.0,
                }
            })
            .collect()
    }

    fn quick_cfg() -> PerEdgeConfig {
        // Threshold 0 keeps all synthetic samples: the generator has no
        // hidden load to filter out, and tests gate on min_transfers.
        let mut cfg = PerEdgeConfig { min_transfers: 100, threshold: 0.0, ..Default::default() };
        cfg.fit.gbdt.n_rounds = 60;
        cfg
    }

    #[test]
    fn xgb_beats_lr_on_nonlinear_edge() {
        let edge = EdgeId::new(EndpointId(0), EndpointId(1));
        let feats = synth_edge(800, edge, 41);
        let exps = run_per_edge(&feats, &quick_cfg());
        assert_eq!(exps.len(), 1);
        let e = &exps[0];
        assert!(e.xgb.mdape < e.lr.mdape, "xgb {} vs lr {}", e.xgb.mdape, e.lr.mdape);
        assert!(e.xgb.mdape < 10.0, "xgb MdAPE {}", e.xgb.mdape);
    }

    #[test]
    fn constant_c_p_are_eliminated() {
        let edge = EdgeId::new(EndpointId(0), EndpointId(1));
        let feats = synth_edge(500, edge, 17);
        let exps = run_per_edge(&feats, &quick_cfg());
        let e = &exps[0];
        let c_sig = e.lr_significance.iter().find(|(n, _)| n == "C").unwrap();
        let p_sig = e.lr_significance.iter().find(|(n, _)| n == "P").unwrap();
        assert!(c_sig.1.is_none(), "C should be eliminated (red cross)");
        assert!(p_sig.1.is_none());
        // Load features survive.
        let k = e.lr_significance.iter().find(|(n, _)| n == "Ksout").unwrap();
        assert!(k.1.is_some());
    }

    #[test]
    fn threshold_and_min_transfers_gate_edges() {
        let edge = EdgeId::new(EndpointId(0), EndpointId(1));
        let feats = synth_edge(80, edge, 9);
        // min_transfers 100 > 80 available → no edges qualify.
        assert!(run_per_edge(&feats, &quick_cfg()).is_empty());
    }

    #[test]
    fn multiple_edges_processed_independently() {
        let e1 = EdgeId::new(EndpointId(0), EndpointId(1));
        let e2 = EdgeId::new(EndpointId(2), EndpointId(3));
        let mut feats = synth_edge(400, e1, 5);
        feats.extend(synth_edge(400, e2, 6));
        let exps = run_per_edge(&feats, &quick_cfg());
        assert_eq!(exps.len(), 2);
        let edges: Vec<EdgeId> = exps.iter().map(|e| e.edge).collect();
        assert!(edges.contains(&e1) && edges.contains(&e2));
    }

    #[test]
    fn max_edges_caps_output() {
        let mut feats = Vec::new();
        for i in 0..4 {
            feats.extend(synth_edge(
                300,
                EdgeId::new(EndpointId(i), EndpointId(i + 10)),
                i as u64 + 1,
            ));
        }
        let cfg = PerEdgeConfig { max_edges: 2, ..quick_cfg() };
        assert_eq!(run_per_edge(&feats, &cfg).len(), 2);
    }

    fn report_bits(r: &EvalReport) -> Vec<u64> {
        let head = [r.n as u64, r.mdape.to_bits(), r.p95.to_bits(), r.rmse.to_bits()];
        head.into_iter()
            .chain([r.r2.to_bits()])
            .chain(r.abs_pct_errors.iter().map(|e| e.to_bits()))
            .collect()
    }

    fn significance_bits(sig: &[(String, Option<f64>)]) -> Vec<(String, Option<u64>)> {
        sig.iter().map(|(n, v)| (n.clone(), v.map(f64::to_bits))).collect()
    }

    #[test]
    fn per_edge_selection_matches_fitting_threshold_filtered_rows() {
        // Interleaved edges, so selection order matters; the threshold
        // drops rows, and every 7th row sits exactly on its edge's floor;
        // the fourth edge has too few rows to qualify.
        let edges: Vec<EdgeId> =
            (0..4).map(|i| EdgeId::new(EndpointId(i), EndpointId(i + 1))).collect();
        let sizes = [500, 400, 300, 20];
        let per_edge: Vec<Vec<TransferFeatures>> = edges
            .iter()
            .zip(sizes)
            .enumerate()
            .map(|(i, (&e, n))| {
                let mut rows = synth_edge(n, e, 70 + i as u64);
                let r_max = rows.iter().map(|f| f.rate).fold(0.0, f64::max);
                rows.iter_mut().step_by(7).for_each(|f| f.rate = 0.5 * r_max);
                rows
            })
            .collect();
        let mut feats = Vec::new();
        for row in 0..sizes[0] {
            feats.extend(per_edge.iter().filter_map(|rows| rows.get(row).cloned()));
        }
        let mut cfg = PerEdgeConfig { threshold: 0.5, min_transfers: 30, ..quick_cfg() };
        cfg.fit.gbdt.n_rounds = 20;

        let got = run_per_edge(&feats, &cfg);
        let filtered = wdt_features::threshold_filter(&feats, cfg.threshold);
        let eligible = eligible_edges(&feats, cfg.threshold, cfg.min_transfers);
        assert_eq!(eligible.len(), 3);
        assert!(filtered.len() < feats.len(), "the threshold must drop rows");
        assert_eq!(got.len(), eligible.len());
        for (g, &(edge, n)) in got.iter().zip(&eligible) {
            let rows: Vec<TransferFeatures> =
                filtered.iter().filter(|f| f.edge == edge).cloned().collect();
            let want = run_one_edge(edge, &rows, &cfg).expect("edge fits");
            assert_eq!((g.edge, g.n_samples), (want.edge, want.n_samples));
            assert_eq!(g.n_samples, n);
            assert_eq!(report_bits(&g.lr), report_bits(&want.lr));
            assert_eq!(report_bits(&g.xgb), report_bits(&want.xgb));
            assert_eq!(
                significance_bits(&g.lr_significance),
                significance_bits(&want.lr_significance)
            );
            assert_eq!(
                significance_bits(&g.xgb_importance),
                significance_bits(&want.xgb_importance)
            );
        }
    }
}
