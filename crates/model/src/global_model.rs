//! One model for all edges (paper §5.4, Eq. 5).
//!
//! Pool the transfers of every modeled edge, add the two endpoint
//! capability features (`ROmax` of the source, `RImax` of the destination,
//! both estimated from the log), and fit a single linear or boosted model.
//! The paper reports MdAPE 19% (linear) and 4.9% (boosted) — worse than
//! per-edge linear models but usable for edges with little history.

use crate::pipeline::{EvalReport, FitConfig, FittedModel, ModelKind};
use std::collections::BTreeMap;
use wdt_features::{
    endpoint_caps, extend_with_caps, Dataset, EndpointCaps, TransferFeatures, FEATURES,
};
use wdt_types::EndpointId;

/// A fitted global (all-edges) rate model.
pub struct GlobalModel {
    model: FittedModel,
    caps: BTreeMap<EndpointId, EndpointCaps>,
}

/// Build the Eq. 5 dataset: the served Table 2 features extended with
/// `ROmax_src` and `RImax_dst`, using capability estimates from `caps`.
pub fn build_global_dataset(
    features: &[TransferFeatures],
    caps: &BTreeMap<EndpointId, EndpointCaps>,
) -> Dataset {
    let served = FEATURES.iter().filter(|c| c.served()).map(|c| c.name);
    let names = served.chain(["ROmax_src", "RImax_dst"]).map(String::from).collect();
    let x: Vec<Vec<f64>> = features.iter().map(|f| extend_with_caps(f, caps)).collect();
    let y: Vec<f64> = features.iter().map(|f| f.rate).collect();
    Dataset::new(names, x, y)
}

impl GlobalModel {
    /// Fit on pooled (already threshold-filtered) transfers. Capability
    /// features are estimated from the same training pool.
    pub fn fit(
        train_features: &[TransferFeatures],
        kind: ModelKind,
        cfg: &FitConfig,
    ) -> Option<Self> {
        let caps = endpoint_caps(train_features);
        let data = build_global_dataset(train_features, &caps);
        let model = FittedModel::fit(&data, kind, cfg)?;
        Some(GlobalModel { model, caps })
    }

    /// Predict the rate of one transfer (bytes/s) from its features,
    /// including for edges the model never saw (that is the point of §5.4 —
    /// only the *endpoints* need history).
    pub fn predict_one(&self, f: &TransferFeatures) -> f64 {
        self.model.predict_row(&extend_with_caps(f, &self.caps))
    }

    /// Evaluate on held-out transfers.
    pub fn evaluate(&self, test_features: &[TransferFeatures]) -> EvalReport {
        let data = build_global_dataset(test_features, &self.caps);
        self.model.evaluate(&data)
    }

    /// The endpoint capability table the model learned.
    pub fn capabilities(&self) -> &BTreeMap<EndpointId, EndpointCaps> {
        &self.caps
    }

    /// Feature significance of the underlying pipeline.
    pub fn significance(&self) -> Vec<(String, f64)> {
        self.model.significance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdt_types::{EdgeId, TransferId};

    /// Edges with different capability scales; rate depends on capability
    /// and load nonlinearly.
    fn synth(n_per_edge: usize) -> Vec<TransferFeatures> {
        let mut out = Vec::new();
        let mut id = 0u64;
        for (src, dst, cap) in [(0u32, 1u32, 1.0e9), (2, 3, 3.0e8), (4, 5, 6.0e8), (0, 3, 8.0e8)] {
            for i in 0..n_per_edge {
                let h = (id + 1).wrapping_mul(0x9E3779B97F4A7C15);
                let u = |k: u64| (((h >> (k % 37)) % 1000) as f64) / 1000.0;
                let k_sout = cap * 0.8 * u(5);
                let k_din = cap * 0.8 * u(9);
                let rate =
                    cap / (1.0 + (k_sout + k_din) / (0.5 * cap)) * (1.0 + 0.04 * (u(13) - 0.5));
                out.push(TransferFeatures {
                    id: TransferId(id),
                    edge: EdgeId::new(EndpointId(src), EndpointId(dst)),
                    start: i as f64,
                    end: i as f64 + 50.0,
                    rate,
                    k_sout,
                    k_din,
                    c: 4.0,
                    p: 2.0,
                    s_sout: 0.0,
                    s_sin: 0.0,
                    s_dout: 0.0,
                    s_din: 0.0,
                    k_sin: 0.0,
                    k_dout: 0.0,
                    n_d: 1.0,
                    n_b: 1e9,
                    n_flt: 0.0,
                    g_src: 0.0,
                    g_dst: 0.0,
                    n_f: 10.0,
                });
                id += 1;
            }
        }
        out
    }

    fn quick_cfg() -> FitConfig {
        let mut cfg = FitConfig::default();
        cfg.gbdt.n_rounds = 80;
        cfg
    }

    #[test]
    fn global_gbdt_predicts_across_edges() {
        let all = synth(300);
        let (train, test): (Vec<_>, Vec<_>) =
            all.iter().cloned().enumerate().partition(|(i, _)| i % 10 < 7);
        let train: Vec<TransferFeatures> = train.into_iter().map(|(_, f)| f).collect();
        let test: Vec<TransferFeatures> = test.into_iter().map(|(_, f)| f).collect();
        let m = GlobalModel::fit(&train, ModelKind::Gbdt, &quick_cfg()).unwrap();
        let eval = m.evaluate(&test);
        assert!(eval.mdape < 15.0, "global GBDT MdAPE {}", eval.mdape);
    }

    #[test]
    fn gbdt_beats_linear_globally() {
        let all = synth(250);
        let (train, test): (Vec<_>, Vec<_>) =
            all.iter().cloned().enumerate().partition(|(i, _)| i % 10 < 7);
        let train: Vec<TransferFeatures> = train.into_iter().map(|(_, f)| f).collect();
        let test: Vec<TransferFeatures> = test.into_iter().map(|(_, f)| f).collect();
        let cfg = quick_cfg();
        let lr = GlobalModel::fit(&train, ModelKind::Linear, &cfg).unwrap().evaluate(&test);
        let xgb = GlobalModel::fit(&train, ModelKind::Gbdt, &cfg).unwrap().evaluate(&test);
        assert!(xgb.mdape < lr.mdape, "xgb {} vs lr {}", xgb.mdape, lr.mdape);
    }

    #[test]
    fn capability_features_capture_endpoint_scale() {
        let all = synth(200);
        let m = GlobalModel::fit(&all, ModelKind::Gbdt, &quick_cfg()).unwrap();
        let caps = m.capabilities();
        // Endpoint 0 fronts the 1.0e9 edge; endpoint 2 the 3.0e8 edge.
        assert!(caps[&EndpointId(0)].ro_max > caps[&EndpointId(2)].ro_max);
    }

    #[test]
    fn predicts_unseen_edge_between_seen_endpoints() {
        let all = synth(200);
        let m = GlobalModel::fit(&all, ModelKind::Gbdt, &quick_cfg()).unwrap();
        // Fabricate a transfer on the never-seen edge 2 → 1.
        let mut f = all[0].clone();
        f.edge = EdgeId::new(EndpointId(2), EndpointId(1));
        f.k_sout = 0.0;
        f.k_din = 0.0;
        let pred = m.predict_one(&f);
        assert!(pred.is_finite() && pred > 0.0);
    }
}
