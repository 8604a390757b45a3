//! Gradient-boosted regression trees (the paper's eXtreme Gradient
//! Boosting, §5.2), implemented from scratch.
//!
//! Squared-error objective with second-order updates: each round fits a
//! [`RegressionTree`] to the gradients
//! `g = ŷ − y` (Hessian 1), applies shrinkage `η`, and optionally row
//! subsampling. Gain-based feature importance accumulates across rounds.
//!
//! Features are quantile-binned once per fit ([`BinnedMatrix`], `max_bins`
//! bins per feature) and every round trains on the binned view — the
//! XGBoost/LightGBM histogram design — reusing one set of buffers. After
//! each round the training rows take their new predictions from the
//! leaves' row ranges in the tree's partition, and only rows outside the
//! subsample walk the tree, unless a split's threshold could route a row
//! by value differently from its bin code; then every row walks. Either
//! way the predictions are bit-identical. A fit runs on the calling
//! thread; parallelism lives at the coarse sites that run many fits
//! (per-edge models, tuning folds and grid, scenario sweeps), so nothing
//! here depends on `WDT_THREADS`.

use crate::binning::BinnedMatrix;
use crate::tree::{Node, RegressionTree, TreeParams, TreeWorkspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdt_types::json::{JsonError, JsonValue};

/// Boosting hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtParams {
    /// Number of boosting rounds (trees).
    pub n_rounds: usize,
    /// Learning rate (shrinkage) η.
    pub eta: f64,
    /// Row subsample fraction per round, in (0, 1].
    pub subsample: f64,
    /// Per-tree growth parameters.
    pub tree: TreeParams,
    /// Seed for subsampling.
    pub seed: u64,
    /// Histogram bins per feature (2..=65536); columns with at most this
    /// many distinct values are binned losslessly.
    pub max_bins: usize,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_rounds: 150,
            eta: 0.1,
            subsample: 0.8,
            tree: TreeParams::default(),
            seed: 0x5EED,
            max_bins: 256,
        }
    }
}

/// A fitted boosted ensemble.
#[derive(Debug, Clone)]
pub struct Gbdt {
    base_score: f64,
    eta: f64,
    trees: Vec<RegressionTree>,
    importance: Vec<f64>,
    /// Training loss (MSE) after each round — must be non-increasing when
    /// `subsample == 1`, and is exposed for diagnostics/tests.
    pub train_loss: Vec<f64>,
}

impl Gbdt {
    /// Fit on row-major `x` and targets `y`.
    ///
    /// Panics if `x` and `y` lengths differ; returns a constant predictor
    /// on empty input.
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: &GbdtParams) -> Self {
        let _span = wdt_obs::span("gbdt.fit");
        assert_eq!(x.len(), y.len(), "x and y must be the same length");
        let n = x.len();
        let n_features = x.first().map_or(0, |r| r.len());
        let base_score = if n == 0 { 0.0 } else { y.iter().sum::<f64>() / n as f64 };
        let mut model = Gbdt {
            base_score,
            eta: params.eta,
            trees: Vec::with_capacity(params.n_rounds),
            importance: vec![0.0; n_features],
            train_loss: Vec::with_capacity(params.n_rounds),
        };
        if n == 0 || n_features == 0 {
            return model;
        }
        assert!(params.subsample > 0.0 && params.subsample <= 1.0, "subsample in (0,1]");

        // Quantile-bin the features once; every round trains on the view
        // and reuses one workspace.
        let t_bin = crate::fitmetrics::phase_start();
        let binned = BinnedMatrix::build(x, params.max_bins);
        crate::fitmetrics::phase_end(t_bin, crate::fitmetrics::binning());
        let mut ws = TreeWorkspace::new(&binned);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut preds = vec![base_score; n];
        let mut g = vec![0.0; n];
        let h = vec![1.0; n];
        let mut sample: Vec<usize> = (0..n).collect();
        for _ in 0..params.n_rounds {
            for i in 0..n {
                g[i] = preds[i] - y[i];
            }
            if params.subsample < 1.0 {
                sample.clear();
                sample.extend((0..n).filter(|_| rng.gen_range(0.0..1.0) < params.subsample));
            }
            if sample.is_empty() {
                continue;
            }
            let tree = RegressionTree::fit_binned_in(
                &mut ws,
                &binned,
                &g,
                &h,
                &sample,
                params.tree,
                &mut model.importance,
            );
            if ws.separates() {
                refresh_from_leaves(&mut preds, x, &tree, &ws, &sample, params.eta);
            } else {
                refresh_by_walk(&mut preds, x, &tree, 0..n, params.eta);
            }
            model.trees.push(tree);
            let mse = preds.iter().zip(y).map(|(p, t)| (p - t).powi(2)).sum::<f64>() / n as f64;
            model.train_loss.push(mse);
        }
        model
    }

    /// Predict one row.
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        self.base_score + self.eta * self.trees.iter().map(|t| t.predict_one(row)).sum::<f64>()
    }

    /// Tree-walk twin of [`crate::NodeArrayForest::explain_into`]: Saabas
    /// per-feature path attribution over the *arena* layout, performing
    /// structurally identical floating-point operations in the same order,
    /// so the returned `(bias, prediction)` and every contribution are
    /// **bitwise equal** to the flattened kernel's (asserted by proptest).
    /// `contribs` needs one slot per feature; it is zeroed first. The
    /// invariant `bias + Σ contribs == prediction` holds bitwise when
    /// folded in slice order.
    #[cfg(test)]
    pub(crate) fn explain_one(&self, row: &[f64], contribs: &mut [f64]) -> (f64, f64) {
        contribs.fill(0.0);
        let mut acc = 0.0;
        let mut bias_raw = 0.0;
        let mut split_seen = false;
        for tree in &self.trees {
            let nodes = tree.nodes();
            let mut i = 0;
            bias_raw += nodes[i].value();
            loop {
                match &nodes[i] {
                    Node::Leaf { value } => {
                        acc += *value;
                        break;
                    }
                    Node::Split { feature, threshold, left, right, value } => {
                        let next = if row[*feature] <= *threshold { *left } else { *right };
                        contribs[*feature] += nodes[next].value() - *value;
                        split_seen = true;
                        i = next;
                    }
                }
            }
        }
        let prediction = self.base_score + self.eta * acc;
        let bias = self.base_score + self.eta * bias_raw;
        for c in contribs.iter_mut() {
            *c *= self.eta;
        }
        let bias = crate::nodearray::exact_reconcile(bias, prediction, contribs, split_seen);
        (bias, prediction)
    }

    /// Predict many rows.
    #[cfg(test)]
    pub(crate) fn predict(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|r| self.predict_one(r)).collect()
    }

    /// Gain-based feature importance, normalized so the largest is 1
    /// (all-zeros if no split was ever made) — Figure 12's circles.
    pub fn feature_importance(&self) -> Vec<f64> {
        let max = self.importance.iter().cloned().fold(0.0f64, f64::max);
        if max == 0.0 {
            return vec![0.0; self.importance.len()];
        }
        self.importance.iter().map(|v| v / max).collect()
    }

    /// Number of trees actually grown.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean-target base score added to every prediction.
    pub fn base_score(&self) -> f64 {
        self.base_score
    }

    /// Shrinkage applied to the summed leaf values.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// The fitted trees, in boosting order.
    pub(crate) fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Summed split gains per feature, before normalization.
    #[cfg(test)]
    pub(crate) fn raw_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Persistable representation (see `wdt_types::json`).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj([
            ("base_score", JsonValue::Num(self.base_score)),
            ("eta", JsonValue::Num(self.eta)),
            (
                "trees",
                JsonValue::Arr(self.trees.iter().map(RegressionTree::to_json_value).collect()),
            ),
            ("importance", JsonValue::nums(&self.importance)),
            ("train_loss", JsonValue::nums(&self.train_loss)),
        ])
    }

    /// Number of feature columns the model reads: `importance` has one
    /// entry per column.
    pub fn n_features(&self) -> usize {
        self.importance.len()
    }

    /// Inverse of [`Gbdt::to_json_value`]. Every split must read one of the
    /// model's [`Gbdt::n_features`] columns, so a corrupt artifact cannot
    /// index past a row at prediction time.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, JsonError> {
        let model = Gbdt {
            base_score: v.field("base_score")?.as_f64()?,
            eta: v.field("eta")?.as_f64()?,
            trees: v
                .field("trees")?
                .as_arr()?
                .iter()
                .map(RegressionTree::from_json_value)
                .collect::<Result<_, _>>()?,
            importance: v.field("importance")?.as_f64_vec()?,
            train_loss: v.field("train_loss")?.as_f64_vec()?,
        };
        let width = model.n_features();
        let in_range = |n: &Node| !matches!(n, Node::Split { feature, .. } if *feature >= width);
        if !model.trees.iter().flat_map(|t| t.nodes()).all(in_range) {
            return Err(JsonError::new("tree split feature index out of range"));
        }
        Ok(model)
    }
}

/// Add `eta ×` the tree's prediction to `preds[i]` for every row in
/// `rows`, walking the tree by value.
fn refresh_by_walk(
    preds: &mut [f64],
    x: &[Vec<f64>],
    tree: &RegressionTree,
    rows: std::ops::Range<usize>,
    eta: f64,
) {
    for i in rows {
        preds[i] += eta * tree.predict_one(&x[i]);
    }
}

/// The same update as [`refresh_by_walk`] over all rows, bit for bit,
/// for a tree whose every split separates its rows by value as by code
/// ([`TreeWorkspace::separates`]): each training row takes the value of
/// the leaf whose row range holds it, and only the rows outside the
/// ascending `sample` walk the tree.
fn refresh_from_leaves(
    preds: &mut [f64],
    x: &[Vec<f64>],
    tree: &RegressionTree,
    ws: &TreeWorkspace,
    sample: &[usize],
    eta: f64,
) {
    for (rows, value) in ws.leaf_rows() {
        let step = eta * value;
        for &i in rows {
            preds[i] += step;
        }
    }
    let mut next = 0;
    for &s in sample.iter().chain(&[preds.len()]) {
        refresh_by_walk(preds, x, tree, next..s, eta);
        next = s + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params(rounds: usize) -> GbdtParams {
        GbdtParams { n_rounds: rounds, subsample: 1.0, ..Default::default() }
    }

    #[test]
    fn fits_nonlinear_function() {
        // y = x² — outside any linear model's reach.
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 20.0 - 5.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * r[0]).collect();
        let m = Gbdt::fit(&x, &y, &quick_params(100));
        let mut worst = 0.0f64;
        for (row, t) in x.iter().zip(&y) {
            worst = worst.max((m.predict_one(row) - t).abs());
        }
        assert!(worst < 2.0, "worst abs error {worst}");
    }

    #[test]
    fn training_loss_is_monotone_without_subsampling() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 10) as f64, (i % 7) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 3.0 + r[1] * r[1]).collect();
        let m = Gbdt::fit(&x, &y, &quick_params(60));
        for w in m.train_loss.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "loss increased: {} -> {}", w[0], w[1]);
        }
        assert!(m.train_loss.last().unwrap() < &m.train_loss[0]);
    }

    #[test]
    fn constant_target_predicts_constant() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y = vec![42.0; 50];
        let m = Gbdt::fit(&x, &y, &quick_params(20));
        assert!((m.predict_one(&[13.0]) - 42.0).abs() < 1e-9);
    }

    #[test]
    fn importance_finds_the_signal() {
        let x: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![((i * 31) % 17) as f64, (i % 5) as f64, ((i * 7) % 11) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 100.0 * r[1]).collect();
        let m = Gbdt::fit(&x, &y, &quick_params(50));
        let imp = m.feature_importance();
        assert_eq!(imp[1], 1.0, "{imp:?}");
        assert!(imp[0] < 0.1 && imp[2] < 0.1, "{imp:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64, (i % 9) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] + r[1]).collect();
        let p = GbdtParams { n_rounds: 30, ..Default::default() };
        let a = Gbdt::fit(&x, &y, &p);
        let b = Gbdt::fit(&x, &y, &p);
        for row in &x {
            assert_eq!(a.predict_one(row), b.predict_one(row));
        }
    }

    #[test]
    fn empty_input_gives_zero_predictor() {
        let m = Gbdt::fit(&[], &[], &GbdtParams::default());
        assert_eq!(m.predict_one(&[1.0, 2.0]), 0.0);
        assert_eq!(m.n_trees(), 0);
    }

    #[test]
    fn generalizes_on_held_out_nonlinear_data() {
        // Interaction: y = x0 * x1. Train on a grid, test off-grid.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                x.push(vec![i as f64, j as f64]);
                y.push((i * j) as f64);
            }
        }
        let m = Gbdt::fit(&x, &y, &quick_params(120));
        let pred = m.predict_one(&[7.5, 11.5]);
        let truth = 7.5 * 11.5;
        assert!((pred - truth).abs() / truth < 0.25, "pred {pred} vs truth {truth}");
    }
}
