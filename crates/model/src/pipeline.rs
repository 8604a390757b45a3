//! The shared modeling pipeline: dataset assembly → low-variance pruning →
//! z-score normalization → linear or gradient-boosted regression →
//! evaluation.

use wdt_features::{Dataset, Normalizer, TransferFeatures};
use wdt_ml::{
    mdape, pct_error_quantile, r2, rmse, Gbdt, GbdtParams, LinearRegression, NodeArrayForest,
};
use wdt_types::json::{JsonError, JsonValue};

/// Which regression family to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Ordinary least squares (paper §5.1).
    Linear,
    /// Gradient-boosted trees (paper §5.2).
    Gbdt,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// Coefficient-of-variation threshold below which a feature is
    /// eliminated (the paper drops C and P this way).
    pub min_cv: f64,
    /// Boosting hyperparameters (ignored for linear models).
    pub gbdt: GbdtParams,
    /// Ridge stabilizer for the linear model.
    pub ridge: f64,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig { min_cv: 1e-3, gbdt: GbdtParams::default(), ridge: 1e-6 }
    }
}

/// Build the model dataset from engineered features, in feature-table
/// column order.
///
/// `include_nflt` selects between the paper's two uses: `false` for
/// prediction, which keeps the served columns (faults are unknown in
/// advance), `true` for explanation (Figures 9 and 12 include `Nflt`).
pub fn build_dataset(features: &[TransferFeatures], include_nflt: bool) -> Dataset {
    Dataset::from_features(features, |c| include_nflt || c.served())
}

#[derive(Clone)]
enum Inner {
    Linear(LinearRegression),
    /// The arena-layout model is kept for persistence and importance; all
    /// prediction goes through the flattened node-array layout, which is
    /// bitwise-identical by construction (see `wdt_ml::nodearray`).
    Gbdt {
        model: Box<Gbdt>,
        flat: NodeArrayForest,
    },
}

impl Inner {
    fn gbdt(model: Gbdt) -> Self {
        let flat = NodeArrayForest::from_gbdt(&model);
        Inner::Gbdt { model: Box::new(model), flat }
    }
}

/// A trained pipeline: remembers which columns it kept and how it
/// normalized them, so prediction accepts rows in the *original* layout.
///
/// Serializable: persist with [`FittedModel::to_json`] and reload with
/// [`FittedModel::from_json`] to reuse a model across processes.
#[derive(Clone)]
pub struct FittedModel {
    kind: ModelKind,
    /// Indices of kept columns in the original dataset layout.
    kept: Vec<usize>,
    /// Names of kept columns.
    names: Vec<String>,
    /// Names of eliminated (low-variance) columns.
    pub eliminated: Vec<String>,
    normalizer: Normalizer,
    inner: Inner,
}

/// Reusable workspace for [`FittedModel::predict_into`]: holds the
/// prepared-row buffers between batches so steady-state prediction
/// allocates nothing. One per caller thread (it is plain data — no
/// locking).
#[derive(Debug, Default)]
pub struct PredictScratch {
    prepared: Vec<Vec<f64>>,
}

impl FittedModel {
    /// Fit on a training dataset. Returns `None` for degenerate inputs
    /// (no rows, or every feature eliminated).
    pub fn fit(train: &Dataset, kind: ModelKind, cfg: &FitConfig) -> Option<Self> {
        if train.is_empty() {
            return None;
        }
        let low = train.low_variance_columns(cfg.min_cv);
        let kept: Vec<usize> = (0..train.width()).filter(|j| !low.contains(j)).collect();
        if kept.is_empty() {
            return None;
        }
        let names: Vec<String> = kept.iter().map(|&j| train.names[j].clone()).collect();
        let eliminated: Vec<String> = low.iter().map(|&j| train.names[j].clone()).collect();
        let x: Vec<Vec<f64>> =
            train.x.iter().map(|row| kept.iter().map(|&j| row[j]).collect()).collect();
        let pruned = Dataset::new(names.clone(), x, train.y.clone());
        let normalizer = Normalizer::fit(&pruned);
        let normed = normalizer.apply(&pruned);
        let inner = match kind {
            ModelKind::Linear => {
                Inner::Linear(LinearRegression::fit(&normed.x, &normed.y, cfg.ridge)?)
            }
            ModelKind::Gbdt => Inner::gbdt(Gbdt::fit(&normed.x, &normed.y, &cfg.gbdt)),
        };
        Some(FittedModel { kind, kept, names, eliminated, normalizer, inner })
    }

    /// The model family.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Names of the features the model actually uses.
    pub fn feature_names(&self) -> &[String] {
        &self.names
    }

    /// Indices of the used features in the *original* (pre-pruning) row
    /// layout, parallel to [`FittedModel::feature_names`]. Serving layers
    /// use this to validate that a loaded artifact is compatible with the
    /// feature schema they build rows in.
    pub fn kept_columns(&self) -> &[usize] {
        &self.kept
    }

    /// Gather kept columns and normalize, producing the row layout the
    /// inner model was fitted on.
    fn prepare_row(&self, row: &[f64]) -> Vec<f64> {
        let mut r: Vec<f64> = self.kept.iter().map(|&j| row[j]).collect();
        self.normalizer.apply_row(&mut r);
        r
    }

    /// Predict rows given in the original (pre-pruning) layout. Boosted
    /// models are block-evaluated over the flattened tree layout; results
    /// are bitwise equal to mapping [`FittedModel::predict_row`].
    pub fn predict(&self, x: &[Vec<f64>]) -> Vec<f64> {
        match &self.inner {
            Inner::Linear(_) => x.iter().map(|row| self.predict_row(row)).collect(),
            Inner::Gbdt { flat, .. } => {
                let prepared: Vec<Vec<f64>> = x.iter().map(|row| self.prepare_row(row)).collect();
                flat.predict(&prepared)
            }
        }
    }

    /// Allocation-free batch prediction for serving hot paths: like
    /// [`FittedModel::predict`], but writes rates into `out` and reuses
    /// `scratch` for the prepared (pruned + normalized) rows, so a
    /// warmed-up caller predicts whole batches without touching the
    /// allocator. Results are bitwise equal to [`FittedModel::predict`]:
    /// row preparation runs the same gather + normalize, and boosted
    /// models go through the same block kernel
    /// (`NodeArrayForest::predict_into`) that `predict` uses.
    pub fn predict_into(&self, x: &[Vec<f64>], out: &mut Vec<f64>, scratch: &mut PredictScratch) {
        out.clear();
        out.resize(x.len(), 0.0);
        while scratch.prepared.len() < x.len() {
            scratch.prepared.push(Vec::new());
        }
        for (row, prep) in x.iter().zip(scratch.prepared.iter_mut()) {
            prep.clear();
            prep.extend(self.kept.iter().map(|&j| row[j]));
            self.normalizer.apply_row(prep);
        }
        let prepared = &scratch.prepared[..x.len()];
        match &self.inner {
            Inner::Linear(m) => {
                for (prep, o) in prepared.iter().zip(out.iter_mut()) {
                    *o = m.predict_one(prep);
                }
            }
            Inner::Gbdt { flat, .. } => flat.predict_into(prepared, out),
        }
    }

    /// Per-feature attribution for one row in the original layout,
    /// allocation-free once warmed: `contribs` is resized to the kept
    /// width (parallel to [`FittedModel::feature_names`]) and `scratch`
    /// holds the prepared row. On return,
    ///
    /// ```text
    /// bias + contribs[0] + … + contribs[k-1] == prediction   (bitwise)
    /// ```
    ///
    /// folded left-to-right, where `prediction` is bitwise equal to
    /// [`FittedModel::predict_row`]. Boosted models attribute via Saabas
    /// path deltas on the flattened forest; linear models attribute
    /// `βⱼ·xⱼ` (normalized space) per feature with the intercept as bias.
    /// Both reconcile the few-ulp fold residual into the last slot
    /// (`wdt_ml::exact_reconcile`). Attributions are in the normalized
    /// feature space, which shares names with the original space.
    /// Returns `(bias, prediction)`.
    pub fn explain_row_into(
        &self,
        row: &[f64],
        contribs: &mut Vec<f64>,
        scratch: &mut PredictScratch,
    ) -> (f64, f64) {
        if scratch.prepared.is_empty() {
            scratch.prepared.push(Vec::new());
        }
        let prep = &mut scratch.prepared[0];
        prep.clear();
        prep.extend(self.kept.iter().map(|&j| row[j]));
        self.normalizer.apply_row(prep);
        contribs.clear();
        contribs.resize(self.kept.len(), 0.0);
        match &self.inner {
            Inner::Linear(m) => {
                let prediction = m.predict_one(prep);
                for ((c, b), x) in contribs.iter_mut().zip(&m.coefficients).zip(prep.iter()) {
                    *c = b * x;
                }
                let bias = wdt_ml::exact_reconcile(m.intercept, prediction, contribs, true);
                (bias, prediction)
            }
            Inner::Gbdt { flat, .. } => flat.explain_into(prep, contribs),
        }
    }

    /// Convenience attribution for one row: allocates fresh buffers and
    /// returns `(bias, prediction, contributions)`; see
    /// [`FittedModel::explain_row_into`] for the invariants.
    pub fn explain_row(&self, row: &[f64]) -> (f64, f64, Vec<f64>) {
        let mut contribs = Vec::new();
        let mut scratch = PredictScratch::default();
        let (bias, prediction) = self.explain_row_into(row, &mut contribs, &mut scratch);
        (bias, prediction, contribs)
    }

    /// Predict one row in the original layout.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let r = self.prepare_row(row);
        match &self.inner {
            Inner::Linear(m) => m.predict_one(&r),
            Inner::Gbdt { flat, .. } => flat.predict_row(&r),
        }
    }

    /// Per-feature significance over kept features: |coefficient| for
    /// linear models (Figure 9), gain importance for boosted models
    /// (Figure 12) — both scaled so the maximum is 1.
    pub fn significance(&self) -> Vec<(String, f64)> {
        let raw = match &self.inner {
            Inner::Linear(m) => m.relative_significance(),
            Inner::Gbdt { model, .. } => model.feature_importance(),
        };
        self.names.iter().cloned().zip(raw).collect()
    }

    /// Serialize the fitted model to JSON for persistence.
    pub fn to_json(&self) -> String {
        let (family, inner) = match &self.inner {
            Inner::Linear(m) => ("linear", m.to_json_value()),
            Inner::Gbdt { model, .. } => ("gbdt", model.to_json_value()),
        };
        JsonValue::obj([
            ("kind", JsonValue::Str(family.to_string())),
            ("kept", JsonValue::Arr(self.kept.iter().map(|&j| JsonValue::Num(j as f64)).collect())),
            (
                "names",
                JsonValue::Arr(self.names.iter().map(|n| JsonValue::Str(n.clone())).collect()),
            ),
            (
                "eliminated",
                JsonValue::Arr(self.eliminated.iter().map(|n| JsonValue::Str(n.clone())).collect()),
            ),
            (
                "normalizer",
                JsonValue::obj([
                    ("mean", JsonValue::nums(&self.normalizer.mean)),
                    ("std", JsonValue::nums(&self.normalizer.std)),
                ]),
            ),
            ("model", inner),
        ])
        .to_string()
    }

    /// Reload a model persisted with [`FittedModel::to_json`].
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        let v = JsonValue::parse(json)?;
        let model = v.field("model")?;
        let (kind, inner) = match v.field("kind")?.as_str()? {
            "linear" => {
                (ModelKind::Linear, Inner::Linear(LinearRegression::from_json_value(model)?))
            }
            "gbdt" => (ModelKind::Gbdt, Inner::gbdt(Gbdt::from_json_value(model)?)),
            other => return Err(JsonError::new(format!("unknown model kind '{other}'"))),
        };
        let normalizer = v.field("normalizer")?;
        let normalizer = Normalizer {
            mean: normalizer.field("mean")?.as_f64_vec()?,
            std: normalizer.field("std")?.as_f64_vec()?,
        };
        let kept = v.field("kept")?.as_usize_vec()?;
        let names = v.field("names")?.as_string_vec()?;
        let model_width = match &inner {
            Inner::Linear(m) => m.coefficients.len(),
            Inner::Gbdt { model, .. } => model.n_features(),
        };
        let widths = [kept.len(), normalizer.mean.len(), normalizer.std.len(), model_width];
        if widths.iter().any(|&w| w != names.len()) {
            return Err(JsonError::new("inconsistent model artifact"));
        }
        Ok(FittedModel {
            kind,
            kept,
            names,
            eliminated: v.field("eliminated")?.as_string_vec()?,
            normalizer,
            inner,
        })
    }

    /// Evaluate on a test dataset (original layout).
    pub fn evaluate(&self, test: &Dataset) -> EvalReport {
        let pred = self.predict(&test.x);
        EvalReport {
            n: test.len(),
            mdape: mdape(&pred, &test.y),
            p95: pct_error_quantile(&pred, &test.y, 0.95),
            rmse: rmse(&pred, &test.y),
            r2: r2(&pred, &test.y),
            abs_pct_errors: wdt_ml::abs_pct_errors(&pred, &test.y),
        }
    }
}

/// Evaluation results on held-out data.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Test-set size.
    pub n: usize,
    /// Median absolute percentage error (%).
    pub mdape: f64,
    /// 95th-percentile absolute percentage error (%).
    pub p95: f64,
    /// Root-mean-square error (bytes/s).
    pub rmse: f64,
    /// Coefficient of determination.
    pub r2: f64,
    /// The raw per-transfer absolute percentage errors (violin material).
    pub abs_pct_errors: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic dataset with a nonlinear target, a linear feature, a
    /// constant column, and a noise column.
    fn synth(n: usize) -> Dataset {
        let names = vec!["lin".into(), "sq".into(), "const".into(), "noise".into()];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = (i % 23) as f64;
            let b = (i % 11) as f64 - 5.0;
            let noise = ((i * 2654435761) % 97) as f64 / 97.0;
            x.push(vec![a, b, 7.0, noise]);
            y.push(3.0 * a + 10.0 * b * b + noise);
        }
        Dataset::new(names, x, y)
    }

    #[test]
    fn eliminates_constant_column() {
        let d = synth(300);
        let m = FittedModel::fit(&d, ModelKind::Linear, &FitConfig::default()).unwrap();
        assert_eq!(m.eliminated, vec!["const".to_string()]);
        assert_eq!(m.feature_names().len(), 3);
    }

    #[test]
    fn gbdt_beats_linear_on_nonlinear_target() {
        let d = synth(600);
        let (train, test) = d.split(0.7, 1);
        let cfg = FitConfig::default();
        let lr = FittedModel::fit(&train, ModelKind::Linear, &cfg).unwrap();
        let xgb = FittedModel::fit(&train, ModelKind::Gbdt, &cfg).unwrap();
        let lr_eval = lr.evaluate(&test);
        let xgb_eval = xgb.evaluate(&test);
        assert!(xgb_eval.mdape < lr_eval.mdape, "GBDT {} vs LR {}", xgb_eval.mdape, lr_eval.mdape);
        assert!(xgb_eval.r2 > 0.95, "GBDT R² {}", xgb_eval.r2);
    }

    #[test]
    fn predict_accepts_original_layout() {
        let d = synth(200);
        let m = FittedModel::fit(&d, ModelKind::Gbdt, &FitConfig::default()).unwrap();
        // Row with the constant column still present.
        let p = m.predict_row(&[5.0, 2.0, 7.0, 0.3]);
        assert!(p.is_finite());
    }

    #[test]
    fn batch_predict_is_bitwise_equal_to_row_at_a_time() {
        let d = synth(400);
        for kind in [ModelKind::Linear, ModelKind::Gbdt] {
            let m = FittedModel::fit(&d, kind, &FitConfig::default()).unwrap();
            let batch = m.predict(&d.x);
            for (row, b) in d.x.iter().zip(&batch) {
                assert_eq!(m.predict_row(row).to_bits(), b.to_bits(), "{kind:?}");
            }
        }
    }

    #[test]
    fn predict_into_is_bitwise_equal_and_reuses_scratch() {
        let d = synth(300);
        for kind in [ModelKind::Linear, ModelKind::Gbdt] {
            let m = FittedModel::fit(&d, kind, &FitConfig::default()).unwrap();
            let mut out = Vec::new();
            let mut scratch = PredictScratch::default();
            // Varying batch sizes through ONE scratch, including shrinks.
            for len in [64usize, 300, 1, 17] {
                let batch = &d.x[..len];
                m.predict_into(batch, &mut out, &mut scratch);
                let want = m.predict(batch);
                assert_eq!(out.len(), want.len());
                for (a, b) in out.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} len {len}");
                }
            }
        }
    }

    #[test]
    fn explain_row_reconstructs_prediction_bitwise_for_both_kinds() {
        let d = synth(300);
        for kind in [ModelKind::Linear, ModelKind::Gbdt] {
            let m = FittedModel::fit(&d, kind, &FitConfig::default()).unwrap();
            let mut contribs = Vec::new();
            let mut scratch = PredictScratch::default();
            for row in &d.x {
                let (bias, pred) = m.explain_row_into(row, &mut contribs, &mut scratch);
                assert_eq!(contribs.len(), m.feature_names().len(), "{kind:?}");
                assert_eq!(pred.to_bits(), m.predict_row(row).to_bits(), "{kind:?}");
                let folded = contribs.iter().fold(bias, |a, &c| a + c);
                assert_eq!(folded.to_bits(), pred.to_bits(), "{kind:?} row {row:?}");
            }
            // The convenience form agrees with the _into form.
            let (b2, p2, c2) = m.explain_row(&d.x[0]);
            let (b1, p1) = m.explain_row_into(&d.x[0], &mut contribs, &mut scratch);
            assert_eq!((b1.to_bits(), p1.to_bits()), (b2.to_bits(), p2.to_bits()));
            assert_eq!(contribs, c2);
        }
    }

    #[test]
    fn explain_survives_model_persistence() {
        let d = synth(250);
        let m = FittedModel::fit(&d, ModelKind::Gbdt, &FitConfig::default()).unwrap();
        let back = FittedModel::from_json(&m.to_json()).unwrap();
        for row in d.x.iter().take(40) {
            let (b1, p1, c1) = m.explain_row(row);
            let (b2, p2, c2) = back.explain_row(row);
            assert_eq!((b1.to_bits(), p1.to_bits()), (b2.to_bits(), p2.to_bits()));
            assert_eq!(c1, c2);
        }
    }

    #[test]
    fn significance_covers_kept_features() {
        let d = synth(300);
        let m = FittedModel::fit(&d, ModelKind::Gbdt, &FitConfig::default()).unwrap();
        let sig = m.significance();
        assert_eq!(sig.len(), 3);
        let max = sig.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
        assert_eq!(max, 1.0);
        // The squared feature dominates the target → top importance.
        let top = sig.iter().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap();
        assert_eq!(top.0, "sq");
    }

    #[test]
    fn empty_dataset_returns_none() {
        let d = Dataset::new(vec!["a".into()], vec![], vec![]);
        assert!(FittedModel::fit(&d, ModelKind::Linear, &FitConfig::default()).is_none());
    }

    #[test]
    fn build_dataset_respects_nflt_flag() {
        use wdt_types::{EdgeId, EndpointId, TransferId};
        let f = TransferFeatures {
            id: TransferId(0),
            edge: EdgeId::new(EndpointId(0), EndpointId(1)),
            start: 0.0,
            end: 1.0,
            rate: 5.0,
            k_sout: 1.0,
            k_din: 2.0,
            c: 4.0,
            p: 2.0,
            s_sout: 0.0,
            s_sin: 0.0,
            s_dout: 0.0,
            s_din: 0.0,
            k_sin: 0.0,
            k_dout: 0.0,
            n_d: 1.0,
            n_b: 10.0,
            n_flt: 3.0,
            g_src: 0.0,
            g_dst: 0.0,
            n_f: 2.0,
        };
        let with = build_dataset(std::slice::from_ref(&f), true);
        let without = build_dataset(&[f], false);
        assert_eq!(with.width(), 16);
        assert_eq!(without.width(), 15);
        assert!(!without.names.iter().any(|n| n == "Nflt"));
        assert_eq!(with.y, vec![5.0]);
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;

    #[test]
    fn models_round_trip_through_json() {
        let names = vec!["a".into(), "b".into()];
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 13) as f64, (i % 7) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * r[0] + 2.0 * r[1]).collect();
        let data = Dataset::new(names, x.clone(), y);
        for kind in [ModelKind::Linear, ModelKind::Gbdt] {
            let m = FittedModel::fit(&data, kind, &FitConfig::default()).expect("fit");
            let json = m.to_json();
            let back = FittedModel::from_json(&json).expect("parse");
            for row in x.iter().take(20) {
                assert_eq!(m.predict_row(row), back.predict_row(row), "{kind:?}");
            }
            assert_eq!(m.feature_names(), back.feature_names());
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(FittedModel::from_json("not json").is_err());
        assert!(FittedModel::from_json("{}").is_err());
    }

    /// `unwrap_err` needs `Debug` on the success type; avoid requiring it.
    fn expect_err(r: Result<FittedModel, JsonError>, ctx: &str) -> JsonError {
        match r {
            Err(e) => e,
            Ok(_) => panic!("{ctx}: expected an error, got a model"),
        }
    }

    fn small_artifact(kind: ModelKind) -> String {
        let names = vec!["a".into(), "b".into()];
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![(i % 13) as f64, (i % 7) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] + 2.0 * r[1]).collect();
        let data = Dataset::new(names, x, y);
        FittedModel::fit(&data, kind, &FitConfig::default()).expect("fit").to_json()
    }

    /// A registry must never load half an artifact: every truncation of a
    /// valid artifact fails cleanly instead of panicking or "succeeding".
    #[test]
    fn from_json_rejects_truncated_artifacts() {
        for kind in [ModelKind::Linear, ModelKind::Gbdt] {
            let json = small_artifact(kind);
            for frac in [0.1, 0.5, 0.9, 0.99] {
                let mut cut = (json.len() as f64 * frac) as usize;
                while !json.is_char_boundary(cut) {
                    cut -= 1;
                }
                assert!(
                    FittedModel::from_json(&json[..cut]).is_err(),
                    "{kind:?} artifact truncated to {cut}/{} bytes parsed",
                    json.len()
                );
            }
        }
    }

    #[test]
    fn from_json_rejects_wrong_kind() {
        let swapped =
            small_artifact(ModelKind::Gbdt).replace("\"kind\":\"gbdt\"", "\"kind\":\"forest\"");
        let err = expect_err(FittedModel::from_json(&swapped), "swapped kind");
        assert!(err.to_string().contains("unknown model kind"), "{err}");
        // Mismatched kind/payload: a gbdt payload labeled linear must fail
        // on the payload fields, not crash.
        let mislabeled =
            small_artifact(ModelKind::Gbdt).replace("\"kind\":\"gbdt\"", "\"kind\":\"linear\"");
        assert!(FittedModel::from_json(&mislabeled).is_err());
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let json = small_artifact(ModelKind::Linear);
        let full = wdt_types::json::JsonValue::parse(&json).unwrap();
        let obj = match &full {
            wdt_types::json::JsonValue::Obj(m) => m.clone(),
            _ => unreachable!("artifact is an object"),
        };
        for missing in obj.keys() {
            let mut pruned = obj.clone();
            pruned.remove(missing);
            let text = wdt_types::json::JsonValue::Obj(pruned).to_string();
            let err = expect_err(FittedModel::from_json(&text), missing);
            assert!(
                err.to_string().contains("missing field")
                    || err.to_string().contains("inconsistent"),
                "dropping '{missing}': unexpected error {err}"
            );
        }
    }

    /// `json` with the value at the object-key `path` passed through `edit`.
    fn edited(json: &str, path: &[&str], edit: impl FnOnce(&mut JsonValue)) -> String {
        let mut root = JsonValue::parse(json).unwrap();
        let mut v = &mut root;
        for key in path {
            v = match v {
                JsonValue::Obj(m) => m.get_mut(*key).expect("artifact field"),
                _ => panic!("no object at '{key}'"),
            };
        }
        edit(v);
        root.to_string()
    }

    fn pop(v: &mut JsonValue) {
        let JsonValue::Arr(a) = v else { panic!("expected an array") };
        assert!(a.pop().is_some(), "empty array");
    }

    /// Every width an artifact carries must match its column count: a short
    /// `std` and a split past the last column panicked at prediction, and a
    /// short coefficient list was zipped silently.
    #[test]
    fn from_json_rejects_widths_that_disagree() {
        let linear = small_artifact(ModelKind::Linear);
        let gbdt = small_artifact(ModelKind::Gbdt);
        let far_split = edited(&gbdt, &["model", "trees"], |trees| {
            let JsonValue::Arr(trees) = trees else { panic!("trees are an array") };
            let JsonValue::Arr(nodes) = &mut trees[0] else { panic!("a tree is an array") };
            let JsonValue::Obj(root) = &mut nodes[0] else { panic!("a node is an object") };
            assert!(root.insert("f".into(), JsonValue::Num(99.0)).is_some(), "root splits");
        });
        for (what, broken) in [
            ("short std", edited(&gbdt, &["normalizer", "std"], pop)),
            ("split on column 99", far_split),
            ("short coefficients", edited(&linear, &["model", "coefficients"], pop)),
        ] {
            assert!(FittedModel::from_json(&broken).is_err(), "{what} parsed");
        }
    }

    #[test]
    fn from_json_rejects_inconsistent_shapes() {
        // Normalizer length disagreeing with names must be caught before
        // prediction can index out of bounds.
        let json = small_artifact(ModelKind::Linear);
        let broken = json.replace("\"names\":[\"a\",\"b\"]", "\"names\":[\"a\"]");
        assert_ne!(json, broken, "test fixture drifted: names not found");
        assert!(FittedModel::from_json(&broken).is_err());
    }
}
