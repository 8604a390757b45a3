//! Dataset assembly: feature matrices, normalization, variance pruning.

use crate::transfer_features::{Feature, TransferFeatures, FEATURES};

/// A dense row-major feature matrix with a target vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature names, one per column.
    pub names: Vec<String>,
    /// Row-major features, `rows × names.len()`.
    pub x: Vec<Vec<f64>>,
    /// Targets (transfer rate, bytes/s).
    pub y: Vec<f64>,
}

impl Dataset {
    /// Build from rows; panics if row widths disagree.
    pub fn new(names: Vec<String>, x: Vec<Vec<f64>>, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "x and y must have the same length");
        for row in &x {
            assert_eq!(row.len(), names.len(), "row width must match names");
        }
        Dataset { names, x, y }
    }

    /// The dataset of `features` over the [`FEATURES`] columns `keep`
    /// selects, in table order, with the transfer rate as the target.
    pub fn from_features(features: &[TransferFeatures], keep: impl Fn(&Feature) -> bool) -> Self {
        let cols: Vec<&Feature> = FEATURES.iter().filter(|c| keep(c)).collect();
        Dataset {
            names: cols.iter().map(|c| c.name.to_string()).collect(),
            x: features.iter().map(|f| cols.iter().map(|c| c.of(f)).collect()).collect(),
            y: features.iter().map(|f| f.rate).collect(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of feature columns.
    pub fn width(&self) -> usize {
        self.names.len()
    }

    /// Split into (train, test) by taking every row whose position hashes
    /// below `train_frac` — deterministic given `seed`, independent of row
    /// order stability. The paper uses a random 70/30 split.
    pub fn split(&self, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&train_frac));
        let mut train_x = Vec::new();
        let mut train_y = Vec::new();
        let mut test_x = Vec::new();
        let mut test_y = Vec::new();
        for (i, (row, &y)) in self.x.iter().zip(&self.y).enumerate() {
            // SplitMix-style hash of (seed, index) → uniform in [0,1).
            let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64;
            if u < train_frac {
                train_x.push(row.clone());
                train_y.push(y);
            } else {
                test_x.push(row.clone());
                test_y.push(y);
            }
        }
        (
            Dataset { names: self.names.clone(), x: train_x, y: train_y },
            Dataset { names: self.names.clone(), x: test_x, y: test_y },
        )
    }

    /// Indices of columns whose coefficient of variation is effectively
    /// zero — the paper eliminates C and P this way ("they do not vary
    /// greatly in the log data", §5.1).
    pub fn low_variance_columns(&self, min_cv: f64) -> Vec<usize> {
        let n = self.len().max(1) as f64;
        (0..self.width())
            .filter(|&j| {
                let mean: f64 = self.x.iter().map(|r| r[j]).sum::<f64>() / n;
                let var: f64 = self.x.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / n;
                let scale = mean.abs().max(1e-12);
                var.sqrt() / scale < min_cv
            })
            .collect()
    }
}

/// A fitted z-score normalizer (`x' = (x − mean)/σ`), fit on training data
/// and applied to both splits as the paper prescribes (§5).
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    /// Per-column means.
    pub mean: Vec<f64>,
    /// Per-column standard deviations (zeros replaced by 1 so constant
    /// columns map to 0 instead of NaN).
    pub std: Vec<f64>,
}

impl Normalizer {
    /// Fit on a dataset's feature columns.
    pub fn fit(data: &Dataset) -> Self {
        let n = data.len().max(1) as f64;
        let mut mean = vec![0.0; data.width()];
        let mut std = vec![0.0; data.width()];
        for j in 0..data.width() {
            mean[j] = data.x.iter().map(|r| r[j]).sum::<f64>() / n;
            let var = data.x.iter().map(|r| (r[j] - mean[j]).powi(2)).sum::<f64>() / n;
            std[j] = if var.sqrt() > 1e-12 { var.sqrt() } else { 1.0 };
        }
        Normalizer { mean, std }
    }

    /// Normalize one row in place.
    pub fn apply_row(&self, row: &mut [f64]) {
        for (j, v) in row.iter_mut().enumerate() {
            *v = (*v - self.mean[j]) / self.std[j];
        }
    }

    /// Normalize a whole dataset (returns a copy).
    pub fn apply(&self, data: &Dataset) -> Dataset {
        let mut out = data.clone();
        for row in &mut out.x {
            self.apply_row(row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::new(
            vec!["a".into(), "b".into(), "const".into()],
            vec![
                vec![1.0, 10.0, 5.0],
                vec![2.0, 20.0, 5.0],
                vec![3.0, 30.0, 5.0],
                vec![4.0, 40.0, 5.0],
            ],
            vec![1.0, 2.0, 3.0, 4.0],
        )
    }

    #[test]
    fn split_partitions_rows() {
        let d = tiny();
        let (tr, te) = d.split(0.5, 7);
        assert_eq!(tr.len() + te.len(), d.len());
        // Deterministic.
        let (tr2, _) = d.split(0.5, 7);
        assert_eq!(tr, tr2);
    }

    #[test]
    fn split_fraction_roughly_respected() {
        let n = 2000;
        let d = Dataset::new(
            vec!["x".into()],
            (0..n).map(|i| vec![i as f64]).collect(),
            (0..n).map(|i| i as f64).collect(),
        );
        let (tr, _) = d.split(0.7, 3);
        let frac = tr.len() as f64 / n as f64;
        assert!((0.65..0.75).contains(&frac), "got {frac}");
    }

    #[test]
    fn normalizer_zero_mean_unit_variance() {
        let d = tiny();
        let norm = Normalizer::fit(&d);
        let nd = norm.apply(&d);
        for j in 0..2 {
            let mean: f64 = nd.x.iter().map(|r| r[j]).sum::<f64>() / 4.0;
            let var: f64 = nd.x.iter().map(|r| r[j].powi(2)).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12, "col {j} mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "col {j} var {var}");
        }
        // Constant column maps to zeros, not NaN.
        assert!(nd.x.iter().all(|r| r[2] == 0.0));
    }

    #[test]
    fn low_variance_detects_constant_column() {
        let d = tiny();
        assert_eq!(d.low_variance_columns(0.01), vec![2]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_xy_panics() {
        Dataset::new(vec!["a".into()], vec![vec![1.0]], vec![1.0, 2.0]);
    }
}
