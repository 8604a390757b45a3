//! Feature quantization for histogram-based tree training.
//!
//! Each feature column is quantile-binned **once per `Gbdt::fit`** into a
//! row-major `u16` code matrix (the XGBoost "approx"/LightGBM design):
//! the codes of one row sit next to each other, so a node's histogram
//! fill reads each of its rows once and adds it to every feature's
//! histogram, and the partition reads one code per row from the same
//! buffer. The tree builder works entirely on codes: per-node
//! gradient/Hessian histograms over ≤ `max_bins` bins replace the exact
//! trainer's per-node re-sort, turning split search from
//! O(rows · features) re-partitioning with allocations into O(rows)
//! histogram accumulation plus an O(bins) scan.
//!
//! Besides the codes, every bin stores the **lower and upper raw value
//! actually observed in it**. A split between in-node-adjacent non-empty
//! bins `i < j` uses the threshold `(upper[i] + lower[j]) / 2` — when
//! every distinct value has its own bin this is *exactly* the midpoint
//! the exact greedy trainer would pick, which is what makes
//! exact-vs-histogram parity testable tree-for-tree (see the property
//! tests in `proptests.rs`).
//!
//! Columns are binned one after another on the calling thread: a column
//! of a few hundred rows takes microseconds, far less than a thread spawn.

/// Per-feature bin value ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedColumn {
    /// Smallest raw value observed in each bin (`+inf` if empty).
    pub lower: Vec<f64>,
    /// Largest raw value observed in each bin (`-inf` if empty).
    pub upper: Vec<f64>,
}

impl BinnedColumn {
    /// Number of bins allocated for this feature.
    pub fn n_bins(&self) -> usize {
        self.lower.len()
    }
}

/// A quantized view of a row-major feature matrix: row-major bin codes
/// plus each feature's bin value ranges.
///
/// Built once per model fit; immutable afterwards, so every boosting
/// round shares it.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedMatrix {
    n_rows: usize,
    /// `codes[i * n_features + f]` is row `i`'s bin in feature `f`.
    codes: Vec<u16>,
    columns: Vec<BinnedColumn>,
}

/// Quantize one feature column into at most `max_bins` bins, returning
/// the column's bin ranges and the code of every value.
///
/// If the column has ≤ `max_bins` distinct values, every distinct value
/// gets its own bin (the lossless regime the parity tests rely on).
/// Otherwise cut points are taken at evenly spaced quantiles of the
/// value distribution, so bins hold roughly equal sample counts.
fn bin_column(values: &[f64], max_bins: usize) -> (BinnedColumn, Vec<u16>) {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
    let mut distinct = sorted.clone();
    distinct.dedup();

    // Inclusive upper cut values; bin(v) = first cut index with cut >= v.
    let cuts: Vec<f64> = if distinct.len() <= max_bins {
        distinct[..distinct.len().saturating_sub(1)].to_vec()
    } else {
        let max = *sorted.last().expect("non-empty column");
        let mut cuts: Vec<f64> =
            (1..max_bins).map(|b| sorted[b * n / max_bins]).filter(|&c| c < max).collect();
        cuts.dedup();
        cuts
    };

    let n_bins = cuts.len() + 1;
    let mut col =
        BinnedColumn { lower: vec![f64::INFINITY; n_bins], upper: vec![f64::NEG_INFINITY; n_bins] };
    let mut codes = Vec::with_capacity(n);
    for &v in values {
        let code = cuts.partition_point(|&c| c < v);
        codes.push(code as u16);
        col.lower[code] = col.lower[code].min(v);
        col.upper[code] = col.upper[code].max(v);
    }
    (col, codes)
}

impl BinnedMatrix {
    /// Quantize row-major `x` with at most `max_bins` bins per feature.
    ///
    /// Panics if `max_bins < 2` or `max_bins > 65536` (codes are `u16`).
    pub fn build(x: &[Vec<f64>], max_bins: usize) -> Self {
        assert!((2..=1 << 16).contains(&max_bins), "max_bins must be in 2..=65536");
        let n_rows = x.len();
        let n_features = x.first().map_or(0, |r| r.len());
        let mut codes = vec![0u16; n_rows * n_features];
        let columns: Vec<BinnedColumn> = (0..n_features)
            .map(|f| {
                let values: Vec<f64> = x.iter().map(|row| row[f]).collect();
                let (col, col_codes) = bin_column(&values, max_bins);
                for (i, c) in col_codes.into_iter().enumerate() {
                    codes[i * n_features + f] = c;
                }
                col
            })
            .collect();
        BinnedMatrix { n_rows, codes, columns }
    }

    /// Number of rows quantized.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.columns.len()
    }

    /// The bin ranges of feature `f`.
    pub fn column(&self, f: usize) -> &BinnedColumn {
        &self.columns[f]
    }

    /// The bin codes of row `i`, one per feature.
    pub(crate) fn row(&self, i: usize) -> &[u16] {
        let nf = self.columns.len();
        &self.codes[i * nf..(i + 1) * nf]
    }

    /// The whole row-major code matrix (`n_rows × n_features`).
    pub(crate) fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Largest per-feature bin count (histogram buffer sizing).
    pub fn max_n_bins(&self) -> usize {
        self.columns.iter().map(BinnedColumn::n_bins).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One column's bin ranges, with its codes.
    struct Col {
        codes: Vec<u16>,
        lower: Vec<f64>,
        upper: Vec<f64>,
    }

    impl Col {
        fn n_bins(&self) -> usize {
            self.lower.len()
        }
    }

    fn col(values: &[f64], max_bins: usize) -> Col {
        let (c, codes) = bin_column(values, max_bins);
        Col { codes, lower: c.lower, upper: c.upper }
    }

    #[test]
    fn lossless_when_few_distinct_values() {
        let vals = [3.0, 1.0, 2.0, 1.0, 3.0, 2.0, 2.0];
        let c = col(&vals, 256);
        assert_eq!(c.n_bins(), 3);
        // Codes follow value order: 1.0 → 0, 2.0 → 1, 3.0 → 2.
        assert_eq!(c.codes, vec![2, 0, 1, 0, 2, 1, 1]);
        for b in 0..3 {
            assert_eq!(c.lower[b], c.upper[b], "one value per bin");
            assert_eq!(c.lower[b], (b + 1) as f64);
        }
    }

    #[test]
    fn quantile_bins_are_balanced_and_bounded() {
        let vals: Vec<f64> = (0..10_000).map(|i| (i as f64).sqrt()).collect();
        let c = col(&vals, 64);
        assert!(c.n_bins() <= 64, "{} bins", c.n_bins());
        assert!(c.n_bins() >= 60, "{} bins", c.n_bins());
        let mut counts = vec![0usize; c.n_bins()];
        for &code in &c.codes {
            counts[code as usize] += 1;
        }
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*lo > 0, "empty bin");
        assert!(*hi <= 3 * 10_000 / 64, "bin of {hi} samples far above 2× target");
        assert!(*lo >= 10_000 / 64 / 2, "bin of {lo} samples far below target");
    }

    #[test]
    fn codes_are_monotone_in_value() {
        let vals: Vec<f64> = (0..5_000u64).map(|i| ((i * 2_654_435_761) % 997) as f64).collect();
        for max_bins in [2usize, 16, 100, 256] {
            let c = col(&vals, max_bins);
            let mut pairs: Vec<(f64, u16)> = vals.iter().copied().zip(c.codes.clone()).collect();
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in pairs.windows(2) {
                assert!(w[0].1 <= w[1].1, "codes not monotone at {w:?}");
                if w[0].0 == w[1].0 {
                    assert_eq!(w[0].1, w[1].1, "equal values split across bins");
                }
            }
        }
    }

    #[test]
    fn bin_value_ranges_are_consistent() {
        let vals: Vec<f64> = (0..3_000).map(|i| ((i * 7919) % 1013) as f64 / 3.0).collect();
        let c = col(&vals, 32);
        for (&v, &code) in vals.iter().zip(&c.codes) {
            let b = code as usize;
            assert!(c.lower[b] <= v && v <= c.upper[b]);
        }
        // Ranges of adjacent non-empty bins never overlap.
        for b in 1..c.n_bins() {
            assert!(c.upper[b - 1] < c.lower[b]);
        }
    }

    #[test]
    fn constant_column_gets_one_bin() {
        let c = col(&[5.0; 100], 256);
        assert_eq!(c.n_bins(), 1);
        assert!(c.codes.iter().all(|&b| b == 0));
    }

    #[test]
    fn heavy_duplicate_mass_does_not_break_binning() {
        // 90% zeros, a long tail of distinct values: quantile cuts collapse
        // onto 0 and must dedupe rather than produce empty bins.
        let mut vals = vec![0.0; 9_000];
        vals.extend((0..1_000).map(|i| 1.0 + i as f64));
        let c = col(&vals, 16);
        assert!(c.n_bins() >= 2);
        let zero_bin = c.codes[0];
        assert!(c.codes[..9_000].iter().all(|&b| b == zero_bin));
    }

    #[test]
    fn matrix_build_is_row_major_and_reproducible() {
        let x: Vec<Vec<f64>> =
            (0..500).map(|i| vec![(i % 7) as f64, i as f64, ((i * 13) % 101) as f64]).collect();
        let m = BinnedMatrix::build(&x, 64);
        assert_eq!(m.n_rows(), 500);
        assert_eq!(m.n_features(), 3);
        assert_eq!(m.column(0).n_bins(), 7);
        assert!(m.column(1).n_bins() <= 64);
        assert_eq!(m.max_n_bins(), m.column(1).n_bins().max(m.column(2).n_bins()).max(7));
        // Row i's codes are its features' codes, in feature order.
        for f in 0..3 {
            let values: Vec<f64> = x.iter().map(|r| r[f]).collect();
            let codes = col(&values, 64).codes;
            for (i, &code) in codes.iter().enumerate() {
                assert_eq!(m.row(i)[f], code);
                assert_eq!(m.codes()[i * 3 + f], code);
            }
        }
        // Rebuilding yields the identical quantization.
        assert_eq!(m, BinnedMatrix::build(&x, 64));
    }

    #[test]
    fn empty_matrix() {
        let m = BinnedMatrix::build(&[], 256);
        assert_eq!(m.n_rows(), 0);
        assert_eq!(m.n_features(), 0);
        assert_eq!(m.max_n_bins(), 0);
    }
}
