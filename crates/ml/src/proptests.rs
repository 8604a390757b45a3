//! Property-based parity tests for the training engine, and the oracles
//! they compare it with.
//!
//! The load-bearing property: whenever every feature has at most
//! `max_bins` distinct values, quantization is lossless and the histogram
//! trainer must produce the **identical** tree to the exact greedy
//! trainer, [`exact`] — same splits, same thresholds, same leaf values,
//! same importance. Cases use integer-valued gradients so all partial sums
//! are exactly representable and floating-point associativity cannot blur
//! the comparison.
//!
//! A second oracle, [`dense`], is a histogram trainer without occupancy
//! bitmaps: it zeroes, subtracts and scans every bin of every node. With
//! float gradients, where rounding residuals do arise, the bitmap trainer
//! must grow bit-for-bit the same trees.
//!
//! A third, [`boost_twin`], is the boosting loop without the per-fit
//! workspace, over either tree trainer: every row's prediction refreshed
//! by walking the tree by value. Over the dense trainer, `Gbdt::fit`,
//! which refreshes training rows from the leaves' row ranges, must fit
//! bit-for-bit the same model. Over the exact trainer it is the exact
//! boosted engine, which `Gbdt::fit` must track on training loss and
//! predictions.

#![cfg(test)]

use crate::binning::BinnedMatrix;
use crate::gbdt::{Gbdt, GbdtParams};
use crate::nodearray::NodeArrayForest;
use crate::tree::{Node, RegressionTree, TreeParams, TreeWorkspace};
use proptest::collection::vec;
use proptest::prelude::*;

/// The exact greedy trainer: each node scans every feature's rows in
/// sorted order and splits halfway between adjacent distinct values, then
/// stably partitions every sorted column by the chosen split. O(rows ·
/// features) per node, with per-node allocations.
mod exact {
    use crate::tree::{Node, TreeParams};

    struct Builder<'a> {
        x: &'a [Vec<f64>],
        g: &'a [f64],
        h: &'a [f64],
        params: TreeParams,
        nodes: Vec<Node>,
        importance: &'a mut [f64],
    }

    impl Builder<'_> {
        /// Grow a node over `sorted[f]` = node's sample indices sorted by
        /// feature `f`. Returns the node's arena index.
        fn grow(&mut self, sorted: Vec<Vec<usize>>, depth: usize) -> usize {
            let idx = &sorted[0];
            let g_sum: f64 = idx.iter().map(|&i| self.g[i]).sum();
            let h_sum: f64 = idx.iter().map(|&i| self.h[i]).sum();
            let leaf_value = -g_sum / (h_sum + self.params.lambda);
            let make_leaf = |b: &mut Self| {
                b.nodes.push(Node::Leaf { value: leaf_value });
                b.nodes.len() - 1
            };
            if depth >= self.params.max_depth || idx.len() < 2 {
                return make_leaf(self);
            }
            let parent_score = g_sum * g_sum / (h_sum + self.params.lambda);
            let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
            for (f, order) in sorted.iter().enumerate() {
                let mut gl = 0.0;
                let mut hl = 0.0;
                for w in order.windows(2) {
                    let (i, j) = (w[0], w[1]);
                    gl += self.g[i];
                    hl += self.h[i];
                    let (vi, vj) = (self.x[i][f], self.x[j][f]);
                    if vj <= vi {
                        continue; // no valid threshold between equal values
                    }
                    let gr = g_sum - gl;
                    let hr = h_sum - hl;
                    if hl < self.params.min_child_weight || hr < self.params.min_child_weight {
                        continue;
                    }
                    let gain = 0.5
                        * (gl * gl / (hl + self.params.lambda)
                            + gr * gr / (hr + self.params.lambda)
                            - parent_score)
                        - self.params.gamma;
                    if gain > best.map_or(0.0, |b| b.0) {
                        best = Some((gain, f, 0.5 * (vi + vj)));
                    }
                }
            }
            let Some((gain, feature, threshold)) = best else {
                return make_leaf(self);
            };
            self.importance[feature] += gain;
            // Stable partition of every sorted column by the chosen split.
            let mut left_cols = Vec::with_capacity(sorted.len());
            let mut right_cols = Vec::with_capacity(sorted.len());
            for order in &sorted {
                let (l, r): (Vec<usize>, Vec<usize>) =
                    order.iter().partition(|&&i| self.x[i][feature] <= threshold);
                left_cols.push(l);
                right_cols.push(r);
            }
            drop(sorted);
            let slot = self.nodes.len();
            self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
            let left = self.grow(left_cols, depth + 1);
            let right = self.grow(right_cols, depth + 1);
            self.nodes[slot] = Node::Split { feature, threshold, left, right, value: leaf_value };
            slot
        }
    }

    /// Fit on rows `indices` of `x` with gradients `g` and Hessians `h`;
    /// returns the node arena. Split gains are added into `importance`.
    pub(super) fn fit(
        x: &[Vec<f64>],
        g: &[f64],
        h: &[f64],
        indices: &[usize],
        params: TreeParams,
        importance: &mut [f64],
    ) -> Vec<Node> {
        let n_features = x.first().map_or(0, |r| r.len());
        if indices.is_empty() || n_features == 0 {
            return vec![Node::Leaf { value: 0.0 }];
        }
        // Presort each feature column once.
        let sorted = (0..n_features)
            .map(|f| {
                let mut order = indices.to_vec();
                order.sort_by(|&a, &b| x[a][f].partial_cmp(&x[b][f]).expect("finite features"));
                order
            })
            .collect();
        let mut builder = Builder { x, g, h, params, nodes: Vec::new(), importance };
        builder.grow(sorted, 0);
        builder.nodes
    }
}

/// The dense histogram trainer: the same growth, partition and arithmetic
/// as [`RegressionTree::fit_binned`], over histograms that are zeroed,
/// subtracted and scanned across all of their bins.
mod dense {
    use crate::binning::{BinnedColumn, BinnedMatrix};
    use crate::tree::{Node, TreeParams};

    #[derive(Clone, Copy, Default)]
    struct HistBin {
        g: f64,
        h: f64,
        n: u32,
    }

    #[derive(Clone, Copy)]
    struct SplitCand {
        gain: f64,
        feature: usize,
        bin: u16,
        threshold: f64,
        g_left: f64,
        h_left: f64,
    }

    fn fill(binned: &BinnedMatrix, g: &[f64], h: &[f64], idx: &[usize]) -> Vec<Vec<HistBin>> {
        (0..binned.n_features())
            .map(|f| {
                let mut bins = vec![HistBin::default(); binned.column(f).n_bins()];
                for &i in idx {
                    let b = &mut bins[binned.row(i)[f] as usize];
                    b.g += g[i];
                    b.h += h[i];
                    b.n += 1;
                }
                bins
            })
            .collect()
    }

    fn subtract(parent: &mut [Vec<HistBin>], child: &[Vec<HistBin>]) {
        for (pf, cf) in parent.iter_mut().zip(child) {
            for (p, c) in pf.iter_mut().zip(cf) {
                p.g -= c.g;
                p.h -= c.h;
                p.n -= c.n;
            }
        }
    }

    fn scan(
        col: &BinnedColumn,
        bins: &[HistBin],
        feature: usize,
        g_sum: f64,
        h_sum: f64,
        p: &TreeParams,
    ) -> Option<SplitCand> {
        let parent_score = g_sum * g_sum / (h_sum + p.lambda);
        let (mut gl, mut hl) = (0.0, 0.0);
        let mut pending: Option<(usize, f64, f64)> = None;
        let mut best: Option<SplitCand> = None;
        for (b, cell) in bins.iter().enumerate() {
            if cell.n == 0 {
                continue;
            }
            if let Some((pb, pgl, phl)) = pending {
                let (gr, hr) = (g_sum - pgl, h_sum - phl);
                if phl >= p.min_child_weight && hr >= p.min_child_weight {
                    let gain = 0.5
                        * (pgl * pgl / (phl + p.lambda) + gr * gr / (hr + p.lambda) - parent_score)
                        - p.gamma;
                    if gain > best.map_or(0.0, |c| c.gain) {
                        best = Some(SplitCand {
                            gain,
                            feature,
                            bin: pb as u16,
                            threshold: 0.5 * (col.upper[pb] + col.lower[b]),
                            g_left: pgl,
                            h_left: phl,
                        });
                    }
                }
            }
            gl += cell.g;
            hl += cell.h;
            pending = Some((b, gl, hl));
        }
        best
    }

    struct Grower<'a> {
        binned: &'a BinnedMatrix,
        g: &'a [f64],
        h: &'a [f64],
        params: TreeParams,
        nodes: Vec<Node>,
        importance: &'a mut [f64],
    }

    impl Grower<'_> {
        fn grow(
            &mut self,
            idx: Vec<usize>,
            mut hist: Vec<Vec<HistBin>>,
            g_sum: f64,
            h_sum: f64,
            depth: usize,
        ) -> usize {
            let leaf_value = -g_sum / (h_sum + self.params.lambda);
            let mut best: Option<SplitCand> = None;
            if depth < self.params.max_depth && idx.len() >= 2 {
                for (f, bins) in hist.iter().enumerate() {
                    let col = self.binned.column(f);
                    if let Some(c) = scan(col, bins, f, g_sum, h_sum, &self.params) {
                        if c.gain > best.map_or(0.0, |b| b.gain) {
                            best = Some(c);
                        }
                    }
                }
            }
            let Some(c) = best else {
                self.nodes.push(Node::Leaf { value: leaf_value });
                return self.nodes.len() - 1;
            };
            self.importance[c.feature] += c.gain;
            let binned = self.binned;
            let (left, right): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| binned.row(i)[c.feature] <= c.bin);
            let (left_hist, right_hist) = if left.len() <= right.len() {
                let small = fill(self.binned, self.g, self.h, &left);
                subtract(&mut hist, &small);
                (small, hist)
            } else {
                let small = fill(self.binned, self.g, self.h, &right);
                subtract(&mut hist, &small);
                (hist, small)
            };
            let (gl, hl) = (c.g_left, c.h_left);
            let slot = self.nodes.len();
            self.nodes.push(Node::Leaf { value: 0.0 });
            let l = self.grow(left, left_hist, gl, hl, depth + 1);
            let r = self.grow(right, right_hist, g_sum - gl, h_sum - hl, depth + 1);
            self.nodes[slot] = Node::Split {
                feature: c.feature,
                threshold: c.threshold,
                left: l,
                right: r,
                value: leaf_value,
            };
            slot
        }
    }

    /// The dense twin of [`crate::RegressionTree::fit_binned`]; returns
    /// the node arena.
    pub(super) fn fit(
        binned: &BinnedMatrix,
        g: &[f64],
        h: &[f64],
        indices: &[usize],
        params: TreeParams,
        importance: &mut [f64],
    ) -> Vec<Node> {
        if indices.is_empty() || binned.n_features() == 0 {
            return vec![Node::Leaf { value: 0.0 }];
        }
        let (mut g_sum, mut h_sum) = (0.0, 0.0);
        for &i in indices {
            g_sum += g[i];
            h_sum += h[i];
        }
        let hist = fill(binned, g, h, indices);
        let mut grower = Grower { binned, g, h, params, nodes: Vec::new(), importance };
        grower.grow(indices.to_vec(), hist, g_sum, h_sum, 0);
        grower.nodes
    }
}

/// The boosting loop without the per-fit workspace, over any tree trainer:
/// a refresh that walks every row through every tree.
mod boost_twin {
    use crate::binning::BinnedMatrix;
    use crate::gbdt::GbdtParams;
    use crate::tree::Node;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A fitted model's parts, as `Gbdt` holds them.
    pub(super) struct Fit {
        pub base_score: f64,
        pub eta: f64,
        pub trees: Vec<Vec<Node>>,
        pub importance: Vec<f64>,
        pub train_loss: Vec<f64>,
    }

    impl Fit {
        /// Predict one row, summing in `Gbdt::predict_one`'s order.
        pub fn predict_one(&self, row: &[f64]) -> f64 {
            self.base_score + self.eta * self.trees.iter().map(|t| walk(t, row)).sum::<f64>()
        }
    }

    fn walk(nodes: &[Node], row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match nodes[i] {
                Node::Leaf { value } => return value,
                Node::Split { feature, threshold, left, right, .. } => {
                    i = if row[feature] <= threshold { left } else { right };
                }
            }
        }
    }

    /// Boost `params.n_rounds` trees, each grown by
    /// `grow(gradients, hessians, sample, importance)`.
    pub(super) fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        params: &GbdtParams,
        mut grow: impl FnMut(&[f64], &[f64], &[usize], &mut [f64]) -> Vec<Node>,
    ) -> Fit {
        let n = x.len();
        let base_score = y.iter().sum::<f64>() / n as f64;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut fit = Fit {
            base_score,
            eta: params.eta,
            trees: Vec::new(),
            importance: vec![0.0; x[0].len()],
            train_loss: Vec::new(),
        };
        let mut preds = vec![base_score; n];
        let h = vec![1.0; n];
        for _ in 0..params.n_rounds {
            let g: Vec<f64> = preds.iter().zip(y).map(|(p, t)| p - t).collect();
            let indices: Vec<usize> = if params.subsample < 1.0 {
                (0..n).filter(|_| rng.gen_range(0.0..1.0) < params.subsample).collect()
            } else {
                (0..n).collect()
            };
            if indices.is_empty() {
                continue;
            }
            let nodes = grow(&g, &h, &indices, &mut fit.importance);
            for (p, row) in preds.iter_mut().zip(x) {
                *p += params.eta * walk(&nodes, row);
            }
            fit.trees.push(nodes);
            let mse = preds.iter().zip(y).map(|(p, t)| (p - t).powi(2)).sum::<f64>() / n as f64;
            fit.train_loss.push(mse);
        }
        fit
    }

    /// `Gbdt::fit`'s oracle: per-node dense histograms, column-at-a-time
    /// fill and a branchy partition over the fit's binned matrix.
    pub(super) fn dense(x: &[Vec<f64>], y: &[f64], params: &GbdtParams) -> Fit {
        let binned = BinnedMatrix::build(x, params.max_bins);
        fit(x, y, params, |g, h, idx, imp| super::dense::fit(&binned, g, h, idx, params.tree, imp))
    }

    /// The exact boosted engine: exact greedy trees on the raw values.
    pub(super) fn exact(x: &[Vec<f64>], y: &[f64], params: &GbdtParams) -> Fit {
        fit(x, y, params, |g, h, idx, imp| super::exact::fit(x, g, h, idx, params.tree, imp))
    }
}

/// Assert that `Gbdt::fit` and [`boost_twin::dense`] fit the same model,
/// every float compared by its bits.
fn assert_fits_like_twin(x: &[Vec<f64>], y: &[f64], params: &GbdtParams) {
    let model = Gbdt::fit(x, y, params);
    let twin = boost_twin::dense(x, y, params);
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(model.base_score().to_bits(), twin.base_score.to_bits());
    let trees: Vec<_> = model.trees().iter().map(|t| node_bits(t.nodes())).collect();
    let twin_trees: Vec<_> = twin.trees.iter().map(|t| node_bits(t)).collect();
    prop_assert_eq!(trees, twin_trees);
    prop_assert_eq!(bits(model.raw_importance()), bits(&twin.importance));
    prop_assert_eq!(bits(&model.train_loss), bits(&twin.train_loss));
}

/// A feature value for code `k` of a column of `kind`: 0 spaces values
/// 0.37 apart; 1 and 2 make neighbouring codes adjacent floats (near 1,
/// and subnormals near 0, like a load feature's rounding residue), where
/// a split's midpoint can round onto the upper neighbour.
fn column_value(kind: u8, k: u32) -> f64 {
    match kind {
        0 => f64::from(k) * 0.37,
        1 => 1.0 + f64::from(k) * f64::EPSILON,
        _ => f64::from_bits(u64::from(k)),
    }
}

#[derive(Debug, Clone)]
struct BoostCase {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    params: GbdtParams,
}

/// Boosted fits of up to 7 rounds over up to 120 rows, with columns of
/// adjacent floats among them, subsampled or not, binned losslessly or
/// through forced quantiles.
fn arb_boost_case() -> impl Strategy<Value = BoostCase> {
    let max_bins = prop_oneof![Just(256usize), 2usize..17];
    (2usize..121, 1usize..5, 2u32..40, max_bins).prop_flat_map(|(n, f, v, max_bins)| {
        (
            vec(vec(0u32..v, f), n),
            vec(0u8..3, f),
            vec(-10.0f64..10.0, n),
            1usize..8,
            1usize..=5,
            prop_oneof![Just(1.0), Just(0.8), Just(0.5)],
            prop_oneof![Just(0.0), Just(0.5), Just(1.0)],
            prop_oneof![Just(0.0), Just(0.05)],
            0u64..u64::MAX,
        )
            .prop_map(
                move |(
                    rows,
                    kinds,
                    y,
                    n_rounds,
                    max_depth,
                    subsample,
                    min_child_weight,
                    gamma,
                    seed,
                )| {
                    BoostCase {
                        x: rows
                            .into_iter()
                            .map(|r| {
                                r.into_iter()
                                    .zip(&kinds)
                                    .map(|(k, &c)| column_value(c, k))
                                    .collect()
                            })
                            .collect(),
                        y,
                        params: GbdtParams {
                            n_rounds,
                            eta: 0.3,
                            subsample,
                            tree: TreeParams { max_depth, min_child_weight, lambda: 1.0, gamma },
                            seed,
                            max_bins,
                        },
                    }
                },
            )
    })
}

/// Every field of every node, floats as bits.
fn node_bits(nodes: &[Node]) -> Vec<(usize, u64, usize, usize, u64)> {
    nodes
        .iter()
        .map(|n| match *n {
            Node::Leaf { value } => (usize::MAX, 0, 0, 0, value.to_bits()),
            Node::Split { feature, threshold, left, right, value } => {
                (feature, threshold.to_bits(), left, right, value.to_bits())
            }
        })
        .collect()
}

#[derive(Debug, Clone)]
struct FloatCase {
    x: Vec<Vec<f64>>,
    g: Vec<f64>,
    h: Vec<f64>,
    /// Rows in the tree's sample (a boosting round's subsample).
    idx: Vec<usize>,
    max_bins: usize,
    params: TreeParams,
}

/// Float gradients and Hessians over up to 200 rows, binned either
/// losslessly (`max_bins` 256, up to 200 bins, so several bitmap words) or
/// through forced quantiles (`max_bins` 2–16), so some nodes leave most
/// cells empty and others fill nearly every cell.
fn arb_float_case() -> impl Strategy<Value = FloatCase> {
    let max_bins = prop_oneof![Just(256usize), 2usize..17];
    (2usize..201, 1usize..5, 2u32..300, max_bins).prop_flat_map(|(n, f, v, max_bins)| {
        (
            vec(vec(0u32..v, f), n),
            vec(-10.0f64..10.0, n),
            vec(0.05f64..2.0, n),
            vec(0u32..5, n),
            1usize..=6,
            prop_oneof![Just(0.0), Just(0.5), Just(1.0)],
            prop_oneof![Just(0.0), Just(0.05)],
        )
            .prop_map(move |(rows, g, h, keep, max_depth, min_child_weight, gamma)| {
                FloatCase {
                    x: rows
                        .into_iter()
                        .map(|r| r.into_iter().map(|c| f64::from(c) * 0.37).collect())
                        .collect(),
                    g,
                    h,
                    idx: keep
                        .iter()
                        .enumerate()
                        .filter(|&(_, &k)| k != 0)
                        .map(|(i, _)| i)
                        .collect(),
                    max_bins,
                    params: TreeParams { max_depth, min_child_weight, lambda: 1.0, gamma },
                }
            })
    })
}

#[derive(Debug, Clone)]
struct Case {
    x: Vec<Vec<f64>>,
    g: Vec<f64>,
    params: TreeParams,
}

/// Datasets in the lossless regime: few distinct integer feature values,
/// integer gradients, varied growth parameters.
fn arb_case() -> impl Strategy<Value = Case> {
    (2usize..50, 1usize..5, 2u32..12).prop_flat_map(|(n, f, v)| {
        (
            vec(vec(0u32..v, f), n),
            vec(-8i32..9, n),
            1usize..=4,
            prop_oneof![Just(0.5), Just(1.0), Just(2.5)],
            prop_oneof![Just(0.0), Just(0.05)],
        )
            .prop_map(move |(rows, grads, max_depth, min_child_weight, gamma)| Case {
                x: rows.into_iter().map(|r| r.into_iter().map(|c| c as f64).collect()).collect(),
                g: grads.into_iter().map(|gi| gi as f64).collect(),
                params: TreeParams { max_depth, min_child_weight, lambda: 1.0, gamma },
            })
    })
}

/// Two bins whose values are adjacent floats: `1 + ε` and `1 + 2ε`. The
/// midpoint `(2 + 3ε) / 2` rounds onto `1 + 2ε`, so value routing sends
/// the right bin's rows left.
fn adjacent_float_step(lo: f64, hi: f64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let x: Vec<Vec<f64>> = (0..40).map(|i| vec![if i < 20 { lo } else { hi }]).collect();
    let y: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 10.0 }).collect();
    (x, y)
}

#[test]
fn separation_test_flags_a_midpoint_rounded_onto_the_upper_bin() {
    let eps = f64::EPSILON;
    for (lo, hi, separates) in [(1.0 + eps, 1.0 + 2.0 * eps, false), (1.0, 1.0 + eps, true)] {
        let (x, y) = adjacent_float_step(lo, hi);
        let g: Vec<f64> = y.iter().map(|t| -t).collect();
        let h = vec![1.0; x.len()];
        let idx: Vec<usize> = (0..x.len()).collect();
        let binned = BinnedMatrix::build(&x, 256);
        let mut ws = TreeWorkspace::new(&binned);
        let tree = RegressionTree::fit_binned_in(
            &mut ws,
            &binned,
            &g,
            &h,
            &idx,
            TreeParams::default(),
            &mut [0.0],
        );
        let Node::Split { threshold, .. } = tree.nodes()[0] else { panic!("no split") };
        assert_eq!(
            threshold == hi,
            !separates,
            "threshold {threshold:e} between {lo:e} and {hi:e}"
        );
        assert_eq!(ws.separates(), separates);
        // The leaves hold every row once, the right bin's rows on the right.
        let mut rows: Vec<usize> = ws.leaf_rows().flat_map(|(r, _)| r.to_vec()).collect();
        rows.sort_unstable();
        assert_eq!(rows, idx);
        let (right, value) = ws.leaf_rows().nth(1).expect("two leaves");
        assert!(right.iter().all(|&i| i >= 20) && value > 0.0);
        // Routing by value agrees with that exactly when the split separates.
        assert_eq!(tree.predict_one(&[hi]) == value, separates);
    }
}

#[test]
fn boosting_loop_matches_its_twin_on_a_non_separating_split() {
    let (x, y) = adjacent_float_step(1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
    for subsample in [1.0, 0.7] {
        let params = GbdtParams { n_rounds: 5, subsample, ..GbdtParams::default() };
        assert_fits_like_twin(&x, &y, &params);
    }
}

#[test]
fn exact_and_histogram_agree_on_clean_signal() {
    // Both engines fit the same noiseless low-cardinality target; they
    // must agree closely at the prediction level even though boosted
    // parity is not bitwise.
    let x: Vec<Vec<f64>> = (0..400).map(|i| vec![(i % 12) as f64, (i % 5) as f64]).collect();
    let y: Vec<f64> = x.iter().map(|r| 10.0 * r[0] + r[1] * r[1]).collect();
    let params = GbdtParams { n_rounds: 80, subsample: 1.0, ..Default::default() };
    let hist = Gbdt::fit(&x, &y, &params);
    let exact = boost_twin::exact(&x, &y, &params);
    for (row, t) in x.iter().zip(&y) {
        let (ph, pe) = (hist.predict_one(row), exact.predict_one(row));
        assert!((ph - pe).abs() < 1e-6 * (1.0 + t.abs()), "hist {ph} vs exact {pe}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn boosting_loop_fits_its_twins_model_bitwise(case in arb_boost_case()) {
        let BoostCase { x, y, params } = case;
        assert_fits_like_twin(&x, &y, &params);
    }

    #[test]
    fn bitmap_histograms_grow_the_dense_trainers_trees_bitwise(case in arb_float_case()) {
        let FloatCase { x, g, h, idx, max_bins, params } = case;
        let binned = BinnedMatrix::build(&x, max_bins);
        let mut imp_dense = vec![0.0; x[0].len()];
        let dense = dense::fit(&binned, &g, &h, &idx, params, &mut imp_dense);
        let mut imp = vec![0.0; x[0].len()];
        let tree = RegressionTree::fit_binned(&binned, &g, &h, &idx, params, &mut imp);
        prop_assert_eq!(node_bits(tree.nodes()), node_bits(&dense));
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&imp), bits(&imp_dense));
    }

    #[test]
    fn histogram_tree_identical_to_exact_in_lossless_regime(case in arb_case()) {
        let Case { x, g, params } = case;
        let h = vec![1.0; x.len()];
        let idx: Vec<usize> = (0..x.len()).collect();
        let n_features = x[0].len();

        let mut imp_exact = vec![0.0; n_features];
        let exact = exact::fit(&x, &g, &h, &idx, params, &mut imp_exact);

        let binned = BinnedMatrix::build(&x, 256);
        let mut imp_hist = vec![0.0; n_features];
        let hist = RegressionTree::fit_binned(&binned, &g, &h, &idx, params, &mut imp_hist);

        prop_assert_eq!(
            exact.as_slice(), hist.nodes(),
            "trees differ:\n exact {:?}\n hist {:?}", exact, hist
        );
        prop_assert_eq!(&imp_exact, &imp_hist);
    }

    #[test]
    fn histogram_tree_is_invariant_to_index_order(case in arb_case()) {
        // Histograms sum commutatively (exactly so for integer
        // gradients), so the fitted tree must not depend on the order in
        // which a node's sample indices are presented — the property that
        // makes subsampled boosting rounds reproducible however the index
        // buffer was produced.
        let Case { x, g, params } = case;
        let h = vec![1.0; x.len()];
        let idx: Vec<usize> = (0..x.len()).collect();
        let mut reversed: Vec<usize> = idx.clone();
        reversed.reverse();
        let binned = BinnedMatrix::build(&x, 256);
        let mut imp_a = vec![0.0; x[0].len()];
        let a = RegressionTree::fit_binned(&binned, &g, &h, &idx, params, &mut imp_a);
        let mut imp_b = vec![0.0; x[0].len()];
        let b = RegressionTree::fit_binned(&binned, &g, &h, &reversed, params, &mut imp_b);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&imp_a, &imp_b);
    }

    #[test]
    fn boosted_histogram_model_tracks_exact_on_training_loss(
        rows in vec(vec(0u32..7, 3), 8usize..40),
        targets in vec(-20i32..21, 40),
    ) {
        // Model-level check: both engines must fit the training data
        // comparably well. (Bitwise model parity is only guaranteed at
        // the single-tree level — boosted gradients are non-integer after
        // round one, and a last-ulp difference on a near-tie gain may
        // legitimately pick a different, equally good split.)
        let x: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|&c| c as f64).collect())
            .collect();
        let y: Vec<f64> = targets.iter().take(x.len()).map(|&t| t as f64).collect();
        let params = GbdtParams { n_rounds: 12, subsample: 1.0, ..GbdtParams::default() };
        let hist = Gbdt::fit(&x, &y, &params);
        let exact = boost_twin::exact(&x, &y, &params);
        let (lh, le) = (
            *hist.train_loss.last().expect("rounds ran"),
            *exact.train_loss.last().expect("rounds ran"),
        );
        let var = y.iter().map(|v| v * v).sum::<f64>() / y.len() as f64 + 1e-12;
        prop_assert!(
            (lh - le).abs() <= 0.05 * var + 1e-9,
            "training losses diverged: hist {} vs exact {} (variance {})",
            lh,
            le,
            var
        );
    }

    #[test]
    fn attribution_reconstructs_prediction_bitwise(
        rows in vec(vec(0u32..9, 4), 10usize..60),
        targets in vec(-50i32..51, 60),
        probe in vec(vec(0u32..12, 4), 1usize..8),
        n_rounds in 1usize..10,
    ) {
        // The explanation-plane contract: for ANY fitted model and ANY
        // row (including rows outside the training distribution),
        // `bias + Σ contributions` folded in feature order reconstructs
        // the prediction bitwise, the flattened kernel agrees with the
        // arena tree-walk twin bitwise, and the reported prediction is
        // the served prediction.
        let x: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|&c| c as f64).collect())
            .collect();
        let y: Vec<f64> = targets.iter().take(x.len()).map(|&t| t as f64).collect();
        let params = GbdtParams { n_rounds, subsample: 1.0, ..GbdtParams::default() };
        let model = Gbdt::fit(&x, &y, &params);
        let flat = NodeArrayForest::from_gbdt(&model);
        let mut flat_c = vec![0.0; 4];
        let mut arena_c = vec![0.0; 4];
        let probes: Vec<Vec<f64>> = probe
            .iter()
            .map(|r| r.iter().map(|&c| c as f64 - 1.5).collect())
            .collect();
        for raw in x.iter().chain(&probes) {
            let (fb, fp) = flat.explain_into(raw, &mut flat_c);
            let (ab, ap) = model.explain_one(raw, &mut arena_c);
            prop_assert_eq!(fp.to_bits(), flat.predict_row(raw).to_bits());
            prop_assert_eq!(fp.to_bits(), model.predict_one(raw).to_bits());
            prop_assert_eq!(fb.to_bits(), ab.to_bits());
            prop_assert_eq!(fp.to_bits(), ap.to_bits());
            for (a, b) in flat_c.iter().zip(&arena_c) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            let folded = flat_c.iter().fold(fb, |acc, &c| acc + c);
            prop_assert_eq!(
                folded.to_bits(), fp.to_bits(),
                "bias {} + contribs {:?} != prediction {}", fb, &flat_c, fp
            );
        }
    }

    #[test]
    fn histogram_tree_partitions_like_its_thresholds(case in arb_case()) {
        // Structural invariant of the quantized trainer, lossless or not:
        // routing any training row through the fitted tree must follow the
        // same path the trainer used when it partitioned bin codes.
        let Case { x, g, params } = case;
        let h = vec![1.0; x.len()];
        let idx: Vec<usize> = (0..x.len()).collect();
        let binned = BinnedMatrix::build(&x, 4); // force the quantile path
        let mut imp = vec![0.0; x[0].len()];
        let tree = RegressionTree::fit_binned(&binned, &g, &h, &idx, params, &mut imp);
        for row in &x {
            prop_assert!(tree.predict_one(row).is_finite());
        }
        prop_assert!(imp.iter().all(|&v| v >= 0.0));
    }
}
