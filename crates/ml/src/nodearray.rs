//! Flattened, cache-friendly inference layout for boosted tree ensembles.
//!
//! [`Gbdt`] keeps each tree as a `Vec<Node>` arena of enum nodes — fine
//! for training, but prediction then pointer-chases a 40-byte enum per
//! step and re-dispatches on the variant every node. A
//! [`NodeArrayForest`] re-lays the whole ensemble out once, after
//! training, as three parallel arrays (structure-of-arrays):
//!
//! * `feature[i]` — split feature index, or [`LEAF`] for leaves;
//! * `threshold[i]` — split threshold, or the *leaf value* for leaves;
//! * `child[i]` — absolute index of the left child; the right child is
//!   always `child[i] + 1` (children are re-numbered to be adjacent).
//!
//! Traversal is branch-free: `i = child[i] + (row[f] > threshold[i])`,
//! one predictable step per level with both children on the same cache
//! line. [`NodeArrayForest::predict`] additionally evaluates micro-batches
//! block-wise — a block of rows walks one tree before the next tree is
//! touched, so each tree's nodes are loaded into cache once per block
//! instead of once per row. Prediction runs on the calling thread: the
//! serving batcher's workers, `run_per_edge`'s edges and `wdt predict`'s
//! chunks of the log run concurrently.
//!
//! **Parity contract:** every comparison (`value > threshold` ⇔ the
//! training-side `value ≤ threshold` goes left), every leaf value, and
//! the per-row accumulation order (tree 0, 1, …, then one multiply by η
//! and one add of the base score) are identical to
//! [`Gbdt::predict_one`], so predictions are **bitwise equal** to the
//! arena layout. The serving stack relies on this: swapping the layout
//! must not move a single ULP (asserted in tests here and end-to-end in
//! `tests/serve.rs`).

use crate::gbdt::Gbdt;
use crate::tree::Node;

/// Sentinel in `feature` marking a leaf node.
const LEAF: u32 = u32::MAX;

/// Rows per block in batched prediction: big enough to amortize walking
/// a tree's nodes into cache, small enough that per-row cursors stay in
/// registers/L1.
const BLOCK_ROWS: usize = 32;

/// A boosted ensemble flattened for inference; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeArrayForest {
    base_score: f64,
    eta: f64,
    /// Root node index of each tree (trees are stored back to back).
    roots: Vec<u32>,
    feature: Vec<u32>,
    threshold: Vec<f64>,
    child: Vec<u32>,
    /// Expected value of each node (leaf value, or a split's would-be
    /// leaf value). Read only by [`NodeArrayForest::explain_into`];
    /// prediction never touches it, so the hot arrays stay dense.
    value: Vec<f64>,
}

/// Force `bias + Σ contribs` (folded left-to-right in slice order) to
/// reconstruct `target` **bitwise**. Saabas path deltas telescope to the
/// prediction in exact arithmetic, but IEEE addition does not cancel
/// bitwise, so the few-ulp residual is folded into the *last* slot and
/// re-checked. Correcting the last slot leaves the fold's prefix fixed —
/// the re-fold ends in a single addition `prefix + c_last`, which as a
/// function of `c_last` attains every representable value near the
/// prefix, so a fixed point exists and the loop converges in one or two
/// passes whenever `target` and the prefix share magnitude (always, for
/// a telescoped prediction). Any earlier slot would re-round the whole
/// tail per pass and frequently admits no fixed point at all. If the
/// loop still cannot converge (non-finite values, catastrophic
/// cancellation) every per-feature detail is surrendered: contributions
/// zero, bias = target — the invariant holds unconditionally. `correct`
/// = false (no split was ever taken) asserts bias already equals target
/// and skips correction. Returns the (possibly adjusted) bias.
pub fn exact_reconcile(bias: f64, target: f64, contribs: &mut [f64], correct: bool) -> f64 {
    let fold = |b: f64, c: &[f64]| c.iter().fold(b, |acc, &v| acc + v);
    let mut acc = fold(bias, contribs);
    if acc.to_bits() == target.to_bits() {
        return bias;
    }
    if correct && !contribs.is_empty() {
        let s = contribs.len() - 1;
        for _ in 0..8 {
            contribs[s] += target - acc;
            acc = fold(bias, contribs);
            if acc.to_bits() == target.to_bits() {
                return bias;
            }
        }
    }
    contribs.fill(0.0);
    target
}

impl NodeArrayForest {
    /// Flatten a fitted ensemble. Cheap (one pass over the nodes); done
    /// once per model load, never on the request path.
    pub fn from_gbdt(model: &Gbdt) -> Self {
        let total: usize = model.trees().iter().map(|t| t.node_count()).sum();
        let mut flat = NodeArrayForest {
            base_score: model.base_score(),
            eta: model.eta(),
            roots: Vec::with_capacity(model.trees().len()),
            feature: Vec::with_capacity(total),
            threshold: Vec::with_capacity(total),
            child: Vec::with_capacity(total),
            value: Vec::with_capacity(total),
        };
        for tree in model.trees() {
            let root = flat.alloc(1);
            flat.roots.push(root as u32);
            flat.place(tree.nodes(), 0, root);
        }
        flat
    }

    /// Reserve `n` adjacent node slots, returning the first index.
    fn alloc(&mut self, n: usize) -> usize {
        let at = self.feature.len();
        self.feature.resize(at + n, LEAF);
        self.threshold.resize(at + n, 0.0);
        self.child.resize(at + n, 0);
        self.value.resize(at + n, 0.0);
        at
    }

    /// Copy arena node `src` into flat slot `dst`, re-numbering children
    /// so every split's children land adjacent (`left`, `left + 1`).
    fn place(&mut self, arena: &[Node], src: usize, dst: usize) {
        let mut pending = vec![(src, dst)];
        while let Some((src, dst)) = pending.pop() {
            match &arena[src] {
                Node::Leaf { value } => {
                    self.feature[dst] = LEAF;
                    self.threshold[dst] = *value;
                    self.value[dst] = *value;
                }
                Node::Split { feature, threshold, left, right, value } => {
                    let c = self.alloc(2);
                    self.feature[dst] = *feature as u32;
                    self.threshold[dst] = *threshold;
                    self.child[dst] = c as u32;
                    self.value[dst] = *value;
                    pending.push((*right, c + 1));
                    pending.push((*left, c));
                }
            }
        }
    }

    /// Trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Sum of leaf values over all trees for one row — the inner loop of
    /// both prediction entry points.
    #[inline]
    fn leaf_sum(&self, row: &[f64]) -> f64 {
        let mut acc = 0.0;
        for &root in &self.roots {
            let mut i = root as usize;
            let mut f = self.feature[i];
            while f != LEAF {
                i = self.child[i] as usize + usize::from(row[f as usize] > self.threshold[i]);
                f = self.feature[i];
            }
            acc += self.threshold[i];
        }
        acc
    }

    /// Predict one row; bitwise equal to [`Gbdt::predict_one`].
    #[inline]
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.base_score + self.eta * self.leaf_sum(row)
    }

    /// Block-evaluate `rows` into `out` (same length): for each block of
    /// [`BLOCK_ROWS`], all rows descend one tree before the next tree is
    /// touched. Per-row accumulation order is still tree 0, 1, …, so the
    /// result is bitwise identical to row-at-a-time prediction.
    fn predict_block(&self, rows: &[Vec<f64>], out: &mut [f64]) {
        debug_assert_eq!(rows.len(), out.len());
        let mut cursor = [0usize; BLOCK_ROWS];
        for (rows, out) in rows.chunks(BLOCK_ROWS).zip(out.chunks_mut(BLOCK_ROWS)) {
            out.fill(0.0);
            for &root in &self.roots {
                cursor[..rows.len()].fill(root as usize);
                for (b, row) in rows.iter().enumerate() {
                    let mut i = cursor[b];
                    let mut f = self.feature[i];
                    while f != LEAF {
                        i = self.child[i] as usize
                            + usize::from(row[f as usize] > self.threshold[i]);
                        f = self.feature[i];
                    }
                    out[b] += self.threshold[i];
                }
            }
            for v in out.iter_mut() {
                *v = self.base_score + self.eta * *v;
            }
        }
    }

    /// Saabas-style per-feature attribution for one row, allocation-free.
    ///
    /// Each descent step from a node to a child changes the tree's
    /// expected value; that delta is credited to the split feature. Per
    /// tree the deltas telescope from the root's expected value down to
    /// the leaf, so summing root values gives the bias and summing path
    /// deltas the rest. After scaling by η the result is passed through
    /// [`exact_reconcile`], making
    ///
    /// ```text
    /// bias + contribs[0] + contribs[1] + … == predict_row(row)   (bitwise)
    /// ```
    ///
    /// an unconditional invariant (fold in slice order). `contribs` must
    /// have one slot per feature the model splits on (the prepared row
    /// width); it is zeroed first. Returns `(bias, prediction)` where
    /// `prediction` is bitwise equal to [`NodeArrayForest::predict_row`].
    pub fn explain_into(&self, row: &[f64], contribs: &mut [f64]) -> (f64, f64) {
        contribs.fill(0.0);
        let mut acc = 0.0; // leaf sum — identical fold to `leaf_sum`
        let mut bias_raw = 0.0;
        let mut split_seen = false;
        for &root in &self.roots {
            let mut i = root as usize;
            let mut f = self.feature[i];
            bias_raw += self.value[i];
            while f != LEAF {
                let parent = i;
                i = self.child[i] as usize + usize::from(row[f as usize] > self.threshold[i]);
                contribs[f as usize] += self.value[i] - self.value[parent];
                split_seen = true;
                f = self.feature[i];
            }
            acc += self.threshold[i];
        }
        let prediction = self.base_score + self.eta * acc;
        let bias = self.base_score + self.eta * bias_raw;
        for c in contribs.iter_mut() {
            *c *= self.eta;
        }
        let bias = exact_reconcile(bias, prediction, contribs, split_seen);
        (bias, prediction)
    }

    /// Predict `rows` into a caller-provided output slice (same length)
    /// — the allocation-free entry point for serving-sized batches.
    /// Bitwise equal to [`NodeArrayForest::predict`], which runs the same
    /// block kernel.
    pub fn predict_into(&self, rows: &[Vec<f64>], out: &mut [f64]) {
        self.predict_block(rows, out);
    }

    /// Predict many rows, block-evaluated. Bitwise equal to mapping
    /// [`NodeArrayForest::predict_row`].
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let mut out = vec![0.0; rows.len()];
        self.predict_block(rows, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbdt::GbdtParams;
    use crate::tree::SplitStrategy;

    fn synth(n: usize, f: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..f)
                    .map(|j| {
                        let z = (i as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
                        (z >> 11) as f64 / (1u64 << 53) as f64 * 100.0
                    })
                    .collect()
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * r[1] + r[2] * r[2] - 3.0 * r[f - 1]).collect();
        (x, y)
    }

    #[test]
    fn flat_predictions_are_bitwise_equal_to_arena() {
        let (x, y) = synth(500, 6);
        for split in [SplitStrategy::Histogram, SplitStrategy::Exact] {
            let params = GbdtParams { n_rounds: 25, split, ..Default::default() };
            let model = Gbdt::fit(&x, &y, &params);
            let flat = NodeArrayForest::from_gbdt(&model);
            assert_eq!(flat.n_trees(), model.n_trees());
            assert!(flat.n_nodes() > flat.n_trees(), "trees must have split");
            for row in &x {
                assert_eq!(
                    flat.predict_row(row).to_bits(),
                    model.predict_one(row).to_bits(),
                    "{split:?} row {row:?}"
                );
            }
            let batched = flat.predict(&x);
            let reference = model.predict(&x);
            for (a, b) in batched.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "{split:?} batched");
            }
        }
    }

    #[test]
    fn batched_equals_row_at_a_time_across_block_boundaries() {
        let (x, y) = synth(BLOCK_ROWS * 3 + 7, 5);
        let model = Gbdt::fit(&x, &y, &GbdtParams { n_rounds: 12, ..Default::default() });
        let flat = NodeArrayForest::from_gbdt(&model);
        let batched = flat.predict(&x);
        for (row, b) in x.iter().zip(&batched) {
            assert_eq!(flat.predict_row(row).to_bits(), b.to_bits());
        }
    }

    #[test]
    fn children_are_adjacent() {
        let (x, y) = synth(300, 4);
        let model = Gbdt::fit(&x, &y, &GbdtParams { n_rounds: 5, ..Default::default() });
        let flat = NodeArrayForest::from_gbdt(&model);
        for i in 0..flat.n_nodes() {
            if flat.feature[i] != LEAF {
                let c = flat.child[i] as usize;
                assert!(c + 1 < flat.n_nodes(), "right child in range");
                assert!(c > i, "children are allocated after their parent");
            }
        }
    }

    #[test]
    fn empty_model_predicts_base_score() {
        let model = Gbdt::fit(&[], &[], &GbdtParams::default());
        let flat = NodeArrayForest::from_gbdt(&model);
        assert_eq!(flat.n_trees(), 0);
        assert_eq!(flat.predict_row(&[1.0, 2.0]), 0.0);
        assert_eq!(flat.predict(&[vec![1.0], vec![2.0]]), vec![0.0, 0.0]);
    }

    #[test]
    fn explain_reconstructs_prediction_bitwise() {
        let (x, y) = synth(400, 6);
        for split in [SplitStrategy::Histogram, SplitStrategy::Exact] {
            let params = GbdtParams { n_rounds: 20, split, ..Default::default() };
            let model = Gbdt::fit(&x, &y, &params);
            let flat = NodeArrayForest::from_gbdt(&model);
            let mut contribs = vec![0.0; 6];
            for row in &x {
                let (bias, pred) = flat.explain_into(row, &mut contribs);
                assert_eq!(pred.to_bits(), flat.predict_row(row).to_bits(), "{split:?}");
                let folded = contribs.iter().fold(bias, |a, &c| a + c);
                assert_eq!(folded.to_bits(), pred.to_bits(), "{split:?} row {row:?}");
                // The attribution is non-trivial: some feature got credit.
                assert!(contribs.iter().any(|&c| c != 0.0), "{split:?}");
            }
        }
    }

    #[test]
    fn explain_matches_arena_twin_bitwise() {
        let (x, y) = synth(300, 5);
        let model = Gbdt::fit(&x, &y, &GbdtParams { n_rounds: 15, ..Default::default() });
        let flat = NodeArrayForest::from_gbdt(&model);
        let mut flat_c = vec![0.0; 5];
        let mut arena_c = vec![0.0; 5];
        for row in &x {
            let (fb, fp) = flat.explain_into(row, &mut flat_c);
            let (ab, ap) = model.explain_one(row, &mut arena_c);
            assert_eq!(fb.to_bits(), ab.to_bits());
            assert_eq!(fp.to_bits(), ap.to_bits());
            for (a, b) in flat_c.iter().zip(&arena_c) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn explain_survives_json_round_trip() {
        let (x, y) = synth(200, 4);
        let model = Gbdt::fit(&x, &y, &GbdtParams { n_rounds: 10, ..Default::default() });
        let text = model.to_json_value().to_string();
        let loaded = Gbdt::from_json_value(&wdt_types::json::JsonValue::parse(&text).unwrap())
            .expect("round trip");
        let flat = NodeArrayForest::from_gbdt(&model);
        let reflat = NodeArrayForest::from_gbdt(&loaded);
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        for row in &x {
            let (ba, pa) = flat.explain_into(row, &mut a);
            let (bb, pb) = reflat.explain_into(row, &mut b);
            assert_eq!((ba.to_bits(), pa.to_bits()), (bb.to_bits(), pb.to_bits()));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn explain_on_empty_model_is_all_bias() {
        let model = Gbdt::fit(&[], &[], &GbdtParams::default());
        let flat = NodeArrayForest::from_gbdt(&model);
        let mut contribs = vec![0.0; 3];
        let (bias, pred) = flat.explain_into(&[1.0, 2.0, 3.0], &mut contribs);
        assert_eq!(bias, 0.0);
        assert_eq!(pred, 0.0);
        assert_eq!(contribs, vec![0.0; 3]);
    }

    #[test]
    fn exact_reconcile_fallback_zeroes_on_nonfinite() {
        let mut contribs = vec![f64::NAN, 1.0];
        let bias = exact_reconcile(0.5, 2.0, &mut contribs, true);
        assert_eq!(bias, 2.0);
        assert_eq!(contribs, vec![0.0, 0.0]);
        let folded = contribs.iter().fold(bias, |a, &c| a + c);
        assert_eq!(folded.to_bits(), 2.0f64.to_bits());
    }
}
