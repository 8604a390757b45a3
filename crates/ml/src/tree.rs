//! Regression trees with second-order gradient statistics.
//!
//! The building block of the gradient-boosting model (§5.2). Each split
//! maximizes the XGBoost gain
//!
//! ```text
//! gain = ½ [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ
//! ```
//!
//! The trainer searches histograms over a [`BinnedMatrix`]: per-node
//! gradient/Hessian histograms (child = parent − sibling, so only the
//! smaller child is ever accumulated), all features' histograms in one
//! flat set with an occupancy bitmap, filled in one pass over the node's
//! rows, so fill, subtraction, scan and reuse cost O(rows in the node ×
//! features + bins / 64) rather than O(features × bins), and a branch-free
//! stable in-place partition of one index buffer. A boosting fit keeps the
//! index buffer, the partition scratch and the histogram sets in one
//! `TreeWorkspace` across its trees. Single-threaded: callers parallelize
//! across whole fits (edges, folds, grid points). Its oracles, an exact
//! greedy trainer and a dense-histogram twin, live in the crate's property
//! tests.
//!
//! Split gains accumulate into a per-feature importance vector — the
//! circles of the paper's Figure 12.

#![allow(clippy::needless_range_loop)] // index-heavy numeric kernels read clearer this way

use crate::binning::{BinnedColumn, BinnedMatrix};
use wdt_types::json::{JsonError, JsonValue};

/// Tree growth parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (root = 0).
    pub max_depth: usize,
    /// Minimum sum of Hessians in each child.
    pub min_child_weight: f64,
    /// L2 regularization λ on leaf values.
    pub lambda: f64,
    /// Minimum gain γ required to split.
    pub gamma: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 5, min_child_weight: 1.0, lambda: 1.0, gamma: 0.0 }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the left child in the node arena; right = left + 1
        /// is NOT guaranteed, so both are stored.
        left: usize,
        right: usize,
        /// The leaf value this node *would* have taken had growth stopped
        /// here (−G/(H+λ) over the node's samples) — the "expected value"
        /// Saabas-style path attribution telescopes over. The trainer
        /// computes it anyway before deciding to split, so storing it is
        /// free; prediction never reads it.
        value: f64,
    },
}

#[cfg(test)]
impl Node {
    /// The node's expected value: the leaf value, or the would-be leaf
    /// value of a split (see [`Node::Split::value`]).
    pub(crate) fn value(&self) -> f64 {
        match self {
            Node::Leaf { value } => *value,
            Node::Split { value, .. } => *value,
        }
    }
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

/// One cell of a node histogram: summed gradients, Hessians, and count.
#[derive(Debug, Clone, Copy, Default)]
struct HistBin {
    g: f64,
    h: f64,
    n: u32,
}

/// Every feature's histogram in one node, in one flat buffer: dense cells
/// plus an occupancy bitmap. Feature `f`'s cells start at the workspace's
/// `offsets[f]`, a multiple of 64, so cell `k`'s bit is bit `k % 64` of
/// word `k / 64` and each feature owns whole words. Bit `k` is set exactly
/// when `cells[k].n > 0`, and a cell with `n == 0` is all-zero. So fill,
/// subtraction, scan and reuse cost O(rows in the node + bins / 64), not
/// O(bins): a node of a couple of hundred rows over 256 bins touches the
/// cells its rows reach, not all of them.
struct HistSet {
    cells: Vec<HistBin>,
    words: Vec<u64>,
}

/// Visit the set bits of `words` in ascending order.
#[inline]
fn for_each_set_bit(words: &[u64], mut visit: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            visit(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

impl HistSet {
    fn zeroed(n_cells: usize) -> Self {
        HistSet { cells: vec![HistBin::default(); n_cells], words: vec![0; n_cells / 64] }
    }

    /// Accumulate rows `idx`, in order, into this all-zero set: one pass
    /// over the rows, each added to every feature's histogram and setting
    /// its cells' bits. Every cell still receives its rows in `idx` order,
    /// but consecutive adds go to different features' cells, so they do
    /// not wait on one another.
    fn fill(
        &mut self,
        binned: &BinnedMatrix,
        offsets: &[usize],
        g: &[f64],
        h: &[f64],
        idx: &[usize],
    ) {
        let HistSet { cells, words } = self;
        for &i in idx {
            let (gi, hi) = (g[i], h[i]);
            for (&c, &off) in binned.row(i).iter().zip(offsets) {
                let k = off + c as usize;
                let b = &mut cells[k];
                b.g += gi;
                b.h += hi;
                b.n += 1;
                words[k / 64] |= 1 << (k % 64);
            }
        }
    }

    /// The subtraction trick: `self − child` in place, giving the
    /// sibling's histograms without touching its (larger) row set. Only the
    /// child's occupied cells change (elsewhere the child holds `+0.0`,
    /// and `x − 0.0 == x`); a cell left empty is zeroed and its bit
    /// cleared, which drops the rounding residual it would otherwise keep.
    fn subtract(&mut self, child: &HistSet) {
        let HistSet { cells, words } = self;
        for_each_set_bit(&child.words, |k| {
            let (p, c) = (&mut cells[k], child.cells[k]);
            p.g -= c.g;
            p.h -= c.h;
            p.n -= c.n;
            if p.n == 0 {
                *p = HistBin::default();
                words[k / 64] &= !(1 << (k % 64));
            }
        });
    }

    /// Return to all-zero by clearing only the occupied cells and the
    /// words.
    fn clear(&mut self) {
        let HistSet { cells, words } = self;
        for_each_set_bit(words, |k| cells[k] = HistBin::default());
        words.fill(0);
    }
}

/// Best split found for one node.
#[derive(Debug, Clone, Copy)]
struct SplitCand {
    gain: f64,
    feature: usize,
    /// Last bin code routed left.
    bin: u16,
    threshold: f64,
    /// `upper[bin] <= threshold < lower[next]` for the next non-empty bin
    /// in the node: routing the node's rows by value then agrees with
    /// routing them by code (see [`TreeWorkspace::separates`]).
    separates: bool,
    g_left: f64,
    h_left: f64,
    n_left: usize,
}

/// Accumulate `idx`'s gradient statistics, in `idx` order, into every
/// feature's all-zero histogram.
fn fill_hist(
    binned: &BinnedMatrix,
    offsets: &[usize],
    g: &[f64],
    h: &[f64],
    idx: &[usize],
    hist: &mut HistSet,
) {
    let t0 = crate::fitmetrics::phase_start();
    hist.fill(binned, offsets, g, h, idx);
    crate::fitmetrics::phase_end(t0, crate::fitmetrics::fill_hist());
}

/// Scan one feature's histogram (its `cells` and `words`) for its best
/// split. Candidate thresholds sit halfway between the observed value
/// ranges of in-node-adjacent non-empty bins — exactly the midpoints of
/// exact greedy search whenever each distinct value has its own bin. The
/// set bits are exactly the non-empty bins, in ascending order.
fn search_feature(
    col: &BinnedColumn,
    cells: &[HistBin],
    words: &[u64],
    feature: usize,
    g_sum: f64,
    h_sum: f64,
    params: &TreeParams,
) -> Option<SplitCand> {
    let parent_score = g_sum * g_sum / (h_sum + params.lambda);
    let mut gl = 0.0;
    let mut hl = 0.0;
    let mut nl = 0usize;
    let mut pending: Option<(usize, f64, f64, usize)> = None;
    let mut best: Option<SplitCand> = None;
    for_each_set_bit(words, |b| {
        let cell = cells[b];
        if let Some((pb, pgl, phl, pnl)) = pending {
            let gr = g_sum - pgl;
            let hr = h_sum - phl;
            if phl >= params.min_child_weight && hr >= params.min_child_weight {
                let gain = 0.5
                    * (pgl * pgl / (phl + params.lambda) + gr * gr / (hr + params.lambda)
                        - parent_score)
                    - params.gamma;
                if gain > best.map_or(0.0, |c| c.gain) {
                    let threshold = 0.5 * (col.upper[pb] + col.lower[b]);
                    best = Some(SplitCand {
                        gain,
                        feature,
                        bin: pb as u16,
                        threshold,
                        separates: col.upper[pb] <= threshold && threshold < col.lower[b],
                        g_left: pgl,
                        h_left: phl,
                        n_left: pnl,
                    });
                }
            }
        }
        gl += cell.g;
        hl += cell.h;
        nl += cell.n as usize;
        pending = Some((b, gl, hl, nl));
    });
    best
}

/// Best split across all features, taken in ascending feature order with
/// a strict `>` — the same fixed tie-break as exact greedy search.
fn search_splits(
    binned: &BinnedMatrix,
    offsets: &[usize],
    hist: &HistSet,
    g_sum: f64,
    h_sum: f64,
    params: &TreeParams,
) -> Option<SplitCand> {
    let t0 = crate::fitmetrics::phase_start();
    let mut best: Option<SplitCand> = None;
    for (f, span) in offsets.windows(2).enumerate() {
        let (cells, words) =
            (&hist.cells[span[0]..span[1]], &hist.words[span[0] / 64..span[1] / 64]);
        if let Some(c) = search_feature(binned.column(f), cells, words, f, g_sum, h_sum, params) {
            if c.gain > best.map_or(0.0, |b| b.gain) {
                best = Some(c);
            }
        }
    }
    crate::fitmetrics::phase_end(t0, crate::fitmetrics::split_search());
    best
}

/// The buffers a histogram fit keeps from one tree to the next: the
/// index buffer, the partition scratch and the recycled all-zero
/// histogram sets, sized for one [`BinnedMatrix`]. After a tree is grown
/// it also describes where the tree put its rows.
pub(crate) struct TreeWorkspace {
    /// Cell offset of each feature's histogram (multiples of 64), then
    /// the total cell count.
    offsets: Vec<usize>,
    /// Every node's rows live in one contiguous range of this buffer;
    /// splitting a node partitions its range in place.
    idx: Vec<usize>,
    /// Receives the right-going rows during a stable partition.
    scratch: Vec<usize>,
    /// All-zero histogram sets; at most `max_depth + 1` are live at once.
    pool: Vec<HistSet>,
    /// Each leaf of the last tree: its range of `idx` and its value.
    leaves: Vec<(usize, usize, f64)>,
    /// Whether every split of the last tree has
    /// `upper[bin] <= threshold < lower[next]`.
    separates: bool,
}

impl TreeWorkspace {
    pub(crate) fn new(binned: &BinnedMatrix) -> Self {
        let mut offsets = vec![0];
        for f in 0..binned.n_features() {
            offsets.push(offsets[f] + binned.column(f).n_bins().next_multiple_of(64));
        }
        TreeWorkspace {
            offsets,
            idx: Vec::new(),
            scratch: Vec::new(),
            pool: Vec::new(),
            leaves: Vec::new(),
            separates: true,
        }
    }

    fn acquire_hist(&mut self) -> HistSet {
        let n_cells = self.offsets[self.offsets.len() - 1];
        self.pool.pop().unwrap_or_else(|| HistSet::zeroed(n_cells))
    }

    /// Whether routing the last tree's training rows by value
    /// (`predict_one`) reaches the leaves the trainer put them in by code.
    ///
    /// A split between bin `b` and the next non-empty bin `n` of its node
    /// sends codes `≤ b` left. The node's rows hold values `≤ upper[b]` or
    /// `≥ lower[n]`, so `upper[b] <= threshold < lower[n]` makes value
    /// routing agree row for row. The midpoint fails it by rounding onto
    /// `lower[n]` when `upper[b]` and `lower[n]` are adjacent floats (or by
    /// overflowing). Rows outside the sample may fall in bins the node
    /// never held, so the test says nothing about them.
    pub(crate) fn separates(&self) -> bool {
        self.separates
    }

    /// The last tree's training rows, leaf by leaf, with each leaf's
    /// value. Each row appears once; together the leaves hold exactly
    /// the `indices` the tree was fitted on.
    pub(crate) fn leaf_rows(&self) -> impl Iterator<Item = (&[usize], f64)> {
        self.leaves.iter().map(|&(lo, hi, value)| (&self.idx[lo..hi], value))
    }
}

struct HistBuilder<'a> {
    binned: &'a BinnedMatrix,
    g: &'a [f64],
    h: &'a [f64],
    params: TreeParams,
    nodes: Vec<Node>,
    importance: &'a mut [f64],
    ws: &'a mut TreeWorkspace,
}

impl HistBuilder<'_> {
    /// Grow the node owning `idx[lo..hi]`, whose histogram is already
    /// filled. Returns the node's arena index; the histogram set is
    /// cleared and recycled (leaves, and splits whose children are leaves)
    /// or reused in place for the larger child (other splits).
    fn grow(
        &mut self,
        lo: usize,
        hi: usize,
        mut hist: HistSet,
        g_sum: f64,
        h_sum: f64,
        depth: usize,
    ) -> usize {
        let leaf_value = -g_sum / (h_sum + self.params.lambda);
        let binned = self.binned;
        let cand = if depth >= self.params.max_depth || hi - lo < 2 {
            None
        } else {
            search_splits(binned, &self.ws.offsets, &hist, g_sum, h_sum, &self.params)
        };
        let Some(cand) = cand else {
            hist.clear();
            self.ws.pool.push(hist);
            return self.leaf(lo, hi, g_sum, h_sum);
        };
        self.importance[cand.feature] += cand.gain;
        self.ws.separates &= cand.separates;

        // Stable in-place partition: codes ≤ the split bin go left. Every
        // row is written to both sides and only the matching cursor
        // advances, so the loop has no data-dependent branch.
        let t0 = crate::fitmetrics::phase_start();
        let (nf, codes) = (binned.n_features(), binned.codes());
        let TreeWorkspace { idx, scratch, .. } = &mut *self.ws;
        let (mut left, mut right) = (lo, 0);
        for r in lo..hi {
            let i = idx[r];
            let goes_left = usize::from(codes[i * nf + cand.feature] <= cand.bin);
            idx[left] = i;
            scratch[right] = i;
            left += goes_left;
            right += 1 - goes_left;
        }
        let mid = left;
        idx[mid..hi].copy_from_slice(&scratch[..right]);
        debug_assert_eq!(mid - lo, cand.n_left);
        crate::fitmetrics::phase_end(t0, crate::fitmetrics::partition());

        let (gl, hl) = (cand.g_left, cand.h_left);
        let (gr, hr) = (g_sum - gl, h_sum - hl);
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        let (left, right) = if depth + 1 >= self.params.max_depth {
            // Both children are leaves, which never search: they need
            // their sums, not their histograms.
            hist.clear();
            self.ws.pool.push(hist);
            (self.leaf(lo, mid, gl, hl), self.leaf(mid, hi, gr, hr))
        } else {
            // Accumulate only the smaller child; the larger one is the
            // subtraction `parent − sibling`, reusing the parent's buffer.
            let mut small = self.ws.acquire_hist();
            let mut large = hist;
            let left_is_small = mid - lo <= hi - mid;
            let small_rows = if left_is_small { lo..mid } else { mid..hi };
            let ws = &*self.ws;
            fill_hist(binned, &ws.offsets, self.g, self.h, &ws.idx[small_rows], &mut small);
            large.subtract(&small);
            let (left_hist, right_hist) =
                if left_is_small { (small, large) } else { (large, small) };
            (
                self.grow(lo, mid, left_hist, gl, hl, depth + 1),
                self.grow(mid, hi, right_hist, gr, hr, depth + 1),
            )
        };
        self.nodes[slot] = Node::Split {
            feature: cand.feature,
            threshold: cand.threshold,
            left,
            right,
            value: leaf_value,
        };
        slot
    }

    /// Record `idx[lo..hi]` as a leaf with gradient sums `g_sum`, `h_sum`;
    /// returns its arena index.
    fn leaf(&mut self, lo: usize, hi: usize, g_sum: f64, h_sum: f64) -> usize {
        let value = -g_sum / (h_sum + self.params.lambda);
        self.ws.leaves.push((lo, hi, value));
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }
}

impl RegressionTree {
    /// [`RegressionTree::fit_binned_in`] on a fresh workspace.
    #[cfg(test)]
    pub(crate) fn fit_binned(
        binned: &BinnedMatrix,
        g: &[f64],
        h: &[f64],
        indices: &[usize],
        params: TreeParams,
        importance: &mut [f64],
    ) -> Self {
        let mut ws = TreeWorkspace::new(binned);
        Self::fit_binned_in(&mut ws, binned, g, h, indices, params, importance)
    }

    /// Fit on rows `indices` of the pre-quantized matrix `binned` with
    /// gradients `g` and Hessians `h`, on buffers kept across the trees of
    /// one fit; `ws` must have been made for `binned`. Split gains are
    /// added into `importance`. Afterwards `ws` holds the tree's leaf row
    /// ranges ([`TreeWorkspace::leaf_rows`]).
    ///
    /// Whenever every feature has at most `max_bins` distinct values the
    /// quantization is lossless and this grows the identical tree to the
    /// exact greedy trainer (see the parity property tests); otherwise
    /// thresholds come from bin boundaries, the standard histogram
    /// approximation.
    pub(crate) fn fit_binned_in(
        ws: &mut TreeWorkspace,
        binned: &BinnedMatrix,
        g: &[f64],
        h: &[f64],
        indices: &[usize],
        params: TreeParams,
        importance: &mut [f64],
    ) -> Self {
        assert_eq!(binned.n_rows(), g.len());
        assert_eq!(binned.n_rows(), h.len());
        let n_features = binned.n_features();
        assert_eq!(importance.len(), n_features);
        assert_eq!(ws.offsets.len(), n_features + 1, "workspace made for another matrix");
        ws.leaves.clear();
        ws.separates = true;
        ws.idx.clear();
        if indices.is_empty() || n_features == 0 {
            return RegressionTree { nodes: vec![Node::Leaf { value: 0.0 }] };
        }
        let mut g_sum = 0.0;
        let mut h_sum = 0.0;
        for &i in indices {
            g_sum += g[i];
            h_sum += h[i];
        }
        ws.idx.extend_from_slice(indices);
        if ws.scratch.len() < indices.len() {
            ws.scratch.resize(indices.len(), 0);
        }
        let mut hist = ws.acquire_hist();
        fill_hist(binned, &ws.offsets, g, h, &ws.idx, &mut hist);
        let n = indices.len();
        let mut builder = HistBuilder { binned, g, h, params, nodes: Vec::new(), importance, ws };
        let root = builder.grow(0, n, hist, g_sum, h_sum, 0);
        debug_assert_eq!(root, 0);
        RegressionTree { nodes: builder.nodes }
    }

    /// Predict one row.
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right, .. } => {
                    i = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node arena (root at index 0), for flattened-layout conversion.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Persistable representation (see `wdt_types::json`). Leaves encode
    /// as `{"v": value}`, splits as `{"f","t","l","r","v"}` — a node is a
    /// split iff `"f"` is present; `"v"` on a split is its would-be leaf
    /// value, used only by attribution.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Arr(
            self.nodes
                .iter()
                .map(|n| match n {
                    Node::Leaf { value } => JsonValue::obj([("v", JsonValue::Num(*value))]),
                    Node::Split { feature, threshold, left, right, value } => JsonValue::obj([
                        ("f", JsonValue::Num(*feature as f64)),
                        ("t", JsonValue::Num(*threshold)),
                        ("l", JsonValue::Num(*left as f64)),
                        ("r", JsonValue::Num(*right as f64)),
                        ("v", JsonValue::Num(*value)),
                    ]),
                })
                .collect(),
        )
    }

    /// Inverse of [`RegressionTree::to_json_value`]. Child indices are
    /// bounds-checked so a corrupt artifact cannot cause out-of-range
    /// panics at prediction time. Splits without `"v"` (artifacts written
    /// before expected values were persisted) load with value 0.0 —
    /// predictions are unaffected; only attributions need fresh artifacts.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, JsonError> {
        let raw = v.as_arr()?;
        let mut nodes = Vec::with_capacity(raw.len());
        for item in raw {
            let node = if let Ok(feature) = item.field("f") {
                let left = item.field("l")?.as_usize()?;
                let right = item.field("r")?.as_usize()?;
                if left >= raw.len() || right >= raw.len() {
                    return Err(JsonError::new("tree child index out of range"));
                }
                Node::Split {
                    feature: feature.as_usize()?,
                    threshold: item.field("t")?.as_f64()?,
                    left,
                    right,
                    value: item.field("v").and_then(|v| v.as_f64()).unwrap_or(0.0),
                }
            } else {
                Node::Leaf { value: item.field("v")?.as_f64()? }
            };
            nodes.push(node);
        }
        if nodes.is_empty() {
            return Err(JsonError::new("tree must have at least one node"));
        }
        Ok(RegressionTree { nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squared-error gradients toward targets `y` from predictions of 0.
    fn grads(y: &[f64]) -> (Vec<f64>, Vec<f64>) {
        (y.iter().map(|v| -v).collect(), vec![1.0; y.len()])
    }

    /// One tree grown by the production trainer on `x` binned losslessly.
    fn fit(
        x: &[Vec<f64>],
        g: &[f64],
        h: &[f64],
        idx: &[usize],
        params: TreeParams,
        importance: &mut [f64],
    ) -> RegressionTree {
        let binned = BinnedMatrix::build(x, 256);
        RegressionTree::fit_binned(&binned, g, h, idx, params, importance)
    }

    #[test]
    fn single_leaf_on_constant_target() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 10];
        let (g, h) = grads(&y);
        let idx: Vec<usize> = (0..10).collect();
        let mut imp = vec![0.0; 1];
        let t = fit(&x, &g, &h, &idx, TreeParams::default(), &mut imp);
        assert_eq!(t.node_count(), 1);
        // Leaf value shrunk slightly by λ: 70/(10+1).
        assert!((t.predict_one(&[5.0]) - 70.0 / 11.0).abs() < 1e-12);
        assert_eq!(imp[0], 0.0);
    }

    #[test]
    fn learns_a_step_function_exactly() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { -5.0 } else { 5.0 }).collect();
        let (g, h) = grads(&y);
        let idx: Vec<usize> = (0..20).collect();
        let mut imp = vec![0.0; 1];
        let params = TreeParams { lambda: 0.0, ..Default::default() };
        let t = fit(&x, &g, &h, &idx, params, &mut imp);
        assert!((t.predict_one(&[3.0]) + 5.0).abs() < 1e-9);
        assert!((t.predict_one(&[15.0]) - 5.0).abs() < 1e-9);
        assert!(imp[0] > 0.0);
    }

    #[test]
    fn splits_on_the_informative_feature() {
        // Feature 0 is noise; feature 1 determines y.
        let x: Vec<Vec<f64>> =
            (0..40).map(|i| vec![((i * 17) % 13) as f64, (i % 2) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[1] * 10.0).collect();
        let (g, h) = grads(&y);
        let idx: Vec<usize> = (0..40).collect();
        let mut imp = vec![0.0; 2];
        let t = fit(&x, &g, &h, &idx, TreeParams::default(), &mut imp);
        assert!(imp[1] > imp[0], "importance {imp:?}");
        assert!(t.predict_one(&[0.0, 1.0]) > t.predict_one(&[0.0, 0.0]));
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let (g, h) = grads(&y);
        let idx: Vec<usize> = (0..64).collect();
        let mut imp = vec![0.0; 1];
        let params = TreeParams { max_depth: 2, ..Default::default() };
        let t = fit(&x, &g, &h, &idx, params, &mut imp);
        // Depth 2 → at most 7 nodes.
        assert!(t.node_count() <= 7, "{}", t.node_count());
    }

    #[test]
    fn leaf_children_take_no_histograms() {
        // A stump's children are leaves: the root's set is recycled and
        // none is filled for them, so one set returns to the pool.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { -5.0 } else { 5.0 }).collect();
        let (g, h) = grads(&y);
        let idx: Vec<usize> = (0..20).collect();
        let binned = BinnedMatrix::build(&x, 256);
        let mut ws = TreeWorkspace::new(&binned);
        let params = TreeParams { max_depth: 1, ..Default::default() };
        let t = RegressionTree::fit_binned_in(&mut ws, &binned, &g, &h, &idx, params, &mut [0.0]);
        assert_eq!(t.node_count(), 3);
        assert_eq!(ws.pool.len(), 1);
        let leaves: Vec<(&[usize], f64)> = ws.leaf_rows().collect();
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[0].0, &idx[..10]);
        assert_eq!(leaves[1].0, &idx[10..]);
    }

    #[test]
    fn min_child_weight_blocks_tiny_leaves() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        // One outlier that a split would isolate.
        let mut y = vec![0.0; 10];
        y[9] = 100.0;
        let (g, h) = grads(&y);
        let idx: Vec<usize> = (0..10).collect();
        let mut imp = vec![0.0; 1];
        let params = TreeParams { min_child_weight: 3.0, max_depth: 1, ..Default::default() };
        let t = fit(&x, &g, &h, &idx, params, &mut imp);
        if let Node::Split { threshold, .. } = &t.nodes[0] {
            // The split cannot isolate fewer than 3 samples on either side.
            assert!(*threshold >= 2.0 && *threshold <= 7.0, "threshold {threshold}");
        }
    }

    #[test]
    fn gamma_suppresses_weak_splits() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        // Nearly-flat target: tiny gain available.
        let y: Vec<f64> = (0..20).map(|i| (i % 2) as f64 * 0.01).collect();
        let (g, h) = grads(&y);
        let idx: Vec<usize> = (0..20).collect();
        let mut imp = vec![0.0; 1];
        let params = TreeParams { gamma: 1e6, ..Default::default() };
        let t = fit(&x, &g, &h, &idx, params, &mut imp);
        assert_eq!(t.node_count(), 1, "γ should forbid all splits");
    }

    #[test]
    fn empty_index_set_predicts_zero() {
        let x: Vec<Vec<f64>> = vec![vec![1.0]];
        let t = fit(&x, &[0.0], &[1.0], &[], TreeParams::default(), &mut [0.0]);
        assert_eq!(t.predict_one(&[1.0]), 0.0);
    }
}
