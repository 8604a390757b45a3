//! Edge-level statistics and threshold filtering (paper §3.2, §4.3.2).

use crate::transfer_features::TransferFeatures;
use std::collections::BTreeMap;
use wdt_types::EdgeId;

/// Summary statistics of one edge.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeStats {
    /// The edge.
    pub edge: EdgeId,
    /// Number of transfers observed.
    pub transfers: usize,
    /// Highest rate ever observed on the edge (`Rmax(E)`), bytes/s.
    pub r_max: f64,
    /// Total bytes moved.
    pub total_bytes: f64,
}

/// Group features by edge (BTreeMap for deterministic iteration order).
pub fn group_by_edge(features: &[TransferFeatures]) -> BTreeMap<EdgeId, Vec<&TransferFeatures>> {
    let mut map: BTreeMap<EdgeId, Vec<&TransferFeatures>> = BTreeMap::new();
    for f in features {
        map.entry(f.edge).or_default().push(f);
    }
    map
}

/// Compute per-edge statistics.
pub fn edge_stats(features: &[TransferFeatures]) -> BTreeMap<EdgeId, EdgeStats> {
    let mut map: BTreeMap<EdgeId, EdgeStats> = BTreeMap::new();
    for f in features {
        let e = map.entry(f.edge).or_insert(EdgeStats {
            edge: f.edge,
            transfers: 0,
            r_max: 0.0,
            total_bytes: 0.0,
        });
        e.transfers += 1;
        e.r_max = e.r_max.max(f.rate);
        e.total_bytes += f.n_b;
    }
    map
}

/// The paper's §3.2 census: how many edges have at least `k` transfers,
/// for each threshold in `thresholds`.
pub fn edge_census(features: &[TransferFeatures], thresholds: &[usize]) -> Vec<(usize, usize)> {
    let stats = edge_stats(features);
    thresholds.iter().map(|&k| (k, stats.values().filter(|s| s.transfers >= k).count())).collect()
}

/// Each edge's rate floor `threshold · Rmax(edge)`: the slowest rate
/// [`threshold_filter`] keeps on that edge.
pub fn rate_floors(features: &[TransferFeatures], threshold: f64) -> BTreeMap<EdgeId, f64> {
    assert!((0.0..=1.0).contains(&threshold), "threshold must be in [0,1]");
    edge_stats(features).into_values().map(|s| (s.edge, threshold * s.r_max)).collect()
}

/// Keep only transfers with `rate ≥ threshold · Rmax(edge)` — the paper's
/// defense against unknown (non-Globus) competing load (§4.3.2). Returns
/// owned clones, in log order, so a caller can keep a self-contained
/// training set; that is a whole-log copy (168 bytes per kept record).
/// [`eligible_edges`] and `wdt_model::run_per_edge` apply the same
/// [`rate_floors`] without one.
pub fn threshold_filter(features: &[TransferFeatures], threshold: f64) -> Vec<TransferFeatures> {
    let floors = rate_floors(features, threshold);
    features.iter().filter(|f| f.rate >= floors[&f.edge]).cloned().collect()
}

/// The edges with at least `min_transfers` transfers above the threshold —
/// the paper's selection rule for its 30 modeled edges (§5.1: ≥300
/// transfers with rate > 0.5·Rmax). Sorted by descending sample count,
/// then by edge; an edge with no transfer above the threshold is left out.
///
/// Counts the rows [`threshold_filter`] would keep without copying them:
/// it allocates per edge, not per record.
pub fn eligible_edges(
    features: &[TransferFeatures],
    threshold: f64,
    min_transfers: usize,
) -> Vec<(EdgeId, usize)> {
    let floors = rate_floors(features, threshold);
    let mut kept: BTreeMap<EdgeId, usize> = BTreeMap::new();
    for f in features.iter().filter(|f| f.rate >= floors[&f.edge]) {
        *kept.entry(f.edge).or_default() += 1;
    }
    let mut edges: Vec<(EdgeId, usize)> =
        kept.into_iter().filter(|&(_, n)| n >= min_transfers).collect();
    edges.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wdt_types::{EndpointId, TransferId};

    fn feat(id: u64, src: u32, dst: u32, rate: f64) -> TransferFeatures {
        TransferFeatures {
            id: TransferId(id),
            edge: EdgeId::new(EndpointId(src), EndpointId(dst)),
            start: 0.0,
            end: 10.0,
            rate,
            k_sout: 0.0,
            k_din: 0.0,
            c: 4.0,
            p: 2.0,
            s_sout: 0.0,
            s_sin: 0.0,
            s_dout: 0.0,
            s_din: 0.0,
            k_sin: 0.0,
            k_dout: 0.0,
            n_d: 1.0,
            n_b: rate * 10.0,
            n_flt: 0.0,
            g_src: 0.0,
            g_dst: 0.0,
            n_f: 1.0,
        }
    }

    #[test]
    fn stats_track_max_and_count() {
        let fs = vec![feat(0, 0, 1, 100.0), feat(1, 0, 1, 300.0), feat(2, 1, 0, 50.0)];
        let stats = edge_stats(&fs);
        let e01 = &stats[&EdgeId::new(EndpointId(0), EndpointId(1))];
        assert_eq!(e01.transfers, 2);
        assert_eq!(e01.r_max, 300.0);
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn census_counts_cumulative_thresholds() {
        let mut fs = Vec::new();
        for i in 0..10 {
            fs.push(feat(i, 0, 1, 100.0)); // edge A: 10 transfers
        }
        fs.push(feat(100, 2, 3, 100.0)); // edge B: 1 transfer
        let census = edge_census(&fs, &[1, 5, 100]);
        assert_eq!(census, vec![(1, 2), (5, 1), (100, 0)]);
    }

    #[test]
    fn threshold_filter_keeps_fast_transfers() {
        let fs = vec![feat(0, 0, 1, 100.0), feat(1, 0, 1, 40.0), feat(2, 0, 1, 60.0)];
        let kept = threshold_filter(&fs, 0.5);
        // Rmax = 100, threshold 50: keeps 100 and 60.
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|f| f.rate >= 50.0));
        // Threshold 0 keeps everything.
        assert_eq!(threshold_filter(&fs, 0.0).len(), 3);
    }

    #[test]
    fn eligible_edges_sorted_by_count() {
        let mut fs = Vec::new();
        for i in 0..5 {
            fs.push(feat(i, 0, 1, 100.0));
        }
        for i in 10..13 {
            fs.push(feat(i, 2, 3, 100.0));
        }
        let edges = eligible_edges(&fs, 0.5, 3);
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].1, 5);
        assert_eq!(edges[1].1, 3);
        assert!(eligible_edges(&fs, 0.5, 4).len() == 1);
    }

    /// Rows over a handful of edges. Rates on a coarse grid tie with their
    /// edge's maximum and with its floor; an edge whose rates are all
    /// negative keeps `Rmax` at 0, so none of its rows reaches the floor.
    fn arb_features() -> impl Strategy<Value = Vec<TransferFeatures>> {
        let rate = prop_oneof![(0u32..5).prop_map(|r| f64::from(r) * 25.0), -20.0f64..100.0];
        proptest::collection::vec((0u32..3, 0u32..3, rate), 0..60).prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (src, dst, rate))| feat(i as u64, src, dst, rate))
                .collect()
        })
    }

    /// Oracle: count the rows of a filtered copy.
    fn eligible_edges_via_copy(
        features: &[TransferFeatures],
        threshold: f64,
        min_transfers: usize,
    ) -> Vec<(EdgeId, usize)> {
        let mut edges: Vec<(EdgeId, usize)> = edge_stats(&threshold_filter(features, threshold))
            .values()
            .map(|s| (s.edge, s.transfers))
            .filter(|&(_, n)| n >= min_transfers)
            .collect();
        edges.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        edges
    }

    proptest! {
        #[test]
        fn eligible_edges_matches_counting_a_filtered_copy(
            fs in arb_features(),
            threshold in prop_oneof![Just(0.0f64), Just(1.0f64), Just(0.5f64), 0.0f64..=1.0],
            min_transfers in prop_oneof![Just(0usize), 0usize..12],
        ) {
            prop_assert_eq!(
                eligible_edges(&fs, threshold, min_transfers),
                eligible_edges_via_copy(&fs, threshold, min_transfers)
            );
        }
    }
}
