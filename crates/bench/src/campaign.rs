//! What every campaign run shares: time sharding, shard merging, and the
//! merged result with its on-disk cache format.
//!
//! A campaign is split into `runs` independent time shards, each
//! simulating a contiguous window of the same generated workload with its
//! own [`SeedSeq`](wdt_types::SeedSeq)-derived RNG stream. Shard logs are
//! merged in run-index order, so parallel execution is bit-identical to
//! serial. The modeling cost is that transfers do not contend across a
//! window boundary — negligible for month-scale campaigns where windows
//! span many days. [`crate::ScenarioCampaign`] is the runner.

use wdt_sim::{SimOutput, SimStats};
use wdt_types::{records_from_csv, records_to_csv, TransferRecord, TransferRequest};
use wdt_workload::Workload;

/// Partition `requests` into `runs` contiguous submit-time windows over a
/// `days`-long horizon. Every request lands in exactly one shard, so the
/// merged log covers the same request set as a monolithic run.
pub(crate) fn shard_by_window(
    days: f64,
    runs: usize,
    requests: &[TransferRequest],
) -> Vec<Vec<TransferRequest>> {
    let runs = runs.max(1);
    let window = days * 86_400.0 / runs as f64;
    let mut shards: Vec<Vec<TransferRequest>> = vec![Vec::new(); runs];
    for req in requests {
        let idx =
            if window > 0.0 { ((req.submit.as_secs() / window) as usize).min(runs - 1) } else { 0 };
        shards[idx].push(req.clone());
    }
    shards
}

/// The workload's heavy edges as (src, dst) endpoint indices.
pub(crate) fn heavy_edge_pairs(workload: &Workload) -> Vec<(u32, u32)> {
    workload.heavy_edges.iter().map(|e| (e.src.0, e.dst.0)).collect()
}

/// Merge shard outputs in run-index order and re-establish the global
/// (start, id) log order the monolithic simulator produces.
pub(crate) fn merge_shard_outputs(workload: &Workload, outs: Vec<SimOutput>) -> CampaignOutput {
    let mut records = Vec::new();
    let mut stats = SimStats::default();
    for out in outs {
        records.extend(out.records);
        stats.merge(&out.stats);
    }
    records.sort_by(|a, b| a.start.cmp(&b.start).then(a.id.cmp(&b.id)));
    CampaignOutput { records, heavy_edges: heavy_edge_pairs(workload), stats }
}

/// A simulated campaign's result.
#[derive(Debug, Clone)]
pub struct CampaignOutput {
    /// The full transfer log.
    pub records: Vec<TransferRecord>,
    /// The generated heavy edges, as (src, dst) endpoint indices.
    pub heavy_edges: Vec<(u32, u32)>,
    /// Engine counters merged across shards. Zeroed when the log was
    /// loaded from the on-disk cache (counters are not persisted).
    pub stats: SimStats,
}

impl CampaignOutput {
    /// Cache serialization: a `# heavy_edges:` comment line with the
    /// generated heavy edges, then the standard transfer-log CSV.
    pub(crate) fn to_cache_text(&self) -> String {
        let edges: Vec<String> = self.heavy_edges.iter().map(|(s, d)| format!("{s}-{d}")).collect();
        format!("# heavy_edges: {}\n{}", edges.join(","), records_to_csv(&self.records))
    }

    /// Inverse of [`CampaignOutput::to_cache_text`]; `None` on any
    /// malformed input (the cache is then regenerated).
    pub(crate) fn from_cache_text(text: &str) -> Option<CampaignOutput> {
        let (header, csv) = text.split_once('\n')?;
        let edges = header.strip_prefix("# heavy_edges: ")?;
        let heavy_edges: Vec<(u32, u32)> = if edges.is_empty() {
            Vec::new()
        } else {
            edges
                .split(',')
                .map(|pair| {
                    let (s, d) = pair.split_once('-')?;
                    Some((s.parse().ok()?, d.parse().ok()?))
                })
                .collect::<Option<_>>()?
        };
        let records = records_from_csv(csv).ok()?;
        Some(CampaignOutput { records, heavy_edges, stats: SimStats::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdt_types::ScenarioSpec;

    #[test]
    fn shards_cover_every_request_exactly_once() {
        let spec = ScenarioSpec::from_text(
            r#"{"name": "shards", "days": 2.0,
                "traffic": {"heavy_edges": 3, "sparse_edges": 10}}"#,
        )
        .expect("parse");
        let (days, runs) = (spec.days, spec.traffic.runs);
        let workload = crate::ScenarioCampaign::new(spec).expect("valid").workload();
        let shards = shard_by_window(days, runs, &workload.requests);
        assert_eq!(shards.len(), runs);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, workload.requests.len());
        let window = days * 86_400.0 / runs as f64;
        for (i, shard) in shards.iter().enumerate() {
            for req in shard {
                let t = req.submit.as_secs();
                assert!(t >= i as f64 * window, "request before its window");
                assert!(i == shards.len() - 1 || t < (i + 1) as f64 * window);
            }
        }
    }
}
