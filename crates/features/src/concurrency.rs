//! Endpoint concurrency analysis (paper Figure 4).
//!
//! Figure 4 plots, for four heavily used endpoints, the *aggregate incoming
//! transfer rate* against the *instantaneous number of GridFTP server
//! instances*, fitting a Weibull curve to the rise-then-decline shape. We
//! reconstruct both step functions from the log with an event sweep and
//! emit duration-weighted `(concurrency, rate)` samples.

use crate::step::StepIntegral;
use wdt_types::{EndpointId, TransferRecord};

/// One duration-weighted observation at an endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrencySample {
    /// Instantaneous GridFTP instance count.
    pub concurrency: f64,
    /// Aggregate incoming rate at that instant, bytes/s.
    pub rate: f64,
    /// Duration this state persisted, seconds (sample weight).
    pub weight: f64,
}

/// Sweep the log and produce `(concurrency, incoming rate)` samples for
/// `endpoint`, one per interval between state changes.
pub fn concurrency_profile(log: &[TransferRecord], endpoint: EndpointId) -> Vec<ConcurrencySample> {
    let mut rate_ivs = Vec::new();
    let mut inst_ivs = Vec::new();
    for r in log {
        let (s, e) = (r.start.as_secs(), r.end.as_secs());
        if e <= s {
            continue;
        }
        let procs = r.effective_concurrency() as f64;
        if r.dst == endpoint {
            rate_ivs.push((s, e, r.rate().as_f64()));
            inst_ivs.push((s, e, procs));
        }
        if r.src == endpoint {
            inst_ivs.push((s, e, procs));
        }
    }
    let rate = StepIntegral::from_intervals(rate_ivs);
    let inst = StepIntegral::from_intervals(inst_ivs);

    // Breakpoints of either function bound the constant segments.
    let mut times: Vec<f64> = rate.times().iter().chain(inst.times()).copied().collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times.dedup();

    let mut out = Vec::new();
    for w in times.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        let c = inst.value_at(t0);
        if c <= 0.0 {
            continue; // idle periods carry no information for the fit
        }
        out.push(ConcurrencySample { concurrency: c, rate: rate.value_at(t0), weight: t1 - t0 });
    }
    out
}

/// Bucket samples by integer concurrency and return
/// `(concurrency, weighted-mean rate, total dwell time)` triples sorted by
/// concurrency — the points Figure 4 plots. The dwell time tells callers
/// which buckets carry real evidence (an endpoint may have spent only
/// seconds at some instance counts).
pub fn bucket_by_concurrency(samples: &[ConcurrencySample]) -> Vec<(f64, f64, f64)> {
    use std::collections::BTreeMap;
    let mut acc: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for s in samples {
        let key = s.concurrency.round() as u64;
        let e = acc.entry(key).or_insert((0.0, 0.0));
        e.0 += s.rate * s.weight;
        e.1 += s.weight;
    }
    acc.into_iter()
        .filter(|(_, (_, w))| *w > 0.0)
        .map(|(k, (rw, w))| (k as f64, rw / w, w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdt_types::{Bytes, SimTime, TransferId};

    fn rec(id: u64, src: u32, dst: u32, s: f64, e: f64, gb: f64, c: u32) -> TransferRecord {
        TransferRecord {
            id: TransferId(id),
            src: EndpointId(src),
            dst: EndpointId(dst),
            start: SimTime::seconds(s),
            end: SimTime::seconds(e),
            bytes: Bytes::gb(gb),
            files: 1_000,
            dirs: 1,
            concurrency: c,
            parallelism: 2,
            faults: 0,
        }
    }

    #[test]
    fn single_incoming_transfer() {
        let log = vec![rec(0, 1, 0, 0.0, 100.0, 1.0, 4)];
        let samples = concurrency_profile(&log, EndpointId(0));
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].concurrency, 4.0);
        assert!((samples[0].rate - 1e7).abs() < 1.0);
        assert_eq!(samples[0].weight, 100.0);
    }

    #[test]
    fn outgoing_transfers_count_instances_not_rate() {
        let log = vec![rec(0, 0, 1, 0.0, 100.0, 1.0, 4)];
        let samples = concurrency_profile(&log, EndpointId(0));
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].concurrency, 4.0);
        assert_eq!(samples[0].rate, 0.0);
    }

    #[test]
    fn overlap_stacks_concurrency_and_rate() {
        let log = vec![rec(0, 1, 0, 0.0, 100.0, 1.0, 4), rec(1, 2, 0, 50.0, 150.0, 1.0, 4)];
        let samples = concurrency_profile(&log, EndpointId(0));
        // Segments: [0,50) c=4, [50,100) c=8, [100,150) c=4.
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[1].concurrency, 8.0);
        let both = log[0].rate().as_f64() + log[1].rate().as_f64();
        assert!((samples[1].rate - both).abs() < 1.0);
    }

    #[test]
    fn buckets_weight_by_duration() {
        let samples = vec![
            ConcurrencySample { concurrency: 4.0, rate: 100.0, weight: 10.0 },
            ConcurrencySample { concurrency: 4.0, rate: 200.0, weight: 30.0 },
            ConcurrencySample { concurrency: 8.0, rate: 500.0, weight: 5.0 },
        ];
        let buckets = bucket_by_concurrency(&samples);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].0, 4.0);
        assert!((buckets[0].1 - 175.0).abs() < 1e-9);
        assert_eq!(buckets[0].2, 40.0);
        assert_eq!(buckets[1], (8.0, 500.0, 5.0));
    }

    #[test]
    fn idle_periods_are_skipped() {
        let log = vec![rec(0, 1, 0, 0.0, 10.0, 1.0, 4), rec(1, 1, 0, 100.0, 110.0, 1.0, 4)];
        let samples = concurrency_profile(&log, EndpointId(0));
        // No sample for the idle gap [10, 100).
        assert_eq!(samples.len(), 2);
        assert!(samples.iter().all(|s| s.concurrency > 0.0));
    }
}
