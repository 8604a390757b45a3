//! Incremental windowed feature maintenance.
//!
//! The batch extractor ([`wdt_features::extract_features`]) gathers each
//! endpoint's interval contributions from its records, builds that
//! endpoint's step profiles, and writes its side of those records'
//! competing-load features, one endpoint at a time. [`FeatureWindow`]
//! maintains exactly those interval lists *incrementally* over a sliding
//! window of the most recent records: a push appends the record's
//! contributions (tagged with its arrival sequence number) to the
//! per-endpoint deques, an eviction pops them from the deque fronts.
//!
//! Because the deques preserve insertion order and evictions remove
//! precisely the evicted record's entries, the interval lists are — at
//! every moment — *identical* to what the batch gather would produce over
//! the window's records. Features are then read through the same
//! [`featurize_by_endpoint`], which asks for the profiles of only the
//! endpoints the records being featurized touch, so windowed features are
//! **bitwise equal** to `extract_features(window)` (a property test
//! enforces this) and scoring the newest records builds only their
//! endpoints.

use std::collections::{HashMap, VecDeque};
use wdt_features::{
    featurize_by_endpoint, interval_contribution, EndpointProfiles, TransferFeatures,
};
use wdt_types::{EndpointId, TransferRecord};

/// One endpoint's interval deques, entries tagged with arrival sequence.
#[derive(Debug, Default)]
struct EpIntervals {
    rate_out: VecDeque<(u64, (f64, f64, f64))>,
    rate_in: VecDeque<(u64, (f64, f64, f64))>,
    procs: VecDeque<(u64, (f64, f64, f64))>,
    streams_out: VecDeque<(u64, (f64, f64, f64))>,
    streams_in: VecDeque<(u64, (f64, f64, f64))>,
}

fn pop_matching(dq: &mut VecDeque<(u64, (f64, f64, f64))>, seq: u64) {
    // A loopback record contributes twice to its endpoint's proc deque
    // (once per role), so pop *all* front entries carrying this seq.
    while dq.front().is_some_and(|&(s, _)| s == seq) {
        dq.pop_front();
    }
}

/// Sliding window of recent records with incrementally maintained
/// per-endpoint activity intervals. See the module docs.
pub struct FeatureWindow {
    cap: usize,
    seq: u64,
    records: VecDeque<(u64, TransferRecord)>,
    eps: HashMap<EndpointId, EpIntervals>,
    evicted: u64,
}

impl FeatureWindow {
    /// A window holding at most `cap` records.
    pub fn new(cap: usize) -> Self {
        FeatureWindow {
            cap: cap.max(1),
            seq: 0,
            records: VecDeque::new(),
            eps: HashMap::new(),
            evicted: 0,
        }
    }

    /// Records currently in the window.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The windowed records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TransferRecord> {
        self.records.iter().map(|(_, r)| r)
    }

    /// Add one record, evicting the oldest if the window is full.
    pub fn push(&mut self, r: TransferRecord) {
        if self.records.len() == self.cap {
            self.evict_oldest();
        }
        let seq = self.seq;
        self.seq += 1;
        if let Some(iv) = interval_contribution(&r) {
            let (s, e) = (iv.start, iv.end);
            // Same append order as the batch gather: out/in for the rate
            // profiles, src-then-dst for procs, out/in for streams.
            let src = self.eps.entry(r.src).or_default();
            src.rate_out.push_back((seq, (s, e, iv.rate)));
            src.procs.push_back((seq, (s, e, iv.procs)));
            src.streams_out.push_back((seq, (s, e, iv.streams)));
            let dst = self.eps.entry(r.dst).or_default();
            dst.rate_in.push_back((seq, (s, e, iv.rate)));
            dst.procs.push_back((seq, (s, e, iv.procs)));
            dst.streams_in.push_back((seq, (s, e, iv.streams)));
        }
        self.records.push_back((seq, r));
    }

    fn evict_oldest(&mut self) {
        let Some((seq, r)) = self.records.pop_front() else { return };
        self.evicted += 1;
        if interval_contribution(&r).is_some() {
            if let Some(src) = self.eps.get_mut(&r.src) {
                pop_matching(&mut src.rate_out, seq);
                pop_matching(&mut src.procs, seq);
                pop_matching(&mut src.streams_out, seq);
            }
            if let Some(dst) = self.eps.get_mut(&r.dst) {
                pop_matching(&mut dst.rate_in, seq);
                pop_matching(&mut dst.procs, seq);
                pop_matching(&mut dst.streams_in, seq);
            }
        }
        // Drop empty endpoint entries so long streams over many endpoints
        // don't accumulate dead map slots.
        let drop_src = self.eps.get(&r.src).is_some_and(EpIntervals::is_unused);
        if drop_src {
            self.eps.remove(&r.src);
        }
        let drop_dst = self.eps.get(&r.dst).is_some_and(EpIntervals::is_unused);
        if drop_dst {
            self.eps.remove(&r.dst);
        }
    }

    /// Features of every windowed record, oldest first — bitwise equal to
    /// `extract_features` over [`FeatureWindow::records`].
    pub fn features(&self) -> Vec<TransferFeatures> {
        self.features_tail(self.records.len())
    }

    /// Features of the newest `k` records only, against the whole
    /// window's load — what prequential evaluation scores a fresh chunk
    /// with. Only the endpoints those records touch are built, one at a
    /// time, each from all of its windowed intervals.
    pub fn features_tail(&self, k: usize) -> Vec<TransferFeatures> {
        let skip = self.records.len().saturating_sub(k);
        let tail: Vec<&TransferRecord> = self.records.iter().skip(skip).map(|(_, r)| r).collect();
        featurize_by_endpoint(&tail, |ep, _| {
            // A record with a duration keeps its entries in its endpoints'
            // deques while it is windowed.
            let ivs = &self.eps[&ep];
            EndpointProfiles::from_intervals(
                [&ivs.rate_out, &ivs.rate_in, &ivs.procs, &ivs.streams_out, &ivs.streams_in]
                    .map(|dq| dq.iter().map(|&(_, iv)| iv)),
            )
        })
    }
}

impl EpIntervals {
    fn is_unused(&self) -> bool {
        self.rate_out.is_empty()
            && self.rate_in.is_empty()
            && self.procs.is_empty()
            && self.streams_out.is_empty()
            && self.streams_in.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdt_features::extract_features;
    use wdt_types::{Bytes, SimTime, TransferId};

    fn rec(id: u64, src: u32, dst: u32, s: f64, e: f64, gb: f64) -> TransferRecord {
        TransferRecord {
            id: TransferId(id),
            src: EndpointId(src),
            dst: EndpointId(dst),
            start: SimTime::seconds(s),
            end: SimTime::seconds(e),
            bytes: Bytes::gb(gb),
            files: 100,
            dirs: 3,
            concurrency: 1 + (id % 6) as u32,
            parallelism: 1 + (id % 3) as u32,
            faults: 0,
        }
    }

    fn dense_log(n: u64) -> Vec<TransferRecord> {
        (0..n)
            .map(|i| {
                let s = (i as f64 * 13.0) % 170.0;
                rec(i, (i % 3) as u32, (2 + i % 3) as u32, s, s + 60.0, 1.0 + i as f64)
            })
            .collect()
    }

    fn assert_bitwise_eq(a: &[TransferFeatures], b: &[TransferFeatures]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id);
            for (u, v) in x.to_vec().iter().zip(y.to_vec().iter()) {
                assert_eq!(u.to_bits(), v.to_bits(), "transfer {:?}: {u} vs {v}", x.id);
            }
        }
    }

    #[test]
    fn unevicted_window_matches_batch_bitwise() {
        let log = dense_log(40);
        let mut w = FeatureWindow::new(100);
        for r in &log {
            w.push(r.clone());
        }
        assert_bitwise_eq(&w.features(), &extract_features(&log));
    }

    #[test]
    fn evicting_window_matches_batch_over_suffix() {
        let log = dense_log(60);
        let mut w = FeatureWindow::new(25);
        for r in &log {
            w.push(r.clone());
        }
        assert_eq!(w.len(), 25);
        assert_eq!(w.evicted(), 35);
        let suffix = &log[35..];
        assert_bitwise_eq(&w.features(), &extract_features(suffix));
    }

    #[test]
    fn loopback_and_zero_duration_records_evict_cleanly() {
        let mut log = dense_log(10);
        log.push(rec(10, 1, 1, 5.0, 80.0, 3.0)); // loopback
        log.push(rec(11, 2, 3, 9.0, 9.0, 1.0)); // zero duration
        log.extend(dense_log(10).into_iter().map(|mut r| {
            r.id = TransferId(r.id.0 + 12);
            r
        }));
        let mut w = FeatureWindow::new(8);
        for r in &log {
            w.push(r.clone());
        }
        let suffix = &log[log.len() - 8..];
        assert_bitwise_eq(&w.features(), &extract_features(suffix));
    }

    #[test]
    fn features_tail_matches_full_suffix() {
        let log = dense_log(30);
        let mut w = FeatureWindow::new(30);
        for r in &log {
            w.push(r.clone());
        }
        let full = w.features();
        assert_bitwise_eq(&w.features_tail(7), &full[23..]);
    }
}
