//! Per-transfer feature extraction (paper §4, Table 2).

use crate::step::StepIntegral;
use std::collections::HashMap;
use wdt_types::{EdgeId, EndpointId, TransferId, TransferRecord};

/// The engineered features of one transfer: the paper's Table 2, plus the
/// target rate. Rates are in bytes/s.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFeatures {
    /// Transfer id.
    pub id: TransferId,
    /// Edge the transfer used.
    pub edge: EdgeId,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Target: achieved average rate `R`, bytes/s.
    pub rate: f64,
    /// Contending outgoing transfer rate at the source.
    pub k_sout: f64,
    /// Contending incoming transfer rate at the destination.
    pub k_din: f64,
    /// Concurrency (user-requested `C`).
    pub c: f64,
    /// Parallelism (user-requested `P`).
    pub p: f64,
    /// Competing outgoing TCP streams at the source.
    pub s_sout: f64,
    /// Competing incoming TCP streams at the source.
    pub s_sin: f64,
    /// Competing outgoing TCP streams at the destination.
    pub s_dout: f64,
    /// Competing incoming TCP streams at the destination.
    pub s_din: f64,
    /// Contending incoming transfer rate at the source.
    pub k_sin: f64,
    /// Contending outgoing transfer rate at the destination.
    pub k_dout: f64,
    /// Number of directories.
    pub n_d: f64,
    /// Total bytes.
    pub n_b: f64,
    /// Number of faults (known post-hoc; explanation only).
    pub n_flt: f64,
    /// Competing GridFTP instances at the source.
    pub g_src: f64,
    /// Competing GridFTP instances at the destination.
    pub g_dst: f64,
    /// Number of files.
    pub n_f: f64,
}

/// Names of the model features, in the order [`TransferFeatures::to_vec`]
/// emits them — the paper's Figure 9/12 feature order.
pub const FEATURE_NAMES: [&str; 16] = [
    "Ksout", "Kdin", "C", "P", "Ssout", "Ssin", "Sdout", "Sdin", "Ksin", "Kdout", "Nd", "Nb",
    "Nflt", "Gsrc", "Gdst", "Nf",
];

/// Index of `Nflt` in [`FEATURE_NAMES`] (excluded from prediction models).
pub const NFLT_INDEX: usize = 12;

impl TransferFeatures {
    /// The full 16-feature vector, [`FEATURE_NAMES`] order.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.k_sout,
            self.k_din,
            self.c,
            self.p,
            self.s_sout,
            self.s_sin,
            self.s_dout,
            self.s_din,
            self.k_sin,
            self.k_dout,
            self.n_d,
            self.n_b,
            self.n_flt,
            self.g_src,
            self.g_dst,
            self.n_f,
        ]
    }

    /// Relative external load (paper §3.2): the larger of the relative
    /// endpoint external loads at source and destination.
    pub fn relative_external_load(&self) -> f64 {
        let at_src = self.k_sout / (self.rate + self.k_sout).max(f64::MIN_POSITIVE);
        let at_dst = self.k_din / (self.rate + self.k_din).max(f64::MIN_POSITIVE);
        at_src.max(at_dst)
    }

    /// Transfer duration, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The interval contribution one record makes to its endpoints' activity
/// profiles: `(start, end)` plus the three stacked quantities. `None` for
/// zero-duration records, which contribute nothing (matching the batch
/// sweep). Streaming processors use this so their incrementally
/// maintained interval lists are *identical* to the batch gather.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalContribution {
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Average rate, bytes/s (stacks into `Ksout`/`Kdin`-style profiles).
    pub rate: f64,
    /// GridFTP instances `min(C, Nf)` (stacks into `G*`).
    pub procs: f64,
    /// TCP streams `min(C, Nf)·P` (stacks into `S*`).
    pub streams: f64,
}

/// The profile intervals `r` contributes, or `None` for degenerate
/// (zero/negative duration) records.
pub fn interval_contribution(r: &TransferRecord) -> Option<IntervalContribution> {
    let (s, e) = (r.start.as_secs(), r.end.as_secs());
    if e <= s {
        return None;
    }
    Some(IntervalContribution {
        start: s,
        end: e,
        rate: r.rate().as_f64(),
        procs: r.effective_concurrency() as f64,
        streams: r.tcp_streams() as f64,
    })
}

/// Per-endpoint step functions of competing activity.
///
/// Built from the interval lists a log's records contribute (see
/// [`interval_contribution`]); [`features_for`] reads competing-load
/// features for one record out of the profiles of its two endpoints.
pub struct EndpointProfiles {
    /// Aggregate rate of transfers leaving the endpoint.
    rate_out: StepIntegral,
    /// Aggregate rate of transfers entering the endpoint.
    rate_in: StepIntegral,
    /// GridFTP instances, both roles (`min(C, Nf)` each).
    procs: StepIntegral,
    /// Outgoing TCP streams (`min(C, Nf)·P`).
    streams_out: StepIntegral,
    /// Incoming TCP streams.
    streams_in: StepIntegral,
}

impl EndpointProfiles {
    /// Build one endpoint's profiles from its five `(start, end, value)`
    /// interval lists, in field order: rate out, rate in, procs, streams
    /// out, streams in. Interval order must match the order records were
    /// appended (the batch sweep appends in log order) for results to be
    /// bitwise reproducible. Owned lists are freed as their profile is
    /// built; a deque's entries can be passed as an iterator.
    pub fn from_intervals<I>(lists: [I; 5]) -> Self
    where
        I: IntoIterator<Item = (f64, f64, f64)>,
    {
        let [rate_out, rate_in, procs, streams_out, streams_in] =
            lists.map(StepIntegral::from_intervals);
        EndpointProfiles { rate_out, rate_in, procs, streams_out, streams_in }
    }
}

/// Compute one record's Table 2 features from the activity profiles of
/// its source and destination endpoints. The profiles must cover the
/// record's own contribution (it is subtracted here).
pub fn features_for(
    r: &TransferRecord,
    src: &EndpointProfiles,
    dst: &EndpointProfiles,
) -> TransferFeatures {
    let (s, e) = (r.start.as_secs(), r.end.as_secs());
    let dur = e - s;
    let rate = r.rate().as_f64();
    let mut f = TransferFeatures {
        id: r.id,
        edge: r.edge(),
        start: s,
        end: e,
        rate,
        k_sout: 0.0,
        k_din: 0.0,
        c: r.concurrency as f64,
        p: r.parallelism as f64,
        s_sout: 0.0,
        s_sin: 0.0,
        s_dout: 0.0,
        s_din: 0.0,
        k_sin: 0.0,
        k_dout: 0.0,
        n_d: r.dirs as f64,
        n_b: r.bytes.as_f64(),
        n_flt: r.faults as f64,
        g_src: 0.0,
        g_dst: 0.0,
        n_f: r.files as f64,
    };
    if dur <= 0.0 {
        return f;
    }
    let procs = r.effective_concurrency() as f64;
    let streams = r.tcp_streams() as f64;
    let loopback = r.src == r.dst;
    // Mean competing level = (∫ profile over [s,e]  −  own) / dur.
    let mean = |total: f64, own: f64| ((total / dur) - own).max(0.0);
    f.k_sout = mean(src.rate_out.integrate(s, e), rate);
    f.k_din = mean(dst.rate_in.integrate(s, e), rate);
    f.k_sin = mean(src.rate_in.integrate(s, e), if loopback { rate } else { 0.0 });
    f.k_dout = mean(dst.rate_out.integrate(s, e), if loopback { rate } else { 0.0 });
    f.s_sout = mean(src.streams_out.integrate(s, e), streams);
    f.s_din = mean(dst.streams_in.integrate(s, e), streams);
    f.s_sin = mean(src.streams_in.integrate(s, e), if loopback { streams } else { 0.0 });
    f.s_dout = mean(dst.streams_out.integrate(s, e), if loopback { streams } else { 0.0 });
    // The endpoint proc profile counts this transfer once per role.
    let own_procs = if loopback { 2.0 * procs } else { procs };
    f.g_src = mean(src.procs.integrate(s, e), own_procs);
    f.g_dst = mean(dst.procs.integrate(s, e), own_procs);
    f
}

/// One endpoint's `(start, end, value)` interval lists, in
/// [`EndpointProfiles::from_intervals`] order.
type IntervalLists = [Vec<(f64, f64, f64)>; 5];

/// Extract the Table 2 features for every transfer in `log`.
///
/// Cost is `O(n log n)`: one event sweep per (endpoint, quantity) plus two
/// binary searches per transfer per feature. Transfers with zero duration
/// get zero competing-load features.
///
/// Memory: each endpoint's interval lists (144 bytes per record) are freed
/// as its profiles are built, so the peak is the profiles (at most 288
/// bytes per record) plus the features returned (168 bytes per record).
pub fn extract_features(log: &[TransferRecord]) -> Vec<TransferFeatures> {
    // Every endpoint gets lists, even one only zero-duration records
    // touch, so every record finds both its profiles.
    let mut ivs: HashMap<EndpointId, IntervalLists> = HashMap::new();
    for r in log {
        let iv = interval_contribution(r);
        let [rate_out, _, procs, streams_out, _] = ivs.entry(r.src).or_default();
        if let Some(iv) = iv {
            rate_out.push((iv.start, iv.end, iv.rate));
            procs.push((iv.start, iv.end, iv.procs));
            streams_out.push((iv.start, iv.end, iv.streams));
        }
        let [_, rate_in, procs, _, streams_in] = ivs.entry(r.dst).or_default();
        if let Some(iv) = iv {
            rate_in.push((iv.start, iv.end, iv.rate));
            procs.push((iv.start, iv.end, iv.procs));
            streams_in.push((iv.start, iv.end, iv.streams));
        }
    }
    let profiles: HashMap<EndpointId, EndpointProfiles> =
        ivs.into_iter().map(|(ep, lists)| (ep, EndpointProfiles::from_intervals(lists))).collect();

    log.iter().map(|r| features_for(r, &profiles[&r.src], &profiles[&r.dst])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdt_types::{Bytes, SimTime};

    #[allow(clippy::too_many_arguments)]
    fn rec(id: u64, src: u32, dst: u32, s: f64, e: f64, gb: f64, c: u32, p: u32) -> TransferRecord {
        TransferRecord {
            id: TransferId(id),
            src: EndpointId(src),
            dst: EndpointId(dst),
            start: SimTime::seconds(s),
            end: SimTime::seconds(e),
            bytes: Bytes::gb(gb),
            files: 1000,
            dirs: 10,
            concurrency: c,
            parallelism: p,
            faults: 0,
        }
    }

    #[test]
    fn lone_transfer_has_zero_competing_load() {
        let log = vec![rec(0, 0, 1, 0.0, 100.0, 1.0, 4, 2)];
        let f = &extract_features(&log)[0];
        assert_eq!(f.k_sout, 0.0);
        assert_eq!(f.k_din, 0.0);
        assert_eq!(f.g_src, 0.0);
        assert_eq!(f.s_sout, 0.0);
        assert_eq!(f.relative_external_load(), 0.0);
        assert_eq!(f.n_b, 1e9);
        assert_eq!(f.n_f, 1000.0);
    }

    #[test]
    fn fully_overlapping_competitor_contributes_its_rate() {
        // Two identical transfers on the same edge, same interval.
        let log = vec![rec(0, 0, 1, 0.0, 100.0, 1.0, 4, 2), rec(1, 0, 1, 0.0, 100.0, 2.0, 8, 1)];
        let fs = extract_features(&log);
        let r1 = log[1].rate().as_f64();
        assert!((fs[0].k_sout - r1).abs() < 1e-6);
        assert!((fs[0].k_din - r1).abs() < 1e-6);
        // Competitor has min(8,1000)*1 = 8 streams out at source.
        assert!((fs[0].s_sout - 8.0).abs() < 1e-9);
        // G counts processes at each endpoint: 8 for the competitor.
        assert!((fs[0].g_src - 8.0).abs() < 1e-9);
        assert!((fs[0].g_dst - 8.0).abs() < 1e-9);
    }

    #[test]
    fn half_overlap_scales_contribution() {
        // Transfer 1 overlaps transfer 0 for half of 0's duration.
        let log = vec![rec(0, 0, 1, 0.0, 100.0, 1.0, 4, 2), rec(1, 0, 2, 50.0, 150.0, 1.0, 4, 2)];
        let fs = extract_features(&log);
        let r1 = log[1].rate().as_f64();
        assert!((fs[0].k_sout - 0.5 * r1).abs() < 1e-6);
        // Transfer 1 goes to a different destination: no Kdin for 0.
        assert_eq!(fs[0].k_din, 0.0);
    }

    #[test]
    fn direction_matters() {
        // A transfer INTO endpoint 0 is Ksin for a transfer OUT of 0.
        let log = vec![rec(0, 0, 1, 0.0, 100.0, 1.0, 4, 2), rec(1, 2, 0, 0.0, 100.0, 1.0, 4, 2)];
        let fs = extract_features(&log);
        let r1 = log[1].rate().as_f64();
        assert_eq!(fs[0].k_sout, 0.0);
        assert!((fs[0].k_sin - r1).abs() < 1e-6);
        // But it still counts toward Gsrc (engages the endpoint).
        assert!((fs[0].g_src - 4.0).abs() < 1e-9);
    }

    #[test]
    fn matches_bruteforce_eq2_on_dense_log() {
        // Cross-check the sweep against a direct implementation of Eq. 2.
        let mut log = Vec::new();
        for i in 0..40u64 {
            let s = (i as f64 * 13.0) % 170.0;
            log.push(rec(i, (i % 3) as u32, (3 + i % 2) as u32, s, s + 60.0, 1.0 + i as f64, 4, 2));
        }
        let fs = extract_features(&log);
        for (k, rk) in log.iter().enumerate() {
            let dur = rk.duration();
            let brute: f64 = log
                .iter()
                .enumerate()
                .filter(|(i, ri)| *i != k && ri.src == rk.src)
                .map(|(_, ri)| {
                    let o = (rk.end.as_secs().min(ri.end.as_secs())
                        - rk.start.as_secs().max(ri.start.as_secs()))
                    .max(0.0);
                    o / dur * ri.rate().as_f64()
                })
                .sum();
            assert!(
                (fs[k].k_sout - brute).abs() < 1e-6 * (1.0 + brute),
                "transfer {k}: sweep {} vs brute {brute}",
                fs[k].k_sout
            );
        }
    }

    #[test]
    fn loopback_transfer_subtracts_itself_everywhere() {
        let log = vec![rec(0, 0, 0, 0.0, 100.0, 1.0, 4, 2)];
        let f = &extract_features(&log)[0];
        for v in [f.k_sout, f.k_din, f.k_sin, f.k_dout, f.g_src, f.g_dst, f.s_sout, f.s_din] {
            assert!(v.abs() < 1e-9, "expected zero, got {v}");
        }
    }

    #[test]
    fn feature_vector_matches_names() {
        let log = vec![rec(0, 0, 1, 0.0, 100.0, 1.0, 4, 2)];
        let f = &extract_features(&log)[0];
        let v = f.to_vec();
        assert_eq!(v.len(), FEATURE_NAMES.len());
        assert_eq!(v[NFLT_INDEX], f.n_flt);
        assert_eq!(v[2], f.c);
        assert_eq!(v[15], f.n_f);
    }

    #[test]
    fn relative_load_is_half_when_equal_competitor() {
        let log = vec![rec(0, 0, 1, 0.0, 100.0, 1.0, 4, 2), rec(1, 0, 1, 0.0, 100.0, 1.0, 4, 2)];
        let fs = extract_features(&log);
        // Equal rates: K/(R+K) = 0.5.
        assert!((fs[0].relative_external_load() - 0.5).abs() < 1e-9);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests_support::*;
    use super::*;
    use proptest::prelude::*;

    fn arb_log() -> impl Strategy<Value = Vec<TransferRecord>> {
        proptest::collection::vec(
            (
                0u32..4,
                0u32..4,
                0.0f64..500.0,
                1.0f64..300.0,
                0.1f64..50.0,
                1u32..8,
                1u32..4,
                1u64..500,
            ),
            1..30,
        )
        .prop_map(|specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (src, dst, s, len, gb, c, p, files))| TransferRecord {
                    id: wdt_types::TransferId(i as u64),
                    src: EndpointId(src),
                    dst: EndpointId(dst),
                    start: wdt_types::SimTime::seconds(s),
                    end: wdt_types::SimTime::seconds(s + len),
                    bytes: wdt_types::Bytes::gb(gb),
                    files,
                    dirs: 1,
                    concurrency: c,
                    parallelism: p,
                    faults: 0,
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sweep_matches_bruteforce_eq2(log in arb_log()) {
            let fs = extract_features(&log);
            for (k, f) in fs.iter().enumerate() {
                let ksout = brute_k(&log, k);
                let kdin = brute_k_dst(&log, k);
                // Tolerance scales with the subtracted own-rate term: the
                // sweep computes (∫profile)/dur − R, so cancellation error
                // is relative to R, not to the (possibly zero) result.
                let tol = |brute: f64| 1e-6 * (1.0 + brute) + 1e-9 * f.rate.max(1.0);
                prop_assert!((f.k_sout - ksout).abs() < tol(ksout),
                    "Ksout sweep {} vs brute {ksout}", f.k_sout);
                prop_assert!((f.k_din - kdin).abs() < tol(kdin),
                    "Kdin sweep {} vs brute {kdin}", f.k_din);
            }
        }

        #[test]
        fn competing_features_nonnegative_and_finite(log in arb_log()) {
            for f in extract_features(&log) {
                for v in [f.k_sout, f.k_din, f.k_sin, f.k_dout,
                          f.s_sout, f.s_sin, f.s_dout, f.s_din, f.g_src, f.g_dst] {
                    prop_assert!(v >= 0.0 && v.is_finite());
                }
                let l = f.relative_external_load();
                prop_assert!((0.0..=1.0).contains(&l));
            }
        }
    }
}

#[cfg(test)]
mod tests_support {
    use super::*;

    /// Eq. 2 oracle for `Ksout`-style features on arbitrary logs: sum of
    /// overlap-scaled rates of other transfers sharing the *source*, with
    /// loopback transfers excluded once (matching the sweep's own-term
    /// subtraction).
    pub fn brute_k(log: &[TransferRecord], k: usize) -> f64 {
        let rk = &log[k];
        let dur = rk.duration();
        if dur <= 0.0 {
            return 0.0;
        }
        log.iter()
            .enumerate()
            .filter(|(i, ri)| *i != k && ri.src == rk.src && ri.duration() > 0.0)
            .map(|(_, ri)| {
                let o = (rk.end.as_secs().min(ri.end.as_secs())
                    - rk.start.as_secs().max(ri.start.as_secs()))
                .max(0.0);
                o / dur * ri.rate().as_f64()
            })
            .sum()
    }

    /// Eq. 2 oracle for `Kdin`.
    pub fn brute_k_dst(log: &[TransferRecord], k: usize) -> f64 {
        let rk = &log[k];
        let dur = rk.duration();
        if dur <= 0.0 {
            return 0.0;
        }
        log.iter()
            .enumerate()
            .filter(|(i, ri)| *i != k && ri.dst == rk.dst && ri.duration() > 0.0)
            .map(|(_, ri)| {
                let o = (rk.end.as_secs().min(ri.end.as_secs())
                    - rk.start.as_secs().max(ri.start.as_secs()))
                .max(0.0);
                o / dur * ri.rate().as_f64()
            })
            .sum()
    }
}
