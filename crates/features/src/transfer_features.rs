//! Per-transfer feature extraction (paper §4, Table 2).

use crate::step::StepIntegral;
use std::borrow::Borrow;
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
/// [`interval_contribution`]); [`featurize_by_endpoint`] reads each
/// record's competing-load features for one of its endpoints out of that
/// endpoint's profiles.
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
    /// appended (the batch gather appends in log order, a record's source
    /// role before its destination role) for results to be bitwise
    /// reproducible. Owned lists are freed as their profile is built; a
    /// deque's entries can be passed as an iterator.
    pub fn from_intervals<I>(lists: [I; 5]) -> Self
    where
        I: IntoIterator<Item = (f64, f64, f64)>,
    {
        let [rate_out, rate_in, procs, streams_out, streams_in] =
            lists.map(StepIntegral::from_intervals);
        EndpointProfiles { rate_out, rate_in, procs, streams_out, streams_in }
    }
}

/// Mean competing level over `[s, e]`: the profile's mean there less the
/// record's own level, floored at 0.
fn mean_competing(profile: &StepIntegral, s: f64, e: f64, own: f64) -> f64 {
    ((profile.integrate(s, e) / (e - s)) - own).max(0.0)
}

impl TransferFeatures {
    /// `r`'s transfer characteristics and target, with every
    /// competing-load feature 0.
    fn of_record(r: &TransferRecord) -> Self {
        TransferFeatures {
            id: r.id,
            edge: r.edge(),
            start: r.start.as_secs(),
            end: r.end.as_secs(),
            rate: r.rate().as_f64(),
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
        }
    }

    /// `Ksout`, `Ksin`, `Ssout`, `Ssin` and `Gsrc` of `r` (positive
    /// duration) from its source's profiles, which cover `r` itself: its
    /// own contribution is subtracted here.
    fn set_source_side(&mut self, r: &TransferRecord, src: &EndpointProfiles) {
        let (s, e, rate) = (self.start, self.end, self.rate);
        let streams = r.tcp_streams() as f64;
        let loopback = r.src == r.dst;
        self.k_sout = mean_competing(&src.rate_out, s, e, rate);
        self.k_sin = mean_competing(&src.rate_in, s, e, if loopback { rate } else { 0.0 });
        self.s_sout = mean_competing(&src.streams_out, s, e, streams);
        self.s_sin = mean_competing(&src.streams_in, s, e, if loopback { streams } else { 0.0 });
        self.g_src = mean_competing(&src.procs, s, e, own_procs(r));
    }

    /// `Kdin`, `Kdout`, `Sdin`, `Sdout` and `Gdst` of `r` (positive
    /// duration) from its destination's profiles; see
    /// [`TransferFeatures::set_source_side`].
    fn set_destination_side(&mut self, r: &TransferRecord, dst: &EndpointProfiles) {
        let (s, e, rate) = (self.start, self.end, self.rate);
        let streams = r.tcp_streams() as f64;
        let loopback = r.src == r.dst;
        self.k_din = mean_competing(&dst.rate_in, s, e, rate);
        self.k_dout = mean_competing(&dst.rate_out, s, e, if loopback { rate } else { 0.0 });
        self.s_din = mean_competing(&dst.streams_in, s, e, streams);
        self.s_dout = mean_competing(&dst.streams_out, s, e, if loopback { streams } else { 0.0 });
        self.g_dst = mean_competing(&dst.procs, s, e, own_procs(r));
    }
}

/// What `r` adds to an endpoint's proc profile: it counts once per role.
fn own_procs(r: &TransferRecord) -> f64 {
    let procs = r.effective_concurrency() as f64;
    if r.src == r.dst {
        2.0 * procs
    } else {
        procs
    }
}

/// The records of positive duration, indexed by endpoint: each endpoint's
/// rows (positions in the records) ascending, a loopback record listed
/// once, endpoints in order of first appearance.
struct EndpointIndex {
    endpoints: Vec<EndpointId>,
    /// Endpoint `k`'s rows are `rows[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    rows: Vec<usize>,
}

impl EndpointIndex {
    fn build<R: Borrow<TransferRecord>>(records: &[R]) -> Self {
        // The endpoints each contributing record touches, each once.
        let touched = |r: &TransferRecord| {
            let contributes = interval_contribution(r).is_some();
            [contributes.then_some(r.src), (contributes && r.dst != r.src).then_some(r.dst)]
                .into_iter()
                .flatten()
        };
        let mut slot: HashMap<EndpointId, usize> = HashMap::new();
        let mut endpoints = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        for r in records {
            for ep in touched(r.borrow()) {
                let k = *slot.entry(ep).or_insert_with(|| {
                    endpoints.push(ep);
                    counts.push(0);
                    endpoints.len() - 1
                });
                counts[k] += 1;
            }
        }
        let mut starts = Vec::with_capacity(counts.len() + 1);
        starts.push(0);
        for c in &counts {
            starts.push(starts[starts.len() - 1] + c);
        }
        // Reuse the counts as each endpoint's next free row.
        counts.copy_from_slice(&starts[..endpoints.len()]);
        let mut rows = vec![0; starts[starts.len() - 1]];
        for (i, r) in records.iter().enumerate() {
            for ep in touched(r.borrow()) {
                let next = &mut counts[slot[&ep]];
                rows[*next] = i;
                *next += 1;
            }
        }
        EndpointIndex { endpoints, starts, rows }
    }

    /// Each endpoint with its rows, in order of first appearance.
    fn iter(&self) -> impl Iterator<Item = (EndpointId, &[usize])> {
        self.endpoints
            .iter()
            .zip(self.starts.windows(2))
            .map(|(&ep, w)| (ep, &self.rows[w[0]..w[1]]))
    }
}

/// Featurize `records` one endpoint at a time: every record's Table 2
/// features, in `records` order.
///
/// The records of positive duration are indexed by endpoint (a loopback
/// record once) and the endpoints visited in order of first appearance.
/// For each, `profiles_of(ep, rows)` builds its profiles, `rows` being the
/// positions in `records` of the indexed records that touch `ep`,
/// ascending. The profiles must cover every interval that loads `ep`,
/// these records' own included; they may cover records outside
/// `records`, as a window's do. Each of those records then gets the side
/// `ep` plays in it (source, destination, or both for a loopback), and the
/// profiles are dropped. Records of zero duration keep zero
/// competing-load features, so an endpoint only they touch is never
/// built.
///
/// Memory: the features returned, the index (at most two `usize` per
/// record) and one endpoint's profiles at a time.
pub fn featurize_by_endpoint<R: Borrow<TransferRecord>>(
    records: &[R],
    mut profiles_of: impl FnMut(EndpointId, &[usize]) -> EndpointProfiles,
) -> Vec<TransferFeatures> {
    let mut out: Vec<TransferFeatures> =
        records.iter().map(|r| TransferFeatures::of_record(r.borrow())).collect();
    let index = EndpointIndex::build(records);
    for (ep, rows) in index.iter() {
        let profiles = profiles_of(ep, rows);
        for &i in rows {
            let r = records[i].borrow();
            if r.src == ep {
                out[i].set_source_side(r, &profiles);
            }
            if r.dst == ep {
                out[i].set_destination_side(r, &profiles);
            }
        }
    }
    out
}

/// One endpoint's `(start, end, value)` interval lists, in
/// [`EndpointProfiles::from_intervals`] order.
type IntervalLists = [Vec<(f64, f64, f64)>; 5];

/// `ep`'s interval lists from the records at `rows` of `log` (ascending,
/// every one touching `ep` with a positive duration), each list sized
/// exactly: in log order, a record's source role before its destination
/// role.
fn gather(log: &[TransferRecord], ep: EndpointId, rows: &[usize]) -> IntervalLists {
    let n_out = rows.iter().filter(|&&i| log[i].src == ep).count();
    let n_in = rows.iter().filter(|&&i| log[i].dst == ep).count();
    let mut lists = [n_out, n_in, n_out + n_in, n_out, n_in].map(Vec::with_capacity);
    let [rate_out, rate_in, procs, streams_out, streams_in] = &mut lists;
    for &i in rows {
        let r = &log[i];
        let iv = interval_contribution(r).expect("indexed records have a duration");
        if r.src == ep {
            rate_out.push((iv.start, iv.end, iv.rate));
            procs.push((iv.start, iv.end, iv.procs));
            streams_out.push((iv.start, iv.end, iv.streams));
        }
        if r.dst == ep {
            rate_in.push((iv.start, iv.end, iv.rate));
            procs.push((iv.start, iv.end, iv.procs));
            streams_in.push((iv.start, iv.end, iv.streams));
        }
    }
    lists
}

/// Extract the Table 2 features for every transfer in `log`.
///
/// Cost is `O(n log n)`: one event sweep per (endpoint, quantity) plus two
/// binary searches per transfer per feature. Transfers with zero duration
/// get zero competing-load features.
///
/// Memory: [`featurize_by_endpoint`] builds one endpoint's profiles at a
/// time from that endpoint's interval lists, so the peak is the features
/// returned (168 bytes per record), the endpoint index (at most 16 bytes
/// per record) and one endpoint's lists and profiles (72 and at most 144
/// bytes per record it holds).
pub fn extract_features(log: &[TransferRecord]) -> Vec<TransferFeatures> {
    featurize_by_endpoint(log, |ep, rows| EndpointProfiles::from_intervals(gather(log, ep, rows)))
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

/// The bitwise oracle of [`featurize_by_endpoint`]: a two-profile
/// extractor that builds every endpoint's profiles first, in one map, then
/// reads each record out of its source's and destination's profiles
/// together.
#[cfg(test)]
mod two_profile {
    use super::*;

    /// Compute one record's Table 2 features from the activity profiles
    /// of its source and destination endpoints. The profiles must cover
    /// the record's own contribution (it is subtracted here).
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

    /// Every endpoint's lists gathered in one log-order pass (an endpoint
    /// only zero-duration records touch gets empty lists), every
    /// endpoint's profiles built, then [`features_for`] per record.
    pub fn extract_features(log: &[TransferRecord]) -> Vec<TransferFeatures> {
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
        let profiles: HashMap<EndpointId, EndpointProfiles> = ivs
            .into_iter()
            .map(|(ep, lists)| (ep, EndpointProfiles::from_intervals(lists)))
            .collect();
        log.iter().map(|r| features_for(r, &profiles[&r.src], &profiles[&r.dst])).collect()
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use proptest::prelude::*;
    use wdt_types::{Bytes, SimTime};

    /// Logs over 1 to 40 endpoints with loopback records, zero-duration
    /// records, and two endpoints (ids `n` and `n + 1`) that only
    /// zero-duration records may touch. Starts and lengths sit on a
    /// coarse grid half the time, so breakpoints coincide.
    fn arb_log() -> impl Strategy<Value = Vec<TransferRecord>> {
        (1u32..41).prop_flat_map(|n| {
            let time = prop_oneof![(0u32..50).prop_map(|t| f64::from(t) * 10.0), 0.0f64..500.0];
            let len = prop_oneof![Just(0.0f64), (1u32..30).prop_map(|t| f64::from(t) * 10.0)];
            proptest::collection::vec(
                (0u32..n + 2, 0u32..n + 2, time, len, 0.1f64..50.0, 1u32..8, 1u32..4, 1u64..500),
                1..80,
            )
            .prop_map(move |specs| {
                specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (src, dst, s, len, gb, c, p, files))| {
                        // Only a zero-duration record keeps an endpoint
                        // past the first `n`; a lone draw of `n` or `n + 1`
                        // on a record with a duration is folded back.
                        let (src, dst) = if len > 0.0 { (src % n, dst % n) } else { (src, dst) };
                        TransferRecord {
                            id: TransferId(i as u64),
                            src: EndpointId(src),
                            dst: EndpointId(dst),
                            start: SimTime::seconds(s),
                            end: SimTime::seconds(s + len),
                            bytes: Bytes::gb(gb),
                            files,
                            dirs: 1 + i as u64 % 5,
                            concurrency: c,
                            parallelism: p,
                            faults: (i % 3) as u32,
                        }
                    })
                    .collect()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One endpoint at a time gives the two-profile extractor's bits.
        #[test]
        fn matches_two_profile_oracle_bitwise(log in arb_log()) {
            let got = extract_features(&log);
            let want = two_profile::extract_features(&log);
            prop_assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                prop_assert_eq!(a.id, b.id);
                prop_assert_eq!(a.edge, b.edge);
                prop_assert_eq!(a.rate.to_bits(), b.rate.to_bits());
                prop_assert_eq!(a.start.to_bits(), b.start.to_bits());
                prop_assert_eq!(a.end.to_bits(), b.end.to_bits());
                for (i, (x, y)) in a.to_vec().iter().zip(b.to_vec()).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "transfer {:?} {}: {} vs oracle {}",
                        a.id,
                        FEATURE_NAMES[i],
                        x,
                        y
                    );
                }
            }
        }
    }

    #[test]
    fn endpoints_are_visited_in_first_appearance_order() {
        let rec = |id: u64, src: u32, dst: u32, len: f64| TransferRecord {
            id: TransferId(id),
            src: EndpointId(src),
            dst: EndpointId(dst),
            start: SimTime::seconds(0.0),
            end: SimTime::seconds(len),
            bytes: Bytes::gb(1.0),
            files: 10,
            dirs: 1,
            concurrency: 2,
            parallelism: 2,
            faults: 0,
        };
        // Endpoint 9 is only touched with zero duration; 5 is a loopback.
        let log = [rec(0, 3, 1, 10.0), rec(1, 9, 9, 0.0), rec(2, 5, 5, 10.0), rec(3, 1, 3, 10.0)];
        let mut visits = Vec::new();
        featurize_by_endpoint(&log, |ep, rows| {
            visits.push((ep.0, rows.to_vec()));
            EndpointProfiles::from_intervals(gather(&log, ep, rows))
        });
        assert_eq!(visits, [(3, vec![0, 3]), (1, vec![0, 3]), (5, vec![2])]);
    }
}
