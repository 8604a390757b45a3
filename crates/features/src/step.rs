//! Step-function integrals over interval collections.
//!
//! The paper's competing-load features (Eq. 2 and friends) all have the
//! form `Σ_i O(i,k)·X_i / (Te_k − Ts_k)`: the time-overlap-weighted sum of
//! some quantity `X` over all transfers sharing an endpoint. Computed
//! naively this is quadratic in the log size. Observe instead that
//!
//! ```text
//! Σ_i O(i,k)·X_i = ∫_{Ts_k}^{Te_k} F(t) dt  −  (k's own contribution)
//! ```
//!
//! where `F(t) = Σ_{i active at t} X_i` is a step function. We build `F`
//! once per (endpoint, quantity) with an event sweep and answer each
//! transfer's query with two binary searches — `O(n log n)` overall.

/// A piecewise-constant function with a precomputed running integral.
///
/// Built once per (endpoint, quantity) by [`StepIntegral::from_intervals`],
/// which takes its intervals by value, so a caller that hands over an
/// owned list frees it before the breakpoints are laid out. Every lookup
/// finds the last breakpoint `≤ x` with one `partition_point`. A profile
/// holds three `f64`s per breakpoint, at most two breakpoints per
/// interval: 48 bytes per interval.
#[derive(Debug, Clone)]
pub struct StepIntegral {
    /// Breakpoints, strictly increasing.
    times: Vec<f64>,
    /// `values[i]` is F on `[times[i], times[i+1])`.
    values: Vec<f64>,
    /// `integral[i]` = ∫ from `times[0]` to `times[i]` of F.
    integral: Vec<f64>,
}

impl StepIntegral {
    /// Build from `(start, end, value)` intervals. Zero-length or inverted
    /// intervals are ignored. Intervals are summed in iteration order, so
    /// the same order gives the same bits whether it comes from a `Vec` or
    /// a deque.
    pub fn from_intervals(intervals: impl IntoIterator<Item = (f64, f64, f64)>) -> Self {
        let intervals = intervals.into_iter();
        let mut events: Vec<(f64, f64)> = Vec::with_capacity(2 * intervals.size_hint().0);
        for (s, e, v) in intervals {
            if e > s {
                events.push((s, v));
                events.push((e, -v));
            }
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));

        // At most one breakpoint per event.
        let mut times = Vec::with_capacity(events.len());
        let mut values = Vec::with_capacity(events.len());
        let mut level = 0.0f64;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                level += events[i].1;
                i += 1;
            }
            times.push(t);
            values.push(level);
        }
        // Running integral at each breakpoint.
        let mut integral = Vec::with_capacity(times.len());
        let mut acc = 0.0;
        for j in 0..times.len() {
            integral.push(acc);
            if j + 1 < times.len() {
                acc += values[j] * (times[j + 1] - times[j]);
            }
        }
        StepIntegral { times, values, integral }
    }

    /// Index of the last breakpoint `≤ x`; `x` must not precede the first.
    fn last_at_or_before(&self, x: f64) -> usize {
        self.times.partition_point(|&t| t <= x) - 1
    }

    /// ∫ from the first breakpoint to `x`.
    fn cumulative(&self, x: f64) -> f64 {
        if self.times.is_empty() || x <= self.times[0] {
            return 0.0;
        }
        let j = self.last_at_or_before(x);
        self.integral[j] + self.values[j] * (x - self.times[j])
    }

    /// ∫ F over `[a, b]`.
    pub fn integrate(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        self.cumulative(b) - self.cumulative(a)
    }

    /// F at time `t` (right-continuous).
    pub fn value_at(&self, t: f64) -> f64 {
        if self.times.is_empty() || t < self.times[0] {
            return 0.0;
        }
        self.values[self.last_at_or_before(t)]
    }

    /// The breakpoints (useful for time-weighted scans, e.g. Figure 4).
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero_everywhere() {
        let s = StepIntegral::from_intervals([]);
        assert_eq!(s.integrate(0.0, 100.0), 0.0);
        assert_eq!(s.value_at(5.0), 0.0);
    }

    #[test]
    fn single_interval() {
        let s = StepIntegral::from_intervals([(1.0, 3.0, 5.0)]);
        assert_eq!(s.integrate(1.0, 3.0), 10.0);
        assert_eq!(s.integrate(0.0, 4.0), 10.0);
        assert_eq!(s.integrate(2.0, 4.0), 5.0);
        assert_eq!(s.integrate(1.5, 2.5), 5.0);
        assert_eq!(s.value_at(2.0), 5.0);
        assert_eq!(s.value_at(3.0), 0.0);
        assert_eq!(s.value_at(0.5), 0.0);
    }

    #[test]
    fn overlapping_intervals_stack() {
        let s = StepIntegral::from_intervals([(0.0, 10.0, 1.0), (5.0, 15.0, 2.0)]);
        assert_eq!(s.value_at(2.0), 1.0);
        assert_eq!(s.value_at(7.0), 3.0);
        assert_eq!(s.value_at(12.0), 2.0);
        // ∫ over [0,15] = 1*10 + 2*10 = 30.
        assert_eq!(s.integrate(0.0, 15.0), 30.0);
        // ∫ over [4,6] = 1*2 + 2*1 = 4.
        assert_eq!(s.integrate(4.0, 6.0), 4.0);
    }

    #[test]
    fn degenerate_intervals_ignored() {
        let s = StepIntegral::from_intervals([(5.0, 5.0, 100.0), (7.0, 3.0, 9.0)]);
        assert_eq!(s.integrate(0.0, 10.0), 0.0);
    }

    #[test]
    fn matches_bruteforce_overlap_sum() {
        // The identity the whole module is built on.
        let intervals = [(0.0, 4.0, 2.0), (1.0, 6.0, 3.0), (2.0, 3.0, 10.0), (5.0, 9.0, 1.0)];
        let s = StepIntegral::from_intervals(intervals.iter().copied());
        let (a, b) = (1.5f64, 7.0f64);
        let brute: f64 =
            intervals.iter().map(|&(s_, e_, v)| (b.min(e_) - a.max(s_)).max(0.0) * v).sum();
        assert!((s.integrate(a, b) - brute).abs() < 1e-9);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_intervals() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
        proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..50.0, 0.1f64..10.0).prop_map(|(s, len, v)| (s, s + len, v)),
            0..30,
        )
    }

    proptest! {
        #[test]
        fn integral_matches_bruteforce(
            intervals in arb_intervals(),
            a in 0.0f64..150.0,
            len in 0.0f64..150.0,
        ) {
            let b = a + len;
            let s = StepIntegral::from_intervals(intervals.iter().copied());
            let brute: f64 = intervals
                .iter()
                .map(|&(s_, e_, v)| (b.min(e_) - a.max(s_)).max(0.0) * v)
                .sum();
            prop_assert!((s.integrate(a, b) - brute).abs() < 1e-6 * (1.0 + brute.abs()));
        }

        #[test]
        fn integral_additive(intervals in arb_intervals(), a in 0.0f64..100.0) {
            let s = StepIntegral::from_intervals(intervals.iter().copied());
            let whole = s.integrate(a, a + 40.0);
            let parts = s.integrate(a, a + 17.0) + s.integrate(a + 17.0, a + 40.0);
            prop_assert!((whole - parts).abs() < 1e-6 * (1.0 + whole.abs()));
        }

        #[test]
        fn integral_nonnegative_for_positive_values(intervals in arb_intervals()) {
            let s = StepIntegral::from_intervals(intervals.iter().copied());
            prop_assert!(s.integrate(0.0, 200.0) >= -1e-9);
        }

        #[test]
        fn lookup_matches_binary_search_twin(
            intervals in arb_grid_intervals(),
            random in proptest::collection::vec(-5.0f64..40.0, 0..8),
        ) {
            let s = StepIntegral::from_intervals(intervals.iter().copied());
            let mut queries = random;
            queries.extend_from_slice(s.times());
            if let (Some(&first), Some(&last)) = (s.times().first(), s.times().last()) {
                queries.extend([first - 1.0, last + 1.0]);
            }
            for &x in &queries {
                prop_assert_eq!(s.value_at(x).to_bits(), twin::value_at(&s, x).to_bits());
                for &y in &queries {
                    prop_assert_eq!(s.integrate(x, y).to_bits(), twin::integrate(&s, x, y).to_bits());
                }
            }
        }
    }

    /// Intervals on a coarse grid, so starts and ends repeat and some
    /// intervals have zero length.
    fn arb_grid_intervals() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
        let time = prop_oneof![(0u32..20).prop_map(f64::from), 0.0f64..20.0];
        let len = prop_oneof![Just(0.0f64), (0u32..8).prop_map(f64::from), 0.0f64..8.0];
        proptest::collection::vec(
            (time, len, -10.0f64..10.0).prop_map(|(s, len, v)| (s, s + len, v)),
            0..30,
        )
    }

    /// Oracle lookup: `binary_search_by` over the breakpoints, `Err(ins)`
    /// stepping back one.
    mod twin {
        use super::StepIntegral;

        fn last_at_or_before(s: &StepIntegral, x: f64) -> usize {
            match s.times.binary_search_by(|t| t.partial_cmp(&x).expect("finite")) {
                Ok(j) => j,
                Err(ins) => ins - 1,
            }
        }

        fn cumulative(s: &StepIntegral, x: f64) -> f64 {
            if s.times.is_empty() || x <= s.times[0] {
                return 0.0;
            }
            let j = last_at_or_before(s, x);
            s.integral[j] + s.values[j] * (x - s.times[j])
        }

        pub fn integrate(s: &StepIntegral, a: f64, b: f64) -> f64 {
            if b <= a {
                return 0.0;
            }
            cumulative(s, b) - cumulative(s, a)
        }

        pub fn value_at(s: &StepIntegral, t: f64) -> f64 {
            if s.times.is_empty() || t < s.times[0] {
                return 0.0;
            }
            s.values[last_at_or_before(s, t)]
        }
    }
}
