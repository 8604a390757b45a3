//! Weighted max–min fair rate allocation (progressive filling).
//!
//! At any instant, every active flow moves data at a rate determined by the
//! resources it shares (disk, NIC, CPU at both ends) and its own ceiling
//! (the TCP aggregate of its parallel streams). We compute the allocation by
//! **weighted progressive filling**: raise every flow's rate in proportion
//! to its weight until a resource saturates or a flow hits its ceiling,
//! freeze the affected flows, and continue with the rest. This is the
//! standard fluid-model allocation for transfer networks and yields weighted
//! max–min fairness.
//!
//! Weights model per-stream fairness: a transfer with more TCP streams and
//! more GridFTP processes claims a larger share of a contended NIC or disk
//! (with diminishing returns — the engine passes `sqrt(streams)`).

/// What a shared resource is; used by the engine to build capacity vectors
/// and by diagnostics to label bottlenecks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Storage read bandwidth at an endpoint (by catalog index).
    DiskRead(u32),
    /// Storage write bandwidth at an endpoint.
    DiskWrite(u32),
    /// Egress NIC capacity at an endpoint.
    NicOut(u32),
    /// Ingress NIC capacity at an endpoint.
    NicIn(u32),
    /// CPU throughput capacity at an endpoint.
    Cpu(u32),
}

/// Maximum shared resources per flow (src/dst × disk, NIC, CPU).
pub const MAX_FLOW_RESOURCES: usize = 6;

/// One flow's demand: its private ceiling, fair-share weight, and the
/// indices (into the capacity vector) of the shared resources it consumes.
///
/// Resources are stored inline (no heap allocation) because the simulator
/// copies the running flows' demands at every reallocation.
#[derive(Debug, Clone, Copy)]
pub struct FlowDemand {
    /// Private rate ceiling in bytes/s (TCP aggregate, or `f64::INFINITY`).
    pub cap: f64,
    /// Fair-share weight (> 0).
    pub weight: f64,
    res: [usize; MAX_FLOW_RESOURCES],
    /// Consumption coefficient per resource: moving at rate `r` consumes
    /// `coeff · r` of the resource. 1.0 for bandwidth-like resources;
    /// e.g. 0.5 of CPU for a transfer with integrity checksumming off.
    coeff: [f64; MAX_FLOW_RESOURCES],
    n_res: u8,
}

impl FlowDemand {
    /// Build a demand over at most [`MAX_FLOW_RESOURCES`] shared resources,
    /// all with unit consumption coefficients.
    pub fn new(cap: f64, weight: f64, resources: &[usize]) -> Self {
        assert!(resources.len() <= MAX_FLOW_RESOURCES, "too many resources");
        let mut res = [0usize; MAX_FLOW_RESOURCES];
        res[..resources.len()].copy_from_slice(resources);
        FlowDemand {
            cap,
            weight,
            res,
            coeff: [1.0; MAX_FLOW_RESOURCES],
            n_res: resources.len() as u8,
        }
    }

    /// As [`FlowDemand::new`], with an explicit consumption coefficient per
    /// resource.
    pub fn with_coefficients(
        cap: f64,
        weight: f64,
        resources: &[usize],
        coefficients: &[f64],
    ) -> Self {
        assert_eq!(resources.len(), coefficients.len(), "one coefficient per resource");
        assert!(coefficients.iter().all(|&c| c > 0.0), "coefficients must be positive");
        let mut d = Self::new(cap, weight, resources);
        d.coeff[..coefficients.len()].copy_from_slice(coefficients);
        d
    }

    /// The shared resources this flow draws from.
    pub fn resources(&self) -> &[usize] {
        &self.res[..self.n_res as usize]
    }

    /// Consumption coefficients, parallel to [`FlowDemand::resources`].
    pub fn coefficients(&self) -> &[f64] {
        &self.coeff[..self.n_res as usize]
    }
}

/// Relative tolerance for saturation and cap tests. An absolute epsilon
/// breaks at wide-area scale: capacities are ~1e9–1e10 bytes/s, where the
/// rounding error of a handful of f64 subtractions already dwarfs any fixed
/// 1e-6 cutoff, so saturated resources went undetected and the filling loop
/// spun on vanishing deltas. All tolerances scale with the quantity tested.
const REL_EPS: f64 = 1e-9;

/// The freeze threshold for a flow's private cap: caps can be infinite
/// (never binding), and `INF - INF * REL_EPS` is NaN, so guard explicitly.
fn cap_threshold(cap: f64) -> f64 {
    if cap.is_finite() {
        cap - REL_EPS * cap.abs().max(1.0)
    } else {
        f64::INFINITY
    }
}

/// `min(m, a / b)`: as `f64::min(m, a / b)`, up to the sign of a zero
/// result (a zero step is never taken), in one compare.
#[inline]
fn min_step(m: f64, a: f64, b: f64) -> f64 {
    let q = a / b;
    if q < m {
        q
    } else {
        m
    }
}

/// Marks a resource with no compact index in [`AllocScratch`].
const UNUSED: u32 = u32::MAX;

/// One flow's fill terms, fixed for a call: its cap and freeze threshold,
/// and per resource entry the compact resource index and the
/// `weight × coefficient` product the fill subtracts.
#[derive(Debug, Clone, Copy)]
struct FlowTerms {
    cap: f64,
    weight: f64,
    cap_threshold: f64,
    res: [u32; MAX_FLOW_RESOURCES],
    wc: [f64; MAX_FLOW_RESOURCES],
    n_res: u8,
}

impl FlowTerms {
    fn entries(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.res[..self.n_res as usize].iter().map(|&k| k as usize).zip(self.wc)
    }
}

/// One resource the call's flows use.
#[derive(Debug, Clone, Copy)]
struct ResFill {
    remaining: f64,
    /// Saturation tolerance, relative to the resource's own scale.
    tol: f64,
    /// Sum of `weight × coefficient` over unfrozen users.
    wsum: f64,
    /// Unfrozen flows' entries on this resource (a flow that lists it
    /// twice counts twice).
    users: u32,
}

/// Reusable workspace for [`allocate_into`]. The simulator reallocates at
/// every event that can change a rate, so the per-call vectors are worth
/// keeping around.
#[derive(Debug, Default, Clone)]
pub struct AllocScratch {
    rates: Vec<f64>,
    terms: Vec<FlowTerms>,
    /// Unfrozen flows, in input order.
    active: Vec<u32>,
    /// The resources the flows use, in order of first use.
    res: Vec<ResFill>,
    /// Capacity index of each entry of `res`.
    res_index: Vec<usize>,
    /// Resources (compact indices) with unfrozen users.
    active_res: Vec<u32>,
    /// Capacity index → compact index, or [`UNUSED`]. Every entry is
    /// [`UNUSED`] between calls.
    compact: Vec<u32>,
    reuses: u64,
}

impl AllocScratch {
    /// How many [`allocate_into`] calls found warm buffers from a prior
    /// call (deterministic: a pure function of the call sequence).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

/// Compute the weighted max–min fair allocation.
///
/// `capacities[r]` is the capacity of shared resource `r` in bytes/s.
/// Returns one rate per flow. Every rate respects the flow's cap, no
/// resource is oversubscribed, and the allocation is Pareto-efficient
/// (every flow is limited by its cap or by a saturated resource).
pub fn allocate(capacities: &[f64], flows: &[FlowDemand]) -> Vec<f64> {
    let mut scratch = AllocScratch::default();
    allocate_into(capacities, flows, &mut scratch);
    scratch.rates
}

/// As [`allocate`], but reusing `scratch` across calls; the result lives in
/// the returned slice until the next call.
///
/// Each round of the fill costs the unfrozen flows and the resources they
/// use, not `capacities.len()`: only the entries some flow lists get a
/// compact slot, and frozen flows and resources without unfrozen users
/// drop out of the working lists. The arithmetic is the textbook dense
/// fill's, bit for bit: the step is the minimum of the same quotients (one
/// per active resource instead of one per flow entry), and every
/// resource's weight sum and headroom receive the same terms in the same
/// flow order.
pub fn allocate_into<'a>(
    capacities: &[f64],
    flows: &[FlowDemand],
    scratch: &'a mut AllocScratch,
) -> &'a [f64] {
    let nf = flows.len();
    let nr = capacities.len();
    if scratch.rates.capacity() > 0 {
        scratch.reuses += 1;
    }
    let AllocScratch { rates, terms, active, res, res_index, active_res, compact, .. } = scratch;
    rates.clear();
    rates.resize(nf, 0.0);
    if nf == 0 {
        return rates;
    }
    debug_assert!(flows.iter().all(|f| f.weight > 0.0), "weights must be positive");
    debug_assert!(flows.iter().all(|f| f.resources().iter().all(|&r| r < nr)));

    if compact.len() < nr {
        compact.resize(nr, UNUSED);
    }
    terms.clear();
    res.clear();
    res_index.clear();
    for f in flows {
        let mut t = FlowTerms {
            cap: f.cap,
            weight: f.weight,
            cap_threshold: cap_threshold(f.cap),
            res: [0; MAX_FLOW_RESOURCES],
            wc: [0.0; MAX_FLOW_RESOURCES],
            n_res: f.n_res,
        };
        for (j, (&r, &c)) in f.resources().iter().zip(f.coefficients()).enumerate() {
            if compact[r] == UNUSED {
                compact[r] = res.len() as u32;
                res_index.push(r);
                let cap = capacities[r];
                res.push(ResFill {
                    remaining: cap,
                    tol: REL_EPS * cap.abs().max(1.0),
                    wsum: 0.0,
                    users: 0,
                });
            }
            let k = compact[r];
            let wc = f.weight * c;
            let fill = &mut res[k as usize];
            fill.wsum += wc;
            fill.users += 1;
            t.res[j] = k;
            t.wc[j] = wc;
        }
        terms.push(t);
    }
    active.clear();
    active.extend(0..nf as u32);
    active_res.clear();
    active_res.extend(0..res.len() as u32);

    // Feasible step: the smallest of cap headroom per unit weight over
    // unfrozen flows and headroom per unit weight of unfrozen users over
    // the resources they use. The freeze pass and the pass dropping idle
    // resources take it for the next round.
    let mut delta = f64::INFINITY;
    for (t, &rate) in terms.iter().zip(rates.iter()) {
        delta = min_step(delta, (t.cap - rate).max(0.0), t.weight);
    }
    for fill in res.iter() {
        if fill.wsum > 0.0 {
            delta = min_step(delta, fill.remaining.max(0.0), fill.wsum);
        }
    }
    // Each iteration freezes at least one flow, so nf iterations suffice;
    // the +1 covers the final bookkeeping pass.
    for _ in 0..=nf {
        if active.is_empty() {
            break;
        }
        if delta.is_finite() && delta > 0.0 {
            for &i in active.iter() {
                let t = &terms[i as usize];
                rates[i as usize] += t.weight * delta;
                for (k, wc) in t.entries() {
                    res[k].remaining -= wc * delta;
                }
            }
        }
        // Freeze flows at their cap or touching an exhausted resource.
        // Every user of a resource exhausted earlier froze then, so only an
        // active resource can be exhausted now, and if none is, no flow
        // needs its resources checked.
        let exhausted = active_res.iter().any(|&k| {
            let fill = &res[k as usize];
            fill.remaining <= fill.tol
        });
        delta = f64::INFINITY;
        active.retain(|&i| {
            let t = &terms[i as usize];
            let rate = rates[i as usize];
            let at_cap = rate >= t.cap_threshold;
            let blocked = exhausted && t.entries().any(|(k, _)| res[k].remaining <= res[k].tol);
            if at_cap || blocked {
                for (k, wc) in t.entries() {
                    res[k].wsum -= wc;
                    res[k].users -= 1;
                }
                return false;
            }
            delta = min_step(delta, (t.cap - rate).max(0.0), t.weight);
            true
        });
        active_res.retain(|&k| {
            let fill = &res[k as usize];
            if fill.users > 0 && fill.wsum > 0.0 {
                delta = min_step(delta, fill.remaining.max(0.0), fill.wsum);
            }
            fill.users > 0
        });
    }
    for &r in res_index.iter() {
        compact[r] = UNUSED;
    }
    // Numerical hygiene: clamp tiny negatives introduced by subtraction.
    for r in rates.iter_mut() {
        if *r < 0.0 {
            *r = 0.0;
        }
    }
    rates
}

/// The textbook dense fill [`allocate_into`] replaced: every round scans
/// every flow and every entry, with per-resource state sized to the whole
/// capacity vector. Kept as the bitwise oracle for the compact fill.
#[cfg(test)]
fn allocate_dense(capacities: &[f64], flows: &[FlowDemand]) -> Vec<f64> {
    let nf = flows.len();
    let nr = capacities.len();
    let mut rates = vec![0.0; nf];
    if nf == 0 {
        return rates;
    }
    let mut remaining = capacities.to_vec();
    let tol: Vec<f64> = capacities.iter().map(|c| REL_EPS * c.abs().max(1.0)).collect();
    let mut frozen = vec![false; nf];
    let mut wsum = vec![0.0; nr];
    for f in flows {
        for (&r, &c) in f.resources().iter().zip(f.coefficients()) {
            wsum[r] += f.weight * c;
        }
    }
    for _ in 0..=nf {
        let mut delta = f64::INFINITY;
        let mut any_unfrozen = false;
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            any_unfrozen = true;
            delta = delta.min((f.cap - rates[i]).max(0.0) / f.weight);
            for &r in f.resources() {
                if wsum[r] > 0.0 {
                    delta = delta.min(remaining[r].max(0.0) / wsum[r]);
                }
            }
        }
        if !any_unfrozen {
            break;
        }
        if delta.is_finite() && delta > 0.0 {
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                rates[i] += f.weight * delta;
                for (&r, &c) in f.resources().iter().zip(f.coefficients()) {
                    remaining[r] -= f.weight * c * delta;
                }
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let at_cap = rates[i] >= cap_threshold(f.cap);
            let blocked = f.resources().iter().any(|&r| remaining[r] <= tol[r]);
            if at_cap || blocked {
                frozen[i] = true;
                for (&r, &c) in f.resources().iter().zip(f.coefficients()) {
                    wsum[r] -= f.weight * c;
                }
            }
        }
    }
    for r in rates.iter_mut() {
        if *r < 0.0 {
            *r = 0.0;
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd(cap: f64, weight: f64, resources: Vec<usize>) -> FlowDemand {
        FlowDemand::new(cap, weight, &resources)
    }

    #[test]
    fn empty_input() {
        assert!(allocate(&[], &[]).is_empty());
        assert!(allocate(&[10.0], &[]).is_empty());
    }

    #[test]
    fn single_flow_gets_min_of_cap_and_resources() {
        let rates = allocate(&[100.0, 50.0], &[fd(80.0, 1.0, vec![0, 1])]);
        assert!((rates[0] - 50.0).abs() < 1e-6);
        let rates = allocate(&[100.0, 70.0], &[fd(30.0, 1.0, vec![0, 1])]);
        assert!((rates[0] - 30.0).abs() < 1e-6);
    }

    #[test]
    fn equal_flows_split_equally() {
        let flows = vec![fd(f64::INFINITY, 1.0, vec![0]), fd(f64::INFINITY, 1.0, vec![0])];
        let rates = allocate(&[100.0], &flows);
        assert!((rates[0] - 50.0).abs() < 1e-6);
        assert!((rates[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_split_is_proportional() {
        let flows = vec![fd(f64::INFINITY, 3.0, vec![0]), fd(f64::INFINITY, 1.0, vec![0])];
        let rates = allocate(&[100.0], &flows);
        assert!((rates[0] - 75.0).abs() < 1e-6);
        assert!((rates[1] - 25.0).abs() < 1e-6);
    }

    #[test]
    fn capped_flow_releases_share_to_others() {
        // Flow 0 can only use 10; flow 1 should get the remaining 90.
        let flows = vec![fd(10.0, 1.0, vec![0]), fd(f64::INFINITY, 1.0, vec![0])];
        let rates = allocate(&[100.0], &flows);
        assert!((rates[0] - 10.0).abs() < 1e-6);
        assert!((rates[1] - 90.0).abs() < 1e-6);
    }

    #[test]
    fn classic_max_min_example() {
        // Three flows, two links: A uses link0, B uses link0+link1, C uses link1.
        // cap(link0)=10, cap(link1)=4. Max-min: B limited by link1 share 2,
        // C gets 2, A gets 10-2=8.
        let flows = vec![
            fd(f64::INFINITY, 1.0, vec![0]),
            fd(f64::INFINITY, 1.0, vec![0, 1]),
            fd(f64::INFINITY, 1.0, vec![1]),
        ];
        let rates = allocate(&[10.0, 4.0], &flows);
        assert!((rates[1] - 2.0).abs() < 1e-6, "B={}", rates[1]);
        assert!((rates[2] - 2.0).abs() < 1e-6, "C={}", rates[2]);
        assert!((rates[0] - 8.0).abs() < 1e-6, "A={}", rates[0]);
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let flows = vec![fd(f64::INFINITY, 1.0, vec![0]), fd(f64::INFINITY, 1.0, vec![1])];
        let rates = allocate(&[100.0, 7.0], &flows);
        assert!((rates[0] - 100.0).abs() < 1e-6);
        assert!((rates[1] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn zero_capacity_resource_zeroes_users() {
        let flows = vec![fd(f64::INFINITY, 1.0, vec![0]), fd(f64::INFINITY, 1.0, vec![1])];
        let rates = allocate(&[0.0, 50.0], &flows);
        assert!(rates[0].abs() < 1e-6);
        assert!((rates[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn coefficients_scale_consumption() {
        // One flow consumes resource 0 at half rate: it can move 200 while
        // the resource only holds 100.
        let f = FlowDemand::with_coefficients(f64::INFINITY, 1.0, &[0], &[0.5]);
        let rates = allocate(&[100.0], &[f]);
        assert!((rates[0] - 200.0).abs() < 1e-6, "got {}", rates[0]);
    }

    #[test]
    fn cheap_consumer_gets_more_under_contention() {
        // Equal weights, but flow 1 consumes the shared resource at half
        // cost: fair shares grow equally until saturation, where flow 0's
        // full-cost consumption dominates; both then freeze at the same
        // rate r with 1.0·r + 0.5·r = 90 → r = 60.
        let flows = vec![
            FlowDemand::new(f64::INFINITY, 1.0, &[0]),
            FlowDemand::with_coefficients(f64::INFINITY, 1.0, &[0], &[0.5]),
        ];
        let rates = allocate(&[90.0], &flows);
        assert!((rates[0] - 60.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 60.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    #[should_panic(expected = "one coefficient per resource")]
    fn mismatched_coefficients_panic() {
        FlowDemand::with_coefficients(1.0, 1.0, &[0, 1], &[0.5]);
    }

    #[test]
    fn flow_with_no_shared_resources_hits_cap() {
        let rates = allocate(&[], &[fd(42.0, 1.0, vec![])]);
        assert!((rates[0] - 42.0).abs() < 1e-6);
    }

    #[test]
    fn wide_area_scale_capacities_saturate_exactly() {
        // Regression: with capacities at real bytes/s scale (~1e9, a 10 Gb/s
        // NIC) the old absolute EPS = 1e-6 was far below f64 rounding error,
        // so saturated resources went undetected. The binding resource must
        // be driven to capacity within *relative* tolerance.
        let nic = 1.25e9; // 10 Gb/s in bytes/s
        let flows: Vec<FlowDemand> = (0..10).map(|_| fd(5.0e8, 1.0, vec![0, 1])).collect();
        let rates = allocate(&[nic, 10.0 * nic], &flows);
        let used: f64 = rates.iter().sum();
        assert!(
            (used - nic).abs() <= 1e-6 * nic,
            "binding NIC not saturated: used {used} of {nic}"
        );
        for &r in &rates {
            assert!((r - nic / 10.0).abs() <= 1e-6 * nic, "unequal split: {rates:?}");
        }
    }

    #[test]
    fn wide_area_scale_respects_caps_after_many_freezes() {
        // Mixed caps at 1e9 scale: capped flows freeze first, the rest
        // re-split the slack; totals must still meet the binding resource.
        let cap = 2.0e9;
        let flows = vec![
            fd(1.0e8, 1.0, vec![0]),
            fd(2.5e8, 2.0, vec![0]),
            fd(f64::INFINITY, 1.0, vec![0]),
            fd(f64::INFINITY, 1.0, vec![0]),
        ];
        let rates = allocate(&[cap], &flows);
        assert!((rates[0] - 1.0e8).abs() <= 1.0, "{rates:?}");
        assert!((rates[1] - 2.5e8).abs() <= 1.0, "{rates:?}");
        let used: f64 = rates.iter().sum();
        assert!((used - cap).abs() <= 1e-6 * cap, "used {used} of {cap}");
        assert!((rates[2] - rates[3]).abs() <= 1e-6 * cap, "{rates:?}");
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let flows = vec![fd(8.0e8, 1.0, vec![0]), fd(f64::INFINITY, 2.0, vec![0, 1])];
        let mut scratch = AllocScratch::default();
        let a = allocate_into(&[1.25e9, 6.0e8], &flows, &mut scratch).to_vec();
        // Reuse on a different-shaped problem, then back again.
        allocate_into(&[50.0], &[fd(f64::INFINITY, 1.0, vec![0])], &mut scratch);
        let b = allocate_into(&[1.25e9, 6.0e8], &flows, &mut scratch).to_vec();
        assert_eq!(a, b);
        assert_eq!(a, allocate(&[1.25e9, 6.0e8], &flows));
        // First call fills cold buffers; the two follow-ups reuse them.
        assert_eq!(scratch.reuses(), 2);
    }

    #[test]
    fn compact_fill_matches_dense_fill_on_loopback_flows() {
        // Engine-shaped demands over two endpoints (five resources each:
        // disk read, disk write, NIC out, NIC in, CPU). A loopback flow
        // lists its endpoint's CPU twice; non-checksummed flows draw on
        // CPU at half rate.
        let flow = |src: usize, dst: usize, cap: f64, weight: f64, cpu: f64| {
            FlowDemand::with_coefficients(
                cap,
                weight,
                &[5 * src, 5 * src + 2, 5 * src + 4, 5 * dst + 3, 5 * dst + 4, 5 * dst + 1],
                &[1.0, 1.0, cpu, 1.0, cpu, 1.0],
            )
        };
        let caps = [1.5e9, 1.1e9, 1.175e9, 1.175e9, 9.6e8, 4.0e8, 3.0e8, 1.175e8, 1.175e8, 2.4e8];
        let flows = vec![
            flow(0, 0, f64::INFINITY, 2.0, 0.5),
            flow(0, 1, 6.0e8, 1.0, 1.0),
            flow(1, 1, 2.0e8, 2.0f64.sqrt(), 1.0),
            flow(1, 0, f64::INFINITY, 1.0, 0.5),
            flow(0, 0, 3.0e7, 1.0, 1.0),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&allocate(&caps, &flows)), bits(&allocate_dense(&caps, &flows)));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_problem() -> impl Strategy<Value = (Vec<f64>, Vec<FlowDemand>)> {
        (1usize..6).prop_flat_map(|nr| {
            let caps = proptest::collection::vec(1.0f64..1000.0, nr);
            let flows = proptest::collection::vec(
                (
                    prop_oneof![1.0f64..500.0, Just(f64::INFINITY)],
                    0.1f64..8.0,
                    proptest::collection::btree_set(0..nr, 1..=nr.min(4)),
                ),
                1..12,
            );
            (caps, flows).prop_map(|(caps, flows)| {
                let flows = flows
                    .into_iter()
                    .map(|(cap, weight, rs)| {
                        let rs: Vec<usize> = rs.into_iter().collect();
                        FlowDemand::new(cap, weight, &rs)
                    })
                    .collect();
                (caps, flows)
            })
        })
    }

    /// A value drawn log-uniformly from `[10^lo, 10^hi)`.
    fn log_uniform(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
        (lo..hi).prop_map(|e| 10f64.powf(e))
    }

    /// Engine-scale problems for the bitwise comparison: capacities from
    /// 1e2 to 1e10, finite and infinite caps, resource lists that may name
    /// one resource twice (a loopback flow's CPU) or none, and 0.5
    /// coefficients (CPU without checksumming).
    fn arb_engine_problem() -> impl Strategy<Value = (Vec<f64>, Vec<FlowDemand>)> {
        (1usize..16).prop_flat_map(|nr| {
            let caps = proptest::collection::vec(log_uniform(2.0, 10.0), nr);
            let entry = (0..nr, prop_oneof![Just(1.0), Just(0.5)]);
            let flows = proptest::collection::vec(
                (
                    prop_oneof![log_uniform(1.0, 11.0), Just(f64::INFINITY)],
                    1.0f64..4.0,
                    proptest::collection::vec(entry, 0..=MAX_FLOW_RESOURCES),
                ),
                1..24,
            );
            (caps, flows).prop_map(|(caps, flows)| {
                let flows = flows
                    .into_iter()
                    .map(|(cap, weight, entries)| {
                        let (rs, cs): (Vec<usize>, Vec<f64>) = entries.into_iter().unzip();
                        FlowDemand::with_coefficients(cap, weight, &rs, &cs)
                    })
                    .collect();
                (caps, flows)
            })
        })
    }

    proptest! {
        #[test]
        fn compact_fill_matches_dense_fill_bitwise(
            problems in proptest::collection::vec(arb_engine_problem(), 1..4)
        ) {
            // One scratch across differently shaped calls, as the engine
            // reuses it.
            let mut scratch = AllocScratch::default();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (caps, flows) in &problems {
                let want = bits(&allocate_dense(caps, flows));
                prop_assert_eq!(bits(allocate_into(caps, flows, &mut scratch)), want);
            }
        }

        #[test]
        fn no_resource_oversubscribed((caps, flows) in arb_problem()) {
            let rates = allocate(&caps, &flows);
            for (r, &cap) in caps.iter().enumerate() {
                let used: f64 = flows.iter().zip(&rates)
                    .filter(|(f, _)| f.resources().contains(&r))
                    .map(|(_, &rate)| rate)
                    .sum();
                prop_assert!(used <= cap + 1e-3, "resource {r}: used {used} > cap {cap}");
            }
        }

        #[test]
        fn no_flow_exceeds_cap((caps, flows) in arb_problem()) {
            let rates = allocate(&caps, &flows);
            for (f, &rate) in flows.iter().zip(&rates) {
                prop_assert!(rate <= f.cap + 1e-3);
                prop_assert!(rate >= 0.0);
            }
        }

        #[test]
        fn allocation_is_pareto_efficient((caps, flows) in arb_problem()) {
            // Every flow is at its cap or touches a saturated resource.
            let rates = allocate(&caps, &flows);
            let used_per_resource: Vec<f64> = (0..caps.len()).map(|r| {
                flows.iter().zip(&rates)
                    .filter(|(f, _)| f.resources().contains(&r))
                    .map(|(_, &rate)| rate)
                    .sum()
            }).collect();
            for (f, &rate) in flows.iter().zip(&rates) {
                let at_cap = rate >= f.cap - 1e-3;
                let blocked = f.resources().iter()
                    .any(|&r| used_per_resource[r] >= caps[r] - 1e-2);
                prop_assert!(at_cap || blocked,
                    "flow with rate {rate} (cap {}) is neither capped nor blocked", f.cap);
            }
        }

        #[test]
        fn deterministic((caps, flows) in arb_problem()) {
            prop_assert_eq!(allocate(&caps, &flows), allocate(&caps, &flows));
        }

        #[test]
        fn binding_resources_saturate_at_wide_area_scale((caps, flows) in arb_problem()) {
            // Same problems scaled to real bytes/s magnitudes (~1e9-1e12):
            // every flow must end up limited by its cap or by a resource
            // that is saturated to within *relative* tolerance, and the
            // allocation on a flow's binding resource must sum to capacity.
            let caps: Vec<f64> = caps.iter().map(|c| c * 1e9).collect();
            let flows: Vec<FlowDemand> = flows.iter()
                .map(|f| FlowDemand::new(f.cap * 1e9, f.weight, f.resources()))
                .collect();
            let rates = allocate(&caps, &flows);
            let used: Vec<f64> = (0..caps.len()).map(|r| {
                flows.iter().zip(&rates)
                    .filter(|(f, _)| f.resources().contains(&r))
                    .map(|(_, &rate)| rate)
                    .sum()
            }).collect();
            for (r, &cap) in caps.iter().enumerate() {
                prop_assert!(used[r] <= cap * (1.0 + 1e-6),
                    "resource {r}: used {} > cap {cap}", used[r]);
            }
            for (f, &rate) in flows.iter().zip(&rates) {
                let at_cap = rate >= f.cap * (1.0 - 1e-6);
                let binding = f.resources().iter()
                    .find(|&&r| used[r] >= caps[r] * (1.0 - 1e-6));
                prop_assert!(at_cap || binding.is_some(),
                    "flow at {rate} (cap {}) neither capped nor on a saturated resource",
                    f.cap);
                if let (false, Some(&r)) = (at_cap, binding) {
                    prop_assert!((used[r] - caps[r]).abs() <= caps[r] * 1e-6,
                        "binding resource {r} allocations sum to {} not {}",
                        used[r], caps[r]);
                }
            }
        }
    }
}
