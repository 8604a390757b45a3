//! Runtime verification of the simulator's hot path.
//!
//! PR 1 made rate allocation incremental (dirty-endpoint capacity refresh,
//! cached censuses, reused scratch) — exactly the kind of optimization that
//! silently drifts from the spec. This module is the safety net: a
//! deliberately naive reference implementation of weighted max–min
//! water-filling plus a set of invariant checks the engine can run at every
//! reallocation.
//!
//! Checking is **off by default** (zero overhead beyond a cached boolean
//! test) and activated either by building with the `strict-invariants`
//! cargo feature or by setting `WDT_CHECK=1` in the environment. When a
//! check fails the engine panics with the violated invariant and enough
//! detail to reproduce — a verification run is supposed to fail loudly, not
//! produce a subtly wrong log.
//!
//! The checks, in increasing order of cost:
//!
//! 1. **allocation sanity** — every rate finite, non-negative, under the
//!    flow's private cap; no shared resource oversubscribed (all tolerances
//!    relative to the quantity's own scale, as in [`crate::alloc`]);
//! 2. **max–min optimality** — a flow below its cap must sit on a saturated
//!    resource on which no other flow has a strictly larger weighted share
//!    (otherwise its rate could be raised without lowering a smaller one);
//! 3. **differential oracle** — the production allocator's output is
//!    compared against [`reference_allocate`], an independent O(rounds·n·m)
//!    from-scratch implementation, within capacity-relative tolerance
//!    (sampled every [`oracle_every`]-th reallocation).
//!
//! The engine separately verifies its incremental state (censuses, slot
//! counts, running-flow index, per-resource running-user counts and
//! capacity vector vs. a from-scratch rebuild), every skipped reallocation
//! (bitwise against a fresh one), event-time monotonicity, and
//! per-transfer byte conservation; see `engine.rs`.

use crate::alloc::FlowDemand;
use std::sync::OnceLock;

/// Relative tolerance for invariant checks. Looser than the allocator's
/// internal `1e-9` freeze tolerance: the checks compare *accumulated*
/// quantities (resource sums over many flows), where rounding error grows
/// with the term count.
pub const CHECK_REL_TOL: f64 = 1e-6;

/// Whether invariant checking is active: compiled in with the
/// `strict-invariants` feature, or switched on at runtime with
/// `WDT_CHECK=1` (or `true`). The environment is read once and cached.
pub fn enabled() -> bool {
    if cfg!(feature = "strict-invariants") {
        return true;
    }
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| matches!(std::env::var("WDT_CHECK").as_deref(), Ok("1") | Ok("true")))
}

/// How often the differential oracle runs when checking is enabled: every
/// N-th reallocation (default 16; override with `WDT_CHECK_ORACLE_EVERY`).
/// The cheap invariant checks always run on every reallocation; the oracle
/// recomputes the whole allocation from scratch, so it is sampled.
pub fn oracle_every() -> u64 {
    static EVERY: OnceLock<u64> = OnceLock::new();
    *EVERY.get_or_init(|| {
        std::env::var("WDT_CHECK_ORACLE_EVERY")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(|n| n.max(1))
            .unwrap_or(16)
    })
}

/// One violated invariant: which one, and a human-readable detail string
/// with the offending numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Short invariant name, e.g. `"resource-oversubscribed"`.
    pub invariant: &'static str,
    /// What was observed, with enough numbers to debug.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Panic with a formatted report if `violations` is non-empty. `context`
/// names the call site (e.g. `"reallocate @ t=123.4s"`).
pub fn enforce(context: &str, violations: &[Violation]) {
    if violations.is_empty() {
        return;
    }
    let mut msg = format!("wdt-check: {} invariant violation(s) at {context}:\n", violations.len());
    for v in violations.iter().take(20) {
        msg.push_str(&format!("  {v}\n"));
    }
    if violations.len() > 20 {
        msg.push_str(&format!("  ... and {} more\n", violations.len() - 20));
    }
    // Land the violation on the alert ring before panicking so the
    // panic-hook postmortem artifact carries it.
    wdt_obs::AlertSink::global().raise(
        wdt_obs::AlertKind::InvariantViolation,
        wdt_obs::Severity::Critical,
        format!("{context}: {}", violations[0]),
        violations.len() as f64,
        None,
    );
    panic!("{msg}");
}

/// Deliberately simple reference implementation of weighted max–min
/// water-filling, used as a differential oracle for
/// [`crate::alloc::allocate_into`].
///
/// Every round recomputes the per-resource weight sums from scratch,
/// allocates fresh vectors, and freezes flows exactly as the spec says:
/// raise all unfrozen flows in proportion to their weights until a
/// resource saturates or a cap binds, freeze the affected flows, repeat.
/// No scratch reuse, no incremental bookkeeping — nothing to drift.
pub fn reference_allocate(capacities: &[f64], flows: &[FlowDemand]) -> Vec<f64> {
    let nf = flows.len();
    let nr = capacities.len();
    let mut rates = vec![0.0f64; nf];
    if nf == 0 {
        return rates;
    }
    let mut remaining = capacities.to_vec();
    let tol: Vec<f64> = capacities.iter().map(|c| 1e-9 * c.abs().max(1.0)).collect();
    let mut frozen = vec![false; nf];

    // Each round freezes at least one flow, so nf rounds suffice; the +1
    // covers the final bookkeeping pass (mirrors the production loop).
    for _ in 0..=nf {
        // Weight sums over unfrozen flows, rebuilt from scratch each round.
        let mut wsum = vec![0.0f64; nr];
        for (f, &fr) in flows.iter().zip(&frozen) {
            if fr {
                continue;
            }
            for (&r, &c) in f.resources().iter().zip(f.coefficients()) {
                wsum[r] += f.weight * c;
            }
        }
        // The feasible fill step.
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
        // Freeze flows at their cap or touching an exhausted resource.
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let cap_thr =
                if f.cap.is_finite() { f.cap - 1e-9 * f.cap.abs().max(1.0) } else { f64::INFINITY };
            let at_cap = rates[i] >= cap_thr;
            let blocked = f.resources().iter().any(|&r| remaining[r] <= tol[r]);
            if at_cap || blocked {
                frozen[i] = true;
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

/// Check an allocation's core invariants: rates finite, non-negative, and
/// cap-respecting; no shared resource oversubscribed; weighted max–min
/// optimality (a flow below its cap sits on a saturated resource where no
/// other flow holds a strictly larger weighted share).
pub fn check_allocation(capacities: &[f64], flows: &[FlowDemand], rates: &[f64]) -> Vec<Violation> {
    let mut out = Vec::new();
    if flows.len() != rates.len() {
        out.push(Violation {
            invariant: "shape",
            detail: format!("{} flows but {} rates", flows.len(), rates.len()),
        });
        return out;
    }
    // Per-flow sanity.
    for (i, (f, &rate)) in flows.iter().zip(rates).enumerate() {
        if !rate.is_finite() || rate < 0.0 {
            out.push(Violation {
                invariant: "rate-not-finite",
                detail: format!("flow {i}: rate {rate}"),
            });
            continue;
        }
        let cap_tol = CHECK_REL_TOL * f.cap.abs().max(1.0);
        if f.cap.is_finite() && rate > f.cap + cap_tol {
            out.push(Violation {
                invariant: "cap-exceeded",
                detail: format!("flow {i}: rate {rate} > cap {}", f.cap),
            });
        }
    }
    // Per-resource usage, computed from scratch.
    let mut used = vec![0.0f64; capacities.len()];
    for (f, &rate) in flows.iter().zip(rates) {
        for (&r, &c) in f.resources().iter().zip(f.coefficients()) {
            used[r] += c * rate;
        }
    }
    for (r, (&u, &cap)) in used.iter().zip(capacities).enumerate() {
        if u > cap + CHECK_REL_TOL * cap.abs().max(1.0) {
            out.push(Violation {
                invariant: "resource-oversubscribed",
                detail: format!("resource {r}: used {u} > capacity {cap}"),
            });
        }
    }
    // Max–min optimality. A flow below its cap must be *blocked*: some
    // saturated resource it uses must hold no flow with a strictly larger
    // weighted share (otherwise this flow could be raised by lowering only
    // larger flows — a max–min violation).
    for (i, (f, &rate)) in flows.iter().zip(rates).enumerate() {
        let at_cap = f.cap.is_finite() && rate >= f.cap - CHECK_REL_TOL * f.cap.abs().max(1.0);
        if at_cap {
            continue;
        }
        let norm_i = rate / f.weight;
        let mut blocked = false;
        for &r in f.resources() {
            let saturated = used[r] >= capacities[r] - CHECK_REL_TOL * capacities[r].abs().max(1.0);
            if !saturated {
                continue;
            }
            let max_norm = flows
                .iter()
                .zip(rates)
                .filter(|(g, _)| g.resources().contains(&r))
                .map(|(g, &gr)| gr / g.weight)
                .fold(0.0f64, f64::max);
            if norm_i >= max_norm - CHECK_REL_TOL * max_norm.abs().max(1.0) {
                blocked = true;
                break;
            }
        }
        if !blocked {
            out.push(Violation {
                invariant: "not-max-min",
                detail: format!(
                    "flow {i}: rate {rate} (cap {}, weight {}) is below cap yet not the \
                     largest weighted share on any saturated resource it uses",
                    f.cap, f.weight
                ),
            });
        }
    }
    out
}

/// Differential oracle: compare `rates` (from the production allocator)
/// against [`reference_allocate`] on the same problem, within
/// capacity-relative tolerance.
pub fn compare_with_reference(
    capacities: &[f64],
    flows: &[FlowDemand],
    rates: &[f64],
) -> Vec<Violation> {
    let reference = reference_allocate(capacities, flows);
    let mut out = Vec::new();
    for (i, (f, (&got, &want))) in flows.iter().zip(rates.iter().zip(&reference)).enumerate() {
        // Tolerance scales with the largest capacity the flow touches (the
        // natural scale of its rate), or the rate itself for uncontended
        // cap-limited flows.
        let scale = f
            .resources()
            .iter()
            .map(|&r| capacities[r].abs())
            .fold(got.abs().max(want.abs()).max(1.0), f64::max);
        if (got - want).abs() > CHECK_REL_TOL * scale {
            out.push(Violation {
                invariant: "oracle-mismatch",
                detail: format!("flow {i}: production {got} vs reference {want} (scale {scale})"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::allocate;

    fn fd(cap: f64, weight: f64, resources: &[usize]) -> FlowDemand {
        FlowDemand::new(cap, weight, resources)
    }

    #[test]
    fn reference_matches_textbook_example() {
        // Same classic case as alloc.rs: A{0}, B{0,1}, C{1}, caps 10/4.
        let flows = vec![
            fd(f64::INFINITY, 1.0, &[0]),
            fd(f64::INFINITY, 1.0, &[0, 1]),
            fd(f64::INFINITY, 1.0, &[1]),
        ];
        let rates = reference_allocate(&[10.0, 4.0], &flows);
        assert!((rates[0] - 8.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 2.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[2] - 2.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn reference_agrees_with_production_on_basics() {
        let cases: Vec<(Vec<f64>, Vec<FlowDemand>)> = vec![
            (vec![], vec![]),
            (vec![100.0], vec![fd(f64::INFINITY, 1.0, &[0]), fd(f64::INFINITY, 3.0, &[0])]),
            (vec![100.0], vec![fd(10.0, 1.0, &[0]), fd(f64::INFINITY, 1.0, &[0])]),
            (vec![1.25e9, 6.0e8], vec![fd(8.0e8, 1.0, &[0]), fd(f64::INFINITY, 2.0, &[0, 1])]),
            (vec![0.0, 50.0], vec![fd(f64::INFINITY, 1.0, &[0]), fd(f64::INFINITY, 1.0, &[1])]),
        ];
        for (caps, flows) in cases {
            let prod = allocate(&caps, &flows);
            assert!(compare_with_reference(&caps, &flows, &prod).is_empty());
        }
    }

    #[test]
    fn check_accepts_production_allocation() {
        let caps = [1.25e9, 9.0e8, 2.0e9];
        let flows = vec![
            fd(5.0e8, 1.0, &[0, 1]),
            fd(f64::INFINITY, 2.0, &[0, 2]),
            fd(f64::INFINITY, 1.0, &[1, 2]),
        ];
        let rates = allocate(&caps, &flows);
        let v = check_allocation(&caps, &flows, &rates);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn check_flags_oversubscription() {
        let caps = [100.0];
        let flows = vec![fd(f64::INFINITY, 1.0, &[0]), fd(f64::INFINITY, 1.0, &[0])];
        let v = check_allocation(&caps, &flows, &[80.0, 80.0]);
        assert!(v.iter().any(|v| v.invariant == "resource-oversubscribed"), "{v:?}");
    }

    #[test]
    fn check_flags_cap_excess_and_nan() {
        let caps = [100.0];
        let flows = vec![fd(10.0, 1.0, &[0]), fd(f64::INFINITY, 1.0, &[0])];
        let v = check_allocation(&caps, &flows, &[20.0, f64::NAN]);
        assert!(v.iter().any(|v| v.invariant == "cap-exceeded"), "{v:?}");
        assert!(v.iter().any(|v| v.invariant == "rate-not-finite"), "{v:?}");
    }

    #[test]
    fn check_flags_non_max_min_allocation() {
        // Two equal flows on one resource: 30/50 is feasible and under
        // caps, but flow 0 could be raised at the expense of the *larger*
        // flow 1 — not max–min.
        let caps = [80.0];
        let flows = vec![fd(f64::INFINITY, 1.0, &[0]), fd(f64::INFINITY, 1.0, &[0])];
        let v = check_allocation(&caps, &flows, &[30.0, 50.0]);
        assert!(v.iter().any(|v| v.invariant == "not-max-min"), "{v:?}");
    }

    #[test]
    fn check_flags_underallocation() {
        // Feasible, fair, but wasteful: both flows could be raised.
        let caps = [100.0];
        let flows = vec![fd(f64::INFINITY, 1.0, &[0]), fd(f64::INFINITY, 1.0, &[0])];
        let v = check_allocation(&caps, &flows, &[20.0, 20.0]);
        assert!(v.iter().any(|v| v.invariant == "not-max-min"), "{v:?}");
    }

    #[test]
    fn oracle_catches_a_corrupted_rate() {
        let caps = [100.0, 40.0];
        let flows = vec![fd(f64::INFINITY, 1.0, &[0]), fd(f64::INFINITY, 1.0, &[0, 1])];
        let mut rates = allocate(&caps, &flows);
        rates[0] *= 0.9;
        let v = compare_with_reference(&caps, &flows, &rates);
        assert!(v.iter().any(|v| v.invariant == "oracle-mismatch"), "{v:?}");
    }

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn enforce_panics_with_context() {
        enforce("unit-test", &[Violation { invariant: "demo", detail: "broken".into() }]);
    }

    #[test]
    fn enforce_is_silent_when_clean() {
        enforce("unit-test", &[]);
    }
}
