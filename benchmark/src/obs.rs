//! Reading the signals the crates already publish through `wdt-obs`:
//! the GBDT fit-phase counters, the `scenario.shard` spans, and the
//! simulator's `SimStats`. The traced run switches the recorder on; the
//! untraced run leaves it off, so none of this costs it anything.

use crate::report::Outcome;
use wdt_obs::{Phase, Registry};
use wdt_sim::SimStats;

/// Events each thread's flight recorder keeps. The default ring (8,192)
/// would overwrite a shard's opening event under the simulator's
/// per-reallocation spans before the shard closes.
const RING_EVENTS: &str = "2097152";

/// Switch the `wdt-obs` recorder on (coarse spans and fit-phase timers).
/// Must run before anything records, so the ring size takes effect.
pub fn enable() {
    std::env::set_var("WDT_OBS_RING_CAP", RING_EVENTS);
    wdt_obs::set_enabled(true);
}

const FIT_PHASES: [(&str, &str); 4] = [
    ("gbdt.fit_phase.binning_nanos", "ml.fit_phase.binning_s"),
    ("gbdt.fit_phase.fill_hist_nanos", "ml.fit_phase.fill_hist_s"),
    ("gbdt.fit_phase.split_search_nanos", "ml.fit_phase.split_search_s"),
    ("gbdt.fit_phase.partition_nanos", "ml.fit_phase.partition_s"),
];

/// Current values of the cumulative fit-phase counters, nanoseconds.
pub fn fit_phase_nanos() -> [u64; 4] {
    let reg = Registry::global();
    FIT_PHASES.map(|(counter, _)| reg.counter(counter).get())
}

/// Fit-phase time since `before`, summed over threads.
pub fn fit_phase_metrics(before: &[u64; 4], outcome: &mut Outcome) {
    let now = fit_phase_nanos();
    for (i, (_, metric)) in FIT_PHASES.iter().enumerate() {
        outcome.set(metric, (now[i] - before[i]) as f64 * 1e-9);
    }
}

/// Durations of every closed `scenario.shard` span recorded so far, s.
pub fn shard_secs() -> Vec<f64> {
    let mut out = Vec::new();
    for thread in wdt_obs::snapshot() {
        let mut open: Vec<u64> = Vec::new();
        for ev in thread.events.iter().filter(|e| e.name == "scenario.shard") {
            match ev.phase {
                Phase::Begin => open.push(ev.wall_us),
                Phase::End => {
                    if let Some(start) = open.pop() {
                        out.push((ev.wall_us - start) as f64 * 1e-6);
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// The simulator's layer metrics from a campaign's merged `SimStats` and
/// the shard spans.
pub fn sim_metrics(stats: &SimStats, outcome: &mut Outcome) {
    outcome.set("sim.events", stats.events as f64);
    outcome.set("sim.reallocations", stats.reallocations as f64);
    outcome.set("sim.realloc_s", stats.realloc_time_s);
    outcome.set("sim.realloc.refresh_s", stats.phase_nanos.refresh as f64 * 1e-9);
    outcome.set("sim.realloc.demand_s", stats.phase_nanos.demand as f64 * 1e-9);
    outcome.set("sim.realloc.allocate_s", stats.phase_nanos.allocate as f64 * 1e-9);
    outcome.set(
        "sim.scratch_reuse_ratio",
        stats.scratch_reuses as f64 / stats.reallocations.max(1) as f64,
    );
    let shards = shard_secs();
    outcome.check(!shards.is_empty(), || "no complete scenario.shard span was recorded".into());
    outcome.set("sim.shard_max_s", shards.iter().copied().fold(0.0, f64::max));
    outcome.set("sim.shard_mean_s", shards.iter().sum::<f64>() / shards.len().max(1) as f64);
}
