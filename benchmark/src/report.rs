//! Metric tables, statistics helpers, and the run record.
//!
//! The metric names and units here are the ones `BENCHMARK.json` lists;
//! a unit test keeps the two in step. Every run prints every metric of
//! its kind: untraced runs the end-to-end table, traced runs the
//! per-layer table. A per-layer metric of a layer the workload never
//! calls reads 0.

use std::collections::BTreeMap;
use wdt_types::JsonValue;

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("mdape_pct", "%"),
];

/// Per-layer metrics: `(name, unit)`, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.self_s", "s"),
    ("sim.self_s", "s"),
    ("features.self_s", "s"),
    ("ml.self_s", "s"),
    ("model.self_s", "s"),
    ("ingest.self_s", "s"),
    ("serve.self_s", "s"),
    ("check.self_s", "s"),
    ("workload.generate_s", "s"),
    ("sim.simulate_s", "s"),
    ("sim.shard_max_s", "s"),
    ("sim.shard_mean_s", "s"),
    ("sim.events", "count"),
    ("sim.reallocations", "count"),
    ("sim.realloc_s", "s"),
    ("sim.realloc.refresh_s", "s"),
    ("sim.realloc.demand_s", "s"),
    ("sim.realloc.allocate_s", "s"),
    ("sim.scratch_reuse_ratio", "ratio"),
    ("features.extract_s", "s"),
    ("model.per_edge_s", "s"),
    ("model.edge_s.p50", "s"),
    ("model.edge_s.max", "s"),
    ("model.per_edge.imbalance", "ratio"),
    ("model.lr_mdape_pct", "%"),
    ("ml.gbdt_fit_s", "s"),
    ("ml.linear_fit_s", "s"),
    ("ml.evaluate_s", "s"),
    ("ml.fit_phase.binning_s", "s"),
    ("ml.fit_phase.fill_hist_s", "s"),
    ("ml.fit_phase.split_search_s", "s"),
    ("ml.fit_phase.partition_s", "s"),
    ("ml.predict_ns_per_row", "ns"),
    ("ml.explain_ns_per_row", "ns"),
    ("ingest.queue.blocked_s", "s"),
    ("ingest.store.append_s", "s"),
    ("ingest.store.sync_s", "s"),
    ("ingest.store.bytes", "B"),
    ("ingest.window.push_s", "s"),
    ("ingest.window.tail_s", "s"),
    ("ingest.window.full_s", "s"),
    ("ingest.window.tail_useful_ratio", "ratio"),
    ("ingest.retrain.observe_s", "s"),
    ("ingest.retrain.refit_s", "s"),
    ("ingest.retrain.refit_ms_p50", "ms"),
    ("ingest.retrain.refits", "count"),
    ("ingest.retrain.drift_refits", "count"),
    ("loadgen.late_us.p50", "us"),
    ("loadgen.late_us.p99", "us"),
    ("serve.client_us.p50", "us"),
    ("serve.client_us.p90", "us"),
    ("serve.client_us.p99", "us"),
    ("serve.request_latency_us.p50", "us"),
    ("serve.predict_latency_us.p50", "us"),
    ("serve.batch_size.mean.open", "rows"),
    ("serve.batch_size.mean.saturated", "rows"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("serve.http.frame_ns", "ns"),
    ("serve.http.render_ns", "ns"),
    ("process.cpu_us_per_req.open", "us"),
    ("process.cpu_us_per_req.saturated", "us"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the workload defines the unit).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output-check failures; empty means every check passed.
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Free-form details for the run record (iterations, phase sizes…).
    pub details: Vec<(String, JsonValue)>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record an output check: a failed one is kept with its message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Attach a detail to the run record.
    pub fn detail(&mut self, key: &str, value: JsonValue) {
        self.details.push((key.to_string(), value));
    }
}

/// Render the metric object for `table`. Every end-to-end metric must have
/// been measured; a per-layer metric the workload never touched reads 0.
pub fn metrics_json(
    outcome: &Outcome,
    table: &[(&str, &str)],
    require_all: bool,
) -> Result<JsonValue, String> {
    for name in outcome.metrics.keys() {
        if !table.iter().any(|(n, _)| n == name) {
            return Err(format!("metric '{name}' is not in the metric table"));
        }
    }
    let mut out = BTreeMap::new();
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if require_all => return Err(format!("metric '{name}' was not measured")),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not finite ({value})"));
        }
        out.insert(
            name.to_string(),
            JsonValue::obj([
                ("value", JsonValue::Num(value)),
                ("unit", JsonValue::Str(unit.into())),
            ]),
        );
    }
    Ok(JsonValue::Obj(out))
}

/// Median of `v` (mean of the two middle values for even lengths); NaN
/// when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile (`q` in [0, 1]) of `v`; NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time (user + system) this process has used, seconds.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(f64::NAN);
    (ticks(11) + ticks(12)) / 100.0
}

/// Cumulative `(steal, total)` CPU ticks of the machine, from `/proc/stat`.
/// Steal is time the hypervisor ran something else while this VM's
/// virtual CPUs were ready to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The environment a result depends on; `since` is [`cpu_ticks`] at the
/// start of the run, for the share of machine time stolen during it.
pub fn environment(since: (u64, u64)) -> JsonValue {
    let (steal, total) = cpu_ticks();
    let steal_pct = 100.0 * (steal - since.0) as f64 / (total - since.1).max(1) as f64;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    JsonValue::obj([
        ("nproc", JsonValue::Num(nproc as f64)),
        ("steal_pct", JsonValue::Num(steal_pct)),
        ("worker_threads", JsonValue::Num(rayon::current_num_threads() as f64)),
        ("cpu_model", JsonValue::Str(cpu)),
        ("commit", JsonValue::Str(commit())),
        (
            "profile",
            JsonValue::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ),
    ])
}

/// The checked-out commit, read from `.git` in the working directory when
/// there is one (an exported tree has none).
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .field(key)
                .and_then(|v| v.as_arr().map(|a| a.to_vec()))
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.field("name").and_then(|v| v.as_str().map(str::to_string)).unwrap(),
                        m.field("unit").and_then(|v| v.as_str().map(str::to_string)).unwrap(),
                    )
                })
                .collect();
            let code: Vec<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, code, "{key} in BENCHMARK.json differs from the code");
        }
    }

    #[test]
    fn per_layer_defaults_to_zero_but_end_to_end_is_required() {
        let mut o = Outcome::default();
        o.set("setup_s", 1.5);
        assert!(metrics_json(&o, END_TO_END, true).is_err());
        let json = metrics_json(&Outcome::default(), PER_LAYER, false).unwrap();
        let v = json.field("sim.events").unwrap().field("value").unwrap().as_f64().unwrap();
        assert_eq!(v, 0.0);
        o.set("no.such.metric", 1.0);
        assert!(metrics_json(&o, PER_LAYER, false).is_err());
    }
}
