//! The wdt benchmark: one workload, one seed, one run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper-campaign|ingest-replay> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! The workload's inputs are generated from the seed and driven through
//! the crates' public APIs; every run checks the outputs. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed`, and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it is the full run
//! record (environment, seed, details); both are also written under
//! `.bench_out/`, with the traced run's Chrome trace.

mod ingest;
mod loadgen;
mod obs;
mod paper;
mod reference;
mod report;
mod serve;
mod spans;
mod wait;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use wdt_types::JsonValue;

/// Where runs leave their records, traces, and scratch files, relative to
/// the working directory.
pub const OUT_DIR: &str = ".bench_out";

const WORKLOADS: [&str; 2] = ["paper-campaign", "ingest-replay"];

const USAGE: &str = "usage: wdt-benchmark --workload <paper-campaign|ingest-replay> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measured time per run, seconds.
    pub seconds: f64,
    /// Present for traced runs.
    pub recorder: Option<spans::Recorder>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        recorder: trace.ok_or("--trace is required")?.then(spans::Recorder::new),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let ticks = report::cpu_ticks();
    let mut outcome = Outcome::default();
    match args.workload.as_str() {
        "paper-campaign" => paper::run(&args, &mut outcome),
        _ => ingest::run(&args, &mut outcome),
    }
    if !outcome.metrics.contains_key("peak_rss_mib") {
        outcome.set("peak_rss_mib", report::peak_rss_mib());
    }
    let _ = std::fs::remove_dir_all(scratch_root());
    let traced = args.recorder.is_some();
    let tag = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(traced));
    if let Some(rec) = &args.recorder {
        finish_trace(rec, &tag, &mut outcome);
    }

    let (e2e, per_layer) = split_metrics(&outcome);
    let metrics = if traced {
        report::metrics_json(&per_layer, PER_LAYER, false)
    } else {
        report::metrics_json(&e2e, END_TO_END, true)
    };
    let metrics = match metrics {
        Ok(m) => m,
        // A run whose checks failed may have stopped before measuring.
        Err(_) if !outcome.check_failures.is_empty() => JsonValue::obj([]),
        Err(e) => {
            eprintln!("benchmark bug: {e}");
            return ExitCode::from(3);
        }
    };
    for f in &outcome.check_failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = outcome.check_failures.is_empty();
    let table = |o: &Outcome, t: &[(&str, &str)]| {
        report::metrics_json(o, t, false).unwrap_or(JsonValue::Null)
    };
    let record = JsonValue::obj([
        ("workload", JsonValue::Str(args.workload.clone())),
        ("seed", JsonValue::Num(args.seed as f64)),
        ("seconds", JsonValue::Num(args.seconds)),
        ("trace", JsonValue::Bool(traced)),
        ("environment", report::environment(ticks)),
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Num(outcome.attempted as f64)),
        ("failed", JsonValue::Num(outcome.failed as f64)),
        (
            "check_failures",
            JsonValue::Arr(
                outcome.check_failures.iter().map(|f| JsonValue::Str(f.clone())).collect(),
            ),
        ),
        ("end_to_end", table(&e2e, END_TO_END)),
        ("per_layer", if traced { table(&per_layer, PER_LAYER) } else { JsonValue::Null }),
        ("details", JsonValue::Obj(outcome.details.iter().cloned().collect())),
    ]);
    let record_path = PathBuf::from(OUT_DIR).join(format!("run-{tag}.json"));
    if let Err(e) = std::fs::write(&record_path, record.to_string()) {
        eprintln!("cannot write {}: {e}", record_path.display());
    }
    println!("{}", JsonValue::obj([("run_record", record)]));
    println!(
        "{}",
        JsonValue::obj([
            ("correct", JsonValue::Bool(correct)),
            ("attempted", JsonValue::Num(outcome.attempted.max(1) as f64)),
            ("failed", JsonValue::Num(outcome.failed as f64)),
            ("metrics", metrics),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Passes of a nominal `pass_s` seconds that fill `seconds`: at least one,
/// and a function of the arguments only, so every run does the same work
/// whatever the machine's speed at the moment.
pub fn passes(seconds: f64, pass_s: f64) -> usize {
    ((seconds / pass_s).round() as usize).max(1)
}

fn scratch_root() -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("scratch-{}", std::process::id()))
}

/// A fresh, empty scratch directory for this run, removed when it ends.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = scratch_root().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory under .bench_out");
    dir
}

/// Split the measured values into the end-to-end and per-layer tables.
fn split_metrics(outcome: &Outcome) -> (Outcome, Outcome) {
    let mut e2e = Outcome::default();
    let mut per_layer = Outcome::default();
    for (name, &value) in &outcome.metrics {
        if END_TO_END.iter().any(|(n, _)| n == name) {
            e2e.set(name, value);
        } else {
            per_layer.set(name, value);
        }
    }
    (e2e, per_layer)
}

/// Fold the recorded spans into per-layer metrics, print each layer's
/// self time, and write and validate the Chrome trace.
fn finish_trace(rec: &spans::Recorder, tag: &str, outcome: &mut Outcome) {
    let all = rec.spans();
    for (metric, name) in [
        ("workload.generate_s", "workload.generate"),
        ("sim.simulate_s", "sim.simulate"),
        ("features.extract_s", "features.extract"),
    ] {
        outcome.set(metric, spans::total_secs(&all, name));
    }
    let layers = spans::layer_self_times(&all);
    eprintln!("layer self time over {} spans:", all.len());
    for (layer, secs) in &layers {
        eprintln!("  {layer:<10} {secs:>10.4} s");
        let metric = format!("{layer}.self_s");
        if PER_LAYER.iter().any(|(n, _)| *n == metric) {
            outcome.set(&metric, *secs);
        } else {
            outcome.check_failures.push(format!("spans name an unknown layer '{layer}'"));
        }
    }
    let text = spans::chrome_trace(&all).to_string();
    let path = PathBuf::from(OUT_DIR).join(format!("trace-{tag}.json"));
    match wdt_obs::validate_chrome_trace(&text) {
        Ok(summary) => eprintln!("trace: {} spans -> {}", summary.spans, path.display()),
        Err(e) => outcome.check_failures.push(format!("exported trace is invalid: {e}")),
    }
    if let Err(e) = std::fs::write(&path, text) {
        outcome.check_failures.push(format!("cannot write {}: {e}", path.display()));
    }
}
