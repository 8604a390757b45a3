//! CLI subcommand implementations.
//!
//! Each command is a plain function from parsed [`Args`] to a `Result`, so
//! the logic is unit-testable without spawning processes.

use crate::args::Args;
use rayon::prelude::*;
use std::error::Error;
use std::fs;
use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wdt_bench::ScenarioCampaign;
use wdt_check::DigestBuilder;
use wdt_features::{
    edge_census, edge_stats, eligible_edges, extract_features, threshold_filter, TransferFeatures,
};
use wdt_ingest::{
    tail_csv, Backpressure, IngestConfig, IngestPipeline, LogStore, MemoryRing, RetrainConfig,
    RetrainDriver, SegmentStore, SwapEvent,
};
use wdt_model::{
    build_dataset, default_grid, recommend_endpoint_concurrency, run_per_edge, tune_gbdt,
    FitConfig, FittedModel, ModelKind, PerEdgeConfig,
};
use wdt_serve::{
    run_loadgen, BatchConfig, EventLoopServer, HttpClient, LoadgenConfig, LoadgenMode,
    ModelRegistry, ServeConfig, ServeSchema,
};
use wdt_types::{
    records_to_csv, ArrivalSpec, BackgroundSpec, EdgeId, EndpointId, ScenarioSpec, TopologySpec,
    TrafficSpec, TransferRecord,
};

type CmdResult = Result<(), Box<dyn Error>>;

/// Top-level dispatch.
pub fn run(args: &Args) -> CmdResult {
    match args.command.as_str() {
        "simulate" => simulate(args),
        "census" => census(args),
        "train" => train(args),
        "predict" => predict(args),
        "explain" => explain(args),
        "advise" => advise(args),
        "serve" => serve(args),
        "loadgen" => loadgen(args),
        "ingest" => ingest(args),
        "check" => check(args),
        "scenarios" => scenarios(args),
        "obs" => obs(args),
        "obs-alerts" => obs_alerts(args),
        "help" | "--help" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", usage()).into()),
    }
}

/// The help text. The literal is laid out as printed: command names at
/// column 6, their flags and notes at column 16.
pub fn usage() -> String {
    let d = ServeConfig::default();
    let (acceptors, deadline_ms, explain_top) =
        (d.acceptors, d.request_deadline.as_millis(), d.explain_top);
    let (max_batch, flush_us, queue_cap) =
        (d.batch.max_batch, d.batch.flush.as_micros(), d.batch.queue_cap);
    format!(
        "\
wdt — wide-area data transfer performance toolkit

USAGE: wdt <command> [--key value ...]

COMMANDS
     simulate  generate a synthetic fleet + workload and simulate it
               --out FILE [--days N=30] [--heavy-edges N=45] [--sparse-edges N=400]
               [--seed N=2017] [--bg-intensity X=0.4] [--runs N=4] [--trace FILE]
               (--runs = independent time shards simulated in parallel;
                results are bit-identical for any thread count;
                --trace exports a Chrome/Perfetto trace of the run)
     census    edge statistics of a log
               --log FILE [--threshold X=0.5] [--min-transfers N=300]
     train     fit a transfer-rate model on one edge (or all edges pooled)
               --log FILE --model OUT [--src N --dst N] [--kind linear|gbdt=gbdt]
               [--threshold X=0.5] [--tune] [--max-bins N=256] [--trace FILE]
               (--max-bins 65536 bins any column of at most 65,536
                distinct values losslessly)
     predict   predict rates for a log's transfers with a saved model
               --log FILE --model FILE
     explain   slowdown triage: attribute the worst-p99 slowdown transfers
               to signed per-feature rate contributions (path attributions
               whose fold reconstructs the prediction bitwise)
               source: --log FILE | --scenario FILE | simulator flags
               [--days N=3] [--heavy-edges N=6] [--sparse-edges N=30]
               [--seed N=2017] [--bg-intensity X=0.4] [--runs N=4]
               model:  [--model FILE] [--threshold X=0.5]
               output: [--top N=20] [--top-features N=5] [--out FILE]
               (fits a GBDT on the threshold-filtered log unless --model
                loads one; each triaged transfer reports bias + per-feature
                contributions bucketed into competing-load (K*/S*),
                endpoint (G*), tuning (C/P), and shape features, with the
                most-negative bucket named as the dominant cause)
     advise    concurrency-cap advice for an endpoint (Figure 4 analysis)
               --log FILE --endpoint N
     serve     online rate-prediction service (HTTP, micro-batched)
               --model-dir DIR [--port N=8191] [--acceptors N={acceptors}]
               [--deadline-ms N={deadline_ms}] [--max-batch N={max_batch}]
               [--flush-us N={flush_us}] [--queue-cap N={queue_cap}]
               [--explain-top N={explain_top}]
               (endpoints: POST /predict, POST /explain for a prediction
                plus its per-feature attributions (--explain-top ranks the
                N largest), GET /healthz, GET /metrics, GET /metrics.prom
                for Prometheus text, GET /alerts for the alert ring,
                POST /reload to hot-swap to the newest model in DIR,
                POST /shutdown for a graceful stop. All connections are
                multiplexed over --acceptors poller threads. --deadline-ms
                answers 408 to requests that stall mid-delivery)
     loadgen   replay a log's feature vectors against a running server
               --addr HOST:PORT --log FILE [--requests N=10000]
               [--mode closed|open=closed] [--concurrency N=8]
               [--rate X=5000] [--connections N=4] [--pipeline N=1]
               [--warmup N=0] [--min-rps X] [--out FILE]
               (closed loop measures capacity; open loop paces arrivals
                at --rate req/s to measure latency under target load;
                --pipeline sends N requests per burst on each connection;
                --warmup discards the first N responses from the latency
                histogram; --min-rps fails the run if throughput lands
                below the floor — the CI regression gate)
     ingest    stream transfer records into the continuous-training
               pipeline: bounded queue -> log store -> windowed features
               -> periodic refits with drift detection, each new model
               hot-swappable into `wdt serve` via POST /reload
               simulator source (default):
               [--days N=10] [--heavy-edges N=6] [--sparse-edges N=30]
               [--seed N=2017] [--bg-intensity X=0.4] [--runs N=4]
               [--repeat N=1] [--drift-bg X [--drift-days N]]
               csv source: --from-csv FILE [--follow] [--poll-ms N=50]
               pipeline:  [--model-dir DIR] [--store-dir DIR]
               [--window N=50000] [--chunk N=2000] [--queue N=4096]
               [--drop-newest] [--kind linear|gbdt=gbdt]
               [--refit-every N=20000] [--min-train N=500]
               [--drift-threshold X=35] [--drift-patience N=3]
               checks:    [--notify ADDR] [--golden FILE [--refresh]]
               [--max-rss-mb N] [--expect-min-records N]
               [--expect-swaps N] [--alerts-out FILE] [--trace FILE]
               (--repeat streams N campaigns with consecutive seeds
                through the one pipeline — soak-scale record volume
                without one enormous campaign.
                --drift-bg streams a second campaign phase with shifted
                background load — a hidden-variable drift the deployed
                model must be retrained to follow. --store-dir selects
                the crash-recoverable on-disk segment store; the default
                is an in-memory ring of --window records. --follow tails
                the CSV like `tail -f` until SIGINT. --notify POSTs
                /reload to a serving fleet after every swap. --golden
                verifies the streamed log's digest against a committed
                file — proof the stream shed or altered nothing; the
                --expect-* flags and --max-rss-mb (peak RSS, Linux VmHWM)
                turn a soak run into a pass/fail CI gate; --alerts-out
                writes the alert ring — drift and model-swap events —
                as JSON when the run finishes)
     check     verify the simulator against its reference oracle and a
               committed golden-trace digest (see DESIGN.md)
               --golden FILE [--refresh] [--oracle-cases N=250]
               [--seed N=2017] [--days N=2] [--heavy-edges N=6]
               [--sparse-edges N=30] [--runs N=4] [--scenario FILE]
               [--trace FILE]
               (runs the campaign twice — parallel and serial — with
                runtime invariant checks on, then compares the log digest
                to FILE; --refresh rewrites FILE instead of comparing;
                --scenario verifies a scenario file's campaign instead of
                the standard check campaign, ignoring the campaign flags)
     scenarios sweep a directory of scenario files (see DESIGN.md for the
               DSL) and report per-scenario model quality
               --dir DIR [--golden-dir DIR] [--refresh] [--report FILE]
               [--threshold X=0.5] [--trace FILE]
               (each *.json in DIR is parsed strictly, simulated with
                sharded parallelism, trained on, and reported: MdAPE,
                top feature importances, aggregate throughput, slowdown
                tail. --golden-dir verifies each scenario's TraceDigest
                against DIR/<name>.digest — the whole-library golden
                gate; --refresh rewrites the digests instead. --report
                writes the per-scenario report as JSON)
     obs       observability: trace a short campaign and dump the flight
               recorder + metrics registry, or validate a trace file
               [--trace FILE] [--out FILE] [--check-trace FILE]
               [--days N=1] [--heavy-edges N=4] [--sparse-edges N=12]
               [--seed N=2017] [--runs N=2]
               (--check-trace structurally validates an existing
                Chrome-trace JSON and prints a summary; traces load in
                ui.perfetto.dev or chrome://tracing. WDT_TRACE=1 enables
                the flight recorder for any command)
     obs alerts dump the alert ring as JSON: a running server's via
               --addr (GET /alerts), else this process's
               [--addr HOST:PORT] [--out FILE]
     help      this text

Unknown --flags are rejected by name; `wdt help` lists every flag.
"
    )
}

/// Load a transfer log line by line: memory is one line buffer plus the
/// records themselves, never a second whole-file string. Parse errors keep
/// [`records_from_csv`](wdt_types::records_from_csv)'s exact line numbers
/// (the streaming reader is the same parser).
fn load_log(args: &Args) -> Result<Vec<TransferRecord>, Box<dyn Error>> {
    let path = args.require("log")?;
    let file = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for item in wdt_types::CsvReader::new(std::io::BufReader::new(file)) {
        out.push(item.map_err(|e| format!("{path}: {e}"))?);
    }
    Ok(out)
}

/// `--trace PATH` support: turn the flight recorder on (plus the panic
/// hook, so a crash still leaves a post-mortem) before a command runs.
/// Returns the export path for [`write_trace`].
fn trace_setup(args: &Args) -> Option<String> {
    let path = args.get("trace")?.to_string();
    wdt_obs::set_enabled(true);
    wdt_obs::install_panic_hook();
    Some(path)
}

/// Export the flight recorder as Chrome-trace JSON (self-validated
/// before writing), then disable tracing and drop the recorded events.
fn write_trace(path: &str) -> CmdResult {
    let text = wdt_obs::export_chrome().to_string();
    let summary = wdt_obs::validate_chrome_trace(&text)
        .map_err(|e| format!("exported trace failed validation: {e}"))?;
    fs::write(path, format!("{text}\n"))?;
    eprintln!(
        "trace: wrote {} events ({} spans, {} tracks) to {path} — load in ui.perfetto.dev \
         or chrome://tracing",
        summary.events, summary.spans, summary.tracks
    );
    wdt_obs::set_enabled(false);
    wdt_obs::clear();
    Ok(())
}

/// The shared campaign flags — `--seed --days --heavy-edges
/// --sparse-edges --bg-intensity --runs` — as a campaign over the default
/// fleet, arrivals and background processes. `days`, `heavy_edges`,
/// `sparse_edges` and `runs` are the calling command's defaults; `--seed`
/// (2017) and `--bg-intensity` (0.4) default alike everywhere. The spec is
/// built directly, not parsed, so every `--seed` a `u64` holds is accepted.
fn flag_campaign(
    args: &Args,
    days: f64,
    heavy_edges: usize,
    sparse_edges: usize,
    runs: usize,
) -> Result<ScenarioCampaign, Box<dyn Error>> {
    Ok(ScenarioCampaign::new(ScenarioSpec {
        name: "campaign".into(),
        description: String::new(),
        seed: args.get_or("seed", 2017)?,
        days: args.get_or("days", days)?,
        topology: TopologySpec::default(),
        traffic: TrafficSpec {
            heavy_edges: args.get_or("heavy-edges", heavy_edges)?,
            sparse_edges: args.get_or("sparse-edges", sparse_edges)?,
            runs: args.get_or("runs", runs)?,
            ..TrafficSpec::default()
        },
        arrivals: ArrivalSpec::default(),
        background: BackgroundSpec {
            intensity: args.get_or("bg-intensity", 0.4)?,
            ..BackgroundSpec::default()
        },
        capacity: Vec::new(),
    })?)
}

fn simulate(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "out",
        "days",
        "heavy-edges",
        "sparse-edges",
        "seed",
        "bg-intensity",
        "runs",
        "trace",
    ])?;
    let out = args.require("out")?.to_string();
    let trace = trace_setup(args);
    let campaign = flag_campaign(args, 30.0, 45, 400, 4)?;
    let (days, runs) = (campaign.spec().days, campaign.spec().traffic.runs.max(1));
    eprintln!("simulating {days} days of traffic in {runs} shard(s) ...");
    let result = campaign.simulate();
    fs::write(&out, records_to_csv(&result.records))?;
    println!("wrote {} records to {out}", result.records.len());
    println!("{}", result.stats.summary());
    if let Some(path) = &trace {
        result.stats.publish(wdt_obs::Registry::global());
        write_trace(path)?;
    }
    Ok(())
}

fn census(args: &Args) -> CmdResult {
    args.ensure_known(&["log", "threshold", "min-transfers"])?;
    let log = load_log(args)?;
    let threshold: f64 = args.get_or("threshold", 0.5)?;
    let min_transfers: usize = args.get_or("min-transfers", 300)?;
    let features = extract_features(&log);
    println!("transfers: {}", features.len());
    for (k, n) in edge_census(&features, &[1, 10, 100, 1000]) {
        println!("edges with >= {k} transfers: {n}");
    }
    let eligible = eligible_edges(&features, threshold, min_transfers);
    println!(
        "edges with >= {min_transfers} transfers above {threshold:.2}*Rmax: {}",
        eligible.len()
    );
    let stats = edge_stats(&features);
    let mut busiest: Vec<_> = stats.values().collect();
    busiest.sort_by_key(|s| std::cmp::Reverse(s.transfers));
    println!("busiest edges:");
    for s in busiest.iter().take(10) {
        println!(
            "  {}: {} transfers, Rmax {:.1} MB/s, {:.1} TB total",
            s.edge,
            s.transfers,
            s.r_max / 1e6,
            s.total_bytes / 1e12
        );
    }
    Ok(())
}

fn parse_kind(args: &Args) -> Result<ModelKind, Box<dyn Error>> {
    match args.get("kind").unwrap_or("gbdt") {
        "linear" => Ok(ModelKind::Linear),
        "gbdt" => Ok(ModelKind::Gbdt),
        other => Err(format!("unknown --kind '{other}' (linear|gbdt)").into()),
    }
}

fn train(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "log",
        "model",
        "src",
        "dst",
        "kind",
        "threshold",
        "tune",
        "max-bins",
        "trace",
    ])?;
    let trace = trace_setup(args);
    let log = load_log(args)?;
    let model_path = args.require("model")?.to_string();
    let threshold: f64 = args.get_or("threshold", 0.5)?;
    let kind = parse_kind(args)?;
    let mut cfg = FitConfig::default();
    let max_bins = args.get_or("max-bins", cfg.gbdt.max_bins)?;
    if !wdt_ml::binning::MAX_BINS.contains(&max_bins) {
        return Err(
            format!("--max-bins {max_bins} is outside {:?}", wdt_ml::binning::MAX_BINS).into()
        );
    }

    let features = extract_features(&log);
    let filtered = threshold_filter(&features, threshold);
    let selected: Vec<TransferFeatures> = match (args.get("src"), args.get("dst")) {
        (Some(s), Some(d)) => {
            let edge = EdgeId::new(EndpointId(s.parse()?), EndpointId(d.parse()?));
            filtered.iter().filter(|f| f.edge == edge).cloned().collect()
        }
        _ => filtered,
    };
    if selected.len() < 20 {
        return Err(
            format!("only {} transfers after filtering — not enough", selected.len()).into()
        );
    }
    let data = build_dataset(&selected, false);
    let (train_set, test_set) = data.split(0.7, 7);

    if args.flag("tune") && kind == ModelKind::Gbdt {
        eprintln!("tuning over {} candidates with 3-fold CV ...", default_grid().len());
        if let Some(results) = tune_gbdt(&train_set, &default_grid(), 3, 7) {
            let best = results[0];
            eprintln!(
                "best: eta {} depth {} rounds {} (cv MdAPE {:.2}%)",
                best.params.eta, best.params.tree.max_depth, best.params.n_rounds, best.cv_mdape
            );
            cfg.gbdt = best.params;
        }
    }
    // --max-bins overrides whatever tuning picked: the grid varies only
    // learning hyperparameters, never the binning.
    cfg.gbdt.max_bins = max_bins;
    let model = FittedModel::fit(&train_set, kind, &cfg)
        .ok_or("model failed to fit (degenerate features?)")?;
    let eval = model.evaluate(&test_set);
    println!(
        "trained on {} transfers, tested on {}: MdAPE {:.2}%, p95 {:.2}%, R2 {:.3}",
        train_set.len(),
        eval.n,
        eval.mdape,
        eval.p95,
        eval.r2
    );
    fs::write(&model_path, model.to_json())?;
    println!("model saved to {model_path}");
    if let Some(path) = &trace {
        write_trace(path)?;
    }
    Ok(())
}

fn predict(args: &Args) -> CmdResult {
    args.ensure_known(&["log", "model"])?;
    let log = load_log(args)?;
    let model = FittedModel::from_json(&fs::read_to_string(args.require("model")?)?)?;
    let features = extract_features(&log);
    let data = build_dataset(&features, false);
    // One contiguous chunk per worker; rows predict independently, so the
    // concatenated chunks equal one whole-log call bit for bit.
    let chunk = data.x.len().div_ceil(rayon::current_num_threads()).max(1);
    let chunks: Vec<&[Vec<f64>]> = data.x.chunks(chunk).collect();
    let preds: Vec<f64> =
        chunks.par_iter().map(|rows| model.predict(rows)).collect::<Vec<_>>().concat();
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    writeln!(out, "id,edge,actual_mbps,predicted_mbps")?;
    for (f, p) in features.iter().zip(&preds) {
        writeln!(out, "{},{},{:.2},{:.2}", f.id.0, f.edge, f.rate / 1e6, p / 1e6)?;
    }
    out.flush()?;
    Ok(())
}

/// The four triage buckets a feature's contribution lands in, by the
/// paper's feature families: competing load (K\*: contending transfer
/// rate in B/s, S\*: competing TCP stream counts), endpoint contention
/// (G\*: GridFTP instances), the transfer's own tuning (C, P), and its
/// shape (N\*).
const TRIAGE_BUCKETS: [&str; 4] = ["competing_load", "endpoint", "tuning", "shape"];

fn triage_bucket(name: &str) -> usize {
    match name.as_bytes().first() {
        Some(b'K' | b'S') => 0,
        Some(b'G') => 1,
        Some(b'C' | b'P') => 2,
        _ => 3,
    }
}

/// Slowdown triage: find the transfers in the slowdown tail (per-edge
/// `Rmax / rate` at or above its p99) and attribute each one's predicted
/// rate to signed per-feature contributions, bucketed by feature family.
fn explain(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "log",
        "scenario",
        "days",
        "heavy-edges",
        "sparse-edges",
        "seed",
        "bg-intensity",
        "runs",
        "model",
        "threshold",
        "top",
        "top-features",
        "out",
    ])?;
    let records: Vec<TransferRecord> = if args.get("log").is_some() {
        load_log(args)?
    } else {
        let campaign = match args.get("scenario") {
            Some(path) => {
                let c = ScenarioCampaign::from_file(Path::new(path))?;
                eprintln!("simulating scenario '{}' ...", c.spec().name);
                c
            }
            None => {
                let c = flag_campaign(args, 3.0, 6, 30, 4)?;
                eprintln!("simulating a {}-day campaign for triage ...", c.spec().days);
                c
            }
        };
        campaign.simulate().records
    };

    let features = extract_features(&records);
    let stats = edge_stats(&features);
    let data = build_dataset(&features, false);

    // Per-transfer slowdown; the tail threshold is the p99.
    let mut slowdowns: Vec<(usize, f64)> = features
        .iter()
        .enumerate()
        .filter_map(|(i, f)| {
            let s = stats.get(&f.edge)?;
            (f.rate > 0.0).then(|| (i, s.r_max / f.rate))
        })
        .collect();
    if slowdowns.is_empty() {
        return Err("log has no transfers with a positive rate to triage".into());
    }
    let mut sorted: Vec<f64> = slowdowns.iter().map(|&(_, s)| s).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let p99 = quantile(&sorted, 0.99);
    slowdowns.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top_n: usize = args.get_or("top", 20usize)?;
    let worst: Vec<(usize, f64)> =
        slowdowns.iter().filter(|&&(_, s)| s >= p99).take(top_n.max(1)).copied().collect();

    // The attribution model: a saved artifact, or a quick GBDT fit on
    // the threshold-filtered log (the same regime `wdt train` uses).
    let threshold: f64 = args.get_or("threshold", 0.5)?;
    let model = match args.get("model") {
        Some(p) => {
            FittedModel::from_json(&fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)?
        }
        None => {
            let filtered = threshold_filter(&features, threshold);
            if filtered.len() < 20 {
                return Err(format!(
                    "only {} transfers after --threshold {threshold} filtering — too few to \
                     fit a triage model (lower --threshold or pass --model)",
                    filtered.len()
                )
                .into());
            }
            let train_set = build_dataset(&filtered, false);
            let mut cfg = FitConfig::default();
            cfg.gbdt.n_rounds = 80;
            FittedModel::fit(&train_set, ModelKind::Gbdt, &cfg)
                .ok_or("triage model failed to fit (degenerate features?)")?
        }
    };
    let kept = model.feature_names();
    let top_features: usize = args.get_or("top-features", 5usize)?;

    use wdt_types::JsonValue as J;
    let mut triage = Vec::new();
    println!(
        "{:<8} {:<12} {:>9} {:>12} {:>12}  dominant bucket, top contributions",
        "id", "edge", "slowdown", "actual MB/s", "pred MB/s"
    );
    for &(i, slowdown) in &worst {
        let f = &features[i];
        let (bias, pred, contribs) = model.explain_row(&data.x[i]);
        debug_assert_eq!(
            contribs.iter().fold(bias, |acc, &c| acc + c).to_bits(),
            pred.to_bits(),
            "attributions must fold to the prediction bitwise"
        );
        let mut buckets = [0.0f64; 4];
        for (name, &c) in kept.iter().zip(&contribs) {
            buckets[triage_bucket(name)] += c;
        }
        // The dominant cause is the bucket pulling the predicted rate
        // down hardest (most-negative contribution sum).
        let dominant = (0..4).min_by(|&a, &b| buckets[a].total_cmp(&buckets[b])).unwrap();
        let mut ranked: Vec<(&String, f64)> = kept.iter().zip(contribs.iter().copied()).collect();
        ranked.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        ranked.truncate(top_features);
        println!(
            "{:<8} {:<12} {:>9.2} {:>12.2} {:>12.2}  {} [{}]",
            f.id.0,
            f.edge.to_string(),
            slowdown,
            f.rate / 1e6,
            pred / 1e6,
            TRIAGE_BUCKETS[dominant],
            ranked
                .iter()
                .map(|(n, c)| format!("{n} {:+.2}", c / 1e6))
                .collect::<Vec<_>>()
                .join(", "),
        );
        triage.push(J::obj([
            ("id", J::Num(f.id.0 as f64)),
            ("edge", J::Str(f.edge.to_string())),
            ("slowdown", J::Num(slowdown)),
            ("actual_mbps", J::Num(f.rate / 1e6)),
            ("predicted_mbps", J::Num(pred / 1e6)),
            ("bias", J::Num(bias)),
            ("prediction", J::Num(pred)),
            (
                "buckets",
                J::Obj(
                    TRIAGE_BUCKETS
                        .iter()
                        .zip(buckets)
                        .map(|(n, v)| (n.to_string(), J::Num(v)))
                        .collect(),
                ),
            ),
            ("dominant", J::Str(TRIAGE_BUCKETS[dominant].to_string())),
            (
                "top",
                J::Arr(
                    ranked
                        .iter()
                        .map(|(n, c)| {
                            J::obj([
                                ("feature", J::Str((*n).clone())),
                                ("contribution", J::Num(*c)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }
    println!(
        "triaged {} of {} transfers at or above the p99 slowdown ({p99:.2}x)",
        worst.len(),
        slowdowns.len()
    );
    if let Some(path) = args.get("out") {
        let report = J::obj([
            ("p99_slowdown", J::Num(p99)),
            ("transfers", J::Num(slowdowns.len() as f64)),
            ("model_features", J::Arr(kept.iter().map(|n| J::Str(n.clone())).collect())),
            ("triage", J::Arr(triage)),
        ]);
        fs::write(path, format!("{report}\n"))?;
        println!("triage report written to {path}");
    }
    Ok(())
}

/// Dump the alert ring as JSON — a running server's (over HTTP) or this
/// process's own.
fn obs_alerts(args: &Args) -> CmdResult {
    args.ensure_known(&["addr", "out"])?;
    let text = match args.get("addr") {
        Some(a) => {
            let addr: SocketAddr = a.parse().map_err(|_| format!("bad --addr '{a}'"))?;
            let mut client = HttpClient::connect(addr)?;
            let (status, body) = client.get("/alerts")?;
            if status != 200 {
                return Err(format!("GET /alerts answered {status}: {body}").into());
            }
            body.trim().to_string()
        }
        None => wdt_obs::AlertSink::global().to_json().to_string(),
    };
    match args.get("out") {
        Some(path) => {
            fs::write(path, format!("{text}\n"))?;
            println!("alerts written to {path}");
        }
        None => println!("{text}"),
    }
    Ok(())
}

fn advise(args: &Args) -> CmdResult {
    args.ensure_known(&["log", "endpoint"])?;
    let log = load_log(args)?;
    let ep: u32 = args.require_as("endpoint")?;
    match recommend_endpoint_concurrency(&log, EndpointId(ep)) {
        Some(a) => {
            println!(
                "endpoint ep{ep}: throughput peaks at ~{:.0} GridFTP instances \
                 (observed up to {:.0}); recommended concurrency cap: {:.0}",
                a.recommended_cap, a.max_observed, a.recommended_cap
            );
        }
        None => {
            println!("endpoint ep{ep}: no rise-then-fall pattern in the log — no cap warranted")
        }
    }
    // Bonus: per-edge model quality summary if the log is rich enough.
    let features = extract_features(&log);
    let mut cfg = PerEdgeConfig { min_transfers: 200, max_edges: 5, ..Default::default() };
    cfg.fit.gbdt.n_rounds = 80;
    let exps = run_per_edge(&features, &cfg);
    if !exps.is_empty() {
        println!("model quality on the busiest edges:");
        for e in &exps {
            println!("  {}: GBDT MdAPE {:.1}% over {} transfers", e.edge, e.xgb.mdape, e.n_samples);
        }
    }
    Ok(())
}

fn check(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "golden",
        "refresh",
        "oracle-cases",
        "seed",
        "days",
        "heavy-edges",
        "sparse-edges",
        "runs",
        "scenario",
        "trace",
    ])?;
    let golden = args.require("golden")?.to_string();
    let trace = trace_setup(args);
    // Runtime invariant checks must be live before the first simulator is
    // built (the gate is read once per process and cached).
    std::env::set_var("WDT_CHECK", "1");

    // 1. Differential oracle on randomized allocation scenarios.
    let cases: usize = args.get_or("oracle-cases", 250)?;
    let report = wdt_check::run_differential(0x5EED_2017, cases);
    println!("oracle: {}", report.summary());
    if !report.failures.is_empty() {
        for f in report.failures.iter().take(10) {
            eprintln!("  {f}");
        }
        return Err(
            format!("differential oracle found {} disagreement(s)", report.failures.len()).into()
        );
    }

    // 2. The check campaign, parallel and serial, with every reallocation
    //    invariant-checked (a violation panics). With --scenario the
    //    campaign under test is the scenario file's instead.
    let scenario = args.get("scenario");
    let campaign = match scenario {
        Some(path) => ScenarioCampaign::from_file(Path::new(path))?,
        None => flag_campaign(args, 2.0, 6, 30, 4)?,
    };
    let spec = campaign.spec();
    let label = match scenario {
        Some(_) => format!("scenario '{}'", spec.name),
        None => "check campaign".into(),
    };
    eprintln!(
        "campaign: simulating {} days of the {label} twice (parallel + serial) \
         with invariant checks on ...",
        spec.days
    );
    let (par, ser) = (campaign.simulate(), campaign.simulate_serial());
    println!("campaign: {} records | {}", par.records.len(), par.stats.summary());
    if par.stats.invariant_checks == 0 {
        return Err("invariant checks never ran — WDT_CHECK gate broken".into());
    }
    if par.records != ser.records {
        return Err("parallel and serial campaign logs differ".into());
    }
    let log_violations = wdt_check::check_records(&par.records);
    if !log_violations.is_empty() {
        for v in log_violations.iter().take(10) {
            eprintln!("  {v}");
        }
        return Err(format!("transfer log violates {} invariant(s)", log_violations.len()).into());
    }
    println!("campaign: serial == parallel, log invariants hold");
    if let Some(path) = &trace {
        par.stats.publish(wdt_obs::Registry::global());
        write_trace(path)?;
    }

    // 3. Golden-trace digest.
    let digest = wdt_check::TraceDigest::from_records(&par.records);
    let header = match scenario {
        Some(_) => format!(
            "scenario: {} (seed={} days={})\n\
             refresh with: wdt check --scenario <file> --golden <this file> --refresh",
            spec.name, spec.seed, spec.days
        ),
        None => format!(
            "spec: seed={} days={} heavy-edges={} sparse-edges={} runs={}\n\
             refresh with: wdt check --golden <this file> --refresh",
            spec.seed,
            spec.days,
            spec.traffic.heavy_edges,
            spec.traffic.sparse_edges,
            spec.traffic.runs
        ),
    };
    if args.flag("refresh") {
        fs::write(&golden, digest.to_text(&header))?;
        println!("golden: wrote digest ({:016x}) to {golden}", digest.hash());
        return Ok(());
    }
    let committed =
        wdt_check::TraceDigest::from_text(&fs::read_to_string(&golden).map_err(|e| {
            format!("cannot read golden digest {golden}: {e} (create it with --refresh)")
        })?)?;
    let diff = committed.diff(&digest);
    if !diff.is_empty() {
        eprintln!("golden digest drift ({} difference(s)):", diff.len());
        for d in diff.iter().take(20) {
            eprintln!("  {d}");
        }
        return Err(format!(
            "campaign digest {:016x} does not match committed {:016x}; \
             if the change is intentional, rerun with --refresh and commit",
            digest.hash(),
            committed.hash()
        )
        .into());
    }
    println!("golden: digest matches ({:016x})", digest.hash());
    Ok(())
}

/// One scenario's sweep result, ready for the table and the JSON report.
struct ScenarioReport {
    name: String,
    description: String,
    records: usize,
    /// Total payload bytes / campaign makespan, in Gb/s.
    agg_throughput_gbps: f64,
    /// Slowdown = per-edge Rmax / transfer rate; the contention tail.
    slowdown_p50: f64,
    slowdown_p95: f64,
    slowdown_p99: f64,
    /// GBDT held-out error; `None` when the log is too small to fit.
    mdape: Option<f64>,
    p95_err: Option<f64>,
    /// Top-5 (feature, importance), descending.
    top_features: Vec<(String, f64)>,
    /// Fig-12 claim: ≥2 of the top-5 features (the top importance group)
    /// are competing-load (K*/S*/G*) rather than tunables or transfer
    /// shape.
    competing_load_dominant: bool,
    digest: wdt_check::TraceDigest,
}

/// A feature name counts as "competing load" if it measures other traffic
/// (K*: contending transfer rate in B/s, S*: competing TCP stream counts,
/// G*: GridFTP instance counts) rather than the transfer's own tunables
/// or shape.
fn is_competing_load(name: &str) -> bool {
    matches!(name.as_bytes().first(), Some(b'K' | b'S' | b'G'))
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Simulate, digest, and model one scenario.
fn run_scenario(c: &ScenarioCampaign, threshold: f64) -> ScenarioReport {
    let out = c.simulate();
    let digest = wdt_check::TraceDigest::from_records(&out.records);

    let total_bytes: f64 = out.records.iter().map(|r| r.bytes.as_f64()).sum();
    let t0 = out.records.iter().map(|r| r.start.as_secs()).fold(f64::INFINITY, f64::min);
    let t1 = out.records.iter().map(|r| r.end.as_secs()).fold(0.0f64, f64::max);
    let makespan = (t1 - t0).max(1.0);
    let agg_throughput_gbps = total_bytes * 8.0 / makespan / 1e9;

    let features = extract_features(&out.records);
    let stats = edge_stats(&features);
    let mut slowdowns: Vec<f64> = features
        .iter()
        .filter_map(|f| {
            let s = stats.get(&f.edge)?;
            (f.rate > 0.0).then(|| s.r_max / f.rate)
        })
        .collect();
    slowdowns.sort_by(|a, b| a.total_cmp(b));

    let filtered = threshold_filter(&features, threshold);
    let (mdape, p95_err, top_features) = if filtered.len() >= 60 {
        let data = build_dataset(&filtered, false);
        let (train_set, test_set) = data.split(0.7, 7);
        let mut cfg = FitConfig::default();
        cfg.gbdt.n_rounds = 80;
        match FittedModel::fit(&train_set, ModelKind::Gbdt, &cfg) {
            Some(model) => {
                let eval = model.evaluate(&test_set);
                let mut sig = model.significance();
                sig.sort_by(|a, b| b.1.total_cmp(&a.1));
                sig.truncate(5);
                (Some(eval.mdape), Some(eval.p95), sig)
            }
            None => (None, None, Vec::new()),
        }
    } else {
        (None, None, Vec::new())
    };
    let competing_load_dominant =
        top_features.iter().take(5).filter(|(n, _)| is_competing_load(n)).count() >= 2;

    ScenarioReport {
        name: c.spec().name.clone(),
        description: c.spec().description.clone(),
        records: out.records.len(),
        agg_throughput_gbps,
        slowdown_p50: quantile(&slowdowns, 0.50),
        slowdown_p95: quantile(&slowdowns, 0.95),
        slowdown_p99: quantile(&slowdowns, 0.99),
        mdape,
        p95_err,
        top_features,
        competing_load_dominant,
        digest,
    }
}

fn scenario_report_json(reports: &[ScenarioReport]) -> wdt_types::JsonValue {
    use wdt_types::JsonValue as J;
    let arr = reports
        .iter()
        .map(|r| {
            J::obj([
                ("name", J::Str(r.name.clone())),
                ("description", J::Str(r.description.clone())),
                ("records", J::Num(r.records as f64)),
                ("agg_throughput_gbps", J::Num(r.agg_throughput_gbps)),
                ("slowdown_p50", J::Num(r.slowdown_p50)),
                ("slowdown_p95", J::Num(r.slowdown_p95)),
                ("slowdown_p99", J::Num(r.slowdown_p99)),
                ("mdape", r.mdape.map(J::Num).unwrap_or(J::Null)),
                ("p95_err", r.p95_err.map(J::Num).unwrap_or(J::Null)),
                (
                    "top_features",
                    J::Arr(
                        r.top_features
                            .iter()
                            .map(|(n, v)| {
                                J::obj([("feature", J::Str(n.clone())), ("importance", J::Num(*v))])
                            })
                            .collect(),
                    ),
                ),
                ("competing_load_dominant", J::Bool(r.competing_load_dominant)),
                ("digest", J::Str(format!("{:016x}", r.digest.hash()))),
            ])
        })
        .collect();
    J::obj([("scenarios", J::Arr(arr))])
}

fn scenarios(args: &Args) -> CmdResult {
    args.ensure_known(&["dir", "golden-dir", "refresh", "report", "threshold", "trace"])?;
    let dir = args.require("dir")?.to_string();
    let trace = trace_setup(args);
    let threshold: f64 = args.get_or("threshold", 0.5)?;

    // Collect and strictly parse every scenario up front: a typo anywhere
    // in the directory fails the sweep before any simulation starts.
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{dir}: no *.json scenario files").into());
    }
    let campaigns: Vec<ScenarioCampaign> =
        files.iter().map(|p| ScenarioCampaign::from_file(p)).collect::<Result<_, _>>()?;

    eprintln!("sweeping {} scenario(s) from {dir} in parallel ...", campaigns.len());
    let t0 = std::time::Instant::now();
    let reports: Vec<ScenarioReport> =
        campaigns.par_iter().map(|c| run_scenario(c, threshold)).collect();
    eprintln!("sweep finished in {:.1}s", t0.elapsed().as_secs_f64());

    // Golden digests: verify (or refresh) each scenario's committed trace.
    let mut drifted = Vec::new();
    if let Some(gdir) = args.get("golden-dir") {
        fs::create_dir_all(gdir)?;
        for r in &reports {
            let path = Path::new(gdir).join(format!("{}.digest", r.name));
            let header = format!(
                "scenario: {}\n\
                 refresh with: wdt scenarios --dir <dir> --golden-dir {gdir} --refresh",
                r.name
            );
            if args.flag("refresh") {
                fs::write(&path, r.digest.to_text(&header))?;
                println!("golden: wrote {} ({:016x})", path.display(), r.digest.hash());
                continue;
            }
            let committed =
                wdt_check::TraceDigest::from_text(&fs::read_to_string(&path).map_err(|e| {
                    format!(
                        "cannot read golden digest {}: {e} (create it with --refresh)",
                        path.display()
                    )
                })?)
                .map_err(|e| format!("golden digest {}: {e}", path.display()))?;
            let diff = committed.diff(&r.digest);
            if !diff.is_empty() {
                eprintln!("golden digest drift in '{}' ({} difference(s)):", r.name, diff.len());
                for d in diff.iter().take(10) {
                    eprintln!("  {d}");
                }
                drifted.push(r.name.clone());
            }
        }
    }

    // The per-scenario table.
    println!(
        "{:<20} {:>8} {:>10} {:>8} {:>8} {:>8} {:>7}  top features",
        "scenario", "records", "agg Gb/s", "sd p50", "sd p95", "sd p99", "MdAPE%"
    );
    for r in &reports {
        let tops: Vec<&str> = r.top_features.iter().map(|(n, _)| n.as_str()).collect();
        println!(
            "{:<20} {:>8} {:>10.2} {:>8.2} {:>8.2} {:>8.2} {:>7}  {}{}",
            r.name,
            r.records,
            r.agg_throughput_gbps,
            r.slowdown_p50,
            r.slowdown_p95,
            r.slowdown_p99,
            r.mdape.map(|m| format!("{m:.1}")).unwrap_or_else(|| "-".into()),
            tops.join(","),
            if r.competing_load_dominant { " [competing-load dominant]" } else { "" },
        );
    }
    let holding = reports.iter().filter(|r| r.competing_load_dominant).count();
    println!(
        "Fig-12 regime robustness: competing-load features dominate on {holding}/{} scenario(s)",
        reports.len()
    );

    if let Some(path) = args.get("report") {
        fs::write(path, format!("{}\n", scenario_report_json(&reports)))?;
        println!("report written to {path}");
    }
    if let Some(path) = &trace {
        write_trace(path)?;
    }
    if !drifted.is_empty() {
        return Err(format!(
            "{} scenario(s) drifted from their golden digests: {}; \
             if intentional, rerun with --refresh and commit",
            drifted.len(),
            drifted.join(", ")
        )
        .into());
    }
    Ok(())
}

fn obs(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "check-trace",
        "trace",
        "out",
        "days",
        "heavy-edges",
        "sparse-edges",
        "seed",
        "runs",
    ])?;
    // Validation mode: structural check of an existing trace file (CI
    // runs this over artifacts exported by `--trace`).
    if let Some(path) = args.get("check-trace") {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
        let s = wdt_obs::validate_chrome_trace(&text)
            .map_err(|e| format!("{path}: invalid Chrome trace: {e}"))?;
        println!(
            "{path}: valid Chrome trace — {} events, {} spans, {} tracks",
            s.events, s.spans, s.tracks
        );
        return Ok(());
    }
    // Capture mode: trace a short campaign and dump the flight recorder
    // plus a metrics-registry snapshot. Detail level: this command exists
    // to show what the instrumentation can see, so per-event spans are on.
    wdt_obs::set_detail(true);
    wdt_obs::install_panic_hook();
    let campaign = flag_campaign(args, 1.0, 4, 12, 2)?;
    let (days, runs) = (campaign.spec().days, campaign.spec().traffic.runs.max(1));
    eprintln!("obs: tracing a {days}-day, {runs}-shard campaign ...");
    let result = campaign.simulate();
    result.stats.publish(wdt_obs::Registry::global());
    println!("{}", result.stats.summary());
    // Post-mortem first: `write_trace` clears the flight recorder.
    let report = wdt_obs::postmortem_json();
    match args.get("out") {
        Some(out) => {
            fs::write(out, format!("{report}\n"))?;
            println!("obs: flight recorder + registry snapshot written to {out}");
        }
        None => println!("{report}"),
    }
    if let Some(path) = args.get("trace") {
        write_trace(path)?;
    } else {
        // `set_enabled(false)` also drops the detail level.
        wdt_obs::set_enabled(false);
        wdt_obs::clear();
    }
    Ok(())
}

/// Set by SIGINT/SIGTERM so `wdt serve` can drain gracefully. Registered
/// through the raw libc `signal` shim below — the vendored-dependency
/// policy rules out a signal-handling crate, and std exposes nothing.
static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SIGINT = 2, SIGTERM = 15 (POSIX).
    unsafe {
        signal(2, on_signal);
        signal(15, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn serve(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "model-dir",
        "port",
        "acceptors",
        "deadline-ms",
        "max-batch",
        "flush-us",
        "queue-cap",
        "explain-top",
    ])?;
    let dir = args.require("model-dir")?.to_string();
    let d = ServeConfig::default();
    let cfg = ServeConfig {
        port: args.get_or("port", 8191)?,
        acceptors: args.get_or("acceptors", d.acceptors)?,
        request_deadline: Duration::from_millis(
            args.get_or("deadline-ms", d.request_deadline.as_millis().try_into()?)?,
        ),
        batch: BatchConfig {
            max_batch: args.get_or("max-batch", d.batch.max_batch)?,
            flush: Duration::from_micros(
                args.get_or("flush-us", d.batch.flush.as_micros().try_into()?)?,
            ),
            queue_cap: args.get_or("queue-cap", d.batch.queue_cap)?,
            ..d.batch
        },
        explain_top: args.get_or("explain-top", d.explain_top)?,
    };
    let registry = Arc::new(ModelRegistry::open(dir, ServeSchema::prediction())?);
    let server = EventLoopServer::start(registry, cfg)?;
    println!(
        "serving model '{}' ({} versions on disk) at http://{}",
        server.registry().current().version,
        server.registry().versions()?.len(),
        server.addr(),
    );
    println!(
        "POST /predict | POST /explain | GET /healthz | GET /metrics[.prom] | GET /alerts | \
         POST /reload | POST /shutdown"
    );
    install_signal_handlers();
    while !server.stopping() && !SIGNALED.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("draining in-flight requests ...");
    server.shutdown();
    Ok(())
}

fn loadgen(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "addr",
        "log",
        "requests",
        "mode",
        "concurrency",
        "rate",
        "connections",
        "pipeline",
        "warmup",
        "min-rps",
        "out",
    ])?;
    let addr: SocketAddr = args.require_as("addr")?;
    let mode = match args.get("mode").unwrap_or("closed") {
        "closed" => LoadgenMode::Closed { concurrency: args.get_or("concurrency", 8)? },
        "open" => LoadgenMode::Open {
            rate_rps: args.get_or("rate", 5000.0)?,
            connections: args.get_or("connections", 4)?,
        },
        other => return Err(format!("unknown --mode '{other}' (closed|open)").into()),
    };
    let log = load_log(args)?;
    let features = extract_features(&log);
    let data = build_dataset(&features, false);
    if data.x.is_empty() {
        return Err("log has no transfers to replay".into());
    }
    let cfg = LoadgenConfig {
        addr,
        requests: args.get_or("requests", 10_000)?,
        mode,
        pipeline: args.get_or("pipeline", 1usize)?.max(1),
        warmup: args.get_or("warmup", 0usize)?,
    };
    eprintln!(
        "replaying {} feature vectors as {} requests against {addr} ...",
        data.x.len(),
        cfg.requests
    );
    let report = run_loadgen(&cfg, &data.names, &data.x)?;
    println!("{}", report.summary());
    if let Some(out) = args.get("out") {
        fs::write(out, format!("{}\n", report.to_json()))?;
        println!("report written to {out}");
    }
    if report.errors > 0 {
        return Err(format!("{} requests failed outright", report.errors).into());
    }
    if let Some(floor) = args.get("min-rps") {
        let floor: f64 = floor.parse().map_err(|_| format!("bad --min-rps '{floor}'"))?;
        if report.throughput_rps < floor {
            return Err(format!(
                "throughput {:.2} req/s is below the --min-rps floor of {floor:.2}",
                report.throughput_rps
            )
            .into());
        }
    }
    Ok(())
}

fn ingest(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "from-csv",
        "follow",
        "poll-ms",
        "days",
        "heavy-edges",
        "sparse-edges",
        "seed",
        "bg-intensity",
        "runs",
        "repeat",
        "drift-bg",
        "drift-days",
        "model-dir",
        "store-dir",
        "window",
        "chunk",
        "queue",
        "drop-newest",
        "kind",
        "refit-every",
        "min-train",
        "drift-threshold",
        "drift-patience",
        "notify",
        "golden",
        "refresh",
        "max-rss-mb",
        "expect-min-records",
        "expect-swaps",
        "alerts-out",
        "trace",
    ])?;
    let trace = trace_setup(args);
    let golden = args.get("golden").map(String::from);
    if golden.is_some() && args.get("from-csv").is_some() {
        return Err("--golden needs the simulator source (a CSV has no committed digest)".into());
    }
    let notify: Option<SocketAddr> = match args.get("notify") {
        Some(a) => Some(a.parse().map_err(|_| format!("bad --notify '{a}'"))?),
        None => None,
    };
    let window: usize = args.get_or("window", 50_000)?;
    let retrain = RetrainConfig {
        kind: parse_kind(args)?,
        refit_every: args.get_or("refit-every", 20_000)?,
        min_train: args.get_or("min-train", 500)?,
        drift_threshold_pct: args.get_or("drift-threshold", 35.0)?,
        drift_patience: args.get_or("drift-patience", 3)?,
        ..Default::default()
    };
    let cfg = IngestConfig {
        queue_cap: args.get_or("queue", 4_096)?,
        backpressure: if args.flag("drop-newest") {
            Backpressure::DropNewest
        } else {
            Backpressure::Block
        },
        window,
        chunk: args.get_or("chunk", 2_000)?,
        retrain: retrain.clone(),
    };
    let store: Box<dyn LogStore> = match args.get("store-dir") {
        Some(dir) => {
            let s = SegmentStore::open(dir)?;
            let rec = s.recovery();
            if rec.records > 0 || rec.truncated_bytes > 0 {
                eprintln!(
                    "store: recovered {} records from {dir} ({} torn byte(s) truncated)",
                    rec.records, rec.truncated_bytes
                );
            }
            Box::new(s)
        }
        None => Box::new(MemoryRing::new(window)),
    };
    let driver = RetrainDriver::new(retrain, args.get("model-dir").map(PathBuf::from))?;
    let on_swap: Box<dyn FnMut(&SwapEvent) + Send> = Box::new(move |ev| {
        eprintln!(
            "swap: {} trained on {} records in {:.0} ms{}",
            ev.version.as_deref().unwrap_or("<in-process>"),
            ev.trained_on,
            ev.latency_ms,
            if ev.drift_triggered { " [drift-forced]" } else { "" }
        );
        if let Some(addr) = notify {
            match HttpClient::connect(addr).and_then(|mut c| c.post("/reload", "{}")) {
                Ok((200, body)) => eprintln!("notify: {addr} reloaded — {}", body.trim()),
                Ok((code, body)) => eprintln!("notify: {addr} answered {code}: {}", body.trim()),
                Err(e) => eprintln!("notify: {addr}: {e}"),
            }
        }
    });
    let handle = IngestPipeline::start(cfg, store, driver, Some(on_swap));

    // Feed the pipeline from whichever source was asked for.
    let mut builder = golden.as_ref().map(|_| DigestBuilder::new());
    let mut golden_header = String::new();
    let offered: u64;
    if let Some(csv) = args.get("from-csv") {
        // SIGINT/SIGTERM stop a --follow tail gracefully: drain what's
        // there, then let the processor finish its window.
        install_signal_handlers();
        let poll = Duration::from_millis(args.get_or("poll-ms", 50u64)?);
        let sender = handle.sender();
        let follow = args.flag("follow");
        if follow {
            eprintln!("tailing {csv} (SIGINT to stop) ...");
        }
        let stats = tail_csv(Path::new(csv), &sender, follow, poll, &SIGNALED)
            .map_err(|e| format!("{csv}: {e}"))?;
        drop(sender);
        offered = stats.records + stats.shed;
    } else {
        let spec = flag_campaign(args, 10.0, 6, 30, 4)?.spec().clone();
        let count = std::cell::Cell::new(0u64);
        let mut sink = |r: wdt_types::TransferRecord| {
            if let Some(b) = builder.as_mut() {
                b.push(&r);
            }
            count.set(count.get() + 1);
            handle.offer(r);
        };
        // --repeat N streams N campaigns with consecutive seeds through
        // the one pipeline: soak-scale record counts without soak-scale
        // simulated calendar time (the workload's multi-TB size tail can
        // make one very long campaign grind through months of simulated
        // background events; N medium campaigns sidestep that while
        // keeping the stream fully deterministic).
        let repeat: usize = args.get_or("repeat", 1usize)?;
        let repeat = repeat.max(1);
        eprintln!(
            "streaming {repeat} × {}-day campaign(s) ({} shard(s) each, serial for \
             bounded memory) ...",
            spec.days,
            spec.traffic.runs.max(1)
        );
        for rep in 0..repeat {
            let seed = spec.seed + rep as u64;
            ScenarioCampaign::new(ScenarioSpec { seed, ..spec.clone() })?.stream_into(&mut sink);
            if repeat > 1 {
                eprintln!("  campaign {}/{repeat} done ({} records so far)", rep + 1, count.get());
            }
        }
        // Optional drift phase: the same fleet, different background load.
        // Background flows never appear in the record log, so the rate
        // shift is invisible to the input features — a hidden-variable
        // drift only retraining can absorb.
        if let Some(bg) = args.get("drift-bg") {
            let drift = ScenarioSpec {
                seed: spec.seed ^ 0xD21F,
                days: args.get_or("drift-days", spec.days)?,
                background: BackgroundSpec {
                    intensity: bg.parse().map_err(|_| format!("bad --drift-bg '{bg}'"))?,
                    ..spec.background.clone()
                },
                ..spec.clone()
            };
            eprintln!(
                "drift phase: {} more days at background intensity {} ...",
                drift.days, drift.background.intensity
            );
            ScenarioCampaign::new(drift)?.stream_into(&mut sink);
        }
        golden_header = format!(
            "spec: seed={} days={} heavy-edges={} sparse-edges={} runs={} repeat={repeat} \
             drift-bg={}\n\
             refresh with: wdt ingest <same flags> --golden <this file> --refresh",
            spec.seed,
            spec.days,
            spec.traffic.heavy_edges,
            spec.traffic.sparse_edges,
            spec.traffic.runs,
            args.get("drift-bg").unwrap_or("-")
        );
        offered = count.get();
    }

    let report = handle.finish()?;
    println!(
        "ingested {} of {} offered records ({} shed), window evicted {}",
        report.ingested, offered, report.shed, report.window_evicted
    );
    println!(
        "store: {} records, {:.1} MiB | refits: {} ({} drift-forced)",
        report.store_records,
        report.store_bytes as f64 / (1u64 << 20) as f64,
        report.refits,
        report.drift_refits
    );
    if report.rolling_mdape.is_finite() {
        println!(
            "rolling MdAPE: deployed {:.2}% vs frozen-first {:.2}%",
            report.rolling_mdape, report.stale_mdape
        );
    }
    for ev in &report.swaps {
        if let Some(v) = &ev.version {
            println!(
                "  {v}: {} records, {:.0} ms{}",
                ev.trained_on,
                ev.latency_ms,
                if ev.drift_triggered { " [drift]" } else { "" }
            );
        }
    }

    // The alert ring carries the run's drift and model-swap events;
    // written before the gates so a failed soak still leaves the
    // artifact for postmortem.
    if let Some(path) = args.get("alerts-out") {
        let sink = wdt_obs::AlertSink::global();
        fs::write(path, format!("{}\n", sink.to_json()))?;
        println!("alerts: ring snapshot written to {path} ({} raised)", sink.raised());
    }

    // Soak gates, in check order: content first, then resources.
    if let Some(golden) = &golden {
        let digest = builder.take().expect("sim source").finish();
        if args.flag("refresh") {
            fs::write(golden, digest.to_text(&golden_header))?;
            println!("golden: wrote digest ({:016x}) to {golden}", digest.hash());
        } else {
            let committed =
                wdt_check::TraceDigest::from_text(&fs::read_to_string(golden).map_err(|e| {
                    format!("cannot read golden digest {golden}: {e} (create it with --refresh)")
                })?)?;
            let diff = committed.diff(&digest);
            if !diff.is_empty() {
                eprintln!("golden digest drift ({} difference(s)):", diff.len());
                for d in diff.iter().take(20) {
                    eprintln!("  {d}");
                }
                return Err(format!(
                    "streamed digest {:016x} does not match committed {:016x}",
                    digest.hash(),
                    committed.hash()
                )
                .into());
            }
            println!(
                "golden: digest matches ({:016x}) — the stream shed and altered nothing",
                digest.hash()
            );
        }
    }
    let min_records: u64 = args.get_or("expect-min-records", 0u64)?;
    if report.ingested < min_records {
        return Err(format!(
            "only {} records ingested; --expect-min-records {min_records}",
            report.ingested
        )
        .into());
    }
    let min_swaps: u64 = args.get_or("expect-swaps", 0u64)?;
    if report.refits < min_swaps {
        return Err(format!(
            "only {} refit(s) completed; --expect-swaps {min_swaps}",
            report.refits
        )
        .into());
    }
    if let Some(cap) = args.get("max-rss-mb") {
        let cap: f64 = cap.parse().map_err(|_| format!("bad --max-rss-mb '{cap}'"))?;
        match peak_rss_mb() {
            Some(mb) => {
                println!("peak RSS: {mb:.1} MiB (cap {cap:.0} MiB)");
                if mb > cap {
                    return Err(
                        format!("peak RSS {mb:.1} MiB exceeds --max-rss-mb {cap:.0}").into()
                    );
                }
            }
            None => eprintln!("--max-rss-mb ignored: VmHWM not readable on this platform"),
        }
    }
    if let Some(path) = &trace {
        write_trace(path)?;
    }
    Ok(())
}

/// Peak resident set size in MiB, from Linux `/proc/self/status` VmHWM.
/// `None` where procfs is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use wdt_types::records_from_csv;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).expect("parse")
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("wdt-cli-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn simulate_census_train_predict_round_trip() {
        let log_path = tmp("smoke.csv");
        let model_path = tmp("smoke-model.json");
        run(&parse(&format!(
            "simulate --out {} --days 3 --heavy-edges 3 --sparse-edges 10 --seed 5",
            log_path.display()
        )))
        .expect("simulate");
        assert!(log_path.exists());

        run(&parse(&format!("census --log {}", log_path.display()))).expect("census");

        run(&parse(&format!(
            "train --log {} --model {} --threshold 0.0",
            log_path.display(),
            model_path.display()
        )))
        .expect("train");
        assert!(model_path.exists());

        run(&parse(&format!(
            "predict --log {} --model {}",
            log_path.display(),
            model_path.display()
        )))
        .expect("predict");
    }

    #[test]
    fn train_accepts_engine_flags() {
        let log_path = tmp("engine-flags.csv");
        let model_path = tmp("engine-flags-model.json");
        run(&parse(&format!(
            "simulate --out {} --days 3 --heavy-edges 3 --sparse-edges 10 --seed 6",
            log_path.display()
        )))
        .expect("simulate");
        run(&parse(&format!(
            "train --log {} --model {} --threshold 0.0 --max-bins 64",
            log_path.display(),
            model_path.display()
        )))
        .expect("train with --max-bins");
        assert!(model_path.exists());
        for bad in ["many", "1", "65537"] {
            let err = run(&parse(&format!(
                "train --log {} --model {} --threshold 0.0 --max-bins {bad}",
                log_path.display(),
                model_path.display()
            )))
            .unwrap_err()
            .to_string();
            assert!(err.contains("max-bins"), "{bad}: {err}");
        }
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let err = run(&parse("frobnicate")).unwrap_err().to_string();
        assert!(err.contains("unknown command"));
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn train_requires_model_path() {
        let log_path = tmp("needs-model.csv");
        std::fs::write(&log_path, wdt_types::CSV_HEADER).expect("write");
        let err =
            run(&parse(&format!("train --log {}", log_path.display()))).unwrap_err().to_string();
        assert!(err.contains("--model") || err.contains("model"));
    }

    #[test]
    fn train_rejects_tiny_logs() {
        let log_path = tmp("tiny.csv");
        std::fs::write(
            &log_path,
            format!("{}\n0,0,1,0,10,1000,1,1,1,1,0\n", wdt_types::CSV_HEADER),
        )
        .expect("write");
        let model_path = tmp("tiny-model.json");
        let err = run(&parse(&format!(
            "train --log {} --model {} --threshold 0.0",
            log_path.display(),
            model_path.display()
        )))
        .unwrap_err()
        .to_string();
        assert!(err.contains("not enough"), "{err}");
    }

    #[test]
    fn help_prints() {
        run(&parse("help")).expect("help");
        assert!(usage().contains("simulate"));
        assert!(usage().contains("serve"));
        assert!(usage().contains("loadgen"));
        assert!(usage().contains("obs"));
        assert!(usage().contains("obs alerts"));
        assert!(usage().contains("explain"));
        assert!(usage().contains("ingest"));
        for flag in [
            "--model-dir",
            "--port",
            "--max-batch",
            "--flush-us",
            "--queue-cap",
            "--trace",
            "--warmup",
            "--min-rps",
            "--from-csv",
            "--store-dir",
            "--drift-bg",
            "--refit-every",
            "--expect-swaps",
            "--max-rss-mb",
            "--notify",
            "--explain-top",
            "--alerts-out",
            "--top-features",
        ] {
            assert!(usage().contains(flag), "usage must document {flag}");
        }
        // Layout: command lines start with five spaces; their flag and
        // detail lines start at column 16, and the lines continuing a
        // parenthesised note (a detail line opening with `(`) at 17.
        let text = usage();
        assert!(text.contains("\n     simulate  generate a synthetic fleet"));
        assert!(text.contains("\n               --out FILE [--days N=30]"));
        let body = text.lines().skip_while(|l| *l != "COMMANDS").skip(1);
        let mut commands = Vec::new();
        let mut depth = 0i32;
        for line in body.take_while(|l| !l.is_empty()) {
            let indent = line.len() - line.trim_start().len();
            let want: &[usize] = if depth > 0 { &[16] } else { &[5, 15] };
            assert!(want.contains(&indent), "indent {indent} for {line:?}, want {want:?}");
            if indent == 5 {
                commands.push(line[5..15].trim_end());
            }
            if depth > 0 || line.trim_start().starts_with('(') {
                depth += line.matches('(').count() as i32 - line.matches(')').count() as i32;
            }
        }
        assert_eq!(depth, 0, "unbalanced note");
        let names = ["simulate", "census", "train", "predict", "explain", "advise", "serve"];
        let more = ["loadgen", "ingest", "check", "scenarios", "obs", "obs alerts", "help"];
        assert_eq!(commands, [&names[..], &more[..]].concat());
    }

    #[test]
    fn serve_rejects_the_removed_front_end_flags() {
        for (cmd, flag) in [
            ("serve --model-dir unused --frontend eventloop", "--frontend"),
            ("serve --model-dir unused --workers 8", "--workers"),
            ("serve --model-dir unused --cores 0", "--cores"),
            ("loadgen --addr 127.0.0.1:1 --log unused --cores 4", "--cores"),
            ("train --log unused --model unused --exact", "--exact"),
        ] {
            let err = run(&parse(cmd)).unwrap_err().to_string();
            assert!(err.contains(flag), "{cmd} -> {err}");
            assert!(!usage().contains(flag), "usage still lists {flag}");
        }
    }

    #[test]
    fn obs_traces_a_campaign_and_validates_it() {
        let trace = tmp("obs-trace.json");
        let report_path = tmp("obs-report.json");
        run(&parse(&format!(
            "obs --days 1 --heavy-edges 3 --sparse-edges 8 --runs 2 --seed 11 \
             --trace {} --out {}",
            trace.display(),
            report_path.display()
        )))
        .expect("obs");
        // The exported artifact re-validates from disk (CI's check).
        run(&parse(&format!("obs --check-trace {}", trace.display()))).expect("check-trace");
        let report = wdt_types::JsonValue::parse(&std::fs::read_to_string(&report_path).unwrap())
            .expect("report parses");
        assert!(report.field("flight_recorder").is_ok());
        let counters = report.field("metrics").unwrap().field("counters").unwrap();
        assert!(counters.field("sim.events").unwrap().as_usize().unwrap() > 0);
        // Garbage is rejected with a named file.
        let junk = tmp("not-a-trace.json");
        std::fs::write(&junk, "{\"nope\": 1}").unwrap();
        let err =
            run(&parse(&format!("obs --check-trace {}", junk.display()))).unwrap_err().to_string();
        assert!(err.contains("invalid Chrome trace"), "{err}");
    }

    #[test]
    fn scenarios_sweep_refresh_verify_and_drift() {
        let dir = tmp("scenario-sweep");
        let gdir = tmp("scenario-sweep-golden");
        let report = tmp("scenario-sweep-report.json");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&gdir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("tiny-base.json"),
            r#"{"name": "tiny-base", "days": 1.0,
                "traffic": {"heavy_edges": 3, "sparse_edges": 8, "runs": 2}}"#,
        )
        .unwrap();
        std::fs::write(
            dir.join("tiny-deg.json"),
            r#"{"name": "tiny-deg", "days": 1.0,
                "traffic": {"heavy_edges": 3, "sparse_edges": 8, "runs": 2},
                "capacity": [{"kind": "degradation", "endpoints": [0, 1],
                              "start_day": 0.25, "end_day": 0.75, "factor": 0.3}]}"#,
        )
        .unwrap();
        let base = format!(
            "scenarios --dir {} --golden-dir {} --report {}",
            dir.display(),
            gdir.display(),
            report.display()
        );
        run(&parse(&format!("{base} --refresh"))).expect("refresh sweep");
        assert!(gdir.join("tiny-base.digest").exists());
        assert!(gdir.join("tiny-deg.digest").exists());
        // Verify pass: digests reproduce.
        run(&parse(&base)).expect("verify sweep");
        let rep = wdt_types::JsonValue::parse(&std::fs::read_to_string(&report).unwrap())
            .expect("report parses");
        let arr = rep.field("scenarios").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        for s in arr {
            assert!(s.field("records").unwrap().as_usize().unwrap() > 20);
            assert!(s.field("slowdown_p95").unwrap().as_f64().unwrap() >= 1.0);
        }
        // Drift: corrupt one golden, the sweep must fail naming it.
        let path = gdir.join("tiny-deg.digest");
        let text = std::fs::read_to_string(&path).unwrap().replace("\ntotal ", "\ntotal 9");
        std::fs::write(&path, text).unwrap();
        let err = run(&parse(&base)).unwrap_err().to_string();
        assert!(err.contains("tiny-deg"), "{err}");
    }

    #[test]
    fn scenarios_rejects_bad_file_naming_field() {
        let dir = tmp("scenario-badfield");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("broken.json"),
            r#"{"name": "broken", "days": 1.0, "topology": {"sitez": 9}}"#,
        )
        .unwrap();
        let err =
            run(&parse(&format!("scenarios --dir {}", dir.display()))).unwrap_err().to_string();
        assert!(err.contains("broken.json") && err.contains("sitez"), "{err}");
    }

    #[test]
    fn unknown_flags_error_naming_the_flag() {
        for cmd in [
            "simulate --out x.csv --dayz 3",
            "census --log x.csv --treshold 0.5",
            "train --log x.csv --model m.json --tuen",
            "predict --log x.csv --modell m.json",
            "advise --log x.csv --end-point 3",
            "serve --model-dir m --prot 80",
            "loadgen --addr 127.0.0.1:1 --log x.csv --connectoins 4",
            "obs --check-trase t.json",
            "ingest --from-csv x.csv --folow",
            "explain --log x.csv --topp 3",
            "obs-alerts --adr 127.0.0.1:1",
            "scenarios --dir s --goldendir g",
            "check --golden g.digest --scenari s.json",
            // --trace is only understood by simulate/train/check/obs;
            // elsewhere it must be rejected by name, not ignored.
            "census --log x.csv --trace t.json",
            "predict --log x.csv --model m.json --trace t.json",
            "serve --model-dir m --trace t.json",
        ] {
            let err = run(&parse(cmd)).unwrap_err().to_string();
            let bad = cmd.split("--").last().unwrap().split_whitespace().next().unwrap();
            assert!(err.contains(&format!("--{bad}")), "{cmd} -> {err}");
        }
    }

    #[test]
    fn ingest_streams_a_campaign_with_refits_and_golden_digest() {
        let model_dir = tmp("ingest-models");
        let store_dir = tmp("ingest-store");
        let golden = tmp("ingest.digest");
        let _ = std::fs::remove_dir_all(&model_dir);
        let _ = std::fs::remove_dir_all(&store_dir);
        let base = format!(
            "ingest --days 3 --heavy-edges 3 --sparse-edges 10 --seed 5 --runs 2 \
             --kind linear --window 3000 --chunk 300 --refit-every 300 --min-train 300 \
             --model-dir {} --store-dir {} --golden {}",
            model_dir.display(),
            store_dir.display(),
            golden.display()
        );
        run(&parse(&format!("{base} --refresh"))).expect("refresh run");
        assert!(golden.exists());
        // Second run: recovered store, continued version numbering, and the
        // digest of the re-streamed campaign must match the committed one.
        run(&parse(&format!("{base} --expect-swaps 2 --expect-min-records 800 --max-rss-mb 4096")))
            .expect("verify run");
        assert!(model_dir.join("v000001.json").exists());
        assert!(store_dir.join("seg-000000.log").exists());
        // A different seed streams a different log: the digest gate fails.
        let err = run(&parse(&base.replace("--seed 5", "--seed 6"))).unwrap_err().to_string();
        assert!(err.contains("does not match"), "{err}");
        // An unmeetable expectation fails the soak.
        let err = run(&parse(&format!("{base} --expect-swaps 999"))).unwrap_err().to_string();
        assert!(err.contains("--expect-swaps"), "{err}");
    }

    #[test]
    fn ingest_reads_a_csv_in_batch_mode() {
        let log_path = tmp("ingest-batch.csv");
        run(&parse(&format!(
            "simulate --out {} --days 3 --heavy-edges 3 --sparse-edges 10 --seed 8",
            log_path.display()
        )))
        .expect("simulate");
        run(&parse(&format!(
            "ingest --from-csv {} --kind linear --window 2000 --chunk 250 \
             --refit-every 800 --min-train 250 --expect-swaps 1",
            log_path.display()
        )))
        .expect("ingest from csv");
        // --golden is a simulator-source check; with a CSV it must refuse.
        let err =
            run(&parse(&format!("ingest --from-csv {} --golden g.digest", log_path.display())))
                .unwrap_err()
                .to_string();
        assert!(err.contains("--golden") || err.contains("golden"), "{err}");
    }

    #[test]
    fn explain_triages_the_slowdown_tail_with_bucketed_attributions() {
        let log_path = tmp("explain-triage.csv");
        let out = tmp("explain-triage.json");
        run(&parse(&format!(
            "simulate --out {} --days 3 --heavy-edges 3 --sparse-edges 10 --seed 5",
            log_path.display()
        )))
        .expect("simulate");
        run(&parse(&format!(
            "explain --log {} --threshold 0.0 --top 5 --top-features 3 --out {}",
            log_path.display(),
            out.display()
        )))
        .expect("explain");
        let report = wdt_types::JsonValue::parse(&std::fs::read_to_string(&out).unwrap())
            .expect("triage report parses");
        assert!(report.field("p99_slowdown").unwrap().as_f64().unwrap() >= 1.0);
        let triage = report.field("triage").unwrap().as_arr().unwrap();
        assert!(!triage.is_empty() && triage.len() <= 5, "p99 tail capped at --top");
        let names = report.field("model_features").unwrap().as_string_vec().unwrap();
        for t in triage {
            // Bucket sums partition the attribution mass: bias + Σ buckets
            // equals the prediction (up to reassociation of the fold).
            let bias = t.field("bias").unwrap().as_f64().unwrap();
            let pred = t.field("prediction").unwrap().as_f64().unwrap();
            let buckets = t.field("buckets").unwrap();
            let total: f64 =
                TRIAGE_BUCKETS.iter().map(|b| buckets.field(b).unwrap().as_f64().unwrap()).sum();
            assert!(
                ((bias + total) - pred).abs() <= 1e-6 * pred.abs().max(1.0),
                "buckets do not partition the prediction: {bias} + {total} != {pred}"
            );
            let dominant = t.field("dominant").unwrap().as_str().unwrap();
            assert!(TRIAGE_BUCKETS.contains(&dominant), "unknown bucket '{dominant}'");
            let top = t.field("top").unwrap().as_arr().unwrap();
            assert!(!top.is_empty() && top.len() <= 3, "--top-features caps the ranking");
            for c in top {
                let f = c.field("feature").unwrap().as_str().unwrap();
                assert!(names.iter().any(|n| n == f), "ranked feature '{f}' not in model");
            }
        }
    }

    #[test]
    fn obs_alerts_dumps_the_local_ring_and_a_servers() {
        // Local ring: raise one alert, dump, and find it in the JSON.
        wdt_obs::AlertSink::global().raise(
            wdt_obs::AlertKind::DriftDetected,
            wdt_obs::Severity::Warning,
            "cli test drift",
            1.0,
            None,
        );
        let out = tmp("obs-alerts.json");
        run(&parse(&format!("obs-alerts --out {}", out.display()))).expect("obs-alerts");
        let doc = wdt_types::JsonValue::parse(&std::fs::read_to_string(&out).unwrap())
            .expect("alerts json parses");
        let alerts = doc.field("alerts").unwrap().as_arr().unwrap();
        assert!(
            alerts.iter().any(|a| {
                a.field("kind").is_ok_and(|k| k.as_str() == Ok("drift"))
                    && a.field("message").is_ok_and(|m| m.as_str() == Ok("cli test drift"))
            }),
            "raised alert missing from dump: {doc}"
        );
        // A bad remote address is a named error, not a hang.
        let err = run(&parse("obs-alerts --addr not-an-addr")).unwrap_err().to_string();
        assert!(err.contains("--addr"), "{err}");
    }

    #[test]
    fn loadgen_replays_a_log_against_a_live_server() {
        use wdt_features::Dataset;
        use wdt_model::{FitConfig, FittedModel, ModelKind};

        // Simulate a small log, train on it, and serve the artifact.
        let log_path = tmp("loadgen.csv");
        run(&parse(&format!(
            "simulate --out {} --days 3 --heavy-edges 3 --sparse-edges 10 --seed 9",
            log_path.display()
        )))
        .expect("simulate");
        let log = records_from_csv(&std::fs::read_to_string(&log_path).unwrap()).unwrap();
        let data = build_dataset(&extract_features(&log), false);
        let model = FittedModel::fit(
            &Dataset::new(data.names.clone(), data.x.clone(), data.y.clone()),
            ModelKind::Linear,
            &FitConfig::default(),
        )
        .expect("fit");
        let dir = tmp("loadgen-models");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("v1.json"), model.to_json()).unwrap();
        let registry = Arc::new(ModelRegistry::open(dir, ServeSchema::prediction()).unwrap());
        let server = EventLoopServer::start(registry, ServeConfig::default()).unwrap();

        let out = tmp("loadgen-report.json");
        run(&parse(&format!(
            "loadgen --addr {} --log {} --requests 64 --concurrency 2 --pipeline 4 \
             --warmup 16 --min-rps 0.001 --out {}",
            server.addr(),
            log_path.display(),
            out.display()
        )))
        .expect("loadgen");
        let report = wdt_types::JsonValue::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(report.field("ok").unwrap().as_usize().unwrap(), 64);
        assert_eq!(report.field("errors").unwrap().as_usize().unwrap(), 0);
        assert_eq!(report.field("warmup").unwrap().as_usize().unwrap(), 16);

        // An absurd floor turns the same healthy run into a CI failure.
        let err = run(&parse(&format!(
            "loadgen --addr {} --log {} --requests 16 --concurrency 2 --min-rps 1e12",
            server.addr(),
            log_path.display(),
        )))
        .unwrap_err()
        .to_string();
        assert!(err.contains("--min-rps floor"), "{err}");
        server.shutdown();
    }
}
