//! `ingest-replay`: continuous training fed at full speed.
//!
//! Set-up simulates the 5-day reference campaign and orders its records
//! by completion time, as a live log delivers them. The measured phase
//! offers the records from memory to `IngestPipeline` (`Block`
//! backpressure, an on-disk `SegmentStore`, a 5,000-record `FeatureWindow`
//! against a ~24k-record stream, 1,000-record prequential chunks, GBDT
//! refits on cadence and on drift with artifacts written), once per pass
//! on a fresh store. The seed draws the refit GBDT seed. Record lag is the
//! time from a record's `offer` until the processor has stored and
//! windowed it, read from the pipeline's own `ingest.records` counter.
//!
//! The traced run makes the processor's calls itself, in its order —
//! `append`, `push`, per chunk `features_tail` → `observe` →
//! `should_refit` → `features` → `refit`, the final partial chunk, then
//! `sync` — with a span around each, and checks that it reproduces the
//! pipeline's refit counts and final rolling MdAPE bitwise. It then serves
//! the last deployed artifact for a short probe, so the serving layer's
//! per-layer figures come from this workload too.

use crate::reference::{self, mix};
use crate::report::{median, peak_rss_mib, quantile, Outcome};
use crate::spans::{self, Recorder};
use crate::{obs, scratch_dir, serve, Args};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use wdt_check::DigestBuilder;
use wdt_ingest::{
    FeatureWindow, IngestConfig, IngestPipeline, IngestReport, LogStore, RetrainConfig,
    RetrainDriver, SegmentStore,
};
use wdt_model::{build_dataset, FittedModel};
use wdt_types::{JsonValue, TransferRecord};

/// Worker threads of the vendored rayon pool. Each boosting round of a
/// refit on two workers spawns and joins two scoped threads (the
/// prediction refresh of windows of 2,048 rows or more), so on a 2-vCPU
/// VM a refit waits on the hypervisor to wake an idle vCPU hundreds of
/// times. With two workers, runs of this workload read 4.3k–10.8k
/// records/s as the host's steal share went from 22 % to 0; on a quiet
/// host one worker did 15.7k–15.9k records/s and two 11.8k–12.6k, so
/// the workload runs on one worker.
const WORKERS: &str = "1";
const SETUPS: usize = 3;
/// Nominal length of one pass on a 2-core Xeon; `--seconds` buys
/// `--seconds / PASS_S` passes, the same number on every run.
const PASS_S: f64 = 2.0;
/// Seconds of serving load the traced run puts on the deployed model.
const SERVE_PROBE_S: f64 = 2.0;
/// The traced run gives one record in this many its own spans.
const RECORD_SPAN_EVERY: usize = 64;

fn config(seed: u64) -> IngestConfig {
    // The rolling MdAPE spans the last 10k scored records, not the default
    // 2k, so the reported figure is not set by the last two chunks alone.
    let mut retrain =
        RetrainConfig { refit_every: 5_000, rolling_window: 10_000, ..Default::default() };
    retrain.fit.gbdt.seed = mix(seed, 3);
    IngestConfig { window: 5_000, chunk: 1_000, retrain, ..Default::default() }
}

/// The campaign's records in completion order.
fn completion_order(mut records: Vec<TransferRecord>) -> Vec<TransferRecord> {
    records.sort_by(|a, b| a.end.as_secs().total_cmp(&b.end.as_secs()).then(a.id.cmp(&b.id)));
    records
}

/// One measured pass through the pipeline.
struct Pass {
    wall_s: f64,
    /// Offer → stored-and-windowed, seconds, per record.
    lag_s: Vec<f64>,
    /// Producer time inside `offer`, seconds.
    blocked_s: f64,
    report: IngestReport,
}

/// Offer `records` to a pipeline over `store` and `driver`, timing each
/// from its offer until the processor has stored and windowed it. Returns
/// once the processor has ended, with an error if it ended early.
fn stream(
    records: &[TransferRecord],
    cfg: &IngestConfig,
    store: Box<dyn LogStore>,
    driver: RetrainDriver,
) -> Result<Pass, String> {
    let processed = wdt_obs::Registry::global().counter("ingest.records");
    let base = processed.get();
    let n = records.len();
    let mut offered_at = Vec::with_capacity(n);
    let mut done_at = Vec::with_capacity(n);
    let mut blocked_s = 0.0;
    let mut all_accepted = true;
    let t0 = Instant::now();
    let handle = IngestPipeline::start(cfg.clone(), store, driver, None);
    let stamp = |done_at: &mut Vec<f64>| {
        let now = t0.elapsed().as_secs_f64();
        let done = (processed.get() - base) as usize;
        while done_at.len() < done.min(n) {
            done_at.push(now);
        }
    };
    for r in records {
        let before = t0.elapsed().as_secs_f64();
        // Under `Block` an offer fails only once the processor is gone.
        all_accepted &= handle.offer(r.clone());
        blocked_s += t0.elapsed().as_secs_f64() - before;
        offered_at.push(before);
        stamp(&mut done_at);
        if !all_accepted {
            break;
        }
    }
    // Stamp the queued records as the processor drains them, until
    // `finish` returns: at the end of the stream, or when it failed.
    let finished = AtomicBool::new(false);
    let report = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            while !finished.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(50));
                stamp(&mut done_at);
            }
        });
        let report = std::panic::catch_unwind(AssertUnwindSafe(|| handle.finish()));
        finished.store(true, Ordering::Release);
        watcher.join().expect("lag watcher");
        report
    });
    stamp(&mut done_at);
    let wall_s = t0.elapsed().as_secs_f64();
    let report = match report {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => return Err(format!("ingest processor I/O: {e}")),
        Err(_) => return Err("ingest processor panicked".into()),
    };
    if !all_accepted || done_at.len() < n {
        return Err(format!("processor took {} of {n} records", done_at.len()));
    }
    let lag_s = offered_at.iter().zip(&done_at).map(|(a, b)| b - a).collect();
    Ok(Pass { wall_s, lag_s, blocked_s, report })
}

/// Stream `records` through a fresh pipeline rooted at `dir` and check
/// what it stored and deployed; `None` if the processor failed.
fn pass(
    records: &[TransferRecord],
    cfg: &IngestConfig,
    dir: &Path,
    outcome: &mut Outcome,
) -> Option<Pass> {
    let store = SegmentStore::open(dir.join("store")).expect("open segment store");
    let driver = RetrainDriver::new(cfg.retrain.clone(), Some(dir.join("models")))
        .expect("create model directory");
    let p = match stream(records, cfg, Box::new(store), driver) {
        Ok(p) => p,
        Err(e) => {
            outcome.check_failures.push(e);
            return None;
        }
    };
    let (n, report) = (records.len(), &p.report);
    outcome.check(report.shed == 0, || format!("{} records shed", report.shed));
    outcome.check(report.ingested == n as u64, || {
        format!("{n} records offered, {} ingested", report.ingested)
    });
    check_store(records, &dir.join("store"), outcome);
    let artifacts = std::fs::read_dir(dir.join("models"))
        .map(|d| {
            d.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
                .count()
        })
        .unwrap_or(0);
    outcome.check(report.refits >= 1 && artifacts as u64 == report.refits, || {
        format!("{} refits deployed, {artifacts} artifacts written", report.refits)
    });
    outcome.check(report.rolling_mdape.is_finite(), || "no chunk was scored".into());
    Some(p)
}

/// The store must replay exactly the offered records.
fn check_store(records: &[TransferRecord], dir: &Path, outcome: &mut Outcome) {
    let replayed = SegmentStore::open(dir).and_then(|mut s| s.replay());
    let replayed = match replayed {
        Ok(r) => r,
        Err(e) => return outcome.check(false, || format!("segment store replay: {e}")),
    };
    let hash = |rs: &[TransferRecord]| {
        let mut d = DigestBuilder::new();
        rs.iter().for_each(|r| d.push(r));
        d.finish().hash()
    };
    outcome.check(replayed.len() == records.len() && hash(&replayed) == hash(records), || {
        format!("store replayed {} of {} records, digests differ", replayed.len(), records.len())
    });
    outcome.check(replayed == records, || "store replay differs from the offered records".into());
    outcome.failed += records.len().saturating_sub(replayed.len()) as u64;
}

pub fn run(args: &Args, outcome: &mut Outcome) {
    // One worker thread, read by the vendored rayon on every call; see
    // WORKERS.
    std::env::set_var("WDT_THREADS", WORKERS);
    let cfg = config(args.seed);
    let campaign = reference::campaign();
    let mut setup_s = Vec::new();
    let mut out = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let sim = campaign.simulate();
        let records = completion_order(sim.records.clone());
        setup_s.push(t0.elapsed().as_secs_f64());
        out = Some((sim, records));
    }
    let (sim, records) = out.expect("at least one set-up");
    outcome.set("setup_s", median(&setup_s));
    outcome.detail("setup_runs_s", JsonValue::nums(&setup_s));
    outcome.check_failures.extend(reference::check_campaign(&campaign.workload(), &sim));
    drop(sim);

    let mut passes: Vec<Pass> = Vec::new();
    for i in 0..crate::passes(args.seconds, PASS_S) {
        let dir = scratch_dir(&format!("ingest-{i}"));
        let p = pass(&records, &cfg, &dir, outcome);
        if i == 0 {
            outcome.set("peak_rss_mib", peak_rss_mib());
        }
        let _ = std::fs::remove_dir_all(&dir);
        outcome.attempted += records.len() as u64;
        let Some(p) = p else {
            outcome.failed += records.len() as u64;
            return;
        };
        outcome.failed += p.report.shed;
        passes.push(p);
    }
    let first = &passes[0].report;
    for p in &passes[1..] {
        let r = &p.report;
        outcome.check(
            r.refits == first.refits
                && r.drift_refits == first.drift_refits
                && r.rolling_mdape.to_bits() == first.rolling_mdape.to_bits(),
            || "repeated passes trained differently".into(),
        );
    }
    let rates: Vec<f64> = passes.iter().map(|p| records.len() as f64 / p.wall_s).collect();
    let lag_p50: Vec<f64> = passes.iter().map(|p| median(&p.lag_s)).collect();
    let rate = median(&rates);
    outcome.set("throughput_per_s", rate);
    outcome.set("latency_ms", median(&lag_p50) * 1e3);
    outcome.set("mdape_pct", first.rolling_mdape);
    outcome.detail("pass_records_per_s", JsonValue::nums(&rates));
    outcome.detail(
        "pass_lag_ms",
        JsonValue::nums(&lag_p50.iter().map(|l| l * 1e3).collect::<Vec<_>>()),
    );
    outcome.detail(
        "pass_lag_p90_ms",
        JsonValue::nums(&passes.iter().map(|p| quantile(&p.lag_s, 0.9) * 1e3).collect::<Vec<_>>()),
    );
    outcome.detail("records_per_pass", JsonValue::Num(records.len() as f64));
    outcome.detail("refits", JsonValue::Num(first.refits as f64));
    outcome.detail("drift_refits", JsonValue::Num(first.drift_refits as f64));
    outcome.detail("stale_mdape_pct", JsonValue::Num(first.stale_mdape));

    if let Some(rec) = &args.recorder {
        traced(rec, args.seed, &campaign, &records, &cfg, &passes[0], rate, outcome);
    }
}

/// The traced run: one traced set-up, then the processor's calls made
/// directly with a span around each.
#[allow(clippy::too_many_arguments)]
fn traced(
    rec: &Recorder,
    seed: u64,
    campaign: &wdt_bench::ScenarioCampaign,
    records: &[TransferRecord],
    cfg: &IngestConfig,
    untraced: &Pass,
    untraced_rate: f64,
    outcome: &mut Outcome,
) {
    obs::enable();
    let fit_before = obs::fit_phase_nanos();
    {
        let _g = rec.span("workload.generate");
        let _ = campaign.workload();
    }
    let sim = {
        let _g = rec.span("sim.simulate");
        campaign.simulate()
    };
    obs::sim_metrics(&sim.stats, outcome);
    {
        let _g = rec.span("check.campaign");
        outcome.check(completion_order(sim.records) == records, || {
            "traced set-up produced a different stream".into()
        });
    }

    let dir = scratch_dir("ingest-traced");
    let mut store = SegmentStore::open(dir.join("store")).expect("open segment store");
    let mut driver = RetrainDriver::new(cfg.retrain.clone(), Some(dir.join("models")))
        .expect("create model directory");
    let mut window = FeatureWindow::new(cfg.window);
    let chunk = cfg.chunk.max(1);
    let (mut fill, mut chunks) = (0usize, 0u64);
    let (mut read, mut profiled) = (0usize, 0usize);
    let (mut append_s, mut push_s) = (0.0, 0.0);
    let t0 = Instant::now();
    let process = rec.span("ingest.process");
    for (i, r) in records.iter().enumerate() {
        // Every call is timed; one record in RECORD_SPAN_EVERY also gets
        // its own spans, keeping the exported trace small.
        let sampled = i % RECORD_SPAN_EVERY == 0;
        let t = Instant::now();
        {
            let _g = sampled.then(|| rec.span("ingest.store.append").item(i as u64));
            store.append(r).expect("segment append");
        }
        let u = Instant::now();
        {
            let _g = sampled.then(|| rec.span("ingest.window.push").item(i as u64));
            window.push(r.clone());
        }
        append_s += (u - t).as_secs_f64();
        push_s += u.elapsed().as_secs_f64();
        fill += 1;
        if fill >= chunk {
            observe_chunk(rec, &window, &mut driver, fill, chunks, &mut read, &mut profiled);
            chunks += 1;
            fill = 0;
            if driver.should_refit(window.len()) {
                let features = {
                    let _g = rec.span("ingest.window.full").item(chunks);
                    window.features()
                };
                let _g = rec.span("ingest.retrain.refit").item(chunks);
                driver.refit(&features).expect("artifact write");
            }
        }
    }
    if fill > 0 {
        observe_chunk(rec, &window, &mut driver, fill, chunks, &mut read, &mut profiled);
    }
    {
        let _g = rec.span("ingest.store.sync");
        store.sync().expect("segment sync");
    }
    drop(process);
    let wall = t0.elapsed().as_secs_f64();
    let bytes = store.bytes();
    drop(store);
    {
        let _g = rec.span("check.store");
        check_store(records, &dir.join("store"), outcome);
    }
    // The serving layer, over the artifacts the replica deployed: a short
    // probe whose answers must equal the last model bitwise.
    {
        let deployed = driver.current().expect("a refit was deployed").to_json();
        let model = FittedModel::from_json(&deployed).expect("artifact round-trips");
        let data = build_dataset(&window.features(), false);
        let served = serve::Served::start(&dir.join("models"), model, data, rec);
        serve::probe(rec, &served, seed, SERVE_PROBE_S, outcome);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let r = &untraced.report;
    outcome.check(
        driver.refits() == r.refits
            && driver.drift_refits() == r.drift_refits
            && driver.rolling_mdape().to_bits() == r.rolling_mdape.to_bits(),
        || {
            format!(
                "processor replica: {} refits ({} drift), rolling MdAPE {}; pipeline: {} ({}), {}",
                driver.refits(),
                driver.drift_refits(),
                driver.rolling_mdape(),
                r.refits,
                r.drift_refits,
                r.rolling_mdape
            )
        },
    );
    let spans = rec.spans();
    obs::fit_phase_metrics(&fit_before, outcome);
    outcome.set("ingest.queue.blocked_s", untraced.blocked_s);
    outcome.set("ingest.store.append_s", append_s);
    outcome.set("ingest.window.push_s", push_s);
    for (metric, name) in [
        ("ingest.store.sync_s", "ingest.store.sync"),
        ("ingest.window.tail_s", "ingest.window.tail"),
        ("ingest.window.full_s", "ingest.window.full"),
        ("ingest.retrain.observe_s", "ingest.retrain.observe"),
        ("ingest.retrain.refit_s", "ingest.retrain.refit"),
    ] {
        outcome.set(metric, spans::total_secs(&spans, name));
    }
    outcome.set("ingest.store.bytes", bytes as f64);
    outcome.set("ingest.window.tail_useful_ratio", read as f64 / profiled.max(1) as f64);
    outcome.set(
        "ingest.retrain.refit_ms_p50",
        median(&spans::durations(&spans, "ingest.retrain.refit")) * 1e3,
    );
    outcome.set("ingest.retrain.refits", driver.refits() as f64);
    outcome.set("ingest.retrain.drift_refits", driver.drift_refits() as f64);
    let traced_rate = records.len() as f64 / wall;
    outcome.set("trace.overhead_pct", (1.0 - traced_rate / untraced_rate) * 100.0);
}

/// Prequential step: score the newest `fill` records before any refit
/// can train on them.
fn observe_chunk(
    rec: &Recorder,
    window: &FeatureWindow,
    driver: &mut RetrainDriver,
    fill: usize,
    chunk_no: u64,
    read: &mut usize,
    profiled: &mut usize,
) {
    let tail = {
        let _g = rec.span("ingest.window.tail").item(chunk_no);
        window.features_tail(fill)
    };
    *read += tail.len();
    *profiled += window.len();
    let _g = rec.span("ingest.retrain.observe").item(chunk_no);
    driver.observe(&tail);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdt_ingest::NullStore;

    /// Fails every append after the first `ok`.
    struct FailingStore {
        ok: u64,
    }

    impl LogStore for FailingStore {
        fn append(&mut self, _: &TransferRecord) -> std::io::Result<()> {
            if self.ok == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            self.ok -= 1;
            Ok(())
        }
        fn len(&self) -> u64 {
            0
        }
        fn bytes(&self) -> u64 {
            0
        }
    }

    fn small_stream() -> Vec<TransferRecord> {
        let text = r#"{"name": "ingest-test", "seed": 7, "days": 1.0,
            "traffic": {"heavy_edges": 4, "sparse_edges": 20}}"#;
        let spec = wdt_types::ScenarioSpec::from_text(text).unwrap();
        completion_order(wdt_bench::ScenarioCampaign::new(spec).unwrap().simulate().records)
    }

    #[test]
    fn a_failed_processor_fails_the_pass_instead_of_hanging() {
        let records = small_stream();
        let driver = || RetrainDriver::new(RetrainConfig::default(), None).unwrap();
        // Records still queued when the processor fails, and records still
        // being offered when it fails (more than the queue holds).
        for queue_cap in [records.len() + 1, 16] {
            let cfg = IngestConfig { queue_cap, ..config(1) };
            let t0 = Instant::now();
            let err = stream(&records, &cfg, Box::new(FailingStore { ok: 50 }), driver())
                .err()
                .expect("a failed store fails the pass");
            assert!(err.contains("disk full"), "{err}");
            assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
        }
        let ok = stream(&records, &config(1), Box::new(NullStore::default()), driver()).unwrap();
        assert_eq!(ok.lag_s.len(), records.len());
        assert_eq!(ok.report.ingested, records.len() as u64);
    }
}
