//! End-to-end continuous training: a campaign streamed record-by-record
//! through the ingest pipeline, with a live `wdt-serve` instance
//! hot-swapped to each retrained artifact over `POST /reload`.
//!
//! Three contracts are pinned down:
//!
//! 1. **Nothing is lost or altered in flight.** The incremental digest of
//!    the streamed records equals the digest of the same campaign
//!    simulated in batch, and the crash-recoverable segment store replays
//!    every record.
//! 2. **Retraining follows drift.** After a workload shift that no input
//!    feature can explain, the continuously retrained model's rolling
//!    MdAPE beats the frozen first model's — retraining pays.
//! 3. **The serving fleet follows the trainer.** Each refit lands as a
//!    versioned artifact and a `/reload`, and the server ends up serving
//!    the last version the trainer produced.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wdt_bench::ScenarioCampaign;
use wdt_check::{DigestBuilder, TraceDigest};
use wdt_ingest::{
    IngestConfig, IngestPipeline, RetrainConfig, RetrainDriver, SegmentStore, SwapEvent,
};
use wdt_model::ModelKind;
use wdt_serve::{EventLoopServer, HttpClient, ModelRegistry, ServeConfig, ServeSchema};
use wdt_types::{SimTime, TransferRecord};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("wdt-ingest-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn campaign(seed: u64) -> ScenarioCampaign {
    let spec = wdt_types::ScenarioSpec::from_text(&format!(
        r#"{{"name": "ingest-e2e", "seed": {seed}, "days": 4.0,
            "traffic": {{"heavy_edges": 4, "sparse_edges": 12, "runs": 2}}}}"#
    ));
    ScenarioCampaign::new(spec.expect("parse")).expect("validate")
}

/// Compress a record's duration 30×: rates shift massively while every
/// *input* feature (bytes, files, concurrency, competing load) stays in
/// distribution — drift only retraining can absorb.
fn accelerate(mut r: TransferRecord) -> TransferRecord {
    let dur = r.end.as_secs() - r.start.as_secs();
    r.end = SimTime::seconds(r.start.as_secs() + dur / 30.0);
    r
}

#[test]
fn streamed_campaign_retrains_and_hot_swaps_a_live_server() {
    let model_dir = tmpdir("models");
    let store_dir = tmpdir("store");

    // Seed the registry so the server can come up before the first refit;
    // the driver's own artifacts start at v000001 and sort after it.
    let seed_records = campaign(401).simulate_serial().records;
    let data = wdt_model::build_dataset(&wdt_features::extract_features(&seed_records), false);
    let seeded = wdt_model::FittedModel::fit(&data, ModelKind::Linear, &Default::default())
        .expect("seed fit");
    std::fs::write(model_dir.join("v000000.json"), seeded.to_json()).expect("seed artifact");

    let registry =
        Arc::new(ModelRegistry::open(&model_dir, ServeSchema::prediction()).expect("registry"));
    let server = EventLoopServer::start(registry, ServeConfig::default()).expect("server");
    assert_eq!(server.registry().current().version, "v000000");

    // Pipeline: on-disk segment store, linear refits every 1000 records,
    // drift detection tight enough to catch the phase-2 shift, and a swap
    // hook that reloads the live server.
    let cfg = IngestConfig {
        window: 1_500,
        chunk: 250,
        retrain: RetrainConfig {
            kind: ModelKind::Linear,
            min_train: 250,
            refit_every: 750,
            rolling_window: 600,
            drift_threshold_pct: 40.0,
            drift_patience: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let driver = RetrainDriver::new(cfg.retrain.clone(), Some(model_dir.clone())).expect("driver");
    let store = SegmentStore::open(&store_dir).expect("store");
    let addr = server.addr();
    let reloads = Arc::new(AtomicU64::new(0));
    let reloads2 = reloads.clone();
    let on_swap: Box<dyn FnMut(&SwapEvent) + Send> = Box::new(move |ev| {
        assert!(ev.version.is_some(), "model dir configured: swaps must be versioned");
        let (status, _) =
            HttpClient::connect(addr).and_then(|mut c| c.post("/reload", "{}")).expect("reload");
        assert_eq!(status, 200);
        reloads2.fetch_add(1, Ordering::Relaxed);
    });
    let handle = IngestPipeline::start(cfg, Box::new(store), driver, Some(on_swap));

    // Phase 1: the campaign as simulated, with an incremental digest.
    let mut builder = DigestBuilder::new();
    let mut streamed = 0u64;
    let summary = campaign(401).stream_into(&mut |r| {
        builder.push(&r);
        streamed += 1;
        assert!(handle.offer(r), "Block backpressure never sheds");
    });
    assert_eq!(streamed as usize, summary.records);

    // Phase 2: the same traffic accelerated 30× — hidden-variable drift.
    let mut phase2 = 0u64;
    campaign(402).stream_into(&mut |r| {
        phase2 += 1;
        assert!(handle.offer(accelerate(r)));
    });

    let report = handle.finish().expect("pipeline");

    // Contract 1: zero loss. Every offered record was ingested, stored,
    // and the phase-1 digest matches the batch simulation bit-for-bit.
    assert_eq!(report.ingested, streamed + phase2);
    assert_eq!(report.shed, 0);
    assert_eq!(report.store_records, streamed + phase2);
    assert_eq!(builder.finish(), TraceDigest::from_records(&seed_records));
    let mut replayed = SegmentStore::open(&store_dir).expect("reopen");
    assert_eq!(replayed.recovery().truncated_bytes, 0, "clean shutdown leaves no torn tail");
    assert_eq!(replayed.replay().expect("replay").len() as u64, report.ingested);
    assert!(report.window_evicted > 0, "window stayed bounded");

    // Contract 2: retraining pays. The deployed model tracked the shift;
    // the frozen first model did not.
    assert!(report.refits >= 2, "got {} refits", report.refits);
    assert!(
        report.rolling_mdape < report.stale_mdape,
        "retrained {:.2}% must beat stale {:.2}%",
        report.rolling_mdape,
        report.stale_mdape
    );

    // Contract 3: the server followed every swap and now serves the last
    // version the trainer wrote.
    assert_eq!(reloads.load(Ordering::Relaxed), report.refits);
    let last = report.swaps.last().expect("at least one swap");
    assert_eq!(&server.registry().current().version, last.version.as_ref().expect("versioned"));
    server.shutdown();
}
