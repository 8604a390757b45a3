//! Continuous training: prequential evaluation, drift detection, and
//! periodic refits with versioned hot-swappable artifacts.
//!
//! The driver follows the classic *test-then-train* (prequential) loop:
//! every arriving chunk is first **scored** with the currently deployed
//! model (and with the frozen first model, the "stale" baseline), its
//! absolute percentage errors folded into rolling buffers; only then may
//! the chunk's records influence a refit. Rolling MdAPE of the current
//! model is the drift signal: if it stays above a threshold for enough
//! consecutive chunks, a refit fires immediately instead of waiting for
//! the scheduled cadence.
//!
//! Refits write `FittedModel` JSON artifacts named `v%06d.json` into the
//! model directory — the exact layout `wdt_serve::ModelRegistry` watches,
//! so a `POST /reload` after each artifact hot-swaps the serving fleet.

use std::io;
use std::path::PathBuf;
use wdt_features::TransferFeatures;
use wdt_model::{build_dataset, FitConfig, FittedModel, ModelKind};

/// Rolling median absolute percentage error over the last `cap` scored
/// transfers.
#[derive(Debug)]
pub struct RollingMdape {
    errs: std::collections::VecDeque<f64>,
    cap: usize,
}

impl RollingMdape {
    /// A buffer over the last `cap` errors.
    pub fn new(cap: usize) -> Self {
        RollingMdape { errs: std::collections::VecDeque::new(), cap: cap.max(1) }
    }

    /// Record one absolute percentage error.
    pub fn push(&mut self, err_pct: f64) {
        if self.errs.len() == self.cap {
            self.errs.pop_front();
        }
        self.errs.push_back(err_pct);
    }

    /// Errors currently buffered.
    pub fn len(&self) -> usize {
        self.errs.len()
    }

    /// True when nothing has been scored yet.
    pub fn is_empty(&self) -> bool {
        self.errs.is_empty()
    }

    /// The rolling MdAPE (%), `NaN` while empty. Median convention matches
    /// `wdt_ml`: nearest-rank on the sorted buffer. Selection finds that
    /// rank without sorting; errors are finite and `≥ +0.0`, so equal
    /// values have equal bits and any order puts the same value there.
    pub fn mdape(&self) -> f64 {
        if self.errs.is_empty() {
            return f64::NAN;
        }
        let mut v: Vec<f64> = self.errs.iter().copied().collect();
        let mid = (v.len() - 1) / 2;
        *v.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("errors are finite")).1
    }
}

/// Retraining policy.
#[derive(Debug, Clone)]
pub struct RetrainConfig {
    /// Model family to fit.
    pub kind: ModelKind,
    /// Fit hyperparameters.
    pub fit: FitConfig,
    /// Scheduled refit cadence, in ingested records.
    pub refit_every: usize,
    /// Minimum window records before any fit is attempted.
    pub min_train: usize,
    /// Rolling-error buffer size (scored transfers).
    pub rolling_window: usize,
    /// Rolling MdAPE (%) above which a chunk counts toward drift.
    pub drift_threshold_pct: f64,
    /// Consecutive over-threshold chunks that force an early refit.
    pub drift_patience: usize,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        RetrainConfig {
            kind: ModelKind::Gbdt,
            fit: FitConfig::default(),
            refit_every: 20_000,
            min_train: 500,
            rolling_window: 2_000,
            drift_threshold_pct: 35.0,
            drift_patience: 3,
        }
    }
}

/// One completed refit.
#[derive(Debug, Clone)]
pub struct SwapEvent {
    /// Version label of the artifact written (e.g. `v000003`), or `None`
    /// when no model directory is configured (in-process training only).
    pub version: Option<String>,
    /// Records the model was fitted on.
    pub trained_on: usize,
    /// Wall-clock fit + persist latency, milliseconds.
    pub latency_ms: f64,
    /// Whether drift (rather than cadence) triggered this refit.
    pub drift_triggered: bool,
}

/// The continuous-training driver. See the module docs.
pub struct RetrainDriver {
    cfg: RetrainConfig,
    model_dir: Option<PathBuf>,
    next_version: u32,
    current: Option<FittedModel>,
    /// The first model ever fitted, frozen — the "stale" baseline that
    /// shows what *not* retraining would cost.
    stale: Option<FittedModel>,
    rolling_current: RollingMdape,
    rolling_stale: RollingMdape,
    since_fit: usize,
    over_threshold_chunks: usize,
    drift_pending: bool,
    refits: u64,
    drift_refits: u64,
    // metrics
    m_rolling: wdt_obs::Gauge,
    m_stale: wdt_obs::Gauge,
    m_refits: wdt_obs::Counter,
    m_drift: wdt_obs::Counter,
    m_latency: wdt_obs::Gauge,
}

impl RetrainDriver {
    /// A driver writing artifacts into `model_dir` (`None` = train
    /// in-process only). If the directory already holds `v*.json`
    /// artifacts, numbering continues after the highest.
    pub fn new(cfg: RetrainConfig, model_dir: Option<PathBuf>) -> io::Result<Self> {
        let mut next_version = 1;
        if let Some(dir) = &model_dir {
            std::fs::create_dir_all(dir)?;
            for entry in std::fs::read_dir(dir)? {
                let name = entry?.file_name();
                let Some(name) = name.to_str() else { continue };
                if let Some(v) = name.strip_prefix('v').and_then(|s| s.strip_suffix(".json")) {
                    if let Ok(n) = v.parse::<u32>() {
                        next_version = next_version.max(n + 1);
                    }
                }
            }
        }
        let reg = wdt_obs::Registry::global();
        let rolling_window = cfg.rolling_window;
        Ok(RetrainDriver {
            cfg,
            model_dir,
            next_version,
            current: None,
            stale: None,
            rolling_current: RollingMdape::new(rolling_window),
            rolling_stale: RollingMdape::new(rolling_window),
            since_fit: 0,
            over_threshold_chunks: 0,
            drift_pending: false,
            refits: 0,
            drift_refits: 0,
            m_rolling: reg.gauge("ingest.mdape.rolling"),
            m_stale: reg.gauge("ingest.mdape.stale"),
            m_refits: reg.counter("ingest.refits"),
            m_drift: reg.counter("ingest.refits.drift"),
            m_latency: reg.gauge("ingest.refit.latency_ms"),
        })
    }

    /// Completed refits so far.
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Refits forced by drift detection (subset of [`Self::refits`]).
    pub fn drift_refits(&self) -> u64 {
        self.drift_refits
    }

    /// Rolling MdAPE of the deployed model (`NaN` before first scoring).
    pub fn rolling_mdape(&self) -> f64 {
        self.rolling_current.mdape()
    }

    /// Rolling MdAPE of the frozen first model.
    pub fn stale_mdape(&self) -> f64 {
        self.rolling_stale.mdape()
    }

    /// The deployed model, if any has been fitted.
    pub fn current(&self) -> Option<&FittedModel> {
        self.current.as_ref()
    }

    /// Prequential scoring: fold a fresh chunk's errors into the rolling
    /// buffers *before* the chunk can influence any refit. Updates the
    /// drift state. No-op until a first model exists.
    pub fn observe(&mut self, chunk: &[TransferFeatures]) {
        self.since_fit += chunk.len();
        let Some(model) = &self.current else { return };
        if chunk.is_empty() {
            return;
        }
        let data = build_dataset(chunk, false);
        let pred = model.predict(&data.x);
        for e in wdt_ml_abs_pct_errors(&pred, &data.y) {
            self.rolling_current.push(e);
        }
        if let Some(stale) = &self.stale {
            let pred = stale.predict(&data.x);
            for e in wdt_ml_abs_pct_errors(&pred, &data.y) {
                self.rolling_stale.push(e);
            }
        }
        let rolling = self.rolling_current.mdape();
        self.m_rolling.set(rolling);
        self.m_stale.set(self.rolling_stale.mdape());
        if rolling.is_finite() && rolling > self.cfg.drift_threshold_pct {
            self.over_threshold_chunks += 1;
            if self.over_threshold_chunks >= self.cfg.drift_patience && !self.drift_pending {
                self.drift_pending = true;
                wdt_obs::AlertSink::global().raise(
                    wdt_obs::AlertKind::DriftDetected,
                    wdt_obs::Severity::Warning,
                    format!(
                        "rolling MdAPE {rolling:.1}% > {:.1}% for {} chunks",
                        self.cfg.drift_threshold_pct, self.over_threshold_chunks
                    ),
                    rolling,
                    None,
                );
            }
        } else {
            self.over_threshold_chunks = 0;
        }
    }

    /// Whether the policy calls for a refit right now, given the number of
    /// records available to train on.
    pub fn should_refit(&self, window_len: usize) -> bool {
        if window_len < self.cfg.min_train {
            return false;
        }
        self.current.is_none() || self.drift_pending || self.since_fit >= self.cfg.refit_every
    }

    /// Fit on the window's features, persist a new artifact version, and
    /// deploy it as current. Returns `None` if the fit degenerates (e.g.
    /// every feature eliminated).
    pub fn refit(&mut self, window: &[TransferFeatures]) -> io::Result<Option<SwapEvent>> {
        let t0 = std::time::Instant::now();
        let data = build_dataset(window, false);
        let Some(model) = FittedModel::fit(&data, self.cfg.kind, &self.cfg.fit) else {
            return Ok(None);
        };
        let drift_triggered = self.drift_pending;
        let version = match &self.model_dir {
            Some(dir) => {
                let label = format!("v{:06}", self.next_version);
                // Write-then-rename: the registry can never observe (and
                // reject, and stick to) a half-written artifact.
                let tmp = dir.join(format!(".{label}.json.tmp"));
                let path = dir.join(format!("{label}.json"));
                std::fs::write(&tmp, model.to_json())?;
                std::fs::rename(&tmp, &path)?;
                self.next_version += 1;
                Some(label)
            }
            None => None,
        };
        if self.stale.is_none() {
            // Freeze a copy of the first model as the stale baseline.
            self.stale = Some(model.clone());
        }
        self.current = Some(model);
        self.since_fit = 0;
        self.over_threshold_chunks = 0;
        self.drift_pending = false;
        self.refits += 1;
        self.m_refits.inc();
        if drift_triggered {
            self.drift_refits += 1;
            self.m_drift.inc();
        }
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.m_latency.set(latency_ms);
        wdt_obs::AlertSink::global().raise(
            wdt_obs::AlertKind::ModelSwapped,
            wdt_obs::Severity::Info,
            format!(
                "deployed {} ({} trigger, {} records)",
                version.as_deref().unwrap_or("in-process model"),
                if drift_triggered { "drift" } else { "cadence" },
                window.len()
            ),
            latency_ms,
            None,
        );
        Ok(Some(SwapEvent { version, trained_on: window.len(), latency_ms, drift_triggered }))
    }
}

/// |pred − truth| / |truth| in percent, skipping zero targets — the same
/// convention as `wdt_ml::abs_pct_errors` (duplicated to keep this crate's
/// dependency set to the model layer it already needs).
fn wdt_ml_abs_pct_errors(pred: &[f64], truth: &[f64]) -> Vec<f64> {
    pred.iter()
        .zip(truth)
        .filter(|(_, t)| t.abs() > 0.0)
        .map(|(p, t)| 100.0 * (p - t).abs() / t.abs())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wdt_types::{Bytes, EndpointId, SimTime, TransferId, TransferRecord};

    /// A windowed batch with competing load so features vary. `speedup`
    /// divides durations: rates shift while every *input* feature (bytes,
    /// files, C, P) stays in distribution — a drift no stale model can
    /// explain away.
    fn features(n: usize, speedup: f64) -> Vec<TransferFeatures> {
        let recs: Vec<TransferRecord> = (0..n as u64)
            .map(|i| {
                let s = (i as f64 * 7.0) % 300.0;
                TransferRecord {
                    id: TransferId(i),
                    src: EndpointId((i % 4) as u32),
                    dst: EndpointId((4 + i % 3) as u32),
                    start: SimTime::seconds(s),
                    end: SimTime::seconds(s + (30.0 + (i % 11) as f64) / speedup),
                    bytes: Bytes::gb(1.0 + (i % 9) as f64),
                    files: 10 + i % 50,
                    dirs: 2,
                    concurrency: 1 + (i % 8) as u32,
                    parallelism: 1 + (i % 4) as u32,
                    faults: 0,
                }
            })
            .collect();
        wdt_features::extract_features(&recs)
    }

    #[test]
    fn rolling_mdape_tracks_recent_errors() {
        let mut r = RollingMdape::new(4);
        assert!(r.mdape().is_nan());
        for e in [10.0, 20.0, 30.0, 40.0] {
            r.push(e);
        }
        assert_eq!(r.mdape(), 20.0);
        // Pushing 4 large errors displaces all the small ones.
        for e in [100.0, 100.0, 100.0, 100.0] {
            r.push(e);
        }
        assert_eq!(r.mdape(), 100.0);
        assert_eq!(r.len(), 4);
    }

    proptest! {
        #[test]
        fn mdape_by_selection_matches_the_sorted_median(
            errs in proptest::collection::vec(
                prop_oneof![(0u32..6).prop_map(f64::from), 0.0f64..100.0],
                1..80,
            ),
            cap in 1usize..100,
        ) {
            let mut r = RollingMdape::new(cap);
            for &e in &errs {
                r.push(e);
            }
            let mut sorted: Vec<f64> = r.errs.iter().copied().collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            prop_assert_eq!(r.mdape().to_bits(), sorted[(sorted.len() - 1) / 2].to_bits());
        }
    }

    #[test]
    fn first_refit_deploys_and_artifacts_are_versioned() {
        let dir = std::env::temp_dir().join("wdt-ingest-retrain-tests").join("versioned");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RetrainConfig { min_train: 10, refit_every: 50, ..Default::default() };
        let mut d = RetrainDriver::new(cfg, Some(dir.clone())).unwrap();
        assert!(d.should_refit(100), "no model yet: must want a first fit");
        let w = features(100, 1.0);
        let ev = d.refit(&w).unwrap().expect("fit succeeds");
        assert_eq!(ev.version.as_deref(), Some("v000001"));
        assert!(dir.join("v000001.json").exists());
        let ev2 = d.refit(&w).unwrap().unwrap();
        assert_eq!(ev2.version.as_deref(), Some("v000002"));

        // A new driver over the same directory continues the numbering.
        let mut d2 = RetrainDriver::new(
            RetrainConfig { min_train: 10, ..Default::default() },
            Some(dir.clone()),
        )
        .unwrap();
        let ev3 = d2.refit(&w).unwrap().unwrap();
        assert_eq!(ev3.version.as_deref(), Some("v000003"));
    }

    #[test]
    fn cadence_and_drift_both_trigger() {
        let cfg = RetrainConfig {
            min_train: 10,
            refit_every: 200,
            rolling_window: 50,
            drift_threshold_pct: 30.0,
            drift_patience: 2,
            kind: ModelKind::Linear,
            ..Default::default()
        };
        let mut d = RetrainDriver::new(cfg, None).unwrap();
        let w = features(120, 1.0);
        d.refit(&w).unwrap().unwrap();
        assert!(!d.should_refit(120), "fresh model, nothing observed");

        // Cadence: observing ≥ refit_every records asks for a refit.
        for _ in 0..2 {
            d.observe(&w);
        }
        assert!(d.should_refit(120), "cadence must trigger after 240 records");
        d.refit(&w).unwrap().unwrap();

        // Drift: shift the workload so the deployed model misses badly.
        let shifted = features(60, 25.0);
        d.observe(&shifted);
        d.observe(&shifted);
        assert!(d.rolling_mdape() > 30.0, "rolling MdAPE {}", d.rolling_mdape());
        assert!(d.should_refit(120), "drift must force an early refit");
        let ev = d.refit(&shifted).unwrap().unwrap();
        assert!(ev.drift_triggered);
        assert_eq!(d.drift_refits(), 1);
    }

    #[test]
    fn drift_and_swap_raise_alerts() {
        let reg = wdt_obs::Registry::global();
        let drift_before = reg.counter("alerts.drift").get();
        let swap_before = reg.counter("alerts.model_swap").get();
        let cfg = RetrainConfig {
            min_train: 10,
            rolling_window: 50,
            drift_threshold_pct: 30.0,
            drift_patience: 1,
            kind: ModelKind::Linear,
            ..Default::default()
        };
        let mut d = RetrainDriver::new(cfg, None).unwrap();
        d.refit(&features(120, 1.0)).unwrap().unwrap();
        let shifted = features(60, 25.0);
        d.observe(&shifted);
        d.observe(&shifted);
        assert!(d.should_refit(120));
        // The transition raised exactly one drift alert from this driver
        // (repeat over-threshold chunks while pending stay silent).
        assert!(reg.counter("alerts.drift").get() > drift_before);
        assert!(reg.counter("alerts.model_swap").get() > swap_before);
        let snap = wdt_obs::AlertSink::global().snapshot();
        assert!(snap.iter().any(|a| a.kind == wdt_obs::AlertKind::DriftDetected));
        assert!(snap.iter().any(|a| a.kind == wdt_obs::AlertKind::ModelSwapped));
    }

    #[test]
    fn stale_baseline_stays_frozen() {
        let cfg = RetrainConfig { min_train: 10, kind: ModelKind::Linear, ..Default::default() };
        let mut d = RetrainDriver::new(cfg, None).unwrap();
        d.refit(&features(100, 1.0)).unwrap().unwrap();
        let shifted = features(100, 40.0);
        d.refit(&shifted).unwrap().unwrap();
        d.observe(&shifted);
        // Current was refitted on the shifted workload; the stale model
        // was not — its rolling error must be worse.
        assert!(
            d.rolling_mdape() < d.stale_mdape(),
            "current {} vs stale {}",
            d.rolling_mdape(),
            d.stale_mdape()
        );
    }

    #[test]
    fn stale_baseline_predicts_like_the_first_artifact() {
        let cfg = RetrainConfig { min_train: 10, kind: ModelKind::Gbdt, ..Default::default() };
        let mut d = RetrainDriver::new(cfg, None).unwrap();
        let first = features(200, 1.0);
        d.refit(&first).unwrap().unwrap();
        let artifact = FittedModel::from_json(&d.current().unwrap().to_json()).unwrap();
        d.refit(&features(200, 40.0)).unwrap().unwrap();
        let x = build_dataset(&first, false).x;
        let stale = d.stale.as_ref().unwrap().predict(&x);
        for (a, b) in stale.iter().zip(artifact.predict(&x)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
