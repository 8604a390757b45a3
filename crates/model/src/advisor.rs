//! Operational advice from the learned models — the paper's §8 use cases.
//!
//! Two concrete recommendations fall straight out of the study:
//!
//! * **Endpoint concurrency caps** (Figure 4 / conclusions): aggregate
//!   throughput rises with the instantaneous GridFTP instance count, peaks,
//!   then declines — so a busy endpoint should cap admitted work near the
//!   Weibull peak. [`recommend_endpoint_concurrency`] fits that curve from
//!   the log and returns the cap.
//! * **Transfer scheduling** (abstract: "our predictions can be used for
//!   distributed workflow scheduling and optimization"): given a trained
//!   rate model and current competing-load observations,
//!   [`schedule_advice`] predicts the rate *now* versus under the edge's
//!   historically quiet load levels, quantifying the payoff of deferring.

use crate::pipeline::FittedModel;
use wdt_features::{bucket_by_concurrency, concurrency_profile, TransferFeatures, FEATURES};
use wdt_ml::{quantile, WeibullCurve};
use wdt_types::{EndpointId, TransferRecord};

/// Outcome of the Figure 4 concurrency analysis for one endpoint.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrencyAdvice {
    /// The fitted throughput-vs-instances curve.
    pub curve: WeibullCurve,
    /// The instance count at which aggregate throughput peaks.
    pub recommended_cap: f64,
    /// Highest instance count actually observed in the log.
    pub max_observed: f64,
}

/// Fit the endpoint's concurrency curve and recommend an instance cap.
///
/// Returns `None` when the log has too little concurrency variety at the
/// endpoint, or when throughput is still rising at the highest observed
/// concurrency (no cap warranted yet — the `max_observed` answer would be
/// extrapolation).
pub fn recommend_endpoint_concurrency(
    log: &[TransferRecord],
    endpoint: EndpointId,
) -> Option<ConcurrencyAdvice> {
    let samples = concurrency_profile(log, endpoint);
    let buckets = bucket_by_concurrency(&samples);
    let total_w: f64 = buckets.iter().map(|b| b.2).sum();
    let pts: Vec<(f64, f64)> =
        buckets.iter().filter(|b| b.2 >= 0.002 * total_w).map(|b| (b.0, b.1)).collect();
    let curve = WeibullCurve::fit(&pts)?;
    let max_observed = pts.last()?.0;
    let peak = curve.peak_x();
    if curve.k <= 1.0 || peak > 1.5 * max_observed {
        return None; // monotone within the observed range
    }
    Some(ConcurrencyAdvice { curve, recommended_cap: peak, max_observed })
}

/// What deferring a transfer to a quieter period is worth.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleAdvice {
    /// Predicted rate under the supplied (current) load, bytes/s.
    pub rate_now: f64,
    /// Predicted rate under the edge's historically median load.
    pub rate_typical: f64,
    /// Predicted rate under the edge's historically quiet (p25) load.
    pub rate_quiet: f64,
    /// `rate_quiet / rate_now − 1`: fractional gain from deferring to a
    /// quiet period (negative means now is already better than typical
    /// quiet conditions).
    pub defer_gain: f64,
}

/// Predict the planned transfer's rate under current vs historical load.
///
/// `planned` carries the transfer's characteristics and the *currently
/// observed* competing-load features; `history` supplies the edge's load
/// distribution (only its competing-load columns are used). Returns `None`
/// if the history is empty.
pub fn schedule_advice(
    model: &FittedModel,
    planned: &TransferFeatures,
    history: &[TransferFeatures],
) -> Option<ScheduleAdvice> {
    if history.is_empty() {
        return None;
    }
    // The planned row, competing-load columns at the history's q-quantile.
    let row = |q: Option<f64>| -> Vec<f64> {
        FEATURES
            .iter()
            .filter(|c| c.served())
            .map(|c| match q {
                Some(q) if c.family.is_competing_load() => {
                    quantile(&history.iter().map(|h| c.of(h)).collect::<Vec<_>>(), q)
                }
                _ => c.of(planned),
            })
            .collect()
    };
    let predict = |q: Option<f64>| model.predict_row(&row(q)).max(0.0);
    let rate_now = predict(None);
    let rate_typical = predict(Some(0.5));
    let rate_quiet = predict(Some(0.25));
    Some(ScheduleAdvice {
        rate_now,
        rate_typical,
        rate_quiet,
        defer_gain: rate_quiet / rate_now.max(1.0) - 1.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build_dataset, FitConfig, ModelKind};
    use wdt_features::Dataset;
    use wdt_types::{Bytes, EdgeId, SimTime, TransferId};

    fn feat(k_sout: f64, rate: f64) -> TransferFeatures {
        TransferFeatures {
            id: TransferId(0),
            edge: EdgeId::new(EndpointId(0), EndpointId(1)),
            start: 0.0,
            end: 100.0,
            rate,
            k_sout,
            k_din: k_sout * 0.5,
            c: 4.0,
            p: 2.0,
            s_sout: k_sout / 1e7,
            s_sin: 0.0,
            s_dout: 0.0,
            s_din: 0.0,
            k_sin: 0.0,
            k_dout: 0.0,
            n_d: 1.0,
            n_b: 1e9,
            n_flt: 0.0,
            g_src: 4.0,
            g_dst: 4.0,
            n_f: 10.0,
        }
    }

    fn trained_model(history: &[TransferFeatures]) -> FittedModel {
        let data = build_dataset(history, false);
        let mut cfg = FitConfig::default();
        cfg.gbdt.n_rounds = 60;
        FittedModel::fit(&data, ModelKind::Gbdt, &cfg).expect("fit")
    }

    fn history() -> Vec<TransferFeatures> {
        (0..400)
            .map(|i| {
                let u = ((i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) >> 11) as f64
                    / (1u64 << 53) as f64;
                let k = 6e8 * u;
                feat(k, 8e8 / (1.0 + k / 2e8))
            })
            .collect()
    }

    #[test]
    fn deferring_from_busy_conditions_pays_off() {
        let hist = history();
        let model = trained_model(&hist);
        // Currently very busy: near-max contention.
        let mut now = feat(5.5e8, 0.0);
        now.rate = 0.0;
        let advice = schedule_advice(&model, &now, &hist).expect("history nonempty");
        assert!(
            advice.defer_gain > 0.2,
            "expected a clear gain from deferring, got {}",
            advice.defer_gain
        );
        assert!(advice.rate_quiet > advice.rate_typical);
        assert!(advice.rate_typical > advice.rate_now);
    }

    #[test]
    fn quiet_conditions_mean_no_gain() {
        let hist = history();
        let model = trained_model(&hist);
        let now = feat(0.0, 0.0); // idle edge
        let advice = schedule_advice(&model, &now, &hist).expect("history");
        assert!(
            advice.defer_gain <= 0.05,
            "idle edge should not benefit from deferring: {}",
            advice.defer_gain
        );
    }

    #[test]
    fn empty_history_is_none() {
        // A model trained on *something*, but no history to quantify load.
        let hist = history();
        let model = trained_model(&hist);
        assert!(schedule_advice(&model, &feat(0.0, 0.0), &[]).is_none());
    }

    #[test]
    fn concurrency_advice_finds_the_peak() {
        // Synthesize a log whose concurrency curve rises then falls:
        // transfers arrive in increasingly deep waves; deep waves slow down.
        let curve = WeibullCurve { a: 2.0e9, k: 2.5, lambda: 14.0 };
        let mut log = Vec::new();
        let mut id = 0u64;
        for wave in 0..60u64 {
            let depth = 1 + (wave % 30) as usize;
            let agg = curve.eval(depth as f64 * 4.0);
            for k in 0..depth {
                log.push(TransferRecord {
                    id: TransferId(id),
                    src: EndpointId(1),
                    dst: EndpointId(0),
                    start: SimTime::seconds(wave as f64 * 1000.0),
                    end: SimTime::seconds(wave as f64 * 1000.0 + 500.0),
                    bytes: Bytes::new(agg / depth as f64 * 500.0),
                    files: 100,
                    dirs: 1,
                    concurrency: 4,
                    parallelism: 2,
                    faults: 0,
                });
                id += 1;
                let _ = k;
            }
        }
        let advice = recommend_endpoint_concurrency(&log, EndpointId(0)).expect("curve should fit");
        // True peak of the synthetic curve: λ·((k−1)/k)^(1/k) · (we scaled
        // concurrency by 4 instances per wave depth).
        let true_peak = curve.peak_x();
        assert!(
            (advice.recommended_cap - true_peak).abs() < 0.5 * true_peak,
            "cap {} vs true peak {true_peak}",
            advice.recommended_cap
        );
    }

    #[test]
    fn monotone_endpoint_gets_no_cap() {
        // Rate keeps rising with concurrency: no cap warranted.
        let mut log = Vec::new();
        let mut id = 0u64;
        for wave in 0..40u64 {
            let depth = 1 + (wave % 8) as usize;
            for _ in 0..depth {
                log.push(TransferRecord {
                    id: TransferId(id),
                    src: EndpointId(1),
                    dst: EndpointId(0),
                    start: SimTime::seconds(wave as f64 * 1000.0),
                    end: SimTime::seconds(wave as f64 * 1000.0 + 500.0),
                    bytes: Bytes::new(1e8 * 500.0), // each adds full rate
                    files: 10,
                    dirs: 1,
                    concurrency: 4,
                    parallelism: 2,
                    faults: 0,
                });
                id += 1;
            }
        }
        assert!(recommend_endpoint_concurrency(&log, EndpointId(0)).is_none());
    }

    // Silence unused-import warning in this narrow test module.
    #[allow(unused)]
    fn _touch(_d: Dataset) {}
}
