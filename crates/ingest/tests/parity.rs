//! Property: windowed incremental features are **bitwise equal** to the
//! batch extractor over the same records.
//!
//! This is the contract that lets the continuous-training pipeline reuse
//! the paper's models unchanged: a model fitted on streamed features sees
//! exactly the numbers a batch refit over the window would have seen —
//! not approximately, but to the last bit of every f64.

use proptest::prelude::*;
use wdt_features::extract_features;
use wdt_ingest::FeatureWindow;
use wdt_types::{Bytes, EndpointId, SimTime, TransferId, TransferRecord};

/// Logs with heavy endpoint overlap (0..4 × 0..4 allows loopbacks),
/// occasional zero-duration records, and varied tunables.
fn arb_log() -> impl Strategy<Value = Vec<TransferRecord>> {
    proptest::collection::vec(
        (
            0u32..4,
            0u32..4,
            0.0f64..500.0,
            prop_oneof![Just(0.0f64), 1.0f64..300.0],
            0.1f64..50.0,
            1u32..8,
            1u32..4,
            1u64..500,
        ),
        1..60,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst, s, len, gb, c, p, files))| TransferRecord {
                id: TransferId(i as u64),
                src: EndpointId(src),
                dst: EndpointId(dst),
                start: SimTime::seconds(s),
                end: SimTime::seconds(s + len),
                bytes: Bytes::gb(gb),
                files,
                dirs: 1 + i as u64 % 5,
                concurrency: c,
                parallelism: p,
                faults: (i % 3) as u32,
            })
            .collect()
    })
}

fn assert_bitwise(
    streamed: &[wdt_features::TransferFeatures],
    batch: &[wdt_features::TransferFeatures],
) {
    assert_eq!(streamed.len(), batch.len());
    for (a, b) in streamed.iter().zip(batch) {
        assert_eq!(a.id, b.id);
        for (i, (x, y)) in a.to_vec().iter().zip(b.to_vec().iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "transfer {:?} feature {} ({}): windowed {x} vs batch {y}",
                a.id,
                i,
                wdt_features::FEATURES[i].name
            );
        }
        assert_eq!(a.rate.to_bits(), b.rate.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Window never evicts: streamed features == batch over the whole log.
    #[test]
    fn full_window_matches_batch(log in arb_log()) {
        let mut w = FeatureWindow::new(log.len());
        for r in &log {
            w.push(r.clone());
        }
        prop_assert_eq!(w.evicted(), 0);
        assert_bitwise(&w.features(), &extract_features(&log));
    }

    /// Window evicts: streamed features == batch over the suffix the
    /// window retains, for every window size.
    #[test]
    fn evicting_window_matches_batch_suffix(log in arb_log(), cap in 1usize..40) {
        let mut w = FeatureWindow::new(cap);
        for r in &log {
            w.push(r.clone());
        }
        let kept = cap.min(log.len());
        let suffix = &log[log.len() - kept..];
        prop_assert_eq!(w.len(), kept);
        assert_bitwise(&w.features(), &extract_features(suffix));
    }

    /// `features_tail(k)` agrees with the tail of the batch computation
    /// over the whole window (the prequential scorer sees the same numbers
    /// the refit will), for evicting windows and every `k` from 0 to one
    /// past the window's length.
    #[test]
    fn tail_features_agree_with_full(log in arb_log(), cap in 1usize..70) {
        let mut w = FeatureWindow::new(cap);
        for r in &log {
            w.push(r.clone());
        }
        let windowed: Vec<TransferRecord> = w.records().cloned().collect();
        let full = extract_features(&windowed);
        for k in 0..=full.len() + 1 {
            let kept = k.min(full.len());
            assert_bitwise(&w.features_tail(k), &full[full.len() - kept..]);
        }
    }
}
