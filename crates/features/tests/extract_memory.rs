//! Heap budget of the batch feature layer.
//!
//! `extract_features` builds one endpoint's profiles at a time and drops
//! them once that endpoint's side of its records is written, so its peak
//! live heap is the features it returns (168 bytes per record), the
//! endpoint index (at most 16 bytes per record) and one endpoint's
//! interval lists and profiles (72 and at most 144 bytes per record that
//! endpoint holds). On this log of four endpoints each endpoint holds
//! about 7/16 of the records, so the peak is about 1.55× the output,
//! under a budget of 2×; holding every endpoint's profiles while writing
//! the features would read 2.68×. `eligible_edges` counts rows per edge
//! without copying the rows it counts.
//!
//! A counting `#[global_allocator]` tracks, per thread, the live bytes,
//! their peak, and the bytes acquired. Only the calling thread is
//! counted, so the test harness's own threads cannot move the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wdt_features::{eligible_edges, extract_features, TransferFeatures};
use wdt_types::{Bytes, EndpointId, SimTime, TransferId, TransferRecord};

struct CountingAlloc;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static ACQUIRED: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let live = LIVE.get() + bytes;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
    ACQUIRED.set(ACQUIRED.get() + bytes);
}

fn shrink(bytes: usize) {
    // Memory freed here may have been acquired on another thread.
    LIVE.set(LIVE.get().saturating_sub(bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What one call did to this thread's heap.
struct HeapUse<T> {
    out: T,
    /// Peak live bytes above the live bytes at the call.
    peak_above_start: usize,
    /// Bytes acquired during the call, freed or not.
    acquired: usize,
}

fn measure<T>(f: impl FnOnce() -> T) -> HeapUse<T> {
    let start = LIVE.get();
    PEAK.set(start);
    let acquired = ACQUIRED.get();
    let out = f();
    HeapUse { out, peak_above_start: PEAK.get() - start, acquired: ACQUIRED.get() - acquired }
}

/// SplitMix64 uniform in [0, 1), decorrelated across `(i, k)`.
fn unif(i: u64, k: u64) -> f64 {
    let mut z = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ k.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// `n` overlapping transfers over four endpoints across one day, at 50 to
/// 100 MB/s; some are loopback and some have zero duration.
fn synthetic_log(n: u64) -> Vec<TransferRecord> {
    (0..n)
        .map(|i| {
            let start = 86_400.0 * unif(i, 1);
            let bytes = Bytes::gb(0.1 + 20.0 * unif(i, 2));
            let rate = 50.0e6 * (1.0 + unif(i, 5));
            let duration = if i % 97 == 0 { 0.0 } else { bytes.as_f64() / rate };
            TransferRecord {
                id: TransferId(i),
                src: EndpointId((4.0 * unif(i, 3)) as u32),
                dst: EndpointId((4.0 * unif(i, 4)) as u32),
                start: SimTime::seconds(start),
                end: SimTime::seconds(start + duration),
                bytes,
                files: 1 + (500.0 * unif(i, 6)) as u64,
                dirs: 1 + i % 7,
                concurrency: 1 + (i % 8) as u32,
                parallelism: 1 + (i % 4) as u32,
                faults: (i % 5 == 0) as u32,
            }
        })
        .collect()
}

#[test]
fn extract_features_peaks_below_twice_its_output() {
    let log = synthetic_log(4_000);
    let run = measure(|| extract_features(&log));
    let out_bytes = run.out.capacity() * std::mem::size_of::<TransferFeatures>();
    let ratio = run.peak_above_start as f64 / out_bytes as f64;
    assert!(
        ratio <= 2.0,
        "extract_features peaked {} bytes above its input for {out_bytes} bytes of \
         features ({ratio:.2}×); the budget is 2×",
        run.peak_above_start
    );
}

#[test]
fn eligible_edges_copies_no_rows() {
    let features = extract_features(&synthetic_log(4_000));
    let in_bytes = std::mem::size_of_val(features.as_slice());
    let run = measure(|| eligible_edges(&features, 0.5, 100));
    assert!(!run.out.is_empty(), "the log must qualify some edge");
    assert!(
        run.acquired * 10 < in_bytes,
        "eligible_edges acquired {} bytes over {in_bytes} bytes of features; \
         the budget is a tenth",
        run.acquired
    );
}
