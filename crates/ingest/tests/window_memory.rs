//! Heap cost of scoring the newest records of a window.
//!
//! `FeatureWindow::features_tail(k)` builds the profiles of only the
//! endpoints its `k` records touch, each from all of that endpoint's
//! windowed intervals. On a window over many endpoints whose newest
//! records touch two of them, it must therefore acquire a small share of
//! what featurizing the whole window does; building every windowed
//! endpoint for a tail read would acquire most of it.
//!
//! A counting `#[global_allocator]` tracks, per thread, the bytes
//! acquired. Only the calling thread is counted, so the test harness's own
//! threads cannot move the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wdt_ingest::FeatureWindow;
use wdt_types::{Bytes, EndpointId, SimTime, TransferId, TransferRecord};

struct CountingAlloc;

thread_local! {
    static ACQUIRED: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ACQUIRED.set(ACQUIRED.get() + layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ACQUIRED.set(ACQUIRED.get() + new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes this thread acquires while running `f`, freed or not.
fn acquired<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ACQUIRED.get();
    let out = f();
    (out, ACQUIRED.get() - before)
}

/// Record `i`: an hour-long transfer starting `i` seconds in, between
/// `src` and `dst`.
fn rec(i: u64, src: u32, dst: u32) -> TransferRecord {
    TransferRecord {
        id: TransferId(i),
        src: EndpointId(src),
        dst: EndpointId(dst),
        start: SimTime::seconds(i as f64),
        end: SimTime::seconds(i as f64 + 3_600.0),
        bytes: Bytes::gb(1.0 + (i % 7) as f64),
        files: 1 + i % 50,
        dirs: 1 + i % 3,
        concurrency: 1 + (i % 4) as u32,
        parallelism: 1 + (i % 2) as u32,
        faults: 0,
    }
}

#[test]
fn tail_builds_only_the_endpoints_it_touches() {
    const ENDPOINTS: u64 = 64;
    const OLDER: u64 = 4_000;
    const NEWEST: u64 = 200;
    let mut w = FeatureWindow::new((OLDER + NEWEST) as usize);
    for i in 0..OLDER {
        w.push(rec(i, (i % ENDPOINTS) as u32, ((i * 7 + 1) % ENDPOINTS) as u32));
    }
    // The newest records run between endpoints 0 and 1 only.
    for i in OLDER..OLDER + NEWEST {
        w.push(rec(i, (i % 2) as u32, 1 - (i % 2) as u32));
    }
    let (tail, tail_bytes) = acquired(|| w.features_tail(NEWEST as usize));
    let (full, full_bytes) = acquired(|| w.features());
    assert_eq!(tail.len(), NEWEST as usize);
    assert_eq!(full.len(), (OLDER + NEWEST) as usize);
    assert!(
        tail_bytes * 4 < full_bytes,
        "features_tail({NEWEST}) acquired {tail_bytes} bytes against {full_bytes} for \
         features(); the budget is a quarter"
    );
}
