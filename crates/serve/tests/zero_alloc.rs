//! Allocation-count regression test for the `/predict` hot path.
//!
//! The PR that introduced the schema-aware row scanner, coalesced
//! writes, and reusable per-connection/per-shard scratch claims a
//! **zero-allocation steady state**: once a keep-alive connection and
//! the batcher's worker-local buffers are warmed up, serving a burst of
//! pipelined `/predict` requests touches the heap zero times — across
//! every thread in the process (poller shard, batch worker, and this
//! test acting as the client).
//!
//! The test installs a counting `#[global_allocator]`, warms the server
//! with identical bursts until every reusable buffer has reached its
//! high-water capacity, then arms the counter and drives more of the
//! same traffic. Any `alloc`/`realloc` anywhere in the process while
//! armed fails the test with the observed count.
//!
//! The client side is deliberately primitive — preallocated request
//! bytes, one `write_all` per burst, responses drained into a
//! preallocated buffer and framed by counting `b'}'` body terminators
//! (each response body is exactly one flat JSON object; heads contain
//! no `}`) — so the *measurement* itself cannot allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wdt_model::{FitConfig, FittedModel, ModelKind};
use wdt_serve::{BatchConfig, EventLoopServer, ModelRegistry, ServeConfig, ServeSchema};
use wdt_types::JsonValue;

/// Counts heap acquisitions (alloc + realloc) process-wide while armed.
/// Deallocations are uncounted: dropping warmed scratch on shutdown is
/// fine, acquiring fresh memory per request is the regression.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Requests per pipelined burst. Below the event loop's pipeline cap
/// and the batcher's `max_batch`, so nothing sheds or stalls.
const BURST: usize = 32;
/// Warm-up bursts: enough for every amortized-growth buffer (parser
/// window, output queue, batch/reply vectors, row pool) to reach its
/// steady-state capacity.
const WARMUP_BURSTS: usize = 64;
/// Measured bursts while the counter is armed.
const ARMED_BURSTS: usize = 32;

fn quick_registry(name: &str) -> Arc<ModelRegistry> {
    let dir = std::env::temp_dir().join("wdt-serve-zero-alloc").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("model dir");
    let schema = ServeSchema::prediction();
    let w = schema.width();
    let x: Vec<Vec<f64>> =
        (0..120).map(|i| (0..w).map(|j| ((i * (j + 3)) % 17) as f64).collect()).collect();
    let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + r[1]).collect();
    let model = FittedModel::fit(
        &wdt_features::Dataset::new(schema.names().to_vec(), x, y),
        ModelKind::Gbdt,
        &FitConfig::default(),
    )
    .expect("fit");
    std::fs::write(dir.join("v1.json"), model.to_json()).expect("persist");
    Arc::new(ModelRegistry::open(dir, schema).expect("open"))
}

/// One schema-ordered `/predict` body with small integral values (their
/// JSON round-trip is short and, more importantly, deterministic).
fn predict_body(schema: &ServeSchema) -> String {
    JsonValue::Obj(
        schema
            .names()
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), JsonValue::Num(((i % 7) + 1) as f64)))
            .collect(),
    )
    .to_string()
}

/// Drain exactly `n` responses by counting body-terminating `}` bytes.
fn read_burst(stream: &mut TcpStream, buf: &mut [u8], n: usize) {
    let mut seen = 0usize;
    while seen < n {
        let got = stream.read(buf).expect("read burst");
        assert!(got > 0, "server closed mid-burst");
        seen += buf[..got].iter().filter(|&&b| b == b'}').count();
    }
    assert_eq!(seen, n, "response framing drifted");
}

/// Drive warm-up plus an armed window of pipelined bursts against
/// `path` (`/predict` or `/explain` — both render flat single-`}`
/// bodies) and return the number of heap acquisitions observed while
/// armed.
fn steady_state_allocs(path: &str, dirname: &str) -> u64 {
    let registry = quick_registry(dirname);
    let schema_body = predict_body(registry.schema());
    let cfg = ServeConfig {
        port: 0,
        acceptors: 1,
        request_deadline: Duration::from_secs(5),
        batch: BatchConfig {
            max_batch: BURST,
            flush: Duration::from_micros(50),
            queue_cap: 1024,
            workers: 1,
        },
        explain_top: 5,
    };
    let server = EventLoopServer::start(registry, cfg).expect("start");

    // Pre-render the whole pipelined burst once; the armed loop only
    // replays these bytes.
    let one = format!(
        "POST {path} HTTP/1.1\r\nHost: wdt\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{}",
        schema_body.len(),
        schema_body
    );
    let burst: Vec<u8> = one.as_bytes().repeat(BURST);
    let mut readbuf = vec![0u8; 256 * 1024];

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // Sanity: the very first response is a 200 with a JSON body.
    stream.write_all(one.as_bytes()).expect("first request");
    let got = stream.read(&mut readbuf).expect("first response");
    let head = std::str::from_utf8(&readbuf[..got.min(64)]).expect("utf8 head");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "unexpected first response: {head}");
    let already = readbuf[..got].iter().filter(|&&b| b == b'}').count();
    read_burst(&mut stream, &mut readbuf, 1_usize.saturating_sub(already));

    // Warm-up: grow every reusable buffer to its high-water mark.
    for _ in 0..WARMUP_BURSTS {
        stream.write_all(&burst).expect("warmup write");
        read_burst(&mut stream, &mut readbuf, BURST);
    }

    // Armed window: identical traffic, zero heap acquisitions allowed.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..ARMED_BURSTS {
        stream.write_all(&burst).expect("armed write");
        read_burst(&mut stream, &mut readbuf, BURST);
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    drop(stream);
    server.shutdown();
    allocs
}

#[test]
fn steady_state_predict_burst_allocates_nothing() {
    let allocs = steady_state_allocs("/predict", "predict");
    assert_eq!(
        allocs,
        0,
        "steady-state /predict path allocated {allocs} times across {} requests",
        ARMED_BURSTS * BURST
    );
}

#[test]
fn steady_state_explain_burst_allocates_nothing() {
    let allocs = steady_state_allocs("/explain", "explain");
    assert_eq!(
        allocs,
        0,
        "steady-state /explain path allocated {allocs} times across {} requests",
        ARMED_BURSTS * BURST
    );
}
