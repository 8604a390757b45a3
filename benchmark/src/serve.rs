//! The serving probe of the traced `ingest-replay` run: the prediction
//! service at its defaults (`ServeConfig::default()`, event-loop front
//! end) over the last artifact the ingest replica deployed.
//!
//! The rows of the final feature window are replayed as a fixed 7:1 mix
//! of `/predict` and `/explain` over two keep-alive connections from one
//! generator thread, in two phases:
//!
//! * A, open loop: seeded Poisson arrivals at 5k req/s, far below
//!   saturation, so batches stay small and latency is set by wake-ups and
//!   flush patience. Each latency counts from the request's due time.
//! * B, closed loop: 32 requests in flight per connection, so batches
//!   fill and throughput is set by framing, batching, inference and
//!   writes.
//!
//! An untimed pass then checks served rates bitwise against
//! `FittedModel::predict_row` and every eighth `/explain` fold. The
//! server's layers are read from the outside: per-phase deltas of the
//! `/metrics.prom` histograms, process CPU time, and isolated timings of
//! the public functions on the request path.

use crate::loadgen::{self, Conn};
use crate::reference::mix;
use crate::report::{median, process_cpu_s, quantile, Outcome};
use crate::spans::Recorder;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wdt_model::{FittedModel, PredictScratch};
use wdt_serve::{
    EventLoopServer, HttpClient, ModelRegistry, RequestParser, ServeConfig, ServeSchema,
};
use wdt_types::JsonValue;

/// Phase A arrival rate, requests per second. Unbatched, a request costs
/// the process ~68 µs of CPU, so 20k req/s would already keep two cores
/// two-thirds busy; 5k req/s leaves the service well below saturation in
/// CPU as well as in requests (closed-loop saturation is ~90k req/s).
const OPEN_RATE: f64 = 5_000.0;
/// Phase A requests due in the first half second are not timed.
const WARMUP_S: f64 = 0.5;
/// Phase B requests in flight per connection.
const DEPTH: usize = 32;
const CONNECTIONS: usize = 2;
/// One request in this many is an `/explain`.
const EXPLAIN_EVERY: usize = 8;
/// Share of the probe's time given to phase A.
const OPEN_SHARE: f64 = 0.6;

/// A running server and the model it must be serving.
pub struct Served {
    server: Arc<EventLoopServer>,
    model: FittedModel,
    /// Rows to replay, in serving-schema order.
    rows: Vec<Vec<f64>>,
    names: Vec<String>,
}

impl Served {
    /// Start `EventLoopServer` at its defaults over the artifacts in
    /// `dir`, whose newest must be `model`.
    pub fn start(
        dir: &Path,
        model: FittedModel,
        data: wdt_features::Dataset,
        rec: &Recorder,
    ) -> Served {
        let _g = rec.span("serve.start");
        let registry = ModelRegistry::open(dir, ServeSchema::prediction()).expect("load artifact");
        let server = EventLoopServer::start(Arc::new(registry), ServeConfig::default())
            .expect("start server");
        Served { server, model, rows: data.x, names: data.names }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

/// Every replayed request, pre-rendered: `/predict` and `/explain` per row.
struct Requests {
    predict: Vec<Vec<u8>>,
    explain: Vec<Vec<u8>>,
    seed: u64,
}

impl Requests {
    fn new(s: &Served, seed: u64) -> Requests {
        let render = |path: &str, body: &str| {
            format!(
                "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        };
        let bodies: Vec<String> = s.rows.iter().map(|row| body(&s.names, row)).collect();
        Requests {
            predict: bodies.iter().map(|b| render("/predict", b)).collect(),
            explain: bodies.iter().map(|b| render("/explain", b)).collect(),
            seed,
        }
    }

    /// Request number `k`: a seeded row, every eighth one an `/explain`.
    fn get(&self, k: usize) -> &[u8] {
        let row = (mix(self.seed, 0x5E7E_0000 + k as u64) % self.predict.len() as u64) as usize;
        if k % EXPLAIN_EVERY == EXPLAIN_EVERY - 1 {
            &self.explain[row]
        } else {
            &self.predict[row]
        }
    }
}

fn body(names: &[String], row: &[f64]) -> String {
    JsonValue::Obj(names.iter().cloned().zip(row.iter().map(|&v| JsonValue::Num(v))).collect())
        .to_string()
}

/// One server histogram scraped from `/metrics.prom`: cumulative bucket
/// counts by inclusive upper bound, plus sum and count.
#[derive(Debug, Default, Clone)]
struct PromHist {
    buckets: BTreeMap<u64, u64>,
    sum: f64,
    count: f64,
}

fn scrape(addr: SocketAddr) -> BTreeMap<String, PromHist> {
    let mut client = HttpClient::connect(addr).expect("connect for /metrics.prom");
    let (status, text) = client.get("/metrics.prom").expect("GET /metrics.prom");
    assert_eq!(status, 200, "GET /metrics.prom answered {status}");
    let mut out: BTreeMap<String, PromHist> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((key, value)) = line.rsplit_once(' ') else { continue };
        let Ok(value) = value.parse::<f64>() else { continue };
        if let Some((name, le)) = key.split_once("_bucket{le=\"") {
            if let Ok(le) = le.trim_end_matches("\"}").parse::<u64>() {
                out.entry(name.to_string()).or_default().buckets.insert(le, value as u64);
            }
        } else if let Some(name) = key.strip_suffix("_sum") {
            out.entry(name.to_string()).or_default().sum = value;
        } else if let Some(name) = key.strip_suffix("_count") {
            out.entry(name.to_string()).or_default().count = value;
        }
    }
    out
}

impl PromHist {
    /// What was recorded between `before` and `self`.
    fn since(&self, before: &PromHist) -> PromHist {
        PromHist {
            buckets: self
                .buckets
                .iter()
                .map(|(&le, &c)| {
                    // Only non-empty buckets are listed; an unlisted one
                    // holds the cumulative count of the listed one below.
                    let was = before.buckets.range(..=le).next_back().map_or(0, |(_, &c)| c);
                    (le, c - was)
                })
                .collect(),
            sum: self.sum - before.sum,
            count: self.count - before.count,
        }
    }

    /// `q`-quantile, interpolated inside the power-of-two bucket.
    fn quantile(&self, q: f64) -> f64 {
        let target = (q * self.count).ceil().max(1.0) as u64;
        let mut lower = 0u64;
        let mut prev = 0u64;
        for (&le, &cum) in &self.buckets {
            if cum >= target && cum > prev {
                let frac = (target - prev) as f64 / (cum - prev) as f64;
                return lower as f64 + frac * (le - lower) as f64;
            }
            lower = le + 1;
            prev = cum;
        }
        f64::NAN
    }

    fn mean(&self) -> f64 {
        self.sum / self.count
    }
}

fn metrics_json(addr: SocketAddr) -> JsonValue {
    let mut client = HttpClient::connect(addr).expect("connect for /metrics");
    let (status, text) = client.get("/metrics").expect("GET /metrics");
    assert_eq!(status, 200, "GET /metrics answered {status}");
    JsonValue::parse(&text).expect("/metrics is JSON")
}

fn count(doc: &JsonValue, key: &str) -> u64 {
    doc.field(key).and_then(|v| v.as_f64()).map_or(u64::MAX, |v| v as u64)
}

/// What both phases measured.
struct Phases {
    open_n: usize,
    /// Phase A latencies after warm-up, µs from the due time.
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    closed_sent: u64,
    hist_open: BTreeMap<String, PromHist>,
    hist_closed: BTreeMap<String, PromHist>,
    cpu_open_s: f64,
    cpu_closed_s: f64,
}

/// `/metrics.prom` scrapes `phases` makes (before A, between, after B);
/// the server counts them with the replayed requests.
const SCRAPES: u64 = 3;

fn phases(s: &Served, reqs: &Requests, seed: u64, seconds: f64, outcome: &mut Outcome) -> Phases {
    let addr = s.server.addr();
    let mut conns: Vec<Conn> =
        (0..CONNECTIONS).map(|_| Conn::connect(addr).expect("connect")).collect();
    let open_s = (seconds * OPEN_SHARE).max(WARMUP_S + 0.5);
    let closed_s = (seconds - open_s).max(0.5);
    let schedule = loadgen::poisson_schedule(mix(seed, 7), OPEN_RATE, open_s);

    let p0 = scrape(addr);
    let c0 = process_cpu_s();
    let open = loadgen::open_loop(
        &mut conns,
        Instant::now(),
        &schedule,
        |k| reqs.get(k),
        Duration::from_secs(5),
    )
    .expect("open-loop phase I/O");
    let c1 = process_cpu_s();
    let p1 = scrape(addr);
    let closed = loadgen::closed_loop(
        &mut conns,
        DEPTH,
        Duration::from_secs_f64(closed_s),
        schedule.len(),
        |k| reqs.get(k),
    )
    .expect("closed-loop phase I/O");
    let c2 = process_cpu_s();
    let p2 = scrape(addr);

    let n = schedule.len();
    outcome.check(open.ok as usize == n, || {
        format!(
            "open loop: {n} due, {} answered 200, {} other, {} missing",
            open.ok, open.not_ok, open.missing
        )
    });
    outcome.check(closed.ok == closed.sent, || {
        format!(
            "closed loop: {} sent, {} answered 200, {} other, {} missing",
            closed.sent, closed.ok, closed.not_ok, closed.missing
        )
    });
    let warm = (WARMUP_S * 1e9) as u64;
    let timed: Vec<usize> = (0..n).filter(|&i| schedule[i] >= warm).collect();
    let since = |a: &BTreeMap<String, PromHist>, b: &BTreeMap<String, PromHist>| {
        a.iter()
            .map(|(k, h)| (k.clone(), h.since(b.get(k).unwrap_or(&PromHist::default()))))
            .collect()
    };
    Phases {
        open_n: n,
        latency_us: timed.iter().map(|&i| open.latency_us[i]).filter(|v| v.is_finite()).collect(),
        late_us: timed.iter().map(|&i| open.late_us[i]).collect(),
        closed_sent: closed.sent,
        hist_open: since(&p1, &p0),
        hist_closed: since(&p2, &p1),
        cpu_open_s: c1 - c0,
        cpu_closed_s: c2 - c1,
    }
}

/// Server-side counters, then the untimed bitwise pass over every
/// replayed row.
fn check_served(s: &Served, p: &Phases, outcome: &mut Outcome) {
    let addr = s.server.addr();
    let doc = metrics_json(addr);
    let expected = p.open_n as u64 + p.closed_sent + SCRAPES;
    outcome.check(count(&doc, "requests") == expected, || {
        format!("/metrics counts {} requests, {expected} were sent", count(&doc, "requests"))
    });
    outcome.check(count(&doc, "shed") == 0 && count(&doc, "errors") == 0, || {
        format!("/metrics: {} shed, {} errors", count(&doc, "shed"), count(&doc, "errors"))
    });
    outcome.set("serve.shed", count(&doc, "shed") as f64);
    outcome.set("serve.errors", count(&doc, "errors") as f64);

    let mut client = HttpClient::connect(addr).expect("connect for the check pass");
    let mut bad = 0usize;
    for (i, row) in s.rows.iter().enumerate() {
        let want = s.model.predict_row(row);
        let b = body(&s.names, row);
        let rate =
            client.post("/predict", &b).ok().filter(|(status, _)| *status == 200).and_then(
                |(_, text)| JsonValue::parse(&text).ok()?.field("rate").ok()?.as_f64().ok(),
            );
        if rate.map(f64::to_bits) != Some(want.to_bits()) {
            bad += 1;
        }
        if i % EXPLAIN_EVERY == 0 && !explain_folds(&mut client, &b, want) {
            bad += 1;
        }
    }
    outcome.check(bad == 0, || format!("{bad} check-pass answers differ from the offline model"));
}

/// `/explain` must answer `bias + Σ contributions == prediction` (folded
/// left to right, bitwise) with the offline prediction.
fn explain_folds(client: &mut HttpClient, body: &str, want: f64) -> bool {
    let Ok((200, text)) = client.post("/explain", body) else { return false };
    let Ok(doc) = JsonValue::parse(&text) else { return false };
    let num = |k: &str| doc.field(k).and_then(|v| v.as_f64()).ok();
    let (Some(bias), Some(pred)) = (num("bias"), num("prediction")) else { return false };
    let Ok(contribs) = doc.field("contributions").and_then(|v| v.as_f64_vec()) else {
        return false;
    };
    let fold = contribs.iter().fold(bias, |acc, c| acc + c);
    fold.to_bits() == pred.to_bits() && pred.to_bits() == want.to_bits()
}

/// Drive a running server through both phases and the check pass, and
/// read its layers from the outside: server histograms, process CPU,
/// and isolated timings of the public functions on the request path.
pub fn probe(rec: &Recorder, served: &Served, seed: u64, seconds: f64, outcome: &mut Outcome) {
    let reqs = Requests::new(served, seed);
    let p = {
        let _g = rec.span("serve.phases");
        phases(served, &reqs, seed, seconds, outcome)
    };
    {
        let _g = rec.span("check.served");
        check_served(served, &p, outcome);
    }
    outcome.set("loadgen.late_us.p50", median(&p.late_us));
    outcome.set("loadgen.late_us.p99", quantile(&p.late_us, 0.99));
    outcome.set("serve.client_us.p50", median(&p.latency_us));
    outcome.set("serve.client_us.p90", quantile(&p.latency_us, 0.9));
    outcome.set("serve.client_us.p99", quantile(&p.latency_us, 0.99));
    let hist = |h: &BTreeMap<String, PromHist>, k: &str| h.get(k).cloned().unwrap_or_default();
    outcome.set(
        "serve.request_latency_us.p50",
        hist(&p.hist_open, "serve_request_latency_us").quantile(0.5),
    );
    outcome.set(
        "serve.predict_latency_us.p50",
        hist(&p.hist_open, "serve_predict_latency_us").quantile(0.5),
    );
    outcome.set("serve.batch_size.mean.open", hist(&p.hist_open, "serve_batch_size").mean());
    let batch = hist(&p.hist_closed, "serve_batch_size").mean();
    outcome.set("serve.batch_size.mean.saturated", batch);
    outcome.set("process.cpu_us_per_req.open", p.cpu_open_s / p.open_n as f64 * 1e6);
    outcome.set("process.cpu_us_per_req.saturated", p.cpu_closed_s / p.closed_sent as f64 * 1e6);
    isolated_timings(rec, served, &reqs, batch.round().max(1.0) as usize, outcome);
}

/// Run `f` over `items` items repeatedly for at least `budget`; ns per item.
fn per_item_ns(items: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut done = 0usize;
    while done == 0 || t0.elapsed() < budget {
        f();
        done += items;
    }
    t0.elapsed().as_nanos() as f64 / done as f64
}

/// Time the request path's public functions on the replayed rows.
fn isolated_timings(
    rec: &Recorder,
    s: &Served,
    reqs: &Requests,
    batch: usize,
    outcome: &mut Outcome,
) {
    let budget = Duration::from_millis(300);
    let rows = &s.rows;
    let mut out = Vec::new();
    let mut scratch = PredictScratch::default();
    let ns = {
        let _g = rec.span("ml.predict_into");
        per_item_ns(rows.len(), budget, || {
            for b in rows.chunks(batch) {
                s.model.predict_into(b, &mut out, &mut scratch);
                std::hint::black_box(&out);
            }
        })
    };
    outcome.set("ml.predict_ns_per_row", ns);
    let mut contribs = Vec::new();
    let ns = {
        let _g = rec.span("ml.explain_row_into");
        per_item_ns(rows.len(), budget, || {
            for row in rows {
                std::hint::black_box(s.model.explain_row_into(row, &mut contribs, &mut scratch));
            }
        })
    };
    outcome.set("ml.explain_ns_per_row", ns);
    let wire: Vec<u8> = (0..1024).flat_map(|k| reqs.get(k).to_vec()).collect();
    let ns = {
        let _g = rec.span("serve.http.frame");
        per_item_ns(1024, budget, || {
            let mut parser = RequestParser::new();
            parser.push(&wire);
            while let Ok(Some(frame)) = parser.peek() {
                std::hint::black_box(frame.body(parser.window()).len());
                parser.consume(frame.wire_len());
            }
        })
    };
    outcome.set("serve.http.frame_ns", ns);
    let bodies: Vec<String> = rows
        .iter()
        .take(1024)
        .map(|row| {
            format!(
                "{{\"batch_size\":{batch},\"rate\":{},\"version\":\"v000001\"}}",
                s.model.predict_row(row)
            )
        })
        .collect();
    let mut buf = Vec::with_capacity(256);
    let ns = {
        let _g = rec.span("serve.http.render");
        per_item_ns(bodies.len(), budget, || {
            for b in &bodies {
                buf.clear();
                wdt_serve::http::render_response_into(&mut buf, 200, "OK", b.as_bytes(), false);
                std::hint::black_box(&buf);
            }
        })
    };
    outcome.set("serve.http.render_ns", ns);
}
