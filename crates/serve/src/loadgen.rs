//! Closed- and open-loop load generation against a running service.
//!
//! Replays engineered feature vectors (typically from a simulated
//! campaign) as `POST /predict` bodies over keep-alive connections and
//! reports achieved throughput plus latency percentiles.
//!
//! * **Closed loop** — `concurrency` connections, each issuing its next
//!   request the moment the previous response lands. Measures capacity:
//!   the throughput number quoted in BENCH_serve.json.
//! * **Open loop** — requests are launched on a fixed schedule at
//!   `rate_rps` across the connections regardless of completions
//!   (approximated per-connection: a connection that falls behind its
//!   schedule fires immediately). Measures latency under a target load,
//!   the way arrivals actually behave in production.
//!
//! Shed responses (HTTP 503 from admission control) are counted
//! separately from errors: shedding is the service *working as designed*
//! under overload.

use crate::client::HttpClient;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wdt_types::{Histogram, JsonValue};

/// Arrival discipline.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadgenMode {
    /// `concurrency` synchronous connections, zero think time.
    Closed {
        /// Concurrent connections.
        concurrency: usize,
    },
    /// Paced arrivals totalling `rate_rps` across `connections`.
    Open {
        /// Target aggregate arrival rate, requests/second.
        rate_rps: f64,
        /// Connections the schedule is striped over.
        connections: usize,
    },
}

/// Load-generation run configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Total predictions to issue.
    pub requests: usize,
    /// Arrival discipline.
    pub mode: LoadgenMode,
    /// HTTP/1.1 pipelining depth: each connection writes this many
    /// requests in one burst, then reads the answers in order. 1 (the
    /// default) is classic one-at-a-time closed-loop traffic; deeper
    /// pipelines measure the server's batch capacity the way a
    /// scheduler scoring many candidate transfers at once drives it.
    pub pipeline: usize,
    /// Warm-up: this many successful responses (striped across the
    /// connections like the request budget) are excluded from the
    /// latency histogram, so cold caches, first-touch page faults, and
    /// buffer growth on both sides don't pollute the tail percentiles.
    /// They still count toward `ok` and throughput.
    pub warmup: usize,
}

/// Results of one run.
#[derive(Debug)]
pub struct LoadgenReport {
    /// Echo of the discipline ("closed" / "open").
    pub mode: String,
    /// Connections used.
    pub connections: usize,
    /// Target rate for open loop (0 for closed).
    pub target_rps: f64,
    /// Pipelining depth used.
    pub pipeline: usize,
    /// Requests issued.
    pub requests: u64,
    /// 200 responses.
    pub ok: u64,
    /// 503 responses (admission control).
    pub shed: u64,
    /// Transport failures and non-200/503 statuses.
    pub errors: u64,
    /// Wall-clock run time, seconds.
    pub duration_s: f64,
    /// Completed requests (ok + shed) per second.
    pub throughput_rps: f64,
    /// Successful responses excluded from the latency histogram.
    pub warmup: u64,
    /// Latency distribution over *successful* predictions after the
    /// warm-up discard, µs.
    pub latency_us: Histogram,
}

impl LoadgenReport {
    /// Serialize for BENCH_serve.json.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("mode", JsonValue::Str(self.mode.clone())),
            ("connections", JsonValue::Num(self.connections as f64)),
            ("target_rps", JsonValue::Num(self.target_rps)),
            ("pipeline", JsonValue::Num(self.pipeline as f64)),
            ("requests", JsonValue::Num(self.requests as f64)),
            ("ok", JsonValue::Num(self.ok as f64)),
            ("shed", JsonValue::Num(self.shed as f64)),
            ("errors", JsonValue::Num(self.errors as f64)),
            ("duration_s", JsonValue::Num(self.duration_s)),
            ("throughput_rps", JsonValue::Num(self.throughput_rps)),
            ("warmup", JsonValue::Num(self.warmup as f64)),
            ("latency_us", self.latency_us.summary_json()),
        ])
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} loop × {}{}: {:.0} req/s over {:.2}s ({} ok, {} shed, {} errors); \
             latency µs p50 {} p95 {} p99 {} max {}",
            self.mode,
            self.connections,
            if self.pipeline > 1 {
                format!(" (pipeline {})", self.pipeline)
            } else {
                String::new()
            },
            self.throughput_rps,
            self.duration_s,
            self.ok,
            self.shed,
            self.errors,
            self.latency_us.quantile(0.50),
            self.latency_us.quantile(0.95),
            self.latency_us.quantile(0.99),
            self.latency_us.max(),
        ) + &if self.warmup > 0 {
            format!(" [{} warm-up discarded]", self.warmup)
        } else {
            String::new()
        }
    }
}

struct ThreadTally {
    ok: u64,
    shed: u64,
    errors: u64,
    latency: Histogram,
}

/// Render feature rows into reusable request bodies.
fn render_bodies(names: &[String], rows: &[Vec<f64>]) -> Vec<String> {
    rows.iter()
        .map(|row| {
            JsonValue::Obj(
                names.iter().cloned().zip(row.iter().map(|&v| JsonValue::Num(v))).collect(),
            )
            .to_string()
        })
        .collect()
}

/// Run a load generation campaign. `rows` are feature vectors in the
/// server's schema order with `names` as the feature names; they are
/// replayed round-robin until `cfg.requests` predictions have been sent.
pub fn run_loadgen(
    cfg: &LoadgenConfig,
    names: &[String],
    rows: &[Vec<f64>],
) -> std::io::Result<LoadgenReport> {
    if rows.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "no feature rows to replay",
        ));
    }
    let bodies = Arc::new(render_bodies(names, rows));
    let (mode_name, connections, target_rps) = match cfg.mode {
        LoadgenMode::Closed { concurrency } => ("closed", concurrency.max(1), 0.0),
        LoadgenMode::Open { rate_rps, connections } => ("open", connections.max(1), rate_rps),
    };
    // Stripe the request and warm-up budgets over connections.
    let per_thread: Vec<(usize, usize)> = (0..connections)
        .map(|t| {
            (
                cfg.requests / connections + usize::from(t < cfg.requests % connections),
                cfg.warmup / connections + usize::from(t < cfg.warmup % connections),
            )
        })
        .collect();

    let pipeline = cfg.pipeline.max(1);
    let started = Instant::now();
    let threads: Vec<_> = per_thread
        .into_iter()
        .enumerate()
        .map(|(t, (quota, warmup))| {
            let bodies = bodies.clone();
            let addr = cfg.addr;
            let pace = match cfg.mode {
                LoadgenMode::Closed { .. } => None,
                LoadgenMode::Open { rate_rps, connections } => {
                    Some(Duration::from_secs_f64(connections.max(1) as f64 / rate_rps.max(1e-9)))
                }
            };
            std::thread::spawn(move || client_loop(addr, &bodies, t, quota, warmup, pace, pipeline))
        })
        .collect();

    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut errors = 0u64;
    let latency = Histogram::new();
    for t in threads {
        let tally = t.join().expect("loadgen thread panicked");
        ok += tally.ok;
        shed += tally.shed;
        errors += tally.errors;
        latency.merge(&tally.latency);
    }
    let duration_s = started.elapsed().as_secs_f64().max(1e-9);
    Ok(LoadgenReport {
        mode: mode_name.to_string(),
        connections,
        target_rps,
        pipeline,
        requests: cfg.requests as u64,
        ok,
        shed,
        errors,
        duration_s,
        throughput_rps: (ok + shed) as f64 / duration_s,
        warmup: cfg.warmup.min(cfg.requests) as u64,
        latency_us: latency,
    })
}

fn client_loop(
    addr: SocketAddr,
    bodies: &[String],
    thread_idx: usize,
    quota: usize,
    mut warmup: usize,
    pace: Option<Duration>,
    pipeline: usize,
) -> ThreadTally {
    let mut tally = ThreadTally { ok: 0, shed: 0, errors: 0, latency: Histogram::new() };
    let mut client = HttpClient::connect(addr).ok();
    let epoch = Instant::now();
    let mut k = 0usize;
    while k < quota {
        // Open loop: wait for this burst's scheduled slot (connections
        // are phase-shifted so aggregate arrivals are evenly spaced).
        if let Some(step) = pace {
            let due = epoch + step.mul_f64(k as f64) + step.mul_f64(thread_idx as f64 / 8.0);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let depth = pipeline.min(quota - k);
        let burst: Vec<&str> = (0..depth)
            .map(|d| bodies[(thread_idx + (k + d) * 7919) % bodies.len()].as_str())
            .collect();
        k += depth;
        // One reconnect attempt per burst keeps a dropped keep-alive
        // connection from poisoning the rest of the run.
        if client.is_none() {
            client = HttpClient::connect(addr).ok();
        }
        let Some(c) = client.as_mut() else {
            tally.errors += depth as u64;
            continue;
        };
        let sent = Instant::now();
        if c.send_many("POST", "/predict", &burst).is_err() {
            tally.errors += depth as u64;
            client = None;
            continue;
        }
        for d in 0..depth {
            // Status-only read: the generator's own body parsing would
            // allocate per response and (on a shared core) bill the
            // server for it.
            match c.read_status_discard_body() {
                Ok(200) => {
                    tally.ok += 1;
                    if warmup > 0 {
                        // Warm-up responses count, but their latency
                        // (cold caches, buffer growth) is discarded.
                        warmup -= 1;
                    } else {
                        tally.latency.record(sent.elapsed().as_micros() as u64);
                    }
                }
                Ok(503) => tally.shed += 1,
                Ok(_) => tally.errors += 1,
                Err(_) => {
                    // The rest of the burst dies with the connection.
                    tally.errors += (depth - d) as u64;
                    client = None;
                    break;
                }
            }
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eventloop::{EventLoopServer, ServeConfig};
    use crate::registry::{ModelRegistry, ServeSchema};
    use wdt_features::Dataset;
    use wdt_model::{FitConfig, FittedModel, ModelKind};

    fn start_server(name: &str) -> Arc<EventLoopServer> {
        let dir = std::env::temp_dir().join("wdt-loadgen-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let schema = ServeSchema::prediction();
        let w = schema.width();
        let x: Vec<Vec<f64>> =
            (0..150).map(|i| (0..w).map(|j| ((i + j) % 11) as f64).collect()).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] + 4.0 * r[2]).collect();
        let m = FittedModel::fit(
            &Dataset::new(schema.names().to_vec(), x, y),
            ModelKind::Gbdt,
            &FitConfig::default(),
        )
        .unwrap();
        std::fs::write(dir.join("v1.json"), m.to_json()).unwrap();
        let registry = Arc::new(ModelRegistry::open(dir, schema).unwrap());
        EventLoopServer::start(registry, ServeConfig::default()).unwrap()
    }

    fn sample_rows(server: &EventLoopServer, n: usize) -> (Vec<String>, Vec<Vec<f64>>) {
        let names = server.registry().schema().names().to_vec();
        let w = names.len();
        let rows =
            (0..n).map(|i| (0..w).map(|j| ((i * 3 + j) % 13) as f64 / 2.0).collect()).collect();
        (names, rows)
    }

    #[test]
    fn closed_loop_accounts_for_every_request() {
        let server = start_server("closed");
        let (names, rows) = sample_rows(&server, 32);
        let cfg = LoadgenConfig {
            addr: server.addr(),
            requests: 200,
            mode: LoadgenMode::Closed { concurrency: 4 },
            pipeline: 1,
            warmup: 0,
        };
        let report = run_loadgen(&cfg, &names, &rows).expect("loadgen");
        assert_eq!(report.ok + report.shed + report.errors, 200);
        assert_eq!(report.errors, 0, "loopback run must not error");
        assert!(report.throughput_rps > 0.0);
        assert_eq!(report.latency_us.count(), report.ok);
        let json = JsonValue::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(json.field("ok").unwrap().as_usize().unwrap() as u64, report.ok);
        assert!(report.summary().contains("closed loop"));
        server.shutdown();
    }

    #[test]
    fn warmup_responses_are_excluded_from_latency_only() {
        let server = start_server("warmup");
        let (names, rows) = sample_rows(&server, 16);
        let cfg = LoadgenConfig {
            addr: server.addr(),
            requests: 120,
            mode: LoadgenMode::Closed { concurrency: 3 },
            pipeline: 4,
            warmup: 30,
        };
        let report = run_loadgen(&cfg, &names, &rows).expect("loadgen");
        assert_eq!(report.ok + report.shed + report.errors, 120);
        assert_eq!(report.errors, 0, "loopback run must not error");
        assert_eq!(report.warmup, 30);
        // Warm-up responses still count as ok/throughput, but each
        // thread drops its stripe of the first latencies.
        assert_eq!(report.latency_us.count(), report.ok - 30);
        assert!(report.summary().contains("warm-up"));
        let json = JsonValue::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(json.field("warmup").unwrap().as_usize().unwrap(), 30);
        server.shutdown();
    }

    #[test]
    fn open_loop_paces_arrivals() {
        let server = start_server("open");
        let (names, rows) = sample_rows(&server, 8);
        let cfg = LoadgenConfig {
            addr: server.addr(),
            requests: 50,
            mode: LoadgenMode::Open { rate_rps: 500.0, connections: 2 },
            pipeline: 1,
            warmup: 0,
        };
        let started = Instant::now();
        let report = run_loadgen(&cfg, &names, &rows).expect("loadgen");
        // 50 requests at 500/s ⇒ the schedule alone takes ≥ ~0.1s.
        assert!(started.elapsed() >= Duration::from_millis(80), "open loop did not pace");
        assert_eq!(report.ok + report.shed + report.errors, 50);
        assert_eq!(report.mode, "open");
        server.shutdown();
    }
}
