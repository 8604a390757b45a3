//! End-to-end serving: simulate → train → persist → serve over HTTP →
//! predict concurrently → hot-swap to a second model version.
//!
//! The contract under test is the serving subsystem's core promise:
//! predictions served over the wire are **bitwise identical** to offline
//! `FittedModel::predict` on the same rows — under concurrent load, and
//! across an atomic hot-swap that must not fail a single request.
//!
//! The slow-writer scenarios pin down the front end's timeout semantics:
//! a client that trickles bytes across many 200 ms poll ticks but stays
//! inside the request deadline is served normally, while one that stalls
//! past the deadline is answered 408 and disconnected. Under overload the
//! service sheds with explicit 503s and still answers every admitted
//! request bitwise.
//!
//! Each wire scenario runs twice: `_event_loop` on the default two-shard
//! server, and once on a single shard, where every connection shares one
//! poller thread and one deadline sweep. The single-shard tests keep the
//! names of the thread-per-connection front end they replace (the
//! unsuffixed hot-swap test and the `_threaded` ones).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wdt::prelude::*;
use wdt_model::build_dataset;
use wdt_serve::{
    BatchConfig, EventLoopServer, HttpClient, ModelRegistry, ServeConfig, ServeSchema,
};
use wdt_types::JsonValue;

/// A small simulated campaign, reduced to the prediction-time dataset.
fn campaign() -> wdt_features::Dataset {
    let w = WorkloadSpec {
        fleet: FleetSpec { sites: 10, extra_servers: 2, personal: 4 },
        heavy_edges: 3,
        heavy_sessions_per_day: 12.0,
        heavy_session_len: 4.0,
        sparse_edges: 15,
        days: 3.0,
        mix: ArrivalMix::default(),
    }
    .generate(&SeedSeq::new(23));
    let mut sim = Simulator::new(w.endpoints, SimConfig::default(), &SeedSeq::new(23));
    sim.add_default_background(3, 0.3);
    for r in w.requests {
        sim.submit(r);
    }
    let records = sim.run().records;
    build_dataset(&extract_features(&records), false)
}

/// Render one schema-ordered row as a `/predict` body.
fn body_for(names: &[String], row: &[f64]) -> String {
    JsonValue::Obj(names.iter().cloned().zip(row.iter().map(|&v| JsonValue::Num(v))).collect())
        .to_string()
}

/// POST one row and return (version, rate) after asserting success.
fn predict_one(client: &mut HttpClient, names: &[String], row: &[f64]) -> (String, f64) {
    let (status, body) = client.post("/predict", &body_for(names, row)).expect("request");
    assert_eq!(status, 200, "predict failed: {body}");
    let v = JsonValue::parse(&body).expect("response json");
    (
        v.field("version").unwrap().as_str().unwrap().to_string(),
        v.field("rate").unwrap().as_f64().unwrap(),
    )
}

/// A registry directory with a quick throwaway model, plus its offline
/// twin reloaded through the same persistence path the server uses.
fn quick_registry(name: &str) -> (Arc<ModelRegistry>, wdt_model::FittedModel) {
    let dir = std::env::temp_dir().join("wdt-serve-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("model dir");
    let schema = ServeSchema::prediction();
    let w = schema.width();
    let x: Vec<Vec<f64>> =
        (0..150).map(|i| (0..w).map(|j| ((i * (j + 2)) % 19) as f64).collect()).collect();
    let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] + r[3] * r[3]).collect();
    let model = FittedModel::fit(
        &wdt_features::Dataset::new(schema.names().to_vec(), x, y),
        ModelKind::Gbdt,
        &FitConfig::default(),
    )
    .expect("fit");
    std::fs::write(dir.join("v1.json"), model.to_json()).expect("persist");
    let offline = FittedModel::from_json(&model.to_json()).expect("reload");
    (Arc::new(ModelRegistry::open(dir, schema).expect("open")), offline)
}

/// A server on `acceptors` shards, otherwise at the defaults.
fn sharded(acceptors: usize) -> ServeConfig {
    ServeConfig { acceptors, ..Default::default() }
}

fn hot_swap_e2e(acceptors: usize, name: &str) {
    let data = campaign();
    assert!(data.x.len() >= 100, "campaign too small: {}", data.x.len());
    let train = wdt_features::Dataset::new(data.names.clone(), data.x.clone(), data.y.clone());

    // Two genuinely different versions of the model.
    let mut cfg = FitConfig::default();
    cfg.gbdt.n_rounds = 40;
    let v1 = FittedModel::fit(&train, ModelKind::Gbdt, &cfg).expect("fit v1");
    cfg.gbdt.n_rounds = 90;
    let v2 = FittedModel::fit(&train, ModelKind::Gbdt, &cfg).expect("fit v2");
    // Offline references reloaded through the same persistence path the
    // server uses, so both sides see the identical artifact.
    let offline1 = FittedModel::from_json(&v1.to_json()).expect("reload v1");
    let offline2 = FittedModel::from_json(&v2.to_json()).expect("reload v2");

    let dir = std::env::temp_dir().join("wdt-serve-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("model dir");
    std::fs::write(dir.join("v0001.json"), v1.to_json()).expect("persist v1");

    let registry = Arc::new(ModelRegistry::open(&dir, ServeSchema::prediction()).expect("open"));
    let server = EventLoopServer::start(registry, sharded(acceptors)).expect("start");
    let names: Vec<String> = server.registry().schema().names().to_vec();
    let rows: Vec<Vec<f64>> = data.x.iter().take(96).cloned().collect();

    // Phase 1: concurrent clients; every answer bitwise matches offline v1.
    std::thread::scope(|s| {
        for chunk in rows.chunks(12) {
            let names = &names;
            let offline1 = &offline1;
            let addr = server.addr();
            s.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                for row in chunk {
                    let (version, rate) = predict_one(&mut client, names, row);
                    assert_eq!(version, "v0001");
                    assert_eq!(
                        rate.to_bits(),
                        offline1.predict_row(row).to_bits(),
                        "served != offline for {row:?}"
                    );
                }
            });
        }
    });

    // Phase 2: hot-swap while clients hammer the service. Zero requests
    // may fail; every answer must match the offline model of whichever
    // version it reports.
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|t| {
                let names = &names;
                let rows = &rows;
                let stop = &stop;
                let (offline1, offline2) = (&offline1, &offline2);
                let addr = server.addr();
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let mut n = 0usize;
                    let mut saw_v2 = false;
                    while !stop.load(Ordering::Relaxed) {
                        let row = &rows[(t * 31 + n * 7) % rows.len()];
                        let (version, rate) = predict_one(&mut client, names, row);
                        let offline = match version.as_str() {
                            "v0001" => offline1,
                            "v0002" => {
                                saw_v2 = true;
                                offline2
                            }
                            other => panic!("unexpected version {other}"),
                        };
                        assert_eq!(
                            rate.to_bits(),
                            offline.predict_row(row).to_bits(),
                            "served != offline {version} for {row:?}"
                        );
                        n += 1;
                    }
                    (n, saw_v2)
                })
            })
            .collect();

        std::thread::sleep(Duration::from_millis(100));
        std::fs::write(dir.join("v0002.json"), v2.to_json()).expect("persist v2");
        let mut admin = HttpClient::connect(server.addr()).expect("connect admin");
        let (status, body) = admin.post("/reload", "").expect("reload");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("v0002"), "{body}");
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);

        let mut total = 0usize;
        let mut any_v2 = false;
        for w in workers {
            let (n, saw_v2) = w.join().expect("worker");
            assert!(n > 0, "worker made no predictions");
            total += n;
            any_v2 |= saw_v2;
        }
        assert!(total >= 8, "too little traffic to exercise the swap: {total}");
        assert!(any_v2, "no request observed the swapped-in model");
    });

    // After the swap, a fresh request serves v2 exactly.
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let (version, rate) = predict_one(&mut client, &names, &rows[0]);
    assert_eq!(version, "v0002");
    assert_eq!(rate.to_bits(), offline2.predict_row(&rows[0]).to_bits());

    // Metrics reflect the traffic and the service drains cleanly.
    let (status, body) = client.get("/metrics").expect("metrics");
    assert_eq!(status, 200);
    let m = JsonValue::parse(&body).expect("metrics json");
    assert!(m.field("predictions").unwrap().as_usize().unwrap() >= 96);
    assert_eq!(m.field("version").unwrap().as_str().unwrap(), "v0002");
    drop(client);
    server.shutdown();
}

#[test]
fn concurrent_serving_is_bitwise_faithful_across_hot_swap() {
    hot_swap_e2e(1, "hot-swap-single-shard");
}

#[test]
fn concurrent_serving_is_bitwise_faithful_across_hot_swap_event_loop() {
    hot_swap_e2e(ServeConfig::default().acceptors, "hot-swap");
}

/// A client that trickles its request a few bytes at a time, straddling
/// many idle-timeout ticks, must be served normally: slowness inside the
/// request deadline is not an error.
fn slow_but_live_writer_is_served(acceptors: usize, name: &str) {
    let (registry, offline) = quick_registry(name);
    let server = EventLoopServer::start(registry, sharded(acceptors)).expect("start");
    let names = server.registry().schema().names().to_vec();
    let row: Vec<f64> = (0..names.len()).map(|i| (i % 7) as f64).collect();
    let body = body_for(&names, &row);
    let req = format!(
        "POST /predict HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
        body.len(),
        body
    );

    let mut s = TcpStream::connect(server.addr()).expect("connect");
    // Spread the request across ~0.8 s: many 200 ms ticks elapse between
    // first byte and last, all inside the 5 s default deadline.
    let bytes = req.as_bytes();
    let step = bytes.len().div_ceil(10);
    for chunk in bytes.chunks(step) {
        s.write_all(chunk).expect("trickle");
        s.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(80));
    }
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("response");
    assert!(resp.starts_with("HTTP/1.1 200"), "slow-but-live client was dropped: {resp}");
    let json = resp.split("\r\n\r\n").nth(1).expect("body");
    let rate = JsonValue::parse(json).unwrap().field("rate").unwrap().as_f64().unwrap();
    assert_eq!(rate.to_bits(), offline.predict_row(&row).to_bits(), "served != offline");
    server.shutdown();
}

#[test]
fn slow_but_live_writer_is_served_threaded() {
    slow_but_live_writer_is_served(1, "slow-live-single-shard");
}

#[test]
fn slow_but_live_writer_is_served_event_loop() {
    slow_but_live_writer_is_served(ServeConfig::default().acceptors, "slow-live");
}

/// A client that starts a request and then stalls past the request
/// deadline is answered 408 and disconnected — and the stall must not
/// hold up the shard: a concurrent healthy client stays served. On a
/// single shard the healthy client shares the stalled one's poller.
fn stalled_writer_gets_408(acceptors: usize, name: &str) {
    let (registry, _) = quick_registry(name);
    let cfg = ServeConfig { request_deadline: Duration::from_millis(600), ..sharded(acceptors) };
    let server = EventLoopServer::start(registry, cfg).expect("start");

    let mut stalled = TcpStream::connect(server.addr()).expect("connect");
    stalled.write_all(b"GET /healthz HTTP/1.1\r\nConn").expect("partial header");
    stalled.flush().expect("flush");

    // While the stalled connection ages toward its deadline, a healthy
    // client on the same server is unaffected.
    let mut healthy = HttpClient::connect(server.addr()).expect("connect healthy");
    let (status, _) = healthy.get("/healthz").expect("healthy request");
    assert_eq!(status, 200);

    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut resp = String::new();
    stalled.read_to_string(&mut resp).expect("408 response");
    assert!(resp.starts_with("HTTP/1.1 408"), "expected 408 for stalled request: {resp}");

    // The 408 is an answered response: counted once, never exceeding the
    // request counter.
    let (_, body) = healthy.get("/metrics").expect("metrics");
    let m = JsonValue::parse(&body).expect("metrics json");
    let requests = m.field("requests").unwrap().as_usize().unwrap();
    let errors = m.field("errors").unwrap().as_usize().unwrap();
    let shed = m.field("shed").unwrap().as_usize().unwrap();
    assert!(errors >= 1, "the 408 must be counted as an error: {body}");
    assert!(errors + shed <= requests, "error rate exceeds request rate: {body}");
    server.shutdown();
}

#[test]
fn stalled_writer_gets_408_threaded() {
    stalled_writer_gets_408(1, "stalled-single-shard");
}

#[test]
fn stalled_writer_gets_408_event_loop() {
    stalled_writer_gets_408(ServeConfig::default().acceptors, "stalled");
}

/// Pipelined bursts are answered strictly in order with bitwise parity:
/// one `send_many` burst per connection exercises the coalesced-write
/// path (the event loop renders every ready response into one output
/// buffer and drains it with a single `writev` per wakeup).
fn pipelined_burst_parity(acceptors: usize, name: &str) {
    let (registry, offline) = quick_registry(name);
    let server = EventLoopServer::start(registry, sharded(acceptors)).expect("start");
    let names = server.registry().schema().names().to_vec();
    let rows: Vec<Vec<f64>> =
        (0..24).map(|i| (0..names.len()).map(|j| ((i * 3 + j) % 13) as f64).collect()).collect();
    let bodies: Vec<String> = rows.iter().map(|r| body_for(&names, r)).collect();
    let refs: Vec<&str> = bodies.iter().map(|b| b.as_str()).collect();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    for _ in 0..3 {
        client.send_many("POST", "/predict", &refs).expect("burst");
        for row in &rows {
            let (status, body) = client.read_response().expect("response");
            assert_eq!(status, 200, "{body}");
            let rate = JsonValue::parse(&body).unwrap().field("rate").unwrap().as_f64().unwrap();
            assert_eq!(
                rate.to_bits(),
                offline.predict_row(row).to_bits(),
                "pipelined response out of order or diverged for {row:?}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn pipelined_burst_parity_threaded() {
    pipelined_burst_parity(1, "pipeline-single-shard");
}

#[test]
fn pipelined_burst_parity_event_loop() {
    pipelined_burst_parity(ServeConfig::default().acceptors, "pipeline");
}

/// Overload over the wire: with a two-row queue and a batch worker that
/// waits out a long flush, a pipelined burst overflows admission. The
/// surplus is shed with explicit 503s, every admitted request is still
/// answered bitwise, and the counters never report more failures than
/// requests.
#[test]
fn pipelined_overload_sheds_with_503_and_serves_the_rest_bitwise() {
    let (registry, offline) = quick_registry("overload");
    let cfg = ServeConfig {
        acceptors: 1,
        batch: BatchConfig {
            max_batch: 64,
            flush: Duration::from_secs(2),
            queue_cap: 2,
            workers: 1,
        },
        ..Default::default()
    };
    let server = EventLoopServer::start(registry, cfg).expect("start");
    let names = server.registry().schema().names().to_vec();
    let rows: Vec<Vec<f64>> =
        (0..32).map(|i| (0..names.len()).map(|j| ((i * 5 + j) % 11) as f64).collect()).collect();
    let bodies: Vec<String> = rows.iter().map(|r| body_for(&names, r)).collect();
    let refs: Vec<&str> = bodies.iter().map(|b| b.as_str()).collect();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    client.send_many("POST", "/predict", &refs).expect("burst");
    let (mut ok, mut shed) = (0usize, 0usize);
    for row in &rows {
        let (status, body) = client.read_response().expect("response");
        match status {
            200 => {
                ok += 1;
                let rate =
                    JsonValue::parse(&body).unwrap().field("rate").unwrap().as_f64().unwrap();
                assert_eq!(rate.to_bits(), offline.predict_row(row).to_bits(), "{row:?}");
            }
            503 => {
                shed += 1;
                assert_eq!(body, r#"{"error":"overloaded"}"#);
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(shed > 0, "a 32-request burst into a 2-row queue must shed");
    assert!(ok > 0, "admitted requests must be answered");

    let (_, body) = client.get("/metrics").expect("metrics");
    let m = JsonValue::parse(&body).expect("metrics json");
    let requests = m.field("requests").unwrap().as_usize().unwrap();
    let errors = m.field("errors").unwrap().as_usize().unwrap();
    assert_eq!(m.field("shed").unwrap().as_usize().unwrap(), shed, "{body}");
    assert!(errors + shed <= requests, "error rate exceeds request rate: {body}");
    server.shutdown();
}

/// `/explain` is the explanation plane's wire contract: per-feature
/// attributions whose fold `bias + Σ contributions` reconstructs the
/// served prediction **bitwise**, agreeing with `/predict` on the same
/// row and with the offline model attribution-for-attribution — and the
/// contract survives a hot-swap. `/alerts` and `/metrics.prom` answer on
/// the same connection.
fn explain_parity_and_alerts(acceptors: usize, name: &str) {
    let (registry, offline) = quick_registry(name);
    let dir = registry.dir().to_path_buf();
    let server = EventLoopServer::start(registry, sharded(acceptors)).expect("start");
    let names = server.registry().schema().names().to_vec();
    let mut client = HttpClient::connect(server.addr()).expect("connect");

    let check_row = |client: &mut HttpClient, row: &[f64], want_version: &str| {
        let (version, rate) = predict_one(client, &names, row);
        assert_eq!(version, want_version);
        let (status, body) = client.post("/explain", &body_for(&names, row)).expect("explain");
        assert_eq!(status, 200, "{body}");
        let v = JsonValue::parse(&body).expect("explain json");
        assert_eq!(v.field("version").unwrap().as_str().unwrap(), want_version);
        let pred = v.field("prediction").unwrap().as_f64().unwrap();
        assert_eq!(pred.to_bits(), rate.to_bits(), "explain != predict for {row:?}");
        let bias = v.field("bias").unwrap().as_f64().unwrap();
        let contribs = v.field("contributions").unwrap().as_f64_vec().unwrap();
        let folded = contribs.iter().fold(bias, |acc, &c| acc + c);
        assert_eq!(folded.to_bits(), pred.to_bits(), "attributions do not fold to prediction");
        // The explained features are the model's kept columns, and the
        // offline twin agrees attribution-for-attribution.
        let features = v.field("features").unwrap().as_string_vec().unwrap();
        assert_eq!(features, offline.feature_names());
        let (obias, opred, ocontribs) = offline.explain_row(row);
        assert_eq!(opred.to_bits(), pred.to_bits(), "offline prediction diverged");
        assert_eq!(obias.to_bits(), bias.to_bits(), "offline bias diverged");
        assert_eq!(contribs.len(), ocontribs.len());
        for (i, (&c, &o)) in contribs.iter().zip(&ocontribs).enumerate() {
            assert_eq!(c.to_bits(), o.to_bits(), "contribution {i} diverged");
        }
        let top = v.field("top").unwrap().as_arr().unwrap().to_vec();
        assert_eq!(top.len(), 5.min(contribs.len()), "default top-k is 5");
    };

    let rows: Vec<Vec<f64>> = (0..12)
        .map(|i| (0..names.len()).map(|j| ((i * 3 + j) % 9) as f64 + 0.25).collect())
        .collect();
    for row in &rows {
        check_row(&mut client, row, "v1");
    }

    // Hot-swap to a v2 artifact; the attribution contract must follow
    // the new version without a beat skipped.
    std::fs::copy(dir.join("v1.json"), dir.join("v2.json")).expect("persist v2");
    let (status, body) = client.post("/reload", "").expect("reload");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("v2"), "{body}");
    for row in rows.iter().take(4) {
        check_row(&mut client, row, "v2");
    }

    // The alert ring answers with its document shape (the ring is
    // process-global, so other tests may already have raised into it).
    let (status, body) = client.get("/alerts").expect("alerts");
    assert_eq!(status, 200, "{body}");
    let a = JsonValue::parse(&body).expect("alerts json");
    a.field("alerts").unwrap().as_arr().expect("alerts array");
    a.field("raised").unwrap().as_usize().expect("raised count");

    // Prometheus exposition is reachable over the wire.
    let (status, body) = client.get("/metrics.prom").expect("prom");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE serve_requests counter"), "{body}");
    server.shutdown();
}

#[test]
fn explain_parity_and_alerts_threaded() {
    explain_parity_and_alerts(1, "explain-single-shard");
}

#[test]
fn explain_parity_and_alerts_event_loop() {
    explain_parity_and_alerts(ServeConfig::default().acceptors, "explain");
}

/// Sharded accept: with `SO_REUSEPORT` available (Linux) every acceptor
/// shard owns its own listener on the shared port, and traffic over many
/// fresh connections — which the kernel hashes across the shard
/// listeners — stays bitwise-faithful.
#[test]
fn reuseport_sharded_accept_serves_across_shards() {
    let (registry, offline) = quick_registry("reuseport-smoke");
    let cfg = ServeConfig { acceptors: 4, ..Default::default() };
    let server = EventLoopServer::start(registry, cfg).expect("start");
    #[cfg(target_os = "linux")]
    assert!(server.reuseport(), "Linux must get per-shard SO_REUSEPORT listeners");
    let names = server.registry().schema().names().to_vec();
    for i in 0..32 {
        let row: Vec<f64> = (0..names.len()).map(|j| ((i * 5 + j) % 11) as f64).collect();
        let mut client = HttpClient::connect(server.addr()).expect("connect");
        let (_, rate) = predict_one(&mut client, &names, &row);
        assert_eq!(rate.to_bits(), offline.predict_row(&row).to_bits(), "shard diverged");
    }
    server.shutdown();
}

#[test]
fn healthz_metrics_and_predict_routes() {
    let (registry, offline) = quick_registry("routes");
    let server = EventLoopServer::start(registry, ServeConfig::default()).expect("start");
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let v = JsonValue::parse(&body).unwrap();
    assert_eq!(v.field("version").unwrap().as_str().unwrap(), "v1");

    let names = server.registry().schema().names().to_vec();
    let features = JsonValue::Obj(
        names.iter().enumerate().map(|(i, n)| (n.clone(), JsonValue::Num(i as f64))).collect(),
    );
    let (status, body) = client.post("/predict", &features.to_string()).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = JsonValue::parse(&body).unwrap();
    let row: Vec<f64> = (0..names.len()).map(|i| i as f64).collect();
    assert_eq!(
        v.field("rate").unwrap().as_f64().unwrap().to_bits(),
        offline.predict_row(&row).to_bits(),
        "served != offline"
    );

    let (status, body) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    let v = JsonValue::parse(&body).unwrap();
    assert!(v.field("predictions").unwrap().as_usize().unwrap() >= 1);
    let eps = v.field("endpoints").unwrap();
    assert_eq!(eps.field("predict").unwrap().as_usize().unwrap(), 1);
    assert_eq!(eps.field("healthz").unwrap().as_usize().unwrap(), 1);
    assert!(eps.field("metrics").unwrap().as_usize().unwrap() >= 1);
    assert!(v.field("uptime_s").unwrap().as_f64().unwrap() >= 0.0);
    assert!(v.field("build").unwrap().field("version").is_ok());
    server.shutdown();
}

#[test]
fn bad_requests_are_client_errors_not_crashes() {
    let (registry, _) = quick_registry("bad-requests");
    let server = EventLoopServer::start(registry, ServeConfig::default()).expect("start");
    let mut c = HttpClient::connect(server.addr()).unwrap();
    for (body, expect_fragment) in [
        ("not json", "invalid"),
        ("[1,2,3]", "object"),
        ("{\"NotAFeature\": 1}", "unknown feature"),
        ("{\"Ksout\": \"fast\"}", "must be a number"),
        ("{\"Ksout\": 1e999}", "not finite"),
    ] {
        let (status, resp) = c.post("/predict", body).unwrap();
        assert_eq!(status, 400, "{body} -> {resp}");
        assert!(resp.contains(expect_fragment), "{body} -> {resp}");
    }
    let (status, _) = c.get("/nope").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn protocol_errors_are_counted_as_answered_requests() {
    let (registry, _) = quick_registry("protocol-errors");
    let server = EventLoopServer::start(registry, ServeConfig::default()).expect("start");
    // A malformed request line → 400 written, connection closed, and
    // the metrics must show requests == errors + ok, never
    // errors > requests (the old double-count family of bugs).
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let mut resp = String::new();
    raw.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

    let mut c = HttpClient::connect(server.addr()).unwrap();
    let (_, body) = c.get("/metrics").unwrap();
    let m = JsonValue::parse(&body).unwrap();
    let requests = m.field("requests").unwrap().as_usize().unwrap();
    let errors = m.field("errors").unwrap().as_usize().unwrap();
    let shed = m.field("shed").unwrap().as_usize().unwrap();
    assert!(errors >= 1, "protocol 400 must be counted: {body}");
    assert!(errors + shed <= requests, "error rate exceeds request rate: {body}");
    server.shutdown();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let (registry, _) = quick_registry("shutdown-route");
    let server = EventLoopServer::start(registry, ServeConfig::default()).expect("start");
    let mut c = HttpClient::connect(server.addr()).unwrap();
    let (status, _) = c.post("/shutdown", "").unwrap();
    assert_eq!(status, 200);
    assert!(server.stopping());
    server.shutdown();
    // Connections after shutdown fail (listener gone).
    assert!(
        HttpClient::connect(server.addr()).is_err() || {
            // The OS may accept briefly; a request must then fail.
            let mut c2 = HttpClient::connect(server.addr()).unwrap();
            c2.get("/healthz").is_err()
        }
    );
}

/// A second server on a fixed port that is already served must fail with
/// `AddrInUse`: through `SO_REUSEPORT` alone it would join the port, and
/// the kernel would split connections between the two processes.
#[test]
fn a_fixed_port_already_served_is_refused() {
    let (registry, _) = quick_registry("port-taken");
    let first = EventLoopServer::start(registry.clone(), ServeConfig::default()).expect("start");
    let cfg = ServeConfig { port: first.addr().port(), ..Default::default() };
    match EventLoopServer::start(registry, cfg) {
        Ok(second) => {
            second.shutdown();
            panic!("a second server joined port {}", first.addr().port());
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse, "{e}"),
    }
    first.shutdown();
}
