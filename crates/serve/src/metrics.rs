//! Server-side metrics, backed by a per-server [`wdt_obs::Registry`].
//!
//! Each [`ServerMetrics`] owns its registry — deliberately *not*
//! [`Registry::global`], because the test suite runs several servers in
//! one process and their counts must not bleed into each other. Hot-path
//! handles (counters, histograms) are cached as public fields at
//! construction, so recording is still a handful of relaxed atomic
//! operations with no name lookup. Latencies are in microseconds.
//!
//! `GET /metrics` keeps its original top-level field names (`requests`,
//! `predictions`, `shed`, `errors`, `request_latency_us`,
//! `predict_latency_us`, `batch_size`) and adds `endpoints` (per-route
//! request counts), `uptime_s`, and `build` (crate name + version). The
//! same registry also renders Prometheus text via
//! [`ServerMetrics::to_prometheus`].

use std::time::Instant;
use wdt_obs::{Counter, Gauge, Registry};
use wdt_types::{Histogram, JsonValue};

/// Aggregated service metrics; handles into an owned registry.
#[derive(Debug)]
pub struct ServerMetrics {
    /// HTTP requests accepted (any endpoint, any outcome).
    pub requests: Counter,
    /// Successful predictions returned.
    pub predictions: Counter,
    /// Requests shed by admission control (queue full → 503).
    pub shed: Counter,
    /// Client or server errors (malformed body, unknown route, …).
    pub errors: Counter,
    /// End-to-end request latency, µs (parse → response written).
    pub request_latency_us: std::sync::Arc<Histogram>,
    /// Time a prediction spends queued + batched + predicted, µs.
    pub predict_latency_us: std::sync::Arc<Histogram>,
    /// Size of each executed inference batch.
    pub batch_size: std::sync::Arc<Histogram>,
    /// Inference queue depth, updated by the batcher on enqueue/drain.
    pub queue_depth: Gauge,
    ep_predict: Counter,
    ep_explain: Counter,
    ep_healthz: Counter,
    ep_metrics: Counter,
    ep_alerts: Counter,
    ep_reload: Counter,
    ep_shutdown: Counter,
    ep_other: Counter,
    registry: Registry,
    started: Instant,
}

impl ServerMetrics {
    /// Fresh, all-zero metrics over a private registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        ServerMetrics {
            requests: registry.counter("serve.requests"),
            predictions: registry.counter("serve.predictions"),
            shed: registry.counter("serve.shed"),
            errors: registry.counter("serve.errors"),
            request_latency_us: registry.histogram("serve.request_latency_us"),
            predict_latency_us: registry.histogram("serve.predict_latency_us"),
            batch_size: registry.histogram("serve.batch_size"),
            queue_depth: registry.gauge("serve.queue_depth"),
            ep_predict: registry.counter("serve.endpoint.predict"),
            ep_explain: registry.counter("serve.endpoint.explain"),
            ep_healthz: registry.counter("serve.endpoint.healthz"),
            ep_metrics: registry.counter("serve.endpoint.metrics"),
            ep_alerts: registry.counter("serve.endpoint.alerts"),
            ep_reload: registry.counter("serve.endpoint.reload"),
            ep_shutdown: registry.counter("serve.endpoint.shutdown"),
            ep_other: registry.counter("serve.endpoint.other"),
            registry,
            started: Instant::now(),
        }
    }

    /// The registry behind the handles (Prometheus exposition, tests).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Count one *answered* response. This is the only place the request
    /// and error counters move, and the front end calls it exactly once
    /// per response it writes — protocol-level 400/408/413s included — so
    /// `requests >= shed + errors` holds by construction. Connections
    /// that die without a response (peer hangup, socket error) are
    /// counted nowhere.
    pub fn on_response(&self, status: u16) {
        self.requests.inc();
        if status == 503 {
            self.shed.inc();
            // Alert on the *onset* of a shed burn and every 1000 sheds
            // thereafter — never per-503, so an overload storm does not
            // pay a message allocation per shed response. Consecutive
            // repeats dedup-merge in the sink anyway.
            let n = self.shed.get();
            if n == 1 || n.is_multiple_of(1000) {
                wdt_obs::AlertSink::global().raise(
                    wdt_obs::AlertKind::ShedBurn,
                    wdt_obs::Severity::Warning,
                    format!("admission control shedding ({n} total)"),
                    n as f64,
                    None,
                );
            }
        } else if status >= 400 {
            self.errors.inc();
        }
    }

    /// Count one request against its route's endpoint counter.
    pub fn on_route(&self, method: &str, path: &str) {
        match (method, path) {
            ("POST", "/predict") => self.ep_predict.inc(),
            ("POST", "/explain") => self.ep_explain.inc(),
            ("GET", "/healthz") => self.ep_healthz.inc(),
            ("GET", "/metrics") | ("GET", "/metrics.prom") => self.ep_metrics.inc(),
            ("GET", "/alerts") => self.ep_alerts.inc(),
            ("POST", "/reload") => self.ep_reload.inc(),
            ("POST", "/shutdown") => self.ep_shutdown.inc(),
            _ => self.ep_other.inc(),
        }
    }

    /// Count one served prediction with its end-to-end latency.
    pub fn on_prediction(&self, latency_us: u64) {
        self.predictions.inc();
        self.request_latency_us.record(latency_us);
    }

    /// Snapshot as the `/metrics` JSON document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("requests", JsonValue::Num(self.requests.get() as f64)),
            ("predictions", JsonValue::Num(self.predictions.get() as f64)),
            ("shed", JsonValue::Num(self.shed.get() as f64)),
            ("errors", JsonValue::Num(self.errors.get() as f64)),
            ("request_latency_us", self.request_latency_us.summary_json()),
            ("predict_latency_us", self.predict_latency_us.summary_json()),
            ("batch_size", self.batch_size.summary_json()),
            (
                "endpoints",
                JsonValue::obj([
                    ("predict", JsonValue::Num(self.ep_predict.get() as f64)),
                    ("explain", JsonValue::Num(self.ep_explain.get() as f64)),
                    ("healthz", JsonValue::Num(self.ep_healthz.get() as f64)),
                    ("metrics", JsonValue::Num(self.ep_metrics.get() as f64)),
                    ("alerts", JsonValue::Num(self.ep_alerts.get() as f64)),
                    ("reload", JsonValue::Num(self.ep_reload.get() as f64)),
                    ("shutdown", JsonValue::Num(self.ep_shutdown.get() as f64)),
                    ("other", JsonValue::Num(self.ep_other.get() as f64)),
                ]),
            ),
            ("uptime_s", JsonValue::Num(self.started.elapsed().as_secs_f64())),
            (
                "build",
                JsonValue::obj([
                    ("name", JsonValue::Str(env!("CARGO_PKG_NAME").to_string())),
                    ("version", JsonValue::Str(env!("CARGO_PKG_VERSION").to_string())),
                ]),
            ),
        ])
    }

    /// Prometheus text exposition of every serve metric.
    pub fn to_prometheus(&self) -> String {
        self.registry.to_prometheus()
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_snapshot_serializes() {
        let m = ServerMetrics::new();
        m.on_response(200);
        m.on_route("POST", "/predict");
        m.on_prediction(250);
        m.on_response(503);
        m.on_route("GET", "/nope");
        m.batch_size.record(2);
        let v = JsonValue::parse(&m.to_json().to_string()).unwrap();
        assert_eq!(v.field("requests").unwrap().as_usize().unwrap(), 2);
        assert_eq!(v.field("predictions").unwrap().as_usize().unwrap(), 1);
        assert_eq!(v.field("shed").unwrap().as_usize().unwrap(), 1);
        let lat = v.field("request_latency_us").unwrap();
        assert_eq!(lat.field("count").unwrap().as_usize().unwrap(), 1);
        assert!(lat.field("p99").unwrap().as_f64().unwrap() > 0.0);
        let eps = v.field("endpoints").unwrap();
        assert_eq!(eps.field("predict").unwrap().as_usize().unwrap(), 1);
        assert_eq!(eps.field("other").unwrap().as_usize().unwrap(), 1);
        assert_eq!(eps.field("healthz").unwrap().as_usize().unwrap(), 0);
        assert!(v.field("uptime_s").unwrap().as_f64().unwrap() >= 0.0);
        let build = v.field("build").unwrap();
        assert_eq!(build.field("version").unwrap().as_str().unwrap(), env!("CARGO_PKG_VERSION"));
    }

    #[test]
    fn every_answered_status_counts_exactly_one_request() {
        let m = ServerMetrics::new();
        for status in [200, 200, 400, 404, 408, 413, 500, 503] {
            m.on_response(status);
        }
        assert_eq!(m.requests.get(), 8);
        assert_eq!(m.shed.get(), 1, "503 is shed, not error");
        assert_eq!(m.errors.get(), 5, "4xx/5xx except 503");
        assert!(m.shed.get() + m.errors.get() <= m.requests.get());
    }

    #[test]
    fn separate_servers_do_not_share_counters() {
        let a = ServerMetrics::new();
        let b = ServerMetrics::new();
        a.on_response(200);
        a.on_response(200);
        assert_eq!(a.requests.get(), 2);
        assert_eq!(b.requests.get(), 0);
    }

    #[test]
    fn prometheus_exposition_covers_serve_metrics() {
        let m = ServerMetrics::new();
        m.on_response(200);
        m.queue_depth.set(3.0);
        m.batch_size.record(4);
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE serve_requests counter\nserve_requests 1\n"), "{text}");
        assert!(text.contains("serve_queue_depth 3\n"), "{text}");
        assert!(text.contains("serve_batch_size_count 1"), "{text}");
    }
}
