//! Routing and response shaping for the HTTP front end.
//!
//! *What* a request means is defined here; `eventloop.rs` only moves
//! bytes and replies. [`route`] classifies a request (method/path/body as
//! byte slices into the connection's read buffer) into either an
//! immediately-renderable response or a prediction row for the batcher.
//! The caller supplies the row scratch, so the event loop can recycle row
//! vectors through its pool.
//!
//! Metrics discipline: `route` bumps only the per-endpoint counters. The
//! request/shed/error counters move in `ServerMetrics::on_response`,
//! which the front end calls exactly once per response it writes.
//!
//! Response bodies are `Cow<'static, str>`: the fixed messages
//! (overload shed, shutdown, deadline, size limits, non-finite guard)
//! are precomputed `&'static str`s so an error storm — the one time
//! response volume spikes — allocates nothing, while dynamic bodies
//! (metrics, healthz, per-message 400s) stay owned strings.

use crate::batcher::{Batcher, Prediction, SubmitError};
use crate::http::{HttpError, Method};
use crate::metrics::ServerMetrics;
use crate::registry::ModelRegistry;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wdt_types::json::{escape_into, format_f64};
use wdt_types::JsonValue;

/// A response body: static for the fixed messages, owned otherwise.
pub(crate) type Body = Cow<'static, str>;

/// `{"error":"overloaded"}` etc., precomputed. Each constant must equal
/// `error_body(<display text>)` — asserted in the tests below, so the
/// strings cannot drift from the `Display` impls they mirror.
pub(crate) const BODY_OVERLOADED: &str = "{\"error\":\"overloaded\"}";
pub(crate) const BODY_SHUTTING_DOWN: &str = "{\"error\":\"shutting down\"}";
pub(crate) const BODY_DEADLINE: &str = "{\"error\":\"request deadline expired\"}";
pub(crate) const BODY_HEADER_TOO_LARGE: &str = "{\"error\":\"header too large\"}";
pub(crate) const BODY_BODY_TOO_LARGE: &str = "{\"error\":\"body too large\"}";
pub(crate) const BODY_NON_FINITE: &str = "{\"error\":\"non-finite prediction\"}";

/// Shared state the front end's shards operate on.
pub(crate) struct Ctx {
    pub registry: Arc<ModelRegistry>,
    pub batcher: Arc<Batcher>,
    pub metrics: Arc<ServerMetrics>,
    pub stopping: Arc<AtomicBool>,
    /// How many top-|contribution| features `/explain` names explicitly.
    pub explain_top: usize,
}

/// What to do with a parsed request.
pub(crate) enum Routed {
    /// Fully-formed response: status, reason, JSON body.
    Done(u16, &'static str, Body),
    /// A `/predict` row admitted past validation into the caller's `row`
    /// scratch; the caller submits it to the batcher.
    Predict,
    /// An `/explain` row: same admission as `Predict`, but the caller
    /// requests per-feature attributions alongside the prediction.
    Explain,
}

/// Dispatch one request. Admin endpoints are answered inline; `/predict`
/// is parsed into `row` here but submitted by the caller.
pub(crate) fn route(
    method: Method,
    method_bytes: &[u8],
    path: &[u8],
    body: &[u8],
    ctx: &Ctx,
    row: &mut Vec<f64>,
) -> Routed {
    // Method/path reached us through the head's UTF-8 check; the lossy
    // conversion never actually copies.
    let method_str = std::str::from_utf8(method_bytes).unwrap_or("?");
    let path_str = std::str::from_utf8(path).unwrap_or("?");
    ctx.metrics.on_route(method_str, path_str);
    match (method, path) {
        (Method::Post, b"/predict") => {
            match crate::rowscan::scan_feature_row(body, ctx.registry.schema(), row) {
                Ok(()) => Routed::Predict,
                Err(msg) => Routed::Done(400, "Bad Request", error_body(&msg).into()),
            }
        }
        (Method::Post, b"/explain") => {
            match crate::rowscan::scan_feature_row(body, ctx.registry.schema(), row) {
                Ok(()) => Routed::Explain,
                Err(msg) => Routed::Done(400, "Bad Request", error_body(&msg).into()),
            }
        }
        (Method::Get, b"/alerts") => {
            Routed::Done(200, "OK", wdt_obs::AlertSink::global().to_json().to_string().into())
        }
        (Method::Get, b"/metrics.prom") => {
            // Server-local serve.* series plus the process-global
            // registry (alert counters, sim/ingest metrics); name
            // prefixes keep the two namespaces disjoint.
            let mut text = ctx.metrics.to_prometheus();
            text.push_str(&wdt_obs::Registry::global().to_prometheus());
            Routed::Done(200, "OK", text.into())
        }
        (Method::Get, b"/healthz") => {
            let version = ctx.registry.current().version.clone();
            let body = JsonValue::obj([
                ("status", JsonValue::Str("ok".into())),
                ("version", JsonValue::Str(version)),
            ])
            .to_string();
            Routed::Done(200, "OK", body.into())
        }
        (Method::Get, b"/metrics") => {
            let mut m = ctx.metrics.to_json();
            if let JsonValue::Obj(map) = &mut m {
                map.insert("queue_depth".into(), JsonValue::Num(ctx.batcher.queue_depth() as f64));
                map.insert(
                    "version".into(),
                    JsonValue::Str(ctx.registry.current().version.clone()),
                );
            }
            Routed::Done(200, "OK", m.to_string().into())
        }
        (Method::Post, b"/reload") => match ctx.registry.reload() {
            Ok(version) => {
                let body = JsonValue::obj([("version", JsonValue::Str(version))]).to_string();
                Routed::Done(200, "OK", body.into())
            }
            Err(e) => Routed::Done(500, "Internal Server Error", error_body(&e.to_string()).into()),
        },
        (Method::Post, b"/shutdown") => {
            ctx.stopping.store(true, Ordering::SeqCst);
            Routed::Done(
                200,
                "OK",
                JsonValue::obj([("status", JsonValue::Str("stopping".into()))]).to_string().into(),
            )
        }
        _ => Routed::Done(
            404,
            "Not Found",
            error_body(&format!("no route {method_str} {path_str}")).into(),
        ),
    }
}

/// Append the wire body for a completed prediction to `out` —
/// `{"batch_size":N,"rate":R,"version":"V"}`, the exact bytes the
/// sorted-map `JsonValue` rendering produced (same key order, same
/// [`format_f64`] number spelling, same [`escape_into`] escaping), but
/// into a reusable buffer. Callers must have handled the non-finite
/// guard first.
pub(crate) fn prediction_body(p: &Prediction, out: &mut String) {
    out.push_str("{\"batch_size\":");
    format_f64(p.batch_size as f64, out);
    out.push_str(",\"rate\":");
    format_f64(p.rate, out);
    out.push_str(",\"version\":");
    escape_into(&p.version, out);
    out.push('}');
}

/// Append the wire body for an explained prediction to `out` — flat
/// JSON, alphabetical keys, no nested objects (the body contains exactly
/// one `}`, which response-framing test clients rely on):
/// `{"bias":B,"contributions":[…],"features":[…],"prediction":P,`
/// `"top":[["name",c],…],"version":"V"}`. `contributions` is complete
/// and ordered like `features` (the model's kept columns), so
/// `bias + Σ contributions` folds to `prediction` bitwise; `top` names
/// the `top` largest-|contribution| features for human eyes. Callers
/// must have handled the non-finite guard first.
pub(crate) fn explain_body(p: &Prediction, top: usize, out: &mut String) {
    let e = p.explain.as_ref().expect("explain body without an explanation");
    out.push_str("{\"bias\":");
    format_f64(e.bias, out);
    out.push_str(",\"contributions\":[");
    for (i, c) in e.contributions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        format_f64(*c, out);
    }
    out.push_str("],\"features\":[");
    let names = e.model.model.feature_names();
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(n, out);
    }
    out.push_str("],\"prediction\":");
    format_f64(p.rate, out);
    out.push_str(",\"top\":[");
    // Selection without allocation: repeated strict-`>` max scans over a
    // bitmask of already-chosen slots (first index wins ties). The mask
    // caps candidates at 128 features — far beyond any real schema.
    let k = top.min(e.contributions.len()).min(128);
    let mut chosen: u128 = 0;
    for rank in 0..k {
        let mut best: Option<usize> = None;
        for (j, c) in e.contributions.iter().enumerate().take(128) {
            if chosen & (1u128 << j) != 0 {
                continue;
            }
            if best.is_none_or(|b| c.abs() > e.contributions[b].abs()) {
                best = Some(j);
            }
        }
        let Some(j) = best else { break };
        chosen |= 1u128 << j;
        if rank > 0 {
            out.push(',');
        }
        out.push('[');
        escape_into(&names[j], out);
        out.push(',');
        format_f64(e.contributions[j], out);
        out.push(']');
    }
    out.push_str("],\"version\":");
    escape_into(&p.version, out);
    out.push('}');
}

/// Response for a refused batcher submission.
pub(crate) fn submit_error_response(e: &SubmitError) -> (u16, &'static str, Body) {
    match e {
        SubmitError::Overloaded => (503, "Service Unavailable", BODY_OVERLOADED.into()),
        SubmitError::ShuttingDown => (503, "Service Unavailable", BODY_SHUTTING_DOWN.into()),
    }
}

/// Response for a protocol error, answered before the connection closes.
pub(crate) fn protocol_error_response(e: &HttpError) -> (u16, &'static str, Body) {
    match e {
        HttpError::Deadline => (408, "Request Timeout", BODY_DEADLINE.into()),
        HttpError::TooLarge("header") => (413, "Payload Too Large", BODY_HEADER_TOO_LARGE.into()),
        HttpError::TooLarge(_) => (413, "Payload Too Large", BODY_BODY_TOO_LARGE.into()),
        HttpError::Malformed(_) => (400, "Bad Request", error_body(&e.to_string()).into()),
    }
}

pub(crate) fn error_body(msg: &str) -> String {
    JsonValue::obj([("error", JsonValue::Str(msg.to_string()))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The precomputed static bodies must be byte-identical to what the
    /// dynamic path would have produced from the corresponding message.
    #[test]
    fn static_bodies_match_dynamic_rendering() {
        assert_eq!(BODY_OVERLOADED, error_body("overloaded"));
        assert_eq!(BODY_SHUTTING_DOWN, error_body("shutting down"));
        assert_eq!(BODY_DEADLINE, error_body(&HttpError::Deadline.to_string()));
        assert_eq!(BODY_HEADER_TOO_LARGE, error_body(&HttpError::TooLarge("header").to_string()));
        assert_eq!(BODY_BODY_TOO_LARGE, error_body(&HttpError::TooLarge("body").to_string()));
        assert_eq!(BODY_NON_FINITE, error_body("non-finite prediction"));
    }

    /// `prediction_body` must render the exact bytes the `JsonValue`
    /// tree used to produce (sorted keys, shared number formatting).
    #[test]
    fn prediction_body_matches_tree_rendering() {
        for rate in [12.5, -0.0, 3.0, 1.0e-7, 123456789.25] {
            let p = Prediction {
                rate,
                version: "v0001-quoted\"x".into(),
                batch_size: 17,
                explain: None,
            };
            let mut got = String::new();
            prediction_body(&p, &mut got);
            let want = JsonValue::obj([
                ("rate", JsonValue::Num(p.rate)),
                ("version", JsonValue::Str(p.version.to_string())),
                ("batch_size", JsonValue::Num(p.batch_size as f64)),
            ])
            .to_string();
            assert_eq!(got, want, "body mismatch at rate {rate}");
        }
    }

    /// The `/explain` body must be flat (exactly one `}`, for framing by
    /// brace counting), parse as JSON, and fold back to the served
    /// prediction bitwise.
    #[test]
    fn explain_body_is_flat_and_folds_to_prediction() {
        use crate::batcher::Explanation;
        use crate::registry::LoadedModel;
        use wdt_features::Dataset;
        use wdt_model::{FitConfig, FittedModel, ModelKind};

        let names = vec!["alpha".to_string(), "beta".to_string(), "gamma".to_string()];
        let x: Vec<Vec<f64>> =
            (0..80).map(|i| vec![(i % 7) as f64, (i % 5) as f64, (i % 3) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] - r[1] + 0.5 * r[2]).collect();
        let model =
            FittedModel::fit(&Dataset::new(names, x, y), ModelKind::Gbdt, &FitConfig::default())
                .unwrap();
        let row = vec![3.0, 1.0, 2.0];
        let (bias, pred, contribs) = model.explain_row(&row);
        let loaded = Arc::new(LoadedModel::new("v9".into(), model));
        let p = Prediction {
            rate: pred,
            version: "v9".into(),
            batch_size: 1,
            explain: Some(Explanation { bias, contributions: contribs, model: loaded }),
        };
        let mut body = String::new();
        explain_body(&p, 2, &mut body);
        assert_eq!(body.bytes().filter(|&b| b == b'}').count(), 1, "{body}");
        let v = JsonValue::parse(&body).unwrap();
        let bias = v.field("bias").unwrap().as_f64().unwrap();
        let contribs = v.field("contributions").unwrap().as_f64_vec().unwrap();
        let fold = contribs.iter().fold(bias, |a, &c| a + c);
        let served = v.field("prediction").unwrap().as_f64().unwrap();
        assert_eq!(fold.to_bits(), served.to_bits(), "{body}");
        assert_eq!(v.field("features").unwrap().as_string_vec().unwrap().len(), contribs.len());
        let top = v.field("top").unwrap().as_arr().unwrap();
        assert_eq!(top.len(), 2);
        // Top entries are [name, contribution] pairs, largest |c| first.
        let c0 = top[0].as_arr().unwrap()[1].as_f64().unwrap();
        let c1 = top[1].as_arr().unwrap()[1].as_f64().unwrap();
        assert!(c0.abs() >= c1.abs(), "{body}");
        assert_eq!(v.field("version").unwrap().as_str().unwrap(), "v9");
    }
}
