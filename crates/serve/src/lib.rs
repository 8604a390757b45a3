//! # wdt-serve — online transfer-rate prediction service
//!
//! The operational face of the paper's models: a scheduler that must
//! decide *now* whether to start, defer, or re-tune a transfer asks this
//! service "what rate will this transfer get?" and receives a prediction
//! from the currently-deployed [`FittedModel`](wdt_model::FittedModel)
//! artifact in well under a millisecond.
//!
//! The subsystem is deliberately built on `std::net` alone — no async
//! runtime, no HTTP framework — consistent with the workspace's
//! vendored-dependency policy. Four layers:
//!
//! * [`registry`] — versioned model artifacts on disk, validated against
//!   the serving feature schema, atomically hot-swappable while requests
//!   are in flight;
//! * [`batcher`] — a bounded submission queue that coalesces concurrent
//!   single predictions into batched `predict` calls, and sheds load
//!   explicitly when full;
//! * [`eventloop`] — the hand-rolled HTTP/1.1 front end (keep-alive,
//!   pipelining, graceful shutdown; routes in its module docs) on a
//!   nonblocking readiness event loop (`poll(2)` via [`shim`]): a fixed
//!   number of poller shards multiplex all connections, so idle
//!   keep-alive clients cost bytes, not threads;
//! * [`loadgen`] — closed- and open-loop load generation over real
//!   sockets, reporting throughput and latency percentiles.
//!
//! Determinism contract: a served prediction is **bitwise identical** to
//! `FittedModel::predict` on the same row offline. Feature values and the
//! predicted rate cross the wire as shortest-round-trip JSON numbers
//! (`wdt_types::json`), which reparse to the same `f64` bit pattern, and
//! batching never changes per-row arithmetic.

pub mod batcher;
pub mod client;
pub mod eventloop;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod registry;
mod routes;
mod rowscan;
pub mod shim;

pub use batcher::{BatchConfig, Batcher, Explanation, Prediction, SubmitError};
pub use client::HttpClient;
pub use eventloop::{EventLoopServer, ServeConfig};
pub use http::{RequestParser, DEFAULT_REQUEST_DEADLINE};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenMode, LoadgenReport};
pub use metrics::ServerMetrics;
pub use registry::{LoadedModel, ModelRegistry, RegistryError, ServeSchema};
