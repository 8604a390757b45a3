//! # wdt-features — feature engineering from transfer logs
//!
//! Implements the paper's §4: turning raw Globus-style log records into the
//! features of Table 2, using nothing but the log itself.
//!
//! * [`extract_features`] — the competing-load features (`K*`, `G*`, `S*`)
//!   via overlap-scaled sums (Eq. 2), computed in `O(n log n)` with
//!   per-endpoint step-function integrals built one endpoint at a time
//!   ([`featurize_by_endpoint`], which the streaming window shares), plus
//!   transfer characteristics.
//! * [`edges`] — per-edge statistics, the §3.2 census, `Rmax(E)` and the
//!   `R ≥ T·Rmax` threshold filter of §4.3.2.
//! * [`endpoint_caps()`](endpoint_caps()) — the §5.4 `ROmax`/`RImax` endpoint capability
//!   features that let one model serve all edges.
//! * [`matrix`] — dataset assembly: z-score normalization fit on training
//!   data, low-variance feature elimination (the fate of C and P), and the
//!   70/30 split.
//! * [`concurrency`] — the Figure 4 sweep: instantaneous GridFTP instance
//!   count vs aggregate incoming rate at an endpoint.

pub mod concurrency;
pub mod edges;
pub mod endpoint_caps;
pub mod matrix;
pub mod step;
pub mod transfer_features;

pub use concurrency::{bucket_by_concurrency, concurrency_profile, ConcurrencySample};
pub use edges::{
    edge_census, edge_stats, eligible_edges, group_by_edge, rate_floors, threshold_filter,
    EdgeStats,
};
pub use endpoint_caps::{endpoint_caps, extend_with_caps, extended_feature_names, EndpointCaps};
pub use matrix::{Dataset, Normalizer};
pub use step::StepIntegral;
pub use transfer_features::{
    extract_features, featurize_by_endpoint, interval_contribution, EndpointProfiles,
    IntervalContribution, TransferFeatures, FEATURE_NAMES, NFLT_INDEX,
};
