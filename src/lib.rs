//! # wdt — explaining wide-area data transfer performance
//!
//! A Rust reproduction of *“Explaining Wide Area Data Transfer
//! Performance”* (Liu, Balaprakash, Kettimuthu, Foster — HPDC ’17): learn
//! transfer-rate models from transfer-service logs alone, with engineered
//! features for competing load at the endpoints.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`types`] — ids, units, log records, seeding;
//! * [`geo`] — sites, great-circle distance, RTT estimation;
//! * [`net`] — TCP throughput models (Mathis/Padhye, parallel streams);
//! * [`storage`] — parallel-filesystem model (contention, Lustre OST/OSS);
//! * [`sim`] — the discrete-event wide-area transfer simulator that stands
//!   in for the proprietary Globus production trace and the ESnet testbed;
//! * [`workload`] — synthetic Globus-like fleet and request generation;
//! * [`features`] — the paper's §4 feature engineering (overlap-scaled
//!   contending rates, GridFTP instance counts, TCP stream counts, …);
//! * [`ml`] — from-scratch linear regression, gradient-boosted trees,
//!   MdAPE/metrics, Pearson & MIC, Nelder–Mead, Weibull fitting;
//! * [`model`] — the paper's models: the analytical bound (Eq. 1),
//!   per-edge and global regression pipelines, and the LMT augmentation;
//! * [`serve`] — the online prediction service: versioned model registry
//!   with atomic hot-swap, micro-batched inference with admission
//!   control, an HTTP/1.1 front end, and closed/open-loop load
//!   generation.
//!
//! ## Quickstart
//!
//! ```
//! use wdt::prelude::*;
//!
//! // A two-endpoint world with one transfer.
//! let mut catalog = EndpointCatalog::new();
//! for (i, site) in ["ANL", "NERSC"].iter().enumerate() {
//!     let loc = SiteCatalog::by_name(site).unwrap().location;
//!     catalog.push(Endpoint::server(
//!         EndpointId(i as u32), format!("{site}#dtn"), *site, loc,
//!         2, Rate::gbit(10.0),
//!         StorageSystem::facility(Rate::gbit(12.0), Rate::gbit(9.0)),
//!     ));
//! }
//! let mut sim = Simulator::new(catalog, SimConfig::default(), &SeedSeq::new(7));
//! sim.submit(TransferRequest {
//!     id: TransferId(0),
//!     src: EndpointId(0),
//!     dst: EndpointId(1),
//!     submit: SimTime::ZERO,
//!     bytes: Bytes::gb(100.0),
//!     files: 1000,
//!     dirs: 10,
//!     concurrency: 4,
//!     parallelism: 4,
//!     checksum: true,
//! });
//! let out = sim.run();
//! assert_eq!(out.records.len(), 1);
//! assert!(out.records[0].rate().as_mbps() > 50.0);
//! ```

pub use wdt_features as features;
pub use wdt_geo as geo;
pub use wdt_ml as ml;
pub use wdt_model as model;
pub use wdt_net as net;
pub use wdt_serve as serve;
pub use wdt_sim as sim;
pub use wdt_storage as storage;
pub use wdt_types as types;
pub use wdt_workload as workload;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use wdt_features::{extract_features, threshold_filter, Dataset, TransferFeatures};
    pub use wdt_geo::SiteCatalog;
    pub use wdt_ml::{mdape, Gbdt, GbdtParams, LinearRegression};
    pub use wdt_model::{
        FitConfig, FittedModel, GlobalModel, ModelKind, PerEdgeConfig, SubsystemCeilings,
    };
    pub use wdt_sim::{
        BackgroundProcess, BgKind, Endpoint, EndpointCatalog, SimConfig, Simulator, TransferMode,
    };
    pub use wdt_storage::StorageSystem;
    pub use wdt_types::{
        Bytes, EdgeId, EndpointId, Rate, SeedSeq, SimTime, TransferId, TransferRecord,
        TransferRequest,
    };
    pub use wdt_workload::{ArrivalMix, Burst, FleetSpec, Workload, WorkloadSpec};
}
