//! # wdt-sim — a discrete-event wide-area transfer simulator
//!
//! This crate stands in for the two things the paper has that we cannot:
//! five years of Globus production logs and the ESnet hardware testbed. It
//! simulates fleets of endpoints (data transfer nodes with NICs, CPUs, and
//! storage systems), GridFTP transfer semantics (concurrency, parallelism,
//! startup and per-file costs, integrity checksumming), wide-area network
//! paths, *hidden* non-Globus background load, and load-dependent faults —
//! and emits exactly the log records the Globus service would
//! ([`wdt_types::TransferRecord`]).
//!
//! ## Fluid-flow discrete-event core
//!
//! Transfers are fluid flows. Between events, every active flow moves data
//! at a constant rate; at every event that can change a rate (a flow
//! starting or finishing its data phase, a fault, or a capacity change a
//! running flow draws on) the rates of *all* running flows are recomputed
//! by weighted progressive filling (max–min fairness) across the resources
//! they share:
//!
//! * source storage read bandwidth and destination storage write bandwidth
//!   (with I/O-concurrency contention curves),
//! * source/destination NIC capacity (per direction),
//! * source/destination CPU (GridFTP processes + checksum cost, with an
//!   oversubscription penalty),
//! * the flow's own TCP ceiling (Mathis model × its parallel streams).
//!
//! This makes the transfer rate an *emergent*, nonlinear function of
//! everything sharing the endpoints — the exact inference problem the
//! paper's models face.
//!
//! ## Instruments
//!
//! [`instruments`] provides the measurement campaigns the paper runs:
//! `/dev/zero → disk`, `disk → /dev/null`, and memory-to-memory transfers
//! (Table 1, perfSONAR/iperf3), and an LMT-style storage monitor (§5.5.2).

pub mod alloc;
pub mod background;
pub mod check;
pub mod config;
pub mod endpoint;
pub mod engine;
pub mod event;
pub mod instruments;
pub mod lmt;
pub mod modulation;
mod proptests;
pub mod testbed;

pub use alloc::{allocate, allocate_into, AllocScratch, FlowDemand, ResourceKind};
pub use background::{BackgroundProcess, BgKind};
pub use check::{check_allocation, compare_with_reference, reference_allocate, Violation};
pub use config::SimConfig;
pub use endpoint::{Endpoint, EndpointCatalog};
pub use engine::{PhaseNanos, SimOutput, SimStats, Simulator, TransferMode};
pub use lmt::{LmtMonitor, LmtSample};
pub use modulation::{CapacitySchedule, CapacityWindow, ResFactors};
pub use testbed::{esnet_testbed, EsnetSite};
