//! # wdt-bench — experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index). This library holds the shared machinery: the standard synthetic
//! "production log" (generated once and cached on disk, since the
//! simulation takes a while), table formatting, and experiment output
//! helpers.
//!
//! Run any experiment with
//! `cargo run --release -p wdt-bench --bin <experiment>`.

pub mod campaign;
pub mod scenario_campaign;
pub mod table;

pub use campaign::CampaignOutput;
pub use scenario_campaign::{standard_campaign, standard_log, ScenarioCampaign, StreamSummary};
pub use table::TableWriter;
