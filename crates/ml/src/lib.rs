//! # wdt-ml — the machine-learning substrate, from scratch
//!
//! The paper's modeling stack, reimplemented in pure Rust (the "thin ML
//! ecosystem" substitution documented in DESIGN.md):
//!
//! * [`LinearRegression`] — OLS/ridge via normal equations (§5.1);
//! * [`Gbdt`] — second-order gradient-boosted regression trees with
//!   shrinkage, subsampling, and gain importance, standing in for XGBoost
//!   (§5.2). Trains on quantile-binned histograms ([`BinnedMatrix`]); an
//!   exact greedy trainer stays in the property tests as the parity
//!   oracle;
//! * [`metrics`] — MdAPE and friends (Figures 10, 11, 13);
//! * [`pearson`] / [`mic()`](mic()) — the linear and maximal-information
//!   correlations of Table 5;
//! * [`nelder_mead`] / [`WeibullCurve`] — the Figure 4 concurrency-curve
//!   fit.

pub mod binning;
pub mod correlation;
pub mod fitmetrics;
pub mod gbdt;
pub mod linalg;
pub mod linear;
pub mod metrics;
pub mod mic;
pub mod nodearray;
pub mod optimize;
pub mod tree;
pub mod validate;
pub mod weibull;

#[cfg(test)]
mod proptests;

pub use binning::{BinnedColumn, BinnedMatrix};
pub use correlation::pearson;
pub use gbdt::{Gbdt, GbdtParams};
pub use linear::LinearRegression;
pub use metrics::{
    abs_pct_errors, mape, mdape, pct_error_quantile, quantile, r2, rmse, ViolinSummary,
};
pub use mic::mic;
pub use nodearray::{exact_reconcile, NodeArrayForest};
pub use optimize::{nelder_mead, Minimum};
pub use tree::{RegressionTree, TreeParams};
pub use validate::{cross_validate, kfold_indices};
pub use weibull::WeibullCurve;
