//! # udt-prob — probability substrate for uncertain-data decision trees
//!
//! This crate provides the numerical probability machinery required by the
//! UDT family of algorithms from *"Decision Trees for Uncertain Data"*
//! (Tsang, Kao, Yip, Ho, Lee — ICDE 2009 / TKDE 2011):
//!
//! * [`SampledPdf`] — the paper's numerical pdf representation: `s` sample
//!   points over a bounded interval `[a, b]` and their masses (§3.2 of the
//!   paper). Interval probabilities are running sums over the masses.
//! * [`ErrorModel`] — the Gaussian and uniform error models used to inject
//!   controlled uncertainty into point-valued data sets (§4.3).
//! * [`DiscreteDist`] — discrete distributions for uncertain categorical
//!   attributes (§7.2).
//! * [`quantile`] — percentile pseudo-end-points for unbounded pdfs (§7.3).
//! * [`stats`] — small numeric helpers (erf, mean/variance, confidence
//!   intervals) shared across the workspace.
//!
//! All structures are deterministic and `Send + Sync`; randomness only
//! enters through explicitly seeded `rand` RNGs in the callers.

// Negated float comparisons (`!(x > 0.0)`) are deliberate NaN guards
// throughout this crate: a NaN parameter must take the rejection branch.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod discrete;
pub mod error;
pub mod model;
pub mod pdf;
pub mod quantile;
pub mod stats;

pub use discrete::DiscreteDist;
pub use error::ProbError;
pub use model::ErrorModel;
pub use pdf::SampledPdf;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ProbError>;
