//! # udt-data — data model and data-set substrate for uncertain decision trees
//!
//! This crate supplies everything the tree-construction crate consumes:
//!
//! * the **uncertain data model** of §3 of the paper — attributes
//!   ([`Attribute`]), uncertain values ([`UncertainValue`]), labelled tuples
//!   ([`Tuple`]) and data sets ([`Dataset`]);
//! * **uncertainty injection** (§4.3): converting a point-valued data set
//!   into an uncertain one by fitting a Gaussian or uniform error model of
//!   relative width `w` discretised to `s` sample points
//!   ([`uncertainty::inject_uncertainty`]);
//! * **controlled noise perturbation** (§4.4): adding Gaussian noise of
//!   relative magnitude `u` to point values before uncertainty is modelled
//!   ([`noise::perturb`]);
//! * **synthetic data-set generators** standing in for the ten UCI data
//!   sets of Table 2 ([`repository`]), including a raw-repeated-measurement
//!   generator mirroring the "JapaneseVowel" data set;
//! * the **hand-crafted example** of Table 1 ([`toy`]), used by the worked
//!   examples and integration tests;
//! * **evaluation splits**: train/test splits and k-fold cross validation
//!   ([`split`]).

// Negated float comparisons (`!(x > 0.0)`) are deliberate NaN guards
// throughout this crate: a NaN parameter must take the rejection branch.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Parallel-slice index loops mirror the paper's subscript notation and
// often index several arrays at once; iterator rewrites obscure that.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attribute;
pub mod dataset;
pub mod error;
pub mod noise;
pub mod randn;
pub mod repository;
pub mod split;
pub mod synthetic;
pub mod toy;
pub mod tuple;
pub mod uncertainty;
pub mod value;

pub use attribute::{Attribute, AttributeKind, Schema};
pub use dataset::Dataset;
pub use error::DataError;
pub use tuple::Tuple;
pub use value::UncertainValue;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DataError>;
