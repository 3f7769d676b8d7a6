//! # udt-eval — evaluation harness for the UDT reproduction
//!
//! This crate turns the building blocks of `udt-prob`, `udt-data` and
//! `udt-tree` into the experiments reported in the paper:
//!
//! * [`accuracy`] — accuracy metrics and confusion matrices;
//! * [`crossval`] — k-fold cross-validated accuracy of a configuration;
//! * [`experiments`] — one module per paper table/figure, each producing a
//!   serialisable result structure and a plain-text table;
//! * [`report`] — text-table rendering and JSON output shared by the
//!   experiments.
//!
//! [`experiments::reproduce`] runs every experiment once and
//! [`experiments::Reproduction::claims`] checks the paper's claims
//! against the rows. The `udt-eval` binary (`cargo run --release -p
//! udt-eval`) does both at [`experiments::settings::Settings::laptop`]
//! scale, prints every table, figure and claim, and writes
//! `results/reproduction.json`. To run at another scale, call
//! `reproduce` with your own `Settings`.

// Parallel-slice index loops mirror the paper's subscript notation and
// often index several arrays at once; iterator rewrites obscure that.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accuracy;
pub mod crossval;
pub mod experiments;
pub mod report;

pub use accuracy::{evaluate, EvalResult};
pub use crossval::{cross_validate, CrossValResult};
