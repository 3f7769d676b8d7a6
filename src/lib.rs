//! Workspace facade for the UDT reproduction (Tsang, Kao, Yip, Ho, Lee —
//! *Decision Trees for Uncertain Data*, ICDE 2009).
//!
//! This crate only re-exports the member crates so that the
//! workspace-level integration tests under `tests/` and the examples
//! under `examples/` have a single dependency root. The real code lives
//! in:
//!
//! * [`udt_prob`] — pdf representation and probability helpers;
//! * [`udt_data`] — datasets, uncertainty injection, synthetic generators;
//! * [`udt_tree`] — the decision-tree builder and the UDT split-search
//!   family (including the columnar split engine);
//! * [`udt_serve`] — the serving subsystem (hot-swap model registry,
//!   classification gate, NDJSON-over-TCP server/client);
//! * [`udt_eval`] — the paper's experiments (tables and figures).

pub use udt_data;
pub use udt_eval;
pub use udt_prob;
pub use udt_serve;
pub use udt_tree;
