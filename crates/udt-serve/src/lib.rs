//! # udt-serve — a batched, multi-threaded serving layer for UDT models
//!
//! The training side of this workspace produces [`udt_tree::DecisionTree`]
//! arenas that classify fastest when driven through
//! [`udt_tree::classify_batch`] with a long-lived
//! [`udt_tree::BatchScratch`]. This crate turns that calling convention
//! into a long-lived service:
//!
//! * [`registry::ModelRegistry`] — loads persisted (format v3, or
//!   footer-less v2) models by name, validates them, and hands out
//!   `Arc<DecisionTree>` snapshots. Hot-swapping a model atomically
//!   replaces the `Arc`; in-flight batches keep classifying against the
//!   snapshot they took, so a reload never drops or corrupts outstanding
//!   requests.
//! * [`batcher::Batcher`] — a bounded MPSC queue whose worker loops run
//!   as long-lived tasks on a dedicated [`udt_tree::WorkerPool`] (the
//!   same execution substrate the tree builder's parallel phases use).
//!   Flushing is greedy: a worker that picks up a request also takes
//!   every request already queued behind it, up to `max_batch_tuples`
//!   tuples, and serves them at once. It never waits for company, so a
//!   lone request is served immediately and coalescing comes only from
//!   real backlog (`flushes` / `flushed_jobs` in `stats` show how much).
//!   Each worker owns one `BatchScratch` for its whole lifetime, so
//!   steady-state serving performs no per-request allocation in the
//!   classification engine.
//! * [`server::Server`] / [`client::Client`] — a newline-delimited-JSON
//!   protocol over plain `std::net` TCP ([`protocol`]): `classify`,
//!   `classify_batch`, `load_model`, `swap`, `stats` and `shutdown`
//!   requests, one JSON object per line in each direction. The build
//!   environment is offline and std-only, so there is deliberately no
//!   async runtime — threads block on sockets and condvars.
//! * [`metrics::ServeMetrics`] — per-model request/tuple/error counters
//!   and latency histograms (p50/p95/p99), plus the server-wide health
//!   counters and queue-wait histogram, all recorded into `udt_obs`
//!   primitives ([`udt_obs::Histogram`], [`udt_obs::Counter`]). They are
//!   surfaced through the `stats` response together with each model's
//!   arena footprint ([`udt_tree::FlatTree::heap_bytes`]), and rendered
//!   as a Prometheus text exposition (`stats` with
//!   `"format":"prometheus"`, `udt-client stats --format prometheus`)
//!   by the same `udt_obs` writers that render the workspace catalog.
//!
//! * [`faults`] — a deterministic fault-injection harness (seeded,
//!   env/flag-driven) that the chaos suite uses to prove the survival
//!   properties below; disabled injectors cost one branch per check.
//! * [`client::ReplicaSet`] — a client over N replica endpoints with
//!   per-endpoint circuit breakers (closed/open/half-open, seeded-jitter
//!   cooldowns), transparent failover on transient failures, and
//!   optional hedged point classifies; the `health` request separates
//!   liveness from readiness so probes and load balancers can tell a
//!   draining server from a dead one.
//!
//! Two binaries wrap the library: `udt-serve` (the server; see
//! [`config::ServeConfig`] for its flags) and `udt-client` (a small CLI
//! used by the CI smoke test and the README walkthrough).
//!
//! ## Overload and failure behaviour
//!
//! The serving stack is built to degrade loudly and predictably rather
//! than wedge: admission control at the queue ([`batcher::QueuePolicy`]
//! — block with a bounded wait, or shed with a structured `overloaded`
//! error), per-request deadlines enforced again at dequeue
//! (`deadline_exceeded`), a connection-count gate at accept, per-job
//! panic isolation in the workers (a poisoned request gets an `internal`
//! error; its batch companions and the server live on), and a graceful
//! drain with a deadline at shutdown. Every such event is counted in
//! [`protocol::HealthStats`] and the Prometheus exposition.
//!
//! ## Guarantees
//!
//! Served classifications are **bit-for-bit identical** to calling
//! [`udt_tree::classify_batch`] directly on the same tuples: the wire
//! format round-trips `f64`s through Rust's shortest round-trip float
//! formatting, and the scheduler never reorders the tuples *within* a
//! request. The integration tests lock this in over a real socket. A
//! request whose tuples do not carry exactly the model's attribute
//! count, or whose categorical value has a different number of
//! categories than the model's split on that attribute has children,
//! gets a `bad_request` error rather than an answer.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batcher;
pub mod client;
pub mod config;
pub mod error;
pub mod faults;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;

pub use batcher::{BatchOptions, Batcher, QueuePolicy};
pub use client::{
    BreakerPolicy, BreakerSnapshot, BreakerState, Client, ReplicaSet, ReplicaSetOptions,
    RetryPolicy,
};
pub use config::ServeConfig;
pub use error::ServeError;
pub use faults::{FaultInjector, FaultPlan, FaultPoint};
pub use metrics::ServeMetrics;
pub use protocol::{
    HealthReport, HealthStats, ModelInfo, Request, Response, StatsFormat, StatsReport,
};
pub use registry::ModelRegistry;
pub use server::Server;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
