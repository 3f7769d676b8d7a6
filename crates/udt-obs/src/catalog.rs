//! The workspace-wide metric registry: every counter and histogram the
//! build engine, build pool, score kernels, and pruning
//! searches record into. Entries are `static`, so hot-path recording is
//! a direct relaxed atomic op with no lookup; [`counters`] and
//! [`histograms`] enumerate them for rendering and snapshots.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{
    escape_label_value, render_counter_into, render_gauge_into, Counter, Gauge, Histogram,
};

// ---------------------------------------------------------------------
// Build pool (udt-tree/src/pool.rs)
// ---------------------------------------------------------------------

/// Tasks executed across all pools (workers and map-participating
/// callers alike).
pub static POOL_TASKS_EXECUTED: Counter = Counter::new(
    "udt_pool_tasks_executed_total",
    "Pool tasks executed, including by map-participating caller threads.",
);
/// Always 0: the pool has one shared queue, so no task is stolen. Kept
/// so that existing readers of the series keep finding it.
pub static POOL_TASKS_STOLEN: Counter = Counter::new(
    "udt_pool_tasks_stolen_total",
    "Pool tasks stolen from another worker's deque.",
);
/// Tasks pushed onto a pool's queue.
pub static POOL_INJECTOR_PUSHES: Counter = Counter::new(
    "udt_pool_injector_pushes_total",
    "Tasks pushed onto a pool's shared injector queue by non-worker threads.",
);
/// Total worker nanoseconds spent parked waiting for work.
pub static POOL_IDLE_NS: Counter = Counter::new(
    "udt_pool_idle_nanoseconds_total",
    "Worker nanoseconds spent parked waiting for work.",
);
/// Distribution of individual idle park waits.
pub static POOL_IDLE_WAIT: Histogram = Histogram::new(
    "udt_pool_idle_wait_seconds",
    "Duration of individual worker idle waits.",
);

// ---------------------------------------------------------------------
// Score kernels (udt-tree/src/kernel/, events.rs)
// ---------------------------------------------------------------------

/// Candidate batches scored by the batch (SIMD) kernel.
pub static KERNEL_SIMD_BATCHES: Counter = Counter::new(
    "udt_kernel_simd_batches_total",
    "Candidate-score batches executed by the SIMD batch kernel.",
);
/// Candidate batches shorter than the batch kernel's minimum, scored
/// per candidate with the exact formula.
pub static KERNEL_SCALAR_BATCHES: Counter = Counter::new(
    "udt_kernel_scalar_batches_total",
    "Candidate-score batches shorter than the SIMD minimum, scored per candidate with the exact formula.",
);
/// Per-node cumulative count matrices built (always f64).
pub static KERNEL_MATRIX_BUILDS_F64: Counter = Counter::new(
    "udt_kernel_matrix_builds_f64_total",
    "Per-node cumulative count matrices built with f64 storage.",
);

// ---------------------------------------------------------------------
// Tree builds (udt-tree/src/builder.rs)
// ---------------------------------------------------------------------

/// Completed tree builds.
pub static BUILD_TOTAL: Counter = Counter::new("udt_builds_total", "Completed tree builds.");
/// Nodes across all built trees.
pub static BUILD_NODES: Counter =
    Counter::new("udt_build_nodes_total", "Nodes across all built trees.");
/// Nanoseconds in the root presort phase, summed over builds.
pub static BUILD_PRESORT_NS: Counter = Counter::new(
    "udt_build_presort_nanoseconds_total",
    "Nanoseconds spent in the root presort phase, summed over builds.",
);
/// Nanoseconds in per-node split search, summed over builds and threads.
pub static BUILD_SEARCH_NS: Counter = Counter::new(
    "udt_build_search_nanoseconds_total",
    "Nanoseconds spent in per-node split search, summed over builds and building threads.",
);
/// Nanoseconds partitioning node state, summed over builds and threads.
pub static BUILD_PARTITION_NS: Counter = Counter::new(
    "udt_build_partition_nanoseconds_total",
    "Nanoseconds spent partitioning node state, summed over builds and building threads.",
);
/// Nanoseconds grafting subtree fragments, summed over builds.
pub static BUILD_GRAFT_NS: Counter = Counter::new(
    "udt_build_graft_nanoseconds_total",
    "Nanoseconds spent grafting subtree fragments and renumbering arenas, summed over builds.",
);
/// Per-node matrix bytes freshly allocated, summed over builds.
pub static BUILD_MATRIX_BYTES_FRESH: Counter = Counter::new(
    "udt_build_matrix_bytes_fresh_total",
    "Bytes of per-node split-search matrix buffers freshly allocated, summed over builds.",
);
/// Per-node matrix bytes recycled within a build, summed over builds.
pub static BUILD_MATRIX_BYTES_REUSED: Counter = Counter::new(
    "udt_build_matrix_bytes_reused_total",
    "Bytes of per-node split-search matrix buffers recycled from earlier nodes of the same build, summed over builds.",
);
/// Distribution of per-node split-search durations.
pub static NODE_SEARCH_DURATION: Histogram = Histogram::new(
    "udt_build_node_search_seconds",
    "Per-node split-search duration.",
);

// ---------------------------------------------------------------------
// Replica-set serving (udt-serve/src/client.rs, registry.rs)
// ---------------------------------------------------------------------

/// Counters and breaker-state gauges for the replica-set client and the
/// model store. The counters live here — not in `udt-serve`'s per-model
/// metrics map — because the failing-over side is the *client*: the same
/// statics record in `udt-client`, in embedding applications, and in the
/// server process itself (a server using a `ReplicaSet` to call peers),
/// and whichever process renders the exposition reports its own view.
pub mod serve {
    use super::{Counter, Gauge};

    /// Requests that failed on one replica and were retried on another.
    pub static FAILOVERS: Counter = Counter::new(
        "udt_replica_failovers_total",
        "Requests re-routed to another replica after a transient failure.",
    );
    /// Hedged duplicate requests launched after the hedge delay expired.
    pub static HEDGES_LAUNCHED: Counter = Counter::new(
        "udt_replica_hedges_launched_total",
        "Hedged duplicate requests launched against a second replica.",
    );
    /// Hedged duplicates that answered before the primary.
    pub static HEDGES_WON: Counter = Counter::new(
        "udt_replica_hedges_won_total",
        "Hedged duplicate requests that answered before the primary attempt.",
    );
    /// Corrupt model files set aside at startup preload.
    pub static MODELS_QUARANTINED: Counter = Counter::new(
        "udt_serve_models_quarantined_total",
        "Model files quarantined at startup preload instead of being served.",
    );
    /// Endpoint circuit breakers currently Closed (healthy).
    pub static BREAKERS_CLOSED: Gauge = Gauge::new(
        "udt_replica_breakers_closed",
        "Endpoint circuit breakers currently in the Closed (healthy) state.",
    );
    /// Endpoint circuit breakers currently Open (cooling down).
    pub static BREAKERS_OPEN: Gauge = Gauge::new(
        "udt_replica_breakers_open",
        "Endpoint circuit breakers currently in the Open (cooling down) state.",
    );
    /// Endpoint circuit breakers currently HalfOpen (probing).
    pub static BREAKERS_HALF_OPEN: Gauge = Gauge::new(
        "udt_replica_breakers_half_open",
        "Endpoint circuit breakers currently in the HalfOpen (probing) state.",
    );
}

static ALL_COUNTERS: [&Counter; 19] = [
    &BUILD_TOTAL,
    &BUILD_NODES,
    &BUILD_PRESORT_NS,
    &BUILD_SEARCH_NS,
    &BUILD_PARTITION_NS,
    &BUILD_GRAFT_NS,
    &BUILD_MATRIX_BYTES_FRESH,
    &BUILD_MATRIX_BYTES_REUSED,
    &POOL_TASKS_EXECUTED,
    &POOL_TASKS_STOLEN,
    &POOL_INJECTOR_PUSHES,
    &POOL_IDLE_NS,
    &KERNEL_SIMD_BATCHES,
    &KERNEL_SCALAR_BATCHES,
    &KERNEL_MATRIX_BUILDS_F64,
    &serve::FAILOVERS,
    &serve::HEDGES_LAUNCHED,
    &serve::HEDGES_WON,
    &serve::MODELS_QUARANTINED,
];

static ALL_GAUGES: [&Gauge; 3] = [
    &serve::BREAKERS_CLOSED,
    &serve::BREAKERS_OPEN,
    &serve::BREAKERS_HALF_OPEN,
];

static ALL_HISTOGRAMS: [&Histogram; 2] = [&NODE_SEARCH_DURATION, &POOL_IDLE_WAIT];

/// Every registered counter, in render order.
pub fn counters() -> &'static [&'static Counter] {
    &ALL_COUNTERS
}

/// Every registered gauge, in render order.
pub fn gauges() -> &'static [&'static Gauge] {
    &ALL_GAUGES
}

/// Every registered histogram, in render order.
pub fn histograms() -> &'static [&'static Histogram] {
    &ALL_HISTOGRAMS
}

/// Records the per-build aggregates the builder flushes once per
/// completed build (hot-path increments stay in the builder's private
/// `SearchStats`, preserving the determinism contract; this is one
/// batch of relaxed adds at the end).
pub fn record_build(
    nodes: u64,
    presort_ns: u64,
    search_ns: u64,
    partition_ns: u64,
    graft_ns: u64,
    matrix_bytes_fresh: u64,
    matrix_bytes_reused: u64,
) {
    BUILD_TOTAL.incr();
    BUILD_NODES.add(nodes);
    BUILD_PRESORT_NS.add(presort_ns);
    BUILD_SEARCH_NS.add(search_ns);
    BUILD_PARTITION_NS.add(partition_ns);
    BUILD_GRAFT_NS.add(graft_ns);
    BUILD_MATRIX_BYTES_FRESH.add(matrix_bytes_fresh);
    BUILD_MATRIX_BYTES_REUSED.add(matrix_bytes_reused);
}

/// Per-algorithm pruning-effectiveness counters — the paper's headline
/// quantities (candidates considered vs. pruned vs. scored, plus the
/// eq. 3/4 interval-bound hit counters) as live process metrics.
pub mod pruning {
    use super::*;

    /// The algorithm labels tracked as distinct Prometheus series. The
    /// final slot aggregates any unrecognised name.
    pub const ALGORITHMS: [&str; 7] = [
        "AVG", "UDT", "UDT-BP", "UDT-LP", "UDT-GP", "UDT-ES", "other",
    ];

    #[derive(Debug)]
    struct AlgoStats {
        candidates: AtomicU64,
        scored: AtomicU64,
        intervals_pruned_bound: AtomicU64,
        intervals_pruned_theorem: AtomicU64,
        bound_calculations: AtomicU64,
    }

    impl AlgoStats {
        const fn new() -> Self {
            AlgoStats {
                candidates: AtomicU64::new(0),
                scored: AtomicU64::new(0),
                intervals_pruned_bound: AtomicU64::new(0),
                intervals_pruned_theorem: AtomicU64::new(0),
                bound_calculations: AtomicU64::new(0),
            }
        }
    }

    static STATS: [AlgoStats; ALGORITHMS.len()] = [
        AlgoStats::new(),
        AlgoStats::new(),
        AlgoStats::new(),
        AlgoStats::new(),
        AlgoStats::new(),
        AlgoStats::new(),
        AlgoStats::new(),
    ];

    fn slot(algorithm: &str) -> &'static AlgoStats {
        let i = ALGORITHMS
            .iter()
            .position(|&a| a == algorithm)
            .unwrap_or(ALGORITHMS.len() - 1);
        &STATS[i]
    }

    /// A point-in-time view of one algorithm's pruning counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct PruningSnapshot {
        /// Candidate split points considered.
        pub candidates: u64,
        /// Candidates actually scored (end points + surviving interior).
        pub scored: u64,
        /// Intervals discarded by the eq. 3/4 lower bound.
        pub intervals_pruned_bound: u64,
        /// Intervals discarded outright by theorems 1–3.
        pub intervals_pruned_theorem: u64,
        /// Interval lower bounds computed.
        pub bound_calculations: u64,
    }

    impl PruningSnapshot {
        /// Candidates never scored (pruned away before scoring).
        pub fn pruned(&self) -> u64 {
            self.candidates.saturating_sub(self.scored)
        }

        /// Fraction of candidates pruned (0 when none were considered).
        pub fn prune_fraction(&self) -> f64 {
            if self.candidates == 0 {
                0.0
            } else {
                self.pruned() as f64 / self.candidates as f64
            }
        }
    }

    /// Accumulates one build's pruning totals under `algorithm`.
    pub fn record(algorithm: &str, snapshot: PruningSnapshot) {
        let s = slot(algorithm);
        s.candidates
            .fetch_add(snapshot.candidates, Ordering::Relaxed);
        s.scored.fetch_add(snapshot.scored, Ordering::Relaxed);
        s.intervals_pruned_bound
            .fetch_add(snapshot.intervals_pruned_bound, Ordering::Relaxed);
        s.intervals_pruned_theorem
            .fetch_add(snapshot.intervals_pruned_theorem, Ordering::Relaxed);
        s.bound_calculations
            .fetch_add(snapshot.bound_calculations, Ordering::Relaxed);
    }

    /// The accumulated counters for `algorithm` (the catch-all slot for
    /// unrecognised names).
    pub fn snapshot(algorithm: &str) -> PruningSnapshot {
        let s = slot(algorithm);
        PruningSnapshot {
            candidates: s.candidates.load(Ordering::Relaxed),
            scored: s.scored.load(Ordering::Relaxed),
            intervals_pruned_bound: s.intervals_pruned_bound.load(Ordering::Relaxed),
            intervals_pruned_theorem: s.intervals_pruned_theorem.load(Ordering::Relaxed),
            bound_calculations: s.bound_calculations.load(Ordering::Relaxed),
        }
    }

    /// Renders the per-algorithm series (algorithms with zero recorded
    /// candidates are skipped to keep the exposition compact).
    pub(crate) fn render_into(out: &mut String) {
        let rows: Vec<(&str, PruningSnapshot)> = ALGORITHMS
            .iter()
            .map(|&a| (a, snapshot(a)))
            .filter(|(_, s)| s.candidates > 0)
            .collect();
        if rows.is_empty() {
            return;
        }
        type SeriesGetter = fn(&PruningSnapshot) -> u64;
        let series: [(&str, &str, SeriesGetter); 5] = [
            (
                "udt_split_candidates_total",
                "Candidate split points considered, by algorithm.",
                |s| s.candidates,
            ),
            (
                "udt_split_candidates_scored_total",
                "Candidate split points actually scored, by algorithm.",
                |s| s.scored,
            ),
            (
                "udt_split_candidates_pruned_total",
                "Candidate split points pruned before scoring, by algorithm.",
                |s| s.pruned(),
            ),
            (
                "udt_split_intervals_pruned_bound_total",
                "Intervals discarded by the eq. 3/4 lower bound, by algorithm.",
                |s| s.intervals_pruned_bound,
            ),
            (
                "udt_split_intervals_pruned_theorem_total",
                "Intervals discarded outright by pruning theorems 1-3, by algorithm.",
                |s| s.intervals_pruned_theorem,
            ),
        ];
        for (name, help, get) in series {
            for (i, (algorithm, snap)) in rows.iter().enumerate() {
                let label = format!("algorithm=\"{}\"", escape_label_value(algorithm));
                render_counter_into(out, name, if i == 0 { help } else { "" }, &label, get(snap));
            }
        }
        // The fraction is a derived gauge, rendered for convenience.
        let help = "Fraction of candidate split points pruned before scoring, by algorithm.";
        for (i, (algorithm, snap)) in rows.iter().enumerate() {
            let label = format!("algorithm=\"{}\"", escape_label_value(algorithm));
            let fraction = format_args!("{:.6}", snap.prune_fraction());
            let help = if i == 0 { help } else { "" };
            render_gauge_into(out, "udt_split_prune_fraction", help, &label, fraction);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_legal() {
        let mut names: Vec<&str> = counters().iter().map(|c| c.name()).collect();
        names.extend(gauges().iter().map(|g| g.name()));
        names.extend(histograms().iter().map(|h| h.name()));
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate metric names");
        for name in names {
            assert_eq!(
                crate::sanitize_metric_name(name),
                name,
                "catalog names must already be legal"
            );
        }
    }

    #[test]
    fn pruning_records_accumulate_per_algorithm() {
        let before = pruning::snapshot("UDT-GP");
        pruning::record(
            "UDT-GP",
            pruning::PruningSnapshot {
                candidates: 100,
                scored: 25,
                intervals_pruned_bound: 7,
                intervals_pruned_theorem: 3,
                bound_calculations: 20,
            },
        );
        let after = pruning::snapshot("UDT-GP");
        assert_eq!(after.candidates - before.candidates, 100);
        assert_eq!(after.scored - before.scored, 25);
        assert_eq!(
            after.intervals_pruned_bound - before.intervals_pruned_bound,
            7
        );
        assert_eq!(
            after.intervals_pruned_theorem - before.intervals_pruned_theorem,
            3
        );
        let snap = pruning::PruningSnapshot {
            candidates: 100,
            scored: 25,
            ..Default::default()
        };
        assert_eq!(snap.pruned(), 75);
        assert!((snap.prune_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn unknown_algorithm_lands_in_the_catch_all_slot() {
        let before = pruning::snapshot("other");
        pruning::record(
            "UDT-FUTURE",
            pruning::PruningSnapshot {
                candidates: 5,
                scored: 5,
                ..Default::default()
            },
        );
        let after = pruning::snapshot("other");
        assert_eq!(after.candidates - before.candidates, 5);
    }

    #[test]
    fn record_build_flushes_matrix_buffer_bytes() {
        let (fresh, reused) = (
            BUILD_MATRIX_BYTES_FRESH.get(),
            BUILD_MATRIX_BYTES_REUSED.get(),
        );
        record_build(3, 0, 0, 0, 0, 4096, 8192);
        assert!(BUILD_MATRIX_BYTES_FRESH.get() - fresh >= 4096);
        assert!(BUILD_MATRIX_BYTES_REUSED.get() - reused >= 8192);
        let text = crate::render_prometheus();
        assert!(text.contains("# TYPE udt_build_matrix_bytes_fresh_total counter"));
        assert!(text.contains("# TYPE udt_build_matrix_bytes_reused_total counter"));
    }

    #[test]
    fn prometheus_render_includes_recorded_series() {
        pruning::record(
            "UDT-ES",
            pruning::PruningSnapshot {
                candidates: 1000,
                scored: 100,
                intervals_pruned_bound: 40,
                intervals_pruned_theorem: 10,
                bound_calculations: 90,
            },
        );
        KERNEL_SCALAR_BATCHES.incr();
        let text = crate::render_prometheus();
        assert!(text.contains("# TYPE udt_kernel_scalar_batches_total counter"));
        assert!(text.contains("# TYPE udt_replica_failovers_total counter"));
        assert!(text.contains("# TYPE udt_replica_breakers_open gauge"));
        assert!(text.contains("# TYPE udt_serve_models_quarantined_total counter"));
        assert!(text.contains("udt_split_candidates_total{algorithm=\"UDT-ES\"}"));
        assert!(text.contains("udt_split_prune_fraction{algorithm=\"UDT-ES\"}"));
        assert!(text.contains("# TYPE udt_build_node_search_seconds histogram"));
        assert!(text.contains("udt_pool_idle_wait_seconds_bucket{le=\"+Inf\"}"));
    }
}
