//! The build side: one `TreeBuilder::build` with the counters it moved.

use std::time::Instant;

use udt_data::Dataset;
use udt_obs::{catalog, trace};
use udt_tree::builder::BuildSummary;
use udt_tree::{Algorithm, DecisionTree, ThreadCount, TreeBuilder, UdtConfig};

/// The benchmark's build configuration: UDT-ES with every default
/// (post-pruning on, threads from `UDT_THREADS` or `nproc`).
pub fn config() -> UdtConfig {
    UdtConfig::new(Algorithm::UdtEs)
}

/// The same configuration pinned to one thread: the determinism
/// reference every multi-threaded arena must equal.
pub fn reference_config() -> UdtConfig {
    config().with_threads(ThreadCount::fixed(1))
}

/// Catalog counters of the pool and kernel layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounters {
    pub tasks_executed: u64,
    pub tasks_stolen: u64,
    pub idle_ns: u64,
    pub simd_batches: u64,
    pub scalar_batches: u64,
}

impl LayerCounters {
    pub fn now() -> LayerCounters {
        LayerCounters {
            tasks_executed: catalog::POOL_TASKS_EXECUTED.get(),
            tasks_stolen: catalog::POOL_TASKS_STOLEN.get(),
            idle_ns: catalog::POOL_IDLE_NS.get(),
            simd_batches: catalog::KERNEL_SIMD_BATCHES.get(),
            scalar_batches: catalog::KERNEL_SCALAR_BATCHES.get(),
        }
    }

    pub fn since(&self, before: &LayerCounters) -> LayerCounters {
        LayerCounters {
            tasks_executed: self.tasks_executed.saturating_sub(before.tasks_executed),
            tasks_stolen: self.tasks_stolen.saturating_sub(before.tasks_stolen),
            idle_ns: self.idle_ns.saturating_sub(before.idle_ns),
            simd_batches: self.simd_batches.saturating_sub(before.simd_batches),
            scalar_batches: self.scalar_batches.saturating_sub(before.scalar_batches),
        }
    }
}

/// One build as the benchmark saw it.
pub struct BuildStats {
    pub wall_s: f64,
    pub summary: BuildSummary,
    pub counters: LayerCounters,
}

impl BuildStats {
    /// Wall time outside the four named phases: conversion, root state,
    /// post-prune, catalog flush. Exact only for a 1-thread build; on
    /// more threads search and partition are summed over threads.
    pub fn other_s(&self) -> f64 {
        let s = &self.summary;
        self.wall_s - s.build_presort_s - s.build_search_s - s.build_partition_s - s.build_graft_s
    }
}

/// Runs one build of `train`, timed from the caller's side.
pub fn build_once(
    builder: &TreeBuilder,
    train: &Dataset,
) -> Result<(DecisionTree, BuildStats), String> {
    let before = LayerCounters::now();
    let start = Instant::now();
    let span = trace::span("tree.build", "perfbench");
    let report = builder.build(train).map_err(|e| format!("build: {e}"))?;
    drop(span);
    let wall_s = start.elapsed().as_secs_f64();
    let counters = LayerCounters::now().since(&before);
    let summary = report.summary();
    let stats = BuildStats {
        wall_s,
        summary,
        counters,
    };
    Ok((report.tree, stats))
}
