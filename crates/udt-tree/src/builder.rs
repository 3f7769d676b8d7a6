//! Top-down tree construction over the columnar split engine, emitting
//! directly into the flat arena.
//!
//! [`TreeBuilder`] implements the greedy framework shared by AVG and all
//! the UDT variants (§4.1–4.2): starting from the whole training set, each
//! node asks the configured [`SplitSearch`] strategy for the best
//! `(attribute, split point)` pair (and, when categorical attributes are
//! present, compares it with the best §7.2 multi-way split), partitions
//! the (fractional) tuples, and recurses. Pre-pruning (depth, minimum
//! node weight, minimum gain) and C4.5-style post-pruning are applied as
//! configured.
//!
//! The hot path is columnar: every numerical attribute's events are
//! sorted **once at the root** (see [`crate::columns`]) into immutable
//! root columns, and recursion only narrows event-id views over them —
//! stable, linear, no re-sorting and no mass copying — while
//! candidate scoring runs over borrowed cumulative rows with zero
//! per-candidate allocations (see [`crate::events`]).
//!
//! ## The build pipeline on the persistent pool
//!
//! Every parallel phase runs on the persistent build pool of
//! [`crate::pool`], sized by [`UdtConfig::threads`] (`UDT_THREADS`):
//! the per-attribute root presort fans out first, large nodes fan their
//! per-attribute event-structure construction and split search out
//! next, and finally the subtree work queue below the fork depth is
//! drained as pool tasks. Per-phase wall-clock lands in
//! [`SearchStats`] (`presort_ns`, `search_ns`, `partition_ns`,
//! `graft_ns`) and surfaces through [`BuildSummary`].
//!
//! Nodes are appended to a [`FlatTree`] in preorder. The builder expands
//! the top of the tree sequentially and **defers** every subtree whose
//! root lies at `parallel_cutoff_depth` or deeper (and is large enough
//! per `parallel_min_fork_tuples`) onto a work queue; the deferred
//! [`NodeTuples`] states are independent and `Send` (they are just
//! event-id lists and scale factors over the shared immutable root
//! columns), so pool workers drain the queue, each building its
//! subtree into a private arena fragment with a thread-cached
//! [`Scratch`]. Fragments are grafted back in deterministic (queue)
//! order and the arena is renumbered to canonical preorder, which makes
//! the result **bit-for-bit identical** to a sequential build at any
//! thread count — the regression tests assert full `FlatTree` equality
//! across thread counts and fork depths, with a fork depth no node
//! reaches (`usize::MAX`: nothing is deferred) as the sequential
//! reference. At one thread the same queue is drained inline, so the
//! machinery is exercised by every test run.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use udt_data::{AttributeKind, Dataset};
use udt_obs::{catalog, trace};

use crate::categorical;
use crate::columns::{self, NodeTuples, RootColumns, Scratch};
use crate::config::{Algorithm, UdtConfig};
use crate::counts::ClassCounts;
use crate::events::{AttributeEvents, BufferPool};
use crate::flat::FlatTree;
use crate::fractional::FractionalTuple;
use crate::measure::Measure;
use crate::node::DecisionTree;
use crate::pool::{self, WorkerPool};
use crate::postprune;
use crate::split::{SearchStats, SplitSearch, PARALLEL_MIN_POSITIONS};
use crate::{Result, TreeError};

/// The outcome of one tree construction.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// The trained tree (post-pruned if configured).
    pub tree: DecisionTree,
    /// Aggregated split-search instrumentation (Fig. 6/7 quantities).
    pub stats: SearchStats,
    /// Wall-clock construction time.
    pub elapsed: Duration,
    /// The algorithm that was used.
    pub algorithm: Algorithm,
    /// Number of nodes removed by post-pruning (0 when disabled).
    pub nodes_pruned: usize,
}

/// Summary of a build for serialisation into experiment reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BuildSummary {
    /// Algorithm name.
    pub algorithm: String,
    /// Total tree nodes.
    pub nodes: usize,
    /// Tree depth.
    pub depth: usize,
    /// Entropy-like calculations performed (Fig. 7).
    pub entropy_like_calculations: u64,
    /// Wall-clock construction time in seconds.
    pub seconds: f64,
    /// Total bytes allocated for child node state while partitioning.
    pub partition_bytes: u64,
    /// Largest single partition call's allocation, in bytes.
    pub partition_peak_bytes: u64,
    /// Approximate heap footprint of the finished arena in bytes
    /// ([`crate::FlatTree::heap_bytes`]) — the steady-state memory cost
    /// of serving this model.
    pub tree_heap_bytes: u64,
    /// Seconds spent in the root presort phase (wall-clock).
    pub build_presort_s: f64,
    /// Seconds spent in per-node split search, summed over building
    /// threads (equals wall-clock at one thread; see
    /// [`SearchStats::search_ns`]).
    pub build_search_s: f64,
    /// Seconds spent partitioning node state, summed over building
    /// threads (equals wall-clock at one thread).
    pub build_partition_s: f64,
    /// Seconds spent grafting subtree fragments and renumbering the
    /// arena to preorder (wall-clock).
    pub build_graft_s: f64,
    /// Candidate split points available across all attributes and nodes
    /// (the `k·(m·s − 1)` search space of §4.2, summed over nodes).
    pub candidates_total: u64,
    /// Candidate split points pruned before scoring — the paper's
    /// headline pruning-effectiveness quantity (Fig. 6).
    pub candidates_pruned: u64,
    /// `candidates_pruned / candidates_total` (0 when no candidates).
    pub prune_fraction: f64,
    /// Per-node matrix bytes freshly allocated
    /// ([`SearchStats::matrix_bytes_fresh`]).
    pub matrix_bytes_fresh: u64,
    /// Per-node matrix bytes recycled within the build
    /// ([`SearchStats::matrix_bytes_reused`]).
    pub matrix_bytes_reused: u64,
}

impl BuildReport {
    /// Produces a serialisable summary of this build.
    pub fn summary(&self) -> BuildSummary {
        BuildSummary {
            algorithm: self.algorithm.name().to_string(),
            nodes: self.tree.size(),
            depth: self.tree.depth(),
            entropy_like_calculations: self.stats.entropy_like_calculations(),
            seconds: self.elapsed.as_secs_f64(),
            partition_bytes: self.stats.partition_bytes,
            partition_peak_bytes: self.stats.partition_peak_bytes,
            tree_heap_bytes: self.tree.flat().heap_bytes() as u64,
            build_presort_s: self.stats.presort_ns as f64 / 1e9,
            build_search_s: self.stats.search_ns as f64 / 1e9,
            build_partition_s: self.stats.partition_ns as f64 / 1e9,
            build_graft_s: self.stats.graft_ns as f64 / 1e9,
            candidates_total: self.stats.candidate_points,
            candidates_pruned: self.stats.candidates_pruned(),
            prune_fraction: self.stats.prune_fraction(),
            matrix_bytes_fresh: self.stats.matrix_bytes_fresh,
            matrix_bytes_reused: self.stats.matrix_bytes_reused,
        }
    }
}

/// Default node-span depth gate when `UDT_TRACE_DEPTH` is unset: deep
/// trees emit spans for the first few levels only, keeping traces small
/// while still showing where the wall-clock goes (the top of the tree
/// dominates).
const DEFAULT_TRACE_DEPTH: usize = 6;

/// `UDT_TRACE_DEPTH`, or the default. Invalid values fall back with a
/// one-time warning, mirroring the other `UDT_*` knobs.
fn trace_depth_from_env() -> usize {
    match std::env::var("UDT_TRACE_DEPTH") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(depth) => depth,
            Err(_) => {
                static WARN: std::sync::Once = std::sync::Once::new();
                WARN.call_once(|| {
                    eprintln!(
                        "udt: ignoring invalid UDT_TRACE_DEPTH={raw:?} \
                         (expected a non-negative integer); using {DEFAULT_TRACE_DEPTH}"
                    );
                });
                DEFAULT_TRACE_DEPTH
            }
        },
        Err(_) => DEFAULT_TRACE_DEPTH,
    }
}

/// Builds decision trees according to a [`UdtConfig`].
#[derive(Debug, Clone)]
pub struct TreeBuilder {
    config: UdtConfig,
    /// Chrome-trace output path set by [`with_trace`](Self::with_trace)
    /// (takes precedence over the `UDT_TRACE` env var).
    trace_path: Option<PathBuf>,
}

impl TreeBuilder {
    /// Creates a builder with the given configuration.
    pub fn new(config: UdtConfig) -> Self {
        TreeBuilder {
            config,
            trace_path: None,
        }
    }

    /// The builder's configuration.
    pub fn config(&self) -> &UdtConfig {
        &self.config
    }

    /// Writes a Chrome trace-event JSON file (loadable in Perfetto or
    /// `chrome://tracing`) of the next [`build`](Self::build) to `path`.
    /// Equivalent to setting `UDT_TRACE=path` but scoped to this
    /// builder. Per-node spans are gated by `UDT_TRACE_DEPTH`
    /// (default 6). When another trace is already being collected in
    /// the process, the build proceeds untraced.
    #[must_use]
    pub fn with_trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// The trace output path for the next build, if any: the explicit
    /// [`with_trace`](Self::with_trace) path, else `UDT_TRACE`.
    fn trace_target(&self) -> Option<PathBuf> {
        self.trace_path.clone().or_else(|| {
            std::env::var_os("UDT_TRACE")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
        })
    }

    /// Builds a decision tree from `data`.
    ///
    /// For [`Algorithm::Avg`] the data is first collapsed to its per-value
    /// means (§4.1); every other algorithm uses the full pdfs.
    pub fn build(&self, data: &Dataset) -> Result<BuildReport> {
        self.config.validate()?;
        if data.is_empty() {
            return Err(TreeError::EmptyTrainingSet);
        }
        if data.n_classes() == 0 {
            return Err(TreeError::NoClasses);
        }
        // Trace activation: only when a target is configured, and only
        // if no other collector is live (the span sites below then cost
        // one relaxed load each and record nothing).
        let trace_target = self.trace_target();
        let tracing = trace_target.is_some() && trace::start(trace_depth_from_env());
        let report = self.build_traced(data);
        if tracing {
            let events = trace::finish();
            if let Some(path) = &trace_target {
                if let Err(e) = trace::write_chrome_trace(path, &events) {
                    eprintln!("udt: could not write trace to {}: {e}", path.display());
                }
            }
        }
        report
    }

    /// The body of [`build`](Self::build) between trace activation and
    /// the trace flush, so that every return, errors included, passes
    /// the flush.
    fn build_traced(&self, data: &Dataset) -> Result<BuildReport> {
        let build_span = trace::span("build", "build");
        let averaged;
        let training: &Dataset = if self.config.algorithm.uses_distributions() {
            data
        } else {
            averaged = data.to_averaged();
            &averaged
        };

        let start = Instant::now();
        let tuples: Vec<FractionalTuple<'_>> = training
            .tuples()
            .iter()
            .map(FractionalTuple::from_tuple)
            .collect();
        let labels: Vec<u32> = tuples.iter().map(|t| t.label as u32).collect();
        let search = self.config.split_search();
        let mut stats = SearchStats::default();
        let numerical: Vec<usize> = training.schema().numerical_indices();
        let categorical: Vec<(usize, usize)> = training
            .schema()
            .categorical_indices()
            .into_iter()
            .map(|j| {
                let cardinality = match training.schema().attribute(j).map(|a| a.kind) {
                    Some(AttributeKind::Categorical { cardinality }) => cardinality,
                    _ => 0,
                };
                (j, cardinality)
            })
            .collect();
        // The persistent build pool for every parallel phase of this
        // build; entering it makes it visible to the split-search
        // strategies without threading a handle through their trait.
        let build_pool = WorkerPool::for_concurrency(self.config.threads.get());
        let _pool_guard = pool::enter(Arc::clone(&build_pool));
        // The single presorting pass (one stable radix sort per
        // attribute), fanned out across attributes on the pool; the root
        // columns are immutable from here on and recursion below never
        // sorts again — child nodes reference them through event-id
        // views.
        let presort_span = trace::span("presort", "phase");
        let presort_started = Instant::now();
        let root_columns = columns::build_root_with(&tuples, &numerical, &build_pool);
        stats.presort_ns += presort_started.elapsed().as_nanos() as u64;
        drop(presort_span);
        // Recycles per-node matrix buffers across this build's nodes and
        // pool tasks; dropped, buffers and all, once recursion is done.
        let buffers = BufferPool::default();
        let ctx = BuildContext {
            tuples: &tuples,
            labels: &labels,
            root: &root_columns,
            n_classes: training.n_classes(),
            measure: self.config.measure,
            search: search.as_ref(),
            numerical: &numerical,
            categorical: &categorical,
            max_depth: self.config.max_depth,
            min_node_weight: self.config.min_node_weight,
            min_gain: self.config.min_gain,
            fork_depth: self.config.parallel_cutoff_depth,
            fork_min_tuples: self.config.parallel_min_fork_tuples,
            buffers: &buffers,
        };
        let root_state = columns::root_state(&tuples, &root_columns);
        stats.partition_bytes += root_state.heap_bytes();
        stats.partition_peak_bytes = stats.partition_peak_bytes.max(root_state.heap_bytes());
        let mut scratch = Scratch::new(tuples.len());
        let mut flat = FlatTree::new(ctx.n_classes);
        let mut jobs: Vec<SubtreeJob> = Vec::new();
        ctx.build_node(
            &mut flat,
            root_state,
            1,
            &HashSet::new(),
            &mut stats,
            &mut scratch,
            Some(&mut jobs),
        );
        if !jobs.is_empty() {
            let patches: Vec<usize> = jobs.iter().map(|j| j.patch).collect();
            let subtree_span = trace::span("subtree-queue", "phase")
                .map(|s| s.with_arg("jobs", patches.len() as u64));
            // A subtree's columns and alive tuples only shrink below its
            // root, so no queued node can ask for more than this: release
            // the larger buffers of the top of the tree for the subtrees'
            // own allocations to reuse.
            let largest = jobs
                .iter()
                .flat_map(|job| {
                    job.state.columns.iter().map(|column| {
                        columns::largest_request(column.len(), job.state.alive.len(), ctx.n_classes)
                    })
                })
                .max()
                .unwrap_or(0);
            buffers.release_above(largest);
            let results = run_subtree_jobs(&ctx, jobs, &build_pool, tuples.len(), &mut scratch);
            drop(subtree_span);
            let graft_span = trace::span("graft", "phase");
            let graft_started = Instant::now();
            for (patch, (fragment, job_stats)) in patches.into_iter().zip(results) {
                let root = flat.graft(&fragment);
                flat.patch_child_slab(patch, root);
                stats.merge(&job_stats);
            }
            // Canonical layout: bit-identical to a sequential build.
            flat = flat.to_preorder();
            stats.graft_ns += graft_started.elapsed().as_nanos() as u64;
            drop(graft_span);
        }
        (stats.matrix_bytes_fresh, stats.matrix_bytes_reused) = buffers.bytes();
        drop(buffers);
        let mut tree = DecisionTree::from_flat(
            flat,
            training.n_attributes(),
            training.class_names().to_vec(),
        );
        let mut nodes_pruned = 0;
        if self.config.postprune {
            nodes_pruned = postprune::prune(&mut tree, self.config.postprune_z);
        }
        // Flush this build's aggregates into the process-wide registry
        // (hot-path increments stayed in the private `stats`, so the
        // determinism contract is untouched — this is one batch of
        // relaxed adds per build).
        catalog::record_build(
            tree.size() as u64,
            stats.presort_ns,
            stats.search_ns,
            stats.partition_ns,
            stats.graft_ns,
            stats.matrix_bytes_fresh,
            stats.matrix_bytes_reused,
        );
        catalog::pruning::record(
            self.config.algorithm.name(),
            catalog::pruning::PruningSnapshot {
                candidates: stats.candidate_points,
                scored: stats.candidates_scored,
                intervals_pruned_bound: stats.intervals_pruned_bound,
                intervals_pruned_theorem: stats
                    .intervals_pruned
                    .saturating_sub(stats.intervals_pruned_bound),
                bound_calculations: stats.bound_calculations,
            },
        );
        drop(build_span);
        Ok(BuildReport {
            tree,
            stats,
            elapsed: start.elapsed(),
            algorithm: self.config.algorithm,
            nodes_pruned,
        })
    }
}

/// A deferred subtree: everything a worker needs to build it into a
/// private arena fragment, plus the child-slab slot of the main arena to
/// patch once the fragment is grafted back.
struct SubtreeJob {
    state: NodeTuples,
    depth: usize,
    used_categorical: HashSet<usize>,
    patch: usize,
}

/// Builds one deferred subtree into a private arena fragment.
fn run_subtree_job(
    ctx: &BuildContext<'_>,
    job: SubtreeJob,
    scratch: &mut Scratch,
) -> (FlatTree, SearchStats) {
    let mut fragment = FlatTree::new(ctx.n_classes);
    let mut job_stats = SearchStats::default();
    ctx.build_node(
        &mut fragment,
        job.state,
        job.depth,
        &job.used_categorical,
        &mut job_stats,
        scratch,
        None,
    );
    (fragment, job_stats)
}

/// Drains the subtree work queue on the persistent build pool,
/// returning `(fragment, stats)` per job in queue order. With more than
/// one thread the jobs become pool tasks — idle workers claim the next
/// unclaimed job — each built with a thread-cached [`Scratch`]; at one
/// thread the queue is drained inline with the caller's scratch, so the
/// machinery (and the graft discipline above it) is exercised by every
/// single-threaded test run too.
fn run_subtree_jobs(
    ctx: &BuildContext<'_>,
    jobs: Vec<SubtreeJob>,
    pool: &Arc<WorkerPool>,
    n_tuples: usize,
    scratch: &mut Scratch,
) -> Vec<(FlatTree, SearchStats)> {
    if pool.concurrency() == 1 || jobs.len() == 1 {
        return jobs
            .into_iter()
            .map(|job| run_subtree_job(ctx, job, scratch))
            .collect();
    }
    let slots: Vec<Mutex<Option<SubtreeJob>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    pool.map(slots.len(), |i| {
        let job = slots[i]
            .lock()
            .expect("job slot lock")
            .take()
            .expect("each job is claimed exactly once");
        // Each job builds fully sequentially: nested maps run inline on
        // the executing thread (see [`WorkerPool::map`]), so a job's
        // stats — including its phase timers — cover exactly its own
        // subtree.
        columns::with_scratch(n_tuples, |scratch| run_subtree_job(ctx, job, scratch))
    })
}

/// Immutable context shared by the recursive construction (and by the
/// pool's subtree workers — every field is `Sync`).
struct BuildContext<'a> {
    /// The root fractional tuples, borrowing the training set (never
    /// mutated; categorical distributions and labels are read through
    /// them).
    tuples: &'a [FractionalTuple<'a>],
    /// Per-tuple class labels.
    labels: &'a [u32],
    /// The immutable presorted root event columns, shared by the whole
    /// recursion (and by every subtree worker — no mass cloning).
    root: &'a RootColumns,
    n_classes: usize,
    measure: Measure,
    search: &'a dyn SplitSearch,
    numerical: &'a [usize],
    categorical: &'a [(usize, usize)],
    max_depth: usize,
    min_node_weight: f64,
    min_gain: f64,
    /// Children at this depth or deeper become work-queue jobs.
    fork_depth: usize,
    /// Minimum alive tuples for a child to be worth deferring.
    fork_min_tuples: usize,
    /// The build's pool of per-node matrix buffers.
    buffers: &'a BufferPool,
}

/// The best action available at a node.
enum NodeSplit {
    Numeric {
        attribute: usize,
        split: f64,
        score: f64,
    },
    Categorical {
        attribute: usize,
        cardinality: usize,
        score: f64,
    },
}

impl NodeSplit {
    fn score(&self) -> f64 {
        match self {
            NodeSplit::Numeric { score, .. } | NodeSplit::Categorical { score, .. } => *score,
        }
    }
}

impl BuildContext<'_> {
    /// Class counts of the node's alive tuples.
    fn node_counts(&self, state: &NodeTuples) -> ClassCounts {
        let mut counts = ClassCounts::new(self.n_classes);
        for (&t, &w) in state.alive.iter().zip(&state.weights) {
            counts.add(self.labels[t as usize] as usize, w);
        }
        counts
    }

    /// Builds the subtree for `state` into `arena`, returning its root
    /// index. With `jobs` present, large-enough children at or below the
    /// fork depth are deferred onto the queue instead of being built
    /// inline. (The argument count mirrors the recursion state one-to-one;
    /// bundling it into a struct would just move the same names around.)
    #[allow(clippy::too_many_arguments)]
    fn build_node(
        &self,
        arena: &mut FlatTree,
        state: NodeTuples,
        depth: usize,
        used_categorical: &HashSet<usize>,
        stats: &mut SearchStats,
        scratch: &mut Scratch,
        mut jobs: Option<&mut Vec<SubtreeJob>>,
    ) -> usize {
        let counts = self.node_counts(&state);
        // Stopping conditions (§4.1): purity, depth cap, insufficient
        // weight.
        if counts.is_pure()
            || depth >= self.max_depth
            || counts.total() < self.min_node_weight
            || state.alive.is_empty()
        {
            return arena.push_leaf(&counts);
        }

        // Depth-gated per-node span (`UDT_TRACE_DEPTH`): one relaxed
        // load when tracing is off.
        let _node_span = trace::node_span(depth, "node", "node").map(|s| {
            s.with_arg("depth", depth as u64)
                .with_arg("alive", state.alive.len() as u64)
        });

        // The dense per-tuple weight lookup for this node: loaded once,
        // used by scoring and partitioning, and released before recursing
        // (children load their own).
        scratch.load_weights(&state);
        let search_span = trace::node_span(depth, "search", "node");
        let search_started = Instant::now();
        let found = self.best_split(&state, depth, used_categorical, stats, scratch);
        let search_ns = search_started.elapsed().as_nanos() as u64;
        stats.search_ns += search_ns;
        catalog::NODE_SEARCH_DURATION.record_ns(search_ns);
        drop(search_span);
        let Some(best) = found else {
            scratch.unload_weights(&state);
            return arena.push_leaf(&counts);
        };

        // Pre-pruning on the dispersion reduction. For entropy/Gini the
        // split score is a weighted dispersion comparable with the node's
        // own dispersion; for gain ratio the score is the negated ratio, so
        // the reduction test is on `-score` directly.
        let worthwhile = match self.measure {
            Measure::Entropy | Measure::Gini => {
                self.measure.dispersion(&counts) - best.score() >= self.min_gain
            }
            Measure::GainRatio => -best.score() >= self.min_gain,
        };
        if !worthwhile {
            scratch.unload_weights(&state);
            return arena.push_leaf(&counts);
        }

        match best {
            NodeSplit::Numeric {
                attribute, split, ..
            } => {
                let slot = self
                    .numerical
                    .iter()
                    .position(|&j| j == attribute)
                    .expect("numeric split attribute has a column");
                let partition_span = trace::node_span(depth, "partition", "node");
                let (left, right) =
                    columns::partition_numeric(self.root, &state, slot, split, scratch, stats);
                drop(partition_span);
                scratch.unload_weights(&state);
                if left.alive.is_empty() || right.alive.is_empty() {
                    return arena.push_leaf(&counts);
                }
                drop(state);
                let id = arena.push_split(attribute, split, &counts);
                for (child_slot, child_state) in [left, right].into_iter().enumerate() {
                    self.build_child(
                        arena,
                        id,
                        child_slot,
                        child_state,
                        depth + 1,
                        used_categorical,
                        stats,
                        scratch,
                        jobs.as_deref_mut(),
                    );
                }
                id
            }
            NodeSplit::Categorical {
                attribute,
                cardinality,
                ..
            } => {
                let partition_span = trace::node_span(depth, "partition", "node");
                let buckets = columns::partition_categorical(
                    self.root,
                    &state,
                    self.tuples,
                    attribute,
                    cardinality,
                    scratch,
                    stats,
                );
                drop(partition_span);
                scratch.unload_weights(&state);
                drop(state);
                let id = arena.push_categorical(attribute, cardinality, &counts);
                let mut used = used_categorical.clone();
                used.insert(attribute);
                for (v, bucket) in buckets.into_iter().enumerate() {
                    if bucket.alive.is_empty() {
                        // Unseen category: fall back to the parent's
                        // class distribution.
                        let leaf = arena.push_leaf(&counts);
                        arena.set_child(id, v, leaf);
                    } else {
                        self.build_child(
                            arena,
                            id,
                            v,
                            bucket,
                            depth + 1,
                            &used,
                            stats,
                            scratch,
                            jobs.as_deref_mut(),
                        );
                    }
                }
                id
            }
        }
    }

    /// Builds (or defers) one child subtree and wires it into the parent.
    #[allow(clippy::too_many_arguments)]
    fn build_child(
        &self,
        arena: &mut FlatTree,
        parent: usize,
        slot: usize,
        state: NodeTuples,
        depth: usize,
        used_categorical: &HashSet<usize>,
        stats: &mut SearchStats,
        scratch: &mut Scratch,
        mut jobs: Option<&mut Vec<SubtreeJob>>,
    ) {
        if let Some(queue) = jobs.as_deref_mut() {
            if depth >= self.fork_depth && state.alive.len() >= self.fork_min_tuples {
                let patch = arena.child_slab_slot(parent, slot);
                queue.push(SubtreeJob {
                    state,
                    depth,
                    used_categorical: used_categorical.clone(),
                    patch,
                });
                return;
            }
        }
        let id = self.build_node(arena, state, depth, used_categorical, stats, scratch, jobs);
        arena.set_child(parent, slot, id);
    }

    /// Builds the per-attribute scoring structures for a node — fanned
    /// out across the build pool when the node is large enough to
    /// amortise the task hand-off (each worker loads the node's weights
    /// into its own thread-cached [`Scratch`]), inline with the
    /// caller's scratch otherwise. Either way the result is ordered by
    /// attribute slot and each column's structure is computed
    /// independently, so it is bit-identical at every thread count.
    fn node_events(
        &self,
        state: &NodeTuples,
        scratch: &mut Scratch,
    ) -> Vec<(usize, AttributeEvents)> {
        let total_events: usize = state.columns.iter().map(|c| c.len()).sum();
        if state.columns.len() > 1 && total_events >= PARALLEL_MIN_POSITIONS {
            // `fanout` declines inside pool work (a subtree job), so a
            // job executed by the map-participating build thread takes
            // the same cheap sequential path as one on a worker.
            if let Some(pool) = pool::fanout() {
                let n_tuples = self.tuples.len();
                // Contiguous attribute chunks, one per participant, so
                // each task pays the O(alive) weight load/unload once
                // per chunk rather than once per attribute. Chunking
                // only decides *who* computes a column, never *what* —
                // the flattened output is bit-identical for any chunk
                // count.
                let n_chunks = pool.concurrency().min(state.columns.len());
                let chunk = state.columns.len().div_ceil(n_chunks);
                // Re-derive the chunk count so a remainder never yields
                // an empty chunk that would still pay the weight load.
                let n_chunks = state.columns.len().div_ceil(chunk);
                let per_chunk: Vec<Vec<Option<AttributeEvents>>> = pool.map(n_chunks, |c| {
                    let slots = c * chunk..((c + 1) * chunk).min(state.columns.len());
                    columns::with_scratch(n_tuples, |worker_scratch| {
                        worker_scratch.load_weights(state);
                        let events = slots
                            .map(|slot| {
                                columns::events_from_column_in(
                                    &state.columns[slot],
                                    &self.root.columns[slot],
                                    self.labels,
                                    self.n_classes,
                                    worker_scratch,
                                    self.buffers,
                                )
                            })
                            .collect();
                        worker_scratch.unload_weights(state);
                        events
                    })
                });
                return per_chunk
                    .into_iter()
                    .flatten()
                    .zip(&self.root.columns)
                    .filter_map(|(events, root_col)| events.map(|e| (root_col.attribute, e)))
                    .collect();
            }
        }
        state
            .columns
            .iter()
            .zip(&self.root.columns)
            .filter_map(|(col, root_col)| {
                columns::events_from_column_in(
                    col,
                    root_col,
                    self.labels,
                    self.n_classes,
                    scratch,
                    self.buffers,
                )
                .map(|e| (root_col.attribute, e))
            })
            .collect()
    }

    /// Finds the best available split (numerical via the configured
    /// strategy over the node's presorted columns, categorical via §7.2
    /// bucket evaluation). The numerical search is two depth-gated
    /// spans: building the node's count structures (`search.matrix`)
    /// and scoring them (`search.score`).
    fn best_split(
        &self,
        state: &NodeTuples,
        depth: usize,
        used_categorical: &HashSet<usize>,
        stats: &mut SearchStats,
        scratch: &mut Scratch,
    ) -> Option<NodeSplit> {
        stats.nodes_searched += 1;
        let matrix_span = trace::node_span(depth, "search.matrix", "node");
        let events = self.node_events(state, scratch);
        drop(matrix_span);
        let score_span = trace::node_span(depth, "search.score", "node");
        let numeric = self
            .search
            .find_best(&events, self.measure, stats)
            .map(|c| NodeSplit::Numeric {
                attribute: c.attribute,
                split: c.split,
                score: c.score,
            });
        drop(score_span);
        for (_, attribute_events) in events {
            self.buffers.recycle(attribute_events);
        }

        let mut best = numeric;
        for &(attribute, cardinality) in self.categorical {
            if used_categorical.contains(&attribute) || cardinality < 2 {
                continue;
            }
            if let Some(score) = categorical::evaluate_weighted(
                self.tuples,
                &state.alive,
                &state.weights,
                attribute,
                cardinality,
                self.n_classes,
                self.measure,
            ) {
                // Each categorical evaluation costs one dispersion
                // computation per category plus the aggregation; count it
                // as one entropy-like calculation, mirroring how the paper
                // counts split evaluations.
                stats.entropy_calculations += 1;
                let better = match &best {
                    None => true,
                    Some(b) => score < b.score() - 1e-12,
                };
                if better {
                    best = Some(NodeSplit::Categorical {
                        attribute,
                        cardinality,
                        score,
                    });
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::NodeKind;
    use udt_data::{toy, Attribute, Schema, Tuple, UncertainValue};
    use udt_prob::DiscreteDist;

    fn separable_point_dataset() -> Dataset {
        let mut ds = Dataset::numerical(2, 2);
        for i in 0..20 {
            let class = i % 2;
            let x = class as f64 * 10.0 + (i as f64) * 0.1;
            let y = (i as f64) * 0.37 % 3.0;
            ds.push(Tuple::from_points(&[x, y], class)).unwrap();
        }
        ds
    }

    #[test]
    fn builds_a_perfect_tree_on_separable_point_data() {
        for algorithm in Algorithm::all() {
            let report = TreeBuilder::new(UdtConfig::new(algorithm))
                .build(&separable_point_dataset())
                .unwrap();
            let tree = &report.tree;
            assert!(tree.size() >= 3, "{algorithm:?} must split at least once");
            tree.flat().validate().unwrap();
            // Training accuracy is perfect on this separable data.
            let ds = separable_point_dataset();
            let correct = ds
                .tuples()
                .iter()
                .filter(|t| tree.predict(t).unwrap() == t.label())
                .count();
            assert_eq!(correct, ds.len(), "{algorithm:?}");
            assert!(report.stats.nodes_searched > 0);
        }
    }

    #[test]
    fn avg_cannot_separate_table1_but_udt_can() {
        // The paper's worked example: Averaging collapses every tuple to a
        // mean of ±2, which cannot distinguish class A from class B, while
        // the distribution-based tree classifies all six training tuples
        // correctly (§4.2).
        let data = toy::table1_dataset().unwrap();
        let avg = TreeBuilder::new(UdtConfig::new(Algorithm::Avg).with_postprune(false))
            .build(&data)
            .unwrap();
        let udt = TreeBuilder::new(
            UdtConfig::new(Algorithm::Udt)
                .with_postprune(false)
                .with_min_node_weight(0.0),
        )
        .build(&data)
        .unwrap();
        let avg_correct = data
            .tuples()
            .iter()
            .filter(|t| avg.tree.predict(t).unwrap() == t.label())
            .count();
        let udt_correct = data
            .tuples()
            .iter()
            .filter(|t| udt.tree.predict(t).unwrap() == t.label())
            .count();
        assert!(
            avg_correct <= 4,
            "AVG can classify at most 4/6 of the example tuples, got {avg_correct}"
        );
        assert_eq!(
            udt_correct, 6,
            "UDT classifies all example tuples correctly"
        );
        // The distribution-based tree has more information to work with, so
        // it is at least as elaborate as the Averaging tree (Fig. 3 vs
        // Fig. 2a in the paper).
        assert!(udt.tree.size() >= avg.tree.size());
    }

    #[test]
    fn all_pruned_algorithms_build_the_same_tree_as_udt() {
        // The paper's safe-pruning claim (§5): pruning only removes
        // suboptimal candidates, so the resulting decision tree is
        // unchanged. Continuous (Gaussian-injected) pdfs make score ties a
        // measure-zero event, so the trees must be structurally identical.
        use udt_data::synthetic::SyntheticSpec;
        use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
        let mut spec = SyntheticSpec::small(21);
        spec.tuples = 30;
        spec.attributes = 3;
        let point_data = spec.generate().unwrap();
        let data =
            inject_uncertainty(&point_data, &UncertaintySpec::baseline().with_s(16)).unwrap();
        let reference = TreeBuilder::new(UdtConfig::new(Algorithm::Udt).with_postprune(false))
            .build(&data)
            .unwrap();
        for algorithm in [
            Algorithm::UdtBp,
            Algorithm::UdtLp,
            Algorithm::UdtGp,
            Algorithm::UdtEs,
        ] {
            let report = TreeBuilder::new(UdtConfig::new(algorithm).with_postprune(false))
                .build(&data)
                .unwrap();
            assert_eq!(
                report.tree, reference.tree,
                "{algorithm:?} must build the same tree as exhaustive UDT"
            );
            // Pruning never evaluates more split points than the exhaustive
            // search.
            assert!(
                report.stats.entropy_calculations <= reference.stats.entropy_calculations,
                "{algorithm:?}"
            );
        }
    }

    #[test]
    fn parallel_subtree_build_is_bit_identical_to_sequential() {
        // The tentpole regression: the work-queue build (with forced-low
        // fork thresholds so real jobs are created) must produce the same
        // arena, bit for bit, as the plain sequential recursion, whether
        // the queue is drained inline or by pool workers.
        use udt_data::synthetic::SyntheticSpec;
        use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
        let mut spec = SyntheticSpec::small(33);
        spec.tuples = 120;
        spec.attributes = 4;
        let point_data = spec.generate().unwrap();
        let data =
            inject_uncertainty(&point_data, &UncertaintySpec::baseline().with_s(12)).unwrap();
        for algorithm in [Algorithm::Udt, Algorithm::UdtEs] {
            let sequential = TreeBuilder::new(
                UdtConfig::new(algorithm)
                    .with_postprune(false)
                    .with_parallel_cutoff_depth(usize::MAX),
            )
            .build(&data)
            .unwrap();
            let parallel = TreeBuilder::new(
                UdtConfig::new(algorithm)
                    .with_postprune(false)
                    .with_parallel_cutoff_depth(2)
                    .with_parallel_min_fork_tuples(1),
            )
            .build(&data)
            .unwrap();
            assert_eq!(
                parallel.tree.flat(),
                sequential.tree.flat(),
                "{algorithm:?}: arenas must be bit-identical"
            );
            assert_eq!(
                parallel.stats.entropy_like_calculations(),
                sequential.stats.entropy_like_calculations(),
                "{algorithm:?}: stats must aggregate identically"
            );
            parallel.tree.flat().validate().unwrap();
        }
    }

    #[test]
    fn pruning_counters_are_pinned_at_every_thread_count() {
        // Golden search counters of a seeded uncertain data set. Which
        // intervals the theorems and bounds prune depends on every node's
        // end-point set, the root's included, so a matrix construction
        // that moved one end point would move these counts even where the
        // arena stays the same.
        use udt_data::synthetic::SyntheticSpec;
        use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
        let mut spec = SyntheticSpec::small(2009);
        spec.tuples = 160;
        let data = inject_uncertainty(
            &spec.generate().unwrap(),
            &UncertaintySpec::baseline().with_s(16),
        )
        .unwrap();
        // entropy, bound, candidates, scored, intervals pruned, of them
        // by a bound, nodes searched
        let golden = [
            (
                Algorithm::UdtEs,
                [10169, 2332, 66008, 10169, 2250, 1616, 38],
            ),
            (
                Algorithm::UdtGp,
                [14065, 4560, 66008, 14065, 6628, 4206, 38],
            ),
        ];
        for (algorithm, want) in golden {
            for threads in [1, 2] {
                let stats = TreeBuilder::new(
                    UdtConfig::new(algorithm)
                        .with_postprune(false)
                        .with_threads(threads),
                )
                .build(&data)
                .unwrap()
                .stats;
                let got = [
                    stats.entropy_calculations,
                    stats.bound_calculations,
                    stats.candidate_points,
                    stats.candidates_scored,
                    stats.intervals_pruned,
                    stats.intervals_pruned_bound,
                    stats.nodes_searched,
                ];
                assert_eq!(got, want, "{algorithm:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn empty_and_invalid_inputs_are_rejected() {
        let empty = Dataset::numerical(2, 2);
        assert!(matches!(
            TreeBuilder::new(UdtConfig::default()).build(&empty),
            Err(TreeError::EmptyTrainingSet)
        ));
        let bad_config = UdtConfig::new(Algorithm::Udt).with_max_depth(0);
        assert!(TreeBuilder::new(bad_config)
            .build(&separable_point_dataset())
            .is_err());
    }

    #[test]
    fn non_finite_sample_points_from_json_are_typed_errors() {
        // The serde_json shim parses `1e999` as infinity; the validating
        // `Deserialize` of `SampledPdf` refuses it, so a data set that
        // carries one never reaches the builder.
        let mut ds = Dataset::numerical(2, 2);
        for i in 0..12 {
            let point = [i as f64, 100.25 + i as f64];
            ds.push(Tuple::from_points(&point, i % 2)).unwrap();
        }
        let json = serde_json::to_string(&ds).unwrap();
        assert_eq!(json.matches("107.25").count(), 1, "tuple 7, attribute 1");
        assert!(serde_json::from_str::<Dataset>(&json).is_ok());
        for literal in ["1e999", "-1e999"] {
            let err = serde_json::from_str::<Dataset>(&json.replace("107.25", literal))
                .expect_err("a non-finite sample point is refused");
            assert!(
                err.to_string().contains("sample points"),
                "{literal}: {err}"
            );
        }
    }

    #[test]
    fn matrix_buffers_are_recycled_within_a_build_and_released_after_it() {
        use udt_data::synthetic::SyntheticSpec;
        use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
        let mut spec = SyntheticSpec::small(33);
        spec.tuples = 120;
        spec.attributes = 4;
        let data = inject_uncertainty(
            &spec.generate().unwrap(),
            &UncertaintySpec::baseline().with_s(12),
        )
        .unwrap();
        // One thread: which node takes which buffer is deterministic.
        let builder = TreeBuilder::new(
            UdtConfig::new(Algorithm::UdtEs)
                .with_postprune(false)
                .with_threads(1),
        );
        let first = builder.build(&data).unwrap();
        let second = builder.build(&data).unwrap();
        assert!(first.stats.nodes_searched > 1, "a multi-node build");
        assert!(first.stats.matrix_bytes_fresh > 0);
        assert!(
            first.stats.matrix_bytes_reused > 0,
            "later nodes reuse earlier nodes' buffers"
        );
        // A pool kept across builds would serve the second build from
        // the first one's buffers.
        assert_eq!(
            second.stats.matrix_bytes_fresh,
            first.stats.matrix_bytes_fresh
        );
        assert_eq!(
            second.stats.matrix_bytes_reused,
            first.stats.matrix_bytes_reused
        );
        let summary = first.summary();
        assert_eq!(summary.matrix_bytes_fresh, first.stats.matrix_bytes_fresh);
        assert_eq!(summary.matrix_bytes_reused, first.stats.matrix_bytes_reused);

        // Per column the pool hands out three buffers — positions, event
        // runs and end-point rows — and takes all three back.
        let tuples: Vec<FractionalTuple<'_>> = data
            .tuples()
            .iter()
            .map(FractionalTuple::from_tuple)
            .collect();
        let labels: Vec<u32> = tuples.iter().map(|t| t.label as u32).collect();
        let k = data.n_classes();
        let root = columns::build_root_with(&tuples, &[0], &WorkerPool::for_concurrency(1));
        let state = columns::root_state(&tuples, &root);
        let mut scratch = Scratch::new(tuples.len());
        scratch.load_weights(&state);
        let pool = BufferPool::default();
        let mut build = || {
            columns::events_from_column_in(
                &state.columns[0],
                &root.columns[0],
                &labels,
                k,
                &mut scratch,
                &pool,
            )
            .expect("a splittable column")
        };
        let events = build();
        let n_events = state.columns[0].len();
        let bytes = (8 * (3 * n_events + events.end_point_indices().len() * k)) as u64;
        assert_eq!(pool.bytes(), (bytes, 0), "positions, runs, end rows");
        pool.recycle(events);
        pool.recycle(build());
        assert_eq!(pool.bytes(), (bytes, bytes), "all three come back");
        // The subtree-queue release at the column's largest request keeps
        // them all; one element below it frees the largest, the runs.
        let largest = columns::largest_request(n_events, state.alive.len(), k);
        assert_eq!(largest, 2 * n_events);
        pool.release_above(largest);
        pool.recycle(build());
        assert_eq!(pool.bytes(), (bytes, 2 * bytes));
        pool.release_above(largest - 1);
        pool.recycle(build());
        let runs = (8 * largest) as u64;
        assert_eq!(pool.bytes(), (bytes + runs, 3 * bytes - runs));
    }

    #[test]
    fn max_depth_caps_the_tree() {
        let report = TreeBuilder::new(
            UdtConfig::new(Algorithm::UdtEs)
                .with_max_depth(2)
                .with_postprune(false),
        )
        .build(&separable_point_dataset())
        .unwrap();
        assert!(report.tree.depth() <= 2);
    }

    #[test]
    fn min_node_weight_stops_small_nodes_from_splitting() {
        let big = TreeBuilder::new(
            UdtConfig::new(Algorithm::Udt)
                .with_postprune(false)
                .with_min_node_weight(1000.0),
        )
        .build(&separable_point_dataset())
        .unwrap();
        assert_eq!(
            big.tree.size(),
            1,
            "root cannot split under the weight floor"
        );
    }

    #[test]
    fn categorical_attributes_are_used_when_informative() {
        // One categorical attribute perfectly aligned with the class and
        // one useless numerical attribute.
        let schema = Schema::new(vec![
            Attribute::categorical("colour", 3),
            Attribute::numerical("noise"),
        ]);
        let mut ds = Dataset::new(schema, vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..30 {
            let class = i % 3;
            let dist = DiscreteDist::certain(class, 3).unwrap();
            ds.push(Tuple::new(
                vec![
                    UncertainValue::Categorical(dist),
                    UncertainValue::point((i % 5) as f64),
                ],
                class,
            ))
            .unwrap();
        }
        let report = TreeBuilder::new(UdtConfig::new(Algorithm::UdtGp).with_postprune(false))
            .build(&ds)
            .unwrap();
        let flat = report.tree.flat();
        assert_eq!(
            flat.kind(FlatTree::ROOT),
            NodeKind::CategoricalSplit,
            "expected a categorical root split"
        );
        assert_eq!(flat.attribute(FlatTree::ROOT), 0);
        assert_eq!(flat.children_of(FlatTree::ROOT).len(), 3);
        let correct = ds
            .tuples()
            .iter()
            .filter(|t| report.tree.predict(t).unwrap() == t.label())
            .count();
        assert_eq!(correct, 30);
    }

    #[test]
    fn build_summary_reports_key_figures() {
        let report = TreeBuilder::new(UdtConfig::new(Algorithm::UdtEs))
            .build(&separable_point_dataset())
            .unwrap();
        let s = report.summary();
        assert_eq!(s.algorithm, "UDT-ES");
        assert_eq!(s.nodes, report.tree.size());
        assert!(s.seconds >= 0.0);
        assert!(s.entropy_like_calculations > 0);
        assert_eq!(
            s.tree_heap_bytes,
            report.tree.flat().heap_bytes() as u64,
            "summary surfaces the arena footprint"
        );
        assert!(s.tree_heap_bytes > 0);
    }

    #[test]
    fn columnar_and_naive_builds_agree_on_split_structure() {
        // The columnar engine and the checked-in naive baseline must make
        // the same split decisions on a numeric workload.
        use udt_data::synthetic::SyntheticSpec;
        use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
        let mut spec = SyntheticSpec::small(5);
        spec.tuples = 24;
        spec.attributes = 2;
        let data = inject_uncertainty(
            &spec.generate().unwrap(),
            &UncertaintySpec::baseline().with_s(12),
        )
        .unwrap();
        let report = TreeBuilder::new(UdtConfig::new(Algorithm::Udt).with_postprune(false))
            .build(&data)
            .unwrap();
        let naive_splits = crate::baseline::naive_build_splits(
            &data,
            Measure::Entropy,
            crate::baseline::NaiveSearch::Exhaustive,
            25,
            2.0,
            1e-6,
        );
        let columnar_splits = report.tree.size() - report.tree.n_leaves();
        assert_eq!(columnar_splits, naive_splits);
    }

    // §7.5: the pruning techniques apply unchanged to point data. A point
    // tree is built over the averaged projection of a data set.

    fn point_dataset(n: usize) -> Dataset {
        let mut ds = Dataset::numerical(2, 2);
        for i in 0..n {
            let class = i % 2;
            let x = class as f64 * 5.0 + (i % 7) as f64 * 0.3;
            let y = (i % 11) as f64;
            ds.push(Tuple::from_points(&[x, y], class)).unwrap();
        }
        ds
    }

    fn build_point_tree(data: &Dataset, algorithm: Algorithm) -> Result<BuildReport> {
        TreeBuilder::new(UdtConfig::new(algorithm)).build(&data.to_averaged())
    }

    #[test]
    fn point_trees_from_all_strategies_agree_on_accuracy() {
        let ds = point_dataset(60);
        let reference = build_point_tree(&ds, Algorithm::Udt).unwrap();
        let reference_acc = ds
            .tuples()
            .iter()
            .filter(|t| reference.tree.predict(t).unwrap() == t.label())
            .count();
        for algorithm in [Algorithm::UdtBp, Algorithm::UdtGp, Algorithm::UdtEs] {
            let report = build_point_tree(&ds, algorithm).unwrap();
            let acc = ds
                .tuples()
                .iter()
                .filter(|t| report.tree.predict(t).unwrap() == t.label())
                .count();
            assert_eq!(acc, reference_acc, "{algorithm:?}");
        }
    }

    #[test]
    fn end_point_sampling_saves_work_on_point_data() {
        let ds = point_dataset(400);
        let udt = build_point_tree(&ds, Algorithm::Udt).unwrap();
        let es = build_point_tree(&ds, Algorithm::UdtEs).unwrap();
        // Pass 2 of the pruned search is always the sequential
        // progressive scan (part of the thread-count determinism
        // contract), so the strict work inequality holds at every
        // thread count.
        assert!(
            es.stats.entropy_like_calculations() <= udt.stats.entropy_like_calculations(),
            "ES ({}) should not exceed UDT ({}) on point data",
            es.stats.entropy_like_calculations(),
            udt.stats.entropy_like_calculations()
        );
        let acc = |r: &BuildReport| {
            ds.tuples()
                .iter()
                .filter(|t| r.tree.predict(t).unwrap() == t.label())
                .count()
        };
        assert_eq!(acc(&udt), acc(&es));
    }

    #[test]
    fn uncertain_data_is_collapsed_before_building() {
        use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
        let ds = point_dataset(30);
        let uncertain = inject_uncertainty(&ds, &UncertaintySpec::baseline().with_s(20)).unwrap();
        let report = build_point_tree(&uncertain, Algorithm::UdtGp).unwrap();
        // The point tree never sees more than one sample per value, so its
        // candidate pool equals the averaged data's distinct values.
        assert!(report.stats.candidate_points <= (uncertain.len() as u64 + 1) * 2);
    }
}
