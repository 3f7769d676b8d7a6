//! # udt-tree — decision trees for uncertain data
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Decision Trees for Uncertain Data"* (Tsang, Kao, Yip, Ho, Lee — ICDE
//! 2009 / TKDE 2011): binary decision trees whose training and test tuples
//! carry *uncertain* numerical attributes represented by pdfs, together
//! with the family of split-search algorithms the paper introduces.
//!
//! ## Algorithms
//!
//! | Algorithm | Paper section | Strategy |
//! |---|---|---|
//! | [`Algorithm::Avg`]   | §4.1 | collapse pdfs to their means, classical C4.5-style search |
//! | [`Algorithm::Udt`]   | §4.2 | exhaustive search over all `m·s − 1` pdf sample points |
//! | [`Algorithm::UdtBp`] | §5.1 | + skip interiors of empty / homogeneous intervals (Theorems 1–3) |
//! | [`Algorithm::UdtLp`] | §5.2 | + per-attribute lower-bound pruning of heterogeneous intervals (eq. 3/4) |
//! | [`Algorithm::UdtGp`] | §5.2 | + one global pruning threshold across all attributes |
//! | [`Algorithm::UdtEs`] | §5.3 | + end-point sampling with coarse-interval pruning |
//!
//! All pruning is *safe*: every algorithm returns a split with the same
//! optimal dispersion score as the exhaustive search, which is asserted by
//! the property tests in `tests/`.
//!
//! ## The columnar split engine
//!
//! The split-search hot path is columnar and allocation-free:
//!
//! * **Presorting + zero-copy views** ([`columns`]): every numerical
//!   attribute's pdf sample points are flattened into one sorted event
//!   column *once at the root*, and those root columns are **immutable**
//!   thereafter. Tree recursion narrows per-attribute *views* — surviving
//!   event ids plus sparse per-tuple scale factors (the kept-pdf-fraction
//!   chain of §3.2's fractional splits) — reconstructing event mass on
//!   the fly as `root_mass * scale`. A child column is a list of `4`-byte
//!   event ids; nothing per event is ever copied.
//! * **End-point count rows** ([`events::AttributeEvents`]): a column
//!   keeps its events as `(class, weight)` runs and stores the
//!   cumulative per-class rows only at the interval end points `Q_j`,
//!   which are all the pruning theorems and bounds read; any other row
//!   is replayed from the nearest end-point row in column order, bit
//!   for bit the dense running sum. The "right" counts are derived in
//!   place from `total − left`.
//! * **One construction loop** ([`columns::events_from_column`]): every
//!   node's count structure, the root's included, comes from one fused
//!   pass over the node's view of a presorted column that gates,
//!   aggregates and tracks the interval end points together.
//! * **Zero-allocation scoring** ([`measure::Measure::split_score_cum`],
//!   [`measure::Measure::interval_lower_bound_cum`]): eq. 1 scores and
//!   the §5.2 eq. 3/4 bounds are pure slice arithmetic; no counter is
//!   cloned anywhere on the per-candidate path.
//! * **One score kernel** ([`kernel`]): a batch of at least eight
//!   candidates is scored by the batch kernel, one safe 4-row lane
//!   definition compiled twice: for AVX2 (used when the CPU has it) and
//!   for the baseline target, with bit-identical results. Shorter
//!   batches, single candidates and interval bounds use the exact
//!   formula. Batch scores are within 1e-12 of the exact formula, and a
//!   seeded parity suite pins the arena fingerprints of every algorithm
//!   × measure. Counts are always `f64`.
//! * **Baseline** ([`baseline`]): the pre-columnar engine (per-node
//!   rebuild + re-sort, one owned counter per position, clone-based
//!   scoring) is kept for regression tests — the columnar engine
//!   reproduces its scores bit for bit — and for the
//!   `split_algorithms` criterion bench, where the per-node split-search
//!   step runs ~7× faster columnar than naive.
//!
//! ## The flat arena
//!
//! Trees are stored in a flat structure-of-arrays arena
//! ([`flat::FlatTree`]): node kinds, attributes, split points, a child
//! index slab, a per-node class-count slab and a leaf-distribution slab,
//! root at index 0, children always after their parent. The arena is the
//! only tree representation: [`TreeBuilder`] emits preorder directly into
//! it, post-pruning runs bottom-up over it with one reverse index loop,
//! persistence serialises it (formats 2 and 3, see [`persist`]) and
//! classification walks it.
//!
//! ## Serving: batch classification
//!
//! [`classify::classify_batch`] is the one classification walk. It
//! classifies a whole slice of tuples with an explicit-stack walk over
//! the arena, reusing every per-tuple buffer (frame stack, pdf-override
//! delta chain, accumulator) in a [`classify::BatchScratch`] and skipping
//! pdf materialisation whenever a split is one-sided.
//! [`DecisionTree::predict_distribution`], [`DecisionTree::predict`] and
//! [`DecisionTree::predict_batch`] are wrappers over it. Regression tests
//! compare it bit for bit with a recursive oracle of the paper's §3.2
//! definition; the `classify_throughput` bench measures what reusing one
//! scratch across a batch saves over the per-call API.
//!
//! ## The execution pool
//!
//! Every parallel build phase runs on one **persistent thread pool**
//! ([`pool::WorkerPool`]), sized at runtime by [`UdtConfig::threads`]
//! (`UDT_THREADS` env override; the build environment has no rayon, so
//! the pool is built on `std` threads sharing one task queue). Three
//! phases fan out:
//!
//! 1. the per-attribute root presort ([`columns::build_root_with`]) and
//!    the per-attribute count-structure construction at large nodes;
//! 2. the per-attribute split search inside
//!    [`split::SplitSearch::find_best`];
//! 3. sibling subtrees below a configurable fork depth, deferred onto a
//!    work queue and built into private arena fragments that are
//!    grafted back in deterministic order and renumbered to canonical
//!    preorder (see [`builder`]).
//!
//! **Determinism contract:** every fan-out is an index-ordered map over
//! per-item work that is itself deterministic, all merges happen in
//! attribute/queue order, and the UDT-GP/UDT-ES cross-attribute pruning
//! pass never shares intermediate thresholds between concurrent items —
//! so builds are **arena-bit-identical for every thread count,
//! including 1** (regression-tested across thread counts and fork
//! depths). Thread count is purely a runtime setting.
//!
//! ## Typical use
//!
//! ```
//! use udt_data::{toy, uncertainty, Dataset};
//! use udt_tree::{Algorithm, UdtConfig, TreeBuilder};
//!
//! let data = toy::table1_dataset().unwrap();
//! let config = UdtConfig::new(Algorithm::UdtEs);
//! let report = TreeBuilder::new(config).build(&data).unwrap();
//! let tree = report.tree;
//! // Classify an uncertain test tuple; the result is a distribution over
//! // class labels (§3.2).
//! let dist = tree.predict_distribution(&data.tuples()[2]).unwrap();
//! assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//!
//! // Serving batches: classify a whole slice with reusable scratch.
//! use udt_tree::{classify_batch, BatchScratch};
//! let mut scratch = BatchScratch::new();
//! let dists = classify_batch(&tree, data.tuples(), &mut scratch).unwrap();
//! assert_eq!(dists.len(), data.tuples().len() * tree.n_classes());
//! ```

// Negated float comparisons (`!(x > 0.0)`) are deliberate NaN guards
// throughout this crate: a NaN parameter must take the rejection branch.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Parallel-slice index loops mirror the paper's subscript notation and
// often index several arrays at once; iterator rewrites obscure that.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod builder;
pub mod categorical;
pub mod classify;
pub mod columns;
pub mod config;
pub mod counts;
pub mod error;
pub mod events;
pub mod flat;
pub mod fractional;
pub mod kernel;
pub mod measure;
pub mod node;
pub mod persist;
pub mod pool;
pub mod postprune;
pub mod split;

pub use builder::{BuildReport, TreeBuilder};
pub use classify::{classify_batch, BatchScratch};
pub use config::{Algorithm, PartitionMode, ThreadCount, UdtConfig};
pub use counts::ClassCounts;
pub use error::TreeError;
pub use flat::{FlatTree, NodeKind};
pub use kernel::{CountsRepr, KernelKind};
pub use measure::Measure;
pub use node::DecisionTree;
pub use pool::WorkerPool;
pub use split::{SearchStats, SplitChoice};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TreeError>;
