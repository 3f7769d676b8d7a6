//! Split-point search strategies.
//!
//! Every tree node asks a [`SplitSearch`] strategy for the best `(attribute,
//! split point)` pair over the node's fractional tuples. The strategies
//! implement the paper's algorithms:
//!
//! * [`exhaustive::ExhaustiveSearch`] — UDT's brute-force search over every
//!   pdf sample point (§4.2), also used (on point data) by AVG (§4.1);
//! * [`pruned::PrunedSearch`] — the common engine behind UDT-BP, UDT-LP,
//!   UDT-GP and UDT-ES (§5), configured via [`pruned::BoundingMode`] and
//!   the end-point sampling rate;
//! * [`bp`], [`lp`], [`gp`], [`es`] — thin constructors selecting the
//!   paper's exact configurations.
//!
//! All strategies record their work in [`SearchStats`], whose
//! `entropy_like_calculations` counter is the quantity plotted in the
//! paper's Fig. 7.

pub mod bp;
pub mod es;
pub mod exhaustive;
pub mod gp;
pub mod lp;
pub mod pruned;

/// Minimum total candidate-position count before an attribute scan
/// fans out onto the build pool. Handing a task to another thread costs
/// a queue push and a wake; near the leaves of a tree a whole attribute
/// scan covers only a handful of positions, where that overhead would
/// dominate the work.
pub(crate) const PARALLEL_MIN_POSITIONS: usize = 4096;

/// Maps `f` over `0..n` — on the thread's current build pool (see
/// [`crate::pool`]) when one is entered with more than one thread,
/// there is more than one item, and `work` (the caller's estimate of
/// total candidate positions) is large enough to amortise the task
/// hand-off — sequentially otherwise. Results always come back in index
/// order, so merging stays deterministic and the outcome is identical
/// at every thread count.
pub(crate) fn map_attributes<T, F>(n: usize, work: usize, f: F) -> Vec<T>
where
    F: Fn(usize) -> T + Sync,
    T: Send,
{
    if n > 1 && work >= PARALLEL_MIN_POSITIONS {
        if let Some(pool) = crate::pool::fanout() {
            return pool.map(n, f);
        }
    }
    (0..n).map(f).collect()
}

use serde::{Deserialize, Serialize};

use crate::events::AttributeEvents;
use crate::measure::Measure;

/// The best split found for a node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitChoice {
    /// Index of the attribute to test.
    pub attribute: usize,
    /// Split point `z`; the node's test is `v ≤ z`.
    pub split: f64,
    /// The dispersion score achieved (lower is better).
    pub score: f64,
}

impl SplitChoice {
    /// Whether `candidate` improves on `self` under the deterministic
    /// ordering used by every strategy: strictly better score first, then
    /// lower attribute index, then lower split point. The tolerance makes
    /// tie-breaking stable under floating-point jitter so that all
    /// algorithms pick the same split when scores tie.
    pub fn is_improved_by(&self, candidate: &SplitChoice) -> bool {
        const TOL: f64 = 1e-12;
        if candidate.score < self.score - TOL {
            return true;
        }
        if candidate.score > self.score + TOL {
            return false;
        }
        (candidate.attribute, candidate.split) < (self.attribute, self.split)
    }
}

/// Folds `candidate` into `best` under the deterministic tie-break
/// ordering of [`SplitChoice::is_improved_by`]. The single merge point
/// used by every search strategy, so the (score, attribute, split)
/// invariant that the parallel merge and the regression tests rely on
/// lives in one place.
pub(crate) fn merge_best(best: &mut Option<SplitChoice>, candidate: SplitChoice) {
    match best {
        Some(b) if !b.is_improved_by(&candidate) => {}
        _ => *best = Some(candidate),
    }
}

/// Instrumentation counters for one tree construction (the quantities
/// reported in the paper's Figs. 6 and 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Dispersion evaluations at candidate split points.
    pub entropy_calculations: u64,
    /// Interval lower-bound evaluations (eq. 3 / eq. 4). The paper counts
    /// these together with entropy calculations because they cost about the
    /// same.
    pub bound_calculations: u64,
    /// Dispersion evaluations performed at interval end points (a subset of
    /// `entropy_calculations`).
    pub end_point_evaluations: u64,
    /// Candidate split points available across all attributes (the search
    /// space size `k·(m·s − 1)` of §4.2).
    pub candidate_points: u64,
    /// Candidate split points actually scored: end-point evaluations
    /// plus surviving interval interiors (a subset of
    /// `candidate_points`; the gap is what pruning saved).
    pub candidates_scored: u64,
    /// End-point intervals examined.
    pub intervals_examined: u64,
    /// Intervals whose interiors were pruned (by Theorems 1–3 or by
    /// bounding).
    pub intervals_pruned: u64,
    /// The subset of `intervals_pruned` discarded by the eq. 3/4
    /// interval lower bound (rather than outright by Theorems 1–3).
    pub intervals_pruned_bound: u64,
    /// Tree nodes for which a split search was run.
    pub nodes_searched: u64,
    /// Total bytes allocated for child node state by the partition layer
    /// (see [`crate::columns`]) — the data-movement constant the view
    /// partitioning shrinks.
    pub partition_bytes: u64,
    /// Largest single partition call's allocation, in bytes.
    pub partition_peak_bytes: u64,
    /// Nanoseconds spent in the root presort phase
    /// ([`crate::columns::build_root_with`]). Recorded once on the build
    /// thread, so this is wall-clock.
    pub presort_ns: u64,
    /// Nanoseconds spent in per-node split search (event-structure
    /// construction plus the strategy scan), summed over every thread
    /// that built a subtree. Each contribution is that thread's wall
    /// time in the phase; work a fan-out's pool helpers do inside the
    /// window is covered by the window, not summed again.
    pub search_ns: u64,
    /// Nanoseconds spent partitioning node state into children, summed
    /// over threads like `search_ns`.
    pub partition_ns: u64,
    /// Nanoseconds spent grafting subtree fragments back into the main
    /// arena and renumbering it to canonical preorder. Recorded once on
    /// the build thread, so this is wall-clock.
    pub graft_ns: u64,
    /// Bytes of per-node matrix buffers (positions, event runs and
    /// end-point rows of every [`crate::events::AttributeEvents`] the
    /// build constructed) that had to be freshly allocated.
    pub matrix_bytes_fresh: u64,
    /// Bytes of per-node matrix buffers served by recycling an earlier
    /// node's buffers within the same build.
    pub matrix_bytes_reused: u64,
}

impl SearchStats {
    /// Total "entropy-like" computations — the quantity of Fig. 7.
    pub fn entropy_like_calculations(&self) -> u64 {
        self.entropy_calculations + self.bound_calculations
    }

    /// Candidate split points pruned before scoring — the paper's
    /// headline pruning-effectiveness quantity (Fig. 6).
    pub fn candidates_pruned(&self) -> u64 {
        self.candidate_points.saturating_sub(self.candidates_scored)
    }

    /// Fraction of candidate split points pruned before scoring (0 when
    /// no candidates existed).
    pub fn prune_fraction(&self) -> f64 {
        if self.candidate_points == 0 {
            0.0
        } else {
            self.candidates_pruned() as f64 / self.candidate_points as f64
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &SearchStats) {
        self.entropy_calculations += other.entropy_calculations;
        self.bound_calculations += other.bound_calculations;
        self.end_point_evaluations += other.end_point_evaluations;
        self.candidate_points += other.candidate_points;
        self.candidates_scored += other.candidates_scored;
        self.intervals_examined += other.intervals_examined;
        self.intervals_pruned += other.intervals_pruned;
        self.intervals_pruned_bound += other.intervals_pruned_bound;
        self.nodes_searched += other.nodes_searched;
        self.partition_bytes += other.partition_bytes;
        self.partition_peak_bytes = self.partition_peak_bytes.max(other.partition_peak_bytes);
        self.presort_ns += other.presort_ns;
        self.search_ns += other.search_ns;
        self.partition_ns += other.partition_ns;
        self.graft_ns += other.graft_ns;
        self.matrix_bytes_fresh += other.matrix_bytes_fresh;
        self.matrix_bytes_reused += other.matrix_bytes_reused;
    }
}

/// A strategy for finding the best split over a node's numerical
/// attributes.
pub trait SplitSearch: Send + Sync {
    /// Finds the best split over the given per-attribute candidate
    /// structures (pairs of attribute index and its [`AttributeEvents`]).
    /// Returns `None` when no valid split exists. Work is recorded in
    /// `stats`.
    fn find_best(
        &self,
        events: &[(usize, AttributeEvents)],
        measure: Measure,
        stats: &mut SearchStats,
    ) -> Option<SplitChoice>;

    /// Short algorithm name for reports ("UDT", "UDT-ES", …).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_choice_ordering_prefers_lower_score_then_attribute_then_split() {
        let base = SplitChoice {
            attribute: 1,
            split: 5.0,
            score: 0.5,
        };
        assert!(base.is_improved_by(&SplitChoice {
            attribute: 3,
            split: 9.0,
            score: 0.4
        }));
        assert!(!base.is_improved_by(&SplitChoice {
            attribute: 0,
            split: 0.0,
            score: 0.6
        }));
        // Equal score: lower attribute wins.
        assert!(base.is_improved_by(&SplitChoice {
            attribute: 0,
            split: 9.0,
            score: 0.5
        }));
        // Equal score and attribute: lower split wins.
        assert!(base.is_improved_by(&SplitChoice {
            attribute: 1,
            split: 4.0,
            score: 0.5
        }));
        assert!(!base.is_improved_by(&base.clone()));
    }

    #[test]
    fn stats_merge_and_totals() {
        let mut a = SearchStats {
            entropy_calculations: 10,
            bound_calculations: 2,
            end_point_evaluations: 4,
            candidate_points: 100,
            candidates_scored: 30,
            intervals_examined: 5,
            intervals_pruned: 3,
            intervals_pruned_bound: 2,
            nodes_searched: 1,
            partition_bytes: 64,
            partition_peak_bytes: 48,
            presort_ns: 7,
            search_ns: 11,
            partition_ns: 13,
            graft_ns: 17,
            matrix_bytes_fresh: 19,
            matrix_bytes_reused: 23,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.entropy_calculations, 20);
        assert_eq!(a.bound_calculations, 4);
        assert_eq!(a.entropy_like_calculations(), 24);
        assert_eq!(a.nodes_searched, 2);
        // Pruning effectiveness: scored and bound-pruned accumulate,
        // and the derived quantities follow.
        assert_eq!(a.candidates_scored, 60);
        assert_eq!(a.intervals_pruned_bound, 4);
        assert_eq!(a.candidates_pruned(), 140);
        assert!((a.prune_fraction() - 0.7).abs() < 1e-12);
        // Totals add; the peak is the max across merged stats.
        assert_eq!(a.partition_bytes, 128);
        assert_eq!(a.partition_peak_bytes, 48);
        // Per-phase timings accumulate.
        assert_eq!(a.presort_ns, 14);
        assert_eq!(a.search_ns, 22);
        assert_eq!(a.partition_ns, 26);
        assert_eq!(a.graft_ns, 34);
        // Matrix buffer traffic adds.
        assert_eq!(a.matrix_bytes_fresh, 38);
        assert_eq!(a.matrix_bytes_reused, 46);
    }
}
