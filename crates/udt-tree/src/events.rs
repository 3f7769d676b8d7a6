//! Per-attribute candidate-split structure (columnar layout).
//!
//! For one numerical attribute and one set of (fractional) tuples, UDT's
//! split search needs, for every candidate split point `z`, the weighted
//! per-class counts on the two sides of the test `v ≤ z`. [`AttributeEvents`]
//! pre-computes that in `O(m·s·log(m·s))` (or `O(m·s)` when fed an
//! already-sorted event column by the tree builder):
//!
//! * every pdf sample point contributes a *mass event* `(x, class, w·mass)`;
//! * events are sorted and aggregated into the distinct positions `xs`;
//! * the running per-class cumulative counts are stored as a single
//!   row-major `Vec<f64>` matrix (`n_positions × n_classes`), so the
//!   "left" counts of any candidate are one borrowed row — the discrete
//!   analogue of the paper's remark that storing cumulative distributions
//!   turns the integration of §4.2 into a subtraction, laid out so the
//!   per-candidate scoring loop performs **zero heap allocations**: the
//!   right-side counts are derived from `total − left` on the fly inside
//!   [`crate::measure::Measure::split_score_cum`].
//!
//! The structure also exposes the *end points* `Q_j` (the pdf domain
//! boundaries of §5.1) and the disjoint intervals they induce, each
//! classified as empty, homogeneous or heterogeneous (Definitions 2–4),
//! which is all the pruning algorithms need.
//!
//! The tree builder draws the `xs` and `cum` buffers of its per-node
//! structures from a `BufferPool` owned by the build: a node's buffers
//! go back to the pool once its split search is done and later nodes
//! take them best-fit, so a steady-state build mostly writes into memory
//! it has already touched instead of faulting in fresh pages per node.

use std::sync::Mutex;

use crate::counts::{clamp_residue, CountsView, WEIGHT_EPSILON};
use crate::fractional::FractionalTuple;
use crate::kernel::simd;
use crate::measure::Measure;
use udt_obs::catalog;

/// Classification of an end-point interval `(a, b]` (Definitions 2–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalKind {
    /// No probability mass inside the interval.
    Empty,
    /// All probability mass inside the interval belongs to one class.
    Homogeneous,
    /// Mass from at least two classes lies inside the interval.
    Heterogeneous,
}

/// One end-point interval `(a, b]`, referenced by indices into
/// [`AttributeEvents::xs`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Index of the left end point `a`.
    pub lo_idx: usize,
    /// Index of the right end point `b`.
    pub hi_idx: usize,
    /// Interval classification.
    pub kind: IntervalKind,
}

/// Safety margin subtracted from interval lower bounds: batch scores
/// differ from the exact bound formula by polynomial-`log2` jitter
/// (~1e-13), and a bound must never exceed a true score it covers.
/// Matches the deterministic tie-break band of
/// [`crate::split::SplitChoice::is_improved_by`].
const SIMD_BOUND_MARGIN: f64 = 1e-12;

/// Shortest batch the batch kernel scores. Its per-call setup (column
/// constants, measure dispatch, backend detection) costs more than it
/// saves on the tiny candidate runs that pruned searches leave behind, so
/// shorter batches take the exact per-candidate formula, which is within
/// the kernel's documented tolerance of it.
const SIMD_MIN_BATCH: usize = 8;

/// Sorted, aggregated per-attribute candidate-split structure in
/// structure-of-arrays form.
#[derive(Debug, Clone)]
pub struct AttributeEvents {
    /// Distinct candidate positions, ascending. Every pdf sample point of
    /// every tuple appears here.
    xs: Vec<f64>,
    /// Row-major cumulative per-class mass matrix: row `i` (that is,
    /// `cum[i*k .. (i+1)*k]` for `k = n_classes`) holds the per-class mass
    /// at positions `<= xs[i]`. The final row is the per-class total.
    cum: Vec<f64>,
    /// Number of classes (row width of `cum`).
    n_classes: usize,
    /// Indices into `xs` of the end points `Q_j` (pdf domain boundaries),
    /// ascending and distinct.
    end_point_idx: Vec<usize>,
    /// The final cumulative row, hoisted so no scoring path re-derives
    /// the per-class totals per candidate.
    total_row: Vec<f64>,
    /// Class-order f64 sum of `total_row` — the column's total mass,
    /// hoisted for the batch kernel.
    grand_total: f64,
}

impl AttributeEvents {
    /// Builds the structure for numerical attribute `attribute` over
    /// `tuples`. Returns `None` when the attribute carries no usable mass
    /// or only a single distinct position (in which case no split is
    /// possible).
    pub fn build(
        tuples: &[FractionalTuple],
        attribute: usize,
        n_classes: usize,
    ) -> Option<AttributeEvents> {
        let mut events: Vec<(f64, usize, f64)> = Vec::new();
        let mut end_points: Vec<f64> = Vec::new();
        for t in tuples {
            let Some(pdf) = t.values[attribute].as_numeric() else {
                continue;
            };
            if t.weight <= WEIGHT_EPSILON {
                continue;
            }
            end_points.push(pdf.lo());
            end_points.push(pdf.hi());
            for (x, m) in pdf.iter() {
                let w = t.weight * m;
                // Consistent zero-mass gate: denormal event weights below
                // WEIGHT_EPSILON would create spurious candidate positions
                // (and inflate the `candidate_points` statistic) without
                // contributing meaningful mass.
                if w > WEIGHT_EPSILON {
                    events.push((x, t.label, w));
                }
            }
        }
        if events.is_empty() {
            return None;
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite sample points"));
        Self::from_sorted_events(&events, end_points, n_classes)
    }

    /// Builds the structure from events already sorted by position (the
    /// back half of [`build`](Self::build)). `end_points` may arrive
    /// unsorted; end points whose position carries no surviving mass are
    /// dropped (they bound empty domain stretches and coarsen the
    /// interval decomposition at most, which every pruning theorem
    /// tolerates).
    fn from_sorted_events(
        events: &[(f64, usize, f64)],
        mut end_points: Vec<f64>,
        n_classes: usize,
    ) -> Option<AttributeEvents> {
        if events.is_empty() {
            return None;
        }
        let mut xs: Vec<f64> = Vec::with_capacity(events.len());
        let mut cum: Vec<f64> = Vec::with_capacity(events.len() * n_classes);
        let mut running = vec![0.0f64; n_classes];
        for &(x, label, w) in events {
            debug_assert!(
                xs.last().is_none_or(|&last| last <= x),
                "events must arrive sorted by position"
            );
            if xs.last() != Some(&x) {
                if !xs.is_empty() {
                    cum.extend_from_slice(&running);
                }
                xs.push(x);
            }
            running[label] += w;
        }
        cum.extend_from_slice(&running);
        debug_assert_eq!(xs.len() * n_classes, cum.len());
        if xs.len() < 2 {
            return None;
        }

        end_points.sort_by(|a, b| a.partial_cmp(b).expect("finite end points"));
        end_points.dedup();
        let mut end_point_idx: Vec<usize> = end_points
            .iter()
            .filter_map(|&q| {
                xs.binary_search_by(|x| x.partial_cmp(&q).expect("finite"))
                    .ok()
            })
            .collect();
        // The interval decomposition must COVER every candidate position:
        // a dropped *interior* end point (its boundary event was
        // epsilon-gated) merely coarsens adjacent intervals, but a dropped
        // extreme end point would leave the candidates before the first /
        // after the last surviving end point outside every interval, and
        // the pruned searches would never evaluate them — breaking the
        // safe-pruning guarantee. Pin both extremes.
        if end_point_idx.first() != Some(&0) {
            end_point_idx.insert(0, 0);
        }
        let last = xs.len() - 1;
        if end_point_idx.last() != Some(&last) {
            end_point_idx.push(last);
        }

        Some(Self::assemble(xs, cum, n_classes, end_point_idx))
    }

    /// Assembles the structure from pre-aggregated parts — the zero-copy
    /// entry point used by [`crate::columns::events_from_column`], which
    /// fuses filtering, aggregation and end-point tracking into a single
    /// pass over a presorted column. Each structure it returns counts
    /// once in `KERNEL_MATRIX_BUILDS_F64`.
    ///
    /// Invariants (checked in debug builds): `xs` ascending and distinct,
    /// `cum` row-major with `xs.len()` rows of `n_classes`,
    /// `end_point_idx` ascending indices into `xs`.
    pub fn from_parts(
        xs: Vec<f64>,
        cum: Vec<f64>,
        n_classes: usize,
        end_point_idx: Vec<usize>,
    ) -> Option<AttributeEvents> {
        debug_assert!(xs.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(end_point_idx.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(end_point_idx.iter().all(|&i| i < xs.len()));
        debug_assert_eq!(xs.len() * n_classes, cum.len());
        if xs.len() < 2 {
            return None;
        }
        catalog::KERNEL_MATRIX_BUILDS_F64.incr();
        Some(Self::assemble(xs, cum, n_classes, end_point_idx))
    }

    /// Finishes construction from a validated matrix, hoisting the total
    /// row and the grand total (class-order f64 sum, matching the exact
    /// formula's accumulation order).
    fn assemble(
        xs: Vec<f64>,
        cum: Vec<f64>,
        n_classes: usize,
        end_point_idx: Vec<usize>,
    ) -> AttributeEvents {
        let last = xs.len() - 1;
        let total_row = cum[last * n_classes..(last + 1) * n_classes].to_vec();
        let grand_total = total_row.iter().sum();
        AttributeEvents {
            xs,
            cum,
            n_classes,
            end_point_idx,
            total_row,
            grand_total,
        }
    }

    /// The raw cumulative matrix — crate-internal, for the construction
    /// parity tests that compare stored matrices bit for bit.
    #[cfg(test)]
    pub(crate) fn cum(&self) -> &[f64] {
        &self.cum
    }

    /// The distinct candidate positions.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Number of distinct candidate positions.
    pub fn n_positions(&self) -> usize {
        self.xs.len()
    }

    /// Number of classes tracked per position.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Row `i` of the cumulative matrix.
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.cum[i * self.n_classes..(i + 1) * self.n_classes]
    }

    /// Total per-class mass over all tuples (the final cumulative row).
    pub fn total(&self) -> CountsView<'_> {
        CountsView::new(&self.total_row)
    }

    /// The per-class counts of mass at positions `<= xs[i]` — the "left"
    /// counts of a split at `xs[i]`. A borrowed row; no allocation.
    pub fn left_counts(&self, i: usize) -> CountsView<'_> {
        CountsView::new(self.row(i))
    }

    /// The per-class counts of mass at positions `> xs[i]` — the "right"
    /// counts of a split at `xs[i]` — written into `scratch`
    /// (allocation-free once the scratch has warmed up to `n_classes`
    /// capacity). The scoring loop itself derives right counts in place
    /// via [`Measure::split_score_cum`]; this is for callers that need
    /// the materialised counts repeatedly, without a fresh vector per
    /// call.
    pub fn right_counts_into<'a>(&self, i: usize, scratch: &'a mut Vec<f64>) -> CountsView<'a> {
        self.diff_into(i, self.xs.len() - 1, scratch)
    }

    /// Writes `row(hi) − row(lo)` (clamped) into `scratch` and returns a
    /// view of it. The shared kernel behind every materialised count
    /// helper, so all of them clamp drift identically.
    fn diff_into<'a>(&self, lo: usize, hi: usize, scratch: &'a mut Vec<f64>) -> CountsView<'a> {
        scratch.clear();
        scratch.extend(
            self.row(hi)
                .iter()
                .zip(self.row(lo))
                .map(|(&h, &l)| clamp_residue(h - l)),
        );
        CountsView::new(scratch)
    }

    /// Dispersion score (eq. 1) of splitting at `xs[i]`. Splits that leave
    /// one side without mass score `+∞` (they are not valid splits).
    /// Allocation-free: one borrowed cumulative row plus the hoisted
    /// total row. Single candidates always take the exact formula — only
    /// *batches* ([`score_range_into`](Self::score_range_into)) take the
    /// batch kernel, whose ~1e-14 cross-formula jitter the deterministic
    /// tie-break band absorbs.
    #[inline]
    pub fn score_at(&self, i: usize, measure: Measure) -> f64 {
        measure.split_score_cum(self.row(i), &self.total_row)
    }

    /// Scores every candidate in `range` into `out` (cleared and resized
    /// to `range.len()`) — the batch entry point of the split strategies.
    /// A range of at least eight candidates is scored by the batch kernel
    /// (see [`crate::kernel`]) with the per-column invariants hoisted once
    /// per call; a shorter one is a [`score_at`](Self::score_at) loop.
    pub fn score_range_into(
        &self,
        range: std::ops::Range<usize>,
        measure: Measure,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(range.len(), 0.0);
        if range.is_empty() {
            return;
        }
        if range.len() < SIMD_MIN_BATCH {
            catalog::KERNEL_SCALAR_BATCHES.incr();
            for (slot, i) in range.enumerate() {
                out[slot] = self.score_at(i, measure);
            }
            return;
        }
        catalog::KERNEL_SIMD_BATCHES.incr();
        simd::score_range_into(
            measure,
            &self.cum,
            self.n_classes,
            &self.total_row,
            self.grand_total,
            range,
            out,
        );
    }

    /// Scores the scattered candidate positions `idx` into `out`
    /// (cleared and resized to `idx.len()`) — the batch entry point for
    /// end-point evaluation, where the candidates are not contiguous.
    /// A list of at least eight candidates is gathered into one
    /// contiguous staging matrix and scored by the batch kernel in a
    /// single call; a shorter one is a [`score_at`](Self::score_at) loop.
    pub fn score_indices_into(&self, idx: &[usize], measure: Measure, out: &mut Vec<f64>) {
        out.clear();
        out.resize(idx.len(), 0.0);
        if idx.is_empty() {
            return;
        }
        if idx.len() < SIMD_MIN_BATCH {
            catalog::KERNEL_SCALAR_BATCHES.incr();
            for (slot, &i) in idx.iter().enumerate() {
                out[slot] = self.score_at(i, measure);
            }
            return;
        }
        catalog::KERNEL_SIMD_BATCHES.incr();
        let k = self.n_classes;
        let mut staged: Vec<f64> = Vec::with_capacity(idx.len() * k);
        for &i in idx {
            staged.extend_from_slice(self.row(i));
        }
        simd::score_range_into(
            measure,
            &staged,
            k,
            &self.total_row,
            self.grand_total,
            0..idx.len(),
            out,
        );
    }

    /// Indices (into [`xs`](Self::xs)) of the end points `Q_j`, ascending.
    pub fn end_point_indices(&self) -> &[usize] {
        &self.end_point_idx
    }

    /// The disjoint end-point intervals `(q_i, q_{i+1}]` with their
    /// Definition 2–4 classification.
    pub fn intervals(&self) -> Vec<Interval> {
        self.intervals_between(&self.end_point_idx)
    }

    /// Builds classified intervals between an arbitrary ascending list of
    /// position indices (used by UDT-ES, which works on a *sample* of the
    /// end points and therefore on coarser concatenated intervals).
    pub fn intervals_between(&self, boundary_idx: &[usize]) -> Vec<Interval> {
        let mut out = Vec::with_capacity(boundary_idx.len().saturating_sub(1));
        for w in boundary_idx.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            out.push(Interval {
                lo_idx: lo,
                hi_idx: hi,
                kind: self.classify_interval(lo, hi),
            });
        }
        out
    }

    /// Classifies the mass in `(xs[lo], xs[hi]]` without materialising the
    /// per-class difference vector.
    fn classify_interval(&self, lo: usize, hi: usize) -> IntervalKind {
        let (row_lo, row_hi) = (self.row(lo), self.row(hi));
        let total: f64 = row_hi
            .iter()
            .zip(row_lo)
            .map(|(&h, &l)| (h - l).max(0.0))
            .sum();
        if total <= WEIGHT_EPSILON {
            return IntervalKind::Empty;
        }
        let support = row_hi
            .iter()
            .zip(row_lo)
            .filter(|&(&h, &l)| h - l > total * 1e-9)
            .count();
        if support <= 1 {
            IntervalKind::Homogeneous
        } else {
            IntervalKind::Heterogeneous
        }
    }

    /// Per-class mass at positions `<= xs[i]` (the `n_c` of §5.2 when `i`
    /// is an interval's left end point). A borrowed row; no allocation.
    pub fn counts_below(&self, i: usize) -> CountsView<'_> {
        CountsView::new(self.row(i))
    }

    /// Per-class mass in `(xs[lo], xs[hi]]` (the `k_c` of §5.2), written
    /// into `scratch`. The bound path derives these counts in place
    /// ([`Measure::interval_lower_bound_cum`]); this materialised variant
    /// serves callers that inspect the counts themselves.
    pub fn counts_in_into<'a>(
        &self,
        lo: usize,
        hi: usize,
        scratch: &'a mut Vec<f64>,
    ) -> CountsView<'a> {
        self.diff_into(lo, hi, scratch)
    }

    /// Per-class mass at positions `> xs[i]` (the `m_c` of §5.2 when `i`
    /// is an interval's right end point), written into `scratch`.
    pub fn counts_above_into<'a>(&self, i: usize, scratch: &'a mut Vec<f64>) -> CountsView<'a> {
        self.right_counts_into(i, scratch)
    }

    /// The eq. 3 / eq. 4 lower bound over every split point in `[xs[lo],
    /// xs[hi]]`. Allocation-free: two borrowed cumulative rows plus the
    /// hoisted total row. The bound itself uses the exact formula, less
    /// `SIMD_BOUND_MARGIN` so it stays safe against the batch kernel's
    /// polynomial-`log2` score jitter.
    #[inline]
    pub fn interval_lower_bound(&self, lo: usize, hi: usize, measure: Measure) -> f64 {
        // −∞ and +∞ pass through unchanged (∞ − margin == ∞).
        measure.interval_lower_bound_cum(self.row(lo), self.row(hi), &self.total_row)
            - SIMD_BOUND_MARGIN
    }

    /// Candidate indices strictly inside the interval `(xs[lo], xs[hi])` —
    /// the points whose evaluation the pruning theorems avoid.
    pub fn interior_candidates(&self, interval: &Interval) -> std::ops::Range<usize> {
        (interval.lo_idx + 1)..interval.hi_idx
    }
}

/// The per-build pool of `f64` buffers behind the columnar engine's
/// [`AttributeEvents`] (`xs` and `cum`). The builder owns one per
/// [`crate::TreeBuilder::build`] call and shares it with its pool tasks;
/// it is dropped, with every buffer in it, when the build returns, so
/// nothing is retained across builds. (Buffers larger than any queued
/// subtree can use go earlier, when the subtrees below the fork depth
/// are handed to the pool.) Buffers are handed out best-fit:
/// the smallest free buffer whose capacity covers the request, else a
/// fresh allocation of exactly the requested capacity.
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    state: Mutex<BufferPoolState>,
}

#[derive(Debug, Default)]
struct BufferPoolState {
    /// Returned buffers, all empty.
    free: Vec<Vec<f64>>,
    /// Bytes requested that had to be freshly allocated.
    fresh_bytes: u64,
    /// Bytes requested that a free buffer covered.
    reused_bytes: u64,
}

impl BufferPool {
    /// An empty buffer with capacity for at least `capacity` elements.
    pub(crate) fn take(&self, capacity: usize) -> Vec<f64> {
        let bytes = (capacity * std::mem::size_of::<f64>()) as u64;
        {
            let mut state = self.state.lock().expect("buffer pool lock");
            let best = state
                .free
                .iter()
                .enumerate()
                .filter(|(_, buffer)| buffer.capacity() >= capacity)
                .min_by_key(|(_, buffer)| buffer.capacity())
                .map(|(i, _)| i);
            if let Some(i) = best {
                state.reused_bytes += bytes;
                return state.free.swap_remove(i);
            }
            state.fresh_bytes += bytes;
        }
        Vec::with_capacity(capacity)
    }

    /// Returns one buffer to the pool.
    pub(crate) fn give(&self, mut buffer: Vec<f64>) {
        buffer.clear();
        self.state
            .lock()
            .expect("buffer pool lock")
            .free
            .push(buffer);
    }

    /// Returns both buffers of a structure whose search is done.
    pub(crate) fn recycle(&self, events: AttributeEvents) {
        self.give(events.xs);
        self.give(events.cum);
    }

    /// Frees every pooled buffer with capacity for more than `capacity`
    /// elements — for when no request still to come can be that large.
    pub(crate) fn release_above(&self, capacity: usize) {
        self.state
            .lock()
            .expect("buffer pool lock")
            .free
            .retain(|buffer| buffer.capacity() <= capacity);
    }

    /// `(fresh, reused)` bytes handed out so far.
    pub(crate) fn bytes(&self) -> (u64, u64) {
        let state = self.state.lock().expect("buffer pool lock");
        (state.fresh_bytes, state.reused_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::ClassCounts;
    use udt_data::UncertainValue;
    use udt_prob::SampledPdf;

    fn ft(points: &[f64], mass: &[f64], label: usize, weight: f64) -> FractionalTuple {
        FractionalTuple {
            values: vec![UncertainValue::Numeric(
                SampledPdf::new(points.to_vec(), mass.to_vec()).unwrap(),
            )],
            label,
            weight,
        }
    }

    fn point(v: f64, label: usize) -> FractionalTuple {
        ft(&[v], &[1.0], label, 1.0)
    }

    #[test]
    fn build_aggregates_and_accumulates() {
        // Two tuples sharing the position 1.0.
        let tuples = vec![
            ft(&[0.0, 1.0], &[0.5, 0.5], 0, 1.0),
            ft(&[1.0, 2.0], &[0.5, 0.5], 1, 1.0),
        ];
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        assert_eq!(ev.xs(), &[0.0, 1.0, 2.0]);
        assert_eq!(ev.n_positions(), 3);
        assert_eq!(ev.n_classes(), 2);
        assert_eq!(ev.total().as_slice(), &[1.0, 1.0]);
        assert_eq!(ev.left_counts(0).as_slice(), &[0.5, 0.0]);
        assert_eq!(ev.left_counts(1).as_slice(), &[1.0, 0.5]);
        assert_eq!(ev.left_counts(2).as_slice(), &[1.0, 1.0]);
        assert_eq!(
            ev.right_counts_into(1, &mut Vec::new()).as_slice(),
            &[0.0, 0.5]
        );
    }

    #[test]
    fn weights_scale_the_mass() {
        let tuples = vec![ft(&[0.0, 1.0], &[0.5, 0.5], 0, 0.5)];
        let ev = AttributeEvents::build(&tuples, 0, 1).unwrap();
        assert!((ev.total().get(0) - 0.5).abs() < 1e-12);
        assert!((ev.left_counts(0).get(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn build_returns_none_when_no_split_is_possible() {
        // A single distinct position cannot be split.
        let tuples = vec![point(3.0, 0), point(3.0, 1)];
        assert!(AttributeEvents::build(&tuples, 0, 2).is_none());
        // Zero-weight tuples contribute nothing.
        let mut t = point(1.0, 0);
        t.weight = 0.0;
        assert!(AttributeEvents::build(&[t], 0, 2).is_none());
        assert!(AttributeEvents::build(&[], 0, 2).is_none());
    }

    #[test]
    fn denormal_event_weights_do_not_create_candidates() {
        // A tuple with weight just above the epsilon gate: its events'
        // effective weights fall below WEIGHT_EPSILON and must not create
        // spurious candidate positions.
        let mut tiny = ft(&[10.0, 20.0], &[0.5, 0.5], 1, 1.0);
        tiny.weight = 1.5e-9; // passes the tuple gate, events are ~7.5e-10
        let solid = ft(&[0.0, 1.0], &[0.5, 0.5], 0, 1.0);
        let ev = AttributeEvents::build(&[solid, tiny], 0, 2).unwrap();
        assert_eq!(ev.xs(), &[0.0, 1.0], "denormal positions must be dropped");
    }

    #[test]
    fn score_at_matches_direct_computation_and_flags_invalid_splits() {
        let tuples = vec![point(0.0, 0), point(1.0, 0), point(2.0, 1), point(3.0, 1)];
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        // Perfect split between 1.0 and 2.0.
        assert_eq!(ev.score_at(1, Measure::Entropy), 0.0);
        assert!(ev.score_at(0, Measure::Entropy) > 0.0);
        // Splitting at the largest position leaves the right side empty.
        assert_eq!(ev.score_at(3, Measure::Entropy), f64::INFINITY);
    }

    #[test]
    fn score_at_agrees_with_counter_based_scoring() {
        // The slice path must agree with the ClassCounts path bit for bit.
        let tuples = vec![
            ft(&[0.0, 1.0, 2.0], &[1.0, 2.0, 1.0], 0, 1.0),
            ft(&[1.5, 2.5, 3.5], &[1.0, 1.0, 2.0], 1, 0.5),
            ft(&[0.5, 1.25, 3.0], &[1.0, 3.0, 1.0], 2, 0.8),
        ];
        let ev = AttributeEvents::build(&tuples, 0, 3).unwrap();
        let mut right_scratch = Vec::new();
        for m in [Measure::Entropy, Measure::Gini, Measure::GainRatio] {
            for i in 0..ev.n_positions() - 1 {
                let left = ClassCounts::from_vec(ev.left_counts(i).as_slice().to_vec());
                let right = ev.right_counts_into(i, &mut right_scratch).to_counts();
                let reference = if left.is_empty() || right.is_empty() {
                    f64::INFINITY
                } else {
                    m.split_score(&left, &right)
                };
                let got = ev.score_at(i, m);
                assert!(
                    got == reference || (got - reference).abs() < 1e-15,
                    "{m:?} at {i}: {got} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn end_points_and_intervals_are_classified() {
        // Tuple A spans [0, 2] (class 0), tuple B spans [4, 6] (class 1),
        // tuple C spans [5, 7] (class 0): the interval (2, 4] is empty,
        // (0, 2] homogeneous, (4, 6] and (6, 7] heterogeneous/homogeneous.
        let tuples = vec![
            ft(&[0.0, 1.0, 2.0], &[1.0, 1.0, 1.0], 0, 1.0),
            ft(&[4.0, 5.0, 6.0], &[1.0, 1.0, 1.0], 1, 1.0),
            ft(&[5.0, 6.0, 7.0], &[1.0, 1.0, 1.0], 0, 1.0),
        ];
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let eps: Vec<f64> = ev.end_point_indices().iter().map(|&i| ev.xs()[i]).collect();
        assert_eq!(eps, vec![0.0, 2.0, 4.0, 5.0, 6.0, 7.0]);
        let intervals = ev.intervals();
        assert_eq!(intervals.len(), 5);
        // (0, 2]: only class-0 mass.
        assert_eq!(intervals[0].kind, IntervalKind::Homogeneous);
        // (2, 4]: only the class-1 mass sitting exactly at 4.
        assert_eq!(intervals[1].kind, IntervalKind::Homogeneous);
        // (4, 5] and (5, 6]: both classes contribute mass at 5 and 6.
        assert_eq!(intervals[2].kind, IntervalKind::Heterogeneous);
        assert_eq!(intervals[3].kind, IntervalKind::Heterogeneous);
        // (6, 7]: only the class-0 mass at 7.
        assert_eq!(intervals[4].kind, IntervalKind::Homogeneous);
        let tuples2 = vec![
            ft(&[0.0, 1.0], &[1.0, 1.0], 0, 1.0),
            ft(&[1.0, 5.0], &[1.0, 0.0001], 1, 1.0),
            ft(&[5.0, 6.0], &[1.0, 1.0], 1, 1.0),
        ];
        let ev2 = AttributeEvents::build(&tuples2, 0, 2).unwrap();
        assert!(ev2
            .intervals()
            .iter()
            .any(|i| i.kind == IntervalKind::Heterogeneous || i.kind == IntervalKind::Homogeneous));
    }

    #[test]
    fn interval_counts_partition_the_total() {
        let tuples = vec![
            ft(&[0.0, 1.0, 2.0], &[1.0, 2.0, 1.0], 0, 1.0),
            ft(&[1.5, 2.5, 3.5], &[1.0, 1.0, 2.0], 1, 0.5),
        ];
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let mut inside_scratch = Vec::new();
        let mut above_scratch = Vec::new();
        for w in ev.end_point_indices().windows(2) {
            let below = ev.counts_below(w[0]);
            let inside = ev.counts_in_into(w[0], w[1], &mut inside_scratch);
            let above = ev.counts_above_into(w[1], &mut above_scratch);
            for c in 0..2 {
                let sum = below.get(c) + inside.get(c) + above.get(c);
                assert!((sum - ev.total().get(c)).abs() < 1e-9);
            }
            // A fresh scratch agrees with the reused ones.
            let mut fresh = Vec::new();
            assert_eq!(
                ev.counts_in_into(w[0], w[1], &mut fresh).as_slice(),
                inside.as_slice()
            );
            assert_eq!(
                ev.counts_above_into(w[1], &mut fresh).as_slice(),
                above.as_slice()
            );
        }
    }

    #[test]
    fn interval_lower_bound_never_exceeds_interior_scores() {
        let tuples = vec![
            ft(&[0.0, 1.0, 2.0, 3.0], &[1.0, 1.0, 1.0, 1.0], 0, 1.0),
            ft(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0, 1.0, 1.0], 1, 1.0),
            ft(&[2.0, 3.0, 4.0, 5.0], &[1.0, 1.0, 1.0, 1.0], 0, 0.7),
        ];
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        for m in [Measure::Entropy, Measure::Gini] {
            for interval in ev.intervals() {
                let bound = ev.interval_lower_bound(interval.lo_idx, interval.hi_idx, m);
                for i in ev.interior_candidates(&interval) {
                    let score = ev.score_at(i, m);
                    assert!(
                        score >= bound - 1e-9,
                        "{m:?}: interior score {score} below bound {bound}"
                    );
                }
                // The bound also covers the interval's right end point.
                let score = ev.score_at(interval.hi_idx, m);
                assert!(score >= bound - 1e-9);
            }
        }
    }

    #[test]
    fn intervals_between_coarse_boundaries_concatenate() {
        let tuples = vec![
            ft(&[0.0, 1.0], &[1.0, 1.0], 0, 1.0),
            ft(&[2.0, 3.0], &[1.0, 1.0], 1, 1.0),
            ft(&[4.0, 5.0], &[1.0, 1.0], 0, 1.0),
        ];
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let all = ev.end_point_indices().to_vec();
        // Keep only the first and last boundary: one coarse interval
        // covering everything, which must be heterogeneous.
        let coarse = ev.intervals_between(&[all[0], *all.last().unwrap()]);
        assert_eq!(coarse.len(), 1);
        assert_eq!(coarse[0].kind, IntervalKind::Heterogeneous);
        assert_eq!(
            ev.interior_candidates(&coarse[0]).len(),
            ev.n_positions() - 2
        );
    }
}
