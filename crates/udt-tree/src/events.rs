//! Per-attribute candidate-split structure (columnar layout).
//!
//! For one numerical attribute and one set of (fractional) tuples, UDT's
//! split search needs, for every candidate split point `z`, the weighted
//! per-class counts on the two sides of the test `v ≤ z`. They are the
//! rows of the column's cumulative per-class count matrix — row `i`
//! holds the mass at positions `<= xs[i]`, and the right side is
//! `total − row` — the discrete analogue of the paper's remark that
//! storing cumulative distributions turns the integration of §4.2 into a
//! subtraction. [`AttributeEvents`] stores that matrix in the shape the
//! pruned searches of §5 read it:
//!
//! * `xs`, the distinct candidate positions, ascending;
//! * every surviving *mass event* `(class, w·mass)` of every pdf sample
//!   point, one run per position, in column order;
//! * the cumulative rows **only at the end points** `Q_j` (the pdf
//!   domain boundaries of §5.1), which are all that end-point scoring,
//!   the empty/homogeneous/heterogeneous interval classes (Definitions
//!   2–4) and the eq. 3/4 bounds consult.
//!
//! Any other row — an interior candidate of an interval that survives
//! pruning — is *replayed*: the running sum resumes from the nearest
//! end-point row at or below it and adds the events in column order, so
//! every replayed value has the bits a dense running sum gives it.
//! Replayed rows are staged chunk by chunk and scored in place by the
//! batch kernel; a range whose positions are all end points (every range
//! of point data) is scored straight from the stored rows. Unpruned
//! search replays every row through the same path, so one structure
//! serves all six algorithms.
//!
//! Construction is `O(m·s·log(m·s))` from tuples
//! ([`AttributeEvents::build`]) and `O(m·s)` over a column the tree
//! builder presorted, and stores `O(m·s + |Q|·k)` values for `k`
//! classes rather than a dense `O(m·s·k)` matrix; scoring a range adds
//! `O(events in it)` of replay to the scores themselves.
//!
//! The tree builder draws the `xs`, event and end-point row buffers of
//! its per-node structures from a `BufferPool` owned by the build: a
//! node's buffers go back to the pool once its split search is done and
//! later nodes take them best-fit, so a steady-state build mostly writes
//! into memory it has already touched instead of faulting in fresh pages
//! per node.

use std::borrow::Cow;
use std::ops::Range;
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
pub(crate) const SIMD_MIN_BATCH: usize = 8;

/// Rows replayed per staging chunk: a multiple of the batch kernel's
/// 4-row lane block, small enough that the staged rows stay in L1.
const STAGE_ROWS: usize = 64;

/// Tag bit of an event: set on the last event of its position, where a
/// replay completes a row.
const POSITION_END: u64 = 1 << 63;

/// The tag slot of an event of class `class` that does not (yet) end
/// its position. Tags are raw bits kept in the `f64` event buffer beside
/// the weights; they are copied, never computed with.
#[inline]
pub(crate) fn event_tag(class: u32) -> f64 {
    f64::from_bits(u64::from(class))
}

/// `tag` marked as the last event of its position.
#[inline]
pub(crate) fn position_end(tag: f64) -> f64 {
    f64::from_bits(tag.to_bits() | POSITION_END)
}

/// Sorted, aggregated per-attribute candidate-split structure: positions,
/// event runs and end-point rows (see the module docs).
#[derive(Debug, Clone)]
pub struct AttributeEvents {
    /// Distinct candidate positions, ascending. Every pdf sample point of
    /// every tuple appears here.
    xs: Vec<f64>,
    /// The surviving events in column order, two slots each: the tag
    /// ([`event_tag`], with [`POSITION_END`] on the last event of every
    /// position) and the event weight. The last event ends the last
    /// position.
    events: Vec<f64>,
    /// Number of classes (row width).
    n_classes: usize,
    /// Indices into `xs` of the end points `Q_j` (pdf domain boundaries),
    /// ascending and distinct. The first and the last position are
    /// always end points.
    end_point_idx: Vec<usize>,
    /// Per end point, the index of the first event after its position:
    /// where a replay from its row resumes.
    end_event: Vec<usize>,
    /// Row-major cumulative per-class rows at the end points only: row
    /// `r` holds the mass at positions `<= xs[end_point_idx[r]]`. The
    /// final row is the per-class total.
    end_rows: Vec<f64>,
    /// Class-order f64 sum of the total row — the column's total mass,
    /// hoisted for the batch kernel.
    grand_total: f64,
}

impl AttributeEvents {
    /// Builds the structure for numerical attribute `attribute` over
    /// `tuples`. Returns `None` when the attribute carries no usable mass
    /// or only a single distinct position (in which case no split is
    /// possible).
    pub fn build(
        tuples: &[FractionalTuple<'_>],
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
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite sample points"));
        Self::from_sorted_events(&events, end_points, n_classes)
    }

    /// Builds the structure from `(position, class, weight)` events
    /// already sorted by position, taken as they are (no mass gate).
    /// `end_points` may arrive unsorted; end points that are not an
    /// event position are dropped (they bound empty domain stretches and
    /// coarsen the interval decomposition at most, which every pruning
    /// theorem tolerates), and the first and last positions are always
    /// end points. Returns `None` below two distinct positions.
    ///
    /// # Panics
    ///
    /// When a class is not below `n_classes`.
    pub fn from_sorted_events(
        events: &[(f64, usize, f64)],
        mut end_points: Vec<f64>,
        n_classes: usize,
    ) -> Option<AttributeEvents> {
        let mut xs: Vec<f64> = Vec::with_capacity(events.len());
        let mut runs: Vec<f64> = Vec::with_capacity(2 * events.len());
        for &(x, class, w) in events {
            debug_assert!(
                xs.last().is_none_or(|&last| last <= x),
                "events must arrive sorted by position"
            );
            assert!(class < n_classes, "class {class} of {n_classes}");
            if xs.last() != Some(&x) {
                if let Some(tag) = runs.len().checked_sub(2) {
                    runs[tag] = position_end(runs[tag]);
                }
                xs.push(x);
            }
            runs.push(event_tag(class as u32));
            runs.push(w);
        }
        if xs.len() < 2 {
            return None;
        }
        let tag = runs.len() - 2;
        runs[tag] = position_end(runs[tag]);

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
        let end_rows = Vec::with_capacity(end_point_idx.len() * n_classes);
        Some(Self::assemble(xs, runs, n_classes, end_point_idx, end_rows))
    }

    /// Assembles the structure from the parts
    /// [`crate::columns::events_from_column`] writes in its single pass
    /// over a presorted column: positions, event runs and end points.
    /// `end_rows` is an empty buffer to compute the end-point rows into.
    /// Each structure it returns counts once in `KERNEL_MATRIX_BUILDS_F64`.
    ///
    /// Invariants (checked in debug builds): `xs` ascending and distinct
    /// with at least two positions, one [`POSITION_END`] per position,
    /// `end_point_idx` ascending indices into `xs` from the first to the
    /// last position.
    pub(crate) fn from_runs(
        xs: Vec<f64>,
        events: Vec<f64>,
        n_classes: usize,
        end_point_idx: Vec<usize>,
        end_rows: Vec<f64>,
    ) -> AttributeEvents {
        debug_assert!(xs.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(
            events
                .iter()
                .step_by(2)
                .filter(|tag| tag.to_bits() & POSITION_END != 0)
                .count(),
            xs.len()
        );
        catalog::KERNEL_MATRIX_BUILDS_F64.incr();
        Self::assemble(xs, events, n_classes, end_point_idx, end_rows)
    }

    /// Finishes construction: one running-sum pass over the event runs
    /// stores the cumulative row of every end point (and where its
    /// replay resumes), then hoists the grand total (class-order f64
    /// sum, matching the exact formula's accumulation order).
    fn assemble(
        xs: Vec<f64>,
        events: Vec<f64>,
        n_classes: usize,
        end_point_idx: Vec<usize>,
        mut end_rows: Vec<f64>,
    ) -> AttributeEvents {
        let k = n_classes;
        debug_assert!(xs.len() >= 2);
        debug_assert!(end_point_idx.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(end_point_idx.first(), Some(&0));
        debug_assert_eq!(end_point_idx.last(), Some(&(xs.len() - 1)));
        end_rows.clear();
        end_rows.resize(end_point_idx.len() * k, 0.0);
        let mut end_event = Vec::with_capacity(end_point_idx.len());
        let rows = Rows {
            at: Some(&end_point_idx),
            out: &mut end_rows,
            resume: Some(&mut end_event),
        };
        sum_rows(&events, 0, &zero_row(k), rows);
        debug_assert_eq!(end_event.len(), end_point_idx.len());
        let grand_total = end_rows[end_rows.len() - k..].iter().sum();
        AttributeEvents {
            xs,
            events,
            n_classes,
            end_point_idx,
            end_event,
            end_rows,
            grand_total,
        }
    }

    /// The dense cumulative matrix, every row replayed — crate-internal,
    /// for the construction parity tests that compare whole matrices bit
    /// for bit.
    #[cfg(test)]
    pub(crate) fn cum(&self) -> Vec<f64> {
        let k = self.n_classes;
        let mut rows = vec![0.0; self.n_positions() * k];
        sum_rows(&self.events, 0, &zero_row(k), Rows::every(&mut rows));
        rows
    }

    /// Each position's events as `(class, weight)`, in column order —
    /// crate-internal, for tests that replay rows their own way.
    #[cfg(test)]
    pub(crate) fn position_events(&self) -> Vec<Vec<(usize, f64)>> {
        let mut positions = vec![Vec::new()];
        for slot in self.events.chunks_exact(2) {
            let tag = slot[0].to_bits();
            let current = positions.last_mut().expect("an open position");
            current.push(((tag & !POSITION_END) as usize, slot[1]));
            if tag & POSITION_END != 0 {
                positions.push(Vec::new());
            }
        }
        positions.pop();
        positions
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

    /// The stored row of the `r`-th end point.
    #[inline]
    fn end_row(&self, r: usize) -> &[f64] {
        &self.end_rows[r * self.n_classes..(r + 1) * self.n_classes]
    }

    /// The final cumulative row: the per-class totals.
    #[inline]
    fn total_row(&self) -> &[f64] {
        self.end_row(self.end_point_idx.len() - 1)
    }

    /// Rank of the last end point at or below position `i`.
    #[inline]
    fn end_rank(&self, i: usize) -> usize {
        self.end_point_idx.partition_point(|&e| e <= i) - 1
    }

    /// Row `i` of the cumulative matrix and the first event after
    /// position `i`, given `r`, the rank of the last end point at or
    /// below `i`: the stored row at an end point, else replayed from
    /// that end point's row.
    #[inline]
    fn seed(&self, r: usize, i: usize) -> (Cow<'_, [f64]>, usize) {
        let ahead = i - self.end_point_idx[r];
        let (stored, event) = (self.end_row(r), self.end_event[r]);
        if ahead == 0 {
            return (Cow::Borrowed(stored), event);
        }
        let mut row = vec![0.0; self.n_classes];
        let rows = Rows {
            at: Some(&[ahead - 1]),
            out: &mut row,
            resume: None,
        };
        let event = sum_rows(&self.events, event, stored, rows);
        (Cow::Owned(row), event)
    }

    /// Row `i` of the cumulative matrix: borrowed at an end point,
    /// replayed anywhere else.
    fn row(&self, i: usize) -> Cow<'_, [f64]> {
        assert!(i < self.n_positions(), "position {i} out of range");
        self.seed(self.end_rank(i), i).0
    }

    /// Total per-class mass over all tuples (the final cumulative row).
    pub fn total(&self) -> CountsView<'_> {
        CountsView::new(self.total_row())
    }

    /// Dispersion score (eq. 1) of splitting at `xs[i]`. Splits that leave
    /// one side without mass score `+∞` (they are not valid splits).
    /// Single candidates always take the exact formula — only *batches*
    /// ([`score_range_into`](Self::score_range_into)) take the batch
    /// kernel, whose ~1e-14 cross-formula jitter the deterministic
    /// tie-break band absorbs.
    pub fn score_at(&self, i: usize, measure: Measure) -> f64 {
        measure.split_score_cum(&self.row(i), self.total_row())
    }

    /// Scores the candidate rows `which` of the row-major matrix `rows`
    /// into `out`: the batch kernel when `batch`, else the exact
    /// per-candidate formula.
    fn score_rows(
        &self,
        rows: &[f64],
        which: Range<usize>,
        measure: Measure,
        batch: bool,
        out: &mut [f64],
    ) {
        let (k, total) = (self.n_classes, self.total_row());
        if batch {
            simd::score_range_into(measure, rows, k, total, self.grand_total, which, out);
        } else {
            for (slot, i) in out.iter_mut().zip(which) {
                *slot = measure.split_score_cum(&rows[i * k..(i + 1) * k], total);
            }
        }
    }

    /// Counts one scoring call as a kernel batch or a scalar one and
    /// says which it is.
    fn count_batch(len: usize) -> bool {
        let batch = len >= SIMD_MIN_BATCH;
        if batch {
            catalog::KERNEL_SIMD_BATCHES.incr();
        } else {
            catalog::KERNEL_SCALAR_BATCHES.incr();
        }
        batch
    }

    /// Scores every candidate in `range` into `out` (cleared and resized
    /// to `range.len()`) — the batch entry point of the split strategies.
    /// A range of at least eight candidates is scored by the batch kernel
    /// (see [`crate::kernel`]) with the per-column invariants hoisted once
    /// per chunk; a shorter one by the exact per-candidate formula.
    /// Positions that are all end points are scored from the stored rows;
    /// any other range is replayed chunk by chunk into staging rows
    /// behind the scores in `out`'s buffer, so a reused `out` makes the
    /// call allocation-free.
    pub fn score_range_into(&self, range: Range<usize>, measure: Measure, out: &mut Vec<f64>) {
        assert!(range.end <= self.n_positions(), "candidates out of range");
        out.clear();
        if range.is_empty() {
            return;
        }
        let len = range.len();
        let batch = Self::count_batch(len);
        // The first end point at or after the range's start.
        let r = self.end_point_idx.partition_point(|&e| e < range.start);
        if self.end_point_idx.get(r) == Some(&range.start)
            && self.end_point_idx.get(r + len - 1) == Some(&(range.end - 1))
        {
            // Every position is an end point: the stored rows are one
            // contiguous matrix.
            out.resize(len, 0.0);
            self.score_rows(&self.end_rows, r..r + len, measure, batch, out);
            return;
        }
        let k = self.n_classes;
        // The replay starts from the row before the range: all zeros
        // before the first position.
        let (seed, mut event) = match range.start.checked_sub(1) {
            Some(before) => self.seed(r - 1, before),
            None => (zero_row(k), 0),
        };
        // Replayed rows go to staging rows behind the scores and are
        // scored in place a chunk at a time; a carry row hands each
        // chunk's last row to the next.
        let chunk = len.min(STAGE_ROWS);
        out.resize(len + (chunk + 1) * k, 0.0);
        let (scores, stage) = out.split_at_mut(len);
        let (carry, staged) = stage.split_at_mut(k);
        for (c, scores) in scores.chunks_mut(chunk).enumerate() {
            let rows = &mut staged[..scores.len() * k];
            let from = if c == 0 { &seed } else { &*carry };
            event = sum_rows(&self.events, event, from, Rows::every(rows));
            self.score_rows(rows, 0..scores.len(), measure, batch, scores);
            if (c + 1) * chunk < len {
                carry.copy_from_slice(&rows[rows.len() - k..]);
            }
        }
        out.truncate(len);
    }

    /// Scores the scattered candidate positions `idx` into `out`
    /// (cleared and resized to `idx.len()`) — the batch entry point for
    /// end-point evaluation, where the candidates are not contiguous.
    /// A list of at least eight candidates is scored by the batch kernel
    /// in a single call; a shorter one by the exact per-candidate
    /// formula. Consecutive end points are scored from the stored rows;
    /// any other list is gathered into staging rows behind the scores.
    pub fn score_indices_into(&self, idx: &[usize], measure: Measure, out: &mut Vec<f64>) {
        out.clear();
        let Some(&first) = idx.first() else {
            return;
        };
        let len = idx.len();
        let batch = Self::count_batch(len);
        let r = self.end_point_idx.partition_point(|&e| e < first);
        if self.end_point_idx.get(r..r + len) == Some(idx) {
            out.resize(len, 0.0);
            self.score_rows(&self.end_rows, r..r + len, measure, batch, out);
            return;
        }
        let k = self.n_classes;
        out.resize(len + len * k, 0.0);
        let (scores, stage) = out.split_at_mut(len);
        for (row, &i) in stage.chunks_exact_mut(k).zip(idx) {
            row.copy_from_slice(&self.row(i));
        }
        self.score_rows(stage, 0..len, measure, batch, scores);
        out.truncate(len);
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
    /// Boundaries that are end points read their stored rows, found by
    /// one cursor walk; any other boundary is replayed.
    pub fn intervals_between(&self, boundary_idx: &[usize]) -> Vec<Interval> {
        let mut out = Vec::with_capacity(boundary_idx.len().saturating_sub(1));
        let Some((&first, rest)) = boundary_idx.split_first() else {
            return out;
        };
        let mut r = self.end_rank(first);
        let mut row_at = move |i: usize| {
            while self.end_point_idx.get(r + 1).is_some_and(|&e| e <= i) {
                r += 1;
            }
            if self.end_point_idx[r] == i {
                Cow::Borrowed(self.end_row(r))
            } else {
                self.row(i)
            }
        };
        let (mut lo, mut row_lo) = (first, row_at(first));
        for &hi in rest {
            let row_hi = row_at(hi);
            out.push(Interval {
                lo_idx: lo,
                hi_idx: hi,
                kind: classify_interval(&row_lo, &row_hi),
            });
            (lo, row_lo) = (hi, row_hi);
        }
        out
    }

    /// Per-class mass at positions `<= xs[i]` — the "left" counts of a
    /// split at `xs[i]`, and the `n_c` of §5.2 when `i` is an interval's
    /// left end point — written into `scratch`.
    pub fn counts_below_into<'a>(&self, i: usize, scratch: &'a mut Vec<f64>) -> CountsView<'a> {
        scratch.clear();
        scratch.extend_from_slice(&self.row(i));
        CountsView::new(scratch)
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
        diff_into(&self.row(lo), &self.row(hi), scratch)
    }

    /// Per-class mass at positions `> xs[i]` — the "right" counts of a
    /// split at `xs[i]`, and the `m_c` of §5.2 when `i` is an interval's
    /// right end point — written into `scratch`.
    pub fn counts_above_into<'a>(&self, i: usize, scratch: &'a mut Vec<f64>) -> CountsView<'a> {
        diff_into(&self.row(i), self.total_row(), scratch)
    }

    /// The eq. 3 / eq. 4 lower bound over every split point in `[xs[lo],
    /// xs[hi]]`. Allocation-free at end points: two stored rows plus the
    /// total row. The bound itself uses the exact formula, less
    /// `SIMD_BOUND_MARGIN` so it stays safe against the batch kernel's
    /// polynomial-`log2` score jitter.
    pub fn interval_lower_bound(&self, lo: usize, hi: usize, measure: Measure) -> f64 {
        // −∞ and +∞ pass through unchanged (∞ − margin == ∞).
        measure.interval_lower_bound_cum(&self.row(lo), &self.row(hi), self.total_row())
            - SIMD_BOUND_MARGIN
    }

    /// Candidate indices strictly inside the interval `(xs[lo], xs[hi])` —
    /// the points whose evaluation the pruning theorems avoid.
    pub fn interior_candidates(&self, interval: &Interval) -> Range<usize> {
        (interval.lo_idx + 1)..interval.hi_idx
    }
}

/// An all-zero row of `k` classes: the cumulative row before the first
/// position.
fn zero_row(k: usize) -> Cow<'static, [f64]> {
    const ZEROS: [f64; 8] = [0.0; 8];
    match ZEROS.get(..k) {
        Some(zeros) => Cow::Borrowed(zeros),
        None => Cow::Owned(vec![0.0; k]),
    }
}

/// Where [`sum_rows`] writes the rows it sums.
struct Rows<'a> {
    /// The positions to write, counted from the first position after
    /// the seed row and ascending; `None` writes every position.
    at: Option<&'a [usize]>,
    /// One `k`-wide row per position written; the sum stops once it is
    /// full.
    out: &'a mut [f64],
    /// When given, receives the first event after each row written.
    resume: Option<&'a mut Vec<usize>>,
}

impl<'a> Rows<'a> {
    /// Every position, until `out` is full.
    fn every(out: &'a mut [f64]) -> Rows<'a> {
        Rows {
            at: None,
            out,
            resume: None,
        }
    }
}

/// The one running-sum loop behind the end-point rows and every replay:
/// starting from the cumulative row `seed`, with `event` the first event
/// after it, adds the events in column order and writes the rows `rows`
/// asks for. Classes are summed in event order, exactly as a dense
/// running-sum matrix accumulates them, so every row has its bits.
/// Returns the first event after the last row written.
///
/// For up to eight classes the running row is a fixed-size array the
/// compiler keeps in registers.
fn sum_rows(events: &[f64], event: usize, seed: &[f64], rows: Rows<'_>) -> usize {
    fn fixed<const K: usize>(seed: &[f64]) -> [f64; K] {
        seed.try_into().expect("one seed value per class")
    }
    match seed.len() {
        1 => sum_rows_in(fixed::<1>(seed), events, event, rows),
        2 => sum_rows_in(fixed::<2>(seed), events, event, rows),
        3 => sum_rows_in(fixed::<3>(seed), events, event, rows),
        4 => sum_rows_in(fixed::<4>(seed), events, event, rows),
        5 => sum_rows_in(fixed::<5>(seed), events, event, rows),
        6 => sum_rows_in(fixed::<6>(seed), events, event, rows),
        7 => sum_rows_in(fixed::<7>(seed), events, event, rows),
        8 => sum_rows_in(fixed::<8>(seed), events, event, rows),
        _ => sum_rows_in(seed.to_vec(), events, event, rows),
    }
}

/// A running per-class row.
trait RunningRow {
    /// Adds `weight` to class `class`.
    fn add(&mut self, class: usize, weight: f64);
    /// The row.
    fn row(&self) -> &[f64];
}

/// `ONE_HOT[class][c]` keeps all of a weight's bits where `c == class`
/// and none elsewhere.
const ONE_HOT: [[u64; 8]; 8] = {
    let mut masks = [[0; 8]; 8];
    let mut class = 0;
    while class < 8 {
        masks[class][class] = u64::MAX;
        class += 1;
    }
    masks
};

/// A fixed-width row (at most eight classes) adds the weight to its
/// class and `+0.0` to every other class, masking the weight's bits
/// through a table rather than branching on the class. `x + 0.0` is `x`
/// bit for bit except at `x = -0.0`, which a running sum started at
/// `+0.0` never holds, so the rows are those of the class-indexed sum.
impl<const K: usize> RunningRow for [f64; K] {
    #[inline(always)]
    fn add(&mut self, class: usize, weight: f64) {
        debug_assert!(class < K && K <= 8);
        for (sum, &keep) in self.iter_mut().zip(&ONE_HOT[class % 8]) {
            *sum += f64::from_bits(weight.to_bits() & keep);
        }
    }

    #[inline(always)]
    fn row(&self) -> &[f64] {
        self
    }
}

impl RunningRow for Vec<f64> {
    #[inline(always)]
    fn add(&mut self, class: usize, weight: f64) {
        self[class] += weight;
    }

    #[inline(always)]
    fn row(&self) -> &[f64] {
        self
    }
}

/// [`sum_rows`] over one running-row representation.
#[inline(always)]
fn sum_rows_in(
    mut running: impl RunningRow,
    events: &[f64],
    mut event: usize,
    rows: Rows<'_>,
) -> usize {
    let Rows {
        at,
        out,
        mut resume,
    } = rows;
    let k = running.row().len();
    let mut targets = out.chunks_exact_mut(k);
    let Some(mut target) = targets.next() else {
        return event;
    };
    let (mut position, mut written) = (0, 0);
    for slot in events[2 * event..].chunks_exact(2) {
        let tag = slot[0].to_bits();
        running.add((tag & !POSITION_END) as usize, slot[1]);
        event += 1;
        if tag & POSITION_END == 0 {
            continue;
        }
        if at.is_none_or(|at| at[written] == position) {
            target.copy_from_slice(running.row());
            if let Some(resume) = resume.as_deref_mut() {
                resume.push(event);
            }
            written += 1;
            match targets.next() {
                Some(next) => target = next,
                None => break,
            }
        }
        position += 1;
    }
    event
}

/// Writes `hi − lo` (clamped) into `scratch` and returns a view of it —
/// the shared kernel behind every materialised count difference, so all
/// of them clamp drift identically.
fn diff_into<'a>(lo: &[f64], hi: &[f64], scratch: &'a mut Vec<f64>) -> CountsView<'a> {
    scratch.clear();
    scratch.extend(hi.iter().zip(lo).map(|(&h, &l)| clamp_residue(h - l)));
    CountsView::new(scratch)
}

/// Classifies the mass between two cumulative rows without materialising
/// the per-class difference vector.
fn classify_interval(row_lo: &[f64], row_hi: &[f64]) -> IntervalKind {
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

/// The per-build pool of `f64` buffers behind the columnar engine's
/// [`AttributeEvents`] (positions, event runs and end-point rows). The
/// builder owns one per [`crate::TreeBuilder::build`] call and shares it
/// with its pool tasks;
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

    /// Returns the buffers of a structure whose search is done.
    pub(crate) fn recycle(&self, events: AttributeEvents) {
        self.give(events.xs);
        self.give(events.events);
        self.give(events.end_rows);
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
    use udt_data::UncertainValue;
    use udt_prob::SampledPdf;

    fn ft(points: &[f64], mass: &[f64], label: usize, weight: f64) -> FractionalTuple<'static> {
        FractionalTuple {
            values: vec![UncertainValue::Numeric(
                SampledPdf::new(points.to_vec(), mass.to_vec()).unwrap(),
            )]
            .into(),
            label,
            weight,
        }
    }

    fn point(v: f64, label: usize) -> FractionalTuple<'static> {
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
        let mut below = Vec::new();
        assert_eq!(ev.counts_below_into(0, &mut below).as_slice(), &[0.5, 0.0]);
        assert_eq!(ev.counts_below_into(1, &mut below).as_slice(), &[1.0, 0.5]);
        assert_eq!(ev.counts_below_into(2, &mut below).as_slice(), &[1.0, 1.0]);
        assert_eq!(
            ev.counts_above_into(1, &mut Vec::new()).as_slice(),
            &[0.0, 0.5]
        );
    }

    #[test]
    fn weights_scale_the_mass() {
        let tuples = vec![ft(&[0.0, 1.0], &[0.5, 0.5], 0, 0.5)];
        let ev = AttributeEvents::build(&tuples, 0, 1).unwrap();
        assert!((ev.total().get(0) - 0.5).abs() < 1e-12);
        assert!((ev.counts_below_into(0, &mut Vec::new()).get(0) - 0.25).abs() < 1e-12);
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
        let (mut left_scratch, mut right_scratch) = (Vec::new(), Vec::new());
        for m in [Measure::Entropy, Measure::Gini, Measure::GainRatio] {
            for i in 0..ev.n_positions() - 1 {
                let left = ev.counts_below_into(i, &mut left_scratch).to_counts();
                let right = ev.counts_above_into(i, &mut right_scratch).to_counts();
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
        let mut below_scratch = Vec::new();
        let mut inside_scratch = Vec::new();
        let mut above_scratch = Vec::new();
        for w in ev.end_point_indices().windows(2) {
            let below = ev.counts_below_into(w[0], &mut below_scratch);
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
