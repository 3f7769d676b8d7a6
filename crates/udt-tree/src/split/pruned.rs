//! The common pruning engine behind UDT-BP, UDT-LP, UDT-GP and UDT-ES.
//!
//! All four algorithms of §5 share the same skeleton:
//!
//! 1. evaluate the dispersion score at interval *end points* (all of them,
//!    or a sample of them for UDT-ES);
//! 2. skip the interiors of empty and homogeneous intervals (Theorems 1–2;
//!    for uniform pdfs Theorem 3 additionally allows skipping every
//!    interior);
//! 3. optionally compute the eq. 3 / eq. 4 lower bound of each remaining
//!    heterogeneous interval and prune it when the bound cannot beat the
//!    best score found so far — locally per attribute (UDT-LP) or globally
//!    across attributes (UDT-GP / UDT-ES);
//! 4. for UDT-ES, intervals that survive the coarse (sampled-end-point)
//!    pass are refined: the original end points inside them are evaluated
//!    and the finer intervals re-pruned before any interior sample point is
//!    evaluated.
//!
//! The pruning is *safe*: a candidate is only skipped when a theorem or a
//! lower bound guarantees it cannot score better than a candidate that is
//! kept, so the optimal score is always preserved (verified by property
//! tests against [`super::exhaustive::ExhaustiveSearch`]).

use crate::events::{AttributeEvents, Interval, IntervalKind};
use crate::measure::Measure;
use crate::split::{map_attributes, merge_best, SearchStats, SplitChoice, SplitSearch};

/// How lower-bound pruning of heterogeneous intervals is thresholded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundingMode {
    /// No bounding: only Theorems 1–3 are used (UDT-BP).
    None,
    /// Threshold is the best end-point score of the *same attribute*
    /// (UDT-LP).
    Local,
    /// Threshold is the best score seen so far across *all* attributes
    /// (UDT-GP, UDT-ES).
    Global,
}

/// Configuration of the pruning engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunedSearch {
    bounding: BoundingMode,
    /// When `Some(rate)`, only that fraction of end points is evaluated up
    /// front (always at least the two extreme ones); surviving coarse
    /// intervals are refined on demand (UDT-ES, §5.3).
    end_point_sample_rate: Option<f64>,
    /// When true, every pdf is known to be uniform, so Theorem 3 applies
    /// and interior points of *heterogeneous* intervals can be skipped as
    /// well. Note: the theorem is exact for continuous uniform pdfs; for
    /// the discretised pdfs used here it is exact only when all pdfs share
    /// a common sample grid (otherwise a pdf whose domain begins exactly at
    /// an interval's right end point breaks the linear-count premise), so
    /// the hint is best treated as an approximation that trades a small
    /// amount of optimality for end-point-only search.
    uniform_pdf_hint: bool,
    name: &'static str,
}

impl PrunedSearch {
    /// Creates an engine with explicit settings. `name` is used in reports.
    pub fn new(
        bounding: BoundingMode,
        end_point_sample_rate: Option<f64>,
        uniform_pdf_hint: bool,
        name: &'static str,
    ) -> Self {
        PrunedSearch {
            bounding,
            end_point_sample_rate,
            uniform_pdf_hint,
            name,
        }
    }

    /// The configured bounding mode.
    pub fn bounding(&self) -> BoundingMode {
        self.bounding
    }

    /// The configured end-point sampling rate, if any.
    pub fn sample_rate(&self) -> Option<f64> {
        self.end_point_sample_rate
    }

    /// Evaluates the scores at the end-point positions `idx` (ascending)
    /// as one batch, updating `best`, the running attribute minimum and
    /// the counters. The largest position is not a valid split point (its
    /// right side is empty), so it is not part of the paper's `m·s − 1`
    /// candidates and is dropped before scoring at no cost.
    #[allow(clippy::too_many_arguments)] // shared by pass 1 and refinement: search state + counters
    fn evaluate_end_points(
        ev: &AttributeEvents,
        attribute: usize,
        idx: &[usize],
        measure: Measure,
        attribute_best: &mut Option<f64>,
        best: &mut Option<SplitChoice>,
        stats: &mut SearchStats,
        scores: &mut Vec<f64>,
    ) {
        let mut valid = idx;
        if let Some((&last, rest)) = idx.split_last() {
            if last + 1 == ev.n_positions() {
                valid = rest;
            }
        }
        ev.score_indices_into(valid, measure, scores);
        stats.entropy_calculations += valid.len() as u64;
        stats.end_point_evaluations += valid.len() as u64;
        stats.candidates_scored += valid.len() as u64;
        for (&i, &score) in valid.iter().zip(scores.iter()) {
            if score.is_finite() {
                merge_best(
                    best,
                    SplitChoice {
                        attribute,
                        split: ev.xs()[i],
                        score,
                    },
                );
                *attribute_best = Some(attribute_best.map_or(score, |b: f64| b.min(score)));
            }
        }
    }

    /// The pruning threshold applicable to `attribute` right now.
    fn threshold(&self, attribute_best: Option<f64>, global_best: &Option<SplitChoice>) -> f64 {
        match self.bounding {
            BoundingMode::None => f64::NEG_INFINITY,
            BoundingMode::Local => attribute_best.unwrap_or(f64::INFINITY),
            BoundingMode::Global => global_best.as_ref().map_or(f64::INFINITY, |b| b.score),
        }
    }

    /// Whether the interval's interior can be skipped without a bound.
    fn theorem_prunes_interior(&self, kind: IntervalKind, measure: Measure) -> bool {
        match kind {
            IntervalKind::Empty => true,
            IntervalKind::Homogeneous => measure.supports_homogeneous_pruning(),
            IntervalKind::Heterogeneous => self.uniform_pdf_hint,
        }
    }

    /// Selects the sampled end-point boundary indices for one attribute.
    fn sampled_boundaries(&self, ev: &AttributeEvents) -> Vec<usize> {
        let all = ev.end_point_indices();
        let Some(rate) = self.end_point_sample_rate else {
            return all.to_vec();
        };
        if all.len() <= 2 {
            return all.to_vec();
        }
        let target = ((all.len() as f64 * rate).ceil() as usize).clamp(2, all.len());
        if target >= all.len() {
            return all.to_vec();
        }
        // Evenly spaced sample always containing the first and last end
        // point, so the sampled intervals still cover the whole domain.
        let mut picked: Vec<usize> = (0..target)
            .map(|i| {
                let pos = i as f64 * (all.len() - 1) as f64 / (target - 1) as f64;
                all[pos.round() as usize]
            })
            .collect();
        picked.dedup();
        picked
    }

    /// Processes one (possibly coarse) interval: applies theorem- and
    /// bound-based pruning, refines coarse intervals when end-point
    /// sampling is active, and evaluates surviving interior candidates.
    #[allow(clippy::too_many_arguments)]
    fn process_interval(
        &self,
        ev: &AttributeEvents,
        attribute: usize,
        interval: &Interval,
        measure: Measure,
        refine: bool,
        attribute_best: &mut Option<f64>,
        best: &mut Option<SplitChoice>,
        stats: &mut SearchStats,
        scores: &mut Vec<f64>,
    ) {
        stats.intervals_examined += 1;
        if ev.interior_candidates(interval).is_empty() {
            return;
        }
        if self.theorem_prunes_interior(interval.kind, measure) {
            stats.intervals_pruned += 1;
            return;
        }
        if self.bounding != BoundingMode::None {
            let threshold = self.threshold(*attribute_best, best);
            let bound = ev.interval_lower_bound(interval.lo_idx, interval.hi_idx, measure);
            stats.bound_calculations += 1;
            if bound >= threshold {
                stats.intervals_pruned += 1;
                stats.intervals_pruned_bound += 1;
                return;
            }
        }
        if refine {
            // UDT-ES: bring back the original end points inside this coarse
            // interval, evaluate them, and re-prune the finer intervals.
            let inner: Vec<usize> = ev
                .end_point_indices()
                .iter()
                .copied()
                .filter(|&i| i > interval.lo_idx && i < interval.hi_idx)
                .collect();
            if !inner.is_empty() {
                Self::evaluate_end_points(
                    ev,
                    attribute,
                    &inner,
                    measure,
                    attribute_best,
                    best,
                    stats,
                    scores,
                );
                let mut boundaries = Vec::with_capacity(inner.len() + 2);
                boundaries.push(interval.lo_idx);
                boundaries.extend(inner);
                boundaries.push(interval.hi_idx);
                for fine in ev.intervals_between(&boundaries) {
                    self.process_interval(
                        ev,
                        attribute,
                        &fine,
                        measure,
                        false,
                        attribute_best,
                        best,
                        stats,
                        scores,
                    );
                }
                return;
            }
        }
        // The surviving interior is one contiguous candidate batch. No
        // interior index can be the last position (`idx < hi_idx <= n-1`),
        // so every candidate counts one entropy calculation, exactly like
        // the historical per-candidate loop.
        let range = ev.interior_candidates(interval);
        stats.entropy_calculations += range.len() as u64;
        stats.candidates_scored += range.len() as u64;
        ev.score_range_into(range.clone(), measure, scores);
        for (slot, idx) in range.enumerate() {
            let score = scores[slot];
            if score.is_finite() {
                merge_best(
                    best,
                    SplitChoice {
                        attribute,
                        split: ev.xs()[idx],
                        score,
                    },
                );
            }
        }
    }
}

impl SplitSearch for PrunedSearch {
    fn find_best(
        &self,
        events: &[(usize, AttributeEvents)],
        measure: Measure,
        stats: &mut SearchStats,
    ) -> Option<SplitChoice> {
        let mut best: Option<SplitChoice> = None;

        // Pass 1: evaluate (sampled) end points for every attribute —
        // independently per attribute (fanned out on the build pool when
        // large enough), merged in index order. Doing this for all
        // attributes before any interval work is what makes the Global
        // threshold of UDT-GP/UDT-ES cross-attribute.
        let total_positions: usize = events.iter().map(|(_, ev)| ev.n_positions()).sum();
        let pass1 = map_attributes(events.len(), total_positions, |slot| {
            let (attribute, ev) = &events[slot];
            let mut local = SearchStats::default();
            local.candidate_points += (ev.n_positions() - 1) as u64;
            let bounds_idx = self.sampled_boundaries(ev);
            let mut local_best: Option<SplitChoice> = None;
            let mut attr_best: Option<f64> = None;
            let mut scores = Vec::new();
            Self::evaluate_end_points(
                ev,
                *attribute,
                &bounds_idx,
                measure,
                &mut attr_best,
                &mut local_best,
                &mut local,
                &mut scores,
            );
            (bounds_idx, attr_best, local_best, local)
        });
        let mut boundaries: Vec<Vec<usize>> = Vec::with_capacity(events.len());
        let mut attribute_best: Vec<Option<f64>> = Vec::with_capacity(events.len());
        for (bounds_idx, attr_best, local_best, local) in pass1 {
            stats.merge(&local);
            if let Some(candidate) = local_best {
                merge_best(&mut best, candidate);
            }
            boundaries.push(bounds_idx);
            attribute_best.push(attr_best);
        }

        // Pass 2: interval pruning and interior evaluation. Always
        // sequential and progressive — the shared best improves as
        // attributes are processed, so later attributes prune against
        // the tightest threshold available. Keeping this pass on one
        // code path is part of the thread-count determinism contract: a
        // concurrent variant would have to freeze the threshold per
        // attribute, which prunes less and can resolve exact score ties
        // to a different (equal-score) split than the sequential scan.
        // Pass 1 carries the bulk of the evaluations and parallelises
        // freely; this pass is mostly bound arithmetic over intervals
        // the pruning already discarded.
        let refine = self.end_point_sample_rate.is_some();
        let mut scores = Vec::new();
        for (slot, (attribute, ev)) in events.iter().enumerate() {
            for interval in ev.intervals_between(&boundaries[slot]) {
                self.process_interval(
                    ev,
                    *attribute,
                    &interval,
                    measure,
                    refine,
                    &mut attribute_best[slot],
                    &mut best,
                    stats,
                    &mut scores,
                );
            }
        }
        best
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::exhaustive::ExhaustiveSearch;
    use udt_data::UncertainValue;
    use udt_prob::SampledPdf;

    use crate::fractional::FractionalTuple;

    fn ft(points: &[f64], mass: &[f64], label: usize) -> FractionalTuple<'static> {
        FractionalTuple {
            values: vec![UncertainValue::Numeric(
                SampledPdf::new(points.to_vec(), mass.to_vec()).unwrap(),
            )]
            .into(),
            label,
            weight: 1.0,
        }
    }

    /// A small but awkward data set: overlapping pdfs of three classes.
    fn overlapping_tuples() -> Vec<FractionalTuple<'static>> {
        let mut tuples = Vec::new();
        for i in 0..6 {
            let base = i as f64;
            let points: Vec<f64> = (0..10).map(|j| base + j as f64 * 0.3).collect();
            let mass: Vec<f64> = (0..10).map(|j| 1.0 + ((i + j) % 3) as f64).collect();
            tuples.push(ft(&points, &mass, i % 3));
        }
        tuples
    }

    fn engines() -> Vec<PrunedSearch> {
        vec![
            PrunedSearch::new(BoundingMode::None, None, false, "UDT-BP"),
            PrunedSearch::new(BoundingMode::Local, None, false, "UDT-LP"),
            PrunedSearch::new(BoundingMode::Global, None, false, "UDT-GP"),
            PrunedSearch::new(BoundingMode::Global, Some(0.1), false, "UDT-ES"),
        ]
    }

    #[test]
    fn every_engine_matches_the_exhaustive_optimum() {
        let tuples = overlapping_tuples();
        let ev = AttributeEvents::build(&tuples, 0, 3).unwrap();
        let mut ex_stats = SearchStats::default();
        let exhaustive = ExhaustiveSearch
            .find_best(&[(0, ev.clone())], Measure::Entropy, &mut ex_stats)
            .unwrap();
        for engine in engines() {
            let mut stats = SearchStats::default();
            let found = engine
                .find_best(&[(0, ev.clone())], Measure::Entropy, &mut stats)
                .unwrap();
            assert!(
                (found.score - exhaustive.score).abs() < 1e-9,
                "{}: score {} != exhaustive {}",
                engine.name(),
                found.score,
                exhaustive.score
            );
            // Pruning may add bound computations on top of the points it
            // still has to evaluate, so the safe invariant is on the split
            // evaluations alone, not on the bound-inclusive total.
            assert!(
                stats.entropy_calculations <= ex_stats.entropy_calculations,
                "{}: pruning should not evaluate more split points than exhaustive",
                engine.name()
            );
        }
    }

    #[test]
    fn pruning_reduces_entropy_calculations_progressively() {
        let tuples = overlapping_tuples();
        let ev = AttributeEvents::build(&tuples, 0, 3).unwrap();
        let mut udt = SearchStats::default();
        ExhaustiveSearch.find_best(&[(0, ev.clone())], Measure::Entropy, &mut udt);
        let mut per_engine = Vec::new();
        for engine in engines() {
            let mut stats = SearchStats::default();
            engine.find_best(&[(0, ev.clone())], Measure::Entropy, &mut stats);
            per_engine.push(stats.entropy_like_calculations());
        }
        // BP does no more work than UDT, and the bounded engines do no more
        // than BP.
        assert!(per_engine[0] <= udt.entropy_like_calculations());
        assert!(per_engine[1] <= per_engine[0] + 10);
        assert!(per_engine[2] <= per_engine[1]);
    }

    #[test]
    fn uniform_hint_reduces_to_end_points_only() {
        // Uniform pdfs: Theorem 3 says the end points suffice.
        let tuples: Vec<FractionalTuple<'_>> = (0..8)
            .map(|i| {
                let base = i as f64 * 0.7;
                let points: Vec<f64> = (0..20).map(|j| base + j as f64 * 0.1).collect();
                ft(&points, &[1.0; 20], i % 2)
            })
            .collect();
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let mut ex = SearchStats::default();
        let exhaustive = ExhaustiveSearch
            .find_best(&[(0, ev.clone())], Measure::Entropy, &mut ex)
            .unwrap();
        let engine = PrunedSearch::new(BoundingMode::None, None, true, "UDT-BP");
        let mut stats = SearchStats::default();
        let found = engine
            .find_best(&[(0, ev.clone())], Measure::Entropy, &mut stats)
            .unwrap();
        assert!((found.score - exhaustive.score).abs() < 1e-9);
        // Only end points were evaluated.
        assert_eq!(stats.entropy_calculations, stats.end_point_evaluations);
        assert!(stats.entropy_calculations < ex.entropy_calculations);
    }

    #[test]
    fn end_point_sampling_uses_fewer_end_point_evaluations() {
        let tuples = overlapping_tuples();
        let ev = AttributeEvents::build(&tuples, 0, 3).unwrap();
        let full = PrunedSearch::new(BoundingMode::Global, None, false, "UDT-GP");
        let sampled = PrunedSearch::new(BoundingMode::Global, Some(0.1), false, "UDT-ES");
        let mut full_stats = SearchStats::default();
        let mut sampled_stats = SearchStats::default();
        let a = full
            .find_best(&[(0, ev.clone())], Measure::Entropy, &mut full_stats)
            .unwrap();
        let b = sampled
            .find_best(&[(0, ev.clone())], Measure::Entropy, &mut sampled_stats)
            .unwrap();
        assert!((a.score - b.score).abs() < 1e-9);
    }

    #[test]
    fn gain_ratio_disables_homogeneous_pruning_but_stays_correct() {
        let tuples = overlapping_tuples();
        let ev = AttributeEvents::build(&tuples, 0, 3).unwrap();
        let mut ex = SearchStats::default();
        let exhaustive = ExhaustiveSearch
            .find_best(&[(0, ev.clone())], Measure::GainRatio, &mut ex)
            .unwrap();
        for engine in engines() {
            let mut stats = SearchStats::default();
            let found = engine
                .find_best(&[(0, ev.clone())], Measure::GainRatio, &mut stats)
                .unwrap();
            assert!(
                (found.score - exhaustive.score).abs() < 1e-9,
                "{} with gain ratio",
                engine.name()
            );
        }
    }

    #[test]
    fn multi_attribute_global_threshold_prunes_weak_attributes() {
        // Attribute 0 separates the classes perfectly; attribute 1 is noise
        // with heavily overlapping pdfs. The global threshold from
        // attribute 0 should prune most of attribute 1's intervals.
        let mut tuples = Vec::new();
        for i in 0..10 {
            let class = i % 2;
            let informative = if class == 0 { 0.0 } else { 100.0 } + i as f64;
            let noise_points: Vec<f64> = (0..15).map(|j| (i + j) as f64 * 0.9).collect();
            tuples.push(FractionalTuple {
                values: vec![
                    UncertainValue::point(informative),
                    UncertainValue::Numeric(SampledPdf::new(noise_points, vec![1.0; 15]).unwrap()),
                ]
                .into(),
                label: class,
                weight: 1.0,
            });
        }
        let ev0 = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let ev1 = AttributeEvents::build(&tuples, 1, 2).unwrap();
        let gp = PrunedSearch::new(BoundingMode::Global, None, false, "UDT-GP");
        let lp = PrunedSearch::new(BoundingMode::Local, None, false, "UDT-LP");
        let mut gp_stats = SearchStats::default();
        let mut lp_stats = SearchStats::default();
        let g = gp
            .find_best(
                &[(0, ev0.clone()), (1, ev1.clone())],
                Measure::Entropy,
                &mut gp_stats,
            )
            .unwrap();
        let l = lp
            .find_best(&[(0, ev0), (1, ev1)], Measure::Entropy, &mut lp_stats)
            .unwrap();
        assert_eq!(g.attribute, 0);
        assert_eq!(g.score, 0.0);
        assert!((g.score - l.score).abs() < 1e-12);
        // The global threshold (0.0 from the perfect attribute) prunes at
        // least as many intervals as the local one.
        assert!(gp_stats.intervals_pruned >= lp_stats.intervals_pruned);
        assert!(gp_stats.entropy_like_calculations() <= lp_stats.entropy_like_calculations());
    }
}
