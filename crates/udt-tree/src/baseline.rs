//! Checked-in naive baseline of the split-search engine.
//!
//! This module preserves the pre-columnar implementation in its original
//! shape: per-position cumulative counts stored as one owned
//! [`ClassCounts`] per candidate, right-side counts produced by cloning
//! and subtracting, and a tree walk that rebuilds and re-sorts every
//! attribute's event array at every node. It exists for two reasons:
//!
//! 1. **Regression testing** — the columnar [`crate::events::AttributeEvents`]
//!    must reproduce these per-position scores bit for bit (see
//!    `tests/columnar_regression.rs`);
//! 2. **Benchmarking** — the `split_algorithms` criterion bench measures
//!    the columnar engine's speedup against this baseline, which is the
//!    quantity the ISSUE's acceptance criterion tracks.
//!
//! It is **not** wired into [`crate::TreeBuilder`]; production code paths
//! always use the columnar engine.

use udt_data::Dataset;

use crate::counts::{ClassCounts, WEIGHT_EPSILON};
use crate::events::IntervalKind;
use crate::fractional::{class_counts, FractionalTuple};
use crate::measure::Measure;
use crate::split::SplitChoice;

/// Which search the naive baseline runs at every node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NaiveSearch {
    /// Score every candidate (the paper's plain UDT).
    Exhaustive,
    /// Global lower-bound pruning with optional end-point sampling — the
    /// pre-columnar UDT-GP (`None`) / UDT-ES (`Some(rate)`) engine, with
    /// its original clone-based bound arithmetic.
    GlobalPruned(Option<f64>),
}

/// The pre-columnar per-attribute candidate structure: one owned
/// [`ClassCounts`] per distinct position.
#[derive(Debug, Clone)]
pub struct NaiveAttributeEvents {
    xs: Vec<f64>,
    cum: Vec<ClassCounts>,
    total: ClassCounts,
    end_point_idx: Vec<usize>,
}

impl NaiveAttributeEvents {
    /// Builds the structure exactly as the pre-columnar engine did. The
    /// one intentional difference is the zero-mass gate: the original
    /// `w > 0.0` admitted denormal event weights (spurious candidate
    /// positions); both engines now share the `WEIGHT_EPSILON` gate so
    /// their outputs stay comparable position for position.
    pub fn build(
        tuples: &[FractionalTuple<'_>],
        attribute: usize,
        n_classes: usize,
    ) -> Option<NaiveAttributeEvents> {
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
                if w > WEIGHT_EPSILON {
                    events.push((x, t.label, w));
                }
            }
        }
        if events.is_empty() {
            return None;
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite sample points"));

        let mut xs: Vec<f64> = Vec::new();
        let mut cum: Vec<ClassCounts> = Vec::new();
        let mut running = ClassCounts::new(n_classes);
        for (x, label, w) in events {
            if xs.last() != Some(&x) {
                if !xs.is_empty() {
                    cum.push(running.clone());
                }
                xs.push(x);
            }
            running.add(label, w);
        }
        cum.push(running.clone());
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
        // Keep interval coverage of every candidate (same guard as
        // AttributeEvents::from_sorted_events).
        if end_point_idx.first() != Some(&0) {
            end_point_idx.insert(0, 0);
        }
        let last_idx = xs.len() - 1;
        if end_point_idx.last() != Some(&last_idx) {
            end_point_idx.push(last_idx);
        }
        Some(NaiveAttributeEvents {
            xs,
            cum,
            total: running,
            end_point_idx,
        })
    }

    /// The distinct candidate positions.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Number of distinct candidate positions.
    pub fn n_positions(&self) -> usize {
        self.xs.len()
    }

    /// The pre-columnar per-candidate scoring path: clones the cumulative
    /// counter, clones and subtracts for the right side, then scores.
    pub fn score_at(&self, i: usize, measure: Measure) -> f64 {
        let left = self.cum[i].clone();
        let mut right = self.total.clone();
        right.sub_counts(&self.cum[i]);
        if left.is_empty() || right.is_empty() {
            return f64::INFINITY;
        }
        measure.split_score(&left, &right)
    }

    /// End-point indices into [`xs`](Self::xs), ascending.
    pub fn end_point_indices(&self) -> &[usize] {
        &self.end_point_idx
    }

    /// Per-class mass at positions `<= xs[i]` — the pre-columnar clone.
    fn counts_below(&self, i: usize) -> ClassCounts {
        self.cum[i].clone()
    }

    /// Per-class mass in `(xs[lo], xs[hi]]` — clone and subtract.
    fn counts_in(&self, lo: usize, hi: usize) -> ClassCounts {
        let mut c = self.cum[hi].clone();
        c.sub_counts(&self.cum[lo]);
        c
    }

    /// Per-class mass at positions `> xs[i]` — clone and subtract.
    fn counts_above(&self, i: usize) -> ClassCounts {
        let mut c = self.total.clone();
        c.sub_counts(&self.cum[i]);
        c
    }

    /// The eq. 3 / eq. 4 bound through three freshly cloned counters, as
    /// the pre-columnar engine computed it.
    pub fn interval_lower_bound(&self, lo: usize, hi: usize, measure: Measure) -> f64 {
        measure.interval_lower_bound(
            &self.counts_below(lo),
            &self.counts_in(lo, hi),
            &self.counts_above(hi),
        )
    }

    /// Classified intervals between the given boundary indices (clones a
    /// counter per interval, as the pre-columnar engine did).
    pub fn intervals_between(&self, boundary_idx: &[usize]) -> Vec<(usize, usize, IntervalKind)> {
        let mut out = Vec::new();
        for w in boundary_idx.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let inside = self.counts_in(lo, hi);
            let kind = if inside.is_empty() {
                IntervalKind::Empty
            } else if inside.support_size() <= 1 {
                IntervalKind::Homogeneous
            } else {
                IntervalKind::Heterogeneous
            };
            out.push((lo, hi, kind));
        }
        out
    }
}

/// The pre-columnar global-threshold pruning engine (UDT-GP / UDT-ES) on
/// top of [`NaiveAttributeEvents`]: end-point evaluation, Theorem 1–2
/// interior skipping, eq. 3 bounding through cloned counters, optional
/// end-point sampling with coarse-interval refinement.
pub fn naive_pruned_find_best(
    events: &[(usize, NaiveAttributeEvents)],
    measure: Measure,
    sample_rate: Option<f64>,
) -> Option<SplitChoice> {
    let mut best: Option<SplitChoice> = None;
    let mut boundaries: Vec<Vec<usize>> = Vec::with_capacity(events.len());
    let mut attribute_best: Vec<Option<f64>> = vec![None; events.len()];

    let evaluate = |ev: &NaiveAttributeEvents,
                    attribute: usize,
                    idx: usize,
                    best: &mut Option<SplitChoice>|
     -> f64 {
        if idx + 1 == ev.n_positions() {
            return f64::INFINITY;
        }
        let score = ev.score_at(idx, measure);
        if score.is_finite() {
            let candidate = SplitChoice {
                attribute,
                split: ev.xs[idx],
                score,
            };
            match best {
                Some(b) if !b.is_improved_by(&candidate) => {}
                _ => *best = Some(candidate),
            }
        }
        score
    };

    // Pass 1: evaluate (sampled) end points for every attribute.
    for (slot, (attribute, ev)) in events.iter().enumerate() {
        let all = ev.end_point_indices();
        let bounds_idx: Vec<usize> = match sample_rate {
            Some(rate) if all.len() > 2 => {
                let target = ((all.len() as f64 * rate).ceil() as usize).clamp(2, all.len());
                if target >= all.len() {
                    all.to_vec()
                } else {
                    let mut picked: Vec<usize> = (0..target)
                        .map(|i| {
                            let pos = i as f64 * (all.len() - 1) as f64 / (target - 1) as f64;
                            all[pos.round() as usize]
                        })
                        .collect();
                    picked.dedup();
                    picked
                }
            }
            _ => all.to_vec(),
        };
        for &idx in &bounds_idx {
            let score = evaluate(ev, *attribute, idx, &mut best);
            if score.is_finite() {
                attribute_best[slot] =
                    Some(attribute_best[slot].map_or(score, |b: f64| b.min(score)));
            }
        }
        boundaries.push(bounds_idx);
    }

    // Pass 2: interval pruning and interior evaluation with the global
    // threshold.
    for (slot, (attribute, ev)) in events.iter().enumerate() {
        let coarse = ev.intervals_between(&boundaries[slot]);
        let mut stack: Vec<(usize, usize, IntervalKind, bool)> = coarse
            .into_iter()
            .rev()
            .map(|(lo, hi, kind)| (lo, hi, kind, sample_rate.is_some()))
            .collect();
        while let Some((lo, hi, kind, refine)) = stack.pop() {
            if lo + 1 >= hi {
                continue;
            }
            match kind {
                IntervalKind::Empty => continue,
                IntervalKind::Homogeneous if measure.supports_homogeneous_pruning() => continue,
                _ => {}
            }
            let threshold = best.as_ref().map_or(f64::INFINITY, |b| b.score);
            let bound = ev.interval_lower_bound(lo, hi, measure);
            if bound >= threshold {
                continue;
            }
            if refine {
                let inner: Vec<usize> = ev
                    .end_point_indices()
                    .iter()
                    .copied()
                    .filter(|&i| i > lo && i < hi)
                    .collect();
                if !inner.is_empty() {
                    for &idx in &inner {
                        evaluate(ev, *attribute, idx, &mut best);
                    }
                    let mut bounds = Vec::with_capacity(inner.len() + 2);
                    bounds.push(lo);
                    bounds.extend(inner);
                    bounds.push(hi);
                    for (flo, fhi, fkind) in ev.intervals_between(&bounds).into_iter().rev() {
                        stack.push((flo, fhi, fkind, false));
                    }
                    continue;
                }
            }
            for idx in lo + 1..hi {
                evaluate(ev, *attribute, idx, &mut best);
            }
        }
    }
    best
}

/// Exhaustive best-split search over naive per-attribute structures —
/// the pre-columnar UDT inner loop.
pub fn naive_find_best(
    events: &[(usize, NaiveAttributeEvents)],
    measure: Measure,
) -> Option<SplitChoice> {
    let mut best: Option<SplitChoice> = None;
    for (attribute, ev) in events {
        for i in 0..ev.n_positions() - 1 {
            let score = ev.score_at(i, measure);
            if !score.is_finite() {
                continue;
            }
            let candidate = SplitChoice {
                attribute: *attribute,
                split: ev.xs[i],
                score,
            };
            match &best {
                Some(b) if !b.is_improved_by(&candidate) => {}
                _ => best = Some(candidate),
            }
        }
    }
    best
}

/// Counts the internal nodes a naive recursive build would create; the
/// return value makes the whole computation observable to benchmarks.
///
/// This replicates the pre-columnar `TreeBuilder` hot path for numerical
/// attributes: every node materialises fresh `FractionalTuple` vectors,
/// rebuilds and re-sorts each attribute's events, and scores candidates
/// through cloned counters. Pre-pruning mirrors the builder's defaults
/// (`max_depth`, `min_node_weight`, `min_gain` on the dispersion drop).
pub fn naive_build_splits(
    data: &Dataset,
    measure: Measure,
    search: NaiveSearch,
    max_depth: usize,
    min_node_weight: f64,
    min_gain: f64,
) -> usize {
    let tuples: Vec<FractionalTuple<'_>> = data
        .tuples()
        .iter()
        .map(FractionalTuple::from_tuple)
        .collect();
    let numerical = data.schema().numerical_indices();
    naive_build_node(
        tuples,
        &numerical,
        data.n_classes(),
        measure,
        search,
        1,
        max_depth,
        min_node_weight,
        min_gain,
    )
}

#[allow(clippy::too_many_arguments)]
fn naive_build_node(
    tuples: Vec<FractionalTuple<'_>>,
    numerical: &[usize],
    n_classes: usize,
    measure: Measure,
    search: NaiveSearch,
    depth: usize,
    max_depth: usize,
    min_node_weight: f64,
    min_gain: f64,
) -> usize {
    let counts = class_counts(&tuples, n_classes);
    if counts.is_pure()
        || depth >= max_depth
        || counts.total() < min_node_weight
        || tuples.is_empty()
    {
        return 0;
    }
    // The naive engine's defining cost: rebuild + re-sort per node.
    let events: Vec<(usize, NaiveAttributeEvents)> = numerical
        .iter()
        .filter_map(|&j| NaiveAttributeEvents::build(&tuples, j, n_classes).map(|e| (j, e)))
        .collect();
    let best = match search {
        NaiveSearch::Exhaustive => naive_find_best(&events, measure),
        NaiveSearch::GlobalPruned(rate) => naive_pruned_find_best(&events, measure, rate),
    };
    let Some(best) = best else {
        return 0;
    };
    let worthwhile = match measure {
        Measure::Entropy | Measure::Gini => measure.dispersion(&counts) - best.score >= min_gain,
        Measure::GainRatio => -best.score >= min_gain,
    };
    if !worthwhile {
        return 0;
    }
    let mut left = Vec::new();
    let mut right = Vec::new();
    for t in &tuples {
        let (l, r) = t.split_numeric(best.attribute, best.split);
        if let Some(l) = l {
            left.push(l);
        }
        if let Some(r) = r {
            right.push(r);
        }
    }
    if left.is_empty() || right.is_empty() {
        return 0;
    }
    drop(tuples);
    1 + naive_build_node(
        left,
        numerical,
        n_classes,
        measure,
        search,
        depth + 1,
        max_depth,
        min_node_weight,
        min_gain,
    ) + naive_build_node(
        right,
        numerical,
        n_classes,
        measure,
        search,
        depth + 1,
        max_depth,
        min_node_weight,
        min_gain,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_data::{Tuple, UncertainValue};
    use udt_prob::SampledPdf;

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

    #[test]
    fn naive_engine_finds_the_obvious_split() {
        let tuples = vec![
            ft(&[0.0, 1.0], &[0.5, 0.5], 0),
            ft(&[5.0, 6.0], &[0.5, 0.5], 1),
        ];
        let ev = NaiveAttributeEvents::build(&tuples, 0, 2).unwrap();
        let best = naive_find_best(&[(0, ev)], Measure::Entropy).unwrap();
        assert_eq!(best.split, 1.0);
        assert_eq!(best.score, 0.0);
    }

    #[test]
    fn naive_build_splits_a_separable_dataset() {
        let mut ds = Dataset::numerical(1, 2);
        for i in 0..10 {
            let class = i % 2;
            ds.push(Tuple::from_points(
                &[class as f64 * 10.0 + i as f64 * 0.1],
                class,
            ))
            .unwrap();
        }
        let splits = naive_build_splits(
            &ds,
            Measure::Entropy,
            NaiveSearch::Exhaustive,
            25,
            2.0,
            1e-6,
        );
        assert!(splits >= 1);
    }
}
