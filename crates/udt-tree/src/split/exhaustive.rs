//! Exhaustive split search (the baseline UDT algorithm of §4.2).
//!
//! Evaluates the dispersion score at every distinct pdf sample point of
//! every attribute — the `k·(m·s − 1)` candidate evaluations that the
//! pruning algorithms of §5 set out to reduce. On point-valued data (one
//! sample per value) this degenerates to the classical C4.5-style search
//! used by AVG (§4.1).

use crate::events::AttributeEvents;
use crate::measure::Measure;
use crate::split::{map_attributes, merge_best, SearchStats, SplitChoice, SplitSearch};

/// The exhaustive (no-pruning) split search.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSearch;

impl SplitSearch for ExhaustiveSearch {
    fn find_best(
        &self,
        events: &[(usize, AttributeEvents)],
        measure: Measure,
        stats: &mut SearchStats,
    ) -> Option<SplitChoice> {
        // Attributes are scanned independently (in parallel on the build
        // pool when the node is large enough) and the
        // per-attribute bests merged in index order, which reproduces the
        // sequential tie-breaking exactly.
        let total_positions: usize = events.iter().map(|(_, ev)| ev.n_positions()).sum();
        let per_attribute = map_attributes(events.len(), total_positions, |slot| {
            let (attribute, ev) = &events[slot];
            let n = ev.n_positions();
            let mut local = SearchStats::default();
            // The largest position cannot be a split point (empty right
            // side), hence the paper's "m·s − 1".
            local.candidate_points += (n - 1) as u64;
            let mut best: Option<SplitChoice> = None;
            // The whole attribute is one contiguous candidate batch,
            // scored by the batch kernel (or, below its minimum length,
            // by the exact per-candidate formula). Every candidate counts
            // one entropy calculation either way.
            let mut scores = Vec::new();
            ev.score_range_into(0..n - 1, measure, &mut scores);
            local.entropy_calculations += (n - 1) as u64;
            local.candidates_scored += (n - 1) as u64;
            for (i, &score) in scores.iter().enumerate() {
                if !score.is_finite() {
                    continue;
                }
                merge_best(
                    &mut best,
                    SplitChoice {
                        attribute: *attribute,
                        split: ev.xs()[i],
                        score,
                    },
                );
            }
            (best, local)
        });
        let mut best: Option<SplitChoice> = None;
        for (candidate, local) in per_attribute {
            stats.merge(&local);
            if let Some(candidate) = candidate {
                merge_best(&mut best, candidate);
            }
        }
        best
    }

    fn name(&self) -> &'static str {
        "UDT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fractional::FractionalTuple;
    use udt_data::UncertainValue;
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

    fn point(v: f64, label: usize) -> FractionalTuple<'static> {
        ft(&[v], &[1.0], label)
    }

    #[test]
    fn finds_the_perfect_split_on_separable_point_data() {
        let tuples = vec![point(1.0, 0), point(2.0, 0), point(8.0, 1), point(9.0, 1)];
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let mut stats = SearchStats::default();
        let best = ExhaustiveSearch
            .find_best(&[(0, ev)], Measure::Entropy, &mut stats)
            .unwrap();
        assert_eq!(best.attribute, 0);
        assert_eq!(best.split, 2.0);
        assert_eq!(best.score, 0.0);
        // 4 distinct positions → 3 candidates, all evaluated.
        assert_eq!(stats.entropy_calculations, 3);
        assert_eq!(stats.candidate_points, 3);
        assert_eq!(stats.bound_calculations, 0);
    }

    #[test]
    fn evaluates_every_sample_point_of_uncertain_data() {
        let tuples = vec![
            ft(&[0.0, 1.0, 2.0, 3.0], &[1.0; 4], 0),
            ft(&[2.5, 3.5, 4.5, 5.5], &[1.0; 4], 1),
        ];
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let mut stats = SearchStats::default();
        let best = ExhaustiveSearch
            .find_best(&[(0, ev)], Measure::Entropy, &mut stats)
            .unwrap();
        // 8 distinct positions → 7 candidates.
        assert_eq!(stats.entropy_calculations, 7);
        // Best split separates the two pdfs' bulk: between 2.0 and 2.5 the
        // left side holds 4/4 of class 0 and 0/4 of class 1.
        assert!(best.split >= 2.0 && best.split < 2.5);
    }

    #[test]
    fn prefers_the_lower_attribute_on_ties() {
        // Two identical attributes: the split must come from attribute 0.
        let tuples = vec![
            FractionalTuple {
                values: vec![UncertainValue::point(1.0), UncertainValue::point(1.0)].into(),
                label: 0,
                weight: 1.0,
            },
            FractionalTuple {
                values: vec![UncertainValue::point(5.0), UncertainValue::point(5.0)].into(),
                label: 1,
                weight: 1.0,
            },
        ];
        let ev0 = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let ev1 = AttributeEvents::build(&tuples, 1, 2).unwrap();
        let mut stats = SearchStats::default();
        let best = ExhaustiveSearch
            .find_best(&[(0, ev0), (1, ev1)], Measure::Entropy, &mut stats)
            .unwrap();
        assert_eq!(best.attribute, 0);
    }

    #[test]
    fn returns_none_when_no_attribute_is_splittable() {
        let mut stats = SearchStats::default();
        assert!(ExhaustiveSearch
            .find_best(&[], Measure::Entropy, &mut stats)
            .is_none());
    }

    #[test]
    fn works_with_gini_and_gain_ratio() {
        let tuples = vec![point(1.0, 0), point(2.0, 0), point(8.0, 1), point(9.0, 1)];
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        for m in [Measure::Gini, Measure::GainRatio] {
            let mut stats = SearchStats::default();
            let best = ExhaustiveSearch
                .find_best(&[(0, ev.clone())], m, &mut stats)
                .unwrap();
            assert_eq!(best.split, 2.0, "{m:?} should find the perfect split");
        }
    }
}
