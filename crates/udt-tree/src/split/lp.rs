//! UDT-LP — Local Pruning (§5.2).
//!
//! On top of UDT-BP, heterogeneous intervals are pruned by computing the
//! eq. 3 / eq. 4 lower bound and comparing it against `H_j*`, the smallest
//! end-point score *of the same attribute*. Every attribute is processed
//! independently.

use crate::split::pruned::{BoundingMode, PrunedSearch};

/// Builds the UDT-LP search strategy.
pub fn search() -> PrunedSearch {
    PrunedSearch::new(BoundingMode::Local, None, false, "UDT-LP")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::AttributeEvents;
    use crate::fractional::FractionalTuple;
    use crate::measure::Measure;
    use crate::split::{bp, exhaustive::ExhaustiveSearch, SearchStats, SplitSearch};
    use udt_data::UncertainValue;
    use udt_prob::SampledPdf;

    /// Heavily overlapping pdfs: few empty/homogeneous intervals, so BP
    /// alone cannot prune much, but bounding can.
    fn overlapping_tuples() -> Vec<FractionalTuple<'static>> {
        let mut tuples = Vec::new();
        for i in 0..8 {
            let class = i % 2;
            // Classes are offset only slightly so their pdfs overlap.
            let base = i as f64 * 0.5 + class as f64 * 2.0;
            let points: Vec<f64> = (0..25).map(|j| base + j as f64 * 0.37).collect();
            let mass: Vec<f64> = (0..25).map(|j| 1.0 + (j % 4) as f64).collect();
            tuples.push(FractionalTuple {
                values: vec![UncertainValue::Numeric(
                    SampledPdf::new(points, mass).unwrap(),
                )]
                .into(),
                label: class,
                weight: 1.0,
            });
        }
        tuples
    }

    #[test]
    fn lp_matches_exhaustive_and_improves_on_bp() {
        let tuples = overlapping_tuples();
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let mut ex_stats = SearchStats::default();
        let ex = ExhaustiveSearch
            .find_best(&[(0, ev.clone())], Measure::Entropy, &mut ex_stats)
            .unwrap();
        let mut bp_stats = SearchStats::default();
        bp::search(false).find_best(&[(0, ev.clone())], Measure::Entropy, &mut bp_stats);
        let mut lp_stats = SearchStats::default();
        let lp = search()
            .find_best(&[(0, ev)], Measure::Entropy, &mut lp_stats)
            .unwrap();
        assert!((lp.score - ex.score).abs() < 1e-9);
        assert!(lp_stats.bound_calculations > 0, "LP must compute bounds");
        // LP never does more entropy-like work than BP plus its bounds
        // budget; on this workload it should do strictly less than UDT.
        assert!(lp_stats.entropy_like_calculations() < ex_stats.entropy_like_calculations());
    }

    #[test]
    fn lp_works_with_gini() {
        let tuples = overlapping_tuples();
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let mut ex_stats = SearchStats::default();
        let ex = ExhaustiveSearch
            .find_best(&[(0, ev.clone())], Measure::Gini, &mut ex_stats)
            .unwrap();
        let mut lp_stats = SearchStats::default();
        let lp = search()
            .find_best(&[(0, ev)], Measure::Gini, &mut lp_stats)
            .unwrap();
        assert!((lp.score - ex.score).abs() < 1e-9);
    }

    #[test]
    fn lp_configuration() {
        assert_eq!(search().name(), "UDT-LP");
        assert_eq!(search().bounding(), BoundingMode::Local);
        assert_eq!(search().sample_rate(), None);
    }
}
