//! UDT-GP — Global Pruning (§5.2).
//!
//! Identical to UDT-LP except that the pruning threshold is the best score
//! found so far across *all* attributes (initialised from the end-point
//! scores of every attribute), so one strongly discriminating attribute can
//! prune away most of the intervals of every other attribute.

use crate::split::pruned::{BoundingMode, PrunedSearch};

/// Builds the UDT-GP search strategy.
pub fn search() -> PrunedSearch {
    PrunedSearch::new(BoundingMode::Global, None, false, "UDT-GP")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::AttributeEvents;
    use crate::fractional::FractionalTuple;
    use crate::measure::Measure;
    use crate::split::{exhaustive::ExhaustiveSearch, lp, SearchStats, SplitSearch};
    use udt_data::UncertainValue;
    use udt_prob::SampledPdf;

    /// Three attributes with very different discriminating power.
    fn tuples() -> Vec<FractionalTuple<'static>> {
        let mut out = Vec::new();
        for i in 0..10 {
            let class = i % 2;
            let strong = class as f64 * 40.0 + i as f64;
            let weak_points: Vec<f64> = (0..20).map(|j| ((i * 3 + j) % 17) as f64).collect();
            let noise_points: Vec<f64> = (0..20)
                .map(|j| ((i * 7 + j * 3) % 23) as f64 * 0.5)
                .collect();
            let mut wp = weak_points.clone();
            wp.sort_by(|a, b| a.partial_cmp(b).unwrap());
            wp.dedup();
            let mut np = noise_points.clone();
            np.sort_by(|a, b| a.partial_cmp(b).unwrap());
            np.dedup();
            out.push(FractionalTuple {
                values: vec![
                    UncertainValue::point(strong),
                    UncertainValue::Numeric(
                        SampledPdf::new(wp.clone(), vec![1.0; wp.len()]).unwrap(),
                    ),
                    UncertainValue::Numeric(
                        SampledPdf::new(np.clone(), vec![1.0; np.len()]).unwrap(),
                    ),
                ]
                .into(),
                label: class,
                weight: 1.0,
            });
        }
        out
    }

    #[test]
    fn gp_matches_exhaustive_across_attributes() {
        let tuples = tuples();
        let events: Vec<(usize, AttributeEvents)> = (0..3)
            .filter_map(|j| AttributeEvents::build(&tuples, j, 2).map(|e| (j, e)))
            .collect();
        let mut ex_stats = SearchStats::default();
        let ex = ExhaustiveSearch
            .find_best(&events, Measure::Entropy, &mut ex_stats)
            .unwrap();
        let mut gp_stats = SearchStats::default();
        let gp = search()
            .find_best(&events, Measure::Entropy, &mut gp_stats)
            .unwrap();
        assert!((gp.score - ex.score).abs() < 1e-9);
        assert_eq!(gp.attribute, ex.attribute);
    }

    #[test]
    fn global_threshold_prunes_at_least_as_much_as_local() {
        let tuples = tuples();
        let events: Vec<(usize, AttributeEvents)> = (0..3)
            .filter_map(|j| AttributeEvents::build(&tuples, j, 2).map(|e| (j, e)))
            .collect();
        let mut gp_stats = SearchStats::default();
        let mut lp_stats = SearchStats::default();
        search().find_best(&events, Measure::Entropy, &mut gp_stats);
        lp::search().find_best(&events, Measure::Entropy, &mut lp_stats);
        assert!(gp_stats.entropy_like_calculations() <= lp_stats.entropy_like_calculations());
        assert!(gp_stats.intervals_pruned >= lp_stats.intervals_pruned);
    }

    #[test]
    fn gp_configuration() {
        assert_eq!(search().name(), "UDT-GP");
        assert_eq!(search().bounding(), BoundingMode::Global);
    }
}
