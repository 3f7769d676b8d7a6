//! UDT-ES — End-point Sampling (§5.3).
//!
//! UDT-GP spends most of its remaining work computing end-point scores.
//! UDT-ES therefore evaluates only a sample of the end points (10 % by
//! default, the value the paper found to work well), derives the global
//! pruning threshold from that sample, prunes the resulting *coarse*
//! (concatenated) intervals, and only "brings back" the original end points
//! inside intervals that survive, re-pruning the finer intervals before any
//! pdf sample point is evaluated — the nine-row process illustrated in the
//! paper's Fig. 5.

use crate::split::pruned::{BoundingMode, PrunedSearch};

/// The paper's default end-point sampling rate.
pub const DEFAULT_SAMPLE_RATE: f64 = 0.10;

/// Builds the UDT-ES search strategy with the paper's 10 % sampling rate.
pub fn search() -> PrunedSearch {
    PrunedSearch::new(
        BoundingMode::Global,
        Some(DEFAULT_SAMPLE_RATE),
        false,
        "UDT-ES",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::AttributeEvents;
    use crate::fractional::FractionalTuple;
    use crate::measure::Measure;
    use crate::split::{exhaustive::ExhaustiveSearch, gp, SearchStats, SplitSearch};
    use udt_data::UncertainValue;
    use udt_prob::SampledPdf;

    fn many_tuples() -> Vec<FractionalTuple<'static>> {
        // Enough tuples that 10 % end-point sampling is meaningful
        // (2 end points per tuple per attribute).
        let mut out = Vec::new();
        for i in 0..40 {
            let class = i % 2;
            let base = i as f64 * 0.8 + class as f64 * 6.0;
            let points: Vec<f64> = (0..12).map(|j| base + j as f64 * 0.45).collect();
            let mass: Vec<f64> = (0..12).map(|j| 1.0 + ((i + j) % 5) as f64).collect();
            out.push(FractionalTuple {
                values: vec![UncertainValue::Numeric(
                    SampledPdf::new(points, mass).unwrap(),
                )]
                .into(),
                label: class,
                weight: 1.0,
            });
        }
        out
    }

    #[test]
    fn es_matches_the_exhaustive_optimum() {
        let tuples = many_tuples();
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let mut ex_stats = SearchStats::default();
        let ex = ExhaustiveSearch
            .find_best(&[(0, ev.clone())], Measure::Entropy, &mut ex_stats)
            .unwrap();
        let mut es_stats = SearchStats::default();
        let es = search()
            .find_best(&[(0, ev)], Measure::Entropy, &mut es_stats)
            .unwrap();
        assert!((es.score - ex.score).abs() < 1e-9);
        assert!(es_stats.entropy_like_calculations() < ex_stats.entropy_like_calculations());
    }

    #[test]
    fn es_evaluates_fewer_end_points_up_front_than_gp() {
        let tuples = many_tuples();
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let mut gp_stats = SearchStats::default();
        let mut es_stats = SearchStats::default();
        let g = gp::search()
            .find_best(&[(0, ev.clone())], Measure::Entropy, &mut gp_stats)
            .unwrap();
        let e = search()
            .find_best(&[(0, ev)], Measure::Entropy, &mut es_stats)
            .unwrap();
        assert!((g.score - e.score).abs() < 1e-9);
        // Every end point is evaluated at most once by ES (the sampled ones
        // up front, the rest only when their coarse interval survives), so
        // ES never performs more end-point evaluations than GP, which
        // evaluates all of them unconditionally.
        assert!(es_stats.end_point_evaluations <= gp_stats.end_point_evaluations);
    }

    #[test]
    fn sampling_rate_one_degenerates_to_gp_behaviour() {
        let tuples = many_tuples();
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let mut full_stats = SearchStats::default();
        let mut gp_stats = SearchStats::default();
        let full = PrunedSearch::new(BoundingMode::Global, Some(1.0), false, "UDT-ES")
            .find_best(&[(0, ev.clone())], Measure::Entropy, &mut full_stats)
            .unwrap();
        let g = gp::search()
            .find_best(&[(0, ev)], Measure::Entropy, &mut gp_stats)
            .unwrap();
        assert!((full.score - g.score).abs() < 1e-12);
        assert_eq!(
            full_stats.end_point_evaluations,
            gp_stats.end_point_evaluations
        );
    }

    #[test]
    fn es_configuration() {
        assert_eq!(search().name(), "UDT-ES");
        assert_eq!(search().sample_rate(), Some(DEFAULT_SAMPLE_RATE));
    }
}
