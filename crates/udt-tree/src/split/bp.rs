//! UDT-BP — Basic Pruning (§5.1).
//!
//! Evaluates every end point and every sample point inside heterogeneous
//! intervals, but skips the interiors of empty intervals (Theorem 1) and
//! homogeneous intervals (Theorem 2). When the caller knows that all pdfs
//! are uniform, Theorem 3 additionally allows skipping the interiors of
//! heterogeneous intervals (enable with [`search`]`(true)`, which
//! [`crate::UdtConfig::uniform_pdf_hint`] selects).

use crate::split::pruned::{BoundingMode, PrunedSearch};

/// Builds the UDT-BP search strategy.
pub fn search(uniform_pdf_hint: bool) -> PrunedSearch {
    PrunedSearch::new(BoundingMode::None, None, uniform_pdf_hint, "UDT-BP")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::AttributeEvents;
    use crate::fractional::FractionalTuple;
    use crate::measure::Measure;
    use crate::split::exhaustive::ExhaustiveSearch;
    use crate::split::{SearchStats, SplitSearch};
    use udt_data::UncertainValue;
    use udt_prob::SampledPdf;

    fn ft(points: &[f64], label: usize) -> FractionalTuple<'static> {
        FractionalTuple {
            values: vec![UncertainValue::Numeric(
                SampledPdf::new(points.to_vec(), vec![1.0; points.len()]).unwrap(),
            )]
            .into(),
            label,
            weight: 1.0,
        }
    }

    /// Well-separated classes produce many empty/homogeneous intervals, the
    /// case where BP shines.
    fn separated_tuples() -> Vec<FractionalTuple<'static>> {
        let mut tuples = Vec::new();
        for i in 0..6 {
            let class = i % 2;
            let base = class as f64 * 50.0 + i as f64;
            let points: Vec<f64> = (0..8).map(|j| base + j as f64 * 0.2).collect();
            tuples.push(ft(&points, class));
        }
        tuples
    }

    #[test]
    fn bp_matches_exhaustive_and_prunes_homogeneous_regions() {
        let tuples = separated_tuples();
        let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let mut ex_stats = SearchStats::default();
        let ex = ExhaustiveSearch
            .find_best(&[(0, ev.clone())], Measure::Entropy, &mut ex_stats)
            .unwrap();
        let mut bp_stats = SearchStats::default();
        let bp = search(false)
            .find_best(&[(0, ev)], Measure::Entropy, &mut bp_stats)
            .unwrap();
        assert!((bp.score - ex.score).abs() < 1e-9);
        // With the two classes fully separated, every interval is empty or
        // homogeneous, so BP's work collapses to the end points.
        assert!(bp_stats.intervals_pruned > 0);
        assert!(bp_stats.entropy_calculations < ex_stats.entropy_calculations);
        assert_eq!(bp_stats.bound_calculations, 0, "BP never computes bounds");
    }

    #[test]
    fn bp_name_matches_the_paper() {
        assert_eq!(search(false).name(), "UDT-BP");
        assert_eq!(search(true).sample_rate(), None);
        assert_eq!(search(false).bounding(), BoundingMode::None);
    }
}
