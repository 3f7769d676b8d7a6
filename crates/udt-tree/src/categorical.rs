//! Uncertain categorical attributes (§7.2).
//!
//! A categorical attribute value is a discrete distribution over the
//! attribute's categories. A node that tests a categorical attribute has
//! one child per category; a tuple is (fractionally) present in bucket `v`
//! with weight `w · f(v)`. As a heuristic the paper notes that a
//! categorical attribute already used on the path from the root need not
//! be reconsidered (it can yield no further information gain), which the
//! builder enforces.
//!
//! Evaluation works over the columnar node representation (tuple indices
//! plus a dense weight vector — see [`crate::columns`]); the node
//! partition itself is [`crate::columns::partition_categorical`].

use crate::counts::ClassCounts;
use crate::fractional::FractionalTuple;
use crate::measure::Measure;

/// The per-category class counts over the columnar node representation:
/// `alive` lists the tuple indices present at the node and `weights`
/// (parallel to `alive`) their current fractional weights. Avoids
/// materialising per-node tuple vectors — and, being sparse, never
/// touches a root-sized array.
pub fn bucket_counts_weighted(
    tuples: &[FractionalTuple<'_>],
    alive: &[u32],
    weights: &[f64],
    attribute: usize,
    cardinality: usize,
    n_classes: usize,
) -> Vec<ClassCounts> {
    let mut buckets = vec![ClassCounts::new(n_classes); cardinality];
    for (&t, &weight) in alive.iter().zip(weights) {
        let tuple = &tuples[t as usize];
        let Some(dist) = tuple.values[attribute].as_categorical() else {
            continue;
        };
        for v in 0..cardinality.min(dist.cardinality()) {
            let w = weight * dist.prob(v);
            if w > 0.0 {
                buckets[v].add(tuple.label, w);
            }
        }
    }
    buckets
}

/// Evaluates the multi-way dispersion score (lower is better) of splitting
/// on categorical attribute `attribute`, over the node's sparse
/// `alive`/`weights` pairs. Returns `None` when the attribute cannot
/// discriminate (fewer than two buckets receive mass).
pub fn evaluate_weighted(
    tuples: &[FractionalTuple<'_>],
    alive: &[u32],
    weights: &[f64],
    attribute: usize,
    cardinality: usize,
    n_classes: usize,
    measure: Measure,
) -> Option<f64> {
    let buckets = bucket_counts_weighted(tuples, alive, weights, attribute, cardinality, n_classes);
    let occupied = buckets.iter().filter(|b| !b.is_empty()).count();
    if occupied < 2 {
        return None;
    }
    Some(measure.multiway_score(&buckets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_data::UncertainValue;
    use udt_prob::DiscreteDist;

    fn cat_tuple(probs: Vec<f64>, label: usize, weight: f64) -> FractionalTuple<'static> {
        FractionalTuple {
            values: vec![UncertainValue::Categorical(
                DiscreteDist::new(probs).unwrap(),
            )]
            .into(),
            label,
            weight,
        }
    }

    /// All tuples alive with their own weights — the root-node view.
    fn node_view(tuples: &[FractionalTuple<'_>]) -> (Vec<u32>, Vec<f64>) {
        (
            (0..tuples.len() as u32).collect(),
            tuples.iter().map(|t| t.weight).collect(),
        )
    }

    #[test]
    fn bucket_counts_accumulate_fractional_weight() {
        let tuples = vec![
            cat_tuple(vec![0.8, 0.2, 0.0], 0, 1.0),
            cat_tuple(vec![0.0, 0.5, 0.5], 1, 1.0),
        ];
        let (alive, weights) = node_view(&tuples);
        let buckets = bucket_counts_weighted(&tuples, &alive, &weights, 0, 3, 2);
        assert!((buckets[0].get(0) - 0.8).abs() < 1e-12);
        assert!((buckets[1].get(0) - 0.2).abs() < 1e-12);
        assert!((buckets[1].get(1) - 0.5).abs() < 1e-12);
        assert!((buckets[2].get(1) - 0.5).abs() < 1e-12);
        // Mass is conserved.
        let total: f64 = buckets.iter().map(ClassCounts::total).sum();
        assert!((total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn node_weights_scale_the_buckets() {
        // The node weight (not the root tuple weight) is what counts.
        let tuples = vec![cat_tuple(vec![0.25, 0.75], 1, 1.0)];
        let buckets = bucket_counts_weighted(&tuples, &[0], &[0.8], 0, 2, 2);
        assert!((buckets[0].get(1) - 0.2).abs() < 1e-12);
        assert!((buckets[1].get(1) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn evaluate_prefers_discriminating_attributes() {
        // Attribute values perfectly aligned with classes.
        let perfect = vec![
            cat_tuple(vec![1.0, 0.0], 0, 1.0),
            cat_tuple(vec![1.0, 0.0], 0, 1.0),
            cat_tuple(vec![0.0, 1.0], 1, 1.0),
            cat_tuple(vec![0.0, 1.0], 1, 1.0),
        ];
        let (alive, weights) = node_view(&perfect);
        let score =
            evaluate_weighted(&perfect, &alive, &weights, 0, 2, 2, Measure::Entropy).unwrap();
        assert!(score.abs() < 1e-12, "perfect split has zero entropy");

        // Attribute values independent of classes.
        let useless = vec![
            cat_tuple(vec![0.5, 0.5], 0, 1.0),
            cat_tuple(vec![0.5, 0.5], 1, 1.0),
        ];
        let (alive, weights) = node_view(&useless);
        let score =
            evaluate_weighted(&useless, &alive, &weights, 0, 2, 2, Measure::Entropy).unwrap();
        assert!(
            (score - 1.0).abs() < 1e-9,
            "uninformative split keeps full entropy"
        );
    }

    #[test]
    fn evaluate_returns_none_when_only_one_bucket_has_mass() {
        let tuples = vec![
            cat_tuple(vec![1.0, 0.0], 0, 1.0),
            cat_tuple(vec![1.0, 0.0], 1, 1.0),
        ];
        let (alive, weights) = node_view(&tuples);
        assert!(evaluate_weighted(&tuples, &alive, &weights, 0, 2, 2, Measure::Entropy).is_none());
        // Numeric values are ignored entirely.
        let numeric = vec![FractionalTuple {
            values: vec![UncertainValue::point(1.0)].into(),
            label: 0,
            weight: 1.0,
        }];
        let (alive, weights) = node_view(&numeric);
        assert!(evaluate_weighted(&numeric, &alive, &weights, 0, 2, 2, Measure::Entropy).is_none());
    }

    #[test]
    fn evaluate_works_for_all_measures() {
        let tuples = vec![
            cat_tuple(vec![0.9, 0.1], 0, 1.0),
            cat_tuple(vec![0.2, 0.8], 1, 1.0),
            cat_tuple(vec![0.7, 0.3], 0, 1.0),
        ];
        let (alive, weights) = node_view(&tuples);
        for m in [Measure::Entropy, Measure::Gini, Measure::GainRatio] {
            let score = evaluate_weighted(&tuples, &alive, &weights, 0, 2, 2, m).unwrap();
            assert!(score.is_finite(), "{m:?}");
        }
    }
}
