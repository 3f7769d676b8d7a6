//! Regression tests pinning the columnar split engine to the checked-in
//! naive baseline (`udt_tree::baseline`), which preserves the
//! pre-columnar implementation: one owned `ClassCounts` per candidate
//! position and clone-and-subtract scoring.
//!
//! The columnar engine was engineered to perform the *same arithmetic in
//! the same order* as the baseline, so scores must agree bit for bit —
//! first on the paper's Table 1 worked example, then on randomized
//! uncertain datasets.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use udt_data::{toy, UncertainValue};
use udt_prob::SampledPdf;
use udt_tree::baseline::{naive_find_best, NaiveAttributeEvents};
use udt_tree::events::AttributeEvents;
use udt_tree::fractional::FractionalTuple;
use udt_tree::split::{bp, es, exhaustive::ExhaustiveSearch, gp, lp, SearchStats, SplitSearch};
use udt_tree::Measure;

fn fractional_tuples(data: &udt_data::Dataset) -> Vec<FractionalTuple<'_>> {
    data.tuples()
        .iter()
        .map(FractionalTuple::from_tuple)
        .collect()
}

#[test]
fn columnar_scores_match_naive_bit_for_bit_on_table1() {
    let data = toy::table1_dataset().unwrap();
    let tuples = fractional_tuples(&data);
    let n_classes = data.n_classes();
    for attribute in 0..data.n_attributes() {
        let naive = NaiveAttributeEvents::build(&tuples, attribute, n_classes)
            .expect("Table 1 attributes are splittable");
        let columnar = AttributeEvents::build(&tuples, attribute, n_classes)
            .expect("Table 1 attributes are splittable");
        assert_eq!(naive.xs(), columnar.xs(), "attribute {attribute} positions");
        for measure in [Measure::Entropy, Measure::Gini, Measure::GainRatio] {
            for i in 0..naive.n_positions() {
                let reference = naive.score_at(i, measure);
                let got = columnar.score_at(i, measure);
                assert_eq!(
                    got.to_bits(),
                    reference.to_bits(),
                    "attribute {attribute}, {measure:?}, position {i}: \
                     columnar {got} vs naive {reference}"
                );
            }
        }
    }
}

#[test]
fn columnar_scores_match_naive_bit_for_bit_on_random_data() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0);
    for case in 0..32 {
        let k = rng.gen_range(1..3usize);
        let n_classes = rng.gen_range(2..4usize);
        let n = rng.gen_range(3..12usize);
        let mut ds = udt_data::Dataset::numerical(k, n_classes);
        for _ in 0..n {
            let values: Vec<udt_data::UncertainValue> = (0..k)
                .map(|_| {
                    let s = rng.gen_range(1..10usize);
                    let lo = rng.gen_range(-20.0..20.0);
                    let step = rng.gen_range(0.05..2.0);
                    let points: Vec<f64> = (0..s).map(|i| lo + step * i as f64).collect();
                    let mass: Vec<f64> = (0..s).map(|_| rng.gen_range(0.01..1.0)).collect();
                    udt_data::UncertainValue::Numeric(
                        udt_prob::SampledPdf::new(points, mass).unwrap(),
                    )
                })
                .collect();
            let label = rng.gen_range(0..n_classes);
            ds.push(udt_data::Tuple::new(values, label)).unwrap();
        }
        let tuples = fractional_tuples(&ds);
        for attribute in 0..k {
            let (Some(naive), Some(columnar)) = (
                NaiveAttributeEvents::build(&tuples, attribute, n_classes),
                AttributeEvents::build(&tuples, attribute, n_classes),
            ) else {
                continue;
            };
            assert_eq!(naive.xs(), columnar.xs(), "case {case}");
            for measure in [Measure::Entropy, Measure::Gini] {
                for i in 0..naive.n_positions() {
                    assert_eq!(
                        columnar.score_at(i, measure).to_bits(),
                        naive.score_at(i, measure).to_bits(),
                        "case {case}, attribute {attribute}, {measure:?}, position {i}"
                    );
                }
            }
        }
    }
}

/// Regression for a safe-pruning hole: when a pdf's *boundary* sample
/// point carries denormal mass, the WEIGHT_EPSILON gate drops the
/// boundary event, the end point cannot be mapped to a surviving
/// position, and — without the extreme-end-point pinning in
/// `from_sorted_events` — the candidates before the first / after the
/// last surviving end point fell outside every interval, so the pruned
/// searches never evaluated them and could return a worse-than-optimal
/// score.
#[test]
fn denormal_boundary_end_points_do_not_break_safe_pruning() {
    let tuples = vec![
        FractionalTuple {
            values: vec![UncertainValue::Numeric(
                SampledPdf::new(vec![0.0, 5.0, 10.0], vec![1e-12, 0.5, 0.5]).unwrap(),
            )]
            .into(),
            label: 0,
            weight: 1.0,
        },
        FractionalTuple {
            values: vec![UncertainValue::Numeric(
                SampledPdf::new(vec![6.0, 10.0], vec![0.5, 0.5]).unwrap(),
            )]
            .into(),
            label: 1,
            weight: 1.0,
        },
    ];
    let ev = AttributeEvents::build(&tuples, 0, 2).unwrap();
    // The denormal position 0.0 must not survive as a candidate...
    assert_eq!(ev.xs(), &[5.0, 6.0, 10.0]);
    // ...but the interval decomposition must still cover every candidate.
    assert_eq!(ev.end_point_indices().first(), Some(&0));
    assert_eq!(ev.end_point_indices().last(), Some(&2));
    let mut ex_stats = SearchStats::default();
    let exhaustive = ExhaustiveSearch
        .find_best(&[(0, ev.clone())], Measure::Entropy, &mut ex_stats)
        .unwrap();
    let strategies: Vec<Box<dyn SplitSearch>> = vec![
        Box::new(bp::search(false)),
        Box::new(lp::search()),
        Box::new(gp::search()),
        Box::new(es::search()),
    ];
    for strategy in strategies {
        let mut stats = SearchStats::default();
        let found = strategy
            .find_best(&[(0, ev.clone())], Measure::Entropy, &mut stats)
            .unwrap();
        assert!(
            (found.score - exhaustive.score).abs() < 1e-9,
            "{}: {} vs exhaustive {}",
            strategy.name(),
            found.score,
            exhaustive.score
        );
    }
}

#[test]
fn exhaustive_search_and_naive_search_pick_identical_splits() {
    let data = toy::table1_dataset().unwrap();
    let tuples = fractional_tuples(&data);
    let n_classes = data.n_classes();
    let columnar_events: Vec<(usize, AttributeEvents)> = (0..data.n_attributes())
        .filter_map(|j| AttributeEvents::build(&tuples, j, n_classes).map(|e| (j, e)))
        .collect();
    let naive_events: Vec<(usize, NaiveAttributeEvents)> = (0..data.n_attributes())
        .filter_map(|j| NaiveAttributeEvents::build(&tuples, j, n_classes).map(|e| (j, e)))
        .collect();
    for measure in [Measure::Entropy, Measure::Gini] {
        let mut stats = SearchStats::default();
        let columnar = ExhaustiveSearch
            .find_best(&columnar_events, measure, &mut stats)
            .unwrap();
        let naive = naive_find_best(&naive_events, measure).unwrap();
        assert_eq!(columnar.attribute, naive.attribute, "{measure:?}");
        assert_eq!(
            columnar.split.to_bits(),
            naive.split.to_bits(),
            "{measure:?}"
        );
        assert_eq!(
            columnar.score.to_bits(),
            naive.score.to_bits(),
            "{measure:?}"
        );
    }
}
