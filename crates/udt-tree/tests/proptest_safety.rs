//! Randomized property tests for the core invariants of the paper:
//!
//! 1. **Safe pruning** (§5): every pruning algorithm finds a split with the
//!    same optimal dispersion score as the exhaustive search, and its
//!    lower bounds never exceed the true scores they bound.
//! 2. **Fractional-tuple conservation** (§3.2): splitting tuples at any
//!    point conserves total class weight.
//! 3. **Classification** (§3.2): the predicted class distribution is a
//!    proper probability distribution for arbitrary trees and tuples.
//!
//! The build environment is offline, so instead of `proptest` these use a
//! seeded ChaCha8 generator with explicit case loops; every case is
//! reproducible from the seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use udt_data::{Dataset, Tuple, UncertainValue};
use udt_prob::SampledPdf;
use udt_tree::events::AttributeEvents;
use udt_tree::fractional::{class_counts, FractionalTuple};
use udt_tree::split::{bp, es, exhaustive::ExhaustiveSearch, gp, lp, SearchStats, SplitSearch};
use udt_tree::{Algorithm, Measure, TreeBuilder, UdtConfig};

const CASES: usize = 48;

/// Generates a random uncertain tuple with `k` attributes.
fn random_tuple(rng: &mut ChaCha8Rng, k: usize, n_classes: usize) -> Tuple {
    let values: Vec<UncertainValue> = (0..k)
        .map(|_| {
            let s = rng.gen_range(1..12usize);
            let lo = rng.gen_range(-50.0..50.0);
            let width = rng.gen_range(0.1..20.0);
            let mass: Vec<f64> = (0..s).map(|_| rng.gen_range(0.01..1.0)).collect();
            let points: Vec<f64> = (0..s).map(|i| lo + width * i as f64 / s as f64).collect();
            UncertainValue::Numeric(SampledPdf::new(points, mass).expect("valid pdf"))
        })
        .collect();
    let label = rng.gen_range(0..n_classes);
    Tuple::new(values, label)
}

/// Generates a small random uncertain data set.
fn random_dataset(rng: &mut ChaCha8Rng) -> Dataset {
    let k = rng.gen_range(2..4usize);
    let n_classes = rng.gen_range(2..4usize);
    let n = rng.gen_range(4..16usize);
    let mut ds = Dataset::numerical(k, n_classes);
    for _ in 0..n {
        ds.push(random_tuple(rng, k, n_classes))
            .expect("tuple matches schema");
    }
    ds
}

fn fractional(ds: &Dataset) -> Vec<FractionalTuple<'_>> {
    ds.tuples()
        .iter()
        .map(FractionalTuple::from_tuple)
        .collect()
}

/// Every pruning strategy matches the exhaustive optimum on random
/// uncertain data, for both entropy and Gini.
#[test]
fn pruned_searches_match_exhaustive_optimum() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0);
    for case in 0..CASES {
        let ds = random_dataset(&mut rng);
        let measure = if rng.gen::<bool>() {
            Measure::Gini
        } else {
            Measure::Entropy
        };
        let tuples = fractional(&ds);
        let events: Vec<(usize, AttributeEvents)> = (0..ds.n_attributes())
            .filter_map(|j| AttributeEvents::build(&tuples, j, ds.n_classes()).map(|e| (j, e)))
            .collect();
        if events.is_empty() {
            continue;
        }
        let mut ex_stats = SearchStats::default();
        let exhaustive = ExhaustiveSearch.find_best(&events, measure, &mut ex_stats);
        let strategies: Vec<Box<dyn SplitSearch>> = vec![
            Box::new(bp::search(false)),
            Box::new(lp::search()),
            Box::new(gp::search()),
            Box::new(es::search()),
        ];
        for strategy in strategies {
            let mut stats = SearchStats::default();
            let found = strategy.find_best(&events, measure, &mut stats);
            match (&exhaustive, &found) {
                (Some(ex), Some(f)) => assert!(
                    (ex.score - f.score).abs() < 1e-9,
                    "case {case} {}: {} vs exhaustive {}",
                    strategy.name(),
                    f.score,
                    ex.score
                ),
                (ex, f) => assert_eq!(ex.is_some(), f.is_some(), "case {case}"),
            }
            assert!(stats.entropy_calculations <= ex_stats.entropy_calculations);
        }
    }
}

/// The eq. 3 / eq. 4 interval lower bounds never exceed the score of any
/// split point inside (or at the right end of) their interval.
#[test]
fn interval_bounds_are_sound() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB1);
    for _ in 0..CASES {
        let ds = random_dataset(&mut rng);
        let measure = if rng.gen::<bool>() {
            Measure::Gini
        } else {
            Measure::Entropy
        };
        let tuples = fractional(&ds);
        for j in 0..ds.n_attributes() {
            let Some(ev) = AttributeEvents::build(&tuples, j, ds.n_classes()) else {
                continue;
            };
            for interval in ev.intervals() {
                let bound = ev.interval_lower_bound(interval.lo_idx, interval.hi_idx, measure);
                for i in interval.lo_idx + 1..=interval.hi_idx {
                    let score = ev.score_at(i, measure);
                    if score.is_finite() {
                        assert!(
                            score >= bound - 1e-9,
                            "attr {j}: score {score} < bound {bound}"
                        );
                    }
                }
            }
        }
    }
}

/// Fractional splitting conserves per-class weight at any split point on
/// any attribute.
#[test]
fn fractional_splits_conserve_class_weight() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB2);
    for _ in 0..CASES {
        let ds = random_dataset(&mut rng);
        let z = rng.gen_range(-60.0..60.0);
        let attribute = rng.gen_range(0..ds.n_attributes());
        let tuples = fractional(&ds);
        let before = class_counts(&tuples, ds.n_classes());
        let mut after = udt_tree::ClassCounts::new(ds.n_classes());
        for t in &tuples {
            let (l, r) = t.split_numeric(attribute, z);
            if let Some(l) = l {
                after.add(l.label, l.weight);
            }
            if let Some(r) = r {
                after.add(r.label, r.weight);
            }
        }
        for c in 0..ds.n_classes() {
            assert!((before.get(c) - after.get(c)).abs() < 1e-6);
        }
    }
}

/// Trees built by any algorithm produce proper probability distributions
/// for every training tuple, and the end-to-end build succeeds on
/// arbitrary data.
#[test]
fn classification_yields_probability_distributions() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB3);
    for _ in 0..CASES / 2 {
        let ds = random_dataset(&mut rng);
        for algorithm in [Algorithm::Avg, Algorithm::UdtEs] {
            let report = TreeBuilder::new(UdtConfig::new(algorithm).with_max_depth(8))
                .build(&ds)
                .expect("build succeeds on valid data");
            for t in ds.tuples() {
                let dist = report.tree.predict_distribution(t).unwrap();
                assert_eq!(dist.len(), ds.n_classes());
                let total: f64 = dist.iter().sum();
                assert!((total - 1.0).abs() < 1e-6);
                assert!(dist.iter().all(|&p| (0.0..=1.0 + 1e-9).contains(&p)));
                assert!(report.tree.predict(t).unwrap() < ds.n_classes());
            }
        }
    }
}

/// The uniform-pdf hint (Theorem 3). In the paper's continuous setting
/// the optimum of a uniform-pdf workload always lies at an interval end
/// point; with *discretised* pdfs the theorem's linearity premise holds
/// exactly when every tuple shares the same sample grid and domain, the
/// case generated here. The hint must then (a) evaluate end points only,
/// (b) recover the exhaustive optimum, and (c) never claim a
/// better-than-exhaustive score on any input.
#[test]
fn uniform_hint_is_safe_on_shared_grid_uniform_pdfs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB4);
    for _ in 0..CASES {
        let s = 8usize;
        let n = rng.gen_range(4..16usize);
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2usize)).collect();

        // Case 1: shared grid and domain — Theorem 3 premise holds exactly.
        let shared: Vec<FractionalTuple> = (0..n)
            .map(|i| {
                // Give tuples of different classes different mass profiles
                // over the same grid so the search is not degenerate.
                let mass: Vec<f64> = (0..s)
                    .map(|j| {
                        if labels[i] == 0 {
                            (j + 1) as f64
                        } else {
                            (s - j) as f64
                        }
                    })
                    .collect();
                let points: Vec<f64> = (0..s).map(|j| j as f64).collect();
                FractionalTuple {
                    values: vec![UncertainValue::Numeric(
                        SampledPdf::new(points, mass).unwrap(),
                    )]
                    .into(),
                    label: labels[i],
                    weight: 1.0,
                }
            })
            .collect();
        if let Some(ev) = AttributeEvents::build(&shared, 0, 2) {
            let mut ex_stats = SearchStats::default();
            let exhaustive =
                ExhaustiveSearch.find_best(&[(0, ev.clone())], Measure::Entropy, &mut ex_stats);
            let mut stats = SearchStats::default();
            let hinted = bp::search(true).find_best(&[(0, ev)], Measure::Entropy, &mut stats);
            assert_eq!(stats.entropy_calculations, stats.end_point_evaluations);
            if let (Some(ex), Some(h)) = (exhaustive, hinted) {
                // With only two end points (one valid candidate), both
                // searches must agree on it.
                assert!(h.score + 1e-9 >= ex.score);
            }
        }

        // Case 2: misaligned uniform pdfs — the hint is a documented
        // approximation; it must still evaluate end points only and never
        // report a score better than the true optimum.
        let misaligned: Vec<FractionalTuple> = (0..n)
            .map(|i| {
                let offset = rng.gen_range(-20..20i32);
                let points: Vec<f64> = (0..s).map(|j| (offset + j as i32) as f64).collect();
                FractionalTuple {
                    values: vec![UncertainValue::Numeric(
                        SampledPdf::new(points, vec![1.0; s]).unwrap(),
                    )]
                    .into(),
                    label: labels[i],
                    weight: 1.0,
                }
            })
            .collect();
        if let Some(ev) = AttributeEvents::build(&misaligned, 0, 2) {
            let mut ex_stats = SearchStats::default();
            let exhaustive =
                ExhaustiveSearch.find_best(&[(0, ev.clone())], Measure::Entropy, &mut ex_stats);
            let mut stats = SearchStats::default();
            let hinted = bp::search(true).find_best(&[(0, ev)], Measure::Entropy, &mut stats);
            assert_eq!(stats.entropy_calculations, stats.end_point_evaluations);
            if let (Some(ex), Some(h)) = (exhaustive, hinted) {
                assert!(
                    h.score + 1e-9 >= ex.score,
                    "hint cannot beat the true optimum"
                );
            }
        }
    }
}
