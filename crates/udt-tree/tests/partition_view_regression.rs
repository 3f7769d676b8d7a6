//! Regression tests for the columnar build engine on mixed schemas
//! (numerical pdf attributes plus, sometimes, a categorical attribute):
//! arenas are pinned to golden fingerprints, and the engine stays pinned
//! to the checked-in naive baseline (bit-for-bit root scores, identical
//! split structure).
//!
//! The build environment is offline, so instead of `proptest` these use
//! a seeded ChaCha8 generator with explicit case loops; every case is
//! reproducible from the seed. CI additionally runs the whole file
//! under `UDT_THREADS={1,4}`, where the forked subtree jobs are drained
//! inline and by real pool workers respectively (the thread-count
//! matrix itself is pinned by `pool_determinism.rs`).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use udt_data::{Attribute, Dataset, Schema, Tuple, UncertainValue};
use udt_prob::{DiscreteDist, SampledPdf};
use udt_tree::baseline::{naive_build_splits, NaiveAttributeEvents, NaiveSearch};
use udt_tree::events::AttributeEvents;
use udt_tree::fractional::FractionalTuple;
use udt_tree::{persist, Algorithm, Measure, TreeBuilder, UdtConfig};

const CASES: usize = 24;

/// `persist::crc32` of `persist::to_json` for each seeded mixed-schema
/// case (seed `0x51EA`, ten of the 24 with a categorical attribute).
/// UDT and UDT-ES land on the same arena in every case — the pruning is
/// safe — so one fingerprint covers both, sequential and forked alike.
/// Captured while owned and view partitioning still agreed bit for bit.
const GOLDEN_FINGERPRINTS: [u32; CASES] = [
    0x2e3e1b25, 0xfcb7450a, 0x55630de8, 0x2c7bfe75, 0x3114dd64, 0xefaae10e, 0x46f08654, 0x7a2cae6b,
    0xa2fd5fb0, 0x89df1fd6, 0x88261510, 0x59ebee09, 0x4ed05d29, 0xcdb86daf, 0xada66609, 0x2a85245f,
    0x2a584dc3, 0x31d575d8, 0xb557b3d4, 0x933ceea9, 0x79ca1029, 0xb48d700f, 0x05f608a8, 0x01e0a701,
];

/// A random mixed-schema dataset: numerical pdf attributes plus
/// (sometimes) a categorical attribute.
fn random_mixed_dataset(rng: &mut ChaCha8Rng) -> Dataset {
    let n_numeric = rng.gen_range(1..4usize);
    let with_categorical = rng.gen_bool(0.5);
    let cardinality = rng.gen_range(2..4usize);
    let n_classes = rng.gen_range(2..4usize);
    let n = rng.gen_range(6..24usize);

    let mut attributes: Vec<Attribute> = (0..n_numeric)
        .map(|j| Attribute::numerical(format!("x{j}")))
        .collect();
    if with_categorical {
        attributes.push(Attribute::categorical("c", cardinality));
    }
    let schema = Schema::new(attributes);
    let class_names: Vec<String> = (0..n_classes).map(|c| format!("class{c}")).collect();
    let mut ds = Dataset::new(schema, class_names);

    for _ in 0..n {
        let mut values: Vec<UncertainValue> = (0..n_numeric)
            .map(|_| {
                let s = rng.gen_range(1..8usize);
                let lo = rng.gen_range(-30.0..30.0);
                let step = rng.gen_range(0.05..3.0);
                let points: Vec<f64> = (0..s).map(|i| lo + step * i as f64).collect();
                let mass: Vec<f64> = (0..s).map(|_| rng.gen_range(0.01..1.0)).collect();
                UncertainValue::Numeric(SampledPdf::new(points, mass).expect("valid pdf"))
            })
            .collect();
        if with_categorical {
            let mut probs: Vec<f64> = (0..cardinality).map(|_| rng.gen_range(0.0..1.0)).collect();
            let total: f64 = probs.iter().sum();
            if total <= 0.0 {
                probs[0] = 1.0;
            }
            values.push(UncertainValue::Categorical(
                DiscreteDist::new(probs).expect("valid distribution"),
            ));
        }
        let label = rng.gen_range(0..n_classes);
        ds.push(Tuple::new(values, label))
            .expect("tuple fits schema");
    }
    ds
}

fn build(data: &Dataset, algorithm: Algorithm, parallel: bool) -> udt_tree::BuildReport {
    let mut config = UdtConfig::new(algorithm)
        .with_postprune(false)
        .with_parallel_subtrees(parallel);
    if parallel {
        // Force real subtree jobs even on tiny trees.
        config = config
            .with_parallel_cutoff_depth(2)
            .with_parallel_min_fork_tuples(1);
    }
    TreeBuilder::new(config)
        .build(data)
        .expect("build succeeds")
}

/// The only reference for datasets with a categorical attribute: the
/// naive baseline has no categorical path.
#[test]
fn mixed_schema_builds_match_golden_arena_fingerprints() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x51EA);
    for (case, &golden) in GOLDEN_FINGERPRINTS.iter().enumerate() {
        let data = random_mixed_dataset(&mut rng);
        for algorithm in [Algorithm::Udt, Algorithm::UdtEs] {
            for parallel in [false, true] {
                let tree = build(&data, algorithm, parallel).tree;
                let json = persist::to_json(&tree).expect("tree serialises");
                assert_eq!(
                    persist::crc32(json.as_bytes()),
                    golden,
                    "case {case}, {algorithm:?}, parallel {parallel}: arena fingerprint"
                );
            }
        }
    }
}

#[test]
fn both_modes_stay_pinned_to_the_naive_baseline() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBA5E);
    for case in 0..CASES {
        let data = random_mixed_dataset(&mut rng);
        let tuples: Vec<FractionalTuple> = data
            .tuples()
            .iter()
            .map(FractionalTuple::from_tuple)
            .collect();
        let n_classes = data.n_classes();

        // Root-level candidate scores are bit-for-bit equal to the
        // pre-columnar baseline for every numerical attribute.
        for attribute in data.schema().numerical_indices() {
            let (Some(naive), Some(columnar)) = (
                NaiveAttributeEvents::build(&tuples, attribute, n_classes),
                AttributeEvents::build(&tuples, attribute, n_classes),
            ) else {
                continue;
            };
            assert_eq!(naive.xs(), columnar.xs(), "case {case}");
            for i in 0..naive.n_positions() {
                assert_eq!(
                    columnar.score_at(i, Measure::Entropy).to_bits(),
                    naive.score_at(i, Measure::Entropy).to_bits(),
                    "case {case}, attribute {attribute}, position {i}"
                );
            }
        }

        // On purely numerical datasets the full build makes the same
        // split decisions as the naive recursive engine, in both build
        // modes: plain recursion and the forked work queue. (The naive
        // baseline has no categorical path, so mixed datasets are covered
        // by the golden arena fingerprints instead.)
        if data.schema().categorical_indices().is_empty() {
            let naive_splits = naive_build_splits(
                &data,
                Measure::Entropy,
                NaiveSearch::Exhaustive,
                25,
                2.0,
                1e-6,
            );
            for parallel in [false, true] {
                let report = build(&data, Algorithm::Udt, parallel);
                let splits = report.tree.size() - report.tree.n_leaves();
                assert_eq!(splits, naive_splits, "case {case}, parallel {parallel}");
            }
        }
    }
}
