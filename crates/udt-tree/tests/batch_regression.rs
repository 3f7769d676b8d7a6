//! Bit-for-bit regression contract of the classification walk:
//!
//! 1. `classify_batch` (explicit-stack arena walk, scratch reuse,
//!    one-sided fast paths) and `predict_distribution` (the same walk
//!    over a one-tuple slice with a fresh scratch) ≡ [`oracle`], a plain
//!    recursion over the arena that materialises every restricted pdf,
//!    to the last ulp, on trained trees over realistic uncertain data and
//!    on hand-built numeric and categorical trees;
//! 2. the work-queue (parallel) build produces the same arena as the
//!    sequential recursion on the same data, so the whole
//!    train → prune → serve pipeline is deterministic across modes.

use udt_data::repository::by_name;
use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
use udt_data::{toy, Tuple, UncertainValue};
use udt_prob::{DiscreteDist, ErrorModel, SampledPdf};
use udt_tree::classify::{classify_batch, BatchScratch};
use udt_tree::counts::WEIGHT_EPSILON;
use udt_tree::{Algorithm, ClassCounts, DecisionTree, FlatTree, NodeKind, TreeBuilder, UdtConfig};

/// The recursive reference classifier (§3.2): the tuple enters the root
/// with weight 1 and is divided fractionally at every split, each
/// fraction carrying the tested attribute's pdf restricted to its side
/// in `overrides`. A missing value (or one of the wrong kind) divides
/// the weight by the training mass of the children.
fn oracle(tree: &DecisionTree, tuple: &Tuple) -> Vec<f64> {
    let mut acc = vec![0.0; tree.n_classes()];
    let mut overrides: Vec<Option<SampledPdf>> = vec![None; tuple.arity()];
    descend(
        tree.flat(),
        FlatTree::ROOT,
        tuple,
        &mut overrides,
        1.0,
        &mut acc,
    );
    let total: f64 = acc.iter().sum();
    if total > WEIGHT_EPSILON {
        for p in &mut acc {
            *p /= total;
        }
    } else {
        acc = vec![1.0 / acc.len() as f64; acc.len()];
    }
    acc
}

fn descend(
    flat: &FlatTree,
    node: usize,
    tuple: &Tuple,
    overrides: &mut Vec<Option<SampledPdf>>,
    weight: f64,
    acc: &mut [f64],
) {
    if weight <= WEIGHT_EPSILON {
        return;
    }
    let attribute = flat.attribute(node);
    let value = (attribute < tuple.arity()).then(|| tuple.value(attribute));
    match flat.kind(node) {
        NodeKind::Leaf => {
            for (c, p) in flat.distribution_of(node).iter().enumerate() {
                acc[c] += weight * p;
            }
        }
        NodeKind::Split => {
            let (left, right) = (flat.child(node, 0), flat.child(node, 1));
            let pdf = value.and_then(|v| {
                overrides[attribute]
                    .clone()
                    .or_else(|| v.as_numeric().cloned())
            });
            let Some(pdf) = pdf else {
                let (left_w, right_w) = (flat.total_of(left), flat.total_of(right));
                let denom = (left_w + right_w)
                    .max(flat.total_of(node))
                    .max(WEIGHT_EPSILON);
                descend(flat, left, tuple, overrides, weight * left_w / denom, acc);
                descend(flat, right, tuple, overrides, weight * right_w / denom, acc);
                return;
            };
            let (p_left, left_pdf, right_pdf) = pdf.split_at(flat.split_point(node));
            for (child, p, restricted) in
                [(left, p_left, left_pdf), (right, 1.0 - p_left, right_pdf)]
            {
                if p > WEIGHT_EPSILON {
                    let saved = std::mem::replace(&mut overrides[attribute], restricted);
                    descend(flat, child, tuple, overrides, weight * p, acc);
                    overrides[attribute] = saved;
                }
            }
        }
        NodeKind::CategoricalSplit => {
            let children = flat.children_of(node);
            let shares: Vec<f64> = match value.and_then(UncertainValue::as_categorical) {
                Some(d) => (0..children.len()).map(|v| d.prob(v)).collect(),
                None => {
                    let total = children
                        .iter()
                        .map(|&c| flat.total_of(c as usize))
                        .sum::<f64>()
                        .max(flat.total_of(node))
                        .max(WEIGHT_EPSILON);
                    children
                        .iter()
                        .map(|&c| flat.total_of(c as usize) / total)
                        .collect()
                }
            };
            for (&child, share) in children.iter().zip(shares) {
                if share > WEIGHT_EPSILON {
                    descend(flat, child as usize, tuple, overrides, weight * share, acc);
                }
            }
        }
    }
}

/// Asserts that `classify_batch` (one shared scratch), the per-call
/// `predict_distribution` and the oracle agree to the last bit.
fn assert_matches_oracle(tree: &DecisionTree, tuples: &[Tuple], context: &str) {
    let k = tree.n_classes();
    let mut scratch = BatchScratch::new();
    let batch = classify_batch(tree, tuples, &mut scratch).unwrap();
    assert_eq!(batch.len(), tuples.len() * k);
    for (i, t) in tuples.iter().enumerate() {
        let single = tree.predict_distribution(t).unwrap();
        let reference = oracle(tree, t);
        let row = &batch[i * k..(i + 1) * k];
        for c in 0..k {
            assert_eq!(
                row[c].to_bits(),
                single[c].to_bits(),
                "batch vs single: tuple {i} class {c} ({context})"
            );
            assert_eq!(
                single[c].to_bits(),
                reference[c].to_bits(),
                "single vs oracle: tuple {i} class {c} ({context})"
            );
        }
    }
}

fn uncertain_iris(s: usize) -> udt_data::Dataset {
    let point = by_name("Iris").unwrap().generate(0.4).unwrap();
    inject_uncertainty(
        &point,
        &UncertaintySpec {
            w: 0.10,
            s,
            model: ErrorModel::Gaussian,
        },
    )
    .unwrap()
}

#[test]
fn batch_recursive_and_boxed_classification_agree_bit_for_bit() {
    // The "boxed" reference of this test's name is now `oracle`, a
    // recursion over the arena.
    let data = uncertain_iris(24);
    let averaged = data.to_averaged();
    for postprune in [false, true] {
        let tree = TreeBuilder::new(UdtConfig::new(Algorithm::UdtEs).with_postprune(postprune))
            .build(&data)
            .unwrap()
            .tree;
        for (tuples, kind) in [(data.tuples(), "uncertain"), (averaged.tuples(), "point")] {
            assert_matches_oracle(&tree, tuples, &format!("{kind}, postprune {postprune}"));
        }
    }
}

#[test]
fn hand_built_trees_match_the_recursive_oracle_bit_for_bit() {
    let names = vec!["A".to_string(), "B".to_string()];
    // The two-level tree of the paper's Fig. 1: root split at −1, right
    // child split at +1, so the Fig. 1 tuple's right fraction is
    // restricted and split again on the same attribute.
    let mut flat = FlatTree::new(2);
    let root = flat.push_split(0, -1.0, &ClassCounts::from_vec(vec![2.0, 2.0]));
    let left = flat.push_leaf_raw(&[0.2, 0.8], &[0.2, 0.8]);
    flat.set_child(root, 0, left);
    let right = flat.push_split(0, 1.0, &ClassCounts::from_vec(vec![1.0, 1.0]));
    flat.set_child(root, 1, right);
    for (slot, leaf) in [[0.8, 0.2], [0.3, 0.7]].iter().enumerate() {
        let id = flat.push_leaf_raw(leaf, leaf);
        flat.set_child(right, slot, id);
    }
    let fig1 = DecisionTree::from_flat(flat, 1, names.clone());
    let numeric_tuples = [
        toy::fig1_test_tuple().unwrap(),
        Tuple::from_points(&[-2.0], 0),
        Tuple::from_points(&[0.5], 0),
        Tuple::from_points(&[1.5], 0),
        Tuple::new(vec![UncertainValue::category(1, 3)], 0),
        Tuple::new(vec![], 0),
    ];
    assert_matches_oracle(&fig1, &numeric_tuples, "Fig. 1 tree");

    // A categorical root over three categories, one of them a numeric
    // subtree; leaf rows need not be normalised.
    let mut flat = FlatTree::new(2);
    let root = flat.push_categorical(0, 3, &ClassCounts::from_vec(vec![2.0, 2.0]));
    let inner = flat.push_split(1, 0.0, &ClassCounts::from_vec(vec![1.0, 0.5]));
    flat.set_child(root, 0, inner);
    for (slot, leaf) in [[1.0, 0.0], [0.0, 0.5]].iter().enumerate() {
        let id = flat.push_leaf_raw(leaf, leaf);
        flat.set_child(inner, slot, id);
    }
    for (slot, leaf) in [[0.5, 1.0], [0.5, 0.5]].iter().enumerate() {
        let id = flat.push_leaf_raw(leaf, leaf);
        flat.set_child(root, slot + 1, id);
    }
    let categorical = DecisionTree::from_flat(flat, 2, names);
    let colour = |probs: Vec<f64>, x: f64| {
        Tuple::new(
            vec![
                UncertainValue::Categorical(DiscreteDist::new(probs).unwrap()),
                UncertainValue::point(x),
            ],
            0,
        )
    };
    let categorical_tuples = [
        colour(vec![0.2, 0.5, 0.3], -1.0),
        colour(vec![0.6, 0.1, 0.3], 1.0),
        colour(vec![0.0, 1.0, 0.0], 0.0),
        Tuple::from_points(&[5.0, 0.0], 0),
        Tuple::new(vec![], 1),
    ];
    assert_matches_oracle(&categorical, &categorical_tuples, "categorical tree");
}

#[test]
fn parallel_and_sequential_pipelines_serve_identical_distributions() {
    let data = uncertain_iris(16);
    let sequential =
        TreeBuilder::new(UdtConfig::new(Algorithm::UdtGp).with_parallel_cutoff_depth(usize::MAX))
            .build(&data)
            .unwrap()
            .tree;
    let parallel = TreeBuilder::new(
        UdtConfig::new(Algorithm::UdtGp)
            .with_parallel_cutoff_depth(2)
            .with_parallel_min_fork_tuples(1),
    )
    .build(&data)
    .unwrap()
    .tree;
    assert_eq!(parallel.flat(), sequential.flat(), "post-pruned arenas");
    let mut scratch = BatchScratch::new();
    let a = classify_batch(&sequential, data.tuples(), &mut scratch).unwrap();
    let b = classify_batch(&parallel, data.tuples(), &mut scratch).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
