//! Integration test reproducing the paper's worked example (Table 1,
//! Figs. 1–3): Averaging cannot separate the six example tuples, the
//! distribution-based tree classifies them all correctly, and the
//! classification of an uncertain test tuple is a proper distribution that
//! splits 30 / 70 at the root.

use udt_data::toy;
use udt_eval::accuracy::evaluate;
use udt_tree::{Algorithm, FlatTree, NodeKind, TreeBuilder, UdtConfig};

fn build(algorithm: Algorithm) -> udt_tree::BuildReport {
    TreeBuilder::new(
        UdtConfig::new(algorithm)
            .with_postprune(false)
            .with_min_node_weight(0.0),
    )
    .build(&toy::table1_dataset().expect("example data"))
    .expect("build succeeds")
}

#[test]
fn averaging_is_stuck_at_two_thirds_accuracy() {
    // §4.1: with every mean equal to ±2 there is only one way to partition
    // the six tuples, and at least two of them are misclassified.
    let data = toy::table1_dataset().unwrap();
    let report = build(Algorithm::Avg);
    let result = evaluate(&report.tree, &data);
    assert!(result.accuracy() <= 2.0 / 3.0 + 1e-9);
    // The Averaging tree is the stump of Fig. 2a: a root with two leaves.
    assert!(report.tree.size() <= 3);
}

#[test]
fn distribution_based_tree_classifies_every_example_tuple() {
    // §4.2: using the full pdfs, all six training tuples are classified
    // correctly (the Fig. 3 tree before post-pruning).
    let data = toy::table1_dataset().unwrap();
    for algorithm in [Algorithm::Udt, Algorithm::UdtEs] {
        let report = build(algorithm);
        let result = evaluate(&report.tree, &data);
        assert_eq!(result.accuracy(), 1.0, "{algorithm:?}");
        assert!(
            report.tree.size() > 3,
            "{algorithm:?} uses more than a stump"
        );
    }
}

#[test]
fn every_leaf_distribution_is_normalised() {
    let report = build(Algorithm::Udt);
    let flat = report.tree.flat();
    let mut leaves = 0;
    let mut stack = vec![FlatTree::ROOT];
    while let Some(id) = stack.pop() {
        match flat.kind(id) {
            NodeKind::Leaf => {
                let distribution = flat.distribution_of(id);
                assert!((distribution.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                leaves += 1;
            }
            _ => stack.extend(flat.children_of(id).iter().map(|&c| c as usize)),
        }
    }
    assert_eq!(leaves, report.tree.n_leaves(), "every leaf is reachable");
}

#[test]
fn fig1_test_tuple_classification_is_a_distribution() {
    let data = toy::table1_dataset().unwrap();
    let tree = build(Algorithm::UdtEs).tree;
    let test = toy::fig1_test_tuple().unwrap();
    let dist = tree.predict_distribution(&test).expect("tree has classes");
    assert_eq!(dist.len(), data.n_classes());
    assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(dist.iter().all(|&p| (0.0..=1.0).contains(&p)));
    // The root weight split of Fig. 1: 30 % of the tuple's mass lies at or
    // below −1.
    let pdf = test.value(0).as_numeric().unwrap();
    assert!((pdf.prob_le(-1.0) - 0.3).abs() < 1e-12);
}

#[test]
fn post_pruning_shrinks_the_example_tree_without_destroying_it() {
    let data = toy::table1_dataset().unwrap();
    let unpruned = build(Algorithm::Udt);
    let pruned = TreeBuilder::new(
        UdtConfig::new(Algorithm::Udt)
            .with_postprune(true)
            .with_min_node_weight(0.0),
    )
    .build(&data)
    .unwrap();
    assert!(pruned.tree.size() <= unpruned.tree.size());
    assert!(pruned.tree.size() >= 1);
}
