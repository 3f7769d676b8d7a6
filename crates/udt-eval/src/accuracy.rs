//! Classification accuracy and confusion matrices.
//!
//! Following §4.3 of the paper, a probabilistic classification result is
//! reduced to a single label by taking the class of highest probability,
//! and accuracy is the fraction of test tuples whose predicted label
//! matches the recorded one.

use udt_data::Dataset;
use udt_tree::classify::{argmax_class, classify_batch, BatchScratch};
use udt_tree::DecisionTree;

/// The outcome of evaluating a tree on a test set.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// Number of test tuples.
    pub n: usize,
    /// Number classified correctly.
    pub correct: usize,
    /// `confusion[actual][predicted]` counts.
    pub confusion: Vec<Vec<usize>>,
}

impl EvalResult {
    /// Fraction of test tuples classified correctly (0 for an empty set).
    pub fn accuracy(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.correct as f64 / self.n as f64
        }
    }

    /// Per-class recall (correct / actual), `None` for classes absent from
    /// the test set.
    pub fn recall(&self, class: usize) -> Option<f64> {
        let row = self.confusion.get(class)?;
        let total: usize = row.iter().sum();
        if total == 0 {
            None
        } else {
            Some(row[class] as f64 / total as f64)
        }
    }

    /// Merges another evaluation (e.g. another cross-validation fold) into
    /// this one.
    pub fn merge(&mut self, other: &EvalResult) {
        self.n += other.n;
        self.correct += other.correct;
        for (a, b) in self.confusion.iter_mut().zip(&other.confusion) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }
}

/// Evaluates `tree` on every tuple of `test`, classifying the whole set
/// through the batch arena engine (one [`BatchScratch`] reused across all
/// tuples — bit-for-bit identical to per-tuple `predict`, several times
/// faster).
pub fn evaluate(tree: &DecisionTree, test: &Dataset) -> EvalResult {
    let k = tree.n_classes().max(test.n_classes());
    let mut confusion = vec![vec![0usize; k]; k];
    let mut correct = 0;
    let mut scratch = BatchScratch::new();
    let dists = classify_batch(tree, test.tuples(), &mut scratch)
        .expect("evaluation trees declare at least one class");
    let n_classes = tree.n_classes();
    for (t, dist) in test.tuples().iter().zip(dists.chunks(n_classes)) {
        let predicted = argmax_class(dist);
        if predicted == t.label() {
            correct += 1;
        }
        confusion[t.label()][predicted.min(k - 1)] += 1;
    }
    EvalResult {
        n: test.len(),
        correct,
        confusion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_data::{toy, Tuple};
    use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

    fn trained_tree() -> (DecisionTree, Dataset) {
        let mut ds = Dataset::numerical(1, 2);
        for i in 0..20 {
            let class = i % 2;
            ds.push(Tuple::from_points(
                &[class as f64 * 10.0 + i as f64 * 0.1],
                class,
            ))
            .unwrap();
        }
        let tree = TreeBuilder::new(UdtConfig::new(Algorithm::Udt))
            .build(&ds)
            .unwrap()
            .tree;
        (tree, ds)
    }

    #[test]
    fn perfect_classifier_scores_one() {
        let (tree, ds) = trained_tree();
        let result = evaluate(&tree, &ds);
        assert_eq!(result.n, 20);
        assert_eq!(result.correct, 20);
        assert_eq!(result.accuracy(), 1.0);
        assert_eq!(result.recall(0), Some(1.0));
        assert_eq!(result.recall(1), Some(1.0));
        // The confusion matrix is diagonal.
        assert_eq!(result.confusion[0][1], 0);
        assert_eq!(result.confusion[1][0], 0);
    }

    #[test]
    fn accuracy_on_the_table1_example_matches_the_paper_narrative() {
        // §4.1/§4.2: Averaging attains 2/3 accuracy on the worked example,
        // the distribution-based tree attains 100 %.
        let ds = toy::table1_dataset().unwrap();
        let avg = TreeBuilder::new(UdtConfig::new(Algorithm::Avg).with_postprune(false))
            .build(&ds)
            .unwrap()
            .tree;
        let udt = TreeBuilder::new(
            UdtConfig::new(Algorithm::Udt)
                .with_postprune(false)
                .with_min_node_weight(0.0),
        )
        .build(&ds)
        .unwrap()
        .tree;
        assert!(evaluate(&avg, &ds).accuracy() <= 2.0 / 3.0 + 1e-9);
        assert_eq!(evaluate(&udt, &ds).accuracy(), 1.0);
    }

    #[test]
    fn merge_accumulates_folds() {
        let (tree, ds) = trained_tree();
        let mut a = evaluate(&tree, &ds);
        let b = evaluate(&tree, &ds);
        a.merge(&b);
        assert_eq!(a.n, 40);
        assert_eq!(a.correct, 40);
        assert_eq!(a.accuracy(), 1.0);
    }

    #[test]
    fn empty_test_set_and_missing_classes() {
        let (tree, _) = trained_tree();
        let empty = Dataset::numerical(1, 2);
        let r = evaluate(&tree, &empty);
        assert_eq!(r.n, 0);
        assert_eq!(r.accuracy(), 0.0);
        assert_eq!(r.recall(0), None);
    }
}
