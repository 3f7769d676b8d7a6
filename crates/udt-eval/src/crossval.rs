//! Cross-validated accuracy.
//!
//! The paper (§4.3) uses the data sets' provided train/test split when one
//! exists and 10-fold cross validation otherwise. [`cross_validate`] runs
//! the folds in parallel on scoped threads and aggregates accuracy, tree
//! statistics and split-search counters.

use udt_data::split::k_folds;
use udt_data::Dataset;
use udt_tree::{SearchStats, TreeBuilder, UdtConfig};

use crate::accuracy::{evaluate, EvalResult};

/// Aggregated result of a cross-validation run.
#[derive(Debug, Clone)]
pub struct CrossValResult {
    /// Number of folds run.
    pub folds: usize,
    /// Pooled evaluation over all folds.
    pub pooled: EvalResult,
    /// Summed split-search statistics over all folds.
    pub stats: SearchStats,
    /// Mean tree size over the folds.
    pub mean_tree_size: f64,
}

/// Runs `k`-fold cross validation of `config` on `data`, one scoped
/// thread per fold. Results do not depend on thread timing: each fold is
/// fully independent and seeded by the fold index, and the folds are
/// merged in fold order.
pub fn cross_validate(
    data: &Dataset,
    config: &UdtConfig,
    k: usize,
    seed: u64,
) -> udt_data::Result<CrossValResult> {
    let folds = k_folds(data, k, seed)?;
    let n_classes = data.n_classes();
    let run_fold = |fold: &udt_data::split::TrainTest| -> (EvalResult, SearchStats, usize) {
        let report = TreeBuilder::new(config.clone())
            .build(&fold.train)
            .expect("fold training sets are non-empty by construction");
        let eval = evaluate(&report.tree, &fold.test);
        (eval, report.stats, report.tree.size())
    };

    let fold_outputs: Vec<(EvalResult, SearchStats, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = folds
            .iter()
            .map(|fold| scope.spawn(|| run_fold(fold)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fold worker does not panic"))
            .collect()
    });

    let mut pooled = EvalResult {
        n: 0,
        correct: 0,
        confusion: vec![vec![0; n_classes]; n_classes],
    };
    let mut stats = SearchStats::default();
    let mut total_size = 0usize;
    for (eval, fold_stats, size) in &fold_outputs {
        pooled.merge(eval);
        stats.merge(fold_stats);
        total_size += size;
    }
    Ok(CrossValResult {
        folds: fold_outputs.len(),
        pooled,
        stats,
        mean_tree_size: total_size as f64 / fold_outputs.len().max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_data::Tuple;
    use udt_tree::Algorithm;

    fn dataset(n: usize) -> Dataset {
        let mut ds = Dataset::numerical(2, 2);
        for i in 0..n {
            let class = i % 2;
            let x = class as f64 * 8.0 + (i % 5) as f64 * 0.2;
            let y = (i % 7) as f64;
            ds.push(Tuple::from_points(&[x, y], class)).unwrap();
        }
        ds
    }

    #[test]
    fn cross_validation_covers_every_tuple_once() {
        let ds = dataset(50);
        let cv = cross_validate(&ds, &UdtConfig::new(Algorithm::UdtEs), 5, 7).unwrap();
        assert_eq!(cv.folds, 5);
        assert_eq!(cv.pooled.n, 50);
        // Separable data: near-perfect held-out accuracy.
        assert!(
            cv.pooled.accuracy() > 0.9,
            "accuracy {}",
            cv.pooled.accuracy()
        );
        assert!(cv.mean_tree_size >= 3.0);
        assert!(cv.stats.nodes_searched >= 5);
    }

    #[test]
    fn two_runs_agree() {
        let ds = dataset(40);
        let config = UdtConfig::new(Algorithm::UdtGp);
        let first = cross_validate(&ds, &config, 4, 11).unwrap();
        let second = cross_validate(&ds, &config, 4, 11).unwrap();
        assert_eq!(first.pooled, second.pooled);
        assert_eq!(
            first.stats.entropy_like_calculations(),
            second.stats.entropy_like_calculations()
        );
    }

    #[test]
    fn invalid_fold_counts_are_rejected() {
        let ds = dataset(10);
        assert!(cross_validate(&ds, &UdtConfig::new(Algorithm::Avg), 1, 0).is_err());
        assert!(cross_validate(&ds, &UdtConfig::new(Algorithm::Avg), 11, 0).is_err());
    }
}
