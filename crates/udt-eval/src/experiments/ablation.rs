//! §7.4 ablation — dispersion measures.
//!
//! The paper states that its results carry over from entropy to the Gini
//! index (with a different lower bound) and partially to gain ratio (for
//! which homogeneous-interval pruning is unavailable). This ablation runs
//! AVG and UDT-GP under each measure and reports accuracy and the
//! entropy-like work, so the claims can be checked on the synthetic
//! workloads.

use serde::{Deserialize, Serialize};
use udt_tree::{Algorithm, Measure, UdtConfig};

use crate::crossval::cross_validate;
use crate::experiments::settings::Settings;
use crate::report::{pct, render_table};

/// One (data set, measure, algorithm) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Data set name.
    pub dataset: String,
    /// Dispersion measure name.
    pub measure: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Cross-validated accuracy.
    pub accuracy: f64,
    /// Entropy-like calculations across all folds.
    pub entropy_like_calculations: u64,
}

/// Runs the measure ablation.
pub fn run(settings: &Settings) -> udt_data::Result<Vec<AblationRow>> {
    let measures = [Measure::Entropy, Measure::Gini, Measure::GainRatio];
    let algorithms = [Algorithm::Avg, Algorithm::UdtGp];
    let mut rows = Vec::new();
    for spec in settings.specs() {
        let data = settings.baseline_data(&spec)?;
        for measure in measures {
            for algorithm in algorithms {
                let config = UdtConfig::new(algorithm).with_measure(measure);
                let cv = cross_validate(&data, &config, settings.folds, settings.seed, true)?;
                rows.push(AblationRow {
                    dataset: spec.name.to_string(),
                    measure: measure.name().to_string(),
                    algorithm: algorithm.name().to_string(),
                    accuracy: cv.pooled.accuracy(),
                    entropy_like_calculations: cv.stats.entropy_like_calculations(),
                });
            }
        }
    }
    Ok(rows)
}

/// Renders the ablation rows.
pub fn render(rows: &[AblationRow]) -> String {
    render_table(
        "§7.4 ablation: dispersion measures",
        &[
            "data set",
            "measure",
            "algorithm",
            "accuracy",
            "entropy calcs",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.measure.clone(),
                    r.algorithm.clone(),
                    pct(r.accuracy),
                    r.entropy_like_calculations.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_settings() -> Settings {
        Settings {
            scale: 0.2,
            s: 8,
            folds: 3,
            seed: 9,
            datasets: vec!["Iris".to_string()],
        }
    }

    #[test]
    fn ablation_covers_measures_times_algorithms() {
        let rows = run(&tiny_settings()).unwrap();
        assert_eq!(rows.len(), 3 * 2);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.accuracy));
            assert!(r.entropy_like_calculations > 0);
        }
        // Every measure appears with both algorithms.
        for m in ["entropy", "gini", "gain-ratio"] {
            assert_eq!(rows.iter().filter(|r| r.measure == m).count(), 2, "{m}");
        }
    }

    #[test]
    fn render_lists_all_measures() {
        let rows = run(&tiny_settings()).unwrap();
        let text = render(&rows);
        assert!(text.contains("entropy"));
        assert!(text.contains("gini"));
        assert!(text.contains("gain-ratio"));
    }
}
