//! Table 3 — "Accuracy Improvement by Considering the Distribution".
//!
//! For every data set, the paper compares the Averaging tree (AVG) against
//! the distribution-based tree (UDT) under a range of uncertainty widths
//! `w` and both error models (uniform only for the three integer-domain
//! data sets), with `s = 100` sample points per pdf and 10-fold cross
//! validation (or the provided train/test split). This module reproduces
//! the table: one row per (data set, error model, w) combination plus the
//! raw-sample "JapaneseVowel" row, reporting AVG accuracy, UDT accuracy and
//! the best-w UDT accuracy per data set.
//!
//! UDT-GP is used as the distribution-based representative because it
//! builds exactly the same trees as exhaustive UDT (safe pruning) while
//! keeping the full sweep tractable; the equality of the trees is covered
//! by the property tests in `udt-tree`.

use serde::{Deserialize, Serialize};
use udt_data::repository::{DatasetSpec, UncertaintySource};
use udt_data::split::train_test_split;
use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
use udt_data::Dataset;
use udt_prob::ErrorModel;
use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

use crate::accuracy::evaluate;
use crate::crossval::cross_validate;
use crate::experiments::settings::Settings;
use crate::report::{pct, render_table};

/// The uncertainty widths swept by the paper's Table 3.
pub const W_VALUES: [f64; 4] = [0.01, 0.05, 0.10, 0.20];

/// One (data set, error model, w) cell of Table 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Data set name.
    pub dataset: String,
    /// Error model name ("Gaussian", "Uniform", or "raw" for JapaneseVowel).
    pub model: String,
    /// Uncertainty width `w` (0 for the raw-sample data set).
    pub w: f64,
    /// Averaging accuracy.
    pub avg_accuracy: f64,
    /// Distribution-based accuracy.
    pub udt_accuracy: f64,
}

impl Table3Row {
    /// Whether the distribution-based tree beats Averaging on this row.
    pub fn udt_wins(&self) -> bool {
        self.udt_accuracy > self.avg_accuracy
    }
}

/// Accuracy of one algorithm on one prepared (already uncertain) data set,
/// using the data set's published evaluation protocol.
fn accuracy_of(
    data: &Dataset,
    spec: &DatasetSpec,
    algorithm: Algorithm,
    settings: &Settings,
) -> udt_data::Result<f64> {
    let config = UdtConfig::new(algorithm);
    if spec.has_train_test_split {
        let tt = train_test_split(data, 0.7, settings.seed)?;
        let tree = TreeBuilder::new(config)
            .build(&tt.train)
            .expect("training split is non-empty")
            .tree;
        Ok(evaluate(&tree, &tt.test).accuracy())
    } else {
        let cv = cross_validate(data, &config, settings.folds, settings.seed, true)?;
        Ok(cv.pooled.accuracy())
    }
}

/// Runs the Table 3 experiment.
pub fn run(settings: &Settings) -> udt_data::Result<Vec<Table3Row>> {
    let mut rows = Vec::new();
    for spec in settings.specs() {
        match spec.uncertainty {
            UncertaintySource::RawSamples => {
                // The pdf comes from the raw measurements; there is no w to
                // sweep.
                let data = spec.generate(settings.scale)?;
                let avg = accuracy_of(&data, &spec, Algorithm::Avg, settings)?;
                let udt = accuracy_of(&data, &spec, Algorithm::UdtGp, settings)?;
                rows.push(Table3Row {
                    dataset: spec.name.to_string(),
                    model: "raw".to_string(),
                    w: 0.0,
                    avg_accuracy: avg,
                    udt_accuracy: udt,
                });
            }
            UncertaintySource::Injected => {
                let point_data = spec.generate(settings.scale)?;
                let mut models = vec![ErrorModel::Gaussian];
                if spec.integer_domain {
                    // §4.3: uniform error models are additionally evaluated
                    // for the integer-domain (quantisation-noise) data sets.
                    models.push(ErrorModel::Uniform);
                }
                for model in models {
                    for &w in &W_VALUES {
                        let uspec = UncertaintySpec {
                            w,
                            s: settings.s,
                            model,
                        };
                        let data = inject_uncertainty(&point_data, &uspec)?;
                        let avg = accuracy_of(&data, &spec, Algorithm::Avg, settings)?;
                        let udt = accuracy_of(&data, &spec, Algorithm::UdtGp, settings)?;
                        rows.push(Table3Row {
                            dataset: spec.name.to_string(),
                            model: model.name().to_string(),
                            w,
                            avg_accuracy: avg,
                            udt_accuracy: udt,
                        });
                    }
                }
            }
        }
    }
    Ok(rows)
}

/// Per-data-set summary: AVG accuracy, UDT accuracy at the baseline
/// `w = 10 %`, and the best UDT accuracy over the sweep (the paper's
/// starred "best" column).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Summary {
    /// Data set name.
    pub dataset: String,
    /// Averaging accuracy (at the baseline configuration).
    pub avg_accuracy: f64,
    /// Distribution-based accuracy at the baseline configuration.
    pub udt_accuracy: f64,
    /// Best distribution-based accuracy over all (model, w) combinations.
    pub udt_best_accuracy: f64,
}

/// Collapses the detailed rows into the per-data-set summary.
pub fn summarise(rows: &[Table3Row]) -> Vec<Table3Summary> {
    let mut names: Vec<&str> = rows.iter().map(|r| r.dataset.as_str()).collect();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let subset: Vec<&Table3Row> = rows.iter().filter(|r| r.dataset == name).collect();
            let baseline = subset
                .iter()
                .find(|r| (r.w - 0.10).abs() < 1e-9 && r.model == "Gaussian")
                .or_else(|| subset.first())
                .expect("at least one row per data set");
            let best = subset
                .iter()
                .map(|r| r.udt_accuracy)
                .fold(f64::NEG_INFINITY, f64::max);
            Table3Summary {
                dataset: name.to_string(),
                avg_accuracy: baseline.avg_accuracy,
                udt_accuracy: baseline.udt_accuracy,
                udt_best_accuracy: best,
            }
        })
        .collect()
}

/// Renders the detailed rows as a plain-text table.
pub fn render(rows: &[Table3Row]) -> String {
    render_table(
        "Table 3: accuracy, AVG vs distribution-based (UDT)",
        &["data set", "model", "w", "AVG", "UDT", "winner"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.model.clone(),
                    if r.w == 0.0 {
                        "raw".to_string()
                    } else {
                        format!("{:.0}%", r.w * 100.0)
                    },
                    pct(r.avg_accuracy),
                    pct(r.udt_accuracy),
                    if r.udt_wins() { "UDT" } else { "AVG/tie" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Renders the per-data-set summary as a plain-text table.
pub fn render_summary(summary: &[Table3Summary]) -> String {
    render_table(
        "Table 3 summary (baseline w = 10% Gaussian vs best over sweep)",
        &["data set", "AVG", "UDT", "UDT (best)"],
        &summary
            .iter()
            .map(|s| {
                vec![
                    s.dataset.clone(),
                    pct(s.avg_accuracy),
                    pct(s.udt_accuracy),
                    pct(s.udt_best_accuracy),
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
            scale: 0.25,
            s: 10,
            folds: 3,
            seed: 7,
            datasets: vec!["Iris".to_string()],
        }
    }

    #[test]
    fn rows_cover_the_w_sweep_for_an_injected_dataset() {
        let rows = run(&tiny_settings()).unwrap();
        // Iris is real-valued: Gaussian only, four w values.
        assert_eq!(rows.len(), W_VALUES.len());
        assert!(rows
            .iter()
            .all(|r| r.dataset == "Iris" && r.model == "Gaussian"));
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.avg_accuracy));
            assert!((0.0..=1.0).contains(&r.udt_accuracy));
        }
    }

    #[test]
    fn summary_reports_best_over_the_sweep() {
        let rows = run(&tiny_settings()).unwrap();
        let summary = summarise(&rows);
        assert_eq!(summary.len(), 1);
        let s = &summary[0];
        assert_eq!(s.dataset, "Iris");
        assert!(s.udt_best_accuracy + 1e-12 >= s.udt_accuracy);
        assert!(rows
            .iter()
            .all(|r| r.udt_accuracy <= s.udt_best_accuracy + 1e-12));
    }

    #[test]
    fn integer_domain_datasets_also_sweep_the_uniform_model() {
        let settings = Settings {
            scale: 0.02,
            s: 8,
            folds: 3,
            seed: 7,
            datasets: vec!["Vehicle".to_string()],
        };
        let rows = run(&settings).unwrap();
        assert_eq!(rows.len(), 2 * W_VALUES.len());
        assert!(rows.iter().any(|r| r.model == "Uniform"));
        assert!(rows.iter().any(|r| r.model == "Gaussian"));
    }

    #[test]
    fn render_includes_percentages() {
        let rows = run(&tiny_settings()).unwrap();
        let text = render(&rows);
        assert!(text.contains('%'));
        assert!(text.contains("Iris"));
        assert!(render_summary(&summarise(&rows)).contains("UDT (best)"));
    }
}
