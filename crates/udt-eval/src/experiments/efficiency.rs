//! Figs. 6 and 7 — execution time and pruning effectiveness.
//!
//! For every data set at the baseline uncertainty setting (`s = 100`,
//! `w = 10 %`, Gaussian — scaled by [`Settings`]), every algorithm (AVG,
//! UDT, UDT-BP, UDT-LP, UDT-GP, UDT-ES) builds a tree on the full data set
//! and we record the wall-clock construction time (Fig. 6) and the number
//! of entropy-like calculations — split-point evaluations plus interval
//! lower bounds (Fig. 7).

use serde::{Deserialize, Serialize};
use udt_tree::{persist, Algorithm, TreeBuilder, UdtConfig};

use crate::experiments::settings::Settings;
use crate::report::{render_table, secs};

/// One (data set, algorithm) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EfficiencyRow {
    /// Data set name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Wall-clock construction time in seconds (Fig. 6).
    pub seconds: f64,
    /// Entropy-like calculations performed (Fig. 7).
    pub entropy_like_calculations: u64,
    /// Candidate split points available (the search-space size).
    pub candidate_points: u64,
    /// Intervals pruned by theorems or bounding.
    pub intervals_pruned: u64,
    /// Size of the resulting tree.
    pub tree_size: usize,
    /// [`persist::crc32`] of the tree's [`persist::to_json`] text: equal
    /// values mean equal trees, split points and distributions included.
    pub tree_crc: u32,
}

/// Runs the efficiency experiment over `algorithms` (defaults to all six
/// when empty).
pub fn run(settings: &Settings, algorithms: &[Algorithm]) -> udt_data::Result<Vec<EfficiencyRow>> {
    let algorithms: Vec<Algorithm> = if algorithms.is_empty() {
        Algorithm::all().to_vec()
    } else {
        algorithms.to_vec()
    };
    let mut rows = Vec::new();
    for spec in settings.specs() {
        let data = settings.baseline_data(&spec)?;
        for &algorithm in &algorithms {
            let report = TreeBuilder::new(UdtConfig::new(algorithm))
                .build(&data)
                .expect("non-empty data set");
            rows.push(EfficiencyRow {
                dataset: spec.name.to_string(),
                algorithm: algorithm.name().to_string(),
                seconds: report.elapsed.as_secs_f64(),
                entropy_like_calculations: report.stats.entropy_like_calculations(),
                candidate_points: report.stats.candidate_points,
                intervals_pruned: report.stats.intervals_pruned,
                tree_size: report.tree.size(),
                tree_crc: persist::crc32(
                    persist::to_json(&report.tree)
                        .expect("a built tree serialises")
                        .as_bytes(),
                ),
            });
        }
    }
    Ok(rows)
}

/// Renders the Fig. 6 view (execution time).
pub fn render_time(rows: &[EfficiencyRow]) -> String {
    render_table(
        "Fig. 6: execution time per algorithm",
        &["data set", "algorithm", "time", "tree size"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.algorithm.clone(),
                    secs(r.seconds),
                    r.tree_size.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Renders the Fig. 7 view (entropy-like calculations and the pruning
/// ratio relative to exhaustive UDT).
pub fn render_pruning(rows: &[EfficiencyRow]) -> String {
    let mut table_rows = Vec::new();
    for r in rows {
        let udt_count = rows
            .iter()
            .find(|x| x.dataset == r.dataset && x.algorithm == "UDT")
            .map(|x| x.entropy_like_calculations)
            .unwrap_or(0);
        let ratio = if udt_count > 0 {
            format!(
                "{:.2}%",
                100.0 * r.entropy_like_calculations as f64 / udt_count as f64
            )
        } else {
            "-".to_string()
        };
        table_rows.push(vec![
            r.dataset.clone(),
            r.algorithm.clone(),
            r.entropy_like_calculations.to_string(),
            ratio,
            r.intervals_pruned.to_string(),
        ]);
    }
    render_table(
        "Fig. 7: pruning effectiveness (entropy-like calculations)",
        &[
            "data set",
            "algorithm",
            "entropy calcs",
            "% of UDT",
            "intervals pruned",
        ],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_settings() -> Settings {
        Settings {
            scale: 0.25,
            s: 12,
            folds: 3,
            seed: 5,
            datasets: vec!["Iris".to_string()],
        }
    }

    #[test]
    fn all_six_algorithms_are_measured() {
        let rows = run(&tiny_settings(), &[]).unwrap();
        assert_eq!(rows.len(), 6);
        let names: Vec<&str> = rows.iter().map(|r| r.algorithm.as_str()).collect();
        assert_eq!(
            names,
            vec!["AVG", "UDT", "UDT-BP", "UDT-LP", "UDT-GP", "UDT-ES"]
        );
        for r in &rows {
            assert!(r.seconds >= 0.0);
            assert!(r.entropy_like_calculations > 0);
            assert!(r.tree_size >= 1);
        }
    }

    /// The paper's headline efficiency ordering: every pruned algorithm
    /// performs fewer entropy-like calculations than exhaustive UDT, AVG
    /// fewer than any distribution-based algorithm, and UDT-GP no more than
    /// UDT-LP no more than UDT-BP.
    #[test]
    fn pruning_reduces_entropy_calculations_in_the_papers_order() {
        let rows = run(&tiny_settings(), &[]).unwrap();
        let count = |name: &str| {
            rows.iter()
                .find(|r| r.algorithm == name)
                .unwrap()
                .entropy_like_calculations
        };
        let udt = count("UDT");
        assert!(count("AVG") < udt);
        assert!(count("UDT-BP") <= udt);
        assert!(count("UDT-LP") <= count("UDT-BP") + count("UDT-BP") / 2);
        assert!(count("UDT-GP") <= count("UDT-LP"));
        assert!(count("UDT-ES") <= udt);
    }

    #[test]
    fn subset_of_algorithms_can_be_requested() {
        let rows = run(&tiny_settings(), &[Algorithm::Avg, Algorithm::UdtEs]).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn renders_include_ratios() {
        let rows = run(&tiny_settings(), &[]).unwrap();
        assert!(render_time(&rows).contains("UDT-ES"));
        let pruning = render_pruning(&rows);
        assert!(pruning.contains('%'));
        assert!(pruning.contains("intervals pruned"));
    }
}
