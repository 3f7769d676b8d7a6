//! Figs. 8 and 9 — sensitivity of UDT-ES to `s` and `w`.
//!
//! Fig. 8 varies the number of sample points per pdf (`s`) and Fig. 9 the
//! relative pdf width (`w`), both at otherwise-baseline settings, and
//! reports UDT-ES construction time. The paper's observations — time grows
//! roughly linearly with `s`, and generally grows with `w` because wider
//! pdfs create more heterogeneous intervals — are checked as claims by
//! [`Reproduction::claims`](crate::experiments::Reproduction::claims).

use serde::{Deserialize, Serialize};
use udt_data::repository::UncertaintySource;
use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

use crate::experiments::settings::Settings;
use crate::report::{render_table, secs};

/// The `s` values swept by Fig. 8 (the paper uses 50–200).
pub const S_VALUES: [usize; 4] = [50, 100, 150, 200];

/// The `w` values swept by Fig. 9.
pub const W_VALUES: [f64; 5] = [0.025, 0.05, 0.10, 0.20, 0.30];

/// One sweep measurement. Alongside the paper's quantities (time,
/// entropy-like calculations) every row records the engine's own cost —
/// per-phase build time, partition allocation traffic and the pruned
/// share of the candidates — so the `s`/`w` sweeps chart engine cost,
/// not just accuracy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepRow {
    /// Data set name.
    pub dataset: String,
    /// The swept parameter's value (`s` or `w`).
    pub value: f64,
    /// UDT-ES construction time in seconds (build wall-clock).
    pub seconds: f64,
    /// Entropy-like calculations performed.
    pub entropy_like_calculations: u64,
    /// Total bytes the partition layer allocated during the build.
    pub partition_bytes: u64,
    /// Largest single partition call's allocation, in bytes.
    pub partition_peak_bytes: u64,
    /// Seconds spent in the root presort phase (wall-clock).
    pub build_presort_s: f64,
    /// Seconds spent in per-node split search (cumulative across pool
    /// workers; equals wall-clock at one thread).
    pub build_search_s: f64,
    /// Candidate split points available across all attributes and nodes
    /// (the `k·(m·s − 1)` search space of §4.2, summed over nodes).
    pub candidates_total: u64,
    /// Candidate split points pruned before scoring.
    pub candidates_pruned: u64,
    /// `candidates_pruned / candidates_total` (0 when no candidates) —
    /// how pruning effectiveness holds up as `s` or `w` grows.
    pub prune_fraction: f64,
}

fn injectable_specs(settings: &Settings) -> Vec<udt_data::repository::DatasetSpec> {
    // The JapaneseVowel data set takes its uncertainty from raw samples, so
    // `s` and `w` cannot be controlled for it; the paper excludes it from
    // Figs. 8 and 9 for the same reason.
    settings
        .specs()
        .filter(|spec| spec.uncertainty == UncertaintySource::Injected)
        .collect()
}

fn measure(
    point_data: &udt_data::Dataset,
    dataset: &str,
    value: f64,
    w: f64,
    s: usize,
) -> udt_data::Result<SweepRow> {
    let data = inject_uncertainty(point_data, &UncertaintySpec::baseline().with_w(w).with_s(s))?;
    let report = TreeBuilder::new(UdtConfig::new(Algorithm::UdtEs))
        .build(&data)
        .expect("non-empty data set");
    Ok(SweepRow {
        dataset: dataset.to_string(),
        value,
        seconds: report.elapsed.as_secs_f64(),
        entropy_like_calculations: report.stats.entropy_like_calculations(),
        partition_bytes: report.stats.partition_bytes,
        partition_peak_bytes: report.stats.partition_peak_bytes,
        build_presort_s: report.stats.presort_ns as f64 / 1e9,
        build_search_s: report.stats.search_ns as f64 / 1e9,
        candidates_total: report.stats.candidate_points,
        candidates_pruned: report.stats.candidates_pruned(),
        prune_fraction: report.stats.prune_fraction(),
    })
}

/// Fig. 8: sweep `s` with `w` fixed at the 10 % baseline. `s_values`
/// defaults to [`S_VALUES`] when empty; the settings' own `s` is ignored.
pub fn sweep_s(settings: &Settings, s_values: &[usize]) -> udt_data::Result<Vec<SweepRow>> {
    let s_values: Vec<usize> = if s_values.is_empty() {
        S_VALUES.to_vec()
    } else {
        s_values.to_vec()
    };
    let mut rows = Vec::new();
    for spec in injectable_specs(settings) {
        let point_data = spec.generate(settings.scale)?;
        for &s in &s_values {
            rows.push(measure(&point_data, spec.name, s as f64, 0.10, s)?);
        }
    }
    Ok(rows)
}

/// Fig. 9: sweep `w` with `s` fixed at the settings' value. `w_values`
/// defaults to [`W_VALUES`] when empty.
pub fn sweep_w(settings: &Settings, w_values: &[f64]) -> udt_data::Result<Vec<SweepRow>> {
    let w_values: Vec<f64> = if w_values.is_empty() {
        W_VALUES.to_vec()
    } else {
        w_values.to_vec()
    };
    let mut rows = Vec::new();
    for spec in injectable_specs(settings) {
        let point_data = spec.generate(settings.scale)?;
        for &w in &w_values {
            rows.push(measure(&point_data, spec.name, w, w, settings.s)?);
        }
    }
    Ok(rows)
}

fn format_value(parameter: &str, value: f64) -> String {
    if parameter == "s" {
        format!("{}", value as usize)
    } else {
        format!("{:.1}%", value * 100.0)
    }
}

/// Renders sweep rows; `parameter` is "s" or "w".
pub fn render(title: &str, parameter: &str, rows: &[SweepRow]) -> String {
    render_table(
        title,
        &[
            "data set",
            parameter,
            "UDT-ES time",
            "entropy calcs",
            "partition bytes",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    format_value(parameter, r.value),
                    secs(r.seconds),
                    r.entropy_like_calculations.to_string(),
                    r.partition_bytes.to_string(),
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
            s: 10,
            folds: 3,
            seed: 5,
            datasets: vec!["Iris".to_string()],
        }
    }

    #[test]
    fn s_sweep_work_grows_with_s() {
        let rows = sweep_s(&tiny_settings(), &[10, 40]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].dataset, "Iris");
        assert!(rows[0].value < rows[1].value);
        // More sample points → more candidate split points → more work.
        assert!(rows[1].entropy_like_calculations > rows[0].entropy_like_calculations);
    }

    #[test]
    fn w_sweep_produces_one_row_per_value() {
        let rows = sweep_w(&tiny_settings(), &[0.05, 0.2]).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.entropy_like_calculations > 0));
        // Engine-cost columns are populated.
        assert!(rows.iter().all(|r| r.partition_bytes > 0));
        assert!(rows
            .iter()
            .all(|r| r.partition_peak_bytes <= r.partition_bytes));
        // Per-phase timings are recorded and sit inside the total.
        assert!(rows.iter().all(|r| r.build_presort_s > 0.0));
        assert!(rows.iter().all(|r| r.build_search_s > 0.0));
        assert!(rows.iter().all(|r| r.build_presort_s < r.seconds));
        // UDT-ES prunes: the candidate space is populated and a
        // nontrivial fraction of it goes unscored.
        assert!(rows.iter().all(|r| r.candidates_total > 0));
        assert!(rows
            .iter()
            .all(|r| r.candidates_pruned <= r.candidates_total));
        assert!(rows.iter().all(|r| r.prune_fraction > 0.0));
        assert!(rows.iter().all(|r| r.prune_fraction <= 1.0));
    }

    #[test]
    fn raw_sample_datasets_are_excluded() {
        let settings = Settings {
            datasets: vec!["JapaneseVowel".to_string()],
            ..tiny_settings()
        };
        assert!(sweep_s(&settings, &[10]).unwrap().is_empty());
        assert!(sweep_w(&settings, &[0.1]).unwrap().is_empty());
    }

    #[test]
    fn default_sweeps_match_the_papers_grids() {
        assert_eq!(S_VALUES.to_vec(), vec![50, 100, 150, 200]);
        assert_eq!(W_VALUES.len(), 5);
        let text = render("Fig. 8", "s", &sweep_s(&tiny_settings(), &[10]).unwrap());
        assert!(text.contains("UDT-ES time"));
    }
}
