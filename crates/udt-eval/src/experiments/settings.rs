//! Shared experiment settings.
//!
//! The paper's experiments run the ten UCI-shaped data sets at full size
//! with `s = 100` sample points per pdf. That is reproducible here (a
//! `Settings` with `scale: 1.0, s: 100`), but [`Settings::laptop`], which
//! the `udt-eval` binary runs, is scaled down so that the whole
//! reproduction — the exhaustive UDT baseline included — finishes in
//! seconds. To run at another scale, pass your own `Settings` to
//! [`reproduce`](crate::experiments::reproduce).

use serde::{Deserialize, Serialize};
use udt_data::repository::{table2_specs, DatasetSpec, UncertaintySource};
use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
use udt_data::Dataset;

/// Scaling knobs shared by all experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Settings {
    /// Fraction of each data set's published tuple count to generate.
    pub scale: f64,
    /// Sample points per pdf (`s`).
    pub s: usize,
    /// Cross-validation folds.
    pub folds: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Restrict the experiments to these data sets (empty = all).
    pub datasets: Vec<String>,
}

impl Settings {
    /// The default laptop-scale settings the `udt-eval` binary runs.
    pub fn laptop() -> Self {
        Settings {
            scale: 0.05,
            s: 50,
            folds: 5,
            seed: 42,
            datasets: Vec::new(),
        }
    }

    /// A very small configuration used by the integration tests (seconds,
    /// not minutes).
    pub fn smoke() -> Self {
        Settings {
            scale: 0.02,
            s: 16,
            folds: 3,
            seed: 42,
            datasets: vec!["Iris".to_string(), "Glass".to_string()],
        }
    }

    /// Whether a data set is selected by this configuration.
    pub fn includes(&self, name: &str) -> bool {
        self.datasets.is_empty() || self.datasets.iter().any(|d| d.eq_ignore_ascii_case(name))
    }

    /// The Table 2 data sets this configuration selects, in the paper's
    /// order.
    pub(crate) fn specs(&self) -> impl Iterator<Item = DatasetSpec> + '_ {
        table2_specs()
            .into_iter()
            .filter(|spec| self.includes(spec.name))
    }

    /// `spec`'s data set at the paper's baseline uncertainty: its raw
    /// samples, or Gaussian pdfs of width `w = 10 %` with `s` points.
    pub(crate) fn baseline_data(&self, spec: &DatasetSpec) -> udt_data::Result<Dataset> {
        let data = spec.generate(self.scale)?;
        match spec.uncertainty {
            UncertaintySource::RawSamples => Ok(data),
            UncertaintySource::Injected => {
                inject_uncertainty(&data, &UncertaintySpec::baseline().with_s(self.s))
            }
        }
    }
}

impl Default for Settings {
    fn default() -> Self {
        Settings::laptop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_laptop_scale() {
        let s = Settings::default();
        assert_eq!(s, Settings::laptop());
        assert!(s.scale <= 0.1);
        assert!(s.includes("Iris"));
        assert!(s.includes("anything"));
    }

    #[test]
    fn smoke_settings_restrict_datasets() {
        let s = Settings::smoke();
        assert!(s.includes("Iris"));
        assert!(s.includes("iris"));
        assert!(!s.includes("PenDigits"));
        assert!(s.scale < Settings::laptop().scale + 1e-12);
    }
}
