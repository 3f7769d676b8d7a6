//! Table 2 — the data-set inventory.
//!
//! Reproduces the paper's Table 2 ("Selected Data Sets from the UCI Machine
//! Learning Repository") over the synthetic stand-ins, and reports the
//! actually-generated sizes at the configured scale so the remaining
//! experiments are easy to interpret.

use serde::{Deserialize, Serialize};
use udt_data::repository::UncertaintySource;

use crate::experiments::settings::Settings;
use crate::report::render_table;

/// One row of Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Data set name.
    pub name: String,
    /// Published tuple count.
    pub published_tuples: usize,
    /// Tuples generated at the configured scale.
    pub generated_tuples: usize,
    /// Number of numerical attributes.
    pub attributes: usize,
    /// Number of classes.
    pub classes: usize,
    /// "raw samples" or the injected error model family.
    pub uncertainty: String,
    /// Whether the attribute domains are integral.
    pub integer_domain: bool,
}

/// Runs the Table 2 inventory at the given settings.
pub fn run(settings: &Settings) -> udt_data::Result<Vec<Table2Row>> {
    let mut rows = Vec::new();
    for spec in settings.specs() {
        let generated = spec.generate(settings.scale)?;
        rows.push(Table2Row {
            name: spec.name.to_string(),
            published_tuples: spec.tuples,
            generated_tuples: generated.len(),
            attributes: spec.attributes,
            classes: spec.classes,
            uncertainty: match spec.uncertainty {
                UncertaintySource::RawSamples => "raw repeated measurements".to_string(),
                UncertaintySource::Injected => "injected (Gaussian/uniform)".to_string(),
            },
            integer_domain: spec.integer_domain,
        });
    }
    Ok(rows)
}

/// Renders the rows as a plain-text table.
pub fn render(rows: &[Table2Row]) -> String {
    render_table(
        "Table 2: data sets",
        &[
            "data set",
            "tuples (paper)",
            "tuples (generated)",
            "attributes",
            "classes",
            "uncertainty",
            "integer domain",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.published_tuples.to_string(),
                    r.generated_tuples.to_string(),
                    r.attributes.to_string(),
                    r.classes.to_string(),
                    r.uncertainty.clone(),
                    if r.integer_domain { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_covers_all_ten_datasets_at_default_settings() {
        let rows = run(&Settings::laptop()).unwrap();
        assert_eq!(rows.len(), 10);
        let jv = rows.iter().find(|r| r.name == "JapaneseVowel").unwrap();
        assert_eq!(jv.published_tuples, 640);
        assert_eq!(jv.attributes, 12);
        assert_eq!(jv.classes, 9);
        assert!(jv.uncertainty.contains("raw"));
        assert!(rows.iter().filter(|r| r.integer_domain).count() == 3);
    }

    #[test]
    fn smoke_settings_filter_datasets() {
        let rows = run(&Settings::smoke()).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.name == "Iris" || r.name == "Glass"));
        assert!(rows
            .iter()
            .all(|r| r.generated_tuples <= r.published_tuples));
    }

    #[test]
    fn render_contains_every_dataset_name() {
        let rows = run(&Settings::smoke()).unwrap();
        let text = render(&rows);
        for r in &rows {
            assert!(text.contains(&r.name));
        }
    }
}
