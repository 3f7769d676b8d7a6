//! The Table 2 data-set repository.
//!
//! The paper evaluates on ten UCI data sets (Table 2). Those files are not
//! available offline, so — per the substitution policy in `DESIGN.md` —
//! this module declares one [`DatasetSpec`] per data set, carrying the
//! published shape (tuple count, attribute count, class count, domain
//! type) and a deterministic synthetic generator matching it.
//!
//! Because the published sizes are large (e.g. "PenDigits" has 10 992
//! tuples × 16 attributes, i.e. ≈ 1.8 M pdf sample points at `s = 100`),
//! every generator accepts a `scale` factor in `(0, 1]`; experiments and
//! benchmarks default to a reduced scale so the whole suite runs on a
//! laptop, while `scale = 1.0` reproduces the paper's full sizes.

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::synthetic::{RepeatedMeasurementSpec, SyntheticSpec};
use crate::Result;

/// How a data set's uncertainty is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UncertaintySource {
    /// Point values; uncertainty is injected synthetically (§4.3).
    Injected,
    /// Raw repeated measurements; the pdf is built from the raw samples
    /// (the "JapaneseVowel" case).
    RawSamples,
}

/// Descriptor of one Table 2 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Data set name as printed in the paper.
    pub name: &'static str,
    /// Published number of tuples.
    pub tuples: usize,
    /// Published number of numerical attributes used for classification.
    pub attributes: usize,
    /// Published number of classes.
    pub classes: usize,
    /// Whether the attribute domains are integral (quantisation-noise
    /// dominated: "PenDigits", "Vehicle", "Satellite").
    pub integer_domain: bool,
    /// Whether the data set ships a train/test split (otherwise 10-fold
    /// cross-validation is used, as in the paper).
    pub has_train_test_split: bool,
    /// How uncertainty is obtained for this data set.
    pub uncertainty: UncertaintySource,
    /// Seed used by the synthetic generator.
    pub seed: u64,
}

impl DatasetSpec {
    /// Generates the data set at the given scale factor (`0 < scale <= 1`).
    /// The returned data set is point-valued for [`UncertaintySource::Injected`]
    /// specs (uncertainty is added separately with
    /// [`crate::uncertainty::inject_uncertainty`]) and already uncertain for
    /// [`UncertaintySource::RawSamples`] specs.
    pub fn generate(&self, scale: f64) -> Result<Dataset> {
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(DataError::InvalidParameter {
                name: "scale",
                value: scale,
            });
        }
        let tuples = ((self.tuples as f64 * scale).round() as usize)
            .max(self.classes * 4)
            .min(self.tuples);
        match self.uncertainty {
            UncertaintySource::Injected => SyntheticSpec {
                name: self.name.to_string(),
                tuples,
                attributes: self.attributes,
                classes: self.classes,
                clusters_per_class: 2,
                cluster_spread: 0.07,
                integer_domain: self.integer_domain,
                range_width: if self.integer_domain { 100.0 } else { 10.0 },
                seed: self.seed,
            }
            .generate(),
            UncertaintySource::RawSamples => RepeatedMeasurementSpec {
                name: self.name.to_string(),
                tuples,
                attributes: self.attributes,
                classes: self.classes,
                min_samples: 7,
                max_samples: 29,
                noise: 0.06,
                seed: self.seed,
            }
            .generate(),
        }
    }
}

/// The ten data sets of Table 2, in the paper's order, with their published
/// shapes.
pub fn table2_specs() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "JapaneseVowel",
            tuples: 640,
            attributes: 12,
            classes: 9,
            integer_domain: false,
            has_train_test_split: true,
            uncertainty: UncertaintySource::RawSamples,
            seed: 1,
        },
        DatasetSpec {
            name: "PenDigits",
            tuples: 10_992,
            attributes: 16,
            classes: 10,
            integer_domain: true,
            has_train_test_split: true,
            uncertainty: UncertaintySource::Injected,
            seed: 2,
        },
        DatasetSpec {
            name: "PageBlocks",
            tuples: 5_473,
            attributes: 10,
            classes: 5,
            integer_domain: false,
            has_train_test_split: false,
            uncertainty: UncertaintySource::Injected,
            seed: 3,
        },
        DatasetSpec {
            name: "Satellite",
            tuples: 6_435,
            attributes: 36,
            classes: 6,
            integer_domain: true,
            has_train_test_split: true,
            uncertainty: UncertaintySource::Injected,
            seed: 4,
        },
        DatasetSpec {
            name: "Segment",
            tuples: 2_310,
            attributes: 19,
            classes: 7,
            integer_domain: false,
            has_train_test_split: false,
            uncertainty: UncertaintySource::Injected,
            seed: 5,
        },
        DatasetSpec {
            name: "Vehicle",
            tuples: 846,
            attributes: 18,
            classes: 4,
            integer_domain: true,
            has_train_test_split: false,
            uncertainty: UncertaintySource::Injected,
            seed: 6,
        },
        DatasetSpec {
            name: "BreastCancer",
            tuples: 569,
            attributes: 30,
            classes: 2,
            integer_domain: false,
            has_train_test_split: false,
            uncertainty: UncertaintySource::Injected,
            seed: 7,
        },
        DatasetSpec {
            name: "Ionosphere",
            tuples: 351,
            attributes: 34,
            classes: 2,
            integer_domain: false,
            has_train_test_split: false,
            uncertainty: UncertaintySource::Injected,
            seed: 8,
        },
        DatasetSpec {
            name: "Glass",
            tuples: 214,
            attributes: 9,
            classes: 6,
            integer_domain: false,
            has_train_test_split: false,
            uncertainty: UncertaintySource::Injected,
            seed: 9,
        },
        DatasetSpec {
            name: "Iris",
            tuples: 150,
            attributes: 4,
            classes: 3,
            integer_domain: false,
            has_train_test_split: false,
            uncertainty: UncertaintySource::Injected,
            seed: 10,
        },
    ]
}

/// Looks a spec up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    table2_specs()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
}

/// Convenience accessor for the "JapaneseVowel"-like raw-measurement data
/// set at the given scale.
pub fn japanese_vowel(scale: f64) -> Result<Dataset> {
    by_name("JapaneseVowel")
        .expect("JapaneseVowel is always in the repository")
        .generate(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repository_lists_the_ten_table2_datasets() {
        let specs = table2_specs();
        assert_eq!(specs.len(), 10);
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        assert!(names.contains(&"JapaneseVowel"));
        assert!(names.contains(&"Iris"));
        assert!(names.contains(&"PenDigits"));
        // Exactly the three integer-domain sets called out in §4.3.
        let integral: Vec<&str> = specs
            .iter()
            .filter(|s| s.integer_domain)
            .map(|s| s.name)
            .collect();
        assert_eq!(integral, vec!["PenDigits", "Satellite", "Vehicle"]);
        // Only JapaneseVowel uses raw-sample uncertainty.
        assert!(specs.iter().all(
            |s| (s.uncertainty == UncertaintySource::RawSamples) == (s.name == "JapaneseVowel")
        ));
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(by_name("iris").is_some());
        assert!(by_name("IRIS").is_some());
        assert!(by_name("NoSuchDataset").is_none());
    }

    #[test]
    fn scaled_generation_matches_shape() {
        let iris = by_name("Iris").unwrap();
        let ds = iris.generate(1.0).unwrap();
        assert_eq!(ds.len(), 150);
        assert_eq!(ds.n_attributes(), 4);
        assert_eq!(ds.n_classes(), 3);

        let small = iris.generate(0.2).unwrap();
        assert_eq!(small.len(), 30);
        assert_eq!(small.n_attributes(), 4);

        assert!(iris.generate(0.0).is_err());
        assert!(iris.generate(1.5).is_err());
    }

    #[test]
    fn scaling_never_collapses_a_class() {
        for spec in table2_specs() {
            let ds = spec.generate(0.05).unwrap();
            let counts = ds.class_counts();
            assert!(
                counts.iter().all(|&c| c > 0),
                "{}: a class vanished at small scale",
                spec.name
            );
        }
    }

    #[test]
    fn japanese_vowel_values_are_raw_sample_pdfs() {
        let ds = japanese_vowel(0.2).unwrap();
        assert_eq!(ds.n_attributes(), 12);
        assert_eq!(ds.n_classes(), 9);
        // Values carry between 1 and 29 distinct sample points (duplicates
        // in raw samples may merge).
        for t in ds.tuples().iter().take(10) {
            for v in t.values() {
                assert!(v.sample_count() <= 29);
            }
        }
    }

    #[test]
    fn integer_domain_sets_generate_integral_values() {
        let ds = by_name("Vehicle").unwrap().generate(0.1).unwrap();
        for t in ds.tuples().iter().take(20) {
            for v in t.values() {
                let x = v.expected();
                assert_eq!(x, x.round());
            }
        }
    }
}
