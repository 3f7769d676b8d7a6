//! Synthetic class-conditional data generators.
//!
//! The paper's accuracy and efficiency experiments run on ten UCI data
//! sets, which cannot be redistributed or downloaded in this environment.
//! Per the substitution policy in `DESIGN.md`, each data set is replaced by
//! a deterministic synthetic generator that matches its published *shape*
//! (tuple count, attribute count, class count, integer vs real domain).
//!
//! The generative model is a per-class mixture of axis-aligned Gaussians:
//! every class owns a small number of cluster centres drawn uniformly in
//! the unit hyper-cube, and a tuple of that class is a Gaussian sample
//! around one of those centres, scaled to the attribute range. This keeps
//! the classification task learnable but non-trivial (classes overlap, so
//! split-point search matters), which is what the paper's relative
//! comparisons require.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::randn;
use crate::tuple::Tuple;
use crate::Result;

/// Specification of a synthetic class-conditional data set.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Data set name (for reports).
    pub name: String,
    /// Number of tuples to generate.
    pub tuples: usize,
    /// Number of numerical attributes.
    pub attributes: usize,
    /// Number of classes.
    pub classes: usize,
    /// Gaussian clusters per class.
    pub clusters_per_class: usize,
    /// Relative spread of each cluster (fraction of the attribute range);
    /// larger values make classes overlap more and the task harder.
    pub cluster_spread: f64,
    /// When true, every generated value is rounded to an integer, mimicking
    /// the integer-domain data sets ("PenDigits", "Vehicle", "Satellite")
    /// that the paper singles out as quantisation-noise dominated.
    pub integer_domain: bool,
    /// Width of each attribute's value range.
    pub range_width: f64,
    /// RNG seed; generation is fully deterministic given the spec.
    pub seed: u64,
}

impl SyntheticSpec {
    /// A reasonable default spec used by unit tests: 200 tuples, 4 real
    /// attributes, 3 classes.
    pub fn small(seed: u64) -> Self {
        SyntheticSpec {
            name: "small".to_string(),
            tuples: 200,
            attributes: 4,
            classes: 3,
            clusters_per_class: 2,
            cluster_spread: 0.08,
            integer_domain: false,
            range_width: 100.0,
            seed,
        }
    }

    /// Generates the point-valued data set described by this spec.
    pub fn generate(&self) -> Result<Dataset> {
        if self.tuples == 0 {
            return Err(DataError::InvalidParameter {
                name: "tuples",
                value: 0.0,
            });
        }
        if self.attributes == 0 {
            return Err(DataError::InvalidParameter {
                name: "attributes",
                value: 0.0,
            });
        }
        if self.classes == 0 {
            return Err(DataError::InvalidParameter {
                name: "classes",
                value: 0.0,
            });
        }
        if self.clusters_per_class == 0 {
            return Err(DataError::InvalidParameter {
                name: "clusters_per_class",
                value: 0.0,
            });
        }
        if !(self.cluster_spread > 0.0) || !(self.range_width > 0.0) {
            return Err(DataError::InvalidParameter {
                name: "cluster_spread/range_width",
                value: self.cluster_spread.min(self.range_width),
            });
        }

        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        // Cluster centres in the unit hypercube, per class.
        let mut centres: Vec<Vec<Vec<f64>>> = Vec::with_capacity(self.classes);
        for _ in 0..self.classes {
            let mut class_centres = Vec::with_capacity(self.clusters_per_class);
            for _ in 0..self.clusters_per_class {
                class_centres.push((0..self.attributes).map(|_| rng.gen::<f64>()).collect());
            }
            centres.push(class_centres);
        }

        let mut ds = Dataset::numerical(self.attributes, self.classes);
        for i in 0..self.tuples {
            // Round-robin class assignment keeps classes balanced, like the
            // mostly-balanced UCI sets the paper uses.
            let class = i % self.classes;
            let cluster = rng.gen_range(0..self.clusters_per_class);
            let centre = &centres[class][cluster];
            let mut values = Vec::with_capacity(self.attributes);
            for &c in centre {
                let unit = randn::normal(&mut rng, c, self.cluster_spread);
                let mut v = unit * self.range_width;
                if self.integer_domain {
                    v = v.round();
                }
                values.push(v);
            }
            ds.push(Tuple::from_points(&values, class))?;
        }
        Ok(ds)
    }
}

/// Generates a data set in which every attribute value is a bag of raw
/// repeated measurements (like the "JapaneseVowel" LPC coefficients):
/// between `min_samples` and `max_samples` noisy readings around the
/// latent class-dependent value. Returns tuples whose values are
/// histogram-derived pdfs built directly from those raw samples.
#[derive(Debug, Clone, PartialEq)]
pub struct RepeatedMeasurementSpec {
    /// Data set name.
    pub name: String,
    /// Number of tuples.
    pub tuples: usize,
    /// Number of attributes.
    pub attributes: usize,
    /// Number of classes (speakers).
    pub classes: usize,
    /// Minimum raw samples per attribute value.
    pub min_samples: usize,
    /// Maximum raw samples per attribute value.
    pub max_samples: usize,
    /// Measurement noise standard deviation relative to the range.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RepeatedMeasurementSpec {
    /// Generates the uncertain data set: each value's pdf is built from its
    /// raw samples with [`udt_prob::SampledPdf::from_raw_samples`].
    pub fn generate(&self) -> Result<Dataset> {
        if self.tuples == 0 || self.attributes == 0 || self.classes == 0 {
            return Err(DataError::InvalidParameter {
                name: "tuples/attributes/classes",
                value: 0.0,
            });
        }
        if self.min_samples == 0 || self.max_samples < self.min_samples {
            return Err(DataError::InvalidParameter {
                name: "min_samples/max_samples",
                value: self.min_samples as f64,
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        // Latent per-class attribute profiles in [0, 1].
        let profiles: Vec<Vec<f64>> = (0..self.classes)
            .map(|_| (0..self.attributes).map(|_| rng.gen::<f64>()).collect())
            .collect();

        let mut ds = Dataset::numerical(self.attributes, self.classes);
        for i in 0..self.tuples {
            let class = i % self.classes;
            let mut values = Vec::with_capacity(self.attributes);
            for j in 0..self.attributes {
                let latent = profiles[class][j] + randn::normal(&mut rng, 0.0, self.noise / 2.0);
                let n = rng.gen_range(self.min_samples..=self.max_samples);
                let samples: Vec<f64> = (0..n)
                    .map(|_| randn::normal(&mut rng, latent, self.noise))
                    .collect();
                let pdf = udt_prob::SampledPdf::from_raw_samples(&samples)?;
                values.push(crate::value::UncertainValue::Numeric(pdf));
            }
            ds.push(Tuple::new(values, class))?;
        }
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_matches_spec_shape() {
        let spec = SyntheticSpec::small(42);
        let ds = spec.generate().unwrap();
        assert_eq!(ds.len(), 200);
        assert_eq!(ds.n_attributes(), 4);
        assert_eq!(ds.n_classes(), 3);
        // Round-robin labels keep classes balanced to within one tuple.
        let counts = ds.class_counts();
        assert!(counts.iter().all(|&c| (66..=67).contains(&c)));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SyntheticSpec::small(7).generate().unwrap();
        let b = SyntheticSpec::small(7).generate().unwrap();
        let c = SyntheticSpec::small(8).generate().unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn integer_domain_rounds_values() {
        let mut spec = SyntheticSpec::small(3);
        spec.integer_domain = true;
        let ds = spec.generate().unwrap();
        for t in ds.tuples() {
            for v in t.values() {
                let x = v.expected();
                assert_eq!(x, x.round());
            }
        }
    }

    #[test]
    fn classes_are_separable_better_than_chance() {
        // A crude nearest-centroid check: with modest spread, at least 60 %
        // of tuples are closest to their own class centroid, so the data
        // carries usable class signal for the decision-tree experiments.
        let ds = SyntheticSpec::small(11).generate().unwrap();
        let k = ds.n_attributes();
        let mut centroids = vec![vec![0.0; k]; ds.n_classes()];
        let counts = ds.class_counts();
        for t in ds.tuples() {
            for j in 0..k {
                centroids[t.label()][j] += t.value(j).expected() / counts[t.label()] as f64;
            }
        }
        let mut correct = 0;
        for t in ds.tuples() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d: f64 = (0..k)
                    .map(|j| (t.value(j).expected() - centroid[j]).powi(2))
                    .sum();
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if best == t.label() {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / ds.len() as f64 > 0.6,
            "only {correct}/200 tuples near own centroid"
        );
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut spec = SyntheticSpec::small(1);
        spec.tuples = 0;
        assert!(spec.generate().is_err());
        let mut spec = SyntheticSpec::small(1);
        spec.classes = 0;
        assert!(spec.generate().is_err());
        let mut spec = SyntheticSpec::small(1);
        spec.cluster_spread = 0.0;
        assert!(spec.generate().is_err());
    }

    #[test]
    fn repeated_measurements_have_variable_sample_counts() {
        let spec = RepeatedMeasurementSpec {
            name: "jv".into(),
            tuples: 90,
            attributes: 3,
            classes: 9,
            min_samples: 7,
            max_samples: 29,
            noise: 0.05,
            seed: 5,
        };
        let ds = spec.generate().unwrap();
        assert_eq!(ds.len(), 90);
        assert_eq!(ds.n_classes(), 9);
        let mut counts: Vec<usize> = Vec::new();
        for t in ds.tuples() {
            for v in t.values() {
                counts.push(v.sample_count());
                assert!(v.sample_count() <= 29);
            }
        }
        // Sample counts vary across values (raw measurements, not a fixed s).
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max > min);
    }

    #[test]
    fn repeated_measurement_spec_validation() {
        let mut spec = RepeatedMeasurementSpec {
            name: "jv".into(),
            tuples: 10,
            attributes: 2,
            classes: 2,
            min_samples: 5,
            max_samples: 4,
            noise: 0.1,
            seed: 0,
        };
        assert!(spec.generate().is_err());
        spec.max_samples = 5;
        assert!(spec.generate().is_ok());
        spec.tuples = 0;
        assert!(spec.generate().is_err());
    }
}
