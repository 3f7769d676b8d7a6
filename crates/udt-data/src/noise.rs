//! Controlled noise perturbation (§4.4 of the paper).
//!
//! To test the hypothesis that "the closer the uncertainty model matches
//! the true error, the better the accuracy", the paper perturbs each point
//! value with artificial Gaussian noise of standard deviation
//! `σ = (u · |A_j|) / 4` (parameter `u`), and then injects modelled
//! uncertainty of width `w` on top. [`perturb`] implements the
//! perturbation; [`model_w_for_u`] implements the paper's equation (2)
//! predicting the best-matching `w` for a given `u`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::randn;
use crate::tuple::Tuple;
use crate::value::UncertainValue;
use crate::Result;

/// Perturbs every point-valued numerical attribute value by adding
/// Gaussian noise with zero mean and standard deviation
/// `(u · |A_j|) / 4`, where `|A_j|` is the attribute's range width.
///
/// `u = 0` returns an identical copy. Values that are already uncertain
/// are left untouched (the paper perturbs the raw point data *before*
/// uncertainty is added).
pub fn perturb(data: &Dataset, u: f64, seed: u64) -> Result<Dataset> {
    if !u.is_finite() || u < 0.0 {
        return Err(DataError::InvalidParameter {
            name: "u",
            value: u,
        });
    }
    if data.is_empty() {
        return Err(DataError::EmptyDataset);
    }
    if u == 0.0 {
        return Ok(data.clone());
    }

    let mut sigmas = vec![0.0f64; data.n_attributes()];
    for j in data.schema().numerical_indices() {
        sigmas[j] = u * data.attribute_width(j)? / 4.0;
    }

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Dataset::new(data.schema().clone(), data.class_names().to_vec());
    for tuple in data.tuples() {
        // One draw per perturbed value, in attribute order.
        let values = tuple
            .values()
            .iter()
            .zip(&sigmas)
            .map(|(value, &sigma)| match value.as_numeric() {
                Some(pdf) if pdf.is_point() && sigma > 0.0 => {
                    UncertainValue::point(randn::normal(&mut rng, pdf.mean(), sigma))
                }
                _ => value.clone(),
            })
            .collect();
        out.push(Tuple::new(values, tuple.label()))?;
    }
    Ok(out)
}

/// The paper's equation (2): given the artificially injected perturbation
/// `u` and the estimated latent error `kappa = ε·4/|A|` (expressed, like
/// `u` and `w`, as a fraction of the attribute range), the uncertainty
/// width that best models the total error is
/// `w = sqrt(kappa² + u²)`.
pub fn model_w_for_u(kappa: f64, u: f64) -> f64 {
    (kappa * kappa + u * u).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{Attribute, Schema};
    use udt_prob::stats::Summary;

    fn dataset(n: usize) -> Dataset {
        let mut ds = Dataset::numerical(1, 2);
        for i in 0..n {
            ds.push(Tuple::from_points(&[i as f64], i % 2)).unwrap();
        }
        ds
    }

    #[test]
    fn zero_perturbation_is_identity() {
        let ds = dataset(50);
        let p = perturb(&ds, 0.0, 1).unwrap();
        assert_eq!(ds, p);
    }

    #[test]
    fn perturbation_noise_has_the_prescribed_magnitude() {
        let ds = dataset(2000);
        let u = 0.2;
        let p = perturb(&ds, u, 99).unwrap();
        // |A| = 1999, so σ = 0.2 · 1999 / 4 ≈ 99.95.
        let deltas: Vec<f64> = ds
            .tuples()
            .iter()
            .zip(p.tuples())
            .map(|(a, b)| b.value(0).expected() - a.value(0).expected())
            .collect();
        let s = Summary::of(&deltas);
        assert!(
            s.mean.abs() < 10.0,
            "noise should be zero-mean, got {}",
            s.mean
        );
        let sigma = 0.2 * 1999.0 / 4.0;
        assert!((s.std_dev() - sigma).abs() < sigma * 0.1);
    }

    #[test]
    fn perturbation_is_deterministic_per_seed() {
        let ds = dataset(20);
        assert_eq!(perturb(&ds, 0.1, 5).unwrap(), perturb(&ds, 0.1, 5).unwrap());
        assert_ne!(perturb(&ds, 0.1, 5).unwrap(), perturb(&ds, 0.1, 6).unwrap());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let ds = dataset(5);
        assert!(perturb(&ds, -0.1, 0).is_err());
        assert!(perturb(&ds, f64::NAN, 0).is_err());
        assert!(perturb(&Dataset::numerical(1, 1), 0.1, 0).is_err());
    }

    #[test]
    fn model_w_matches_equation_2() {
        assert_eq!(model_w_for_u(0.0, 0.0), 0.0);
        assert!((model_w_for_u(0.3, 0.4) - 0.5).abs() < 1e-12);
        // With no latent error the best w equals u.
        assert_eq!(model_w_for_u(0.0, 0.25), 0.25);
    }

    #[test]
    fn perturbation_matches_the_per_attribute_replacement_loop_bit_for_bit() {
        // The loop perturbation used to run: replace one attribute at a
        // time, copying the tuple's values for every replacement.
        fn per_attribute(data: &Dataset, u: f64, seed: u64) -> Dataset {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut out = Dataset::new(data.schema().clone(), data.class_names().to_vec());
            for tuple in data.tuples() {
                let mut new_tuple = tuple.clone();
                for j in 0..tuple.arity() {
                    let Some(pdf) = tuple.value(j).as_numeric() else {
                        continue;
                    };
                    let sigma = u * data.attribute_width(j).unwrap() / 4.0;
                    if !pdf.is_point() || sigma <= 0.0 {
                        continue;
                    }
                    let noisy = randn::normal(&mut rng, pdf.mean(), sigma);
                    let mut values = new_tuple.values().to_vec();
                    values[j] = UncertainValue::point(noisy);
                    new_tuple = Tuple::new(values, new_tuple.label());
                }
                out.push(new_tuple).unwrap();
            }
            out
        }

        // Numeric, categorical, constant and already-uncertain values
        // side by side.
        let schema = Schema::new(vec![
            Attribute::numerical("x"),
            Attribute::categorical("c", 4),
            Attribute::numerical("constant"),
            Attribute::numerical("y"),
        ]);
        let mut data = Dataset::new(schema, vec!["a".into(), "b".into()]);
        for i in 0..8 {
            let y = if i == 5 {
                UncertainValue::Numeric(
                    udt_prob::SampledPdf::new(vec![-1.0, 3.0], vec![0.5, 0.5]).unwrap(),
                )
            } else {
                UncertainValue::point(i as f64 * 0.7 - 2.0)
            };
            data.push(Tuple::new(
                vec![
                    UncertainValue::point(i as f64 * 1.3),
                    UncertainValue::category(i % 4, 4),
                    UncertainValue::point(-3.0),
                    y,
                ],
                i % 2,
            ))
            .unwrap();
        }
        for (u, seed) in [(0.1, 5), (0.35, 2009)] {
            // Debug prints every f64 in its shortest round-trip form, so
            // equal text is equal bits.
            assert_eq!(
                format!("{:?}", perturb(&data, u, seed).unwrap()),
                format!("{:?}", per_attribute(&data, u, seed))
            );
        }
    }
}
