//! Parametric error models used to synthesise uncertainty.
//!
//! §4.3 of the paper injects uncertainty into point-valued UCI data by
//! centring a pdf at each reported value `v`:
//!
//! * the pdf domain is `[v - w·|A|/2, v + w·|A|/2]`, where `|A|` is the
//!   width of the attribute's range over the whole data set and `w` a
//!   controlled parameter;
//! * the pdf is either **uniform** over that interval (quantisation noise)
//!   or a **Gaussian** with standard deviation `(b - a)/4`, chopped at the
//!   interval ends and renormalised (random measurement noise);
//! * the pdf is discretised to `s` sample points.
//!
//! [`ErrorModel`] captures both options and produces [`SampledPdf`]s.

use crate::error::ProbError;
use crate::pdf::SampledPdf;
use crate::stats::normal_cdf;
use crate::Result;

/// The shape of the error distribution placed around a point value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorModel {
    /// Uniform density over the uncertainty interval — the paper's model
    /// for quantisation noise.
    Uniform,
    /// Truncated Gaussian centred at the point value with standard
    /// deviation equal to a quarter of the interval width — the paper's
    /// model for random measurement noise (§4.3, footnote 5).
    Gaussian,
}

impl ErrorModel {
    /// Human-readable name matching the paper's tables ("Gaussian" /
    /// "Uniform").
    pub fn name(&self) -> &'static str {
        match self {
            ErrorModel::Uniform => "Uniform",
            ErrorModel::Gaussian => "Gaussian",
        }
    }

    /// Builds the discretised pdf for a value `mean` whose uncertainty
    /// interval has total width `width`, using `s` sample points.
    ///
    /// * `width <= 0` or `s == 0` is rejected.
    /// * `s == 1` degenerates to a point pdf at `mean` (useful for testing
    ///   the limit behaviour).
    ///
    /// The `s` sample points are placed at the centres of `s` equal-width
    /// bins covering `[mean - width/2, mean + width/2]`, and each point
    /// carries the probability mass of its bin under the chosen model.
    /// This midpoint-mass construction keeps the discretised mean equal to
    /// `mean` for both models (both are symmetric about the centre).
    pub fn discretise(&self, mean: f64, width: f64, s: usize) -> Result<SampledPdf> {
        if !width.is_finite() || width <= 0.0 {
            return Err(ProbError::InvalidParameter {
                name: "width",
                value: width,
            });
        }
        if s == 0 {
            return Err(ProbError::InvalidParameter {
                name: "sample count",
                value: 0.0,
            });
        }
        if s == 1 {
            return SampledPdf::point(mean);
        }
        let lo = mean - width / 2.0;
        let hi = mean + width / 2.0;
        let bin = width / s as f64;
        let mut points = Vec::with_capacity(s);
        let mut mass = Vec::with_capacity(s);
        match self {
            ErrorModel::Uniform => {
                for i in 0..s {
                    points.push(lo + (i as f64 + 0.5) * bin);
                    mass.push(1.0);
                }
            }
            ErrorModel::Gaussian => {
                // σ = (b - a) / 4, per §4.3. The Gaussian is chopped at
                // [lo, hi]; SampledPdf::new renormalises, which implements
                // the paper's footnote 5 renormalisation.
                let sigma = width / 4.0;
                let mut prev = normal_cdf(lo, mean, sigma);
                for i in 0..s {
                    let right_edge = lo + (i as f64 + 1.0) * bin;
                    let right_edge = if i + 1 == s { hi } else { right_edge };
                    let c = normal_cdf(right_edge, mean, sigma);
                    points.push(lo + (i as f64 + 0.5) * bin);
                    mass.push((c - prev).max(0.0));
                    prev = c;
                }
            }
        }
        SampledPdf::new(points, mass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_terms() {
        assert_eq!(ErrorModel::Gaussian.name(), "Gaussian");
        assert_eq!(ErrorModel::Uniform.name(), "Uniform");
    }

    #[test]
    fn uniform_discretisation_is_flat_and_centred() {
        let p = ErrorModel::Uniform.discretise(10.0, 4.0, 8).unwrap();
        assert_eq!(p.len(), 8);
        for &m in p.mass() {
            assert!((m - 0.125).abs() < 1e-12);
        }
        assert!((p.mean() - 10.0).abs() < 1e-9);
        assert!(p.lo() >= 8.0 && p.hi() <= 12.0);
    }

    #[test]
    fn gaussian_discretisation_is_unimodal_and_centred() {
        let p = ErrorModel::Gaussian.discretise(0.0, 8.0, 101).unwrap();
        assert_eq!(p.len(), 101);
        assert!((p.mean()).abs() < 1e-6);
        // Mass at the centre exceeds mass near the chopped tails.
        let centre = p.mass()[50];
        assert!(centre > p.mass()[0] * 3.0);
        assert!(centre > p.mass()[100] * 3.0);
        // Symmetry about the mean.
        assert!((p.mass()[10] - p.mass()[90]).abs() < 1e-9);
        // σ of the truncated, discretised Gaussian is close to width/4 = 2
        // (slightly smaller because of truncation at ±2σ).
        let sd = p.std_dev();
        assert!(sd > 1.5 && sd < 2.0, "sd = {sd}");
    }

    #[test]
    fn single_sample_point_degenerates_to_point_pdf() {
        let p = ErrorModel::Gaussian.discretise(3.0, 1.0, 1).unwrap();
        assert!(p.is_point());
        assert_eq!(p.mean(), 3.0);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(ErrorModel::Uniform.discretise(0.0, 0.0, 10).is_err());
        assert!(ErrorModel::Uniform.discretise(0.0, -1.0, 10).is_err());
        assert!(ErrorModel::Gaussian.discretise(0.0, 1.0, 0).is_err());
        assert!(ErrorModel::Gaussian.discretise(0.0, f64::NAN, 10).is_err());
    }
}
