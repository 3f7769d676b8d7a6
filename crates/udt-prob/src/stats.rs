//! Small numeric helpers: error function and descriptive statistics.
//!
//! The truncated-Gaussian error model of §4.3 needs the Gaussian cdf, and
//! the noise and pdf tests check sample moments with [`Summary`]. None of
//! the allowed dependency crates provide these, so they are implemented
//! here.

/// The error function `erf(x)`, computed with the Abramowitz & Stegun
/// formula 7.1.26 (maximum absolute error ≈ 1.5e-7, far below what the
/// decision-tree experiments can resolve).
///
/// ```
/// use udt_prob::stats::erf;
/// assert!((erf(0.0)).abs() < 1e-7);
/// assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
/// assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
/// ```
pub fn erf(x: f64) -> f64 {
    // Constants of A&S 7.1.26.
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;

    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Cumulative distribution function of the standard normal distribution.
///
/// ```
/// use udt_prob::stats::std_normal_cdf;
/// assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-9);
/// assert!(std_normal_cdf(5.0) > 0.999999);
/// ```
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Cdf of a normal distribution with the given `mean` and `std_dev`.
pub fn normal_cdf(x: f64, mean: f64, std_dev: f64) -> f64 {
    if std_dev <= 0.0 {
        // Degenerate distribution: a step function at the mean.
        return if x < mean { 0.0 } else { 1.0 };
    }
    std_normal_cdf((x - mean) / std_dev)
}

/// Descriptive statistics of a sample, computed in a single pass with
/// Welford's algorithm for numerical stability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Sample mean. Zero when the sample is empty.
    pub mean: f64,
    /// Unbiased sample variance (divides by `n - 1`). Zero when fewer than
    /// two observations are present.
    pub variance: f64,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics over `values`. Non-finite values are
    /// ignored.
    pub fn of(values: &[f64]) -> Self {
        let mut count = 0usize;
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            if !v.is_finite() {
                continue;
            }
            count += 1;
            let delta = v - mean;
            mean += delta / count as f64;
            m2 += delta * (v - mean);
            min = min.min(v);
            max = max.max(v);
        }
        let variance = if count > 1 {
            m2 / (count - 1) as f64
        } else {
            0.0
        };
        Summary {
            count,
            mean: if count == 0 { 0.0 } else { mean },
            variance,
            min,
            max,
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Width of the sample range (`max - min`), or zero if fewer than two
    /// observations are present.
    pub fn range(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.max - self.min
        }
    }
}

/// Binary logarithm that maps `0` to `0`, the convention used in entropy
/// computations (`0 · log₂ 0 = 0`).
#[inline]
pub fn xlog2x(p: f64) -> f64 {
    if p <= 0.0 {
        0.0
    } else {
        p * p.log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_matches_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204999),
            (1.0, 0.8427008),
            (2.0, 0.9953223),
            (3.0, 0.9999779),
        ];
        for (x, expected) in cases {
            assert!((erf(x) - expected).abs() < 2e-6, "erf({x})");
            assert!((erf(-x) + expected).abs() < 2e-6, "erf(-{x})");
        }
    }

    #[test]
    fn normal_cdf_is_monotone_and_symmetric() {
        let mut prev = 0.0;
        for i in 0..100 {
            let x = -5.0 + 0.1 * i as f64;
            let c = normal_cdf(x, 0.0, 1.0);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        assert!((normal_cdf(1.0, 1.0, 2.0) - 0.5).abs() < 1e-9);
        let a = normal_cdf(-1.5, 0.0, 1.0);
        let b = normal_cdf(1.5, 0.0, 1.0);
        assert!((a + b - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_normal_cdf_is_a_step() {
        assert_eq!(normal_cdf(0.9, 1.0, 0.0), 0.0);
        assert_eq!(normal_cdf(1.0, 1.0, 0.0), 1.0);
        assert_eq!(normal_cdf(1.1, 1.0, 0.0), 1.0);
    }

    #[test]
    fn summary_of_simple_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic sample is 32/7.
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.range(), 7.0);
    }

    #[test]
    fn summary_ignores_non_finite_and_handles_empty() {
        let s = Summary::of(&[f64::NAN, 1.0, f64::INFINITY, 3.0]);
        assert_eq!(s.count, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);

        let empty = Summary::of(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.variance, 0.0);
        assert_eq!(empty.range(), 0.0);
    }

    #[test]
    fn xlog2x_convention() {
        assert_eq!(xlog2x(0.0), 0.0);
        assert_eq!(xlog2x(-0.1), 0.0);
        assert!((xlog2x(0.5) + 0.5).abs() < 1e-12);
        assert_eq!(xlog2x(1.0), 0.0);
    }
}
