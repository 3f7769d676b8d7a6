//! The numerical pdf representation used by the UDT algorithms.
//!
//! A [`SampledPdf`] approximates a probability density function over a
//! bounded interval by `s` weighted sample points, exactly as described in
//! §3.2 of the paper: "it would be implemented numerically by storing a set
//! of `s` sample points `x ∈ [a, b]` with the associated value `f(x)`,
//! effectively approximating `f` by a discrete distribution with `s`
//! possible values". Only the points and their masses are stored: a
//! cumulative probability is a running sum over the masses, computed when
//! it is asked for (classification, quantiles, serialization). Tree
//! construction reads presorted columns instead (see `udt-tree`).

use serde::{Deserialize, Serialize, Value};

use crate::error::ProbError;
use crate::Result;

/// Relative tolerance used when comparing probability masses.
pub const MASS_EPSILON: f64 = 1e-9;

/// A bounded, discretised probability density function.
///
/// Invariants (enforced at construction and at deserialization):
/// * at least one sample point;
/// * sample points strictly increasing and finite;
/// * all masses finite and non-negative;
/// * masses sum to 1 (the constructor normalises; deserialization
///   requires it within [`MASS_EPSILON`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SampledPdf {
    points: Vec<f64>,
    mass: Vec<f64>,
}

impl SampledPdf {
    /// Builds a pdf from sample points and (possibly unnormalised) masses.
    ///
    /// The masses are normalised to sum to one. Points must be strictly
    /// increasing.
    pub fn new(points: Vec<f64>, mass: Vec<f64>) -> Result<Self> {
        let total = check_samples(&points, &mass)?;
        let mass: Vec<f64> = mass.into_iter().map(|m| m / total).collect();
        Ok(SampledPdf { points, mass })
    }

    /// Builds a pdf giving equal mass to every sample value. Duplicate
    /// values are merged (their masses accumulate); values are sorted.
    ///
    /// This is the construction used for raw repeated measurements such as
    /// the "JapaneseVowel" attribute samples.
    pub fn from_raw_samples(samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(ProbError::EmptyPdf);
        }
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return Err(ProbError::EmptyPdf);
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let mut points = Vec::with_capacity(sorted.len());
        let mut mass = Vec::with_capacity(sorted.len());
        for v in sorted {
            match points.last() {
                Some(&last) if last == v => {
                    *mass.last_mut().expect("mass parallel to points") += 1.0;
                }
                _ => {
                    points.push(v);
                    mass.push(1.0);
                }
            }
        }
        SampledPdf::new(points, mass)
    }

    /// Builds a pdf from its serialized parts through the constructor's
    /// checks, without renormalising: the masses must already sum to 1
    /// within [`MASS_EPSILON`]. The supplied `cumulative` is checked
    /// against the running sums of the masses and then dropped: one of
    /// another length, or an entry more than [`MASS_EPSILON`] away from
    /// its running sum, is refused. The parts [`Serialize`] wrote build
    /// the pdf back bit for bit.
    pub fn from_parts(points: Vec<f64>, mass: Vec<f64>, cumulative: &[f64]) -> Result<Self> {
        let total = check_samples(&points, &mass)?;
        if !((total - 1.0).abs() <= MASS_EPSILON) {
            return Err(ProbError::Unnormalised { total });
        }
        if cumulative.len() != mass.len() {
            return Err(ProbError::CumulativeLength {
                cumulative: cumulative.len(),
                points: mass.len(),
            });
        }
        let pdf = SampledPdf { points, mass };
        if let Some((index, (&supplied, computed))) = cumulative
            .iter()
            .zip(pdf.cumulative())
            .enumerate()
            .find(|(_, (&s, c))| !((s - c).abs() <= MASS_EPSILON))
        {
            return Err(ProbError::CumulativeMismatch {
                index,
                supplied,
                computed,
            });
        }
        Ok(pdf)
    }

    /// A degenerate pdf that places all mass on a single point value.
    pub fn point(value: f64) -> Result<Self> {
        SampledPdf::new(vec![value], vec![1.0])
    }

    /// Number of sample points (`s` in the paper).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether this pdf is a degenerate point value.
    pub fn is_point(&self) -> bool {
        self.points.len() == 1
    }

    /// `false` — a valid pdf always has at least one sample point; provided
    /// for API symmetry with collection types.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sample points, strictly increasing.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// The normalised probability masses, parallel to [`points`](Self::points).
    pub fn mass(&self) -> &[f64] {
        &self.mass
    }

    /// `P[X <= points[i]]` for each `i` in order: the running sums of the
    /// masses, added in index order, with the last pinned to exactly 1
    /// against floating-point drift.
    pub fn cumulative(&self) -> impl Iterator<Item = f64> + '_ {
        let last = self.mass.len() - 1;
        self.mass.iter().enumerate().scan(0.0, move |acc, (i, &m)| {
            *acc += m;
            Some(if i == last { 1.0 } else { *acc })
        })
    }

    /// Lower end of the pdf domain (`a` in the paper).
    pub fn lo(&self) -> f64 {
        self.points[0]
    }

    /// Upper end of the pdf domain (`b` in the paper).
    pub fn hi(&self) -> f64 {
        *self.points.last().expect("non-empty")
    }

    /// Iterates over `(point, mass)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.points.iter().copied().zip(self.mass.iter().copied())
    }

    /// Expected value `∫ x f(x) dx` of the discretised pdf.
    pub fn mean(&self) -> f64 {
        self.iter().map(|(x, m)| x * m).sum()
    }

    /// Variance of the discretised pdf.
    pub fn variance(&self) -> f64 {
        let mu = self.mean();
        self.iter().map(|(x, m)| m * (x - mu) * (x - mu)).sum()
    }

    /// Standard deviation of the discretised pdf.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// `P[X <= x]`, the "left probability" of a split at `x`.
    ///
    /// Computed as the cumulative mass of the last sample point `<= x`,
    /// which matches the paper's convention that a tuple passes the test
    /// `v <= z` when its value is at most the split point. It is `0.0`
    /// below [`lo`](Self::lo) and exactly `1.0` at or above
    /// [`hi`](Self::hi); in between it sums the masses up to that point.
    pub fn prob_le(&self, x: f64) -> f64 {
        match self.points.partition_point(|&p| p <= x) {
            0 => 0.0,
            n => self.cumulative().nth(n - 1).expect("n <= len"),
        }
    }

    /// `P[X > x]`, the "right probability" of a split at `x`.
    pub fn prob_gt(&self, x: f64) -> f64 {
        (1.0 - self.prob_le(x)).max(0.0)
    }

    /// Probability mass inside the half-open interval `(lo, hi]`.
    ///
    /// The half-open convention matches the paper's interval decomposition
    /// `(q_i, q_{i+1}]` (§5.1) so that adjacent intervals never double
    /// count a sample point.
    pub fn prob_in(&self, lo: f64, hi: f64) -> Result<f64> {
        if !(lo <= hi) || !lo.is_finite() || !hi.is_finite() {
            return Err(ProbError::InvalidInterval { lo, hi });
        }
        Ok((self.prob_le(hi) - self.prob_le(lo)).max(0.0))
    }

    /// Splits this pdf at `z` into a left part (mass at points `<= z`) and a
    /// right part (mass at points `> z`), each renormalised.
    ///
    /// Returns `(p_left, left_pdf, right_pdf)` where `p_left` is the
    /// probability mass that flows left. Either pdf is `None` when its side
    /// receives no mass. This is exactly the *fractional tuple* operation of
    /// §3.2 / §4.2: the child pdfs are the parent pdf restricted to the
    /// sub-domain and scaled by `1 / w`.
    pub fn split_at(&self, z: f64) -> (f64, Option<SampledPdf>, Option<SampledPdf>) {
        self.split_at_with(z, self.prob_le(z))
    }

    /// Like [`split_at`](Self::split_at) but reuses an already-computed
    /// `p_left`, which **must** equal `self.prob_le(z)`. Callers that have
    /// just evaluated the CDF (e.g. the batch classification engine's
    /// one-sided fast-path check) avoid evaluating it twice this way;
    /// the arithmetic is identical to `split_at`.
    pub fn split_at_with(
        &self,
        z: f64,
        p_left: f64,
    ) -> (f64, Option<SampledPdf>, Option<SampledPdf>) {
        debug_assert_eq!(p_left.to_bits(), self.prob_le(z).to_bits());
        if p_left <= MASS_EPSILON {
            return (0.0, None, Some(self.clone()));
        }
        if p_left >= 1.0 - MASS_EPSILON {
            return (1.0, Some(self.clone()), None);
        }
        let mut left_points = Vec::new();
        let mut left_mass = Vec::new();
        let mut right_points = Vec::new();
        let mut right_mass = Vec::new();
        for (x, m) in self.iter() {
            if m <= 0.0 {
                continue;
            }
            if x <= z {
                left_points.push(x);
                left_mass.push(m);
            } else {
                right_points.push(x);
                right_mass.push(m);
            }
        }
        let left = SampledPdf::new(left_points, left_mass).ok();
        let right = SampledPdf::new(right_points, right_mass).ok();
        (p_left, left, right)
    }

    /// Restricts the pdf to `[lo, hi]` and renormalises. Returns `None`
    /// when no mass falls inside the interval.
    pub fn truncate(&self, lo: f64, hi: f64) -> Option<SampledPdf> {
        let mut points = Vec::new();
        let mut mass = Vec::new();
        for (x, m) in self.iter() {
            if x >= lo && x <= hi && m > 0.0 {
                points.push(x);
                mass.push(m);
            }
        }
        SampledPdf::new(points, mass).ok()
    }

    /// Mixes two pdfs with the given non-negative weights, producing the
    /// weighted mixture distribution. Used when re-assembling "guess"
    /// distributions for missing values (§2) and in tests.
    pub fn mixture(parts: &[(f64, &SampledPdf)]) -> Result<SampledPdf> {
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        for &(w, pdf) in parts {
            if !w.is_finite() || w < 0.0 {
                return Err(ProbError::InvalidParameter {
                    name: "mixture weight",
                    value: w,
                });
            }
            for (x, m) in pdf.iter() {
                pairs.push((x, w * m));
            }
        }
        if pairs.is_empty() {
            return Err(ProbError::EmptyPdf);
        }
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let mut points = Vec::with_capacity(pairs.len());
        let mut mass = Vec::with_capacity(pairs.len());
        for (x, m) in pairs {
            match points.last() {
                Some(&last) if last == x => *mass.last_mut().expect("parallel") += m,
                _ => {
                    points.push(x);
                    mass.push(m);
                }
            }
        }
        SampledPdf::new(points, mass)
    }
}

/// The constructor's checks on raw sample points and masses: both
/// non-empty and of equal length, points finite and strictly increasing,
/// masses finite and non-negative with a positive finite total, which is
/// returned.
fn check_samples(points: &[f64], mass: &[f64]) -> Result<f64> {
    if points.is_empty() || points.len() != mass.len() {
        return Err(ProbError::EmptyPdf);
    }
    for (i, w) in points.windows(2).enumerate() {
        if !(w[0] < w[1]) || !w[0].is_finite() || !w[1].is_finite() {
            return Err(ProbError::UnsortedPoints { index: i + 1 });
        }
    }
    if !points[0].is_finite() {
        return Err(ProbError::UnsortedPoints { index: 0 });
    }
    let mut total = 0.0;
    for (i, &m) in mass.iter().enumerate() {
        if !m.is_finite() || m < 0.0 {
            return Err(ProbError::InvalidMass { index: i, value: m });
        }
        total += m;
    }
    if total <= 0.0 || !total.is_finite() {
        return Err(ProbError::ZeroMass { total });
    }
    Ok(total)
}

/// Writes `points`, `mass` and the cumulative masses `P[X <= points[i]]`,
/// in that order: the wire and model formats carry the cumulative array
/// even though the pdf does not store it.
impl Serialize for SampledPdf {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("points".to_string(), self.points.serialize()),
            ("mass".to_string(), self.mass.serialize()),
            (
                "cumulative".to_string(),
                Value::Seq(self.cumulative().map(Value::Num).collect()),
            ),
        ])
    }
}

/// Reads a pdf through [`SampledPdf::from_parts`].
impl Deserialize for SampledPdf {
    fn deserialize(v: &Value) -> std::result::Result<Self, serde::Error> {
        let field = |key: &str| -> std::result::Result<Vec<f64>, serde::Error> {
            Vec::deserialize(serde::map_field(v, key, "SampledPdf")?)
        };
        let (points, mass, supplied) = (field("points")?, field("mass")?, field("cumulative")?);
        SampledPdf::from_parts(points, mass, &supplied)
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pdf(points: &[f64], mass: &[f64]) -> SampledPdf {
        SampledPdf::new(points.to_vec(), mass.to_vec()).expect("valid pdf")
    }

    #[test]
    fn construction_normalises_mass() {
        let p = pdf(&[1.0, 2.0, 3.0], &[2.0, 2.0, 4.0]);
        assert_eq!(p.mass(), &[0.25, 0.25, 0.5]);
        assert_eq!(p.cumulative().collect::<Vec<_>>(), [0.25, 0.5, 1.0]);
        assert_eq!(p.lo(), 1.0);
        assert_eq!(p.hi(), 3.0);
        assert_eq!(p.len(), 3);
        assert!(!p.is_point());
    }

    #[test]
    fn construction_rejects_invalid_input() {
        assert_eq!(
            SampledPdf::new(vec![], vec![]).unwrap_err(),
            ProbError::EmptyPdf
        );
        assert_eq!(
            SampledPdf::new(vec![1.0], vec![1.0, 2.0]).unwrap_err(),
            ProbError::EmptyPdf
        );
        assert!(matches!(
            SampledPdf::new(vec![1.0, 1.0], vec![0.5, 0.5]).unwrap_err(),
            ProbError::UnsortedPoints { index: 1 }
        ));
        assert!(matches!(
            SampledPdf::new(vec![2.0, 1.0], vec![0.5, 0.5]).unwrap_err(),
            ProbError::UnsortedPoints { .. }
        ));
        assert!(matches!(
            SampledPdf::new(vec![1.0, 2.0], vec![0.5, -0.5]).unwrap_err(),
            ProbError::InvalidMass { index: 1, .. }
        ));
        assert!(matches!(
            SampledPdf::new(vec![1.0, 2.0], vec![0.0, 0.0]).unwrap_err(),
            ProbError::ZeroMass { .. }
        ));
    }

    /// Deserialises a pdf payload, rendering any refusal as text.
    fn from_json(payload: &str) -> std::result::Result<SampledPdf, String> {
        serde_json::from_str(payload).map_err(|e| e.to_string())
    }

    #[test]
    fn deserialization_rejects_an_empty_pdf() {
        let err = from_json(r#"{"points":[],"mass":[],"cumulative":[]}"#).unwrap_err();
        assert!(err.contains("at least one sample point"), "{err}");
    }

    #[test]
    fn deserialization_rejects_mismatched_points_and_mass() {
        let err = from_json(r#"{"points":[1.0,2.0],"mass":[1.0],"cumulative":[1.0]}"#).unwrap_err();
        assert!(err.contains("at least one sample point"), "{err}");
    }

    #[test]
    fn deserialization_rejects_unsorted_points() {
        let err = from_json(r#"{"points":[2.0,1.0],"mass":[0.5,0.5],"cumulative":[0.5,1.0]}"#)
            .unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn deserialization_rejects_negative_mass() {
        let err = from_json(r#"{"points":[1.0,2.0],"mass":[-0.5,1.5],"cumulative":[-0.5,1.0]}"#)
            .unwrap_err();
        assert!(err.contains("index 0 is invalid"), "{err}");
    }

    #[test]
    fn deserialization_rejects_unnormalised_mass() {
        let err = from_json(r#"{"points":[1.0,2.0],"mass":[0.5,0.6],"cumulative":[0.5,1.0]}"#)
            .unwrap_err();
        assert!(err.contains("sum to 1"), "{err}");
    }

    #[test]
    fn deserialization_rejects_a_cumulative_of_the_wrong_length() {
        let err =
            from_json(r#"{"points":[1.0,2.0],"mass":[0.5,0.5],"cumulative":[1.0]}"#).unwrap_err();
        assert!(err.contains("1 cumulative masses for 2"), "{err}");
    }

    #[test]
    fn deserialization_rejects_a_cumulative_that_disagrees_with_the_mass() {
        let err = from_json(r#"{"points":[1.0,2.0],"mass":[0.5,0.5],"cumulative":[0.9,1.0]}"#)
            .unwrap_err();
        assert!(err.contains("cumulative mass 0"), "{err}");
    }

    #[test]
    fn from_raw_samples_merges_duplicates() {
        let p = SampledPdf::from_raw_samples(&[3.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(p.points(), &[1.0, 2.0, 3.0]);
        assert_eq!(p.mass(), &[0.25, 0.25, 0.5]);
    }

    #[test]
    fn point_pdf_behaviour() {
        let p = SampledPdf::point(5.0).unwrap();
        assert!(p.is_point());
        assert_eq!(p.mean(), 5.0);
        assert_eq!(p.variance(), 0.0);
        assert_eq!(p.prob_le(4.999), 0.0);
        assert_eq!(p.prob_le(5.0), 1.0);
    }

    #[test]
    fn mean_and_variance_match_hand_computation() {
        // Tuple 3 of Table 1 in the paper: values -1, +1, +10 with
        // probabilities 5/8, 1/8, 2/8; expected value +2.0.
        let p = pdf(&[-1.0, 1.0, 10.0], &[5.0, 1.0, 2.0]);
        assert!((p.mean() - 2.0).abs() < 1e-12);
        let var = 5.0 / 8.0 * 9.0 + 1.0 / 8.0 * 1.0 + 2.0 / 8.0 * 64.0;
        assert!((p.variance() - var).abs() < 1e-9);
    }

    #[test]
    fn prob_le_at_and_between_points() {
        let p = pdf(&[0.0, 1.0, 2.0, 3.0], &[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(p.prob_le(-0.5), 0.0);
        assert!((p.prob_le(0.0) - 0.1).abs() < 1e-12);
        assert!((p.prob_le(0.5) - 0.1).abs() < 1e-12);
        assert!((p.prob_le(1.0) - 0.3).abs() < 1e-12);
        assert!((p.prob_le(2.9) - 0.6).abs() < 1e-12);
        assert_eq!(p.prob_le(3.0), 1.0);
        assert_eq!(p.prob_le(100.0), 1.0);
        assert!((p.prob_gt(1.0) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn prob_in_half_open_intervals_partition_mass() {
        let p = pdf(&[0.0, 1.0, 2.0, 3.0], &[0.1, 0.2, 0.3, 0.4]);
        let a = p.prob_in(-1.0, 1.0).unwrap();
        let b = p.prob_in(1.0, 2.5).unwrap();
        let c = p.prob_in(2.5, 3.0).unwrap();
        assert!((a + b + c - 1.0).abs() < 1e-12);
        assert!(p.prob_in(5.0, 1.0).is_err());
    }

    #[test]
    fn split_at_produces_renormalised_children() {
        // Fig. 1 of the paper: pdf over [-2.5, 2], split point -1,
        // p_left = 0.3, p_right = 0.7.
        let p = pdf(
            &[-2.5, -2.0, -1.0, 0.0, 1.0, 2.0],
            &[0.1, 0.1, 0.1, 0.2, 0.3, 0.2],
        );
        let (pl, left, right) = p.split_at(-1.0);
        assert!((pl - 0.3).abs() < 1e-12);
        let left = left.unwrap();
        let right = right.unwrap();
        // Children are renormalised.
        assert!((left.mass().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((right.mass().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(left.hi(), -1.0);
        assert_eq!(right.lo(), 0.0);
        // The renormalised left mass is the original conditional mass.
        assert!((left.prob_le(-2.0) - (0.2 / 0.3)).abs() < 1e-12);
    }

    #[test]
    fn split_outside_domain_returns_single_side() {
        let p = pdf(&[1.0, 2.0], &[0.5, 0.5]);
        let (pl, left, right) = p.split_at(0.0);
        assert_eq!(pl, 0.0);
        assert!(left.is_none());
        assert_eq!(right.unwrap(), p);

        let (pl, left, right) = p.split_at(2.0);
        assert_eq!(pl, 1.0);
        assert_eq!(left.unwrap(), p);
        assert!(right.is_none());
    }

    #[test]
    fn truncate_restricts_and_renormalises() {
        let p = pdf(&[0.0, 1.0, 2.0, 3.0], &[0.25, 0.25, 0.25, 0.25]);
        let t = p.truncate(0.5, 2.5).unwrap();
        assert_eq!(t.points(), &[1.0, 2.0]);
        assert_eq!(t.mass(), &[0.5, 0.5]);
        assert!(p.truncate(10.0, 11.0).is_none());
    }

    #[test]
    fn mixture_combines_and_normalises() {
        let a = pdf(&[0.0, 1.0], &[0.5, 0.5]);
        let b = pdf(&[1.0, 2.0], &[0.5, 0.5]);
        let m = SampledPdf::mixture(&[(1.0, &a), (1.0, &b)]).unwrap();
        assert_eq!(m.points(), &[0.0, 1.0, 2.0]);
        assert_eq!(m.mass(), &[0.25, 0.5, 0.25]);
        assert!(SampledPdf::mixture(&[(-1.0, &a)]).is_err());
        assert!(SampledPdf::mixture(&[]).is_err());
    }
}
