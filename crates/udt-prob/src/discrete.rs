//! Discrete distributions over categorical values.
//!
//! §7.2 of the paper extends the uncertainty model to categorical
//! attributes: the value of tuple `t_i` under categorical attribute `A_j`
//! is a discrete probability distribution `f_{i,j} : dom(A_j) → [0, 1]`
//! with `Σ_x f_{i,j}(x) = 1`. [`DiscreteDist`] represents such a
//! distribution over category indices `0..cardinality`.

use serde::{Deserialize, Serialize, Value};

use crate::error::ProbError;
use crate::pdf::MASS_EPSILON;
use crate::Result;

/// A discrete probability distribution over category indices.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DiscreteDist {
    /// `probs[v]` = probability that the attribute takes category `v`.
    probs: Vec<f64>,
}

impl DiscreteDist {
    /// Builds a distribution from (possibly unnormalised) category weights.
    pub fn new(weights: Vec<f64>) -> Result<Self> {
        let total = check_weights(&weights)?;
        Ok(DiscreteDist {
            probs: weights.into_iter().map(|w| w / total).collect(),
        })
    }

    /// Builds a distribution from its serialized probabilities through
    /// the constructor's checks, without renormalising: they must
    /// already sum to 1 within [`MASS_EPSILON`]. The probabilities
    /// [`Serialize`] wrote build the distribution back bit for bit.
    pub fn from_probs(probs: Vec<f64>) -> Result<Self> {
        let total = check_weights(&probs)?;
        if !((total - 1.0).abs() <= MASS_EPSILON) {
            return Err(ProbError::Unnormalised { total });
        }
        Ok(DiscreteDist { probs })
    }

    /// A distribution with all mass on one category, out of `cardinality`
    /// categories.
    pub fn certain(category: usize, cardinality: usize) -> Result<Self> {
        if cardinality == 0 || category >= cardinality {
            return Err(ProbError::EmptySupport);
        }
        let mut weights = vec![0.0; cardinality];
        weights[category] = 1.0;
        // `new` would reject an all-zero vector; here exactly one entry is 1.
        DiscreteDist::new(weights)
    }

    /// A distribution built from raw categorical observations (e.g. the
    /// top-level-domain counts of §7.2's proxy-log example).
    pub fn from_observations(observations: &[usize], cardinality: usize) -> Result<Self> {
        if cardinality == 0 {
            return Err(ProbError::EmptySupport);
        }
        let mut weights = vec![0.0; cardinality];
        for &o in observations {
            if o >= cardinality {
                return Err(ProbError::InvalidMass {
                    index: o,
                    value: o as f64,
                });
            }
            weights[o] += 1.0;
        }
        DiscreteDist::new(weights)
    }

    /// Number of categories in the support (the attribute's cardinality).
    pub fn cardinality(&self) -> usize {
        self.probs.len()
    }

    /// Probability of category `v` (zero when out of range).
    pub fn prob(&self, v: usize) -> f64 {
        self.probs.get(v).copied().unwrap_or(0.0)
    }

    /// All category probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The most likely category (lowest index wins ties).
    pub fn mode(&self) -> usize {
        let mut best = 0;
        let mut best_p = self.probs[0];
        for (i, &p) in self.probs.iter().enumerate().skip(1) {
            if p > best_p {
                best = i;
                best_p = p;
            }
        }
        best
    }

    /// Shannon entropy (base 2) of the distribution.
    pub fn entropy(&self) -> f64 {
        -self
            .probs
            .iter()
            .map(|&p| crate::stats::xlog2x(p))
            .sum::<f64>()
    }

    /// Whether the distribution is (numerically) certain about one value.
    pub fn is_certain(&self) -> bool {
        self.probs.iter().any(|&p| p >= 1.0 - 1e-12)
    }
}

/// The constructor's checks on raw category weights: at least one, each
/// finite and non-negative, with a positive total, which is returned.
fn check_weights(weights: &[f64]) -> Result<f64> {
    if weights.is_empty() {
        return Err(ProbError::EmptySupport);
    }
    let mut total = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w < 0.0 {
            return Err(ProbError::InvalidMass { index: i, value: w });
        }
        total += w;
    }
    if total <= 0.0 {
        return Err(ProbError::ZeroMass { total });
    }
    Ok(total)
}

/// Reads a distribution through [`DiscreteDist::from_probs`].
impl Deserialize for DiscreteDist {
    fn deserialize(v: &Value) -> std::result::Result<Self, serde::Error> {
        let probs: Vec<f64> = Vec::deserialize(serde::map_field(v, "probs", "DiscreteDist")?)?;
        DiscreteDist::from_probs(probs).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalises() {
        let d = DiscreteDist::new(vec![2.0, 2.0, 4.0]).unwrap();
        assert_eq!(d.cardinality(), 3);
        assert_eq!(d.probs(), &[0.25, 0.25, 0.5]);
        assert_eq!(d.mode(), 2);
        assert!(!d.is_certain());
    }

    #[test]
    fn invalid_construction_is_rejected() {
        assert_eq!(
            DiscreteDist::new(vec![]).unwrap_err(),
            ProbError::EmptySupport
        );
        assert!(matches!(
            DiscreteDist::new(vec![1.0, -1.0]).unwrap_err(),
            ProbError::InvalidMass { index: 1, .. }
        ));
        assert!(matches!(
            DiscreteDist::new(vec![0.0, 0.0]).unwrap_err(),
            ProbError::ZeroMass { .. }
        ));
    }

    /// Deserialises a distribution payload, rendering any refusal as text.
    fn from_json(payload: &str) -> std::result::Result<DiscreteDist, String> {
        serde_json::from_str(payload).map_err(|e| e.to_string())
    }

    #[test]
    fn deserialization_reads_back_what_serialization_wrote() {
        let d = DiscreteDist::new(vec![1.0, 2.0, 4.0]).unwrap();
        let text = serde_json::to_string(&d).unwrap();
        let back = from_json(&text).unwrap();
        assert_eq!(back, d);
        for (a, b) in back.probs().iter().zip(d.probs()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn deserialization_rejects_an_empty_support() {
        let err = from_json(r#"{"probs":[]}"#).unwrap_err();
        assert!(err.contains("at least one category"), "{err}");
    }

    #[test]
    fn deserialization_rejects_negative_probabilities() {
        // Sums to 1, so only the sign check catches it.
        let err = from_json(r#"{"probs":[3.0,-2.0]}"#).unwrap_err();
        assert!(err.contains("index 1 is invalid"), "{err}");
    }

    #[test]
    fn deserialization_rejects_unnormalised_probabilities() {
        let err = from_json(r#"{"probs":[0.5,0.6]}"#).unwrap_err();
        assert!(err.contains("sum to 1"), "{err}");
    }

    #[test]
    fn certain_distribution() {
        let d = DiscreteDist::certain(2, 4).unwrap();
        assert_eq!(d.prob(2), 1.0);
        assert_eq!(d.prob(0), 0.0);
        assert_eq!(d.prob(99), 0.0);
        assert!(d.is_certain());
        assert_eq!(d.entropy(), 0.0);
        assert!(DiscreteDist::certain(4, 4).is_err());
        assert!(DiscreteDist::certain(0, 0).is_err());
    }

    #[test]
    fn from_observations_counts_frequencies() {
        // The §7.2 flower-colour example: 80 % yellow, 20 % pink.
        let obs = [0, 0, 0, 0, 1];
        let d = DiscreteDist::from_observations(&obs, 2).unwrap();
        assert!((d.prob(0) - 0.8).abs() < 1e-12);
        assert!((d.prob(1) - 0.2).abs() < 1e-12);
        assert!(DiscreteDist::from_observations(&[3], 2).is_err());
    }

    #[test]
    fn entropy_is_maximal_for_uniform() {
        let u = DiscreteDist::new(vec![1.0; 4]).unwrap();
        assert!((u.entropy() - 2.0).abs() < 1e-12);
        let skew = DiscreteDist::new(vec![9.0, 1.0, 1.0, 1.0]).unwrap();
        assert!(skew.entropy() < u.entropy());
    }

    #[test]
    fn mode_breaks_ties_towards_lower_index() {
        let d = DiscreteDist::new(vec![1.0, 1.0]).unwrap();
        assert_eq!(d.mode(), 0);
    }
}
