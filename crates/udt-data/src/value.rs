//! Uncertain attribute values.
//!
//! Under the paper's uncertainty model (§3.2) a numerical feature value is
//! represented not by a single number `v` but by a pdf `f` over a bounded
//! interval `[a, b]`; a categorical feature value (§7.2) is a discrete
//! distribution over the attribute's categories. [`UncertainValue`] is the
//! sum type covering both, plus the degenerate point case used by the AVG
//! baseline and by certain (error-free) data.

use serde::{Deserialize, Serialize};
use udt_prob::{DiscreteDist, SampledPdf};

/// A single (possibly uncertain) attribute value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UncertainValue {
    /// A numerical value represented by a bounded, discretised pdf.
    Numeric(SampledPdf),
    /// A categorical value represented by a discrete distribution over the
    /// attribute's categories.
    Categorical(DiscreteDist),
}

impl UncertainValue {
    /// A certain (point) numerical value.
    pub fn point(v: f64) -> Self {
        UncertainValue::Numeric(SampledPdf::point(v).expect("finite point value"))
    }

    /// A certain categorical value (category `c` out of `cardinality`).
    pub fn category(c: usize, cardinality: usize) -> Self {
        UncertainValue::Categorical(
            DiscreteDist::certain(c, cardinality).expect("category within cardinality"),
        )
    }

    /// Whether this value is categorical.
    pub fn is_categorical(&self) -> bool {
        matches!(self, UncertainValue::Categorical(_))
    }

    /// The pdf of a numerical value, if this is one.
    pub fn as_numeric(&self) -> Option<&SampledPdf> {
        match self {
            UncertainValue::Numeric(pdf) => Some(pdf),
            UncertainValue::Categorical(_) => None,
        }
    }

    /// The distribution of a categorical value, if this is one.
    pub fn as_categorical(&self) -> Option<&DiscreteDist> {
        match self {
            UncertainValue::Categorical(d) => Some(d),
            UncertainValue::Numeric(_) => None,
        }
    }

    /// The value's summary statistic used by the Averaging approach (§4.1):
    /// the expected value for numerical values, the most likely category
    /// (as `f64`) for categorical values.
    pub fn expected(&self) -> f64 {
        match self {
            UncertainValue::Numeric(pdf) => pdf.mean(),
            UncertainValue::Categorical(d) => d.mode() as f64,
        }
    }

    /// Number of sample points carried by this value (1 for certain
    /// values). This is the `s` factor driving UDT's extra cost (§4.2).
    pub fn sample_count(&self) -> usize {
        match self {
            UncertainValue::Numeric(pdf) => pdf.len(),
            UncertainValue::Categorical(d) => d.cardinality(),
        }
    }

    /// Collapses the value to its Averaging representative: a point pdf at
    /// the mean for numerical values, a certain distribution at the mode
    /// for categorical values.
    pub fn to_averaged(&self) -> UncertainValue {
        match self {
            UncertainValue::Numeric(pdf) => UncertainValue::point(pdf.mean()),
            UncertainValue::Categorical(d) => UncertainValue::category(d.mode(), d.cardinality()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_value_roundtrip() {
        let v = UncertainValue::point(3.5);
        assert!(!v.is_categorical());
        assert_eq!(v.expected(), 3.5);
        assert_eq!(v.sample_count(), 1);
        assert!(v.as_numeric().unwrap().is_point());
        assert!(v.as_categorical().is_none());
    }

    #[test]
    fn categorical_value_roundtrip() {
        let v = UncertainValue::category(2, 5);
        assert!(v.is_categorical());
        assert_eq!(v.expected(), 2.0);
        assert_eq!(v.sample_count(), 5);
        assert!(v.as_categorical().unwrap().is_certain());
        assert!(v.as_numeric().is_none());
    }

    #[test]
    fn expected_of_uncertain_numeric_is_the_mean() {
        // Tuple 3 of Table 1: mean +2.0.
        let pdf = SampledPdf::new(vec![-1.0, 1.0, 10.0], vec![5.0, 1.0, 2.0]).unwrap();
        let v = UncertainValue::Numeric(pdf);
        assert!((v.expected() - 2.0).abs() < 1e-12);
        assert_eq!(v.sample_count(), 3);
    }

    #[test]
    fn to_averaged_collapses_distributions() {
        let pdf = SampledPdf::new(vec![0.0, 10.0], vec![0.5, 0.5]).unwrap();
        let avg = UncertainValue::Numeric(pdf).to_averaged();
        assert_eq!(avg.sample_count(), 1);
        assert_eq!(avg.expected(), 5.0);

        let d = DiscreteDist::new(vec![0.2, 0.5, 0.3]).unwrap();
        let avg = UncertainValue::Categorical(d).to_averaged();
        assert_eq!(avg.expected(), 1.0);
        assert!(avg.as_categorical().unwrap().is_certain());
    }
}
