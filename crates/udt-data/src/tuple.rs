//! Labelled training/test tuples.
//!
//! A [`Tuple`] couples a feature vector of [`UncertainValue`]s with a class
//! label (§3.1). Class labels are small integer indices into the data set's
//! class-name table; this keeps tuples compact and lets the tree code use
//! plain `Vec<f64>` class-count accumulators.

use serde::{Deserialize, Serialize};

use crate::value::UncertainValue;

/// A labelled tuple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    values: Vec<UncertainValue>,
    label: usize,
}

impl Tuple {
    /// Creates a tuple from its feature values and class label.
    pub fn new(values: Vec<UncertainValue>, label: usize) -> Self {
        Tuple { values, label }
    }

    /// Creates a point-valued tuple from plain numbers (all attributes
    /// numerical and certain).
    pub fn from_points(points: &[f64], label: usize) -> Self {
        Tuple {
            values: points.iter().map(|&v| UncertainValue::point(v)).collect(),
            label,
        }
    }

    /// The tuple's class label index.
    pub fn label(&self) -> usize {
        self.label
    }

    /// The tuple's feature values.
    pub fn values(&self) -> &[UncertainValue] {
        &self.values
    }

    /// The value of attribute `j`.
    pub fn value(&self, j: usize) -> &UncertainValue {
        &self.values[j]
    }

    /// Number of attributes in the tuple.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Replaces the value of attribute `j`, returning a new tuple. Used by
    /// the fractional-tuple machinery when a pdf is restricted to a
    /// sub-domain.
    pub fn with_value(&self, j: usize, value: UncertainValue) -> Tuple {
        let mut values = self.values.clone();
        values[j] = value;
        Tuple {
            values,
            label: self.label,
        }
    }

    /// The Averaging representative of the tuple: every value collapsed to
    /// its summary statistic (§4.1).
    pub fn to_averaged(&self) -> Tuple {
        Tuple {
            values: self.values.iter().map(|v| v.to_averaged()).collect(),
            label: self.label,
        }
    }

    /// Total number of pdf sample points across all attributes — the
    /// information-explosion factor discussed in §3.2.
    pub fn total_samples(&self) -> usize {
        self.values.iter().map(|v| v.sample_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_prob::SampledPdf;

    #[test]
    fn point_tuple_construction() {
        let t = Tuple::from_points(&[1.0, 2.0, 3.0], 1);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.label(), 1);
        assert_eq!(t.value(1).expected(), 2.0);
        assert_eq!(t.total_samples(), 3);
    }

    #[test]
    fn with_value_replaces_one_attribute() {
        let t = Tuple::from_points(&[1.0, 2.0], 0);
        let pdf = SampledPdf::new(vec![0.0, 4.0], vec![0.5, 0.5]).unwrap();
        let t2 = t.with_value(1, UncertainValue::Numeric(pdf));
        assert_eq!(t2.value(0).expected(), 1.0);
        assert_eq!(t2.value(1).expected(), 2.0);
        assert_eq!(t2.value(1).sample_count(), 2);
        assert_eq!(t2.label(), 0);
        // The original tuple is untouched.
        assert_eq!(t.value(1).sample_count(), 1);
    }

    #[test]
    fn averaging_collapses_every_value() {
        let pdf = SampledPdf::new(vec![0.0, 10.0], vec![0.5, 0.5]).unwrap();
        let t = Tuple::new(
            vec![UncertainValue::Numeric(pdf), UncertainValue::point(7.0)],
            2,
        );
        assert_eq!(t.total_samples(), 3);
        let avg = t.to_averaged();
        assert_eq!(avg.total_samples(), 2);
        assert_eq!(avg.value(0).expected(), 5.0);
        assert_eq!(avg.label(), 2);
    }

    #[test]
    fn negative_and_fractional_labels_are_refused() {
        let json = serde_json::to_string(&Tuple::from_points(&[1.0], 7)).unwrap();
        assert_eq!(serde_json::from_str::<Tuple>(&json).unwrap().label(), 7);
        for label in ["-7", "7.5"] {
            let hostile = json.replace(r#""label":7"#, &format!(r#""label":{label}"#));
            assert!(serde_json::from_str::<Tuple>(&hostile).is_err(), "{label}");
        }
    }
}
