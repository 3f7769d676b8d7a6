//! Fractional tuples.
//!
//! When a training tuple's pdf properly contains a node's split point, the
//! tuple is divided into two *fractional tuples* (§3.2 / §4.2, a technique
//! borrowed from C4.5's missing-value handling): each child inherits the
//! tuple's class label and all pdfs except the split attribute's, whose pdf
//! is restricted to the child's sub-domain and renormalised, and carries a
//! weight equal to the parent weight multiplied by the probability mass on
//! its side of the split.
//!
//! A whole training tuple borrows its values from the [`Tuple`] it wraps,
//! so the builder's root conversion copies no pdf. A fraction owns its
//! values: only a split produces one, and it replaces a pdf.

use std::borrow::Cow;

use udt_data::{Tuple, UncertainValue};

use crate::counts::{ClassCounts, WEIGHT_EPSILON};

/// A weighted (possibly fractional) training tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct FractionalTuple<'a> {
    /// The tuple's attribute values: borrowed from the training tuple
    /// while it is whole, owned once a split has replaced the split
    /// attribute's pdf by its restricted/renormalised version.
    pub values: Cow<'a, [UncertainValue]>,
    /// Class label index.
    pub label: usize,
    /// The tuple's weight `w ∈ (0, 1]` (1 for whole tuples).
    pub weight: f64,
}

impl<'a> FractionalTuple<'a> {
    /// Wraps a whole training tuple with weight 1, borrowing its values.
    pub fn from_tuple(tuple: &'a Tuple) -> Self {
        FractionalTuple {
            values: Cow::Borrowed(tuple.values()),
            label: tuple.label(),
            weight: 1.0,
        }
    }

    /// Splits this tuple at `split` on numerical attribute `attribute`,
    /// returning the left and/or right fractional tuples (those that
    /// receive non-negligible weight).
    ///
    /// * A tuple whose pdf lies entirely at or below the split point goes
    ///   wholly left; entirely above goes wholly right.
    /// * Otherwise it is divided: the left fraction's pdf is the original
    ///   pdf restricted to `(-∞, split]` and renormalised, with weight
    ///   `w · p_L`; symmetrically for the right fraction.
    pub fn split_numeric(
        &self,
        attribute: usize,
        split: f64,
    ) -> (Option<FractionalTuple<'a>>, Option<FractionalTuple<'a>>) {
        let pdf = match self.values[attribute].as_numeric() {
            Some(pdf) => pdf,
            // A categorical value cannot be split on a numerical test; the
            // builder never asks for this, but fall back to sending the
            // whole tuple left to keep the operation total.
            None => return (Some(self.clone()), None),
        };
        let (p_left, left_pdf, right_pdf) = pdf.split_at(split);
        let mut left = None;
        let mut right = None;
        if p_left * self.weight > WEIGHT_EPSILON {
            let mut values = self.values.clone();
            if let Some(lp) = left_pdf {
                values.to_mut()[attribute] = UncertainValue::Numeric(lp);
            }
            left = Some(FractionalTuple {
                values,
                label: self.label,
                weight: self.weight * p_left,
            });
        }
        let p_right = 1.0 - p_left;
        if p_right * self.weight > WEIGHT_EPSILON {
            let mut values = self.values.clone();
            if let Some(rp) = right_pdf {
                values.to_mut()[attribute] = UncertainValue::Numeric(rp);
            }
            right = Some(FractionalTuple {
                values,
                label: self.label,
                weight: self.weight * p_right,
            });
        }
        (left, right)
    }
}

/// Sums the weights of a set of fractional tuples into per-class counts.
pub fn class_counts(tuples: &[FractionalTuple<'_>], n_classes: usize) -> ClassCounts {
    let mut counts = ClassCounts::new(n_classes);
    for t in tuples {
        counts.add(t.label, t.weight);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_prob::SampledPdf;

    fn uncertain_tuple(points: &[f64], mass: &[f64], label: usize) -> FractionalTuple<'static> {
        let pdf = SampledPdf::new(points.to_vec(), mass.to_vec()).unwrap();
        FractionalTuple {
            values: vec![UncertainValue::Numeric(pdf)].into(),
            label,
            weight: 1.0,
        }
    }

    #[test]
    fn whole_tuple_wrapping() {
        let t = Tuple::from_points(&[1.0, 2.0], 1);
        let f = FractionalTuple::from_tuple(&t);
        assert_eq!(f.weight, 1.0);
        assert_eq!(f.label, 1);
        assert_eq!(f.values.len(), 2);
        assert!(
            matches!(f.values, Cow::Borrowed(_)),
            "a whole tuple is not copied"
        );
    }

    #[test]
    fn split_divides_weight_according_to_mass() {
        // Fig. 1: 30 % of the mass at or below −1.
        let t = uncertain_tuple(
            &[-2.5, -2.0, -1.0, 0.0, 1.0, 2.0],
            &[0.1, 0.1, 0.1, 0.2, 0.3, 0.2],
            0,
        );
        let (left, right) = t.split_numeric(0, -1.0);
        let left = left.unwrap();
        let right = right.unwrap();
        assert!((left.weight - 0.3).abs() < 1e-12);
        assert!((right.weight - 0.7).abs() < 1e-12);
        // The children's pdfs are restricted to their sub-domains.
        assert!(left.values[0].as_numeric().unwrap().hi() <= -1.0);
        assert!(right.values[0].as_numeric().unwrap().lo() > -1.0);
        // Labels are inherited.
        assert_eq!(left.label, 0);
        assert_eq!(right.label, 0);
    }

    #[test]
    fn split_entirely_on_one_side_keeps_the_tuple_whole() {
        let t = uncertain_tuple(&[5.0, 6.0], &[0.5, 0.5], 1);
        let (left, right) = t.split_numeric(0, 10.0);
        assert!(right.is_none());
        assert_eq!(left.unwrap(), t);
        let (left, right) = t.split_numeric(0, 0.0);
        assert!(left.is_none());
        assert_eq!(right.unwrap(), t);
    }

    #[test]
    fn nested_splits_multiply_weights() {
        let t = uncertain_tuple(&[0.0, 1.0, 2.0, 3.0], &[0.25, 0.25, 0.25, 0.25], 0);
        let (left, _) = t.split_numeric(0, 1.0);
        let left = left.unwrap();
        assert!((left.weight - 0.5).abs() < 1e-12);
        let (ll, lr) = left.split_numeric(0, 0.0);
        assert!((ll.unwrap().weight - 0.25).abs() < 1e-12);
        assert!((lr.unwrap().weight - 0.25).abs() < 1e-12);
    }

    #[test]
    fn class_counts_sum_weights() {
        let a = uncertain_tuple(&[0.0, 1.0], &[0.5, 0.5], 0);
        let mut b = uncertain_tuple(&[0.0, 1.0], &[0.5, 0.5], 1);
        b.weight = 0.25;
        let counts = class_counts(&[a, b], 3);
        assert_eq!(counts.as_slice(), &[1.0, 0.25, 0.0]);
    }
}
