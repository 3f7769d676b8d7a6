//! Labelled data sets.
//!
//! A [`Dataset`] is a schema, a class-name table and a bag of labelled
//! tuples (§3.1: `d` training tuples over `k` attributes with labels from
//! `C`). It validates tuples against the schema at insertion time and
//! provides the derived quantities the experiments need: per-attribute
//! ranges (`|A_j|`, used to scale the uncertainty width `w·|A_j|`), class
//! frequencies, and Averaging projections. Deserialization runs the same
//! checks, so a data set read from JSON holds no tuple that
//! [`Dataset::push`] would refuse.

use serde::{Deserialize, Serialize, Value};

use crate::attribute::{AttributeKind, Schema};
use crate::error::DataError;
use crate::tuple::Tuple;
use crate::value::UncertainValue;
use crate::Result;

/// A labelled, schema-validated collection of tuples.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dataset {
    schema: Schema,
    class_names: Vec<String>,
    tuples: Vec<Tuple>,
}

impl Dataset {
    /// Creates an empty data set with the given schema and class names.
    pub fn new(schema: Schema, class_names: Vec<String>) -> Self {
        Dataset {
            schema,
            class_names,
            tuples: Vec::new(),
        }
    }

    /// Creates an empty data set with `k` numerical attributes and
    /// `classes` classes named `C0..`, the shape used by the synthetic
    /// generators.
    pub fn numerical(k: usize, classes: usize) -> Self {
        Dataset::new(
            Schema::numerical(k),
            (0..classes).map(|c| format!("C{c}")).collect(),
        )
    }

    /// The data set schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Class names, indexed by label.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Number of classes (`|C|`).
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Number of attributes (`k`).
    pub fn n_attributes(&self) -> usize {
        self.schema.len()
    }

    /// Number of tuples (`d` / `m`).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the data set has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The tuple at `index`.
    pub fn tuple(&self, index: usize) -> &Tuple {
        &self.tuples[index]
    }

    /// Validates and appends a tuple.
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        if tuple.arity() != self.schema.len() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.len(),
                found: tuple.arity(),
            });
        }
        if tuple.label() >= self.class_names.len() {
            return Err(DataError::LabelOutOfRange {
                label: tuple.label(),
                classes: self.class_names.len(),
            });
        }
        for (j, value) in tuple.values().iter().enumerate() {
            let attr = self.schema.attribute(j).expect("arity checked above");
            match (&attr.kind, value) {
                (AttributeKind::Numerical, UncertainValue::Numeric(_)) => {}
                (AttributeKind::Categorical { cardinality }, UncertainValue::Categorical(d)) => {
                    if d.cardinality() != *cardinality {
                        return Err(DataError::CategoryOutOfRange {
                            attribute: j,
                            cardinality: *cardinality,
                        });
                    }
                }
                _ => {
                    return Err(DataError::KindMismatch {
                        attribute: j,
                        name: attr.name.clone(),
                    });
                }
            }
        }
        self.tuples.push(tuple);
        Ok(())
    }

    /// Per-class tuple counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes()];
        for t in &self.tuples {
            counts[t.label()] += 1;
        }
        counts
    }

    /// The range `(min, max)` of attribute `j`'s expected values over the
    /// whole data set — the `|A_j|` quantity of §4.3 used to scale the
    /// uncertainty width. Returns an error for empty data sets or
    /// categorical attributes.
    pub fn attribute_range(&self, j: usize) -> Result<(f64, f64)> {
        if self.tuples.is_empty() {
            return Err(DataError::EmptyDataset);
        }
        let attr = self.schema.attribute(j).ok_or(DataError::KindMismatch {
            attribute: j,
            name: format!("A{j}"),
        })?;
        if !attr.kind.is_numerical() {
            return Err(DataError::KindMismatch {
                attribute: j,
                name: attr.name.clone(),
            });
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for t in &self.tuples {
            let v = t.value(j).expected();
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Ok((lo, hi))
    }

    /// Width of attribute `j`'s range (`|A_j|`), zero for constant
    /// attributes.
    pub fn attribute_width(&self, j: usize) -> Result<f64> {
        let (lo, hi) = self.attribute_range(j)?;
        Ok(hi - lo)
    }

    /// The Averaging projection of the data set: every value replaced by
    /// its summary statistic (§4.1). The schema and labels are unchanged.
    pub fn to_averaged(&self) -> Dataset {
        Dataset {
            schema: self.schema.clone(),
            class_names: self.class_names.clone(),
            tuples: self.tuples.iter().map(|t| t.to_averaged()).collect(),
        }
    }

    /// A new data set with the same schema/classes containing only the
    /// tuples at `indices` (cloned, in the given order).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            schema: self.schema.clone(),
            class_names: self.class_names.clone(),
            tuples: indices.iter().map(|&i| self.tuples[i].clone()).collect(),
        }
    }

    /// Total number of pdf sample points across the whole data set — the
    /// `m·s` information-explosion factor of §4.2.
    pub fn total_samples(&self) -> usize {
        self.tuples.iter().map(|t| t.total_samples()).sum()
    }
}

/// Reads a data set through [`Dataset::push`]'s checks: `schema` and
/// `class_names` first, then every tuple in order. A tuple `push` refuses
/// is an error naming the tuple's index and the [`DataError`].
impl Deserialize for Dataset {
    fn deserialize(v: &Value) -> std::result::Result<Self, serde::Error> {
        let field = |key: &str| serde::map_field(v, key, "Dataset");
        let mut ds = Dataset::new(
            Schema::deserialize(field("schema")?)?,
            Vec::deserialize(field("class_names")?)?,
        );
        let tuples: Vec<Tuple> = Vec::deserialize(field("tuples")?)?;
        for (index, tuple) in tuples.into_iter().enumerate() {
            ds.push(tuple)
                .map_err(|e| serde::Error::custom(format!("tuple {index}: {e}")))?;
        }
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use udt_prob::{DiscreteDist, SampledPdf};

    fn two_class_dataset() -> Dataset {
        let mut ds = Dataset::numerical(2, 2);
        ds.push(Tuple::from_points(&[0.0, 10.0], 0)).unwrap();
        ds.push(Tuple::from_points(&[2.0, 30.0], 1)).unwrap();
        ds.push(Tuple::from_points(&[4.0, 20.0], 0)).unwrap();
        ds
    }

    #[test]
    fn push_validates_arity_label_and_kind() {
        let mut ds = Dataset::numerical(2, 2);
        assert!(matches!(
            ds.push(Tuple::from_points(&[1.0], 0)),
            Err(DataError::ArityMismatch {
                expected: 2,
                found: 1
            })
        ));
        assert!(matches!(
            ds.push(Tuple::from_points(&[1.0, 2.0], 5)),
            Err(DataError::LabelOutOfRange {
                label: 5,
                classes: 2
            })
        ));
        let bad_kind = Tuple::new(
            vec![UncertainValue::point(1.0), UncertainValue::category(0, 3)],
            0,
        );
        assert!(matches!(
            ds.push(bad_kind),
            Err(DataError::KindMismatch { attribute: 1, .. })
        ));
        assert!(ds.push(Tuple::from_points(&[1.0, 2.0], 1)).is_ok());
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn categorical_cardinality_is_checked() {
        let schema = Schema::new(vec![Attribute::categorical("colour", 3)]);
        let mut ds = Dataset::new(schema, vec!["a".into(), "b".into()]);
        let wrong = Tuple::new(vec![UncertainValue::category(0, 4)], 0);
        assert!(matches!(
            ds.push(wrong),
            Err(DataError::CategoryOutOfRange {
                attribute: 0,
                cardinality: 3
            })
        ));
        let ok = Tuple::new(
            vec![UncertainValue::Categorical(
                DiscreteDist::new(vec![0.2, 0.3, 0.5]).unwrap(),
            )],
            1,
        );
        assert!(ds.push(ok).is_ok());
    }

    #[test]
    fn ranges_and_counts() {
        let ds = two_class_dataset();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.n_attributes(), 2);
        assert_eq!(ds.n_classes(), 2);
        assert_eq!(ds.class_counts(), vec![2, 1]);
        assert_eq!(ds.attribute_range(0).unwrap(), (0.0, 4.0));
        assert_eq!(ds.attribute_width(1).unwrap(), 20.0);
        assert!(ds.attribute_range(7).is_err());
        assert!(Dataset::numerical(2, 2).attribute_range(0).is_err());
    }

    #[test]
    fn subset_selects_by_index() {
        let ds = two_class_dataset();
        let sub = ds.subset(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.tuple(0).value(0).expected(), 4.0);
        assert_eq!(sub.tuple(1).value(0).expected(), 0.0);
        assert_eq!(sub.schema(), ds.schema());
    }

    #[test]
    fn averaging_projection_reduces_sample_counts() {
        let mut ds = Dataset::numerical(1, 2);
        let pdf = SampledPdf::new(vec![0.0, 1.0, 2.0], vec![1.0, 1.0, 2.0]).unwrap();
        ds.push(Tuple::new(vec![UncertainValue::Numeric(pdf)], 0))
            .unwrap();
        assert_eq!(ds.total_samples(), 3);
        let avg = ds.to_averaged();
        assert_eq!(avg.total_samples(), 1);
        assert!((avg.tuple(0).value(0).expected() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn deserialization_round_trips_and_refuses_what_push_refuses() {
        let table1 = crate::toy::table1_dataset().unwrap();
        let json = serde_json::to_string(&table1).unwrap();
        assert_eq!(serde_json::from_str::<Dataset>(&json).unwrap(), table1);

        // One numerical and one 3-category attribute, two classes; tuple
        // 0 is valid, tuple 1 is the hostile one.
        let schema = Schema::new(vec![
            Attribute::numerical("x"),
            Attribute::categorical("c", 3),
        ]);
        let num = UncertainValue::point(1.5);
        let cat = |n: usize| UncertainValue::Categorical(DiscreteDist::certain(0, n).unwrap());
        let valid = Tuple::new(vec![num.clone(), cat(3)], 1);
        let json = |hostile: Tuple| {
            format!(
                r#"{{"schema":{},"class_names":["a","b"],"tuples":{}}}"#,
                serde_json::to_string(&schema).unwrap(),
                serde_json::to_string(&vec![valid.clone(), hostile]).unwrap()
            )
        };
        assert_eq!(
            serde_json::from_str::<Dataset>(&json(valid.clone()))
                .unwrap()
                .len(),
            2
        );
        let cases = [
            (
                "label out of range",
                Tuple::new(vec![num.clone(), cat(3)], 7),
                DataError::LabelOutOfRange {
                    label: 7,
                    classes: 2,
                },
            ),
            (
                "short arity",
                Tuple::new(vec![num.clone()], 0),
                DataError::ArityMismatch {
                    expected: 2,
                    found: 1,
                },
            ),
            (
                "long arity",
                Tuple::new(vec![num.clone(), cat(3), num.clone()], 0),
                DataError::ArityMismatch {
                    expected: 2,
                    found: 3,
                },
            ),
            (
                "kind swap",
                Tuple::new(vec![cat(3), num.clone()], 0),
                DataError::KindMismatch {
                    attribute: 0,
                    name: "x".into(),
                },
            ),
            (
                "categorical cardinality",
                Tuple::new(vec![num.clone(), cat(2)], 0),
                DataError::CategoryOutOfRange {
                    attribute: 1,
                    cardinality: 3,
                },
            ),
        ];
        for (case, hostile, error) in cases {
            let err = serde_json::from_str::<Dataset>(&json(hostile))
                .expect_err(case)
                .to_string();
            assert!(err.contains(&format!("tuple 1: {error}")), "{case}: {err}");
        }
    }

    #[test]
    fn labels_that_are_not_class_indices_are_refused() {
        let table1 = crate::toy::table1_dataset().unwrap();
        let json = serde_json::to_string(&table1).unwrap();
        let first = format!(r#""label":{}"#, table1.tuple(0).label());
        assert!(json.contains(&first), "{json}");
        // Each once read as a class index by truncation: -1, -0.5 and
        // 0.7 as class 0, 1.9 as class 1.
        for label in ["-1", "-0.5", "0.7", "1.9"] {
            let hostile = json.replacen(&first, &format!(r#""label":{label}"#), 1);
            let err = serde_json::from_str::<Dataset>(&hostile).expect_err(label);
            assert!(err.to_string().contains("integer"), "{label}: {err}");
        }
    }
}
