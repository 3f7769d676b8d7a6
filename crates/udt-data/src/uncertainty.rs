//! Uncertainty injection (§4.3 of the paper).
//!
//! The paper's sensitivity experiments start from point-valued data sets
//! and *augment* them with synthetic uncertainty: for each tuple `t_i` and
//! numerical attribute `A_j`, the reported point value `v_{i,j}` becomes
//! the mean of a pdf over `[a_{i,j}, b_{i,j}]` whose width is `w · |A_j|`
//! (a fraction `w` of the attribute's global range), shaped by either a
//! Gaussian or a uniform error model and discretised to `s` sample points.
//!
//! [`inject_uncertainty`] implements exactly that transformation.

use udt_prob::ErrorModel;

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::tuple::Tuple;
use crate::value::UncertainValue;
use crate::Result;

/// Parameters of the §4.3 uncertainty-injection procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncertaintySpec {
    /// Width of the pdf domain as a fraction of the attribute range
    /// (`w` in the paper, e.g. `0.10` for the 10 % baseline).
    pub w: f64,
    /// Number of sample points per pdf (`s` in the paper, 100 by default).
    pub s: usize,
    /// The error model shaping the pdf.
    pub model: ErrorModel,
}

impl UncertaintySpec {
    /// The paper's baseline setting: `s = 100`, `w = 10 %`, Gaussian.
    pub fn baseline() -> Self {
        UncertaintySpec {
            w: 0.10,
            s: 100,
            model: ErrorModel::Gaussian,
        }
    }

    /// Returns a copy with a different `w`.
    pub fn with_w(self, w: f64) -> Self {
        UncertaintySpec { w, ..self }
    }

    /// Returns a copy with a different `s`.
    pub fn with_s(self, s: usize) -> Self {
        UncertaintySpec { s, ..self }
    }

    /// Returns a copy with a different error model.
    pub fn with_model(self, model: ErrorModel) -> Self {
        UncertaintySpec { model, ..self }
    }
}

impl Default for UncertaintySpec {
    fn default() -> Self {
        UncertaintySpec::baseline()
    }
}

/// Converts a point-valued data set into an uncertain one.
///
/// For every numerical attribute `A_j`, the attribute's global range width
/// `|A_j|` is computed once over `data`; every tuple's point value then
/// becomes a pdf of width `w·|A_j|` centred on it, discretised to `s`
/// points under `spec.model`. Categorical attributes and attributes with a
/// degenerate (zero-width) range are left untouched. Values that are
/// already uncertain (more than one sample point) are also left untouched,
/// so the function is idempotent on already-injected data.
pub fn inject_uncertainty(data: &Dataset, spec: &UncertaintySpec) -> Result<Dataset> {
    if !(spec.w > 0.0) || !spec.w.is_finite() {
        return Err(DataError::InvalidParameter {
            name: "w",
            value: spec.w,
        });
    }
    if spec.s == 0 {
        return Err(DataError::InvalidParameter {
            name: "s",
            value: 0.0,
        });
    }
    if data.is_empty() {
        return Err(DataError::EmptyDataset);
    }

    // Pre-compute |A_j| for every numerical attribute.
    let mut widths = vec![0.0f64; data.n_attributes()];
    for j in data.schema().numerical_indices() {
        widths[j] = data.attribute_width(j)?;
    }

    let mut out = Dataset::new(data.schema().clone(), data.class_names().to_vec());
    for tuple in data.tuples() {
        let values = tuple
            .values()
            .iter()
            .zip(&widths)
            .map(|(value, &range)| {
                let width = range * spec.w;
                match value.as_numeric() {
                    Some(pdf) if pdf.is_point() && width > 0.0 => Ok(UncertainValue::Numeric(
                        spec.model.discretise(pdf.mean(), width, spec.s)?,
                    )),
                    _ => Ok(value.clone()),
                }
            })
            .collect::<Result<Vec<_>>>()?;
        out.push(Tuple::new(values, tuple.label()))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{Attribute, Schema};

    /// Numeric, categorical, constant and already-uncertain values side
    /// by side.
    fn mixed_dataset() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::numerical("x"),
            Attribute::categorical("c", 3),
            Attribute::numerical("constant"),
            Attribute::numerical("y"),
        ]);
        let mut ds = Dataset::new(schema, vec!["a".into(), "b".into()]);
        for i in 0..6 {
            let y = if i == 4 {
                UncertainValue::Numeric(
                    udt_prob::SampledPdf::new(vec![1.0, 2.5], vec![0.25, 0.75]).unwrap(),
                )
            } else {
                UncertainValue::point(i as f64 * -1.75)
            };
            ds.push(Tuple::new(
                vec![
                    UncertainValue::point(i as f64 * 0.3 + 0.1),
                    UncertainValue::category(i % 3, 3),
                    UncertainValue::point(2.0),
                    y,
                ],
                i % 2,
            ))
            .unwrap();
        }
        ds
    }

    fn point_dataset() -> Dataset {
        let mut ds = Dataset::numerical(2, 2);
        ds.push(Tuple::from_points(&[0.0, 100.0], 0)).unwrap();
        ds.push(Tuple::from_points(&[10.0, 200.0], 1)).unwrap();
        ds.push(Tuple::from_points(&[5.0, 150.0], 0)).unwrap();
        ds
    }

    #[test]
    fn injection_preserves_means_and_sets_sample_counts() {
        let ds = point_dataset();
        let spec = UncertaintySpec::baseline().with_s(50);
        let uds = inject_uncertainty(&ds, &spec).unwrap();
        assert_eq!(uds.len(), ds.len());
        for (orig, new) in ds.tuples().iter().zip(uds.tuples()) {
            assert_eq!(orig.label(), new.label());
            for j in 0..2 {
                let pdf = new.value(j).as_numeric().unwrap();
                assert_eq!(pdf.len(), 50);
                assert!((pdf.mean() - orig.value(j).expected()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn injection_width_scales_with_attribute_range() {
        let ds = point_dataset();
        // |A1| = 10, |A2| = 100; w = 20 % so widths 2 and 20.
        let spec = UncertaintySpec::baseline().with_w(0.2).with_s(10);
        let uds = inject_uncertainty(&ds, &spec).unwrap();
        let p0 = uds.tuple(0).value(0).as_numeric().unwrap();
        let p1 = uds.tuple(0).value(1).as_numeric().unwrap();
        assert!(p0.hi() - p0.lo() <= 2.0 + 1e-9);
        assert!(p1.hi() - p1.lo() <= 20.0 + 1e-9);
        assert!(p1.hi() - p1.lo() > 10.0);
    }

    #[test]
    fn uniform_and_gaussian_models_differ_in_shape() {
        let ds = point_dataset();
        let g = inject_uncertainty(&ds, &UncertaintySpec::baseline().with_s(21)).unwrap();
        let u = inject_uncertainty(
            &ds,
            &UncertaintySpec::baseline()
                .with_s(21)
                .with_model(ErrorModel::Uniform),
        )
        .unwrap();
        let gp = g.tuple(0).value(0).as_numeric().unwrap();
        let up = u.tuple(0).value(0).as_numeric().unwrap();
        // Gaussian mass is concentrated near the centre; uniform is flat.
        assert!(gp.mass()[10] > up.mass()[10]);
        assert!((up.mass()[0] - up.mass()[10]).abs() < 1e-12);
    }

    #[test]
    fn injection_is_idempotent_and_skips_constant_attributes() {
        let mut ds = Dataset::numerical(2, 2);
        ds.push(Tuple::from_points(&[1.0, 5.0], 0)).unwrap();
        ds.push(Tuple::from_points(&[1.0, 7.0], 1)).unwrap();
        let spec = UncertaintySpec::baseline().with_s(9);
        let once = inject_uncertainty(&ds, &spec).unwrap();
        // Attribute 0 is constant, so it stays a point value.
        assert_eq!(once.tuple(0).value(0).sample_count(), 1);
        assert_eq!(once.tuple(0).value(1).sample_count(), 9);
        // Re-injecting leaves the already-uncertain values untouched.
        let twice = inject_uncertainty(&once, &spec).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let ds = point_dataset();
        assert!(inject_uncertainty(&ds, &UncertaintySpec::baseline().with_w(0.0)).is_err());
        assert!(inject_uncertainty(&ds, &UncertaintySpec::baseline().with_s(0)).is_err());
        let empty = Dataset::numerical(1, 1);
        assert!(inject_uncertainty(&empty, &UncertaintySpec::baseline()).is_err());
    }

    #[test]
    fn injection_matches_the_per_attribute_replacement_loop_bit_for_bit() {
        // The loop injection used to run: replace one attribute at a time,
        // copying the tuple's values for every replacement.
        fn per_attribute(data: &Dataset, spec: &UncertaintySpec) -> Dataset {
            let mut out = Dataset::new(data.schema().clone(), data.class_names().to_vec());
            for tuple in data.tuples() {
                let mut new_tuple = tuple.clone();
                for j in 0..tuple.arity() {
                    let Some(pdf) = tuple.value(j).as_numeric() else {
                        continue;
                    };
                    let width = data.attribute_width(j).unwrap() * spec.w;
                    if !pdf.is_point() || width <= 0.0 {
                        continue;
                    }
                    let injected = spec.model.discretise(pdf.mean(), width, spec.s).unwrap();
                    let mut values = new_tuple.values().to_vec();
                    values[j] = UncertainValue::Numeric(injected);
                    new_tuple = Tuple::new(values, new_tuple.label());
                }
                out.push(new_tuple).unwrap();
            }
            out
        }

        let data = mixed_dataset();
        for spec in [
            UncertaintySpec::baseline().with_s(7),
            UncertaintySpec::baseline()
                .with_w(0.3)
                .with_s(12)
                .with_model(ErrorModel::Uniform),
        ] {
            let fast = inject_uncertainty(&data, &spec).unwrap();
            // Debug prints every f64 in its shortest round-trip form, so
            // equal text is equal bits.
            assert_eq!(
                format!("{:?}", fast),
                format!("{:?}", per_attribute(&data, &spec))
            );
        }
    }
}
