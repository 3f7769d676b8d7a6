//! Error types for the data-model crate.

use udt_prob::ProbError;

/// Errors produced while constructing or manipulating data sets.
#[derive(Debug, Clone, PartialEq, thiserror::Error)]
pub enum DataError {
    /// A tuple's arity did not match the schema.
    #[error("tuple has {found} values but the schema has {expected} attributes")]
    ArityMismatch {
        /// Number of attributes in the schema.
        expected: usize,
        /// Number of values in the offending tuple.
        found: usize,
    },

    /// A class label index was out of range.
    #[error("class label {label} is out of range (data set has {classes} classes)")]
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of classes declared.
        classes: usize,
    },

    /// A value's type did not match its attribute declaration.
    #[error("value for attribute {attribute} ({name}) has the wrong kind")]
    KindMismatch {
        /// Attribute index.
        attribute: usize,
        /// Attribute name.
        name: String,
    },

    /// A categorical value referenced a category outside the declared
    /// cardinality.
    #[error("categorical value for attribute {attribute} exceeds cardinality {cardinality}")]
    CategoryOutOfRange {
        /// Attribute index.
        attribute: usize,
        /// Declared cardinality.
        cardinality: usize,
    },

    /// An operation that requires tuples was invoked on an empty data set.
    #[error("operation requires a non-empty data set")]
    EmptyDataset,

    /// An invalid parameter was supplied (e.g. zero folds, w <= 0).
    #[error("invalid parameter {name}: {value}")]
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },

    /// A data set was asked for by a name the repository does not hold.
    #[error("unknown data set `{0}`")]
    UnknownDataset(String),

    /// An error bubbled up from the probability substrate.
    #[error("probability error: {0}")]
    Prob(#[from] ProbError),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = DataError::ArityMismatch {
            expected: 4,
            found: 2,
        };
        assert!(e.to_string().contains('4') && e.to_string().contains('2'));
        let e = DataError::Prob(ProbError::EmptyPdf);
        assert!(e.to_string().contains("probability error"));
    }

    #[test]
    fn prob_errors_convert() {
        fn inner() -> crate::Result<()> {
            Err(ProbError::EmptySupport)?
        }
        assert!(matches!(inner(), Err(DataError::Prob(_))));
    }
}
