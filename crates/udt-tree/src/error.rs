//! Error types for tree construction and classification.

use udt_data::DataError;
use udt_prob::ProbError;

/// Errors produced while building or applying decision trees.
#[derive(Debug, Clone, PartialEq, thiserror::Error)]
pub enum TreeError {
    /// Training was attempted on an empty data set.
    #[error("cannot build a decision tree from an empty data set")]
    EmptyTrainingSet,

    /// Training data declared zero classes.
    #[error("the training data declares no classes")]
    NoClasses,

    /// A configuration parameter was invalid.
    #[error("invalid configuration parameter {name}: {value}")]
    InvalidConfig {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },

    /// A serialised or hand-assembled tree model failed structural
    /// validation (dangling child indices, slab length mismatches, …).
    #[error("invalid tree model: {reason}")]
    InvalidModel {
        /// What failed to validate.
        reason: &'static str,
    },

    /// A textual thread-count value was neither `auto` nor a positive
    /// integer (see [`crate::ThreadCount`]'s `FromStr` impl). Carries
    /// the offending input, which the f64-shaped
    /// [`TreeError::InvalidConfig`] could not.
    #[error("invalid thread count `{got}`: expected 'auto' or an integer >= 1")]
    InvalidThreadCount {
        /// The string that failed to parse.
        got: String,
    },

    /// A filesystem operation on a model file failed. Carries the
    /// underlying io error rendered to a string (the enum stays
    /// `Clone + PartialEq`), so callers see *why* — permission denied,
    /// disk full, missing directory — instead of a generic failure.
    #[error("model file {op} failed: {detail}")]
    Io {
        /// Which operation failed (`read`, `write`, `sync`, `rename`).
        op: &'static str,
        /// The rendered `std::io::Error`.
        detail: String,
    },

    /// A model file failed integrity verification: its checksum footer
    /// is malformed, truncated, or does not match the bytes on disk
    /// (see `persist` for the version-3 footer format). Distinct from
    /// [`TreeError::InvalidModel`] — that is a *structurally* wrong tree,
    /// this is bytes that changed after they were written.
    #[error("corrupt model file: {detail}")]
    Corrupt {
        /// What the integrity check found.
        detail: String,
    },

    /// Serialising or deserialising a model failed in serde itself
    /// (malformed JSON, unrepresentable value), as opposed to a model
    /// that parsed but failed validation.
    #[error("model {op} failed: {detail}")]
    Serde {
        /// Which operation failed (`serialisation`, `deserialisation`,
        /// `version-2 deserialisation`).
        op: &'static str,
        /// The rendered serde error.
        detail: String,
    },

    /// A tuple presented for classification does not match the tree's
    /// schema arity.
    #[error("test tuple has {found} attributes but the tree was trained on {expected}")]
    ArityMismatch {
        /// Number of attributes the tree was trained on.
        expected: usize,
        /// Number of attributes in the test tuple.
        found: usize,
    },

    /// An error bubbled up from the data layer.
    #[error("data error: {0}")]
    Data(#[from] DataError),

    /// An error bubbled up from the probability substrate.
    #[error("probability error: {0}")]
    Prob(#[from] ProbError),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_from_lower_layers() {
        fn f() -> crate::Result<()> {
            Err(DataError::EmptyDataset)?
        }
        assert!(matches!(f(), Err(TreeError::Data(_))));
        fn g() -> crate::Result<()> {
            Err(ProbError::EmptyPdf)?
        }
        assert!(matches!(g(), Err(TreeError::Prob(_))));
    }

    #[test]
    fn messages_mention_parameters() {
        let e = TreeError::InvalidConfig {
            name: "max_depth",
            value: 0.0,
        };
        assert!(e.to_string().contains("max_depth"));
        let e = TreeError::ArityMismatch {
            expected: 3,
            found: 1,
        };
        assert!(e.to_string().contains('3'));
        let e = TreeError::Corrupt {
            detail: "checksum mismatch".to_string(),
        };
        assert!(e.to_string().contains("corrupt model file"));
        assert!(e.to_string().contains("checksum mismatch"));
        let e = TreeError::Serde {
            op: "serialisation",
            detail: "unrepresentable float".to_string(),
        };
        assert!(e.to_string().contains("serialisation"));
    }
}
