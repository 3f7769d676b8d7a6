//! Error types for the probability substrate.

/// Errors produced while constructing or manipulating probability objects.
#[derive(Debug, Clone, PartialEq, thiserror::Error)]
pub enum ProbError {
    /// A pdf was constructed with no sample points.
    #[error("a pdf requires at least one sample point")]
    EmptyPdf,

    /// Sample points were not strictly increasing.
    #[error("pdf sample points must be strictly increasing (index {index})")]
    UnsortedPoints {
        /// Index of the first offending point.
        index: usize,
    },

    /// A probability mass was negative or not finite.
    #[error("probability mass at index {index} is invalid: {value}")]
    InvalidMass {
        /// Index of the offending mass.
        index: usize,
        /// The offending value.
        value: f64,
    },

    /// The total probability mass was zero or not finite, so the
    /// distribution cannot be normalised.
    #[error("total probability mass is not normalisable: {total}")]
    ZeroMass {
        /// The total mass encountered.
        total: f64,
    },

    /// An interval `[lo, hi]` was supplied with `lo > hi` or non-finite
    /// bounds.
    #[error("invalid interval [{lo}, {hi}]")]
    InvalidInterval {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },

    /// A model parameter was out of range (e.g. non-positive width or
    /// standard deviation).
    #[error("invalid parameter {name}: {value}")]
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },

    /// A discrete distribution was built from an empty support.
    #[error("a discrete distribution requires at least one category")]
    EmptySupport,

    /// Serialized masses or probabilities did not sum to 1 within
    /// [`MASS_EPSILON`](crate::pdf::MASS_EPSILON).
    #[error("probability masses must sum to 1, got {total}")]
    Unnormalised {
        /// The total mass encountered.
        total: f64,
    },

    /// A serialized pdf carried a cumulative array of another length
    /// than its masses.
    #[error("pdf has {cumulative} cumulative masses for {points} sample points")]
    CumulativeLength {
        /// Entries in the supplied cumulative array.
        cumulative: usize,
        /// Sample points of the pdf.
        points: usize,
    },

    /// A serialized pdf's cumulative entry was more than
    /// [`MASS_EPSILON`](crate::pdf::MASS_EPSILON) away from the running
    /// sum of its masses.
    #[error("pdf cumulative mass {index} is {supplied} but its masses give {computed}")]
    CumulativeMismatch {
        /// Index of the first offending entry.
        index: usize,
        /// The supplied entry.
        supplied: f64,
        /// The running sum of the masses up to `index`.
        computed: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = ProbError::UnsortedPoints { index: 3 };
        assert!(e.to_string().contains("strictly increasing"));
        let e = ProbError::InvalidMass {
            index: 1,
            value: -0.5,
        };
        assert!(e.to_string().contains("-0.5"));
        let e = ProbError::InvalidInterval { lo: 2.0, hi: 1.0 };
        assert!(e.to_string().contains("[2, 1]"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(ProbError::EmptyPdf, ProbError::EmptyPdf);
        assert_ne!(ProbError::EmptyPdf, ProbError::EmptySupport);
    }
}
