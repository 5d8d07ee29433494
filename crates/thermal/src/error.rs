//! Error type for thermal-model operations.

use std::error::Error;
use std::fmt;

/// Errors returned by thermal-network and state-space model operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ThermalError {
    /// A vector passed to the model had the wrong length.
    DimensionMismatch {
        /// What the vector represents.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A physical parameter was non-positive or non-finite.
    InvalidParameter(&'static str),
    /// The underlying linear algebra failed (singular conductance matrix, ...).
    Numeric(String),
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::DimensionMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what} has length {actual}, expected {expected}"),
            ThermalError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            ThermalError::Numeric(msg) => write!(f, "numeric failure: {msg}"),
        }
    }
}

impl Error for ThermalError {}

impl From<numeric::NumericError> for ThermalError {
    fn from(err: numeric::NumericError) -> Self {
        ThermalError::Numeric(err.to_string())
    }
}
