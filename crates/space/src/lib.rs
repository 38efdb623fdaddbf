//! Typed Spark configuration space for `otune`.
//!
//! This crate models the search space from §2.2 of the paper: a
//! [`ConfigSpace`] is a product of typed parameter domains
//! (`Λ_cs = Λ¹ × … × Λᴺ`), a [`Configuration`] is a point in it, and a
//! [`Subspace`] is the projection onto the `K` most important parameters
//! used by the adaptive sub-space generation of §4.1.
//!
//! Numeric parameters (optionally log-scaled) are encoded into the unit
//! cube for surrogate models; categorical and boolean parameters are
//! encoded as scaled indices whose *equality* is what the Hamming kernel
//! consumes. [`spark_space`] builds the 30-parameter Spark space used
//! throughout the paper (the Tuneful parameter set).

mod config;
mod halton;
mod param;
mod space;
mod spark;
mod subspace;

pub use config::Configuration;
pub use halton::HaltonSequence;
pub use param::{Domain, ParamValue, Parameter};
pub use space::{ConfigSpace, DimKind};
pub use spark::{spark_param_names, spark_space, ClusterScale, SparkParam};
pub use subspace::{CandidateRows, Subspace};

/// Errors from configuration-space operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// A parameter name was not found in the space.
    UnknownParameter(String),
    /// A value's type does not match the parameter's domain.
    TypeMismatch {
        /// Parameter whose domain was violated.
        param: String,
    },
    /// A value lies outside the parameter's domain.
    OutOfDomain {
        /// Parameter whose range was violated.
        param: String,
    },
    /// A configuration has the wrong number of values for the space.
    ArityMismatch {
        /// Number of parameters in the space.
        expected: usize,
        /// Number of values supplied.
        actual: usize,
    },
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::UnknownParameter(name) => write!(f, "unknown parameter: {name}"),
            SpaceError::TypeMismatch { param } => write!(f, "type mismatch for parameter {param}"),
            SpaceError::OutOfDomain { param } => {
                write!(f, "value out of domain for parameter {param}")
            }
            SpaceError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "configuration arity mismatch: expected {expected}, got {actual}"
                )
            }
        }
    }
}

impl std::error::Error for SpaceError {}

/// Convenience alias for space results.
pub type Result<T> = std::result::Result<T, SpaceError>;
