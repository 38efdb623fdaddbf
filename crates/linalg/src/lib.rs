//! Dense linear-algebra substrate for `otune`.
//!
//! The Gaussian-process surrogates in [`otune-gp`](../otune_gp/index.html)
//! need a small, dependency-free dense linear algebra kernel: row-major
//! matrices, Cholesky factorization of symmetric positive-definite
//! covariance matrices, triangular solves, and log-determinants. Covariance
//! matrices in online Spark tuning are tiny (tens of observations), so the
//! implementation favours clarity and numerical robustness (jittered
//! factorization) over BLAS-grade throughput.

mod cholesky;
mod matrix;
mod rows;
pub mod simd;

pub use cholesky::Cholesky;
pub use matrix::Matrix;
pub use rows::Rows;

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible, e.g. multiplying a `(2, 3)` by a `(2, 3)`.
    ShapeMismatch {
        /// Shape of the left/first operand.
        left: (usize, usize),
        /// Shape of the right/second operand.
        right: (usize, usize),
    },
    /// The matrix is not positive definite even after the maximum jitter was added.
    NotPositiveDefinite {
        /// Pivot index at which factorization failed.
        pivot: usize,
    },
    /// The matrix must be square for this operation.
    NotSquare {
        /// Actual shape.
        shape: (usize, usize),
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left:?} vs {right:?}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::NotSquare { shape } => write!(f, "matrix is not square: {shape:?}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for linalg results.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if the lengths differ; in release builds the
/// shorter length wins (standard `zip` semantics), which is never what you
/// want — callers validate shapes first.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Mean of a slice; `0.0` for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Population variance of a slice; `0.0` for slices shorter than 2.
pub fn variance(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
}

/// Standard deviation (population); `0.0` for slices shorter than 2.
pub fn std_dev(v: &[f64]) -> f64 {
    variance(v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_product_empty() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn mean_and_variance() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((variance(&v) - 4.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn variance_degenerate() {
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn error_display() {
        let e = LinalgError::ShapeMismatch {
            left: (2, 3),
            right: (4, 5),
        };
        assert!(e.to_string().contains("shape mismatch"));
        let e = LinalgError::NotPositiveDefinite { pivot: 3 };
        assert!(e.to_string().contains("positive definite"));
        let e = LinalgError::NotSquare { shape: (2, 3) };
        assert!(e.to_string().contains("square"));
    }
}
