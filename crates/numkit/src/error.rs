//! Error types shared by all `numkit` decompositions and solvers.

use std::fmt;

/// Errors returned by `numkit` factorizations and solvers.
///
/// Every fallible public function in this crate returns
/// `Result<_, NumError>`; the variants identify the failure mode precisely
/// enough for a caller to decide between aborting, regularizing the input,
/// or retrying with different parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NumError {
    /// A matrix that must be (numerically) invertible was singular.
    ///
    /// `pivot` is the elimination step at which a zero (or sub-threshold)
    /// pivot was encountered.
    Singular {
        /// Elimination step of the offending pivot.
        pivot: usize,
    },
    /// An iterative algorithm failed to converge.
    NotConverged {
        /// Name of the algorithm that failed (e.g. `"francis-qr"`).
        algorithm: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation.
        operation: &'static str,
        /// Shape of the left (or only) operand.
        left: (usize, usize),
        /// Shape of the right operand, if any.
        right: (usize, usize),
    },
    /// A square matrix was required but a rectangular one was supplied.
    NotSquare {
        /// Supplied row count.
        rows: usize,
        /// Supplied column count.
        cols: usize,
    },
    /// The input contained a NaN or infinity.
    NotFinite,
    /// An argument was outside its documented domain.
    InvalidArgument(&'static str),
    /// A worker thread panicked while computing the given index of a
    /// parallel map.
    ///
    /// [`crate::par::try_par_map_with`] converts per-index panics into
    /// this variant so one poisoned work item cannot abort its siblings.
    WorkerPanicked {
        /// Index of the work item whose worker panicked.
        index: usize,
    },
    /// The operation observed a raised [`crate::CancelToken`] at one of
    /// its cooperative polling points and stopped early.
    Cancelled,
    /// A deterministic work budget (counted off `obs` counters, never
    /// wall clock) ran out before the operation completed.
    BudgetExhausted {
        /// The resource whose cap was hit (e.g. `"lu-factorizations"`,
        /// `"svd-sweeps"`, `"sample-bytes"`).
        resource: &'static str,
    },
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumError::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at elimination step {pivot})")
            }
            NumError::NotConverged { algorithm, iterations } => {
                write!(f, "{algorithm} did not converge after {iterations} iterations")
            }
            NumError::ShapeMismatch { operation, left, right } => write!(
                f,
                "shape mismatch in {operation}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            NumError::NotSquare { rows, cols } => {
                write!(f, "square matrix required, got {rows}x{cols}")
            }
            NumError::NotFinite => write!(f, "input contains NaN or infinite entries"),
            NumError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            NumError::WorkerPanicked { index } => {
                write!(f, "worker thread panicked while computing index {index}")
            }
            NumError::Cancelled => write!(f, "operation cancelled by caller"),
            NumError::BudgetExhausted { resource } => {
                write!(f, "work budget exhausted: {resource} cap reached")
            }
        }
    }
}

impl std::error::Error for NumError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = NumError::Singular { pivot: 3 };
        assert_eq!(e.to_string(), "matrix is singular (zero pivot at elimination step 3)");
        let e = NumError::NotConverged { algorithm: "jacobi-svd", iterations: 42 };
        assert!(e.to_string().contains("jacobi-svd"));
        assert!(e.to_string().contains("42"));
        let e = NumError::ShapeMismatch {
            operation: "matmul",
            left: (2, 3),
            right: (4, 5),
        };
        assert!(e.to_string().contains("2x3"));
        assert!(e.to_string().contains("4x5"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<NumError>();
    }
}
