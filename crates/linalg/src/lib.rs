#![warn(missing_docs)]

//! Dense linear algebra kernels for the ESSE reproduction.
//!
//! The original ESSE system (Evangelinos et al., MTAGS'09) relied on
//! shared-memory LAPACK for the SVD of the ensemble spread matrix. This
//! crate provides the equivalent functionality from scratch:
//!
//! * a column-major dense [`Matrix`] whose columns are contiguous (an
//!   ensemble member is a column, so member access is a slice),
//! * Householder QR, LU and Cholesky factorizations,
//! * a symmetric eigensolver (Householder tridiagonalisation + implicit QL),
//! * thin SVD by one-sided Jacobi and by the Gram-matrix trick for the
//!   tall-skinny matrices ESSE produces (state dimension ≫ ensemble size),
//! * multithreaded GEMM used by the continuous-SVD stage of the workflow,
//! * Gaussian sampling helpers for the perturbation generator.
//!
//! All routines are pure Rust with no external BLAS; determinism across
//! thread counts is preserved (parallel GEMM partitions output, never
//! reduces across threads).

pub mod cholesky;
pub mod ctx;
pub mod eigen;
pub mod gemm;
pub mod incremental;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod random;
pub mod stats;
pub mod svd;
pub mod vecops;

pub use ctx::LinalgCtx;
pub use eigen::SymEigen;
pub use incremental::IncrementalSvd;
pub use matrix::Matrix;
pub use qr::Qr;
pub use svd::Svd;

/// Relative tolerance used as the convergence threshold of the
/// one-sided Jacobi SVD sweeps.
pub const DEFAULT_TOL: f64 = 1e-12;

/// Errors produced by factorizations and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Dimensions of the operands are incompatible.
    DimensionMismatch {
        /// Description of the expected shape.
        expected: String,
        /// Description of the shape that was found.
        found: String,
    },
    /// Matrix is singular (or numerically singular) where a solve was requested.
    Singular,
    /// Matrix is not positive definite (Cholesky).
    NotPositiveDefinite,
    /// An iterative method failed to converge within its sweep budget.
    NoConvergence {
        /// Number of sweeps/iterations attempted.
        iterations: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
