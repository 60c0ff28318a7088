//! # flashr-linalg
//!
//! The dense linear-algebra kernels FlashR needs. The paper delegates
//! floating-point matrix multiplication to BLAS (ATLAS) and the MASS-style
//! algorithms need small-matrix factorizations; this crate implements that
//! substrate from scratch:
//!
//! * [`Dense`] — a small row-major `f64` matrix used for DAG *sink* results
//!   (Gramians, cluster centers, covariances, ...). These are the matrices
//!   the paper keeps in memory because they are small (§3.4).
//! * [`gemm()`](gemm())/[`gemm_strided`] — general matrix multiply on one
//!   register tile ([`simd`]) for every product of 4 × 8 and over;
//!   the `Dense` front-end is parallel over row panels ([`par`]), the
//!   strided raw kernel is single-threaded because the FlashR executor
//!   already parallelizes across I/O partitions.
//! * [`syrk()`](syrk()) — symmetric rank-k update (`crossprod`), as
//!   [`gemm()`](gemm()) of `Aᵀ` and `A`.
//! * [`chol`] — Cholesky factorization, SPD solves, inverse, log-determinant.
//! * [`lu`] — LU with partial pivoting, general solves, determinant.
//! * [`eigen`] — symmetric eigendecomposition (cyclic Jacobi), the engine
//!   behind PCA and MASS's `mvrnorm`/`lda`.
//! * [`tri`] — triangular solves.

pub mod chol;
pub mod dense;
pub mod eigen;
pub mod gemm;
pub mod lu;
pub mod math;
pub mod par;
pub mod simd;
pub mod syrk;
pub mod tri;

pub use chol::{chol_inverse, chol_logdet, chol_solve, cholesky};
pub use dense::Dense;
pub use eigen::{eigen_sym, EigenSym};
pub use gemm::{gemm, gemm_strided, gemm_strided_level, matmul};
pub use lu::{lu_det, lu_factor, lu_solve, LuFactors};
pub use simd::SimdLevel;
pub use syrk::syrk;
pub use tri::{solve_lower, solve_lower_transpose, solve_upper};
