//! # ddc-linalg
//!
//! Dense linear-algebra substrate for the DDC distance-computation library.
//!
//! Everything here is implemented from scratch on top of `std` (plus `rand`
//! for seeding): row-major [`Matrix`] arithmetic, Householder [`qr`](fn@qr),
//! a cyclic-Jacobi symmetric eigensolver ([`sym_eigen`]), an
//! [`svd`](fn@svd) built on
//! it, the orthogonal-Procrustes solver used by OPQ, the row-blocked
//! outer-product sum ([`OuterSum`]) behind PCA's covariance and OPQ's
//! Procrustes input, [`Pca`] fitting, and
//! Haar-distributed [`random_orthogonal_matrix`] matrices used by ADSampling.
//!
//! Numeric conventions:
//! * heavy per-vector kernels ([`kernels`]) operate on `f32` data vectors
//!   (the storage format of every ANN benchmark the paper uses) and
//!   dispatch at runtime to the fastest SIMD backend the CPU supports
//!   (AVX2+FMA / NEON), with a scalar reference path selectable via
//!   `DDC_FORCE_SCALAR` — see [`kernels`] for the design and the
//!   [`kernels::backend_name`] introspection hook;
//! * factorizations run in `f64` for stability and are converted to `f32`
//!   once, when a rotation is baked into a query/data transform.
//!
//! ## Example
//!
//! ```
//! use ddc_linalg::{qr, Matrix};
//!
//! let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]).unwrap();
//! let (q, r) = qr(&a).unwrap();
//! assert!(q.matmul(&r).unwrap().max_abs_diff(&a) < 1e-10);
//! assert!(q.orthogonality_defect() < 1e-10);
//! ```

pub mod eigen;
pub mod error;
pub mod kernels;
pub mod matrix;
pub mod metric;
pub mod orthogonal;
pub mod outer;
pub mod pca;
pub mod qr;
pub mod rng;
pub mod rows;
pub mod svd;

pub use eigen::{sym_eigen, EigenDecomposition};
pub use error::LinalgError;
pub use matrix::Matrix;
pub use metric::Metric;
pub use orthogonal::{random_orthogonal_f32, random_orthogonal_matrix};
pub use outer::OuterSum;
pub use pca::Pca;
pub use qr::qr;
pub use rng::{fill_gaussian, fill_gaussian_f64, Gaussian};
pub use rows::{FlatRows, RowAccess};
pub use svd::{procrustes, svd, Svd};

/// Library-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
