//! Dense complex linear algebra for the partial-compilation reproduction.
//!
//! This crate is the numerical substrate that every other crate in the workspace
//! builds on. It provides:
//!
//! * [`C64`] — a `Copy` double-precision complex scalar with the usual arithmetic,
//!   exponentials, and polar helpers.
//! * [`Matrix`] — a dense, row-major complex matrix with matrix multiplication,
//!   Kronecker products, adjoints, traces, and unitarity checks. The allocating
//!   operations are thin wrappers over in-place kernels ([`Matrix::matmul_into`],
//!   [`Matrix::dagger_into`], [`Matrix::scale_into`], [`Matrix::add_scaled_into`])
//!   that write into caller-owned buffers.
//! * [`eigh`](eigh::eigh) / [`eigh_into`] — the one complex Hermitian
//!   eigensolver (cyclic Jacobi), the oracle the real kernels and the GRAPE
//!   gradient are held to.
//! * [`real`] — the GRAPE hot-loop storages: inline const-generic
//!   [`RealSmallMatrix`] and heap [`RealMatrix`], with the `f64` product and
//!   the eigensolvers a real-symmetric Hamiltonian allows.
//! * [`small`] — inline const-generic complex [`SmallMatrix`], its product, and
//!   a copy through [`eigh_into`]: what the driver benchmark's `linalg.*` rows
//!   time.
//! * [`Vector`] — a dense complex column vector used for quantum state vectors.
//! * [`expm`](expm::expm) — the matrix exponential via scaling-and-squaring with a
//!   truncated Taylor series, which the independent pulse verifier runs per slice.
//! * [`fidelity`] — the trace fidelity between unitaries, the cost function that
//!   GRAPE optimizes.
//!
//! The sizes involved in this project are small (at most `2^4 x 2^4 = 16 x 16` complex
//! matrices inside GRAPE, and at most `2^10` state vectors in the circuit simulator), so
//! a straightforward dense implementation is both sufficient and easy to audit.
//!
//! # Example
//!
//! ```
//! use vqc_linalg::{C64, Matrix};
//!
//! // Build the Pauli-X matrix and verify X^2 = I.
//! let x = Matrix::from_rows(&[
//!     &[C64::ZERO, C64::ONE],
//!     &[C64::ONE, C64::ZERO],
//! ]);
//! let x2 = x.matmul(&x);
//! assert!(x2.approx_eq(&Matrix::identity(2), 1e-12));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod complex;
pub mod eigh;
mod error;
pub mod expm;
pub mod fidelity;
mod matrix;
pub mod real;
pub mod small;
mod vector;

pub use complex::C64;
pub use eigh::{eigh, eigh_into, EighWorkspace};
pub use error::LinalgError;
pub use matrix::Matrix;
pub use real::{RealMatrix, RealSmallMatrix};
pub use small::{SmallEighWorkspace, SmallMatrix};
pub use vector::Vector;

// audit:allow(dead_pub): EighResult is what `eigh` returns
pub use eigh::EighResult;

/// Convenience constructor for a complex number, mirroring `num_complex::Complex::new`.
///
/// ```
/// use vqc_linalg::{c64, C64};
/// assert_eq!(c64(1.0, -2.0), C64::new(1.0, -2.0));
/// ```
#[inline]
pub fn c64(re: f64, im: f64) -> C64 {
    C64::new(re, im)
}
