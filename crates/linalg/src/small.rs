//! Const-generic complex matrices, kept for the driver benchmark.
//!
//! Nothing in the product calls this module: the GRAPE engine runs on the
//! `f64` storages of [`crate::real`], and the pulse verifier on the dynamic
//! [`Matrix`]. What is left is exactly what the driver benchmark's `linalg.*`
//! rows compile against — an inline [`SmallMatrix<N>`], its product, and
//! [`eigh_into`], which copies into and out of the one complex Hermitian
//! solver, [`crate::eigh_into`]. It goes when the benchmark stops timing it
//! (ROADMAP item 1(a)(ii)).

use crate::{EighWorkspace, Matrix, C64};

/// A dense complex matrix whose dimension is a compile-time constant, stored
/// inline and row-major as `[[C64; N]; N]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallMatrix<const N: usize> {
    rows: [[C64; N]; N],
}

impl<const N: usize> SmallMatrix<N> {
    /// Returns the all-zero matrix.
    #[inline]
    pub fn zeros() -> Self {
        SmallMatrix {
            rows: [[C64::ZERO; N]; N],
        }
    }

    /// Copies an `N x N` dynamic [`Matrix`] into static storage.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not `N x N`.
    pub fn from_matrix(source: &Matrix) -> Self {
        assert_eq!(
            source.shape(),
            (N, N),
            "SmallMatrix::from_matrix expects an {N}x{N} matrix"
        );
        let mut out = Self::zeros();
        for (row, chunk) in out.rows.iter_mut().zip(source.as_slice().chunks_exact(N)) {
            row.copy_from_slice(chunk);
        }
        out
    }

    /// Writes the matrix product `self * rhs` into `out`.
    ///
    /// The k-ordered accumulation matches the dynamic
    /// [`Matrix::matmul_into`] dense path exactly, so the two kernels produce
    /// bitwise-identical results; the fixed trip counts let the compiler unroll
    /// and vectorize the whole product. The borrow checker guarantees `out`
    /// aliases neither operand.
    #[inline]
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) {
        for (out_row, lhs_row) in out.rows.iter_mut().zip(self.rows.iter()) {
            let mut acc = [C64::ZERO; N];
            for (&a, rhs_row) in lhs_row.iter().zip(rhs.rows.iter()) {
                for (slot, &b) in acc.iter_mut().zip(rhs_row.iter()) {
                    *slot += a * b;
                }
            }
            *out_row = acc;
        }
    }
}

/// The heap buffers [`eigh_into`] copies through, held so that repeated
/// calls allocate nothing.
#[derive(Debug, Clone)]
pub struct SmallEighWorkspace<const N: usize> {
    input: Matrix,
    solver: EighWorkspace,
    eigenvalues: Vec<f64>,
    eigenvectors: Matrix,
}

impl<const N: usize> Default for SmallEighWorkspace<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> SmallEighWorkspace<N> {
    /// Creates the buffers for diagonalizing `N x N` matrices.
    pub fn new() -> Self {
        SmallEighWorkspace {
            input: Matrix::zeros(N, N),
            solver: EighWorkspace::new(N),
            eigenvalues: Vec::with_capacity(N),
            eigenvectors: Matrix::zeros(N, N),
        }
    }
}

/// [`crate::eigh_into`] on a [`SmallMatrix`]: `a = eigenvectors ·
/// diag(eigenvalues) · eigenvectors†` with the eigenvalues ascending, the
/// heap solver's bits exactly. Returns its Jacobi sweep count.
///
/// The matrix is *assumed* Hermitian; only its Hermitian part influences the
/// result.
pub fn eigh_into<const N: usize>(
    a: &SmallMatrix<N>,
    workspace: &mut SmallEighWorkspace<N>,
    eigenvalues: &mut [f64; N],
    eigenvectors: &mut SmallMatrix<N>,
) -> usize {
    workspace
        .input
        .as_mut_slice()
        .copy_from_slice(a.rows.as_flattened());
    let sweeps = crate::eigh_into(
        &workspace.input,
        &mut workspace.solver,
        &mut workspace.eigenvalues,
        &mut workspace.eigenvectors,
    );
    eigenvalues.copy_from_slice(&workspace.eigenvalues);
    eigenvectors
        .rows
        .as_flattened_mut()
        .copy_from_slice(workspace.eigenvectors.as_slice());
    sweeps
}
