//! Real-symmetric kernels for the GRAPE hot loop.
//!
//! Every Hamiltonian the gmon device model produces — charge `a + a†`, flux
//! `a†a`, coupling `(a + a†)(a + a†)`, zero drift — is real symmetric, so its
//! eigenvectors are real too. Storing them as [`C64`](crate::C64) makes every
//! eigensolver rotation and every product against them do two to four times
//! the arithmetic the data needs. This module is the real companion of the
//! complex storages: inline [`RealSmallMatrix<N>`] beside
//! [`SmallMatrix<N>`](crate::SmallMatrix) and flat heap [`RealMatrix`] beside
//! [`Matrix`](crate::Matrix), each with the four products GRAPE multiplies
//! eigenvectors through (real·real, transpose, real·complex, complex·real)
//! and a real-symmetric Jacobi eigensolver.
//!
//! Each kernel body exists once, over flat row-major slices, and both storages
//! forward to it: `matmul` is generic over the scalar types, so the three
//! products are one loop nest, and `eigh_symmetric` is the one Jacobi body.
//! On the inline storage the dimension is a constant after inlining, so the
//! loops unroll exactly as the complex [`SmallMatrix`](crate::SmallMatrix)
//! kernels do. The complex [`small::eigh_into`](crate::small::eigh_into) and
//! [`eigh_into`](crate::eigh_into) stay as the general Hermitian solvers, and
//! as the oracle the parity suite holds this module to.

use crate::{Matrix, SmallMatrix};
use std::ops::{AddAssign, Mul};

/// Writes the row-major `n x n` product `lhs · rhs` into `out`. The scalar
/// types are free, so this is real·real, real·complex and complex·real alike;
/// the k-ordered accumulation matches [`SmallMatrix::matmul_into`].
#[inline(always)]
fn matmul<A, B, O>(n: usize, lhs: &[A], rhs: &[B], out: &mut [O])
where
    A: Copy + Mul<B, Output = O>,
    B: Copy,
    O: Copy + Default + AddAssign,
{
    assert!(
        lhs.len() == n * n && rhs.len() == n * n && out.len() == n * n,
        "real-kernel product expects {n}x{n} operands"
    );
    for (out_row, lhs_row) in out.chunks_exact_mut(n).zip(lhs.chunks_exact(n)) {
        out_row.fill(O::default());
        for (&a, rhs_row) in lhs_row.iter().zip(rhs.chunks_exact(n)) {
            for (slot, &b) in out_row.iter_mut().zip(rhs_row) {
                *slot += a * b;
            }
        }
    }
}

/// Writes the transpose of the row-major `n x n` matrix `a` into `out`.
#[inline(always)]
fn transpose(n: usize, a: &[f64], out: &mut [f64]) {
    assert!(a.len() == n * n && out.len() == n * n);
    for (r, row) in a.chunks_exact(n).enumerate() {
        for (c, &value) in row.iter().enumerate() {
            out[c * n + r] = value;
        }
    }
}

/// Applies the plane rotation `(x, y) ← (c·x + k·y, c·y − k·x)` to rows `p < q`
/// of the row-major `n x n` matrix `m`. Both rows are contiguous, so the loop
/// vectorizes.
#[inline(always)]
fn rotate_rows(m: &mut [f64], n: usize, p: usize, q: usize, c: f64, k: f64) {
    let (head, tail) = m.split_at_mut(q * n);
    let row_p = &mut head[p * n..][..n];
    let row_q = &mut tail[..n];
    for (x, y) in row_p.iter_mut().zip(row_q) {
        let (xp, yq) = (*x, *y);
        *x = c * xp + k * yq;
        *y = c * yq - k * xp;
    }
}

/// Closed-form symmetric 2×2 eigendecomposition: the real case of the complex
/// solver's closed form (one square root, no sweep).
fn eigh_symmetric_2(a: &[f64], eigenvalues: &mut [f64], vectors: &mut [f64]) {
    let (a00, a11) = (a[0], a[3]);
    let b = 0.5 * (a[1] + a[2]);

    let mean = 0.5 * (a00 + a11);
    let half_diff = 0.5 * (a00 - a11);
    let radius = (half_diff * half_diff + b * b).sqrt();
    eigenvalues[0] = mean - radius;
    eigenvalues[1] = mean + radius;

    let scale = a00.abs().max(a11.abs()).max(b.abs()).max(1.0);
    if b.abs() <= f64::EPSILON * scale {
        // Effectively diagonal (this also covers degenerate eigenvalues, since
        // radius >= |b|): the eigenbasis is the computational basis, ordered by
        // the diagonal.
        let identity_order = a00 <= a11;
        vectors.copy_from_slice(&if identity_order {
            [1.0, 0.0, 0.0, 1.0]
        } else {
            [0.0, 1.0, 1.0, 0.0]
        });
        return;
    }
    for (col, &lambda) in [eigenvalues[0], eigenvalues[1]].iter().enumerate() {
        // Two analytically equivalent eigenvector forms; pick the better
        // conditioned one (larger norm) to avoid cancellation when λ is close
        // to a diagonal entry.
        let first = (b, lambda - a00);
        let second = (lambda - a11, b);
        let first_norm = first.0 * first.0 + first.1 * first.1;
        let second_norm = second.0 * second.0 + second.1 * second.1;
        let ((x, y), norm_sqr) = if first_norm >= second_norm {
            (first, first_norm)
        } else {
            (second, second_norm)
        };
        let inv = 1.0 / norm_sqr.sqrt();
        vectors[col] = x * inv;
        vectors[2 + col] = y * inv;
    }
}

/// The one real-symmetric eigensolver body, over flat row-major storage:
/// `a = V · diag(λ) · Vᵀ` with `λ` ascending in `eigenvalues` and the matching
/// orthonormal columns in `vectors`. `a` is consumed as the working copy; its
/// contents afterwards are unspecified. Returns the Jacobi sweep count — 0 on
/// the closed-form `n == 2` path.
///
/// The sweep schedule, convergence criteria and algebraic rotation (two square
/// roots, no trigonometry) are those of the complex
/// [`small::eigh_into`](crate::small::eigh_into). Symmetry halves the update:
/// a rotation recomputes rows `p` and `q` only and mirrors them into the two
/// columns, and the eigenvectors accumulate as *rows* (of `Vᵀ`), so every
/// arithmetic loop runs over contiguous memory.
#[inline(always)]
fn eigh_symmetric(n: usize, a: &mut [f64], eigenvalues: &mut [f64], vectors: &mut [f64]) -> usize {
    assert!(
        a.len() == n * n && vectors.len() == n * n && eigenvalues.len() == n,
        "real-symmetric eigh expects {n}x{n} storage and {n} eigenvalues"
    );
    if n == 2 {
        eigh_symmetric_2(a, eigenvalues, vectors);
        return 0;
    }
    // Work on the symmetric part to be robust against tiny asymmetries.
    for r in 0..n {
        for c in (r + 1)..n {
            let mean = 0.5 * (a[r * n + c] + a[c * n + r]);
            a[r * n + c] = mean;
            a[c * n + r] = mean;
        }
    }
    vectors.fill(0.0);
    for i in 0..n {
        vectors[i * n + i] = 1.0;
    }

    let max_sweeps = 60;
    let frobenius_norm = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let tol = 1e-14 * frobenius_norm.max(1.0);
    let mut sweeps = 0;
    for _ in 0..max_sweeps {
        let mut off_norm = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off_norm += a[p * n + q] * a[p * n + q];
            }
        }
        if off_norm.sqrt() <= tol {
            break;
        }
        sweeps += 1;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p * n + q];
                let magnitude = apq.abs();
                if magnitude <= tol / (n as f64) {
                    continue;
                }
                let app = a[p * n + p];
                let aqq = a[q * n + q];
                // Algebraic rotation: the annihilation condition is
                // tan 2θ = 2|apq| / (app − aqq); the smaller-angle root comes
                // from t = tan θ via the stable quadratic form, and the complex
                // kernel's phase factor apq/|apq| is just the sign of apq here.
                let tau = (app - aqq) / (2.0 * magnitude);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let k = if apq < 0.0 { -t * c } else { t * c };

                // A ← Jᵀ A J: off the (p, q) block only the row update acts on
                // rows p and q; the block itself has the closed form below; the
                // two columns are the rows' mirror image.
                rotate_rows(a, n, p, q, c, k);
                let shift = t * magnitude;
                a[p * n + p] = app + shift;
                a[q * n + q] = aqq - shift;
                a[p * n + q] = 0.0;
                a[q * n + p] = 0.0;
                for j in 0..n {
                    a[j * n + p] = a[p * n + j];
                    a[j * n + q] = a[q * n + j];
                }
                // V ← V · J, on the rows of Vᵀ.
                rotate_rows(vectors, n, p, q, c, k);
            }
        }
    }

    // Sort ascending (selection sort: at most n row swaps, no scratch buffer),
    // then turn the eigenvector rows into columns.
    for (i, value) in eigenvalues.iter_mut().enumerate() {
        *value = a[i * n + i];
    }
    for i in 0..n {
        let mut least = i;
        for j in (i + 1)..n {
            if eigenvalues[j] < eigenvalues[least] {
                least = j;
            }
        }
        if least != i {
            eigenvalues.swap(i, least);
            let (head, tail) = vectors.split_at_mut(least * n);
            head[i * n..][..n].swap_with_slice(&mut tail[..n]);
        }
    }
    for r in 0..n {
        for c in (r + 1)..n {
            vectors.swap(r * n + c, c * n + r);
        }
    }
    sweeps
}

/// A dense real matrix whose dimension is a compile-time constant: the real
/// companion of [`SmallMatrix<N>`], stored inline and row-major as
/// `[[f64; N]; N]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealSmallMatrix<const N: usize> {
    rows: [[f64; N]; N],
}

impl<const N: usize> RealSmallMatrix<N> {
    /// The all-zero matrix.
    pub const ZERO: RealSmallMatrix<N> = RealSmallMatrix {
        rows: [[0.0; N]; N],
    };

    /// Builds a matrix entry-by-entry from `f(row, col)`.
    pub fn from_fn(mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut out = Self::ZERO;
        for (r, row) in out.rows.iter_mut().enumerate() {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = f(r, c);
            }
        }
        out
    }

    /// The `N * N` entries, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self.rows.as_flattened()
    }

    /// Mutable view of the `N * N` row-major entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.rows.as_flattened_mut()
    }

    /// Writes the real product `self · rhs` into `out`.
    #[inline]
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) {
        matmul(N, self.as_slice(), rhs.as_slice(), out.as_mut_slice());
    }

    /// Writes `selfᵀ` into `out`.
    #[inline]
    pub fn transpose_into(&self, out: &mut Self) {
        transpose(N, self.as_slice(), out.as_mut_slice());
    }

    /// Writes the mixed product `self · rhs` (real times complex) into `out`.
    #[inline]
    pub fn mul_complex_into(&self, rhs: &SmallMatrix<N>, out: &mut SmallMatrix<N>) {
        matmul(N, self.as_slice(), rhs.as_slice(), out.as_mut_slice());
    }

    /// Diagonalizes symmetric `self` without heap allocation:
    /// `self = eigenvectors · diag(eigenvalues) · eigenvectorsᵀ`, eigenvalues
    /// ascending. `self` is consumed as the working copy (contents unspecified
    /// afterwards).
    /// Closed-form for `N == 2`, cyclic Jacobi otherwise; returns the sweep
    /// count. Only the symmetric part of `self` influences the result.
    ///
    /// # Panics
    ///
    /// Panics if `eigenvalues.len() != N`.
    #[inline]
    pub fn eigh_in_place(&mut self, eigenvalues: &mut [f64], eigenvectors: &mut Self) -> usize {
        eigh_symmetric(
            N,
            self.as_mut_slice(),
            eigenvalues,
            eigenvectors.as_mut_slice(),
        )
    }
}

impl<const N: usize> SmallMatrix<N> {
    /// Writes the mixed product `self · rhs` (complex times real) into `out`.
    #[inline]
    pub fn mul_real_into(&self, rhs: &RealSmallMatrix<N>, out: &mut Self) {
        matmul(N, self.as_slice(), rhs.as_slice(), out.as_mut_slice());
    }
}

/// A dense square real matrix on the heap: the real companion of [`Matrix`] for
/// the dimensions [`RealSmallMatrix`] is not instantiated at. Row-major in one
/// flat `Vec<f64>`.
#[derive(Debug, Clone, PartialEq)]
pub struct RealMatrix {
    dim: usize,
    data: Vec<f64>,
}

impl RealMatrix {
    /// The `dim x dim` all-zero matrix.
    pub fn zeros(dim: usize) -> Self {
        RealMatrix {
            dim,
            data: vec![0.0; dim * dim],
        }
    }

    /// Builds a `dim x dim` matrix entry-by-entry from `f(row, col)`.
    pub fn from_fn(dim: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut out = Self::zeros(dim);
        for (index, slot) in out.data.iter_mut().enumerate() {
            *slot = f(index / dim, index % dim);
        }
        out
    }

    /// The matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `dim * dim` entries, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the `dim * dim` row-major entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Writes the real product `self · rhs` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the three dimensions differ (as do all the kernels below).
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) {
        matmul(self.dim, &self.data, &rhs.data, &mut out.data);
    }

    /// Writes `selfᵀ` into `out`.
    pub fn transpose_into(&self, out: &mut Self) {
        transpose(self.dim, &self.data, &mut out.data);
    }

    /// Writes the mixed product `self · rhs` (real times complex) into `out`.
    pub fn mul_complex_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert!(rhs.is_square() && out.is_square(), "square operands only");
        matmul(self.dim, &self.data, rhs.as_slice(), out.as_mut_slice());
    }

    /// The heap instance of [`RealSmallMatrix::eigh_in_place`]: the same
    /// solver body, with the same contract.
    pub fn eigh_in_place(&mut self, eigenvalues: &mut [f64], eigenvectors: &mut Self) -> usize {
        eigh_symmetric(
            self.dim,
            &mut self.data,
            eigenvalues,
            &mut eigenvectors.data,
        )
    }
}

impl Matrix {
    /// Writes the mixed product `self · rhs` (complex times real) into `out`.
    ///
    /// # Panics
    ///
    /// Panics unless `self` and `out` are square with `rhs`'s dimension.
    pub fn mul_real_into(&self, rhs: &RealMatrix, out: &mut Matrix) {
        assert!(self.is_square() && out.is_square(), "square operands only");
        matmul(rhs.dim, self.as_slice(), &rhs.data, out.as_mut_slice());
    }
}
