//! Dense, row-major complex matrices.

use crate::{LinalgError, Vector, C64};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// Inner dimension at and above which [`Matrix::matmul_into`] skips exact-zero
/// left-operand entries. Below it (dense GRAPE-sized blocks) the zero test costs
/// a branch per element and almost never fires; at and above it (kron-built
/// circuit unitaries, padded gate targets) structural zeros dominate and the
/// skip saves whole rows of work.
const SPARSITY_SKIP_MIN_DIM: usize = 8;

/// A dense complex matrix stored in row-major order.
///
/// All shapes appearing in this workspace are small (at most 16x16 in the pulse
/// optimizer, 1024x1024 when building full-circuit unitaries for verification), so the
/// implementation favours clarity over cache blocking.
///
/// ```
/// use vqc_linalg::{C64, Matrix};
/// let h = Matrix::from_fn(2, 2, |r, c| {
///     let s = 1.0 / f64::sqrt(2.0);
///     if r == 1 && c == 1 { C64::from_real(-s) } else { C64::from_real(s) }
/// });
/// assert!(h.is_unitary(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> C64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        assert!(
            !rows.is_empty(),
            "Matrix::from_rows requires at least one row"
        );
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Matrix { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[C64]) -> Self {
        let n = entries.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Read-only view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not agree; use [`Matrix::try_matmul`] for a
    /// fallible variant.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        // audit:allow(unwrap): documented panicking variant; try_matmul is the fallible API
        self.try_matmul(rhs).expect("matmul dimension mismatch")
    }

    /// Matrix product returning an error on shape mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        Ok(out)
    }

    /// Writes the matrix product `self * rhs` into `out` without allocating.
    ///
    /// `out` is overwritten entirely; the borrow checker guarantees it aliases
    /// neither operand. This is the hot kernel behind GRAPE's per-iteration
    /// propagator and gradient products.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `out` is not `self.rows() x
    /// rhs.cols()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul_into dimension mismatch");
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul_into output shape mismatch"
        );
        out.data.fill(C64::ZERO);
        if self.cols >= SPARSITY_SKIP_MIN_DIM {
            // Kron-built circuit unitaries and padded gate targets at these sizes
            // are mostly exact zeros; skipping a zero left-entry saves a whole
            // row of multiply-adds.
            for i in 0..self.rows {
                for k in 0..self.cols {
                    let a = self.data[i * self.cols + k];
                    if a.re == 0.0 && a.im == 0.0 {
                        continue;
                    }
                    let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                    let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                    for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                        *o += a * b;
                    }
                }
            }
        } else {
            // Small GRAPE-sized blocks (2x2, 3x3, 4x4) are dense: the zero test
            // costs a branch per element and almost never fires, so the inner
            // loop stays branch-free here.
            for i in 0..self.rows {
                for k in 0..self.cols {
                    let a = self.data[i * self.cols + k];
                    let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                    let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                    for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                        *o += a * b;
                    }
                }
            }
        }
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != v.len()`.
    pub fn matvec(&self, v: &Vector) -> Vector {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        let mut out = vec![C64::ZERO; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = C64::ZERO;
            for (a, b) in row.iter().zip(v.as_slice().iter()) {
                acc += *a * *b;
            }
            *slot = acc;
        }
        Vector::from_vec(out)
    }

    /// Conjugate transpose (Hermitian adjoint).
    pub fn dagger(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.dagger_into(&mut out);
        out
    }

    /// Writes the conjugate transpose of `self` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `self.cols() x self.rows()`.
    pub fn dagger_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "dagger_into output shape mismatch"
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c].conj();
            }
        }
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    ///
    /// This is how multi-qubit operators are assembled from single- and two-qubit gates.
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let rows = self.rows * rhs.rows;
        let cols = self.cols * rhs.cols;
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a.re == 0.0 && a.im == 0.0 {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: C64) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        self.scale_into(k, &mut out);
        out
    }

    /// Writes `k * self` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn scale_into(&self, k: C64, out: &mut Matrix) {
        assert_eq!(self.shape(), out.shape(), "scale_into shape mismatch");
        for (o, &z) in out.data.iter_mut().zip(self.data.iter()) {
            *o = z * k;
        }
    }

    /// Scales every entry by a real factor.
    pub fn scale_real(&self, k: f64) -> Matrix {
        self.scale(C64::from_real(k))
    }

    /// Writes `self + k * rhs` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if any of the three shapes differ.
    pub fn add_scaled_into(&self, k: C64, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled_into shape mismatch");
        assert_eq!(
            self.shape(),
            out.shape(),
            "add_scaled_into output shape mismatch"
        );
        for ((o, &a), &b) in out
            .data
            .iter_mut()
            .zip(self.data.iter())
            .zip(rhs.data.iter())
        {
            *o = a + b * k;
        }
    }

    /// Adds `k * rhs` into `self` in place — the accumulating form of
    /// [`Matrix::add_scaled_into`], used to assemble slice Hamiltonians
    /// `H = H_drift + Σ_k u_k H_k` without temporaries.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled_assign(&mut self, k: C64, rhs: &Matrix) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "add_scaled_assign shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b * k;
        }
    }

    /// Frobenius norm `sqrt(sum |a_ij|^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest entry magnitude (the max-abs or `l_inf` element norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// 1-norm (maximum absolute column sum), used to pick the scaling factor in `expm`.
    pub fn one_norm(&self) -> f64 {
        let mut best = 0.0f64;
        for c in 0..self.cols {
            let mut s = 0.0;
            for r in 0..self.rows {
                s += self[(r, c)].abs();
            }
            best = best.max(s);
        }
        best
    }

    /// Returns `true` if `self` is unitary to within tolerance `tol`
    /// (i.e. `‖self† self − I‖_max ≤ tol`).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = self.dagger().matmul(self);
        let eye = Matrix::identity(self.rows);
        (&prod - &eye).max_abs() <= tol
    }

    /// Returns `true` if `self` is Hermitian to within tolerance `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        (&self.dagger() - self).max_abs() <= tol
    }

    /// Returns `true` if every entry of `self` is within `tol` of the corresponding
    /// entry of `other`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape() && (self - other).max_abs() <= tol
    }

    /// Returns `true` if `self` equals `other` up to a global phase, to tolerance `tol`.
    ///
    /// Quantum operations that differ only by a global phase are physically identical;
    /// GRAPE targets are compared with this predicate.
    pub fn approx_eq_up_to_phase(&self, other: &Matrix, tol: f64) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        // Find the entry of `other` with the largest magnitude to estimate the phase.
        let mut idx = 0;
        let mut best = 0.0;
        for (i, z) in other.data.iter().enumerate() {
            if z.abs() > best {
                best = z.abs();
                idx = i;
            }
        }
        if best < tol {
            return self.max_abs() <= tol;
        }
        let phase = self.data[idx] / other.data[idx];
        if (phase.abs() - 1.0).abs() > tol {
            return false;
        }
        self.approx_eq(&other.scale(phase), tol)
    }

    /// Returns `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale_real(-1.0)
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    fn pauli_x() -> Matrix {
        Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]])
    }

    fn pauli_y() -> Matrix {
        Matrix::from_rows(&[&[C64::ZERO, -C64::I], &[C64::I, C64::ZERO]])
    }

    fn pauli_z() -> Matrix {
        Matrix::diag(&[C64::ONE, -C64::ONE])
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let x = pauli_x();
        let eye = Matrix::identity(2);
        assert_eq!(x.matmul(&eye), x);
        assert_eq!(eye.matmul(&x), x);
    }

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (pauli_x(), pauli_y(), pauli_z());
        // XY = iZ
        assert!(x.matmul(&y).approx_eq(&z.scale(C64::I), 1e-14));
        // X^2 = Y^2 = Z^2 = I
        for m in [&x, &y, &z] {
            assert!(m.matmul(m).approx_eq(&Matrix::identity(2), 1e-14));
        }
        // Paulis are unitary and Hermitian.
        for m in [&x, &y, &z] {
            assert!(m.is_unitary(1e-14));
            assert!(m.is_hermitian(1e-14));
        }
    }

    #[test]
    fn trace_of_paulis_is_zero() {
        for m in [pauli_x(), pauli_y(), pauli_z()] {
            assert!(m.trace().abs() < 1e-15);
        }
        assert!((Matrix::identity(4).trace() - c64(4.0, 0.0)).abs() < 1e-15);
    }

    #[test]
    fn kron_shapes_and_values() {
        let x = pauli_x();
        let eye = Matrix::identity(2);
        let xi = x.kron(&eye);
        assert_eq!(xi.shape(), (4, 4));
        // X ⊗ I applied to |00> (index 0) gives |10> (index 2).
        assert_eq!(xi[(2, 0)], C64::ONE);
        assert_eq!(xi[(0, 0)], C64::ZERO);
        // (A ⊗ B)(C ⊗ D) = AC ⊗ BD
        let z = pauli_z();
        let lhs = x.kron(&z).matmul(&x.kron(&z));
        let rhs = x.matmul(&x).kron(&z.matmul(&z));
        assert!(lhs.approx_eq(&rhs, 1e-14));
    }

    #[test]
    fn dagger_reverses_products() {
        let x = pauli_x();
        let y = pauli_y();
        let lhs = x.matmul(&y).dagger();
        let rhs = y.dagger().matmul(&x.dagger());
        assert!(lhs.approx_eq(&rhs, 1e-14));
    }

    #[test]
    fn try_matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        let err = a.try_matmul(&b).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn matvec_matches_matmul() {
        let y = pauli_y();
        let v = Vector::from_vec(vec![c64(1.0, 0.0), c64(0.0, 0.0)]);
        let w = y.matvec(&v);
        assert!(w.get(1).approx_eq(C64::I, 1e-15));
        assert!(w.get(0).approx_eq(C64::ZERO, 1e-15));
    }

    #[test]
    fn global_phase_equality() {
        let x = pauli_x();
        let phased = x.scale(C64::cis(0.7));
        assert!(phased.approx_eq_up_to_phase(&x, 1e-12));
        assert!(!phased.approx_eq(&x, 1e-12));
        assert!(!pauli_z().approx_eq_up_to_phase(&x, 1e-12));
    }

    #[test]
    fn norms() {
        let x = pauli_x();
        assert!((x.frobenius_norm() - 2.0_f64.sqrt()).abs() < 1e-14);
        assert!((x.one_norm() - 1.0).abs() < 1e-14);
        assert!((x.max_abs() - 1.0).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "trace requires a square matrix")]
    fn trace_panics_on_rectangular() {
        Matrix::zeros(2, 3).trace();
    }
}
