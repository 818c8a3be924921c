//! Const-generic complex small-matrix kernels.
//!
//! Every matrix inside a GRAPE run on a qubit device has one of four statically
//! known sizes — 2×2, 4×4, 8×8, or 16×16 for 1q–4q blocks — so the dynamic
//! [`Matrix`] kernels pay for generality they never use: runtime bounds checks, pointer
//! chasing through `Vec` storage, and loop trip counts the compiler cannot see.
//! [`SmallMatrix<N>`] stores its entries inline as `[[C64; N]; N]` and expresses
//! the same `_into` kernel family ([`SmallMatrix::matmul_into`],
//! [`SmallMatrix::dagger_into`], [`SmallMatrix::scale_into`],
//! [`SmallMatrix::add_scaled_into`]) over fixed-trip-count loops that
//! monomorphization fully unrolls and auto-vectorizes. [`eigh_into`] completes
//! the family: a closed-form Hermitian eigendecomposition for N = 2 and a
//! cyclic Jacobi path for larger N whose rotations are computed algebraically
//! (two square roots instead of the dynamic kernel's per-rotation
//! arg/atan2/sin/cos/cis chain). It converges to the same eigensystem as the
//! dynamic [`crate::eigh_into`] — identical eigenvalues, eigenvectors equal up
//! to the inherent per-column phase freedom — which the parity suite checks via
//! reconstruction.
//!
//! The GRAPE engine itself runs on the `f64` storages of [`crate::real`]
//! (real-symmetric Hamiltonians, planar complex matrices) and calls nothing
//! here: `SmallMatrix` and this Hermitian [`eigh_into`] are the general complex
//! API, the real kernels' test oracle, and the benchmark's `linalg.*` rows.
//!
//! The kernels are *branch-free*: unlike the dynamic `matmul_into`, there is no
//! per-element zero test — on dense 2×2/4×4 inputs the test costs more than the
//! multiply it occasionally saves. All kernels write into caller-owned buffers
//! and perform no heap allocation, preserving the workspace invariant the
//! counting-allocator test in `vqc-pulse` gates on.

use crate::{Matrix, C64};

/// A dense complex matrix whose dimension is a compile-time constant.
///
/// Storage is row-major and inline (`[[C64; N]; N]`), so a `SmallMatrix` is
/// `Copy` and a `Vec<SmallMatrix<N>>` is one contiguous allocation — the packed
/// per-slice storage layout a hot loop can stream through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallMatrix<const N: usize> {
    rows: [[C64; N]; N],
}

impl<const N: usize> Default for SmallMatrix<N> {
    fn default() -> Self {
        Self::zeros()
    }
}

impl<const N: usize> SmallMatrix<N> {
    /// The all-zero matrix.
    pub const ZERO: SmallMatrix<N> = SmallMatrix {
        rows: [[C64::ZERO; N]; N],
    };

    /// Returns the all-zero matrix.
    #[inline]
    pub fn zeros() -> Self {
        Self::ZERO
    }

    /// Returns the identity matrix.
    pub fn identity() -> Self {
        let mut out = Self::ZERO;
        for (i, row) in out.rows.iter_mut().enumerate() {
            row[i] = C64::ONE;
        }
        out
    }

    /// Builds a matrix entry-by-entry from `f(row, col)`.
    pub fn from_fn(mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut out = Self::ZERO;
        for (r, row) in out.rows.iter_mut().enumerate() {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = f(r, c);
            }
        }
        out
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
        Self::from_fn(|r, c| source[(r, c)])
    }

    /// Writes this matrix into an existing `N x N` dynamic [`Matrix`] without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `N x N`.
    pub fn write_to(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (N, N),
            "SmallMatrix::write_to expects an {N}x{N} output"
        );
        for (row, chunk) in self.rows.iter().zip(out.as_mut_slice().chunks_exact_mut(N)) {
            chunk.copy_from_slice(row);
        }
    }

    /// Returns this matrix as a freshly allocated dynamic [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        let mut out = Matrix::zeros(N, N);
        self.write_to(&mut out);
        out
    }

    /// The entry at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> C64 {
        self.rows[row][col]
    }

    /// Sets the entry at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: C64) {
        self.rows[row][col] = value;
    }

    /// Immutable access to the row-major inline storage.
    #[inline]
    pub fn rows(&self) -> &[[C64; N]; N] {
        &self.rows
    }

    /// Mutable access to the row-major inline storage.
    #[inline]
    pub fn rows_mut(&mut self) -> &mut [[C64; N]; N] {
        &mut self.rows
    }

    /// The `N * N` entries as one row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        self.rows.as_flattened()
    }

    /// Mutable view of the `N * N` row-major entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        self.rows.as_flattened_mut()
    }

    /// Iterates over all entries in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = C64> + '_ {
        self.rows.iter().flatten().copied()
    }

    /// Overwrites this matrix from a row-major slice of `N * N` entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries.len() != N * N`.
    pub fn fill_from_entries(&mut self, entries: &[C64]) {
        assert_eq!(entries.len(), N * N, "expected {N}x{N} entries");
        for (row, chunk) in self.rows.iter_mut().zip(entries.chunks_exact(N)) {
            row.copy_from_slice(chunk);
        }
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

    /// Writes the conjugate transpose of `self` into `out`.
    #[inline]
    pub fn dagger_into(&self, out: &mut Self) {
        for (r, row) in self.rows.iter().enumerate() {
            for (c, &value) in row.iter().enumerate() {
                out.rows[c][r] = value.conj();
            }
        }
    }

    /// Writes `self * k` (entry-wise complex scaling) into `out`.
    #[inline]
    pub fn scale_into(&self, k: C64, out: &mut Self) {
        for (out_row, row) in out.rows.iter_mut().zip(self.rows.iter()) {
            for (slot, &value) in out_row.iter_mut().zip(row.iter()) {
                *slot = value * k;
            }
        }
    }

    /// Writes `self + k * rhs` into `out`.
    #[inline]
    pub fn add_scaled_into(&self, k: C64, rhs: &Self, out: &mut Self) {
        for ((out_row, row), rhs_row) in out
            .rows
            .iter_mut()
            .zip(self.rows.iter())
            .zip(rhs.rows.iter())
        {
            for ((slot, &a), &b) in out_row.iter_mut().zip(row.iter()).zip(rhs_row.iter()) {
                *slot = a + b * k;
            }
        }
    }

    /// Accumulates `self += k * rhs` in place.
    #[inline]
    pub fn add_scaled_assign(&mut self, k: C64, rhs: &Self) {
        for (row, rhs_row) in self.rows.iter_mut().zip(rhs.rows.iter()) {
            for (slot, &b) in row.iter_mut().zip(rhs_row.iter()) {
                *slot += b * k;
            }
        }
    }

    /// Frobenius norm `sqrt(Σ |a_ij|²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.entries().map(C64::norm_sqr).sum::<f64>().sqrt()
    }

    /// Largest entry-wise distance to `other`.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        self.entries()
            .zip(other.entries())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Reusable scratch buffers for the const-generic [`eigh_into`].
///
/// One workspace serves any number of diagonalizations with zero heap traffic
/// (the buffers are plain inline arrays).
#[derive(Debug, Clone)]
pub struct SmallEighWorkspace<const N: usize> {
    /// Hermitian working copy that the Jacobi rotations reduce to diagonal form.
    work: SmallMatrix<N>,
    /// Accumulated product of Jacobi rotations (the unsorted eigenvector basis).
    vectors: SmallMatrix<N>,
    /// Sort buffer pairing each diagonal entry with its column index.
    order: [(f64, usize); N],
}

impl<const N: usize> Default for SmallEighWorkspace<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> SmallEighWorkspace<N> {
    /// Creates scratch buffers for diagonalizing `N x N` matrices.
    pub fn new() -> Self {
        SmallEighWorkspace {
            work: SmallMatrix::ZERO,
            vectors: SmallMatrix::ZERO,
            order: [(0.0, 0); N],
        }
    }
}

/// Diagonalizes a Hermitian [`SmallMatrix`] into caller-owned buffers without
/// heap allocation: `a = eigenvectors · diag(eigenvalues) · eigenvectors†` with
/// the eigenvalues in ascending order.
///
/// For `N == 2` the decomposition is closed-form (one square root instead of a
/// Jacobi sweep — the single biggest win on 1q blocks); for larger `N` it runs
/// a cyclic Jacobi iteration with algebraically computed rotations (no
/// per-rotation trigonometry), converging to the same eigensystem as the
/// dynamic [`crate::eigh_into`] up to per-column eigenvector phases. The
/// `N == 2` branch folds away at monomorphization; there is no runtime dispatch.
///
/// The matrix is *assumed* Hermitian; only its Hermitian part influences the
/// result.
///
/// Returns the number of Jacobi sweeps performed: 0 for the closed-form
/// `N == 2` path, otherwise the sweep count the cyclic iteration needed to
/// converge.
pub fn eigh_into<const N: usize>(
    a: &SmallMatrix<N>,
    workspace: &mut SmallEighWorkspace<N>,
    eigenvalues: &mut [f64; N],
    eigenvectors: &mut SmallMatrix<N>,
) -> usize {
    if N == 2 {
        eigh2_closed_form(a, eigenvalues, eigenvectors);
        0
    } else {
        hermitian_jacobi(a, workspace, eigenvalues, eigenvectors)
    }
}

/// Closed-form Hermitian 2×2 eigendecomposition.
///
/// Only indices 0 and 1 are touched; callers guarantee `N == 2` (the generic
/// signature exists so the branch in [`eigh_into`] folds at compile time).
fn eigh2_closed_form<const N: usize>(
    a: &SmallMatrix<N>,
    eigenvalues: &mut [f64; N],
    eigenvectors: &mut SmallMatrix<N>,
) {
    // Hermitian part: real diagonal, averaged off-diagonal.
    let a00 = a.rows[0][0].re;
    let a11 = a.rows[1][1].re;
    let b = (a.rows[0][1] + a.rows[1][0].conj()) * 0.5;

    let mean = 0.5 * (a00 + a11);
    let half_diff = 0.5 * (a00 - a11);
    let radius = (half_diff * half_diff + b.norm_sqr()).sqrt();
    eigenvalues[0] = mean - radius;
    eigenvalues[1] = mean + radius;

    *eigenvectors = SmallMatrix::ZERO;
    let scale = a00.abs().max(a11.abs()).max(b.abs()).max(1.0);
    if b.abs() <= f64::EPSILON * scale {
        // Effectively diagonal (this also covers degenerate eigenvalues, since
        // radius >= |b|): the eigenbasis is the computational basis, ordered by
        // the diagonal.
        if a00 <= a11 {
            eigenvectors.rows[0][0] = C64::ONE;
            eigenvectors.rows[1][1] = C64::ONE;
        } else {
            eigenvectors.rows[1][0] = C64::ONE;
            eigenvectors.rows[0][1] = C64::ONE;
        }
        return;
    }
    for (col, &lambda) in [eigenvalues[0], eigenvalues[1]].iter().enumerate() {
        // Two analytically equivalent eigenvector forms; pick the better
        // conditioned one (larger norm) to avoid cancellation when λ is close
        // to a diagonal entry.
        let first = (b, C64::from_real(lambda - a00));
        let second = (C64::from_real(lambda - a11), b.conj());
        let first_norm = first.0.norm_sqr() + first.1.norm_sqr();
        let second_norm = second.0.norm_sqr() + second.1.norm_sqr();
        let (x, y, norm_sqr) = if first_norm >= second_norm {
            (first.0, first.1, first_norm)
        } else {
            (second.0, second.1, second_norm)
        };
        let inv = 1.0 / norm_sqr.sqrt();
        eigenvectors.rows[0][col] = x.scale(inv);
        eigenvectors.rows[1][col] = y.scale(inv);
    }
}

/// Cyclic Jacobi eigendecomposition on inline storage: the dynamic
/// [`crate::eigh_into`]'s sweep schedule and convergence criteria, with the
/// per-rotation trigonometry replaced by algebraic expressions. Returns the
/// number of rotation sweeps executed before convergence.
fn hermitian_jacobi<const N: usize>(
    a: &SmallMatrix<N>,
    workspace: &mut SmallEighWorkspace<N>,
    eigenvalues: &mut [f64; N],
    eigenvectors: &mut SmallMatrix<N>,
) -> usize {
    // Work on the Hermitian part to be robust against tiny asymmetries.
    let work = &mut workspace.work;
    for r in 0..N {
        for c in 0..N {
            work.rows[r][c] = (a.rows[r][c] + a.rows[c][r].conj()) * 0.5;
        }
    }
    let v = &mut workspace.vectors;
    *v = SmallMatrix::identity();

    let max_sweeps = 60;
    let tol = 1e-14 * work.frobenius_norm().max(1.0);
    let mut sweeps = 0;
    for _ in 0..max_sweeps {
        let mut off_norm = 0.0;
        for p in 0..N {
            for q in (p + 1)..N {
                off_norm += work.rows[p][q].norm_sqr();
            }
        }
        if off_norm.sqrt() <= tol {
            break;
        }
        sweeps += 1;
        for p in 0..N {
            for q in (p + 1)..N {
                let apq = work.rows[p][q];
                let magnitude = apq.abs();
                if magnitude <= tol / (N as f64) {
                    continue;
                }
                let app = work.rows[p][p].re;
                let aqq = work.rows[q][q].re;
                // Algebraic rotation — no trigonometry in the hot loop. The
                // annihilation condition is tan 2θ = 2|apq| / (app − aqq); the
                // smaller-angle root comes from t = tan θ via the stable
                // quadratic form, and the phase factor is apq normalized by its
                // magnitude. Two square roots replace the dynamic kernel's
                // arg/atan2/sin/cos/cis chain, which dominates 4×4 and 16×16
                // diagonalization time.
                let e_pos = apq.scale(1.0 / magnitude);
                let e_neg = e_pos.conj();
                let tau = (app - aqq) / (2.0 * magnitude);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Right-multiply by J: columns p and q change.
                for i in 0..N {
                    let aip = work.rows[i][p];
                    let aiq = work.rows[i][q];
                    work.rows[i][p] = aip * c + aiq * (e_neg * s);
                    work.rows[i][q] = aip * (e_pos * (-s)) + aiq * c;
                }
                // Left-multiply by J†: rows p and q change.
                for j in 0..N {
                    let apj = work.rows[p][j];
                    let aqj = work.rows[q][j];
                    work.rows[p][j] = apj * c + aqj * (e_pos * s);
                    work.rows[q][j] = apj * (e_neg * (-s)) + aqj * c;
                }
                // Accumulate the eigenvector basis: V <- V · J.
                for i in 0..N {
                    let vip = v.rows[i][p];
                    let viq = v.rows[i][q];
                    v.rows[i][p] = vip * c + viq * (e_neg * s);
                    v.rows[i][q] = vip * (e_pos * (-s)) + viq * c;
                }
            }
        }
    }

    // Extract eigenvalues and sort ascending, permuting the eigenvector columns
    // along; `sort_unstable_by` on the inline buffer keeps this allocation-free.
    let pairs = &mut workspace.order;
    for (i, pair) in pairs.iter_mut().enumerate() {
        *pair = (work.rows[i][i].re, i);
    }
    // audit:allow(unwrap): Hermitian eigenvalues are real and finite by construction
    pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("eigenvalues are finite"));
    for (c, &(value, source)) in pairs.iter().enumerate() {
        eigenvalues[c] = value;
        for r in 0..N {
            eigenvectors.rows[r][c] = v.rows[r][source];
        }
    }
    sweeps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    fn reconstruct<const N: usize>(
        eigenvalues: &[f64; N],
        eigenvectors: &SmallMatrix<N>,
    ) -> SmallMatrix<N> {
        // V · diag(λ) · V†
        let scaled = SmallMatrix::<N>::from_fn(|r, c| eigenvectors.get(r, c) * eigenvalues[c]);
        let mut vdag = SmallMatrix::ZERO;
        eigenvectors.dagger_into(&mut vdag);
        let mut out = SmallMatrix::ZERO;
        scaled.matmul_into(&vdag, &mut out);
        out
    }

    fn decompose<const N: usize>(a: &SmallMatrix<N>) -> ([f64; N], SmallMatrix<N>) {
        let mut ws = SmallEighWorkspace::new();
        let mut eigenvalues = [0.0; N];
        let mut eigenvectors = SmallMatrix::ZERO;
        let sweeps = eigh_into(a, &mut ws, &mut eigenvalues, &mut eigenvectors);
        if N == 2 {
            assert_eq!(sweeps, 0, "closed-form 2x2 path performs no Jacobi sweeps");
        }
        (eigenvalues, eigenvectors)
    }

    #[test]
    fn matmul_matches_dynamic() {
        let a = Matrix::from_fn(4, 4, |r, c| {
            c64((r * 5 + c) as f64 * 0.3, (r + c) as f64 * -0.2)
        });
        let b = Matrix::from_fn(4, 4, |r, c| {
            c64((r + 2 * c) as f64 * 0.1, (r * c) as f64 * 0.4)
        });
        let sa = SmallMatrix::<4>::from_matrix(&a);
        let sb = SmallMatrix::<4>::from_matrix(&b);
        let mut out = SmallMatrix::ZERO;
        sa.matmul_into(&sb, &mut out);
        let reference = a.matmul(&b);
        assert_eq!(out.to_matrix(), reference, "matmul must match bitwise");
    }

    #[test]
    fn dagger_scale_add_scaled_match_dynamic() {
        let a = Matrix::from_fn(4, 4, |r, c| c64(r as f64 - c as f64, (r * c) as f64 * 0.7));
        let b = Matrix::from_fn(4, 4, |r, c| c64((r + c) as f64, -(r as f64) * 0.5));
        let k = c64(0.3, -1.2);
        let sa = SmallMatrix::<4>::from_matrix(&a);
        let sb = SmallMatrix::<4>::from_matrix(&b);

        let mut dag = SmallMatrix::ZERO;
        sa.dagger_into(&mut dag);
        assert_eq!(dag.to_matrix(), a.dagger());

        let mut scaled = SmallMatrix::ZERO;
        sa.scale_into(k, &mut scaled);
        assert_eq!(scaled.to_matrix(), a.scale(k));

        let mut sum = SmallMatrix::ZERO;
        sa.add_scaled_into(k, &sb, &mut sum);
        let mut reference = a.clone();
        reference.add_scaled_assign(k, &b);
        assert_eq!(sum.to_matrix(), reference);

        let mut accum = sa;
        accum.add_scaled_assign(k, &sb);
        assert_eq!(accum.to_matrix(), reference);
    }

    #[test]
    fn identity_roundtrip_and_entries() {
        let id = SmallMatrix::<2>::identity();
        assert_eq!(id.get(0, 0), C64::ONE);
        assert_eq!(id.get(0, 1), C64::ZERO);
        let collected: Vec<C64> = id.entries().collect();
        assert_eq!(collected.len(), 4);
        let mut copy = SmallMatrix::<2>::ZERO;
        copy.fill_from_entries(&collected);
        assert_eq!(copy, id);
    }

    #[test]
    fn closed_form_pauli_x() {
        let x = SmallMatrix::<2>::from_fn(|r, c| if r != c { C64::ONE } else { C64::ZERO });
        let (eigenvalues, eigenvectors) = decompose(&x);
        assert!((eigenvalues[0] + 1.0).abs() < 1e-14);
        assert!((eigenvalues[1] - 1.0).abs() < 1e-14);
        assert!(reconstruct(&eigenvalues, &eigenvectors).max_abs_diff(&x) < 1e-14);
    }

    #[test]
    fn closed_form_complex_offdiagonal() {
        // Pauli-Y plus a diagonal shift exercises the complex branch.
        let y = SmallMatrix::<2>::from_fn(|r, c| match (r, c) {
            (0, 0) => c64(0.5, 0.0),
            (0, 1) => c64(0.0, -1.0),
            (1, 0) => c64(0.0, 1.0),
            _ => c64(-0.25, 0.0),
        });
        let (eigenvalues, eigenvectors) = decompose(&y);
        assert!(eigenvalues[0] <= eigenvalues[1]);
        assert!(reconstruct(&eigenvalues, &eigenvectors).max_abs_diff(&y) < 1e-14);
        // Columns are orthonormal.
        let mut vdag = SmallMatrix::ZERO;
        eigenvectors.dagger_into(&mut vdag);
        let mut gram = SmallMatrix::ZERO;
        vdag.matmul_into(&eigenvectors, &mut gram);
        assert!(gram.max_abs_diff(&SmallMatrix::identity()) < 1e-14);
    }

    #[test]
    fn closed_form_diagonal_orders_by_value() {
        let d = SmallMatrix::<2>::from_fn(|r, c| {
            if r == c {
                c64(if r == 0 { 3.0 } else { -1.0 }, 0.0)
            } else {
                C64::ZERO
            }
        });
        let (eigenvalues, eigenvectors) = decompose(&d);
        assert_eq!(eigenvalues, [-1.0, 3.0]);
        assert!(reconstruct(&eigenvalues, &eigenvectors).max_abs_diff(&d) < 1e-14);
    }

    #[test]
    fn jacobi_matches_dynamic_eigh() {
        let raw = Matrix::from_fn(4, 4, |r, c| {
            let x = ((r * 7 + c * 13) as f64 * 0.37).sin();
            let y = ((r * 3 + c * 11) as f64 * 0.53).cos();
            c64(x, y)
        });
        let h = (&raw + &raw.dagger()).scale_real(0.5);
        let reference = crate::eigh(&h);
        let small = SmallMatrix::<4>::from_matrix(&h);
        let (eigenvalues, eigenvectors) = decompose(&small);
        for (i, &lambda) in eigenvalues.iter().enumerate() {
            assert!(
                (lambda - reference.eigenvalues[i]).abs() < 1e-12,
                "eigenvalue {i}: {lambda} vs {}",
                reference.eigenvalues[i]
            );
        }
        // The algebraic rotations take a different (smaller-angle) root than the
        // dynamic kernel's trigonometric ones, so eigenvector columns may differ
        // by a phase; the decomposition itself must still be exact.
        assert!(
            reconstruct(&eigenvalues, &eigenvectors).max_abs_diff(&small) < 1e-12,
            "V diag(λ) V† must reconstruct the input"
        );
        let mut vdag = SmallMatrix::ZERO;
        eigenvectors.dagger_into(&mut vdag);
        let mut gram = SmallMatrix::ZERO;
        vdag.matmul_into(&eigenvectors, &mut gram);
        assert!(
            gram.max_abs_diff(&SmallMatrix::identity()) < 1e-12,
            "eigenvector columns must be orthonormal"
        );
    }

    #[test]
    fn jacobi_16x16_reconstructs() {
        let h = SmallMatrix::<16>::from_fn(|r, c| {
            let x = ((r * 7 + c * 13) as f64 * 0.37).sin();
            let y = ((r as i64 - c as i64) as f64 * 0.53).sin();
            c64(
                x + if r == c { 2.0 } else { 0.0 },
                if r == c { 0.0 } else { y },
            )
        });
        // Hermitianize.
        let mut dag = SmallMatrix::ZERO;
        h.dagger_into(&mut dag);
        let mut herm = SmallMatrix::ZERO;
        h.add_scaled_into(C64::ONE, &dag, &mut herm);
        let mut half = SmallMatrix::ZERO;
        herm.scale_into(c64(0.5, 0.0), &mut half);

        let (eigenvalues, eigenvectors) = decompose(&half);
        for pair in eigenvalues.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-12, "eigenvalues must ascend");
        }
        assert!(reconstruct(&eigenvalues, &eigenvectors).max_abs_diff(&half) < 1e-11);
    }
}
