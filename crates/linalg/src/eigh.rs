//! Hermitian eigendecomposition via the cyclic Jacobi method.
//!
//! The GRAPE gradient needs the exact derivative of `exp(-i Δt H)` with respect to a
//! control amplitude; that derivative has a closed form in the eigenbasis of `H`
//! (the Daleckii–Krein formula), so the pulse optimizer diagonalizes each slice
//! Hamiltonian. The matrices involved are small (≤ 81x81), where Jacobi is simple,
//! numerically robust, and plenty fast. (The optimizer's own Hamiltonians are real
//! symmetric and go through the `f64` solver in [`crate::real`]; this is the general
//! Hermitian solver, and that one's test oracle.)

use crate::{Matrix, C64};

/// Result of a Hermitian eigendecomposition `A = V · diag(λ) · V†`.
#[derive(Debug, Clone)]
pub struct EighResult {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Unitary matrix whose columns are the corresponding eigenvectors.
    pub eigenvectors: Matrix,
}

/// Reusable scratch buffers for [`eigh_into`].
///
/// Reusing one workspace across many diagonalizations removes every per-call heap
/// allocation from the Jacobi sweep.
#[derive(Debug, Clone)]
pub struct EighWorkspace {
    /// Hermitian working copy that the Jacobi rotations reduce to diagonal form.
    work: Matrix,
    /// Accumulated product of Jacobi rotations (the unsorted eigenvector basis).
    vectors: Matrix,
    /// Sort buffer pairing each diagonal entry with its column index.
    order: Vec<(f64, usize)>,
}

impl EighWorkspace {
    /// Creates scratch buffers for diagonalizing `n x n` matrices.
    pub fn new(n: usize) -> Self {
        EighWorkspace {
            work: Matrix::zeros(n, n),
            vectors: Matrix::zeros(n, n),
            order: Vec::with_capacity(n),
        }
    }

    /// The matrix dimension this workspace was sized for.
    pub fn dim(&self) -> usize {
        self.work.rows()
    }
}

/// Diagonalizes a Hermitian matrix with the cyclic Jacobi method.
///
/// This is the allocating reference API; [`eigh_into`] is the same algorithm on
/// caller-owned buffers.
///
/// # Panics
///
/// Panics if `a` is not square. The matrix is *assumed* Hermitian; only its Hermitian
/// part influences the result.
pub fn eigh(a: &Matrix) -> EighResult {
    assert!(a.is_square(), "eigh requires a square matrix");
    let n = a.rows();
    let mut workspace = EighWorkspace::new(n);
    let mut eigenvalues = Vec::with_capacity(n);
    let mut eigenvectors = Matrix::zeros(n, n);
    eigh_into(a, &mut workspace, &mut eigenvalues, &mut eigenvectors);
    EighResult {
        eigenvalues,
        eigenvectors,
    }
}

/// Diagonalizes a Hermitian matrix into caller-owned buffers, allocating nothing
/// once `eigenvalues` has capacity for `n` entries.
///
/// `eigenvalues` is cleared and refilled in ascending order; `eigenvectors` is
/// overwritten with the corresponding unitary basis (columns permuted to match the
/// sorted eigenvalues). Returns the number of Jacobi sweeps executed before
/// convergence.
///
/// # Panics
///
/// Panics if `a` is not square, or if `workspace` / `eigenvectors` were sized for a
/// different dimension. The matrix is *assumed* Hermitian; only its Hermitian part
/// influences the result.
pub fn eigh_into(
    a: &Matrix,
    workspace: &mut EighWorkspace,
    eigenvalues: &mut Vec<f64>,
    eigenvectors: &mut Matrix,
) -> usize {
    assert!(a.is_square(), "eigh requires a square matrix");
    let n = a.rows();
    assert_eq!(workspace.dim(), n, "eigh workspace dimension mismatch");
    assert_eq!(
        eigenvectors.shape(),
        (n, n),
        "eigh eigenvector output shape mismatch"
    );

    // Work on the Hermitian part to be robust against tiny asymmetries.
    let work = &mut workspace.work;
    for r in 0..n {
        for c in 0..n {
            work[(r, c)] = (a[(r, c)] + a[(c, r)].conj()) * 0.5;
        }
    }
    let v = &mut workspace.vectors;
    v.as_mut_slice().fill(C64::ZERO);
    for i in 0..n {
        v[(i, i)] = C64::ONE;
    }

    let max_sweeps = 60;
    let tol = 1e-14 * work.frobenius_norm().max(1.0);
    let mut sweeps = 0;
    for _ in 0..max_sweeps {
        let mut off_norm = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off_norm += work[(p, q)].norm_sqr();
            }
        }
        if off_norm.sqrt() <= tol {
            break;
        }
        sweeps += 1;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = work[(p, q)];
                let magnitude = apq.abs();
                if magnitude <= tol / (n as f64) {
                    continue;
                }
                let phi = apq.arg();
                let app = work[(p, p)].re;
                let aqq = work[(q, q)].re;
                let theta = 0.5 * (2.0 * magnitude).atan2(app - aqq);
                let c = theta.cos();
                let s = theta.sin();
                let e_pos = C64::cis(phi);
                let e_neg = C64::cis(-phi);

                // Right-multiply by J: columns p and q change.
                for i in 0..n {
                    let aip = work[(i, p)];
                    let aiq = work[(i, q)];
                    work[(i, p)] = aip * c + aiq * (e_neg * s);
                    work[(i, q)] = aip * (e_pos * (-s)) + aiq * c;
                }
                // Left-multiply by J†: rows p and q change.
                for j in 0..n {
                    let apj = work[(p, j)];
                    let aqj = work[(q, j)];
                    work[(p, j)] = apj * c + aqj * (e_pos * s);
                    work[(q, j)] = apj * (e_neg * (-s)) + aqj * c;
                }
                // Accumulate the eigenvector basis: V <- V · J.
                for i in 0..n {
                    let vip = v[(i, p)];
                    let viq = v[(i, q)];
                    v[(i, p)] = vip * c + viq * (e_neg * s);
                    v[(i, q)] = vip * (e_pos * (-s)) + viq * c;
                }
            }
        }
    }

    // Extract eigenvalues and sort ascending, permuting the eigenvector columns
    // along. `sort_unstable_by` keeps this path allocation-free (stable sort
    // allocates a merge buffer); ties cannot reorder equal eigenvalues observably.
    let pairs = &mut workspace.order;
    pairs.clear();
    pairs.extend((0..n).map(|i| (work[(i, i)].re, i)));
    // audit:allow(unwrap): Hermitian eigenvalues are real and finite by construction
    pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("eigenvalues are finite"));
    eigenvalues.clear();
    eigenvalues.extend(pairs.iter().map(|(value, _)| *value));
    for c in 0..n {
        let source = pairs[c].1;
        for r in 0..n {
            eigenvectors[(r, c)] = v[(r, source)];
        }
    }
    sweeps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    fn reconstruct(result: &EighResult) -> Matrix {
        let lambda = Matrix::diag(
            &result
                .eigenvalues
                .iter()
                .map(|&l| c64(l, 0.0))
                .collect::<Vec<_>>(),
        );
        result
            .eigenvectors
            .matmul(&lambda)
            .matmul(&result.eigenvectors.dagger())
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = Matrix::diag(&[c64(3.0, 0.0), c64(-1.0, 0.0), c64(0.5, 0.0)]);
        let r = eigh(&a);
        assert_eq!(r.eigenvalues.len(), 3);
        assert!((r.eigenvalues[0] + 1.0).abs() < 1e-12);
        assert!((r.eigenvalues[2] - 3.0).abs() < 1e-12);
        assert!(reconstruct(&r).approx_eq(&a, 1e-10));
    }

    #[test]
    fn pauli_x_eigenvalues_are_plus_minus_one() {
        let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        let r = eigh(&x);
        assert!((r.eigenvalues[0] + 1.0).abs() < 1e-12);
        assert!((r.eigenvalues[1] - 1.0).abs() < 1e-12);
        assert!(r.eigenvectors.is_unitary(1e-10));
        assert!(reconstruct(&r).approx_eq(&x, 1e-10));
    }

    #[test]
    fn pauli_y_with_complex_entries_decomposes() {
        let y = Matrix::from_rows(&[&[C64::ZERO, -C64::I], &[C64::I, C64::ZERO]]);
        let r = eigh(&y);
        assert!((r.eigenvalues[0] + 1.0).abs() < 1e-12);
        assert!((r.eigenvalues[1] - 1.0).abs() < 1e-12);
        assert!(reconstruct(&r).approx_eq(&y, 1e-10));
    }

    #[test]
    fn random_hermitian_reconstructs() {
        // Deterministic pseudo-random Hermitian matrix.
        let n = 6;
        let raw = Matrix::from_fn(n, n, |r, c| {
            let x = ((r * 7 + c * 13) as f64 * 0.37).sin();
            let y = ((r * 3 + c * 11) as f64 * 0.53).cos();
            c64(x, y)
        });
        let h = (&raw + &raw.dagger()).scale_real(0.5);
        let r = eigh(&h);
        assert!(r.eigenvectors.is_unitary(1e-9));
        assert!(reconstruct(&r).approx_eq(&h, 1e-9));
        // Eigenvalues ascend.
        for w in r.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn trace_is_preserved() {
        let h = Matrix::from_rows(&[
            &[c64(1.0, 0.0), c64(0.5, 0.25)],
            &[c64(0.5, -0.25), c64(-2.0, 0.0)],
        ]);
        let r = eigh(&h);
        let sum: f64 = r.eigenvalues.iter().sum();
        assert!((sum - h.trace().re).abs() < 1e-10);
    }
}
