//! Property-based parity between the const-generic [`SmallMatrix`] kernels and
//! the dynamic [`Matrix`] reference implementations, for the four GRAPE
//! monomorphizations N = 2, 4, 8, 16 — and between the real-symmetric kernels
//! of `vqc_linalg::real` and the complex ones, at the same four dimensions on
//! the stack and at 3 and 9 on the heap.
//!
//! The dynamic path is the ground truth: every unrolled kernel must reproduce
//! it to near machine precision. The specialized `eigh` is the one exception —
//! its eigenbasis is only defined up to a per-column phase (and a rotation
//! inside degenerate subspaces), so it is checked phase-invariantly via sorted
//! eigenvalues, spectral reconstruction, and orthonormality rather than by
//! entrywise comparison of the eigenvector matrix. The real kernels are held
//! to the complex ones the same way: the complex eigensolvers are the oracle
//! for the real-symmetric one, and promote-then-complex-matmul for the mixed
//! products.

use proptest::prelude::*;
use vqc_linalg::small::{self, SmallEighWorkspace, SmallMatrix};
use vqc_linalg::{c64, eigh, Matrix, RealMatrix, RealSmallMatrix, C64};

/// Strategy producing a complex number with bounded components.
fn arb_c64(bound: f64) -> impl Strategy<Value = C64> {
    (-bound..bound, -bound..bound).prop_map(|(re, im)| c64(re, im))
}

/// Strategy producing the row-major entries of an `n x n` complex matrix.
fn arb_entries(n: usize, bound: f64) -> impl Strategy<Value = Vec<C64>> {
    prop::collection::vec(arb_c64(bound), n * n)
}

fn small_of<const N: usize>(data: &[C64]) -> SmallMatrix<N> {
    SmallMatrix::from_fn(|r, c| data[r * N + c])
}

fn matrix_of(n: usize, data: &[C64]) -> Matrix {
    Matrix::from_vec(n, n, data.to_vec())
}

/// A deliberately garbage-filled output, so parity also proves the `_into`
/// kernels overwrite (rather than accumulate into) their destination.
fn dirty<const N: usize>() -> SmallMatrix<N> {
    SmallMatrix::from_fn(|r, c| c64(1.0 + r as f64, -2.0 - c as f64))
}

/// Every arithmetic kernel against its allocating dynamic counterpart.
fn check_kernels<const N: usize>(a_data: &[C64], b_data: &[C64], k: C64) {
    let a = small_of::<N>(a_data);
    let b = small_of::<N>(b_data);
    let da = matrix_of(N, a_data);
    let db = matrix_of(N, b_data);
    let mut out = dirty::<N>();

    a.matmul_into(&b, &mut out);
    assert!(
        out.to_matrix().approx_eq(&da.matmul(&db), 1e-12),
        "matmul_into diverges from Matrix::matmul at N={N}"
    );

    a.dagger_into(&mut out);
    assert!(
        out.to_matrix().approx_eq(&da.dagger(), 1e-12),
        "dagger_into diverges from Matrix::dagger at N={N}"
    );

    a.scale_into(k, &mut out);
    assert!(
        out.to_matrix().approx_eq(&da.scale(k), 1e-12),
        "scale_into diverges from Matrix::scale at N={N}"
    );

    a.add_scaled_into(k, &b, &mut out);
    let reference = &da + &db.scale(k);
    assert!(
        out.to_matrix().approx_eq(&reference, 1e-12),
        "add_scaled_into diverges from add + scale at N={N}"
    );

    let mut acc = a;
    acc.add_scaled_assign(k, &b);
    assert!(
        acc.to_matrix().approx_eq(&reference, 1e-12),
        "add_scaled_assign diverges from add + scale at N={N}"
    );
}

/// `from_matrix` / `write_to` / `to_matrix` / `entries` / `fill_from_entries`
/// round trips preserve every entry bit-for-bit.
fn check_round_trips<const N: usize>(a_data: &[C64]) {
    let dynamic = matrix_of(N, a_data);
    let small = SmallMatrix::<N>::from_matrix(&dynamic);
    assert_eq!(small.to_matrix(), dynamic, "to_matrix round trip at N={N}");

    let mut written = Matrix::zeros(N, N);
    small.write_to(&mut written);
    assert_eq!(written, dynamic, "write_to round trip at N={N}");

    let collected: Vec<C64> = small.entries().collect();
    assert_eq!(
        collected, a_data,
        "entries() must stream row-major at N={N}"
    );
    let mut refilled = dirty::<N>();
    refilled.fill_from_entries(&collected);
    assert_eq!(
        refilled.max_abs_diff(&small),
        0.0,
        "fill_from_entries round trip at N={N}"
    );
}

/// The specialized `eigh` against the dynamic solver, phase-invariantly:
/// identical sorted spectra, exact spectral reconstruction, orthonormal basis.
fn check_eigh<const N: usize>(a_data: &[C64]) {
    let da = matrix_of(N, a_data);
    let hermitian = (&da + &da.dagger()).scale_real(0.5);
    let h = SmallMatrix::<N>::from_matrix(&hermitian);
    let tol = 1e-11 * h.frobenius_norm().max(1.0);

    let reference = eigh(&hermitian);
    let mut workspace = SmallEighWorkspace::<N>::new();
    let mut lambdas = [0.0; N];
    let mut vectors = dirty::<N>();
    // Run twice through the same workspace: the second call must not be
    // perturbed by the first call's leftovers.
    small::eigh_into(&h, &mut workspace, &mut lambdas, &mut vectors);
    small::eigh_into(&h, &mut workspace, &mut lambdas, &mut vectors);

    for (i, (&fast, &slow)) in lambdas.iter().zip(reference.eigenvalues.iter()).enumerate() {
        assert!(
            (fast - slow).abs() < tol,
            "eigenvalue {i} diverges from dynamic eigh at N={N}: {fast} vs {slow}"
        );
    }

    // V Λ V† reconstructs H.
    let scaled = SmallMatrix::<N>::from_fn(|r, c| vectors.get(r, c) * c64(lambdas[c], 0.0));
    let mut vdag = SmallMatrix::<N>::ZERO;
    vectors.dagger_into(&mut vdag);
    let mut reconstructed = SmallMatrix::<N>::ZERO;
    scaled.matmul_into(&vdag, &mut reconstructed);
    assert!(
        reconstructed.max_abs_diff(&h) < tol,
        "V diag(lambda) V^dagger fails to reconstruct H at N={N}"
    );

    // V† V = I.
    let mut gram = SmallMatrix::<N>::ZERO;
    vdag.matmul_into(&vectors, &mut gram);
    assert!(
        gram.max_abs_diff(&SmallMatrix::identity()) < tol,
        "eigenbasis is not orthonormal at N={N}"
    );
}

/// Strategy producing the row-major entries of an `n x n` real matrix in
/// `(-1, 1)`.
fn arb_reals(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0..1.0f64, n * n)
}

/// The real matrix `data` promoted to complex entries.
fn promoted(n: usize, data: &[f64]) -> Matrix {
    Matrix::from_fn(n, n, |r, c| c64(data[r * n + c], 0.0))
}

/// The real product, the transpose and both mixed products of flat `n x n`
/// results against promote-then-complex-matmul.
fn assert_real_kernels(
    n: usize,
    (a, b): (&[f64], &[C64]),
    (squared, transposed): (&[f64], &[f64]),
    (real_complex, complex_real): (&[C64], &[C64]),
) {
    let (pa, db) = (promoted(n, a), matrix_of(n, b));
    for (what, got, expected) in [
        ("real x real", promoted(n, squared), pa.matmul(&pa)),
        ("transpose", promoted(n, transposed), pa.dagger()),
        ("real x complex", matrix_of(n, real_complex), pa.matmul(&db)),
        ("complex x real", matrix_of(n, complex_real), db.matmul(&pa)),
    ] {
        assert!(
            got.approx_eq(&expected, 1e-12),
            "{what} diverges from the promoted complex kernel at n={n}"
        );
    }
}

fn check_real_kernels<const N: usize>(a_data: &[f64], b_data: &[C64]) {
    let a = RealSmallMatrix::<N>::from_fn(|r, c| a_data[r * N + c]);
    let b = small_of::<N>(b_data);
    let mut squared = RealSmallMatrix::<N>::from_fn(|r, c| (r + 2 * c) as f64);
    let mut transposed = squared;
    let (mut real_complex, mut complex_real) = (dirty::<N>(), dirty::<N>());
    a.matmul_into(&a, &mut squared);
    a.transpose_into(&mut transposed);
    a.mul_complex_into(&b, &mut real_complex);
    b.mul_real_into(&a, &mut complex_real);
    assert_real_kernels(
        N,
        (a_data, b_data),
        (squared.as_slice(), transposed.as_slice()),
        (real_complex.as_slice(), complex_real.as_slice()),
    );
}

fn check_real_kernels_heap(n: usize, a_data: &[f64], b_data: &[C64]) {
    let a = RealMatrix::from_fn(n, |r, c| a_data[r * n + c]);
    let b = matrix_of(n, b_data);
    let mut squared = RealMatrix::from_fn(n, |r, c| (r + 2 * c) as f64);
    let mut transposed = squared.clone();
    let mut real_complex = Matrix::from_fn(n, n, |r, c| c64(1.0 + r as f64, -2.0 - c as f64));
    let mut complex_real = real_complex.clone();
    a.matmul_into(&a, &mut squared);
    a.transpose_into(&mut transposed);
    a.mul_complex_into(&b, &mut real_complex);
    b.mul_real_into(&a, &mut complex_real);
    assert_real_kernels(
        n,
        (a_data, b_data),
        (squared.as_slice(), transposed.as_slice()),
        (real_complex.as_slice(), complex_real.as_slice()),
    );
}

/// A flat real eigensystem of the symmetric part of `data` against the
/// complex solver's spectrum: identical sorted eigenvalues, `V Λ Vᵀ`
/// reconstruction and `Vᵀ V = I`, all at 1e-12.
fn assert_real_eigensystem(
    n: usize,
    data: &[f64],
    lambdas: &[f64],
    vectors: &[f64],
    oracle: &[f64],
) {
    let tol = 1e-12;
    for (i, (&real, &complex)) in lambdas.iter().zip(oracle).enumerate() {
        assert!(
            (real - complex).abs() < tol,
            "eigenvalue {i} diverges from the complex solver at n={n}: {real} vs {complex}"
        );
    }
    let v = |r: usize, c: usize| vectors[r * n + c];
    for r in 0..n {
        for c in 0..n {
            let symmetric = 0.5 * (data[r * n + c] + data[c * n + r]);
            let rebuilt: f64 = (0..n).map(|k| v(r, k) * lambdas[k] * v(c, k)).sum();
            assert!(
                (rebuilt - symmetric).abs() < tol,
                "V diag(lambda) V^T fails to reconstruct H at n={n}, entry ({r}, {c})"
            );
            let gram: f64 = (0..n).map(|k| v(k, r) * v(k, c)).sum();
            let identity = if r == c { 1.0 } else { 0.0 };
            assert!(
                (gram - identity).abs() < tol,
                "real eigenbasis is not orthonormal at n={n}, entry ({r}, {c})"
            );
        }
    }
}

/// The real-symmetric stack solver against the complex `small::eigh_into`.
fn check_real_eigh<const N: usize>(data: &[f64]) {
    let symmetric = |r: usize, c: usize| 0.5 * (data[r * N + c] + data[c * N + r]);
    let complex_h = SmallMatrix::<N>::from_fn(|r, c| c64(symmetric(r, c), 0.0));
    let mut oracle = [0.0; N];
    small::eigh_into(
        &complex_h,
        &mut SmallEighWorkspace::new(),
        &mut oracle,
        &mut dirty::<N>(),
    );

    let mut h = RealSmallMatrix::<N>::from_fn(|r, c| data[r * N + c]);
    let mut lambdas = [f64::NAN; N];
    let mut vectors = RealSmallMatrix::<N>::from_fn(|r, c| (r + 2 * c) as f64);
    let sweeps = h.eigh_in_place(&mut lambdas, &mut vectors);
    assert!(N != 2 || sweeps == 0, "the 2x2 path is closed-form");
    assert_real_eigensystem(N, data, &lambdas, vectors.as_slice(), &oracle);
}

/// The heap instance of the same solver body against the dynamic complex
/// `eigh`.
fn check_real_eigh_heap(n: usize, data: &[f64]) {
    let symmetric = Matrix::from_fn(n, n, |r, c| {
        c64(0.5 * (data[r * n + c] + data[c * n + r]), 0.0)
    });
    let oracle = eigh(&symmetric).eigenvalues;

    let mut h = RealMatrix::from_fn(n, |r, c| data[r * n + c]);
    let mut lambdas = vec![f64::NAN; n];
    let mut vectors = RealMatrix::from_fn(n, |r, c| (r + 2 * c) as f64);
    h.eigh_in_place(&mut lambdas, &mut vectors);
    assert_real_eigensystem(n, data, &lambdas, vectors.as_slice(), &oracle);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernels_match_dynamic_2(a in arb_entries(2, 3.0), b in arb_entries(2, 3.0), k in arb_c64(2.0)) {
        check_kernels::<2>(&a, &b, k);
    }

    #[test]
    fn kernels_match_dynamic_4(a in arb_entries(4, 3.0), b in arb_entries(4, 3.0), k in arb_c64(2.0)) {
        check_kernels::<4>(&a, &b, k);
    }

    #[test]
    fn kernels_match_dynamic_8(a in arb_entries(8, 3.0), b in arb_entries(8, 3.0), k in arb_c64(2.0)) {
        check_kernels::<8>(&a, &b, k);
    }

    #[test]
    fn round_trips_preserve_entries_2(a in arb_entries(2, 3.0)) {
        check_round_trips::<2>(&a);
    }

    #[test]
    fn round_trips_preserve_entries_4(a in arb_entries(4, 3.0)) {
        check_round_trips::<4>(&a);
    }

    #[test]
    fn round_trips_preserve_entries_8(a in arb_entries(8, 3.0)) {
        check_round_trips::<8>(&a);
    }

    #[test]
    fn eigh_matches_dynamic_2(a in arb_entries(2, 2.0)) {
        check_eigh::<2>(&a);
    }

    #[test]
    fn eigh_matches_dynamic_4(a in arb_entries(4, 2.0)) {
        check_eigh::<4>(&a);
    }

    #[test]
    fn eigh_matches_dynamic_8(a in arb_entries(8, 2.0)) {
        check_eigh::<8>(&a);
    }

    #[test]
    fn real_kernels_match_complex_2(a in arb_reals(2), b in arb_entries(2, 3.0)) {
        check_real_kernels::<2>(&a, &b);
    }

    #[test]
    fn real_kernels_match_complex_4(a in arb_reals(4), b in arb_entries(4, 3.0)) {
        check_real_kernels::<4>(&a, &b);
    }

    #[test]
    fn real_kernels_match_complex_8(a in arb_reals(8), b in arb_entries(8, 3.0)) {
        check_real_kernels::<8>(&a, &b);
    }

    #[test]
    fn real_kernels_match_complex_heap(a in arb_reals(9), b in arb_entries(9, 3.0)) {
        check_real_kernels_heap(3, &a[..9], &b[..9]);
        check_real_kernels_heap(9, &a, &b);
    }

    #[test]
    fn real_eigh_matches_complex_2(a in arb_reals(2)) {
        check_real_eigh::<2>(&a);
    }

    #[test]
    fn real_eigh_matches_complex_4(a in arb_reals(4)) {
        check_real_eigh::<4>(&a);
    }

    #[test]
    fn real_eigh_matches_complex_8(a in arb_reals(8)) {
        check_real_eigh::<8>(&a);
    }

    #[test]
    fn real_eigh_matches_complex_heap(a in arb_reals(9)) {
        check_real_eigh_heap(3, &a[..9]);
        check_real_eigh_heap(9, &a);
    }
}

proptest! {
    // N = 16 cases are ~64x the work of N = 4; a smaller case count keeps the
    // suite fast while still sweeping the Jacobi path well past its unrolled
    // 2x2 sibling.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn kernels_match_dynamic_16(a in arb_entries(16, 2.0), b in arb_entries(16, 2.0), k in arb_c64(2.0)) {
        check_kernels::<16>(&a, &b, k);
    }

    #[test]
    fn round_trips_preserve_entries_16(a in arb_entries(16, 2.0)) {
        check_round_trips::<16>(&a);
    }

    #[test]
    fn eigh_matches_dynamic_16(a in arb_entries(16, 1.0)) {
        check_eigh::<16>(&a);
    }

    #[test]
    fn real_kernels_match_complex_16(a in arb_reals(16), b in arb_entries(16, 2.0)) {
        check_real_kernels::<16>(&a, &b);
    }

    #[test]
    fn real_eigh_matches_complex_16(a in arb_reals(16)) {
        check_real_eigh::<16>(&a);
    }
}

/// Degenerate and already-diagonal inputs, where a Jacobi solver has rotations
/// to skip and ties to order: a repeated diagonal in descending order, and
/// `I ⊗ X`, whose ±1 eigenvalues each repeat `n / 2` times off the diagonal.
#[test]
fn real_eigh_handles_degenerate_and_diagonal_inputs() {
    fn diagonal(n: usize) -> Vec<f64> {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 2.0 - (i / 2) as f64;
        }
        data
    }
    fn paired_flips(n: usize) -> Vec<f64> {
        let mut data = vec![0.0; n * n];
        for i in 0..n - n % 2 {
            data[i * n + (i ^ 1)] = 1.0;
        }
        data
    }
    for inputs in [diagonal, paired_flips] {
        check_real_eigh::<2>(&inputs(2));
        check_real_eigh::<4>(&inputs(4));
        check_real_eigh::<8>(&inputs(8));
        check_real_eigh::<16>(&inputs(16));
        check_real_eigh_heap(3, &inputs(3));
        check_real_eigh_heap(9, &inputs(9));
    }
}
