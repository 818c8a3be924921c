//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use vqc_linalg::expm::{expm, expm_i_hermitian};
use vqc_linalg::fidelity::{trace_fidelity, trace_infidelity};
use vqc_linalg::{c64, eigh, eigh_into, EighWorkspace, Matrix, Vector, C64};

/// Strategy producing a complex number with bounded components.
fn arb_c64(bound: f64) -> impl Strategy<Value = C64> {
    (-bound..bound, -bound..bound).prop_map(|(re, im)| c64(re, im))
}

/// Strategy producing an `n x n` complex matrix with bounded entries.
fn arb_matrix(n: usize, bound: f64) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(arb_c64(bound), n * n).prop_map(move |data| Matrix::from_vec(n, n, data))
}

/// Strategy producing an `n x n` Hermitian matrix with bounded entries.
fn arb_hermitian(n: usize, bound: f64) -> impl Strategy<Value = Matrix> {
    arb_matrix(n, bound).prop_map(|m| (&m + &m.dagger()).scale_real(0.5))
}

/// Strategy producing a normalized `dim`-dimensional state vector.
fn arb_state(dim: usize) -> impl Strategy<Value = Vector> {
    prop::collection::vec(arb_c64(1.0), dim).prop_filter_map("non-zero state", |data| {
        let mut v = Vector::from_vec(data);
        if v.norm() < 1e-6 {
            None
        } else {
            v.normalize();
            Some(v)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn complex_multiplication_is_commutative(a in arb_c64(10.0), b in arb_c64(10.0)) {
        prop_assert!((a * b).approx_eq(b * a, 1e-10));
    }

    #[test]
    fn complex_conjugation_distributes_over_product(a in arb_c64(10.0), b in arb_c64(10.0)) {
        prop_assert!((a * b).conj().approx_eq(a.conj() * b.conj(), 1e-9));
    }

    #[test]
    fn matmul_is_associative(a in arb_matrix(3, 2.0), b in arb_matrix(3, 2.0), c in arb_matrix(3, 2.0)) {
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn dagger_is_involutive(a in arb_matrix(4, 3.0)) {
        prop_assert!(a.dagger().dagger().approx_eq(&a, 1e-12));
    }

    #[test]
    fn dagger_reverses_matmul(a in arb_matrix(3, 2.0), b in arb_matrix(3, 2.0)) {
        let lhs = a.matmul(&b).dagger();
        let rhs = b.dagger().matmul(&a.dagger());
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn kron_mixed_product_property(a in arb_matrix(2, 1.5), b in arb_matrix(2, 1.5),
                                   c in arb_matrix(2, 1.5), d in arb_matrix(2, 1.5)) {
        // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD)
        let lhs = a.kron(&b).matmul(&c.kron(&d));
        let rhs = a.matmul(&c).kron(&b.matmul(&d));
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn trace_is_linear(a in arb_matrix(3, 2.0), b in arb_matrix(3, 2.0)) {
        let lhs = (&a + &b).trace();
        let rhs = a.trace() + b.trace();
        prop_assert!(lhs.approx_eq(rhs, 1e-10));
    }

    #[test]
    fn trace_is_cyclic(a in arb_matrix(3, 2.0), b in arb_matrix(3, 2.0)) {
        prop_assert!(a.matmul(&b).trace().approx_eq(b.matmul(&a).trace(), 1e-9));
    }

    #[test]
    fn exp_of_minus_i_hermitian_is_unitary(h in arb_hermitian(4, 1.5), t in 0.0..3.0f64) {
        let u = expm_i_hermitian(&h, t);
        prop_assert!(u.is_unitary(1e-8));
    }

    #[test]
    fn expm_inverse_is_exp_of_negative(h in arb_hermitian(3, 1.0), t in 0.0..2.0f64) {
        let u = expm_i_hermitian(&h, t);
        let u_inv = expm_i_hermitian(&h, -t);
        prop_assert!(u.matmul(&u_inv).approx_eq(&Matrix::identity(3), 1e-8));
    }

    #[test]
    fn expm_of_sum_for_commuting(d1 in prop::collection::vec(-2.0..2.0f64, 3),
                                 d2 in prop::collection::vec(-2.0..2.0f64, 3)) {
        // Diagonal (hence commuting) Hermitian matrices: exp(A+B) = exp(A) exp(B).
        let a = Matrix::diag(&d1.iter().map(|&x| c64(0.0, x)).collect::<Vec<_>>());
        let b = Matrix::diag(&d2.iter().map(|&x| c64(0.0, x)).collect::<Vec<_>>());
        let lhs = expm(&(&a + &b));
        let rhs = expm(&a).matmul(&expm(&b));
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn trace_fidelity_is_bounded(h1 in arb_hermitian(3, 1.0), h2 in arb_hermitian(3, 1.0)) {
        let u = expm_i_hermitian(&h1, 1.0);
        let v = expm_i_hermitian(&h2, 1.0);
        let f = trace_fidelity(&u, &v);
        prop_assert!((-1e-10..=1.0 + 1e-10).contains(&f));
        prop_assert!(trace_infidelity(&u, &u) < 1e-9);
    }

    #[test]
    fn unitary_preserves_state_norm(h in arb_hermitian(4, 1.0), psi in arb_state(4), t in 0.0..2.0f64) {
        let u = expm_i_hermitian(&h, t);
        let evolved = u.matvec(&psi);
        prop_assert!((evolved.norm() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn state_probabilities_sum_to_one(psi in arb_state(8)) {
        let total: f64 = psi.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    // --- in-place kernels match their allocating counterparts ---------------------
    // The allocating APIs are the reference implementations; every `_into` kernel
    // must produce identical results into a caller-owned (and dirty) buffer.

    #[test]
    fn matmul_into_matches_matmul(a in arb_matrix(3, 2.0), b in arb_matrix(3, 2.0)) {
        let mut out = arb_dirty(3);
        a.matmul_into(&b, &mut out);
        prop_assert!(out.approx_eq(&a.matmul(&b), 1e-12));
    }

    #[test]
    fn dagger_into_matches_dagger(a in arb_matrix(4, 3.0)) {
        let mut out = arb_dirty(4);
        a.dagger_into(&mut out);
        prop_assert!(out.approx_eq(&a.dagger(), 1e-12));
    }

    #[test]
    fn scale_into_matches_scale(a in arb_matrix(3, 2.0), k in arb_c64(3.0)) {
        let mut out = arb_dirty(3);
        a.scale_into(k, &mut out);
        prop_assert!(out.approx_eq(&a.scale(k), 1e-12));
    }

    #[test]
    fn add_scaled_into_matches_add_and_scale(a in arb_matrix(3, 2.0), b in arb_matrix(3, 2.0),
                                             k in arb_c64(3.0)) {
        let mut out = arb_dirty(3);
        a.add_scaled_into(k, &b, &mut out);
        prop_assert!(out.approx_eq(&(&a + &b.scale(k)), 1e-12));

        let mut acc = a.clone();
        acc.add_scaled_assign(k, &b);
        prop_assert!(acc.approx_eq(&out, 1e-12));
    }

    #[test]
    fn eigh_into_matches_eigh(h in arb_hermitian(4, 2.0)) {
        let reference = eigh(&h);
        let mut workspace = EighWorkspace::new(4);
        let mut eigenvalues = Vec::new();
        let mut eigenvectors = arb_dirty(4);
        // Run twice through the same workspace: the second call must not be
        // perturbed by the first call's leftovers.
        eigh_into(&h, &mut workspace, &mut eigenvalues, &mut eigenvectors);
        eigh_into(&h, &mut workspace, &mut eigenvalues, &mut eigenvectors);
        prop_assert_eq!(&eigenvalues, &reference.eigenvalues);
        prop_assert!(eigenvectors.approx_eq(&reference.eigenvectors, 1e-12));
    }
}

/// A deliberately garbage-filled square matrix, so the `_into` tests prove the
/// kernels overwrite (rather than accumulate into) their output buffers.
fn arb_dirty(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |r, c| c64(1.0 + r as f64, -2.0 - c as f64))
}
