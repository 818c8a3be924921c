//! Matrix exponential via scaling-and-squaring with a truncated Taylor series.
//!
//! The independent pulse verifier computes `exp(-i Δt H)` per time slice for small
//! (≤ 16x16, and 81x81 for the qutrit model) matrices. A scaled Taylor expansion is
//! accurate to near machine precision for the norms encountered here and avoids the
//! complexity of a Padé implementation.

use crate::{Matrix, C64};

/// Taylor truncation order of [`expm`].
const TAYLOR_ORDER: usize = 18;

/// Computes the matrix exponential `exp(A)` of a square complex matrix.
///
/// Uses scaling-and-squaring: `A` is divided by `2^s` so its 1-norm is below 0.5, the
/// exponential of the scaled matrix is computed with an order-18 Taylor series, and
/// the result is squared `s` times.
///
/// # Panics
///
/// Panics if `a` is not square or contains non-finite entries.
///
/// ```
/// use vqc_linalg::{C64, Matrix, expm::expm};
/// use std::f64::consts::PI;
/// // exp(-i (pi/2) X) = -i X  (a pi rotation about the X axis, up to phase)
/// let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
/// let u = expm(&x.scale(C64::new(0.0, -PI / 2.0)));
/// assert!(u.approx_eq(&x.scale(C64::new(0.0, -1.0)), 1e-12));
/// ```
pub fn expm(a: &Matrix) -> Matrix {
    assert!(a.is_square(), "expm requires a square matrix");
    assert!(a.is_finite(), "expm requires finite entries");

    let norm = a.one_norm();
    // Choose s so that ||A / 2^s|| <= 0.5.
    let s = if norm > 0.5 {
        (norm / 0.5).log2().ceil() as u32
    } else {
        0
    };
    let scaled = a.scale_real(1.0 / f64::powi(2.0, s as i32));

    // Taylor series: exp(B) = sum_k B^k / k!
    let n = a.rows();
    let mut result = Matrix::identity(n);
    let mut term = Matrix::identity(n);
    for k in 1..=TAYLOR_ORDER {
        term = term.matmul(&scaled).scale_real(1.0 / k as f64);
        result = &result + &term;
        if term.max_abs() < 1e-18 {
            break;
        }
    }

    // Undo the scaling by repeated squaring.
    for _ in 0..s {
        result = result.matmul(&result);
    }
    result
}

/// Computes `exp(-i t H)` for a Hermitian `H`, the unitary time-evolution operator.
///
/// This is the form the pulse verifier uses: `H` is the Hamiltonian of one time slice
/// and `t` its duration.
///
/// # Panics
///
/// Panics if `h` is not square.
pub fn expm_i_hermitian(h: &Matrix, t: f64) -> Matrix {
    expm(&h.scale(C64::new(0.0, -t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;
    use std::f64::consts::PI;

    fn pauli_x() -> Matrix {
        Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]])
    }

    fn pauli_z() -> Matrix {
        Matrix::diag(&[C64::ONE, -C64::ONE])
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let z = Matrix::zeros(4, 4);
        assert!(expm(&z).approx_eq(&Matrix::identity(4), 1e-15));
    }

    #[test]
    fn expm_of_diagonal_matches_scalar_exp() {
        let d = Matrix::diag(&[c64(0.3, 0.0), c64(0.0, 1.2), c64(-0.5, -0.7)]);
        let e = expm(&d);
        for i in 0..3 {
            assert!(e[(i, i)].approx_eq(d[(i, i)].exp(), 1e-13));
        }
        assert!(e[(0, 1)].abs() < 1e-15);
    }

    #[test]
    fn rotation_about_x_axis() {
        // exp(-i theta/2 X) = cos(theta/2) I - i sin(theta/2) X
        let theta: f64 = 1.234;
        let u = expm_i_hermitian(&pauli_x(), theta / 2.0);
        let expected = &Matrix::identity(2).scale_real((theta / 2.0).cos())
            + &pauli_x().scale(C64::new(0.0, -(theta / 2.0).sin()));
        assert!(u.approx_eq(&expected, 1e-13));
        assert!(u.is_unitary(1e-12));
    }

    #[test]
    fn exp_of_hermitian_times_minus_i_is_unitary() {
        // Random-ish Hermitian built from Paulis.
        let h = &(&pauli_x().scale_real(0.7) + &pauli_z().scale_real(-1.3))
            + &Matrix::identity(2).scale_real(0.25);
        assert!(h.is_hermitian(1e-14));
        let u = expm_i_hermitian(&h, 2.5);
        assert!(u.is_unitary(1e-11));
    }

    #[test]
    fn large_norm_scaling_is_accurate() {
        // exp(-i pi X) = -I : large enough that scaling-and-squaring kicks in if we
        // multiply the exponent further.
        let u = expm_i_hermitian(&pauli_x().scale_real(10.0), PI);
        // exp(-i 10 pi X) = cos(10 pi) I - i sin(10 pi) X = I
        assert!(u.approx_eq(&Matrix::identity(2), 1e-9));
    }

    #[test]
    fn additivity_for_commuting_matrices() {
        let z = pauli_z();
        let a = expm(&z.scale(c64(0.0, -0.4)));
        let b = expm(&z.scale(c64(0.0, -0.9)));
        let ab = expm(&z.scale(c64(0.0, -1.3)));
        assert!(a.matmul(&b).approx_eq(&ab, 1e-12));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn expm_rejects_rectangular() {
        expm(&Matrix::zeros(2, 3));
    }
}
