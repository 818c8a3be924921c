//! Fidelity between unitaries.
//!
//! GRAPE's primary cost function is the *trace infidelity* between the realized unitary
//! and the target unitary (Section 5 of the paper); the helpers here are shared by the
//! pulse optimizer, its tests, and the benchmark harness.

use crate::Matrix;

/// Trace (gate) fidelity between two unitaries: `|Tr(U† V)|² / d²`.
///
/// Insensitive to global phase and equal to 1 exactly when `U = e^{iφ} V`.
///
/// # Panics
///
/// Panics if the matrices are not square or have different shapes.
pub fn trace_fidelity(u: &Matrix, v: &Matrix) -> f64 {
    assert!(
        u.is_square() && v.is_square(),
        "fidelity requires square matrices"
    );
    assert_eq!(u.shape(), v.shape(), "fidelity requires equal shapes");
    let d = u.rows() as f64;
    let overlap = u.dagger().matmul(v).trace();
    overlap.norm_sqr() / (d * d)
}

/// Trace infidelity `1 - trace_fidelity(u, v)`, the quantity GRAPE minimizes.
pub fn trace_infidelity(u: &Matrix, v: &Matrix) -> f64 {
    1.0 - trace_fidelity(u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{c64, C64};

    fn hadamard() -> Matrix {
        let s = 1.0 / 2.0_f64.sqrt();
        Matrix::from_rows(&[&[c64(s, 0.0), c64(s, 0.0)], &[c64(s, 0.0), c64(-s, 0.0)]])
    }

    #[test]
    fn identical_unitaries_have_unit_fidelity() {
        let h = hadamard();
        assert!((trace_fidelity(&h, &h) - 1.0).abs() < 1e-14);
        assert!(trace_infidelity(&h, &h) < 1e-14);
    }

    #[test]
    fn global_phase_does_not_matter() {
        let h = hadamard();
        let phased = h.scale(C64::cis(1.1));
        assert!((trace_fidelity(&h, &phased) - 1.0).abs() < 1e-13);
    }

    #[test]
    fn orthogonal_unitaries_have_low_fidelity() {
        let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        let z = Matrix::diag(&[C64::ONE, -C64::ONE]);
        // Tr(X† Z) = 0 so fidelity is zero.
        assert!(trace_fidelity(&x, &z) < 1e-14);
    }

    #[test]
    fn fidelity_is_symmetric() {
        let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        let h = hadamard();
        assert!((trace_fidelity(&x, &h) - trace_fidelity(&h, &x)).abs() < 1e-14);
    }
}
