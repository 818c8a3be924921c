//! Building the full unitary matrix of a (sub)circuit.
//!
//! GRAPE consumes a target unitary, not a gate list (Section 5 of the paper). The
//! blocking pass in `vqc-core` keeps subcircuits at ≤ 4 qubits precisely so these
//! matrices stay small (16x16).

use crate::StateVector;
use vqc_circuit::Circuit;
use vqc_linalg::{Matrix, Vector};

/// Maximum width for which we will materialize a dense circuit unitary.
///
/// `2^12 x 2^12` is already 134 M complex entries; anything larger is a usage error.
pub const MAX_UNITARY_QUBITS: usize = 12;

/// Computes the `2^n x 2^n` unitary implemented by a bound circuit.
///
/// The unitary is assembled column-by-column by simulating the circuit on each
/// computational basis state, which costs `O(4^n · gates)` — fine for the ≤4-qubit
/// blocks handed to GRAPE and for verification of small benchmark circuits.
///
/// # Panics
///
/// Panics if the circuit is wider than [`MAX_UNITARY_QUBITS`] or contains unbound
/// parameters.
pub fn circuit_unitary(circuit: &Circuit) -> Matrix {
    let n = circuit.num_qubits();
    assert!(
        n <= MAX_UNITARY_QUBITS,
        "refusing to build a dense unitary for {n} qubits (max {MAX_UNITARY_QUBITS})"
    );
    let dim = 1usize << n;
    let mut out = Matrix::zeros(dim, dim);
    for col in 0..dim {
        let mut state = StateVector::from_amplitudes(Vector::basis_state(dim, col));
        state.apply_circuit(circuit);
        for row in 0..dim {
            out[(row, col)] = state.amplitudes().get(row);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use vqc_circuit::Circuit;

    #[test]
    fn empty_circuit_is_identity() {
        let c = Circuit::new(3);
        assert!(circuit_unitary(&c).approx_eq(&Matrix::identity(8), 1e-12));
    }

    #[test]
    fn single_gate_circuit_matches_gate_matrix() {
        let mut c = Circuit::new(1);
        c.h(0);
        assert!(circuit_unitary(&c).approx_eq(&gates::h(), 1e-12));
    }

    #[test]
    fn two_qubit_circuit_matches_kron_composition() {
        // H on qubit 0 then CX(0,1): U = CX · (H ⊗ I).
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let expected = gates::cx().matmul(&gates::h().kron(&Matrix::identity(2)));
        assert!(circuit_unitary(&c).approx_eq(&expected, 1e-12));
    }

    #[test]
    fn program_order_is_right_to_left_matrix_order() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.z(0);
        // Time order H then Z  =>  matrix Z · H.
        let expected = gates::z().matmul(&gates::h());
        assert!(circuit_unitary(&c).approx_eq(&expected, 1e-12));
    }

    #[test]
    fn circuit_unitary_is_unitary() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.rz(1, 0.7);
        c.cz(1, 2);
        c.rx(2, 1.1);
        c.swap(0, 2);
        assert!(circuit_unitary(&c).is_unitary(1e-10));
    }

    #[test]
    fn a_single_gate_embeds_correctly() {
        let mut c = Circuit::new(2);
        c.x(1);
        // I ⊗ X
        let expected = Matrix::identity(2).kron(&gates::x());
        assert!(circuit_unitary(&c).approx_eq(&expected, 1e-12));
    }

    #[test]
    fn a_gate_on_non_adjacent_qubits_embeds_correctly() {
        // CX with control qubit 2, target qubit 0 on a 3-qubit register.
        let mut c = Circuit::new(3);
        c.cx(2, 0);
        let u = circuit_unitary(&c);
        assert!(u.is_unitary(1e-12));
        // |001> (control set) must map to |101>.
        assert!((u[(0b101, 0b001)].abs() - 1.0).abs() < 1e-12);
        // |000> unchanged.
        assert!((u[(0b000, 0b000)].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decomposed_circuits_preserve_unitary_up_to_phase() {
        use vqc_circuit::passes::decompose_to_basis;
        let mut c = Circuit::new(2);
        c.ry(0, 0.9);
        c.cz(0, 1);
        c.rzz(0, 1, 1.3);
        c.x(1);
        let lowered = decompose_to_basis(&c);
        let u1 = circuit_unitary(&c);
        let u2 = circuit_unitary(&lowered);
        assert!(u1.approx_eq_up_to_phase(&u2, 1e-10));
    }

    #[test]
    #[should_panic(expected = "refusing to build")]
    fn oversized_unitary_is_rejected() {
        circuit_unitary(&Circuit::new(13));
    }
}
