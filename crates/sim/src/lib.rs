//! Unitary and state-vector simulation of quantum circuits.
//!
//! The partial-compilation pipeline needs two things from a simulator:
//!
//! 1. **Target unitaries for GRAPE** — every subcircuit handed to the pulse optimizer
//!    must first be turned into its `2^n x 2^n` unitary matrix ([`circuit_unitary`]).
//! 2. **Expectation values for the variational loop** — running VQE/QAOA end-to-end
//!    (as the examples do) requires simulating the ansatz state and measuring a
//!    [`PauliOperator`] Hamiltonian against it ([`StateVector`]).
//!
//! Gate-matrix conventions: `Rz(φ) = diag(1, e^{iφ})` (as printed in the paper),
//! `Rx(θ) = exp(-i θ X / 2)`, `CX` with the first operand as control. Qubit 0 is the
//! most-significant bit of a basis-state index, matching the Kronecker-product order
//! `q0 ⊗ q1 ⊗ …`.
//!
//! # Example
//!
//! ```
//! use vqc_circuit::Circuit;
//! use vqc_sim::{StateVector, circuit_unitary};
//!
//! // Bell state preparation.
//! let mut c = Circuit::new(2);
//! c.h(0);
//! c.cx(0, 1);
//!
//! let state = StateVector::from_circuit(&c);
//! assert!((state.probability(0b00) - 0.5).abs() < 1e-12);
//! assert!((state.probability(0b11) - 0.5).abs() < 1e-12);
//!
//! let u = circuit_unitary(&c);
//! assert!(u.is_unitary(1e-10));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gates;
pub mod pauli;
mod statevector;
mod unitary;

pub use pauli::{Pauli, PauliOperator, PauliString};
pub use statevector::StateVector;
pub use unitary::circuit_unitary;
