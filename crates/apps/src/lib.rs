//! Variational benchmark applications: VQE-UCCSD and QAOA MAXCUT.
//!
//! The paper evaluates its compilation strategies on two families of variational
//! circuits (Section 4):
//!
//! * **VQE with the UCCSD ansatz** for five molecules (H₂, LiH, BeH₂, NaH, H₂O) —
//!   generated here by [`uccsd`]. The generator reproduces the *structure* the
//!   compilation strategies exploit: Trotterized excitation blocks where each
//!   variational parameter θᵢ appears in a contiguous group of Pauli-evolution
//!   subcircuits (parameter monotonicity), with parameterized Rz gates making up only a
//!   few percent of all gates.
//! * **QAOA MAXCUT** on 3-regular and Erdős–Rényi random graphs ([`qaoa`], [`graphs`]),
//!   with `p` alternating Cost/Mixing rounds and `2p` parameters.
//!
//! The crate also provides the classical half of the variational loop: a derivative-free
//! [Nelder–Mead](optimizer::NelderMead) optimizer and end-to-end [`variational`] drivers
//! that evaluate circuits on the `vqc-sim` state-vector simulator.
//!
//! [`metrics_text`] holds the text renderings of a service metrics snapshot
//! that the `vqc-top` dashboard and the `vqc-report` journal reader share.
//!
//! # Example
//!
//! ```
//! use vqc_apps::graphs::Graph;
//! use vqc_apps::qaoa;
//!
//! let graph = Graph::three_regular(6, 7).unwrap();
//! let circuit = qaoa::qaoa_circuit(&graph, 2);
//! assert_eq!(circuit.num_qubits(), 6);
//! assert_eq!(circuit.num_parameters(), 4); // 2p
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod graphs;
pub mod metrics_text;
pub mod molecules;
pub mod optimizer;
pub mod qaoa;
pub mod uccsd;
pub mod variational;
