//! UCCSD-style ansatz circuit generation (Section 4.1).
//!
//! The Unitary Coupled Cluster Single-Double ansatz Trotterizes the excitation operator
//! `exp(T - T†)` into a product of Pauli-string evolutions: every single excitation
//! `i → a` contributes two strings and every double excitation `ij → ab` contributes
//! eight, and all strings belonging to one excitation share a single variational
//! parameter θ. Each string is compiled in the standard way — basis changes onto the
//! Z axis, a CNOT ladder, one parameterized `Rz(θ)`, and the inverse ladder — which is
//! exactly the structure the paper's partial-compilation strategies exploit:
//!
//! * the *only* parameterized gates are the central `Rz(θᵢ)` rotations (a few percent
//!   of all gates), and
//! * the θᵢ appear in monotonically increasing order (parameter monotonicity).
//!
//! The excitation list is derived from the molecule's size at half filling and truncated
//! or cycled so the parameter count matches Table 2 of the paper (see DESIGN.md for the
//! substitution rationale: the paper generated these circuits with Qiskit + PySCF).

use crate::molecules::Molecule;
use vqc_circuit::{Circuit, ParamExpr};

/// The Pauli axis a qubit contributes to one excitation string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    X,
    Y,
}

/// One fermionic excitation of the UCCSD ansatz.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Excitation {
    /// A single excitation from an occupied orbital to a virtual orbital.
    Single {
        /// Occupied orbital (qubit) index.
        from: usize,
        /// Virtual orbital (qubit) index.
        to: usize,
    },
    /// A double excitation from two occupied orbitals to two virtual orbitals.
    Double {
        /// First occupied orbital.
        from: (usize, usize),
        /// Second pair: virtual orbitals.
        to: (usize, usize),
    },
}

impl Excitation {
    /// The qubits this excitation touches, in ascending order.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Excitation::Single { from, to } => vec![*from, *to],
            Excitation::Double { from, to } => {
                let mut v = vec![from.0, from.1, to.0, to.1];
                v.sort_unstable();
                v
            }
        }
    }
}

/// Enumerates the single and double excitations of a molecule at half filling
/// (occupied orbitals `0..n/2`, virtual orbitals `n/2..n`), singles first.
pub fn enumerate_excitations(num_qubits: usize) -> Vec<Excitation> {
    let occupied: Vec<usize> = (0..num_qubits / 2).collect();
    let virtuals: Vec<usize> = (num_qubits / 2..num_qubits).collect();
    let mut excitations = Vec::new();
    for &i in &occupied {
        for &a in &virtuals {
            excitations.push(Excitation::Single { from: i, to: a });
        }
    }
    for (x, &i) in occupied.iter().enumerate() {
        for &j in occupied.iter().skip(x + 1) {
            for (y, &a) in virtuals.iter().enumerate() {
                for &b in virtuals.iter().skip(y + 1) {
                    excitations.push(Excitation::Double {
                        from: (i, j),
                        to: (a, b),
                    });
                }
            }
        }
    }
    excitations
}

/// The excitation list used for a molecule: the enumeration of
/// [`enumerate_excitations`], cycled if necessary so exactly
/// [`Molecule::num_parameters`] excitations (and hence parameters) are produced.
pub fn molecule_excitations(molecule: Molecule) -> Vec<Excitation> {
    let all = enumerate_excitations(molecule.num_qubits());
    let wanted = molecule.num_parameters();
    assert!(
        !all.is_empty(),
        "molecule must have at least one excitation"
    );
    (0..wanted).map(|i| all[i % all.len()].clone()).collect()
}

/// Appends the circuit for `exp(-i θ/2 · P)` where `P` is the Pauli string given by
/// `axes` acting on `qubits`: basis changes, a CNOT ladder, `Rz(θ)`, and the inverse.
fn append_pauli_evolution(
    circuit: &mut Circuit,
    qubits: &[usize],
    axes: &[Axis],
    angle: ParamExpr,
) {
    debug_assert_eq!(qubits.len(), axes.len());
    // Basis changes onto Z.
    for (&q, &axis) in qubits.iter().zip(axes.iter()) {
        match axis {
            Axis::X => circuit.h(q),
            Axis::Y => circuit.rx(q, std::f64::consts::FRAC_PI_2),
        }
    }
    // Entangling ladder.
    for pair in qubits.windows(2) {
        circuit.cx(pair[0], pair[1]);
    }
    // The single parameterized rotation of this string.
    // audit:allow(unwrap): ansatz Pauli strings are built non-empty
    circuit.rz_expr(*qubits.last().expect("non-empty string"), angle);
    // Inverse ladder.
    for pair in qubits.windows(2).rev() {
        circuit.cx(pair[0], pair[1]);
    }
    // Inverse basis changes.
    for (&q, &axis) in qubits.iter().zip(axes.iter()) {
        match axis {
            Axis::X => circuit.h(q),
            Axis::Y => circuit.rx(q, -std::f64::consts::FRAC_PI_2),
        }
    }
}

/// Appends the full Trotterized evolution of one excitation, parameterized by θ with
/// the given index.
pub fn append_excitation(circuit: &mut Circuit, excitation: &Excitation, parameter: usize) {
    match excitation {
        Excitation::Single { from, to } => {
            let qubits = [*from, *to];
            let theta = ParamExpr::theta(parameter);
            append_pauli_evolution(circuit, &qubits, &[Axis::X, Axis::Y], theta.scaled(0.5));
            append_pauli_evolution(circuit, &qubits, &[Axis::Y, Axis::X], theta.scaled(-0.5));
        }
        Excitation::Double { from, to } => {
            let qubits = [from.0, from.1, to.0, to.1];
            let theta = ParamExpr::theta(parameter);
            let plus: [[Axis; 4]; 4] = [
                [Axis::X, Axis::X, Axis::X, Axis::Y],
                [Axis::X, Axis::X, Axis::Y, Axis::X],
                [Axis::X, Axis::Y, Axis::X, Axis::X],
                [Axis::Y, Axis::X, Axis::X, Axis::X],
            ];
            let minus: [[Axis; 4]; 4] = [
                [Axis::Y, Axis::Y, Axis::Y, Axis::X],
                [Axis::Y, Axis::Y, Axis::X, Axis::Y],
                [Axis::Y, Axis::X, Axis::Y, Axis::Y],
                [Axis::X, Axis::Y, Axis::Y, Axis::Y],
            ];
            for axes in &plus {
                append_pauli_evolution(circuit, &qubits, axes, theta.scaled(0.125));
            }
            for axes in &minus {
                append_pauli_evolution(circuit, &qubits, axes, theta.scaled(-0.125));
            }
        }
    }
}

/// Builds the UCCSD-style ansatz circuit for a molecule: a Hartree-Fock-like
/// preparation layer (X on each occupied orbital) followed by the Trotterized
/// excitations, one parameter per excitation.
pub fn uccsd_circuit(molecule: Molecule) -> Circuit {
    let num_qubits = molecule.num_qubits();
    let mut circuit = Circuit::new(num_qubits);
    for q in 0..molecule.num_occupied() {
        circuit.x(q);
    }
    for (index, excitation) in molecule_excitations(molecule).iter().enumerate() {
        append_excitation(&mut circuit, excitation, index);
    }
    circuit
}

/// Builds a generic UCCSD-style ansatz on `num_qubits` qubits with exactly
/// `num_parameters` excitation parameters (cycling the excitation list if necessary).
pub fn uccsd_ansatz(num_qubits: usize, num_parameters: usize) -> Circuit {
    let all = enumerate_excitations(num_qubits);
    assert!(!all.is_empty(), "need at least 2 qubits for an excitation");
    let mut circuit = Circuit::new(num_qubits);
    for q in 0..num_qubits / 2 {
        circuit.x(q);
    }
    for index in 0..num_parameters {
        append_excitation(&mut circuit, &all[index % all.len()], index);
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqc_circuit::passes::optimize;

    #[test]
    fn excitation_enumeration_counts() {
        // 4 qubits at half filling: 2 occ x 2 virt singles, 1 x 1 doubles.
        let excitations = enumerate_excitations(4);
        let singles = excitations
            .iter()
            .filter(|e| matches!(e, Excitation::Single { .. }))
            .count();
        let doubles = excitations.len() - singles;
        assert_eq!(singles, 4);
        assert_eq!(doubles, 1);

        // 6 qubits: 9 singles, 3 occ pairs x 3 virt pairs = 9 doubles.
        let excitations = enumerate_excitations(6);
        assert_eq!(excitations.len(), 9 + 9);
    }

    #[test]
    fn molecule_circuits_match_table2_shape() {
        for molecule in [Molecule::H2, Molecule::LiH, Molecule::BeH2, Molecule::NaH] {
            let circuit = uccsd_circuit(molecule);
            assert_eq!(circuit.num_qubits(), molecule.num_qubits(), "{molecule}");
            assert_eq!(
                circuit.num_parameters(),
                molecule.num_parameters(),
                "{molecule}"
            );
            assert!(circuit.is_parameter_monotonic(), "{molecule}");
        }
    }

    #[test]
    fn h2o_circuit_is_large_but_correctly_parameterized() {
        let circuit = uccsd_circuit(Molecule::H2O);
        assert_eq!(circuit.num_qubits(), 10);
        assert_eq!(circuit.num_parameters(), 92);
        assert!(circuit.len() > 5_000);
        assert!(circuit.is_parameter_monotonic());
        let prepared = optimize(&circuit);
        assert_eq!(prepared.num_parameters(), 92);
        assert!(prepared.is_parameter_monotonic());
    }

    #[test]
    fn parameterized_fraction_is_a_few_percent() {
        // The paper reports 5–8 % parameterized gates for VQE-UCCSD benchmarks; our
        // generator lands in the same neighbourhood for the double-dominated molecules.
        for molecule in [Molecule::BeH2, Molecule::NaH, Molecule::H2O] {
            let circuit = optimize(&uccsd_circuit(molecule));
            let fraction = circuit.parameterized_fraction();
            assert!(
                (0.03..=0.15).contains(&fraction),
                "{molecule}: fraction {fraction}"
            );
        }
    }

    #[test]
    fn optimization_preserves_parameters_and_monotonicity() {
        let circuit = uccsd_circuit(Molecule::LiH);
        let optimized = optimize(&circuit);
        assert_eq!(optimized.num_parameters(), 8);
        assert!(optimized.is_parameter_monotonic());
        assert!(optimized.len() <= vqc_circuit::passes::decompose_to_basis(&circuit).len());
    }

    #[test]
    fn excitations_touch_expected_qubits() {
        let single = Excitation::Single { from: 1, to: 3 };
        assert_eq!(single.qubits(), vec![1, 3]);
        let double = Excitation::Double {
            from: (0, 1),
            to: (3, 2),
        };
        assert_eq!(double.qubits(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn generic_ansatz_builder_matches_request() {
        let circuit = uccsd_ansatz(6, 10);
        assert_eq!(circuit.num_qubits(), 6);
        assert_eq!(circuit.num_parameters(), 10);
        assert!(circuit.is_parameter_monotonic());
    }

    #[test]
    fn bound_ansatz_simulates_to_a_normalized_state() {
        use vqc_sim::StateVector;
        let circuit = uccsd_circuit(Molecule::H2);
        let bound = circuit.bind(&[0.1; 3]);
        let state = StateVector::from_circuit(&bound);
        let total: f64 = state.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
