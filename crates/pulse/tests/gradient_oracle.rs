//! A dense oracle for the GRAPE gradient that shares none of the engine's
//! identities.
//!
//! The engine never forms a slice propagator: it sweeps in each slice's
//! eigenbasis on planar real storage and reads the Daleckii–Krein matrix off
//! the product of what the two sweeps left. This test recomputes the gradient
//! the long way round — from the *exported* [`Propagation`] (slice
//! propagators, forward products, identity-seeded backward products), with
//! dynamic complex [`Matrix`] products and the complex `eigh` of each dense
//! slice Hamiltonian — and holds `fidelity_gradient` to it at 1e-10, on every
//! storage and on both sides of the eigensolver's dimension rule.

use vqc_linalg::{eigh, Matrix, C64};
use vqc_pulse::propagate::{slice_hamiltonian, Propagation};
use vqc_pulse::{DeviceModel, GrapeWorkspace, PulseSequence};
use vqc_sim::gates;

/// `∂U_t/∂u_k = V (Γ ∘ (V† H_k V)) V†` from the complex eigendecomposition of
/// the dense slice Hamiltonian, `Γ` the divided differences of `e^{-iΔtλ}`.
fn slice_derivative(hamiltonian: &Matrix, control: &Matrix, dt: f64) -> Matrix {
    let dim = hamiltonian.rows();
    let eigen = eigh(hamiltonian);
    let (lambdas, v) = (&eigen.eigenvalues, &eigen.eigenvectors);
    let rotated = v.dagger().matmul(control).matmul(v);
    let phase = |i: usize| C64::cis(-dt * lambdas[i]);
    let inner = Matrix::from_fn(dim, dim, |i, j| {
        let gap = lambdas[i] - lambdas[j];
        let gamma = if gap.abs() < 1e-10 {
            C64::new(0.0, -dt) * phase(i)
        } else {
            (phase(i) - phase(j)) * (1.0 / gap)
        };
        rotated[(i, j)] * gamma
    });
    v.matmul(&inner).matmul(&v.dagger())
}

/// Infidelity and slice-major gradient of `pulse`, densely.
fn dense_gradient(
    device: &DeviceModel,
    target: &Matrix,
    pulse: &PulseSequence,
    propagation: &Propagation,
) -> (f64, Vec<f64>) {
    let target_dagger = device.pad_qubit_unitary(target).dagger();
    let qubit_dim = device.qubit_dim() as f64;
    let (drift, controls) = (device.drift(), device.control_hamiltonians());
    let overlap = target_dagger.matmul(propagation.total()).trace() / qubit_dim;
    let mut gradient = Vec::new();
    for t in 0..pulse.num_slices() {
        let hamiltonian = slice_hamiltonian(&drift, &controls, pulse, t);
        // Tr(target† · backward[t] · ∂U_t · forward[t-1]), cycled so the part
        // that does not depend on the control is multiplied once.
        let around = match t {
            0 => target_dagger.matmul(&propagation.backward[0]),
            _ => propagation.forward[t - 1]
                .matmul(&target_dagger)
                .matmul(&propagation.backward[t]),
        };
        for control in &controls {
            let derivative = slice_derivative(&hamiltonian, &control.operator, pulse.dt_ns());
            let d_overlap = around.matmul(&derivative).trace() / qubit_dim;
            gradient.push(-2.0 * (overlap.conj() * d_overlap).re);
        }
    }
    (1.0 - overlap.norm_sqr(), gradient)
}

#[test]
fn fidelity_gradient_matches_the_dense_oracle() {
    let cases = [
        // closed form, stack
        (DeviceModel::qubits_line(1), gates::h()),
        // warm-started Jacobi, stack
        (DeviceModel::qubits_line(2), gates::cx()),
        // Householder–QL, stack
        (DeviceModel::qubits_line(3), gates::cx().kron(&gates::h())),
        (DeviceModel::qubits_line(4), gates::cx().kron(&gates::cx())),
        // Jacobi and QL, heap
        (DeviceModel::qubits_line(1).with_qutrit_levels(), gates::h()),
        (
            DeviceModel::qubits_line(2).with_qutrit_levels(),
            gates::cx(),
        ),
    ];
    for (device, target) in cases {
        let dim = device.dim();
        let slices = 7;
        let mut workspace = GrapeWorkspace::new(&device, slices);
        workspace.set_target(&device, &target);
        // Two pulses through one workspace: the second evaluation is the
        // warm-started one wherever the dimension has a warm start, and it
        // carries an idle slice (the zero Hamiltonian, fully degenerate).
        for seed in [3, 4] {
            let mut pulse = PulseSequence::seeded_guess(&device, slices, 0.5, seed);
            if seed == 4 {
                for k in 0..device.num_controls() {
                    pulse.set_amplitude(k, 2, 0.0);
                }
            }
            let propagation = workspace.propagate(&pulse);
            let (dense_infidelity, dense) = dense_gradient(&device, &target, &pulse, &propagation);
            let infidelity = workspace.fidelity_gradient(&pulse);
            assert!(
                (infidelity - dense_infidelity).abs() < 1e-10,
                "dim {dim}, seed {seed}: infidelity {infidelity} vs dense {dense_infidelity}"
            );
            assert_eq!(workspace.gradient().len(), dense.len());
            for (index, (engine, oracle)) in workspace.gradient().iter().zip(&dense).enumerate() {
                assert!(
                    (engine - oracle).abs() < 1e-10,
                    "dim {dim}, seed {seed}, slice {} control {}: engine {engine:e} vs dense {oracle:e}",
                    index / device.num_controls(),
                    index % device.num_controls()
                );
            }
        }
    }
}
