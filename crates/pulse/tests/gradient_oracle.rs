//! A dense oracle for the GRAPE gradient that shares none of the engine's
//! code or identities.
//!
//! The engine never forms a slice propagator: it sweeps in each slice's
//! eigenbasis on planar real storage and reads the Daleckii–Krein matrix off
//! the product of what the two sweeps left. This test recomputes the gradient
//! the long way round, built independently from the complex `eigh` of each
//! dense slice Hamiltonian: slice propagators `V·diag(e^{-iΔtλ})·V†`, their
//! forward products and identity-seeded backward products, all dynamic
//! complex [`Matrix`] products. It holds `fidelity_gradient` to that at
//! 1e-10, on every storage and on both sides of the eigensolver's dimension
//! rule.

use vqc_linalg::{eigh, EighResult, Matrix, C64};
use vqc_pulse::propagate::slice_hamiltonian;
use vqc_pulse::{DeviceModel, GrapeWorkspace, PulseSequence};
use vqc_sim::gates;

/// `V · f(Λ) · V†` for one slice's eigendecomposition, `f` given per
/// eigenvalue pair `(i, j)` of the inner matrix.
fn in_eigenbasis(eigen: &EighResult, inner: impl Fn(usize, usize) -> C64) -> Matrix {
    let (dim, v) = (eigen.eigenvalues.len(), &eigen.eigenvectors);
    v.matmul(&Matrix::from_fn(dim, dim, inner))
        .matmul(&v.dagger())
}

/// `U_t = V diag(e^{-iΔtλ}) V†`.
fn slice_propagator(eigen: &EighResult, dt: f64) -> Matrix {
    let lambdas = &eigen.eigenvalues;
    in_eigenbasis(eigen, |i, j| {
        if i == j {
            C64::cis(-dt * lambdas[i])
        } else {
            C64::ZERO
        }
    })
}

/// `∂U_t/∂u_k = V (Γ ∘ (V† H_k V)) V†`, `Γ` the divided differences of
/// `e^{-iΔtλ}`.
fn slice_derivative(eigen: &EighResult, control: &Matrix, dt: f64) -> Matrix {
    let (lambdas, v) = (&eigen.eigenvalues, &eigen.eigenvectors);
    let rotated = v.dagger().matmul(control).matmul(v);
    let phase = |i: usize| C64::cis(-dt * lambdas[i]);
    in_eigenbasis(eigen, |i, j| {
        let gap = lambdas[i] - lambdas[j];
        let gamma = if gap.abs() < 1e-10 {
            C64::new(0.0, -dt) * phase(i)
        } else {
            (phase(i) - phase(j)) * (1.0 / gap)
        };
        rotated[(i, j)] * gamma
    })
}

/// Infidelity and slice-major gradient of `pulse`, densely.
fn dense_gradient(device: &DeviceModel, target: &Matrix, pulse: &PulseSequence) -> (f64, Vec<f64>) {
    let target_dagger = device.pad_qubit_unitary(target).dagger();
    let qubit_dim = device.qubit_dim() as f64;
    let (drift, controls) = (device.drift(), device.control_hamiltonians());
    let (dt, slices) = (pulse.dt_ns(), pulse.num_slices());
    let eigen: Vec<EighResult> = (0..slices)
        .map(|t| eigh(&slice_hamiltonian(&drift, &controls, pulse, t)))
        .collect();
    let propagators: Vec<Matrix> = eigen.iter().map(|e| slice_propagator(e, dt)).collect();
    // forward[t] = U_t ⋯ U_0; backward[t] = U_{T-1} ⋯ U_{t+1}, the identity at T-1.
    let mut forward: Vec<Matrix> = Vec::with_capacity(slices);
    for propagator in &propagators {
        let next = match forward.last() {
            Some(previous) => propagator.matmul(previous),
            None => propagator.clone(),
        };
        forward.push(next);
    }
    let mut backward = vec![Matrix::identity(device.dim()); slices];
    for t in (0..slices - 1).rev() {
        backward[t] = backward[t + 1].matmul(&propagators[t + 1]);
    }

    let overlap = target_dagger.matmul(&forward[slices - 1]).trace() / qubit_dim;
    let mut gradient = Vec::new();
    for (t, eigen) in eigen.iter().enumerate() {
        // Tr(target† · backward[t] · ∂U_t · forward[t-1]), cycled so the part
        // that does not depend on the control is multiplied once.
        let around = match t {
            0 => target_dagger.matmul(&backward[0]),
            _ => forward[t - 1].matmul(&target_dagger).matmul(&backward[t]),
        };
        for control in &controls {
            let derivative = slice_derivative(eigen, &control.operator, dt);
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
            let (dense_infidelity, dense) = dense_gradient(&device, &target, &pulse);
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
