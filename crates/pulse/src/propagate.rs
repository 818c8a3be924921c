//! Time-ordered propagation of piecewise-constant control pulses.
//!
//! Slice propagators are built by the same eigendecomposition path the GRAPE
//! gradient uses ([`crate::workspace::GrapeWorkspace`]), so the optimizer and the
//! verifier can never drift apart. The independent Taylor
//! [`expm`](vqc_linalg::expm::expm) survives as a reference implementation that a
//! debug assertion checks the shared path against on small systems.

use crate::workspace::GrapeWorkspace;
use crate::{ControlHamiltonian, DeviceModel, PulseSequence};
use vqc_linalg::{Matrix, C64};

/// The result of propagating a pulse: every per-slice propagator plus the cumulative
/// forward and backward partial products needed for analytic GRAPE gradients.
#[derive(Debug, Clone)]
pub struct Propagation {
    /// `slice[t] = exp(-i Δt H(t))`.
    pub slice_unitaries: Vec<Matrix>,
    /// `forward[t] = slice[t] · slice[t-1] · … · slice[0]` (the state of the evolution
    /// *after* slice `t`).
    pub forward: Vec<Matrix>,
    /// `backward[t] = slice[T-1] · … · slice[t+1]` (the remaining evolution *after*
    /// slice `t`); `backward[T-1]` is the identity.
    pub backward: Vec<Matrix>,
}

impl Propagation {
    /// The total evolution operator of the pulse.
    pub fn total(&self) -> &Matrix {
        // audit:allow(unwrap): pulses are validated non-empty before propagation
        self.forward.last().expect("propagation of an empty pulse")
    }
}

/// Builds the Hamiltonian of one time slice: `H(t) = H_drift + Σ_k u_k(t) H_k`.
///
/// The GRAPE engine assembles its own slice Hamiltonians from packed nonzero
/// lists; this dense construction is the independent form the Taylor
/// cross-check and the benchmarks use.
pub fn slice_hamiltonian(
    drift: &Matrix,
    controls: &[ControlHamiltonian],
    pulse: &PulseSequence,
    t: usize,
) -> Matrix {
    let mut h = drift.clone();
    for (k, control) in controls.iter().enumerate() {
        let amp = pulse.amplitude(k, t);
        if amp != 0.0 {
            h.add_scaled_assign(C64::from_real(amp), &control.operator);
        }
    }
    h
}

/// Propagates a pulse on a device, returning all intermediate products.
///
/// The slice propagators come from the eigendecomposition path shared with the GRAPE
/// gradient kernel; in debug builds each one is cross-checked against the
/// independent Taylor `expm` on small systems (agreement to `1e-10`).
///
/// # Panics
///
/// Panics if the pulse was built for a different number of controls than the device.
pub fn propagate(device: &DeviceModel, pulse: &PulseSequence) -> Propagation {
    let propagation = GrapeWorkspace::new(device, pulse.num_slices()).propagate(pulse);

    // The Taylor expm is the independent reference implementation: on systems small
    // enough to pay for it, every debug build verifies the shared
    // eigendecomposition propagator against it.
    #[cfg(debug_assertions)]
    if device.dim() <= 4 {
        let (drift, controls) = (device.drift(), device.control_hamiltonians());
        let dt = pulse.dt_ns();
        for (t, slice_unitary) in propagation.slice_unitaries.iter().enumerate() {
            let h = slice_hamiltonian(&drift, &controls, pulse, t);
            let taylor = vqc_linalg::expm::expm(&h.scale(C64::new(0.0, -dt)));
            debug_assert!(
                slice_unitary.approx_eq(&taylor, 1e-10),
                "eigendecomposition and Taylor propagators disagree at slice {t}"
            );
        }
    }

    propagation
}

/// Convenience wrapper returning only the total evolution operator of a pulse.
pub fn final_unitary(device: &DeviceModel, pulse: &PulseSequence) -> Matrix {
    propagate(device, pulse).total().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::CHARGE_DRIVE_MAX;
    use std::f64::consts::PI;
    use vqc_linalg::fidelity::trace_fidelity;

    #[test]
    fn zero_pulse_is_identity_evolution() {
        let device = DeviceModel::qubits_line(2);
        let pulse = PulseSequence::zeros(device.num_controls(), 8, 0.5);
        let u = final_unitary(&device, &pulse);
        assert!(u.approx_eq(&Matrix::identity(4), 1e-10));
    }

    #[test]
    fn propagation_products_are_consistent() {
        let device = DeviceModel::qubits_line(1);
        let pulse = PulseSequence::seeded_guess(&device, 10, 0.5, 7);
        let prop = propagate(&device, &pulse);
        // forward[t] · (nothing)  and  backward[t] · slice[t] · forward[t-1]  must give
        // the same total for every t.
        let total = prop.total().clone();
        for t in 0..pulse.num_slices() {
            let rebuilt = if t == 0 {
                prop.backward[t].matmul(&prop.slice_unitaries[t])
            } else {
                prop.backward[t]
                    .matmul(&prop.slice_unitaries[t])
                    .matmul(&prop.forward[t - 1])
            };
            assert!(rebuilt.approx_eq(&total, 1e-9), "slice {t} inconsistent");
        }
    }

    #[test]
    fn constant_charge_drive_realizes_x_rotation() {
        // A constant charge drive Ω for time T produces Rx(2ΩT); drive at the maximum
        // amplitude for T = π / (2 Ω_max) to get an X gate (2.5 ns, as in Table 1).
        let device = DeviceModel::qubits_line(1);
        let t_total = PI / (2.0 * CHARGE_DRIVE_MAX);
        let num_slices = 50;
        let dt = t_total / num_slices as f64;
        let mut pulse = PulseSequence::zeros(device.num_controls(), num_slices, dt);
        for t in 0..num_slices {
            pulse.set_amplitude(0, t, CHARGE_DRIVE_MAX);
        }
        let u = final_unitary(&device, &pulse);
        let target = vqc_sim::gates::x();
        assert!(
            trace_fidelity(&u, &target) > 0.9999,
            "fidelity {}",
            trace_fidelity(&u, &target)
        );
        // And the required time is exactly the 2.5 ns the paper's Table 1 lists for Rx.
        assert!((t_total - 2.5).abs() < 0.01);
    }

    #[test]
    fn flux_drive_is_15x_faster_for_z_rotations() {
        use crate::device::FLUX_DRIVE_MAX;
        // A constant flux drive produces diag(1, e^{-iΩT}) — a Z rotation. Time for a π
        // phase at max amplitude:
        let t_z = PI / FLUX_DRIVE_MAX;
        let t_x = PI / (2.0 * CHARGE_DRIVE_MAX);
        // Z rotations are 15x faster than X rotations... but the X rotation only needs
        // half the angle per unit drive (a†+a has eigenvalues ±1), hence the 7.5x here;
        // the paper's Table-1 ratio (0.4 ns vs 2.5 ns ≈ 6x) reflects the same asymmetry.
        assert!(t_x / t_z > 5.0);

        let device = DeviceModel::qubits_line(1);
        let num_slices = 20;
        let dt = t_z / num_slices as f64;
        let mut pulse = PulseSequence::zeros(device.num_controls(), num_slices, dt);
        for t in 0..num_slices {
            pulse.set_amplitude(1, t, FLUX_DRIVE_MAX);
        }
        let u = final_unitary(&device, &pulse);
        // Up to global phase this is a Pauli-Z.
        assert!(u.approx_eq_up_to_phase(&vqc_sim::gates::z(), 1e-6));
    }

    #[test]
    fn coupling_drive_entangles() {
        use crate::device::COUPLING_MAX;
        let device = DeviceModel::qubits_line(2);
        let num_slices = 40;
        // Evolve the XX coupling for a π/4 "area" to create entanglement.
        let t_total = PI / (4.0 * COUPLING_MAX);
        let dt = t_total / num_slices as f64;
        let mut pulse = PulseSequence::zeros(device.num_controls(), num_slices, dt);
        let coupling_index = device.num_controls() - 1;
        for t in 0..num_slices {
            pulse.set_amplitude(coupling_index, t, COUPLING_MAX);
        }
        let u = final_unitary(&device, &pulse);
        assert!(u.is_unitary(1e-9));
        // The evolution must differ from any tensor product of single-qubit identities;
        // check it moves |00> into a superposition involving |11>.
        assert!(u[(3, 0)].abs() > 0.5);
    }

    #[test]
    #[should_panic(expected = "waveforms")]
    fn mismatched_pulse_is_rejected() {
        let device = DeviceModel::qubits_line(2);
        let pulse = PulseSequence::zeros(3, 5, 0.5);
        propagate(&device, &pulse);
    }
}
