//! The GRAPE gradient-descent loop.
//!
//! GRAPE treats the device as a black box mapping time-discretized control pulses to
//! the unitary they realize, and performs gradient descent over pulse space to reach a
//! target unitary (Section 5 of the paper). Gradients are computed *exactly* by
//! diagonalizing each slice Hamiltonian and applying the Daleckii–Krein divided-
//! difference formula for the derivative of the matrix exponential, mirroring the
//! automatic-differentiation exactness of the TensorFlow implementation the paper uses.
//! The optimizer is ADAM with exponential learning-rate decay — the two hyperparameters
//! that flexible partial compilation tunes per subcircuit (Section 7.2). Its step
//! ([`Adam`]) is one loop, one control at a time over the control's contiguous
//! waveform and moment rows; the regularizers' gradients (energy, smoothness,
//! envelope) are taken at the pulse as it stood before the step, so the step is
//! along the gradient of the cost the iteration records ([`recorded_cost`]).

use crate::lanes;
use crate::workspace::GrapeWorkspace;
use crate::{DeviceModel, PulseError, PulseSequence};
use serde::{Deserialize, Serialize};
use vqc_linalg::Matrix;

/// Hyperparameters and budget for one GRAPE run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrapeOptions {
    /// Sample period of the control waveforms, in nanoseconds. The paper's standard
    /// setting is 0.05 ns (20 GSa/s); the "realistic" setting of Section 8.3 is 1 ns.
    pub dt_ns: f64,
    /// Maximum number of gradient-descent iterations.
    pub max_iterations: usize,
    /// Target trace infidelity; the paper uses 1e-3 (99.9 % fidelity).
    pub target_infidelity: f64,
    /// ADAM learning rate (the primary tuned hyperparameter).
    pub learning_rate: f64,
    /// Multiplicative learning-rate decay applied every iteration (the second tuned
    /// hyperparameter).
    pub decay_rate: f64,
    /// Weight of the pulse-energy (amplitude) regularizer.
    pub amplitude_penalty: f64,
    /// Weight of the slice-to-slice smoothness regularizer.
    pub smoothness_penalty: f64,
    /// Weight of the Gaussian-envelope regularizer that forces pulses to start and end
    /// near zero (used by the "realistic" settings).
    pub envelope_penalty: f64,
    /// Seed selecting the deterministic initial guess.
    pub seed: u64,
}

impl Default for GrapeOptions {
    fn default() -> Self {
        GrapeOptions::standard()
    }
}

impl GrapeOptions {
    /// Balanced settings used by the test-suite and the `fast` benchmark effort level:
    /// coarse 0.5 ns samples and a 1 % infidelity target.
    pub fn fast() -> Self {
        GrapeOptions {
            dt_ns: 0.5,
            max_iterations: 300,
            target_infidelity: 1e-2,
            learning_rate: 0.1,
            decay_rate: 0.999,
            amplitude_penalty: 0.0,
            smoothness_penalty: 0.0,
            envelope_penalty: 0.0,
            seed: 1,
        }
    }

    /// Standard settings: 0.25 ns samples and a 0.1 % infidelity target.
    pub fn standard() -> Self {
        GrapeOptions {
            dt_ns: 0.25,
            max_iterations: 1000,
            target_infidelity: 1e-3,
            learning_rate: 0.08,
            decay_rate: 0.9995,
            amplitude_penalty: 0.0,
            smoothness_penalty: 0.0,
            envelope_penalty: 0.0,
            seed: 1,
        }
    }

    /// The paper's settings: 0.05 ns samples (20 GSa/s) and 99.9 % target fidelity.
    /// Expect long compile times — this is exactly the latency problem partial
    /// compilation addresses.
    pub fn paper() -> Self {
        GrapeOptions {
            dt_ns: 0.05,
            max_iterations: 4000,
            target_infidelity: 1e-3,
            learning_rate: 0.05,
            decay_rate: 0.9998,
            amplitude_penalty: 0.0,
            smoothness_penalty: 0.0,
            envelope_penalty: 0.0,
            seed: 1,
        }
    }

    /// Returns a copy with the two tuned hyperparameters replaced. This is the knob
    /// flexible partial compilation turns per subcircuit.
    pub fn with_hyperparameters(&self, learning_rate: f64, decay_rate: f64) -> Self {
        GrapeOptions {
            learning_rate,
            decay_rate,
            ..self.clone()
        }
    }
}

/// The outcome of one GRAPE run at a fixed pulse duration.
#[derive(Debug, Clone)]
pub struct GrapeResult {
    /// The optimized pulse.
    pub pulse: PulseSequence,
    /// Trace infidelity of the final pulse against the target.
    pub infidelity: f64,
    /// Number of gradient iterations performed.
    pub iterations: usize,
    /// Whether the target infidelity was reached within the iteration budget.
    pub converged: bool,
    /// Total cost (infidelity + regularizers) after every iteration.
    pub cost_history: Vec<f64>,
}

/// Number of gradient-descent parameters (controls × slices) in a run, a proxy for the
/// per-iteration compilation cost.
pub fn parameter_count(device: &DeviceModel, num_slices: usize) -> usize {
    device.num_controls() * num_slices
}

/// Runs GRAPE for a target unitary at a fixed total pulse duration.
///
/// The target is a `2^n x 2^n` unitary on the device's qubit subspace; for qutrit
/// devices it is embedded as the identity on leakage levels, so any population that
/// leaks out of the computational subspace shows up as infidelity.
///
/// # Panics
///
/// Panics if the target dimension does not match the device or the duration is shorter
/// than one sample period. Use [`try_optimize_pulse`] for a fallible variant.
pub fn optimize_pulse(
    target: &Matrix,
    device: &DeviceModel,
    duration_ns: f64,
    options: &GrapeOptions,
) -> GrapeResult {
    // audit:allow(unwrap): documented panicking variant; try_optimize_pulse is the fallible API
    try_optimize_pulse(target, device, duration_ns, options).expect("invalid GRAPE inputs")
}

/// Fallible variant of [`optimize_pulse`].
///
/// # Errors
///
/// * [`PulseError::DimensionMismatch`] if the target is not a qubit-subspace unitary of
///   the device.
/// * [`PulseError::DurationTooShort`] if `duration_ns < dt_ns`.
pub fn try_optimize_pulse(
    target: &Matrix,
    device: &DeviceModel,
    duration_ns: f64,
    options: &GrapeOptions,
) -> Result<GrapeResult, PulseError> {
    try_optimize_pulse_with(target, device, duration_ns, options, None)
}

/// [`try_optimize_pulse`] with an optional warm start: a previously optimized
/// pulse (for the same device) to resample onto this run's slice grid as the
/// initial guess, instead of the seeded sine guess. Ignored if its control count
/// does not match the device. The duration binary search uses this to start each
/// probe from the nearest converged one.
///
/// # Errors
///
/// Same as [`try_optimize_pulse`].
pub fn try_optimize_pulse_with(
    target: &Matrix,
    device: &DeviceModel,
    duration_ns: f64,
    options: &GrapeOptions,
    warm_start: Option<&PulseSequence>,
) -> Result<GrapeResult, PulseError> {
    if target.shape() != (device.qubit_dim(), device.qubit_dim()) {
        return Err(PulseError::DimensionMismatch {
            target_dim: target.rows(),
            device_dim: device.qubit_dim(),
        });
    }
    let num_slices = (duration_ns / options.dt_ns).round() as usize;
    if num_slices == 0 {
        return Err(PulseError::DurationTooShort {
            duration_ns,
            dt_ns: options.dt_ns,
        });
    }

    let dt = options.dt_ns;
    // This thread is busy with GRAPE until the run returns: what the lane
    // helper's claim rule counts as an occupied CPU.
    let _in_flight = lanes::enter_run();

    // One build of the device's operators serves the amplitude limits and the
    // workspace.
    let controls = device.control_hamiltonians();
    let amplitude_limits: Vec<f64> = controls
        .iter()
        .map(|control| control.max_amplitude)
        .collect();
    let mut pulse = match warm_start {
        Some(warm) if warm.num_controls() == controls.len() => warm.resampled(num_slices, dt),
        _ => PulseSequence::seeded_guess(device, num_slices, dt, options.seed),
    };
    // What `clamp_to_device` does, without building the operators again.
    for (waveform, &limit) in pulse.waveforms_mut().iter_mut().zip(&amplitude_limits) {
        for value in waveform {
            *value = value.clamp(-limit, limit);
        }
    }

    // All per-iteration buffers live in the workspace, allocated once here; the
    // iteration loop below performs no heap allocation.
    let mut workspace = GrapeWorkspace::with_controls(device, &controls, num_slices);
    workspace.set_target(device, target);
    let mut adam = Adam::new(amplitude_limits.len() * num_slices);

    let mut cost_history = Vec::with_capacity(options.max_iterations);
    let mut best_infidelity = f64::INFINITY;
    // Best-so-far amplitudes are *copied* into this preallocated pulse rather than
    // cloning the whole sequence on every improving iteration.
    let mut best_pulse = pulse.clone();
    let mut iterations = 0;
    let mut learning_rate = options.learning_rate;

    for iter in 0..options.max_iterations {
        iterations = iter + 1;

        let infidelity = workspace.fidelity_gradient(&pulse);

        if infidelity < best_infidelity {
            best_infidelity = infidelity;
            for (k, waveform) in best_pulse.waveforms_mut().iter_mut().enumerate() {
                waveform.copy_from_slice(pulse.waveform(k));
            }
        }

        cost_history.push(recorded_cost(options, infidelity, &pulse));

        if infidelity <= options.target_infidelity {
            return Ok(GrapeResult {
                pulse: best_pulse,
                infidelity: best_infidelity,
                iterations,
                converged: true,
                cost_history,
            });
        }

        adam.step(
            &mut pulse,
            workspace.gradient(),
            options,
            learning_rate,
            &amplitude_limits,
        );
        learning_rate *= options.decay_rate;
    }

    Ok(GrapeResult {
        pulse: best_pulse,
        infidelity: best_infidelity,
        iterations,
        converged: best_infidelity <= options.target_infidelity,
        cost_history,
    })
}

/// The cost an iteration records: the infidelity plus the three regularizers
/// of `pulse` — energy, slice-to-slice smoothness and the Gaussian envelope —
/// each times its penalty. [`Adam::step`] descends its gradient.
fn recorded_cost(options: &GrapeOptions, infidelity: f64, pulse: &PulseSequence) -> f64 {
    let mut cost = infidelity;
    if options.amplitude_penalty != 0.0 {
        cost += options.amplitude_penalty * pulse.energy();
    }
    let num_slices = pulse.num_slices();
    if options.smoothness_penalty > 0.0 || options.envelope_penalty > 0.0 {
        for k in 0..pulse.num_controls() {
            let w = pulse.waveform(k);
            if options.smoothness_penalty > 0.0 {
                for t in 1..num_slices {
                    let d = w[t] - w[t - 1];
                    cost += options.smoothness_penalty * d * d;
                }
            }
            if options.envelope_penalty > 0.0 {
                for (t, &value) in w.iter().enumerate() {
                    let x = (t as f64 + 0.5) / num_slices as f64 - 0.5;
                    let envelope = (-x * x / 0.08).exp();
                    cost += options.envelope_penalty * (1.0 - envelope) * value * value;
                }
            }
        }
    }
    cost
}

/// ADAM's decay rates and denominator guard.
const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPSILON: f64 = 1e-8;

/// ADAM's moment estimates, one per amplitude, control-major like the
/// pulse's waveforms: control `k`'s slices are the contiguous run
/// `k * num_slices..`.
struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    /// Steps taken, for the bias corrections.
    steps: i32,
}

impl Adam {
    fn new(amplitudes: usize) -> Self {
        Adam {
            m: vec![0.0; amplitudes],
            v: vec![0.0; amplitudes],
            steps: 0,
        }
    }

    /// Moves every amplitude of `pulse` one step down the gradient of
    /// [`recorded_cost`] at `pulse` — the infidelity's, slice-major as
    /// [`GrapeWorkspace::gradient`] holds it, plus the regularizers', all
    /// taken at the pulse as it stood before the step — and clamps it to its
    /// control's hardware limit. One control at a time, over its contiguous
    /// waveform and moment rows; walking the slices upward, the one
    /// neighbour already moved, `t − 1`, is read as it was before its move.
    fn step(
        &mut self,
        pulse: &mut PulseSequence,
        fidelity_gradient: &[f64],
        options: &GrapeOptions,
        learning_rate: f64,
        limits: &[f64],
    ) {
        self.steps += 1;
        // The bias corrections depend on the step only.
        let bias1 = 1.0 - BETA1.powi(self.steps);
        let bias2 = 1.0 - BETA2.powi(self.steps);
        let (num_controls, num_slices, dt) = (limits.len(), pulse.num_slices(), options.dt_ns);
        let moments = self
            .m
            .chunks_exact_mut(num_slices)
            .zip(self.v.chunks_exact_mut(num_slices));
        let controls = pulse.waveforms_mut().iter_mut().zip(moments).zip(limits);
        for (k, ((waveform, (m, v)), &limit)) in controls.enumerate() {
            let mut before = 0.0;
            for t in 0..num_slices {
                let u_kt = waveform[t];
                let mut grad = fidelity_gradient[t * num_controls + k];
                grad += 2.0 * options.amplitude_penalty * u_kt * dt;
                if options.smoothness_penalty > 0.0 {
                    if t > 0 {
                        grad += 2.0 * options.smoothness_penalty * (u_kt - before);
                    }
                    if t + 1 < num_slices {
                        grad -= 2.0 * options.smoothness_penalty * (waveform[t + 1] - u_kt);
                    }
                }
                if options.envelope_penalty > 0.0 {
                    let x = (t as f64 + 0.5) / num_slices as f64 - 0.5;
                    let envelope = (-x * x / 0.08).exp();
                    grad += 2.0 * options.envelope_penalty * (1.0 - envelope) * u_kt;
                }

                m[t] = BETA1 * m[t] + (1.0 - BETA1) * grad;
                v[t] = BETA2 * v[t] + (1.0 - BETA2) * grad * grad;
                let m_hat = m[t] / bias1;
                let v_hat = v[t] / bias2;
                let step = learning_rate * m_hat / (v_hat.sqrt() + EPSILON);
                before = u_kt;
                // Clamping inline keeps the hardware amplitude limits enforced
                // without the per-iteration `clamp_to_device` pass (which
                // rebuilt the control Hamiltonians — an allocation — every
                // call).
                waveform[t] = (u_kt - step).clamp(-limit, limit);
            }
        }
    }
}

/// Computes the trace infidelity of a pulse against a qubit-subspace target, without
/// optimizing. Useful for verifying stored pulses.
pub fn evaluate_pulse(target: &Matrix, device: &DeviceModel, pulse: &PulseSequence) -> f64 {
    let padded_dagger = device.pad_qubit_unitary(target).dagger();
    let realized = crate::propagate::final_unitary(device, pulse);
    let d = device.qubit_dim() as f64;
    let overlap = padded_dagger.matmul(&realized).trace() / d;
    1.0 - overlap.norm_sqr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;
    use vqc_sim::gates;

    #[test]
    fn finds_x_gate_pulse_on_one_qubit() {
        let device = DeviceModel::qubits_line(1);
        let target = gates::x();
        let result = optimize_pulse(&target, &device, 3.0, &GrapeOptions::fast());
        assert!(
            result.infidelity < 1e-2,
            "infidelity {} after {} iterations",
            result.infidelity,
            result.iterations
        );
        assert!(result.converged);
    }

    #[test]
    fn finds_hadamard_pulse_on_one_qubit() {
        let device = DeviceModel::qubits_line(1);
        let target = gates::h();
        let result = optimize_pulse(&target, &device, 2.0, &GrapeOptions::fast());
        assert!(result.infidelity < 1e-2, "infidelity {}", result.infidelity);
    }

    #[test]
    fn z_rotations_need_very_little_time() {
        // The flux drive is 15x stronger, so an Rz(π/2) should converge even at 0.5 ns.
        let device = DeviceModel::qubits_line(1);
        let target = gates::rz(PI / 2.0);
        let result = optimize_pulse(&target, &device, 0.5, &GrapeOptions::fast());
        assert!(result.infidelity < 1e-2, "infidelity {}", result.infidelity);
    }

    #[test]
    fn finds_two_qubit_entangling_pulse() {
        // A CZ-equivalent on two coupled qubits. 12 ns is comfortably above the
        // interaction-limited minimum (~5 ns) for this device.
        let device = DeviceModel::qubits_line(2);
        let target = gates::cz();
        let mut options = GrapeOptions::fast();
        options.max_iterations = 400;
        options.target_infidelity = 3e-2;
        let result = optimize_pulse(&target, &device, 12.0, &options);
        assert!(result.infidelity < 0.05, "infidelity {}", result.infidelity);
    }

    #[test]
    fn impossible_duration_does_not_converge() {
        // An X gate needs ~2.5 ns at the hardware amplitude limit; 0.5 ns cannot work.
        let device = DeviceModel::qubits_line(1);
        let target = gates::x();
        let result = optimize_pulse(&target, &device, 0.5, &GrapeOptions::fast());
        assert!(!result.converged);
        assert!(result.infidelity > 0.1);
    }

    #[test]
    fn evaluate_pulse_matches_reported_infidelity() {
        let device = DeviceModel::qubits_line(1);
        let target = gates::h();
        let result = optimize_pulse(&target, &device, 2.0, &GrapeOptions::fast());
        let evaluated = evaluate_pulse(&target, &device, &result.pulse);
        assert!((evaluated - result.infidelity).abs() < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        // Validate the exact analytic gradient against a numerical derivative on
        // the reused GrapeWorkspace the optimizer iterates on, once per storage
        // shape and eigensolver: 2q, 3q and 4q qubit blocks on the stack
        // (N = 4, 8, 16) and a qutrit on the heap (dim 3) — each on a generic
        // pulse and on one whose slice 3 is all zero, where the Hamiltonian is
        // the zero matrix and every divided difference is the degenerate limit.
        let cases = [
            (DeviceModel::qubits_line(2), gates::cx()),
            (DeviceModel::qubits_line(3), gates::cx().kron(&gates::h())),
            (DeviceModel::qubits_line(4), gates::cx().kron(&gates::cx())),
            (DeviceModel::qubits_line(1).with_qutrit_levels(), gates::h()),
        ];
        for ((device, target), idle_slice) in
            cases.iter().flat_map(|case| [(case, false), (case, true)])
        {
            let dim = device.dim();
            let mut pulse = PulseSequence::seeded_guess(device, 6, 0.5, 3);
            if idle_slice {
                for k in 0..device.num_controls() {
                    pulse.set_amplitude(k, 3, 0.0);
                }
            }
            let mut workspace = GrapeWorkspace::new(device, pulse.num_slices());
            workspace.set_target(device, target);
            workspace.fidelity_gradient(&pulse);
            let analytic = workspace.gradient().to_vec();
            let at = |k: usize, t: usize| t * device.num_controls() + k;

            let eps = 1e-6;
            let last = device.num_controls() - 1;
            for &(k, t) in &[(0usize, 2usize), (last / 2, 0), (last, 5), (1, 3)] {
                let mut plus = pulse.clone();
                plus.set_amplitude(k, t, plus.amplitude(k, t) + eps);
                let mut minus = pulse.clone();
                minus.set_amplitude(k, t, minus.amplitude(k, t) - eps);
                // Drive the probes through the same reused workspace so the test also
                // catches state leaking between fidelity_gradient calls.
                let f_plus = workspace.fidelity_gradient(&plus);
                let f_minus = workspace.fidelity_gradient(&minus);
                let numeric = (f_plus - f_minus) / (2.0 * eps);
                let reference = numeric.abs().max(1e-6);
                assert!(
                    (analytic[at(k, t)] - numeric).abs() / reference < 1e-3,
                    "dim {dim} control {k} slice {t} (idle slice: {idle_slice}): \
                     analytic {} vs numeric {numeric}",
                    analytic[at(k, t)]
                );
                workspace.fidelity_gradient(&pulse);
                assert!(
                    (workspace.gradient()[at(k, t)] - analytic[at(k, t)]).abs() < 1e-12,
                    "dim {dim}: re-evaluating the pulse after the probes must reproduce the gradient"
                );
            }
        }
    }

    #[test]
    fn penalty_gradients_are_taken_at_the_pre_step_pulse() {
        // Every regularizer on, and a step long enough to move each slice
        // well past what finite differences resolve: a gradient that read a
        // neighbour after the step had moved it would be off by
        // 2 · smoothness · (that move).
        let device = DeviceModel::qubits_line(1);
        let options = GrapeOptions {
            learning_rate: 0.2,
            amplitude_penalty: 0.05,
            smoothness_penalty: 0.5,
            envelope_penalty: 0.3,
            ..GrapeOptions::fast()
        };
        let slices = 8;
        let pulse = PulseSequence::seeded_guess(&device, slices, options.dt_ns, 3);
        let mut workspace = GrapeWorkspace::new(&device, slices);
        workspace.set_target(&device, &gates::h());
        let limits: Vec<f64> = device
            .control_hamiltonians()
            .iter()
            .map(|control| control.max_amplitude)
            .collect();

        // The gradient the first step receives is its first moment over
        // (1 − β1): the moments start at zero.
        workspace.fidelity_gradient(&pulse);
        let (mut stepped, mut adam) = (pulse.clone(), Adam::new(limits.len() * slices));
        let rate = options.learning_rate;
        adam.step(&mut stepped, workspace.gradient(), &options, rate, &limits);

        let mut cost = |pulse: &PulseSequence| {
            recorded_cost(&options, workspace.fidelity_gradient(pulse), pulse)
        };
        let eps = 1e-6;
        for k in 0..limits.len() {
            for t in 0..slices {
                let moved = (stepped.amplitude(k, t) - pulse.amplitude(k, t)).abs();
                assert!(moved > 1e-3, "control {k} slice {t} moved only {moved:e}");
                let received = adam.m[k * slices + t] / (1.0 - BETA1);
                let (mut plus, mut minus) = (pulse.clone(), pulse.clone());
                plus.set_amplitude(k, t, pulse.amplitude(k, t) + eps);
                minus.set_amplitude(k, t, pulse.amplitude(k, t) - eps);
                let numeric = (cost(&plus) - cost(&minus)) / (2.0 * eps);
                assert!(
                    (received - numeric).abs() < 1e-6 * numeric.abs().max(1.0),
                    "control {k} slice {t}: the step received {received} where the \
                     recorded cost's gradient is {numeric}"
                );
            }
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let device = DeviceModel::qubits_line(2);
        let target = gates::x(); // 2x2 target for a 4-dimensional device
        assert!(matches!(
            try_optimize_pulse(&target, &device, 3.0, &GrapeOptions::fast()),
            Err(PulseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn zero_duration_is_rejected() {
        let device = DeviceModel::qubits_line(1);
        let target = gates::x();
        assert!(matches!(
            try_optimize_pulse(&target, &device, 0.05, &GrapeOptions::fast()),
            Err(PulseError::DurationTooShort { .. })
        ));
    }

    #[test]
    fn hyperparameter_override_changes_only_the_two_knobs() {
        let base = GrapeOptions::fast();
        let tuned = base.with_hyperparameters(0.3, 0.95);
        assert_eq!(tuned.learning_rate, 0.3);
        assert_eq!(tuned.decay_rate, 0.95);
        assert_eq!(tuned.dt_ns, base.dt_ns);
        assert_eq!(tuned.max_iterations, base.max_iterations);
    }

    #[test]
    fn cost_history_tracks_iterations() {
        let device = DeviceModel::qubits_line(1);
        let target = gates::rz(0.3);
        let result = optimize_pulse(&target, &device, 0.5, &GrapeOptions::fast());
        assert_eq!(result.cost_history.len(), result.iterations);
        assert!(!result.cost_history.is_empty());
    }

    #[test]
    fn qutrit_device_still_reaches_qubit_targets() {
        let device = DeviceModel::qubits_line(1).with_qutrit_levels();
        let mut options = GrapeOptions::fast();
        options.target_infidelity = 3e-2;
        let result = optimize_pulse(&gates::rz(1.0), &device, 1.0, &options);
        assert!(result.infidelity < 5e-2, "infidelity {}", result.infidelity);
    }
}
