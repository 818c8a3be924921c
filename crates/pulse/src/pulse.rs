//! Piecewise-constant control pulses.

use crate::DeviceModel;
use serde::{Deserialize, Serialize};

/// A piecewise-constant control pulse for every control knob of a device.
///
/// `amplitudes[k][t]` is the amplitude (rad/ns) of control `k` during time slice `t`;
/// every slice lasts [`PulseSequence::dt_ns`] nanoseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PulseSequence {
    dt_ns: f64,
    amplitudes: Vec<Vec<f64>>,
}

impl PulseSequence {
    /// Creates an all-zero pulse with `num_controls` waveforms of `num_slices` samples.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ns <= 0` or `num_slices == 0`.
    pub fn zeros(num_controls: usize, num_slices: usize, dt_ns: f64) -> Self {
        assert!(dt_ns > 0.0, "sample period must be positive");
        assert!(num_slices > 0, "a pulse needs at least one time slice");
        PulseSequence {
            dt_ns,
            amplitudes: vec![vec![0.0; num_slices]; num_controls],
        }
    }

    /// Creates a deterministic low-amplitude initial guess for GRAPE.
    ///
    /// Each control starts as a small sinusoid scaled to a fraction of its hardware
    /// limit; different controls get different phases so the optimizer does not start
    /// from a symmetric saddle point. The construction is deterministic so results are
    /// reproducible, with `seed` selecting a different phase offset family.
    pub fn seeded_guess(device: &DeviceModel, num_slices: usize, dt_ns: f64, seed: u64) -> Self {
        let controls = device.control_hamiltonians();
        let mut pulse = PulseSequence::zeros(controls.len(), num_slices, dt_ns);
        for (k, control) in controls.iter().enumerate() {
            let phase = 0.7 * k as f64 + 0.13 * seed as f64;
            let scale = 0.3 * control.max_amplitude;
            for t in 0..num_slices {
                let x = t as f64 / num_slices as f64;
                pulse.amplitudes[k][t] = scale * (2.0 * std::f64::consts::PI * x + phase).sin();
            }
        }
        pulse
    }

    /// Sample period in nanoseconds.
    pub fn dt_ns(&self) -> f64 {
        self.dt_ns
    }

    /// Number of control waveforms.
    pub fn num_controls(&self) -> usize {
        self.amplitudes.len()
    }

    /// Number of time slices per waveform.
    pub fn num_slices(&self) -> usize {
        self.amplitudes.first().map(Vec::len).unwrap_or(0)
    }

    /// Total pulse duration in nanoseconds.
    pub fn duration_ns(&self) -> f64 {
        self.dt_ns * self.num_slices() as f64
    }

    /// Amplitude of control `k` at slice `t`.
    pub fn amplitude(&self, k: usize, t: usize) -> f64 {
        self.amplitudes[k][t]
    }

    /// Sets the amplitude of control `k` at slice `t`.
    pub fn set_amplitude(&mut self, k: usize, t: usize, value: f64) {
        self.amplitudes[k][t] = value;
    }

    /// The waveform of control `k`.
    pub fn waveform(&self, k: usize) -> &[f64] {
        &self.amplitudes[k]
    }

    /// Mutable access to all waveforms.
    pub fn waveforms_mut(&mut self) -> &mut Vec<Vec<f64>> {
        &mut self.amplitudes
    }

    /// Clamps every waveform to the hardware amplitude limits of `device`.
    ///
    /// # Panics
    ///
    /// Panics if the number of waveforms does not match the device's control count.
    pub fn clamp_to_device(&mut self, device: &DeviceModel) {
        let controls = device.control_hamiltonians();
        assert_eq!(
            controls.len(),
            self.num_controls(),
            "pulse was built for a different device"
        );
        for (k, control) in controls.iter().enumerate() {
            for value in &mut self.amplitudes[k] {
                *value = value.clamp(-control.max_amplitude, control.max_amplitude);
            }
        }
    }

    /// Resamples every waveform onto a new slice grid by midpoint linear
    /// interpolation, preserving the pulse shape across a duration change. This
    /// is how the duration binary search warm-starts each probe from the nearest
    /// converged one. Resampling onto the same `(num_slices, dt_ns)` grid is an
    /// exact copy.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ns <= 0` or `num_slices == 0`.
    pub fn resampled(&self, num_slices: usize, dt_ns: f64) -> Self {
        let mut out = PulseSequence::zeros(self.num_controls(), num_slices, dt_ns);
        let src_n = self.num_slices();
        if num_slices == src_n {
            for (dst, src) in out.amplitudes.iter_mut().zip(self.amplitudes.iter()) {
                dst.copy_from_slice(src);
            }
            return out;
        }
        for (dst, src) in out.amplitudes.iter_mut().zip(self.amplitudes.iter()) {
            for (t, slot) in dst.iter_mut().enumerate() {
                // Midpoint of destination slice t in normalized time, mapped onto
                // fractional source-slice coordinates.
                let x = (t as f64 + 0.5) / num_slices as f64;
                let pos = (x * src_n as f64 - 0.5).clamp(0.0, (src_n - 1) as f64);
                let i0 = pos.floor() as usize;
                let i1 = (i0 + 1).min(src_n - 1);
                let frac = pos - i0 as f64;
                *slot = src[i0] * (1.0 - frac) + src[i1] * frac;
            }
        }
        out
    }

    /// Largest absolute amplitude across all waveforms (rad/ns).
    pub fn max_abs_amplitude(&self) -> f64 {
        self.amplitudes
            .iter()
            .flat_map(|w| w.iter())
            .map(|v| v.abs())
            .fold(0.0, f64::max)
    }

    /// Total pulse energy `Σ_k Σ_t u_k(t)² · Δt`, used by the amplitude regularizer.
    pub fn energy(&self) -> f64 {
        self.amplitudes
            .iter()
            .flat_map(|w| w.iter())
            .map(|v| v * v * self.dt_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::CHARGE_DRIVE_MAX;

    #[test]
    fn zero_pulse_shape() {
        let p = PulseSequence::zeros(3, 10, 0.5);
        assert_eq!(p.num_controls(), 3);
        assert_eq!(p.num_slices(), 10);
        assert!((p.duration_ns() - 5.0).abs() < 1e-12);
        assert_eq!(p.max_abs_amplitude(), 0.0);
        assert_eq!(p.energy(), 0.0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn seeded_guess_respects_amplitude_limits() {
        let device = DeviceModel::qubits_line(2);
        let p = PulseSequence::seeded_guess(&device, 20, 0.5, 1);
        assert_eq!(p.num_controls(), device.num_controls());
        let controls = device.control_hamiltonians();
        for k in 0..p.num_controls() {
            for t in 0..p.num_slices() {
                assert!(p.amplitude(k, t).abs() <= controls[k].max_amplitude);
            }
        }
    }

    #[test]
    fn seeded_guess_is_deterministic_and_seed_dependent() {
        let device = DeviceModel::qubits_line(1);
        let a = PulseSequence::seeded_guess(&device, 10, 0.5, 3);
        let b = PulseSequence::seeded_guess(&device, 10, 0.5, 3);
        let c = PulseSequence::seeded_guess(&device, 10, 0.5, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clamping_limits_amplitudes() {
        let device = DeviceModel::qubits_line(1);
        let mut p = PulseSequence::zeros(device.num_controls(), 5, 0.5);
        p.set_amplitude(0, 2, 100.0);
        p.clamp_to_device(&device);
        assert!((p.amplitude(0, 2) - CHARGE_DRIVE_MAX).abs() < 1e-12);
    }

    #[test]
    fn energy_accumulates() {
        let mut p = PulseSequence::zeros(1, 4, 0.5);
        p.set_amplitude(0, 0, 2.0);
        p.set_amplitude(0, 1, -2.0);
        assert!((p.energy() - 2.0 * (4.0 * 0.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one time slice")]
    fn empty_pulse_is_rejected() {
        PulseSequence::zeros(1, 0, 0.5);
    }

    #[test]
    fn resampling_onto_the_same_grid_is_an_exact_copy() {
        let device = DeviceModel::qubits_line(1);
        let p = PulseSequence::seeded_guess(&device, 10, 0.5, 3);
        let q = p.resampled(10, 0.5);
        assert_eq!(p, q);
    }

    #[test]
    fn resampling_interpolates_between_slices() {
        let mut p = PulseSequence::zeros(1, 2, 1.0);
        p.set_amplitude(0, 0, 0.0);
        p.set_amplitude(0, 1, 1.0);
        let q = p.resampled(4, 0.5);
        assert_eq!(q.num_slices(), 4);
        // The ramp stays monotone and bounded by the source extremes.
        let w = q.waveform(0);
        for pair in w.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-12);
        }
        assert!(w.iter().all(|&v| (-1e-12..=1.0 + 1e-12).contains(&v)));
    }

    #[test]
    fn resampling_a_constant_pulse_is_lossless() {
        let mut p = PulseSequence::zeros(2, 7, 0.5);
        for t in 0..7 {
            p.set_amplitude(0, t, 0.4);
            p.set_amplitude(1, t, -0.2);
        }
        for &n in &[3usize, 7, 12, 24] {
            let q = p.resampled(n, 0.25);
            for t in 0..n {
                assert!((q.amplitude(0, t) - 0.4).abs() < 1e-12);
                assert!((q.amplitude(1, t) + 0.2).abs() < 1e-12);
            }
        }
    }
}
