//! The "more realistic" GRAPE settings of Section 8.3.
//!
//! The paper re-ran two benchmarks with three changes to demonstrate that its speedups
//! survive realistic pulse constraints: (1) control waveforms sampled at 1 GSa/s instead
//! of 20 GSa/s, (2) leakage into the third transmon level, (3) aggressive pulse
//! regularization so pulses follow a smooth Gaussian envelope.

use crate::grape::GrapeOptions;
use crate::DeviceModel;
use serde::{Deserialize, Serialize};

/// Which pulse-realism assumptions to apply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RealisticSettings {
    /// Waveform sample rate in giga-samples per second (paper: 20 standard, 1 realistic).
    pub sample_rate_gsa: f64,
    /// Whether to simulate the third transmon level (qutrit leakage).
    pub qutrit_leakage: bool,
    /// Whether to apply aggressive smoothness/envelope regularization.
    pub regularization: bool,
}

impl RealisticSettings {
    /// The paper's standard (idealized) settings: 20 GSa/s, binary qubits, no
    /// regularization.
    pub fn standard() -> Self {
        RealisticSettings {
            sample_rate_gsa: 20.0,
            qutrit_leakage: false,
            regularization: false,
        }
    }

    /// The "more realistic" settings of Section 8.3: 1 GSa/s, qutrit leakage, and
    /// aggressive regularization.
    pub fn realistic() -> Self {
        RealisticSettings {
            sample_rate_gsa: 1.0,
            qutrit_leakage: true,
            regularization: true,
        }
    }

    /// Sample period in nanoseconds implied by the sample rate.
    pub fn dt_ns(&self) -> f64 {
        1.0 / self.sample_rate_gsa
    }

    /// Applies these settings to a set of GRAPE options (sample period and
    /// regularization weights).
    pub fn apply_to_options(&self, base: &GrapeOptions) -> GrapeOptions {
        let mut options = base.clone();
        options.dt_ns = self.dt_ns().max(base.dt_ns);
        if self.regularization {
            options.amplitude_penalty = 1e-4;
            options.smoothness_penalty = 5e-3;
            options.envelope_penalty = 5e-3;
        }
        options
    }

    /// Applies these settings to a device model (enabling the leakage level).
    pub fn apply_to_device(&self, device: &DeviceModel) -> DeviceModel {
        if self.qutrit_leakage {
            device.clone().with_qutrit_levels()
        } else {
            device.clone()
        }
    }
}

impl Default for RealisticSettings {
    fn default() -> Self {
        RealisticSettings::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::TransmonLevels;
    use crate::grape::try_optimize_pulse;
    use vqc_sim::gates;

    #[test]
    fn presets_match_section_8_3() {
        let standard = RealisticSettings::standard();
        assert_eq!(standard.sample_rate_gsa, 20.0);
        assert!(!standard.qutrit_leakage);
        assert!((standard.dt_ns() - 0.05).abs() < 1e-12);

        let realistic = RealisticSettings::realistic();
        assert_eq!(realistic.sample_rate_gsa, 1.0);
        assert!(realistic.qutrit_leakage);
        assert!((realistic.dt_ns() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn realistic_options_gain_regularizers_and_coarser_sampling() {
        let base = GrapeOptions::fast();
        let options = RealisticSettings::realistic().apply_to_options(&base);
        assert!(options.dt_ns >= 1.0);
        assert!(options.amplitude_penalty > 0.0);
        assert!(options.smoothness_penalty > 0.0);
        assert!(options.envelope_penalty > 0.0);

        let unchanged = RealisticSettings::standard().apply_to_options(&base);
        assert_eq!(unchanged.amplitude_penalty, 0.0);
    }

    #[test]
    fn realistic_device_has_three_levels() {
        let device = DeviceModel::qubits_line(1);
        let upgraded = RealisticSettings::realistic().apply_to_device(&device);
        assert_eq!(upgraded.levels(), TransmonLevels::Qutrit);
        assert_eq!(upgraded.dim(), 3);
        let untouched = RealisticSettings::standard().apply_to_device(&device);
        assert_eq!(untouched.levels(), TransmonLevels::Qubit);
    }

    #[test]
    fn grape_still_converges_under_realistic_settings_for_z_rotations() {
        // Z rotations are driven by the strong flux control, so even 1 ns sampling with
        // a leakage level and regularization converges quickly.
        let settings = RealisticSettings::realistic();
        let device = settings.apply_to_device(&DeviceModel::qubits_line(1));
        let mut options = settings.apply_to_options(&GrapeOptions::fast());
        options.target_infidelity = 5e-2;
        let result = try_optimize_pulse(&gates::rz(1.2), &device, 2.0, &options)
            .expect("valid GRAPE inputs");
        assert!(result.infidelity < 0.1, "infidelity {}", result.infidelity);
    }
}
