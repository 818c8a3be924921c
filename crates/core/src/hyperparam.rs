//! Hyperparameter optimization for flexible partial compilation (Section 7.2).
//!
//! GRAPE's convergence speed depends strongly on the ADAM learning rate and its decay;
//! the paper observes (Figure 4) that a good configuration for a single-angle
//! subcircuit is robust to the *value* of its θ argument, so the configuration can be
//! tuned once per subcircuit in a pre-compute phase and reused at every variational
//! iteration. This module implements that tuning as a grid search scored by
//! iterations-to-convergence.

use serde::{Deserialize, Serialize};
use vqc_circuit::Circuit;
use vqc_pulse::grape::{try_optimize_pulse_with, GrapeOptions, GrapeResult};
use vqc_pulse::profile::{self, Phase};
use vqc_pulse::{DeviceModel, PulseError};
use vqc_sim::circuit_unitary;

/// The grid of hyperparameter candidates to evaluate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperparameterGrid {
    /// Candidate ADAM learning rates.
    pub learning_rates: Vec<f64>,
    /// Candidate learning-rate decay factors.
    pub decay_rates: Vec<f64>,
}

impl HyperparameterGrid {
    /// The default grid used by the benchmark harness.
    pub fn standard() -> Self {
        HyperparameterGrid {
            learning_rates: vec![0.02, 0.05, 0.1, 0.2, 0.3],
            decay_rates: vec![0.995, 0.999],
        }
    }

    /// A smaller grid for the `fast` effort level and the test-suite.
    pub fn fast() -> Self {
        HyperparameterGrid {
            learning_rates: vec![0.05, 0.15, 0.3],
            decay_rates: vec![0.999],
        }
    }

    /// Number of candidate configurations.
    pub fn len(&self) -> usize {
        self.learning_rates.len() * self.decay_rates.len()
    }

    /// Returns `true` if the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all `(learning_rate, decay_rate)` pairs.
    pub fn candidates(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.learning_rates
            .iter()
            .flat_map(move |&lr| self.decay_rates.iter().map(move |&d| (lr, d)))
    }
}

impl Default for HyperparameterGrid {
    fn default() -> Self {
        HyperparameterGrid::standard()
    }
}

/// The outcome of evaluating one hyperparameter candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperparamProbe {
    /// Learning rate evaluated.
    pub learning_rate: f64,
    /// Decay rate evaluated.
    pub decay_rate: f64,
    /// GRAPE iterations used (up to the budget).
    pub iterations: usize,
    /// Final infidelity reached.
    pub infidelity: f64,
    /// Whether the target infidelity was reached.
    pub converged: bool,
}

/// The result of tuning hyperparameters for one subcircuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningResult {
    /// The best learning rate found.
    pub learning_rate: f64,
    /// The best decay rate found.
    pub decay_rate: f64,
    /// GRAPE iterations a runtime compilation needs with the tuned configuration.
    pub runtime_iterations: usize,
    /// Whether the tuned configuration reached the target infidelity.
    pub converged: bool,
    /// Every candidate evaluated, for reporting (Figure 4 plots these curves).
    pub probes: Vec<HyperparamProbe>,
}

impl TuningResult {
    /// Total GRAPE iterations spent across all probes (the pre-compute latency).
    pub fn total_probe_iterations(&self) -> usize {
        self.probes.iter().map(|p| p.iterations).sum()
    }
}

/// Tunes the GRAPE hyperparameters for a bound subcircuit at a fixed pulse duration.
///
/// Candidates are ranked by convergence first, then by iterations-to-convergence, then
/// by final infidelity.
///
/// # Errors
///
/// Propagates [`PulseError`] for invalid inputs (e.g. a duration shorter than one
/// sample period).
pub fn tune_hyperparameters(
    bound_subcircuit: &Circuit,
    device: &DeviceModel,
    duration_ns: f64,
    base: &GrapeOptions,
    grid: &HyperparameterGrid,
) -> Result<TuningResult, PulseError> {
    tune_hyperparameters_keeping_winner(bound_subcircuit, device, duration_ns, base, grid)
        .map(|(tuning, _)| tuning)
}

/// [`tune_hyperparameters`], also returning the winning candidate's GRAPE run: a
/// cold run at `duration_ns` under the tuned options, which is exactly the opening
/// probe of the duration search that follows tuning.
pub(crate) fn tune_hyperparameters_keeping_winner(
    bound_subcircuit: &Circuit,
    device: &DeviceModel,
    duration_ns: f64,
    base: &GrapeOptions,
    grid: &HyperparameterGrid,
) -> Result<(TuningResult, GrapeResult), PulseError> {
    assert!(!grid.is_empty(), "hyperparameter grid must not be empty");
    let target = circuit_unitary(bound_subcircuit);
    let mut probes = Vec::with_capacity(grid.len());
    let mut runs = Vec::with_capacity(grid.len());
    for (learning_rate, decay_rate) in grid.candidates() {
        let options = base.with_hyperparameters(learning_rate, decay_rate);
        // Profiled as self time: the kernel phases inside the candidate run
        // charge themselves, the scope keeps only the grid's own overhead.
        let _candidate = profile::scope(Phase::HyperparamTuning);
        let result = try_optimize_pulse_with(&target, device, duration_ns, &options, None)?;
        probes.push(HyperparamProbe {
            learning_rate,
            decay_rate,
            iterations: result.iterations,
            infidelity: result.infidelity,
            converged: result.converged,
        });
        runs.push(result);
    }

    let winner = probes
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            (
                !a.converged,
                if a.converged {
                    a.iterations
                } else {
                    usize::MAX
                },
            )
                .partial_cmp(&(
                    !b.converged,
                    if b.converged {
                        b.iterations
                    } else {
                        usize::MAX
                    },
                ))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    a.infidelity
                        .partial_cmp(&b.infidelity)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        })
        // audit:allow(unwrap): the tuning grid is a non-empty compile-time constant
        .expect("grid is non-empty")
        .0;
    let best = probes[winner].clone();
    let tuning = TuningResult {
        learning_rate: best.learning_rate,
        decay_rate: best.decay_rate,
        runtime_iterations: best.iterations,
        converged: best.converged,
        probes,
    };
    Ok((tuning, runs.swap_remove(winner)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqc_circuit::ParamExpr;
    use vqc_pulse::grape::try_optimize_pulse;

    fn single_angle_subcircuit(theta: f64) -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        c.rz_expr(1, ParamExpr::theta(0));
        c.cx(0, 1);
        c.bind(&[theta])
    }

    fn fast_options() -> GrapeOptions {
        let mut options = GrapeOptions::fast();
        options.max_iterations = 120;
        options.target_infidelity = 2e-2;
        options
    }

    #[test]
    fn grid_enumerates_all_candidates() {
        let grid = HyperparameterGrid::standard();
        assert_eq!(grid.len(), 10);
        assert_eq!(grid.candidates().count(), 10);
        assert!(!grid.is_empty());
        assert_eq!(HyperparameterGrid::fast().len(), 3);
    }

    #[test]
    fn tuning_finds_a_converging_configuration() {
        let circuit = single_angle_subcircuit(0.8);
        let device = DeviceModel::qubits_line(2);
        let result = tune_hyperparameters(
            &circuit,
            &device,
            12.0,
            &fast_options(),
            &HyperparameterGrid::fast(),
        )
        .unwrap();
        assert_eq!(result.probes.len(), 3);
        assert!(
            result.converged,
            "no candidate converged: {:?}",
            result.probes
        );
        assert!(result.runtime_iterations <= 120);
        assert!(result.total_probe_iterations() >= result.runtime_iterations);
    }

    #[test]
    fn tuned_configuration_is_robust_to_the_angle_argument() {
        // The Figure-4 observation: the configuration tuned at one θ still converges at
        // a different θ.
        let device = DeviceModel::qubits_line(2);
        let tuned = tune_hyperparameters(
            &single_angle_subcircuit(0.4),
            &device,
            12.0,
            &fast_options(),
            &HyperparameterGrid::fast(),
        )
        .unwrap();
        assert!(tuned.converged);

        let other_angle = single_angle_subcircuit(2.1);
        let target = circuit_unitary(&other_angle);
        let options = fast_options().with_hyperparameters(tuned.learning_rate, tuned.decay_rate);
        let rerun = try_optimize_pulse(&target, &device, 12.0, &options).unwrap();
        assert!(
            rerun.converged,
            "tuned hyperparameters failed at a different angle (infidelity {})",
            rerun.infidelity
        );
    }

    #[test]
    fn probes_report_all_grid_points() {
        let circuit = single_angle_subcircuit(1.0);
        let device = DeviceModel::qubits_line(2);
        let grid = HyperparameterGrid {
            learning_rates: vec![0.1, 0.3],
            decay_rates: vec![0.999],
        };
        let result = tune_hyperparameters(&circuit, &device, 10.0, &fast_options(), &grid).unwrap();
        assert_eq!(result.probes.len(), 2);
        let rates: Vec<f64> = result.probes.iter().map(|p| p.learning_rate).collect();
        assert!(rates.contains(&0.1) && rates.contains(&0.3));
    }
}
