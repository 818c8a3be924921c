//! Compilation-latency accounting.
//!
//! The paper's Figure 7 reports the *reduction factor* in compilation latency of
//! flexible partial compilation relative to full GRAPE. Latency here is tracked two
//! ways: as wall-clock seconds actually spent by this process, and as an estimate
//! derived from the amount of GRAPE work performed (iterations × problem size), scaled
//! to the paper's hardware so that a 4-qubit block costs minutes — the regime the paper
//! describes. The reduction *factor* is insensitive to the calibration constant because
//! both strategies are scaled identically.

use crate::library::{BlockKey, CachedBlock, CachedTuning};
use serde::{Deserialize, Serialize};
use vqc_pulse::{DeviceModel, SeedEntry};

/// Canonical GRAPE sample period (ns) assumed when estimating the recompute cost of a
/// *cached* entry, which no longer carries the `GrapeOptions` it was produced with.
/// Cache eviction only needs a consistent ordering of entries, so a fixed sample
/// period (the `GrapeOptions::fast` setting) is accurate enough.
pub const RECOMPUTE_DT_NS: f64 = 0.5;

/// Calibration constant: estimated seconds of compilation per unit of GRAPE work,
/// where one unit is `iterations × slices × dim³ × controls`. The default is chosen so
/// that a 4-qubit block at the paper's settings (0.05 ns samples, a few thousand
/// iterations) costs on the order of ten minutes, matching the paper's observation
/// that "running GRAPE control on a circuit with just four qubits takes several
/// minutes" to an hour.
pub const DEFAULT_SECONDS_PER_WORK_UNIT: f64 = 3.0e-8;

/// Model converting GRAPE work into estimated wall-clock compilation latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Seconds per unit of GRAPE work (`iterations × slices × dim³ × controls`).
    pub seconds_per_work_unit: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            seconds_per_work_unit: DEFAULT_SECONDS_PER_WORK_UNIT,
        }
    }
}

impl LatencyModel {
    /// Estimated seconds for `iterations` GRAPE iterations on a problem with the given
    /// number of time slices, Hilbert-space dimension, and control knobs.
    pub fn estimate_seconds(
        &self,
        iterations: usize,
        slices: usize,
        dim: usize,
        controls: usize,
    ) -> f64 {
        self.seconds_per_work_unit
            * iterations as f64
            * slices as f64
            * (dim as f64).powi(3)
            * controls as f64
    }

    /// Estimated seconds of the `iterations` a cached entry records, on the
    /// line device its key's qubit count implies, for a pulse spanning
    /// `duration_ns` at the [`RECOMPUTE_DT_NS`] sample period.
    fn recompute_seconds(&self, key: &BlockKey, iterations: usize, duration_ns: f64) -> f64 {
        let device = DeviceModel::qubits_line(key.num_qubits().max(1));
        let slices = (duration_ns / RECOMPUTE_DT_NS).ceil().max(1.0) as usize;
        self.estimate_seconds(iterations, slices, device.dim(), device.num_controls())
    }

    /// Estimated seconds of GRAPE work needed to recompute a cached block entry from
    /// scratch: the iterations it took to produce. This is the value a bounded
    /// cache protects by keeping the entry — the one cost eviction ranks by.
    pub fn block_recompute_seconds(&self, key: &BlockKey, entry: &CachedBlock) -> f64 {
        self.recompute_seconds(key, entry.grape_iterations, entry.duration_ns)
    }

    /// Estimated seconds to recompute a cached flexible-compilation tuning from
    /// scratch (the hyperparameter probes plus the duration search it took).
    pub fn tuning_recompute_seconds(&self, key: &BlockKey, entry: &CachedTuning) -> f64 {
        self.recompute_seconds(key, entry.precompute_iterations, entry.duration_ns)
    }

    /// Estimated seconds of the searches a warm-start seed distils: every
    /// iteration its probe history records, at the duration the structure
    /// converged at (else the one it failed below).
    pub fn seed_recompute_seconds(&self, key: &BlockKey, entry: &SeedEntry) -> f64 {
        let duration_ns = entry.converged_duration_ns.unwrap_or(entry.failed_below_ns);
        self.recompute_seconds(key, entry.depth() as usize, duration_ns)
    }
}

/// Accumulated compilation latency for one phase (pre-compute or runtime) of one
/// strategy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyEstimate {
    /// Total GRAPE iterations attributed to this phase.
    pub grape_iterations: usize,
    /// Estimated seconds on paper-scale hardware (via [`LatencyModel`]).
    pub estimated_seconds: f64,
    /// Wall-clock seconds this process actually spent.
    pub measured_seconds: f64,
}

impl LatencyEstimate {
    /// Adds another estimate into this one.
    pub fn accumulate(&mut self, other: &LatencyEstimate) {
        self.grape_iterations += other.grape_iterations;
        self.estimated_seconds += other.estimated_seconds;
        self.measured_seconds += other.measured_seconds;
    }

    /// Returns the ratio of this latency to another (e.g. full-GRAPE runtime over
    /// flexible runtime), using the estimated seconds; falls back to iteration counts
    /// when the estimate is degenerate.
    pub fn reduction_factor_vs(&self, other: &LatencyEstimate) -> f64 {
        if other.estimated_seconds > 0.0 {
            self.estimated_seconds / other.estimated_seconds
        } else if other.grape_iterations > 0 {
            self.grape_iterations as f64 / other.grape_iterations as f64
        } else if self.estimated_seconds > 0.0 || self.grape_iterations > 0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_qubit_block_costs_minutes_under_the_default_model() {
        let model = LatencyModel::default();
        // Paper-scale: 4 qubits (dim 16), ~40 ns block at 0.05 ns samples = 800 slices,
        // 11 controls, ~2000 iterations across the binary search.
        let seconds = model.estimate_seconds(2000, 800, 16, 11);
        assert!(
            (60.0..7200.0).contains(&seconds),
            "estimated {seconds} s should be minutes-to-an-hour"
        );
    }

    #[test]
    fn estimates_scale_linearly_in_iterations() {
        let model = LatencyModel::default();
        let one = model.estimate_seconds(100, 50, 4, 5);
        let two = model.estimate_seconds(200, 50, 4, 5);
        assert!((two / one - 2.0).abs() < 1e-12);
    }

    #[test]
    fn accumulation_and_reduction_factor() {
        let mut a = LatencyEstimate {
            grape_iterations: 1000,
            estimated_seconds: 100.0,
            measured_seconds: 1.0,
        };
        let b = LatencyEstimate {
            grape_iterations: 500,
            estimated_seconds: 50.0,
            measured_seconds: 0.5,
        };
        a.accumulate(&b);
        assert_eq!(a.grape_iterations, 1500);
        assert!((a.estimated_seconds - 150.0).abs() < 1e-12);

        let small = LatencyEstimate {
            grape_iterations: 15,
            estimated_seconds: 1.5,
            measured_seconds: 0.01,
        };
        assert!((a.reduction_factor_vs(&small) - 100.0).abs() < 1e-9);
        // Degenerate comparisons do not panic.
        assert_eq!(
            small.reduction_factor_vs(&LatencyEstimate::default()),
            f64::INFINITY
        );
        assert_eq!(
            LatencyEstimate::default().reduction_factor_vs(&LatencyEstimate::default()),
            1.0
        );
    }
}
