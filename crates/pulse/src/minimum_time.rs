//! Binary search for the minimum pulse duration (Section 5.3).
//!
//! GRAPE is run at candidate durations; the shortest duration at which it still reaches
//! the target fidelity is the pulse time reported for a block. The search is seeded with
//! the gate-based runtime of the block as the upper bound, which guarantees that
//! GRAPE-compiled blocks are never slower than the gate-based baseline — the property
//! the paper's aggregation scheme is designed to preserve.
//!
//! Probes share work: each bisection probe warm-starts from the converged pulse
//! of the nearest-duration probe so far (resampled onto the new slice grid).
//!
//! A second sharing axis crosses *blocks*: [`minimum_pulse_time_seeded`] accepts a
//! [`SearchSeed`] from a structural neighbor (a previously compiled binding of the
//! same subcircuit structure, via its [`crate::transposition::SeedEntry`]) and
//! opens the bisection at the neighbor's converged window — first probe at the
//! neighbor's converged duration, warm-started from the neighbor's pulse — instead
//! of at `[lower, gate_runtime]`. A stale seed (the neighbor's window does not hold
//! at this θ) falls back to the full window, so correctness — target fidelity, never
//! slower than the gate-based upper bound — is identical to the cold search; only
//! the iterations spent differ.

use crate::grape::{try_optimize_pulse_with, GrapeOptions, GrapeResult};
use crate::memo::EigenMemo;
use crate::profile::{self, Phase};
use crate::{DeviceModel, PulseError, PulseSequence};
use serde::{Deserialize, Serialize};
use vqc_linalg::Matrix;

/// Options controlling the binary search over pulse durations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinimumTimeOptions {
    /// Search precision Δt in nanoseconds (the paper uses 0.3 ns).
    pub precision_ns: f64,
    /// Lower bound of the search window in nanoseconds.
    pub lower_bound_ns: f64,
    /// Upper bound of the search window in nanoseconds. Typically the gate-based
    /// runtime of the block being compiled.
    pub upper_bound_ns: f64,
}

impl MinimumTimeOptions {
    /// A search window from `lower` to `upper` nanoseconds with the paper's 0.3 ns
    /// precision.
    pub fn new(lower_bound_ns: f64, upper_bound_ns: f64) -> Self {
        MinimumTimeOptions {
            precision_ns: 0.3,
            lower_bound_ns,
            upper_bound_ns,
        }
    }

    /// Coarser 1 ns precision, used by the `fast` benchmark effort level.
    pub fn with_precision(mut self, precision_ns: f64) -> Self {
        self.precision_ns = precision_ns;
        self
    }
}

/// A warm start for the duration search, taken from a structural neighbor's
/// [`crate::transposition::SeedEntry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSeed {
    /// Tightest duration (ns) below which the neighbor failed to converge; the
    /// seeded bisection never probes below it.
    pub lower_bound_ns: f64,
    /// The neighbor's shortest converged duration (ns), the seeded search's
    /// opening probe. `None` when the neighbor never converged.
    pub converged_duration_ns: Option<f64>,
    /// The neighbor's converged amplitudes, resampled onto each probe's grid as
    /// its initial guess.
    pub pulse: Option<PulseSequence>,
}

/// One probe of the binary search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchProbe {
    /// Candidate duration in nanoseconds.
    pub duration_ns: f64,
    /// Whether GRAPE converged at this duration.
    pub converged: bool,
    /// Infidelity reached at this duration.
    pub infidelity: f64,
    /// GRAPE iterations spent on this probe.
    pub iterations: usize,
}

/// The result of a minimum-time search.
#[derive(Debug, Clone)]
pub struct MinimumTimeResult {
    /// Shortest duration (ns) at which GRAPE reached the target fidelity. If GRAPE never
    /// converged, this is the upper bound (the gate-based fallback).
    pub duration_ns: f64,
    /// The optimized pulse at `duration_ns`, if any probe converged.
    pub best: Option<GrapeResult>,
    /// Every probe performed, in order.
    pub probes: Vec<SearchProbe>,
    /// Whether any probe converged (i.e. whether GRAPE beat or matched the fallback).
    pub converged: bool,
    /// Whether the search ran inside a neighbor's seeded window. `false` for cold
    /// searches and for stale seeds that fell back to the full window.
    pub seeded: bool,
}

impl MinimumTimeResult {
    /// Total GRAPE iterations across all probes — the dominant component of the
    /// compilation latency this search incurs.
    pub fn total_iterations(&self) -> usize {
        self.probes.iter().map(|p| p.iterations).sum()
    }
}

/// Finds the minimum pulse duration for a target unitary by binary search.
///
/// # Errors
///
/// Propagates [`PulseError`] from GRAPE for invalid inputs (dimension mismatch or an
/// upper bound shorter than one sample period).
pub fn minimum_pulse_time(
    target: &Matrix,
    device: &DeviceModel,
    search: &MinimumTimeOptions,
    grape: &GrapeOptions,
) -> Result<MinimumTimeResult, PulseError> {
    minimum_pulse_time_seeded(target, device, search, grape, &mut EigenMemo::new(), None)
}

/// [`minimum_pulse_time`] warm-started from a structural neighbor.
///
/// With a usable seed — a converged neighbor duration strictly inside the search
/// window — the first probe runs at the neighbor's converged duration with the
/// neighbor's pulse as the initial guess, and the bisection window opens at
/// `[max(lower, neighbor's failed bound), neighbor's duration]`. If that probe
/// fails (the seed is stale at this θ), the search falls back to the full window,
/// keeping the failed probe as this block's own lower-bound evidence — so the
/// result is exactly as correct as a cold search, it just normally spends far
/// fewer iterations. Without a usable window the seed's pulse (if any) still
/// warm-starts the upper-bound probe.
///
/// The [`EigenMemo`] parameter is inert (see the type): the driver benchmark
/// calls this signature and a performance change may not edit it.
///
/// # Errors
///
/// Same as [`minimum_pulse_time`].
pub fn minimum_pulse_time_seeded(
    target: &Matrix,
    device: &DeviceModel,
    search: &MinimumTimeOptions,
    grape: &GrapeOptions,
    _memo: &mut EigenMemo,
    seed: Option<&SearchSeed>,
) -> Result<MinimumTimeResult, PulseError> {
    let upper = search.upper_bound_ns.max(grape.dt_ns);
    let seed_pulse = seed.and_then(|s| s.pulse.as_ref());
    // Probe the opening duration first: the neighbor's converged duration when
    // seeded, else the upper bound — where a failure means falling back to
    // gate-based compilation for this block.
    let first = seed_window(seed, upper, grape).unwrap_or(upper);
    // Each probe runs under a DurationProbe scope: the scope records *self
    // time* (ADAM bookkeeping, convergence control, pulse resampling) while
    // the kernel phases inside the probe charge themselves, so the profiler's
    // per-phase sum still bounds the block's wall time.
    let opening = {
        let _probe = profile::scope(Phase::DurationProbe);
        try_optimize_pulse_with(target, device, first, grape, seed_pulse)?
    };
    search_after_opening(target, device, search, grape, seed, opening)
}

/// [`minimum_pulse_time`] for a caller that has already run the cold
/// search's opening probe — GRAPE at the window's upper bound, with `grape` and no
/// warm start — and hands the result in rather than have it repeated. Flexible
/// partial compilation's hyperparameter grid evaluates every candidate at exactly
/// that point, so the winning candidate's run *is* the tuned search's opening probe.
/// The probe is listed in the result like any other.
///
/// # Errors
///
/// Same as [`minimum_pulse_time`].
///
/// # Panics
///
/// Panics if `opening` was not run at the window's upper bound.
pub fn minimum_pulse_time_after_opening(
    target: &Matrix,
    device: &DeviceModel,
    search: &MinimumTimeOptions,
    grape: &GrapeOptions,
    opening: GrapeResult,
) -> Result<MinimumTimeResult, PulseError> {
    let upper = search.upper_bound_ns.max(grape.dt_ns);
    assert_eq!(
        opening.pulse.num_slices(),
        (upper / grape.dt_ns).round() as usize,
        "the opening probe must have run at the search's upper bound"
    );
    search_after_opening(target, device, search, grape, None, opening)
}

/// The neighbor's converged duration, when it opens a usable window: finite and
/// at or below the gate-based upper bound. Anything above it degenerates to the
/// cold search (the seed's pulse, if any, still warm-starts the opening probe). A
/// seed exactly at the upper bound opens no smaller, but its non-converging lower
/// bound still raises the bisection floor.
fn seed_window(seed: Option<&SearchSeed>, upper: f64, grape: &GrapeOptions) -> Option<f64> {
    seed.and_then(|s| s.converged_duration_ns)
        .filter(|d| d.is_finite() && *d > 0.0)
        .map(|d| d.max(grape.dt_ns))
        .filter(|d| *d <= upper)
}

/// The search from its second probe on: `result` is the opening probe's outcome,
/// run at the seed's window if it has one and at the upper bound otherwise.
fn search_after_opening(
    target: &Matrix,
    device: &DeviceModel,
    search: &MinimumTimeOptions,
    grape: &GrapeOptions,
    seed: Option<&SearchSeed>,
    result: GrapeResult,
) -> Result<MinimumTimeResult, PulseError> {
    let upper = search.upper_bound_ns.max(grape.dt_ns);
    let seed_pulse = seed.and_then(|s| s.pulse.as_ref());
    let seed_upper = seed_window(seed, upper, grape);
    let first = seed_upper.unwrap_or(upper);
    // Converged pulses by duration, the warm-start pool for later probes.
    let mut converged_pulses: Vec<(f64, PulseSequence)> = Vec::new();
    let mut probes = vec![SearchProbe {
        duration_ns: first,
        converged: result.converged,
        infidelity: result.infidelity,
        iterations: result.iterations,
    }];

    let mut hi;
    let mut lo;
    let seeded;
    let mut best;
    if result.converged {
        hi = first;
        lo = search.lower_bound_ns.max(0.0);
        seeded = seed_upper.is_some();
        if seeded {
            if let Some(seed) = seed {
                // The neighbor's tightest non-converging bound; merged entries can
                // carry a bound above the converged duration (different θ), so clamp.
                lo = lo.max(seed.lower_bound_ns).min(hi);
            }
        }
        converged_pulses.push((first, result.pulse.clone()));
        best = Some(result);
    } else if first < upper {
        // Stale seed: the neighbor's window does not hold at this θ. Fall back to
        // the full window; the failed probe stands as this block's own evidence
        // for the new lower bound. (A seed exactly at the upper bound that failed
        // needs no retry — the probe already was the full-window opener.)
        let retry = {
            let _probe = profile::scope(Phase::DurationProbe);
            try_optimize_pulse_with(target, device, upper, grape, seed_pulse)?
        };
        probes.push(SearchProbe {
            duration_ns: upper,
            converged: retry.converged,
            infidelity: retry.infidelity,
            iterations: retry.iterations,
        });
        if !retry.converged {
            return Ok(MinimumTimeResult {
                duration_ns: upper,
                best: None,
                probes,
                converged: false,
                seeded: false,
            });
        }
        hi = upper;
        lo = search.lower_bound_ns.max(first).max(0.0).min(hi);
        seeded = false;
        converged_pulses.push((upper, retry.pulse.clone()));
        best = Some(retry);
    } else {
        return Ok(MinimumTimeResult {
            duration_ns: upper,
            best: None,
            probes,
            converged: false,
            seeded: false,
        });
    }

    while hi - lo > search.precision_ns {
        let mid = 0.5 * (hi + lo);
        if mid < grape.dt_ns {
            break;
        }
        // Warm-start from the converged probe nearest in duration: its resampled
        // pulse is a far better initial guess than the seeded sinusoid.
        let warm = converged_pulses
            .iter()
            .min_by(|a, b| {
                let da = (a.0 - mid).abs();
                let db = (b.0 - mid).abs();
                // audit:allow(unwrap): probe durations are finite by construction
                da.partial_cmp(&db).expect("finite durations")
            })
            .map(|(_, pulse)| pulse.clone());
        let result = {
            let _probe = profile::scope(Phase::DurationProbe);
            try_optimize_pulse_with(target, device, mid, grape, warm.as_ref())?
        };
        probes.push(SearchProbe {
            duration_ns: mid,
            converged: result.converged,
            infidelity: result.infidelity,
            iterations: result.iterations,
        });
        if result.converged {
            hi = mid;
            converged_pulses.push((mid, result.pulse.clone()));
            best = Some(result);
        } else {
            lo = mid;
        }
    }

    Ok(MinimumTimeResult {
        duration_ns: hi,
        best,
        probes,
        converged: true,
        seeded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqc_sim::gates;

    fn fast_grape() -> GrapeOptions {
        GrapeOptions::fast()
    }

    #[test]
    fn x_gate_minimum_time_is_near_table1() {
        let device = DeviceModel::qubits_line(1);
        let target = gates::x();
        let search = MinimumTimeOptions::new(0.5, 6.0).with_precision(0.5);
        let result = minimum_pulse_time(&target, &device, &search, &fast_grape()).unwrap();
        assert!(result.converged);
        // Table 1 lists 2.5 ns for Rx(π); the search works at 0.5 ns granularity so
        // anything in [2.0, 3.5] is the right ballpark.
        assert!(
            result.duration_ns >= 2.0 && result.duration_ns <= 3.6,
            "got {} ns",
            result.duration_ns
        );
        assert!(result.best.is_some());
        assert!(result.total_iterations() > 0);
    }

    #[test]
    fn z_rotation_minimum_time_is_much_shorter_than_x() {
        let device = DeviceModel::qubits_line(1);
        let search = MinimumTimeOptions::new(0.0, 4.0).with_precision(0.5);
        let z = minimum_pulse_time(
            &gates::rz(std::f64::consts::PI),
            &device,
            &search,
            &fast_grape(),
        )
        .unwrap();
        let x = minimum_pulse_time(&gates::x(), &device, &search, &fast_grape()).unwrap();
        assert!(z.converged && x.converged);
        assert!(
            z.duration_ns < x.duration_ns,
            "z {} ns vs x {} ns",
            z.duration_ns,
            x.duration_ns
        );
    }

    #[test]
    fn unreachable_target_falls_back_to_upper_bound() {
        // Give the search an upper bound far too short for an X gate.
        let device = DeviceModel::qubits_line(1);
        let search = MinimumTimeOptions::new(0.0, 1.0).with_precision(0.5);
        let result = minimum_pulse_time(&gates::x(), &device, &search, &fast_grape()).unwrap();
        assert!(!result.converged);
        assert_eq!(result.duration_ns, 1.0);
        assert!(result.best.is_none());
    }

    /// Builds the seed a `SeedEntry` would hold after `result`.
    fn seed_from(result: &MinimumTimeResult, search: &MinimumTimeOptions) -> SearchSeed {
        let failed_below = result
            .probes
            .iter()
            .filter(|p| !p.converged)
            .map(|p| p.duration_ns)
            .fold(search.lower_bound_ns, f64::max);
        SearchSeed {
            lower_bound_ns: failed_below,
            converged_duration_ns: result.converged.then_some(result.duration_ns),
            pulse: result.best.as_ref().map(|b| b.pulse.clone()),
        }
    }

    #[test]
    fn seeded_search_matches_cold_within_precision_with_fewer_probes() {
        let device = DeviceModel::qubits_line(1);
        let search = MinimumTimeOptions::new(0.0, 4.0).with_precision(0.5);
        let cold = minimum_pulse_time(&gates::rz(1.0), &device, &search, &fast_grape()).unwrap();
        assert!(cold.converged && !cold.seeded);

        let seed = seed_from(&cold, &search);
        let seeded = minimum_pulse_time_seeded(
            &gates::rz(1.0),
            &device,
            &search,
            &fast_grape(),
            &mut EigenMemo::new(),
            Some(&seed),
        )
        .unwrap();
        assert!(seeded.converged && seeded.seeded);
        assert!(
            (seeded.duration_ns - cold.duration_ns).abs() <= search.precision_ns + 1e-9,
            "seeded {} ns vs cold {} ns",
            seeded.duration_ns,
            cold.duration_ns
        );
        // The cold search's final window is already within precision, so the
        // seeded search needs exactly one (warm-started) probe.
        assert_eq!(seeded.probes.len(), 1);
        assert!(seeded.total_iterations() <= cold.total_iterations());
    }

    #[test]
    fn stale_seed_falls_back_to_the_full_window() {
        let device = DeviceModel::qubits_line(1);
        let search = MinimumTimeOptions::new(0.5, 6.0).with_precision(0.5);
        // A seed claiming an X gate converges at 0.8 ns — far below the true
        // minimum, so the opening probe must fail and the search must recover.
        let seed = SearchSeed {
            lower_bound_ns: 0.0,
            converged_duration_ns: Some(0.8),
            pulse: None,
        };
        let result = minimum_pulse_time_seeded(
            &gates::x(),
            &device,
            &search,
            &fast_grape(),
            &mut EigenMemo::new(),
            Some(&seed),
        )
        .unwrap();
        assert!(result.converged);
        assert!(!result.seeded, "a stale seed must not count as seeded");
        assert!(!result.probes[0].converged);
        assert_eq!(result.probes[0].duration_ns, 0.8);
        assert_eq!(
            result.probes[1].duration_ns, 6.0,
            "fallback probes the full window"
        );
        // Same ballpark as the cold Table-1 search.
        assert!(
            result.duration_ns >= 2.0 && result.duration_ns <= 3.6,
            "got {} ns",
            result.duration_ns
        );
    }

    #[test]
    fn seed_at_or_above_the_upper_bound_degenerates_to_cold() {
        let device = DeviceModel::qubits_line(1);
        let search = MinimumTimeOptions::new(0.0, 2.0).with_precision(0.5);
        let cold = minimum_pulse_time(&gates::rz(1.0), &device, &search, &fast_grape()).unwrap();
        // The neighbor's converged duration is no better than our gate-based
        // upper bound: no window to seed, only the pulse warm-starts.
        let seed = SearchSeed {
            lower_bound_ns: 0.0,
            converged_duration_ns: Some(5.0),
            pulse: cold.best.as_ref().map(|b| b.pulse.clone()),
        };
        let result = minimum_pulse_time_seeded(
            &gates::rz(1.0),
            &device,
            &search,
            &fast_grape(),
            &mut EigenMemo::new(),
            Some(&seed),
        )
        .unwrap();
        assert!(result.converged && !result.seeded);
        assert_eq!(result.probes[0].duration_ns, 2.0);
        assert!((result.duration_ns - cold.duration_ns).abs() <= search.precision_ns + 1e-9);
    }

    #[test]
    fn probes_shrink_the_window() {
        let device = DeviceModel::qubits_line(1);
        let search = MinimumTimeOptions::new(0.0, 2.0).with_precision(0.5);
        let result = minimum_pulse_time(&gates::rz(1.0), &device, &search, &fast_grape()).unwrap();
        assert!(result.converged);
        // The first probe is always the upper bound, later probes bisect.
        assert!(result.probes.len() >= 2);
        assert_eq!(result.probes[0].duration_ns, 2.0);
        assert!(result.duration_ns <= 1.0 + 1e-9);
    }
}
