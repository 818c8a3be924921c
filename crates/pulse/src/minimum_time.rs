//! Binary search for the minimum pulse duration (Section 5.3).
//!
//! GRAPE is run at candidate durations; the shortest duration at which it still reaches
//! the target fidelity is the pulse time reported for a block. The search's upper bound
//! is the gate-based runtime of the block, which guarantees that GRAPE-compiled blocks
//! are never slower than the gate-based baseline — the property the paper's
//! aggregation scheme is designed to preserve.
//!
//! There is one search, [`duration_search`], in two stages. Its *openers* find the
//! bracket's top: first the window of a [`SearchSeed`] from a structural neighbor (a
//! previously compiled binding of the same subcircuit structure, via its
//! [`crate::transposition::SeedEntry`]), probed at the neighbor's converged duration
//! and warm-started from its pulse; then, if there was no window below the bound or it
//! did not hold, the upper bound. Flexible compilation hands its tuning grid's
//! winning run in as the upper-bound opener. A stale seed (the neighbor's window does
//! not hold at this θ) thus falls back to the full window, so correctness — target
//! fidelity, never slower than the gate-based upper bound — is identical to the cold
//! search; only the iterations spent differ. *Bisection* then halves the bracket, each
//! probe warm-started from the converged pulse of the nearest-duration probe so far
//! (resampled onto the new slice grid). [`minimum_pulse_time`] and
//! [`minimum_pulse_time_seeded`] are the search without a handed-in opener.

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

    /// The same window searched to `precision_ns`, whatever it is, in place
    /// of the paper's 0.3 ns: bisection stops once the bracket is no wider.
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

/// Finds the minimum pulse duration for a target unitary by binary search:
/// [`duration_search`] with no seed and no opening probe.
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
    duration_search(target, device, search, grape, None, None)
}

/// [`minimum_pulse_time`] warm-started from a structural neighbor:
/// [`duration_search`] with `seed` and no opening probe.
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
    duration_search(target, device, search, grape, seed, None)
}

/// The minimum-time search: openers, then bisection.
///
/// The openers run until one converges, which sets the bracket's top `hi`: the
/// seed's window (its converged duration, if finite and at most the upper
/// bound `U`), then `U` unless the window sat there. Both start from the seed's
/// pulse. A failed opener raises the floor `lo`; a converged window raises it to
/// the seed's `lower_bound_ns` and marks the result `seeded`. With no opener
/// converged the result is unconverged at `U`, the gate-based fallback. A caller
/// that already ran GRAPE at `U` with `grape` and no warm start (flexible
/// tuning's winning candidate) hands that run in as `opening`, and it stands in
/// for the `U` probe. Bisection then halves `[lo, hi]` to `search.precision_ns`,
/// each probe warm-started from the converged probe nearest in duration.
///
/// # Errors
///
/// Same as [`minimum_pulse_time`].
///
/// # Panics
///
/// Panics if `opening` comes with a seed, or was not run at `U`.
pub fn duration_search(
    target: &Matrix,
    device: &DeviceModel,
    search: &MinimumTimeOptions,
    grape: &GrapeOptions,
    seed: Option<&SearchSeed>,
    mut opening: Option<GrapeResult>,
) -> Result<MinimumTimeResult, PulseError> {
    let upper = search.upper_bound_ns.max(grape.dt_ns);
    if let Some(opening) = &opening {
        assert!(seed.is_none(), "a handed-in opening probe takes no seed");
        assert_eq!(
            opening.pulse.num_slices(),
            (upper / grape.dt_ns).round() as usize,
            "the opening probe must have run at the search's upper bound"
        );
    }
    // Each probe runs under a DurationProbe scope: the scope records *self
    // time* (ADAM bookkeeping, convergence control, pulse resampling) while
    // the kernel phases inside the probe charge themselves, so the profiler's
    // per-phase sum still bounds the block's wall time.
    let run = |duration_ns: f64, warm: Option<&PulseSequence>| {
        let _probe = profile::scope(Phase::DurationProbe);
        try_optimize_pulse_with(target, device, duration_ns, grape, warm)
    };
    let seed_pulse = seed.and_then(|s| s.pulse.as_ref());
    // The openers, each with the floor it sets by converging: the window sets
    // the seed's failed bound, `U` none.
    let window = seed.and_then(|s| {
        let d = s
            .converged_duration_ns
            .filter(|d| d.is_finite() && *d > 0.0)?;
        Some((d.max(grape.dt_ns), Some(s.lower_bound_ns))).filter(|w| w.0 <= upper)
    });
    let at_upper = (window.map(|w| w.0) != Some(upper)).then_some((upper, None));
    let mut probes = Probes::default();
    let mut lo = search.lower_bound_ns.max(0.0);
    let mut opened = None;
    for (duration_ns, floor) in window.into_iter().chain(at_upper) {
        // A handed-in opening comes without a seed, so `U` is the one opener.
        let result = match opening.take() {
            Some(result) => result,
            None => run(duration_ns, seed_pulse)?,
        };
        if probes.probe(duration_ns, result) {
            opened = Some((duration_ns, floor));
            break;
        }
        lo = lo.max(duration_ns);
    }
    let Some((mut hi, floor)) = opened else {
        return Ok(MinimumTimeResult {
            duration_ns: upper,
            best: None,
            probes: probes.probes,
            converged: false,
            seeded: false,
        });
    };
    lo = floor.map_or(lo, |floor| lo.max(floor)).min(hi);

    while hi - lo > search.precision_ns {
        let mid = 0.5 * (hi + lo);
        if mid < grape.dt_ns {
            break;
        }
        let result = run(mid, probes.nearest_converged(mid))?;
        if probes.probe(mid, result) {
            hi = mid;
        } else {
            lo = mid;
        }
    }

    Ok(MinimumTimeResult {
        duration_ns: hi,
        best: probes.best,
        probes: probes.probes,
        converged: true,
        seeded: floor.is_some(),
    })
}

/// What a search's probes have found so far.
#[derive(Default)]
struct Probes {
    probes: Vec<SearchProbe>,
    /// Converged pulses by duration, the warm-start pool for later probes.
    converged: Vec<(f64, PulseSequence)>,
    /// The last converged run, the shortest so far.
    best: Option<GrapeResult>,
}

impl Probes {
    /// Records the run at `duration_ns`; returns whether it converged.
    fn probe(&mut self, duration_ns: f64, result: GrapeResult) -> bool {
        let converged = result.converged;
        self.probes.push(SearchProbe {
            duration_ns,
            converged,
            infidelity: result.infidelity,
            iterations: result.iterations,
        });
        if converged {
            self.converged.push((duration_ns, result.pulse.clone()));
            self.best = Some(result);
        }
        converged
    }

    /// The converged pulse nearest in duration to `duration_ns`: its resampled
    /// amplitudes are a far better initial guess than the seeded sinusoid.
    fn nearest_converged(&self, duration_ns: f64) -> Option<&PulseSequence> {
        self.converged
            .iter()
            .min_by(|a, b| {
                let da = (a.0 - duration_ns).abs();
                let db = (b.0 - duration_ns).abs();
                // audit:allow(unwrap): probe durations are finite by construction
                da.partial_cmp(&db).expect("finite durations")
            })
            .map(|(_, pulse)| pulse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedEntry;
    use vqc_sim::gates;

    /// The window `[lower, upper]` at 0.5 ns precision.
    fn window(lower: f64, upper: f64) -> MinimumTimeOptions {
        MinimumTimeOptions::new(lower, upper).with_precision(0.5)
    }

    /// The cold search on one qubit at `GrapeOptions::fast()`.
    fn cold(target: &Matrix, search: &MinimumTimeOptions) -> MinimumTimeResult {
        let device = DeviceModel::qubits_line(1);
        minimum_pulse_time(target, &device, search, &GrapeOptions::fast()).unwrap()
    }

    /// [`cold`] warm-started from `seed`.
    fn seeded(
        target: &Matrix,
        search: &MinimumTimeOptions,
        seed: &SearchSeed,
    ) -> MinimumTimeResult {
        let (device, grape) = (DeviceModel::qubits_line(1), GrapeOptions::fast());
        let memo = &mut EigenMemo::new();
        minimum_pulse_time_seeded(target, &device, search, &grape, memo, Some(seed)).unwrap()
    }

    #[test]
    fn x_gate_minimum_time_is_near_table1() {
        let result = cold(&gates::x(), &window(0.5, 6.0));
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
        let z = cold(&gates::rz(std::f64::consts::PI), &window(0.0, 4.0));
        let x = cold(&gates::x(), &window(0.0, 4.0));
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
        let result = cold(&gates::x(), &window(0.0, 1.0));
        assert!(!result.converged);
        assert_eq!(result.duration_ns, 1.0);
        assert!(result.best.is_none());
    }

    #[test]
    fn seeded_search_matches_cold_within_precision_with_fewer_probes() {
        let search = window(0.0, 4.0);
        let cold = cold(&gates::rz(1.0), &search);
        assert!(cold.converged && !cold.seeded);

        let seed = SeedEntry::from_search(&cold).search_seed();
        let seeded = seeded(&gates::rz(1.0), &search, &seed);
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
        // A seed claiming an X gate converges at 0.8 ns — far below the true
        // minimum, so the opening probe must fail and the search must recover.
        let seed = SearchSeed {
            lower_bound_ns: 0.0,
            converged_duration_ns: Some(0.8),
            pulse: None,
        };
        let result = seeded(&gates::x(), &window(0.5, 6.0), &seed);
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
        let search = window(0.0, 2.0);
        let cold = cold(&gates::rz(1.0), &search);
        // The neighbor's converged duration is no better than our gate-based
        // upper bound: no window to seed, only the pulse warm-starts.
        let seed = SearchSeed {
            lower_bound_ns: 0.0,
            converged_duration_ns: Some(5.0),
            pulse: cold.best.as_ref().map(|b| b.pulse.clone()),
        };
        let result = seeded(&gates::rz(1.0), &search, &seed);
        assert!(result.converged && !result.seeded);
        assert_eq!(result.probes[0].duration_ns, 2.0);
        assert!((result.duration_ns - cold.duration_ns).abs() <= search.precision_ns + 1e-9);
    }

    #[test]
    fn a_handed_in_opening_gives_the_cold_search() {
        let (device, grape) = (DeviceModel::qubits_line(1), GrapeOptions::fast());
        let (target, search) = (gates::rz(1.0), window(0.0, 4.0));
        let cold = cold(&target, &search);
        let opening = try_optimize_pulse_with(&target, &device, 4.0, &grape, None).unwrap();
        let handed = duration_search(&target, &device, &search, &grape, None, Some(opening));
        let handed = handed.unwrap();
        assert!(cold.probes.len() >= 2);
        assert_eq!(handed.probes, cold.probes);
        assert_eq!(handed.duration_ns.to_bits(), cold.duration_ns.to_bits());
        assert_eq!(handed.best.map(|b| b.pulse), cold.best.map(|b| b.pulse));
        assert_eq!((handed.converged, handed.seeded), (true, false));
    }

    /// A seed that converged exactly at the upper bound, with a failed bound
    /// that a cold search of the same window probes below.
    fn seed_at_the_upper_bound(upper: f64) -> SearchSeed {
        SearchSeed {
            lower_bound_ns: 0.9,
            converged_duration_ns: Some(upper),
            pulse: None,
        }
    }

    #[test]
    fn a_converging_seed_at_the_upper_bound_raises_the_floor() {
        let (seed, search) = (seed_at_the_upper_bound(2.0), window(0.0, 2.0));
        let below = |r: &MinimumTimeResult| r.probes.iter().any(|p| p.duration_ns < 0.9);
        assert!(
            below(&cold(&gates::rz(1.0), &search)),
            "cold probes below 0.9"
        );
        let result = seeded(&gates::rz(1.0), &search, &seed);
        assert!(result.converged && result.seeded);
        assert_eq!(result.probes[0].duration_ns, 2.0);
        assert!(result.probes.len() >= 2);
        assert!(
            !below(&result),
            "a probe below the floor: {:?}",
            result.probes
        );
    }

    #[test]
    fn a_failing_seed_at_the_upper_bound_is_not_retried() {
        let result = seeded(
            &gates::x(),
            &window(0.0, 1.0),
            &seed_at_the_upper_bound(1.0),
        );
        assert_eq!(result.probes.len(), 1, "one probe, no retry");
        assert_eq!(result.probes[0].duration_ns, 1.0);
        assert!(!result.converged && !result.seeded && result.best.is_none());
        assert_eq!(result.duration_ns, 1.0);
    }

    #[test]
    fn probes_shrink_the_window() {
        let result = cold(&gates::rz(1.0), &window(0.0, 2.0));
        assert!(result.converged);
        // The first probe is always the upper bound, later probes bisect.
        assert!(result.probes.len() >= 2);
        assert_eq!(result.probes[0].duration_ns, 2.0);
        assert!(result.duration_ns <= 1.0 + 1e-9);
    }
}
