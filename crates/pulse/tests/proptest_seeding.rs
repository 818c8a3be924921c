//! Property tests of the warm-start seed's merge rule and the seeded duration
//! search.
//!
//! Two invariants warm starts must hold under any workload:
//!
//! * **Merges only tighten** — once a structure has converged, folding later
//!   unconverged searches of it into its [`SeedEntry`] never loses the
//!   converged window.
//! * **Seeded search exactness** — seeding [`minimum_pulse_time_seeded`] from
//!   a prior search of the *same* block lands within the search's
//!   `precision_ns` of the cold result: the seed is an accelerator, not an
//!   approximation knob.

use proptest::prelude::*;
use vqc_pulse::grape::GrapeOptions;
use vqc_pulse::minimum_time::{minimum_pulse_time, minimum_pulse_time_seeded, MinimumTimeOptions};
use vqc_pulse::{DeviceModel, EigenMemo, PulseSequence, SeedEntry};
use vqc_sim::gates;

/// An entry with the given convergence state and iteration depth.
fn entry(converged: bool, duration_ns: f64, depth: usize) -> SeedEntry {
    let device = DeviceModel::qubits_line(1);
    let mut entry = SeedEntry {
        learning_rate: 0.1,
        decay_rate: 0.99,
        tuned: false,
        converged_duration_ns: converged.then_some(duration_ns),
        failed_below_ns: duration_ns * 0.5,
        probe_iterations: Vec::new(),
        pulse: converged.then(|| PulseSequence::seeded_guess(&device, 8, 0.5, depth as u64)),
    };
    entry.record_probe(duration_ns, depth.max(1));
    entry
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging records for the same key never loses convergence: once a key has
    /// converged, later unconverged searches of other bindings only tighten its
    /// window.
    #[test]
    fn same_key_merges_keep_convergence(
        durations in prop::collection::vec(1.0..16.0f64, 1..12),
        depths in prop::collection::vec(1usize..5000, 12),
    ) {
        let mut merged = entry(true, 4.0, 10);
        let mut tightest_floor: f64 = 2.0; // 4.0 * 0.5 from the resident entry.
        for (i, duration) in durations.iter().enumerate() {
            merged.merge(entry(false, *duration, depths[i]));
            tightest_floor = tightest_floor.max(duration * 0.5);
            prop_assert!(merged.converged());
            prop_assert!((merged.failed_below_ns - tightest_floor).abs() < 1e-9);
        }
    }
}

proptest! {
    // Each case runs two GRAPE duration searches; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seeding a search from its own cold result (the tightest honest seed a
    /// table can serve for the *same* block) reproduces the cold duration
    /// within `precision_ns` and converges to target fidelity.
    #[test]
    fn seeded_search_matches_cold_within_precision(
        theta in 0.3..2.8f64,
        precision_step in 0usize..2,
    ) {
        let device = DeviceModel::qubits_line(1);
        let precision = [0.5, 1.0][precision_step];
        let search = MinimumTimeOptions::new(0.0, 4.0).with_precision(precision);
        let grape = GrapeOptions::fast();
        let target = gates::rz(theta);

        let cold = minimum_pulse_time(&target, &device, &search, &grape).unwrap();
        prop_assert!(cold.converged);

        let seed = SeedEntry::from_search(&cold).search_seed();
        let seeded = minimum_pulse_time_seeded(
            &target, &device, &search, &grape, &mut EigenMemo::new(), Some(&seed),
        )
        .unwrap();
        prop_assert!(seeded.converged);
        prop_assert!(
            (seeded.duration_ns - cold.duration_ns).abs() <= precision + 1e-9,
            "seeded {} ns drifted from cold {} ns (precision {} ns)",
            seeded.duration_ns,
            cold.duration_ns,
            precision
        );
        prop_assert!(seeded.duration_ns <= search.upper_bound_ns + 1e-9);
        prop_assert!(seeded.total_iterations() <= cold.total_iterations());
    }
}
