//! Property tests of the compile-phase profiler's accounting.
//!
//! The profiler brackets each GRAPE block compilation (`begin_block` …
//! `take_block`) inside the same wall-clock window that produces the block's
//! `measured_seconds`, and every phase timer nests inside that bracket with
//! self-time semantics. The invariant that makes the phase-share panel honest
//! is therefore structural: the per-phase durations can never sum past the
//! measured compile time, whatever circuit is compiled. These tests pin that
//! invariant on random blocks, along with the count/seconds coupling and the
//! disarmed profiler's silence.
//!
//! This file holds a single test on purpose: `set_armed` is process-global,
//! and a sibling test running disarmed concurrently would race. The disarmed
//! half of the property runs sequentially inside the same case.

use proptest::prelude::*;
use vqc_circuit::Circuit;
use vqc_core::{profile, CompilerOptions, PartialCompiler, Phase, Strategy};

/// Fast-effort options so each proptest case compiles in milliseconds.
fn fast_options() -> CompilerOptions {
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 60;
    options.grape.target_infidelity = 5e-2;
    options.search_precision_ns = 2.0;
    options
}

/// A fully bound entangling block on `width` qubits — aggregates into one
/// Fixed GRAPE block under `StrictPartial`, the profiled compile path. At
/// width 3 the block is wide enough for two-lane iterations, where the helper
/// thread's share of a phase must show up in the caller's profile as wall
/// time only.
fn one_block_circuit(width: usize, phase_a: f64, phase_b: f64, variant: u8) -> Circuit {
    let mut circuit = Circuit::new(width);
    for qubit in 2..width {
        circuit.h(qubit);
        circuit.cx(qubit - 1, qubit);
    }
    circuit.h(0);
    if variant.is_multiple_of(2) {
        circuit.h(1);
    }
    circuit.cx(0, 1);
    circuit.rx(0, phase_a);
    if variant.is_multiple_of(3) {
        circuit.rz(1, phase_b);
    }
    circuit.cx(0, 1);
    circuit
}

proptest! {
    // GRAPE per case keeps this modest; 12 distinct blocks still cover the
    // duration-search / table-probe / propagation phase mix.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Armed, every freshly compiled block's phase durations sum to at most
    /// its `measured_seconds`, phase counts and seconds agree on which phases
    /// ran, and the propagation phase (the GRAPE inner loop) is always
    /// attributed. Disarmed, the same compile reports empty profiles — the
    /// single branch stays a branch, and stale thread-local state never leaks
    /// into a report.
    #[test]
    fn phase_durations_sum_to_at_most_measured_seconds(
        width in 2usize..4,
        phase_a in 0.1..3.0f64,
        phase_b in 0.1..3.0f64,
        variant in 0u8..6,
    ) {
        profile::set_armed(true);
        let compiler = PartialCompiler::new(fast_options());
        let circuit = one_block_circuit(width, phase_a, phase_b, variant);
        let report = compiler
            .compile(&circuit, &[], Strategy::StrictPartial)
            .expect("fast-effort compile succeeds");
        profile::set_armed(false);

        let mut profiled_blocks = 0usize;
        for block in &report.blocks {
            if block.cached {
                continue;
            }
            profiled_blocks += 1;
            let profile = &block.profile;
            prop_assert!(
                !profile.is_empty(),
                "an armed fresh compile must attribute phase time"
            );
            prop_assert!(
                profile.total_seconds() <= block.measured_seconds + 1e-6,
                "phase sum {} exceeds measured {}",
                profile.total_seconds(),
                block.measured_seconds
            );
            for phase in Phase::ALL {
                let seconds = profile.seconds(phase);
                let count = profile.count(phase);
                prop_assert!(seconds >= 0.0);
                prop_assert!(
                    count > 0 || seconds == 0.0,
                    "phase {} has {}s but zero entries",
                    phase.name(),
                    seconds
                );
            }
            prop_assert!(
                profile.count(Phase::Propagation) > 0,
                "a GRAPE block always runs the propagation phase"
            );
        }
        prop_assert!(profiled_blocks > 0, "the circuit must contain a GRAPE block");

        // Disarmed half: a fresh compiler (cold cache) on the same circuit
        // must report empty profiles.
        let compiler = PartialCompiler::new(fast_options());
        let report = compiler
            .compile(&circuit, &[], Strategy::StrictPartial)
            .expect("fast-effort compile succeeds");
        for block in &report.blocks {
            prop_assert!(block.profile.is_empty());
            prop_assert_eq!(block.profile.total_seconds(), 0.0);
        }
    }
}
