//! Integration tests tying the pulse layer back to the circuit layer: GRAPE pulses for
//! compiled blocks really implement the block unitaries they claim to.

use vqc::circuit::timing::{critical_path_ns, GateTimes};
use vqc::circuit::{passes, Circuit};
use vqc::core::blocking::{aggregate_blocks, ParameterPolicy};
use vqc::linalg::fidelity::trace_infidelity;
use vqc::pulse::grape::{evaluate_pulse, optimize_pulse, GrapeOptions};
use vqc::pulse::minimum_time::{minimum_pulse_time, MinimumTimeOptions};
use vqc::pulse::propagate::final_unitary;
use vqc::pulse::DeviceModel;
use vqc::sim::{circuit_unitary, gates};

#[test]
fn grape_pulse_for_a_fixed_block_reaches_target_fidelity() {
    // A Fixed entangling block (H ⊗ H followed by CX), as strict partial compilation
    // would pre-compile it.
    let mut block = Circuit::new(2);
    block.h(0);
    block.h(1);
    block.cx(0, 1);
    let prepared = passes::optimize(&block);
    let target = circuit_unitary(&prepared);

    let device = DeviceModel::qubits_line(2);
    let mut options = GrapeOptions::fast();
    options.target_infidelity = 2e-2;
    options.max_iterations = 250;
    let upper = critical_path_ns(&prepared, &GateTimes::default());
    let result = optimize_pulse(&target, &device, upper, &options);
    assert!(result.infidelity < 0.05, "infidelity {}", result.infidelity);
    // Re-evaluating the stored pulse reproduces the reported infidelity.
    let check = evaluate_pulse(&target, &device, &result.pulse);
    assert!((check - result.infidelity).abs() < 1e-6);
}

#[test]
fn three_qubit_block_pulse_repropagates_to_its_target() {
    // A 3-qubit block (dim 8) is a width the planner really emits — LiH and
    // QAOA plans both contain one — so the optimised pulse is checked the way
    // the benchmark checks outputs: propagated again, independently of the
    // optimizer's own bookkeeping, and compared with the simulated circuit.
    let mut block = Circuit::new(3);
    block.h(0);
    block.rz(1, 0.7);
    block.rz(2, -1.1);
    let target = circuit_unitary(&passes::optimize(&block));

    let device = DeviceModel::qubits_line(3);
    let mut options = GrapeOptions::fast();
    options.target_infidelity = 2e-2;
    let result = optimize_pulse(&target, &device, 3.0, &options);
    assert!(result.converged, "infidelity {}", result.infidelity);
    let realised = final_unitary(&device, &result.pulse);
    let infidelity = trace_infidelity(&target, &realised);
    assert!(
        infidelity <= options.target_infidelity + 1e-9,
        "re-propagated infidelity {infidelity}, optimizer reported {}",
        result.infidelity
    );
}

#[test]
fn minimum_time_search_beats_gate_based_for_a_multi_gate_block() {
    // Three serial single-qubit gates: the gate-based time is their sum, while GRAPE
    // fuses them into one shorter pulse (the "maximal circuit optimization" speedup
    // source of Section 5.1).
    let mut block = Circuit::new(1);
    block.h(0);
    block.rz(0, 1.2);
    block.h(0);
    let prepared = passes::optimize(&block);
    let gate_ns = critical_path_ns(&prepared, &GateTimes::default());
    let target = circuit_unitary(&prepared);
    let device = DeviceModel::qubits_line(1);
    let mut grape = GrapeOptions::fast();
    grape.target_infidelity = 2e-2;
    let search = MinimumTimeOptions::new(0.0, gate_ns).with_precision(0.5);
    let result = minimum_pulse_time(&target, &device, &search, &grape).unwrap();
    assert!(result.converged);
    assert!(
        result.duration_ns < gate_ns,
        "GRAPE {} ns should beat gate-based {} ns",
        result.duration_ns,
        gate_ns
    );
}

#[test]
fn blocking_then_unitary_reconstruction_preserves_semantics() {
    // Splitting a circuit into blocks and multiplying the block unitaries back together
    // (in schedule order on disjoint registers) must reproduce the circuit unitary.
    let mut c = Circuit::new(2);
    c.h(0);
    c.cx(0, 1);
    c.rz(1, 0.7);
    c.cx(0, 1);
    c.rx(0, 0.4);
    let prepared = passes::optimize(&c);
    let blocks = aggregate_blocks(&prepared, 2, ParameterPolicy::Unlimited);
    // All ops land in one 2-qubit block here, so its unitary equals the circuit's.
    assert_eq!(blocks.len(), 1);
    let block_unitary = circuit_unitary(&blocks[0].to_circuit(&prepared));
    let full_unitary = circuit_unitary(&prepared);
    assert!(block_unitary.approx_eq_up_to_phase(&full_unitary, 1e-9));
}

#[test]
fn single_qubit_gate_pulses_match_table1_scale() {
    // The device model reproduces the Table-1 time scale: an X gate needs ~2.5 ns and
    // cannot be done in 1 ns.
    let device = DeviceModel::qubits_line(1);
    let mut grape = GrapeOptions::fast();
    grape.target_infidelity = 1e-2;
    let fast_enough = optimize_pulse(&gates::x(), &device, 3.0, &grape);
    assert!(fast_enough.converged);
    let too_fast = optimize_pulse(&gates::x(), &device, 1.0, &grape);
    assert!(!too_fast.converged);
}
