//! Cross-crate integration tests: benchmark circuits flow through the full compilation
//! pipeline and the strategy orderings the paper reports hold.

use vqc::apps::graphs::Graph;
use vqc::apps::molecules::Molecule;
use vqc::apps::qaoa::qaoa_circuit;
use vqc::apps::uccsd::uccsd_circuit;
use vqc::circuit::timing::critical_path_ns;
use vqc::core::{CompilerOptions, PartialCompiler, Strategy};

fn fast_compiler() -> PartialCompiler {
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 120;
    options.grape.target_infidelity = 3e-2;
    options.search_precision_ns = 1.5;
    PartialCompiler::new(options)
}

#[test]
fn qaoa_cycle_strategies_preserve_paper_ordering() {
    let graph = Graph::cycle(4);
    let circuit = qaoa_circuit(&graph, 1);
    let params = [0.5, 0.9];
    let compiler = fast_compiler();

    let gate = compiler
        .compile(&circuit, &params, Strategy::GateBased)
        .unwrap();
    let strict = compiler
        .compile(&circuit, &params, Strategy::StrictPartial)
        .unwrap();
    let flexible = compiler
        .compile(&circuit, &params, Strategy::FlexiblePartial)
        .unwrap();
    let full = compiler
        .compile(&circuit, &params, Strategy::FullGrape)
        .unwrap();

    // Pulse-duration ordering: every strategy is at least as fast as gate-based, and
    // full GRAPE is the fastest.
    for report in [&strict, &flexible, &full] {
        assert!(report.pulse_duration_ns <= gate.pulse_duration_ns + 1e-9);
    }
    assert!(full.pulse_duration_ns <= strict.pulse_duration_ns + 1e-9);
    assert!(full.pulse_duration_ns <= flexible.pulse_duration_ns + 1e-9);

    // Latency attribution: strict pays nothing at runtime, full pays everything there.
    assert_eq!(strict.runtime.grape_iterations, 0);
    assert!(strict.precompute.grape_iterations > 0);
    assert_eq!(full.precompute.grape_iterations, 0);
    assert!(full.runtime.grape_iterations > 0);
    assert!(flexible.runtime.grape_iterations < full.runtime.grape_iterations);
}

#[test]
fn h2_uccsd_compiles_under_every_strategy() {
    let circuit = uccsd_circuit(Molecule::H2);
    let params = vec![0.4; Molecule::H2.num_parameters()];
    let compiler = fast_compiler();
    let gate = compiler
        .compile(&circuit, &params, Strategy::GateBased)
        .unwrap();
    assert!(gate.pulse_duration_ns > 0.0);
    let strict = compiler
        .compile(&circuit, &params, Strategy::StrictPartial)
        .unwrap();
    assert!(strict.pulse_duration_ns <= gate.pulse_duration_ns + 1e-9);
    assert!(strict.pulse_speedup() >= 1.0 - 1e-9);
    // A second compile at new parameters reuses the whole Fixed-block library.
    let again = compiler
        .compile(&circuit, &[1.2; 3], Strategy::StrictPartial)
        .unwrap();
    assert_eq!(again.precompute.grape_iterations, 0);
}

#[test]
fn h2o_plans_under_strict_and_full_grape() {
    let circuit = uccsd_circuit(Molecule::H2O);
    let params = vec![0.4; Molecule::H2O.num_parameters()];
    let compiler = fast_compiler();
    for (strategy, expected_blocks) in
        [(Strategy::StrictPartial, 3068), (Strategy::FullGrape, 1908)]
    {
        let plan = compiler.plan(&circuit, &params, strategy).unwrap();
        assert_eq!(plan.blocks.len(), expected_blocks, "{strategy:?}");
        assert!(plan.blocks.iter().all(|block| block.qubits.len() <= 4));
        assert_eq!(
            plan.gate_based_duration_ns,
            critical_path_ns(&plan.prepared, &compiler.options().gate_times)
        );
    }
}

#[test]
fn gate_based_runtime_grows_linearly_in_qaoa_rounds() {
    // The Figure 2 / Figure 6 baseline behaviour.
    let graph = Graph::three_regular(6, 5).unwrap();
    let compiler = fast_compiler();
    let mut previous = 0.0;
    let mut increments = Vec::new();
    for p in 1..=4 {
        let runtime = compiler.gate_based_runtime_ns(&qaoa_circuit(&graph, p));
        assert!(runtime > previous);
        increments.push(runtime - previous);
        previous = runtime;
    }
    // Successive increments are roughly equal (linear growth).
    let first = increments[1];
    for inc in &increments[1..] {
        assert!(
            (inc - first).abs() < 0.35 * first,
            "increments {increments:?}"
        );
    }
}

#[test]
fn compilation_reports_are_internally_consistent() {
    let graph = Graph::cycle(4);
    let circuit = qaoa_circuit(&graph, 1);
    let compiler = fast_compiler();
    let report = compiler
        .compile(&circuit, &[0.3, 0.7], Strategy::StrictPartial)
        .unwrap();
    assert_eq!(report.num_blocks, report.blocks.len());
    for block in &report.blocks {
        assert!(block.duration_ns <= block.gate_based_ns + 1e-9);
        assert!(!block.qubits.is_empty());
        assert!(block.num_ops > 0);
    }
    // The scheduled total can never exceed the sum of block durations.
    let serial: f64 = report.blocks.iter().map(|b| b.duration_ns).sum();
    assert!(report.pulse_duration_ns <= serial + 1e-9);
}
