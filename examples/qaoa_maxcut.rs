//! End-to-end QAOA MAXCUT on a random 3-regular graph, followed by compilation of the
//! QAOA circuit through the runtime's submission front-end: two prioritized clients
//! submit their parameter-binding batches concurrently and wait on job handles.
//!
//! Run with `cargo run --release --example qaoa_maxcut`.

use vqc::apps::graphs::Graph;
use vqc::apps::optimizer::NelderMead;
use vqc::apps::qaoa::qaoa_circuit;
use vqc::apps::variational::run_qaoa;
use vqc::core::{CompilerOptions, Strategy};
use vqc::runtime::{CompilationRuntime, Priority, RuntimeOptions, Submission};

fn main() {
    let graph = Graph::three_regular(6, 7).expect("3-regular graphs exist on 6 nodes");
    println!(
        "QAOA MAXCUT on a 3-regular graph with {} nodes and {} edges (max cut = {})",
        graph.num_nodes(),
        graph.num_edges(),
        graph.max_cut()
    );

    let optimizer = NelderMead {
        max_evaluations: 500,
        ..NelderMead::default()
    };
    for p in [1usize, 2] {
        let result = run_qaoa(&graph, p, &optimizer);
        println!(
            "  p={p}: expected cut {:.2} of {}  (approximation ratio {:.2}, {} evaluations)",
            result.expected_cut, result.max_cut, result.approximation_ratio, result.evaluations
        );
    }

    // Compile the p=1 circuit at several (γ, β) bindings through the service
    // front-end: an interactive client submits its strict-partial batch at high
    // priority while a background client queues the gate-based baseline at low
    // priority. Both handles are collected afterwards — the scheduler interleaves
    // the work, reusing whatever Fixed blocks exist across all bindings.
    let circuit = qaoa_circuit(&graph, 1);
    let runtime = CompilationRuntime::new(CompilerOptions::fast(), RuntimeOptions::default());
    let bindings = vec![vec![0.4, 0.8], vec![0.9, 0.3], vec![1.3, 1.1]];
    println!(
        "\nCompiling the p=1 QAOA circuit at {} parameter bindings (two prioritized clients):",
        bindings.len()
    );
    let submissions = [
        (Strategy::StrictPartial, Priority::HIGH),
        (Strategy::GateBased, Priority::LOW),
    ]
    .map(|(strategy, priority)| {
        let handle = runtime
            .submit(
                Submission::iterations(circuit.clone(), bindings.clone(), strategy)
                    .with_priority(priority)
                    .with_client(priority.0 as u64),
            )
            .expect("the admission queue is empty");
        (strategy, handle)
    });
    for (strategy, handle) in submissions {
        let reports = handle.wait().expect("not canceled");
        let report = reports[0].as_ref().expect("QAOA circuit compiles");
        println!(
            "  {:<18} {:>8.1} ns  ({:.2}x speedup)",
            strategy.name(),
            report.pulse_duration_ns,
            report.pulse_speedup()
        );
    }
    let metrics = runtime.metrics();
    println!(
        "\nRuntime metrics: {} submissions, {} cache hits, {} misses, {} unique block compilations.",
        metrics.submissions, metrics.cache.hits, metrics.cache.misses, metrics.unique_compilations
    );
}
