//! Tier-1 smoke test of the warm path: after the pre-compute, a variational
//! iteration through the service is a walk over stored plans and cached blocks.

use vqc::apps::molecules::Molecule;
use vqc::apps::uccsd::uccsd_circuit;
use vqc::core::{CompilerOptions, PartialCompiler, Strategy};
use vqc::runtime::{CompilationRuntime, RuntimeOptions, Submission};

/// Plumbing is under test, not pulse quality: GRAPE effort is cut until the H2
/// pre-compute takes a fraction of a second in a debug build.
fn smoke_options() -> CompilerOptions {
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 20;
    options.grape.target_infidelity = 2e-1;
    options.search_precision_ns = 8.0;
    options
}

#[test]
fn warm_iterations_replan_nothing_compile_nothing_and_match_the_sequential_compiler() {
    let circuit = uccsd_circuit(Molecule::H2);
    let parameters = Molecule::H2.num_parameters();
    let strategies = [Strategy::StrictPartial, Strategy::FlexiblePartial];
    let runtime = CompilationRuntime::new(smoke_options(), RuntimeOptions::with_workers(2));
    for strategy in strategies {
        let report = runtime
            .compile(&circuit, &vec![0.4; parameters], strategy)
            .expect("the pre-compute compiles");
        assert!(report.precompute.grape_iterations > 0);
    }
    let compiled = runtime.metrics().unique_compilations;
    let planned = runtime.compiler().plan_cache_stats();
    assert_eq!(planned.misses, 2, "one plan per strategy");

    // The reference: the sequential compiler over the very same pulse cache.
    let sequential =
        PartialCompiler::with_cache(smoke_options(), runtime.compiler().shared_cache());
    let mut served = 0;
    for step in 1..=3 {
        let theta: Vec<f64> = (0..parameters)
            .map(|i| 0.9 * step as f64 - 0.7 * i as f64)
            .collect();
        for strategy in strategies {
            let handle = runtime
                .submit(Submission::single(circuit.clone(), theta.clone(), strategy))
                .expect("the service admits the iteration");
            let report = handle
                .wait()
                .expect("not canceled")
                .remove(0)
                .expect("compiles");
            let reference = sequential.compile(&circuit, &theta, strategy).unwrap();
            assert_eq!(report, reference, "{strategy} at step {step}");
            assert_eq!(report.precompute.grape_iterations, 0);
            assert!(report.blocks.iter().all(|b| b.cached || !b.used_grape));
            served += 1;
        }
    }
    assert_eq!(runtime.metrics().unique_compilations, compiled);
    let after = runtime.compiler().plan_cache_stats();
    assert_eq!(
        after.misses, planned.misses,
        "no iteration was planned again"
    );
    assert_eq!(after.hits, planned.hits + served);
}
