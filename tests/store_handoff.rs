//! Tier-1 smoke test of the one pulse store: what the sequential compiler
//! pre-computes, a service warm-starts from.

use vqc::apps::molecules::Molecule;
use vqc::apps::uccsd::uccsd_circuit;
use vqc::core::{CompilerOptions, PartialCompiler, PulseCache, Strategy};
use vqc::runtime::{persist, CompilationRuntime, RuntimeOptions};

/// `warm_path.rs`'s effort: plumbing is under test, not pulse quality.
fn smoke_options() -> CompilerOptions {
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 20;
    options.grape.target_infidelity = 2e-1;
    options.search_precision_ns = 8.0;
    options
}

#[test]
fn a_runtime_warm_started_from_the_sequential_compilers_store_runs_no_grape() {
    let circuit = uccsd_circuit(Molecule::H2);
    let parameters = Molecule::H2.num_parameters();
    let strategies = [Strategy::StrictPartial, Strategy::FlexiblePartial];
    let sequential = PartialCompiler::new(smoke_options());
    for strategy in strategies {
        let report = sequential
            .compile(&circuit, &vec![0.4; parameters], strategy)
            .expect("the pre-compute compiles");
        assert!(report.precompute.grape_iterations > 0);
    }
    let store = sequential.cache();
    let stored = (store.num_blocks() + store.num_tunings()) as u64;

    let dir = std::env::temp_dir().join(format!("vqc_store_handoff_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sequential.snapshot");
    persist::save_snapshot(&path, &sequential.shared_cache().snapshot()).unwrap();
    let runtime = CompilationRuntime::with_warm_start(
        smoke_options(),
        RuntimeOptions::with_workers(2),
        &path,
    )
    .expect("a snapshot of the sequential compiler's store loads");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(runtime.metrics().cache.restored, stored);
    assert_eq!(runtime.cache().num_seeds(), store.num_seeds());

    let theta: Vec<f64> = (0..parameters).map(|i| 0.9 - 0.7 * i as f64).collect();
    for strategy in strategies {
        let report = runtime
            .compile(&circuit, &theta, strategy)
            .expect("compiles");
        let reference = sequential.compile(&circuit, &theta, strategy).unwrap();
        assert_eq!(report, reference, "{strategy}");
        assert_eq!(report.precompute.grape_iterations, 0);
        assert!(report.blocks.iter().all(|b| b.cached || !b.used_grape));
    }
    assert_eq!(runtime.metrics().unique_compilations, 0);
}
