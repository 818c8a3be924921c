//! `PartialCompiler::compile` overlaps a plan's store chains on the calling
//! thread and its helpers; it must leave exactly what the block-order loop
//! leaves.
//!
//! Each case is one circuit under one strategy, compiled along a θ walk at
//! [`CompilerOptions::fast`] twice, each time by a fresh compiler on a store of
//! the same configuration: once through `compile`, once through the public
//! block-order loop (`plan`, then `compile_block_outcome` for each block in
//! order, then `assemble`). At every step the two reports must carry the same
//! blocks (durations to the bit, iterations, flags) and totals, and the two
//! stores the same counters and contents. Timings are not compared. The H2
//! and QAOA cases run in the default (debug) suite; LiH runs in release only:
//!
//! ```text
//! cargo test --release --test compile_chains -- --include-ignored
//! ```

use std::sync::Arc;
use vqc::apps::graphs::Graph;
use vqc::apps::molecules::Molecule;
use vqc::apps::qaoa::qaoa_circuit;
use vqc::apps::uccsd::uccsd_circuit;
use vqc::circuit::Circuit;
use vqc::core::{
    CacheConfig, CacheMetrics, CompilationReport, CompilerOptions, PartialCompiler, PulseCache,
    ShardedPulseCache, Strategy,
};

/// Parameter bindings per case: a cold step, then one at a fresh θ that the
/// seeds, tunings and Fixed blocks of the first serve.
const STEPS: usize = 2;

/// The strategies every molecule case runs under, with their short names.
const STRATEGIES: [(&str, Strategy); 3] = [
    ("strict", Strategy::StrictPartial),
    ("flexible", Strategy::FlexiblePartial),
    ("full", Strategy::FullGrape),
];

/// One circuit under one strategy.
struct Case {
    name: String,
    circuit: Circuit,
    strategy: Strategy,
}

fn molecule_cases(label: &str, molecule: Molecule) -> Vec<Case> {
    STRATEGIES
        .iter()
        .map(|&(short, strategy)| Case {
            name: format!("{label} {short}"),
            circuit: uccsd_circuit(molecule),
            strategy,
        })
        .collect()
}

/// The cases a debug build affords: H2 under all three strategies and QAOA
/// MAXCUT on a 3-regular graph of six nodes at one round, strict.
fn fast_cases() -> Vec<Case> {
    let mut cases = molecule_cases("h2", Molecule::H2);
    let graph = Graph::three_regular(6, 7).expect("a 3-regular graph on 6 nodes exists");
    cases.push(Case {
        name: "qaoa6 strict".to_string(),
        circuit: qaoa_circuit(&graph, 1),
        strategy: Strategy::StrictPartial,
    });
    cases
}

/// Binding `step` of the walk: every parameter moves by its own stride.
fn theta(parameters: usize, step: usize) -> Vec<f64> {
    (0..parameters)
        .map(|i| 0.3 + 0.45 * step as f64 - 0.17 * i as f64)
        .collect()
}

/// The public block-order loop `compile` must equal.
fn block_order(compiler: &PartialCompiler, case: &Case, params: &[f64]) -> CompilationReport {
    let plan = compiler
        .plan(&case.circuit, params, case.strategy)
        .unwrap_or_else(|e| panic!("{} plans: {e}", case.name));
    let outcomes = plan
        .blocks
        .iter()
        .map(|block| {
            compiler
                .compile_block_outcome(&plan, block, params)
                .unwrap_or_else(|e| panic!("{} compiles a block: {e}", case.name))
        })
        .collect();
    compiler.assemble(&plan, outcomes)
}

/// Everything of a report but its timings: the totals, then per block the
/// duration's bits, the iterations and the flags.
type Outcome = ([u64; 5], Vec<(u64, usize, [bool; 3])>);

fn outcome(report: &CompilationReport) -> Outcome {
    let totals = [
        report.pulse_duration_ns.to_bits(),
        report.gate_based_duration_ns.to_bits(),
        report.num_blocks as u64,
        report.precompute.grape_iterations as u64,
        report.runtime.grape_iterations as u64,
    ];
    let blocks = report.blocks.iter().map(|b| {
        (
            b.duration_ns.to_bits(),
            b.grape_iterations,
            [b.used_grape, b.converged, b.cached],
        )
    });
    (totals, blocks.collect())
}

/// A store's entries (blocks, tunings and seeds, pulses included), rendered
/// and sorted: equal stores render equal.
fn contents(compiler: &PartialCompiler) -> Vec<String> {
    let snapshot = compiler.cache().snapshot();
    let mut entries: Vec<String> = (snapshot.blocks.iter().map(|e| format!("{e:?}")))
        .chain(snapshot.tunings.iter().map(|e| format!("{e:?}")))
        .chain(snapshot.seeds.iter().map(|e| format!("{e:?}")))
        .collect();
    entries.sort();
    entries
}

/// Walks one case through `compile` and through the block-order loop, each on
/// a fresh compiler over a fresh store from `store`, checking the two agree at
/// every step. Returns the store counters the walk ended with.
fn check_case(case: &Case, store: impl Fn() -> Arc<ShardedPulseCache>) -> CacheMetrics {
    let chains = PartialCompiler::with_cache(CompilerOptions::fast(), store());
    let ordered = PartialCompiler::with_cache(CompilerOptions::fast(), store());
    for step in 0..STEPS {
        let params = theta(case.circuit.num_parameters(), step);
        let report = chains
            .compile(&case.circuit, &params, case.strategy)
            .unwrap_or_else(|e| panic!("{} compiles at step {step}: {e}", case.name));
        let expected = block_order(&ordered, case, &params);
        let name = &case.name;
        assert_eq!(outcome(&report), outcome(&expected), "{name} step {step}");
        assert_eq!(
            chains.cache().metrics(),
            ordered.cache().metrics(),
            "{name} step {step}: store counters"
        );
        assert_eq!(
            chains.cache().warm_start_stats(),
            ordered.cache().warm_start_stats(),
            "{name} step {step}: warm-start counters"
        );
        assert_eq!(
            contents(&chains),
            contents(&ordered),
            "{name} step {step}: store contents"
        );
    }
    chains.cache().metrics()
}

/// A store at the environment's configuration, as `PartialCompiler::new`
/// builds.
fn default_store() -> Arc<ShardedPulseCache> {
    Arc::new(ShardedPulseCache::default())
}

#[test]
fn h2_and_qaoa_compile_as_the_block_order_loop() {
    for case in &fast_cases() {
        check_case(case, default_store);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn lih_compiles_as_the_block_order_loop() {
    for case in &molecule_cases("lih", Molecule::LiH) {
        check_case(case, default_store);
    }
}

#[test]
fn a_bounded_store_compiles_as_the_block_order_loop() {
    // One shard of two entries per map: the walk's inserts evict, and which
    // entries survive depends on the order they were filed in.
    let bounded = || {
        Arc::new(ShardedPulseCache::new(CacheConfig {
            shards: 1,
            max_entries_per_shard: Some(2),
            seeds: true,
        }))
    };
    let case = &molecule_cases("h2", Molecule::H2)[2];
    assert!(
        check_case(case, bounded).evictions > 0,
        "the bound must evict for the case to test it"
    );
}
