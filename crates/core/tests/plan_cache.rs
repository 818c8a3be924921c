//! Differential tests of the plan cache: a plan served from the cache must be
//! indistinguishable from one made from scratch, and a compiler that reuses
//! plans must report exactly what a fresh compiler on the same pulse cache does.

use proptest::prelude::*;
use std::sync::Arc;
use vqc_circuit::{Circuit, ParamExpr};
use vqc_core::{
    CacheConfig, CompilerOptions, PartialCompiler, ShardedPulseCache, Strategy as Compile,
};

/// GRAPE effort small enough for debug-build property tests.
fn quick_options() -> CompilerOptions {
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 30;
    options.grape.target_infidelity = 1e-1;
    options.search_precision_ns = 4.0;
    options.max_block_ops = 6;
    options
}

const PARTIAL_AND_FULL: [Compile; 3] = [
    Compile::StrictPartial,
    Compile::FlexiblePartial,
    Compile::FullGrape,
];

#[derive(Debug, Clone)]
enum GateSpec {
    H(usize),
    Cx(usize, usize),
    Rx(usize, f64),
    RzTheta(usize, usize),
}

const QUBITS: usize = 3;
const PARAMETERS: usize = 2;

fn arb_gate() -> impl Strategy<Value = GateSpec> {
    let q = 0..QUBITS;
    prop_oneof![
        q.clone().prop_map(GateSpec::H),
        (q.clone(), 1..QUBITS).prop_map(|(a, step)| GateSpec::Cx(a, (a + step) % QUBITS)),
        (q.clone(), -3.0..3.0f64).prop_map(|(q, angle)| GateSpec::Rx(q, angle)),
        (q, 0..PARAMETERS).prop_map(|(q, index)| GateSpec::RzTheta(q, index)),
    ]
}

fn build(gates: &[GateSpec]) -> Circuit {
    let mut circuit = Circuit::new(QUBITS);
    for gate in gates {
        match *gate {
            GateSpec::H(q) => circuit.h(q),
            GateSpec::Cx(c, t) => circuit.cx(c, t),
            GateSpec::Rx(q, angle) => circuit.rx(q, angle),
            GateSpec::RzTheta(q, index) => circuit.rz_expr(q, ParamExpr::theta(index)),
        }
    }
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A plan the cache serves equals the plan a fresh compiler makes: same
    /// prepared circuit, blocks and gate-based duration, and the same cache key
    /// for every block at every θ.
    #[test]
    fn a_cached_plan_equals_a_cold_plan(
        gates in prop::collection::vec(arb_gate(), 1..12),
        thetas in prop::collection::vec(prop::collection::vec(-3.0..3.0f64, PARAMETERS), 3),
    ) {
        let circuit = build(&gates);
        let reusing = PartialCompiler::new(quick_options());
        for strategy in Compile::all() {
            let first = reusing.plan(&circuit, &thetas[0], strategy).unwrap();
            let before = reusing.plan_cache_stats();
            let served = reusing.plan(&circuit.clone(), &thetas[1], strategy).unwrap();
            let after = reusing.plan_cache_stats();
            // The second call is served from the cache.
            prop_assert_eq!(after.hits, before.hits + 1);
            prop_assert_eq!(after.misses, before.misses);

            let cold = PartialCompiler::new(quick_options())
                .plan(&circuit, &thetas[1], strategy)
                .unwrap();
            for plan in [&first, &served] {
                prop_assert_eq!(&plan.prepared, &cold.prepared);
                prop_assert_eq!(&plan.blocks, &cold.blocks);
                prop_assert_eq!(plan.gate_based_duration_ns, cold.gate_based_duration_ns);
                prop_assert_eq!(plan.strategy, cold.strategy);
            }
            for theta in &thetas {
                for (served_block, cold_block) in served.blocks.iter().zip(&cold.blocks) {
                    prop_assert_eq!(
                        served.dedup_key(served_block, theta),
                        cold.dedup_key(cold_block, theta)
                    );
                }
            }
        }
    }

    /// Whatever the pulse cache holds, a compiler serving its plans from the plan
    /// cache reports exactly what a fresh compiler on the same pulse cache does.
    #[test]
    fn reports_from_reused_plans_equal_a_fresh_compilers(
        gates in prop::collection::vec(arb_gate(), 1..9),
        thetas in prop::collection::vec(prop::collection::vec(-3.0..3.0f64, PARAMETERS), 3),
    ) {
        let circuit = build(&gates);
        let pulses = Arc::new(ShardedPulseCache::new(CacheConfig {
            seeds: true,
            ..CacheConfig::default()
        }));
        let reusing = PartialCompiler::with_cache(quick_options(), pulses.clone());
        for strategy in PARTIAL_AND_FULL {
            for theta in &thetas {
                // Whatever this binding still needs is compiled here, once.
                let cold = reusing.compile(&circuit, theta, strategy).unwrap();
                let fresh = PartialCompiler::with_cache(quick_options(), pulses.clone())
                    .compile(&circuit, theta, strategy)
                    .unwrap();
                let reused = reusing.compile(&circuit, theta, strategy).unwrap();
                prop_assert_eq!(&reused, &fresh);
                // The warm reports differ from the cold one only in what the cold
                // call paid for.
                prop_assert_eq!(reused.pulse_duration_ns, cold.pulse_duration_ns);
                prop_assert_eq!(reused.num_blocks, cold.num_blocks);
                for (warm, paid) in reused.blocks.iter().zip(&cold.blocks) {
                    prop_assert_eq!(warm.duration_ns, paid.duration_ns);
                    prop_assert_eq!(warm.converged, paid.converged);
                    prop_assert_eq!(warm.grape_iterations, paid.grape_iterations);
                }
            }
        }
        let stats = reusing.plan_cache_stats();
        prop_assert_eq!(stats.misses, PARTIAL_AND_FULL.len() as u64);
        prop_assert_eq!(stats.hits, (PARTIAL_AND_FULL.len() * (2 * thetas.len() - 1)) as u64);
    }
}

/// The cache holds a bounded number of plans under a stream of circuits that are
/// each planned once, and a plan that keeps being asked for between them stays.
#[test]
fn one_off_circuits_do_not_grow_the_cache_or_evict_a_plan_in_use() {
    let compiler = PartialCompiler::new(quick_options());
    let ansatz = build(&[
        GateSpec::H(0),
        GateSpec::Cx(0, 1),
        GateSpec::RzTheta(1, 0),
        GateSpec::Cx(0, 1),
    ]);
    compiler
        .plan(&ansatz, &[0.1], Compile::StrictPartial)
        .unwrap();
    let mut bound = 0;
    for i in 0..200 {
        let one_off = ansatz.bind(&[0.01 * i as f64]);
        compiler.plan(&one_off, &[], Compile::FullGrape).unwrap();
        let stats = compiler.plan_cache_stats();
        bound = bound.max(stats.plans);
        let hits = stats.hits;
        compiler
            .plan(&ansatz, &[0.3], Compile::StrictPartial)
            .unwrap();
        assert_eq!(
            compiler.plan_cache_stats().hits,
            hits + 1,
            "the ansatz plan survives one-off {i}"
        );
    }
    let stats = compiler.plan_cache_stats();
    assert_eq!(
        stats.plans, bound,
        "the cache stopped growing at its capacity"
    );
    assert!(bound < 200 && stats.misses == 201);
}
