//! Regression tests for the runtime's accounting under bounded caches: every real
//! GRAPE compilation is counted no matter which dedup path ran it, and warm starts
//! do not pollute compile-time metrics.

use vqc_circuit::{Circuit, ParamExpr};
use vqc_core::{CompilerOptions, PulseCache, Strategy};
use vqc_runtime::{CacheConfig, CompilationRuntime, CompileJob, RuntimeOptions};

fn fast_options() -> CompilerOptions {
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 80;
    options.grape.target_infidelity = 5e-2;
    options.search_precision_ns = 2.0;
    options
}

/// Options with a single-shard, single-entry store: every second distinct block
/// evicts the first, so "cached forever" assumptions break immediately.
fn capacity_one_options(workers: usize) -> RuntimeOptions {
    let mut options = RuntimeOptions::with_workers(workers);
    options.cache = CacheConfig {
        shards: 1,
        max_entries_per_shard: Some(1),
        ..CacheConfig::default()
    };
    options
}

/// A circuit aggregating into one Fixed multi-gate block (GRAPE work, cached under
/// a bound key) plus one parameterized single-gate block (lookup, uncached).
fn variational_circuit(phase: f64) -> Circuit {
    let mut circuit = Circuit::new(2);
    circuit.h(0);
    circuit.h(1);
    circuit.cx(0, 1);
    circuit.rx(0, phase);
    circuit.cx(0, 1);
    circuit.rz_expr(1, ParamExpr::theta(0));
    circuit
}

/// With a capacity-1 cache, alternating between two distinct blocks defeats the
/// cache entirely: every compile is a miss that performs real GRAPE work, and
/// `unique_compilations` must count every one of them. (The seed only counted the
/// in-flight *leader* path, so any recompilation performed by a follower — after
/// its leader's entry was evicted or its leader failed — went uncounted.)
#[test]
fn capacity_one_cache_counts_every_real_compilation_sequentially() {
    let runtime = CompilationRuntime::new(fast_options(), capacity_one_options(1));
    let a = variational_circuit(0.4);
    let b = variational_circuit(1.7);
    let params = [0.9];
    for circuit in [&a, &b, &a, &b, &a] {
        runtime
            .compile(circuit, &params, Strategy::StrictPartial)
            .unwrap();
    }
    let metrics = runtime.metrics();
    // Strict partial does no tuning lookups, so every cache miss is a block miss,
    // and every block miss runs GRAPE and must be counted.
    assert_eq!(metrics.cache.misses, 5, "capacity 1 defeats alternation");
    assert_eq!(
        metrics.unique_compilations, metrics.cache.misses,
        "every miss performed real GRAPE work and must be counted"
    );
    assert_eq!(runtime.cache().num_blocks(), 1);
    assert_eq!(metrics.cache.evictions, 4);
}

/// The same invariant under contention: concurrent duplicate requests against a
/// capacity-1 cache coalesce in flight, and any follower whose entry was evicted
/// before it woke performs — and must count — a real compilation.
#[test]
fn capacity_one_cache_counts_every_real_compilation_under_contention() {
    let runtime = CompilationRuntime::new(fast_options(), capacity_one_options(4));
    // Each batch floods the pool with duplicates of two distinct blocks, so in
    // every round the two leaders' flights carry coalesced followers while the
    // capacity-1 shard guarantees one leader's insert evicts the other's entry —
    // waking followers look up an evicted key, miss, and recompile. Several rounds
    // make a follower-path recompile (the case the seed failed to count)
    // overwhelmingly likely under any interleaving.
    let jobs: Vec<CompileJob> = (0..12)
        .map(|i| {
            CompileJob::new(
                variational_circuit(0.4 + 1.3 * (i % 2) as f64),
                vec![0.9],
                Strategy::StrictPartial,
            )
        })
        .collect();
    for _ in 0..5 {
        for report in runtime.compile_batch(&jobs) {
            report.unwrap();
        }
    }
    let metrics = runtime.metrics();
    assert!(
        metrics.coalesced_waits > 0,
        "duplicate in-flight requests must produce followers for this test to bite"
    );
    assert_eq!(
        metrics.unique_compilations, metrics.cache.misses,
        "every block-lookup miss ran GRAPE, whichever dedup ticket held it"
    );
    assert!(
        metrics.unique_compilations >= 2,
        "two distinct blocks exist"
    );
}

/// Warm-starting from a snapshot restores entries without fabricating compile-time
/// activity: insertions/evictions/hits/misses stay zero and only `restored` moves.
#[test]
fn warm_start_does_not_pollute_compile_time_metrics() {
    let dir = std::env::temp_dir().join("vqc_runtime_warm_metrics_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.snapshot");

    let first = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(2));
    first
        .compile(&variational_circuit(0.8), &[1.3], Strategy::StrictPartial)
        .unwrap();
    first.save_snapshot(&path).unwrap();
    let saved = first.cache().num_blocks();
    assert!(saved > 0);

    let second =
        CompilationRuntime::with_warm_start(fast_options(), RuntimeOptions::with_workers(2), &path)
            .unwrap();
    let metrics = second.metrics();
    assert_eq!(metrics.cache.hits, 0);
    assert_eq!(metrics.cache.misses, 0);
    assert_eq!(
        metrics.cache.insertions, 0,
        "absorbed snapshot entries are not compile-time insertions"
    );
    assert_eq!(metrics.cache.evictions, 0);
    assert_eq!(metrics.cache.restored, saved as u64);
    assert_eq!(metrics.unique_compilations, 0);
    assert_eq!(second.cache().num_blocks(), saved);

    std::fs::remove_dir_all(&dir).ok();
}
