//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper. They all
//! read the `VQC_EFFORT` environment variable (`fast` — the default, `standard`, or
//! `full`) to decide how much GRAPE work to spend; `fast` regenerates the qualitative
//! shape of every result in minutes, while `full` approaches the paper's settings (and
//! its enormous compute bill). The raw measurements behind EXPERIMENTS.md were produced
//! with these binaries.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::time::Instant;
use vqc_apps::molecules::Molecule;
use vqc_apps::qaoa::QaoaBenchmark;
use vqc_core::{CompilationReport, CompilerOptions, Strategy};
use vqc_runtime::{CompilationRuntime, RuntimeOptions};

/// How much compute a harness run is allowed to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Coarse GRAPE settings and reduced benchmark subsets; minutes of compute.
    Fast,
    /// Intermediate settings.
    Standard,
    /// Paper-scale settings; expect very long runtimes.
    Full,
}

impl Effort {
    /// Reads the effort level from the `VQC_EFFORT` environment variable.
    pub fn from_env() -> Effort {
        match std::env::var("VQC_EFFORT")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "full" | "paper" => Effort::Full,
            "standard" | "std" => Effort::Standard,
            _ => Effort::Fast,
        }
    }

    /// The compiler options associated with this effort level.
    pub fn compiler_options(&self) -> CompilerOptions {
        match self {
            Effort::Fast => CompilerOptions::fast(),
            Effort::Standard => CompilerOptions::standard(),
            Effort::Full => CompilerOptions::paper(),
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Effort::Fast => "fast",
            Effort::Standard => "standard",
            Effort::Full => "full",
        }
    }

    /// The VQE molecules exercised at this effort level (larger molecules cost hours of
    /// GRAPE time and are only attempted at higher effort).
    pub fn vqe_molecules(&self) -> Vec<Molecule> {
        match self {
            Effort::Fast => vec![Molecule::H2, Molecule::LiH],
            Effort::Standard => vec![Molecule::H2, Molecule::LiH, Molecule::BeH2],
            Effort::Full => Molecule::all().to_vec(),
        }
    }

    /// The QAOA `p` values exercised for pulse-level (GRAPE) studies at this effort
    /// level. Table 3 (gate-based only) always covers `p = 1..=8`.
    pub fn qaoa_rounds(&self) -> Vec<usize> {
        match self {
            Effort::Fast => vec![1, 2],
            Effort::Standard => vec![1, 3, 5],
            Effort::Full => vec![1, 2, 3, 4, 5, 6, 7, 8],
        }
    }
}

/// Prints the standard harness header: which experiment, which effort level.
pub fn print_header(experiment: &str, effort: Effort) {
    println!("=== {experiment} (effort: {}) ===", effort.label());
    println!(
        "    set VQC_EFFORT=fast|standard|full to trade fidelity of the reproduction against compute\n"
    );
}

/// Builds the concurrent compilation runtime the harness binaries share, from
/// explicit compiler options.
///
/// Environment knobs:
///
/// * `VQC_WORKERS=<n>` — worker count (default: available parallelism, capped at
///   8), honored by `RuntimeOptions::default()` itself so tests and examples pick
///   it up too.
/// * `VQC_QUEUE_DEPTH=<n>` — admission-queue depth of the service front-end
///   (default 64): at most `n` submissions may be outstanding; a further `submit`
///   parks its thread until a slot frees. Honored by `RuntimeOptions::default()`.
/// * `VQC_CACHE_BLOCKS=<n>` — bound the pulse store to `n` entries of each kind
///   per shard (default: unbounded); a full map drops the entry with the smallest
///   `recompute cost × (1 + hits)`. Honored by `CacheConfig::default()`, like
///   `VQC_TT`.
/// * `VQC_SNAPSHOT=<path>` — warm-start from (and persist to) this cache snapshot;
///   re-running a harness binary then skips all GRAPE work its previous run already
///   paid for. Pair with [`persist_if_requested`] at the end of `main`.
///
/// Garbage values fall back to the defaults.
pub fn runtime_with_options(options: CompilerOptions) -> CompilationRuntime {
    let runtime_options = RuntimeOptions::default();
    if let Ok(path) = std::env::var("VQC_SNAPSHOT") {
        match CompilationRuntime::with_warm_start(options.clone(), runtime_options.clone(), &path) {
            Ok(runtime) => {
                println!(
                    "    warm-started {} cached blocks / {} tunings from {path}\n",
                    vqc_core::PulseCache::num_blocks(runtime.cache()),
                    vqc_core::PulseCache::num_tunings(runtime.cache()),
                );
                return runtime;
            }
            Err(error) => println!("    (snapshot {path} not loaded: {error}; starting cold)\n"),
        }
    }
    CompilationRuntime::new(options, runtime_options)
}

/// [`runtime_with_options`] at an effort level's standard compiler options.
pub fn effort_runtime(effort: Effort) -> CompilationRuntime {
    runtime_with_options(effort.compiler_options())
}

/// Writes the runtime's cache to the `VQC_SNAPSHOT` path, if one is configured.
pub fn persist_if_requested(runtime: &CompilationRuntime) {
    if let Ok(path) = std::env::var("VQC_SNAPSHOT") {
        match runtime.save_snapshot(&path) {
            Ok(()) => println!("\nsaved pulse-cache snapshot to {path}"),
            Err(error) => println!("\nfailed to save pulse-cache snapshot to {path}: {error}"),
        }
    }
}

/// Compiles one circuit under every strategy on the shared runtime (each strategy's
/// independent blocks run in parallel on the worker pool) and returns the reports in
/// [gate-based, strict, flexible, full-GRAPE] order, printing a one-line summary per
/// strategy as it goes.
///
/// Strategies are compiled in paper order rather than as one concurrent batch on
/// purpose: the strategies share the pulse cache, so batching them together would
/// make the *attribution* of GRAPE latency (strict's pre-compute vs full GRAPE's
/// runtime) depend on which worker happens to lead a shared block's flight. Batching
/// belongs to same-strategy workloads — see [`compile_iteration_batch`].
pub fn compile_all_strategies(
    runtime: &CompilationRuntime,
    name: &str,
    circuit: &vqc_circuit::Circuit,
    params: &[f64],
) -> Vec<CompilationReport> {
    let mut reports = Vec::new();
    for strategy in Strategy::all() {
        let started = Instant::now();
        let report = runtime
            .compile(circuit, params, strategy)
            // audit:allow(unwrap): benchmark fixtures are known-compilable; aborting the run on failure is the right outcome
            .expect("benchmark circuits compile");
        println!(
            "  {name:<28} {strategy:<17} pulse {:>9.1} ns  speedup {:>5.2}x  (compile wall {:>6.1} s)",
            report.pulse_duration_ns,
            report.pulse_speedup(),
            started.elapsed().as_secs_f64()
        );
        reports.push(report);
    }
    reports
}

/// Compiles one circuit at many parameter bindings under one strategy as a single
/// batch — the variational-loop workload the runtime's cross-request cache reuse is
/// built for. Returns per-iteration reports in input order.
pub fn compile_iteration_batch(
    runtime: &CompilationRuntime,
    circuit: &vqc_circuit::Circuit,
    parameter_sets: &[Vec<f64>],
    strategy: Strategy,
) -> Vec<CompilationReport> {
    runtime
        .compile_iterations(circuit, parameter_sets, strategy)
        .into_iter()
        // audit:allow(unwrap): benchmark fixtures are known-compilable; aborting the run on failure is the right outcome
        .map(|report| report.expect("benchmark circuits compile"))
        .collect()
}

/// A deterministic parameter binding of the requested length, used whenever the paper
/// says "a random parametrization was set".
pub fn reference_parameters(count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| 0.37 + 0.61 * (i as f64 * 1.7).sin())
        .collect()
}

/// The QAOA benchmark instance (graph family, size, rounds) used by the pulse-level
/// tables at a given effort level.
pub fn qaoa_instance(num_nodes: usize, three_regular: bool, p: usize) -> QaoaBenchmark {
    QaoaBenchmark {
        num_nodes,
        p,
        three_regular,
        seed: 17 + num_nodes as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_parsing_defaults_to_fast() {
        // Environment-independent checks of the mapping.
        assert_eq!(Effort::Fast.label(), "fast");
        assert_eq!(Effort::Full.vqe_molecules().len(), 5);
        assert!(Effort::Fast.vqe_molecules().len() < Effort::Full.vqe_molecules().len());
        assert!(Effort::Fast.qaoa_rounds().len() < Effort::Full.qaoa_rounds().len());
    }

    #[test]
    fn reference_parameters_are_deterministic() {
        assert_eq!(reference_parameters(5), reference_parameters(5));
        assert_eq!(reference_parameters(3).len(), 3);
    }

    #[test]
    fn qaoa_instance_matches_table3_seeding() {
        let instance = qaoa_instance(6, true, 4);
        assert_eq!(instance.seed, 23);
        assert_eq!(instance.name(), "3-Regular N=6 p=4");
    }
}
