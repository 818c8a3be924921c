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
use vqc_apps::graphs::Graph;
use vqc_apps::molecules::Molecule;
use vqc_apps::qaoa::{qaoa_circuit, QaoaBenchmark};
use vqc_apps::uccsd::uccsd_circuit;
use vqc_circuit::timing::{critical_path_ns, GateTimes};
use vqc_circuit::{passes, Circuit};
use vqc_core::{CompilationReport, CompilerOptions, Strategy};
use vqc_pulse::minimum_time::{minimum_pulse_time, MinimumTimeOptions};
use vqc_pulse::realistic::RealisticSettings;
use vqc_pulse::DeviceModel;
use vqc_runtime::{CompilationRuntime, RuntimeOptions};
use vqc_sim::circuit_unitary;

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

/// Table 5's two circuits (Section 8.3), optimized and bound: the H2 VQE
/// ansatz and QAOA p = 1 on an Erdős–Rényi graph of three nodes.
pub fn table5_circuits() -> [(&'static str, Circuit); 2] {
    let h2 = passes::optimize(&uccsd_circuit(Molecule::H2))
        .bind(&reference_parameters(Molecule::H2.num_parameters()));
    let graph = Graph::erdos_renyi(3, 0.5, 11);
    let qaoa = passes::optimize(&qaoa_circuit(&graph, 1)).bind(&reference_parameters(2));
    [("H2 VQE", h2), ("Erdos-Renyi N=3 QAOA", qaoa)]
}

/// One row of Table 5: a circuit's minimum GRAPE pulse under one set of
/// [`RealisticSettings`], against its gate-based duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table5Row {
    /// The gate-based duration: Table 1's critical path, plus one sample
    /// (at least 1 ns) per gate below 2 GSa/s, where pulses coarsen to whole
    /// samples.
    pub gate_ns: f64,
    /// The searched pulse duration; `gate_ns` where the search fell back.
    pub grape_ns: f64,
    /// Whether the search found a converged pulse.
    pub converged: bool,
}

impl Table5Row {
    /// Gate-based duration over the GRAPE pulse's.
    pub fn speedup(&self) -> f64 {
        self.gate_ns / self.grape_ns.max(1e-9)
    }
}

/// Table 5's standard and realistic rows, in that order, for one circuit.
///
/// Leakage and regularization make the target fidelity harder to hit, and the
/// paper's point is the relative speedup, so both rows accept an infidelity of
/// up to 3e-2.
pub fn table5_rows(circuit: &Circuit, effort: Effort) -> [Table5Row; 2] {
    let options = effort.compiler_options();
    let table1_ns = critical_path_ns(circuit, &GateTimes::default());
    [
        RealisticSettings::standard(),
        RealisticSettings::realistic(),
    ]
    .map(|settings| {
        let gate_ns = if settings.sample_rate_gsa < 2.0 {
            circuit.len() as f64 * settings.dt_ns().max(1.0) + table1_ns
        } else {
            table1_ns
        };
        let device = settings.apply_to_device(&DeviceModel::qubits_line(circuit.num_qubits()));
        let mut grape = settings.apply_to_options(&options.grape);
        grape.target_infidelity = grape.target_infidelity.max(3e-2);
        let search = MinimumTimeOptions::new(0.0, gate_ns)
            .with_precision(options.search_precision_ns.max(settings.dt_ns()));
        let (grape_ns, converged) =
            match minimum_pulse_time(&circuit_unitary(circuit), &device, &search, &grape) {
                Ok(result) => (result.duration_ns, result.converged),
                Err(_) => (gate_ns, false),
            };
        Table5Row {
            gate_ns,
            grape_ns,
            converged,
        }
    })
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
