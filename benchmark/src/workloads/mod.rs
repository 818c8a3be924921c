//! The four workloads and what every one of them collects.
//!
//! A workload sets up (timed, repeatable), measures a closed loop for a fixed
//! wall time, checks a seeded sample of its outputs against references that
//! do not come from the path under test, and — in a traced run — drives one
//! more pass with spans recorded around the calls into each layer.

pub mod cold_precompute;
pub mod fullgrape_loop;
pub mod tracing;
pub mod warm_loop;
pub mod wire_mixed;

use crate::inputs::Op;
use crate::span::Recorder;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;
use vqc_core::{
    CompilationReport, CompileError, CompilerOptions, PartialCompiler, Strategy, WarmStartStats,
};
use vqc_runtime::{CompilationRuntime, RuntimeOptions};

/// Worker threads of every runtime the benchmark builds (the host has 2 CPUs).
pub const WORKERS: usize = 2;

/// The effort level at which the VQE blocks converge.
pub fn compiler_options() -> CompilerOptions {
    CompilerOptions::fast()
}

pub fn runtime_options() -> RuntimeOptions {
    RuntimeOptions::with_workers(WORKERS)
}

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Wall seconds of the timed region.
    pub seconds: f64,
    /// H2-only op lists: every metric is still emitted, in seconds not minutes.
    pub smoke: bool,
}

/// Counts read off the reports of a region, at the layer boundary they
/// describe.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub reports: u64,
    pub blocks_planned: u64,
    /// Blocks whose pulse-level work (GRAPE or tuning) ran in this call.
    pub grape_blocks: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub grape_iterations: u64,
    /// Blocks that went to GRAPE (now or when first cached).
    pub grape_candidates: u64,
    pub unconverged: u64,
    /// Σ `measured_seconds` of blocks compiled in this call.
    pub busy_seconds: f64,
}

impl Counts {
    pub fn absorb(&mut self, report: &CompilationReport) {
        self.reports += 1;
        self.blocks_planned += report.num_blocks as u64;
        for block in &report.blocks {
            if block.cached {
                self.cache_hits += 1;
            } else if block.measured_seconds > 0.0 {
                self.cache_misses += 1;
                self.grape_blocks += 1;
                self.busy_seconds += block.measured_seconds;
            }
            if block.used_grape || !block.converged {
                self.grape_candidates += 1;
                if !block.converged {
                    self.unconverged += 1;
                }
            }
        }
        // Latency is accumulated only for work this call performed: strict and
        // flexible pay it in pre-compute, full GRAPE at run time (flexible's
        // run-time figure is the tuned estimate, not iterations that ran).
        self.grape_iterations += report.precompute.grape_iterations as u64;
        if report.strategy == Strategy::FullGrape {
            self.grape_iterations += report.runtime.grape_iterations as u64;
        }
    }
}

/// Everything one run of a workload collects.
#[derive(Debug, Default)]
pub struct Tally {
    pub setup_s: Vec<f64>,
    /// Call→report latency of the foreground ops, per op type, in the order
    /// they completed (seconds).
    pub latency_s: BTreeMap<&'static str, Vec<f64>>,
    /// Consecutive samples of one op type that make one window of the
    /// latency percentiles (0 or 1: every sample is a window of its own).
    pub latency_window: usize,
    /// Wall seconds of each pass over the workload's op list: one per window.
    pub pass_wall_s: Vec<f64>,
    /// Foreground ops per second, one figure per window.
    pub rate_per_s: Vec<f64>,
    /// Foreground ops completed in the timed region, and its wall seconds.
    pub ops: u64,
    pub wall_s: f64,
    /// Background (writer) ops completed in the timed region.
    pub background_ops: u64,
    pub speedups: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub counts: Counts,
}

impl Tally {
    /// Books one finished foreground op with its call→report latency: counted
    /// as attempted and completed, failed unless it returned a sane report,
    /// and folded into the counts and the speedup series.
    pub fn book_op(
        &mut self,
        label: &'static str,
        seconds: f64,
        report: Option<&CompilationReport>,
    ) {
        self.latency_s.entry(label).or_default().push(seconds);
        self.ops += 1;
        self.book(report);
    }

    /// Books one finished op that is not timed as a foreground op.
    pub fn book(&mut self, report: Option<&CompilationReport>) {
        self.attempted += 1;
        match report {
            Some(report) if sane(report) => {
                self.counts.absorb(report);
                if report.strategy != Strategy::GateBased {
                    self.speedups.push(report.pulse_speedup());
                }
            }
            _ => self.failed += 1,
        }
    }

    /// Books a failed output check.
    pub fn check(&mut self, passed: bool, what: &str) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            eprintln!("output check failed: {what}");
        }
    }

    /// Books one finished pass of `ops` foreground ops that took `wall_s`.
    pub fn book_pass(&mut self, ops: u64, wall_s: f64) {
        self.pass_wall_s.push(wall_s);
        self.rate_per_s.push(ops as f64 / wall_s);
    }

    /// Books the pass of a workload whose passes repeat the same ops. Every op
    /// is a window of its own, and a pass is as long as its ops: the pass time
    /// is put together from each op's quiet time over the passes, so that a
    /// loud phase of the host has to cover an op in every pass to show.
    pub fn book_repeated_pass(&mut self) {
        let pass_s = self
            .latency_s
            .values()
            .map(|samples| stats::quiet(samples, true))
            .sum();
        self.book_pass(self.latency_s.len() as u64, pass_s);
    }

    /// One op type's median latency (seconds): the median inside every window
    /// of `latency_window` consecutive samples, read at the quiet decile of
    /// the windows.
    pub fn quiet_median_s(&self, samples: &[f64]) -> f64 {
        let per_window: Vec<f64> = stats::windows(samples, self.latency_window)
            .map(stats::median)
            .collect();
        stats::quiet(&per_window, true)
    }

    /// Geometric mean over op types of each type's `quiet_median_s`, in
    /// milliseconds. Averaging per type keeps the figure off the boundary
    /// between two types' distributions, where a pooled percentile of a mix
    /// would sit.
    pub fn latency_p50_ms(&self) -> f64 {
        1e3 * stats::geomean(
            self.latency_s
                .values()
                .map(|samples| self.quiet_median_s(samples)),
        )
    }

    /// Geometric mean over op types of each type's latency over the whole
    /// region at the highest percentile up to `cap` that still has ten
    /// samples beyond it, in milliseconds.
    pub fn latency_tail_ms(&self, cap: f64) -> f64 {
        1e3 * stats::geomean(
            self.latency_s.values().map(|samples| {
                stats::percentile(samples, stats::tail_quantile(samples.len(), cap))
            }),
        )
    }

    pub fn all_latencies(&self) -> Vec<f64> {
        self.latency_s.values().flatten().copied().collect()
    }
}

/// Splits a timed loop into passes of `pass_ops` ops — the windows of a run —
/// and hands out each pass's wall time; a region shorter than one pass yields
/// what ran, scaled to a pass.
#[derive(Debug)]
pub struct PassClock {
    pass_ops: u64,
    in_pass: u64,
    passes: u64,
    pass_started: Instant,
}

impl PassClock {
    pub fn new(pass_ops: u64) -> PassClock {
        PassClock {
            pass_ops,
            in_pass: 0,
            passes: 0,
            pass_started: Instant::now(),
        }
    }

    /// Call after every op: the wall seconds of the pass this op completed.
    pub fn tick(&mut self) -> Option<f64> {
        self.in_pass += 1;
        if self.in_pass < self.pass_ops {
            return None;
        }
        let now = Instant::now();
        let wall = (now - self.pass_started).as_secs_f64();
        self.pass_started = now;
        self.in_pass = 0;
        self.passes += 1;
        Some(wall)
    }

    /// Call when the region ends: a scaled pass time if no pass completed.
    pub fn finish(self) -> Option<f64> {
        let partial = self.pass_started.elapsed().as_secs_f64();
        (self.passes == 0).then(|| partial * self.pass_ops as f64 / self.in_pass.max(1) as f64)
    }
}

/// What every report must satisfy whatever path produced it.
pub fn sane(report: &CompilationReport) -> bool {
    report.pulse_duration_ns.is_finite()
        && report.pulse_duration_ns > 0.0
        && report.pulse_duration_ns <= report.gate_based_duration_ns + 1e-9
        && report.num_blocks == report.blocks.len()
        && report
            .blocks
            .iter()
            .all(|b| b.duration_ns <= b.gate_based_ns + 1e-9)
}

/// The sequential compiler's report for an op, from a fresh compiler: the
/// reference the service and wire paths are compared against.
pub fn sequential_reference(op: &Op) -> Result<CompilationReport, CompileError> {
    PartialCompiler::new(compiler_options()).compile(&op.circuit, &op.theta, op.strategy)
}

/// Whether a report from the service or the wire agrees with the sequential
/// compiler's report for the same op.
///
/// An op none of whose searches another op can seed — strict partial
/// compilation, whose GRAPE blocks are θ-independent, or a circuit whose
/// structural keys are its own — compiles the same whatever the cache and
/// table hold, so `exact` demands the same blocking, the same convergence
/// flags and every duration within the search precision. Parameterised
/// flexible and full-GRAPE blocks are compiled behind a warm-start
/// table other ops have written to, and a seeded search settles a few
/// nanoseconds away from the cold one (measured before this benchmark was
/// fixed: up to 4 ns on a 2-qubit block), so for them the blocking must agree
/// and the circuit's pulse must stay within a factor of two of the reference.
pub fn agrees_with_reference(
    report: &CompilationReport,
    reference: &CompilationReport,
    exact: bool,
) -> bool {
    let precision = compiler_options().search_precision_ns;
    let structure = report.strategy == reference.strategy
        && report.num_blocks == reference.num_blocks
        && report.blocks.len() == reference.blocks.len()
        && (report.gate_based_duration_ns - reference.gate_based_duration_ns).abs() < 1e-9
        && report
            .blocks
            .iter()
            .zip(&reference.blocks)
            .all(|(a, b)| a.qubits == b.qubits && a.num_ops == b.num_ops);
    if !structure {
        return false;
    }
    if exact {
        (report.pulse_duration_ns - reference.pulse_duration_ns).abs() <= precision
            && report.blocks.iter().zip(&reference.blocks).all(|(a, b)| {
                a.converged == b.converged && (a.duration_ns - b.duration_ns).abs() <= precision
            })
    } else {
        let ratio = report.pulse_duration_ns / reference.pulse_duration_ns;
        (0.5..=2.0).contains(&ratio)
    }
}

/// The runtime-side numbers a traced run reads after its passes.
#[derive(Debug, Default)]
pub struct RuntimeView {
    pub queue_wait_p50_us: f64,
    pub queue_wait_p99_us: f64,
    pub cache_hit_ratio: f64,
    pub evictions: f64,
    pub unique_compilations: f64,
    pub coalesced_waits: f64,
}

impl RuntimeView {
    pub fn of(runtime: &CompilationRuntime) -> RuntimeView {
        let snapshot = runtime.telemetry_snapshot();
        let metrics = runtime.metrics();
        // The busiest class is the one the workload's foreground ops ran in.
        let class = snapshot.classes.iter().max_by_key(|c| c.queue_wait.count);
        RuntimeView {
            queue_wait_p50_us: class.map_or(0.0, |c| c.queue_wait.p50() * 1e6),
            queue_wait_p99_us: class.map_or(0.0, |c| c.queue_wait.p99() * 1e6),
            cache_hit_ratio: snapshot.cache_hit_ratio(),
            evictions: metrics.cache.evictions as f64,
            unique_compilations: metrics.unique_compilations as f64,
            coalesced_waits: metrics.coalesced_waits as f64,
        }
    }
}

/// One workload: set-up, a timed closed loop, an output check and a traced pass.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// Everything before the timed region: inputs from the seed, pre-compute,
    /// server bind and connect.
    fn setup(plan: &Plan) -> Self;

    /// Runs the closed loop for `seconds` of wall time with tracing off.
    fn measure(&mut self, seconds: f64, tally: &mut Tally);

    /// Checks a seeded sample of the measured outputs; failures are booked on
    /// the tally.
    fn check(&mut self, tally: &mut Tally);

    /// Runs the loop for about `seconds` with spans recorded around the calls
    /// into each layer.
    fn traced_pass(&mut self, seconds: f64, recorder: &mut Recorder, tally: &mut Tally);

    /// The runtime behind the workload, if it has one.
    fn runtime(&self) -> Option<&CompilationRuntime>;

    /// The sequential compiler's warm-start counters, for the workload without
    /// a runtime.
    fn warm_start(&self) -> WarmStartStats {
        self.runtime()
            .map(|r| r.telemetry_snapshot().warm_start)
            .unwrap_or_default()
    }
}

/// Sets a workload up again and again after its run, dropping each instance,
/// until `times` holds at least three set-up times and as many more, up to
/// 200, as it takes for all of them to add up to three seconds.
pub fn setup_again<W: Workload>(plan: &Plan, times: &mut Vec<f64>) {
    if plan.smoke {
        return;
    }
    while times.len() < 3 || (times.iter().sum::<f64>() < 3.0 && times.len() < 200) {
        let started = Instant::now();
        let instance = W::setup(plan);
        times.push(started.elapsed().as_secs_f64());
        drop(instance);
    }
}
