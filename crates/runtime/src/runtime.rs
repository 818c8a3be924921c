//! The compilation runtime: a request-scheduling service behind a synchronous API.
//!
//! [`CompilationRuntime`] owns a [`PartialCompiler`] and, through it, the one
//! [`ShardedPulseCache`] every request shares, plus the [`crate::service`]
//! machinery built around them: a bounded admission queue, an expansion step
//! that turns every admitted [`Submission`] into block tasks via
//! [`PartialCompiler::plan`] on the submitting thread (single-gate lookups
//! resolve there, only keyed blocks are queued), and a persistent worker pool
//! that drains one merged, priority-ordered task queue for all outstanding
//! requests. Identical blocks are deduplicated across requests — each
//! unique [`vqc_core::BlockKey`] is GRAPE-optimized at most once per process and its
//! result fans out to every waiting job, no matter how many circuits, parameter
//! bindings, clients, or worker threads are involved.
//!
//! [`CompilationRuntime::submit`] is the service front door ([`Submission`] in,
//! [`JobHandle`] out). [`CompilationRuntime::compile`],
//! [`CompilationRuntime::compile_batch`], and
//! [`CompilationRuntime::compile_iterations`] are thin synchronous wrappers — they
//! submit (parking while the admission queue is full) and wait on the handle,
//! which is the paper's cross-iteration reuse turned cross-request: a
//! variational optimizer (or many concurrent clients) submits whole iterations
//! of circuits, and every Fixed block compiled for any of them is reused by all.

use crate::persist::{self, PersistError};
use crate::service::{ClientMetrics, CompileService, JobHandle, Submission, SubmitError};
use crate::telemetry::{MetricsSnapshot, TelemetryOptions, TraceEvent};
use std::path::Path;
use std::sync::Arc;
use vqc_circuit::Circuit;
use vqc_core::{
    CacheConfig, CacheMetrics, CompilationReport, CompileError, CompilerOptions, PartialCompiler,
    ShardedPulseCache, Strategy,
};

/// Configuration of a [`CompilationRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Number of worker threads block compilation may use (minimum 1).
    pub workers: usize,
    /// Configuration of the shared pulse store.
    pub cache: CacheConfig,
    /// Maximum number of submissions admitted but not yet completed (minimum 1).
    /// A submit into a full queue parks the submitting thread until a slot frees.
    pub queue_depth: usize,
    /// Telemetry configuration: whether the latency histograms and the
    /// lifecycle trace record.
    pub telemetry: TelemetryOptions,
}

impl Default for RuntimeOptions {
    /// Defaults to one worker per available core (capped at 8) and a 64-deep
    /// admission queue; the `VQC_WORKERS` and `VQC_QUEUE_DEPTH` environment
    /// variables override (garbage values are ignored, `0` clamps to 1).
    fn default() -> Self {
        let workers = std::env::var("VQC_WORKERS")
            .ok()
            .and_then(|raw| raw.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
                    .min(8)
            });
        let queue_depth = std::env::var("VQC_QUEUE_DEPTH")
            .ok()
            .and_then(|raw| raw.parse::<usize>().ok())
            .unwrap_or(64);
        RuntimeOptions {
            workers: workers.max(1),
            cache: CacheConfig::default(),
            queue_depth: queue_depth.max(1),
            telemetry: TelemetryOptions::default(),
        }
    }
}

impl RuntimeOptions {
    /// Options with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeOptions {
            workers: workers.max(1),
            ..RuntimeOptions::default()
        }
    }

    /// Replaces the admission-queue depth (clamped to at least 1).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Replaces the telemetry options.
    pub fn with_telemetry(mut self, telemetry: TelemetryOptions) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// One compilation request of a batch: a circuit at a parameter binding under a
/// strategy.
#[derive(Debug, Clone)]
pub struct CompileJob {
    /// The (possibly parameterized) circuit to compile.
    pub circuit: Circuit,
    /// Parameter binding for this request.
    pub params: Vec<f64>,
    /// Compilation strategy.
    pub strategy: Strategy,
}

impl CompileJob {
    /// Convenience constructor.
    pub fn new(circuit: Circuit, params: impl Into<Vec<f64>>, strategy: Strategy) -> Self {
        CompileJob {
            circuit,
            params: params.into(),
            strategy,
        }
    }
}

/// Counters describing what a runtime has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RuntimeMetrics {
    /// Shared-cache counters (hits/misses/insertions/evictions).
    pub cache: CacheMetrics,
    /// Block compilations whose pulse-level work this runtime actually performed —
    /// any path (a scheduled task *or* a fan-out waiter whose leader failed or
    /// whose entry was already evicted) that missed the cache and ran GRAPE /
    /// tuning. Cache hits and cleanly fanned-out waiters do not count.
    pub unique_compilations: u64,
    /// Block requests coalesced onto an already-scheduled task of another request
    /// (served by fan-out when that task completes).
    pub coalesced_waits: u64,
    /// Submissions admitted by the service (wrappers included).
    pub submissions: u64,
    /// Submissions that completed (their reports are available).
    pub completed_submissions: u64,
    /// Submissions canceled via [`JobHandle`]`::cancel` (client request or a
    /// transport front-end canceling on disconnect).
    pub canceled_submissions: u64,
    /// Worker threads the runtime schedules onto.
    pub workers: usize,
}

/// The concurrent compilation runtime — a request-scheduling service core.
#[derive(Debug)]
pub struct CompilationRuntime {
    service: CompileService,
}

impl CompilationRuntime {
    /// Creates a runtime with a fresh empty cache and starts its worker pool.
    pub fn new(options: CompilerOptions, runtime_options: RuntimeOptions) -> Self {
        let cache = Arc::new(ShardedPulseCache::new(runtime_options.cache));
        CompilationRuntime {
            service: CompileService::start(
                PartialCompiler::with_cache(options, cache),
                runtime_options.workers,
                runtime_options.queue_depth,
                runtime_options.telemetry,
            ),
        }
    }

    /// Creates a runtime warm-started from a cache snapshot on disk.
    ///
    /// # Errors
    ///
    /// Fails if the snapshot cannot be read or does not parse.
    pub fn with_warm_start(
        options: CompilerOptions,
        runtime_options: RuntimeOptions,
        snapshot_path: impl AsRef<Path>,
    ) -> Result<Self, PersistError> {
        let snapshot = persist::load_snapshot(snapshot_path)?;
        let runtime = CompilationRuntime::new(options, runtime_options);
        runtime.cache().absorb(snapshot);
        Ok(runtime)
    }

    /// The underlying compiler (shared pulse store included).
    pub fn compiler(&self) -> &PartialCompiler {
        &self.service.core.compiler
    }

    /// The shared pulse store.
    pub fn cache(&self) -> &ShardedPulseCache {
        self.compiler().cache()
    }

    /// Number of worker threads used for block compilation.
    pub fn workers(&self) -> usize {
        self.service.core.workers
    }

    /// Current runtime counters (the same read every
    /// [`CompilationRuntime::telemetry_snapshot`] embeds).
    pub fn metrics(&self) -> RuntimeMetrics {
        self.service.core.runtime_metrics()
    }

    /// This client's slice of the runtime counters (zeroes for an unseen id) —
    /// the fairness-observability counterpart of the global
    /// [`CompilationRuntime::metrics`]. Only submissions attributed via
    /// [`Submission::with_client`] are sliced.
    pub fn client_metrics(&self, client: u64) -> ClientMetrics {
        self.service.core.client_metrics(client)
    }

    /// Every client id seen so far with its metrics slice, sorted by id.
    pub fn client_metrics_snapshot(&self) -> Vec<(u64, ClientMetrics)> {
        self.service.core.client_metrics_snapshot()
    }

    /// Assembles a [`MetricsSnapshot`] of the whole service right now (queue
    /// depth, worker utilization, rates, cache economics, per-class latency
    /// histograms) on the calling thread. This is the one source of snapshots
    /// (the wire `Stats` request calls it), and each takes the next
    /// sequence number, so `seq` strictly increases from call to call.
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        self.service.core.build_snapshot()
    }

    /// The buffered lifecycle trace events, oldest first (the ring keeps the
    /// most recent [`crate::TRACE_CAPACITY`] events). Render with
    /// `vqc_transport::merged_chrome_trace` for `chrome://tracing` / Perfetto.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.newest_trace_events(usize::MAX)
    }

    /// The newest `count` buffered lifecycle events, oldest first: the tail
    /// of [`CompilationRuntime::trace_events`], without copying the rest.
    pub fn newest_trace_events(&self, count: usize) -> Vec<TraceEvent> {
        self.service.core.telemetry.trace_events(count)
    }

    /// Seconds since the runtime's service core started.
    pub fn uptime_seconds(&self) -> f64 {
        self.service.core.telemetry.uptime_seconds()
    }

    /// Forgets a client id: drops its metrics slice and its fair-share virtual
    /// clock. Call when the id is retired for good (the network transport does
    /// this as connections close — client ids are never reused), so per-client
    /// state stays proportional to *live* clients, not to every client ever
    /// seen.
    pub fn release_client(&self, client: u64) {
        self.service.core.release_client(client);
    }

    /// Writes the store's contents (blocks, tunings and warm-start seeds) to disk
    /// for a later warm start.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        persist::save_snapshot(path, &self.cache().snapshot())
    }

    /// Submits a request to the service and returns with a handle once it is
    /// admitted and expanded: planned on the calling thread, its single-gate
    /// lookups resolved and its keyed blocks queued for the workers, so the
    /// handle is already `Running` (or `Done` if nothing needed a worker).
    /// While the admission queue is at [`RuntimeOptions::queue_depth`], the
    /// calling thread parks until a completion or a cancellation frees a slot.
    /// A [`crate::Submission::on_progress`] callback hears `Admitted` (and the
    /// jobs resolved at expansion) before `submit` returns; a submission of
    /// lookups only has also reached its terminal `Done` by then.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::ShuttingDown`] once the runtime is being dropped.
    pub fn submit(&self, submission: Submission) -> Result<JobHandle, SubmitError> {
        self.service.submit(submission)
    }

    /// Stops dispatching new block tasks (tasks already running finish). Queued
    /// work and new submissions accumulate until [`CompilationRuntime::resume`] —
    /// a quiesce switch for maintenance windows and deterministic tests.
    pub fn pause(&self) {
        self.service.pause();
    }

    /// Resumes dispatching after [`CompilationRuntime::pause`].
    pub fn resume(&self) {
        self.service.resume();
    }

    /// Submits synchronously and waits for the result.
    fn submit_and_wait(
        &self,
        submission: Submission,
    ) -> Vec<Result<CompilationReport, CompileError>> {
        self.service
            .submit(submission)
            .and_then(|handle| handle.wait())
            // audit:allow(unwrap): `Canceled` needs the handle, which never leaves this
            // call, and `ShuttingDown` needs the runtime's drop, which `&self` rules out
            .expect("synchronous submissions are never canceled")
    }

    /// Compiles one circuit, running its independent blocks on the worker pool.
    ///
    /// Produces the same [`CompilationReport`] as [`PartialCompiler::compile`]
    /// (block order, durations, and latency accounting included); only the wall-clock
    /// schedule differs. This is a synchronous wrapper over
    /// [`CompilationRuntime::submit`].
    ///
    /// # Errors
    ///
    /// Propagates planning and block-compilation errors.
    pub fn compile(
        &self,
        circuit: &Circuit,
        params: &[f64],
        strategy: Strategy,
    ) -> Result<CompilationReport, CompileError> {
        self.submit_and_wait(Submission::single(circuit.clone(), params, strategy))
            .into_iter()
            .next()
            // audit:allow(unwrap): a single-job submission yields exactly one result
            .expect("one job in, one result out")
    }

    /// Compiles a batch of jobs against the shared cache.
    ///
    /// All keyed blocks of all jobs form one task pool, so the worker threads stay busy
    /// across job boundaries and identical blocks appearing in different jobs (the
    /// common case across variational iterations) are compiled once. Each job's
    /// result is reported independently: one failing job does not poison the rest.
    /// This is a synchronous wrapper over [`CompilationRuntime::submit`].
    pub fn compile_batch(
        &self,
        jobs: &[CompileJob],
    ) -> Vec<Result<CompilationReport, CompileError>> {
        self.submit_and_wait(Submission::batch(jobs.to_vec()))
    }

    /// Compiles one circuit at many parameter bindings (a sequence of variational
    /// iterations) under one strategy — the paper's central workload.
    ///
    /// The circuit is prepared and blocked once; the resulting plan is shared by all
    /// bindings (blocking is structural and does not depend on parameter values), so
    /// N iterations pay one transpiler pass rather than N. This is a synchronous
    /// wrapper over [`CompilationRuntime::submit`].
    pub fn compile_iterations(
        &self,
        circuit: &Circuit,
        parameter_sets: &[Vec<f64>],
        strategy: Strategy,
    ) -> Vec<Result<CompilationReport, CompileError>> {
        self.submit_and_wait(Submission::iterations(
            circuit.clone(),
            parameter_sets.to_vec(),
            strategy,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqc_circuit::ParamExpr;

    fn fast_options() -> CompilerOptions {
        let mut options = CompilerOptions::fast();
        options.grape.max_iterations = 80;
        options.grape.target_infidelity = 5e-2;
        options.search_precision_ns = 2.0;
        options
    }

    fn variational_circuit() -> Circuit {
        let mut circuit = Circuit::new(2);
        circuit.h(0);
        circuit.h(1);
        circuit.cx(0, 1);
        circuit.rz_expr(1, ParamExpr::theta(0));
        circuit.cx(0, 1);
        circuit.h(0);
        circuit.h(1);
        circuit
    }

    #[test]
    fn parallel_compile_matches_sequential_compile() {
        let circuit = variational_circuit();
        let params = [0.7];
        for strategy in Strategy::all() {
            let sequential = PartialCompiler::new(fast_options())
                .compile(&circuit, &params, strategy)
                .unwrap();
            let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(4));
            let parallel = runtime.compile(&circuit, &params, strategy).unwrap();
            assert_eq!(parallel.pulse_duration_ns, sequential.pulse_duration_ns);
            assert_eq!(parallel.num_blocks, sequential.num_blocks);
            assert_eq!(parallel.blocks.len(), sequential.blocks.len());
        }
    }

    #[test]
    fn batch_shares_fixed_blocks_across_iterations() {
        let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(4));
        let circuit = variational_circuit();
        let iterations = vec![vec![0.3], vec![1.1], vec![2.6]];
        let reports = runtime.compile_iterations(&circuit, &iterations, Strategy::StrictPartial);
        assert_eq!(reports.len(), 3);
        for report in &reports {
            assert!(report.is_ok());
        }
        // Strict partial compilation's Fixed blocks are θ-independent, so later
        // iterations must pay zero additional pre-compute latency in aggregate:
        // exactly one iteration's worth of GRAPE was led.
        let total_grape: usize = reports
            .iter()
            .map(|r| r.as_ref().unwrap().precompute.grape_iterations)
            .sum();
        let first_grape = reports[0].as_ref().unwrap().precompute.grape_iterations;
        let single = PartialCompiler::new(fast_options())
            .compile(&circuit, &[0.3], Strategy::StrictPartial)
            .unwrap();
        assert_eq!(
            total_grape,
            first_grape.max(single.precompute.grape_iterations)
        );
    }

    #[test]
    fn iterations_report_short_bindings_individually() {
        let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(2));
        let circuit = variational_circuit();
        let results = runtime.compile_iterations(
            &circuit,
            &[vec![0.4], vec![], vec![1.9]],
            Strategy::GateBased,
        );
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CompileError::MissingParameters {
                supplied: 0,
                required: 1
            })
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn batch_reports_planning_errors_per_job() {
        let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(2));
        let good = CompileJob::new(variational_circuit(), vec![0.4], Strategy::GateBased);
        let bad = CompileJob::new(variational_circuit(), vec![], Strategy::GateBased);
        let results = runtime.compile_batch(&[good, bad]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CompileError::MissingParameters {
                supplied: 0,
                required: 1
            })
        ));
    }

    #[test]
    fn empty_batches_and_empty_iterations_complete_immediately() {
        let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(2));
        assert!(runtime.compile_batch(&[]).is_empty());
        assert!(runtime
            .compile_iterations(&variational_circuit(), &[], Strategy::StrictPartial)
            .is_empty());
    }
}
