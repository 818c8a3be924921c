//! Concurrent compilation service for the partial compiler.
//!
//! The paper amortizes GRAPE cost by caching pulses for repeated subcircuit blocks
//! across variational iterations. This crate turns that observation into a
//! production-shaped service core on top of `vqc-core`:
//!
//! * [`ShardedPulseCache`] — `vqc-core`'s pulse store, re-exported: one
//!   lock-striped, sharded, content-addressed map for block compilations, tunings
//!   and warm-start seeds, with hit/miss/eviction [`CacheMetrics`] and one optional
//!   per-shard capacity bound. The sequential compiler builds one of its own; the
//!   runtime builds the one all its requests share.
//! * [`CompilationRuntime`] — the request-scheduling service: [`Submission`]s
//!   are admitted through a queue bounded by [`RuntimeOptions::queue_depth`] (a
//!   submit into a full queue parks its thread until a slot frees), the
//!   submitting thread expands each into tasks for its keyed blocks
//!   (single-gate lookups resolve during expansion), and a
//!   persistent worker pool drains
//!   one merged queue ordered by strict [`Priority`], fair-share virtual time
//!   per client, and longest-processing-time-first by the cost each plan records
//!   for its blocks. Block tasks are
//!   deduplicated *across requests*: one compiled block fans out to every waiting
//!   job, with priority inheritance so shared work is never scheduled at the
//!   slowest waiter's class.
//! * [`CompilationRuntime::submit`] / [`JobHandle`] — the asynchronous front door;
//!   a [`Submission::on_progress`] callback is pushed each [`Progress`] step
//!   (admission, each job's result, the terminal `Done` or `Canceled`);
//!   [`CompilationRuntime::compile_batch`] /
//!   [`CompilationRuntime::compile_iterations`] are thin synchronous wrappers over
//!   a submitted job, making the paper's cross-iteration reuse cross-request.
//! * Telemetry — log-bucketed per-priority-class latency histograms, each
//!   read out as a [`LatencySummary`] (count, mean, p50/p95/p99), a bounded
//!   [`TraceStage`] lifecycle trace ring (the transport renders it as Chrome
//!   `trace_event` JSON), and [`MetricsSnapshot`]s assembled on demand by
//!   [`CompilationRuntime::telemetry_snapshot`], each embedding the
//!   [`RuntimeMetrics`] that [`CompilationRuntime::metrics`] returns
//!   ([`TelemetryOptions`] turns recording on or off). One type goes from the
//!   server to the report: the snapshot travels in the wire's `Stats` reply,
//!   is journaled by [`MetricsSnapshot::to_json_line`] and read back by
//!   [`MetricsSnapshot::from_json_line`].
//! * [`json`] — the workspace's one JSON module: the string escaper and a
//!   small reader.
//! * [`persist`] — bincode snapshots of the store for warm-start across runs
//!   ([`CompilationRuntime::save_snapshot`], [`CompilationRuntime::with_warm_start`]).
//!
//! # Example
//!
//! ```
//! use vqc_circuit::{Circuit, ParamExpr};
//! use vqc_core::{CompilerOptions, Strategy};
//! use vqc_runtime::{CompilationRuntime, Priority, RuntimeOptions, Submission};
//!
//! let mut circuit = Circuit::new(2);
//! circuit.h(0);
//! circuit.cx(0, 1);
//! circuit.rz_expr(1, ParamExpr::theta(0));
//! circuit.cx(0, 1);
//!
//! let runtime = CompilationRuntime::new(CompilerOptions::fast(), RuntimeOptions::with_workers(2));
//! // Three variational iterations submitted as one request: the Fixed entangling
//! // block is GRAPE-compiled once and fans out to all three.
//! let handle = runtime
//!     .submit(
//!         Submission::iterations(
//!             circuit,
//!             vec![vec![0.3], vec![1.4], vec![2.2]],
//!             Strategy::StrictPartial,
//!         )
//!         .with_priority(Priority::HIGH),
//!     )
//!     .expect("the queue is empty");
//! let reports = handle.wait().expect("not canceled");
//! assert!(reports.iter().all(|r| r.is_ok()));
//! assert!(runtime.metrics().cache.hits > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
pub mod persist;
#[allow(clippy::module_inception)]
mod runtime;
mod service;
mod telemetry;

pub use persist::PersistError;
pub use runtime::{CompilationRuntime, CompileJob, RuntimeMetrics, RuntimeOptions};
pub use service::{
    ClientMetrics, JobHandle, JobStatus, Priority, Progress, Submission, SubmitError,
};
pub use telemetry::{
    phase_row_name, priority_class, ClassLatency, MetricsSnapshot, TelemetryOptions, TraceEvent,
    TraceStage, PRIORITY_CLASSES, PRIORITY_CLASS_NAMES, TRACE_CAPACITY,
};
pub use vqc_core::{
    CacheConfig, CacheMetrics, CacheSnapshot, CompileProfile, SeedEntry, ShardedPulseCache,
    WarmStartStats, PHASE_COUNT,
};

// audit:allow(dead_pub): PhaseMetrics is the element type of MetricsSnapshot::phases
pub use telemetry::PhaseMetrics;
// audit:allow(dead_pub): LatencySummary is the type of ClassLatency's and PhaseMetrics' latency fields
pub use telemetry::LatencySummary;
