//! Spans around the calls into each layer, recorded from outside the program.
//!
//! In-process ops are driven through the compiler's public seams — `prepare`,
//! `plan`, per block `dedup_key` and `compile_block_outcome`, `assemble` — one
//! span each. What a block's pulse-level work cost comes back in its report
//! (`measured_seconds`, and with the compile-phase profiler armed the seconds
//! spent in eigensolves), so `pulse` and `linalg` appear as children of the
//! block span without touching the program. A child that cannot be wrapped
//! (`prepare` inside `plan`, the target unitary inside a block's measured
//! window) is timed on the same input right beside the call.
//!
//! Service and wire ops get a `runtime.submit_report` span; the blocks the
//! workers compiled for it are read back from the runtime's own lifecycle
//! ring, with their real start and end, so blocks that ran side by side on
//! two workers overlap in the trace as they did in time. A wire op's
//! `transport.rtt` span is what the client saw; its self time is that minus
//! the `submitted`→`report` interval the server's ring recorded for it.

use crate::inputs::Op;
use crate::span::{Recorder, SpanId};
use std::time::{Duration, Instant};
use vqc_core::{BlockCompilation, CompilationReport, CompileError, PartialCompiler, Phase};
use vqc_runtime::{CompilationRuntime, Submission, TraceEvent, TraceStage};
use vqc_sim::circuit_unitary;
use vqc_transport::{Client, SubmitPayload, WireJob};

/// Lays a compiled block's pulse-level work inside its span: `pulse` for the
/// measured GRAPE / tuning seconds, and inside that `linalg` for the seconds
/// the profiler attributed to eigendecompositions.
fn record_pulse_children(
    recorder: &mut Recorder,
    block_span: SpanId,
    block: &BlockCompilation,
) -> Option<SpanId> {
    if block.measured_seconds <= 0.0 {
        return None;
    }
    let pulse = recorder.record_inside(block_span, "pulse", "grape", block.measured_seconds);
    let eigen = block.profile.seconds(Phase::Eigendecomposition);
    if eigen > 0.0 {
        recorder.record_inside(pulse, "linalg", "eigh", eigen);
    }
    Some(pulse)
}

fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = std::hint::black_box(work());
    (value, started.elapsed().as_secs_f64())
}

/// Compiles one op through the compiler's public seams, one span per call,
/// all under a `core.compile` span.
pub fn seam_compile(
    compiler: &PartialCompiler,
    op: &Op,
    op_id: u64,
    recorder: &mut Recorder,
) -> Result<CompilationReport, CompileError> {
    // `prepare` runs inside `plan`: time it on the same circuit first.
    let (_, prepare_seconds) = timed(|| compiler.prepare(&op.circuit));
    let started = Instant::now();
    let plan = compiler.plan(&op.circuit, &op.theta, op.strategy);
    let planned = Instant::now();
    // Pushed before its children with a provisional end, closed below.
    let root = recorder.record(op_id, None, "core", "compile", started, planned);
    let plan_span = recorder.record(op_id, Some(root), "core", "plan", started, planned);
    recorder.record_inside(plan_span, "circuit", "prepare", prepare_seconds);

    let result = plan.and_then(|plan| {
        let mut outcomes = Vec::with_capacity(plan.blocks.len());
        for block in &plan.blocks {
            let key_started = Instant::now();
            std::hint::black_box(plan.dedup_key(block, &op.theta));
            let block_started = Instant::now();
            recorder.record(
                op_id,
                Some(root),
                "core",
                "dedup_key",
                key_started,
                block_started,
            );
            let outcome = compiler.compile_block_outcome(&plan, block, &op.theta);
            let span = recorder.record(
                op_id,
                Some(root),
                "core",
                "compile_block",
                block_started,
                Instant::now(),
            );
            let outcome = outcome?;
            if let Some(pulse) = record_pulse_children(recorder, span, &outcome.report) {
                // The target unitary is built inside the measured window:
                // time it again on the same bound block.
                let bound = block.to_circuit(&plan.prepared).bind(&op.theta);
                let (_, seconds) = timed(|| circuit_unitary(&bound));
                recorder.record_inside(pulse, "sim", "circuit_unitary", seconds);
            }
            outcomes.push(outcome);
        }
        let assemble_started = Instant::now();
        let report = compiler.assemble(&plan, outcomes);
        recorder.record(
            op_id,
            Some(root),
            "core",
            "assemble",
            assemble_started,
            Instant::now(),
        );
        Ok(report)
    });
    recorder.close(root, started, Instant::now());
    result
}

/// Converts the lifecycle ring's clock (microseconds since the service
/// started) into instants.
#[derive(Debug, Clone, Copy)]
pub struct ServiceClock(Instant);

impl ServiceClock {
    pub fn of(runtime: &CompilationRuntime) -> ServiceClock {
        let now = Instant::now();
        ServiceClock(now - Duration::from_secs_f64(runtime.uptime_seconds()))
    }

    fn at(&self, micros: u64) -> Instant {
        self.0 + Duration::from_micros(micros)
    }
}

/// The lifecycle events the runtime recorded for the submission tagged
/// `op_id`, oldest first.
fn ring_events(runtime: &CompilationRuntime, op_id: u64) -> Vec<TraceEvent> {
    let events = runtime.trace_events();
    let Some(submission) = events
        .iter()
        .rev()
        .find(|e| e.stage == TraceStage::Submitted && e.detail == op_id)
        .map(|e| e.submission)
    else {
        return Vec::new();
    };
    events
        .into_iter()
        .filter(|e| e.submission == submission)
        .collect()
}

/// What the scheduler does with a submission before its first block is
/// dispatched, timed on the same input immediately before submitting it:
/// the circuit passes, the plan around them, and one cache key per block.
#[derive(Debug, Clone, Copy)]
struct Expansion {
    prepare_seconds: f64,
    plan_seconds: f64,
    keys_seconds: f64,
}

impl Expansion {
    fn time(compiler: &PartialCompiler, op: &Op) -> Expansion {
        let (_, prepare_seconds) = timed(|| compiler.prepare(&op.circuit));
        let (plan, plan_seconds) = timed(|| compiler.plan(&op.circuit, &op.theta, op.strategy));
        let (_, keys_seconds) = timed(|| {
            plan.iter()
                .flat_map(|plan| plan.blocks.iter().map(|b| plan.dedup_key(b, &op.theta)))
                .count()
        });
        Expansion {
            prepare_seconds,
            plan_seconds,
            keys_seconds,
        }
    }
}

/// Hangs what the ring saw of one submission under its `submit_report` span:
/// the wait until its first block was dispatched (with the expansion work,
/// timed beforehand, inside it) and one `core.compile_block` span per block a
/// worker ran.
fn record_ring_children(
    recorder: &mut Recorder,
    root: SpanId,
    clock: ServiceClock,
    events: &[TraceEvent],
    report: &CompilationReport,
    expansion: Expansion,
) {
    let op = recorder.spans()[root].op;
    let submitted = events.iter().find(|e| e.stage == TraceStage::Submitted);
    let dispatched = events.iter().find(|e| e.stage == TraceStage::Dispatched);
    if let (Some(submitted), Some(dispatched)) = (submitted, dispatched) {
        let wait = recorder.record(
            op,
            Some(root),
            "runtime",
            "queue_wait",
            clock.at(submitted.micros),
            clock.at(dispatched.micros),
        );
        let plan = recorder.record_inside(wait, "core", "plan", expansion.plan_seconds);
        recorder.record_inside(plan, "circuit", "prepare", expansion.prepare_seconds);
        recorder.record_inside(wait, "core", "dedup_key", expansion.keys_seconds);
    }
    for start in events
        .iter()
        .filter(|e| e.stage == TraceStage::CompileStart)
    {
        let end = events.iter().find(|e| {
            matches!(e.stage, TraceStage::Compiled | TraceStage::CacheHit)
                && e.detail == start.detail
                && e.micros >= start.micros
        });
        let (Some(end), Some(block)) = (end, report.blocks.get(start.detail as usize)) else {
            continue;
        };
        let span = recorder.record(
            op,
            Some(root),
            "core",
            "compile_block",
            clock.at(start.micros),
            clock.at(end.micros),
        );
        record_pulse_children(recorder, span, block);
    }
}

/// The only report of a single-job submission, if it arrived and is `Ok`.
fn only_report<E>(results: Option<Vec<Result<CompilationReport, E>>>) -> Option<CompilationReport> {
    results?.pop()?.ok()
}

/// One op through the service, call to report: `submit`, then `wait`. A
/// `trace` id tags the submission in the runtime's lifecycle ring.
pub fn service_submit(
    runtime: &CompilationRuntime,
    op: &Op,
    trace: Option<u64>,
) -> Option<CompilationReport> {
    let mut submission = Submission::single(op.circuit.clone(), op.theta.clone(), op.strategy);
    if let Some(id) = trace {
        submission = submission.with_trace(id);
    }
    let handle = runtime.submit(submission).ok()?;
    only_report(handle.wait().ok())
}

/// One op over a connection, call to report.
pub fn wire_submit(client: &Client, op: &Op, trace: Option<u64>) -> Option<CompilationReport> {
    let job = client.submit_traced(wire_payload(op), None, trace).ok()?;
    only_report(job.wait().ok())
}

/// Submits one op to the runtime and waits, under a `runtime.submit_report`
/// span whose children are read back from the lifecycle ring.
pub fn service_compile(
    runtime: &CompilationRuntime,
    clock: ServiceClock,
    op: &Op,
    op_id: u64,
    recorder: &mut Recorder,
) -> Option<CompilationReport> {
    let expansion = Expansion::time(runtime.compiler(), op);
    let started = Instant::now();
    let report = service_submit(runtime, op, Some(op_id));
    let root = recorder.record(
        op_id,
        None,
        "runtime",
        "submit_report",
        started,
        Instant::now(),
    );
    if let Some(report) = &report {
        let events = ring_events(runtime, op_id);
        record_ring_children(recorder, root, clock, &events, report, expansion);
    }
    report
}

/// Submits one op over a connection and waits, under a `transport.rtt` span;
/// the server-side `runtime.submit_report` child and everything below it come
/// from the ring of the runtime the server fronts.
pub fn wire_compile(
    client: &Client,
    runtime: &CompilationRuntime,
    clock: ServiceClock,
    op: &Op,
    op_id: u64,
    recorder: &mut Recorder,
) -> Option<CompilationReport> {
    let expansion = Expansion::time(runtime.compiler(), op);
    let started = Instant::now();
    let report = wire_submit(client, op, Some(op_id));
    let root = recorder.record(op_id, None, "transport", "rtt", started, Instant::now());
    if let Some(report) = &report {
        let events = ring_events(runtime, op_id);
        let submitted = events.iter().find(|e| e.stage == TraceStage::Submitted);
        let reported = events.iter().find(|e| e.stage == TraceStage::Report);
        if let (Some(submitted), Some(reported)) = (submitted, reported) {
            let served = recorder.record(
                op_id,
                Some(root),
                "runtime",
                "submit_report",
                clock.at(submitted.micros),
                clock.at(reported.micros),
            );
            record_ring_children(recorder, served, clock, &events, report, expansion);
        }
    }
    report
}

/// The wire form of one op.
pub fn wire_payload(op: &Op) -> SubmitPayload {
    SubmitPayload::Batch(vec![WireJob {
        circuit: op.circuit.clone(),
        params: op.theta.clone(),
        strategy: op.strategy,
    }])
}
