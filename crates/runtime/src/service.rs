//! The request-scheduling service core: submissions, priorities, admission.
//!
//! This module turns the compilation runtime from a library function into a
//! service. Clients [`Submission::batch`]/[`Submission::iterations`] work through a
//! bounded admission queue (a submit into a full queue parks the submitting
//! thread until a slot frees). Once admitted, the submitting thread itself
//! expands the submission via [`PartialCompiler::plan`] into one merged task
//! queue for *all* outstanding requests, which a persistent worker pool drains.
//! There is no scheduler thread: submissions from different threads expand
//! concurrently, so one client's cold plan never holds up another's expansion.
//!
//! Only keyed blocks (the ones with pulse-level work, or a cache entry to probe)
//! become tasks. A single-gate lookup block has no key and costs a table read, so
//! expansion resolves it in place; a job of lookups only assembles there, and a
//! submission with nothing keyed is `Done` before `submit` returns, without
//! waking a worker. A caller blocked in [`JobHandle::wait`] is woken once, by
//! the submission's completion or cancel. Per-job progress is pushed instead:
//! a [`Submission::on_progress`] callback hears every step as it happens.
//!
//! Ordering is per-client priority with fair queuing underneath:
//!
//! 1. **Priority classes are strict** — a ready task of a higher [`Priority`]
//!    always dispatches before any lower one. Sustained high-priority load can
//!    therefore starve lower classes; the bounded admission queue is the pressure
//!    valve that keeps that starvation visible at submit time instead of silent.
//! 2. **Within a class, clients share the pool by virtual time** — each
//!    submission is stamped with its client's virtual start time, and the client's
//!    clock advances by the submission's cost in GRAPE work units, so a client
//!    submitting many requests interleaves fairly with its peers instead of
//!    draining its whole backlog first (start-time fair queuing). Every client of a class
//!    gets an equal share; nothing a client sends can buy a larger one.
//! 3. **Within a submission, blocks drain longest-processing-time-first**, by the
//!    same per-block cost the plan records. The classic LPT bound keeps the
//!    makespan within 4/3 of optimal on heterogeneous plans, where submission
//!    order can strand one worker on a wide block while the rest sit idle.
//!
//! Block tasks from different requests are merged and deduplicated: if a submission
//! needs a block another request has already queued or started, no second task is
//! created — the submission is registered as a *waiter* and the one compiled result
//! fans out to every waiting job on completion. A waiter of higher priority than
//! the task's owner re-posts the task at its own priority (priority inheritance),
//! so a low-priority request can never make a high-priority one late by having
//! asked for a shared block first.

use crate::runtime::{CompileJob, RuntimeMetrics};
use crate::telemetry::{MetricsSnapshot, Telemetry, TelemetryOptions, TraceStage};
use parking_lot::{lock_check, Condvar, Mutex};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;
use vqc_circuit::Circuit;
use vqc_core::{
    BlockKey, BlockOutcome, CompilationPlan, CompilationReport, CompileError, PartialCompiler,
    PulseCache, Strategy,
};

/// Scheduling priority of a submission. Higher values dispatch strictly first.
///
/// Priorities order *classes* of traffic (interactive vs. batch); fairness between
/// clients of the same class is handled by fair-share virtual time, not by inventing
/// fine-grained priority values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u8);

impl Priority {
    /// Background traffic: speculative pre-compilation, cache warming.
    pub const LOW: Priority = Priority(0);
    /// The default class for ordinary requests.
    pub const NORMAL: Priority = Priority(8);
    /// Latency-sensitive traffic: an interactive client blocked on the result.
    pub const HIGH: Priority = Priority(16);
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

/// Why a submission did not produce compilation results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The submission was canceled via [`JobHandle::cancel`] (directly, or by a
    /// transport front-end on behalf of a disconnected client).
    Canceled,
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Canceled => write!(f, "submission was canceled"),
            SubmitError::ShuttingDown => write!(f, "the compilation service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Life-cycle stage of a submission, as reported by [`JobHandle::try_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted and expanded; its block tasks are queued on or running on the
    /// worker pool.
    Running,
    /// All jobs have results; [`JobHandle::wait`] returns without blocking.
    Done,
    /// Canceled via [`JobHandle::cancel`]; [`JobHandle::wait`] returns
    /// [`SubmitError::Canceled`]. Block tasks the submission owned are
    /// garbage-collected from the ready queue unless another request is waiting
    /// on them; tasks already running finish and populate the shared cache.
    Canceled,
}

/// Per-client slice of the runtime's counters, keyed by the client id a
/// [`Submission::with_client`] carried. Submissions without a client id are
/// counted only in the global [`crate::RuntimeMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClientMetrics {
    /// Submissions admitted on behalf of this client.
    pub submissions: u64,
    /// Submissions that completed (successfully or with per-job errors).
    pub completed: u64,
    /// Submissions canceled via [`JobHandle::cancel`].
    pub canceled: u64,
    /// Keyed block requests served from the shared pulse cache.
    pub cache_hits: u64,
    /// Keyed block compilations whose pulse-level work ran on behalf of this
    /// client (as task owner or as a fan-out waiter whose entry was evicted).
    pub compilations: u64,
    /// Block requests coalesced onto an already-scheduled task of another request.
    pub coalesced_waits: u64,
    /// Block tasks dispatched with this client's submissions as owner.
    pub dispatched_tasks: u64,
    /// Total seconds this client's submissions spent between submit and the end
    /// of their expansion: parked at a full admission queue, then planning.
    pub queue_seconds: f64,
}

/// What a submission asks the service to compile.
#[derive(Debug, Clone)]
enum SubmissionKind {
    /// Independent jobs (each its own circuit, binding, and strategy).
    Batch(Vec<CompileJob>),
    /// One circuit at many parameter bindings under one strategy — planned once,
    /// the paper's variational-loop workload.
    Iterations {
        circuit: Circuit,
        parameter_sets: Vec<Vec<f64>>,
        strategy: Strategy,
    },
}

/// One step of a submission's progress, as pushed to its
/// [`Submission::on_progress`] callback. The callback sees `Admitted` first,
/// then one `JobDone` per job in the order the jobs resolve, then exactly one
/// terminal step, `Done` or `Canceled`, and nothing after it.
#[derive(Debug)]
pub enum Progress<'a> {
    /// The submission was admitted and planned into `jobs` jobs. Sent from
    /// expansion, before its block tasks are posted to the workers.
    Admitted {
        /// Number of jobs, and so of results, the submission resolves.
        jobs: usize,
    },
    /// One job has its result. Jobs that resolve at expansion (planning
    /// errors, single-gate lookups only) come before any a worker resolves.
    JobDone {
        /// Submission-order index of the job.
        job: usize,
        /// The job's result.
        result: &'a Result<CompilationReport, CompileError>,
    },
    /// Every job has its result: one per job in submission order, as
    /// [`JobHandle::wait`] returns them.
    Done(Vec<Result<CompilationReport, CompileError>>),
    /// The submission was canceled via [`JobHandle::cancel`].
    Canceled,
}

/// A submission's progress callback (see [`Submission::on_progress`]).
struct ProgressSink(Box<dyn FnMut(Progress<'_>) + Send>);

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressSink")
    }
}

/// One request to the compilation service: what to compile, at which priority, on
/// behalf of which client.
#[derive(Debug)]
pub struct Submission {
    kind: SubmissionKind,
    priority: Priority,
    client: Option<u64>,
    trace: Option<u64>,
    progress: Option<ProgressSink>,
}

impl Submission {
    /// A batch of independent compile jobs (one result per job, in order).
    pub fn batch(jobs: Vec<CompileJob>) -> Self {
        Submission {
            kind: SubmissionKind::Batch(jobs),
            priority: Priority::default(),
            client: None,
            trace: None,
            progress: None,
        }
    }

    /// A single circuit at a single binding (one result).
    pub fn single(circuit: Circuit, params: impl Into<Vec<f64>>, strategy: Strategy) -> Self {
        Submission::batch(vec![CompileJob::new(circuit, params, strategy)])
    }

    /// One circuit at many parameter bindings under one strategy. The circuit is
    /// planned once and the plan shared by every binding (blocking is structural),
    /// exactly as [`crate::CompilationRuntime::compile_iterations`] behaves.
    pub fn iterations(circuit: Circuit, parameter_sets: Vec<Vec<f64>>, strategy: Strategy) -> Self {
        Submission {
            kind: SubmissionKind::Iterations {
                circuit,
                parameter_sets,
                strategy,
            },
            priority: Priority::default(),
            client: None,
            trace: None,
            progress: None,
        }
    }

    /// Sets the scheduling priority (default [`Priority::NORMAL`]).
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Attributes the submission to a stable client identity for fair-share
    /// accounting. Submissions without a client are scheduled at the current
    /// virtual clock with no accrued history.
    pub fn with_client(mut self, client: u64) -> Self {
        self.client = Some(client);
        self
    }

    /// Tags the submission with a client-assigned causal trace id. The id lands
    /// in the `detail` of the submission's `submitted` trace event, so a client
    /// that stamped its own spans with the same id can correlate them with the
    /// server's after fetching the trace (`vqc-submit --trace-out`).
    pub fn with_trace(mut self, trace: u64) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Pushes the submission's [`Progress`] to `callback` as it happens. The
    /// runtime calls it under the submission's lock, on whichever thread made
    /// the step (the submitter at expansion, a worker, a canceler), so it must
    /// be quick and must not call back into the submission's [`JobHandle`].
    /// The callback is dropped at the terminal step.
    pub fn on_progress(mut self, callback: impl FnMut(Progress<'_>) + Send + 'static) -> Self {
        self.progress = Some(ProgressSink(Box::new(callback)));
        self
    }
}

/// Shared state of one admitted submission.
#[derive(Debug)]
struct SubmissionState {
    id: u64,
    kind: SubmissionKind,
    priority: Priority,
    client: Option<u64>,
    /// When `submit` was called; the interval to the end of its expansion is
    /// the queue time charged to its client's [`ClientMetrics`].
    submitted_at: Instant,
    inner: Mutex<SubmissionInner>,
    /// Signalled on completion and on cancel.
    done: Condvar,
}

#[derive(Debug)]
struct SubmissionInner {
    status: JobStatus,
    /// One-shot completion claim: exactly one thread performs the Done transition
    /// (admission release, then status publish), however deliveries race.
    finishing: bool,
    jobs: Vec<JobSlot>,
    /// Jobs without a result yet.
    jobs_remaining: usize,
    /// Global dispatch sequence numbers of the block tasks dispatched for this
    /// submission, in dispatch order — the observable scheduling order.
    dispatched: Vec<u64>,
    /// The [`Submission::on_progress`] callback, until the terminal step.
    progress: Option<ProgressSink>,
}

impl SubmissionInner {
    /// One result per job, in submission order. Only a `Done` submission has
    /// them all.
    fn results(&self) -> Vec<Result<CompilationReport, CompileError>> {
        self.jobs
            .iter()
            // audit:allow(unwrap): status == Done guarantees every job slot carries a result
            .map(|job| job.result.clone().expect("done submissions have results"))
            .collect()
    }

    /// Pushes job `job`'s result to the progress callback, if any.
    fn report_job(&mut self, job: usize) {
        if let (Some(sink), Some(result)) = (self.progress.as_mut(), &self.jobs[job].result) {
            (sink.0)(Progress::JobDone { job, result });
        }
    }

    /// Enters a terminal status (`Done` or `Canceled`), pushing it to the
    /// progress callback as its last step and dropping the callback.
    fn finish(&mut self, status: JobStatus) {
        self.status = status;
        if let Some(mut sink) = self.progress.take() {
            let progress = match status {
                JobStatus::Done => Progress::Done(self.results()),
                _ => Progress::Canceled,
            };
            (sink.0)(progress);
        }
    }
}

/// Result assembly state of one job of a submission.
#[derive(Debug)]
struct JobSlot {
    plan: Option<CompilationPlan>,
    outcomes: Vec<Option<BlockOutcome>>,
    remaining: usize,
    result: Option<Result<CompilationReport, CompileError>>,
}

impl JobSlot {
    /// Assembles the job's report from its block outcomes, once every block has
    /// one.
    fn assemble(&mut self, compiler: &PartialCompiler) {
        let outcomes = self
            .outcomes
            .iter_mut()
            // audit:allow(unwrap): callers assemble only once every block has an outcome
            .map(|outcome| outcome.take().expect("every block resolved"))
            .collect();
        // audit:allow(unwrap): only planned jobs have blocks to assemble
        let plan = self.plan.as_ref().expect("assembled jobs have plans");
        self.result = Some(Ok(compiler.assemble(plan, outcomes)));
    }
}

/// A client's handle to one submission: poll with
/// [`JobHandle::try_status`], block with [`JobHandle::wait`], abort with
/// [`JobHandle::cancel`]. Per-job completions are not polled but pushed, to
/// the submission's [`Submission::on_progress`] callback.
#[derive(Debug, Clone)]
pub struct JobHandle {
    state: Arc<SubmissionState>,
    core: Weak<ServiceCore>,
}

impl JobHandle {
    /// Blocks until the submission completes (or was canceled) and returns one
    /// result per job, in submission order. Cloned handles may wait repeatedly.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Canceled`] if the submission was canceled.
    #[allow(clippy::type_complexity)]
    pub fn wait(&self) -> Result<Vec<Result<CompilationReport, CompileError>>, SubmitError> {
        let mut inner = self.state.inner.lock();
        while !matches!(inner.status, JobStatus::Done | JobStatus::Canceled) {
            self.state.done.wait(&mut inner);
        }
        match inner.status {
            JobStatus::Canceled => Err(SubmitError::Canceled),
            _ => Ok(inner.results()),
        }
    }

    /// The submission's current life-cycle stage, without blocking.
    pub fn try_status(&self) -> JobStatus {
        self.state.inner.lock().status
    }

    /// Cancels the submission: its not-yet-started block tasks are
    /// garbage-collected from the ready queue (tasks other requests wait on
    /// survive and fan out to them; tasks already executing finish and populate
    /// the shared cache). The admission slot is released immediately, so
    /// cancellation wakes a submitter parked on a full queue. Returns `true` if
    /// this call canceled the submission, `false` if it had already completed,
    /// been canceled, or entered its completion window.
    pub fn cancel(&self) -> bool {
        {
            let mut inner = self.state.inner.lock();
            if inner.finishing || matches!(inner.status, JobStatus::Done | JobStatus::Canceled) {
                return false;
            }
            inner.finish(JobStatus::Canceled);
        }
        self.state.done.notify_all();
        if let Some(core) = self.core.upgrade() {
            core.canceled_submissions.fetch_add(1, Ordering::Relaxed);
            core.record_client(self.state.client, |m| m.canceled += 1);
            core.telemetry
                .trace(TraceStage::Canceled, self.state.id, self.state.client, 0);
            core.release_admission();
            // Wake the workers so an otherwise idle pool garbage-collects the
            // canceled owner's queued tasks promptly.
            core.work.notify_all();
        }
        true
    }

    /// The priority the submission was admitted at.
    pub fn priority(&self) -> Priority {
        self.state.priority
    }

    /// Global dispatch sequence numbers of the block tasks dispatched for this
    /// submission so far, in dispatch order. Two handles' sequences interleave
    /// exactly as the scheduler ordered their work — the observable ground truth
    /// for priority and fairness tests (and for latency debugging).
    pub fn dispatch_sequence(&self) -> Vec<u64> {
        self.state.inner.lock().dispatched.clone()
    }
}

/// Everything a worker needs to run one block task (identity plus inputs).
#[derive(Debug, Clone)]
struct TaskBody {
    submission: Arc<SubmissionState>,
    job: usize,
    block: usize,
    plan: CompilationPlan,
    params: Arc<Vec<f64>>,
    key: BlockKey,
    cost: f64,
}

/// A queued block task. Ordering (via `Ord`) is the scheduling policy: strict
/// priority, then fair-share virtual start time, then LPT cost, then FIFO.
#[derive(Debug)]
struct ReadyTask {
    priority: Priority,
    vstart: f64,
    seq: u64,
    /// Generation of the [`KeyInterest`] this task was posted for.
    generation: u64,
    body: TaskBody,
}

impl PartialEq for ReadyTask {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for ReadyTask {}

impl PartialOrd for ReadyTask {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ReadyTask {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap pops the greatest element, so "greater" must mean "dispatch
        // sooner": higher priority, then earlier virtual start, then larger
        // estimated cost (LPT), then earlier enqueue.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.vstart.total_cmp(&self.vstart))
            .then_with(|| self.body.cost.total_cmp(&other.body.cost))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A job waiting for a block task owned by another request.
#[derive(Debug)]
struct Waiter {
    submission: Arc<SubmissionState>,
    job: usize,
    block: usize,
    plan: CompilationPlan,
    params: Arc<Vec<f64>>,
}

/// Cross-request interest in one block key: the task template (for priority
/// inheritance re-posts), whether some worker already took the task, and every job
/// waiting for the result to fan out.
#[derive(Debug)]
struct KeyInterest {
    /// Which incarnation of interest in this key the entry represents. A key can
    /// be compiled, completed, and become interesting again later; ready tasks
    /// carry the generation they were posted for, so a stale task (its interest
    /// already completed) can never hijack — or drop — a successor interest.
    generation: u64,
    taken: bool,
    /// Highest priority this key has been posted at so far.
    priority: Priority,
    template: TaskBody,
    waiters: Vec<Waiter>,
}

#[derive(Debug)]
struct SchedState {
    ready: BinaryHeap<ReadyTask>,
    /// Keyed block work that is queued or running: the cross-request dedup table.
    pending: HashMap<BlockKey, KeyInterest>,
    /// Per-client virtual time (GRAPE work units of cold-compile cost).
    clients: HashMap<u64, f64>,
    /// Virtual start time of the most recently dispatched task; late-joining
    /// clients start here rather than at zero, so idleness earns no credit.
    vclock: f64,
    /// While `true`, workers do not dispatch (quiesce for tests or maintenance).
    paused: bool,
    next_task_seq: u64,
    /// Generation stamps for [`KeyInterest`] entries.
    next_generation: u64,
}

/// The admission queue's books, under one lock.
#[derive(Debug, Default)]
struct Admission {
    /// Submissions admitted but not yet completed or canceled.
    outstanding: usize,
    /// Submitters parked on a full queue. Counted under the same lock as
    /// `outstanding`, so a release that reads zero here has no one to wake.
    parked: usize,
}

/// Shared heart of the service: compiler (pulse store included), scheduler state,
/// counters.
#[derive(Debug)]
pub(crate) struct ServiceCore {
    pub(crate) compiler: PartialCompiler,
    queue_depth: usize,
    sched: Mutex<SchedState>,
    work: Condvar,
    admission: Mutex<Admission>,
    /// Signalled when a slot frees while a submitter is parked, and at shutdown.
    admitted: Condvar,
    shutdown: AtomicBool,
    compilations: AtomicU64,
    coalesced: AtomicU64,
    submissions: AtomicU64,
    completed_submissions: AtomicU64,
    canceled_submissions: AtomicU64,
    client_metrics: Mutex<HashMap<u64, ClientMetrics>>,
    next_submission_id: AtomicU64,
    dispatch_seq: AtomicU64,
    /// Size of the worker pool.
    pub(crate) workers: usize,
    /// The live instrumentation layer (histograms, trace ring).
    pub(crate) telemetry: Arc<Telemetry>,
}

/// Spawns a named thread. Thread names surface in lock-checker panics, long-hold
/// reports, and Chrome trace exports, so every service thread gets one.
fn spawn_named<F>(name: &str, body: F) -> std::thread::JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(body)
        // audit:allow(unwrap): thread spawn fails only on OS resource exhaustion at startup
        .expect("failed to spawn service thread")
}

impl ServiceCore {
    /// Transitions the submission to `Done` once all jobs have results. The
    /// admission slot is released *before* `Done` becomes observable, so a client
    /// that returns from [`JobHandle::wait`] can immediately re-submit without
    /// racing the bookkeeping. Must be called with fresh (unheld) locks.
    fn try_complete(&self, state: &Arc<SubmissionState>) {
        {
            let mut inner = state.inner.lock();
            if inner.jobs_remaining > 0 || inner.status != JobStatus::Running || inner.finishing {
                return;
            }
            inner.finishing = true;
        }
        self.release_admission();
        self.record_client(state.client, |m| m.completed += 1);
        // Release, paired with the Acquire loads of the metrics readers: a reader
        // that sees this completion also sees the submission's admission count.
        self.completed_submissions.fetch_add(1, Ordering::Release);
        self.telemetry
            .record_submit_to_report(state.priority, state.submitted_at.elapsed().as_secs_f64());
        self.telemetry
            .trace(TraceStage::Report, state.id, state.client, 0);
        state.inner.lock().finish(JobStatus::Done);
        state.done.notify_all();
    }

    /// The runtime's counters, read the one way both
    /// [`crate::CompilationRuntime::metrics`] and every [`MetricsSnapshot`]
    /// read them.
    pub(crate) fn runtime_metrics(&self) -> RuntimeMetrics {
        // Read before `submissions`, so the counters never show more
        // completions than admissions.
        let completed_submissions = self.completed_submissions.load(Ordering::Acquire);
        RuntimeMetrics {
            cache: self.compiler.cache().metrics(),
            unique_compilations: self.compilations.load(Ordering::Relaxed),
            coalesced_waits: self.coalesced.load(Ordering::Relaxed),
            submissions: self.submissions.load(Ordering::Relaxed),
            completed_submissions,
            canceled_submissions: self.canceled_submissions.load(Ordering::Relaxed),
            workers: self.workers,
        }
    }

    /// Assembles one [`MetricsSnapshot`] from the live counters, allocating the
    /// next snapshot sequence number. Each queue's lock is taken briefly and
    /// independently, so the snapshot is a consistent-enough observation without
    /// ever stalling the submit or dispatch paths behind a global freeze.
    pub(crate) fn build_snapshot(&self) -> MetricsSnapshot {
        let (seq, uptime_seconds) = self.telemetry.next_seq();
        let ready_tasks = self.sched.lock().ready.len() as u64;
        let outstanding = self.admission.lock().outstanding as u64;
        let store = self.compiler.cache();
        MetricsSnapshot {
            seq,
            uptime_seconds,
            runtime: self.runtime_metrics(),
            busy_workers: self.telemetry.busy_workers(),
            outstanding,
            ready_tasks,
            cache_entries: store.num_blocks() as u64,
            trace_dropped: self.telemetry.trace_dropped(),
            warm_start: store.warm_start_stats(),
            seed_entries: store.num_seeds() as u64,
            phases: self.telemetry.phase_metrics(),
            jacobi_sweeps: self.telemetry.jacobi_sweeps(),
            classes: self.telemetry.class_latencies(),
        }
    }

    /// Applies `update` to the client's metrics slice (no-op for anonymous
    /// submissions). Only admission creates a slice, so an update that lands
    /// after [`ServiceCore::release_client`] (a canceled owner's task kept
    /// alive by a waiter, a block still compiling when a connection drops)
    /// cannot bring a released slice back.
    fn record_client(&self, client: Option<u64>, update: impl FnOnce(&mut ClientMetrics)) {
        if let Some(client) = client {
            if let Some(metrics) = self.client_metrics.lock().get_mut(&client) {
                update(metrics);
            }
        }
    }

    /// The client's current metrics slice (zeroes for an unseen client id).
    pub(crate) fn client_metrics(&self, client: u64) -> ClientMetrics {
        self.client_metrics
            .lock()
            .get(&client)
            .copied()
            .unwrap_or_default()
    }

    /// Drops a client id's metrics slice and fair-share clock. Transports call
    /// this when a connection closes and its id will never submit again, so a
    /// long-lived service does not grow state per short-lived client. Work of
    /// the client still in flight finishes uncounted in its slice.
    pub(crate) fn release_client(&self, client: u64) {
        self.client_metrics.lock().remove(&client);
        self.sched.lock().clients.remove(&client);
    }

    /// Every client id seen so far with its metrics slice, sorted by id.
    pub(crate) fn client_metrics_snapshot(&self) -> Vec<(u64, ClientMetrics)> {
        let mut all: Vec<(u64, ClientMetrics)> = self
            .client_metrics
            .lock()
            .iter()
            .map(|(id, metrics)| (*id, *metrics))
            .collect();
        all.sort_by_key(|(id, _)| *id);
        all
    }

    fn release_admission(&self) {
        let parked = {
            let mut admission = self.admission.lock();
            admission.outstanding = admission.outstanding.saturating_sub(1);
            admission.parked > 0
        };
        if parked {
            self.admitted.notify_all();
        }
    }

    /// Expands one admitted submission into block tasks (the scheduler layer).
    /// Runs on the submitting thread before its handle exists, so nothing can
    /// cancel or wait on the submission meanwhile; only workers see it, through
    /// the tasks it posts.
    fn expand(&self, state: &Arc<SubmissionState>) {
        // Plan every job. The compiler keeps the plans of the circuits it has
        // seen, so for a resubmitted ansatz this is a lookup; a new circuit pays
        // the transpile passes and blocking here, outside every lock, while
        // other threads' submissions expand alongside.
        /// One planned job: its shared plan (absent on error), its parameter
        /// binding, and its planning error if any.
        type PlannedJob = (Option<CompilationPlan>, Arc<Vec<f64>>, Option<CompileError>);
        let planned: Vec<PlannedJob> = match &state.kind {
            SubmissionKind::Batch(jobs) => jobs
                .iter()
                .map(
                    |job| match self.compiler.plan(&job.circuit, &job.params, job.strategy) {
                        Ok(plan) => (Some(plan), Arc::new(job.params.clone()), None),
                        Err(error) => (None, Arc::new(job.params.clone()), Some(error)),
                    },
                )
                .collect(),
            SubmissionKind::Iterations {
                circuit,
                parameter_sets,
                strategy,
            } => {
                let required = circuit
                    .parameter_indices()
                    .into_iter()
                    .max()
                    .map(|m| m + 1)
                    .unwrap_or(0);
                // Planning only consults params for the length check, which is
                // re-done per binding below; zeros of the required length stand in.
                let shared = self.compiler.plan(circuit, &vec![0.0; required], *strategy);
                parameter_sets
                    .iter()
                    .map(|params| {
                        let params = Arc::new(params.clone());
                        match &shared {
                            Err(error) => (None, params, Some(error.clone())),
                            Ok(_) if params.len() < required => (
                                None,
                                Arc::clone(&params),
                                Some(CompileError::MissingParameters {
                                    supplied: params.len(),
                                    required,
                                }),
                            ),
                            Ok(plan) => (Some(plan.clone()), params, None),
                        }
                    })
                    .collect()
            }
        };

        // Build the job slots outside every lock. A keyless block is a
        // single-gate lookup that needs no pulse work and touches no cache, so
        // it resolves here, straight into its slot; only keyed blocks become
        // tasks, keyed and costed from the plan's per-block record. A job with
        // nothing left to compile (all lookups, or a zero-block gate-based
        // plan) assembles here too.
        struct PlannedTask {
            job: usize,
            block: usize,
            key: BlockKey,
            cost: f64,
        }
        let mut tasks: Vec<PlannedTask> = Vec::new();
        let jobs: Vec<JobSlot> = planned
            .iter()
            .enumerate()
            .map(|(job_index, (plan, params, error))| {
                let mut slot = JobSlot {
                    plan: plan.clone(),
                    outcomes: Vec::new(),
                    remaining: 0,
                    result: error.clone().map(Err),
                };
                let Some(plan) = plan else {
                    return slot;
                };
                for (block_index, block) in plan.blocks.iter().enumerate() {
                    let outcome = match plan.dedup_key(block, params) {
                        Some(key) => {
                            tasks.push(PlannedTask {
                                job: job_index,
                                block: block_index,
                                key,
                                cost: plan.block_cost(block),
                            });
                            slot.remaining += 1;
                            None
                        }
                        None => match self.compiler.compile_block_outcome(plan, block, params) {
                            Ok(outcome) => Some(outcome),
                            Err(error) => {
                                slot.result.get_or_insert(Err(error));
                                None
                            }
                        },
                    };
                    slot.outcomes.push(outcome);
                }
                if slot.result.is_none() && slot.remaining == 0 {
                    slot.assemble(&self.compiler);
                }
                slot
            })
            .collect();
        let assembled: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, slot)| matches!(slot.result, Some(Ok(_))))
            .map(|(index, _)| index)
            .collect();
        {
            let mut inner = state.inner.lock();
            inner.jobs_remaining = jobs.iter().filter(|slot| slot.result.is_none()).count();
            inner.jobs = jobs;
            // Progress opens before any block task is posted: the job count,
            // then the jobs resolved here (planning errors, lookups only).
            let count = inner.jobs.len();
            if let Some(sink) = inner.progress.as_mut() {
                (sink.0)(Progress::Admitted { jobs: count });
            }
            for job in 0..count {
                inner.report_job(job);
            }
        }
        let queue_wait = state.submitted_at.elapsed().as_secs_f64();
        self.record_client(state.client, |m| m.queue_seconds += queue_wait);
        self.telemetry.record_queue_wait(state.priority, queue_wait);

        // Merge the tasks into the shared ready queue under one scheduler lock:
        // cross-request dedup registers waiters instead of duplicate tasks, and the
        // whole submission receives one fair-share virtual start stamp.
        let wake_workers = !tasks.is_empty();
        {
            let mut sched = self.sched.lock();
            let vstart = match state.client {
                Some(client) => sched
                    .clients
                    .get(&client)
                    .copied()
                    .unwrap_or(sched.vclock)
                    .max(sched.vclock),
                None => sched.vclock,
            };
            let mut charged = 0.0;
            for task in tasks {
                let (plan, params, _) = &planned[task.job];
                // audit:allow(unwrap): tasks are created during plan expansion, after the plan is set
                let plan = plan.as_ref().expect("tasks come from planned jobs");
                // Another request already owns this block's task: register as a
                // waiter, and inherit priority upward if we outrank the owner so
                // shared work is never scheduled late.
                let (body, generation) = if let Some(interest) = sched.pending.get_mut(&task.key) {
                    interest.waiters.push(Waiter {
                        submission: Arc::clone(state),
                        job: task.job,
                        block: task.block,
                        plan: plan.clone(),
                        params: Arc::clone(params),
                    });
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    self.record_client(state.client, |m| m.coalesced_waits += 1);
                    if interest.taken || state.priority <= interest.priority {
                        continue;
                    }
                    interest.priority = state.priority;
                    (interest.template.clone(), interest.generation)
                } else {
                    let body = TaskBody {
                        submission: Arc::clone(state),
                        job: task.job,
                        block: task.block,
                        plan: plan.clone(),
                        params: Arc::clone(params),
                        key: task.key.clone(),
                        cost: task.cost,
                    };
                    let generation = sched.next_generation;
                    sched.next_generation += 1;
                    sched.pending.insert(
                        task.key,
                        KeyInterest {
                            generation,
                            taken: false,
                            priority: state.priority,
                            template: body.clone(),
                            waiters: Vec::new(),
                        },
                    );
                    charged += task.cost;
                    (body, generation)
                };
                let seq = sched.next_task_seq;
                sched.next_task_seq += 1;
                sched.ready.push(ReadyTask {
                    priority: state.priority,
                    vstart,
                    seq,
                    generation,
                    body,
                });
            }
            if let Some(client) = state.client {
                sched.clients.insert(client, vstart + charged);
            }
        }
        if wake_workers {
            self.work.notify_all();
        }
        for job in assembled {
            self.telemetry
                .trace(TraceStage::JobDone, state.id, state.client, job as u64);
        }

        // A submission whose every job already has a result (planning errors,
        // lookups only, or gate-based) completes without touching the worker pool.
        self.try_complete(state);
    }

    /// Delivers one block outcome to a job, assembling the job's report when it was
    /// the last missing block. Only a job's completion is an event: it goes to the
    /// progress callback, and the last job's completes the submission, which
    /// wakes its waiters.
    fn deliver(
        &self,
        submission: &Arc<SubmissionState>,
        job: usize,
        block: usize,
        outcome: Result<BlockOutcome, CompileError>,
    ) {
        let submission_done = {
            let mut inner = submission.inner.lock();
            if inner.status != JobStatus::Running {
                return;
            }
            let resolved = {
                let slot = &mut inner.jobs[job];
                if slot.result.is_some() {
                    // The job already failed on another block; this outcome only
                    // contributed to the shared cache.
                    false
                } else {
                    match outcome {
                        Err(error) => {
                            slot.result = Some(Err(error));
                            true
                        }
                        Ok(outcome) => {
                            debug_assert!(slot.outcomes[block].is_none());
                            slot.outcomes[block] = Some(outcome);
                            slot.remaining -= 1;
                            slot.remaining == 0
                        }
                    }
                }
            };
            if !resolved {
                return;
            }
            let slot = &mut inner.jobs[job];
            if slot.result.is_none() {
                slot.assemble(&self.compiler);
            }
            inner.report_job(job);
            inner.jobs_remaining -= 1;
            inner.jobs_remaining == 0
        };
        self.telemetry.trace(
            TraceStage::JobDone,
            submission.id,
            submission.client,
            job as u64,
        );
        if submission_done {
            self.try_complete(submission);
        }
    }

    /// Runs one block task and fans its result out to every waiting job.
    fn execute(&self, body: TaskBody) {
        self.telemetry.trace(
            TraceStage::CompileStart,
            body.submission.id,
            body.submission.client,
            body.block as u64,
        );
        let compile_started_micros = self.telemetry.now_micros();
        let outcome = self.compiler.compile_block_outcome(
            &body.plan,
            &body.plan.blocks[body.block],
            &body.params,
        );
        if let Ok(outcome) = &outcome {
            let resolution = if outcome.report.cached {
                TraceStage::CacheHit
            } else {
                TraceStage::Compiled
            };
            self.telemetry.trace(
                resolution,
                body.submission.id,
                body.submission.client,
                body.block as u64,
            );
            // With the compile-phase profiler armed (`VQC_PROFILE=1`), the
            // block's per-phase breakdown lands in the phase histograms and as
            // nested child spans under this block's compile span.
            if !outcome.report.profile.is_empty() {
                self.telemetry.record_compile_profile(
                    body.submission.id,
                    body.submission.client,
                    compile_started_micros,
                    &outcome.report.profile,
                    outcome.report.measured_seconds,
                );
            }
        }
        self.count_resolution(body.submission.client, &outcome);
        // Take the waiter list; the dedup entry disappears with it, so later
        // requests for this key become fresh tasks (and hit the cache).
        let waiters = self
            .sched
            .lock()
            .pending
            .remove(&body.key)
            .map(|interest| interest.waiters)
            .unwrap_or_default();
        // Block errors are deterministic per circuit; recompiling for each
        // waiter would fail identically. The owner's outcome moves into its job.
        let failure = outcome.as_ref().err().cloned();
        self.deliver(&body.submission, body.job, body.block, outcome);
        for waiter in waiters {
            let shared = match &failure {
                Some(error) => Err(error.clone()),
                // The leader populated the cache, so this is a lookup — and an
                // honest (counted) recompile if a bounded cache already evicted
                // the entry.
                None => {
                    let outcome = self.compiler.compile_block_outcome(
                        &waiter.plan,
                        &waiter.plan.blocks[waiter.block],
                        &waiter.params,
                    );
                    self.count_resolution(waiter.submission.client, &outcome);
                    outcome
                }
            };
            self.deliver(&waiter.submission, waiter.job, waiter.block, shared);
        }
    }

    /// Counts one resolved keyed block on behalf of `client`: a cache hit, or a
    /// compilation that ran pulse-level work.
    fn count_resolution(&self, client: Option<u64>, outcome: &Result<BlockOutcome, CompileError>) {
        let Ok(outcome) = outcome else {
            return;
        };
        if outcome.report.cached {
            self.record_client(client, |m| m.cache_hits += 1);
        } else {
            self.compilations.fetch_add(1, Ordering::Relaxed);
            self.record_client(client, |m| m.compilations += 1);
        }
    }

    /// The worker loop: pop the best ready task, skip stale priority-inheritance
    /// duplicates, execute, repeat; park when idle, exit on shutdown.
    fn worker_loop(self: Arc<Self>) {
        loop {
            let task = {
                let mut sched = self.sched.lock();
                loop {
                    let draining = self.shutdown.load(Ordering::SeqCst);
                    if !sched.paused || draining {
                        if let Some(task) = sched.ready.pop() {
                            // A canceled owner no longer needs its work.
                            let owner_dead =
                                task.body.submission.inner.lock().status == JobStatus::Canceled;
                            match sched.pending.get_mut(&task.body.key) {
                                // The interest this task was posted for is
                                // live and undispatched: take it.
                                Some(interest)
                                    if interest.generation == task.generation
                                        && !interest.taken =>
                                {
                                    // Prune waiters whose submissions died
                                    // since they registered, so a canceled
                                    // waiter cannot keep a dead owner's task
                                    // alive (task GC).
                                    interest.waiters.retain(|waiter| {
                                        waiter.submission.inner.lock().status != JobStatus::Canceled
                                    });
                                    if owner_dead && interest.waiters.is_empty() {
                                        // The owning submission was canceled
                                        // and nobody else wants the block:
                                        // drop the work.
                                        sched.pending.remove(&task.body.key);
                                        continue;
                                    }
                                    // Either a live owner or live waiters: the
                                    // block compiles (a dead owner's delivery
                                    // is a no-op).
                                    interest.taken = true;
                                }
                                // Already dispatched (a higher-priority
                                // re-post beat us), completed (entry gone),
                                // or superseded (a *later* interest in the
                                // same key now owns the entry — this task
                                // must not hijack or drop it): stale, skip.
                                _ => continue,
                            }
                            sched.vclock = sched.vclock.max(task.vstart);
                            let seq = self.dispatch_seq.fetch_add(1, Ordering::SeqCst);
                            task.body.submission.inner.lock().dispatched.push(seq);
                            self.record_client(task.body.submission.client, |m| {
                                m.dispatched_tasks += 1;
                            });
                            self.telemetry.trace(
                                TraceStage::Dispatched,
                                task.body.submission.id,
                                task.body.submission.client,
                                seq,
                            );
                            break Some(task);
                        }
                    }
                    if draining && sched.ready.is_empty() {
                        break None;
                    }
                    self.work.wait(&mut sched);
                }
            };
            match task {
                Some(task) => {
                    self.telemetry.worker_busy();
                    self.execute(task.body);
                    self.telemetry.worker_idle();
                }
                None => return,
            }
        }
    }
}

/// The running service: core state plus its worker threads.
#[derive(Debug)]
pub(crate) struct CompileService {
    pub(crate) core: Arc<ServiceCore>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
}

impl CompileService {
    pub(crate) fn start(
        compiler: PartialCompiler,
        workers: usize,
        queue_depth: usize,
        telemetry_options: TelemetryOptions,
    ) -> Self {
        let workers = workers.max(1);
        let core = Arc::new(ServiceCore {
            compiler,
            queue_depth: queue_depth.max(1),
            sched: Mutex::new(SchedState {
                ready: BinaryHeap::new(),
                pending: HashMap::new(),
                clients: HashMap::new(),
                vclock: 0.0,
                paused: false,
                next_task_seq: 0,
                next_generation: 1,
            }),
            work: Condvar::new(),
            admission: Mutex::new(Admission::default()),
            admitted: Condvar::new(),
            shutdown: AtomicBool::new(false),
            compilations: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            submissions: AtomicU64::new(0),
            completed_submissions: AtomicU64::new(0),
            canceled_submissions: AtomicU64::new(0),
            client_metrics: Mutex::new(HashMap::new()),
            next_submission_id: AtomicU64::new(0),
            dispatch_seq: AtomicU64::new(0),
            workers,
            telemetry: Arc::new(Telemetry::new(&telemetry_options)),
        });
        if lock_check::enabled() {
            // Route long-hold reports from the lock checker into the trace
            // ring. The hook is process-global (last runtime wins), so it
            // holds only a weak reference and goes quiet once this service's
            // telemetry is dropped.
            let telemetry = Arc::downgrade(&core.telemetry);
            lock_check::set_long_hold_reporter(Some(Arc::new(move |event| {
                if let Some(telemetry) = telemetry.upgrade() {
                    telemetry.trace_lock_hold(event.held.as_millis() as u64);
                }
            })));
        }
        let worker_threads = (0..workers)
            .map(|index| {
                let worker_core = Arc::clone(&core);
                spawn_named(&format!("vqc-worker-{index}"), move || {
                    worker_core.worker_loop()
                })
            })
            .collect();
        CompileService {
            core,
            worker_threads,
        }
    }

    /// Admits a submission, parking the calling thread while the admission queue
    /// is at depth, then expands it on the calling thread. The returned handle
    /// is already `Running`, or `Done` when no block needed a worker.
    pub(crate) fn submit(&self, submission: Submission) -> Result<JobHandle, SubmitError> {
        let core = &self.core;
        if core.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let id = core.next_submission_id.fetch_add(1, Ordering::Relaxed);
        let trace_id = submission.trace.unwrap_or(0);
        let state = Arc::new(SubmissionState {
            id,
            kind: submission.kind,
            priority: submission.priority,
            client: submission.client,
            submitted_at: Instant::now(),
            inner: Mutex::new(SubmissionInner {
                status: JobStatus::Running,
                finishing: false,
                jobs: Vec::new(),
                jobs_remaining: 0,
                dispatched: Vec::new(),
                progress: submission.progress,
            }),
            done: Condvar::new(),
        });
        // The client's causal trace id rides in the event's detail, so a merged
        // client+server trace can correlate the two processes' spans.
        core.telemetry
            .trace(TraceStage::Submitted, id, state.client, trace_id);

        {
            // The submitting thread is the pressure valve: it parks here until a
            // completion or a cancellation frees a slot.
            let mut admission = core.admission.lock();
            loop {
                if core.shutdown.load(Ordering::SeqCst) {
                    return Err(SubmitError::ShuttingDown);
                }
                if admission.outstanding < core.queue_depth {
                    break;
                }
                admission.parked += 1;
                core.admitted.wait(&mut admission);
                admission.parked -= 1;
            }
            admission.outstanding += 1;
        }

        // Counted and traced before expansion posts tasks: a fast worker could
        // otherwise trace `Dispatched` ahead of `Admitted` and complete the
        // submission before it was counted. Admission is the one place a
        // client's metrics slice is created.
        core.submissions.fetch_add(1, Ordering::Relaxed);
        if let Some(client) = state.client {
            core.client_metrics
                .lock()
                .entry(client)
                .or_default()
                .submissions += 1;
        }
        core.telemetry
            .trace(TraceStage::Admitted, state.id, state.client, 0);
        core.expand(&state);
        Ok(JobHandle {
            state,
            core: Arc::downgrade(core),
        })
    }

    /// Stops dispatching new block tasks (running ones finish).
    pub(crate) fn pause(&self) {
        self.core.sched.lock().paused = true;
    }

    /// Resumes dispatching.
    pub(crate) fn resume(&self) {
        self.core.sched.lock().paused = false;
        self.core.work.notify_all();
    }
}

impl Drop for CompileService {
    /// Shuts the service down: no new submissions are accepted, but everything
    /// already admitted is drained to completion before the threads exit, so
    /// outstanding [`JobHandle`]s still resolve. Every `submit` borrows the
    /// service, so none is mid-expansion here: the ready queue already holds
    /// every task there will be.
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        // Taking the admission lock orders this wake after the shutdown flag
        // against a submitter between its flag check and its wait.
        drop(self.core.admission.lock());
        self.core.admitted.notify_all();
        // Taking the scheduler lock orders this wake after the shutdown flag
        // against a worker between its drain check and its wait; the workers
        // drain the remaining ready tasks and exit.
        drop(self.core.sched.lock());
        self.core.work.notify_all();
        for handle in self.worker_threads.drain(..) {
            let _ = handle.join();
        }
    }
}
