//! Live telemetry for the compilation service: latency histograms, lifecycle
//! tracing, and on-demand metrics snapshots.
//!
//! The service core is instrumented at three altitudes, all cheap enough for the
//! scheduler hot path:
//!
//! * **Latency histograms** — [`LatencyHistogram`] is a hand-rolled log-bucketed
//!   histogram (one power-of-two bucket per latency octave, preallocated atomic
//!   counters, no allocation and no lock on record). The service keeps one pair
//!   per priority class: queue wait (submit → end of expansion) and end-to-end
//!   latency (submit → report). A snapshot reduces each to a
//!   [`LatencySummary`] (count, mean, p50/p95/p99); the buckets stay inside.
//! * **Lifecycle tracing** — [`TraceRing`] is a bounded ring buffer of
//!   [`TraceEvent`]s (submitted → admitted → dispatched → compile-start →
//!   cache-hit/compiled → job-done → report, plus canceled), each stamped
//!   with microseconds since the service started. The transport's one Chrome
//!   `trace_event` renderer (`vqc_transport::merged_chrome_trace`) turns the
//!   ring into JSON loadable in `chrome://tracing` or Perfetto, so "where did
//!   this slow job spend its time" is one dump away.
//! * **Metrics snapshots** — [`crate::CompilationRuntime::telemetry_snapshot`]
//!   assembles a [`MetricsSnapshot`] (the [`RuntimeMetrics`] counters plus
//!   queue depth, worker utilization, cache residency, per-class histograms)
//!   on the calling thread whenever it is asked. Nothing runs in the
//!   background: the `Stats` wire request is answered with one such snapshot,
//!   `vqc-top` polls it, and `vqc-top --json` prints each poll as one JSON
//!   line ([`MetricsSnapshot::to_json_line`]), the journal `vqc-report` reads
//!   back with [`MetricsSnapshot::from_json_line`].
//!
//! Instrumentation is gated on [`TelemetryOptions::enabled`]: a disabled
//! telemetry reduces every record call to one branch, which is what the
//! `telemetry_overhead` bench group compares against.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use vqc_core::{CompileProfile, PHASE_COUNT};

use crate::json::{self, Json};
use crate::runtime::RuntimeMetrics;
use crate::service::Priority;

/// Number of phase rows telemetry tracks: the [`PHASE_COUNT`] compiler phases
/// plus one `"other"` residual row holding whatever part of a block's measured
/// compile time no phase claimed — with it, phase shares always sum to 100%.
pub const PHASE_ROWS: usize = PHASE_COUNT + 1;

/// Display name of phase row `index`: the compiler phase's name, or `"other"`
/// for the residual row.
pub fn phase_row_name(index: usize) -> &'static str {
    vqc_core::Phase::ALL
        .get(index)
        .map(|phase| phase.name())
        .unwrap_or("other")
}

/// Number of priority classes telemetry aggregates over ([`Priority::LOW`],
/// [`Priority::NORMAL`], [`Priority::HIGH`] — finer-grained priority values fold
/// into the class they schedule with).
pub const PRIORITY_CLASSES: usize = 3;

/// Display names of the priority classes, indexed by [`priority_class`].
pub const PRIORITY_CLASS_NAMES: [&str; PRIORITY_CLASSES] = ["low", "normal", "high"];

/// Folds a priority value into its telemetry class index: `0` below
/// [`Priority::NORMAL`], `1` below [`Priority::HIGH`], `2` otherwise.
pub fn priority_class(priority: Priority) -> usize {
    if priority >= Priority::HIGH {
        2
    } else if priority >= Priority::NORMAL {
        1
    } else {
        0
    }
}

/// Number of buckets in a [`LatencyHistogram`]: bucket 0 holds sub-microsecond
/// samples, bucket `i` holds `[2^(i-1), 2^i)` microseconds, and the last bucket
/// overflows (≈ 2^42 µs ≈ 51 days — nothing the service measures gets there).
const HISTOGRAM_BUCKETS: usize = 44;

/// A log-bucketed latency histogram with preallocated atomic buckets.
///
/// Recording is wait-free: compute the bucket index from the sample's
/// leading-zero count and `fetch_add` two counters. There is no allocation, no
/// lock, and no floating-point loop on the hot path, so the scheduler can stamp
/// every submission without measurable overhead. Buckets are one latency octave
/// wide (powers of two of a microsecond), which bounds any quantile estimate's
/// relative error at √2 — plenty for p50/p95/p99 dashboards. The buckets never
/// leave the histogram: [`LatencyHistogram::summary`] reduces them to a
/// [`LatencySummary`].
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    total_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Bucket index of a sample.
    fn bucket_index(seconds: f64) -> usize {
        let micros = (seconds * 1e6) as u64;
        if micros == 0 {
            0
        } else {
            // floor(log2(micros)) + 1, clamped into the overflow bucket.
            (64 - micros.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Representative latency (seconds) of a bucket: the geometric midpoint of
    /// its bounds (0.5 µs for the sub-microsecond bucket).
    fn bucket_value_seconds(index: usize) -> f64 {
        if index == 0 {
            0.5e-6
        } else {
            // Geometric mean of [2^(i-1), 2^i) µs: 2^(i-1) * √2 µs.
            (1u64 << (index - 1)) as f64 * std::f64::consts::SQRT_2 * 1e-6
        }
    }

    /// Records one latency sample. Negative samples clamp to zero.
    pub fn record(&self, seconds: f64) {
        let seconds = if seconds.is_finite() {
            seconds.max(0.0)
        } else {
            0.0
        };
        self.buckets[Self::bucket_index(seconds)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// Sum of all samples, in seconds.
    fn total_seconds(&self) -> f64 {
        self.total_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Reads the counters into a [`LatencySummary`]: each quantile is the
    /// geometric midpoint of the bucket holding its rank, and every figure is
    /// `0.0` for an empty histogram.
    pub fn summary(&self) -> LatencySummary {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return LatencySummary::default();
        }
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|index| self.buckets[index].load(Ordering::Relaxed));
        let quantile = |q: f64| {
            let rank = ((q * count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            let index = buckets
                .iter()
                .position(|bucket| {
                    seen += bucket;
                    seen >= rank
                })
                .unwrap_or(HISTOGRAM_BUCKETS - 1);
            Self::bucket_value_seconds(index)
        };
        LatencySummary {
            count,
            mean_seconds: self.total_seconds() / count as f64,
            p50_seconds: quantile(0.50),
            p95_seconds: quantile(0.95),
            p99_seconds: quantile(0.99),
        }
    }
}

/// A latency distribution reduced where it is recorded: the sample count, the
/// mean and three quantiles, in seconds. It is what a [`MetricsSnapshot`]
/// carries over the wire and what the journal line writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean sample (`0.0` when empty).
    pub mean_seconds: f64,
    /// Median (`0.0` when empty).
    pub p50_seconds: f64,
    /// 95th percentile (`0.0` when empty).
    pub p95_seconds: f64,
    /// 99th percentile (`0.0` when empty).
    pub p99_seconds: f64,
}

impl LatencySummary {
    /// Median latency in seconds.
    pub fn p50(&self) -> f64 {
        self.p50_seconds
    }

    /// 95th-percentile latency in seconds.
    pub fn p95(&self) -> f64 {
        self.p95_seconds
    }

    /// 99th-percentile latency in seconds.
    pub fn p99(&self) -> f64 {
        self.p99_seconds
    }
}

/// A life-cycle stage of one submission, as recorded in the trace ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceStage {
    /// `submit` was called (before admission control).
    Submitted,
    /// The submission was admitted into the bounded queue.
    Admitted,
    /// A block task of the submission was dispatched to a worker
    /// (`detail` = global dispatch sequence number).
    Dispatched,
    /// A worker began compiling a block (`detail` = block index).
    CompileStart,
    /// The block was served from the pulse cache (`detail` = block index).
    CacheHit,
    /// The block was compiled (GRAPE / tuning ran; `detail` = block index).
    Compiled,
    /// One job of the submission resolved (`detail` = job index).
    JobDone,
    /// The submission completed; its report is available.
    Report,
    /// The submission was canceled.
    Canceled,
    /// A lock guard was held past `VQC_LOCK_HOLD_MS` while the lock-order
    /// checker was active (`detail` = milliseconds held; `submission` = 0 —
    /// the event attributes to a lock site, not a submission).
    LockHold,
    /// A compile-phase span from the armed profiler, nested under the block's
    /// compile span (`detail` = [`vqc_core::Phase`] index; the event's
    /// `span_micros` carries the phase's duration).
    Phase,
}

impl TraceStage {
    /// Stable lowercase name (used as the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::Submitted => "submitted",
            TraceStage::Admitted => "admitted",
            TraceStage::Dispatched => "dispatched",
            TraceStage::CompileStart => "compile-start",
            TraceStage::CacheHit => "cache-hit",
            TraceStage::Compiled => "compiled",
            TraceStage::JobDone => "job-done",
            TraceStage::Report => "report",
            TraceStage::Canceled => "canceled",
            TraceStage::LockHold => "lock-hold",
            TraceStage::Phase => "phase",
        }
    }
}

/// One entry of the lifecycle trace ring.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Service-assigned submission id the event belongs to.
    pub submission: u64,
    /// Client id the submission was attributed to, if any.
    pub client: Option<u64>,
    /// Which life-cycle stage.
    pub stage: TraceStage,
    /// Monotonic microseconds since the service started (a span's start time).
    pub micros: u64,
    /// Stage-specific detail (block index, job index, dispatch sequence, or
    /// phase index for [`TraceStage::Phase`]).
    pub detail: u64,
    /// Span duration in microseconds; `0` marks an instant event. Only
    /// [`TraceStage::Phase`] events carry a duration today.
    pub span_micros: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s. When full, the oldest event is
/// overwritten — the ring always holds the most recent window of lifecycle
/// activity (the service's ring holds [`TRACE_CAPACITY`] events).
#[derive(Debug)]
pub struct TraceRing {
    inner: Mutex<TraceRingInner>,
    capacity: usize,
}

#[derive(Debug)]
struct TraceRingInner {
    /// Storage; grows to `capacity` then recycles slots through `head`.
    events: Vec<TraceEvent>,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    /// Events overwritten so far (how much history the ring has shed).
    dropped: u64,
}

impl TraceRing {
    /// Creates an empty ring holding at most `capacity` events (minimum 16).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        TraceRing {
            inner: Mutex::new(TraceRingInner {
                events: Vec::with_capacity(capacity),
                head: 0,
                dropped: 0,
            }),
            capacity,
        }
    }

    /// Appends one event, overwriting the oldest once at capacity.
    pub fn push(&self, event: TraceEvent) {
        let mut inner = self.inner.lock();
        if inner.events.len() < self.capacity {
            inner.events.push(event);
        } else {
            let head = inner.head;
            inner.events[head] = event;
            inner.head = (head + 1) % self.capacity;
            inner.dropped += 1;
        }
    }

    /// The newest `count` buffered events (all of them when fewer are
    /// buffered), in chronological order.
    pub fn newest(&self, count: usize) -> Vec<TraceEvent> {
        let inner = self.inner.lock();
        let (older, newer) = inner.events.split_at(inner.head);
        let skip = inner.events.len().saturating_sub(count);
        newer.iter().chain(older).skip(skip).copied().collect()
    }

    /// How many events have been overwritten since the ring filled.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }
}

/// Configuration of the telemetry layer.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryOptions {
    /// Master switch. Disabled telemetry records nothing into the histograms
    /// or the trace ring; every instrumentation site reduces to one branch.
    /// Snapshots still count. On by default.
    pub enabled: bool,
}

impl Default for TelemetryOptions {
    /// Enabled. Only an embedder turns telemetry off, with
    /// [`TelemetryOptions::with_enabled`]; no knob does.
    fn default() -> Self {
        TelemetryOptions { enabled: true }
    }
}

impl TelemetryOptions {
    /// Enables or disables the whole layer.
    pub fn with_enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }
}

/// One compile-phase row inside a [`MetricsSnapshot`]: the distribution of
/// per-block durations for this phase and its share of all profiled compile
/// time. Rows only accumulate while the compile-phase profiler is armed
/// (`VQC_PROFILE=1` on the server); the last row is the `"other"` residual
/// (measured compile time no phase claimed), so shares sum to 100%.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseMetrics {
    /// Stable phase name ([`phase_row_name`]).
    pub name: String,
    /// Per-block durations spent in this phase.
    pub durations: LatencySummary,
    /// This phase's fraction of all profiled compile seconds (`0.0..=1.0`).
    pub share: f64,
}

/// Per-priority-class latency distributions inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassLatency {
    /// Class index (see [`PRIORITY_CLASS_NAMES`]).
    pub class: u8,
    /// Submit → end of expansion, once per submission: time parked at a full
    /// admission queue plus planning.
    pub queue_wait: LatencySummary,
    /// Submit → report latency of completed submissions.
    pub submit_to_report: LatencySummary,
}

/// One observation of the whole service, assembled on demand by
/// [`crate::CompilationRuntime::telemetry_snapshot`]. Serializable both over
/// the wire (inside the `Stats` reply) and as a JSON line
/// ([`MetricsSnapshot::to_json_line`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Snapshot number: every snapshot takes the next one (process-wide), so
    /// successive polls see it strictly increase. A poller seeing it decrease
    /// knows the server restarted.
    pub seq: u64,
    /// Seconds since the service started.
    pub uptime_seconds: f64,
    /// The runtime's counters, read as [`crate::CompilationRuntime::metrics`]
    /// reads them: admissions, completions, cancels, cache, compilations.
    pub runtime: RuntimeMetrics,
    /// Workers executing a block task at snapshot time (utilization numerator).
    pub busy_workers: u64,
    /// Submissions admitted but not yet completed (queue depth incl. running).
    pub outstanding: u64,
    /// Block tasks in the ready queue (stale priority-inheritance duplicates
    /// included — an upper bound on schedulable work).
    pub ready_tasks: u64,
    /// Block entries currently resident in the cache.
    pub cache_entries: u64,
    /// Lifecycle events overwritten in the trace ring so far.
    pub trace_dropped: u64,
    /// Warm-start counters: seed probes (hit/miss/evicted) and GRAPE
    /// iterations split seeded-vs-cold (the `memo_*` fields read 0 and stay
    /// out of the JSON line).
    pub warm_start: vqc_core::WarmStartStats,
    /// Warm-start seed entries currently resident.
    pub seed_entries: u64,
    /// Compile-phase breakdown from the armed profiler (`VQC_PROFILE=1`):
    /// one row per [`vqc_core::Phase`] plus the `"other"` residual. Empty
    /// while the profiler is disarmed or before any profiled compilation.
    pub phases: Vec<PhaseMetrics>,
    /// Cumulative eigensolver iterations of profiled eigendecompositions:
    /// Jacobi sweeps below dim 8, implicit-QL iterations from there up (see
    /// `CompileProfile::jacobi_sweeps`; the name is wire- and journal-visible).
    pub jacobi_sweeps: u64,
    /// Per-class latency summaries (index == class).
    pub classes: Vec<ClassLatency>,
}

impl MetricsSnapshot {
    /// Cache hit ratio over all lookups so far (`0.0` before any lookup).
    pub fn cache_hit_ratio(&self) -> f64 {
        let cache = &self.runtime.cache;
        let lookups = cache.hits + cache.misses;
        if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        }
    }

    /// Fraction of the worker pool busy at snapshot time.
    pub fn worker_utilization(&self) -> f64 {
        if self.runtime.workers == 0 {
            0.0
        } else {
            self.busy_workers as f64 / self.runtime.workers as f64
        }
    }

    /// Renders the snapshot as one JSON line (no trailing newline): the
    /// `vqc-top --json` journal schema, read back by
    /// [`MetricsSnapshot::from_json_line`]. Each [`LatencySummary`] is written
    /// as count/mean/p50/p95/p99 (seconds).
    pub fn to_json_line(&self) -> String {
        let phases = self
            .phases
            .iter()
            .map(|phase| {
                format!(
                    "{{\"name\":\"{}\",\"share\":{:.4},\"durations\":{}}}",
                    json::escape(&phase.name),
                    phase.share,
                    summary_json(&phase.durations),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let classes = self
            .classes
            .iter()
            .map(|class| {
                let name = PRIORITY_CLASS_NAMES
                    .get(class.class as usize)
                    .copied()
                    .unwrap_or("unknown");
                format!(
                    "{{\"class\":\"{}\",\"queue_wait\":{},\"submit_to_report\":{}}}",
                    name,
                    summary_json(&class.queue_wait),
                    summary_json(&class.submit_to_report),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let runtime = &self.runtime;
        format!(
            "{{\"seq\":{},\"uptime_seconds\":{:.6},\"workers\":{},\"busy_workers\":{},\
             \"outstanding\":{},\"ready_tasks\":{},\
             \"submissions\":{},\"completed\":{},\"canceled\":{},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"insertions\":{},\"evictions\":{},\
             \"entries\":{},\"hit_ratio\":{:.4}}},\"unique_compilations\":{},\
             \"coalesced_waits\":{},\"trace_dropped\":{},\
             \"warm_start\":{{\"table_hits\":{},\"table_misses\":{},\
             \"table_evictions\":{},\"seed_entries\":{},\
             \"seeded_iterations\":{},\"cold_iterations\":{}}},\
             \"phases\":[{}],\"jacobi_sweeps\":{},\
             \"classes\":[{}]}}",
            self.seq,
            self.uptime_seconds,
            runtime.workers,
            self.busy_workers,
            self.outstanding,
            self.ready_tasks,
            runtime.submissions,
            runtime.completed_submissions,
            runtime.canceled_submissions,
            runtime.cache.hits,
            runtime.cache.misses,
            runtime.cache.insertions,
            runtime.cache.evictions,
            self.cache_entries,
            self.cache_hit_ratio(),
            runtime.unique_compilations,
            runtime.coalesced_waits,
            self.trace_dropped,
            self.warm_start.table_hits,
            self.warm_start.table_misses,
            self.warm_start.table_evictions,
            self.seed_entries,
            self.warm_start.seeded_iterations,
            self.warm_start.cold_iterations,
            phases,
            self.jacobi_sweeps,
            classes,
        )
    }

    /// Reads one journal line back: the inverse of
    /// [`MetricsSnapshot::to_json_line`] on every field it writes, so
    /// `to_json_line(from_json_line(line)?) == line`. `cache.entries` is read
    /// into `cache_entries` and class names into class indices;
    /// `cache.hit_ratio` is derived and not read; the fields the line does
    /// not carry (`cache.restored`, the `memo_*` counters) read 0.
    ///
    /// # Errors
    ///
    /// When the line is not JSON, when a key is missing or of the wrong type
    /// (the message names the key, and the row of `phases` or `classes` it is
    /// in), or when a class name is unknown.
    pub fn from_json_line(line: &str) -> Result<MetricsSnapshot, String> {
        let line = Json::parse(line)?;
        let n = |key: &str| line.number_at::<u64>(key);
        let phases = rows(&line, "phases", |phase| {
            Ok(PhaseMetrics {
                name: phase.str_at("name")?.to_string(),
                share: phase.number_at("share")?,
                durations: summary_from_json(phase, "durations")?,
            })
        })?;
        let classes = rows(&line, "classes", |class| {
            let name = class.str_at("class")?;
            let index = PRIORITY_CLASS_NAMES
                .iter()
                .position(|known| *known == name)
                .ok_or_else(|| format!("unknown class `{name}`"))?;
            Ok(ClassLatency {
                class: index as u8,
                queue_wait: summary_from_json(class, "queue_wait")?,
                submit_to_report: summary_from_json(class, "submit_to_report")?,
            })
        })?;
        Ok(MetricsSnapshot {
            seq: n("seq")?,
            uptime_seconds: line.number_at("uptime_seconds")?,
            runtime: RuntimeMetrics {
                cache: vqc_core::CacheMetrics {
                    hits: n("cache.hits")?,
                    misses: n("cache.misses")?,
                    insertions: n("cache.insertions")?,
                    evictions: n("cache.evictions")?,
                    restored: 0,
                },
                unique_compilations: n("unique_compilations")?,
                coalesced_waits: n("coalesced_waits")?,
                submissions: n("submissions")?,
                completed_submissions: n("completed")?,
                canceled_submissions: n("canceled")?,
                workers: line.number_at("workers")?,
            },
            busy_workers: n("busy_workers")?,
            outstanding: n("outstanding")?,
            ready_tasks: n("ready_tasks")?,
            cache_entries: n("cache.entries")?,
            trace_dropped: n("trace_dropped")?,
            warm_start: vqc_core::WarmStartStats {
                table_hits: n("warm_start.table_hits")?,
                table_misses: n("warm_start.table_misses")?,
                table_evictions: n("warm_start.table_evictions")?,
                memo_hits: 0,
                memo_misses: 0,
                seeded_iterations: n("warm_start.seeded_iterations")?,
                cold_iterations: n("warm_start.cold_iterations")?,
            },
            seed_entries: n("warm_start.seed_entries")?,
            phases,
            jacobi_sweeps: n("jacobi_sweeps")?,
            classes,
        })
    }
}

fn summary_json(summary: &LatencySummary) -> String {
    format!(
        "{{\"count\":{},\"mean_seconds\":{:.9},\"p50_seconds\":{:.9},\"p95_seconds\":{:.9},\"p99_seconds\":{:.9}}}",
        summary.count,
        summary.mean_seconds,
        summary.p50_seconds,
        summary.p95_seconds,
        summary.p99_seconds,
    )
}

/// Reads each row of the array at `key`; an error names the row it is in.
fn rows<T>(
    line: &Json,
    key: &str,
    read: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    line.array_at(key)?
        .iter()
        .enumerate()
        .map(|(index, row)| read(row).map_err(|e| format!("{key}[{index}]: {e}")))
        .collect()
}

/// Reads a [`summary_json`] object back.
fn summary_from_json(value: &Json, key: &str) -> Result<LatencySummary, String> {
    let field = |name: &str| value.number_at(&format!("{key}.{name}"));
    Ok(LatencySummary {
        count: value.number_at(&format!("{key}.count"))?,
        mean_seconds: field("mean_seconds")?,
        p50_seconds: field("p50_seconds")?,
        p95_seconds: field("p95_seconds")?,
        p99_seconds: field("p99_seconds")?,
    })
}

/// The shared instrumentation state the service core records into.
#[derive(Debug)]
pub(crate) struct Telemetry {
    enabled: bool,
    epoch: Instant,
    queue_wait: [LatencyHistogram; PRIORITY_CLASSES],
    submit_to_report: [LatencyHistogram; PRIORITY_CLASSES],
    /// Per-block durations of each compile phase (plus the `"other"` residual
    /// row); only populated while the compile-phase profiler is armed.
    phase_durations: [LatencyHistogram; PHASE_ROWS],
    /// Cumulative eigensolver iterations from profiled eigendecompositions.
    jacobi_sweeps: AtomicU64,
    trace: TraceRing,
    busy_workers: AtomicU64,
    seq: AtomicU64,
}

/// Events the service's lifecycle trace ring holds: the last few hundred
/// submissions (a lookup-only one traces four events, a one-block one seven).
pub const TRACE_CAPACITY: usize = 4096;

impl Telemetry {
    pub(crate) fn new(options: &TelemetryOptions) -> Self {
        Telemetry {
            enabled: options.enabled,
            epoch: Instant::now(),
            queue_wait: std::array::from_fn(|_| LatencyHistogram::new()),
            submit_to_report: std::array::from_fn(|_| LatencyHistogram::new()),
            phase_durations: std::array::from_fn(|_| LatencyHistogram::new()),
            jacobi_sweeps: AtomicU64::new(0),
            trace: TraceRing::new(TRACE_CAPACITY),
            busy_workers: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        }
    }

    /// Seconds since the service started.
    pub(crate) fn uptime_seconds(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Microseconds since the service started.
    pub(crate) fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records one lifecycle event (no-op when disabled).
    pub(crate) fn trace(
        &self,
        stage: TraceStage,
        submission: u64,
        client: Option<u64>,
        detail: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.trace.push(TraceEvent {
            submission,
            client,
            stage,
            micros: self.now_micros(),
            detail,
            span_micros: 0,
        });
    }

    /// Records one block's [`CompileProfile`] from the armed profiler: each
    /// phase's duration lands in its histogram, the unattributed remainder of
    /// `measured_seconds` lands in the `"other"` residual row, and the block's
    /// phases are pushed into the trace ring as [`TraceStage::Phase`] child
    /// spans laid end-to-end from `started_micros` (the block's compile-start
    /// stamp). No-op when telemetry is disabled or the profile is empty.
    pub(crate) fn record_compile_profile(
        &self,
        submission: u64,
        client: Option<u64>,
        started_micros: u64,
        profile: &CompileProfile,
        measured_seconds: f64,
    ) {
        if !self.enabled || profile.is_empty() {
            return;
        }
        let mut cursor = started_micros;
        for index in 0..PHASE_COUNT {
            let seconds = profile.phase_seconds[index];
            if profile.phase_counts[index] == 0 && seconds <= 0.0 {
                continue;
            }
            self.phase_durations[index].record(seconds);
            let span_micros = (seconds * 1e6) as u64;
            self.trace.push(TraceEvent {
                submission,
                client,
                stage: TraceStage::Phase,
                micros: cursor,
                detail: index as u64,
                span_micros: span_micros.max(1),
            });
            cursor += span_micros;
        }
        let residual = (measured_seconds - profile.total_seconds()).max(0.0);
        self.phase_durations[PHASE_COUNT].record(residual);
        self.jacobi_sweeps
            .fetch_add(profile.jacobi_sweeps, Ordering::Relaxed);
    }

    /// Assembles the per-phase rows of a snapshot: one [`PhaseMetrics`] per
    /// phase that recorded at least one sample (plus the residual row), with
    /// shares normalized over all profiled compile seconds. Empty while the
    /// profiler has recorded nothing.
    pub(crate) fn phase_metrics(&self) -> Vec<PhaseMetrics> {
        let rows: Vec<(LatencySummary, f64)> = self
            .phase_durations
            .iter()
            .map(|histogram| (histogram.summary(), histogram.total_seconds()))
            .collect();
        if rows.iter().all(|(durations, _)| durations.count == 0) {
            return Vec::new();
        }
        let total: f64 = rows.iter().map(|(_, seconds)| seconds).sum();
        rows.into_iter()
            .enumerate()
            .map(|(index, (durations, seconds))| PhaseMetrics {
                name: phase_row_name(index).to_string(),
                share: if total > 0.0 { seconds / total } else { 0.0 },
                durations,
            })
            .collect()
    }

    /// Cumulative eigensolver iterations from profiled eigendecompositions.
    pub(crate) fn jacobi_sweeps(&self) -> u64 {
        self.jacobi_sweeps.load(Ordering::Relaxed)
    }

    /// Records a long lock hold reported by the `parking_lot` lock-order
    /// checker (`VQC_LOCK_CHECK=1`); `held_ms` lands in the event's `detail`.
    pub(crate) fn trace_lock_hold(&self, held_ms: u64) {
        self.trace(TraceStage::LockHold, 0, None, held_ms);
    }

    pub(crate) fn record_queue_wait(&self, priority: Priority, seconds: f64) {
        if self.enabled {
            self.queue_wait[priority_class(priority)].record(seconds);
        }
    }

    pub(crate) fn record_submit_to_report(&self, priority: Priority, seconds: f64) {
        if self.enabled {
            self.submit_to_report[priority_class(priority)].record(seconds);
        }
    }

    pub(crate) fn worker_busy(&self) {
        if self.enabled {
            self.busy_workers.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn worker_idle(&self) {
        if self.enabled {
            self.busy_workers.fetch_sub(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn busy_workers(&self) -> u64 {
        self.busy_workers.load(Ordering::Relaxed)
    }

    /// Allocates the next snapshot sequence number, with the uptime it was
    /// allocated at.
    pub(crate) fn next_seq(&self) -> (u64, f64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        (seq, self.uptime_seconds())
    }

    pub(crate) fn class_latencies(&self) -> Vec<ClassLatency> {
        (0..PRIORITY_CLASSES)
            .map(|class| ClassLatency {
                class: class as u8,
                queue_wait: self.queue_wait[class].summary(),
                submit_to_report: self.submit_to_report[class].summary(),
            })
            .collect()
    }

    /// The newest `count` events of the trace ring, oldest first.
    pub(crate) fn trace_events(&self, count: usize) -> Vec<TraceEvent> {
        self.trace.newest(count)
    }

    pub(crate) fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2_of_micros() {
        assert_eq!(LatencyHistogram::bucket_index(0.0), 0);
        assert_eq!(LatencyHistogram::bucket_index(0.9e-6), 0);
        assert_eq!(LatencyHistogram::bucket_index(1.0e-6), 1);
        assert_eq!(LatencyHistogram::bucket_index(1.9e-6), 1);
        assert_eq!(LatencyHistogram::bucket_index(2.0e-6), 2);
        assert_eq!(LatencyHistogram::bucket_index(1.0e-3), 10);
        assert_eq!(LatencyHistogram::bucket_index(1.0), 20);
        assert_eq!(LatencyHistogram::bucket_index(1.0e9), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_come_from_the_right_octave() {
        let histogram = LatencyHistogram::new();
        // 90 samples at ~1 ms, 10 at ~1 s.
        for _ in 0..90 {
            histogram.record(1.1e-3);
        }
        for _ in 0..10 {
            histogram.record(1.3);
        }
        let summary = histogram.summary();
        assert_eq!(summary.count, 100);
        let p50 = summary.p50();
        assert!((0.5e-3..4e-3).contains(&p50), "p50 {p50}");
        let p99 = summary.p99();
        assert!((0.5..4.0).contains(&p99), "p99 {p99}");
        assert!(summary.mean_seconds > 0.1 && summary.mean_seconds < 0.2);
    }

    #[test]
    fn trace_ring_overwrites_oldest_and_reports_drops() {
        let ring = TraceRing::new(16);
        for i in 0..20u64 {
            ring.push(TraceEvent {
                submission: i,
                client: None,
                stage: TraceStage::Submitted,
                micros: i,
                detail: 0,
                span_micros: 0,
            });
        }
        let events = ring.newest(usize::MAX);
        assert_eq!(events.len(), 16);
        assert_eq!(events.first().unwrap().submission, 4);
        assert_eq!(events.last().unwrap().submission, 19);
        assert_eq!(ring.dropped(), 4);
        // Chronological order is preserved across the wrap point.
        assert!(events.windows(2).all(|w| w[0].micros <= w[1].micros));
        // A tail is the end of the whole ring, in the same order.
        assert_eq!(ring.newest(3), events[13..]);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        // Pinned: an empty histogram summarizes to 0.0 for the mean and every
        // quantile, never NaN and never the overflow bucket's midpoint.
        let unrecorded = LatencyHistogram::new().summary();
        assert_eq!(unrecorded, LatencySummary::default());
        assert_eq!(unrecorded.p50(), 0.0);
        assert_eq!(unrecorded.p95(), 0.0);
        assert_eq!(unrecorded.p99(), 0.0);
    }

    #[test]
    fn phase_rows_cover_all_phases_plus_residual() {
        assert_eq!(PHASE_ROWS, PHASE_COUNT + 1);
        let names: Vec<&str> = (0..PHASE_ROWS).map(phase_row_name).collect();
        assert_eq!(names.last(), Some(&"other"));
        assert_eq!(names[0], "hamiltonian_assembly");
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), PHASE_ROWS);
    }

    #[test]
    fn recorded_profile_shares_sum_to_one() {
        let telemetry = Telemetry::new(&TelemetryOptions::default().with_enabled(true));
        let mut profile = CompileProfile::default();
        profile.phase_seconds[0] = 0.2;
        profile.phase_counts[0] = 1;
        profile.phase_seconds[1] = 0.5;
        profile.phase_counts[1] = 4;
        profile.jacobi_sweeps = 12;
        // measured 1.0 s, phases claim 0.7 s → residual 0.3 s.
        telemetry.record_compile_profile(1, None, 1000, &profile, 1.0);
        let phases = telemetry.phase_metrics();
        assert!(!phases.is_empty());
        let share_sum: f64 = phases.iter().map(|p| p.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");
        let other = phases.last().unwrap();
        assert_eq!(other.name, "other");
        assert_eq!(other.durations.count, 1);
        assert!((other.durations.mean_seconds - 0.3).abs() < 1e-6);
        assert_eq!(telemetry.jacobi_sweeps(), 12);
        // The trace ring gained one Phase child span per nonzero phase.
        let spans: Vec<TraceEvent> = telemetry
            .trace_events(usize::MAX)
            .into_iter()
            .filter(|e| e.stage == TraceStage::Phase)
            .collect();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|e| e.span_micros > 0));
        assert_eq!(spans[0].micros, 1000);
    }

    /// A latency summary whose samples all fell into one bucket.
    fn summary(count: u64, total_seconds: f64, bucket: usize) -> LatencySummary {
        let quantile = LatencyHistogram::bucket_value_seconds(bucket);
        LatencySummary {
            count,
            mean_seconds: total_seconds / count as f64,
            p50_seconds: quantile,
            p95_seconds: quantile,
            p99_seconds: quantile,
        }
    }

    /// A snapshot with every field set: [`JOURNAL_LINE`] is its journal line.
    fn populated_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            seq: 17,
            uptime_seconds: 12.345_678_9,
            runtime: RuntimeMetrics {
                cache: vqc_core::CacheMetrics {
                    hits: 90,
                    misses: 30,
                    insertions: 28,
                    evictions: 7,
                    restored: 5,
                },
                unique_compilations: 29,
                coalesced_waits: 11,
                submissions: 40,
                completed_submissions: 33,
                canceled_submissions: 2,
                workers: 4,
            },
            busy_workers: 3,
            outstanding: 5,
            ready_tasks: 6,
            cache_entries: 21,
            trace_dropped: 8,
            warm_start: vqc_core::WarmStartStats {
                table_hits: 12,
                table_misses: 9,
                table_evictions: 3,
                memo_hits: 1,
                memo_misses: 2,
                seeded_iterations: 1500,
                cold_iterations: 4200,
            },
            seed_entries: 14,
            phases: vec![
                PhaseMetrics {
                    name: "propagation".to_string(),
                    durations: summary(3, 0.6, 18),
                    share: 0.75,
                },
                PhaseMetrics {
                    name: "other".to_string(),
                    durations: summary(3, 0.2, 16),
                    share: 0.25,
                },
            ],
            jacobi_sweeps: 640,
            classes: vec![
                ClassLatency {
                    class: 0,
                    queue_wait: summary(2, 0.004, 12),
                    submit_to_report: summary(2, 0.5, 19),
                },
                ClassLatency {
                    class: 1,
                    queue_wait: summary(5, 0.0001, 5),
                    submit_to_report: summary(5, 0.02, 13),
                },
                ClassLatency {
                    class: 2,
                    queue_wait: LatencySummary::default(),
                    submit_to_report: summary(1, 3.0, 22),
                },
            ],
        }
    }

    /// The `vqc-top --json` journal line of [`populated_snapshot`], as
    /// `vqc-report` and the CI journal checks read it: each key, its order
    /// and its number format are part of the schema. The always-zero `memo_*`
    /// warm-start counters stay out of it, whatever they read.
    const JOURNAL_LINE: &str = concat!(
        r#"{"seq":17,"uptime_seconds":12.345679,"workers":4,"busy_workers":3,"#,
        r#""outstanding":5,"ready_tasks":6,"submissions":40,"completed":33,"canceled":2,"#,
        r#""cache":{"hits":90,"misses":30,"insertions":28,"evictions":7,"entries":21,"#,
        r#""hit_ratio":0.7500},"unique_compilations":29,"coalesced_waits":11,"#,
        r#""trace_dropped":8,"warm_start":{"table_hits":12,"table_misses":9,"#,
        r#""table_evictions":3,"seed_entries":14,"seeded_iterations":1500,"#,
        r#""cold_iterations":4200},"phases":[{"name":"propagation","share":0.7500,"#,
        r#""durations":{"count":3,"mean_seconds":0.200000000,"p50_seconds":0.185363800,"#,
        r#""p95_seconds":0.185363800,"p99_seconds":0.185363800}},{"name":"other","#,
        r#""share":0.2500,"durations":{"count":3,"mean_seconds":0.066666667,"#,
        r#""p50_seconds":0.046340950,"p95_seconds":0.046340950,"p99_seconds":0.046340950}}],"#,
        r#""jacobi_sweeps":640,"classes":[{"class":"low","queue_wait":{"count":2,"#,
        r#""mean_seconds":0.002000000,"p50_seconds":0.002896309,"p95_seconds":0.002896309,"#,
        r#""p99_seconds":0.002896309},"submit_to_report":{"count":2,"mean_seconds":0.250000000,"#,
        r#""p50_seconds":0.370727600,"p95_seconds":0.370727600,"p99_seconds":0.370727600}},"#,
        r#"{"class":"normal","queue_wait":{"count":5,"mean_seconds":0.000020000,"#,
        r#""p50_seconds":0.000022627,"p95_seconds":0.000022627,"p99_seconds":0.000022627},"#,
        r#""submit_to_report":{"count":5,"mean_seconds":0.004000000,"p50_seconds":0.005792619,"#,
        r#""p95_seconds":0.005792619,"p99_seconds":0.005792619}},{"class":"high","#,
        r#""queue_wait":{"count":0,"mean_seconds":0.000000000,"p50_seconds":0.000000000,"#,
        r#""p95_seconds":0.000000000,"p99_seconds":0.000000000},"submit_to_report":{"count":1,"#,
        r#""mean_seconds":3.000000000,"p50_seconds":2.965820801,"p95_seconds":2.965820801,"#,
        r#""p99_seconds":2.965820801}}]}"#,
    );

    #[test]
    fn json_line_keeps_the_journal_schema() {
        assert_eq!(populated_snapshot().to_json_line(), JOURNAL_LINE);
    }

    /// Reading the line back gives the snapshot on every journaled field;
    /// the unjournaled ones read 0.
    #[test]
    fn a_journal_line_reads_back_as_written() {
        let read = MetricsSnapshot::from_json_line(JOURNAL_LINE).unwrap();
        assert_eq!(read.to_json_line(), JOURNAL_LINE);
        let mut expected = populated_snapshot().runtime;
        expected.cache.restored = 0;
        assert_eq!(read.runtime, expected);
        assert_eq!(
            (read.warm_start.memo_hits, read.warm_start.memo_misses),
            (0, 0)
        );
    }

    /// A line of another schema is an error naming the key, not a zero.
    #[test]
    fn a_bad_journal_line_names_the_key() {
        let without = JOURNAL_LINE.replacen("\"completed\":33,", "", 1);
        assert_eq!(
            MetricsSnapshot::from_json_line(&without).unwrap_err(),
            "missing key `completed`"
        );
        let mistyped = JOURNAL_LINE.replacen("\"hits\":90", "\"hits\":\"90\"", 1);
        assert_eq!(
            MetricsSnapshot::from_json_line(&mistyped).unwrap_err(),
            "key `cache.hits` does not read as u64"
        );
        let nested = JOURNAL_LINE.replacen("\"p99_seconds\":0.002896309", "\"p99\":0", 1);
        assert_eq!(
            MetricsSnapshot::from_json_line(&nested).unwrap_err(),
            "classes[0]: missing key `queue_wait.p99_seconds`"
        );
        let renamed = JOURNAL_LINE.replacen("\"class\":\"high\"", "\"class\":\"urgent\"", 1);
        assert_eq!(
            MetricsSnapshot::from_json_line(&renamed).unwrap_err(),
            "classes[2]: unknown class `urgent`"
        );
        assert!(MetricsSnapshot::from_json_line("{\"seq\":1}").is_err());
        assert!(MetricsSnapshot::from_json_line("not json").is_err());
    }
}
