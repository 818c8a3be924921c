//! Integration tests of the telemetry subsystem: per-client counter slices
//! summing to the global view under concurrent load, latency histograms
//! agreeing with completion counts, polled metrics snapshots, and the
//! lifecycle trace ring's stage ordering.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vqc_circuit::Circuit;
use vqc_core::{CompilerOptions, Strategy};
use vqc_runtime::{
    priority_class, CompilationRuntime, Priority, RuntimeOptions, Submission, TelemetryOptions,
    TraceStage, PRIORITY_CLASSES, TRACE_CAPACITY,
};

fn fast_options() -> CompilerOptions {
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 80;
    options.grape.target_infidelity = 5e-2;
    options.search_precision_ns = 2.0;
    options
}

/// A circuit that aggregates into exactly one Fixed 2-qubit GRAPE block,
/// distinct per `phase`.
fn one_block_circuit(phase: f64) -> Circuit {
    let mut circuit = Circuit::new(2);
    circuit.h(0);
    circuit.h(1);
    circuit.cx(0, 1);
    circuit.rx(0, phase);
    circuit.cx(0, 1);
    circuit
}

/// Under concurrent multi-client load, the per-client metric slices sum to the
/// global `RuntimeMetrics` / `MetricsSnapshot` view — no event is dropped or
/// double-counted by the sharded accounting.
#[test]
fn client_slices_sum_to_global_metrics_under_concurrent_load() {
    let runtime = Arc::new(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(4),
    ));
    let clients = 4u64;
    let per_client = 3u64;
    let threads: Vec<_> = (0..clients)
        .map(|client| {
            let runtime = Arc::clone(&runtime);
            std::thread::spawn(move || {
                for i in 0..per_client {
                    // Distinct phases per client, one shared phase across all
                    // clients so cross-request dedup and fan-out fire too.
                    let phase = if i == 0 {
                        0.42
                    } else {
                        client as f64 + 0.1 * i as f64
                    };
                    let priority = match client % 3 {
                        0 => Priority::LOW,
                        1 => Priority::NORMAL,
                        _ => Priority::HIGH,
                    };
                    let handle = runtime
                        .submit(
                            Submission::single(
                                one_block_circuit(phase),
                                [],
                                Strategy::StrictPartial,
                            )
                            .with_client(client)
                            .with_priority(priority),
                        )
                        .expect("the runtime is live");
                    assert!(handle.wait().expect("not canceled")[0].is_ok());
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }

    let global = runtime.metrics();
    let slices = runtime.client_metrics_snapshot();
    assert_eq!(slices.len(), clients as usize);
    let sum = |f: fn(&vqc_runtime::ClientMetrics) -> u64| -> u64 {
        slices.iter().map(|(_, m)| f(m)).sum()
    };
    assert_eq!(sum(|m| m.submissions), global.submissions);
    assert_eq!(sum(|m| m.submissions), clients * per_client);
    assert_eq!(sum(|m| m.completed), global.completed_submissions);
    assert_eq!(sum(|m| m.compilations), global.unique_compilations);
    assert_eq!(sum(|m| m.coalesced_waits), global.coalesced_waits);
    assert_eq!(sum(|m| m.canceled), global.canceled_submissions);

    // The telemetry snapshot embeds the same counters, read the same way.
    let snapshot = runtime.telemetry_snapshot();
    assert_eq!(snapshot.runtime, global);
    assert_eq!(snapshot.runtime.workers, 4);
}

/// Every completed submission is recorded in exactly one priority class's
/// latency histograms: the queue-wait and submit-to-report counts each sum to
/// the completed-submission count, in the class the submission ran at.
#[test]
fn histogram_counts_equal_completed_submissions() {
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(2));
    let priorities = [
        Priority::LOW,
        Priority::NORMAL,
        Priority::HIGH,
        Priority::NORMAL,
        Priority(20),
    ];
    let mut expected = [0u64; PRIORITY_CLASSES];
    let handles: Vec<_> = priorities
        .iter()
        .enumerate()
        .map(|(i, &priority)| {
            expected[priority_class(priority)] += 1;
            runtime
                .submit(
                    Submission::single(
                        one_block_circuit(0.2 + 0.3 * i as f64),
                        [],
                        Strategy::StrictPartial,
                    )
                    .with_priority(priority),
                )
                .unwrap()
        })
        .collect();
    for handle in &handles {
        assert!(handle.wait().expect("not canceled")[0].is_ok());
    }

    let snapshot = runtime.telemetry_snapshot();
    assert_eq!(
        snapshot.runtime.completed_submissions,
        priorities.len() as u64
    );
    assert_eq!(snapshot.classes.len(), PRIORITY_CLASSES);
    for (class, latency) in snapshot.classes.iter().enumerate() {
        assert_eq!(latency.class as usize, class);
        assert_eq!(
            latency.submit_to_report.count, expected[class],
            "class {class} submit-to-report count"
        );
        assert_eq!(
            latency.queue_wait.count, expected[class],
            "class {class} queue-wait count"
        );
        if latency.submit_to_report.count > 0 {
            // Quantiles are positive and ordered on a log-bucketed histogram.
            let p50 = latency.submit_to_report.p50();
            let p99 = latency.submit_to_report.p99();
            assert!(p50 > 0.0 && p99 >= p50);
            assert!(latency.submit_to_report.mean_seconds > 0.0);
        }
    }
}

/// Every snapshot takes the next `seq`, so polls see it strictly increase
/// while submissions run, and a poll taken once the waits return reflects the
/// drained runtime.
#[test]
fn polled_snapshots_increase_seq_and_reflect_the_drain() {
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(2));
    let total = 4u64;
    let mut snapshots = vec![runtime.telemetry_snapshot()];
    let handles: Vec<_> = (0..total)
        .map(|i| {
            runtime
                .submit(Submission::single(
                    one_block_circuit(0.3 + 0.4 * i as f64),
                    [],
                    Strategy::StrictPartial,
                ))
                .unwrap()
        })
        .collect();
    for handle in &handles {
        snapshots.push(runtime.telemetry_snapshot());
        assert!(handle.wait().expect("not canceled")[0].is_ok());
    }
    // A worker counts itself idle just after it delivers its last result, so
    // the waits can return a moment before it has: poll until it has.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snapshot = runtime.telemetry_snapshot();
        let idle = snapshot.busy_workers == 0;
        snapshots.push(snapshot);
        if idle {
            break;
        }
        assert!(Instant::now() < deadline, "a worker never went idle");
        std::thread::yield_now();
    }
    for pair in snapshots.windows(2) {
        assert!(
            pair[1].seq > pair[0].seq,
            "seq must be strictly increasing: {} then {}",
            pair[0].seq,
            pair[1].seq
        );
        assert!(pair[1].uptime_seconds >= pair[0].uptime_seconds);
    }
    let last = snapshots.last().unwrap();
    assert_eq!(last.runtime.submissions, total);
    assert_eq!(
        last.runtime.completed_submissions, total,
        "the last poll reflects the drain"
    );
    assert_eq!(last.outstanding, 0);
    assert_eq!(last.busy_workers, 0);
}

/// With telemetry disabled, the trace ring and the latency histograms stay
/// empty, and on-demand snapshots still count.
#[test]
fn disabled_telemetry_records_nothing() {
    let runtime = CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1)
            .with_telemetry(TelemetryOptions::default().with_enabled(false)),
    );
    let handle = runtime
        .submit(Submission::single(
            one_block_circuit(0.9),
            [],
            Strategy::StrictPartial,
        ))
        .unwrap();
    assert!(handle.wait().expect("not canceled")[0].is_ok());
    assert!(runtime.trace_events().is_empty());
    let snapshot = runtime.telemetry_snapshot();
    assert_eq!(snapshot.runtime.completed_submissions, 1);
    assert_eq!(
        snapshot
            .classes
            .iter()
            .map(|c| c.queue_wait.count)
            .sum::<u64>(),
        0
    );
}

/// One submission's lifecycle appears in the trace ring as the full chain
/// submitted → admitted → dispatched → compile-start → compiled → job-done →
/// report, with non-decreasing timestamps.
#[test]
fn trace_ring_records_the_full_lifecycle_chain() {
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(1));
    let handle = runtime
        .submit(
            Submission::single(one_block_circuit(0.5), [], Strategy::StrictPartial).with_client(7),
        )
        .unwrap();
    assert!(handle.wait().expect("not canceled")[0].is_ok());

    let events = runtime.trace_events();
    let expected = [
        TraceStage::Submitted,
        TraceStage::Admitted,
        TraceStage::Dispatched,
        TraceStage::CompileStart,
        TraceStage::Compiled,
        TraceStage::JobDone,
        TraceStage::Report,
    ];
    let mut last_index = None;
    for stage in expected {
        let index = events
            .iter()
            .position(|e| e.stage == stage)
            .unwrap_or_else(|| panic!("stage {} missing from trace", stage.name()));
        if let Some(last) = last_index {
            assert!(
                index > last,
                "stage {} out of order in the lifecycle chain",
                stage.name()
            );
            assert!(
                events[index].micros >= events[last].micros,
                "timestamps must be non-decreasing along the chain"
            );
        }
        last_index = Some(index);
    }
    // Every event belongs to the one submission and carries its client id
    // where the stage has one.
    assert!(events
        .iter()
        .all(|e| e.client.is_none() || e.client == Some(7)));
}

/// A submission is traced as admitted, and counted, before it is expanded:
/// however fast expansion is (these submissions complete inside `submit`), the
/// ring holds submitted → admitted → report for every submission, and no
/// snapshot shows more completions than admissions. Each submission traces
/// four events (submitted, admitted, job-done, report), so all 300 fit in the
/// ring.
#[test]
fn admission_is_traced_and_counted_before_a_submission_can_run() {
    let submissions = 300u64;
    assert!(4 * submissions <= TRACE_CAPACITY as u64);
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(1));
    // One single-gate (lookup) block per qubit: nothing to compile, so each
    // submission is expanded and reported within microseconds, on the
    // submitting thread alone.
    let mut circuit = Circuit::new(3);
    for qubit in 0..3 {
        circuit.rz_expr(qubit, vqc_circuit::ParamExpr::theta(qubit));
    }
    let submitting = std::sync::atomic::AtomicBool::new(true);
    let sampling = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut snapshots = 0;
            sampling.wait();
            loop {
                let metrics = runtime.telemetry_snapshot().runtime;
                assert!(
                    metrics.submissions >= metrics.completed_submissions,
                    "snapshot shows {} completed of {} admitted",
                    metrics.completed_submissions,
                    metrics.submissions
                );
                snapshots += 1;
                if !submitting.load(std::sync::atomic::Ordering::SeqCst) {
                    return snapshots;
                }
            }
        });
        // The submissions complete inside `submit`, in less time than a new
        // thread takes to start: sample from the first one on.
        sampling.wait();
        let handles: Vec<_> = (0..submissions)
            .map(|i| {
                runtime
                    .submit(Submission::single(
                        circuit.clone(),
                        [0.1, 0.2, 0.01 * i as f64],
                        Strategy::StrictPartial,
                    ))
                    .unwrap()
            })
            .collect();
        for handle in handles {
            assert!(handle.wait().expect("not canceled")[0].is_ok());
        }
        submitting.store(false, std::sync::atomic::Ordering::SeqCst);
        assert!(sampler.join().unwrap() > 0);
    });

    let events = runtime.trace_events();
    for submission in 0..submissions {
        let first = |stage: TraceStage| {
            events
                .iter()
                .position(|e| e.submission == submission && e.stage == stage)
                .unwrap_or_else(|| panic!("submission {submission}: no {} event", stage.name()))
        };
        let (submitted, admitted, reported) = (
            first(TraceStage::Submitted),
            first(TraceStage::Admitted),
            first(TraceStage::Report),
        );
        assert!(
            submitted < admitted && admitted < reported,
            "submission {submission}: submitted@{submitted} admitted@{admitted} reported@{reported}"
        );
    }
}
