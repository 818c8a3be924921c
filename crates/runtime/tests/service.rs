//! Integration tests of the request-scheduling service layer: strict priority
//! ordering with fair-share interleaving, cross-request block dedup with fan-out,
//! and admission, which parks the submitter while the queue is full.
//!
//! Determinism notes: `submit` expands a submission on the calling thread, so
//! when it returns every task of the submission is in the ready queue. The
//! tests pause the runtime (workers stop dispatching) to build a known
//! ready-queue state, then resume and read each handle's `dispatch_sequence()` —
//! the global dispatch order the scheduler actually chose.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::time::Duration;
use vqc_circuit::Circuit;
use vqc_core::{CompilationReport, CompileError, CompilerOptions, PartialCompiler, Strategy};
use vqc_runtime::{
    priority_class, CompilationRuntime, JobStatus, Priority, Progress, RuntimeOptions, Submission,
    SubmitError, TraceStage,
};

fn fast_options() -> CompilerOptions {
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 80;
    options.grape.target_infidelity = 5e-2;
    options.search_precision_ns = 2.0;
    options
}

/// A circuit that aggregates into exactly one Fixed 2-qubit GRAPE block (no
/// parameterized gates), distinct per `phase`.
fn one_block_circuit(phase: f64) -> Circuit {
    let mut circuit = Circuit::new(2);
    circuit.h(0);
    circuit.h(1);
    circuit.cx(0, 1);
    circuit.rx(0, phase);
    circuit.cx(0, 1);
    circuit
}

/// A 4-qubit circuit whose prepared form aggregates (at `max_block_width = 2`) into
/// two Fixed blocks: a *shared* section on qubits (0, 1) that is identical for
/// every client, and a *private* section on qubits (2, 3) distinct per phase.
fn shared_plus_private(private_phase: f64) -> Circuit {
    let mut circuit = Circuit::new(4);
    circuit.h(0);
    circuit.cx(0, 1);
    circuit.rx(0, 0.7);
    circuit.cx(0, 1);
    circuit.h(2);
    circuit.cx(2, 3);
    circuit.rx(2, private_phase);
    circuit.cx(2, 3);
    circuit
}

/// The acceptance scenario: two concurrent clients at different priorities share a
/// block. The high-priority client's work — its private block *and* the shared
/// block, via priority inheritance — is scheduled before the low-priority client's
/// private block, and the shared block is compiled exactly once.
#[test]
fn high_priority_work_dispatches_first_and_shared_blocks_compile_once() {
    let mut options = fast_options();
    // Cap the block width so the shared (0,1) and private (2,3) sections cannot
    // merge into one 4-qubit block.
    options.max_block_width = 2;
    let runtime = CompilationRuntime::new(options, RuntimeOptions::with_workers(1));
    runtime.pause();

    let low = runtime
        .submit(
            Submission::single(shared_plus_private(0.3), [], Strategy::StrictPartial)
                .with_priority(Priority::LOW)
                .with_client(1),
        )
        .unwrap();
    // The low submission expanded (and posted the shared task as owner) inside
    // `submit`, so the high one coalesces onto low's task.
    let high = runtime
        .submit(
            Submission::single(shared_plus_private(1.9), [], Strategy::StrictPartial)
                .with_priority(Priority::HIGH)
                .with_client(2),
        )
        .unwrap();
    runtime.resume();

    let low_reports = low.wait().expect("not canceled");
    let high_reports = high.wait().expect("not canceled");
    let low_report = low_reports[0].as_ref().unwrap();
    let high_report = high_reports[0].as_ref().unwrap();
    assert_eq!(low_report.num_blocks, 2);
    assert_eq!(high_report.num_blocks, 2);

    // Dispatch order: the shared block (posted first by the low client, re-posted
    // at high priority when the high client coalesced onto it) dispatches first,
    // then the high client's private block, then — only then — the low client's
    // private block. The high client's whole working set precedes low's private
    // work even though low submitted first.
    assert_eq!(
        high.dispatch_sequence(),
        vec![1],
        "high's own block runs right after the (inherited) shared block"
    );
    assert_eq!(
        low.dispatch_sequence(),
        vec![0, 2],
        "the shared block task is owned by low (seq 0); low's private block is last"
    );

    // The shared block was GRAPE-compiled exactly once: three unique compilations
    // for four GRAPE block requests, one coalesced fan-out.
    let metrics = runtime.metrics();
    assert_eq!(metrics.unique_compilations, 3);
    assert_eq!(metrics.cache.misses, 3);
    assert_eq!(metrics.coalesced_waits, 1);
    // The fanned-out copy of the shared block reports as served from cache, and
    // both clients agree on its pulse.
    let cached_blocks =
        |report: &vqc_core::CompilationReport| report.blocks.iter().filter(|b| b.cached).count();
    assert_eq!(cached_blocks(high_report), 1);
    assert_eq!(cached_blocks(low_report), 0);
    let shared_duration = |report: &vqc_core::CompilationReport| {
        report
            .blocks
            .iter()
            .find(|b| b.qubits == vec![0, 1])
            .map(|b| b.duration_ns)
            .expect("both plans contain the shared (0,1) block")
    };
    assert_eq!(shared_duration(high_report), shared_duration(low_report));
}

/// Clients of equal priority interleave by fair share instead of draining the
/// first client's backlog: A's second submission yields to B's first.
#[test]
fn equal_priority_clients_interleave_fairly() {
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(1));
    runtime.pause();
    let submit = |client: u64, phase: f64| {
        runtime
            .submit(
                Submission::single(one_block_circuit(phase), [], Strategy::StrictPartial)
                    .with_client(client),
            )
            .unwrap()
    };
    let a1 = submit(1, 0.2);
    let a2 = submit(1, 0.9);
    let b1 = submit(2, 1.6);
    runtime.resume();
    for handle in [&a1, &a2, &b1] {
        assert!(handle.wait().unwrap()[0].is_ok());
    }
    // A's first submission starts at virtual time 0 and advances A's clock; B
    // joined at virtual time 0 too, so B's first block outranks A's second.
    assert_eq!(a1.dispatch_sequence(), vec![0]);
    assert_eq!(b1.dispatch_sequence(), vec![1]);
    assert_eq!(a2.dispatch_sequence(), vec![2]);
}

/// Submits one-block work from a fresh thread, which parks while the queue is
/// full; the thread yields whether the block compiled.
fn submit_from_thread(
    runtime: &Arc<CompilationRuntime>,
    phase: f64,
) -> std::thread::JoinHandle<Result<bool, SubmitError>> {
    let runtime = Arc::clone(runtime);
    std::thread::spawn(move || {
        let submission = Submission::single(one_block_circuit(phase), [], Strategy::StrictPartial);
        let reports = runtime.submit(submission)?.wait()?;
        Ok(reports[0].is_ok())
    })
}

/// A full queue parks the submitting thread until capacity frees, then admits —
/// nothing is lost, nothing is refused.
#[test]
fn a_full_queue_parks_the_submitter_until_a_slot_frees() {
    let runtime = Arc::new(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1).with_queue_depth(1),
    ));
    runtime.pause();
    let first = runtime
        .submit(Submission::single(
            one_block_circuit(0.4),
            [],
            Strategy::StrictPartial,
        ))
        .unwrap();
    // Parks until `first` completes, then compiles.
    let second = submit_from_thread(&runtime, 0.9);
    // The queue stays at depth while the worker pool is paused; the spawned
    // submit cannot have been admitted.
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(runtime.metrics().submissions, 1);
    runtime.resume();
    assert!(first.wait().unwrap()[0].is_ok());
    assert!(second.join().unwrap().expect("admitted after capacity"));
    assert_eq!(runtime.metrics().submissions, 2);
}

/// Many submissions of the same circuit at different θ bindings: the shared Fixed
/// block is GRAPE-compiled exactly once across all requests, whichever request's
/// task ran it, and every other request is served by fan-out or cache hit.
///
/// Uses `RuntimeOptions::default()` so the CI stress job can drive worker count
/// and queue depth through `VQC_WORKERS` / `VQC_QUEUE_DEPTH`.
#[test]
fn cross_request_dedup_compiles_each_unique_block_exactly_once() {
    let runtime = std::sync::Arc::new(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::default(),
    ));
    let mut circuit = one_block_circuit(0.8);
    circuit.rz_expr(1, vqc_circuit::ParamExpr::theta(0));

    // Submit from several OS threads at once (competing clients), each a batch of
    // bindings — every request's plan contains the same Fixed block.
    let handles: Vec<_> = (0..4)
        .map(|client| {
            let runtime = std::sync::Arc::clone(&runtime);
            let circuit = circuit.clone();
            std::thread::spawn(move || {
                let bindings: Vec<Vec<f64>> = (0..3)
                    .map(|i| vec![0.2 * client as f64 + i as f64])
                    .collect();
                runtime
                    .submit(
                        Submission::iterations(circuit, bindings, Strategy::StrictPartial)
                            .with_client(client),
                    )
                    .unwrap()
                    .wait()
            })
        })
        .collect();
    for handle in handles {
        let reports = handle.join().unwrap().expect("not canceled");
        assert_eq!(reports.len(), 3);
        for report in reports {
            assert!(report.is_ok());
        }
    }
    let metrics = runtime.metrics();
    assert_eq!(
        metrics.unique_compilations, 1,
        "one Fixed block exists across all 12 jobs and compiles exactly once"
    );
    assert_eq!(metrics.cache.insertions, 1);
    assert_eq!(metrics.cache.misses, 1);
    // Every other job was served without GRAPE: a coalesced fan-out if it arrived
    // while the block was pending, a cache hit otherwise.
    assert!(metrics.coalesced_waits + metrics.cache.hits >= 11);
    assert_eq!(metrics.submissions, 4);
}

/// Asserts two reports agree on everything but where their blocks came from
/// (cache or GRAPE) and what that cost.
fn assert_same_pulses(report: &CompilationReport, reference: &CompilationReport) {
    assert_eq!(report.pulse_duration_ns, reference.pulse_duration_ns);
    assert_eq!(
        report.gate_based_duration_ns,
        reference.gate_based_duration_ns
    );
    assert_eq!(report.blocks.len(), reference.blocks.len());
    for (block, expected) in report.blocks.iter().zip(&reference.blocks) {
        assert_eq!(
            (
                &block.qubits,
                block.num_ops,
                block.duration_ns,
                block.used_grape,
                block.converged
            ),
            (
                &expected.qubits,
                expected.num_ops,
                expected.duration_ns,
                expected.used_grape,
                expected.converged
            )
        );
    }
}

/// Submissions expand on their submitting threads, concurrently: eight threads
/// released together by a barrier submit the same cold two-block circuit. Each
/// distinct block compiles exactly once, every other block request is a
/// coalesced wait or a cache hit, and every report carries the sequential
/// compiler's pulses.
///
/// Uses `RuntimeOptions::default()` so the CI stress job can drive worker count
/// and queue depth through `VQC_WORKERS` / `VQC_QUEUE_DEPTH`.
#[test]
fn concurrent_expansions_of_one_cold_circuit_compile_each_block_once() {
    let mut options = fast_options();
    options.max_block_width = 2;
    let circuit = shared_plus_private(0.3);
    let compiler = PartialCompiler::new(options.clone());
    let sequential = compiler
        .compile(&circuit, &[], Strategy::StrictPartial)
        .unwrap();
    let plan = compiler
        .plan(&circuit, &[], Strategy::StrictPartial)
        .unwrap();
    let keys: HashSet<_> = plan
        .blocks
        .iter()
        .filter_map(|block| plan.dedup_key(block, &[]))
        .collect();
    assert_eq!(keys.len(), 2);

    // Cold: the runtime has planned and compiled nothing yet.
    let runtime = Arc::new(CompilationRuntime::new(options, RuntimeOptions::default()));
    let threads = 8u64;
    let barrier = Arc::new(Barrier::new(threads as usize));
    let submitters: Vec<_> = (0..threads)
        .map(|client| {
            let runtime = Arc::clone(&runtime);
            let barrier = Arc::clone(&barrier);
            let circuit = circuit.clone();
            std::thread::spawn(move || {
                barrier.wait();
                runtime
                    .submit(
                        Submission::single(circuit, [], Strategy::StrictPartial)
                            .with_client(client),
                    )
                    .unwrap()
                    .wait()
            })
        })
        .collect();
    for submitter in submitters {
        let report = submitter.join().unwrap().expect("not canceled").remove(0);
        assert_same_pulses(&report.unwrap(), &sequential);
    }

    let keys = keys.len() as u64;
    let metrics = runtime.metrics();
    assert_eq!(metrics.unique_compilations, keys);
    assert_eq!(metrics.cache.misses, keys);
    let slices = runtime.client_metrics_snapshot();
    let total = |field: fn(&vqc_runtime::ClientMetrics) -> u64| -> u64 {
        slices.iter().map(|(_, metrics)| field(metrics)).sum()
    };
    assert_eq!(total(|m| m.compilations), keys);
    assert_eq!(
        total(|m| m.cache_hits),
        threads * keys - keys,
        "every other block request was served by fan-out or a cache hit"
    );
    assert!(total(|m| m.coalesced_waits) <= total(|m| m.cache_hits));
    assert_eq!(total(|m| m.completed), threads);
}

/// Regression for interest-generation confusion: when a high-priority client
/// coalesces onto a shared block, the task is re-posted at high priority and the
/// *original* posting becomes a stale duplicate that can outlive its interest in
/// the ready queue (it is only discarded when popped). A later submission
/// re-creating interest in the same `BlockKey` must not have that interest
/// hijacked — or dropped — by the leftover; without generation stamps the stale
/// task consumed the successor's pending entry and the successor's handle hung
/// forever. Several rounds of (low + high) then (low alone) on one shared key
/// walk straight through that window; the observable failure is a hang.
#[test]
fn stale_priority_inheritance_duplicates_cannot_consume_later_interests() {
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(1));
    for round in 0..3 {
        // A low owner posts the shared key; a high waiter re-posts it.
        runtime.pause();
        let low = runtime
            .submit(
                Submission::single(one_block_circuit(0.7), [], Strategy::StrictPartial)
                    .with_priority(Priority::LOW)
                    .with_client(1),
            )
            .unwrap();
        let high = runtime
            .submit(
                Submission::single(one_block_circuit(0.7), [], Strategy::StrictPartial)
                    .with_priority(Priority::HIGH)
                    .with_client(2),
            )
            .unwrap();
        runtime.resume();
        assert!(
            low.wait().expect("not canceled")[0].is_ok(),
            "round {round}"
        );
        assert!(
            high.wait().expect("not canceled")[0].is_ok(),
            "round {round}"
        );

        // A lone low-priority successor re-creates interest in the same key. Its
        // fresh task carries the (small) observed cost while a leftover stale
        // task carries the (large) model estimate, so the stale one pops first —
        // exactly the hijack window.
        runtime.pause();
        let successor = runtime
            .submit(
                Submission::single(one_block_circuit(0.7), [], Strategy::StrictPartial)
                    .with_priority(Priority::LOW)
                    .with_client(3),
            )
            .unwrap();
        runtime.resume();
        assert!(
            successor.wait().expect("not canceled")[0].is_ok(),
            "round {round}: the successor's interest must survive stale duplicates"
        );
    }
    let metrics = runtime.metrics();
    assert_eq!(
        metrics.unique_compilations, 1,
        "one shared block exists and compiled exactly once across all rounds"
    );
    assert!(metrics.coalesced_waits >= 3);
}

/// Canceling a running submission whose tasks are still queued resolves its
/// handle with `Canceled` and frees its admission slot immediately, without
/// waiting for workers: a submitter parked on the full queue is admitted.
#[test]
fn cancel_releases_queue_capacity_for_queued_and_running_submissions() {
    let runtime = Arc::new(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1).with_queue_depth(1),
    ));
    runtime.pause();
    let first = runtime
        .submit(Submission::single(
            one_block_circuit(0.4),
            [],
            Strategy::StrictPartial,
        ))
        .unwrap();
    assert_eq!(runtime.telemetry_snapshot().outstanding, 1);
    // Queue is at depth; a second submitter parks.
    let second = submit_from_thread(&runtime, 0.9);
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(runtime.metrics().submissions, 1);
    // Cancel frees the slot without a single block having compiled.
    assert!(first.cancel());
    assert!(!first.cancel(), "cancel is idempotent");
    assert_eq!(first.try_status(), JobStatus::Canceled);
    assert!(matches!(first.wait(), Err(SubmitError::Canceled)));
    runtime.resume();
    assert!(second
        .join()
        .unwrap()
        .expect("the canceled submission's slot admits the parked submitter"));
    assert_eq!(runtime.telemetry_snapshot().outstanding, 0);
    let metrics = runtime.metrics();
    assert_eq!(metrics.canceled_submissions, 1);
    // The canceled submission's block task was garbage-collected, not compiled.
    assert_eq!(metrics.unique_compilations, 1);
}

/// Canceling an owner whose task other requests wait on keeps the task alive
/// for the waiters (task GC only drops work nobody wants): the canceled
/// client's private block never compiles, the shared block fans out.
#[test]
fn canceled_owner_with_live_waiters_keeps_shared_work_but_drops_private_work() {
    let mut options = fast_options();
    options.max_block_width = 2;
    let runtime = CompilationRuntime::new(options, RuntimeOptions::with_workers(1));
    runtime.pause();
    let owner = runtime
        .submit(
            Submission::single(shared_plus_private(0.3), [], Strategy::StrictPartial)
                .with_client(1),
        )
        .unwrap();
    // The owner expanded first, so it owns the shared (0,1) block's task.
    let waiter = runtime
        .submit(
            Submission::single(shared_plus_private(1.9), [], Strategy::StrictPartial)
                .with_client(2),
        )
        .unwrap();
    assert!(owner.cancel());
    runtime.resume();

    // The waiter still gets a full report: the shared block compiled (on the
    // canceled owner's task, kept alive by the waiter) and fanned out.
    let report = waiter.wait().expect("not canceled")[0].clone().unwrap();
    assert_eq!(report.num_blocks, 2);
    assert!(matches!(owner.wait(), Err(SubmitError::Canceled)));
    let metrics = runtime.metrics();
    // Shared block + the waiter's private block; the canceled owner's private
    // block was garbage-collected from the ready queue.
    assert_eq!(metrics.unique_compilations, 2);
    assert_eq!(metrics.canceled_submissions, 1);
    assert_eq!(runtime.client_metrics(1).canceled, 1);
}

/// A released client's metrics slice stays released: the canceled owner's
/// shared task, kept alive by another client's waiter, dispatches and compiles
/// after `release_client`, and neither brings the slice back.
#[test]
fn a_released_clients_metrics_slice_is_not_recreated_by_its_straggling_work() {
    let mut options = fast_options();
    options.max_block_width = 2;
    let runtime = CompilationRuntime::new(options, RuntimeOptions::with_workers(1));
    runtime.pause();
    let owner = runtime
        .submit(
            Submission::single(shared_plus_private(0.3), [], Strategy::StrictPartial)
                .with_client(1),
        )
        .unwrap();
    let waiter = runtime
        .submit(
            Submission::single(shared_plus_private(1.9), [], Strategy::StrictPartial)
                .with_client(2),
        )
        .unwrap();
    assert!(owner.cancel());
    runtime.release_client(1);
    runtime.resume();
    assert!(waiter.wait().expect("not canceled")[0].is_ok());
    let ids: Vec<u64> = runtime
        .client_metrics_snapshot()
        .iter()
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(ids, vec![2], "client 1's slice stays released");
    assert_eq!(runtime.metrics().unique_compilations, 2);
}

/// Dispatch order within a submission is a function of its plan alone: the
/// keyed blocks of a heterogeneous circuit start widest first, in the same order
/// on a runtime that has never seen them and on one that has compiled every one.
/// (Single-gate lookup blocks resolve at expansion and never start on a worker.)
#[test]
fn block_order_within_a_submission_does_not_depend_on_what_ran_before() {
    // Narrow and single-gate blocks come first in circuit order; the wide block
    // that longest-first must start with comes last.
    let mut circuit = Circuit::new(5);
    circuit.h(3);
    circuit.cx(3, 4);
    circuit.rx(3, 0.6);
    circuit.cx(3, 4);
    circuit.rz_expr(4, vqc_circuit::ParamExpr::theta(0));
    circuit.h(0);
    circuit.cx(0, 1);
    circuit.cx(1, 2);
    circuit.rx(1, 1.3);
    circuit.cx(1, 2);
    circuit.cx(0, 1);
    let params = [0.4];
    let mut options = fast_options();
    options.grape.max_iterations = 6; // the order under test does not need convergence

    let runtime = CompilationRuntime::new(options, RuntimeOptions::with_workers(1));
    let compile_start_order = |submission: u64| -> Vec<u64> {
        runtime.pause();
        let handle = runtime
            .submit(Submission::single(
                circuit.clone(),
                params,
                Strategy::StrictPartial,
            ))
            .unwrap();
        runtime.resume();
        assert!(handle.wait().unwrap()[0].is_ok());
        runtime
            .trace_events()
            .iter()
            .filter(|e| e.submission == submission && e.stage == TraceStage::CompileStart)
            .map(|e| e.detail)
            .collect()
    };
    let fresh = compile_start_order(0);
    let compilations = runtime.metrics().unique_compilations;
    assert!(compilations >= 2);
    let warm = compile_start_order(1);
    assert_eq!(
        runtime.metrics().unique_compilations,
        compilations,
        "the second pass found every block cached"
    );

    let plan = runtime
        .compiler()
        .plan(&circuit, &params, Strategy::StrictPartial)
        .unwrap();
    let width = |block: u64| plan.blocks[block as usize].qubits.len();
    let keyed = plan
        .blocks
        .iter()
        .filter(|block| plan.dedup_key(block, &params).is_some())
        .count();
    assert!(
        keyed < plan.blocks.len(),
        "the circuit has lookup blocks too"
    );
    assert_eq!(fresh.len(), keyed);
    let widest = plan.blocks.iter().map(|b| b.qubits.len()).max().unwrap();
    assert!(widest >= 3 && width(0) < widest, "{:?}", plan.blocks);
    assert_eq!(width(fresh[0]), widest, "the widest block starts first");
    assert_eq!(fresh, warm);
}

/// `RuntimeMetrics` slices per client: hits, compilations, coalesced waits,
/// queue time, and life-cycle counts are attributed to the client id that
/// caused them.
#[test]
fn metrics_slice_per_client() {
    let mut options = fast_options();
    options.max_block_width = 2;
    let runtime = CompilationRuntime::new(options, RuntimeOptions::with_workers(1));
    runtime.pause();
    let a = runtime
        .submit(
            Submission::single(shared_plus_private(0.3), [], Strategy::StrictPartial)
                .with_client(10),
        )
        .unwrap(); // a owns the shared block's task
    let b = runtime
        .submit(
            Submission::single(shared_plus_private(1.9), [], Strategy::StrictPartial)
                .with_client(20),
        )
        .unwrap();
    runtime.resume();
    assert!(a.wait().unwrap()[0].is_ok());
    assert!(b.wait().unwrap()[0].is_ok());

    let a_metrics = runtime.client_metrics(10);
    let b_metrics = runtime.client_metrics(20);
    // A led both of its blocks; B compiled its private block and coalesced onto
    // A's shared task (served as a fan-out cache hit).
    assert_eq!(a_metrics.submissions, 1);
    assert_eq!(b_metrics.submissions, 1);
    assert_eq!(a_metrics.completed, 1);
    assert_eq!(b_metrics.completed, 1);
    assert_eq!(a_metrics.compilations, 2);
    assert_eq!(b_metrics.compilations, 1);
    assert_eq!(b_metrics.coalesced_waits, 1);
    assert_eq!(b_metrics.cache_hits, 1);
    assert_eq!(a_metrics.dispatched_tasks, 2);
    assert_eq!(b_metrics.dispatched_tasks, 1);
    assert!(a_metrics.queue_seconds >= 0.0);
    // The global view is the sum of the slices (plus nothing else here).
    let metrics = runtime.metrics();
    assert_eq!(
        metrics.unique_compilations,
        a_metrics.compilations + b_metrics.compilations
    );
    let snapshot = runtime.client_metrics_snapshot();
    assert_eq!(
        snapshot.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        vec![10, 20]
    );
    // An unseen client id reads as zeroes rather than an error.
    assert_eq!(runtime.client_metrics(99).submissions, 0);
}

/// Queue time runs from `submit` to the end of expansion, parking included,
/// and is charged once per submission: a submitter parked ~20 ms on a depth-1
/// queue until a cancel frees the slot is charged that wait, and the cancel
/// charges nothing more.
#[test]
fn queue_seconds_charged_once_for_canceled_submissions() {
    let runtime = Arc::new(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1).with_queue_depth(1),
    ));
    runtime.pause();
    let canceled = runtime
        .submit(
            Submission::single(one_block_circuit(0.2), [], Strategy::StrictPartial).with_client(40),
        )
        .unwrap();
    let charged = runtime.client_metrics(40).queue_seconds;
    let parked = {
        let runtime = Arc::clone(&runtime);
        std::thread::spawn(move || {
            let submission =
                Submission::single(one_block_circuit(1.1), [], Strategy::StrictPartial)
                    .with_priority(Priority::HIGH)
                    .with_client(60);
            runtime.submit(submission)?.wait()
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    assert!(canceled.cancel());
    assert_eq!(
        runtime.client_metrics(40).queue_seconds,
        charged,
        "the cancel charges no queue time"
    );
    runtime.resume();
    assert!(parked.join().unwrap().expect("not canceled")[0].is_ok());

    let parked_seconds = runtime.client_metrics(60).queue_seconds;
    assert!(
        parked_seconds >= 0.015,
        "the parked submitter must be charged its ~20ms wait, got {parked_seconds:.6}s"
    );
    let high = runtime
        .telemetry_snapshot()
        .classes
        .into_iter()
        .find(|class| class.class as usize == priority_class(Priority::HIGH))
        .expect("a class row per priority class");
    assert_eq!(high.queue_wait.count, 1, "one queue-wait sample");
    assert!(high.queue_wait.mean_seconds >= 0.015);
}

/// One [`Progress`] step, owned, as a recorder saw it.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    Admitted(usize),
    JobDone(usize, Result<CompilationReport, CompileError>),
    Done(Vec<Result<CompilationReport, CompileError>>),
    Canceled,
}

/// A progress callback that records every step. The callback holds a clone of
/// the returned `Arc`, so its strong count falls back to 1 exactly when the
/// runtime drops the callback.
fn recorder() -> (
    Arc<std::sync::Mutex<Vec<Step>>>,
    impl FnMut(Progress<'_>) + Send + 'static,
) {
    let steps = Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = Arc::clone(&steps);
    let callback = move |progress: Progress<'_>| {
        let step = match progress {
            Progress::Admitted { jobs } => Step::Admitted(jobs),
            Progress::JobDone { job, result } => Step::JobDone(job, result.clone()),
            Progress::Done(results) => Step::Done(results),
            Progress::Canceled => Step::Canceled,
        };
        sink.lock().unwrap().push(step);
    };
    (steps, callback)
}

/// `on_progress` hears `Admitted { jobs }` first, then each job's result
/// exactly once, then one `Done` whose results equal `wait()`'s; and the
/// runtime drops the callback at that terminal step.
#[test]
fn on_progress_streams_completions_in_order() {
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(2));
    let mut circuit = one_block_circuit(0.8);
    circuit.rz_expr(1, vqc_circuit::ParamExpr::theta(0));
    let (steps, callback) = recorder();
    let handle = runtime
        .submit(
            Submission::iterations(
                circuit,
                vec![vec![0.1], vec![0.7], vec![2.2]],
                Strategy::StrictPartial,
            )
            .on_progress(callback),
        )
        .unwrap();
    let results = handle.wait().expect("not canceled");
    assert_eq!(
        Arc::strong_count(&steps),
        1,
        "the callback is dropped at Done"
    );
    let steps = steps.lock().unwrap().clone();
    assert_eq!(steps.len(), 5, "{steps:?}");
    assert_eq!(steps[0], Step::Admitted(3));
    let mut jobs = Vec::new();
    for step in &steps[1..4] {
        let Step::JobDone(job, result) = step else {
            panic!("expected JobDone, got {step:?}");
        };
        assert_eq!(result, &results[*job]);
        jobs.push(*job);
    }
    jobs.sort_unstable();
    assert_eq!(jobs, vec![0, 1, 2]);
    assert_eq!(steps[4], Step::Done(results));
}

/// The handle lifecycle is observable: Running (paused) → Done, and `wait` is
/// idempotent on a cloned handle.
#[test]
fn handle_status_progresses_and_wait_is_repeatable() {
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(1));
    runtime.pause();
    let handle = runtime
        .submit(Submission::single(
            one_block_circuit(0.3),
            [],
            Strategy::StrictPartial,
        ))
        .unwrap();
    // Expanded by `submit`; while paused, its block task cannot run.
    assert_eq!(handle.try_status(), JobStatus::Running);
    runtime.resume();
    let clone = handle.clone();
    assert!(handle.wait().unwrap()[0].is_ok());
    assert_eq!(handle.try_status(), JobStatus::Done);
    assert!(clone.wait().unwrap()[0].is_ok(), "wait repeats on clones");
    assert_eq!(handle.priority(), Priority::NORMAL);
}

/// A circuit whose strict blocking is one single-gate block per operation: a
/// parameterized rotation on each qubit.
fn lookup_only_circuit() -> Circuit {
    let mut circuit = Circuit::new(3);
    for qubit in 0..3 {
        circuit.rz_expr(qubit, vqc_circuit::ParamExpr::theta(qubit));
    }
    circuit
}

/// A cancel racing the completion of a keyed block (a cache hit on a worker,
/// so the window is a few microseconds) must still leave the handle and the
/// counters in agreement: every submission is either canceled or completed,
/// exactly once, and every admission slot comes back — checked after each
/// round, so the first leaked slot fails the test before a later submit could
/// park on it.
#[test]
fn cancels_racing_the_expansion_keep_the_books_balanced() {
    let runtime = CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1).with_queue_depth(2),
    );
    let mut circuit = one_block_circuit(0.7);
    circuit.rz_expr(1, vqc_circuit::ParamExpr::theta(0));
    // Warm the keyed block, so every round's task is a quick cache hit.
    assert!(runtime
        .compile(&circuit, &[0.0], Strategy::StrictPartial)
        .is_ok());
    let rounds = 200;
    let mut canceled_rounds = 0;
    for round in 0..rounds {
        let handle = runtime
            .submit(
                Submission::single(
                    circuit.clone(),
                    [0.01 * round as f64],
                    Strategy::StrictPartial,
                )
                .with_client(4),
            )
            .expect("the runtime is live");
        if handle.cancel() {
            canceled_rounds += 1;
            assert!(matches!(handle.wait(), Err(SubmitError::Canceled)));
        } else {
            assert!(handle.wait().unwrap()[0].is_ok());
        }
        assert_eq!(
            runtime.telemetry_snapshot().outstanding,
            0,
            "round {round} gave its slot back"
        );
    }
    let metrics = runtime.client_metrics(4);
    assert_eq!(metrics.submissions, rounds);
    assert_eq!(metrics.canceled, canceled_rounds);
    assert_eq!(metrics.completed, rounds - canceled_rounds);
}

/// A submission of single-gate blocks only needs no worker: its blocks resolve
/// at expansion, so it is done when `submit` returns, with the pool paused,
/// and dispatches nothing.
#[test]
fn a_lookup_only_submission_completes_with_the_pool_paused() {
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(1));
    runtime.pause();
    let handle = runtime
        .submit(
            Submission::single(
                lookup_only_circuit(),
                [0.1, 0.2, 0.3],
                Strategy::StrictPartial,
            )
            .with_client(5),
        )
        .unwrap();
    assert_eq!(
        handle.try_status(),
        JobStatus::Done,
        "resolved inside submit"
    );
    let report = handle.wait().expect("not canceled")[0].clone().unwrap();
    assert_eq!(report.num_blocks, 3);
    assert!(handle.dispatch_sequence().is_empty());
    assert_eq!(runtime.client_metrics(5).dispatched_tasks, 0);
    assert_eq!(runtime.client_metrics(5).completed, 1);
    assert_eq!(runtime.metrics().unique_compilations, 0);
    assert!(runtime
        .trace_events()
        .iter()
        .all(|e| e.stage != TraceStage::Dispatched && e.stage != TraceStage::CompileStart));
    runtime.resume();
}

/// A submission mixing keyed and single-gate blocks dispatches exactly its
/// keyed blocks, and its report still covers every block.
#[test]
fn a_mixed_submission_dispatches_exactly_its_keyed_blocks() {
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(1));
    let mut circuit = Circuit::new(3);
    circuit.h(0);
    circuit.cx(0, 1);
    circuit.rx(0, 0.4);
    circuit.cx(0, 1);
    circuit.rz_expr(2, vqc_circuit::ParamExpr::theta(0));
    let params = [0.9];
    let plan = runtime
        .compiler()
        .plan(&circuit, &params, Strategy::StrictPartial)
        .unwrap();
    let keyed = plan
        .blocks
        .iter()
        .filter(|block| plan.dedup_key(block, &params).is_some())
        .count();
    assert!(keyed >= 1 && keyed < plan.blocks.len(), "{:?}", plan.blocks);

    let handle = runtime
        .submit(Submission::single(circuit, params, Strategy::StrictPartial).with_client(6))
        .unwrap();
    let report = handle.wait().expect("not canceled")[0].clone().unwrap();
    assert_eq!(report.num_blocks, plan.blocks.len());
    assert_eq!(handle.dispatch_sequence().len(), keyed);
    assert_eq!(runtime.client_metrics(6).dispatched_tasks, keyed as u64);
    assert_eq!(runtime.metrics().unique_compilations, keyed as u64);
    assert_eq!(runtime.metrics().cache.misses, keyed as u64);
}

/// `on_progress` hears every job of a multi-job batch exactly once: the jobs
/// that resolve at expansion (single-gate lookups, a gate-based plan) before
/// `submit` returns, while the pool is still paused, and the keyed jobs after
/// it resumes; then one `Done`.
#[test]
fn on_progress_streams_every_job_of_a_batch_once() {
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(2));
    let job = |circuit: Circuit, params: Vec<f64>, strategy| {
        vqc_runtime::CompileJob::new(circuit, params, strategy)
    };
    runtime.pause();
    let (steps, callback) = recorder();
    let handle = runtime
        .submit(
            Submission::batch(vec![
                job(one_block_circuit(0.3), vec![], Strategy::StrictPartial),
                job(
                    lookup_only_circuit(),
                    vec![0.1, 0.2, 0.3],
                    Strategy::StrictPartial,
                ),
                job(one_block_circuit(1.4), vec![], Strategy::StrictPartial),
                job(
                    lookup_only_circuit(),
                    vec![0.4, 0.5, 0.6],
                    Strategy::GateBased,
                ),
            ])
            .on_progress(callback),
        )
        .unwrap();
    let at_expansion: Vec<Step> = steps.lock().unwrap().clone();
    assert_eq!(at_expansion.len(), 3, "{at_expansion:?}");
    assert_eq!(at_expansion[0], Step::Admitted(4));
    let resolved: Vec<usize> = at_expansion[1..]
        .iter()
        .map(|step| match step {
            Step::JobDone(job, result) => {
                assert!(result.is_ok());
                *job
            }
            other => panic!("expected JobDone, got {other:?}"),
        })
        .collect();
    assert_eq!(
        resolved,
        vec![1, 3],
        "resolved at expansion, before any dispatch"
    );
    assert_eq!(handle.try_status(), JobStatus::Running);
    runtime.resume();
    let results = handle.wait().expect("not canceled");
    assert_eq!(
        Arc::strong_count(&steps),
        1,
        "the callback is dropped at Done"
    );
    let steps = steps.lock().unwrap().clone();
    assert_eq!(steps.len(), 6, "{steps:?}");
    assert_eq!(steps[..3], at_expansion[..]);
    let mut on_workers: Vec<usize> = steps[3..5]
        .iter()
        .map(|step| match step {
            Step::JobDone(job, result) => {
                assert_eq!(result, &results[*job]);
                *job
            }
            other => panic!("expected JobDone, got {other:?}"),
        })
        .collect();
    on_workers.sort_unstable();
    assert_eq!(on_workers, vec![0, 2]);
    assert_eq!(steps[5], Step::Done(results));
    assert_eq!(handle.dispatch_sequence().len(), 2);
}

/// A canceled submission's progress ends in exactly one `Canceled`, and the
/// callback is dropped right there. Nothing follows, not even when a waiter
/// keeps the canceled owner's block task alive and it compiles: its delivery
/// to the canceled owner is a no-op.
#[test]
fn a_canceled_submission_ends_its_progress_with_one_canceled() {
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(1));
    runtime.pause();
    let (steps, callback) = recorder();
    let owner = runtime
        .submit(
            Submission::single(one_block_circuit(0.6), [], Strategy::StrictPartial)
                .on_progress(callback),
        )
        .unwrap();
    // Coalesces onto the owner's task, which therefore survives the cancel.
    let waiter = runtime
        .submit(Submission::single(
            one_block_circuit(0.6),
            [],
            Strategy::StrictPartial,
        ))
        .unwrap();
    assert_eq!(*steps.lock().unwrap(), vec![Step::Admitted(1)]);
    assert!(owner.cancel());
    assert_eq!(
        Arc::strong_count(&steps),
        1,
        "the callback is dropped at Canceled"
    );
    assert!(!owner.cancel(), "a second cancel is a no-op");
    runtime.resume();
    assert!(waiter.wait().expect("not canceled")[0].is_ok());
    assert_eq!(owner.wait(), Err(SubmitError::Canceled));
    assert_eq!(
        runtime.metrics().unique_compilations,
        1,
        "the shared block compiled"
    );
    assert_eq!(
        *steps.lock().unwrap(),
        vec![Step::Admitted(1), Step::Canceled]
    );
}

/// The caller blocked in `JobHandle::wait` is woken by events, not by block
/// deliveries: over warm LiH strict ops (dozens of keyed cache hits and
/// single-gate lookups each) its thread averages at most two voluntary context
/// switches per op, where waking once per delivered block costs well over ten.
#[cfg(target_os = "linux")]
#[test]
fn a_waiting_caller_is_woken_once_per_warm_op_not_once_per_block() {
    fn voluntary_switches() -> u64 {
        std::fs::read_to_string("/proc/thread-self/status")
            .expect("procfs is mounted")
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|count| count.trim().parse().ok())
            .expect("the status file counts voluntary context switches")
    }
    let mut options = fast_options();
    // Pre-compute only has to fill the cache; converged pulses are not the point.
    options.grape.max_iterations = 2;
    let runtime = CompilationRuntime::new(options, RuntimeOptions::with_workers(2));
    let circuit = vqc_apps::uccsd::uccsd_circuit(vqc_apps::molecules::Molecule::LiH);
    let theta = |op: usize| -> Vec<f64> {
        (0..circuit.num_parameters())
            .map(|i| 0.1 + 0.013 * (7 * op + i) as f64)
            .collect()
    };
    assert!(runtime
        .compile(&circuit, &theta(0), Strategy::StrictPartial)
        .is_ok());
    let compilations = runtime.metrics().unique_compilations;
    assert!(compilations > 0);

    let ops = 50;
    let before = voluntary_switches();
    for op in 1..=ops {
        let handle = runtime
            .submit(Submission::single(
                circuit.clone(),
                theta(op),
                Strategy::StrictPartial,
            ))
            .unwrap();
        assert!(handle.wait().expect("not canceled")[0].is_ok());
    }
    let per_op = (voluntary_switches() - before) as f64 / ops as f64;
    assert_eq!(
        runtime.metrics().unique_compilations,
        compilations,
        "every op after the first was warm"
    );
    assert!(
        per_op <= 2.0,
        "{per_op:.1} voluntary context switches per warm op"
    );
}
