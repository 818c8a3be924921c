//! Integration tests of the lock-order checker against the real runtime: an
//! injected ABBA inversion panics with both sites named, a genuine service
//! workload runs clean with the checker on, and a long-held guard flows
//! through the registered reporter into the runtime's telemetry trace ring.
//!
//! The checker's force switch, hold threshold, and reporter hook are
//! process-global, so everything lives in one `#[test]` — parallel tests in
//! this binary would race on them.

use parking_lot::{lock_check, Mutex};
use std::sync::Arc;
use std::time::Duration;
use vqc_circuit::Circuit;
use vqc_core::{CompilerOptions, Strategy};
use vqc_runtime::{CompilationRuntime, RuntimeOptions, Submission, TraceStage};

fn fast_options() -> CompilerOptions {
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 80;
    options.grape.target_infidelity = 5e-2;
    options.search_precision_ns = 2.0;
    options
}

fn one_block_circuit(phase: f64) -> Circuit {
    let mut circuit = Circuit::new(2);
    circuit.h(0);
    circuit.h(1);
    circuit.cx(0, 1);
    circuit.rx(0, phase);
    circuit.cx(0, 1);
    circuit
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

#[test]
fn lock_checker_detects_inversions_and_reports_holds_through_telemetry() {
    lock_check::force(true);

    // An injected ABBA inversion: establish a → b on this thread, then take
    // b → a on another. The checker panics at edge-insertion time — before the
    // second thread blocks — naming both conflicting acquisition sites.
    let a = Arc::new(Mutex::new(0u32));
    let b = Arc::new(Mutex::new(0u32));
    {
        let guard_a = a.lock();
        let _guard_b = b.lock();
        drop(guard_a);
    }
    let (a_inv, b_inv) = (Arc::clone(&a), Arc::clone(&b));
    let result = std::thread::Builder::new()
        .name("vqc-abba-test".to_string())
        .spawn(move || {
            let _guard_b = b_inv.lock();
            let _guard_a = a_inv.lock();
        })
        .expect("spawn test thread")
        .join();
    let message = panic_text(result.expect_err("the inverted acquisition order must panic"));
    assert!(
        message.contains("lock-order inversion"),
        "unexpected panic message: {message}"
    );
    assert!(
        message.matches("tests/lock_check.rs").count() >= 2,
        "the report must name both conflicting sites in this file:\n{message}"
    );
    assert!(
        message.contains("vqc-abba-test"),
        "the report names the inverting thread:\n{message}"
    );

    // A genuine concurrent service workload runs clean under the checker and
    // accumulates order edges from the runtime's own lock nesting. Creating
    // the runtime while the checker is enabled also registers the long-hold
    // reporter against this runtime's telemetry.
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(2));
    let handles: Vec<_> = (0..3)
        .map(|i| {
            runtime
                .submit(Submission::single(
                    one_block_circuit(0.3 + 0.4 * f64::from(i)),
                    [],
                    Strategy::StrictPartial,
                ))
                .expect("the runtime is live")
        })
        .collect();
    for handle in &handles {
        assert!(handle.wait().expect("not canceled")[0].is_ok());
    }
    assert!(
        lock_check::order_edges() > 0,
        "the service workload must have observed held→acquired orderings"
    );

    // A guard held past the (lowered) threshold is counted and lands in the
    // runtime's trace ring as a lock-hold event via the reporter hook.
    lock_check::set_hold_threshold(Some(Duration::from_millis(5)));
    let holds_before = lock_check::long_holds();
    {
        let _guard = a.lock();
        std::thread::sleep(Duration::from_millis(30));
    }
    assert!(
        lock_check::long_holds() > holds_before,
        "a 30ms hold against a 5ms threshold must be counted"
    );
    let events = runtime.trace_events();
    assert!(
        events.iter().any(|e| e.stage == TraceStage::LockHold),
        "the long hold must reach the telemetry trace ring"
    );

    lock_check::set_hold_threshold(None);
    lock_check::set_long_hold_reporter(None);
    lock_check::force(false);
}
