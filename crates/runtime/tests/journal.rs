//! The metrics journal reads back as written on a live snapshot: with the
//! compile-phase profiler armed (which is process-wide, hence a test binary of
//! its own), a runtime that compiled a block journals phase rows and class
//! latencies, and `from_json_line` inverts `to_json_line` on that line.

use vqc_circuit::Circuit;
use vqc_core::{profile, CompilerOptions, Strategy};
use vqc_runtime::{CompilationRuntime, MetricsSnapshot, RuntimeOptions};

#[test]
fn a_live_snapshot_reads_back_as_journaled() {
    profile::set_armed(true);
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 80;
    options.grape.target_infidelity = 5e-2;
    options.search_precision_ns = 2.0;
    let runtime = CompilationRuntime::new(options, RuntimeOptions::with_workers(2));
    let mut circuit = Circuit::new(2);
    circuit.h(0);
    circuit.cx(0, 1);
    circuit.rx(0, 0.4);
    circuit.cx(0, 1);
    let reports = runtime.compile_iterations(&circuit, &[vec![], vec![]], Strategy::StrictPartial);
    assert!(reports.iter().all(|r| r.is_ok()));
    let snapshot = runtime.telemetry_snapshot();
    profile::set_armed(false);
    assert!(
        !snapshot.phases.is_empty(),
        "the armed profiler records phases"
    );
    assert!(snapshot
        .classes
        .iter()
        .any(|c| c.submit_to_report.count > 0));

    let line = snapshot.to_json_line();
    let read = MetricsSnapshot::from_json_line(&line).unwrap();
    assert_eq!(read.to_json_line(), line);
    assert_eq!(read.runtime.submissions, snapshot.runtime.submissions);
    assert_eq!(read.phases.len(), snapshot.phases.len());
}
