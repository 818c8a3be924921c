//! The lane helper under contention: more concurrent wide GRAPE runs than the
//! host has CPUs. Whatever mix of one- and two-lane iterations the claim rule
//! hands each run, every run must return the sequential result, and nobody may
//! wait for ever.

use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;
use vqc_pulse::grape::{try_optimize_pulse, GrapeOptions, GrapeResult};
use vqc_pulse::{lanes, DeviceModel};
use vqc_sim::gates;

/// A 4-qubit run short enough for a debug build and wide enough (dim 16, 12
/// slices) that every iteration asks for the helper.
fn wide_run() -> GrapeResult {
    let device = DeviceModel::qubits_line(4);
    let target = gates::cx().kron(&gates::h()).kron(&gates::h());
    let mut options = GrapeOptions::fast();
    options.max_iterations = 12;
    options.target_infidelity = 0.0;
    try_optimize_pulse(&target, &device, 6.0, &options).expect("a valid 4-qubit run")
}

fn bits(result: &GrapeResult) -> (u64, usize, Vec<u64>) {
    let pulse = &result.pulse;
    let amplitudes = (0..pulse.num_controls())
        .flat_map(|k| pulse.waveform(k).iter().map(|a| a.to_bits()))
        .collect();
    (result.infidelity.to_bits(), result.iterations, amplitudes)
}

#[test]
fn more_wide_runs_than_cpus_all_return_the_sequential_result() {
    let reference = bits(&wide_run());
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = cpus + 2;
    let before = lanes::stats();

    let start = Arc::new(Barrier::new(threads));
    let (report, reports) = mpsc::channel();
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let (start, report) = (Arc::clone(&start), report.clone());
            std::thread::spawn(move || {
                start.wait();
                let _ = report.send(bits(&wide_run()));
            })
        })
        .collect();
    for _ in 0..threads {
        let result = reports
            .recv_timeout(Duration::from_secs(120))
            .expect("a concurrent wide run did not finish within the deadline");
        assert_eq!(
            result, reference,
            "a contended run diverged from the sequential one"
        );
    }
    for worker in workers {
        worker.join().expect("the run already reported");
    }

    // Every iteration of every run was wide, so each was either granted the
    // helper or refused it.
    let after = lanes::stats();
    let asked = (after.claimed - before.claimed) + (after.refused - before.refused);
    assert_eq!(asked, (threads as u64) * 12);
    if !lanes::available() {
        assert_eq!(after.claimed, 0);
    }
}
