//! Two lanes must never lose to one, in a process that has nothing else to do.
//!
//! The lane helper once fell into a stable state in which the caller spun for
//! its job on the very vCPU the helper needed: a stand-alone process (no
//! benchmark harness keeping both CPUs awake) then ran a 4-qubit iteration at
//! 0.42–0.63x of the one-lane speed, in about three processes out of seven.
//! The state is per process, so this test measures fresh ones: it re-executes
//! its own binary for the ignored child test below, ten times, and every
//! child must read at least 0.9x. The file holds nothing else, so no sibling
//! test competes for the two CPUs while the children run.

use std::process::Command;
use std::time::{Duration, Instant};
use vqc_pulse::{lanes, DeviceModel, GrapeWorkspace, PulseSequence};
use vqc_sim::gates;

const CHILD: &str = "child_times_one_lane_against_the_claim_rule";
const CHILDREN: usize = 10;
const SLICES: usize = 24;

/// Median wall time of one `fidelity_gradient` over a 50 ms stretch of calls
/// (at least five: an unoptimized build takes ~20 ms a call).
fn median_iteration_ns(workspace: &mut GrapeWorkspace, pulse: &PulseSequence) -> f64 {
    let stretch = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || stretch.elapsed() < Duration::from_millis(50) {
        let started = Instant::now();
        std::hint::black_box(workspace.fidelity_gradient(std::hint::black_box(pulse)));
        samples.push(started.elapsed().as_secs_f64() * 1e9);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[test]
#[ignore = "the child half of two_lanes_never_lose_to_one_lane_in_a_fresh_process"]
fn child_times_one_lane_against_the_claim_rule() {
    let device = DeviceModel::qubits_line(4);
    let target = gates::cx().kron(&gates::cx());
    let pulse = PulseSequence::seeded_guess(&device, SLICES, 0.5, 3);
    let mut workspace = GrapeWorkspace::new(&device, SLICES);
    workspace.set_target(&device, &target);

    // Alternating stretches, so a slow spell of the host lands on both forms.
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        // Holding the helper ourselves refuses every claim the workspace makes.
        let held = lanes::claim(device.dim(), SLICES);
        one.push(median_iteration_ns(&mut workspace, &pulse));
        drop(held);
        two.push(median_iteration_ns(&mut workspace, &pulse));
    }
    let best = |samples: &[f64]| samples.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = |samples: &[f64]| samples.iter().copied().fold(0.0, f64::max);
    // The losing state is stable, so it shows in the two-lane form's *worst*
    // stretch; one lane is judged by its best.
    println!("one_over_two {:.3}", best(&one) / worst(&two));
}

#[test]
fn two_lanes_never_lose_to_one_lane_in_a_fresh_process() {
    if !lanes::available() {
        return; // a single-CPU host has one form only
    }
    let this_binary = std::env::current_exe().expect("the test binary has a path");
    let ratios: Vec<f64> = (0..CHILDREN)
        .map(|_| {
            let output = Command::new(&this_binary)
                .args(["--ignored", "--exact", CHILD, "--nocapture"])
                .output()
                .expect("the test binary re-executes");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(output.status.success(), "the child failed: {stdout}");
            let reading = stdout
                .lines()
                .find_map(|line| line.strip_prefix("one_over_two "))
                .unwrap_or_else(|| panic!("the child printed no ratio: {stdout}"));
            reading.trim().parse().expect("the ratio is a number")
        })
        .collect();
    assert!(
        ratios.iter().all(|&ratio| ratio >= 0.9),
        "two lanes lost to one lane (one/two below 0.9x) in a fresh process: {ratios:?}"
    );
}
