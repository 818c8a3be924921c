//! Ablation benchmarks for the design choices called out in DESIGN.md: GRAPE time-step
//! granularity, binary-search precision, hyperparameter grid size, and blocking width.
//! Each group varies exactly one knob on the same small workload so the cost impact is
//! directly comparable.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vqc_apps::molecules::Molecule;
use vqc_apps::uccsd::uccsd_circuit;
use vqc_circuit::passes;
use vqc_core::blocking::{aggregate_blocks_with_cap, ParameterPolicy};
use vqc_core::hyperparam::{tune_hyperparameters, HyperparameterGrid};
use vqc_pulse::grape::{try_optimize_pulse, GrapeOptions};
use vqc_pulse::minimum_time::{minimum_pulse_time, MinimumTimeOptions};
use vqc_pulse::DeviceModel;
use vqc_sim::gates;

fn fast(max_iterations: usize) -> GrapeOptions {
    let mut options = GrapeOptions::fast();
    options.max_iterations = max_iterations;
    options.target_infidelity = 2e-2;
    options
}

fn ablation_timestep(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_timestep");
    group.sample_size(10);
    let device = DeviceModel::qubits_line(1);
    for dt in [1.0f64, 0.5, 0.25] {
        let mut options = fast(60);
        options.dt_ns = dt;
        group.bench_function(format!("grape_h_dt_{dt}"), |b| {
            b.iter(|| {
                try_optimize_pulse(
                    black_box(&gates::h()),
                    black_box(&device),
                    2.0,
                    black_box(&options),
                )
                .expect("valid GRAPE inputs")
            })
        });
    }
    group.finish();
}

fn ablation_binary_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_binary_search");
    group.sample_size(10);
    let device = DeviceModel::qubits_line(1);
    for precision in [2.0f64, 1.0, 0.5] {
        let options = fast(60);
        let search = MinimumTimeOptions::new(0.0, 4.0).with_precision(precision);
        group.bench_function(format!("min_time_x_precision_{precision}"), |b| {
            b.iter(|| {
                minimum_pulse_time(
                    black_box(&gates::x()),
                    black_box(&device),
                    black_box(&search),
                    black_box(&options),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn ablation_hyperparam_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_hyperparam");
    group.sample_size(10);
    let device = DeviceModel::qubits_line(2);
    let mut circuit = vqc_circuit::Circuit::new(2);
    circuit.h(0);
    circuit.cx(0, 1);
    circuit.rz(1, 0.8);
    circuit.cx(0, 1);
    for (label, grid) in [
        (
            "grid_3",
            HyperparameterGrid {
                learning_rates: vec![0.05, 0.15, 0.3],
                decay_rates: vec![0.999],
            },
        ),
        (
            "grid_6",
            HyperparameterGrid {
                learning_rates: vec![0.05, 0.15, 0.3],
                decay_rates: vec![0.995, 0.999],
            },
        ),
    ] {
        let options = fast(60);
        group.bench_function(label, |b| {
            b.iter(|| {
                tune_hyperparameters(
                    black_box(&circuit),
                    black_box(&device),
                    10.0,
                    black_box(&options),
                    black_box(&grid),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn ablation_blocking_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_blocking");
    group.sample_size(20);
    let prepared = passes::optimize(&uccsd_circuit(Molecule::BeH2));
    for width in [2usize, 3, 4] {
        group.bench_function(format!("aggregate_beh2_width_{width}"), |b| {
            b.iter(|| {
                aggregate_blocks_with_cap(
                    black_box(&prepared),
                    width,
                    ParameterPolicy::AtMostOne,
                    60,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_timestep,
    ablation_binary_search,
    ablation_hyperparam_grid,
    ablation_blocking_width
);
criterion_main!(benches);
