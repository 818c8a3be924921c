//! Benchmarks of the GRAPE engine: one exact gradient evaluation and one full
//! fixed-duration optimization on one- and two-qubit targets, the
//! `grape_smallmat` group timing one reused-workspace gradient on stack storage
//! at 1q/2q/3q/4q, the `grape_lanes` group timing the LiH-sized 4q × 40-slice
//! gradient as one lane and as two — both groups at the host's vector width
//! and at the build's baseline — the `eigh_real` group timing the two
//! real-symmetric eigensolver bodies on device Hamiltonians at N = 4/8/16 (the
//! evidence for the solver's dimension rule, and for solving four slices in
//! lockstep), the `grape_seeding` group comparing cold against seeded
//! duration searches, and the `profile_overhead` group gating the armed
//! compile-phase profiler to under five percent of the warm gradient path.
//! The measurements are written to `BENCH_grape.json` in the workspace root.
//!
//! Every reused-workspace group evaluates a *moving* pulse: it walks a recorded
//! ADAM trajectory ([`Trajectory`]) back and forth, so each evaluation sees
//! amplitudes one optimizer step away from the last — what an iteration of
//! `try_optimize_pulse` sees. Re-evaluating one unchanged pulse would time the
//! single input a warm-started Jacobi solves in zero sweeps.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use vqc_linalg::real::{
    eigh_jacobi, eigh_ql, jacobi_scratch_len, ql_scratch_len, QlLane, Unfused, QL_MIN_DIM,
};
use vqc_linalg::{Matrix, RealSmallMatrix};
use vqc_pulse::grape::{optimize_pulse, GrapeOptions};
use vqc_pulse::minimum_time::{minimum_pulse_time_seeded, MinimumTimeOptions, MinimumTimeResult};
use vqc_pulse::propagate::slice_hamiltonian;
use vqc_pulse::{lanes, profile, DeviceModel, EigenMemo, GrapeWorkspace, PulseSequence, SeedEntry};
use vqc_sim::gates;

/// Total GRAPE iterations of the last cold / seeded `grape_seeding` pass,
/// handed from the benchmark bodies to [`emit_summary`] (which asserts the
/// seeding speedup before writing `BENCH_grape.json`).
static SEEDING_COLD_ITERS: AtomicU64 = AtomicU64::new(0);
static SEEDING_SEEDED_ITERS: AtomicU64 = AtomicU64::new(0);

/// Optimizer steps in a recorded trajectory.
const STEPS: usize = 60;

/// The pulses ADAM visits over its first [`STEPS`] iterations from the seeded
/// guess (the update of `try_optimize_pulse` at `GrapeOptions::fast()`
/// hyperparameters, amplitudes clamped to the device), read back and forth so
/// consecutive evaluations are always one optimizer step apart.
struct Trajectory {
    pulses: Vec<PulseSequence>,
    cursor: usize,
}

impl Trajectory {
    fn record(device: &DeviceModel, target: &Matrix, slices: usize) -> Self {
        let options = GrapeOptions::fast();
        let (beta1, beta2, eps) = (0.9_f64, 0.999_f64, 1e-8);
        let limits: Vec<f64> = device
            .control_hamiltonians()
            .iter()
            .map(|control| control.max_amplitude)
            .collect();
        let mut workspace = GrapeWorkspace::new(device, slices);
        workspace.set_target(device, target);
        let mut pulse = PulseSequence::seeded_guess(device, slices, options.dt_ns, options.seed);
        pulse.clamp_to_device(device);
        let mut moments = vec![(0.0, 0.0); slices * limits.len()];
        let mut learning_rate = options.learning_rate;
        let mut pulses = Vec::with_capacity(STEPS);
        for step in 1..=STEPS as i32 {
            pulses.push(pulse.clone());
            workspace.fidelity_gradient(&pulse);
            let slots = moments.iter_mut().zip(workspace.gradient());
            for (index, ((m, v), &grad)) in slots.enumerate() {
                let (t, k) = (index / limits.len(), index % limits.len());
                *m = beta1 * *m + (1.0 - beta1) * grad;
                *v = beta2 * *v + (1.0 - beta2) * grad * grad;
                let m_hat = *m / (1.0 - beta1.powi(step));
                let v_hat = *v / (1.0 - beta2.powi(step));
                let moved = pulse.amplitude(k, t) - learning_rate * m_hat / (v_hat.sqrt() + eps);
                pulse.set_amplitude(k, t, moved.clamp(-limits[k], limits[k]));
            }
            learning_rate *= options.decay_rate;
        }
        Trajectory { pulses, cursor: 0 }
    }

    /// Back to the first pulse, so two passes walk the same inputs.
    fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// The next pulse of the walk 0, 1, …, STEPS−1, STEPS−2, …, 1, 0, 1, ….
    fn advance(&mut self) -> &PulseSequence {
        let period = 2 * (STEPS - 1);
        let phase = self.cursor % period;
        self.cursor += 1;
        &self.pulses[phase.min(period - phase)]
    }
}

fn bench_grape(c: &mut Criterion) {
    let mut group = c.benchmark_group("grape");
    group.sample_size(10);

    for qubits in [1usize, 2] {
        let device = DeviceModel::qubits_line(qubits);
        let target = if qubits == 1 { gates::h() } else { gates::cx() };
        let pulse = PulseSequence::seeded_guess(&device, 10, 0.5, 1);
        // A fresh workspace per call: what one cold gradient costs end to end.
        group.bench_function(format!("gradient_{qubits}q_10slices"), |b| {
            b.iter(|| {
                let mut workspace = GrapeWorkspace::new(black_box(&device), pulse.num_slices());
                workspace.set_target(&device, black_box(&target));
                workspace.fidelity_gradient(black_box(&pulse))
            })
        });
    }

    let device = DeviceModel::qubits_line(1);
    let mut options = GrapeOptions::fast();
    options.max_iterations = 50;
    options.target_infidelity = 1e-3;
    group.bench_function("optimize_rz_1q_50iters", |b| {
        b.iter(|| {
            optimize_pulse(
                black_box(&gates::rz(1.0)),
                black_box(&device),
                1.0,
                black_box(&options),
            )
        })
    });

    group.finish();
}

type NewWorkspace = fn(&DeviceModel, usize) -> GrapeWorkspace;

/// The engine's two instantiations, as a row-name suffix and the constructor
/// that binds it: the lane phases' AVX2 twins where the host has AVX2 (the
/// summary's `host_avx2` says whether it does; where it does not the two are
/// the same code), and the build's baseline — SSE2 on x86-64 — everywhere.
const WIDTHS: [(&str, NewWorkspace); 2] = [
    ("", GrapeWorkspace::new),
    ("_baseline", GrapeWorkspace::new_at_baseline_width),
];

/// Slices of the `grape_smallmat` pulses.
const SMALLMAT_SLICES: usize = 24;

/// One reused-workspace gradient of a moving pulse — the way
/// `try_optimize_pulse` runs — on the stack storage `GrapeWorkspace::new`
/// binds for 1q–4q blocks (N = 2, 4, 8, 16), at both widths.
fn bench_grape_smallmat(c: &mut Criterion) {
    let mut group = c.benchmark_group("grape_smallmat");
    group.sample_size(30);

    let slices = SMALLMAT_SLICES;
    for qubits in [1usize, 2, 3, 4] {
        let device = DeviceModel::qubits_line(qubits);
        let target = match qubits {
            1 => gates::h(),
            2 => gates::cx(),
            3 => gates::cx().kron(&gates::h()),
            _ => gates::cx().kron(&gates::cx()),
        };
        let mut trajectory = Trajectory::record(&device, &target, slices);

        // One lane, whatever the claim rule would give a 3q or 4q block: the
        // group times the kernels, `grape_lanes` the second CPU.
        let held = lanes::claim(16, 40);
        for (suffix, new) in WIDTHS {
            let mut workspace = new(&device, slices);
            assert!(
                workspace.uses_static_kernel(),
                "{qubits}q device must run on stack storage"
            );
            workspace.set_target(&device, &target);
            trajectory.rewind();
            group.bench_function(format!("smallmat_{qubits}q_{slices}slices{suffix}"), |b| {
                b.iter(|| workspace.fidelity_gradient(black_box(trajectory.advance())))
            });
        }
        drop(held);
    }

    group.finish();
}

/// Stretches of each `grape_lanes` row: the group runs this many times, spread
/// over the bench (see `benches` at the bottom).
const LANE_STRETCHES: usize = 3;

/// The block the lanes exist for — 4 qubits, 40 slices, LiH's widest — as one
/// lane and as two, at both widths. A one-lane stretch holds the helper
/// itself, so every claim the workspace makes is refused: the same body, the
/// second lane's share run by the calling thread. On a single-CPU host there
/// is no helper and both forms are the one-lane one (`host_parallelism` in the
/// summary says so). This VM has windows of tens of milliseconds to seconds
/// in which it does not deliver its second vCPU; the forms therefore take
/// turns, one stretch each per call, the group is called [`LANE_STRETCHES`]
/// times with other groups in between (every stretch is a row of the
/// results), and the summary compares each form's best stretch, so that a
/// host window is not filed as the lanes' speed.
fn bench_grape_lanes(c: &mut Criterion) {
    let mut group = c.benchmark_group("grape_lanes");
    // ~20 ms a stretch: a vCPU that halted during a one-lane stretch takes
    // milliseconds to come back, and a stretch must outlast that.
    group.sample_size(40);

    let device = DeviceModel::qubits_line(4);
    let target = gates::cx().kron(&gates::cx());
    let mut trajectory = Trajectory::record(&device, &target, 40);
    for (suffix, new) in WIDTHS {
        let mut workspace = new(&device, 40);
        workspace.set_target(&device, &target);
        let held = lanes::claim(device.dim(), 40);
        trajectory.rewind();
        group.bench_function(format!("one_lane_4q_40slices{suffix}"), |b| {
            b.iter(|| workspace.fidelity_gradient(black_box(trajectory.advance())))
        });
        drop(held);
        trajectory.rewind();
        group.bench_function(format!("two_lanes_4q_40slices{suffix}"), |b| {
            b.iter(|| workspace.fidelity_gradient(black_box(trajectory.advance())))
        });
    }

    group.finish();
}

/// Four neighbouring slices' Hamiltonians — the middle slice's first — at
/// every step of a `qubits`-qubit trajectory, as the engine's real storage.
fn device_hamiltonians<const N: usize>(qubits: usize) -> [Vec<RealSmallMatrix<N>>; 4] {
    let device = DeviceModel::qubits_line(qubits);
    assert_eq!(device.dim(), N);
    let target = (1..qubits).fold(gates::h(), |acc, _| acc.kron(&gates::h()));
    let slices = 24;
    let (drift, controls) = (device.drift(), device.control_hamiltonians());
    let trajectory = Trajectory::record(&device, &target, slices);
    std::array::from_fn(|lane| {
        let hamiltonian = |pulse| {
            let h = slice_hamiltonian(&drift, &controls, pulse, slices / 2 + lane);
            RealSmallMatrix::from_fn(|r, c| h[(r, c)].re)
        };
        trajectory.pulses.iter().map(hamiltonian).collect()
    })
}

/// The two real-symmetric eigensolver bodies on the Hamiltonians slices take
/// along an ADAM trajectory: Householder–QL one matrix at a time and four in
/// lockstep (the way the engine runs it from `QL_MIN_DIM` up), Jacobi from a
/// cold start, and Jacobi warm-started the way the engine does it below
/// `QL_MIN_DIM` — rotate into the previous step's eigenbasis, solve, compose
/// — one slice at a time and four slices in lockstep (the way the engine
/// runs it). A row's `_x` suffix is the solves a sample makes: [`STEPS`] for
/// one slice's walk, four times that for four slices'. The dimension rule
/// reads off these rows: batched warm Jacobi at 4, batched QL at 8 and 16,
/// where each batch must beat one at a time. This group runs at the build's
/// baseline vector width.
fn bench_eigh_real_at<const N: usize>(c: &mut Criterion, qubits: usize) {
    let mut group = c.benchmark_group("eigh_real");
    group.sample_size(30);
    let walks = device_hamiltonians::<N>(qubits);
    let hamiltonians = &walks[0];
    let mut lambdas = [[0.0; N]; 4];
    let (mut v, mut vt) = (RealSmallMatrix::<N>::ZERO, RealSmallMatrix::<N>::ZERO);
    let (mut a, mut b) = (v, v);
    let mut scratch = vec![0.0; 4 * ql_scratch_len(N).max(jacobi_scratch_len(N))];

    group.bench_function(format!("ql_n{N}_x{STEPS}"), |bench| {
        bench.iter(|| {
            for h in hamiltonians {
                a = *black_box(h);
                let lane = (a.as_mut_slice(), &mut lambdas[0][..], v.as_mut_slice());
                eigh_ql::<1>(N, &mut [lane], &mut scratch);
                black_box(&v);
            }
        })
    });
    const { assert!(STEPS.is_multiple_of(4)) };
    let (mut hs, mut vs) = ([a; 4], [v; 4]);
    group.bench_function(format!("ql_batch4_n{N}_x{STEPS}"), |bench| {
        bench.iter(|| {
            for batch in hamiltonians.as_chunks::<4>().0 {
                hs = *black_box(batch);
                let mut lanes = lanes_of(&mut hs, &mut lambdas, &mut vs);
                eigh_ql::<4>(N, &mut lanes, &mut scratch);
                black_box(&vs);
            }
        })
    });
    group.bench_function(format!("jacobi_cold_n{N}_x{STEPS}"), |bench| {
        bench.iter(|| {
            for h in hamiltonians {
                a = *black_box(h);
                let lane = (a.as_mut_slice(), &mut lambdas[0][..], v.as_mut_slice());
                eigh_jacobi::<1>(N, &mut [lane], &mut scratch);
                black_box(&v);
            }
        })
    });
    group.bench_function(format!("jacobi_warm_n{N}_x{STEPS}"), |bench| {
        bench.iter(|| {
            a = hamiltonians[STEPS - 1];
            let lane = (a.as_mut_slice(), &mut lambdas[0][..], v.as_mut_slice());
            eigh_jacobi::<1>(N, &mut [lane], &mut scratch);
            v.transpose_into(&mut vt);
            // Backwards, so the first warm solve is one step from the cold one.
            for h in hamiltonians.iter().rev() {
                vt.matmul_into::<Unfused>(black_box(h), &mut a);
                a.matmul_into::<Unfused>(&v, &mut b);
                let lane = (b.as_mut_slice(), &mut lambdas[0][..], a.as_mut_slice());
                eigh_jacobi::<1>(N, &mut [lane], &mut scratch);
                v.matmul_into::<Unfused>(&a, &mut b);
                v = b;
                v.transpose_into(&mut vt);
                black_box(&v);
            }
        })
    });
    let (mut vts, mut products, mut problems) = ([vt; 4], [a; 4], [a; 4]);
    group.bench_function(format!("jacobi_warm_batch4_n{N}_x{}", 4 * STEPS), |bench| {
        bench.iter(|| {
            for (lane, walk) in walks.iter().enumerate() {
                problems[lane] = walk[STEPS - 1];
                let solved = (
                    problems[lane].as_mut_slice(),
                    &mut lambdas[lane][..],
                    vs[lane].as_mut_slice(),
                );
                eigh_jacobi::<1>(N, &mut [solved], &mut scratch);
                vs[lane].transpose_into(&mut vts[lane]);
            }
            for step in (0..STEPS).rev() {
                for (lane, walk) in walks.iter().enumerate() {
                    vts[lane].matmul_into::<Unfused>(black_box(&walk[step]), &mut products[lane]);
                    products[lane].matmul_into::<Unfused>(&vs[lane], &mut problems[lane]);
                }
                let mut lanes = lanes_of(&mut problems, &mut lambdas, &mut products);
                eigh_jacobi::<4>(N, &mut lanes, &mut scratch);
                for lane in 0..4 {
                    vs[lane].matmul_into::<Unfused>(&products[lane], &mut problems[lane]);
                    vs[lane] = problems[lane];
                    vs[lane].transpose_into(&mut vts[lane]);
                }
                black_box(&vs);
            }
        })
    });
    group.finish();
}

/// Four matrices, their eigenvalues and their eigenvectors as one batch.
fn lanes_of<'a, const N: usize>(
    matrices: &'a mut [RealSmallMatrix<N>; 4],
    lambdas: &'a mut [[f64; N]; 4],
    vectors: &'a mut [RealSmallMatrix<N>; 4],
) -> [QlLane<'a>; 4] {
    let mut lanes: [QlLane<'a>; 4] = Default::default();
    let members = matrices.iter_mut().zip(lambdas).zip(vectors);
    for (lane, ((matrix, lambdas), vectors)) in lanes.iter_mut().zip(members) {
        *lane = (
            matrix.as_mut_slice(),
            &mut lambdas[..],
            vectors.as_mut_slice(),
        );
    }
    lanes
}

fn bench_eigh_real(c: &mut Criterion) {
    bench_eigh_real_at::<4>(c, 2);
    bench_eigh_real_at::<8>(c, 3);
    bench_eigh_real_at::<16>(c, 4);
}

/// Folds one finished duration search into the seed of its structure, the way
/// `PartialCompiler::record_search_feedback` and the pulse store do: the failed
/// lower bound is the deepest non-converging probe, every probe lands in the
/// iteration history, and the converged pulse rides along as the warm start
/// for the next binding.
fn record_search(seed: &mut Option<SeedEntry>, result: &MinimumTimeResult) {
    let mut entry = SeedEntry {
        learning_rate: 0.0,
        decay_rate: 0.0,
        tuned: false,
        converged_duration_ns: result.converged.then_some(result.duration_ns),
        failed_below_ns: result
            .probes
            .iter()
            .filter(|p| !p.converged)
            .map(|p| p.duration_ns)
            .fold(0.0, f64::max),
        probe_iterations: Vec::new(),
        pulse: result.best.as_ref().map(|b| b.pulse.clone()),
    };
    for probe in &result.probes {
        entry.record_probe(probe.duration_ns, probe.iterations);
    }
    match seed {
        Some(held) => held.merge(entry),
        None => *seed = Some(entry),
    }
}

/// The repeat-structure workload of the warm-start seeds: the same Rz
/// subcircuit recompiled with a fresh θ per variational pass. The cold pass
/// binary-searches every binding from the full gate-based window; the seeded
/// pass opens from a seed warmed by one earlier binding of the same
/// structure (the largest angle, so the converged window transfers to every
/// smaller rotation) and opens each search at the neighbor's window with the
/// neighbor's converged amplitudes. Both passes must converge to target
/// fidelity at a duration no worse than the gate-based upper bound; the seeded
/// pass must spend ≥1.5x fewer total GRAPE iterations ([`emit_summary`]
/// enforces this before writing the summary).
fn bench_grape_seeding(c: &mut Criterion) {
    let mut group = c.benchmark_group("grape_seeding");
    group.sample_size(10);

    let device = DeviceModel::qubits_line(1);
    let grape = GrapeOptions::fast();
    // The gate-based upper bound for a 1q Rz slice; fresh θs for the measured
    // pass, all at or below the priming angle (minimum pulse duration grows
    // with |θ|, so a structural neighbor's window only transfers downward).
    let upper_bound_ns = 4.0;
    let search = MinimumTimeOptions::new(0.0, upper_bound_ns).with_precision(0.5);
    let fresh_thetas = [2.2, 1.7, 1.3, 0.9];

    group.bench_function("cold_pass_rz_4thetas", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for &theta in &fresh_thetas {
                let result = minimum_pulse_time_seeded(
                    black_box(&gates::rz(theta)),
                    &device,
                    &search,
                    &grape,
                    &mut EigenMemo::new(),
                    None,
                )
                .expect("cold search");
                assert!(
                    result.converged,
                    "cold Rz({theta}) must reach target fidelity"
                );
                assert!(result.duration_ns <= upper_bound_ns + 1e-9);
                total += result.total_iterations() as u64;
            }
            SEEDING_COLD_ITERS.store(total, Ordering::Relaxed);
            black_box(total)
        })
    });

    // Prime the seed once with the largest-angle binding, exactly as the
    // compiler's first encounter with the structure would.
    let mut seed = None;
    let primed = minimum_pulse_time_seeded(
        &gates::rz(2.4),
        &device,
        &search,
        &grape,
        &mut EigenMemo::new(),
        None,
    )
    .expect("priming search");
    assert!(primed.converged, "the priming binding must converge");
    record_search(&mut seed, &primed);

    group.bench_function("seeded_pass_rz_4thetas", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for &theta in &fresh_thetas {
                let search_seed = seed.as_ref().expect("primed entry").search_seed();
                let result = minimum_pulse_time_seeded(
                    black_box(&gates::rz(theta)),
                    &device,
                    &search,
                    &grape,
                    &mut EigenMemo::new(),
                    Some(&search_seed),
                )
                .expect("seeded search");
                assert!(
                    result.converged,
                    "seeded Rz({theta}) must reach target fidelity"
                );
                assert!(result.duration_ns <= upper_bound_ns + 1e-9);
                total += result.total_iterations() as u64;
                record_search(&mut seed, &result);
            }
            SEEDING_SEEDED_ITERS.store(total, Ordering::Relaxed);
            black_box(total)
        })
    });

    group.finish();
}

/// The compile-phase profiler's cost on the warm GRAPE gradient path: the same
/// reused stack-storage workspace, walking the same trajectory, measured disarmed (the production default,
/// where every instrumentation point is one relaxed atomic load) and armed
/// (`VQC_PROFILE=1`, where the Lap marks read the monotonic clock and bump
/// thread-local accumulators). [`emit_summary`] asserts the armed/disarmed
/// `min_ns` ratio stays under 1.05 before writing the summary — the profiler's
/// observability budget is five percent of the hot loop, enforced here.
fn bench_profile_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile_overhead");
    group.sample_size(30);

    let device = DeviceModel::qubits_line(2);
    let target = gates::cx();
    let mut trajectory = Trajectory::record(&device, &target, 24);
    let mut workspace = GrapeWorkspace::new(&device, 24);
    assert!(
        workspace.uses_static_kernel(),
        "the overhead gate must measure the production 2q stack instance"
    );
    workspace.set_target(&device, &target);

    profile::set_armed(false);
    group.bench_function("disarmed_2q_24slices", |b| {
        b.iter(|| workspace.fidelity_gradient(black_box(trajectory.advance())))
    });

    profile::set_armed(true);
    profile::begin_block();
    trajectory.rewind();
    group.bench_function("armed_2q_24slices", |b| {
        b.iter(|| workspace.fidelity_gradient(black_box(trajectory.advance())))
    });
    let block = profile::take_block();
    profile::set_armed(false);
    assert!(
        block.is_some_and(|block| !block.is_empty()),
        "the armed pass must have attributed phase time"
    );

    group.finish();
}

/// Writes every group's measurements, the profiler-overhead ratio, and the
/// seeding iteration reduction as `BENCH_grape.json` in the workspace root,
/// alongside `host_parallelism`, `host_avx2` and a unix timestamp (so the
/// single-CPU caveat on these numbers, and whether the two widths are two
/// instantiations at all, is machine-checkable, as in `BENCH_runtime.json`).
/// Skipped under `--test` smoke runs.
fn emit_summary(c: &mut Criterion) {
    if c.test_mode() {
        return;
    }
    let results = c.results();
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let timestamp_unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    #[cfg(target_arch = "x86_64")]
    let host_avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let host_avx2 = false;
    let mut json = format!(
        "{{\n  \"benchmark\": \"grape\",\n  \"workload\": \"fidelity_gradient_of_a_moving_pulse_on_a_reused_workspace\",\n  \"host_parallelism\": {host_parallelism},\n  \"host_avx2\": {host_avx2},\n  \"timestamp_unix_s\": {timestamp_unix_s},\n  \"results\": [\n",
    );
    for (index, result) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}}}{}\n",
            result.group,
            result.name,
            result.mean_ns,
            result.min_ns,
            result.samples,
            if index + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");

    // The profiler's observability budget: arming `VQC_PROFILE` may not slow
    // the warm gradient path by more than five percent. Compared on `min_ns`
    // because the best observed iteration is the least noisy estimator on a
    // single-CPU host, where scheduling jitter inflates the means.
    // The best sample of a row — of all its stretches, where it has several.
    let min_of = |group: &str, name: &str| {
        let rows = results
            .iter()
            .filter(|r| r.group == group && r.name == name);
        rows.map(|r| r.min_ns).min_by(f64::total_cmp)
    };
    let disarmed_ns = min_of("profile_overhead", "disarmed_2q_24slices")
        .expect("the profile_overhead disarmed pass must have run");
    let armed_ns = min_of("profile_overhead", "armed_2q_24slices")
        .expect("the profile_overhead armed pass must have run");
    let overhead_ratio = armed_ns / disarmed_ns;
    assert!(
        overhead_ratio < 1.05,
        "the armed profiler costs {overhead_ratio:.3}x of the disarmed gradient \
         path ({armed_ns:.1}ns vs {disarmed_ns:.1}ns; budget: <1.05x)"
    );
    // One lane against two on the widest block, each form's best over its
    // alternating stretches and at both widths, with how often the helper was
    // granted over the whole bench process.
    let lane_stats = lanes::stats();
    json.push_str("  \"lanes\": {\n");
    for (suffix, _) in WIDTHS {
        let best = |form: &str| {
            min_of("grape_lanes", &format!("{form}_4q_40slices{suffix}"))
                .expect("every grape_lanes stretch must have run")
        };
        let (one_lane_ns, two_lanes_ns) = (best("one_lane"), best("two_lanes"));
        json.push_str(&format!(
            "    \"one_lane_min_ns{suffix}\": {one_lane_ns:.1},\n    \"two_lanes_min_ns{suffix}\": {two_lanes_ns:.1},\n    \"one_over_two{suffix}\": {:.3},\n",
            one_lane_ns / two_lanes_ns,
        ));
    }
    json.push_str(&format!(
        "    \"stretches_per_form\": {LANE_STRETCHES},\n    \"claimed\": {},\n    \"refused\": {}\n  }},\n",
        lane_stats.claimed, lane_stats.refused,
    ));
    // What one slice of one lane costs, per block width and vector width.
    let mut rows = Vec::new();
    for qubits in 1..=4 {
        let per_slice = |suffix: &str| {
            let name = format!("smallmat_{qubits}q_{SMALLMAT_SLICES}slices{suffix}");
            let pass = min_of("grape_smallmat", &name);
            pass.expect("the grape_smallmat group must have run") / SMALLMAT_SLICES as f64
        };
        rows.push(format!(
            "    \"{qubits}q\": {{\"host_width\": {:.1}, \"baseline\": {:.1}}}",
            per_slice(WIDTHS[0].0),
            per_slice(WIDTHS[1].0)
        ));
    }
    json.push_str(&format!(
        "  \"one_lane_ns_per_slice\": {{\n{}\n  }},\n",
        rows.join(",\n")
    ));
    json.push_str(&format!(
        "  \"profile_overhead\": {{\n    \"disarmed_min_ns\": {disarmed_ns:.1},\n    \"armed_min_ns\": {armed_ns:.1},\n    \"armed_over_disarmed\": {overhead_ratio:.3}\n  }},\n"
    ));
    // The eigensolver's dimension rule, per solve on device Hamiltonians. The
    // engine solves four slices in lockstep on both sides of the rule, so on
    // each side four in lockstep must beat one at a time (what a remainder
    // pays), and each body must be the cheaper one where the rule puts it —
    // one at a time everywhere, and batched where the rule picks QL. (At 4x4
    // the two batches are within a few percent of each other here; in the
    // engine the Jacobi one wins, and it keeps the bits.)
    let per_solve = |row: &str, n: usize, solves: usize| {
        let pass = min_of("eigh_real", &format!("{row}_n{n}_x{solves}"));
        pass.expect("the eigh_real group must have run") / solves as f64
    };
    let mut rows = Vec::new();
    for n in [4, 8, 16] {
        let (ql, ql_batch4) = (per_solve("ql", n, STEPS), per_solve("ql_batch4", n, STEPS));
        let (cold, warm) = (
            per_solve("jacobi_cold", n, STEPS),
            per_solve("jacobi_warm", n, STEPS),
        );
        let warm_batch4 = per_solve("jacobi_warm_batch4", n, 4 * STEPS);
        let ql_side = n >= QL_MIN_DIM;
        let (body, alone, batched) = if ql_side {
            ("QL", ql, ql_batch4)
        } else {
            ("warm Jacobi", warm, warm_batch4)
        };
        assert!(
            batched < alone,
            "at {n}x{n} four {body} solves in lockstep take {batched:.0} ns each, \
             one at a time {alone:.0} ns"
        );
        assert!(
            (ql < warm) == ql_side && (!ql_side || ql_batch4 < warm_batch4),
            "at {n}x{n} the dimension rule picks {body} but a solve takes {ql:.0} ns by QL \
             and {warm:.0} ns by warm-started Jacobi one at a time, {ql_batch4:.0} and \
             {warm_batch4:.0} ns four in lockstep"
        );
        rows.push(format!(
            "    \"n{n}\": {{\"ql\": {ql:.1}, \"ql_batch4\": {ql_batch4:.1}, \
             \"jacobi_cold\": {cold:.1}, \"jacobi_warm\": {warm:.1}, \
             \"jacobi_warm_batch4\": {warm_batch4:.1}}}"
        ));
    }
    json.push_str(&format!(
        "  \"eigh_real_ns_per_solve\": {{\n{}\n  }},\n",
        rows.join(",\n")
    ));

    // Seeding's headline number: total GRAPE iterations across a
    // repeat-structure pass, cold vs seeded. Asserted before the file is
    // written so a regression can never publish a green-looking summary.
    let cold_iters = SEEDING_COLD_ITERS.load(Ordering::Relaxed);
    let seeded_iters = SEEDING_SEEDED_ITERS.load(Ordering::Relaxed);
    assert!(
        cold_iters > 0 && seeded_iters > 0,
        "the grape_seeding passes must have run before the summary is emitted"
    );
    let reduction = cold_iters as f64 / seeded_iters as f64;
    assert!(
        reduction >= 1.5,
        "table seeding only cut total GRAPE iterations by {reduction:.2}x \
         ({cold_iters} cold vs {seeded_iters} seeded; target: >=1.5x)"
    );
    json.push_str(&format!(
        "  \"seeding_iteration_reduction\": {{\n    \"cold_iterations\": {cold_iters},\n    \"seeded_iterations\": {seeded_iters},\n    \"reduction\": {reduction:.3}\n  }}\n}}\n"
    ));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_grape.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(error) => println!("could not write {}: {error}", path.display()),
    }
}

// `bench_grape_lanes` appears `LANE_STRETCHES` times, seconds apart.
criterion_group!(
    benches,
    bench_grape,
    bench_grape_smallmat,
    bench_grape_lanes,
    bench_eigh_real,
    bench_grape_lanes,
    bench_grape_seeding,
    bench_profile_overhead,
    bench_grape_lanes,
    emit_summary
);
criterion_main!(benches);
