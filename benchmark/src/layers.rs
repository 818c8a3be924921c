//! Per-layer measurements: each layer's public functions timed from outside,
//! on inputs generated from the seed.
//!
//! A traced run calls [`measure`] once. Which end-to-end metric each of these
//! should move, and on which workload, is written down in `README.md` next to
//! the metric's name.

use crate::inputs::{self, Op, Rng};
use crate::stats;
use crate::workloads::tracing::{service_submit, wire_payload, wire_submit};
use crate::workloads::{compiler_options, runtime_options};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqc_apps::graphs::Graph;
use vqc_apps::molecules::Molecule;
use vqc_apps::{qaoa, uccsd};
use vqc_circuit::timing::critical_path_ns;
use vqc_circuit::{passes, Circuit};
use vqc_core::blocking::Block;
use vqc_core::{BlockKey, CachedBlock, CompilationPlan, PartialCompiler, PulseCache, Strategy};
use vqc_linalg::fidelity::trace_infidelity;
use vqc_linalg::{eigh_into, small, EighWorkspace, Matrix, SmallEighWorkspace, SmallMatrix};
use vqc_pulse::grape::try_optimize_pulse;
use vqc_pulse::minimum_time::{minimum_pulse_time_seeded, MinimumTimeOptions};
use vqc_pulse::propagate::{final_unitary, slice_hamiltonian};
use vqc_pulse::{DeviceModel, EigenMemo, GrapeWorkspace, PulseSequence, SearchSeed};
use vqc_runtime::{persist, CacheConfig, CompilationRuntime, ShardedPulseCache};
use vqc_sim::circuit_unitary;
use vqc_transport::wire::{read_frame, write_frame};
use vqc_transport::{
    Client, ClientOptions, Request, Response, Server, ServerOptions, DEFAULT_MAX_FRAME,
};

/// Wall time one micro-measurement may take, and how often a slow case is
/// repeated; a smoke run only shows that every metric is emitted.
#[derive(Debug, Clone, Copy)]
struct Effort {
    budget: Duration,
    repeats: usize,
}

impl Effort {
    fn of(smoke: bool) -> Effort {
        if smoke {
            Effort {
                budget: Duration::from_millis(4),
                repeats: 1,
            }
        } else {
            Effort {
                budget: Duration::from_millis(40),
                repeats: 3,
            }
        }
    }
}

/// Median seconds per call of `work`, over batches sized to a few hundred
/// microseconds each so the clock read is negligible.
fn per_call(effort: Effort, work: impl FnMut()) -> f64 {
    per_call_within(effort.budget, work)
}

fn per_call_within(budget: Duration, mut work: impl FnMut()) -> f64 {
    let started = Instant::now();
    work();
    let once = started.elapsed().as_secs_f64().max(1e-9);
    let batch = ((200e-6 / once) as usize).clamp(1, 100_000);
    let mut samples = Vec::new();
    while samples.len() < 5 || (started.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        for _ in 0..batch {
            work();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    stats::median(&samples)
}

/// Median seconds of `repeats` runs of a slow case.
fn median_of<T>(repeats: usize, mut work: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            black_box(work());
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// The Hermitian matrix GRAPE diagonalises per slice: a seeded pulse's slice
/// Hamiltonian on an `n`-qubit line.
fn slice_matrix(num_qubits: usize, seed: u64) -> Matrix {
    let device = DeviceModel::qubits_line(num_qubits);
    let pulse = PulseSequence::seeded_guess(&device, 8, compiler_options().grape.dt_ns, seed);
    slice_hamiltonian(&device.drift(), &device.control_hamiltonians(), &pulse, 3)
}

fn small_eigh_seconds<const N: usize>(effort: Effort, matrix: &Matrix) -> f64 {
    let a = SmallMatrix::<N>::from_matrix(matrix);
    let mut workspace = SmallEighWorkspace::<N>::new();
    let mut values = [0.0; N];
    let mut vectors = SmallMatrix::<N>::zeros();
    per_call(effort, || {
        black_box(small::eigh_into(
            black_box(&a),
            &mut workspace,
            &mut values,
            &mut vectors,
        ));
    })
}

/// The first block of a plan that satisfies `wanted`, with its bound circuit.
fn find_block<'p>(
    plan: &'p CompilationPlan,
    theta: &[f64],
    wanted: impl Fn(&Block) -> bool,
) -> Option<(&'p Block, Circuit)> {
    plan.blocks
        .iter()
        .find(|b| b.len() > 1 && wanted(b))
        .map(|b| (b, b.to_circuit(&plan.prepared).bind(theta)))
}

/// Every per-layer micro-measurement, by metric name. `correct` is cleared if
/// an optimised pulse, propagated again from scratch, misses its target.
pub fn measure(
    seed: u64,
    smoke: bool,
    out_dir: &Path,
    correct: &mut bool,
) -> BTreeMap<&'static str, f64> {
    let effort = Effort::of(smoke);
    let mut m = BTreeMap::new();
    let mut rng = Rng::stream(seed, 9);
    let options = compiler_options();
    let lih = inputs::lih();
    let h2 = inputs::h2();
    let lih_theta = inputs::seeded_parameters(lih.num_parameters(), 0.1, &mut rng);
    let h2_theta = inputs::seeded_parameters(h2.num_parameters(), 0.1, &mut rng);

    // apps: building the benchmark circuits (set-up cost only).
    m.insert(
        "apps.uccsd_build_us.lih",
        1e6 * per_call(effort, || {
            black_box(uccsd::uccsd_circuit(Molecule::LiH));
        }),
    );
    let graph_seed = rng.next_u64();
    let qaoa_circuit = inputs::qaoa_regular(&mut Rng::new(graph_seed));
    m.insert(
        "apps.qaoa_build_us",
        1e6 * per_call(effort, || {
            let graph =
                Graph::three_regular(6, graph_seed).expect("3-regular graphs on 6 nodes exist");
            black_box(qaoa::qaoa_circuit(&graph, 1));
        }),
    );

    // linalg: the eigensolver and product GRAPE calls per slice.
    let (h4, h16) = (slice_matrix(2, seed), slice_matrix(4, seed));
    m.insert(
        "linalg.eigh_n4_ns",
        1e9 * small_eigh_seconds::<4>(effort, &h4),
    );
    m.insert(
        "linalg.eigh_n16_ns",
        1e9 * small_eigh_seconds::<16>(effort, &h16),
    );
    {
        let a = SmallMatrix::<16>::from_matrix(&h16);
        let mut out = SmallMatrix::<16>::zeros();
        m.insert(
            "linalg.matmul_n16_ns",
            1e9 * per_call(effort, || {
                black_box(&a).matmul_into(black_box(&a), &mut out);
                black_box(&mut out);
            }),
        );
        let mut workspace = EighWorkspace::new(16);
        let mut values = Vec::new();
        let mut vectors = Matrix::zeros(16, 16);
        m.insert(
            "linalg.eigh_dyn_n16_ns",
            1e9 * per_call(effort, || {
                black_box(eigh_into(
                    black_box(&h16),
                    &mut workspace,
                    &mut values,
                    &mut vectors,
                ));
            }),
        );
    }

    // circuit: the passes every op pays before planning.
    let prepared = passes::optimize(&lih);
    m.insert(
        "circuit.optimize_us.lih",
        1e6 * per_call(effort, || {
            black_box(passes::optimize(black_box(&lih)));
        }),
    );
    m.insert(
        "circuit.optimize_us.qaoa",
        1e6 * per_call(effort, || {
            black_box(passes::optimize(black_box(&qaoa_circuit)));
        }),
    );
    m.insert(
        "circuit.bind_us.lih",
        1e6 * per_call(effort, || {
            black_box(black_box(&lih).bind(&lih_theta));
        }),
    );
    m.insert(
        "circuit.critical_path_us.lih",
        1e6 * per_call(effort, || {
            black_box(critical_path_ns(black_box(&prepared), &options.gate_times));
        }),
    );

    // A runtime with LiH strict pre-computed: the warm paths of core, runtime
    // and transport are all measured against it.
    let runtime = Arc::new(CompilationRuntime::new(options.clone(), runtime_options()));
    let warm = Op::new(
        "lih.strict",
        &lih,
        Strategy::StrictPartial,
        lih_theta.clone(),
    );
    let warm_report = runtime
        .compile(&warm.circuit, &warm.theta, warm.strategy)
        .expect("LiH strict pre-computes");
    let compiler = runtime.compiler();

    // core: plan, key, probe and assemble on the warm path.
    let plan = compiler
        .plan(&warm.circuit, &warm.theta, warm.strategy)
        .expect("LiH strict plans");
    m.insert(
        "core.plan_us.lih",
        1e6 * per_call(effort, || {
            black_box(
                compiler
                    .plan(&warm.circuit, &warm.theta, warm.strategy)
                    .ok(),
            );
        }),
    );
    let keyed: Vec<&Block> = plan.blocks.iter().filter(|b| b.len() > 1).collect();
    m.insert(
        "core.block_key_us",
        1e6 / keyed.len() as f64
            * per_call(effort, || {
                for block in &keyed {
                    black_box(plan.dedup_key(block, &warm.theta));
                }
            }),
    );
    m.insert(
        "core.block_hit_us",
        1e6 / keyed.len() as f64
            * per_call(effort, || {
                for block in &keyed {
                    black_box(
                        compiler
                            .compile_block_outcome(&plan, block, &warm.theta)
                            .ok(),
                    );
                }
            }),
    );
    let outcomes: Vec<_> = plan
        .blocks
        .iter()
        .filter_map(|b| compiler.compile_block_outcome(&plan, b, &warm.theta).ok())
        .collect();
    let clone_seconds = per_call(effort, || {
        black_box(outcomes.clone());
    });
    let assemble_seconds = per_call(effort, || {
        black_box(compiler.assemble(&plan, outcomes.clone()));
    });
    m.insert(
        "core.assemble_us.lih",
        1e6 * (assemble_seconds - clone_seconds).max(0.0),
    );
    let direct_warm = per_call(effort, || {
        black_box(
            compiler
                .compile(&warm.circuit, &warm.theta, warm.strategy)
                .ok(),
        );
    });
    m.insert("core.compile_warm_us.lih", 1e6 * direct_warm);

    // core + pulse: what one missed block costs, cold.
    let full_plan = |circuit: &Circuit, theta: &[f64], strategy| {
        PartialCompiler::new(options.clone())
            .plan(circuit, theta, strategy)
            .expect("benchmark circuits plan")
    };
    let cold_block_ms = |plan: &CompilationPlan, block: &Block, theta: &[f64]| {
        1e3 * median_of(effort.repeats, || {
            PartialCompiler::new(options.clone())
                .compile_block_outcome(plan, block, theta)
                .ok()
        })
    };
    let h2_full = full_plan(&h2, &h2_theta, Strategy::FullGrape);
    let lih_full = full_plan(&lih, &lih_theta, Strategy::FullGrape);
    let h2_flexible = full_plan(&h2, &h2_theta, Strategy::FlexiblePartial);
    let (block_2q, bound_2q) =
        find_block(&h2_full, &h2_theta, |b| !b.is_fixed()).expect("H2 has a 2-qubit θ block");
    let (block_4q, bound_4q) = find_block(&lih_full, &lih_theta, |b| b.qubits.len() == 4)
        .expect("LiH has a 4-qubit block");
    let (block_tune, _) =
        find_block(&h2_flexible, &h2_theta, |b| !b.is_fixed()).expect("H2 has a flexible θ block");
    m.insert(
        "core.block_miss_ms.2q",
        cold_block_ms(&h2_full, block_2q, &h2_theta),
    );
    m.insert(
        "core.block_miss_ms.4q",
        cold_block_ms(&lih_full, block_4q, &lih_theta),
    );
    m.insert(
        "core.tune_block_ms.2q",
        cold_block_ms(&h2_flexible, block_tune, &h2_theta),
    );

    // sim: the target unitary, paid once per missed block.
    m.insert(
        "sim.block_unitary_4q_us",
        1e6 * per_call(effort, || {
            black_box(circuit_unitary(black_box(&bound_4q)));
        }),
    );

    // pulse: one gradient, a fixed GRAPE budget, and the duration search cold
    // and seeded by a neighbour θ.
    let (target_2q, target_4q) = (circuit_unitary(&bound_2q), circuit_unitary(&bound_4q));
    for (name, target, qubits) in [
        ("pulse.gradient_2q_us", &target_2q, 2),
        ("pulse.gradient_4q_us", &target_4q, 4),
    ] {
        let device = DeviceModel::qubits_line(qubits);
        let pulse = PulseSequence::seeded_guess(&device, 24, options.grape.dt_ns, seed);
        let mut workspace = GrapeWorkspace::new(&device, 24);
        workspace.set_target(&device, target);
        m.insert(
            name,
            1e6 * per_call(effort, || {
                black_box(workspace.fidelity_gradient(black_box(&pulse)));
            }),
        );
    }
    {
        let device = DeviceModel::qubits_line(4);
        let mut fixed_budget = options.grape.clone();
        fixed_budget.max_iterations = 20;
        fixed_budget.target_infidelity = 0.0;
        let duration_ns = 24.0 * fixed_budget.dt_ns;
        let started = Instant::now();
        let iterations = try_optimize_pulse(&target_4q, &device, duration_ns, &fixed_budget)
            .map_or(0, |result| result.iterations);
        m.insert(
            "pulse.grape_iters_per_s.4q",
            iterations as f64 / started.elapsed().as_secs_f64(),
        );
    }
    {
        let device = DeviceModel::qubits_line(2);
        let upper = critical_path_ns(&bound_2q, &options.gate_times);
        let search =
            MinimumTimeOptions::new(0.0, upper).with_precision(options.search_precision_ns);
        let run = |target: &Matrix, seed: Option<&SearchSeed>| {
            minimum_pulse_time_seeded(
                target,
                &device,
                &search,
                &options.grape,
                &mut EigenMemo::new(),
                seed,
            )
            .expect("a 2-qubit duration search accepts its inputs")
        };
        let cold = run(&target_2q, None);
        m.insert(
            "pulse.min_time_cold_ms.2q",
            1e3 * median_of(effort.repeats, || run(&target_2q, None)),
        );
        m.insert("pulse.probes_per_search.2q", cold.probes.len() as f64);
        // Output check, independent of the compiler's bookkeeping: propagate
        // the optimised pulse again and compare with the simulated circuit.
        if let Some(best) = &cold.best {
            let realised = final_unitary(&device, &best.pulse);
            let infidelity = trace_infidelity(&target_2q, &realised);
            if cold.converged && infidelity > options.grape.target_infidelity + 1e-9 {
                eprintln!("output check failed: re-propagated pulse infidelity {infidelity}");
                *correct = false;
            }
        } else {
            *correct = false;
        }
        // The same structure one walk step away, seeded by the cold result.
        let mut neighbour_theta = h2_theta.clone();
        inputs::walk(&mut neighbour_theta, 0.1, &mut rng);
        let neighbour = circuit_unitary(
            &block_2q
                .to_circuit(&h2_full.prepared)
                .bind(&neighbour_theta),
        );
        let failed_below = cold
            .probes
            .iter()
            .filter(|p| !p.converged)
            .map(|p| p.duration_ns)
            .fold(0.0, f64::max);
        let search_seed = SearchSeed {
            lower_bound_ns: failed_below,
            converged_duration_ns: cold.converged.then_some(cold.duration_ns),
            pulse: cold.best.as_ref().map(|best| best.pulse.clone()),
        };
        m.insert(
            "pulse.min_time_seeded_ms.2q",
            1e3 * median_of(effort.repeats, || run(&neighbour, Some(&search_seed))),
        );
    }

    // runtime: the cache alone, the service's cost over a direct compile, and
    // the snapshot of the warm runtime.
    {
        let keys: Vec<BlockKey> = (0..1024)
            .map(|i| {
                let mut circuit = Circuit::new(2);
                circuit.cx(0, 1);
                circuit.rz(1, i as f64 * 1e-3);
                BlockKey::from_bound_circuit(&circuit)
            })
            .collect();
        let entry = CachedBlock {
            duration_ns: 4.0,
            converged: true,
            grape_iterations: 100,
        };
        let cache = ShardedPulseCache::new(CacheConfig::default());
        m.insert(
            "runtime.cache_put_ns",
            1e9 / keys.len() as f64
                * per_call(effort, || {
                    for key in &keys {
                        cache.insert_block(key.clone(), entry.clone());
                    }
                }),
        );
        let gets = || {
            for key in &keys {
                black_box(cache.block(key));
            }
        };
        m.insert(
            "runtime.cache_get_ns",
            1e9 / keys.len() as f64 * per_call(effort, gets),
        );
        let two_threads = per_call(effort, || {
            std::thread::scope(|scope| {
                let other = scope.spawn(gets);
                gets();
                other.join().expect("a cache reader does not panic");
            });
        });
        m.insert(
            "runtime.cache_get_2t_ns",
            1e9 / keys.len() as f64 * two_threads,
        );
    }
    let submit_wait = |op: &Op| {
        black_box(service_submit(&runtime, op, None));
    };
    {
        let gate_based = Op::new("lih.gate", &lih, Strategy::GateBased, lih_theta.clone());
        // A difference of two like numbers: each gets a longer look.
        let direct = per_call_within(4 * effort.budget, || {
            black_box(
                compiler
                    .compile(&gate_based.circuit, &gate_based.theta, gate_based.strategy)
                    .ok(),
            );
        });
        let served = per_call_within(4 * effort.budget, || submit_wait(&gate_based));
        m.insert("runtime.submit_overhead_us", 1e6 * (served - direct));
    }
    {
        let path = out_dir.join("layers.snapshot");
        m.insert(
            "runtime.snapshot_save_ms",
            1e3 * median_of(effort.repeats, || runtime.save_snapshot(&path)),
        );
        m.insert(
            "runtime.snapshot_bytes",
            std::fs::metadata(&path).map_or(0.0, |meta| meta.len() as f64),
        );
        m.insert(
            "runtime.snapshot_load_ms",
            1e3 * median_of(effort.repeats, || persist::load_snapshot(&path).ok()),
        );
        let _ = std::fs::remove_file(&path);
    }

    // transport: frames on a `Vec`, and a quiet server on loopback.
    {
        let request = Request::Submit {
            id: 1,
            payload: wire_payload(&warm),
            priority: None,
            trace: None,
        };
        let response = Response::Report {
            id: 1,
            results: vec![Ok(warm_report)],
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &request, DEFAULT_MAX_FRAME).expect("a submit frame encodes");
        m.insert("transport.submit_frame_bytes.lih", frame.len() as f64);
        m.insert(
            "transport.encode_us.lih",
            1e6 * per_call(effort, || {
                let mut out = Vec::with_capacity(frame.len());
                black_box(write_frame(&mut out, black_box(&request), DEFAULT_MAX_FRAME).ok());
            }),
        );
        m.insert(
            "transport.decode_us.lih",
            1e6 * per_call(effort, || {
                black_box(read_frame::<_, Request>(&mut &frame[..], DEFAULT_MAX_FRAME).ok());
            }),
        );
        let mut report_frame = Vec::new();
        write_frame(&mut report_frame, &response, DEFAULT_MAX_FRAME)
            .expect("a report frame encodes");
        m.insert(
            "transport.report_frame_bytes.lih",
            report_frame.len() as f64,
        );
    }
    {
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&runtime),
            ServerOptions::default(),
        )
        .expect("an ephemeral loopback port binds");
        let connect = || Client::connect(server.local_addr(), ClientOptions::default());
        m.insert(
            "transport.connect_ms",
            1e3 * median_of(effort.repeats + 2, || connect().ok()),
        );
        let client = connect().expect("the loopback server accepts");
        m.insert(
            "transport.null_rtt_us",
            1e6 * per_call(effort, || {
                black_box(client.stats().ok());
            }),
        );
        let wire = per_call_within(4 * effort.budget, || {
            black_box(wire_submit(&client, &warm, None));
        });
        let in_process = per_call_within(4 * effort.budget, || submit_wait(&warm));
        m.insert("transport.wire_overhead_us", 1e6 * (wire - in_process));
    }
    m
}
