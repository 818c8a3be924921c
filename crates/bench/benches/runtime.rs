//! Benchmark of the concurrent compilation runtime against the seed's sequential
//! path on a repeated-block QAOA workload: a batch of QAOA circuits whose blocks
//! recur within each circuit and across requests. Compares the sequential
//! compiler with the sharded runtime at 1/2/4/8 workers, the service submission
//! front-end (concurrent prioritized clients) against the synchronous batch
//! wrapper, and the wire, telemetry and lock-checker overheads on a warm
//! submission, and writes a `BENCH_runtime.json` summary next to the workspace
//! root. (The store alone, on one thread and two, is `benchmark/`'s
//! `runtime.cache_get_ns` / `cache_put_ns` / `cache_get_2t_ns` rows.) Interpret
//! worker scaling against the `host_parallelism` field: on a single-CPU host all
//! configurations legitimately tie, and the comparison degenerates to measuring
//! scheduling overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::io::Write;
use vqc_apps::graphs::Graph;
use vqc_apps::qaoa::qaoa_circuit;
use vqc_bench::reference_parameters;
use vqc_core::{CompilerOptions, PartialCompiler, Strategy};
use vqc_runtime::{
    CompilationRuntime, CompileJob, Priority, RuntimeOptions, Submission, TelemetryOptions,
};
use vqc_transport::{Client, ClientOptions, Server, ServerOptions, SubmitPayload, WireJob};

/// GRAPE effort reduced far enough that a cold compile of the workload is
/// benchmark-sized; the cache/parallelism behavior under study is unaffected.
fn bench_options() -> CompilerOptions {
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 40;
    options.grape.target_infidelity = 1e-1;
    options.search_precision_ns = 2.0;
    options
}

/// The repeated-block workload: full-GRAPE compilation of QAOA circuits on four
/// different 3-regular 6-node graphs (one batch of requests, as concurrent clients
/// would submit). Each circuit aggregates into several ≤4-qubit blocks; identical
/// edge blocks dedup through the shared cache, distinct ones GRAPE in parallel.
fn workload() -> Vec<CompileJob> {
    (0..4)
        .map(|seed| {
            let graph = Graph::three_regular(6, 20 + seed).expect("3-regular graph on 6 nodes");
            let circuit = qaoa_circuit(&graph, 1);
            let params: Vec<f64> = reference_parameters(2)
                .iter()
                .map(|p| p + 0.05 * seed as f64)
                .collect();
            CompileJob::new(circuit, params, Strategy::FullGrape)
        })
        .collect()
}

fn bench_compilation(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_compilation");
    group.sample_size(3);
    let jobs = workload();

    // Baseline: the sequential compiler on a store of its own, one compile call
    // per request. Cold cache per measurement.
    group.bench_function("sequential_compiler", |b| {
        b.iter(|| {
            let compiler = PartialCompiler::new(bench_options());
            for job in &jobs {
                black_box(
                    compiler
                        .compile(&job.circuit, &job.params, job.strategy)
                        .unwrap(),
                );
            }
        })
    });

    for workers in [1usize, 2, 4, 8] {
        group.bench_function(format!("sharded_runtime_{workers}_workers"), |b| {
            b.iter(|| {
                let runtime =
                    CompilationRuntime::new(bench_options(), RuntimeOptions::with_workers(workers));
                for report in runtime.compile_batch(&jobs) {
                    black_box(report.unwrap());
                }
            })
        });
    }
    group.finish();
}

/// The service front-end under concurrent prioritized clients: each request of the
/// QAOA workload is submitted as its own prioritized submission (two clients,
/// interactive above background) and the handles are awaited together. Compared
/// against the synchronous wrapper compiling the same jobs as one batch — on a
/// single-CPU host both measure the same GRAPE work, so the gap is the service's
/// scheduling overhead.
fn bench_service_submission(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_submission");
    group.sample_size(3);
    let jobs = workload();

    group.bench_function("wrapped_batch", |b| {
        b.iter(|| {
            let runtime = CompilationRuntime::new(bench_options(), RuntimeOptions::with_workers(4));
            for report in runtime.compile_batch(&jobs) {
                black_box(report.unwrap());
            }
        })
    });
    group.bench_function("prioritized_submissions", |b| {
        b.iter(|| {
            let runtime = CompilationRuntime::new(bench_options(), RuntimeOptions::with_workers(4));
            let handles: Vec<_> = jobs
                .iter()
                .enumerate()
                .map(|(index, job)| {
                    let (client, priority) = if index % 2 == 0 {
                        (1, Priority::HIGH)
                    } else {
                        (2, Priority::LOW)
                    };
                    runtime
                        .submit(
                            Submission::single(job.circuit.clone(), &job.params[..], job.strategy)
                                .with_priority(priority)
                                .with_client(client),
                        )
                        .expect("queue depth exceeds the workload")
                })
                .collect();
            for handle in handles {
                for report in handle.wait().expect("not canceled") {
                    black_box(report.unwrap());
                }
            }
        })
    });
    group.finish();
}

/// Wire overhead of the TCP transport: submit→report latency of a warm-cache
/// job through a loopback `vqc_transport::Server` against the same submission
/// in-process. Both paths plan the circuit and wait for the (cached) block
/// lookup on the worker pool; the wire path adds two frame serializations, the
/// TCP round trips, and the server/client thread handoffs. The acceptance
/// target is wire ≤ 2x in-process on warm jobs.
fn bench_transport_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_roundtrip");
    group.sample_size(10);
    let runtime = std::sync::Arc::new(CompilationRuntime::new(
        bench_options(),
        RuntimeOptions::with_workers(2),
    ));
    // A representative request: the QAOA workload circuit (tens of blocks, a
    // real transpile pass per plan), strict-partial at a fixed binding.
    let graph = Graph::three_regular(6, 20).expect("3-regular graph on 6 nodes");
    let circuit = qaoa_circuit(&graph, 1);
    let params: Vec<f64> = reference_parameters(2);
    // Warm the cache so both paths measure submission overhead, not GRAPE.
    runtime
        .compile(&circuit, &params, Strategy::StrictPartial)
        .expect("the warmup compiles");

    group.bench_function("in_process_submit", |b| {
        b.iter(|| {
            let handle = runtime
                .submit(Submission::single(
                    circuit.clone(),
                    &params[..],
                    Strategy::StrictPartial,
                ))
                .expect("queue empty");
            black_box(
                handle.wait().expect("not canceled")[0]
                    .as_ref()
                    .unwrap()
                    .pulse_duration_ns,
            );
        })
    });

    let server = Server::bind(
        "127.0.0.1:0",
        std::sync::Arc::clone(&runtime),
        ServerOptions::default(),
    )
    .expect("bind loopback");
    let client =
        Client::connect(server.local_addr(), ClientOptions::default()).expect("connect loopback");
    group.bench_function("wire_submit", |b| {
        b.iter(|| {
            let job = client
                .submit(SubmitPayload::Batch(vec![WireJob {
                    circuit: circuit.clone(),
                    params: params.clone(),
                    strategy: Strategy::StrictPartial,
                }]))
                .expect("connected");
            black_box(
                job.wait().expect("accepted")[0]
                    .as_ref()
                    .unwrap()
                    .pulse_duration_ns,
            );
        })
    });
    group.finish();
}

/// Instrumentation cost on the hot path: the same warm-cache submit→report
/// loop with telemetry recording enabled (the default) and disabled. Each
/// lifecycle stage costs a handful of relaxed atomic increments plus one
/// ring-buffer write; the acceptance budget is <5% on warm submissions, and
/// `emit_summary` enforces it on the noise-robust per-iteration minima.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(30);
    let graph = Graph::three_regular(6, 20).expect("3-regular graph on 6 nodes");
    let circuit = qaoa_circuit(&graph, 1);
    let params: Vec<f64> = reference_parameters(2);
    for (name, enabled) in [("telemetry_enabled", true), ("telemetry_disabled", false)] {
        let runtime = CompilationRuntime::new(
            bench_options(),
            RuntimeOptions::with_workers(2)
                .with_telemetry(TelemetryOptions::default().with_enabled(enabled)),
        );
        // Warm the cache so the loop measures submission overhead, not GRAPE.
        runtime
            .compile(&circuit, &params, Strategy::StrictPartial)
            .expect("the warmup compiles");
        group.bench_function(name, |b| {
            b.iter(|| {
                let handle = runtime
                    .submit(Submission::single(
                        circuit.clone(),
                        &params[..],
                        Strategy::StrictPartial,
                    ))
                    .expect("queue empty");
                black_box(
                    handle.wait().expect("not canceled")[0]
                        .as_ref()
                        .unwrap()
                        .pulse_duration_ns,
                );
            })
        });
    }
    group.finish();
}

/// Cost of the lock-order checker on the same warm-cache submit→report loop.
/// Disabled (the default), each lock site adds two relaxed atomic loads;
/// enabled, every acquisition updates the held stack and order graph. Only the
/// disabled case is production, so `emit_summary` holds the checked run to a
/// loose 2x tripwire — it exists to catch the checker becoming pathological,
/// not to make it free.
fn bench_lock_check_overhead(c: &mut Criterion) {
    use parking_lot::lock_check;
    let mut group = c.benchmark_group("lock_check_overhead");
    group.sample_size(30);
    let graph = Graph::three_regular(6, 20).expect("3-regular graph on 6 nodes");
    let circuit = qaoa_circuit(&graph, 1);
    let params: Vec<f64> = reference_parameters(2);
    for (name, enabled) in [("check_enabled", true), ("check_disabled", false)] {
        lock_check::force(enabled);
        let runtime = CompilationRuntime::new(bench_options(), RuntimeOptions::with_workers(2));
        runtime
            .compile(&circuit, &params, Strategy::StrictPartial)
            .expect("the warmup compiles");
        group.bench_function(name, |b| {
            b.iter(|| {
                let handle = runtime
                    .submit(Submission::single(
                        circuit.clone(),
                        &params[..],
                        Strategy::StrictPartial,
                    ))
                    .expect("queue empty");
                black_box(
                    handle.wait().expect("not canceled")[0]
                        .as_ref()
                        .unwrap()
                        .pulse_duration_ns,
                );
            })
        });
        // Drain the runtime before flipping the global switch: a guard taken
        // with tracking must release with tracking.
        drop(runtime);
    }
    lock_check::force(false);
    lock_check::set_long_hold_reporter(None);
    group.finish();
}

/// Writes the recorded measurements as `BENCH_runtime.json` in the workspace root
/// (or the current directory when the manifest-relative path is unavailable).
/// Skipped under `--test` smoke runs.
fn emit_summary(c: &mut Criterion) {
    if c.test_mode() {
        return;
    }
    // Worker-count scaling is bounded by the host: on a single-CPU machine all
    // configurations legitimately measure equal, and the comparison shows the
    // runtime's scheduling overhead instead of its speedup.
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let timestamp_unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = format!(
        "{{\n  \"benchmark\": \"runtime\",\n  \"workload\": \"qaoa_3regular_n6_p1_full_grape_batch_of_4_graphs\",\n  \"host_parallelism\": {host_parallelism},\n  \"timestamp_unix_s\": {timestamp_unix_s},\n",
    );
    let results = c.results();
    // The telemetry budget: instrumentation must cost <5% on warm submissions.
    // The comparison uses per-iteration minima (robust against scheduler
    // noise), with a 10µs absolute floor so a sub-noise difference on a fast
    // host cannot fail the ratio check.
    let bench = |group: &str, name: &str| {
        results
            .iter()
            .find(|r| r.group == group && r.name == name)
            .map(|r| (r.mean_ns, r.min_ns))
    };
    if let (Some((enabled_mean, enabled_min)), Some((disabled_mean, disabled_min))) = (
        bench("telemetry_overhead", "telemetry_enabled"),
        bench("telemetry_overhead", "telemetry_disabled"),
    ) {
        let ratio = enabled_min / disabled_min;
        json.push_str(&format!(
            "  \"telemetry_overhead\": {{\"enabled_mean_ns\": {enabled_mean:.1}, \"disabled_mean_ns\": {disabled_mean:.1}, \"enabled_min_ns\": {enabled_min:.1}, \"disabled_min_ns\": {disabled_min:.1}, \"overhead_ratio\": {ratio:.4}, \"budget_ratio\": 1.05}},\n"
        ));
        assert!(
            ratio < 1.05 || enabled_min - disabled_min < 10_000.0,
            "telemetry instrumentation costs {:.1}% on warm submissions, over the 5% budget",
            (ratio - 1.0) * 100.0
        );
    }
    // The lock-checker tripwire. Only the disabled configuration is production;
    // enabled, every acquisition updates the held stack and the order graph,
    // which on a warm submission of ~100 µs (a few dozen lock sites) reads
    // 1.3x on the per-iteration minima. The bound catches the graph update
    // becoming pathological (doubling the warm path), not a claim that checking
    // is free.
    if let (Some((enabled_mean, enabled_min)), Some((disabled_mean, disabled_min))) = (
        bench("lock_check_overhead", "check_enabled"),
        bench("lock_check_overhead", "check_disabled"),
    ) {
        let ratio = enabled_min / disabled_min;
        json.push_str(&format!(
            "  \"lock_check_overhead\": {{\"enabled_mean_ns\": {enabled_mean:.1}, \"disabled_mean_ns\": {disabled_mean:.1}, \"enabled_min_ns\": {enabled_min:.1}, \"disabled_min_ns\": {disabled_min:.1}, \"overhead_ratio\": {ratio:.4}, \"budget_ratio\": 2.0}},\n"
        ));
        assert!(
            ratio < 2.0,
            "the lock-order checker costs {:.1}% on warm submissions, over the 100% tripwire",
            (ratio - 1.0) * 100.0
        );
    }
    json.push_str("  \"results\": [\n");
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
    json.push_str("  ]\n}\n");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_runtime.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(error) => println!("could not write {}: {error}", path.display()),
    }
}

criterion_group!(
    benches,
    bench_compilation,
    bench_service_submission,
    bench_transport_roundtrip,
    bench_telemetry_overhead,
    bench_lock_check_overhead,
    emit_summary
);
criterion_main!(benches);
