//! End-to-end and per-layer benchmark of the variational compile loop.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints every metric by name and unit, then
//! one JSON object as the last line. Without `--workload` the whole set runs,
//! each workload in a process of its own (`--repeat K`, `--smoke`, `--trace`).
//! See `README.md` in this directory.

mod host;
mod inputs;
mod json;
mod layers;
mod manifest;
mod span;
mod stats;
mod workloads;

use json::Json;
use span::Recorder;
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::cold_precompute::ColdPrecompute;
use workloads::fullgrape_loop::FullGrapeLoop;
use workloads::warm_loop::WarmLoop;
use workloads::wire_mixed::WireMixed;
use workloads::{Plan, RuntimeView, Tally, Workload, WORKERS};

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    manifest: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 7,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        smoke: false,
        manifest: false,
    };
    let mut seconds_given = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--repeat" => {
                cli.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                cli.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => cli.smoke = true,
            "--manifest" => cli.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0) || cli.repeat == 0 {
        return Err(String::from("--seconds and --repeat must be positive"));
    }
    if cli.smoke && !seconds_given {
        cli.seconds = 1.0;
    }
    Ok(cli)
}

/// Where result and trace files go: `out/` beside this crate's `run.sh`,
/// which exports the path; `benchmark/out` under the working directory
/// otherwise.
fn out_dir() -> PathBuf {
    let dir = std::env::var_os("VQC_BENCHMARK_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from);
    if let Err(error) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {error}", dir.display());
    }
    dir
}

/// One reported number with what is known about its samples.
#[derive(Debug, Clone, Copy)]
struct Reported {
    value: f64,
    summary: Option<Summary>,
}

impl Reported {
    fn single(value: f64) -> Reported {
        Reported {
            value,
            summary: None,
        }
    }

    /// The quiet decile of a run's per-window samples.
    fn quiet_of(samples: &[f64], lower_is_better: bool) -> Reported {
        Reported {
            value: stats::quiet(samples, lower_is_better),
            summary: Some(Summary::of(samples)),
        }
    }
}

type Metrics = BTreeMap<&'static str, Reported>;

fn end_to_end(tally: &Tally) -> Metrics {
    let millis: Vec<f64> = tally.all_latencies().iter().map(|s| s * 1e3).collect();
    Metrics::from([
        ("setup_s", Reported::quiet_of(&tally.setup_s, true)),
        (
            "compile_wall_s",
            Reported::quiet_of(&tally.pass_wall_s, true),
        ),
        (
            "op_latency_p50_ms",
            Reported {
                value: tally.latency_p50_ms(),
                // For orientation: the quartiles of all ops pooled.
                summary: Some(Summary::of(&millis)),
            },
        ),
        ("ops_per_s", Reported::quiet_of(&tally.rate_per_s, false)),
        (
            "pulse_speedup_geomean",
            Reported::single(stats::geomean(tally.speedups.iter().copied())),
        ),
    ])
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run: counts of the traced pass, the
/// runtime's own view, the spans' per-layer rows and the micro-measurements.
fn per_layer<W: Workload>(
    workload: &W,
    untraced: &Tally,
    traced: &Tally,
    recorder: &Recorder,
    micro: BTreeMap<&'static str, f64>,
) -> Metrics {
    let mut m: BTreeMap<&'static str, f64> = micro;
    let counts = traced.counts;
    m.insert("core.blocks_planned", counts.blocks_planned as f64);
    m.insert("core.grape_blocks", counts.grape_blocks as f64);
    m.insert("core.cache_hits", counts.cache_hits as f64);
    m.insert("core.cache_misses", counts.cache_misses as f64);
    m.insert("pulse.grape_iterations", counts.grape_iterations as f64);
    m.insert(
        "pulse.iters_per_grape_block",
        ratio(counts.grape_iterations as f64, counts.grape_blocks as f64),
    );
    m.insert(
        "pulse.unconverged_share",
        ratio(counts.unconverged as f64, counts.grape_candidates as f64),
    );
    let warm = workload.warm_start();
    m.insert(
        "pulse.seeded_iteration_share",
        ratio(
            warm.seeded_iterations as f64,
            (warm.seeded_iterations + warm.cold_iterations) as f64,
        ),
    );
    m.insert(
        "pulse.table_hit_ratio",
        ratio(
            warm.table_hits as f64,
            (warm.table_hits + warm.table_misses) as f64,
        ),
    );
    m.insert(
        "pulse.memo_hit_ratio",
        ratio(
            warm.memo_hits as f64,
            (warm.memo_hits + warm.memo_misses) as f64,
        ),
    );

    let view = workload.runtime().map(RuntimeView::of).unwrap_or_default();
    m.insert("runtime.queue_wait_p50_us", view.queue_wait_p50_us);
    m.insert("runtime.queue_wait_p99_us", view.queue_wait_p99_us);
    m.insert("runtime.cache_hit_ratio", view.cache_hit_ratio);
    m.insert("runtime.evictions", view.evictions);
    m.insert("runtime.unique_compilations", view.unique_compilations);
    m.insert("runtime.coalesced_waits", view.coalesced_waits);
    m.insert("runtime.op_latency_p90_ms", untraced.latency_tail_ms(0.9));
    m.insert("runtime.op_latency_p99_ms", untraced.latency_tail_ms(0.99));
    // The sequential workload has one thread to keep busy, the others a pool.
    let threads = if workload.runtime().is_some() {
        WORKERS
    } else {
        1
    };
    m.insert(
        "runtime.worker_busy_share",
        ratio(
            untraced.counts.busy_seconds,
            threads as f64 * untraced.wall_s,
        ),
    );
    m.insert(
        "runtime.background_ops_per_s",
        ratio(untraced.background_ops as f64, untraced.wall_s),
    );
    m.insert(
        "runtime.failed_share",
        ratio(
            (untraced.failed + traced.failed) as f64,
            (untraced.attempted + traced.attempted) as f64,
        ),
    );

    m.insert("trace.ops", traced.ops as f64);
    m.insert(
        "trace.overhead_ratio",
        ratio(
            ratio(traced.wall_s, traced.ops as f64),
            ratio(untraced.wall_s, untraced.ops as f64),
        ),
    );
    let rows = span::layer_rows(recorder.spans());
    for metric in manifest::PER_LAYER {
        if let Some(layer) = metric.name.strip_prefix("trace.self_share.") {
            m.insert(
                metric.name,
                rows.get(layer).map_or(0.0, |row| row.self_share),
            );
        } else if let Some(layer) = metric.name.strip_prefix("trace.busy_ms.") {
            m.insert(
                metric.name,
                rows.get(layer).map_or(0.0, |row| row.busy_us / 1e3),
            );
        }
    }
    println!("layer       calls     busy_ms     self_ms  self_share");
    for (layer, row) in &rows {
        println!(
            "{layer:<10} {:>6} {:>11.3} {:>11.3} {:>10.4}",
            row.calls,
            row.busy_us / 1e3,
            row.self_us / 1e3,
            row.self_share
        );
    }
    m.into_iter()
        .map(|(k, v)| (k, Reported::single(v)))
        .collect()
}

/// Spans a trace file holds at most (children follow their parents, so a
/// prefix is a valid trace).
const TRACE_FILE_SPANS: usize = 20_000;

/// What one run of one workload produced.
struct Outcome {
    metrics: Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
}

fn run<W: Workload>(plan: &Plan, trace: bool, out: &Path) -> Outcome {
    let _awake = host::KeepAwake::start();
    if !trace {
        let mut tally = Tally::default();
        let started = Instant::now();
        let mut workload = W::setup(plan);
        tally.setup_s.push(started.elapsed().as_secs_f64());
        workload.measure(plan.seconds, &mut tally);
        workload.check(&mut tally);
        drop(workload);
        workloads::setup_again::<W>(plan, &mut tally.setup_s);
        for (label, samples) in &tally.latency_s {
            println!(
                "latency {label} samples={} windows={} p50_ms={} whole_run_p50_ms={}",
                samples.len(),
                stats::windows(samples, tally.latency_window).count(),
                1e3 * tally.quiet_median_s(samples),
                1e3 * stats::median(samples)
            );
        }
        return Outcome {
            metrics: end_to_end(&tally),
            correct: tally.failed == 0,
            attempted: tally.attempted,
            failed: tally.failed,
        };
    }

    // A traced run: one set-up, an untraced stretch to compare against, the
    // traced pass, then the per-layer micro-measurements.
    let mut workload = W::setup(plan);
    let (mut untraced, mut traced) = (Tally::default(), Tally::default());
    workload.measure(plan.seconds / 3.0, &mut untraced);
    workload.check(&mut untraced);
    let mut recorder = Recorder::new();
    vqc_core::profile::set_armed(true);
    workload.traced_pass(plan.seconds / 3.0, &mut recorder, &mut traced);
    vqc_core::profile::set_armed(false);
    // One set-up and both passes, before the micro-measurements add theirs.
    let peak_rss_mb = host::peak_rss_mb();
    let mut correct = untraced.failed + traced.failed == 0;
    let micro = layers::measure(plan.seed, plan.smoke, out, &mut correct);
    let mut metrics = per_layer(&workload, &untraced, &traced, &recorder, micro);
    metrics.insert("runtime.peak_rss_mb", Reported::single(peak_rss_mb));
    drop(workload);
    // The layer rows above cover every span; the file keeps the first ones,
    // which is as much as a trace viewer opens comfortably.
    let spans = recorder.spans();
    let kept = &spans[..spans.len().min(TRACE_FILE_SPANS)];
    let trace_file = out.join(format!("trace-{}.json", W::NAME));
    match std::fs::write(&trace_file, span::chrome_trace_json(kept)) {
        Ok(()) => println!(
            "trace {} (first {} of {} spans)",
            trace_file.display(),
            kept.len(),
            spans.len()
        ),
        Err(error) => eprintln!("cannot write {}: {error}", trace_file.display()),
    }
    Outcome {
        metrics,
        correct,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
    }
}

/// Runs one workload in this process: prints its metrics, writes its result
/// file, and ends with the result line.
fn run_workload(cli: &Cli, name: &str) -> ExitCode {
    let plan = Plan {
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
    };
    let out = out_dir();
    println!(
        "workload {name} seed {} seconds {} trace {} workers {WORKERS}",
        cli.seed, cli.seconds, cli.trace as u8
    );
    let outcome = match name {
        ColdPrecompute::NAME => run::<ColdPrecompute>(&plan, cli.trace, &out),
        FullGrapeLoop::NAME => run::<FullGrapeLoop>(&plan, cli.trace, &out),
        WarmLoop::NAME => run::<WarmLoop>(&plan, cli.trace, &out),
        WireMixed::NAME => run::<WireMixed>(&plan, cli.trace, &out),
        other => {
            eprintln!("unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let expected: &[manifest::Metric] = if cli.trace {
        &manifest::PER_LAYER
    } else {
        &manifest::END_TO_END
    };
    let mut correct = outcome.correct;
    let mut result_metrics = Vec::new();
    let mut file_metrics = Vec::new();
    for metric in expected {
        let Some(reported) = outcome.metrics.get(metric.name) else {
            eprintln!("metric {} was not measured", metric.name);
            correct = false;
            continue;
        };
        // End-to-end metrics are never zero; a layer's count may be.
        let valid = reported.value.is_finite() && (cli.trace || reported.value > 0.0);
        if !valid {
            eprintln!("metric {} has the value {}", metric.name, reported.value);
            correct = false;
        }
        let mut line = format!("metric {} {} {}", metric.name, reported.value, metric.unit);
        let mut fields = vec![
            ("value", Json::Num(reported.value)),
            ("unit", Json::str(metric.unit)),
        ];
        // The result line carries value and unit; the file adds the samples.
        result_metrics.push((metric.name, Json::object(fields.clone())));
        if let Some(s) = reported.summary {
            line.push_str(&format!(
                " samples={} q1={} median={} q3={}",
                s.samples, s.q1, s.median, s.q3
            ));
            fields.extend([
                ("samples", Json::Num(s.samples as f64)),
                ("q1", Json::Num(s.q1)),
                ("median", Json::Num(s.median)),
                ("q3", Json::Num(s.q3)),
            ]);
        }
        println!("{line}");
        file_metrics.push((metric.name, Json::object(fields)));
    }

    let result = |metrics: Vec<(&str, Json)>| {
        vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", Json::object(metrics)),
        ]
    };
    let mut file = vec![
        ("workload", Json::str(name)),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("trace", Json::Bool(cli.trace)),
        ("smoke", Json::Bool(cli.smoke)),
        ("workers", Json::Num(WORKERS as f64)),
        ("host", host::facts()),
    ];
    file.extend(result(file_metrics));
    let path = out.join(format!("result-{name}-trace{}.json", cli.trace as u8));
    if let Err(error) = std::fs::write(&path, Json::object(file).pretty()) {
        eprintln!("cannot write {}: {error}", path.display());
    }
    println!("{}", Json::object(result(result_metrics)).compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `metric <name> <value> <unit>` lines of a child's output, or `None`
/// if it did not end with a result line saying `"correct":true`.
fn parse_child(stdout: &str) -> Option<BTreeMap<String, f64>> {
    let last = stdout.lines().last()?;
    if !last.starts_with("{\"correct\":true") {
        return None;
    }
    let metrics = stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix("metric ")?.split_whitespace();
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect();
    Some(metrics)
}

/// Runs the whole set, each workload in a process of its own, `repeat` times
/// back to back; with two or more sets, prints per (metric, workload) the
/// sets' values, the gap between the first and the last as a share of the
/// first in the metric's worse direction, and the bound it has to stay in.
fn run_suite(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("cannot find this executable: {error}");
            return ExitCode::FAILURE;
        }
    };
    let child = |workload: &str, trace: bool| -> Option<BTreeMap<String, f64>> {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", workload])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if cli.smoke {
            command.arg("--smoke");
        }
        let output = command.output().ok()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let metrics = parse_child(&stdout).filter(|_| output.status.success())?;
        let expected: &[manifest::Metric] = if trace {
            &manifest::PER_LAYER
        } else {
            &manifest::END_TO_END
        };
        let complete = expected
            .iter()
            .all(|m| metrics.get(m.name).is_some_and(|v| v.is_finite()));
        complete.then_some(metrics)
    };

    let mut ok = true;
    let mut sets: Vec<BTreeMap<(String, &str), f64>> = Vec::new();
    for set in 0..cli.repeat {
        println!("=== set {} of {} ===", set + 1, cli.repeat);
        let mut values = BTreeMap::new();
        for (workload, _) in manifest::WORKLOADS {
            match child(workload, false) {
                Some(metrics) => {
                    values.extend(metrics.into_iter().map(|(k, v)| ((k, workload), v)))
                }
                None => {
                    eprintln!("{workload}: the untraced run failed or left a metric out");
                    ok = false;
                }
            }
            if cli.trace && child(workload, true).is_none() {
                eprintln!("{workload}: the traced run failed or left a metric out");
                ok = false;
            }
        }
        sets.push(values);
    }

    if let [first, .., last] = sets.as_slice() {
        println!("=== repeat: first and last set, gap in the worse direction, bound ===");
        for metric in manifest::END_TO_END {
            for (workload, _) in manifest::WORKLOADS {
                let key = (metric.name.to_string(), workload);
                let (Some(a), Some(b)) = (first.get(&key), last.get(&key)) else {
                    continue;
                };
                let worsening = if metric.better == "lower" {
                    b - a
                } else {
                    a - b
                } / a.abs();
                let bound = metric.bound.unwrap_or(0.0);
                let verdict = if worsening > bound {
                    "EXCEEDS"
                } else {
                    "within"
                };
                println!(
                    "{:<22} {:<16} {a:>12.5} {b:>12.5} {:>+8.4} {bound:>5.2} {verdict}",
                    metric.name, workload, worsening
                );
                ok &= worsening <= bound;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("{error}");
            return ExitCode::from(2);
        }
    };
    if cli.manifest {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match cli.workload.clone() {
        Some(name) => run_workload(&cli, &name),
        None => run_suite(&cli),
    }
}
