//! `vqc-submit` — submit a compilation workload to a running `vqc-serve`.
//!
//! ```text
//! vqc-submit [ADDRESS] [--iterations=N] [--priority=low|normal|high]
//!            [--seed=S] [--stats] [--trace-out[=PATH]] [--shutdown]
//! ```
//!
//! Connects to `ADDRESS` (or `VQC_LISTEN`, default `127.0.0.1:7878`), submits
//! a QAOA MAXCUT variational workload — one 3-regular-graph circuit at
//! `--iterations` parameter bindings, the paper's repeated-block shape — and
//! streams completion events as the server's workers finish each iteration.
//! `--stats` additionally prints the server's totals, from the snapshot a
//! `Stats` request returns, and this client's slice; `--shutdown` asks the
//! server to drain and stop after the workload.
//!
//! `--trace-out[=PATH]` turns the run into a cross-process causal trace: the
//! submission carries a client-assigned trace id, the client stamps its own
//! submit/await spans locally, fetches the server's lifecycle trace after the
//! report, and merges both — server timestamps mapped onto the client's clock
//! via the handshake's offset estimate — into one Chrome `trace_event` JSON
//! file with the transport's one renderer, `merged_chrome_trace` (default
//! `vqc-causal-trace.json`, load at `chrome://tracing` or
//! <https://ui.perfetto.dev>).

use vqc_apps::graphs::Graph;
use vqc_apps::qaoa::qaoa_circuit;
use vqc_core::Strategy;
use vqc_runtime::Priority;
use vqc_transport::{
    merged_chrome_trace, Client, ClientOptions, ClientSpan, JobEvent, JobUpdate, RemoteError,
    SubmitPayload, DEFAULT_LISTEN,
};

struct Args {
    addr: String,
    iterations: usize,
    priority: Priority,
    seed: u64,
    stats: bool,
    trace_out: Option<String>,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: std::env::var("VQC_LISTEN").unwrap_or_else(|_| DEFAULT_LISTEN.to_string()),
        iterations: 3,
        priority: Priority::NORMAL,
        seed: 20,
        stats: false,
        trace_out: None,
        shutdown: false,
    };
    for arg in std::env::args().skip(1) {
        if let Some(value) = arg.strip_prefix("--iterations=") {
            args.iterations = value
                .parse()
                .map_err(|_| format!("bad --iterations value `{value}`"))?;
        } else if let Some(value) = arg.strip_prefix("--priority=") {
            args.priority = match value {
                "low" => Priority::LOW,
                "normal" => Priority::NORMAL,
                "high" => Priority::HIGH,
                other => return Err(format!("bad --priority value `{other}`")),
            };
        } else if let Some(value) = arg.strip_prefix("--seed=") {
            args.seed = value
                .parse()
                .map_err(|_| format!("bad --seed value `{value}`"))?;
        } else if arg == "--stats" {
            args.stats = true;
        } else if arg == "--trace-out" {
            args.trace_out = Some(String::from("vqc-causal-trace.json"));
        } else if let Some(path) = arg.strip_prefix("--trace-out=") {
            args.trace_out = Some(path.to_string());
        } else if arg == "--shutdown" {
            args.shutdown = true;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            args.addr = arg;
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), RemoteError> {
    let client = Client::connect(
        &args.addr as &str,
        ClientOptions::default()
            .with_name("vqc-submit")
            .with_priority(args.priority),
    )?;
    eprintln!(
        "vqc-submit: connected to {} as client {}",
        args.addr,
        client.client_id()
    );

    // The trace id rides the Submit frame so the server's lifecycle events can
    // be correlated with this process; the process id is unique enough for a
    // single causal-trace capture.
    let trace_id = u64::from(std::process::id());
    let mut client_spans: Vec<ClientSpan> = Vec::new();

    if args.iterations > 0 {
        let graph = Graph::three_regular(6, args.seed)
            .map_err(|e| RemoteError::Protocol(format!("graph generation failed: {e}")))?;
        let circuit = qaoa_circuit(&graph, 1);
        let parameter_sets: Vec<Vec<f64>> = (0..args.iterations)
            .map(|i| vec![0.35 + 0.11 * i as f64, 0.80 - 0.07 * i as f64])
            .collect();
        let payload = SubmitPayload::Iterations {
            circuit,
            parameter_sets,
            strategy: Strategy::StrictPartial,
        };
        let submit_micros = client.now_micros();
        let job = if args.trace_out.is_some() {
            client.submit_traced(payload, None, Some(trace_id))?
        } else {
            client.submit(payload)?
        };
        client_spans.push(ClientSpan {
            name: String::from("submit"),
            micros: submit_micros,
            span_micros: 0,
        });
        loop {
            match job.next_update()? {
                JobUpdate::Event(JobEvent::Admitted { jobs }) => {
                    eprintln!("vqc-submit: admitted ({jobs} iterations)")
                }
                JobUpdate::Event(JobEvent::JobDone {
                    job,
                    ok,
                    pulse_duration_ns,
                }) => {
                    client_spans.push(ClientSpan {
                        name: format!("job-done-received-{job}"),
                        micros: client.now_micros(),
                        span_micros: 0,
                    });
                    if ok {
                        eprintln!(
                            "vqc-submit: iteration {job} done, pulse {pulse_duration_ns:.1} ns"
                        );
                    } else {
                        eprintln!("vqc-submit: iteration {job} failed");
                    }
                }
                JobUpdate::Event(event) => eprintln!("vqc-submit: event {event:?}"),
                JobUpdate::Report(results) => {
                    client_spans.push(ClientSpan {
                        name: String::from("await-report"),
                        micros: submit_micros,
                        span_micros: client.now_micros().saturating_sub(submit_micros).max(1),
                    });
                    let ok = results.iter().filter(|r| r.is_ok()).count();
                    eprintln!(
                        "vqc-submit: report — {ok}/{} iterations compiled",
                        results.len()
                    );
                    if let Some(Ok(report)) = results.first() {
                        eprintln!(
                            "vqc-submit: pulse {:.1} ns vs gate-based {:.1} ns ({:.2}x speedup), {} blocks",
                            report.pulse_duration_ns,
                            report.gate_based_duration_ns,
                            report.pulse_speedup(),
                            report.num_blocks,
                        );
                    }
                    break;
                }
                JobUpdate::Rejected(reason) => {
                    eprintln!("vqc-submit: rejected — {reason}");
                    break;
                }
            }
        }
    }

    if let Some(path) = &args.trace_out {
        let events = client.trace()?;
        let offset = client.clock_offset_micros();
        let json = merged_chrome_trace(&client_spans, &events, offset);
        std::fs::write(path, &json)
            .map_err(|e| RemoteError::Protocol(format!("cannot write trace file {path}: {e}")))?;
        eprintln!(
            "vqc-submit: wrote merged causal trace to {path} ({} server events, trace id {trace_id}, clock offset {offset}µs)",
            events.len(),
        );
    }

    if args.stats {
        let stats = client.stats()?;
        let totals = &stats.snapshot.runtime;
        eprintln!(
            "vqc-submit: server totals — {} submissions, {} unique compilations, {} hits / {} misses, {} coalesced",
            totals.submissions,
            totals.unique_compilations,
            totals.cache.hits,
            totals.cache.misses,
            totals.coalesced_waits,
        );
        eprintln!(
            "vqc-submit: this client — {} submitted, {} compiled, {} hits, {} coalesced, {:.3}s queued",
            stats.client.submissions,
            stats.client.compilations,
            stats.client.cache_hits,
            stats.client.coalesced_waits,
            stats.client.queue_seconds,
        );
    }
    if args.shutdown {
        eprintln!("vqc-submit: requesting server shutdown");
        client.shutdown_server()?;
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("vqc-submit: {message}");
            eprintln!(
                "usage: vqc-submit [ADDRESS] [--iterations=N] [--priority=low|normal|high] [--seed=S] [--stats] [--trace-out[=PATH]] [--shutdown]"
            );
            std::process::exit(2);
        }
    };
    if let Err(error) = run(&args) {
        eprintln!("vqc-submit: {error}");
        std::process::exit(1);
    }
}
