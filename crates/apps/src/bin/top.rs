//! `vqc-top` — live dashboard over a running `vqc-serve`.
//!
//! ```text
//! vqc-top [ADDRESS] [--once] [--json] [--dump-trace[=PATH]]
//! ```
//!
//! Connects to `ADDRESS` (or `VQC_LISTEN`, default `127.0.0.1:7878`), sends
//! the `Stats` request once a second, and redraws a plain-ANSI dashboard
//! from the snapshot in each answer: worker utilization, queue depth, cache
//! hit ratio, per-class latency percentiles, and the newest lifecycle events
//! (a `Trace` request for the last `EVENT_TAIL`, not the whole ring). The
//! server assembles each snapshot when the request arrives.
//!
//! `--once` renders a single snapshot and exits (CI smoke tests); `--json`
//! prints each snapshot as one JSON line instead of the dashboard — the
//! metrics journal `vqc-report` reads (`vqc-top --json > run.jsonl` records a
//! run, `vqc-top --once --json >> run.jsonl` appends one snapshot);
//! `--dump-trace[=PATH]` skips the dashboard entirely, fetches the server's
//! lifecycle trace ring, and writes it as Chrome `trace_event` JSON through
//! the transport's one renderer, `merged_chrome_trace`, with no client spans
//! (load it at `chrome://tracing` or <https://ui.perfetto.dev>) — default
//! path `vqc-trace.json`.

use std::time::Duration;
use vqc_apps::metrics_text::{latency_table, phase_table, utilization_bar};
use vqc_runtime::{MetricsSnapshot, TraceEvent, TraceStage};
use vqc_transport::wire::FrameError;
use vqc_transport::{merged_chrome_trace, Client, ClientOptions, RemoteError, DEFAULT_LISTEN};

/// How often the dashboard asks the server for a fresh snapshot.
const POLL_INTERVAL: Duration = Duration::from_secs(1);

/// How many of the newest lifecycle events the dashboard draws.
const EVENT_TAIL: usize = 8;

struct Args {
    addr: String,
    once: bool,
    json: bool,
    dump_trace: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: std::env::var("VQC_LISTEN").unwrap_or_else(|_| DEFAULT_LISTEN.to_string()),
        once: false,
        json: false,
        dump_trace: None,
    };
    for arg in std::env::args().skip(1) {
        if arg == "--once" {
            args.once = true;
        } else if arg == "--json" {
            args.json = true;
        } else if arg == "--dump-trace" {
            args.dump_trace = Some(String::from("vqc-trace.json"));
        } else if let Some(path) = arg.strip_prefix("--dump-trace=") {
            args.dump_trace = Some(path.to_string());
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            args.addr = arg;
        }
    }
    Ok(args)
}

/// One-character severity glyph for the event tail. The match is exhaustive on
/// purpose — `vqc-audit`'s `trace_stage` lint checks that every [`TraceStage`]
/// variant is handled here, so a new lifecycle stage cannot silently render as
/// a blank column.
fn stage_glyph(stage: TraceStage) -> char {
    match stage {
        TraceStage::Submitted => '+',
        TraceStage::Admitted => '>',
        TraceStage::Dispatched => '~',
        TraceStage::CompileStart => 'c',
        TraceStage::CacheHit => '=',
        TraceStage::Compiled => 'C',
        TraceStage::JobDone => 'j',
        TraceStage::Report => 'R',
        TraceStage::Canceled => 'x',
        TraceStage::LockHold => 'L',
        TraceStage::Phase => 'p',
    }
}

fn render(addr: &str, snapshot: &MetricsSnapshot, events: &[TraceEvent]) -> String {
    let runtime = &snapshot.runtime;
    let mut out = String::new();
    out.push_str(&format!(
        "vqc-top — {addr}   uptime {:.1}s   snapshot #{}\n\n",
        snapshot.uptime_seconds, snapshot.seq
    ));
    out.push_str(&format!(
        "workers   {:>2}/{:<2} busy [{}] {:>5.1}%\n",
        snapshot.busy_workers,
        runtime.workers,
        utilization_bar(snapshot.worker_utilization(), 24),
        snapshot.worker_utilization() * 100.0,
    ));
    out.push_str(&format!(
        "queue     {} outstanding   {} ready tasks\n",
        snapshot.outstanding, snapshot.ready_tasks,
    ));
    out.push_str(&format!(
        "submits   {} total   {} completed   {} canceled\n",
        runtime.submissions, runtime.completed_submissions, runtime.canceled_submissions,
    ));
    out.push_str(&format!(
        "cache     {:.1}% hits ({}/{})   {} entries   {} evictions   {} unique compiles   {} coalesced\n",
        snapshot.cache_hit_ratio() * 100.0,
        runtime.cache.hits,
        runtime.cache.hits + runtime.cache.misses,
        snapshot.cache_entries,
        runtime.cache.evictions,
        runtime.unique_compilations,
        runtime.coalesced_waits,
    ));
    let warm = &snapshot.warm_start;
    out.push_str(&format!(
        "seeding   {} table hits / {} misses   {} seeds   {} seeded / {} cold iters\n\n",
        warm.table_hits,
        warm.table_misses,
        snapshot.seed_entries,
        warm.seeded_iterations,
        warm.cold_iterations,
    ));

    out.push_str(&phase_table(snapshot, ""));
    out.push_str(&latency_table(snapshot, ""));

    if !events.is_empty() {
        out.push_str("\nrecent events");
        if snapshot.trace_dropped > 0 {
            out.push_str(&format!("   ({} older dropped)", snapshot.trace_dropped));
        }
        out.push('\n');
        for event in events {
            out.push_str(&format!(
                "  {:>12.3}ms {} sub {:<4} {:<13} {}\n",
                event.micros as f64 / 1e3,
                stage_glyph(event.stage),
                event.submission,
                event.stage.name(),
                match event.client {
                    Some(client) => format!("client {client}"),
                    None => String::new(),
                },
            ));
        }
    }
    out
}

fn dump_trace(client: &Client, path: &str) -> Result<(), RemoteError> {
    let events = client.trace()?;
    let json = merged_chrome_trace(&[], &events, 0);
    std::fs::write(path, &json)
        .map_err(|e| RemoteError::Protocol(format!("cannot write trace file {path}: {e}")))?;
    eprintln!("vqc-top: wrote {} trace events to {path}", events.len());
    Ok(())
}

fn run(args: &Args) -> Result<(), RemoteError> {
    let client = Client::connect(
        &args.addr as &str,
        ClientOptions::default().with_name("vqc-top"),
    )?;

    if let Some(path) = &args.dump_trace {
        return dump_trace(&client, path);
    }

    loop {
        let snapshot = match client.stats() {
            Ok(stats) => stats.snapshot,
            // The server shut down: there is nothing more to show. A poll
            // written into a connection the server just closed fails with an
            // I/O error rather than `Disconnected`; that is the same ending.
            Err(RemoteError::Disconnected | RemoteError::Frame(FrameError::Io(_))) => return Ok(()),
            Err(error) => return Err(error),
        };
        if args.json {
            println!("{}", snapshot.to_json_line());
        } else {
            // Lifecycle tail for the dashboard; best-effort (an empty list is
            // rendered as no section, and a server without telemetry returns
            // an empty ring anyway).
            let events = client.trace_newest(EVENT_TAIL).unwrap_or_default();
            if !args.once {
                // Home the cursor and clear: a plain-ANSI refresh, no TUI.
                print!("\x1b[H\x1b[2J");
            }
            print!("{}", render(&args.addr, &snapshot, &events));
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        if args.once {
            return Ok(());
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("vqc-top: {message}");
            eprintln!("usage: vqc-top [ADDRESS] [--once] [--json] [--dump-trace[=PATH]]");
            std::process::exit(2);
        }
    };
    if let Err(error) = run(&args) {
        eprintln!("vqc-top: {error}");
        std::process::exit(1);
    }
}
