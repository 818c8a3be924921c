//! `vqc-serve` — run the compilation service as a TCP server.
//!
//! ```text
//! vqc-serve [ADDRESS]
//! ```
//!
//! `ADDRESS` (or `VQC_LISTEN`, default `127.0.0.1:7878`) is the listen
//! address. The runtime behind the listener honors the usual knobs:
//! `VQC_WORKERS`, `VQC_QUEUE_DEPTH` (a connection whose submit finds the queue
//! full reads no further requests until it is admitted), and — a server keeps
//! every fresh-θ block it ever compiles — `VQC_CACHE_BLOCKS` (entries of each
//! kind per pulse-store shard, default unbounded); the transport adds
//! `VQC_MAX_FRAME` (frame-size bound in bytes) and `VQC_MAX_CONNS`
//! (simultaneous connections). Telemetry is always on; watch it live with
//! `vqc-top`, which sends a `Stats` request once a second, and journal a run with
//! `vqc-top --json > run.jsonl`. `VQC_EFFORT`
//! (`fast` — the default, `standard`, `full`) picks the GRAPE effort;
//! `VQC_SNAPSHOT` names a cache snapshot to warm-start from and to write back
//! on graceful shutdown.
//!
//! The server runs until a client sends the `Shutdown` request (see
//! `vqc-submit --shutdown`) or the process is killed; shutdown drains every
//! admitted submission first.

use std::sync::Arc;
use vqc_core::CompilerOptions;
use vqc_runtime::{CompilationRuntime, RuntimeOptions};
use vqc_transport::{Server, ServerOptions, DEFAULT_LISTEN};

fn compiler_options() -> CompilerOptions {
    match std::env::var("VQC_EFFORT")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "full" | "paper" => CompilerOptions::paper(),
        "standard" | "std" => CompilerOptions::standard(),
        _ => CompilerOptions::fast(),
    }
}

fn main() {
    let addr = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("VQC_LISTEN").ok())
        .unwrap_or_else(|| DEFAULT_LISTEN.to_string());
    let snapshot = std::env::var("VQC_SNAPSHOT").ok();
    let runtime_options = RuntimeOptions::default();
    let runtime = match &snapshot {
        Some(path) if std::path::Path::new(path).exists() => {
            match CompilationRuntime::with_warm_start(compiler_options(), runtime_options, path) {
                Ok(runtime) => {
                    eprintln!("vqc-serve: warm-started cache from {path}");
                    runtime
                }
                Err(error) => {
                    eprintln!("vqc-serve: ignoring unreadable snapshot {path}: {error}");
                    CompilationRuntime::new(compiler_options(), RuntimeOptions::default())
                }
            }
        }
        _ => CompilationRuntime::new(compiler_options(), runtime_options),
    };
    let runtime = Arc::new(runtime);

    let server = match Server::bind(&addr, Arc::clone(&runtime), ServerOptions::default()) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("vqc-serve: cannot bind {addr}: {error}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "vqc-serve: listening on {} ({} workers); send the Shutdown request to stop",
        server.local_addr(),
        runtime.workers(),
    );
    server.wait();

    let metrics = runtime.metrics();
    eprintln!(
        "vqc-serve: drained; {} submissions, {} unique compilations, {} cache hits, {} canceled",
        metrics.submissions,
        metrics.unique_compilations,
        metrics.cache.hits,
        metrics.canceled_submissions,
    );
    for (client, slice) in runtime.client_metrics_snapshot() {
        eprintln!(
            "vqc-serve:   client {client}: {} submitted, {} compiled, {} hits, {:.3}s queued",
            slice.submissions, slice.compilations, slice.cache_hits, slice.queue_seconds,
        );
    }
    if let Some(path) = snapshot {
        match runtime.save_snapshot(&path) {
            Ok(()) => eprintln!("vqc-serve: cache snapshot written to {path}"),
            Err(error) => eprintln!("vqc-serve: snapshot write failed: {error}"),
        }
    }
}
