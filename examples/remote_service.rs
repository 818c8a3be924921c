//! The compilation service over the network: an in-process `Server` on a
//! loopback port, two TCP clients at different priorities submitting
//! overlapping QAOA workloads, streamed completion events, and per-client
//! fairness metrics read back over the wire.
//!
//! This is the library form of what the `vqc-serve` / `vqc-submit` binaries do
//! across processes. Run with `cargo run --release --example remote_service`.

use std::sync::Arc;
use vqc::apps::graphs::Graph;
use vqc::apps::qaoa::qaoa_circuit;
use vqc::core::{CompilerOptions, Strategy};
use vqc::runtime::{CompilationRuntime, Priority, RuntimeOptions};
use vqc::transport::{
    Client, ClientOptions, JobEvent, JobUpdate, Server, ServerOptions, SubmitPayload,
};

fn main() {
    // The server side: a shared runtime behind a TCP listener (port 0 = pick an
    // ephemeral port; a real deployment would bind VQC_LISTEN).
    let runtime = Arc::new(CompilationRuntime::new(
        CompilerOptions::fast(),
        RuntimeOptions::default(),
    ));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&runtime),
        ServerOptions::default(),
    )
    .expect("bind a loopback port");
    let addr = server.local_addr();
    println!("serving the compilation service on {addr}");

    // Two remote clients: an interactive one at high priority and a batch one
    // at low priority. Each connection is mapped to its own service client id,
    // so fair-share scheduling and per-client metrics distinguish them.
    let graph = Graph::three_regular(6, 7).expect("3-regular graphs exist on 6 nodes");
    let circuit = qaoa_circuit(&graph, 1);
    let interactive = Client::connect(
        addr,
        ClientOptions::default()
            .with_name("interactive")
            .with_priority(Priority::HIGH),
    )
    .expect("connect");
    let batch = Client::connect(
        addr,
        ClientOptions::default()
            .with_name("batch")
            .with_priority(Priority::LOW),
    )
    .expect("connect");

    let bindings = |offset: f64| -> Vec<Vec<f64>> {
        (0..3)
            .map(|i| vec![0.35 + 0.11 * i as f64 + offset, 0.80 - 0.07 * i as f64])
            .collect()
    };
    let batch_job = batch
        .submit(SubmitPayload::Iterations {
            circuit: circuit.clone(),
            parameter_sets: bindings(0.01),
            strategy: Strategy::StrictPartial,
        })
        .expect("submit");
    let interactive_job = interactive
        .submit(SubmitPayload::Iterations {
            circuit,
            parameter_sets: bindings(0.0),
            strategy: Strategy::StrictPartial,
        })
        .expect("submit");

    // Completion events stream per iteration as the worker pool finishes
    // blocks — the interactive client sees progress, not just a final answer.
    loop {
        match interactive_job.next_update().expect("connected") {
            JobUpdate::Event(JobEvent::JobDone {
                job,
                pulse_duration_ns,
                ..
            }) => println!("interactive: iteration {job} done ({pulse_duration_ns:.1} ns)"),
            JobUpdate::Event(_) => continue,
            JobUpdate::Report(results) => {
                println!(
                    "interactive: {} iterations compiled",
                    results.iter().filter(|r| r.is_ok()).count()
                );
                break;
            }
            JobUpdate::Rejected(reason) => {
                println!("interactive: rejected — {reason}");
                break;
            }
        }
    }
    let batch_results = batch_job.wait().expect("not rejected");
    println!(
        "batch: {} iterations compiled",
        batch_results.iter().filter(|r| r.is_ok()).count()
    );

    // Fairness is observable over the wire: each client reads its own slice of
    // the runtime counters (plus a snapshot of the whole service) with a Stats
    // request.
    for (name, client) in [("interactive", &interactive), ("batch", &batch)] {
        let stats = client.stats().expect("stats");
        println!(
            "{name}: client {} — {} compiled, {} cache hits, {} coalesced, {:.4}s queued",
            client.client_id(),
            stats.client.compilations,
            stats.client.cache_hits,
            stats.client.coalesced_waits,
            stats.client.queue_seconds,
        );
    }
    let totals = interactive.stats().expect("stats").snapshot.runtime;
    println!(
        "global: {} unique compilations for {} submissions ({} hits, {} coalesced)",
        totals.unique_compilations, totals.submissions, totals.cache.hits, totals.coalesced_waits
    );
    // Dropping the Server drains and stops it; dropping a Client mid-job would
    // instead cancel that client's outstanding submissions server-side.
}
