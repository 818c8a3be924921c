//! Loopback integration tests of the TCP transport: concurrent remote clients
//! share the scheduler (exactly-once compilation, priority ordering, per-client
//! stats), disconnects cancel in-flight work and free queue capacity, and
//! protocol faults (malformed frames, oversized frames, version mismatches)
//! are contained to the offending connection.

use std::collections::HashSet;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqc_circuit::Circuit;
use vqc_core::{CompilerOptions, Strategy};
use vqc_runtime::{ClientMetrics, CompilationRuntime, Priority, RuntimeOptions, TraceStage};
use vqc_transport::{
    merged_chrome_trace, wire, Client, ClientOptions, ClientSpan, JobEvent, JobUpdate,
    RejectReason, RemoteError, RemoteJob, Request, Response, Server, ServerOptions, SubmitPayload,
    PROTOCOL_VERSION,
};

fn fast_options() -> CompilerOptions {
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 80;
    options.grape.target_infidelity = 5e-2;
    options.search_precision_ns = 2.0;
    options
}

/// A circuit that aggregates into exactly one Fixed 2-qubit GRAPE block.
fn one_block_circuit(phase: f64) -> Circuit {
    let mut circuit = Circuit::new(2);
    circuit.h(0);
    circuit.h(1);
    circuit.cx(0, 1);
    circuit.rx(0, phase);
    circuit.cx(0, 1);
    circuit
}

/// A 4-qubit circuit aggregating (at `max_block_width = 2`) into a shared
/// (0, 1) block identical for every phase and a private (2, 3) block.
fn shared_plus_private(private_phase: f64) -> Circuit {
    let mut circuit = Circuit::new(4);
    circuit.h(0);
    circuit.cx(0, 1);
    circuit.rx(0, 0.7);
    circuit.cx(0, 1);
    circuit.h(2);
    circuit.cx(2, 3);
    circuit.rx(2, private_phase);
    circuit.cx(2, 3);
    circuit
}

/// Three single-gate parameterized rotations: under strict partial
/// compilation every block is a lookup that resolves at expansion, so a
/// submission of it completes inside the server's `submit`.
fn lookup_only_circuit() -> Circuit {
    let mut circuit = Circuit::new(3);
    for qubit in 0..3 {
        circuit.rz_expr(qubit, vqc_circuit::ParamExpr::theta(qubit));
    }
    circuit
}

/// A raw connection past its handshake.
fn connect_raw(addr: SocketAddr, name: &str) -> TcpStream {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    wire::write_frame(
        &mut raw,
        &Request::Hello {
            protocol: PROTOCOL_VERSION,
            client_name: name.into(),
            priority: Priority::NORMAL.0,
            weight: 1.0,
            sent_micros: 0,
        },
        wire::DEFAULT_MAX_FRAME,
    )
    .unwrap();
    match wire::read_frame::<_, Response>(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap() {
        Response::Accepted { .. } => raw,
        other => panic!("expected Accepted, got {other:?}"),
    }
}

/// The names of this process's threads. Linux lists each in
/// `/proc/self/task/*/comm`.
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

fn serve(runtime: CompilationRuntime) -> (Server, Arc<CompilationRuntime>) {
    let runtime = Arc::new(runtime);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&runtime),
        ServerOptions::default(),
    )
    .expect("bind loopback");
    (server, runtime)
}

/// The acceptance scenario over real sockets: two TCP clients at different
/// priorities submit overlapping batches; the shared block compiles exactly
/// once, both get complete reports with identical shared-block pulses, and the
/// per-client `Stats` slices attribute the work correctly.
#[test]
fn two_remote_clients_share_blocks_exactly_once_with_priority_ordering() {
    let mut options = fast_options();
    options.max_block_width = 2;
    let (server, runtime) = serve(CompilationRuntime::new(
        options,
        RuntimeOptions::with_workers(1),
    ));
    runtime.pause();

    let low_client = Client::connect(
        server.local_addr(),
        ClientOptions::default()
            .with_name("low")
            .with_priority(Priority::LOW),
    )
    .unwrap();
    let high_client = Client::connect(
        server.local_addr(),
        ClientOptions::default()
            .with_name("high")
            .with_priority(Priority::HIGH),
    )
    .unwrap();
    assert_ne!(low_client.client_id(), high_client.client_id());

    let low_job = low_client
        .submit(SubmitPayload::Batch(vec![wire::WireJob {
            circuit: shared_plus_private(0.3),
            params: vec![],
            strategy: Strategy::StrictPartial,
        }]))
        .unwrap();
    // Let the low submission expand first so it owns the shared block's task
    // (the high client then coalesces and re-posts it at its own class).
    // `Admitted` goes out before expansion posts the tasks; a connection's
    // requests are served in order, so once `stats()` answers they are posted.
    match low_job.next_update().unwrap() {
        JobUpdate::Event(JobEvent::Admitted { jobs }) => assert_eq!(jobs, 1),
        other => panic!("expected Admitted, got {other:?}"),
    }
    assert_eq!(low_client.stats().unwrap().client.submissions, 1);
    let high_job = high_client
        .submit(SubmitPayload::Batch(vec![wire::WireJob {
            circuit: shared_plus_private(1.9),
            params: vec![],
            strategy: Strategy::StrictPartial,
        }]))
        .unwrap();
    // Both expanded into the paused ready queue, then dispatch.
    match high_job.next_update().unwrap() {
        JobUpdate::Event(JobEvent::Admitted { .. }) => {}
        other => panic!("expected Admitted, got {other:?}"),
    }
    assert_eq!(high_client.stats().unwrap().client.submissions, 1);
    runtime.resume();

    let low_reports = low_job.wait().unwrap();
    let high_reports = high_job.wait().unwrap();
    let low_report = low_reports[0].as_ref().unwrap();
    let high_report = high_reports[0].as_ref().unwrap();
    assert_eq!(low_report.num_blocks, 2);
    assert_eq!(high_report.num_blocks, 2);
    let shared_duration = |report: &vqc_core::CompilationReport| {
        report
            .blocks
            .iter()
            .find(|b| b.qubits == vec![0, 1])
            .map(|b| b.duration_ns)
            .expect("both plans contain the shared (0,1) block")
    };
    assert_eq!(shared_duration(low_report), shared_duration(high_report));

    // Exactly-once: three unique GRAPE compilations for four block requests.
    let metrics = runtime.metrics();
    assert_eq!(metrics.unique_compilations, 3);
    assert_eq!(metrics.coalesced_waits, 1);

    // Per-client observability over the wire: the low client led the shared
    // block and its own private block; the high client compiled only its
    // private block and was served the shared one by fan-out.
    let low_stats = low_client.stats().unwrap();
    let high_stats = high_client.stats().unwrap();
    assert_eq!(low_stats.client.submissions, 1);
    assert_eq!(low_stats.client.compilations, 2);
    assert_eq!(high_stats.client.compilations, 1);
    assert_eq!(high_stats.client.coalesced_waits, 1);
    assert_eq!(high_stats.client.cache_hits, 1);
    assert_eq!(low_stats.snapshot.runtime.unique_compilations, 3);
}

/// A client that disconnects mid-job has its submission canceled, which frees
/// its admission slot: another client's submit, parked on the full queue, is
/// admitted.
#[test]
fn disconnect_mid_job_cancels_and_frees_queue_capacity() {
    let (server, runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1).with_queue_depth(1),
    ));
    runtime.pause(); // hold the first submission in flight

    let doomed = Client::connect(server.local_addr(), ClientOptions::default()).unwrap();
    let doomed_job = doomed
        .submit(SubmitPayload::Batch(vec![wire::WireJob {
            circuit: one_block_circuit(0.4),
            params: vec![],
            strategy: Strategy::StrictPartial,
        }]))
        .unwrap();
    // Ensure the submission was admitted before the disconnect.
    match doomed_job.next_update().unwrap() {
        JobUpdate::Event(JobEvent::Admitted { .. }) => {}
        other => panic!("expected Admitted, got {other:?}"),
    }

    // The queue is at depth: the survivor's submit parks on the server, so no
    // `Admitted` event arrives. Its updates are forwarded from a helper thread so
    // every wait below is bounded.
    let survivor = Client::connect(server.local_addr(), ClientOptions::default()).unwrap();
    let survivor_job = survivor
        .submit(SubmitPayload::Batch(vec![wire::WireJob {
            circuit: one_block_circuit(0.9),
            params: vec![],
            strategy: Strategy::StrictPartial,
        }]))
        .unwrap();
    let (forward, updates) = std::sync::mpsc::channel();
    let forwarder = std::thread::spawn(move || {
        while let Ok(update) = survivor_job.next_update() {
            let terminal = !matches!(update, JobUpdate::Event(_));
            if forward.send(update).is_err() || terminal {
                return;
            }
        }
    });
    let next = || {
        updates
            .recv_timeout(Duration::from_secs(10))
            .expect("an update within the deadline")
    };
    assert!(updates.recv_timeout(Duration::from_millis(100)).is_err());
    assert_eq!(runtime.metrics().submissions, 1);

    // Drop the first client's connection mid-job: the server cancels its
    // submission and releases the admission slot to the parked survivor.
    drop(doomed);
    match next() {
        JobUpdate::Event(JobEvent::Admitted { .. }) => {}
        other => panic!("expected Admitted, got {other:?}"),
    }
    assert_eq!(runtime.metrics().canceled_submissions, 1);
    runtime.resume();
    let results = loop {
        match next() {
            JobUpdate::Event(_) => continue,
            JobUpdate::Report(results) => break results,
            other => panic!("expected the survivor's Report, got {other:?}"),
        }
    };
    assert!(results[0].is_ok());
    forwarder.join().unwrap();
    // The canceled client's block was garbage-collected, never compiled.
    assert_eq!(runtime.metrics().unique_compilations, 1);
}

/// Remote cancellation: the client sends `Cancel`, the stream terminates with
/// a `Canceled` event, and `wait` surfaces it as an error.
#[test]
fn remote_cancel_terminates_the_stream() {
    let (server, runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1),
    ));
    runtime.pause();
    let client = Client::connect(server.local_addr(), ClientOptions::default()).unwrap();
    let job = client
        .submit(SubmitPayload::Batch(vec![wire::WireJob {
            circuit: one_block_circuit(0.4),
            params: vec![],
            strategy: Strategy::StrictPartial,
        }]))
        .unwrap();
    job.cancel().unwrap();
    match job.wait() {
        Err(RemoteError::Canceled) => {}
        other => panic!("expected Canceled, got {other:?}"),
    }
    runtime.resume();

    // Canceling an unknown id is a rejection, not a hang or a crash.
    let mut raw = connect_raw(server.local_addr(), "canceler");
    wire::write_frame(
        &mut raw,
        &Request::Cancel { id: 99 },
        wire::DEFAULT_MAX_FRAME,
    )
    .unwrap();
    match wire::read_frame::<_, Response>(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap() {
        Response::Rejected {
            id: 99,
            reason: RejectReason::UnknownSubmission,
        } => {}
        other => panic!("expected UnknownSubmission, got {other:?}"),
    }
}

/// A correlation id is free again the moment its terminal frame arrives: a
/// client that resubmits under the same id at once is admitted, never refused
/// as a duplicate. Checked with a lookup-only circuit, whose terminal frame is
/// queued inside the server's `submit` (the pool stays paused to prove it),
/// and with a one-keyed-block circuit, whose terminal frame a worker queues.
#[test]
fn a_correlation_id_is_free_again_when_its_report_arrives() {
    let (server, runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(2),
    ));
    let frame = wire::DEFAULT_MAX_FRAME;
    let mut raw = connect_raw(server.local_addr(), "reuser");
    runtime.pause();
    let cases = [
        (lookup_only_circuit(), vec![0.1, 0.2, 0.3]),
        (one_block_circuit(0.4), vec![]),
    ];
    for (case, (circuit, params)) in cases.into_iter().enumerate() {
        if case == 1 {
            runtime.resume();
        }
        for round in 0..10 {
            let submit = Request::Submit {
                id: 7,
                payload: SubmitPayload::Batch(vec![wire::WireJob {
                    circuit: circuit.clone(),
                    params: params.clone(),
                    strategy: Strategy::StrictPartial,
                }]),
                priority: None,
                trace: None,
            };
            wire::write_frame(&mut raw, &submit, frame).unwrap();
            match wire::read_frame::<_, Response>(&mut raw, frame).unwrap() {
                Response::Event {
                    id: 7,
                    event: JobEvent::Admitted { jobs: 1 },
                } => {}
                other => panic!("case {case} round {round}: expected Admitted, got {other:?}"),
            }
            loop {
                match wire::read_frame::<_, Response>(&mut raw, frame).unwrap() {
                    Response::Event {
                        id: 7,
                        event: JobEvent::JobDone { ok: true, .. },
                    } => {}
                    Response::Report { id: 7, results } => {
                        assert!(results[0].is_ok());
                        break;
                    }
                    other => panic!("case {case} round {round}: unexpected frame {other:?}"),
                }
            }
        }
    }
}

/// A result set that outgrows the frame bound still ends its submission, as a
/// `ReportTooLarge` refusal in place of the `Report`, and the connection keeps
/// answering: a `Stats` reply fits the bound, and an error stands in for a
/// reply that outgrows it too.
#[test]
fn an_oversized_report_is_refused_as_report_too_large() {
    let runtime = Arc::new(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1),
    ));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&runtime),
        ServerOptions::default().with_max_frame(1024),
    )
    .expect("bind loopback");
    let client = Client::connect(server.local_addr(), ClientOptions::default()).unwrap();
    // Two submissions, so that the trace ring outgrows the bound too.
    for _ in 0..2 {
        let job = client
            .submit(SubmitPayload::Iterations {
                circuit: lookup_only_circuit(),
                parameter_sets: (0..16).map(|i| vec![0.1 * i as f64; 3]).collect(),
                strategy: Strategy::StrictPartial,
            })
            .unwrap();
        match job.wait() {
            Err(RemoteError::Rejected(RejectReason::ReportTooLarge { declared, max })) => {
                assert_eq!(max, 1024);
                assert!(declared > max, "{declared} bytes");
            }
            other => panic!("expected ReportTooLarge, got {other:?}"),
        }
    }
    // A `Stats` reply summarizes its latencies, so with no phase rows the
    // whole framed reply fits in 1 KiB.
    let stats = client
        .stats()
        .expect("a Stats reply fits a 1024-byte frame");
    assert_eq!(stats.client.submissions, 2);
    assert_eq!(stats.client.completed, 2);
    assert!(stats.snapshot.phases.is_empty());
    let mut framed = Vec::new();
    let reply = Response::Stats {
        stats: Box::new(stats),
    };
    wire::write_frame(&mut framed, &reply, wire::DEFAULT_MAX_FRAME).unwrap();
    assert!(
        framed.len() <= 1024,
        "a framed Stats reply of {} bytes",
        framed.len()
    );
    // The whole trace ring does outgrow the bound: the client hears an error
    // in its place instead of waiting forever, and a short tail still fits.
    assert!(matches!(client.trace(), Err(RemoteError::Protocol(_))));
    assert_eq!(client.trace_newest(8).unwrap().len(), 8);
}

/// A dashboard's tail of the trace ring is the end of the whole ring, in the
/// same order.
#[test]
fn a_trace_tail_is_the_newest_events_of_the_ring() {
    let (server, _runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1),
    ));
    let client = Client::connect(server.local_addr(), ClientOptions::default()).unwrap();
    for _ in 0..2 {
        client
            .submit(SubmitPayload::Iterations {
                circuit: lookup_only_circuit(),
                parameter_sets: vec![vec![0.3; 3], vec![0.7; 3]],
                strategy: Strategy::StrictPartial,
            })
            .unwrap()
            .wait()
            .unwrap();
    }
    let ring = client.trace().unwrap();
    assert!(ring.len() > 8, "{} events", ring.len());
    let tail = client.trace_newest(8).unwrap();
    assert_eq!(tail, ring[ring.len() - 8..]);
    assert_eq!(client.trace_newest(ring.len() + 10).unwrap(), ring);
}

/// A connection runs the same two threads however many submissions it has in
/// flight: with the pool paused and 20 submissions admitted on one
/// connection, its writer is running and no per-submission thread is.
#[cfg(target_os = "linux")]
#[test]
fn submissions_in_flight_start_no_thread_of_their_own() {
    let (server, runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1),
    ));
    runtime.pause();
    let client = Client::connect(server.local_addr(), ClientOptions::default()).unwrap();
    let jobs: Vec<RemoteJob> = (0..20)
        .map(|_| {
            client
                .submit(SubmitPayload::Batch(vec![wire::WireJob {
                    circuit: one_block_circuit(0.5),
                    params: vec![],
                    strategy: Strategy::StrictPartial,
                }]))
                .unwrap()
        })
        .collect();
    for job in &jobs {
        match job.next_update().unwrap() {
            JobUpdate::Event(JobEvent::Admitted { jobs: 1 }) => {}
            other => panic!("expected Admitted, got {other:?}"),
        }
    }
    let names = thread_names();
    assert!(
        names.iter().any(|name| name.starts_with("vqc-writer")),
        "each connection has a named writer: {names:?}"
    );
    // The thread kind a submission used to start, to wait for its events.
    assert!(
        !names.iter().any(|name| name.starts_with("vqc-streamer")),
        "a per-submission thread is running: {names:?}"
    );
    runtime.resume();
    for job in jobs {
        assert!(job.wait().unwrap()[0].is_ok());
    }
}

/// This process's resident set, in bytes (Linux: `/proc/self/statm`).
#[cfg(target_os = "linux")]
fn resident_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
    let pages: usize = statm.split_whitespace().nth(1).unwrap().parse().unwrap();
    pages * 4096
}

/// A client that sends requests but never reads the answers stalls only its
/// own connection: once a few answers wait for its writer, the server stops
/// reading that connection's requests, so the client's writes time out and the
/// server's memory stays put, while another client is still served.
#[cfg(target_os = "linux")]
#[test]
fn a_client_that_never_reads_stalls_only_its_own_requests() {
    let (server, runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1),
    ));
    let frame = wire::DEFAULT_MAX_FRAME;
    let client = Client::connect(server.local_addr(), ClientOptions::default()).unwrap();
    // Fill the trace ring, so that every `Trace` answer is large.
    let warmup = client
        .submit(SubmitPayload::Iterations {
            circuit: lookup_only_circuit(),
            parameter_sets: (0..400).map(|i| vec![0.01 * i as f64; 3]).collect(),
            strategy: Strategy::StrictPartial,
        })
        .unwrap();
    assert_eq!(warmup.wait().unwrap().len(), 400);
    let events = runtime.trace_events().len();
    assert!(events >= 400, "{events} trace events");

    let mut stalled = connect_raw(server.local_addr(), "stalled");
    stalled
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let mut requests = Vec::new();
    for _ in 0..4096 {
        wire::write_frame(&mut requests, &Request::Trace { newest: None }, frame).unwrap();
    }
    // Unbounded buffering would queue a full trace per request: a few thousand
    // requests exceed this margin, a stalled connection never does.
    let ceiling = resident_bytes() + (256 << 20);
    let mut sent = 0usize;
    let check_memory = |sent: usize| {
        let resident = resident_bytes();
        assert!(
            resident < ceiling,
            "the server buffered answers for a client that does not read: \
             {sent} request bytes in, {resident} bytes resident"
        );
    };
    loop {
        match stalled.write_all(&requests) {
            Ok(()) => sent += requests.len(),
            Err(error)
                if matches!(
                    error.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(error) => panic!("write failed after {sent} bytes: {error}"),
        }
        check_memory(sent);
        assert!(sent < 256 << 20, "the server read {sent} request bytes");
    }
    // A server that still reads, only slowly, would keep growing meanwhile.
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(50));
        check_memory(sent);
    }

    // The stalled connection holds no other client up.
    assert_eq!(client.stats().unwrap().client.submissions, 1);
    let job = client
        .submit(SubmitPayload::Batch(vec![wire::WireJob {
            circuit: lookup_only_circuit(),
            params: vec![0.5, 0.6, 0.7],
            strategy: Strategy::StrictPartial,
        }]))
        .unwrap();
    assert!(job.wait().unwrap()[0].is_ok());
    drop(stalled);
    drop(client);
    drop(server);
}

/// Malformed and oversized frames are contained: the offending connection gets
/// an error (and, for oversized, is closed), while the server keeps serving
/// other clients.
#[test]
fn protocol_faults_do_not_kill_the_server() {
    let (server, runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1),
    ));
    let addr = server.local_addr();

    // A well-framed but undecodable payload after a valid handshake: the
    // server answers Error and keeps the connection alive.
    let mut raw = connect_raw(addr, "fault-injector");
    let garbage = [0xffu8; 8];
    raw.write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&garbage).unwrap();
    match wire::read_frame::<_, Response>(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap() {
        Response::Error { .. } => {}
        other => panic!("expected Error for a malformed frame, got {other:?}"),
    }
    // The connection survived the malformed frame: Stats still answers.
    wire::write_frame(&mut raw, &Request::Stats, wire::DEFAULT_MAX_FRAME).unwrap();
    match wire::read_frame::<_, Response>(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap() {
        Response::Stats { .. } => {}
        other => panic!("expected Stats after recovery, got {other:?}"),
    }

    // An oversized length prefix poisons the stream: Error, then close.
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    match wire::read_frame::<_, Response>(&mut raw, wire::DEFAULT_MAX_FRAME) {
        Ok(Response::Error { .. }) => {}
        Err(_) => {} // the server may close before the error frame is read
        other => panic!("expected Error/close for an oversized frame, got {other:?}"),
    }

    // The server is still alive for well-behaved clients.
    let client = Client::connect(addr, ClientOptions::default()).unwrap();
    let job = client
        .submit(SubmitPayload::Batch(vec![wire::WireJob {
            circuit: one_block_circuit(0.4),
            params: vec![],
            strategy: Strategy::StrictPartial,
        }]))
        .unwrap();
    assert!(job.wait().unwrap()[0].is_ok());
    assert!(runtime.metrics().unique_compilations >= 1);
}

/// A Hello with the wrong protocol version is rejected with both versions in
/// the reply, and the connection is closed.
#[test]
fn protocol_version_mismatch_is_rejected_in_hello() {
    let (server, _runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1),
    ));
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    wire::write_frame(
        &mut raw,
        &Request::Hello {
            protocol: PROTOCOL_VERSION + 41,
            client_name: "time-traveler".into(),
            priority: 8,
            weight: 1.0,
            sent_micros: 0,
        },
        wire::DEFAULT_MAX_FRAME,
    )
    .unwrap();
    match wire::read_frame::<_, Response>(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap() {
        Response::Rejected {
            id: 0,
            reason: RejectReason::VersionMismatch { server, client },
        } => {
            assert_eq!(server, PROTOCOL_VERSION);
            assert_eq!(client, PROTOCOL_VERSION + 41);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    // The server hangs up after the rejection.
    assert!(matches!(
        wire::read_frame::<_, Response>(&mut raw, wire::DEFAULT_MAX_FRAME),
        Err(wire::FrameError::Closed) | Err(wire::FrameError::Io(_))
    ));
    // A frame that is not Hello first is likewise rejected.
    let mut eager = TcpStream::connect(server.local_addr()).unwrap();
    wire::write_frame(&mut eager, &Request::Stats, wire::DEFAULT_MAX_FRAME).unwrap();
    match wire::read_frame::<_, Response>(&mut eager, wire::DEFAULT_MAX_FRAME).unwrap() {
        Response::Rejected {
            reason: RejectReason::HelloRequired,
            ..
        } => {}
        other => panic!("expected HelloRequired, got {other:?}"),
    }
}

/// Submissions stream exactly one `Admitted { jobs }` → one `JobDone` per job
/// → `Report`, with job completions observable before the terminal frame.
#[test]
fn events_stream_per_job_completions_before_the_report() {
    let (server, _runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(2),
    ));
    let client = Client::connect(server.local_addr(), ClientOptions::default()).unwrap();
    let mut circuit = one_block_circuit(0.8);
    circuit.rz_expr(1, vqc_circuit::ParamExpr::theta(0));
    let job = client
        .submit(SubmitPayload::Iterations {
            circuit,
            parameter_sets: vec![vec![0.1], vec![0.7], vec![2.2]],
            strategy: Strategy::StrictPartial,
        })
        .unwrap();
    match job.next_update().unwrap() {
        JobUpdate::Event(JobEvent::Admitted { jobs: 3 }) => {}
        other => panic!("expected Admitted {{ jobs: 3 }} first, got {other:?}"),
    }
    let mut done_jobs = Vec::new();
    let report = loop {
        match job.next_update().unwrap() {
            JobUpdate::Event(JobEvent::JobDone {
                job: index,
                ok,
                pulse_duration_ns,
            }) => {
                assert!(ok);
                assert!(pulse_duration_ns > 0.0);
                done_jobs.push(index);
            }
            JobUpdate::Report(results) => break results,
            other => panic!("unexpected update: {other:?}"),
        }
    };
    assert_eq!(report.len(), 3);
    assert!(report.iter().all(|r| r.is_ok()));
    done_jobs.sort_unstable();
    assert_eq!(
        done_jobs,
        vec![0, 1, 2],
        "every job completion was streamed"
    );

    let idle = client.submit(SubmitPayload::Batch(vec![])).unwrap();
    match idle.wait() {
        Ok(results) => assert!(results.is_empty()),
        other => panic!("empty batch should succeed, got {other:?}"),
    }
}

/// Metrics are a pull: two clients poll `stats()` while a third runs a
/// workload. Every snapshot takes the next `seq`, so each poller sees it
/// strictly increase and no two polls share a number; `trace()` keeps
/// answering between polls on the same connection; and a final poll, and the
/// submitter's `stats()` after it, show the whole workload completed.
#[test]
fn metrics_polls_track_a_concurrent_workload() {
    let (server, _runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(2),
    ));
    let connect = |name: &str| {
        Client::connect(
            server.local_addr(),
            ClientOptions::default().with_name(name),
        )
        .unwrap()
    };
    let submitter = connect("submitter");
    let total = 3u64;
    let jobs: Vec<_> = (0..total)
        .map(|i| {
            submitter
                .submit(SubmitPayload::Batch(vec![wire::WireJob {
                    circuit: one_block_circuit(0.3 + 0.5 * i as f64),
                    params: vec![],
                    strategy: Strategy::StrictPartial,
                }]))
                .unwrap()
        })
        .collect();
    let pollers: Vec<_> = ["poller-a", "poller-b"]
        .into_iter()
        .map(|name| {
            let poller = connect(name);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(30);
                let mut snapshots = Vec::new();
                loop {
                    let stats = poller.stats().unwrap();
                    assert_eq!(
                        stats.client,
                        ClientMetrics::default(),
                        "a poller submits nothing"
                    );
                    let done = stats.snapshot.runtime.completed_submissions == total;
                    snapshots.push(stats.snapshot);
                    if done && snapshots.len() >= 2 {
                        return snapshots;
                    }
                    // Another id-less request between polls: its answer must
                    // not be taken for a snapshot, nor a snapshot for it.
                    poller.trace().unwrap();
                    assert!(Instant::now() < deadline, "no poll saw the workload finish");
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();
    for job in &jobs {
        assert!(job.wait().unwrap()[0].is_ok());
    }
    let mut seqs = Vec::new();
    for poller in pollers {
        let snapshots = poller.join().unwrap();
        for pair in snapshots.windows(2) {
            assert!(
                pair[1].seq > pair[0].seq,
                "a poller's seq must strictly increase: {} then {}",
                pair[0].seq,
                pair[1].seq
            );
            assert!(pair[1].uptime_seconds >= pair[0].uptime_seconds);
        }
        let last = snapshots.last().unwrap();
        assert_eq!(last.runtime.submissions, total);
        assert_eq!(last.runtime.completed_submissions, total);
        assert_eq!(last.runtime.workers, 2);
        seqs.extend(snapshots.iter().map(|snapshot| snapshot.seq));
    }
    let distinct: HashSet<u64> = seqs.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        seqs.len(),
        "one sequence serves every poller"
    );
    let stats = submitter.stats().unwrap();
    assert!(stats.snapshot.uptime_seconds > 0.0);
    assert_eq!(stats.snapshot.runtime.completed_submissions, total);
    assert_eq!(stats.client.completed, total);
}

/// Nothing runs beside the service to push metrics: a runtime and a server
/// that have answered a `Stats` poll hold no telemetry thread of their own.
#[cfg(target_os = "linux")]
#[test]
fn serving_metrics_starts_no_telemetry_thread() {
    let (server, _runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1),
    ));
    let client = Client::connect(server.local_addr(), ClientOptions::default()).unwrap();
    assert!(client.stats().unwrap().snapshot.seq > 0);
    let names = thread_names();
    assert!(
        names.iter().any(|name| name.starts_with("vqc-worker")),
        "the service's threads are named: {names:?}"
    );
    // The two thread kinds a pushed metrics stream needs: a periodic snapshot
    // builder, and a forwarder per watching connection.
    for retired in ["aggregator", "watcher"].map(|kind| format!("vqc-{kind}")) {
        assert!(
            !names.contains(&retired),
            "a {retired} thread is running: {names:?}"
        );
    }
}

/// The Hello's `weight` buys nothing: every client's fair-share clock advances
/// by the estimated cost of its work. With the pool paused, a weight-1 client
/// queues one block, a connection whose Hello claims weight 1e9 queues four,
/// and the weight-1 client a second. The two clocks advance alike, so that
/// second block dispatches fourth, between the claimant's. A weight that
/// counted would leave the claimant's clock where it started and put all four
/// of its blocks first.
#[test]
fn a_hello_weight_buys_no_larger_share() {
    let (server, runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1),
    ));
    runtime.pause();
    let block = |phase: f64| {
        SubmitPayload::Batch(vec![wire::WireJob {
            circuit: one_block_circuit(phase),
            params: vec![],
            strategy: Strategy::StrictPartial,
        }])
    };
    // `Admitted` goes out before expansion posts the submission's tasks; a
    // connection's requests are served in order, so once the `stats()` that
    // follows answers, the tasks are in the ready queue.
    let posted = |client: &Client, job: &RemoteJob, submissions: u64| {
        match job.next_update().unwrap() {
            JobUpdate::Event(JobEvent::Admitted { .. }) => {}
            other => panic!("expected Admitted, got {other:?}"),
        }
        assert_eq!(client.stats().unwrap().client.submissions, submissions);
    };
    let peer = Client::connect(server.local_addr(), ClientOptions::default()).unwrap();
    let first = peer.submit(block(0.1)).unwrap();
    posted(&peer, &first, 1);

    let frame = wire::DEFAULT_MAX_FRAME;
    let mut claimant = TcpStream::connect(server.local_addr()).unwrap();
    claimant
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    wire::write_frame(
        &mut claimant,
        &Request::Hello {
            protocol: PROTOCOL_VERSION,
            client_name: "claimant".into(),
            priority: Priority::NORMAL.0,
            weight: 1e9,
            sent_micros: 0,
        },
        frame,
    )
    .unwrap();
    let claimant_id = match wire::read_frame::<_, Response>(&mut claimant, frame).unwrap() {
        Response::Accepted { client_id, .. } => client_id,
        other => panic!("expected Accepted, got {other:?}"),
    };
    for id in 1..=4u64 {
        let submit = Request::Submit {
            id,
            payload: block(0.5 + 0.3 * id as f64),
            priority: None,
            trace: None,
        };
        wire::write_frame(&mut claimant, &submit, frame).unwrap();
    }
    // The server reads a connection's requests in order, so once it answers
    // `Stats` all four submissions are expanded.
    wire::write_frame(&mut claimant, &Request::Stats, frame).unwrap();
    loop {
        match wire::read_frame::<_, Response>(&mut claimant, frame).unwrap() {
            Response::Stats { stats } => {
                assert_eq!(stats.client.submissions, 4);
                break;
            }
            Response::Event { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let second = peer.submit(block(0.2)).unwrap();
    posted(&peer, &second, 2);
    runtime.resume();

    assert!(first.wait().unwrap()[0].is_ok());
    assert!(second.wait().unwrap()[0].is_ok());
    let mut reports = 0;
    while reports < 4 {
        match wire::read_frame::<_, Response>(&mut claimant, frame).unwrap() {
            Response::Report { results, .. } => {
                assert!(results[0].is_ok());
                reports += 1;
            }
            Response::Event { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    // Each `dispatched` trace event carries the global dispatch sequence.
    let mut dispatched: Vec<(u64, Option<u64>)> = runtime
        .trace_events()
        .iter()
        .filter(|event| event.stage == TraceStage::Dispatched)
        .map(|event| (event.detail, event.client))
        .collect();
    dispatched.sort_unstable();
    let order: Vec<&str> = dispatched
        .iter()
        .map(|&(_, client)| match client {
            Some(id) if id == claimant_id => "claimant",
            Some(id) if id == peer.client_id() => "peer",
            other => panic!("a dispatch for an unknown client {other:?}"),
        })
        .collect();
    assert_eq!(
        order,
        ["peer", "claimant", "claimant", "peer", "claimant", "claimant"]
    );
}

/// The acceptance scenario for the lifecycle trace: after one remote job, the
/// `Trace` request returns the full submitted → admitted → dispatched →
/// compile-start → compiled → job-done → report chain with non-decreasing
/// timestamps, attributed to the TCP client id, and it renders as Chrome
/// `trace_event` JSON.
#[test]
fn trace_request_exports_the_chrome_lifecycle_chain() {
    let (server, _runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1),
    ));
    let client = Client::connect(server.local_addr(), ClientOptions::default()).unwrap();
    let job = client
        .submit(SubmitPayload::Batch(vec![wire::WireJob {
            circuit: one_block_circuit(0.6),
            params: vec![],
            strategy: Strategy::StrictPartial,
        }]))
        .unwrap();
    assert!(job.wait().unwrap()[0].is_ok());

    let events = client.trace().unwrap();
    let expected = [
        TraceStage::Submitted,
        TraceStage::Admitted,
        TraceStage::Dispatched,
        TraceStage::CompileStart,
        TraceStage::Compiled,
        TraceStage::JobDone,
        TraceStage::Report,
    ];
    let mut last_index = None;
    for stage in expected {
        let index = events
            .iter()
            .position(|e| e.stage == stage)
            .unwrap_or_else(|| panic!("stage {} missing from the remote trace", stage.name()));
        if let Some(last) = last_index {
            assert!(index > last, "stage {} out of order", stage.name());
            assert!(
                events[index].micros >= events[last].micros,
                "timestamps must be non-decreasing along the chain"
            );
        }
        last_index = Some(index);
    }
    // Lifecycle events are attributed to the transport-assigned client id.
    assert!(events.iter().any(|e| e.client == Some(client.client_id())));

    let json = merged_chrome_trace(&[], &events, 0);
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.contains("\"cat\":\"lifecycle\",\"ph\":\"i\""));
    for stage in expected {
        assert!(
            json.contains(&format!("\"name\":\"{}\"", stage.name())),
            "chrome trace must name stage {}",
            stage.name()
        );
    }
}

/// The acceptance scenario for cross-process causal tracing: a client submits
/// with a trace id, stamps its own spans on its connection epoch, and merges
/// them with the server's lifecycle trace using the handshake's clock-offset
/// estimate. The merged Chrome document contains both processes' events
/// (client `pid` 1, server `pid` 2) with non-decreasing adjusted timestamps.
#[test]
fn merged_causal_trace_spans_both_processes_in_order() {
    let (server, _runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1),
    ));
    let client = Client::connect(
        server.local_addr(),
        ClientOptions::default().with_name("tracer"),
    )
    .unwrap();

    let submit_micros = client.now_micros();
    let job = client
        .submit_traced(
            SubmitPayload::Batch(vec![wire::WireJob {
                circuit: one_block_circuit(0.6),
                params: vec![],
                strategy: Strategy::StrictPartial,
            }]),
            None,
            Some(0xCAFE),
        )
        .unwrap();
    assert!(job.wait().unwrap()[0].is_ok());
    let client_spans = [
        ClientSpan {
            name: String::from("submit"),
            micros: submit_micros,
            span_micros: 0,
        },
        ClientSpan {
            name: String::from("await-report"),
            micros: submit_micros,
            span_micros: client.now_micros().saturating_sub(submit_micros).max(1),
        },
    ];

    let events = client.trace().unwrap();
    assert!(!events.is_empty());
    // The client-assigned trace id rides the Submitted event's detail.
    assert!(
        events
            .iter()
            .any(|e| e.stage == TraceStage::Submitted && e.detail == 0xCAFE),
        "the trace id must be recorded on the server's Submitted event"
    );

    let json = merged_chrome_trace(&client_spans, &events, client.clock_offset_micros());
    assert!(json.contains("\"pid\":1"), "client spans present");
    assert!(json.contains("\"pid\":2"), "server events present");
    assert!(
        json.contains("\"name\":\"submit\"") && json.contains("\"name\":\"report\""),
        "both ends of the causal chain are named"
    );

    // Adjusted timestamps are non-decreasing in document order — the merge
    // sorted both processes onto one timeline.
    let mut last_ts = 0u64;
    let mut seen = 0usize;
    for piece in json.split("\"ts\":").skip(1) {
        let digits: String = piece.chars().take_while(char::is_ascii_digit).collect();
        let ts: u64 = digits.parse().expect("ts is numeric");
        assert!(
            ts >= last_ts,
            "merged timestamps must be non-decreasing: {ts} after {last_ts}"
        );
        last_ts = ts;
        seen += 1;
    }
    assert!(
        seen >= client_spans.len() + events.len(),
        "every span carries a timestamp"
    );

    // On loopback both clocks tick together: the offset estimate differs from
    // zero only by epoch start times, and the server's Submitted event must
    // land at-or-after the client's submit instant once adjusted.
    let submitted = events
        .iter()
        .find(|e| e.stage == TraceStage::Submitted)
        .unwrap();
    let adjusted = vqc_transport::tracemerge::adjust_server_micros(
        submitted.micros,
        client.clock_offset_micros(),
    );
    // The midpoint estimate's error is bounded by half the handshake RTT;
    // allow 5ms of slack so a loaded host cannot flake the causal check.
    assert!(
        adjusted + 5_000 >= submit_micros,
        "server intake ({adjusted}µs) cannot causally precede the client's submit ({submit_micros}µs)"
    );
}

/// Graceful shutdown over the wire: `Shutdown` *drains* — a job still in
/// flight when the request arrives is compiled to completion and its `Report`
/// delivered (shutdown is not a cancel) — then `wait()` returns.
#[test]
fn remote_shutdown_drains_and_stops_the_server() {
    let (server, runtime) = serve(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(1),
    ));
    let addr = server.local_addr();
    let client = Client::connect(addr, ClientOptions::default()).unwrap();
    // Hold the job in flight (paused workers), then ask for shutdown while it
    // has not compiled yet.
    runtime.pause();
    let job = client
        .submit(SubmitPayload::Batch(vec![wire::WireJob {
            circuit: one_block_circuit(0.4),
            params: vec![],
            strategy: Strategy::StrictPartial,
        }]))
        .unwrap();
    client.shutdown_server().unwrap();
    runtime.resume();
    assert!(
        job.wait().expect("drained, not canceled")[0].is_ok(),
        "a shutdown must drain in-flight submissions to their reports"
    );
    // A repeated request is idempotent, and it may find the drained server already
    // closing this connection: `Disconnected` then means "already stopped".
    assert!(matches!(
        client.shutdown_server(),
        Ok(()) | Err(RemoteError::Disconnected)
    ));
    server.wait(); // returns once the listener thread exits
    assert_eq!(runtime.metrics().unique_compilations, 1);
}
