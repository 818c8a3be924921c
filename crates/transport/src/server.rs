//! The TCP front-end of the compilation service.
//!
//! A [`Server`] owns a listener thread plus one handler thread per connection.
//! Each connection authenticates with [`Request::Hello`] and is mapped to a
//! fresh service client id, so every submission it makes is scheduled (and
//! metered — see [`vqc_runtime::ClientMetrics`]) under that identity at the
//! connection's negotiated priority. The handler thread
//! itself admits and expands each submission (planning it, resolving its
//! single-gate lookups, queueing its keyed blocks), then acknowledges it.
//! Submissions stream their progress back as [`Response::Event`] frames —
//! `Queued` (the acknowledgement), `Running`, one `JobDone` per job as blocks
//! finish — followed by a terminal [`Response::Report`] with the full result
//! set. `Stats`, `Metrics` and `Trace` are answered inline by the handler
//! thread, in the order it reads them.
//!
//! Failure containment follows the frame contract: an undecodable payload gets
//! a [`Response::Error`] and the connection continues (the stream is still
//! frame-aligned); an oversized length prefix poisons the stream and closes
//! only that connection. When a connection drops — cleanly or not — every
//! submission it still has in flight is canceled through
//! [`vqc_runtime::JobHandle::cancel`], releasing its admission slot and letting
//! the scheduler garbage-collect its queued block tasks, so a disconnected
//! client cannot pin queue capacity. A server *shutdown* is different: it stops
//! reading requests but drains in-flight submissions to their terminal
//! `Report` frames before tearing the connections down.

use crate::wire::{
    read_frame, write_frame, FrameError, JobEvent, RejectReason, Request, Response, ServerStats,
    SubmitPayload, WireError, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use vqc_runtime::{CompilationRuntime, CompileJob, JobHandle, JobStatus, Priority, Submission};

/// Address the server (and the `vqc-submit` client) use when `VQC_LISTEN` is
/// not set.
pub const DEFAULT_LISTEN: &str = "127.0.0.1:7878";

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Maximum frame payload size accepted or produced (minimum 1 KiB).
    pub max_frame: usize,
    /// Maximum simultaneous connections; further connects are refused with
    /// [`RejectReason::ConnectionLimit`].
    pub max_connections: usize,
}

impl Default for ServerOptions {
    /// Defaults to an 8 MiB frame bound and 64 connections; the
    /// `VQC_MAX_FRAME` and `VQC_MAX_CONNS` environment variables override
    /// (garbage values are ignored, zeros clamp to the minimums).
    fn default() -> Self {
        let max_frame = std::env::var("VQC_MAX_FRAME")
            .ok()
            .and_then(|raw| raw.parse::<usize>().ok())
            .unwrap_or(DEFAULT_MAX_FRAME);
        let max_connections = std::env::var("VQC_MAX_CONNS")
            .ok()
            .and_then(|raw| raw.parse::<usize>().ok())
            .unwrap_or(64);
        ServerOptions {
            max_frame: max_frame.max(1024),
            max_connections: max_connections.max(1),
        }
    }
}

impl ServerOptions {
    /// Replaces the frame bound (clamped to at least 1 KiB).
    pub fn with_max_frame(mut self, max_frame: usize) -> Self {
        self.max_frame = max_frame.max(1024);
        self
    }

    /// Replaces the connection limit (clamped to at least 1).
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections.max(1);
        self
    }
}

/// Shared state of the running server.
#[derive(Debug)]
struct ServerShared {
    runtime: Arc<CompilationRuntime>,
    options: ServerOptions,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// One stream clone per live connection, for forced close at shutdown.
    connections: Mutex<HashMap<u64, TcpStream>>,
    next_connection: AtomicU64,
    /// Client ids are allocated per connection, never reused, and disjoint from
    /// ids an embedder might use directly — the high bit marks transport
    /// clients.
    next_client: AtomicU64,
}

impl ServerShared {
    fn initiate_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the listener with a throwaway connection to our own port.
        let _ = TcpStream::connect(self.addr);
        // Close every connection's *read* half only: no new requests arrive
        // (each handler's blocking read fails and its request loop exits), but
        // the write halves stay open so in-flight submissions drain to their
        // terminal Report frames before the handlers tear down — shutdown
        // drains admitted work, it does not cancel it.
        for stream in lock_connections(self).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

fn lock_connections(shared: &ServerShared) -> parking_lot::MutexGuard<'_, HashMap<u64, TcpStream>> {
    shared.connections.lock()
}

/// Spawns a named thread. Thread names surface in lock-checker panics, long-hold
/// reports, and Chrome trace exports, so every transport thread gets one.
pub(crate) fn spawn_named<F>(name: &str, body: F) -> std::thread::JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(body)
        // audit:allow(unwrap): thread spawn fails only on OS resource exhaustion
        .expect("failed to spawn transport thread")
}

/// The TCP server: listener thread plus per-connection handlers over a shared
/// [`CompilationRuntime`].
#[derive(Debug)]
pub struct Server {
    shared: Arc<ServerShared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts accepting connections.
    ///
    /// Bind to port 0 for an ephemeral port (tests); read the resolved address
    /// back with [`Server::local_addr`].
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn bind(
        addr: impl ToSocketAddrs,
        runtime: Arc<CompilationRuntime>,
        options: ServerOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            runtime,
            options,
            addr,
            shutdown: AtomicBool::new(false),
            connections: Mutex::new(HashMap::new()),
            next_connection: AtomicU64::new(0),
            next_client: AtomicU64::new(1 << 63),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = spawn_named("vqc-tcp-accept", move || {
            listen_loop(accept_shared, listener)
        });
        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The runtime the server fronts.
    pub fn runtime(&self) -> &Arc<CompilationRuntime> {
        &self.shared.runtime
    }

    /// Whether a shutdown (via [`Server::shutdown`] or a remote
    /// [`Request::Shutdown`]) has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Initiates a graceful shutdown: stop accepting, stop reading requests on
    /// every connection, and *drain* — in-flight submissions compile to
    /// completion and their terminal `Report` frames are still delivered
    /// before the handler threads exit.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Blocks until a shutdown is initiated and the listener thread has exited
    /// — the run-forever entry point `vqc-serve` parks on.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.initiate_shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn listen_loop(shared: Arc<ServerShared>, listener: TcpListener) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Persistent accept failures (EMFILE under fd exhaustion, for
                // one) must not become a hot spin on this core.
                std::thread::sleep(std::time::Duration::from_millis(50));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Frames are small and latency-sensitive; without this, Nagle's
        // algorithm plus the peer's delayed ACK adds ~40ms per round trip.
        let _ = stream.set_nodelay(true);
        handlers.retain(|handle| !handle.is_finished());
        let connection_id = shared.next_connection.fetch_add(1, Ordering::Relaxed);
        {
            let mut connections = lock_connections(&shared);
            if connections.len() >= shared.options.max_connections {
                drop(connections);
                let mut stream = stream;
                let _ = write_frame(
                    &mut stream,
                    &Response::Rejected {
                        id: 0,
                        reason: RejectReason::ConnectionLimit {
                            max: shared.options.max_connections,
                        },
                    },
                    shared.options.max_frame,
                );
                continue;
            }
            match stream.try_clone() {
                Ok(clone) => {
                    connections.insert(connection_id, clone);
                }
                // An untracked connection could not be force-closed at
                // shutdown and would hang the listener join; refuse it.
                Err(_) => continue,
            }
        }
        let handler_shared = Arc::clone(&shared);
        handlers.push(spawn_named(
            &format!("vqc-conn-{connection_id}"),
            move || {
                handle_connection(handler_shared, stream, connection_id);
            },
        ));
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Sends one response frame under the connection's write lock (frames from the
/// request loop and the per-submission streamer threads must not interleave).
fn send(
    writer: &Arc<Mutex<TcpStream>>,
    response: &Response,
    max_frame: usize,
) -> Result<(), FrameError> {
    // audit:allow(guard_blocking): the writer lock IS the frame serializer —
    // holding it across write_frame is what keeps concurrent frames whole.
    let mut stream = writer.lock();
    write_frame(&mut *stream, response, max_frame)
}

fn handle_connection(shared: Arc<ServerShared>, stream: TcpStream, connection_id: u64) {
    let outcome = serve_connection(&shared, stream);
    lock_connections(&shared).remove(&connection_id);
    // If the client asked for a server shutdown, start it after the connection
    // is fully torn down (so its own goodbye frame got out first).
    if outcome == ConnectionOutcome::ShutdownRequested {
        shared.initiate_shutdown();
    }
}

#[derive(Debug, PartialEq, Eq)]
enum ConnectionOutcome {
    Closed,
    ShutdownRequested,
}

fn serve_connection(shared: &ServerShared, stream: TcpStream) -> ConnectionOutcome {
    let max_frame = shared.options.max_frame;
    let mut reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return ConnectionOutcome::Closed,
    };
    let writer = Arc::new(Mutex::new(stream));

    // Handshake: the first frame must be a version-matching Hello.
    let priority = match read_frame::<_, Request>(&mut reader, max_frame) {
        Ok(Request::Hello {
            protocol,
            client_name: _,
            priority,
            // Kept for the Hello's layout only: a client's fair share is not
            // its to claim.
            weight: _,
            // The client's send timestamp is on *its* clock; the offset estimate
            // is computed client-side from the Accepted round trip, so the
            // server only needs to report its own clock below.
            sent_micros: _,
        }) => {
            if protocol != PROTOCOL_VERSION {
                let _ = send(
                    &writer,
                    &Response::Rejected {
                        id: 0,
                        reason: RejectReason::VersionMismatch {
                            server: PROTOCOL_VERSION,
                            client: protocol,
                        },
                    },
                    max_frame,
                );
                return ConnectionOutcome::Closed;
            }
            Priority(priority)
        }
        Ok(_) => {
            let _ = send(
                &writer,
                &Response::Rejected {
                    id: 0,
                    reason: RejectReason::HelloRequired,
                },
                max_frame,
            );
            return ConnectionOutcome::Closed;
        }
        Err(error) => {
            let _ = send(
                &writer,
                &Response::Error {
                    message: error.to_string(),
                },
                max_frame,
            );
            return ConnectionOutcome::Closed;
        }
    };
    let client_id = shared.next_client.fetch_add(1, Ordering::Relaxed);
    if send(
        &writer,
        &Response::Accepted {
            client_id,
            protocol: PROTOCOL_VERSION,
            // Stamped on the telemetry epoch — the same timebase as the
            // TraceEvent stream — so the client's clock-offset estimate maps
            // server trace events directly onto its own timeline.
            server_micros: (shared.runtime.uptime_seconds() * 1_000_000.0) as u64,
        },
        max_frame,
    )
    .is_err()
    {
        return ConnectionOutcome::Closed;
    }

    // Live submissions of this connection, keyed by the client's correlation id.
    // Streamer threads remove their entry on terminal states; whatever remains
    // at disconnect is canceled.
    let jobs: Arc<Mutex<HashMap<u64, JobHandle>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut streamers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let outcome = loop {
        match read_frame::<_, Request>(&mut reader, max_frame) {
            Ok(Request::Submit {
                id,
                payload,
                priority: submit_priority,
                trace,
            }) => {
                // The lock is taken only to check the id and, below, to insert
                // the handle, never across `submit` (which parks on a full queue
                // and plans). Streamers only remove entries, and this thread is
                // the map's only inserter, so the id is still free at insert.
                if jobs.lock().contains_key(&id) {
                    let _ = send(
                        &writer,
                        &Response::Rejected {
                            id,
                            reason: RejectReason::DuplicateSubmission,
                        },
                        max_frame,
                    );
                    continue;
                }
                let mut submission = build_submission(payload)
                    .with_client(client_id)
                    .with_priority(submit_priority.map(Priority).unwrap_or(priority));
                if let Some(trace) = trace {
                    submission = submission.with_trace(trace);
                }
                match shared.runtime.submit(submission) {
                    Ok(handle) => {
                        jobs.lock().insert(id, handle.clone());
                        let _ = send(
                            &writer,
                            &Response::Event {
                                id,
                                event: JobEvent::Queued,
                            },
                            max_frame,
                        );
                        let writer = Arc::clone(&writer);
                        let jobs = Arc::clone(&jobs);
                        streamers.retain(|s| !s.is_finished());
                        streamers.push(spawn_named(&format!("vqc-streamer-{id}"), move || {
                            let terminal = stream_submission(&writer, &handle, id, max_frame);
                            // Release the correlation id *before* the terminal
                            // frame goes out, so a client that reuses the id the
                            // moment it sees the Report is never spuriously
                            // rejected as a duplicate.
                            jobs.lock().remove(&id);
                            let Some(terminal) = terminal else { return };
                            if let Err(FrameError::Oversized { declared, max }) =
                                send(&writer, &terminal, max_frame)
                            {
                                // The result set outgrew the frame bound: the
                                // client must still receive *a* terminal frame,
                                // or it would wait forever.
                                let _ = send(
                                    &writer,
                                    &Response::Rejected {
                                        id,
                                        reason: RejectReason::ReportTooLarge { declared, max },
                                    },
                                    max_frame,
                                );
                            }
                        }));
                    }
                    // Admission parks rather than refuses: submit fails only
                    // once the runtime is shutting down.
                    Err(_) => {
                        let _ = send(
                            &writer,
                            &Response::Rejected {
                                id,
                                reason: RejectReason::ShuttingDown,
                            },
                            max_frame,
                        );
                    }
                }
            }
            Ok(Request::Status { id }) => {
                let handle = jobs.lock().get(&id).cloned();
                let response = match handle {
                    Some(handle) => Response::Event {
                        id,
                        event: JobEvent::Status {
                            status: handle.try_status().into(),
                            completed_jobs: handle.completed_jobs(),
                        },
                    },
                    None => Response::Rejected {
                        id,
                        reason: RejectReason::UnknownSubmission,
                    },
                };
                let _ = send(&writer, &response, max_frame);
            }
            Ok(Request::Cancel { id }) => {
                let handle = jobs.lock().get(&id).cloned();
                match handle {
                    // The streamer observes the cancellation and reports the
                    // terminal `Canceled` event; nothing to send here.
                    Some(handle) => {
                        handle.cancel();
                    }
                    None => {
                        let _ = send(
                            &writer,
                            &Response::Rejected {
                                id,
                                reason: RejectReason::UnknownSubmission,
                            },
                            max_frame,
                        );
                    }
                }
            }
            Ok(Request::Stats) => {
                let stats = ServerStats {
                    runtime: shared.runtime.metrics(),
                    client_id,
                    client: shared.runtime.client_metrics(client_id),
                    uptime_seconds: shared.runtime.uptime_seconds(),
                };
                let _ = send(&writer, &Response::Stats { stats }, max_frame);
            }
            Ok(Request::Metrics) => {
                let snapshot = shared.runtime.telemetry_snapshot();
                let _ = send(&writer, &Response::Metrics { snapshot }, max_frame);
            }
            Ok(Request::Trace) => {
                let events = shared.runtime.trace_events();
                let _ = send(&writer, &Response::Trace { events }, max_frame);
            }
            Ok(Request::Shutdown) => break ConnectionOutcome::ShutdownRequested,
            Ok(Request::Hello { .. }) => {
                let _ = send(
                    &writer,
                    &Response::Error {
                        message: "connection is already authenticated".into(),
                    },
                    max_frame,
                );
            }
            // A well-framed payload that does not decode: tell the client and
            // keep serving — the stream is still frame-aligned.
            Err(FrameError::Decode(message)) => {
                let _ = send(&writer, &Response::Error { message }, max_frame);
            }
            // Oversized frames poison the stream (the declared length cannot be
            // trusted to skip); everything else is a dead connection.
            Err(error @ FrameError::Oversized { .. }) => {
                let _ = send(
                    &writer,
                    &Response::Error {
                        message: error.to_string(),
                    },
                    max_frame,
                );
                break ConnectionOutcome::Closed;
            }
            Err(_) => break ConnectionOutcome::Closed,
        }
    };

    // A graceful shutdown (requested on this connection or server-wide) drains:
    // in-flight submissions run to completion and their Reports still go out on
    // the write half. A plain disconnect instead cancels — whatever this
    // connection still has in flight must not pin queue capacity or worker
    // time — and releases the client's scheduler state.
    let draining =
        outcome == ConnectionOutcome::ShutdownRequested || shared.shutdown.load(Ordering::SeqCst);
    if !draining {
        for (_, handle) in jobs.lock().drain() {
            handle.cancel();
        }
    }
    // Streamers observe the terminal state (drained or canceled) and exit.
    for streamer in streamers {
        let _ = streamer.join();
    }
    if !draining {
        // The id is never handed out again: reap its fair-share clock and
        // metrics slice so a long-lived server does not grow state per
        // short-lived connection. (At shutdown the slices are kept for the
        // operator's final report.)
        shared.runtime.release_client(client_id);
    }
    outcome
}

fn build_submission(payload: SubmitPayload) -> Submission {
    match payload {
        SubmitPayload::Batch(jobs) => Submission::batch(
            jobs.into_iter()
                .map(|job| CompileJob::new(job.circuit, job.params, job.strategy))
                .collect(),
        ),
        SubmitPayload::Iterations {
            circuit,
            parameter_sets,
            strategy,
        } => Submission::iterations(circuit, parameter_sets, strategy),
    }
}

/// Streams one submission's intermediate events to the client — `Running`
/// (the submission was expanded before its handle existed), one `JobDone` per
/// job as results land — and returns the terminal frame (`Report` or
/// `Event{Canceled}`) for the caller to send *after* it has released the
/// correlation id. `None` if the connection died mid-stream.
fn stream_submission(
    writer: &Arc<Mutex<TcpStream>>,
    handle: &JobHandle,
    id: u64,
    max_frame: usize,
) -> Option<Response> {
    if handle.try_status() == JobStatus::Canceled {
        return Some(Response::Event {
            id,
            event: JobEvent::Canceled,
        });
    }
    let running = Response::Event {
        id,
        event: JobEvent::Running {
            jobs: handle.job_count(),
        },
    };
    if send(writer, &running, max_frame).is_err() {
        return None;
    }
    let mut seen = 0usize;
    loop {
        match handle.wait_job(seen) {
            Ok(Some((job, result))) => {
                seen += 1;
                let event = match &result {
                    Ok(report) => JobEvent::JobDone {
                        job,
                        ok: true,
                        pulse_duration_ns: report.pulse_duration_ns,
                    },
                    Err(_) => JobEvent::JobDone {
                        job,
                        ok: false,
                        pulse_duration_ns: 0.0,
                    },
                };
                if send(writer, &Response::Event { id, event }, max_frame).is_err() {
                    return None;
                }
            }
            Ok(None) => {
                let results = match handle.wait() {
                    Ok(results) => results,
                    Err(_) => return None,
                };
                let results = results
                    .iter()
                    .map(|result| match result {
                        Ok(report) => Ok(report.clone()),
                        Err(error) => Err(WireError::from(error)),
                    })
                    .collect();
                return Some(Response::Report { id, results });
            }
            Err(_) => {
                return Some(Response::Event {
                    id,
                    event: JobEvent::Canceled,
                })
            }
        }
    }
}
