//! The TCP front-end of the compilation service.
//!
//! A [`Server`] owns a listener thread plus two threads per connection: a
//! handler that reads requests and a writer that owns the write half. Each
//! connection authenticates with [`Request::Hello`] and is mapped to a fresh
//! service client id, so every submission it makes is scheduled (and metered —
//! see [`vqc_runtime::ClientMetrics`]) under that identity at the connection's
//! negotiated priority. The handler writes the handshake reply itself, then
//! hands the write half to the writer, which drains one channel of
//! [`Response`]s: the handler's inline answers (`Stats`, `Trace`, refusals,
//! errors) in the order it reads the requests, and every
//! submission's progress. The handler admits and expands each submission
//! itself (planning it, resolving its single-gate lookups, queueing its keyed
//! blocks); the runtime then pushes the submission's progress through a
//! [`Submission::on_progress`] callback that turns each step into a frame —
//! an `Admitted` [`Response::Event`], one `JobDone` event per job as blocks
//! finish, and a terminal [`Response::Report`] with the full result set (or a
//! `Canceled` event). No frame is written under a lock, and a connection runs
//! two threads however many submissions it has in flight. Queueing a frame
//! never blocks (the callbacks run under a submission's lock), so the handler
//! keeps the connection's backpressure itself: it reads no further request
//! while more than [`WRITE_BACKLOG`] frames wait for the writer. A client that
//! stops reading its answers therefore stalls its own requests, not the
//! server's memory.
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
//! `Report` frames before tearing the connections down: the writer exits once
//! the handler and every in-flight submission's callback have let go of the
//! channel.

use crate::wire::{
    read_frame, write_frame, FrameError, JobEvent, RejectReason, Request, Response, ServerStats,
    SubmitPayload, WireError, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use vqc_runtime::{CompilationRuntime, CompileJob, JobHandle, Priority, Progress, Submission};

/// Address the server (and the `vqc-submit` client) use when `VQC_LISTEN` is
/// not set.
pub const DEFAULT_LISTEN: &str = "127.0.0.1:7878";

/// Frames a connection may have queued for its writer before its handler
/// stops reading requests. Only the handler waits on it; a submission's
/// callback may queue past it, by at most that submission's own frames.
const WRITE_BACKLOG: usize = 16;

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

fn handle_connection(shared: Arc<ServerShared>, stream: TcpStream, connection_id: u64) {
    let outcome = serve_connection(&shared, stream, connection_id);
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

/// A connection's live submissions, keyed by the client's correlation id. The
/// handler reserves an id (`None`) before `submit` and fills in the handle
/// after, if the id is still there; the writer removes it just before the
/// submission's terminal frame goes out.
type LiveSubmissions = Arc<Mutex<HashMap<u64, Option<JobHandle>>>>;

/// The sending end of a connection's writer channel, shared by the handler and
/// every submission's callback. It counts the frames queued but not yet
/// written, so the handler can wait for the writer without the senders ever
/// blocking.
#[derive(Clone)]
struct Outbox {
    frames: Sender<Response>,
    backlog: Arc<Backlog>,
}

#[derive(Default)]
struct Backlog {
    queued: AtomicUsize,
    lock: Mutex<()>,
    drained: Condvar,
}

impl Outbox {
    /// Queues one frame. Never blocks and takes no lock; the writer runs until
    /// every sender is dropped, so only a panicked writer refuses a frame.
    fn send(&self, response: Response) {
        self.backlog.queued.fetch_add(1, Ordering::SeqCst);
        let _ = self.frames.send(response);
    }

    /// Parks the handler while more than [`WRITE_BACKLOG`] frames wait for the
    /// writer.
    fn wait_for_writer(&self) {
        let backlog = &*self.backlog;
        if backlog.queued.load(Ordering::SeqCst) <= WRITE_BACKLOG {
            return;
        }
        let mut guard = backlog.lock.lock();
        while backlog.queued.load(Ordering::SeqCst) > WRITE_BACKLOG {
            backlog.drained.wait(&mut guard);
        }
    }
}

impl Backlog {
    /// Counts one frame as written (or failed). Only the writer decrements, one
    /// frame at a time, so the backlog falls back to [`WRITE_BACKLOG`] through
    /// exactly this crossing; the notify takes the lock so a handler between
    /// its check and its wait cannot miss it.
    fn written(&self) {
        if self.queued.fetch_sub(1, Ordering::SeqCst) == WRITE_BACKLOG + 1 {
            let _guard = self.lock.lock();
            self.drained.notify_all();
        }
    }
}

fn serve_connection(
    shared: &ServerShared,
    mut stream: TcpStream,
    connection_id: u64,
) -> ConnectionOutcome {
    let max_frame = shared.options.max_frame;
    let mut reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return ConnectionOutcome::Closed,
    };

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
        }) if protocol == PROTOCOL_VERSION => Priority(priority),
        handshake => {
            let refusal = match handshake {
                Ok(Request::Hello { protocol, .. }) => Response::Rejected {
                    id: 0,
                    reason: RejectReason::VersionMismatch {
                        server: PROTOCOL_VERSION,
                        client: protocol,
                    },
                },
                Ok(_) => Response::Rejected {
                    id: 0,
                    reason: RejectReason::HelloRequired,
                },
                Err(error) => Response::Error {
                    message: error.to_string(),
                },
            };
            let _ = write_frame(&mut stream, &refusal, max_frame);
            return ConnectionOutcome::Closed;
        }
    };
    let client_id = shared.next_client.fetch_add(1, Ordering::Relaxed);
    let accepted = Response::Accepted {
        client_id,
        protocol: PROTOCOL_VERSION,
        // Stamped on the telemetry epoch — the same timebase as the
        // TraceEvent stream — so the client's clock-offset estimate maps
        // server trace events directly onto its own timeline.
        server_micros: (shared.runtime.uptime_seconds() * 1_000_000.0) as u64,
    };
    if write_frame(&mut stream, &accepted, max_frame).is_err() {
        return ConnectionOutcome::Closed;
    }

    // From here on the writer thread owns the write half. Whatever remains in
    // `live` at disconnect is canceled.
    let live: LiveSubmissions = Arc::default();
    let (sender, frames) = std::sync::mpsc::channel::<Response>();
    let outbox = Outbox {
        frames: sender,
        backlog: Arc::default(),
    };
    let writer = {
        let live = Arc::clone(&live);
        let backlog = Arc::clone(&outbox.backlog);
        spawn_named(&format!("vqc-writer-{connection_id}"), move || {
            write_loop(stream, &frames, &live, &backlog, max_frame)
        })
    };
    let reply = |response: Response| outbox.send(response);
    let outcome = loop {
        // Backpressure: a client that does not read its answers stops being
        // read.
        outbox.wait_for_writer();
        match read_frame::<_, Request>(&mut reader, max_frame) {
            Ok(Request::Submit {
                id,
                payload,
                priority: submit_priority,
                trace,
            }) => {
                // The lock is never held across `submit`, which parks on a full
                // queue and plans.
                let reserved = match live.lock().entry(id) {
                    Entry::Occupied(_) => false,
                    Entry::Vacant(slot) => {
                        slot.insert(None);
                        true
                    }
                };
                if !reserved {
                    reply(Response::Rejected {
                        id,
                        reason: RejectReason::DuplicateSubmission,
                    });
                    continue;
                }
                let mut submission = build_submission(payload)
                    .with_client(client_id)
                    .with_priority(submit_priority.map(Priority).unwrap_or(priority))
                    .on_progress(forward_progress(id, outbox.clone()));
                if let Some(trace) = trace {
                    submission = submission.with_trace(trace);
                }
                match shared.runtime.submit(submission) {
                    // A submission that finished inside `submit` may have had
                    // its id released by the writer already.
                    Ok(handle) => {
                        if let Some(slot) = live.lock().get_mut(&id) {
                            *slot = Some(handle);
                        }
                    }
                    // Admission parks rather than refuses: submit fails only
                    // once the runtime is shutting down.
                    Err(_) => {
                        live.lock().remove(&id);
                        reply(Response::Rejected {
                            id,
                            reason: RejectReason::ShuttingDown,
                        });
                    }
                }
            }
            Ok(Request::Cancel { id }) => {
                let handle = live.lock().get(&id).cloned().flatten();
                match handle {
                    // The runtime reports the terminal `Canceled` through the
                    // submission's callback; nothing to send here.
                    Some(handle) => {
                        handle.cancel();
                    }
                    None => reply(Response::Rejected {
                        id,
                        reason: RejectReason::UnknownSubmission,
                    }),
                }
            }
            Ok(Request::Stats) => reply(Response::Stats {
                stats: Box::new(ServerStats {
                    client: shared.runtime.client_metrics(client_id),
                    snapshot: shared.runtime.telemetry_snapshot(),
                }),
            }),
            Ok(Request::Trace { newest }) => reply(Response::Trace {
                events: shared
                    .runtime
                    .newest_trace_events(newest.unwrap_or(usize::MAX)),
            }),
            Ok(Request::Shutdown) => break ConnectionOutcome::ShutdownRequested,
            Ok(Request::Hello { .. }) => reply(Response::Error {
                message: "connection is already authenticated".into(),
            }),
            // A well-framed payload that does not decode: tell the client and
            // keep serving — the stream is still frame-aligned.
            Err(FrameError::Decode(message)) => reply(Response::Error { message }),
            // Oversized frames poison the stream (the declared length cannot be
            // trusted to skip); everything else is a dead connection.
            Err(error @ FrameError::Oversized { .. }) => {
                reply(Response::Error {
                    message: error.to_string(),
                });
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
        let in_flight: Vec<JobHandle> = live.lock().drain().filter_map(|(_, h)| h).collect();
        for handle in in_flight {
            handle.cancel();
        }
    }
    // Every submission's callback is dropped at its terminal step (drained or
    // canceled); with the handler's sender gone too, the writer exits.
    drop(outbox);
    let _ = writer.join();
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

/// The progress callback of remote submission `id`: each step becomes one
/// frame on the connection's writer channel. It runs under the submission's
/// lock, so it only converts and sends.
fn forward_progress(id: u64, outbox: Outbox) -> impl FnMut(Progress<'_>) + Send {
    move |progress| {
        let response = match progress {
            Progress::Admitted { jobs } => Response::Event {
                id,
                event: JobEvent::Admitted { jobs },
            },
            Progress::JobDone { job, result } => Response::Event {
                id,
                event: JobEvent::JobDone {
                    job,
                    ok: result.is_ok(),
                    pulse_duration_ns: result.as_ref().map_or(0.0, |r| r.pulse_duration_ns),
                },
            },
            Progress::Done(results) => Response::Report {
                id,
                results: results
                    .into_iter()
                    .map(|result| result.map_err(|error| WireError::from(&error)))
                    .collect(),
            },
            Progress::Canceled => Response::Event {
                id,
                event: JobEvent::Canceled,
            },
        };
        outbox.send(response);
    }
}

/// The connection's one writer: writes every frame the channel carries, until
/// the handler and every in-flight submission's callback have dropped their
/// senders.
fn write_loop(
    mut stream: TcpStream,
    frames: &Receiver<Response>,
    live: &LiveSubmissions,
    backlog: &Backlog,
    max_frame: usize,
) {
    for response in frames {
        let terminal = match &response {
            Response::Report { id, .. } => Some(*id),
            Response::Event {
                id,
                event: JobEvent::Canceled,
            } => Some(*id),
            _ => None,
        };
        // Release the correlation id *before* the terminal frame goes out, so
        // a client that reuses the id the moment it sees the frame is never
        // refused as a duplicate.
        if let Some(id) = terminal {
            live.lock().remove(&id);
        }
        if let Err(error @ FrameError::Oversized { declared, max }) =
            write_frame(&mut stream, &response, max_frame)
        {
            // The frame outgrew the bound, but the client must still receive
            // *a* frame in its place, or it would wait forever: a refusal for
            // a result set, an error for an id-less reply.
            let stand_in = match (terminal, &response) {
                (Some(id), _) => Some(Response::Rejected {
                    id,
                    reason: RejectReason::ReportTooLarge { declared, max },
                }),
                (None, Response::Stats { .. } | Response::Trace { .. }) => Some(Response::Error {
                    message: error.to_string(),
                }),
                _ => None,
            };
            if let Some(stand_in) = stand_in {
                let _ = write_frame(&mut stream, &stand_in, max_frame);
            }
        }
        backlog.written();
    }
}
