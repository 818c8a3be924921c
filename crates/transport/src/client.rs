//! Blocking client library for the compilation service's TCP protocol.
//!
//! [`Client::connect`] performs the [`Request::Hello`] handshake and spawns a
//! demultiplexing reader thread: every [`Response`] frame is routed by its
//! correlation id to the [`RemoteJob`] that owns it, so any number of
//! submissions can be in flight on one connection while their events interleave
//! arbitrarily. [`RemoteJob::wait`] consumes the event stream down to the
//! terminal frame; [`RemoteJob::next_update`] exposes the stream itself
//! (`Admitted` → one `JobDone` per job → `Report`, or `Canceled`). `Admitted`
//! is the server's acknowledgement, sent once the submission is admitted and
//! expanded; it carries the job count.
//!
//! [`Client::stats`] (this client's counters and one snapshot of the whole
//! service, the one metrics pull) and [`Client::trace`] are plain
//! request/response calls. Their answers carry no correlation id; the server
//! answers them in the order it reads them, so one FIFO of waiters routes
//! every reply.

use crate::wire::{
    read_frame, write_frame, FrameError, JobEvent, RejectReason, Request, Response, ServerStats,
    SubmitPayload, WireError, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;
use vqc_core::CompilationReport;
use vqc_runtime::{Priority, TraceEvent};

/// Why a remote operation failed.
#[derive(Debug)]
pub enum RemoteError {
    /// The framing layer failed (socket error, oversized frame, undecodable
    /// payload).
    Frame(FrameError),
    /// The server refused the request.
    Rejected(RejectReason),
    /// The submission was canceled (locally via [`RemoteJob::cancel`] or by
    /// the server).
    Canceled,
    /// The connection died before the operation completed.
    Disconnected,
    /// The server broke the protocol (e.g. answered the handshake with an
    /// unexpected frame), or reported a protocol-level error.
    Protocol(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Frame(e) => write!(f, "{e}"),
            RemoteError::Rejected(reason) => write!(f, "rejected: {reason}"),
            RemoteError::Canceled => write!(f, "submission was canceled"),
            RemoteError::Disconnected => write!(f, "connection to the server was lost"),
            RemoteError::Protocol(message) => write!(f, "protocol error: {message}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<FrameError> for RemoteError {
    fn from(e: FrameError) -> Self {
        RemoteError::Frame(e)
    }
}

/// Connection parameters negotiated in the handshake.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Name reported to the server (logs/dashboards only).
    pub name: String,
    /// Default priority class for this connection's submissions.
    pub priority: Priority,
    /// Frame size bound (must be at least the server's to receive big reports).
    pub max_frame: usize,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            name: String::from("vqc-client"),
            priority: Priority::NORMAL,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

impl ClientOptions {
    /// Replaces the reported client name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Replaces the default priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// A progress update for one remote submission.
#[derive(Debug, Clone, PartialEq)]
pub enum JobUpdate {
    /// A per-submission event (`Admitted`, `JobDone`, or the terminal
    /// `Canceled`).
    Event(JobEvent),
    /// The terminal result set, one entry per job in submission order.
    Report(Vec<Result<CompilationReport, WireError>>),
    /// The server refused or dropped the submission.
    Rejected(RejectReason),
}

enum Routed {
    Update(JobUpdate),
    /// The reader thread is tearing down; no more updates will arrive.
    Lost,
}

#[derive(Default)]
struct RouteTable {
    /// Live per-submission channels, keyed by correlation id.
    routes: HashMap<u64, Sender<Routed>>,
    /// Waiters for the responses that carry no id (`Stats`, `Trace`, and
    /// protocol `Error`s), oldest first.
    replies: VecDeque<Sender<Result<Response, RemoteError>>>,
}

struct ClientShared {
    table: Mutex<RouteTable>,
    lost: AtomicBool,
}

impl ClientShared {
    fn tear_down(&self) {
        self.lost.store(true, Ordering::SeqCst);
        let mut table = self.table.lock();
        for (_, route) in table.routes.drain() {
            let _ = route.send(Routed::Lost);
        }
        for waiter in table.replies.drain(..) {
            let _ = waiter.send(Err(RemoteError::Disconnected));
        }
    }
}

/// A blocking connection to a compilation server.
#[derive(Debug)]
pub struct Client {
    writer: Arc<Mutex<TcpStream>>,
    shared: Arc<ClientShared>,
    reader_thread: Option<std::thread::JoinHandle<()>>,
    client_id: u64,
    max_frame: usize,
    next_submission: AtomicU64,
    /// The client's monotonic epoch: the timebase of [`Client::now_micros`]
    /// and of every timestamp this client stamps on its own trace spans.
    epoch: Instant,
    /// Estimated `server clock − client clock` in microseconds, from the
    /// Hello/Accepted round trip (midpoint method). Subtracting it from a
    /// server trace timestamp maps it into this client's timeline.
    clock_offset_micros: i64,
}

impl std::fmt::Debug for ClientShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientShared")
            .field("lost", &self.lost.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Connects, performs the handshake, and starts the demux reader.
    ///
    /// # Errors
    ///
    /// Fails on connection errors, a version-mismatch rejection, or a
    /// malformed handshake reply.
    pub fn connect(
        addr: impl ToSocketAddrs,
        options: ClientOptions,
    ) -> Result<Client, RemoteError> {
        let mut stream = TcpStream::connect(addr).map_err(FrameError::Io)?;
        // Latency over throughput: requests are single small frames.
        let _ = stream.set_nodelay(true);
        let max_frame = options.max_frame;
        let epoch = Instant::now();
        let sent_micros = epoch.elapsed().as_micros() as u64;
        write_frame(
            &mut stream,
            &Request::Hello {
                protocol: PROTOCOL_VERSION,
                client_name: options.name,
                priority: options.priority.0,
                // Unread by the server; the slot keeps the Hello's layout.
                weight: 1.0,
                sent_micros,
            },
            max_frame,
        )?;
        let (client_id, server_micros) = match read_frame::<_, Response>(&mut stream, max_frame)? {
            Response::Accepted {
                client_id,
                server_micros,
                ..
            } => (client_id, server_micros),
            Response::Rejected { reason, .. } => return Err(RemoteError::Rejected(reason)),
            other => {
                return Err(RemoteError::Protocol(format!(
                    "unexpected handshake reply: {other:?}"
                )))
            }
        };
        // Midpoint clock sync: assume the server stamped `server_micros`
        // halfway through the round trip. The estimate's error is bounded by
        // half the round-trip time — microseconds on loopback, and good enough
        // to lay client and server spans on one merged timeline.
        let received_micros = epoch.elapsed().as_micros() as u64;
        let clock_offset_micros =
            server_micros as i64 - ((sent_micros + received_micros) / 2) as i64;
        let shared = Arc::new(ClientShared {
            table: Mutex::new(RouteTable::default()),
            lost: AtomicBool::new(false),
        });
        let reader_shared = Arc::clone(&shared);
        let mut reader = stream.try_clone().map_err(FrameError::Io)?;
        let reader_thread = crate::server::spawn_named("vqc-demux", move || {
            while let Ok(response) = read_frame::<_, Response>(&mut reader, max_frame) {
                route_response(&reader_shared, response);
            }
            reader_shared.tear_down();
        });
        Ok(Client {
            writer: Arc::new(Mutex::new(stream)),
            shared,
            reader_thread: Some(reader_thread),
            client_id,
            max_frame,
            next_submission: AtomicU64::new(1),
            epoch,
            clock_offset_micros,
        })
    }

    /// The service client id the server assigned to this connection.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Microseconds since this client's monotonic epoch — the timebase for
    /// client-side trace spans that will be merged with the server's.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Estimated `server clock − client clock` (microseconds), from the
    /// handshake round trip. Server trace timestamps minus this offset land on
    /// this client's [`Client::now_micros`] timeline.
    pub fn clock_offset_micros(&self) -> i64 {
        self.clock_offset_micros
    }

    fn send(&self, request: &Request) -> Result<(), RemoteError> {
        if self.shared.lost.load(Ordering::SeqCst) {
            return Err(RemoteError::Disconnected);
        }
        // audit:allow(guard_blocking): the writer lock IS the frame serializer —
        // holding it across write_frame keeps request frames whole.
        let mut stream = self.writer.lock();
        write_frame(&mut *stream, request, self.max_frame)?;
        Ok(())
    }

    /// Submits work at the connection's negotiated priority.
    ///
    /// # Errors
    ///
    /// Fails if the connection is lost. Refusals (a live duplicate id, a server
    /// shutting down) surface on the returned job's stream, not here; so does
    /// admission, as the `Admitted` event, which a full server queue (and the
    /// server's planning of a new circuit) delays.
    pub fn submit(&self, payload: SubmitPayload) -> Result<RemoteJob, RemoteError> {
        self.submit_traced(payload, None, None)
    }

    /// Submits work, optionally overriding the negotiated priority and
    /// carrying a client-assigned causal trace id. The id lands in the
    /// `detail` of the server's `submitted` trace event, correlating
    /// client-side spans with the server's in a merged trace
    /// (`vqc-submit --trace-out`).
    ///
    /// # Errors
    ///
    /// Fails if the connection is lost.
    pub fn submit_traced(
        &self,
        payload: SubmitPayload,
        priority: Option<Priority>,
        trace: Option<u64>,
    ) -> Result<RemoteJob, RemoteError> {
        let id = self.next_submission.fetch_add(1, Ordering::Relaxed);
        let (sender, receiver) = std::sync::mpsc::channel();
        {
            let mut table = self.shared.table.lock();
            table.routes.insert(id, sender);
        }
        if let Err(error) = self.send(&Request::Submit {
            id,
            payload,
            priority: priority.map(|p| p.0),
            trace,
        }) {
            self.shared.table.lock().routes.remove(&id);
            return Err(error);
        }
        Ok(RemoteJob {
            id,
            updates: receiver,
            writer: Arc::clone(&self.writer),
            max_frame: self.max_frame,
        })
    }

    /// Fetches this client's slice of the counters and one snapshot of the
    /// server's telemetry, assembled when the server reads the request. Every
    /// snapshot takes the next `seq`, so successive calls see it strictly
    /// increase.
    ///
    /// # Errors
    ///
    /// Fails if the connection is lost or the server reports an error.
    pub fn stats(&self) -> Result<ServerStats, RemoteError> {
        match self.request(&Request::Stats)? {
            Response::Stats { stats } => Ok(*stats),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Fetches the server's whole lifecycle trace ring (most recent events,
    /// oldest first). Render it with [`crate::merged_chrome_trace`].
    ///
    /// # Errors
    ///
    /// Fails if the connection is lost or the server reports an error (as it
    /// does when the ring outgrows the frame bound).
    pub fn trace(&self) -> Result<Vec<TraceEvent>, RemoteError> {
        self.fetch_trace(None)
    }

    /// Fetches the newest `count` events of the server's trace ring, oldest
    /// first: the tail of what [`Client::trace`] returns.
    ///
    /// # Errors
    ///
    /// Fails if the connection is lost or the server reports an error.
    pub fn trace_newest(&self, count: usize) -> Result<Vec<TraceEvent>, RemoteError> {
        self.fetch_trace(Some(count))
    }

    fn fetch_trace(&self, newest: Option<usize>) -> Result<Vec<TraceEvent>, RemoteError> {
        match self.request(&Request::Trace { newest })? {
            Response::Trace { events } => Ok(events),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Sends a request whose answer carries no correlation id and waits for
    /// that answer. The waiter is queued under the writer lock, so waiters
    /// queue in the order their requests go out, which is the order the
    /// server answers them in.
    fn request(&self, request: &Request) -> Result<Response, RemoteError> {
        let (sender, receiver) = std::sync::mpsc::channel();
        {
            // audit:allow(guard_blocking): the writer lock IS the frame serializer —
            // holding it across write_frame keeps frames whole and waiters in order.
            let mut stream = self.writer.lock();
            {
                let mut table = self.shared.table.lock();
                // Checked under the table lock: once the reader has torn the
                // table down, nothing would ever answer a new waiter.
                if self.shared.lost.load(Ordering::SeqCst) {
                    return Err(RemoteError::Disconnected);
                }
                table.replies.push_back(sender);
            }
            if let Err(error) = write_frame(&mut *stream, request, self.max_frame) {
                // Still under the writer lock, so the newest waiter is ours.
                self.shared.table.lock().replies.pop_back();
                return Err(error.into());
            }
        }
        receiver.recv().map_err(|_| RemoteError::Disconnected)?
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Fails if the connection is already lost.
    pub fn shutdown_server(&self) -> Result<(), RemoteError> {
        self.send(&Request::Shutdown)
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Closing the socket ends the reader thread; dropping the connection
        // server-side cancels whatever this client still had in flight.
        {
            let stream = self.writer.lock();
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.reader_thread.take() {
            let _ = handle.join();
        }
    }
}

fn route_response(shared: &ClientShared, response: Response) {
    let (id, update) = match response {
        Response::Event { id, event } => (id, JobUpdate::Event(event)),
        Response::Report { id, results } => (id, JobUpdate::Report(results)),
        Response::Rejected { id, reason } => (id, JobUpdate::Rejected(reason)),
        Response::Stats { .. } | Response::Trace { .. } | Response::Error { .. } => {
            let waiter = shared.table.lock().replies.pop_front();
            if let Some(waiter) = waiter {
                let reply = match response {
                    Response::Error { message } => Err(RemoteError::Protocol(message)),
                    reply => Ok(reply),
                };
                let _ = waiter.send(reply);
            }
            return;
        }
        Response::Accepted { .. } => return,
    };
    let mut table = shared.table.lock();
    let terminal = matches!(update, JobUpdate::Report(_) | JobUpdate::Rejected(_))
        || matches!(update, JobUpdate::Event(JobEvent::Canceled));
    if terminal {
        if let Some(route) = table.routes.remove(&id) {
            let _ = route.send(Routed::Update(update));
        }
    } else if let Some(route) = table.routes.get(&id) {
        let _ = route.send(Routed::Update(update));
    }
}

/// The error for an id-less reply of the wrong kind. The server answers
/// `Stats` and `Trace` in request order, so this is a protocol violation.
fn unexpected_reply(response: &Response) -> RemoteError {
    RemoteError::Protocol(format!("unexpected reply: {response:?}"))
}

/// A submission in flight on a remote server.
#[derive(Debug)]
pub struct RemoteJob {
    id: u64,
    updates: Receiver<Routed>,
    writer: Arc<Mutex<TcpStream>>,
    max_frame: usize,
}

impl RemoteJob {
    /// The correlation id this submission travels under.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks for the next progress update.
    ///
    /// # Errors
    ///
    /// [`RemoteError::Disconnected`] once the connection is lost.
    pub fn next_update(&self) -> Result<JobUpdate, RemoteError> {
        match self.updates.recv() {
            Ok(Routed::Update(update)) => Ok(update),
            Ok(Routed::Lost) | Err(_) => Err(RemoteError::Disconnected),
        }
    }

    /// Blocks until the terminal frame and returns the per-job results.
    ///
    /// # Errors
    ///
    /// [`RemoteError::Rejected`] if the server refused the submission,
    /// [`RemoteError::Canceled`] if it was canceled,
    /// [`RemoteError::Disconnected`] if the connection died first.
    #[allow(clippy::type_complexity)]
    pub fn wait(&self) -> Result<Vec<Result<CompilationReport, WireError>>, RemoteError> {
        loop {
            match self.next_update()? {
                JobUpdate::Event(JobEvent::Canceled) => return Err(RemoteError::Canceled),
                JobUpdate::Event(_) => continue,
                JobUpdate::Report(results) => return Ok(results),
                JobUpdate::Rejected(reason) => return Err(RemoteError::Rejected(reason)),
            }
        }
    }

    /// Asks the server to cancel this submission. The cancellation is
    /// confirmed by a terminal `Canceled` event on the stream.
    ///
    /// # Errors
    ///
    /// Fails if the request cannot be written.
    pub fn cancel(&self) -> Result<(), RemoteError> {
        // audit:allow(guard_blocking): the writer lock IS the frame serializer —
        // holding it across write_frame keeps request frames whole.
        let mut stream = self.writer.lock();
        write_frame(
            &mut *stream,
            &Request::Cancel { id: self.id },
            self.max_frame,
        )?;
        Ok(())
    }
}
