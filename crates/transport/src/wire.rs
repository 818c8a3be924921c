//! The typed wire protocol: framing, requests, responses, events.
//!
//! Every message travels as one *frame*: a little-endian `u32` length prefix
//! followed by that many bytes of bincode-encoded payload (the workspace's
//! fixed little-endian binary format). Frames are bounded by a negotiated
//! maximum ([`DEFAULT_MAX_FRAME`], `VQC_MAX_FRAME` on the server) so a hostile
//! or corrupt length prefix cannot trigger an unbounded allocation; an
//! oversized frame is a protocol fault that closes the connection, while a
//! well-framed payload that fails to decode is survivable (the stream remains
//! frame-aligned and the peer is told via [`Response::Error`]).
//!
//! The protocol is versioned out-of-band of the payload encoding: the first
//! frame on every connection must be [`Request::Hello`] carrying
//! [`PROTOCOL_VERSION`]; the server answers [`Response::Accepted`] (assigning
//! the connection its service client id) or [`Response::Rejected`] with
//! [`RejectReason::VersionMismatch`] and hangs up.

use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};
use vqc_circuit::Circuit;
use vqc_core::{CompilationReport, CompileError, Strategy};
use vqc_runtime::{ClientMetrics, MetricsSnapshot, TraceEvent};

/// Version of the wire protocol spoken by this build. Bumped on any change to
/// the frame layout or the message enums below. Version 2 added a pushed
/// metrics stream, [`Request::Trace`] / [`Response::Trace`], and the
/// uptime/snapshot fields of [`ServerStats`].
/// Version 3 added the causal-trace fields: `sent_micros` on
/// [`Request::Hello`] and `server_micros` on [`Response::Accepted`] (one
/// round-trip clock-offset estimate), the client-assigned `trace` id on
/// [`Request::Submit`], and the `span_micros` duration on
/// [`vqc_runtime::TraceEvent`]. Version 4 removed what only the deleted
/// fail-fast and load-shedding admission modes could produce (two reject
/// reasons, a wire status, a trace stage, and two counters each of the
/// metrics types) plus two always-zero [`vqc_core::WarmStartStats`] fields:
/// a full queue now parks the submitting connection instead. Version 5
/// removed the not-yet-expanded stage: the `Queued` wire status and the
/// snapshot's per-class count of submissions in it (a submission is expanded
/// before it is acknowledged). Version 6 made metrics a pull: a `Metrics`
/// request answered with one snapshot reply, each in the variant slot of the
/// stream it replaced; [`ServerStats`] lost its snapshot cursor; and the
/// server stopped reading the Hello's `weight`.
/// Version 7 acknowledges a submission with one [`JobEvent::Admitted`],
/// carrying its job count, in the slot of the two events that always went
/// out back to back; and it drops the status poll that nothing sent (its
/// request, its event and the wire status type). Version 8 makes
/// [`Request::Stats`] the one metrics pull: its [`ServerStats`] reply carries
/// the requesting client's slice and one [`MetricsSnapshot`] (the runtime's
/// counters and uptime among its fields), so the `Metrics` request and reply,
/// and the stats' own counter, uptime and client-id fields, are gone.
/// Version 9 sends each latency distribution of the snapshot as a
/// [`vqc_runtime::LatencySummary`] (count, mean, p50/p95/p99) in place of its
/// 44 raw histogram buckets, which cuts a `Stats` reply without phase rows
/// from ~2.5 KB to under 1 KB; and [`Request::Trace`] carries how many of
/// the newest events to send (`None`: the whole ring). Version 10 drops the
/// model-estimated seconds from each phase of a [`vqc_core::CompilationReport`]:
/// a [`vqc_core::PhaseLatency`] is counted GRAPE iterations and measured
/// seconds only.
/// [`Response::Rejected`] and [`RejectReason::VersionMismatch`] keep their
/// variant indices, and [`Request::Hello`] its layout, so a client of any
/// version can decode the refusal of its Hello.
pub const PROTOCOL_VERSION: u32 = 10;

/// Default cap on one frame's payload size (8 MiB), server- and client-side.
pub const DEFAULT_MAX_FRAME: usize = 8 * 1024 * 1024;

/// Bytes of the length prefix that precedes every payload.
pub const FRAME_HEADER_BYTES: usize = 4;

/// A fault at the framing layer.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// An underlying socket read or write failed.
    Io(std::io::Error),
    /// A frame declared a payload larger than the configured bound. The stream
    /// cannot be re-aligned (the declared length is untrustworthy), so the
    /// connection must be closed.
    Oversized {
        /// Declared payload length.
        declared: usize,
        /// The configured bound it exceeded.
        max: usize,
    },
    /// A complete frame arrived but its payload did not decode as the expected
    /// type. The stream is still frame-aligned; the connection may continue.
    Decode(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::Oversized { declared, max } => {
                write!(
                    f,
                    "frame declares {declared} bytes, exceeding the {max}-byte bound"
                )
            }
            FrameError::Decode(message) => write!(f, "undecodable frame: {message}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Fails if the encoded payload exceeds `max_frame` or the write fails.
pub fn write_frame<W: Write, T: Serialize>(
    writer: &mut W,
    message: &T,
    max_frame: usize,
) -> Result<(), FrameError> {
    let mut frame = vec![0u8; FRAME_HEADER_BYTES];
    bincode::serialize_into(&mut frame, message)
        .map_err(|e| FrameError::Decode(format!("encoding failed: {e}")))?;
    let declared = frame.len() - FRAME_HEADER_BYTES;
    if declared > max_frame {
        return Err(FrameError::Oversized {
            declared,
            max: max_frame,
        });
    }
    frame[..FRAME_HEADER_BYTES].copy_from_slice(&(declared as u32).to_le_bytes());
    // One write per frame: header and payload in a single segment keeps a
    // naive TCP stack from pairing Nagle's algorithm with the peer's delayed
    // ACK (a ~40ms stall per round trip on small frames).
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame and decodes it.
///
/// # Errors
///
/// [`FrameError::Closed`] on a clean EOF at a frame boundary,
/// [`FrameError::Oversized`] if the declared length exceeds `max_frame`,
/// [`FrameError::Decode`] if the payload does not decode, [`FrameError::Io`]
/// otherwise.
pub fn read_frame<R: Read, T: Deserialize>(
    reader: &mut R,
    max_frame: usize,
) -> Result<T, FrameError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    if let Err(e) = reader.read_exact(&mut header) {
        return Err(if e.kind() == ErrorKind::UnexpectedEof {
            FrameError::Closed
        } else {
            FrameError::Io(e)
        });
    }
    let declared = u32::from_le_bytes(header) as usize;
    if declared > max_frame {
        return Err(FrameError::Oversized {
            declared,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; declared];
    reader.read_exact(&mut payload)?;
    bincode::deserialize(&payload).map_err(|e| FrameError::Decode(e.to_string()))
}

/// One compile job of a wire submission (mirrors `vqc_runtime::CompileJob`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireJob {
    /// The (possibly parameterized) circuit to compile.
    pub circuit: Circuit,
    /// Parameter binding for this job.
    pub params: Vec<f64>,
    /// Compilation strategy.
    pub strategy: Strategy,
}

/// What a [`Request::Submit`] asks the service to compile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SubmitPayload {
    /// Independent jobs, one result each.
    Batch(Vec<WireJob>),
    /// One circuit at many parameter bindings under one strategy (planned once —
    /// the paper's variational-loop workload).
    Iterations {
        /// The parameterized circuit.
        circuit: Circuit,
        /// One binding per variational iteration.
        parameter_sets: Vec<Vec<f64>>,
        /// Compilation strategy shared by every binding.
        strategy: Strategy,
    },
}

impl SubmitPayload {
    /// Number of jobs (and therefore results) the payload expands to.
    pub fn job_count(&self) -> usize {
        match self {
            SubmitPayload::Batch(jobs) => jobs.len(),
            SubmitPayload::Iterations { parameter_sets, .. } => parameter_sets.len(),
        }
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Connection handshake; must be the first frame. Negotiates the protocol
    /// version and the connection's default scheduling class.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Human-readable client name (for logs and dashboards; not an identity).
        client_name: String,
        /// Default priority class for this connection's submissions.
        priority: u8,
        /// Not read since version 6: every client's fair-share clock advances
        /// by the estimated cost of its work, whatever it claims. The slot
        /// keeps the Hello's layout; the decoder rejects trailing bytes, so
        /// without it an older client's Hello would fail to decode instead of
        /// earning a `VersionMismatch`.
        weight: f64,
        /// The client's monotonic clock (microseconds since its own epoch) at
        /// the instant the Hello was sent. Paired with
        /// [`Response::Accepted::server_micros`] and the client's receive
        /// timestamp, one round trip yields a clock-offset estimate good
        /// enough to merge client and server trace spans onto one timeline.
        sent_micros: u64,
    },
    /// Submit work. `id` is a client-chosen correlation id echoed on every
    /// response concerning this submission; reusing a live id is rejected.
    Submit {
        /// Client-chosen correlation id.
        id: u64,
        /// What to compile.
        payload: SubmitPayload,
        /// Overrides the connection's negotiated priority for this submission.
        priority: Option<u8>,
        /// Client-assigned causal trace id, surfaced in the `detail` of the
        /// server's `submitted` trace event so merged traces can correlate the
        /// two processes' spans.
        trace: Option<u64>,
    },
    /// Cancel one running submission.
    Cancel {
        /// Correlation id of the submission.
        id: u64,
    },
    /// Fetch one telemetry snapshot, assembled when the server reads the
    /// request, plus this client's slice of the counters, answered with
    /// [`Response::Stats`]. Like `Trace`, it is answered inline, in request
    /// order.
    Stats,
    /// Fetch the server's buffered lifecycle trace ring (oldest event first),
    /// answered with [`Response::Trace`] — render it with
    /// [`crate::merged_chrome_trace`] for `chrome://tracing` / Perfetto.
    Trace {
        /// How many of the newest events to send; `None` sends the whole
        /// ring.
        newest: Option<usize>,
    },
    /// Ask the server to shut down gracefully (drains in-flight work).
    Shutdown,
}

/// An asynchronous per-submission notification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobEvent {
    /// The submission was admitted and planned: the acknowledgement of a
    /// `Submit`, which a full server queue delays. Always the first event;
    /// sent before the submission's block tasks reach the workers.
    Admitted {
        /// Number of jobs, and so of results, the submission resolves.
        jobs: usize,
    },
    /// One job of the submission completed — streamed as its blocks finish,
    /// before the terminal [`Response::Report`] carries the full result set.
    JobDone {
        /// Submission-order index of the completed job.
        job: usize,
        /// Whether the job compiled successfully.
        ok: bool,
        /// The compiled pulse duration (ns); `0.0` for failed jobs.
        pulse_duration_ns: f64,
    },
    /// The submission was canceled (client request or disconnect).
    Canceled,
}

/// Why the server refused a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The Hello's protocol version does not match the server's.
    VersionMismatch {
        /// The server's [`PROTOCOL_VERSION`].
        server: u32,
        /// The version the client sent.
        client: u32,
    },
    /// The service (or server) is shutting down.
    ShuttingDown,
    /// The correlation id names no live submission of this connection.
    UnknownSubmission,
    /// The correlation id is already bound to a live submission.
    DuplicateSubmission,
    /// A non-Hello frame arrived before the handshake completed.
    HelloRequired,
    /// The server is at its connection limit.
    ConnectionLimit {
        /// The configured limit.
        max: usize,
    },
    /// The submission completed but its encoded result set exceeds the frame
    /// bound; the work is done (and cached server-side) but the report cannot
    /// be delivered. Raise `VQC_MAX_FRAME` or split the submission.
    ReportTooLarge {
        /// Encoded size of the report that could not be sent.
        declared: usize,
        /// The configured frame bound.
        max: usize,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::VersionMismatch { server, client } => {
                write!(
                    f,
                    "protocol version mismatch: server speaks {server}, client sent {client}"
                )
            }
            RejectReason::ShuttingDown => write!(f, "the server is shutting down"),
            RejectReason::UnknownSubmission => write!(f, "unknown submission id"),
            RejectReason::DuplicateSubmission => write!(f, "submission id is already in use"),
            RejectReason::HelloRequired => write!(f, "the first frame must be Hello"),
            RejectReason::ConnectionLimit { max } => {
                write!(f, "server is at its connection limit of {max}")
            }
            RejectReason::ReportTooLarge { declared, max } => {
                write!(
                    f,
                    "the {declared}-byte report exceeds the {max}-byte frame bound; raise VQC_MAX_FRAME or split the submission"
                )
            }
        }
    }
}

/// A compile failure flattened for the wire. `vqc_core::CompileError` wraps
/// crate-internal error types that do not serialize; the structured case remote
/// clients act on (wrong parameter count) survives, everything else carries its
/// rendered message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireError {
    /// The parameter vector is shorter than the circuit requires.
    MissingParameters {
        /// Number of parameters supplied.
        supplied: usize,
        /// Number the circuit references.
        required: usize,
    },
    /// Any other compile error, rendered.
    Message(String),
}

impl From<&CompileError> for WireError {
    fn from(error: &CompileError) -> Self {
        match error {
            CompileError::MissingParameters { supplied, required } => {
                WireError::MissingParameters {
                    supplied: *supplied,
                    required: *required,
                }
            }
            other => WireError::Message(other.to_string()),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::MissingParameters { supplied, required } => write!(
                f,
                "parameter binding has {supplied} entries but the circuit references {required} parameters"
            ),
            WireError::Message(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for WireError {}

/// The answer to [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// The requesting client's slice of the counters.
    pub client: ClientMetrics,
    /// The whole service, assembled when the server read the request. Every
    /// snapshot takes the next `seq`, so successive answers carry strictly
    /// increasing numbers.
    pub snapshot: MetricsSnapshot,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Hello accepted: the connection is authenticated and mapped to a service
    /// client id; all fair-share accounting and per-client metrics key on it.
    Accepted {
        /// The client id assigned to this connection.
        client_id: u64,
        /// The server's protocol version (equals the client's after a
        /// successful handshake).
        protocol: u32,
        /// The server's monotonic clock (microseconds since its service core
        /// started — the timebase of every [`vqc_runtime::TraceEvent`]) when
        /// it answered the Hello. The client estimates
        /// `offset = server_micros - (send + receive) / 2` and maps server
        /// trace timestamps into its own timeline by subtracting it.
        server_micros: u64,
    },
    /// An asynchronous notification about one submission.
    Event {
        /// Correlation id the client chose at submit.
        id: u64,
        /// What happened.
        event: JobEvent,
    },
    /// Terminal result of a submission: one result per job, submission order.
    Report {
        /// Correlation id the client chose at submit.
        id: u64,
        /// Per-job results.
        results: Vec<Result<CompilationReport, WireError>>,
    },
    /// A request was refused.
    Rejected {
        /// Correlation id of the refused request (`0` for connection-level
        /// refusals such as the handshake).
        id: u64,
        /// Why.
        reason: RejectReason,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// The client's slice and the service snapshot (boxed: it is by far
        /// the largest reply; the encoding is the unboxed one).
        stats: Box<ServerStats>,
    },
    /// Answer to [`Request::Trace`]: the server's buffered lifecycle events,
    /// oldest first.
    Trace {
        /// The buffered trace events.
        events: Vec<TraceEvent>,
    },
    /// A protocol-level failure (malformed frame, internal error). The
    /// connection survives when the stream is still frame-aligned.
    Error {
        /// Rendered description.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &request, DEFAULT_MAX_FRAME).unwrap();
        let mut cursor = &buffer[..];
        let decoded: Request = read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(decoded, request);
        assert!(cursor.is_empty(), "frame consumed exactly");
    }

    #[test]
    fn requests_round_trip_through_frames() {
        let mut circuit = Circuit::new(2);
        circuit.h(0);
        circuit.cx(0, 1);
        round_trip_request(Request::Hello {
            protocol: PROTOCOL_VERSION,
            client_name: "test".into(),
            priority: 8,
            weight: 2.0,
            sent_micros: 123_456,
        });
        round_trip_request(Request::Submit {
            id: 7,
            payload: SubmitPayload::Iterations {
                circuit: circuit.clone(),
                parameter_sets: vec![vec![0.1], vec![0.9]],
                strategy: Strategy::StrictPartial,
            },
            priority: Some(16),
            trace: Some(0xDEAD_BEEF),
        });
        round_trip_request(Request::Submit {
            id: 8,
            payload: SubmitPayload::Batch(vec![WireJob {
                circuit,
                params: vec![],
                strategy: Strategy::GateBased,
            }]),
            priority: None,
            trace: None,
        });
        round_trip_request(Request::Cancel { id: 7 });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Trace { newest: None });
        round_trip_request(Request::Trace { newest: Some(8) });
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip_through_frames() {
        for response in [
            Response::Accepted {
                client_id: 3,
                protocol: PROTOCOL_VERSION,
                server_micros: 42_000,
            },
            Response::Event {
                id: 7,
                event: JobEvent::Admitted { jobs: 3 },
            },
            Response::Event {
                id: 7,
                event: JobEvent::JobDone {
                    job: 1,
                    ok: true,
                    pulse_duration_ns: 120.5,
                },
            },
            Response::Rejected {
                id: 0,
                reason: RejectReason::VersionMismatch {
                    server: PROTOCOL_VERSION,
                    client: 999,
                },
            },
            Response::Error {
                message: "undecodable frame".into(),
            },
            Response::Stats {
                stats: Box::new(ServerStats {
                    client: ClientMetrics {
                        submissions: 3,
                        cache_hits: 2,
                        queue_seconds: 0.25,
                        ..ClientMetrics::default()
                    },
                    snapshot: MetricsSnapshot {
                        seq: 5,
                        uptime_seconds: 12.25,
                        runtime: vqc_runtime::RuntimeMetrics {
                            workers: 4,
                            completed_submissions: 3,
                            ..vqc_runtime::RuntimeMetrics::default()
                        },
                        busy_workers: 2,
                        classes: vec![vqc_runtime::ClassLatency {
                            class: 2,
                            queue_wait: vqc_runtime::LatencySummary {
                                count: 3,
                                mean_seconds: 0.5,
                                p50_seconds: 0.25,
                                p95_seconds: 1.0,
                                p99_seconds: 2.0,
                            },
                            ..vqc_runtime::ClassLatency::default()
                        }],
                        ..MetricsSnapshot::default()
                    },
                }),
            },
            Response::Trace {
                events: vec![TraceEvent {
                    submission: 9,
                    client: Some(4),
                    stage: vqc_runtime::TraceStage::Dispatched,
                    micros: 1234,
                    detail: 7,
                    span_micros: 0,
                }],
            },
        ] {
            let mut buffer = Vec::new();
            write_frame(&mut buffer, &response, DEFAULT_MAX_FRAME).unwrap();
            let decoded: Response = read_frame(&mut &buffer[..], DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn the_hello_refusal_decodes_under_every_protocol_version() {
        // `Rejected` is variant 3 of `Response` and `VersionMismatch` variant 0
        // of `RejectReason` in every version, so a client of any version reads
        // why its Hello was refused.
        let refusal = Response::Rejected {
            id: 0,
            reason: RejectReason::VersionMismatch {
                server: PROTOCOL_VERSION,
                client: 3,
            },
        };
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &refusal, DEFAULT_MAX_FRAME).unwrap();
        let mut expected = 3u32.to_le_bytes().to_vec();
        expected.extend_from_slice(&0u64.to_le_bytes());
        for word in [0, PROTOCOL_VERSION, 3u32] {
            expected.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(buffer[FRAME_HEADER_BYTES..], expected[..]);
    }

    #[test]
    fn the_hello_keeps_its_layout_across_versions() {
        // `Hello` is variant 0 of `Request`, and its fields — `weight`
        // included, unread since version 6 — keep their order and widths, so
        // a server of any version decodes any client's Hello far enough to
        // refuse it.
        let hello = Request::Hello {
            protocol: 5,
            client_name: "old".into(),
            priority: 8,
            weight: 1.0,
            sent_micros: 42,
        };
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &hello, DEFAULT_MAX_FRAME).unwrap();
        let mut expected = 0u32.to_le_bytes().to_vec();
        expected.extend_from_slice(&5u32.to_le_bytes());
        expected.extend_from_slice(&3u64.to_le_bytes());
        expected.extend_from_slice(b"old");
        expected.push(8);
        expected.extend_from_slice(&1.0f64.to_le_bytes());
        expected.extend_from_slice(&42u64.to_le_bytes());
        assert_eq!(buffer[FRAME_HEADER_BYTES..], expected[..]);
    }

    #[test]
    fn oversized_and_truncated_frames_are_faults() {
        // A header declaring more than the bound.
        let header = (64u32).to_le_bytes();
        assert!(matches!(
            read_frame::<_, Request>(&mut &header[..], 16),
            Err(FrameError::Oversized {
                declared: 64,
                max: 16
            })
        ));
        // A clean EOF between frames is Closed, not Io.
        assert!(matches!(
            read_frame::<_, Request>(&mut &[][..], 16),
            Err(FrameError::Closed)
        ));
        // Garbage of the declared length is a Decode fault (stream stays aligned).
        let mut buffer = (4u32).to_le_bytes().to_vec();
        buffer.extend_from_slice(&[0xff, 0xff, 0xff, 0xff]);
        assert!(matches!(
            read_frame::<_, Request>(&mut &buffer[..], 16),
            Err(FrameError::Decode(_))
        ));
    }
}
