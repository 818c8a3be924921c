//! Network transport for the compilation service: the runtime's submission
//! front-end served over TCP.
//!
//! The `vqc-runtime` request scheduler is in-process; this crate is the
//! "Transport" seam on top of it — remote clients submit work, observe
//! progress, and read fairness metrics over a socket:
//!
//! * [`wire`] — the typed protocol: length-prefixed, size-bounded, versioned
//!   frames carrying bincode-encoded [`Request`] / [`Response`] messages
//!   (`Hello`/`Submit`/`Cancel`/`Stats`/`Trace`/`Shutdown` in,
//!   `Accepted`/`Event`/`Report`/`Rejected`/`Stats`/`Trace`/`Error` out).
//!   `Stats` is the one metrics pull: the client's slice of the counters and
//!   one [`vqc_runtime::MetricsSnapshot`] of the whole service.
//! * [`Server`] — a multi-threaded `std::net` listener fronting a shared
//!   [`vqc_runtime::CompilationRuntime`]. Each connection handshakes via
//!   `Hello` (protocol-version check) and is mapped to a service client id at
//!   its negotiated priority. A connection runs two threads, a request reader
//!   and the one writer of its frames; the runtime pushes each submission's
//!   `Admitted` and per-job completion events to that writer as blocks
//!   finish, and a dropped connection cancels its in-flight submissions so
//!   remote failures cannot pin queue capacity. Graceful shutdown drains
//!   everything admitted.
//! * [`Client`] / [`RemoteJob`] — the blocking client: one demux reader
//!   thread routes interleaved responses to any number of in-flight
//!   submissions ([`RemoteJob::wait`] for results, [`RemoteJob::next_update`]
//!   for the event stream, [`RemoteJob::cancel`] to abort).
//! * [`tracemerge`] — the one Chrome `trace_event` renderer: the client's
//!   local spans and the server's lifecycle trace merged onto one timeline
//!   using the `Hello`/`Accepted` clock-offset estimate
//!   (`vqc-submit --trace-out`), or the server's trace alone
//!   (`vqc-top --dump-trace`).
//!
//! The `vqc-serve` / `vqc-submit` binaries in `crates/apps` wrap the two ends
//! for the command line; `VQC_LISTEN`, `VQC_MAX_FRAME`, and `VQC_MAX_CONNS`
//! configure the server side.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vqc_circuit::Circuit;
//! use vqc_core::{CompilerOptions, Strategy};
//! use vqc_runtime::{CompilationRuntime, RuntimeOptions};
//! use vqc_transport::{Client, ClientOptions, Server, ServerOptions, SubmitPayload};
//!
//! let runtime = Arc::new(CompilationRuntime::new(
//!     CompilerOptions::fast(),
//!     RuntimeOptions::with_workers(2),
//! ));
//! let server = Server::bind("127.0.0.1:0", runtime, ServerOptions::default()).unwrap();
//!
//! let client = Client::connect(server.local_addr(), ClientOptions::default()).unwrap();
//! let mut circuit = Circuit::new(2);
//! circuit.h(0);
//! circuit.cx(0, 1);
//! let job = client
//!     .submit(SubmitPayload::Iterations {
//!         circuit,
//!         parameter_sets: vec![vec![], vec![]],
//!         strategy: Strategy::GateBased,
//!     })
//!     .unwrap();
//! let results = job.wait().unwrap();
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod server;
pub mod tracemerge;
pub mod wire;

pub use client::{Client, ClientOptions, JobUpdate, RemoteError};
pub use server::{Server, ServerOptions, DEFAULT_LISTEN};
pub use tracemerge::{merged_chrome_trace, ClientSpan};
pub use wire::{
    JobEvent, RejectReason, Request, Response, ServerStats, SubmitPayload, WireError, WireJob,
    DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};

// audit:allow(dead_pub): RemoteJob is what Client::submit returns
pub use client::RemoteJob;
