//! Umbrella crate for the partial-compilation reproduction.
//!
//! This workspace reproduces *Gokhale et al., "Partial Compilation of Variational
//! Algorithms for Noisy Intermediate-Scale Quantum Machines" (MICRO-52, 2019)* as a set
//! of Rust crates. This crate simply re-exports the workspace so examples and
//! integration tests can use one import path; the interesting code lives in:
//!
//! * [`linalg`] — complex dense linear algebra (matrices, `expm`, `eigh`, fidelities).
//! * [`circuit`] — the quantum-circuit IR, transpiler passes, scheduling, and routing.
//! * [`sim`] — unitary / state-vector simulation and Pauli-operator expectation values.
//! * [`pulse`] — GRAPE quantum optimal control against the gmon device model.
//! * [`apps`] — the VQE-UCCSD and QAOA MAXCUT benchmark generators and the classical
//!   optimizer closing the variational loop.
//! * [`core`] — the paper's contribution: gate-based, strict partial, flexible partial,
//!   and full-GRAPE compilation behind one [`core::PartialCompiler`] API.
//! * [`runtime`] — the request-scheduling compilation service: a sharded pulse cache,
//!   a bounded-admission submission front-end with per-client priorities (a full
//!   queue parks the submitter), a scheduler that merges and deduplicates block tasks across
//!   requests onto a persistent worker pool, a synchronous batch API over many
//!   circuits / variational iterations, and persistent cache warm-start.
//! * [`transport`] — the service served over TCP: a length-prefixed, versioned,
//!   bincode-encoded wire protocol, a multi-threaded server that maps authenticated
//!   connections to service client ids (streaming per-job completion events and
//!   canceling on disconnect), and a blocking client library. The `vqc-serve` /
//!   `vqc-submit` binaries in `crates/apps` wrap the two ends.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the reproduction of every table and figure.

pub use vqc_apps as apps;
pub use vqc_circuit as circuit;
pub use vqc_core as core;
pub use vqc_linalg as linalg;
pub use vqc_pulse as pulse;
pub use vqc_runtime as runtime;
pub use vqc_sim as sim;
pub use vqc_transport as transport;
