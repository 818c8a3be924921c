//! Partial compilation of variational quantum algorithms — the paper's contribution.
//!
//! Four compilation strategies are implemented behind one API, spanning the
//! latency/pulse-speedup trade-off space of the paper:
//!
//! | Strategy | Pulse speedup | Runtime compilation latency |
//! |---|---|---|
//! | [`Strategy::GateBased`] | 1x (baseline) | ~zero (lookup table) |
//! | [`Strategy::StrictPartial`] | most of GRAPE's | ~zero (pre-computed Fixed blocks) |
//! | [`Strategy::FlexiblePartial`] | ≈ GRAPE | small (tuned-hyperparameter GRAPE per slice) |
//! | [`Strategy::FullGrape`] | best | huge (binary-searched GRAPE per block, per iteration) |
//!
//! The central type is [`PartialCompiler`]: configure it with a GRAPE effort level,
//! then call [`PartialCompiler::compile`] with a circuit, a parameter binding, and a
//! strategy. The compiler:
//!
//! 1. optimizes and lowers the circuit to the Table-1 basis (`vqc-circuit`),
//! 2. aggregates it into ≤4-qubit [`blocking`] blocks under the strategy's parameter
//!    policy (Fixed-only for strict, single-θ for flexible, unrestricted for GRAPE),
//! 3. compiles each block either by lookup (gate-based) or by minimum-time GRAPE
//!    (`vqc-pulse`), keeping the results in the pulse store ([`ShardedPulseCache`]),
//! 4. ASAP-schedules the block pulses to get the circuit's total pulse duration, and
//! 5. counts GRAPE iterations and measures wall seconds separately for the
//!    pre-compute phase and the per-iteration runtime phase ([`PhaseLatency`]).
//!
//! Everything a compile leaves behind — block pulses' durations, flexible tunings,
//! and the warm-start seeds that open the next search of a structure — lives in one
//! [`ShardedPulseCache`]: sharded, ranked by the GRAPE work units an entry stands
//! for × reuse, bounded by one [`CacheConfig::max_entries_per_shard`], and
//! snapshottable ([`CacheSnapshot`]; `vqc-runtime` persists it and shares one
//! store across requests).
//!
//! # Example
//!
//! ```
//! use vqc_circuit::{Circuit, ParamExpr};
//! use vqc_core::{CompilerOptions, PartialCompiler, Strategy};
//!
//! // A small variational circuit: a Fixed entangling section around one Rz(θ0).
//! let mut circuit = Circuit::new(2);
//! circuit.h(0);
//! circuit.cx(0, 1);
//! circuit.rz_expr(1, ParamExpr::theta(0));
//! circuit.cx(0, 1);
//!
//! let compiler = PartialCompiler::new(CompilerOptions::fast());
//! let gate = compiler.compile(&circuit, &[0.4], Strategy::GateBased).unwrap();
//! let strict = compiler.compile(&circuit, &[0.4], Strategy::StrictPartial).unwrap();
//! // Strict partial compilation is never slower than the gate-based baseline and pays
//! // no runtime compilation latency.
//! assert!(strict.pulse_duration_ns <= gate.pulse_duration_ns + 1e-9);
//! assert_eq!(strict.runtime.grape_iterations, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod blocking;
mod cache;
mod compiler;
mod error;
pub mod hyperparam;
mod library;
mod plan;
pub mod schedule;

pub use cache::{CacheConfig, CacheMetrics, CacheSnapshot, ShardedPulseCache};
pub use compiler::{
    BlockCompilation, BlockOutcome, CompilationReport, CompilerOptions, PartialCompiler, Strategy,
};
// audit:allow(dead_pub): CompilationReport and BlockOutcome hold one per phase
pub use compiler::PhaseLatency;
pub use error::CompileError;
pub use library::{BlockKey, CachedBlock, CachedTuning, PulseCache};
pub use plan::{CompilationPlan, PlanCacheStats};
pub use vqc_pulse::profile::{self, CompileProfile, Phase, PHASE_COUNT};
pub use vqc_pulse::{PulseSequence, SeedEntry, WarmStartStats};

// audit:allow(dead_pub): PlanData is CompilationPlan's Deref target; its fields are the plan's public surface
pub use plan::PlanData;
