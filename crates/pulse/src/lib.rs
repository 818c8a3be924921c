//! GRAPE (GRadient Ascent Pulse Engineering) quantum optimal control.
//!
//! This crate implements the pulse-level compilation backend of the paper:
//!
//! * [`DeviceModel`] — the gmon superconducting system Hamiltonian of Appendix A:
//!   a charge drive (`a† + a`, realizing X rotations, max amplitude 2π·0.1 GHz), a flux
//!   drive (`a† a`, realizing Z rotations, max 2π·1.5 GHz) per qubit, and an
//!   `(a†+a)(a†+a)` coupling (max 2π·0.05 GHz) per connected pair. The 15x asymmetry
//!   between flux and charge drives is the "control field asymmetry" speedup source of
//!   Section 5.1.
//! * [`PulseSequence`] — piecewise-constant control amplitudes, one waveform per
//!   control knob, with a configurable sample period.
//! * [`propagate`] — the independent verifier: time-ordered propagation
//!   `U = Π exp(-i Δt H(t))`, dense and sharing no code with the GRAPE engine.
//! * [`grape`] — the gradient-descent loop (ADAM with learning-rate decay), the cost
//!   terms (infidelity, amplitude, smoothness regularization), and convergence control.
//! * [`workspace`] — the reusable [`GrapeWorkspace`]: every buffer one GRAPE run
//!   needs, allocated once per optimization so the iteration kernel never touches
//!   the heap. The device Hamiltonians are real symmetric, so the kernel
//!   diagonalizes and rotates them in `f64` and is complex only from the
//!   propagators on.
//! * [`lanes`] — the second lane of a wide block's iteration: one process-wide
//!   helper thread that runs half of each phase when a CPU is free, bit for bit.
//! * [`memo`] — the inert [`EigenMemo`] handle the driver benchmark still
//!   constructs; the engine no longer consults a memo.
//! * [`profile`] — phase-scoped compile-time accounting: a [`CompileProfile`]
//!   attributing each block's wall time to Hamiltonian assembly, eigensolves
//!   (with Jacobi sweep counts), propagation, gradient contraction, table
//!   probes, duration probes, and hyperparameter tuning. Disarmed it costs a
//!   single branch per instrumentation point; armed (`VQC_PROFILE=1`) it stays
//!   allocation-free.
//! * [`minimum_time`] — the binary search for the shortest pulse duration that still
//!   reaches the target fidelity (Section 5.3), warm-starting each probe from the
//!   nearest converged one — or, when the caller holds a [`SeedEntry`] for the
//!   block's structure, opening directly at the structural neighbor's converged
//!   window with the neighbor's pulse as the initial guess.
//! * [`transposition`] — the [`SeedEntry`] itself: what one structure's past
//!   compilations learned (tuned hyperparameters, a converged duration window,
//!   the best-so-far amplitudes) and how two records of it merge. `vqc-core`'s
//!   pulse store keeps the entries.
//! * [`realistic`] — the "more realistic" settings of Section 8.3: 1 GSa/s waveforms,
//!   qutrit leakage levels, and aggressive pulse regularization.
//!
//! # Example: finding a π rotation pulse
//!
//! ```
//! use vqc_pulse::{DeviceModel, grape::{GrapeOptions, optimize_pulse}};
//! use vqc_sim::gates;
//!
//! let device = DeviceModel::qubits_line(1);
//! let target = gates::rx(std::f64::consts::PI);
//! let options = GrapeOptions::fast();
//! let result = optimize_pulse(&target, &device, 3.0, &options);
//! // 3 ns is enough for an Rx(π) on this device (Table 1 lists 2.5 ns).
//! assert!(result.infidelity < 5e-2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod device;
mod error;
pub mod grape;
pub mod lanes;
pub mod memo;
pub mod minimum_time;
pub mod profile;
pub mod propagate;
mod pulse;
pub mod realistic;
pub mod transposition;
pub mod workspace;

pub use device::{ControlHamiltonian, DeviceModel};
pub use error::PulseError;
pub use memo::EigenMemo;
pub use minimum_time::SearchSeed;
pub use profile::{CompileProfile, Phase, PHASE_COUNT};
pub use pulse::PulseSequence;
pub use transposition::{SeedEntry, WarmStartStats};
pub use workspace::GrapeWorkspace;
