//! Phase-scoped compile-time accounting for the GRAPE pipeline.
//!
//! `BlockCompilation::measured_seconds` (in `vqc-core`) times a whole block
//! compile at its outer boundary, which says nothing about *where* the time
//! goes — eigendecomposition, propagation sweeps, gradient contraction,
//! duration probes, or the hyperparameter grid. This module attributes that
//! wall time to a small fixed set of [`Phase`]s, producing a
//! [`CompileProfile`] per compiled block that rides back to the runtime for
//! per-phase histograms, trace spans, and regression reports.
//!
//! Design constraints, in order:
//!
//! 1. **Disarmed is a single branch.** Every instrumentation point first
//!    checks a thread-local latch (a `Cell<bool>` read); nothing else happens
//!    unless a block explicitly armed the current thread. The global armed
//!    flag (the `VQC_PROFILE` environment variable, or [`set_armed`]) is
//!    consulted only once per block in [`begin_block`], never per slice.
//! 2. **Armed is allocation-free.** Accumulation lands in const-initialized
//!    thread-local `Cell`s or on a [`Lap`]'s own stack frame — the same
//!    discipline the `alloc_free.rs` gates enforce on the gradient kernels,
//!    and they cover the armed path too. Building the [`CompileProfile`] in
//!    [`take_block`] happens once per block, outside the iteration hot loop.
//! 3. **Phases never double-count.** A [`PhaseScope`] records *self time*:
//!    child scopes and [`Lap`] marks inside it are subtracted, so summing
//!    `phase_seconds` never exceeds the block's measured wall time. The
//!    `profile_invariants.rs` proptest in `vqc-core` pins this.
//!
//! Timing inside the per-slice kernels uses the [`Lap`] mark API rather than
//! nested scopes: one raw-`ticks` read per mark (the TSC on x86_64, roughly
//! a third the cost of a vDSO `clock_gettime`), charging the interval since
//! the previous mark into the lap's stack-local counters, flushed to the
//! thread-local accumulator once when the lap drops. [`take_block`] calibrates
//! the raw ticks against wall time measured over the whole block, so the
//! profile is still reported in seconds. This keeps armed overhead on the
//! warm 2-qubit gradient path under the 5% budget asserted by the
//! `profile_overhead` bench group.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of [`Phase`] variants; the length of the per-phase arrays in
/// [`CompileProfile`].
pub const PHASE_COUNT: usize = 7;

/// A compile-pipeline phase that wall time is attributed to.
///
/// The first five phases are charged inside the gradient kernels
/// (the one `GrapeWorkspace` engine body); the last two wrap whole optimizer
/// invocations in `minimum_time.rs` and `hyperparam.rs` and therefore record
/// *self time* — the search/tuning overhead beyond the kernel phases nested
/// within them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Assembling a slice Hamiltonian from the device's control operators.
    HamiltonianAssembly,
    /// Symmetric eigendecomposition of slice Hamiltonians: closed-form 2x2,
    /// warm-started Jacobi below dim 8 (including rotating into the warm-start
    /// eigenbasis and composing out of it), Householder–QL from there up;
    /// both iterative solvers take four slices to a solve (their interleaving
    /// copies included). The solvers' iteration counts — each slice's own,
    /// whatever it was batched with: a padding lane counts nothing, and a
    /// slice that converges before its group is not charged the group's
    /// further rounds — are tallied separately via [`Lap::add_sweeps`].
    Eigendecomposition,
    /// The forward and backward sweeps through the slices' eigenbases (and
    /// the phases `e^{-iΔtλ}` they scale by).
    Propagation,
    /// The Daleckii–Krein loop and the per-control gradient contraction.
    GradientContraction,
    /// Asking the pulse store for a structure's warm-start seed. (Named for the
    /// eigendecomposition memo it also covered until the engine stopped
    /// consulting one; the name is wire- and journal-visible.)
    MemoProbe,
    /// A `minimum_time` duration-search probe: one full GRAPE run at a
    /// candidate duration. Self time only — kernel phases inside the probe
    /// are charged to themselves.
    DurationProbe,
    /// One hyperparameter-grid candidate in `tune_hyperparameters`. Self time
    /// only, like [`Phase::DurationProbe`].
    HyperparamTuning,
}

impl Phase {
    /// All phases, in `CompileProfile` array order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::HamiltonianAssembly,
        Phase::Eigendecomposition,
        Phase::Propagation,
        Phase::GradientContraction,
        Phase::MemoProbe,
        Phase::DurationProbe,
        Phase::HyperparamTuning,
    ];

    /// Stable snake_case identifier used in metrics JSON and trace exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::HamiltonianAssembly => "hamiltonian_assembly",
            Phase::Eigendecomposition => "eigendecomposition",
            Phase::Propagation => "propagation",
            Phase::GradientContraction => "gradient_contraction",
            Phase::MemoProbe => "memo_probe",
            Phase::DurationProbe => "duration_probe",
            Phase::HyperparamTuning => "hyperparam_tuning",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// Per-phase wall-time attribution for one compiled block.
///
/// Produced by [`take_block`] when profiling is armed; rides
/// `BlockCompilation` back to the runtime. `Default::default()` (all zeros)
/// means "not profiled" — cache hits and lookup-table blocks carry it.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CompileProfile {
    /// Seconds attributed to each phase, indexed by [`Phase::ALL`] order.
    pub phase_seconds: [f64; PHASE_COUNT],
    /// Number of times each phase was entered (scopes) or marked (laps).
    pub phase_counts: [u64; PHASE_COUNT],
    /// Total eigensolver iterations across all eigendecompositions: Jacobi
    /// rotation sweeps below dim 8, implicit-QL iterations from dim 8 up
    /// (about two per eigenvalue), 0 for closed-form 2x2 solves — each
    /// slice's own count, however the slices were batched. The field
    /// keeps the name it had when Jacobi was the only solver: it is wire-,
    /// journal- and `vqc-top`-visible.
    pub jacobi_sweeps: u64,
}

impl CompileProfile {
    /// Sum of all per-phase seconds. Always `<=` the block's measured wall
    /// time (self-time accounting never double-charges an interval).
    pub fn total_seconds(&self) -> f64 {
        self.phase_seconds.iter().sum()
    }

    /// Seconds attributed to `phase`.
    pub fn seconds(&self, phase: Phase) -> f64 {
        self.phase_seconds[phase.idx()]
    }

    /// Entry/mark count for `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.phase_counts[phase.idx()]
    }

    /// True when no phase recorded any time or count — the unprofiled
    /// (default) state cache hits carry.
    pub fn is_empty(&self) -> bool {
        self.phase_counts.iter().all(|&c| c == 0) && self.jacobi_sweeps == 0
    }

    /// Accumulates another profile into this one (used when a compile spans
    /// several profiled sections, and by journal aggregation in `vqc-report`).
    pub fn merge(&mut self, other: &CompileProfile) {
        for i in 0..PHASE_COUNT {
            self.phase_seconds[i] += other.phase_seconds[i];
            self.phase_counts[i] += other.phase_counts[i];
        }
        self.jacobi_sweeps += other.jacobi_sweeps;
    }
}

/// Global armed flag: initialized lazily from `VQC_PROFILE` (any value other
/// than `0` arms), overridable via [`set_armed`].
static ARMED: OnceLock<AtomicBool> = OnceLock::new();

fn armed_flag() -> &'static AtomicBool {
    ARMED.get_or_init(|| {
        let armed = match std::env::var("VQC_PROFILE") {
            Ok(value) => value != "0",
            Err(_) => false,
        };
        AtomicBool::new(armed)
    })
}

/// Whether the profiler is globally armed (`VQC_PROFILE` or [`set_armed`]).
/// Consulted once per block by [`begin_block`], not per instrumentation point.
pub fn armed() -> bool {
    armed_flag().load(Ordering::Relaxed)
}

/// Programmatically arms or disarms the profiler, overriding `VQC_PROFILE`.
/// Used by the overhead benches and tests.
pub fn set_armed(enabled: bool) {
    armed_flag().store(enabled, Ordering::Relaxed);
}

/// Reads the raw timestamp source the instrumentation charges with: the TSC
/// on x86_64 (roughly a third the cost of a vDSO `clock_gettime`, which is
/// what keeps ~3 marks per slice inside the 5% overhead budget), nanoseconds
/// on a process epoch elsewhere. The unit is deliberately opaque —
/// [`take_block`] calibrates accumulated ticks against wall time measured
/// over the whole block, so profiles come out in seconds either way.
#[inline]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` is an unprivileged baseline x86_64 instruction.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Thread-local accumulator state. `Cell`s with const initializers: touching
/// them never allocates and registers no TLS destructor, so the armed path
/// stays clean under the counting-allocator gates.
struct Accum {
    active: Cell<bool>,
    ticks: [Cell<u64>; PHASE_COUNT],
    counts: [Cell<u64>; PHASE_COUNT],
    sweeps: Cell<u64>,
    /// Ticks already charged to *some* phase on this thread since
    /// `begin_block`. Scopes snapshot it on entry; on drop, the delta is the
    /// children's time to subtract from their own elapsed interval.
    charged: Cell<u64>,
    /// The block's wall-clock anchor, `(begin instant, begin ticks)`.
    /// [`take_block`] divides the two elapsed spans to turn raw ticks into
    /// seconds, calibrated over exactly the interval the block ran.
    start: Cell<Option<(Instant, u64)>>,
}

thread_local! {
    static ACCUM: Accum = const {
        Accum {
            active: Cell::new(false),
            ticks: [const { Cell::new(0) }; PHASE_COUNT],
            counts: [const { Cell::new(0) }; PHASE_COUNT],
            sweeps: Cell::new(0),
            charged: Cell::new(0),
            start: Cell::new(None),
        }
    };
}

/// True when the *current thread* is actively accumulating (armed globally
/// and latched by [`begin_block`]). One thread-local `Cell` read.
#[inline]
pub fn active() -> bool {
    ACCUM.with(|a| a.active.get())
}

/// Arms the current thread's accumulator for one block compile, resetting all
/// counters. No-op (one atomic load) when the profiler is disarmed.
pub fn begin_block() {
    if !armed() {
        return;
    }
    ACCUM.with(|a| {
        for cell in &a.ticks {
            cell.set(0);
        }
        for cell in &a.counts {
            cell.set(0);
        }
        a.sweeps.set(0);
        a.charged.set(0);
        a.start.set(Some((Instant::now(), ticks())));
        a.active.set(true);
    });
}

/// Unlatches the current thread and returns the accumulated profile, or
/// `None` if [`begin_block`] never armed this thread.
pub fn take_block() -> Option<CompileProfile> {
    ACCUM.with(|a| {
        if !a.active.get() {
            return None;
        }
        a.active.set(false);
        // Calibrate raw ticks against the block's wall time: the seconds the
        // block took, divided by the ticks it spanned. This needs no TSC
        // frequency constant and stays exact on hosts where the tick source
        // is already nanoseconds.
        let seconds_per_tick = match a.start.take() {
            Some((started, begin_ticks)) => {
                let span_ticks = ticks().saturating_sub(begin_ticks);
                if span_ticks == 0 {
                    0.0
                } else {
                    started.elapsed().as_secs_f64() / span_ticks as f64
                }
            }
            None => 0.0,
        };
        let mut profile = CompileProfile::default();
        for i in 0..PHASE_COUNT {
            profile.phase_seconds[i] = a.ticks[i].get() as f64 * seconds_per_tick;
            profile.phase_counts[i] = a.counts[i].get();
        }
        profile.jacobi_sweeps = a.sweeps.get();
        Some(profile)
    })
}

/// RAII guard charging *self time* to a phase: elapsed wall time minus
/// whatever child scopes and [`Lap`] marks charged while it was open.
/// Construction is a single branch when the thread is not accumulating.
#[derive(Debug)]
pub struct PhaseScope {
    /// `(phase, entry ticks, charged-ticks snapshot at entry)`; `None` when
    /// the thread was not accumulating at construction.
    entered: Option<(Phase, u64, u64)>,
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        let Some((phase, entry_ticks, charged_at_entry)) = self.entered.take() else {
            return;
        };
        let total = ticks().saturating_sub(entry_ticks);
        ACCUM.with(|a| {
            let children = a.charged.get().saturating_sub(charged_at_entry);
            let self_ticks = total.saturating_sub(children);
            let i = phase.idx();
            a.ticks[i].set(a.ticks[i].get() + self_ticks);
            a.counts[i].set(a.counts[i].get() + 1);
            // The whole interval is now charged (children plus our self
            // time), so an enclosing scope subtracts it exactly once.
            a.charged.set(charged_at_entry + total);
        });
    }
}

/// Opens a [`PhaseScope`] for `phase`. Inert (no clock read) unless the
/// current thread is accumulating.
#[inline]
pub fn scope(phase: Phase) -> PhaseScope {
    let entered = if active() {
        Some((phase, ticks(), ACCUM.with(|a| a.charged.get())))
    } else {
        None
    };
    PhaseScope { entered }
}

/// Mark-based timer for per-slice kernel loops: one raw-`ticks` read per
/// [`Lap::mark`], charging the interval since the previous mark into counters
/// on the lap's own stack frame — no thread-local traffic in the loop body.
/// The totals flush to the thread-local accumulator once, when the lap drops.
/// When the thread is not accumulating, `start` reads no clock and every
/// method is a single branch on a `None`.
#[derive(Debug)]
pub struct Lap {
    /// Ticks at the previous mark; `None` when inert.
    last: Option<u64>,
    ticks: [u64; PHASE_COUNT],
    counts: [u64; PHASE_COUNT],
    sweeps: u64,
}

impl Lap {
    /// Starts a lap timer; inert when the thread is not accumulating.
    #[inline]
    pub fn start() -> Lap {
        let last = if active() { Some(ticks()) } else { None };
        Lap {
            last,
            ticks: [0; PHASE_COUNT],
            counts: [0; PHASE_COUNT],
            sweeps: 0,
        }
    }

    /// Charges the time since the previous mark (or [`Lap::start`]) to
    /// `phase` and restarts the lap from now.
    #[inline]
    pub fn mark(&mut self, phase: Phase) {
        if let Some(last) = self.last {
            let now = ticks();
            let i = phase.idx();
            self.ticks[i] += now.saturating_sub(last);
            self.counts[i] += 1;
            self.last = Some(now);
        }
    }

    /// Tallies eigensolver iterations (Jacobi sweeps or implicit-QL
    /// iterations) into the lap's stack counter (flushed with the phase
    /// totals on drop). A no-op on an inert lap, so the kernel needs no
    /// branch around it.
    #[inline]
    pub fn add_sweeps(&mut self, sweeps: u64) {
        if self.last.is_some() {
            self.sweeps += sweeps;
        }
    }
}

impl Drop for Lap {
    /// Flushes the stack-local totals to the thread-local accumulator — one
    /// TLS round trip per lap instead of one per mark. Lap intervals count as
    /// charged time, so an enclosing [`PhaseScope`] subtracts them from its
    /// self time; a lap therefore must drop before the scope that encloses it
    /// (guaranteed for locals by reverse declaration order).
    fn drop(&mut self) {
        if self.last.is_none() {
            return;
        }
        ACCUM.with(|a| {
            let mut flushed = 0;
            for i in 0..PHASE_COUNT {
                if self.counts[i] > 0 {
                    a.ticks[i].set(a.ticks[i].get() + self.ticks[i]);
                    a.counts[i].set(a.counts[i].get() + self.counts[i]);
                    flushed += self.ticks[i];
                }
            }
            if self.sweeps > 0 {
                a.sweeps.set(a.sweeps.get() + self.sweeps);
            }
            a.charged.set(a.charged.get() + flushed);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_take_block_returns_none() {
        // Never armed on this thread: scopes and laps are inert and there is
        // no profile to take.
        let mut lap = Lap::start();
        lap.mark(Phase::Propagation);
        drop(scope(Phase::DurationProbe));
        assert!(take_block().is_none());
    }

    #[test]
    fn armed_block_accumulates_and_resets() {
        set_armed(true);
        begin_block();
        assert!(active());
        {
            let _outer = scope(Phase::DurationProbe);
            let mut lap = Lap::start();
            std::thread::sleep(std::time::Duration::from_millis(2));
            lap.mark(Phase::Eigendecomposition);
            lap.add_sweeps(3);
        }
        let profile = take_block().expect("armed block must yield a profile");
        assert!(!active());
        assert!(profile.seconds(Phase::Eigendecomposition) > 0.0);
        assert_eq!(profile.count(Phase::Eigendecomposition), 1);
        assert_eq!(profile.count(Phase::DurationProbe), 1);
        assert_eq!(profile.jacobi_sweeps, 3);
        assert!(!profile.is_empty());
        // A second take without a new begin_block yields nothing.
        assert!(take_block().is_none());
        set_armed(false);
    }

    #[test]
    fn scope_records_self_time_not_child_time() {
        set_armed(true);
        begin_block();
        {
            let _outer = scope(Phase::DurationProbe);
            {
                let _inner = scope(Phase::HyperparamTuning);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        let profile = take_block().expect("profile");
        set_armed(false);
        let inner = profile.seconds(Phase::HyperparamTuning);
        let outer = profile.seconds(Phase::DurationProbe);
        assert!(inner >= 0.005, "inner scope must record the sleep: {inner}");
        assert!(
            outer < inner,
            "outer self time ({outer}) must exclude the inner scope ({inner})"
        );
    }

    #[test]
    fn merged_profiles_add_componentwise() {
        let mut a = CompileProfile::default();
        a.phase_seconds[0] = 1.0;
        a.phase_counts[0] = 2;
        a.jacobi_sweeps = 5;
        let mut b = CompileProfile::default();
        b.phase_seconds[0] = 0.5;
        b.phase_counts[0] = 1;
        b.jacobi_sweeps = 7;
        a.merge(&b);
        assert_eq!(a.phase_seconds[0], 1.5);
        assert_eq!(a.phase_counts[0], 3);
        assert_eq!(a.jacobi_sweeps, 12);
        assert!((a.total_seconds() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn phase_names_are_unique_and_ordered() {
        let mut seen = std::collections::HashSet::new();
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(*phase as usize, i, "ALL must follow discriminant order");
            assert!(seen.insert(phase.name()), "duplicate name {}", phase.name());
        }
        assert_eq!(seen.len(), PHASE_COUNT);
    }
}
