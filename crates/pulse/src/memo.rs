//! The retired eigendecomposition memo.
//!
//! [`EigenMemo`] cached slice-Hamiltonian eigensystems across the GRAPE runs
//! of one search. Only exact replays hit — one probe in 4 000–8 000 on the
//! driver benchmark (`pulse.memo_hit_ratio` 1.2e-4–4.1e-4) — while every slice
//! of every iteration paid for hashing its amplitudes: 5–10 % of a wide
//! block's wall time and ~25 % of a 2-qubit one's. It was also a `&mut`,
//! slice-major structure two lanes could not share, so the engine stopped
//! consulting it when [`crate::lanes`] landed.

/// An inert handle, kept because the driver benchmark (`benchmark/`, which a
/// performance change may not edit) constructs one and passes it to
/// [`crate::minimum_time::minimum_pulse_time_seeded`], and reads the
/// `memo_hits` and `memo_misses` fields of [`crate::WarmStartStats`] (which
/// now always read 0).
///
/// Finishing the removal, in order: a `benchmark` change drops
/// `pulse.memo_hit_ratio` and its three references; then this type, the
/// `&mut EigenMemo` parameter and the two `WarmStartStats` fields go.
#[derive(Debug, Clone, Default)]
pub struct EigenMemo(());

impl EigenMemo {
    /// Creates the handle. It holds nothing.
    pub fn new() -> Self {
        EigenMemo(())
    }
}
