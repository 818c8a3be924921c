//! What a compile leaves behind for its structural neighbours: the warm-start
//! seed.
//!
//! At production scale the dominant traffic is repeat *structures* with fresh θ
//! bindings: the paper's Figure-4 observation (hyperparameters tuned for a
//! single-angle subcircuit are robust to the value of θ) extends to the whole
//! compilation — a new θ for a known structure should open its duration binary
//! search at the structural neighbor's converged window and start every GRAPE
//! probe from the neighbor's converged amplitudes, not from the seeded sinusoid.
//!
//! A [`SeedEntry`] is what one structural key has learned so far. Records for
//! the same key [`merge`](SeedEntry::merge): the converged duration only
//! tightens downward, the non-converging lower bound only tightens upward, and
//! the best-so-far pulse follows the shortest converged duration. Where the
//! entries are kept, bounded and evicted is `vqc-core`'s pulse store's
//! business — they sit there beside the block and tuning entries, under the
//! structural block key — and [`WarmStartStats`] is how that store reports the
//! seed traffic.

use crate::minimum_time::SearchSeed;
use crate::PulseSequence;
use serde::{Deserialize, Serialize};

/// Cap on the per-duration iteration history an entry carries. The history is
/// diagnostic (it is what "depth" is measured from); the oldest records age out
/// first so a hot structure cannot grow its entry without bound.
const MAX_PROBE_HISTORY: usize = 32;

/// What one structural key has learned across every compilation of its
/// structure: tuned hyperparameters, the converged duration window, the
/// per-duration iteration history, and the best-so-far converged amplitudes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SeedEntry {
    /// Best known ADAM learning rate for this structure.
    pub learning_rate: f64,
    /// Best known learning-rate decay for this structure.
    pub decay_rate: f64,
    /// Whether the hyperparameters came from a real tuning grid (as opposed to
    /// the compiled-in defaults a strict-partial compilation ran with).
    pub tuned: bool,
    /// Shortest duration (ns) at which any binding of this structure converged.
    pub converged_duration_ns: Option<f64>,
    /// Tightest duration (ns) below which some binding failed to converge — the
    /// seeded search's lower bound.
    pub failed_below_ns: f64,
    /// `(duration_ns, iterations)` per probe, most recent last, capped; the sum
    /// of iteration counts is the entry's [`depth`](SeedEntry::depth).
    pub probe_iterations: Vec<(f64, usize)>,
    /// Converged amplitudes at `converged_duration_ns`, resampled by
    /// [`PulseSequence::resampled`] onto whatever grid the seeded probe needs.
    pub pulse: Option<PulseSequence>,
}

impl SeedEntry {
    /// Whether any binding of this structure has converged.
    pub fn converged(&self) -> bool {
        self.converged_duration_ns.is_some()
    }

    /// Total GRAPE iterations invested in this entry — what the store that
    /// keeps it costs it at: an entry backed by more search work is dearer to
    /// lose.
    pub fn depth(&self) -> u64 {
        self.probe_iterations
            .iter()
            .map(|(_, iterations)| *iterations as u64)
            .sum()
    }

    /// Appends one probe outcome to the iteration history, aging out the oldest
    /// records past the history cap.
    pub fn record_probe(&mut self, duration_ns: f64, iterations: usize) {
        self.probe_iterations.push((duration_ns, iterations));
        if self.probe_iterations.len() > MAX_PROBE_HISTORY {
            let excess = self.probe_iterations.len() - MAX_PROBE_HISTORY;
            self.probe_iterations.drain(..excess);
        }
    }

    /// The warm-start seed a duration search opens from: the entry's converged
    /// window plus its best pulse.
    pub fn search_seed(&self) -> SearchSeed {
        SearchSeed {
            lower_bound_ns: self.failed_below_ns,
            converged_duration_ns: self.converged_duration_ns,
            pulse: self.pulse.clone(),
        }
    }

    /// Merges a fresh record for the *same* key into this entry: the window
    /// only tightens (minimum converged duration, maximum failed lower bound),
    /// the pulse follows the shortest converged duration, tuned hyperparameters
    /// are preferred over defaults, and probe histories concatenate.
    pub fn merge(&mut self, other: SeedEntry) {
        if other.tuned || !self.tuned {
            self.learning_rate = other.learning_rate;
            self.decay_rate = other.decay_rate;
        }
        self.tuned |= other.tuned;
        self.failed_below_ns = self.failed_below_ns.max(other.failed_below_ns);
        let improves = match (self.converged_duration_ns, other.converged_duration_ns) {
            (Some(mine), Some(theirs)) => theirs < mine,
            (None, Some(_)) => true,
            _ => false,
        };
        if improves {
            self.converged_duration_ns = other.converged_duration_ns;
            if other.pulse.is_some() {
                self.pulse = other.pulse;
            }
        } else if self.pulse.is_none() {
            self.pulse = other.pulse;
        }
        for (duration_ns, iterations) in other.probe_iterations {
            self.record_probe(duration_ns, iterations);
        }
    }
}

/// Point-in-time warm-start effectiveness counters: seed traffic (the `table_*`
/// fields, named for the table that first held the seeds) plus seeded-vs-cold
/// GRAPE iteration totals. The `memo_*` fields (the retired
/// [`EigenMemo`](crate::EigenMemo)) read 0; the driver benchmark's
/// `pulse.memo_hit_ratio` reads them, so they stay until a benchmark change
/// retires that metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmStartStats {
    /// Seed probes answered from a stored entry.
    pub table_hits: u64,
    /// Seed probes that found nothing.
    pub table_misses: u64,
    /// Seed entries displaced by the store's capacity bound.
    pub table_evictions: u64,
    /// Always 0 (retired memo).
    pub memo_hits: u64,
    /// Always 0 (retired memo).
    pub memo_misses: u64,
    /// Total GRAPE iterations spent by seeded searches.
    pub seeded_iterations: u64,
    /// Total GRAPE iterations spent by cold searches.
    pub cold_iterations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn converged_entry(duration_ns: f64, iterations: usize) -> SeedEntry {
        let mut entry = SeedEntry {
            learning_rate: 0.1,
            decay_rate: 0.999,
            converged_duration_ns: Some(duration_ns),
            failed_below_ns: duration_ns * 0.5,
            pulse: Some(PulseSequence::zeros(2, 8, 0.5)),
            ..SeedEntry::default()
        };
        entry.record_probe(duration_ns, iterations);
        entry
    }

    #[test]
    fn same_key_records_merge_and_only_tighten_the_window() {
        let mut entry = converged_entry(4.0, 10);
        // A later, worse outcome must not widen the window...
        let mut worse = converged_entry(6.0, 5);
        worse.failed_below_ns = 1.0;
        entry.merge(worse);
        assert_eq!(entry.converged_duration_ns, Some(4.0));
        assert_eq!(entry.failed_below_ns, 2.0);
        assert_eq!(entry.depth(), 15, "probe histories concatenate");
        // ...while a better one tightens both ends and brings its pulse along.
        let mut better = converged_entry(2.5, 20);
        better.failed_below_ns = 2.2;
        better.pulse = Some(PulseSequence::zeros(2, 4, 0.5));
        entry.merge(better);
        assert_eq!(entry.converged_duration_ns, Some(2.5));
        assert_eq!(entry.failed_below_ns, 2.2);
        assert_eq!(entry.pulse.as_ref().map(PulseSequence::num_slices), Some(4));
    }

    #[test]
    fn tuned_hyperparameters_are_preferred_over_defaults() {
        let mut entry = converged_entry(3.0, 10);
        entry.tuned = true;
        entry.learning_rate = 0.3;
        // An untuned follow-up must not clobber the tuned configuration.
        entry.merge(converged_entry(3.5, 5));
        assert!(entry.tuned);
        assert_eq!(entry.learning_rate, 0.3);
    }

    #[test]
    fn probe_history_is_capped() {
        let mut entry = SeedEntry::default();
        for i in 0..(MAX_PROBE_HISTORY + 10) {
            entry.record_probe(i as f64, 1);
        }
        assert_eq!(entry.probe_iterations.len(), MAX_PROBE_HISTORY);
        // The oldest records aged out.
        assert_eq!(entry.probe_iterations[0].0, 10.0);
    }
}
