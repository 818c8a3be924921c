//! Eigendecomposition memoization across GRAPE runs.
//!
//! The duration binary search in [`crate::minimum_time`] and the hyperparameter
//! grid in `vqc-core` launch many GRAPE runs against the *same* device, and
//! some of those runs diagonalize identical slice Hamiltonians: probes that
//! restart from the same seeded guess, and re-tuning passes that replay a
//! trajectory. A slice Hamiltonian is fully determined by
//! `(Δt, control amplitudes)`, so an [`EigenMemo`] keyed by the quantized
//! amplitude vector returns the cached `(λ, V)` pair instead of re-running
//! Jacobi. Only exact replays hit: the driver benchmark measures a hit ratio
//! of 2.6e-4 on a cold pre-compute pass, which makes this module a delete
//! candidate (ROADMAP item 3) rather than a pillar.
//!
//! The memo is allocation-free on a hit: the lookup key is built in a reusable
//! scratch buffer and borrowed straight into the map (`Box<[i64]>` keys are
//! queried through `Borrow<[i64]>`). Only a miss allocates — once, for the
//! inserted entry — which the counting-allocator test in
//! `crates/pulse/tests/alloc_free.rs` asserts.

use std::collections::HashMap;

/// Quantization step for memo keys, in the amplitude unit (rad/ns) and
/// nanoseconds for Δt. Two Hamiltonians whose parameters agree to within half a
/// quantum share a cache entry; at 1e-9 rad/ns the eigensystem difference is far
/// below every convergence tolerance in the optimizer.
pub const AMPLITUDE_QUANTUM: f64 = 1e-9;

/// Default bound on stored entries. Entries are admitted first-come-first-kept:
/// once full, new systems are computed but not cached, which preserves the
/// early-trajectory entries that probes actually share.
const DEFAULT_CAPACITY: usize = 32_768;

/// One cached eigendecomposition: `H = V · diag(λ) · Vᵀ`. Slice Hamiltonians
/// are real symmetric, so the eigenvectors are stored as reals.
#[derive(Debug, Clone)]
struct EigenEntry {
    lambdas: Box<[f64]>,
    /// Row-major eigenvector matrix, `dim * dim` entries.
    vectors: Box<[f64]>,
}

/// A per-run cache of slice-Hamiltonian eigendecompositions keyed by
/// `(dim, quantized Δt, quantized control amplitudes)`.
///
/// The intended flow is a probe/store pair per slice:
/// [`EigenMemo::probe_with`] either delivers the cached `(λ, V)` through a
/// closure (hit) or arms the memo with the missed key; after computing the
/// decomposition, [`EigenMemo::store_probed`] files it under that armed key.
#[derive(Debug, Clone, Default)]
pub struct EigenMemo {
    map: HashMap<Box<[i64]>, EigenEntry>,
    /// Reusable key scratch so hits never allocate.
    key: Vec<i64>,
    /// Whether `key` holds a missed key awaiting [`EigenMemo::store_probed`].
    armed: bool,
    capacity: usize,
    hits: u64,
    misses: u64,
    rejected_inserts: u64,
}

impl EigenMemo {
    /// Creates an empty memo with the default entry bound.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an empty memo bounded to at most `max_entries` cached systems.
    pub fn with_capacity(max_entries: usize) -> Self {
        EigenMemo {
            map: HashMap::new(),
            key: Vec::new(),
            armed: false,
            capacity: max_entries,
            hits: 0,
            misses: 0,
            rejected_inserts: 0,
        }
    }

    #[inline]
    fn quantize(value: f64) -> i64 {
        (value / AMPLITUDE_QUANTUM).round() as i64
    }

    /// Looks up the eigendecomposition of the slice Hamiltonian determined by
    /// `(dim, dt_ns, amplitudes)`. On a hit, `on_hit` receives the cached
    /// eigenvalues (ascending, `dim` of them) and the row-major eigenvector
    /// matrix (`dim * dim` entries) and the call returns `true` without
    /// allocating. On a miss it returns `false` and arms the memo so the caller
    /// can compute the decomposition and file it with
    /// [`EigenMemo::store_probed`].
    pub fn probe_with(
        &mut self,
        dim: usize,
        dt_ns: f64,
        amplitudes: impl Iterator<Item = f64>,
        on_hit: impl FnOnce(&[f64], &[f64]),
    ) -> bool {
        self.key.clear();
        self.key.push(dim as i64);
        self.key.push(Self::quantize(dt_ns));
        self.key.extend(amplitudes.map(Self::quantize));
        if let Some(entry) = self.map.get(self.key.as_slice()) {
            self.hits += 1;
            self.armed = false;
            on_hit(&entry.lambdas, &entry.vectors);
            true
        } else {
            self.misses += 1;
            self.armed = true;
            false
        }
    }

    /// Files a freshly computed eigendecomposition under the key armed by the
    /// last missed [`EigenMemo::probe_with`]. A no-op if no probe is armed, or
    /// if the memo is at capacity (the system is simply not cached).
    pub fn store_probed(&mut self, lambdas: &[f64], vectors: impl Iterator<Item = f64>) {
        if !self.armed {
            return;
        }
        self.armed = false;
        if self.map.len() >= self.capacity {
            self.rejected_inserts += 1;
            return;
        }
        self.map.insert(
            self.key.clone().into_boxed_slice(),
            EigenEntry {
                lambdas: lambdas.into(),
                vectors: vectors.collect(),
            },
        );
    }

    /// Number of cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of probes that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of systems recomputed but not cached because the memo was full.
    pub fn rejected_inserts(&self) -> u64 {
        self.rejected_inserts
    }

    /// Number of cached eigendecompositions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the memo holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_miss_then_store_then_hit() {
        let mut memo = EigenMemo::new();
        let amps = [0.25, -0.5];
        assert!(!memo.probe_with(2, 0.5, amps.iter().copied(), |_, _| panic!("miss expected")));
        memo.store_probed(&[-1.0, 1.0], [1.0, 0.0, 0.0, -1.0].into_iter());
        assert_eq!(memo.len(), 1);

        let mut seen = None;
        assert!(memo.probe_with(2, 0.5, amps.iter().copied(), |l, v| {
            seen = Some((l.to_vec(), v.to_vec()));
        }));
        let (lambdas, vectors) = seen.expect("hit closure must run");
        assert_eq!(lambdas, vec![-1.0, 1.0]);
        assert_eq!(vectors[3], -1.0);
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
    }

    #[test]
    fn keys_distinguish_dim_dt_and_amplitudes() {
        let mut memo = EigenMemo::new();
        let store = |m: &mut EigenMemo| m.store_probed(&[0.0], [1.0].into_iter());
        assert!(!memo.probe_with(1, 0.5, [0.1].into_iter(), |_, _| {}));
        store(&mut memo);
        // Same amplitudes, different dt or dim: miss.
        assert!(!memo.probe_with(1, 0.25, [0.1].into_iter(), |_, _| {}));
        store(&mut memo);
        assert!(!memo.probe_with(2, 0.5, [0.1].into_iter(), |_, _| {}));
        store(&mut memo);
        // Amplitude differing by more than a quantum: miss.
        assert!(!memo.probe_with(
            1,
            0.5,
            [0.1 + 3.0 * AMPLITUDE_QUANTUM].into_iter(),
            |_, _| {}
        ));
        store(&mut memo);
        // Amplitude within half a quantum: hit.
        assert!(memo.probe_with(
            1,
            0.5,
            [0.1 + 0.4 * AMPLITUDE_QUANTUM].into_iter(),
            |_, _| {}
        ));
        assert_eq!(memo.len(), 4);
    }

    #[test]
    fn capacity_bounds_inserts() {
        let mut memo = EigenMemo::with_capacity(1);
        assert!(!memo.probe_with(1, 0.5, [0.0].into_iter(), |_, _| {}));
        memo.store_probed(&[0.0], [1.0].into_iter());
        assert!(!memo.probe_with(1, 0.5, [1.0].into_iter(), |_, _| {}));
        memo.store_probed(&[1.0], [1.0].into_iter());
        assert_eq!(memo.len(), 1, "full memo must reject new entries");
        assert_eq!(memo.rejected_inserts(), 1);
        // The retained entry still hits.
        assert!(memo.probe_with(1, 0.5, [0.0].into_iter(), |_, _| {}));
    }

    #[test]
    fn store_without_armed_probe_is_a_noop() {
        let mut memo = EigenMemo::new();
        memo.store_probed(&[0.0], [1.0].into_iter());
        assert!(memo.is_empty());
    }
}
