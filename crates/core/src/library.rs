//! The pulse library: a cache of GRAPE results keyed by block content.
//!
//! Strict partial compilation's whole point is that Fixed blocks can be compiled once
//! and looked up forever after; and even for full GRAPE, identical blocks recur both
//! within a circuit (repeated QAOA rounds) and across variational iterations. The
//! library is shared behind a mutex so the benchmark harness can compile blocks from
//! multiple worker threads.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use vqc_circuit::Circuit;
use vqc_pulse::{SeedEntry, TableConfig, TranspositionTable, WarmStartStats};

/// A canonical fingerprint of a (bound or structural) block circuit.
///
/// Two blocks with the same key are guaranteed to have the same gates on the same
/// local qubit indices with the same angles (rounded to 10⁻⁹), so a cached compilation
/// result can be reused.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockKey(String);

impl BlockKey {
    /// Builds the key of a *bound* block circuit (angles included).
    pub fn from_bound_circuit(circuit: &Circuit) -> Self {
        let mut key = format!("q{}|", circuit.num_qubits());
        for op in circuit.iter() {
            key.push_str(op.gate.name());
            for q in &op.qubits {
                key.push_str(&format!(",{q}"));
            }
            if let Some(angle) = op.gate.angle() {
                if angle.is_parameterized() {
                    // audit:allow(unwrap): guarded by angle.is_parameterized() on the line above
                    key.push_str(&format!("[θ{}]", angle.parameter().expect("parameterized")));
                } else {
                    key.push_str(&format!("[{:.9}]", angle.evaluate(&[])));
                }
            }
            key.push(';');
        }
        BlockKey(key)
    }

    /// The qubit count encoded in the key's `q{n}|` prefix (0 if the key is
    /// malformed). Both bound and structural keys carry it, so cache layers can
    /// estimate a cached entry's recompute cost (which scales as `dim³ = 8ⁿ`) without
    /// access to the originating circuit.
    pub fn num_qubits(&self) -> usize {
        let digits = self
            .0
            .strip_prefix("s|")
            .unwrap_or(&self.0)
            .strip_prefix('q')
            .and_then(|rest| rest.split('|').next());
        digits.and_then(|d| d.parse().ok()).unwrap_or(0)
    }

    /// Builds a *structural* key that ignores the numeric values of parameterized
    /// angles (but keeps constant angles). Used to cache per-subcircuit hyperparameters
    /// and minimum durations, which the paper observes are robust to the θ argument.
    pub fn structural(circuit: &Circuit) -> Self {
        let mut key = format!("s|q{}|", circuit.num_qubits());
        for op in circuit.iter() {
            key.push_str(op.gate.name());
            for q in &op.qubits {
                key.push_str(&format!(",{q}"));
            }
            if let Some(angle) = op.gate.angle() {
                if angle.is_parameterized() {
                    key.push_str("[θ]");
                } else {
                    key.push_str(&format!("[{:.9}]", angle.evaluate(&[])));
                }
            }
            key.push(';');
        }
        BlockKey(key)
    }
}

/// A cached block compilation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedBlock {
    /// Minimum pulse duration found for the block, in nanoseconds.
    pub duration_ns: f64,
    /// Whether GRAPE converged (if not, `duration_ns` is the gate-based fallback).
    pub converged: bool,
    /// Total GRAPE iterations that were spent producing this entry.
    pub grape_iterations: usize,
}

/// A cached flexible-compilation precompute result: tuned hyperparameters plus the
/// minimum block duration found with them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedTuning {
    /// Tuned ADAM learning rate.
    pub learning_rate: f64,
    /// Tuned learning-rate decay.
    pub decay_rate: f64,
    /// Minimum pulse duration found for the subcircuit (ns).
    pub duration_ns: f64,
    /// Whether the tuned GRAPE converged at `duration_ns`.
    pub converged: bool,
    /// GRAPE iterations spent during tuning and duration search (pre-compute latency).
    pub precompute_iterations: usize,
    /// GRAPE iterations one runtime compilation needs with the tuned hyperparameters.
    pub runtime_iterations: usize,
}

/// The storage interface behind the compiler's block/tuning caches.
///
/// [`PulseLibrary`] is the in-process reference implementation; `vqc-runtime`
/// provides a lock-striped, sharded, snapshot-persistable implementation for
/// concurrent workloads. [`crate::PartialCompiler`] only talks to this trait, so the
/// two are interchangeable.
pub trait PulseCache: Send + Sync + std::fmt::Debug {
    /// Looks up a cached block compilation.
    fn block(&self, key: &BlockKey) -> Option<CachedBlock>;

    /// Inserts a block compilation result.
    fn insert_block(&self, key: BlockKey, value: CachedBlock);

    /// Looks up a cached flexible-compilation tuning.
    fn tuning(&self, key: &BlockKey) -> Option<CachedTuning>;

    /// Inserts a tuning result.
    fn insert_tuning(&self, key: BlockKey, value: CachedTuning);

    /// Number of cached block compilations.
    fn num_blocks(&self) -> usize;

    /// Number of cached tunings.
    fn num_tunings(&self) -> usize;

    /// Clears both caches.
    fn clear(&self);

    /// Probes the warm-start transposition table for what past compilations of
    /// this *structure* (a [`BlockKey::structural`] key) learned: tuned
    /// hyperparameters, a converged duration window, and best-so-far amplitudes.
    /// The default implementation has no table.
    fn seed(&self, _key: &BlockKey) -> Option<SeedEntry> {
        None
    }

    /// Records what one compilation learned about a structural key into the
    /// warm-start table (same-key records merge; the window only tightens). The
    /// default implementation drops it.
    fn record_seed(&self, _key: &BlockKey, _entry: SeedEntry) {}

    /// Adds one finished duration search's GRAPE iteration total to the
    /// seeded-vs-cold warm-start accounting. The default implementation drops it.
    fn record_search_outcome(&self, _seeded: bool, _grape_iterations: u64) {}

    /// Current warm-start counters (table traffic, seeded-vs-cold
    /// iteration totals). The default implementation reports zeroes.
    fn warm_start_stats(&self) -> WarmStartStats {
        WarmStartStats::default()
    }
}

/// Thread-safe cache of block compilations and flexible-compilation tunings.
#[derive(Debug, Default)]
pub struct PulseLibrary {
    blocks: Mutex<HashMap<BlockKey, CachedBlock>>,
    tunings: Mutex<HashMap<BlockKey, CachedTuning>>,
    /// Warm-start transposition table keyed by [`BlockKey::structural`]
    /// (environment-configured: `VQC_TT` / `VQC_TT_CAPACITY` / `VQC_CACHE_BYTES`).
    seeds: TranspositionTable<BlockKey>,
}

impl PulseCache for PulseLibrary {
    fn block(&self, key: &BlockKey) -> Option<CachedBlock> {
        PulseLibrary::block(self, key)
    }

    fn insert_block(&self, key: BlockKey, value: CachedBlock) {
        PulseLibrary::insert_block(self, key, value)
    }

    fn tuning(&self, key: &BlockKey) -> Option<CachedTuning> {
        PulseLibrary::tuning(self, key)
    }

    fn insert_tuning(&self, key: BlockKey, value: CachedTuning) {
        PulseLibrary::insert_tuning(self, key, value)
    }

    fn num_blocks(&self) -> usize {
        PulseLibrary::num_blocks(self)
    }

    fn num_tunings(&self) -> usize {
        PulseLibrary::num_tunings(self)
    }

    fn clear(&self) {
        PulseLibrary::clear(self)
    }

    fn seed(&self, key: &BlockKey) -> Option<SeedEntry> {
        self.seeds.probe(key)
    }

    fn record_seed(&self, key: &BlockKey, entry: SeedEntry) {
        self.seeds.record(key, entry);
    }

    fn record_search_outcome(&self, seeded: bool, grape_iterations: u64) {
        self.seeds.record_search_outcome(seeded, grape_iterations);
    }

    fn warm_start_stats(&self) -> WarmStartStats {
        self.seeds.stats()
    }
}

impl PulseLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        PulseLibrary::default()
    }

    /// An empty library whose warm-start table uses `config` instead of the
    /// environment-configured default, so callers (and tests) can arm or
    /// disarm seeding independently of `VQC_TT`.
    pub fn with_seed_table(config: TableConfig) -> Self {
        PulseLibrary {
            seeds: TranspositionTable::new(config),
            ..PulseLibrary::default()
        }
    }

    /// Looks up a cached block compilation.
    pub fn block(&self, key: &BlockKey) -> Option<CachedBlock> {
        self.blocks.lock().get(key).cloned()
    }

    /// Inserts a block compilation result.
    pub fn insert_block(&self, key: BlockKey, value: CachedBlock) {
        self.blocks.lock().insert(key, value);
    }

    /// Looks up a cached tuning.
    pub fn tuning(&self, key: &BlockKey) -> Option<CachedTuning> {
        self.tunings.lock().get(key).cloned()
    }

    /// Inserts a tuning result.
    pub fn insert_tuning(&self, key: BlockKey, value: CachedTuning) {
        self.tunings.lock().insert(key, value);
    }

    /// Number of cached block compilations.
    pub fn num_blocks(&self) -> usize {
        self.blocks.lock().len()
    }

    /// Number of cached tunings.
    pub fn num_tunings(&self) -> usize {
        self.tunings.lock().len()
    }

    /// Clears both caches (the warm-start seeds are kept).
    pub fn clear(&self) {
        self.blocks.lock().clear();
        self.tunings.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqc_circuit::ParamExpr;

    #[test]
    fn bound_keys_distinguish_angles() {
        let mut a = Circuit::new(1);
        a.rz(0, 0.5);
        let mut b = Circuit::new(1);
        b.rz(0, 0.6);
        assert_ne!(
            BlockKey::from_bound_circuit(&a),
            BlockKey::from_bound_circuit(&b)
        );
        assert_eq!(
            BlockKey::from_bound_circuit(&a),
            BlockKey::from_bound_circuit(&a.clone())
        );
    }

    #[test]
    fn structural_keys_ignore_parameter_values() {
        let mut a = Circuit::new(1);
        a.rz_expr(0, ParamExpr::theta(0));
        a.h(0);
        let bound_1 = a.bind(&[0.3]);
        let bound_2 = a.bind(&[1.7]);
        assert_ne!(
            BlockKey::from_bound_circuit(&bound_1),
            BlockKey::from_bound_circuit(&bound_2)
        );
        assert_eq!(BlockKey::structural(&a), BlockKey::structural(&a.clone()));
    }

    #[test]
    fn library_round_trips_entries() {
        let library = PulseLibrary::new();
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let key = BlockKey::from_bound_circuit(&c);
        assert!(library.block(&key).is_none());
        library.insert_block(
            key.clone(),
            CachedBlock {
                duration_ns: 3.5,
                converged: true,
                grape_iterations: 120,
            },
        );
        assert_eq!(library.num_blocks(), 1);
        let cached = library.block(&key).unwrap();
        assert_eq!(cached.duration_ns, 3.5);
        assert!(cached.converged);

        library.insert_tuning(
            BlockKey::structural(&c),
            CachedTuning {
                learning_rate: 0.2,
                decay_rate: 0.99,
                duration_ns: 3.5,
                converged: true,
                precompute_iterations: 500,
                runtime_iterations: 40,
            },
        );
        assert_eq!(library.num_tunings(), 1);
        library.clear();
        assert_eq!(library.num_blocks(), 0);
        assert_eq!(library.num_tunings(), 0);
    }

    #[test]
    fn seeds_round_trip_through_the_trait_under_structural_keys() {
        // Armed explicitly so the round trip holds even under `VQC_TT=0`.
        let library = PulseLibrary::with_seed_table(TableConfig::default());
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.rz_expr(1, ParamExpr::theta(0));
        // The structural key is taken on the *unbound* subcircuit (as the
        // compiler's `dedup_key` does), so any θ binding maps to the same key.
        // A separately-built circuit with identical structure must agree.
        let key_a = BlockKey::structural(&c);
        let mut c2 = Circuit::new(2);
        c2.cx(0, 1);
        c2.rz_expr(1, ParamExpr::theta(0));
        let key_b = BlockKey::structural(&c2);
        assert_eq!(key_a, key_b, "structural keys must be θ-invariant");

        assert!(PulseCache::seed(&library, &key_a).is_none());
        let entry = SeedEntry {
            learning_rate: 0.2,
            decay_rate: 0.999,
            tuned: true,
            converged_duration_ns: Some(7.5),
            failed_below_ns: 6.0,
            probe_iterations: vec![(7.5, 40)],
            pulse: None,
        };
        PulseCache::record_seed(&library, &key_a, entry.clone());
        // A different binding of the same structure finds the entry.
        let found = PulseCache::seed(&library, &key_b).expect("structural neighbor must hit");
        assert_eq!(found, entry);

        PulseCache::record_search_outcome(&library, true, 40);
        let stats = PulseCache::warm_start_stats(&library);
        assert_eq!(stats.table_hits, 1);
        assert_eq!(stats.seeded_iterations, 40);
    }
}
