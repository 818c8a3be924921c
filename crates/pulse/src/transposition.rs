//! Transposition-table warm-start index for repeat-structure GRAPE traffic.
//!
//! At production scale the dominant traffic is repeat *structures* with fresh θ
//! bindings: the paper's Figure-4 observation (hyperparameters tuned for a
//! single-angle subcircuit are robust to the value of θ) extends to the whole
//! compilation — a new θ for a known structure should open its duration binary
//! search at the structural neighbor's converged window and start every GRAPE
//! probe from the neighbor's converged amplitudes, not from the seeded sinusoid.
//!
//! The shape of the index is borrowed from game-tree search transposition
//! tables: a fixed-capacity, sharded array of slots, probed by hashing the
//! structural key straight to one slot — no chaining, no rehashing, no
//! allocation on a hit. Two keys that land on the same slot *replace* rather
//! than chain, and replacement is depth-preferred: a slot never gives up a
//! converged entry for an unconverged probe, nor a deeper entry (more invested
//! GRAPE iterations) for a shallower one. Same-key records merge instead:
//! the converged duration only tightens downward, the non-converging lower
//! bound only tightens upward, and the best-so-far pulse follows the shortest
//! converged duration.
//!
//! Because the table caches whole waveforms, capacity is bounded two ways: an
//! entry-count bound (`VQC_TT_CAPACITY` slots) and an optional byte budget
//! (`VQC_CACHE_BYTES`) accounting waveform payload sizes, enforced per shard
//! with the same depth-preferred ordering (the shallowest entries leave first).
//! `VQC_TT=0` disables the table entirely, pinning cold-path behavior.
//!
//! The table is generic over the key so this crate stays independent of
//! `vqc-core`'s `BlockKey`; `vqc-core` instantiates it with the structural
//! block key, and `vqc-runtime` persists its entries in snapshot v3.

use crate::minimum_time::SearchSeed;
use crate::PulseSequence;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default total slot capacity across all shards.
pub const DEFAULT_TT_CAPACITY: usize = 4096;

/// Cap on the per-duration iteration history an entry carries. The history is
/// diagnostic (it is what "depth" is measured from); the oldest records age out
/// first so a hot structure cannot grow its entry without bound.
const MAX_PROBE_HISTORY: usize = 32;

/// Configuration of a [`TranspositionTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableConfig {
    /// Whether the table is armed at all. A disabled table never hits and never
    /// stores, so every search runs exactly the cold path (`VQC_TT=0`).
    pub enabled: bool,
    /// Total slot count across all shards (`VQC_TT_CAPACITY`).
    pub capacity: usize,
    /// Number of independent shards (rounded up to a power of two, minimum 1).
    pub shards: usize,
    /// Optional byte budget over stored waveform payloads (`VQC_CACHE_BYTES`),
    /// split evenly across shards and enforced alongside the slot bound.
    pub max_bytes: Option<usize>,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            enabled: true,
            capacity: DEFAULT_TT_CAPACITY,
            shards: 16,
            max_bytes: None,
        }
    }
}

impl TableConfig {
    /// The built-in defaults overridden by the environment: `VQC_TT` (`0`,
    /// `off`, `false`, `no` disable the table), `VQC_TT_CAPACITY` (total slot
    /// count), and `VQC_CACHE_BYTES` (waveform byte budget).
    pub fn from_env() -> Self {
        let mut config = TableConfig::default();
        if let Ok(value) = std::env::var("VQC_TT") {
            if matches!(
                value.trim().to_ascii_lowercase().as_str(),
                "0" | "off" | "false" | "no"
            ) {
                config.enabled = false;
            }
        }
        if let Ok(value) = std::env::var("VQC_TT_CAPACITY") {
            if let Ok(capacity) = value.trim().parse::<usize>() {
                config.capacity = capacity.max(1);
            }
        }
        if let Ok(value) = std::env::var("VQC_CACHE_BYTES") {
            if let Ok(bytes) = value.trim().parse::<usize>() {
                config.max_bytes = Some(bytes);
            }
        }
        config
    }

    /// A configuration with the table switched off (the cold path).
    pub fn disabled() -> Self {
        TableConfig {
            enabled: false,
            ..TableConfig::default()
        }
    }
}

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
    /// of iteration counts is the entry's replacement depth.
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

    /// Total GRAPE iterations invested in this entry — the replacement "depth":
    /// an entry backed by more search work is never displaced by one backed by
    /// less.
    pub fn depth(&self) -> u64 {
        self.probe_iterations
            .iter()
            .map(|(_, iterations)| *iterations as u64)
            .sum()
    }

    /// Approximate heap footprint in bytes, dominated by the waveform payload.
    pub fn approx_bytes(&self) -> usize {
        let waveforms = self
            .pulse
            .as_ref()
            .map(|p| p.num_controls() * (p.num_slices() + 3) * std::mem::size_of::<f64>())
            .unwrap_or(0);
        std::mem::size_of::<SeedEntry>()
            + waveforms
            + self.probe_iterations.capacity() * std::mem::size_of::<(f64, usize)>()
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

    /// Replacement rank: converged beats unconverged, then deeper beats
    /// shallower.
    fn rank(&self) -> (bool, u64) {
        (self.converged(), self.depth())
    }

    /// Merges a fresh record for the *same* key into this entry: the window
    /// only tightens (minimum converged duration, maximum failed lower bound),
    /// the pulse follows the shortest converged duration, tuned hyperparameters
    /// are preferred over defaults, and probe histories concatenate.
    fn merge_from(&mut self, other: SeedEntry) {
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

/// Point-in-time warm-start effectiveness counters: table traffic plus
/// seeded-vs-cold GRAPE iteration totals. The `memo_*` fields are those of the
/// retired [`EigenMemo`](crate::EigenMemo): snapshot- and wire-serialised and
/// read by the driver benchmark, so they stay, and read 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmStartStats {
    /// Table probes answered from a stored entry.
    pub table_hits: u64,
    /// Table probes that found nothing (or hit a colliding key).
    pub table_misses: u64,
    /// Records refused by depth-preferred replacement or the byte budget.
    pub table_rejected: u64,
    /// Entries displaced by a deeper record or the byte budget.
    pub table_evictions: u64,
    /// Always 0 (retired memo).
    pub memo_hits: u64,
    /// Always 0 (retired memo).
    pub memo_misses: u64,
    /// Always 0 (retired memo).
    pub memo_rejected: u64,
    /// Total GRAPE iterations spent by table-seeded searches.
    pub seeded_iterations: u64,
    /// Total GRAPE iterations spent by cold searches.
    pub cold_iterations: u64,
}

/// One occupied slot: the hash doubles as a cheap pre-filter so a probe only
/// compares full keys when the 64-bit hashes already agree.
#[derive(Debug)]
struct OccupiedSlot<K> {
    hash: u64,
    key: K,
    entry: SeedEntry,
    bytes: usize,
}

#[derive(Debug)]
struct ShardState<K> {
    /// Fixed slot array, allocated lazily on the shard's first record so an
    /// unused (or disabled) table costs nothing.
    slots: Vec<Option<OccupiedSlot<K>>>,
    /// Approximate bytes held by this shard's entries.
    bytes: usize,
}

#[derive(Debug, Default)]
struct TableCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    evictions: AtomicU64,
    seeded_iterations: AtomicU64,
    cold_iterations: AtomicU64,
}

/// A fixed-capacity, sharded, cheaply-probed replacement table mapping a
/// structural key to the [`SeedEntry`] its past compilations accumulated.
///
/// Probes hash the key straight to one slot — O(1), allocation-free on a hit
/// via [`TranspositionTable::probe_with`] — and records either merge (same
/// key), replace depth-preferred (colliding key), or fill an empty slot.
#[derive(Debug)]
pub struct TranspositionTable<K> {
    shards: Vec<Mutex<ShardState<K>>>,
    /// `shards.len() - 1`; the shard count is a power of two so this masks a hash.
    mask: usize,
    slots_per_shard: usize,
    /// Per-shard byte budget, if `max_bytes` is configured.
    shard_budget: Option<usize>,
    config: TableConfig,
    counters: TableCounters,
}

impl<K> Default for TranspositionTable<K> {
    /// An environment-configured table ([`TableConfig::from_env`]), so every
    /// embedding cache honors `VQC_TT` / `VQC_TT_CAPACITY` / `VQC_CACHE_BYTES`
    /// without plumbing.
    fn default() -> Self {
        TranspositionTable::new(TableConfig::from_env())
    }
}

impl<K> TranspositionTable<K> {
    /// Creates an empty table with the given configuration.
    pub fn new(config: TableConfig) -> Self {
        let shards = config.shards.max(1).next_power_of_two();
        let slots_per_shard = config.capacity.max(1).div_ceil(shards).max(1);
        TranspositionTable {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ShardState {
                        slots: Vec::new(),
                        bytes: 0,
                    })
                })
                .collect(),
            mask: shards - 1,
            slots_per_shard,
            shard_budget: config.max_bytes.map(|total| (total / shards).max(1)),
            config,
            counters: TableCounters::default(),
        }
    }

    /// The configuration the table was built with.
    pub fn config(&self) -> TableConfig {
        self.config
    }

    /// Whether probes and records are armed at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Total slot capacity (shards × slots per shard).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.slots_per_shard
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .slots
                    .iter()
                    .filter(|slot| slot.is_some())
                    .count()
            })
            .sum()
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes held by all entries.
    pub fn approx_bytes(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().bytes).sum()
    }

    /// Drops every entry (counters are kept — clearing stored results does not
    /// un-happen the traffic they served).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut state = shard.lock();
            state.slots.clear();
            state.bytes = 0;
        }
    }

    /// Adds seeded-or-cold GRAPE iteration totals from one finished search.
    pub fn record_search_outcome(&self, seeded: bool, grape_iterations: u64) {
        if seeded {
            self.counters
                .seeded_iterations
                .fetch_add(grape_iterations, Ordering::Relaxed);
        } else {
            self.counters
                .cold_iterations
                .fetch_add(grape_iterations, Ordering::Relaxed);
        }
    }

    /// Current warm-start counters.
    pub fn stats(&self) -> WarmStartStats {
        WarmStartStats {
            table_hits: self.counters.hits.load(Ordering::Relaxed),
            table_misses: self.counters.misses.load(Ordering::Relaxed),
            table_rejected: self.counters.rejected.load(Ordering::Relaxed),
            table_evictions: self.counters.evictions.load(Ordering::Relaxed),
            memo_hits: 0,
            memo_misses: 0,
            memo_rejected: 0,
            seeded_iterations: self.counters.seeded_iterations.load(Ordering::Relaxed),
            cold_iterations: self.counters.cold_iterations.load(Ordering::Relaxed),
        }
    }

    fn hash_key(key: &K) -> u64
    where
        K: Hash,
    {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        hasher.finish()
    }

    fn shard_index(&self, hash: u64) -> usize {
        (hash as usize) & self.mask
    }

    /// Slot index within a shard, taken from the hash bits the shard selector
    /// did not consume.
    fn slot_index(&self, hash: u64) -> usize {
        ((hash >> 32) as usize) % self.slots_per_shard
    }
}

impl<K: Hash + Eq> TranspositionTable<K> {
    /// Probes the slot for `key` and, on a hit, hands the stored entry to
    /// `read` by reference — no clone, no allocation — returning its result.
    /// Returns `None` on a miss (empty slot, colliding key, or disabled table).
    pub fn probe_with<R>(&self, key: &K, read: impl FnOnce(&SeedEntry) -> R) -> Option<R> {
        if !self.config.enabled {
            return None;
        }
        let hash = Self::hash_key(key);
        let state = self.shards[self.shard_index(hash)].lock();
        let slot_index = self.slot_index(hash);
        match state.slots.get(slot_index).and_then(Option::as_ref) {
            Some(slot) if slot.hash == hash && slot.key == *key => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(read(&slot.entry))
            }
            _ => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Probes the slot for `key`, cloning the stored entry on a hit.
    pub fn probe(&self, key: &K) -> Option<SeedEntry> {
        self.probe_with(key, SeedEntry::clone)
    }

    /// Records what one compilation learned about `key`. Same-key records merge
    /// ([`SeedEntry`] windows only tighten); a colliding key replaces the
    /// occupant only when it is at least as converged and as deep (an entry is
    /// never evicted for a shallower one); the byte budget then evicts the
    /// shallowest entries until the shard fits.
    pub fn record(&self, key: &K, entry: SeedEntry)
    where
        K: Clone,
    {
        if !self.config.enabled {
            return;
        }
        let bytes = entry.approx_bytes();
        if let Some(budget) = self.shard_budget {
            // An entry that alone busts the shard budget can never be retained;
            // rejecting it up front avoids evicting others for nothing.
            if bytes > budget {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let hash = Self::hash_key(key);
        let slot_index = self.slot_index(hash);
        let mut state = self.shards[self.shard_index(hash)].lock();
        if state.slots.is_empty() {
            let slots = self.slots_per_shard;
            state.slots.resize_with(slots, || None);
        }
        let ShardState { slots, bytes: held } = &mut *state;
        match &mut slots[slot_index] {
            Some(slot) if slot.hash == hash && slot.key == *key => {
                slot.entry.merge_from(entry);
                let merged = slot.entry.approx_bytes();
                *held = *held + merged - slot.bytes;
                slot.bytes = merged;
            }
            Some(slot) => {
                if entry.rank() >= slot.entry.rank() {
                    *held = *held + bytes - slot.bytes;
                    *slot = OccupiedSlot {
                        hash,
                        key: key.clone(),
                        entry,
                        bytes,
                    };
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
            empty => {
                *held += bytes;
                *empty = Some(OccupiedSlot {
                    hash,
                    key: key.clone(),
                    entry,
                    bytes,
                });
            }
        }
        self.enforce_byte_budget(&mut state);
    }

    /// Evicts the shallowest entries until the shard's bytes fit the budget.
    /// The just-inserted entry is a legitimate victim when it is the
    /// shallowest — depth preference holds even against fresh arrivals.
    fn enforce_byte_budget(&self, state: &mut ShardState<K>) {
        let Some(budget) = self.shard_budget else {
            return;
        };
        while state.bytes > budget {
            let victim = state
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| slot.as_ref().map(|s| (s.entry.rank(), i)))
                .min()
                .map(|(_, i)| i);
            match victim {
                Some(index) => {
                    if let Some(slot) = state.slots[index].take() {
                        state.bytes -= slot.bytes;
                    }
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    state.bytes = 0;
                    break;
                }
            }
        }
    }
}

impl<K: Hash + Eq + Clone> TranspositionTable<K> {
    /// Copies every occupied slot out, for snapshot persistence.
    pub fn entries(&self) -> Vec<(K, SeedEntry)> {
        self.shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .slots
                    .iter()
                    .filter_map(|slot| {
                        slot.as_ref()
                            .map(|slot| (slot.key.clone(), slot.entry.clone()))
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Replays persisted entries through [`TranspositionTable::record`], so
    /// capacity bounds and replacement policy apply to restored state too.
    pub fn absorb(&self, entries: impl IntoIterator<Item = (K, SeedEntry)>) {
        for (key, entry) in entries {
            self.record(&key, entry);
        }
    }
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

    fn unconverged_entry(iterations: usize) -> SeedEntry {
        let mut entry = SeedEntry {
            failed_below_ns: 5.0,
            ..SeedEntry::default()
        };
        entry.record_probe(5.0, iterations);
        entry
    }

    fn tiny_table(max_bytes: Option<usize>) -> TranspositionTable<u64> {
        TranspositionTable::new(TableConfig {
            enabled: true,
            capacity: 1,
            shards: 1,
            max_bytes,
        })
    }

    #[test]
    fn probe_miss_then_record_then_hit() {
        let table: TranspositionTable<u64> = TranspositionTable::new(TableConfig::default());
        assert!(table.probe(&7).is_none());
        table.record(&7, converged_entry(3.0, 40));
        let entry = table.probe(&7).expect("recorded entry must hit");
        assert_eq!(entry.converged_duration_ns, Some(3.0));
        assert_eq!(entry.depth(), 40);
        let stats = table.stats();
        assert_eq!((stats.table_hits, stats.table_misses), (1, 1));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn same_key_records_merge_and_only_tighten_the_window() {
        let table: TranspositionTable<u64> = TranspositionTable::new(TableConfig::default());
        table.record(&1, converged_entry(4.0, 10));
        // A later, worse outcome must not widen the window...
        let mut worse = converged_entry(6.0, 5);
        worse.failed_below_ns = 1.0;
        table.record(&1, worse);
        let entry = table.probe(&1).unwrap();
        assert_eq!(entry.converged_duration_ns, Some(4.0));
        assert_eq!(entry.failed_below_ns, 2.0);
        assert_eq!(entry.depth(), 15, "probe histories concatenate");
        // ...while a better one tightens both ends and brings its pulse along.
        let mut better = converged_entry(2.5, 20);
        better.failed_below_ns = 2.2;
        better.pulse = Some(PulseSequence::zeros(2, 4, 0.5));
        table.record(&1, better);
        let entry = table.probe(&1).unwrap();
        assert_eq!(entry.converged_duration_ns, Some(2.5));
        assert_eq!(entry.failed_below_ns, 2.2);
        assert_eq!(entry.pulse.as_ref().map(PulseSequence::num_slices), Some(4));
    }

    #[test]
    fn tuned_hyperparameters_are_preferred_over_defaults() {
        let table: TranspositionTable<u64> = TranspositionTable::new(TableConfig::default());
        let mut tuned = converged_entry(3.0, 10);
        tuned.tuned = true;
        tuned.learning_rate = 0.3;
        table.record(&1, tuned);
        // An untuned follow-up must not clobber the tuned configuration.
        table.record(&1, converged_entry(3.5, 5));
        let entry = table.probe(&1).unwrap();
        assert!(entry.tuned);
        assert_eq!(entry.learning_rate, 0.3);
    }

    #[test]
    fn replacement_is_depth_preferred() {
        // Capacity 1 in one shard: every key maps to the same slot.
        let table = tiny_table(None);
        table.record(&1, converged_entry(3.0, 50));
        // An unconverged probe never displaces a converged entry.
        table.record(&2, unconverged_entry(500));
        assert!(table.probe(&1).is_some(), "converged entry must survive");
        assert!(table.probe(&2).is_none());
        // A shallower converged entry does not displace a deeper one either.
        table.record(&3, converged_entry(2.0, 10));
        assert!(table.probe(&1).is_some(), "deeper entry must survive");
        // A deeper converged entry does.
        table.record(&4, converged_entry(2.0, 90));
        assert!(table.probe(&4).is_some());
        assert!(table.probe(&1).is_none());
        let stats = table.stats();
        assert_eq!(stats.table_rejected, 2);
        assert_eq!(stats.table_evictions, 1);
    }

    #[test]
    fn byte_budget_evicts_shallowest_entries_first() {
        let entry_bytes = converged_entry(3.0, 10).approx_bytes();
        // Room for two entries, spread over enough slots that keys don't collide.
        let table: TranspositionTable<u64> = TranspositionTable::new(TableConfig {
            enabled: true,
            capacity: 64,
            shards: 1,
            max_bytes: Some(2 * entry_bytes + entry_bytes / 2),
        });
        table.record(&1, converged_entry(3.0, 100));
        table.record(&2, converged_entry(3.0, 50));
        table.record(&3, converged_entry(3.0, 10));
        assert!(table.approx_bytes() <= 2 * entry_bytes + entry_bytes / 2);
        assert_eq!(table.len(), 2);
        assert!(table.probe(&1).is_some(), "deepest entry survives");
        assert!(table.probe(&3).is_none(), "shallowest entry is the victim");
        assert!(table.stats().table_evictions >= 1);
    }

    #[test]
    fn oversized_entry_is_rejected_outright() {
        let table = tiny_table(Some(64));
        table.record(&1, converged_entry(3.0, 10));
        assert!(table.probe(&1).is_none());
        assert_eq!(table.stats().table_rejected, 1);
        assert_eq!(table.approx_bytes(), 0);
    }

    #[test]
    fn disabled_table_never_stores_or_hits() {
        let table: TranspositionTable<u64> = TranspositionTable::new(TableConfig::disabled());
        table.record(&1, converged_entry(3.0, 10));
        assert!(table.probe(&1).is_none());
        assert!(table.is_empty());
        let stats = table.stats();
        assert_eq!((stats.table_hits, stats.table_misses), (0, 0));
    }

    #[test]
    fn entries_round_trip_through_absorb() {
        let table: TranspositionTable<u64> = TranspositionTable::new(TableConfig::default());
        table.record(&1, converged_entry(3.0, 10));
        table.record(&2, unconverged_entry(5));
        let mut entries = table.entries();
        entries.sort_by_key(|(k, _)| *k);
        assert_eq!(entries.len(), 2);

        let restored: TranspositionTable<u64> = TranspositionTable::new(TableConfig::default());
        restored.absorb(entries.clone());
        let mut replayed = restored.entries();
        replayed.sort_by_key(|(k, _)| *k);
        assert_eq!(replayed, entries);
    }

    #[test]
    fn search_outcomes_aggregate() {
        let table: TranspositionTable<u64> = TranspositionTable::new(TableConfig::default());
        table.record_search_outcome(true, 40);
        table.record_search_outcome(false, 100);
        table.record_search_outcome(true, 10);
        let stats = table.stats();
        assert_eq!(stats.seeded_iterations, 50);
        assert_eq!(stats.cold_iterations, 100);
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
