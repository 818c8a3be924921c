//! The lock-striped, sharded pulse cache.
//!
//! The seed's [`vqc_core::PulseLibrary`] guards its whole map with one mutex, which
//! serializes every lookup once block compilation runs on a worker pool. This cache
//! stripes the key space over independent shards, each guarded by its own mutex, so
//! lookups of different blocks proceed without contention. (A per-shard
//! reader-writer lock was measured slower here: the critical sections are a few
//! nanoseconds, so lock acquisition dominates, and a mutex acquire is cheaper than a
//! read-lock acquire once the key space is striped.) Keys are content-addressed: a
//! [`BlockKey`] is a canonical fingerprint of the block circuit, so two requests
//! compiling the same subcircuit hit the same shard slot regardless of which circuit
//! or which variational iteration they came from.
//!
//! # Eviction
//!
//! Every entry carries one cost: the model seconds of GRAPE work it would take to
//! reproduce, derived by [`vqc_core::LatencyModel`] from the iterations the entry
//! itself records — the economics of the paper's pulse library made explicit (a
//! cached 4-qubit block stands for minutes of GRAPE, a 2-qubit block for a
//! fraction of a second). What a bounded shard protects is that cost times the
//! reuse it expects, and observed hits are the best available estimate of reuse,
//! so a full shard drops the entry with the smallest `cost × (1 + hits)` first,
//! the oldest write first on ties. A cheap Fixed block hit on every variational
//! iteration therefore outlasts costlier blocks nobody asks for twice. Hit counts
//! are per-process (snapshots do not carry them): a warm-started cache ranks by
//! cost alone and sharpens as traffic arrives.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use vqc_core::{
    BlockKey, CachedBlock, CachedTuning, LatencyModel, PulseCache, SeedEntry, TableConfig,
    TranspositionTable, WarmStartStats,
};

/// Configuration of a [`ShardedPulseCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of independent shards (rounded up to a power of two, minimum 1).
    pub shards: usize,
    /// Maximum number of block entries per shard; an insert into a full shard
    /// evicts (see the module docs for the rank). `None` disables eviction (the
    /// seed behavior).
    pub max_blocks_per_shard: Option<usize>,
    /// Maximum number of tuning entries per shard, as for `max_blocks_per_shard`.
    pub max_tunings_per_shard: Option<usize>,
    /// Configuration of the transposition-table warm-start index (capacity,
    /// shard count, and the `VQC_CACHE_BYTES` byte budget).
    pub seeds: TableConfig,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            max_blocks_per_shard: None,
            max_tunings_per_shard: None,
            // Like `TranspositionTable::default()`, the default honors the
            // `VQC_TT` / `VQC_TT_CAPACITY` / `VQC_CACHE_BYTES` knobs.
            seeds: TableConfig::from_env(),
        }
    }
}

/// Point-in-time cache counters.
///
/// `hits`/`misses` count lookups of both block and tuning entries; `evictions`
/// counts entries displaced by the per-shard capacity bound (on any write path,
/// including a bounded warm start). `restored` counts entries absorbed from a
/// snapshot, which deliberately do **not** contribute to `insertions` — a warm
/// start is not compile-time work, and polluting the compile-time counters with it
/// would make the first post-restart metrics read look like a compilation storm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheMetrics {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written (first insert or overwrite) by compilation.
    pub insertions: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries restored from a snapshot by [`ShardedPulseCache::absorb`].
    pub restored: u64,
}

/// Per-shard counters. Keeping one `Counters` inside every shard (rather than one
/// global set) spreads the atomic increments across as many cache lines as there are
/// shards, so metrics do not re-introduce the very contention the striping removes.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    restored: AtomicU64,
}

impl Counters {
    fn record_lookup(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One stored value plus its eviction metadata.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    /// Model seconds of GRAPE work to reproduce the value if evicted.
    cost: f64,
    /// Monotone write stamp. Overwriting a key refreshes its stamp, so an entry's
    /// age reflects its latest write.
    seq: u64,
    /// Lookups this key has answered since it first entered the shard (overwrites
    /// keep the count — recompiling a block does not erase its popularity).
    hits: u64,
}

/// Maps a cost to a key that sorts exactly like [`f64::total_cmp`] (the standard
/// sign-flip trick), so the victim index below can order entries without floats.
fn cost_order_bits(cost: f64) -> u64 {
    let bits = cost.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// Where an entry sorts in the eviction order: by the recompute seconds its
/// presence has saved and stands to save, then by age.
fn eviction_rank(cost: f64, hits: u64, seq: u64) -> (u64, u64) {
    (cost_order_bits(cost * (1 + hits) as f64), seq)
}

/// One capacity-bounded key→value map with per-entry recompute costs.
#[derive(Debug)]
struct BoundedMap<V> {
    entries: HashMap<BlockKey, Slot<V>>,
    /// Eviction order index: the map's first entry is the next victim. Keys are
    /// [`eviction_rank`]s — unique because `seq` is — so picking a victim and
    /// maintaining the index on insert/overwrite/hit are all O(log n), where a
    /// plain scan would make every insert into a full shard O(n) under the shard
    /// mutex.
    victims: BTreeMap<(u64, u64), BlockKey>,
    capacity: Option<usize>,
    next_seq: u64,
}

impl<V> BoundedMap<V> {
    fn new(capacity: Option<usize>) -> Self {
        BoundedMap {
            entries: HashMap::new(),
            victims: BTreeMap::new(),
            capacity,
            next_seq: 0,
        }
    }

    /// Looks up a key, counting the hit. In a bounded map the hit also promotes
    /// the entry in the eviction order (its protected value just grew by one
    /// recompute), which is an O(log n) reindex.
    fn get(&mut self, key: &BlockKey) -> Option<&V> {
        let slot = self.entries.get_mut(key)?;
        slot.hits += 1;
        // Only bounded maps keep the index (see `insert`).
        let stale = eviction_rank(slot.cost, slot.hits - 1, slot.seq);
        if let Some(indexed) = self.victims.remove(&stale) {
            self.victims
                .insert(eviction_rank(slot.cost, slot.hits, slot.seq), indexed);
        }
        Some(&slot.value)
    }

    /// Hits the key has answered so far, if resident.
    fn hits(&self, key: &BlockKey) -> Option<u64> {
        self.entries.get(key).map(|slot| slot.hits)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.victims.clear();
    }

    /// Sum of the recompute-cost estimates of all retained entries (seconds).
    fn total_cost(&self) -> f64 {
        self.entries.values().map(|slot| slot.cost).sum()
    }

    /// Inserts, returning the number of entries evicted to make room. The entry
    /// inserted by this very call is never its own victim, even when it ranks
    /// lowest in the shard — evicting what the caller is about to rely on would
    /// guarantee an immediate recompute.
    fn insert(&mut self, key: BlockKey, value: V, cost: f64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        // An overwrite keeps the key's accumulated hit count: recompiling a block
        // does not erase the demand history the eviction rank weighs.
        let hits = self.entries.get(&key).map(|slot| slot.hits).unwrap_or(0);
        let slot = Slot {
            value,
            cost,
            seq,
            hits,
        };
        let Some(capacity) = self.capacity else {
            // Unbounded maps (the default config) never evict, so they skip the
            // victim index entirely rather than mirror every key into it.
            self.entries.insert(key, slot);
            return 0;
        };
        if let Some(old) = self.entries.insert(key.clone(), slot) {
            self.victims
                .remove(&eviction_rank(old.cost, old.hits, old.seq));
        }
        self.victims
            .insert(eviction_rank(cost, hits, seq), key.clone());
        let mut evicted = 0;
        while self.entries.len() > capacity.max(1) {
            // The just-inserted key is at most one of the first two index
            // entries away from the front, so this scan inspects ≤ 2 entries.
            let victim = self
                .victims
                .iter()
                .find(|(_, candidate)| **candidate != key)
                .map(|(order, candidate)| (*order, candidate.clone()));
            match victim {
                Some((order, victim)) => {
                    self.victims.remove(&order);
                    self.entries.remove(&victim);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }
}

#[derive(Debug)]
struct Shard {
    blocks: Mutex<BoundedMap<CachedBlock>>,
    tunings: Mutex<BoundedMap<CachedTuning>>,
    counters: Counters,
}

/// Serializable image of a cache's contents, for warm-start persistence. Each entry
/// carries its recompute cost (model seconds) for [`CacheSnapshot::compact`] to
/// filter on; [`ShardedPulseCache::absorb`] ignores the stored figure and derives
/// the cost from the entry again, so files from builds that stored other units
/// rank on the same scale as fresh entries.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// All cached block compilations, with per-entry recompute costs.
    pub blocks: Vec<(BlockKey, CachedBlock, f64)>,
    /// All cached flexible-compilation tunings, with per-entry recompute costs.
    pub tunings: Vec<(BlockKey, CachedTuning, f64)>,
    /// The transposition-table warm-start entries.
    pub seeds: Vec<(BlockKey, SeedEntry)>,
}

/// What snapshot compaction drops at save time. The default drops nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CompactionPolicy {
    /// Drop entries whose recompute cost is below this floor, in
    /// [`vqc_core::LatencyModel`] seconds (paper-scale, not host wall time) —
    /// entries so cheap that re-deriving them costs less than carrying them across
    /// restarts.
    pub cost_floor_seconds: Option<f64>,
    /// Keep at most this many block entries and this many tuning entries; the
    /// costliest-to-recompute survive.
    pub max_entries: Option<usize>,
}

impl CacheSnapshot {
    /// Applies a [`CompactionPolicy`] in place: entries below the cost floor are
    /// dropped, then each section is truncated to the size budget keeping the
    /// costliest entries (ties keep their snapshot order). Warm-start seeds are
    /// left alone — the transposition table is fixed-capacity by construction,
    /// so its snapshot section is already bounded.
    pub fn compact(&mut self, policy: &CompactionPolicy) {
        fn apply<V>(entries: &mut Vec<(BlockKey, V, f64)>, policy: &CompactionPolicy) {
            if let Some(floor) = policy.cost_floor_seconds {
                entries.retain(|(_, _, cost)| *cost >= floor);
            }
            if let Some(max) = policy.max_entries {
                if entries.len() > max {
                    entries.sort_by(|a, b| b.2.total_cmp(&a.2));
                    entries.truncate(max);
                }
            }
        }
        apply(&mut self.blocks, policy);
        apply(&mut self.tunings, policy);
    }

    /// Total estimated GRAPE seconds the snapshot's entries stand for.
    pub fn total_cost_seconds(&self) -> f64 {
        self.blocks.iter().map(|(_, _, cost)| cost).sum::<f64>()
            + self.tunings.iter().map(|(_, _, cost)| cost).sum::<f64>()
    }
}

/// A lock-striped, sharded, content-addressed implementation of [`PulseCache`].
#[derive(Debug)]
pub struct ShardedPulseCache {
    shards: Vec<Shard>,
    /// `shards.len() - 1`; shard count is a power of two so this masks a hash.
    mask: usize,
    /// Converts an entry's recorded GRAPE iterations into its recompute cost.
    latency: LatencyModel,
    /// The transposition-table warm-start index: structural key → tuned
    /// hyperparameters, converged duration window, and best-so-far amplitudes.
    /// Sharded and bounded on its own (entry capacity plus the optional
    /// `VQC_CACHE_BYTES` byte budget), independent of the block/tuning shards.
    seeds: TranspositionTable<BlockKey>,
}

impl Default for ShardedPulseCache {
    fn default() -> Self {
        ShardedPulseCache::new(CacheConfig::default())
    }
}

impl ShardedPulseCache {
    /// Creates an empty cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1).next_power_of_two();
        ShardedPulseCache {
            shards: (0..shards)
                .map(|_| Shard {
                    blocks: Mutex::new(BoundedMap::new(config.max_blocks_per_shard)),
                    tunings: Mutex::new(BoundedMap::new(config.max_tunings_per_shard)),
                    counters: Counters::default(),
                })
                .collect(),
            mask: shards - 1,
            latency: LatencyModel::default(),
            seeds: TranspositionTable::new(config.seeds),
        }
    }

    /// The warm-start index's current entry count.
    pub fn num_seeds(&self) -> usize {
        self.seeds.len()
    }

    /// Approximate bytes held by the warm-start index's waveform payloads —
    /// the quantity the `VQC_CACHE_BYTES` budget bounds.
    pub fn seed_bytes(&self) -> usize {
        self.seeds.approx_bytes()
    }

    /// Lookups the given block key has answered since entering its shard, if it is
    /// currently resident. Hit counters survive overwrites but not eviction.
    pub fn block_hit_count(&self, key: &BlockKey) -> Option<u64> {
        self.shard(key).blocks.lock().hits(key)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &BlockKey) -> &Shard {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & self.mask]
    }

    /// Current counter values, aggregated over all shards.
    pub fn metrics(&self) -> CacheMetrics {
        let mut metrics = CacheMetrics::default();
        for shard in &self.shards {
            metrics.hits += shard.counters.hits.load(Ordering::Relaxed);
            metrics.misses += shard.counters.misses.load(Ordering::Relaxed);
            metrics.insertions += shard.counters.insertions.load(Ordering::Relaxed);
            metrics.evictions += shard.counters.evictions.load(Ordering::Relaxed);
            metrics.restored += shard.counters.restored.load(Ordering::Relaxed);
        }
        metrics
    }

    /// Sum of the recompute-cost estimates of all retained block entries, in
    /// seconds — the estimated GRAPE work the cache is currently protecting.
    pub fn retained_block_cost_seconds(&self) -> f64 {
        self.shards
            .iter()
            .map(|shard| shard.blocks.lock().total_cost())
            .sum()
    }

    /// Copies the full cache contents into a serializable snapshot.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut snapshot = CacheSnapshot::default();
        for shard in &self.shards {
            let blocks = shard.blocks.lock();
            snapshot.blocks.extend(
                blocks
                    .entries
                    .iter()
                    .map(|(k, slot)| (k.clone(), slot.value.clone(), slot.cost)),
            );
            let tunings = shard.tunings.lock();
            snapshot.tunings.extend(
                tunings
                    .entries
                    .iter()
                    .map(|(k, slot)| (k.clone(), slot.value.clone(), slot.cost)),
            );
        }
        snapshot.seeds = self.seeds.entries();
        snapshot
    }

    /// Restores every entry of a snapshot (e.g. one loaded from disk) without
    /// fabricating compile-time activity: `restored` counts the entries read from
    /// the snapshot (never `insertions`), so metrics read zero compilation after a
    /// warm start. Capacity bounds still apply — a snapshot larger than the cache
    /// keeps only what ranks highest, and entries displaced that way are real
    /// displacements and do count in `evictions` (so `restored - evictions`
    /// reconciles with the entry count after a bounded warm start).
    pub fn absorb(&self, snapshot: CacheSnapshot) {
        for (key, value, _) in snapshot.blocks {
            self.store_block(key, value)
                .restored
                .fetch_add(1, Ordering::Relaxed);
        }
        for (key, value, _) in snapshot.tunings {
            self.store_tuning(key, value)
                .restored
                .fetch_add(1, Ordering::Relaxed);
        }
        // Seeds replay through the table's own record path, so depth-preferred
        // replacement and the capacity/byte bounds apply to restored entries
        // exactly as they do to live ones.
        self.seeds.absorb(snapshot.seeds);
    }

    /// Files a block entry at the cost its own record implies and counts what
    /// that displaced; the caller counts the write itself on the returned
    /// counters (an insertion or a restore).
    fn store_block(&self, key: BlockKey, value: CachedBlock) -> &Counters {
        let shard = self.shard(&key);
        let cost = self.latency.block_recompute_seconds(&key, &value);
        let evicted = shard.blocks.lock().insert(key, value, cost);
        shard
            .counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
        &shard.counters
    }

    /// [`ShardedPulseCache::store_block`] for a tuning entry.
    fn store_tuning(&self, key: BlockKey, value: CachedTuning) -> &Counters {
        let shard = self.shard(&key);
        let cost = self.latency.tuning_recompute_seconds(&key, &value);
        let evicted = shard.tunings.lock().insert(key, value, cost);
        shard
            .counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
        &shard.counters
    }
}

impl PulseCache for ShardedPulseCache {
    fn block(&self, key: &BlockKey) -> Option<CachedBlock> {
        let shard = self.shard(key);
        let found = shard.blocks.lock().get(key).cloned();
        shard.counters.record_lookup(found.is_some());
        found
    }

    fn insert_block(&self, key: BlockKey, value: CachedBlock) {
        self.store_block(key, value)
            .insertions
            .fetch_add(1, Ordering::Relaxed);
    }

    fn tuning(&self, key: &BlockKey) -> Option<CachedTuning> {
        let shard = self.shard(key);
        let found = shard.tunings.lock().get(key).cloned();
        shard.counters.record_lookup(found.is_some());
        found
    }

    fn insert_tuning(&self, key: BlockKey, value: CachedTuning) {
        self.store_tuning(key, value)
            .insertions
            .fetch_add(1, Ordering::Relaxed);
    }

    fn num_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.blocks.lock().len()).sum()
    }

    fn num_tunings(&self) -> usize {
        self.shards.iter().map(|s| s.tunings.lock().len()).sum()
    }

    fn clear(&self) {
        // Warm-start seeds survive on purpose: clearing stored results does not
        // change what was learned about how to redo the work faster.
        for shard in &self.shards {
            shard.blocks.lock().clear();
            shard.tunings.lock().clear();
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use vqc_circuit::Circuit;

    fn key(tag: usize) -> BlockKey {
        let mut circuit = Circuit::new(1);
        circuit.rz(0, tag as f64 * 0.1);
        BlockKey::from_bound_circuit(&circuit)
    }

    /// An entry whose recompute cost grows with `tag` (iterations and duration both
    /// scale with it).
    fn entry(tag: usize) -> CachedBlock {
        CachedBlock {
            duration_ns: tag as f64,
            converged: true,
            grape_iterations: tag,
        }
    }

    fn bounded(capacity: usize) -> ShardedPulseCache {
        ShardedPulseCache::new(CacheConfig {
            shards: 1,
            max_blocks_per_shard: Some(capacity),
            max_tunings_per_shard: None,
            seeds: TableConfig::default(),
        })
    }

    /// The keys of `tags` still resident, found without counting a hit.
    fn resident(cache: &ShardedPulseCache, tags: impl IntoIterator<Item = usize>) -> Vec<usize> {
        tags.into_iter()
            .filter(|tag| cache.block_hit_count(&key(*tag)).is_some())
            .collect()
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        let cache = ShardedPulseCache::new(CacheConfig {
            shards: 5,
            ..CacheConfig::default()
        });
        assert_eq!(cache.num_shards(), 8);
        assert_eq!(
            ShardedPulseCache::new(CacheConfig {
                shards: 0,
                ..CacheConfig::default()
            })
            .num_shards(),
            1
        );
    }

    #[test]
    fn lookups_count_hits_and_misses() {
        let cache = ShardedPulseCache::default();
        assert!(cache.block(&key(1)).is_none());
        cache.insert_block(key(1), entry(1));
        assert_eq!(cache.block(&key(1)).unwrap(), entry(1));
        let metrics = cache.metrics();
        assert_eq!(
            (metrics.hits, metrics.misses, metrics.insertions),
            (1, 1, 1)
        );
    }

    #[test]
    fn eviction_drops_the_cheapest_entry_and_the_oldest_write_on_ties() {
        let cache = bounded(2);
        // Expensive entry first, then a cheap one, then a medium one: the cheap
        // entry goes, not the oldest.
        cache.insert_block(key(1), entry(100));
        cache.insert_block(key(2), entry(1));
        cache.insert_block(key(3), entry(10));
        assert_eq!(resident(&cache, 1..=3), [1, 3], "cheapest entry is evicted");

        // Equal costs fall back to insertion order.
        let cache = bounded(2);
        cache.insert_block(key(1), entry(5));
        cache.insert_block(key(2), entry(5));
        cache.insert_block(key(3), entry(5));
        assert_eq!(resident(&cache, 1..=3), [2, 3], "tie evicts the oldest");

        // Overwriting a key refreshes its age: key 2 is now the stalest write.
        let cache = bounded(2);
        cache.insert_block(key(1), entry(5));
        cache.insert_block(key(2), entry(5));
        cache.insert_block(key(1), entry(5));
        cache.insert_block(key(3), entry(5));
        assert_eq!(resident(&cache, 1..=3), [1, 3], "refreshed entry survives");
    }

    #[test]
    fn hits_weigh_a_cheap_entry_above_a_costlier_one_nobody_asked_for_twice() {
        // entry(2) costs four times entry(1) (iterations and slices both double),
        // but key(1) is hit five times: 1 × (1 + 5) outranks 4 × (1 + 0).
        let cache = bounded(2);
        cache.insert_block(key(1), entry(1));
        cache.insert_block(key(2), entry(2));
        let model = LatencyModel::default();
        assert_eq!(
            model.block_recompute_seconds(&key(2), &entry(2)),
            4.0 * model.block_recompute_seconds(&key(1), &entry(1))
        );
        for _ in 0..5 {
            assert!(cache.block(&key(1)).is_some());
        }
        assert_eq!(cache.block_hit_count(&key(1)), Some(5));
        assert_eq!(cache.block_hit_count(&key(2)), Some(0));
        cache.insert_block(key(3), entry(3));
        assert_eq!(
            resident(&cache, 1..=3),
            [1, 3],
            "the cold costlier entry is the victim"
        );
    }

    /// The `wire-mixed` thrash in miniature: a reader's cheap Fixed block is hit
    /// between the writes of a stream of costlier full-GRAPE blocks, each used
    /// once. Ranked by cost alone the reader's block is always the cheapest
    /// resident and leaves at the first overflow.
    #[test]
    fn a_hot_cheap_entry_is_never_the_victim_of_single_use_costlier_entries() {
        let capacity = 4;
        let cache = bounded(capacity);
        let hot = key(0);
        cache.insert_block(hot.clone(), entry(1));
        for one_shot in 0..64 {
            for _ in 0..8 {
                assert!(
                    cache.block(&hot).is_some(),
                    "hot entry evicted before one-shot insert {one_shot}"
                );
            }
            cache.insert_block(key(100 + one_shot), entry(2 + one_shot % 4));
            assert!(cache.num_blocks() <= capacity);
        }
        assert!(cache.block(&hot).is_some());
        assert_eq!(cache.metrics().evictions, 64 + 1 - capacity as u64);
    }

    #[test]
    fn hit_counters_survive_overwrites() {
        let cache = bounded(4);
        cache.insert_block(key(1), entry(1));
        for _ in 0..3 {
            cache.block(&key(1));
        }
        assert_eq!(cache.block_hit_count(&key(1)), Some(3));
        // Recompiling (overwriting) the entry keeps its demand history.
        cache.insert_block(key(1), entry(7));
        assert_eq!(cache.block_hit_count(&key(1)), Some(3));
        // Eviction drops the counter with the entry.
        let tight = bounded(1);
        tight.insert_block(key(1), entry(1));
        tight.block(&key(1));
        tight.insert_block(key(2), entry(2));
        assert_eq!(tight.block_hit_count(&key(1)), None);
    }

    #[test]
    fn absorb_ranks_by_derived_costs_whatever_the_snapshot_stored() {
        let source = ShardedPulseCache::default();
        for tag in 0..10 {
            source.insert_block(key(tag), entry(1 + (tag * 7) % 10));
        }
        let derived = source.snapshot();
        // The same entries as an older build might have filed them: host seconds
        // in the opposite order, a negative, a NaN.
        let mut garbage = derived.clone();
        for (index, (_, _, cost)) in garbage.blocks.iter_mut().enumerate() {
            *cost = match index % 3 {
                0 => 1.0 / (1.0 + *cost),
                1 => -*cost,
                _ => f64::NAN,
            };
        }
        let survivors = |snapshot: CacheSnapshot| {
            let cache = bounded(3);
            cache.absorb(snapshot);
            assert_eq!(cache.metrics().evictions, 7);
            resident(&cache, 0..10)
        };
        assert_eq!(survivors(garbage), survivors(derived));
    }

    #[test]
    fn just_inserted_entry_is_never_its_own_victim() {
        let cache = bounded(1);
        cache.insert_block(key(1), entry(100));
        // Cheaper than the resident entry, but the insert call must still land it.
        cache.insert_block(key(2), entry(1));
        assert!(cache.block(&key(2)).is_some());
        assert!(cache.block(&key(1)).is_none());
    }

    #[test]
    fn a_churn_of_cheap_entries_does_not_flush_the_expensive_ones() {
        // Repeated-block workload shape: a handful of expensive blocks compiled
        // early, then a churn of cheap single-purpose blocks.
        let cache = bounded(4);
        for tag in 0..4 {
            cache.insert_block(key(1000 + tag), entry(500 + tag));
        }
        for tag in 0..16 {
            cache.insert_block(key(tag), entry(1 + tag % 3));
        }
        // One of the four capacity slots is always held by the most recent insert
        // — an insert call never evicts its own entry — so the steady state is
        // the top `capacity - 1` expensive entries plus the latest cheap one.
        assert_eq!(resident(&cache, 1000..1004), [1001, 1002, 1003]);
        assert_eq!(resident(&cache, 0..16), [15]);
    }

    #[test]
    fn concurrent_inserts_against_a_tight_bound_respect_capacity_and_balance_metrics() {
        let capacity = 3;
        let cache = bounded(capacity);
        let threads = 8;
        let per_thread_ops = 200;
        let lookups_per_thread = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                let lookups = &lookups_per_thread;
                scope.spawn(move || {
                    for i in 0..per_thread_ops {
                        let tag = (t * 31 + i * 7) % 24;
                        if i % 3 == 0 {
                            cache.block(&key(tag));
                            lookups.fetch_add(1, Ordering::Relaxed);
                        } else {
                            cache.insert_block(key(tag), entry(tag));
                        }
                        // The capacity bound must hold at every intermediate
                        // point, not just after the dust settles.
                        assert!(cache.num_blocks() <= capacity);
                    }
                });
            }
        });
        let metrics = cache.metrics();
        assert!(cache.num_blocks() <= capacity);
        assert_eq!(
            metrics.hits + metrics.misses,
            lookups_per_thread.load(Ordering::Relaxed),
            "every lookup is a hit or a miss"
        );
        let total_inserts = (threads * (per_thread_ops - per_thread_ops.div_ceil(3))) as u64;
        assert_eq!(metrics.insertions, total_inserts);
        assert!(metrics.evictions > 0, "churn must evict");
    }

    #[test]
    fn absorb_restores_without_perturbing_compile_time_counters() {
        let source = ShardedPulseCache::default();
        for tag in 0..10 {
            source.insert_block(key(tag), entry(tag));
        }
        let restored = ShardedPulseCache::default();
        restored.absorb(source.snapshot());
        let metrics = restored.metrics();
        assert_eq!(metrics.hits, 0);
        assert_eq!(metrics.misses, 0);
        assert_eq!(metrics.insertions, 0, "absorb must not count as insertions");
        assert_eq!(metrics.evictions, 0);
        assert_eq!(metrics.restored, 10);
        assert_eq!(restored.num_blocks(), 10);
    }

    #[test]
    fn bounded_absorb_reconciles_restored_against_evictions() {
        let source = ShardedPulseCache::default();
        for tag in 0..10 {
            source.insert_block(key(tag), entry(tag));
        }
        let bounded = bounded(3);
        bounded.absorb(source.snapshot());
        let metrics = bounded.metrics();
        assert_eq!(metrics.restored, 10);
        assert_eq!(metrics.insertions, 0);
        assert_eq!(metrics.evictions, 7, "capacity displacements stay visible");
        assert_eq!(
            (metrics.restored - metrics.evictions) as usize,
            bounded.num_blocks()
        );
    }

    #[test]
    fn snapshot_round_trips_through_absorb() {
        let cache = ShardedPulseCache::default();
        for tag in 0..20 {
            cache.insert_block(key(tag), entry(tag));
        }
        let snapshot = cache.snapshot();
        assert_eq!(snapshot.blocks.len(), 20);
        // Every snapshot entry carries the same cost the live cache computed.
        let model = LatencyModel::default();
        for (key, value, cost) in &snapshot.blocks {
            assert_eq!(*cost, model.block_recompute_seconds(key, value));
        }

        let restored = ShardedPulseCache::new(CacheConfig {
            shards: 4,
            ..CacheConfig::default()
        });
        restored.absorb(snapshot);
        assert_eq!(restored.num_blocks(), 20);
        for tag in 0..20 {
            assert_eq!(restored.block(&key(tag)).unwrap(), entry(tag));
        }
        // The multiset of retained costs is preserved exactly. (The *sums* can
        // differ in the last bits: shard layout and hash order change the f64
        // summation order, so comparing totals bitwise would be flaky.)
        let costs = |cache: &ShardedPulseCache| {
            let mut costs: Vec<f64> = cache.snapshot().blocks.iter().map(|(_, _, c)| *c).collect();
            costs.sort_by(f64::total_cmp);
            costs
        };
        assert_eq!(costs(&restored), costs(&cache));
        let drift =
            (restored.retained_block_cost_seconds() - cache.retained_block_cost_seconds()).abs();
        assert!(drift <= 1e-9 * cache.retained_block_cost_seconds().abs());
    }

    fn seed_entry(duration_ns: f64, iterations: usize) -> SeedEntry {
        SeedEntry {
            learning_rate: 0.1,
            decay_rate: 0.999,
            tuned: true,
            converged_duration_ns: Some(duration_ns),
            failed_below_ns: duration_ns * 0.5,
            probe_iterations: vec![(duration_ns, iterations)],
            pulse: Some(vqc_core::PulseSequence::zeros(2, 64, 0.5)),
        }
    }

    #[test]
    fn seeds_round_trip_through_snapshot_and_absorb() {
        let config = CacheConfig {
            seeds: TableConfig::default(),
            ..CacheConfig::default()
        };
        let source = ShardedPulseCache::new(config);
        PulseCache::record_seed(&source, &key(1), seed_entry(4.0, 30));
        PulseCache::record_seed(&source, &key(2), seed_entry(7.0, 90));
        assert_eq!(source.num_seeds(), 2);

        let restored = ShardedPulseCache::new(config);
        restored.absorb(source.snapshot());
        assert_eq!(restored.num_seeds(), 2);
        let found = PulseCache::seed(&restored, &key(2)).expect("seed restored");
        assert_eq!(found.converged_duration_ns, Some(7.0));
        assert_eq!(found.depth(), 90);
    }

    #[test]
    fn seed_byte_budget_evicts_waveform_payloads() {
        // A budget that fits roughly one pulse-carrying entry: inserting deeper
        // entries must displace shallower ones rather than grow without bound.
        let one_entry = seed_entry(4.0, 10).approx_bytes();
        let config = CacheConfig {
            seeds: TableConfig {
                enabled: true,
                capacity: 64,
                shards: 1,
                max_bytes: Some(one_entry + one_entry / 2),
            },
            ..CacheConfig::default()
        };
        let cache = ShardedPulseCache::new(config);
        for tag in 0..6 {
            PulseCache::record_seed(
                &cache,
                &key(tag),
                seed_entry(4.0 + tag as f64, 10 * (tag + 1)),
            );
        }
        assert!(
            cache.seed_bytes() <= one_entry + one_entry / 2,
            "byte budget must hold: {} > {}",
            cache.seed_bytes(),
            one_entry + one_entry / 2
        );
        assert!(cache.num_seeds() < 6, "budget must have evicted entries");
        assert!(PulseCache::warm_start_stats(&cache).table_evictions > 0);
    }

    #[test]
    fn compaction_drops_cheap_entries_and_respects_the_size_budget() {
        let cache = ShardedPulseCache::default();
        for tag in 0..10 {
            cache.insert_block(key(tag), entry(tag));
        }
        let full = cache.snapshot();

        // Cost floor: entry 0 does zero GRAPE work and is the only one below it.
        let mut floored = full.clone();
        let min_positive = full
            .blocks
            .iter()
            .map(|(_, _, c)| *c)
            .filter(|c| *c > 0.0)
            .fold(f64::INFINITY, f64::min);
        floored.compact(&CompactionPolicy {
            cost_floor_seconds: Some(min_positive),
            max_entries: None,
        });
        assert_eq!(floored.blocks.len(), 9);

        // Size budget: the 3 costliest entries survive.
        let mut budgeted = full.clone();
        budgeted.compact(&CompactionPolicy {
            cost_floor_seconds: None,
            max_entries: Some(3),
        });
        assert_eq!(budgeted.blocks.len(), 3);
        let kept_min = budgeted
            .blocks
            .iter()
            .map(|(_, _, c)| *c)
            .fold(f64::INFINITY, f64::min);
        let dropped_max = full
            .blocks
            .iter()
            .filter(|(k, _, _)| !budgeted.blocks.iter().any(|(bk, _, _)| bk == k))
            .map(|(_, _, c)| *c)
            .fold(0.0, f64::max);
        assert!(kept_min >= dropped_max);

        // The default policy is a no-op.
        let mut untouched = full.clone();
        untouched.compact(&CompactionPolicy::default());
        assert_eq!(untouched, full);
    }
}
