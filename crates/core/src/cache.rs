//! The pulse store: one lock-striped, sharded, cost-ranked map for everything a
//! compile leaves behind.
//!
//! The paper's product is a library of pre-compiled pulses — Fixed blocks compiled
//! once and looked up forever (Section 6), per-structure tuned hyperparameters that
//! are robust to θ (Section 7) — and this module is where that library is kept,
//! bounded and evicted. It holds three kinds of entry the same way: block
//! compilations and flexible-compilation tunings, which answer a lookup outright,
//! and warm-start seeds ([`SeedEntry`], under the block's *structural* key), which
//! only make the next duration search of a structure cheaper. The key space is
//! striped over independent shards, each kind behind its own mutex, so lookups of
//! different blocks proceed without contention once block compilation runs on a
//! worker pool. (A per-shard reader-writer lock was measured slower here: the
//! critical sections are a few nanoseconds, so lock acquisition dominates, and a
//! mutex acquire is cheaper than a read-lock acquire once the key space is
//! striped.) Keys are content-addressed: a [`BlockKey`] is a canonical fingerprint
//! of the block circuit, so two requests compiling the same subcircuit hit the same
//! shard slot regardless of which circuit or which variational iteration they came
//! from.
//!
//! # Eviction
//!
//! Every entry of every kind carries one cost: the GRAPE work units
//! (iterations × slices × dim³ × controls) it would take to reproduce, counted
//! from the iterations the entry itself records — the economics of the paper's
//! pulse library made explicit (a cached 4-qubit block stands for ~140 times
//! the work of a 2-qubit block of the same length and iteration count). One
//! bound ([`CacheConfig::max_entries_per_shard`], `VQC_CACHE_BLOCKS`) applies to
//! each kind's map in each shard. What a bounded map protects is that cost times
//! the reuse it expects, and observed hits are the best available estimate of
//! reuse, so a full map drops the entry with the smallest `cost × (1 + hits)`
//! first, the oldest write first on ties. A cheap Fixed block hit on every
//! variational iteration therefore outlasts costlier blocks nobody asks for
//! twice. Hit counts are per-process (snapshots do not carry them): a
//! warm-started cache ranks by cost alone and sharpens as traffic arrives.
//!
//! Seeds are a pure accelerator: with [`CacheConfig::seeds`] off (`VQC_TT=0`) the
//! store never holds or serves one and every search runs cold, and
//! [`PulseCache::clear`] keeps them — dropping stored results does not change what
//! was learned about redoing the work faster. Their traffic reports through
//! [`WarmStartStats`]; [`CacheMetrics`] counts blocks and tunings only.

use crate::library::{BlockKey, CachedBlock, CachedTuning, PulseCache};
use crate::plan::work_units;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use vqc_pulse::{DeviceModel, SeedEntry, WarmStartStats};

/// Configuration of a [`ShardedPulseCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of independent shards (rounded up to a power of two, minimum 1).
    pub shards: usize,
    /// Maximum number of entries of each kind (blocks, tunings, seeds) per shard;
    /// an insert into a full map evicts (see the module docs for the rank). `None`
    /// disables eviction.
    pub max_entries_per_shard: Option<usize>,
    /// Whether warm-start seeds are kept at all. Off, the store never holds or
    /// serves one, so every search runs exactly the cold path.
    pub seeds: bool,
}

impl Default for CacheConfig {
    /// 16 unbounded shards with seeds armed, overridden by the environment:
    /// `VQC_CACHE_BLOCKS=<n>` bounds every map to `n` entries per shard and
    /// `VQC_TT=0|off|false|no` disarms the seeds. Garbage values fall back to
    /// the defaults.
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            max_entries_per_shard: entry_bound(std::env::var("VQC_CACHE_BLOCKS").ok().as_deref()),
            seeds: seeds_armed(std::env::var("VQC_TT").ok().as_deref()),
        }
    }
}

/// The per-shard bound a `VQC_CACHE_BLOCKS` value asks for (`0` clamps to 1).
fn entry_bound(raw: Option<&str>) -> Option<usize> {
    let bound: usize = raw?.trim().parse().ok()?;
    Some(bound.max(1))
}

/// Whether a `VQC_TT` value leaves the seeds armed: only an explicit off does not.
fn seeds_armed(raw: Option<&str>) -> bool {
    !raw.is_some_and(|value| {
        matches!(
            value.trim().to_ascii_lowercase().as_str(),
            "0" | "off" | "false" | "no"
        )
    })
}

/// Point-in-time cache counters.
///
/// `hits`/`misses` count lookups of both block and tuning entries (seed traffic
/// reports through [`WarmStartStats`]); `evictions` counts block and tuning
/// entries displaced by the per-shard capacity bound (on any write path,
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
    seed_hits: AtomicU64,
    seed_misses: AtomicU64,
    seed_evictions: AtomicU64,
    seeded_iterations: AtomicU64,
    cold_iterations: AtomicU64,
}

/// Counts one lookup on the `hits` or the `misses` of its kind of traffic.
fn record_lookup(hit: bool, hits: &AtomicU64, misses: &AtomicU64) {
    let counter = if hit { hits } else { misses };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// One stored value plus its eviction metadata.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    /// GRAPE work units to reproduce the value if evicted.
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

    /// The value under a key without counting a hit.
    fn peek(&self, key: &BlockKey) -> Option<&V> {
        self.entries.get(key).map(|slot| &slot.value)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Every `(key, value, cost)` held, cloned out for a snapshot.
    fn entries(&self) -> impl Iterator<Item = (BlockKey, V, f64)> + '_
    where
        V: Clone,
    {
        self.entries
            .iter()
            .map(|(key, slot)| (key.clone(), slot.value.clone(), slot.cost))
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.victims.clear();
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
    /// Warm-start seeds, under structural keys.
    seeds: Mutex<BoundedMap<SeedEntry>>,
    counters: Counters,
}

/// Serializable image of a store's contents, for warm-start persistence. Each
/// block and tuning entry carries the recompute cost (GRAPE work units) it was
/// filed at; [`ShardedPulseCache::absorb`] ignores the stored figure and derives
/// the cost from the entry again, so files from builds that stored other units
/// (model seconds, before work units) rank on the same scale as fresh entries.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// All cached block compilations, with per-entry recompute costs.
    pub blocks: Vec<(BlockKey, CachedBlock, f64)>,
    /// All cached flexible-compilation tunings, with per-entry recompute costs.
    pub tunings: Vec<(BlockKey, CachedTuning, f64)>,
    /// The warm-start seeds, under their structural keys.
    pub seeds: Vec<(BlockKey, SeedEntry)>,
}

/// Sample period (ns) at which a stored entry's recompute cost is counted. An
/// entry no longer carries the `GrapeOptions` it was produced with, and eviction
/// needs only a consistent order, so the `GrapeOptions::fast` period serves.
const RECOMPUTE_DT_NS: f64 = 0.5;

/// [`work_units`] of the `iterations` an entry records, on the line device its
/// key's qubit count implies, for a pulse spanning `duration_ns` at the
/// [`RECOMPUTE_DT_NS`] sample period: the cost of every block, tuning and seed.
fn recompute_cost(key: &BlockKey, iterations: usize, duration_ns: f64) -> f64 {
    let device = DeviceModel::qubits_line(key.num_qubits().max(1));
    let slices = (duration_ns / RECOMPUTE_DT_NS).ceil().max(1.0) as usize;
    work_units(iterations, slices, device.dim(), device.num_controls())
}

/// The lock-striped, sharded, content-addressed pulse store — the one
/// implementation of [`PulseCache`].
#[derive(Debug)]
pub struct ShardedPulseCache {
    shards: Vec<Shard>,
    /// `shards.len() - 1`; shard count is a power of two so this masks a hash.
    mask: usize,
    /// [`CacheConfig::seeds`].
    seeds: bool,
}

impl Default for ShardedPulseCache {
    fn default() -> Self {
        ShardedPulseCache::new(CacheConfig::default())
    }
}

impl ShardedPulseCache {
    /// Creates an empty store with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1).next_power_of_two();
        let bound = config.max_entries_per_shard;
        ShardedPulseCache {
            shards: (0..shards)
                .map(|_| Shard {
                    blocks: Mutex::new(BoundedMap::new(bound)),
                    tunings: Mutex::new(BoundedMap::new(bound)),
                    seeds: Mutex::new(BoundedMap::new(bound)),
                    counters: Counters::default(),
                })
                .collect(),
            mask: shards - 1,
            seeds: config.seeds,
        }
    }

    /// Whether the maps are bounded ([`CacheConfig::max_entries_per_shard`]),
    /// so that what survives depends on the order of inserts.
    pub(crate) fn is_bounded(&self) -> bool {
        self.shards[0].blocks.lock().capacity.is_some()
    }

    /// Number of warm-start seeds currently held.
    pub fn num_seeds(&self) -> usize {
        self.shards.iter().map(|s| s.seeds.lock().len()).sum()
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

    /// Copies the full store contents into a serializable snapshot.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut snapshot = CacheSnapshot::default();
        for shard in &self.shards {
            snapshot.blocks.extend(shard.blocks.lock().entries());
            snapshot.tunings.extend(shard.tunings.lock().entries());
            let seeds = shard.seeds.lock();
            snapshot
                .seeds
                .extend(seeds.entries().map(|(key, seed, _)| (key, seed)));
        }
        snapshot
    }

    /// Restores every entry of a snapshot (e.g. one loaded from disk) without
    /// fabricating compile-time activity: `restored` counts the entries read from
    /// the snapshot (never `insertions`), so metrics read zero compilation after a
    /// warm start. Capacity bounds still apply — a snapshot larger than the cache
    /// keeps only what ranks highest, and entries displaced that way are real
    /// displacements and do count in `evictions` (so `restored - evictions`
    /// reconciles with the block and tuning count after a bounded warm start).
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
        // Seeds replay through the record path, so merging, the capacity bound
        // and the `seeds` switch apply to restored entries exactly as they do to
        // live ones.
        for (key, seed) in snapshot.seeds {
            self.record_seed(&key, seed);
        }
    }

    /// Files a block entry at the cost its own record implies and counts what
    /// that displaced; the caller counts the write itself on the returned
    /// counters (an insertion or a restore).
    fn store_block(&self, key: BlockKey, value: CachedBlock) -> &Counters {
        let shard = self.shard(&key);
        let cost = recompute_cost(&key, value.grape_iterations, value.duration_ns);
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
        let cost = recompute_cost(&key, value.precompute_iterations, value.duration_ns);
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
        let counters = &shard.counters;
        record_lookup(found.is_some(), &counters.hits, &counters.misses);
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
        let counters = &shard.counters;
        record_lookup(found.is_some(), &counters.hits, &counters.misses);
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
        if !self.seeds {
            return None;
        }
        let shard = self.shard(key);
        let found = shard.seeds.lock().get(key).cloned();
        let counters = &shard.counters;
        record_lookup(found.is_some(), &counters.seed_hits, &counters.seed_misses);
        found
    }

    fn record_seed(&self, key: &BlockKey, entry: SeedEntry) {
        if !self.seeds {
            return;
        }
        let shard = self.shard(key);
        let mut seeds = shard.seeds.lock();
        let merged = match seeds.peek(key) {
            Some(held) => {
                let mut merged = held.clone();
                merged.merge(entry);
                merged
            }
            None => entry,
        };
        // A seed distils every iteration its probe history records, at the
        // duration the structure converged at (else the one it failed below).
        let duration_ns = merged
            .converged_duration_ns
            .unwrap_or(merged.failed_below_ns);
        let cost = recompute_cost(key, merged.depth() as usize, duration_ns);
        let evicted = seeds.insert(key.clone(), merged, cost);
        shard
            .counters
            .seed_evictions
            .fetch_add(evicted, Ordering::Relaxed);
    }

    fn record_search_outcome(&self, seeded: bool, grape_iterations: u64) {
        // A search outcome has no key; the totals are sums over the shards, so
        // the first shard's counters hold them.
        let counters = &self.shards[0].counters;
        let total = if seeded {
            &counters.seeded_iterations
        } else {
            &counters.cold_iterations
        };
        total.fetch_add(grape_iterations, Ordering::Relaxed);
    }

    fn warm_start_stats(&self) -> WarmStartStats {
        let mut stats = WarmStartStats::default();
        for shard in &self.shards {
            let counters = &shard.counters;
            stats.table_hits += counters.seed_hits.load(Ordering::Relaxed);
            stats.table_misses += counters.seed_misses.load(Ordering::Relaxed);
            stats.table_evictions += counters.seed_evictions.load(Ordering::Relaxed);
            stats.seeded_iterations += counters.seeded_iterations.load(Ordering::Relaxed);
            stats.cold_iterations += counters.cold_iterations.load(Ordering::Relaxed);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqc_circuit::Circuit;
    use vqc_pulse::PulseSequence;

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

    /// One shard bounded to `capacity` entries of each kind, seeds armed whatever
    /// `VQC_TT` says.
    fn bounded(capacity: usize) -> ShardedPulseCache {
        ShardedPulseCache::new(CacheConfig {
            shards: 1,
            max_entries_per_shard: Some(capacity),
            seeds: true,
        })
    }

    /// Lookups the block key has answered since entering its shard, if it is
    /// resident — read without counting one.
    fn block_hit_count(cache: &ShardedPulseCache, key: &BlockKey) -> Option<u64> {
        let blocks = cache.shard(key).blocks.lock();
        blocks.entries.get(key).map(|slot| slot.hits)
    }

    /// The keys of `tags` still resident, found without counting a hit.
    fn resident(cache: &ShardedPulseCache, tags: impl IntoIterator<Item = usize>) -> Vec<usize> {
        tags.into_iter()
            .filter(|tag| block_hit_count(cache, &key(*tag)).is_some())
            .collect()
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        let cache = ShardedPulseCache::new(CacheConfig {
            shards: 5,
            ..CacheConfig::default()
        });
        assert_eq!(cache.shards.len(), 8);
        let cache = ShardedPulseCache::new(CacheConfig {
            shards: 0,
            ..CacheConfig::default()
        });
        assert_eq!(cache.shards.len(), 1);
    }

    #[test]
    fn the_environment_knobs_parse_tolerantly() {
        // `VQC_CACHE_BLOCKS`: a count bounds every map, 0 clamps to 1, anything
        // else leaves the store unbounded.
        assert_eq!(entry_bound(None), None);
        assert_eq!(entry_bound(Some("16")), Some(16));
        assert_eq!(entry_bound(Some(" 16\n")), Some(16));
        assert_eq!(entry_bound(Some("0")), Some(1));
        for garbage in ["", "many", "-3", "1.5"] {
            assert_eq!(entry_bound(Some(garbage)), None, "{garbage:?}");
        }
        // `VQC_TT`: only an explicit off disarms the seeds.
        assert!(seeds_armed(None));
        for off in ["0", "off", "OFF", " false ", "no"] {
            assert!(!seeds_armed(Some(off)), "{off:?}");
        }
        for on in ["1", "on", "", "garbage"] {
            assert!(seeds_armed(Some(on)), "{on:?}");
        }
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
        let cost = |tag| {
            recompute_cost(
                &key(tag),
                entry(tag).grape_iterations,
                entry(tag).duration_ns,
            )
        };
        assert_eq!(cost(2), 4.0 * cost(1));
        for _ in 0..5 {
            assert!(cache.block(&key(1)).is_some());
        }
        assert_eq!(block_hit_count(&cache, &key(1)), Some(5));
        assert_eq!(block_hit_count(&cache, &key(2)), Some(0));
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
    /// resident and leaves at the first overflow. The same holds one map over: a
    /// seed probed between the records of single-use structures stays.
    #[test]
    fn a_hot_cheap_entry_is_never_the_victim_of_single_use_costlier_entries() {
        let capacity = 4;
        let cache = bounded(capacity);
        let hot = key(0);
        cache.insert_block(hot.clone(), entry(1));
        cache.record_seed(&hot, seed_entry(1.0, 1));
        for one_shot in 0..64 {
            for _ in 0..8 {
                assert!(
                    cache.block(&hot).is_some() && cache.seed(&hot).is_some(),
                    "hot entry evicted before one-shot insert {one_shot}"
                );
            }
            let cost = 2 + one_shot % 4;
            cache.insert_block(key(100 + one_shot), entry(cost));
            cache.record_seed(&key(100 + one_shot), seed_entry(cost as f64, cost));
            assert!(cache.num_blocks() <= capacity && cache.num_seeds() <= capacity);
        }
        assert!(cache.block(&hot).is_some() && cache.seed(&hot).is_some());
        // Each kind counts its own displacements.
        let displaced = 64 + 1 - capacity as u64;
        assert_eq!(cache.metrics().evictions, displaced);
        assert_eq!(cache.warm_start_stats().table_evictions, displaced);
    }

    #[test]
    fn hit_counters_survive_overwrites() {
        let cache = bounded(4);
        cache.insert_block(key(1), entry(1));
        for _ in 0..3 {
            cache.block(&key(1));
        }
        assert_eq!(block_hit_count(&cache, &key(1)), Some(3));
        // Recompiling (overwriting) the entry keeps its demand history.
        cache.insert_block(key(1), entry(7));
        assert_eq!(block_hit_count(&cache, &key(1)), Some(3));
        // Eviction drops the counter with the entry.
        let tight = bounded(1);
        tight.insert_block(key(1), entry(1));
        tight.block(&key(1));
        tight.insert_block(key(2), entry(2));
        assert_eq!(block_hit_count(&tight, &key(1)), None);
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
        for (key, value, cost) in &snapshot.blocks {
            assert_eq!(
                *cost,
                recompute_cost(key, value.grape_iterations, value.duration_ns)
            );
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
        // The multiset of retained costs is preserved exactly.
        let costs = |cache: &ShardedPulseCache| {
            let mut costs: Vec<f64> = cache.snapshot().blocks.iter().map(|(_, _, c)| *c).collect();
            costs.sort_by(f64::total_cmp);
            costs
        };
        assert_eq!(costs(&restored), costs(&cache));
    }

    fn seed_entry(duration_ns: f64, iterations: usize) -> SeedEntry {
        SeedEntry {
            learning_rate: 0.1,
            decay_rate: 0.999,
            tuned: true,
            converged_duration_ns: Some(duration_ns),
            failed_below_ns: duration_ns * 0.5,
            probe_iterations: vec![(duration_ns, iterations)],
            pulse: Some(PulseSequence::zeros(2, 64, 0.5)),
        }
    }

    #[test]
    fn a_seed_misses_then_records_then_hits_and_merges() {
        let cache = bounded(4);
        assert!(cache.seed(&key(7)).is_none());
        cache.record_seed(&key(7), seed_entry(3.0, 40));
        let found = cache.seed(&key(7)).expect("recorded seed must hit");
        assert_eq!(found.converged_duration_ns, Some(3.0));
        assert_eq!(found.depth(), 40);
        // A second record of the key merges into the first.
        cache.record_seed(&key(7), seed_entry(2.5, 10));
        let merged = cache.seed(&key(7)).expect("still resident");
        assert_eq!(merged.converged_duration_ns, Some(2.5));
        assert_eq!(merged.depth(), 50);
        assert_eq!(cache.num_seeds(), 1);
        let stats = cache.warm_start_stats();
        assert_eq!((stats.table_hits, stats.table_misses), (2, 1));
        // Seed traffic is not block or tuning traffic.
        assert_eq!(cache.metrics(), CacheMetrics::default());
    }

    #[test]
    fn disarmed_seeds_are_never_stored_or_served() {
        let cache = ShardedPulseCache::new(CacheConfig {
            seeds: false,
            ..CacheConfig::default()
        });
        cache.record_seed(&key(1), seed_entry(3.0, 10));
        cache.absorb(CacheSnapshot {
            seeds: vec![(key(2), seed_entry(4.0, 10))],
            ..CacheSnapshot::default()
        });
        assert!(cache.seed(&key(1)).is_none() && cache.seed(&key(2)).is_none());
        assert_eq!(cache.num_seeds(), 0);
        assert_eq!(cache.warm_start_stats(), WarmStartStats::default());
    }

    #[test]
    fn search_outcomes_aggregate() {
        let cache = ShardedPulseCache::default();
        cache.record_search_outcome(true, 40);
        cache.record_search_outcome(false, 100);
        cache.record_search_outcome(true, 10);
        let stats = cache.warm_start_stats();
        assert_eq!(stats.seeded_iterations, 50);
        assert_eq!(stats.cold_iterations, 100);
    }

    #[test]
    fn seeds_round_trip_through_snapshot_and_absorb() {
        let config = CacheConfig {
            seeds: true,
            ..CacheConfig::default()
        };
        let source = ShardedPulseCache::new(config);
        source.record_seed(&key(1), seed_entry(4.0, 30));
        source.record_seed(&key(2), seed_entry(7.0, 90));
        assert_eq!(source.num_seeds(), 2);

        let restored = ShardedPulseCache::new(config);
        restored.absorb(source.snapshot());
        restored.clear(); // drops blocks and tunings; seeds survive
        assert_eq!(restored.num_seeds(), 2);
        let found = restored.seed(&key(2)).expect("seed restored");
        assert_eq!(found.converged_duration_ns, Some(7.0));
        assert_eq!(found.depth(), 90);
        // Restored seeds are not restored blocks.
        assert_eq!(restored.metrics().restored, 0);
    }
}
