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
//! Bounded shards evict by *recompute cost*: every entry carries the GRAPE seconds
//! it would take to reproduce — the wall time its compilation was *observed* to
//! cost when the compiler recorded one (via
//! [`vqc_core::PulseCache::record_observed_cost`], which it does for every real
//! compilation), or an estimate derived from its recorded iterations via
//! [`vqc_core::LatencyModel`] otherwise — and a full shard drops the
//! cheapest-to-recompute entry first, breaking ties by insertion order. That is the
//! economics of the paper's pulse library made explicit — a cached 4-qubit block
//! stands for minutes of GRAPE, a 2-qubit block for a fraction of a second, and a
//! bounded cache should spend its capacity on the former. [`EvictionPolicy::Fifo`]
//! retains the plain oldest-first bound for comparison.
//!
//! Observed costs are *host* seconds while model estimates are paper-scale
//! seconds; within one process every real compilation records an observation
//! before its insert, and [`ShardedPulseCache::absorb`] seeds the feedback table
//! from the snapshot's persisted costs. For entries that never ran anywhere
//! (hand-inserted or pre-feedback snapshots), the model estimate is multiplied by
//! the [`vqc_core::CostCalibration`] scale — a least-squares fit over every real
//! compilation's (estimate, observation) pair — so even never-observed entries
//! rank on (approximately) the host-seconds axis once a few blocks have run.
//!
//! [`EvictionPolicy::HitWeighted`] additionally multiplies each entry's recompute
//! cost by `1 + hits`: what a bounded cache really protects is cost × expected
//! reuse, and observed hit frequency is the best available estimate of reuse.

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

/// Which entry a full shard evicts on insert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Evict the entry with the smallest estimated recompute cost first; entries of
    /// equal cost leave in insertion order.
    #[default]
    CostAware,
    /// Evict the entry with the smallest `recompute cost × (1 + observed hits)`
    /// first. Weighting cost by reuse approximates Belady on skewed workloads: a
    /// cheap block hit on every iteration protects more total recompute seconds
    /// than an expensive block nobody asks for twice. Hit counters are per-process
    /// (they are not persisted in snapshots), so a warm-started cache initially
    /// ranks by cost alone and sharpens as traffic arrives.
    HitWeighted,
    /// Evict the entry least recently inserted (or overwritten) first.
    Fifo,
}

impl EvictionPolicy {
    /// Parses the `VQC_EVICTION` spelling of a policy (`"fifo"`, `"cost"` /
    /// `"cost-aware"`, or `"hit"` / `"hit-weighted"`, case-insensitive); anything
    /// else is `None`.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "fifo" => Some(EvictionPolicy::Fifo),
            "cost" | "cost-aware" | "cost_aware" => Some(EvictionPolicy::CostAware),
            "hit" | "hits" | "hit-weighted" | "hit_weighted" => Some(EvictionPolicy::HitWeighted),
            _ => None,
        }
    }
}

/// Configuration of a [`ShardedPulseCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of independent shards (rounded up to a power of two, minimum 1).
    pub shards: usize,
    /// Maximum number of block entries per shard; a full shard evicts per the
    /// [`EvictionPolicy`] on insert. `None` disables eviction (the seed behavior).
    pub max_blocks_per_shard: Option<usize>,
    /// Maximum number of tuning entries per shard, as for `max_blocks_per_shard`.
    pub max_tunings_per_shard: Option<usize>,
    /// Which entry a full shard evicts.
    pub eviction: EvictionPolicy,
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
            eviction: EvictionPolicy::default(),
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
    /// Estimated seconds of GRAPE work to reproduce the value if evicted.
    cost: f64,
    /// Monotone write stamp. Overwriting a key refreshes its stamp, so an entry's
    /// age reflects its latest write — the seed's FIFO queue kept the *original*
    /// position, wrongly evicting a just-refreshed entry as "oldest".
    seq: u64,
    /// Lookups this key has answered since it first entered the shard (overwrites
    /// keep the count — recompiling a block does not erase its popularity). Under
    /// [`EvictionPolicy::HitWeighted`] this multiplies into the eviction rank.
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

/// One capacity-bounded key→value map with per-entry recompute costs.
#[derive(Debug)]
struct BoundedMap<V> {
    entries: HashMap<BlockKey, Slot<V>>,
    /// Eviction order index: the map's first entry is the next victim. Keys are
    /// `(policy order bits, seq)` — unique because `seq` is — so picking a victim
    /// and maintaining the index on insert/overwrite are both O(log n), where the
    /// seed's plain scan would make every insert into a full shard O(n) under the
    /// shard mutex.
    victims: BTreeMap<(u64, u64), BlockKey>,
    capacity: Option<usize>,
    policy: EvictionPolicy,
    next_seq: u64,
}

impl<V> BoundedMap<V> {
    fn new(capacity: Option<usize>, policy: EvictionPolicy) -> Self {
        BoundedMap {
            entries: HashMap::new(),
            victims: BTreeMap::new(),
            capacity,
            policy,
            next_seq: 0,
        }
    }

    /// Where an entry sorts in the eviction order under a policy. An associated
    /// function (not a method) so [`BoundedMap::get`] can reposition an entry while
    /// it holds a mutable borrow into `entries`.
    fn order_of(policy: EvictionPolicy, cost: f64, hits: u64, seq: u64) -> (u64, u64) {
        match policy {
            EvictionPolicy::Fifo => (0, seq),
            EvictionPolicy::CostAware => (cost_order_bits(cost), seq),
            EvictionPolicy::HitWeighted => (cost_order_bits(cost * (1 + hits) as f64), seq),
        }
    }

    /// Looks up a key, counting the hit. Under [`EvictionPolicy::HitWeighted`] the
    /// hit also promotes the entry in the eviction order (its protected value just
    /// grew by one recompute), which is an O(log n) reindex.
    fn get(&mut self, key: &BlockKey) -> Option<&V> {
        let policy = self.policy;
        let bounded = self.capacity.is_some();
        let slot = self.entries.get_mut(key)?;
        slot.hits += 1;
        if bounded && policy == EvictionPolicy::HitWeighted {
            self.victims
                .remove(&Self::order_of(policy, slot.cost, slot.hits - 1, slot.seq));
            self.victims.insert(
                Self::order_of(policy, slot.cost, slot.hits, slot.seq),
                key.clone(),
            );
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
    /// inserted by this very call is never its own victim, even when it is the
    /// cheapest in the shard — evicting what the caller is about to rely on would
    /// guarantee an immediate recompute.
    fn insert(&mut self, key: BlockKey, value: V, cost: f64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        // An overwrite keeps the key's accumulated hit count: recompiling a block
        // does not erase the demand history that hit-weighted eviction ranks by.
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
                .remove(&Self::order_of(self.policy, old.cost, old.hits, old.seq));
        }
        self.victims
            .insert(Self::order_of(self.policy, cost, hits, seq), key.clone());
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

/// Cap on per-shard observed-cost entries. Observed costs deliberately outlive the
/// bounded entry maps, but they must not leak without bound under parameter churn
/// (every new θ binding of a bound block is a distinct key), so the feedback table
/// is itself FIFO-bounded. Losing an old observation merely falls back to the
/// latency model — graceful, not wrong.
const OBSERVED_CAPACITY_PER_SHARD: usize = 4096;

/// FIFO-bounded key → measured-seconds map for observed compile costs.
///
/// Overwriting an existing key keeps its original queue position: the bound exists
/// to cap memory, not to implement recency semantics.
#[derive(Debug, Default)]
struct ObservedCosts {
    costs: HashMap<BlockKey, f64>,
    order: std::collections::VecDeque<BlockKey>,
}

impl ObservedCosts {
    fn record(&mut self, key: &BlockKey, seconds: f64) {
        if self.costs.insert(key.clone(), seconds).is_none() {
            self.order.push_back(key.clone());
            while self.order.len() > OBSERVED_CAPACITY_PER_SHARD {
                if let Some(evicted) = self.order.pop_front() {
                    self.costs.remove(&evicted);
                }
            }
        }
    }

    fn get(&self, key: &BlockKey) -> Option<f64> {
        self.costs.get(key).copied()
    }
}

#[derive(Debug)]
struct Shard {
    blocks: Mutex<BoundedMap<CachedBlock>>,
    tunings: Mutex<BoundedMap<CachedTuning>>,
    /// Measured wall-clock compile seconds per key. Deliberately *outside* the
    /// bounded entry maps: evicting a result does not un-learn what it cost to
    /// produce, so re-compilations and LPT scheduling keep the observation (up to
    /// the [`OBSERVED_CAPACITY_PER_SHARD`] feedback bound).
    observed: Mutex<ObservedCosts>,
    counters: Counters,
}

/// Serializable image of a cache's contents, for warm-start persistence. Each entry
/// carries its recompute-cost estimate (seconds), so a restored cache ranks restored
/// and freshly compiled entries on the same eviction scale.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// All cached block compilations, with per-entry recompute costs.
    pub blocks: Vec<(BlockKey, CachedBlock, f64)>,
    /// All cached flexible-compilation tunings, with per-entry recompute costs.
    pub tunings: Vec<(BlockKey, CachedTuning, f64)>,
    /// The transposition-table warm-start entries (snapshot format v3; v2
    /// snapshots load with this empty).
    pub seeds: Vec<(BlockKey, SeedEntry)>,
}

/// What snapshot compaction drops at save time. The default drops nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CompactionPolicy {
    /// Drop entries whose recompute cost (seconds) is below this floor — entries so
    /// cheap that re-deriving them costs less than carrying them across restarts.
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
    /// Model→host scale fit from every real compilation's (estimate, observation)
    /// pair. One global accumulator (not per-shard): it is written once per *real*
    /// GRAPE compilation — milliseconds apart at best — so contention is nil, and a
    /// single fit sees every sample instead of sixteen starved ones.
    calibration: Mutex<vqc_core::CostCalibration>,
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
                    blocks: Mutex::new(BoundedMap::new(
                        config.max_blocks_per_shard,
                        config.eviction,
                    )),
                    tunings: Mutex::new(BoundedMap::new(
                        config.max_tunings_per_shard,
                        config.eviction,
                    )),
                    observed: Mutex::new(ObservedCosts::default()),
                    counters: Counters::default(),
                })
                .collect(),
            mask: shards - 1,
            latency: LatencyModel::default(),
            seeds: TranspositionTable::new(config.seeds),
            calibration: Mutex::new(vqc_core::CostCalibration::new()),
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
    /// currently resident. Hit counters survive overwrites but not eviction (unlike
    /// observed costs, which describe the work rather than the entry).
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
    /// seconds — the estimated GRAPE work the cache is currently protecting. This is
    /// the quantity cost-aware eviction maximizes at a given capacity.
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
    /// keeps only what fits under the eviction policy, and entries displaced that
    /// way are real displacements and do count in `evictions` (so
    /// `restored - evictions` reconciles with the entry count after a bounded warm
    /// start).
    pub fn absorb(&self, snapshot: CacheSnapshot) {
        // Each entry's persisted cost doubles as its observed compile cost: a
        // warm-started process then schedules (LPT) and evicts by what its
        // predecessor measured, instead of silently reverting to the a-priori
        // model for every restored key.
        for (key, value, cost) in snapshot.blocks {
            let shard = self.shard(&key);
            shard.observed.lock().record(&key, cost);
            let evicted = shard.blocks.lock().insert(key, value, cost);
            shard.counters.restored.fetch_add(1, Ordering::Relaxed);
            shard
                .counters
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        for (key, value, cost) in snapshot.tunings {
            let shard = self.shard(&key);
            shard.observed.lock().record(&key, cost);
            let evicted = shard.tunings.lock().insert(key, value, cost);
            shard.counters.restored.fetch_add(1, Ordering::Relaxed);
            shard
                .counters
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        // Seeds replay through the table's own record path, so depth-preferred
        // replacement and the capacity/byte bounds apply to restored entries
        // exactly as they do to live ones.
        self.seeds.absorb(snapshot.seeds);
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
        let shard = self.shard(&key);
        // Once the key has a measured compile time, that observation *is* the
        // recompute cost the cache protects; the latency model only covers
        // never-observed entries (e.g. hand-inserted or migrated ones), scaled by
        // the fitted model→host factor once enough compilations calibrated it so
        // modeled and observed costs rank on one axis.
        let cost = shard
            .observed
            .lock()
            .get(&key)
            .filter(|seconds| *seconds > 0.0)
            .unwrap_or_else(|| {
                self.latency.block_recompute_seconds(&key, &value)
                    * self.calibration.lock().scale().unwrap_or(1.0)
            });
        let evicted = shard.blocks.lock().insert(key, value, cost);
        shard.counters.insertions.fetch_add(1, Ordering::Relaxed);
        shard
            .counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
    }

    fn tuning(&self, key: &BlockKey) -> Option<CachedTuning> {
        let shard = self.shard(key);
        let found = shard.tunings.lock().get(key).cloned();
        shard.counters.record_lookup(found.is_some());
        found
    }

    fn insert_tuning(&self, key: BlockKey, value: CachedTuning) {
        let shard = self.shard(&key);
        let cost = shard
            .observed
            .lock()
            .get(&key)
            .filter(|seconds| *seconds > 0.0)
            .unwrap_or_else(|| {
                self.latency.tuning_recompute_seconds(&key, &value)
                    * self.calibration.lock().scale().unwrap_or(1.0)
            });
        let evicted = shard.tunings.lock().insert(key, value, cost);
        shard.counters.insertions.fetch_add(1, Ordering::Relaxed);
        shard
            .counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
    }

    fn num_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.blocks.lock().len()).sum()
    }

    fn num_tunings(&self) -> usize {
        self.shards.iter().map(|s| s.tunings.lock().len()).sum()
    }

    fn clear(&self) {
        // Observed compile times and warm-start seeds survive on purpose:
        // clearing stored results changes neither what the work costs to redo
        // nor what was learned about how to redo it faster.
        for shard in &self.shards {
            shard.blocks.lock().clear();
            shard.tunings.lock().clear();
        }
    }

    fn record_observed_cost(&self, key: &BlockKey, seconds: f64) {
        self.shard(key).observed.lock().record(key, seconds);
    }

    fn observed_cost(&self, key: &BlockKey) -> Option<f64> {
        self.shard(key).observed.lock().get(key)
    }

    fn record_cost_sample(&self, estimated_seconds: f64, observed_seconds: f64) {
        self.calibration
            .lock()
            .record(estimated_seconds, observed_seconds);
    }

    fn cost_model_scale(&self) -> Option<f64> {
        self.calibration.lock().scale()
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

    fn bounded(capacity: usize, eviction: EvictionPolicy) -> ShardedPulseCache {
        ShardedPulseCache::new(CacheConfig {
            shards: 1,
            max_blocks_per_shard: Some(capacity),
            max_tunings_per_shard: None,
            eviction,
            seeds: TableConfig::default(),
        })
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
    fn fifo_capacity_bound_evicts_oldest_first() {
        let cache = bounded(2, EvictionPolicy::Fifo);
        cache.insert_block(key(1), entry(1));
        cache.insert_block(key(2), entry(2));
        cache.insert_block(key(3), entry(3));
        assert_eq!(cache.num_blocks(), 2);
        assert_eq!(cache.metrics().evictions, 1);
        assert!(
            cache.block(&key(1)).is_none(),
            "oldest entry should be evicted"
        );
        assert!(cache.block(&key(3)).is_some());
    }

    #[test]
    fn fifo_overwrite_refreshes_the_entry_position() {
        let cache = bounded(2, EvictionPolicy::Fifo);
        cache.insert_block(key(1), entry(1));
        cache.insert_block(key(2), entry(2));
        // Overwriting key 1 makes key 2 the oldest write; the seed kept key 1's
        // original queue position and would wrongly evict the just-refreshed entry.
        cache.insert_block(key(1), entry(7));
        cache.insert_block(key(3), entry(3));
        assert!(
            cache.block(&key(1)).is_some(),
            "refreshed entry must survive"
        );
        assert!(cache.block(&key(2)).is_none(), "stalest entry is evicted");
        assert!(cache.block(&key(3)).is_some());
    }

    #[test]
    fn cost_aware_eviction_drops_cheapest_first_with_insertion_tiebreak() {
        let cache = bounded(2, EvictionPolicy::CostAware);
        // Expensive entry first, then a cheap one, then a medium one: the cheap
        // entry goes, not the oldest.
        cache.insert_block(key(1), entry(100));
        cache.insert_block(key(2), entry(1));
        cache.insert_block(key(3), entry(10));
        assert!(cache.block(&key(1)).is_some(), "costliest entry survives");
        assert!(cache.block(&key(2)).is_none(), "cheapest entry is evicted");
        assert!(cache.block(&key(3)).is_some());

        // Equal costs fall back to insertion order.
        let cache = bounded(2, EvictionPolicy::CostAware);
        cache.insert_block(key(1), entry(5));
        cache.insert_block(key(2), entry(5));
        cache.insert_block(key(3), entry(5));
        assert!(cache.block(&key(1)).is_none(), "tie evicts the oldest");
        assert!(cache.block(&key(2)).is_some());
        assert!(cache.block(&key(3)).is_some());
    }

    #[test]
    fn hit_weighted_eviction_keeps_the_hot_cheap_entry_over_the_cold_expensive_one() {
        // Pin exact costs through observations: key(1) costs 1 s but is hit five
        // times; key(2) costs 4 s and is never hit. Weighted value: 1×(1+5)=6 vs
        // 4×(1+0)=4 — the cold expensive entry is the victim.
        let cache = bounded(2, EvictionPolicy::HitWeighted);
        cache.record_observed_cost(&key(1), 1.0);
        cache.insert_block(key(1), entry(1));
        cache.record_observed_cost(&key(2), 4.0);
        cache.insert_block(key(2), entry(2));
        for _ in 0..5 {
            assert!(cache.block(&key(1)).is_some());
        }
        assert_eq!(cache.block_hit_count(&key(1)), Some(5));
        assert_eq!(cache.block_hit_count(&key(2)), Some(0));
        cache.record_observed_cost(&key(3), 2.0);
        cache.insert_block(key(3), entry(3));
        assert!(
            cache.block(&key(1)).is_some(),
            "hot cheap entry survives under hit weighting"
        );
        assert!(
            cache.block(&key(2)).is_none(),
            "cold expensive entry is the victim"
        );

        // Under plain cost-aware eviction the same traffic evicts the cheap entry
        // regardless of its popularity — the contrast hit weighting exists for.
        let cache = bounded(2, EvictionPolicy::CostAware);
        cache.record_observed_cost(&key(1), 1.0);
        cache.insert_block(key(1), entry(1));
        cache.record_observed_cost(&key(2), 4.0);
        cache.insert_block(key(2), entry(2));
        for _ in 0..5 {
            assert!(cache.block(&key(1)).is_some());
        }
        cache.record_observed_cost(&key(3), 2.0);
        cache.insert_block(key(3), entry(3));
        assert!(cache.block(&key(1)).is_none(), "cost-aware ignores hits");
        assert!(cache.block(&key(2)).is_some());
    }

    #[test]
    fn hit_counters_survive_overwrites() {
        let cache = bounded(4, EvictionPolicy::HitWeighted);
        cache.insert_block(key(1), entry(1));
        for _ in 0..3 {
            cache.block(&key(1));
        }
        assert_eq!(cache.block_hit_count(&key(1)), Some(3));
        // Recompiling (overwriting) the entry keeps its demand history.
        cache.insert_block(key(1), entry(7));
        assert_eq!(cache.block_hit_count(&key(1)), Some(3));
        // Eviction drops the counter with the entry.
        let tight = bounded(1, EvictionPolicy::Fifo);
        tight.insert_block(key(1), entry(1));
        tight.block(&key(1));
        tight.insert_block(key(2), entry(2));
        assert_eq!(tight.block_hit_count(&key(1)), None);
    }

    #[test]
    fn calibration_scales_model_costed_inserts() {
        let cache = ShardedPulseCache::new(CacheConfig {
            shards: 1,
            ..CacheConfig::default()
        });
        // Without samples the fallback is the raw model value.
        cache.insert_block(key(1), entry(10));
        let raw = cache
            .snapshot()
            .blocks
            .iter()
            .find(|(k, _, _)| *k == key(1))
            .map(|(_, _, cost)| *cost)
            .unwrap();
        assert_eq!(
            raw,
            LatencyModel::default().block_recompute_seconds(&key(1), &entry(10))
        );

        // Three samples at a consistent 0.01 host/model ratio calibrate the scale;
        // a later never-observed insert is costed at model × 0.01.
        for estimate in [10.0, 20.0, 40.0] {
            cache.record_cost_sample(estimate, estimate * 0.01);
        }
        let scale = cache.cost_model_scale().expect("calibrated");
        assert!((scale - 0.01).abs() < 1e-12);
        cache.insert_block(key(2), entry(10));
        let calibrated = cache
            .snapshot()
            .blocks
            .iter()
            .find(|(k, _, _)| *k == key(2))
            .map(|(_, _, cost)| *cost)
            .unwrap();
        let expected = LatencyModel::default().block_recompute_seconds(&key(2), &entry(10)) * scale;
        assert!((calibrated - expected).abs() <= 1e-15 + 1e-9 * expected);
    }

    #[test]
    fn observed_costs_override_the_model_in_eviction_metadata() {
        let cache = bounded(2, EvictionPolicy::CostAware);
        // key(1) is modeled cheap (1 iteration) but was observed to take 10 s;
        // key(2) is modeled expensive (100 iterations) but was observed at 1 ms;
        // key(3) has no observation and falls back to the model (~2.4 ms here).
        cache.record_observed_cost(&key(1), 10.0);
        cache.insert_block(key(1), entry(1));
        cache.record_observed_cost(&key(2), 1e-3);
        cache.insert_block(key(2), entry(100));
        cache.insert_block(key(3), entry(50));
        // Under the a-priori model key(1) would be the victim; with feedback the
        // observed-cheapest entry key(2) leaves instead.
        assert!(
            cache.block(&key(1)).is_some(),
            "observed-expensive survives"
        );
        assert!(cache.block(&key(2)).is_none(), "observed-cheap is evicted");
        assert!(cache.block(&key(3)).is_some());
        // The observation itself survives the eviction — a later re-insert of
        // key(2) still ranks by what the work actually cost.
        assert_eq!(cache.observed_cost(&key(2)), Some(1e-3));
        // And snapshots persist the observed cost as the entry's metadata.
        let snapshot = cache.snapshot();
        let persisted = snapshot
            .blocks
            .iter()
            .find(|(k, _, _)| *k == key(1))
            .map(|(_, _, cost)| *cost);
        assert_eq!(persisted, Some(10.0));
    }

    #[test]
    fn absorb_seeds_observed_costs_from_snapshot_metadata() {
        let source = ShardedPulseCache::default();
        source.record_observed_cost(&key(1), 7.5);
        source.insert_block(key(1), entry(1));
        source.insert_block(key(2), entry(2)); // never observed: model-costed

        let restored = ShardedPulseCache::default();
        restored.absorb(source.snapshot());
        // The persisted cost (observed where the source had an observation, model
        // otherwise) becomes the restored process's observation, so LPT and
        // eviction rank warm-started blocks by the predecessor's knowledge.
        assert_eq!(restored.observed_cost(&key(1)), Some(7.5));
        assert_eq!(
            restored.observed_cost(&key(2)),
            Some(LatencyModel::default().block_recompute_seconds(&key(2), &entry(2)))
        );
    }

    #[test]
    fn observed_cost_table_is_bounded_per_shard() {
        let cache = ShardedPulseCache::new(CacheConfig {
            shards: 1,
            ..CacheConfig::default()
        });
        let total = super::OBSERVED_CAPACITY_PER_SHARD + 8;
        for tag in 0..total {
            cache.record_observed_cost(&key(tag), tag as f64 + 1.0);
        }
        // The earliest observations age out; the newest survive.
        for tag in 0..8 {
            assert_eq!(cache.observed_cost(&key(tag)), None, "tag {tag} aged out");
        }
        for tag in (total - 8)..total {
            assert_eq!(cache.observed_cost(&key(tag)), Some(tag as f64 + 1.0));
        }
    }

    #[test]
    fn just_inserted_entry_is_never_its_own_victim() {
        let cache = bounded(1, EvictionPolicy::CostAware);
        cache.insert_block(key(1), entry(100));
        // Cheaper than the resident entry, but the insert call must still land it.
        cache.insert_block(key(2), entry(1));
        assert!(cache.block(&key(2)).is_some());
        assert!(cache.block(&key(1)).is_none());
    }

    #[test]
    fn cost_aware_retains_more_grape_seconds_than_fifo_at_equal_capacity() {
        // Repeated-block workload shape: a handful of expensive blocks compiled
        // early, then a churn of cheap single-purpose blocks. FIFO lets the churn
        // flush the expensive entries; cost-aware keeps them.
        let fifo = bounded(4, EvictionPolicy::Fifo);
        let cost_aware = bounded(4, EvictionPolicy::CostAware);
        for cache in [&fifo, &cost_aware] {
            for tag in 0..4 {
                cache.insert_block(key(1000 + tag), entry(500 + tag));
            }
            for tag in 0..16 {
                cache.insert_block(key(tag), entry(1 + tag % 3));
            }
        }
        assert_eq!(fifo.num_blocks(), 4);
        assert_eq!(cost_aware.num_blocks(), 4);
        assert!(
            cost_aware.retained_block_cost_seconds() > fifo.retained_block_cost_seconds(),
            "cost-aware must retain strictly more estimated GRAPE seconds: {} vs {}",
            cost_aware.retained_block_cost_seconds(),
            fifo.retained_block_cost_seconds(),
        );
        // The costliest entries specifically survived. (One of the four capacity
        // slots is always held by the most recent insert — an insert call never
        // evicts its own entry — so the steady state is the top `capacity - 1`
        // expensive entries plus the latest cheap one.)
        for tag in 1..4 {
            assert!(cost_aware.block(&key(1000 + tag)).is_some());
        }
    }

    #[test]
    fn concurrent_inserts_against_a_tight_bound_respect_capacity_and_balance_metrics() {
        for eviction in [EvictionPolicy::Fifo, EvictionPolicy::CostAware] {
            let capacity = 3;
            let cache = bounded(capacity, eviction);
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
            assert!(cache.num_blocks() <= capacity, "{eviction:?}");
            assert_eq!(
                metrics.hits + metrics.misses,
                lookups_per_thread.load(Ordering::Relaxed),
                "{eviction:?}: every lookup is a hit or a miss"
            );
            let total_inserts = (threads * (per_thread_ops - per_thread_ops.div_ceil(3))) as u64;
            assert_eq!(metrics.insertions, total_inserts, "{eviction:?}");
            assert!(metrics.evictions > 0, "{eviction:?}: churn must evict");
        }
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
        let bounded = bounded(3, EvictionPolicy::CostAware);
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
