//! Property tests of the pulse store.
//!
//! Unbounded, the store is observationally equivalent to three plain `HashMap`s —
//! blocks, tunings, and seeds folded with `SeedEntry::merge` — under any
//! interleaving of writes and lookups, for any shard count. Bounded, every kind
//! must respect the one capacity under any write sequence and never evict the
//! entry a write just filed.

use proptest::prelude::*;
use std::collections::HashMap;
use vqc_circuit::Circuit;
use vqc_core::{BlockKey, CachedBlock, CachedTuning, PulseCache, SeedEntry};
use vqc_runtime::{CacheConfig, ShardedPulseCache};

/// One step of a store workload, replayed against the store and the model.
#[derive(Debug, Clone)]
enum Op {
    InsertBlock(usize, usize),
    LookupBlock(usize),
    InsertTuning(usize, usize),
    LookupTuning(usize),
    RecordSeed(usize, usize),
    ProbeSeed(usize),
    Counts,
}

fn arb_op(key_space: usize) -> impl Strategy<Value = Op> {
    let k = 0..key_space;
    prop_oneof![
        (k.clone(), 0..1000usize).prop_map(|(k, v)| Op::InsertBlock(k, v)),
        k.clone().prop_map(Op::LookupBlock),
        (k.clone(), 0..1000usize).prop_map(|(k, v)| Op::InsertTuning(k, v)),
        k.clone().prop_map(Op::LookupTuning),
        (k.clone(), 0..1000usize).prop_map(|(k, v)| Op::RecordSeed(k, v)),
        k.clone().prop_map(Op::ProbeSeed),
        k.prop_map(|_| Op::Counts),
    ]
}

/// Distinct, deterministic keys: one-qubit circuits with distinct rotation angles.
fn key(tag: usize) -> BlockKey {
    let mut circuit = Circuit::new(1);
    circuit.rz(0, 0.25 * tag as f64 + 0.125);
    BlockKey::from_bound_circuit(&circuit)
}

/// `value` scales the entry's recompute cost (iterations and duration both grow).
fn block(value: usize) -> CachedBlock {
    CachedBlock {
        duration_ns: value as f64 * 0.5,
        converged: !value.is_multiple_of(3),
        grape_iterations: value,
    }
}

fn tuning(value: usize) -> CachedTuning {
    CachedTuning {
        learning_rate: 0.01 * value as f64,
        decay_rate: 0.99,
        duration_ns: value as f64,
        converged: value.is_multiple_of(2),
        precompute_iterations: value * 7,
        runtime_iterations: value,
    }
}

/// One search's record of a structure: converged or not, tuned or not, by `value`.
fn seed(value: usize) -> SeedEntry {
    let duration_ns = 1.0 + (value % 16) as f64;
    SeedEntry {
        learning_rate: 0.01 * value as f64,
        decay_rate: 0.99,
        tuned: value.is_multiple_of(5),
        converged_duration_ns: (!value.is_multiple_of(3)).then_some(duration_ns),
        failed_below_ns: duration_ns * 0.5,
        probe_iterations: vec![(duration_ns, value)],
        pulse: None,
    }
}

/// A store with seeds armed whatever `VQC_TT` says.
fn store(shards: usize, max_entries_per_shard: Option<usize>) -> ShardedPulseCache {
    ShardedPulseCache::new(CacheConfig {
        shards,
        max_entries_per_shard,
        seeds: true,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_cache_agrees_with_plain_hash_maps(
        ops in prop::collection::vec(arb_op(12), 1..80),
        shards in 1usize..32,
    ) {
        let mut blocks = HashMap::new();
        let mut tunings = HashMap::new();
        let mut seeds: HashMap<BlockKey, SeedEntry> = HashMap::new();
        let sharded = store(shards, None);
        for op in &ops {
            match *op {
                Op::InsertBlock(k, v) => {
                    blocks.insert(key(k), block(v));
                    sharded.insert_block(key(k), block(v));
                }
                Op::LookupBlock(k) => {
                    prop_assert_eq!(blocks.get(&key(k)).cloned(), sharded.block(&key(k)));
                }
                Op::InsertTuning(k, v) => {
                    tunings.insert(key(k), tuning(v));
                    sharded.insert_tuning(key(k), tuning(v));
                }
                Op::LookupTuning(k) => {
                    prop_assert_eq!(tunings.get(&key(k)).cloned(), sharded.tuning(&key(k)));
                }
                Op::RecordSeed(k, v) => {
                    seeds
                        .entry(key(k))
                        .and_modify(|held| held.merge(seed(v)))
                        .or_insert_with(|| seed(v));
                    sharded.record_seed(&key(k), seed(v));
                }
                Op::ProbeSeed(k) => {
                    prop_assert_eq!(seeds.get(&key(k)).cloned(), sharded.seed(&key(k)));
                }
                Op::Counts => {
                    prop_assert_eq!(blocks.len(), sharded.num_blocks());
                    prop_assert_eq!(tunings.len(), sharded.num_tunings());
                    prop_assert_eq!(seeds.len(), sharded.num_seeds());
                }
            }
        }
        // Final exhaustive sweep over the key space.
        for k in 0..12 {
            prop_assert_eq!(blocks.get(&key(k)).cloned(), sharded.block(&key(k)));
            prop_assert_eq!(tunings.get(&key(k)).cloned(), sharded.tuning(&key(k)));
            prop_assert_eq!(seeds.get(&key(k)).cloned(), sharded.seed(&key(k)));
        }
    }

    #[test]
    fn snapshot_absorb_preserves_every_entry(
        entries in prop::collection::vec((0usize..40, 0usize..1000), 0..40),
        shards_a in 1usize..16,
        shards_b in 1usize..16,
    ) {
        let original = store(shards_a, None);
        for &(k, v) in &entries {
            original.insert_block(key(k), block(v));
            original.record_seed(&key(k), seed(v));
        }
        let restored = store(shards_b, None);
        restored.absorb(original.snapshot());
        prop_assert_eq!(original.num_blocks(), restored.num_blocks());
        prop_assert_eq!(original.num_seeds(), restored.num_seeds());
        for k in 0..40 {
            prop_assert_eq!(original.block(&key(k)), restored.block(&key(k)));
            prop_assert_eq!(original.seed(&key(k)), restored.seed(&key(k)));
        }
        // Absorb is a restore, not compile-time work: the compile counters stay zero.
        let metrics = restored.metrics();
        prop_assert_eq!(metrics.insertions, 0);
        prop_assert_eq!(metrics.evictions, 0);
        prop_assert_eq!(metrics.restored, original.num_blocks() as u64);
    }

    /// Every kind obeys the one bound under any write/lookup sequence, the entry a
    /// write just filed is always still present afterwards, and the lookup counters
    /// balance (`hits + misses == lookups`, per kind of traffic).
    #[test]
    fn bounded_cache_respects_capacity_and_counts_every_lookup(
        ops in prop::collection::vec(arb_op(16), 1..120),
        capacity in 1usize..6,
    ) {
        let cache = store(1, Some(capacity));
        let (mut lookups, mut probes) = (0u64, 0u64);
        for op in &ops {
            match *op {
                Op::InsertBlock(k, v) => {
                    cache.insert_block(key(k), block(v));
                    prop_assert!(cache.block(&key(k)).is_some(), "a write evicted its own entry");
                    lookups += 1; // the assertion above performed a lookup
                }
                Op::LookupBlock(k) => {
                    cache.block(&key(k));
                    lookups += 1;
                }
                Op::InsertTuning(k, v) => {
                    cache.insert_tuning(key(k), tuning(v));
                    prop_assert!(cache.tuning(&key(k)).is_some(), "a write evicted its own entry");
                    lookups += 1;
                }
                Op::LookupTuning(k) => {
                    cache.tuning(&key(k));
                    lookups += 1;
                }
                Op::RecordSeed(k, v) => {
                    cache.record_seed(&key(k), seed(v));
                    prop_assert!(cache.seed(&key(k)).is_some(), "a write evicted its own entry");
                    probes += 1;
                }
                Op::ProbeSeed(k) => {
                    cache.seed(&key(k));
                    probes += 1;
                }
                Op::Counts => {}
            }
            prop_assert!(cache.num_blocks() <= capacity);
            prop_assert!(cache.num_tunings() <= capacity);
            prop_assert!(cache.num_seeds() <= capacity);
        }
        let metrics = cache.metrics();
        prop_assert_eq!(metrics.hits + metrics.misses, lookups);
        let stats = cache.warm_start_stats();
        prop_assert_eq!(stats.table_hits + stats.table_misses, probes);
    }
}
