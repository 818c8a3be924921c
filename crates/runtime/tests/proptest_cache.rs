//! Property tests of the sharded cache.
//!
//! Unbounded, the cache is observationally equivalent to the seed `PulseLibrary`
//! under any interleaving of inserts and lookups, for any shard count. Bounded, it
//! must respect its capacity under any insert sequence and never evict the entry an
//! insert call just wrote.

use proptest::prelude::*;
use vqc_circuit::Circuit;
use vqc_core::{BlockKey, CachedBlock, CachedTuning, PulseCache, PulseLibrary};
use vqc_runtime::{CacheConfig, ShardedPulseCache, TableConfig};

/// One step of a cache workload, replayed against both implementations.
#[derive(Debug, Clone)]
enum Op {
    InsertBlock(usize, usize),
    LookupBlock(usize),
    InsertTuning(usize, usize),
    LookupTuning(usize),
    Counts,
}

fn arb_op(key_space: usize) -> impl Strategy<Value = Op> {
    let k = 0..key_space;
    prop_oneof![
        (k.clone(), 0..1000usize).prop_map(|(k, v)| Op::InsertBlock(k, v)),
        k.clone().prop_map(Op::LookupBlock),
        (k.clone(), 0..1000usize).prop_map(|(k, v)| Op::InsertTuning(k, v)),
        k.clone().prop_map(Op::LookupTuning),
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

fn unbounded(shards: usize) -> ShardedPulseCache {
    ShardedPulseCache::new(CacheConfig {
        shards,
        max_blocks_per_shard: None,
        max_tunings_per_shard: None,
        seeds: TableConfig::default(),
    })
}

fn bounded_single_shard(capacity: usize) -> ShardedPulseCache {
    ShardedPulseCache::new(CacheConfig {
        shards: 1,
        max_blocks_per_shard: Some(capacity),
        max_tunings_per_shard: None,
        seeds: TableConfig::default(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_cache_agrees_with_pulse_library(
        ops in prop::collection::vec(arb_op(12), 1..80),
        shards in 1usize..32,
    ) {
        let reference = PulseLibrary::new();
        let sharded = unbounded(shards);
        for op in &ops {
            match *op {
                Op::InsertBlock(k, v) => {
                    reference.insert_block(key(k), block(v));
                    PulseCache::insert_block(&sharded, key(k), block(v));
                }
                Op::LookupBlock(k) => {
                    prop_assert_eq!(reference.block(&key(k)), PulseCache::block(&sharded, &key(k)));
                }
                Op::InsertTuning(k, v) => {
                    reference.insert_tuning(key(k), tuning(v));
                    PulseCache::insert_tuning(&sharded, key(k), tuning(v));
                }
                Op::LookupTuning(k) => {
                    prop_assert_eq!(reference.tuning(&key(k)), PulseCache::tuning(&sharded, &key(k)));
                }
                Op::Counts => {
                    prop_assert_eq!(reference.num_blocks(), PulseCache::num_blocks(&sharded));
                    prop_assert_eq!(reference.num_tunings(), PulseCache::num_tunings(&sharded));
                }
            }
        }
        // Final exhaustive sweep over the key space.
        for k in 0..12 {
            prop_assert_eq!(reference.block(&key(k)), PulseCache::block(&sharded, &key(k)));
            prop_assert_eq!(reference.tuning(&key(k)), PulseCache::tuning(&sharded, &key(k)));
        }
    }

    #[test]
    fn snapshot_absorb_preserves_every_entry(
        entries in prop::collection::vec((0usize..40, 0usize..1000), 0..40),
        shards_a in 1usize..16,
        shards_b in 1usize..16,
    ) {
        let original = unbounded(shards_a);
        for &(k, v) in &entries {
            PulseCache::insert_block(&original, key(k), block(v));
        }
        let restored = unbounded(shards_b);
        restored.absorb(original.snapshot());
        prop_assert_eq!(PulseCache::num_blocks(&original), PulseCache::num_blocks(&restored));
        for k in 0..40 {
            prop_assert_eq!(PulseCache::block(&original, &key(k)), PulseCache::block(&restored, &key(k)));
        }
        // Absorb is a restore, not compile-time work: the compile counters stay zero.
        let metrics = restored.metrics();
        prop_assert_eq!(metrics.insertions, 0);
        prop_assert_eq!(metrics.evictions, 0);
        prop_assert_eq!(metrics.restored, PulseCache::num_blocks(&original) as u64);
    }

    /// Bounded shards obey their capacity under any insert/lookup sequence, the
    /// entry an insert call just wrote is always still present afterwards, and the
    /// lookup counters balance (`hits + misses == lookups`).
    #[test]
    fn bounded_cache_respects_capacity_and_counts_every_lookup(
        ops in prop::collection::vec(arb_op(16), 1..120),
        capacity in 1usize..6,
    ) {
        let cache = bounded_single_shard(capacity);
        let mut lookups = 0u64;
        for op in &ops {
            match *op {
                Op::InsertBlock(k, v) => {
                    PulseCache::insert_block(&cache, key(k), block(v));
                    prop_assert!(
                        PulseCache::block(&cache, &key(k)).is_some(),
                        "the entry just inserted must never be this insert's victim"
                    );
                    lookups += 1; // the assertion above performed a lookup
                    prop_assert!(PulseCache::num_blocks(&cache) <= capacity);
                }
                Op::LookupBlock(k) => {
                    PulseCache::block(&cache, &key(k));
                    lookups += 1;
                }
                // Tunings are unbounded in this config; exercise them lightly.
                Op::InsertTuning(k, v) => PulseCache::insert_tuning(&cache, key(k), tuning(v)),
                Op::LookupTuning(k) => {
                    PulseCache::tuning(&cache, &key(k));
                    lookups += 1;
                }
                Op::Counts => {
                    prop_assert!(PulseCache::num_blocks(&cache) <= capacity);
                }
            }
        }
        let metrics = cache.metrics();
        prop_assert_eq!(metrics.hits + metrics.misses, lookups);
    }
}
