//! Compilation plans, their per-block records, and the per-compiler plan cache.
//!
//! Nothing in a plan depends on θ: the transpile passes run on the unbound
//! circuit, blocking reads only the symbolic parameter sets, and Table-1 gate
//! times ignore angles. A variational optimizer resubmits one ansatz thousands
//! of times, so [`crate::PartialCompiler::plan`] plans each `(circuit, strategy)`
//! once and serves every later iteration from the [`PlanCache`].

use crate::blocking::{aggregate_blocks_with_cap, Block};
use crate::compiler::{CompilerOptions, Strategy};
use crate::library::BlockKey;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::ops::Deref;
use std::sync::Arc;
use vqc_circuit::timing::critical_path_ns;
use vqc_circuit::{passes, Circuit, Gate, ParamExpr};
use vqc_pulse::DeviceModel;

/// The blocking decision for one circuit under one strategy: everything the
/// per-block compilation steps need, produced once by
/// [`crate::PartialCompiler::plan`].
///
/// Splitting planning from block compilation is what lets `vqc-runtime` compile the
/// independent blocks of a plan on a worker pool: each block's
/// [`crate::PartialCompiler::compile_block_outcome`] call is side-effect-free apart
/// from inserts into the shared [`crate::PulseCache`], so blocks can run in any order
/// and in parallel, and [`crate::PartialCompiler::assemble`] folds the outcomes back
/// into the same [`crate::CompilationReport`] the sequential path produces.
///
/// A plan is a shared handle onto immutable [`PlanData`]: cloning it is a
/// reference-count bump, which is what lets the plan cache hand the same plan to
/// every iteration. The fields (`plan.prepared`, `plan.blocks`, …) are reached
/// through `Deref`.
#[derive(Debug, Clone)]
pub struct CompilationPlan(Arc<PlanData>);

impl Deref for CompilationPlan {
    type Target = PlanData;

    fn deref(&self) -> &PlanData {
        &self.0
    }
}

/// The contents of a [`CompilationPlan`].
#[derive(Debug)]
pub struct PlanData {
    /// The optimized, basis-lowered circuit the blocks index into.
    pub prepared: Circuit,
    /// Gate-based critical-path duration of the prepared circuit (ns).
    pub gate_based_duration_ns: f64,
    /// The aggregated blocks (empty for the gate-based strategy).
    pub blocks: Vec<Block>,
    /// Strategy the plan was made for.
    pub strategy: Strategy,
    /// The circuit as submitted: what a plan-cache hit is verified against.
    source: Circuit,
    /// Length a parameter binding needs (highest θ index referenced, plus one).
    pub(crate) required_parameters: usize,
    /// One record per block, in block order.
    pub(crate) records: Vec<BlockRecord>,
    /// The options the records were derived under, kept so a record for a block
    /// that is not one of `blocks` is built the same way.
    options: CompilerOptions,
}

/// Where a block's pulse-level result is cached, decided once per plan.
#[derive(Debug, Clone)]
pub(crate) enum CacheSlot {
    /// A single-gate block: exactly what the Table-1 lookup table stores, so it
    /// needs no GRAPE work and has no cache key.
    Lookup,
    /// A Fixed block: its bound key is θ-free, so it is built here, once.
    Block(BlockKey),
    /// A flexible single-θ block: its tuning is cached per subcircuit structure.
    Tuning(BlockKey),
    /// A parameterized block compiled per binding (full GRAPE): the key is built
    /// from the bound subcircuit at every θ.
    BoundBlock,
}

/// The θ-independent facts about one block, extracted once when the plan is made
/// and read by `dedup_key`, the scheduler and block compilation alike.
#[derive(Debug, Clone)]
pub(crate) struct BlockRecord {
    /// The block as a standalone unbound circuit on its own qubits.
    pub(crate) subcircuit: Circuit,
    /// Gate-based runtime of the block (ns): GRAPE's search upper bound. Table-1
    /// gate times ignore angles, so no binding is needed to know it.
    pub(crate) gate_based_ns: f64,
    pub(crate) slot: CacheSlot,
    /// [`work_units`] a cold compile of the block costs: every probe of the
    /// duration search (`⌈log₂(gate_based_ns / search_precision_ns)⌉ + 1` of them)
    /// spending `grape.max_iterations` iterations at the gate-based slice count.
    /// Zero for lookup blocks. It orders a submission's tasks and is what the
    /// submission is charged in its client's fair share; only ratios matter.
    pub(crate) cost: f64,
}

/// The one cost formula, `iterations × slices × dim³ × controls`: the GRAPE work
/// of `iterations` iterations on a pulse of `slices` slices, on a device of
/// Hilbert dimension `dim` with `controls` controls. It is a count, not a time:
/// block costs and store entries are ranked by it, while reports carry only
/// counted iterations and measured seconds.
pub(crate) fn work_units(iterations: usize, slices: usize, dim: usize, controls: usize) -> f64 {
    iterations as f64 * slices as f64 * (dim as f64).powi(3) * controls as f64
}

impl BlockRecord {
    fn new(
        prepared: &Circuit,
        block: &Block,
        strategy: Strategy,
        options: &CompilerOptions,
    ) -> Self {
        let subcircuit = block.to_circuit(prepared);
        let gate_based_ns = critical_path_ns(&subcircuit, &options.gate_times);
        let slot = if strategy == Strategy::GateBased || block.len() <= 1 {
            CacheSlot::Lookup
        } else if block.is_fixed() {
            CacheSlot::Block(BlockKey::from_bound_circuit(&subcircuit))
        } else if strategy == Strategy::FlexiblePartial {
            CacheSlot::Tuning(BlockKey::structural(&subcircuit))
        } else {
            CacheSlot::BoundBlock
        };
        // Lookup blocks do no pulse work; only keyed blocks need a device.
        let cost = match slot {
            CacheSlot::Lookup => 0.0,
            _ => {
                let device = DeviceModel::qubits_line(block.qubits.len());
                let slices = (gate_based_ns / options.grape.dt_ns).ceil().max(1.0) as usize;
                let probes = (gate_based_ns / options.search_precision_ns.max(1e-9))
                    .max(1.0)
                    .log2()
                    .ceil() as usize
                    + 1;
                work_units(
                    probes * options.grape.max_iterations,
                    slices,
                    device.dim(),
                    device.num_controls(),
                )
            }
        };
        BlockRecord {
            gate_based_ns,
            cost,
            slot,
            subcircuit,
        }
    }

    /// The block's cache key at a binding, or `None` for a lookup block.
    pub(crate) fn key(&self, params: &[f64]) -> Option<BlockKey> {
        match &self.slot {
            CacheSlot::Lookup => None,
            CacheSlot::Block(key) | CacheSlot::Tuning(key) => Some(key.clone()),
            CacheSlot::BoundBlock => {
                Some(BlockKey::from_bound_circuit(&self.subcircuit.bind(params)))
            }
        }
    }
}

impl CompilationPlan {
    /// Plans a circuit from scratch: transpile passes, blocking, and one record
    /// per block.
    pub(crate) fn build(circuit: &Circuit, strategy: Strategy, options: &CompilerOptions) -> Self {
        let prepared = passes::optimize(circuit);
        let gate_based_duration_ns = critical_path_ns(&prepared, &options.gate_times);
        let blocks = match strategy.parameter_policy() {
            None => Vec::new(),
            Some(policy) => aggregate_blocks_with_cap(
                &prepared,
                options.max_block_width,
                policy,
                options.max_block_ops,
            ),
        };
        let records = blocks
            .iter()
            .map(|block| BlockRecord::new(&prepared, block, strategy, options))
            .collect();
        CompilationPlan(Arc::new(PlanData {
            required_parameters: circuit
                .parameter_indices()
                .into_iter()
                .max()
                .map_or(0, |highest| highest + 1),
            source: circuit.clone(),
            prepared,
            gate_based_duration_ns,
            blocks,
            strategy,
            records,
            options: options.clone(),
        }))
    }

    /// The key under which a block's pulse-level work is cached, or `None` when the
    /// block needs no GRAPE work at all (single-gate lookup blocks, gate-based
    /// strategy). Two blocks with the same key perform identical GRAPE work, so a
    /// concurrent runtime deduplicates in-flight compilations on this key.
    pub fn dedup_key(&self, block: &Block, params: &[f64]) -> Option<BlockKey> {
        self.record(block).key(params)
    }

    /// GRAPE work units (iterations × slices × dim³ × controls) a cold compile
    /// of the block costs — its processing time for longest-first scheduling and
    /// fair-share charging. It is fixed when the plan is made: zero for a block
    /// that needs no pulse work, otherwise growing with the block's width
    /// (`dim³ × controls`), its gate-based duration (slices and search probes) and
    /// the iteration cap.
    pub fn block_cost(&self, block: &Block) -> f64 {
        self.record(block).cost
    }

    /// The record of one block. Blocks of this plan find theirs by position
    /// (aggregation emits blocks in order of their first operation); any other
    /// block gets a record built for the call, so every `&Block` is answered.
    pub(crate) fn record(&self, block: &Block) -> Cow<'_, BlockRecord> {
        let first_op = block.op_indices.first();
        let position = self
            .blocks
            .binary_search_by(|candidate| candidate.op_indices.first().cmp(&first_op))
            .ok()
            .filter(|&index| {
                let candidate = &self.blocks[index];
                std::ptr::eq(candidate, block) || candidate == block
            });
        match position {
            Some(index) => Cow::Borrowed(&self.records[index]),
            None => Cow::Owned(BlockRecord::new(
                &self.prepared,
                block,
                self.strategy,
                &self.options,
            )),
        }
    }
}

/// Plans kept per compiler. A variational loop cycles through a handful of
/// `(ansatz, strategy)` pairs; a few dozen slots hold them with room to spare.
const PLAN_CACHE_CAPACITY: usize = 32;

/// A 64-bit fingerprint of `(circuit, strategy)`: one multiply-rotate step per
/// word of content. It only narrows the search — a hit is verified by circuit
/// equality — and the cache is a bounded linear scan, so colliding inputs cost
/// one extra comparison, never a wrong plan or a degenerate table.
pub(crate) fn fingerprint(circuit: &Circuit, strategy: Strategy) -> u64 {
    fn mix(hash: u64, word: u64) -> u64 {
        (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    }
    fn mix_angle(hash: u64, angle: &ParamExpr) -> u64 {
        match *angle {
            ParamExpr::Constant(value) => mix(mix(hash, 0), value.to_bits()),
            ParamExpr::Linear {
                index,
                scale,
                offset,
            } => mix(
                mix(mix(hash, index as u64 + 1), scale.to_bits()),
                offset.to_bits(),
            ),
        }
    }
    let mut hash = mix(strategy as u64, circuit.num_qubits() as u64);
    for op in circuit.iter() {
        let tag = match op.gate {
            Gate::Rz(_) => 1,
            Gate::Rx(_) => 2,
            Gate::Ry(_) => 3,
            Gate::H => 4,
            Gate::X => 5,
            Gate::Z => 6,
            Gate::Cx => 7,
            Gate::Cz => 8,
            Gate::Swap => 9,
            Gate::Rzz(_) => 10,
        };
        hash = mix(hash, tag);
        for &qubit in &op.qubits {
            hash = mix(hash, qubit as u64);
        }
        if let Some(angle) = op.gate.angle() {
            hash = mix_angle(hash, angle);
        }
    }
    hash
}

/// Plan-cache traffic of one compiler, for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// `plan` calls served a stored plan.
    pub hits: u64,
    /// `plan` calls that planned from scratch.
    pub misses: u64,
    /// Plans currently stored.
    pub plans: usize,
}

#[derive(Debug)]
struct CachedPlan {
    fingerprint: u64,
    /// The cache clock at the entry's last hit or insert; the smallest is evicted.
    last_used: u64,
    plan: CompilationPlan,
}

#[derive(Debug, Default)]
struct PlanCacheInner {
    entries: Vec<CachedPlan>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl PlanCacheInner {
    fn find(
        &mut self,
        fingerprint: u64,
        circuit: &Circuit,
        strategy: Strategy,
    ) -> Option<&mut CachedPlan> {
        self.entries.iter_mut().find(|entry| {
            entry.fingerprint == fingerprint
                && entry.plan.strategy == strategy
                && entry.plan.source == *circuit
        })
    }
}

/// A small recency-evicted cache of plans, addressed by circuit content.
///
/// Eviction is least-recently-used, so a stream of one-off circuits (each bound
/// circuit of a full-GRAPE sweep is its own plan) cannot push out a plan that is
/// hit between them.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    inner: Mutex<PlanCacheInner>,
}

impl PlanCache {
    /// The stored plan for `(circuit, strategy)`, if any. `fingerprint` must be
    /// [`fingerprint`]`(circuit, strategy)`; equality decides the hit.
    pub(crate) fn get(
        &self,
        fingerprint: u64,
        circuit: &Circuit,
        strategy: Strategy,
    ) -> Option<CompilationPlan> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let found = inner.find(fingerprint, circuit, strategy).map(|entry| {
            entry.last_used = clock;
            entry.plan.clone()
        });
        match found {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        found
    }

    /// Stores a freshly built plan, evicting the least recently used one at
    /// capacity. Two threads that planned the same circuit at once share a slot.
    pub(crate) fn insert(&self, fingerprint: u64, plan: CompilationPlan) {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.find(fingerprint, &plan.source, plan.strategy) {
            entry.last_used = clock;
            return;
        }
        if inner.entries.len() >= PLAN_CACHE_CAPACITY {
            let oldest = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(index, _)| index);
            if let Some(oldest) = oldest {
                inner.entries.swap_remove(oldest);
            }
        }
        inner.entries.push(CachedPlan {
            fingerprint,
            last_used: clock,
            plan,
        });
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        let inner = self.inner.lock();
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            plans: inner.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circuit(angle: f64) -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        c.rz_expr(1, ParamExpr::theta(0));
        c.cx(0, 1);
        c.rx(0, angle);
        c
    }

    fn plan_of(circuit: &Circuit, strategy: Strategy) -> CompilationPlan {
        CompilationPlan::build(circuit, strategy, &CompilerOptions::fast())
    }

    #[test]
    fn work_units_are_exact_and_linear_in_iterations() {
        // A 4-qubit line (dim 16, 11 controls) at 800 slices: an integer in f64.
        assert_eq!(work_units(2000, 800, 16, 11), 72_089_600_000.0);
        assert_eq!(work_units(200, 50, 4, 5), 2.0 * work_units(100, 50, 4, 5));
    }

    #[test]
    fn fingerprints_separate_content_and_strategy() {
        let a = circuit(0.3);
        assert_eq!(
            fingerprint(&a, Strategy::StrictPartial),
            fingerprint(&a.clone(), Strategy::StrictPartial)
        );
        assert_ne!(
            fingerprint(&a, Strategy::StrictPartial),
            fingerprint(&a, Strategy::FlexiblePartial)
        );
        assert_ne!(
            fingerprint(&a, Strategy::StrictPartial),
            fingerprint(&circuit(0.31), Strategy::StrictPartial)
        );
    }

    #[test]
    fn a_forced_fingerprint_collision_does_not_share_a_plan() {
        let cache = PlanCache::default();
        let (a, b) = (circuit(0.3), circuit(0.9));
        // Both circuits are filed under one fingerprint, as a real collision would.
        cache.insert(7, plan_of(&a, Strategy::StrictPartial));
        assert!(cache.get(7, &b, Strategy::StrictPartial).is_none());
        assert!(cache.get(7, &a, Strategy::FlexiblePartial).is_none());
        cache.insert(7, plan_of(&b, Strategy::StrictPartial));
        let for_a = cache
            .get(7, &a, Strategy::StrictPartial)
            .expect("a is stored");
        let for_b = cache
            .get(7, &b, Strategy::StrictPartial)
            .expect("b is stored");
        assert_eq!(
            for_a.prepared,
            plan_of(&a, Strategy::StrictPartial).prepared
        );
        assert_eq!(
            for_b.prepared,
            plan_of(&b, Strategy::StrictPartial).prepared
        );
        assert_ne!(for_a.prepared, for_b.prepared);
        assert_eq!(cache.stats().plans, 2);
    }

    #[test]
    fn one_off_circuits_stay_within_capacity_and_spare_a_plan_in_use() {
        let cache = PlanCache::default();
        let kept = circuit(0.5);
        let kept_print = fingerprint(&kept, Strategy::StrictPartial);
        cache.insert(kept_print, plan_of(&kept, Strategy::StrictPartial));
        for i in 0..4 * PLAN_CACHE_CAPACITY {
            let one_off = circuit(1.0 + i as f64);
            let print = fingerprint(&one_off, Strategy::FullGrape);
            assert!(cache.get(print, &one_off, Strategy::FullGrape).is_none());
            cache.insert(print, plan_of(&one_off, Strategy::FullGrape));
            assert!(cache.stats().plans <= PLAN_CACHE_CAPACITY);
            // The plan in use is touched between the one-offs, as a reader's is.
            assert!(cache
                .get(kept_print, &kept, Strategy::StrictPartial)
                .is_some());
        }
        assert_eq!(cache.stats().plans, PLAN_CACHE_CAPACITY);
    }

    #[test]
    fn inserting_the_same_plan_twice_takes_one_slot() {
        let cache = PlanCache::default();
        let a = circuit(0.3);
        let print = fingerprint(&a, Strategy::StrictPartial);
        cache.insert(print, plan_of(&a, Strategy::StrictPartial));
        cache.insert(print, plan_of(&a, Strategy::StrictPartial));
        assert_eq!(cache.stats().plans, 1);
    }

    #[test]
    fn a_rotation_whose_theta_terms_cancel_leaves_its_block_fixed() {
        // Rz(θ)·Rz(−θ + 0.3) is the constant Rz(0.3): nothing in the plan depends on θ.
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        c.rz_expr(1, ParamExpr::theta(0));
        c.rz_expr(
            1,
            ParamExpr::theta(0)
                .negated()
                .try_add(&ParamExpr::constant(0.3))
                .unwrap(),
        );
        c.cx(0, 1);
        let plan = plan_of(&c, Strategy::StrictPartial);
        assert_eq!(plan.prepared.num_parameters(), 0);
        assert!(!plan.blocks.is_empty());
        assert!(plan.blocks.iter().all(|block| block.parameters.is_empty()));
    }

    #[test]
    fn a_block_from_outside_the_plan_still_gets_its_key() {
        let a = circuit(0.3);
        let plan = plan_of(&a, Strategy::FlexiblePartial);
        for block in &plan.blocks {
            let copy = block.clone();
            assert_eq!(plan.dedup_key(&copy, &[0.2]), plan.dedup_key(block, &[0.2]));
        }
        // A block the plan never produced: the first two operations on their own.
        let foreign = Block {
            op_indices: vec![0, 1],
            qubits: vec![0, 1],
            parameters: Default::default(),
        };
        let expected = BlockKey::from_bound_circuit(&foreign.to_circuit(&plan.prepared));
        assert_eq!(plan.dedup_key(&foreign, &[0.2]), Some(expected));
    }
}
