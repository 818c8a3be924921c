//! The [`PartialCompiler`]: one API over the four compilation strategies.

use crate::blocking::{Block, ParameterPolicy};
use crate::cache::ShardedPulseCache;
use crate::hyperparam::{tune_hyperparameters_keeping_winner, HyperparameterGrid};
use crate::library::{BlockKey, CachedBlock, CachedTuning, PulseCache};
use crate::plan::{self, BlockRecord, CacheSlot, CompilationPlan, PlanCache, PlanCacheStats};
use crate::schedule::schedule_blocks;
use crate::CompileError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;
use vqc_circuit::timing::{critical_path_ns, GateTimes};
use vqc_circuit::{passes, Circuit};
use vqc_pulse::grape::GrapeOptions;
use vqc_pulse::minimum_time::{
    minimum_pulse_time_after_opening, minimum_pulse_time_seeded, MinimumTimeOptions,
    MinimumTimeResult,
};
use vqc_pulse::profile::{self, CompileProfile, Phase};
use vqc_pulse::{DeviceModel, EigenMemo, SeedEntry};
use vqc_sim::circuit_unitary;

/// The compilation strategy to apply (Sections 2.3, 5, 6 and 7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Lookup-table concatenation of per-gate pulses (the baseline).
    GateBased,
    /// Pre-compiled GRAPE pulses for parameterization-independent Fixed blocks,
    /// lookup-table pulses for the parameterized gates.
    StrictPartial,
    /// Single-θ blocks compiled at runtime by GRAPE with pre-tuned hyperparameters.
    FlexiblePartial,
    /// Full GRAPE over ≤4-qubit blocks at every variational iteration.
    FullGrape,
}

impl Strategy {
    /// All four strategies, in the order the paper's tables report them.
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::GateBased,
            Strategy::StrictPartial,
            Strategy::FlexiblePartial,
            Strategy::FullGrape,
        ]
    }

    /// Short human-readable name matching the paper's table rows.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::GateBased => "Gate-based",
            Strategy::StrictPartial => "Strict Partial",
            Strategy::FlexiblePartial => "Flexible Partial",
            Strategy::FullGrape => "Full GRAPE",
        }
    }

    pub(crate) fn parameter_policy(&self) -> Option<ParameterPolicy> {
        match self {
            Strategy::GateBased => None,
            Strategy::StrictPartial => Some(ParameterPolicy::Forbid),
            Strategy::FlexiblePartial => Some(ParameterPolicy::AtMostOne),
            Strategy::FullGrape => Some(ParameterPolicy::Unlimited),
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Configuration of a [`PartialCompiler`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompilerOptions {
    /// Maximum block width handed to GRAPE (the paper uses 4).
    pub max_block_width: usize,
    /// Maximum number of operations aggregated into one GRAPE block. The paper places
    /// no such limit (at enormous compute cost); reduced effort levels cap it so block
    /// pulse optimizations stay tractable.
    pub max_block_ops: usize,
    /// GRAPE effort settings used for every block compilation.
    pub grape: GrapeOptions,
    /// Precision of the minimum-pulse-time binary search, in nanoseconds.
    pub search_precision_ns: f64,
    /// Gate durations used for the gate-based baseline and as GRAPE upper bounds.
    pub gate_times: GateTimes,
    /// Hyperparameter grid used by flexible partial compilation's pre-compute phase.
    pub hyperparameter_grid: HyperparameterGrid,
}

impl CompilerOptions {
    /// Fast settings for tests and the `fast` benchmark effort level.
    pub fn fast() -> Self {
        let mut grape = GrapeOptions::fast();
        grape.max_iterations = 150;
        grape.target_infidelity = 2e-2;
        CompilerOptions {
            max_block_width: 4,
            max_block_ops: 12,
            grape,
            search_precision_ns: 1.0,
            gate_times: GateTimes::default(),
            hyperparameter_grid: HyperparameterGrid::fast(),
        }
    }

    /// Balanced settings (0.25 ns samples, 0.1 % infidelity target, 0.3 ns search
    /// precision as in the paper's footnote).
    pub fn standard() -> Self {
        CompilerOptions {
            max_block_width: 4,
            max_block_ops: 60,
            grape: GrapeOptions::standard(),
            search_precision_ns: 0.3,
            gate_times: GateTimes::default(),
            hyperparameter_grid: HyperparameterGrid::standard(),
        }
    }

    /// The paper's settings (20 GSa/s sampling, 99.9 % target fidelity).
    pub fn paper() -> Self {
        CompilerOptions {
            max_block_width: 4,
            max_block_ops: usize::MAX,
            grape: GrapeOptions::paper(),
            search_precision_ns: 0.3,
            gate_times: GateTimes::default(),
            hyperparameter_grid: HyperparameterGrid::standard(),
        }
    }
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions::standard()
    }
}

/// Per-block compilation outcome included in a [`CompilationReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockCompilation {
    /// Physical qubits of the block.
    pub qubits: Vec<usize>,
    /// Number of gate operations in the block.
    pub num_ops: usize,
    /// Pulse duration assigned to the block (ns).
    pub duration_ns: f64,
    /// Gate-based runtime of the block (ns), which is also GRAPE's search upper bound.
    pub gate_based_ns: f64,
    /// GRAPE iterations spent on this block during this compile call.
    pub grape_iterations: usize,
    /// Whether the block's pulse came from GRAPE (`true`) or the lookup table.
    pub used_grape: bool,
    /// Whether GRAPE reached the target fidelity (lookup blocks report `true`).
    pub converged: bool,
    /// Whether the result was served from the pulse library cache.
    pub cached: bool,
    /// Wall-clock seconds of pulse-level work (GRAPE / tuning) this compile call
    /// actually performed for the block. Cache hits and lookup-table blocks report
    /// `0.0`. It is reported, never fed back: scheduling and eviction cost a block
    /// from its plan and its cache entry.
    pub measured_seconds: f64,
    /// Per-phase attribution of `measured_seconds` when the compile-phase
    /// profiler is armed (`VQC_PROFILE`); empty (all zeros) otherwise and for
    /// cache hits / lookup-table blocks. The phase sum never exceeds
    /// `measured_seconds`.
    pub profile: CompileProfile,
}

/// The result of compiling one circuit with one strategy at one parameter binding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompilationReport {
    /// Strategy that produced this report.
    pub strategy: Strategy,
    /// Total pulse duration of the compiled circuit (ns) — the paper's primary metric.
    pub pulse_duration_ns: f64,
    /// Gate-based baseline duration of the same circuit (ns).
    pub gate_based_duration_ns: f64,
    /// Number of blocks the circuit was aggregated into (0 for gate-based).
    pub num_blocks: usize,
    /// Per-block details.
    pub blocks: Vec<BlockCompilation>,
    /// Compilation latency attributed to the pre-compute phase (before the variational
    /// loop starts).
    pub precompute: PhaseLatency,
    /// Compilation latency attributed to runtime (paid at every variational iteration).
    pub runtime: PhaseLatency,
}

/// The compilation latency of one phase (pre-compute or runtime) of one
/// strategy: GRAPE iterations counted and wall-clock seconds measured, never an
/// estimate.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseLatency {
    /// GRAPE iterations attributed to this phase.
    pub grape_iterations: usize,
    /// Wall-clock seconds this process spent on the phase's pulse-level work.
    pub measured_seconds: f64,
}

impl PhaseLatency {
    /// Adds another phase's latency into this one.
    pub fn accumulate(&mut self, other: &PhaseLatency) {
        self.grape_iterations += other.grape_iterations;
        self.measured_seconds += other.measured_seconds;
    }
}

impl CompilationReport {
    /// Pulse speedup factor relative to gate-based compilation (>1 means faster).
    pub fn pulse_speedup(&self) -> f64 {
        if self.pulse_duration_ns > 0.0 {
            self.gate_based_duration_ns / self.pulse_duration_ns
        } else {
            1.0
        }
    }
}

/// The result of compiling one block of a [`CompilationPlan`]: the per-block report
/// plus the compilation latency the work incurred, attributed to its phase.
#[derive(Debug, Clone)]
pub struct BlockOutcome {
    /// Per-block compilation details.
    pub report: BlockCompilation,
    /// Latency attributed to the pre-compute phase by this block.
    pub precompute: PhaseLatency,
    /// Latency attributed to the runtime phase by this block.
    pub runtime: PhaseLatency,
}

/// The partial compiler: owns the configuration, a shared pulse store, and the
/// plans of the circuits it has seen.
#[derive(Debug)]
pub struct PartialCompiler {
    options: CompilerOptions,
    cache: Arc<ShardedPulseCache>,
    plans: PlanCache,
}

impl PartialCompiler {
    /// Creates a compiler with the given options and an empty pulse store of its
    /// own at the environment-configured defaults ([`crate::CacheConfig::default`]).
    pub fn new(options: CompilerOptions) -> Self {
        PartialCompiler::with_cache(options, Arc::new(ShardedPulseCache::default()))
    }

    /// Creates a compiler on an externally owned store (e.g. the one a
    /// `vqc-runtime` service shares across compilers and requests).
    pub fn with_cache(options: CompilerOptions, cache: Arc<ShardedPulseCache>) -> Self {
        PartialCompiler {
            options,
            cache,
            plans: PlanCache::default(),
        }
    }

    /// The compiler's configuration.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// The pulse store (blocks, tunings and warm-start seeds).
    pub fn cache(&self) -> &ShardedPulseCache {
        &self.cache
    }

    /// The pulse store behind its [`PulseCache`] interface — kept, like the trait,
    /// for the driver benchmark, which calls through it.
    pub fn library(&self) -> &dyn PulseCache {
        self.cache.as_ref()
    }

    /// A cloneable handle to the pulse store, for a second compiler to share.
    pub fn shared_cache(&self) -> Arc<ShardedPulseCache> {
        Arc::clone(&self.cache)
    }

    /// How many [`PartialCompiler::plan`] calls the plan cache served and how many
    /// planned from scratch.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Optimizes and lowers a circuit to the compilation basis — the preparation every
    /// strategy shares.
    pub fn prepare(&self, circuit: &Circuit) -> Circuit {
        passes::optimize(circuit)
    }

    /// Gate-based runtime (ns) of a circuit after preparation.
    pub fn gate_based_runtime_ns(&self, circuit: &Circuit) -> f64 {
        critical_path_ns(&self.prepare(circuit), &self.options.gate_times)
    }

    /// Compiles a circuit under a strategy at a concrete parameter binding.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::MissingParameters`] if `params` is shorter than the
    /// highest θ index the circuit references, or propagates circuit/pulse errors.
    pub fn compile(
        &self,
        circuit: &Circuit,
        params: &[f64],
        strategy: Strategy,
    ) -> Result<CompilationReport, CompileError> {
        let plan = self.plan(circuit, params, strategy)?;
        let mut outcomes = Vec::with_capacity(plan.blocks.len());
        for (block, record) in plan.blocks.iter().zip(&plan.records) {
            outcomes.push(self.compile_record(plan.strategy, block, record, params)?);
        }
        Ok(self.assemble(&plan, outcomes))
    }

    /// Prepares a circuit and decides its blocking under a strategy, without doing any
    /// pulse-level work. The returned plan's blocks are independent: they can be fed
    /// to [`PartialCompiler::compile_block_outcome`] in any order (or concurrently)
    /// and folded back with [`PartialCompiler::assemble`].
    ///
    /// Nothing in a plan depends on the values in `params`, so each
    /// `(circuit, strategy)` is planned once: later calls with an equal circuit
    /// return the stored plan (a shared handle) from a small recency-evicted cache.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::MissingParameters`] if `params` is shorter than the
    /// highest θ index the circuit references.
    pub fn plan(
        &self,
        circuit: &Circuit,
        params: &[f64],
        strategy: Strategy,
    ) -> Result<CompilationPlan, CompileError> {
        let fingerprint = plan::fingerprint(circuit, strategy);
        let plan = match self.plans.get(fingerprint, circuit, strategy) {
            Some(plan) => plan,
            None => {
                // Built outside the cache's lock: two threads may plan the same
                // circuit at once, and the second insert finds the first.
                let plan = CompilationPlan::build(circuit, strategy, &self.options);
                self.plans.insert(fingerprint, plan.clone());
                plan
            }
        };
        if params.len() < plan.required_parameters {
            return Err(CompileError::MissingParameters {
                supplied: params.len(),
                required: plan.required_parameters,
            });
        }
        Ok(plan)
    }

    /// Folds per-block outcomes back into the report [`PartialCompiler::compile`]
    /// would have produced sequentially.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` does not contain exactly one outcome per plan block, in
    /// plan order.
    pub fn assemble(
        &self,
        plan: &CompilationPlan,
        outcomes: Vec<BlockOutcome>,
    ) -> CompilationReport {
        assert_eq!(
            outcomes.len(),
            plan.blocks.len(),
            "assemble needs one outcome per planned block"
        );
        if plan.strategy.parameter_policy().is_none() {
            return CompilationReport {
                strategy: plan.strategy,
                pulse_duration_ns: plan.gate_based_duration_ns,
                gate_based_duration_ns: plan.gate_based_duration_ns,
                num_blocks: plan.prepared.len(),
                blocks: Vec::new(),
                precompute: PhaseLatency::default(),
                runtime: PhaseLatency::default(),
            };
        }

        let mut precompute = PhaseLatency::default();
        let mut runtime = PhaseLatency::default();
        let mut block_reports = Vec::with_capacity(outcomes.len());
        let mut durations: Vec<(Vec<usize>, f64)> = Vec::with_capacity(outcomes.len());
        for (block, outcome) in plan.blocks.iter().zip(outcomes) {
            precompute.accumulate(&outcome.precompute);
            runtime.accumulate(&outcome.runtime);
            durations.push((block.qubits.clone(), outcome.report.duration_ns));
            block_reports.push(outcome.report);
        }

        let (_placement, blocked_duration_ns) =
            schedule_blocks(plan.prepared.num_qubits(), &durations);
        // Section 5.2: the paper's aggregation only accepts blockings that do not delay
        // execution, so GRAPE-style strategies are strictly better than gate-based
        // compilation. Our greedy aggregation can occasionally serialize gates that the
        // gate-level ASAP schedule overlapped; when that happens the compiler falls back
        // to emitting the gate-based pulse schedule, preserving the guarantee.
        let pulse_duration_ns = blocked_duration_ns.min(plan.gate_based_duration_ns);

        CompilationReport {
            strategy: plan.strategy,
            pulse_duration_ns,
            gate_based_duration_ns: plan.gate_based_duration_ns,
            num_blocks: plan.blocks.len(),
            blocks: block_reports,
            precompute,
            runtime,
        }
    }

    /// Compiles a single block of a plan, returning its report together with the
    /// latency it incurred in each phase. Results of pulse-level work are cached in
    /// the shared [`PulseCache`], so re-compiling an identical block is a lookup.
    ///
    /// The plan may come from another compiler: its per-block records carry the
    /// gate times and sample period of the compiler that made it.
    pub fn compile_block_outcome(
        &self,
        plan: &CompilationPlan,
        block: &Block,
        params: &[f64],
    ) -> Result<BlockOutcome, CompileError> {
        self.compile_record(plan.strategy, block, &plan.record(block), params)
    }

    fn compile_record(
        &self,
        strategy: Strategy,
        block: &Block,
        record: &BlockRecord,
        params: &[f64],
    ) -> Result<BlockOutcome, CompileError> {
        self.resolve_without_pulse_work(block, record, params)
            .or_else(|key| self.compile_missed(strategy, block, record, params, key))
    }

    /// The outcome of a block that needs no pulse-level work — a single-gate
    /// lookup block, or one probe of the cache slot its record names that hits —
    /// or else the key the missing work is to be filed under.
    fn resolve_without_pulse_work(
        &self,
        block: &Block,
        record: &BlockRecord,
        params: &[f64],
    ) -> Result<BlockOutcome, BlockKey> {
        let bound_key;
        let key = match &record.slot {
            // Single-gate blocks are exactly what the lookup table already stores
            // (Table 1 durations are themselves GRAPE-derived), so no pulse
            // optimization is needed.
            CacheSlot::Lookup => {
                return Ok(BlockOutcome {
                    report: lookup_report(block, record),
                    precompute: PhaseLatency::default(),
                    runtime: PhaseLatency::default(),
                })
            }
            CacheSlot::Block(key) | CacheSlot::Tuning(key) => key,
            CacheSlot::BoundBlock => {
                bound_key = BlockKey::from_bound_circuit(&record.subcircuit.bind(params));
                &bound_key
            }
        };
        let hit = if let CacheSlot::Tuning(_) = record.slot {
            self.cache
                .tuning(key)
                .map(|tuning| tuned_outcome(block, record, &tuning))
        } else {
            self.cache
                .block(key)
                .map(|entry| grape_outcome(block, record, &entry))
        };
        hit.ok_or_else(|| key.clone())
    }

    /// Does the pulse-level work of a block whose probe missed, files the result
    /// under `key`, and books the latency on the phase the work belongs to under
    /// the strategy.
    fn compile_missed(
        &self,
        strategy: Strategy,
        block: &Block,
        record: &BlockRecord,
        params: &[f64],
        key: BlockKey,
    ) -> Result<BlockOutcome, CompileError> {
        let bound = record.subcircuit.bind(params);
        let device = DeviceModel::qubits_line(block.qubits.len());
        let upper_bound_ns = record.gate_based_ns;
        let (mut outcome, measured, block_profile) = if let CacheSlot::Tuning(_) = record.slot {
            let started = Instant::now();
            profile::begin_block();
            let tuning = self.tune_flexible_block(&key, &bound, &device, upper_bound_ns)?;
            let measured = started.elapsed().as_secs_f64();
            let block_profile = profile::take_block().unwrap_or_default();
            let mut outcome = tuned_outcome(block, record, &tuning);
            outcome.precompute = PhaseLatency {
                grape_iterations: tuning.precompute_iterations,
                measured_seconds: measured,
            };
            self.cache.insert_tuning(key, tuning);
            (outcome, measured, block_profile)
        } else {
            let (entry, measured, block_profile) =
                self.grape_block(key, &record.subcircuit, &bound, &device, upper_bound_ns)?;
            let mut outcome = grape_outcome(block, record, &entry);
            // Strict and flexible partial compilation GRAPE-compile Fixed blocks
            // before the variational loop starts; full GRAPE pays the same work at
            // every iteration (with a fresh θ, so it rarely hits the cache).
            let latency = PhaseLatency {
                grape_iterations: entry.grape_iterations,
                measured_seconds: measured,
            };
            match strategy {
                Strategy::FullGrape => outcome.runtime = latency,
                _ => outcome.precompute = latency,
            }
            (outcome, measured, block_profile)
        };
        outcome.report.cached = false;
        outcome.report.measured_seconds = measured;
        outcome.report.profile = block_profile;
        Ok(outcome)
    }

    /// Minimum-time GRAPE compilation of a bound block the cache does not hold,
    /// filed under `key`. Returns the cached entry, the wall-clock seconds of GRAPE
    /// work, and its profile.
    ///
    /// The compiler asks the store for a seed under the block's *structural* key: a
    /// neighbor with the same structure at a different θ seeds the duration
    /// search's window and warm-starts its probes (Figure 4: structure, not
    /// binding, dominates GRAPE behavior). The finished search is folded back into
    /// the seed either way, so every real compile deepens what the next one opens from.
    fn grape_block(
        &self,
        key: BlockKey,
        subcircuit: &Circuit,
        bound: &Circuit,
        device: &DeviceModel,
        upper_bound_ns: f64,
    ) -> Result<(CachedBlock, f64, CompileProfile), CompileError> {
        let structural_key = BlockKey::structural(subcircuit);
        // The timer starts before the warm-start probe so the MemoProbe phase
        // falls inside the measured window the profile attributes.
        let started = Instant::now();
        profile::begin_block();
        let seed = {
            let _probe = profile::scope(Phase::MemoProbe);
            self.cache.seed(&structural_key)
        };
        let target = circuit_unitary(bound);
        let search = MinimumTimeOptions::new(0.0, upper_bound_ns)
            .with_precision(self.options.search_precision_ns);
        let search_seed = seed.as_ref().map(SeedEntry::search_seed);
        let result = minimum_pulse_time_seeded(
            &target,
            device,
            &search,
            &self.options.grape,
            &mut EigenMemo::new(),
            search_seed.as_ref(),
        )?;
        let measured = started.elapsed().as_secs_f64();
        let block_profile = profile::take_block().unwrap_or_default();
        let entry = CachedBlock {
            duration_ns: if result.converged {
                result.duration_ns
            } else {
                upper_bound_ns
            },
            converged: result.converged,
            grape_iterations: result.total_iterations(),
        };
        self.cache.insert_block(key, entry.clone());
        self.record_search_feedback(&structural_key, &self.options.grape, false, &result);
        Ok((entry, measured, block_profile))
    }

    /// Folds a finished duration search back into the store's seed for its
    /// structure: the converged duration and its pulse, the tightest
    /// non-converging lower bound, and the per-probe iteration counts become (or
    /// tighten, via [`SeedEntry::merge`]) what every structural neighbor starts from.
    fn record_search_feedback(
        &self,
        structural_key: &BlockKey,
        grape: &GrapeOptions,
        tuned: bool,
        result: &MinimumTimeResult,
    ) {
        let mut entry = SeedEntry {
            learning_rate: grape.learning_rate,
            decay_rate: grape.decay_rate,
            tuned,
            converged_duration_ns: result.converged.then_some(result.duration_ns),
            failed_below_ns: 0.0,
            probe_iterations: Vec::new(),
            pulse: result.best.as_ref().map(|best| best.pulse.clone()),
        };
        for probe in &result.probes {
            if !probe.converged {
                entry.failed_below_ns = entry.failed_below_ns.max(probe.duration_ns);
            }
            entry.record_probe(probe.duration_ns, probe.iterations);
        }
        self.cache.record_seed(structural_key, entry);
        self.cache
            .record_search_outcome(result.seeded, result.total_iterations() as u64);
    }

    /// Flexible partial compilation pre-compute for a single-θ block: tune the
    /// hyperparameters at the gate-based upper bound, then binary-search the minimum
    /// duration with the tuned configuration.
    ///
    /// A *tuned, converged* seed for the same structure answers the
    /// hyperparameter grid outright — Figure 4's observation that the
    /// tuned configuration is θ-robust — so only the (seeded) duration search
    /// remains. Untuned seeds (e.g. from full-GRAPE searches of the same
    /// structure) still seed the search window without skipping the grid.
    fn tune_flexible_block(
        &self,
        structural_key: &BlockKey,
        bound_reference: &Circuit,
        device: &DeviceModel,
        upper_bound_ns: f64,
    ) -> Result<CachedTuning, CompileError> {
        let seed = {
            let _probe = profile::scope(Phase::MemoProbe);
            self.cache.seed(structural_key)
        };
        // The grid's winning run, kept when it can stand in for the search's
        // opening probe, and the iterations it cost (counted by the grid already).
        let mut opening = None;
        let (learning_rate, decay_rate, grid_iterations, fallback_runtime) = match &seed {
            Some(entry) if entry.tuned && entry.converged() => (
                entry.learning_rate,
                entry.decay_rate,
                0,
                self.options.grape.max_iterations,
            ),
            _ => {
                let (tuning, winner) = tune_hyperparameters_keeping_winner(
                    bound_reference,
                    device,
                    upper_bound_ns,
                    &self.options.grape,
                    &self.options.hyperparameter_grid,
                )?;
                // Without a seed the search opens cold at the upper bound
                // under the tuned options: target, duration, options and guess
                // are the winning candidate's, so its run is handed in.
                if seed.is_none() {
                    opening = Some(winner);
                }
                (
                    tuning.learning_rate,
                    tuning.decay_rate,
                    tuning.total_probe_iterations(),
                    tuning.runtime_iterations,
                )
            }
        };
        let tuned_options = self
            .options
            .grape
            .with_hyperparameters(learning_rate, decay_rate);
        let target = circuit_unitary(bound_reference);
        let search = MinimumTimeOptions::new(0.0, upper_bound_ns)
            .with_precision(self.options.search_precision_ns);
        let reused_iterations = opening.as_ref().map_or(0, |run| run.iterations);
        let mintime = match opening {
            Some(opening) => {
                minimum_pulse_time_after_opening(&target, device, &search, &tuned_options, opening)?
            }
            None => minimum_pulse_time_seeded(
                &target,
                device,
                &search,
                &tuned_options,
                &mut EigenMemo::new(),
                seed.as_ref().map(SeedEntry::search_seed).as_ref(),
            )?,
        };
        self.record_search_feedback(structural_key, &tuned_options, true, &mintime);
        let runtime_iterations = mintime
            .best
            .as_ref()
            .map(|best| best.iterations)
            .unwrap_or(fallback_runtime);
        Ok(CachedTuning {
            learning_rate,
            decay_rate,
            duration_ns: if mintime.converged {
                mintime.duration_ns
            } else {
                upper_bound_ns
            },
            converged: mintime.converged,
            precompute_iterations: grid_iterations + mintime.total_iterations() - reused_iterations,
            runtime_iterations,
        })
    }
}

/// The report of a block served by the Table-1 lookup table — and the base every
/// GRAPE-backed report overrides.
fn lookup_report(block: &Block, record: &BlockRecord) -> BlockCompilation {
    BlockCompilation {
        qubits: block.qubits.clone(),
        num_ops: block.len(),
        duration_ns: record.gate_based_ns,
        gate_based_ns: record.gate_based_ns,
        grape_iterations: 0,
        used_grape: false,
        converged: true,
        cached: false,
        measured_seconds: 0.0,
        profile: CompileProfile::default(),
    }
}

/// The outcome of a GRAPE block served from the pulse cache: latency is only paid
/// when the library misses, a hit is a (near-instant) lookup.
fn grape_outcome(block: &Block, record: &BlockRecord, entry: &CachedBlock) -> BlockOutcome {
    BlockOutcome {
        report: BlockCompilation {
            duration_ns: entry.duration_ns,
            grape_iterations: entry.grape_iterations,
            used_grape: true,
            converged: entry.converged,
            cached: true,
            ..lookup_report(block, record)
        },
        precompute: PhaseLatency::default(),
        runtime: PhaseLatency::default(),
    }
}

/// The outcome of a flexible single-θ block served from its cached tuning.
/// The paper runs one tuned GRAPE per new θ at the pre-computed duration; this
/// compiler runs none and reports the iterations the tuned run took during
/// pre-compute (`runtime_iterations`), so the runtime phase measures 0 s.
fn tuned_outcome(block: &Block, record: &BlockRecord, tuning: &CachedTuning) -> BlockOutcome {
    BlockOutcome {
        report: BlockCompilation {
            duration_ns: if tuning.converged {
                tuning.duration_ns
            } else {
                record.gate_based_ns
            },
            grape_iterations: tuning.runtime_iterations,
            used_grape: tuning.converged,
            converged: tuning.converged,
            cached: true,
            ..lookup_report(block, record)
        },
        precompute: PhaseLatency::default(),
        runtime: PhaseLatency {
            grape_iterations: tuning.runtime_iterations,
            measured_seconds: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use vqc_circuit::ParamExpr;

    /// A Figure-3-style two-qubit variational circuit: deep fixed sections interleaved
    /// with parameterized Rz gates.
    fn example_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0);
        c.h(1);
        c.cx(0, 1);
        c.rz_expr(1, ParamExpr::theta(0));
        c.cx(0, 1);
        c.rx(0, 1.1);
        c.cx(0, 1);
        c.rz_expr(1, ParamExpr::theta(1));
        c.cx(0, 1);
        c.h(0);
        c.h(1);
        c
    }

    fn compiler() -> PartialCompiler {
        PartialCompiler::new(CompilerOptions::fast())
    }

    /// A store with seeds armed whatever `VQC_TT` says.
    fn seeded_store() -> Arc<ShardedPulseCache> {
        Arc::new(ShardedPulseCache::new(CacheConfig {
            seeds: true,
            ..CacheConfig::default()
        }))
    }

    #[test]
    fn gate_based_report_matches_critical_path() {
        let compiler = compiler();
        let circuit = example_circuit();
        let report = compiler
            .compile(&circuit, &[0.3, 0.9], Strategy::GateBased)
            .unwrap();
        assert_eq!(report.pulse_duration_ns, report.gate_based_duration_ns);
        assert!((report.pulse_speedup() - 1.0).abs() < 1e-12);
        assert_eq!(report.runtime.grape_iterations, 0);
        assert_eq!(report.precompute.grape_iterations, 0);
    }

    #[test]
    fn missing_parameters_are_rejected() {
        let compiler = compiler();
        let circuit = example_circuit();
        assert!(matches!(
            compiler.compile(&circuit, &[0.3], Strategy::GateBased),
            Err(CompileError::MissingParameters {
                supplied: 1,
                required: 2
            })
        ));
    }

    #[test]
    fn strict_partial_is_never_slower_than_gate_based() {
        let compiler = compiler();
        let circuit = example_circuit();
        let params = [0.4, 1.2];
        let gate = compiler
            .compile(&circuit, &params, Strategy::GateBased)
            .unwrap();
        let strict = compiler
            .compile(&circuit, &params, Strategy::StrictPartial)
            .unwrap();
        assert!(strict.pulse_duration_ns <= gate.pulse_duration_ns + 1e-9);
        // Strict pays no runtime GRAPE latency.
        assert_eq!(strict.runtime.grape_iterations, 0);
        assert!(strict.precompute.grape_iterations > 0);
        assert!(strict.num_blocks > 0);
    }

    #[test]
    fn full_grape_is_at_least_as_fast_as_strict_and_pays_runtime_latency() {
        let compiler = compiler();
        let circuit = example_circuit();
        let params = [0.4, 1.2];
        let strict = compiler
            .compile(&circuit, &params, Strategy::StrictPartial)
            .unwrap();
        let full = compiler
            .compile(&circuit, &params, Strategy::FullGrape)
            .unwrap();
        assert!(full.pulse_duration_ns <= strict.pulse_duration_ns + 1e-9);
        assert!(full.runtime.grape_iterations > 0);
        assert_eq!(full.precompute.grape_iterations, 0);
        assert!(full.pulse_speedup() >= 1.0 - 1e-9);
    }

    #[test]
    fn flexible_matches_grape_durations_with_lower_runtime_latency() {
        let compiler = compiler();
        let circuit = example_circuit();
        let params = [0.4, 1.2];
        let full = compiler
            .compile(&circuit, &params, Strategy::FullGrape)
            .unwrap();
        let strict = compiler
            .compile(&circuit, &params, Strategy::StrictPartial)
            .unwrap();
        let flexible = compiler
            .compile(&circuit, &params, Strategy::FlexiblePartial)
            .unwrap();
        // Flexible sits between strict partial compilation and full GRAPE in pulse
        // duration (it only ties GRAPE exactly when every GRAPE block depends on at
        // most one parameter, which this deliberately-small example violates).
        assert!(flexible.pulse_duration_ns <= strict.pulse_duration_ns + 1e-9);
        assert!(flexible.pulse_duration_ns + 1e-9 >= full.pulse_duration_ns);
        assert!(flexible.pulse_duration_ns <= flexible.gate_based_duration_ns + 1e-9);
        // ...while its runtime latency is below full GRAPE's (no binary search, tuned
        // hyperparameters).
        assert!(
            flexible.runtime.grape_iterations < full.runtime.grape_iterations,
            "flexible {} vs full {}",
            flexible.runtime.grape_iterations,
            full.runtime.grape_iterations
        );
        assert!(flexible.precompute.grape_iterations > 0);
    }

    #[test]
    fn second_compile_hits_the_cache() {
        let compiler = compiler();
        let circuit = example_circuit();
        let params = [0.4, 1.2];
        let first = compiler
            .compile(&circuit, &params, Strategy::StrictPartial)
            .unwrap();
        let second = compiler
            .compile(&circuit, &params, Strategy::StrictPartial)
            .unwrap();
        assert_eq!(first.pulse_duration_ns, second.pulse_duration_ns);
        // Real work reports the wall time it cost; a hit reports none.
        assert!(first
            .blocks
            .iter()
            .filter(|b| b.used_grape)
            .all(|b| !b.cached && b.measured_seconds > 0.0));
        assert!(second
            .blocks
            .iter()
            .filter(|b| b.used_grape)
            .all(|b| b.cached && b.measured_seconds == 0.0));
        assert!(compiler.library().num_blocks() > 0);
    }

    #[test]
    fn flexible_runtime_latency_is_stable_across_parameter_changes() {
        // After pre-compute at one θ, compiling at a different θ must not pay the
        // tuning cost again (that is the whole point of flexible partial compilation).
        let compiler = compiler();
        let circuit = example_circuit();
        let first = compiler
            .compile(&circuit, &[0.4, 1.2], Strategy::FlexiblePartial)
            .unwrap();
        let second = compiler
            .compile(&circuit, &[2.0, -0.7], Strategy::FlexiblePartial)
            .unwrap();
        assert!(first.precompute.grape_iterations > 0);
        assert_eq!(second.precompute.grape_iterations, 0);
        assert!(second.runtime.grape_iterations > 0);
    }

    #[test]
    fn accumulation() {
        let mut a = PhaseLatency {
            grape_iterations: 1000,
            measured_seconds: 1.0,
        };
        a.accumulate(&PhaseLatency {
            grape_iterations: 500,
            measured_seconds: 0.5,
        });
        assert_eq!(a.grape_iterations, 1500);
        assert!((a.measured_seconds - 1.5).abs() < 1e-12);
    }

    #[test]
    fn block_cost_estimates_order_blocks_by_expense() {
        let compiler = compiler();
        let params = [0.4, 1.2];

        // Gate-based plans cost nothing at the block level.
        let circuit = example_circuit();
        let gate_plan = compiler
            .plan(&circuit, &params, Strategy::GateBased)
            .unwrap();
        assert!(gate_plan.blocks.is_empty());

        let strict = compiler
            .plan(&circuit, &params, Strategy::StrictPartial)
            .unwrap();
        let costs: Vec<f64> = strict.blocks.iter().map(|b| strict.block_cost(b)).collect();
        // Single-gate lookup blocks are free; multi-gate GRAPE blocks are not.
        for (block, cost) in strict.blocks.iter().zip(&costs) {
            if block.len() <= 1 {
                assert_eq!(*cost, 0.0);
            } else {
                assert!(*cost > 0.0, "GRAPE block must have positive cost");
            }
        }

        // A wider and deeper block dominates a narrow shallow one.
        let mut wide = Circuit::new(4);
        for q in 0..4 {
            wide.h(q);
        }
        for q in 0..3 {
            wide.cx(q, q + 1);
            wide.rx(q, 0.3 + q as f64);
            wide.cx(q, q + 1);
        }
        let wide_plan = compiler.plan(&wide, &[], Strategy::FullGrape).unwrap();
        let wide_cost: f64 = wide_plan
            .blocks
            .iter()
            .map(|b| wide_plan.block_cost(b))
            .fold(0.0, f64::max);
        let narrow_cost = costs.iter().copied().fold(0.0, f64::max);
        assert!(
            wide_cost > narrow_cost,
            "4-qubit block ({wide_cost} units) must out-cost 2-qubit block ({narrow_cost} units)"
        );
    }

    #[test]
    fn repeat_structure_compiles_are_seeded_and_never_slower_than_gate_based() {
        // The same subcircuit at a fresh θ misses the bound-key cache but finds
        // a seed under the structural key: the second compile's duration search
        // opens at the first one's converged window and spends no more GRAPE
        // iterations than the cold search did. Seeds are armed explicitly so the
        // test is independent of `VQC_TT`.
        let compiler = PartialCompiler::with_cache(CompilerOptions::fast(), seeded_store());
        let mut circuit = Circuit::new(1);
        circuit.h(0);
        circuit.rz_expr(0, ParamExpr::theta(0));
        circuit.h(0);

        // Small rotations of the same structure share a converged window, so the
        // second compile's opening probe (the neighbor's window) converges
        // rather than going stale.
        let cold = compiler
            .compile(&circuit, &[0.4], Strategy::FullGrape)
            .unwrap();
        let cold_iterations: usize = cold.blocks.iter().map(|b| b.grape_iterations).sum();
        assert!(cold_iterations > 0);
        assert!(
            cold.blocks.iter().any(|b| b.used_grape && b.converged),
            "the 1-qubit block must converge so its window can seed"
        );
        assert_eq!(compiler.library().warm_start_stats().table_hits, 0);

        let seeded = compiler
            .compile(&circuit, &[0.7], Strategy::FullGrape)
            .unwrap();
        let seeded_iterations: usize = seeded.blocks.iter().map(|b| b.grape_iterations).sum();
        let stats = compiler.library().warm_start_stats();
        assert!(
            stats.table_hits >= 1,
            "fresh θ must hit the structural seed"
        );
        assert!(stats.seeded_iterations > 0);
        assert!(
            seeded_iterations <= cold_iterations,
            "seeded {seeded_iterations} vs cold {cold_iterations}"
        );
        // Correctness is unchanged: the seeded result still meets the paper's
        // never-slower-than-gate-based guarantee.
        assert!(seeded.pulse_duration_ns <= seeded.gate_based_duration_ns + 1e-9);
        for block in seeded.blocks.iter().filter(|b| b.used_grape) {
            assert!(block.duration_ns <= block.gate_based_ns + 1e-9);
        }
    }

    #[test]
    fn tuned_seed_skips_the_hyperparameter_grid_for_flexible_blocks() {
        // Two compilers sharing one cache: after the first tunes a flexible
        // block, wiping the tuning cache (but not the seeds) makes the second
        // re-tune — which the tuned seed answers without re-running the grid,
        // so its pre-compute latency collapses to the seeded duration search.
        let shared = seeded_store();
        let first = PartialCompiler::with_cache(CompilerOptions::fast(), shared.clone());
        let circuit = example_circuit();
        let report = first
            .compile(&circuit, &[0.4, 1.2], Strategy::FlexiblePartial)
            .unwrap();
        assert!(report.precompute.grape_iterations > 0);

        shared.clear(); // drops blocks and tunings; seeds survive
        let again = first
            .compile(&circuit, &[0.7, -0.2], Strategy::FlexiblePartial)
            .unwrap();
        assert!(
            again.precompute.grape_iterations < report.precompute.grape_iterations,
            "seeded re-tune {} must undercut the cold grid {}",
            again.precompute.grape_iterations,
            report.precompute.grape_iterations
        );
        assert!(again.pulse_duration_ns <= again.gate_based_duration_ns + 1e-9);
    }

    #[test]
    fn flexible_tuning_reuses_the_grid_winner_as_the_opening_probe() {
        // The tuned search's cold opening probe repeats the winning grid
        // candidate bit for bit, so the compiler hands that run in. What it
        // caches must equal what the two public steps produce run back to back,
        // with the winner's iterations counted once.
        let compiler = compiler();
        let circuit = example_circuit();
        let params = [0.4, 1.2];
        let plan = compiler
            .plan(&circuit, &params, Strategy::FlexiblePartial)
            .unwrap();
        let mut checked = 0;
        for block in plan.blocks.iter().filter(|b| !b.is_fixed() && b.len() > 1) {
            let key = plan.dedup_key(block, &params).unwrap();
            compiler
                .compile_block_outcome(&plan, block, &params)
                .unwrap();
            let cached = compiler.library().tuning(&key).expect("tuning is cached");

            let bound = block.to_circuit(&plan.prepared).bind(&params);
            let device = DeviceModel::qubits_line(block.qubits.len());
            let upper = critical_path_ns(&bound, &compiler.options().gate_times);
            let grid = crate::hyperparam::tune_hyperparameters(
                &bound,
                &device,
                upper,
                &compiler.options().grape,
                &compiler.options().hyperparameter_grid,
            )
            .unwrap();
            let tuned = compiler
                .options()
                .grape
                .with_hyperparameters(grid.learning_rate, grid.decay_rate);
            let search = MinimumTimeOptions::new(0.0, upper)
                .with_precision(compiler.options().search_precision_ns);
            let repeated = minimum_pulse_time_seeded(
                &circuit_unitary(&bound),
                &device,
                &search,
                &tuned,
                &mut EigenMemo::new(),
                None,
            )
            .unwrap();
            assert_eq!(
                repeated.probes[0].iterations, grid.runtime_iterations,
                "the opening probe repeats the winning candidate"
            );
            assert_eq!(cached.learning_rate, grid.learning_rate);
            assert_eq!(cached.decay_rate, grid.decay_rate);
            assert_eq!(cached.converged, repeated.converged);
            if repeated.converged {
                assert_eq!(cached.duration_ns, repeated.duration_ns);
                let best = repeated.best.as_ref().unwrap();
                assert_eq!(cached.runtime_iterations, best.iterations);
            }
            assert_eq!(
                cached.precompute_iterations,
                grid.total_probe_iterations() + repeated.total_iterations()
                    - grid.runtime_iterations
            );
            checked += 1;
        }
        assert!(checked > 0, "the example has flexible single-θ blocks");
    }

    #[test]
    fn strategy_names_cover_all_variants() {
        let names: Vec<&str> = Strategy::all().iter().map(Strategy::name).collect();
        assert_eq!(
            names,
            vec![
                "Gate-based",
                "Strict Partial",
                "Flexible Partial",
                "Full GRAPE"
            ]
        );
        assert_eq!(Strategy::FullGrape.to_string(), "Full GRAPE");
    }
}
