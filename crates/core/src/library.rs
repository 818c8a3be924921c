//! What the pulse library stores: block keys, the entries filed under them, and
//! the [`PulseCache`] interface to the store.
//!
//! Strict partial compilation's whole point is that Fixed blocks can be compiled once
//! and looked up forever after; and even for full GRAPE, identical blocks recur both
//! within a circuit (repeated QAOA rounds) and across variational iterations. The
//! store itself — one sharded, cost-ranked, optionally bounded map for blocks,
//! tunings and warm-start seeds alike — is [`crate::ShardedPulseCache`].

use serde::{Deserialize, Serialize};
use vqc_circuit::Circuit;
use vqc_pulse::{SeedEntry, WarmStartStats};

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
        Self::build(circuit, false)
    }

    /// Builds a *structural* key that ignores the numeric values of parameterized
    /// angles (but keeps constant angles). Used to cache per-subcircuit hyperparameters
    /// and minimum durations, which the paper observes are robust to the θ argument.
    pub fn structural(circuit: &Circuit) -> Self {
        Self::build(circuit, true)
    }

    /// The one key body: gate names, local qubits and angles in circuit order. A
    /// structural key carries an `s|` prefix and prints a parameterized angle
    /// without its index.
    fn build(circuit: &Circuit, structural: bool) -> Self {
        let prefix = if structural { "s|" } else { "" };
        let mut key = format!("{prefix}q{}|", circuit.num_qubits());
        for op in circuit.iter() {
            key.push_str(op.gate.name());
            for q in &op.qubits {
                key.push_str(&format!(",{q}"));
            }
            if let Some(angle) = op.gate.angle() {
                match angle.parameter() {
                    Some(_) if structural => key.push_str("[θ]"),
                    Some(index) => key.push_str(&format!("[θ{index}]")),
                    None => key.push_str(&format!("[{}]", rounded(angle.evaluate(&[])))),
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
}

/// A constant angle as keys print it: rounded to 10⁻⁹, and a rounded zero without
/// its sign — `{:.9}` alone renders every value in (-5e-10, 0], the `-0.0` that
/// `(-½)·θ` evaluates to at θ = 0 included, as `-0.000000000`, a second key for the
/// same rounded angle.
fn rounded(angle: f64) -> String {
    let printed = format!("{angle:.9}");
    if printed == "-0.000000000" {
        printed[1..].to_string()
    } else {
        printed
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

/// The storage interface of the pulse store.
///
/// [`crate::ShardedPulseCache`] is its one implementation and
/// [`crate::PartialCompiler`] holds that type directly. The trait, its 11
/// signatures and [`crate::PartialCompiler::library`] remain because the driver
/// benchmark (`benchmark/`, not this repository's to edit outside a `[benchmark]`
/// change) imports the trait and calls through both; they go when it stops
/// (ROADMAP items 1(a)(ii) and 9).
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

    /// Clears the block and tuning entries (the warm-start seeds are kept).
    fn clear(&self);

    /// Looks up what past compilations of this *structure* (a
    /// [`BlockKey::structural`] key) learned: tuned hyperparameters, a converged
    /// duration window, and best-so-far amplitudes.
    fn seed(&self, key: &BlockKey) -> Option<SeedEntry>;

    /// Records what one compilation learned about a structural key (same-key
    /// records merge; the window only tightens).
    fn record_seed(&self, key: &BlockKey, entry: SeedEntry);

    /// Adds one finished duration search's GRAPE iteration total to the
    /// seeded-vs-cold warm-start accounting.
    fn record_search_outcome(&self, seeded: bool, grape_iterations: u64);

    /// Current warm-start counters (seed traffic, seeded-vs-cold iteration
    /// totals).
    fn warm_start_stats(&self) -> WarmStartStats;
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

        // One rounded angle, one key: a zero keeps no sign, whichever side of
        // zero it was rounded from — in bound and structural keys alike.
        let rz = |angle: f64| {
            let mut circuit = Circuit::new(1);
            circuit.rz(0, angle);
            circuit
        };
        for key in [BlockKey::from_bound_circuit, BlockKey::structural] {
            assert_eq!(key(&rz(-0.0)), key(&rz(0.0)));
            assert_eq!(key(&rz(-1e-12)), key(&rz(0.0)));
            assert_ne!(key(&rz(-1e-8)), key(&rz(0.0)));
            assert_ne!(key(&rz(-1e-8)), key(&rz(1e-8)));
        }
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
}
