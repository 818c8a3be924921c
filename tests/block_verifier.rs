//! Every searched block pulse, checked by the independent verifier.
//!
//! The golden contract (`golden_reports.rs`) pins the durations and flags the
//! compiler reports; this checks the pulses behind them. Each case is one
//! circuit under one strategy, planned by a sequential [`PartialCompiler`] at
//! [`CompilerOptions::fast`] at the golden walk's first binding. Every unique
//! GRAPE block (two or more operations, deduplicated by its bound key) gets a
//! cold minimum-time search over `[0, critical_path_ns]` on a qubit line of
//! its width — the store keeps durations, not waveforms, so the search is run
//! again here. Every pulse the search reports converged is propagated by
//! [`final_unitary`], which shares no code with the GRAPE engine, and must
//! reach the target fidelity against the simulated block and agree with the
//! infidelity GRAPE reported.

use std::collections::{BTreeMap, HashSet};
use vqc::apps::graphs::Graph;
use vqc::apps::molecules::Molecule;
use vqc::apps::qaoa::qaoa_circuit;
use vqc::apps::uccsd::uccsd_circuit;
use vqc::circuit::timing::critical_path_ns;
use vqc::circuit::Circuit;
use vqc::core::{BlockKey, CompilerOptions, PartialCompiler, Strategy};
use vqc::linalg::fidelity::trace_infidelity;
use vqc::pulse::minimum_time::{minimum_pulse_time, MinimumTimeOptions};
use vqc::pulse::propagate::final_unitary;
use vqc::pulse::DeviceModel;
use vqc::sim::circuit_unitary;

/// How far the verifier may read from GRAPE's own infidelity, and past the
/// target.
const TOLERANCE: f64 = 1e-9;

/// The strategies every molecule case runs under.
const STRATEGIES: [Strategy; 3] = [
    Strategy::StrictPartial,
    Strategy::FlexiblePartial,
    Strategy::FullGrape,
];

/// One circuit under one strategy.
struct Case {
    name: String,
    circuit: Circuit,
    strategy: Strategy,
}

fn molecule_cases(label: &str, molecule: Molecule) -> Vec<Case> {
    STRATEGIES
        .iter()
        .map(|&strategy| Case {
            name: format!("{label} {strategy}"),
            circuit: uccsd_circuit(molecule),
            strategy,
        })
        .collect()
}

/// QAOA MAXCUT on a 3-regular graph of six nodes at one round, strict.
fn qaoa_case() -> Case {
    let graph = Graph::three_regular(6, 7).expect("a 3-regular graph on 6 nodes exists");
    Case {
        name: "qaoa6 strict".to_string(),
        circuit: qaoa_circuit(&graph, 1),
        strategy: Strategy::StrictPartial,
    }
}

/// The golden walk's first binding: parameter `i` at `0.3 − 0.17·i`.
fn theta(parameters: usize) -> Vec<f64> {
    (0..parameters).map(|i| 0.3 - 0.17 * i as f64).collect()
}

/// What the verifier saw over a set of cases.
#[derive(Debug, Default)]
struct Tally {
    /// Per block width, how many searched pulses converged and passed.
    verified: BTreeMap<usize, usize>,
    /// Blocks whose search never converged: nothing to verify.
    unconverged: usize,
}

/// Searches every unique GRAPE block of `cases` cold and verifies each
/// converged pulse.
fn verify(cases: &[Case]) -> Tally {
    let options = CompilerOptions::fast();
    let compiler = PartialCompiler::new(options.clone());
    let target_infidelity = options.grape.target_infidelity;
    let mut seen = HashSet::new();
    let mut tally = Tally::default();
    for case in cases {
        let params = theta(case.circuit.num_parameters());
        let plan = compiler
            .plan(&case.circuit, &params, case.strategy)
            .unwrap_or_else(|e| panic!("{} plans: {e}", case.name));
        for block in plan.blocks.iter().filter(|block| block.len() >= 2) {
            let bound = block.to_circuit(&plan.prepared).bind(&params);
            let key = BlockKey::from_bound_circuit(&bound);
            if !seen.insert(key.clone()) {
                continue;
            }
            let width = block.qubits.len();
            let device = DeviceModel::qubits_line(width);
            let target = circuit_unitary(&bound);
            let upper = critical_path_ns(&bound, &options.gate_times);
            let search =
                MinimumTimeOptions::new(0.0, upper).with_precision(options.search_precision_ns);
            let result = minimum_pulse_time(&target, &device, &search, &options.grape)
                .unwrap_or_else(|e| panic!("{}: {key:?} searches: {e}", case.name));
            let best = match result.best {
                Some(best) if result.converged => best,
                _ => {
                    tally.unconverged += 1;
                    continue;
                }
            };
            let verified = trace_infidelity(&target, &final_unitary(&device, &best.pulse));
            assert!(
                verified <= target_infidelity + TOLERANCE,
                "{}: {key:?} at {} ns: verified infidelity {verified:e} misses the target \
                 {target_infidelity:e}",
                case.name,
                result.duration_ns
            );
            assert!(
                (verified - best.infidelity).abs() <= TOLERANCE,
                "{}: {key:?} at {} ns: verified infidelity {verified:e}, GRAPE reported {:e}",
                case.name,
                result.duration_ns,
                best.infidelity
            );
            *tally.verified.entry(width).or_default() += 1;
        }
    }
    println!("{tally:?}");
    tally
}

#[test]
fn every_h2_block_pulse_passes_the_verifier() {
    let tally = verify(&molecule_cases("h2", Molecule::H2));
    // Every GRAPE block H2's plans make is two qubits wide.
    assert!(tally.verified.contains_key(&2), "{tally:?}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn every_lih_and_qaoa_block_pulse_passes_the_verifier() {
    let mut cases = molecule_cases("lih", Molecule::LiH);
    cases.push(qaoa_case());
    let tally = verify(&cases);
    assert!(
        [1, 2, 3]
            .iter()
            .all(|width| tally.verified.contains_key(width)),
        "{tally:?}"
    );
}
