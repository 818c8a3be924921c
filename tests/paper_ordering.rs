//! The paper's ordering of the strategies, checked: strict ≤ flexible ≤ full
//! GRAPE in pulse speedup, each at least the gate-based baseline's 1x, and
//! flexible paying fewer runtime GRAPE iterations than full GRAPE (Figure 7's
//! direction).
//!
//! Each case is one circuit at one parameter binding, compiled under every
//! strategy by a fresh sequential [`PartialCompiler`] at
//! [`CompilerOptions::fast`]. Speedups share the case's gate-based duration, so
//! they are compared as pulse durations, within one `search_precision_ns` step:
//! the golden-report contract's tolerance. The orderings that do not hold today
//! are listed in [`KNOWN_FAILURES`]. A listed one must still fail, so the list
//! cannot hide a fix; the fix takes it off the list.

use vqc::apps::graphs::Graph;
use vqc::apps::molecules::Molecule;
use vqc::apps::qaoa::{qaoa_circuit, table3_benchmarks};
use vqc::apps::uccsd::uccsd_circuit;
use vqc::circuit::Circuit;
use vqc::core::{CompilationReport, CompilerOptions, PartialCompiler, Strategy};

/// Every ordering that fails today, as [`violations`] names it: full GRAPE's
/// 40.39 ns against flexible's 39.05 ns. Full GRAPE's greedy aggregation picks
/// a worse partition than flexible's here, though a flexible partition meets
/// every constraint full GRAPE's does. The Table-3 graph at the same binding
/// loses too, at p = 1 (40.89 against 40.05 ns) and p = 2 (79.40 against
/// 78.59 ns), but by less than one step, so those cases pass.
const KNOWN_FAILURES: &[&str] = &["qaoa6 golden graph p=1 linear theta: flexible <= full"];

/// One circuit at one binding.
struct Case {
    name: String,
    circuit: Circuit,
    params: Vec<f64>,
}

/// The circuit at the golden walk's first binding and at θᵢ = 0.1 + 0.07·i.
fn at_both_bindings(label: &str, circuit: Circuit) -> Vec<Case> {
    let count = circuit.num_parameters();
    let golden = (0..count).map(|i| 0.3 - 0.17 * i as f64).collect();
    let linear = (0..count).map(|i| 0.1 + 0.07 * i as f64).collect();
    [("golden theta", golden), ("linear theta", linear)]
        .into_iter()
        .map(|(binding, params)| Case {
            name: format!("{label} {binding}"),
            circuit: circuit.clone(),
            params,
        })
        .collect()
}

/// The cases a debug build affords: H2.
fn fast_cases() -> Vec<Case> {
    at_both_bindings("h2", uccsd_circuit(Molecule::H2))
}

/// LiH, and QAOA MAXCUT at p = 1 and 2 on two 3-regular graphs of six nodes:
/// the golden file's and Table 3's.
fn release_cases() -> Vec<Case> {
    let golden = Graph::three_regular(6, 7).expect("a 3-regular graph on 6 nodes exists");
    let table3 = table3_benchmarks()
        .into_iter()
        .find(|b| b.num_nodes == 6 && b.three_regular)
        .expect("Table 3 has a 3-regular N = 6 benchmark")
        .graph();
    let mut cases = at_both_bindings("lih", uccsd_circuit(Molecule::LiH));
    for (label, graph) in [("golden graph", &golden), ("table-3 graph", &table3)] {
        for p in 1..=2 {
            cases.extend(at_both_bindings(
                &format!("qaoa6 {label} p={p}"),
                qaoa_circuit(graph, p),
            ));
        }
    }
    cases
}

fn compile(case: &Case, strategy: Strategy) -> CompilationReport {
    PartialCompiler::new(CompilerOptions::fast())
        .compile(&case.circuit, &case.params, strategy)
        .unwrap_or_else(|e| panic!("{} compiles under {strategy}: {e}", case.name))
}

/// The orderings a case breaks, each named `"<case>: <ordering>"`.
fn violations(case: &Case) -> Vec<String> {
    let step_ns = CompilerOptions::fast().search_precision_ns + 1e-9;
    let [strict, flexible, full] = [
        Strategy::StrictPartial,
        Strategy::FlexiblePartial,
        Strategy::FullGrape,
    ]
    .map(|strategy| compile(case, strategy));
    let mut broken = Vec::new();
    for report in [&strict, &flexible, &full] {
        if report.pulse_duration_ns > report.gate_based_duration_ns + step_ns {
            broken.push(format!("{}: {} >= 1", case.name, report.strategy));
        }
    }
    if flexible.pulse_duration_ns > strict.pulse_duration_ns + step_ns {
        broken.push(format!("{}: strict <= flexible", case.name));
    }
    if full.pulse_duration_ns > flexible.pulse_duration_ns + step_ns {
        broken.push(format!("{}: flexible <= full", case.name));
    }
    if flexible.runtime.grape_iterations >= full.runtime.grape_iterations {
        broken.push(format!("{}: flexible runtime iterations < full", case.name));
    }
    println!(
        "{}: gate-based {} ns; strict {} flexible {} full {} ns; runtime iterations flexible {} full {}",
        case.name,
        strict.gate_based_duration_ns,
        strict.pulse_duration_ns,
        flexible.pulse_duration_ns,
        full.pulse_duration_ns,
        flexible.runtime.grape_iterations,
        full.runtime.grape_iterations
    );
    broken
}

/// Checks that the cases break exactly the listed orderings.
fn check(cases: &[Case]) {
    let mut broken: Vec<String> = cases.iter().flat_map(violations).collect();
    let mut listed: Vec<String> = KNOWN_FAILURES
        .iter()
        .filter(|entry| {
            cases
                .iter()
                .any(|case| entry.starts_with(&format!("{}: ", case.name)))
        })
        .map(|entry| entry.to_string())
        .collect();
    broken.sort();
    listed.sort();
    assert_eq!(
        broken, listed,
        "the orderings broken (left) must be the ones KNOWN_FAILURES lists (right)"
    );
}

#[test]
fn h2_keeps_the_paper_ordering() {
    check(&fast_cases());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn lih_and_qaoa_keep_the_paper_ordering_but_for_the_listed_cases() {
    check(&release_cases());
}
