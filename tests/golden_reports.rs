//! The golden-report contract: what the sequential compiler produces along a
//! fixed θ walk, committed in `tests/golden/reports.txt`.
//!
//! Each case is one circuit under one strategy, compiled by a fresh sequential
//! [`PartialCompiler`] at [`CompilerOptions::fast`] at four successive
//! parameter bindings, so the first step pays the pre-compute and the later
//! ones show what the cache serves. A change to the compiler passes when every
//! report has the golden block count and every block the golden `used_grape`,
//! `cached` and `converged` flags, with its duration within one
//! `search_precision_ns` step of the golden one. A change that moves a
//! duration further, or flips a flag, on purpose regenerates the file:
//!
//! ```text
//! cargo test --release --test golden_reports -- --ignored regenerate
//! ```
//!
//! The checks compare against the file as it was when the test was compiled,
//! so a regeneration running beside them cannot pass them vacuously.

use vqc::apps::graphs::Graph;
use vqc::apps::molecules::Molecule;
use vqc::apps::qaoa::qaoa_circuit;
use vqc::apps::uccsd::uccsd_circuit;
use vqc::circuit::Circuit;
use vqc::core::{CompilerOptions, PartialCompiler, Strategy};

const GOLDEN: &str = include_str!("golden/reports.txt");

/// Parameter bindings per case.
const STEPS: usize = 4;

/// The strategies every molecule case runs under, with their short names.
const STRATEGIES: [(&str, Strategy); 3] = [
    ("strict", Strategy::StrictPartial),
    ("flexible", Strategy::FlexiblePartial),
    ("full", Strategy::FullGrape),
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
        .map(|&(short, strategy)| Case {
            name: format!("{label} {short}"),
            circuit: uccsd_circuit(molecule),
            strategy,
        })
        .collect()
}

/// The cases a debug build affords: H2 under all three strategies and QAOA
/// MAXCUT on a 3-regular graph of six nodes at one round, strict.
fn fast_cases() -> Vec<Case> {
    let mut cases = molecule_cases("h2", Molecule::H2);
    let graph = Graph::three_regular(6, 7).expect("a 3-regular graph on 6 nodes exists");
    cases.push(Case {
        name: "qaoa6 strict".to_string(),
        circuit: qaoa_circuit(&graph, 1),
        strategy: Strategy::StrictPartial,
    });
    cases
}

/// LiH under all three strategies: under a second in a release build, about a
/// hundred times that in a debug one.
fn release_cases() -> Vec<Case> {
    molecule_cases("lih", Molecule::LiH)
}

/// Binding `step` of the walk: every parameter moves by its own stride.
fn theta(parameters: usize, step: usize) -> Vec<f64> {
    (0..parameters)
        .map(|i| 0.3 + 0.45 * step as f64 - 0.17 * i as f64)
        .collect()
}

/// Compiles one case along the walk and renders it: per step one `report`
/// line, then one `block` line per block.
fn render(case: &Case) -> Vec<String> {
    let compiler = PartialCompiler::new(CompilerOptions::fast());
    let mut lines = Vec::new();
    for step in 0..STEPS {
        let params = theta(case.circuit.num_parameters(), step);
        let report = compiler
            .compile(&case.circuit, &params, case.strategy)
            .unwrap_or_else(|e| panic!("{} compiles at step {step}: {e}", case.name));
        lines.push(format!(
            "report {} {step} num_blocks={}",
            case.name, report.num_blocks
        ));
        for (index, block) in report.blocks.iter().enumerate() {
            lines.push(format!(
                "block {} {step} {index} used_grape={} cached={} converged={} duration_ns={}",
                case.name, block.used_grape, block.cached, block.converged, block.duration_ns
            ));
        }
    }
    lines
}

/// The golden lines of `case`, in file order.
fn golden(case: &Case) -> Vec<&'static str> {
    let prefixes = [
        format!("report {} ", case.name),
        format!("block {} ", case.name),
    ];
    GOLDEN
        .lines()
        .filter(|line| prefixes.iter().any(|prefix| line.starts_with(prefix)))
        .collect()
}

/// A line split into what must match exactly and, for a `block` line, the
/// duration it ends with.
fn split(line: &str) -> (&str, Option<f64>) {
    match line.rsplit_once(" duration_ns=") {
        Some((head, value)) => {
            let duration = value
                .parse()
                .unwrap_or_else(|_| panic!("bad duration in `{line}`"));
            (head, Some(duration))
        }
        None => (line, None),
    }
}

/// Checks every case against the golden file: the same lines, except that a
/// block's duration may move by up to one `search_precision_ns` step.
fn check(cases: &[Case]) {
    let step_ns = CompilerOptions::fast().search_precision_ns;
    for case in cases {
        let expected = golden(case);
        assert!(!expected.is_empty(), "no golden lines for `{}`", case.name);
        let actual = render(case);
        assert_eq!(
            actual.len(),
            expected.len(),
            "`{}` renders {} lines, the golden file has {}",
            case.name,
            actual.len(),
            expected.len()
        );
        for (actual, expected) in actual.iter().zip(&expected) {
            let ((head, now), (golden_head, then)) = (split(actual), split(expected));
            assert_eq!(head, golden_head);
            if let (Some(now), Some(then)) = (now, then) {
                assert!(
                    (now - then).abs() <= step_ns + 1e-9,
                    "`{actual}` moved more than {step_ns} ns from `{expected}`"
                );
            }
        }
    }
}

#[test]
fn h2_and_qaoa_match_the_golden_reports() {
    check(&fast_cases());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn lih_matches_the_golden_reports() {
    check(&release_cases());
}

#[test]
#[ignore = "rewrites tests/golden/reports.txt"]
fn regenerate() {
    let mut text = String::from(
        "# Golden compilation reports: a sequential PartialCompiler at\n\
         # CompilerOptions::fast(), a 4-step theta walk per case.\n\
         # Written by: cargo test --release --test golden_reports -- --ignored regenerate\n",
    );
    for case in fast_cases().iter().chain(&release_cases()) {
        for line in render(case) {
            text.push_str(&line);
            text.push('\n');
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/reports.txt");
    std::fs::write(path, text).expect("the golden file is writable");
}
