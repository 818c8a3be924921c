//! Table 5's claim, checked: "realistic settings reduce but do not eliminate
//! the speedup" (Section 8.3). At [`Effort::Fast`], each circuit's standard row
//! beats its gate-based baseline, and its realistic row (1 GSa/s sampling, a
//! leakage level per transmon, regularized envelopes) converges, beats its own
//! baseline, and is at most the standard row's speedup.
//!
//! The rows are the ones the `table5` binary prints ([`table5_rows`]). The
//! claims that do not hold today are listed in [`KNOWN_FAILURES`]. A listed one
//! must still fail, so the list cannot hide a fix; the fix takes it off the
//! list.

use vqc::circuit::Circuit;
use vqc_bench::{table5_circuits, table5_rows, Effort};

/// Every claim that fails today, as [`violations`] names it: both realistic
/// searches fall back to the gate-based pulse at `fast()`, so neither row
/// converges nor beats 1x. (At `standard()`, H2's realistic row reaches 7.5x
/// and QAOA's still falls back; the paper reports 8.8x and 3.0x.)
const KNOWN_FAILURES: &[&str] = &[
    "H2 VQE: realistic converges",
    "H2 VQE: realistic > 1x",
    "Erdos-Renyi N=3 QAOA: realistic converges",
    "Erdos-Renyi N=3 QAOA: realistic > 1x",
];

/// The claims a circuit's two rows break, each named `"<case>: <claim>"`.
fn violations(name: &str, circuit: &Circuit) -> Vec<String> {
    let [standard, realistic] = table5_rows(circuit, Effort::Fast);
    let mut broken = Vec::new();
    if standard.speedup() <= 1.0 {
        broken.push(format!("{name}: standard > 1x"));
    }
    if !realistic.converged {
        broken.push(format!("{name}: realistic converges"));
    }
    if realistic.speedup() <= 1.0 {
        broken.push(format!("{name}: realistic > 1x"));
    }
    if realistic.speedup() > standard.speedup() {
        broken.push(format!("{name}: realistic <= standard"));
    }
    println!(
        "{name}: standard {:.1}x ({} ns of {} ns), realistic {:.1}x ({} ns of {} ns, converged {})",
        standard.speedup(),
        standard.grape_ns,
        standard.gate_ns,
        realistic.speedup(),
        realistic.grape_ns,
        realistic.gate_ns,
        realistic.converged
    );
    broken
}

/// Checks that the named case breaks exactly the listed claims.
fn check(case: &str) {
    let circuits = table5_circuits();
    let (name, circuit) = circuits
        .iter()
        .find(|(name, _)| *name == case)
        .unwrap_or_else(|| panic!("Table 5 has a {case} row"));
    let broken = violations(name, circuit);
    let listed: Vec<String> = KNOWN_FAILURES
        .iter()
        .filter(|entry| entry.starts_with(&format!("{name}: ")))
        .map(|entry| entry.to_string())
        .collect();
    assert_eq!(
        broken, listed,
        "the claims broken (left) must be the ones KNOWN_FAILURES lists (right)"
    );
}

#[test]
fn h2_keeps_a_speedup_under_realistic_settings() {
    check("H2 VQE");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn qaoa_keeps_a_speedup_under_realistic_settings() {
    check("Erdos-Renyi N=3 QAOA");
}
