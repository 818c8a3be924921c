//! A full-GRAPE compile reports the same pulse whether its wide blocks ran as
//! one lane or two: the helper thread is an accelerator, never an input.

use vqc::apps::molecules::Molecule;
use vqc::apps::uccsd::uccsd_circuit;
use vqc::core::{CompilationReport, CompilerOptions, PartialCompiler, Strategy};
use vqc::pulse::lanes;

/// Durations, flags and iteration counts of every block, to the bit.
fn outcome(report: &CompilationReport) -> Vec<(u64, bool, bool, usize)> {
    let blocks = report.blocks.iter();
    blocks
        .map(|b| {
            (
                b.duration_ns.to_bits(),
                b.used_grape,
                b.converged,
                b.grape_iterations,
            )
        })
        .collect()
}

#[test]
fn lih_full_grape_is_identical_with_the_helper_free_and_with_it_held() {
    // LiH has the 4-qubit, 40-slice block the lanes exist for. Effort is cut
    // until a debug build compiles it in seconds; plumbing is under test.
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 12;
    options.grape.target_infidelity = 2e-1;
    options.search_precision_ns = 16.0;
    let circuit = uccsd_circuit(Molecule::LiH);
    let theta = vec![0.4; Molecule::LiH.num_parameters()];
    // The public block-order loop runs one GRAPE search at a time, so no other
    // block's run holds a CPU when a wide block asks for the helper.
    let compile = || {
        let compiler = PartialCompiler::new(options.clone());
        let plan = compiler
            .plan(&circuit, &theta, Strategy::FullGrape)
            .expect("LiH plans under full GRAPE");
        let outcomes = plan
            .blocks
            .iter()
            .map(|block| {
                compiler
                    .compile_block_outcome(&plan, block, &theta)
                    .expect("LiH compiles under full GRAPE")
            })
            .collect();
        compiler.assemble(&plan, outcomes)
    };

    let before = lanes::stats();
    let free = compile();
    let between = lanes::stats();
    // While this test holds the helper every claim is refused. (On a
    // single-CPU host there is none to hold and both compiles are one-lane.)
    let held_claim = lanes::claim(16, 40);
    assert_eq!(held_claim.is_some(), lanes::available());
    let held = compile();
    let after = lanes::stats();
    drop(held_claim);

    assert!(free
        .blocks
        .iter()
        .any(|b| b.qubits.len() == 4 && b.used_grape));
    assert_eq!(outcome(&free), outcome(&held));
    assert_eq!(
        free.pulse_duration_ns.to_bits(),
        held.pulse_duration_ns.to_bits()
    );
    assert_eq!(free.runtime.grape_iterations, held.runtime.grape_iterations);
    if lanes::available() {
        assert!(
            between.claimed > before.claimed,
            "the free compile must have used two lanes"
        );
        // The one claim in the second window is the test's own.
        assert_eq!(
            after.claimed - between.claimed,
            1,
            "a held helper was claimed again"
        );
        assert!(after.refused > between.refused);
    }
}
