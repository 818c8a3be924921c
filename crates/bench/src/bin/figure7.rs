//! Figure 7: compilation latency of flexible partial compilation against full GRAPE,
//! per benchmark, in measured seconds and counted GRAPE iterations.

use vqc_apps::uccsd::uccsd_circuit;
use vqc_bench::{
    effort_runtime, persist_if_requested, print_header, qaoa_instance, reference_parameters, Effort,
};
use vqc_core::Strategy;

fn main() {
    let effort = Effort::from_env();
    print_header(
        "Figure 7: compilation latency, full GRAPE against flexible",
        effort,
    );
    let compiler = effort_runtime(effort);

    let mut rows: Vec<(String, vqc_circuit::Circuit, Vec<f64>)> = Vec::new();
    for molecule in effort.vqe_molecules() {
        rows.push((
            molecule.to_string(),
            uccsd_circuit(molecule),
            reference_parameters(molecule.num_parameters()),
        ));
    }
    let qaoa_p = *effort.qaoa_rounds().last().unwrap_or(&1);
    for &(n, regular, label) in &[(6usize, true, "3Reg N=6"), (6, false, "Erdos N=6")] {
        let instance = qaoa_instance(n, regular, qaoa_p);
        rows.push((
            label.to_string(),
            instance.circuit(),
            reference_parameters(2 * qaoa_p),
        ));
    }

    println!("Measured seconds are the sum of per-block GRAPE wall seconds on this host.");
    println!(
        "{:<12} {:^25} | {:^25} | {:^16} | {:^13}",
        "", "Full GRAPE runtime", "Flexible pre-compute", "Flexible runtime", "Full/flexible"
    );
    println!(
        "{:<12} {:>13} {:>11} | {:>13} {:>11} | {:>16} | {:>13}",
        "Benchmark",
        "measured (s)",
        "iterations",
        "measured (s)",
        "iterations",
        "iterations",
        "iterations"
    );
    for (name, circuit, params) in rows {
        let full = compiler
            .compile(&circuit, &params, Strategy::FullGrape)
            .unwrap();
        let flexible = compiler
            .compile(&circuit, &params, Strategy::FlexiblePartial)
            .unwrap();
        let ratio = full.runtime.grape_iterations as f64 / flexible.runtime.grape_iterations as f64;
        println!(
            "{:<12} {:>13.3} {:>11} | {:>13.3} {:>11} | {:>16} | {:>12.1}x",
            name,
            full.runtime.measured_seconds,
            full.runtime.grape_iterations,
            flexible.precompute.measured_seconds,
            flexible.precompute.grape_iterations,
            flexible.runtime.grape_iterations,
            ratio
        );
    }
    println!(
        "\nFlexible runtime seconds are 0: its runtime GRAPE is not run. A flexible block at a\n\
         new theta reads the iterations its tuned run took during pre-compute, so Figure 7 in\n\
         seconds is not measured yet; the last column is a ratio of GRAPE iterations. The\n\
         paper reports reductions of 10-100x (e.g. 3-regular graphs ~80x), with about an\n\
         hour of pre-compute for flexible tuning."
    );
    persist_if_requested(&compiler);
}
