//! Table 5: GRAPE speedups under standard vs "more realistic" settings (Section 8.3):
//! 1 GSa/s sampling, qutrit leakage, and aggressive pulse regularization.

use vqc_bench::{print_header, table5_circuits, table5_rows, Effort};

fn main() {
    let effort = Effort::from_env();
    print_header("Table 5: standard vs realistic GRAPE settings", effort);

    for (name, circuit) in table5_circuits() {
        let rows = table5_rows(&circuit, effort);
        for (label, row) in ["standard", "realistic"].into_iter().zip(rows) {
            println!(
                "  {:<22} {:<10} gate {:>8.1} ns -> GRAPE {:>8.1} ns  ({:.1}x){}",
                name,
                label,
                row.gate_ns,
                row.grape_ns,
                row.speedup(),
                if row.converged { "" } else { "  [fallback]" }
            );
        }
    }

    println!(
        "\nPaper reference (Table 5): H2 11.4x standard vs 8.8x realistic; QAOA 4.5x vs 3.0x."
    );
    println!("The property to compare: realistic settings reduce but do not eliminate the GRAPE speedup.");
}
