//! The one-pass transpiler against the fixed-point sweeps it replaced.
//!
//! `reference_optimize` is the earlier `passes::optimize`: merge adjacent same-axis
//! rotations, drop zero rotations, cancel adjacent self-inverse pairs, and repeat
//! until the length holds. On every circuit a workload, test or table binary
//! prepares, the one pass must give the same ops, qubits and angle bits, and its
//! output must be a fixed point of itself. On random circuits the two may differ in
//! the ways the `passes` module docs list, but the pass is never longer than the
//! sweeps' output and implements the same unitary.

use proptest::prelude::*;
use vqc::apps::graphs::Graph;
use vqc::apps::molecules::Molecule;
use vqc::apps::qaoa::{qaoa_circuit, table3_benchmarks};
use vqc::apps::uccsd::uccsd_circuit;
use vqc::circuit::passes::{decompose_to_basis, optimize};
use vqc::circuit::{Circuit, Gate, GateOp, ParamExpr};
use vqc::linalg::fidelity::trace_fidelity;
use vqc::sim::circuit_unitary;

const ZERO_TOL: f64 = 1e-12;

/// The fixed-point sweeps: merge → zero removal → cancellation, until the length
/// holds.
fn reference_optimize(circuit: &Circuit) -> Circuit {
    let mut current = decompose_to_basis(circuit);
    loop {
        let before = current.len();
        current = merge_rotations(&current);
        current = remove_zero_rotations(&current);
        current = cancel_adjacent_pairs(&current);
        if current.len() == before {
            return current;
        }
    }
}

/// The next live op after `i` that shares a qubit with it.
fn next_overlapping(ops: &[Option<GateOp>], i: usize, op: &GateOp) -> Option<usize> {
    (i + 1..ops.len()).find(|&j| ops[j].as_ref().is_some_and(|other| op.overlaps(other)))
}

fn with_angle(gate: Gate, angle: ParamExpr) -> Gate {
    match gate {
        Gate::Rz(_) => Gate::Rz(angle),
        Gate::Rx(_) => Gate::Rx(angle),
        Gate::Rzz(_) => Gate::Rzz(angle),
        other => other,
    }
}

/// Sweeps left to right until nothing merges: each rotation absorbs the next op on
/// its qubits when that op is the same axis on the same qubits and the angles add.
fn merge_rotations(circuit: &Circuit) -> Circuit {
    let mut ops: Vec<Option<GateOp>> = circuit.iter().cloned().map(Some).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..ops.len() {
            let Some(op) = ops[i].clone() else { continue };
            let Some(a) = op.gate.angle() else { continue };
            let Some(j) = next_overlapping(&ops, i, &op) else {
                continue;
            };
            let other = ops[j].clone().unwrap();
            let same_axis = matches!(
                (&op.gate, &other.gate),
                (Gate::Rz(_), Gate::Rz(_))
                    | (Gate::Rx(_), Gate::Rx(_))
                    | (Gate::Rzz(_), Gate::Rzz(_))
            );
            if other.qubits == op.qubits && same_axis {
                if let Some(sum) = a.try_add(other.gate.angle().unwrap()) {
                    ops[i] = Some(GateOp::new(with_angle(op.gate, sum), op.qubits.clone()));
                    ops[j] = None;
                    changed = true;
                }
            }
        }
    }
    rebuild(circuit.num_qubits(), ops)
}

/// Sweeps left to right until nothing cancels: a self-inverse gate and the next op
/// on its qubits cancel when that op is the same gate on the same operands.
fn cancel_adjacent_pairs(circuit: &Circuit) -> Circuit {
    let mut ops: Vec<Option<GateOp>> = circuit.iter().cloned().map(Some).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..ops.len() {
            let Some(op) = ops[i].clone() else { continue };
            let self_inverse = matches!(
                op.gate,
                Gate::Cx | Gate::H | Gate::Swap | Gate::Cz | Gate::X | Gate::Z
            );
            if !self_inverse {
                continue;
            }
            let Some(j) = next_overlapping(&ops, i, &op) else {
                continue;
            };
            let other = ops[j].as_ref().unwrap();
            let same_operands = other.qubits == op.qubits
                || (matches!(op.gate, Gate::Swap | Gate::Cz)
                    && other.qubits.len() == 2
                    && other.qubits[0] == op.qubits[1]
                    && other.qubits[1] == op.qubits[0]);
            if other.gate == op.gate && same_operands {
                ops[i] = None;
                ops[j] = None;
                changed = true;
            }
        }
    }
    rebuild(circuit.num_qubits(), ops)
}

fn remove_zero_rotations(circuit: &Circuit) -> Circuit {
    let kept = circuit
        .iter()
        .filter(|op| !op.gate.angle().is_some_and(|e| e.is_zero(ZERO_TOL)))
        .cloned()
        .map(Some)
        .collect();
    rebuild(circuit.num_qubits(), kept)
}

fn rebuild(num_qubits: usize, ops: Vec<Option<GateOp>>) -> Circuit {
    let mut out = Circuit::new(num_qubits);
    for op in ops.into_iter().flatten() {
        out.push(op);
    }
    out
}

/// Every angle field's bits, so `-0.0` against `0.0` or a last-bit difference counts.
fn angle_bits(angle: &ParamExpr) -> Vec<u64> {
    match *angle {
        ParamExpr::Constant(value) => vec![value.to_bits()],
        ParamExpr::Linear {
            index,
            scale,
            offset,
        } => vec![index as u64, scale.to_bits(), offset.to_bits()],
    }
}

/// One op as (gate name, qubits, angle bits).
type OpBits = (&'static str, Vec<usize>, Vec<u64>);

fn op_bits(circuit: &Circuit) -> Vec<OpBits> {
    circuit
        .iter()
        .map(|op| {
            let bits = op.gate.angle().map(angle_bits).unwrap_or_default();
            (op.gate.name(), op.qubits.clone(), bits)
        })
        .collect()
}

/// SplitMix64, for reproducible graph draws.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The 437 circuits the prepared-circuit identity covers: every molecule's UCCSD
/// ansatz, the 32 Table 3 QAOA benchmarks, and 200 draws each of the benchmark
/// workloads' random QAOA inputs (3-regular N = 6 at p = 1, G(6, 7) at p = 2).
fn benchmark_circuits() -> Vec<(String, Circuit)> {
    let mut circuits: Vec<(String, Circuit)> = Molecule::all()
        .into_iter()
        .map(|molecule| (molecule.to_string(), uccsd_circuit(molecule)))
        .collect();
    circuits.extend(table3_benchmarks().iter().map(|b| (b.name(), b.circuit())));
    let mut rng = SplitMix(7);
    for draw in 0..200 {
        let graph = Graph::three_regular(6, rng.next()).unwrap();
        circuits.push((format!("3-regular draw {draw}"), qaoa_circuit(&graph, 1)));
    }
    for draw in 0..200 {
        let mut candidates: Vec<(usize, usize)> = (0..6)
            .flat_map(|a| (a + 1..6).map(move |b| (a, b)))
            .collect();
        let edges: Vec<(usize, usize)> = (0..7)
            .map(|_| candidates.swap_remove((rng.next() % candidates.len() as u64) as usize))
            .collect();
        let graph = Graph::new(6, &edges);
        circuits.push((format!("G(6, 7) draw {draw}"), qaoa_circuit(&graph, 2)));
    }
    assert_eq!(circuits.len(), 437);
    circuits
}

#[test]
fn the_pass_reproduces_the_sweeps_bit_for_bit_on_every_benchmark_circuit() {
    for (name, circuit) in benchmark_circuits() {
        let pass = optimize(&circuit);
        let sweeps = reference_optimize(&circuit);
        assert_eq!(op_bits(&pass), op_bits(&sweeps), "{name}");
        assert_eq!(pass.num_qubits(), sweeps.num_qubits(), "{name}");
    }
}

#[test]
fn the_pass_output_is_a_fixed_point_on_every_benchmark_circuit() {
    for (name, circuit) in benchmark_circuits() {
        let once = optimize(&circuit);
        assert_eq!(op_bits(&optimize(&once)), op_bits(&once), "{name}");
    }
}

/// Random instructions that stress the two differences between the pass and the
/// sweeps: rotations by zero, and runs of same-axis rotations that mix two
/// parameters with constants.
#[derive(Debug, Clone)]
enum Instr {
    H(usize),
    Cx(usize, usize),
    Swap(usize, usize),
    Rz(usize, Angle),
    Rx(usize, Angle),
    /// Three to five `Rz` on one qubit, alternating between two angles.
    RzRun(usize, Angle, Angle, usize),
}

#[derive(Debug, Clone, Copy)]
enum Angle {
    Zero,
    Constant(f64),
    Theta(usize, f64, f64),
}

impl Angle {
    fn expr(self) -> ParamExpr {
        match self {
            Angle::Zero => ParamExpr::constant(0.0),
            Angle::Constant(value) => ParamExpr::constant(value),
            Angle::Theta(index, scale, offset) => ParamExpr::Linear {
                index,
                scale,
                offset,
            },
        }
    }
}

fn arb_angle() -> impl Strategy<Value = Angle> {
    prop_oneof![
        (0..1usize).prop_map(|_| Angle::Zero),
        (-3.0..3.0f64).prop_map(Angle::Constant),
        (0..2usize, -2.0..2.0f64, -1.0..1.0f64).prop_map(|(i, s, o)| Angle::Theta(i, s, o)),
        // ±θ with a small offset set, so θ terms cancel exactly, to zero or to a constant.
        (0..2usize, 0..2usize, 0..2usize).prop_map(|(i, sign, shift)| Angle::Theta(
            i,
            [1.0, -1.0][sign],
            [0.0, 0.3][shift]
        )),
    ]
}

fn arb_instr(n: usize) -> impl Strategy<Value = Instr> {
    let q = 0..n;
    let q2 = (0..n, 0..n).prop_filter("distinct", |(a, b)| a != b);
    prop_oneof![
        q.clone().prop_map(Instr::H),
        q2.clone().prop_map(|(a, b)| Instr::Cx(a, b)),
        q2.prop_map(|(a, b)| Instr::Swap(a, b)),
        (q.clone(), arb_angle()).prop_map(|(a, e)| Instr::Rz(a, e)),
        (q.clone(), arb_angle()).prop_map(|(a, e)| Instr::Rx(a, e)),
        (q, arb_angle(), arb_angle(), 3..6usize).prop_map(|(a, e, f, k)| Instr::RzRun(a, e, f, k)),
    ]
}

/// A circuit on one to three qubits; operands are drawn for three and folded onto
/// the width, and a two-qubit gate whose operands fold together is skipped.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (1..4usize, prop::collection::vec(arb_instr(3), 0..24)).prop_map(|(n, instrs)| {
        let mut c = Circuit::new(n);
        for instr in instrs {
            match instr {
                Instr::H(a) => c.h(a % n),
                Instr::Cx(a, b) | Instr::Swap(a, b) if a % n == b % n => {}
                Instr::Cx(a, b) => c.cx(a % n, b % n),
                Instr::Swap(a, b) => c.swap(a % n, b % n),
                Instr::Rz(a, e) => c.rz_expr(a % n, e.expr()),
                Instr::Rx(a, e) => c.rx_expr(a % n, e.expr()),
                Instr::RzRun(a, e, f, k) => {
                    for step in 0..k {
                        c.rz_expr(a % n, [e, f][step % 2].expr());
                    }
                }
            }
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn the_pass_is_never_longer_than_the_sweeps_and_implements_the_same_unitary(
        c in arb_circuit(),
        theta in prop::collection::vec(-3.0..3.0f64, 2),
    ) {
        let pass = optimize(&c);
        let sweeps = reference_optimize(&c);
        prop_assert!(pass.len() <= sweeps.len(), "{} > {}", pass.len(), sweeps.len());
        prop_assert_eq!(op_bits(&optimize(&pass)), op_bits(&pass));
        let fidelity = trace_fidelity(
            &circuit_unitary(&pass.bind(&theta)),
            &circuit_unitary(&sweeps.bind(&theta)),
        );
        prop_assert!(fidelity > 1.0 - 1e-8, "fidelity {fidelity}");
    }
}
