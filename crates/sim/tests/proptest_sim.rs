//! Property-based tests for the simulator: unitarity, norm preservation, and agreement
//! between the state-vector and dense-unitary code paths.

use proptest::prelude::*;
use vqc_circuit::passes::{decompose_to_basis, optimize};
use vqc_circuit::{Circuit, ParamExpr};
use vqc_linalg::fidelity::trace_fidelity;
use vqc_sim::{circuit_unitary, PauliOperator, PauliString, StateVector};

#[derive(Debug, Clone)]
enum Instr {
    H(usize),
    RxConst(usize, f64),
    RzConst(usize, f64),
    Ry(usize, f64),
    Cx(usize, usize),
    Cz(usize, usize),
    Swap(usize, usize),
    Rzz(usize, usize, f64),
}

fn arb_instr(n: usize) -> impl Strategy<Value = Instr> {
    let q = 0..n;
    let q2 = (0..n, 0..n).prop_filter("distinct", |(a, b)| a != b);
    prop_oneof![
        q.clone().prop_map(Instr::H),
        (q.clone(), -3.0..3.0f64).prop_map(|(a, v)| Instr::RxConst(a, v)),
        (q.clone(), -3.0..3.0f64).prop_map(|(a, v)| Instr::RzConst(a, v)),
        (q, -3.0..3.0f64).prop_map(|(a, v)| Instr::Ry(a, v)),
        q2.clone().prop_map(|(a, b)| Instr::Cx(a, b)),
        q2.clone().prop_map(|(a, b)| Instr::Cz(a, b)),
        q2.clone().prop_map(|(a, b)| Instr::Swap(a, b)),
        (q2, -3.0..3.0f64).prop_map(|((a, b), v)| Instr::Rzz(a, b, v)),
    ]
}

fn build(n: usize, instrs: &[Instr]) -> Circuit {
    let mut c = Circuit::new(n);
    for i in instrs {
        match *i {
            Instr::H(a) => c.h(a),
            Instr::RxConst(a, v) => c.rx(a, v),
            Instr::RzConst(a, v) => c.rz(a, v),
            Instr::Ry(a, v) => c.ry(a, v),
            Instr::Cx(a, b) => c.cx(a, b),
            Instr::Cz(a, b) => c.cz(a, b),
            Instr::Swap(a, b) => c.swap(a, b),
            Instr::Rzz(a, b, v) => c.rzz(a, b, v),
        }
    }
    c
}

fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_instr(n), 0..max_len).prop_map(move |instrs| build(n, &instrs))
}

/// What the optimizer sees beyond [`Instr`]: runs of one to five same-axis rotations
/// on one qubit alternating two angles, each zero, a constant, or `±θ₀` / `±θ₁` plus
/// an offset. Its circuits are bound before they are simulated.
#[derive(Debug, Clone)]
enum Rewrite {
    Plain(Instr),
    Run {
        qubit: usize,
        x_axis: bool,
        angles: [ParamExpr; 2],
        len: usize,
    },
}

fn arb_angle() -> impl Strategy<Value = ParamExpr> {
    prop_oneof![
        (0..1usize).prop_map(|_| ParamExpr::constant(0.0)),
        (-3.0..3.0f64).prop_map(ParamExpr::constant),
        (0..2usize, 0..2usize, -1.0..1.0f64).prop_map(|(index, sign, offset)| {
            ParamExpr::Linear {
                index,
                scale: [1.0, -1.0][sign],
                offset,
            }
        }),
    ]
}

fn arb_rewrite(n: usize) -> impl Strategy<Value = Rewrite> {
    prop_oneof![
        arb_instr(n).prop_map(Rewrite::Plain),
        (0..n, 0..2usize, arb_angle(), arb_angle(), 1..6usize).prop_map(
            |(qubit, axis, a, b, len)| Rewrite::Run {
                qubit,
                x_axis: axis == 1,
                angles: [a, b],
                len,
            }
        ),
    ]
}

fn arb_rewrite_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_rewrite(n), 0..max_len).prop_map(move |rewrites| {
        let mut c = Circuit::new(n);
        for rewrite in rewrites {
            match rewrite {
                Rewrite::Plain(instr) => c.append(&build(n, &[instr])).unwrap(),
                Rewrite::Run {
                    qubit,
                    x_axis,
                    angles,
                    len,
                } => {
                    for angle in angles.iter().cycle().take(len) {
                        if x_axis {
                            c.rx_expr(qubit, *angle);
                        } else {
                            c.rz_expr(qubit, *angle);
                        }
                    }
                }
            }
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn circuit_unitaries_are_unitary(c in arb_circuit(3, 20)) {
        prop_assert!(circuit_unitary(&c).is_unitary(1e-9));
    }

    #[test]
    fn statevector_matches_unitary_column(c in arb_circuit(3, 20)) {
        let u = circuit_unitary(&c);
        let state = StateVector::from_circuit(&c);
        // The state from |000> must equal the first column of the unitary.
        for row in 0..u.rows() {
            prop_assert!((u[(row, 0)] - state.amplitudes().get(row)).abs() < 1e-9);
        }
    }

    #[test]
    fn simulation_preserves_norm(c in arb_circuit(4, 25)) {
        let state = StateVector::from_circuit(&c);
        let total: f64 = state.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn decomposition_to_basis_preserves_semantics(c in arb_circuit(3, 15)) {
        let u1 = circuit_unitary(&c);
        let u2 = circuit_unitary(&decompose_to_basis(&c));
        prop_assert!(trace_fidelity(&u1, &u2) > 1.0 - 1e-8);
    }

    #[test]
    fn optimization_preserves_semantics(
        c in arb_rewrite_circuit(3, 15),
        theta in prop::collection::vec(-3.0..3.0f64, 2),
    ) {
        let u1 = circuit_unitary(&decompose_to_basis(&c).bind(&theta));
        let u2 = circuit_unitary(&optimize(&c).bind(&theta));
        prop_assert!(trace_fidelity(&u1, &u2) > 1.0 - 1e-8);
    }

    #[test]
    fn pauli_expectations_are_real_and_bounded(c in arb_circuit(3, 15)) {
        let h = PauliOperator::new(3)
            .with_term(1.0, PauliString::parse("ZZI"))
            .with_term(1.0, PauliString::parse("IZZ"))
            .with_term(0.5, PauliString::parse("XII"));
        let state = StateVector::from_circuit(&c);
        let e = h.expectation(&state);
        // |<H>| is bounded by the sum of |coefficients|.
        prop_assert!(e.abs() <= 2.5 + 1e-9);
    }

    #[test]
    fn binding_then_simulating_is_consistent(
        params in prop::collection::vec(-3.0..3.0f64, 2),
    ) {
        // A small parameterized circuit evaluated two ways: bind-then-simulate must equal
        // simulating a circuit built directly with the numeric angles.
        let mut sym = Circuit::new(2);
        sym.h(0);
        sym.rz_expr(0, ParamExpr::theta(0));
        sym.cx(0, 1);
        sym.rx_expr(1, ParamExpr::theta(1).scaled(0.5));
        let bound = sym.bind(&params);

        let mut direct = Circuit::new(2);
        direct.h(0);
        direct.rz(0, params[0]);
        direct.cx(0, 1);
        direct.rx(1, params[1] * 0.5);

        let s1 = StateVector::from_circuit(&bound);
        let s2 = StateVector::from_circuit(&direct);
        prop_assert!((s1.inner(&s2).abs() - 1.0).abs() < 1e-9);
    }
}
