//! Property-based tests for the circuit IR and transpiler passes.

use proptest::prelude::*;
use vqc_circuit::passes::{decompose_to_basis, optimize};
use vqc_circuit::timing::{critical_path_ns, serial_duration_ns, GateTimes};
use vqc_circuit::{mapping::map_to_topology, Circuit, ParamExpr, Topology};

/// A random instruction description we can replay onto a `Circuit`.
#[derive(Debug, Clone)]
enum Instr {
    H(usize),
    X(usize),
    RxConst(usize, f64),
    RzConst(usize, f64),
    RzTheta(usize, usize),
    Cx(usize, usize),
    Cz(usize, usize),
    Swap(usize, usize),
    Rzz(usize, usize, usize),
}

fn arb_instr(num_qubits: usize, num_params: usize) -> impl Strategy<Value = Instr> {
    let q = 0..num_qubits;
    let q2 = (0..num_qubits, 0..num_qubits).prop_filter("distinct", |(a, b)| a != b);
    prop_oneof![
        q.clone().prop_map(Instr::H),
        q.clone().prop_map(Instr::X),
        (q.clone(), -3.0..3.0f64).prop_map(|(a, v)| Instr::RxConst(a, v)),
        (q.clone(), -3.0..3.0f64).prop_map(|(a, v)| Instr::RzConst(a, v)),
        (q.clone(), 0..num_params).prop_map(|(a, p)| Instr::RzTheta(a, p)),
        q2.clone().prop_map(|(a, b)| Instr::Cx(a, b)),
        q2.clone().prop_map(|(a, b)| Instr::Cz(a, b)),
        q2.clone().prop_map(|(a, b)| Instr::Swap(a, b)),
        (q2, 0..num_params).prop_map(|((a, b), p)| Instr::Rzz(a, b, p)),
    ]
}

fn build(num_qubits: usize, instrs: &[Instr]) -> Circuit {
    let mut c = Circuit::new(num_qubits);
    for i in instrs {
        match *i {
            Instr::H(a) => c.h(a),
            Instr::X(a) => c.x(a),
            Instr::RxConst(a, v) => c.rx(a, v),
            Instr::RzConst(a, v) => c.rz(a, v),
            Instr::RzTheta(a, p) => c.rz_expr(a, ParamExpr::theta(p)),
            Instr::Cx(a, b) => c.cx(a, b),
            Instr::Cz(a, b) => c.cz(a, b),
            Instr::Swap(a, b) => c.swap(a, b),
            Instr::Rzz(a, b, p) => c.rzz_expr(a, b, ParamExpr::theta(p)),
        }
    }
    c
}

fn arb_circuit(
    num_qubits: usize,
    num_params: usize,
    max_len: usize,
) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_instr(num_qubits, num_params), 0..max_len)
        .prop_map(move |instrs| build(num_qubits, &instrs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decompose_produces_only_basis_gates(c in arb_circuit(4, 3, 30)) {
        let lowered = decompose_to_basis(&c);
        prop_assert!(lowered.iter().all(|op| op.gate.is_basis_gate()));
    }

    #[test]
    fn passes_never_grow_the_circuit(c in arb_circuit(4, 3, 30)) {
        prop_assert!(optimize(&c).len() <= decompose_to_basis(&c).len());
    }

    #[test]
    fn optimize_output_is_a_fixed_point(c in arb_circuit(3, 3, 40)) {
        let once = optimize(&c);
        prop_assert_eq!(optimize(&once), once);
    }

    #[test]
    fn optimize_never_increases_runtime(c in arb_circuit(4, 3, 30)) {
        let times = GateTimes::default();
        let baseline = critical_path_ns(&decompose_to_basis(&c), &times);
        let optimized = critical_path_ns(&optimize(&c), &times);
        prop_assert!(optimized <= baseline + 1e-9);
    }

    #[test]
    fn optimize_preserves_parameter_set_or_shrinks_it(c in arb_circuit(4, 3, 30)) {
        let before = c.parameter_indices();
        let after = optimize(&c).parameter_indices();
        prop_assert!(after.is_subset(&before));
    }

    #[test]
    fn critical_path_is_at_most_serial_time(c in arb_circuit(5, 3, 40)) {
        let times = GateTimes::default();
        let lowered = decompose_to_basis(&c);
        let cp = critical_path_ns(&lowered, &times);
        let serial = serial_duration_ns(&lowered, &times).unwrap();
        prop_assert!(cp <= serial + 1e-9);
    }

    #[test]
    fn binding_removes_all_parameters(c in arb_circuit(4, 3, 30), params in prop::collection::vec(-3.0..3.0f64, 3)) {
        let bound = c.bind(&params);
        prop_assert_eq!(bound.num_parameters(), 0);
        prop_assert_eq!(bound.len(), c.len());
    }

    #[test]
    fn routing_to_a_line_makes_all_two_qubit_gates_local(c in arb_circuit(5, 3, 25)) {
        let topo = Topology::line(5);
        let lowered = decompose_to_basis(&c);
        let mapped = map_to_topology(&lowered, &topo).unwrap();
        for op in mapped.circuit.iter() {
            if op.qubits.len() == 2 {
                prop_assert!(topo.are_connected(op.qubits[0], op.qubits[1]));
            }
        }
        // Routing only ever adds SWAP gates.
        prop_assert!(mapped.circuit.len() >= lowered.len());
        prop_assert_eq!(mapped.circuit.len() - lowered.len(), mapped.swaps_inserted);
    }

    #[test]
    fn grid_routing_also_succeeds(c in arb_circuit(6, 3, 25)) {
        let topo = Topology::grid(2, 3);
        let lowered = decompose_to_basis(&c);
        let mapped = map_to_topology(&lowered, &topo).unwrap();
        for op in mapped.circuit.iter() {
            if op.qubits.len() == 2 {
                prop_assert!(topo.are_connected(op.qubits[0], op.qubits[1]));
            }
        }
    }
}
