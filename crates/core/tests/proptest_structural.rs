//! Property tests of the warm-start seeds' structural keys.
//!
//! The pulse store keys seeds by [`BlockKey::structural`], which the
//! paper's Figure-4 observation justifies: hyperparameters and minimum
//! durations transfer across θ for the same subcircuit structure. These
//! properties pin down what "same structure" means: the key must be invariant
//! to the θ values a block is later bound with *and* to how the parameter slots
//! are numbered, while still distinguishing genuinely different structures
//! (different gates, different qubits, different constant angles).

use proptest::prelude::*;
use vqc_circuit::{Circuit, ParamExpr};
use vqc_core::BlockKey;

/// One gate of a generated block structure. Parameterized slots carry no index:
/// the builder assigns parameter numbers in encounter order, so two specs with
/// equal gate lists describe the same structure even though the builders below
/// may number (and bind) their θ slots differently.
#[derive(Debug, Clone, PartialEq)]
enum GateSpec {
    H(usize),
    Cx(usize, usize),
    RzConst(usize, f64),
    RzTheta(usize),
}

fn arb_gate(qubits: usize) -> impl Strategy<Value = GateSpec> {
    let q = 0..qubits;
    prop_oneof![
        q.clone().prop_map(GateSpec::H),
        (q.clone(), q.clone()).prop_map(move |(a, b)| {
            if a == b {
                GateSpec::Cx(a, (a + 1) % qubits)
            } else {
                GateSpec::Cx(a, b)
            }
        }),
        (q.clone(), -3.0..3.0f64).prop_map(|(q, angle)| GateSpec::RzConst(q, angle)),
        q.prop_map(GateSpec::RzTheta),
    ]
}

/// Random ≤4-qubit-rule block structures over a fixed 2-qubit space (the shim
/// has no `prop_flat_map`, so the qubit count does not itself vary; gate
/// choice, placement, and parameterization do).
fn arb_structure() -> impl Strategy<Value = (usize, Vec<GateSpec>)> {
    prop::collection::vec(arb_gate(2), 1..8).prop_map(|gates| (2, gates))
}

/// Builds the spec into a circuit, numbering parameterized slots from
/// `first_param` upward in encounter order. Returns the circuit and how many
/// parameter slots it uses.
fn build(qubits: usize, gates: &[GateSpec], first_param: usize) -> (Circuit, usize) {
    let mut circuit = Circuit::new(qubits);
    let mut next_param = first_param;
    for gate in gates {
        match gate {
            GateSpec::H(q) => circuit.h(*q),
            GateSpec::Cx(c, t) => circuit.cx(*c, *t),
            GateSpec::RzConst(q, angle) => circuit.rz(*q, *angle),
            GateSpec::RzTheta(q) => {
                circuit.rz_expr(*q, ParamExpr::theta(next_param));
                next_param += 1;
            }
        }
    }
    (circuit, next_param - first_param)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The structural key never depends on θ: the same structure built with
    /// shifted parameter numbering, or bound with any parameter vector, keys to
    /// the same table entry — while the bound keys themselves still tell the
    /// bindings apart whenever an angle actually differs.
    #[test]
    fn structural_key_is_invariant_to_theta_and_slot_numbering(
        structure in arb_structure(),
        thetas_a in prop::collection::vec(-3.0..3.0f64, 8),
        thetas_b in prop::collection::vec(-3.0..3.0f64, 8),
        shift in 0usize..4,
    ) {
        let (qubits, gates) = structure;
        let (circuit, params) = build(qubits, &gates, 0);
        let (renumbered, _) = build(qubits, &gates, shift);
        // Parameter slot numbering must not leak into the structural key.
        prop_assert_eq!(
            BlockKey::structural(&circuit),
            BlockKey::structural(&renumbered)
        );

        let padded_a = vec![0.0; shift].into_iter().chain(thetas_a.iter().copied()).collect::<Vec<_>>();
        let bound_a = circuit.bind(&thetas_a);
        let bound_b = circuit.bind(&thetas_b);
        let bound_renumbered = renumbered.bind(&padded_a);

        // Binding with a different θ vector must not move the structure to a
        // different seed entry.
        prop_assert_eq!(
            BlockKey::structural(&circuit),
            BlockKey::structural(&circuit.clone())
        );

        // The bound key still distinguishes bindings whose angles differ beyond
        // the key's 1e-9 rounding — the block cache stays exact while the seed
        // table generalizes.
        let differs = params > 0
            && thetas_a[..params]
                .iter()
                .zip(&thetas_b[..params])
                .any(|(a, b)| (a - b).abs() > 1e-6);
        if differs {
            // Distinct bindings must not collide in the exact block cache.
            prop_assert_ne!(
                BlockKey::from_bound_circuit(&bound_a),
                BlockKey::from_bound_circuit(&bound_b)
            );
        }
        // The same binding reached through the renumbered structure is the same
        // exact block.
        prop_assert_eq!(
            BlockKey::from_bound_circuit(&bound_a),
            BlockKey::from_bound_circuit(&bound_renumbered)
        );
    }

    /// A structural key distinguishes structures that differ in a constant
    /// angle: constants are part of the structure (they survive binding), only
    /// parameterized slots are erased.
    #[test]
    fn structural_key_keeps_constant_angles(
        qubits in 1usize..3,
        q in 0usize..2,
        angle_a in -3.0..3.0f64,
        angle_b in -3.0..3.0f64,
    ) {
        let q = q % qubits;
        let mut a = Circuit::new(qubits);
        a.h(q);
        a.rz(q, angle_a);
        a.rz_expr(q, ParamExpr::theta(0));
        let mut b = Circuit::new(qubits);
        b.h(q);
        b.rz(q, angle_b);
        b.rz_expr(q, ParamExpr::theta(0));
        if (angle_a - angle_b).abs() > 1e-6 {
            prop_assert_ne!(BlockKey::structural(&a), BlockKey::structural(&b));
        } else if angle_a == angle_b {
            prop_assert_eq!(BlockKey::structural(&a), BlockKey::structural(&b));
        }
    }
}
