//! Circuit optimization passes.
//!
//! The paper's gate-based baseline applies IBM Qiskit's transpiler plus a custom pass
//! that merges consecutive rotations about the same axis. This module reimplements that
//! pipeline as two steps:
//!
//! * [`decompose_to_basis`] — lower convenience gates (X, Z, Ry, CZ, Rzz) to the
//!   Table-1 basis `{Rz, Rx, H, CX, SWAP}`.
//! * [`optimize`] — decompose, then one left-to-right peephole pass.
//!
//! The pass keeps its output as slots and, per qubit, a stack of the live output ops
//! touching it. An incoming op's *predecessor* is the op on top of all its qubits'
//! stacks (for a two-qubit op, both stacks must show the same op). Against it:
//!
//! 1. **Merge** a rotation about the same axis (`Rz`, `Rx`, `Rzz`) on the same qubits
//!    whose angle adds ([`ParamExpr::try_add`]). The sum takes the predecessor's slot,
//!    the *earlier* position, because blocking follows op order; it is then checked
//!    against the op beneath like a new arrival, and removed if it is zero.
//! 2. **Cancel** a self-inverse gate (CX, H, SWAP, CZ, X, Z) against the same gate on
//!    the same operands (either order for SWAP and CZ), exposing the op beneath.
//! 3. **Drop** a zero rotation that merged with nothing; **push** anything else.
//!
//! Each step is O(1) and allocates nothing, so the pass is linear, and its output is a
//! fixed point of itself. It replaces merge, zero-removal and cancellation sweeps
//! repeated until the length held, and prepares every benchmark circuit of the paper
//! with the same ops and angle bits. Elsewhere the two may differ, at the same unitary
//! and never longer: in a same-axis run mixing two parameters the sweeps paired
//! neighbours round by round while the pass folds left to right, so a constant can
//! land on (and keep the slot of) a different rotation; a zero rotation is dropped
//! rather than lending its slot to the next rotation; and of three equal self-inverse
//! gates a different pair may cancel.

use crate::{Circuit, Gate, GateOp, ParamExpr};
use std::f64::consts::{FRAC_PI_2, PI};

/// Tolerance used when deciding whether an angle is exactly zero.
const ZERO_TOL: f64 = 1e-12;

/// Lowers every gate to the Table-1 compilation basis `{Rz, Rx, H, CX, SWAP}`.
///
/// Decompositions used (in time order):
/// * `X → Rx(π)`, `Z → Rz(π)`
/// * `Ry(θ) → Rz(−π/2) · Rx(θ) · Rz(π/2)`
/// * `CZ(a,b) → H(b) · CX(a,b) · H(b)`
/// * `Rzz(θ)(a,b) → CX(a,b) · Rz(θ)(b) · CX(a,b)`
pub fn decompose_to_basis(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    for op in circuit.iter() {
        match &op.gate {
            Gate::X => out.rx(op.qubits[0], PI),
            Gate::Z => out.rz(op.qubits[0], PI),
            Gate::Ry(angle) => {
                let q = op.qubits[0];
                out.rz(q, -FRAC_PI_2);
                out.rx_expr(q, *angle);
                out.rz(q, FRAC_PI_2);
            }
            Gate::Cz => {
                let (a, b) = (op.qubits[0], op.qubits[1]);
                out.h(b);
                out.cx(a, b);
                out.h(b);
            }
            Gate::Rzz(angle) => {
                let (a, b) = (op.qubits[0], op.qubits[1]);
                out.cx(a, b);
                out.rz_expr(b, *angle);
                out.cx(a, b);
            }
            _ => out.push(op.clone()),
        }
    }
    out
}

/// Optimizes a circuit: [`decompose_to_basis`], then one peephole pass that merges
/// same-axis rotations, cancels self-inverse pairs and drops zero rotations (see the
/// module docs). This is the preparation the paper applies to every benchmark before
/// measuring its gate-based runtime.
pub fn optimize(circuit: &Circuit) -> Circuit {
    let lowered = decompose_to_basis(circuit);
    let num_qubits = lowered.num_qubits();
    let mut slots: Vec<Option<GateOp>> = Vec::with_capacity(lowered.len());
    let mut stacks: Vec<Vec<usize>> = vec![Vec::new(); num_qubits];
    'ops: for mut op in lowered.into_ops() {
        // Where `op` lives once placed: a fresh slot, or the earlier slot it merged into.
        let mut slot = None;
        while let Some(p) = predecessor(&stacks, &op.qubits) {
            // audit:allow(unwrap): the stacks hold only live slots
            let prev = slots[p].as_ref().expect("stacks hold live slots");
            let sum = merged_angle(prev, &op);
            if sum.is_none() && !cancels(prev, &op) {
                break;
            }
            // A merge or a cancellation: the predecessor leaves its slot and the stacks.
            slots[p] = None;
            for &q in &op.qubits {
                stacks[q].pop();
            }
            match sum {
                Some(sum) if !sum.is_zero(ZERO_TOL) => {
                    op.gate = op.gate.with_angle(sum);
                    slot = Some(p);
                }
                _ => continue 'ops,
            }
        }
        if op.gate.angle().is_some_and(|angle| angle.is_zero(ZERO_TOL)) {
            continue;
        }
        let slot = slot.unwrap_or_else(|| {
            slots.push(None);
            slots.len() - 1
        });
        for &q in &op.qubits {
            stacks[q].push(slot);
        }
        slots[slot] = Some(op);
    }
    let mut out = Circuit::new(num_qubits);
    for op in slots.into_iter().flatten() {
        out.push(op);
    }
    out
}

/// The live output op on top of every stack of `qubits`, if one op is.
fn predecessor(stacks: &[Vec<usize>], qubits: &[usize]) -> Option<usize> {
    let (first, rest) = qubits.split_first()?;
    let top = stacks[*first].last()?;
    rest.iter()
        .all(|&q| stacks[q].last() == Some(top))
        .then_some(*top)
}

/// The summed angle when `next` is a rotation about `prev`'s axis on `prev`'s qubits
/// and the two angles add symbolically.
fn merged_angle(prev: &GateOp, next: &GateOp) -> Option<ParamExpr> {
    let same_axis = matches!(
        (&prev.gate, &next.gate),
        (Gate::Rz(_), Gate::Rz(_)) | (Gate::Rx(_), Gate::Rx(_)) | (Gate::Rzz(_), Gate::Rzz(_))
    );
    if !same_axis || prev.qubits != next.qubits {
        return None;
    }
    prev.gate.angle()?.try_add(next.gate.angle()?)
}

/// Returns `true` when `next` undoes `prev`: the same self-inverse gate on the same
/// operands, in either order for the symmetric SWAP and CZ.
fn cancels(prev: &GateOp, next: &GateOp) -> bool {
    let self_inverse = matches!(
        next.gate,
        Gate::Cx | Gate::H | Gate::Swap | Gate::Cz | Gate::X | Gate::Z
    );
    let same_operands = prev.qubits == next.qubits
        || (matches!(next.gate, Gate::Swap | Gate::Cz)
            && prev.qubits.iter().rev().eq(next.qubits.iter()));
    self_inverse && prev.gate == next.gate && same_operands
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose_covers_all_convenience_gates() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.z(1);
        c.ry(0, 0.7);
        c.cz(0, 1);
        c.rzz(0, 1, 0.3);
        let lowered = decompose_to_basis(&c);
        assert!(lowered.iter().all(|op| op.gate.is_basis_gate()));
        // x -> 1, z -> 1, ry -> 3, cz -> 3, rzz -> 3
        assert_eq!(lowered.len(), 11);
    }

    #[test]
    fn merge_constant_rotations() {
        let mut c = Circuit::new(1);
        c.rx(0, 0.25);
        c.rx(0, 0.50);
        let merged = optimize(&c);
        assert_eq!(merged.len(), 1);
        assert!(matches!(
            merged.ops()[0].gate,
            Gate::Rx(ParamExpr::Constant(v)) if (v - 0.75).abs() < 1e-12
        ));
    }

    #[test]
    fn merge_symbolic_rotations_same_parameter() {
        let mut c = Circuit::new(1);
        c.rz_expr(0, ParamExpr::theta(2));
        c.rz_expr(0, ParamExpr::theta(2).scaled(0.5));
        let merged = optimize(&c);
        assert_eq!(merged.len(), 1);
        let angle = merged.ops()[0].gate.angle().unwrap();
        assert_eq!(angle.parameter(), Some(2));
        assert!((angle.evaluate(&[0.0, 0.0, 2.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn different_parameters_do_not_merge() {
        let mut c = Circuit::new(1);
        c.rz_expr(0, ParamExpr::theta(0));
        c.rz_expr(0, ParamExpr::theta(1));
        assert_eq!(optimize(&c).len(), 2);
    }

    #[test]
    fn rotation_merge_blocked_by_intervening_gate() {
        let mut c = Circuit::new(2);
        c.rx(0, 0.25);
        c.cx(0, 1);
        c.rx(0, 0.50);
        assert_eq!(optimize(&c).len(), 3);
    }

    #[test]
    fn different_axes_do_not_merge() {
        let mut c = Circuit::new(1);
        c.rx(0, 0.25);
        c.rz(0, 0.50);
        assert_eq!(optimize(&c).len(), 2);
    }

    #[test]
    fn cancel_cx_pairs() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.cx(0, 1);
        assert!(optimize(&c).is_empty());
    }

    #[test]
    fn cx_with_intervening_gate_not_cancelled() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.rz(1, 0.3);
        c.cx(0, 1);
        assert_eq!(optimize(&c).len(), 3);
    }

    #[test]
    fn cancel_h_pairs_and_swap_reversed_operands() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.h(0);
        c.swap(0, 1);
        c.swap(1, 0);
        assert!(optimize(&c).is_empty());
    }

    #[test]
    fn reversed_cx_is_not_cancelled() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.cx(1, 0);
        assert_eq!(optimize(&c).len(), 2);
    }

    #[test]
    fn zero_rotations_are_removed() {
        let mut c = Circuit::new(1);
        c.rz(0, 0.0);
        c.rx(0, 0.5);
        let out = optimize(&c);
        assert_eq!(out.len(), 1);
        assert_eq!(out.ops()[0].gate.name(), "rx");
    }

    #[test]
    fn optimize_reaches_fixed_point_and_preserves_parameters() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.h(0);
        c.rzz_expr(0, 1, ParamExpr::theta(0).scaled(2.0));
        c.rx(2, 0.3);
        c.rx(2, -0.3);
        let out = optimize(&c);
        // h,h cancel; rx,rx merge to zero and are removed; rzz expands to cx,rz,cx.
        assert_eq!(out.len(), 3);
        assert_eq!(out.num_parameters(), 1);
        assert!(out.iter().all(|op| op.gate.is_basis_gate()));
        assert_eq!(optimize(&out), out);
    }

    #[test]
    fn optimize_preserves_parameter_monotonicity() {
        let mut c = Circuit::new(2);
        for p in 0..3 {
            c.h(0);
            c.rzz_expr(0, 1, ParamExpr::theta(p));
            c.rx_expr(1, ParamExpr::theta(p).negated());
        }
        let out = optimize(&c);
        assert!(out.is_parameter_monotonic());
        assert_eq!(out.num_parameters(), 3);
    }
}
