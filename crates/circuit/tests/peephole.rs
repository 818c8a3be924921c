//! The rules of the one-pass peephole optimizer that its unit tests do not pin: where
//! a merge lands, what a merge or a cancellation exposes, and rotations whose θ terms
//! cancel.

use vqc_circuit::passes::optimize;
use vqc_circuit::{Circuit, Gate, ParamExpr};

/// `−θ[index] + 0.3`.
fn minus_theta_plus_0_3(index: usize) -> ParamExpr {
    ParamExpr::theta(index)
        .negated()
        .try_add(&ParamExpr::constant(0.3))
        .unwrap()
}

#[test]
fn a_merge_keeps_the_earlier_position() {
    let mut c = Circuit::new(2);
    c.rz(0, 0.25);
    c.h(1);
    c.rz(0, 0.50);
    let out = optimize(&c);
    assert_eq!(out.len(), 2);
    assert_eq!(out.ops()[0].gate, Gate::Rz(ParamExpr::Constant(0.75)));
    assert_eq!(out.ops()[1].gate, Gate::H);
}

#[test]
fn a_merged_sum_merges_with_the_rotation_beneath_it() {
    // θ1 and −θ1 + 0.3 sum to the constant 0.3, which then joins θ0.
    let mut c = Circuit::new(1);
    c.rz_expr(0, ParamExpr::theta(0));
    c.rz_expr(0, ParamExpr::theta(1));
    c.rz_expr(0, minus_theta_plus_0_3(1));
    let out = optimize(&c);
    assert_eq!(out.len(), 1);
    let angle = out.ops()[0].gate.angle().unwrap();
    assert_eq!(angle.parameter(), Some(0));
    assert!((angle.evaluate(&[1.0, 5.0]) - 1.3).abs() < 1e-12);
}

#[test]
fn a_cancellation_exposes_the_op_beneath() {
    // The CX pair cancels, then the H pair around it, then the rotations meet.
    let mut c = Circuit::new(2);
    c.rz(0, 0.25);
    c.h(0);
    c.cx(0, 1);
    c.cx(0, 1);
    c.h(0);
    c.rz(0, 0.50);
    let out = optimize(&c);
    assert_eq!(out.len(), 1);
    assert_eq!(out.ops()[0].gate, Gate::Rz(ParamExpr::Constant(0.75)));
}

#[test]
fn cancelling_theta_terms_leave_a_constant_rotation() {
    let sum = ParamExpr::theta(0)
        .try_add(&minus_theta_plus_0_3(0))
        .unwrap();
    assert_eq!(sum, ParamExpr::Constant(0.3));

    let mut c = Circuit::new(1);
    c.rz_expr(0, ParamExpr::theta(0));
    c.rz_expr(0, minus_theta_plus_0_3(0));
    let out = optimize(&c);
    assert_eq!(out.len(), 1);
    assert_eq!(out.ops()[0].gate, Gate::Rz(ParamExpr::Constant(0.3)));
    assert_eq!(out.num_parameters(), 0);
}
