//! The circuit container and builder API.

use crate::{CircuitError, Gate, GateOp, ParamExpr};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// An ordered sequence of gate operations on `num_qubits` qubits.
///
/// A `Circuit` is the unit of work every compilation strategy consumes. Variational
/// circuits carry symbolic [`ParamExpr`] angles; [`Circuit::bind`] substitutes a concrete
/// parameter vector to produce a fully numeric circuit.
///
/// ```
/// use vqc_circuit::{Circuit, ParamExpr};
///
/// let mut qaoa_block = Circuit::new(3);
/// qaoa_block.h(0);
/// qaoa_block.cx(0, 1);
/// qaoa_block.rz_expr(1, ParamExpr::theta(0).scaled(2.0));
/// qaoa_block.cx(0, 1);
///
/// assert_eq!(qaoa_block.len(), 4);
/// assert_eq!(qaoa_block.num_parameters(), 1);
/// let bound = qaoa_block.bind(&[0.7]);
/// assert_eq!(bound.num_parameters(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<GateOp>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            ops: Vec::new(),
        }
    }

    /// Number of qubits (circuit width).
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of gate operations (circuit size, not depth).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The gate operations in program order.
    pub fn ops(&self) -> &[GateOp] {
        &self.ops
    }

    /// Consumes the circuit, returning its gate operations in program order.
    pub(crate) fn into_ops(self) -> Vec<GateOp> {
        self.ops
    }

    /// Iterator over the gate operations in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, GateOp> {
        self.ops.iter()
    }

    /// Appends a gate operation, validating qubit indices.
    ///
    /// # Panics
    ///
    /// Panics if any operand index is out of range for this circuit's width.
    pub fn push(&mut self, op: GateOp) {
        for &q in &op.qubits {
            assert!(
                q < self.num_qubits,
                "qubit index {q} out of range for a {}-qubit circuit",
                self.num_qubits
            );
        }
        self.ops.push(op);
    }

    /// Appends a gate to the given qubits.
    pub fn add(&mut self, gate: Gate, qubits: &[usize]) {
        self.push(GateOp::new(gate, qubits.to_vec()));
    }

    /// Appends a Hadamard gate.
    pub fn h(&mut self, q: usize) {
        self.add(Gate::H, &[q]);
    }

    /// Appends a Pauli-X gate.
    pub fn x(&mut self, q: usize) {
        self.add(Gate::X, &[q]);
    }

    /// Appends a Pauli-Z gate.
    pub fn z(&mut self, q: usize) {
        self.add(Gate::Z, &[q]);
    }

    /// Appends a constant-angle Z rotation.
    pub fn rz(&mut self, q: usize, angle: f64) {
        self.add(Gate::Rz(ParamExpr::constant(angle)), &[q]);
    }

    /// Appends a Z rotation with a symbolic angle expression.
    pub fn rz_expr(&mut self, q: usize, angle: ParamExpr) {
        self.add(Gate::Rz(angle), &[q]);
    }

    /// Appends a constant-angle X rotation.
    pub fn rx(&mut self, q: usize, angle: f64) {
        self.add(Gate::Rx(ParamExpr::constant(angle)), &[q]);
    }

    /// Appends an X rotation with a symbolic angle expression.
    pub fn rx_expr(&mut self, q: usize, angle: ParamExpr) {
        self.add(Gate::Rx(angle), &[q]);
    }

    /// Appends a constant-angle Y rotation.
    pub fn ry(&mut self, q: usize, angle: f64) {
        self.add(Gate::Ry(ParamExpr::constant(angle)), &[q]);
    }

    /// Appends a Y rotation with a symbolic angle expression.
    pub fn ry_expr(&mut self, q: usize, angle: ParamExpr) {
        self.add(Gate::Ry(angle), &[q]);
    }

    /// Appends a CNOT with the given control and target.
    pub fn cx(&mut self, control: usize, target: usize) {
        self.add(Gate::Cx, &[control, target]);
    }

    /// Appends a controlled-Z gate.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.add(Gate::Cz, &[a, b]);
    }

    /// Appends a SWAP gate.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.add(Gate::Swap, &[a, b]);
    }

    /// Appends a ZZ rotation with a constant angle.
    pub fn rzz(&mut self, a: usize, b: usize, angle: f64) {
        self.add(Gate::Rzz(ParamExpr::constant(angle)), &[a, b]);
    }

    /// Appends a ZZ rotation with a symbolic angle expression.
    pub fn rzz_expr(&mut self, a: usize, b: usize, angle: ParamExpr) {
        self.add(Gate::Rzz(angle), &[a, b]);
    }

    /// Appends all operations of `other` to this circuit.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthMismatch`] if `other` is wider than this circuit.
    pub fn append(&mut self, other: &Circuit) -> Result<(), CircuitError> {
        if other.num_qubits > self.num_qubits {
            return Err(CircuitError::WidthMismatch {
                expected: self.num_qubits,
                actual: other.num_qubits,
            });
        }
        self.ops.extend(other.ops.iter().cloned());
        Ok(())
    }

    /// Set of distinct variational parameter indices referenced by the circuit.
    pub fn parameter_indices(&self) -> BTreeSet<usize> {
        self.ops.iter().filter_map(GateOp::parameter).collect()
    }

    /// Number of distinct variational parameters referenced by the circuit.
    pub fn num_parameters(&self) -> usize {
        self.parameter_indices().len()
    }

    /// Number of gate operations whose angle depends on a variational parameter.
    pub fn num_parameterized_ops(&self) -> usize {
        self.ops.iter().filter(|op| op.is_parameterized()).count()
    }

    /// The ordered list of parameter indices as they first appear in program order.
    ///
    /// Used to verify *parameter monotonicity* (Section 7.1 of the paper).
    pub fn parameter_appearance_order(&self) -> Vec<usize> {
        let mut seen = Vec::new();
        for op in &self.ops {
            if let Some(p) = op.parameter() {
                if seen.last() != Some(&p) && !seen.contains(&p) {
                    seen.push(p);
                }
            }
        }
        seen
    }

    /// Returns `true` if the parameter-dependent gates appear in monotonically
    /// non-decreasing parameter order (θ₀ gates before θ₁ gates, and so on), which is
    /// the structural property flexible partial compilation relies on.
    pub fn is_parameter_monotonic(&self) -> bool {
        let mut max_seen: Option<usize> = None;
        for op in &self.ops {
            if let Some(p) = op.parameter() {
                if let Some(m) = max_seen {
                    if p < m {
                        return false;
                    }
                }
                max_seen = Some(max_seen.map_or(p, |m| m.max(p)));
            }
        }
        true
    }

    /// Substitutes a concrete parameter vector, producing a circuit whose angles are all
    /// constants.
    ///
    /// # Panics
    ///
    /// Panics if a gate references a parameter index `>= params.len()`.
    pub fn bind(&self, params: &[f64]) -> Circuit {
        let ops = self
            .ops
            .iter()
            .map(|op| {
                let gate = match op.gate.angle() {
                    Some(expr) => op
                        .gate
                        .with_angle(ParamExpr::Constant(expr.evaluate(params))),
                    None => op.gate,
                };
                GateOp {
                    gate,
                    qubits: op.qubits.clone(),
                }
            })
            .collect();
        Circuit {
            num_qubits: self.num_qubits,
            ops,
        }
    }

    /// Returns the sub-circuit containing only the given operation indices (in order),
    /// on the same number of qubits.
    pub fn subcircuit(&self, indices: &[usize]) -> Circuit {
        let ops = indices.iter().map(|&i| self.ops[i].clone()).collect();
        Circuit {
            num_qubits: self.num_qubits,
            ops,
        }
    }

    /// Returns a circuit on `qubits.len()` qubits containing the given operations with
    /// operands re-indexed according to the position of each qubit in `qubits`.
    ///
    /// This is used when handing a ≤4-qubit block to GRAPE, which wants a compact
    /// register.
    ///
    /// # Panics
    ///
    /// Panics if an operation touches a qubit not listed in `qubits`.
    pub fn extract_on_qubits(&self, indices: &[usize], qubits: &[usize]) -> Circuit {
        let mut out = Circuit::new(qubits.len());
        for &i in indices {
            let op = &self.ops[i];
            let mapped: Vec<usize> = op
                .qubits
                .iter()
                .map(|q| {
                    qubits
                        .iter()
                        .position(|&x| x == *q)
                        // audit:allow(unwrap): the extraction set was collected from these operations' qubits
                        .expect("operation touches a qubit outside the extraction set")
                })
                .collect();
            out.push(GateOp::new(op.gate, mapped));
        }
        out
    }

    /// Counts operations per gate name, useful for reporting benchmark statistics.
    pub fn gate_counts(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for op in &self.ops {
            *counts.entry(op.gate.name()).or_insert(0) += 1;
        }
        counts
    }

    /// Fraction of gates that are parameter-dependent (the paper reports 5–8 % for
    /// VQE-UCCSD and 15–28 % for QAOA).
    pub fn parameterized_fraction(&self) -> f64 {
        if self.ops.is_empty() {
            0.0
        } else {
            self.num_parameterized_ops() as f64 / self.ops.len() as f64
        }
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit on {} qubits, {} ops:",
            self.num_qubits,
            self.ops.len()
        )?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a GateOp;
    type IntoIter = std::slice::Iter<'a, GateOp>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.rz_expr(1, ParamExpr::theta(0));
        c.cx(0, 1);
        c.rx_expr(2, ParamExpr::theta(1).scaled(0.5));
        c
    }

    #[test]
    fn builder_tracks_width_and_size() {
        let c = sample_circuit();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.len(), 5);
        assert!(!c.is_empty());
    }

    #[test]
    fn parameters_are_discovered() {
        let c = sample_circuit();
        assert_eq!(c.num_parameters(), 2);
        assert_eq!(c.num_parameterized_ops(), 2);
        assert_eq!(c.parameter_appearance_order(), vec![0, 1]);
        assert!(c.is_parameter_monotonic());
        assert!((c.parameterized_fraction() - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn non_monotonic_parameters_detected() {
        let mut c = Circuit::new(1);
        c.rz_expr(0, ParamExpr::theta(1));
        c.rz_expr(0, ParamExpr::theta(0));
        assert!(!c.is_parameter_monotonic());
    }

    #[test]
    fn binding_replaces_all_parameters() {
        let c = sample_circuit();
        let bound = c.bind(&[0.3, 0.8]);
        assert_eq!(bound.num_parameters(), 0);
        // The rz angle must equal θ0 = 0.3.
        let rz = &bound.ops()[2];
        assert!(matches!(
            rz.gate,
            Gate::Rz(ParamExpr::Constant(v)) if (v - 0.3).abs() < 1e-12
        ));
        // The rx angle must equal θ1/2 = 0.4.
        let rx = &bound.ops()[4];
        assert!(matches!(
            rx.gate,
            Gate::Rx(ParamExpr::Constant(v)) if (v - 0.4).abs() < 1e-12
        ));
    }

    #[test]
    fn append_respects_width() {
        let mut big = Circuit::new(3);
        let small = sample_circuit();
        big.append(&small).unwrap();
        assert_eq!(big.len(), small.len());

        let mut tiny = Circuit::new(2);
        assert!(tiny.append(&small).is_err());
    }

    #[test]
    fn extract_on_qubits_reindexes() {
        let c = sample_circuit();
        // Operations 1..=3 touch qubits {0,1}.
        let block = c.extract_on_qubits(&[1, 2, 3], &[0, 1]);
        assert_eq!(block.num_qubits(), 2);
        assert_eq!(block.len(), 3);
        assert_eq!(block.ops()[0].qubits, vec![0, 1]);
        assert_eq!(block.ops()[1].qubits, vec![1]);
    }

    #[test]
    fn gate_counts_by_name() {
        let c = sample_circuit();
        let counts = c.gate_counts();
        assert_eq!(counts["cx"], 2);
        assert_eq!(counts["h"], 1);
        assert_eq!(counts["rz"], 1);
        assert_eq!(counts["rx"], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut c = Circuit::new(2);
        c.h(2);
    }
}
