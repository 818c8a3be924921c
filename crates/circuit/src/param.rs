//! Symbolic parameter expressions for variational circuits.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A rotation-angle expression: either a constant or a linear function of exactly one
/// variational parameter `θᵢ`.
///
/// The paper observes (Section 7.1) that circuit construction and optimization rewrite
/// angles into forms like `−θᵢ` or `θᵢ/2`; tracking the dependence explicitly — rather
/// than trying to recover it from numeric values — is what makes parameter monotonicity
/// detectable and flexible partial compilation possible.
///
/// ```
/// use vqc_circuit::ParamExpr;
/// let half = ParamExpr::theta(3).scaled(0.5);
/// assert_eq!(half.parameter(), Some(3));
/// assert!((half.evaluate(&[0.0, 0.0, 0.0, 2.0]) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ParamExpr {
    /// A fixed angle known at circuit-construction time.
    Constant(f64),
    /// A linear function `scale · θ[index] + offset` of one variational parameter.
    Linear {
        /// Index of the variational parameter this expression depends on.
        index: usize,
        /// Multiplicative coefficient applied to the parameter.
        scale: f64,
        /// Constant additive offset.
        offset: f64,
    },
}

impl ParamExpr {
    /// The bare parameter `θ[index]`.
    pub fn theta(index: usize) -> Self {
        ParamExpr::Linear {
            index,
            scale: 1.0,
            offset: 0.0,
        }
    }

    /// A constant angle.
    pub fn constant(value: f64) -> Self {
        ParamExpr::Constant(value)
    }

    /// Index of the variational parameter this expression depends on, if any.
    pub fn parameter(&self) -> Option<usize> {
        match self {
            ParamExpr::Constant(_) => None,
            ParamExpr::Linear { index, .. } => Some(*index),
        }
    }

    /// Returns `true` if the expression depends on a variational parameter.
    pub fn is_parameterized(&self) -> bool {
        self.parameter().is_some()
    }

    /// Evaluates the expression against a full parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if the expression references a parameter index outside `params`.
    pub fn evaluate(&self, params: &[f64]) -> f64 {
        match self {
            ParamExpr::Constant(v) => *v,
            ParamExpr::Linear {
                index,
                scale,
                offset,
            } => {
                assert!(
                    *index < params.len(),
                    "parameter index {index} out of range (got {} parameters)",
                    params.len()
                );
                scale * params[*index] + offset
            }
        }
    }

    /// Returns the expression multiplied by a real factor.
    pub fn scaled(&self, k: f64) -> Self {
        match self {
            ParamExpr::Constant(v) => ParamExpr::Constant(v * k),
            ParamExpr::Linear {
                index,
                scale,
                offset,
            } => ParamExpr::Linear {
                index: *index,
                scale: scale * k,
                offset: offset * k,
            },
        }
    }

    /// Returns the negated expression.
    pub fn negated(&self) -> Self {
        self.scaled(-1.0)
    }

    /// Attempts to add two expressions, succeeding when the result is still a constant
    /// or depends on a single parameter (which is what rotation merging needs).
    ///
    /// Returns `None` when the two expressions depend on *different* parameters. When
    /// the θ terms cancel (`s·θ + (−s)·θ`), the sum is the constant of the offsets, so
    /// it no longer counts as parameterized.
    pub fn try_add(&self, other: &ParamExpr) -> Option<ParamExpr> {
        match (self, other) {
            (ParamExpr::Constant(a), ParamExpr::Constant(b)) => Some(ParamExpr::Constant(a + b)),
            (
                ParamExpr::Constant(a),
                ParamExpr::Linear {
                    index,
                    scale,
                    offset,
                },
            ) => Some(ParamExpr::Linear {
                index: *index,
                scale: *scale,
                offset: offset + a,
            }),
            (
                ParamExpr::Linear {
                    index,
                    scale,
                    offset,
                },
                ParamExpr::Constant(b),
            ) => Some(ParamExpr::Linear {
                index: *index,
                scale: *scale,
                offset: offset + b,
            }),
            (
                ParamExpr::Linear {
                    index: i1,
                    scale: s1,
                    offset: o1,
                },
                ParamExpr::Linear {
                    index: i2,
                    scale: s2,
                    offset: o2,
                },
            ) if i1 == i2 => {
                let scale = s1 + s2;
                Some(if scale == 0.0 {
                    ParamExpr::Constant(o1 + o2)
                } else {
                    ParamExpr::Linear {
                        index: *i1,
                        scale,
                        offset: o1 + o2,
                    }
                })
            }
            (ParamExpr::Linear { .. }, ParamExpr::Linear { .. }) => None,
        }
    }

    /// Returns `true` if the expression is the constant zero (within `tol`).
    pub fn is_zero(&self, tol: f64) -> bool {
        match self {
            ParamExpr::Constant(v) => v.abs() <= tol,
            ParamExpr::Linear { scale, offset, .. } => scale.abs() <= tol && offset.abs() <= tol,
        }
    }
}

impl Default for ParamExpr {
    fn default() -> Self {
        ParamExpr::Constant(0.0)
    }
}

impl From<f64> for ParamExpr {
    fn from(v: f64) -> Self {
        ParamExpr::Constant(v)
    }
}

impl fmt::Display for ParamExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamExpr::Constant(v) => write!(f, "{v:.4}"),
            ParamExpr::Linear {
                index,
                scale,
                offset,
            } => {
                if *offset == 0.0 {
                    if *scale == 1.0 {
                        write!(f, "θ{index}")
                    } else {
                        write!(f, "{scale:.4}·θ{index}")
                    }
                } else {
                    write!(f, "{scale:.4}·θ{index}+{offset:.4}")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_constant_and_linear() {
        assert_eq!(ParamExpr::constant(1.5).evaluate(&[]), 1.5);
        let e = ParamExpr::Linear {
            index: 1,
            scale: 2.0,
            offset: -0.5,
        };
        assert_eq!(e.evaluate(&[0.0, 3.0]), 5.5);
    }

    #[test]
    fn scaling_and_negation() {
        let e = ParamExpr::theta(0).scaled(0.5);
        assert_eq!(e.evaluate(&[4.0]), 2.0);
        assert_eq!(e.negated().evaluate(&[4.0]), -2.0);
        assert_eq!(ParamExpr::constant(2.0).negated().evaluate(&[]), -2.0);
    }

    #[test]
    fn merging_same_parameter_succeeds() {
        let a = ParamExpr::theta(2);
        let b = ParamExpr::theta(2).scaled(-0.5);
        let sum = a.try_add(&b).expect("same parameter should merge");
        assert_eq!(sum.parameter(), Some(2));
        assert!((sum.evaluate(&[0.0, 0.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merging_different_parameters_fails() {
        assert!(ParamExpr::theta(0).try_add(&ParamExpr::theta(1)).is_none());
    }

    #[test]
    fn merging_with_constants() {
        let sum = ParamExpr::theta(0)
            .try_add(&ParamExpr::constant(0.25))
            .unwrap();
        assert_eq!(sum.parameter(), Some(0));
        assert!((sum.evaluate(&[1.0]) - 1.25).abs() < 1e-12);

        let sum2 = ParamExpr::constant(0.25)
            .try_add(&ParamExpr::theta(0))
            .unwrap();
        assert!((sum2.evaluate(&[1.0]) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn zero_detection() {
        assert!(ParamExpr::constant(0.0).is_zero(1e-12));
        assert!(!ParamExpr::constant(0.1).is_zero(1e-12));
        assert!(!ParamExpr::theta(0).is_zero(1e-12));
        let cancelled = ParamExpr::theta(0)
            .try_add(&ParamExpr::theta(0).negated())
            .unwrap();
        assert!(cancelled.is_zero(1e-12));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ParamExpr::theta(3).to_string(), "θ3");
        assert_eq!(ParamExpr::theta(1).scaled(0.5).to_string(), "0.5000·θ1");
    }

    #[test]
    #[should_panic(expected = "parameter index")]
    fn evaluate_out_of_range_panics() {
        ParamExpr::theta(5).evaluate(&[1.0]);
    }
}
