//! Dense complex vectors (quantum state vectors).

use crate::C64;
use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// A dense complex column vector.
///
/// Used throughout the workspace as a quantum state vector of dimension `2^n`.
///
/// ```
/// use vqc_linalg::{C64, Vector};
/// let psi = Vector::basis_state(4, 0);
/// assert!((psi.norm() - 1.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<C64>,
}

impl Vector {
    /// Creates a zero vector of the given dimension.
    pub fn zeros(dim: usize) -> Self {
        Vector {
            data: vec![C64::ZERO; dim],
        }
    }

    /// Creates a vector from an owned buffer.
    pub fn from_vec(data: Vec<C64>) -> Self {
        Vector { data }
    }

    /// Creates the computational basis state `|index⟩` in a `dim`-dimensional space.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn basis_state(dim: usize, index: usize) -> Self {
        assert!(index < dim, "basis state index out of range");
        let mut v = Vector::zeros(dim);
        v.data[index] = C64::ONE;
        v
    }

    /// Dimension of the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has dimension zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Returns the element at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> C64 {
        self.data[i]
    }

    /// Euclidean (l2) norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Normalizes the vector in place to unit norm. No-op for the zero vector.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            for z in &mut self.data {
                *z = *z / n;
            }
        }
    }

    /// Inner product `⟨self|other⟩` (conjugate-linear in `self`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn inner(&self, other: &Vector) -> C64 {
        assert_eq!(self.len(), other.len(), "inner product dimension mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Probability of measuring basis state `i`: `|⟨i|self⟩|^2`.
    pub fn probability(&self, i: usize) -> f64 {
        self.data[i].norm_sqr()
    }

    /// All basis-state probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        self.data.iter().map(|z| z.norm_sqr()).collect()
    }
}

impl Index<usize> for Vector {
    type Output = C64;
    #[inline]
    fn index(&self, i: usize) -> &C64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut C64 {
        &mut self.data[i]
    }
}

impl FromIterator<C64> for Vector {
    fn from_iter<I: IntoIterator<Item = C64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    #[test]
    fn basis_states_are_orthonormal() {
        let e0 = Vector::basis_state(4, 0);
        let e2 = Vector::basis_state(4, 2);
        assert!((e0.norm() - 1.0).abs() < 1e-15);
        assert!(e0.inner(&e2).abs() < 1e-15);
        assert!((e0.inner(&e0) - C64::ONE).abs() < 1e-15);
    }

    #[test]
    fn normalization() {
        let mut v = Vector::from_vec(vec![c64(3.0, 0.0), c64(0.0, 4.0)]);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-15);
        assert!((v.probability(0) - 0.36).abs() < 1e-12);
        assert!((v.probability(1) - 0.64).abs() < 1e-12);
    }

    #[test]
    fn inner_product_is_conjugate_linear() {
        let a = Vector::from_vec(vec![C64::I, C64::ZERO]);
        let b = Vector::from_vec(vec![C64::ONE, C64::ZERO]);
        // ⟨i a | b⟩ = -i ⟨a|b⟩
        assert!(a.inner(&b).approx_eq(-C64::I, 1e-15));
    }

    #[test]
    fn probabilities_sum_to_one_after_normalize() {
        let mut v = Vector::from_vec(vec![c64(1.0, 1.0), c64(2.0, -0.5), c64(0.0, 3.0)]);
        v.normalize();
        let total: f64 = v.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_normalize_is_noop() {
        let mut v = Vector::zeros(3);
        v.normalize();
        assert_eq!(v.norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "basis state index out of range")]
    fn basis_state_out_of_range_panics() {
        Vector::basis_state(2, 2);
    }
}
