//! A minimal, dependency-free double-precision complex scalar.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
///
/// `C64` is `Copy` and implements the standard arithmetic operators against both `C64`
/// and `f64` right-hand sides, which keeps the hot loops in the matrix code readable.
///
/// ```
/// use vqc_linalg::C64;
/// let z = C64::new(0.0, 1.0);
/// assert!((z * z - C64::new(-1.0, 0.0)).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// Returns the complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        C64::new(self.re, -self.im)
    }

    /// Returns the squared magnitude `re^2 + im^2`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Returns the argument (phase angle) in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Returns the complex exponential `e^(self)`.
    ///
    /// ```
    /// use vqc_linalg::C64;
    /// use std::f64::consts::PI;
    /// // Euler's identity: e^{i pi} = -1.
    /// let z = C64::new(0.0, PI).exp();
    /// assert!((z - C64::new(-1.0, 0.0)).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        C64::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Returns `e^{i theta}` — a unit-modulus phase factor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        C64::new(theta.cos(), theta.sin())
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `self` is exactly zero.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        debug_assert!(d > 0.0, "attempted to invert zero complex number");
        C64::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        C64::new(self.re * k, self.im * k)
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Returns `true` if `self` is within `tol` of `other` (component-wise distance).
    #[inline]
    pub fn approx_eq(self, other: C64, tol: f64) -> bool {
        (self - other).abs() <= tol
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(re: f64) -> Self {
        C64::from_real(re)
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    // Division via the reciprocal is the standard complex-number formulation.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: C64) -> C64 {
        self * rhs.recip()
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl Add<f64> for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: f64) -> C64 {
        C64::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: f64) -> C64 {
        C64::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: f64) -> C64 {
        self.scale(rhs)
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline]
    fn div(self, rhs: f64) -> C64 {
        self.scale(1.0 / rhs)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        rhs.scale(self)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: C64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn arithmetic_identities() {
        let z = C64::new(3.0, -4.0);
        assert_eq!(z + C64::ZERO, z);
        assert_eq!(z * C64::ONE, z);
        assert_eq!(z - z, C64::ZERO);
        assert!((z * z.recip() - C64::ONE).abs() < 1e-15);
    }

    #[test]
    fn magnitude_and_conjugate() {
        let z = C64::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < 1e-15);
        assert_eq!(z.conj(), C64::new(3.0, -4.0));
        assert!((z * z.conj() - C64::from_real(25.0)).abs() < 1e-12);
    }

    #[test]
    fn exponential_matches_euler() {
        let z = C64::new(0.0, PI / 2.0).exp();
        assert!(z.approx_eq(C64::I, 1e-15));
        assert!(C64::cis(PI / 2.0).approx_eq(C64::I, 1e-15));
    }

    #[test]
    fn division_round_trips() {
        let a = C64::new(1.5, -0.25);
        let b = C64::new(-2.0, 0.75);
        let q = a / b;
        assert!((q * b).approx_eq(a, 1e-14));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", C64::new(1.0, 2.0)), "1.000000+2.000000i");
        assert_eq!(format!("{}", C64::new(1.0, -2.0)), "1.000000-2.000000i");
    }

    #[test]
    fn mixed_real_ops() {
        let z = C64::new(1.0, 1.0);
        assert_eq!(z * 2.0, C64::new(2.0, 2.0));
        assert_eq!(2.0 * z, C64::new(2.0, 2.0));
        assert_eq!(z / 2.0, C64::new(0.5, 0.5));
        assert_eq!(z + 1.0, C64::new(2.0, 1.0));
        assert_eq!(z - 1.0, C64::new(0.0, 1.0));
    }

    #[test]
    fn sum_over_iterator() {
        let total: C64 = (0..4).map(|k| C64::new(k as f64, 1.0)).sum();
        assert_eq!(total, C64::new(6.0, 4.0));
    }
}
