//! A minimal double-precision complex number.
//!
//! The reproduction's dependency policy forbids `num-complex`, so `numkit`
//! ships its own [`c64`]. Only the operations the rest of the workspace
//! needs are provided; the type is `#[repr(C)]` and `Copy`, so it can be
//! stored densely in matrices without overhead.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// The lowercase name mirrors the BLAS/LAPACK naming convention (`z`/`c64`)
/// that is familiar in numerical code; it is a primitive-like value type.
///
/// # Examples
///
/// ```
/// use numkit::c64;
///
/// let s = c64::new(0.0, 2.0 * std::f64::consts::PI * 1e9); // s = j*2π·1GHz
/// assert_eq!(s.conj().im, -s.im);
/// assert!((c64::I * c64::I + c64::ONE).abs() < 1e-15);
/// ```
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct c64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl c64 {
    /// Zero.
    pub const ZERO: c64 = c64 { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: c64 = c64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: c64 = c64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        c64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        c64 { re, im: 0.0 }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        c64::new(self.re, -self.im)
    }

    /// Modulus `|z|`, computed with `hypot` to avoid overflow.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus `|z|²`.
    #[inline]
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Uses Smith's algorithm to avoid intermediate overflow/underflow.
    #[inline]
    pub fn recip(self) -> Self {
        // Smith's algorithm: scale by the larger component.
        if self.re.abs() >= self.im.abs() {
            let r = self.im / self.re;
            let d = self.re + self.im * r;
            c64::new(1.0 / d, -r / d)
        } else {
            let r = self.re / self.im;
            let d = self.re * r + self.im;
            c64::new(r / d, -1.0 / d)
        }
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return c64::ZERO;
        }
        let m = self.abs();
        let re = ((m + self.re) / 2.0).sqrt();
        let im_mag = ((m - self.re) / 2.0).sqrt();
        c64::new(re, if self.im >= 0.0 { im_mag } else { -im_mag })
    }

    /// Complex exponential `e^z`.
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        c64::new(r * self.im.cos(), r * self.im.sin())
    }

    /// `true` if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        c64::new(self.re * k, self.im * k)
    }

    /// Unit-modulus phase factor `z/|z|`, or 1 for `z = 0`.
    #[inline]
    pub fn phase(self) -> Self {
        let m = self.abs();
        if m == 0.0 {
            c64::ONE
        } else {
            self.scale(1.0 / m)
        }
    }
}

impl fmt::Display for c64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 || self.im.is_nan() {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}-{}i", self.re, -self.im)
        }
    }
}

impl From<f64> for c64 {
    #[inline]
    fn from(re: f64) -> Self {
        c64::from_real(re)
    }
}

impl Add for c64 {
    type Output = c64;
    #[inline]
    fn add(self, rhs: c64) -> c64 {
        c64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for c64 {
    type Output = c64;
    #[inline]
    fn sub(self, rhs: c64) -> c64 {
        c64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for c64 {
    type Output = c64;
    #[inline]
    fn mul(self, rhs: c64) -> c64 {
        c64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for c64 {
    type Output = c64;
    // Division *is* multiplication by the (Smith-scaled) reciprocal.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: c64) -> c64 {
        self * rhs.recip()
    }
}

impl Neg for c64 {
    type Output = c64;
    #[inline]
    fn neg(self) -> c64 {
        c64::new(-self.re, -self.im)
    }
}

impl AddAssign for c64 {
    #[inline]
    fn add_assign(&mut self, rhs: c64) {
        *self = *self + rhs;
    }
}

impl SubAssign for c64 {
    #[inline]
    fn sub_assign(&mut self, rhs: c64) {
        *self = *self - rhs;
    }
}

impl MulAssign for c64 {
    #[inline]
    fn mul_assign(&mut self, rhs: c64) {
        *self = *self * rhs;
    }
}

impl DivAssign for c64 {
    #[inline]
    fn div_assign(&mut self, rhs: c64) {
        *self = *self / rhs;
    }
}

impl Mul<f64> for c64 {
    type Output = c64;
    #[inline]
    fn mul(self, rhs: f64) -> c64 {
        self.scale(rhs)
    }
}

impl Mul<c64> for f64 {
    type Output = c64;
    #[inline]
    fn mul(self, rhs: c64) -> c64 {
        rhs.scale(self)
    }
}

impl Sum for c64 {
    fn sum<I: Iterator<Item = c64>>(iter: I) -> c64 {
        iter.fold(c64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: c64, b: c64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn arithmetic_identities() {
        let z = c64::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.abs_sq(), 25.0);
        assert!(close(z * z.recip(), c64::ONE, 1e-15));
        assert!(close(z / z, c64::ONE, 1e-15));
        assert!(close(z + (-z), c64::ZERO, 0.0));
        assert!(close(z.conj().conj(), z, 0.0));
    }

    #[test]
    fn recip_avoids_overflow() {
        let z = c64::new(1e200, 1e200);
        let r = z.recip();
        assert!(r.is_finite());
        assert!(close(z * r, c64::ONE, 1e-12));
    }

    #[test]
    fn sqrt_principal_branch() {
        let z = c64::new(-4.0, 0.0);
        let s = z.sqrt();
        assert!(close(s, c64::new(0.0, 2.0), 1e-15));
        assert!(close(s * s, z, 1e-12));

        let w = c64::new(-1.0, -1e-30);
        assert!(w.sqrt().im < 0.0, "branch cut below negative real axis");
    }

    #[test]
    fn polar_roundtrip() {
        let z = c64::new(2.0 * 1.234f64.cos(), 2.0 * 1.234f64.sin());
        assert!((z.abs() - 2.0).abs() < 1e-15);
        assert!((z.arg() - 1.234).abs() < 1e-15);
    }

    #[test]
    fn exp_of_i_pi_is_minus_one() {
        let z = (c64::I * std::f64::consts::PI).exp();
        assert!(close(z, c64::new(-1.0, 0.0), 1e-15));
    }

    #[test]
    fn phase_is_unit_modulus() {
        let z = c64::new(-3.0, 4.0);
        assert!((z.phase().abs() - 1.0).abs() < 1e-15);
        assert_eq!(c64::ZERO.phase(), c64::ONE);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(c64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(c64::new(1.0, -2.0).to_string(), "1-2i");
    }
}
