//! LU factorization with partial pivoting, generic over [`Scalar`].
//!
//! This is the dense workhorse behind every `(sE − A)⁻¹B` solve in the
//! workspace when the system is small enough that sparsity does not pay
//! off (the sparse analogue lives in the `sparsekit` crate).

use crate::{Mat, NumError, Scalar};

/// An LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// # Examples
///
/// ```
/// use numkit::{DMat, Lu};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let a = DMat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = Lu::new(a.clone())?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu<T> {
    /// Packed L (unit lower, below diagonal) and U (upper, incl. diagonal).
    lu: Mat<T>,
    /// Row permutation: step `k` swapped rows `k` and `piv[k]`.
    piv: Vec<usize>,
    /// Parity of the permutation (`+1` or `-1`).
    sign: i32,
}

impl<T: Scalar> Lu<T> {
    /// Factors `a`, consuming it.
    ///
    /// # Errors
    ///
    /// - [`NumError::NotSquare`] if `a` is rectangular.
    /// - [`NumError::Singular`] if a pivot is exactly zero (the matrix is
    ///   numerically singular to working precision).
    /// - [`NumError::NotFinite`] if `a` contains NaN/inf.
    pub fn new(mut a: Mat<T>) -> Result<Self, NumError> {
        let (n, m) = a.shape();
        if n != m {
            return Err(NumError::NotSquare { rows: n, cols: m });
        }
        if !a.is_finite() {
            return Err(NumError::NotFinite);
        }
        let mut piv = Vec::with_capacity(n);
        let mut sign = 1;
        for k in 0..n {
            // Partial pivoting: find the largest modulus in column k at or
            // below the diagonal.
            let mut p = k;
            let mut pmax = a[(k, k)].abs();
            for i in (k + 1)..n {
                let m = a[(i, k)].abs();
                if m > pmax {
                    p = i;
                    pmax = m;
                }
            }
            piv.push(p);
            if p != k {
                for j in 0..n {
                    let tmp = a[(k, j)];
                    a[(k, j)] = a[(p, j)];
                    a[(p, j)] = tmp;
                }
                sign = -sign;
            }
            let pivot = a[(k, k)];
            if pivot.abs() == 0.0 {
                return Err(NumError::Singular { pivot: k });
            }
            for i in (k + 1)..n {
                let factor = a[(i, k)] / pivot;
                a[(i, k)] = factor;
                if factor == T::zero() {
                    continue;
                }
                for j in (k + 1)..n {
                    let u = a[(k, j)];
                    a[(i, j)] -= factor * u;
                }
            }
        }
        Ok(Lu { lu: a, piv, sign })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A·x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, NumError> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumError::ShapeMismatch {
                operation: "lu solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let mut x = b.to_vec();
        // Apply the row permutation.
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                x.swap(k, p);
            }
        }
        // Forward substitution with unit-lower L.
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A·X = B` column-by-column.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] if `B` has the wrong row count.
    pub fn solve_mat(&self, b: &Mat<T>) -> Result<Mat<T>, NumError> {
        let n = self.dim();
        if b.nrows() != n {
            return Err(NumError::ShapeMismatch {
                operation: "lu solve_mat",
                left: (n, n),
                right: b.shape(),
            });
        }
        let mut out = Mat::zeros(n, b.ncols());
        for j in 0..b.ncols() {
            let col = self.solve(&b.col(j))?;
            out.set_col(j, &col);
        }
        Ok(out)
    }

    /// Solves `Aᵀ·x = b` (plain transpose, no conjugation).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve_transpose(&self, b: &[T]) -> Result<Vec<T>, NumError> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumError::ShapeMismatch {
                operation: "lu solve_transpose",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Aᵀ = Uᵀ Lᵀ Pᵀ... we have P A = L U, so Aᵀ Pᵀ... solve via
        // Aᵀ x = b  ⇔  Uᵀ y = b (forward), Lᵀ z = y (backward), x = Pᵀ z.
        let mut y = b.to_vec();
        for i in 0..n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= self.lu[(j, i)] * y[j];
            }
            y[i] = acc / self.lu[(i, i)];
        }
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.lu[(j, i)] * y[j];
            }
            y[i] = acc;
        }
        // x = Pᵀ z: undo the swaps in reverse order.
        for (k, &p) in self.piv.iter().enumerate().rev() {
            if p != k {
                y.swap(k, p);
            }
        }
        Ok(y)
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> T {
        // numlint:allow(FLOAT02) permutation sign is exactly ±1
        let mut d = T::from_f64(self.sign as f64);
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Explicit inverse. Prefer [`Lu::solve`] when possible.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur for a successfully
    /// constructed factorization of a finite matrix).
    pub fn inverse(&self) -> Result<Mat<T>, NumError> {
        self.solve_mat(&Mat::identity(self.dim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    #[test]
    fn solve_matches_hand_computation() {
        let a = DMatT::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let lu = Lu::new(a).unwrap();
        let x = lu.solve(&[10.0, 12.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((lu.det() - (-6.0)).abs() < 1e-12);
    }

    type DMatT = Mat<f64>;

    #[test]
    fn singular_matrix_is_detected() {
        let a = DMatT::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::new(a), Err(NumError::Singular { .. })));
    }

    #[test]
    fn rectangular_is_rejected() {
        assert!(matches!(Lu::new(DMatT::zeros(2, 3)), Err(NumError::NotSquare { .. })));
    }

    #[test]
    fn nan_is_rejected() {
        let mut a = DMatT::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(Lu::new(a), Err(NumError::NotFinite)));
    }

    #[test]
    fn complex_solve_roundtrip() {
        let n = 6;
        let a = Mat::<c64>::from_fn(n, n, |i, j| {
            c64::new(((i * 7 + j * 3) % 11) as f64 - 5.0, ((i + 2 * j) % 5) as f64 - 2.0)
                + if i == j { c64::from_real(20.0) } else { c64::ZERO }
        });
        let x_true: Vec<c64> = (0..n).map(|i| c64::new(i as f64, -(i as f64) / 2.0)).collect();
        let b = a.mul_vec(&x_true);
        let lu = Lu::new(a).unwrap();
        let x = lu.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((*xi - *ti).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_transpose_consistent_with_explicit_transpose() {
        let a = DMatT::from_rows(&[&[2.0, -1.0, 0.5], &[0.0, 3.0, 1.0], &[1.0, 1.0, 4.0]]);
        let b = vec![1.0, 2.0, 3.0];
        let lu = Lu::new(a.clone()).unwrap();
        let xt = lu.solve_transpose(&b).unwrap();
        let lut = Lu::new(a.transpose()).unwrap();
        let xr = lut.solve(&b).unwrap();
        for (u, v) in xt.iter().zip(&xr) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = DMatT::from_rows(&[&[1.0, 2.0, 0.0], &[3.0, 1.0, 2.0], &[0.0, 1.0, 1.0]]);
        let inv = Lu::new(a.clone()).unwrap().inverse().unwrap();
        let prod = &a * &inv;
        let err = (&prod - &DMatT::identity(3)).norm_max();
        assert!(err < 1e-12);
    }
}
