//! On-the-fly order control (paper Section V-C).
//!
//! Re-running a full SVD after every new sample is wasteful; the paper
//! points to updatable rank-revealing factorizations (RRQR/UTV) instead.
//! [`IncrementalBasis`] maintains a growing QR factorization of the
//! sample matrix: each new block costs one Gram–Schmidt pass, and the
//! singular values of the small `R` factor (cheap: `m × m` with `m` =
//! samples, not states) equal those of the full sample matrix — giving
//! exact trailing-value estimates without touching the `n × m` matrix
//! again.

use numkit::{singular_values, DMat, NumError};

/// An incrementally updated orthonormal basis with order-control
/// estimates, fed by sample blocks.
///
/// # Examples
///
/// ```
/// use numkit::DMat;
/// use pmtbr::IncrementalBasis;
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let mut basis = IncrementalBasis::new(3);
/// basis.push_block(&DMat::from_rows(&[&[1.0], &[0.0], &[0.0]]))?;
/// basis.push_block(&DMat::from_rows(&[&[1.0], &[1.0], &[0.0]]))?;
/// let s = basis.singular_value_estimates()?;
/// assert_eq!(s.len(), 2);
/// assert!(s[0] > s[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalBasis {
    n: usize,
    /// Orthonormal columns accumulated so far.
    q: Vec<Vec<f64>>,
    /// Rows of the R factor: `r[j]` holds column `j`'s coefficients in
    /// the `q` basis (length = q.len() at insertion time, padded later).
    r_cols: Vec<Vec<f64>>,
}

impl IncrementalBasis {
    /// Creates an empty basis for vectors of dimension `n`.
    pub fn new(n: usize) -> Self {
        IncrementalBasis { n, q: Vec::new(), r_cols: Vec::new() }
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of sample columns absorbed.
    pub fn ncols(&self) -> usize {
        self.r_cols.len()
    }

    /// Current basis rank (orthonormal directions kept).
    pub fn rank(&self) -> usize {
        self.q.len()
    }

    /// Absorbs a block of sample columns (e.g. one frequency point's
    /// realified solve), updating the QR factors.
    ///
    /// # Errors
    ///
    /// [`NumError::ShapeMismatch`] if the block's row count differs from
    /// the basis dimension.
    pub fn push_block(&mut self, block: &DMat) -> Result<(), NumError> {
        if block.nrows() != self.n {
            return Err(NumError::ShapeMismatch {
                operation: "incremental basis block",
                left: (self.n, 0),
                right: block.shape(),
            });
        }
        for j in 0..block.ncols() {
            let mut v = block.col(j);
            let mut coeffs = vec![0.0; self.q.len()];
            // Two Gram–Schmidt passes, accumulating coefficients.
            for _ in 0..2 {
                for (bi, b) in self.q.iter().enumerate() {
                    let proj: f64 = b.iter().zip(&v).map(|(x, y)| x * y).sum();
                    coeffs[bi] += proj;
                    for (vi, bv) in v.iter_mut().zip(b) {
                        *vi -= proj * bv;
                    }
                }
            }
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            let col_norm: f64 = block.col(j).iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-14 * col_norm.max(1e-300) {
                for vi in v.iter_mut() {
                    *vi /= norm;
                }
                self.q.push(v);
                coeffs.push(norm);
            }
            self.r_cols.push(coeffs);
        }
        Ok(())
    }

    /// Singular values of the accumulated sample matrix, computed from
    /// the small `R` factor (`rank × ncols`): identical to the full
    /// matrix's singular values because `Q` is orthonormal.
    ///
    /// # Errors
    ///
    /// Propagates SVD failures.
    pub fn singular_value_estimates(&self) -> Result<Vec<f64>, NumError> {
        if self.r_cols.is_empty() {
            return Ok(Vec::new());
        }
        let k = self.q.len();
        let m = self.r_cols.len();
        let r = DMat::from_fn(k, m, |i, j| self.r_cols[j].get(i).copied().unwrap_or(0.0));
        singular_values(&r)
    }

    /// The orthonormal basis truncated to the `order` dominant
    /// directions of the sample matrix (via the `R`-factor SVD).
    ///
    /// # Errors
    ///
    /// [`NumError::InvalidArgument`] if `order` exceeds the rank.
    pub fn dominant_basis(&self, order: usize) -> Result<DMat, NumError> {
        let k = self.q.len();
        if order > k {
            return Err(NumError::InvalidArgument("order exceeds basis rank"));
        }
        let m = self.r_cols.len();
        let r = DMat::from_fn(k, m, |i, j| self.r_cols[j].get(i).copied().unwrap_or(0.0));
        let f = numkit::svd(&r)?;
        // V = Q · U_r[:, :order].
        let qmat = DMat::from_cols(&self.q);
        qmat.matmul(&f.u.leading_cols(order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numkit::svd;

    fn sample_matrix() -> DMat {
        DMat::from_fn(6, 5, |i, j| {
            ((i * 3 + j * 7) % 11) as f64 / 3.0 - 1.5 + if i == j { 2.0 } else { 0.0 }
        })
    }

    #[test]
    fn estimates_match_full_svd_exactly() {
        let a = sample_matrix();
        let mut basis = IncrementalBasis::new(6);
        basis.push_block(&a.block(0, 6, 0, 2)).unwrap();
        basis.push_block(&a.block(0, 6, 2, 5)).unwrap();
        let inc = basis.singular_value_estimates().unwrap();
        let full = svd(&a).unwrap().s;
        assert_eq!(inc.len(), full.len());
        for (x, y) in inc.iter().zip(&full) {
            assert!((x - y).abs() < 1e-10 * (1.0 + y), "{x} vs {y}");
        }
    }

    #[test]
    fn dominant_basis_spans_svd_subspace() {
        let a = sample_matrix();
        let mut basis = IncrementalBasis::new(6);
        basis.push_block(&a).unwrap();
        let v = basis.dominant_basis(2).unwrap();
        let u = svd(&a).unwrap().u.leading_cols(2);
        let angle = numkit::max_principal_angle(&v, &u).unwrap();
        assert!(angle < 1e-7, "angle {angle}");
    }

    #[test]
    fn dependent_columns_do_not_grow_rank() {
        let mut basis = IncrementalBasis::new(4);
        let b1 = DMat::from_cols(&[vec![1.0, 1.0, 0.0, 0.0]]);
        let b2 = DMat::from_cols(&[vec![2.0, 2.0, 0.0, 0.0]]); // dependent
        basis.push_block(&b1).unwrap();
        basis.push_block(&b2).unwrap();
        assert_eq!(basis.rank(), 1);
        assert_eq!(basis.ncols(), 2);
        // Singular values still reflect both columns: ‖[v, 2v]‖.
        let s = basis.singular_value_estimates().unwrap();
        let expect = (2.0f64 + 8.0).sqrt(); // sqrt(|v|² + |2v|²), |v|² = 2
        assert!((s[0] - expect).abs() < 1e-10);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut basis = IncrementalBasis::new(3);
        assert!(basis.push_block(&DMat::zeros(4, 1)).is_err());
    }
}
