//! Compressed sparse column (CSC) matrices — the input format for the
//! left-looking sparse LU factorization.

use numkit::{Mat, Scalar};

/// A compressed sparse column matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc<T> {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> Csc<T> {
    /// Builds from entries sorted column-major with no duplicates.
    ///
    /// Intended for use by [`Triplet`](crate::Triplet).
    pub fn from_sorted_entries(
        nrows: usize,
        ncols: usize,
        entries: Vec<(usize, usize, T)>,
    ) -> Self {
        let mut colptr = vec![0usize; ncols + 1];
        let mut rowidx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for &(_, c, _) in &entries {
            debug_assert!(c < ncols);
            colptr[c + 1] += 1;
        }
        for j in 0..ncols {
            colptr[j + 1] += colptr[j];
        }
        for (r, _, v) in entries {
            debug_assert!(r < nrows);
            rowidx.push(r);
            values.push(v);
        }
        Csc { nrows, ncols, colptr, rowidx, values }
    }

    /// Builds directly from compressed parts: `colptr` of length
    /// `ncols + 1`, and per-column row indices sorted ascending with no
    /// duplicates. This is the fast path for callers that assemble many
    /// matrices sharing one precomputed sparsity pattern (e.g. shifted
    /// pencils `s·E − A`).
    ///
    /// # Panics
    ///
    /// Panics if the arrays are structurally inconsistent.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<usize>,
        values: Vec<T>,
    ) -> Self {
        assert_eq!(colptr.len(), ncols + 1, "colptr length");
        assert_eq!(colptr[ncols], rowidx.len(), "colptr tail");
        assert_eq!(rowidx.len(), values.len(), "rowidx/values length");
        debug_assert!(colptr.windows(2).all(|w| w[0] <= w[1]), "colptr monotone");
        debug_assert!(rowidx.iter().all(|&r| r < nrows), "row index bound");
        Csc { nrows, ncols, colptr, rowidx, values }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row indices and values of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols`.
    pub fn col(&self, j: usize) -> (&[usize], &[T]) {
        assert!(j < self.ncols, "column index out of bounds");
        let lo = self.colptr[j];
        let hi = self.colptr[j + 1];
        (&self.rowidx[lo..hi], &self.values[lo..hi])
    }

    /// Dense copy.
    pub fn to_dense(&self) -> Mat<T> {
        let mut m = Mat::zeros(self.nrows, self.ncols);
        for j in 0..self.ncols {
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                m[(r, j)] = v;
            }
        }
        m
    }

    /// `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.ncols, "mul_vec: length mismatch");
        let mut y = vec![T::zero(); self.nrows];
        for j in 0..self.ncols {
            let xj = x[j];
            if xj == T::zero() {
                continue;
            }
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                y[r] += v * xj;
            }
        }
        y
    }

    /// The column pointer array (length `ncols + 1`).
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// The row indices of all stored entries, column-major.
    pub fn rowidx(&self) -> &[usize] {
        &self.rowidx
    }

    /// The stored values, column-major.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Maps every stored value (structure-preserving).
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> Csc<U> {
        Csc {
            nrows: self.nrows,
            ncols: self.ncols,
            colptr: self.colptr.clone(),
            rowidx: self.rowidx.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Triplet;

    #[test]
    fn csc_matches_csr_dense() {
        let mut t = Triplet::new(3, 3);
        t.push(0, 1, 2.0);
        t.push(2, 0, -1.0);
        t.push(1, 1, 4.0);
        t.push(2, 2, 7.0);
        let csc = t.to_csc();
        let csr = t.to_csr();
        assert_eq!(csc.to_dense(), csr.to_dense());
        assert_eq!(csc.nnz(), 4);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let mut t = Triplet::new(2, 3);
        t.push(0, 0, 1.0);
        t.push(1, 2, 3.0);
        let csc = t.to_csc();
        let x = vec![2.0, 5.0, -1.0];
        assert_eq!(csc.mul_vec(&x), csc.to_dense().mul_vec(&x));
    }
}
