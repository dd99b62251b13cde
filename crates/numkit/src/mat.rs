//! Dense row-major matrices generic over [`Scalar`].

use crate::{c64, NumError, Scalar};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major matrix of [`Scalar`] entries.
///
/// Use the aliases [`DMat`](crate::DMat) (`Mat<f64>`) and
/// [`ZMat`](crate::ZMat) (`Mat<c64>`) in signatures.
///
/// # Examples
///
/// ```
/// use numkit::Mat;
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let x = vec![1.0, 1.0];
/// assert_eq!(a.mul_vec(&x), vec![3.0, 7.0]);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat<T> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

/// Dense real matrix.
pub type DMat = Mat<f64>;
/// Dense complex matrix.
pub type ZMat = Mat<c64>;

impl<T: Scalar> Mat<T> {
    /// Creates an `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Mat { nrows, ncols, data: vec![T::zero(); nrows * ncols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        Mat { nrows, ncols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Mat { nrows, ncols, data }
    }

    /// Creates a square matrix with `diag` on the diagonal.
    pub fn from_diag(diag: &[T]) -> Self {
        let n = diag.len();
        let mut m = Mat::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a matrix whose columns are the given vectors.
    ///
    /// # Panics
    ///
    /// Panics if the columns have unequal lengths.
    pub fn from_cols(cols: &[Vec<T>]) -> Self {
        let ncols = cols.len();
        let nrows = cols.first().map_or(0, |c| c.len());
        let mut m = Mat::zeros(nrows, ncols);
        for (j, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), nrows, "from_cols: ragged columns");
            for (i, &v) in c.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Borrows the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.nrows, "row index out of bounds");
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Row `i` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        assert!(i < self.nrows, "row index out of bounds");
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols`.
    pub fn col(&self, j: usize) -> Vec<T> {
        assert!(j < self.ncols, "column index out of bounds");
        (0..self.nrows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrites column `j` with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols` or `v.len() != nrows`.
    pub fn set_col(&mut self, j: usize, v: &[T]) {
        assert!(j < self.ncols, "column index out of bounds");
        assert_eq!(v.len(), self.nrows, "set_col: length mismatch");
        for (i, &x) in v.iter().enumerate() {
            self[(i, j)] = x;
        }
    }

    /// Transpose (without conjugation).
    pub fn transpose(&self) -> Mat<T> {
        Mat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose `Aᴴ` (equal to the transpose for real matrices).
    pub fn adjoint(&self) -> Mat<T> {
        Mat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj())
    }

    /// Matrix product `self · rhs`.
    ///
    /// Cache-blocked ikj loop over the row-major layout: `rhs` is
    /// consumed in `KB × JB` tiles that stay resident across the rows of
    /// `self`, while the inner loop streams contiguous row segments of
    /// `rhs` and `out`. For each output entry the `k`-summation order is
    /// ascending regardless of tiling, so the result is bit-for-bit
    /// identical to the naive triple loop.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] if inner dimensions differ.
    pub fn matmul(&self, rhs: &Mat<T>) -> Result<Mat<T>, NumError> {
        if self.ncols != rhs.nrows {
            return Err(NumError::ShapeMismatch {
                operation: "matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        // Tile sizes: KB·JB·sizeof(T) ≈ 64 KiB for f64 tiles (half that
        // budget in L1/L2 for c64), plus the matching out-row segments.
        const KB: usize = 64;
        const JB: usize = 128;
        let (m, kk, n) = (self.nrows, self.ncols, rhs.ncols);
        let mut out = Mat::zeros(m, n);
        for j0 in (0..n).step_by(JB) {
            let j1 = (j0 + JB).min(n);
            for k0 in (0..kk).step_by(KB) {
                let k1 = (k0 + KB).min(kk);
                for i in 0..m {
                    let arow = &self.data[i * kk..(i + 1) * kk];
                    let orow = &mut out.data[i * n + j0..i * n + j1];
                    for k in k0..k1 {
                        let aik = arow[k];
                        if aik == T::zero() {
                            continue;
                        }
                        let rrow = &rhs.data[k * n + j0..k * n + j1];
                        for (o, &r) in orow.iter_mut().zip(rrow) {
                            *o += aik * r;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.ncols, "mul_vec: length mismatch");
        (0..self.nrows)
            .map(|i| {
                let row = self.row(i);
                let mut acc = T::zero();
                for (&a, &b) in row.iter().zip(x) {
                    acc += a * b;
                }
                acc
            })
            .collect()
    }

    /// Entry-wise scaling by a real factor.
    pub fn scale(&self, k: f64) -> Mat<T> {
        let mut out = self.clone();
        for v in out.data.iter_mut() {
            *v = v.scale(k);
        }
        out
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v.abs_sq()).sum::<f64>().sqrt()
    }

    /// Largest entry modulus (max norm).
    pub fn norm_max(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Copies the block with rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges exceed the matrix dimensions.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Mat<T> {
        assert!(r1 <= self.nrows && c1 <= self.ncols && r0 <= r1 && c0 <= c1);
        Mat::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Returns the first `k` columns as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `k > ncols`.
    pub fn leading_cols(&self, k: usize) -> Mat<T> {
        self.block(0, self.nrows, 0, k)
    }

    /// Horizontal concatenation `[self | rhs]`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] if row counts differ.
    pub fn hstack(&self, rhs: &Mat<T>) -> Result<Mat<T>, NumError> {
        if self.nrows != rhs.nrows {
            return Err(NumError::ShapeMismatch {
                operation: "hstack",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        Ok(Mat::from_fn(self.nrows, self.ncols + rhs.ncols, |i, j| {
            if j < self.ncols {
                self[(i, j)]
            } else {
                rhs[(i, j - self.ncols)]
            }
        }))
    }

    /// Copies the diagonal.
    pub fn diag(&self) -> Vec<T> {
        (0..self.nrows.min(self.ncols)).map(|i| self[(i, i)]).collect()
    }

    /// Symmetrizes in place: `A ← (A + Aᴴ)/2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                let v = (self[(i, j)] + self[(j, i)].conj()).scale(0.5);
                self[(i, j)] = v;
                self[(j, i)] = v.conj();
            }
            let d = self[(i, i)];
            self[(i, i)] = T::from_f64(d.re());
        }
    }
}

impl DMat {
    /// Promotes a real matrix to a complex one.
    pub fn to_complex(&self) -> ZMat {
        ZMat::from_fn(self.nrows, self.ncols, |i, j| c64::from_real(self[(i, j)]))
    }
}

impl ZMat {
    /// Real parts.
    pub fn real(&self) -> DMat {
        DMat::from_fn(self.nrows, self.ncols, |i, j| self[(i, j)].re)
    }

    /// Imaginary parts.
    pub fn imag(&self) -> DMat {
        DMat::from_fn(self.nrows, self.ncols, |i, j| self[(i, j)].im)
    }
}

impl<T: Scalar> Index<(usize, usize)> for Mat<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.nrows && j < self.ncols, "matrix index out of bounds");
        &self.data[i * self.ncols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Mat<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.nrows && j < self.ncols, "matrix index out of bounds");
        &mut self.data[i * self.ncols + j]
    }
}

impl<T: Scalar> Add for &Mat<T> {
    type Output = Mat<T>;
    fn add(self, rhs: &Mat<T>) -> Mat<T> {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        let mut out = self.clone();
        for (o, &r) in out.data.iter_mut().zip(&rhs.data) {
            *o += r;
        }
        out
    }
}

impl<T: Scalar> Sub for &Mat<T> {
    type Output = Mat<T>;
    fn sub(self, rhs: &Mat<T>) -> Mat<T> {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        let mut out = self.clone();
        for (o, &r) in out.data.iter_mut().zip(&rhs.data) {
            *o -= r;
        }
        out
    }
}

impl<T: Scalar> Neg for &Mat<T> {
    type Output = Mat<T>;
    fn neg(self) -> Mat<T> {
        let mut out = self.clone();
        for v in out.data.iter_mut() {
            *v = -*v;
        }
        out
    }
}

impl<T: Scalar> Mul for &Mat<T> {
    type Output = Mat<T>;
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch; use [`Mat::matmul`] for a
    /// fallible variant.
    #[allow(clippy::expect_used)] // operator impls cannot return Result
    fn mul(self, rhs: &Mat<T>) -> Mat<T> {
        // numlint:allow(PANIC01) Mul cannot return Result; panic contract documented above, fallible callers use matmul()
        self.matmul(rhs).expect("matrix product dimension mismatch")
    }
}

impl<T: fmt::Debug> fmt::Debug for Mat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.nrows, self.ncols)?;
        let max_show = 8;
        for i in 0..self.nrows.min(max_show) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(max_show) {
                write!(f, "{:?} ", self.data[i * self.ncols + j])?;
            }
            if self.ncols > max_show {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.nrows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let a = DMat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.shape(), (2, 3));
        assert_eq!(a[(1, 2)], 6.0);
        assert_eq!(a.col(1), vec![2.0, 5.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = DMat::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn matmul_known_product() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DMat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, DMat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_error() {
        let a = DMat::zeros(2, 3);
        let b = DMat::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(NumError::ShapeMismatch { .. })));
    }

    #[test]
    fn adjoint_conjugates() {
        let a = ZMat::from_fn(1, 2, |_, j| c64::new(j as f64, 1.0));
        let ah = a.adjoint();
        assert_eq!(ah.shape(), (2, 1));
        assert_eq!(ah[(0, 0)], c64::new(0.0, -1.0));
        assert_eq!(ah[(1, 0)], c64::new(1.0, -1.0));
    }

    #[test]
    fn hstack_vstack() {
        let a = DMat::identity(2);
        let b = DMat::zeros(2, 1);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (2, 3));
    }

    #[test]
    fn block_extracts_submatrix() {
        let a = DMat::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let b = a.block(1, 3, 2, 4);
        assert_eq!(b, DMat::from_rows(&[&[6.0, 7.0], &[10.0, 11.0]]));
    }

    #[test]
    fn symmetrize_produces_hermitian() {
        let mut a = ZMat::from_fn(3, 3, |i, j| c64::new((i + 2 * j) as f64, (i as f64) - (j as f64)));
        a.symmetrize();
        for i in 0..3 {
            for j in 0..3 {
                assert!((a[(i, j)] - a[(j, i)].conj()).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn norms() {
        let a = DMat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(a.norm_max(), 4.0);
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let x = vec![5.0, 6.0];
        assert_eq!(a.mul_vec(&x), vec![17.0, 39.0]);
    }

    #[test]
    fn complex_real_imag_roundtrip() {
        let a = DMat::from_rows(&[&[1.0, -2.0]]);
        let z = a.to_complex();
        assert_eq!(z.real(), a);
        assert_eq!(z.imag(), DMat::zeros(1, 2));
    }

    /// Naive ijk product — the reference the tiled kernel must match
    /// exactly (same ascending-k accumulation order per output entry).
    fn naive_matmul<T: crate::Scalar>(a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
        let mut out = Mat::zeros(a.nrows(), b.ncols());
        for i in 0..a.nrows() {
            for j in 0..b.ncols() {
                let mut acc = T::zero();
                for k in 0..a.ncols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    #[test]
    fn tiled_matmul_bitwise_matches_naive_rectangular() {
        // Dimensions straddle the tile sizes (64/128) in every direction.
        let mut rng = crate::SplitMix64::new(99);
        for &(m, k, n) in &[(3, 5, 2), (65, 130, 7), (70, 63, 129), (1, 200, 1)] {
            let a = DMat::from_fn(m, k, |_, _| rng.next_range(-1.0, 1.0));
            let b = DMat::from_fn(k, n, |_, _| rng.next_range(-1.0, 1.0));
            let tiled = a.matmul(&b).unwrap();
            let naive = naive_matmul(&a, &b);
            assert_eq!(tiled, naive, "({m},{k},{n}) not bitwise equal");
        }
    }

    #[test]
    fn tiled_matmul_bitwise_matches_naive_complex() {
        let mut rng = crate::SplitMix64::new(17);
        let a = ZMat::from_fn(40, 90, |_, _| {
            c64::new(rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0))
        });
        let b = ZMat::from_fn(90, 33, |_, _| {
            c64::new(rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0))
        });
        assert_eq!(a.matmul(&b).unwrap(), naive_matmul(&a, &b));
    }

    #[test]
    fn tiled_matmul_shape_error_and_identity() {
        let a = DMat::from_fn(130, 150, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let id = DMat::identity(150);
        assert_eq!(a.matmul(&id).unwrap(), a);
        assert!(a.matmul(&DMat::zeros(3, 3)).is_err());
    }
}
