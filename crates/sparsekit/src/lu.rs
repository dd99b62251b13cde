//! Sparse LU factorization: left-looking Gilbert–Peierls with partial
//! pivoting, in an approximate-minimum-degree column order, generic over
//! real and complex scalars.
//!
//! This is the solver the PMTBR cost model assumes: each column is
//! computed with a sparse triangular solve whose nonzero pattern is found
//! by depth-first search, so the work is proportional to the fill-in
//! rather than `n²`, and the column order keeps that fill-in small. It
//! handles the complex shifted systems `(sE − A)x = b` directly — the
//! "immature sparse complex solver" gap this reproduction had to close.

use numkit::{NumError, Scalar};

use crate::ordering::amd_order;
use crate::Csc;

/// Marker for "row not yet pivotal".
const UNSET: usize = usize::MAX;

/// A sparse LU factorization `P·A·Q = L·U`: a fill-reducing column
/// order `Q` (approximate minimum degree on the pattern of `A + Aᵀ`,
/// found in the symbolic phase) and partial pivoting `P`.
///
/// # Examples
///
/// ```
/// use sparsekit::{SparseLu, Triplet};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let mut t = Triplet::new(3, 3);
/// t.push(0, 0, 4.0);
/// t.push(1, 1, 2.0);
/// t.push(2, 2, 1.0);
/// t.push(0, 2, 1.0);
/// let lu = SparseLu::new(&t.to_csc())?;
/// let x = lu.solve(&[5.0, 2.0, 1.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// assert!((x[2] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu<T> {
    n: usize,
    /// L (unit lower, diagonal implicit), columns in pivot order, row
    /// indices in pivot order.
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<T>,
    /// U (upper incl. diagonal stored last per column), columns/rows in
    /// pivot order.
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<T>,
    /// `p[k]` = original row index pivotal at elimination step `k`.
    p: Vec<usize>,
    /// `q[k]` = original column eliminated at step `k`.
    q: Vec<usize>,
    /// Pivot growth `max|U| / max|A|` — a cheap stability monitor.
    growth: f64,
}

/// The 1-norm `‖A‖₁` (maximum column absolute sum) of a sparse matrix.
pub fn one_norm<T: Scalar>(a: &Csc<T>) -> f64 {
    (0..a.ncols())
        .map(|j| a.col(j).1.iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0f64, f64::max)
}

/// Relative residual `‖B − A·X‖_max / (‖A‖₁·‖X‖_max + ‖B‖_max)` of a
/// candidate solution `X` for `A·X = B`.
///
/// Returns `NaN` if any operand is contaminated with NaN; `0.0` for the
/// degenerate all-zero problem.
///
/// # Panics
///
/// Panics on shape mismatches (callers pass matrices produced by
/// [`SparseLu::solve_mat`], which already validated shapes).
pub fn residual_norm<T: Scalar>(a: &Csc<T>, x: &numkit::Mat<T>, b: &numkit::Mat<T>) -> f64 {
    assert_eq!(x.nrows(), a.ncols(), "residual_norm: x rows");
    assert_eq!(b.nrows(), a.nrows(), "residual_norm: b rows");
    assert_eq!(x.ncols(), b.ncols(), "residual_norm: column count");
    let anorm = one_norm(a);
    let mut rmax = 0.0f64;
    let mut xmax = 0.0f64;
    let mut bmax = 0.0f64;
    for j in 0..x.ncols() {
        let xj = x.col(j);
        let ax = a.mul_vec(&xj);
        for i in 0..b.nrows() {
            let r = (b[(i, j)] - ax[i]).abs();
            // NaN propagates: max(NaN) via explicit check below.
            if r.is_nan() {
                return f64::NAN;
            }
            rmax = rmax.max(r);
            bmax = bmax.max(b[(i, j)].abs());
        }
        for v in &xj {
            let m = v.abs();
            if m.is_nan() {
                return f64::NAN;
            }
            xmax = xmax.max(m);
        }
    }
    let denom = anorm * xmax + bmax;
    if denom == 0.0 {
        if rmax == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        rmax / denom
    }
}

/// The infinity-norm `‖A‖_∞ = ‖Aᵀ‖₁` (maximum row absolute sum) of a
/// sparse matrix.
pub fn inf_norm<T: Scalar>(a: &Csc<T>) -> f64 {
    let mut row_sums = vec![0.0f64; a.nrows()];
    for j in 0..a.ncols() {
        let (rows, vals) = a.col(j);
        for (&i, v) in rows.iter().zip(vals) {
            row_sums[i] += v.abs();
        }
    }
    row_sums.into_iter().fold(0.0f64, f64::max)
}

/// `y = Aᵀ·x` (plain transpose, no conjugation) for a CSC matrix: column
/// `j` of `A` is row `j` of `Aᵀ`, so each output entry is one ready-made
/// sparse dot product.
fn transpose_mul_vec<T: Scalar>(a: &Csc<T>, x: &[T]) -> Vec<T> {
    (0..a.ncols())
        .map(|j| {
            let (rows, vals) = a.col(j);
            let mut acc = T::zero();
            for (&i, &v) in rows.iter().zip(vals) {
                acc += v * x[i];
            }
            acc
        })
        .collect()
}

/// Relative residual `‖B − Aᵀ·X‖_max / (‖Aᵀ‖₁·‖X‖_max + ‖B‖_max)` of a
/// candidate solution `X` for the transposed system `Aᵀ·X = B`.
///
/// The transpose counterpart of [`residual_norm`], used to certify
/// observability-side solves that reuse a forward factorization.
///
/// # Panics
///
/// Panics on shape mismatches (callers pass matrices produced by
/// [`SparseLu::solve_mat_transpose`], which already validated shapes).
pub fn residual_norm_transpose<T: Scalar>(
    a: &Csc<T>,
    x: &numkit::Mat<T>,
    b: &numkit::Mat<T>,
) -> f64 {
    assert_eq!(x.nrows(), a.nrows(), "residual_norm_transpose: x rows");
    assert_eq!(b.nrows(), a.ncols(), "residual_norm_transpose: b rows");
    assert_eq!(x.ncols(), b.ncols(), "residual_norm_transpose: column count");
    let anorm = inf_norm(a);
    let mut rmax = 0.0f64;
    let mut xmax = 0.0f64;
    let mut bmax = 0.0f64;
    for j in 0..x.ncols() {
        let xj = x.col(j);
        let atx = transpose_mul_vec(a, &xj);
        for i in 0..b.nrows() {
            let r = (b[(i, j)] - atx[i]).abs();
            if r.is_nan() {
                return f64::NAN;
            }
            rmax = rmax.max(r);
            bmax = bmax.max(b[(i, j)].abs());
        }
        for v in &xj {
            let m = v.abs();
            if m.is_nan() {
                return f64::NAN;
            }
            xmax = xmax.max(m);
        }
    }
    let denom = anorm * xmax + bmax;
    if denom == 0.0 {
        if rmax == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        rmax / denom
    }
}

impl<T: Scalar> SparseLu<T> {
    /// Factors the square CSC matrix `a`, eliminating its columns in
    /// approximate-minimum-degree order.
    ///
    /// # Errors
    ///
    /// - [`NumError::NotSquare`] for rectangular input.
    /// - [`NumError::Singular`] if no usable pivot exists in some column
    ///   (numerically or structurally singular).
    pub fn new(a: &Csc<T>) -> Result<Self, NumError> {
        let mut sp = obs::span("sparse_lu.factor");
        sp.field_u64("n", a.nrows() as u64);
        sp.field_u64("nnz", a.nnz() as u64);
        let lu = Self::new_inner(a)?;
        obs::counters::add(obs::Counter::LuSymbolic, 1);
        obs::counters::add(obs::Counter::LuFactor, 1);
        sp.field_u64("factor_nnz", lu.factor_nnz() as u64);
        sp.field_f64("growth", lu.growth);
        Ok(lu)
    }

    /// The uninstrumented factorization body behind [`SparseLu::new`].
    fn new_inner(a: &Csc<T>) -> Result<Self, NumError> {
        let n = a.nrows();
        if n != a.ncols() {
            return Err(NumError::NotSquare { rows: n, cols: a.ncols() });
        }
        let q = amd_order(n, a.colptr(), a.rowidx());
        // pinv[orig_row] = pivot step, or UNSET.
        let mut pinv = vec![UNSET; n];
        let mut p = Vec::with_capacity(n);

        // L columns during factorization carry ORIGINAL row indices; they
        // are remapped to pivot order at the end.
        let mut l_colptr = vec![0usize];
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<T> = Vec::new();
        let mut u_colptr = vec![0usize];
        let mut u_rows: Vec<usize> = Vec::new();
        let mut u_vals: Vec<T> = Vec::new();

        // Scratch: dense accumulator, visited marks, DFS stacks.
        let mut x = vec![T::zero(); n];
        let mut mark = vec![false; n];
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();
        let mut ucol_scratch: Vec<(usize, T)> = Vec::new();

        for (j, &col) in q.iter().enumerate() {
            let (a_rows, a_vals) = a.col(col);

            // --- Symbolic: reach of pattern(A[:,q[j]]) through the L graph.
            topo.clear();
            for &start in a_rows {
                if mark[start] {
                    continue;
                }
                dfs_stack.push((start, 0));
                mark[start] = true;
                while let Some(&(node, child)) = dfs_stack.last() {
                    let k = pinv[node];
                    let children: &[usize] = if k == UNSET {
                        &[]
                    } else {
                        &l_rows[l_colptr[k]..l_colptr[k + 1]]
                    };
                    if child < children.len() {
                        let c = children[child];
                        let top = dfs_stack.len() - 1;
                        dfs_stack[top].1 += 1;
                        if !mark[c] {
                            mark[c] = true;
                            dfs_stack.push((c, 0));
                        }
                    } else {
                        topo.push(node);
                        dfs_stack.pop();
                    }
                }
            }
            // `topo` is a post-order: dependencies of a node appear AFTER
            // it, so process in reverse for the triangular solve.

            // --- Numeric: sparse solve x = L⁻¹ A[:,q[j]].
            for (&r, &v) in a_rows.iter().zip(a_vals) {
                x[r] = v;
            }
            for &s in topo.iter().rev() {
                let k = pinv[s];
                if k == UNSET {
                    continue;
                }
                let xs = x[s];
                if xs == T::zero() {
                    continue;
                }
                for idx in l_colptr[k]..l_colptr[k + 1] {
                    let r = l_rows[idx];
                    x[r] -= l_vals[idx] * xs;
                }
            }

            // --- Pivot among non-pivotal rows of the pattern.
            let mut piv_row = UNSET;
            let mut piv_mag = 0.0;
            for &s in &topo {
                if pinv[s] == UNSET {
                    let m = x[s].abs();
                    if m > piv_mag {
                        piv_mag = m;
                        piv_row = s;
                    }
                }
            }
            if piv_row == UNSET || piv_mag == 0.0 {
                // Clean scratch before erroring.
                for &s in &topo {
                    x[s] = T::zero();
                    mark[s] = false;
                }
                return Err(NumError::Singular { pivot: col });
            }
            let ujj = x[piv_row];

            // --- Store U column j (pivotal rows, ascending, diagonal
            // last) and L column j. Entries that happen to be numerically
            // zero are KEPT: the stored pattern is the full symbolic
            // reach, so it stays valid for refactorization at a different
            // shift where those cancellations do not occur. Ascending U
            // order lets [`SymbolicLu::refactor`] eliminate column j in
            // topological order without re-running the DFS.
            ucol_scratch.clear();
            for &s in &topo {
                let k = pinv[s];
                if k != UNSET {
                    ucol_scratch.push((k, x[s]));
                }
            }
            ucol_scratch.sort_unstable_by_key(|&(k, _)| k);
            for &(k, v) in &ucol_scratch {
                u_rows.push(k);
                u_vals.push(v);
            }
            u_rows.push(j);
            u_vals.push(ujj);
            u_colptr.push(u_rows.len());

            for &s in &topo {
                if pinv[s] == UNSET && s != piv_row {
                    l_rows.push(s); // original index; remapped below
                    l_vals.push(x[s] / ujj);
                }
            }
            l_colptr.push(l_rows.len());

            pinv[piv_row] = j;
            p.push(piv_row);

            // --- Clear scratch.
            for &s in &topo {
                x[s] = T::zero();
                mark[s] = false;
            }
        }

        // Remap L row indices from original to pivot order.
        for r in l_rows.iter_mut() {
            *r = pinv[*r];
        }
        let growth = pivot_growth_of(a.values(), &u_vals);
        Ok(SparseLu { n, l_colptr, l_rows, l_vals, u_colptr, u_rows, u_vals, p, q, growth })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries in `L` plus `U` (fill-in diagnostics).
    pub fn factor_nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, NumError> {
        let n = self.n;
        if b.len() != n {
            return Err(NumError::ShapeMismatch {
                operation: "sparse lu solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // y = P·b.
        let mut y: Vec<T> = self.p.iter().map(|&r| b[r]).collect();
        // Forward: L·z = y (unit diagonal), column-oriented.
        for k in 0..n {
            let yk = y[k];
            if yk == T::zero() {
                continue;
            }
            for idx in self.l_colptr[k]..self.l_colptr[k + 1] {
                let r = self.l_rows[idx];
                y[r] -= self.l_vals[idx] * yk;
            }
        }
        // Backward: U·x = z, column-oriented (diagonal stored last).
        for k in (0..n).rev() {
            let hi = self.u_colptr[k + 1];
            let lo = self.u_colptr[k];
            let diag = self.u_vals[hi - 1];
            debug_assert_eq!(self.u_rows[hi - 1], k);
            let xk = y[k] / diag;
            y[k] = xk;
            if xk == T::zero() {
                continue;
            }
            for idx in lo..hi - 1 {
                let r = self.u_rows[idx];
                y[r] -= self.u_vals[idx] * xk;
            }
        }
        // x = Q·y.
        let mut x = vec![T::zero(); n];
        for (k, &c) in self.q.iter().enumerate() {
            x[c] = y[k];
        }
        Ok(x)
    }

    /// Solves for several right-hand sides given as columns of a dense
    /// matrix, returning the solutions as columns.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] on a row-count mismatch.
    pub fn solve_mat(&self, b: &numkit::Mat<T>) -> Result<numkit::Mat<T>, NumError> {
        if b.nrows() != self.n {
            return Err(NumError::ShapeMismatch {
                operation: "sparse lu solve_mat",
                left: (self.n, self.n),
                right: b.shape(),
            });
        }
        let mut out = numkit::Mat::zeros(self.n, b.ncols());
        for j in 0..b.ncols() {
            let col = self.solve(&b.col(j))?;
            out.set_col(j, &col);
        }
        Ok(out)
    }

    /// Extracts the symbolic analysis (column order, pivot order and L/U
    /// sparsity patterns) for reuse on other matrices with the same
    /// structure.
    ///
    /// `a` must be the matrix this factorization was computed from; its
    /// structure is recorded so [`SymbolicLu::refactor`] can verify that
    /// later inputs match.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s dimensions disagree with this factorization.
    pub fn symbolic(&self, a: &Csc<T>) -> SymbolicLu {
        assert_eq!(a.nrows(), self.n, "symbolic: row count mismatch");
        assert_eq!(a.ncols(), self.n, "symbolic: column count mismatch");
        let mut pinv = vec![UNSET; self.n];
        for (k, &row) in self.p.iter().enumerate() {
            pinv[row] = k;
        }
        SymbolicLu {
            n: self.n,
            p: self.p.clone(),
            pinv,
            q: self.q.clone(),
            l_colptr: self.l_colptr.clone(),
            l_rows: self.l_rows.clone(),
            u_colptr: self.u_colptr.clone(),
            u_rows: self.u_rows.clone(),
            a_colptr: a.colptr().to_vec(),
            a_rowidx: a.rowidx().to_vec(),
        }
    }

    /// Pivot growth factor `max|U| / max|A|` observed during the
    /// factorization.
    ///
    /// Partial pivoting keeps this modest for almost all matrices; a
    /// large value (≳ 10⁸) flags an unstable elimination — typically a
    /// frozen pivot order reused at a shift where the magnitudes flipped
    /// — and callers should refactor with fresh pivoting.
    pub fn pivot_growth(&self) -> f64 {
        self.growth
    }

    /// Solves `Aᵀ·x = b` (plain transpose, not conjugate).
    ///
    /// With `P·A·Q = L·U` this is `Uᵀ·Lᵀ·P·x = Qᵀ·b`: the column
    /// permutation, a forward sweep with `Uᵀ` (lower triangular, diagonal
    /// stored last per column), a backward sweep with `Lᵀ` (unit upper),
    /// and the inverse row permutation. Needed by the 1-norm condition
    /// estimator, which alternates solves with `A` and `Aᴴ`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve_transpose(&self, b: &[T]) -> Result<Vec<T>, NumError> {
        let n = self.n;
        if b.len() != n {
            return Err(NumError::ShapeMismatch {
                operation: "sparse lu solve_transpose",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward: Uᵀ·w = Qᵀ·b. Column k of U (rows < k ascending,
        // diagonal last) is row k of Uᵀ — a ready-made dot product.
        let mut w: Vec<T> = self.q.iter().map(|&c| b[c]).collect();
        for k in 0..n {
            let lo = self.u_colptr[k];
            let hi = self.u_colptr[k + 1];
            let mut acc = w[k];
            for idx in lo..hi - 1 {
                acc -= self.u_vals[idx] * w[self.u_rows[idx]];
            }
            w[k] = acc / self.u_vals[hi - 1];
        }
        // Backward: Lᵀ·v = w (unit diagonal); column k of L holds rows
        // > k, i.e. row k of Lᵀ.
        for k in (0..n).rev() {
            let mut acc = w[k];
            for idx in self.l_colptr[k]..self.l_colptr[k + 1] {
                acc -= self.l_vals[idx] * w[self.l_rows[idx]];
            }
            w[k] = acc;
        }
        // Undo the row permutation: x = Pᵀ·v.
        let mut x = vec![T::zero(); n];
        for k in 0..n {
            x[self.p[k]] = w[k];
        }
        Ok(x)
    }

    /// Solves `Aᵀ·X = B` for several right-hand sides given as columns,
    /// using [`SparseLu::solve_transpose`] per column.
    ///
    /// This is what lets a *two-sided* sweep reuse one factorization per
    /// shift: the observability samples `(sE − A)⁻ᵀ·Cᵀ` come out of the
    /// same `P·A·Q = L·U` that produced the controllability samples,
    /// instead of factoring the transposed pencil from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] on a row-count mismatch.
    pub fn solve_mat_transpose(&self, b: &numkit::Mat<T>) -> Result<numkit::Mat<T>, NumError> {
        if b.nrows() != self.n {
            return Err(NumError::ShapeMismatch {
                operation: "sparse lu solve_mat_transpose",
                left: (self.n, self.n),
                right: b.shape(),
            });
        }
        let mut out = numkit::Mat::zeros(self.n, b.ncols());
        for j in 0..b.ncols() {
            let col = self.solve_transpose(&b.col(j))?;
            out.set_col(j, &col);
        }
        Ok(out)
    }

    /// One step of iterative refinement for the transposed system:
    /// `x += A⁻ᵀ·(b − Aᵀ·x)` column by column, returning the relative
    /// residual of the refined solution (see [`residual_norm_transpose`]).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] on inconsistent shapes.
    pub fn refine_mat_transpose(
        &self,
        a: &Csc<T>,
        b: &numkit::Mat<T>,
        x: &mut numkit::Mat<T>,
    ) -> Result<f64, NumError> {
        if b.nrows() != self.n || x.nrows() != self.n || b.ncols() != x.ncols() {
            return Err(NumError::ShapeMismatch {
                operation: "sparse lu refine_mat_transpose",
                left: x.shape(),
                right: b.shape(),
            });
        }
        for j in 0..b.ncols() {
            let xj = x.col(j);
            let atx = transpose_mul_vec(a, &xj);
            let r: Vec<T> = (0..self.n).map(|i| b[(i, j)] - atx[i]).collect();
            let dx = self.solve_transpose(&r)?;
            let refined: Vec<T> = xj.iter().zip(&dx).map(|(&xi, &di)| xi + di).collect();
            x.set_col(j, &refined);
        }
        obs::counters::add(obs::Counter::RefineIters, 1);
        Ok(residual_norm_transpose(a, x, b))
    }

    /// Cheap 1-norm reciprocal condition estimate `1 / (‖A‖₁·‖A⁻¹‖₁)`
    /// via Hager's method (the LAPACK `xLACON` iteration): a handful of
    /// solves with `A` and `Aᴴ` against probing vectors.
    ///
    /// `a` must be the matrix this factorization was computed from.
    /// Returns a value in `[0, 1]`; `0.0` signals an effectively
    /// singular or contaminated factorization.
    pub fn rcond1_estimate(&self, a: &Csc<T>) -> f64 {
        let n = self.n;
        if n == 0 {
            return 1.0;
        }
        let anorm = one_norm(a);
        if anorm == 0.0 || !anorm.is_finite() {
            return 0.0;
        }
        // Hager iteration estimating ‖A⁻¹‖₁.
        // numlint:allow(FLOAT02) matrix dimension, far below 2^53, cast exact
        let mut x: Vec<T> = vec![T::from_f64(1.0 / n as f64); n];
        let mut est = 0.0f64;
        let mut last_j = usize::MAX;
        for _ in 0..5 {
            let y = match self.solve(&x) {
                Ok(y) => y,
                Err(_) => return 0.0,
            };
            let y1: f64 = y.iter().map(|v| v.abs()).sum();
            if !y1.is_finite() {
                return 0.0;
            }
            est = est.max(y1);
            // ξ = sign(y) (unit-modulus phase for complex entries).
            let xi: Vec<T> = y
                .iter()
                .map(|&v| {
                    let m = v.abs();
                    if m == 0.0 {
                        T::one()
                    } else {
                        v.scale(1.0 / m)
                    }
                })
                .collect();
            // z = A⁻ᴴ·ξ, via conj(A⁻ᵀ·conj(ξ)).
            let xi_conj: Vec<T> = xi.iter().map(|v| v.conj()).collect();
            let z = match self.solve_transpose(&xi_conj) {
                Ok(z) => z,
                Err(_) => return 0.0,
            };
            let (mut zmax, mut j) = (0.0f64, 0usize);
            for (i, v) in z.iter().enumerate() {
                let m = v.abs();
                if m > zmax {
                    zmax = m;
                    j = i;
                }
            }
            if !zmax.is_finite() || j == last_j {
                break;
            }
            // Convergence test: ‖z‖∞ ≤ zᴴ·x means the gradient no longer
            // improves the estimate.
            let zx: f64 = z.iter().zip(&x).map(|(zi, xi)| (zi.conj() * *xi).re()).sum();
            if zmax <= zx {
                break;
            }
            last_j = j;
            x = vec![T::zero(); n];
            x[j] = T::one();
        }
        if est == 0.0 {
            return 0.0;
        }
        (1.0 / (anorm * est)).clamp(0.0, 1.0)
    }

    /// One step of iterative refinement in place: `x += A⁻¹·(b − A·x)`,
    /// column by column, returning the relative residual of the refined
    /// solution (see [`residual_norm`]).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] on inconsistent shapes.
    pub fn refine_mat(
        &self,
        a: &Csc<T>,
        b: &numkit::Mat<T>,
        x: &mut numkit::Mat<T>,
    ) -> Result<f64, NumError> {
        if b.nrows() != self.n || x.nrows() != self.n || b.ncols() != x.ncols() {
            return Err(NumError::ShapeMismatch {
                operation: "sparse lu refine_mat",
                left: x.shape(),
                right: b.shape(),
            });
        }
        for j in 0..b.ncols() {
            let xj = x.col(j);
            let ax = a.mul_vec(&xj);
            let r: Vec<T> = (0..self.n).map(|i| b[(i, j)] - ax[i]).collect();
            let dx = self.solve(&r)?;
            let refined: Vec<T> = xj.iter().zip(&dx).map(|(&xi, &di)| xi + di).collect();
            x.set_col(j, &refined);
        }
        obs::counters::add(obs::Counter::RefineIters, 1);
        Ok(residual_norm(a, x, b))
    }

    /// Reciprocal condition estimate from the `U` diagonal magnitudes.
    pub fn rcond_estimate(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for k in 0..self.n {
            let d = self.u_vals[self.u_colptr[k + 1] - 1].abs();
            lo = lo.min(d);
            hi = hi.max(d);
        }
        if hi == 0.0 {
            0.0
        } else {
            lo / hi
        }
    }
}

/// Reusable symbolic LU analysis: the column order, the pivot order and
/// the L/U sparsity patterns discovered by one [`SparseLu::new`] run,
/// detached from any numeric values.
///
/// This is the KLU-style refactorization split that makes multipoint
/// sampling cheap: the symbolic work (minimum-degree ordering, DFS
/// reach, pivot search, fill pattern) is done once at the first shift,
/// and every subsequent shifted pencil `s·E − A` — which shares the
/// sparsity structure exactly — is factored by
/// [`refactor`](SymbolicLu::refactor), a numeric-only pass with no
/// ordering, no graph traversal and no pivot search.
///
/// The stored patterns include entries that were numerically zero at the
/// analyzed shift (see [`SparseLu::new`]), so shift-dependent
/// cancellations do not invalidate the reuse.
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    n: usize,
    /// `p[k]` = original row pivotal at step `k`.
    p: Vec<usize>,
    /// `pinv[orig_row]` = pivot step.
    pinv: Vec<usize>,
    /// `q[k]` = original column eliminated at step `k`.
    q: Vec<usize>,
    /// L pattern (unit lower, diag implicit), rows in pivot order.
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    /// U pattern, rows ascending per column with the diagonal last.
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    /// Structure of the analyzed matrix, for input validation.
    a_colptr: Vec<usize>,
    a_rowidx: Vec<usize>,
}

impl SymbolicLu {
    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored pattern entries in `L` plus `U`.
    pub fn pattern_nnz(&self) -> usize {
        self.l_rows.len() + self.u_rows.len()
    }

    /// `true` if `a` has exactly the structure this analysis was
    /// computed for.
    pub fn matches_structure<T: Scalar>(&self, a: &Csc<T>) -> bool {
        a.nrows() == self.n
            && a.ncols() == self.n
            && a.colptr() == &self.a_colptr[..]
            && a.rowidx() == &self.a_rowidx[..]
    }

    /// Numeric-only refactorization: factors `a` along the precomputed
    /// column order, pivot order and fill pattern, skipping all symbolic
    /// work.
    ///
    /// The pivots are NOT re-chosen; if a fixed pivot is exactly zero (or
    /// non-finite) for this particular matrix, [`NumError::Singular`] is
    /// returned and the caller should fall back to a fresh
    /// [`SparseLu::new`].
    ///
    /// # Errors
    ///
    /// - [`NumError::ShapeMismatch`] if `a`'s structure differs from the
    ///   analyzed structure.
    /// - [`NumError::Singular`] if a fixed pivot vanishes.
    pub fn refactor<T: Scalar>(&self, a: &Csc<T>) -> Result<SparseLu<T>, NumError> {
        let mut sp = obs::span("sparse_lu.refactor");
        sp.field_u64("n", self.n as u64);
        let lu = self.refactor_inner(a)?;
        obs::counters::add(obs::Counter::LuFactor, 1);
        sp.field_f64("growth", lu.growth);
        Ok(lu)
    }

    /// The uninstrumented numeric pass behind [`SymbolicLu::refactor`].
    fn refactor_inner<T: Scalar>(&self, a: &Csc<T>) -> Result<SparseLu<T>, NumError> {
        if !self.matches_structure(a) {
            return Err(NumError::ShapeMismatch {
                operation: "sparse lu refactor",
                left: (self.n, self.n),
                right: (a.nrows(), a.ncols()),
            });
        }
        let n = self.n;
        let mut l_vals: Vec<T> = Vec::with_capacity(self.l_rows.len());
        let mut u_vals: Vec<T> = Vec::with_capacity(self.u_rows.len());
        // Dense accumulator indexed by PIVOT position; only pattern
        // positions are ever touched, and they are re-zeroed per column.
        let mut x = vec![T::zero(); n];

        for (j, &col) in self.q.iter().enumerate() {
            // Scatter A[:,q[j]] into pivot coordinates. Every structural
            // entry lies inside the reach pattern, so clearing the
            // pattern below restores x to all-zeros.
            let (a_rows, a_vals) = a.col(col);
            for (&r, &v) in a_rows.iter().zip(a_vals) {
                x[self.pinv[r]] = v;
            }

            let ulo = self.u_colptr[j];
            let uhi = self.u_colptr[j + 1];
            debug_assert!(uhi > ulo && self.u_rows[uhi - 1] == j, "diag stored last");

            // Eliminate with the already-finished columns k < j, in
            // ascending (= topological) order along the stored U pattern.
            for idx in ulo..uhi - 1 {
                let k = self.u_rows[idx];
                let xk = x[k];
                u_vals.push(xk);
                if xk == T::zero() {
                    continue;
                }
                for lidx in self.l_colptr[k]..self.l_colptr[k + 1] {
                    x[self.l_rows[lidx]] -= l_vals[lidx] * xk;
                }
            }

            let ujj = x[j];
            if ujj == T::zero() || !ujj.abs().is_finite() {
                return Err(NumError::Singular { pivot: col });
            }
            u_vals.push(ujj);
            for lidx in self.l_colptr[j]..self.l_colptr[j + 1] {
                l_vals.push(x[self.l_rows[lidx]] / ujj);
            }

            // Clear scratch along the pattern.
            for idx in ulo..uhi {
                x[self.u_rows[idx]] = T::zero();
            }
            for lidx in self.l_colptr[j]..self.l_colptr[j + 1] {
                x[self.l_rows[lidx]] = T::zero();
            }
        }

        let growth = pivot_growth_of(a.values(), &u_vals);
        Ok(SparseLu {
            n,
            l_colptr: self.l_colptr.clone(),
            l_rows: self.l_rows.clone(),
            l_vals,
            u_colptr: self.u_colptr.clone(),
            u_rows: self.u_rows.clone(),
            u_vals,
            p: self.p.clone(),
            q: self.q.clone(),
            growth,
        })
    }
}

/// Pivot growth `max|U| / max|A|` (1.0 for an empty matrix).
fn pivot_growth_of<T: Scalar>(a_vals: &[T], u_vals: &[T]) -> f64 {
    let a_max = a_vals.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
    let u_max = u_vals.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
    if a_max == 0.0 {
        1.0
    } else {
        u_max / a_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplet;
    use numkit::{c64, DMat, Lu};

    /// Deterministic pseudo-random sparse matrix with a dominant diagonal.
    fn random_sparse(n: usize, fill: usize, seed: u64) -> Triplet<f64> {
        let mut t = Triplet::new(n, n);
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            t.push(i, i, 10.0 + (next() % 100) as f64 / 10.0);
            for _ in 0..fill {
                let j = (next() as usize) % n;
                let v = ((next() % 200) as f64 - 100.0) / 50.0;
                t.push(i, j, v);
            }
        }
        t
    }

    #[test]
    fn solve_matches_dense_lu() {
        let t = random_sparse(30, 3, 7);
        let csc = t.to_csc();
        let dense = csc.to_dense();
        let b: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let xs = SparseLu::new(&csc).unwrap().solve(&b).unwrap();
        let xd = Lu::new(dense).unwrap().solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-9, "sparse {s} vs dense {d}");
        }
    }

    #[test]
    fn complex_shifted_system() {
        // (sI - A) x = b with s = j·w: the PMTBR kernel.
        let t = random_sparse(20, 2, 3);
        let a = t.to_csc();
        let s = c64::new(0.0, 2.5);
        let shifted = {
            let mut tz = Triplet::<c64>::new(20, 20);
            for j in 0..20 {
                let (rows, vals) = a.col(j);
                for (&r, &v) in rows.iter().zip(vals) {
                    tz.push(r, j, c64::from_real(-v));
                }
            }
            for i in 0..20 {
                tz.push(i, i, s);
            }
            tz.to_csc()
        };
        let b: Vec<c64> = (0..20).map(|i| c64::new(1.0, i as f64 / 10.0)).collect();
        let x = SparseLu::new(&shifted).unwrap().solve(&b).unwrap();
        // Residual check against the dense operator.
        let dz = shifted.to_dense();
        let ax = dz.mul_vec(&x);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((*axi - *bi).abs() < 1e-9);
        }
    }

    #[test]
    fn permutation_matrix_roundtrip() {
        // A pure permutation requires pivoting to factor at all.
        let mut t = Triplet::new(4, 4);
        t.push(0, 2, 1.0);
        t.push(1, 0, 1.0);
        t.push(2, 3, 1.0);
        t.push(3, 1, 1.0);
        let lu = SparseLu::new(&t.to_csc()).unwrap();
        let b = vec![10.0, 20.0, 30.0, 40.0];
        let x = lu.solve(&b).unwrap();
        let ax = t.to_csc().mul_vec(&x);
        assert_eq!(ax, b);
    }

    /// `jω·C + G` for unit capacitors to ground and unit conductances
    /// along `edges`, with node 0 grounded: an RC network pencil.
    fn rc_pencil(n: usize, edges: &[(usize, usize)]) -> Csc<c64> {
        let g = c64::from_real(1.0);
        let mut t = Triplet::<c64>::new(n, n);
        t.push(0, 0, g);
        for i in 0..n {
            t.push(i, i, c64::new(0.0, 0.7));
        }
        for &(i, j) in edges {
            t.push(i, i, g);
            t.push(j, j, g);
            t.push(i, j, -g);
            t.push(j, i, -g);
        }
        t.to_csc()
    }

    #[test]
    fn ordered_factor_fill_is_bounded() {
        // A chain has no fill in any leaf-first order.
        let chain: Vec<(usize, usize)> = (1..50).map(|i| (i - 1, i)).collect();
        // A row-major 34×34 grid: the natural order fills the whole
        // bandwidth-34 band, about 2·34·n entries.
        let side = 34;
        let mut grid = Vec::new();
        for k in 0..side * side {
            if k % side + 1 < side {
                grid.push((k, k + 1));
            }
            if k + side < side * side {
                grid.push((k, k + side));
            }
        }
        // A heap-numbered binary tree (a clock tree): minimum degree
        // eliminates leaves first, so there is no fill at all; the
        // natural order, root first, fills to 525,309 entries.
        let tree: Vec<(usize, usize)> = (1..1023).map(|k| ((k - 1) / 2, k)).collect();
        for (n, edges) in [(50, chain), (side * side, grid), (1023, tree)] {
            let a = rc_pencil(n, &edges);
            let lu = SparseLu::new(&a).unwrap();
            if n == side * side {
                assert!(lu.factor_nnz() < side * n, "grid fill {}", lu.factor_nnz());
            } else {
                assert_eq!(lu.factor_nnz(), a.nnz(), "n = {n}: fill-in appeared");
            }
            let b: Vec<c64> = (0..n).map(|i| c64::new(1.0, (i % 7) as f64)).collect();
            let ax = a.mul_vec(&lu.solve(&b).unwrap());
            for (axi, bi) in ax.iter().zip(&b) {
                assert!((*axi - *bi).abs() < 1e-10, "n = {n}");
            }
        }
    }

    /// A scrambled complex MNA pencil: a 10-node RC ladder, two voltage
    /// sources and one inductor, whose branch rows have zero diagonals
    /// (sources) or small ones (the inductor), so partial pivoting must
    /// leave the diagonal. Indices go through `i ↦ 5i + 3 mod 13`.
    fn mna_pencil(s: c64) -> Csc<c64> {
        let n = 13;
        let perm = |i: usize| (5 * i + 3) % n;
        let mut t = Triplet::<c64>::new(n, n);
        let mut push = |i: usize, j: usize, v: c64| t.push(perm(i), perm(j), v);
        let (g, c) = (c64::from_real(0.1), 0.1);
        for k in 0..10 {
            push(k, k, s.scale(c));
            if k + 1 < 10 {
                push(k, k, g);
                push(k + 1, k + 1, g);
                push(k, k + 1, -g);
                push(k + 1, k, -g);
            }
        }
        push(9, 9, g);
        for (branch, node) in [(10, 0), (11, 6)] {
            push(node, branch, c64::from_real(1.0));
            push(branch, node, c64::from_real(1.0));
        }
        push(3, 12, c64::from_real(1.0));
        push(7, 12, c64::from_real(-1.0));
        push(12, 3, c64::from_real(1.0));
        push(12, 7, c64::from_real(-1.0));
        push(12, 12, -s.scale(0.05));
        t.to_csc()
    }

    #[test]
    fn ordered_factor_with_off_diagonal_pivots_matches_dense() {
        let close = |x: &[c64], y: &[c64]| {
            let scale = y.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
            x.iter().zip(y).all(|(p, q)| (*p - *q).abs() <= 1e-10 * scale)
        };
        let a = mna_pencil(c64::new(0.2, 1.3));
        let n = a.nrows();
        let lu = SparseLu::new(&a).unwrap();
        assert!(lu.q.iter().enumerate().any(|(k, &c)| c != k), "identity order {:?}", lu.q);
        assert!(lu.p.iter().zip(&lu.q).any(|(r, c)| r != c), "no off-diagonal pivot");
        let dense = Lu::new(a.to_dense()).unwrap();
        let b: Vec<c64> =
            (0..n).map(|i| c64::new((i as f64).sin(), 0.5 - i as f64 / 9.0)).collect();
        assert!(close(&lu.solve(&b).unwrap(), &dense.solve(&b).unwrap()));
        assert!(close(&lu.solve_transpose(&b).unwrap(), &dense.solve_transpose(&b).unwrap()));

        // One refinement step from a drifted solution lands on the dense one.
        let bm = numkit::Mat::from_fn(n, 2, |i, j| c64::new(1.0 + i as f64, j as f64));
        let mut x = lu.solve_mat(&bm).unwrap();
        for i in 0..n {
            x[(i, 1)] = x[(i, 1)].scale(1.0 + 1e-7);
        }
        lu.refine_mat(&a, &bm, &mut x).unwrap();
        let xd = dense.solve_mat(&bm).unwrap();
        for j in 0..2 {
            assert!(close(&x.col(j), &xd.col(j)), "refined column {j}");
        }

        // Hager's estimate finds the exact ‖A⁻¹‖₁ on this small matrix.
        let inv = dense.inverse().unwrap();
        let inv_norm =
            (0..n).map(|j| inv.col(j).iter().map(|v| v.abs()).sum::<f64>()).fold(0.0, f64::max);
        let exact = 1.0 / (one_norm(&a) * inv_norm);
        let est = lu.rcond1_estimate(&a);
        assert!((est - exact).abs() <= 1e-10 * exact, "rcond1 {est} vs {exact}");

        // A refactor at a second shift reuses q and the pivot order.
        let a1 = mna_pencil(c64::new(0.0, 7.0));
        let re = lu.symbolic(&a).refactor(&a1).unwrap();
        assert_eq!(re.q, lu.q);
        assert!(close(&re.solve(&b).unwrap(), &Lu::new(a1.to_dense()).unwrap().solve(&b).unwrap()));
    }

    #[test]
    fn structurally_singular_detected() {
        let mut t = Triplet::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        // Column 2 completely empty.
        assert!(matches!(SparseLu::new(&t.to_csc()), Err(NumError::Singular { .. })));
        // Empty column 1 is eliminated first (lowest degree) and the
        // error names the original column, not the step.
        let mut t = Triplet::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        t.push(0, 2, 1.0);
        t.push(2, 0, 1.0);
        t.push(2, 2, 1.0);
        assert!(matches!(SparseLu::new(&t.to_csc()), Err(NumError::Singular { pivot: 1 })));
    }

    #[test]
    fn numerically_singular_detected() {
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 2.0);
        t.push(0, 1, 2.0);
        t.push(1, 1, 4.0);
        assert!(matches!(SparseLu::new(&t.to_csc()), Err(NumError::Singular { .. })));
    }

    #[test]
    fn solve_mat_multiple_rhs() {
        let t = random_sparse(10, 2, 11);
        let lu = SparseLu::new(&t.to_csc()).unwrap();
        let b = DMat::from_fn(10, 3, |i, j| (i * 3 + j) as f64);
        let x = lu.solve_mat(&b).unwrap();
        let ax = t.to_csc().to_dense().matmul(&x).unwrap();
        assert!((&ax - &b).norm_max() < 1e-9);
    }

    /// Complex shifted pencil s·E − A on a shared structure.
    fn shifted_pencil(n: usize, seed: u64, s: c64) -> Csc<c64> {
        let a = random_sparse(n, 2, seed).to_csc();
        let mut tz = Triplet::<c64>::new(n, n);
        for j in 0..n {
            let (rows, vals) = a.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                tz.push(r, j, c64::from_real(-v));
            }
        }
        for i in 0..n {
            tz.push(i, i, s);
        }
        tz.to_csc()
    }

    #[test]
    fn refactor_matches_fresh_factorization() {
        for seed in [1u64, 5, 9, 42] {
            let s0 = c64::new(0.0, 1.0);
            let a0 = shifted_pencil(25, seed, s0);
            let lu0 = SparseLu::new(&a0).unwrap();
            let sym = lu0.symbolic(&a0);
            for &w in &[0.1, 3.0, 77.0] {
                let ak = shifted_pencil(25, seed, c64::new(0.0, w));
                let re = sym.refactor(&ak).unwrap();
                let fresh = SparseLu::new(&ak).unwrap();
                let b: Vec<c64> =
                    (0..25).map(|i| c64::new((i as f64).cos(), 0.3 * i as f64)).collect();
                let xr = re.solve(&b).unwrap();
                let xf = fresh.solve(&b).unwrap();
                for (r, f) in xr.iter().zip(&xf) {
                    assert!((*r - *f).abs() < 1e-9, "seed {seed} w {w}");
                }
                // The refactorization must itself satisfy A x = b.
                let ax = ak.to_dense().mul_vec(&xr);
                for (axi, bi) in ax.iter().zip(&b) {
                    assert!((*axi - *bi).abs() < 1e-8, "seed {seed} w {w}");
                }
            }
        }
    }

    #[test]
    fn refactor_handles_pivot_magnitude_flip() {
        // At the analyzed shift the (0,0) entry dominates; at the second
        // shift the magnitudes flip so fresh partial pivoting would pick
        // different pivots — refactor must still produce a correct
        // factorization along the frozen pivot order.
        let build = |d0: f64, d1: f64| {
            let mut t = Triplet::new(2, 2);
            t.push(0, 0, d0);
            t.push(1, 0, 1.0);
            t.push(0, 1, 1.0);
            t.push(1, 1, d1);
            t.to_csc()
        };
        let a0 = build(10.0, 0.5);
        let sym = SparseLu::new(&a0).unwrap().symbolic(&a0);
        let a1 = build(0.5, 10.0);
        let re = sym.refactor(&a1).unwrap();
        let x = re.solve(&[1.0, 2.0]).unwrap();
        let ax = a1.mul_vec(&x);
        assert!((ax[0] - 1.0).abs() < 1e-12 && (ax[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn refactor_detects_vanished_pivot_and_shape_mismatch() {
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        let a0 = t.to_csc();
        let sym = SparseLu::new(&a0).unwrap().symbolic(&a0);
        // Same structure, but the second diagonal entry is now zero
        // (built via raw parts — Triplet would drop the exact zero).
        let a1 = Csc::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 0.0]);
        assert!(matches!(sym.refactor(&a1), Err(NumError::Singular { pivot: 1 })));
        // Different structure is rejected outright.
        let mut t2 = Triplet::new(2, 2);
        t2.push(0, 0, 1.0);
        t2.push(1, 0, 1.0);
        t2.push(1, 1, 1.0);
        assert!(matches!(sym.refactor(&t2.to_csc()), Err(NumError::ShapeMismatch { .. })));
    }

    #[test]
    fn refactor_survives_shift_dependent_cancellation() {
        // s·e − a with e = 0 on the off-diagonal and a ≠ 0: at the
        // analyzed shift the off-diagonal is nonzero, and the pattern must
        // keep serving shifts where OTHER entries cancel (s·e = a).
        let build = |s: f64| {
            let (e_d, a_d) = (1.0, -2.0);
            let (e_off, a_off) = (1.0, 2.0); // cancels at s = 2
            Csc::from_raw_parts(
                2,
                2,
                vec![0, 2, 3],
                vec![0, 1, 1],
                vec![s * e_d - a_d, s * e_off - a_off, s * e_d - a_d],
            )
        };
        let a0 = build(1.0);
        let sym = SparseLu::new(&a0).unwrap().symbolic(&a0);
        // At s = 2 the (1,0) entry is exactly zero but structurally present.
        let a1 = build(2.0);
        let re = sym.refactor(&a1).unwrap();
        let x = re.solve(&[4.0, 8.0]).unwrap();
        let ax = a1.mul_vec(&x);
        assert!((ax[0] - 4.0).abs() < 1e-12 && (ax[1] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn zero_pattern_entries_preserved_for_reuse() {
        // Factor a matrix whose elimination produces an exact cancellation
        // and confirm the pattern entry survives (factor_nnz counts it).
        let a = Csc::from_raw_parts(
            2,
            2,
            vec![0, 2, 4],
            vec![0, 1, 0, 1],
            vec![2.0, 1.0, 4.0, 2.0 + 1e-9],
        );
        let lu = SparseLu::new(&a).unwrap();
        // Dense 2×2: L has 1 entry, U has 3 (incl. both diagonals).
        assert_eq!(lu.factor_nnz(), 4);
        let sym = lu.symbolic(&a);
        assert_eq!(sym.pattern_nnz(), 4);
        assert_eq!(sym.dim(), 2);
    }

    #[test]
    fn rcond_reasonable_for_identity() {
        let mut t = Triplet::new(5, 5);
        for i in 0..5 {
            t.push(i, i, 1.0);
        }
        let lu = SparseLu::new(&t.to_csc()).unwrap();
        assert!((lu.rcond_estimate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_solve_matches_dense() {
        let t = random_sparse(25, 3, 13);
        let csc = t.to_csc();
        let lu = SparseLu::new(&csc).unwrap();
        let b: Vec<f64> = (0..25).map(|i| (i as f64 * 0.7).cos()).collect();
        let x = lu.solve_transpose(&b).unwrap();
        // Verify Aᵀ x = b against the dense transpose operator.
        let atx = csc.to_dense().transpose().mul_vec(&x);
        for (l, r) in atx.iter().zip(&b) {
            assert!((l - r).abs() < 1e-9, "{l} vs {r}");
        }
        assert!(lu.solve_transpose(&b[..3]).is_err());
    }

    #[test]
    fn transpose_solve_complex() {
        let a = shifted_pencil(15, 4, c64::new(0.3, 1.7));
        let lu = SparseLu::new(&a).unwrap();
        let b: Vec<c64> = (0..15).map(|i| c64::new(1.0, -(i as f64) / 5.0)).collect();
        let x = lu.solve_transpose(&b).unwrap();
        let atx = a.to_dense().transpose().mul_vec(&x);
        for (l, r) in atx.iter().zip(&b) {
            assert!((*l - *r).abs() < 1e-9);
        }
    }

    #[test]
    fn rcond1_tracks_true_conditioning() {
        // Identity: perfectly conditioned.
        let mut t = Triplet::new(6, 6);
        for i in 0..6 {
            t.push(i, i, 1.0);
        }
        let id = t.to_csc();
        let r_id = SparseLu::new(&id).unwrap().rcond1_estimate(&id);
        assert!(r_id > 0.5, "identity rcond {r_id}");
        // Graded diagonal diag(1, 1e-10): κ₁ = 1e10.
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1e-10);
        let graded = t.to_csc();
        let r = SparseLu::new(&graded).unwrap().rcond1_estimate(&graded);
        assert!(r < 1e-9 && r > 1e-11, "graded rcond {r}");
    }

    #[test]
    fn pivot_growth_modest_with_pivoting_large_when_frozen() {
        let t = random_sparse(30, 3, 21);
        let csc = t.to_csc();
        let lu = SparseLu::new(&csc).unwrap();
        assert!(lu.pivot_growth() < 100.0, "partial pivoting growth {}", lu.pivot_growth());
        // Freeze pivots where the second matrix flips magnitudes hard:
        // the refactorization divides by a tiny frozen pivot.
        let build = |d0: f64| {
            let mut t = Triplet::new(2, 2);
            t.push(0, 0, d0);
            t.push(1, 0, 1.0);
            t.push(0, 1, 1.0);
            t.push(1, 1, 1.0);
            t.to_csc()
        };
        let a0 = build(10.0);
        let sym = SparseLu::new(&a0).unwrap().symbolic(&a0);
        let re = sym.refactor(&build(1e-12)).unwrap();
        assert!(re.pivot_growth() > 1e10, "frozen-pivot growth {}", re.pivot_growth());
    }

    #[test]
    fn residual_norm_flags_contamination() {
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        let a = t.to_csc();
        let b = DMat::from_fn(2, 1, |i, _| i as f64 + 1.0);
        let mut x = b.clone();
        assert!(residual_norm(&a, &x, &b) < 1e-15);
        x[(0, 0)] = f64::NAN;
        assert!(residual_norm(&a, &x, &b).is_nan());
    }

    #[test]
    fn refine_repairs_small_contamination() {
        let t = random_sparse(20, 3, 5);
        let csc = t.to_csc();
        let lu = SparseLu::new(&csc).unwrap();
        let b = DMat::from_fn(20, 1, |i, _| (i as f64).cos());
        let mut x = lu.solve_mat(&b).unwrap();
        // Drift the solution by a relative 1e-6 — one refinement step
        // must pull the residual back near machine precision.
        for i in 0..20 {
            x[(i, 0)] *= 1.0 + 1e-6;
        }
        assert!(residual_norm(&csc, &x, &b) > 1e-9);
        let refined = lu.refine_mat(&csc, &b, &mut x).unwrap();
        assert!(refined < 1e-12, "refined residual {refined}");
    }
}
