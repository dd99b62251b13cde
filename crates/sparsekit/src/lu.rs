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
    relative_residual(one_norm(a), x, b, |xj| a.mul_vec(xj))
}

/// `‖B − op(X)‖_max / (anorm·‖X‖_max + ‖B‖_max)`, column by column, or
/// `NaN` as soon as a residual or solution modulus is NaN: the body of
/// [`residual_norm`] and [`residual_norm_transpose`].
fn relative_residual<T: Scalar>(
    anorm: f64,
    x: &numkit::Mat<T>,
    b: &numkit::Mat<T>,
    op: impl Fn(&[T]) -> Vec<T>,
) -> f64 {
    let mut rmax = 0.0f64;
    let mut xmax = 0.0f64;
    let mut bmax = 0.0f64;
    for j in 0..x.ncols() {
        let xj = x.col(j);
        let opx = op(&xj);
        let r = max_modulus((0..b.nrows()).map(|i| (i, b[(i, j)] - opx[i])));
        let xm = max_modulus(xj.iter().copied().enumerate());
        if r.nan || xm.nan {
            return f64::NAN;
        }
        rmax = rmax.max(r.max);
        bmax = bmax.max(max_modulus((0..b.nrows()).map(|i| (i, b[(i, j)]))).max);
        xmax = xmax.max(xm.max);
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
    relative_residual(inf_norm(a), x, b, |xj| transpose_mul_vec(a, xj))
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
        let mut dfs_stack: Vec<(usize, usize, usize)> = Vec::new();
        let mut ucol_scratch: Vec<(usize, T)> = Vec::new();

        for (j, &col) in q.iter().enumerate() {
            let (a_rows, a_vals) = a.col(col);

            // --- Symbolic: reach of pattern(A[:,q[j]]) through the L graph.
            // A stack entry `(node, next, end)` walks the node's L column
            // `l_rows[next..end]` (empty for a row not yet pivotal).
            let children = |node: usize| match pinv[node] {
                UNSET => (0, 0),
                k => (l_colptr[k], l_colptr[k + 1]),
            };
            topo.clear();
            for &start in a_rows {
                if mark[start] {
                    continue;
                }
                let (lo, hi) = children(start);
                dfs_stack.push((start, lo, hi));
                mark[start] = true;
                while let Some(top) = dfs_stack.last_mut() {
                    if top.1 < top.2 {
                        let c = l_rows[top.1];
                        top.1 += 1;
                        if !mark[c] {
                            mark[c] = true;
                            let (lo, hi) = children(c);
                            dfs_stack.push((c, lo, hi));
                        }
                    } else {
                        topo.push(top.0);
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

            // --- Pivot among non-pivotal rows of the pattern: the first
            // of largest modulus in `topo` order.
            let candidates = topo.iter().filter(|&&s| pinv[s] == UNSET).map(|&s| (s, x[s]));
            let Some(piv_row) = max_modulus(candidates).key else {
                // Clean scratch before erroring.
                for &s in &topo {
                    x[s] = T::zero();
                    mark[s] = false;
                }
                return Err(NumError::Singular { pivot: col });
            };
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
            let top = max_modulus(z.iter().copied().enumerate());
            let (zmax, j) = (top.max, top.key.unwrap_or(0));
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
            if ujj == T::zero() || !modulus_is_finite(ujj) {
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
    let a_max = max_modulus(a_vals.iter().copied().enumerate()).max;
    let u_max = max_modulus(u_vals.iter().copied().enumerate()).max;
    if a_max == 0.0 {
        1.0
    } else {
        u_max / a_max
    }
}

/// The outcome of [`max_modulus`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct MaxModulus<K> {
    /// Key of the first entry of largest modulus; `None` when no
    /// modulus exceeds zero.
    key: Option<K>,
    /// The largest modulus (`0.0` when none exceeds zero). NaN moduli
    /// are skipped.
    max: f64,
    /// Whether some modulus was NaN.
    nan: bool,
}

/// Relative margin below the largest squared modulus inside which
/// entries are re-ranked by their exact modulus: 32 ε, far above the
/// few-ulp disagreement between `|z|²` rounded and `hypot` rounded.
const RERANK_MARGIN: f64 = 32.0 * f64::EPSILON;

/// Range of the largest squared modulus in which squares keep full
/// relative precision (no overflow above, no subnormal loss below).
const SQ_RANGE: std::ops::RangeInclusive<f64> = 1e-280..=1e280;

/// The largest modulus `|v|` among `items` (`hypot` for complex values)
/// and the key of its first occurrence, exactly as a left-to-right
/// `if |v| > best` scan from `best = 0` finds them.
///
/// A complex modulus is a `hypot` call, so the scan first ranks entries
/// by their squared modulus, which needs no square root, and takes the
/// exact modulus only of the entries within [`RERANK_MARGIN`] of the
/// largest square: every other entry's modulus is strictly smaller than
/// that entry's, so it can neither win nor tie. When a squared modulus
/// is not finite (NaN, infinity or overflow), or the largest lies
/// outside [`SQ_RANGE`], the scan takes every modulus, so NaN and
/// infinite entries are treated exactly as before.
fn max_modulus<K: Copy, T: Scalar>(items: impl Iterator<Item = (K, T)> + Clone) -> MaxModulus<K> {
    if !T::IS_COMPLEX {
        return modulus_scan(items);
    }
    let mut sq_max = 0.0f64;
    for (_, v) in items.clone() {
        let sq = v.abs_sq();
        // `!(sq <= MAX)` is also true for NaN.
        if !(sq <= f64::MAX) {
            return modulus_scan(items);
        }
        sq_max = sq_max.max(sq);
    }
    if !SQ_RANGE.contains(&sq_max) {
        return modulus_scan(items);
    }
    let floor = sq_max * (1.0 - RERANK_MARGIN);
    modulus_scan(items.filter(|(_, v)| v.abs_sq() >= floor))
}

/// The plain `if |v| > best` scan behind [`max_modulus`].
fn modulus_scan<K: Copy, T: Scalar>(items: impl Iterator<Item = (K, T)>) -> MaxModulus<K> {
    let mut best = MaxModulus { key: None, max: 0.0, nan: false };
    for (k, v) in items {
        let m = v.abs();
        best.nan |= m.is_nan();
        if m > best.max {
            best.key = Some(k);
            best.max = m;
        }
    }
    best
}

/// `true` when `|v|` is finite, taking `hypot` only for an entry whose
/// squared modulus is not finite (a finite square has a finite root).
fn modulus_is_finite<T: Scalar>(v: T) -> bool {
    v.abs_sq().is_finite() || v.abs().is_finite()
}

/// Test-only references for the fresh factorization's kernels, kept as
/// they were before the indexed AMD heap, the range-carrying DFS stack
/// and the squared-modulus maxima: a lazy-deletion `BinaryHeap` AMD, a
/// DFS that re-derives each node's L column on every edge, and
/// `hypot`-per-entry maxima. The tests assert that the production
/// kernels reproduce them bit for bit — the column order, every L/U
/// value, the pivot order and the pivot growth — on seeded matrices
/// that include exact modulus ties, moduli one ulp apart, magnitudes
/// near the limits of squaring, and NaN and infinite entries.
#[cfg(test)]
mod reference {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use numkit::{c64, Mat, NumError, Scalar, SplitMix64};

    use super::{
        inf_norm, max_modulus, modulus_is_finite, one_norm, residual_norm, residual_norm_transpose,
        transpose_mul_vec, SparseLu, UNSET,
    };
    use crate::{Csc, Triplet};

    /// Approximate minimum degree with a lazy-deletion heap: stale entries
    /// (degree changed, or variable eliminated) are skipped on pop.
    fn amd_order_lazy(n: usize, colptr: &[usize], rowidx: &[usize]) -> Vec<usize> {
        let mut adj_start = vec![0usize; n + 1];
        let offdiag = || {
            (0..n).flat_map(move |j| rowidx[colptr[j]..colptr[j + 1]].iter().map(move |&i| (i, j)))
        };
        for (i, j) in offdiag().filter(|&(i, j)| i != j) {
            adj_start[i + 1] += 1;
            adj_start[j + 1] += 1;
        }
        for i in 0..n {
            adj_start[i + 1] += adj_start[i];
        }
        let mut adj = vec![0usize; adj_start[n]];
        let mut adj_len = vec![0usize; n];
        for (i, j) in offdiag().filter(|&(i, j)| i != j) {
            adj[adj_start[i] + adj_len[i]] = j;
            adj_len[i] += 1;
            adj[adj_start[j] + adj_len[j]] = i;
            adj_len[j] += 1;
        }
        let mut mark = vec![usize::MAX; n];
        for i in 0..n {
            let s = adj_start[i];
            let mut len = 0;
            for k in s..s + adj_len[i] {
                let v = adj[k];
                if mark[v] != i {
                    mark[v] = i;
                    adj[s + len] = v;
                    len += 1;
                }
            }
            adj_len[i] = len;
        }
        let mut degree = adj_len.clone();
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
            (0..n).map(|i| Reverse((degree[i], i))).collect();
        let mut elem: Vec<usize> = Vec::with_capacity(adj.len() + n);
        let (mut elem_start, mut elem_len) = (vec![0usize; n], vec![0usize; n]);
        let mut vel: Vec<usize> = Vec::with_capacity(adj.len() + n);
        let (mut vel_start, mut vel_len) = (vec![0usize; n], vec![0usize; n]);
        let (mut w, mut w_tag) = (vec![0usize; n], vec![usize::MAX; n]);
        let mut order = Vec::with_capacity(n);

        while let Some(Reverse((d, p))) = heap.pop() {
            if d != degree[p] {
                continue;
            }
            let step = order.len();
            let tag = n + step;
            order.push(p);
            degree[p] = usize::MAX;
            mark[p] = tag;
            let lp_start = elem.len();
            for k in adj_start[p]..adj_start[p] + adj_len[p] {
                let v = adj[k];
                if mark[v] != tag {
                    mark[v] = tag;
                    elem.push(v);
                }
            }
            for k in vel_start[p]..vel_start[p] + vel_len[p] {
                let e = vel[k];
                for m in elem_start[e]..elem_start[e] + elem_len[e] {
                    let v = elem[m];
                    if mark[v] != tag {
                        mark[v] = tag;
                        elem.push(v);
                    }
                }
                (w_tag[e], w[e]) = (tag, 0);
            }
            let lp_len = elem.len() - lp_start;
            (elem_start[p], elem_len[p]) = (lp_start, lp_len);
            for k in lp_start..lp_start + lp_len {
                let i = elem[k];
                for m in vel_start[i]..vel_start[i] + vel_len[i] {
                    let e = vel[m];
                    if w_tag[e] != tag {
                        (w_tag[e], w[e]) = (tag, elem_len[e]);
                    }
                    w[e] = w[e].saturating_sub(1);
                }
            }
            let live = n - step - 1;
            for k in lp_start..lp_start + lp_len {
                let i = elem[k];
                let start = vel.len();
                let mut external = 0;
                for m in vel_start[i]..vel_start[i] + vel_len[i] {
                    let e = vel[m];
                    if w[e] > 0 {
                        external += w[e];
                        vel.push(e);
                    }
                }
                vel.push(p);
                (vel_start[i], vel_len[i]) = (start, vel.len() - start);
                let s = adj_start[i];
                let mut len = 0;
                for m in s..s + adj_len[i] {
                    let v = adj[m];
                    if mark[v] != tag {
                        adj[s + len] = v;
                        len += 1;
                    }
                }
                adj_len[i] = len;
                let d = (len + lp_len - 1 + external).min(degree[i] + lp_len - 1).min(live - 1);
                if d != degree[i] {
                    degree[i] = d;
                    heap.push(Reverse((d, i)));
                }
            }
        }
        order
    }

    /// `max|v|` by one `hypot` per entry.
    fn hypot_fold<T: Scalar>(vals: &[T]) -> f64 {
        vals.iter().map(|v| v.abs()).fold(0.0f64, f64::max)
    }

    /// The first strict maximum of `|v|` from `best = 0`, one `hypot` per
    /// entry: `(index, modulus, saw NaN)`.
    fn hypot_scan<T: Scalar>(vals: &[T]) -> (Option<usize>, f64, bool) {
        let (mut key, mut max, mut nan) = (None, 0.0f64, false);
        for (i, v) in vals.iter().enumerate() {
            let m = v.abs();
            nan |= m.is_nan();
            if m > max {
                key = Some(i);
                max = m;
            }
        }
        (key, max, nan)
    }

    /// The fresh factorization with the reference AMD, DFS, pivot search and
    /// pivot growth.
    fn factor_reference<T: Scalar>(a: &Csc<T>) -> Result<SparseLu<T>, NumError> {
        let n = a.nrows();
        if n != a.ncols() {
            return Err(NumError::NotSquare { rows: n, cols: a.ncols() });
        }
        let q = amd_order_lazy(n, a.colptr(), a.rowidx());
        let mut pinv = vec![UNSET; n];
        let mut p = Vec::with_capacity(n);
        let mut l_colptr = vec![0usize];
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<T> = Vec::new();
        let mut u_colptr = vec![0usize];
        let mut u_rows: Vec<usize> = Vec::new();
        let mut u_vals: Vec<T> = Vec::new();
        let mut x = vec![T::zero(); n];
        let mut mark = vec![false; n];
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();
        let mut ucol_scratch: Vec<(usize, T)> = Vec::new();

        for (j, &col) in q.iter().enumerate() {
            let (a_rows, a_vals) = a.col(col);
            topo.clear();
            for &start in a_rows {
                if mark[start] {
                    continue;
                }
                dfs_stack.push((start, 0));
                mark[start] = true;
                while let Some(&(node, child)) = dfs_stack.last() {
                    let k = pinv[node];
                    let children: &[usize] =
                        if k == UNSET { &[] } else { &l_rows[l_colptr[k]..l_colptr[k + 1]] };
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
                return Err(NumError::Singular { pivot: col });
            }
            let ujj = x[piv_row];
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
                    l_rows.push(s);
                    l_vals.push(x[s] / ujj);
                }
            }
            l_colptr.push(l_rows.len());
            pinv[piv_row] = j;
            p.push(piv_row);
            for &s in &topo {
                x[s] = T::zero();
                mark[s] = false;
            }
        }
        for r in l_rows.iter_mut() {
            *r = pinv[*r];
        }
        let a_max = hypot_fold(a.values());
        let growth = if a_max == 0.0 { 1.0 } else { hypot_fold(&u_vals) / a_max };
        Ok(SparseLu { n, l_colptr, l_rows, l_vals, u_colptr, u_rows, u_vals, p, q, growth })
    }

    /// `‖B − op(X)‖_max / (anorm·‖X‖_max + ‖B‖_max)` with one `hypot` per
    /// entry and an early `NaN` return.
    fn residual_reference<T: Scalar>(anorm: f64, x: &Mat<T>, b: &Mat<T>, op: impl Fn(&[T]) -> Vec<T>) -> f64 {
        let (mut rmax, mut xmax, mut bmax) = (0.0f64, 0.0f64, 0.0f64);
        for j in 0..x.ncols() {
            let xj = x.col(j);
            let ax = op(&xj);
            for i in 0..b.nrows() {
                let r = (b[(i, j)] - ax[i]).abs();
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

    fn bits<T: Scalar>(v: T) -> (u64, u64) {
        (v.re().to_bits(), v.im().to_bits())
    }

    fn assert_same_factor<T: Scalar>(
        got: &Result<SparseLu<T>, NumError>,
        want: &Result<SparseLu<T>, NumError>,
        what: &str,
    ) {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.q, w.q, "{what}: column order");
                assert_eq!(g.p, w.p, "{what}: pivot order");
                assert_eq!((&g.l_colptr, &g.l_rows), (&w.l_colptr, &w.l_rows), "{what}: L pattern");
                assert_eq!((&g.u_colptr, &g.u_rows), (&w.u_colptr, &w.u_rows), "{what}: U pattern");
                let vals = |lu: &SparseLu<T>| {
                    lu.l_vals.iter().chain(&lu.u_vals).map(|&v| bits(v)).collect::<Vec<_>>()
                };
                assert!(vals(g) == vals(w), "{what}: L/U values differ");
                assert_eq!(g.growth.to_bits(), w.growth.to_bits(), "{what}: growth");
            }
            (Err(g), Err(w)) => assert_eq!(format!("{g:?}"), format!("{w:?}"), "{what}: error"),
            _ => panic!("{what}: {:?} vs reference {:?}", got.is_ok(), want.is_ok()),
        }
    }

    /// A value family for the seeded matrices.
    #[derive(Clone, Copy, Debug)]
    enum Values {
        /// Uniform real and imaginary parts in `[-2, 2)`.
        Generic,
        /// Exact modulus ties: `3+4i`, `5`, `4+3i` and their sign/axis
        /// variants, so several candidates share one `hypot` value.
        Ties,
        /// Moduli one ulp apart around 5, and around 1e154 and 1e-154.
        Ulp,
        /// Every entry scaled by `10^k` for one `k` per matrix near the
        /// squaring limits: ±150…±158 and ±296…±305.
        Extreme,
        /// Every entry scaled by its own `10^k`, `k` in `[-310, 310]`.
        Mixed,
        /// Generic values with a few NaN and ±inf components.
        Special,
    }

    const FAMILIES: [Values; 6] =
        [Values::Generic, Values::Ties, Values::Ulp, Values::Extreme, Values::Mixed, Values::Special];

    /// One complex value of `family`; `scale` is the per-matrix magnitude.
    fn draw(rng: &mut SplitMix64, family: Values, scale: f64) -> c64 {
        let generic = |rng: &mut SplitMix64| c64::new(rng.next_range(-2.0, 2.0), rng.next_range(-2.0, 2.0));
        match family {
            Values::Generic => generic(rng),
            Values::Ties => {
                const TIES: [(f64, f64); 8] = [
                    (3.0, 4.0),
                    (5.0, 0.0),
                    (4.0, 3.0),
                    (0.0, 5.0),
                    (-3.0, 4.0),
                    (-5.0, 0.0),
                    (4.0, -3.0),
                    (0.0, -5.0),
                ];
                let (re, im) = TIES[rng.next_usize(TIES.len())];
                // Powers of two keep the ties exact at every step.
                let k = [0.25, 0.5, 1.0, 2.0][rng.next_usize(4)];
                c64::new(re * k, im * k)
            }
            Values::Ulp => {
                let base: f64 = [5.0, 5e153, 5e-154][rng.next_usize(3)];
                let up = f64::from_bits(base.to_bits() + rng.next_usize(3) as u64);
                match rng.next_usize(3) {
                    0 => c64::new(up, 0.0),
                    1 => c64::new(0.0, -up),
                    _ => c64::new(up * 0.6, up * 0.8),
                }
            }
            Values::Extreme => generic(rng).scale(scale),
            Values::Mixed => {
                let k = rng.next_usize(621) as i32 - 310;
                generic(rng).scale(10f64.powi(k))
            }
            Values::Special => {
                let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                let mut z = generic(rng);
                if rng.next_usize(12) == 0 {
                    let s = special[rng.next_usize(3)];
                    if rng.next_usize(2) == 0 {
                        z.re = s;
                    } else {
                        z.im = s;
                    }
                }
                z
            }
        }
    }

    /// A seeded square pattern: a random share of diagonal entries (so some
    /// matrices are structurally singular) plus random off-diagonals.
    fn seeded_matrix(seed: u64) -> (Csc<c64>, Values) {
        let mut rng = SplitMix64::new(seed);
        let n = 1 + rng.next_usize(40);
        let family = FAMILIES[(seed % 6) as usize];
        let scale = {
            let k = [150, 153, 154, 155, 158, 296, 300, 305][rng.next_usize(8)];
            if rng.next_usize(2) == 0 {
                10f64.powi(k)
            } else {
                10f64.powi(-k)
            }
        };
        let diag_every = 1 + rng.next_usize(8);
        let fill = rng.next_usize(4 * n + 1);
        let mut t = Triplet::new(n, n);
        for i in 0..n {
            if i % diag_every != 0 || rng.next_usize(5) > 0 {
                let d = draw(&mut rng, family, scale);
                t.push(i, i, d + d.scale(4.0));
            }
        }
        for _ in 0..fill {
            let (i, j) = (rng.next_usize(n), rng.next_usize(n));
            t.push(i, j, draw(&mut rng, family, scale));
        }
        (t.to_csc(), family)
    }

    /// `jω·C + G` for unit capacitors and unit conductances along `edges`,
    /// node 0 grounded.
    fn rc_pencil(n: usize, edges: &[(usize, usize)], w: f64) -> Csc<c64> {
        let g = c64::ONE;
        let mut t = Triplet::<c64>::new(n, n);
        t.push(0, 0, g);
        for i in 0..n {
            t.push(i, i, c64::new(0.0, w));
        }
        for &(i, j) in edges {
            t.push(i, i, g);
            t.push(j, j, g);
            t.push(i, j, -g);
            t.push(j, i, -g);
        }
        t.to_csc()
    }

    fn grid_edges(side: usize) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for k in 0..side * side {
            if k % side + 1 < side {
                edges.push((k, k + 1));
            }
            if k + side < side * side {
                edges.push((k, k + side));
            }
        }
        edges
    }

    /// The scrambled 13-unknown MNA pencil of the unit tests: an RC ladder,
    /// two voltage sources and an inductor, indices through `5i + 3 mod 13`.
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
            push(node, branch, c64::ONE);
            push(branch, node, c64::ONE);
        }
        push(3, 12, c64::ONE);
        push(7, 12, -c64::ONE);
        push(12, 3, c64::ONE);
        push(12, 7, -c64::ONE);
        push(12, 12, -s.scale(0.05));
        t.to_csc()
    }

    #[test]
    fn indexed_heap_amd_matches_the_lazy_heap_order() {
        let mut patterns: Vec<Csc<c64>> = (0..400).map(|seed| seeded_matrix(seed).0).collect();
        patterns.push(rc_pencil(34 * 34, &grid_edges(34), 0.7));
        let tree: Vec<(usize, usize)> = (1..1023).map(|k| ((k - 1) / 2, k)).collect();
        patterns.push(rc_pencil(1023, &tree, 0.7));
        patterns.push(mna_pencil(c64::new(0.2, 1.3)));
        for (k, a) in patterns.iter().enumerate() {
            let n = a.nrows();
            assert_eq!(
                crate::ordering::amd_order(n, a.colptr(), a.rowidx()),
                amd_order_lazy(n, a.colptr(), a.rowidx()),
                "pattern {k}"
            );
        }
    }

    #[test]
    fn fresh_factorization_matches_the_reference_bit_for_bit() {
        let mut checked = [0usize; 6];
        let mut singular = 0;
        for seed in 0..1200u64 {
            let (a, family) = seeded_matrix(seed);
            let got = SparseLu::new(&a);
            assert_same_factor(&got, &factor_reference(&a), &format!("seed {seed} ({family:?})"));
            singular += usize::from(got.is_err());
            checked[(seed % 6) as usize] += 1;
            // The real part alone exercises the `f64` instantiation.
            let re = a.map(|v| v.re);
            assert_same_factor(&SparseLu::new(&re), &factor_reference(&re), &format!("seed {seed} real"));
        }
        assert!(checked.iter().all(|&c| c >= 200), "{checked:?}");
        // The families must reach both outcomes.
        assert!(singular > 50 && singular < 1000, "{singular} singular of 1200");

        let tree: Vec<(usize, usize)> = (1..1023).map(|k| ((k - 1) / 2, k)).collect();
        for w in [0.0, 0.7, 1e3] {
            let grid = rc_pencil(34 * 34, &grid_edges(34), w);
            assert_same_factor(&SparseLu::new(&grid), &factor_reference(&grid), &format!("grid w {w}"));
            let tree = rc_pencil(1023, &tree, w);
            assert_same_factor(&SparseLu::new(&tree), &factor_reference(&tree), &format!("tree w {w}"));
        }
        for s in [c64::new(0.2, 1.3), c64::new(0.0, 7.0), c64::new(0.0, 1e-9), c64::new(3e5, 0.0)] {
            let a = mna_pencil(s);
            assert_same_factor(&SparseLu::new(&a), &factor_reference(&a), &format!("mna s {s}"));
        }
    }

    #[test]
    fn refactor_growth_and_pivot_check_match_the_hypot_forms() {
        for seed in 0..600u64 {
            let (a, _) = seeded_matrix(seed);
            let Ok(lu) = SparseLu::new(&a) else { continue };
            let sym = lu.symbolic(&a);
            // The same pattern with fresh values of the same family, at a
            // magnitude where squares overflow for the Extreme family.
            let mut rng = SplitMix64::new(seed ^ 0x5eed);
            let fam = FAMILIES[(seed % 6) as usize];
            let vals: Vec<c64> = a.values().iter().map(|_| draw(&mut rng, fam, 1e154)).collect();
            let a2 = Csc::from_raw_parts(a.nrows(), a.ncols(), a.colptr().to_vec(), a.rowidx().to_vec(), vals);
            match sym.refactor(&a2) {
                Ok(re) => {
                    let a_max = hypot_fold(a2.values());
                    let want = if a_max == 0.0 { 1.0 } else { hypot_fold(&re.u_vals) / a_max };
                    assert_eq!(re.growth.to_bits(), want.to_bits(), "seed {seed}");
                    // Every accepted pivot passed the `hypot` finiteness check.
                    for k in 0..re.n {
                        let d = re.u_vals[re.u_colptr[k + 1] - 1];
                        assert!(d.abs().is_finite(), "seed {seed} pivot {k}");
                    }
                }
                Err(e) => assert!(matches!(e, NumError::Singular { .. }), "seed {seed}: {e:?}"),
            }
        }
    }

    /// Edge-case values for the moduli helpers.
    fn edge_values() -> Vec<c64> {
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let mut v = vec![
            c64::new(3.0, 4.0),
            c64::new(5.0, 0.0),
            c64::new(4.0, 3.0),
            c64::new(-5.0, 0.0),
            c64::new(0.0, up(5.0)),
            c64::new(up(3.0), 4.0),
            c64::ZERO,
            c64::new(-0.0, 0.0),
            c64::new(1e154, 1e154),
            c64::new(1.4e154, 0.0),
            c64::new(1e-154, -1e-154),
            c64::new(1e300, 1e300),
            c64::new(1e-300, 0.0),
            c64::new(1e-310, 3e-310),
            // Subnormal squares that rank these two the wrong way round:
            // the first has the larger modulus but the smaller square.
            c64::new(6.5837318522906195e-161, 9.44140915995996e-161),
            c64::new(8.918051085830124e-161, 7.276013005505119e-161),
            c64::new(f64::MIN_POSITIVE, 0.0),
            c64::new(1e200, 1e-200),
            c64::new(f64::MAX, f64::MAX),
            c64::new(f64::MAX, 0.0),
            c64::new(f64::NAN, 1.0),
            c64::new(1.0, f64::NAN),
            c64::new(f64::INFINITY, f64::NAN),
            c64::new(f64::NAN, f64::NEG_INFINITY),
            c64::new(f64::INFINITY, 0.0),
            c64::new(0.0, f64::NEG_INFINITY),
        ];
        for e in [-300, -161, -158, -154, -140, 0, 140, 154, 300] {
            let s = 10f64.powi(e);
            v.extend([c64::new(3.0 * s, 4.0 * s), c64::new(5.0 * s, 0.0), c64::new(4.0 * s, 3.0 * s)]);
            v.push(c64::new(up(5.0 * s), 0.0));
        }
        v
    }

    #[test]
    fn max_modulus_matches_the_hypot_scan() {
        let edges = edge_values();
        let check = |vals: &[c64], what: &str| {
            let got = max_modulus(vals.iter().copied().enumerate());
            let (key, max, nan) = hypot_scan(vals);
            assert_eq!((got.key, got.max.to_bits(), got.nan), (key, max.to_bits(), nan), "{what}: {vals:?}");
            assert_eq!(got.max.to_bits(), hypot_fold(vals).to_bits(), "{what}");
            let re: Vec<f64> = vals.iter().map(|v| v.re).collect();
            let got = max_modulus(re.iter().copied().enumerate());
            let (key, max, nan) = hypot_scan(&re);
            assert_eq!((got.key, got.max.to_bits(), got.nan), (key, max.to_bits(), nan), "{what} real");
        };
        check(&[], "empty");
        for (i, &a) in edges.iter().enumerate() {
            check(&[a], &format!("single {i}"));
            for &b in &edges {
                check(&[a, b], "pair");
                check(&[b, a, b], "triple");
            }
        }
        // Seeded vectors drawn from the edge values, plus small random
        // perturbations of them.
        let mut rng = SplitMix64::new(7);
        for k in 0..20_000 {
            let len = 1 + rng.next_usize(12);
            let vals: Vec<c64> = (0..len)
                .map(|_| {
                    let z = edges[rng.next_usize(edges.len())];
                    match rng.next_usize(4) {
                        0 => z,
                        1 => z.scale(1.0 + rng.next_range(-1e-15, 1e-15)),
                        // Coarse enough to reorder subnormal squares.
                        2 => c64::new(z.re * (1.0 + rng.next_range(-1e-3, 1e-3)), z.im),
                        _ => c64::new(z.im, z.re),
                    }
                })
                .collect();
            check(&vals, &format!("seeded {k}"));
        }
        // The finiteness check of a refactor pivot.
        for &z in &edges {
            assert_eq!(modulus_is_finite(z), z.abs().is_finite(), "{z:?}");
            assert_eq!(modulus_is_finite(z.re), z.re.abs().is_finite(), "{z:?}");
        }
    }

    #[test]
    fn residual_norms_match_the_hypot_forms() {
        for seed in 0..600u64 {
            let (a, family) = seeded_matrix(seed);
            let n = a.nrows();
            let mut rng = SplitMix64::new(seed + 77);
            let scale = [1.0, 1e150, 1e-150, 1e300][rng.next_usize(4)];
            let x = Mat::from_fn(n, 2, |_, _| draw(&mut rng, family, scale));
            let b = Mat::from_fn(n, 2, |_, _| draw(&mut rng, family, scale));
            let want = residual_reference(one_norm(&a), &x, &b, |xj| a.mul_vec(xj));
            assert_eq!(residual_norm(&a, &x, &b).to_bits(), want.to_bits(), "seed {seed}");
            let want = residual_reference(inf_norm(&a), &x, &b, |xj| transpose_mul_vec(&a, xj));
            assert_eq!(residual_norm_transpose(&a, &x, &b).to_bits(), want.to_bits(), "seed {seed} transpose");
        }
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
        assert_eq!(sym.l_rows.len() + sym.u_rows.len(), 4);
        assert_eq!(sym.dim(), 2);
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
