//! Exact truncated balanced realization (TBR) — the baseline PMTBR is
//! measured against — plus the cross-Gramian variant of Section V-D.
//!
//! Implementation: square-root balanced truncation. The Gramians are
//! solved exactly by Bartels–Stewart ([`lyap`]), factored through their
//! eigendecompositions (robust to numerical rank deficiency), and the
//! projection bases come from the SVD of `Lyᵀ·Lx`.

use numkit::{eig, psd_sqrt_factor, svd, DMat, Eig, Lu, NumError, Svd};

use crate::{lyap, sylvester, StateSpace};

/// Controllability Gramian: solves `A·X + X·Aᵀ + B·Bᵀ = 0`.
///
/// # Errors
///
/// Propagates [`lyap`] errors (e.g. unstable `A`).
pub fn controllability_gramian(sys: &StateSpace) -> Result<DMat, NumError> {
    let q = &sys.b * &sys.b.transpose();
    lyap(&sys.a, &q)
}

/// Weighted controllability Gramian: solves `A·X + X·Aᵀ + B·K·Bᵀ = 0`.
///
/// `K` is an input correlation matrix (paper Section IV-C); `K = I`
/// recovers [`controllability_gramian`].
///
/// # Errors
///
/// Propagates [`lyap`] errors.
pub fn correlated_controllability_gramian(
    sys: &StateSpace,
    k: &DMat,
) -> Result<DMat, NumError> {
    let bk = sys.b.matmul(k)?;
    let q = bk.matmul(&sys.b.transpose())?;
    lyap(&sys.a, &q)
}

/// Observability Gramian: solves `Aᵀ·Y + Y·A + Cᵀ·C = 0`.
///
/// # Errors
///
/// Propagates [`lyap`] errors.
pub fn observability_gramian(sys: &StateSpace) -> Result<DMat, NumError> {
    let q = &sys.c.transpose() * &sys.c;
    lyap(&sys.a.transpose(), &q)
}

/// Result of a balanced-truncation reduction.
#[derive(Debug, Clone)]
pub struct TbrModel {
    /// The reduced model (order ≤ requested, limited by numerical rank).
    pub reduced: StateSpace,
    /// All Hankel singular values of the original system.
    pub hsv: Vec<f64>,
    /// The classical TBR error bound `2·Σ_{i>q} σᵢ` for the realized
    /// order `q`.
    pub error_bound: f64,
    /// Right projection basis `V` (`n × q`).
    pub v: DMat,
    /// Left projection basis `W` (`n × q`), with `WᵀV = I`.
    pub w: DMat,
}

/// Hankel singular values (square roots of the eigenvalues of `X·Y`).
///
/// # Errors
///
/// Propagates Gramian computation errors.
pub fn hankel_singular_values(sys: &StateSpace) -> Result<Vec<f64>, NumError> {
    let x = controllability_gramian(sys)?;
    let y = observability_gramian(sys)?;
    hankel_from_gramians(&x, &y)
}

/// Hankel singular values from explicitly supplied Gramians.
///
/// # Errors
///
/// Propagates factorization errors.
pub fn hankel_from_gramians(x: &DMat, y: &DMat) -> Result<Vec<f64>, NumError> {
    // Keep every strictly positive Gramian eigenvalue (tol = 0): the
    // Hankel values are computed as singular values of the factor
    // product, which resolves far below the Gramian eigenvalue floor.
    let lx = psd_sqrt_factor(x, 0.0)?;
    let ly = psd_sqrt_factor(y, 0.0)?;
    let m = &ly.transpose() * &lx;
    let mut s = svd(&m)?.s;
    // Pad with exact zeros up to n for callers that expect n values.
    s.resize(x.nrows(), 0.0);
    Ok(s)
}

/// Balanced truncation to order `order` using exact Gramians.
///
/// # Errors
///
/// - Propagates Gramian/factorization errors (e.g. unstable systems).
/// - [`NumError::InvalidArgument`] if `order` is 0.
///
/// # Examples
///
/// ```
/// use lti::{tbr, StateSpace};
/// use numkit::DMat;
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let sys = StateSpace::new(
///     DMat::from_diag(&[-1.0, -100.0]),
///     DMat::from_rows(&[&[1.0], &[0.1]]),
///     DMat::from_rows(&[&[1.0, 0.1]]),
///     None,
/// )?;
/// let m = tbr(&sys, 1)?;
/// assert_eq!(m.reduced.nstates(), 1);
/// // The fast, weakly coupled mode is nearly unobservable/uncontrollable:
/// assert!(m.error_bound < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn tbr(sys: &StateSpace, order: usize) -> Result<TbrModel, NumError> {
    let x = controllability_gramian(sys)?;
    let y = observability_gramian(sys)?;
    tbr_from_gramians(sys, &x, &y, order)
}

/// Balanced truncation with caller-supplied Gramians (frequency-weighted
/// or input-correlated variants plug in here).
///
/// # Errors
///
/// Same as [`tbr`].
pub fn tbr_from_gramians(
    sys: &StateSpace,
    x: &DMat,
    y: &DMat,
    order: usize,
) -> Result<TbrModel, NumError> {
    if order == 0 {
        return Err(NumError::InvalidArgument("reduction order must be at least 1"));
    }
    let lx = psd_sqrt_factor(x, 1e-14)?;
    let ly = psd_sqrt_factor(y, 1e-14)?;
    let m = &ly.transpose() * &lx;
    let f = svd(&m)?;
    // Numerical rank of the Hankel spectrum limits the realizable order.
    let rank = f.rank(1e-13).max(1);
    let q = order.min(rank);
    let (v, w) = square_root_bases(&lx, &ly, &f, q)?;
    let reduced = sys.project(&w, &v)?;
    let mut hsv = f.s.clone();
    hsv.resize(sys.nstates(), 0.0);
    let error_bound = 2.0 * hsv.iter().skip(q).sum::<f64>();
    Ok(TbrModel { reduced, hsv, error_bound, v, w })
}

/// Square-root balancing bases from Gramian factors `X = R·Rᵀ`,
/// `Y = L·Lᵀ` and the SVD `f = U·Σ·Vᵀ` of `Lᵀ·R`:
/// `V = R·V_q·Σ_q^{-1/2}` and `W = L·U_q·Σ_q^{-1/2}`, so `WᵀV = I`.
/// Returns `(V, W)`. The one square-root kernel behind
/// [`tbr_from_gramians`], [`tbr_residualized`] and the sampled
/// (balanced PMTBR) factors `Z_R`, `Z_L` of `pmtbr`.
///
/// The products are blocked matmuls (ascending-k accumulation),
/// followed by the column scaling `1/√σⱼ`.
///
/// # Errors
///
/// [`NumError::ShapeMismatch`] if `R` or `L` does not match `f`.
///
/// # Panics
///
/// Panics if `q` exceeds the number of singular values in `f`.
pub fn square_root_bases(
    r: &DMat,
    l: &DMat,
    f: &Svd<f64>,
    q: usize,
) -> Result<(DMat, DMat), NumError> {
    let mut v = r.matmul(&f.v.leading_cols(q))?;
    let mut w = l.matmul(&f.u.leading_cols(q))?;
    for j in 0..q {
        let scale = 1.0 / f.s[j].sqrt();
        for m in [&mut v, &mut w] {
            for i in 0..m.nrows() {
                m[(i, j)] *= scale;
            }
        }
    }
    Ok((v, w))
}

/// One block of a realified eigendecomposition ([`realified_eigenbasis`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EigBlock {
    /// A real eigenvalue `λ`, owning one column `Re v`.
    Real(f64),
    /// A conjugate pair `a ± bi`, owning two columns `[Re v, Im v]`.
    Pair {
        /// Real part `a`.
        re: f64,
        /// Imaginary part `b` of the member whose eigenvector `v` was
        /// realified.
        im: f64,
    },
}

impl EigBlock {
    /// Number of realified columns this block owns.
    pub fn width(&self) -> usize {
        match self {
            EigBlock::Real(_) => 1,
            EigBlock::Pair { .. } => 2,
        }
    }
}

/// Realifies an eigendecomposition of a real matrix, in its
/// decreasing-modulus order: an eigenvalue with `|Im λ| > 1e-12·|λ|`
/// (and a column left for its conjugate partner) becomes, with the
/// partner, the pair block `[Re v, Im v]`; any other eigenvalue owns
/// the one column `Re v`. Returns the real basis `T`, its blocks, and
/// one modulus `|λ|` per column (a pair's twice). The one
/// realification behind [`cross_gramian_reduce`] and the cross-Gramian
/// compressor of `pmtbr`.
pub fn realified_eigenbasis(e: &Eig) -> (DMat, Vec<EigBlock>, Vec<f64>) {
    let n = e.values.len();
    let mut t = DMat::zeros(n, n);
    let mut blocks = Vec::with_capacity(n);
    let mut moduli = Vec::with_capacity(n);
    // Block `j` starts at column `j`: a pair's two columns stand in for
    // its two eigenvalues.
    let mut j = 0;
    while j < n {
        let lam = e.values[j];
        let v = e.vectors.col(j);
        if lam.im.abs() > 1e-12 * lam.abs().max(1e-300) && j + 1 < n {
            for i in 0..n {
                t[(i, j)] = v[i].re;
                t[(i, j + 1)] = v[i].im;
            }
            blocks.push(EigBlock::Pair { re: lam.re, im: lam.im });
            moduli.push(lam.abs());
            moduli.push(lam.abs());
            j += 2; // skip the conjugate partner
        } else {
            for i in 0..n {
                t[(i, j)] = v[i].re;
            }
            blocks.push(EigBlock::Real(lam.re));
            moduli.push(lam.abs());
            j += 1;
        }
    }
    (t, blocks, moduli)
}

/// TBR error bounds `2·Σ_{i>q} σᵢ` for every order `q = 0..n`.
///
/// Index `q` of the returned vector is the bound for an order-`q` model —
/// the quantity plotted in Fig. 3 of the paper.
pub fn tbr_error_bounds(hsv: &[f64]) -> Vec<f64> {
    let total: f64 = hsv.iter().sum();
    let mut bounds = Vec::with_capacity(hsv.len() + 1);
    let mut acc = 0.0;
    bounds.push(2.0 * total);
    for &s in hsv {
        acc += s;
        bounds.push(2.0 * (total - acc));
    }
    bounds
}

/// Balanced *residualization* (singular perturbation) to order `order`:
/// instead of discarding the weak balanced states, their derivatives are
/// set to zero and they are solved out statically. Same `2·Σσ` error
/// bound as truncation, but the dc gain is preserved *exactly* — the
/// right choice when reduced parasitic models must keep IR-drop/static
/// coupling bit-exact.
///
/// # Errors
///
/// Same as [`tbr`], plus [`NumError::Singular`] if the weak balanced
/// block is singular (a pole at the origin in the discarded dynamics).
pub fn tbr_residualized(sys: &StateSpace, order: usize) -> Result<TbrModel, NumError> {
    if order == 0 {
        return Err(NumError::InvalidArgument("reduction order must be at least 1"));
    }
    let x = controllability_gramian(sys)?;
    let y = observability_gramian(sys)?;
    let lx = psd_sqrt_factor(&x, 1e-14)?;
    let ly = psd_sqrt_factor(&y, 1e-14)?;
    let m = &ly.transpose() * &lx;
    let f = svd(&m)?;
    let rank = f.rank(1e-13).max(1);
    let q = order.min(rank);
    if q == rank {
        // Nothing to residualize: fall back to plain truncation.
        return tbr_from_gramians(sys, &x, &y, q);
    }
    // Full balanced coordinates up to the numerical rank, for the
    // residualization split.
    let n = sys.nstates();
    let (v, w) = square_root_bases(&lx, &ly, &f, rank)?;
    let bal = sys.project(&w, &v)?;
    // Partition the balanced model and solve the weak block statically:
    // 0 = A21·x1 + A22·x2 + B2·u  ⇒  x2 = −A22⁻¹(A21·x1 + B2·u).
    let a11 = bal.a.block(0, q, 0, q);
    let a12 = bal.a.block(0, q, q, rank);
    let a21 = bal.a.block(q, rank, 0, q);
    let a22 = bal.a.block(q, rank, q, rank);
    let b1 = bal.b.block(0, q, 0, bal.b.ncols());
    let b2 = bal.b.block(q, rank, 0, bal.b.ncols());
    let c1 = bal.c.block(0, bal.c.nrows(), 0, q);
    let c2 = bal.c.block(0, bal.c.nrows(), q, rank);
    let a22_lu = Lu::new(a22)?;
    let a22_inv_a21 = a22_lu.solve_mat(&a21)?;
    let a22_inv_b2 = a22_lu.solve_mat(&b2)?;
    let a_red = &a11 - &a12.matmul(&a22_inv_a21)?;
    let b_red = &b1 - &a12.matmul(&a22_inv_b2)?;
    let c_red = &c1 - &c2.matmul(&a22_inv_a21)?;
    let d_red = &bal.d - &c2.matmul(&a22_inv_b2)?;
    let reduced = StateSpace::new(a_red, b_red, c_red, Some(d_red))?;
    let mut hsv = f.s.clone();
    hsv.resize(n, 0.0);
    let error_bound = 2.0 * hsv.iter().skip(q).sum::<f64>();
    Ok(TbrModel {
        reduced,
        hsv,
        error_bound,
        v: v.leading_cols(q),
        w: w.leading_cols(q),
    })
}

/// Cross-Gramian `X_CG`: solves `A·X + X·A + B·C = 0` (Section V-D).
///
/// Only defined for square transfer functions (`p = q`).
///
/// # Errors
///
/// [`NumError::InvalidArgument`] if inputs ≠ outputs; otherwise
/// propagates [`sylvester`] errors.
pub fn cross_gramian(sys: &StateSpace) -> Result<DMat, NumError> {
    if sys.ninputs() != sys.noutputs() {
        return Err(NumError::InvalidArgument(
            "cross-gramian requires as many inputs as outputs",
        ));
    }
    let bc = &sys.b * &sys.c;
    sylvester(&sys.a, &sys.a, &bc)
}

/// Model reduction by projection onto the dominant eigenspace of the
/// cross-Gramian. For symmetric (incl. SISO symmetric) systems this
/// coincides with TBR; in general the trailing-eigenvalue sum still
/// bounds the Hankel tail (Sorensen–Antoulas).
///
/// # Errors
///
/// Propagates [`cross_gramian`] and eigensolver errors.
pub fn cross_gramian_reduce(sys: &StateSpace, order: usize) -> Result<TbrModel, NumError> {
    if order == 0 {
        return Err(NumError::InvalidArgument("reduction order must be at least 1"));
    }
    let xcg = cross_gramian(sys)?;
    let n = sys.nstates();
    let (t, _, moduli) = realified_eigenbasis(&eig(&xcg)?);
    // Don't split a conjugate pair at the truncation boundary.
    let mut q = order.min(n);
    if q < n && (moduli[q - 1] - moduli[q]).abs() < 1e-12 * moduli[q.saturating_sub(1)].max(1e-300)
    {
        q += 1;
    }
    let v = t.leading_cols(q);
    // W = (T⁻ᵀ) leading columns, so WᵀV = I.
    let tinv = Lu::new(t.clone())?.inverse()?;
    let w = tinv.transpose().leading_cols(q);
    let reduced = sys.project(&w, &v)?;
    let error_bound = 2.0 * moduli.iter().skip(q).sum::<f64>();
    Ok(TbrModel { reduced, hsv: moduli, error_bound, v, w })
}

#[cfg(test)]
mod tests {
    use super::*;
    use numkit::c64;

    /// A symmetric RC-like system: A = Aᵀ ≺ 0, C = Bᵀ.
    fn symmetric_system(n: usize) -> StateSpace {
        let a = DMat::from_fn(n, n, |i, j| {
            if i == j {
                -2.0 - i as f64 * 0.5
            } else if i.abs_diff(j) == 1 {
                0.7
            } else {
                0.0
            }
        });
        let b = DMat::from_fn(n, 1, |i, _| if i == 0 { 1.0 } else { 0.0 });
        let c = b.transpose();
        StateSpace::new(a, b, c, None).unwrap()
    }

    #[test]
    fn gramians_satisfy_lyapunov() {
        let sys = symmetric_system(6);
        let x = controllability_gramian(&sys).unwrap();
        let q = &sys.b * &sys.b.transpose();
        assert!(crate::lyap_residual(&sys.a, &x, &q) < 1e-10);
        // Symmetric system: X == Y.
        let y = observability_gramian(&sys).unwrap();
        assert!((&x - &y).norm_max() < 1e-10);
    }

    #[test]
    fn hsv_are_nonincreasing_nonnegative() {
        let sys = symmetric_system(8);
        let hsv = hankel_singular_values(&sys).unwrap();
        assert_eq!(hsv.len(), 8);
        for w in hsv.windows(2) {
            assert!(w[0] >= w[1] - 1e-14);
        }
        assert!(hsv.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn tbr_error_within_bound() {
        let sys = symmetric_system(8);
        for order in [2, 4, 6] {
            let m = tbr(&sys, order).unwrap();
            assert_eq!(m.reduced.nstates(), order);
            // Check |H(jw) − Hr(jw)| ≤ bound on a frequency grid.
            for &w in &[0.0, 0.1, 0.5, 1.0, 3.0, 10.0] {
                let s = c64::new(0.0, w);
                let h = sys.transfer_function(s).unwrap()[(0, 0)];
                let hr = m.reduced.transfer_function(s).unwrap()[(0, 0)];
                let err = (h - hr).abs();
                assert!(
                    err <= m.error_bound * (1.0 + 1e-6) + 1e-12,
                    "order {order}, w {w}: err {err} > bound {}",
                    m.error_bound
                );
            }
        }
    }

    #[test]
    fn tbr_balances_wv() {
        let sys = symmetric_system(6);
        let m = tbr(&sys, 3).unwrap();
        let wtv = &m.w.transpose() * &m.v;
        assert!((&wtv - &DMat::identity(3)).norm_max() < 1e-9, "biorthogonality");
    }

    #[test]
    fn full_order_tbr_preserves_transfer_function() {
        let sys = symmetric_system(5);
        let m = tbr(&sys, 5).unwrap();
        let s = c64::new(0.0, 0.7);
        let h = sys.transfer_function(s).unwrap()[(0, 0)];
        let hr = m.reduced.transfer_function(s).unwrap()[(0, 0)];
        assert!((h - hr).abs() < 1e-8);
    }

    #[test]
    fn error_bounds_vector_matches_definition() {
        let hsv = vec![4.0, 2.0, 1.0];
        let b = tbr_error_bounds(&hsv);
        assert_eq!(b, vec![14.0, 6.0, 2.0, 0.0]);
    }

    #[test]
    fn correlated_gramian_shrinks_with_lowrank_k() {
        // 2-input system; rank-1 K concentrates the input energy.
        let a = DMat::from_diag(&[-1.0, -2.0, -3.0]);
        let b = DMat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5]]);
        let c = DMat::from_rows(&[&[1.0, 1.0, 1.0]]);
        let sys = StateSpace::new(a, b, c, None).unwrap();
        let k_full = DMat::identity(2);
        let k_low = DMat::from_fn(2, 2, |_, _| 0.5); // rank 1, trace 1
        let x_full = correlated_controllability_gramian(&sys, &k_full).unwrap();
        let x_low = correlated_controllability_gramian(&sys, &k_low).unwrap();
        let e_full = numkit::eigh(&x_full).unwrap().values;
        let e_low = numkit::eigh(&x_low).unwrap().values;
        // The correlated Gramian must decay faster: smaller trailing mass.
        let tail_full: f64 = e_full.iter().skip(1).sum();
        let tail_low: f64 = e_low.iter().skip(1).sum();
        assert!(
            tail_low < tail_full,
            "correlation should reduce the Gramian tail: {tail_low} vs {tail_full}"
        );
    }

    #[test]
    fn residualization_preserves_dc_gain_exactly() {
        let sys = symmetric_system(7);
        let dc_full = sys.dc_gain().unwrap()[(0, 0)];
        for order in [2usize, 3, 5] {
            let res = tbr_residualized(&sys, order).unwrap();
            let dc_res = res.reduced.dc_gain().unwrap()[(0, 0)];
            assert!(
                (dc_res - dc_full).abs() < 1e-10 * dc_full.abs(),
                "order {order}: dc {dc_res} vs {dc_full}"
            );
            // Truncation, by contrast, misses dc by ~the bound.
            let tru = tbr(&sys, order).unwrap();
            let dc_tru = tru.reduced.dc_gain().unwrap()[(0, 0)];
            assert!((dc_tru - dc_full).abs() > (dc_res - dc_full).abs());
        }
    }

    #[test]
    fn residualization_error_within_bound() {
        let sys = symmetric_system(7);
        let res = tbr_residualized(&sys, 3).unwrap();
        for &w in &[0.0, 0.2, 1.0, 5.0] {
            let s = c64::new(0.0, w);
            let h = sys.transfer_function(s).unwrap()[(0, 0)];
            let hr = res.reduced.transfer_function(s).unwrap()[(0, 0)];
            assert!(
                (h - hr).abs() <= res.error_bound * (1.0 + 1e-6) + 1e-12,
                "w={w}: {} > bound {}",
                (h - hr).abs(),
                res.error_bound
            );
        }
    }

    #[test]
    fn cross_gramian_squares_to_xy_for_symmetric_systems() {
        let sys = symmetric_system(5);
        let xcg = cross_gramian(&sys).unwrap();
        let x = controllability_gramian(&sys).unwrap();
        let y = observability_gramian(&sys).unwrap();
        let xy = &x * &y;
        let xcg2 = &xcg * &xcg;
        assert!(
            (&xcg2 - &xy).norm_max() < 1e-9 * (1.0 + xy.norm_max()),
            "X_CG² must equal X·Y for symmetric systems"
        );
    }

    #[test]
    fn cross_gramian_reduction_matches_tbr_quality_on_symmetric() {
        let sys = symmetric_system(6);
        let mcg = cross_gramian_reduce(&sys, 3).unwrap();
        let mtb = tbr(&sys, 3).unwrap();
        let s = c64::new(0.0, 0.5);
        let h = sys.transfer_function(s).unwrap()[(0, 0)];
        let e_cg = (mcg.reduced.transfer_function(s).unwrap()[(0, 0)] - h).abs();
        let e_tb = (mtb.reduced.transfer_function(s).unwrap()[(0, 0)] - h).abs();
        assert!(e_cg < 10.0 * e_tb + 1e-9, "cross-gramian error {e_cg} vs tbr {e_tb}");
    }

    #[test]
    fn zero_order_rejected() {
        let sys = symmetric_system(4);
        assert!(tbr(&sys, 0).is_err());
        assert!(cross_gramian_reduce(&sys, 0).is_err());
    }

    #[test]
    fn nonsquare_cross_gramian_rejected() {
        let a = DMat::from_diag(&[-1.0]);
        let b = DMat::from_rows(&[&[1.0, 2.0]]);
        let c = DMat::from_rows(&[&[1.0]]);
        let sys = StateSpace::new(a, b, c, None).unwrap();
        assert!(matches!(cross_gramian(&sys), Err(NumError::InvalidArgument(_))));
    }
}
