//! PRIMA: passive reduced-order interconnect macromodeling
//! (Odabasioglu–Celik–Pileggi), the moment-matching baseline of the
//! paper's Fig. 7.
//!
//! Block Arnoldi on `M = (G + s₀C)⁻¹·C` with starting block
//! `R = (G + s₀C)⁻¹·B`, followed by a *congruence* projection
//! `x ≈ V·z`, which preserves passivity for RC/RLC MNA systems. In our
//! descriptor convention (`E = C`, `A = −G`) the expansion matrix is the
//! real shifted pencil `(s₀E − A)`.

use lti::{Descriptor, StateSpace};
use numkit::{DMat, NumError};
use sparsekit::{SparseLu, Triplet};

use crate::orth::{columns_to_mat, orthonormalize_into};

/// Result of a PRIMA reduction.
#[derive(Debug, Clone)]
pub struct PrimaModel {
    /// The reduced model.
    pub reduced: StateSpace,
    /// The congruence projection basis `V` (`n × q`).
    pub v: DMat,
    /// Number of complete block moments matched (`q / p` rounded down).
    pub moments_matched: usize,
}

/// Runs PRIMA to produce (at most) an order-`order` reduced model.
///
/// `s0` is the (real, non-negative) expansion frequency in rad/s; `0.0`
/// gives classical dc moment matching when `G` is nonsingular.
///
/// The basis grows in blocks of (up to) `p = ninputs` columns per
/// iteration — the block-growth granularity that makes moment matching
/// impractical for massively coupled networks (paper Section IV-C).
///
/// # Errors
///
/// - [`NumError::InvalidArgument`] if `order == 0`.
/// - [`NumError::Singular`] if `(s₀E − A)` is singular (bad expansion
///   point).
///
/// # Examples
///
/// ```
/// use circuits::rc_mesh;
/// use krylov::prima;
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0)?;
/// let m = prima(&sys, 6, 0.0)?;
/// assert!(m.reduced.nstates() <= 6);
/// # Ok(())
/// # }
/// ```
pub fn prima(sys: &Descriptor, order: usize, s0: f64) -> Result<PrimaModel, NumError> {
    if order == 0 {
        return Err(NumError::InvalidArgument("reduction order must be at least 1"));
    }
    let mut sp = obs::span("prima.arnoldi");
    sp.field_u64("order", order as u64);
    let n = sys.nstates();
    let p = sys.ninputs();
    sp.field_u64("n", n as u64);
    // Factor the real pencil (s0·E − A) = (G + s0·C) once.
    let mut t = Triplet::with_capacity(n, n, sys.e.nnz() + sys.a.nnz());
    for (i, j, v) in sys.e.iter() {
        t.push(i, j, s0 * v);
    }
    for (i, j, v) in sys.a.iter() {
        t.push(i, j, -v);
    }
    let lu = SparseLu::new(&t.to_csc())?;

    // R = (s0·E − A)⁻¹·B, then block Arnoldi with M·x = (s0·E − A)⁻¹·E·x.
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let r = lu.solve_mat(&sys.b)?;
    let mut added = orthonormalize_into(&mut basis, &r);
    let mut blocks = 1usize;
    while basis.len() < order && added > 0 {
        // Apply M to the most recent block.
        let last_block: Vec<Vec<f64>> = basis[basis.len() - added..].to_vec();
        let mut next = DMat::zeros(n, last_block.len());
        for (j, col) in last_block.iter().enumerate() {
            let ecol = sys.e.mul_vec(col);
            let sol = lu.solve(&ecol)?;
            next.set_col(j, &sol);
        }
        added = orthonormalize_into(&mut basis, &next);
        blocks += 1;
        if blocks > 4 * order / p.max(1) + 16 {
            break; // safety: subspace exhausted
        }
    }
    basis.truncate(order);
    let v = columns_to_mat(&basis);
    let reduced = sys.project(&v, &v)?;
    Ok(PrimaModel { moments_matched: v.ncols() / p.max(1), reduced, v })
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::rc_mesh;
    use numkit::c64;

    fn small_mesh() -> Descriptor {
        rc_mesh(3, 3, &[0, 8], 1.0, 1.0, 2.0).unwrap()
    }

    #[test]
    fn full_order_prima_is_exact() {
        let sys = small_mesh();
        let m = prima(&sys, sys.nstates(), 0.0).unwrap();
        for &w in &[0.0, 0.5, 2.0] {
            let s = c64::new(0.0, w);
            let h = sys.transfer_function(s).unwrap();
            let hr = m.reduced.transfer_function(s).unwrap();
            assert!((&h - &hr).norm_max() < 1e-8, "w = {w}");
        }
    }

    #[test]
    fn moments_match_at_expansion_point() {
        // One block moment (q = p) matches H(s0) exactly.
        let sys = small_mesh();
        let m = prima(&sys, 2, 0.0).unwrap();
        assert_eq!(m.moments_matched, 1);
        let h = sys.transfer_function(c64::ZERO).unwrap();
        let hr = m.reduced.transfer_function(c64::ZERO).unwrap();
        assert!(
            (&h - &hr).norm_max() < 1e-9,
            "dc moment must match: {:?} vs {:?}",
            h,
            hr
        );
    }

    #[test]
    fn accuracy_improves_with_order() {
        let sys = small_mesh();
        let s = c64::new(0.0, 1.0);
        let h = sys.transfer_function(s).unwrap();
        let mut prev = f64::INFINITY;
        for order in [2, 4, 8] {
            let m = prima(&sys, order, 0.0).unwrap();
            let hr = m.reduced.transfer_function(s).unwrap();
            let err = (&h - &hr).norm_max();
            assert!(err <= prev * 1.5 + 1e-12, "order {order}: error {err} vs prev {prev}");
            prev = err;
        }
        assert!(prev < 1e-6, "order 8 of 9 states should be nearly exact");
    }

    #[test]
    fn congruence_preserves_stability_and_passivity_structure() {
        let sys = small_mesh();
        let m = prima(&sys, 4, 0.0).unwrap();
        assert!(m.reduced.is_stable().unwrap());
        // For RC circuits, congruence-projected A stays symmetric
        // negative definite (passivity certificate).
        let a = &m.reduced.a;
        assert!((a - &a.transpose()).norm_max() < 1e-9);
    }

    #[test]
    fn basis_is_orthonormal() {
        let sys = small_mesh();
        let m = prima(&sys, 5, 0.0).unwrap();
        let g = &m.v.transpose() * &m.v;
        assert!((&g - &DMat::identity(m.v.ncols())).norm_max() < 1e-10);
    }

    #[test]
    fn zero_order_rejected() {
        assert!(prima(&small_mesh(), 0, 0.0).is_err());
    }
}
