//! Sampled cross-Gramian PMTBR (paper Section V-D).
//!
//! For nonsymmetric systems both Gramians matter. Rather than balancing
//! two sampled Gramians, the cross-Gramian variant samples
//! controllability vectors `z_R = (sE − A)⁻¹·B` *and* observability
//! vectors `z_L = (sE − A)⁻ᵀ·Cᵀ` — one shared factorization per shift,
//! the observability side via the transpose solve — and compresses the
//! (never formed) cross Gramian `X = Z_R·Z_Lᵀ` through the small
//! product `N = Z_Lᵀ·Z_R`: for `λ ≠ 0`, `N·w = λ·w` maps to
//! `X·(Z_R·w) = λ·(Z_R·w)`, so one `c × c` eigenproblem (c = sample
//! columns) replaces the `n`-row joint SVD and up-to-`2c` eigenproblem
//! of the naive compression. Projection onto the dominant eigenspace is
//! two-sided (Petrov–Galerkin), with the biorthogonal left basis
//! `W = Z_L·(Λ⁻¹·T⁻¹)ᵀ` assembled from the same eigendecomposition;
//! the trailing-eigenvalue sum bounds the Hankel tail.

use lti::LtiSystem;
use numkit::NumError;

use crate::pipeline::{run_cached, ReductionPlan};
use crate::{Budget, NullCache, PmtbrModel, Sampling};

/// Runs cross-Gramian PMTBR, producing an order-`order` two-sided model.
///
/// Executes [`ReductionPlan::cross_gramian`] through the shared
/// pipeline: both pencil sweeps run through the tolerant parallel
/// engine, and a node survives only if *both* sides solved. The run is
/// unfaulted; under a [`crate::FaultPlan`] passed to
/// [`crate::pipeline::run`] the quadrature degrades with renormalized
/// weights instead of erroring.
///
/// # Errors
///
/// - [`NumError::InvalidArgument`] if `order == 0` or the samples span
///   too small a space for the requested order.
/// - Propagates solve/eigen/projection errors.
///
/// # Examples
///
/// ```
/// use circuits::rc_mesh;
/// use pmtbr::{cross_gramian_pmtbr, Sampling};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let sys = rc_mesh(3, 3, &[0], 1.0, 1.0, 2.0)?;
/// let m = cross_gramian_pmtbr(&sys, &Sampling::Linear { omega_max: 10.0, n: 8 }, 4)?;
/// assert_eq!(m.order, 4);
/// # Ok(())
/// # }
/// ```
pub fn cross_gramian_pmtbr<S: LtiSystem + ?Sized>(
    sys: &S,
    sampling: &Sampling,
    order: usize,
) -> Result<PmtbrModel, NumError> {
    let plan = ReductionPlan::cross_gramian(sampling, order);
    Ok(run_cached(sys, &plan, &Budget::default(), &NullCache)?.model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{connector, rc_mesh, ConnectorParams};
    use numkit::c64;

    #[test]
    fn matches_symmetric_pmtbr_quality() {
        // On a symmetric RC system the cross-Gramian coincides with the
        // controllability picture: the reduction should be as accurate
        // as plain PMTBR.
        let sys = rc_mesh(3, 3, &[0], 1.0, 1.0, 2.0).unwrap();
        let sampling = Sampling::Linear { omega_max: 10.0, n: 10 };
        let mcg = cross_gramian_pmtbr(&sys, &sampling, 4).unwrap();
        let mpm = crate::pmtbr(
            &sys,
            &crate::PmtbrOptions::new(sampling).with_max_order(4),
        )
        .unwrap();
        for &w in &[0.0, 0.5, 2.0] {
            let s = c64::new(0.0, w);
            let h = sys.transfer_function(s).unwrap()[(0, 0)];
            let e_cg = (mcg.reduced.transfer_function(s).unwrap()[(0, 0)] - h).abs();
            let e_pm = (mpm.reduced.transfer_function(s).unwrap()[(0, 0)] - h).abs();
            // For symmetric systems the two variants coincide.
            assert!(e_cg <= 2.0 * e_pm + 1e-12, "w = {w}: cg {e_cg:.2e} vs pmtbr {e_pm:.2e}");
        }
    }

    #[test]
    fn works_on_nonsymmetric_rlc() {
        // The connector is RLC (nonsymmetric state matrix): the two-sided
        // variant should still produce a usable model in-band.
        let sys = connector(&ConnectorParams { pins: 3, ..Default::default() }).unwrap();
        let wmax = 2.0 * std::f64::consts::PI * 8e9;
        let m =
            cross_gramian_pmtbr(&sys, &Sampling::Linear { omega_max: wmax, n: 15 }, 12).unwrap();
        let s = c64::new(0.0, wmax / 3.0);
        let h = sys.transfer_function(s).unwrap();
        let hr = m.reduced.transfer_function(s).unwrap();
        let rel = (&h - &hr).norm_max() / h.norm_max();
        assert!(rel < 0.05, "relative error {rel:.3}");
    }

    #[test]
    fn biorthogonality_of_projectors() {
        let sys = rc_mesh(3, 3, &[0, 8], 1.0, 1.0, 2.0).unwrap();
        let m = cross_gramian_pmtbr(&sys, &Sampling::Linear { omega_max: 5.0, n: 8 }, 5)
            .unwrap();
        // Reduced system dimension matches and the model is finite.
        assert_eq!(m.reduced.nstates(), m.order);
        assert!(m.reduced.a.is_finite());
    }

    #[test]
    fn zero_order_rejected() {
        let sys = rc_mesh(2, 2, &[0], 1.0, 1.0, 2.0).unwrap();
        assert!(
            cross_gramian_pmtbr(&sys, &Sampling::Linear { omega_max: 1.0, n: 2 }, 0).is_err()
        );
    }

    #[test]
    fn excessive_order_rejected() {
        let sys = rc_mesh(2, 2, &[0], 1.0, 1.0, 2.0).unwrap();
        assert!(
            cross_gramian_pmtbr(&sys, &Sampling::Linear { omega_max: 1.0, n: 1 }, 50).is_err()
        );
    }
}
