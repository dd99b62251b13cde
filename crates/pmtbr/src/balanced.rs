//! Balanced PMTBR: square-root balancing of *sampled* controllability
//! and observability Gramians.
//!
//! Section V-D of the paper notes that nonsymmetric systems need both
//! Gramians and proposes the cross-Gramian compression. An alternative
//! with the classical square-root structure: sample
//! `z_R = (sE − A)⁻¹·B` *and* `z_L = (sE − A)⁻ᵀ·Cᵀ`, treat the realified
//! weighted sample blocks `Z_R`, `Z_L` as Gramian square-root factors
//! (`X̂ = Z_R·Z_Rᵀ`, `Ŷ = Z_L·Z_Lᵀ`), and balance them exactly as
//! square-root TBR balances Cholesky factors — SVD of `Z_Lᵀ·Z_R`,
//! two-sided projection with `WᵀV = I`.

use lti::LtiSystem;
use numkit::NumError;

use crate::pipeline::{run_cached, ReductionPlan};
use crate::{Budget, NullCache, PmtbrModel, Sampling};

/// Runs balanced (two-sided) PMTBR.
///
/// The singular values of `Z_Lᵀ·Z_R` estimate the Hankel singular values
/// directly (not their squares), so the `error_estimate` tail carries
/// the familiar TBR interpretation.
///
/// Executes [`ReductionPlan::balanced`] through the shared pipeline:
/// both pencil sweeps (`(sE − A)⁻¹·B` and `(sE − A)⁻ᵀ·Cᵀ`) run through
/// the tolerant parallel engine, a node survives only if *both* sides
/// solved, and under `PMTBR_FAULT` the quadrature degrades with
/// renormalized weights instead of erroring.
///
/// # Errors
///
/// - [`NumError::InvalidArgument`] if `order == 0` or the sampled
///   subspaces cannot support the requested order.
/// - Propagates solve/SVD/projection errors.
///
/// # Examples
///
/// ```
/// use circuits::rc_mesh;
/// use pmtbr::{balanced_pmtbr, Sampling};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let sys = rc_mesh(3, 3, &[0], 1.0, 1.0, 2.0)?;
/// let m = balanced_pmtbr(&sys, &Sampling::Linear { omega_max: 10.0, n: 8 }, 4)?;
/// assert_eq!(m.order, 4);
/// # Ok(())
/// # }
/// ```
pub fn balanced_pmtbr<S: LtiSystem + ?Sized>(
    sys: &S,
    sampling: &Sampling,
    order: usize,
) -> Result<PmtbrModel, NumError> {
    let plan = ReductionPlan::balanced(sampling, order);
    Ok(run_cached(sys, &plan, &Budget::default(), &NullCache)?.model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{connector, rc_mesh, ConnectorParams};
    use numkit::c64;

    #[test]
    fn biorthogonal_projectors() {
        let sys = rc_mesh(3, 3, &[0, 8], 1.0, 1.0, 2.0).unwrap();
        let m =
            balanced_pmtbr(&sys, &Sampling::Linear { omega_max: 10.0, n: 8 }, 5).unwrap();
        assert_eq!(m.reduced.nstates(), 5);
        assert!(m.reduced.a.is_finite());
    }

    #[test]
    fn singular_values_estimate_hankel_values() {
        // Symmetric case: σ(Z_Lᵀ Z_R) should track the Hankel spectrum
        // shape (both sides sample the same Gramian).
        let sys = rc_mesh(4, 4, &[0], 1.0, 1.0, 2.0).unwrap();
        let ss = sys.to_state_space().unwrap();
        let hsv = lti::hankel_singular_values(&ss).unwrap();
        let m = balanced_pmtbr(
            &sys,
            &Sampling::Log { omega_min: 1e-2, omega_max: 50.0, n: 30 },
            4,
        )
        .unwrap();
        // Normalized decay within 2 decades over the first few values.
        for k in 1..4 {
            let exact = hsv[k] / hsv[0];
            let est = m.singular_values[k] / m.singular_values[0];
            assert!(
                est < exact * 100.0 && exact < est * 100.0,
                "index {k}: {exact:.2e} vs {est:.2e}"
            );
        }
    }

    #[test]
    fn improves_on_one_sided_for_nonsymmetric_system() {
        // RLC connector: the two-sided variant accounts for observability
        // and should be at least competitive with one-sided PMTBR.
        let sys = connector(&ConnectorParams { pins: 3, ..Default::default() }).unwrap();
        let wmax = 2.0 * std::f64::consts::PI * 8e9;
        let sampling = Sampling::Linear { omega_max: wmax, n: 20 };
        let order = 12;
        let bal = balanced_pmtbr(&sys, &sampling, order).unwrap();
        let one = crate::pmtbr(
            &sys,
            &crate::PmtbrOptions::new(sampling).with_max_order(order),
        )
        .unwrap();
        let mut e_bal: f64 = 0.0;
        let mut e_one: f64 = 0.0;
        for k in 1..=10 {
            let s = c64::new(0.0, wmax * k as f64 / 10.0);
            let h = sys.transfer_function(s).unwrap();
            e_bal = e_bal.max((&bal.reduced.transfer_function(s).unwrap() - &h).norm_max());
            e_one = e_one.max((&one.reduced.transfer_function(s).unwrap() - &h).norm_max());
        }
        assert!(
            e_bal < 10.0 * e_one,
            "balanced variant must stay competitive: {e_bal:.2e} vs {e_one:.2e}"
        );
    }

    #[test]
    fn order_validation() {
        let sys = rc_mesh(2, 2, &[0], 1.0, 1.0, 2.0).unwrap();
        assert!(balanced_pmtbr(&sys, &Sampling::Linear { omega_max: 5.0, n: 4 }, 0).is_err());
        assert!(
            balanced_pmtbr(&sys, &Sampling::Linear { omega_max: 5.0, n: 1 }, 50).is_err()
        );
    }
}
