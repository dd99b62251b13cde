//! Algorithm 1: the core PMTBR procedure.
//!
//! Sample `z_k = (s_k·E − A)⁻¹·B` at quadrature nodes, weight by `√w_k`,
//! realify, and take the SVD of the stacked sample matrix `ZW`. Its left
//! singular vectors approximate the dominant eigenvectors of the
//! (weighted) controllability Gramian, its singular values approximate
//! the Hankel singular values, and the trailing-value sum drives order
//! and error control.

use lti::{LtiSystem, NoFaults, RecoveryPolicy, StateSpace};
use numkit::{svd_with_sweeps, DMat, NumError, Svd};

use crate::budget::BudgetTracker;
use crate::pipeline::{
    run_cached, spectral_ladder, spectral_model, sweep, InputDirections, OrderControl,
    ReductionPlan, SweptSamples,
};
use crate::{Budget, NullCache, SamplePoint, Sampling};

/// SVD of the sample matrix with column equilibration — rung 2 of the
/// pipeline's spectral compressor ladder.
///
/// The one-sided Jacobi SVD can (rarely) exhaust its sweep budget on
/// sample matrices whose columns span 15+ orders of magnitude. With
/// `D = diag(1/‖aⱼ‖₂)` the scaled matrix `A·D` has unit columns and
/// converges quickly; `A = U₁·(S₁·V₁ᵀ·D⁻¹)` is then recombined *exactly*
/// through a second small SVD of the `k × c` middle factor, so the
/// returned triplet is a genuine SVD of the original matrix. Both
/// internal SVDs run under `max_sweeps`, so a work budget can clamp the
/// retry.
pub(crate) fn equilibrated_svd(a: &DMat, max_sweeps: usize) -> Result<Svd<f64>, NumError> {
    let (n, c) = a.shape();
    let norms: Vec<f64> = (0..c)
        .map(|j| (0..n).map(|i| a[(i, j)] * a[(i, j)]).sum::<f64>().sqrt())
        .collect();
    let ad = DMat::from_fn(n, c, |i, j| {
        if norms[j] > 0.0 {
            a[(i, j)] / norms[j]
        } else {
            0.0
        }
    });
    let f1 = svd_with_sweeps(&ad, max_sweeps)?;
    // Truncate stage 1 to its numerical rank: below it, the rows of the
    // middle factor are pure noise and would hand the second SVD
    // non-orthogonal null directions.
    let r = f1.rank(f64::EPSILON);
    if r == 0 {
        return Ok(f1); // A is (numerically) zero; f1 is already its SVD
    }
    let f1 = f1.truncated(r);
    // Middle factor M = S₁·V₁ᵀ·D⁻¹ (r × c, small).
    let m = DMat::from_fn(r, c, |i, j| f1.s[i] * f1.v[(j, i)] * norms[j]);
    let f2 = svd_with_sweeps(&m, max_sweeps)?;
    Ok(Svd { u: f1.u.matmul(&f2.u)?, s: f2.s, v: f2.v })
}

/// Configuration for a PMTBR run.
///
/// Build with [`PmtbrOptions::new`] and the `with_*` methods
/// (builder style):
///
/// ```
/// use pmtbr::{PmtbrOptions, Sampling};
///
/// let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 10.0, n: 20 })
///     .with_tolerance(1e-8)
///     .with_max_order(12);
/// assert_eq!(opts.max_order(), Some(12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PmtbrOptions {
    sampling: Sampling,
    tolerance: f64,
    max_order: Option<usize>,
}

impl PmtbrOptions {
    /// Creates options with the given sampling scheme, relative singular
    /// value tolerance `1e-10`, and no order cap.
    pub fn new(sampling: Sampling) -> Self {
        PmtbrOptions { sampling, tolerance: 1e-10, max_order: None }
    }

    /// Sets the relative truncation tolerance: directions with
    /// `σᵢ ≤ tol·σ₀` are dropped.
    #[must_use]
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Caps the reduced order.
    #[must_use]
    pub fn with_max_order(mut self, order: usize) -> Self {
        self.max_order = Some(order);
        self
    }

    /// The sampling scheme.
    pub fn sampling(&self) -> &Sampling {
        &self.sampling
    }

    /// The relative truncation tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The order cap, if any.
    pub fn max_order(&self) -> Option<usize> {
        self.max_order
    }
}

/// The factored sample matrix `ZW` — PMTBR's intermediate product.
///
/// Exposed separately (C-INTERMEDIATE) because the experiments consume
/// it directly: Fig. 5 plots its singular values against exact Hankel
/// values, Fig. 6 measures subspace angles of its leading vectors, and
/// Fig. 8 tracks singular-value convergence as samples accumulate.
#[derive(Debug, Clone)]
pub struct SampleBasis {
    /// Thin SVD of the realified, weighted sample matrix.
    pub svd: Svd<f64>,
    /// The quadrature nodes that produced it.
    pub points: Vec<SamplePoint>,
}

impl SampleBasis {
    /// Singular values of `ZW` (squared, these estimate Gramian
    /// eigenvalues; directly, they estimate Hankel singular values in
    /// the symmetric case).
    pub fn singular_values(&self) -> &[f64] {
        &self.svd.s
    }

    /// Error estimate for each order `q`: the trailing sum
    /// `Σ_{i≥q} σᵢ` (index 0 = estimate for the order-0 model).
    pub fn error_estimates(&self) -> Vec<f64> {
        let s = &self.svd.s;
        let mut tails = vec![0.0; s.len() + 1];
        for i in (0..s.len()).rev() {
            tails[i] = tails[i + 1] + s[i];
        }
        tails
    }

    /// Smallest order whose trailing singular-value sum drops below
    /// `tol` (absolute), per the paper's Section V-B criterion.
    pub fn suggest_order(&self, tol: f64) -> usize {
        let tails = self.error_estimates();
        tails.iter().position(|&t| t < tol).unwrap_or(self.svd.s.len())
    }

    /// The projection basis spanned by the `order` dominant directions.
    ///
    /// # Panics
    ///
    /// Panics if `order` exceeds the number of computed directions.
    pub fn basis(&self, order: usize) -> DMat {
        self.svd.u.leading_cols(order)
    }
}

/// Computes the PMTBR sample basis for a system under a sampling scheme.
///
/// This is the pipeline's sweep and spectral compressor ladder without
/// the projection: sparse descriptor systems reuse one symbolic LU
/// analysis across all sample points and fan the numeric work across
/// threads (`PMTBR_THREADS` overrides the count). Results are identical
/// for every thread count.
///
/// Strict means strict: any dropped sample point is an error (the
/// ladder may still repair transient trouble — e.g. by refinement —
/// without affecting the result). Callers that want a degraded basis
/// run [`crate::pipeline::run`] and read [`crate::pipeline::Reduction`]'s
/// `diagnostics`.
///
/// # Errors
///
/// - Propagates sampling validation and shifted-solve errors; the first
///   dropped point's underlying solver error is returned verbatim.
/// - [`NumError::InvalidArgument`] if every weighted sample vanished.
pub fn sample_basis<S: LtiSystem + ?Sized>(
    sys: &S,
    sampling: &Sampling,
) -> Result<SampleBasis, NumError> {
    ReductionPlan::pmtbr(&PmtbrOptions::new(sampling.clone())).validate()?;
    let SweptSamples { kept, zmat, reports, requested, surviving, renorm, mut span, .. } = sweep(
        sys,
        sampling,
        &InputDirections::IdentityBlock,
        false,
        &RecoveryPolicy::default(),
        &NoFaults,
        None,
    )?;
    if surviving < requested {
        // Strict contract: a dropped node is an error, not degradation.
        let cause = reports
            .iter()
            .find_map(|r| if r.outcome.is_dropped() { r.error.clone() } else { None });
        return Err(cause.unwrap_or(NumError::InvalidArgument("sample point dropped")));
    }
    let unlimited = Budget::default();
    let (svd, rung) = spectral_ladder(&zmat, None, &BudgetTracker::start(&unlimited), &mut 0)?;
    span.field_u64("surviving", surviving as u64);
    span.field_u64("total_cols", zmat.ncols() as u64);
    span.field_f64("renorm", renorm);
    span.field("svd_retried", obs::Value::Bool(rung > 0));
    Ok(SampleBasis { svd, points: kept })
}

/// A reduced model produced by any PMTBR variant.
#[derive(Debug, Clone)]
pub struct PmtbrModel {
    /// The reduced model (congruence-projected: `W = V`).
    pub reduced: StateSpace,
    /// The projection basis (`n × order`).
    pub v: DMat,
    /// All singular values of the sample matrix (before truncation).
    pub singular_values: Vec<f64>,
    /// The realized order.
    pub order: usize,
    /// Trailing singular-value sum at the realized order — the PMTBR
    /// error estimate (not a strict bound; see paper Section V-B).
    pub error_estimate: f64,
}

/// Runs PMTBR (Algorithm 1) end to end.
///
/// Executes [`ReductionPlan::pmtbr`] through
/// [`crate::pipeline::run_cached`]: the sweep honors `PMTBR_FAULT`
/// (degrading gracefully and discarding the per-point account — use
/// [`crate::pipeline::run`] to inspect it) and is traced under the
/// `pmtbr.sample_sweep` span.
///
/// # Errors
///
/// Propagates sampling, solve, SVD, and projection errors.
///
/// # Examples
///
/// ```
/// use circuits::rc_mesh;
/// use pmtbr::{pmtbr, PmtbrOptions, Sampling};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0)?;
/// let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 10.0, n: 15 })
///     .with_max_order(6);
/// let model = pmtbr(&sys, &opts)?;
/// assert!(model.order <= 6);
/// assert!(model.reduced.is_stable()?);
/// # Ok(())
/// # }
/// ```
pub fn pmtbr<S: LtiSystem + ?Sized>(sys: &S, opts: &PmtbrOptions) -> Result<PmtbrModel, NumError> {
    Ok(run_cached(sys, &ReductionPlan::pmtbr(opts), &Budget::default(), &NullCache)?.model)
}

/// Projects a system onto a precomputed [`SampleBasis`] under the given
/// truncation options — the second half of Algorithm 1, split out so
/// multiple orders can be extracted from one (expensive) sampling pass.
///
/// # Errors
///
/// Propagates projection errors (e.g. a singular reduced descriptor).
pub fn reduce_with_basis<S: LtiSystem + ?Sized>(
    sys: &S,
    basis: &SampleBasis,
    opts: &PmtbrOptions,
) -> Result<PmtbrModel, NumError> {
    let order = OrderControl::Tolerance { tolerance: opts.tolerance(), max_order: opts.max_order() };
    spectral_model(sys, &basis.svd, &order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{clock_tree, rc_mesh};
    use numkit::{c64, svd};

    #[test]
    fn equilibrated_svd_matches_direct_on_graded_columns() {
        // Full-rank columns spanning 12 orders of magnitude — the regime
        // where the plain Jacobi sweep budget is under the most pressure.
        // Distinct frequencies per column keep the matrix full rank.
        let a = DMat::from_fn(8, 5, |i, j| {
            let scale = 10f64.powi(-3 * j as i32);
            scale * ((i * 7 + 1) as f64 * (0.37 + 0.11 * j as f64)).sin()
        });
        let direct = svd(&a).unwrap();
        let equil = super::equilibrated_svd(&a, 400).unwrap();
        assert_eq!(direct.s.len(), equil.s.len());
        for (d, e) in direct.s.iter().zip(&equil.s) {
            assert!((d - e).abs() <= 1e-10 * direct.s[0], "{d} vs {e}");
        }
        // The recombination must be an actual factorization of A.
        let k = equil.s.len();
        let mut recon = DMat::zeros(8, 5);
        for i in 0..8 {
            for j in 0..5 {
                for t in 0..k {
                    recon[(i, j)] += equil.u[(i, t)] * equil.s[t] * equil.v[(j, t)];
                }
            }
        }
        assert!((&recon - &a).norm_max() < 1e-12 * direct.s[0]);
        // And U must be orthonormal.
        let g = equil.u.transpose().matmul(&equil.u).unwrap();
        let ortho = (&g - &DMat::identity(k)).norm_max();
        assert!(ortho < 1e-12, "orthonormality defect {ortho}");
    }

    #[test]
    fn equilibrated_svd_truncates_rank_deficient_input_cleanly() {
        // Every column is a combination of one sin/cos pair → rank 2.
        // The equilibrated path must truncate the noise directions
        // instead of returning non-orthogonal null vectors.
        let a = DMat::from_fn(8, 5, |i, j| {
            let scale = 10f64.powi(-3 * j as i32);
            scale * ((i * 7 + j * 3 + 1) as f64 * 0.37).sin()
        });
        let equil = super::equilibrated_svd(&a, 400).unwrap();
        let k = equil.s.len();
        assert!(k < 5, "noise directions must be truncated: {:?}", equil.s);
        assert!(equil.s[1] > 1e-12 * equil.s[0], "both true directions kept");
        let g = equil.u.transpose().matmul(&equil.u).unwrap();
        let ortho = (&g - &DMat::identity(k)).norm_max();
        assert!(ortho < 1e-12, "orthonormality defect {ortho}");
        let direct = svd(&a).unwrap();
        for (d, e) in direct.s.iter().take(2).zip(&equil.s) {
            assert!((d - e).abs() <= 1e-10 * direct.s[0], "{d} vs {e}");
        }
    }

    #[test]
    fn options_builder() {
        let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 1.0, n: 2 })
            .with_tolerance(1e-6)
            .with_max_order(3);
        assert_eq!(opts.tolerance(), 1e-6);
        assert_eq!(opts.max_order(), Some(3));
    }

    #[test]
    fn pmtbr_reduces_rc_mesh_accurately() {
        let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).unwrap();
        let opts =
            PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 25 }).with_max_order(8);
        let m = pmtbr(&sys, &opts).unwrap();
        assert!(m.order <= 8);
        for &w in &[0.0f64, 0.3, 1.0, 5.0] {
            let s = c64::new(0.0, w);
            let h = sys.transfer_function(s).unwrap();
            let hr = m.reduced.transfer_function(s).unwrap();
            let err = (&h - &hr).norm_max();
            assert!(err < 1e-3 * h.norm_max().max(1e-12), "w={w}: error {err}");
        }
    }

    #[test]
    fn singular_values_decay_for_low_order_system() {
        let sys = clock_tree(4, 1.0, 1.0, 0.5, 2.0).unwrap();
        let basis =
            sample_basis(&sys, &Sampling::Linear { omega_max: 10.0, n: 30 }).unwrap();
        let s = basis.singular_values();
        assert!(s[10] < 1e-8 * s[0], "clock tree must be intrinsically low order");
        // Error estimates are non-increasing tail sums.
        let est = basis.error_estimates();
        for w in est.windows(2) {
            assert!(w[0] >= w[1] - 1e-15);
        }
    }

    #[test]
    fn suggest_order_matches_tail_definition() {
        let sys = clock_tree(3, 1.0, 1.0, 0.5, 2.0).unwrap();
        let basis =
            sample_basis(&sys, &Sampling::Linear { omega_max: 10.0, n: 20 }).unwrap();
        let q = basis.suggest_order(1e-6);
        let tail: f64 = basis.singular_values().iter().skip(q).sum();
        assert!(tail < 1e-6);
        if q > 0 {
            let tail_prev: f64 = basis.singular_values().iter().skip(q - 1).sum();
            assert!(tail_prev >= 1e-6);
        }
    }

    #[test]
    fn tolerance_controls_order() {
        let sys = rc_mesh(4, 4, &[0], 1.0, 1.0, 2.0).unwrap();
        let sampling = Sampling::Linear { omega_max: 20.0, n: 20 };
        let loose = pmtbr(&sys, &PmtbrOptions::new(sampling.clone()).with_tolerance(1e-2))
            .unwrap();
        let tight = pmtbr(&sys, &PmtbrOptions::new(sampling).with_tolerance(1e-12)).unwrap();
        assert!(loose.order < tight.order, "{} !< {}", loose.order, tight.order);
    }

    #[test]
    fn projection_basis_is_orthonormal() {
        let sys = rc_mesh(3, 3, &[0, 8], 1.0, 1.0, 2.0).unwrap();
        let m = pmtbr(
            &sys,
            &PmtbrOptions::new(Sampling::Linear { omega_max: 10.0, n: 10 }).with_max_order(5),
        )
        .unwrap();
        let g = &m.v.transpose() * &m.v;
        assert!((&g - &DMat::identity(m.order)).norm_max() < 1e-10);
    }

    #[test]
    fn log_sampling_works_on_wide_dynamics() {
        let sys = clock_tree(4, 1.0, 1.0, 0.5, 2.0).unwrap();
        let m = pmtbr(
            &sys,
            &PmtbrOptions::new(Sampling::Log { omega_min: 1e-3, omega_max: 1e3, n: 25 })
                .with_max_order(8),
        )
        .unwrap();
        let s = c64::new(0.0, 0.1);
        let h = sys.transfer_function(s).unwrap()[(0, 0)];
        let hr = m.reduced.transfer_function(s).unwrap()[(0, 0)];
        assert!((h - hr).abs() < 1e-4 * h.abs());
    }
}
