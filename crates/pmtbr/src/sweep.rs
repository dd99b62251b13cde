//! The account of a fault-tolerant PMTBR sweep: [`SweepDiagnostics`].
//!
//! PMTBR's sample matrix is a numerical quadrature of the Gramian
//! integral (paper eq. (8)–(11)), so a failed sample point is a lost
//! quadrature node — the right response is to *degrade* the rule, not
//! abort the reduction. The pipeline's sweep stage runs every node
//! through the escalation ladder
//! ([`lti::LtiSystem::solve_shifted_many_tolerant`]), keeps the surviving
//! columns, and renormalizes the surviving quadrature weights so they
//! still carry the full rule's mass:
//!
//! ```text
//! w̃ₖ = wₖ · Σall w / Σsurviving w
//! ```
//!
//! The renormalization is a single uniform scale factor, so it cannot
//! rotate the sample subspace — it only restores the magnitude of the
//! Gramian estimate (and hence the singular-value/error scale) that the
//! dropped nodes would have contributed.
//!
//! Every [`crate::pipeline::run`] returns a [`SweepDiagnostics`] in
//! [`crate::Reduction::diagnostics`], accounting for the fate of *each*
//! requested sample point; the CLI surfaces it as a degradation report
//! and exit-code policy.

use lti::{ShiftOutcome, ShiftReport};

/// The complete account of a fault-tolerant sampling sweep.
#[derive(Debug, Clone)]
pub struct SweepDiagnostics {
    /// Per-shift ladder reports, index-aligned with the requested
    /// sample points (every requested point appears exactly once).
    pub reports: Vec<ShiftReport>,
    /// Number of sample points requested.
    pub requested: usize,
    /// Number of sample points that produced a basis column block.
    pub surviving: usize,
    /// The uniform factor applied to surviving quadrature weights
    /// (`1.0` for a complete sweep).
    pub weight_renormalization: f64,
    /// Whether the sample-matrix SVD needed a recovery rung of the
    /// spectral compressor ladder (raised sweep cap, equilibration, or
    /// direct Jacobi).
    pub svd_retried: bool,
}

impl SweepDiagnostics {
    /// Number of dropped sample points.
    pub fn dropped(&self) -> usize {
        self.requested - self.surviving
    }

    /// `true` when any sample point was dropped or perturbed — i.e. the
    /// sweep did not execute exactly as requested.
    pub fn is_degraded(&self) -> bool {
        self.dropped() > 0
            || self.reports.iter().any(|r| matches!(r.outcome, ShiftOutcome::Perturbed { .. }))
    }

    /// Count of reports with the given outcome label (see
    /// [`ShiftOutcome::label`]).
    pub fn count(&self, label: &str) -> usize {
        self.reports.iter().filter(|r| r.outcome.label() == label).count()
    }

    /// A one-paragraph human-readable account, used by the CLI's
    /// degradation report.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "sweep: {}/{} sample points survived",
            self.surviving, self.requested
        );
        for label in ["reused", "refactored", "refreshed", "refined", "perturbed", "dropped"] {
            let n = self.count(label);
            if n > 0 {
                s.push_str(&format!(", {n} {label}"));
            }
        }
        // numlint:allow(FLOAT01) complete sweeps give total/surviving = x/x, exactly 1.0 in IEEE; only gates a diagnostic string
        if self.weight_renormalization != 1.0 {
            s.push_str(&format!(
                ", weights renormalized by {:.6}",
                self.weight_renormalization
            ));
        }
        if self.svd_retried {
            s.push_str(", svd retried on a compressor-ladder rung");
        }
        if let Some(worst) = self
            .reports
            .iter()
            .filter(|r| r.outcome.is_dropped())
            .filter_map(|r| r.error.as_ref())
            .next()
        {
            s.push_str(&format!(", first drop cause: {worst}"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::fault::FaultKind;
    use crate::pipeline::{run, Reduction, ReductionPlan};
    use crate::{pmtbr, sample_basis, Budget, FaultPlan, NullCache, PmtbrOptions, Sampling};
    use circuits::rc_mesh;
    use lti::Descriptor;
    use numkit::{c64, NumError};

    /// Algorithm 1 through the pipeline core under `faults`, unbudgeted
    /// and uncached.
    fn tolerant_run(
        sys: &Descriptor,
        sampling: Sampling,
        faults: Option<&FaultPlan>,
    ) -> Result<Reduction, NumError> {
        let plan = ReductionPlan::pmtbr(&PmtbrOptions::new(sampling));
        run(sys, &plan, faults, &Budget::default(), &NullCache)
    }

    #[test]
    fn clean_tolerant_sweep_matches_strict_pipeline() {
        let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).unwrap();
        let sampling = Sampling::Linear { omega_max: 20.0, n: 15 };
        let strict = sample_basis(&sys, &sampling).unwrap();
        let tolerant = tolerant_run(&sys, sampling, None).unwrap();
        let diag = &tolerant.diagnostics;
        assert!(!diag.is_degraded());
        assert_eq!(diag.surviving, diag.requested);
        assert_eq!(diag.weight_renormalization, 1.0);
        let sv = &tolerant.model.singular_values;
        assert_eq!(strict.svd.s.len(), sv.len());
        for (a, b) in strict.svd.s.iter().zip(sv) {
            assert!((a - b).abs() <= 1e-12 * strict.svd.s[0], "{a} vs {b}");
        }
    }

    #[test]
    fn dropped_points_renormalize_weights_and_still_reduce() {
        let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).unwrap();
        let sampling = Sampling::Linear { omega_max: 20.0, n: 16 };
        // Panic faults drop points outright — the harshest degradation.
        let plan = FaultPlan::new(11, 0.3, vec![FaultKind::Panic], 2);
        let opts = PmtbrOptions::new(sampling.clone()).with_max_order(8);
        let red =
            run(&sys, &ReductionPlan::pmtbr(&opts), Some(&plan), &Budget::default(), &NullCache)
                .unwrap();
        let (model, diag) = (red.model, red.diagnostics);
        assert!(diag.dropped() > 0, "plan must actually drop points");
        assert!(diag.surviving > 0);
        assert!(diag.weight_renormalization > 1.0);
        assert_eq!(diag.reports.len(), diag.requested);
        // The degraded model must still track the full model closely.
        let full = pmtbr(&sys, &opts).unwrap();
        for &w in &[0.0f64, 0.5, 2.0, 10.0] {
            let s = c64::new(0.0, w);
            let h = sys.transfer_function(s).unwrap()[(0, 0)];
            let hd = model.reduced.transfer_function(s).unwrap()[(0, 0)];
            let hf = full.reduced.transfer_function(s).unwrap()[(0, 0)];
            assert!(
                (h - hd).abs() < 1e-2 * h.abs().max(1e-12),
                "w={w}: degraded model error {}",
                (h - hd).abs()
            );
            // Sanity: the full model is also accurate (the comparison
            // above is meaningful).
            assert!((h - hf).abs() < 1e-3 * h.abs().max(1e-12));
        }
    }

    #[test]
    fn diagnostics_summary_mentions_degradation() {
        let sys = rc_mesh(3, 3, &[0, 8], 1.0, 1.0, 2.0).unwrap();
        let plan = FaultPlan::new(2, 0.4, vec![FaultKind::Panic], 2);
        let diag = tolerant_run(&sys, Sampling::Linear { omega_max: 10.0, n: 12 }, Some(&plan))
            .unwrap()
            .diagnostics;
        let text = diag.summary();
        assert!(text.contains("sample points survived"), "{text}");
        if diag.dropped() > 0 {
            assert!(text.contains("dropped"), "{text}");
            assert!(text.contains("weights renormalized"), "{text}");
        }
    }

    #[test]
    fn all_points_dropped_is_a_clean_error() {
        let sys = rc_mesh(3, 3, &[0], 1.0, 1.0, 2.0).unwrap();
        let plan = FaultPlan::new(1, 1.0, vec![FaultKind::Panic], 2);
        let err = tolerant_run(&sys, Sampling::Linear { omega_max: 10.0, n: 6 }, Some(&plan))
            .unwrap_err();
        assert!(matches!(err, NumError::InvalidArgument(_)));
    }

    #[test]
    fn drift_faults_are_repaired_not_dropped() {
        let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).unwrap();
        let plan = FaultPlan::new(21, 0.5, vec![FaultKind::Drift], 2);
        let diag = tolerant_run(&sys, Sampling::Linear { omega_max: 20.0, n: 12 }, Some(&plan))
            .unwrap()
            .diagnostics;
        assert_eq!(diag.dropped(), 0, "drift must never cost a sample");
        assert!(diag.count("refined") > 0, "refinement must have engaged: {}", diag.summary());
        assert!(diag.reports.iter().all(|r| r.residual <= 1e-10), "{}", diag.summary());
    }
}
