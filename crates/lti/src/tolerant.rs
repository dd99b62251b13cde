//! Fault-tolerant multipoint sweeps: escalation ladder, residual
//! certification, and per-shift diagnostics.
//!
//! A multipoint sweep solves `(sₖ·E − A)·Z = R` at many shifts, and any
//! single shift can go bad: it may land on (or within rounding of) a
//! generalized eigenvalue of the pencil, a frozen pivot order reused
//! from another shift may explode, or — under the fault-injection
//! harness — a worker may be made to fail outright. PMTBR's quadrature
//! interpretation makes the right response obvious: a sample point is
//! one node of a quadrature rule, so losing it should *degrade* the
//! sweep, never abort it.
//!
//! This module defines the shared vocabulary of that fault-tolerance
//! layer:
//!
//! - the ladder's thresholds, which are constants of this module, and
//!   [`RecoveryPolicy`], which carries only a sweep's cancellation;
//! - [`ShiftOutcome`] / [`ShiftReport`] — what happened at each shift,
//!   with the certified residual, condition estimate, and pivot growth;
//! - [`TolerantSweep`] — partial results (`None` per dropped shift) plus
//!   the full per-shift report list;
//! - [`SolveFault`] — the injection hook the fault harness implements
//!   ([`NoFaults`] is the production no-op).
//!
//! The ladder itself lives in one place,
//! [`crate::ShiftSolveEngine::solve_many_tolerant`]. Both
//! [`crate::LtiSystem`] implementors sweep through it: a dense
//! [`crate::StateSpace`] runs its `E = I` descriptor form.

use numkit::{c64, CancelToken, NumError, ZMat};

/// Relative residual a solve must reach to be accepted (certification).
pub(crate) const RESIDUAL_TOL: f64 = 1e-10;
/// Iterative-refinement steps per factorization before the next rung.
pub(crate) const REFINE_STEPS: usize = 2;
/// Deterministic shift perturbations before the sample is dropped.
pub(crate) const MAX_PERTURB: usize = 3;
/// Relative perturbation scale `ε` (see [`perturbed`]).
const PERTURB_EPS: f64 = 1e-8;
/// Pivot growth `max|U|/max|A|` above which a factorization is rejected
/// without solving.
pub(crate) const GROWTH_LIMIT: f64 = 1e8;

/// Per-sweep settings of the escalation ladder. The ladder's thresholds
/// (residual tolerance, refinement steps, perturbation schedule,
/// pivot-growth limit) are fixed constants; a sweep sets only its
/// cancellation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryPolicy {
    /// Cooperative cancellation token, polled once per sweep iteration
    /// (i.e. per shift, before its ladder starts). A cancelled sweep
    /// drops every not-yet-attempted shift with
    /// [`NumError::Cancelled`] instead of solving it; shifts already
    /// resolved keep their bit-identical results. `None` (the default)
    /// never cancels.
    pub cancel: Option<CancelToken>,
}

impl RecoveryPolicy {
    /// `true` once the attached [`CancelToken`] (if any) is raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// The shift actually attempted at perturbation level `j`:
/// `s·(1 + j·ε)` for nonzero `s`, `j·ε` for `s = 0`. Level 0 is the
/// requested shift unchanged.
pub(crate) fn perturbed(s: c64, j: usize) -> c64 {
    if j == 0 {
        return s;
    }
    let step = j as f64 * PERTURB_EPS;
    if s == c64::ZERO {
        c64::new(step, 0.0)
    } else {
        s.scale(1.0 + step)
    }
}

/// How one shift of a tolerant sweep was ultimately resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftOutcome {
    /// The primer factorization was reused verbatim (the shift equals
    /// the shift that primed the engine).
    Reused,
    /// The symbolic-reuse numeric refactorization fast path succeeded
    /// and certified directly.
    Refactored,
    /// A fresh full-pivot factorization was needed (this includes the
    /// priming shift itself).
    Refreshed,
    /// Accepted only after iterative refinement pulled the residual
    /// below tolerance.
    Refined,
    /// Accepted at a deterministically perturbed shift `s·(1 + j·ε)`.
    Perturbed {
        /// The perturbation level `j ≥ 1` that finally certified.
        attempts: usize,
    },
    /// Every rung failed; the sample is lost and its solution is `None`.
    Dropped,
}

impl ShiftOutcome {
    /// `true` when the sample was lost.
    pub fn is_dropped(&self) -> bool {
        matches!(self, ShiftOutcome::Dropped)
    }

    /// Short lower-case label for reports (`"reused"`, `"dropped"`, …).
    pub fn label(&self) -> &'static str {
        match self {
            ShiftOutcome::Reused => "reused",
            ShiftOutcome::Refactored => "refactored",
            ShiftOutcome::Refreshed => "refreshed",
            ShiftOutcome::Refined => "refined",
            ShiftOutcome::Perturbed { .. } => "perturbed",
            ShiftOutcome::Dropped => "dropped",
        }
    }
}

/// The per-shift record of a tolerant sweep.
///
/// Equality is *bitwise* on the floating-point fields (`NaN == NaN`
/// when the bits agree), matching the sweep's bit-identical-at-any-
/// thread-count reproducibility guarantee: two reports compare equal
/// exactly when the sweeps that produced them are indistinguishable.
#[derive(Debug, Clone)]
pub struct ShiftReport {
    /// Index into the sweep's shift list.
    pub index: usize,
    /// The shift the caller asked for.
    pub s_requested: c64,
    /// The shift actually solved (differs from `s_requested` only for
    /// [`ShiftOutcome::Perturbed`]).
    pub s_used: c64,
    /// How the ladder resolved this shift.
    pub outcome: ShiftOutcome,
    /// Certified relative residual of the accepted solution (the last
    /// observed residual, possibly `NaN`, for dropped shifts).
    pub residual: f64,
    /// 1-norm reciprocal condition estimate of the accepted
    /// factorization; `NaN` for dropped shifts.
    pub rcond: f64,
    /// Pivot growth of the accepted factorization; `NaN` for dropped
    /// shifts.
    pub pivot_growth: f64,
    /// Iterative-refinement steps spent on the accepted solution.
    pub refine_steps: usize,
    /// The last error seen while escalating (present for most dropped
    /// shifts; `None` when the drop was purely residual-driven).
    pub error: Option<NumError>,
}

impl ShiftReport {
    /// A report for a shift that produced no solution at all (panicked
    /// worker, exhausted ladder before any factorization).
    pub fn dropped(index: usize, s: c64, error: Option<NumError>) -> Self {
        ShiftReport {
            index,
            s_requested: s,
            s_used: s,
            outcome: ShiftOutcome::Dropped,
            residual: f64::NAN,
            rcond: f64::NAN,
            pivot_growth: f64::NAN,
            refine_steps: 0,
            error,
        }
    }
}

impl PartialEq for ShiftReport {
    fn eq(&self, other: &Self) -> bool {
        fn bits(x: f64) -> u64 {
            x.to_bits()
        }
        fn cbits(z: c64) -> (u64, u64) {
            (z.re.to_bits(), z.im.to_bits())
        }
        self.index == other.index
            && cbits(self.s_requested) == cbits(other.s_requested)
            && cbits(self.s_used) == cbits(other.s_used)
            && self.outcome == other.outcome
            && bits(self.residual) == bits(other.residual)
            && bits(self.rcond) == bits(other.rcond)
            && bits(self.pivot_growth) == bits(other.pivot_growth)
            && self.refine_steps == other.refine_steps
            && self.error == other.error
    }
}

/// The result of a fault-tolerant multipoint sweep: one `Option` per
/// shift (index-aligned with the request) plus the full report list.
#[derive(Debug, Clone)]
pub struct TolerantSweep {
    /// Per-shift solutions; `None` where the shift was dropped.
    pub solutions: Vec<Option<ZMat>>,
    /// Per-shift reports, index-aligned with `solutions`.
    pub reports: Vec<ShiftReport>,
}

impl TolerantSweep {
    /// Number of shifts that produced a solution.
    pub fn surviving(&self) -> usize {
        self.solutions.iter().filter(|s| s.is_some()).count()
    }

    /// Number of dropped shifts.
    pub fn dropped(&self) -> usize {
        self.solutions.len() - self.surviving()
    }

    /// `true` when every shift survived.
    pub fn is_complete(&self) -> bool {
        self.dropped() == 0
    }
}

/// Injection hook for the numerical fault harness.
///
/// Production code passes [`NoFaults`]; the `pmtbr` fault-injection
/// harness implements this to deterministically simulate singular
/// pivots, NaN contamination, solution drift, and worker panics. The
/// `attempt` argument is the ladder's factorization-attempt counter for
/// that shift (0 = first attempt), so a harness can force escalation to
/// a chosen rung by failing every earlier attempt.
pub trait SolveFault: Sync {
    /// Called before factorization attempt `attempt` of shift `index`;
    /// returning `Some(e)` makes that attempt fail with `e`.
    fn inject_error(&self, _index: usize, _attempt: usize) -> Option<NumError> {
        None
    }

    /// Called on the raw solution of attempt `attempt` before
    /// certification; may contaminate `z` in place.
    fn corrupt(&self, _index: usize, _attempt: usize, _z: &mut ZMat) {}

    /// `true` makes the worker computing shift `index` panic outright
    /// (exercising the panic-containment path).
    fn inject_panic(&self, _index: usize) -> bool {
        false
    }
}

/// The production fault hook: injects nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl SolveFault for NoFaults {}

/// Right-hand sides of a tolerant sweep: one shared matrix for every
/// shift, or one matrix per shift (input-correlated sampling).
#[derive(Debug, Clone, Copy)]
pub(crate) enum SweepRhs<'a> {
    Shared(&'a ZMat),
    PerShift(&'a [ZMat]),
}

impl SweepRhs<'_> {
    pub(crate) fn get(&self, index: usize) -> &ZMat {
        match self {
            SweepRhs::Shared(r) => r,
            SweepRhs::PerShift(rs) => &rs[index],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LtiSystem, StateSpace};
    use numkit::DMat;

    fn toy() -> StateSpace {
        StateSpace::new(
            DMat::from_diag(&[-1.0, -2.0, -5.0]),
            DMat::from_rows(&[&[1.0], &[1.0], &[1.0]]),
            DMat::from_rows(&[&[1.0, 0.5, 0.2]]),
            None,
        )
        .unwrap()
    }

    #[test]
    fn perturbation_schedule_is_relative_and_handles_zero() {
        let s = c64::new(0.0, 2.0);
        assert_eq!(perturbed(s, 0), s);
        assert!((perturbed(s, 1) - c64::new(0.0, 2.0 + 2e-8)).abs() < 1e-18);
        assert_eq!(perturbed(c64::ZERO, 2), c64::new(2e-8, 0.0));
    }

    #[test]
    fn clean_sweep_refreshes_the_primer_then_refactors() {
        let sys = toy();
        let shifts: Vec<c64> = (0..5).map(|k| c64::new(0.0, k as f64)).collect();
        let sweep = sys.solve_shifted_many_tolerant(
            &shifts,
            &sys.b.to_complex(),
            &RecoveryPolicy::default(),
            &NoFaults,
        );
        assert!(sweep.is_complete());
        assert_eq!(sweep.surviving(), 5);
        for rep in &sweep.reports {
            let expected =
                if rep.index == 0 { ShiftOutcome::Refreshed } else { ShiftOutcome::Refactored };
            assert_eq!(rep.outcome, expected, "index {}", rep.index);
            assert!(rep.residual <= 1e-10);
            assert_eq!(rep.s_used, rep.s_requested);
        }
        // Solutions match the strict path.
        let strict = sys.solve_shifted_many(&shifts, &sys.b.to_complex()).unwrap();
        for (sol, exact) in sweep.solutions.iter().zip(&strict) {
            assert_eq!(sol.as_ref().unwrap(), exact);
        }
    }

    #[test]
    fn shift_at_eigenvalue_is_perturbed_or_dropped_not_panicked() {
        let sys = toy();
        // s = -1 is an eigenvalue of A = diag(-1,-2,-5): (sI − A) singular.
        let shifts = [c64::new(-1.0, 0.0), c64::new(0.0, 1.0)];
        let sweep = sys.solve_shifted_many_tolerant(
            &shifts,
            &sys.b.to_complex(),
            &RecoveryPolicy::default(),
            &NoFaults,
        );
        assert_eq!(sweep.reports.len(), 2);
        // The exact-eigenvalue shift must resolve via perturbation (or a
        // certified direct solve if rounding saves it) — never panic.
        let rep = &sweep.reports[0];
        assert!(
            matches!(rep.outcome, ShiftOutcome::Perturbed { .. })
                || rep.outcome == ShiftOutcome::Dropped,
            "outcome {:?}",
            rep.outcome
        );
        // The healthy shift refactors on the analysis the perturbed
        // primer recorded.
        assert_eq!(sweep.reports[1].outcome, ShiftOutcome::Refactored);
    }

    struct PanicAt(usize);
    impl SolveFault for PanicAt {
        fn inject_panic(&self, index: usize) -> bool {
            index == self.0
        }
    }

    #[test]
    fn injected_panic_becomes_dropped_report() {
        let sys = toy();
        let shifts: Vec<c64> = (0..4).map(|k| c64::new(0.0, k as f64)).collect();
        let sweep = sys.solve_shifted_many_tolerant(
            &shifts,
            &sys.b.to_complex(),
            &RecoveryPolicy::default(),
            &PanicAt(2),
        );
        assert_eq!(sweep.dropped(), 1);
        assert_eq!(sweep.reports[2].outcome, ShiftOutcome::Dropped);
        assert_eq!(sweep.reports[2].error, Some(NumError::WorkerPanicked { index: 2 }));
        assert!(sweep.solutions[2].is_none());
        assert!(sweep.solutions[3].is_some());
    }

    struct DriftAll;
    impl SolveFault for DriftAll {
        fn corrupt(&self, _index: usize, attempt: usize, z: &mut ZMat) {
            if attempt == 0 {
                for i in 0..z.nrows() {
                    for j in 0..z.ncols() {
                        z[(i, j)] = z[(i, j)].scale(1.0 + 1e-5);
                    }
                }
            }
        }
    }

    #[test]
    fn drift_contamination_is_repaired_by_refinement() {
        let sys = toy();
        let shifts = [c64::new(0.0, 0.5)];
        let sweep = sys.solve_shifted_many_tolerant(
            &shifts,
            &sys.b.to_complex(),
            &RecoveryPolicy::default(),
            &DriftAll,
        );
        assert!(sweep.is_complete());
        assert_eq!(sweep.reports[0].outcome, ShiftOutcome::Refined);
        assert!(sweep.reports[0].refine_steps >= 1);
        assert!(sweep.reports[0].residual <= 1e-10);
    }
}
