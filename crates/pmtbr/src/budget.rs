//! Deterministic work budgets for the reduction pipeline.
//!
//! A [`Budget`] caps how much numerical work [`crate::pipeline::run`]
//! may spend, measured **exclusively** in the deterministic `obs`
//! counters — LU factorizations, Jacobi SVD sweeps, retained sample
//! bytes — never wall-clock time. Because every counter is a pure
//! function of the inputs (independent of thread scheduling), a
//! budget-limited run is bit-identical at any thread count and
//! reproduces exactly: the same run either always fits the budget or
//! always exhausts it at the same point.
//!
//! Exhaustion is graceful by design: the pipeline truncates work it has
//! not started yet (e.g. sample nodes beyond the LU cap), records the
//! exhausted resource in [`crate::PipelineReport::budget_exhausted`],
//! and still returns a best-effort reduced model. Only a budget that
//! leaves room for *no* work at all turns into
//! [`numkit::NumError::BudgetExhausted`].

/// Caps on the deterministic work counters a pipeline run may consume.
///
/// `None` caps are unlimited; [`Budget::default`] is fully unlimited.
///
/// ```
/// use pmtbr::Budget;
///
/// let b = Budget { max_lu_factors: Some(8), ..Budget::default() };
/// assert_eq!(b.max_lu_factors, Some(8));
/// assert!(b.max_svd_sweeps.is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    /// Cap on successful numeric LU factorizations (`LU_FACTOR`).
    /// Enforced *a priori*: the sweep only attempts as many sample
    /// nodes as the cap, so the limit is deterministic even though
    /// recovery rungs may refactor.
    pub max_lu_factors: Option<u64>,
    /// Cap on one-sided Jacobi SVD sweeps (`SVD_SWEEPS`). The
    /// compressor ladder clamps each rung's sweep cap to the remaining
    /// budget and falls back to the (SVD-free) incremental compressor
    /// when nothing remains.
    pub max_svd_sweeps: Option<u64>,
    /// Cap on retained weighted sample bytes (`SAMPLE_BYTES`).
    /// Recorded post-hoc: an overrun marks the report but never aborts
    /// a run that already holds the samples.
    pub max_sample_bytes: Option<u64>,
}

/// Scopes a [`Budget`] to one pipeline run by snapshotting the
/// process-global counters at construction; all remaining-work queries
/// are counter deltas against that baseline (no wall clock anywhere).
pub(crate) struct BudgetTracker<'a> {
    budget: &'a Budget,
    start: obs::counters::Snapshot,
}

impl<'a> BudgetTracker<'a> {
    pub(crate) fn start(budget: &'a Budget) -> Self {
        BudgetTracker { budget, start: obs::counters::snapshot() }
    }

    /// Work spent *by this run* on counter `c`.
    fn spent(&self, c: obs::Counter) -> u64 {
        obs::counters::snapshot().delta(&self.start).get(c)
    }

    /// SVD sweeps still allowed, `None` when unlimited.
    pub(crate) fn remaining_svd_sweeps(&self) -> Option<u64> {
        self.budget
            .max_svd_sweeps
            .map(|cap| cap.saturating_sub(self.spent(obs::Counter::SvdSweeps)))
    }

    /// The first budgeted resource this run has overrun, if any —
    /// recorded into the pipeline report after the fact.
    pub(crate) fn exhausted(&self) -> Option<&'static str> {
        let over = |cap: Option<u64>, c: obs::Counter| cap.is_some_and(|cap| self.spent(c) > cap);
        if over(self.budget.max_lu_factors, obs::Counter::LuFactor) {
            Some("lu-factorizations")
        } else if over(self.budget.max_svd_sweeps, obs::Counter::SvdSweeps) {
            Some("svd-sweeps")
        } else if over(self.budget.max_sample_bytes, obs::Counter::SampleBytes) {
            Some("sample-bytes")
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::default();
        let t = BudgetTracker::start(&b);
        assert_eq!(t.exhausted(), None);
        assert_eq!(t.remaining_svd_sweeps(), None);
    }

    #[test]
    fn caps_count_off_the_tracker_baseline() {
        // Counters are process-global and other tests in this binary
        // run SVDs concurrently, so assert only monotone-safe facts:
        // headroom never exceeds the cap, and overrun is sticky.
        let b = Budget { max_svd_sweeps: Some(5), ..Budget::default() };
        let t = BudgetTracker::start(&b);
        assert!(t.remaining_svd_sweeps().is_some_and(|r| r <= 5));
        obs::counters::add(obs::Counter::SvdSweeps, 6);
        assert_eq!(t.remaining_svd_sweeps(), Some(0));
        assert_eq!(t.exhausted(), Some("svd-sweeps"));
    }
}
