//! The multipoint shifted-solve engine: one symbolic analysis, many
//! numeric factorizations, optional thread fan-out.
//!
//! Every multipoint algorithm in this workspace — PMTBR sampling,
//! frequency-response sweeps, rational Krylov — spends its time solving
//! `(sₖ·E − A)·Z = Rₖ` at a list of shifts. The naive loop pays three
//! per-shift costs that are actually shift-independent:
//!
//! 1. building and sorting a fresh triplet list for the pencil,
//! 2. the symbolic LU analysis (DFS reach, fill pattern, pivot search),
//! 3. serial execution even though the shifts are independent.
//!
//! [`ShiftSolveEngine`] eliminates all three: the pencil pattern is merged
//! once ([`ShiftedPencilAssembler`]), the symbolic analysis from the first
//! shift is reused by [`sparsekit::SymbolicLu::refactor`] at every other
//! shift (with an automatic fall back to a fresh factorization if a frozen
//! pivot vanishes), and the per-shift work is fanned across a scoped
//! thread pool.
//!
//! # Determinism
//!
//! Results are index-ordered and bit-identical for every thread count:
//! the first shift is factored (and its symbolic analysis recorded) on the
//! calling thread before any fan-out, so each remaining shift performs
//! exactly the same arithmetic regardless of how work is scheduled.

use numkit::par::{par_map_with, try_par_map_with};
use numkit::{c64, NumError, ZMat};
use sparsekit::{residual_norm, residual_norm_transpose, SparseLu, SymbolicLu};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use crate::descriptor::ShiftedPencilAssembler;
use crate::tolerant::{
    perturbed, RecoveryPolicy, ShiftOutcome, ShiftReport, SolveFault, SweepRhs, TolerantSweep,
    GROWTH_LIMIT, MAX_PERTURB, REFINE_STEPS, RESIDUAL_TOL,
};
use crate::Descriptor;

/// A reusable engine for solving `(s·E − A)·Z = R` at many shifts.
///
/// Create one per sweep via [`ShiftSolveEngine::new`] (or
/// [`ShiftSolveEngine::new_transposed`] for observability-side solves) and
/// call [`solve_many`](ShiftSolveEngine::solve_many) /
/// [`solve_pairs`](ShiftSolveEngine::solve_pairs).
#[derive(Debug)]
pub struct ShiftSolveEngine {
    asm: ShiftedPencilAssembler,
    symbolic: OnceLock<SymbolicLu>,
    /// The shift and factorization that primed the tolerant ladder —
    /// reused verbatim ([`ShiftOutcome::Reused`]) when another sweep
    /// index requests the identical shift.
    primer: OnceLock<(c64, SparseLu<c64>)>,
}

impl ShiftSolveEngine {
    /// Engine for the forward pencil `s·E − A` of `sys`.
    pub fn new(sys: &Descriptor) -> Self {
        ShiftSolveEngine {
            asm: sys.pencil_assembler(),
            symbolic: OnceLock::new(),
            primer: OnceLock::new(),
        }
    }

    /// Engine for the transposed pencil `(s·E − A)ᵀ` of `sys`.
    pub fn new_transposed(sys: &Descriptor) -> Self {
        ShiftSolveEngine {
            asm: sys.pencil_assembler_transpose(),
            symbolic: OnceLock::new(),
            primer: OnceLock::new(),
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.asm.dim()
    }

    /// `true` once a symbolic analysis has been recorded.
    pub fn is_primed(&self) -> bool {
        self.symbolic.get().is_some()
    }

    /// Factors the pencil at one shift, reusing the recorded symbolic
    /// analysis when available. The first successful fresh factorization
    /// records its analysis for subsequent calls.
    ///
    /// # Errors
    ///
    /// [`NumError::Singular`] if `s` is a generalized eigenvalue of the
    /// pencil (after the fresh-factorization fallback also fails).
    pub fn factor(&self, s: c64) -> Result<SparseLu<c64>, NumError> {
        let a = self.asm.assemble(s);
        if let Some(sym) = self.symbolic.get() {
            match sym.refactor(&a) {
                Ok(f) => return Ok(f),
                // A frozen pivot vanished at this particular shift:
                // fall back to a fresh factorization with pivoting.
                Err(NumError::Singular { .. }) => {}
                Err(e) => return Err(e),
            }
            return SparseLu::new(&a);
        }
        let f = SparseLu::new(&a)?;
        let _ = self.symbolic.set(f.symbolic(&a));
        Ok(f)
    }

    /// Solves `(s·E − A)·Z = rhs` at one shift.
    ///
    /// # Errors
    ///
    /// See [`ShiftSolveEngine::factor`]; shape errors from the solve.
    pub fn solve(&self, s: c64, rhs: &ZMat) -> Result<ZMat, NumError> {
        self.factor(s)?.solve_mat(rhs)
    }

    /// Solves the pencil at every shift against one shared right-hand
    /// side, fanning across `threads` workers
    /// ([`numkit::par::num_threads`] picks a default). Output order
    /// matches `shifts`, and the numeric results are identical for every
    /// thread count.
    ///
    /// # Errors
    ///
    /// The first per-shift failure, in index order.
    pub fn solve_many(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        threads: usize,
    ) -> Result<Vec<ZMat>, NumError> {
        self.run_indexed(shifts, threads, |i, f| f.solve_mat(rhs).map(|z| (i, z)))
    }

    /// Solves the pencil at every shift against a per-shift right-hand
    /// side (`rhss[k]` pairs with `shifts[k]`) — the shape needed by
    /// input-correlated sampling, where each sample point carries its own
    /// weighted excitation.
    ///
    /// # Errors
    ///
    /// [`NumError::ShapeMismatch`] if the lists differ in length; else as
    /// [`ShiftSolveEngine::solve_many`].
    pub fn solve_pairs(
        &self,
        shifts: &[c64],
        rhss: &[ZMat],
        threads: usize,
    ) -> Result<Vec<ZMat>, NumError> {
        if shifts.len() != rhss.len() {
            return Err(NumError::ShapeMismatch {
                operation: "shift engine solve_pairs",
                left: (shifts.len(), 1),
                right: (rhss.len(), 1),
            });
        }
        self.run_indexed(shifts, threads, |i, f| f.solve_mat(&rhss[i]).map(|z| (i, z)))
    }

    /// Shared driver: primes the symbolic analysis with the first shift on
    /// the calling thread, then fans the remaining shifts across workers.
    fn run_indexed<F>(&self, shifts: &[c64], threads: usize, per_shift: F) -> Result<Vec<ZMat>, NumError>
    where
        F: Fn(usize, &SparseLu<c64>) -> Result<(usize, ZMat), NumError> + Sync,
    {
        if shifts.is_empty() {
            return Ok(Vec::new());
        }
        // Prime deterministically: the first shift's factorization seeds
        // the symbolic analysis before any worker runs.
        let first = {
            let _sp = obs::item_span("shift", 0, "solve");
            per_shift(0, &self.factor(shifts[0])?)?
        };
        let rest = par_map_with(shifts.len() - 1, threads, |i| {
            let _sp = obs::item_span("shift", (i + 1) as u64, "solve");
            self.factor(shifts[i + 1]).and_then(|f| per_shift(i + 1, &f))
        });
        let mut out = Vec::with_capacity(shifts.len());
        out.push(first.1);
        for r in rest {
            out.push(r?.1);
        }
        Ok(out)
    }

    /// Fault-tolerant multipoint solve: runs the per-shift escalation
    /// ladder at every shift and always returns, with `None` (and a
    /// [`ShiftOutcome::Dropped`] report) for shifts no rung could save.
    ///
    /// The ladder rungs, in order:
    ///
    /// 1. **reuse** — if the shift bit-equals the shift that primed the
    ///    engine, the primer factorization is reused verbatim;
    /// 2. **refactor** — numeric-only refactorization on the recorded
    ///    symbolic analysis (frozen pivot order);
    /// 3. **refresh** — fresh factorization with full partial pivoting;
    /// 4. **refine** — up to two iterative-refinement steps on whichever
    ///    factorization solved, until the relative residual is at most
    ///    `1e-10`;
    /// 5. **perturb** — deterministic shift nudges `s·(1 + j·ε)`,
    ///    `ε = 1e-8`, `j = 1..=3`, each with a fresh factorization;
    /// 6. **drop** — mark the sample failed.
    ///
    /// Every accepted solution carries a certified relative residual
    /// (see [`sparsekit::residual_norm`]) and a 1-norm reciprocal
    /// condition estimate; factorizations whose pivot growth exceeds
    /// `1e8` are rejected without solving.
    ///
    /// # Determinism
    ///
    /// Shifts are laddered sequentially on the calling thread until one
    /// primes the engine (records its symbolic analysis and primer
    /// factorization); only then do the remaining shifts fan out, and
    /// workers never mutate engine state. Results — values, outcomes,
    /// and reports — are therefore bit-identical for every thread
    /// count. Worker panics (real or injected via [`SolveFault`]) are
    /// contained per index and surfaced as dropped samples carrying
    /// [`NumError::WorkerPanicked`].
    pub fn solve_many_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        threads: usize,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> TolerantSweep {
        self.tolerant_driver(shifts, SweepRhs::Shared(rhs), None, threads, policy, faults).0
    }

    /// Fault-tolerant *two-sided* multipoint solve sharing one
    /// factorization per shift: at every shift the ladder factors the
    /// forward pencil `s·E − A` once, solves it against `rhs` for the
    /// controllability side, and solves the *transposed* system
    /// `(s·E − A)ᵀ·Z = rhs_t` through the same `P·A = L·U`
    /// ([`sparsekit::SparseLu::solve_mat_transpose`]) for the
    /// observability side — halving the LU work of the balanced and
    /// cross-Gramian double sweeps.
    ///
    /// A rung is accepted only when *both* sides certify their residual,
    /// so the two returned sweeps drop the same shifts, carry identical
    /// reports, and use the same (possibly perturbed) `s_used` on both
    /// sides — eliminating the side-mismatch a pair of independent
    /// sweeps could produce under perturbation.
    ///
    /// Determinism matches [`ShiftSolveEngine::solve_many_tolerant`]:
    /// index-ordered, bit-identical for every thread count.
    pub fn solve_two_sided_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        rhs_t: &ZMat,
        threads: usize,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> (TolerantSweep, TolerantSweep) {
        let (fwd, trans) =
            self.tolerant_driver(shifts, SweepRhs::Shared(rhs), Some(rhs_t), threads, policy, faults);
        // The driver always produces the transpose sweep when rhs_t is
        // given; an empty sweep can only mean an empty shift list.
        (fwd, trans.unwrap_or(TolerantSweep { solutions: Vec::new(), reports: Vec::new() }))
    }

    /// Fault-tolerant multipoint solve with a per-shift right-hand side
    /// (`rhss[k]` pairs with `shifts[k]`) — the tolerant counterpart of
    /// [`ShiftSolveEngine::solve_pairs`], with the same ladder,
    /// determinism, and panic-containment guarantees as
    /// [`ShiftSolveEngine::solve_many_tolerant`].
    ///
    /// # Errors
    ///
    /// [`NumError::ShapeMismatch`] if the lists differ in length; the
    /// sweep itself always returns (drops are reported, not raised).
    pub fn solve_pairs_tolerant(
        &self,
        shifts: &[c64],
        rhss: &[ZMat],
        threads: usize,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> Result<TolerantSweep, NumError> {
        if shifts.len() != rhss.len() {
            return Err(NumError::ShapeMismatch {
                operation: "shift engine solve_pairs_tolerant",
                left: (shifts.len(), 1),
                right: (rhss.len(), 1),
            });
        }
        Ok(self
            .tolerant_driver(shifts, SweepRhs::PerShift(rhss), None, threads, policy, faults)
            .0)
    }

    /// Shared tolerant driver behind the shared-rhs, per-shift-rhs, and
    /// two-sided entry points. When `trans_rhs` is given, every accepted
    /// shift also carries an observability solution computed through the
    /// same factorization, returned as a second sweep with cloned
    /// reports.
    fn tolerant_driver(
        &self,
        shifts: &[c64],
        rhs: SweepRhs<'_>,
        trans_rhs: Option<&ZMat>,
        threads: usize,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> (TolerantSweep, Option<TolerantSweep>) {
        let n = shifts.len();
        let mut solutions: Vec<Option<ZMat>> = Vec::with_capacity(n);
        let mut solutions_t: Vec<Option<ZMat>> = Vec::with_capacity(n);
        let mut reports: Vec<ShiftReport> = Vec::with_capacity(n);
        // Sequential priming: ladder shifts on the calling thread until
        // one succeeds with a fresh factorization (recording symbolic +
        // primer). A dropped shift just moves priming to the next index.
        let mut k = 0;
        while k < n && !self.is_primed() {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                self.ladder(k, shifts[k], rhs.get(k), trans_rhs, policy, faults, true)
            }));
            let (sol, sol_t, rep) = attempt.unwrap_or_else(|_| {
                (
                    None,
                    None,
                    ShiftReport::dropped(
                        k,
                        shifts[k],
                        Some(NumError::WorkerPanicked { index: k }),
                    ),
                )
            });
            solutions.push(sol);
            solutions_t.push(sol_t);
            reports.push(rep);
            k += 1;
        }
        // Fan out the rest; workers only read the primed state.
        let rest = try_par_map_with(n - k, threads, |i| {
            Ok(self.ladder(k + i, shifts[k + i], rhs.get(k + i), trans_rhs, policy, faults, false))
        });
        for (i, r) in rest.into_iter().enumerate() {
            let index = k + i;
            let (sol, sol_t, rep) = match r {
                Ok(triple) => triple,
                // The worker panicked (contained by the pool): the
                // sample is dropped with the panic recorded.
                Err(_) => (
                    None,
                    None,
                    ShiftReport::dropped(
                        index,
                        shifts[index],
                        Some(NumError::WorkerPanicked { index }),
                    ),
                ),
            };
            solutions.push(sol);
            solutions_t.push(sol_t);
            reports.push(rep);
        }
        let trans = trans_rhs
            .map(|_| TolerantSweep { solutions: solutions_t, reports: reports.clone() });
        (TolerantSweep { solutions, reports }, trans)
    }

    /// One shift through the escalation ladder. `prime` is true only
    /// during the sequential priming phase; an accepted fresh
    /// factorization then records the engine's symbolic analysis and
    /// primer cache. With `trans_rhs`, a rung must also certify the
    /// transposed solve through the same factorization before it is
    /// accepted.
    #[allow(clippy::too_many_arguments)]
    fn ladder(
        &self,
        index: usize,
        s_req: c64,
        rhs: &ZMat,
        trans_rhs: Option<&ZMat>,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
        prime: bool,
    ) -> (Option<ZMat>, Option<ZMat>, ShiftReport) {
        #[derive(Clone, Copy, PartialEq)]
        enum Cand {
            Reuse,
            Refactor,
            Fresh,
        }
        // Root span opened before the panic hook so an injected unwind
        // still records the ladder's exit event (the guard flushes during
        // unwinding, and the fault plan is deterministic).
        let mut sp = obs::item_span("shift", index as u64, "ladder");
        // Cooperative cancellation, polled once per sweep iteration:
        // a raised token drops this shift before any factorization work.
        if policy.is_cancelled() {
            obs::counters::add(obs::Counter::ShiftDropped, 1);
            sp.field_str("outcome", "dropped");
            return (None, None, ShiftReport::dropped(index, s_req, Some(NumError::Cancelled)));
        }
        if faults.inject_panic(index) {
            // numlint:allow(PANIC01, ERR01, PANIC02) deliberate fault injection; contained by the pool as NumError::WorkerPanicked
            panic!("injected worker panic at shift index {index}");
        }
        // `attempt` counts factorization attempts for the fault hooks:
        // at a primed engine, 0 = refactor, 1 = fresh, 1+j = fresh at
        // perturbation level j.
        let mut attempt = 0usize;
        let mut last_err: Option<NumError> = None;
        let mut last_residual = f64::NAN;
        for level in 0..=MAX_PERTURB {
            let s = perturbed(s_req, level);
            let a = self.asm.assemble(s);
            let mut cands = Vec::with_capacity(3);
            if level == 0 {
                if matches!(self.primer.get(), Some((ps, _)) if *ps == s) {
                    cands.push(Cand::Reuse);
                }
                if self.symbolic.get().is_some() {
                    cands.push(Cand::Refactor);
                }
            }
            cands.push(Cand::Fresh);
            for cand in cands {
                let this_attempt = attempt;
                attempt += 1;
                if obs::is_enabled() {
                    let cand_label = match cand {
                        Cand::Reuse => "reuse",
                        Cand::Refactor => "refactor",
                        Cand::Fresh => "fresh",
                    };
                    obs::event(
                        "rung",
                        vec![
                            ("level", obs::Value::U64(level as u64)),
                            ("cand", obs::Value::Str(cand_label.to_string())),
                            ("attempt", obs::Value::U64(this_attempt as u64)),
                        ],
                    );
                }
                if let Some(e) = faults.inject_error(index, this_attempt) {
                    last_err = Some(e);
                    continue;
                }
                // `owned` holds factorizations computed here (refactor /
                // fresh); the reuse rung borrows the engine's primer.
                let owned: Option<SparseLu<c64>> = match cand {
                    Cand::Reuse => None,
                    Cand::Refactor => match self.symbolic.get() {
                        Some(sym) => match sym.refactor(&a) {
                            Ok(f) => Some(f),
                            Err(e) => {
                                last_err = Some(e);
                                continue;
                            }
                        },
                        None => continue,
                    },
                    Cand::Fresh => match SparseLu::new(&a) {
                        Ok(f) => Some(f),
                        Err(e) => {
                            last_err = Some(e);
                            continue;
                        }
                    },
                };
                let f: &SparseLu<c64> = match (&owned, self.primer.get()) {
                    (Some(f), _) => f,
                    (None, Some((_, pf))) => pf,
                    (None, None) => continue,
                };
                // A factorization with explosive pivot growth is not
                // worth certifying — escalate immediately.
                if !(f.pivot_growth() <= GROWTH_LIMIT) {
                    continue;
                }
                let mut x = match f.solve_mat(rhs) {
                    Ok(x) => x,
                    Err(e) => {
                        last_err = Some(e);
                        continue;
                    }
                };
                faults.corrupt(index, this_attempt, &mut x);
                let (residual, refine_steps) = certify(
                    residual_norm(&a, &x, rhs),
                    || f.refine_mat(&a, rhs, &mut x),
                    &mut last_err,
                );
                last_residual = residual;
                if residual.is_finite() && residual <= RESIDUAL_TOL {
                    // Two-sided rungs: the observability side must
                    // certify through the SAME factorization (transpose
                    // solve + refinement) or the rung escalates as a
                    // whole, keeping both sides at one s_used.
                    let mut x_t: Option<ZMat> = None;
                    if let Some(bt) = trans_rhs {
                        let mut xt = match f.solve_mat_transpose(bt) {
                            Ok(xt) => xt,
                            Err(e) => {
                                last_err = Some(e);
                                continue;
                            }
                        };
                        let (res_t, _) = certify(
                            residual_norm_transpose(&a, &xt, bt),
                            || f.refine_mat_transpose(&a, bt, &mut xt),
                            &mut last_err,
                        );
                        if !(res_t.is_finite() && res_t <= RESIDUAL_TOL) {
                            last_residual = res_t;
                            continue;
                        }
                        sp.field_f64("residual_t", res_t);
                        x_t = Some(xt);
                    }
                    let outcome = if level > 0 {
                        ShiftOutcome::Perturbed { attempts: level }
                    } else if refine_steps > 0 {
                        ShiftOutcome::Refined
                    } else {
                        match cand {
                            Cand::Reuse => ShiftOutcome::Reused,
                            Cand::Refactor => ShiftOutcome::Refactored,
                            Cand::Fresh => ShiftOutcome::Refreshed,
                        }
                    };
                    let rcond = f.rcond1_estimate(&a);
                    let pivot_growth = f.pivot_growth();
                    if prime {
                        // Priming always accepts through a fresh
                        // factorization (nothing else exists yet):
                        // record its symbolic analysis and cache it as
                        // the primer for the reuse rung.
                        if let Some(fresh) = owned {
                            let _ = self.symbolic.set(fresh.symbolic(&a));
                            let _ = self.primer.set((s, fresh));
                        }
                    }
                    if cand == Cand::Reuse {
                        obs::counters::add(obs::Counter::LuReuseHit, 1);
                    }
                    sp.field_str("outcome", outcome.label());
                    sp.field_f64("residual", residual);
                    sp.field_u64("refine_steps", refine_steps as u64);
                    sp.field_u64("level", level as u64);
                    sp.field_f64("growth", pivot_growth);
                    sp.field_f64("rcond", rcond);
                    let report = ShiftReport {
                        index,
                        s_requested: s_req,
                        s_used: s,
                        outcome,
                        residual,
                        rcond,
                        pivot_growth,
                        refine_steps,
                        error: None,
                    };
                    return (Some(x), x_t, report);
                }
            }
        }
        obs::counters::add(obs::Counter::ShiftDropped, 1);
        sp.field_str("outcome", "dropped");
        sp.field_f64("residual", last_residual);
        let mut report = ShiftReport::dropped(index, s_req, last_err);
        report.residual = last_residual;
        (None, None, report)
    }
}

/// The ladder's certify loop, shared by the forward and transposed
/// solves: from the solution's first residual, refines (`refine` does
/// one step and returns the new residual) until the residual meets
/// [`RESIDUAL_TOL`], stops shrinking, or [`REFINE_STEPS`] are spent. A
/// refinement error lands in `last_err` and ends the loop. Returns the
/// final residual and the steps taken.
fn certify(
    mut residual: f64,
    mut refine: impl FnMut() -> Result<f64, NumError>,
    last_err: &mut Option<NumError>,
) -> (f64, usize) {
    let mut steps = 0;
    while residual.is_finite() && residual > RESIDUAL_TOL && steps < REFINE_STEPS {
        match refine() {
            Ok(next) => {
                steps += 1;
                if !(next < residual) {
                    return (next.min(residual), steps);
                }
                residual = next;
            }
            Err(e) => {
                *last_err = Some(e);
                break;
            }
        }
    }
    (residual, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numkit::DMat;
    use sparsekit::Triplet;

    /// RC ladder descriptor: n nodes, unit R chain, unit C to ground.
    fn rc_ladder(n: usize) -> Descriptor {
        let mut g = Triplet::new(n, n);
        for i in 0..n - 1 {
            g.push(i, i, 1.0);
            g.push(i + 1, i + 1, 1.0);
            g.push(i, i + 1, -1.0);
            g.push(i + 1, i, -1.0);
        }
        g.push(0, 0, 1.0);
        let a = {
            let mut t = Triplet::new(n, n);
            for (i, j, v) in g.to_csr().iter() {
                t.push(i, j, -v);
            }
            t.to_csr()
        };
        let mut cm = Triplet::new(n, n);
        for i in 0..n {
            cm.push(i, i, 1.0);
        }
        let mut b = DMat::zeros(n, 1);
        b[(0, 0)] = 1.0;
        let mut c = DMat::zeros(1, n);
        c[(0, n - 1)] = 1.0;
        Descriptor::new(cm.to_csr(), a, b, c, None).unwrap()
    }

    #[test]
    fn engine_matches_per_shift_factorization() {
        let sys = rc_ladder(12);
        let rhs = sys.b.to_complex();
        let shifts: Vec<c64> = (0..7).map(|k| c64::new(0.0, 0.3 * k as f64)).collect();
        let engine = ShiftSolveEngine::new(&sys);
        let zs = engine.solve_many(&shifts, &rhs, 1).unwrap();
        assert!(engine.is_primed());
        for (k, &s) in shifts.iter().enumerate() {
            let direct = sys.solve_shifted(s, &rhs).unwrap();
            assert!((&zs[k] - &direct).norm_max() < 1e-10, "shift {k}");
        }
    }

    #[test]
    fn engine_deterministic_across_thread_counts() {
        let sys = rc_ladder(15);
        let rhs = sys.b.to_complex();
        let shifts: Vec<c64> = (0..9).map(|k| c64::new(0.01, (k * k) as f64 * 0.1)).collect();
        let baseline =
            ShiftSolveEngine::new(&sys).solve_many(&shifts, &rhs, 1).unwrap();
        for threads in [2usize, 4, 8] {
            let zs = ShiftSolveEngine::new(&sys).solve_many(&shifts, &rhs, threads).unwrap();
            for (k, (z, b)) in zs.iter().zip(&baseline).enumerate() {
                assert_eq!(z, b, "threads {threads} shift {k}: must be bit-identical");
            }
        }
    }

    #[test]
    fn engine_transpose_matches_direct() {
        let sys = rc_ladder(10);
        let rhs = sys.c.adjoint().to_complex();
        let shifts = [c64::new(0.0, 0.5), c64::new(0.0, 2.0)];
        let engine = ShiftSolveEngine::new_transposed(&sys);
        let zs = engine.solve_many(&shifts, &rhs, 2).unwrap();
        for (k, &s) in shifts.iter().enumerate() {
            let direct = sys.solve_shifted_transpose(s, &rhs).unwrap();
            assert!((&zs[k] - &direct).norm_max() < 1e-10, "shift {k}");
        }
    }

    #[test]
    fn engine_pairs_uses_matching_rhs() {
        let sys = rc_ladder(8);
        let shifts = [c64::new(0.0, 1.0), c64::new(0.0, 3.0)];
        let r0 = sys.b.to_complex();
        let r1 = sys.b.to_complex().scale(2.0);
        let zs = ShiftSolveEngine::new(&sys)
            .solve_pairs(&shifts, &[r0.clone(), r1.clone()], 2)
            .unwrap();
        let d0 = sys.solve_shifted(shifts[0], &r0).unwrap();
        let d1 = sys.solve_shifted(shifts[1], &r1).unwrap();
        assert!((&zs[0] - &d0).norm_max() < 1e-10);
        assert!((&zs[1] - &d1).norm_max() < 1e-10);
        assert!(ShiftSolveEngine::new(&sys)
            .solve_pairs(&shifts, &[r0], 1)
            .is_err());
    }

    #[test]
    fn assembler_matches_triplet_construction() {
        let sys = rc_ladder(9);
        let asm = sys.pencil_assembler();
        for &w in &[0.0, 0.7, 13.0] {
            let s = c64::new(0.0, w);
            let fast = asm.assemble(s).to_dense();
            let slow = {
                let mut t = Triplet::<c64>::new(9, 9);
                for (i, j, v) in sys.e.iter() {
                    t.push(i, j, s.scale(v));
                }
                for (i, j, v) in sys.a.iter() {
                    t.push(i, j, c64::from_real(-v));
                }
                t.to_csc().to_dense()
            };
            for i in 0..9 {
                for j in 0..9 {
                    assert!((fast[(i, j)] - slow[(i, j)]).abs() < 1e-15, "({i},{j}) w={w}");
                }
            }
        }
    }
}
