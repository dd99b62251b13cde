//! Greedy adaptive frequency selection with a frequency-aware stopping
//! rule (`Sampling::Greedy`).
//!
//! Fixed-grid quadrature spends one LU-backed shifted solve per node
//! whether or not the node teaches the basis anything. The greedy stage
//! inverts the cost model (greedy rational approximation in the spirit
//! of Bělík/Chen/Narayan): every *candidate* frequency is scored by a
//! cheap solve-free error surrogate, and only the argmax candidate is
//! promoted to a real tolerant solve. Selection stops when the surrogate
//! and the reduced transfer function have both stabilized over the band
//! — the frequency-aware convergence criterion of the extended-Krylov
//! balanced-truncation literature (Giamouzis et al.) — or when the hard
//! shift budget runs out.
//!
//! The candidate pool reuses `Sampling::Linear`'s midpoint rule, and by
//! default it *is* the shift budget's own quadrature grid: greedy then
//! orders the grid best-first and the stopping rule decides how much of
//! it to spend, so `tol = 0` with a pool-sized budget reproduces the
//! fixed grid exactly. A denser pool (`pool > max_shifts`) buys
//! off-grid placement freedom at the cost of a lumpier Voronoi
//! quadrature — useful for sharply peaked responses — and leaves spare
//! candidates for fault re-entry.
//!
//! # The surrogate
//!
//! With `V` an orthonormal basis of the realified samples accepted so
//! far (truncated to its [`SURROGATE_CAP`] dominant directions), the
//! one-sided Galerkin reduced model at a candidate `s = jω_c` is
//!
//! ```text
//! (Vᵀ(sE − A)V)·x̂(s) = VᵀB ,      Ĥ(s) = C·V·x̂(s) + D ,
//! r(s) = B − (sE − A)·V·x̂(s) ,
//!             ‖r(s)‖_F                    ‖B‖_F
//! η(s) = ─────────────────────────── · ──────────
//!        |s|·‖EVx̂‖_F + ‖AVx̂‖_F       ‖Ĥ(s)‖_F
//! ```
//!
//! (see [`Surrogate::score_round`] for why each factor is there).
//!
//! Everything here is factorization-free: `E·V` and `A·V` come from two
//! [`LtiSystem::apply_shifted`] pencil applications per round (cheap
//! sparse matvecs), each candidate then costs one `k × k` dense solve
//! with `k ≤ SURROGATE_CAP` and its share of three batched real `n × k`
//! products (`E·V`, `A·V` and `C·V` against the round's stacked
//! solutions). Every operand is real, so the surrogate is real apart
//! from the shift. The LU factorizations counted by
//! `obs::Counter::LuFactor` are spent only on *accepted* shifts, inside
//! the same tolerant escalation ladder every fixed-grid sweep uses — so
//! greedy composes with the recovery ladder (a dropped shift re-enters
//! selection instead of silently shrinking the basis), with
//! `pmtbr::Budget`'s LU node cap, and with [`crate::FaultPlan`] chaos
//! testing.
//!
//! The driver is strictly sequential (the parallelism lives inside each
//! tolerant solve), so the selected shifts, the trace events, and the
//! `GREEDY_SCORED` / `GREEDY_ACCEPTED` counters are bit-identical at
//! any thread count.
//!
//! See `docs/SAMPLING.md` for the full derivation and the paper-to-code
//! map.

use lti::{realify_columns, LtiSystem, RecoveryPolicy, ShiftReport, SolveFault};
use numkit::{c64, DMat, Lu, NumError, ZMat};

use crate::order_control::IncrementalBasis;
use crate::pipeline::{stack_samples, Solved, SweptSamples};
use crate::sampling::with_room;
use crate::SamplePoint;

/// Column cap on the surrogate basis `V`: per-candidate scoring solves a
/// `k × k` system with `k ≤ SURROGATE_CAP`, so scoring stays cheap even
/// when many wide (multi-port) sample blocks have been accepted.
pub(crate) const SURROGATE_CAP: usize = 1024;

/// Realified-column drop tolerance, shared with the pipeline sweep.
const REALIFY_TOL: f64 = 1e-13;

/// Re-indexes the caller's fault hook so each candidate keeps its own
/// deterministic fault stream: greedy promotes shifts through
/// *single-shift* tolerant solves, whose internal index is always 0, and
/// without the offset every solve of a run would share fault decisions.
struct OffsetFaults<'a> {
    inner: &'a dyn SolveFault,
    offset: usize,
}

impl SolveFault for OffsetFaults<'_> {
    fn inject_error(&self, index: usize, attempt: usize) -> Option<NumError> {
        self.inner.inject_error(self.offset + index, attempt)
    }

    fn corrupt(&self, index: usize, attempt: usize, z: &mut ZMat) {
        self.inner.corrupt(self.offset + index, attempt, z);
    }

    fn inject_panic(&self, index: usize) -> bool {
        self.inner.inject_panic(self.offset + index)
    }
}

/// Per-round projected quantities, rebuilt after every accepted shift.
///
/// Every operand is real — `E`, `A`, `B`, `C` and the realified basis
/// `V` — so the surrogate stays in real arithmetic apart from the shift:
/// only the `k × k` projected pencil `s·VᵀEV − VᵀAV` and its solution
/// are complex.
struct Surrogate {
    /// `E·V` and `A·V`, recovered from two pencil applications of the
    /// orthonormal surrogate basis `V` (≤ [`SURROGATE_CAP`] columns).
    ev: DMat,
    av: DMat,
    /// Projected pencil factors `VᵀEV`, `VᵀAV` (`k × k`).
    er: DMat,
    ar: DMat,
    /// Projected input `VᵀB` (`k × p`), the right-hand side of the
    /// complex projected solves.
    bh: ZMat,
    /// Output map `C·V` (`q × k`).
    cv: DMat,
}

impl Surrogate {
    /// Builds the round's projected model from the truncated basis.
    fn build<S: LtiSystem + ?Sized>(sys: &S, basis: &IncrementalBasis) -> Result<Surrogate, NumError> {
        let k = basis.rank().min(SURROGATE_CAP);
        let v = basis.dominant_basis(k)?;
        let vz = v.to_complex();
        // (1·E − A)·V − (0·E − A)·V = E·V ; −(0·E − A)·V = A·V. Both
        // pencil applications act on a real basis at a real shift, so
        // their imaginary parts are zeros.
        let p1 = sys.apply_shifted(c64::ONE, &vz)?;
        let p0 = sys.apply_shifted(c64::ZERO, &vz)?;
        let ev = DMat::from_fn(p1.nrows(), p1.ncols(), |i, j| p1[(i, j)].re - p0[(i, j)].re);
        let av = DMat::from_fn(p0.nrows(), p0.ncols(), |i, j| -p0[(i, j)].re);
        let vt = v.transpose();
        let er = vt.matmul(&ev)?;
        let ar = vt.matmul(&av)?;
        let bh = vt.matmul(sys.input_matrix())?.to_complex();
        let cv = sys.output_matrix().matmul(&v)?;
        Ok(Surrogate { ev, av, er, ar, bh, cv })
    }

    /// The projected solution `x̂(s) = (s·VᵀEV − VᵀAV)⁻¹·VᵀB`, or `None`
    /// when the projected pencil is singular or not finite.
    fn solve(&self, s: c64) -> Result<Option<ZMat>, NumError> {
        let k = self.er.nrows();
        let hr = ZMat::from_fn(k, k, |i, j| {
            s * c64::from_real(self.er[(i, j)]) - c64::from_real(self.ar[(i, j)])
        });
        match Lu::new(hr).and_then(|lu| lu.solve_mat(&self.bh)) {
            Ok(x) => Ok(Some(x)),
            Err(NumError::Singular { .. }) | Err(NumError::NotFinite) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Scores one round's candidates, in order: each candidate's
    /// *relative-error–aligned* pencil residual of the projected
    /// solution, and the reduced transfer function at its shift (for
    /// the frequency-aware stopping rule).
    ///
    /// Each candidate costs one `k × k` complex solve. The live
    /// candidates' solutions are then stacked as real columns
    /// `[Re x̂ | Im x̂]`, so `E·V·x̂`, `A·V·x̂` and `C·V·x̂` come out of one
    /// real product per operator for the whole round. [`Mat::matmul`]
    /// sums each output in ascending inner index and skips zero left
    /// entries, whatever the scalar type and however wide the right
    /// factor, so every candidate's slice carries exactly the bits of
    /// the complex product of the real operators with that candidate's
    /// `x̂` alone. A solution with a NaN or infinite entry takes the
    /// complex product instead, which keeps its NaN pattern.
    ///
    /// Two normalizations turn the raw residual into a useful
    /// indicator:
    ///
    /// - The raw `‖r‖ = ‖B − (sE − A)·V·x̂‖` amplifies the solution
    ///   error by the pencil's norm — at `s = jω` that grows like
    ///   `ω·‖E‖`, which would bias selection toward the top of the band
    ///   regardless of where the model is actually wrong. Dividing by
    ///   the pencil's action on the projected solution,
    ///   `|s|·‖EVx̂‖ + ‖AVx̂‖`, converts it into a backward-error-like
    ///   measure of the *solution* mismatch, uniform across the band.
    ///
    /// - The bench metric is the *relative* transfer error
    ///   `‖H − Ĥ‖/‖H‖`, and low-pass responses roll off with ω: the
    ///   same backward error produces a much larger relative output
    ///   error where `‖Ĥ(s)‖` is small. Multiplying by
    ///   `‖B‖/‖Ĥ(s)‖` keeps rolled-off candidates scoring high until
    ///   the model is relatively — not just absolutely — converged
    ///   there. (`‖B‖` makes the score invariant under input scaling;
    ///   within a round it is a constant and never reorders
    ///   candidates.)
    ///
    /// A singular projected pencil scores `+∞` — the candidate sits on
    /// a feature the basis cannot represent yet, exactly what greedy
    /// wants to sample next.
    ///
    /// [`Mat::matmul`]: numkit::Mat::matmul
    fn score_round(
        &self,
        shifts: &[c64],
        b: &ZMat,
        bnorm: f64,
        d: &ZMat,
    ) -> Result<Vec<(f64, Option<ZMat>)>, NumError> {
        let xhats = shifts.iter().map(|&s| self.solve(s)).collect::<Result<Vec<_>, _>>()?;
        let (k, p) = self.bh.shape();
        // Stack position of each candidate whose solution is finite.
        let mut slot = vec![None; shifts.len()];
        let mut live = 0;
        for (c, x) in xhats.iter().enumerate() {
            if x.as_ref().is_some_and(|x| x.is_finite()) {
                slot[c] = Some(live);
                live += 1;
            }
        }
        let mut stack = DMat::zeros(k, 2 * p * live);
        for (x, &t) in xhats.iter().zip(&slot) {
            if let (Some(x), Some(t)) = (x, t) {
                let c0 = 2 * p * t;
                for i in 0..k {
                    for j in 0..p {
                        stack[(i, c0 + j)] = x[(i, j)].re;
                        stack[(i, c0 + p + j)] = x[(i, j)].im;
                    }
                }
            }
        }
        let evx_all = self.ev.matmul(&stack)?;
        let avx_all = self.av.matmul(&stack)?;
        let cvx_all = self.cv.matmul(&stack)?;
        // Candidate `t`'s `[Re | Im]` column pair of a batched product.
        let slice = |all: &DMat, t: usize| {
            let c0 = 2 * p * t;
            ZMat::from_fn(all.nrows(), p, |i, j| c64::new(all[(i, c0 + j)], all[(i, c0 + p + j)]))
        };
        let mut scores = Vec::with_capacity(shifts.len());
        for ((&s, x), &t) in shifts.iter().zip(&xhats).zip(&slot) {
            let (evx, avx, cvx) = match (x, t) {
                (None, _) => {
                    scores.push((f64::INFINITY, None));
                    continue;
                }
                (Some(_), Some(t)) => (slice(&evx_all, t), slice(&avx_all, t), slice(&cvx_all, t)),
                (Some(x), None) => (
                    self.ev.to_complex().matmul(x)?,
                    self.av.to_complex().matmul(x)?,
                    self.cv.to_complex().matmul(x)?,
                ),
            };
            let resid = ZMat::from_fn(b.nrows(), b.ncols(), |i, j| {
                b[(i, j)] - (s * evx[(i, j)] - avx[(i, j)])
            });
            let h = ZMat::from_fn(cvx.nrows(), cvx.ncols(), |i, j| cvx[(i, j)] + d[(i, j)]);
            let pencil = s.abs() * evx.norm_fro() + avx.norm_fro();
            let den = (pencil * h.norm_fro() / bnorm.max(1e-300)).max(1e-300);
            scores.push((resid.norm_fro() / den, Some(h)));
        }
        Ok(scores)
    }
}

/// The round's pick: the position and score of the highest η, the
/// lowest position on ties (strict `>`). A NaN η ranks as `+∞`: like a
/// singular projected pencil, it says the basis cannot represent the
/// candidate, so that candidate is sampled next.
fn best_candidate(scores: &[(f64, Option<ZMat>)]) -> (usize, f64) {
    let mut best = (0, f64::NEG_INFINITY);
    for (at, &(eta, _)) in scores.iter().enumerate() {
        let eta = if eta.is_nan() { f64::INFINITY } else { eta };
        if eta > best.1 {
            best = (at, eta);
        }
    }
    best
}

/// Runs greedy selection and packages the result as the sweep stage's
/// output. Called by `pipeline::sweep` when the plan's sampling is
/// [`crate::Sampling::Greedy`], with parameters already checked by
/// `ReductionPlan::validate`; see the module docs for the algorithm.
#[allow(clippy::too_many_arguments)]
pub(crate) fn greedy_sweep<S: LtiSystem + ?Sized>(
    sys: &S,
    omega_max: f64,
    pool: usize,
    tol: f64,
    max_shifts: usize,
    two_sided: bool,
    faults: &dyn SolveFault,
    node_cap: Option<usize>,
) -> Result<SweptSamples, NumError> {
    let cap = node_cap.unwrap_or(usize::MAX);
    if cap == 0 {
        return Err(NumError::BudgetExhausted { resource: "lu-factorizations" });
    }
    // Per-candidate state, reserved up front: a pool too large to
    // allocate is an error, not an abort.
    let mut remaining = with_room(pool)?;
    remaining.extend(0..pool);
    // Reduced transfer function per candidate from the previous round,
    // for the frequency-aware stopping rule.
    let mut prev_h: Vec<Option<ZMat>> = with_room(pool)?;
    prev_h.resize(pool, None);

    let mut sp = obs::span("pmtbr.sample_sweep");
    sp.field_str("sampling", "greedy");
    sp.field_u64("pool", pool as u64);
    sp.field_f64("greedy_tol", tol);
    sp.field_u64("max_shifts", max_shifts as u64);

    // Candidate pool: the same midpoint rule as Sampling::Linear, so the
    // pool never touches a dc pole and a pool-sized selection reproduces
    // the fixed grid's node positions.
    let dw = omega_max / pool as f64;
    let omega = |c: usize| dw * (c as f64 + 0.5);

    let b = sys.input_matrix().to_complex();
    let bnorm = b.norm_fro().max(1e-300);
    let d = sys.feedthrough().to_complex();
    let ct = if two_sided {
        Some(sys.output_matrix().adjoint().to_complex())
    } else {
        None
    };

    let mut basis = IncrementalBasis::new(sys.nstates());
    let mut accepted: Vec<Solved> = Vec::new();
    // Pool index of each accepted node: its Voronoi cell is its weight.
    let mut picks: Vec<usize> = Vec::new();
    let mut reports: Vec<ShiftReport> = Vec::new();
    let mut attempts = 0usize;
    let mut scored_total = 0u64;
    let mut budget_truncated = 0usize;
    let mut stop_reason = "max-shifts";

    while accepted.len() < max_shifts {
        if remaining.is_empty() {
            stop_reason = "pool-exhausted";
            break;
        }
        if attempts >= cap {
            // The LU budget ran dry before the stopping rule fired:
            // account for the unexplored shift allowance as
            // budget-dropped nodes so the pipeline report records the
            // exhaustion and weight renormalization stays honest.
            budget_truncated = remaining.len().min(max_shifts - accepted.len());
            for &c in remaining.iter().take(budget_truncated) {
                obs::counters::add(obs::Counter::ShiftDropped, 1);
                reports.push(ShiftReport::dropped(
                    reports.len(),
                    c64::new(0.0, omega(c)),
                    Some(NumError::BudgetExhausted { resource: "lu-factorizations" }),
                ));
            }
            stop_reason = "lu-budget";
            break;
        }

        // Score the pool (skipped while the basis is empty: every
        // candidate ties at η = 1, and the lowest-index rule seeds the
        // lowest pool frequency).
        let pick = if accepted.is_empty() {
            remaining[0]
        } else {
            let surr = Surrogate::build(sys, &basis)?;
            let shifts: Vec<c64> = remaining.iter().map(|&c| c64::new(0.0, omega(c))).collect();
            let scores = surr.score_round(&shifts, &b, bnorm, &d)?;
            let (at, best_score) = best_candidate(&scores);
            let best = remaining[at];
            let mut h_scale: f64 = 0.0;
            let mut h_change: f64 = 0.0;
            let mut round_h: Vec<(usize, ZMat)> = Vec::with_capacity(remaining.len());
            for (&c, (_, h)) in remaining.iter().zip(scores) {
                scored_total += 1;
                obs::counters::add(obs::Counter::GreedyScored, 1);
                if let Some(h) = h {
                    h_scale = h_scale.max(h.norm_fro());
                    if let Some(old) = &prev_h[c] {
                        let diff = ZMat::from_fn(h.nrows(), h.ncols(), |i, j| {
                            h[(i, j)] - old[(i, j)]
                        });
                        h_change = h_change.max(diff.norm_fro());
                    }
                    round_h.push((c, h));
                }
            }
            let had_prev = prev_h.iter().any(|h| h.is_some());
            for (c, h) in round_h {
                prev_h[c] = Some(h);
            }
            // Frequency-aware stopping: the surrogate residual has
            // converged over the band, or the reduced transfer function
            // stopped moving between consecutive rounds.
            if best_score < tol {
                stop_reason = "surrogate-converged";
                break;
            }
            if had_prev && h_scale > 0.0 && h_change < tol * h_scale {
                stop_reason = "transfer-converged";
                break;
            }
            best
        };

        // Promote the winner through the tolerant ladder (one LU-backed
        // solve, both pencils for two-sided compressors).
        let s_req = c64::new(0.0, omega(pick));
        let hooked = OffsetFaults { inner: faults, offset: pick };
        attempts += 1;
        let (mut rep, fwd_z, trans_z) = match &ct {
            Some(ct) => {
                let (f, t) =
                    sys.solve_shifted_two_sided_tolerant(&[s_req], &b, ct, &RecoveryPolicy, &hooked);
                let f_ok = f.solutions[0].is_some();
                let t_ok = t.solutions[0].is_some();
                let rep = if f_ok && !t_ok { t.reports[0].clone() } else { f.reports[0].clone() };
                (rep, f.solutions.into_iter().next().flatten(), t.solutions.into_iter().next().flatten())
            }
            None => {
                let f = sys.solve_shifted_many_tolerant(&[s_req], &b, &RecoveryPolicy, &hooked);
                (f.reports[0].clone(), f.solutions.into_iter().next().flatten(), None)
            }
        };
        rep.index = reports.len();
        let alive = fwd_z.is_some() && (ct.is_none() || trans_z.is_some());
        if obs::is_enabled() {
            obs::event(
                "greedy_pick",
                vec![
                    ("cand", obs::Value::U64(pick as u64)),
                    ("omega", obs::Value::F64(omega(pick))),
                    ("accepted", obs::Value::Bool(alive)),
                ],
            );
        }
        // Selection re-enters after a drop: the candidate leaves the
        // pool, its report stays, and the loop keeps scoring the rest —
        // a faulted shift never silently shrinks the shift budget's
        // worth of basis.
        remaining.retain(|&c| c != pick);
        if alive {
            let z = fwd_z.ok_or(NumError::InvalidArgument("greedy: missing accepted solve"))?;
            basis.push_block(&realify_columns(&z, REALIFY_TOL))?;
            obs::counters::add(obs::Counter::GreedyAccepted, 1);
            picks.push(pick);
            // Weighted once selection ends and the Voronoi cells are known.
            let point = SamplePoint { s: rep.s_used, weight: 0.0 };
            accepted.push(Solved { point, z, zl: trans_z });
        }
        reports.push(rep);
    }

    if accepted.is_empty() {
        return Err(NumError::InvalidArgument(
            "every sample point was dropped by the fault-tolerance ladder",
        ));
    }

    // Voronoi-cell quadrature weights: each accepted frequency owns the
    // band segment closer to it than to any other accepted frequency,
    // so the weights tile [0, ω_max] exactly (renormalization stays 1 —
    // dropped candidates re-entered selection instead of losing mass).
    let omegas: Vec<f64> = picks.iter().map(|&c| omega(c)).collect();
    for (node, w) in accepted.iter_mut().zip(voronoi_weights(&omegas, omega_max)) {
        node.point.weight = w;
    }
    let surviving = accepted.len();
    let (kept, zmat, blocks, zl) = stack_samples(sys.nstates(), accepted, two_sided)?;

    sp.field_u64("requested", reports.len() as u64);
    sp.field_u64("scored", scored_total);
    sp.field_str("greedy_stop", stop_reason);
    let requested = reports.len();
    Ok(SweptSamples {
        kept,
        zmat,
        blocks,
        zl,
        reports,
        requested,
        surviving,
        renorm: 1.0,
        budget_truncated,
        span: sp,
    })
}

/// Voronoi cell lengths of `omegas` (in acceptance order) over
/// `[0, omega_max]`: the cell of each frequency runs from the midpoint
/// to its lower neighbor (or 0) up to the midpoint to its upper
/// neighbor (or `omega_max`). The weights sum to `omega_max`.
fn voronoi_weights(omegas: &[f64], omega_max: f64) -> Vec<f64> {
    let mut order: Vec<usize> = (0..omegas.len()).collect();
    order.sort_by(|&a, &b| omegas[a].total_cmp(&omegas[b]));
    let mut weights = vec![0.0; omegas.len()];
    for (rank, &i) in order.iter().enumerate() {
        let lo = if rank == 0 {
            0.0
        } else {
            (omegas[order[rank - 1]] + omegas[i]) / 2.0
        };
        let hi = if rank + 1 == order.len() {
            omega_max
        } else {
            (omegas[i] + omegas[order[rank + 1]]) / 2.0
        };
        weights[i] = (hi - lo).max(0.0);
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use lti::{Descriptor, StateSpace};

    /// The surrogate as it was before the real-arithmetic rewrite, kept
    /// as the reference `Surrogate::score_round` must reproduce bit for
    /// bit: complex `E·V`, `A·V` and projections, and one complex
    /// product per operator for each candidate.
    struct ComplexSurrogate {
        ev: ZMat,
        av: ZMat,
        er: ZMat,
        ar: ZMat,
        bh: ZMat,
        cv: ZMat,
    }

    impl ComplexSurrogate {
        fn build<S: LtiSystem + ?Sized>(sys: &S, basis: &IncrementalBasis, b: &ZMat) -> Self {
            let k = basis.rank().min(SURROGATE_CAP);
            let v = basis.dominant_basis(k).unwrap();
            let vz = v.to_complex();
            let p1 = sys.apply_shifted(c64::ONE, &vz).unwrap();
            let p0 = sys.apply_shifted(c64::ZERO, &vz).unwrap();
            let ev = ZMat::from_fn(p1.nrows(), p1.ncols(), |i, j| p1[(i, j)] - p0[(i, j)]);
            let av = ZMat::from_fn(p0.nrows(), p0.ncols(), |i, j| -p0[(i, j)]);
            let vt = v.transpose().to_complex();
            let er = vt.matmul(&ev).unwrap();
            let ar = vt.matmul(&av).unwrap();
            let bh = vt.matmul(b).unwrap();
            let cv = sys.output_matrix().to_complex().matmul(&vz).unwrap();
            ComplexSurrogate { ev, av, er, ar, bh, cv }
        }

        fn score(&self, s: c64, b: &ZMat, bnorm: f64, d: &ZMat) -> (f64, Option<ZMat>) {
            let k = self.er.nrows();
            let hr = ZMat::from_fn(k, k, |i, j| s * self.er[(i, j)] - self.ar[(i, j)]);
            let xhat = match Lu::new(hr).and_then(|lu| lu.solve_mat(&self.bh)) {
                Ok(x) => x,
                Err(NumError::Singular { .. }) | Err(NumError::NotFinite) => {
                    return (f64::INFINITY, None);
                }
                Err(e) => panic!("{e:?}"),
            };
            let evx = self.ev.matmul(&xhat).unwrap();
            let avx = self.av.matmul(&xhat).unwrap();
            let resid = ZMat::from_fn(b.nrows(), b.ncols(), |i, j| {
                b[(i, j)] - (s * evx[(i, j)] - avx[(i, j)])
            });
            let cvx = self.cv.matmul(&xhat).unwrap();
            let h = ZMat::from_fn(cvx.nrows(), cvx.ncols(), |i, j| cvx[(i, j)] + d[(i, j)]);
            let pencil = s.abs() * evx.norm_fro() + avx.norm_fro();
            let den = (pencil * h.norm_fro() / bnorm.max(1e-300)).max(1e-300);
            (resid.norm_fro() / den, Some(h))
        }
    }

    fn score_bits(score: &(f64, Option<ZMat>)) -> (u64, Option<Vec<(u64, u64)>>) {
        let h = score.1.as_ref().map(|h| h.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect());
        (score.0.to_bits(), h)
    }

    /// Scores every pool candidate after each of `rounds` accepted
    /// shifts, through both surrogates, and compares the bits.
    fn assert_rounds_match<S: LtiSystem + ?Sized>(sys: &S, omega_max: f64, pool: usize, rounds: usize) {
        let b = sys.input_matrix().to_complex();
        let bnorm = b.norm_fro().max(1e-300);
        let d = sys.feedthrough().to_complex();
        let shifts: Vec<c64> =
            (0..pool).map(|c| c64::new(0.0, omega_max / pool as f64 * (c as f64 + 0.5))).collect();
        let mut basis = IncrementalBasis::new(sys.nstates());
        for round in 0..rounds {
            let z = sys.solve_shifted(shifts[(round * 5) % pool], &b).unwrap();
            basis.push_block(&realify_columns(&z, REALIFY_TOL)).unwrap();
            let got = Surrogate::build(sys, &basis).unwrap().score_round(&shifts, &b, bnorm, &d).unwrap();
            let reference = ComplexSurrogate::build(sys, &basis, &b);
            for (c, (g, &s)) in got.iter().zip(&shifts).enumerate() {
                let want = reference.score(s, &b, bnorm, &d);
                assert!(want.1.is_some(), "round {round} candidate {c} is singular");
                assert_eq!(score_bits(g), score_bits(&want), "round {round} candidate {c}");
            }
        }
    }

    #[test]
    fn score_round_matches_the_complex_score_on_meshes() {
        let mesh: Descriptor =
            circuits::rc_mesh(8, 8, &circuits::spread_ports(8, 8, 4), 1.0, 1.0, 2.0).unwrap();
        assert_rounds_match(&mesh, 6.0, 12, 5);
        let jittered: Descriptor =
            circuits::rc_mesh_jittered(5, 7, &[0, 17, 34], 1.0, 1.0, 2.0, 0.3, 3).unwrap();
        assert_rounds_match(&jittered, 9.0, 8, 4);
        let ss: StateSpace =
            circuits::rc_mesh(4, 5, &[0, 19], 1.0, 1.0, 2.0).unwrap().to_state_space().unwrap();
        assert_rounds_match(&ss, 10.0, 8, 4);
    }

    #[test]
    fn score_round_matches_the_complex_score_on_singular_and_overflowing_candidates() {
        // The projected pencil diag(s, s − 1e-300) is singular at s = 0;
        // at s = j·1e-300 the solution (~1e300) is finite but its
        // products overflow, and at s = j·1e-310 it overflows itself.
        let ev = DMat::from_fn(5, 2, |i, j| (i + 2 * j) as f64 - 2.0);
        let av = DMat::from_fn(5, 2, |i, j| if (i + j) % 3 == 0 { 0.0 } else { 0.5 - i as f64 });
        let er = DMat::identity(2);
        let ar = DMat::from_rows(&[&[0.0, 0.0], &[0.0, 1e-300]]);
        let bh = DMat::from_rows(&[&[1.0, 0.5], &[1.0, 2.0]]);
        let cv = DMat::from_rows(&[&[1.0, -1.0], &[0.0, 2.0], &[0.5, 0.0]]);
        let surr = Surrogate { ev, av, er, ar, bh: bh.to_complex(), cv };
        let reference = ComplexSurrogate {
            ev: surr.ev.to_complex(),
            av: surr.av.to_complex(),
            er: surr.er.to_complex(),
            ar: surr.ar.to_complex(),
            bh: bh.to_complex(),
            cv: surr.cv.to_complex(),
        };
        let b = ZMat::from_fn(5, 2, |i, j| c64::new(1.0 + (i * j) as f64, 0.25 * i as f64));
        let d = ZMat::from_fn(3, 2, |i, j| c64::from_real((i + j) as f64 * 0.1));
        let shifts = [
            c64::new(0.0, 1.0),
            c64::ZERO,
            c64::new(0.0, 1e-300),
            c64::new(0.0, 1e-310),
            c64::new(0.0, 3.0),
            c64::ZERO,
        ];
        let got = surr.score_round(&shifts, &b, 2.0, &d).unwrap();
        let want: Vec<_> = shifts.iter().map(|&s| reference.score(s, &b, 2.0, &d)).collect();
        assert_eq!(got[1], (f64::INFINITY, None));
        assert_eq!(got[5], (f64::INFINITY, None));
        assert!(got[2].0.is_nan() && got[2].1.as_ref().is_some_and(|h| h.is_finite()), "{:?}", got[2]);
        assert!(got[3].1.as_ref().is_some_and(|h| !h.is_finite()), "{:?}", got[3]);
        assert!(got[0].0.is_finite() && got[4].0.is_finite());
        for (c, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(score_bits(g), score_bits(w), "candidate {c}");
        }
        // The round's pick ranks candidate 2's NaN η as +∞, like the
        // singular pencil: it beats the finite scores, and a round of it
        // alone is never "converged" below a tolerance.
        let round = |cands: &[usize]| cands.iter().map(|&c| got[c].clone()).collect::<Vec<_>>();
        assert_eq!(best_candidate(&round(&[0, 2, 4])), (1, f64::INFINITY));
        assert_eq!(best_candidate(&round(&[2])), (0, f64::INFINITY));
        // Ties keep the lowest position: the singular candidate 1 first.
        assert_eq!(best_candidate(&round(&[0, 1, 2])), (1, f64::INFINITY));

        // A 1 × 1 pencil `s` against VᵀB = 1e300 overflows without NaN
        // contamination from the elimination: x̂ = (0, −∞) at
        // s = j·1e-10 and (NaN, −∞) at s = j·1e-310, whose complex
        // products differ from real ones in the NaN pattern.
        let tiny = Surrogate {
            ev: DMat::from_rows(&[&[1.0], &[-2.0], &[0.0]]),
            av: DMat::from_rows(&[&[0.5], &[0.0], &[3.0]]),
            er: DMat::identity(1),
            ar: DMat::zeros(1, 1),
            bh: ZMat::from_fn(1, 1, |_, _| c64::from_real(1e300)),
            cv: DMat::from_rows(&[&[1.0], &[-0.5]]),
        };
        let reference = ComplexSurrogate {
            ev: tiny.ev.to_complex(),
            av: tiny.av.to_complex(),
            er: tiny.er.to_complex(),
            ar: tiny.ar.to_complex(),
            bh: tiny.bh.clone(),
            cv: tiny.cv.to_complex(),
        };
        let b = ZMat::from_fn(3, 1, |i, _| c64::from_real(1.0 + i as f64));
        let d = ZMat::zeros(2, 1);
        let shifts = [c64::new(0.0, 1e-10), c64::new(0.0, 1e-310), c64::new(0.0, 1e300), c64::ZERO];
        let got = tiny.score_round(&shifts, &b, 2.0, &d).unwrap();
        assert_eq!(tiny.solve(shifts[0]).unwrap().map(|x| (x[(0, 0)].re, x[(0, 0)].im)), Some((0.0, f64::NEG_INFINITY)));
        assert_eq!(got[3], (f64::INFINITY, None));
        for (c, (g, &s)) in got.iter().zip(&shifts).enumerate() {
            assert_eq!(score_bits(g), score_bits(&reference.score(s, &b, 2.0, &d)), "1 × 1 candidate {c}");
        }
    }

    #[test]
    fn voronoi_weights_tile_the_band() {
        // Acceptance order deliberately unsorted.
        let w = voronoi_weights(&[6.0, 2.0, 9.0], 10.0);
        let total: f64 = w.iter().sum();
        assert!((total - 10.0).abs() < 1e-12, "weights must tile the band: {total}");
        // Cells: [0,4), [4,7.5), [7.5,10] for ω = 2, 6, 9.
        assert!((w[1] - 4.0).abs() < 1e-12);
        assert!((w[0] - 3.5).abs() < 1e-12);
        assert!((w[2] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_point_owns_the_whole_band() {
        let w = voronoi_weights(&[3.0], 10.0);
        assert_eq!(w.len(), 1);
        assert!((w[0] - 10.0).abs() < 1e-12);
    }
}
