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
//! (see [`Surrogate::score`] for why each factor is there).
//!
//! Everything here is factorization-free: `E·V` and `A·V` come from two
//! [`LtiSystem::apply_shifted`] pencil applications per round (cheap
//! sparse matvecs), each candidate then costs one `k × k` dense solve
//! with `k ≤ SURROGATE_CAP`. The LU factorizations counted by
//! `obs::Counter::LuFactor` are spent only on *accepted* shifts, inside
//! the same tolerant escalation ladder every fixed-grid sweep uses — so
//! greedy composes with the recovery ladder (a dropped shift re-enters
//! selection instead of silently shrinking the basis), with
//! `pmtbr::Budget`'s LU node cap, and with `PMTBR_FAULT` chaos testing.
//!
//! The driver is strictly sequential (the parallelism lives inside each
//! tolerant solve), so the selected shifts, the trace events, and the
//! `GREEDY_SCORED` / `GREEDY_ACCEPTED` counters are bit-identical at
//! any thread count.
//!
//! See `docs/SAMPLING.md` for the full derivation and the paper-to-code
//! map.

use lti::{realify_columns, LtiSystem, RecoveryPolicy, ShiftReport, SolveFault};
use numkit::{c64, Lu, NumError, ZMat};

use crate::order_control::IncrementalBasis;
use crate::pipeline::{stack_samples, Solved, SweptSamples};
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
struct Surrogate {
    /// `E·V` and `A·V`, recovered from two pencil applications of the
    /// orthonormal surrogate basis `V` (≤ [`SURROGATE_CAP`] columns).
    ev: ZMat,
    av: ZMat,
    /// Projected pencil factors `VᵀEV`, `VᵀAV` (`k × k`).
    er: ZMat,
    ar: ZMat,
    /// Projected input `VᵀB` (`k × p`).
    bh: ZMat,
    /// Output map `C·V` (`q × k`).
    cv: ZMat,
}

impl Surrogate {
    /// Builds the round's projected model from the truncated basis.
    fn build<S: LtiSystem + ?Sized>(
        sys: &S,
        basis: &IncrementalBasis,
        b: &ZMat,
    ) -> Result<Surrogate, NumError> {
        let k = basis.rank().min(SURROGATE_CAP);
        let v = basis.dominant_basis(k)?;
        let vz = v.to_complex();
        // (1·E − A)·V − (0·E − A)·V = E·V ; −(0·E − A)·V = A·V.
        let p1 = sys.apply_shifted(c64::ONE, &vz)?;
        let p0 = sys.apply_shifted(c64::ZERO, &vz)?;
        let ev = ZMat::from_fn(p1.nrows(), p1.ncols(), |i, j| p1[(i, j)] - p0[(i, j)]);
        let av = ZMat::from_fn(p0.nrows(), p0.ncols(), |i, j| -p0[(i, j)]);
        let vt = v.transpose().to_complex();
        let er = vt.matmul(&ev)?;
        let ar = vt.matmul(&av)?;
        let bh = vt.matmul(b)?;
        let cv = sys.output_matrix().to_complex().matmul(&vz)?;
        Ok(Surrogate { ev, av, er, ar, bh, cv })
    }

    /// Scores one candidate: the *relative-error–aligned* pencil
    /// residual of the projected solution, and the reduced transfer
    /// function at `s` (for the frequency-aware stopping rule).
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
    fn score(
        &self,
        s: c64,
        b: &ZMat,
        bnorm: f64,
        d: &ZMat,
    ) -> Result<(f64, Option<ZMat>), NumError> {
        let k = self.er.nrows();
        let hr = ZMat::from_fn(k, k, |i, j| s * self.er[(i, j)] - self.ar[(i, j)]);
        let xhat = match Lu::new(hr).and_then(|lu| lu.solve_mat(&self.bh)) {
            Ok(x) => x,
            Err(NumError::Singular { .. }) | Err(NumError::NotFinite) => {
                return Ok((f64::INFINITY, None));
            }
            Err(e) => return Err(e),
        };
        let evx = self.ev.matmul(&xhat)?;
        let avx = self.av.matmul(&xhat)?;
        let resid = ZMat::from_fn(b.nrows(), b.ncols(), |i, j| {
            b[(i, j)] - (s * evx[(i, j)] - avx[(i, j)])
        });
        let cvx = self.cv.matmul(&xhat)?;
        let h = ZMat::from_fn(cvx.nrows(), cvx.ncols(), |i, j| cvx[(i, j)] + d[(i, j)]);
        let pencil = s.abs() * evx.norm_fro() + avx.norm_fro();
        let den = (pencil * h.norm_fro() / bnorm.max(1e-300)).max(1e-300);
        let eta = resid.norm_fro() / den;
        Ok((eta, Some(h)))
    }
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
    policy: &RecoveryPolicy,
    faults: &dyn SolveFault,
    node_cap: Option<usize>,
) -> Result<SweptSamples, NumError> {
    let cap = node_cap.unwrap_or(usize::MAX);
    if cap == 0 {
        return Err(NumError::BudgetExhausted { resource: "lu-factorizations" });
    }

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
    let mut remaining: Vec<usize> = (0..pool).collect();

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
    // Reduced transfer function per candidate from the previous round,
    // for the frequency-aware stopping rule.
    let mut prev_h: Vec<Option<ZMat>> = vec![None; pool];
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
            let surr = Surrogate::build(sys, &basis, &b)?;
            let mut best_score = f64::NEG_INFINITY;
            let mut best = remaining[0];
            let mut h_scale: f64 = 0.0;
            let mut h_change: f64 = 0.0;
            let mut round_h: Vec<(usize, ZMat)> = Vec::with_capacity(remaining.len());
            for &c in &remaining {
                let s = c64::new(0.0, omega(c));
                let (eta, h) = surr.score(s, &b, bnorm, &d)?;
                scored_total += 1;
                obs::counters::add(obs::Counter::GreedyScored, 1);
                // Strict `>` keeps the lowest candidate index on ties.
                if eta > best_score {
                    best_score = eta;
                    best = c;
                }
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
                    sys.solve_shifted_two_sided_tolerant(&[s_req], &b, ct, policy, &hooked);
                let f_ok = f.solutions[0].is_some();
                let t_ok = t.solutions[0].is_some();
                let rep = if f_ok && !t_ok { t.reports[0].clone() } else { f.reports[0].clone() };
                (rep, f.solutions.into_iter().next().flatten(), t.solutions.into_iter().next().flatten())
            }
            None => {
                let f = sys.solve_shifted_many_tolerant(&[s_req], &b, policy, &hooked);
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
