//! Adversarial pencil tests: shifts placed exactly at (and within
//! rounding of) generalized eigenvalues of small RC/RLC pencils, where
//! `(s·E − A)` is singular or catastrophically ill-conditioned. The
//! escalation ladder must recover every recoverable shift (certified
//! residual below tolerance), cleanly drop the rest, and produce
//! bit-identical results for every thread count.

use lti::{Descriptor, LtiSystem, NoFaults, RecoveryPolicy, ShiftOutcome, ShiftSolveEngine};
use numkit::{c64, eig, DMat};
use sparsekit::Triplet;

/// RC ladder descriptor: `E = I`, `A = −G` for a chain of unit
/// resistors with a grounding resistor at the driven node. Its
/// generalized eigenvalues are the (real, negative) eigenvalues of `A`.
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
    let mut e = Triplet::new(n, n);
    for i in 0..n {
        e.push(i, i, 1.0);
    }
    let mut b = DMat::zeros(n, 1);
    b[(0, 0)] = 1.0;
    let mut c = DMat::zeros(1, n);
    c[(0, n - 1)] = 1.0;
    Descriptor::new(e.to_csr(), a, b, c, None).unwrap()
}

/// Diagonal pencil with exactly representable eigenvalues: shifts at
/// those eigenvalues make `s·E − A` *exactly* (structurally) singular,
/// forcing the ladder past the refactor and refresh rungs.
fn diagonal_pencil() -> Descriptor {
    let lambdas = [-1.0, -2.0, -4.0, -8.0];
    let n = lambdas.len();
    let mut e = Triplet::new(n, n);
    let mut a = Triplet::new(n, n);
    for (i, &l) in lambdas.iter().enumerate() {
        e.push(i, i, 1.0);
        a.push(i, i, l);
    }
    let b = DMat::from_fn(n, 1, |_, _| 1.0);
    let c = DMat::from_fn(1, n, |_, _| 1.0);
    Descriptor::new(e.to_csr(), a.to_csr(), b, c, None).unwrap()
}

/// RLC-style pencil with an invertible, non-identity `E` and complex
/// generalized eigenvalue pairs (series RLC sections in MNA-like form).
fn rlc_pencil() -> Descriptor {
    // Two independent sections: states (v, i) with
    //   C v̇ = −i + u,  L i̇ = v − R i
    // giving complex eigenvalues for R² < 4 L / C.
    let secs = [(1.0, 1.0, 0.2), (0.5, 2.0, 0.1)]; // (C, L, R)
    let n = 2 * secs.len();
    let mut e = Triplet::new(n, n);
    let mut a = Triplet::new(n, n);
    for (k, &(cv, lv, rv)) in secs.iter().enumerate() {
        let (v, i) = (2 * k, 2 * k + 1);
        e.push(v, v, cv);
        e.push(i, i, lv);
        a.push(v, i, -1.0);
        a.push(i, v, 1.0);
        a.push(i, i, -rv);
    }
    let mut b = DMat::zeros(n, 1);
    b[(0, 0)] = 1.0;
    let mut c = DMat::zeros(1, n);
    c[(0, n - 1)] = 1.0;
    Descriptor::new(e.to_csr(), a.to_csr(), b, c, None).unwrap()
}

#[test]
fn exact_eigenvalue_shift_forces_perturbation_on_diagonal_pencil() {
    let sys = diagonal_pencil();
    let rhs = sys.b.to_complex();
    // Healthy shift first (primes the engine), then shifts exactly at
    // two representable eigenvalues, then another healthy one.
    let shifts = [
        c64::new(0.0, 1.0),
        c64::new(-2.0, 0.0),
        c64::new(-8.0, 0.0),
        c64::new(0.0, 3.0),
    ];
    let sweep = sys.solve_shifted_many_tolerant(
        &shifts,
        &rhs,
        &RecoveryPolicy,
        &NoFaults,
    );
    assert_eq!(sweep.reports.len(), 4);
    assert_eq!(sweep.reports[0].outcome, ShiftOutcome::Refreshed, "primer");
    for k in [1, 2] {
        let rep = &sweep.reports[k];
        assert_eq!(rep.outcome, ShiftOutcome::Perturbed { attempts: 1 }, "shift {k}");
        assert!(rep.residual <= 1e-10, "shift {k}: residual {}", rep.residual);
        assert!(rep.s_used != rep.s_requested);
        assert!(
            (rep.s_used - rep.s_requested).abs() <= 2e-8 * rep.s_requested.abs(),
            "perturbation must stay small"
        );
        // The solution at the nudged shift approximates the (huge)
        // near-singular resolvent; it must at least be finite.
        let z = sweep.solutions[k].as_ref().unwrap();
        assert!(z.norm_max().is_finite());
        assert!(z.norm_max() > 1e6, "resolvent near an eigenvalue must be large");
    }
    assert_eq!(sweep.reports[3].outcome, ShiftOutcome::Refactored);
    assert_eq!(sweep.dropped(), 0);
}

#[test]
fn near_eigenvalue_shift_certifies_with_tiny_rcond() {
    let sys = rc_ladder(12);
    let rhs = sys.b.to_complex();
    let eigs = eig(&sys.a.to_dense()).unwrap().values;
    // The eigenvalue of largest magnitude, nudged by a relative 1e-14:
    // the pencil is (barely) nonsingular with condition ~1e14. A
    // backward-stable solve still certifies, and the condition estimate
    // must flag how close to singular the factorization was.
    let lam = eigs
        .iter()
        .copied()
        .max_by(|a, b| a.abs().partial_cmp(&b.abs()).unwrap())
        .unwrap();
    let shifts = [c64::new(0.0, 1.0), lam.scale(1.0 + 1e-14)];
    let sweep = sys.solve_shifted_many_tolerant(
        &shifts,
        &rhs,
        &RecoveryPolicy,
        &NoFaults,
    );
    let rep = &sweep.reports[1];
    assert!(!rep.outcome.is_dropped(), "outcome {:?}", rep.outcome);
    assert!(rep.residual <= 1e-10, "residual {}", rep.residual);
    assert!(rep.rcond < 1e-8, "rcond {} must expose near-singularity", rep.rcond);
    // Healthy shift keeps a healthy condition estimate.
    assert!(sweep.reports[0].rcond > 1e-6, "rcond {}", sweep.reports[0].rcond);
}

#[test]
fn eigenvalue_shifts_recover_or_drop_never_panic() {
    let sys = rc_ladder(10);
    let rhs = sys.b.to_complex();
    let eigs = eig(&sys.a.to_dense()).unwrap().values;
    // Every eigenvalue of the pencil as a shift, plus healthy shifts
    // interleaved — the worst sweep imaginable for a naive engine.
    let mut shifts = Vec::new();
    for (k, lam) in eigs.iter().enumerate() {
        shifts.push(*lam);
        shifts.push(c64::new(0.0, 0.5 + k as f64));
    }
    let sweep = sys.solve_shifted_many_tolerant(
        &shifts,
        &rhs,
        &RecoveryPolicy,
        &NoFaults,
    );
    assert_eq!(sweep.reports.len(), shifts.len());
    for (k, rep) in sweep.reports.iter().enumerate() {
        if rep.outcome.is_dropped() {
            continue; // a clean drop is acceptable for an exact eigenvalue
        }
        assert!(
            rep.residual <= 1e-10,
            "shift {k}: accepted with residual {}",
            rep.residual
        );
        assert!(sweep.solutions[k].is_some());
    }
    // The healthy half of the sweep (odd indices) must all survive.
    for k in (1..shifts.len()).step_by(2) {
        assert!(!sweep.reports[k].outcome.is_dropped(), "healthy shift {k} dropped");
    }
}

#[test]
fn complex_eigenvalue_shifts_on_rlc_pencil() {
    let sys = rlc_pencil();
    let rhs = sys.b.to_complex();
    // Generalized eigenvalues of (A, E) are the eigenvalues of E⁻¹A.
    let ss = sys.to_state_space().unwrap();
    let eigs = eig(&ss.a).unwrap().values;
    assert!(
        eigs.iter().any(|l| l.im.abs() > 1e-6),
        "RLC pencil must have complex eigenvalues"
    );
    let mut shifts = vec![c64::new(0.0, 0.1)];
    shifts.extend(eigs.iter().copied());
    shifts.extend(eigs.iter().map(|l| l.scale(1.0 + 1e-14)));
    let sweep = sys.solve_shifted_many_tolerant(
        &shifts,
        &rhs,
        &RecoveryPolicy,
        &NoFaults,
    );
    for (k, rep) in sweep.reports.iter().enumerate() {
        assert!(
            rep.outcome.is_dropped() || rep.residual <= 1e-10,
            "shift {k}: outcome {:?} residual {}",
            rep.outcome,
            rep.residual
        );
    }
    assert!(
        sweep.surviving() > eigs.len(),
        "most adversarial shifts must be recovered, got {}/{}",
        sweep.surviving(),
        shifts.len()
    );
}

#[test]
fn tolerant_sweep_bit_identical_across_thread_counts() {
    let sys = rc_ladder(15);
    let rhs = sys.b.to_complex();
    let eigs = eig(&sys.a.to_dense()).unwrap().values;
    let mut shifts: Vec<c64> = (0..6).map(|k| c64::new(0.01, 0.4 * k as f64)).collect();
    shifts.push(eigs[0]);
    shifts.push(eigs[1].scale(1.0 + 1e-14));
    shifts.push(shifts[0]); // duplicate: exercises the reuse rung
    let baseline = ShiftSolveEngine::new(&sys).solve_many_tolerant(&shifts, &rhs, 1, &NoFaults);
    for threads in [2usize, 8] {
        let sweep =
            ShiftSolveEngine::new(&sys).solve_many_tolerant(&shifts, &rhs, threads, &NoFaults);
        assert_eq!(sweep.reports, baseline.reports, "threads {threads}");
        for (k, (a, b)) in sweep.solutions.iter().zip(&baseline.solutions).enumerate() {
            assert_eq!(a, b, "threads {threads} shift {k}: must be bit-identical");
        }
    }
}

#[test]
fn duplicate_of_primer_shift_is_reused_verbatim() {
    let sys = rc_ladder(8);
    let rhs = sys.b.to_complex();
    let s0 = c64::new(0.0, 1.0);
    let shifts = [s0, c64::new(0.0, 2.0), s0];
    let sweep = ShiftSolveEngine::new(&sys).solve_many_tolerant(&shifts, &rhs, 2, &NoFaults);
    assert_eq!(sweep.reports[0].outcome, ShiftOutcome::Refreshed);
    assert_eq!(sweep.reports[1].outcome, ShiftOutcome::Refactored);
    assert_eq!(sweep.reports[2].outcome, ShiftOutcome::Reused);
    // Verbatim reuse: identical bits to the primer's solution.
    assert_eq!(sweep.solutions[2], sweep.solutions[0]);
}

#[test]
fn strict_sweep_still_fails_fast_but_tolerant_does_not() {
    let sys = diagonal_pencil();
    let rhs = sys.b.to_complex();
    let shifts = [c64::new(0.0, 1.0), c64::new(-4.0, 0.0)];
    // The strict engine path errors on the singular shift…
    assert!(sys.solve_shifted_many(&shifts, &rhs).is_err());
    // …while the tolerant path completes the sweep.
    let sweep = sys.solve_shifted_many_tolerant(
        &shifts,
        &rhs,
        &RecoveryPolicy,
        &NoFaults,
    );
    assert_eq!(sweep.dropped(), 0);
}
