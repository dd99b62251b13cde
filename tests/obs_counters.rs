//! Counter-accounting test for the observability layer.
//!
//! Pins the invariant documented in `obs::counters`: on a tolerant
//! sweep, every attempted shift is satisfied by exactly one successful
//! numeric factorization *or* one primer-cache reuse, i.e.
//! `LU_FACTOR + LU_REUSE_HIT == shifts attempted`. Drift faults are the
//! sharp probe for this: they corrupt the first solve of a faulted
//! shift, forcing iterative refinement to engage — but refinement
//! repairs the solution on the *same* factorization, so the identity
//! must hold even while `REFINE_ITERS` climbs.
//!
//! The same sweep then feeds `pmtbr::IncrementalBasis`, pinning the
//! paper's Section V-C claim that order control needs no SVD per added
//! sample: pushing the blocks adds no `SVD_SWEEPS`, and only the
//! singular-value estimates do. A reduction whose spectral compressor
//! falls back to that basis SVDs its `R` factor once: the one
//! factorization gives the spectrum and the projection basis.
//!
//! Counters are process-global, so this file contains exactly one test:
//! cargo runs each integration-test binary's tests in threads of one
//! process, and a sibling test's solves would double-count.

use circuits::rc_mesh;
use lti::ShiftSolveEngine;
use numkit::c64;
use obs::{counters, Counter};
use pmtbr::{
    pipeline, Budget, FaultKind, FaultPlan, FaultStage, IncrementalBasis, NullCache, PmtbrOptions,
    ReductionPlan, Sampling,
};

#[test]
fn lu_work_accounts_for_every_shift() {
    let sys = rc_mesh(5, 5, &[0, 24], 1.0, 1.0, 2.0).expect("mesh");
    let rhs = sys.b.to_complex();

    // 12 distinct shifts plus a repeat of the primer shift: the repeat
    // must be satisfied from the primer cache (LU_REUSE_HIT), not by
    // numeric work.
    let mut shifts: Vec<c64> =
        (0..12).map(|k| c64::new(0.0, 1.0 + 2.0 * k as f64)).collect();
    shifts.push(shifts[0]);

    // Drift-only plan: faulted shifts get a silently scaled first
    // solution that only refinement can repair. No shift is dropped and
    // no extra factorization is spent.
    let plan = FaultPlan::new(11, 0.5, vec![FaultKind::Drift], 1);
    let drifted = (0..shifts.len()).filter(|&i| plan.fault_for(i).is_some()).count();
    assert!(drifted >= 3, "seed must drift a nontrivial share, got {drifted}");
    assert!(
        plan.fault_for(12).is_some() || plan.fault_for(0).is_some(),
        "at least one of the duplicate-shift endpoints should drift so \
         the reuse rung is exercised under fault"
    );

    let before = counters::snapshot();
    let sweep = ShiftSolveEngine::new(&sys).solve_many_tolerant(&shifts, &rhs, 2, &plan);
    let d = counters::snapshot().delta(&before);

    // Every shift accepted — drift is always recoverable.
    assert_eq!(sweep.reports.len(), shifts.len());
    for rep in &sweep.reports {
        assert!(!rep.outcome.is_dropped(), "shift {} dropped: {:?}", rep.index, rep.error);
    }
    assert_eq!(d.get(Counter::ShiftDropped), 0);

    // The accounting identity: one factorization or one reuse per shift.
    assert_eq!(
        d.get(Counter::LuFactor) + d.get(Counter::LuReuseHit),
        shifts.len() as u64,
        "LU_FACTOR {} + LU_REUSE_HIT {} must equal {} shifts attempted",
        d.get(Counter::LuFactor),
        d.get(Counter::LuReuseHit),
        shifts.len()
    );
    // The duplicate shift is the only reuse candidate.
    assert_eq!(d.get(Counter::LuReuseHit), 1);
    // Exactly one symbolic analysis: the primer's; all later numeric
    // factorizations reuse its pattern.
    assert_eq!(d.get(Counter::LuSymbolic), 1);
    // Each drifted shift needs at least one refinement step to repair
    // the 1+1e-6 scaling.
    assert!(
        d.get(Counter::RefineIters) >= drifted as u64,
        "REFINE_ITERS {} < {} drifted shifts",
        d.get(Counter::RefineIters),
        drifted
    );

    // Order control: Gram–Schmidt per pushed block, one small-R SVD
    // only when the estimates are asked for.
    let mut basis = IncrementalBasis::new(rhs.nrows());
    let before = counters::snapshot();
    for z in sweep.solutions.iter().flatten() {
        basis.push_block(&lti::realify_columns(z, 1e-13)).expect("push block");
    }
    assert_eq!(
        counters::snapshot().delta(&before).get(Counter::SvdSweeps),
        0,
        "pushing {} blocks ran an SVD",
        shifts.len()
    );
    let s = basis.singular_value_estimates().expect("estimates");
    assert_eq!(s.len(), basis.rank());
    assert!(counters::snapshot().delta(&before).get(Counter::SvdSweeps) > 0);

    // Every spectral rung poisoned: the compressor falls back to the
    // incremental basis, whose one SVD of `R` also gives the projection
    // basis. The only other SVD is the projection's own, of the q × q
    // reduced `E`.
    let plan = ReductionPlan::pmtbr(&PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 8 }));
    let faults =
        FaultPlan::new(11, 1.0, vec![FaultKind::Drift], 4).with_stages(vec![FaultStage::Compress]);
    assert!(obs::install(obs::ClockKind::Counter), "a trace collector is already installed");
    let red = pipeline::run(&sys, &plan, Some(&faults), &Budget::default(), &NullCache);
    let trace = obs::drain().expect("trace").to_jsonl();
    let red = red.expect("fallback run");
    assert!(red.report.compressor_downgraded);
    let svds: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains(r#""ev":"exit""#) && l.contains(r#"/svd.jacobi""#))
        .collect();
    let q = red.model.order;
    let er = format!(r#""span":"pmtbr.project/svd.jacobi","m":{q},"n":{q},"#);
    assert!(
        svds.len() == 2 && svds[0].contains("pmtbr.compress/svd.jacobi") && svds[1].contains(&er),
        "the incremental fallback must SVD `R` once: {svds:#?}"
    );
}
