//! Regression test for the unified-pipeline refactor: every reduction
//! variant — not just the baseline — must honor `PMTBR_FAULT` and
//! degrade gracefully instead of erroring.
//!
//! Before the `pmtbr::pipeline` refactor, `frequency_selective_pmtbr`
//! and `input_correlated_pmtbr` ran strict per-variant solve loops that
//! silently bypassed the recovery ladder: an injected worker panic
//! aborted the whole reduction. Now they execute through the shared
//! tolerant engine, so faulted quadrature nodes are dropped with
//! renormalized weights and a full [`pmtbr::SweepDiagnostics`] account.
//!
//! NOTE: this file holds exactly one `#[test]` because it mutates the
//! `PMTBR_FAULT` process environment; a second concurrent test in the
//! same binary could observe the injected faults.

use circuits::{rc_mesh, spread_ports};
use lti::dithered_square_inputs;
use pmtbr::pipeline::run_cached;
use pmtbr::{
    frequency_selective_pmtbr, input_correlated_pmtbr, Budget, FaultPlan, InputCorrelatedOptions,
    NullCache, ReductionPlan, Sampling,
};

const FAULT_SPEC: &str = "seed=5,rate=0.25,kinds=panic,depth=2";

#[test]
fn frequency_selective_and_input_correlated_degrade_gracefully_under_faults() {
    // Guard the seed choice: the spec must actually fault some of the
    // first few sweep indices, or the degradation assertions below are
    // vacuous.
    let plan = FaultPlan::parse_spec(FAULT_SPEC)
        .expect("spec parses")
        .expect("spec is not `off`");
    let faulted = (0..12).filter(|&i| plan.fault_for(i).is_some()).count();
    assert!(faulted > 0, "seed must fault at least one of the first 12 indices");

    std::env::set_var("PMTBR_FAULT", FAULT_SPEC);

    // --- Algorithm 2: frequency-selective --------------------------------
    let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).expect("mesh");
    let bands = [(0.0, 2.0), (5.0, 10.0)];
    let m_fsel = frequency_selective_pmtbr(&sys, &bands, 12, Some(5), 1e-10)
        .expect("frequency-selective must degrade, not error");
    assert!(m_fsel.reduced.a.is_finite());
    assert!(m_fsel.order >= 1 && m_fsel.order <= 5);

    // The same plan, run through the pipeline directly, exposes the
    // diagnostics the shim discards: every requested node accounted
    // for, some dropped, weights renormalized.
    let fsel_plan = ReductionPlan::frequency_selective(&bands, 12, Some(5), 1e-10);
    let red = run_cached(&sys, &fsel_plan, &Budget::default(), &NullCache).expect("pipeline run");
    let diag = &red.diagnostics;
    assert!(diag.requested > 0, "diagnostics must not be empty");
    assert_eq!(diag.reports.len(), diag.requested);
    assert!(diag.dropped() > 0, "injected panics must drop nodes: {}", diag.summary());
    assert!(diag.surviving > 0);
    assert!(diag.is_degraded());
    assert!(diag.weight_renormalization > 1.0);
    for report in diag.reports.iter().filter(|r| r.outcome.is_dropped()) {
        assert!(report.error.is_some(), "drops must carry their cause");
    }
    // Shim and direct pipeline run see the same env-injected faults.
    assert_eq!(m_fsel.singular_values, red.model.singular_values);

    // --- Algorithm 3: input-correlated -----------------------------------
    let ports = spread_ports(4, 8, 16);
    let sys_mc = rc_mesh(4, 8, &ports, 1.0, 1.0, 2.0).expect("multiport mesh");
    let u_train = dithered_square_inputs(16, 200, 0.05, 4.0, 0.1, 1);
    let mut opts = InputCorrelatedOptions::new(Sampling::Linear { omega_max: 6.0, n: 12 });
    opts.n_draws = 24;
    opts.max_order = Some(5);
    let m_ic = input_correlated_pmtbr(&sys_mc, &u_train, &opts)
        .expect("input-correlated must degrade, not error");
    assert!(m_ic.reduced.a.is_finite());
    assert!(m_ic.order >= 1 && m_ic.order <= 5);

    let ic_plan = ReductionPlan::input_correlated(&u_train, &opts);
    let red_ic =
        run_cached(&sys_mc, &ic_plan, &Budget::default(), &NullCache).expect("pipeline run");
    let diag_ic = &red_ic.diagnostics;
    assert!(diag_ic.requested > 0, "diagnostics must not be empty");
    assert_eq!(diag_ic.reports.len(), diag_ic.requested);
    assert!(diag_ic.dropped() > 0, "injected panics must drop nodes: {}", diag_ic.summary());
    assert!(diag_ic.surviving > 0);
    assert!(diag_ic.weight_renormalization > 1.0);

    // Degraded runs stay deterministic: the fault pattern is a pure
    // function of (seed, index), so reruns are bit-identical.
    let m_ic2 = input_correlated_pmtbr(&sys_mc, &u_train, &opts).expect("rerun");
    assert_eq!(m_ic.singular_values, m_ic2.singular_values);

    std::env::remove_var("PMTBR_FAULT");

    // Clean reruns (no env) must not be degraded — the variable really
    // was the only fault source.
    let clean = run_cached(&sys, &fsel_plan, &Budget::default(), &NullCache).expect("clean run");
    assert!(!clean.diagnostics.is_degraded());
    assert_eq!(clean.diagnostics.weight_renormalization, 1.0);
}
