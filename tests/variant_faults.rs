//! Regression tests for the unified-pipeline refactor and its fault
//! plan: every reduction variant — not just the baseline — degrades
//! gracefully under an injected [`FaultPlan`] instead of erroring, and
//! the library takes that plan only as an argument of
//! [`pmtbr::pipeline::run`], never from the environment.
//!
//! Before the `pmtbr::pipeline` refactor, `frequency_selective_pmtbr`
//! and `input_correlated_pmtbr` ran strict per-variant solve loops that
//! silently bypassed the recovery ladder: an injected worker panic
//! aborted the whole reduction. Now their plans execute through the
//! shared tolerant engine, so faulted quadrature nodes are dropped with
//! renormalized weights and a full [`pmtbr::SweepDiagnostics`] account.

use circuits::{rc_mesh, spread_ports};
use lti::dithered_square_inputs;
use pmtbr::pipeline::{run, run_cached};
use pmtbr::{
    Budget, FaultPlan, InputCorrelatedOptions, NullCache, PmtbrOptions, ReductionPlan, Sampling,
};

const FAULT_SPEC: &str = "seed=5,rate=0.25,kinds=panic,depth=2";

fn fault_plan() -> FaultPlan {
    FaultPlan::parse_spec(FAULT_SPEC).expect("spec parses").expect("spec is not `off`")
}

#[test]
fn frequency_selective_and_input_correlated_degrade_gracefully_under_faults() {
    // Guard the seed choice: the spec must actually fault some of the
    // first few sweep indices, or the degradation assertions below are
    // vacuous.
    let faults = fault_plan();
    let faulted = (0..12).filter(|&i| faults.fault_for(i).is_some()).count();
    assert!(faulted > 0, "seed must fault at least one of the first 12 indices");

    // --- Algorithm 2: frequency-selective --------------------------------
    // Every requested node is accounted for, some dropped, weights
    // renormalized.
    let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).expect("mesh");
    let bands = [(0.0, 2.0), (5.0, 10.0)];
    let fsel_plan = ReductionPlan::frequency_selective(&bands, 12, Some(5), 1e-10);
    let red = run(&sys, &fsel_plan, Some(&faults), &Budget::default(), &NullCache)
        .expect("frequency-selective must degrade, not error");
    assert!(red.model.reduced.a.is_finite());
    assert!(red.model.order >= 1 && red.model.order <= 5);
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

    // --- Algorithm 3: input-correlated -----------------------------------
    let ports = spread_ports(4, 8, 16);
    let sys_mc = rc_mesh(4, 8, &ports, 1.0, 1.0, 2.0).expect("multiport mesh");
    let u_train = dithered_square_inputs(16, 200, 0.05, 4.0, 0.1, 1);
    let mut opts = InputCorrelatedOptions::new(Sampling::Linear { omega_max: 6.0, n: 12 });
    opts.n_draws = 24;
    opts.max_order = Some(5);
    let ic_plan = ReductionPlan::input_correlated(&u_train, &opts);
    let red_ic = run(&sys_mc, &ic_plan, Some(&faults), &Budget::default(), &NullCache)
        .expect("input-correlated must degrade, not error");
    assert!(red_ic.model.reduced.a.is_finite());
    assert!(red_ic.model.order >= 1 && red_ic.model.order <= 5);
    let diag_ic = &red_ic.diagnostics;
    assert!(diag_ic.requested > 0, "diagnostics must not be empty");
    assert_eq!(diag_ic.reports.len(), diag_ic.requested);
    assert!(diag_ic.dropped() > 0, "injected panics must drop nodes: {}", diag_ic.summary());
    assert!(diag_ic.surviving > 0);
    assert!(diag_ic.weight_renormalization > 1.0);

    // Degraded runs stay deterministic: the fault pattern is a pure
    // function of (seed, index), so reruns are bit-identical.
    let rerun = run(&sys_mc, &ic_plan, Some(&faults), &Budget::default(), &NullCache)
        .expect("rerun");
    assert_eq!(red_ic.model.singular_values, rerun.model.singular_values);

    // An unfaulted run is not degraded: the plan was the only fault
    // source.
    let clean = run(&sys, &fsel_plan, None, &Budget::default(), &NullCache).expect("clean run");
    assert!(!clean.diagnostics.is_degraded());
    assert_eq!(clean.diagnostics.weight_renormalization, 1.0);
}

/// The bits of a reduced model: its four matrices and its spectrum.
fn model_bits(m: &pmtbr::PmtbrModel) -> Vec<u64> {
    let r = &m.reduced;
    [&r.a, &r.b, &r.c, &r.d]
        .iter()
        .flat_map(|mat| mat.as_slice().iter())
        .chain(&m.singular_values)
        .map(|x| x.to_bits())
        .collect()
}

/// A run is a function of its arguments: with `PMTBR_FAULT` set in this
/// process, the variant functions and `run_cached` still return the
/// unfaulted model, bit for bit.
#[test]
fn the_library_ignores_pmtbr_fault() {
    let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).expect("mesh");
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 10.0, n: 12 }).with_max_order(5);
    let plan = ReductionPlan::pmtbr(&opts);
    let clean = run(&sys, &plan, None, &Budget::default(), &NullCache).expect("clean run");
    let faulted = run(&sys, &plan, Some(&fault_plan()), &Budget::default(), &NullCache)
        .expect("faulted run");
    assert_ne!(model_bits(&faulted.model), model_bits(&clean.model), "the spec must bite");

    std::env::set_var("PMTBR_FAULT", FAULT_SPEC);
    let variant = pmtbr::pmtbr(&sys, &opts);
    let cached = run_cached(&sys, &plan, &Budget::default(), &NullCache);
    std::env::remove_var("PMTBR_FAULT");

    assert_eq!(model_bits(&variant.expect("variant run")), model_bits(&clean.model));
    let cached = cached.expect("run_cached");
    assert_eq!(model_bits(&cached.model), model_bits(&clean.model));
    assert!(!cached.diagnostics.is_degraded());
}
