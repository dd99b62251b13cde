//! End-to-end integration tests: netlist → MNA → reduction → validation,
//! exercising every crate boundary in one flow.

use circuits::{rc_mesh, rc_mesh_jittered, spread_ports, Netlist};
use lti::{frequency_response, linspace, tbr, ShiftOutcome};
use numkit::c64;
use pmtbr::pipeline::run;
use pmtbr::{
    pmtbr, sample_basis, Budget, FaultKind, FaultPlan, NullCache, PmtbrOptions, Reduction,
    ReductionPlan, Sampling,
};

/// Build a custom netlist, reduce it with PMTBR, and verify the reduced
/// model against the full transfer function over a sweep.
#[test]
fn netlist_to_reduced_model_roundtrip() {
    let mut nl = Netlist::new();
    // A two-port RC ladder with a bridging capacitor.
    for k in 1..=6 {
        nl.resistor(k, k + 1, 0.5 + 0.1 * k as f64);
        nl.capacitor(k, 0, 1.0 + 0.2 * k as f64);
    }
    nl.capacitor(7, 0, 2.0);
    nl.capacitor(2, 5, 0.3);
    nl.resistor(1, 0, 2.0);
    nl.resistor(7, 0, 3.0);
    nl.port(1);
    nl.port(7);
    let sys = nl.build().expect("valid netlist");
    assert_eq!(sys.nstates(), 7);

    // The ladder's Hankel values decay slowly (σ₅/σ₀ ≈ 2e-3): six of the
    // seven states carry significant energy.
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 10.0, n: 12 }).with_max_order(6);
    let model = pmtbr(&sys, &opts).expect("reduction succeeds");
    assert!(model.order <= 6);

    let grid = linspace(0.0, 5.0, 30);
    let h_full = frequency_response(&sys, &grid).expect("full sweep");
    let h_red = frequency_response(&model.reduced, &grid).expect("reduced sweep");
    // Absolute error relative to the response scale (pointwise relative
    // error is meaningless where the RC ladder response rolls off to ~0).
    let scale = h_full.h.iter().map(|m| m.norm_max()).fold(0.0, f64::max);
    let err = lti::max_abs_error(&h_full, &h_red) / scale;
    assert!(err < 1e-2, "order-6 model of a 7-state RC ladder must be accurate, got {err:.2e}");
}

/// The PMTBR singular-value spectrum must approximate the Hankel
/// spectrum of the same system (the paper's central claim).
#[test]
fn pmtbr_spectrum_tracks_hankel_spectrum() {
    let ports = spread_ports(5, 5, 2);
    let sys = rc_mesh(5, 5, &ports, 1.0, 1.0, 2.0).expect("mesh");
    let ss = sys.to_state_space().expect("invertible E");
    let hsv = lti::hankel_singular_values(&ss).expect("hankel");
    let basis = sample_basis(&sys, &Sampling::Log { omega_min: 1e-2, omega_max: 50.0, n: 40 })
        .expect("sampling");
    let est = basis.singular_values();
    // The sampled spectrum reflects a *finite-band* Gramian, so exact
    // agreement is not expected (paper Section IV-B); require the decay
    // trends to stay within two orders of magnitude over the leading
    // values.
    for k in 1..6 {
        let exact = hsv[k] / hsv[0];
        let approx = est[k] / est[0];
        assert!(
            approx < exact * 100.0 + 1e-14 && exact < approx * 100.0 + 1e-14,
            "index {k}: exact {exact:.2e} vs pmtbr {approx:.2e} differ by more than 100x"
        );
    }
}

/// Reducing the descriptor directly and reducing its explicit
/// state-space conversion must give models with the same transfer
/// function (the projected subspaces coincide).
#[test]
fn descriptor_and_state_space_reductions_agree() {
    let ports = spread_ports(4, 4, 2);
    let sys = rc_mesh(4, 4, &ports, 1.0, 1.0, 2.0).expect("mesh");
    let _ss = sys.to_state_space().expect("invertible E");
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 10.0, n: 12 }).with_max_order(8);
    let m_desc = pmtbr(&sys, &opts).expect("descriptor reduction");
    // Note: the state-space samples (jwI − A')⁻¹B' equal E⁻¹-weighted
    // descriptor samples only up to the E inner product, so compare
    // transfer functions (which are invariant), not bases.
    for &w in &[0.0, 0.7, 3.0] {
        let s = c64::new(0.0, w);
        let h_full = sys.transfer_function(s).expect("full");
        let h_red = m_desc.reduced.transfer_function(s).expect("reduced");
        let rel = (&h_full - &h_red).norm_max() / h_full.norm_max();
        assert!(rel < 1e-2, "w={w}: relative error {rel}");
    }
}

/// A dense state-space model sweeps through the same escalation ladder
/// as the sparse descriptor it came from. With a non-identity `E`, the
/// samples `(sE − A)⁻¹B = (sI − E⁻¹A)⁻¹E⁻¹B` are the same vectors, so
/// both forms must report the same per-shift outcomes, clean and under
/// injected faults, and the same sample spectrum up to roundoff.
#[test]
fn dense_and_sparse_forms_take_the_same_ladder() {
    let sys = rc_mesh_jittered(4, 4, &[0, 15], 1.0, 0.5, 2.0, 0.3, 3).expect("mesh");
    let ss = sys.to_state_space().expect("invertible E");
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 12 }).with_max_order(6);
    let plan = ReductionPlan::pmtbr(&opts);
    let kinds = vec![FaultKind::Drift, FaultKind::Panic, FaultKind::Singular];
    let faults = FaultPlan::new(5, 0.5, kinds, 2);
    let outcomes = |r: &Reduction| -> Vec<ShiftOutcome> {
        r.diagnostics.reports.iter().map(|rep| rep.outcome).collect()
    };
    for faults in [None, Some(&faults)] {
        let sparse = run(&sys, &plan, faults, &Budget::default(), &NullCache).expect("descriptor");
        let dense = run(&ss, &plan, faults, &Budget::default(), &NullCache).expect("state space");
        let got = outcomes(&sparse);
        assert_eq!(got, outcomes(&dense), "faulted: {}", faults.is_some());
        if faults.is_some() {
            // The plan must exercise every rung it targets.
            let perturbed = got.iter().any(|o| matches!(o, ShiftOutcome::Perturbed { .. }));
            assert!(perturbed, "{got:?}");
            assert!(got.contains(&ShiftOutcome::Dropped) && got.contains(&ShiftOutcome::Refined));
        }
        let (s_sparse, s_dense) = (&sparse.model.singular_values, &dense.model.singular_values);
        assert_eq!(s_sparse.len(), s_dense.len());
        for (a, b) in s_sparse.iter().zip(s_dense) {
            assert!((a - b).abs() <= 1e-10 * s_sparse[0], "{a} vs {b}");
        }
    }
}

/// Full-order PMTBR must reproduce the original system exactly (the
/// projection becomes a similarity transform).
#[test]
fn full_order_reduction_is_exact() {
    let sys = rc_mesh(3, 3, &[0, 8], 1.0, 1.0, 2.0).expect("mesh");
    let n = sys.nstates();
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 2 * n })
        .with_max_order(n)
        .with_tolerance(1e-14);
    let m = pmtbr(&sys, &opts).expect("reduction");
    // The default tolerance would already have truncated below n: only
    // directions carrying sample energy survive. With a 1e-14 tolerance
    // the model keeps (numerically) everything the band excites, so the
    // in-band transfer function is reproduced to solver precision.
    assert!(m.order >= 6, "most of the space must be kept, got {}", m.order);
    for &w in &[0.0, 1.0, 10.0] {
        let s = c64::new(0.0, w);
        let h = sys.transfer_function(s).expect("full");
        let hr = m.reduced.transfer_function(s).expect("reduced");
        assert!(
            (&h - &hr).norm_max() < 1e-6 * h.norm_max().max(1e-12),
            "w={w}: {:.2e}",
            (&h - &hr).norm_max()
        );
    }
}

/// TBR's error bound must hold for PMTBR-equivalent orders on symmetric
/// systems — and PMTBR at the same order must not be wildly worse.
#[test]
fn pmtbr_competitive_with_tbr_on_symmetric_system() {
    let ports = spread_ports(5, 5, 3);
    let sys = rc_mesh(5, 5, &ports, 1.0, 1.0, 2.0).expect("mesh");
    let ss = sys.to_state_space().expect("invertible E");
    let order = 6;
    let exact = tbr(&ss, order).expect("tbr");
    let m = pmtbr(
        &sys,
        &PmtbrOptions::new(Sampling::Log { omega_min: 1e-2, omega_max: 50.0, n: 30 })
            .with_max_order(order),
    )
    .expect("pmtbr");
    let grid = linspace(0.0, 20.0, 40);
    let h = frequency_response(&sys, &grid).expect("full");
    let e_tbr = {
        let hr = frequency_response(&exact.reduced, &grid).expect("tbr sweep");
        lti::max_abs_error(&h, &hr)
    };
    let e_pm = {
        let hr = frequency_response(&m.reduced, &grid).expect("pmtbr sweep");
        lti::max_abs_error(&h, &hr)
    };
    // TBR's bound holds for TBR...
    assert!(e_tbr <= exact.error_bound * (1.0 + 1e-6) + 1e-12);
    // ...and PMTBR is within a modest factor of the bound too.
    assert!(
        e_pm <= 10.0 * exact.error_bound + 1e-12,
        "pmtbr error {e_pm:.3e} vs tbr bound {:.3e}",
        exact.error_bound
    );
}
