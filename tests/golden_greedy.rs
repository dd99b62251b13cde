//! Bit-identity golden test for greedy frequency selection: every
//! user-visible f64 of a greedy reduction (the reduced model, its
//! spectrum, and each accepted shift's ladder report: the shift used,
//! the certified residual, the 1-norm condition estimate and the pivot
//! growth) is compared by bit pattern with the fixture
//! `tests/fixtures/golden_greedy.txt`, at 1, 2 and 8 worker threads.
//!
//! The fixture pins the greedy surrogate (candidate scoring, the
//! lowest-index tie rule and both stopping rules), the fresh sparse LU
//! behind every accepted shift (column order, DFS reach, pivot search,
//! pivot growth), the certify step's residual and condition estimate,
//! and the compress stage's QR kernels. A performance change to any of
//! them must reproduce it byte for byte.
//!
//! Re-bless (only for an intentional numerical change) with:
//!
//! ```text
//! PMTBR_THREADS=1 PMTBR_BLESS=1 cargo test --test golden_greedy
//! ```

mod golden;

use circuits::{rc_mesh, rc_mesh_jittered, spread_ports};
use golden::{assert_matches_fixture_at_any_thread_count, mat, record};
use lti::LtiSystem;
use pmtbr::pipeline::run;
use pmtbr::{Budget, NullCache, OrderControl, Reduction, ReductionPlan, Sampling};

fn reduction_records(tag: &str, red: &Reduction) -> String {
    let m = &red.model;
    let d = &red.diagnostics;
    let mut out = String::new();
    out.push_str(&record(&format!("{tag}.sv"), 1, m.singular_values.len(), m.singular_values.iter().copied()));
    out.push_str(&record(&format!("{tag}.order"), 1, 1, std::iter::once(m.order as f64)));
    out.push_str(&record(&format!("{tag}.error_estimate"), 1, 1, std::iter::once(m.error_estimate)));
    out.push_str(&mat(&format!("{tag}.a"), &m.reduced.a));
    out.push_str(&mat(&format!("{tag}.b"), &m.reduced.b));
    out.push_str(&mat(&format!("{tag}.c"), &m.reduced.c));
    out.push_str(&mat(&format!("{tag}.d"), &m.reduced.d));
    out.push_str(&format!(
        "{tag}.sweep requested={} surviving={} renorm={:016x}\n",
        d.requested,
        d.surviving,
        d.weight_renormalization.to_bits()
    ));
    for r in &d.reports {
        out.push_str(&format!("{tag}.shift {} {} refine={}", r.index, r.outcome.label(), r.refine_steps));
        for x in [r.s_used.re, r.s_used.im, r.residual, r.rcond, r.pivot_growth] {
            out.push_str(&format!(" {:016x}", x.to_bits()));
        }
        out.push('\n');
    }
    out
}

fn greedy_plan(omega_max: f64, pool: usize, tol: f64, max_shifts: usize) -> ReductionPlan {
    let order = OrderControl::Tolerance { tolerance: 1e-3, max_order: None };
    let mut plan = ReductionPlan::greedy(omega_max, tol, max_shifts, order);
    plan.sampling = Sampling::Greedy { omega_max, pool, tol, max_shifts };
    plan
}

fn reduce<S: LtiSystem + ?Sized>(sys: &S, plan: &ReductionPlan) -> Reduction {
    run(sys, plan, None, &Budget::default(), &NullCache).expect("greedy reduction")
}

/// Runs every golden greedy case and serializes every user-visible f64.
fn run_all_cases() -> String {
    // A 4-port mesh at the shift budget's own pool, and a jittered
    // 3-port mesh with a pool twice the budget (off-grid placement).
    let mesh = rc_mesh(10, 10, &spread_ports(10, 10, 4), 1.0, 1.0, 2.0).expect("mesh");
    let jittered =
        rc_mesh_jittered(6, 12, &spread_ports(6, 12, 3), 1.0, 1.0, 2.0, 0.3, 7).expect("jittered mesh");
    // A dense state-space system, E = I.
    let ss = rc_mesh(4, 6, &[0, 23], 1.0, 1.0, 2.0)
        .expect("small mesh")
        .to_state_space()
        .expect("state space");

    let mut out = String::new();
    for (label, tol) in [("tol1e-3", 1e-3), ("tol0", 0.0)] {
        out.push_str(&reduction_records(&format!("mesh.{label}"), &reduce(&mesh, &greedy_plan(6.0, 8, tol, 8))));
        out.push_str(&reduction_records(
            &format!("jittered.{label}"),
            &reduce(&jittered, &greedy_plan(8.0, 16, tol, 8)),
        ));
        out.push_str(&reduction_records(&format!("ss.{label}"), &reduce(&ss, &greedy_plan(10.0, 8, tol, 8))));
    }
    out
}

#[test]
fn greedy_is_bit_identical_to_fixture_at_any_thread_count() {
    // The only test in this binary, so it owns PMTBR_THREADS.
    assert_matches_fixture_at_any_thread_count("golden_greedy.txt", run_all_cases);
}
