//! Refactor-equivalence golden test: the unified pipeline behind the
//! classic entry points must be *bit-identical* to the pre-refactor
//! implementations, at every thread count.
//!
//! The fixture (`tests/fixtures/golden_pipeline.txt`) was blessed from
//! the pre-pipeline code (PR 4 vintage): per-variant solve loops, strict
//! engine sweeps, plain SVD — and re-blessed for the parallel blocked
//! compression kernels and for the fill-reducing sparse LU column
//! order. Those re-blesses are *intentional* numerical changes
//! with four documented sources, all at the floating-point-roundoff
//! level:
//!
//! 1. Tall sample-matrix SVDs are QR-preconditioned (Jacobi runs on the
//!    `n × n` R factor), which legitimately changes the rotation order
//!    and therefore the last bits of every singular value/vector.
//! 2. Jacobi sweeps follow the fixed tournament (round-robin) pair
//!    schedule instead of the cyclic `(p, q)` order — again a rotation
//!    reorder, chosen so disjoint pair rounds can run on any thread
//!    count with bit-identical results.
//! 3. Singular values at the freeze floor (`σ ≤ 1e-17·σ_max`, pure
//!    roundoff the sweeps never orthogonalized) are reported as exact
//!    zeros with orthonormally completed `U` columns, instead of
//!    normalized noise.
//! 4. `sparsekit::SparseLu` eliminates columns in approximate-minimum-
//!    degree order (`P·A·Q = L·U`) instead of netlist order, which
//!    changes the roundoff of every shifted solve. Against the previous
//!    fixture every order is identical, singular values agree within
//!    1e-15·σ_max, and each reduced transfer function is within 1e-7
//!    relative on 41 points across its band. The reduced `A/B/C`
//!    entries may move by O(1): the 8×8 mesh with ports at nodes 0 and
//!    63 is symmetric, so its σ come in near-degenerate pairs, and a
//!    rotation inside a pair changes only state coordinates.
//!
//! The same re-bless added the cross-Gramian variant to the covered
//! set, pinning the restructured `N = Z_Lᵀ·Z_R` compression (and its
//! shared-factorization two-sided sweep) at every thread count.
//!
//! The *invariant this test protects is unchanged*: every f64 is
//! compared by bit pattern across thread counts 1/2/8, so the pipeline
//! must still be deterministic at any parallelism.
//!
//! Re-bless (only for an intentional numerical change) with:
//!
//! ```text
//! PMTBR_THREADS=1 PMTBR_BLESS=1 cargo test --test golden_pipeline
//! ```

mod golden;

use circuits::{rc_mesh, spread_ports};
use golden::{assert_matches_fixture_at_any_thread_count, mat, record};
use lti::dithered_square_inputs;
use pmtbr::{
    balanced_pmtbr, cross_gramian_pmtbr, input_correlated_pmtbr, pmtbr, InputCorrelatedOptions,
    PmtbrModel, PmtbrOptions, Sampling,
};

fn model_records(tag: &str, m: &PmtbrModel) -> String {
    let mut out = String::new();
    out.push_str(&record(
        &format!("{tag}.sv"),
        1,
        m.singular_values.len(),
        m.singular_values.iter().copied(),
    ));
    out.push_str(&record(&format!("{tag}.order"), 1, 1, std::iter::once(m.order as f64)));
    out.push_str(&record(
        &format!("{tag}.error_estimate"),
        1,
        1,
        std::iter::once(m.error_estimate),
    ));
    out.push_str(&mat(&format!("{tag}.a"), &m.reduced.a));
    out.push_str(&mat(&format!("{tag}.b"), &m.reduced.b));
    out.push_str(&mat(&format!("{tag}.c"), &m.reduced.c));
    out.push_str(&mat(&format!("{tag}.d"), &m.reduced.d));
    out
}

/// Runs all four golden variants and serializes every user-visible f64.
fn run_all_variants() -> String {
    let sys = rc_mesh(8, 8, &[0, 63], 1.0, 1.0, 2.0).expect("mesh");
    let sampling = Sampling::Linear { omega_max: 50.0, n: 12 };

    let base = pmtbr(&sys, &PmtbrOptions::new(sampling.clone()).with_max_order(6)).expect("pmtbr");
    let bal = balanced_pmtbr(&sys, &sampling, 5).expect("balanced");
    let cross = cross_gramian_pmtbr(&sys, &sampling, 5).expect("cross");

    let ports = spread_ports(4, 8, 16);
    let psys = rc_mesh(4, 8, &ports, 1.0, 1.0, 2.0).expect("port mesh");
    let u = dithered_square_inputs(16, 200, 0.05, 4.0, 0.1, 1);
    let mut iopts = InputCorrelatedOptions::new(Sampling::Linear { omega_max: 6.0, n: 12 });
    iopts.n_draws = 24;
    iopts.max_order = Some(5);
    let corr = input_correlated_pmtbr(&psys, &u, &iopts).expect("input-correlated");

    let mut out = String::new();
    out.push_str(&model_records("pmtbr", &base));
    out.push_str(&model_records("balanced", &bal));
    out.push_str(&model_records("cross", &cross));
    out.push_str(&model_records("correlated", &corr));
    out
}

#[test]
fn pipeline_is_bit_identical_to_pre_refactor_fixture_at_any_thread_count() {
    // This test owns PMTBR_THREADS: it is the only test in this binary
    // that touches it.
    assert_matches_fixture_at_any_thread_count("golden_pipeline.txt", run_all_variants);
}

#[test]
fn input_correlated_is_reproducible_for_a_fixed_seed() {
    let ports = spread_ports(4, 8, 16);
    let sys = rc_mesh(4, 8, &ports, 1.0, 1.0, 2.0).expect("mesh");
    let u = dithered_square_inputs(16, 200, 0.05, 4.0, 0.1, 1);
    let mut opts = InputCorrelatedOptions::new(Sampling::Linear { omega_max: 6.0, n: 12 });
    opts.n_draws = 24;
    opts.max_order = Some(5);
    let a = input_correlated_pmtbr(&sys, &u, &opts).expect("run a");
    let b = input_correlated_pmtbr(&sys, &u, &opts).expect("run b");
    assert_eq!(model_records("x", &a), model_records("x", &b), "fixed seed must reproduce bits");
}
