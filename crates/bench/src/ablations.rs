//! Ablation studies for the design choices DESIGN.md calls out:
//! sampling strategy, quadrature weights, order-control machinery, and
//! the value of input-correlation information.

use circuits::{connector, peec_resonator, rc_mesh, spread_ports, substrate_network, ConnectorParams, PeecParams, SubstrateParams};
use lti::{
    frequency_response, latent_mixture_inputs, linspace, max_transient_error,
    realify_columns, simulate_descriptor, simulate_ss, FreqResponse, LtiSystem,
};
use pmtbr::{
    input_correlated_pmtbr, pipeline, pmtbr, Budget, IncrementalBasis, InputCorrelatedOptions,
    NullCache, OrderControl, PmtbrOptions, ReductionPlan, SamplePoint, Sampling,
};

use crate::util::{banner, hz, Series};

/// Relative RMS error over a response grid (see `fig10` for rationale).
fn rms_err(a: &FreqResponse, b: &FreqResponse) -> f64 {
    let num: f64 = a.h.iter().zip(&b.h).map(|(x, y)| (x - y).norm_fro().powi(2)).sum();
    let den: f64 = a.h.iter().map(|x| x.norm_fro().powi(2)).sum();
    (num / den).sqrt()
}

/// Ablation A: uniform vs. log vs. greedy adaptive sampling at an equal
/// solve budget, on the resonant PEEC structure.
pub fn sampling_strategies() -> Result<(), Box<dyn std::error::Error>> {
    banner("Ablation A: sampling strategy (equal budget of 30 solves, order 22)");
    let sys = peec_resonator(&PeecParams::default())?;
    let omega_max = hz(20e9);
    let budget = 30usize;
    let order = 22usize;
    let grid: Vec<f64> = linspace(omega_max * 0.005, omega_max * 0.995, 150);
    let h_full = frequency_response(&sys, &grid)?;

    let err_of = |model: &lti::StateSpace| -> Result<f64, numkit::NumError> {
        let h = frequency_response(model, &grid)?;
        Ok(rms_err(&h_full, &h))
    };

    let uni = pmtbr(
        &sys,
        &PmtbrOptions::new(Sampling::Linear { omega_max, n: budget }).with_max_order(order),
    )?;
    let log = pmtbr(
        &sys,
        &PmtbrOptions::new(Sampling::Log {
            omega_min: omega_max * 1e-3,
            omega_max,
            n: budget,
        })
        .with_max_order(order),
    )?;
    let greedy_order = OrderControl::Tolerance { tolerance: 1e-12, max_order: Some(order) };
    let greedy_plan = ReductionPlan::greedy(omega_max, 1e-9, budget, greedy_order);
    let greedy = pipeline::run(&sys, &greedy_plan, None, &Budget::default(), &NullCache)?;

    let mut s = Series::new("ablation_sampling", &["strategy_id", "error"]);
    let e_uni = err_of(&uni.reduced)?;
    let e_log = err_of(&log.reduced)?;
    let e_greedy = err_of(&greedy.model.reduced)?;
    s.push(vec![0.0, e_uni]);
    s.push(vec![1.0, e_log]);
    s.push(vec![2.0, e_greedy]);
    s.emit();
    println!("  0 = uniform: {e_uni:.3e}");
    println!("  1 = log:     {e_log:.3e}");
    println!(
        "  2 = greedy ({} shifts used): {e_greedy:.3e}",
        greedy.diagnostics.surviving
    );
    Ok(())
}

/// Ablation B: quadrature weights on vs. off for log-spaced samples.
/// With spacing varying over decades, dropping the weights distorts the
/// implied frequency weighting of the sampled Gramian.
pub fn quadrature_weights() -> Result<(), Box<dyn std::error::Error>> {
    banner("Ablation B: quadrature weights (log sampling, order 22)");
    let sys = peec_resonator(&PeecParams::default())?;
    let omega_max = hz(20e9);
    let n = 40usize;
    let order = 22usize;
    let weighted = Sampling::Log { omega_min: omega_max * 1e-4, omega_max, n };
    let unweighted = Sampling::Custom(
        weighted
            .points()?
            .into_iter()
            .map(|p| SamplePoint { s: p.s, weight: 1.0 })
            .collect(),
    );
    let grid: Vec<f64> = linspace(omega_max * 0.005, omega_max * 0.995, 150);
    let h_full = frequency_response(&sys, &grid)?;
    let mut s = Series::new("ablation_weights", &["weighted", "error"]);
    for (flag, sampling) in [(1.0, weighted), (0.0, unweighted)] {
        let m = pmtbr(&sys, &PmtbrOptions::new(sampling).with_max_order(order))?;
        let h = frequency_response(&m.reduced, &grid)?;
        let e = rms_err(&h_full, &h);
        s.push(vec![flag, e]);
        println!("  weights {}: {e:.3e}", if flag > 0.5 { "ON " } else { "OFF" });
    }
    s.emit();
    Ok(())
}

/// Ablation C: SVD-per-step vs. incremental-QR order control. The two
/// must agree on the singular values; the incremental path touches only
/// the small `R` factor per update (Section V-C of the paper).
pub fn order_control() -> Result<(), Box<dyn std::error::Error>> {
    banner("Ablation C: per-step full SVD vs. incremental-QR order control");
    // A larger state space, where Algorithm 1 as literally written
    // (re-SVD the whole sample matrix after every new point, paper
    // footnote 2) becomes expensive.
    let ports = spread_ports(30, 30, 4);
    let sys = rc_mesh(30, 30, &ports, 1.0, 1.0, 2.0)?;
    let sampling = Sampling::Linear { omega_max: 20.0, n: 24 };
    let b = sys.input_matrix().to_complex();

    // Naive path: full SVD of all samples after every point.
    let t0 = std::time::Instant::now();
    let mut cols: Option<numkit::DMat> = None;
    let mut s_svd: Vec<f64> = Vec::new();
    for pt in sampling.points()? {
        let z = sys.solve_shifted(pt.s, &b)?.scale(pt.weight.sqrt());
        let real = realify_columns(&z, 1e-13);
        cols = Some(match cols {
            None => real,
            Some(c) => c.hstack(&real)?,
        });
        s_svd = numkit::singular_values(cols.as_ref().expect("set above"))?;
    }
    let t_svd = t0.elapsed();

    // Incremental path: push block per frequency point, estimate each time.
    let t0 = std::time::Instant::now();
    let mut inc = IncrementalBasis::new(sys.nstates());
    let mut s_inc: Vec<f64> = Vec::new();
    for pt in sampling.points()? {
        let z = sys.solve_shifted(pt.s, &b)?.scale(pt.weight.sqrt());
        inc.push_block(&realify_columns(&z, 1e-13))?;
        s_inc = inc.singular_value_estimates()?;
    }
    let t_inc = t0.elapsed();
    let mut worst: f64 = 0.0;
    for (a, b) in s_svd.iter().zip(&s_inc) {
        worst = worst.max((a - b).abs() / s_svd[0]);
    }
    println!("  max relative singular-value disagreement: {worst:.2e}");
    println!("  per-step full-SVD path: {t_svd:?} (n x m SVD per point, incl. solves)");
    println!("  incremental-QR path:    {t_inc:?} (small-R SVD per point, incl. solves)");
    let mut s = Series::new("ablation_order_control", &["path_id", "seconds"]);
    s.push(vec![0.0, t_svd.as_secs_f64()]);
    s.push(vec![1.0, t_inc.as_secs_f64()]);
    s.emit();
    Ok(())
}

/// Ablation D: input-correlated vs. plain PMTBR at equal order on the
/// 150-port substrate — the value of correlation information.
pub fn correlation_information() -> Result<(), Box<dyn std::error::Error>> {
    banner("Ablation D: correlation information (150-port substrate, order 8)");
    let sys = substrate_network(&SubstrateParams::default())?;
    let p = sys.ninputs();
    let h = 5e-12;
    let nt = 600;
    let order = 8usize;
    let u_train = latent_mixture_inputs(p, nt, h, 3, 0.01, 11);
    let u_test = u_train.clone();

    let mut opts =
        InputCorrelatedOptions::new(Sampling::Log { omega_min: 1e8, omega_max: 1e12, n: 12 });
    opts.n_draws = 60;
    opts.max_order = Some(order);
    let ic = input_correlated_pmtbr(&sys, &u_train, &opts)?;

    let plain = pmtbr(
        &sys,
        &PmtbrOptions::new(Sampling::Log { omega_min: 1e8, omega_max: 1e12, n: 12 })
            .with_max_order(order),
    )?;

    let full = simulate_descriptor(&sys, &u_test, h)?;
    let scale = full.y.norm_max();
    let e_ic = max_transient_error(&full, &simulate_ss(&ic.reduced, &u_test, h)?) / scale;
    let e_plain = max_transient_error(&full, &simulate_ss(&plain.reduced, &u_test, h)?) / scale;
    println!("  IC-PMTBR  (order {order}): {e_ic:.3e}");
    println!("  plain     (order {order}): {e_plain:.3e}");
    println!("  correlation information buys {:.1}x accuracy", e_plain / e_ic.max(1e-300));
    let mut s = Series::new("ablation_correlation", &["correlated", "error"]);
    s.push(vec![1.0, e_ic]);
    s.push(vec![0.0, e_plain]);
    s.emit();
    Ok(())
}

/// Ablation E: frequency-selective PMTBR vs. *exact* frequency-limited
/// (Gawronski–Juang) TBR at equal order on the connector's 0–8 GHz band.
/// The exact method needs dense `O(n³)` Gramians plus an
/// eigendecomposition; FS-PMTBR needs a handful of sparse solves.
pub fn frequency_limited_exact() -> Result<(), Box<dyn std::error::Error>> {
    banner("Ablation E: FS-PMTBR vs. exact frequency-limited TBR (connector, order 18)");
    let sys = connector(&ConnectorParams::default())?;
    let band_hi = hz(8e9);
    let order = 18usize;

    let t0 = std::time::Instant::now();
    let fs = pmtbr::frequency_selective_pmtbr(&sys, &[(0.0, band_hi)], 60, Some(order), 1e-12)?;
    let t_fs = t0.elapsed();

    let ss = sys.to_state_space()?;
    let t0 = std::time::Instant::now();
    let fl = lti::frequency_limited_tbr(&ss, band_hi, order)?;
    let t_fl = t0.elapsed();

    let grid: Vec<f64> = linspace(band_hi * 0.01, band_hi * 0.99, 80);
    let h = frequency_response(&sys, &grid)?;
    let e_fs = rms_err(&h, &frequency_response(&fs.reduced, &grid)?);
    let e_fl = rms_err(&h, &frequency_response(&fl.reduced, &grid)?);
    println!("  FS-PMTBR  (order {:2}): in-band rms error {e_fs:.3e}  [{t_fs:?}]", fs.order);
    println!("  GJ-FLTBR  (order {:2}): in-band rms error {e_fl:.3e}  [{t_fl:?}]", fl.reduced.nstates());
    println!("  (sampled vs. exact band-limited Gramians: comparable accuracy, very different cost)");
    let mut s = Series::new("ablation_freqlim", &["method_id", "error", "seconds"]);
    s.push(vec![0.0, e_fs, t_fs.as_secs_f64()]);
    s.push(vec![1.0, e_fl, t_fl.as_secs_f64()]);
    s.emit();
    Ok(())
}

/// Runs all ablations.
pub fn run() -> Result<(), Box<dyn std::error::Error>> {
    sampling_strategies()?;
    quadrature_weights()?;
    order_control()?;
    correlation_information()?;
    frequency_limited_exact()?;
    Ok(())
}
