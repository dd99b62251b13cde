//! Algorithm 3: input-correlated PMTBR for massively coupled networks.
//!
//! When port waveforms are correlated — signals from a common functional
//! block or clock domain — the relevant Gramian is `A·X + X·Aᵀ + B·K·Bᵀ`
//! with `K` the input correlation matrix, whose eigenvalues decay much
//! faster than the uncorrelated (`K = I`) Gramian's. Algorithm 3 samples
//! that Gramian stochastically: draw input directions from the empirical
//! correlation (the SVD of observed waveforms) and solve one shifted
//! system per draw — so the basis growth is decoupled from the port
//! count, unlike block moment matching.
//!
//! Note on the paper's notation: Fig. 4 writes `B·U_K·r` with
//! `𝒰 = V_K·S_K·U_Kᵀ`; dimensionally the input-direction matrix must be
//! the *left* factor `V_K` (p × p). We implement `B·V_K·r`,
//! `r ~ N(0, diag(S_K²/N))`. See DESIGN.md.

use lti::LtiSystem;
use numkit::{DMat, NumError};

use crate::pipeline::{run_cached, ReductionPlan};
use crate::{Budget, NullCache, PmtbrModel, Sampling};

/// Configuration for input-correlated PMTBR.
#[derive(Debug, Clone, PartialEq)]
pub struct InputCorrelatedOptions {
    /// Frequency sampling scheme; draws cycle through its points.
    pub sampling: Sampling,
    /// Number of stochastic samples (columns before compression).
    pub n_draws: usize,
    /// Relative singular-value truncation tolerance.
    pub tolerance: f64,
    /// Optional order cap.
    pub max_order: Option<usize>,
    /// Correlation directions with `S_K < corr_tol·S_K[0]` are dropped.
    pub corr_tol: f64,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
}

impl InputCorrelatedOptions {
    /// Sensible defaults: 64 draws, `1e-10` truncation, no cap.
    pub fn new(sampling: Sampling) -> Self {
        InputCorrelatedOptions {
            sampling,
            n_draws: 64,
            tolerance: 1e-10,
            max_order: None,
            corr_tol: 1e-8,
            seed: 0x9e3779b9,
        }
    }
}

/// Runs input-correlated PMTBR (Algorithm 3).
///
/// `u_samples` is the `p × N` matrix of observed input waveform samples
/// (each column one time sample across all `p` ports) — e.g. from
/// [`lti::dithered_square_inputs`] or a circuit-level simulation without
/// the parasitic network.
///
/// Executes [`ReductionPlan::input_correlated`] through the shared
/// pipeline: the stochastic draws become per-node input directions for
/// the same tolerant, parallel, traced sweep every variant uses —
/// under `PMTBR_FAULT` the quadrature degrades gracefully instead of
/// erroring, exactly like the other entry points.
///
/// # Errors
///
/// - [`NumError::ShapeMismatch`] if `u_samples` has a row count other
///   than the system's input count.
/// - Propagates sampling/solve/SVD/projection errors.
///
/// # Examples
///
/// ```
/// use circuits::multiport_rc32;
/// use lti::dithered_square_inputs;
/// use pmtbr::{input_correlated_pmtbr, InputCorrelatedOptions, Sampling};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let sys = multiport_rc32()?;
/// let u = dithered_square_inputs(32, 200, 0.05, 4.0, 0.1, 7);
/// let mut opts = InputCorrelatedOptions::new(Sampling::Linear { omega_max: 8.0, n: 16 });
/// opts.max_order = Some(15);
/// opts.n_draws = 40;
/// let m = input_correlated_pmtbr(&sys, &u, &opts)?;
/// assert!(m.order <= 15);
/// # Ok(())
/// # }
/// ```
pub fn input_correlated_pmtbr<S: LtiSystem + ?Sized>(
    sys: &S,
    u_samples: &DMat,
    opts: &InputCorrelatedOptions,
) -> Result<PmtbrModel, NumError> {
    let plan = ReductionPlan::input_correlated(u_samples, opts);
    Ok(run_cached(sys, &plan, &Budget::default(), &NullCache)?.model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{rc_mesh, spread_ports};
    use lti::{
        dithered_square_inputs, max_transient_error, random_phase_square_inputs,
        simulate_descriptor, simulate_ss,
    };

    fn test_system() -> lti::Descriptor {
        let ports = spread_ports(4, 8, 16);
        rc_mesh(4, 8, &ports, 1.0, 1.0, 2.0).unwrap()
    }

    fn opts(n_draws: usize, order: usize) -> InputCorrelatedOptions {
        let mut o = InputCorrelatedOptions::new(Sampling::Linear { omega_max: 6.0, n: 12 });
        o.n_draws = n_draws;
        o.max_order = Some(order);
        o
    }

    #[test]
    fn shape_validation() {
        let sys = test_system();
        let u = DMat::zeros(5, 10); // wrong row count
        assert!(input_correlated_pmtbr(&sys, &u, &opts(8, 4)).is_err());
    }

    #[test]
    fn correlated_model_tracks_in_class_inputs_and_beats_tbr() {
        let sys = test_system();
        let h = 0.05;
        let nt = 400;
        let period = 4.0;
        let order = 10;
        let u_train = dithered_square_inputs(16, nt, h, period, 0.1, 1);
        let m = input_correlated_pmtbr(&sys, &u_train, &opts(64, order)).unwrap();
        assert!(m.order <= order);

        // Simulate full vs reduced on fresh in-class inputs.
        let u_test = dithered_square_inputs(16, nt, h, period, 0.1, 2);
        let full = simulate_descriptor(&sys, &u_test, h).unwrap();
        let red = simulate_ss(&m.reduced, &u_test, h).unwrap();
        let scale = full.y.norm_max();
        let e_ic = max_transient_error(&full, &red) / scale;
        assert!(e_ic < 0.10, "in-class relative error {e_ic:.3} too large");

        // The paper's Fig. 13 claim: same-order *uncorrelated* TBR is
        // much worse on the same workload.
        let tbr_model = lti::tbr(&sys.to_state_space().unwrap(), order).unwrap();
        let red_tbr = simulate_ss(&tbr_model.reduced, &u_test, h).unwrap();
        let e_tbr = max_transient_error(&full, &red_tbr) / scale;
        assert!(
            e_ic < e_tbr,
            "input-correlated ({e_ic:.3}) must beat plain TBR ({e_tbr:.3}) at equal order"
        );
    }

    #[test]
    fn out_of_class_inputs_degrade_accuracy() {
        // The Fig. 14 effect: random-phase inputs break the correlated model.
        let sys = test_system();
        let h = 0.05;
        let nt = 400;
        let period = 4.0;
        let u_train = dithered_square_inputs(16, nt, h, period, 0.1, 1);
        let m = input_correlated_pmtbr(&sys, &u_train, &opts(48, 6)).unwrap();

        let u_in = dithered_square_inputs(16, nt, h, period, 0.1, 3);
        let u_out = random_phase_square_inputs(16, nt, h, period, 3);
        let err = |u: &DMat| {
            let full = simulate_descriptor(&sys, u, h).unwrap();
            let red = simulate_ss(&m.reduced, u, h).unwrap();
            max_transient_error(&full, &red) / full.y.norm_max()
        };
        let e_in = err(&u_in);
        let e_out = err(&u_out);
        assert!(
            e_out > 2.0 * e_in,
            "out-of-class error {e_out:.3} must exceed in-class {e_in:.3}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let sys = test_system();
        let u = dithered_square_inputs(16, 200, 0.05, 4.0, 0.1, 1);
        let a = input_correlated_pmtbr(&sys, &u, &opts(16, 5)).unwrap();
        let b = input_correlated_pmtbr(&sys, &u, &opts(16, 5)).unwrap();
        assert_eq!(a.singular_values, b.singular_values);
    }
}
