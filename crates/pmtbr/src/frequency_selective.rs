//! Algorithm 2: frequency-selective PMTBR.
//!
//! The statistical reading of the Gramian (paper Section IV-B) says the
//! standard TBR weighting is only optimal for white-spectrum inputs.
//! When the inputs are band-limited — or only in-band accuracy matters —
//! restricting the quadrature to the bands of interest yields a
//! "finite-bandwidth Gramian" and much smaller models at equal in-band
//! accuracy. Mechanically this is [`pmtbr`] with band-restricted
//! sampling; the convenience wrapper here packages the paper's
//! Algorithm 2 interface.

use lti::LtiSystem;
use numkit::NumError;

use crate::pipeline::{run_cached, ReductionPlan};
use crate::{Budget, NullCache, PmtbrModel};

/// Runs frequency-selective PMTBR over the union of `bands`
/// (each `(lo, hi)` in rad/s), using `n_samples` total quadrature nodes.
///
/// Executes [`ReductionPlan::frequency_selective`] through the shared
/// pipeline, unfaulted, so band-restricted sweeps get the same parallel
/// engine, fault-tolerance ladder, and tracing as every other variant.
///
/// # Errors
///
/// Propagates sampling validation and [`crate::pipeline::run_cached`] errors.
///
/// # Examples
///
/// ```
/// use circuits::rc_mesh;
/// use pmtbr::frequency_selective_pmtbr;
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let sys = rc_mesh(4, 4, &[0], 1.0, 1.0, 2.0)?;
/// // Accuracy wanted only in ω ∈ [0, 2] rad/s.
/// let m = frequency_selective_pmtbr(&sys, &[(0.0, 2.0)], 15, Some(5), 1e-10)?;
/// assert!(m.order <= 5);
/// # Ok(())
/// # }
/// ```
pub fn frequency_selective_pmtbr<S: LtiSystem + ?Sized>(
    sys: &S,
    bands: &[(f64, f64)],
    n_samples: usize,
    max_order: Option<usize>,
    tolerance: f64,
) -> Result<PmtbrModel, NumError> {
    let plan = ReductionPlan::frequency_selective(bands, n_samples, max_order, tolerance);
    Ok(run_cached(sys, &plan, &Budget::default(), &NullCache)?.model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{peec_resonator, PeecParams};
    use lti::{frequency_response, linspace, max_rel_error};

    #[test]
    fn in_band_beats_out_of_band_accuracy() {
        // Reduce a resonant system focusing on a low band; in-band error
        // must be far smaller than out-of-band error.
        let sys = peec_resonator(&PeecParams::default()).unwrap();
        let band_hi = 2.0 * std::f64::consts::PI * 3e9;
        let m = frequency_selective_pmtbr(&sys, &[(0.0, band_hi)], 40, Some(12), 1e-12).unwrap();

        let in_grid: Vec<f64> = linspace(band_hi * 0.02, band_hi * 0.98, 40);
        let out_grid: Vec<f64> = linspace(band_hi * 2.0, band_hi * 6.0, 40);
        let h_in = frequency_response(&sys, &in_grid).unwrap();
        let h_in_r = frequency_response(&m.reduced, &in_grid).unwrap();
        let h_out = frequency_response(&sys, &out_grid).unwrap();
        let h_out_r = frequency_response(&m.reduced, &out_grid).unwrap();
        let e_in = max_rel_error(&h_in, &h_in_r);
        let e_out = max_rel_error(&h_out, &h_out_r);
        assert!(
            e_in < 0.05 && e_in * 3.0 < e_out,
            "in-band {e_in:.2e} must be far better than out-of-band {e_out:.2e}"
        );
    }

    #[test]
    fn multiple_bands_are_all_covered() {
        let sys = peec_resonator(&PeecParams::default()).unwrap();
        let w0 = 2.0 * std::f64::consts::PI * 1e9;
        let m =
            frequency_selective_pmtbr(&sys, &[(0.0, w0), (4.0 * w0, 5.0 * w0)], 30, Some(12), 1e-12)
                .unwrap();
        for grid in [linspace(w0 * 0.1, w0 * 0.9, 20), linspace(4.1 * w0, 4.9 * w0, 20)] {
            let h = frequency_response(&sys, &grid).unwrap();
            let hr = frequency_response(&m.reduced, &grid).unwrap();
            assert!(max_rel_error(&h, &hr) < 0.1, "both bands must be approximated");
        }
    }
}
