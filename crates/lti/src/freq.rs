//! Frequency-response sweeps and error metrics.

use numkit::{c64, NumError, ZMat};

use crate::LtiSystem;

/// `n` evenly spaced points in `[lo, hi]` (inclusive).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n > 0, "linspace needs at least one point");
    if n == 1 {
        return vec![lo];
    }
    let step = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

/// `n` logarithmically spaced points in `[lo, hi]` (inclusive).
///
/// # Panics
///
/// Panics if `n == 0` or if `lo`/`hi` are not strictly positive.
pub fn logspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > 0.0, "logspace needs strictly positive endpoints");
    linspace(lo.ln(), hi.ln(), n).into_iter().map(f64::exp).collect()
}

/// A sampled frequency response.
#[derive(Debug, Clone)]
pub struct FreqResponse {
    /// Angular frequencies `ω` (rad/s) of the samples.
    pub omega: Vec<f64>,
    /// `H(jωₖ)` for each sample (each `q × p`).
    pub h: Vec<ZMat>,
}

impl FreqResponse {
    /// Magnitude `|H(jω)[i,j]|` across the sweep.
    pub fn magnitude(&self, i: usize, j: usize) -> Vec<f64> {
        self.h.iter().map(|m| m[(i, j)].abs()).collect()
    }
}

/// Evaluates `H(jω)` over a frequency grid.
///
/// The sweep runs through [`LtiSystem::solve_shifted_many`], so sparse
/// descriptor systems pay for assembly and symbolic LU analysis once and
/// the grid points fan out across threads (see `numkit::par`); the result
/// is identical to evaluating [`LtiSystem::transfer_function`] point by
/// point.
///
/// # Errors
///
/// Propagates shifted-solve failures (a sample exactly on a pole).
pub fn frequency_response<S: LtiSystem + ?Sized>(
    sys: &S,
    omega: &[f64],
) -> Result<FreqResponse, NumError> {
    let shifts: Vec<c64> = omega.iter().map(|&w| c64::new(0.0, w)).collect();
    let zs = sys.solve_shifted_many(&shifts, &sys.input_matrix().to_complex())?;
    let c = sys.output_matrix().to_complex();
    let d = sys.feedthrough().to_complex();
    let mut h = Vec::with_capacity(omega.len());
    for z in &zs {
        h.push(&c.matmul(z)? + &d);
    }
    Ok(FreqResponse { omega: omega.to_vec(), h })
}

/// Worst-case absolute error `max_k ‖H₁(jωₖ) − H₂(jωₖ)‖_max` between two
/// sampled responses on the same grid.
///
/// # Panics
///
/// Panics if the responses have different lengths.
pub fn max_abs_error(a: &FreqResponse, b: &FreqResponse) -> f64 {
    assert_eq!(a.h.len(), b.h.len(), "responses must share a grid");
    a.h.iter().zip(&b.h).map(|(x, y)| (x - y).norm_max()).fold(0.0, f64::max)
}

/// Worst-case relative error `max_k ‖H₁ − H₂‖ / max(‖H₁‖, floor)`.
///
/// # Panics
///
/// Panics if the responses have different lengths.
pub fn max_rel_error(a: &FreqResponse, b: &FreqResponse) -> f64 {
    assert_eq!(a.h.len(), b.h.len(), "responses must share a grid");
    let floor = a.h.iter().map(|m| m.norm_max()).fold(0.0, f64::max) * 1e-12;
    a.h.iter()
        .zip(&b.h)
        .map(|(x, y)| (x - y).norm_max() / x.norm_max().max(floor).max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateSpace;
    use numkit::DMat;

    fn one_pole() -> StateSpace {
        StateSpace::new(
            DMat::from_rows(&[&[-1.0]]),
            DMat::from_rows(&[&[1.0]]),
            DMat::from_rows(&[&[1.0]]),
            None,
        )
        .unwrap()
    }

    #[test]
    fn linspace_endpoints() {
        let v = linspace(0.0, 1.0, 5);
        assert_eq!(v, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(linspace(3.0, 9.0, 1), vec![3.0]);
    }

    #[test]
    fn logspace_is_geometric() {
        let v = logspace(1.0, 100.0, 3);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[1] - 10.0).abs() < 1e-10);
        assert!((v[2] - 100.0).abs() < 1e-10);
    }

    #[test]
    fn lowpass_magnitude_rolls_off() {
        let sys = one_pole();
        let resp = frequency_response(&sys, &[0.0, 1.0, 10.0]).unwrap();
        let mag = resp.magnitude(0, 0);
        assert!((mag[0] - 1.0).abs() < 1e-12);
        assert!((mag[1] - 1.0 / 2f64.sqrt()).abs() < 1e-12);
        assert!(mag[2] < 0.1);
    }

    #[test]
    fn error_metrics_zero_for_identical() {
        let sys = one_pole();
        let r = frequency_response(&sys, &[0.5, 1.5]).unwrap();
        assert_eq!(max_abs_error(&r, &r), 0.0);
        assert_eq!(max_rel_error(&r, &r), 0.0);
    }
}
