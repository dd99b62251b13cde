//! Frequency sampling schemes and quadrature weights.
//!
//! Every `ZW` matrix implicitly defines a frequency weighting (paper
//! Section IV-B): the scheme chooses where the Gramian quadrature (8) is
//! sampled and with what weights. Uniform sampling approximates the
//! unweighted (TBR) Gramian on a finite band; band-restricted sampling
//! *is* the frequency-selective variant; log sampling suits systems with
//! dynamics spread over decades.

use numkit::{c64, NumError};

/// One quadrature node: a complex frequency point and its weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Complex frequency `s` (typically `jω`).
    pub s: c64,
    /// Quadrature weight `w ≥ 0` (the sample column is scaled by `√w`).
    pub weight: f64,
}

/// A frequency sampling scheme.
#[derive(Debug, Clone, PartialEq)]
pub enum Sampling {
    /// `n` uniformly spaced points on `jω`, `ω ∈ [0, omega_max]`
    /// (rectangle rule — the "very crude uniform sampling" of Fig. 8).
    Linear {
        /// Upper band edge in rad/s.
        omega_max: f64,
        /// Number of sample points.
        n: usize,
    },
    /// `n` logarithmically spaced points on `jω`,
    /// `ω ∈ [omega_min, omega_max]`, weighted by local interval length.
    Log {
        /// Lower band edge in rad/s (must be > 0).
        omega_min: f64,
        /// Upper band edge in rad/s.
        omega_max: f64,
        /// Number of sample points.
        n: usize,
    },
    /// Frequency-selective sampling: `n` points distributed over the
    /// union of bands `[lo, hi]` (in rad/s), proportionally to bandwidth
    /// (Algorithm 2's point selection).
    Bands {
        /// Bands of interest, each `(lo, hi)` in rad/s.
        bands: Vec<(f64, f64)>,
        /// Total number of sample points across all bands.
        n: usize,
    },
    /// Explicit user-chosen points and weights.
    Custom(Vec<SamplePoint>),
    /// Greedy adaptive placement over `jω`, `ω ∈ [0, omega_max]`: shifts
    /// are chosen one at a time where a cheap residual surrogate of the
    /// current projected model is largest, stopping when the surrogate
    /// and the reduced transfer function have both converged (relative
    /// tolerance `tol`) or `max_shifts` solves have been spent.
    ///
    /// Unlike the fixed-grid schemes this variant has no a-priori node
    /// list: [`Sampling::points`] errors and the pipeline sweep resolves
    /// the placement at execution time (see `pmtbr::pipeline` and
    /// `docs/SAMPLING.md`). Quadrature weights are the Voronoi cell
    /// lengths of the accepted frequencies, so they tile `[0, omega_max]`
    /// exactly like [`Sampling::Linear`]'s midpoint rule.
    Greedy {
        /// Upper band edge in rad/s.
        omega_max: f64,
        /// Candidate-pool size: the surrogate is scored on this many
        /// midpoint frequencies over the band.
        pool: usize,
        /// Relative convergence tolerance of the stopping rule
        /// (`0` disables early stopping: exactly `max_shifts` solves).
        tol: f64,
        /// Hard budget on accepted shifts (each costs one LU-backed
        /// tolerant solve).
        max_shifts: usize,
    },
}

impl Sampling {
    /// Materializes the scheme into concrete quadrature nodes.
    ///
    /// # Errors
    ///
    /// [`NumError::InvalidArgument`] for empty/degenerate parameters
    /// (zero points, non-positive band edges, inverted bands).
    pub fn points(&self) -> Result<Vec<SamplePoint>, NumError> {
        match self {
            Sampling::Linear { omega_max, n } => {
                if *n == 0 || !(*omega_max > 0.0) {
                    return Err(NumError::InvalidArgument("linear sampling needs n > 0, ω_max > 0"));
                }
                let dw = omega_max / *n as f64;
                Ok((0..*n)
                    .map(|k| SamplePoint {
                        // Midpoint rule avoids placing a sample exactly at
                        // a dc pole.
                        s: c64::new(0.0, dw * (k as f64 + 0.5)),
                        weight: dw,
                    })
                    .collect())
            }
            Sampling::Log { omega_min, omega_max, n } => {
                if *n == 0 || !(*omega_min > 0.0) || omega_max <= omega_min {
                    return Err(NumError::InvalidArgument(
                        "log sampling needs n > 0 and 0 < ω_min < ω_max",
                    ));
                }
                if *n == 1 {
                    return Ok(vec![SamplePoint {
                        s: c64::new(0.0, (omega_min * omega_max).sqrt()),
                        weight: omega_max - omega_min,
                    }]);
                }
                let lmin = omega_min.ln();
                let lmax = omega_max.ln();
                let step = (lmax - lmin) / (*n as f64 - 1.0);
                let omegas: Vec<f64> =
                    (0..*n).map(|k| (lmin + step * k as f64).exp()).collect();
                Ok((0..*n)
                    .map(|k| {
                        // Trapezoid-like local interval length as weight.
                        let lo = if k == 0 { omegas[0] } else { (omegas[k - 1] + omegas[k]) / 2.0 };
                        let hi = if k + 1 == *n {
                            omegas[*n - 1]
                        } else {
                            (omegas[k] + omegas[k + 1]) / 2.0
                        };
                        SamplePoint { s: c64::new(0.0, omegas[k]), weight: (hi - lo).max(0.0) }
                    })
                    .collect())
            }
            Sampling::Bands { bands, n } => {
                if bands.is_empty() || *n == 0 {
                    return Err(NumError::InvalidArgument("band sampling needs bands and n > 0"));
                }
                let mut total = 0.0;
                for &(lo, hi) in bands {
                    if !(hi > lo) || lo < 0.0 {
                        return Err(NumError::InvalidArgument("bands must satisfy 0 <= lo < hi"));
                    }
                    total += hi - lo;
                }
                // Allocate points proportionally to bandwidth (≥1 each).
                let mut pts = Vec::with_capacity(*n);
                let mut remaining = *n;
                for (idx, &(lo, hi)) in bands.iter().enumerate() {
                    let share = if idx + 1 == bands.len() {
                        remaining
                    } else {
                        (((hi - lo) / total * *n as f64).round() as usize)
                            .clamp(1, remaining.saturating_sub(bands.len() - idx - 1))
                    };
                    remaining -= share;
                    let dw = (hi - lo) / share as f64;
                    for k in 0..share {
                        pts.push(SamplePoint {
                            s: c64::new(0.0, lo + dw * (k as f64 + 0.5)),
                            weight: dw,
                        });
                    }
                }
                Ok(pts)
            }
            Sampling::Greedy { .. } => Err(NumError::InvalidArgument(
                "greedy sampling has no a-priori point list; execute the plan through \
                 pmtbr::pipeline (run/run_cached), which resolves the \
                 placement adaptively",
            )),
            Sampling::Custom(pts) => {
                if pts.is_empty() {
                    return Err(NumError::InvalidArgument("custom sampling needs points"));
                }
                if pts.iter().any(|p| !(p.weight >= 0.0) || !p.s.is_finite()) {
                    return Err(NumError::InvalidArgument(
                        "custom points need finite s and non-negative weights",
                    ));
                }
                Ok(pts.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_weights_sum_to_band() {
        let pts = Sampling::Linear { omega_max: 10.0, n: 8 }.points().unwrap();
        assert_eq!(pts.len(), 8);
        let total: f64 = pts.iter().map(|p| p.weight).sum();
        assert!((total - 10.0).abs() < 1e-12);
        // Midpoint rule: first point at dw/2, not 0.
        assert!(pts[0].s.im > 0.0);
    }

    #[test]
    fn log_points_are_geometric() {
        let pts = Sampling::Log { omega_min: 1.0, omega_max: 100.0, n: 3 }.points().unwrap();
        assert!((pts[1].s.im - 10.0).abs() < 1e-9);
        let total: f64 = pts.iter().map(|p| p.weight).sum();
        assert!((total - 99.0).abs() < 1e-9, "weights tile the band: {total}");
    }

    #[test]
    fn bands_allocate_proportionally() {
        let pts = Sampling::Bands { bands: vec![(0.0, 1.0), (10.0, 13.0)], n: 8 }
            .points()
            .unwrap();
        assert_eq!(pts.len(), 8);
        let in_first = pts.iter().filter(|p| p.s.im <= 1.0).count();
        assert_eq!(in_first, 2, "1/4 of bandwidth gets 1/4 of points");
        let total: f64 = pts.iter().map(|p| p.weight).sum();
        assert!((total - 4.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_schemes_rejected() {
        assert!(Sampling::Linear { omega_max: 0.0, n: 4 }.points().is_err());
        assert!(Sampling::Log { omega_min: 0.0, omega_max: 1.0, n: 4 }.points().is_err());
        assert!(Sampling::Bands { bands: vec![(2.0, 1.0)], n: 4 }.points().is_err());
        assert!(Sampling::Custom(vec![]).points().is_err());
        assert!(Sampling::Custom(vec![SamplePoint { s: c64::ONE, weight: -1.0 }])
            .points()
            .is_err());
    }

    #[test]
    fn greedy_has_no_a_priori_points() {
        let err = Sampling::Greedy { omega_max: 10.0, pool: 64, tol: 1e-3, max_shifts: 8 }
            .points()
            .unwrap_err();
        assert!(matches!(err, NumError::InvalidArgument(_)));
    }

    #[test]
    fn custom_points_pass_through() {
        let pts = vec![SamplePoint { s: c64::new(1.0, 2.0), weight: 0.5 }];
        assert_eq!(Sampling::Custom(pts.clone()).points().unwrap(), pts);
    }
}
