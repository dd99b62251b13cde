//! Proper orthogonal decomposition (POD): the time-domain sibling of
//! PMTBR under the paper's statistical interpretation.
//!
//! Section IV-A reads the controllability Gramian as the state
//! covariance `E{x·xᵀ}` under stochastic inputs. PMTBR samples that
//! covariance in the frequency domain; POD samples it in the time
//! domain, from snapshots of simulated trajectories driven by
//! representative inputs. Both end in the same place — an SVD of a
//! sample matrix and a congruence projection — which makes POD a natural
//! cross-check (and a genuinely input-aware alternative when only
//! time-domain waveforms exist).

use lti::{state_snapshots, Descriptor};
use numkit::{svd, DMat, NumError};

use crate::pipeline::{spectral_model, OrderControl};
use crate::PmtbrModel;

/// Options for snapshot-based (POD) reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PodOptions {
    /// Simulation time step.
    pub h: f64,
    /// Keep every `stride`-th state as a snapshot.
    pub stride: usize,
    /// Relative singular-value truncation tolerance.
    pub tolerance: f64,
    /// Optional order cap.
    pub max_order: Option<usize>,
}

impl PodOptions {
    /// Defaults: stride 1, tolerance `1e-10`, no cap.
    pub fn new(h: f64) -> Self {
        PodOptions { h, stride: 1, tolerance: 1e-10, max_order: None }
    }
}

/// Snapshot-based (POD / empirical-Gramian) reduction of a descriptor
/// system, driven by the representative input record `u` (`p × nt`).
///
/// The snapshot stack is tall (`n` states × kept snapshots), so its SVD
/// takes the QR-preconditioned parallel Jacobi path automatically —
/// the factor-to-R-first trick keeps the rotation cost independent of
/// the state count.
///
/// # Errors
///
/// - Propagates simulation errors (shape mismatch, bad step).
/// - [`NumError::InvalidArgument`] if the trajectory never leaves the
///   origin (zero snapshot matrix).
///
/// # Examples
///
/// ```
/// use circuits::rc_mesh;
/// use lti::dithered_square_inputs;
/// use pmtbr::{pod_reduce, PodOptions};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0)?;
/// let u = dithered_square_inputs(2, 300, 0.05, 4.0, 0.1, 3);
/// let mut opts = PodOptions::new(0.05);
/// opts.max_order = Some(6);
/// let model = pod_reduce(&sys, &u, &opts)?;
/// assert!(model.order <= 6);
/// # Ok(())
/// # }
/// ```
pub fn pod_reduce(
    sys: &Descriptor,
    u: &DMat,
    opts: &PodOptions,
) -> Result<PmtbrModel, NumError> {
    let snaps = state_snapshots(sys, u, opts.h, opts.stride)?;
    let order = OrderControl::Tolerance { tolerance: opts.tolerance, max_order: opts.max_order };
    spectral_model(sys, &svd(&snaps)?, &order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{rc_mesh, spread_ports};
    use lti::{dithered_square_inputs, max_transient_error, simulate_descriptor, simulate_ss};

    #[test]
    fn pod_tracks_training_inputs() {
        let ports = spread_ports(4, 4, 4);
        let sys = rc_mesh(4, 4, &ports, 1.0, 1.0, 2.0).unwrap();
        let u = dithered_square_inputs(4, 400, 0.05, 4.0, 0.1, 7);
        let mut opts = PodOptions::new(0.05);
        opts.max_order = Some(6);
        let m = pod_reduce(&sys, &u, &opts).unwrap();
        let full = simulate_descriptor(&sys, &u, 0.05).unwrap();
        let red = simulate_ss(&m.reduced, &u, 0.05).unwrap();
        let rel = max_transient_error(&full, &red) / full.y.norm_max();
        assert!(rel < 0.05, "POD must capture its own training trajectory: {rel:.3}");
    }

    #[test]
    fn pod_and_ic_pmtbr_find_similar_subspace_dimension() {
        // Both estimate the covariance of x under the same input class:
        // their significant-direction counts should be comparable.
        let ports = spread_ports(4, 4, 4);
        let sys = rc_mesh(4, 4, &ports, 1.0, 1.0, 2.0).unwrap();
        let u = dithered_square_inputs(4, 400, 0.05, 4.0, 0.1, 7);
        let pod = {
            let opts = PodOptions::new(0.05);
            pod_reduce(&sys, &u, &opts).unwrap()
        };
        let rank = |s: &[f64]| s.iter().take_while(|&&x| x > 1e-4 * s[0]).count();
        let mut ic_opts = crate::InputCorrelatedOptions::new(crate::Sampling::Linear {
            omega_max: 12.0,
            n: 10,
        });
        ic_opts.n_draws = 40;
        let ic = crate::input_correlated_pmtbr(&sys, &u, &ic_opts).unwrap();
        let r_pod = rank(&pod.singular_values);
        let r_ic = rank(&ic.singular_values);
        assert!(
            r_pod.abs_diff(r_ic) <= 6,
            "covariance ranks should be comparable: pod {r_pod} vs ic {r_ic}"
        );
    }

    #[test]
    fn zero_input_rejected() {
        let sys = rc_mesh(2, 2, &[0], 1.0, 1.0, 2.0).unwrap();
        let u = DMat::zeros(1, 50);
        let opts = PodOptions::new(0.05);
        assert!(pod_reduce(&sys, &u, &opts).is_err());
    }
}
