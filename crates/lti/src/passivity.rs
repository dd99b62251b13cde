//! Sampled passivity verification (paper Section V-E).
//!
//! PMTBR does not inherit full TBR's passivity guarantees, but for
//! RC/RLC MNA systems the *congruence* projection does preserve
//! passivity. This module verifies either claim numerically: an
//! impedance-form system is passive iff its Hermitian part
//! `(Z(jω) + Z(jω)ᴴ)/2` is positive semidefinite at every frequency.
//! [`is_passive_sampled`] checks the most negative eigenvalue found over
//! the sweep — non-negative for a passive network.

use numkit::{eigh, DMat, NumError, ZMat};

use crate::{frequency_response, LtiSystem};

/// Eigenvalues (ascending-by-magnitude not guaranteed; sorted
/// descending) of the Hermitian part of a complex square matrix, via the
/// standard symmetric realification `[[Re, −Im], [Im, Re]]` (each
/// eigenvalue appears twice; duplicates are collapsed).
///
/// # Errors
///
/// [`NumError::NotSquare`] for rectangular input; propagates eigensolver
/// failures.
fn hermitian_part_eigenvalues(h: &ZMat) -> Result<Vec<f64>, NumError> {
    let (n, m) = h.shape();
    if n != m {
        return Err(NumError::NotSquare { rows: n, cols: m });
    }
    // Hermitian part.
    let mut herm = h.clone();
    herm.symmetrize();
    let re = herm.real();
    let im = herm.imag();
    let big = DMat::from_fn(2 * n, 2 * n, |i, j| {
        let (bi, ii) = (i / n, i % n);
        let (bj, jj) = (j / n, j % n);
        match (bi, bj) {
            (0, 0) | (1, 1) => re[(ii, jj)],
            (0, 1) => -im[(ii, jj)],
            (1, 0) => im[(ii, jj)],
            _ => unreachable!(),
        }
    });
    let e = eigh(&big)?;
    // Every eigenvalue is doubled: take every other one.
    Ok(e.values.iter().step_by(2).copied().collect())
}

/// Checks passivity of an impedance-form system over a frequency grid.
///
/// `tol` absorbs roundoff: margins above `−tol·scale` count as passive,
/// with `scale` the largest Hermitian-part eigenvalue seen.
///
/// # Errors
///
/// Propagates sweep and eigensolver failures.
///
/// # Examples
///
/// ```
/// use lti::{is_passive_sampled, linspace, StateSpace};
/// use numkit::DMat;
///
/// # fn main() -> Result<(), numkit::NumError> {
/// // Z(s) = 1/(s + 1): a passive RC driving-point impedance.
/// let sys = StateSpace::new(
///     DMat::from_rows(&[&[-1.0]]),
///     DMat::from_rows(&[&[1.0]]),
///     DMat::from_rows(&[&[1.0]]),
///     None,
/// )?;
/// assert!(is_passive_sampled(&sys, &linspace(0.0, 20.0, 30), 1e-9)?);
/// # Ok(())
/// # }
/// ```
pub fn is_passive_sampled<S: LtiSystem + ?Sized>(
    sys: &S,
    omegas: &[f64],
    tol: f64,
) -> Result<bool, NumError> {
    let resp = frequency_response(sys, omegas)?;
    let mut margin = f64::INFINITY;
    let mut scale = 0.0f64;
    for h in &resp.h {
        let eigs = hermitian_part_eigenvalues(h)?;
        if let (Some(&max), Some(&min)) = (eigs.first(), eigs.last()) {
            margin = margin.min(min);
            scale = scale.max(max.abs());
        }
    }
    Ok(margin >= -tol * scale.max(f64::MIN_POSITIVE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{linspace, StateSpace};
    use numkit::c64;

    #[test]
    fn hermitian_eigs_match_known_matrix() {
        // H = [[2, i], [-i, 2]] is Hermitian with eigenvalues 3, 1.
        let h = ZMat::from_fn(2, 2, |i, j| match (i, j) {
            (0, 0) | (1, 1) => c64::from_real(2.0),
            (0, 1) => c64::I,
            _ => -c64::I,
        });
        let e = hermitian_part_eigenvalues(&h).unwrap();
        assert!((e[0] - 3.0).abs() < 1e-12);
        assert!((e[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn passive_rc_impedance_has_nonnegative_margin() {
        // Z(s) = 1/(s+1) (1-state RC): Re Z(jω) = 1/(1+ω²) > 0.
        let sys = StateSpace::new(
            DMat::from_rows(&[&[-1.0]]),
            DMat::from_rows(&[&[1.0]]),
            DMat::from_rows(&[&[1.0]]),
            None,
        )
        .unwrap();
        assert!(is_passive_sampled(&sys, &linspace(0.0, 50.0, 40), 1e-12).unwrap());
    }

    #[test]
    fn active_network_detected() {
        // A negative resistor: Z(s) = −1 + 1/(s+1) goes active at high ω.
        let sys = StateSpace::new(
            DMat::from_rows(&[&[-1.0]]),
            DMat::from_rows(&[&[1.0]]),
            DMat::from_rows(&[&[1.0]]),
            Some(DMat::from_rows(&[&[-1.0]])),
        )
        .unwrap();
        assert!(!is_passive_sampled(&sys, &linspace(0.0, 50.0, 40), 1e-12).unwrap());
    }

    #[test]
    fn rejects_nonsquare_response() {
        let h = ZMat::zeros(2, 3);
        assert!(hermitian_part_eigenvalues(&h).is_err());
    }
}
