//! # lti — LTI systems, Gramians, exact TBR, and simulation
//!
//! The control-theoretic substrate of the PMTBR reproduction:
//!
//! - [`StateSpace`] (dense) and [`Descriptor`] (sparse, possibly
//!   singular-`E`) models, unified by the [`LtiSystem`] trait;
//! - Bartels–Stewart [`lyap`]/[`sylvester`] solvers and the exact
//!   [`tbr`] baseline with Hankel singular values and the classical
//!   `2·Σσ` error bound;
//! - the cross-Gramian method of the paper's Section V-D;
//! - the fault-tolerant multipoint sweep ([`ShiftSolveEngine`]): one
//!   escalation ladder per shift, whose [`TolerantSweep`] depends only
//!   on the shifts, the right-hand sides and the [`SolveFault`] hook;
//! - frequency sweeps ([`frequency_response`]) and trapezoidal transient
//!   simulation ([`simulate_descriptor`], [`simulate_ss`]);
//! - frequency-limited (Gawronski–Juang) Gramians and TBR
//!   ([`frequency_limited_tbr`]) — the exact counterpart of
//!   frequency-selective PMTBR;
//! - balanced residualization ([`tbr_residualized`], dc-exact);
//! - sampled passivity verification ([`is_passive_sampled`]);
//! - the waveform generators behind the input-correlated experiments
//!   ([`dithered_square_inputs`], [`latent_mixture_inputs`]).
//!
//! ```
//! use lti::{hankel_singular_values, tbr, StateSpace};
//! use numkit::DMat;
//!
//! # fn main() -> Result<(), numkit::NumError> {
//! let sys = StateSpace::new(
//!     DMat::from_diag(&[-1.0, -10.0, -100.0]),
//!     DMat::from_rows(&[&[1.0], &[1.0], &[0.01]]),
//!     DMat::from_rows(&[&[1.0, 1.0, 0.01]]),
//!     None,
//! )?;
//! let hsv = hankel_singular_values(&sys)?;
//! assert!(hsv[0] > hsv[2]);
//! let reduced = tbr(&sys, 2)?;
//! assert!(reduced.error_bound < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as `NumError`, not abort: panics
// are reserved for violated internal invariants (and tests).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod descriptor;
mod freq;
mod freqlim;
pub mod hash;
mod lyap;
mod passivity;
mod realify;
mod shift_engine;
mod signal;
mod ss;
mod system;
mod tbr;
mod tolerant;
mod transient;

pub use descriptor::{Descriptor, ShiftedPencilAssembler};
pub use freq::{
    frequency_response, linspace, logspace, max_abs_error, max_rel_error, FreqResponse,
};
pub use freqlim::{band_controllability_gramian, band_observability_gramian, frequency_limited_tbr};
pub use lyap::{lyap, lyap_residual, sylvester};
pub use passivity::is_passive_sampled;
pub use realify::{realified_ncols, realify_columns, realify_columns_into};
pub use shift_engine::ShiftSolveEngine;
pub use signal::{
    dithered_square_inputs, input_correlation_svd, latent_mixture_inputs,
    random_phase_square_inputs, SquareWave,
};
pub use ss::StateSpace;
pub use system::LtiSystem;
pub use tbr::{
    controllability_gramian, correlated_controllability_gramian, cross_gramian,
    cross_gramian_reduce, hankel_from_gramians, hankel_singular_values,
    observability_gramian, realified_eigenbasis, square_root_bases, tbr, tbr_error_bounds,
    tbr_from_gramians, tbr_residualized, EigBlock, TbrModel,
};
pub use tolerant::{
    NoFaults, RecoveryPolicy, ShiftOutcome, ShiftReport, SolveFault, TolerantSweep,
};
pub use transient::{max_transient_error, simulate_descriptor, simulate_ss, Transient};
