//! # krylov — moment-matching and multipoint projection baselines
//!
//! The two classical projection methods the PMTBR paper compares against:
//!
//! - [`prima`]: block-Arnoldi moment matching with congruence projection
//!   (passivity-preserving), whose basis grows in blocks of `p` columns —
//!   the reason it struggles on massively coupled networks;
//! - [`mpproj`]: multipoint rational projection, which shares PMTBR's
//!   samples `z_k = (s_k·E − A)⁻¹·B` but orthonormalizes them in arrival
//!   order instead of compressing with a weighted SVD.
//!
//! ```
//! use circuits::rc_mesh;
//! use krylov::{mpproj, prima};
//! use numkit::c64;
//!
//! # fn main() -> Result<(), numkit::NumError> {
//! let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0)?;
//! let pm = prima(&sys, 6, 0.0)?;
//! let mm = mpproj(&sys, &[c64::new(0.0, 0.5), c64::new(0.0, 2.0)], 6)?;
//! assert!(pm.reduced.nstates() <= 6 && mm.reduced.nstates() <= 6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mpproj;
mod orth;
mod prima;

pub use mpproj::{mpproj, MpprojModel};
pub use prima::{prima, PrimaModel};
