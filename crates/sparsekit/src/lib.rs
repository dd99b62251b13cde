//! # sparsekit — sparse matrices and a sparse LU solver
//!
//! Compressed sparse row/column matrices built from a coordinate-format
//! [`Triplet`] accumulator, plus a left-looking Gilbert–Peierls sparse LU
//! factorization ([`SparseLu`]) with an approximate-minimum-degree column
//! order and partial pivoting, generic over real (`f64`) and complex
//! (`numkit::c64`) scalars.
//!
//! This crate is the circuit-solver substrate of the PMTBR reproduction:
//! MNA stamping produces [`Triplet`]s, frequency sweeps factor complex
//! shifted systems `(sE − A)`, and transient simulation factors
//! `(E − h/2·A)` once per time step size.
//!
//! ```
//! use sparsekit::{SparseLu, Triplet};
//!
//! # fn main() -> Result<(), numkit::NumError> {
//! // A small conductance matrix: solve G v = i.
//! let mut g = Triplet::new(2, 2);
//! g.push(0, 0, 2.0);
//! g.push(0, 1, -1.0);
//! g.push(1, 0, -1.0);
//! g.push(1, 1, 2.0);
//! let v = SparseLu::new(&g.to_csc())?.solve(&[1.0, 0.0])?;
//! assert!((v[0] - 2.0 / 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as `NumError`, not abort: panics
// are reserved for violated internal invariants (and tests).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod csc;
mod csr;
mod lu;
mod ordering;
mod triplet;

pub use csc::Csc;
pub use csr::Csr;
pub use lu::{inf_norm, one_norm, residual_norm, residual_norm_transpose, SparseLu, SymbolicLu};
pub use triplet::Triplet;
