//! The [`LtiSystem`] abstraction over dense state-space and sparse
//! descriptor models.
//!
//! All reduction algorithms in this workspace (PMTBR variants, PRIMA,
//! multipoint projection, exact TBR where applicable) are written against
//! this trait, so they apply uniformly to `ẋ = Ax + Bu` and
//! `Eẋ = Ax + Bu` systems — including singular-`E` descriptor systems.

use numkit::{c64, DMat, NumError, ZMat};
use sparsekit::{Csr, Triplet};

use crate::tolerant::{RecoveryPolicy, SolveFault, TolerantSweep};
use crate::{Descriptor, StateSpace};

/// A linear time-invariant system that reduction algorithms can sample.
///
/// The required operations are exactly what frequency-domain projection
/// needs: shifted solves `(sE − A)⁻¹R` (and their transposes, for
/// observability-side samples), access to `B`/`C`/`D`, and projection.
pub trait LtiSystem {
    /// Number of states.
    fn nstates(&self) -> usize;
    /// Number of inputs.
    fn ninputs(&self) -> usize;
    /// Number of outputs.
    fn noutputs(&self) -> usize;
    /// Input matrix `B` (`n × p`).
    fn input_matrix(&self) -> &DMat;
    /// Output matrix `C` (`q × n`).
    fn output_matrix(&self) -> &DMat;
    /// Feedthrough `D` (`q × p`).
    fn feedthrough(&self) -> &DMat;

    /// Solves `(s·E − A)·Z = R` (with `E = I` for plain state space).
    ///
    /// # Errors
    ///
    /// [`NumError::Singular`] if `s` is a (generalized) eigenvalue.
    fn solve_shifted(&self, s: c64, rhs: &ZMat) -> Result<ZMat, NumError>;

    /// Solves `(s·E − A)ᵀ·Z = R`.
    ///
    /// # Errors
    ///
    /// [`NumError::Singular`] if `s` is a (generalized) eigenvalue.
    fn solve_shifted_transpose(&self, s: c64, rhs: &ZMat) -> Result<ZMat, NumError>;

    /// Applies the pencil: returns `(s·E − A)·X` (with `E = I` for plain
    /// state space). Greedy sampling's solve-free surrogate recovers
    /// `E·V` and `A·V` from two applications — it must be cheap (no
    /// factorization).
    ///
    /// # Errors
    ///
    /// [`NumError::ShapeMismatch`] if `x` has the wrong row count.
    fn apply_shifted(&self, s: c64, x: &ZMat) -> Result<ZMat, NumError>;

    /// Applies the transposed pencil: returns `(s·E − A)ᵀ·X`, the
    /// observability-side counterpart of [`LtiSystem::apply_shifted`].
    /// It certifies no sweep: the engine checks transposed solves
    /// against its own assembled pencil. It stays in the trait because
    /// forwarding wrappers (the benchmark's tracing wrapper) forward
    /// every method. Must be cheap (no factorization).
    ///
    /// # Errors
    ///
    /// [`NumError::ShapeMismatch`] if `x` has the wrong row count.
    fn apply_shifted_transpose(&self, s: c64, x: &ZMat) -> Result<ZMat, NumError>;

    /// Fault-tolerant counterpart of [`LtiSystem::solve_shifted_many`]:
    /// runs the per-shift escalation ladder of
    /// [`crate::ShiftSolveEngine::solve_many_tolerant`] (reuse → refactor
    /// → refresh → refine → perturb → drop) and always returns,
    /// reporting each shift's fate instead of failing the whole sweep on
    /// the first bad sample point. Results, outcomes included, are
    /// identical for every thread count.
    fn solve_shifted_many_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> TolerantSweep;

    /// Fault-tolerant counterpart of [`LtiSystem::solve_shifted_pairs`]:
    /// the escalation ladder with a per-shift right-hand side
    /// (`rhss[k]` pairs with `shifts[k]`). Same determinism contract as
    /// [`LtiSystem::solve_shifted_many_tolerant`].
    ///
    /// # Errors
    ///
    /// [`NumError::ShapeMismatch`] if the lists differ in length; the
    /// sweep itself always returns (drops are reported, not raised).
    fn solve_shifted_pairs_tolerant(
        &self,
        shifts: &[c64],
        rhss: &[ZMat],
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> Result<TolerantSweep, NumError>;

    /// Fault-tolerant transposed sweep: the escalation ladder over
    /// `(sₖ·E − A)ᵀ·Zₖ = R`, observability-side samples on their own.
    /// Same determinism contract as
    /// [`LtiSystem::solve_shifted_many_tolerant`]. No reduction calls
    /// it (two-sided sweeps share one factorization per shift through
    /// [`LtiSystem::solve_shifted_two_sided_tolerant`]); it stays
    /// because forwarding wrappers forward every method.
    fn solve_shifted_transpose_many_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> TolerantSweep;

    /// Fault-tolerant *two-sided* sweep: controllability samples
    /// `(sₖ·E − A)⁻¹·R` and observability samples `(sₖ·E − A)⁻ᵀ·Rₜ` at
    /// the same shifts, from ONE factorization of `s·E − A` per shift
    /// ([`crate::ShiftSolveEngine::solve_two_sided_tolerant`]). Both
    /// returned sweeps are index-aligned with `shifts`, drop the same
    /// shifts with identical reports, and are deterministic for every
    /// thread count.
    fn solve_shifted_two_sided_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        rhs_t: &ZMat,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> (TolerantSweep, TolerantSweep);

    /// Solves `(sₖ·E − A)·Zₖ = R` at every shift against one shared
    /// right-hand side, returning the solutions in shift order. Every
    /// implementation MUST return identical results for every thread
    /// count.
    ///
    /// # Errors
    ///
    /// The first per-shift failure, in index order.
    fn solve_shifted_many(&self, shifts: &[c64], rhs: &ZMat) -> Result<Vec<ZMat>, NumError>;

    /// Solves `(sₖ·E − A)·Zₖ = Rₖ` with a per-shift right-hand side
    /// (`rhss[k]` pairs with `shifts[k]`). Same ordering and determinism
    /// contract as [`LtiSystem::solve_shifted_many`].
    ///
    /// # Errors
    ///
    /// [`NumError::ShapeMismatch`] on a length mismatch; else the first
    /// per-shift failure in index order.
    fn solve_shifted_pairs(&self, shifts: &[c64], rhss: &[ZMat]) -> Result<Vec<ZMat>, NumError>;

    /// Projects onto bases `(w, v)`, producing a reduced dense model.
    ///
    /// # Errors
    ///
    /// Shape errors; for descriptor systems also a singular reduced `E`.
    fn project(&self, w: &DMat, v: &DMat) -> Result<StateSpace, NumError>;

    /// Content address of this system's pencil, if the implementation
    /// provides one (see [`crate::hash`]). `None` — the default — means
    /// the system cannot be content-addressed and every artifact-cache
    /// layer must treat runs over it as uncacheable. Implementations
    /// must guarantee the hash is a pure function of the system's
    /// numeric content: equal hashes ⟹ bit-identical pipeline results.
    fn pencil_hash(&self) -> Option<u64> {
        None
    }

    /// Transfer function `H(s) = C·(sE − A)⁻¹·B + D`.
    ///
    /// # Errors
    ///
    /// Propagates [`LtiSystem::solve_shifted`] errors.
    fn transfer_function(&self, s: c64) -> Result<ZMat, NumError> {
        let z = self.solve_shifted(s, &self.input_matrix().to_complex())?;
        let h = self.output_matrix().to_complex().matmul(&z)?;
        Ok(&h + &self.feedthrough().to_complex())
    }
}

impl LtiSystem for StateSpace {
    fn nstates(&self) -> usize {
        StateSpace::nstates(self)
    }
    fn ninputs(&self) -> usize {
        StateSpace::ninputs(self)
    }
    fn noutputs(&self) -> usize {
        StateSpace::noutputs(self)
    }
    fn input_matrix(&self) -> &DMat {
        &self.b
    }
    fn output_matrix(&self) -> &DMat {
        &self.c
    }
    fn feedthrough(&self) -> &DMat {
        &self.d
    }
    fn solve_shifted(&self, s: c64, rhs: &ZMat) -> Result<ZMat, NumError> {
        StateSpace::solve_shifted(self, s, rhs)
    }
    fn solve_shifted_transpose(&self, s: c64, rhs: &ZMat) -> Result<ZMat, NumError> {
        StateSpace::solve_shifted_transpose(self, s, rhs)
    }
    /// `(s·I − A)·X = s·X − A·X`.
    fn apply_shifted(&self, s: c64, x: &ZMat) -> Result<ZMat, NumError> {
        let ax = self.a.to_complex().matmul(x)?;
        Ok(ZMat::from_fn(x.nrows(), x.ncols(), |i, j| s * x[(i, j)] - ax[(i, j)]))
    }
    /// `(s·I − A)ᵀ·X = s·X − Aᵀ·X`.
    fn apply_shifted_transpose(&self, s: c64, x: &ZMat) -> Result<ZMat, NumError> {
        let atx = self.a.transpose().to_complex().matmul(x)?;
        Ok(ZMat::from_fn(x.nrows(), x.ncols(), |i, j| s * x[(i, j)] - atx[(i, j)]))
    }
    fn project(&self, w: &DMat, v: &DMat) -> Result<StateSpace, NumError> {
        StateSpace::project(self, w, v)
    }
    fn pencil_hash(&self) -> Option<u64> {
        Some(StateSpace::pencil_hash(self))
    }
    /// Dense systems have no factorization to share across shifts, but
    /// the shifts are still independent: fan them across threads.
    fn solve_shifted_many(&self, shifts: &[c64], rhs: &ZMat) -> Result<Vec<ZMat>, NumError> {
        numkit::par::par_map(shifts.len(), |i| StateSpace::solve_shifted(self, shifts[i], rhs))
            .into_iter()
            .collect()
    }
    fn solve_shifted_pairs(&self, shifts: &[c64], rhss: &[ZMat]) -> Result<Vec<ZMat>, NumError> {
        if shifts.len() != rhss.len() {
            return Err(NumError::ShapeMismatch {
                operation: "solve_shifted_pairs",
                left: (shifts.len(), 1),
                right: (rhss.len(), 1),
            });
        }
        numkit::par::par_map(shifts.len(), |i| {
            StateSpace::solve_shifted(self, shifts[i], &rhss[i])
        })
        .into_iter()
        .collect()
    }
    // The tolerant sweeps run the `E = I` descriptor form through the
    // engine's escalation ladder, so dense and sparse forms of one
    // system report the same outcomes.
    fn solve_shifted_many_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> TolerantSweep {
        self.as_descriptor().solve_shifted_many_tolerant(shifts, rhs, policy, faults)
    }
    fn solve_shifted_pairs_tolerant(
        &self,
        shifts: &[c64],
        rhss: &[ZMat],
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> Result<TolerantSweep, NumError> {
        self.as_descriptor().solve_shifted_pairs_tolerant(shifts, rhss, policy, faults)
    }
    fn solve_shifted_transpose_many_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> TolerantSweep {
        self.as_descriptor().solve_shifted_transpose_many_tolerant(shifts, rhs, policy, faults)
    }
    fn solve_shifted_two_sided_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        rhs_t: &ZMat,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> (TolerantSweep, TolerantSweep) {
        self.as_descriptor().solve_shifted_two_sided_tolerant(shifts, rhs, rhs_t, policy, faults)
    }
}

impl StateSpace {
    /// The `E = I` descriptor form: an identity `E`, `A`'s nonzeros as a
    /// sparse matrix, and copies of `B`, `C` and `D`.
    fn as_descriptor(&self) -> Descriptor {
        let n = self.nstates();
        let mut a = Triplet::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if self.a[(i, j)] != 0.0 {
                    a.push(i, j, self.a[(i, j)]);
                }
            }
        }
        let (b, c, d) = (self.b.clone(), self.c.clone(), self.d.clone());
        Descriptor { e: Csr::identity(n), a: a.to_csr(), b, c, d }
    }
}

impl LtiSystem for Descriptor {
    fn nstates(&self) -> usize {
        Descriptor::nstates(self)
    }
    fn ninputs(&self) -> usize {
        Descriptor::ninputs(self)
    }
    fn noutputs(&self) -> usize {
        Descriptor::noutputs(self)
    }
    fn input_matrix(&self) -> &DMat {
        &self.b
    }
    fn output_matrix(&self) -> &DMat {
        &self.c
    }
    fn feedthrough(&self) -> &DMat {
        &self.d
    }
    fn solve_shifted(&self, s: c64, rhs: &ZMat) -> Result<ZMat, NumError> {
        Descriptor::solve_shifted(self, s, rhs)
    }
    fn solve_shifted_transpose(&self, s: c64, rhs: &ZMat) -> Result<ZMat, NumError> {
        Descriptor::solve_shifted_transpose(self, s, rhs)
    }
    fn pencil_hash(&self) -> Option<u64> {
        Some(Descriptor::pencil_hash(self))
    }
    /// `s·(E·X) − A·X` via sparse row iteration — no pencil assembly.
    fn apply_shifted(&self, s: c64, x: &ZMat) -> Result<ZMat, NumError> {
        if x.nrows() != self.nstates() {
            return Err(NumError::ShapeMismatch {
                operation: "descriptor apply_shifted",
                left: (self.nstates(), self.nstates()),
                right: x.shape(),
            });
        }
        let mut out = ZMat::zeros(x.nrows(), x.ncols());
        for (i, j, ev) in self.e.iter() {
            for col in 0..x.ncols() {
                out[(i, col)] += s * x[(j, col)].scale(ev);
            }
        }
        for (i, j, av) in self.a.iter() {
            for col in 0..x.ncols() {
                out[(i, col)] -= x[(j, col)].scale(av);
            }
        }
        Ok(out)
    }
    /// `s·(Eᵀ·X) − Aᵀ·X` via sparse row iteration with swapped indices —
    /// no pencil assembly.
    fn apply_shifted_transpose(&self, s: c64, x: &ZMat) -> Result<ZMat, NumError> {
        if x.nrows() != self.nstates() {
            return Err(NumError::ShapeMismatch {
                operation: "descriptor apply_shifted_transpose",
                left: (self.nstates(), self.nstates()),
                right: x.shape(),
            });
        }
        let mut out = ZMat::zeros(x.nrows(), x.ncols());
        for (i, j, ev) in self.e.iter() {
            for col in 0..x.ncols() {
                out[(j, col)] += s * x[(i, col)].scale(ev);
            }
        }
        for (i, j, av) in self.a.iter() {
            for col in 0..x.ncols() {
                out[(j, col)] -= x[(i, col)].scale(av);
            }
        }
        Ok(out)
    }
    fn project(&self, w: &DMat, v: &DMat) -> Result<StateSpace, NumError> {
        Descriptor::project(self, w, v)
    }
    /// Sparse pencil: one merged assembly, one symbolic analysis, and
    /// numeric-only refactorizations fanned across threads.
    fn solve_shifted_many(&self, shifts: &[c64], rhs: &ZMat) -> Result<Vec<ZMat>, NumError> {
        crate::ShiftSolveEngine::new(self).solve_many(shifts, rhs, numkit::par::num_threads())
    }
    fn solve_shifted_pairs(&self, shifts: &[c64], rhss: &[ZMat]) -> Result<Vec<ZMat>, NumError> {
        crate::ShiftSolveEngine::new(self).solve_pairs(shifts, rhss, numkit::par::num_threads())
    }
    /// Sparse ladder: symbolic-reuse refactor → fresh factorization →
    /// refinement → perturbation, with per-worker panic containment.
    fn solve_shifted_many_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        _policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> TolerantSweep {
        crate::ShiftSolveEngine::new(self).solve_many_tolerant(
            shifts,
            rhs,
            numkit::par::num_threads(),
            faults,
        )
    }
    /// Sparse ladder with per-shift right-hand sides, through the same
    /// factorization-reusing engine.
    fn solve_shifted_pairs_tolerant(
        &self,
        shifts: &[c64],
        rhss: &[ZMat],
        _policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> Result<TolerantSweep, NumError> {
        crate::ShiftSolveEngine::new(self).solve_pairs_tolerant(
            shifts,
            rhss,
            numkit::par::num_threads(),
            faults,
        )
    }
    /// Sparse transposed ladder: the engine assembles `(s·E − A)ᵀ` once
    /// and reuses one symbolic analysis across all transposed solves.
    fn solve_shifted_transpose_many_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        _policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> TolerantSweep {
        crate::ShiftSolveEngine::new_transposed(self).solve_many_tolerant(
            shifts,
            rhs,
            numkit::par::num_threads(),
            faults,
        )
    }
    /// Sparse two-sided ladder: ONE forward factorization per shift
    /// produces both the controllability and (via the transpose solve
    /// `UᵀLᵀPx = b`) the observability samples, halving the LU work of
    /// balanced / cross-Gramian sweeps.
    fn solve_shifted_two_sided_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        rhs_t: &ZMat,
        _policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> (TolerantSweep, TolerantSweep) {
        crate::ShiftSolveEngine::new(self).solve_two_sided_tolerant(
            shifts,
            rhs,
            rhs_t,
            numkit::par::num_threads(),
            faults,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_transfer<S: LtiSystem>(sys: &S, s: c64) -> c64 {
        sys.transfer_function(s).unwrap()[(0, 0)]
    }

    #[test]
    fn trait_object_safe_and_generic_usable() {
        let ss = StateSpace::new(
            DMat::from_rows(&[&[-1.0]]),
            DMat::from_rows(&[&[1.0]]),
            DMat::from_rows(&[&[1.0]]),
            None,
        )
        .unwrap();
        // Generic call.
        let h = generic_transfer(&ss, c64::ZERO);
        assert!((h.re - 1.0).abs() < 1e-12);
        // Trait-object call (C-OBJECT).
        let dyn_sys: &dyn LtiSystem = &ss;
        assert_eq!(dyn_sys.nstates(), 1);
        assert!((dyn_sys.transfer_function(c64::ZERO).unwrap()[(0, 0)].re - 1.0).abs() < 1e-12);
    }
}
