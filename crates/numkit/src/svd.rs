//! Singular value decomposition via QR-preconditioned, tournament-ordered
//! one-sided (Hestenes) Jacobi.
//!
//! One-sided Jacobi was chosen over Golub–Kahan bidiagonalization because
//! it is simple, works verbatim for complex matrices, and computes small
//! singular values to high *relative* accuracy — which matters here: the
//! PMTBR sample matrices have singular values spanning 15+ orders of
//! magnitude (paper Fig. 5), and the trailing ones drive order control.
//!
//! Two structural choices make the kernel fast and parallel without
//! giving up the workspace's determinism contract:
//!
//! - **Two-stage QR preconditioning** (the dgejsv scheme): a tall
//!   `m × n` input is first factored `A·P = Q₁·R₁` with the
//!   column-pivoted Householder [`PivotedQr`], collapsing the row
//!   surplus so the sweeps run on an `n × n` core — per-rotation cost
//!   drops from `O(m)` to `O(n)`, independent of the state count. A
//!   second factorization `R₁ᴴ = Q₂·R₂` then hands Jacobi the
//!   doubly-triangularized core `R₂ᴴ`, and
//!   `A = (Q₁·U₀)·Σ·(P·Q₂·V₀)ᴴ`. The two stages do different jobs:
//!   the *second* is what fixes convergence on the clustered, strongly
//!   graded PMTBR sample stacks — triangularizing from both sides is a
//!   QLP step (Stewart) whose core arrives nearly diagonal, cutting the
//!   sweep count from 58 to 8 on a 1024×512 sample stack (measured;
//!   43 → 7 on the 1024×256 headline stack) where pivoting alone
//!   recovered almost nothing (58 → 54) — while the *pivoting* is what
//!   preserves high relative accuracy through that second stage (Drmač's
//!   analysis of `dgejsv`; measured on a 10¹²-graded matrix, trailing
//!   singular values agree with direct Jacobi to 1e-10 relative with
//!   pivoting but only ~3e-10 without). Householder QR is *columnwise*
//!   backward stable, so the column-scaled relative accuracy that
//!   one-sided Jacobi delivers survives the preconditioning.
//! - **Tournament rotation order**: instead of the classic cyclic-by-rows
//!   pair order, sweeps visit pairs round-robin (the circle method):
//!   `n` columns play `slots − 1` rounds of `slots / 2` disjoint games.
//!   All pairs inside a round touch disjoint columns, so the rotations of
//!   one round commute *exactly* — fanning a round across threads is
//!   bit-identical to running it sequentially, at any thread count.
//!   Convergence detection, the freeze threshold, and the sweep cap are
//!   evaluated once per sweep at a barrier, identically in both drivers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

use crate::{par, Mat, NumError, PivotedQr, Qr, Scalar};

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

/// Below this column count the parallel driver is not worth its
/// per-round barrier overhead and the sequential driver runs regardless
/// of the requested thread count. The cutover depends only on the shape,
/// never on the thread count — and the two drivers produce identical
/// bits anyway, so this is purely a scheduling decision.
const PAR_MIN_COLS: usize = 48;

/// A thin singular value decomposition `A = U·diag(s)·Vᴴ`.
///
/// `u` is `m × k`, `v` is `n × k` with `k = min(m, n)`; `s` is
/// non-increasing and non-negative.
///
/// # Examples
///
/// ```
/// use numkit::{svd, DMat};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let a = DMat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0], &[0.0, 0.0]]);
/// let f = svd(&a)?;
/// assert!((f.s[0] - 4.0).abs() < 1e-12);
/// assert!((f.s[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Svd<T> {
    /// Left singular vectors (columns), `m × k`.
    pub u: Mat<T>,
    /// Singular values, non-increasing.
    pub s: Vec<f64>,
    /// Right singular vectors (columns), `n × k`.
    pub v: Mat<T>,
}

impl<T: Scalar> Svd<T> {
    /// Numerical rank: count of `s[i] > tol·s[0]`.
    pub fn rank(&self, tol: f64) -> usize {
        let scale = self.s.first().copied().unwrap_or(0.0);
        if scale == 0.0 {
            return 0;
        }
        self.s.iter().take_while(|&&v| v > tol * scale).count()
    }

    /// Keeps only the leading `k` singular triplets.
    ///
    /// # Panics
    ///
    /// Panics if `k > s.len()`.
    pub fn truncated(&self, k: usize) -> Svd<T> {
        assert!(k <= self.s.len(), "truncation order exceeds rank");
        Svd {
            u: self.u.leading_cols(k),
            s: self.s[..k].to_vec(),
            v: self.v.leading_cols(k),
        }
    }

    /// Reconstructs `U·diag(s)·Vᴴ` (testing/diagnostics).
    pub fn reconstruct(&self) -> Mat<T> {
        let k = self.s.len();
        let us = Mat::from_fn(self.u.nrows(), k, |i, j| self.u[(i, j)].scale(self.s[j]));
        &us * &self.v.adjoint()
    }
}

/// Knobs for [`svd_with_opts`]; `None` everywhere (the [`Default`])
/// reproduces [`svd`] exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvdOptions {
    /// Jacobi sweep cap (`None` = the default cap of 100). Retry paths
    /// (e.g. the PMTBR sample-basis fallback after a
    /// [`NumError::NotConverged`]) raise it, typically combined with
    /// column equilibration of the input.
    pub max_sweeps: Option<usize>,
    /// Worker threads for the tournament sweeps (`None` =
    /// [`par::num_threads`]). Results are bit-identical for every value,
    /// including 1 — this only controls scheduling.
    pub threads: Option<usize>,
    /// Force QR preconditioning on or off (`None` = automatic: on when
    /// the matrix — after the wide-input transpose — has `m ≥ 5n/4`).
    /// Both paths compute the same factorization up to roundoff; the
    /// explicit override exists for tests and diagnostics.
    pub qr_precondition: Option<bool>,
    /// Chaos-testing hook: deterministically panic inside the Jacobi
    /// sweep loop (worker 0 of the parallel driver, the calling thread
    /// of the sequential one) at the start of the first sweep. The
    /// parallel driver must contain the panic and surface it as
    /// [`NumError::WorkerPanicked`]; the sequential driver lets it
    /// unwind to the caller's containment layer. Never set in
    /// production — this exists so the panic-containment path has a
    /// real, injectable panic to exercise.
    pub chaos_panic: bool,
}

/// Computes the thin SVD of `a`.
///
/// # Errors
///
/// - [`NumError::NotFinite`] if `a` contains NaN/inf.
/// - [`NumError::NotConverged`] if the Jacobi sweeps fail to converge
///   (does not occur in practice for finite inputs).
pub fn svd<T: Scalar>(a: &Mat<T>) -> Result<Svd<T>, NumError> {
    svd_with_opts(a, &SvdOptions::default())
}

/// Computes the thin SVD of `a` with an explicit Jacobi sweep cap.
///
/// # Errors
///
/// Same as [`svd`].
pub fn svd_with_sweeps<T: Scalar>(a: &Mat<T>, max_sweeps: usize) -> Result<Svd<T>, NumError> {
    svd_with_opts(a, &SvdOptions { max_sweeps: Some(max_sweeps), ..SvdOptions::default() })
}

/// Computes the thin SVD of `a` under explicit [`SvdOptions`].
///
/// # Errors
///
/// Same as [`svd`].
pub fn svd_with_opts<T: Scalar>(a: &Mat<T>, opts: &SvdOptions) -> Result<Svd<T>, NumError> {
    if !a.is_finite() {
        return Err(NumError::NotFinite);
    }
    let (m, n) = a.shape();
    if m >= n {
        svd_tall(a.clone(), opts)
    } else {
        // A = U S Vᴴ ⇔ Aᴴ = V S Uᴴ: factor the (tall) adjoint and swap.
        let f = svd_tall(a.adjoint(), opts)?;
        Ok(Svd { u: f.v, s: f.s, v: f.u })
    }
}

/// Convenience: singular values only.
///
/// # Errors
///
/// Same as [`svd`].
pub fn singular_values<T: Scalar>(a: &Mat<T>) -> Result<Vec<f64>, NumError> {
    Ok(svd(a)?.s)
}

fn svd_tall<T: Scalar>(w: Mat<T>, opts: &SvdOptions) -> Result<Svd<T>, NumError> {
    let (m, n) = w.shape();
    debug_assert!(m >= n);
    let mut sp = obs::span("svd.jacobi");
    sp.field_u64("m", m as u64);
    sp.field_u64("n", n as u64);
    if n == 0 {
        return Ok(Svd { u: w, s: Vec::new(), v: Mat::identity(0) });
    }
    let max_sweeps = opts.max_sweeps.unwrap_or(MAX_SWEEPS);
    let threads = opts.threads.unwrap_or_else(par::num_threads);
    // Worth it once the row surplus pays for the extra 4mn² of QR work:
    // Jacobi saves ≈ 4·sweeps·n²/2·(m − n) flops, so m ≳ 5n/4 wins for
    // any realistic sweep count.
    let precondition = opts.qr_precondition.unwrap_or(4 * m >= 5 * n && n >= 2 && m > n);
    sp.field("qr_precond", obs::Value::Bool(precondition));
    if obs::is_wall_clock() {
        // Thread count is environment, not input: keep it out of
        // counter-clock traces, which golden tests pin byte-for-byte
        // across thread counts.
        sp.field_u64("threads", threads as u64);
    }
    if precondition {
        obs::counters::add(obs::Counter::SvdQrPrecond, 1);
        // Stage 1: A·P = Q₁·R₁ collapses the row surplus onto an n×n core.
        let qr1 = PivotedQr::new(w)?;
        // Stage 2: R₁ᴴ = Q₂·R₂, i.e. R₁ = R₂ᴴ·Q₂ᴴ. Triangularizing from
        // both sides leaves a core that is already nearly diagonal (one
        // QLP step in Stewart's sense), which is what makes the sweeps
        // converge on clustered, strongly graded sample stacks — see the
        // module docs for the measured sweep counts.
        let qr2 = Qr::new(qr1.r().adjoint())?;
        let core = jacobi_svd(qr2.r().adjoint(), max_sweeps, threads, opts.chaos_panic, &mut sp)?;
        // R₂ᴴ = U₀·Σ·V₀ᴴ gives A·P = (Q₁·U₀)·Σ·(Q₂·V₀)ᴴ: row i of the
        // right factor Q₂·V₀ belongs to pivoted column i = original
        // column perm[i].
        let u = qr1.thin_q().matmul(&core.u)?;
        let vr = qr2.thin_q().matmul(&core.v)?;
        let perm = qr1.perm();
        let mut v = Mat::zeros(vr.nrows(), vr.ncols());
        for (i, &pi) in perm.iter().enumerate() {
            for j in 0..vr.ncols() {
                v[(pi, j)] = vr[(i, j)];
            }
        }
        Ok(Svd { u, s: core.s, v })
    } else {
        jacobi_svd(w, max_sweeps, threads, opts.chaos_panic, &mut sp)
    }
}

/// One working column pair of the Jacobi iteration: the rotating sample
/// column (`w`, length `m`) and the accumulated right-singular-vector
/// column (`v`, length `n`), stored contiguously so the per-rotation
/// passes stream instead of striding through a row-major matrix.
struct JacobiCol<T> {
    w: Vec<T>,
    v: Vec<T>,
}

/// The Jacobi core: thin SVD of `w` by tournament-ordered one-sided
/// rotations. `w` may be any shape with `nrows >= 1`; callers pass either
/// the full tall matrix or the square `R` factor.
fn jacobi_svd<T: Scalar>(
    w: Mat<T>,
    max_sweeps: usize,
    threads: usize,
    chaos_panic: bool,
    sp: &mut obs::SpanGuard,
) -> Result<Svd<T>, NumError> {
    let (m, n) = w.shape();
    let mut cols: Vec<JacobiCol<T>> = (0..n)
        .map(|j| {
            let mut v = vec![T::zero(); n];
            v[j] = T::one();
            JacobiCol { w: w.col(j), v }
        })
        .collect();
    drop(w);

    // Relative tolerance for declaring a column pair orthogonal. Scaled
    // with the row dimension as in LAPACK's dgesvj: rotations between
    // other columns reintroduce correlations of order √m·ε, so a fixed
    // 1·ε-level threshold can cycle forever on large rank-deficient
    // matrices.
    // numlint:allow(FLOAT02) row count, far below 2^53, cast exact
    let tol = (m as f64).sqrt() * f64::EPSILON;

    let rounds = tournament_rounds(n);
    let workers = threads.min(n / 2).max(1);
    let (sweeps, rotations, converged, panicked) = if workers > 1 && n >= PAR_MIN_COLS {
        run_parallel(&mut cols, tol, max_sweeps, workers, rounds, chaos_panic)
    } else {
        run_sequential(&mut cols, tol, max_sweeps, rounds, chaos_panic)
    };
    obs::counters::add(obs::Counter::SvdSweeps, sweeps);
    obs::counters::add(obs::Counter::SvdRotations, rotations);
    obs::counters::add(obs::Counter::SvdRounds, sweeps * rounds as u64);
    sp.field_u64("sweeps", sweeps);
    sp.field_u64("rotations", rotations);
    sp.field_u64("rounds", rounds as u64);
    if let Some(worker) = panicked {
        return Err(NumError::WorkerPanicked { index: worker });
    }
    if !converged {
        return Err(NumError::NotConverged { algorithm: "jacobi-svd", iterations: max_sweeps });
    }

    // Singular values are the column norms; U the normalized columns.
    // Columns at the freeze floor (norm ≤ 1e-17·‖a_max‖, the same level
    // the sweeps stopped orthogonalizing them at) are pure roundoff —
    // normalizing them would inject arbitrary non-orthogonal directions
    // into U, so they are reported as exact zeros and completed below.
    let norms: Vec<f64> =
        cols.iter().map(|c| c.w.iter().map(|x| x.abs_sq()).sum::<f64>().sqrt()).collect();
    let floor = norms.iter().fold(0.0f64, |a, &b| a.max(b)) * 1e-17;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| norms[b].total_cmp(&norms[a]));

    let mut u = Mat::<T>::zeros(m, n);
    let mut vv = Mat::<T>::zeros(n, n);
    let mut s = Vec::with_capacity(n);
    for (dst, &src) in order.iter().enumerate() {
        let sigma = norms[src];
        if sigma > floor || (sigma > 0.0 && floor == 0.0) {
            s.push(sigma);
            for (i, x) in cols[src].w.iter().enumerate() {
                u[(i, dst)] = x.scale(1.0 / sigma);
            }
        } else {
            s.push(0.0);
        }
        for (i, x) in cols[src].v.iter().enumerate() {
            vv[(i, dst)] = *x;
        }
    }
    complete_null_columns(&mut u, &s);
    Ok(Svd { u, s, v: vv })
}

/// Number of tournament rounds per sweep: every unordered column pair is
/// visited exactly once across a full cycle of rounds.
fn tournament_rounds(n: usize) -> usize {
    if n < 2 {
        0
    } else {
        (n + n % 2) - 1
    }
}

/// The circle-method round-robin schedule: round `round` of
/// [`tournament_rounds`] pairs each column with at most one partner, so
/// every pair inside a round touches disjoint columns. With an odd
/// column count the phantom slot's games are skipped (that column sits
/// the round out).
fn tournament_pairs(n: usize, round: usize, out: &mut Vec<(usize, usize)>) {
    out.clear();
    if n < 2 {
        return;
    }
    let slots = n + n % 2;
    let rot = slots - 1;
    for i in 0..slots / 2 {
        let a = if i == 0 { slots - 1 } else { (round + i) % rot };
        let b = (round + rot - i) % rot;
        let (p, q) = if a < b { (a, b) } else { (b, a) };
        if q < n {
            out.push((p, q));
        }
    }
}

/// Freeze threshold for the coming sweep: column pairs whose norms sit
/// at the noise floor relative to the largest column carry no meaningful
/// singular-value information; freezing them prevents roundoff noise
/// from cycling forever on strongly graded matrices (PMTBR sample
/// matrices span 15+ orders of magnitude). Columns are scanned in index
/// order with an `f64::max` fold, so the value is thread-independent.
fn freeze_threshold<T: Scalar>(cols: &[JacobiCol<T>]) -> f64 {
    let max_col_sq = cols
        .iter()
        .map(|c| c.w.iter().map(|x| x.abs_sq()).sum::<f64>())
        .fold(0.0f64, f64::max);
    max_col_sq * 1e-34 // (1e-17 · ‖a_max‖)²
}

/// Examines one column pair and applies the annihilating Jacobi rotation
/// if the pair is not yet orthogonal (and not frozen). Returns whether a
/// rotation was applied.
fn rotate_pair<T: Scalar>(
    cp: &mut JacobiCol<T>,
    cq: &mut JacobiCol<T>,
    tol: f64,
    freeze_sq: f64,
) -> bool {
    // Gram entries of the (p, q) column pair.
    let mut app = 0.0;
    let mut aqq = 0.0;
    let mut apq = T::zero();
    for (wp, wq) in cp.w.iter().zip(cq.w.iter()) {
        app += wp.abs_sq();
        aqq += wq.abs_sq();
        apq += wp.conj() * *wq;
    }
    let off = apq.abs();
    if off <= tol * (app * aqq).sqrt() || app == 0.0 || aqq == 0.0 || app.min(aqq) < freeze_sq {
        return false;
    }
    // Phase factor: γ̄ makes the effective 2×2 Gram real.
    let gamma_bar = apq.conj().scale(1.0 / off);
    // Jacobi rotation for [[app, off], [off, aqq]]; with the column
    // update below the annihilation condition is t² − 2ζt − 1 = 0,
    // ζ = (app − aqq)/(2·off); take the smaller root for stability.
    let zeta = (app - aqq) / (2.0 * off);
    let t = -zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
    let cs = 1.0 / (1.0 + t * t).sqrt();
    let sn = t * cs;
    rotate_slices(&mut cp.w, &mut cq.w, gamma_bar, cs, sn);
    rotate_slices(&mut cp.v, &mut cq.v, gamma_bar, cs, sn);
    true
}

fn rotate_slices<T: Scalar>(p: &mut [T], q: &mut [T], gamma_bar: T, cs: f64, sn: f64) {
    for (a, b) in p.iter_mut().zip(q.iter_mut()) {
        let x = *a;
        let y = gamma_bar * *b;
        *a = x.scale(cs) - y.scale(sn);
        *b = x.scale(sn) + y.scale(cs);
    }
}

/// Borrows the two distinct columns of a pair mutably (`p < q`).
fn split_pair<T>(cols: &mut [JacobiCol<T>], p: usize, q: usize) -> (&mut JacobiCol<T>, &mut JacobiCol<T>) {
    debug_assert!(p < q);
    let (lo, hi) = cols.split_at_mut(q);
    (&mut lo[p], &mut hi[0])
}

/// Sequential tournament driver. Visits exactly the same pairs in the
/// same round order as [`run_parallel`]; since rounds touch disjoint
/// columns, the two produce identical bits. Returns
/// `(sweeps, rotations, converged, panicked_worker)`; the sequential
/// driver never contains a panic itself (`panicked_worker` is always
/// `None`) — an injected chaos panic unwinds to the caller, whose
/// containment layer (the compressor ladder, `try_par_map_with`, …) is
/// responsible for it.
fn run_sequential<T: Scalar>(
    cols: &mut [JacobiCol<T>],
    tol: f64,
    max_sweeps: usize,
    rounds: usize,
    chaos_panic: bool,
) -> (u64, u64, bool, Option<usize>) {
    let n = cols.len();
    let mut pairs = Vec::with_capacity(n / 2 + 1);
    let mut sweeps = 0u64;
    let mut rotations = 0u64;
    for _ in 0..max_sweeps {
        sweeps += 1;
        if chaos_panic && sweeps == 1 {
            // numlint:allow(PANIC01, PANIC02) deliberate chaos fault injection; the caller's containment layer turns this into NumError::WorkerPanicked
            panic!("injected chaos panic in sequential jacobi sweep");
        }
        let freeze_sq = freeze_threshold(cols);
        let mut rotated = false;
        for round in 0..rounds {
            tournament_pairs(n, round, &mut pairs);
            for &(p, q) in &pairs {
                let (cp, cq) = split_pair(cols, p, q);
                if rotate_pair(cp, cq, tol, freeze_sq) {
                    rotated = true;
                    rotations += 1;
                }
            }
        }
        if !rotated {
            return (sweeps, rotations, true, None);
        }
    }
    (sweeps, rotations, false, None)
}

fn lock<T>(cell: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parallel tournament driver: `workers` threads are spawned once per
/// factorization and advance through the sweep/round structure in
/// lockstep behind a [`Barrier`]. Within a round the pairs are disjoint,
/// so splitting them across workers (statically, by pair index) cannot
/// change any result bit; the freeze threshold and the convergence check
/// are evaluated by worker 0 alone between barriers, in the same order
/// as the sequential driver.
///
/// Worker panics are contained the same way `lti::ShiftSolveEngine`
/// contains shift-solve panics: every unit of work between barriers runs under
/// [`catch_unwind`], so a panicking worker keeps honoring the barrier
/// protocol (no deadlocked siblings), raises a shared flag, and the
/// whole team stops together at the next sweep boundary. The caller
/// then abandons the half-rotated columns and reports
/// [`NumError::WorkerPanicked`] with the lowest panicking worker index
/// (a deterministic choice when the panic itself is deterministic).
/// Returns `(sweeps, rotations, converged, panicked_worker)`.
fn run_parallel<T: Scalar>(
    cols: &mut Vec<JacobiCol<T>>,
    tol: f64,
    max_sweeps: usize,
    workers: usize,
    rounds: usize,
    chaos_panic: bool,
) -> (u64, u64, bool, Option<usize>) {
    let n = cols.len();
    let cells: Vec<Mutex<JacobiCol<T>>> = cols.drain(..).map(Mutex::new).collect();
    let barrier = Barrier::new(workers);
    let sweeps = AtomicU64::new(0);
    let rotations = AtomicU64::new(0);
    let rotated = AtomicBool::new(false);
    let converged = AtomicBool::new(false);
    let panicked = AtomicUsize::new(usize::MAX);
    let stop = AtomicBool::new(false);
    let freeze_bits = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..workers {
            let cells = &cells;
            let barrier = &barrier;
            let sweeps = &sweeps;
            let rotations = &rotations;
            let rotated = &rotated;
            let converged = &converged;
            let panicked = &panicked;
            let stop = &stop;
            let freeze_bits = &freeze_bits;
            scope.spawn(move || {
                let mut pairs = Vec::with_capacity(n / 2 + 1);
                for _ in 0..max_sweeps {
                    if t == 0 {
                        let guarded = catch_unwind(AssertUnwindSafe(|| {
                            if chaos_panic && sweeps.load(Ordering::Relaxed) == 0 {
                                // numlint:allow(PANIC01) deliberate chaos fault injection; contained below as NumError::WorkerPanicked
                                panic!("injected chaos panic in parallel jacobi worker 0");
                            }
                            let mut mx = 0.0f64;
                            for cell in cells {
                                let c = lock(cell);
                                mx = mx.max(c.w.iter().map(|x| x.abs_sq()).sum::<f64>());
                            }
                            mx
                        }));
                        match guarded {
                            Ok(mx) => freeze_bits.store((mx * 1e-34).to_bits(), Ordering::Relaxed),
                            Err(_) => {
                                panicked.fetch_min(t, Ordering::Relaxed);
                            }
                        }
                        rotated.store(false, Ordering::Relaxed);
                        sweeps.fetch_add(1, Ordering::Relaxed);
                    }
                    // The barrier publishes worker 0's stores (it
                    // synchronizes internally), so relaxed atomics are
                    // safe on both sides.
                    barrier.wait();
                    let freeze_sq = f64::from_bits(freeze_bits.load(Ordering::Relaxed));
                    for round in 0..rounds {
                        // Containment boundary: a panic anywhere in this
                        // worker's share of the round must not skip the
                        // round's barrier, or the siblings deadlock.
                        let guarded = catch_unwind(AssertUnwindSafe(|| {
                            tournament_pairs(n, round, &mut pairs);
                            for (k, &(p, q)) in pairs.iter().enumerate() {
                                if k % workers != t {
                                    continue;
                                }
                                // Locks are uncontended: pairs in a round are
                                // disjoint and each pair has one owner.
                                let mut cp = lock(&cells[p]);
                                let mut cq = lock(&cells[q]);
                                if rotate_pair(&mut cp, &mut cq, tol, freeze_sq) {
                                    rotated.store(true, Ordering::Relaxed);
                                    rotations.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }));
                        if guarded.is_err() {
                            panicked.fetch_min(t, Ordering::Relaxed);
                        }
                        barrier.wait();
                    }
                    if t == 0 {
                        if panicked.load(Ordering::Relaxed) != usize::MAX {
                            stop.store(true, Ordering::Relaxed);
                        } else if !rotated.load(Ordering::Relaxed) {
                            converged.store(true, Ordering::Relaxed);
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                    barrier.wait();
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
    });
    *cols = cells
        .into_iter()
        .map(|c| c.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    let panicked_worker = match panicked.load(Ordering::Relaxed) {
        usize::MAX => None,
        w => Some(w),
    };
    (
        sweeps.load(Ordering::Relaxed),
        rotations.load(Ordering::Relaxed),
        converged.load(Ordering::Relaxed),
        panicked_worker,
    )
}

/// Replaces zero columns of `u` (from exactly-zero singular values) with
/// unit vectors orthogonal to the existing columns, so `u` stays
/// orthonormal.
///
/// Candidate choice matters for cost: scanning canonical basis vectors
/// from `e₀` retries O(m) times per column once the completed subspace
/// nears full dimension (a random `eᵢ` then has residual ≈ √((m−k)/m),
/// below any fixed acceptance threshold), which made this routine
/// quartic — 56 s of a 59 s factorization on a 512-column sample stack.
/// Instead each null column takes the basis vector with the *smallest
/// row weight* rᵢ = Σₖ |u(i,k)|² over the k already-valid columns: by
/// pigeonhole (Σᵢ rᵢ = k) the best row has rᵢ ≤ k/m, so its residual is
/// at least √((m−k)/m) > 0 and the first candidate always survives. Two
/// modified Gram–Schmidt passes ("twice is enough") restore full
/// orthogonality even when that residual is small. Row weights update
/// incrementally, so completion is O(nulls·n·m) total. The argmin scans
/// rows in index order taking the first strict minimum, so the result is
/// deterministic and thread-independent.
fn complete_null_columns<T: Scalar>(u: &mut Mat<T>, s: &[f64]) {
    let (m, n) = u.shape();
    if s.iter().all(|&x| x != 0.0) {
        return;
    }
    // Row weights over the currently-valid columns (non-zero σ now;
    // completed null columns join incrementally below).
    let mut row_weight = vec![0.0f64; m];
    for k in 0..n {
        if s[k] == 0.0 {
            continue;
        }
        for (i, w) in row_weight.iter_mut().enumerate() {
            *w += u[(i, k)].abs_sq();
        }
    }
    for j in 0..n {
        if s[j] != 0.0 {
            continue;
        }
        let mut e = 0;
        for (i, &w) in row_weight.iter().enumerate() {
            if w < row_weight[e] {
                e = i;
            }
        }
        let mut cand = vec![T::zero(); m];
        cand[e] = T::one();
        for _pass in 0..2 {
            for k in 0..n {
                if k == j || (s[k] == 0.0 && k > j) {
                    continue;
                }
                let mut proj = T::zero();
                for (i, c) in cand.iter().enumerate() {
                    proj += u[(i, k)].conj() * *c;
                }
                for (i, c) in cand.iter_mut().enumerate() {
                    *c -= proj * u[(i, k)];
                }
            }
        }
        let norm: f64 = cand.iter().map(|c| c.abs_sq()).sum::<f64>().sqrt();
        // Unreachable by the pigeonhole bound unless u's columns are far
        // from orthonormal; leaving the column zero is then the safest
        // deterministic outcome.
        if norm == 0.0 {
            continue;
        }
        for (i, c) in cand.iter().enumerate() {
            u[(i, j)] = c.scale(1.0 / norm);
        }
        for (i, c) in cand.iter().enumerate() {
            row_weight[i] += c.abs_sq() / (norm * norm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{c64, DMat, ZMat};

    fn check_svd<T: Scalar>(a: &Mat<T>, tol: f64) {
        let f = svd(a).unwrap();
        let k = a.nrows().min(a.ncols());
        assert_eq!(f.u.shape(), (a.nrows(), k));
        assert_eq!(f.v.shape(), (a.ncols(), k));
        // Non-increasing, non-negative.
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-14);
        }
        assert!(f.s.iter().all(|&x| x >= 0.0));
        // Orthonormality.
        let gu = &f.u.adjoint() * &f.u;
        assert!((&gu - &Mat::identity(k)).norm_max() < tol, "U not orthonormal");
        let gv = &f.v.adjoint() * &f.v;
        assert!((&gv - &Mat::identity(k)).norm_max() < tol, "V not orthonormal");
        // Reconstruction.
        let rec = f.reconstruct();
        let scale = a.norm_fro().max(1.0);
        assert!((&rec - a).norm_fro() / scale < tol, "reconstruction error");
    }

    #[test]
    fn tournament_schedule_covers_every_pair_exactly_once() {
        for n in 2..=13 {
            let mut seen = std::collections::HashSet::new();
            let mut pairs = Vec::new();
            for round in 0..tournament_rounds(n) {
                tournament_pairs(n, round, &mut pairs);
                let mut touched = std::collections::HashSet::new();
                for &(p, q) in &pairs {
                    assert!(p < q && q < n, "bad pair ({p}, {q}) for n = {n}");
                    // Disjointness within the round is the parallel
                    // determinism argument.
                    assert!(touched.insert(p) && touched.insert(q), "column reused in a round");
                    assert!(seen.insert((p, q)), "pair ({p}, {q}) repeated for n = {n}");
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "incomplete schedule for n = {n}");
        }
    }

    #[test]
    fn diagonal_matrix() {
        let a = DMat::from_diag(&[3.0, 1.0, 2.0]);
        let f = svd(&a).unwrap();
        assert!((f.s[0] - 3.0).abs() < 1e-13);
        assert!((f.s[1] - 2.0).abs() < 1e-13);
        assert!((f.s[2] - 1.0).abs() < 1e-13);
        check_svd(&a, 1e-12);
    }

    #[test]
    fn real_rectangular_tall_and_wide() {
        let a = DMat::from_fn(7, 4, |i, j| ((i * 13 + j * 5) % 19) as f64 - 9.0);
        check_svd(&a, 1e-11);
        let b = a.transpose();
        check_svd(&b, 1e-11);
        // Singular values agree between A and Aᵀ.
        let sa = singular_values(&a).unwrap();
        let sb = singular_values(&b).unwrap();
        for (x, y) in sa.iter().zip(&sb) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn complex_matrix() {
        let a = ZMat::from_fn(6, 3, |i, j| {
            c64::new(((i + 3 * j) % 5) as f64 - 2.0, ((2 * i + j) % 7) as f64 - 3.0)
        });
        check_svd(&a, 1e-11);
    }

    #[test]
    fn rank_deficient_matrix() {
        // Rank 1: outer product.
        let u = [1.0, 2.0, 3.0, 4.0];
        let v = [1.0, -1.0, 0.5];
        let a = DMat::from_fn(4, 3, |i, j| u[i] * v[j]);
        let f = svd(&a).unwrap();
        assert_eq!(f.rank(1e-10), 1);
        assert!(f.s[1] < 1e-10 * f.s[0]);
        check_svd(&a, 1e-11);
    }

    #[test]
    fn zero_matrix() {
        let a = DMat::zeros(3, 2);
        let f = svd(&a).unwrap();
        assert_eq!(f.s, vec![0.0, 0.0]);
        assert_eq!(f.rank(1e-12), 0);
        // U columns are completed to an orthonormal set.
        let gu = &f.u.adjoint() * &f.u;
        assert!((&gu - &DMat::identity(2)).norm_max() < 1e-12);
    }

    #[test]
    fn graded_singular_values_high_relative_accuracy() {
        // diag(1, 1e-6, 1e-12) rotated by an orthogonal matrix: Jacobi
        // should recover tiny singular values with good relative accuracy.
        let d = DMat::from_diag(&[1.0, 1e-6, 1e-12]);
        let th: f64 = 0.7;
        let q = DMat::from_rows(&[
            &[th.cos(), -th.sin(), 0.0],
            &[th.sin(), th.cos(), 0.0],
            &[0.0, 0.0, 1.0],
        ]);
        let a = &(&q * &d) * &q.transpose();
        let s = singular_values(&a).unwrap();
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[1] - 1e-6).abs() / 1e-6 < 1e-8);
        assert!((s[2] - 1e-12).abs() / 1e-12 < 1e-3);
    }

    #[test]
    fn graded_accuracy_survives_qr_preconditioning() {
        // The same graded spectrum embedded in a tall matrix, which takes
        // the QR-preconditioned path: Householder QR is columnwise
        // backward stable, so Jacobi's relative accuracy must survive.
        let d = [1.0, 1e-6, 1e-12];
        let a = DMat::from_fn(9, 3, |i, j| {
            let phase = ((i * (j + 2) + 1) % 7) as f64 / 7.0 - 0.5;
            d[j] * phase
        });
        let fq = svd_with_opts(
            &a,
            &SvdOptions { qr_precondition: Some(true), ..SvdOptions::default() },
        )
        .unwrap();
        let fd = svd_with_opts(
            &a,
            &SvdOptions { qr_precondition: Some(false), ..SvdOptions::default() },
        )
        .unwrap();
        for (x, y) in fq.s.iter().zip(&fd.s) {
            let denom = y.max(1e-300);
            assert!((x - y).abs() / denom < 1e-9, "σ {x} vs {y}");
        }
    }

    #[test]
    fn tail_sum_and_truncation() {
        let a = DMat::from_diag(&[4.0, 2.0, 1.0]);
        let f = svd(&a).unwrap();
        let t = f.truncated(2);
        assert_eq!(t.s.len(), 2);
        assert_eq!(t.u.ncols(), 2);
    }

    #[test]
    fn sweep_cap_is_respected() {
        // One sweep is not enough for a generic dense matrix; the capped
        // variant must report NotConverged with the cap it was given,
        // while the default cap succeeds on the same input.
        let a = DMat::from_fn(6, 6, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        match svd_with_sweeps(&a, 1) {
            Err(NumError::NotConverged { algorithm: "jacobi-svd", iterations: 1 }) => {}
            other => panic!("expected NotConverged at cap 1, got {other:?}"),
        }
        assert!(svd_with_sweeps(&a, 100).is_ok());
    }

    #[test]
    fn parallel_worker_panic_is_contained_as_worker_panicked() {
        // Wide enough to engage the parallel driver (n ≥ PAR_MIN_COLS)
        // with 2 workers; the injected panic in worker 0 must not
        // deadlock the barrier protocol or unwind across the scope.
        let a = DMat::from_fn(60, 48, |i, j| ((i * 7 + j * 3) % 13) as f64 - 6.0);
        let opts = SvdOptions {
            threads: Some(2),
            qr_precondition: Some(false),
            chaos_panic: true,
            ..SvdOptions::default()
        };
        match svd_with_opts(&a, &opts) {
            Err(NumError::WorkerPanicked { index: 0 }) => {}
            other => panic!("expected contained worker panic, got {other:?}"),
        }
        // The same factorization without the chaos hook succeeds.
        assert!(svd_with_opts(&a, &SvdOptions { threads: Some(2), ..SvdOptions::default() })
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "injected chaos panic in sequential jacobi sweep")]
    fn sequential_chaos_panic_unwinds_to_caller() {
        // Small matrices take the sequential driver, where containment
        // is the caller's job (the compressor ladder catches it).
        let a = DMat::from_fn(6, 4, |i, j| (i + j) as f64);
        let opts = SvdOptions { threads: Some(1), chaos_panic: true, ..SvdOptions::default() };
        let _ = svd_with_opts(&a, &opts);
    }

    #[test]
    fn single_column() {
        let a = DMat::from_fn(5, 1, |i, _| (i + 1) as f64);
        let f = svd(&a).unwrap();
        let expect = (1.0f64 + 4.0 + 9.0 + 16.0 + 25.0).sqrt();
        assert!((f.s[0] - expect).abs() < 1e-12);
        check_svd(&a, 1e-12);
    }
}
