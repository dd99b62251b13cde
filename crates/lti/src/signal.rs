//! Waveform generators for the input-correlated experiments.
//!
//! The paper's Fig. 12–14 drive a 32-port RC network with square waves
//! whose edge timings are randomly dithered by ~10% of the period —
//! signals that are *correlated but not identical*, mimicking outputs of
//! a common functional block or clock domain. Fig. 15–16 use substrate
//! bulk-current-like inputs, which we synthesize as a low-rank latent
//! mixture. Both generators live here, along with the empirical
//! correlation analysis (SVD of the sample matrix) Algorithm 3 starts
//! from.

use numkit::{svd, DMat, NumError, SplitMix64, Svd};

/// A square wave with smoothed (finite rise-time) edges.
///
/// `phase` shifts the waveform in time; `rise` is the 0→1 transition
/// time. Values are in `[0, amplitude]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SquareWave {
    /// Period in seconds.
    pub period: f64,
    /// Peak value.
    pub amplitude: f64,
    /// Time shift in seconds.
    pub phase: f64,
    /// Edge transition time in seconds (0 for ideal edges).
    pub rise: f64,
}

impl SquareWave {
    /// A unit square wave with 5% rise time and no phase shift.
    pub fn new(period: f64) -> Self {
        SquareWave { period, amplitude: 1.0, phase: 0.0, rise: period * 0.05 }
    }

    /// Evaluates the waveform at time `t`.
    pub fn eval(&self, t: f64) -> f64 {
        let tau = (t - self.phase).rem_euclid(self.period) / self.period;
        let r = (self.rise / self.period).max(1e-9);
        // Piecewise: ramp up in [0, r], high until 0.5, ramp down in
        // [0.5, 0.5 + r], low until 1.
        let v = if tau < r {
            tau / r
        } else if tau < 0.5 {
            1.0
        } else if tau < 0.5 + r {
            1.0 - (tau - 0.5) / r
        } else {
            0.0
        };
        v * self.amplitude
    }

    /// Samples the waveform on a uniform grid of `nt` points with step `h`.
    pub fn sample(&self, nt: usize, h: f64) -> Vec<f64> {
        (0..nt).map(|k| self.eval(k as f64 * h)).collect()
    }
}

/// An ensemble of `p` square waves with *dithered* edge timing: each
/// input's phase is drawn uniformly from `±dither·period/2` around zero.
///
/// This models signals sharing a clock but arriving through different
/// logic depths — the correlated-input scenario of paper Section VI-C.
/// Returns a `p × nt` sample matrix (row per input).
pub fn dithered_square_inputs(
    p: usize,
    nt: usize,
    h: f64,
    period: f64,
    dither: f64,
    seed: u64,
) -> DMat {
    let mut rng = SplitMix64::new(seed);
    let mut u = DMat::zeros(p, nt);
    for i in 0..p {
        let phase = (rng.next_f64() - 0.5) * dither * period;
        let w = SquareWave { phase, ..SquareWave::new(period) };
        for (k, v) in w.sample(nt, h).into_iter().enumerate() {
            u[(i, k)] = v;
        }
    }
    u
}

/// An ensemble of `p` square waves with *completely random* phases
/// (uniform over a full period) — the out-of-class inputs that break the
/// input-correlated model in the paper's Fig. 14.
pub fn random_phase_square_inputs(
    p: usize,
    nt: usize,
    h: f64,
    period: f64,
    seed: u64,
) -> DMat {
    let mut rng = SplitMix64::new(seed);
    let mut u = DMat::zeros(p, nt);
    for i in 0..p {
        let phase = rng.next_f64() * period;
        let w = SquareWave { phase, ..SquareWave::new(period) };
        for (k, v) in w.sample(nt, h).into_iter().enumerate() {
            u[(i, k)] = v;
        }
    }
    u
}

/// Synthetic substrate bulk-current inputs: `rank` independent latent
/// switching processes mixed into `p` ports with random weights, plus
/// white noise of relative magnitude `noise`.
///
/// Substrate injection currents originate from a handful of aggressor
/// blocks, so the port waveforms are strongly correlated — the structure
/// Algorithm 3 exploits (paper Section VI-C-2). Returns `p × nt`.
pub fn latent_mixture_inputs(
    p: usize,
    nt: usize,
    h: f64,
    rank: usize,
    noise: f64,
    seed: u64,
) -> DMat {
    let mut rng = SplitMix64::new(seed);
    // Latent processes: square waves at different periods and phases.
    let mut latents = DMat::zeros(rank, nt);
    for r in 0..rank {
        let period = 1e-9 * (1.0 + r as f64 * 0.7 + rng.next_f64() * 0.3);
        let w = SquareWave {
            phase: rng.next_f64() * period,
            amplitude: 1.0,
            ..SquareWave::new(period)
        };
        for (k, v) in w.sample(nt, h).into_iter().enumerate() {
            // Zero-mean: switching currents alternate sign.
            latents[(r, k)] = 2.0 * v - 1.0;
        }
    }
    let mix = DMat::from_fn(p, rank, |_, _| rng.next_f64() * 2.0 - 1.0);
    // (p×rank)·(rank×nt): shapes fixed above, so the operator's
    // dimension check cannot fire.
    let mut u = &mix * &latents;
    if noise > 0.0 {
        let scale = u.norm_max() * noise;
        for i in 0..p {
            for k in 0..nt {
                u[(i, k)] += (rng.next_f64() * 2.0 - 1.0) * scale;
            }
        }
    }
    u
}

/// Empirical input-correlation analysis: the SVD `𝒰 = V_K·S_K·U_Kᵀ` of a
/// `p × N` waveform sample matrix (paper Section IV-C).
///
/// The left singular vectors `V_K` span the principal input directions,
/// and `S_K²/N` are the variances of the corresponding uncorrelated
/// coordinates — exactly what Algorithm 3's random draws need.
///
/// For strongly wide matrices (`N ≫ p`, the common case: many time
/// samples across few ports) the left factor is computed from the
/// `p × p` Gram matrix `𝒰·𝒰ᵀ`, which is orders of magnitude cheaper than
/// a full SVD of the sample record. Singular values below `√ε·s₀` lose
/// relative accuracy on that path — harmless for correlation-rank
/// decisions.
///
/// # Errors
///
/// Propagates SVD/eigensolver failures (non-finite samples).
pub fn input_correlation_svd(u: &DMat) -> Result<Svd<f64>, NumError> {
    let (p, n) = u.shape();
    if n <= 4 * p {
        return svd(u);
    }
    // Gram path: 𝒰·𝒰ᵀ = V_K·S_K²·V_Kᵀ.
    let gram = {
        let mut g = u.matmul(&u.transpose())?;
        g.symmetrize();
        g
    };
    let e = numkit::eigh(&gram)?;
    let s: Vec<f64> = e.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
    // Right vectors (rarely used by callers): U_K = 𝒰ᵀ·V_K·S⁻¹ for the
    // non-degenerate directions, zero columns otherwise.
    let mut v = DMat::zeros(n, p);
    let ut = u.transpose();
    for j in 0..p {
        if s[j] > s[0].max(1e-300) * 1e-12 {
            let col = e.vectors.col(j);
            let w = ut.mul_vec(&col);
            for (i, &wi) in w.iter().enumerate() {
                v[(i, j)] = wi / s[j];
            }
        }
    }
    Ok(Svd { u: e.vectors, s, v })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_wave_levels() {
        let w = SquareWave::new(1.0);
        assert!((w.eval(0.25) - 1.0).abs() < 1e-12, "high phase");
        assert!(w.eval(0.75).abs() < 1e-12, "low phase");
        // Mid-rise.
        assert!((w.eval(0.025) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn square_wave_is_periodic() {
        let w = SquareWave::new(2e-9);
        for &t in &[0.1e-9, 0.77e-9, 1.3e-9] {
            assert!((w.eval(t) - w.eval(t + 2e-9)).abs() < 1e-12);
            assert!((w.eval(t) - w.eval(t + 10e-9)).abs() < 1e-12);
        }
    }

    #[test]
    fn dithered_inputs_are_strongly_correlated() {
        let u = dithered_square_inputs(16, 400, 0.01e-9, 1e-9, 0.1, 42);
        let r = input_correlation_svd(&u).unwrap().rank(0.05);
        assert!(r < 8, "dithered ensemble should be low-rank-ish, got rank {r}");
    }

    #[test]
    fn random_phase_inputs_are_less_correlated() {
        let nd = {
            let u = dithered_square_inputs(16, 400, 0.01e-9, 1e-9, 0.1, 1);
            input_correlation_svd(&u).unwrap().rank(0.05)
        };
        let nr = {
            let u = random_phase_square_inputs(16, 400, 0.01e-9, 1e-9, 1);
            input_correlation_svd(&u).unwrap().rank(0.05)
        };
        assert!(
            nr > nd,
            "random phases must raise the correlation rank: dithered {nd}, random {nr}"
        );
    }

    #[test]
    fn latent_mixture_rank_tracks_latent_count() {
        let u = latent_mixture_inputs(50, 600, 0.01e-9, 3, 0.0, 9);
        let r = input_correlation_svd(&u).unwrap().rank(1e-6);
        assert!(r <= 3, "noiseless mixture rank must be ≤ latent count, got {r}");
        let un = latent_mixture_inputs(50, 600, 0.01e-9, 3, 0.05, 9);
        let rn = input_correlation_svd(&un).unwrap().rank(0.02);
        assert!(rn >= 3, "noise should not hide the latent signals");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = dithered_square_inputs(4, 50, 1e-11, 1e-9, 0.1, 7);
        let b = dithered_square_inputs(4, 50, 1e-11, 1e-9, 0.1, 7);
        assert_eq!(a, b);
    }
}
