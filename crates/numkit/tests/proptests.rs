//! Randomized property tests for numkit's decompositions.
//!
//! Random well-conditioned matrices are generated with the in-tree
//! [`SplitMix64`] generator (the workspace builds with zero external
//! crates, so no proptest); each factorization is validated against its
//! defining algebraic identities across a battery of seeds.

use numkit::{
    eig, eig_residual, eigh, schur, svd, DMat, Lu, Mat, PivotedQr, Qr, SplitMix64,
};

const SEEDS: u64 = 32;

/// A dense n×m matrix with entries in [-5, 5].
fn random_mat(n: usize, m: usize, rng: &mut SplitMix64) -> DMat {
    DMat::from_fn(n, m, |_, _| rng.next_range(-5.0, 5.0))
}

/// A diagonally dominant (hence invertible) n×n matrix.
fn dd_matrix(n: usize, rng: &mut SplitMix64) -> DMat {
    let mut a = random_mat(n, n, rng);
    for i in 0..n {
        let rowsum: f64 = (0..n).map(|j| a[(i, j)].abs()).sum();
        a[(i, i)] += rowsum + 1.0;
    }
    a
}

fn random_vec(n: usize, lo: f64, hi: f64, rng: &mut SplitMix64) -> Vec<f64> {
    (0..n).map(|_| rng.next_range(lo, hi)).collect()
}

#[test]
fn lu_solve_residual_is_small() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let a = dd_matrix(6, &mut rng);
        let b = random_vec(6, -3.0, 3.0, &mut rng);
        let x = Lu::new(a.clone()).unwrap().solve(&b).unwrap();
        let ax = a.mul_vec(&x);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-9, "seed {seed}");
        }
    }
}

#[test]
fn lu_det_matches_permutation_free_cases() {
    // Triangular matrix: determinant is the product of the diagonal.
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let d = random_vec(5, 0.5, 4.0, &mut rng);
        let n = d.len();
        let a = Mat::from_fn(n, n, |i, j| if i == j { d[i] } else if j > i { 0.25 } else { 0.0 });
        let det = Lu::new(a).unwrap().det();
        let expect: f64 = d.iter().product();
        assert!((det - expect).abs() < 1e-9 * expect.abs(), "seed {seed}");
    }
}

#[test]
fn qr_reconstructs_and_q_orthonormal() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let a = random_mat(7, 4, &mut rng);
        let f = Qr::new(a.clone()).unwrap();
        let q = f.thin_q();
        let gram = &q.adjoint() * &q;
        assert!((&gram - &DMat::identity(4)).norm_max() < 1e-10, "seed {seed}");
        let rec = &q * &f.r();
        assert!((&rec - &a).norm_max() < 1e-10, "seed {seed}");
    }
}

#[test]
fn pivoted_qr_diag_dominates_tail() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let a = random_mat(8, 5, &mut rng);
        let f = PivotedQr::new(a).unwrap();
        let d = f.r_diag_abs();
        for w in d.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "seed {seed}");
        }
    }
}

#[test]
fn svd_identities() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let a = random_mat(6, 4, &mut rng);
        let f = svd(&a).unwrap();
        // Non-increasing, non-negative.
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "seed {seed}");
        }
        assert!(f.s.iter().all(|&s| s >= 0.0), "seed {seed}");
        // Frobenius norm is the l2 norm of the singular values.
        let snorm: f64 = f.s.iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!((snorm - a.norm_fro()).abs() < 1e-9 * (1.0 + a.norm_fro()), "seed {seed}");
        // Reconstruction.
        let rec = f.reconstruct();
        assert!((&rec - &a).norm_fro() < 1e-9 * (1.0 + a.norm_fro()), "seed {seed}");
    }
}

#[test]
fn svd_largest_singular_value_is_operator_norm_lower_bound() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let a = random_mat(5, 5, &mut rng);
        let x = random_vec(5, -1.0, 1.0, &mut rng);
        let xnorm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        if xnorm <= 1e-6 {
            continue;
        }
        let ax = a.mul_vec(&x);
        let axnorm: f64 = ax.iter().map(|v| v * v).sum::<f64>().sqrt();
        let s = svd(&a).unwrap().s;
        assert!(axnorm / xnorm <= s[0] * (1.0 + 1e-9) + 1e-12, "seed {seed}");
    }
}

#[test]
fn eigh_identities() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let mut a = random_mat(6, 6, &mut rng);
        a.symmetrize();
        let e = eigh(&a).unwrap();
        let g = &e.vectors.transpose() * &e.vectors;
        assert!((&g - &DMat::identity(6)).norm_max() < 1e-10, "seed {seed}");
        let rec = e.reconstruct();
        assert!((&rec - &a).norm_max() < 1e-9 * (1.0 + a.norm_max()), "seed {seed}");
        // Trace = eigenvalue sum.
        let tr: f64 = a.diag().iter().sum();
        let es: f64 = e.values.iter().sum();
        assert!((tr - es).abs() < 1e-9 * (1.0 + tr.abs()), "seed {seed}");
    }
}

#[test]
fn schur_similarity() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let a = random_mat(6, 6, &mut rng);
        let s = schur(&a).unwrap();
        let rec = s.reconstruct();
        assert!((&rec - &a).norm_max() < 1e-8 * (1.0 + a.norm_max()), "seed {seed}");
        let g = &s.q.transpose() * &s.q;
        assert!((&g - &DMat::identity(6)).norm_max() < 1e-10, "seed {seed}");
        // Eigenvalue sum equals the trace.
        let tr: f64 = a.diag().iter().sum();
        let es: f64 = s.eigenvalues().iter().map(|z| z.re).sum();
        assert!((tr - es).abs() < 1e-7 * (1.0 + tr.abs()), "seed {seed}");
        let im: f64 = s.eigenvalues().iter().map(|z| z.im).sum();
        assert!(im.abs() < 1e-9, "seed {seed}: conjugate pairs must cancel");
    }
}

#[test]
fn eig_residuals_small() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let a = dd_matrix(5, &mut rng);
        let e = eig(&a).unwrap();
        for j in 0..5 {
            let v = e.vectors.col(j);
            assert!(eig_residual(&a, e.values[j], &v) < 1e-6, "seed {seed}");
        }
    }
}

/// Pivoted QR rank equals SVD rank on randomly rank-deficient input.
#[test]
fn pivoted_qr_rank_matches_svd() {
    for seed in 0..24 {
        let mut rng = SplitMix64::new(seed);
        let base = random_mat(7, 3, &mut rng);
        // Build a 7×5 matrix of rank ≤ 3 by duplicating columns.
        let a = DMat::from_fn(7, 5, |i, j| base[(i, j % 3)]);
        let r_qr = PivotedQr::new(a.clone()).unwrap().rank(1e-10);
        let r_svd = svd(&a).unwrap().rank(1e-10);
        assert_eq!(r_qr, r_svd, "seed {seed}");
    }
}
