//! The production stochastic EnKF pinned against independent references.
//!
//! [`EnsembleKalmanFilter::analyze`] factors whichever of two equivalent
//! SPD systems is smaller: the `m × m` innovation covariance when `m ≤ N`,
//! the `N × N` ensemble-space matrix when `m > N`. The references below
//! share the textbook anomaly, inflation and perturbation steps and differ
//! only in how they compute the weights `W`:
//!
//! * the dense observation-space formula `W = HAᵀC⁻¹Δ/k` with
//!   `C = HA·HAᵀ/k + D` — what the filter computed for every shape before
//!   it gained the ensemble-space side;
//! * the regularized least-squares problem of §3.3,
//!   `w_j = argmin ‖D^{-1/2}(δ_j − HA·w)‖² + k‖w‖²`, solved by Householder
//!   QR of the stacked `(m + N) × N` matrix. Its normal equations are
//!   `G·w_j = HAᵀD⁻¹δ_j`; QR never forms them, so it stays accurate where
//!   `C` is ill-conditioned.
//!
//! Both sides of the production filter must agree with both references and
//! leave the RNG in the same state (the perturbations are drawn in the same
//! order).

use proptest::prelude::*;
use wildfire_enkf::{EnkfConfig, EnsembleKalmanFilter};
use wildfire_math::{Cholesky, GaussianSampler, Matrix, Qr};

/// Weights `W` from the observed anomalies `HA`, the perturbed innovations
/// `Δ`, the diagonal of `D` and `k = N − 1`.
type Weights = fn(&Matrix, &Matrix, &[f64], f64) -> Matrix;

fn observation_space_weights(ha: &Matrix, delta: &Matrix, d: &[f64], k: f64) -> Matrix {
    let mut c = ha.matmul_tr(ha).unwrap();
    c.scale_mut(1.0 / k);
    for (i, &di) in d.iter().enumerate() {
        c[(i, i)] += di;
    }
    let z = Cholesky::new(&c).unwrap().solve_matrix(delta).unwrap();
    ha.tr_matmul(&z).unwrap().scaled(1.0 / k)
}

fn least_squares_weights(ha: &Matrix, delta: &Matrix, d: &[f64], k: f64) -> Matrix {
    let (m, n_ens) = ha.dims();
    let stacked = Matrix::from_fn(m + n_ens, n_ens, |i, j| {
        if i < m {
            ha[(i, j)] / d[i].sqrt()
        } else if i - m == j {
            k.sqrt()
        } else {
            0.0
        }
    });
    let qr = Qr::new(&stacked).unwrap();
    let mut w = Matrix::zeros(n_ens, n_ens);
    for j in 0..n_ens {
        let mut rhs = vec![0.0; m + n_ens];
        for i in 0..m {
            rhs[i] = delta[(i, j)] / d[i].sqrt();
        }
        w.set_col(j, &qr.solve_least_squares(&rhs).unwrap());
    }
    w
}

/// The analysis around a weights solver: inflate, draw `Δ` member by
/// member, `X ← X + A·W`.
fn reference_analysis(
    x: &mut Matrix,
    y: &Matrix,
    data: &[f64],
    obs_var: &[f64],
    config: EnkfConfig,
    rng: &mut GaussianSampler,
    weights: Weights,
) {
    let (n, n_ens) = x.dims();
    let m = y.rows();
    let (mut a, mean) = x.anomalies();
    if config.inflation != 1.0 {
        a.scale_mut(config.inflation);
        for j in 0..n_ens {
            for i in 0..n {
                x[(i, j)] = mean[i] + a[(i, j)];
            }
        }
    }
    let (ha, _) = y.anomalies();
    let mean_var = obs_var.iter().sum::<f64>() / m as f64;
    let d: Vec<f64> = obs_var
        .iter()
        .map(|v| v + config.ridge * mean_var.max(f64::MIN_POSITIVE))
        .collect();
    let mut delta = Matrix::zeros(m, n_ens);
    for j in 0..n_ens {
        for i in 0..m {
            delta[(i, j)] = data[i] + rng.normal(0.0, obs_var[i].sqrt()) - y[(i, j)];
        }
    }
    let w = weights(&ha, &delta, &d, n_ens as f64 - 1.0);
    x.axpy_mut(1.0, &a.matmul(&w).unwrap()).unwrap();
}

/// `‖x − x_ref‖_max / ‖x_ref‖_max`.
fn relative_difference(x: &Matrix, x_ref: &Matrix) -> f64 {
    let mut diff = x.clone();
    diff.axpy_mut(-1.0, x_ref).unwrap();
    diff.max_abs() / x_ref.max_abs()
}

proptest! {
    /// Every shape around the switch (`m ∈ {1, N−1, N, N+1, 4N}`), no,
    /// the default and a large ridge, both inflations, with observation variances anywhere in
    /// 1e-6..1e6. The analysis ensembles agree with the least-squares
    /// reference to 1e-9 relative. They agree with the observation-space
    /// reference to 1e-9 relative as well, or — where tiny variances make
    /// `C` ill-conditioned — to within that reference's own round-off,
    /// `ε·κ(C)`. Every sampler ends in the same state.
    #[test]
    fn analysis_matches_dense_references(
        seed in 0u64..10_000,
        n_ens in 3usize..13,
        n in 4usize..40,
        log10_var in -6.0f64..6.0,
    ) {
        let mut gen = GaussianSampler::new(seed);
        let base_var = 10f64.powf(log10_var);
        for m in [1, n_ens - 1, n_ens, n_ens + 1, 4 * n_ens] {
            let x0 = gen.normal_matrix(n, n_ens, 1.0);
            // A generic observation function: a random linear map of the
            // state plus a mild nonlinearity.
            let h = gen.normal_matrix(m, n, 1.0 / (n as f64).sqrt());
            let mut y = h.matmul(&x0).unwrap();
            for j in 0..n_ens {
                for i in 0..m {
                    y[(i, j)] += 0.1 * x0[(i % n, j)].tanh();
                }
            }
            let data: Vec<f64> = (0..m).map(|_| gen.normal(0.0, 1.0)).collect();
            let obs_var: Vec<f64> = (0..m).map(|_| base_var * gen.uniform(0.5, 2.0)).collect();
            // Upper bound on κ(C): (‖HA‖²_F/k + max D) / min D.
            let (ha, _) = y.anomalies();
            let (d_min, d_max) = obs_var
                .iter()
                .fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let kappa = (ha.fro_norm().powi(2) / (n_ens as f64 - 1.0) + d_max) / d_min;
            let obs_space_tol = 1e-9f64.max(f64::EPSILON * kappa);

            for ridge in [0.0, EnkfConfig::default().ridge, 0.1] {
                for inflation in [1.0, 1.3] {
                    let config = EnkfConfig { inflation, ridge };
                    let mut x = x0.clone();
                    let mut rng = GaussianSampler::new(seed ^ 0x5eed);
                    EnsembleKalmanFilter::new(config)
                        .analyze(&mut x, &y, &data, &obs_var, &mut rng)
                        .unwrap();
                    let refs: [(Weights, f64); 2] = [
                        (observation_space_weights, obs_space_tol),
                        (least_squares_weights, 1e-9),
                    ];
                    for (weights, tol) in refs {
                        let mut x_ref = x0.clone();
                        let mut rng_ref = GaussianSampler::new(seed ^ 0x5eed);
                        reference_analysis(
                            &mut x_ref, &y, &data, &obs_var, config, &mut rng_ref, weights,
                        );
                        let rel = relative_difference(&x, &x_ref);
                        prop_assert!(
                            rel <= tol,
                            "m={m} N={n_ens} n={n} var={base_var:e} ridge={ridge} \
                             inflation={inflation}: relative difference {rel:e} > {tol:e}"
                        );
                        prop_assert_eq!(rng.state(), rng_ref.state());
                    }
                }
            }
        }
    }
}
