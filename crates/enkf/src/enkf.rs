//! The stochastic ensemble Kalman filter with perturbed observations
//! (Evensen 2003) — the paper's reference filter.
//!
//! States are the columns of an `n × N` matrix with anomalies `A`; the
//! synthetic observations have anomalies `HA` (`m × N`). With `k = N − 1`,
//! `D = diag(R) + ridge` and the perturbed innovations `δ_j = d + ε_j − y_j`
//! as the columns of `Δ`, the analysis forms the `N × N` weights
//! `W = HAᵀ(HA·HAᵀ/k + D)⁻¹Δ/k` and updates `X ← X + A·W`, i.e. the
//! ensemble is replaced by linear combinations of its members — exactly
//! the "least squares problem to balance the change in the state and the
//! difference from the data" of §3.3.
//!
//! `W` comes from whichever of two equivalent SPD systems is smaller,
//! chosen from the shapes alone:
//!
//! * `m ≤ N` — the `m × m` innovation covariance `C = HA·HAᵀ/k + D` is
//!   factored and `W = HAᵀC⁻¹Δ/k`;
//! * `m > N` — the `N × N` matrix `G = k·I + HAᵀD⁻¹HA` is factored and
//!   `W = G⁻¹HAᵀD⁻¹Δ`, by the push-through identity
//!   `HAᵀC⁻¹ = k·G⁻¹HAᵀD⁻¹`. It is exact, subtracts nothing, and `G`'s
//!   eigenvalues are at least `k`, so it is well conditioned. The cost is
//!   `O(mN²)` instead of `O(m³)` — for the morphing filter's dense ψ
//!   stream (`m ≈ 1300`, `N = 16`) that is the difference between a
//!   0.7 Gflop factorization and a few hundred kflop.
//!
//! Both sides draw the perturbations `ε_j` in the same order, so the RNG
//! stream does not depend on which system is solved.

use crate::workspace::AnalysisWorkspace;
use crate::{EnkfError, Result};
use wildfire_math::{Cholesky, GaussianSampler, Matrix};

/// Configuration of the stochastic EnKF.
#[derive(Debug, Clone, Copy)]
pub struct EnkfConfig {
    /// Multiplicative covariance inflation applied to the forecast
    /// anomalies before the analysis (1.0 = none). Compensates for the
    /// spread deficit of small ensembles.
    pub inflation: f64,
    /// Additive jitter on the innovation covariance diagonal, as a fraction
    /// of the mean observation variance — a regularization backstop against
    /// rank-deficient ensembles (cf. the paper's reference \[7\]).
    pub ridge: f64,
}

impl Default for EnkfConfig {
    fn default() -> Self {
        EnkfConfig {
            inflation: 1.0,
            ridge: 1e-10,
        }
    }
}

/// The stochastic EnKF.
#[derive(Debug, Clone, Default)]
pub struct EnsembleKalmanFilter {
    /// Filter configuration.
    pub config: EnkfConfig,
}

impl EnsembleKalmanFilter {
    /// Creates a filter with the given configuration.
    pub fn new(config: EnkfConfig) -> Self {
        EnsembleKalmanFilter { config }
    }

    /// Performs one analysis step in place.
    ///
    /// * `ensemble` — state matrix `X` (`n × N`), one member per column;
    /// * `synthetic` — observed ensemble `Y = h(X)` (`m × N`), one synthetic
    ///   observation vector per member (computed by the caller's
    ///   observation function — the model stays a black box);
    /// * `data` — the real observation vector `d` (`m`);
    /// * `obs_var` — observation error variances (diagonal of `R`, `m`);
    /// * `rng` — source of the observation perturbations.
    ///
    /// # Errors
    /// Dimension mismatches, ensembles smaller than 2, non-finite `data`,
    /// `synthetic` or `obs_var` ([`EnkfError::NonFinite`]), negative
    /// variances ([`EnkfError::NegativeVariance`]) and linear-algebra
    /// failures (a zero variance without a ridge can leave the system
    /// singular).
    pub fn analyze(
        &self,
        ensemble: &mut Matrix,
        synthetic: &Matrix,
        data: &[f64],
        obs_var: &[f64],
        rng: &mut GaussianSampler,
    ) -> Result<()> {
        let mut ws = AnalysisWorkspace::new();
        self.analyze_ws(ensemble, synthetic, data, obs_var, rng, &mut ws)
    }

    /// Allocation-free [`EnsembleKalmanFilter::analyze`]: every dense
    /// temporary comes from `ws`, sized on the first call with a given shape
    /// and reused thereafter (zero heap allocation in steady state).
    /// Bit-identical to the allocating wrapper.
    ///
    /// # Errors
    /// Same as [`EnsembleKalmanFilter::analyze`].
    pub fn analyze_ws(
        &self,
        ensemble: &mut Matrix,
        synthetic: &Matrix,
        data: &[f64],
        obs_var: &[f64],
        rng: &mut GaussianSampler,
        ws: &mut AnalysisWorkspace,
    ) -> Result<()> {
        if self.weights_ws(ensemble, synthetic, data, obs_var, rng, ws)? {
            ws.a.matmul_into(&ws.w, &mut ws.update)?;
            ensemble.axpy_mut(1.0, &ws.update)?;
        }
        Ok(())
    }

    /// The analysis up to, but not including, the state update: validates
    /// the inputs, inflates `ensemble` in place, fills `ws.a` with its
    /// anomalies `A` and leaves the ensemble-space weights `W` (`N × N`) in
    /// `ws.w`, so that `X + A·W` is the analysis ensemble. Callers with
    /// their own `A·W` kernel (the column-parallel filter of the ensemble
    /// driver) share this solve.
    ///
    /// Factors the smaller of two equivalent SPD systems, chosen from the
    /// shapes alone (see the module docs). Returns `false`, leaving `ws.w`
    /// untouched, when there is nothing to assimilate (`m = 0` or `n = 0`).
    ///
    /// # Errors
    /// Same as [`EnsembleKalmanFilter::analyze`]; every input check happens
    /// before the first draw from `rng`.
    pub fn weights_ws(
        &self,
        ensemble: &mut Matrix,
        synthetic: &Matrix,
        data: &[f64],
        obs_var: &[f64],
        rng: &mut GaussianSampler,
        ws: &mut AnalysisWorkspace,
    ) -> Result<bool> {
        let (n, n_ens) = ensemble.dims();
        let (m, n_ens2) = synthetic.dims();
        if n_ens < 2 {
            return Err(EnkfError::EnsembleTooSmall);
        }
        if n_ens2 != n_ens {
            return Err(EnkfError::DimensionMismatch {
                what: "synthetic-data ensemble size differs from state ensemble size",
            });
        }
        if data.len() != m || obs_var.len() != m {
            return Err(EnkfError::DimensionMismatch {
                what: "data/obs_var length differs from synthetic data rows",
            });
        }
        check_observations(synthetic, data, obs_var)?;
        if m == 0 || n == 0 {
            return Ok(false); // nothing to assimilate
        }

        // Anomalies, with optional inflation of the state ensemble.
        ensemble.anomalies_into(&mut ws.a, &mut ws.mean_x);
        let a = &mut ws.a;
        if self.config.inflation != 1.0 {
            a.scale_mut(self.config.inflation);
            // Rebuild the inflated ensemble around its mean.
            for j in 0..n_ens {
                for i in 0..n {
                    ensemble[(i, j)] = ws.mean_x[i] + a[(i, j)];
                }
            }
        }
        synthetic.anomalies_into(&mut ws.ha, &mut ws.mean_y);
        let ha = &ws.ha;

        // D = R + ridge (diagonal), k = N − 1.
        let k = n_ens as f64 - 1.0;
        let scale = 1.0 / k;
        let mean_var = obs_var.iter().sum::<f64>() / m as f64;
        let jitter = self.config.ridge * mean_var.max(f64::MIN_POSITIVE);
        let obs_space = m <= n_ens;
        if obs_space {
            // C = HA·HAᵀ/k + D (m × m).
            let c = &mut ws.c;
            ha.matmul_tr_into(ha, c)?;
            c.scale_mut(scale);
            for i in 0..m {
                c[(i, i)] += obs_var[i] + jitter;
            }
        } else {
            // D⁻¹ into `innov`, then G = k·I + HAᵀD⁻¹HA (N × N).
            ws.innov.clear();
            ws.innov.extend(obs_var.iter().map(|&v| 1.0 / (v + jitter)));
            let d_inv = &ws.innov;
            let g = &mut ws.c;
            g.resize_no_zero(n_ens, n_ens);
            for p in 0..n_ens {
                let hp = ha.col(p);
                for q in 0..=p {
                    let mut s = 0.0;
                    for ((&x, &y), &di) in hp.iter().zip(ha.col(q)).zip(d_inv) {
                        s += x * di * y;
                    }
                    g[(p, q)] = s;
                    g[(q, p)] = s;
                }
                g[(p, p)] += k;
            }
        }
        Cholesky::factor_into(&ws.c, &mut ws.l)?;

        // Perturbed innovations Δ (m × N): δ_j = d + ε_j − y_j.
        let delta = &mut ws.delta;
        delta.resize_zeroed(m, n_ens);
        for j in 0..n_ens {
            for i in 0..m {
                let eps = rng.normal(0.0, obs_var[i].sqrt());
                delta[(i, j)] = data[i] + eps - synthetic[(i, j)];
            }
        }

        let w = &mut ws.w;
        if obs_space {
            // Z = C⁻¹Δ (solved in place), W = HAᵀZ/k.
            for j in 0..n_ens {
                Cholesky::solve_in_place_with(&ws.l, delta.col_mut(j));
            }
            ha.tr_matmul_into(delta, w)?;
            w.scale_mut(scale);
        } else {
            // W = G⁻¹·HAᵀ·(D⁻¹Δ), D⁻¹ applied to Δ in place.
            for j in 0..n_ens {
                for (x, &di) in delta.col_mut(j).iter_mut().zip(ws.innov.iter()) {
                    *x *= di;
                }
            }
            ha.tr_matmul_into(delta, w)?;
            for j in 0..n_ens {
                Cholesky::solve_in_place_with(&ws.l, w.col_mut(j));
            }
        }
        Ok(true)
    }
}

/// Rejects observation inputs that would silently poison the analysis:
/// non-finite data, synthetic observations or variances, and negative
/// variances (whose square root, the perturbation scale, is NaN).
fn check_observations(synthetic: &Matrix, data: &[f64], obs_var: &[f64]) -> Result<()> {
    if !data.iter().all(|v| v.is_finite()) {
        return Err(EnkfError::NonFinite { what: "data" });
    }
    if !synthetic.all_finite() {
        return Err(EnkfError::NonFinite {
            what: "synthetic observations",
        });
    }
    if !obs_var.iter().all(|v| v.is_finite()) {
        return Err(EnkfError::NonFinite { what: "obs_var" });
    }
    if let Some(index) = obs_var.iter().position(|&v| v < 0.0) {
        return Err(EnkfError::NegativeVariance { index });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wildfire_math::stats;

    /// Scalar linear-Gaussian case: the EnKF analysis must match the exact
    /// Kalman filter in the large-ensemble limit.
    #[test]
    fn scalar_case_matches_kalman_filter() {
        let mut rng = GaussianSampler::new(42);
        let n_ens = 4000;
        let prior_mean = 1.0;
        let prior_var: f64 = 4.0;
        let obs = 3.0;
        let obs_var = 1.0;

        let mut x = Matrix::zeros(1, n_ens);
        for j in 0..n_ens {
            x[(0, j)] = rng.normal(prior_mean, prior_var.sqrt());
        }
        let y = x.clone(); // identity observation operator

        let filter = EnsembleKalmanFilter::default();
        filter
            .analyze(&mut x, &y, &[obs], &[obs_var], &mut rng)
            .unwrap();

        // Exact posterior: K = 4/5; mean = 1 + K(3−1) = 2.6; var = (1−K)·4 = 0.8.
        let vals = x.row(0);
        let mean = stats::mean(&vals);
        let var = stats::variance(&vals);
        assert!((mean - 2.6).abs() < 0.1, "posterior mean {mean}");
        assert!((var - 0.8).abs() < 0.1, "posterior variance {var}");
    }

    #[test]
    fn analysis_pulls_ensemble_toward_data() {
        let mut rng = GaussianSampler::new(7);
        let n = 20;
        let n_ens = 30;
        // Prior ensemble centered at 0; truth at 5.
        let mut x = rng.normal_matrix(n, n_ens, 1.0);
        let y = x.clone();
        let data = vec![5.0; n];
        let obs_var = vec![0.25; n];
        let before: f64 = x.col_mean().iter().sum::<f64>() / n as f64;
        EnsembleKalmanFilter::default()
            .analyze(&mut x, &y, &data, &obs_var, &mut rng)
            .unwrap();
        let after: f64 = x.col_mean().iter().sum::<f64>() / n as f64;
        assert!(before.abs() < 0.5);
        assert!(after > 2.0, "analysis mean {after} should move toward 5");
        assert!(x.all_finite());
    }

    #[test]
    fn analysis_reduces_spread() {
        let mut rng = GaussianSampler::new(9);
        let mut x = rng.normal_matrix(5, 50, 2.0);
        let y = x.clone();
        let data = vec![0.0; 5];
        let obs_var = vec![0.5; 5];
        let spread_before = stats::ensemble_spread(&x);
        EnsembleKalmanFilter::default()
            .analyze(&mut x, &y, &data, &obs_var, &mut rng)
            .unwrap();
        let spread_after = stats::ensemble_spread(&x);
        assert!(
            spread_after < spread_before,
            "spread must shrink: {spread_before} → {spread_after}"
        );
    }

    #[test]
    fn partial_observation_updates_unobserved_via_correlation() {
        // Two perfectly correlated components; only the first is observed.
        let mut rng = GaussianSampler::new(11);
        let n_ens = 200;
        let mut x = Matrix::zeros(2, n_ens);
        for j in 0..n_ens {
            let v = rng.normal(0.0, 1.0);
            x[(0, j)] = v;
            x[(1, j)] = v; // copy: correlation 1
        }
        let y = x.submatrix(0, 1, 0, n_ens);
        EnsembleKalmanFilter::default()
            .analyze(&mut x, &y, &[4.0], &[0.01], &mut rng)
            .unwrap();
        let m0 = stats::mean(&x.row(0));
        let m1 = stats::mean(&x.row(1));
        assert!((m0 - 4.0).abs() < 0.3, "observed component {m0}");
        assert!(
            (m1 - 4.0).abs() < 0.3,
            "unobserved component {m1} must follow"
        );
    }

    #[test]
    fn inflation_increases_prior_spread() {
        let mut rng = GaussianSampler::new(13);
        let x0 = rng.normal_matrix(4, 40, 1.0);
        let run = |inflation: f64, rng: &mut GaussianSampler| {
            let mut x = x0.clone();
            let y = x.clone();
            let f = EnsembleKalmanFilter::new(EnkfConfig {
                inflation,
                ..Default::default()
            });
            // Huge obs error → analysis ≈ prior, exposing the inflation.
            f.analyze(&mut x, &y, &[0.0; 4], &[1e12; 4], rng).unwrap();
            stats::ensemble_spread(&x)
        };
        let s1 = run(1.0, &mut rng);
        let s2 = run(1.5, &mut rng);
        assert!(
            (s2 / s1 - 1.5).abs() < 0.05,
            "inflation ratio {} should be ≈1.5",
            s2 / s1
        );
    }

    #[test]
    fn workspace_analysis_matches_allocating_analysis_bitwise() {
        let mut rng_init = GaussianSampler::new(101);
        let filter = EnsembleKalmanFilter::new(EnkfConfig {
            inflation: 1.2,
            ..Default::default()
        });
        let mut ws = AnalysisWorkspace::new();
        // Two rounds with different shapes through ONE workspace: the second
        // round checks the resize path stays bit-identical too.
        for (n, m, n_ens) in [(60, 12, 10), (90, 20, 14)] {
            let x0 = rng_init.normal_matrix(n, n_ens, 1.0);
            let y0 = x0.submatrix(0, m, 0, n_ens);
            let data: Vec<f64> = (0..m).map(|i| (i as f64 * 0.3).cos()).collect();
            let obs_var = vec![0.4; m];

            let mut x_alloc = x0.clone();
            let mut rng_a = GaussianSampler::new(55);
            filter
                .analyze(&mut x_alloc, &y0, &data, &obs_var, &mut rng_a)
                .unwrap();

            let mut x_ws = x0.clone();
            let mut rng_b = GaussianSampler::new(55);
            filter
                .analyze_ws(&mut x_ws, &y0, &data, &obs_var, &mut rng_b, &mut ws)
                .unwrap();
            assert_eq!(
                x_alloc.as_slice(),
                x_ws.as_slice(),
                "workspace path must be bit-identical ({n}x{n_ens}, m={m})"
            );
        }
    }

    #[test]
    fn rejects_bad_dimensions() {
        let mut rng = GaussianSampler::new(1);
        let mut x = Matrix::zeros(3, 10);
        let y = Matrix::zeros(2, 9);
        let err =
            EnsembleKalmanFilter::default().analyze(&mut x, &y, &[0.0; 2], &[1.0; 2], &mut rng);
        assert!(matches!(err, Err(EnkfError::DimensionMismatch { .. })));
        let y2 = Matrix::zeros(2, 10);
        let err2 =
            EnsembleKalmanFilter::default().analyze(&mut x, &y2, &[0.0; 3], &[1.0; 3], &mut rng);
        assert!(matches!(err2, Err(EnkfError::DimensionMismatch { .. })));
    }

    #[test]
    fn rejects_single_member() {
        let mut rng = GaussianSampler::new(1);
        let mut x = Matrix::zeros(3, 1);
        let y = Matrix::zeros(2, 1);
        assert!(matches!(
            EnsembleKalmanFilter::default().analyze(&mut x, &y, &[0.0; 2], &[1.0; 2], &mut rng),
            Err(EnkfError::EnsembleTooSmall)
        ));
    }

    /// Runs one analysis on a small valid problem after `corrupt` has
    /// edited its observation inputs; returns the error and whether the
    /// sampler and the ensemble were left untouched.
    fn analyze_corrupted(
        corrupt: impl Fn(&mut Matrix, &mut [f64], &mut [f64]),
    ) -> (EnkfError, bool) {
        let mut rng = GaussianSampler::new(17);
        let mut x = rng.normal_matrix(6, 5, 1.0);
        let mut y = x.submatrix(0, 3, 0, 5);
        let mut data = vec![0.5; 3];
        let mut obs_var = vec![0.2; 3];
        corrupt(&mut y, &mut data, &mut obs_var);
        let (x0, state0) = (x.clone(), rng.state());
        let err = EnsembleKalmanFilter::default()
            .analyze(&mut x, &y, &data, &obs_var, &mut rng)
            .unwrap_err();
        (err, x == x0 && rng.state() == state0)
    }

    #[test]
    fn rejects_non_finite_data() {
        let (err, untouched) = analyze_corrupted(|_, data, _| data[1] = f64::NAN);
        assert_eq!(err, EnkfError::NonFinite { what: "data" });
        assert!(untouched);
    }

    #[test]
    fn rejects_non_finite_synthetic_observations() {
        let (err, untouched) = analyze_corrupted(|y, _, _| y[(2, 3)] = f64::INFINITY);
        assert_eq!(
            err,
            EnkfError::NonFinite {
                what: "synthetic observations"
            }
        );
        assert!(untouched);
    }

    #[test]
    fn rejects_non_finite_obs_var() {
        let (err, untouched) = analyze_corrupted(|_, _, var| var[0] = f64::NAN);
        assert_eq!(err, EnkfError::NonFinite { what: "obs_var" });
        assert!(untouched);
    }

    #[test]
    fn rejects_negative_obs_var() {
        let (err, untouched) = analyze_corrupted(|_, _, var| var[2] = -0.1);
        assert_eq!(err, EnkfError::NegativeVariance { index: 2 });
        assert!(untouched);
    }

    #[test]
    fn zero_observations_is_identity() {
        let mut rng = GaussianSampler::new(3);
        let mut x = rng.normal_matrix(4, 6, 1.0);
        let before = x.clone();
        let y = Matrix::zeros(0, 6);
        EnsembleKalmanFilter::default()
            .analyze(&mut x, &y, &[], &[], &mut rng)
            .unwrap();
        assert_eq!(x, before);
    }
}
