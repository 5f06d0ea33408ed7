//! Parallel ensemble linear algebra (the "Parallel linear algebra" box of
//! Fig. 2).
//!
//! The weights `W` come from the stochastic EnKF's shared solve
//! ([`EnsembleKalmanFilter::weights_ws`]); the dominant dense product of
//! the analysis step — the state update `X ← X + A·W` with `A` of size
//! (state × members) — is fanned out over output columns. Each output
//! column is an independent sequence of axpy operations, so the parallel
//! result is **bit-for-bit identical** to the sequential one (no
//! reduction-order differences), which keeps parallel runs reproducible —
//! a property the tests pin down.

use crate::pool::parallel_for_each_column;
use crate::Result;
use wildfire_enkf::{AnalysisWorkspace, EnkfConfig, EnkfError, EnsembleKalmanFilter};
use wildfire_math::{GaussianSampler, Matrix};

/// Stochastic EnKF with column-parallel state update.
#[derive(Debug, Clone)]
pub struct ParallelEnkf {
    /// Worker threads for the dense products.
    pub threads: usize,
    /// Multiplicative forecast inflation (1 = none).
    pub inflation: f64,
}

impl ParallelEnkf {
    /// Creates the filter.
    pub fn new(threads: usize, inflation: f64) -> Self {
        ParallelEnkf { threads, inflation }
    }

    /// Column-parallel `A · W` into a reusable output matrix. Each output
    /// column is an independent accumulation, so every thread count produces
    /// bit-identical results; the sequential path runs the same per-column
    /// kernel without spawning. The threaded path splits the column-major
    /// output buffer into one contiguous chunk of columns per worker —
    /// no per-call vector of column borrows is materialized.
    fn matmul_cols_into(&self, a: &Matrix, w: &Matrix, out: &mut Matrix) {
        out.resize_zeroed(a.rows(), w.cols());
        if self.threads <= 1 {
            a.matmul_into(w, out).expect("dims validated by caller");
            return;
        }
        let rows = a.rows();
        parallel_for_each_column(out.as_mut_slice(), rows, self.threads, |j, col| {
            a.matvec_into(w.col(j), col)
                .expect("dims validated by caller");
        });
    }

    /// Analysis step; same contract as
    /// [`wildfire_enkf::EnsembleKalmanFilter::analyze`].
    ///
    /// # Errors
    /// Same as [`EnsembleKalmanFilter::analyze`].
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

    /// Workspace-backed [`ParallelEnkf::analyze`]: the dense temporaries
    /// come from `ws` and are reused across analyses; the threaded column
    /// fan-out works on contiguous chunks of the output buffer, so the
    /// analysis itself performs no per-call allocation (with `threads > 1`
    /// only the scoped worker threads remain). Bit-identical to the
    /// allocating wrapper for every thread count.
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
        let filter = EnsembleKalmanFilter::new(EnkfConfig {
            inflation: self.inflation,
            ridge: 0.0,
        });
        if filter.weights_ws(ensemble, synthetic, data, obs_var, rng, ws)? {
            // The big product, parallel over output columns.
            self.matmul_cols_into(&ws.a, &ws.w, &mut ws.update);
            ensemble
                .axpy_mut(1.0, &ws.update)
                .map_err(EnkfError::Math)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let mut rng_init = GaussianSampler::new(42);
        let x0 = rng_init.normal_matrix(200, 24, 1.0);
        let y0 = x0.submatrix(0, 50, 0, 24);
        let data: Vec<f64> = (0..50).map(|i| (i as f64 * 0.1).sin()).collect();
        let obs_var = vec![0.3; 50];

        // Sequential reference with the same RNG stream. The sequential
        // filter adds a tiny ridge; replicate by adding it to obs_var here.
        let ridge = 1e-10 * 0.3;
        let seq_var: Vec<f64> = obs_var.iter().map(|v| v + ridge).collect();
        let mut x_seq = x0.clone();
        let mut rng_seq = GaussianSampler::new(7);
        EnsembleKalmanFilter::new(EnkfConfig {
            inflation: 1.0,
            ridge: 0.0,
        })
        .analyze(&mut x_seq, &y0, &data, &seq_var, &mut rng_seq)
        .unwrap();

        for threads in [1, 2, 4] {
            let mut x_par = x0.clone();
            let mut rng_par = GaussianSampler::new(7);
            ParallelEnkf::new(threads, 1.0)
                .analyze(&mut x_par, &y0, &data, &seq_var, &mut rng_par)
                .unwrap();
            assert_eq!(
                x_par.as_slice(),
                x_seq.as_slice(),
                "threads={threads} must be bit-identical"
            );
        }
    }

    #[test]
    fn pulls_toward_data() {
        let mut rng = GaussianSampler::new(3);
        let mut x = rng.normal_matrix(10, 20, 1.0);
        let y = x.clone();
        let data = vec![6.0; 10];
        ParallelEnkf::new(4, 1.0)
            .analyze(&mut x, &y, &data, &[0.1; 10], &mut rng)
            .unwrap();
        let mean: f64 = x.col_mean().iter().sum::<f64>() / 10.0;
        assert!(mean > 3.0, "analysis mean {mean}");
    }

    #[test]
    fn rejects_non_finite_observations_before_drawing() {
        let mut rng = GaussianSampler::new(5);
        let mut x = rng.normal_matrix(8, 6, 1.0);
        let y = x.submatrix(0, 4, 0, 6);
        let state0 = rng.state();
        let err = ParallelEnkf::new(2, 1.0)
            .analyze(&mut x, &y, &[0.0, f64::NAN, 0.0, 0.0], &[0.1; 4], &mut rng)
            .unwrap_err();
        assert!(matches!(
            err,
            crate::EnsembleError::Filter(EnkfError::NonFinite { what: "data" })
        ));
        assert_eq!(rng.state(), state0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = GaussianSampler::new(1);
        let mut x = Matrix::zeros(5, 1);
        let y = Matrix::zeros(2, 1);
        assert!(ParallelEnkf::new(2, 1.0)
            .analyze(&mut x, &y, &[0.0; 2], &[1.0; 2], &mut rng)
            .is_err());
    }
}
