//! Reusable scratch buffers for allocation-free filter analyses.
//!
//! One stochastic-EnKF analysis allocated seven dense temporaries — the
//! anomaly matrices, the factored SPD system and its Cholesky factor, the
//! perturbed innovations, and the two update products. On the paper's cycle
//! (analysis every few minutes of simulation time, 25 members, grid-sized
//! states) that is megabytes of allocator traffic per cycle for buffers
//! whose shapes never change. [`AnalysisWorkspace`] owns them all: sized on
//! first use, reused thereafter, so a steady-state analysis performs no
//! heap allocation.

use wildfire_math::{EigenWorkspace, Matrix, SymmetricEigen};

/// Scratch buffers for one EnKF/ETKF analysis.
///
/// A single workspace serves analyses of different shapes (buffers resize,
/// reusing capacity) and is shared by the stochastic EnKF, the ETKF, and —
/// through [`crate::morphing_enkf::MorphingWorkspace`] — the morphing EnKF.
#[derive(Debug, Clone, Default)]
pub struct AnalysisWorkspace {
    /// State anomaly matrix `A` (`n × N`).
    pub a: Matrix,
    /// Observation anomaly matrix `HA` (`m × N`).
    pub ha: Matrix,
    /// The factored SPD system: the innovation covariance
    /// `C = HA·HAᵀ/(N−1) + D` (`m × m`) when `m ≤ N`, and
    /// `G = (N−1)·I + HAᵀD⁻¹HA` (`N × N`) when `m > N` — the ETKF reuses
    /// this slot for its ensemble-space matrix `M` (`N × N`).
    pub c: Matrix,
    /// Cholesky factor of `c` (`m × m` or `N × N`).
    pub l: Matrix,
    /// Perturbed innovations `Δ` (`m × N` on both sides): solved in place
    /// into `Z = C⁻¹Δ` when `m ≤ N`, scaled in place into `D⁻¹Δ` when
    /// `m > N`.
    pub delta: Matrix,
    /// Ensemble-space weights `W` (`N × N`).
    pub w: Matrix,
    /// State update `A·W` (`n × N`) — the ETKF reuses this slot for its
    /// transformed anomalies.
    pub update: Matrix,
    /// Ensemble mean of the state.
    pub mean_x: Vec<f64>,
    /// Ensemble mean of the synthetic observations.
    pub mean_y: Vec<f64>,
    /// Length-`m` innovation scratch — the stochastic EnKF keeps `D⁻¹`
    /// here when `m > N`.
    pub innov: Vec<f64>,
    /// Length-`N` ensemble-space scratch.
    pub wvec: Vec<f64>,
    /// Second length-`N` ensemble-space scratch (the ETKF mean-update
    /// weights).
    pub wvec2: Vec<f64>,
    /// Length-`n` state-space scratch.
    pub xvec: Vec<f64>,
    /// Reusable eigendecomposition of the ETKF ensemble-space matrix
    /// (`N × N`) — the last allocating piece of the deterministic analysis.
    pub eig: SymmetricEigen,
    /// Jacobi scratch backing `eig`.
    pub eig_ws: EigenWorkspace,
}

impl AnalysisWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}
