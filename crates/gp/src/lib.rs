//! Gaussian-process surrogates for Spark configuration tuning.
//!
//! §3.3: the paper models objectives, runtimes, and constraint metrics with
//! GPs because they are hyperparameter-light and give closed-form posterior
//! means and variances (Eq. 2). The workload's data size is appended to the
//! configuration vector (`x̄ = {x¹…xᴺ, ds}`, Eq. 4) and a **mixed kernel**
//! handles the heterogeneous dimensions: Matérn-5/2 for numeric parameters,
//! a Hamming kernel for categorical parameters, and a squared-exponential
//! kernel for the data size.
//!
//! Hyperparameters (group lengthscales, signal variance, noise) are fitted
//! by maximizing the log marginal likelihood with a seeded random search
//! plus coordinate refinement — no external optimizer needed at the n ≤ 100
//! observation counts online tuning produces. Every fit is exact over the
//! whole history it is given; a tuner's budget bounds that history.

mod kernel;
mod model;
mod stats;
mod tile;

pub use kernel::{FeatureKind, KernelHyper, MixedKernel, PackedRow, PackedSet};
pub use model::{
    GaussianProcess, GpBatchScratch, GpConfig, GpError, GpScratch, IncrementalPolicy, KernelTile,
    SearchTrigger, UpdateOutcome,
};
pub use otune_linalg::Rows;
pub use stats::{norm_cdf, norm_pdf};
pub use tile::{CandidateTile, DistanceTile};
