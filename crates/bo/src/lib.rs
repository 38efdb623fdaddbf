//! Bayesian-optimization engine for online Spark tuning.
//!
//! Components implementing §3.3 and §4 of the paper:
//!
//! * [`acquisition`] — Expected Improvement (Eq. 3), probability of
//!   feasibility (Eq. 7), and EI-with-Constraints (Eq. 6);
//! * [`safe`] — the GP upper-bound safe region of Eq. 8
//!   (`u(x) = μ(x) + γσ(x) ≤ threshold`);
//! * [`subspace`] — fANOVA-ranked adaptive sub-space generation with
//!   TuRBO-style success/failure counters (§4.1);
//! * [`agd`] — approximate gradient descent on the generalized objective
//!   (Eqs. 9–11);
//! * [`optimizer`] — candidate generation and constrained acquisition
//!   maximization over the safe sub-space;
//! * [`surrogate`] — glue for fitting mixed-kernel GPs on observed
//!   configurations plus workload context.
//!
//! The crate is policy-free: the OnlineTune controller in `otune-core`
//! (and the baselines in `otune-baselines`) assemble these pieces.

pub mod acquisition;
pub mod agd;
pub mod observation;
pub mod optimizer;
pub mod safe;
pub mod store;
pub mod subspace;
pub mod surrogate;
mod tiled;

pub use acquisition::{
    eic, expected_improvement, lower_confidence_bound, prob_below, probability_of_improvement,
};
pub use agd::Agd;
pub use observation::{best_observation, usable_measurement, within_constraints, Observation};
pub use optimizer::{
    distinct_feasible, fill_candidates, maximize_eic, maximize_eic_with, AcquisitionChoice,
    CandidateParams, EicObjective,
};
pub use safe::SafeRegion;
pub use store::{
    fnv_mix, history_fingerprint, observation_fingerprint, SurrogateCache, SurrogateStore,
};
pub use subspace::{AdaptiveSubspace, SubspaceParams};
pub use surrogate::{fit_surrogate, surrogate_kinds, Predictor, SurrogateInput};
