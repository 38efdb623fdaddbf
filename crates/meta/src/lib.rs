//! Meta-learning based acceleration (§5).
//!
//! Components:
//!
//! * [`features`] — 75 meta-features per tuning task extracted from the
//!   Spark event log (11 stage-level + 64 task-level), after Prats et al.,
//!   "You Only Run Once";
//! * [`distance`] — the surrogate distance between two tasks: the scaled
//!   negative Kendall-τ of their surrogates' predictions on a shared random
//!   configuration sample (§5.1), split into the sample's predictions and
//!   the distance of two prediction vectors so the first can be memoized;
//! * [`similarity`] — the learned regressor `M_reg: (v₁, v₂) ↦ d` (GBDT
//!   stand-in for LightGBM) that predicts task distance from meta-features
//!   alone, so new tasks can be matched before any tuning history exists;
//! * [`warmstart`] — initial design from the best configurations of the
//!   top-3 most similar tasks (§5.2);
//! * [`corpus`] — the persistent fleet-wide tuning corpus (append-only
//!   JSONL of meta-features + configuration + outcome records) and its
//!   z-score-standardized k-NN retrieval index, the zero-execution cold
//!   start for brand-new tasks;
//! * [`ensemble`] — the meta surrogate ensemble
//!   `μ_meta = Σᵢ wᵢ μᵢ`, `σ²_meta = Σᵢ wᵢ² σᵢ²` (Eq. 12), with base
//!   weights `1 − Dist(Mⁱ, Mᵗ)` and the target weight from a
//!   cross-validation rank-agreement score;
//! * [`shared`] — the [`SharedMetaStore`], the one memo of base-task
//!   knowledge (surrogates, their predictions at the Kendall-τ sample,
//!   pairwise distances) that every ensemble build and similarity
//!   training reads, plus a fleet's tuning corpus;
//! * [`cache`] — the per-tuner [`MetaCache`]: a store (its own or the
//!   fleet's) and the target-side state of cached ensemble builds.

pub mod cache;
pub mod corpus;
pub mod distance;
pub mod ensemble;
pub mod features;
pub mod shared;
pub mod similarity;
pub mod warmstart;

pub use cache::MetaCache;
pub use corpus::{
    CorpusRecord, CorpusStats, RetrievalIndex, TuningCorpus, DEFAULT_MAX_DISTANCE,
    DEFAULT_RETRIEVAL_K,
};
pub use distance::{kendall_tau, surrogate_distance};
pub use ensemble::{BaseTask, EnsembleSurrogate};
pub use features::{extract_meta_features, META_FEATURE_COUNT};
pub use shared::SharedMetaStore;
pub use similarity::{SimilarityLearner, TaskRecord};
pub use warmstart::warm_start_configs;
