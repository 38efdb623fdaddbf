//! Crash-recovery snapshots of tuner state.
//!
//! The entire tuning stack is deterministic given its options (seeded
//! RNGs, pool-width-invariant fits, fingerprint-keyed caches), so a
//! snapshot does not serialize surrogate internals or RNG state at all.
//! It records only the *decisions* — the runhistory (with failure flags
//! and seeded/iterated provenance), the pending suggestion, and the
//! lifecycle counters — and [`OnlineTuner::resume`] rebuilds
//! bitwise-identical state by replaying the real suggest path over the
//! recorded history, verifying at every step that the regenerated
//! suggestion matches the recorded one.
//!
//! [`OnlineTuner::resume`]: crate::tuner::OnlineTuner::resume

use crate::generator::SuggestionSource;
use crate::tuner::TunerError;
use otune_bo::Observation;
use otune_meta::TaskRecord;
use otune_space::Configuration;
use serde::{Deserialize, Serialize};

/// The pending (suggested, not yet observed) configuration at snapshot
/// time, with the context it was generated under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingSuggestion {
    /// The suggested configuration.
    pub config: Configuration,
    /// Which mechanism produced it.
    pub source: SuggestionSource,
    /// EIC value at the choice.
    pub eic: f64,
    /// Whether the choice came from inside the GP safe region.
    pub from_safe_region: bool,
    /// The workload context `suggest` was called with — resume needs it
    /// to regenerate (and verify) the suggestion.
    pub context: Vec<f64>,
}

/// A complete, replayable record of one tuner's state, written by its
/// caller (for example to a JSONL log) after every observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TunerSnapshot {
    /// The tuning task this snapshot belongs to.
    pub task_id: String,
    /// Options fingerprint: resume refuses a snapshot taken under a
    /// different seed (the replay would diverge silently otherwise).
    pub seed: u64,
    /// Options fingerprint: iteration budget.
    pub budget: usize,
    /// The current round's runhistory, censored failures included.
    pub history: Vec<Observation>,
    /// Indices into `history` that were seeded (no suggest call, no
    /// budget consumed).
    #[serde(default)]
    pub seeded_idx: Vec<usize>,
    /// The in-flight suggestion, if a run was pending when the snapshot
    /// was taken.
    pub pending: Option<PendingSuggestion>,
    /// Whether tuning had stopped (budget or EI criterion).
    pub stopped: bool,
    /// Consecutive degraded post-tuning runs.
    pub degraded_streak: usize,
    /// Consecutive failed runs in the current round.
    #[serde(default)]
    pub failure_streak: usize,
    /// Restarts performed before this snapshot.
    pub restarts: usize,
    /// Iterations consumed in the current round.
    pub round_iterations: usize,
    /// Completed rounds' histories (from restarts), fed to the ensemble.
    pub own_records: Vec<TaskRecord>,
}

/// Why a resume failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The options passed to `resume` disagree with the snapshot's
    /// fingerprint on the named field.
    OptionsMismatch {
        /// Which fingerprint field disagreed.
        field: &'static str,
    },
    /// Replaying the suggest path produced a different configuration
    /// than the snapshot recorded at history index `at` — the snapshot
    /// was taken under different code, options, or a corrupted history.
    ReplayDivergence {
        /// History index (or `history.len()` for the pending suggestion)
        /// where the replay diverged.
        at: usize,
    },
    /// The tuner itself errored during replay.
    Tuner(TunerError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::OptionsMismatch { field } => {
                write!(f, "resume options disagree with the snapshot on `{field}`")
            }
            ResumeError::ReplayDivergence { at } => {
                write!(f, "replay diverged from the snapshot at history index {at}")
            }
            ResumeError::Tuner(e) => write!(f, "tuner error during replay: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<TunerError> for ResumeError {
    fn from(e: TunerError) -> Self {
        ResumeError::Tuner(e)
    }
}
