//! # otune-jobs — event-sourced, resumable tuning campaigns
//!
//! The job engine promotes the library-style fleet controller into a
//! crash-tolerant service: a tuning campaign is a **job** whose every
//! state transition is a typed event appended to a torn-write-tolerant
//! JSONL journal, with periodic checkpoints embedding the full campaign
//! state (per-task [`otune_core::TunerSnapshot`]s, the wave cursor, the
//! retry ledger, and the dead-letter queue).
//!
//! ## Journal format
//!
//! One [`JournalEntry`] per line: `{"seq": N, "event": {"<Kind>": {...}}}`,
//! written through the shared group-commit writer — fsync cadence per
//! `OTUNE_JOURNAL_SYNC` (`every` by default, `batch:N`, or `barrier`),
//! with sync barriers at every checkpoint/pause/completion append so an
//! acked checkpoint always survives `kill -9`. Journals rotate into
//! `<base>.NNNN` segments past a size threshold and compact to
//! `JobStarted` + last full checkpoint + suffix ([`Journal::compact`]).
//! The replay-authoritative events — `JobStarted` (embeds the
//! [`CampaignSpec`]), `CheckpointCreated` (embeds the [`JobCheckpoint`]),
//! `CheckpointDelta` (embeds the [`CheckpointDelta`] overlay),
//! `WaveCompleted` (embeds every [`ItemOutcome`]), `JobCompleted`
//! (embeds the [`FleetSummary`]) — carry all resumable state; the rest
//! are an audit trail. `kill -9` at any point loses at most the unacked
//! journal suffix, which resume re-drives deterministically; a torn
//! line is skipped, counted, and healed by `open`.
//!
//! ## Recovery model
//!
//! `resume = last parseable checkpoint + re-driving the journaled waves
//! through the real suggest path`. Restored tuners replay their recorded
//! suggestion traces bit for bit ([`otune_core::OnlineTuner::resume`]);
//! the engine then regenerates each post-checkpoint wave's suggestions
//! and errors with [`JobError::ReplayDivergence`] if anything differs
//! from what the journal recorded — so a resumed campaign provably
//! continues exactly where the crashed one left off.
//!
//! ## Failure policy
//!
//! A failed run is a censored observation plus a ledger entry; while the
//! consecutive-failure count stays under `max_retries` the task retries
//! next wave after a recorded exponential backoff, and at `max_retries`
//! it is dead-lettered with its full failure history while the rest of
//! the campaign proceeds.

pub mod checkpoint;
pub mod engine;
pub mod event;
pub mod journal;
pub mod spec;

pub use checkpoint::{task_fingerprint, CheckpointDelta, JobCheckpoint, TaskCheckpoint};
pub use engine::{ItemResult, JobEngine, JobError, PendingItem, PendingWave, CRASH_ENV};
pub use event::{
    DlqEntry, FailureRecord, FleetSummary, ItemOutcome, JobEvent, JournalEntry, TaskSummary,
};
pub use journal::{CompactionReport, Journal, JournalLoad};
pub use spec::{CampaignSpec, TaskFault};
