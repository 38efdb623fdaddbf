//! # otune-jobs — event-sourced, resumable tuning campaigns
//!
//! The job engine promotes the library-style fleet controller into a
//! crash-tolerant service: a tuning campaign is a **job** whose every
//! state transition is a typed event appended to a torn-write-tolerant
//! JSONL journal. The journal's `WaveCompleted` events are the campaign's
//! runhistory, stored once; periodic checkpoints are commit markers that
//! name a wave cursor and are followed by a sync barrier.
//!
//! ## Journal format
//!
//! One [`JournalEntry`] per line: `{"seq": N, "event": {"<Kind>": {...}}}`,
//! written through the shared group-commit writer — fsync cadence per
//! `OTUNE_JOURNAL_SYNC` (`every` by default, `batch:N`, or `barrier`),
//! with sync barriers at every checkpoint/pause/completion append so an
//! acked checkpoint always survives `kill -9`. A journal is one file
//! that is never rewritten; the `<base>.NNNN` segments older builds
//! rotated into still load.
//! The replay-authoritative events — `JobStarted` (embeds the
//! [`CampaignSpec`]), `WaveCompleted` (embeds every [`ItemOutcome`]),
//! `JobCompleted` (embeds the [`FleetSummary`]) — carry all resumable
//! state; `CheckpointCreated` (a [`JobCheckpoint`] wave cursor),
//! `JobPaused` and `JobResumed` are commit markers replay checks against;
//! the rest are an audit trail. `kill -9` at any point loses at most the
//! unacked journal suffix, which resume re-drives deterministically; a
//! torn line is skipped, counted, and healed by `open`.
//!
//! ## Recovery model
//!
//! `resume = genesis replay`: [`JobEngine::open`] creates every task from
//! the spec, exactly as a fresh start does, then re-drives every
//! journaled wave through the real suggest path and the same
//! result-application code a live report runs — so failure ledgers,
//! dead-letter flags and the DLQ rebuild themselves. Each regenerated
//! suggestion must equal the journaled one ([`JobError::ReplayDivergence`]
//! otherwise), and every wave and commit marker must follow on from the
//! waves before it ([`JobError::ReplayGap`] otherwise) — so a resumed
//! campaign provably continues exactly where the crashed one left off.
//!
//! ## Failure policy
//!
//! A failed run is a censored observation plus a ledger entry; while the
//! consecutive-failure count stays under `max_retries` the task retries
//! next wave after a recorded exponential backoff, and at `max_retries`
//! it is dead-lettered with its full failure history while the rest of
//! the campaign proceeds.

pub mod engine;
pub mod event;
pub mod journal;
pub mod spec;

pub use engine::{ItemResult, JobEngine, JobError, PendingItem, PendingWave, CRASH_ENV};
pub use event::{
    DlqEntry, FailureRecord, FleetSummary, ItemOutcome, JobCheckpoint, JobEvent, JournalEntry,
    TaskSummary,
};
pub use journal::{Journal, JournalLoad};
pub use spec::{CampaignSpec, TaskFault};
