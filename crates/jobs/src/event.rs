//! Typed job events: the journal's vocabulary.
//!
//! Every campaign state transition is one [`JobEvent`] appended to the
//! journal. Replay is driven by the **replay-authoritative** events —
//! `JobStarted` (embeds the full spec), `WaveCompleted` (embeds every
//! item outcome), and `JobCompleted` (embeds the fleet summary).
//! `CheckpointCreated`, `JobPaused`, `JobResumed` and `JobCompleted` are
//! **commit markers**: each names the wave cursor every earlier wave
//! reached, which replay verifies ([`JobEvent::wave_cursor`]). The remaining
//! events (`TaskFailed`, `RetryScheduled`, `ItemDeadLettered`) are
//! observability: they make the journal a readable audit trail but carry
//! no state replay depends on.

use crate::spec::CampaignSpec;
use otune_space::Configuration;
use serde::{Deserialize, Serialize};

/// One line of the journal: a monotonically increasing sequence number
/// plus the event. The sequence number makes torn-tail loss visible
/// (gaps) and keeps replay order explicit even if a file is concatenated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Append sequence number (1-based, monotonic per journal).
    pub seq: u64,
    /// The event.
    pub event: JobEvent,
}

/// The outcome of one (task, wave) item — everything replay needs to
/// re-apply the observation without re-executing the workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemOutcome {
    /// Campaign task index.
    pub task: usize,
    /// The configuration that ran (must equal the regenerated suggestion
    /// on replay — divergence is a hard error).
    pub config: Configuration,
    /// Observed runtime in seconds (partial runtime for failed runs).
    pub runtime_s: f64,
    /// Observed resource cost.
    pub resource: f64,
    /// Whether the run failed (OOM / timeout kill) — failed runs are
    /// reported as censored observations.
    pub failed: bool,
    /// Execution status label (`success`, `oom_killed`, …).
    pub status: String,
    /// Consecutive-failure attempt number (1-based; 0 for a success).
    pub attempt: usize,
    /// Whether this failure pushed the task over `max_retries` into the
    /// dead-letter queue.
    pub dead_lettered: bool,
}

/// One entry of a task's failure ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// Wave the failure occurred in.
    pub wave: u64,
    /// Consecutive-failure attempt number (1-based).
    pub attempt: usize,
    /// Partial runtime observed before the kill.
    pub partial_runtime_s: f64,
    /// Resource cost of the failed run.
    pub resource: f64,
    /// Execution status label.
    pub status: String,
    /// Backoff recorded for this attempt (seconds; metadata, never slept
    /// inside the engine).
    pub backoff_s: f64,
}

/// A dead-lettered task with its full failure history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DlqEntry {
    /// Campaign task index.
    pub task: usize,
    /// The task id.
    pub task_id: String,
    /// Wave of the terminal failure.
    pub wave: u64,
    /// Consecutive failures accumulated (== `max_retries`).
    pub attempts: usize,
    /// The complete failure ledger, oldest first.
    pub failures: Vec<FailureRecord>,
}

/// Per-task slice of the campaign's reduce phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSummary {
    /// The task id.
    pub task_id: String,
    /// Observations absorbed by the tuner.
    pub n_observations: usize,
    /// Censored (failed) observations among them.
    pub n_failures: usize,
    /// Best observed runtime (None before any successful observation).
    pub best_runtime_s: Option<f64>,
    /// Best configuration found.
    pub best_config: Option<Configuration>,
    /// Whether the task ended in the dead-letter queue.
    pub dead_lettered: bool,
}

/// The campaign's reduce phase: the fleet-level summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSummary {
    /// The job id from the spec.
    pub job_id: String,
    /// Waves completed.
    pub waves: u64,
    /// Tasks in the campaign.
    pub n_tasks: usize,
    /// Tasks that ended dead-lettered.
    pub dead_lettered: usize,
    /// Per-task results, in task order.
    pub tasks: Vec<TaskSummary>,
}

/// A checkpoint: a commit marker at a wave boundary.
///
/// The journal's `WaveCompleted` events already hold every task's
/// runhistory, so a checkpoint carries only the wave cursor. Its value is
/// the sync barrier the engine places after it: every wave before the
/// cursor is durable once the checkpoint is acked. The `checkpoint` key
/// that wraps it in `CheckpointCreated` keeps lines written by builds
/// that embedded per-task snapshots parseable (their extra fields are
/// ignored).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobCheckpoint {
    /// Next wave index to run.
    pub wave_cursor: u64,
}

/// A typed campaign state transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobEvent {
    /// Campaign began; embeds the full spec so the journal is
    /// self-contained. **Replay-authoritative.**
    JobStarted {
        /// The campaign spec.
        spec: CampaignSpec,
    },
    /// Campaign resumed from this journal (commit marker).
    JobResumed {
        /// Wave cursor after the resume.
        wave_cursor: u64,
        /// Waves re-driven from the journal's `WaveCompleted` events.
        replayed_waves: u64,
        /// Torn/corrupt journal lines skipped during the load.
        torn_lines: u64,
    },
    /// Campaign paused cleanly (commit marker, barriered durable).
    JobPaused {
        /// Wave cursor at the pause.
        wave_cursor: u64,
    },
    /// Campaign finished its reduce phase. **Replay-authoritative.**
    JobCompleted {
        /// The fleet summary.
        summary: FleetSummary,
    },
    /// A wave of per-task items committed; embeds every outcome so replay
    /// re-applies observations without re-executing. **Replay-authoritative.**
    WaveCompleted {
        /// Wave index (0-based).
        wave: u64,
        /// Per-item outcomes, in task order.
        outcomes: Vec<ItemOutcome>,
    },
    /// An item failed (observability; the authoritative record is the
    /// embedding `WaveCompleted` outcome).
    TaskFailed {
        /// Campaign task index.
        task: usize,
        /// Wave of the failure.
        wave: u64,
        /// Consecutive-failure attempt number (1-based).
        attempt: usize,
        /// Execution status label.
        status: String,
    },
    /// A failed item will be retried next wave after a recorded backoff.
    RetryScheduled {
        /// Campaign task index.
        task: usize,
        /// Wave of the failure being retried.
        wave: u64,
        /// Attempt number that failed (1-based).
        attempt: usize,
        /// Exponential backoff recorded for the retry (seconds).
        backoff_s: f64,
    },
    /// A task exceeded `max_retries` and moved to the dead-letter queue
    /// with its full failure history.
    ItemDeadLettered {
        /// The DLQ entry.
        entry: DlqEntry,
    },
    /// Checkpoint taken (commit marker, barriered durable).
    CheckpointCreated {
        /// The checkpoint.
        checkpoint: JobCheckpoint,
    },
}

impl JobEvent {
    /// Stable label for display and counting.
    pub fn label(&self) -> &'static str {
        match self {
            JobEvent::JobStarted { .. } => "JobStarted",
            JobEvent::JobResumed { .. } => "JobResumed",
            JobEvent::JobPaused { .. } => "JobPaused",
            JobEvent::JobCompleted { .. } => "JobCompleted",
            JobEvent::WaveCompleted { .. } => "WaveCompleted",
            JobEvent::TaskFailed { .. } => "TaskFailed",
            JobEvent::RetryScheduled { .. } => "RetryScheduled",
            JobEvent::ItemDeadLettered { .. } => "ItemDeadLettered",
            JobEvent::CheckpointCreated { .. } => "CheckpointCreated",
        }
    }

    /// The wave cursor a commit marker records: every wave before it was
    /// journaled earlier in the file. `None` for every other event.
    pub fn wave_cursor(&self) -> Option<u64> {
        match self {
            JobEvent::CheckpointCreated { checkpoint } => Some(checkpoint.wave_cursor),
            JobEvent::JobPaused { wave_cursor } | JobEvent::JobResumed { wave_cursor, .. } => {
                Some(*wave_cursor)
            }
            JobEvent::JobCompleted { summary } => Some(summary.waves),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            JobEvent::JobStarted {
                spec: CampaignSpec::default(),
            },
            JobEvent::JobResumed {
                wave_cursor: 3,
                replayed_waves: 1,
                torn_lines: 0,
            },
            JobEvent::JobPaused { wave_cursor: 3 },
            JobEvent::WaveCompleted {
                wave: 2,
                outcomes: vec![],
            },
            JobEvent::TaskFailed {
                task: 1,
                wave: 2,
                attempt: 1,
                status: "oom_killed".to_string(),
            },
            JobEvent::RetryScheduled {
                task: 1,
                wave: 2,
                attempt: 1,
                backoff_s: 1.0,
            },
            JobEvent::ItemDeadLettered {
                entry: DlqEntry {
                    task: 1,
                    task_id: "t".to_string(),
                    wave: 4,
                    attempts: 3,
                    failures: vec![],
                },
            },
            JobEvent::CheckpointCreated {
                checkpoint: JobCheckpoint { wave_cursor: 2 },
            },
        ];
        for (i, event) in events.into_iter().enumerate() {
            let entry = JournalEntry {
                seq: i as u64 + 1,
                event,
            };
            let line = serde_json::to_string(&entry).unwrap();
            let back: JournalEntry = serde_json::from_str(&line).unwrap();
            assert_eq!(back, entry);
        }
    }
}
