//! The typed event model: everything notable that happens inside the
//! tuning service, serializable as one JSON object per event.

use serde::{Deserialize, Serialize};

/// One telemetry event, stamped with its task and position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// The tuning task the event belongs to.
    pub task: String,
    /// Monotonic sequence number across all tasks sharing a handle;
    /// total order of the event stream.
    pub seq: u64,
    /// Tuning iteration the event occurred in (0 for lifecycle events
    /// preceding the first iteration).
    pub iteration: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Provenance of a suggested configuration: which mechanism produced it.
/// The generator tags every suggestion with it, the tuner reports it in
/// `SuggestionMade`, and the Figure 8/9 ablations count by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuggestionKind {
    /// Transferred from a similar task (§5.2).
    WarmStart,
    /// Zero-execution corpus retrieval: a distance-weighted blend of the
    /// nearest corpus neighbors' best configurations.
    Retrieval,
    /// Low-discrepancy initial design (§3.3).
    InitialDesign,
    /// Approximate gradient descent step (§4.3).
    Agd,
    /// EIC maximization over the safe sub-space.
    Bo,
    /// Conservative fallback: an empty candidate set after filtering, a
    /// failure streak, or a stopped task serving its incumbent.
    Fallback,
}

/// Which way a sub-space resize moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResizeDirection {
    /// `K` increased (consecutive successes widen the search).
    Grow,
    /// `K` decreased (consecutive failures focus the search).
    Shrink,
}

/// Why a task stopped tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The iteration budget is exhausted.
    BudgetExhausted,
    /// Expected improvement fell below the stopping threshold.
    EiConverged,
}

/// The event vocabulary of the tuning service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A task registered with the controller.
    TaskRegistered {
        /// Size of the task's configuration space.
        n_params: usize,
    },
    /// Warm-start configurations were injected from similar tasks.
    WarmStartInjected {
        /// How many configurations were transferred.
        n_configs: usize,
        /// How many source tasks they came from.
        n_sources: usize,
    },
    /// The generator produced a suggestion.
    SuggestionMade {
        /// Which mechanism produced it.
        source: SuggestionKind,
        /// EIC value at the choice (0 for non-BO sources).
        eic: f64,
        /// Whether the choice came from inside the GP safe region.
        in_safe_region: bool,
    },
    /// An execution result was reported back.
    ObservationReported {
        /// Measured runtime in seconds.
        runtime: f64,
        /// Measured resource consumption.
        resource: f64,
        /// Combined objective value.
        objective: f64,
        /// Whether the run violated `T_max`/`R_max`.
        constraint_violated: bool,
    },
    /// The adaptive sub-space changed size.
    SubspaceResized {
        /// The new size `K`.
        k: usize,
        /// Which way it moved.
        direction: ResizeDirection,
    },
    /// An AGD step was proposed (and either taken or vetoed).
    AgdStep {
        /// Whether the proposal survived the safety/descent checks.
        accepted: bool,
    },
    /// A surrogate model was (re)fitted.
    SurrogateFitted {
        /// Which model ("runtime_gp", "objective_gp", ...).
        model: String,
        /// Observations it was fitted on.
        n_obs: usize,
    },
    /// The task stopped tuning and now serves its incumbent.
    TaskStopped {
        /// Why it stopped.
        reason: StopReason,
    },
    /// A production run failed (OOM, `T_max` kill) and was recorded as a
    /// censored observation.
    RunFailed {
        /// Partial runtime reported by the platform, in seconds.
        partial_runtime: f64,
        /// The censored (penalty) runtime recorded in the history.
        censored_runtime: f64,
        /// Length of the current consecutive-failure streak.
        streak: usize,
    },
    /// `τ_consec` consecutive failures: the tuner retreats to the last
    /// known-safe configuration.
    FallbackTriggered {
        /// The streak length that tripped the fallback.
        streak: usize,
    },
    /// A tuning campaign started under the job engine.
    JobStarted {
        /// Tasks registered in the campaign.
        n_tasks: usize,
        /// Waves the campaign will run.
        budget: usize,
    },
    /// A tuning campaign was reconstructed from its journal.
    JobResumed {
        /// Wave the campaign resumed at.
        wave_cursor: u64,
        /// Completed waves re-driven from journal events.
        replayed_waves: u64,
        /// Torn or corrupt journal lines skipped during the load.
        torn_lines: u64,
    },
    /// A tuning campaign paused cleanly (checkpoint written).
    JobPaused {
        /// Wave the campaign paused at.
        wave_cursor: u64,
    },
    /// A tuning campaign finished its reduce phase.
    JobCompleted {
        /// Waves the campaign ran.
        waves: u64,
        /// Tasks that ended in the dead-letter queue.
        dead_lettered: usize,
    },
    /// The job engine completed one map-phase wave.
    WaveCompleted {
        /// The wave index (0-based).
        wave: u64,
        /// Runs that completed cleanly.
        n_success: usize,
        /// Runs that failed (OOM, `T_max` kill).
        n_failed: usize,
    },
    /// A failed task execution was scheduled for retry.
    RetryScheduled {
        /// Consecutive-failure attempt number (1-based).
        attempt: usize,
        /// Exponential-backoff delay recorded for the retry, seconds.
        backoff_s: f64,
    },
    /// A task exhausted `max_retries` and moved to the dead-letter queue.
    ItemDeadLettered {
        /// The wave the final failure happened in.
        wave: u64,
        /// Consecutive failed attempts accumulated.
        attempts: usize,
    },
    /// A campaign checkpoint (commit marker) was appended to the job
    /// journal.
    CheckpointCreated {
        /// Wave cursor the checkpoint commits.
        wave_cursor: u64,
    },
    /// A hierarchical trace span closed. Identity fields are
    /// deterministic (seeded, never wall-clock-derived); `worker`,
    /// `start_ns`, and `dur_ns` are measurements.
    SpanClosed {
        /// Trace the span belongs to.
        trace_id: u64,
        /// This span's deterministic id.
        span_id: u64,
        /// Parent span id (0 for trace roots).
        parent_id: u64,
        /// Phase name (e.g. `suggest`, `chol_factor`).
        name: String,
        /// Dense id of the thread that ran the span.
        worker: u64,
        /// Start, nanoseconds since the pipeline's trace epoch.
        start_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
}

impl EventKind {
    /// A short stable label for filtering (`otune events --kind`).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::TaskRegistered { .. } => "TaskRegistered",
            EventKind::WarmStartInjected { .. } => "WarmStartInjected",
            EventKind::SuggestionMade { .. } => "SuggestionMade",
            EventKind::ObservationReported { .. } => "ObservationReported",
            EventKind::SubspaceResized { .. } => "SubspaceResized",
            EventKind::AgdStep { .. } => "AgdStep",
            EventKind::SurrogateFitted { .. } => "SurrogateFitted",
            EventKind::TaskStopped { .. } => "TaskStopped",
            EventKind::RunFailed { .. } => "RunFailed",
            EventKind::FallbackTriggered { .. } => "FallbackTriggered",
            EventKind::JobStarted { .. } => "JobStarted",
            EventKind::JobResumed { .. } => "JobResumed",
            EventKind::JobPaused { .. } => "JobPaused",
            EventKind::JobCompleted { .. } => "JobCompleted",
            EventKind::WaveCompleted { .. } => "WaveCompleted",
            EventKind::RetryScheduled { .. } => "RetryScheduled",
            EventKind::ItemDeadLettered { .. } => "ItemDeadLettered",
            EventKind::CheckpointCreated { .. } => "CheckpointCreated",
            EventKind::SpanClosed { .. } => "SpanClosed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                task: "t".into(),
                seq: 0,
                iteration: 0,
                kind: EventKind::TaskRegistered { n_params: 30 },
            },
            Event {
                task: "t".into(),
                seq: 1,
                iteration: 0,
                kind: EventKind::WarmStartInjected {
                    n_configs: 3,
                    n_sources: 2,
                },
            },
            Event {
                task: "t".into(),
                seq: 2,
                iteration: 4,
                kind: EventKind::SuggestionMade {
                    source: SuggestionKind::InitialDesign,
                    eic: 0.0,
                    in_safe_region: true,
                },
            },
            Event {
                task: "t".into(),
                seq: 3,
                iteration: 4,
                kind: EventKind::ObservationReported {
                    runtime: 120.5,
                    resource: 800.0,
                    objective: 310.4,
                    constraint_violated: false,
                },
            },
            Event {
                task: "t".into(),
                seq: 4,
                iteration: 5,
                kind: EventKind::SubspaceResized {
                    k: 12,
                    direction: ResizeDirection::Grow,
                },
            },
            Event {
                task: "t".into(),
                seq: 5,
                iteration: 9,
                kind: EventKind::AgdStep { accepted: false },
            },
            Event {
                task: "t".into(),
                seq: 6,
                iteration: 9,
                kind: EventKind::SurrogateFitted {
                    model: "runtime_gp".into(),
                    n_obs: 9,
                },
            },
            Event {
                task: "t".into(),
                seq: 7,
                iteration: 20,
                kind: EventKind::TaskStopped {
                    reason: StopReason::BudgetExhausted,
                },
            },
            Event {
                task: "t".into(),
                seq: 8,
                iteration: 11,
                kind: EventKind::RunFailed {
                    partial_runtime: 55.0,
                    censored_runtime: 240.0,
                    streak: 2,
                },
            },
            Event {
                task: "t".into(),
                seq: 9,
                iteration: 12,
                kind: EventKind::FallbackTriggered { streak: 3 },
            },
            Event {
                task: "job".into(),
                seq: 10,
                iteration: 0,
                kind: EventKind::JobStarted {
                    n_tasks: 8,
                    budget: 12,
                },
            },
            Event {
                task: "job".into(),
                seq: 11,
                iteration: 0,
                kind: EventKind::JobResumed {
                    wave_cursor: 4,
                    replayed_waves: 2,
                    torn_lines: 1,
                },
            },
            Event {
                task: "job".into(),
                seq: 12,
                iteration: 0,
                kind: EventKind::JobPaused { wave_cursor: 6 },
            },
            Event {
                task: "job".into(),
                seq: 13,
                iteration: 0,
                kind: EventKind::JobCompleted {
                    waves: 12,
                    dead_lettered: 1,
                },
            },
            Event {
                task: "job".into(),
                seq: 14,
                iteration: 3,
                kind: EventKind::WaveCompleted {
                    wave: 3,
                    n_success: 7,
                    n_failed: 1,
                },
            },
            Event {
                task: "t".into(),
                seq: 15,
                iteration: 3,
                kind: EventKind::RetryScheduled {
                    attempt: 2,
                    backoff_s: 2.0,
                },
            },
            Event {
                task: "t".into(),
                seq: 16,
                iteration: 5,
                kind: EventKind::ItemDeadLettered {
                    wave: 5,
                    attempts: 3,
                },
            },
            Event {
                task: "job".into(),
                seq: 17,
                iteration: 4,
                kind: EventKind::CheckpointCreated { wave_cursor: 4 },
            },
            Event {
                task: "t".into(),
                seq: 18,
                iteration: 14,
                kind: EventKind::SpanClosed {
                    trace_id: 0xdead_beef,
                    span_id: 42,
                    parent_id: 0,
                    name: "suggest".into(),
                    worker: 1,
                    start_ns: 1_000,
                    dur_ns: 110_000_000,
                },
            },
        ]
    }

    #[test]
    fn every_kind_round_trips_through_json() {
        for event in sample_events() {
            let line = serde_json::to_string(&event).unwrap();
            let back: Event = serde_json::from_str(&line).unwrap();
            assert_eq!(back, event, "round trip failed for {line}");
        }
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = sample_events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            labels,
            vec![
                "TaskRegistered",
                "WarmStartInjected",
                "SuggestionMade",
                "ObservationReported",
                "SubspaceResized",
                "AgdStep",
                "SurrogateFitted",
                "TaskStopped",
                "RunFailed",
                "FallbackTriggered",
                "JobStarted",
                "JobResumed",
                "JobPaused",
                "JobCompleted",
                "WaveCompleted",
                "RetryScheduled",
                "ItemDeadLettered",
                "CheckpointCreated",
                "SpanClosed",
            ]
        );
    }

    #[test]
    fn json_layout_is_externally_tagged() {
        let event = &sample_events()[2];
        let line = serde_json::to_string(event).unwrap();
        assert!(line.contains("\"SuggestionMade\""), "{line}");
        assert!(
            line.contains("\"source\": \"InitialDesign\"")
                || line.contains("\"source\":\"InitialDesign\""),
            "{line}"
        );
    }
}
