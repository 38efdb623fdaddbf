//! The event-sourced job engine.
//!
//! A campaign is a **map phase** of per-task suggest/observe waves over
//! the fleet controller followed by a **reduce phase** producing the
//! fleet summary. Every state transition is journaled; periodic
//! checkpoints are barriered commit markers; `open` rebuilds the
//! campaign from the spec and re-drives every journaled wave through the
//! real suggest path, verifying bitwise identity against the recorded
//! outcomes.
//!
//! Failure policy: a failed run (OOM / timeout kill) is reported to the
//! tuner as a **censored observation** and appended to the task's
//! consecutive-failure ledger. While the ledger is shorter than
//! `max_retries` the task is retried next wave (with a fresh suggestion,
//! after a recorded exponential backoff); at `max_retries` consecutive
//! failures the task moves to the dead-letter queue with its full
//! failure history and the rest of the campaign proceeds.

use crate::event::{
    DlqEntry, FailureRecord, FleetSummary, ItemOutcome, JobCheckpoint, JobEvent, JournalEntry,
    TaskSummary,
};
use crate::journal::Journal;
use crate::spec::CampaignSpec;
use otune_core::tuner::check_measurement;
use otune_core::{
    ControllerError, FleetOptions, FleetRequest, OnlineTuneController, TaskHandle, TunerOptions,
};
use otune_space::{spark_space, ClusterScale, ConfigSpace, Configuration};
use otune_sparksim::{
    hibench_task, ClusterSpec, ExecutionStatus, FaultProfile, HibenchTask, ScriptedFault, SimJob,
};
use otune_telemetry::{metric, EventKind, SyncPolicy, Telemetry};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Environment variable for crash injection: `wave:N` aborts the process
/// (kill -9 semantics, no destructors) right after the `WaveCompleted`
/// append for wave `N` commits; `checkpoint:N` after the checkpoint
/// marker with wave cursor `N` is barriered durable; `append:N` after the
/// `N`-th journal append of the process (1-based — under a lazy sync
/// policy the append may still be unsynced, so the crash loses it);
/// `fsync:N` right after the journal's `N`-th completed `sync_data`.
pub const CRASH_ENV: &str = "OTUNE_CRASH_AT";

const NO_CONTEXT: &[f64] = &[];

/// A crash-injection point parsed from [`CRASH_ENV`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashPoint {
    Wave(u64),
    Checkpoint(u64),
    Append(u64),
    Fsync(u64),
}

fn crash_point_from_env() -> Option<CrashPoint> {
    let spec = std::env::var(CRASH_ENV).ok()?;
    let (kind, n) = spec.split_once(':')?;
    let n = n.trim().parse().ok()?;
    match kind.trim() {
        "wave" => Some(CrashPoint::Wave(n)),
        "checkpoint" => Some(CrashPoint::Checkpoint(n)),
        "append" => Some(CrashPoint::Append(n)),
        "fsync" => Some(CrashPoint::Fsync(n)),
        _ => None,
    }
}

/// One suggested item of an in-flight wave.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PendingItem {
    /// Campaign task index.
    pub task: usize,
    /// The task id.
    pub task_id: String,
    /// The suggested configuration to execute.
    pub config: Configuration,
}

/// A suggested-but-unreported wave. Cached by the engine so repeated
/// `suggest` calls are idempotent until the wave is reported.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PendingWave {
    /// Wave index (0-based).
    pub wave: u64,
    /// Items awaiting execution, in task order.
    pub items: Vec<PendingItem>,
}

/// An executed item's result, reported back to the engine (by the
/// internal simulator or an external driver over stdin).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemResult {
    /// Campaign task index (must match a pending item).
    pub task: usize,
    /// Observed runtime in seconds (partial runtime for failed runs).
    pub runtime_s: f64,
    /// Observed resource cost.
    pub resource: f64,
    /// Execution status label (`success`, `oom_killed`, `straggler`,
    /// `lost_executor`, `timeout_killed`).
    pub status: String,
}

impl ItemResult {
    /// Whether this status censors the observation (OOM / timeout kill).
    pub fn is_failure(&self) -> bool {
        matches!(self.status.as_str(), "oom_killed" | "timeout_killed")
    }

    /// Reject a result the campaign could not apply or journal exactly:
    /// the status must be an [`ExecutionStatus::label`], and runtime and
    /// resource must pass [`check_measurement`] (finite; `> 0`, or
    /// `>= 0` for a killed run).
    pub fn validate(&self) -> Result<(), JobError> {
        let invalid = |field, value| JobError::InvalidResult {
            task: self.task,
            field,
            value,
        };
        if !ExecutionStatus::LABELS.contains(&self.status.as_str()) {
            return Err(invalid("status", format!("{:?}", self.status)));
        }
        for (field, value) in [("runtime_s", self.runtime_s), ("resource", self.resource)] {
            check_measurement(field, value, self.is_failure())
                .map_err(|_| invalid(field, value.to_string()))?;
        }
        Ok(())
    }
}

/// Job engine errors.
#[derive(Debug)]
pub enum JobError {
    /// Journal or filesystem error.
    Io(std::io::Error),
    /// Fleet controller rejected a request or report.
    Controller(ControllerError),
    /// The spec's fault DSL failed to parse.
    BadFaultSpec(String),
    /// The journal has no `JobStarted` event to resume from.
    NoJobStarted,
    /// `report_wave` called without a suggested wave in flight.
    NoPendingWave,
    /// A pending item has no result in the reported batch.
    IncompleteReport {
        /// The uncovered task index.
        task: usize,
    },
    /// A reported result names a task not in the pending wave.
    UnknownReportTask {
        /// The unexpected task index.
        task: usize,
    },
    /// The reported batch names a task more than once. Nothing was
    /// applied; the wave stays pending.
    DuplicateReportTask {
        /// The task index reported twice.
        task: usize,
    },
    /// A reported result carries a value the tuner cannot learn from or
    /// the journal cannot store (see [`ItemResult::validate`]). Nothing
    /// was applied; the wave stays pending.
    InvalidResult {
        /// The reporting task index.
        task: usize,
        /// `status`, `runtime_s` or `resource`.
        field: &'static str,
        /// The offending value as reported.
        value: String,
    },
    /// Replay regenerated a different outcome than the journal recorded.
    ReplayDivergence {
        /// Wave the divergence occurred in.
        wave: u64,
        /// Task index of the diverging item.
        task: usize,
    },
    /// The journal skips a wave (interior corruption beyond repair, or a
    /// journal whose early waves were cut away): a `WaveCompleted` or
    /// commit marker names a later wave than replay has reached.
    ReplayGap {
        /// The wave replay expected next.
        expected: u64,
        /// The wave (or commit-marker cursor) the journal recorded instead.
        found: u64,
    },
}

impl From<std::io::Error> for JobError {
    fn from(e: std::io::Error) -> Self {
        JobError::Io(e)
    }
}

impl From<ControllerError> for JobError {
    fn from(e: ControllerError) -> Self {
        JobError::Controller(e)
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Io(e) => write!(f, "journal I/O error: {e}"),
            JobError::Controller(e) => write!(f, "controller error: {e}"),
            JobError::BadFaultSpec(e) => write!(f, "bad fault spec: {e}"),
            JobError::NoJobStarted => write!(f, "journal has no JobStarted event"),
            JobError::NoPendingWave => write!(f, "no suggested wave to report against"),
            JobError::IncompleteReport { task } => {
                write!(f, "report batch misses pending task {task}")
            }
            JobError::UnknownReportTask { task } => {
                write!(f, "report names task {task} with no pending item")
            }
            JobError::DuplicateReportTask { task } => {
                write!(f, "report names task {task} more than once")
            }
            JobError::InvalidResult { task, field, value } => {
                write!(f, "report for task {task} has unusable {field} {value}")
            }
            JobError::ReplayDivergence { wave, task } => {
                write!(f, "replay diverged at wave {wave}, task {task}")
            }
            JobError::ReplayGap { expected, found } => {
                write!(f, "journal skips wave {expected} (found {found})")
            }
        }
    }
}

impl std::error::Error for JobError {}

struct TaskRuntime {
    task_id: String,
    handle: TaskHandle,
    job: SimJob,
    ledger: Vec<FailureRecord>,
    dead: bool,
}

struct TaskSetup {
    task_id: String,
    space: ConfigSpace,
    options: TunerOptions,
    job: SimJob,
}

/// The resumable campaign engine.
pub struct JobEngine {
    spec: CampaignSpec,
    journal: Journal,
    seq: u64,
    appends: u64,
    ctl: OnlineTuneController,
    tasks: Vec<TaskRuntime>,
    wave_cursor: u64,
    dlq: Vec<DlqEntry>,
    completed: bool,
    summary: Option<FleetSummary>,
    pending: Option<PendingWave>,
    telemetry: Telemetry,
    crash: Option<CrashPoint>,
}

impl JobEngine {
    /// Start a fresh campaign: build the controller and tasks from the
    /// spec and journal `JobStarted` (embedding the spec, so the journal
    /// alone suffices to resume).
    pub fn start(
        spec: CampaignSpec,
        journal_path: &Path,
        telemetry: Telemetry,
    ) -> Result<JobEngine, JobError> {
        Self::start_with(spec, journal_path, telemetry, SyncPolicy::from_env())
    }

    /// [`JobEngine::start`] with an explicit journal sync policy instead
    /// of the `OTUNE_JOURNAL_SYNC` environment default.
    pub fn start_with(
        spec: CampaignSpec,
        journal_path: &Path,
        telemetry: Telemetry,
        policy: SyncPolicy,
    ) -> Result<JobEngine, JobError> {
        let journal = Journal::open_with(journal_path, policy)?;
        let mut engine = Self::build(spec, journal, telemetry)?;
        engine.telemetry.emit(
            0,
            EventKind::JobStarted {
                n_tasks: engine.tasks.len(),
                budget: engine.spec.budget,
            },
        );
        engine.append_event(JobEvent::JobStarted {
            spec: engine.spec.clone(),
        })?;
        Ok(engine)
    }

    /// Resume a campaign from its journal: rebuild every task from the
    /// journaled spec, as [`JobEngine::start`] does, then re-drive every
    /// journaled wave through the real suggest path — erroring on any
    /// divergence from the recorded outcomes, and on any wave or commit
    /// marker that skips ahead of the waves replayed before it. Torn
    /// journal lines are skipped, counted, and surfaced via the
    /// `journal_torn_tails` counter and the `JobResumed` event.
    pub fn open(journal_path: &Path, telemetry: Telemetry) -> Result<JobEngine, JobError> {
        Self::open_with(journal_path, telemetry, SyncPolicy::from_env())
    }

    /// [`JobEngine::open`] with an explicit journal sync policy instead
    /// of the `OTUNE_JOURNAL_SYNC` environment default.
    pub fn open_with(
        journal_path: &Path,
        telemetry: Telemetry,
        policy: SyncPolicy,
    ) -> Result<JobEngine, JobError> {
        let load = Journal::load(journal_path)?;
        if load.torn_lines > 0 {
            telemetry.add(metric::JOURNAL_TORN_TAILS, load.torn_lines);
        }
        let spec = load
            .entries
            .iter()
            .find_map(|e| match &e.event {
                JobEvent::JobStarted { spec } => Some(spec.clone()),
                _ => None,
            })
            .ok_or(JobError::NoJobStarted)?;

        let journal = Journal::open_with(journal_path, policy)?;
        let mut engine = Self::build(spec, journal, telemetry)?;
        engine.seq = load.entries.iter().map(|e| e.seq).max().unwrap_or(0);

        // Re-drive every journaled wave from genesis through the real
        // suggest path, verifying recorded outcomes bit for bit. Ledgers,
        // dead flags and the DLQ rebuild as a side effect.
        let mut replayed = 0u64;
        for entry in &load.entries {
            match &entry.event {
                JobEvent::WaveCompleted { wave, outcomes } => {
                    if *wave < engine.wave_cursor {
                        continue;
                    }
                    if *wave > engine.wave_cursor {
                        return Err(JobError::ReplayGap {
                            expected: engine.wave_cursor,
                            found: *wave,
                        });
                    }
                    engine.replay_wave(*wave, outcomes)?;
                    replayed += 1;
                }
                event => {
                    if let Some(cursor) = event.wave_cursor().filter(|&c| c > engine.wave_cursor) {
                        return Err(JobError::ReplayGap {
                            expected: engine.wave_cursor,
                            found: cursor,
                        });
                    }
                    if let JobEvent::JobCompleted { summary } = event {
                        engine.summary = Some(summary.clone());
                        engine.completed = true;
                    }
                }
            }
        }

        engine.telemetry.incr(metric::JOB_RESUMES);
        engine.telemetry.emit(
            engine.wave_cursor,
            EventKind::JobResumed {
                wave_cursor: engine.wave_cursor,
                replayed_waves: replayed,
                torn_lines: load.torn_lines,
            },
        );
        engine.append_event(JobEvent::JobResumed {
            wave_cursor: engine.wave_cursor,
            replayed_waves: replayed,
            torn_lines: load.torn_lines,
        })?;
        Ok(engine)
    }

    /// Resume if the journal already holds a campaign, start fresh
    /// otherwise, syncing journal appends under `policy`. On resume the
    /// journaled spec wins over `spec`.
    pub fn open_or_start_with(
        spec: CampaignSpec,
        journal_path: &Path,
        telemetry: Telemetry,
        policy: SyncPolicy,
    ) -> Result<JobEngine, JobError> {
        let has_job = Journal::load(journal_path)?
            .entries
            .iter()
            .any(|e| matches!(e.event, JobEvent::JobStarted { .. }));
        if has_job {
            Self::open_with(journal_path, telemetry, policy)
        } else {
            Self::start_with(spec, journal_path, telemetry, policy)
        }
    }

    /// The engine at wave 0: controller, journal and every task created
    /// from the spec. Both a fresh start and a resume begin here.
    fn build(
        spec: CampaignSpec,
        mut journal: Journal,
        telemetry: Telemetry,
    ) -> Result<Self, JobError> {
        let mut ctl = OnlineTuneController::with_options(
            std::sync::Arc::new(otune_core::DataRepository::new()),
            FleetOptions::from_env(),
        );
        ctl.set_telemetry(telemetry.clone());
        journal.set_telemetry(telemetry.clone());
        let crash = crash_point_from_env();
        if let Some(CrashPoint::Fsync(n)) = crash {
            journal.arm_crash_at_fsync(n);
        }
        let tasks = Self::plan_tasks(&spec)?
            .into_iter()
            .map(|setup| TaskRuntime {
                handle: ctl.create_task(&setup.task_id, setup.space, setup.options),
                task_id: setup.task_id,
                job: setup.job,
                ledger: Vec::new(),
                dead: false,
            })
            .collect();
        Ok(JobEngine {
            spec,
            journal,
            seq: 0,
            appends: 0,
            ctl,
            tasks,
            wave_cursor: 0,
            dlq: Vec::new(),
            completed: false,
            summary: None,
            pending: None,
            telemetry,
            crash,
        })
    }

    /// Deterministically plan the campaign's tasks from the spec: the
    /// first `n_tasks` HiBench workloads, each with a derived seed, a
    /// safety threshold from the fault-free calibration run (run index 0,
    /// reserved), and the spec's fault schedule attached.
    fn plan_tasks(spec: &CampaignSpec) -> Result<Vec<TaskSetup>, JobError> {
        let space = spark_space(ClusterScale::hibench());
        let suite = HibenchTask::all();
        let n = spec.n_tasks.min(suite.len());
        let mut setups = Vec::with_capacity(n);
        for (i, task) in suite.iter().take(n).enumerate() {
            let task_seed = spec.seed + i as u64;
            let mut job =
                SimJob::new(ClusterSpec::hibench(), hibench_task(*task)).with_seed(task_seed);
            // Calibrate T_max on the fault-free default run; wave `w`
            // executes as run index `w + 1`.
            let baseline = job.run(&space.default_configuration(), 0);
            let t_max = spec.t_max_factor * baseline.runtime_s;
            let scripted: Vec<ScriptedFault> = spec
                .scripted_faults
                .iter()
                .filter(|f| f.task == i)
                .map(|f| ScriptedFault {
                    run: f.wave + 1,
                    kind: f.kind,
                })
                .collect();
            if spec.fault_spec.is_some() || !scripted.is_empty() {
                let mut profile = match &spec.fault_spec {
                    Some(dsl) => FaultProfile::parse(dsl).map_err(JobError::BadFaultSpec)?,
                    None => FaultProfile::new(0),
                };
                profile.seed ^= task_seed;
                profile.t_max_s = profile.t_max_s.or(Some(t_max));
                profile.scripted.extend(scripted);
                job = job.with_faults(profile);
            }
            let options = TunerOptions {
                beta: spec.beta,
                t_max: Some(t_max),
                budget: spec.budget,
                enable_meta: false,
                seed: task_seed,
                ..TunerOptions::default()
            };
            setups.push(TaskSetup {
                task_id: format!("{}-{i}", task.name()),
                space: space.clone(),
                options,
                job,
            });
        }
        Ok(setups)
    }

    fn append_event(&mut self, event: JobEvent) -> Result<(), JobError> {
        self.seq += 1;
        let entry = JournalEntry {
            seq: self.seq,
            event,
        };
        let bytes = self.journal.append(&entry)? as u64;
        self.appends += 1;
        // Durability-critical events get a sync barrier regardless of
        // the group-commit policy: an acked checkpoint (and the spec, a
        // pause, the final summary) must survive kill -9. Under the
        // default `every` policy the append already fsynced, so the
        // barrier is free and the fsync cadence is unchanged.
        match &entry.event {
            JobEvent::JobStarted { .. }
            | JobEvent::JobPaused { .. }
            | JobEvent::JobCompleted { .. } => self.journal.barrier()?,
            JobEvent::CheckpointCreated { .. } => {
                self.journal.barrier()?;
                self.telemetry.add(metric::CHECKPOINT_FULL_BYTES, bytes);
            }
            _ => {}
        }
        if let Some(point) = self.crash {
            let fire = match point {
                CrashPoint::Append(n) => self.appends == n,
                CrashPoint::Wave(w) => {
                    matches!(&entry.event, JobEvent::WaveCompleted { wave, .. } if *wave == w)
                }
                CrashPoint::Checkpoint(c) => matches!(
                    &entry.event,
                    JobEvent::CheckpointCreated { checkpoint } if checkpoint.wave_cursor == c
                ),
                // Fired from inside the journal's sync path.
                CrashPoint::Fsync(_) => false,
            };
            if fire {
                // kill -9 semantics: no destructors, no unwinding — the
                // barriered entry above is the last durable byte, and a
                // lazily-synced append may not have reached the disk at
                // all (resume re-drives the lost wave).
                std::process::abort();
            }
        }
        Ok(())
    }

    /// Suggest the next wave (idempotent until reported): one fresh
    /// configuration per live task via the fleet's batched suggest path.
    /// Returns `None` when the campaign is over (budget exhausted or all
    /// tasks dead-lettered), completing the job if needed.
    pub fn suggest_wave(&mut self) -> Result<Option<&PendingWave>, JobError> {
        if self.completed {
            return Ok(None);
        }
        if self.wave_cursor >= self.spec.budget as u64 {
            self.complete()?;
            return Ok(None);
        }
        if self.pending.is_some() {
            return Ok(self.pending.as_ref());
        }
        let alive: Vec<usize> = (0..self.tasks.len())
            .filter(|&i| !self.tasks[i].dead)
            .collect();
        if alive.is_empty() {
            self.complete()?;
            return Ok(None);
        }
        let requests: Vec<FleetRequest<'_>> = alive
            .iter()
            .map(|&i| FleetRequest {
                handle: &self.tasks[i].handle,
                context: NO_CONTEXT,
            })
            .collect();
        let configs = self.ctl.request_configs(&requests);
        let mut items = Vec::with_capacity(alive.len());
        for (&i, config) in alive.iter().zip(configs) {
            items.push(PendingItem {
                task: i,
                task_id: self.tasks[i].task_id.clone(),
                config: config?,
            });
        }
        self.pending = Some(PendingWave {
            wave: self.wave_cursor,
            items,
        });
        Ok(self.pending.as_ref())
    }

    /// Execute the pending wave on the internal simulator (wave `w` runs
    /// as SimJob run index `w + 1`; faults fire per the spec's schedule).
    pub fn execute_pending(&mut self) -> Result<Vec<ItemResult>, JobError> {
        let pending = self.pending.as_ref().ok_or(JobError::NoPendingWave)?;
        let run_index = pending.wave + 1;
        Ok(pending
            .items
            .iter()
            .map(|item| {
                let r = self.tasks[item.task].job.run(&item.config, run_index);
                ItemResult {
                    task: item.task,
                    runtime_s: r.runtime_s,
                    resource: r.resource,
                    status: r.status.label().to_string(),
                }
            })
            .collect())
    }

    /// Report a wave's results. The batch must cover every pending item
    /// exactly once, and every result must pass [`ItemResult::validate`];
    /// a rejected batch changes nothing and leaves the wave pending, so the
    /// caller can resend it. Observations are fed to the tuners (censored for
    /// failed runs), the retry/DLQ policy is applied, and the wave commits
    /// with a `WaveCompleted` journal append; a periodic checkpoint and/or
    /// the job's completion follow per the spec.
    pub fn report_wave(&mut self, results: &[ItemResult]) -> Result<u64, JobError> {
        let pending = self.pending.take().ok_or(JobError::NoPendingWave)?;
        for (k, r) in results.iter().enumerate() {
            if !pending.items.iter().any(|it| it.task == r.task) {
                self.pending = Some(pending);
                return Err(JobError::UnknownReportTask { task: r.task });
            }
            if results[..k].iter().any(|earlier| earlier.task == r.task) {
                self.pending = Some(pending);
                return Err(JobError::DuplicateReportTask { task: r.task });
            }
            if let Err(e) = r.validate() {
                self.pending = Some(pending);
                return Err(e);
            }
        }
        let mut batch = Vec::with_capacity(pending.items.len());
        for item in &pending.items {
            match results.iter().find(|r| r.task == item.task) {
                Some(r) => batch.push(r.clone()),
                None => {
                    let task = item.task;
                    self.pending = Some(pending);
                    return Err(JobError::IncompleteReport { task });
                }
            }
        }
        let wave = pending.wave;
        let outcomes = self.apply_results(wave, &pending.items, &batch, true)?;
        let n_failed = outcomes.iter().filter(|o| o.failed).count();
        self.telemetry.incr(metric::JOB_WAVES);
        self.telemetry.emit(
            wave,
            EventKind::WaveCompleted {
                wave,
                n_success: outcomes.len() - n_failed,
                n_failed,
            },
        );
        self.wave_cursor = wave + 1;
        self.append_event(JobEvent::WaveCompleted { wave, outcomes })?;
        let cadence = self.spec.checkpoint_every;
        if cadence > 0 && self.wave_cursor.is_multiple_of(cadence) && !self.campaign_over() {
            self.checkpoint()?;
        }
        if self.campaign_over() {
            self.complete()?;
        }
        Ok(wave)
    }

    fn campaign_over(&self) -> bool {
        self.wave_cursor >= self.spec.budget as u64 || self.tasks.iter().all(|t| t.dead)
    }

    /// Apply one wave of results to the campaign state: feed tuners,
    /// maintain failure ledgers, schedule retries, dead-letter tasks.
    /// When `journaling`, the observability events (`TaskFailed`,
    /// `RetryScheduled`, `ItemDeadLettered`) are appended and telemetry
    /// counters bumped; replay passes `false` and appends nothing.
    fn apply_results(
        &mut self,
        wave: u64,
        items: &[PendingItem],
        results: &[ItemResult],
        journaling: bool,
    ) -> Result<Vec<ItemOutcome>, JobError> {
        debug_assert_eq!(items.len(), results.len());
        let mut outcomes = Vec::with_capacity(items.len());
        for (item, result) in items.iter().zip(results) {
            let i = item.task;
            let handle = self.tasks[i].handle.clone();
            let failed = result.is_failure();
            let (attempt, dead_lettered) = if failed {
                self.ctl.report_failed_result(
                    &handle,
                    item.config.clone(),
                    result.runtime_s,
                    result.resource,
                    NO_CONTEXT,
                )?;
                let attempt = self.tasks[i].ledger.len() + 1;
                let backoff_s = self.spec.backoff_s(attempt);
                self.tasks[i].ledger.push(FailureRecord {
                    wave,
                    attempt,
                    partial_runtime_s: result.runtime_s,
                    resource: result.resource,
                    status: result.status.clone(),
                    backoff_s,
                });
                if journaling {
                    // The tuner already emitted `RunFailed` telemetry from
                    // `observe_failed`; here we only journal the transition.
                    self.append_event(JobEvent::TaskFailed {
                        task: i,
                        wave,
                        attempt,
                        status: result.status.clone(),
                    })?;
                }
                if attempt >= self.spec.max_retries {
                    self.tasks[i].dead = true;
                    let entry = DlqEntry {
                        task: i,
                        task_id: self.tasks[i].task_id.clone(),
                        wave,
                        attempts: attempt,
                        failures: self.tasks[i].ledger.clone(),
                    };
                    self.dlq.push(entry.clone());
                    if journaling {
                        self.telemetry.incr(metric::JOB_DEAD_LETTERS);
                        self.telemetry.emit(
                            wave,
                            EventKind::ItemDeadLettered {
                                wave,
                                attempts: attempt,
                            },
                        );
                        self.append_event(JobEvent::ItemDeadLettered { entry })?;
                    }
                    (attempt, true)
                } else {
                    if journaling {
                        self.telemetry.incr(metric::JOB_RETRIES);
                        self.telemetry
                            .emit(wave, EventKind::RetryScheduled { attempt, backoff_s });
                        self.append_event(JobEvent::RetryScheduled {
                            task: i,
                            wave,
                            attempt,
                            backoff_s,
                        })?;
                    }
                    (attempt, false)
                }
            } else {
                self.ctl.report_result(
                    &handle,
                    item.config.clone(),
                    result.runtime_s,
                    result.resource,
                    NO_CONTEXT,
                    None,
                )?;
                self.tasks[i].ledger.clear();
                (0, false)
            };
            outcomes.push(ItemOutcome {
                task: i,
                config: item.config.clone(),
                runtime_s: result.runtime_s,
                resource: result.resource,
                failed,
                status: result.status.clone(),
                attempt,
                dead_lettered,
            });
        }
        Ok(outcomes)
    }

    /// Re-drive one journaled wave: regenerate the suggestions through
    /// the real suggest path and verify every recorded outcome — config,
    /// attempt count, DLQ decision — reproduces exactly.
    fn replay_wave(&mut self, wave: u64, recorded: &[ItemOutcome]) -> Result<(), JobError> {
        let alive: Vec<usize> = (0..self.tasks.len())
            .filter(|&i| !self.tasks[i].dead)
            .collect();
        if alive.len() != recorded.len() || alive.iter().zip(recorded).any(|(&i, o)| i != o.task) {
            let task = recorded.first().map(|o| o.task).unwrap_or(0);
            return Err(JobError::ReplayDivergence { wave, task });
        }
        let requests: Vec<FleetRequest<'_>> = alive
            .iter()
            .map(|&i| FleetRequest {
                handle: &self.tasks[i].handle,
                context: NO_CONTEXT,
            })
            .collect();
        let configs = self.ctl.request_configs(&requests);
        let mut items = Vec::with_capacity(alive.len());
        for ((&i, config), outcome) in alive.iter().zip(configs).zip(recorded) {
            let config = config?;
            if config != outcome.config {
                return Err(JobError::ReplayDivergence { wave, task: i });
            }
            items.push(PendingItem {
                task: i,
                task_id: self.tasks[i].task_id.clone(),
                config,
            });
        }
        let results: Vec<ItemResult> = recorded
            .iter()
            .map(|o| ItemResult {
                task: o.task,
                runtime_s: o.runtime_s,
                resource: o.resource,
                status: o.status.clone(),
            })
            .collect();
        let replayed = self.apply_results(wave, &items, &results, false)?;
        for (new, old) in replayed.iter().zip(recorded) {
            if new != old {
                return Err(JobError::ReplayDivergence {
                    wave,
                    task: new.task,
                });
            }
        }
        self.wave_cursor = wave + 1;
        Ok(())
    }

    /// Run one full wave internally: suggest, simulate, report. Returns
    /// the wave index, or `None` when the campaign is over.
    pub fn run_wave(&mut self) -> Result<Option<u64>, JobError> {
        if self.suggest_wave()?.is_none() {
            return Ok(None);
        }
        let results = self.execute_pending()?;
        self.report_wave(&results).map(Some)
    }

    /// Drive the campaign to completion on the internal simulator.
    pub fn run_to_completion(&mut self) -> Result<&FleetSummary, JobError> {
        while self.run_wave()?.is_some() {}
        if !self.completed {
            self.complete()?;
        }
        Ok(self
            .summary
            .as_ref()
            .expect("completed campaign has summary"))
    }

    /// Journal a checkpoint: a `CheckpointCreated` commit marker at the
    /// wave cursor, followed by a sync barrier, so every wave before it
    /// survives `kill -9` under every sync policy.
    pub fn checkpoint(&mut self) -> Result<(), JobError> {
        self.telemetry.incr(metric::JOB_CHECKPOINTS);
        self.telemetry.emit(
            self.wave_cursor,
            EventKind::CheckpointCreated {
                wave_cursor: self.wave_cursor,
            },
        );
        self.append_event(JobEvent::CheckpointCreated {
            checkpoint: JobCheckpoint {
                wave_cursor: self.wave_cursor,
            },
        })
    }

    /// Pause cleanly: journal `JobPaused`, a barriered commit marker. A
    /// later `open` replays the journal and resumes at this wave.
    pub fn pause(&mut self) -> Result<(), JobError> {
        self.telemetry.emit(
            self.wave_cursor,
            EventKind::JobPaused {
                wave_cursor: self.wave_cursor,
            },
        );
        self.append_event(JobEvent::JobPaused {
            wave_cursor: self.wave_cursor,
        })
    }

    fn complete(&mut self) -> Result<(), JobError> {
        if self.completed {
            return Ok(());
        }
        let summary = self.build_summary()?;
        self.telemetry.emit(
            self.wave_cursor,
            EventKind::JobCompleted {
                waves: self.wave_cursor,
                dead_lettered: summary.dead_lettered,
            },
        );
        self.append_event(JobEvent::JobCompleted {
            summary: summary.clone(),
        })?;
        self.summary = Some(summary);
        self.completed = true;
        Ok(())
    }

    /// The reduce phase: fold every task's tuner state into the fleet
    /// summary (best incumbents, failure counts, DLQ membership).
    pub fn build_summary(&self) -> Result<FleetSummary, JobError> {
        let mut tasks = Vec::with_capacity(self.tasks.len());
        for task in &self.tasks {
            let tuner = self.ctl.tuner(&task.handle)?;
            let history = tuner.history();
            let best = tuner.best();
            tasks.push(TaskSummary {
                task_id: task.task_id.clone(),
                n_observations: history.len(),
                n_failures: history.iter().filter(|o| o.failed).count(),
                best_runtime_s: best.map(|o| o.runtime),
                best_config: best.map(|o| o.config.clone()),
                dead_lettered: task.dead,
            });
        }
        Ok(FleetSummary {
            job_id: self.spec.job_id.clone(),
            waves: self.wave_cursor,
            n_tasks: self.tasks.len(),
            dead_lettered: self.dlq.len(),
            tasks,
        })
    }

    /// The campaign spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Next wave index to run.
    pub fn wave_cursor(&self) -> u64 {
        self.wave_cursor
    }

    /// Whether the campaign has completed its reduce phase.
    pub fn is_completed(&self) -> bool {
        self.completed
    }

    /// The fleet summary (present once completed).
    pub fn summary(&self) -> Option<&FleetSummary> {
        self.summary.as_ref()
    }

    /// The dead-letter queue.
    pub fn dlq(&self) -> &[DlqEntry] {
        &self.dlq
    }

    /// The in-flight suggested wave, if any.
    pub fn pending(&self) -> Option<&PendingWave> {
        self.pending.as_ref()
    }

    /// Number of campaign tasks.
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// A task's id.
    pub fn task_id(&self, task: usize) -> &str {
        &self.tasks[task].task_id
    }

    /// A task's full suggestion trace: the configurations it observed, in
    /// order (golden-trace identity checks key on this).
    pub fn suggestion_trace(&self, task: usize) -> Result<Vec<Configuration>, JobError> {
        let tuner = self.ctl.tuner(&self.tasks[task].handle)?;
        Ok(tuner.history().iter().map(|o| o.config.clone()).collect())
    }

    /// The engine's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}
