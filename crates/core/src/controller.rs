//! The OnlineTune controller (Figure 1): the multi-task tuning service.
//!
//! The controller orchestrates the request/report workflow against the
//! data platform, owns the shared [`DataRepository`] of task
//! meta-features, and wires the meta-knowledge learner into new tasks:
//! when a task registers its first event-log meta-features, the controller
//! injects warm-start configurations from the top-3 most similar previous
//! tasks (§5.2).
//!
//! Each task's tuner is the one record of its runs: it holds the
//! runhistory and announces every outcome. Successes and failures go
//! through one report routine, and meta-learning sources are exported from
//! the tuners, never from a copy of their histories.
//!
//! At fleet scale batched waves (see [`crate::fleet`]) fan per-task work
//! across a worker pool, one pool item per task: each item holds its
//! task's entry as a disjoint `&mut`, taken under `&mut self`, so no
//! worker locks anything. The task map is split into
//! [`FleetOptions::shards`] partitions by a stable hash of the task id;
//! the partition decides only where a task is stored, never how a wave
//! runs. Cross-task meta-knowledge — base-task surrogates, their sample
//! predictions and pairwise distances — lives in one fleet-wide
//! [`SharedMetaStore`] that every tuner reads it through, and the
//! similarity model `M_reg` is refit on a schedule (every `N_REFIT` = 32
//! reports, or when the eligible source-task set changes) instead of per
//! report.

use crate::fleet::{FleetOptions, FleetReport};
use crate::repository::DataRepository;
use crate::tuner::{OnlineTuner, TunerError, TunerOptions};
use otune_bo::within_constraints;
use otune_meta::{
    warm_start_configs, CorpusRecord, SharedMetaStore, SimilarityLearner, TaskRecord, TuningCorpus,
    DEFAULT_MAX_DISTANCE, DEFAULT_RETRIEVAL_K,
};
use otune_space::{ConfigSpace, Configuration};
use otune_telemetry::{metric, EventKind, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

/// Reports between scheduled similarity-model refits. The model is also
/// refit whenever the eligible source-task set changes.
const N_REFIT: usize = 32;

/// Recorded observations a task needs before it is a meta-learning source.
const MIN_SOURCE_OBSERVATIONS: usize = 3;

/// Handle identifying a registered task. Clones are reference-counted, so
/// batched fleet waves never copy the underlying id string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TaskHandle(pub Arc<str>);

impl TaskHandle {
    /// The task id.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for TaskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// How a reported run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunOutcome {
    /// The run finished; its runtime is a real measurement.
    Completed,
    /// The run was killed (OOM, timeout); its runtime is partial.
    Failed,
}

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Still exploring configurations.
    Tuning,
    /// Budget or stopping criterion reached; best config is served.
    Stopped,
}

pub(crate) struct TaskEntry {
    pub(crate) tuner: OnlineTuner,
    /// Whether warm-start injection was already attempted.
    pub(crate) warm_injected: bool,
    /// Task-labeled telemetry handle.
    pub(crate) telemetry: Telemetry,
}

/// Scheduled similarity-model state: the cached `M_reg` plus the staleness
/// bookkeeping that decides when it is retrained.
#[derive(Default)]
pub(crate) struct SimilarityState {
    pub(crate) model: Option<SimilarityLearner>,
    /// Source-task ids the model was trained on (task-id order).
    trained_on: Vec<String>,
    /// Reports absorbed since the last (re)fit.
    pub(crate) reports_since_refit: usize,
}

/// The multi-task online tuning service.
pub struct OnlineTuneController {
    pub(crate) repository: Arc<DataRepository>,
    /// Task map hashed into `fleet.shards` disjoint partitions. Batched
    /// waves take disjoint `&mut` entries out of it under `&mut self`, so
    /// nothing locks it.
    pub(crate) shards: Vec<HashMap<TaskHandle, TaskEntry>>,
    pub(crate) fleet: FleetOptions,
    /// The fleet's one memo of base-task knowledge (plus its corpus),
    /// which every task's tuner reads its ensemble bases through.
    pub(crate) shared_meta: Arc<SharedMetaStore>,
    pub(crate) sim: SimilarityState,
    /// How many similar source tasks to transfer from.
    n_warm_sources: usize,
    /// Samples per Kendall-τ label when training the similarity model.
    n_similarity_samples: usize,
    /// Root telemetry handle; tasks get labeled clones of it.
    pub(crate) telemetry: Telemetry,
}

/// FNV-1a over the task id: stable across processes, so a task always maps
/// to the same shard regardless of registration order or platform.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl OnlineTuneController {
    /// A controller with a fresh repository and fleet options from the
    /// environment (`OTUNE_SHARDS`, `OTUNE_THREADS`).
    pub fn new() -> Self {
        Self::with_options(Arc::new(DataRepository::new()), FleetOptions::from_env())
    }

    /// A controller with explicit fleet options (shard count, wave pool).
    pub fn with_options(repository: Arc<DataRepository>, fleet: FleetOptions) -> Self {
        let n_shards = fleet.shards.max(1);
        OnlineTuneController {
            repository,
            shards: (0..n_shards).map(|_| HashMap::new()).collect(),
            fleet,
            shared_meta: Arc::new(SharedMetaStore::new()),
            sim: SimilarityState::default(),
            n_warm_sources: 3,
            n_similarity_samples: 50,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; tasks created afterwards emit their
    /// events through task-labeled clones of it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        telemetry.gauge(metric::FLEET_SHARDS, self.shards.len() as f64);
        self.telemetry = telemetry;
    }

    /// The controller's telemetry handle (for snapshots and flushing).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The shared repository.
    pub fn repository(&self) -> &Arc<DataRepository> {
        &self.repository
    }

    /// The fleet-wide shared meta-knowledge store.
    pub fn shared_meta(&self) -> &Arc<SharedMetaStore> {
        &self.shared_meta
    }

    /// Attach a tuning corpus: every run a report adds to a task's history
    /// is appended to it (a killed run labelled `failed`), and
    /// [`OnlineTuneController::create_task_with_features`] retrieves its
    /// zero-execution bootstrap configurations from it.
    pub fn set_corpus(&self, corpus: TuningCorpus) {
        self.telemetry
            .gauge(metric::CORPUS_RECORDS, corpus.len() as f64);
        self.shared_meta.set_corpus(corpus);
    }

    /// The shard index a handle hashes to.
    pub(crate) fn shard_of(&self, handle: &TaskHandle) -> usize {
        (fnv1a(handle.as_str()) % self.shards.len() as u64) as usize
    }

    /// A task's entry.
    pub(crate) fn entry_mut(&mut self, handle: &TaskHandle) -> Option<&mut TaskEntry> {
        let idx = self.shard_of(handle);
        self.shards[idx].get_mut(handle)
    }

    /// Register a tuning task. Returns its handle.
    pub fn create_task(
        &mut self,
        task_id: &str,
        space: ConfigSpace,
        options: TunerOptions,
    ) -> TaskHandle {
        let handle = TaskHandle(Arc::from(task_id));
        let telemetry = self.telemetry.for_task(task_id);
        telemetry.emit(
            0,
            EventKind::TaskRegistered {
                n_params: space.len(),
            },
        );
        let mut tuner = OnlineTuner::new(space, options);
        tuner.set_telemetry(telemetry.clone());
        tuner.set_shared_meta(Arc::clone(&self.shared_meta));
        let idx = self.shard_of(&handle);
        self.shards[idx].insert(
            handle.clone(),
            TaskEntry {
                tuner,
                warm_injected: false,
                telemetry,
            },
        );
        self.telemetry
            .gauge(metric::FLEET_TASKS, self.n_tasks() as f64);
        handle
    }

    /// Register a tuning task whose meta-features are already known from a
    /// pre-existing run's event log (the manual-default calibration run),
    /// enabling a **zero-execution cold start**: before any tuned run, the
    /// attached corpus is queried by k-NN over the standardized features
    /// and the retrieved configurations replace the leading burn-in
    /// suggestions. Without a corpus (or when no neighbor clears the
    /// similarity threshold) this is exactly
    /// [`OnlineTuneController::create_task`].
    pub fn create_task_with_features(
        &mut self,
        task_id: &str,
        space: ConfigSpace,
        mut options: TunerOptions,
        meta_features: Vec<f64>,
    ) -> TaskHandle {
        let telemetry = self.telemetry.for_task(task_id);
        options.retrieval_configs = self.shared_meta.retrieval_bootstrap(
            &space,
            &meta_features,
            DEFAULT_RETRIEVAL_K,
            DEFAULT_MAX_DISTANCE,
            &telemetry,
        );
        self.repository.set_meta_features(task_id, meta_features);
        self.create_task(task_id, space, options)
    }

    /// Step 2 (Figure 1) for a **failed** execution (OOM / timeout kill):
    /// the run is recorded as a censored observation via
    /// [`OnlineTuner::observe_failed`], so the safe-region model learns
    /// from the failure without treating the partial runtime as a real
    /// measurement. An attached corpus receives the partial runtime,
    /// labelled `failed`. A stopped task records no observation.
    pub fn report_failed_result(
        &mut self,
        handle: &TaskHandle,
        config: Configuration,
        partial_runtime_s: f64,
        resource: f64,
        context: &[f64],
    ) -> Result<(), ControllerError> {
        let report = FleetReport {
            handle,
            config,
            runtime_s: partial_runtime_s,
            resource,
            context,
            meta_features: None,
        };
        self.report_one(&report, RunOutcome::Failed)
    }

    /// Number of registered tasks.
    pub fn n_tasks(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    /// A task's lifecycle state.
    pub fn state(&self, handle: &TaskHandle) -> Result<TaskState, ControllerError> {
        self.with_entry(handle, |e| {
            if e.tuner.is_stopped() {
                TaskState::Stopped
            } else {
                TaskState::Tuning
            }
        })
    }

    /// Step 1 (Figure 1): the data platform requests a configuration for
    /// the next periodic execution.
    pub fn request_config(
        &mut self,
        handle: &TaskHandle,
        context: &[f64],
    ) -> Result<Configuration, ControllerError> {
        let entry = self.entry_mut(handle).ok_or(ControllerError::UnknownTask)?;
        entry.tuner.suggest(context).map_err(ControllerError::Tuner)
    }

    /// Step 2 (Figure 1): the data platform reports the execution result.
    /// `meta_features`, when present (extracted from the run's event log),
    /// are stored and — on their first arrival — trigger warm-start
    /// injection from similar tasks.
    pub fn report_result(
        &mut self,
        handle: &TaskHandle,
        config: Configuration,
        runtime_s: f64,
        resource: f64,
        context: &[f64],
        meta_features: Option<Vec<f64>>,
    ) -> Result<(), ControllerError> {
        let report = FleetReport {
            handle,
            config,
            runtime_s,
            resource,
            context,
            meta_features,
        };
        self.report_one(&report, RunOutcome::Completed)
    }

    /// A single-item report: absorb it, count it toward the similarity
    /// refit, and run a triggered warm-start injection.
    fn report_one(
        &mut self,
        report: &FleetReport<'_>,
        outcome: RunOutcome,
    ) -> Result<(), ControllerError> {
        let repository = Arc::clone(&self.repository);
        let shared = Arc::clone(&self.shared_meta);
        let entry = self
            .entry_mut(report.handle)
            .ok_or(ControllerError::UnknownTask)?;
        let inject = Self::absorb_report(&repository, &shared, entry, report, outcome)?;
        self.sim.reports_since_refit += 1;
        if let Some(features) = inject {
            self.maybe_inject(report.handle, &features);
        }
        Ok(())
    }

    /// The per-task half of every result report: feed the tuner (which
    /// records and announces the outcome), append the run to an attached
    /// corpus, and store arriving meta-features. Returns the meta-features
    /// when this report should trigger warm-start injection (handled by the
    /// caller in a deterministic sequential phase).
    pub(crate) fn absorb_report(
        repository: &DataRepository,
        shared: &SharedMetaStore,
        entry: &mut TaskEntry,
        report: &FleetReport<'_>,
        outcome: RunOutcome,
    ) -> Result<Option<Vec<f64>>, ControllerError> {
        let tuner = &mut entry.tuner;
        let n_before = tuner.history().len();
        let config = report.config.clone();
        match outcome {
            RunOutcome::Completed => {
                tuner.observe(config, report.runtime_s, report.resource, report.context)
            }
            RunOutcome::Failed => {
                tuner.observe_failed(config, report.runtime_s, report.resource, report.context)
            }
        }
        .map_err(ControllerError::Tuner)?;
        // Only a run this report added reaches the corpus: a stopped task
        // serves its incumbent without growing its history.
        if tuner.history().len() > n_before && shared.has_corpus() {
            let features = report
                .meta_features
                .clone()
                .or_else(|| repository.meta_features(report.handle.as_str()));
            if let Some(meta_features) = features {
                let opts = tuner.options();
                let failed = outcome == RunOutcome::Failed
                    || !within_constraints(
                        report.runtime_s,
                        report.resource,
                        opts.t_max,
                        opts.r_max,
                    );
                // Best-effort: an I/O failure loses one corpus record, it
                // never fails the tuning step itself.
                let _ = shared.record_outcome(
                    CorpusRecord {
                        task_id: report.handle.as_str().to_string(),
                        meta_features,
                        config: report.config.clone(),
                        objective: tuner.objective().eval(report.runtime_s, report.resource),
                        runtime: report.runtime_s,
                        resource: report.resource,
                        failed,
                    },
                    &entry.telemetry,
                );
            }
        }
        if let Some(features) = &report.meta_features {
            repository.set_meta_features(report.handle.as_str(), features.clone());
            if !entry.warm_injected {
                entry.warm_injected = true;
                return Ok(Some(features.clone()));
            }
        }
        Ok(None)
    }

    /// The best configuration found for a task so far (`None` before the
    /// first observation).
    pub fn best_config(
        &self,
        handle: &TaskHandle,
    ) -> Result<Option<Configuration>, ControllerError> {
        self.with_entry(handle, |e| e.tuner.best().map(|o| o.config.clone()))
    }

    /// Direct access to a task's tuner (diagnostics and tests).
    pub fn tuner(&mut self, handle: &TaskHandle) -> Result<&OnlineTuner, ControllerError> {
        self.entry_mut(handle)
            .map(|e| &e.tuner)
            .ok_or(ControllerError::UnknownTask)
    }

    fn with_entry<R>(
        &self,
        handle: &TaskHandle,
        f: impl FnOnce(&TaskEntry) -> R,
    ) -> Result<R, ControllerError> {
        let idx = self.shard_of(handle);
        self.shards[idx]
            .get(handle)
            .map(f)
            .ok_or(ControllerError::UnknownTask)
    }

    /// The usable meta-learning sources: every task except `exclude` (the
    /// task being tuned) with meta-features and at least
    /// [`MIN_SOURCE_OBSERVATIONS`] recorded observations, in task-id order,
    /// exported from its tuner.
    fn source_tasks(&mut self, exclude: &str) -> Vec<TaskRecord> {
        let repository = Arc::clone(&self.repository);
        repository
            .featured_tasks()
            .into_iter()
            .filter(|id| id != exclude)
            .filter_map(|id| {
                // Count before cloning: on a fleet's first wave every task
                // reports features and none has enough history yet.
                let tuner = &self.entry_mut(&TaskHandle(Arc::from(id.as_str())))?.tuner;
                if tuner.n_recorded() < MIN_SOURCE_OBSERVATIONS {
                    return None;
                }
                Some(tuner.export_record(&id, repository.meta_features(&id)?))
            })
            .collect()
    }

    /// Retrain the similarity model if it is stale: missing, the eligible
    /// source-task set changed, or [`N_REFIT`] reports have accumulated
    /// since the last fit. Base surrogates and pairwise labels come from the
    /// shared meta store, so refits only pay for new tasks and new pairs;
    /// a base the store misses is fitted on the fleet's pool.
    pub(crate) fn refresh_similarity(&mut self, space: &ConfigSpace) {
        let sources = self.source_tasks("");
        let ids: Vec<String> = sources.iter().map(|t| t.task_id.clone()).collect();
        let fresh = self.sim.model.is_some()
            && ids == self.sim.trained_on
            && self.sim.reports_since_refit < N_REFIT;
        if fresh {
            self.telemetry.incr(metric::SIMILARITY_REUSES);
            return;
        }
        self.telemetry.incr(metric::SIMILARITY_REFITS);
        self.sim.model = SimilarityLearner::train(
            space,
            &sources,
            self.n_similarity_samples,
            0,
            &self.shared_meta,
            &self.fleet.pool,
            &self.telemetry,
        );
        self.sim.trained_on = ids;
        self.sim.reports_since_refit = 0;
    }

    /// Warm-start injection for a task that just reported its first
    /// meta-features: rank similar sources with the scheduled similarity
    /// model and hand them to the tuner via [`OnlineTuner::transfer`].
    pub(crate) fn maybe_inject(&mut self, handle: &TaskHandle, features: &[f64]) {
        let sources = self.source_tasks(handle.as_str());
        if sources.len() < 2 {
            return;
        }
        let Some(space) = self.entry_mut(handle).map(|e| e.tuner.space().clone()) else {
            return;
        };
        self.refresh_similarity(&space);
        let n_sources = self.n_warm_sources;
        let Some(model) = self.sim.model.as_ref() else {
            return;
        };
        let idx = self.shard_of(handle);
        let Some(entry) = self.shards[idx].get_mut(handle) else {
            return;
        };
        let warm = warm_start_configs(model, features, &sources, n_sources, &entry.telemetry);
        if warm.is_empty() {
            return;
        }
        entry.telemetry.emit(
            entry.tuner.history().len() as u64,
            EventKind::WarmStartInjected {
                n_configs: warm.len(),
                n_sources: n_sources.min(sources.len()),
            },
        );
        // Warm starts plus the sources as ensemble bases; the task's
        // history, spent budget and lifecycle state are kept.
        entry.tuner.transfer(warm, sources);
    }
}

impl Default for OnlineTuneController {
    fn default() -> Self {
        Self::new()
    }
}

/// Controller errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerError {
    /// The handle does not name a registered task.
    UnknownTask,
    /// Underlying tuner protocol error.
    Tuner(TunerError),
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::UnknownTask => write!(f, "unknown task"),
            ControllerError::Tuner(e) => write!(f, "tuner error: {e}"),
        }
    }
}

impl std::error::Error for ControllerError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Objective;
    use otune_space::{ConfigSpace, Parameter};

    fn toy_space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::int("n", 1, 50, 10),
            Parameter::int("m", 1, 32, 8),
        ])
    }

    fn toy_eval(c: &Configuration) -> (f64, f64) {
        let n = c[0].as_int().unwrap() as f64;
        let m = c[1].as_int().unwrap() as f64;
        (400.0 / n + 30.0 / m + 10.0, n * (1.0 + 0.5 * m))
    }

    #[test]
    fn request_report_cycle() {
        let mut ctl = OnlineTuneController::new();
        let h = ctl.create_task(
            "t1",
            toy_space(),
            TunerOptions {
                budget: 5,
                ..Default::default()
            },
        );
        assert_eq!(ctl.n_tasks(), 1);
        assert_eq!(ctl.state(&h), Ok(TaskState::Tuning));
        for _ in 0..5 {
            let cfg = ctl.request_config(&h, &[]).unwrap();
            let (rt, r) = toy_eval(&cfg);
            ctl.report_result(&h, cfg, rt, r, &[], None).unwrap();
        }
        // Budget spent: next request flips to Stopped and serves the best.
        let best_served = ctl.request_config(&h, &[]).unwrap();
        assert_eq!(ctl.state(&h), Ok(TaskState::Stopped));
        assert_eq!(Some(best_served), ctl.best_config(&h).unwrap());
        assert_eq!(ctl.tuner(&h).unwrap().history().len(), 5);
    }

    #[test]
    fn post_stop_reports_are_not_mirrored() {
        let mut ctl = OnlineTuneController::new();
        ctl.set_corpus(TuningCorpus::in_memory());
        let h = ctl.create_task_with_features(
            "t",
            toy_space(),
            TunerOptions {
                budget: 3,
                ..Default::default()
            },
            vec![1.0, 2.0],
        );
        for rt in [100.0, 50.0, 10.0] {
            let cfg = ctl.request_config(&h, &[]).unwrap();
            ctl.report_result(&h, cfg, rt, 1.0, &[], None).unwrap();
        }
        // The stopped task serves its incumbent, the last tuning run; its
        // reports must not append copies of that observation.
        let cfg = ctl.request_config(&h, &[]).unwrap();
        assert_eq!(ctl.state(&h), Ok(TaskState::Stopped));
        ctl.report_result(&h, cfg, 500.0, 1.0, &[], None).unwrap();
        let cfg = ctl.request_config(&h, &[]).unwrap();
        ctl.report_failed_result(&h, cfg, 5.0, 1.0, &[]).unwrap();
        assert_eq!(ctl.tuner(&h).unwrap().history().len(), 3);
        assert_eq!(ctl.shared_meta().corpus_len(), 3, "the 3 tuning runs");
    }

    #[test]
    fn failed_runs_reach_the_corpus_labeled_failed() {
        let dir = std::env::temp_dir().join(format!("otune-ctl-failed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.jsonl");
        let mut ctl = OnlineTuneController::new();
        ctl.set_corpus(TuningCorpus::open(&path).unwrap());
        let h = ctl.create_task_with_features(
            "t",
            toy_space(),
            TunerOptions {
                budget: 5,
                t_max: Some(100.0),
                ..Default::default()
            },
            vec![1.0, 2.0],
        );
        let cfg = ctl.request_config(&h, &[]).unwrap();
        ctl.report_result(&h, cfg, 40.0, 2.0, &[], None).unwrap();
        let killed = ctl.request_config(&h, &[]).unwrap();
        ctl.report_failed_result(&h, killed.clone(), 7.0, 3.0, &[])
            .unwrap();
        let cfg = ctl.request_config(&h, &[]).unwrap();
        ctl.report_result(&h, cfg, 30.0, 2.0, &[], None).unwrap();

        let records = TuningCorpus::open(&path).unwrap().records().to_vec();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|r| r.failed).collect::<Vec<_>>(),
            [false, true, false]
        );
        // The killed run is recorded with its partial runtime, as the CLI
        // records one.
        let rec = &records[1];
        assert_eq!(rec.config, killed);
        assert_eq!((rec.runtime, rec.resource), (7.0, 3.0));
        assert_eq!(rec.objective, Objective::new(0.5).eval(7.0, 3.0));
        assert_eq!(rec.meta_features, vec![1.0, 2.0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_task_rejected() {
        let mut ctl = OnlineTuneController::new();
        let bogus = TaskHandle("nope".into());
        assert_eq!(
            ctl.request_config(&bogus, &[]).unwrap_err(),
            ControllerError::UnknownTask
        );
        assert_eq!(ctl.state(&bogus), Err(ControllerError::UnknownTask));
        assert_eq!(ctl.best_config(&bogus), Err(ControllerError::UnknownTask));
        assert!(matches!(
            ctl.tuner(&bogus),
            Err(ControllerError::UnknownTask)
        ));
    }

    #[test]
    fn meta_features_recorded_and_warm_start_attempted() {
        let mut ctl = OnlineTuneController::new();
        // Two completed source tasks with meta-features.
        for tid in ["src-a", "src-b"] {
            let h = ctl.create_task(
                tid,
                toy_space(),
                TunerOptions {
                    budget: 8,
                    ..Default::default()
                },
            );
            for i in 0..8 {
                let cfg = ctl.request_config(&h, &[]).unwrap();
                let (rt, r) = toy_eval(&cfg);
                let features = if i == 0 {
                    Some(vec![1.0, 2.0, 3.0])
                } else {
                    None
                };
                ctl.report_result(&h, cfg, rt, r, &[], features).unwrap();
            }
        }
        // A new task reporting meta-features triggers the transfer path.
        let h = ctl.create_task(
            "new",
            toy_space(),
            TunerOptions {
                budget: 8,
                ..Default::default()
            },
        );
        let cfg = ctl.request_config(&h, &[]).unwrap();
        let (rt, r) = toy_eval(&cfg);
        ctl.report_result(&h, cfg, rt, r, &[], Some(vec![1.0, 2.0, 3.1]))
            .unwrap();
        // Tuning continues normally afterwards.
        for _ in 0..3 {
            let cfg = ctl.request_config(&h, &[]).unwrap();
            let (rt, r) = toy_eval(&cfg);
            ctl.report_result(&h, cfg, rt, r, &[], None).unwrap();
        }
        assert!(ctl.best_config(&h).unwrap().is_some());
        assert_eq!(ctl.tuner(&h).unwrap().history().len(), 4);
        assert_eq!(
            ctl.repository().meta_features("new"),
            Some(vec![1.0, 2.0, 3.1])
        );
    }

    /// A controller holding two completed 8-run source tasks with
    /// meta-features, so a task reporting features triggers injection.
    fn controller_with_sources() -> OnlineTuneController {
        let mut ctl = OnlineTuneController::new();
        for (tid, f) in [("src-a", 1.0), ("src-b", 2.0)] {
            let h = ctl.create_task(
                tid,
                toy_space(),
                TunerOptions {
                    budget: 8,
                    ..Default::default()
                },
            );
            drive(&mut ctl, &h, 8, Some(vec![f, 2.0, 3.0]));
        }
        ctl
    }

    /// Request/report cycles until the task serves a stopped config (or
    /// `cap` cycles); returns how many tuning runs it made.
    fn tuning_runs(ctl: &mut OnlineTuneController, h: &TaskHandle, cap: usize) -> usize {
        let mut runs = 0;
        for _ in 0..cap {
            let cfg = ctl.request_config(h, &[]).unwrap();
            if ctl.state(h) == Ok(TaskState::Stopped) {
                let (rt, r) = toy_eval(&cfg);
                ctl.report_result(h, cfg, rt, r, &[], None).unwrap();
                break;
            }
            let (rt, r) = toy_eval(&cfg);
            ctl.report_result(h, cfg, rt, r, &[], None).unwrap();
            runs += 1;
        }
        runs
    }

    #[test]
    fn injection_does_not_grant_extra_tuning_runs() {
        let mut ctl = controller_with_sources();
        let h = ctl.create_task(
            "new",
            toy_space(),
            TunerOptions {
                budget: 4,
                ..Default::default()
            },
        );
        // The first result carries meta-features and triggers injection.
        let cfg = ctl.request_config(&h, &[]).unwrap();
        let (rt, r) = toy_eval(&cfg);
        ctl.report_result(&h, cfg, rt, r, &[], Some(vec![1.5, 2.0, 3.0]))
            .unwrap();
        let opts = ctl.tuner(&h).unwrap().options();
        assert!(!opts.warm_configs.is_empty(), "injection fired");
        assert_eq!(opts.base_tasks.len(), 2);
        // The injected run counts toward the budget: 1 + 3 = 4 runs.
        assert_eq!(tuning_runs(&mut ctl, &h, 10), 3);
        assert_eq!(ctl.state(&h), Ok(TaskState::Stopped));
        assert_eq!(ctl.tuner(&h).unwrap().history().len(), 4);
    }

    #[test]
    fn injection_after_stopping_keeps_the_task_stopped() {
        let mut ctl = controller_with_sources();
        let h = ctl.create_task(
            "late",
            toy_space(),
            TunerOptions {
                budget: 3,
                ..Default::default()
            },
        );
        assert_eq!(tuning_runs(&mut ctl, &h, 10), 3);
        assert_eq!(ctl.state(&h), Ok(TaskState::Stopped));
        // Features arrive with the 5th report, after the task stopped.
        let cfg = ctl.request_config(&h, &[]).unwrap();
        let (rt, r) = toy_eval(&cfg);
        ctl.report_result(&h, cfg, rt, r, &[], Some(vec![1.5, 2.0, 3.0]))
            .unwrap();
        assert!(!ctl.tuner(&h).unwrap().options().warm_configs.is_empty());
        assert_eq!(ctl.state(&h), Ok(TaskState::Stopped));
        assert_eq!(tuning_runs(&mut ctl, &h, 3), 0);
        assert_eq!(ctl.tuner(&h).unwrap().history().len(), 3);
    }

    #[test]
    fn multiple_tasks_are_independent() {
        let mut ctl = OnlineTuneController::new();
        let h1 = ctl.create_task(
            "a",
            toy_space(),
            TunerOptions {
                budget: 3,
                ..Default::default()
            },
        );
        let h2 = ctl.create_task(
            "b",
            toy_space(),
            TunerOptions {
                budget: 3,
                ..Default::default()
            },
        );
        let c1 = ctl.request_config(&h1, &[]).unwrap();
        let c2 = ctl.request_config(&h2, &[]).unwrap();
        let (rt1, r1) = toy_eval(&c1);
        let (rt2, r2) = toy_eval(&c2);
        ctl.report_result(&h1, c1, rt1, r1, &[], None).unwrap();
        ctl.report_result(&h2, c2, rt2, r2, &[], None).unwrap();
        assert_eq!(ctl.tuner(&h1).unwrap().history().len(), 1);
        assert_eq!(ctl.tuner(&h2).unwrap().history().len(), 1);
    }

    #[test]
    fn sources_are_exported_from_tuners_across_restarts() {
        let mut ctl = OnlineTuneController::new();
        let opts = TunerOptions {
            budget: 4,
            ..Default::default()
        };
        // `src-a` runs its 4 periods, then degrades 3 times in a row after
        // stopping (a §3.3 restart) and runs 2 periods of the new round.
        let a = ctl.create_task("src-a", toy_space(), opts.clone());
        drive(&mut ctl, &a, 4, Some(vec![1.0, 2.0, 3.0]));
        for _ in 0..3 {
            let cfg = ctl.request_config(&a, &[]).unwrap();
            assert_eq!(ctl.state(&a), Ok(TaskState::Stopped));
            ctl.report_result(&a, cfg, 1e6, 1e6, &[], None).unwrap();
        }
        assert_eq!(ctl.tuner(&a).unwrap().restarts(), 1);
        drive(&mut ctl, &a, 2, None);
        assert_eq!(ctl.tuner(&a).unwrap().history().len(), 2);
        let b = ctl.create_task("src-b", toy_space(), opts.clone());
        drive(&mut ctl, &b, 4, Some(vec![2.0, 2.0, 3.0]));
        // Too short a history, or no meta-features: not sources.
        let short = ctl.create_task("short", toy_space(), opts.clone());
        drive(&mut ctl, &short, 2, Some(vec![1.5, 2.0, 3.0]));
        let bare = ctl.create_task("featureless", toy_space(), opts.clone());
        drive(&mut ctl, &bare, 4, None);

        let h = ctl.create_task("new", toy_space(), opts);
        drive(&mut ctl, &h, 1, Some(vec![1.2, 2.0, 3.0]));
        let a_history = ctl.tuner(&a).unwrap().history().to_vec();
        let b_history = ctl.tuner(&b).unwrap().history().to_vec();
        let bases = &ctl.tuner(&h).unwrap().options().base_tasks;
        let ids: Vec<&str> = bases.iter().map(|t| t.task_id.as_str()).collect();
        assert_eq!(ids, ["src-a", "src-b"]);
        // Both rounds of `src-a`, in the order they ran.
        let a_obs = &bases[0].observations;
        assert_eq!(a_obs.len(), 6);
        assert_eq!(a_obs[4..], a_history);
        assert_eq!(bases[0].meta_features, vec![1.0, 2.0, 3.0]);
        assert_eq!(bases[1].observations, b_history);
    }

    /// Drive `n` budget-4 iterations of a task, reporting `features` with
    /// the first result, and return the suggestion trace.
    fn drive(
        ctl: &mut OnlineTuneController,
        h: &TaskHandle,
        n: usize,
        features: Option<Vec<f64>>,
    ) -> Vec<Configuration> {
        let mut trace = Vec::new();
        for i in 0..n {
            let cfg = ctl.request_config(h, &[]).unwrap();
            let (rt, r) = toy_eval(&cfg);
            let f = if i == 0 { features.clone() } else { None };
            ctl.report_result(h, cfg.clone(), rt, r, &[], f).unwrap();
            trace.push(cfg);
        }
        trace
    }

    #[test]
    fn corpus_records_reports_and_bootstraps_cold_tasks() {
        let (tm, _sink) = otune_telemetry::Telemetry::ring(256);
        let mut ctl = OnlineTuneController::new();
        ctl.set_telemetry(tm);
        ctl.set_corpus(otune_meta::TuningCorpus::in_memory());
        let opts = TunerOptions {
            budget: 4,
            ..Default::default()
        };
        // Two source tasks feed the corpus: the first report carries the
        // meta-features, later ones find them in the repository.
        for (tid, f) in [("src-a", 0.0), ("src-b", 4.0)] {
            let h = ctl.create_task(tid, toy_space(), opts.clone());
            drive(&mut ctl, &h, 4, Some(vec![f, f + 1.0]));
        }
        assert_eq!(ctl.shared_meta().corpus_len(), 8);
        // A cold task with pre-known features gets a retrieval bootstrap.
        let h = ctl.create_task_with_features("cold", toy_space(), opts, vec![0.1, 1.1]);
        let first = ctl.request_config(&h, &[]).unwrap();
        let snap = ctl.telemetry().snapshot().unwrap();
        assert_eq!(snap.counters[metric::RETRIEVAL_HITS], 1);
        assert_eq!(snap.gauges[metric::CORPUS_RECORDS], 8.0);
        let (rt, r) = toy_eval(&first);
        ctl.report_result(&h, first, rt, r, &[], None).unwrap();
        // Cold-task reports are appended too (features known up front).
        assert_eq!(ctl.shared_meta().corpus_len(), 9);
    }

    #[test]
    fn attached_corpus_alone_never_changes_suggestions() {
        // With retrieval unused (plain create_task), a controller with a
        // corpus attached must suggest exactly what a corpus-free
        // controller does: recording outcomes is write-only.
        let opts = TunerOptions {
            budget: 6,
            ..Default::default()
        };
        let mut plain = OnlineTuneController::new();
        let hp = plain.create_task("t", toy_space(), opts.clone());
        let reference = drive(&mut plain, &hp, 6, Some(vec![1.0, 2.0]));

        let mut recording = OnlineTuneController::new();
        recording.set_corpus(otune_meta::TuningCorpus::in_memory());
        let hr = recording.create_task("t", toy_space(), opts);
        let observed = drive(&mut recording, &hr, 6, Some(vec![1.0, 2.0]));
        assert_eq!(observed, reference);
        assert_eq!(recording.shared_meta().corpus_len(), 6);
        assert_eq!(plain.shared_meta().corpus_len(), 0);
    }

    #[test]
    fn shard_assignment_is_deterministic() {
        let repo = Arc::new(DataRepository::new());
        let mut ctl = OnlineTuneController::with_options(
            repo,
            FleetOptions {
                shards: 4,
                ..FleetOptions::default()
            },
        );
        let handles: Vec<TaskHandle> = (0..16)
            .map(|i| {
                ctl.create_task(
                    &format!("task-{i}"),
                    toy_space(),
                    TunerOptions {
                        budget: 2,
                        ..Default::default()
                    },
                )
            })
            .collect();
        assert_eq!(ctl.n_tasks(), 16);
        // Same id, same shard — and every task is findable.
        for h in &handles {
            let a = ctl.shard_of(h);
            let b = ctl.shard_of(&TaskHandle(Arc::from(h.as_str())));
            assert_eq!(a, b);
            assert!(ctl.state(h).is_ok());
        }
        // Shards partition the fleet: each task sits in the shard its id
        // hashes to, and nowhere else.
        for h in &handles {
            let home = ctl.shard_of(h);
            for (i, shard) in ctl.shards.iter().enumerate() {
                assert_eq!(shard.contains_key(h), i == home, "{h} in shard {i}");
            }
        }
    }
}
