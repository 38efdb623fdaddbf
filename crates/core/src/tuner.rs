//! The single-task online tuner: the iterative workflow of §3.1 for one
//! periodic Spark job, including the stopping and restarting criteria.

use crate::generator::{ConfigGenerator, Suggestion};
use crate::objective::Objective;
use otune_bo::{
    best_observation, history_fingerprint, usable_measurement, within_constraints, Observation,
    SubspaceParams, SurrogateInput,
};
use otune_gp::IncrementalPolicy;
use otune_meta::{BaseTask, EnsembleSurrogate, MetaCache, TaskRecord};
use otune_pool::Pool;
use otune_space::{ConfigSpace, Configuration};
use otune_telemetry::{metric, EventKind, StopReason, SuggestionKind, Telemetry};
use std::borrow::Cow;
use std::sync::Arc;

/// Restart tuning after this many consecutive post-tuning runs that
/// degrade (§3.3): a failed run, or an objective above
/// [`DEGRADATION_FACTOR`] × the expected (best) value.
const RESTART_AFTER: usize = 3;

/// Degradation multiplier that counts a post-tuning run as degraded.
const DEGRADATION_FACTOR: f64 = 1.5;

/// After this many *consecutive* failed runs the tuner falls back to the
/// last known-safe configuration for one period.
const TAU_CONSEC: usize = 3;

/// Censoring multiplier for failed runs: the recorded runtime is
/// `FAILURE_PENALTY × T_max` (or × the worst runtime seen when `T_max` is
/// unset), keeping the safe-region GP pessimistic about the failing region
/// without feeding it the unknowable true runtime.
const FAILURE_PENALTY: f64 = 2.0;

/// Options for one tuning task. `Default` gives the paper's settings with
/// the cost objective and no constraints.
#[derive(Debug, Clone)]
pub struct TunerOptions {
    /// Objective exponent β (Eq. 1).
    pub beta: f64,
    /// Maximum tolerated runtime `T_max` (None disables).
    pub t_max: Option<f64>,
    /// Maximum tolerated resource `R_max` (None disables).
    pub r_max: Option<f64>,
    /// Tuning budget in iterations; afterwards the best configuration is
    /// returned unchanged.
    pub budget: usize,
    /// Initial-design size.
    pub n_init: usize,
    /// AGD cadence (0 disables).
    pub n_agd: usize,
    /// Gate the safe-region filter (Figure 8 ablation).
    pub enable_safety: bool,
    /// Gate adaptive sub-space generation (Figure 7 ablation).
    pub enable_subspace: bool,
    /// Gate the meta-learning ensemble surrogate (Figure 6 ablation).
    pub enable_meta: bool,
    /// Warm-start configurations (from §5.2's similarity ranking).
    pub warm_configs: Vec<Configuration>,
    /// Corpus-retrieved zero-execution bootstrap configurations: when
    /// non-empty they replace low-discrepancy burn-in points `0..len`.
    /// Empty (the default) keeps every suggestion bitwise-identical to
    /// the retrieval-free tuner.
    pub retrieval_configs: Vec<Configuration>,
    /// Previous-task records feeding the ensemble surrogate.
    pub base_tasks: Vec<TaskRecord>,
    /// Stop when EIC falls below this fraction of the incumbent objective
    /// (§3.3's stopping criterion; 0 disables).
    pub ei_stop_ratio: f64,
    /// Sub-space evolution parameters (`None` = paper defaults for the
    /// space's parameter count).
    pub subspace: Option<SubspaceParams>,
    /// Surrogate maintenance across iterations (rank-one factor updates,
    /// warm-started hyperparameter re-searches, fit caches).
    pub incremental: IncrementalPolicy,
    /// Seed for all randomized components.
    pub seed: u64,
    /// Worker pool for every map the tuner runs: surrogate fitting (the
    /// meta ensemble's target fits included), acquisition maximization,
    /// fANOVA forest growing, and the fits of base tasks its ensemble
    /// builds miss in their store. Defaults to [`Pool::from_env`]
    /// (`OTUNE_THREADS` or the machine's parallelism); suggestions are
    /// bitwise-identical for every pool width.
    pub pool: Pool,
}

impl Default for TunerOptions {
    fn default() -> Self {
        TunerOptions {
            beta: 0.5,
            t_max: None,
            r_max: None,
            budget: 20,
            n_init: 3,
            n_agd: 5,
            enable_safety: true,
            enable_subspace: true,
            enable_meta: true,
            warm_configs: Vec::new(),
            retrieval_configs: Vec::new(),
            base_tasks: Vec::new(),
            ei_stop_ratio: 0.0,
            subspace: None,
            incremental: IncrementalPolicy::default(),
            seed: 0,
            pool: Pool::from_env(),
        }
    }
}

/// Errors surfaced by the tuner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TunerError {
    /// `suggest` was called twice without an intervening `observe`.
    PendingObservation,
    /// `observe` did not match a pending suggestion.
    NoPendingSuggestion,
    /// `observe` reported a configuration that differs from the pending
    /// suggestion. The pending suggestion stays pending; the report is
    /// rejected instead of poisoning the runhistory (or panicking).
    SuggestionMismatch,
    /// A reported measurement is unusable (see [`check_measurement`]).
    /// The report is rejected before anything is recorded and the
    /// suggestion stays pending.
    InvalidMeasurement {
        /// `runtime_s`, `resource` or `context`.
        field: &'static str,
        /// The offending value as reported (`inf`, `NaN`, `-5`, …).
        value: String,
    },
}

/// Check one measurement reported for a run against
/// [`usable_measurement`]: finite, and `> 0` — or `>= 0` for a killed
/// run (`failed`). Anything else would be silently turned into the best
/// or an unreadable observation.
pub fn check_measurement(field: &'static str, value: f64, failed: bool) -> Result<(), TunerError> {
    if usable_measurement(value, failed) {
        Ok(())
    } else {
        Err(TunerError::InvalidMeasurement {
            field,
            value: value.to_string(),
        })
    }
}

/// Check a whole report: runtime and resource per [`check_measurement`],
/// and every context value finite.
fn check_report(
    runtime_s: f64,
    resource: f64,
    context: &[f64],
    failed: bool,
) -> Result<(), TunerError> {
    check_measurement("runtime_s", runtime_s, failed)?;
    check_measurement("resource", resource, failed)?;
    match context.iter().find(|v| !v.is_finite()) {
        Some(v) => Err(TunerError::InvalidMeasurement {
            field: "context",
            value: v.to_string(),
        }),
        None => Ok(()),
    }
}

impl std::fmt::Display for TunerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TunerError::PendingObservation => {
                write!(f, "a suggestion is pending; call observe() first")
            }
            TunerError::NoPendingSuggestion => write!(f, "no suggestion pending"),
            TunerError::SuggestionMismatch => {
                write!(
                    f,
                    "observed configuration does not match the pending suggestion"
                )
            }
            TunerError::InvalidMeasurement { field, value } => {
                write!(f, "unusable measurement: {field} = {value}")
            }
        }
    }
}

impl std::error::Error for TunerError {}

/// The online tuner for one periodic Spark job.
///
/// Lifecycle per period: [`OnlineTuner::suggest`] → run the job with the
/// returned configuration → [`OnlineTuner::observe`] the metrics. After the
/// budget (or the EI stopping criterion) the tuner keeps returning the
/// best configuration found; if post-tuning executions degrade persistently
/// it restarts tuning, transferring its own history via the meta ensemble
/// (§3.3 "Stopping & Restarting Criterion").
pub struct OnlineTuner {
    space: ConfigSpace,
    opts: TunerOptions,
    generator: ConfigGenerator,
    /// The analytic resource function the tuner was built with; every
    /// rebuilt generator reuses it.
    resource_fn: Arc<dyn Fn(&Configuration) -> f64 + Send + Sync>,
    objective: Objective,
    history: Vec<Observation>,
    pending: Option<Suggestion>,
    stopped: bool,
    /// Consecutive failed runs in the current tuning round.
    failure_streak: usize,
    /// Consecutive degraded post-tuning runs.
    degraded_streak: usize,
    /// Number of restarts performed.
    restarts: usize,
    /// Extra base tasks accumulated from restarts.
    own_records: Vec<TaskRecord>,
    /// Iterations consumed in the current tuning round.
    round_iterations: usize,
    /// Cross-iteration caches for the meta ensemble: the store of
    /// base-task surrogates (the tuner's own, or the fleet's), the
    /// incremental target surrogate and the weight-fold memo.
    meta_cache: MetaCache,
    /// Log-space history fingerprints of `opts.base_tasks ++ own_records`,
    /// taken at the first ensemble build after either list changes
    /// (construction or restart); `None` until then.
    base_fps: Option<Vec<u64>>,
    /// Observability handle (disabled by default).
    telemetry: Telemetry,
}

impl OnlineTuner {
    /// Create a tuner over the given space. The analytic resource function
    /// is derived from the well-known Spark parameters when present, else
    /// it falls back to a constant (runtime-only tuning).
    pub fn new(space: ConfigSpace, opts: TunerOptions) -> Self {
        let resource_fn = crate::objective::resource_fn_for(&space);
        Self::with_resource_fn(space, opts, resource_fn)
    }

    /// Create a tuner with an explicit analytic resource function.
    pub fn with_resource_fn(
        space: ConfigSpace,
        opts: TunerOptions,
        resource_fn: Arc<dyn Fn(&Configuration) -> f64 + Send + Sync>,
    ) -> Self {
        let generator = Self::make_generator(&space, &opts, Arc::clone(&resource_fn));
        OnlineTuner {
            objective: Objective::new(opts.beta),
            generator,
            resource_fn,
            space,
            meta_cache: MetaCache::new(opts.incremental, opts.pool.clone()),
            base_fps: None,
            opts,
            history: Vec::new(),
            pending: None,
            stopped: false,
            failure_streak: 0,
            degraded_streak: 0,
            restarts: 0,
            own_records: Vec::new(),
            round_iterations: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; the tuner (and its generator) emit
    /// events and metrics through it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.generator.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Read base-task knowledge through a fleet-wide
    /// [`SharedMetaStore`](otune_meta::SharedMetaStore) instead of the
    /// tuner's own: base-task surrogate fits are deduped across all tasks
    /// sharing the store, without changing any suggestion (fits are pure
    /// functions of their key).
    pub fn set_shared_meta(&mut self, store: Arc<otune_meta::SharedMetaStore>) {
        self.meta_cache.set_shared(store);
    }

    fn make_generator(
        space: &ConfigSpace,
        opts: &TunerOptions,
        resource_fn: Arc<dyn Fn(&Configuration) -> f64 + Send + Sync>,
    ) -> ConfigGenerator {
        let ranking = if space.len() == 30 {
            otune_bo::subspace::spark_expert_ranking()
        } else {
            (0..space.len()).collect()
        };
        ConfigGenerator::new(space.clone(), opts, ranking, resource_fn)
    }

    /// The configuration space.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// The tuner's options.
    pub fn options(&self) -> &TunerOptions {
        &self.opts
    }

    /// The runhistory so far.
    pub fn history(&self) -> &[Observation] {
        &self.history
    }

    /// Whether tuning has stopped (budget or EI criterion).
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Number of restarts triggered by degradation detection.
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// The objective definition.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Best (feasible-first) observation so far.
    pub fn best(&self) -> Option<&Observation> {
        best_observation(&self.history, self.opts.t_max, self.opts.r_max)
    }

    /// The configuration for the next periodic execution (Step 1 of
    /// Figure 1). While tuning: the generator's next suggestion. After
    /// stopping: the best configuration found.
    pub fn suggest(&mut self, context: &[f64]) -> Result<Configuration, TunerError> {
        if self.pending.is_some() {
            return Err(TunerError::PendingObservation);
        }
        if self.stopped || self.round_iterations >= self.opts.budget {
            if !self.stopped {
                self.telemetry.emit(
                    self.round_iterations as u64,
                    EventKind::TaskStopped {
                        reason: StopReason::BudgetExhausted,
                    },
                );
            }
            self.stopped = true;
            let best = self
                .best()
                .map(|o| o.config.clone())
                .unwrap_or_else(|| self.space.default_configuration());
            self.pending = Some(Suggestion {
                config: best.clone(),
                source: SuggestionKind::Fallback,
                eic: 0.0,
                from_safe_region: true,
            });
            return Ok(best);
        }

        // Failure-streak fallback (§3.2's safety stance under failing
        // production runs): after `τ_consec` consecutive failures, retreat
        // to the last known-safe configuration for one period. The
        // sub-space has already been shrunk by the failures themselves
        // (each failed run counts as a TuRBO failure via infeasibility).
        if self.failure_streak >= TAU_CONSEC {
            let streak = self.failure_streak;
            self.failure_streak = 0;
            self.telemetry.incr(metric::FALLBACKS_TRIGGERED);
            self.telemetry.emit(
                self.round_iterations as u64,
                EventKind::FallbackTriggered { streak },
            );
            let config = self.last_known_safe();
            self.pending = Some(Suggestion {
                config: config.clone(),
                source: SuggestionKind::Fallback,
                eic: 0.0,
                from_safe_region: true,
            });
            return Ok(config);
        }

        let trace = self.telemetry.trace_span("suggest");
        // With a retrieval bootstrap attached, burn-in iterations skip
        // building the meta ensemble entirely — the initial design never
        // consults it, and deferring the base-surrogate fits is where the
        // cold-start speedup comes from. Without retrieval the build
        // stays unconditional so the retrieval-off path is untouched.
        let skip_ensemble = !self.opts.retrieval_configs.is_empty()
            && self
                .generator
                .in_initial_design(&self.opts, self.history.len());
        let ensemble = if skip_ensemble {
            None
        } else {
            self.build_ensemble()
        };
        let suggestion = {
            let _span = self.telemetry.span(metric::SUGGEST_LATENCY_S);
            self.generator.suggest(
                &self.opts,
                &self.history,
                context,
                ensemble.as_ref().map(|e| e as &dyn otune_bo::Predictor),
            )
        };
        trace.finish();
        self.telemetry.emit(
            self.round_iterations as u64,
            EventKind::SuggestionMade {
                source: suggestion.source,
                eic: suggestion.eic,
                in_safe_region: suggestion.from_safe_region,
            },
        );
        let pool_stats = self.opts.pool.stats();
        self.telemetry
            .gauge(metric::POOL_THREADS, self.opts.pool.threads() as f64);
        self.telemetry
            .gauge(metric::POOL_PARALLEL_MAPS, pool_stats.parallel_maps as f64);
        self.telemetry.gauge(
            metric::POOL_PARALLEL_TASKS,
            pool_stats.parallel_tasks as f64,
        );

        // Stopping criterion: negligible expected improvement (§3.3).
        if self.opts.ei_stop_ratio > 0.0
            && matches!(suggestion.source, SuggestionKind::Bo)
            && self.round_iterations > self.opts.n_init + 2
        {
            if let Some(best_cfg) = self.best().map(|b| b.config.clone()) {
                // EIC is computed on the log objective, so it directly
                // measures the expected *relative* improvement (§3.3's
                // "expected improvement less than a threshold, e.g. 10%").
                if suggestion.eic < self.opts.ei_stop_ratio && suggestion.from_safe_region {
                    self.telemetry.emit(
                        self.round_iterations as u64,
                        EventKind::TaskStopped {
                            reason: StopReason::EiConverged,
                        },
                    );
                    self.stopped = true;
                    self.pending = Some(Suggestion {
                        config: best_cfg.clone(),
                        source: SuggestionKind::Fallback,
                        eic: suggestion.eic,
                        from_safe_region: true,
                    });
                    return Ok(best_cfg);
                }
            }
        }

        let config = suggestion.config.clone();
        self.pending = Some(suggestion);
        Ok(config)
    }

    /// Provenance of the pending suggestion (diagnostics).
    pub fn pending_source(&self) -> Option<SuggestionKind> {
        self.pending.as_ref().map(|s| s.source)
    }

    /// Report the execution result of the pending suggestion (Step 2 of
    /// Figure 1). `runtime_s` and `resource` come from the platform and
    /// must be finite and positive; `context` must match what was passed
    /// to [`OnlineTuner::suggest`]. Every accepted report, a stopped
    /// task's included, is announced as `ObservationReported`, stamped
    /// with the history length after the report.
    pub fn observe(
        &mut self,
        config: Configuration,
        runtime_s: f64,
        resource: f64,
        context: &[f64],
    ) -> Result<(), TunerError> {
        check_report(runtime_s, resource, context, false)?;
        let pending = self.pending.take().ok_or(TunerError::NoPendingSuggestion)?;
        if pending.config != config {
            self.pending = Some(pending);
            return Err(TunerError::SuggestionMismatch);
        }
        let trace = self.telemetry.trace_span("observe");
        let objective = self.objective.eval(runtime_s, resource);

        if self.stopped {
            // Post-tuning: watch for continuous degradation (§3.3).
            let expected = self.best().map(|o| o.objective).unwrap_or(objective);
            if objective > expected * DEGRADATION_FACTOR {
                self.degraded_streak += 1;
                if self.degraded_streak >= RESTART_AFTER {
                    self.restart();
                }
            } else {
                self.degraded_streak = 0;
            }
        } else {
            self.history.push(Observation {
                failed: false,
                config,
                objective,
                runtime: runtime_s,
                resource,
                context: context.to_vec(),
            });
            self.round_iterations += 1;
            self.failure_streak = 0;
        }
        trace.finish();
        self.telemetry.emit(
            self.history.len() as u64,
            EventKind::ObservationReported {
                runtime: runtime_s,
                resource,
                objective,
                constraint_violated: !within_constraints(
                    runtime_s,
                    resource,
                    self.opts.t_max,
                    self.opts.r_max,
                ),
            },
        );
        Ok(())
    }

    /// Report that the pending suggestion's run *failed* (executor OOM,
    /// `T_max` kill, crashed container). `partial_runtime_s` is the time
    /// the run consumed before dying; it is *not* recorded as the
    /// observed runtime. Instead the run enters the history censored —
    /// runtime clamped to `FAILURE_PENALTY × T_max` (worst-seen runtime
    /// when `T_max` is unset) and flagged `failed` — which keeps the
    /// runtime GP pessimistic there and makes the observation infeasible
    /// for the safe region, the incumbent, and the sub-space success
    /// counter (the EIC retreats instead of refitting on garbage).
    /// `partial_runtime_s` and `resource` must be finite and
    /// non-negative.
    pub fn observe_failed(
        &mut self,
        config: Configuration,
        partial_runtime_s: f64,
        resource: f64,
        context: &[f64],
    ) -> Result<(), TunerError> {
        check_report(partial_runtime_s, resource, context, true)?;
        let pending = self.pending.take().ok_or(TunerError::NoPendingSuggestion)?;
        if pending.config != config {
            self.pending = Some(pending);
            return Err(TunerError::SuggestionMismatch);
        }
        let censored = self.censored_runtime(partial_runtime_s);
        self.telemetry.incr(metric::RUN_FAILURES);

        if self.stopped {
            // A failed production run is maximally degraded (§3.3's
            // restart watch applies unchanged).
            self.telemetry.emit(
                self.round_iterations as u64,
                EventKind::RunFailed {
                    partial_runtime: partial_runtime_s,
                    censored_runtime: censored,
                    streak: self.degraded_streak + 1,
                },
            );
            self.degraded_streak += 1;
            if self.degraded_streak >= RESTART_AFTER {
                self.restart();
            }
            return Ok(());
        }

        let objective = self.objective.eval(censored, resource);
        self.failure_streak += 1;
        self.telemetry.emit(
            self.round_iterations as u64,
            EventKind::RunFailed {
                partial_runtime: partial_runtime_s,
                censored_runtime: censored,
                streak: self.failure_streak,
            },
        );
        self.history.push(Observation {
            failed: true,
            config,
            objective,
            runtime: censored,
            resource,
            context: context.to_vec(),
        });
        self.round_iterations += 1;
        Ok(())
    }

    /// The censored runtime recorded for a failed run. Deterministic in
    /// (options, history, partial runtime), so the job engine's journal
    /// replay reproduces it.
    fn censored_runtime(&self, partial_runtime_s: f64) -> f64 {
        let base = self.opts.t_max.unwrap_or_else(|| {
            self.history
                .iter()
                .map(|o| o.runtime)
                .fold(partial_runtime_s.max(1.0), f64::max)
        });
        (base * FAILURE_PENALTY).max(partial_runtime_s)
    }

    /// Consecutive failed runs in the current tuning round.
    pub fn failure_streak(&self) -> usize {
        self.failure_streak
    }

    /// The last known-safe configuration: the best *feasible* observation,
    /// falling back to the space default (the manual configuration, which
    /// production ran safely before tuning began).
    fn last_known_safe(&self) -> Configuration {
        self.history
            .iter()
            .filter(|o| o.is_feasible(self.opts.t_max, self.opts.r_max))
            .min_by(|a, b| {
                a.objective
                    .partial_cmp(&b.objective)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|o| o.config.clone())
            .unwrap_or_else(|| self.space.default_configuration())
    }

    /// Seed the runhistory with an already-executed configuration (e.g.
    /// the manual configuration's production metrics). Does not consume
    /// budget.
    pub fn seed_observation(
        &mut self,
        config: Configuration,
        runtime_s: f64,
        resource: f64,
        context: &[f64],
    ) {
        let objective = self.objective.eval(runtime_s, resource);
        self.history.push(Observation {
            failed: false,
            config,
            objective,
            runtime: runtime_s,
            resource,
            context: context.to_vec(),
        });
    }

    /// Force a tuning restart: the current runhistory becomes a base task
    /// for the meta ensemble, and a fresh tuning round begins (workload
    /// drift response, §3.3).
    pub fn restart(&mut self) {
        self.restarts += 1;
        self.degraded_streak = 0;
        if !self.history.is_empty() {
            self.own_records.push(TaskRecord {
                task_id: format!("self-round-{}", self.restarts),
                meta_features: Vec::new(),
                observations: std::mem::take(&mut self.history),
            });
        }
        self.stopped = false;
        self.round_iterations = 0;
        self.failure_streak = 0;
        // The round's history now lives under a new base-task id and the
        // target history restarts empty — begin from clean per-target
        // caches. Base-task fits stay in the store.
        self.rebuild_generator();
    }

    /// Transfer knowledge from similar source tasks into a running task
    /// (the controller's warm-start injection): `warm_configs` seed the
    /// initial design and `base_tasks` become the meta ensemble's bases.
    /// As in [`OnlineTuner::restart`], only the generator and the meta
    /// caches are rebuilt; the history, the budget already spent, the
    /// stopped state, the failure streak and the restart records carry
    /// over unchanged.
    pub(crate) fn transfer(
        &mut self,
        warm_configs: Vec<Configuration>,
        base_tasks: Vec<TaskRecord>,
    ) {
        self.opts.warm_configs = warm_configs;
        self.opts.base_tasks = base_tasks;
        self.rebuild_generator();
    }

    /// A fresh generator and empty per-target meta caches under the
    /// current options; the base-task store is kept.
    fn rebuild_generator(&mut self) {
        self.meta_cache.clear();
        self.base_fps = None;
        self.generator =
            Self::make_generator(&self.space, &self.opts, Arc::clone(&self.resource_fn));
        self.generator.set_telemetry(self.telemetry.clone());
    }

    /// Export every observation this task recorded as a [`TaskRecord`]
    /// (a meta-learning source): the rounds before each restart, then the
    /// current history.
    pub fn export_record(&self, task_id: &str, meta_features: Vec<f64>) -> TaskRecord {
        TaskRecord {
            task_id: task_id.to_string(),
            meta_features,
            observations: self
                .own_records
                .iter()
                .flat_map(|r| &r.observations)
                .chain(&self.history)
                .cloned()
                .collect(),
        }
    }

    /// How many observations [`OnlineTuner::export_record`] exports.
    pub(crate) fn n_recorded(&self) -> usize {
        let restarted: usize = self.own_records.iter().map(|r| r.observations.len()).sum();
        restarted + self.history.len()
    }

    fn build_ensemble(&mut self) -> Option<EnsembleSurrogate> {
        if !self.opts.enable_meta {
            return None;
        }
        let records: Vec<&TaskRecord> = self
            .opts
            .base_tasks
            .iter()
            .chain(&self.own_records)
            .collect();
        if records.is_empty() {
            return None;
        }
        // The generator's EIC works on the log objective; the ensemble's
        // member surrogates live on the same scale. Base records are
        // log-transformed only when the meta cache misses them.
        let space = &self.space;
        let fps = self.base_fps.get_or_insert_with(|| {
            records
                .iter()
                .map(|t| {
                    let obs = log_objective(&t.observations);
                    history_fingerprint(space, &obs, SurrogateInput::Objective)
                })
                .collect()
        });
        let bases: Vec<BaseTask<'_>> = records
            .iter()
            .zip(fps.iter())
            .map(|(&t, &fp)| {
                BaseTask::new(&t.task_id, fp, move || {
                    Cow::Owned(TaskRecord {
                        task_id: t.task_id.clone(),
                        meta_features: t.meta_features.clone(),
                        observations: log_objective(&t.observations),
                    })
                })
            })
            .collect();
        EnsembleSurrogate::build_cached(
            space,
            &bases,
            &log_objective(&self.history),
            50,
            self.opts.seed,
            &mut self.meta_cache,
            &self.telemetry,
        )
    }
}

/// `obs` with each objective mapped to `ln(max(objective, 1e-9))`.
fn log_objective(obs: &[Observation]) -> Vec<Observation> {
    obs.iter()
        .map(|o| Observation {
            objective: o.objective.max(1e-9).ln(),
            ..o.clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::{ParamValue, Parameter};

    fn toy_space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::int("n", 1, 50, 10),
            Parameter::int("m", 1, 32, 8),
        ])
    }

    fn toy_resource(c: &Configuration) -> f64 {
        c[0].as_int().unwrap() as f64 * (1.0 + 0.5 * c[1].as_int().unwrap() as f64)
    }

    fn toy_runtime(c: &Configuration) -> f64 {
        400.0 / c[0].as_int().unwrap() as f64 + 30.0 / c[1].as_int().unwrap() as f64 + 10.0
    }

    fn make_tuner(opts: TunerOptions) -> OnlineTuner {
        OnlineTuner::with_resource_fn(toy_space(), opts, Arc::new(toy_resource))
    }

    fn drive(tuner: &mut OnlineTuner, rounds: usize) {
        for _ in 0..rounds {
            let cfg = tuner.suggest(&[]).unwrap();
            let (rt, r) = (toy_runtime(&cfg), toy_resource(&cfg));
            tuner.observe(cfg, rt, r, &[]).unwrap();
        }
    }

    #[test]
    fn improves_over_default_within_budget() {
        let mut tuner = make_tuner(TunerOptions {
            budget: 15,
            seed: 1,
            ..Default::default()
        });
        let d = toy_space().default_configuration();
        tuner.seed_observation(d.clone(), toy_runtime(&d), toy_resource(&d), &[]);
        let initial = tuner.history()[0].objective;
        drive(&mut tuner, 15);
        let best = tuner.best().unwrap().objective;
        assert!(best < initial, "{best} !< {initial}");
        assert_eq!(tuner.history().len(), 16);
    }

    #[test]
    fn budget_exhaustion_returns_best_config() {
        let mut tuner = make_tuner(TunerOptions {
            budget: 5,
            ..Default::default()
        });
        drive(&mut tuner, 5);
        assert!(!tuner.is_stopped());
        let best = tuner.best().unwrap().config.clone();
        let next = tuner.suggest(&[]).unwrap();
        assert!(tuner.is_stopped());
        assert_eq!(next, best, "post-budget suggestions are the incumbent");
        tuner.observe(next, 100.0, 10.0, &[]).unwrap();
        // History no longer grows post-stop.
        assert_eq!(tuner.history().len(), 5);
    }

    #[test]
    fn suggest_twice_without_observe_errors() {
        let mut tuner = make_tuner(TunerOptions::default());
        let _ = tuner.suggest(&[]).unwrap();
        assert_eq!(
            tuner.suggest(&[]).unwrap_err(),
            TunerError::PendingObservation
        );
    }

    #[test]
    fn observe_without_suggest_errors() {
        let mut tuner = make_tuner(TunerOptions::default());
        let cfg = toy_space().default_configuration();
        assert_eq!(
            tuner.observe(cfg, 1.0, 1.0, &[]).unwrap_err(),
            TunerError::NoPendingSuggestion
        );
    }

    #[test]
    fn mismatched_observation_errors_and_keeps_pending() {
        let mut tuner = make_tuner(TunerOptions::default());
        let cfg = tuner.suggest(&[]).unwrap();
        let mut other = toy_space().default_configuration();
        if other == cfg {
            other.set(0, ParamValue::Int(49));
        }
        assert_eq!(
            tuner.observe(other.clone(), 1.0, 1.0, &[]).unwrap_err(),
            TunerError::SuggestionMismatch
        );
        assert_eq!(
            tuner.observe_failed(other, 1.0, 1.0, &[]).unwrap_err(),
            TunerError::SuggestionMismatch
        );
        // The pending suggestion survived the bad reports.
        tuner.observe(cfg, 1.0, 1.0, &[]).unwrap();
        assert_eq!(tuner.history().len(), 1);
    }

    #[test]
    fn unusable_measurements_are_rejected_and_keep_pending() {
        let mut tuner = make_tuner(TunerOptions::default());
        let cfg = tuner.suggest(&[]).unwrap();
        let invalid = |field: &'static str, value: &str| TunerError::InvalidMeasurement {
            field,
            value: value.into(),
        };
        for (rt, r, field, value) in [
            (f64::INFINITY, 1.0, "runtime_s", "inf"),
            (f64::NAN, 1.0, "runtime_s", "NaN"),
            (-5.0, 1.0, "runtime_s", "-5"),
            (0.0, 1.0, "runtime_s", "0"),
            (1.0, f64::NEG_INFINITY, "resource", "-inf"),
            (1.0, 0.0, "resource", "0"),
        ] {
            assert_eq!(
                tuner.observe(cfg.clone(), rt, r, &[]).unwrap_err(),
                invalid(field, value)
            );
        }
        assert_eq!(
            tuner
                .observe(cfg.clone(), 1.0, 1.0, &[f64::NAN])
                .unwrap_err(),
            invalid("context", "NaN")
        );
        assert_eq!(
            tuner
                .observe_failed(cfg.clone(), -1.0, 1.0, &[])
                .unwrap_err(),
            invalid("runtime_s", "-1")
        );
        assert_eq!(
            tuner
                .observe_failed(cfg.clone(), 1.0, f64::NAN, &[])
                .unwrap_err(),
            invalid("resource", "NaN")
        );
        assert!(tuner.history().is_empty());
        // A killed run may report zero; the pending suggestion survived.
        tuner.observe_failed(cfg, 0.0, 0.0, &[]).unwrap();
        assert_eq!(tuner.history().len(), 1);
    }

    #[test]
    fn failed_runs_are_censored_and_infeasible() {
        let t_max = 100.0;
        let mut tuner = make_tuner(TunerOptions {
            t_max: Some(t_max),
            ..Default::default()
        });
        let cfg = tuner.suggest(&[]).unwrap();
        tuner.observe_failed(cfg, 40.0, 10.0, &[]).unwrap();
        let o = &tuner.history()[0];
        assert!(o.failed);
        assert_eq!(o.runtime, 200.0, "censored to FAILURE_PENALTY × T_max");
        assert!(!o.is_feasible(Some(t_max), None));
        assert_eq!(tuner.failure_streak(), 1);
        // A clean run resets the streak.
        let cfg = tuner.suggest(&[]).unwrap();
        let (rt, r) = (toy_runtime(&cfg), toy_resource(&cfg));
        tuner.observe(cfg, rt, r, &[]).unwrap();
        assert_eq!(tuner.failure_streak(), 0);
    }

    #[test]
    fn censoring_without_t_max_uses_worst_seen_runtime() {
        let mut tuner = make_tuner(TunerOptions {
            t_max: None,
            ..Default::default()
        });
        let d = toy_space().default_configuration();
        tuner.seed_observation(d.clone(), 80.0, toy_resource(&d), &[]);
        let cfg = tuner.suggest(&[]).unwrap();
        tuner.observe_failed(cfg, 5.0, 1.0, &[]).unwrap();
        assert_eq!(tuner.history()[1].runtime, 160.0);
    }

    #[test]
    fn consecutive_failures_trigger_fallback_to_last_known_safe() {
        let space = toy_space();
        let d = space.default_configuration();
        let mut tuner = make_tuner(TunerOptions {
            t_max: Some(200.0),
            budget: 20,
            ..Default::default()
        });
        tuner.seed_observation(d.clone(), toy_runtime(&d), toy_resource(&d), &[]);
        for _ in 0..3 {
            let cfg = tuner.suggest(&[]).unwrap();
            tuner.observe_failed(cfg, 50.0, 10.0, &[]).unwrap();
        }
        assert_eq!(tuner.failure_streak(), 3);
        let fallback = tuner.suggest(&[]).unwrap();
        assert_eq!(tuner.pending_source(), Some(SuggestionKind::Fallback));
        assert_eq!(fallback, d, "retreats to the only feasible config");
        assert_eq!(tuner.failure_streak(), 0, "streak cleared by the fallback");
        let (rt, r) = (toy_runtime(&fallback), toy_resource(&fallback));
        tuner.observe(fallback, rt, r, &[]).unwrap();
        // Tuning continues normally afterwards.
        let next = tuner.suggest(&[]).unwrap();
        assert_ne!(tuner.pending_source(), Some(SuggestionKind::Fallback));
        let (rt, r) = (toy_runtime(&next), toy_resource(&next));
        tuner.observe(next, rt, r, &[]).unwrap();
    }

    #[test]
    fn failed_incumbent_never_wins() {
        let mut tuner = make_tuner(TunerOptions {
            t_max: Some(100.0),
            ..Default::default()
        });
        let cfg = tuner.suggest(&[]).unwrap();
        // Tiny resource → censored objective could look attractive if the
        // failure flag were ignored.
        tuner.observe_failed(cfg, 1.0, 1e-6, &[]).unwrap();
        let cfg = tuner.suggest(&[]).unwrap();
        let (rt, r) = (toy_runtime(&cfg), toy_resource(&cfg));
        tuner.observe(cfg.clone(), rt, r, &[]).unwrap();
        let best = tuner.best().unwrap();
        assert!(!best.failed, "incumbent is the feasible run");
        assert_eq!(best.config, cfg);
    }

    #[test]
    fn post_stop_failures_count_toward_restart() {
        let mut tuner = make_tuner(TunerOptions {
            budget: 4,
            t_max: Some(1e9),
            ..Default::default()
        });
        drive(&mut tuner, 4);
        for _ in 0..RESTART_AFTER {
            let cfg = tuner.suggest(&[]).unwrap();
            assert!(tuner.is_stopped());
            tuner.observe_failed(cfg, 10.0, 1.0, &[]).unwrap();
        }
        assert_eq!(tuner.restarts(), 1);
        assert!(!tuner.is_stopped());
    }

    #[test]
    fn degradation_triggers_restart() {
        let mut tuner = make_tuner(TunerOptions {
            budget: 4,
            ..Default::default()
        });
        drive(&mut tuner, 4);
        // Exhaust the budget → stopped.
        let cfg = tuner.suggest(&[]).unwrap();
        assert!(tuner.is_stopped());
        tuner.observe(cfg, 1e6, 1e6, &[]).unwrap(); // degraded run 1
        for _ in 0..2 {
            let cfg = tuner.suggest(&[]).unwrap();
            tuner.observe(cfg, 1e6, 1e6, &[]).unwrap();
        }
        assert_eq!(tuner.restarts(), 1);
        assert!(!tuner.is_stopped(), "tuning resumed after restart");
        // Old history moved into base records; a new round begins.
        assert!(tuner.history().is_empty());
    }

    #[test]
    fn healthy_post_tuning_runs_do_not_restart() {
        let mut tuner = make_tuner(TunerOptions {
            budget: 4,
            ..Default::default()
        });
        drive(&mut tuner, 4);
        let best_rt = tuner.best().unwrap().runtime;
        let best_r = tuner.best().unwrap().resource;
        for _ in 0..6 {
            let cfg = tuner.suggest(&[]).unwrap();
            tuner.observe(cfg, best_rt, best_r, &[]).unwrap();
        }
        assert_eq!(tuner.restarts(), 0);
    }

    #[test]
    fn ei_stop_rule_ends_tuning_before_the_budget() {
        // Drive a budget-12 task until it stops; return the tuning runs it
        // made and how many EI-convergence stops it emitted.
        let run = |ei_stop_ratio: f64| -> (usize, usize) {
            let (telemetry, sink) = Telemetry::ring(4096);
            let mut tuner = make_tuner(TunerOptions {
                budget: 12,
                ei_stop_ratio,
                seed: 5,
                ..Default::default()
            });
            tuner.set_telemetry(telemetry);
            let mut runs = 0;
            loop {
                let cfg = tuner.suggest(&[]).unwrap();
                if tuner.is_stopped() {
                    let best = tuner.best().unwrap().config.clone();
                    assert_eq!(cfg, best, "a stopped task serves its incumbent");
                    let (rt, r) = (toy_runtime(&cfg), toy_resource(&cfg));
                    tuner.observe(cfg, rt, r, &[]).unwrap();
                    assert_eq!(tuner.suggest(&[]).unwrap(), best);
                    break;
                }
                let (rt, r) = (toy_runtime(&cfg), toy_resource(&cfg));
                tuner.observe(cfg, rt, r, &[]).unwrap();
                runs += 1;
            }
            assert_eq!(tuner.history().len(), runs);
            let ei_stops = sink
                .events()
                .iter()
                .filter(|e| {
                    e.kind
                        == EventKind::TaskStopped {
                            reason: StopReason::EiConverged,
                        }
                })
                .count();
            (runs, ei_stops)
        };
        // Any EIC is below an infinite ratio: the first eligible BO step
        // (past the initial design) stops the task.
        let (runs, ei_stops) = run(f64::INFINITY);
        assert!(runs < 12, "stopped early: {runs} runs");
        assert_eq!(ei_stops, 1);
        // The default ratio 0 disables the rule: the whole budget runs.
        assert_eq!(run(0.0), (12, 0));
    }

    #[test]
    fn warm_configs_come_first() {
        let space = toy_space();
        let warm = space
            .configuration(vec![ParamValue::Int(7), ParamValue::Int(3)])
            .unwrap();
        let mut tuner = make_tuner(TunerOptions {
            warm_configs: vec![warm.clone()],
            ..Default::default()
        });
        let first = tuner.suggest(&[]).unwrap();
        assert_eq!(first, warm);
    }

    #[test]
    fn export_record_captures_history() {
        let mut tuner = make_tuner(TunerOptions {
            budget: 4,
            ..Default::default()
        });
        drive(&mut tuner, 4);
        let rec = tuner.export_record("toy", vec![1.0, 2.0]);
        assert_eq!(rec.task_id, "toy");
        assert_eq!(rec.observations.len(), 4);
        assert_eq!(rec.meta_features, vec![1.0, 2.0]);
    }

    #[test]
    fn every_observe_announces_the_outcome() {
        let (telemetry, sink) = Telemetry::ring(256);
        let mut tuner = make_tuner(TunerOptions {
            budget: 2,
            t_max: Some(100.0),
            ..Default::default()
        });
        tuner.set_telemetry(telemetry);
        for runtime in [50.0, 150.0, 60.0] {
            let cfg = tuner.suggest(&[]).unwrap();
            tuner.observe(cfg, runtime, 4.0, &[]).unwrap();
        }
        assert!(tuner.is_stopped(), "the last report came after stopping");
        let announced: Vec<(u64, bool, f64)> = sink
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ObservationReported {
                    runtime,
                    constraint_violated,
                    ..
                } => Some((e.iteration, constraint_violated, runtime)),
                _ => None,
            })
            .collect();
        assert_eq!(
            announced,
            [(1, false, 50.0), (2, true, 150.0), (2, false, 60.0)]
        );
    }

    #[test]
    fn restart_and_transfer_keep_the_resource_function() {
        let r_max = 60.0;
        let opts = TunerOptions {
            beta: 1.0,
            r_max: Some(r_max),
            budget: 12,
            seed: 3,
            ..Default::default()
        };
        // BO and AGD suggestions over R_max in one 12-run tuning round.
        let over_r_max = |tuner: &mut OnlineTuner| -> usize {
            let mut over = 0;
            for _ in 0..12 {
                let cfg = tuner.suggest(&[]).unwrap();
                let model_based = matches!(
                    tuner.pending_source(),
                    Some(SuggestionKind::Bo | SuggestionKind::Agd)
                );
                if model_based && toy_resource(&cfg) > r_max {
                    over += 1;
                }
                let (rt, r) = (toy_runtime(&cfg), toy_resource(&cfg));
                tuner.observe(cfg, rt, r, &[]).unwrap();
            }
            over
        };
        let mut tuner = make_tuner(opts.clone());
        let before = over_r_max(&mut tuner);
        tuner.restart();
        let after_restart = over_r_max(&mut tuner);
        let mut fresh = make_tuner(opts);
        fresh.transfer(vec![], vec![]);
        let after_transfer = over_r_max(&mut fresh);
        assert_eq!((before, after_restart, after_transfer), (0, 0, 0));
    }

    /// A standalone meta tuner fits each base task once: its store keeps
    /// the fits across `restart`, so the next round fits only the new
    /// base its first round became.
    #[test]
    fn restart_keeps_every_base_fit() {
        let bases: Vec<TaskRecord> = (0..2)
            .map(|b| {
                let mut source = make_tuner(TunerOptions {
                    budget: 6,
                    seed: 10 + b,
                    ..Default::default()
                });
                drive(&mut source, 6);
                source.export_record(&format!("base-{b}"), vec![])
            })
            .collect();
        let mut tuner = make_tuner(TunerOptions {
            budget: 6,
            enable_meta: true,
            base_tasks: bases,
            seed: 4,
            ..Default::default()
        });
        let (telemetry, _sink) = Telemetry::ring_traced(1, 4);
        tuner.set_telemetry(telemetry.clone());
        drive(&mut tuner, 5);
        tuner.restart();
        drive(&mut tuner, 5);
        let fits = telemetry.traces();
        let fits = fits.iter().filter(|s| s.name == "base_fit").count();
        assert_eq!(fits, 3, "two given bases, then the first round");
    }

    #[test]
    fn safety_reduces_constraint_violations() {
        let space = toy_space();
        let d = space.default_configuration();
        let t_max = toy_runtime(&d) * 1.2;
        let run = |enable_safety: bool, seed: u64| -> usize {
            let mut tuner = make_tuner(TunerOptions {
                budget: 18,
                t_max: Some(t_max),
                enable_safety,
                n_agd: 0,
                seed,
                ..Default::default()
            });
            tuner.seed_observation(d.clone(), toy_runtime(&d), toy_resource(&d), &[]);
            let mut violations = 0;
            for _ in 0..18 {
                let cfg = tuner.suggest(&[]).unwrap();
                let rt = toy_runtime(&cfg);
                if rt > t_max {
                    violations += 1;
                }
                let r = toy_resource(&cfg);
                tuner.observe(cfg, rt, r, &[]).unwrap();
            }
            violations
        };
        let unsafe_v: usize = (0..3).map(|s| run(false, s)).sum();
        let safe_v: usize = (0..3).map(|s| run(true, s)).sum();
        assert!(safe_v <= unsafe_v, "safety helps: {safe_v} vs {unsafe_v}");
    }
}
