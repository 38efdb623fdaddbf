//! The single-task online tuner: the iterative workflow of §3.1 for one
//! periodic Spark job, including the stopping and restarting criteria.

use crate::generator::{ConfigGenerator, GeneratorOptions, Suggestion, SuggestionSource};
use crate::objective::{Constraints, Objective};
use crate::snapshot::{PendingSuggestion, ResumeError, TunerSnapshot};
use otune_bo::{best_observation, CandidateParams, Observation, SubspaceParams};
use otune_gp::{IncrementalPolicy, SparseGpConfig};
use otune_meta::{EnsembleSurrogate, MetaCache, TaskRecord};
use otune_pool::Pool;
use otune_space::{ConfigSpace, Configuration};
use otune_telemetry::{metric, EventKind, StopReason, SuggestionKind, Telemetry};
use std::sync::Arc;

impl SuggestionSource {
    /// The telemetry mirror of this provenance.
    pub fn kind(self) -> SuggestionKind {
        match self {
            SuggestionSource::WarmStart => SuggestionKind::WarmStart,
            SuggestionSource::Retrieval => SuggestionKind::Retrieval,
            SuggestionSource::InitialDesign => SuggestionKind::InitialDesign,
            SuggestionSource::Agd => SuggestionKind::Agd,
            SuggestionSource::Bo => SuggestionKind::Bo,
            SuggestionSource::Fallback => SuggestionKind::Fallback,
        }
    }
}

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
    /// Safe-region pessimism γ.
    pub gamma: f64,
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
    /// Restart tuning after this many consecutive post-tuning runs whose
    /// objective degrades > [`TunerOptions::degradation_factor`] over the
    /// expected (best) value. 0 disables restart detection.
    pub restart_after: usize,
    /// Degradation multiplier that counts a run as degraded.
    pub degradation_factor: f64,
    /// After this many *consecutive* failed runs the tuner falls back to
    /// the last known-safe configuration for one period (0 disables).
    pub tau_consec: usize,
    /// Censoring multiplier for failed runs: the recorded runtime is
    /// `failure_penalty × T_max` (or the worst runtime seen when `T_max`
    /// is unset), keeping the safe-region GP pessimistic about the
    /// failing region without feeding it the unknowable true runtime.
    pub failure_penalty: f64,
    /// Sub-space evolution parameters (`None` = paper defaults for the
    /// space's parameter count).
    pub subspace: Option<SubspaceParams>,
    /// Candidate-generation parameters.
    pub candidates: CandidateParams,
    /// Surrogate maintenance across iterations (rank-one factor updates,
    /// warm-started hyperparameter re-searches, fit caches).
    pub incremental: IncrementalPolicy,
    /// Local-subset sparse GP for large histories (`None` = always exact).
    /// Defaults to [`SparseGpConfig::from_env`] (`OTUNE_SPARSE_GP`).
    pub sparse_gp: Option<SparseGpConfig>,
    /// Seed for all randomized components.
    pub seed: u64,
    /// Worker pool shared by surrogate fitting, acquisition maximization,
    /// and forest growing. Defaults to [`Pool::from_env`] (`OTUNE_THREADS`
    /// or the machine's parallelism); suggestions are bitwise-identical
    /// for every pool width.
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
            gamma: 1.0,
            enable_safety: true,
            enable_subspace: true,
            enable_meta: true,
            warm_configs: Vec::new(),
            retrieval_configs: Vec::new(),
            base_tasks: Vec::new(),
            ei_stop_ratio: 0.0,
            restart_after: 3,
            degradation_factor: 1.5,
            tau_consec: 3,
            failure_penalty: 2.0,
            subspace: None,
            candidates: CandidateParams::default(),
            incremental: IncrementalPolicy::default(),
            sparse_gp: SparseGpConfig::from_env(),
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

/// Check one measurement reported for a run: it must be finite, and
/// `> 0` — or `>= 0` for a killed run (`failed`), whose partial runtime
/// or resource may be zero. The tuner takes logs of these values and the
/// job journal stores them as JSON numbers (which cannot hold `inf` or
/// `NaN`), so anything else would be silently turned into the best or an
/// unreadable observation.
pub fn check_measurement(field: &'static str, value: f64, failed: bool) -> Result<(), TunerError> {
    let usable = value.is_finite() && (value > 0.0 || (failed && value == 0.0));
    if usable {
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
    objective: Objective,
    history: Vec<Observation>,
    pending: Option<Suggestion>,
    /// The context the pending suggestion was generated with (snapshots
    /// need it to regenerate the suggestion on resume).
    pending_context: Vec<f64>,
    stopped: bool,
    /// Consecutive failed runs in the current tuning round.
    failure_streak: usize,
    /// Indices into `history` that were seeded (no budget consumed), in
    /// insertion order — resume replays them without a suggest call.
    seeded_idx: Vec<usize>,
    /// Consecutive degraded post-tuning runs.
    degraded_streak: usize,
    /// Number of restarts performed.
    restarts: usize,
    /// Extra base tasks accumulated from restarts.
    own_records: Vec<TaskRecord>,
    /// Iterations consumed in the current tuning round.
    round_iterations: usize,
    /// Cross-iteration caches for the meta ensemble (frozen base-task
    /// surrogates, incremental target surrogate, weight-fold memo).
    meta_cache: MetaCache,
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
        let generator = Self::make_generator(&space, &opts, resource_fn);
        OnlineTuner {
            objective: Objective::new(opts.beta),
            generator,
            space,
            meta_cache: MetaCache::new(opts.incremental),
            opts,
            history: Vec::new(),
            pending: None,
            pending_context: Vec::new(),
            stopped: false,
            failure_streak: 0,
            seeded_idx: Vec::new(),
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

    /// Attach a fleet-wide [`SharedMetaStore`]: base-task surrogate fits
    /// are deduped across all tasks sharing the store, without changing any
    /// suggestion (fits are pure functions of their cache key).
    pub fn set_shared_meta(&mut self, store: Arc<otune_meta::SharedMetaStore>) {
        self.meta_cache.set_shared(store);
    }

    fn make_generator(
        space: &ConfigSpace,
        opts: &TunerOptions,
        resource_fn: Arc<dyn Fn(&Configuration) -> f64 + Send + Sync>,
    ) -> ConfigGenerator {
        let gen_opts = GeneratorOptions {
            objective: Objective::new(opts.beta),
            constraints: Constraints {
                t_max: opts.t_max,
                r_max: opts.r_max,
            },
            n_init: opts.n_init,
            n_agd: opts.n_agd,
            gamma: opts.gamma,
            enable_safety: opts.enable_safety,
            enable_subspace: opts.enable_subspace,
            subspace: opts
                .subspace
                .unwrap_or_else(|| SubspaceParams::paper_defaults(space.len())),
            candidates: opts.candidates,
            fanova_period: 5,
            incremental: opts.incremental,
            sparse: opts.sparse_gp,
            seed: opts.seed,
            pool: opts.pool.clone(),
            retrieval: opts.retrieval_configs.clone(),
        };
        let ranking = if space.len() == 30 {
            otune_bo::subspace::spark_expert_ranking()
        } else {
            (0..space.len()).collect()
        };
        ConfigGenerator::new(space.clone(), gen_opts, ranking, resource_fn)
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
        self.pending_context = context.to_vec();
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
                source: SuggestionSource::Fallback,
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
        if self.opts.tau_consec > 0 && self.failure_streak >= self.opts.tau_consec {
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
                source: SuggestionSource::Fallback,
                eic: 0.0,
                from_safe_region: true,
            });
            return Ok(config);
        }

        let trace = self.telemetry.trace_span("suggest");
        let warm = self.opts.warm_configs.clone();
        // With a retrieval bootstrap attached, burn-in iterations skip
        // building the meta ensemble entirely — the initial design never
        // consults it, and deferring the base-surrogate fits is where the
        // cold-start speedup comes from. Without retrieval the build
        // stays unconditional so the retrieval-off path is untouched.
        let skip_ensemble = !self.opts.retrieval_configs.is_empty()
            && self
                .generator
                .in_initial_design(self.history.len(), warm.len());
        let ensemble = if skip_ensemble {
            None
        } else {
            self.build_ensemble()
        };
        let suggestion = {
            let _span = self.telemetry.span(metric::SUGGEST_LATENCY_S);
            self.generator.suggest(
                &self.history,
                context,
                &warm,
                ensemble.as_ref().map(|e| e as &dyn otune_bo::Predictor),
            )
        };
        trace.finish();
        self.telemetry.emit(
            self.round_iterations as u64,
            EventKind::SuggestionMade {
                source: suggestion.source.kind(),
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
        self.telemetry
            .gauge(metric::SIMD_BLOCKS, otune_linalg::simd::blocks() as f64);

        // Stopping criterion: negligible expected improvement (§3.3).
        if self.opts.ei_stop_ratio > 0.0
            && matches!(suggestion.source, SuggestionSource::Bo)
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
                        source: SuggestionSource::Fallback,
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
    pub fn pending_source(&self) -> Option<SuggestionSource> {
        self.pending.as_ref().map(|s| s.source)
    }

    /// Report the execution result of the pending suggestion (Step 2 of
    /// Figure 1). `runtime_s` and `resource` come from the platform and
    /// must be finite and positive; `context` must match what was passed
    /// to [`OnlineTuner::suggest`].
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
        let _trace = self.telemetry.trace_span("observe");
        let objective = self.objective.eval(runtime_s, resource);

        if self.stopped {
            // Post-tuning: watch for continuous degradation (§3.3).
            let expected = self.best().map(|o| o.objective).unwrap_or(objective);
            if self.opts.restart_after > 0 && objective > expected * self.opts.degradation_factor {
                self.degraded_streak += 1;
                if self.degraded_streak >= self.opts.restart_after {
                    self.restart();
                }
            } else {
                self.degraded_streak = 0;
            }
            return Ok(());
        }

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
        Ok(())
    }

    /// Report that the pending suggestion's run *failed* (executor OOM,
    /// `T_max` kill, crashed container). `partial_runtime_s` is the time
    /// the run consumed before dying; it is *not* recorded as the
    /// observed runtime. Instead the run enters the history censored —
    /// runtime clamped to `failure_penalty × T_max` (worst-seen runtime
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
            if self.opts.restart_after > 0 {
                self.degraded_streak += 1;
                if self.degraded_streak >= self.opts.restart_after {
                    self.restart();
                }
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
    /// (options, history, partial runtime) so that resume replays it.
    fn censored_runtime(&self, partial_runtime_s: f64) -> f64 {
        let base = self.opts.t_max.unwrap_or_else(|| {
            self.history
                .iter()
                .map(|o| o.runtime)
                .fold(partial_runtime_s.max(1.0), f64::max)
        });
        (base * self.opts.failure_penalty.max(1.0)).max(partial_runtime_s)
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
        self.seeded_idx.push(self.history.len());
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
        self.seeded_idx.clear();
        // The round's history now lives under a new base-task id and the
        // target history restarts empty — begin from a clean cache.
        self.meta_cache.clear();
        let resource_fn = crate::objective::resource_fn_for(&self.space);
        self.generator = Self::make_generator(&self.space, &self.opts, resource_fn);
        self.generator.set_telemetry(self.telemetry.clone());
    }

    /// Export this task's history as a [`TaskRecord`] for the repository.
    pub fn export_record(&self, task_id: &str, meta_features: Vec<f64>) -> TaskRecord {
        TaskRecord {
            task_id: task_id.to_string(),
            meta_features,
            observations: self.history.clone(),
        }
    }

    /// Freeze the tuner's replayable state into a [`TunerSnapshot`]
    /// (crash recovery). Cheap — no surrogate or RNG internals are
    /// serialized; [`OnlineTuner::resume`] rebuilds them by replay.
    pub fn snapshot(&self, task_id: &str) -> TunerSnapshot {
        TunerSnapshot {
            task_id: task_id.to_string(),
            seed: self.opts.seed,
            budget: self.opts.budget,
            history: self.history.clone(),
            seeded_idx: self.seeded_idx.clone(),
            pending: self.pending.as_ref().map(|p| PendingSuggestion {
                config: p.config.clone(),
                source: p.source,
                eic: p.eic,
                from_safe_region: p.from_safe_region,
                context: self.pending_context.clone(),
            }),
            stopped: self.stopped,
            degraded_streak: self.degraded_streak,
            failure_streak: self.failure_streak,
            restarts: self.restarts,
            round_iterations: self.round_iterations,
            own_records: self.own_records.clone(),
        }
    }

    /// Reconstruct a tuner from a snapshot (crash recovery). The stack is
    /// deterministic given `opts`, so resume re-drives the *real* suggest
    /// path over the snapshotted history — seeded observations are pushed
    /// directly, iterated ones must regenerate the exact configuration
    /// that was recorded — yielding a tuner whose future suggestions are
    /// bitwise-identical to an uninterrupted run's.
    ///
    /// `opts` must match the options the snapshot was taken under; the
    /// fingerprint fields (`seed`, `budget`) are checked, the rest is the
    /// caller's responsibility (they come from the same deployment
    /// configuration in practice).
    pub fn resume(
        space: ConfigSpace,
        opts: TunerOptions,
        snap: &TunerSnapshot,
        telemetry: Telemetry,
    ) -> Result<Self, ResumeError> {
        let resource_fn = crate::objective::resource_fn_for(&space);
        Self::resume_with_resource_fn(space, opts, resource_fn, snap, telemetry)
    }

    /// [`OnlineTuner::resume`] with an explicit analytic resource function
    /// (must match the one the snapshotted tuner was built with).
    pub fn resume_with_resource_fn(
        space: ConfigSpace,
        opts: TunerOptions,
        resource_fn: Arc<dyn Fn(&Configuration) -> f64 + Send + Sync>,
        snap: &TunerSnapshot,
        telemetry: Telemetry,
    ) -> Result<Self, ResumeError> {
        if opts.seed != snap.seed {
            return Err(ResumeError::OptionsMismatch { field: "seed" });
        }
        if opts.budget != snap.budget {
            return Err(ResumeError::OptionsMismatch { field: "budget" });
        }
        // Replay runs silent (disabled telemetry): the original already
        // emitted these events; a resume must not double-count them.
        let mut tuner = Self::with_resource_fn(space, opts, resource_fn);
        tuner.own_records = snap.own_records.clone();
        tuner.restarts = snap.restarts;
        for (i, obs) in snap.history.iter().enumerate() {
            if snap.seeded_idx.contains(&i) {
                tuner.seeded_idx.push(tuner.history.len());
                tuner.history.push(obs.clone());
                continue;
            }
            let cfg = tuner.suggest(&obs.context)?;
            if cfg != obs.config {
                return Err(ResumeError::ReplayDivergence { at: i });
            }
            tuner.apply_replayed(obs.clone());
        }
        if tuner.round_iterations != snap.round_iterations {
            return Err(ResumeError::ReplayDivergence {
                at: snap.history.len(),
            });
        }
        // Post-stop state is not replayable from the history (post-stop
        // observations are never recorded); restore it from the snapshot
        // *before* regenerating the pending suggestion, which may have
        // come from the stopped (incumbent) branch.
        tuner.stopped = snap.stopped;
        tuner.degraded_streak = snap.degraded_streak;
        if let Some(p) = &snap.pending {
            // The replayed failure streak is the pre-suggest value, so
            // the fallback branch (which resets it) replays faithfully.
            let cfg = tuner.suggest(&p.context)?;
            if cfg != p.config {
                return Err(ResumeError::ReplayDivergence {
                    at: snap.history.len(),
                });
            }
        }
        tuner.failure_streak = snap.failure_streak;
        tuner.set_telemetry(telemetry);
        tuner.telemetry.incr(metric::RESUMES);
        tuner.telemetry.emit(
            tuner.round_iterations as u64,
            EventKind::TunerResumed {
                observations: snap.history.len(),
            },
        );
        Ok(tuner)
    }

    /// Apply one replayed iterated observation during resume: mirrors the
    /// state effects of `observe`/`observe_failed` without telemetry.
    fn apply_replayed(&mut self, obs: Observation) {
        if obs.failed {
            self.failure_streak += 1;
        } else {
            self.failure_streak = 0;
        }
        self.history.push(obs);
        self.round_iterations += 1;
        self.pending = None;
    }

    fn build_ensemble(&mut self) -> Option<EnsembleSurrogate> {
        if !self.opts.enable_meta {
            return None;
        }
        let mut bases: Vec<TaskRecord> = self.opts.base_tasks.clone();
        bases.extend(self.own_records.iter().cloned());
        if bases.is_empty() {
            return None;
        }
        // The generator's EIC works on the log objective; the ensemble's
        // member surrogates must live on the same scale.
        let log = |obs: &[Observation]| -> Vec<Observation> {
            obs.iter()
                .map(|o| Observation {
                    objective: o.objective.max(1e-9).ln(),
                    ..o.clone()
                })
                .collect()
        };
        let bases: Vec<TaskRecord> = bases
            .into_iter()
            .map(|t| TaskRecord {
                observations: log(&t.observations),
                ..t
            })
            .collect();
        EnsembleSurrogate::build_cached(
            &self.space,
            &bases,
            &log(&self.history),
            50,
            self.opts.seed,
            &mut self.meta_cache,
            &self.telemetry,
        )
    }
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
            failure_penalty: 2.0,
            ..Default::default()
        });
        let cfg = tuner.suggest(&[]).unwrap();
        tuner.observe_failed(cfg, 40.0, 10.0, &[]).unwrap();
        let o = &tuner.history()[0];
        assert!(o.failed);
        assert_eq!(o.runtime, 200.0, "censored to failure_penalty × T_max");
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
            failure_penalty: 2.0,
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
            tau_consec: 3,
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
        assert_eq!(tuner.pending_source(), Some(SuggestionSource::Fallback));
        assert_eq!(fallback, d, "retreats to the only feasible config");
        assert_eq!(tuner.failure_streak(), 0, "streak cleared by the fallback");
        let (rt, r) = (toy_runtime(&fallback), toy_resource(&fallback));
        tuner.observe(fallback, rt, r, &[]).unwrap();
        // Tuning continues normally afterwards.
        let next = tuner.suggest(&[]).unwrap();
        assert_ne!(tuner.pending_source(), Some(SuggestionSource::Fallback));
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
            restart_after: 2,
            t_max: Some(1e9),
            ..Default::default()
        });
        drive(&mut tuner, 4);
        for _ in 0..2 {
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
            restart_after: 3,
            degradation_factor: 1.2,
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

    /// Drive `rounds` iterations, failing every run whose index is in
    /// `fail_on`, and return the full suggestion trace.
    fn drive_mixed(
        tuner: &mut OnlineTuner,
        rounds: usize,
        fail_on: &[usize],
    ) -> Vec<Configuration> {
        let mut trace = Vec::new();
        for i in 0..rounds {
            let cfg = tuner.suggest(&[]).unwrap();
            trace.push(cfg.clone());
            if fail_on.contains(&i) {
                tuner.observe_failed(cfg, 50.0, 10.0, &[]).unwrap();
            } else {
                let (rt, r) = (toy_runtime(&cfg), toy_resource(&cfg));
                tuner.observe(cfg, rt, r, &[]).unwrap();
            }
        }
        trace
    }

    fn resume_opts() -> TunerOptions {
        TunerOptions {
            budget: 12,
            t_max: Some(200.0),
            tau_consec: 3,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn resume_reproduces_uninterrupted_suggestions() {
        let d = toy_space().default_configuration();
        // The uninterrupted reference run: failures at 2, 3, 4 exercise
        // the fallback path mid-trace.
        let mut reference = make_tuner(resume_opts());
        reference.seed_observation(d.clone(), toy_runtime(&d), toy_resource(&d), &[]);
        let full = drive_mixed(&mut reference, 10, &[2, 3, 4]);

        // The interrupted run: same prefix, then "crash" and resume.
        let mut tuner = make_tuner(resume_opts());
        tuner.seed_observation(d.clone(), toy_runtime(&d), toy_resource(&d), &[]);
        let prefix = drive_mixed(&mut tuner, 6, &[2, 3, 4]);
        assert_eq!(prefix, full[..6].to_vec());
        let snap = tuner.snapshot("toy");
        drop(tuner);
        let mut resumed = OnlineTuner::resume_with_resource_fn(
            toy_space(),
            resume_opts(),
            Arc::new(toy_resource),
            &snap,
            Telemetry::disabled(),
        )
        .unwrap();
        let tail = drive_mixed(&mut resumed, 4, &[]);
        assert_eq!(tail, full[6..].to_vec(), "post-resume trace diverged");
    }

    #[test]
    fn resume_regenerates_a_pending_suggestion() {
        let mut tuner = make_tuner(resume_opts());
        drive_mixed(&mut tuner, 4, &[]);
        let cfg = tuner.suggest(&[]).unwrap();
        let snap = tuner.snapshot("toy");
        assert!(snap.pending.is_some());
        let mut resumed = OnlineTuner::resume_with_resource_fn(
            toy_space(),
            resume_opts(),
            Arc::new(toy_resource),
            &snap,
            Telemetry::disabled(),
        )
        .unwrap();
        // The in-flight run's result can be reported to the resumed tuner.
        assert_eq!(
            resumed.suggest(&[]).unwrap_err(),
            TunerError::PendingObservation
        );
        let (rt, r) = (toy_runtime(&cfg), toy_resource(&cfg));
        resumed.observe(cfg, rt, r, &[]).unwrap();
        assert_eq!(resumed.history().len(), 5);
    }

    #[test]
    fn resume_restores_post_stop_state() {
        let mut tuner = make_tuner(TunerOptions {
            budget: 4,
            restart_after: 3,
            degradation_factor: 1.2,
            seed: 3,
            ..Default::default()
        });
        drive(&mut tuner, 4);
        let cfg = tuner.suggest(&[]).unwrap(); // budget exhausted → stopped
        tuner.observe(cfg, 1e6, 1e6, &[]).unwrap(); // degraded run 1
        let snap = tuner.snapshot("toy");
        assert!(snap.stopped);
        assert_eq!(snap.degraded_streak, 1);
        let mut resumed = OnlineTuner::resume_with_resource_fn(
            toy_space(),
            TunerOptions {
                budget: 4,
                restart_after: 3,
                degradation_factor: 1.2,
                seed: 3,
                ..Default::default()
            },
            Arc::new(toy_resource),
            &snap,
            Telemetry::disabled(),
        )
        .unwrap();
        assert!(resumed.is_stopped());
        // Two more degraded runs complete the streak of 3 → restart.
        for _ in 0..2 {
            let cfg = resumed.suggest(&[]).unwrap();
            resumed.observe(cfg, 1e6, 1e6, &[]).unwrap();
        }
        assert_eq!(resumed.restarts(), 1);
        assert!(!resumed.is_stopped());
    }

    #[test]
    fn resume_rejects_mismatched_options_and_corrupt_history() {
        let mut tuner = make_tuner(resume_opts());
        drive_mixed(&mut tuner, 4, &[]);
        let snap = tuner.snapshot("toy");

        let wrong_seed = TunerOptions {
            seed: 999,
            ..resume_opts()
        };
        assert_eq!(
            OnlineTuner::resume_with_resource_fn(
                toy_space(),
                wrong_seed,
                Arc::new(toy_resource),
                &snap,
                Telemetry::disabled(),
            )
            .err(),
            Some(ResumeError::OptionsMismatch { field: "seed" })
        );

        let mut corrupt = snap.clone();
        corrupt.history[2].config.set(0, ParamValue::Int(50));
        corrupt.history[2].config.set(1, ParamValue::Int(32));
        assert_eq!(
            OnlineTuner::resume_with_resource_fn(
                toy_space(),
                resume_opts(),
                Arc::new(toy_resource),
                &corrupt,
                Telemetry::disabled(),
            )
            .err(),
            Some(ResumeError::ReplayDivergence { at: 2 })
        );
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
